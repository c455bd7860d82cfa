//! # webreason-failpoints — deterministic fault injection
//!
//! A minimal, dependency-free failpoint layer in the style of
//! `tikv/fail-rs`: code under test marks crash-relevant sites with
//! [`fail_point!`]`("site.name")`, and a test (or an operator chasing a
//! heisenbug) arms those sites with an action script. The layer is
//! **zero-cost unless the `failpoints` cargo feature is enabled**: with
//! the feature off, `fail_point!` expands to nothing — no registry, no
//! atomics, no branch.
//!
//! ## Arming sites
//!
//! Sites are armed from the `WEBREASON_FAILPOINTS` environment variable
//! (read once, at first evaluation) or programmatically via [`configure`]:
//!
//! ```text
//! WEBREASON_FAILPOINTS=store.journal.append=panic@3,store.maintain.incremental=abort
//! ```
//!
//! Each entry is `site=action[@n]` where `action` is one of
//!
//! * `panic` — panic at the site (unwinding; exercises panic isolation),
//! * `abort` — abort the process at the site (no destructors, no unwind;
//!   models a crash / power cut for recovery tests),
//! * `err(ENOSPC)` / `err(EIO)` — make the site return the corresponding
//!   `std::io::Error` (raw OS errno, so `raw_os_error()` matches real
//!   disk faults). Only sites marked with [`fail_point_io!`] can return;
//!   a plain [`fail_point!`] ignores an armed `err` action.
//! * `off`   — explicitly disarmed (useful to override an outer script).
//!
//! `@n` (1-based, default 1) delays the action until the *n*-th hit of the
//! site, so a test can survive two appends and die on the third. Hits are
//! counted per site with a process-global atomic counter, which makes the
//! trigger deterministic for a deterministic workload.
//!
//! Trigger semantics differ by action class: `panic`/`abort` are
//! **one-shot** (they fire exactly on hit *n* — the process usually does
//! not survive to hit *n+1* anyway), while `err(...)` is **persistent**
//! (it fires on every hit from *n* onward, until re-[`configure`]d).
//! Persistence is what makes a *fault window* expressible: arm
//! `store.journal.append=err(ENOSPC)`, run traffic, disarm with
//! `configure("")` — every append in between fails, exactly like a full
//! disk that stays full until an operator frees space.
//!
//! ## Naming convention
//!
//! Site names are dotted paths, `<subsystem>.<component>.<event>`:
//! `store.journal.append`, `store.journal.fsync`, `store.checkpoint.write`,
//! `store.maintain.incremental`, `store.subscribe.publish`. The registry is
//! open-world — arming an unknown site is not an error, it simply never
//! fires — so tests can be written against sites before they exist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Marks a fault-injection site.
///
/// With the `failpoints` feature enabled this evaluates the site against
/// the process-global registry (possibly panicking or aborting); with the
/// feature off it expands to nothing.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        $crate::eval($name)
    };
}

/// Marks a fault-injection site (no-op build: the `failpoints` feature is
/// disabled, the macro expands to nothing).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
}

/// Marks a fault-injection site on a fallible I/O path.
///
/// Like [`fail_point!`], but the site can also be armed with an
/// `err(ENOSPC)` / `err(EIO)` action, which makes the macro return the
/// corresponding `std::io::Error` from the enclosing function via `?` —
/// the enclosing error type must implement `From<std::io::Error>`.
/// `panic`/`abort` actions behave exactly as at a plain site.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point_io {
    ($name:expr) => {
        $crate::eval_io($name)?
    };
}

/// Marks a fault-injection site on a fallible I/O path (no-op build: the
/// `failpoints` feature is disabled, the macro expands to nothing — no
/// registry, no branch, no `Result` in sight).
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point_io {
    ($name:expr) => {};
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// What an armed site does when it triggers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Action {
        /// Panic (unwinding) at the site.
        Panic,
        /// Abort the process at the site — models a hard crash.
        Abort,
        /// Return an injected `std::io::Error` (only from
        /// `fail_point_io!` sites). Unlike `Panic`/`Abort`, fires on
        /// *every* hit from `trigger_at` onward — a fault window stays
        /// faulted until reconfigured, like a disk that stays full.
        Err(ErrKind),
        /// Explicitly disarmed.
        Off,
    }

    /// Which I/O error an [`Action::Err`] site injects. The raw OS errno
    /// is used so `io::Error::raw_os_error()` is indistinguishable from a
    /// real disk fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrKind {
        /// `ENOSPC` — no space left on device (errno 28).
        Enospc,
        /// `EIO` — input/output error (errno 5).
        Eio,
    }

    impl ErrKind {
        fn to_io_error(self) -> std::io::Error {
            match self {
                ErrKind::Enospc => std::io::Error::from_raw_os_error(28),
                ErrKind::Eio => std::io::Error::from_raw_os_error(5),
            }
        }
    }

    struct Site {
        action: Action,
        /// 1-based hit index on which the action fires.
        trigger_at: u64,
        hits: AtomicU64,
    }

    struct Registry {
        sites: HashMap<String, Site>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let spec = std::env::var("WEBREASON_FAILPOINTS").unwrap_or_default();
            Mutex::new(parse(&spec))
        })
    }

    fn parse(spec: &str) -> Registry {
        let mut sites = HashMap::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, rhs)) = entry.split_once('=') else {
                continue;
            };
            let (action, trigger_at) = match rhs.split_once('@') {
                Some((a, n)) => (a, n.parse::<u64>().unwrap_or(1).max(1)),
                None => (rhs, 1),
            };
            let action = match action.trim() {
                "panic" => Action::Panic,
                "abort" | "kill" => Action::Abort,
                a if a.eq_ignore_ascii_case("err(ENOSPC)") => Action::Err(ErrKind::Enospc),
                a if a.eq_ignore_ascii_case("err(EIO)") => Action::Err(ErrKind::Eio),
                _ => Action::Off,
            };
            sites.insert(
                name.trim().to_owned(),
                Site {
                    action,
                    trigger_at,
                    hits: AtomicU64::new(0),
                },
            );
        }
        Registry { sites }
    }

    /// Evaluates a site: counts the hit and fires the armed action on the
    /// configured occurrence. Called by `fail_point!`. An armed `err`
    /// action is ignored here — a plain site has no way to return it.
    pub fn eval(name: &str) {
        let _ = eval_inner(name);
    }

    /// Evaluates an I/O site: like [`eval`], but an armed `err` action
    /// returns the injected error (on every hit from `trigger_at`
    /// onward). Called by `fail_point_io!`.
    pub fn eval_io(name: &str) -> std::io::Result<()> {
        eval_inner(name)
    }

    fn eval_inner(name: &str) -> std::io::Result<()> {
        let reg = registry().lock().expect("failpoint registry");
        let Some(site) = reg.sites.get(name) else {
            return Ok(());
        };
        let hit = site.hits.fetch_add(1, Ordering::SeqCst) + 1;
        match site.action {
            // Persistent: the window stays faulted from `trigger_at` on.
            Action::Err(kind) if hit >= site.trigger_at => Err(kind.to_io_error()),
            // One-shot actions fire exactly on the configured hit.
            Action::Panic if hit == site.trigger_at => {
                drop(reg); // don't poison the registry for catch_unwind users
                panic!("failpoint {name} triggered (hit {hit})");
            }
            Action::Abort if hit == site.trigger_at => {
                // Flush nothing, unwind nothing: model a hard crash.
                eprintln!("failpoint {name} aborting process (hit {hit})");
                std::process::abort();
            }
            _ => Ok(()),
        }
    }

    /// Replaces the whole registry from a spec string (same grammar as the
    /// `WEBREASON_FAILPOINTS` environment variable). Hit counters reset.
    pub fn configure(spec: &str) {
        *registry().lock().expect("failpoint registry") = parse(spec);
    }

    /// How many times a site has been evaluated since it was last armed.
    pub fn hit_count(name: &str) -> u64 {
        registry()
            .lock()
            .expect("failpoint registry")
            .sites
            .get(name)
            .map(|s| s.hits.load(Ordering::SeqCst))
            .unwrap_or(0)
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{configure, eval, eval_io, hit_count, Action, ErrKind};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global; tests that reconfigure it must not
    /// overlap.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_sites_are_inert() {
        let _g = serial();
        configure("");
        fail_point!("nothing.armed.here");
        assert_eq!(hit_count("nothing.armed.here"), 0);
    }

    #[test]
    fn panic_fires_on_the_configured_hit() {
        let _g = serial();
        configure("t.panic=panic@3");
        fail_point!("t.panic");
        fail_point!("t.panic");
        assert_eq!(hit_count("t.panic"), 2);
        let r = std::panic::catch_unwind(|| fail_point!("t.panic"));
        assert!(r.is_err(), "third hit panics");
        // subsequent hits are inert again (one-shot trigger)
        fail_point!("t.panic");
        assert_eq!(hit_count("t.panic"), 4);
    }

    #[test]
    fn off_and_garbage_actions_never_fire() {
        let _g = serial();
        configure("t.off=off,t.junk=frobnicate,malformed-entry,x=panic@0");
        fail_point!("t.off");
        fail_point!("t.junk");
        // `@0` clamps to 1, so "x" would fire on first hit — but only for
        // a real action; `panic@0` is armed as panic at hit 1.
        let r = std::panic::catch_unwind(|| fail_point!("x"));
        assert!(r.is_err());
        assert_eq!(hit_count("t.off"), 1);
    }

    fn io_site(name: &str) -> std::io::Result<()> {
        fail_point_io!(name);
        Ok(())
    }

    #[test]
    fn err_actions_fire_persistently_from_the_trigger() {
        let _g = serial();
        configure("t.io=err(ENOSPC)@3");
        assert!(io_site("t.io").is_ok(), "hit 1 survives");
        assert!(io_site("t.io").is_ok(), "hit 2 survives");
        for hit in 3..6 {
            let e = io_site("t.io").expect_err("err actions persist");
            assert_eq!(e.raw_os_error(), Some(28), "ENOSPC at hit {hit}");
        }
        assert_eq!(hit_count("t.io"), 5);
        // Disarming ends the fault window; the site heals.
        configure("");
        assert!(io_site("t.io").is_ok());
    }

    #[test]
    fn err_kinds_map_to_real_errnos() {
        let _g = serial();
        configure("t.eio=err(EIO)");
        assert_eq!(io_site("t.eio").unwrap_err().raw_os_error(), Some(5));
        configure("t.enospc=err(enospc)"); // case-insensitive inner token
        assert_eq!(io_site("t.enospc").unwrap_err().raw_os_error(), Some(28));
    }

    #[test]
    fn io_sites_still_honour_panic_actions() {
        let _g = serial();
        configure("t.io_panic=panic@2");
        assert!(io_site("t.io_panic").is_ok());
        let r = std::panic::catch_unwind(|| io_site("t.io_panic"));
        assert!(r.is_err(), "second hit panics through the io macro");
        // One-shot: hit 3 is inert again.
        assert!(io_site("t.io_panic").is_ok());
    }

    #[test]
    fn plain_sites_ignore_err_actions() {
        let _g = serial();
        configure("t.plain=err(ENOSPC)");
        fail_point!("t.plain"); // no way to return: must not fire
        assert_eq!(hit_count("t.plain"), 1);
    }
}

/// Default-build proof: with the `failpoints` feature off, the macros
/// expand to nothing — the compiler sees a function whose only statement
/// is `Ok(())`, no registry, no atomics, no branch. The CI
/// `cargo test -p webreason-failpoints` (no features) run compiles and
/// executes this, pinning the zero-cost claim.
#[cfg(all(test, not(feature = "failpoints")))]
mod noop_tests {
    fn io_site() -> std::io::Result<()> {
        fail_point_io!("store.journal.append");
        Ok(())
    }

    #[test]
    fn disabled_macros_compile_to_nothing() {
        fail_point!("store.journal.append");
        assert!(io_site().is_ok(), "an unarmed build can never inject");
    }
}
