//! Crash-equivalence suite (build with `--features failpoints`).
//!
//! The property under test: **killing the process at any fault-injection
//! site leaves a directory from which [`Store::recover`] rebuilds exactly
//! the store a never-crashed run of the committed operation prefix would
//! have produced** — same base graph, same converged saturation, same
//! query answers.
//!
//! Mechanics: each scenario re-executes this test binary, filtered to
//! [`crash_child_entry`], with `WEBREASON_FAILPOINTS` arming one site with
//! `abort@n`. The child runs a fixed durable workload and dies at the
//! armed site (no unwind, no destructors — a model power cut). The parent
//! then recovers the directory and checks it against the oracle: the
//! journal's record count determines the exact committed prefix, and a
//! fresh store fed the recovered base graph must converge on the same
//! derived state and answers.
//!
//! The same binary also checks that a panic or an I/O error inside a
//! journaled update leaves the store exactly as it was before the update.

use durability::{FsyncPolicy, Journal};
use rdf_model::Term;
use rdfs::incremental::MaintenanceAlgorithm;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::Command;
use webreason_core::durable::JOURNAL_FILE;
use webreason_core::{DurableStore, ReasoningConfig, ScriptOp, Store};

const ZOO: &str = r#"
    @prefix ex: <http://ex/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    ex:Cat rdfs:subClassOf ex:Mammal .
    ex:Mammal rdfs:subClassOf ex:Animal .
    ex:Tom a ex:Cat .
"#;
const MAMMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";
const ANIMALS: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Animal }";

/// The fixed child workload. Journal records, in order:
///
/// | # | record                      | MAMMALS after |
/// |---|-----------------------------|---------------|
/// | 1 | SetConfig(sat-dred)         | 0             |
/// | 2 | InsertBatch(ZOO)            | 1 (Tom)       |
/// | 3 | InsertBatch(Rex a Mammal)   | 2             |
/// | 4 | CheckpointMark              | 2             |
/// | 5 | InsertBatch(Ana a Cat)      | 3             |
/// | 6 | DeleteBatch(Tom a Cat)      | 2             |
/// | 7 | InsertBatch(Dog ⊑ Mammal)   | 2             |
/// | 8 | UpdateScript(Cleo; ±Tmp)    | 3             |
///
/// Record 8 is a three-op script (insert Cleo a Cat, insert Tmp a Cat,
/// delete Tmp a Cat) journaled as a *single* atomic record: a crash at
/// append hit 8 must lose all three ops together, never a prefix.
///
/// `EXPECTED_MAMMALS[k]` is the answer count after the first `k` records.
const EXPECTED_MAMMALS: [usize; 9] = [0, 0, 1, 2, 2, 3, 2, 2, 3];

fn rdf_type() -> Term {
    Term::iri(rdf_model::vocab::RDF_TYPE)
}

fn run_workload(dir: &Path) {
    let mut ds = DurableStore::create(
        dir,
        ReasoningConfig::Saturation(MaintenanceAlgorithm::DRed),
        NonZeroUsize::MIN,
        FsyncPolicy::Always,
    )
    .expect("child creates the store");
    ds.load_turtle(ZOO).expect("zoo loads");
    // Force the first saturation so later updates run the incremental
    // maintenance engine (and hit its failpoint site).
    assert_eq!(ds.answer_sparql(MAMMALS).expect("answers").len(), 1);
    ds.insert_terms(
        &Term::iri("http://ex/Rex"),
        &rdf_type(),
        &Term::iri("http://ex/Mammal"),
    )
    .expect("insert Rex");
    ds.checkpoint().expect("checkpoint");
    ds.load_turtle("@prefix ex: <http://ex/> .\nex:Ana a ex:Cat .")
        .expect("insert Ana");
    ds.delete_terms(
        &Term::iri("http://ex/Tom"),
        &rdf_type(),
        &Term::iri("http://ex/Cat"),
    )
    .expect("delete Tom");
    ds.insert_terms(
        &Term::iri("http://ex/Dog"),
        &Term::iri(rdf_model::vocab::RDFS_SUB_CLASS_OF),
        &Term::iri("http://ex/Mammal"),
    )
    .expect("schema insert");
    let a = rdf_type();
    let cat = Term::iri("http://ex/Cat");
    ds.apply_script(&[
        ScriptOp::Insert([Term::iri("http://ex/Cleo"), a.clone(), cat.clone()]),
        ScriptOp::Insert([Term::iri("http://ex/Tmp"), a.clone(), cat.clone()]),
        ScriptOp::Delete([Term::iri("http://ex/Tmp"), a, cat]),
    ])
    .expect("update script");
    ds.sync().expect("sync");
    std::fs::write(dir.join("workload-done"), b"done").expect("marker");
}

/// The child half of every crash scenario: inert under a normal test run
/// (the driver env var is absent), otherwise runs the workload and dies
/// at whatever site `WEBREASON_FAILPOINTS` armed.
#[test]
fn crash_child_entry() {
    let Ok(dir) = std::env::var("WEBREASON_CRASH_DIR") else {
        return;
    };
    run_workload(Path::new(&dir));
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webreason-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kills a child running [`run_workload`] at `failpoints`, recovers the
/// directory, and asserts crash equivalence. Returns the recovered store
/// for scenario-specific checks.
fn crash_and_recover(name: &str, failpoints: &str) -> (PathBuf, Store) {
    let dir = tmpdir(name);
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["--exact", "crash_child_entry", "--nocapture"])
        .env("WEBREASON_CRASH_DIR", &dir)
        .env("WEBREASON_FAILPOINTS", failpoints)
        .output()
        .expect("child spawns");
    assert!(
        !out.status.success(),
        "{name}: child survived {failpoints:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        !dir.join("workload-done").exists(),
        "{name}: workload finished before {failpoints:?} fired"
    );

    let mut rec = Store::recover(&dir).unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));

    // Oracle 1 — the committed prefix: the journal's record count pins
    // down exactly which updates the crashed run acknowledged, and the
    // recovered store must answer accordingly (for records written but
    // not applied before the crash, write-ahead order means they count).
    let records = Journal::replay(dir.join(JOURNAL_FILE))
        .expect("journal replays")
        .records
        .len();
    assert_eq!(
        rec.answer_sparql(MAMMALS).expect("answers").len(),
        EXPECTED_MAMMALS[records],
        "{name}: wrong answers for a {records}-record journal"
    );

    // Oracle 2 — convergence: a fresh, never-crashed store fed the
    // recovered base graph must reach the same derived state and answers.
    let base = rec.export_ntriples();
    let mut fresh = Store::new(rec.config());
    fresh.load_ntriples(&base).expect("exported graph re-loads");
    assert_eq!(fresh.export_ntriples(), base, "{name}: base graph drifts");
    for query in [MAMMALS, ANIMALS] {
        let a = rec.answer_sparql(query).expect("recovered store answers");
        let b = fresh.answer_sparql(query).expect("fresh store answers");
        assert_eq!(
            a.to_strings(&rec.dictionary()),
            b.to_strings(&fresh.dictionary()),
            "{name}: recovered and never-crashed stores disagree on {query}"
        );
    }
    assert_eq!(
        rec.stats().saturated_triples,
        fresh.stats().saturated_triples,
        "{name}: saturations diverge"
    );

    // Oracle 3 — recovery is deterministic, and the directory stays
    // writable: open for append, add a triple, recover again.
    let rec2 = Store::recover(&dir).expect("second recovery");
    assert_eq!(
        rec2.export_ntriples(),
        base,
        "{name}: recovery not deterministic"
    );
    let mut resumed = DurableStore::open(&dir, FsyncPolicy::Always).expect("reopen for append");
    resumed
        .insert_terms(
            &Term::iri("http://ex/Post"),
            &rdf_type(),
            &Term::iri("http://ex/Mammal"),
        )
        .expect("post-crash insert");
    let mut rec3 = Store::recover(&dir).expect("recovery after resume");
    assert_eq!(
        rec3.answer_sparql(MAMMALS).expect("answers").len(),
        EXPECTED_MAMMALS[records] + 1,
        "{name}: post-crash append lost"
    );

    (dir, rec)
}

/// Crash at every journal append: the armed site fires *before* the frame
/// is written, so record `n` is exactly the first uncommitted operation.
#[test]
fn killed_at_each_journal_append_recovers_the_committed_prefix() {
    for hit in 1..=8u32 {
        let (_dir, _rec) = crash_and_recover(
            &format!("append-{hit}"),
            &format!("store.journal.append=abort@{hit}"),
        );
    }
}

/// Crash between a checkpoint's tmp-file write and its rename: the
/// half-made checkpoint must be invisible and recovery journal-only.
#[test]
fn killed_mid_checkpoint_falls_back_to_the_journal() {
    let (dir, mut rec) = crash_and_recover("mid-checkpoint", "store.checkpoint.write=abort@1");
    // The abort fired inside checkpoint(): 3 records committed, no
    // CheckpointMark, no visible checkpoint file — Tom and Rex survive.
    assert!(!dir
        .read_dir()
        .expect("dir lists")
        .filter_map(Result::ok)
        .any(|e| e.file_name().to_string_lossy().ends_with(".ckpt")));
    assert_eq!(rec.answer_sparql(MAMMALS).expect("answers").len(), 2);
}

/// Crash *after* the journal write but *during* the in-memory apply (the
/// incremental-maintenance engine): write-ahead order means the committed
/// record must be visible after recovery even though the crashed process
/// never finished applying it.
#[test]
fn killed_during_maintenance_still_recovers_the_journaled_update() {
    for hit in 1..=2u32 {
        let (_dir, _rec) = crash_and_recover(
            &format!("maintain-{hit}"),
            &format!("store.maintain.incremental=abort@{hit}"),
        );
    }
}

/// A crash plus a torn final frame (the classic power-cut-mid-write):
/// recovery drops the torn bytes and replays the intact prefix.
#[test]
fn torn_tail_on_top_of_a_crash_recovers() {
    let dir = tmpdir("torn");
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["--exact", "crash_child_entry", "--nocapture"])
        .env("WEBREASON_CRASH_DIR", &dir)
        .env("WEBREASON_FAILPOINTS", "store.maintain.incremental=abort@2")
        .output()
        .expect("child spawns");
    assert!(!out.status.success());

    let path = dir.join(JOURNAL_FILE);
    let intact = Journal::replay(&path)
        .expect("journal replays")
        .records
        .len();
    let bytes = std::fs::read(&path).expect("journal reads");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear the tail");

    let replay = Journal::replay(&path).expect("torn journal still replays");
    assert_eq!(replay.records.len(), intact - 1, "final record dropped");
    let mut rec = Store::recover(&dir).expect("recovery over a torn tail");
    assert_eq!(
        rec.answer_sparql(MAMMALS).expect("answers").len(),
        EXPECTED_MAMMALS[replay.records.len()],
    );
}

/// The failpoint registry is process-global; in-process tests that
/// reconfigure it (here and in [`err_faults`]) must not overlap.
fn fp_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

mod panic_isolation {
    //! A panic inside a journaled update must leave the store as it was
    //! before the update, and answering afterwards.

    use super::*;
    use std::sync::MutexGuard;

    fn serial() -> MutexGuard<'static, ()> {
        super::fp_serial()
    }

    /// The batch-atomicity contract under a mid-script journal failure:
    /// a script whose single append dies leaves the journal bytes, the
    /// published epoch, and the reader-visible answers bit-identical to
    /// before the request, recovery equals the pre-script state, and the
    /// store stays usable afterwards.
    #[test]
    fn failed_script_append_leaves_state_bit_identical() {
        let _g = serial();
        let dir = tmpdir("script-atomic");
        let mut ds = DurableStore::create(
            &dir,
            ReasoningConfig::Saturation(MaintenanceAlgorithm::DRed),
            NonZeroUsize::MIN,
            FsyncPolicy::Always,
        )
        .expect("store creates");
        ds.load_turtle(ZOO).expect("zoo loads");

        let journal_path = dir.join(JOURNAL_FILE);
        let journal_before = std::fs::read(&journal_path).expect("journal reads");
        let epoch_before = ds.publish();
        let answers_before = ds.answer_sparql(MAMMALS).expect("answers").len();
        let export_before = ds.store().export_ntriples();

        let a = rdf_type();
        let cat = Term::iri("http://ex/Cat");
        webreason_failpoints::configure("store.journal.append=panic");
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ds.apply_script(&[
                ScriptOp::Insert([Term::iri("http://ex/Cleo"), a.clone(), cat.clone()]),
                ScriptOp::Insert([Term::iri("http://ex/Tmp"), a.clone(), cat.clone()]),
            ])
        }));
        webreason_failpoints::configure("");
        assert!(attempt.is_err(), "armed append must fail the script");

        // Nothing happened: same journal bytes, same epoch, same answers.
        assert_eq!(
            std::fs::read(&journal_path).expect("journal reads"),
            journal_before,
            "failed script must not touch the journal"
        );
        assert_eq!(ds.publish(), epoch_before, "no new epoch published");
        assert_eq!(
            ds.answer_sparql(MAMMALS).expect("answers").len(),
            answers_before,
            "failed script leaked into answers"
        );
        assert_eq!(ds.store().export_ntriples(), export_before);
        let rec = Store::recover(&dir).expect("recovers");
        assert_eq!(rec.export_ntriples(), export_before, "recovery drifted");

        // The store is not poisoned: the same script re-applies cleanly
        // (its record carries the orphaned dictionary delta from the
        // failed attempt), and replay agrees with the live store.
        let outcome = ds
            .apply_script(&[
                ScriptOp::Insert([Term::iri("http://ex/Cleo"), a.clone(), cat.clone()]),
                ScriptOp::Insert([Term::iri("http://ex/Tmp"), a.clone(), cat.clone()]),
                ScriptOp::Delete([Term::iri("http://ex/Tmp"), a, cat]),
            ])
            .expect("retry succeeds");
        assert!(outcome.added > 0);
        assert_eq!(
            ds.answer_sparql(MAMMALS).expect("answers").len(),
            answers_before + 1,
            "Cleo lands, Tmp nets to absent"
        );
        let rec = Store::recover(&dir).expect("recovers after retry");
        assert_eq!(rec.export_ntriples(), ds.store().export_ntriples());
    }
}

mod err_faults {
    //! Disk faults that *return* instead of killing the process — the
    //! `err(ENOSPC)` / `err(EIO)` failpoint actions. The contract at the
    //! store layer: every err site leaves the store answerable, leaves
    //! [`Store::recover`] bit-identical to the live state, and a retried
    //! write after the fault clears is durable **exactly once** (the
    //! journal gains exactly one record for it).

    use super::*;
    use webreason_failpoints::configure;

    fn answerable(ds: &mut DurableStore, expected: usize) {
        assert_eq!(ds.answer_sparql(MAMMALS).expect("answers").len(), expected);
    }

    fn recovery_matches_live(dir: &Path, ds: &DurableStore) {
        let rec = Store::recover(dir).expect("recovers");
        assert_eq!(
            rec.export_ntriples(),
            ds.store().export_ntriples(),
            "recovered store drifted from the live one"
        );
    }

    fn zoo_store(name: &str, fsync: FsyncPolicy) -> (PathBuf, DurableStore) {
        let dir = tmpdir(name);
        let mut ds = DurableStore::create(
            &dir,
            ReasoningConfig::Saturation(MaintenanceAlgorithm::DRed),
            NonZeroUsize::MIN,
            fsync,
        )
        .expect("store creates");
        ds.load_turtle(ZOO).expect("zoo loads");
        (dir, ds)
    }

    fn journal_records(dir: &Path) -> usize {
        Journal::replay(dir.join(JOURNAL_FILE))
            .expect("journal replays")
            .records
            .len()
    }

    fn rex() -> [Term; 3] {
        [
            Term::iri("http://ex/Rex"),
            rdf_type(),
            Term::iri("http://ex/Mammal"),
        ]
    }

    /// ENOSPC at the journal append: the write is rejected before any
    /// bytes land, nothing is applied, and the retried write lands once.
    #[test]
    fn enospc_on_append_rejects_cleanly_and_retry_is_durable_once() {
        let _g = fp_serial();
        configure("");
        let (dir, mut ds) = zoo_store("err-append", FsyncPolicy::Always);
        let records_before = journal_records(&dir);
        let bytes_before = std::fs::read(dir.join(JOURNAL_FILE)).expect("journal reads");

        configure("store.journal.append=err(ENOSPC)");
        let [s, p, o] = rex();
        let err = ds
            .insert_terms(&s, &p, &o)
            .expect_err("armed append must fail");
        assert!(err.to_string().contains("os error 28"), "{err}");
        // The err action is persistent: a second attempt fails too.
        ds.insert_terms(&s, &p, &o).expect_err("still armed");
        configure("");

        // Nothing happened: same journal bytes, same answers, recovery
        // equals the live state, and the store keeps answering.
        assert_eq!(
            std::fs::read(dir.join(JOURNAL_FILE)).expect("journal reads"),
            bytes_before,
            "failed append touched the journal"
        );
        answerable(&mut ds, 1);
        recovery_matches_live(&dir, &ds);

        // The disk "frees up": the retry lands exactly once.
        ds.insert_terms(&s, &p, &o).expect("retry succeeds");
        assert_eq!(
            journal_records(&dir),
            records_before + 1,
            "exactly one new record"
        );
        answerable(&mut ds, 2);
        recovery_matches_live(&dir, &ds);
    }

    /// EIO at the group fsync: the frames are in the file but their
    /// durability was never acknowledged. Re-syncing after the fault
    /// clears settles the same frames — no re-append, no duplicates.
    #[test]
    fn eio_on_group_fsync_settles_without_duplicates() {
        let _g = fp_serial();
        configure("");
        let (dir, mut ds) = zoo_store("err-fsync", FsyncPolicy::Always);
        let records_before = journal_records(&dir);

        let [s, p, o] = rex();
        configure("store.journal.fsync=err(EIO)");
        ds.apply_script_deferred(&[ScriptOp::Insert([s, p, o])])
            .expect("deferred append itself succeeds");
        let err = ds.sync_group().expect_err("armed group fsync must fail");
        assert!(err.to_string().contains("os error 5"), "{err}");
        configure("");

        // The store stays answerable and consistent with recovery even
        // mid-fault (the frame is written, just not yet acknowledged).
        answerable(&mut ds, 2);
        recovery_matches_live(&dir, &ds);

        // Retrying the *sync* (not the append) makes the write durable
        // exactly once.
        ds.sync_group().expect("retried sync succeeds");
        assert_eq!(
            journal_records(&dir),
            records_before + 1,
            "no duplicate record"
        );
        answerable(&mut ds, 2);
        recovery_matches_live(&dir, &ds);
    }

    /// ENOSPC between the checkpoint's tmp write and its rename: the
    /// half-made checkpoint stays invisible, recovery is journal-only,
    /// and a retried checkpoint completes.
    #[test]
    fn enospc_mid_checkpoint_leaves_journal_only_recovery() {
        let _g = fp_serial();
        configure("");
        let (dir, mut ds) = zoo_store("err-ckpt", FsyncPolicy::Always);
        let [s, p, o] = rex();
        ds.insert_terms(&s, &p, &o).expect("insert Rex");

        configure("store.checkpoint.write=err(ENOSPC)");
        let err = ds.checkpoint().expect_err("armed checkpoint must fail");
        assert!(err.to_string().contains("os error 28"), "{err}");
        configure("");

        let visible_ckpt = |dir: &Path| {
            dir.read_dir()
                .expect("dir lists")
                .filter_map(Result::ok)
                .any(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        };
        assert!(!visible_ckpt(&dir), "half-made checkpoint became visible");
        answerable(&mut ds, 2);
        recovery_matches_live(&dir, &ds);

        // The retry completes and recovery (now checkpoint-based) still
        // equals the live state.
        ds.checkpoint().expect("retried checkpoint succeeds");
        assert!(visible_ckpt(&dir), "retried checkpoint missing");
        answerable(&mut ds, 2);
        recovery_matches_live(&dir, &ds);
    }
}
