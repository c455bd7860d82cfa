//! Command-line argument parsing (hand-rolled; no dependency needed for
//! a handful of commands and flags).

use std::fmt;
use webreason_core::FsyncPolicy;

/// A reasoning strategy name accepted on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Saturation maintained by counting (also named `saturation`).
    Counting,
    /// Query reformulation.
    Reformulation,
    /// LiteMat interval rewriting (range scans over hierarchy intervals).
    Interval,
}

impl Strategy {
    /// Parses an optional `--strategy` value.
    fn parse(s: Option<&str>) -> Result<Option<Strategy>, CliError> {
        let Some(s) = s else { return Ok(None) };
        Ok(Some(match s {
            "saturation" | "counting" => Strategy::Counting,
            "reformulation" => Strategy::Reformulation,
            "interval" | "litemat" => Strategy::Interval,
            _ => {
                return Err(err(format!(
                    "unknown strategy {s:?} (expected saturation|counting|reformulation|interval)"
                )))
            }
        }))
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `webreason query …`
    Query {
        /// Data files to load.
        files: Vec<String>,
        /// SPARQL text (already dereferenced if given as `@file`).
        sparql: String,
        /// Strategy to answer with (`None` = the default, or — with
        /// `--journal` — whatever strategy the journaled store has).
        strategy: Option<Strategy>,
        /// Maximum solutions printed.
        limit_display: usize,
        /// Durability directory: updates are journaled and the store is
        /// recovered from it on the next run.
        journal: Option<String>,
        /// When journal appends reach the disk (`--fsync always|never`).
        fsync: FsyncPolicy,
    },
    /// `webreason saturate …`
    Saturate {
        /// Data files to load.
        files: Vec<String>,
        /// `nt` or `ttl` output.
        format: String,
        /// Full-RDFS structural closure instead of the database fragment.
        full: bool,
    },
    /// `webreason reformulate …`
    Reformulate {
        /// Data files to load (for the schema).
        files: Vec<String>,
        /// SPARQL text.
        sparql: String,
    },
    /// `webreason explain …`
    Explain {
        /// Data files to load.
        files: Vec<String>,
        /// The triple, as three N-Triples terms.
        triple: String,
    },
    /// `webreason stats …`
    Stats {
        /// Data files to load.
        files: Vec<String>,
    },
    /// `webreason thresholds …` — the Fig. 3 analysis on user data.
    Thresholds {
        /// Data files to load.
        files: Vec<String>,
        /// Path to a query file: one query per line, optionally
        /// `name<TAB>query` or `name|query`.
        queries: String,
    },
    /// `webreason metrics` — run a built-in workload against every
    /// instrumented subsystem and print the observability snapshot.
    Metrics {
        /// `json` or `prometheus` output.
        format: String,
        /// Durability directory for the journalled part of the workload
        /// (`None` = a scratch directory, removed afterwards).
        journal: Option<String>,
    },
    /// `webreason serve …` — run the embedded HTTP query/update server
    /// over a journaled store.
    Serve {
        /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
        addr: String,
        /// Worker threads serving queries.
        threads: usize,
        /// Durability directory (created on first run; recovered after).
        journal: String,
        /// When journal appends reach the disk.
        fsync: FsyncPolicy,
        /// Bounded writer-queue depth (a full queue answers 429).
        queue: usize,
        /// Stop after this many seconds (`None` = run until killed).
        duration_secs: Option<u64>,
        /// Open-connection cap; excess accepts are refused with 503.
        max_conns: usize,
        /// Per-phase idle timeout in milliseconds before a stalled
        /// connection is reaped.
        idle_timeout_ms: u64,
        /// Deadline applied to requests that send no
        /// `X-Webreason-Deadline-Ms` header (`None` = no default).
        default_deadline_ms: Option<u64>,
        /// Upper clamp on any per-request deadline header.
        max_deadline_ms: u64,
        /// Live `POST /subscribe` registrations allowed at once
        /// (0 disables the subscription subsystem).
        max_subscriptions: usize,
        /// Reasoning strategy for a freshly created journal (`None` =
        /// counting saturation); an existing journal keeps the strategy
        /// it was created with.
        strategy: Option<Strategy>,
    },
    /// `webreason checkpoint <journal-dir>` — snapshot a durable store.
    Checkpoint {
        /// The durability directory holding the journal.
        dir: String,
    },
    /// `webreason recover <journal-dir>` — rebuild and summarise a
    /// durable store without modifying it.
    Recover {
        /// The durability directory holding the journal.
        dir: String,
    },
    /// `webreason help`
    Help,
}

/// A command-line or execution error, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Reads a `--sparql` value: literal text, or `@path` to read a file.
fn sparql_value(raw: &str) -> Result<String, CliError> {
    if let Some(path) = raw.strip_prefix('@') {
        std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read query file {path}: {e}")))
    } else {
        Ok(raw.to_owned())
    }
}

/// Parses the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Err(err("missing command; try `webreason help`"));
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(Command::Help);
    }

    // Split positionals (files) from --flag value pairs.
    let mut files = Vec::new();
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
            flags.push((name.to_owned(), value.clone()));
        } else {
            files.push(a.clone());
        }
    }
    let flag = |name: &str| {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let known_flags: &[&str] = &[
        "sparql",
        "strategy",
        "triple",
        "format",
        "limit-display",
        "queries",
        "entailment",
        "threads",
        "journal",
        "fsync",
        "addr",
        "queue",
        "duration-secs",
        "max-conns",
        "idle-timeout",
        "default-deadline-ms",
        "max-deadline-ms",
        "max-subscriptions",
    ];
    for (name, _) in &flags {
        if !known_flags.contains(&name.as_str()) {
            return Err(err(format!("unknown flag --{name}; try `webreason help`")));
        }
    }
    // Queries run on one thread each; only the server has a thread count.
    if flag("threads").is_some() && command != "serve" {
        return Err(err("--threads only applies to serve"));
    }
    // The durability commands take the journal directory as their only
    // positional; every data-driven command needs at least one file —
    // except `query --journal`, whose data may live entirely in the
    // journal.
    match command.as_str() {
        "checkpoint" | "recover" => {
            if files.len() != 1 {
                return Err(err(format!("{command} needs exactly one <journal-dir>")));
            }
        }
        "query" if flag("journal").is_some() => {}
        "serve" => {
            if !files.is_empty() {
                return Err(err(
                    "serve takes no data files; load via the journal or POST /update",
                ));
            }
        }
        "metrics" => {
            if !files.is_empty() {
                return Err(err(
                    "metrics runs a built-in workload and takes no data files",
                ));
            }
        }
        _ => {
            if files.is_empty() {
                return Err(err("no data files given"));
            }
        }
    }

    match command.as_str() {
        "query" => {
            let sparql = sparql_value(flag("sparql").ok_or_else(|| err("query needs --sparql"))?)?;
            let strategy = Strategy::parse(flag("strategy"))?;
            let limit_display = match flag("limit-display") {
                None => 20,
                Some(v) => v
                    .parse()
                    .map_err(|_| err("--limit-display needs a number"))?,
            };
            let journal = flag("journal").map(str::to_owned);
            let fsync = match flag("fsync") {
                None => FsyncPolicy::Always,
                Some(v) => FsyncPolicy::parse(v).ok_or_else(|| {
                    err(format!("unknown fsync policy {v:?}; use always or never"))
                })?,
            };
            if fsync != FsyncPolicy::Always && journal.is_none() {
                return Err(err("--fsync only applies with --journal"));
            }
            Ok(Command::Query {
                files,
                sparql,
                strategy,
                limit_display,
                journal,
                fsync,
            })
        }
        "metrics" => {
            let format = flag("format").unwrap_or("json").to_owned();
            if format != "json" && format != "prometheus" {
                return Err(err(format!(
                    "unknown format {format:?}; use json or prometheus"
                )));
            }
            let journal = flag("journal").map(str::to_owned);
            Ok(Command::Metrics { format, journal })
        }
        "serve" => {
            let journal = flag("journal")
                .ok_or_else(|| err("serve needs --journal <dir>"))?
                .to_owned();
            let addr = flag("addr").unwrap_or("127.0.0.1:7878").to_owned();
            let threads = match flag("threads") {
                None => 4,
                Some(v) => v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--threads needs a positive number"))?,
            };
            let queue = match flag("queue") {
                None => 64,
                Some(v) => v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--queue needs a positive number"))?,
            };
            let fsync = match flag("fsync") {
                None => FsyncPolicy::Always,
                Some(v) => FsyncPolicy::parse(v).ok_or_else(|| {
                    err(format!("unknown fsync policy {v:?}; use always or never"))
                })?,
            };
            let duration_secs = match flag("duration-secs") {
                None => None,
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| err("--duration-secs needs a number"))?,
                ),
            };
            let max_conns = match flag("max-conns") {
                None => 4096,
                Some(v) => v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--max-conns needs a positive number"))?,
            };
            let idle_timeout_ms = match flag("idle-timeout") {
                None => 10_000,
                Some(v) => v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--idle-timeout needs milliseconds (>= 1)"))?,
            };
            // 0 disables the default deadline (requests without a header
            // run uncapped), matching the header's `0 = uncapped` rule.
            let default_deadline_ms = match flag("default-deadline-ms") {
                None => Some(30_000),
                Some(v) => v
                    .parse::<u64>()
                    .map(|n| (n > 0).then_some(n))
                    .map_err(|_| err("--default-deadline-ms needs milliseconds (0 = off)"))?,
            };
            let max_deadline_ms = match flag("max-deadline-ms") {
                None => 60_000,
                Some(v) => v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("--max-deadline-ms needs milliseconds (>= 1)"))?,
            };
            // 0 is legal: it turns the subscription subsystem off.
            let max_subscriptions = match flag("max-subscriptions") {
                None => 64,
                Some(v) => v
                    .parse::<usize>()
                    .map_err(|_| err("--max-subscriptions needs a number (0 = off)"))?,
            };
            // Only consulted when the journal is created fresh; an
            // existing journal keeps the strategy it was created with.
            let strategy = Strategy::parse(flag("strategy"))?;
            Ok(Command::Serve {
                addr,
                threads,
                journal,
                fsync,
                queue,
                duration_secs,
                max_conns,
                idle_timeout_ms,
                default_deadline_ms,
                max_deadline_ms,
                max_subscriptions,
                strategy,
            })
        }
        "checkpoint" => Ok(Command::Checkpoint {
            dir: files.remove(0),
        }),
        "recover" => Ok(Command::Recover {
            dir: files.remove(0),
        }),
        "saturate" => {
            let format = flag("format").unwrap_or("nt").to_owned();
            if format != "nt" && format != "ttl" {
                return Err(err(format!("unknown format {format:?}; use nt or ttl")));
            }
            let full = match flag("entailment") {
                None | Some("fragment") => false,
                Some("full") => true,
                Some(other) => {
                    return Err(err(format!(
                        "unknown entailment {other:?}; use fragment or full"
                    )))
                }
            };
            Ok(Command::Saturate {
                files,
                format,
                full,
            })
        }
        "reformulate" => {
            let sparql =
                sparql_value(flag("sparql").ok_or_else(|| err("reformulate needs --sparql"))?)?;
            Ok(Command::Reformulate { files, sparql })
        }
        "explain" => {
            let triple = flag("triple")
                .ok_or_else(|| err("explain needs --triple \"<s> <p> <o>\""))?
                .to_owned();
            Ok(Command::Explain { files, triple })
        }
        "stats" => Ok(Command::Stats { files }),
        "thresholds" => {
            let queries = flag("queries")
                .ok_or_else(|| err("thresholds needs --queries <file>"))?
                .to_owned();
            Ok(Command::Thresholds { files, queries })
        }
        other => Err(err(format!(
            "unknown command {other:?}; try `webreason help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_query_command() {
        let c = parse_args(&argv(
            "query data.ttl more.nt --sparql SELECT --strategy reformulation --limit-display 5",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Query {
                files: vec!["data.ttl".into(), "more.nt".into()],
                sparql: "SELECT".into(),
                strategy: Some(Strategy::Reformulation),
                limit_display: 5,
                journal: None,
                fsync: FsyncPolicy::Always,
            }
        );
    }

    #[test]
    fn defaults() {
        let c = parse_args(&argv("query d.ttl --sparql Q")).unwrap();
        match c {
            Command::Query {
                strategy,
                limit_display,
                journal,
                fsync,
                ..
            } => {
                assert_eq!(strategy, None, "resolved to counting at run time");
                assert_eq!(limit_display, 20);
                assert_eq!(journal, None);
                assert_eq!(fsync, FsyncPolicy::Always);
            }
            other => panic!("{other:?}"),
        }
        let c = parse_args(&argv("saturate d.ttl")).unwrap();
        assert_eq!(
            c,
            Command::Saturate {
                files: vec!["d.ttl".into()],
                format: "nt".into(),
                full: false,
            }
        );
    }

    #[test]
    fn strategy_aliases() {
        for (name, want) in [
            ("saturation", Strategy::Counting),
            ("counting", Strategy::Counting),
            ("reformulation", Strategy::Reformulation),
            ("interval", Strategy::Interval),
            ("litemat", Strategy::Interval),
        ] {
            let c = parse_args(&argv(&format!("query d --sparql Q --strategy {name}"))).unwrap();
            assert!(matches!(c, Command::Query { strategy, .. } if strategy == Some(want)));
        }
        // Names of strategies and maintainers the store no longer serves
        // are unknown, and the error lists the names it takes.
        for name in [
            "none",
            "plus",
            "adaptive",
            "backward",
            "datalog",
            "dred",
            "recompute",
        ] {
            let e =
                parse_args(&argv(&format!("query d --sparql Q --strategy {name}"))).unwrap_err();
            assert!(e.0.contains("unknown strategy"), "{name}: {e}");
            assert!(
                e.0.contains("saturation|counting|reformulation|interval"),
                "{name}: {e}"
            );
        }
    }

    #[test]
    fn durability_commands_and_flags() {
        assert_eq!(
            parse_args(&argv("checkpoint /tmp/j")).unwrap(),
            Command::Checkpoint {
                dir: "/tmp/j".into()
            }
        );
        assert_eq!(
            parse_args(&argv("recover /tmp/j")).unwrap(),
            Command::Recover {
                dir: "/tmp/j".into()
            }
        );
        // a journaled query needs no data files; --fsync rides along
        let c = parse_args(&argv("query --sparql Q --journal /tmp/j --fsync never")).unwrap();
        match c {
            Command::Query {
                files,
                journal,
                fsync,
                ..
            } => {
                assert!(files.is_empty());
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert_eq!(fsync, FsyncPolicy::Never);
            }
            other => panic!("{other:?}"),
        }
        for (line, needle) in [
            ("checkpoint", "exactly one"),
            ("recover a b", "exactly one"),
            (
                "query --sparql Q --journal /tmp/j --fsync sometimes",
                "unknown fsync",
            ),
            (
                "query d.ttl --sparql Q --fsync never",
                "only applies with --journal",
            ),
        ] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.0.contains(needle), "{line:?}: {e}");
        }
    }

    #[test]
    fn parses_serve_command() {
        assert_eq!(
            parse_args(&argv("serve --journal /tmp/j")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                journal: "/tmp/j".into(),
                fsync: FsyncPolicy::Always,
                queue: 64,
                duration_secs: None,
                max_conns: 4096,
                idle_timeout_ms: 10_000,
                default_deadline_ms: Some(30_000),
                max_deadline_ms: 60_000,
                max_subscriptions: 64,
                strategy: None,
            }
        );
        assert_eq!(
            parse_args(&argv(
                "serve --journal /tmp/j --addr 127.0.0.1:0 --threads 2 --queue 8 \
                 --fsync never --duration-secs 3 \
                 --max-conns 128 --idle-timeout 2500 \
                 --default-deadline-ms 0 --max-deadline-ms 120000 \
                 --max-subscriptions 8 --strategy interval"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                journal: "/tmp/j".into(),
                fsync: FsyncPolicy::Never,
                queue: 8,
                duration_secs: Some(3),
                max_conns: 128,
                idle_timeout_ms: 2500,
                default_deadline_ms: None,
                max_deadline_ms: 120_000,
                max_subscriptions: 8,
                strategy: Some(Strategy::Interval),
            }
        );
        for (line, needle) in [
            ("serve", "needs --journal"),
            ("serve data.ttl --journal /tmp/j", "takes no data files"),
            ("serve --journal /tmp/j --threads 0", "positive number"),
            ("serve --journal /tmp/j --queue nope", "positive number"),
            (
                "serve --journal /tmp/j --duration-secs soon",
                "needs a number",
            ),
            ("serve --journal /tmp/j --backend threaded", "unknown flag"),
            ("serve --journal /tmp/j --max-conns 0", "positive number"),
            (
                "serve --journal /tmp/j --strategy fibers",
                "unknown strategy",
            ),
            (
                "serve --journal /tmp/j --idle-timeout never",
                "milliseconds",
            ),
            (
                "serve --journal /tmp/j --default-deadline-ms soon",
                "milliseconds",
            ),
            ("serve --journal /tmp/j --max-deadline-ms 0", "milliseconds"),
        ] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.0.contains(needle), "{line:?}: {e}");
        }
    }

    #[test]
    fn parses_metrics_command() {
        assert_eq!(
            parse_args(&argv("metrics")).unwrap(),
            Command::Metrics {
                format: "json".into(),
                journal: None,
            }
        );
        assert_eq!(
            parse_args(&argv("metrics --format prometheus --journal /tmp/j")).unwrap(),
            Command::Metrics {
                format: "prometheus".into(),
                journal: Some("/tmp/j".into()),
            }
        );
        for (line, needle) in [
            ("metrics --format xml", "unknown format"),
            ("metrics data.ttl", "takes no data files"),
        ] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.0.contains(needle), "{line:?}: {e}");
        }
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&argv(h)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn error_cases() {
        for (line, needle) in [
            ("", "missing command"),
            ("frobnicate d.ttl", "unknown command"),
            ("query --sparql Q", "no data files"),
            ("query d.ttl", "needs --sparql"),
            ("query d.ttl --sparql", "needs a value"),
            ("query d.ttl --sparql Q --strategy warp", "unknown strategy"),
            ("query d.ttl --sparql Q --bogus x", "unknown flag"),
            (
                "query d.ttl --sparql Q --threads 4",
                "only applies to serve",
            ),
            ("saturate d.ttl --threads 2", "only applies to serve"),
            ("saturate d.ttl --parallel 2", "unknown flag"),
            ("saturate d.ttl --format xml", "unknown format"),
            ("explain d.ttl", "needs --triple"),
            ("query d.ttl --sparql @/nonexistent/query.rq", "cannot read"),
        ] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.0.contains(needle), "{line:?}: {e}");
        }
    }
}
