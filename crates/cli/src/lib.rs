//! # webreason-cli — the `webreason` command-line tool
//!
//! A practitioner-facing front end over the store ("its target audience
//! comprises students, researchers and practitioners with an interest in
//! Web data management", §I):
//!
//! ```text
//! webreason query <data.ttl>…   --sparql <text|@file> [--strategy S] [--limit-display N]
//!                               [--journal DIR [--fsync always|never]]
//! webreason saturate <data.ttl>… [--format nt|ttl]
//! webreason reformulate <data.ttl>… --sparql <text|@file>
//! webreason explain <data.ttl>… --triple "<s> <p> <o>"
//! webreason stats <data.ttl>…
//! webreason metrics [--format json|prometheus] [--journal DIR]
//! webreason serve --journal DIR [--addr A] [--threads N] [--queue N]
//!                 [--fsync always|never] [--duration-secs S] [--max-conns N]
//!                 [--idle-timeout MS] [--default-deadline-ms MS] [--max-deadline-ms MS]
//!                 [--max-subscriptions N]
//! webreason checkpoint <journal-dir>
//! webreason recover <journal-dir>
//! ```
//!
//! Data files are Turtle (`.ttl`) or N-Triples (anything else). The
//! library half exposes each command as a function returning its output
//! as a string, so the test suite drives them without spawning processes;
//! `src/main.rs` is a thin shell around [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{parse_args, CliError, Command, Strategy};
pub use commands::run_command;

/// Parses `args` (without the program name) and runs the command,
/// returning the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = parse_args(args)?;
    run_command(&command)
}

/// The usage text.
pub const USAGE: &str = "\
webreason — RDF storage and reasoning (saturation / reformulation / interval)

USAGE:
    webreason <COMMAND> <data-file>... [OPTIONS]

COMMANDS:
    query        answer a SPARQL BGP query over the data
    saturate     print the saturated graph G∞
    reformulate  print the reformulated query q_ref and its statistics
    explain      show why a triple is entailed
    stats        summarise the dataset (triples, schema, classes, properties)
    thresholds   the paper's Fig. 3 analysis: per-query amortisation thresholds
    metrics      run a built-in workload and print the observability snapshot
    serve        run the embedded HTTP query/update server over a journaled store
    checkpoint   snapshot a journaled store (takes the journal dir, not data files)
    recover      rebuild a journaled store read-only and summarise it
    help         show this message

OPTIONS:
    --sparql <text|@file>    the query (query/reformulate); '@f' reads file f
    --strategy <name>        counting (alias saturation) | reformulation |
                             interval (alias litemat)
                             [default: counting]
                             serve: strategy for a freshly created journal
    --triple \"<s> <p> <o>\"   the triple to explain (N-Triples terms)
    --threads <N>            serve: worker threads, each answering a
                             different request                  [default: 4]
    --format <f>             saturate: nt or ttl [default: nt];
                             metrics: json or prometheus       [default: json]
    --limit-display <N>      print at most N solutions         [default: 20]
    --queries <file>         thresholds: one query per line (`name|query`)
    --entailment <f>         saturate: fragment (default) or full RDFS closure
    --journal <dir>          query: journal updates to <dir>; the store is
                             recovered from it on later runs (data files optional)
                             metrics: keep the workload's journal in <dir>
    --fsync <always|never>   journal durability against OS crashes [default: always]
    --addr <host:port>       serve: bind address; :0 picks a free port
                             [default: 127.0.0.1:7878]
    --queue <N>              serve: writer-queue depth; full => 429  [default: 64]
    --duration-secs <S>      serve: shut down gracefully after S seconds
                             (omit to serve until killed)
    --max-conns <N>          serve: open-connection cap; excess accepts are
                             refused with 503            [default: 4096]
    --idle-timeout <MS>      serve: reap connections idle for MS milliseconds
                             in any read/write phase     [default: 10000]
    --default-deadline-ms <MS>  serve: deadline for requests without an
                             X-Webreason-Deadline-Ms header; 0 disables
                             [default: 30000]
    --max-deadline-ms <MS>   serve: clamp on per-request deadline headers
                             [default: 60000]
    --max-subscriptions <N>  serve: live POST /subscribe registrations allowed
                             at once; 0 disables them    [default: 64]

Data files ending in .ttl parse as Turtle; anything else as N-Triples.
";
