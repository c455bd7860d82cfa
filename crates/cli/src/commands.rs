//! Command implementations. Each returns its stdout text so the tests can
//! assert on output without spawning processes.

use crate::args::{CliError, Command, Strategy};
use rdf_model::{Dictionary, Graph, Term, Vocab};
use rdfs::{saturate, Schema};
use reformulation::reformulate;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use webreason_core::durable::JOURNAL_FILE;
use webreason_core::{
    DurableStore, FsyncPolicy, MaintenanceAlgorithm, ReasoningConfig, Store, StoreStats,
};

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))
}

/// Loads data files into a raw dictionary + graph.
fn load_graph(files: &[String]) -> Result<(Dictionary, Vocab, Graph), CliError> {
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let mut g = Graph::new();
    for path in files {
        let text = read_file(path)?;
        let result = if path.ends_with(".ttl") {
            rdf_io::parse_turtle(&text, &mut dict, &mut g)
        } else {
            rdf_io::parse_ntriples(&text, &mut dict, &mut g)
        };
        result.map_err(|e| err(format!("{path}: {e}")))?;
    }
    Ok((dict, vocab, g))
}

fn store_config(strategy: Strategy) -> ReasoningConfig {
    match strategy {
        Strategy::Counting => ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        Strategy::Reformulation => ReasoningConfig::Reformulation,
        Strategy::Interval => ReasoningConfig::Interval,
    }
}

fn load_store(files: &[String], strategy: Strategy) -> Result<Store, CliError> {
    let (dict, vocab, g) = load_graph(files)?;
    Ok(Store::from_parts(dict, vocab, g, store_config(strategy)))
}

/// Runs a parsed command, returning the text for stdout.
pub fn run_command(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(crate::USAGE.to_owned()),
        Command::Query {
            files,
            sparql,
            strategy,
            limit_display,
            journal,
            fsync,
        } => match journal {
            Some(dir) => query_journaled(files, sparql, *strategy, *limit_display, dir, *fsync),
            None => query(
                files,
                sparql,
                strategy.unwrap_or(Strategy::Counting),
                *limit_display,
            ),
        },
        Command::Serve {
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
        } => serve_cmd(
            addr,
            *threads,
            journal,
            *fsync,
            *queue,
            *duration_secs,
            *max_conns,
            *idle_timeout_ms,
            *default_deadline_ms,
            *max_deadline_ms,
            *max_subscriptions,
            *strategy,
        ),
        Command::Metrics { format, journal } => metrics_cmd(format, journal.as_deref()),
        Command::Checkpoint { dir } => checkpoint_cmd(dir),
        Command::Recover { dir } => recover_cmd(dir),
        Command::Saturate {
            files,
            format,
            full,
        } => saturate_cmd(files, format, *full),
        Command::Reformulate { files, sparql } => reformulate_cmd(files, sparql),
        Command::Explain { files, triple } => explain_cmd(files, triple),
        Command::Stats { files } => stats_cmd(files),
        Command::Thresholds { files, queries } => thresholds_cmd(files, queries),
    }
}

/// Boots the embedded HTTP server over a journaled store and blocks.
///
/// A missing journal directory is created fresh (`--strategy`, default
/// counting maintenance, like `query --journal` on a new directory); an
/// existing one is recovered and served with its own strategy.
///
/// The listening line is printed (and flushed) immediately rather than
/// returned, because the command does not finish until the server stops —
/// scripts backgrounding `webreason serve` need the address right away.
/// With `--duration-secs N` the server shuts down gracefully after N
/// seconds, checkpoints, and reports the final state; without it the
/// process serves until killed (the journal keeps applied updates safe).
#[allow(clippy::too_many_arguments)] // mirrors the flag surface
fn serve_cmd(
    addr: &str,
    threads: usize,
    journal: &str,
    fsync: FsyncPolicy,
    queue: usize,
    duration_secs: Option<u64>,
    max_conns: usize,
    idle_timeout_ms: u64,
    default_deadline_ms: Option<u64>,
    max_deadline_ms: u64,
    max_subscriptions: usize,
    strategy: Option<Strategy>,
) -> Result<String, CliError> {
    use std::io::Write as _;

    let exists = std::path::Path::new(journal).join(JOURNAL_FILE).exists();
    let store = if exists {
        // An existing journal keeps the strategy it was created with;
        // `--strategy` only shapes a fresh store.
        DurableStore::open(journal, fsync)
    } else {
        DurableStore::create(
            journal,
            store_config(strategy.unwrap_or(Strategy::Counting)),
            NonZeroUsize::MIN,
            fsync,
        )
    }
    .map_err(|e| err(format!("{journal}: {e}")))?;
    let config = webreason_server::ServerConfig {
        addr: addr.to_owned(),
        threads,
        update_queue: queue,
        max_conns,
        idle_timeout: std::time::Duration::from_millis(idle_timeout_ms),
        default_deadline_ms,
        max_deadline_ms,
        max_subscriptions,
        ..Default::default()
    };
    let server =
        webreason_server::Server::start(store, config).map_err(|e| err(format!("{addr}: {e}")))?;
    let local = server.local_addr();
    println!(
        "webreason serve: listening on http://{local} (journal {journal}, {threads} workers, \
         {max_conns} conns max)"
    );
    let _ = std::io::stdout().flush();

    let Some(secs) = duration_secs else {
        loop {
            std::thread::park(); // serve until the process is killed
        }
    };
    std::thread::sleep(std::time::Duration::from_secs(secs));
    let mut store = server.shutdown();
    let checkpoint = store
        .checkpoint()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("checkpoint failed: {e}"));
    let stats = store.stats();
    Ok(format!(
        "serve: shut down after {secs}s\n\
         final state: {} base triples, {} dictionary terms, journal seq {}\n\
         checkpoint: {checkpoint}\n",
        stats.base_triples,
        stats.dictionary_terms,
        store.seq(),
    ))
}

/// The built-in dataset for `webreason metrics`: a small schema plus
/// generated instances — enough for every instrumented subsystem to do
/// real work without shipping a benchmark file.
fn metrics_dataset() -> String {
    let mut ttl = String::from(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:Cat rdfs:subClassOf ex:Mammal .\n\
         ex:Mammal rdfs:subClassOf ex:Animal .\n\
         ex:hasPet rdfs:range ex:Animal .\n\
         ex:hasCat rdfs:subPropertyOf ex:hasPet .\n",
    );
    for i in 0..32 {
        let _ = writeln!(ttl, "ex:cat{i} a ex:Cat .");
        let _ = writeln!(ttl, "ex:owner{i} ex:hasCat ex:cat{i} .");
    }
    ttl
}

const METRICS_QUERY: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Animal }";

/// Exercises saturation, reformulated and saturated query answering,
/// incremental maintenance, and the journal + checkpoint path, so the
/// snapshot covers every subsystem.
fn run_metrics_workload(journal: Option<&str>) -> Result<(), CliError> {
    let ttl = metrics_dataset();

    // rdfs.saturate + core: a saturating store answers queries and
    // absorbs instance updates through the maintenance path.
    let mut sat = Store::new(ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting));
    sat.load_turtle(&ttl).map_err(|e| err(e.to_string()))?;
    sat.answer_sparql(METRICS_QUERY)
        .map_err(|e| err(e.to_string()))?;
    let (s, p, o) = (
        Term::iri("http://ex/extra"),
        Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        Term::iri("http://ex/Cat"),
    );
    sat.insert_terms(&s, &p, &o);
    sat.answer_sparql(METRICS_QUERY)
        .map_err(|e| err(e.to_string()))?;
    sat.delete_terms(&s, &p, &o);

    // rdfs.saturate: a from-scratch saturation pass over the same data.
    let mut dict = Dictionary::new();
    let vocab = Vocab::intern(&mut dict);
    let mut g = Graph::new();
    rdf_io::parse_turtle(&ttl, &mut dict, &mut g).map_err(|e| err(e.to_string()))?;
    saturate(&g, &vocab);

    // sparql.union: the reformulated path with its shared-trie evaluator.
    let mut refo = Store::new(ReasoningConfig::Reformulation);
    refo.load_turtle(&ttl).map_err(|e| err(e.to_string()))?;
    refo.answer_sparql(METRICS_QUERY)
        .map_err(|e| err(e.to_string()))?;
    refo.answer_sparql(METRICS_QUERY)
        .map_err(|e| err(e.to_string()))?;

    // durability: journal appends and a checkpoint, in `--journal DIR` or
    // a scratch directory that is removed afterwards.
    let (dir, scratch) = match journal {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => {
            let d = std::env::temp_dir().join(format!("webreason-metrics-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            (d, true)
        }
    };
    let durable = (|| {
        let exists = dir.join(JOURNAL_FILE).exists();
        let mut ds = if exists {
            DurableStore::open(&dir, FsyncPolicy::Always)
        } else {
            DurableStore::create(
                &dir,
                ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
                NonZeroUsize::new(1).expect("non-zero"),
                FsyncPolicy::Always,
            )
        }
        .map_err(|e| err(format!("{}: {e}", dir.display())))?;
        ds.load_turtle(&ttl).map_err(|e| err(e.to_string()))?;
        ds.checkpoint()
            .map_err(|e| err(format!("{}: {e}", dir.display())))?;
        Ok(())
    })();
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    durable
}

/// `webreason metrics`: reset the global registry, run the built-in
/// workload, and print the snapshot as JSON or Prometheus text.
fn metrics_cmd(format: &str, journal: Option<&str>) -> Result<String, CliError> {
    let reg = obs::global();
    reg.reset();
    run_metrics_workload(journal)?;
    let snap = reg.snapshot();
    if format == "prometheus" {
        Ok(snap.to_prometheus())
    } else {
        let mut out = serde_json::to_string_pretty(&snap)
            .map_err(|e| err(format!("metrics serialisation failed: {e}")))?;
        out.push('\n');
        Ok(out)
    }
}

/// The Fig. 3 analysis on user data: measures the cost profile and prints
/// the five amortisation thresholds per query.
fn thresholds_cmd(files: &[String], queries_path: &str) -> Result<String, CliError> {
    use webreason_core::cost::profile;
    use webreason_core::threshold::{compute_thresholds, spread_orders_of_magnitude};

    let (mut dict, vocab, g) = load_graph(files)?;
    let text = read_file(queries_path)?;
    let mut queries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, sparql) = match line.split_once('\t').or_else(|| line.split_once('|')) {
            Some((name, q)) => (name.trim().to_owned(), q.trim()),
            None => (format!("Q{}", queries.len() + 1), line),
        };
        let mut q = sparql::parse_query(sparql, &mut dict)
            .map_err(|e| err(format!("query {name}: {e}")))?;
        q.distinct = true;
        queries.push((name, q));
    }
    if queries.is_empty() {
        return Err(err(format!("{queries_path} contains no queries")));
    }
    let mut counting = rdfs::incremental::CountingMaintainer::new(g, vocab);
    let prof = profile(&mut counting, &vocab, &queries, 3);
    let thresholds = compute_thresholds(&prof);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "saturation: {} -> {} triples in {:.2} ms; maintenance (counting): \
         inst-ins {:.1} µs, inst-del {:.1} µs, schema-ins {:.1} µs, schema-del {:.1} µs",
        prof.base_triples,
        prof.saturated_triples,
        prof.saturation_time * 1e3,
        prof.maintenance.instance_insert * 1e6,
        prof.maintenance.instance_delete * 1e6,
        prof.maintenance.schema_insert * 1e6,
        prof.maintenance.schema_delete * 1e6,
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "query", "saturation", "inst-ins", "inst-del", "schema-ins", "schema-del"
    );
    for qt in &thresholds {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            qt.name,
            qt.saturation.to_string(),
            qt.instance_insert.to_string(),
            qt.instance_delete.to_string(),
            qt.schema_insert.to_string(),
            qt.schema_delete.to_string(),
        );
    }
    let _ = writeln!(
        out,
        "threshold spread: {:.1} orders of magnitude",
        spread_orders_of_magnitude(&thresholds)
    );
    Ok(out)
}

fn query(
    files: &[String],
    sparql: &str,
    strategy: Strategy,
    limit_display: usize,
) -> Result<String, CliError> {
    let store = load_store(files, strategy)?;
    let sols = store
        .answer_sparql(sparql)
        .map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} solution(s) [strategy: {}, {} base triples]",
        sols.len(),
        store.config().name(),
        store.explicit_len(),
    );
    if let Some(stats) = store.last_eval_stats() {
        let _ = writeln!(out, "  eval: {}", stats.summary());
    }
    let lines = sols.to_strings(&store.dictionary());
    for line in lines.iter().take(limit_display) {
        let _ = writeln!(out, "  {line}");
    }
    if lines.len() > limit_display {
        let _ = writeln!(out, "  … and {} more", lines.len() - limit_display);
    }
    Ok(out)
}

/// `query --journal DIR`: recover (or create) a durable store in `dir`,
/// durably load any data files given on top, and answer. A strategy flag,
/// when given, is a journaled switch; when omitted the store keeps
/// whatever it had (a fresh store defaults to counting).
fn query_journaled(
    files: &[String],
    sparql: &str,
    strategy: Option<Strategy>,
    limit_display: usize,
    dir: &str,
    fsync: FsyncPolicy,
) -> Result<String, CliError> {
    let exists = std::path::Path::new(dir).join(JOURNAL_FILE).exists();
    let mut ds = if exists {
        DurableStore::open(dir, fsync)
    } else {
        DurableStore::create(
            dir,
            store_config(strategy.unwrap_or(Strategy::Counting)),
            NonZeroUsize::MIN,
            fsync,
        )
    }
    .map_err(|e| err(format!("{dir}: {e}")))?;
    if let Some(s) = strategy {
        ds.set_config(store_config(s))
            .map_err(|e| err(e.to_string()))?;
    }
    for path in files {
        let text = read_file(path)?;
        let result = if path.ends_with(".ttl") {
            ds.load_turtle(&text)
        } else {
            ds.load_ntriples(&text)
        };
        result.map_err(|e| err(format!("{path}: {e}")))?;
    }
    let sols = ds.answer_sparql(sparql).map_err(|e| err(e.to_string()))?;
    let store = ds.store();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} solution(s) [strategy: {}, {} base triples, journal: {} record(s), fsync {}]",
        sols.len(),
        store.config().name(),
        store.explicit_len(),
        ds.seq(),
        fsync.name(),
    );
    let lines = sols.to_strings(&store.dictionary());
    for line in lines.iter().take(limit_display) {
        let _ = writeln!(out, "  {line}");
    }
    if lines.len() > limit_display {
        let _ = writeln!(out, "  … and {} more", lines.len() - limit_display);
    }
    Ok(out)
}

fn render_store_stats(out: &mut String, stats: &StoreStats) {
    let _ = writeln!(out, "strategy:          {}", stats.strategy);
    let _ = writeln!(out, "base triples:      {}", stats.base_triples);
    if let Some(n) = stats.saturated_triples {
        let _ = writeln!(out, "saturated triples: {n}");
    }
    let _ = writeln!(out, "dictionary terms:  {}", stats.dictionary_terms);
}

/// `webreason checkpoint <dir>`: snapshot the durable store so future
/// recoveries replay less journal.
fn checkpoint_cmd(dir: &str) -> Result<String, CliError> {
    let mut ds =
        DurableStore::open(dir, FsyncPolicy::Always).map_err(|e| err(format!("{dir}: {e}")))?;
    let path = ds.checkpoint().map_err(|e| err(format!("{dir}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checkpoint written: {} (covers {} journal record(s))",
        path.display(),
        ds.seq().saturating_sub(1), // minus the checkpoint mark itself
    );
    render_store_stats(&mut out, &ds.stats());
    Ok(out)
}

/// `webreason recover <dir>`: rebuild the store read-only and summarise
/// what came back.
fn recover_cmd(dir: &str) -> Result<String, CliError> {
    let store = Store::recover(dir).map_err(|e| err(format!("{dir}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "recovered store from {dir}");
    render_store_stats(&mut out, &store.stats());
    Ok(out)
}

fn saturate_cmd(files: &[String], format: &str, full: bool) -> Result<String, CliError> {
    let (dict, vocab, g) = load_graph(files)?;
    let result = if full {
        rdfs::saturate_full(&g, &vocab)
    } else {
        saturate(&g, &vocab)
    };
    let mut out = String::new();
    if format == "ttl" {
        out.push_str(&rdf_io::write_turtle(
            &result.graph,
            &dict,
            &rdf_io::PrefixMap::common(),
        ));
    } else {
        out.push_str(&rdf_io::write_ntriples_sorted(&result.graph, &dict));
    }
    let _ = writeln!(
        out,
        "# {} base + {} inferred = {} triples",
        result.stats.input_triples, result.stats.inferred, result.stats.output_triples
    );
    Ok(out)
}

fn reformulate_cmd(files: &[String], sparql: &str) -> Result<String, CliError> {
    let (mut dict, vocab, g) = load_graph(files)?;
    let q = sparql::parse_query(sparql, &mut dict).map_err(|e| err(e.to_string()))?;
    let schema = Schema::extract(&g, &vocab);
    let r = reformulate(&q, &schema, &vocab).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "q_ref: {} union branch(es), {} atoms total, {} rewrite step(s)",
        r.branches,
        r.query.pattern_count(),
        r.rewrite_steps
    );
    let _ = writeln!(out, "{}", r.query.to_sparql(&dict));
    Ok(out)
}

fn explain_cmd(files: &[String], triple: &str) -> Result<String, CliError> {
    let store = load_store(files, Strategy::Counting)?;
    // Parse the triple via the N-Triples reader into a scratch space.
    let mut scratch_dict = Dictionary::new();
    let mut scratch = Graph::new();
    rdf_io::parse_ntriples(&format!("{triple} .\n"), &mut scratch_dict, &mut scratch)
        .map_err(|e| err(format!("--triple must be three N-Triples terms: {e}")))?;
    let t = scratch
        .iter()
        .next()
        .ok_or_else(|| err("--triple parsed to nothing"))?;
    let decode = |id| -> Term { scratch_dict.decode(id).expect("just parsed").clone() };
    let (s, p, o) = (decode(t.s), decode(t.p), decode(t.o));
    match store.explain_terms(&s, &p, &o) {
        Some(explanation) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "entailed ({} rule application(s), {} supporting assertion(s)):",
                explanation.depth(),
                explanation.support().len()
            );
            out.push_str(&explanation.render(&store.dictionary()));
            Ok(out)
        }
        None => Ok("not entailed: the triple is not in G∞\n".to_owned()),
    }
}

fn stats_cmd(files: &[String]) -> Result<String, CliError> {
    let (dict, vocab, g) = load_graph(files)?;
    let schema = Schema::extract(&g, &vocab);
    let sat = saturate(&g, &vocab);
    let mut out = String::new();
    let _ = writeln!(out, "triples:            {}", g.len());
    let _ = writeln!(out, "dictionary terms:   {}", dict.len());
    let _ = writeln!(out, "distinct subjects:  {}", g.subjects().count());
    let _ = writeln!(out, "distinct properties:{}", g.property_count());
    let _ = writeln!(out, "distinct objects:   {}", g.objects_iter().count());
    let _ = writeln!(
        out,
        "schema constraints: {} asserted, {} closed",
        schema.direct_len(),
        schema.closed_len()
    );
    let _ = writeln!(out, "classes:            {}", schema.classes().len());
    let _ = writeln!(out, "schema properties:  {}", schema.properties().len());
    let _ = writeln!(
        out,
        "saturation:         {} triples ({:+} inferred, ×{:.2})",
        sat.stats.output_triples,
        sat.stats.inferred,
        sat.stats.output_triples as f64 / g.len().max(1) as f64
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    /// Writes fixture files into a temp dir and returns their paths.
    struct Fixture {
        dir: std::path::PathBuf,
        files: Vec<String>,
    }

    impl Fixture {
        fn new(name: &str, contents: &[(&str, &str)]) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("webreason-cli-test-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let files = contents
                .iter()
                .map(|(file, text)| {
                    let path = dir.join(file);
                    std::fs::write(&path, text).unwrap();
                    path.to_string_lossy().into_owned()
                })
                .collect();
            Fixture { dir, files }
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    const ZOO_TTL: &str = "\
@prefix ex: <http://ex/> .\n\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
ex:Cat rdfs:subClassOf ex:Mammal .\n\
ex:Tom a ex:Cat .\n";

    /// Builds argv from a whitespace-split line; '_' inside a token stands
    /// for a space (so a SPARQL query can be one token).
    fn run_line(line: &str, files: &[String]) -> Result<String, CliError> {
        let mut argv: Vec<String> = Vec::new();
        let mut parts = line.split_whitespace().map(|t| t.replace('_', " "));
        argv.push(parts.next().unwrap());
        argv.extend(files.iter().cloned());
        argv.extend(parts);
        run_command(&parse_args(&argv)?)
    }

    #[test]
    fn query_across_strategies() {
        let fx = Fixture::new("query", &[("zoo.ttl", ZOO_TTL)]);
        for strategy in ["saturation", "counting", "reformulation", "interval"] {
            let out = run_line(
                &format!("query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} --strategy {strategy}"),
                &fx.files,
            )
            .unwrap();
            assert!(out.starts_with("1 solution(s)"), "{strategy}: {out}");
            assert!(out.contains("<http://ex/Tom>"), "{strategy}");
        }
        for retired in ["none", "dred", "recompute"] {
            let e = run_line(
                &format!(
                    "query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} --strategy {retired}"
                ),
                &fx.files,
            )
            .unwrap_err();
            assert!(e.0.contains("unknown strategy"), "{retired}: {e}");
        }
    }

    /// `saturation` names the counting maintainer, so a store served
    /// under it maintains `G∞` per update instead of re-saturating.
    #[test]
    fn the_saturation_strategy_is_counting() {
        let argv: Vec<String> = "query d.ttl --sparql Q --strategy saturation"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let Command::Query { strategy, .. } = parse_args(&argv).unwrap() else {
            panic!("a query command")
        };
        let config = store_config(strategy.expect("--strategy was given"));
        assert_eq!(config.name(), "saturation(counting)");
    }

    #[test]
    fn query_reports_eval_stats_on_reformulation_path() {
        let fx = Fixture::new("query-stats", &[("zoo.ttl", ZOO_TTL)]);
        let out = run_line(
            "query --sparql SELECT_?x_WHERE{?x_a_<http://ex/Mammal>} --strategy reformulation",
            &fx.files,
        )
        .unwrap();
        assert!(out.contains("eval: "), "{out}");
        assert!(out.contains("branches"), "{out}");
        // Saturated answers report no evaluation stats.
        let out = run_line(
            "query --sparql SELECT_?x_WHERE{?x_a_<http://ex/Mammal>} --strategy counting",
            &fx.files,
        )
        .unwrap();
        assert!(!out.contains("eval: "), "{out}");
    }

    #[test]
    fn query_display_limit() {
        let data: String = (0..30)
            .map(|i| format!("<http://ex/s{i}> <http://ex/p> <http://ex/o> .\n"))
            .collect();
        let fx = Fixture::new("limit", &[("data.nt", &data)]);
        let out = run_line(
            "query --sparql SELECT_?x_WHERE{?x_<http://ex/p>_?y} --limit-display 3",
            &fx.files,
        )
        .unwrap();
        assert!(out.contains("30 solution(s)"));
        assert!(out.contains("… and 27 more"), "{out}");
    }

    #[test]
    fn saturate_formats() {
        let fx = Fixture::new("saturate", &[("zoo.ttl", ZOO_TTL)]);
        let nt = run_line("saturate", &fx.files).unwrap();
        assert!(nt.contains("<http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Mammal> ."));
        assert!(nt.contains("# 2 base + 1 inferred = 3 triples"));
        let ttl = run_line("saturate --format ttl", &fx.files).unwrap();
        assert!(ttl.contains("@prefix"), "{ttl}");
        assert!(ttl.contains("rdfs:subClassOf"), "{ttl}");
    }

    #[test]
    fn saturate_full_entailment() {
        let fx = Fixture::new("saturate-full", &[("zoo.ttl", ZOO_TTL)]);
        let fragment = run_line("saturate", &fx.files).unwrap();
        let full = run_line("saturate --entailment full", &fx.files).unwrap();
        assert!(
            full.lines().count() > fragment.lines().count(),
            "full closure is larger"
        );
        assert!(full.contains("rdf-syntax-ns#Property>"), "{full}");
        assert!(run_line("saturate --entailment bogus", &fx.files).is_err());
    }

    #[test]
    fn reformulate_prints_union() {
        let fx = Fixture::new("reformulate", &[("zoo.ttl", ZOO_TTL)]);
        let out = run_line(
            "reformulate --sparql SELECT_?x_WHERE{?x_a_<http://ex/Mammal>}",
            &fx.files,
        )
        .unwrap();
        assert!(out.contains("2 union branch(es)"), "{out}");
        assert!(out.contains("UNION"), "{out}");
    }

    #[test]
    fn explain_entailed_and_not() {
        let fx = Fixture::new("explain", &[("zoo.ttl", ZOO_TTL)]);
        let argv: Vec<String> = vec![
            "explain".into(),
            fx.files[0].clone(),
            "--triple".into(),
            "<http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Mammal>"
                .into(),
        ];
        let out = run_command(&parse_args(&argv).unwrap()).unwrap();
        assert!(out.contains("entailed (1 rule application(s)"), "{out}");
        assert!(out.contains("[rdfs9]"));
        assert!(out.contains("[asserted]"));

        let argv: Vec<String> = vec![
            "explain".into(),
            fx.files[0].clone(),
            "--triple".into(),
            "<http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Rocket>"
                .into(),
        ];
        let out = run_command(&parse_args(&argv).unwrap()).unwrap();
        assert!(out.contains("not entailed"));
    }

    #[test]
    fn stats_summary() {
        let fx = Fixture::new("stats", &[("zoo.ttl", ZOO_TTL)]);
        let out = run_line("stats", &fx.files).unwrap();
        assert!(out.contains("triples:            2"), "{out}");
        assert!(out.contains("schema constraints: 1 asserted"), "{out}");
        assert!(out.contains("+1 inferred"), "{out}");
    }

    #[test]
    fn thresholds_on_user_data() {
        let queries = "\
# comment lines are skipped
mammals|PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }
PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Cat }
";
        let fx = Fixture::new(
            "thresholds",
            &[("zoo.ttl", ZOO_TTL), ("queries.txt", queries)],
        );
        let argv: Vec<String> = vec![
            "thresholds".into(),
            fx.files[0].clone(),
            "--queries".into(),
            fx.files[1].clone(),
        ];
        let out = run_command(&parse_args(&argv).unwrap()).unwrap();
        assert!(out.contains("mammals"), "{out}");
        assert!(out.contains("Q2"), "unnamed query gets a number: {out}");
        assert!(out.contains("threshold spread:"), "{out}");
        assert!(out.contains("saturation: 2 -> 3 triples"), "{out}");
    }

    /// The metrics command resets the process-wide registry, so the two
    /// metrics tests must not overlap (other tests only ever add).
    static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn metrics_json_covers_the_instrumented_subsystems() {
        let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = run_line("metrics", &[]).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        for needle in [
            "rdfs.saturate.runs",
            "sparql.union.queries",
            "durability.journal.appends",
            "durability.checkpoint.writes",
            "core.answer.queries",
            "core.maintain.instance_insert_us",
        ] {
            assert!(out.contains(needle), "missing {needle}: {out}");
        }
    }

    #[test]
    fn metrics_prometheus_is_lintable_and_covers_four_subsystems() {
        let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let fx = Fixture::new("metrics-prom", &[]);
        let jdir = fx.dir.join("journal");
        let out = run_line(
            &format!("metrics --format prometheus --journal {}", jdir.display()),
            &[],
        )
        .unwrap();
        obs::lint_prometheus_text(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
        for needle in [
            "webreason_rdfs_",
            "webreason_sparql_",
            "webreason_durability_",
            "webreason_core_",
        ] {
            assert!(out.contains(needle), "missing {needle}: {out}");
        }
        // The journal directory was user-supplied, so it survives the run.
        assert!(jdir.join(JOURNAL_FILE).exists());
    }

    #[test]
    fn journaled_query_survives_across_runs() {
        let fx = Fixture::new("journal", &[("zoo.ttl", ZOO_TTL)]);
        let jdir = fx.dir.join("journal");
        let jflag = format!("--journal {}", jdir.display());
        // A retired maintainer name is refused before any journal exists.
        let e = run_line(
            &format!(
                "query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} --strategy dred {jflag}"
            ),
            &fx.files,
        )
        .unwrap_err();
        assert!(e.0.contains("unknown strategy \"dred\""), "{e}");
        assert!(!jdir.exists(), "a refused run creates no journal");
        // First run: create the store, load the data, answer.
        let out = run_line(
            &format!(
                "query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} --strategy saturation {jflag}"
            ),
            &fx.files,
        )
        .unwrap();
        assert!(out.starts_with("1 solution(s)"), "{out}");
        assert!(out.contains("journal:"), "{out}");
        // Second run: NO data files — everything comes back from the journal.
        let out = run_line(
            &format!("query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} {jflag}"),
            &[],
        )
        .unwrap();
        assert!(out.starts_with("1 solution(s)"), "{out}");
        assert!(
            out.contains("strategy: saturation(counting)"),
            "journaled strategy survives: {out}"
        );
        // Checkpoint, then recover, both against the same directory.
        let out = run_line("checkpoint", &[jdir.display().to_string()]).unwrap();
        assert!(out.contains("checkpoint written:"), "{out}");
        let out = run_line("recover", &[jdir.display().to_string()]).unwrap();
        assert!(out.contains("recovered store"), "{out}");
        assert!(out.contains("base triples:      2"), "{out}");
        assert!(out.contains("saturation(counting)"), "{out}");
        // The third query run still opens the checkpointed store cleanly.
        let out = run_line(
            &format!(
                "query --sparql SELECT_?x_WHERE{{?x_a_<http://ex/Mammal>}} --fsync never {jflag}"
            ),
            &[],
        )
        .unwrap();
        assert!(out.starts_with("1 solution(s)"), "{out}");
    }

    #[test]
    fn recover_on_a_missing_directory_is_an_empty_store() {
        let fx = Fixture::new("recover-missing", &[("zoo.ttl", ZOO_TTL)]);
        let out = run_line(
            "recover",
            &[fx.dir.join("never-written").display().to_string()],
        )
        .unwrap();
        assert!(out.contains("base triples:      0"), "{out}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = run_line("stats", &["/nonexistent/data.ttl".into()]).unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }

    #[test]
    fn multiple_files_combine() {
        let fx = Fixture::new(
            "multi",
            &[
                ("schema.ttl", "@prefix ex: <http://ex/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\nex:Cat rdfs:subClassOf ex:Mammal .\n"),
                ("data.nt", "<http://ex/Tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Cat> .\n"),
            ],
        );
        let out = run_line(
            "query --sparql SELECT_?x_WHERE{?x_a_<http://ex/Mammal>}",
            &fx.files,
        )
        .unwrap();
        assert!(out.starts_with("1 solution(s)"), "{out}");
    }
}
