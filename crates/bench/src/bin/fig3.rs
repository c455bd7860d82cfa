//! **Figure 3 reproduction** — "Saturation thresholds: quantifying the
//! amortization of saturation".
//!
//! For each LUBM query Q1–Q10, measures the cost profile and prints the
//! five thresholds (saturation, instance insertion/deletion, schema
//! insertion/deletion) as a table and a log-scale ASCII bar chart — the
//! same series the paper's Fig. 3 plots on a log axis — plus the headline
//! observation: the spread in orders of magnitude. Since updates against
//! a journaled store pay a write-ahead append before maintenance runs,
//! the report also measures that per-update journal overhead under both
//! fsync policies.
//!
//! ```sh
//! cargo run --release -p bench --bin fig3 [tiny|small|default|large] [recompute|dred|counting]
//! ```

use bench::{
    emit_json, fmt_secs, journal_append_cost, log_bar, lubm_workload, render_table, Scale,
};
use durability::FsyncPolicy;
use rdf_model::{Graph, Vocab};
use rdfs::incremental::{CountingMaintainer, DRedMaintainer, Maintainer, RecomputeMaintainer};
use webreason_core::cost::profile;
use webreason_core::threshold::{compute_thresholds, spread_orders_of_magnitude, Threshold};
use webreason_core::MaintenanceAlgorithm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.first() {
        None => Scale::Default,
        Some(s) => match Scale::parse(s) {
            Some(scale) => scale,
            None => {
                eprintln!("error: unknown scale {s:?} (expected tiny|small|default|large)");
                std::process::exit(2);
            }
        },
    };
    let build: fn(Graph, Vocab) -> Box<dyn Maintainer> =
        match args.get(1).map_or("counting", String::as_str) {
            "recompute" => |g, v| Box::new(RecomputeMaintainer::new(g, v)),
            "dred" => |g, v| Box::new(DRedMaintainer::new(g, v)),
            "counting" => |g, v| Box::new(CountingMaintainer::new(g, v)),
            other => {
                eprintln!(
                "error: unknown maintenance algorithm {other:?} (expected recompute|dred|counting)"
            );
                std::process::exit(2);
            }
        };

    // Collect an observability snapshot for the whole run: the profiling
    // below drives saturation, maintenance and both query paths through
    // the instrumented engines.
    let reg = obs::global();
    reg.reset();

    eprintln!("generating LUBM workload ({scale:?})…");
    let (ds, qs) = lubm_workload(scale);
    let mut maintainer = build(ds.graph.clone(), ds.vocab);
    eprintln!(
        "profiling {} triples × {} queries (algo: {})…",
        ds.graph.len(),
        qs.len(),
        maintainer.name()
    );
    let prof = profile(maintainer.as_mut(), &ds.vocab, &qs, 5);

    // Replay the workload through the instrumented `Store` so the metrics
    // snapshot covers both query paths (`core.answer.query` over G∞ and
    // `sparql.union.total` over G) plus the maintenance histograms —
    // that is what `ObservedCosts::from_snapshot` derives thresholds from.
    // A saturated store maintains by counting, whichever maintainer the
    // profile above measured.
    eprintln!("replaying queries through instrumented stores…");
    let mut sat_store = webreason_core::Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        webreason_core::ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    );
    let ref_store = webreason_core::Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        webreason_core::ReasoningConfig::Reformulation,
    );
    let int_store = webreason_core::Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        webreason_core::ReasoningConfig::Interval,
    );
    for (name, q) in &qs {
        let mut q = q.clone();
        q.distinct = true;
        let a = sat_store.answer(&q).expect("saturated answers");
        let b = ref_store.answer(&q).expect("reformulated answers");
        let c = int_store.answer(&q).expect("interval answers");
        assert_eq!(a.len(), b.len(), "{name}: both paths agree");
        assert_eq!(a.len(), c.len(), "{name}: interval path agrees");
    }
    let instance_sample: Vec<rdf_model::Triple> = ds
        .graph
        .iter()
        .filter(|t| !ds.vocab.is_schema_property(t.p))
        .take(5)
        .collect();
    for t in &instance_sample {
        sat_store.delete(t);
        sat_store.insert(*t);
    }

    println!("== Figure 3: saturation thresholds ==");
    println!(
        "dataset: {} base / {} saturated triples; saturation {}; maintenance: {}",
        prof.base_triples,
        prof.saturated_triples,
        fmt_secs(prof.saturation_time),
        prof.maintenance_algorithm,
    );
    println!(
        "maintenance per update: inst-ins {} | inst-del {} | schema-ins {} | schema-del {}\n",
        fmt_secs(prof.maintenance.instance_insert),
        fmt_secs(prof.maintenance.instance_delete),
        fmt_secs(prof.maintenance.schema_insert),
        fmt_secs(prof.maintenance.schema_delete),
    );

    let thresholds = compute_thresholds(&prof);
    let fmt_t = |t: Threshold| t.to_string();
    let rows: Vec<Vec<String>> = thresholds
        .iter()
        .map(|qt| {
            vec![
                qt.name.clone(),
                fmt_t(qt.saturation),
                fmt_t(qt.instance_insert),
                fmt_t(qt.instance_delete),
                fmt_t(qt.schema_insert),
                fmt_t(qt.schema_delete),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "query",
                "saturation",
                "inst-insert",
                "inst-delete",
                "schema-insert",
                "schema-delete"
            ],
            &rows
        )
    );

    println!("log-scale view (one bar per threshold, Fig. 3 legend order):");
    for qt in &thresholds {
        println!("{}", qt.name);
        for (label, t) in qt.series() {
            println!("  {:<20} {}", label, log_bar(t.runs(), 40));
        }
    }

    let spread = spread_orders_of_magnitude(&thresholds);
    println!("\nthreshold spread: {spread:.1} orders of magnitude across queries and update kinds");
    println!(
        "(the paper reports \"up to 7 orders of magnitude\" on its PostgreSQL-backed testbed)"
    );

    let journal_overhead = measure_journal_overhead();
    if let Some(o) = &journal_overhead {
        println!(
            "journal overhead per update: {} (fsync always) | {} (fsync never)",
            fmt_secs(o.append_always_s),
            fmt_secs(o.append_never_s),
        );
    }

    // Snapshot what the instrumented engines observed during the run, and
    // cross-check Fig. 3 against it: thresholds recomputed from measured
    // per-operation costs rather than the profiler's stopwatch.
    let snapshot = reg.snapshot();
    let observed = webreason_core::ObservedCosts::from_snapshot(&snapshot);
    if let Some(t) = webreason_core::observed_thresholds(&observed) {
        println!("\nobserved-cost thresholds (from the metrics snapshot):");
        for (label, threshold) in t.series() {
            println!("  {:<20} {}", label, threshold);
        }
    }
    let interval = webreason_core::interval_thresholds(&observed);
    if let Some(t) = &interval {
        println!("interval-strategy thresholds (third technique, same snapshot):");
        println!(
            "  {:<20} {}",
            "reencode-vs-refo", t.reencode_vs_reformulation
        );
        println!("  {:<20} {}", "sat-vs-interval", t.saturation_vs_interval);
    }

    #[derive(serde::Serialize)]
    struct Fig3Report<'a> {
        scale: String,
        profile: &'a webreason_core::cost::CostProfile,
        thresholds: &'a [webreason_core::threshold::QueryThresholds],
        spread_orders_of_magnitude: f64,
        journal_overhead: Option<JournalOverhead>,
        observed_costs: webreason_core::ObservedCosts,
        interval_thresholds: Option<webreason_core::IntervalThresholds>,
        metrics: &'a obs::MetricsSnapshot,
    }
    let ok = emit_json(
        "fig3",
        &Fig3Report {
            scale: format!("{scale:?}"),
            profile: &prof,
            thresholds: &thresholds,
            spread_orders_of_magnitude: spread,
            journal_overhead,
            observed_costs: observed,
            interval_thresholds: interval,
            metrics: &snapshot,
        },
    ) && emit_json("metrics", &snapshot);
    if !ok {
        std::process::exit(1);
    }
}

#[derive(serde::Serialize)]
struct JournalOverhead {
    append_always_s: f64,
    append_never_s: f64,
}

/// Per-append journal cost under both fsync policies; `None` (with a
/// message) when the filesystem refuses, rather than aborting the run.
fn measure_journal_overhead() -> Option<JournalOverhead> {
    let measure = |fsync| match journal_append_cost(fsync, 200) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("could not measure journal overhead: {e}");
            None
        }
    };
    Some(JournalOverhead {
        append_always_s: measure(FsyncPolicy::Always)?,
        append_never_s: measure(FsyncPolicy::Never)?,
    })
}
