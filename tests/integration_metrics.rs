//! Integration tests for the observability layer: the golden metrics
//! snapshot, the instrumentation-overhead guard, per-answer `EvalStats`
//! isolation, and the observed-cost threshold arithmetic.
//!
//! Every test here manipulates the process-global [`obs::Registry`]
//! (clock swaps, resets, enable toggles), so they serialise on one lock —
//! the registry is shared across threads within this test binary.

use std::sync::{Arc, Mutex, MutexGuard};

use obs::{Clock, MonotonicClock};
use rdf_model::Triple;
use webreason_core::{
    observed_thresholds, MaintenanceAlgorithm, ObservedCosts, ReasoningConfig, Store,
};
use workload::lubm::{generate, queries, LubmConfig};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The least `(s, p, o)` instance (non-schema) triple of the dataset that
/// the rest of the data does not entail, for net-zero maintenance rounds
/// that really retract and re-derive. Chosen by order on the triples, not
/// by iteration order, so the golden counters do not depend on the index
/// layout.
fn instance_triple(ds: &workload::Dataset) -> Triple {
    let mut candidates: Vec<Triple> = ds
        .graph
        .iter()
        .filter(|t| !ds.vocab.is_schema_property(t.p))
        .collect();
    candidates.sort();
    candidates
        .into_iter()
        .find(|t| {
            let mut rest = ds.graph.clone();
            rest.remove(t);
            !rdfs::saturate(&rest, &ds.vocab).graph.contains(t)
        })
        .expect("LUBM has instance triples no other triple entails")
}

// ---------------------------------------------------------------------------
// Golden snapshot: LUBM Q1 through saturation and reformulation under a
// ManualClock. Counter values and span/histogram *counts* are
// deterministic (seeded generator, 1 thread, frozen clock); timings are
// excluded. Regenerate with
// `WEBREASON_BLESS=1 cargo test -p webreason-core --test integration_metrics`.
// ---------------------------------------------------------------------------

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/metrics_lubm.txt")
}

fn render_snapshot(snap: &obs::MetricsSnapshot) -> String {
    let mut out = String::from(
        "# Metrics snapshot: LUBM Q1 (LubmConfig::tiny) answered over G∞ and via\n\
         # q_ref(G) (counting maintainer), plus one net-zero instance update,\n\
         # 1 thread, ManualClock.\n\
         # Counter values and span/histogram counts only — no timings.\n\
         # Regenerate with WEBREASON_BLESS=1; review diffs like code.\n",
    );
    for c in &snap.counters {
        out.push_str(&format!("counter {} = {}\n", c.name, c.value));
    }
    for h in &snap.histograms {
        out.push_str(&format!("histogram {} count={}\n", h.name, h.count));
    }
    for s in &snap.spans {
        out.push_str(&format!(
            "span {} parent={} count={}\n",
            s.name,
            s.parent.as_deref().unwrap_or("-"),
            s.count
        ));
    }
    out
}

#[test]
fn lubm_q1_metrics_snapshot_matches_golden_file() {
    let _guard = lock();
    let reg = obs::global();
    let _clock = reg.install_manual_clock();

    let mut ds = generate(&LubmConfig::tiny());
    // Picked before the reset: choosing it runs saturations of its own.
    let t = instance_triple(&ds);
    reg.reset();
    let named = queries(&mut ds);
    let mut q1 = named[0].query.clone();
    q1.distinct = true;

    // Saturate + answer over G∞ …
    let mut sat = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    );
    sat.answer(&q1).expect("Q1 over G∞");
    // … the same query through the reformulated path …
    let refo = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Reformulation,
    );
    refo.answer(&q1).expect("Q1 via q_ref");
    // … and one net-zero maintenance round.
    sat.delete(&t);
    sat.insert(t);

    let snapshot = render_snapshot(&reg.snapshot());
    reg.set_clock(Arc::new(MonotonicClock::new()) as Arc<dyn Clock>);

    let path = golden_path();
    if std::env::var("WEBREASON_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &snapshot).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with WEBREASON_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        snapshot,
        want,
        "metric names/counts diverged from {}; if intentional, regenerate \
         with WEBREASON_BLESS=1 and commit the diff",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Overhead guard: instrumentation must be observation, not behaviour.
// ---------------------------------------------------------------------------

#[test]
fn disabling_instrumentation_changes_no_results() {
    let _guard = lock();
    let reg = obs::global();
    reg.reset();
    reg.set_enabled(true);

    let ds = generate(&LubmConfig::tiny());
    let on = rdfs::saturate(&ds.graph, &ds.vocab);

    reg.set_enabled(false);
    let off = rdfs::saturate(&ds.graph, &ds.vocab);
    reg.set_enabled(true);

    assert_eq!(on.graph, off.graph, "G∞ must not depend on instrumentation");
    assert_eq!(
        on.stats.rule_firings, off.stats.rule_firings,
        "rule firings must not depend on instrumentation"
    );
}

#[test]
fn a_disabled_registry_is_inert() {
    // No global state: a local disabled registry hands out no-op handles.
    let reg = obs::Registry::disabled();
    let c = reg.counter("rdfs.saturate.runs");
    c.add(41);
    c.incr();
    assert_eq!(c.get(), 0, "disabled counter reads 0");
    assert_eq!(reg.counter_value("rdfs.saturate.runs"), 0);
    reg.record("core.maintain.noop_us", 7);
    {
        let _span = reg.span("core.answer.query");
    }
    assert!(
        reg.snapshot().is_empty(),
        "nothing is recorded while disabled"
    );
}

// ---------------------------------------------------------------------------
// EvalStats isolation: the per-answer counters (trie nodes, rows) are
// per-answer, not accumulated across consecutive `Store::answer` calls.
// ---------------------------------------------------------------------------

#[test]
fn eval_stats_do_not_accumulate_across_answers() {
    let _guard = lock();
    let mut ds = generate(&LubmConfig::tiny());
    let named = queries(&mut ds);
    // Q2 ("all persons") has a wide reformulation — plenty of trie nodes.
    let mut q = named[1].query.clone();
    q.distinct = true;
    let store = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Reformulation,
    );

    store.answer(&q).expect("first answer");
    let first = store.last_eval_stats().expect("union path ran").clone();
    assert!(
        first.trie_nodes > 0 && first.rows > 0,
        "the union walk built a trie and answered: {first:?}"
    );
    for _ in 0..3 {
        store.answer(&q).expect("repeat answer");
        let again = store.last_eval_stats().expect("union path ran");
        assert_eq!(
            again.trie_nodes, first.trie_nodes,
            "trie nodes reset per answer"
        );
        assert_eq!(again.rows, first.rows, "rows reset per answer");
        assert_eq!(again.branches_total, first.branches_total);
    }
}

// ---------------------------------------------------------------------------
// Observed-cost thresholds: run a real workload, snapshot it, and check
// the derived thresholds against ratios recomputed by hand from the same
// snapshot's raw span totals and histogram means.
// ---------------------------------------------------------------------------

#[test]
fn observed_thresholds_match_hand_computed_ratios_from_a_real_workload() {
    let _guard = lock();
    let reg = obs::global();
    reg.set_clock(Arc::new(MonotonicClock::new()) as Arc<dyn Clock>);

    let mut ds = generate(&LubmConfig::tiny());
    let t = instance_triple(&ds);
    reg.reset();
    let named = queries(&mut ds);
    let mut sat = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    );
    let refo = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Reformulation,
    );
    for nq in named.iter().take(3) {
        let mut q = nq.query.clone();
        q.distinct = true;
        sat.answer(&q).expect("saturated path");
        refo.answer(&q).expect("reformulated path");
    }
    for _ in 0..3 {
        sat.delete(&t);
        sat.insert(t);
    }

    let snap = reg.snapshot();
    let costs = ObservedCosts::from_snapshot(&snap);
    assert!(costs.covers_both_paths(), "workload drove both paths");
    assert_eq!(costs.eval_reformulated_runs, 3);
    assert_eq!(costs.eval_saturated_runs, 3);
    assert!(costs.saturation_runs >= 1);
    assert!(costs.updates_observed >= 6);
    let derived = observed_thresholds(&costs).expect("both paths covered");

    // Recompute every input from the snapshot's raw numbers.
    let us = 1e6;
    let sat_cost = snap.span_total_us("rdfs.saturate.run") as f64
        / snap.span_count("rdfs.saturate.run") as f64
        / us;
    let union = snap
        .span("sparql.union.total", Some("core.answer.query"))
        .expect("union ran under answer");
    let rewrite_us = snap
        .span("core.answer.reformulate", Some("core.answer.query"))
        .map(|s| s.total_us)
        .unwrap_or(0);
    let answers = snap.span_count("core.answer.query");
    let eval_sat = snap
        .span_total_us("core.answer.query")
        .saturating_sub(union.total_us)
        .saturating_sub(rewrite_us) as f64
        / (answers - union.count) as f64
        / us;
    let eval_ref = snap.span_total_us("sparql.union.total") as f64
        / snap.span_count("sparql.union.total") as f64
        / us;
    let hist_mean =
        |name: &str| -> f64 { snap.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0) / us };

    assert_eq!(costs.saturation, sat_cost);
    assert_eq!(costs.eval_saturated, eval_sat);
    assert_eq!(costs.eval_reformulated, eval_ref);
    assert_eq!(
        costs.maintenance.instance_insert,
        hist_mean("core.maintain.instance_insert_us")
    );
    assert_eq!(
        costs.maintenance.instance_delete,
        hist_mean("core.maintain.instance_delete_us")
    );

    // Hand-apply the Fig. 3 amortisation rule to each fixed cost.
    let by_hand = |fixed: f64| -> Option<u64> {
        let gain = eval_ref - eval_sat;
        (gain > 0.0).then(|| (fixed / gain).ceil().max(1.0) as u64)
    };
    assert_eq!(derived.saturation.runs(), by_hand(sat_cost));
    assert_eq!(
        derived.instance_insert.runs(),
        by_hand(hist_mean("core.maintain.instance_insert_us"))
    );
    assert_eq!(
        derived.instance_delete.runs(),
        by_hand(hist_mean("core.maintain.instance_delete_us"))
    );
    assert_eq!(
        derived.schema_insert.runs(),
        by_hand(hist_mean("core.maintain.schema_insert_us"))
    );
    assert_eq!(
        derived.schema_delete.runs(),
        by_hand(hist_mean("core.maintain.schema_delete_us"))
    );
}

// ---------------------------------------------------------------------------
// Served writes: the server applies every `POST /update` body through
// `DurableStore::apply_script`, so that path must feed the maintenance
// metrics `ObservedCosts` prices maintenance from.
// ---------------------------------------------------------------------------

#[test]
fn a_scripted_write_on_a_saturated_store_records_its_maintenance() {
    let _guard = lock();
    let reg = obs::global();
    let dir = std::env::temp_dir().join(format!("webreason-metrics-script-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = webreason_core::DurableStore::create(
        &dir,
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
        std::num::NonZeroUsize::MIN,
        webreason_core::FsyncPolicy::Never,
    )
    .expect("store creates");
    store
        .load_turtle(
            "@prefix ex: <http://ex/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Cat rdfs:subClassOf ex:Mammal .",
        )
        .expect("schema loads");

    let updates = || reg.snapshot().counter("core.maintain.updates").unwrap_or(0);
    let inserts = || {
        reg.snapshot()
            .histogram("core.maintain.instance_insert_us")
            .map_or(0, |h| h.count)
    };
    let added = || {
        reg.snapshot()
            .counter("core.maintain.triples_added")
            .unwrap_or(0)
    };
    let (updates_before, inserts_before, added_before) = (updates(), inserts(), added());
    let tom = [
        rdf_model::Term::iri("http://ex/Tom"),
        rdf_model::Term::iri(rdf_model::vocab::RDF_TYPE),
        rdf_model::Term::iri("http://ex/Cat"),
    ];
    let outcome = store
        .apply_script(&[webreason_core::ScriptOp::Insert(tom)])
        .expect("script applies");
    assert_eq!(outcome.added, 1, "the reply counts the one explicit triple");
    assert_eq!(
        added(),
        added_before + 2,
        "G∞ gains Tom a Cat and Tom a Mammal"
    );
    assert_eq!(updates(), updates_before + 1, "one maintained update");
    assert_eq!(inserts(), inserts_before + 1, "one instance insert timed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A script's maintenance accounting is flushed once, after its last op:
/// the counters and histograms it leaves are exactly those of applying
/// its ops one script each. The frozen clock times every update at 0 µs,
/// so whole histograms compare, buckets included.
#[test]
fn one_script_of_n_ops_records_what_n_single_op_scripts_do() {
    use rdf_model::{vocab, Term};
    use webreason_core::{DurableStore, FsyncPolicy, ScriptOp};

    let _guard = lock();
    let reg = obs::global();
    let _clock = reg.install_manual_clock();
    let iri = |s: &str| Term::iri(format!("http://ex/{s}"));
    let subclass = Term::iri(vocab::RDFS_SUB_CLASS_OF);
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let ops = vec![
        ScriptOp::Insert([iri("Cat"), subclass.clone(), iri("Mammal")]),
        ScriptOp::Insert([iri("Tom"), rdf_type.clone(), iri("Cat")]),
        ScriptOp::Insert([iri("Rex"), rdf_type.clone(), iri("Mammal")]),
        // A duplicate insert and an absent delete: noops, still counted.
        ScriptOp::Insert([iri("Tom"), rdf_type.clone(), iri("Cat")]),
        ScriptOp::Delete([iri("Ann"), rdf_type.clone(), iri("Cat")]),
        ScriptOp::Delete([iri("Rex"), rdf_type.clone(), iri("Mammal")]),
        ScriptOp::Insert([iri("Tom"), iri("name"), Term::literal("Tom")]),
        ScriptOp::Delete([iri("Cat"), subclass, iri("Mammal")]),
    ];
    let maintenance = |one_script: bool| {
        let dir = std::env::temp_dir().join(format!(
            "webreason-metrics-tally-{one_script}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableStore::create(
            &dir,
            ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
            std::num::NonZeroUsize::MIN,
            FsyncPolicy::Never,
        )
        .expect("store creates");
        reg.reset();
        if one_script {
            store.apply_script(&ops).expect("script applies");
        } else {
            for op in &ops {
                store
                    .apply_script(std::slice::from_ref(op))
                    .expect("op applies");
            }
        }
        let snap = reg.snapshot();
        let _ = std::fs::remove_dir_all(&dir);
        let maintain = |name: &str| name.starts_with("core.maintain.");
        let counters: Vec<_> = snap
            .counters
            .into_iter()
            .filter(|c| maintain(&c.name))
            .collect();
        let histograms: Vec<_> = snap
            .histograms
            .into_iter()
            .filter(|h| maintain(&h.name))
            .collect();
        (counters, histograms)
    };
    let (counters, histograms) = maintenance(true);
    let (single_counters, single_histograms) = maintenance(false);
    reg.set_clock(Arc::new(MonotonicClock::new()) as Arc<dyn Clock>);

    assert_eq!(counters, single_counters);
    assert_eq!(histograms, single_histograms);
    let counter = |name: &str| counters.iter().find(|c| c.name == name).map(|c| c.value);
    assert_eq!(counter("core.maintain.updates"), Some(ops.len() as u64));
    for name in ["work", "triples_added", "triples_removed"] {
        assert!(
            counter(&format!("core.maintain.{name}")).is_some(),
            "{name}"
        );
    }
    let count = |name: &str| histograms.iter().find(|h| h.name == name).map(|h| h.count);
    assert_eq!(count("core.maintain.schema_insert_us"), Some(1));
    assert_eq!(count("core.maintain.instance_insert_us"), Some(3));
    assert_eq!(count("core.maintain.instance_delete_us"), Some(1));
    assert_eq!(count("core.maintain.schema_delete_us"), Some(1));
    assert_eq!(count("core.maintain.noop_us"), Some(2));
}
