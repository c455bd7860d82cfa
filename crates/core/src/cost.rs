//! Measured cost profiles: the raw numbers behind Fig. 3.
//!
//! [`profile`] measures, on a concrete dataset and query set:
//!
//! * the one-time cost of saturating the graph;
//! * the cost of maintaining the saturation after each update kind
//!   (instance/schema × insert/delete), for the maintainer it is handed —
//!   measured by deleting and re-inserting sampled triples, which leaves
//!   the maintainer unchanged;
//! * per query: evaluating `q(G∞)`, producing `q_ref`, and evaluating
//!   `q_ref(G)`, both through the executor the store answers with.
//!
//! All durations are seconds (`f64`) so the threshold arithmetic of
//! [`crate::threshold`] and the advisor stay plain math, and the profile
//! serialises directly into the bench harness's JSON reports.

use obs::CancelToken;
use rdf_model::{Graph, Triple, Vocab};
use rdfs::incremental::Maintainer;
use rdfs::{saturate, Schema};
use reformulation::reformulate;
use serde::Serialize;
use sparql::{try_execute, Executable, Query};
use std::time::Instant;

/// Measured costs for one query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryCosts {
    /// Query name (e.g. `"Q4"`).
    pub name: String,
    /// Seconds to evaluate `q(G∞)`.
    pub eval_saturated: f64,
    /// Seconds to produce `q_ref` from `q`.
    pub reformulation_time: f64,
    /// Seconds to evaluate `q_ref(G)` with the union-aware evaluator —
    /// the path [`crate::Store`] actually takes, so the threshold /
    /// advisor arithmetic reads the sharing-aware cost.
    pub eval_reformulated: f64,
    /// Union branches in `q_ref`.
    pub branches: usize,
    /// Index scans saved by shared-prefix evaluation of `q_ref`.
    pub shared_prefix_scans: usize,
    /// Answer count (identical under both techniques; checked).
    pub answers: usize,
}

/// Average maintenance cost (seconds) per update kind.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MaintenanceCosts {
    /// Instance triple insertion.
    pub instance_insert: f64,
    /// Instance triple deletion.
    pub instance_delete: f64,
    /// Schema triple insertion.
    pub schema_insert: f64,
    /// Schema triple deletion.
    pub schema_delete: f64,
}

/// A full cost profile of a dataset × query set × maintenance algorithm.
#[derive(Debug, Clone, Serialize)]
pub struct CostProfile {
    /// Explicit triples in `G`.
    pub base_triples: usize,
    /// Triples in `G∞`.
    pub saturated_triples: usize,
    /// Seconds to saturate from scratch.
    pub saturation_time: f64,
    /// Maintenance algorithm measured.
    pub maintenance_algorithm: String,
    /// Average maintenance costs per update kind.
    pub maintenance: MaintenanceCosts,
    /// Per-query costs.
    pub queries: Vec<QueryCosts>,
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Per-operation mean costs (seconds) read out of a live
/// [`MetricsSnapshot`](obs::MetricsSnapshot) — the *observed* counterpart
/// of [`profile`]'s synthetic measurements, closing the paper's §II-D loop:
/// the system measures itself and feeds the measurements back into the
/// Figure 3 threshold arithmetic (see
/// [`crate::threshold::observed_thresholds`] and
/// [`crate::advisor::advise_from_snapshot`]).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ObservedCosts {
    /// Mean wall-clock of one saturation run, seconds, or 0 when none ran.
    pub saturation: f64,
    /// Saturation runs observed.
    pub saturation_runs: u64,
    /// Mean maintenance cost per update kind, seconds (0 for kinds with
    /// no observations).
    pub maintenance: MaintenanceCosts,
    /// Maintenance updates observed (all kinds).
    pub updates_observed: u64,
    /// Mean `q(G∞)`-style answer cost, seconds: `core.answer.query` time
    /// that was *not* spent inside the union-aware reformulation
    /// evaluator, over the answers that did not take that path.
    pub eval_saturated: f64,
    /// Saturated-path answers observed.
    pub eval_saturated_runs: u64,
    /// Mean `q_ref(G)` cost, seconds: the `sparql.union.total` span.
    pub eval_reformulated: f64,
    /// Reformulated (union-aware) evaluations observed.
    pub eval_reformulated_runs: u64,
    /// Mean interval-rewritten evaluation cost, seconds: the
    /// `sparql.range.total` span.
    pub eval_interval: f64,
    /// Interval (range-scan) evaluations observed.
    pub eval_interval_runs: u64,
    /// Mean cost of re-encoding the interval dictionary after a schema
    /// change, seconds: the `core.interval.reencode` span. This is the
    /// interval strategy's whole maintenance bill — instance updates cost
    /// it nothing.
    pub interval_reencode: f64,
    /// Interval re-encodes observed.
    pub interval_reencodes: u64,
}

/// Microseconds to seconds.
fn us_to_s(us: f64) -> f64 {
    us / 1e6
}

impl ObservedCosts {
    /// Derives mean per-operation costs from a metrics snapshot.
    ///
    /// * saturation — the `rdfs.saturate.run` span;
    /// * maintenance — the `core.maintain.<kind>_us` histograms;
    /// * `q_ref(G)` — the `sparql.union.total` span across all parents;
    /// * `q(G∞)` — `core.answer.query` span time minus the union-eval
    ///   and query-rewrite time nested under it, averaged over the
    ///   answers that did not take the reformulation path.
    pub fn from_snapshot(snap: &obs::MetricsSnapshot) -> ObservedCosts {
        let span_mean = |name: &str| -> (f64, u64) {
            let count = snap.span_count(name);
            if count == 0 {
                return (0.0, 0);
            }
            (
                us_to_s(snap.span_total_us(name) as f64 / count as f64),
                count,
            )
        };
        let hist_mean = |name: &str| -> f64 {
            snap.histogram(name)
                .and_then(|h| h.mean())
                .map_or(0.0, us_to_s)
        };

        let (saturation, sat_runs) = span_mean("rdfs.saturate.run");

        let maintenance = MaintenanceCosts {
            instance_insert: hist_mean("core.maintain.instance_insert_us"),
            instance_delete: hist_mean("core.maintain.instance_delete_us"),
            schema_insert: hist_mean("core.maintain.schema_insert_us"),
            schema_delete: hist_mean("core.maintain.schema_delete_us"),
        };
        let updates_observed = snap.counter("core.maintain.updates").unwrap_or(0);

        let (eval_reformulated, eval_reformulated_runs) = span_mean("sparql.union.total");
        let (eval_interval, eval_interval_runs) = span_mean("sparql.range.total");
        let (interval_reencode, interval_reencodes) = span_mean("core.interval.reencode");

        // Answers that went through neither rewriting evaluator: subtract
        // the nested union/range evaluation, rewrite and re-encode time
        // from the total answer time.
        let answers = snap.span_count("core.answer.query");
        let union_under_answer = snap
            .span("sparql.union.total", Some("core.answer.query"))
            .map(|s| (s.count, s.total_us))
            .unwrap_or((0, 0));
        let range_under_answer = snap
            .span("sparql.range.total", Some("core.answer.query"))
            .map(|s| (s.count, s.total_us))
            .unwrap_or((0, 0));
        let refo_under_answer_us = snap
            .span("core.answer.reformulate", Some("core.answer.query"))
            .map(|s| s.total_us)
            .unwrap_or(0);
        let reencode_under_answer_us = snap
            .span("core.interval.reencode", Some("core.answer.query"))
            .map(|s| s.total_us)
            .unwrap_or(0);
        let sat_answers = answers
            .saturating_sub(union_under_answer.0)
            .saturating_sub(range_under_answer.0);
        let sat_answer_us = snap
            .span_total_us("core.answer.query")
            .saturating_sub(union_under_answer.1)
            .saturating_sub(range_under_answer.1)
            .saturating_sub(refo_under_answer_us)
            .saturating_sub(reencode_under_answer_us);
        let eval_saturated = if sat_answers > 0 {
            us_to_s(sat_answer_us as f64 / sat_answers as f64)
        } else {
            0.0
        };

        ObservedCosts {
            saturation,
            saturation_runs: sat_runs,
            maintenance,
            updates_observed,
            eval_saturated,
            eval_saturated_runs: sat_answers,
            eval_reformulated,
            eval_reformulated_runs,
            eval_interval,
            eval_interval_runs,
            interval_reencode,
            interval_reencodes,
        }
    }

    /// Whether the snapshot observed both evaluation paths, i.e. the
    /// threshold/advisor arithmetic has real numbers on both sides.
    pub fn covers_both_paths(&self) -> bool {
        self.eval_saturated_runs > 0 && self.eval_reformulated_runs > 0
    }

    /// Whether the snapshot also observed the interval path, i.e. the
    /// three-way threshold/advice terms have real numbers.
    pub fn covers_interval(&self) -> bool {
        self.eval_interval_runs > 0
    }
}

/// Measures a cost profile of `maintainer`'s explicit graph, maintained by
/// `maintainer`. `samples` controls both how many triples are sampled per
/// update kind and how many timing repetitions each query gets (the
/// minimum is reported, Criterion-style, to suppress noise). `G` is
/// materialised once, to time `saturate(G)` and `q_ref(G)`.
pub fn profile(
    maintainer: &mut dyn Maintainer,
    vocab: &Vocab,
    queries: &[(String, Query)],
    samples: usize,
) -> CostProfile {
    let samples = samples.max(1);
    let graph: Graph = maintainer.explicit().collect();
    let (sat, saturation_time) = time(|| saturate(&graph, vocab));

    // --- maintenance -----------------------------------------------------
    let mut instance_samples: Vec<Triple> = Vec::new();
    let mut schema_samples: Vec<Triple> = Vec::new();
    for t in graph.iter() {
        if vocab.is_schema_property(t.p) {
            if schema_samples.len() < samples {
                schema_samples.push(t);
            }
        } else if instance_samples.len() < samples {
            instance_samples.push(t);
        }
        if instance_samples.len() >= samples && schema_samples.len() >= samples {
            break;
        }
    }
    let mut measure = |ts: &[Triple]| -> (f64, f64) {
        // (avg delete, avg insert); net zero change to the maintainer.
        if ts.is_empty() {
            return (0.0, 0.0);
        }
        let mut del = 0.0;
        let mut ins = 0.0;
        for t in ts {
            let (_, d) = time(|| maintainer.delete(t));
            let (_, i) = time(|| maintainer.insert(*t));
            del += d;
            ins += i;
        }
        (del / ts.len() as f64, ins / ts.len() as f64)
    };
    let (instance_delete, instance_insert) = measure(&instance_samples);
    let (schema_delete, schema_insert) = measure(&schema_samples);
    let maintenance = MaintenanceCosts {
        instance_insert,
        instance_delete,
        schema_insert,
        schema_delete,
    };

    // --- queries -----------------------------------------------------------
    let schema = Schema::extract(&graph, vocab);
    let mut query_costs = Vec::with_capacity(queries.len());
    for (name, q) in queries {
        let mut q = q.clone();
        q.distinct = true; // answer-set semantics on both sides

        let (reform, reformulation_time) = time(|| reformulate(&q, &schema, vocab));
        let reform = reform.unwrap_or_else(|e| {
            panic!("profiled query {name} must be in the reformulation dialect: {e}")
        });

        let mut eval_saturated = f64::INFINITY;
        let mut eval_reformulated = f64::INFINITY;
        let mut answers = 0;
        let mut shared_prefix_scans = 0;
        let none = CancelToken::none();
        let run = |g: &Graph, exe: Executable| {
            try_execute(g, exe, &none).expect("an uncancellable run answers")
        };
        for _ in 0..samples {
            let ((sols, _), secs) = time(|| run(&sat.graph, Executable::Plain(&q)));
            eval_saturated = eval_saturated.min(secs);
            answers = sols.len();
            let ((ref_sols, stats), secs) = time(|| run(&graph, Executable::Union(&reform.query)));
            eval_reformulated = eval_reformulated.min(secs);
            shared_prefix_scans = stats.shared_prefix_scans();
            debug_assert_eq!(
                sols.as_set(),
                ref_sols.as_set(),
                "strategies disagree on {name}"
            );
        }
        query_costs.push(QueryCosts {
            name: name.clone(),
            eval_saturated,
            reformulation_time,
            eval_reformulated,
            branches: reform.branches,
            shared_prefix_scans,
            answers,
        });
    }

    CostProfile {
        base_triples: graph.len(),
        saturated_triples: sat.graph.len(),
        saturation_time,
        maintenance_algorithm: maintainer.name().to_owned(),
        maintenance,
        queries: query_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfs::incremental::{CountingMaintainer, DRedMaintainer, RecomputeMaintainer};
    use workload::lubm::{generate, queries, LubmConfig};

    #[test]
    fn profile_on_tiny_lubm_is_coherent() {
        let mut ds = generate(&LubmConfig::tiny());
        let named = queries(&mut ds);
        let qs: Vec<(String, Query)> = named
            .iter()
            .map(|nq| (nq.name.to_owned(), nq.query.clone()))
            .collect();
        let mut counting = CountingMaintainer::new(ds.graph.clone(), ds.vocab);
        let p = profile(&mut counting, &ds.vocab, &qs, 2);

        assert_eq!(p.queries.len(), 10);
        assert!(p.saturated_triples > p.base_triples);
        assert!(p.saturation_time > 0.0);
        assert_eq!(p.maintenance_algorithm, "counting");
        assert!(p.maintenance.instance_insert >= 0.0);
        for qc in &p.queries {
            assert!(qc.branches >= 1, "{}", qc.name);
            assert!(qc.eval_saturated > 0.0);
            assert!(qc.eval_reformulated > 0.0);
            assert!(qc.answers > 0, "{} has answers on LUBM", qc.name);
        }
        // Q1 needs no reasoning: exactly one branch.
        assert_eq!(p.queries[0].branches, 1);
        // Q2 (all persons) has a large reformulation.
        assert!(p.queries[1].branches > 5, "got {}", p.queries[1].branches);
        // profile serialises (bench harness contract)
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"saturation_time\""));
    }

    #[test]
    fn profiling_leaves_the_dataset_unchanged() {
        // The delete/re-insert sampling must be net zero.
        let mut ds = generate(&LubmConfig::tiny());
        let before = ds.graph.clone();
        let named = queries(&mut ds);
        let qs: Vec<(String, Query)> = named
            .iter()
            .take(2)
            .map(|nq| (nq.name.to_owned(), nq.query.clone()))
            .collect();
        let mut recompute = RecomputeMaintainer::new(ds.graph.clone(), ds.vocab);
        let mut dred = DRedMaintainer::new(ds.graph.clone(), ds.vocab);
        let mut counting = CountingMaintainer::new(ds.graph.clone(), ds.vocab);
        let maintainers: [&mut dyn Maintainer; 3] = [&mut recompute, &mut dred, &mut counting];
        for m in maintainers {
            let _ = profile(m, &ds.vocab, &qs, 3);
            assert_eq!(m.explicit().collect::<Graph>(), before, "{}", m.name());
        }
    }

    #[test]
    fn recompute_maintenance_costs_the_full_saturation() {
        let mut ds = generate(&LubmConfig::tiny());
        let named = queries(&mut ds);
        let qs: Vec<(String, Query)> = vec![(named[0].name.to_owned(), named[0].query.clone())];
        let mut recompute = RecomputeMaintainer::new(ds.graph.clone(), ds.vocab);
        let p = profile(&mut recompute, &ds.vocab, &qs, 2);
        // Every update pays roughly a saturation; allow generous slack for
        // timer noise but catch order-of-magnitude regressions.
        assert!(
            p.maintenance.instance_insert > p.saturation_time / 20.0,
            "recompute insert {} vs saturation {}",
            p.maintenance.instance_insert,
            p.saturation_time
        );
        let mut counting = CountingMaintainer::new(ds.graph.clone(), ds.vocab);
        let p_inc = profile(&mut counting, &ds.vocab, &qs, 2);
        assert!(
            p_inc.maintenance.instance_insert < p.maintenance.instance_insert,
            "incremental maintenance is cheaper than recomputation"
        );
    }
}
