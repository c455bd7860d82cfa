//! Amortisation thresholds — the reproduction of **Figure 3**.
//!
//! From the paper: "the saturation threshold for a query q is: the minimum
//! number of times n that q needs to be run, so that: the cost of
//! saturating the graph (independent of q), plus the cost of evaluating n
//! times q(G∞), is smaller than n times the cost of evaluating q_ref(G).
//! The larger the threshold, the 'harder' it is to amortize saturation.
//! […] Similarly, the threshold of q for an instance (or schema) deletion
//! (or insertion), is the minimum number of times one needs to run q so
//! that the cost of maintaining the saturation G∞ after an instance (or
//! schema) insertion (resp. deletion) is smaller than the cost of running
//! n times q_ref(G)."
//!
//! Solving `fixed + n·eval_sat ≤ n·eval_ref` gives
//! `n = ⌈fixed / (eval_ref − eval_sat)⌉` when evaluating on the saturated
//! graph is the faster side, and *no finite threshold* otherwise — the
//! fixed cost then never amortises, which Fig. 3's tallest bars
//! (> 10⁷ runs) approach in spirit: "in some cases it takes more than 10
//! million runs to amortize".

use crate::cost::{CostProfile, ObservedCosts};
use serde::Serialize;
use std::fmt;

/// A threshold: the run count after which saturation wins, if ever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Threshold {
    /// Saturation amortises after this many query runs.
    Amortizes(u64),
    /// `q_ref(G)` is at least as fast as `q(G∞)`: the fixed cost never
    /// pays off.
    Never,
}

impl Threshold {
    /// Computes the threshold for a fixed cost against the two evaluation
    /// costs (all seconds).
    pub fn compute(fixed: f64, eval_sat: f64, eval_ref: f64) -> Threshold {
        let gain = eval_ref - eval_sat;
        if gain > 0.0 && fixed.is_finite() {
            Threshold::Amortizes((fixed / gain).ceil().max(1.0) as u64)
        } else {
            Threshold::Never
        }
    }

    /// The run count, or `None` for [`Threshold::Never`].
    pub fn runs(self) -> Option<u64> {
        match self {
            Threshold::Amortizes(n) => Some(n),
            Threshold::Never => None,
        }
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::Amortizes(n) => write!(f, "{n}"),
            Threshold::Never => write!(f, "∞"),
        }
    }
}

/// The five Fig. 3 thresholds for one query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryThresholds {
    /// Query name.
    pub name: String,
    /// Runs to amortise saturating from scratch.
    pub saturation: Threshold,
    /// Runs to amortise maintaining `G∞` after one instance insertion.
    pub instance_insert: Threshold,
    /// … after one instance deletion.
    pub instance_delete: Threshold,
    /// … after one schema insertion.
    pub schema_insert: Threshold,
    /// … after one schema deletion.
    pub schema_delete: Threshold,
}

impl QueryThresholds {
    /// The five thresholds in Fig. 3's legend order, with labels.
    pub fn series(&self) -> [(&'static str, Threshold); 5] {
        [
            ("saturation", self.saturation),
            ("instance insertion", self.instance_insert),
            ("instance deletion", self.instance_delete),
            ("schema insertion", self.schema_insert),
            ("schema deletion", self.schema_delete),
        ]
    }
}

/// Computes the Fig. 3 thresholds for every query of a cost profile.
pub fn compute_thresholds(profile: &CostProfile) -> Vec<QueryThresholds> {
    profile
        .queries
        .iter()
        .map(|q| {
            // Reformulation happens at query run-time, so its (small) cost
            // is part of each q_ref run — as in the paper, where
            // "reformulation is made at query run-time".
            let eval_ref = q.eval_reformulated + q.reformulation_time;
            let t = |fixed: f64| Threshold::compute(fixed, q.eval_saturated, eval_ref);
            QueryThresholds {
                name: q.name.clone(),
                saturation: t(profile.saturation_time),
                instance_insert: t(profile.maintenance.instance_insert),
                instance_delete: t(profile.maintenance.instance_delete),
                schema_insert: t(profile.maintenance.schema_insert),
                schema_delete: t(profile.maintenance.schema_delete),
            }
        })
        .collect()
}

/// Figure 3-style thresholds computed from *observed* runtimes (an
/// [`ObservedCosts`] read out of a live metrics snapshot) instead of a
/// synthetic [`CostProfile`] — the same five-series shape, one workload
/// aggregate instead of one entry per named query.
#[derive(Debug, Clone, Serialize)]
pub struct ObservedThresholds {
    /// Runs to amortise one observed-mean saturation.
    pub saturation: Threshold,
    /// Runs to amortise one observed-mean instance insertion.
    pub instance_insert: Threshold,
    /// … instance deletion.
    pub instance_delete: Threshold,
    /// … schema insertion.
    pub schema_insert: Threshold,
    /// … schema deletion.
    pub schema_delete: Threshold,
}

impl ObservedThresholds {
    /// The five thresholds in Fig. 3's legend order, with labels.
    pub fn series(&self) -> [(&'static str, Threshold); 5] {
        [
            ("saturation", self.saturation),
            ("instance insertion", self.instance_insert),
            ("instance deletion", self.instance_delete),
            ("schema insertion", self.schema_insert),
            ("schema deletion", self.schema_delete),
        ]
    }
}

/// Computes the Fig. 3 thresholds from observed per-operation means:
/// `n = ⌈fixed / (eval_ref − eval_sat)⌉`, with `eval_ref` and `eval_sat`
/// the observed mean costs of the two answer paths. Returns `None` when
/// the snapshot did not observe both paths (no ratio to compute).
pub fn observed_thresholds(costs: &ObservedCosts) -> Option<ObservedThresholds> {
    if !costs.covers_both_paths() {
        return None;
    }
    let t = |fixed: f64| Threshold::compute(fixed, costs.eval_saturated, costs.eval_reformulated);
    Some(ObservedThresholds {
        saturation: t(costs.saturation),
        instance_insert: t(costs.maintenance.instance_insert),
        instance_delete: t(costs.maintenance.instance_delete),
        schema_insert: t(costs.maintenance.schema_insert),
        schema_delete: t(costs.maintenance.schema_delete),
    })
}

/// Interval-encoding threshold terms: the Fig. 3 arithmetic asked with
/// the LiteMat interval strategy in the mix. Its fixed cost is not a
/// saturation but the *re-encode* of the interval dictionary after a
/// schema change (instance updates cost it nothing).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IntervalThresholds {
    /// Runs of the interval evaluator needed for its per-run speedup over
    /// the union evaluator to pay back one schema re-encode. `Never` when
    /// the union evaluator is at least as fast per run.
    pub reencode_vs_reformulation: Threshold,
    /// Runs needed for a from-scratch saturation to pay off against
    /// answering with interval rewriting instead. `Never` when interval
    /// evaluation is at least as fast as `q(G∞)` — then materialising
    /// never amortises at all.
    pub saturation_vs_interval: Threshold,
}

/// Computes the interval-strategy thresholds from observed per-operation
/// means (see [`ObservedCosts::covers_interval`]). Returns `None` when the
/// snapshot never ran the interval evaluator; the `saturation_vs_interval`
/// term is [`Threshold::Never`] when no saturation cost was observed.
pub fn interval_thresholds(costs: &ObservedCosts) -> Option<IntervalThresholds> {
    if !costs.covers_interval() || costs.eval_reformulated_runs == 0 {
        return None;
    }
    let saturation_vs_interval = if costs.saturation_runs > 0 {
        Threshold::compute(costs.saturation, costs.eval_saturated, costs.eval_interval)
    } else {
        Threshold::Never
    };
    Some(IntervalThresholds {
        reencode_vs_reformulation: Threshold::compute(
            costs.interval_reencode,
            costs.eval_interval,
            costs.eval_reformulated,
        ),
        saturation_vs_interval,
    })
}

/// The spread of finite thresholds across queries and update kinds, in
/// orders of magnitude — the paper's headline observation is a spread of
/// "up to 7 orders of magnitude" on one database.
pub fn spread_orders_of_magnitude(thresholds: &[QueryThresholds]) -> f64 {
    let finite: Vec<f64> = thresholds
        .iter()
        .flat_map(|qt| qt.series().into_iter().filter_map(|(_, t)| t.runs()))
        .map(|n| n as f64)
        .collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if finite.is_empty() || min <= 0.0 {
        0.0
    } else {
        (max / min).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{MaintenanceCosts, QueryCosts};

    fn qc(name: &str, eval_sat: f64, reform: f64, eval_ref: f64) -> QueryCosts {
        QueryCosts {
            name: name.into(),
            eval_saturated: eval_sat,
            reformulation_time: reform,
            eval_reformulated: eval_ref,
            branches: 2,
            shared_prefix_scans: 0,
            answers: 1,
        }
    }

    fn synthetic_profile() -> CostProfile {
        CostProfile {
            base_triples: 1000,
            saturated_triples: 1500,
            saturation_time: 1.0,
            maintenance_algorithm: "counting".into(),
            maintenance: MaintenanceCosts {
                instance_insert: 0.001,
                instance_delete: 0.002,
                schema_insert: 0.05,
                schema_delete: 0.1,
            },
            queries: vec![
                // reformulated eval is 10 ms slower → saturation pays after
                // 1.0 / 0.01 = 100 runs
                qc("fast-gain", 0.010, 0.0, 0.020),
                // tiny gain of 1 µs → saturation needs 1M runs
                qc("tiny-gain", 0.010, 0.0, 0.010001),
                // reformulation is FASTER → never amortises
                qc("ref-wins", 0.010, 0.0, 0.005),
            ],
        }
    }

    #[test]
    fn threshold_formula() {
        assert_eq!(
            Threshold::compute(1.0, 0.01, 0.02),
            Threshold::Amortizes(100)
        );
        assert_eq!(
            Threshold::compute(0.0001, 0.01, 0.02),
            Threshold::Amortizes(1),
            "minimum is 1 run"
        );
        assert_eq!(Threshold::compute(1.0, 0.02, 0.01), Threshold::Never);
        assert_eq!(
            Threshold::compute(1.0, 0.01, 0.01),
            Threshold::Never,
            "tie → never"
        );
    }

    #[test]
    fn figure3_shape_on_synthetic_profile() {
        let ths = compute_thresholds(&synthetic_profile());
        assert_eq!(ths.len(), 3);

        let fast = &ths[0];
        assert_eq!(fast.saturation, Threshold::Amortizes(100));
        assert_eq!(
            fast.instance_insert,
            Threshold::Amortizes(1),
            "cheap maintenance amortises immediately"
        );
        assert_eq!(fast.schema_delete, Threshold::Amortizes(10), "0.1 / 0.01");

        let tiny = &ths[1];
        let n = tiny.saturation.runs().unwrap();
        assert!(n >= 900_000, "tiny gain → huge threshold, got {n}");

        let never = &ths[2];
        assert_eq!(never.saturation, Threshold::Never);
        assert_eq!(never.schema_delete, Threshold::Never);
    }

    #[test]
    fn thresholds_ordered_by_update_cost() {
        // For a fixed query, costlier updates have larger thresholds.
        let ths = compute_thresholds(&synthetic_profile());
        let fast = &ths[0];
        let runs = |t: Threshold| t.runs().unwrap();
        assert!(runs(fast.instance_insert) <= runs(fast.instance_delete));
        assert!(runs(fast.instance_delete) <= runs(fast.schema_insert));
        assert!(runs(fast.schema_insert) <= runs(fast.schema_delete));
        assert!(runs(fast.schema_delete) <= runs(fast.saturation));
    }

    #[test]
    fn spread_measures_orders_of_magnitude() {
        let ths = compute_thresholds(&synthetic_profile());
        let spread = spread_orders_of_magnitude(&ths);
        assert!(spread >= 5.0, "1 .. 1M+ is ≥ 5 orders, got {spread}");
    }

    #[test]
    fn observed_thresholds_match_hand_computed_ratios() {
        let costs = ObservedCosts {
            saturation: 2.0,
            saturation_runs: 1,
            maintenance: MaintenanceCosts {
                instance_insert: 0.004,
                instance_delete: 0.006,
                schema_insert: 0.03,
                schema_delete: 0.05,
            },
            updates_observed: 20,
            eval_saturated: 0.001,
            eval_saturated_runs: 5,
            eval_reformulated: 0.003,
            eval_reformulated_runs: 5,
            ..ObservedCosts::default()
        };
        // gain = 0.003 − 0.001 = 0.002 s per run; n = ⌈fixed / gain⌉.
        let t = observed_thresholds(&costs).expect("both paths observed");
        assert_eq!(t.saturation, Threshold::Amortizes(1000)); // 2.0 / 0.002
        assert_eq!(t.instance_insert, Threshold::Amortizes(2)); // 0.004 / 0.002
        assert_eq!(t.instance_delete, Threshold::Amortizes(3));
        assert_eq!(t.schema_insert, Threshold::Amortizes(15));
        assert_eq!(t.schema_delete, Threshold::Amortizes(25));
        assert_eq!(t.series().len(), 5);
    }

    #[test]
    fn observed_thresholds_need_both_paths_and_a_gain() {
        let base = ObservedCosts {
            eval_saturated: 0.001,
            eval_saturated_runs: 1,
            eval_reformulated: 0.003,
            eval_reformulated_runs: 1,
            ..ObservedCosts::default()
        };
        assert!(observed_thresholds(&base).is_some());
        // Missing either path → no ratio to compute.
        for one_sided in [
            ObservedCosts {
                eval_saturated_runs: 0,
                ..base
            },
            ObservedCosts {
                eval_reformulated_runs: 0,
                ..base
            },
        ] {
            assert!(observed_thresholds(&one_sided).is_none());
        }
        // Reformulation observed faster → every threshold is Never.
        let ref_wins = ObservedCosts {
            eval_saturated: 0.005,
            ..base
        };
        let t = observed_thresholds(&ref_wins).unwrap();
        assert!(t.series().iter().all(|(_, th)| *th == Threshold::Never));
    }

    #[test]
    fn interval_thresholds_pin_the_reencode_payback() {
        let costs = ObservedCosts {
            saturation: 2.0,
            saturation_runs: 1,
            eval_saturated: 0.001,
            eval_saturated_runs: 5,
            eval_reformulated: 0.004,
            eval_reformulated_runs: 5,
            eval_interval: 0.002,
            eval_interval_runs: 5,
            interval_reencode: 0.01,
            interval_reencodes: 1,
            ..ObservedCosts::default()
        };
        let t = interval_thresholds(&costs).expect("interval path observed");
        // Re-encode 0.01 s pays back at 2 ms/run over the union evaluator.
        assert_eq!(t.reencode_vs_reformulation, Threshold::Amortizes(5));
        // Saturation (2 s) against a 1 ms/run gain over interval eval.
        assert_eq!(t.saturation_vs_interval, Threshold::Amortizes(2000));

        // Interval faster than union but never observed → no terms.
        assert!(interval_thresholds(&ObservedCosts {
            eval_interval_runs: 0,
            ..costs
        })
        .is_none());
        // Union faster per run → the re-encode never pays back.
        let union_wins = ObservedCosts {
            eval_interval: 0.005,
            ..costs
        };
        let t = interval_thresholds(&union_wins).unwrap();
        assert_eq!(t.reencode_vs_reformulation, Threshold::Never);
        // No saturation observed → that side stays Never.
        let no_sat = ObservedCosts {
            saturation_runs: 0,
            ..costs
        };
        assert_eq!(
            interval_thresholds(&no_sat).unwrap().saturation_vs_interval,
            Threshold::Never
        );
    }

    #[test]
    fn display_renders_infinity() {
        assert_eq!(Threshold::Amortizes(42).to_string(), "42");
        assert_eq!(Threshold::Never.to_string(), "∞");
    }

    #[test]
    fn series_has_figure3_legend_order() {
        let ths = compute_thresholds(&synthetic_profile());
        let labels: Vec<&str> = ths[0].series().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec![
                "saturation",
                "instance insertion",
                "instance deletion",
                "schema insertion",
                "schema deletion"
            ]
        );
    }
}
