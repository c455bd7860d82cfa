//! The strategy advisor — the paper's third open issue (§II-D):
//! "automatizing to the extent possible the choice between these two
//! techniques, based on a quantitative evaluation of the application
//! setting."
//!
//! Given a measured [`CostProfile`] and a description of the application's
//! workload (how many query executions happen per update, and what kinds
//! of updates occur), [`advise`] compares the steady-state cost per
//! *epoch* — one update followed by `queries_per_update` query runs —
//! under each technique and recommends the cheaper one, per query and
//! overall.

use crate::cost::{CostProfile, ObservedCosts, QueryCosts};
use crate::threshold::Threshold;
use serde::Serialize;

/// Relative frequency of each update kind; need not be normalised.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct UpdateMix {
    /// Instance insertions.
    pub instance_insert: f64,
    /// Instance deletions.
    pub instance_delete: f64,
    /// Schema insertions.
    pub schema_insert: f64,
    /// Schema deletions.
    pub schema_delete: f64,
}

impl UpdateMix {
    /// The common Semantic Web case: mostly instance insertions.
    pub fn append_mostly() -> Self {
        UpdateMix {
            instance_insert: 0.9,
            instance_delete: 0.1,
            schema_insert: 0.0,
            schema_delete: 0.0,
        }
    }

    /// Integration scenario: independently-authored schemas churn too
    /// ("typical Semantic Web scenarios involve integrating data from
    /// several RDF repositories … authored independently", §I).
    pub fn schema_churn() -> Self {
        UpdateMix {
            instance_insert: 0.4,
            instance_delete: 0.2,
            schema_insert: 0.2,
            schema_delete: 0.2,
        }
    }

    fn total(&self) -> f64 {
        self.instance_insert + self.instance_delete + self.schema_insert + self.schema_delete
    }
}

/// A workload description: the quantitative "application setting".
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WorkloadMix {
    /// Average query executions between two consecutive updates. `0` means
    /// update-only; `f64::INFINITY` means read-only.
    pub queries_per_update: f64,
    /// What the updates look like.
    pub updates: UpdateMix,
}

/// Which technique to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Recommendation {
    /// Materialise and maintain `G∞`.
    Saturation,
    /// Reformulate at query time.
    Reformulation,
    /// Interval rewriting: range scans over the LiteMat interval
    /// dictionary, re-encoded on schema change.
    Interval,
}

/// Advice for one query.
#[derive(Debug, Clone, Serialize)]
pub struct QueryAdvice {
    /// Query name.
    pub name: String,
    /// Cost per epoch under saturation (maintenance + evaluations), seconds.
    pub saturation_epoch_cost: f64,
    /// Cost per epoch under reformulation, seconds.
    pub reformulation_epoch_cost: f64,
    /// The cheaper technique for this query alone.
    pub recommendation: Recommendation,
    /// The update threshold restated: epochs-per-amortisation under the
    /// mixed update cost.
    pub mixed_update_threshold: Threshold,
}

/// Overall advice.
#[derive(Debug, Clone, Serialize)]
pub struct Advice {
    /// Workload-weighted cost per epoch under saturation.
    pub saturation_epoch_cost: f64,
    /// Workload-weighted cost per epoch under reformulation.
    pub reformulation_epoch_cost: f64,
    /// The overall recommendation.
    pub recommendation: Recommendation,
    /// Per-query breakdown.
    pub per_query: Vec<QueryAdvice>,
}

/// Average maintenance cost per update under the mix.
fn mixed_update_cost(profile: &CostProfile, mix: &UpdateMix) -> f64 {
    let total = mix.total();
    if total <= 0.0 {
        return 0.0;
    }
    (profile.maintenance.instance_insert * mix.instance_insert
        + profile.maintenance.instance_delete * mix.instance_delete
        + profile.maintenance.schema_insert * mix.schema_insert
        + profile.maintenance.schema_delete * mix.schema_delete)
        / total
}

/// Compares the two techniques under `workload` and recommends the cheaper.
pub fn advise(profile: &CostProfile, workload: &WorkloadMix) -> Advice {
    let update_cost = mixed_update_cost(profile, &workload.updates);
    let k = workload.queries_per_update.max(0.0);

    let mut per_query = Vec::with_capacity(profile.queries.len());
    let (mut sat_total, mut ref_total) = (0.0, 0.0);
    for q in &profile.queries {
        let eval_ref = q.eval_reformulated + q.reformulation_time;
        let (sat_cost, ref_cost) = if k.is_infinite() {
            // Read-only: compare pure evaluation rates.
            (q.eval_saturated, eval_ref)
        } else {
            (update_cost + k * q.eval_saturated, k * eval_ref)
        };
        sat_total += sat_cost;
        ref_total += ref_cost;
        per_query.push(QueryAdvice {
            name: q.name.clone(),
            saturation_epoch_cost: sat_cost,
            reformulation_epoch_cost: ref_cost,
            recommendation: if sat_cost <= ref_cost {
                Recommendation::Saturation
            } else {
                Recommendation::Reformulation
            },
            mixed_update_threshold: Threshold::compute(update_cost, q.eval_saturated, eval_ref),
        });
    }
    let n = profile.queries.len().max(1) as f64;
    let (saturation_epoch_cost, reformulation_epoch_cost) = (sat_total / n, ref_total / n);
    Advice {
        saturation_epoch_cost,
        reformulation_epoch_cost,
        recommendation: if saturation_epoch_cost <= reformulation_epoch_cost {
            Recommendation::Saturation
        } else {
            Recommendation::Reformulation
        },
        per_query,
    }
}

/// Casts observed per-operation means into a one-entry [`CostProfile`]
/// (the pseudo-query `"observed"` aggregates the live workload), so every
/// profile-based consumer — [`advise`], `compute_thresholds`, the bench
/// reports — can run on observed numbers unchanged.
pub fn observed_profile(costs: &ObservedCosts) -> CostProfile {
    CostProfile {
        base_triples: 0,
        saturated_triples: 0,
        saturation_time: costs.saturation,
        maintenance_algorithm: "observed".to_owned(),
        maintenance: costs.maintenance,
        queries: vec![QueryCosts {
            name: "observed".to_owned(),
            eval_saturated: costs.eval_saturated,
            // The union span wraps planning + reformulated evaluation, so
            // the run-time reformulation cost is already inside it.
            reformulation_time: 0.0,
            eval_reformulated: costs.eval_reformulated,
            branches: 0,
            shared_prefix_scans: 0,
            answers: 0,
        }],
    }
}

/// [`advise`] on observed costs. `None` when the snapshot did not observe
/// both answer paths — there is no measured ratio to compare.
pub fn advise_observed(costs: &ObservedCosts, workload: &WorkloadMix) -> Option<Advice> {
    if !costs.covers_both_paths() {
        return None;
    }
    Some(advise(&observed_profile(costs), workload))
}

/// Three-way advice on observed costs: saturation vs reformulation vs
/// interval rewriting, per epoch of `workload`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ThreeWayAdvice {
    /// Cost per epoch under saturation (maintenance + evaluations), seconds.
    pub saturation_epoch_cost: f64,
    /// Cost per epoch under reformulation, seconds.
    pub reformulation_epoch_cost: f64,
    /// Cost per epoch under interval rewriting: schema updates pay a
    /// dictionary re-encode, instance updates are free, evaluations run
    /// the range-scan evaluator.
    pub interval_epoch_cost: f64,
    /// The cheapest of the three (ties resolve in the order saturation,
    /// reformulation, interval).
    pub recommendation: Recommendation,
}

/// Compares all three observed answer paths under `workload`. `None`
/// unless the snapshot observed every path (see
/// [`ObservedCosts::covers_both_paths`] and
/// [`ObservedCosts::covers_interval`]).
pub fn advise_three_way(costs: &ObservedCosts, workload: &WorkloadMix) -> Option<ThreeWayAdvice> {
    if !costs.covers_both_paths() || !costs.covers_interval() {
        return None;
    }
    let mix = &workload.updates;
    let total = mix.total();
    let update_cost = mixed_update_cost(&observed_profile(costs), mix);
    // Interval maintenance: only schema updates trigger a re-encode.
    let schema_fraction = if total > 0.0 {
        (mix.schema_insert + mix.schema_delete) / total
    } else {
        0.0
    };
    let k = workload.queries_per_update.max(0.0);
    let (sat, refo, interval) = if k.is_infinite() {
        (
            costs.eval_saturated,
            costs.eval_reformulated,
            costs.eval_interval,
        )
    } else {
        (
            update_cost + k * costs.eval_saturated,
            k * costs.eval_reformulated,
            schema_fraction * costs.interval_reencode + k * costs.eval_interval,
        )
    };
    let recommendation = if sat <= refo && sat <= interval {
        Recommendation::Saturation
    } else if refo <= interval {
        Recommendation::Reformulation
    } else {
        Recommendation::Interval
    };
    Some(ThreeWayAdvice {
        saturation_epoch_cost: sat,
        reformulation_epoch_cost: refo,
        interval_epoch_cost: interval,
        recommendation,
    })
}

/// Closes the self-tuning loop end to end: reads [`ObservedCosts`] out of
/// a live metrics snapshot and recommends the cheaper technique for
/// `workload`. This is the paper's §II-D "automatizing … based on a
/// quantitative evaluation of the application setting", with the
/// quantities measured by the system itself.
pub fn advise_from_snapshot(snap: &obs::MetricsSnapshot, workload: &WorkloadMix) -> Option<Advice> {
    advise_observed(&ObservedCosts::from_snapshot(snap), workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{MaintenanceCosts, QueryCosts};

    fn profile_with(maint: MaintenanceCosts, eval_sat: f64, eval_ref: f64) -> CostProfile {
        CostProfile {
            base_triples: 100,
            saturated_triples: 150,
            saturation_time: 1.0,
            maintenance_algorithm: "counting".into(),
            maintenance: maint,
            queries: vec![QueryCosts {
                name: "Q".into(),
                eval_saturated: eval_sat,
                reformulation_time: 0.0,
                eval_reformulated: eval_ref,
                branches: 3,
                shared_prefix_scans: 0,
                answers: 5,
            }],
        }
    }

    const CHEAP_MAINT: MaintenanceCosts = MaintenanceCosts {
        instance_insert: 0.0001,
        instance_delete: 0.0001,
        schema_insert: 0.001,
        schema_delete: 0.001,
    };
    const COSTLY_MAINT: MaintenanceCosts = MaintenanceCosts {
        instance_insert: 0.5,
        instance_delete: 0.5,
        schema_insert: 2.0,
        schema_delete: 2.0,
    };

    #[test]
    fn read_heavy_workload_prefers_saturation() {
        // "If the RDF graph never changes, RDF saturation is clearly
        // preferable" (§II-B).
        let p = profile_with(COSTLY_MAINT, 0.001, 0.010);
        let advice = advise(
            &p,
            &WorkloadMix {
                queries_per_update: f64::INFINITY,
                updates: UpdateMix::append_mostly(),
            },
        );
        assert_eq!(advice.recommendation, Recommendation::Saturation);
    }

    #[test]
    fn update_heavy_workload_prefers_reformulation() {
        // "on a frequently changing graph, saturation maintenance costs may
        // be prohibitive, and thus reformulation is the only choice".
        let p = profile_with(COSTLY_MAINT, 0.001, 0.010);
        let advice = advise(
            &p,
            &WorkloadMix {
                queries_per_update: 1.0,
                updates: UpdateMix::schema_churn(),
            },
        );
        assert_eq!(advice.recommendation, Recommendation::Reformulation);
    }

    #[test]
    fn crossover_moves_with_query_rate() {
        // maintenance 0.5s/update (instance), gain 9ms/query → crossover
        // near 0.5 / 0.009 ≈ 56 queries per update.
        let p = profile_with(
            MaintenanceCosts {
                instance_insert: 0.5,
                instance_delete: 0.5,
                schema_insert: 0.5,
                schema_delete: 0.5,
            },
            0.001,
            0.010,
        );
        let mix = UpdateMix::append_mostly();
        let low = advise(
            &p,
            &WorkloadMix {
                queries_per_update: 10.0,
                updates: mix,
            },
        );
        assert_eq!(low.recommendation, Recommendation::Reformulation);
        let high = advise(
            &p,
            &WorkloadMix {
                queries_per_update: 100.0,
                updates: mix,
            },
        );
        assert_eq!(high.recommendation, Recommendation::Saturation);
        // the per-query threshold pins the crossover
        let t = high.per_query[0].mixed_update_threshold.runs().unwrap();
        assert!((50..=60).contains(&t), "got {t}");
    }

    #[test]
    fn reformulation_faster_eval_never_amortises() {
        let p = profile_with(CHEAP_MAINT, 0.010, 0.005);
        let advice = advise(
            &p,
            &WorkloadMix {
                queries_per_update: 1e9,
                updates: UpdateMix::append_mostly(),
            },
        );
        assert_eq!(advice.recommendation, Recommendation::Reformulation);
        assert_eq!(advice.per_query[0].mixed_update_threshold, Threshold::Never);
    }

    #[test]
    fn update_mix_weighting_matters() {
        // Schema updates cost 2s, instance updates 1ms: the recommendation
        // flips with the mix at a fixed query rate.
        let p = profile_with(
            MaintenanceCosts {
                instance_insert: 0.001,
                instance_delete: 0.001,
                schema_insert: 2.0,
                schema_delete: 2.0,
            },
            0.001,
            0.002,
        );
        let k = 30.0;
        let append = advise(
            &p,
            &WorkloadMix {
                queries_per_update: k,
                updates: UpdateMix::append_mostly(),
            },
        );
        assert_eq!(append.recommendation, Recommendation::Saturation);
        let churn = advise(
            &p,
            &WorkloadMix {
                queries_per_update: k,
                updates: UpdateMix::schema_churn(),
            },
        );
        assert_eq!(churn.recommendation, Recommendation::Reformulation);
    }

    #[test]
    fn recommendation_flips_exactly_at_the_threshold_boundary() {
        // All values are powers of two so the boundary arithmetic is exact
        // in f64: update cost 8 s, per-run gain 0.5 − 0.25 = 0.25 s ⇒ the
        // documented boundary is queries_per_update = 8 / 0.25 = 32.
        let p = profile_with(
            MaintenanceCosts {
                instance_insert: 8.0,
                instance_delete: 8.0,
                schema_insert: 8.0,
                schema_delete: 8.0,
            },
            0.25,
            0.5,
        );
        let mix = UpdateMix {
            instance_insert: 1.0,
            instance_delete: 0.0,
            schema_insert: 0.0,
            schema_delete: 0.0,
        };
        let advice_at = |k: f64| {
            advise(
                &p,
                &WorkloadMix {
                    queries_per_update: k,
                    updates: mix,
                },
            )
        };
        assert_eq!(
            advice_at(31.0).recommendation,
            Recommendation::Reformulation,
            "one query short of the boundary, maintenance not yet amortised"
        );
        assert_eq!(
            advice_at(32.0).recommendation,
            Recommendation::Saturation,
            "at the boundary the epoch costs tie and ties go to saturation"
        );
        assert_eq!(advice_at(33.0).recommendation, Recommendation::Saturation);
        // The per-query threshold pins the same boundary.
        assert_eq!(
            advice_at(32.0).per_query[0].mixed_update_threshold,
            Threshold::Amortizes(32)
        );
    }

    #[test]
    fn observed_costs_flow_through_the_same_advice() {
        // Same binary-exact boundary as above: 8 / (0.5 − 0.25) = 32.
        let costs = ObservedCosts {
            saturation: 1.0,
            saturation_runs: 1,
            maintenance: MaintenanceCosts {
                instance_insert: 8.0,
                instance_delete: 8.0,
                schema_insert: 8.0,
                schema_delete: 8.0,
            },
            updates_observed: 4,
            eval_saturated: 0.25,
            eval_saturated_runs: 10,
            eval_reformulated: 0.5,
            eval_reformulated_runs: 10,
            ..ObservedCosts::default()
        };
        let mix = UpdateMix {
            instance_insert: 1.0,
            instance_delete: 0.0,
            schema_insert: 0.0,
            schema_delete: 0.0,
        };
        let at = |k: f64| {
            advise_observed(
                &costs,
                &WorkloadMix {
                    queries_per_update: k,
                    updates: mix,
                },
            )
            .expect("both paths observed")
        };
        assert_eq!(at(31.0).recommendation, Recommendation::Reformulation);
        assert_eq!(at(32.0).recommendation, Recommendation::Saturation);

        // A snapshot that never exercised reformulation gives no advice.
        let one_sided = ObservedCosts {
            eval_reformulated_runs: 0,
            ..costs
        };
        assert!(advise_observed(
            &one_sided,
            &WorkloadMix {
                queries_per_update: 50.0,
                updates: mix
            }
        )
        .is_none());
    }

    #[test]
    fn three_way_advice_flips_with_the_workload() {
        // Interval eval sits between saturated and union eval; its only
        // maintenance is the re-encode on schema updates.
        let costs = ObservedCosts {
            saturation: 10.0,
            saturation_runs: 1,
            maintenance: MaintenanceCosts {
                instance_insert: 0.5,
                instance_delete: 0.5,
                schema_insert: 0.5,
                schema_delete: 0.5,
            },
            updates_observed: 4,
            eval_saturated: 0.001,
            eval_saturated_runs: 10,
            eval_reformulated: 0.010,
            eval_reformulated_runs: 10,
            eval_interval: 0.002,
            eval_interval_runs: 10,
            interval_reencode: 0.1,
            interval_reencodes: 1,
        };
        let at = |k: f64, updates: UpdateMix| {
            advise_three_way(
                &costs,
                &WorkloadMix {
                    queries_per_update: k,
                    updates,
                },
            )
            .expect("all paths observed")
        };
        // Instance-churn workload: saturation pays 0.5 s per update,
        // interval pays nothing — interval wins over both.
        let churn = at(10.0, UpdateMix::append_mostly());
        assert_eq!(churn.recommendation, Recommendation::Interval);
        assert!(churn.interval_epoch_cost < churn.saturation_epoch_cost);
        assert!(churn.interval_epoch_cost < churn.reformulation_epoch_cost);
        // Read-only workload: pure evaluation rates, saturation fastest.
        let ro = at(f64::INFINITY, UpdateMix::append_mostly());
        assert_eq!(ro.recommendation, Recommendation::Saturation);
        // Heavy query traffic between updates amortises the maintenance.
        assert_eq!(
            at(10_000.0, UpdateMix::append_mostly()).recommendation,
            Recommendation::Saturation
        );
        // Missing the interval observations → no three-way advice.
        assert!(advise_three_way(
            &ObservedCosts {
                eval_interval_runs: 0,
                ..costs
            },
            &WorkloadMix {
                queries_per_update: 10.0,
                updates: UpdateMix::append_mostly(),
            }
        )
        .is_none());
    }

    #[test]
    fn zero_update_mix_is_pure_query_cost() {
        let p = profile_with(
            MaintenanceCosts {
                instance_insert: 0.0,
                instance_delete: 0.0,
                schema_insert: 0.0,
                schema_delete: 0.0,
            },
            0.002,
            0.001,
        );
        let advice = advise(
            &p,
            &WorkloadMix {
                queries_per_update: 5.0,
                updates: UpdateMix {
                    instance_insert: 0.0,
                    instance_delete: 0.0,
                    schema_insert: 0.0,
                    schema_delete: 0.0,
                },
            },
        );
        assert_eq!(advice.recommendation, Recommendation::Reformulation);
        assert!((advice.reformulation_epoch_cost - 0.005).abs() < 1e-9);
    }
}
