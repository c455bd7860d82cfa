//! The advisor in action — automating "the choice between these two
//! techniques, based on a quantitative evaluation of the application
//! setting" (the paper's §II-D open issue).
//!
//! Profiles a LUBM-style dataset once, then asks the advisor for a
//! recommendation across a grid of workload mixes, from read-only
//! analytics to schema-churning data integration.
//!
//! ```sh
//! cargo run --release --example dynamic_advisor
//! ```

use rdfs::incremental::CountingMaintainer;
use webreason_core::advisor::{advise, Recommendation, UpdateMix, WorkloadMix};
use webreason_core::cost::profile;
use webreason_core::threshold::{compute_thresholds, spread_orders_of_magnitude};
use workload::lubm::{generate, queries, LubmConfig};

fn main() {
    let cfg = LubmConfig {
        departments: 3,
        students_per_department: 40,
        ..LubmConfig::default()
    };
    let mut ds = generate(&cfg);
    let named = queries(&mut ds);
    let qs: Vec<(String, sparql::Query)> = named
        .iter()
        .map(|nq| (nq.name.to_owned(), nq.query.clone()))
        .collect();

    println!(
        "profiling {} triples × {} queries…\n",
        ds.graph.len(),
        qs.len()
    );
    let mut counting = CountingMaintainer::new(ds.graph.clone(), ds.vocab);
    let prof = profile(&mut counting, &ds.vocab, &qs, 3);

    println!(
        "saturation: {:.1} ms; maintenance per update (counting): inst-ins {:.3} ms, \
         inst-del {:.3} ms, schema-ins {:.3} ms, schema-del {:.3} ms\n",
        prof.saturation_time * 1e3,
        prof.maintenance.instance_insert * 1e3,
        prof.maintenance.instance_delete * 1e3,
        prof.maintenance.schema_insert * 1e3,
        prof.maintenance.schema_delete * 1e3,
    );

    let thresholds = compute_thresholds(&prof);
    println!(
        "threshold spread across queries/updates: {:.1} orders of magnitude\n",
        spread_orders_of_magnitude(&thresholds)
    );

    let scenarios: [(&str, WorkloadMix); 4] = [
        (
            "read-only analytics",
            WorkloadMix {
                queries_per_update: f64::INFINITY,
                updates: UpdateMix::append_mostly(),
            },
        ),
        (
            "dashboard (1000 queries per update)",
            WorkloadMix {
                queries_per_update: 1000.0,
                updates: UpdateMix::append_mostly(),
            },
        ),
        (
            "live feed (1 query per update)",
            WorkloadMix {
                queries_per_update: 1.0,
                updates: UpdateMix::append_mostly(),
            },
        ),
        (
            "data integration (schema churn)",
            WorkloadMix {
                queries_per_update: 10.0,
                updates: UpdateMix::schema_churn(),
            },
        ),
    ];

    println!(
        "{:<38} {:>14} {:>14}   recommendation",
        "scenario", "sat €/epoch", "ref €/epoch"
    );
    for (name, mix) in scenarios {
        let advice = advise(&prof, &mix);
        println!(
            "{:<38} {:>12.3}ms {:>12.3}ms   {}",
            name,
            advice.saturation_epoch_cost * 1e3,
            advice.reformulation_epoch_cost * 1e3,
            match advice.recommendation {
                Recommendation::Saturation => "SATURATION",
                Recommendation::Reformulation => "REFORMULATION",
                Recommendation::Interval => "INTERVAL",
            }
        );
    }
    println!(
        "\nPer-query recommendations can differ — the spread is the paper's point:\n\
         \"saturation is not always the best solution … a finer-grained analysis\n\
         of the performance trade-offs involved is needed\"."
    );
}
