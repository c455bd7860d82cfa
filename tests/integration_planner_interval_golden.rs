//! Golden-file test for the interval planner: the branch shapes, range
//! sets, join orders and cardinality estimates the interval (LiteMat)
//! strategy picks for LUBM Q1–Q10 are snapshotted in
//! `tests/golden/planner_interval.txt`. Any change to the interval
//! rewriter, the range cost model or the LUBM generator shows up as a
//! readable diff instead of a silent plan regression.
//!
//! The same loop asserts the interval rewriting never has more branches
//! than classical reformulation after its containment pruning: dropping
//! schema-entailed atoms before collapsing to ranges keeps interval
//! evaluation from paying for union width reformulation does not.
//!
//! To accept an intentional change, regenerate the snapshot with
//! `WEBREASON_BLESS=1 cargo test -p webreason-core --test
//! integration_planner_interval_golden` and review the diff like any
//! other code.

use rdfs::Schema;
use reformulation::{reformulate, reformulate_intervals};
use std::sync::Arc;
use workload::lubm::{generate, queries, LubmConfig};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/planner_interval.txt")
}

#[test]
fn interval_plans_match_golden_file() {
    let mut ds = generate(&LubmConfig::tiny());
    let named = queries(&mut ds);
    let schema = Schema::extract(&ds.graph, &ds.vocab);
    let idict = Arc::new(schema.interval_dict());

    let mut snapshot = String::from(
        "# Interval-planner snapshot: LUBM Q1-Q10 under the LiteMat-style\n\
         # rewriting (LubmConfig::tiny) - union branches collapsed into range\n\
         # scans, then each branch's join order and estimates.\n\
         # Regenerate with WEBREASON_BLESS=1; review diffs.\n",
    );
    for nq in &named {
        let iq = reformulate_intervals(&nq.query, &schema, &ds.vocab, Arc::clone(&idict))
            .expect("LUBM queries are in the reformulation dialect");
        let r = reformulate(&nq.query, &schema, &ds.vocab).expect("same dialect");
        assert!(
            iq.branches.len() <= r.branches,
            "{}: {} interval branches > {} reformulated branches",
            nq.name,
            iq.branches.len(),
            r.branches
        );
        snapshot.push_str(&format!("\n{}: {}\n", nq.name, nq.description));
        snapshot.push_str(&iq.explain(&ds.graph, &ds.dict));
    }

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
        "interval plans diverged from {}; if the change is intentional, \
         regenerate with WEBREASON_BLESS=1 and commit the diff",
        path.display()
    );
}
