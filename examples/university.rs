//! University benchmark walk-through: generate a LUBM-style dataset, run
//! the ten-query workload under saturation, reformulation and the
//! interval (LiteMat) rewriting, assert the three answer sets agree, and
//! print a side-by-side cost table — the experiment class behind the
//! paper's Fig. 3.
//!
//! ```sh
//! cargo run --release --example university
//! ```

use std::time::Instant;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};
use workload::lubm::{generate, queries, LubmConfig};

fn main() {
    let cfg = LubmConfig {
        departments: 4,
        students_per_department: 60,
        ..LubmConfig::default()
    };
    println!(
        "generating LUBM-style data ({} university, {} departments)…",
        cfg.universities, cfg.departments
    );
    let mut ds = generate(&cfg);
    let named = queries(&mut ds);
    println!(
        "base graph: {} triples, {} dictionary terms\n",
        ds.graph.len(),
        ds.dict.len()
    );

    let start = Instant::now();
    let sat_store = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting),
    );
    let sat_setup = start.elapsed();
    let stats = sat_store.stats();
    println!(
        "saturation: {} -> {} triples in {:.1} ms (blow-up ×{:.2})\n",
        stats.base_triples,
        stats.saturated_triples.unwrap(),
        sat_setup.as_secs_f64() * 1e3,
        stats.saturated_triples.unwrap() as f64 / stats.base_triples as f64
    );

    let ref_store = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Reformulation,
    );
    let int_store = Store::from_parts(
        ds.dict.clone(),
        ds.vocab,
        ds.graph.clone(),
        ReasoningConfig::Interval,
    );

    println!(
        "{:<4} {:>8} {:>14} {:>14} {:>14}   description",
        "query", "answers", "q(G∞) ms", "q_ref(G) ms", "q_int(G) ms"
    );
    for nq in &named {
        let mut q = nq.query.clone();
        q.distinct = true;

        let t0 = Instant::now();
        let sat_answers = sat_store.answer(&q).unwrap();
        let sat_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let ref_answers = ref_store.answer(&q).unwrap();
        let ref_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let int_answers = int_store.answer(&q).unwrap();
        let int_ms = t0.elapsed().as_secs_f64() * 1e3;

        let want = sat_answers.as_set();
        assert_eq!(want, ref_answers.as_set(), "{}: q_ref(G) = q(G∞)", nq.name);
        assert_eq!(want, int_answers.as_set(), "{}: q_int(G) = q(G∞)", nq.name);
        println!(
            "{:<4} {:>8} {:>14.3} {:>14.3} {:>14.3}   {}",
            nq.name,
            sat_answers.len(),
            sat_ms,
            ref_ms,
            int_ms,
            nq.description
        );
    }
    println!(
        "\nAll three strategies return identical answer sets; their costs differ —\n\
         \"the most appropriate technique to a given setting should be chosen\n\
         with an eye on the performance\" (§II-B). See `cargo run -p bench --bin fig3`."
    );
}
