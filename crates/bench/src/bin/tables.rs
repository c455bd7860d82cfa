//! Regenerates the evaluation tables (DESIGN.md §3): T-SAT, T-REF, T-QA,
//! A-ADVISOR, A-REF, T-INT, T-SOC, A-SERVE.
//!
//! ```sh
//! cargo run --release -p bench --bin tables            # all tables, small scale
//! cargo run --release -p bench --bin tables -- --table sat --scale default
//! ```

use bench::{
    assert_same_answers, emit_json, fmt_secs, lubm_workload, render_table, saturated, time, Scale,
};
use durability::FsyncPolicy;
use obs::CancelToken;
use rdf_model::Graph;
use rdfs::incremental::CountingMaintainer;
use rdfs::{saturate, saturate_naive, Schema};
use reformulation::{reformulate, reformulate_intervals};
use serde::Serialize;
use sparql::{evaluate, evaluate_interval, evaluate_union, try_execute, Executable, Query};
use std::num::NonZeroUsize;
use std::sync::Arc;
use webreason_core::advisor::{advise, Recommendation, UpdateMix, WorkloadMix};
use webreason_core::cost::{profile, CostProfile, MaintenanceCosts};
use workload::lubm::{generate, LubmConfig};
use workload::synth::{generate as synth_generate, SynthConfig};
use workload::Dataset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scale = match get("--scale") {
        None => Scale::Small,
        Some(s) => match Scale::parse(&s) {
            Some(scale) => scale,
            None => {
                eprintln!("error: unknown scale {s:?} (expected tiny|small|default|large)");
                std::process::exit(2);
            }
        },
    };
    let which = get("--table").unwrap_or_else(|| "all".to_owned());
    const TABLES: [&str; 8] = [
        "sat", "ref", "qa", "advisor", "aref", "interval", "soc", "serve",
    ];
    if which != "all" && !TABLES.contains(&which.as_str()) {
        eprintln!(
            "error: unknown table {which:?} (expected all|{})",
            TABLES.join("|")
        );
        std::process::exit(2);
    }

    let run = |name: &str| which == "all" || which == name;
    let mut reports_ok = true;
    if run("sat") {
        reports_ok &= table_sat();
    }
    if run("ref") {
        reports_ok &= table_ref(scale);
    }
    if run("qa") {
        reports_ok &= table_qa(scale);
    }
    if run("advisor") {
        table_advisor(scale);
    }
    if run("aref") {
        reports_ok &= table_aref(scale);
    }
    if run("interval") {
        reports_ok &= table_interval(scale);
    }
    if run("soc") {
        table_social();
    }
    if run("serve") {
        reports_ok &= table_aserve();
    }
    if !reports_ok {
        std::process::exit(1);
    }
}

/// T-SOC: the social-network workload (the §II-A example scaled) —
/// rdfs7-heavy where LUBM is rdfs9-heavy, contrasting the two saturation
/// profiles and the per-query winners on a different workload shape.
fn table_social() {
    use workload::social::{generate, queries, SocialConfig};

    println!("== T-SOC: social-network workload (the §II-A example, scaled) ==");
    let mut ds = generate(&SocialConfig::default());
    let named = queries(&mut ds);

    let sat = saturate_naive(&ds.graph, &ds.vocab);
    let fired = |r: &str| sat.stats.rule_firings.get(r).copied().unwrap_or(0);
    println!(
        "{} base → {} saturated (×{:.2}); rule mix: rdfs7 {} / rdfs9 {} / rdfs2 {} / rdfs3 {}\n",
        sat.stats.input_triples,
        sat.stats.output_triples,
        sat.stats.output_triples as f64 / sat.stats.input_triples as f64,
        fired("rdfs7"),
        fired("rdfs9"),
        fired("rdfs2"),
        fired("rdfs3"),
    );

    let schema = Schema::extract(&ds.graph, &ds.vocab);
    let mut rows = Vec::new();
    for nq in &named {
        let mut q = nq.query.clone();
        q.distinct = true;
        if q.aggregate.is_some() {
            continue; // aggregates are store-level; skip in the raw sweep
        }
        let r = reformulate(&q, &schema, &ds.vocab).expect("dialect ok");
        let (a, t_sat) = time(|| evaluate(&sat.graph, &q));
        let (b, t_ref) = time(|| evaluate(&ds.graph, &r.query));
        bench::assert_same_answers(&a, &b, nq.name);
        rows.push(vec![
            nq.name.to_owned(),
            a.len().to_string(),
            r.branches.to_string(),
            fmt_secs(t_sat),
            fmt_secs(t_ref),
            if t_sat <= t_ref {
                "saturation"
            } else {
                "reformulation"
            }
            .to_owned(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["query", "answers", "branches", "q(G∞)", "q_ref(G)", "winner"],
            &rows
        )
    );
    println!(
        "(contrast with T-QA: a property-lattice workload derives via rdfs7/rdfs2\n\
         where LUBM's class tree derives via rdfs9 — the RDF-fragment axis of §II-B)\n"
    );
}

/// The union-stress workload shared by A-REF and T-INT: LUBM Q1–Q10 plus
/// two subclass-heavy synthetic cases over a depth-4 × fanout-3 class
/// tree (121 classes) — the root type query (single-atom branches — pure
/// planning/merge stress, no sharing) and a join query
/// `?x <p> ?y . ?y a <root>` whose >100 branches all keep the selective
/// `?x <p> ?y` atom first, so the trie shares its scan.
struct UnionCases {
    /// `[0]` = LUBM, `[1]` = SYNTH, each with its extracted schema.
    datasets: Vec<(Dataset, Schema)>,
    /// `(name, dataset index, query)`.
    cases: Vec<(String, usize, Query)>,
}

fn union_stress_cases(scale: Scale) -> UnionCases {
    let (ds, qs) = lubm_workload(scale);
    let lubm_schema = Schema::extract(&ds.graph, &ds.vocab);
    let mut w = synth_generate(&SynthConfig {
        class_depth: 4,
        class_fanout: 3,
        individuals: 2_000,
        edges: 6_000,
        typings: 80_000,
        // No domain/range constraints: with them, a range inside the tree
        // lets core minimisation collapse `{?x p ?y . ?y a C}` branches to
        // `{?x p ?y}`, deflating the union these tables are stressing.
        domain_range_density: 0.0,
        ..Default::default()
    });
    let synth_schema = Schema::extract(&w.dataset.graph, &w.dataset.vocab);
    let root = w.root_class;
    let synth_root_q = w.type_query(root);
    let root_iri = w
        .dataset
        .dict
        .decode(root)
        .and_then(|t| t.as_iri())
        .expect("root class is an IRI")
        .to_owned();
    let p = w.top_properties[0];
    let p_iri = w
        .dataset
        .dict
        .decode(p)
        .and_then(|t| t.as_iri())
        .expect("property is an IRI")
        .to_owned();
    let synth_join_q = sparql::parse_query(
        &format!("SELECT ?x WHERE {{ ?x <{p_iri}> ?y . ?y a <{root_iri}> }}"),
        &mut w.dataset.dict,
    )
    .expect("join query parses");

    let mut cases: Vec<(String, usize, Query)> =
        qs.into_iter().map(|(name, q)| (name, 0, q)).collect();
    cases.push(("SYNTH-root".to_owned(), 1, synth_root_q));
    cases.push(("SYNTH-join".to_owned(), 1, synth_join_q));
    UnionCases {
        datasets: vec![(ds, lubm_schema), (w.dataset, synth_schema)],
        cases,
    }
}

/// A-REF: union-aware evaluation of reformulated queries — the per-branch
/// baseline vs the shared-prefix trie evaluator. The subclass-heavy synthetic query (a
/// depth-4 × fanout-3 class tree, >100 union branches) is the stress case
/// for the §II-D open issue of evaluating large reformulated unions.
fn table_aref(scale: Scale) -> bool {
    println!("== A-REF: union-aware evaluation of q_ref (sequential / shared) ==");
    const SAMPLES: usize = 3;

    // The union evaluator is instrumented; reset the registry so the
    // embedded snapshot covers exactly this table's evaluations.
    let reg = obs::global();
    reg.reset();

    #[derive(Serialize)]
    struct Row {
        query: String,
        branches: usize,
        sequential_s: f64,
        shared_s: f64,
        shared_prefix_scans: usize,
        /// Triples the shared walk matched, after the witness cut.
        matched: u64,
        answers: usize,
    }

    let UnionCases { datasets, cases } = union_stress_cases(scale);

    let mut report = Vec::new();
    let mut rows = Vec::new();
    for (name, di, q) in cases {
        let (data, schema) = &datasets[di];
        let r = reformulate(&q, schema, &data.vocab).expect("dialect ok");
        let g = &data.graph;

        let mut sequential_s = f64::INFINITY;
        let mut shared_s = f64::INFINITY;
        let mut stats = sparql::EvalStats::default();
        let mut answers = 0;
        for _ in 0..SAMPLES {
            let (base, secs) = time(|| evaluate(g, &r.query));
            sequential_s = sequential_s.min(secs);
            answers = base.len();
            let ((shared, s), secs) = time(|| evaluate_union(g, &r.query));
            shared_s = shared_s.min(secs);
            assert_same_answers(&base, &shared, &name);
            stats = s;
        }
        rows.push(vec![
            name.clone(),
            r.branches.to_string(),
            fmt_secs(sequential_s),
            fmt_secs(shared_s),
            stats.shared_prefix_scans().to_string(),
            stats.matched.to_string(),
            format!("{:.2}×", sequential_s / shared_s),
        ]);
        report.push(Row {
            query: name,
            branches: r.branches,
            sequential_s,
            shared_s,
            shared_prefix_scans: stats.shared_prefix_scans(),
            matched: stats.matched,
            answers,
        });
    }
    println!(
        "{}",
        render_table(
            &[
                "query",
                "branches",
                "sequential",
                "shared",
                "scans saved",
                "matched",
                "speedup",
            ],
            &rows
        )
    );
    println!(
        "\"sequential\" is the legacy per-branch evaluator (re-plans and re-scans\n\
         every branch); \"shared\" plans once and folds branches into a prefix\n\
         trie. Both are asserted to return the same answer set. \"matched\" is\n\
         the triples the shared walk matched.\n"
    );

    #[derive(Serialize)]
    struct ArefReport {
        rows: Vec<Row>,
        metrics: obs::MetricsSnapshot,
    }
    emit_json(
        "table_aref",
        &ArefReport {
            rows: report,
            metrics: reg.snapshot(),
        },
    )
}

/// T-INT: the interval (LiteMat-style) strategy against union
/// reformulation and saturation on the A-REF workload, plus the
/// strategy's own schema-update cost — rebuilding the interval dictionary
/// — next to full saturation (what a schema change costs each side).
fn table_interval(scale: Scale) -> bool {
    println!("== T-INT: interval encoding vs reformulation vs saturation ==");
    const SAMPLES: usize = 3;

    // The range evaluator is instrumented; reset the registry so the
    // embedded snapshot covers exactly this table's evaluations.
    let reg = obs::global();
    reg.reset();

    let UnionCases { datasets, cases } = union_stress_cases(scale);

    // Per dataset: the interval re-encode cost (the interval strategy's
    // analogue of a schema-update maintenance step) vs full saturation.
    #[derive(Serialize)]
    struct EncodeRow {
        dataset: String,
        encoded_terms: usize,
        fallback_terms: usize,
        reencode_s: f64,
        saturation_s: f64,
    }
    let mut encodings = Vec::new();
    let mut encode_report = Vec::new();
    let mut encode_rows = Vec::new();
    for (label, (ds, schema)) in ["LUBM", "SYNTH"].iter().zip(&datasets) {
        let mut reencode_s = f64::INFINITY;
        let mut idict = None;
        for _ in 0..SAMPLES {
            let (d, secs) = time(|| schema.interval_dict());
            reencode_s = reencode_s.min(secs);
            idict = Some(d);
        }
        let idict = Arc::new(idict.expect("at least one sample"));
        let (sat, saturation_s) = time(|| saturate(&ds.graph, &ds.vocab).graph);
        encode_rows.push(vec![
            (*label).to_owned(),
            idict.len().to_string(),
            idict.fallback_terms().to_string(),
            fmt_secs(reencode_s),
            fmt_secs(saturation_s),
        ]);
        encode_report.push(EncodeRow {
            dataset: (*label).to_owned(),
            encoded_terms: idict.len(),
            fallback_terms: idict.fallback_terms(),
            reencode_s,
            saturation_s,
        });
        encodings.push((idict, sat));
    }
    println!(
        "{}",
        render_table(
            &[
                "dataset",
                "encoded terms",
                "fallback terms",
                "re-encode",
                "saturation"
            ],
            &encode_rows
        )
    );

    #[derive(Serialize)]
    struct Row {
        query: String,
        union_branches: usize,
        interval_branches: usize,
        branches_collapsed: usize,
        collapsed_fraction: f64,
        range_scans: u64,
        saturated_s: f64,
        union_s: f64,
        interval_s: f64,
        speedup_vs_union: f64,
        answers: usize,
    }

    let mut report = Vec::new();
    let mut rows = Vec::new();
    for (name, di, q) in &cases {
        let (ds, schema) = &datasets[*di];
        let (idict, sat) = &encodings[*di];
        let r = reformulate(q, schema, &ds.vocab).expect("dialect ok");
        let iq = reformulate_intervals(q, schema, &ds.vocab, idict.clone()).expect("dialect ok");
        let mut distinct_q = q.clone();
        distinct_q.distinct = true;

        let mut union_s = f64::INFINITY;
        let mut interval_s = f64::INFINITY;
        let mut saturated_s = f64::INFINITY;
        let mut stats = sparql::EvalStats::default();
        let mut answers = 0;
        for _ in 0..SAMPLES {
            let ((u_sols, _), secs) = time(|| evaluate_union(&ds.graph, &r.query));
            union_s = union_s.min(secs);
            let ((i_sols, s), secs) = time(|| evaluate_interval(&ds.graph, &iq));
            interval_s = interval_s.min(secs);
            let (s_sols, secs) = time(|| evaluate(sat, &distinct_q));
            saturated_s = saturated_s.min(secs);
            assert_same_answers(&u_sols, &i_sols, name);
            assert_same_answers(&s_sols, &i_sols, name);
            answers = i_sols.len();
            stats = s;
        }

        let collapsed_fraction = if iq.union_branches > 0 {
            iq.branches_collapsed as f64 / iq.union_branches as f64
        } else {
            0.0
        };
        // The headline acceptance bar: on the subclass-heavy synthetic
        // cases, interval encoding must replace ≥90% of the hierarchy
        // union branches with range scans.
        if name.starts_with("SYNTH") {
            assert!(
                collapsed_fraction >= 0.9,
                "{name}: only {:.0}% of {} union branches collapsed",
                collapsed_fraction * 100.0,
                iq.union_branches,
            );
        }
        rows.push(vec![
            name.clone(),
            iq.union_branches.to_string(),
            iq.branches.len().to_string(),
            format!(
                "{} ({:.0}%)",
                iq.branches_collapsed,
                collapsed_fraction * 100.0
            ),
            stats.range_scans.to_string(),
            fmt_secs(saturated_s),
            fmt_secs(union_s),
            fmt_secs(interval_s),
            format!("{:.2}×", union_s / interval_s),
        ]);
        report.push(Row {
            query: name.clone(),
            union_branches: iq.union_branches,
            interval_branches: iq.branches.len(),
            branches_collapsed: iq.branches_collapsed,
            collapsed_fraction,
            range_scans: stats.range_scans,
            saturated_s,
            union_s,
            interval_s,
            speedup_vs_union: union_s / interval_s,
            answers,
        });
    }
    println!(
        "{}",
        render_table(
            &[
                "query",
                "union br.",
                "interval br.",
                "collapsed",
                "range scans",
                "saturated",
                "union",
                "interval",
                "speedup",
            ],
            &rows
        )
    );
    println!(
        "All three strategies are asserted to return the same answer set.\n\
         \"collapsed\" counts hierarchy union branches replaced by interval\n\
         range scans; \"speedup\" is union / interval (best of {SAMPLES}).\n"
    );

    #[derive(Serialize)]
    struct IntervalReport {
        reencode: Vec<EncodeRow>,
        rows: Vec<Row>,
        metrics: obs::MetricsSnapshot,
    }
    emit_json(
        "table_interval",
        &IntervalReport {
            reencode: encode_report,
            rows: report,
            metrics: reg.snapshot(),
        },
    )
}

/// A-SERVE: closed-loop throughput of the embedded query server over real
/// sockets — concurrent readers against one live update client, exercising
/// the snapshot-publication path (DESIGN.md §6) end to end. Readers never
/// block on the writer; throughput should scale with the reader count.
fn table_aserve() -> bool {
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use webreason_core::{DurableStore, ReasoningConfig};
    use webreason_server::{Server, ServerConfig};

    println!("== A-SERVE: embedded server, closed-loop socket clients ==");
    const QUERY: &str = "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Mammal }";
    const CELL_MILLIS: u64 = 400;

    fn post(addr: SocketAddr, path: &str, body: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout sets");
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("request writes");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("response reads");
        text.split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line")
    }

    #[derive(Serialize)]
    struct Row {
        readers: usize,
        queries: u64,
        queries_per_s: f64,
        mean_query_ms: f64,
        updates_applied: u64,
        updates_per_s: f64,
        updates_rejected: u64,
    }

    // Seed: a small zoo — a subclass chain plus typed individuals, so every
    // query pays for real entailed answers rather than an empty scan.
    let mut seed = String::from(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:Cat rdfs:subClassOf ex:Mammal .\n\
         ex:Dog rdfs:subClassOf ex:Mammal .\n",
    );
    for i in 0..200 {
        let class = if i % 2 == 0 { "Cat" } else { "Dog" };
        seed.push_str(&format!("ex:ind{i} a ex:{class} .\n"));
    }

    let mut rows = Vec::new();
    let mut report = Vec::new();
    for readers in [1usize, 2, 4] {
        let dir =
            std::env::temp_dir().join(format!("webreason-aserve-{readers}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableStore::create(
            &dir,
            ReasoningConfig::Saturation(webreason_core::MaintenanceAlgorithm::Counting),
            NonZeroUsize::MIN,
            FsyncPolicy::Never,
        )
        .expect("store creates");
        store.load_turtle(&seed).expect("seed loads");
        let server = Server::start(
            store,
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: readers + 1,
                ..Default::default()
            },
        )
        .expect("server boots");
        let addr = server.local_addr();

        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let query_threads: Vec<_> = (0..readers)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let (mut n, mut total_us) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        assert_eq!(post(addr, "/query", QUERY), 200);
                        total_us += t.elapsed().as_micros() as u64;
                        n += 1;
                    }
                    (n, total_us)
                })
            })
            .collect();
        let update_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (mut applied, mut rejected, mut i) = (0u64, 0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let body = if i % 2 == 0 {
                        format!(
                            "insert <http://ex/live{}> \
                             <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                             <http://ex/Cat> .\n",
                            i / 2
                        )
                    } else {
                        format!(
                            "delete <http://ex/live{}> \
                             <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                             <http://ex/Cat> .\n",
                            i / 2
                        )
                    };
                    match post(addr, "/update", &body) {
                        200 => applied += 1,
                        429 => rejected += 1,
                        other => panic!("update client: unexpected {other}"),
                    }
                    i += 1;
                }
                (applied, rejected)
            })
        };

        std::thread::sleep(Duration::from_millis(CELL_MILLIS));
        stop.store(true, Ordering::Relaxed);
        let mut queries = 0u64;
        let mut total_us = 0u64;
        for h in query_threads {
            let (n, us) = h.join().expect("query client");
            queries += n;
            total_us += us;
        }
        let (updates_applied, updates_rejected) = update_thread.join().expect("update client");
        let elapsed = started.elapsed().as_secs_f64();
        drop(server.shutdown());
        let _ = std::fs::remove_dir_all(&dir);

        let queries_per_s = queries as f64 / elapsed;
        let updates_per_s = updates_applied as f64 / elapsed;
        let mean_query_ms = total_us as f64 / 1_000.0 / queries.max(1) as f64;
        rows.push(vec![
            readers.to_string(),
            queries.to_string(),
            format!("{queries_per_s:.0}"),
            format!("{mean_query_ms:.2}"),
            updates_applied.to_string(),
            format!("{updates_per_s:.0}"),
            updates_rejected.to_string(),
        ]);
        report.push(Row {
            readers,
            queries,
            queries_per_s,
            mean_query_ms,
            updates_applied,
            updates_per_s,
            updates_rejected,
        });
    }
    println!(
        "{}",
        render_table(
            &[
                "readers",
                "queries",
                "queries/s",
                "mean query (ms)",
                "updates applied",
                "updates/s",
                "updates 429d",
            ],
            &rows
        )
    );
    println!(
        "Closed-loop clients over real sockets against a seeded store (402\n\
         base triples), one continuous update client alongside; each cell\n\
         runs {CELL_MILLIS} ms. Readers answer from published snapshots and\n\
         never wait on the writer.\n"
    );
    emit_json("table_aserve", &report)
}

/// `f`'s result and the median seconds of five timed runs, after one
/// untimed warm-up run.
fn median_time<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    f();
    let mut runs: Vec<(R, f64)> = (0..5).map(|_| time(&mut f)).collect();
    runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    runs.swap_remove(2)
}

/// T-SAT: saturation time and size blow-up across dataset scales, for the
/// specialised single-pass engine vs the naive fix-point (the
/// engine-specialisation ablation).
fn table_sat() -> bool {
    println!("== T-SAT: graph saturation across scales (median of 5 after a warm-up) ==");
    #[derive(Serialize)]
    struct Row {
        universities: usize,
        base: usize,
        saturated: usize,
        blowup: f64,
        specialised_s: f64,
        naive_s: f64,
    }
    let mut report = Vec::new();
    let mut rows = Vec::new();
    for unis in [1usize] {
        for cfg in [
            LubmConfig::tiny(),
            Scale::Small.config(),
            LubmConfig {
                universities: unis,
                ..LubmConfig::default()
            },
        ] {
            let ds = generate(&cfg);
            let (fast, specialised_s) = median_time(|| saturate(&ds.graph, &ds.vocab));
            let (naive, naive_s) = median_time(|| saturate_naive(&ds.graph, &ds.vocab));
            assert_eq!(fast.graph, naive.graph, "engines must agree");
            let blowup = fast.graph.len() as f64 / ds.graph.len() as f64;
            rows.push(vec![
                ds.graph.len().to_string(),
                fast.graph.len().to_string(),
                format!("{blowup:.2}×"),
                fmt_secs(specialised_s),
                fmt_secs(naive_s),
                format!("{:.1}×", naive_s / specialised_s),
            ]);
            report.push(Row {
                universities: cfg.universities,
                base: ds.graph.len(),
                saturated: fast.graph.len(),
                blowup,
                specialised_s,
                naive_s,
            });
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "base |G|",
                "|G∞|",
                "blow-up",
                "specialised",
                "naive",
                "naive/spec"
            ],
            &rows
        )
    );
    emit_json("table_sat", &report)
}

/// T-REF: reformulated query size (union branches) and reformulation time,
/// on LUBM Q1–Q10 and on a synthetic class-tree depth sweep.
fn table_ref(scale: Scale) -> bool {
    println!("== T-REF: reformulation size and time (LUBM) ==");
    let (ds, qs) = lubm_workload(scale);
    let schema = Schema::extract(&ds.graph, &ds.vocab);
    #[derive(Serialize)]
    struct Row {
        query: String,
        atoms: usize,
        raw_branches: usize,
        branches: usize,
        total_atoms: usize,
        rewrite_steps: usize,
        seconds: f64,
    }
    let mut report = Vec::new();
    let mut rows = Vec::new();
    for (name, q) in &qs {
        let raw =
            reformulation::reformulate_with(q, &schema, &ds.vocab, reformulation::Options::raw())
                .expect("dialect ok");
        let (r, secs) = time(|| reformulate(q, &schema, &ds.vocab).expect("dialect ok"));
        rows.push(vec![
            name.clone(),
            q.pattern_count().to_string(),
            raw.branches.to_string(),
            r.branches.to_string(),
            r.query.pattern_count().to_string(),
            r.rewrite_steps.to_string(),
            fmt_secs(secs),
        ]);
        report.push(Row {
            query: name.clone(),
            atoms: q.pattern_count(),
            raw_branches: raw.branches,
            branches: r.branches,
            total_atoms: r.query.pattern_count(),
            rewrite_steps: r.rewrite_steps,
            seconds: secs,
        });
    }
    println!(
        "{}",
        render_table(
            &[
                "query",
                "atoms",
                "raw branches",
                "pruned branches",
                "total atoms",
                "rewrites",
                "time"
            ],
            &rows
        )
    );
    println!(
        "(\"pruned\" = after core minimisation + subsumption pruning — the\n\
         §II-D open issue of evaluating large reformulated queries)\n"
    );

    println!("== T-REF: branches vs class-tree shape (synthetic sweep) ==");
    let mut rows = Vec::new();
    for (depth, fanout) in [(1usize, 2usize), (2, 2), (3, 2), (2, 4), (3, 3), (4, 2)] {
        let mut w = synth_generate(&SynthConfig {
            class_depth: depth,
            class_fanout: fanout,
            individuals: 10,
            edges: 20,
            typings: 10,
            domain_range_density: 0.3,
            ..Default::default()
        });
        let schema = Schema::extract(&w.dataset.graph, &w.dataset.vocab);
        let root = w.root_class;
        let q = w.type_query(root);
        let (r, secs) = time(|| reformulate(&q, &schema, &w.dataset.vocab).unwrap());
        rows.push(vec![
            format!("depth {depth} × fanout {fanout}"),
            w.classes.len().to_string(),
            r.branches.to_string(),
            fmt_secs(secs),
        ]);
    }
    println!(
        "{}",
        render_table(&["tree", "classes", "branches(root query)", "time"], &rows)
    );
    emit_json("table_ref", &report)
}

/// T-QA: per-query evaluation time — q(G∞) vs q_ref(G), both through the
/// evaluator a store answers with — with the winner column ("who wins,
/// where").
fn table_qa(scale: Scale) -> bool {
    println!("== T-QA: query answering, saturation vs reformulation ==");
    let (ds, qs) = lubm_workload(scale);
    let sat = saturated(&ds);
    let schema = Schema::extract(&ds.graph, &ds.vocab);
    #[derive(Serialize)]
    struct Row {
        query: String,
        answers: usize,
        eval_saturated_s: f64,
        eval_reformulated_s: f64,
        winner: String,
    }
    let none = CancelToken::none();
    let run = |g: &Graph, exe: Executable| {
        try_execute(g, exe, &none)
            .expect("an uncancellable run answers")
            .0
    };
    let mut report = Vec::new();
    let mut rows = Vec::new();
    for (name, q) in &qs {
        let r = reformulate(q, &schema, &ds.vocab).expect("dialect ok");
        // best-of-3 to suppress noise
        let mut t_sat = f64::INFINITY;
        let mut t_ref = f64::INFINITY;
        let mut answers = 0;
        for _ in 0..3 {
            let (a, s) = time(|| run(&sat, Executable::Plain(q)));
            t_sat = t_sat.min(s);
            answers = a.len();
            let (b, s) = time(|| run(&ds.graph, Executable::Union(&r.query)));
            t_ref = t_ref.min(s);
            bench::assert_same_answers(&a, &b, name);
        }
        let winner = if t_sat <= t_ref {
            "saturation"
        } else {
            "reformulation"
        };
        rows.push(vec![
            name.clone(),
            answers.to_string(),
            fmt_secs(t_sat),
            fmt_secs(t_ref),
            winner.to_string(),
        ]);
        report.push(Row {
            query: name.clone(),
            answers,
            eval_saturated_s: t_sat,
            eval_reformulated_s: t_ref,
            winner: winner.to_string(),
        });
    }
    println!(
        "{}",
        render_table(&["query", "answers", "q(G∞)", "q_ref(G)", "winner"], &rows)
    );
    emit_json("table_qa", &report)
}

/// A-ADVISOR: recommendation across a (query-rate × update-mix) grid.
fn table_advisor(scale: Scale) {
    println!("== A-ADVISOR: automatic technique choice across workload mixes ==");
    let (ds, qs) = lubm_workload(scale);
    let mut counting = CountingMaintainer::new(ds.graph.clone(), ds.vocab);
    let prof_inc = profile(&mut counting, &ds.vocab, &qs, 3);
    // Recomputation, the conservative upper bound on maintenance (what a
    // system without incremental maintenance pays), re-saturates `G` on
    // every update: each update kind costs one saturation.
    let s = prof_inc.saturation_time;
    let prof = CostProfile {
        maintenance: MaintenanceCosts {
            instance_insert: s,
            instance_delete: s,
            schema_insert: s,
            schema_delete: s,
        },
        ..prof_inc.clone()
    };

    let mut rows = Vec::new();
    for (mix_name, updates) in [
        ("append-mostly", UpdateMix::append_mostly()),
        ("schema-churn", UpdateMix::schema_churn()),
    ] {
        for k in [0.1, 1.0, 10.0, 100.0, 1000.0] {
            let w = WorkloadMix {
                queries_per_update: k,
                updates,
            };
            let rec = |p| match advise(p, &w).recommendation {
                Recommendation::Saturation => "saturation",
                Recommendation::Reformulation => "reformulation",
                Recommendation::Interval => "interval",
            };
            rows.push(vec![
                mix_name.to_owned(),
                format!("{k}"),
                rec(&prof).to_owned(),
                rec(&prof_inc).to_owned(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "update mix",
                "queries/update",
                "recommend (recompute maint.)",
                "recommend (counting maint.)"
            ],
            &rows
        )
    );
    println!(
        "With naive recomputation, reformulation wins until queries dominate;\n\
         incremental maintenance moves the crossover — the finer-grained analysis\n\
         the paper calls for.\n"
    );
}
