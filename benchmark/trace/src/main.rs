//! `trace` — the traced run.
//!
//! Replays cycles of all five workloads in-process, with a span around
//! each call into a layer's public function, and times the layers the
//! replays cannot isolate (saturation, maintenance per update kind,
//! journal append and flush, snapshot publication, recovery) on their
//! own. Spans stay in memory and are written, one file per workload with
//! parent links and a self-time table, when that workload's replay is
//! over; the layer metrics go to `--out` as one JSON object. The socket
//! side of the picture (transport, restart) is `e2e --trace 1`'s job,
//! which runs this binary first.

mod replay;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bench_ops::json::Value;
use bench_ops::stats::median;
use bench_ops::traffic::{self, Class, CycleGen, Kind, Op, Shape, Update};
use durability::{FsyncPolicy, Journal, JournalRecord, ScriptedOp};
use rdf_model::{Dictionary, Graph, Term, Triple};
use webreason_core::durable::JOURNAL_FILE;
use webreason_core::{MaintenanceAlgorithm, ReasoningConfig, Store};
use workload::lubm::{self, LubmConfig};
use workload::Dataset;

use replay::{Layers, Strategy, Writer};
use spans::{Span, Tracer};

/// Cycles replayed per workload: the first runs on cold rewrite caches
/// (its counts are the exact ones), the rest give the medians samples.
const READ_CYCLES: usize = 5;
const WRITE_CYCLES: usize = 5;
const MIXED_CYCLES: usize = 10;

const COUNTING: ReasoningConfig = ReasoningConfig::Saturation(MaintenanceAlgorithm::Counting);

struct Args {
    seed: u64,
    out: PathBuf,
    spans_dir: PathBuf,
    scratch_dir: PathBuf,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        out: PathBuf::new(),
        spans_dir: PathBuf::new(),
        scratch_dir: PathBuf::new(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--out" => args.out = value()?.into(),
            "--spans-dir" => args.spans_dir = value()?.into(),
            "--scratch-dir" => args.scratch_dir = value()?.into(),
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if [&args.out, &args.spans_dir, &args.scratch_dir]
        .iter()
        .any(|p| p.as_os_str().is_empty())
    {
        return Err(
            "usage: trace --out <file> --spans-dir <dir> --scratch-dir <dir> [--seed N] [--quick]"
                .into(),
        );
    }
    Ok(args)
}

/// The metrics collected so far, in emission order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Value {
        Value::object(
            self.0
                .iter()
                .map(|(name, value, unit)| (name.clone(), Value::metric(*value, unit))),
        )
    }
}

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn micros<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e6
}

fn dataset(universities: usize, args: &Args) -> (Dataset, Shape) {
    let base = if args.quick {
        LubmConfig::tiny()
    } else {
        LubmConfig::scaled(universities)
    };
    let cfg = LubmConfig {
        seed: args.seed,
        ..base
    };
    let shape = Shape {
        ns_ub: lubm::NS_UB,
        ns_data: lubm::NS_DATA,
        universities: cfg.universities,
        departments: cfg.departments,
        faculty: cfg.faculty_per_department,
        courses: cfg.courses_per_department,
    };
    (lubm::generate(&cfg), shape)
}

fn store_over(ds: &Dataset, config: ReasoningConfig) -> Store {
    Store::from_parts(ds.dict.clone(), ds.vocab, ds.graph.clone(), config)
}

/// The spans whose sum is a request's attributed time: every layer call
/// of the real path except the one opaque call into `core`, which the
/// isolated pieces stand in for. (`sparql.plan` is left out: it repeats
/// work `sparql.eval` already contains.)
fn attributed(s: &Span) -> bool {
    !matches!(s.name, "op" | "layers" | "core.answer" | "sparql.plan")
}

/// What every replay reports about itself, keyed by workload: the
/// figures `e2e --trace 1` sets against the socket's.
fn per_workload(m: &mut Metrics, t: &Tracer, workload: &str) {
    m.put(
        format!("server.http.parse_us@{workload}"),
        t.median_us("server.http.parse", None),
        "us",
    );
    m.put(
        format!("server.serialise_us@{workload}"),
        t.median_us("server.serialise", None),
        "us",
    );
    for (class, label) in [(Class::Light, "light"), (Class::Heavy, "heavy")] {
        m.put(
            format!("trace.inproc_us.{label}@{workload}"),
            t.class_us(class, |s| s.name == "op"),
            "us",
        );
        m.put(
            format!("trace.attributed_us.{label}@{workload}"),
            t.class_us(class, attributed),
            "us",
        );
    }
}

fn by_class(m: &mut Metrics, t: &Tracer, span: &str, metric: &str) {
    m.put(
        format!("{metric}.light"),
        t.median_us(span, Some(Class::Light)),
        "us",
    );
    m.put(
        format!("{metric}.heavy"),
        t.median_us(span, Some(Class::Heavy)),
        "us",
    );
}

/// Inserts then deletes one fresh triple `reps` times, timing the
/// snapshot build that publishes each change.
fn publish_us(store: &mut Store, ns: &str, reps: usize) -> f64 {
    let [s, p, o] = ["bench/publish/s", "bench/publish/p", "bench/publish/o"]
        .map(|l| Term::iri(format!("{ns}{l}")));
    store.snapshot();
    let mut samples = Vec::new();
    for _ in 0..reps {
        store.insert_terms(&s, &p, &o);
        samples.push(micros(|| store.snapshot()));
        store.delete_terms(&s, &p, &o);
        samples.push(micros(|| store.snapshot()));
    }
    median(&samples)
}

/// `rdfs.maintain_us.*`: the write cycle's updates applied to a store
/// with no journal and no publication, so only maintenance is timed.
fn maintenance(m: &mut Metrics, store: &mut Store, gen: &mut CycleGen, cycles: usize) {
    let mut samples: [Vec<f64>; 5] = Default::default();
    const NAMES: [&str; 5] = [
        "instance_insert",
        "instance_delete",
        "batch10",
        "schema_insert",
        "schema_delete",
    ];
    for _ in 0..cycles {
        for op in gen.next_cycle() {
            let Op::Update(Update {
                script,
                lines,
                insert,
                ..
            }) = op
            else {
                unreachable!("write cycles hold updates only")
            };
            let terms: Vec<[Term; 3]> = webreason_server::proto::decode_update_body(&script)
                .expect("benchmark scripts decode")
                .into_iter()
                .map(|op| match op {
                    webreason_core::ScriptOp::Insert(t) | webreason_core::ScriptOp::Delete(t) => t,
                })
                .collect();
            let schema = script.contains("rdf-schema#");
            let kind = match (lines, schema, insert) {
                (1, false, true) => 0,
                (1, false, false) => 1,
                (1, true, true) => 3,
                (1, true, false) => 4,
                (_, _, true) => 2,
                // The batch delete restores the graph; it is not reported.
                (_, _, false) => usize::MAX,
            };
            let us = match (lines, insert) {
                (1, true) => {
                    micros(|| store.insert_terms(&terms[0][0], &terms[0][1], &terms[0][2]))
                }
                (1, false) => {
                    micros(|| store.delete_terms(&terms[0][0], &terms[0][1], &terms[0][2]))
                }
                (_, true) => {
                    // `load_ntriples` is parse + `insert_batch`; parsing
                    // ten lines is microseconds against the batch.
                    let ntriples = script.replace("insert ", "");
                    micros(|| {
                        store
                            .load_ntriples(&ntriples)
                            .expect("the script's triples parse")
                    })
                }
                (_, false) => {
                    let triples: Vec<Triple> = {
                        let dict = store.dictionary();
                        let id = |t: &Term| {
                            dict.get_id(t)
                                .expect("the batch's terms were interned by its insert")
                        };
                        terms
                            .iter()
                            .map(|[s, p, o]| Triple::new(id(s), id(p), id(o)))
                            .collect()
                    };
                    micros(|| store.delete_batch(&triples))
                }
            };
            if kind < samples.len() {
                samples[kind].push(us);
            }
        }
    }
    for (name, s) in NAMES.iter().zip(&samples) {
        m.put(format!("rdfs.maintain_us.{name}"), median(s), "us");
    }
}

/// `durability.append_us` / `durability.fsync_us.disk`: single-triple
/// script records appended to a scratch journal, each flushed on its own.
fn journal_probe(m: &mut Metrics, dir: &Path) {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let path = dir.join("probe.wal");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path, FsyncPolicy::Always).expect("scratch journal opens");
    let mut dict = Dictionary::new();
    let id = dict.encode_iri("http://bench/probe");
    let record = JournalRecord::UpdateScript {
        new_terms: Vec::new(),
        ops: vec![ScriptedOp::Insert(Triple::new(id, id, id))],
    };
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        append.push(micros(|| journal.append_deferred(&record).expect("append")));
        sync.push(micros(|| journal.sync_group().expect("sync")));
    }
    m.put("durability.append_us", median(&append), "us");
    m.put("durability.fsync_us.disk", median(&sync), "us");
}

fn run(args: &Args) -> Result<(), String> {
    for dir in [&args.spans_dir, &args.scratch_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut m = Metrics::default();
    let spans_file = |w: &str| args.spans_dir.join(format!("spans-{w}.json"));
    let write_spans = |t: &Tracer, w: &str| {
        t.write(&spans_file(w), w)
            .map_err(|e| format!("{}: {e}", spans_file(w).display()))
    };

    // ---- the large dataset: saturation, load, parse, the three read paths
    let (big, big_shape) = dataset(4, args);
    let big_text = rdf_io::write_ntriples(&big.graph, &big.dict);
    m.put(
        "rdfs.saturate_s",
        secs(|| {
            std::hint::black_box(rdfs::saturate(&big.graph, &big.vocab));
        }),
        "s",
    );
    m.put(
        "core.load_s",
        secs(|| {
            let mut store = Store::new(COUNTING);
            store
                .load_ntriples(&big_text)
                .expect("generated data loads");
            std::hint::black_box(store.snapshot());
        }),
        "s",
    );
    let parse_s = secs(|| {
        let (mut dict, mut graph) = (Dictionary::new(), Graph::new());
        rdf_io::parse_ntriples(&big_text, &mut dict, &mut graph).expect("generated data parses");
    });
    m.put(
        "rdf_io.parse_mb_per_s",
        big_text.len() as f64 / 1e6 / parse_s,
        "MB/s",
    );

    let mut rows_per_cycle = Vec::new();
    for (name, strategy, config) in [
        ("read_sat", Strategy::Saturation, COUNTING),
        (
            "read_ref",
            Strategy::Reformulation,
            ReasoningConfig::Reformulation,
        ),
        ("read_int", Strategy::Interval, ReasoningConfig::Interval),
    ] {
        let mut store = store_over(&big, config);
        let reader = store.reader();
        let mut layers = Layers::new(strategy, big.vocab, &big.graph);
        let mut t = Tracer::new();
        let mut gen = CycleGen::new(Kind::Read, big_shape, args.seed);
        replay::read_workload(&mut t, &reader, &mut layers, &mut gen, READ_CYCLES);
        write_spans(&t, name)?;
        per_workload(&mut m, &t, name);
        let c = layers.counts;
        rows_per_cycle.push(c.rows);
        match strategy {
            Strategy::Saturation => {
                m.put("sparql.parse_us", t.median_us("sparql.parse", None), "us");
                m.put("sparql.plan_us", t.median_us("sparql.plan", None), "us");
                by_class(&mut m, &t, "sparql.eval", "sparql.eval_us");
                m.put(
                    "core.publish_us.lubm4",
                    publish_us(&mut store, lubm::NS_DATA, 5),
                    "us",
                );
                let snapshot = store.snapshot();
                let saturated = snapshot.view_graph().expect("saturation exposes G∞");
                let clones: Vec<f64> = (0..3).map(|_| micros(|| saturated.clone()) / 1e3).collect();
                m.put("rdf_model.graph_clone_ms.lubm4", median(&clones), "ms");
            }
            Strategy::Reformulation => {
                by_class(&mut m, &t, "sparql.union_eval", "sparql.union_eval_us");
                m.put(
                    "reformulation.rewrite_us",
                    t.median_us("reformulation.rewrite", None),
                    "us",
                );
                m.put(
                    "reformulation.branches_per_cycle",
                    c.rewritten_branches as f64,
                    "count",
                );
                m.put(
                    "sparql.union.branches_per_cycle",
                    c.union_branches as f64,
                    "count",
                );
                let probes = (c.scan_cache_hits + c.scan_cache_misses).max(1);
                m.put(
                    "sparql.union.scan_cache_hit_ratio",
                    c.scan_cache_hits as f64 / probes as f64,
                    "ratio",
                );
            }
            Strategy::Interval => {
                by_class(&mut m, &t, "sparql.range_eval", "sparql.range_eval_us");
                m.put(
                    "reformulation.interval_rewrite_us",
                    t.median_us("reformulation.interval_rewrite", None),
                    "us",
                );
                m.put(
                    "sparql.range.scans_per_cycle",
                    c.range_scans as f64,
                    "count",
                );
            }
        }
    }
    if rows_per_cycle.iter().any(|&r| r != rows_per_cycle[0]) {
        return Err(format!(
            "the three strategies returned different row totals: {rows_per_cycle:?}"
        ));
    }
    m.put("sparql.rows_per_cycle", rows_per_cycle[0] as f64, "count");
    drop(big);

    // ---- the small dataset: the write path
    let (small, small_shape) = dataset(1, args);
    let small_text = rdf_io::write_ntriples(&small.graph, &small.dict);

    let write_dir = args.scratch_dir.join("write_sat");
    let mut writer = Writer::create(&write_dir, COUNTING, &small_text);
    let mut t = Tracer::new();
    let mut gen = CycleGen::new(Kind::Write, small_shape, args.seed);
    let journal = write_dir.join(JOURNAL_FILE);
    let bytes = replay::write_workload(&mut t, &mut writer, &mut gen, WRITE_CYCLES, &journal);
    write_spans(&t, "write_sat")?;
    per_workload(&mut m, &t, "write_sat");
    m.put(
        "server.proto.decode_us",
        t.median_us("server.proto.decode", None),
        "us",
    );
    m.put(
        "core.snapshot_drop_us",
        t.median_us("core.snapshot_drop", None),
        "us",
    );
    m.put("durability.bytes_per_cycle", bytes as f64, "B");
    drop(writer);
    m.put(
        "durability.replay_s",
        secs(|| {
            std::hint::black_box(
                Journal::replay(&journal).expect("the journal just written replays"),
            );
        }),
        "s",
    );
    m.put(
        "core.recover_s",
        secs(|| {
            std::hint::black_box(
                Store::recover(&write_dir).expect("the store just written recovers"),
            );
        }),
        "s",
    );
    journal_probe(&mut m, &args.scratch_dir.join("journal-probe"));

    let mut plain = store_over(&small, COUNTING);
    let mut gen = CycleGen::new(Kind::Write, small_shape, args.seed);
    maintenance(&mut m, &mut plain, &mut gen, WRITE_CYCLES);
    m.put(
        "core.publish_us.lubm1",
        publish_us(&mut plain, lubm::NS_DATA, 5),
        "us",
    );
    drop(plain);

    // ---- the small dataset: updates under a live subscription
    let mixed_dir = args.scratch_dir.join("mixed_sub");
    let mut writer = Writer::create(&mixed_dir, ReasoningConfig::Reformulation, &small_text);
    let view = traffic::subscription_query(&small_shape);
    let start = Instant::now();
    let registered = writer
        .hub
        .subscribe(&writer.reader, &view, false, &obs::CancelToken::none())
        .map_err(|e| format!("subscribe: {e:?}"))?;
    m.put(
        "incremental.register_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    // The durable store interned the data afresh while loading it, so
    // the schema is read from its graph, not from the generator's.
    let mut layers = {
        let snapshot = writer.reader.snapshot();
        let graph = snapshot
            .view_graph()
            .expect("reformulation exposes the base graph");
        Layers::new(
            Strategy::Reformulation,
            *writer.store.store().vocab(),
            graph,
        )
    };
    let mut t = Tracer::new();
    let mut gen = CycleGen::new(Kind::Mixed, small_shape, args.seed);
    replay::mixed_workload(
        &mut t,
        &mut writer,
        &mut layers,
        &mut gen,
        MIXED_CYCLES,
        (registered.id, registered.epoch),
    );
    write_spans(&t, "mixed_sub")?;
    per_workload(&mut m, &t, "mixed_sub");
    m.put(
        "incremental.publish_us",
        t.median_us("incremental.publish", None),
        "us",
    );
    drop(writer);

    let _ = std::fs::remove_dir_all(&args.scratch_dir);
    std::fs::write(&args.out, m.to_json().to_string())
        .map_err(|e| format!("{}: {e}", args.out.display()))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace: {e}");
            ExitCode::from(1)
        }
    }
}
