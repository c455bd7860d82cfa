//! `e2e` — the black-box serving benchmark.
//!
//! Spawns `webreason serve` as shipped, loads a seeded LUBM dataset over
//! `POST /update`, and drives one closed-loop client on one keep-alive
//! connection. The only product code linked is the dataset generator, so
//! refactors of the engine cannot break the measurement.
//!
//! A run is: set-up (several times; the median is `setup_s`), and on the
//! last set-up's server ten timed passes of whole cycles. Every timing
//! reported is the median over the passes; the per-pass values and their
//! quartile spread are printed beside it.

mod affinity;
mod http;
mod oracle;
mod run;
mod server;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use bench_ops::json::{self, Value};
use bench_ops::stats::{fast_decile, median, quartile_spread};
use bench_ops::traffic::{self, Kind, Shape, Spec};
use workload::lubm::{self, LubmConfig};

use oracle::Oracle;
use run::{checksum, Cycle, Dataset, Limit, Pass, Session};
use server::{on_tmpfs, ServerConfig, SERVER_THREADS};

/// The contract file: metric names, units and bounds live there once.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");
/// Answers pinned at the default seed.
const EXPECTED_JSON: &str = include_str!("../../expected.json");
const DEFAULT_SEED: u64 = 42;

/// Timed passes per run. A pass is the unit of CPU alternation; the
/// samples every timing is computed from are the passes' cycles.
const PASSES: usize = 20;
/// Cycles of the untimed warm-up that ends each set-up: a fixed amount
/// of work, so `setup_s` times work and not a clock.
const WARM_UP_CYCLES: usize = 2;
/// Set-ups per run; `setup_s` is their median. Always at least the
/// first number; more, up to the second, while they are cheap (the small
/// datasets set up in under a second, and a median of three of those is
/// at the mercy of one disturbed second).
const SETUPS: (usize, usize) = (3, 7);
const SETUP_BUDGET: Duration = Duration::from_secs(6);
/// Journal flush policy of the server under test, stated in the output.
const FSYNC: &str = "always";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    server: PathBuf,
    tracer: PathBuf,
    work_dir: PathBuf,
}

fn usage() -> String {
    "usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
     --server <webreason binary> --tracer <trace binary> --work-dir <dir> \
     [--quick] [--selfcheck]"
        .to_owned()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
        selfcheck: false,
        server: PathBuf::new(),
        tracer: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--server" => args.server = value()?.into(),
            "--tracer" => args.tracer = value()?.into(),
            "--work-dir" => args.work_dir = value()?.into(),
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    if args.server.as_os_str().is_empty() || args.work_dir.as_os_str().is_empty() {
        return Err(format!("--server and --work-dir are required\n{}", usage()));
    }
    if args.trace && args.tracer.as_os_str().is_empty() {
        return Err("--trace 1 needs --tracer".into());
    }
    Ok(args)
}

/// A metric as `BENCHMARK.json` declares it.
struct MetricDecl {
    name: String,
    unit: String,
    /// End-to-end metrics only.
    bound: Option<f64>,
    higher_is_better: bool,
}

fn declared(section: &str) -> Vec<MetricDecl> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| MetricDecl {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_owned(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .expect("metric unit")
                .to_owned(),
            bound: m.get("bound").and_then(Value::as_f64),
            higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
        })
        .collect()
}

fn lubm_config(spec: &Spec, args: &Args) -> LubmConfig {
    let base = if args.quick {
        LubmConfig::tiny()
    } else {
        LubmConfig::scaled(spec.universities)
    };
    LubmConfig {
        seed: args.seed,
        ..base
    }
}

fn shape_of(cfg: &LubmConfig) -> Shape {
    Shape {
        ns_ub: lubm::NS_UB,
        ns_data: lubm::NS_DATA,
        universities: cfg.universities,
        departments: cfg.departments,
        faculty: cfg.faculty_per_department,
        courses: cfg.courses_per_department,
    }
}

/// What one run measured, before it is printed.
struct RunResult {
    setups: Vec<f64>,
    passes: Vec<Pass>,
    rss_peak_mb: f64,
    attempted: u64,
    failed: u64,
    /// Checks that are not per-op: end state, pinned answers.
    problems: Vec<String>,
    /// Checksum of the first warm-up cycle's row counts (read workloads).
    read_checksum: Option<u64>,
    /// Triples the server answers with once the run is over.
    end_triples: Option<u64>,
}

/// The per-cycle figure behind an end-to-end metric, if it has one.
fn cycle_figure(metric: &str) -> Option<fn(&Cycle) -> f64> {
    match metric {
        "ops_per_s" => Some(|c| c.ops_per_s),
        "light_p50_ms" => Some(|c| c.light_ms),
        "heavy_p50_ms" => Some(|c| c.heavy_ms),
        _ => None,
    }
}

/// Every cycle of `passes`, as `figure` sees it.
fn cycle_samples(passes: &[Pass], figure: fn(&Cycle) -> f64) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.cycles.iter().map(figure))
        .collect()
}

impl RunResult {
    /// The samples behind an end-to-end metric: cycles, or set-ups.
    fn samples(&self, metric: &str) -> Vec<f64> {
        match (cycle_figure(metric), metric) {
            (Some(figure), _) => cycle_samples(&self.passes, figure),
            (None, "setup_s") => self.setups.clone(),
            (None, "rss_peak_mb") => vec![self.rss_peak_mb],
            (None, other) => panic!(
                "BENCHMARK.json names an end-to-end metric this binary does not measure: {other}"
            ),
        }
    }

    /// The value reported for a metric: the fast decile of the cycles
    /// (see [`fast_decile`]), the median of the set-ups.
    fn value(&self, m: &MetricDecl) -> f64 {
        let samples = self.samples(&m.name);
        match cycle_figure(&m.name) {
            Some(_) => fast_decile(&samples, m.higher_is_better),
            None => median(&samples),
        }
    }
}

struct Harness<'a> {
    args: &'a Args,
    spec: Spec,
    cfg: ServerConfig,
    data: Dataset,
    oracle: Option<Oracle>,
    run_dir: PathBuf,
    cpus: Vec<usize>,
}

impl<'a> Harness<'a> {
    fn new(args: &'a Args, spec: Spec) -> Result<Harness<'a>, String> {
        let lubm_cfg = lubm_config(&spec, args);
        let generated = lubm::generate(&lubm_cfg);
        let ntriples = rdf_io::write_ntriples(&generated.graph, &generated.dict);
        let shape = shape_of(&lubm_cfg);
        // Updates are checked through their replies and the end state;
        // queries need the independent answer.
        let oracle = match spec.kind {
            Kind::Write => None,
            Kind::Read | Kind::Mixed => Some(Oracle::new(&ntriples, lubm::NS_UB)?),
        };
        let run_dir = args
            .work_dir
            .join(format!("{}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
        Ok(Harness {
            args,
            spec,
            cfg: ServerConfig {
                binary: args.server.clone(),
                strategy: spec.strategy,
                fsync: FSYNC,
            },
            data: Dataset::from_ntriples(&ntriples, shape),
            oracle,
            run_dir,
            cpus: affinity::allowed_cpus(),
        })
    }

    fn pass_target(&self) -> Limit {
        Limit::Time(Duration::from_secs_f64(self.args.seconds / PASSES as f64))
    }

    /// The CPU pass (or set-up) `n` runs on: they alternate.
    fn cpu(&self, n: usize) -> usize {
        self.cpus[n % self.cpus.len()]
    }

    /// Spawn → dataset loaded → warm-up pass done. Returns the session,
    /// the seconds it took and the warm-up pass.
    fn set_up(&mut self, n: usize) -> Result<(Session, f64, Pass), String> {
        let journal = self.run_dir.join(format!("journal-{n}"));
        let cpu = self.cpu(n);
        let start = Instant::now();
        let mut session = Session::start(
            &self.cfg,
            &journal,
            &self.spec,
            &self.data,
            self.args.seed,
            cpu,
        )
        .map_err(|e| format!("set-up: {e}"))?;
        let warm_up = session
            .pass(Limit::Cycles(WARM_UP_CYCLES), cpu, &mut self.oracle)
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok((session, start.elapsed().as_secs_f64(), warm_up))
    }

    /// `quick`: one set-up, one pass.
    fn run(&mut self, quick: bool) -> Result<RunResult, String> {
        let (setups, passes) = if quick { ((1, 1), 1) } else { (SETUPS, PASSES) };
        let mut setup_s: Vec<f64> = Vec::new();
        let mut last = None;
        while setup_s.len() < setups.0
            || (setup_s.len() < setups.1
                && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
        {
            let n = setup_s.len();
            // The previous server is gone (and its journal with it)
            // before the next one starts: set-ups never overlap.
            if let Some((session, _)) = last.take() {
                drop::<Session>(session);
                let _ = std::fs::remove_dir_all(self.run_dir.join(format!("journal-{}", n - 1)));
            }
            let (session, secs, warm_up) = self.set_up(n)?;
            setup_s.push(secs);
            last = Some((session, warm_up));
        }
        let (mut session, warm_up) = last.expect("at least one set-up");
        let mut problems = Vec::new();

        let start_triples = session.triple_count().map_err(|e| e.to_string())?;
        let mut measured = Vec::new();
        for n in 0..passes {
            let cpu = self.cpu(n);
            measured.push(
                session
                    .pass(self.pass_target(), cpu, &mut self.oracle)
                    .map_err(|e| format!("timed pass: {e}"))?,
            );
        }
        let rss_peak_mb = session
            .server
            .rss_peak_kb()
            .map_or(0.0, |kb| kb as f64 / 1024.0);
        if rss_peak_mb == 0.0 {
            problems.push("could not read the server's VmHWM".to_owned());
        }

        // Every cycle of the write and mixed workloads undoes what it
        // did, so the graph must end where it started.
        let end_triples = session.triple_count().map_err(|e| e.to_string())?;
        if end_triples.is_none() || end_triples != start_triples {
            problems.push(format!(
                "graph did not return to its initial state: {start_triples:?} triples before the passes, {end_triples:?} after"
            ));
        }
        let read_checksum =
            (self.spec.kind == Kind::Read).then(|| checksum(&warm_up.first_cycle_rows));
        if self.args.seed == DEFAULT_SEED && !self.args.quick {
            self.check_pinned(read_checksum, end_triples, &mut problems);
        }
        let tally = session.tally;
        drop(session);
        let _ =
            std::fs::remove_dir_all(self.run_dir.join(format!("journal-{}", setup_s.len() - 1)));
        Ok(RunResult {
            setups: setup_s,
            passes: measured,
            rss_peak_mb,
            attempted: tally.attempted,
            failed: tally.failed,
            problems,
            read_checksum,
            end_triples,
        })
    }

    /// At the default seed the answers are also pinned in
    /// `expected.json`, so the oracle and the server cannot drift
    /// together unnoticed.
    fn check_pinned(
        &self,
        read_checksum: Option<u64>,
        end_triples: Option<u64>,
        problems: &mut Vec<String>,
    ) {
        let expected = json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
        // Stored as strings: a 64-bit checksum does not fit a JSON number.
        let pinned = |key: &str| {
            expected
                .get(key)
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<u64>().ok())
        };
        if let Some(got) = read_checksum {
            if pinned("read_checksum") != Some(got) {
                problems.push(format!(
                    "row-count checksum {got} differs from expected.json's {:?}",
                    pinned("read_checksum")
                ));
            }
        }
        let key = format!("{}_end_triples", self.spec.name);
        if let Some(want) = pinned(&key) {
            if end_triples != Some(want) {
                problems.push(format!(
                    "{end_triples:?} triples at the end, expected.json pins {want}"
                ));
            }
        }
    }
}

impl Drop for Harness<'_> {
    /// Journals and the tracer's scratch files go when the run is over.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

fn print_header(args: &Args, spec: &Spec, journal_root: &Path) {
    println!(
        "# e2e workload={} seed={} seconds={} strategy={} lubm={} server_threads={} clients=1 \
         (closed loop, one keep-alive connection) fsync={} journal_on_tmpfs={} passes={} setups={}..{}",
        spec.name,
        args.seed,
        args.seconds,
        spec.strategy,
        if args.quick {
            "tiny".to_owned()
        } else {
            spec.universities.to_string()
        },
        SERVER_THREADS,
        FSYNC,
        on_tmpfs(journal_root),
        PASSES,
        SETUPS.0,
        SETUPS.1,
    );
}

fn print_run(result: &RunResult, metrics: &[MetricDecl]) {
    for m in metrics {
        let samples = result.samples(&m.name);
        print!(
            "{} = {:.6} {}   {}_spread = {:.4}   ",
            m.name,
            result.value(m),
            m.unit,
            m.name,
            quartile_spread(&samples)
        );
        // Cycles are listed as one median per pass, set-ups whole.
        let (label, listed) = match cycle_figure(&m.name) {
            Some(figure) => (
                "pass medians",
                result
                    .passes
                    .iter()
                    .map(|p| median(&cycle_samples(std::slice::from_ref(p), figure)))
                    .collect(),
            ),
            None => ("samples", samples),
        };
        let listed: Vec<String> = listed.iter().map(|v| format!("{v:.4}")).collect();
        println!("{label}: [{}]", listed.join(", "));
    }
    let cycles: Vec<String> = result
        .passes
        .iter()
        .map(|p| p.cycles.len().to_string())
        .collect();
    println!("cycles per pass: [{}]", cycles.join(", "));
    if let Some(c) = result.read_checksum {
        println!("read_checksum = {c}");
    }
    if let Some(n) = result.end_triples {
        println!("end_triples = {n}");
    }
    for p in &result.problems {
        println!("PROBLEM: {p}");
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
) -> String {
    Value::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| (name, Value::metric(value, &unit))),
            ),
        ),
    ])
    .to_string()
}

fn end_to_end(args: &Args, spec: Spec) -> Result<bool, String> {
    let metrics = declared("end_to_end");
    let mut harness = Harness::new(args, spec)?;
    print_header(args, &spec, &args.work_dir);
    let result = harness.run(args.quick)?;
    print_run(&result, &metrics);
    let correct = result.failed == 0 && result.problems.is_empty();
    let values = metrics
        .iter()
        .map(|m| (m.name.clone(), result.value(m), m.unit.clone()))
        .collect();
    println!(
        "{}",
        result_line(correct, result.attempted, result.failed, values)
    );
    Ok(correct)
}

/// Runs the workload twice back to back and compares the two sets of
/// medians under the bounds of `BENCHMARK.json`.
fn selfcheck(args: &Args, spec: Spec) -> Result<bool, String> {
    let metrics = declared("end_to_end");
    let mut harness = Harness::new(args, spec)?;
    print_header(args, &spec, &args.work_dir);
    let mut runs = Vec::new();
    for n in 1..=2 {
        println!("# selfcheck run {n}");
        let result = harness.run(false)?;
        print_run(&result, &metrics);
        runs.push(result);
    }
    let mut ok = runs.iter().all(|r| r.failed == 0 && r.problems.is_empty());
    for m in &metrics {
        let (a, b) = (runs[0].value(m), runs[1].value(m));
        let bound = m.bound.expect("end-to-end metrics have a bound");
        let worse = if m.higher_is_better {
            (a - b) / a
        } else {
            (b - a) / a
        };
        let verdict = if worse.abs() <= bound {
            "ok"
        } else {
            "DIFFERS"
        };
        println!(
            "selfcheck {}: {a:.6} vs {b:.6} {} ({:+.2}% against a bound of {:.0}%) {verdict}",
            m.name,
            m.unit,
            (b - a) / a * 100.0,
            bound * 100.0
        );
        ok &= worse.abs() <= bound;
    }
    Ok(ok)
}

/// Reads `hits / lookups` of the server's per-query rewrite cache off
/// its Prometheus text: every answered query looks the cache up once, and
/// every miss runs (and spans) a rewrite. 0 on a store that never
/// rewrites.
fn rewrite_cache_hit_ratio(metrics_text: &str) -> f64 {
    let sample = |prefix: &str| -> Option<f64> {
        metrics_text
            .lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
    };
    let queries = sample("webreason_core_answer_queries_total ");
    let misses = sample("webreason_span_count_total{name=\"core.answer.reformulate\"");
    match (queries, misses) {
        (Some(q), Some(m)) if q > 0.0 => ((q - m) / q).max(0.0),
        _ => 0.0,
    }
}

/// The traced run: the in-process layer trace, then the same traffic over
/// the socket for the figures only a socket can give, then the restart
/// measurement.
fn traced(args: &Args, spec: Spec) -> Result<bool, String> {
    let declared_layers = declared("per_layer");
    let mut harness = Harness::new(args, spec)?;
    print_header(args, &spec, &args.work_dir);

    // 1. The tracer, alone on the machine.
    let out = harness.run_dir.join("layers.json");
    let spans_dir = args.work_dir.join("spans");
    let status = Command::new(&args.tracer)
        .args(["--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(&out)
        .arg("--spans-dir")
        .arg(&spans_dir)
        .arg("--scratch-dir")
        .arg(harness.run_dir.join("trace-scratch"))
        .args(if args.quick { &["--quick"][..] } else { &[] })
        .status()
        .map_err(|e| format!("{}: {e}", args.tracer.display()))?;
    if !status.success() {
        return Err(format!("trace exited with {status}"));
    }
    let layers = std::fs::read_to_string(&out)
        .map_err(|e| format!("{}: {e}", out.display()))
        .and_then(|t| json::parse(&t).map_err(|e| e.to_string()))?;
    println!("spans: {}/spans-<workload>.json", spans_dir.display());
    // A layer figure the tracer reports once, or once per workload.
    let layer = |name: &str| -> Option<f64> {
        let keyed = format!("{name}@{}", spec.name);
        [name, keyed.as_str()]
            .iter()
            .find_map(|k| layers.get(k)?.get("value")?.as_f64())
    };

    // 2. The same traffic over the socket, briefly.
    let (mut session, _, _) = harness.set_up(0)?;
    let mut passes = Vec::new();
    for n in 0..(if args.quick { 1 } else { PASSES / 2 }) {
        let cpu = harness.cpu(n);
        passes.push(
            session
                .pass(harness.pass_target(), cpu, &mut harness.oracle)
                .map_err(|e| format!("timed pass: {e}"))?,
        );
    }
    let socket_us = |figure| fast_decile(&cycle_samples(&passes, figure), false) * 1e3;
    let (socket_light, socket_heavy) = (socket_us(|c| c.light_ms), socket_us(|c| c.heavy_ms));
    let metrics_text = session.metrics().map_err(|e| e.to_string())?;

    // 3. Restart: SIGKILL, respawn on the same journal, time until the
    //    count query returns the pre-kill answer.
    let before = session.triple_count().map_err(|e| e.to_string())?;
    let journal = harness.run_dir.join("journal-0");
    let restart = Instant::now();
    session
        .restart(&harness.cfg, &journal)
        .map_err(|e| format!("restart: {e}"))?;
    let after = session.triple_count().map_err(|e| e.to_string())?;
    let restart_s = restart.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if before.is_none() || after != before {
        problems.push(format!(
            "restart lost data: count {before:?} before the kill, {after:?} after"
        ));
    }
    let tally = session.tally;
    drop(session);

    // 4. Every declared per-layer metric, from the tracer or from here.
    let share = |inproc: Option<f64>, socket: f64| inproc.map(|us| us / socket);
    let mut values = Vec::new();
    for m in &declared_layers {
        let value = match m.name.as_str() {
            "server.transport_us" => layer("trace.inproc_us.light").map(|us| socket_light - us),
            "trace.attributed_share.light" => {
                share(layer("trace.attributed_us.light"), socket_light)
            }
            "trace.attributed_share.heavy" => {
                share(layer("trace.attributed_us.heavy"), socket_heavy)
            }
            "core.refo_cache.hit_ratio" => Some(rewrite_cache_hit_ratio(&metrics_text)),
            "cli.restart_s" => Some(restart_s),
            "harness.journal_on_tmpfs" => Some(on_tmpfs(&args.work_dir) as f64),
            name => layer(name),
        };
        match value {
            Some(v) => {
                println!("{} = {v:.6} {}", m.name, m.unit);
                values.push((m.name.clone(), v, m.unit.clone()));
            }
            None => problems.push(format!(
                "no value for the declared per-layer metric {}",
                m.name
            )),
        }
    }
    println!(
        "socket light = {socket_light:.3} us, heavy = {socket_heavy:.3} us ({} cycles)",
        passes.iter().map(|p| p.cycles.len()).sum::<usize>()
    );
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, values)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = traffic::spec(&args.workload) else {
        let names: Vec<&str> = traffic::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "e2e: unknown workload {:?}; choose one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = if args.selfcheck {
        selfcheck(&args, spec)
    } else if args.trace {
        traced(&args, spec)
    } else {
        end_to_end(&args, spec)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Measured, but an op or a check failed: the result line says so
        // (`correct: false`); the exit code stays 0 so the line is read.
        Ok(false) if !args.selfcheck => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(1)
        }
    }
}
