//! The one query executor: a union of conjunctive branches, evaluated as
//! a union.
//!
//! Every answer path ends here — `q(G∞)` over a saturated graph, the
//! reformulated union `q_ref(G)`, and the interval rewriting whose atoms
//! hold hierarchy ranges ([`Executable`]). All three are branches of
//! [`RangeAtom`]s (a [`TriplePattern`](crate::TriplePattern) lowers to a
//! range atom with no range position), planned by the one planner in
//! [`crate::plan`] and walked by two mechanisms:
//!
//! 1. **Shared-prefix trie.** The planned atom sequences are folded into a
//!    trie: branches whose planned orders start with the same atoms share
//!    one trie path, so the index scans and intermediate bindings for that
//!    prefix are computed once. A trie node where a branch ends carries a
//!    *leaf multiplicity* so duplicated branches keep SPARQL bag semantics
//!    (see `union_bag_and_set_semantics` in `eval.rs`).
//! 2. **Range probes.** A node whose atom holds a hierarchy range either
//!    *enumerates* the range's members off the interval dictionary and
//!    probes once per member (cheap for small subtrees against big scans)
//!    or *filter-scans* the wildcard probe with an O(1) containment test
//!    per triple (cheap for big subtrees), whichever the live cardinalities
//!    favour. An atom with several ranges drives the smallest one and
//!    filter-checks the rest.
//!
//! The sorted branch list is split into contiguous chunks (sorting
//! co-locates shared prefixes), one trie per `std::thread::scope` worker.
//! Rows are routed into hash-sharded buckets; the merge phase deduplicates
//! each shard independently, so `DISTINCT` costs one set per shard
//! instead of one global lock.
//!
//! The answer multiset is exactly [`evaluate`](crate::evaluate)'s on the
//! classical union: a trie path *is* a branch's planned atom sequence,
//! leaf multiplicities keep duplicate counts, and a range admits exactly
//! the terms its union branches would have named.

use crate::ast::{Query, Variable};
use crate::eval::{passes_negation, Solutions};
use crate::plan::{plan_atoms, DistinctCounts};
use crate::range_eval::{IntervalQuery, RTerm, RangeAtom};
use obs::{CancelToken, CANCEL_POLL_STRIDE};
use rdf_model::{Graph, IntervalDict, IntervalSet, Pattern, TermId, Triple, WorkerPanicked};
use rustc_hash::{FxHashSet, FxHasher};
use smallvec::SmallVec;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use webreason_failpoints::fail_point;

/// One projected answer row.
type Row = Vec<TermId>;

/// Why a cancellable evaluation returned no answer.
#[derive(Debug)]
pub enum UnionEvalError {
    /// A parallel worker panicked (a bug, or an armed failpoint).
    Worker(WorkerPanicked),
    /// The request's [`CancelToken`] tripped — deadline exceeded or
    /// client gone. Every worker's partial row shards were discarded
    /// whole; no counters for the abandoned pass were published, so a
    /// re-run is bit-identical to a fresh run.
    Cancelled,
}

impl fmt::Display for UnionEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnionEvalError::Worker(e) => write!(f, "{e}"),
            UnionEvalError::Cancelled => f.write_str("union evaluation cancelled"),
        }
    }
}

impl std::error::Error for UnionEvalError {}

impl From<WorkerPanicked> for UnionEvalError {
    fn from(e: WorkerPanicked) -> Self {
        UnionEvalError::Worker(e)
    }
}

/// Evaluation statistics of one executor run, surfaced through
/// `Store::answer`, the `webreason query` CLI and the A-REF bench table.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct EvalStats {
    /// Union branches in the query.
    pub branches_total: usize,
    /// Branches skipped because they do not bind every projected variable.
    pub branches_pruned: usize,
    /// Branches that shared at least their first planned atom with an
    /// earlier branch (their prefix scans were reused from the trie).
    pub branches_shared: usize,
    /// Total planned atoms across evaluated branches.
    pub patterns_total: usize,
    /// Trie nodes actually built — `patterns_total - trie_nodes` index
    /// scans were saved by prefix sharing.
    pub trie_nodes: usize,
    /// Always 0: the executor keeps no scan cache. Kept while the
    /// benchmark trace still reports `sparql.union.scan_cache_hit_ratio`.
    pub scan_cache_hits: u64,
    /// Always 0, like [`EvalStats::scan_cache_hits`].
    pub scan_cache_misses: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the derive phase (planning + trie walks), µs.
    pub eval_us: u64,
    /// Wall-clock of the merge phase (shard dedup + concatenation), µs.
    pub merge_us: u64,
    /// Answer rows produced (after `DISTINCT`, before `finalize`).
    pub rows: usize,
    /// Range atoms planned (interval strategy only; a range atom probes
    /// one hierarchy interval instead of one union branch per member).
    pub range_scans: u64,
    /// Union branches the interval rewriting collapsed into range scans
    /// (interval strategy only): `q_ref` branches minus interval branches.
    pub branches_collapsed: usize,
}

impl EvalStats {
    /// Index scans saved by prefix sharing in the trie.
    pub fn shared_prefix_scans(&self) -> usize {
        self.patterns_total.saturating_sub(self.trie_nodes)
    }

    /// One-line human-readable rendering for CLI / bench output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} branches ({} pruned, {} shared ≥1 prefix, {} scans saved), \
             {} worker(s), eval {}µs + merge {}µs",
            self.branches_total,
            self.branches_pruned,
            self.branches_shared,
            self.shared_prefix_scans(),
            self.threads,
            self.eval_us,
            self.merge_us,
        );
        if self.range_scans > 0 || self.branches_collapsed > 0 {
            line.push_str(&format!(
                ", {} range scans ({} union branches collapsed)",
                self.range_scans, self.branches_collapsed,
            ));
        }
        line
    }
}

/// What [`try_execute`] runs. The variant decides only which metrics the
/// run publishes; the evaluation is the same.
#[derive(Debug, Clone, Copy)]
pub enum Executable<'a> {
    /// A query evaluated as written — `q(G∞)` over a saturated graph.
    /// Publishes no `sparql.*` metric: observed-cost analysis attributes
    /// `q(G∞)` by the union and range spans being absent.
    Plain(&'a Query),
    /// A reformulated union `q_ref`, published as `sparql.union.*`.
    Union(&'a Query),
    /// An interval-rewritten query, published as `sparql.range.*`.
    Interval(&'a IntervalQuery),
}

/// The metric names one kind of query publishes under.
struct Family {
    total: Option<&'static str>,
    /// The `plan`, `eval` and `merge` child spans of `total`.
    phases: [Option<&'static str>; 3],
    cancelled: Option<&'static str>,
    publish: fn(&obs::Registry, &EvalStats, &[u64]),
}

const PLAIN: Family = Family {
    total: None,
    phases: [None; 3],
    cancelled: None,
    publish: |_, _, _| {},
};

const UNION: Family = Family {
    total: Some("sparql.union.total"),
    phases: [
        Some("sparql.union.plan"),
        Some("sparql.union.eval"),
        Some("sparql.union.merge"),
    ],
    cancelled: Some("sparql.union.cancelled"),
    publish: publish_union,
};

const RANGE: Family = Family {
    total: Some("sparql.range.total"),
    phases: [None; 3],
    cancelled: Some("sparql.range.cancelled"),
    publish: publish_range,
};

/// Mirrors a finished union evaluation's [`EvalStats`] (and each worker's
/// emitted-row count) into the registry under the `sparql.union.*` names.
fn publish_union(reg: &obs::Registry, stats: &EvalStats, worker_rows: &[u64]) {
    if !reg.is_enabled() {
        return;
    }
    for &rows in worker_rows {
        reg.record("sparql.union.worker_rows", rows);
    }
    reg.add("sparql.union.queries", 1);
    reg.add("sparql.union.branches_total", stats.branches_total as u64);
    reg.add("sparql.union.branches_pruned", stats.branches_pruned as u64);
    reg.add("sparql.union.branches_shared", stats.branches_shared as u64);
    reg.add("sparql.union.patterns_total", stats.patterns_total as u64);
    reg.add("sparql.union.trie_nodes", stats.trie_nodes as u64);
    reg.add(
        "sparql.union.shared_prefix_scans",
        stats.shared_prefix_scans() as u64,
    );
    reg.add("sparql.union.rows", stats.rows as u64);
    reg.add("sparql.union.workers", stats.threads as u64);
}

/// Mirrors a finished interval evaluation's stats into the registry under
/// the `sparql.range.*` names.
fn publish_range(reg: &obs::Registry, stats: &EvalStats, _worker_rows: &[u64]) {
    if !reg.is_enabled() {
        return;
    }
    reg.add("sparql.range.queries", 1);
    reg.add("sparql.range.branches_total", stats.branches_total as u64);
    reg.add("sparql.range.branches_pruned", stats.branches_pruned as u64);
    reg.add("sparql.range.scans", stats.range_scans);
    reg.add(
        "sparql.range.branches_collapsed",
        stats.branches_collapsed as u64,
    );
    reg.add("sparql.range.rows", stats.rows as u64);
    reg.add("sparql.range.workers", stats.threads as u64);
}

/// One node of the shared-prefix trie: a planned atom, the branches
/// ending exactly here (`leaf_mult`), and the continuations.
struct TrieNode {
    atom: RangeAtom,
    leaf_mult: usize,
    children: Vec<TrieNode>,
}

/// The trie for one worker's chunk of branches.
#[derive(Default)]
struct Trie {
    roots: Vec<TrieNode>,
    /// Branches with an empty atom list (they emit one empty binding
    /// each, exactly like the per-branch evaluator's empty BGP).
    empty_mult: usize,
    nodes: usize,
    shared_branches: usize,
}

impl Trie {
    fn build(branches: &[Vec<RangeAtom>]) -> Trie {
        let mut trie = Trie::default();
        for seq in branches {
            if seq.is_empty() {
                trie.empty_mult += 1;
                continue;
            }
            let mut level = &mut trie.roots;
            let mut reused_any = false;
            for (depth, atom) in seq.iter().enumerate() {
                let pos = match level.iter().position(|n| n.atom == *atom) {
                    Some(pos) => {
                        if depth == 0 {
                            reused_any = true;
                        }
                        pos
                    }
                    None => {
                        level.push(TrieNode {
                            atom: *atom,
                            leaf_mult: 0,
                            children: Vec::new(),
                        });
                        trie.nodes += 1;
                        level.len() - 1
                    }
                };
                if depth + 1 == seq.len() {
                    level[pos].leaf_mult += 1;
                }
                level = &mut level[pos].children;
            }
            if reused_any {
                trie.shared_branches += 1;
            }
        }
        trie
    }
}

/// The read-only inputs every worker shares.
#[derive(Clone, Copy)]
struct Job<'a> {
    g: &'a Graph,
    q: &'a Query,
    /// The range table `RTerm::Range` positions index into (empty unless
    /// the query is an interval rewriting).
    ranges: &'a [IntervalSet],
    dict: Option<&'a IntervalDict>,
    cancel: &'a CancelToken,
}

/// One worker's trie walk: probe, bind, emit at leaves (with
/// multiplicity), recurse into continuations, unbind.
///
/// The token is polled on the first matched triple of the walk and then
/// every [`CANCEL_POLL_STRIDE`] matched triples, at any depth, so even a
/// single-branch query stops within a stride of the deadline. A tripped
/// token sets `cancelled` and every further match is skipped.
struct Walker<'a> {
    job: Job<'a>,
    matched: usize,
    cancelled: bool,
}

impl Walker<'_> {
    fn walk(
        &mut self,
        node: &TrieNode,
        binding: &mut Vec<Option<TermId>>,
        emit: &mut dyn FnMut(&[Option<TermId>], usize),
    ) {
        let Job { g, ranges, .. } = self.job;
        let atom = &node.atom;
        // Field by field, not through `positions()`: the array round trip
        // costs a fifth of a probe-heavy join.
        let mut probe = [
            resolve(atom.s, binding),
            resolve(atom.p, binding),
            resolve(atom.o, binding),
        ];
        let pattern = |probe: &[Option<TermId>; 3]| Pattern::new(probe[0], probe[1], probe[2]);
        // A range-free atom — every atom of a union or saturated query — is
        // one plain probe.
        let (Some(dict), true) = (self.job.dict, atom.has_range()) else {
            g.for_each_match(&pattern(&probe), |t| self.step(node, &t, binding, emit));
            return;
        };
        let range = |t: RTerm| match t {
            RTerm::Range(r) => Some(&ranges[usize::from(r)]),
            _ => None,
        };
        let mut ranged = [range(atom.s), range(atom.p), range(atom.o)];
        let mut scan = |probe: &[Option<TermId>; 3], checks: &[Option<&IntervalSet>; 3]| {
            g.for_each_match(&pattern(probe), |t| {
                let values = [t.s, t.p, t.o];
                if (0..3).all(|i| checks[i].is_none_or(|set| dict.contains(set, values[i]))) {
                    self.step(node, &t, binding, emit);
                }
            });
        };
        // Drive the smallest range by member enumeration if that beats
        // one wildcard scan; every other range is filter-checked.
        let (pos, set) = (0..3)
            .filter_map(|i| ranged[i].map(|set| (i, set)))
            .min_by_key(|(_, set)| set.len())
            .expect("the atom has a range");
        if set.len() < g.count(&pattern(&probe)) {
            ranged[pos] = None;
            for member in dict.members(set) {
                probe[pos] = Some(member);
                scan(&probe, &ranged);
            }
        } else {
            scan(&probe, &ranged);
        }
    }

    /// Processes one matched triple of a trie node's probe.
    #[inline]
    fn step(
        &mut self,
        node: &TrieNode,
        t: &Triple,
        binding: &mut Vec<Option<TermId>>,
        emit: &mut dyn FnMut(&[Option<TermId>], usize),
    ) {
        let poll = self.matched.is_multiple_of(CANCEL_POLL_STRIDE);
        if self.cancelled || (poll && self.job.cancel.is_cancelled()) {
            self.cancelled = true;
            return;
        }
        self.matched += 1;
        // Constant and range positions were enforced by the probe; bind
        // the variables, rejecting a repeated-variable clash.
        let mut touched: SmallVec<[Variable; 3]> = SmallVec::new();
        let atom = &node.atom;
        let mut consistent = true;
        for (rt, value) in [(atom.s, t.s), (atom.p, t.p), (atom.o, t.o)] {
            let RTerm::Var(v) = rt else { continue };
            match binding[v.index()] {
                Some(bound) if bound != value => {
                    consistent = false;
                    break;
                }
                Some(_) => {}
                None => {
                    binding[v.index()] = Some(value);
                    touched.push(v);
                }
            }
        }
        if consistent {
            if node.leaf_mult > 0 {
                emit(binding, node.leaf_mult);
            }
            for child in &node.children {
                self.walk(child, binding, emit);
            }
        }
        for v in touched {
            binding[v.index()] = None;
        }
    }
}

/// The value a probe position takes under `binding`: a constant, a bound
/// variable, or `None` (a wildcard) for a free variable or a range.
#[inline]
fn resolve(t: RTerm, binding: &[Option<TermId>]) -> Option<TermId> {
    match t {
        RTerm::Var(v) => binding[v.index()],
        RTerm::Const(c) => Some(c),
        RTerm::Range(_) => None,
    }
}

/// What one worker sends back: rows routed into shards, plus counters.
struct WorkerOutput {
    shards: Vec<Vec<Row>>,
    trie_nodes: usize,
    shared_branches: usize,
}

fn shard_of(row: &[TermId], mask: usize) -> usize {
    let mut h = FxHasher::default();
    row.hash(&mut h);
    (h.finish() as usize) & mask
}

/// Evaluates one chunk of branches: builds the chunk's trie, walks it, and
/// routes projected rows into `shard_count` hash-sharded buckets.
///
/// Cancellation is polled between trie roots and inside the walk (see
/// [`Walker`]). `None` means the token tripped: the partial shards are
/// dropped on return, so nothing of the abandoned pass survives.
fn run_chunk(
    job: Job<'_>,
    branches: &[Vec<RangeAtom>],
    shard_count: usize,
) -> Option<WorkerOutput> {
    let Job { g, q, cancel, .. } = job;
    let trie = Trie::build(branches);
    let mask = shard_count - 1;
    let mut shards: Vec<Vec<Row>> = (0..shard_count).map(|_| Vec::new()).collect();
    let mut binding: Vec<Option<TermId>> = vec![None; q.var_names.len()];
    let mut walker = Walker {
        job,
        matched: 0,
        cancelled: false,
    };
    // Under `DISTINCT` each worker deduplicates its own rows as they are
    // emitted, so the merge phase only resolves duplicates *across*
    // workers — with a single worker it degenerates to a move.
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    let mut emit = |binding: &[Option<TermId>], mult: usize| {
        if !passes_negation(g, q, binding) {
            return;
        }
        let row: Row = q
            .projection
            .iter()
            .map(|v| binding[v.index()].expect("projected variable bound"))
            .collect();
        if q.distinct && !seen.insert(row.clone()) {
            return;
        }
        let shard = &mut shards[if mask == 0 { 0 } else { shard_of(&row, mask) }];
        // Under bag semantics a branch duplicated `mult` times contributes
        // `mult` copies (exactly like the per-branch evaluator).
        if !q.distinct {
            shard.extend((1..mult).map(|_| row.clone()));
        }
        shard.push(row);
    };
    if trie.empty_mult > 0 {
        emit(&binding, trie.empty_mult);
    }
    for root in &trie.roots {
        if cancel.is_cancelled() {
            return None;
        }
        walker.walk(root, &mut binding, &mut emit);
        if walker.cancelled {
            return None;
        }
    }
    Some(WorkerOutput {
        shards,
        trie_nodes: trie.nodes,
        shared_branches: trie.shared_branches,
    })
}

/// Merges one shard's per-worker row lists. Workers already deduplicated
/// their own rows, so `distinct` only has to resolve duplicates across
/// workers; identical rows hash to the same shard, so per-shard dedup is
/// globally complete.
fn merge_shard(mut parts: Vec<Vec<Row>>, distinct: bool) -> Vec<Row> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    if !distinct {
        return parts.into_iter().flatten().collect();
    }
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    let mut out = Vec::new();
    for rows in parts {
        for row in rows {
            if seen.insert(row.clone()) {
                out.push(row);
            }
        }
    }
    out
}

/// Plans every branch that binds the whole projection (one distinct-counts
/// pass for the union), returning the planned atom sequences sorted — so
/// shared prefixes are contiguous and duplicated branches land in the same
/// chunk. `None` if the token tripped between branches.
fn plan_branches<'b, A: Copy + Into<RangeAtom> + 'b>(
    job: Job<'_>,
    branches: impl ExactSizeIterator<Item = &'b [A]>,
    stats: &mut EvalStats,
) -> Option<Vec<Vec<RangeAtom>>> {
    let dc = DistinctCounts::of(job.g);
    stats.branches_total = branches.len();
    let mut planned = Vec::with_capacity(branches.len());
    for atoms in branches {
        // Branch boundary: a deadline that expires while planning a
        // hundreds-of-branches union stops before evaluation starts.
        if job.cancel.is_cancelled() {
            return None;
        }
        let vars: FxHashSet<Variable> = atoms.iter().flat_map(|&a| a.into().variables()).collect();
        if !job.q.projection.iter().all(|v| vars.contains(v)) {
            stats.branches_pruned += 1;
            continue;
        }
        let plan = plan_atoms(job.g, &dc, atoms, job.ranges);
        let seq: Vec<RangeAtom> = plan.order.iter().map(|&i| atoms[i].into()).collect();
        stats.patterns_total += seq.len();
        stats.range_scans += seq.iter().filter(|a| a.has_range()).count() as u64;
        planned.push(seq);
    }
    planned.sort();
    Some(planned)
}

/// Runs `task` on each item on its own scoped worker. A panicking worker
/// (a bug, or the armed `sparql.union.worker` failpoint) is caught here,
/// so the scope joins cleanly, nothing shared is poisoned, and the panic
/// surfaces as a [`WorkerPanicked`].
fn fan_out<T: Send, R: Send>(
    items: impl Iterator<Item = T>,
    task: impl Fn(T) -> R + Sync,
) -> Result<Vec<R>, WorkerPanicked> {
    let task = &task;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .map(|item| {
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        fail_point!("sparql.union.worker");
                        task(item)
                    }))
                    .map_err(|payload| WorkerPanicked::from_payload("sparql.union.worker", payload))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caught-panic worker never unwinds"))
            .collect()
    })
}

/// Evaluates `exe` with prefix sharing, range probes and up to `threads`
/// parallel workers. Returns the same answer multiset as
/// [`evaluate`](crate::evaluate) on the classical union (set-equal under
/// `DISTINCT`, bag-equal otherwise), plus the [`EvalStats`] describing how
/// it got there.
///
/// Cooperative cancellation: `cancel` is polled between planned branches,
/// between trie roots and every [`CANCEL_POLL_STRIDE`] matched triples in
/// every worker, and between shard merges. A tripped token aborts with
/// [`UnionEvalError::Cancelled`]; no partial rows escape and no counters
/// for the abandoned pass are published (except the family's `cancelled`
/// tally), so an identical re-run behaves bit-identically. A worker panic
/// surfaces as [`UnionEvalError::Worker`].
pub fn try_execute(
    g: &Graph,
    exe: Executable<'_>,
    threads: NonZeroUsize,
    cancel: &CancelToken,
) -> Result<(Solutions, EvalStats), UnionEvalError> {
    let reg = obs::global();
    let (q, family, ranges, dict) = match exe {
        Executable::Plain(q) => (q, &PLAIN, &[][..], None),
        Executable::Union(q) => (q, &UNION, &[][..], None),
        Executable::Interval(iq) => (&iq.query, &RANGE, &iq.ranges[..], Some(&*iq.dict)),
    };
    let job = Job {
        g,
        q,
        ranges,
        dict,
        cancel,
    };
    let span = |name: Option<&'static str>| name.map(|n| reg.span(n));
    let cancelled = || {
        if let Some(name) = family.cancelled {
            reg.add(name, 1);
        }
        UnionEvalError::Cancelled
    };
    let _total_span = span(family.total);
    let eval_start = Instant::now();
    let mut stats = EvalStats::default();

    let plan_span = span(family.phases[0]);
    let branches = match exe {
        Executable::Plain(q) | Executable::Union(q) => {
            plan_branches(job, q.bgps.iter().map(|b| &b.patterns[..]), &mut stats)
        }
        Executable::Interval(iq) => {
            stats.branches_collapsed = iq.branches_collapsed;
            plan_branches(job, iq.branches.iter().map(|b| &b.atoms[..]), &mut stats)
        }
    }
    .ok_or_else(cancelled)?;
    drop(plan_span);

    let workers = threads.get().min(branches.len()).max(1);
    stats.threads = workers;
    let shard_count = workers.next_power_of_two();

    let eval_span = span(family.phases[1]);
    let outputs = if workers == 1 {
        vec![run_chunk(job, &branches, shard_count)]
    } else {
        let per = branches.len().div_ceil(workers);
        fan_out(branches.chunks(per), |chunk| {
            run_chunk(job, chunk, shard_count)
        })?
    };
    // One cancelled worker cancels the query: every sibling's output is
    // discarded here, whether or not it finished its chunk first.
    let outputs: Vec<WorkerOutput> = outputs
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(cancelled)?;

    // Transpose worker outputs into per-shard merge tasks, keeping each
    // worker's emitted-row count (skew here means poor balance).
    let mut shard_parts: Vec<Vec<Vec<Row>>> = (0..shard_count).map(|_| Vec::new()).collect();
    let mut worker_rows: Vec<u64> = Vec::with_capacity(workers);
    for out in outputs {
        stats.trie_nodes += out.trie_nodes;
        stats.branches_shared += out.shared_branches;
        worker_rows.push(out.shards.iter().map(|s| s.len() as u64).sum());
        for (shard, rows) in out.shards.into_iter().enumerate() {
            shard_parts[shard].push(rows);
        }
    }
    stats.eval_us = eval_start.elapsed().as_micros() as u64;
    drop(eval_span);

    // Merge phase: each shard deduplicates independently (disjoint
    // writes), one worker per shard when several workers ran. A tripped
    // token stops it at a shard boundary, and the final poll discards a
    // merge the token interrupted.
    let merge_span = span(family.phases[2]);
    let merge_start = Instant::now();
    let merge = |parts| (!cancel.is_cancelled()).then(|| merge_shard(parts, q.distinct));
    let merged = if workers == 1 {
        shard_parts.into_iter().map(merge).collect()
    } else {
        fan_out(shard_parts.into_iter(), merge)?
            .into_iter()
            .collect::<Option<Vec<_>>>()
    };
    let mut merged = merged
        .filter(|_| !cancel.is_cancelled())
        .ok_or_else(cancelled)?;
    // One shard (one worker) is moved out whole, not copied row by row.
    let rows: Vec<Row> = match merged.len() {
        1 => merged.pop().expect("one shard"),
        _ => merged.into_iter().flatten().collect(),
    };
    stats.merge_us = merge_start.elapsed().as_micros() as u64;
    stats.rows = rows.len();
    drop(merge_span);
    (family.publish)(reg, &stats, &worker_rows);

    let var_names = q
        .projection
        .iter()
        .map(|&v| q.var_name(v).to_owned())
        .collect();
    Ok((Solutions { var_names, rows }, stats))
}

/// [`try_execute`] without a deadline, surfacing a worker panic.
pub(crate) fn try_run(
    g: &Graph,
    exe: Executable<'_>,
    threads: NonZeroUsize,
) -> Result<(Solutions, EvalStats), WorkerPanicked> {
    try_execute(g, exe, threads, &CancelToken::none()).map_err(|e| match e {
        UnionEvalError::Worker(w) => w,
        UnionEvalError::Cancelled => unreachable!("a CancelToken::none() evaluation never cancels"),
    })
}

/// [`try_run`] that re-runs single-threaded — which spawns no workers —
/// if a worker panics, so it always answers.
pub(crate) fn run(g: &Graph, exe: Executable<'_>, threads: NonZeroUsize) -> (Solutions, EvalStats) {
    try_run(g, exe, threads).unwrap_or_else(|_| {
        try_run(g, exe, NonZeroUsize::MIN).expect("single-threaded evaluation spawns no workers")
    })
}

/// Evaluates a reformulated union `q_ref` with up to `threads` workers,
/// publishing `sparql.union.*`. A worker panic is absorbed by a
/// single-threaded re-run, which computes the identical answer — callers
/// that want the panic surfaced use [`try_evaluate_union`].
pub fn evaluate_union(g: &Graph, q: &Query, threads: NonZeroUsize) -> (Solutions, EvalStats) {
    run(g, Executable::Union(q), threads)
}

/// [`evaluate_union`] that surfaces a worker panic as a structured
/// [`WorkerPanicked`] error instead of falling back. No partial answer
/// escapes: the routed row shards of a failed pass are dropped whole.
pub fn try_evaluate_union(
    g: &Graph,
    q: &Query,
    threads: NonZeroUsize,
) -> Result<(Solutions, EvalStats), WorkerPanicked> {
    try_run(g, Executable::Union(q), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use rdf_model::Dictionary;

    const DATA: &str = r#"
        @prefix ex: <http://ex/> .
        ex:anne ex:hasFriend ex:marie .
        ex:marie ex:hasFriend ex:paul .
        ex:paul ex:hasFriend ex:anne .
        ex:anne a ex:Person .
        ex:marie a ex:Person .
        ex:bob ex:knows ex:anne .
    "#;

    fn fixture(query: &str) -> (Graph, Query) {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(DATA, &mut dict, &mut g).expect("fixture parses");
        let q = parse_query(query, &mut dict).expect("query parses");
        (g, q)
    }

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn agrees_with_per_branch_evaluator_on_unions() {
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } UNION { ?x ex:knows ?y } }";
        for distinct in [false, true] {
            let (g, mut query) = fixture(q);
            query.distinct = distinct;
            let legacy = evaluate(&g, &query);
            for t in [1usize, 2, 4] {
                let (got, stats) = evaluate_union(&g, &query, threads(t));
                assert_eq!(
                    got.sorted_rows(),
                    legacy.sorted_rows(),
                    "distinct={distinct} threads={t}"
                );
                assert_eq!(stats.branches_total, 3);
                assert_eq!(stats.rows, got.len());
            }
        }
    }

    #[test]
    fn shared_prefix_counts_scans_saved() {
        // Two branches sharing the same first planned atom must share a
        // trie node at a single worker.
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { { ?x ex:knows ?y . ?y ex:hasFriend ?z } \
                   UNION { ?x ex:knows ?y . ?y a ex:Person } }";
        let (g, query) = fixture(q);
        let (got, stats) = evaluate_union(&g, &query, threads(1));
        assert_eq!(got.sorted_rows(), evaluate(&g, &query).sorted_rows());
        assert_eq!(stats.patterns_total, 4);
        assert_eq!(
            stats.trie_nodes, 3,
            "the shared ?x ex:knows ?y prefix is one node"
        );
        assert_eq!(stats.shared_prefix_scans(), 1);
        assert_eq!(stats.branches_shared, 1);
    }

    #[test]
    fn single_branch_walk_polls_every_stride() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        let p = dict.encode_iri("http://ex/p");
        for i in 0..2000 {
            let s = dict.encode_iri(&format!("http://ex/s{i}"));
            g.insert(Triple::new(s, p, s));
        }
        let q = parse_query("SELECT ?x WHERE { ?x <http://ex/p> ?y }", &mut dict).unwrap();
        let run = |trip: u64| {
            let token = CancelToken::trip_after_checks(trip);
            try_execute(&g, Executable::Plain(&q), threads(1), &token)
        };
        // Polls: planning (1), the trie root (2), the 1st, 513th, 1025th
        // and 1537th matched triple (3-6), the shard merge (7), the final
        // check (8). Trip 4 stops the walk of a one-branch query midway.
        assert!(matches!(run(4), Err(UnionEvalError::Cancelled)));
        assert!(matches!(run(8), Err(UnionEvalError::Cancelled)));
        let (sols, _) = run(9).expect("a trip past every poll answers");
        assert_eq!(sols.len(), 2000);
    }

    #[test]
    fn duplicated_branches_keep_bag_multiplicity() {
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { { ?x a ex:Person } UNION { ?x a ex:Person } }";
        let (g, mut query) = fixture(q);
        assert!(!query.distinct);
        let legacy = evaluate(&g, &query);
        assert_eq!(legacy.len(), 4, "2 persons × 2 identical branches");
        for t in [1usize, 2] {
            let (got, stats) = evaluate_union(&g, &query, threads(t));
            assert_eq!(got.sorted_rows(), legacy.sorted_rows(), "threads={t}");
            assert_eq!(stats.branches_total, 2);
        }
        query.distinct = true;
        let (got, _) = evaluate_union(&g, &query, threads(1));
        assert_eq!(got.len(), 2, "DISTINCT collapses the duplicate branch");
    }

    #[test]
    fn branches_missing_projection_vars_are_pruned() {
        let q = "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE \
                 { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }";
        let (g, query) = fixture(q);
        let (got, stats) = evaluate_union(&g, &query, threads(2));
        assert_eq!(got.sorted_rows(), evaluate(&g, &query).sorted_rows());
        assert_eq!(stats.branches_pruned, 1, "the ?y-less branch is skipped");
    }

    #[test]
    fn empty_graph_and_empty_union() {
        let mut dict = Dictionary::new();
        let g = Graph::new();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person }",
            &mut dict,
        )
        .unwrap();
        for t in [1usize, 4] {
            let (got, stats) = evaluate_union(&g, &q, threads(t));
            assert!(got.is_empty());
            assert_eq!(stats.rows, 0);
        }
    }

    #[test]
    fn stats_summary_renders() {
        let (g, query) = fixture(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE \
             { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }",
        );
        let (_, stats) = evaluate_union(&g, &query, threads(2));
        let line = stats.summary();
        assert!(line.contains("2 branches"), "{line}");
        assert!(line.contains("worker(s)"), "{line}");
    }
}
