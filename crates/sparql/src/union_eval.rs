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
//! Each trie node is compiled when the trie is built: which positions
//! probe a constant, a slot an ancestor bound, or nothing, and which slots
//! the node writes ([`TrieNode`]), so a matched triple costs its slot
//! writes and nothing else.
//!
//! The trie is walked once, on the calling thread: a server answers
//! different requests on different threads, never one request on several.
//! Rows go into one flat [`Rows`] block, and no row is ever a heap
//! allocation of its own. Under `DISTINCT` the block is kept a set — by
//! an [`IdSet`] (a bitset over `TermId` indexes once the answer is large)
//! for one-column rows, by a [`RowIndex`] otherwise — unless the plan
//! proves the rows distinct ([`plan_proves_distinct`]). A deduplicated
//! walk also takes the *witness cut*: once a node's path binds every
//! projected variable and nothing below it binds a `NOT EXISTS`
//! variable, the rest of its subtree can only repeat the row, so one
//! emission per match of that node is enough (see [`Walker`]). Both keep
//! the first-seen order of the distinct rows, so `LIMIT`/`OFFSET` slice
//! the same answer as an uncut walk.
//!
//! The answer multiset is exactly [`evaluate`](crate::evaluate)'s on the
//! classical union: a trie path *is* a branch's planned atom sequence,
//! leaf multiplicities keep duplicate counts, and a range admits exactly
//! the terms its union branches would have named.
//!
//! Every planned atom also names the graph it probes ([`Tag`]). A query
//! answer probes one graph everywhere; [`execute_delta`] — the change of
//! a standing query's answer — plans one term per atom and Δ-match, with
//! that atom on the changed triples, the atoms before it on the old graph
//! and the atoms after it on the new one, and walks the same trie.

use crate::ast::{Query, Variable};
use crate::eval::{passes_negation, Solutions};
use crate::plan::{plan_atoms, DistinctCounts};
use crate::range_eval::{IntervalQuery, RTerm, RangeAtom};
use crate::rows::{IdSet, RowIndex, Rows};
use obs::{CancelToken, CANCEL_POLL_STRIDE};
use rdf_model::{Graph, IntervalDict, IntervalSet, Pattern, TermId, Triple};
use std::cmp::Ordering;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Why a cancellable evaluation returned no answer.
#[derive(Debug)]
pub enum UnionEvalError {
    /// The request's [`CancelToken`] tripped — deadline exceeded or
    /// client gone. The partial rows were discarded whole; no counters
    /// for the abandoned pass were published, so a re-run is
    /// bit-identical to a fresh run.
    Cancelled,
}

impl fmt::Display for UnionEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnionEvalError::Cancelled => f.write_str("union evaluation cancelled"),
        }
    }
}

impl std::error::Error for UnionEvalError {}

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
    /// Wall-clock of planning and the trie walk, µs.
    pub eval_us: u64,
    /// Answer rows produced (after `DISTINCT`, before `finalize`).
    pub rows: usize,
    /// Triples the trie walk matched, after the witness cut (see
    /// [`Walker`]): the walk's work, against `rows` its yield.
    pub matched: u64,
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
            "{} branches ({} pruned, {} shared ≥1 prefix, {} scans saved), {} triples matched, eval {}µs",
            self.branches_total,
            self.branches_pruned,
            self.branches_shared,
            self.shared_prefix_scans(),
            self.matched,
            self.eval_us,
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
    /// The `plan` and `eval` child spans of `total`.
    phases: [Option<&'static str>; 2],
    cancelled: Option<&'static str>,
    publish: fn(&obs::Registry, &EvalStats),
}

const PLAIN: Family = Family {
    total: None,
    phases: [None; 2],
    cancelled: None,
    publish: |_, _| {},
};

const UNION: Family = Family {
    total: Some("sparql.union.total"),
    phases: [Some("sparql.union.plan"), Some("sparql.union.eval")],
    cancelled: Some("sparql.union.cancelled"),
    publish: publish_union,
};

const RANGE: Family = Family {
    total: Some("sparql.range.total"),
    phases: [None; 2],
    cancelled: Some("sparql.range.cancelled"),
    publish: publish_range,
};

/// Mirrors a finished union evaluation's [`EvalStats`] into the registry
/// under the `sparql.union.*` names.
fn publish_union(reg: &obs::Registry, stats: &EvalStats) {
    if !reg.is_enabled() {
        return;
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
    reg.add("sparql.union.matched", stats.matched);
}

/// Mirrors a finished interval evaluation's stats into the registry under
/// the `sparql.range.*` names.
fn publish_range(reg: &obs::Registry, stats: &EvalStats) {
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
    reg.add("sparql.range.matched", stats.matched);
}

/// Which of a run's three graphs an atom probes. A query answer passes
/// the same graph as all three; a delta run passes the graph before an
/// update, the update's triples and the graph after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tag {
    Old,
    Delta,
    New,
}

/// A planned atom and the graph it probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Step {
    atom: RangeAtom,
    graph: Tag,
}

/// Where a probe position's value comes from, fixed when the trie is
/// built: the variables an ancestor bound are known from the path.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A constant of the atom.
    Const(TermId),
    /// A variable an ancestor bound: its slot.
    Slot(usize),
    /// A variable this node binds: a wildcard.
    Free,
    /// A hierarchy range: a wildcard the walk restricts (see
    /// [`Walker::walk`]).
    Range(u16),
}

/// One node of the shared-prefix trie: a planned atom and its graph
/// compiled to its probe sources, slot writes and repeated-variable
/// checks, the branches ending exactly here (`leaf_mult`), whether a
/// match here fixes the answer row (`closes`), and the continuations.
struct TrieNode {
    step: Step,
    probe: [Src; 3],
    /// `(position, slot)` for each variable this node binds.
    binds: Vec<(usize, usize)>,
    /// Position pairs holding the same variable, unbound above this node
    /// (`?x p ?x`): the matched triple must agree on both.
    repeats: Vec<(usize, usize)>,
    /// Every variable bound once this node matched — the path's — so
    /// `NOT EXISTS` can tell bound slots from stale ones.
    bound: Vec<Variable>,
    leaf_mult: usize,
    /// Set only when the run deduplicates rows: the path binds every
    /// projected variable and no node below binds a `NOT EXISTS`
    /// variable, so every row emitted under one match of this node is the
    /// same row, kept or dropped by the same negation check.
    closes: bool,
    children: Vec<TrieNode>,
}

impl TrieNode {
    /// Compiles `step` under the variables its ancestors bound.
    fn compile(step: Step, above: &[Variable]) -> TrieNode {
        let mut probe = [Src::Free; 3];
        let mut binds = Vec::new();
        let mut repeats = Vec::new();
        let mut bound = above.to_vec();
        for (pos, term) in step.atom.positions().into_iter().enumerate() {
            probe[pos] = match term {
                RTerm::Const(c) => Src::Const(c),
                RTerm::Range(r) => Src::Range(r),
                RTerm::Var(v) if above.contains(&v) => Src::Slot(v.index()),
                RTerm::Var(v) => {
                    match binds.iter().find(|&&(_, slot)| slot == v.index()) {
                        Some(&(first, _)) => repeats.push((first, pos)),
                        None => {
                            binds.push((pos, v.index()));
                            bound.push(v);
                        }
                    }
                    Src::Free
                }
            };
        }
        TrieNode {
            step,
            probe,
            binds,
            repeats,
            bound,
            leaf_mult: 0,
            closes: false,
            children: Vec::new(),
        }
    }

    fn has_range(&self) -> bool {
        self.probe.iter().any(|src| matches!(src, Src::Range(_)))
    }

    /// Sets [`TrieNode::closes`] on this node and every node below it.
    /// Returns whether any of them binds one of `negated`.
    fn mark_closing(&mut self, projection: &[Variable], negated: &[Variable]) -> bool {
        let mut below = false;
        for child in &mut self.children {
            below |= child.mark_closing(projection, negated);
        }
        self.closes = !below && projection.iter().all(|v| self.bound.contains(v));
        below
            || self
                .binds
                .iter()
                .any(|&(_, slot)| negated.iter().any(|v| v.index() == slot))
    }
}

/// The trie of a run's planned branches.
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
    fn build(branches: &[Vec<Step>]) -> Trie {
        let mut trie = Trie::default();
        for seq in branches {
            if seq.is_empty() {
                trie.empty_mult += 1;
                continue;
            }
            let mut level = &mut trie.roots;
            let mut reused_any = false;
            let mut above: Vec<Variable> = Vec::new();
            for (depth, step) in seq.iter().enumerate() {
                let pos = match level.iter().position(|n| n.step == *step) {
                    Some(pos) => {
                        if depth == 0 {
                            reused_any = true;
                        }
                        pos
                    }
                    None => {
                        level.push(TrieNode::compile(*step, &above));
                        trie.nodes += 1;
                        level.len() - 1
                    }
                };
                let node = &mut level[pos];
                if depth + 1 == seq.len() {
                    node.leaf_mult += 1;
                }
                above.clone_from(&node.bound);
                level = &mut node.children;
            }
            if reused_any {
                trie.shared_branches += 1;
            }
        }
        trie
    }
}

/// The read-only inputs of a run.
#[derive(Clone, Copy)]
struct Job<'a> {
    /// The graphs a [`Tag`] picks from, in `Tag` order.
    graphs: [&'a Graph; 3],
    q: &'a Query,
    /// The range table `RTerm::Range` positions index into (empty unless
    /// the query is an interval rewriting).
    ranges: &'a [IntervalSet],
    dict: Option<&'a IntervalDict>,
    cancel: &'a CancelToken,
}

/// The trie walk: probe, write the node's slots, emit at leaves
/// (with multiplicity), recurse into continuations.
///
/// Slots are never unbound: a node reads only the slots its ancestors
/// wrote on the current path (its [`Src::Slot`] positions, fixed at
/// build time), so a stale value from a sibling path is overwritten
/// before it can be read. `emit` receives the path's bound variables for
/// the one reader that must see the rest as unbound, `NOT EXISTS`.
///
/// **Witness cut.** When the run deduplicates rows, a node that
/// [`closes`](TrieNode::closes) needs one witness per match, not every
/// derivation below it: at a leaf it emits and skips its children, which
/// could only repeat the row; otherwise it walks its children until the
/// first emission (`seeking`), which halts the whole subtree (`halted`),
/// and the node's remaining matches go on as before. The skipped rows are
/// duplicates of one already emitted at the same point of the walk, so
/// the distinct rows come out in the same first-seen order.
///
/// The token is polled on the first matched triple of the walk and then
/// every [`CANCEL_POLL_STRIDE`] matched triples, at any depth, so even a
/// single-branch query stops within a stride of the deadline. A tripped
/// token sets `cancelled` and every further match is skipped.
struct Walker<'a, E> {
    job: Job<'a>,
    slots: Vec<TermId>,
    emit: E,
    matched: usize,
    /// Inside the subtree of a closing node's match, looking for its
    /// first row.
    seeking: bool,
    /// The row was found: the rest of the subtree is skipped.
    halted: bool,
    cancelled: bool,
}

impl<E: FnMut(&[TermId], &[Variable], usize)> Walker<'_, E> {
    fn walk(&mut self, node: &TrieNode) {
        let Job { graphs, ranges, .. } = self.job;
        let g = graphs[node.step.graph as usize];
        let value = |src: Src| match src {
            Src::Const(c) => Some(c),
            Src::Slot(slot) => Some(self.slots[slot]),
            Src::Free | Src::Range(_) => None,
        };
        let mut probe = node.probe.map(value);
        let pattern = |probe: &[Option<TermId>; 3]| Pattern::new(probe[0], probe[1], probe[2]);
        // A range-free atom — every atom of a union or saturated query — is
        // one plain probe.
        let (Some(dict), true) = (self.job.dict, node.has_range()) else {
            g.for_each_match(&pattern(&probe), |t| self.step(node, t));
            return;
        };
        let mut ranged = node.probe.map(|src| match src {
            Src::Range(r) => Some(&ranges[usize::from(r)]),
            _ => None,
        });
        // Returns whether the walk halted, which ends a member enumeration.
        let mut scan = |probe: &[Option<TermId>; 3], checks: &[Option<&IntervalSet>; 3]| {
            g.for_each_match(&pattern(probe), |t| {
                let values = [t.s, t.p, t.o];
                if (0..3).all(|i| checks[i].is_none_or(|set| dict.contains(set, values[i]))) {
                    self.step(node, t);
                }
            });
            self.halted
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
                if scan(&probe, &ranged) {
                    break;
                }
            }
        } else {
            scan(&probe, &ranged);
        }
    }

    /// Processes one matched triple of a trie node's probe. Constant,
    /// slot and range positions were enforced by the probe; what is left
    /// is the repeated-variable check and the slot writes.
    #[inline]
    fn step(&mut self, node: &TrieNode, t: Triple) {
        if self.halted {
            return;
        }
        let poll = self.matched.is_multiple_of(CANCEL_POLL_STRIDE);
        if self.cancelled || (poll && self.job.cancel.is_cancelled()) {
            self.cancelled = true;
            return;
        }
        self.matched += 1;
        let values = [t.s, t.p, t.o];
        if node.repeats.iter().any(|&(a, b)| values[a] != values[b]) {
            return;
        }
        for &(pos, slot) in &node.binds {
            self.slots[slot] = values[pos];
        }
        if node.leaf_mult > 0 {
            (self.emit)(&self.slots, &node.bound, node.leaf_mult);
            if node.closes {
                self.halted = self.seeking;
                return;
            }
        }
        if node.closes && !self.seeking {
            self.seeking = true;
            self.walk_children(node);
            self.seeking = false;
            self.halted = false;
        } else {
            self.walk_children(node);
        }
    }

    fn walk_children(&mut self, node: &TrieNode) {
        for child in &node.children {
            self.walk(child);
            if self.halted {
                return;
            }
        }
    }
}

/// Builds the trie of the planned branches and walks it, collecting the
/// projected rows into one block. When `distinct`, the block is kept a
/// set — by an [`IdSet`] for one-column rows, by a [`RowIndex`] otherwise
/// — and the walk takes the witness cut (see [`Walker`]). Records the
/// trie's counters and the walk's matches in `stats`.
///
/// Cancellation is polled between trie roots and inside the walk (see
/// [`Walker`]). `None` means the token tripped: the partial rows are
/// dropped on return, so nothing of the abandoned pass survives.
fn walk_branches(
    job: Job<'_>,
    branches: &[Vec<Step>],
    distinct: bool,
    stats: &mut EvalStats,
) -> Option<Rows> {
    let Job {
        graphs, q, cancel, ..
    } = job;
    let mut trie = Trie::build(branches);
    stats.trie_nodes = trie.nodes;
    stats.branches_shared = trie.shared_branches;
    if distinct {
        let negated: Vec<Variable> = q.not_exists.iter().flat_map(|b| b.variables()).collect();
        for root in &mut trie.roots {
            root.mark_closing(&q.projection, &negated);
        }
    }
    let width = q.projection.len();
    // Under bag semantics both sets stay empty.
    let mut rows = Rows::new(width);
    let mut index = RowIndex::default();
    let mut ids = IdSet::default();
    // `NOT EXISTS` reads a binding in which only the path's variables are
    // bound; it is assembled per candidate row and cleared after.
    let mut negation: Vec<Option<TermId>> = vec![None; q.var_names.len()];
    let mut row: Vec<TermId> = Vec::with_capacity(width);
    let emit = |slots: &[TermId], bound: &[Variable], mult: usize| {
        if !q.not_exists.is_empty() {
            for &v in bound {
                negation[v.index()] = Some(slots[v.index()]);
            }
            let passes = passes_negation(graphs[Tag::New as usize], q, &negation);
            for &v in bound {
                negation[v.index()] = None;
            }
            if !passes {
                return;
            }
        }
        row.clear();
        row.extend(q.projection.iter().map(|v| slots[v.index()]));
        if distinct && width == 1 {
            ids.insert(&mut rows, row[0]);
        } else if distinct {
            index.insert(&mut rows, &row);
        } else {
            // A branch duplicated `mult` times contributes `mult` copies
            // (exactly like the per-branch evaluator).
            rows.push_copies(&row, mult);
        }
    };
    let mut walker = Walker {
        job,
        // Placeholders: every slot is written before it is read.
        slots: vec![TermId::from_index(0); q.var_names.len()],
        emit,
        matched: 0,
        seeking: false,
        halted: false,
        cancelled: false,
    };
    if trie.empty_mult > 0 {
        (walker.emit)(&walker.slots, &[], trie.empty_mult);
    }
    for root in &trie.roots {
        if cancel.is_cancelled() {
            return None;
        }
        walker.walk(root);
        if walker.cancelled {
            return None;
        }
    }
    stats.matched = walker.matched as u64;
    drop(walker);
    Some(rows)
}

/// Whether the plan alone proves the answer rows a set, so `DISTINCT`
/// needs no [`RowIndex`]: exactly one branch survives pruning, it holds
/// no range and at least one atom, and every variable it binds is
/// projected. A one-branch trie emits each match once (multiplicity 1);
/// two matches differ in some triple, and two distinct triples of one
/// atom under the same ancestor slots differ in a variable that atom
/// binds. With every bound variable projected, distinct solutions are
/// distinct rows.
fn plan_proves_distinct(q: &Query, branches: &[Vec<Step>]) -> bool {
    let [branch] = branches else {
        return false;
    };
    !branch.is_empty()
        && !branch.iter().any(|s| s.atom.has_range())
        && branch
            .iter()
            .flat_map(|s| s.atom.variables())
            .all(|v| q.projection.contains(&v))
}

/// Plans every branch that binds the whole projection (one distinct-counts
/// pass for the union), returning the planned sequences sorted, which
/// fixes the order of the trie's roots and so of the answer rows. `None`
/// if the token tripped between branches.
///
/// A delta run plans one term per atom `i` of a branch instead, skipping
/// the atoms with no match in Δ: atom `i` first, on Δ; an atom `j < i` of
/// the branch as written on the old graph, `j > i` on the new one (the
/// telescoping sum `q(new) − q(old) = Σᵢ old…old ⋈ Δᵢ ⋈ new…new`).
fn plan_branches<'b, A: Copy + Into<RangeAtom> + 'b>(
    job: Job<'_>,
    branches: impl ExactSizeIterator<Item = &'b [A]>,
    delta: bool,
    stats: &mut EvalStats,
) -> Option<Vec<Vec<Step>>> {
    let [_, changed, g] = job.graphs;
    let dc = DistinctCounts::of(g);
    stats.branches_total = branches.len();
    let mut planned = Vec::with_capacity(branches.len());
    for atoms in branches {
        // Branch boundary: a deadline that expires while planning a
        // hundreds-of-branches union stops before evaluation starts.
        if job.cancel.is_cancelled() {
            return None;
        }
        let binds = |v: &Variable| atoms.iter().any(|&a| a.into().variables().contains(v));
        if !job.q.projection.iter().all(binds) {
            stats.branches_pruned += 1;
            continue;
        }
        // One plan per branch; in a delta run, one per atom that matches Δ.
        let seeds = if delta { atoms.len() } else { 1 };
        for seed in (0..seeds).map(|i| delta.then_some(i)) {
            if seed.is_some_and(|i| changed.count(&skeleton(atoms[i].into())) == 0) {
                continue;
            }
            let plan = plan_atoms(g, &dc, atoms, job.ranges, job.dict, seed);
            let seq: Vec<Step> = plan
                .order
                .iter()
                .map(|&j| Step {
                    atom: atoms[j].into(),
                    graph: match seed.map(|i| j.cmp(&i)) {
                        Some(Ordering::Less) => Tag::Old,
                        Some(Ordering::Equal) => Tag::Delta,
                        _ => Tag::New,
                    },
                })
                .collect();
            stats.patterns_total += seq.len();
            stats.range_scans += seq.iter().filter(|s| s.atom.has_range()).count() as u64;
            planned.push(seq);
        }
    }
    planned.sort();
    Some(planned)
}

/// The probe of an atom's constants, every other position a wildcard.
fn skeleton(atom: RangeAtom) -> Pattern {
    let c = |t: RTerm| match t {
        RTerm::Const(c) => Some(c),
        _ => None,
    };
    Pattern::new(c(atom.s), c(atom.p), c(atom.o))
}

/// Evaluates `exe` with prefix sharing and range probes. Returns the
/// same answer multiset as [`evaluate`](crate::evaluate) on the classical
/// union (set-equal under `DISTINCT`, bag-equal otherwise), plus the
/// [`EvalStats`] describing how it got there.
///
/// Cooperative cancellation: `cancel` is polled between planned branches,
/// between trie roots and every [`CANCEL_POLL_STRIDE`] matched triples. A
/// tripped token aborts with [`UnionEvalError::Cancelled`]; no partial
/// rows escape and no counters for the abandoned pass are published
/// (except the family's `cancelled` tally), so an identical re-run
/// behaves bit-identically.
pub fn try_execute(
    g: &Graph,
    exe: Executable<'_>,
    cancel: &CancelToken,
) -> Result<(Solutions, EvalStats), UnionEvalError> {
    execute([g; 3], exe, false, cancel)
}

/// One half of the change of a standing query's bag answer from `old` to
/// `new`: with `delta` the triples of `new` missing from `old`, the
/// derivations gained; with `delta` the triples of `old` missing from
/// `new`, the derivations lost. Gained minus lost is exactly
/// `q(new) − q(old)`, and each returned row is one derivation (`DISTINCT`
/// is not applied). The work is one trie walk over one term per atom with
/// a match in `delta`: that atom probes `delta`, the atoms before it in
/// its branch `old`, those after it `new`. Filters and modifiers are the
/// caller's, as after [`try_execute`].
///
/// # Panics
/// If `q` has a `FILTER NOT EXISTS` group, which is non-monotone per
/// binding: a change can flip answers that no delta term seeds.
pub fn execute_delta(old: &Graph, delta: &Graph, new: &Graph, q: &Query) -> Solutions {
    assert!(q.not_exists.is_empty(), "NOT EXISTS has no delta form");
    let run = execute(
        [old, delta, new],
        Executable::Plain(q),
        true,
        &CancelToken::none(),
    );
    run.expect("a CancelToken::none() run never cancels").0
}

/// [`try_execute`] over three graphs, planning delta terms when `delta`.
fn execute(
    graphs: [&Graph; 3],
    exe: Executable<'_>,
    delta: bool,
    cancel: &CancelToken,
) -> Result<(Solutions, EvalStats), UnionEvalError> {
    let reg = obs::global();
    let (q, family, ranges, dict) = match exe {
        Executable::Plain(q) => (q, &PLAIN, &[][..], None),
        Executable::Union(q) => (q, &UNION, &[][..], None),
        Executable::Interval(iq) => (&iq.query, &RANGE, &iq.ranges[..], Some(&*iq.dict)),
    };
    let job = Job {
        graphs,
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
        Executable::Plain(q) | Executable::Union(q) => plan_branches(
            job,
            q.bgps.iter().map(|b| &b.patterns[..]),
            delta,
            &mut stats,
        ),
        Executable::Interval(iq) => {
            stats.branches_collapsed = iq.branches_collapsed;
            plan_branches(
                job,
                iq.branches.iter().map(|b| &b.atoms[..]),
                delta,
                &mut stats,
            )
        }
    }
    .ok_or_else(cancelled)?;
    drop(plan_span);

    let distinct = !delta && q.distinct && !plan_proves_distinct(q, &branches);
    let eval_span = span(family.phases[1]);
    let rows = walk_branches(job, &branches, distinct, &mut stats).ok_or_else(cancelled)?;
    stats.eval_us = eval_start.elapsed().as_micros() as u64;
    stats.rows = rows.len();
    drop(eval_span);
    (family.publish)(reg, &stats);

    let var_names = q
        .projection
        .iter()
        .map(|&v| q.var_name(v).to_owned())
        .collect();
    Ok((Solutions { var_names, rows }, stats))
}

/// [`try_execute`] without a deadline, which always answers.
pub(crate) fn run(g: &Graph, exe: Executable<'_>) -> (Solutions, EvalStats) {
    try_execute(g, exe, &CancelToken::none()).expect("a CancelToken::none() run never cancels")
}

/// Evaluates a reformulated union `q_ref`, publishing `sparql.union.*`.
pub fn evaluate_union(g: &Graph, q: &Query) -> (Solutions, EvalStats) {
    run(g, Executable::Union(q))
}

/// [`evaluate_union`] as a `Result`, with a thread count it ignores:
/// evaluation runs on the calling thread. The argument is kept only
/// because the benchmark trace calls this signature; the next change to
/// the benchmark drops it.
pub fn try_evaluate_union(
    g: &Graph,
    q: &Query,
    _threads: NonZeroUsize,
) -> Result<(Solutions, EvalStats), UnionEvalError> {
    try_execute(g, Executable::Union(q), &CancelToken::none())
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

    #[test]
    fn agrees_with_per_branch_evaluator_on_unions() {
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } UNION { ?x ex:knows ?y } }";
        for distinct in [false, true] {
            let (g, mut query) = fixture(q);
            query.distinct = distinct;
            let legacy = evaluate(&g, &query);
            let (got, stats) = evaluate_union(&g, &query);
            assert_eq!(
                got.sorted_rows(),
                legacy.sorted_rows(),
                "distinct={distinct}"
            );
            assert_eq!(stats.branches_total, 3);
            assert_eq!(stats.rows, got.len());
        }
    }

    #[test]
    fn shared_prefix_counts_scans_saved() {
        // Two branches sharing the same first planned atom must share a
        // trie node.
        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE \
                 { { ?x ex:knows ?y . ?y ex:hasFriend ?z } \
                   UNION { ?x ex:knows ?y . ?y a ex:Person } }";
        let (g, query) = fixture(q);
        let (got, stats) = evaluate_union(&g, &query);
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
            try_execute(&g, Executable::Plain(&q), &token)
        };
        // Polls: planning (1), the trie root (2), the 1st, 513th, 1025th
        // and 1537th matched triple (3-6). Trip 4 stops the walk of a
        // one-branch query midway.
        assert!(matches!(run(4), Err(UnionEvalError::Cancelled)));
        assert!(matches!(run(6), Err(UnionEvalError::Cancelled)));
        let (sols, _) = run(7).expect("a trip past every poll answers");
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
        let (got, stats) = evaluate_union(&g, &query);
        assert_eq!(got.sorted_rows(), legacy.sorted_rows());
        assert_eq!(stats.branches_total, 2);
        query.distinct = true;
        let (got, _) = evaluate_union(&g, &query);
        assert_eq!(got.len(), 2, "DISTINCT collapses the duplicate branch");
    }

    #[test]
    fn branches_missing_projection_vars_are_pruned() {
        let q = "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE \
                 { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }";
        let (g, query) = fixture(q);
        let (got, stats) = evaluate_union(&g, &query);
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
        let (got, stats) = evaluate_union(&g, &q);
        assert!(got.is_empty());
        assert_eq!(stats.rows, 0);
    }

    /// `FILTER NOT EXISTS` under a `UNION` whose branches bind different
    /// variables: the negated group mentions `?z`, which only the second
    /// branch binds, so under the first branch `?z` must be existential —
    /// never a value the walk left in its slot on the other branch.
    #[test]
    fn not_exists_sees_the_other_branchs_variables_as_unbound() {
        let data = r#"
            @prefix ex: <http://ex/> .
            ex:anne ex:hasFriend ex:marie .
            ex:marie ex:hasFriend ex:paul .
            ex:paul ex:hasFriend ex:anne .
            ex:bob ex:knows ex:anne .
            ex:carl ex:knows ex:marie .
        "#;
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(data, &mut dict, &mut g).expect("fixture parses");
        // Under `?x hasFriend ?y` the group asks "does anybody know ?y":
        // only `marie` (friend `paul`) survives. A stale `?z = carl` or
        // `?z = bob` would also let `paul` or `anne` through.
        let queries = [
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x ex:hasFriend ?y } \
             UNION { ?z ex:knows ?x } FILTER NOT EXISTS { ?z ex:knows ?y } }",
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?z ex:knows ?x } \
             UNION { ?x ex:hasFriend ?y } FILTER NOT EXISTS { ?z ex:knows ?y } }",
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?z ex:knows ?x } \
             UNION { ?x ex:hasFriend ?y . ?y ex:hasFriend ?w } \
             FILTER NOT EXISTS { ?z ex:knows ?y . ?z ex:knows ?w } }",
        ];
        let marie = dict.get_iri_id("http://ex/marie").unwrap();
        for (i, text) in queries.iter().enumerate() {
            let q = parse_query(text, &mut dict).expect("query parses");
            assert_eq!(q.not_exists.len(), 1);
            let want = evaluate(&g, &q).sorted_rows();
            if i < 2 {
                assert_eq!(want, vec![vec![marie]], "the oracle's answer");
            }
            let (got, _) = evaluate_union(&g, &q);
            assert_eq!(got.sorted_rows(), want, "query {i}");
        }
    }

    const DUPLICATES: &str = r#"
        @prefix ex: <http://ex/> .
        ex:anne ex:hasFriend ex:marie .
        ex:anne ex:hasFriend ex:paul .
        ex:paul ex:hasFriend ex:paul .
        ex:marie ex:hasFriend ex:marie .
        ex:anne a ex:Person .
    "#;

    /// Whether the plan of `text` over [`DUPLICATES`] skips `DISTINCT`,
    /// after checking that the answer equals `evaluate`'s as a set and
    /// holds no duplicate row.
    fn distinct_answer(text: &str) -> bool {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(DUPLICATES, &mut dict, &mut g).expect("fixture parses");
        let q = parse_query(text, &mut dict).expect("query parses");
        assert!(q.distinct, "{text}");
        let want = evaluate(&g, &q).sorted_rows();
        assert!(!want.is_empty(), "{text} has answers");
        let (got, _) = evaluate_union(&g, &q);
        let rows = got.sorted_rows();
        let mut set = rows.clone();
        set.dedup();
        assert_eq!(rows, set, "no duplicate row: {text}");
        assert_eq!(rows, want, "{text}");
        let cancel = CancelToken::none();
        let job = Job {
            graphs: [&g; 3],
            q: &q,
            ranges: &[],
            dict: None,
            cancel: &cancel,
        };
        let branches = plan_branches(
            job,
            q.bgps.iter().map(|b| &b.patterns[..]),
            false,
            &mut EvalStats::default(),
        )
        .expect("never cancelled");
        plan_proves_distinct(&q, &branches)
    }

    #[test]
    fn distinct_is_skipped_only_when_the_plan_proves_it() {
        let skips = [
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE { ?x ex:hasFriend ?x }",
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?y ?x WHERE { ?x ex:hasFriend ?y }",
            "PREFIX ex: <http://ex/> SELECT DISTINCT * WHERE { ex:anne ex:hasFriend ex:paul }",
            "PREFIX ex: <http://ex/> SELECT DISTINCT * WHERE \
             { ex:anne ex:hasFriend ex:paul . ex:anne a ex:Person }",
        ];
        for text in skips {
            assert!(distinct_answer(text), "the plan proves {text} distinct");
        }
        let dedups = [
            // `?y` is dropped: anne has two friends.
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE { ?x ex:hasFriend ?y }",
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE \
             { { ?x ex:hasFriend ?x } UNION { ?x ex:hasFriend ?x } }",
            "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE \
             { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }",
        ];
        for text in dedups {
            assert!(!distinct_answer(text), "{text} must deduplicate");
        }
    }

    /// Every row reaches a leaf through several derivations: `?y` and
    /// `?z` are left over once `?x` is bound, and three branches derive
    /// `anne` and `marie`.
    const WITNESSES: &str = r#"
        @prefix ex: <http://ex/> .
        ex:anne ex:hasFriend ex:marie .
        ex:anne ex:hasFriend ex:paul .
        ex:marie ex:hasFriend ex:paul .
        ex:marie ex:hasFriend ex:anne .
        ex:paul ex:hasFriend ex:anne .
        ex:anne a ex:Person .
        ex:marie a ex:Person .
        ex:anne ex:knows ex:bob .
        ex:paul ex:knows ex:bob .
        ex:bob ex:knows ex:carl .
    "#;

    /// `rows` without repeats, each kept where it first occurs.
    fn first_seen(rows: Vec<Vec<TermId>>) -> Vec<Vec<TermId>> {
        let mut seen = std::collections::HashSet::new();
        rows.into_iter()
            .filter(|r| seen.insert(r.clone()))
            .collect()
    }

    /// The witness cut and the one-column set keep the distinct rows in
    /// the order the uncut walk first emits them, so `LIMIT`/`OFFSET`
    /// slice the same answer. The pinned sequences are the executor's
    /// output before the cut.
    #[test]
    fn witness_cut_keeps_rows_and_their_order() {
        let cases = [
            (
                "SELECT DISTINCT ?x WHERE { { ?x ex:hasFriend ?y . ?y ex:hasFriend ?z } \
                 UNION { ?x a ex:Person } UNION { ?x ex:knows ?w } }",
                vec![vec!["marie"], vec!["paul"], vec!["anne"], vec!["bob"]],
            ),
            (
                "SELECT DISTINCT ?y ?x WHERE { ?x ex:hasFriend ?y . ?y ex:hasFriend ?z }",
                vec![
                    vec!["anne", "marie"],
                    vec!["anne", "paul"],
                    vec!["marie", "anne"],
                    vec!["paul", "anne"],
                    vec!["paul", "marie"],
                ],
            ),
        ];
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(WITNESSES, &mut dict, &mut g).expect("fixture parses");
        for (text, want) in cases {
            let text = format!("PREFIX ex: <http://ex/> {text}");
            let q = parse_query(&text, &mut dict).expect("query parses");
            let want: Vec<Vec<TermId>> = want
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|n| dict.get_iri_id(&format!("http://ex/{n}")).unwrap())
                        .collect()
                })
                .collect();
            let (got, stats) = evaluate_union(&g, &q);
            assert_eq!(got.rows.to_vecs(), want, "{text}");
            // The bag walk takes no cut: its first occurrences are the
            // order, and it matches strictly more triples.
            let mut bag = q.clone();
            bag.distinct = false;
            let (all, bag_stats) = evaluate_union(&g, &bag);
            assert_eq!(first_seen(all.rows.to_vecs()), want, "{text}");
            assert!(stats.matched < bag_stats.matched, "{text}: {stats:?}");
            let mut sliced = q.clone();
            sliced.modifiers.offset = 1;
            sliced.modifiers.limit = Some(2);
            let (got, _) = evaluate_union(&g, &sliced);
            let got = crate::finalize_read(got, &sliced, &dict);
            assert_eq!(got.rows.to_vecs(), want[1..3], "{text} LIMIT 2 OFFSET 1");
        }
    }

    /// A `NOT EXISTS` variable bound below a node that binds the whole
    /// projection keeps that node open: the first `?y` of `anne` fails
    /// the negation and a later one passes, the other way round for
    /// `marie`, so stopping at either's first witness would lose a row.
    #[test]
    fn not_exists_variables_bound_below_keep_the_walk_going() {
        let data = r#"
            @prefix ex: <http://ex/> .
            ex:anne a ex:Person .
            ex:marie a ex:Person .
            ex:f1 ex:knows ex:k .
            ex:f4 ex:knows ex:k .
            ex:anne ex:hasFriend ex:f1 .
            ex:anne ex:hasFriend ex:f2 .
            ex:marie ex:hasFriend ex:f3 .
            ex:marie ex:hasFriend ex:f4 .
            ex:f1 ex:likes ex:k .
            ex:f2 ex:likes ex:k .
            ex:f3 ex:likes ex:k .
            ex:f4 ex:likes ex:k .
        "#;
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(data, &mut dict, &mut g).expect("fixture parses");
        let text = "PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE \
                    { ?x a ex:Person . ?x ex:hasFriend ?y . ?y ex:likes ?v \
                      FILTER NOT EXISTS { ?y ex:knows ?z } }";
        let q = parse_query(text, &mut dict).expect("query parses");
        let want = evaluate(&g, &q).sorted_rows();
        assert_eq!(want.len(), 2, "both persons have a friend who knows nobody");
        let (got, stats) = run(&g, Executable::Plain(&q));
        assert_eq!(got.sorted_rows(), want);
        assert_eq!(stats.rows, 2);
    }

    /// `COUNT(*)` without `DISTINCT` counts every derivation: the walk
    /// deduplicates nothing, so it cuts nothing.
    #[test]
    fn count_without_distinct_counts_every_match() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(WITNESSES, &mut dict, &mut g).expect("fixture parses");
        let text = "PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE \
                    { { ?x ex:hasFriend ?y } UNION { ?x ex:hasFriend ?y . ?y a ex:Person } }";
        let q = parse_query(text, &mut dict).expect("query parses");
        assert!(!q.distinct);
        let (got, _) = evaluate_union(&g, &q);
        // 5 friendships, 3 of them with a typed friend.
        assert_eq!(got.len(), 8);
        assert_eq!(got.sorted_rows(), evaluate(&g, &q).sorted_rows());
        let n = crate::finalize(got, &q, &mut dict);
        let lexical = dict
            .decode(n.rows[0][0])
            .unwrap()
            .as_literal()
            .unwrap()
            .lexical();
        assert_eq!(lexical, "8");
    }

    #[test]
    fn stats_summary_renders() {
        let (g, query) = fixture(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE \
             { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }",
        );
        let (_, stats) = evaluate_union(&g, &query);
        let line = stats.summary();
        assert!(line.contains("2 branches"), "{line}");
        assert!(line.contains("5 triples matched"), "{line}");
        assert!(line.contains("eval "), "{line}");
    }
}
