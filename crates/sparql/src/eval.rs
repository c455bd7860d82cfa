//! BGP and union query evaluation (`q(G)`).
//!
//! Index nested-loop join over the planner's order: each triple pattern is
//! probed against the [`Graph`] index with every position that is a
//! constant or an already-bound variable fixed, and the remaining variables
//! bound from the matching triples. Unions evaluate each BGP independently;
//! `DISTINCT` switches from bag to set semantics (the answer-*set*
//! semantics the paper's query answering is defined with).

use crate::ast::{Aggregate, Bgp, QTerm, Query, TriplePattern, Variable};
use crate::plan::{plan_bgp, PlannedBgp};
use crate::rows::{count_distinct, Rows};
use rdf_model::{vocab, Dictionary, Graph, Literal, Pattern, Term, TermId, Triple};
use rustc_hash::FxHashSet;
use smallvec::SmallVec;
use std::cmp::Ordering;

/// The solutions of a query: one row per answer, holding the values of the
/// projected variables in projection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solutions {
    /// Names of the projected variables (without `?`).
    pub var_names: Vec<String>,
    /// Answer rows; `rows[i][j]` is the value of `var_names[j]` in answer `i`.
    pub rows: Rows,
}

impl Solutions {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there is no answer.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The answers as a set (order- and duplicate-insensitive), for
    /// comparing evaluation strategies.
    pub fn as_set(&self) -> FxHashSet<Vec<TermId>> {
        self.rows.iter().map(<[TermId]>::to_vec).collect()
    }

    /// The answers sorted lexicographically — deterministic output for
    /// tests and the bench harness.
    pub fn sorted_rows(&self) -> Vec<Vec<TermId>> {
        let mut rows = self.rows.to_vecs();
        rows.sort();
        rows
    }

    /// Renders each answer as `name=term` pairs, sorted, via `dict`.
    pub fn to_strings(&self, dict: &Dictionary) -> Vec<String> {
        let mut out: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.var_names)
                    .map(|(id, name)| {
                        let term = dict
                            .decode(*id)
                            .map_or_else(|| id.to_string(), |t| t.to_string());
                        format!("?{name}={term}")
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        out.sort();
        out
    }
}

/// Binds the variables of `tp` against the concrete triple `t`, pushing
/// newly-bound variables onto `touched`. Returns false on a repeated-variable
/// mismatch (e.g. `?x p ?x` matched against `a p b`).
#[inline]
fn bind_triple(
    tp: &TriplePattern,
    t: &Triple,
    binding: &mut [Option<TermId>],
    touched: &mut SmallVec<[Variable; 3]>,
) -> bool {
    for (qt, value) in [(tp.s, t.s), (tp.p, t.p), (tp.o, t.o)] {
        if let QTerm::Var(v) = qt {
            match binding[v.index()] {
                Some(bound) => {
                    if bound != value {
                        return false;
                    }
                }
                None => {
                    binding[v.index()] = Some(value);
                    touched.push(v);
                }
            }
        }
    }
    true
}

#[inline]
fn resolve(qt: QTerm, binding: &[Option<TermId>]) -> Option<TermId> {
    match qt {
        QTerm::Const(c) => Some(c),
        QTerm::Var(v) => binding[v.index()],
    }
}

fn eval_rec(
    g: &Graph,
    bgp: &Bgp,
    order: &[usize],
    depth: usize,
    binding: &mut Vec<Option<TermId>>,
    emit: &mut dyn FnMut(&[Option<TermId>]),
) {
    if depth == order.len() {
        emit(binding);
        return;
    }
    let tp = &bgp.patterns[order[depth]];
    let probe = Pattern::new(
        resolve(tp.s, binding),
        resolve(tp.p, binding),
        resolve(tp.o, binding),
    );
    g.for_each_match(&probe, |t| {
        let mut touched: SmallVec<[Variable; 3]> = SmallVec::new();
        if bind_triple(tp, &t, binding, &mut touched) {
            eval_rec(g, bgp, order, depth + 1, binding, emit);
        }
        for v in touched {
            binding[v.index()] = None;
        }
    });
}

fn exists_rec(
    g: &Graph,
    patterns: &[TriplePattern],
    depth: usize,
    binding: &mut [Option<TermId>],
) -> bool {
    let Some(tp) = patterns.get(depth) else {
        return true;
    };
    let probe = Pattern::new(
        resolve(tp.s, binding),
        resolve(tp.p, binding),
        resolve(tp.o, binding),
    );
    // Collect then test: early exit without aborting the index callback.
    let mut matches: Vec<Triple> = Vec::new();
    g.for_each_match(&probe, |t| matches.push(t));
    for t in matches {
        let mut touched: SmallVec<[Variable; 3]> = SmallVec::new();
        let ok = bind_triple(tp, &t, binding, &mut touched)
            && exists_rec(g, patterns, depth + 1, binding);
        for v in touched {
            binding[v.index()] = None;
        }
        if ok {
            return true;
        }
    }
    false
}

/// True if `bgp` has at least one match in `g` under the given (partial)
/// binding — the `FILTER NOT EXISTS` probe. Bound variables constrain the
/// search; unbound ones are existential.
pub fn bgp_has_match(g: &Graph, bgp: &Bgp, binding: &[Option<TermId>]) -> bool {
    let mut scratch: Vec<Option<TermId>> = binding.to_vec();
    // Ensure the scratch table covers the neg-pattern's variables.
    let max_var = bgp
        .patterns
        .iter()
        .flat_map(|tp| tp.variables())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    if scratch.len() < max_var {
        scratch.resize(max_var, None);
    }
    exists_rec(g, &bgp.patterns, 0, &mut scratch)
}

/// Applies the query's `NOT EXISTS` groups to a candidate binding.
#[inline]
pub(crate) fn passes_negation(g: &Graph, q: &Query, binding: &[Option<TermId>]) -> bool {
    q.not_exists
        .iter()
        .all(|neg| !bgp_has_match(g, neg, binding))
}

/// Evaluates a single BGP with an explicit plan, emitting every complete
/// variable binding. `n_vars` is the owning query's variable-table size.
pub fn evaluate_bgp_with_plan(
    g: &Graph,
    bgp: &Bgp,
    plan: &PlannedBgp,
    n_vars: usize,
    mut emit: impl FnMut(&[Option<TermId>]),
) {
    let mut binding: Vec<Option<TermId>> = vec![None; n_vars];
    eval_rec(g, bgp, &plan.order, 0, &mut binding, &mut emit);
}

/// Evaluates a single BGP (planning it first), returning complete bindings.
pub fn evaluate_bgp(g: &Graph, bgp: &Bgp, n_vars: usize) -> Vec<Vec<Option<TermId>>> {
    let plan = plan_bgp(g, bgp);
    let mut out = Vec::new();
    evaluate_bgp_with_plan(g, bgp, &plan, n_vars, |b| out.push(b.to_vec()));
    out
}

/// Evaluates a query (a union of BGPs) against `g` — plain *query
/// evaluation* in the paper's terms: only explicit triples of `g` are used.
///
/// A union branch that does not bind every projected variable contributes
/// no answers (the conjunctive fragment has no partial bindings).
pub fn evaluate(g: &Graph, q: &Query) -> Solutions {
    let mut rows = Rows::new(q.projection.len());
    // The reference evaluator keeps its own, independent duplicate check:
    // it is the oracle the executor's `DISTINCT` index is tested against.
    let mut seen: FxHashSet<Vec<TermId>> = FxHashSet::default();
    let mut row: Vec<TermId> = Vec::with_capacity(q.projection.len());
    for bgp in &q.bgps {
        let vars = bgp.variables();
        if !q.projection.iter().all(|v| vars.contains(v)) {
            continue;
        }
        let plan = plan_bgp(g, bgp);
        evaluate_bgp_with_plan(g, bgp, &plan, q.var_names.len(), |binding| {
            if !passes_negation(g, q, binding) {
                return;
            }
            row.clear();
            row.extend(
                q.projection
                    .iter()
                    .map(|v| binding[v.index()].expect("projected variable bound")),
            );
            if !q.distinct || seen.insert(row.clone()) {
                rows.push(&row);
            }
        });
    }
    let var_names = q
        .projection
        .iter()
        .map(|&v| q.var_name(v).to_owned())
        .collect();
    Solutions { var_names, rows }
}

/// SPARQL value ordering for `ORDER BY`: numeric literals compare by
/// value; otherwise terms compare by kind (IRI < literal < blank) then
/// lexically. Total and deterministic.
pub fn compare_terms(a: &Term, b: &Term) -> Ordering {
    fn numeric(t: &Term) -> Option<f64> {
        let lit = t.as_literal()?;
        match lit.datatype() {
            Some(vocab::XSD_INTEGER) | Some(vocab::XSD_DECIMAL) | Some(vocab::XSD_DOUBLE) => {
                lit.lexical().parse().ok()
            }
            _ => None,
        }
    }
    match (numeric(a), numeric(b)) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        _ => a.cmp(b),
    }
}

/// Applies a query's filters, aggregate and solution modifiers to raw
/// solutions: `FILTER`, then `COUNT`, then `ORDER BY`, then
/// `OFFSET`/`LIMIT`.
///
/// Separated from [`evaluate`] because filters, ordering and aggregate
/// literals need the dictionary — and so that they apply identically no
/// matter which reasoning strategy produced the solutions (the store calls
/// this once per answer). Only `COUNT` interns a term (its result
/// literal); a query without an aggregate can use [`finalize_read`].
pub fn finalize(mut sols: Solutions, q: &Query, dict: &mut Dictionary) -> Solutions {
    let Some(Aggregate::Count { distinct, alias }) = &q.aggregate else {
        return finalize_read(sols, q, dict);
    };
    apply_filters(&mut sols.rows, q, dict);
    let n = if *distinct {
        count_distinct(&sols.rows)
    } else {
        sols.len()
    };
    let id = dict.encode(&Term::Literal(Literal::typed(
        n.to_string(),
        vocab::XSD_INTEGER,
    )));
    Solutions {
        var_names: vec![alias.clone()],
        rows: Rows::from_rows(1, [[id]]),
    }
}

/// [`finalize`] for a query without an aggregate, which interns nothing
/// and so needs only read access to the dictionary.
///
/// # Panics
/// If `q` has an aggregate.
pub fn finalize_read(mut sols: Solutions, q: &Query, dict: &Dictionary) -> Solutions {
    assert!(
        q.aggregate.is_none(),
        "an aggregate interns its result: use `finalize`"
    );
    apply_filters(&mut sols.rows, q, dict);
    if q.modifiers.is_empty() {
        return sols;
    }
    if !q.modifiers.order_by.is_empty() {
        // Resolve each key to its column in the projected rows.
        let columns: Vec<(usize, bool)> = q
            .modifiers
            .order_by
            .iter()
            .map(|key| {
                let col = q
                    .projection
                    .iter()
                    .position(|&v| v == key.var)
                    .expect("parser guarantees ORDER BY keys are projected");
                (col, key.descending)
            })
            .collect();
        sols.rows.sort_by(|a, b| {
            for &(col, descending) in &columns {
                let (ta, tb) = (dict.decode(a[col]), dict.decode(b[col]));
                let ord = match (ta, tb) {
                    (Some(ta), Some(tb)) => compare_terms(ta, tb),
                    _ => Ordering::Equal,
                };
                let ord = if descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    sols.rows.skip(q.modifiers.offset);
    if let Some(limit) = q.modifiers.limit {
        sols.rows.truncate(limit);
    }
    sols
}

/// Keeps the rows that pass every `FILTER`.
fn apply_filters(rows: &mut Rows, q: &Query, dict: &Dictionary) {
    if q.filters.is_empty() {
        return;
    }
    // Filter variables are projected (parser restriction), so resolve
    // each side to a row column or a constant.
    let column = |v: Variable| -> usize {
        q.projection
            .iter()
            .position(|&p| p == v)
            .expect("parser: filter vars projected")
    };
    let checks: Vec<(usize, crate::ast::CompareOp, Result<usize, TermId>)> = q
        .filters
        .iter()
        .map(|f| {
            let right = match f.right {
                QTerm::Var(v) => Ok(column(v)),
                QTerm::Const(c) => Err(c),
            };
            (column(f.left), f.op, right)
        })
        .collect();
    rows.retain(|row| {
        checks.iter().all(|&(left, op, right)| {
            let lhs = row[left];
            let rhs = match right {
                Ok(col) => row[col],
                Err(c) => c,
            };
            // Interning makes id equality term equality; the ordered
            // operators use SPARQL value comparison.
            match op {
                crate::ast::CompareOp::Eq => lhs == rhs,
                crate::ast::CompareOp::Ne => lhs != rhs,
                _ => match (dict.decode(lhs), dict.decode(rhs)) {
                    (Some(a), Some(b)) => op.test(compare_terms(a, b)),
                    _ => false,
                },
            }
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use rdf_io::parse_turtle;

    fn setup(data: &str, query: &str) -> Solutions {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(data, &mut dict, &mut g).expect("fixture data parses");
        let q = parse_query(query, &mut dict).expect("fixture query parses");
        evaluate(&g, &q)
    }

    const DATA: &str = r#"
        @prefix ex: <http://ex/> .
        ex:anne ex:hasFriend ex:marie .
        ex:marie ex:hasFriend ex:paul .
        ex:paul ex:hasFriend ex:anne .
        ex:anne a ex:Person .
        ex:marie a ex:Person .
        ex:bob ex:knows ex:anne .
        ex:anne ex:age 31 .
    "#;

    #[test]
    fn single_pattern() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ex:marie }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn two_hop_join() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:hasFriend ?y . ?y ex:hasFriend ?z }",
        );
        assert_eq!(s.len(), 3, "friend-of-friend over the 3-cycle");
    }

    #[test]
    fn join_with_type_filter() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ?y . ?x a ex:Person }",
        );
        assert_eq!(s.len(), 2, "anne and marie; paul has no type");
    }

    #[test]
    fn variable_in_property_position() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?p WHERE { ex:bob ?p ex:anne }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn literal_object() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:age 31 }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn repeated_variable_self_join() {
        // ?x ex:hasFriend ?x — nobody is their own friend in DATA.
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ?x }",
        );
        assert!(s.is_empty());
        // add a self-loop and check it is found
        let s = setup(
            &format!("{DATA}\nex:solo ex:hasFriend ex:solo ."),
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ?x }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn no_match_returns_empty() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:nonexistent ?y }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x a ex:Person . ?y ex:knows ex:anne }",
        );
        assert_eq!(s.len(), 2, "2 persons × 1 knower");
    }

    #[test]
    fn union_bag_and_set_semantics() {
        // Pins SPARQL union semantics for BOTH evaluators: under bag
        // semantics (`distinct=false`) each branch contributes its full
        // bag — a solution produced by two overlapping branches appears
        // twice, and a duplicated branch doubles its solutions. The
        // shared-prefix evaluator must NOT deduplicate what its trie
        // happens to share; it keeps a leaf multiplicity instead.
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        rdf_io::parse_turtle(DATA, &mut dict, &mut g).unwrap();

        let q = "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x ex:hasFriend ?y } UNION { ?x a ex:Person } }";
        let bag_q = crate::parse_query(q, &mut dict).unwrap();
        let bag = evaluate(&g, &bag_q);
        assert_eq!(
            bag.len(),
            5,
            "3 friendship subjects + 2 typed, duplicates kept"
        );
        let (union_bag, _) = crate::evaluate_union(&g, &bag_q);
        assert_eq!(union_bag.sorted_rows(), bag.sorted_rows());

        let set_q = crate::parse_query(&q.replace("SELECT", "SELECT DISTINCT"), &mut dict).unwrap();
        let set = evaluate(&g, &set_q);
        assert_eq!(set.len(), 3, "anne, marie, paul");
        let (union_set, _) = crate::evaluate_union(&g, &set_q);
        assert_eq!(union_set.sorted_rows(), set.sorted_rows());

        // Overlapping-branch edge: the same branch twice. Bag semantics
        // double-counts; DISTINCT collapses. Both evaluators agree.
        let dup = "PREFIX ex: <http://ex/> SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Person } }";
        let dup_q = crate::parse_query(dup, &mut dict).unwrap();
        let dup_bag = evaluate(&g, &dup_q);
        assert_eq!(dup_bag.len(), 4, "2 persons × 2 identical branches");
        let (union_dup, _) = crate::evaluate_union(&g, &dup_q);
        assert_eq!(union_dup.sorted_rows(), dup_bag.sorted_rows());
    }

    #[test]
    fn distinct_collapses_duplicates() {
        let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?y WHERE { ?x ex:hasFriend ?y . ?y a ex:Person }";
        let s = setup(DATA, q);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_branch_missing_projection_var_is_skipped() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(DATA, &mut dict, &mut g).unwrap();
        let mut q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:hasFriend ?y }",
            &mut dict,
        )
        .unwrap();
        // Manually add a branch that lacks ?y.
        let knows = QTerm::Const(dict.encode_iri("http://ex/knows"));
        q.bgps.push(Bgp::new(vec![TriplePattern::new(
            QTerm::Var(Variable(0)),
            knows,
            QTerm::Var(Variable(0)),
        )]));
        let s = evaluate(&g, &q);
        assert_eq!(s.len(), 3, "only the complete branch contributes");
    }

    #[test]
    fn ground_pattern_acts_as_filter() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . ex:anne ex:hasFriend ex:marie }",
        );
        assert_eq!(s.len(), 2);
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . ex:anne ex:hasFriend ex:paul }",
        );
        assert!(s.is_empty(), "false ground pattern empties the result");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Reference evaluator: try every assignment of graph terms to
        /// variables (exponential, only viable on tiny instances).
        fn brute_force(g: &Graph, q: &Query) -> FxHashSet<Vec<TermId>> {
            let mut universe: Vec<TermId> = Vec::new();
            for t in g.iter() {
                for id in [t.s, t.p, t.o] {
                    if !universe.contains(&id) {
                        universe.push(id);
                    }
                }
            }
            let n = q.var_names.len();
            let mut out = FxHashSet::default();
            let mut assignment = vec![None::<TermId>; n];
            fn rec(
                g: &Graph,
                q: &Query,
                universe: &[TermId],
                assignment: &mut Vec<Option<TermId>>,
                var: usize,
                out: &mut FxHashSet<Vec<TermId>>,
            ) {
                if var == assignment.len() {
                    let resolve = |t: QTerm| match t {
                        QTerm::Const(c) => c,
                        QTerm::Var(v) => assignment[v.index()].unwrap(),
                    };
                    for bgp in &q.bgps {
                        let ok = bgp.patterns.iter().all(|tp| {
                            g.contains(&Triple::new(resolve(tp.s), resolve(tp.p), resolve(tp.o)))
                        });
                        if ok && !bgp.patterns.is_empty() {
                            out.insert(
                                q.projection
                                    .iter()
                                    .map(|v| assignment[v.index()].unwrap())
                                    .collect(),
                            );
                            return;
                        }
                    }
                    return;
                }
                for &id in universe {
                    assignment[var] = Some(id);
                    rec(g, q, universe, assignment, var + 1, out);
                }
                assignment[var] = None;
            }
            if !universe.is_empty() {
                rec(g, q, &universe, &mut assignment, 0, &mut out);
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// The planned index-nested-loop evaluator agrees with the
            /// brute-force reference on random tiny graphs and queries.
            #[test]
            fn evaluator_matches_brute_force(
                triples in proptest::collection::vec((0usize..5, 0usize..3, 0usize..5), 1..10),
                atoms in proptest::collection::vec((0u16..3, 0usize..3, 0u16..3), 1..3),
            ) {
                let mut dict = Dictionary::new();
                let mut g = Graph::new();
                let node = |d: &mut Dictionary, i: usize| d.encode_iri(&format!("http://n/{i}"));
                let prop = |d: &mut Dictionary, i: usize| d.encode_iri(&format!("http://p/{i}"));
                for &(s, p, o) in &triples {
                    let t = Triple::new(node(&mut dict, s), prop(&mut dict, p), node(&mut dict, o));
                    g.insert(t);
                }
                // Query: variables 0..3, constant properties (keeps the
                // brute-force universe small but exercises joins).
                let patterns: Vec<TriplePattern> = atoms
                    .iter()
                    .map(|&(sv, p, ov)| {
                        TriplePattern::new(
                            QTerm::Var(Variable(sv)),
                            QTerm::Const(prop(&mut dict, p)),
                            QTerm::Var(Variable(ov)),
                        )
                    })
                    .collect();
                let used: std::collections::BTreeSet<u16> =
                    patterns.iter().flat_map(|tp| tp.variables()).map(|v| v.0).collect();
                let max_var = *used.iter().max().unwrap() as usize;
                let q = Query::conjunctive(
                    (0..=max_var).map(|i| format!("v{i}")).collect(),
                    used.iter().map(|&v| Variable(v)).collect(),
                    true,
                    Bgp::new(patterns),
                );
                let got = evaluate(&g, &q).as_set();
                // Brute force enumerates only *used* variables; unused slots
                // don't exist here because projection == used vars.
                let want = brute_force(&g, &q);
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn planned_and_textual_orders_agree() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(DATA, &mut dict, &mut g).unwrap();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:hasFriend ?y . ?y ex:hasFriend ?z . ?x a ex:Person }",
            &mut dict,
        )
        .unwrap();
        let planned = evaluate(&g, &q).as_set();
        // Evaluate with the trivial textual order.
        let mut rows = FxHashSet::default();
        let plan = crate::plan::plan_textual(&q.bgps[0]);
        evaluate_bgp_with_plan(&g, &q.bgps[0], &plan, q.var_names.len(), |b| {
            rows.insert(
                q.projection
                    .iter()
                    .map(|v| b[v.index()].unwrap())
                    .collect::<Vec<_>>(),
            );
        });
        assert_eq!(planned, rows, "join order must not change the answers");
    }

    fn finalized(data: &str, query: &str) -> (Solutions, Dictionary) {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(data, &mut dict, &mut g).expect("fixture data parses");
        let q = parse_query(query, &mut dict).expect("fixture query parses");
        let sols = evaluate(&g, &q);
        (finalize(sols, &q, &mut dict), dict)
    }

    const AGES: &str = r#"
        @prefix ex: <http://ex/> .
        ex:anne  ex:age 31 .
        ex:bob   ex:age 9 .
        ex:carol ex:age 120 .
    "#;

    #[test]
    fn order_by_numeric_not_lexicographic() {
        let (s, d) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a } ORDER BY ?a",
        );
        let ages: Vec<String> = s
            .rows
            .iter()
            .map(|r| {
                d.decode(r[1])
                    .unwrap()
                    .as_literal()
                    .unwrap()
                    .lexical()
                    .to_owned()
            })
            .collect();
        assert_eq!(ages, vec!["9", "31", "120"], "numeric, not string, order");
    }

    #[test]
    fn order_by_desc_and_iri_keys() {
        let (s, d) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a } ORDER BY DESC(?x)",
        );
        let names: Vec<&str> = s
            .rows
            .iter()
            .map(|r| d.decode(r[0]).unwrap().as_iri().unwrap())
            .collect();
        assert_eq!(
            names,
            vec!["http://ex/carol", "http://ex/bob", "http://ex/anne"]
        );
    }

    #[test]
    fn limit_and_offset() {
        let (s, _) = finalized(AGES, "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1");
        assert_eq!(s.len(), 1);
        let (s, _) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:age ?a } OFFSET 10",
        );
        assert!(s.is_empty(), "offset past the end");
        let (s, _) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:age ?a } LIMIT 0",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn count_aggregate_plain_and_distinct() {
        let data = format!("{AGES}\nex:anne ex:age 32 .");
        let (s, d) = finalized(
            &data,
            "PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?x ex:age ?a }",
        );
        assert_eq!(s.var_names, vec!["n"]);
        assert_eq!(
            d.decode(s.rows[0][0])
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "4"
        );
        // distinct subjects only
        let (s, d) = finalized(
            &data,
            "PREFIX ex: <http://ex/> SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?x ex:age ?a }",
        );
        assert_eq!(
            d.decode(s.rows[0][0])
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "4"
        );
        // count of an empty result is 0, still one row
        let (s, d) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?x ex:nope ?a }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            d.decode(s.rows[0][0])
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "0"
        );
    }

    #[test]
    fn filters_numeric_and_term_comparisons() {
        let (s, d) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a . FILTER (?a > 30) } ORDER BY ?a",
        );
        assert_eq!(s.len(), 2, "31 and 120 (numeric, not lexicographic)");
        let ages: Vec<&str> = s
            .rows
            .iter()
            .map(|r| d.decode(r[1]).unwrap().as_literal().unwrap().lexical())
            .collect();
        assert_eq!(ages, vec!["31", "120"]);

        let (s, _) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a . FILTER (?x != ex:bob) }",
        );
        assert_eq!(s.len(), 2);

        let (s, _) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:age ?a . FILTER (?a = 9) }",
        );
        assert_eq!(s.len(), 1);

        // filters compose with COUNT
        let (s, d) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?x ex:age ?a . FILTER (?a <= 31) }",
        );
        assert_eq!(
            d.decode(s.rows[0][0])
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "2"
        );
    }

    #[test]
    fn not_exists_negation() {
        let data = r#"
            @prefix ex: <http://ex/> .
            ex:anne a ex:Person . ex:bob a ex:Person . ex:carol a ex:Person .
            ex:bob ex:banned ex:forever .
        "#;
        let s = setup(
            data,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . FILTER NOT EXISTS { ?x ex:banned ?r } }",
        );
        assert_eq!(s.len(), 2, "bob is excluded");
        // double negation sanity: only bob has a ban
        let s = setup(
            data,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . FILTER NOT EXISTS { ?x a ex:Person } }",
        );
        assert!(s.is_empty(), "self-contradictory filter removes everything");
        // NOT EXISTS with a join inside
        let s = setup(
            data,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Person . FILTER NOT EXISTS { ?x ex:banned ex:forever } }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bgp_has_match_with_partial_bindings() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(DATA, &mut dict, &mut g).unwrap();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ?y }",
            &mut dict,
        )
        .unwrap();
        let anne = dict.get_iri_id("http://ex/anne").unwrap();
        let bob = dict.get_iri_id("http://ex/bob").unwrap();
        // ?x bound to anne: a friendship edge exists
        assert!(bgp_has_match(&g, &q.bgps[0], &[Some(anne), None]));
        // ?x bound to bob: bob knows but has no hasFriend edge
        assert!(!bgp_has_match(&g, &q.bgps[0], &[Some(bob), None]));
        // unbound: some edge exists
        assert!(bgp_has_match(&g, &q.bgps[0], &[None, None]));
    }

    #[test]
    fn variable_to_variable_filter() {
        let data = r#"
            @prefix ex: <http://ex/> .
            ex:a ex:age 10 . ex:a ex:limit 20 .
            ex:b ex:age 30 . ex:b ex:limit 25 .
        "#;
        let (s, d) = finalized(
            data,
            "PREFIX ex: <http://ex/> SELECT ?x ?a ?l WHERE { ?x ex:age ?a . ?x ex:limit ?l . FILTER (?a < ?l) }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            d.decode(s.rows[0][0]).unwrap().as_iri(),
            Some("http://ex/a")
        );
    }

    #[test]
    fn finalize_without_modifiers_is_identity() {
        let (s, _) = finalized(
            AGES,
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:age ?a }",
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn compare_terms_semantics() {
        use rdf_model::Literal;
        let int = |n: &str| Term::Literal(Literal::typed(n, vocab::XSD_INTEGER));
        let dec = |n: &str| Term::Literal(Literal::typed(n, vocab::XSD_DECIMAL));
        assert_eq!(compare_terms(&int("9"), &int("31")), Ordering::Less);
        assert_eq!(
            compare_terms(&int("10"), &dec("9.5")),
            Ordering::Greater,
            "cross-type numeric"
        );
        assert_eq!(
            compare_terms(&Term::iri("a"), &Term::literal("a")),
            Ordering::Less,
            "IRI before literal"
        );
        assert_eq!(
            compare_terms(&Term::literal("a"), &Term::blank("a")),
            Ordering::Less
        );
        assert_eq!(compare_terms(&int("5"), &int("5")), Ordering::Equal);
    }

    #[test]
    fn solutions_helpers() {
        let s = setup(
            DATA,
            "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE { ?x ex:hasFriend ?y }",
        );
        assert_eq!(s.sorted_rows().len(), 3);
        assert_eq!(s.as_set().len(), 3);
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        parse_turtle(DATA, &mut dict, &mut g).unwrap();
        let q = parse_query(
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:hasFriend ex:marie }",
            &mut dict,
        )
        .unwrap();
        let strings = evaluate(&g, &q).to_strings(&dict);
        assert_eq!(strings, vec!["?x=<http://ex/anne>"]);
    }
}
