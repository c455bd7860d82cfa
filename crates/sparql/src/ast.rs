//! Query AST: variables, triple patterns, BGPs and union queries.

use rdf_model::{Dictionary, TermId};
use rustc_hash::FxHashSet;
use smallvec::SmallVec;
use std::fmt;

/// A query variable, identified by its index in the owning query's
/// variable table. Two occurrences of `?x` in one query share an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub u16);

impl Variable {
    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A position in a triple pattern: a variable or a constant term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QTerm {
    /// A named variable.
    Var(Variable),
    /// A dictionary-encoded constant.
    Const(TermId),
}

impl QTerm {
    /// The variable, if this position holds one.
    #[inline]
    pub fn as_var(self) -> Option<Variable> {
        match self {
            QTerm::Var(v) => Some(v),
            QTerm::Const(_) => None,
        }
    }

    /// The constant, if this position holds one.
    #[inline]
    pub fn as_const(self) -> Option<TermId> {
        match self {
            QTerm::Const(c) => Some(c),
            QTerm::Var(_) => None,
        }
    }
}

/// One triple pattern `s p o` of a BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TriplePattern {
    /// Subject position.
    pub s: QTerm,
    /// Property position.
    pub p: QTerm,
    /// Object position.
    pub o: QTerm,
}

impl TriplePattern {
    /// Builds a pattern from its three positions.
    pub fn new(s: QTerm, p: QTerm, o: QTerm) -> Self {
        TriplePattern { s, p, o }
    }

    /// The variables of this pattern, in s/p/o order, possibly repeated.
    pub fn variables(&self) -> SmallVec<[Variable; 3]> {
        [self.s, self.p, self.o]
            .iter()
            .filter_map(|t| t.as_var())
            .collect()
    }
}

/// A basic graph pattern: a conjunction of triple patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bgp {
    /// The conjuncts.
    pub patterns: Vec<TriplePattern>,
}

impl Bgp {
    /// Builds a BGP from patterns.
    pub fn new(patterns: Vec<TriplePattern>) -> Self {
        Bgp { patterns }
    }

    /// The set of distinct variables used in this BGP.
    pub fn variables(&self) -> FxHashSet<Variable> {
        self.patterns.iter().flat_map(|p| p.variables()).collect()
    }

    /// A canonical key identifying this BGP up to conjunct order: the
    /// sorted, deduplicated pattern list. Reformulation uses it to avoid
    /// re-deriving the same rewriting.
    pub fn canonical(&self) -> Bgp {
        let mut patterns = self.patterns.clone();
        patterns.sort();
        patterns.dedup();
        Bgp { patterns }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderKey {
    /// The variable ordered on (must be projected).
    pub var: Variable,
    /// `DESC(?v)` ordering.
    pub descending: bool,
}

/// SPARQL 1.1 solution modifiers (`ORDER BY`, `LIMIT`, `OFFSET`) — beyond
/// the paper's BGP core, applied after solution enumeration and therefore
/// orthogonal to the reasoning technique (they carry through
/// reformulation unchanged).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Modifiers {
    /// Sort keys, applied in order.
    pub order_by: Vec<OrderKey>,
    /// Maximum number of solutions returned.
    pub limit: Option<usize>,
    /// Solutions skipped before returning.
    pub offset: usize,
}

impl Modifiers {
    /// True when no modifier is set.
    pub fn is_empty(&self) -> bool {
        self.order_by.is_empty() && self.limit.is_none() && self.offset == 0
    }
}

/// A comparison operator in a `FILTER` expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Applies the operator to an ordering result.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CompareOp::Eq, Equal)
                | (CompareOp::Ne, Less | Greater)
                | (CompareOp::Lt, Less)
                | (CompareOp::Le, Less | Equal)
                | (CompareOp::Gt, Greater)
                | (CompareOp::Ge, Greater | Equal)
        )
    }

    /// The SPARQL token.
    pub fn token(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        }
    }
}

/// A `FILTER (?v op term)` constraint (SPARQL 1.1, beyond the BGP core).
///
/// Restriction (documented in the parser): every filter variable must be
/// projected, so filters commute with projection and are applied uniformly
/// by `eval::finalize` regardless of the reasoning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Filter {
    /// The left-hand variable.
    pub left: Variable,
    /// The comparison.
    pub op: CompareOp,
    /// The right-hand side: a variable or a constant.
    pub right: QTerm,
}

/// An aggregate SELECT expression (SPARQL 1.1 `COUNT`, the aggregate the
/// paper names in §II-B when contrasting dialect expressiveness).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `COUNT(*)` / `COUNT(DISTINCT *)`: number of (distinct) solutions,
    /// bound to the alias variable name.
    Count {
        /// Count distinct solutions only.
        distinct: bool,
        /// The `AS ?alias` name (without `?`).
        alias: String,
    },
}

/// A SPARQL BGP query, possibly with a union body.
///
/// The original queries of the paper have a single BGP; reformulation
/// produces a union of BGPs (`q_ref`), which this same type represents, so
/// both run through the one evaluator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Variable names, indexed by [`Variable`]; names exclude the leading `?`.
    pub var_names: Vec<String>,
    /// The SELECT list.
    pub projection: Vec<Variable>,
    /// Whether `DISTINCT` was requested (answer-*set* semantics).
    pub distinct: bool,
    /// The union of BGPs; a plain conjunctive query has exactly one.
    pub bgps: Vec<Bgp>,
    /// `FILTER` constraints, applied by `eval::finalize` (conjunctive).
    pub filters: Vec<Filter>,
    /// `FILTER NOT EXISTS { … }` groups (SPARQL 1.1 negation — "SPARQL
    /// 1.1 supports aggregates, negation etc.", §II-B). Each BGP must
    /// have **no** match under the solution's bindings; checked during
    /// evaluation against the same graph the query runs on, which is why
    /// reformulation rejects negated queries (the inner pattern would
    /// probe the unsaturated graph — the "subtle interplay between the
    /// RDF and SPARQL dialects" the paper describes).
    pub not_exists: Vec<Bgp>,
    /// Solution modifiers, applied by `eval::finalize`.
    pub modifiers: Modifiers,
    /// Aggregate SELECT expression, if any (replaces the projection).
    pub aggregate: Option<Aggregate>,
}

impl Query {
    /// Builds a single-BGP query.
    pub fn conjunctive(
        var_names: Vec<String>,
        projection: Vec<Variable>,
        distinct: bool,
        bgp: Bgp,
    ) -> Self {
        Query {
            var_names,
            projection,
            distinct,
            bgps: vec![bgp],
            filters: Vec::new(),
            not_exists: Vec::new(),
            modifiers: Modifiers::default(),
            aggregate: None,
        }
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: Variable) -> &str {
        &self.var_names[v.index()]
    }

    /// Total number of triple patterns across the union.
    pub fn pattern_count(&self) -> usize {
        self.bgps.iter().map(|b| b.patterns.len()).sum()
    }

    /// Replaces the body with a union of BGPs (used by reformulation),
    /// keeping projection, variable names, modifiers and aggregate.
    pub fn with_bgps(&self, bgps: Vec<Bgp>) -> Query {
        Query {
            var_names: self.var_names.clone(),
            projection: self.projection.clone(),
            distinct: self.distinct,
            bgps,
            filters: self.filters.clone(),
            not_exists: self.not_exists.clone(),
            modifiers: self.modifiers.clone(),
            aggregate: self.aggregate.clone(),
        }
    }

    /// Serialises the query to SPARQL text. Constants are decoded via
    /// `dict`; unknown ids render as `#<n>` (they cannot occur for queries
    /// built against the same dictionary).
    pub fn to_sparql(&self, dict: &Dictionary) -> String {
        let term = |t: QTerm| -> String {
            match t {
                QTerm::Var(v) => format!("?{}", self.var_name(v)),
                QTerm::Const(id) => dict
                    .decode(id)
                    .map_or_else(|| format!("{id}"), |tm| tm.to_string()),
            }
        };
        let bgp_text = |bgp: &Bgp| -> String {
            let pats: Vec<String> = bgp
                .patterns
                .iter()
                .map(|p| format!("{} {} {}", term(p.s), term(p.p), term(p.o)))
                .collect();
            format!("{{ {} }}", pats.join(" . "))
        };
        let mut out = String::from("SELECT ");
        if self.distinct {
            out.push_str("DISTINCT ");
        }
        match &self.aggregate {
            Some(Aggregate::Count { distinct, alias }) => {
                let inner = if *distinct { "DISTINCT *" } else { "*" };
                out.push_str(&format!("(COUNT({inner}) AS ?{alias})"));
            }
            None if self.projection.is_empty() => out.push('*'),
            None => {
                let names: Vec<String> = self
                    .projection
                    .iter()
                    .map(|&v| format!("?{}", self.var_name(v)))
                    .collect();
                out.push_str(&names.join(" "));
            }
        }
        out.push_str(" WHERE ");
        let mut filter_text: String = self
            .filters
            .iter()
            .map(|f| {
                format!(
                    " FILTER (?{} {} {})",
                    self.var_name(f.left),
                    f.op.token(),
                    term(f.right)
                )
            })
            .collect();
        for neg in &self.not_exists {
            filter_text.push_str(" FILTER NOT EXISTS ");
            filter_text.push_str(&bgp_text(neg));
        }
        if self.bgps.len() == 1 {
            let body = bgp_text(&self.bgps[0]);
            if filter_text.is_empty() {
                out.push_str(&body);
            } else {
                // splice the filters inside the group
                out.push_str(body.strip_suffix(" }").unwrap_or(&body));
                out.push_str(&filter_text);
                out.push_str(" }");
            }
        } else {
            let parts: Vec<String> = self.bgps.iter().map(bgp_text).collect();
            out.push_str("{ ");
            out.push_str(&parts.join(" UNION "));
            out.push_str(&filter_text);
            out.push_str(" }");
        }
        if !self.modifiers.order_by.is_empty() {
            out.push_str(" ORDER BY");
            for key in &self.modifiers.order_by {
                if key.descending {
                    out.push_str(&format!(" DESC(?{})", self.var_name(key.var)));
                } else {
                    out.push_str(&format!(" ?{}", self.var_name(key.var)));
                }
            }
        }
        if let Some(limit) = self.modifiers.limit {
            out.push_str(&format!(" LIMIT {limit}"));
        }
        if self.modifiers.offset > 0 {
            out.push_str(&format!(" OFFSET {}", self.modifiers.offset));
        }
        out
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn v(i: u16) -> QTerm {
        QTerm::Var(Variable(i))
    }

    #[test]
    fn qterm_accessors() {
        let mut d = Dictionary::new();
        let c = d.encode(&Term::iri("http://x"));
        assert_eq!(QTerm::Const(c).as_const(), Some(c));
        assert_eq!(QTerm::Const(c).as_var(), None);
        assert_eq!(v(3).as_var(), Some(Variable(3)));
        assert_eq!(v(3).as_const(), None);
    }

    #[test]
    fn pattern_and_bgp_variables() {
        let mut d = Dictionary::new();
        let p = d.encode(&Term::iri("http://p"));
        let tp = TriplePattern::new(v(0), QTerm::Const(p), v(1));
        assert_eq!(tp.variables().as_slice(), &[Variable(0), Variable(1)]);
        let bgp = Bgp::new(vec![tp, TriplePattern::new(v(1), QTerm::Const(p), v(2))]);
        let vars = bgp.variables();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn canonical_ignores_order_and_duplicates() {
        let mut d = Dictionary::new();
        let p = d.encode(&Term::iri("http://p"));
        let a = TriplePattern::new(v(0), QTerm::Const(p), v(1));
        let b = TriplePattern::new(v(1), QTerm::Const(p), v(2));
        let b1 = Bgp::new(vec![a, b]);
        let b2 = Bgp::new(vec![b, a, a]);
        assert_eq!(b1.canonical(), b2.canonical());
    }

    #[test]
    fn to_sparql_round_trips_shape() {
        let mut d = Dictionary::new();
        let p = d.encode(&Term::iri("http://p"));
        let q = Query::conjunctive(
            vec!["x".into(), "y".into()],
            vec![Variable(0), Variable(1)],
            true,
            Bgp::new(vec![TriplePattern::new(v(0), QTerm::Const(p), v(1))]),
        );
        let text = q.to_sparql(&d);
        assert_eq!(text, "SELECT DISTINCT ?x ?y WHERE { ?x <http://p> ?y }");

        let union = q.with_bgps(vec![
            Bgp::new(vec![TriplePattern::new(v(0), QTerm::Const(p), v(1))]),
            Bgp::new(vec![TriplePattern::new(v(1), QTerm::Const(p), v(0))]),
        ]);
        let text = union.to_sparql(&d);
        assert!(text.contains("UNION"), "{text}");
    }

    #[test]
    fn select_star_renders() {
        let q = Query::conjunctive(vec!["x".into()], vec![], false, Bgp::default());
        assert!(q
            .to_sparql(&Dictionary::new())
            .starts_with("SELECT * WHERE"));
    }
}
