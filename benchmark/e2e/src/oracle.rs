//! Expected row counts, computed from the generated N-Triples text alone.
//!
//! This is a second, independent implementation of `q(G∞)` for the ten
//! query templates: a plain RDFS closure (sub-class, sub-property, domain,
//! range) over interned strings, then each template answered by hand.
//! It shares no code with the server, so a reasoning or evaluation bug in
//! any of the three strategies shows up as a wrong row count at any seed.

use std::collections::{HashMap, HashSet};

use bench_ops::traffic::{Query, Template};

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
const SUBPROPERTY: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
const DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
const RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";

type Id = u32;

pub struct Oracle {
    ids: HashMap<String, Id>,
    /// Instance triples of G∞.
    triples: HashSet<(Id, Id, Id)>,
    /// `(p, o) → subjects` and `(s, p) → objects` over `triples`.
    by_po: HashMap<(Id, Id), Vec<Id>>,
    by_sp: HashMap<(Id, Id), Vec<Id>>,
    /// `p → (s, o)` pairs.
    by_p: HashMap<Id, Vec<(Id, Id)>>,
    ns_ub: &'static str,
    memo: HashMap<(Template, String), u64>,
}

impl Oracle {
    /// Builds G∞ from N-Triples text in which every term is an IRI (what
    /// the LUBM generator emits).
    pub fn new(ntriples: &str, ns_ub: &'static str) -> Result<Oracle, String> {
        let mut ids: HashMap<String, Id> = HashMap::new();
        let mut intern = |iri: &str| -> Id {
            if let Some(&id) = ids.get(iri) {
                return id;
            }
            let id = ids.len() as Id;
            ids.insert(iri.to_owned(), id);
            id
        };
        let [ty, sc, sp, dom, rng] =
            [RDF_TYPE, SUBCLASS, SUBPROPERTY, DOMAIN, RANGE].map(&mut intern);

        let mut base = Vec::new();
        for (n, line) in ntriples.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut terms = line.split_whitespace().map(|t| {
                t.strip_prefix('<')
                    .and_then(|t| t.strip_suffix('>'))
                    .ok_or_else(|| format!("line {}: {t:?} is not an IRI", n + 1))
            });
            let mut next = || {
                terms
                    .next()
                    .unwrap_or(Err(format!("line {}: too few terms", n + 1)))
            };
            let (s, p, o) = (next()?, next()?, next()?);
            base.push((intern(s), intern(p), intern(o)));
        }

        // Schema: reflexive-transitive closures of the two hierarchies.
        let edges = |pred: Id| -> HashMap<Id, Vec<Id>> {
            let mut m: HashMap<Id, Vec<Id>> = HashMap::new();
            for &(s, p, o) in &base {
                if p == pred {
                    m.entry(s).or_default().push(o);
                }
            }
            m
        };
        let (sub_class, sub_prop) = (edges(sc), edges(sp));
        let ancestors = |of: Id, up: &HashMap<Id, Vec<Id>>| -> Vec<Id> {
            let mut seen = vec![of];
            let mut i = 0;
            while i < seen.len() {
                for &parent in up.get(&seen[i]).map_or(&[][..], Vec::as_slice) {
                    if !seen.contains(&parent) {
                        seen.push(parent);
                    }
                }
                i += 1;
            }
            seen
        };
        let (domains, ranges) = (edges(dom), edges(rng));
        // Classes a property's subject/object belongs to: declared on the
        // property or any super-property, then closed upwards.
        let typing = |p: Id, decl: &HashMap<Id, Vec<Id>>| -> Vec<Id> {
            let mut out = Vec::new();
            for q in ancestors(p, &sub_prop) {
                for &c in decl.get(&q).map_or(&[][..], Vec::as_slice) {
                    for a in ancestors(c, &sub_class) {
                        if !out.contains(&a) {
                            out.push(a);
                        }
                    }
                }
            }
            out
        };

        let mut triples = HashSet::new();
        // Per property: its super-properties, subject classes, object classes.
        let mut per_prop: HashMap<Id, [Vec<Id>; 3]> = HashMap::new();
        for &(s, p, o) in &base {
            if [sc, sp, dom, rng].contains(&p) {
                continue;
            }
            if p == ty {
                for c in ancestors(o, &sub_class) {
                    triples.insert((s, ty, c));
                }
                continue;
            }
            let [supers, dom_classes, rng_classes] = per_prop.entry(p).or_insert_with(|| {
                [
                    ancestors(p, &sub_prop),
                    typing(p, &domains),
                    typing(p, &ranges),
                ]
            });
            for &q in supers.iter() {
                triples.insert((s, q, o));
            }
            for &c in dom_classes.iter() {
                triples.insert((s, ty, c));
            }
            for &c in rng_classes.iter() {
                triples.insert((o, ty, c));
            }
        }

        let mut by_po: HashMap<(Id, Id), Vec<Id>> = HashMap::new();
        let mut by_sp: HashMap<(Id, Id), Vec<Id>> = HashMap::new();
        let mut by_p: HashMap<Id, Vec<(Id, Id)>> = HashMap::new();
        for &(s, p, o) in &triples {
            by_po.entry((p, o)).or_default().push(s);
            by_sp.entry((s, p)).or_default().push(o);
            by_p.entry(p).or_default().push((s, o));
        }
        Ok(Oracle {
            ids,
            triples,
            by_po,
            by_sp,
            by_p,
            ns_ub,
            memo: HashMap::new(),
        })
    }

    /// Rows the query must return against the loaded dataset plus
    /// whatever the cycle has inserted (`extra_rows`).
    pub fn expected_rows(&mut self, q: &Query) -> u64 {
        let key = (q.template, q.arg.clone());
        let base = match self.memo.get(&key) {
            Some(&n) => n,
            None => {
                let n = self.answer(q.template, &q.arg);
                self.memo.insert(key, n);
                n
            }
        };
        base + q.extra_rows
    }

    fn id(&self, iri: &str) -> Option<Id> {
        self.ids.get(iri).copied()
    }

    fn ub(&self, local: &str) -> Option<Id> {
        self.id(&format!("{}{local}", self.ns_ub))
    }

    fn subjects(&self, p: Id, o: Id) -> &[Id] {
        self.by_po.get(&(p, o)).map_or(&[], Vec::as_slice)
    }

    fn objects(&self, s: Id, p: Id) -> &[Id] {
        self.by_sp.get(&(s, p)).map_or(&[], Vec::as_slice)
    }

    /// `q(G∞)` row count for one template; 0 when a term the query names
    /// does not occur in the data at all.
    fn answer(&self, template: Template, arg: &str) -> u64 {
        self.try_answer(template, arg).unwrap_or(0)
    }

    fn try_answer(&self, template: Template, arg: &str) -> Option<u64> {
        let ty = self.id(RDF_TYPE)?;
        let is_a = |x: Id, class: Id| self.triples.contains(&(x, ty, class));
        // The index vectors hold each subject/object once (they are built
        // from a set), so single-variable answers need no dedup.
        let count = match template {
            Template::P1 => self.subjects(self.ub("takesCourse")?, self.id(arg)?).len(),
            Template::P2 => {
                let publication = self.ub("Publication")?;
                self.subjects(self.ub("publicationAuthor")?, self.id(arg)?)
                    .iter()
                    .filter(|&&p| is_a(p, publication))
                    .count()
            }
            Template::P3 => {
                let professor = self.ub("Professor")?;
                self.subjects(self.ub("worksFor")?, self.id(arg)?)
                    .iter()
                    .filter(|&&x| is_a(x, professor))
                    .count()
            }
            Template::P4 => self.subjects(self.ub("memberOf")?, self.id(arg)?).len(),
            Template::P5 => {
                let (student, takes) = (self.ub("Student")?, self.ub("takesCourse")?);
                self.objects(self.id(arg)?, self.ub("teacherOf")?)
                    .iter()
                    .map(|&y| {
                        self.subjects(takes, y)
                            .iter()
                            .filter(|&&x| is_a(x, student))
                            .count()
                    })
                    .sum()
            }
            Template::B1 => self.subjects(ty, self.ub("Person")?).len(),
            Template::B2 => self.subjects(ty, self.ub("Student")?).len(),
            Template::B3 => {
                let (student, member) = (self.ub("Student")?, self.ub("memberOf")?);
                self.subjects(self.ub("subOrganizationOf")?, self.id(arg)?)
                    .iter()
                    .map(|&d| {
                        self.subjects(member, d)
                            .iter()
                            .filter(|&&x| is_a(x, student))
                            .count()
                    })
                    .sum()
            }
            Template::B4 => {
                let (student, faculty) = (self.ub("Student")?, self.ub("Faculty")?);
                let (teaches, takes) = (self.ub("teacherOf")?, self.ub("takesCourse")?);
                self.by_p
                    .get(&self.ub("advisor")?)?
                    .iter()
                    .filter(|&&(x, y)| is_a(x, student) && is_a(y, faculty))
                    .map(|&(x, y)| {
                        self.objects(y, teaches)
                            .iter()
                            .filter(|&&z| self.triples.contains(&(x, takes, z)))
                            .count()
                    })
                    .sum()
            }
            Template::B5 => {
                let degree = self.ub("degreeFrom")?;
                self.subjects(ty, self.ub("GraduateStudent")?)
                    .iter()
                    .map(|&x| self.objects(x, degree).len())
                    .sum()
            }
        };
        Some(count as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UB: &str = "http://ub#";

    fn query(template: Template, arg: &str) -> Query {
        Query {
            template,
            arg: arg.to_owned(),
            sparql: String::new(),
            extra_rows: 0,
        }
    }

    #[test]
    fn entailed_rows_are_counted() {
        let nt = format!(
            "<{UB}GraduateStudent> <{SUBCLASS}> <{UB}Student> .\n\
             <{UB}Student> <{SUBCLASS}> <{UB}Person> .\n\
             <{UB}headOf> <{SUBPROPERTY}> <{UB}worksFor> .\n\
             <{UB}worksFor> <{SUBPROPERTY}> <{UB}memberOf> .\n\
             <{UB}memberOf> <{DOMAIN}> <{UB}Person> .\n\
             <{UB}takesCourse> <{DOMAIN}> <{UB}Student> .\n\
             <http://d/a> <{RDF_TYPE}> <{UB}GraduateStudent> .\n\
             <http://d/b> <{UB}takesCourse> <http://d/c1> .\n\
             <http://d/h> <{UB}headOf> <http://d/dept> .\n\
             <http://d/a> <{UB}memberOf> <http://d/dept> .\n"
        );
        let mut o = Oracle::new(&nt, UB).unwrap();
        // a (typed), b (domain of takesCourse)
        assert_eq!(o.expected_rows(&query(Template::B2, "")), 2);
        // a, b, and h (headOf ⊑ worksFor ⊑ memberOf, whose domain is Person)
        assert_eq!(o.expected_rows(&query(Template::B1, "")), 3);
        // h via the sub-property chain, a directly
        assert_eq!(o.expected_rows(&query(Template::P4, "http://d/dept")), 2);
        assert_eq!(o.expected_rows(&query(Template::P1, "http://d/c1")), 1);
        assert_eq!(o.expected_rows(&query(Template::P1, "http://d/unknown")), 0);
    }

    #[test]
    fn rejects_non_iri_terms() {
        assert!(Oracle::new("<http://a> <http://b> \"lit\" .\n", UB).is_err());
    }
}
