//! The five workloads: which server each runs against and the fixed
//! cycle of operations that is its traffic.
//!
//! A cycle is a short, fixed sequence of op templates; only the
//! constants (which course, which department, …) change from cycle to
//! cycle, drawn from one [`SplitMix64`] stream. Timed passes always run
//! whole cycles, so every pass measures the same mix.

use crate::rng::SplitMix64;

/// What kind of cycle a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 40 queries: 32 point lookups and 8 whole-graph scans.
    Read,
    /// 20 updates that return the graph to its initial state.
    Write,
    /// 10 ops mixing view-changing updates, delta polls and point reads.
    Mixed,
}

/// One workload: a server configuration plus a cycle kind.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Permanent name (`BENCHMARK.json`, result rows).
    pub name: &'static str,
    /// `webreason serve --strategy` value.
    pub strategy: &'static str,
    /// LUBM scale: number of universities generated.
    pub universities: usize,
    /// The cycle it runs.
    pub kind: Kind,
}

/// Every workload, in reporting order. Names are permanent: add new
/// workloads at the end, never rename.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "read_sat",
        strategy: "counting",
        universities: 4,
        kind: Kind::Read,
    },
    Spec {
        name: "read_ref",
        strategy: "reformulation",
        universities: 4,
        kind: Kind::Read,
    },
    Spec {
        name: "read_int",
        strategy: "interval",
        universities: 4,
        kind: Kind::Read,
    },
    Spec {
        name: "write_sat",
        strategy: "counting",
        universities: 1,
        kind: Kind::Write,
    },
    Spec {
        name: "mixed_sub",
        strategy: "reformulation",
        universities: 1,
        kind: Kind::Mixed,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The view `mixed_sub` registers during set-up.
pub fn subscription_query(shape: &Shape) -> String {
    format!(
        "PREFIX ub: <{}>\nSELECT DISTINCT ?x WHERE {{ ?x a ub:Student }}",
        shape.ns_ub
    )
}

/// The shape of the generated dataset the constants are drawn over: the
/// binaries fill it from the generator's own configuration, so entity
/// IRIs drawn here always exist.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Ontology namespace (`workload::lubm::NS_UB`).
    pub ns_ub: &'static str,
    /// Instance namespace (`workload::lubm::NS_DATA`).
    pub ns_data: &'static str,
    /// Universities (`u{u}`).
    pub universities: usize,
    /// Departments per university (`u{u}/d{d}`).
    pub departments: usize,
    /// Faculty per department (`…/prof{i}`; every fourth is a lecturer).
    pub faculty: usize,
    /// Courses per department (`…/course{c}`).
    pub courses: usize,
}

/// Latency class of an op; each workload defines its own two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point queries; single-triple updates.
    Light,
    /// Whole-graph queries; batch and schema updates; update-to-delta.
    Heavy,
}

/// Query templates, all `SELECT DISTINCT` so the three strategies must
/// return identical rows. `P*` are point lookups (LUBM Q1, Q3, Q4, Q5,
/// Q7 with a drawn constant), `B*` scan the graph (Q2, Q6, Q8, Q9, Q10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // named after the list above
pub enum Template {
    P1,
    P2,
    P3,
    P4,
    P5,
    B1,
    B2,
    B3,
    B4,
    B5,
}

impl Template {
    /// Point templates are the light class, scans the heavy one.
    pub fn class(self) -> Class {
        match self {
            Template::P1 | Template::P2 | Template::P3 | Template::P4 | Template::P5 => {
                Class::Light
            }
            _ => Class::Heavy,
        }
    }
}

/// One `POST /query`.
#[derive(Debug, Clone)]
pub struct Query {
    /// Which template.
    pub template: Template,
    /// The drawn constant as an IRI without brackets (empty for `B1`,
    /// `B2`, `B4`, `B5`).
    pub arg: String,
    /// The request body.
    pub sparql: String,
    /// Rows expected on top of the loaded dataset's answer: 1 when the
    /// query reads an entity the cycle has just inserted.
    pub extra_rows: u64,
}

/// One `POST /update`.
#[derive(Debug, Clone)]
pub struct Update {
    /// The request body: one `insert|delete <s> <p> <o> .` per line.
    pub script: String,
    /// Lines in the script (the reply's `accepted`).
    pub lines: usize,
    /// Insert or delete.
    pub insert: bool,
    /// Single-triple instance updates are light, the rest heavy.
    pub class: Class,
}

/// One step of a cycle.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query whose row count is checked.
    Query(Query),
    /// An update whose reply is checked.
    Update(Update),
    /// `mixed_sub`'s heavy op, two requests timed as one: the update,
    /// then `GET /subscribe/{id}?from=<last>`, which must hold the batch
    /// of the acknowledged epoch with exactly one event for `row`.
    UpdateDelta {
        /// The single-triple update.
        update: Update,
        /// The view row (N-Triples term) that must appear (`insert`) or
        /// disappear.
        row: String,
    },
}

impl Op {
    /// The op's latency class.
    pub fn class(&self) -> Class {
        match self {
            Op::Query(q) => q.template.class(),
            Op::Update(u) => u.class,
            Op::UpdateDelta { .. } => Class::Heavy,
        }
    }

    /// Requests the op makes — what `ops_per_s` counts.
    pub fn requests(&self) -> u64 {
        match self {
            Op::UpdateDelta { .. } => 2,
            _ => 1,
        }
    }
}

/// The bytes of one request as the benchmark's client sends it — and as
/// the trace hands it to the server's parser.
pub fn http_request(method: &str, path: &str, payload: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    req.extend_from_slice(payload);
    req
}

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const RDFS_SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";

/// Produces a workload's cycles: the same `(kind, shape, seed)` gives
/// the same op stream, byte for byte.
#[derive(Debug, Clone)]
pub struct CycleGen {
    kind: Kind,
    shape: Shape,
    rng: SplitMix64,
    cycle: u64,
}

impl CycleGen {
    /// A generator at its first cycle.
    pub fn new(kind: Kind, shape: Shape, seed: u64) -> Self {
        CycleGen {
            kind,
            shape,
            rng: SplitMix64::new(seed),
            cycle: 0,
        }
    }

    /// The next whole cycle.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        let ops = match self.kind {
            Kind::Read => self.read_cycle(),
            Kind::Write => self.write_cycle(),
            Kind::Mixed => self.mixed_cycle(),
        };
        self.cycle += 1;
        ops
    }

    // --- constants -------------------------------------------------------

    /// A quarter of the draws land on a handful of hot entities, the rest
    /// are uniform: repeated constants hit the server's per-query rewrite
    /// cache, fresh ones miss it (about half of a run's queries hit).
    fn draw(&mut self, n: usize) -> usize {
        if self.rng.below(4) == 0 {
            self.rng.below(n.min(2))
        } else {
            self.rng.below(n)
        }
    }

    fn university(&mut self) -> String {
        // Heavy templates only; with ≤ 4 universities every one is hot.
        let u = self.rng.below(self.shape.universities);
        format!("{}u{u}", self.shape.ns_data)
    }

    fn department(&mut self) -> String {
        let u = self.draw(self.shape.universities);
        let d = self.draw(self.shape.departments);
        format!("{}u{u}/d{d}", self.shape.ns_data)
    }

    fn course(&mut self) -> String {
        let dept = self.department();
        let c = self.draw(self.shape.courses);
        format!("{dept}/course{c}")
    }

    fn faculty(&mut self) -> String {
        let dept = self.department();
        let i = self.draw(self.shape.faculty);
        format!("{dept}/prof{i}")
    }

    /// A faculty member of professor rank (the generator makes every
    /// fourth one, `i % 4 == 3`, a lecturer).
    fn professor(&mut self) -> String {
        let dept = self.department();
        let i = self.draw(self.shape.faculty) & !3;
        format!("{dept}/prof{i}")
    }

    fn query(&mut self, template: Template) -> Query {
        let arg = match template {
            Template::P1 => self.course(),
            Template::P2 | Template::P5 => self.faculty(),
            Template::P3 | Template::P4 => self.department(),
            Template::B3 => self.university(),
            _ => String::new(),
        };
        self.query_on(template, arg)
    }

    fn query_on(&self, template: Template, arg: String) -> Query {
        let body = match template {
            Template::P1 => format!("?x WHERE {{ ?x ub:takesCourse <{arg}> }}"),
            Template::P2 => format!(
                "?p WHERE {{ ?p a ub:Publication . ?p ub:publicationAuthor <{arg}> }}"
            ),
            Template::P3 => format!("?x WHERE {{ ?x a ub:Professor . ?x ub:worksFor <{arg}> }}"),
            Template::P4 => format!("?x WHERE {{ ?x ub:memberOf <{arg}> }}"),
            Template::P5 => format!(
                "?x ?y WHERE {{ ?x a ub:Student . ?x ub:takesCourse ?y . <{arg}> ub:teacherOf ?y }}"
            ),
            Template::B1 => "?x WHERE { ?x a ub:Person }".to_owned(),
            Template::B2 => "?x WHERE { ?x a ub:Student }".to_owned(),
            Template::B3 => format!(
                "?x ?d WHERE {{ ?x a ub:Student . ?x ub:memberOf ?d . ?d ub:subOrganizationOf <{arg}> }}"
            ),
            Template::B4 => "?x ?y ?z WHERE { ?x a ub:Student . ?y a ub:Faculty . ?x ub:advisor ?y . \
                             ?y ub:teacherOf ?z . ?x ub:takesCourse ?z }"
                .to_owned(),
            Template::B5 => {
                "?x ?u WHERE { ?x a ub:GraduateStudent . ?x ub:degreeFrom ?u }".to_owned()
            }
        };
        Query {
            template,
            arg,
            sparql: format!("PREFIX ub: <{}>\nSELECT DISTINCT {body}", self.shape.ns_ub),
            extra_rows: 0,
        }
    }

    // --- cycles ----------------------------------------------------------

    /// 40 ops; every fifth is heavy. Heavy: B1, B2 once, B3–B5 twice.
    fn read_cycle(&mut self) -> Vec<Op> {
        const LIGHT: [Template; 5] = [
            Template::P1,
            Template::P2,
            Template::P3,
            Template::P4,
            Template::P5,
        ];
        const HEAVY: [Template; 8] = [
            Template::B1,
            Template::B3,
            Template::B4,
            Template::B5,
            Template::B2,
            Template::B3,
            Template::B4,
            Template::B5,
        ];
        let (mut light, mut heavy) = (0, 0);
        (0..40)
            .map(|i| {
                let template = if i % 5 == 4 {
                    heavy += 1;
                    HEAVY[heavy - 1]
                } else {
                    light += 1;
                    LIGHT[(light - 1) % LIGHT.len()]
                };
                Op::Query(self.query(template))
            })
            .collect()
    }

    /// 8 single-triple instance inserts (one per entailment shape the
    /// ontology has: class typing, domain/range typing, sub-property
    /// chains), a 10-triple script, a schema insert, then the matching
    /// deletes. Entities are fresh per cycle, as real inserts are.
    fn write_cycle(&mut self) -> Vec<Op> {
        let ub = self.shape.ns_ub;
        let fresh = format!("{}bench/c{}", self.shape.ns_data, self.cycle);
        let dept = self.department();
        let singles: [(String, String, String); 8] = [
            (
                format!("{fresh}/s0"),
                RDF_TYPE.into(),
                format!("{ub}GraduateStudent"),
            ),
            (
                format!("{fresh}/s0"),
                format!("{ub}takesCourse"),
                self.course(),
            ),
            (
                format!("{fresh}/s0"),
                format!("{ub}advisor"),
                self.professor(),
            ),
            (
                format!("{fresh}/s1"),
                format!("{ub}memberOf"),
                self.department(),
            ),
            (format!("{fresh}/p0"), format!("{ub}worksFor"), dept.clone()),
            (format!("{fresh}/p0"), format!("{ub}headOf"), dept.clone()),
            (
                format!("{fresh}/pub0"),
                format!("{ub}publicationAuthor"),
                self.faculty(),
            ),
            (
                format!("{fresh}/s1"),
                format!("{ub}undergraduateDegreeFrom"),
                self.university(),
            ),
        ];
        let first_course = self.rng.below(self.shape.courses);
        let mut batch = vec![
            (
                format!("{fresh}/b0"),
                RDF_TYPE.into(),
                format!("{ub}UndergraduateStudent"),
            ),
            (format!("{fresh}/b0"), format!("{ub}memberOf"), dept.clone()),
        ];
        for k in 0..4 {
            let c = (first_course + k) % self.shape.courses;
            batch.push((
                format!("{fresh}/b0"),
                format!("{ub}takesCourse"),
                format!("{dept}/course{c}"),
            ));
        }
        batch.extend([
            (
                format!("{fresh}/b1"),
                RDF_TYPE.into(),
                format!("{ub}GraduateStudent"),
            ),
            (format!("{fresh}/b1"), format!("{ub}memberOf"), dept.clone()),
            (
                format!("{fresh}/b1"),
                format!("{ub}advisor"),
                self.professor(),
            ),
            (
                format!("{fresh}/b1"),
                format!("{ub}undergraduateDegreeFrom"),
                self.university(),
            ),
        ]);
        let schema = vec![(
            format!("{ub}VisitingProfessor"),
            RDFS_SUBCLASS.to_owned(),
            format!("{ub}Professor"),
        )];

        let mut ops = Vec::with_capacity(20);
        for insert in [true, false] {
            for t in &singles {
                ops.push(Op::Update(update(
                    insert,
                    std::slice::from_ref(t),
                    Class::Light,
                )));
            }
            ops.push(Op::Update(update(insert, &batch, Class::Heavy)));
            ops.push(Op::Update(update(insert, &schema, Class::Heavy)));
        }
        ops
    }

    /// Two halves of five ops. Each half: one update that changes the
    /// subscribed view and the poll that must deliver its delta (timed
    /// together), then three point queries — the first reads the entity
    /// just written.
    fn mixed_cycle(&mut self) -> Vec<Op> {
        let student = format!("{}bench/m{}", self.shape.ns_data, self.cycle);
        let course = self.course();
        // `takesCourse` has domain `Student`: the triple alone puts the
        // fresh entity into the view, with no maintained saturation.
        let triple = [(
            student.clone(),
            format!("{}takesCourse", self.shape.ns_ub),
            course.clone(),
        )];
        let mut ops = Vec::with_capacity(8);
        for insert in [true, false] {
            ops.push(Op::UpdateDelta {
                update: update(insert, &triple, Class::Heavy),
                row: format!("<{student}>"),
            });
            let mut own = self.query_on(Template::P1, course.clone());
            own.extra_rows = u64::from(insert);
            ops.push(Op::Query(own));
            let others = if insert {
                [Template::P3, Template::P4]
            } else {
                [Template::P2, Template::P5]
            };
            for t in others {
                ops.push(Op::Query(self.query(t)));
            }
        }
        ops
    }
}

fn update(insert: bool, triples: &[(String, String, String)], class: Class) -> Update {
    let verb = if insert { "insert" } else { "delete" };
    let script = triples
        .iter()
        .map(|(s, p, o)| format!("{verb} <{s}> <{p}> <{o}> .\n"))
        .collect();
    Update {
        script,
        lines: triples.len(),
        insert,
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            ns_ub: "http://ub#",
            ns_data: "http://data/",
            universities: 4,
            departments: 20,
            faculty: 30,
            courses: 40,
        }
    }

    fn requests(ops: &[Op]) -> u64 {
        ops.iter().map(Op::requests).sum()
    }

    #[test]
    fn cycles_have_the_documented_size_and_mix() {
        let mut read = CycleGen::new(Kind::Read, shape(), 1);
        let ops = read.next_cycle();
        assert_eq!(requests(&ops), 40);
        assert_eq!(ops.iter().filter(|o| o.class() == Class::Heavy).count(), 8);

        let mut write = CycleGen::new(Kind::Write, shape(), 1);
        let ops = write.next_cycle();
        assert_eq!(requests(&ops), 20);
        assert_eq!(ops.iter().filter(|o| o.class() == Class::Heavy).count(), 4);
        let lines = |insert: bool| -> usize {
            ops.iter()
                .map(|o| match o {
                    Op::Update(u) if u.insert == insert => u.lines,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(lines(true), 19);
        assert_eq!(lines(false), 19);

        let mut mixed = CycleGen::new(Kind::Mixed, shape(), 1);
        let ops = mixed.next_cycle();
        assert_eq!(requests(&ops), 10);
        assert_eq!(ops.iter().filter(|o| o.class() == Class::Heavy).count(), 2);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let stream = |seed| {
            let mut g = CycleGen::new(Kind::Read, shape(), seed);
            (0..3)
                .flat_map(|_| g.next_cycle())
                .map(|op| match op {
                    Op::Query(q) => q.sparql,
                    _ => unreachable!("read cycles hold queries only"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }

    #[test]
    fn professors_drawn_are_never_lecturers() {
        let mut g = CycleGen::new(Kind::Write, shape(), 9);
        for _ in 0..200 {
            let p = g.professor();
            let i: usize = p.rsplit("prof").next().unwrap().parse().unwrap();
            assert_ne!(i % 4, 3, "{p}");
        }
    }
}
