//! Wire protocol for the embedded server: the plain-text update-body
//! decoder and the JSON response shapes.
//!
//! An update body is a line-oriented script; each line is either blank,
//! a `#` comment, or
//!
//! ```text
//! insert <s> <p> <o> .
//! delete <s> <p> <o> .
//! ```
//!
//! where everything after the op keyword is one N-Triples statement,
//! parsed by [`rdf_io::parse_statement`], the statement parser the loader
//! runs on every line of a document — so literals, typed literals and
//! blank nodes behave identically to `webreason load`. The statement's
//! three terms become the op as they are: no scratch graph or dictionary
//! per line. An error names the script line once
//! (`line 3: expected a term, found Some('b')`). Decoding LUBM-4 as the
//! benchmark sends it (eight 4 MB scripts, 31 MB) takes about 0.07 s on
//! a 2-vCPU host.
//!
//! The decoder is pure (no store access) and total over arbitrary input,
//! which makes it a proptest target alongside the HTTP parser; a
//! differential proptest holds it to the decoder it replaced.

use crate::http::{Response, HEAD_ROOM};
use rdf_model::{Dictionary, Term, TermId};
use serde::Serialize;
use sparql::{EvalStats, Solutions};
use std::fmt::Write as _;

/// One decoded update operation, term-level (ids are assigned by the
/// writer thread against the live dictionary, not here). This is the
/// core's script-op type: a decoded body feeds
/// [`DurableStore::apply_script`](webreason_core::DurableStore::apply_script)
/// verbatim, so the whole script commits as one atomic journal record.
pub use webreason_core::ScriptOp as UpdateOp;

/// Why an update body was rejected (maps to a 400 with the message in
/// the JSON error payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line of the offending statement.
    pub line: usize,
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes an update body into an ordered op list. Order is preserved —
/// `insert` then `delete` of the same triple nets to absent.
pub fn decode_update_body(body: &str) -> Result<Vec<UpdateOp>, DecodeError> {
    let mut ops = Vec::new();
    for (idx, raw) in body.lines().enumerate() {
        let line = idx + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let error = |message| DecodeError { line, message };
        let (insert, stmt) = match text.split_once(char::is_whitespace) {
            Some((word, rest)) if word.eq_ignore_ascii_case("insert") => (true, rest),
            Some((word, rest)) if word.eq_ignore_ascii_case("delete") => (false, rest),
            _ => {
                return Err(error(
                    "expected `insert <s> <p> <o> .` or `delete <s> <p> <o> .`".to_owned(),
                ))
            }
        };
        let terms = match rdf_io::parse_statement(stmt, line) {
            Ok(Some(terms)) => terms,
            Ok(None) => return Err(error("expected exactly one triple, found 0".to_owned())),
            Err(e) => return Err(error(e.message)),
        };
        ops.push(if insert {
            UpdateOp::Insert(terms)
        } else {
            UpdateOp::Delete(terms)
        });
    }
    Ok(ops)
}

/// JSON body of a successful `POST /query` response: the documented wire
/// shape. The server does not build one — [`query_reply`] writes the same
/// bytes straight from the answer block — but it is what those bytes are
/// specified and tested against.
#[derive(Debug, Serialize)]
pub struct QueryResponse {
    /// Projected variable names, in SELECT order.
    pub vars: Vec<String>,
    /// One row per solution; terms rendered in N-Triples syntax.
    pub rows: Vec<Vec<String>>,
    /// The snapshot epoch this answer was computed against.
    pub epoch: u64,
    /// Evaluation statistics, when the engine recorded them.
    pub stats: Option<EvalStats>,
}

/// The `200 OK` reply to a `POST /query`, head and body.
///
/// The body is byte-identical to serialising a [`QueryResponse`] whose
/// rows hold each term rendered by `Term`'s `Display` (an id missing from
/// `dict` as its `#n` form), but it is written in one pass from the flat
/// answer block: no per-row or per-term allocation, one JSON escaper
/// ([`serde::write_json_escaped`]), and one buffer, sized from the block,
/// that the body is written into after `HEAD_ROOM` reserved bytes; the
/// head goes in front last (`Response::head_room`), so the body is never
/// copied. The caller holds one dictionary read guard for the whole reply.
pub fn query_reply(
    dict: &Dictionary,
    sols: &Solutions,
    stats: Option<&EvalStats>,
    epoch: u64,
) -> Response {
    let mut body = String::with_capacity(HEAD_ROOM + body_size_hint(dict, sols));
    body.extend(std::iter::repeat_n(' ', HEAD_ROOM));
    body.push_str("{\"vars\":");
    sols.var_names.write_json(&mut body);
    body.push_str(",\"rows\":[");
    // Reused for the terms that go through `Display` (literals, blank
    // nodes, unknown ids); IRIs, the bulk of every answer, skip it.
    let mut scratch = String::new();
    for (i, row) in sols.rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, &id) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            write_term(&mut body, &mut scratch, dict, id);
        }
        body.push(']');
    }
    body.push_str("],\"epoch\":");
    epoch.write_json(&mut body);
    body.push_str(",\"stats\":");
    stats.write_json(&mut body);
    body.push('}');
    Response::head_room(body.into_bytes(), 200, "OK", "application/json")
}

/// Rows whose rendered length [`body_size_hint`] measures.
const SIZE_SAMPLES: usize = 8;

/// The body length [`query_reply`] expects: the mean rendered length of
/// up to [`SIZE_SAMPLES`] rows spread over the block, times the row
/// count, plus an eighth for the rows the sample missed and the framing
/// (a non-IRI term is guessed at 32 bytes, escapes are ignored). Close
/// enough that a large body rarely grows its buffer, small enough not to
/// reserve memory the reply never touches.
fn body_size_hint(dict: &Dictionary, sols: &Solutions) -> usize {
    let rows = sols.rows.len();
    if rows == 0 {
        return 256;
    }
    let stride = rows.div_ceil(SIZE_SAMPLES);
    let term_len = |id: &TermId| match dict.decode(*id) {
        // `"<` + IRI + `>"` + `,`
        Some(Term::Iri(iri)) => iri.len() + 5,
        _ => 32,
    };
    let (mut sampled, mut bytes) = (0, 0);
    for row in sols.rows.iter().step_by(stride) {
        sampled += 1;
        bytes += row.iter().map(term_len).sum::<usize>();
    }
    // `[` + terms + `],` per row.
    let per_row = bytes / sampled + 3;
    let body = rows * per_row;
    256 + body + body / 8
}

/// Writes one answer term as a JSON string of its N-Triples form.
fn write_term(out: &mut String, scratch: &mut String, dict: &Dictionary, id: TermId) {
    match dict.decode(id) {
        // `Term`'s `Display` of an IRI is `<iri>`, and `<`, `>` need no
        // JSON escape: escaping the IRI between them is byte-identical
        // without the `fmt` round trip.
        Some(Term::Iri(iri)) => {
            out.push_str("\"<");
            serde::write_json_escaped(out, iri);
            out.push_str(">\"");
        }
        decoded => {
            scratch.clear();
            match decoded {
                Some(term) => write!(scratch, "{term}"),
                None => write!(scratch, "{id}"),
            }
            .expect("writing to a String cannot fail");
            serde::write_json_string(out, scratch);
        }
    }
}

/// JSON body of a successful `POST /update` response.
#[derive(Debug, Serialize)]
pub struct UpdateResponse {
    /// Ops accepted into the writer queue (= ops decoded).
    pub accepted: usize,
    /// Explicit triples the batch asserted (entailed consequences are
    /// not counted, under any strategy).
    pub added: usize,
    /// Explicit triples the batch retracted; deleting an entailed-only
    /// triple retracts nothing.
    pub removed: usize,
    /// The epoch published after this batch was applied.
    pub epoch: u64,
}

/// First frame of a `POST /subscribe` window: the registration receipt.
/// The initial materialization and the `next` poll link follow as
/// separate frames (the snapshot a serialized `DeltaBatch`), so a client
/// can parse the window one JSON document per chunk.
#[derive(Debug, Serialize)]
pub struct SubscribeHeader {
    /// Server-assigned subscription id (used by `GET /subscribe/{id}`).
    pub id: u64,
    /// Epoch of the initial materialization that follows this header.
    pub epoch: u64,
    /// Projected variable names, in SELECT order.
    pub vars: Vec<String>,
    /// Whether the view is under set semantics (`SELECT DISTINCT`).
    pub distinct: bool,
}

/// JSON error payload used by every non-2xx response with a body. The
/// shape is uniform across every error class:
/// `retry_after_ms` is non-null exactly when the response carries a
/// `Retry-After` header (429 backpressure, 503 shed/degraded/limit), and
/// `degraded` is non-null exactly when the server is in read-only
/// degraded mode (its value is the machine-readable reason, e.g.
/// `journal_enospc`).
#[derive(Debug, Serialize)]
pub struct ErrorResponse {
    /// Machine-readable error class (`bad_request`, `overloaded`, …).
    pub error: String,
    /// Human-readable detail.
    pub message: String,
    /// Suggested retry delay in milliseconds (mirrors `Retry-After`).
    pub retry_after_ms: Option<u64>,
    /// Degraded-mode reason when the server is read-only.
    pub degraded: Option<String>,
}

impl ErrorResponse {
    /// Serialises a plain error payload (infallible: plain strings).
    pub fn to_json(error: &str, message: &str) -> Vec<u8> {
        Self::to_json_full(error, message, None, None)
    }

    /// Serialises an error payload carrying a retry hint.
    pub fn to_json_retry(error: &str, message: &str, retry_after_ms: u64) -> Vec<u8> {
        Self::to_json_full(error, message, Some(retry_after_ms), None)
    }

    /// Serialises the full payload.
    pub fn to_json_full(
        error: &str,
        message: &str,
        retry_after_ms: Option<u64>,
        degraded: Option<String>,
    ) -> Vec<u8> {
        serde_json::to_string(&ErrorResponse {
            error: error.to_owned(),
            message: message.to_owned(),
            retry_after_ms,
            degraded,
        })
        .map(String::into_bytes)
        .unwrap_or_else(|_| b"{\"error\":\"internal\"}".to_vec())
    }
}

#[cfg(test)]
#[path = "proto_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::write_response;
    use proptest::prelude::*;
    use rdf_model::{Graph, Literal};
    use sparql::Rows;

    #[test]
    fn decodes_inserts_deletes_comments_and_blanks() {
        let body = "# seed data\n\
                    insert <http://ex/s> <http://ex/p> \"v\" .\n\
                    \n\
                    delete <http://ex/s> <http://ex/p> \"v\" .\n";
        let ops = decode_update_body(body).unwrap();
        assert_eq!(ops.len(), 2);
        assert!(matches!(&ops[0], UpdateOp::Insert([s, _, o])
            if s.as_iri() == Some("http://ex/s") && o.is_literal()));
        assert!(matches!(&ops[1], UpdateOp::Delete(_)));
    }

    #[test]
    fn rejects_unknown_ops_and_bad_triples() {
        let e = decode_update_body("upsert <a> <b> <c> .").unwrap_err();
        assert_eq!(e.line, 1);
        let e = decode_update_body("insert not-a-triple").unwrap_err();
        assert_eq!(e.line, 1);
        let e = decode_update_body("# ok\ninsert <http://a> <http://b> .").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn a_decode_error_names_the_script_line_once() {
        let body = "insert <http://ex/a> <http://ex/p> <http://ex/b> .\n\
                    # a comment\n\
                    insert <http://ex/a> <http://ex/p> bad .\n";
        let e = decode_update_body(body).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.to_string(), "line 3: expected a term, found Some('b')");
        let e = decode_update_body("\n\ndelete <http://ex/a> <http://ex/p> \"x .").unwrap_err();
        assert_eq!(e.to_string(), "line 3: unterminated string literal");
        let e = decode_update_body("insert # nothing").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 1: expected exactly one triple, found 0"
        );
    }

    #[test]
    fn typed_literals_round_trip() {
        let ops = decode_update_body(
            "insert <http://ex/x> <http://ex/age> \
             \"31\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        )
        .unwrap();
        let UpdateOp::Insert([_, _, o]) = &ops[0] else {
            panic!("insert expected");
        };
        assert_eq!(o.as_literal().unwrap().lexical(), "31");
    }

    /// The decoder as the server used to run it: each statement parsed by
    /// the char-by-char parser of [`super::reference`] as a one-line
    /// N-Triples document into a scratch graph and dictionary, its terms
    /// cloned back out. Its error messages carry the inner parser's own
    /// `parse error at line 1: ` prefix.
    fn reference_decode(body: &str) -> Result<Vec<UpdateOp>, DecodeError> {
        let mut ops = Vec::new();
        let mut dict = Dictionary::new();
        for (idx, raw) in body.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (op, stmt) = match line.split_once(char::is_whitespace) {
                Some((word, rest)) if word.eq_ignore_ascii_case("insert") => (true, rest),
                Some((word, rest)) if word.eq_ignore_ascii_case("delete") => (false, rest),
                _ => {
                    return Err(DecodeError {
                        line: line_no,
                        message: "expected `insert <s> <p> <o> .` or `delete <s> <p> <o> .`"
                            .to_owned(),
                    })
                }
            };
            let mut graph = Graph::new();
            let parsed =
                super::reference::parse_ntriples(stmt, &mut dict, &mut graph).map_err(|e| {
                    DecodeError {
                        line: line_no,
                        message: e.to_string(),
                    }
                })?;
            if parsed != 1 {
                return Err(DecodeError {
                    line: line_no,
                    message: format!("expected exactly one triple, found {parsed}"),
                });
            }
            let t = graph.iter().next().expect("parsed == 1");
            let terms = [
                dict.decode(t.s).expect("interned").clone(),
                dict.decode(t.p).expect("interned").clone(),
                dict.decode(t.o).expect("interned").clone(),
            ];
            ops.push(if op {
                UpdateOp::Insert(terms)
            } else {
                UpdateOp::Delete(terms)
            });
        }
        Ok(ops)
    }

    /// Picks one of `options` by a generated index.
    fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
        (0..options.len()).prop_map(move |i| options[i])
    }

    /// An IRI, with or without a `\u`/`\U` escape.
    fn arb_iri() -> impl Strategy<Value = String> {
        (
            "[a-z:/#._-]{1,10}",
            one_of(&["", "", "\\u00E9", "\\U0001F600", "\\u0041", "é"]),
            "[a-z0-9]{0,5}",
        )
            .prop_map(|(a, esc, b)| format!("<{a}{esc}{b}>"))
    }

    /// A literal with string escapes, a language tag or a datatype.
    fn arb_literal() -> impl Strategy<Value = String> {
        (
            "[a-zA-Z0-9 #<>_.é-]{0,8}",
            one_of(&[
                "",
                "",
                "\\\"",
                "\\\\",
                "\\n",
                "\\t",
                "\\r",
                "\\b",
                "\\f",
                "\\'",
                "\\u00e9",
                "\\U0001F600",
                "\t",
                "𝄞",
            ]),
            "[a-z ]{0,4}",
            one_of(&[
                "",
                "",
                "@en",
                "@en-GB",
                "@EN",
                "^^<http://www.w3.org/2001/XMLSchema#integer>",
                "^^ <http://ex/dt\\u00E9>",
            ]),
        )
            .prop_map(|(a, esc, b, suffix)| format!("\"{a}{esc}{b}\"{suffix}"))
    }

    fn arb_blank() -> impl Strategy<Value = String> {
        "[A-Za-z0-9_]{1,6}".prop_map(|l| format!("_:{l}"))
    }

    fn arb_sep() -> impl Strategy<Value = &'static str> {
        one_of(&[" ", " ", "\t", "  ", " \t"])
    }

    /// A well-formed `insert`/`delete` line.
    fn arb_statement() -> impl Strategy<Value = String> {
        (
            one_of(&["insert", "delete", "INSERT", "Delete"]),
            (
                arb_sep(),
                prop_oneof![arb_iri(), arb_iri(), arb_blank()],
                arb_sep(),
                arb_iri(),
                arb_sep(),
                prop_oneof![arb_iri(), arb_literal(), arb_literal(), arb_blank()],
            ),
            one_of(&["", " ", "\t"]),
            one_of(&[".", ".", ". # note", ".\t"]),
        )
            .prop_map(|(op, (s1, s, s2, p, s3, o), s4, end)| {
                format!("{op}{s1}{s}{s2}{p}{s3}{o}{s4}{end}")
            })
    }

    /// A statement line with one fault spliced in: a broken escape or
    /// term, a stray delimiter, an unknown op, trailing junk, or a cut.
    fn arb_broken_statement() -> impl Strategy<Value = String> {
        (
            arb_statement(),
            0..80usize,
            one_of(&[
                "\\u00G1", "\\x", "\\uD800", "\\u12", "\\q", " ", "\"", "<", ">", "_:", "@",
                "^^bad", "\"lit\"", "upsert ", ". extra", "#",
            ]),
            0..3usize,
        )
            .prop_map(|(line, at, fault, how)| {
                let mut at = at % (line.len() + 1);
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                match how {
                    0 => format!("{}{fault}{}", &line[..at], &line[at..]),
                    1 => format!("{}{fault}", &line[..at]),
                    _ => {
                        let mut to = (at + fault.len()).min(line.len());
                        while !line.is_char_boundary(to) {
                            to += 1;
                        }
                        format!("{}{}", &line[..at], &line[to..])
                    }
                }
            })
    }

    /// One script line: mostly well-formed statements, also comments,
    /// blank lines, broken statements and arbitrary text.
    fn arb_line() -> impl Strategy<Value = String> {
        prop_oneof![
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            arb_statement(),
            one_of(&[
                "",
                "# comment",
                "   ",
                "\t# indented",
                "insert",
                "insert # none"
            ])
            .prop_map(str::to_owned),
            arb_broken_statement(),
            "\\PC{0,30}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(env_cases(256)))]

        /// The decoder returns the reference decoder's ops, or fails on the
        /// same line with the same message less the inner line prefix.
        #[test]
        fn decode_matches_the_reference_decoder(
            lines in proptest::collection::vec(arb_line(), 0..8),
            crlf in 0..2usize,
        ) {
            let body = lines.join(if crlf == 1 { "\r\n" } else { "\n" });
            match (decode_update_body(&body), reference_decode(&body)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (Err(got), Err(want)) => {
                    prop_assert_eq!(got.line, want.line);
                    let inner = format!("parse error at line 1: {}", got.message);
                    prop_assert!(
                        got.message == want.message || inner == want.message,
                        "{:?} vs {:?}", got.message, want.message
                    );
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    /// `WEBREASON_PROPTEST_CASES` overrides a property's default case count.
    fn env_cases(default: u32) -> u32 {
        std::env::var("WEBREASON_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The reply as the server used to build it: every term rendered to a
    /// `String`, a [`QueryResponse`], `serde_json`, then [`write_response`].
    fn reference_reply(
        dict: &Dictionary,
        sols: &Solutions,
        stats: Option<EvalStats>,
        epoch: u64,
    ) -> Vec<u8> {
        let rows = sols
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|id| {
                        dict.decode(*id)
                            .map_or_else(|| id.to_string(), |t| t.to_string())
                    })
                    .collect()
            })
            .collect();
        let payload = QueryResponse {
            vars: sols.var_names.clone(),
            rows,
            epoch,
            stats,
        };
        let body = serde_json::to_string(&payload).expect("plain strings serialise");
        write_response(200, "OK", "application/json", &[], body.as_bytes())
    }

    fn assert_wire_identical(dict: &Dictionary, sols: &Solutions, stats: Option<EvalStats>) {
        for epoch in [0, 7, u64::MAX] {
            let reply = query_reply(dict, sols, stats.as_ref(), epoch);
            let got = reply.as_bytes();
            let want = reference_reply(dict, sols, stats.clone(), epoch);
            assert_eq!(
                String::from_utf8_lossy(got),
                String::from_utf8_lossy(&want),
                "epoch {epoch}"
            );
            assert_eq!(got, &want[..]);
        }
    }

    #[test]
    fn query_reply_is_byte_identical_to_the_documented_shape() {
        let mut dict = Dictionary::new();
        let mut terms = vec![
            Term::iri("http://ex/a"),
            // Not a valid IRI, but the dictionary holds it: the IRI arm
            // must escape like everything else.
            Term::iri("http://ex/\"q\"\\b"),
            Term::iri("http://ex/é/𝄞"),
            Term::blank("b0"),
            Term::Literal(Literal::lang("chat", "FR")),
            Term::Literal(Literal::typed(
                "42",
                "http://www.w3.org/2001/XMLSchema#integer",
            )),
            Term::literal(""),
            Term::literal("é 𝄞"),
        ];
        // Every escape class, in both the N-Triples and the JSON layer.
        for c in [
            '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{01}', '\u{1F}',
        ] {
            terms.push(Term::literal(format!("a{c}b{c}")));
            terms.push(Term::Literal(Literal::lang(format!("{c}x"), "en-GB")));
        }
        let ids: Vec<TermId> = terms.iter().map(|t| dict.encode(t)).collect();
        // An id the dictionary never handed out renders as `#n`.
        let missing = TermId::from_index(dict.len() + 5);
        let mut rows = Rows::new(2);
        for pair in ids.chunks(2) {
            rows.push(&[pair[0], *pair.last().expect("non-empty")]);
        }
        rows.push(&[missing, ids[0]]);
        let sols = Solutions {
            var_names: vec!["x".into(), "y \"quoted\"".into()],
            rows,
        };
        let stats = EvalStats {
            branches_total: 3,
            rows: sols.len(),
            ..EvalStats::default()
        };
        assert_wire_identical(&dict, &sols, None);
        assert_wire_identical(&dict, &sols, Some(stats));

        // An empty answer, and a ground answer whose rows have no terms.
        let empty = Solutions {
            var_names: vec!["x".into()],
            rows: Rows::new(1),
        };
        assert_wire_identical(&dict, &empty, None);
        let ground = Solutions {
            var_names: vec![],
            rows: Rows::from_rows(0, [[]; 2]),
        };
        assert_wire_identical(&dict, &ground, None);
    }

    #[test]
    fn count_answer_is_byte_identical() {
        let mut dict = Dictionary::new();
        let mut g = Graph::new();
        let (a, p) = (
            dict.encode_iri("http://ex/a"),
            dict.encode_iri("http://ex/p"),
        );
        for o in ["x", "y"] {
            let o = dict.encode(&Term::literal(o));
            g.insert(rdf_model::Triple::new(a, p, o));
        }
        let q = sparql::parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o }",
            &mut dict,
        )
        .expect("parses");
        let sols = sparql::finalize(sparql::evaluate(&g, &q), &q, &mut dict);
        assert_eq!(sols.len(), 1);
        assert_wire_identical(&dict, &sols, None);
        let reply = query_reply(&dict, &sols, None, 1);
        let text = std::str::from_utf8(reply.as_bytes()).expect("UTF-8");
        assert!(text.ends_with(
            r#"{"vars":["n"],"rows":[["\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>"]],"epoch":1,"stats":null}"#
        ));
    }
}
