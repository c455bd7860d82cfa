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
//! parsed by the same `rdf-io` parser the loader uses — so literals,
//! typed literals and blank nodes behave identically to `webreason load`.
//! The decoder is pure (no store access) and total over arbitrary input,
//! which makes it a proptest target alongside the HTTP parser.

use crate::http::{Response, HEAD_ROOM};
use rdf_model::{Dictionary, Graph, Term, TermId};
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
    // Scratch interning space: ids from here never leak; ops carry Terms.
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
                    message: "expected `insert <s> <p> <o> .` or `delete <s> <p> <o> .`".to_owned(),
                })
            }
        };
        let mut graph = Graph::new();
        let parsed =
            rdf_io::parse_ntriples(stmt, &mut dict, &mut graph).map_err(|e| DecodeError {
                line: line_no,
                message: e.to_string(),
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
mod tests {
    use super::*;
    use crate::http::write_response;
    use rdf_model::Literal;
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
