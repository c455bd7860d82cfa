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

use rdf_model::{Dictionary, Graph};
use serde::Serialize;
use sparql::EvalStats;

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

/// JSON body of a successful `POST /query` response.
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

/// JSON body of a successful `POST /update` response.
#[derive(Debug, Serialize)]
pub struct UpdateResponse {
    /// Ops accepted into the writer queue (= ops decoded).
    pub accepted: usize,
    /// Triples actually added by the batch.
    pub added: usize,
    /// Triples actually removed by the batch.
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
}
