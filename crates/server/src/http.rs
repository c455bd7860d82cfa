//! A minimal, dependency-free HTTP/1.1 request parser.
//!
//! Deliberately a *pure incremental function* over a byte buffer —
//! `parse_request(&buf)` either consumes one complete request, asks for
//! more bytes, or rejects with a typed error that maps onto a 4xx status.
//! No I/O happens here, which is what makes the parser fuzzable: the
//! proptest suite feeds it truncations, garbage splices, oversized heads
//! and broken chunked framing and asserts it never panics (mirroring
//! `rdf-io/tests/corrupt_inputs.rs`).
//!
//! Supported surface (all the embedded server needs): request line +
//! headers, `Content-Length` or `Transfer-Encoding: chunked` bodies,
//! `Connection: close`/`keep-alive`. Everything else is rejected, loudly.

use std::fmt;

/// Parser limits; every one maps to a distinct client error instead of
/// unbounded buffering.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes for request line + headers (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum body bytes, after de-chunking (413 beyond this).
    pub max_body_bytes: usize,
    /// Maximum header count (431 beyond this).
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            max_headers: 64,
        }
    }
}

/// Why a request was rejected; [`HttpError::status`] maps each reason to
/// the HTTP status the server replies with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` or contains control bytes.
    BadHeader,
    /// Request line + headers exceed [`Limits::max_head_bytes`] or
    /// [`Limits::max_headers`].
    HeadTooLarge,
    /// Declared or actual body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// `Content-Length` is not a decimal number (or conflicts).
    BadContentLength,
    /// A `Transfer-Encoding` other than exactly `chunked`, or chunked
    /// *and* `Content-Length` together (request smuggling vector).
    BadTransferEncoding,
    /// Malformed chunked framing (bad size line, missing CRLF).
    BadChunk,
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion,
}

impl HttpError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::UnsupportedVersion => 505,
            _ => 400,
        }
    }

    /// The canonical reason phrase for [`HttpError::status`].
    pub fn reason(&self) -> &'static str {
        match self.status() {
            431 => "Request Header Fields Too Large",
            413 => "Content Too Large",
            505 => "HTTP Version Not Supported",
            _ => "Bad Request",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            HttpError::BadRequestLine => "malformed request line",
            HttpError::BadHeader => "malformed header",
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyTooLarge => "request body too large",
            HttpError::BadContentLength => "invalid Content-Length",
            HttpError::BadTransferEncoding => "unsupported Transfer-Encoding",
            HttpError::BadChunk => "malformed chunked framing",
            HttpError::UnsupportedVersion => "unsupported HTTP version",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target (`/query`, `/metrics?format=json`, …).
    pub target: String,
    /// Header `(name, value)` pairs; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
    /// Whether the request line said `HTTP/1.0`. Persistence defaults
    /// flip with the version: 1.1 keeps the connection open unless told
    /// otherwise, 1.0 closes it unless told otherwise.
    pub http10: bool,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection closes after this request. `Connection:
    /// close` always closes and `Connection: keep-alive` always keeps;
    /// absent a header, the version decides — HTTP/1.1 defaults to
    /// keep-alive, HTTP/1.0 to close (a 1.0 client does not expect the
    /// connection to persist and would hang waiting for EOF).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }

    /// The path portion of the target (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query-string portion of the target (after the first `?`).
    pub fn query_string(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// Result of feeding the buffer to the parser.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// One complete request, plus how many buffer bytes it consumed
    /// (the caller drains them and keeps the rest for pipelining).
    Complete(Box<Request>, usize),
    /// The buffer holds a valid prefix; read more bytes.
    Incomplete,
    /// The buffer can never become a valid request.
    Error(HttpError),
}

/// Parses at most one request from `buf`. Pure: no allocation outside the
/// returned request, no I/O, total over arbitrary bytes.
pub fn parse_request(buf: &[u8], limits: &Limits) -> ParseOutcome {
    // --- head: request line + headers, terminated by CRLFCRLF ---------
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            return if buf.len() > limits.max_head_bytes {
                ParseOutcome::Error(HttpError::HeadTooLarge)
            } else {
                ParseOutcome::Incomplete
            };
        }
    };
    if head_end > limits.max_head_bytes {
        return ParseOutcome::Error(HttpError::HeadTooLarge);
    }
    let head = &buf[..head_end];
    let mut lines = split_crlf_lines(head);
    let request_line = match lines.next() {
        Some(Ok(line)) if !line.is_empty() => line,
        _ => return ParseOutcome::Error(HttpError::BadRequestLine),
    };
    let (method, target, http10) = match parse_request_line(request_line) {
        Ok(parts) => parts,
        Err(e) => return ParseOutcome::Error(e),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let line = match line {
            Ok(l) => l,
            Err(e) => return ParseOutcome::Error(e),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return ParseOutcome::Error(HttpError::HeadTooLarge);
        }
        match parse_header_line(line) {
            Ok(h) => headers.push(h),
            Err(e) => return ParseOutcome::Error(e),
        }
    }

    let request = Request {
        method,
        target,
        headers,
        body: Vec::new(),
        http10,
    };

    // --- body framing ---------------------------------------------------
    let content_length = request.header("content-length");
    let transfer_encoding = request.header("transfer-encoding");
    let body_start = head_end;

    match (content_length, transfer_encoding) {
        (Some(_), Some(_)) => ParseOutcome::Error(HttpError::BadTransferEncoding),
        (None, Some(te)) => {
            if !te.eq_ignore_ascii_case("chunked") {
                return ParseOutcome::Error(HttpError::BadTransferEncoding);
            }
            match parse_chunked(&buf[body_start..], limits.max_body_bytes) {
                Ok(Some((body, consumed))) => {
                    let mut request = request;
                    request.body = body;
                    ParseOutcome::Complete(Box::new(request), body_start + consumed)
                }
                Ok(None) => ParseOutcome::Incomplete,
                Err(e) => ParseOutcome::Error(e),
            }
        }
        (Some(cl), None) => {
            let len: usize = match parse_content_length(cl) {
                Ok(n) => n,
                Err(e) => return ParseOutcome::Error(e),
            };
            if len > limits.max_body_bytes {
                return ParseOutcome::Error(HttpError::BodyTooLarge);
            }
            if buf.len() < body_start + len {
                return ParseOutcome::Incomplete;
            }
            let mut request = request;
            request.body = buf[body_start..body_start + len].to_vec();
            ParseOutcome::Complete(Box::new(request), body_start + len)
        }
        (None, None) => ParseOutcome::Complete(Box::new(request), body_start),
    }
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Whether the buffer already holds a complete head (`\r\n\r\n` seen).
/// Used by the connection state machine to distinguish "still reading
/// headers" from "head done, collecting the body" without re-parsing.
pub fn head_complete(buf: &[u8]) -> bool {
    find_head_end(buf).is_some()
}

/// Iterates CRLF-separated lines of the head as UTF-8 (headers must be
/// ASCII-clean; raw control bytes are a [`HttpError::BadHeader`]).
fn split_crlf_lines(head: &[u8]) -> impl Iterator<Item = Result<&str, HttpError>> {
    head.split_inclusive2()
}

/// Tiny extension: split the head at `\r\n` boundaries without pulling in
/// regex machinery — and validate UTF-8 per line.
trait SplitCrlf {
    fn split_inclusive2(&self) -> CrlfLines<'_>;
}

impl SplitCrlf for [u8] {
    fn split_inclusive2(&self) -> CrlfLines<'_> {
        CrlfLines { rest: self }
    }
}

struct CrlfLines<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for CrlfLines<'a> {
    type Item = Result<&'a str, HttpError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let (line, rest) = match self.rest.windows(2).position(|w| w == b"\r\n") {
            Some(i) => (&self.rest[..i], &self.rest[i + 2..]),
            None => (self.rest, &self.rest[..0]),
        };
        self.rest = rest;
        match std::str::from_utf8(line) {
            Ok(s) if !s.bytes().any(|b| b.is_ascii_control() && b != b'\t') => Some(Ok(s)),
            _ => Some(Err(HttpError::BadHeader)),
        }
    }
}

fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Err(HttpError::BadRequestLine);
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    match version {
        "HTTP/1.1" => Ok((method.to_owned(), target.to_owned(), false)),
        "HTTP/1.0" => Ok((method.to_owned(), target.to_owned(), true)),
        v if v.starts_with("HTTP/") => Err(HttpError::UnsupportedVersion),
        _ => Err(HttpError::BadRequestLine),
    }
}

fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
    if name.is_empty()
        || name
            .bytes()
            .any(|b| b.is_ascii_whitespace() || !b.is_ascii_graphic())
    {
        return Err(HttpError::BadHeader);
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
}

fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::BadContentLength);
    }
    value.parse().map_err(|_| HttpError::BadContentLength)
}

/// Hard cap on one chunk-size line (hex size + extensions). Applied to
/// terminated lines *and* — via [`chunk_line_doomed`] — to unterminated
/// prefixes, so the two checks agree and fragmented parsing stays
/// byte-for-byte equivalent to whole-buffer parsing.
const MAX_CHUNK_LINE: usize = 256;

/// Trims ASCII space/tab from both ends of a chunk-size token. The
/// acceptor deliberately trims only these two bytes (not full Unicode
/// whitespace) so [`chunk_line_doomed`] can reason about prefixes without
/// worrying about multi-byte whitespace arriving split across reads.
fn trim_chunk_token(s: &[u8]) -> &[u8] {
    let start = s
        .iter()
        .position(|&b| b != b' ' && b != b'\t')
        .unwrap_or(s.len());
    let end = s
        .iter()
        .rposition(|&b| b != b' ' && b != b'\t')
        .map_or(start, |i| i + 1);
    &s[start..end]
}

/// Whether a trimmed chunk-size token is acceptable: nonempty, all hex,
/// and at most 16 digits (a `usize` can't hold more anyway; rejecting
/// leading-zero padding beyond that keeps the doomed-prefix check exact).
fn chunk_token_ok(tok: &[u8]) -> bool {
    !tok.is_empty() && tok.len() <= 16 && tok.iter().all(u8::is_ascii_hexdigit)
}

/// Whether an *unterminated* chunk-size line can never become valid, no
/// matter what bytes arrive next. This must be **prefix-stable** with
/// respect to the terminated-line acceptor above: it may only say
/// "doomed" when every possible continuation would be rejected —
/// otherwise a fragmented read could 400 a request the whole-buffer
/// parse accepts, breaking the event-loop equivalence property
/// (`fuzz_http.rs` locks this down).
fn chunk_line_doomed(line: &[u8]) -> bool {
    if line.len() > MAX_CHUNK_LINE {
        return true; // any termination yields a line over the cap
    }
    // A trailing '\r' may be the first half of the CRLF terminator.
    let line = match line.split_last() {
        Some((&b'\r', rest)) => rest,
        _ => line,
    };
    if let Some(semi) = line.iter().position(|&b| b == b';') {
        // A ';' freezes the size token: judge it exactly.
        return !chunk_token_ok(trim_chunk_token(&line[..semi]));
    }
    // No ';' yet — the token may still grow. Doom only what no suffix
    // can repair: a stray byte before/inside/after the hex run, or a
    // run already too long (trailing whitespace could still be followed
    // by ';', so it alone dooms nothing).
    let mut hex_digits = 0usize;
    #[derive(PartialEq)]
    enum Scan {
        Lead,
        Hex,
        Trail,
    }
    let mut state = Scan::Lead;
    for &b in line {
        state = match (state, b) {
            (Scan::Lead, b' ' | b'\t') => Scan::Lead,
            (Scan::Lead | Scan::Hex, d) if d.is_ascii_hexdigit() => {
                hex_digits += 1;
                if hex_digits > 16 {
                    return true;
                }
                Scan::Hex
            }
            (Scan::Hex | Scan::Trail, b' ' | b'\t') => Scan::Trail,
            _ => return true,
        };
    }
    false
}

/// De-chunks a `Transfer-Encoding: chunked` body. Returns the body and the
/// bytes consumed, `None` when more input is needed.
fn parse_chunked(buf: &[u8], max_body: usize) -> Result<Option<(Vec<u8>, usize)>, HttpError> {
    let mut body = Vec::new();
    let mut pos = 0usize;
    loop {
        // chunk-size line (hex, optional extensions after ';')
        let line_end = match buf[pos..].windows(2).position(|w| w == b"\r\n") {
            Some(i) => pos + i,
            None => {
                // Unterminated: wait for more bytes unless no suffix can
                // ever make this line valid.
                return if chunk_line_doomed(&buf[pos..]) {
                    Err(HttpError::BadChunk)
                } else {
                    Ok(None)
                };
            }
        };
        let line = &buf[pos..line_end];
        if line.len() > MAX_CHUNK_LINE {
            return Err(HttpError::BadChunk);
        }
        let size_part = match line.iter().position(|&b| b == b';') {
            Some(i) => &line[..i],
            None => line,
        };
        let size_hex = trim_chunk_token(size_part);
        if !chunk_token_ok(size_hex) {
            return Err(HttpError::BadChunk);
        }
        let size_hex = std::str::from_utf8(size_hex).map_err(|_| HttpError::BadChunk)?;
        let size = usize::from_str_radix(size_hex, 16).map_err(|_| HttpError::BadChunk)?;
        if body.len() + size > max_body {
            return Err(HttpError::BodyTooLarge);
        }
        let data_start = line_end + 2;
        if size == 0 {
            // last-chunk: expect the terminating CRLF (trailers rejected).
            if buf.len() < data_start + 2 {
                return Ok(None);
            }
            if &buf[data_start..data_start + 2] != b"\r\n" {
                return Err(HttpError::BadChunk);
            }
            return Ok(Some((body, data_start + 2)));
        }
        if buf.len() < data_start + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[data_start..data_start + size]);
        if &buf[data_start + size..data_start + size + 2] != b"\r\n" {
            return Err(HttpError::BadChunk);
        }
        pos = data_start + size + 2;
    }
}

/// Serialises one HTTP/1.1 response. `content_type` is omitted when the
/// body is empty; `extra_headers` ride along verbatim.
pub fn write_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write_head(
        &mut out,
        status,
        reason,
        content_type,
        extra_headers,
        body.len(),
    );
    out.extend_from_slice(body);
    out
}

/// Appends the head of a response with a `body_len`-byte body.
fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body_len: usize,
) {
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    if body_len > 0 {
        out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {body_len}\r\n").as_bytes());
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
}

/// Bytes a body-first writer reserves in front of its body: room for a
/// status line, `Content-Type`, a 20-digit `Content-Length` and a later
/// `Connection: close` ([`Response::mark_close`]).
pub(crate) const HEAD_ROOM: usize = 128;

/// One serialised response on its way to the socket: the wire bytes are
/// `buf[start..]`. A reply written body-first starts `HEAD_ROOM` bytes
/// into its buffer and gets its head last (`Response::head_room`), so a
/// large body is written once and never moved or copied.
#[derive(Debug)]
pub struct Response {
    buf: Vec<u8>,
    start: usize,
}

impl From<Vec<u8>> for Response {
    fn from(buf: Vec<u8>) -> Response {
        Response { buf, start: 0 }
    }
}

impl Response {
    /// Finishes a response whose body fills `buf[HEAD_ROOM..]`: its head,
    /// byte-identical to [`write_response`]'s with no extra headers, is
    /// written into the end of the reserved room.
    ///
    /// # Panics
    /// If `buf` is shorter than [`HEAD_ROOM`].
    pub(crate) fn head_room(
        mut buf: Vec<u8>,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> Response {
        let mut head = Vec::with_capacity(HEAD_ROOM);
        let body_len = buf.len() - HEAD_ROOM;
        write_head(&mut head, status, reason, content_type, &[], body_len);
        let start = HEAD_ROOM - head.len();
        assert!(
            start >= CONNECTION_CLOSE.len(),
            "the room holds the head and a later `Connection: close`"
        );
        buf[start..HEAD_ROOM].copy_from_slice(&head);
        Response { buf, start }
    }

    /// The bytes that go on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// The buffer and the offset of the first wire byte in it.
    pub(crate) fn into_parts(self) -> (Vec<u8>, usize) {
        (self.buf, self.start)
    }

    /// [`mark_close`] for a response that may have room in front: the
    /// status line moves into the room instead of the body moving back.
    pub fn mark_close(&mut self) {
        if self.start == 0 {
            mark_close(&mut self.buf);
            return;
        }
        let Some(line) = status_line_len(self.as_bytes()) else {
            return;
        };
        let from = self.start;
        self.start -= CONNECTION_CLOSE.len();
        self.buf.copy_within(from..from + line, self.start);
        self.buf[self.start + line..from + line].copy_from_slice(CONNECTION_CLOSE);
    }
}

/// Serialises the head of a `Transfer-Encoding: chunked` response — the
/// framing the subscription stream uses, since its length is unknown when
/// the status line goes out. Follow with [`chunk`] frames and terminate
/// with [`CHUNK_END`].
pub fn write_chunked_head(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(160);
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Frames one chunk of a chunked response (hex length, CRLF, payload,
/// CRLF). Empty payloads are skipped entirely — an empty chunk would
/// terminate the stream.
pub fn chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(format!("{:x}\r\n", payload.len()).as_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating frame of a chunked response.
pub const CHUNK_END: &[u8] = b"0\r\n\r\n";

/// Stamps `Connection: close` onto an already-serialised response, right
/// after the status line — the server calls this on every close path
/// (client asked, HTTP/1.0 default, shutdown drain) so clients are told
/// explicitly instead of having to infer the close from EOF.
pub fn mark_close(resp: &mut Vec<u8>) {
    if let Some(at) = status_line_len(resp) {
        resp.splice(at..at, CONNECTION_CLOSE.iter().copied());
    }
}

const CONNECTION_CLOSE: &[u8] = b"Connection: close\r\n";

/// Length of the status line, its `\r\n` included.
fn status_line_len(resp: &[u8]) -> Option<usize> {
    resp.windows(2)
        .position(|w| w == b"\r\n")
        .map(|pos| pos + 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> ParseOutcome {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(raw) {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path(), "/metrics");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(consumed, raw.len());
                assert!(req.body.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_content_length_body_and_pipelining_remainder() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /";
        match parse(raw) {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.body, b"hello");
                assert_eq!(&raw[consumed..], b"GET /");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_chunked_body() {
        let raw = b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        match parse(raw) {
            ParseOutcome::Complete(req, consumed) => {
                assert_eq!(req.body, b"wikipedia");
                assert_eq!(consumed, raw.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        assert_eq!(parse(raw), ParseOutcome::Incomplete);
        assert_eq!(parse(b"GET /x HT"), ParseOutcome::Incomplete);
        assert_eq!(
            parse(b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwi"),
            ParseOutcome::Incomplete
        );
    }

    #[test]
    fn rejects_smuggling_and_bad_framing() {
        let both = b"POST /u HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            parse(both),
            ParseOutcome::Error(HttpError::BadTransferEncoding)
        ));
        let gzip = b"POST /u HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        assert!(matches!(
            parse(gzip),
            ParseOutcome::Error(HttpError::BadTransferEncoding)
        ));
        let badchunk = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(matches!(
            parse(badchunk),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
    }

    #[test]
    fn enforces_limits() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
            max_headers: 2,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(
            parse_request(long_head.as_bytes(), &limits),
            ParseOutcome::Error(HttpError::HeadTooLarge)
        ));
        let big_body = b"POST /q HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(
            parse_request(big_body, &limits),
            ParseOutcome::Error(HttpError::BodyTooLarge)
        ));
        let many = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert!(matches!(
            parse_request(many, &limits),
            ParseOutcome::Error(HttpError::HeadTooLarge)
        ));
    }

    #[test]
    fn chunk_size_lines_over_the_cap_are_rejected_terminated_or_not() {
        // Terminated long line: rejected outright.
        let raw = format!(
            "POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4;{}\r\nwiki\r\n0\r\n\r\n",
            "e".repeat(MAX_CHUNK_LINE)
        );
        assert!(matches!(
            parse(raw.as_bytes()),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
        // Unterminated prefix of the same line: also rejected (doomed),
        // never buffered forever.
        let tail = "\r\nwiki\r\n0\r\n\r\n".len();
        let prefix = &raw.as_bytes()[..raw.len() - tail];
        assert!(matches!(
            parse(prefix),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
    }

    #[test]
    fn chunk_doom_check_is_prefix_stable() {
        // For every chunked request the whole-buffer parser accepts, no
        // strict prefix may error: fragmented reads must be able to reach
        // the same final answer.
        let corpus: &[&[u8]] = &[
            b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n0\r\n\r\n",
            b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4;name=value\r\nwiki\r\n0\r\n\r\n",
            b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n 4 ;x\r\nwiki\r\n0\r\n\r\n",
            b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0004\r\nwiki\r\n0\r\n\r\n",
        ];
        for raw in corpus {
            assert!(
                matches!(parse(raw), ParseOutcome::Complete(..)),
                "corpus entry must be valid: {:?}",
                String::from_utf8_lossy(raw)
            );
            for cut in 0..raw.len() {
                assert!(
                    !matches!(parse(&raw[..cut]), ParseOutcome::Error(_)),
                    "prefix of a valid request errored at cut {cut}: {:?}",
                    String::from_utf8_lossy(&raw[..cut])
                );
            }
        }
    }

    #[test]
    fn doomed_chunk_prefixes_fail_early() {
        // A non-hex size byte can never be repaired by later bytes.
        let doomed = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz";
        assert!(matches!(
            parse(doomed),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
        // 17 hex digits overflow the token cap even unterminated.
        let long = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n12345678901234567";
        assert!(matches!(
            parse(long),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
        // An empty size frozen by ';' is doomed too.
        let semi = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n;ext";
        assert!(matches!(
            parse(semi),
            ParseOutcome::Error(HttpError::BadChunk)
        ));
        // But a bare trailing '\r' (maybe half a CRLF) is not doomed…
        let half = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r";
        assert_eq!(parse(half), ParseOutcome::Incomplete);
    }

    #[test]
    fn head_complete_tracks_the_terminator() {
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\ntrailing"));
    }

    #[test]
    fn error_statuses_are_4xx_or_505() {
        for e in [
            HttpError::BadRequestLine,
            HttpError::BadHeader,
            HttpError::HeadTooLarge,
            HttpError::BodyTooLarge,
            HttpError::BadContentLength,
            HttpError::BadTransferEncoding,
            HttpError::BadChunk,
            HttpError::UnsupportedVersion,
        ] {
            let s = e.status();
            assert!((400..=505).contains(&s), "{e}: {s}");
        }
    }

    #[test]
    fn connection_persistence_follows_version_defaults() {
        let parse_one = |raw: &[u8]| match parse(raw) {
            ParseOutcome::Complete(req, _) => req,
            other => panic!("{other:?}"),
        };
        // HTTP/1.1: keep-alive unless told to close.
        assert!(!parse_one(b"GET / HTTP/1.1\r\n\r\n").wants_close());
        assert!(parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_close());
        // HTTP/1.0: close unless told to keep alive.
        let v10 = parse_one(b"GET / HTTP/1.0\r\n\r\n");
        assert!(v10.http10);
        assert!(v10.wants_close(), "1.0 without a header must close");
        assert!(!parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_close());
        assert!(parse_one(b"GET / HTTP/1.0\r\nConnection: Close\r\n\r\n").wants_close());
    }

    #[test]
    fn mark_close_lands_after_the_status_line() {
        let mut resp = write_response(200, "OK", "text/plain", &[], b"ok");
        mark_close(&mut resp);
        let text = String::from_utf8(resp).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 200 OK\r\nConnection: close\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\nok"), "framing intact: {text}");
    }

    #[test]
    fn head_room_response_matches_write_response() {
        for body in [&b""[..], b"{}", &[b'x'; 1000]] {
            let mut buf = vec![0; HEAD_ROOM];
            buf.extend_from_slice(body);
            let mut resp = Response::head_room(buf, 200, "OK", "application/json");
            let mut want = write_response(200, "OK", "application/json", &[], body);
            assert_eq!(resp.as_bytes(), &want[..]);
            // Marking close moves the status line into the room; the
            // bytes match the splice into a plain response.
            resp.mark_close();
            mark_close(&mut want);
            assert_eq!(resp.as_bytes(), &want[..]);
            let mut plain = Response::from(write_response(200, "OK", "text/plain", &[], body));
            plain.mark_close();
            let mut want = write_response(200, "OK", "text/plain", &[], body);
            mark_close(&mut want);
            assert_eq!(plain.as_bytes(), &want[..]);
        }
    }

    #[test]
    fn response_writer_round_trips_sizes() {
        let resp = write_response(
            429,
            "Too Many Requests",
            "application/json",
            &[("Retry-After", "1".to_owned())],
            b"{}",
        );
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
