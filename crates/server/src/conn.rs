//! The per-connection HTTP state machine driven by the reactor.
//!
//! A [`Connection`] is a *pure* state machine over an [`IoSource`]: it
//! owns the read/write buffers and the keep-alive/pipelining/close
//! protocol, but performs no socket calls of its own and never blocks —
//! every transition is driven by an explicit event (`on_readable`,
//! `on_writable`, `on_response`, `begin_shutdown`) plus a caller-supplied
//! clock. That makes the whole connection lifecycle unit-testable with
//! scripted byte sequences and a fake clock: no sockets, no threads, no
//! timing dependence (see `tests/conn_machine.rs`).
//!
//! State machine:
//!
//! ```text
//!             bytes           head CRLFCRLF          request complete
//!  [ReadingHead] ───────────▶ [ReadingBody] ───────────▶ [Dispatched]
//!       ▲  ▲                                                  │ response
//!       │  │ first byte of next request                       ▼
//!       │  └────────────── [KeepAlive] ◀───────────── [Writing]
//!       │ new conn              ▲   buffer empty          │ Connection: close,
//!       │                       └── after drain           │ shutdown, or EOF
//!       │                                                 ▼
//!       └── parse error / limit breach ────────────▶ [Closing] ─▶ [Closed]
//!                (4xx queued, close marked)           drain, then close
//! ```
//!
//! Deadlines are **per phase**, not per byte: the reap deadline is armed
//! when a request starts arriving (first byte after idle), when a
//! response starts draining, and when the connection goes idle — and it
//! is *not* refreshed by intermediate progress. A slowloris client
//! trickling header bytes, or a stalled reader that stops consuming a
//! large response, therefore hits the deadline no matter how often it
//! makes one byte of progress. While a request is [`ConnState::Dispatched`]
//! the connection has no deadline at all — server-side latency (a long
//! query, a writer group commit) must never reap a well-behaved client.

use std::io::{self, ErrorKind};

use crate::http::{
    head_complete, mark_close, parse_request, write_response, Limits, ParseOutcome, Request,
    Response,
};
use crate::proto::ErrorResponse;

/// Byte-level I/O the connection is driven over. `std::net::TcpStream`
/// (in nonblocking mode) is the production source; tests substitute a
/// scripted source that replays readable/writable/EOF sequences.
///
/// Contract: both calls are nonblocking — they return `WouldBlock`
/// instead of waiting, `read` returns `Ok(0)` exactly at EOF, and
/// `write` may accept any prefix of the buffer.
pub trait IoSource {
    /// Nonblocking read into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write of a prefix of `buf`.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

impl IoSource for std::net::TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }
}

/// Where a connection is in its request/response lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Collecting request-line + header bytes (no `\r\n\r\n` yet).
    ReadingHead,
    /// Head complete; collecting body bytes.
    ReadingBody,
    /// A complete request is at the worker pool; no deadline runs.
    Dispatched,
    /// Draining a response; the connection persists afterwards.
    Writing,
    /// Draining the final response; close once the buffer empties.
    Closing,
    /// Idle between keep-alive requests.
    KeepAlive,
    /// Finished — the owner drops the socket.
    Closed,
}

/// Outcome of a parse attempt, internal to the advance loop.
enum Parsed {
    /// A complete request; dispatch it.
    Dispatch(Box<Request>),
    /// Valid prefix; need more bytes.
    More,
    /// Framing error; a 4xx close response is queued.
    Fatal,
}

/// One connection's buffers + state. See the module doc for the machine.
pub struct Connection {
    limits: Limits,
    idle_timeout_ms: u64,
    in_buf: Vec<u8>,
    out_buf: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// Peer half-closed its write side (`read` returned 0). A request
    /// already received keeps being served; keep-alive is off.
    eof: bool,
    /// The in-flight request asked for `Connection: close` (or was
    /// HTTP/1.0 without keep-alive).
    req_close: bool,
    /// Reap deadline for the current phase; `None` while dispatched.
    deadline_ms: Option<u64>,
    /// Requests answered on this connection (stats / tests).
    served: u64,
}

impl Connection {
    /// A fresh connection: the peer owes us a request within the idle
    /// timeout.
    pub fn new(limits: Limits, idle_timeout_ms: u64, now_ms: u64) -> Connection {
        Connection {
            limits,
            idle_timeout_ms,
            in_buf: Vec::with_capacity(1024),
            out_buf: Vec::new(),
            out_pos: 0,
            state: ConnState::ReadingHead,
            eof: false,
            req_close: false,
            deadline_ms: Some(now_ms.saturating_add(idle_timeout_ms)),
            served: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Whether the owner should drop the socket.
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }

    /// Whether the reactor should watch for readability.
    pub fn wants_read(&self) -> bool {
        !self.eof
            && matches!(
                self.state,
                ConnState::ReadingHead | ConnState::ReadingBody | ConnState::KeepAlive
            )
    }

    /// Whether the reactor should watch for writability (a partial
    /// response is pending).
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out_buf.len() && self.state != ConnState::Closed
    }

    /// The phase deadline: reap the connection when `now` passes it.
    /// `None` while a request is dispatched (the server's own latency is
    /// not the client's fault) and once closed.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self.state {
            ConnState::Dispatched | ConnState::Closed => None,
            _ => self.deadline_ms,
        }
    }

    /// Requests answered so far on this connection.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Readability event: read until `WouldBlock`/EOF, parsing after
    /// every chunk (fragmentation-oblivious — the parser is a pure
    /// function of the accumulated buffer). Returns at most one request
    /// to dispatch; reading then pauses until its response is queued
    /// (serial dispatch per connection bounds buffering and keeps
    /// pipelined responses in order).
    pub fn on_readable(&mut self, io: &mut dyn IoSource, now_ms: u64) -> Option<Box<Request>> {
        if !self.wants_read() {
            return None;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match io.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    if self.state == ConnState::KeepAlive {
                        // First byte of a new request: the read phase
                        // (and its reap deadline) starts here.
                        self.state = ConnState::ReadingHead;
                        self.deadline_ms = Some(now_ms.saturating_add(self.idle_timeout_ms));
                    }
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    match self.try_parse(now_ms) {
                        Parsed::Dispatch(req) => return Some(req),
                        Parsed::More => {}
                        Parsed::Fatal => {
                            // 4xx queued; push what we can right away.
                            return self.advance(io, now_ms);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.state = ConnState::Closed;
                    return None;
                }
            }
        }
        if self.eof
            && matches!(
                self.state,
                ConnState::ReadingHead | ConnState::ReadingBody | ConnState::KeepAlive
            )
        {
            // The buffer cannot hold a complete request (we parse after
            // every append), so nothing more can ever be served.
            self.state = ConnState::Closed;
        }
        None
    }

    /// Writability event: drain the pending response, then advance —
    /// which may close, go idle, or dispatch the next pipelined request.
    pub fn on_writable(&mut self, io: &mut dyn IoSource, now_ms: u64) -> Option<Box<Request>> {
        match self.state {
            ConnState::Writing | ConnState::Closing => self.advance(io, now_ms),
            _ => None,
        }
    }

    /// The worker finished the dispatched request: queue its response
    /// and start draining. `force_close` (shutdown drain) closes the
    /// connection after this response even if the client wanted
    /// keep-alive.
    pub fn on_response(
        &mut self,
        resp: impl Into<Response>,
        force_close: bool,
        io: &mut dyn IoSource,
        now_ms: u64,
    ) -> Option<Box<Request>> {
        if self.state != ConnState::Dispatched {
            return None; // reaped or errored while the worker ran
        }
        self.served += 1;
        let close = self.req_close || force_close || self.eof;
        let mut resp = resp.into();
        if close {
            resp.mark_close();
        }
        self.enqueue(resp, close, now_ms);
        self.advance(io, now_ms)
    }

    /// Shutdown begins: idle and half-read connections are resolved now
    /// (close, or 503 the partial request); dispatched and writing
    /// connections finish their response first — the reactor passes
    /// `force_close` on completion.
    pub fn begin_shutdown(&mut self, io: &mut dyn IoSource, now_ms: u64) {
        match self.state {
            ConnState::KeepAlive => self.state = ConnState::Closed,
            ConnState::ReadingHead | ConnState::ReadingBody => {
                if self.in_buf.is_empty() {
                    self.state = ConnState::Closed;
                } else {
                    // A partial request can never complete under the
                    // drain contract: refuse it explicitly.
                    let body = ErrorResponse::to_json("unavailable", "server is shutting down");
                    let mut resp =
                        write_response(503, "Service Unavailable", "application/json", &[], &body);
                    mark_close(&mut resp);
                    self.enqueue(resp.into(), true, now_ms);
                    let _ = self.advance(io, now_ms);
                }
            }
            ConnState::Writing => self.state = ConnState::Closing,
            ConnState::Dispatched | ConnState::Closing | ConnState::Closed => {}
        }
    }

    /// Parses the accumulated buffer: at most one complete request, a
    /// state refinement (head vs body), or a queued framing error.
    fn try_parse(&mut self, now_ms: u64) -> Parsed {
        match parse_request(&self.in_buf, &self.limits) {
            ParseOutcome::Complete(req, consumed) => {
                self.in_buf.drain(..consumed);
                self.state = ConnState::Dispatched;
                self.deadline_ms = None;
                self.req_close = req.wants_close();
                Parsed::Dispatch(req)
            }
            ParseOutcome::Incomplete => {
                self.state = if head_complete(&self.in_buf) {
                    ConnState::ReadingBody
                } else {
                    ConnState::ReadingHead
                };
                Parsed::More
            }
            ParseOutcome::Error(e) => {
                obs::global().add("server.http.bad_requests", 1);
                let body = ErrorResponse::to_json("bad_request", &e.to_string());
                let mut resp =
                    write_response(e.status(), e.reason(), "application/json", &[], &body);
                mark_close(&mut resp);
                self.enqueue(resp.into(), true, now_ms);
                Parsed::Fatal
            }
        }
    }

    /// Queues one serialised response and arms the write-phase deadline.
    fn enqueue(&mut self, resp: Response, close: bool, now_ms: u64) {
        debug_assert!(self.out_pos >= self.out_buf.len(), "one response at a time");
        (self.out_buf, self.out_pos) = resp.into_parts();
        self.state = if close {
            ConnState::Closing
        } else {
            ConnState::Writing
        };
        self.deadline_ms = Some(now_ms.saturating_add(self.idle_timeout_ms));
    }

    /// Pushes queued bytes until `WouldBlock` or empty. Returns false on
    /// `WouldBlock` (wait for writability), true when fully drained;
    /// write errors close the connection (and return false).
    fn flush_bytes(&mut self, io: &mut dyn IoSource) -> bool {
        while self.out_pos < self.out_buf.len() {
            match io.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => {
                    self.state = ConnState::Closed;
                    return false;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.state = ConnState::Closed;
                    return false;
                }
            }
        }
        true
    }

    /// Drives the machine after write progress: flush, then either close
    /// (Closing), go idle, or parse the next pipelined request — looping
    /// so a pipelined framing error still gets its 4xx flushed.
    fn advance(&mut self, io: &mut dyn IoSource, now_ms: u64) -> Option<Box<Request>> {
        loop {
            if self.state == ConnState::Closed {
                return None;
            }
            if !self.flush_bytes(io) {
                return None; // WouldBlock (wants_write stays true) or closed
            }
            self.out_buf.clear();
            self.out_pos = 0;
            match self.state {
                ConnState::Closing => {
                    self.state = ConnState::Closed;
                    return None;
                }
                ConnState::Writing => {
                    if self.in_buf.is_empty() {
                        if self.eof {
                            self.state = ConnState::Closed;
                        } else {
                            self.state = ConnState::KeepAlive;
                            self.deadline_ms = Some(now_ms.saturating_add(self.idle_timeout_ms));
                        }
                        return None;
                    }
                    // Pipelined bytes already buffered: the next request
                    // phase starts now.
                    self.deadline_ms = Some(now_ms.saturating_add(self.idle_timeout_ms));
                    match self.try_parse(now_ms) {
                        Parsed::Dispatch(req) => return Some(req),
                        Parsed::More => {
                            if self.eof {
                                self.state = ConnState::Closed;
                            }
                            return None;
                        }
                        Parsed::Fatal => continue, // flush the queued 4xx
                    }
                }
                // flush_bytes returned true with nothing queued — no
                // further transition owed from a write event.
                _ => return None,
            }
        }
    }
}
