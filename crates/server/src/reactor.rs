//! The readiness-driven event loop behind [`Server`](crate::Server).
//!
//! One reactor thread owns every socket. It multiplexes readiness with
//! `epoll(7)`, declared as raw `extern "C"` shims to keep the crate
//! dependency-free; the shims' constants are Linux's, so the server is
//! Linux-only. [`Server::start`](crate::Server::start) creates the epoll
//! instance and returns its error if it cannot. Each
//! connection is a [`Connection`](crate::conn::Connection) state machine
//! over a nonblocking socket; the reactor translates readiness events
//! into machine transitions and never performs blocking work itself:
//!
//! * **Query/update evaluation** runs on a small CPU worker pool. The
//!   reactor ships complete requests over an unbounded channel (bounded
//!   in practice by serial dispatch: at most one in-flight request per
//!   connection) and workers push serialized responses into a completion
//!   list, then ring the **wakeup pipe** — the only way another thread
//!   ever interrupts `epoll_wait`.
//! * **Partial writes** park the connection with write interest
//!   registered; the next writability event resumes the drain.
//! * **Idle phases** are reaped by a [`TimerWheel`](crate::wheel::TimerWheel):
//!   deadlines are per *phase* (reading a request, draining a response,
//!   keep-alive idle), so a slowloris sender or a stalled reader is
//!   closed no matter how slowly it trickles progress.
//!
//! Update jobs still flow through the single writer's group-commit queue;
//! the worker (not the reactor) blocks on the writer's reply, and a full
//! queue turns into an immediate 429 because `try_send` never waits.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::conn::Connection;
use crate::http::{mark_close, write_response, Limits};
use crate::lock;
use crate::proto::ErrorResponse;
use crate::wheel::TimerWheel;
use crate::Shared;
use obs::CancelToken;

/// Raw Linux syscall surface. Numbers/layouts match the x86_64 and
/// aarch64 ABIs; `EpollEvent` is packed only on x86_64 (the kernel
/// declares it `__attribute__((packed))` there and aligned elsewhere).
mod sys {
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;

    pub const F_SETFL: i32 = 4;
    pub const F_SETFD: i32 = 2;
    pub const O_NONBLOCK: i32 = 0o4000;
    pub const FD_CLOEXEC: i32 = 1;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Poller token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token for the wakeup pipe's read end.
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// One readiness event, already translated out of the OS encoding.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
}

/// Readiness multiplexer: one epoll instance.
pub(crate) struct Poller {
    epfd: i32,
}

impl Poller {
    /// Creates the epoll instance with the listener and the wakeup pipe
    /// already registered, so a server that starts can accept.
    pub(crate) fn new(listener: &TcpListener, wakeup: &WakeupReader) -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // checked below.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let mut poller = Poller { epfd };
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.add(wakeup.fd, TOKEN_WAKEUP, true, false)?;
        Ok(poller)
    }

    fn add(&mut self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        epoll_op(self.epfd, sys::EPOLL_CTL_ADD, fd, token, read, write)
    }

    fn modify(&mut self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        epoll_op(self.epfd, sys::EPOLL_CTL_MOD, fd, token, read, write)
    }

    fn remove(&mut self, fd: i32) {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` is a live, writable event for the call's duration
        // (kernels before 2.6.9 require one even for DEL).
        unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks up to `timeout_ms` and appends translated events. EINTR is
    /// retried by returning an empty set (the caller's loop re-waits).
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 512];
        // SAFETY: the kernel writes at most `buf.len()` events into `buf`,
        // which outlives the call; `n` is checked before it indexes `buf`.
        let n =
            unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        for ev in &buf[..n as usize] {
            // Copy out of the (possibly packed) struct first.
            let events = ev.events;
            let data = ev.data;
            let err = events & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            out.push(Event {
                token: data,
                readable: events & sys::EPOLLIN != 0 || err,
                writable: events & sys::EPOLLOUT != 0 || err,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is this poller's own descriptor, closed once here.
        unsafe { sys::close(self.epfd) };
    }
}

fn epoll_op(epfd: i32, op: i32, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
    let mut ev = sys::EpollEvent {
        events: if read { sys::EPOLLIN } else { 0 } | if write { sys::EPOLLOUT } else { 0 },
        data: token,
    };
    if unsafe { sys::epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Read end of the wakeup pipe; owned (and drained) by the reactor.
pub(crate) struct WakeupReader {
    fd: i32,
}

impl WakeupReader {
    /// Consumes pending wakeup bytes so level-triggered polling settles.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break; // EAGAIN / EOF / error: nothing left to consume
            }
        }
    }
}

impl Drop for WakeupReader {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// Write end of the wakeup pipe. Cloned (via `Arc`) to every CPU worker
/// and the `Server` handle; the fd closes only when the last clone drops,
/// so a late `notify` can never hit a recycled descriptor.
pub(crate) struct WakeupWriter {
    fd: i32,
}

impl WakeupWriter {
    /// Makes the reactor's next `wait` return promptly. Best-effort: a
    /// full pipe already guarantees a pending wakeup.
    pub(crate) fn notify(&self) {
        let b = [1u8];
        unsafe { sys::write(self.fd, b.as_ptr(), 1) };
    }
}

impl Drop for WakeupWriter {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// Creates the nonblocking, cloexec wakeup pipe.
pub(crate) fn wakeup_pair() -> io::Result<(WakeupReader, Arc<WakeupWriter>)> {
    let mut fds = [0i32; 2];
    if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        unsafe {
            sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK);
            sys::fcntl(fd, sys::F_SETFD, sys::FD_CLOEXEC);
        }
    }
    Ok((
        WakeupReader { fd: fds[0] },
        Arc::new(WakeupWriter { fd: fds[1] }),
    ))
}

/// A complete request handed to the CPU worker pool.
pub(crate) struct Job {
    pub token: usize,
    pub generation: u64,
    /// Deadline/disconnect token: armed from the request's deadline at
    /// enqueue time, tripped early if the connection dies while the job
    /// waits — a worker picking up a dead job sheds it without evaluating.
    pub cancel: CancelToken,
    /// `Registry::now_us` when the job entered the dispatch queue, for
    /// the queue-delay histogram feeding admission control.
    pub enqueued_us: u64,
    pub req: Box<crate::http::Request>,
}

/// A serialized response coming back from a worker. Stale generations
/// (connection reaped or errored while the worker ran) are dropped.
pub(crate) struct Completion {
    pub token: usize,
    pub generation: u64,
    pub resp: crate::http::Response,
}

/// Everything the reactor thread owns, bundled for the spawn.
pub(crate) struct ReactorParams {
    pub listener: TcpListener,
    pub shared: Arc<Shared>,
    pub limits: Limits,
    pub max_conns: usize,
    pub idle_timeout_ms: u64,
    pub poller: Poller,
    pub job_tx: Sender<Job>,
    pub completions: Arc<Mutex<Vec<Completion>>>,
    pub wakeup_reader: WakeupReader,
}

/// One live connection slot.
struct Slot {
    conn: Connection,
    stream: TcpStream,
    generation: u64,
    /// Deadline value currently armed in the wheel (dedup guard).
    armed: Option<u64>,
    /// Interest mask last registered with the poller.
    interest: (bool, bool),
    /// Cancel token of the in-flight dispatched request, tripped when the
    /// slot is reaped so the worker stops evaluating for a dead client.
    cancel: CancelToken,
}

/// Index-stable slot arena; generations disambiguate reuse.
struct Slab {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Connection, stream: TcpStream, generation: u64) -> usize {
        self.live += 1;
        let slot = Slot {
            conn,
            stream,
            generation,
            armed: None,
            interest: (false, false),
            cancel: CancelToken::none(),
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn get(&mut self, token: usize) -> Option<&mut Slot> {
        self.slots.get_mut(token).and_then(Option::as_mut)
    }

    fn remove(&mut self, token: usize) -> Option<Slot> {
        let s = self.slots.get_mut(token)?.take()?;
        self.free.push(token);
        self.live -= 1;
        Some(s)
    }
}

/// The reactor thread body. Returns after a graceful drain: shutdown
/// flag observed, listener closed (backlog answered with 503), every
/// connection resolved — in-flight requests finish on the worker pool
/// and their responses are flushed with `Connection: close`.
pub(crate) fn reactor_loop(params: ReactorParams) {
    let ReactorParams {
        listener,
        shared,
        limits,
        max_conns,
        idle_timeout_ms,
        mut poller,
        job_tx,
        completions,
        wakeup_reader,
    } = params;
    let reg = obs::global();
    let start = Instant::now();
    let now_ms = |start: &Instant| start.elapsed().as_millis() as u64;

    let listener_fd = listener.as_raw_fd();
    let mut listener = Some(listener);

    let mut slab = Slab::new();
    // Slot generation counters survive slot reuse (indexed like slots).
    let mut generations: Vec<u64> = Vec::new();
    let mut wheel = TimerWheel::new(10, 256, now_ms(&start));
    let mut events: Vec<Event> = Vec::new();
    let mut ready: VecDeque<Job> = VecDeque::new();
    let mut draining = false;

    loop {
        let timeout = if slab.live == 0 && !draining { 500 } else { 20 };
        if poller.wait(&mut events, timeout).is_err() {
            // Poller failure is unrecoverable; bail rather than spin.
            return;
        }
        reg.add("server.reactor.wakeups", 1);
        let now = now_ms(&start);

        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if let Some(l) = &listener {
                        accept_ready(
                            l,
                            &shared,
                            &limits,
                            max_conns,
                            idle_timeout_ms,
                            now,
                            &mut slab,
                            &mut generations,
                            &mut poller,
                            &mut wheel,
                        );
                    }
                }
                TOKEN_WAKEUP => wakeup_reader.drain(),
                token => {
                    let token = token as usize;
                    let Some(slot) = slab.get(token) else {
                        continue;
                    };
                    if ev.writable {
                        if let Some(req) = slot.conn.on_writable(&mut slot.stream, now) {
                            let cancel = crate::deadline_token(&req, &shared);
                            slot.cancel = cancel.clone();
                            ready.push_back(Job {
                                token,
                                generation: slot.generation,
                                cancel,
                                enqueued_us: reg.now_us(),
                                req,
                            });
                        }
                    }
                    if ev.readable {
                        if let Some(req) = slot.conn.on_readable(&mut slot.stream, now) {
                            let cancel = crate::deadline_token(&req, &shared);
                            slot.cancel = cancel.clone();
                            ready.push_back(Job {
                                token,
                                generation: slot.generation,
                                cancel,
                                enqueued_us: reg.now_us(),
                                req,
                            });
                        }
                    }
                    finish_slot(token, &mut slab, &mut poller, &mut wheel, &shared, reg);
                }
            }
        }

        // Responses computed by the worker pool since the last pass.
        let done: Vec<Completion> = std::mem::take(&mut *lock(&completions));
        for c in done {
            let Some(slot) = slab.get(c.token) else {
                continue;
            };
            if slot.generation != c.generation {
                continue; // connection died while the worker ran
            }
            if let Some(req) = slot
                .conn
                .on_response(c.resp, draining, &mut slot.stream, now)
            {
                let cancel = crate::deadline_token(&req, &shared);
                slot.cancel = cancel.clone();
                ready.push_back(Job {
                    token: c.token,
                    generation: slot.generation,
                    cancel,
                    enqueued_us: reg.now_us(),
                    req,
                });
            }
            finish_slot(c.token, &mut slab, &mut poller, &mut wheel, &shared, reg);
        }

        // Ship complete requests to the CPU pool (after completions, so a
        // pipelined follow-up parsed during `on_response` rides along).
        while let Some(job) = ready.pop_front() {
            if job_tx.send(job).is_err() {
                return; // worker pool is gone; nothing sane left to do
            }
        }

        // Shutdown entry: stop accepting, answer the backlog, resolve
        // idle/partial connections; dispatched ones drain via force_close.
        if shared.shutting_down.load(Ordering::SeqCst) && !draining {
            draining = true;
            if let Some(l) = listener.take() {
                drain_backlog(&l, &shared);
                poller.remove(listener_fd);
                // Dropping the listener here closes the socket: late
                // connects get a refusal instead of parking in a backlog
                // nobody will ever answer.
            }
            for token in 0..slab.slots.len() {
                if let Some(slot) = slab.get(token) {
                    slot.conn.begin_shutdown(&mut slot.stream, now);
                }
                finish_slot(token, &mut slab, &mut poller, &mut wheel, &shared, reg);
            }
        }

        // Reap expired phase deadlines (lazy re-check: the wheel may pop
        // stale or early entries; the connection's live deadline decides).
        for t in wheel.advance(now) {
            let Some(slot) = slab.get(t.token) else {
                continue;
            };
            if slot.generation != t.generation {
                continue;
            }
            slot.armed = None;
            match slot.conn.deadline_ms() {
                Some(d) if d <= now => {
                    reg.add("server.reactor.reaped", 1);
                    drop_slot(t.token, &mut slab, &mut poller, &shared);
                }
                Some(d) => {
                    wheel.insert(t.token, slot.generation, d);
                    slot.armed = Some(d);
                }
                None => {} // dispatched: re-armed when the response lands
            }
        }

        if draining && slab.live == 0 {
            return;
        }
    }
}

/// Accepts until `WouldBlock`. Over-limit connections get a best-effort
/// 503 and close.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    limits: &Limits,
    max_conns: usize,
    idle_timeout_ms: u64,
    now: u64,
    slab: &mut Slab,
    generations: &mut Vec<u64>,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
) {
    let reg = obs::global();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if slab.live >= max_conns {
                    reg.add("server.reactor.conn_limit_rejects", 1);
                    refuse(
                        stream,
                        503,
                        "Service Unavailable",
                        "overloaded",
                        "connection limit reached",
                        Some(shared.retry_after_secs),
                    );
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let conn = Connection::new(*limits, idle_timeout_ms, now);
                // Token index is assigned by the slab; generation follows it.
                let token = slab.insert(conn, stream, 0);
                if generations.len() <= token {
                    generations.resize(token + 1, 0);
                }
                generations[token] += 1;
                let generation = generations[token];
                shared.open_conns.fetch_add(1, Ordering::SeqCst);
                let slot = slab.get(token).expect("just inserted");
                slot.generation = generation;
                slot.interest = (true, false);
                if poller.add(fd, token as u64, true, false).is_err() {
                    drop_slot(token, slab, poller, shared);
                    continue;
                }
                reg.add("server.reactor.accepted", 1);
                reg.add("server.http.connections", 1);
                // First sighting of the fresh connection's idle deadline.
                if let Some(d) = slot.conn.deadline_ms() {
                    wheel.insert(token, generation, d);
                    slot.armed = Some(d);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// After the shutdown flag: answer whatever is already in the backlog.
fn drain_backlog(listener: &TcpListener, shared: &Arc<Shared>) {
    while let Ok((stream, _)) = listener.accept() {
        refuse(
            stream,
            503,
            "Service Unavailable",
            "unavailable",
            "server is shutting down",
            Some(shared.retry_after_secs),
        );
    }
}

/// Best-effort one-shot refusal on a connection we will not serve. The
/// body keeps the uniform error shape; `retry_after_secs` mirrors into
/// both the header and `retry_after_ms` so clients can back off.
fn refuse(
    mut stream: TcpStream,
    status: u16,
    reason: &str,
    error: &str,
    msg: &str,
    retry_after_secs: Option<u64>,
) {
    let (body, headers) = match retry_after_secs {
        Some(secs) => (
            ErrorResponse::to_json_retry(error, msg, secs.saturating_mul(1000).max(1)),
            vec![("Retry-After", secs.to_string())],
        ),
        None => (ErrorResponse::to_json(error, msg), Vec::new()),
    };
    let mut resp = write_response(status, reason, "application/json", &headers, &body);
    mark_close(&mut resp);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_millis(100)));
    let _ = stream.write_all(&resp);
}

/// Post-transition bookkeeping for one slot: drop closed connections,
/// sync poller interest, (re-)arm the wheel when the deadline moved.
fn finish_slot(
    token: usize,
    slab: &mut Slab,
    poller: &mut Poller,
    wheel: &mut TimerWheel,
    shared: &Arc<Shared>,
    reg: &obs::Registry,
) {
    let Some(slot) = slab.get(token) else { return };
    if slot.conn.is_closed() {
        drop_slot(token, slab, poller, shared);
        return;
    }
    let want = (slot.conn.wants_read(), slot.conn.wants_write());
    if want != slot.interest {
        let fd = slot.stream.as_raw_fd();
        if poller.modify(fd, token as u64, want.0, want.1).is_err() {
            reg.add("server.reactor.poller_errors", 1);
            drop_slot(token, slab, poller, shared);
            return;
        }
        slot.interest = want;
    }
    match slot.conn.deadline_ms() {
        Some(d) if slot.armed != Some(d) => {
            wheel.insert(token, slot.generation, d);
            slot.armed = Some(d);
        }
        Some(_) => {}
        None => slot.armed = None,
    }
}

/// Removes a slot: poller deregistration, socket close, gauge decrement.
/// Trips the slot's cancel token so a worker still evaluating for this
/// connection stops at its next poll instead of computing into the void.
fn drop_slot(token: usize, slab: &mut Slab, poller: &mut Poller, shared: &Arc<Shared>) {
    if let Some(slot) = slab.remove(token) {
        slot.cancel.cancel();
        poller.remove(slot.stream.as_raw_fd());
        shared.open_conns.fetch_sub(1, Ordering::SeqCst);
        // Socket closes on drop.
    }
}
