//! Embedded HTTP/1.1 query/update server over the snapshot-isolated store.
//!
//! The server is dependency-free (`std::net` only) and built around the
//! concurrency contract PR 5 introduced in `webreason-core`:
//!
//! * **One connection engine.** A single reactor thread multiplexes every
//!   socket (epoll, `poll(2)` fallback) and hands complete requests to a
//!   small CPU worker pool; see the `reactor` and [`conn`] modules.
//! * **Readers never block behind maintenance.** Each CPU worker reads
//!   through a [`StoreReader`]; `POST /query` clones the current published
//!   [`StoreSnapshot`](webreason_core::StoreSnapshot) `Arc` and evaluates
//!   against that immutable view, concurrently with updates.
//! * **One writer, journaled, group-committed.** A dedicated writer
//!   thread owns the [`DurableStore`]; `POST /update` bodies are decoded
//!   on a CPU worker, then shipped over a *bounded* channel. Each script is
//!   **atomic** — one `UpdateScript` journal record, applied
//!   all-or-nothing — and the writer drains every queued job after each
//!   `recv`, journals the group, fsyncs **once**, publishes **one**
//!   epoch, and fans replies back per job. When the queue is full the
//!   client gets `429 Too Many Requests` with a `Retry-After` hint —
//!   backpressure instead of unbounded buffering.
//! * **Graceful shutdown.** [`Server::shutdown`] stops accepting, lets
//!   in-flight requests complete, answers stragglers with `503`, drains
//!   the update queue, and hands the `DurableStore` back to the caller.
//!
//! Endpoints:
//!
//! | method+path    | body            | reply                              |
//! |----------------|-----------------|------------------------------------|
//! | `POST /query`  | SPARQL text     | JSON bindings + stats + epoch      |
//! | `POST /update` | update script   | JSON apply summary + epoch         |
//! | `GET /metrics` | —               | Prometheus text (obs registry)     |
//! | `GET /health`  | —               | `200 ok` (liveness; never sheds)   |
//! | `GET /ready`   | —               | `200 ready`, or `503` + reason     |
//! | `POST /subscribe` | SPARQL text  | chunked window: header, snapshot, `next` link |
//! | `GET /subscribe/{id}?from=E` | — | JSON batches after epoch `E` + terminal |
//! | `DELETE /subscribe/{id}` | —     | `200`, or `404` for an unknown id  |
//!
//! # Graceful degradation (PR 8)
//!
//! * **Deadlines + cooperative cancellation.** Every request carries a
//!   [`obs::CancelToken`] stamped from `X-Webreason-Deadline-Ms` (clamped
//!   to [`ServerConfig::max_deadline_ms`]) or
//!   [`ServerConfig::default_deadline_ms`]. The token is threaded through
//!   `StoreReader::answer_sparql_cancel` into the executor, which polls
//!   it between branches and inside the trie walk; an expired deadline
//!   returns `504` mid-evaluation (partial rows discarded) or `503` +
//!   `Retry-After` when the request expired before it was ever
//!   dispatched. The reactor cancels the token on client disconnect, so
//!   abandoned queries stop consuming CPU workers.
//! * **Adaptive load shedding.** The writer and the reactor's dispatch
//!   queue measure their queue delay (log2 histograms
//!   `server.update.queue_wait_us` / `server.reactor.dispatch_wait_us`
//!   plus EWMAs); admission control sheds updates whose estimated wait
//!   exceeds their deadline budget with `503` + a `Retry-After` computed
//!   from the observed drain rate. `/health` and `/metrics` bypass
//!   shedding.
//! * **Degraded read-only mode.** A journal append/fsync I/O error fails
//!   the in-flight group (nothing acknowledged, nothing published) and
//!   flips the server to degraded: updates get `503`
//!   `{"degraded":"journal_enospc"}` while reads keep serving snapshots.
//!   A supervisor retries a probe append with jittered exponential
//!   backoff and exits degraded automatically once the disk heals.
//!   Checkpoint failures are counted but never degrade (the journal alone
//!   is durable).

pub mod conn;
pub mod http;
pub mod proto;
mod reactor;
mod wheel;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use http::{chunk, write_chunked_head, write_response, Limits, Request, Response, CHUNK_END};
use obs::CancelToken;
use proto::{
    decode_update_body, query_reply, ErrorResponse, SubscribeHeader, UpdateOp, UpdateResponse,
};
use webreason_core::{AnswerError, DurabilityError, DurableError, DurableStore, StoreReader};
use webreason_incremental::{DeltaBatch, HubConfig, SubscribeError, SubscriptionHub};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// CPU worker threads. They only evaluate requests; the reactor
    /// thread owns all socket I/O.
    pub threads: usize,
    /// Bounded writer-queue depth; a full queue turns into 429s.
    pub update_queue: usize,
    /// Value of the `Retry-After` header on 429 responses, seconds.
    pub retry_after_secs: u64,
    /// HTTP parser limits (head/body/header-count caps).
    pub limits: Limits,
    /// Checkpoint the journal every N applied update batches (0 = never).
    pub checkpoint_every: usize,
    /// Test hook: artificial delay before each drained group is applied,
    /// to make queue backpressure (and grouping) deterministic in tests.
    /// `None` in production.
    pub writer_delay: Option<Duration>,
    /// Accepted-connection cap; connections beyond it are refused with
    /// 503 instead of degrading everyone.
    pub max_conns: usize,
    /// Per-phase idle deadline. A connection that stalls while sending a
    /// request, draining a response, or sitting idle between keep-alive
    /// requests is reaped after this long.
    pub idle_timeout: Duration,
    /// Test hook: skip epoll and use the `poll(2)` fallback (also
    /// reachable via `WEBREASON_FORCE_POLL=1`).
    pub force_poll: bool,
    /// Default per-request deadline in milliseconds, applied when the
    /// client sends no `X-Webreason-Deadline-Ms` header. `None` disables
    /// deadlines for header-less requests (the library default, so
    /// embedded uses opt in; the CLI defaults to 30 000 ms).
    pub default_deadline_ms: Option<u64>,
    /// Upper clamp on client-requested deadlines, milliseconds. A header
    /// asking for more gets exactly this much.
    pub max_deadline_ms: u64,
    /// Live `POST /subscribe` registrations allowed at once; further
    /// registrations get `503 subscription_limit`. `0` disables the
    /// subscription subsystem entirely (no delta tracking on the writer).
    pub max_subscriptions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            update_queue: 64,
            retry_after_secs: 1,
            limits: Limits::default(),
            checkpoint_every: 256,
            writer_delay: None,
            max_conns: 4096,
            idle_timeout: Duration::from_secs(10),
            force_poll: false,
            default_deadline_ms: None,
            max_deadline_ms: 60_000,
            max_subscriptions: 64,
        }
    }
}

/// Why the writer rejected a job, carried back over the reply channel.
enum WriteError {
    /// The server is in read-only degraded mode (value = reason); the
    /// journal was not touched. Maps to `503` + `Retry-After`.
    Degraded(String),
    /// The apply (journal append / group fsync) failed; the update is
    /// not acknowledged and nothing was published. Maps to `500`.
    Apply(String),
}

/// A batch of decoded ops plus the channel the apply outcome returns on.
struct WriteJob {
    ops: Vec<UpdateOp>,
    reply: SyncSender<Result<UpdateResponse, WriteError>>,
    /// Microsecond enqueue timestamp (obs clock) — the writer records the
    /// queue wait, which feeds the shedding EWMA.
    enqueued_us: u64,
    /// Degraded-mode supervisor probe: bypasses the degraded fail-fast
    /// (it exists to test the journal) and the queue-depth gauge.
    probe: bool,
}

/// State shared by the reactor thread, the CPU workers and the writer.
struct Shared {
    reader: StoreReader,
    /// Revocable handle to the writer channel: shutdown takes it so the
    /// writer sees disconnection once the last in-flight clone drops.
    writer_tx: Mutex<Option<SyncSender<WriteJob>>>,
    retry_after_secs: u64,
    shutting_down: AtomicBool,
    queue_depth: AtomicU64,
    update_queue: usize,
    /// Currently-open client connections, for the `/metrics` gauge.
    open_conns: AtomicU64,
    max_conns: usize,
    /// Deadline knobs (see [`ServerConfig`]).
    default_deadline_ms: Option<u64>,
    max_deadline_ms: u64,
    /// Read-only degraded mode: fast flag checked on every update
    /// admission; the reason lives behind the mutex the supervisor's
    /// condvar pairs with.
    degraded: AtomicBool,
    degraded_reason: Mutex<Option<String>>,
    degraded_cv: Condvar,
    /// EWMAs (µs, α=1/8) feeding admission control: writer queue wait,
    /// writer per-job service time, reactor dispatch-queue wait.
    writer_wait_ewma_us: AtomicU64,
    writer_service_ewma_us: AtomicU64,
    dispatch_wait_ewma_us: AtomicU64,
    /// Incremental-view hub: registered views and their subscribers. The
    /// writer publishes each group's consolidated delta into it.
    hub: SubscriptionHub,
    /// `--max-subscriptions` (0 = subscriptions disabled, no delta
    /// tracking on the writer).
    max_subscriptions: usize,
}

impl Shared {
    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// The current degraded reason (`"journal_io"` fallback covers the
    /// moment between the flag flip and the reason store).
    fn degraded_reason(&self) -> String {
        lock(&self.degraded_reason)
            .clone()
            .unwrap_or_else(|| "journal_io".to_owned())
    }

    /// Flips into degraded mode (idempotent) and wakes the supervisor.
    fn enter_degraded(&self, reason: String) {
        let mut guard = lock(&self.degraded_reason);
        if !self.degraded.swap(true, Ordering::SeqCst) {
            obs::global().add("server.degraded.entered", 1);
        }
        *guard = Some(reason);
        drop(guard);
        self.degraded_cv.notify_all();
    }

    /// Leaves degraded mode (idempotent; called by the writer when a
    /// probe append + fsync succeeds).
    fn exit_degraded(&self) {
        let mut guard = lock(&self.degraded_reason);
        if self.degraded.swap(false, Ordering::SeqCst) {
            obs::global().add("server.degraded.exited", 1);
        }
        *guard = None;
    }

    /// Estimated writer-drain time for a newly admitted update, in
    /// milliseconds: (queued + 1) × observed per-job service EWMA.
    fn drain_estimate_ms(&self) -> u64 {
        let depth = self.queue_depth.load(Ordering::SeqCst) + 1;
        let service = self.writer_service_ewma_us.load(Ordering::Relaxed);
        depth.saturating_mul(service) / 1000
    }

    /// `Retry-After` pair (header seconds, body milliseconds) computed
    /// from the observed drain rate, floored at the configured hint.
    fn computed_retry_after(&self) -> (u64, u64) {
        let ms = self
            .drain_estimate_ms()
            .max(self.retry_after_secs.saturating_mul(1000).max(1));
        (ms.div_ceil(1000).max(1), ms)
    }
}

/// α=1/8 exponentially-weighted moving average over an atomic cell; a
/// zero cell seeds directly from the first sample. Racy updates only
/// blur the estimate — it feeds shedding heuristics, not correctness.
fn ewma_update(cell: &AtomicU64, sample_us: u64) {
    let prev = cell.load(Ordering::Relaxed);
    let next = if prev == 0 {
        sample_us
    } else {
        prev - prev / 8 + sample_us / 8
    };
    cell.store(next, Ordering::Relaxed);
}

/// Classifies a writer-side failure: `Some(reason)` when the store hit a
/// journal/fsync I/O error (ENOSPC, EIO, …) that should flip the server
/// into degraded read-only mode; `None` for semantic apply errors, which
/// stay plain 500s.
fn degraded_reason_for(e: &DurableError) -> Option<&'static str> {
    match e {
        DurableError::Durability(DurabilityError::Io(io)) => Some(match io.raw_os_error() {
            Some(28) => "journal_enospc",
            Some(5) => "journal_eio",
            _ => "journal_io",
        }),
        _ => None,
    }
}

/// Builds the request's cancellation token: `X-Webreason-Deadline-Ms`
/// (clamped to the server max) wins, else the configured default, else a
/// token that never cancels.
fn deadline_token(req: &Request, shared: &Shared) -> CancelToken {
    let requested = req
        .header("x-webreason-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok());
    let budget_ms = match requested {
        Some(ms) => Some(ms.min(shared.max_deadline_ms)),
        None => shared.default_deadline_ms,
    };
    match budget_ms {
        Some(0) | None => CancelToken::none(),
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts the threads without draining (the journal keeps the data safe;
/// prefer `shutdown` to get the store back).
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    wakeup: Arc<reactor::WakeupWriter>,
    writer_handle: Option<JoinHandle<DurableStore>>,
    writer_tx: Option<SyncSender<WriteJob>>,
    supervisor_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the writer, the CPU worker pool and the reactor, and
    /// returns. The store moves onto the writer thread; get it back via
    /// [`Server::shutdown`].
    pub fn start(store: DurableStore, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let reader = store.reader();

        let (writer_tx, writer_rx) = mpsc::sync_channel::<WriteJob>(config.update_queue.max(1));
        let shared = Arc::new(Shared {
            reader,
            writer_tx: Mutex::new(Some(writer_tx.clone())),
            retry_after_secs: config.retry_after_secs,
            shutting_down: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            update_queue: config.update_queue.max(1),
            open_conns: AtomicU64::new(0),
            max_conns: config.max_conns.max(1),
            default_deadline_ms: config.default_deadline_ms,
            max_deadline_ms: config.max_deadline_ms.max(1),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(None),
            degraded_cv: Condvar::new(),
            writer_wait_ewma_us: AtomicU64::new(0),
            writer_service_ewma_us: AtomicU64::new(0),
            dispatch_wait_ewma_us: AtomicU64::new(0),
            hub: SubscriptionHub::new(HubConfig {
                max_subscriptions: config.max_subscriptions,
                ..HubConfig::default()
            }),
            max_subscriptions: config.max_subscriptions,
        });

        let writer_handle = {
            let shared = Arc::clone(&shared);
            let checkpoint_every = config.checkpoint_every;
            let delay = config.writer_delay;
            std::thread::Builder::new()
                .name("webreason-writer".to_owned())
                .spawn(move || writer_loop(store, writer_rx, shared, checkpoint_every, delay))?
        };

        let (job_tx, job_rx) = mpsc::channel::<reactor::Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions = Arc::new(Mutex::new(Vec::new()));
        let (wakeup_reader, wakeup) = reactor::wakeup_pair()?;
        let mut worker_handles = Vec::with_capacity(config.threads.max(1));
        for i in 0..config.threads.max(1) {
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let wakeup = Arc::clone(&wakeup);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("webreason-cpu-{i}"))
                    .spawn(move || cpu_worker_loop(shared, job_rx, completions, wakeup))?,
            );
        }
        let params = reactor::ReactorParams {
            listener,
            shared: Arc::clone(&shared),
            limits: config.limits,
            max_conns: config.max_conns.max(1),
            idle_timeout_ms: config.idle_timeout.as_millis().max(1) as u64,
            force_poll: config.force_poll,
            job_tx,
            completions,
            wakeup_reader,
        };
        let reactor_handle = std::thread::Builder::new()
            .name("webreason-reactor".to_owned())
            .spawn(move || reactor::reactor_loop(params))?;

        let supervisor_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("webreason-degraded-supervisor".to_owned())
                .spawn(move || degraded_supervisor(shared))?
        };

        Ok(Server {
            local_addr,
            shared,
            reactor_handle: Some(reactor_handle),
            worker_handles,
            wakeup,
            writer_handle: Some(writer_handle),
            writer_tx: Some(writer_tx),
            supervisor_handle: Some(supervisor_handle),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A fresh concurrent read handle onto the served store.
    pub fn reader(&self) -> StoreReader {
        self.shared.reader.clone()
    }

    /// Currently live `POST /subscribe` registrations (test/ops hook; the
    /// same number backs the `webreason_server_subscriptions_live` gauge).
    pub fn subscriptions_live(&self) -> usize {
        self.shared.hub.live_subscribers()
    }

    /// Graceful shutdown: stop accepting, complete in-flight requests
    /// (stragglers that arrive during the drain get `503`), drain the
    /// update queue, and return the [`DurableStore`].
    pub fn shutdown(mut self) -> DurableStore {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Refuse new registrations; catch-ups served during the drain
        // carry the `shutdown` terminal.
        self.shared.hub.shutdown();
        // Ring the pipe; the reactor sees the flag, answers the backlog,
        // drains in-flight requests, and returns — which drops the job
        // channel, so the CPU pool exits too.
        self.wakeup.notify();
        if let Some(h) = self.reactor_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Close every sender (ours plus the revocable shared slot); the
        // writer applies what is queued, then exits. The supervisor sees
        // the shutdown flag (or the revoked channel) and exits too.
        lock(&self.shared.writer_tx).take();
        drop(self.writer_tx.take());
        self.shared.degraded_cv.notify_all();
        if let Some(h) = self.supervisor_handle.take() {
            let _ = h.join();
        }
        let writer = self.writer_handle.take().expect("writer joined once");
        writer.join().expect("writer thread panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort teardown when shutdown() was skipped: detach the
        // threads after flagging them down; the journal already holds
        // every applied update.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.hub.shutdown();
        self.wakeup.notify();
        lock(&self.shared.writer_tx).take();
        drop(self.writer_tx.take());
        self.shared.degraded_cv.notify_all();
    }
}

/// Degraded-mode supervisor: parked until the writer flips the degraded
/// flag, then probes the journal (an empty `apply_script_deferred` +
/// group fsync shipped through the ordinary writer queue) with jittered
/// exponential backoff — 50 ms doubling to a 500 ms cap, ±25% xorshift
/// jitter — until a probe lands, at which point the *writer* clears the
/// flag and the supervisor parks again. The 500 ms cap bounds the
/// worst-case exit latency after the disk heals to well under a second.
fn degraded_supervisor(shared: Arc<Shared>) {
    let reg = obs::global();
    let mut seed = reg.now_us() | 1;
    let mut xorshift = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    loop {
        // Park until degraded (or shutting down). The timeout is a
        // safety net against a missed notify.
        {
            let mut guard = lock(&shared.degraded_reason);
            loop {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if shared.degraded.load(Ordering::SeqCst) {
                    break;
                }
                guard = shared
                    .degraded_cv
                    .wait_timeout(guard, Duration::from_millis(200))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
        let mut backoff_ms = 50u64;
        while shared.degraded.load(Ordering::SeqCst) && !shared.shutting_down.load(Ordering::SeqCst)
        {
            // ±25% jitter so repeated windows don't phase-lock probes.
            let jitter = (xorshift() % (backoff_ms / 2 + 1)) as i64 - (backoff_ms / 4) as i64;
            let sleep_ms = (backoff_ms as i64 + jitter).max(1) as u64;
            std::thread::sleep(Duration::from_millis(sleep_ms));
            if !shared.degraded.load(Ordering::SeqCst)
                || shared.shutting_down.load(Ordering::SeqCst)
            {
                break;
            }
            let Some(tx) = lock(&shared.writer_tx).clone() else {
                return; // shutdown revoked the channel
            };
            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
            reg.add("server.degraded.probes", 1);
            // Blocking send: the probe must reach the writer even when
            // the queue is briefly full of fail-fast rejections.
            if tx
                .send(WriteJob {
                    ops: Vec::new(),
                    reply: reply_tx,
                    enqueued_us: reg.now_us(),
                    probe: true,
                })
                .is_err()
            {
                return;
            }
            match reply_rx.recv() {
                Ok(Ok(_)) => break, // writer already cleared the flag
                Ok(Err(_)) => {}    // disk still sick; back off further
                Err(_) => return,   // writer exited
            }
            backoff_ms = (backoff_ms * 2).min(500);
        }
    }
}

/// CPU worker: evaluates one request at a time and ships the serialized
/// response back through the completion list + wakeup pipe. Blocking
/// here (a long query, waiting on the writer's group commit) occupies one
/// worker — never the reactor.
fn cpu_worker_loop(
    shared: Arc<Shared>,
    job_rx: Arc<Mutex<Receiver<reactor::Job>>>,
    completions: Arc<Mutex<Vec<reactor::Completion>>>,
    wakeup: Arc<reactor::WakeupWriter>,
) {
    let reg = obs::global();
    loop {
        // Hold the lock only while dequeuing; evaluation runs unlocked.
        let job = match lock(&job_rx).recv() {
            Ok(job) => job,
            Err(_) => return, // reactor gone: no more work will arrive
        };
        // Dispatch-queue age: how long the parsed request waited for a
        // CPU worker. Feeds the shedding EWMA and the latency histogram.
        let wait_us = reg.now_us().saturating_sub(job.enqueued_us);
        reg.record("server.reactor.dispatch_wait_us", wait_us);
        ewma_update(&shared.dispatch_wait_ewma_us, wait_us);
        let resp = if job.cancel.is_cancelled() {
            // The deadline expired (or the client vanished) while the
            // request sat in the dispatch queue — it was never evaluated,
            // so this is overload shedding (503 + Retry-After), not a
            // timeout of work in progress (504).
            reg.add("server.reactor.shed", 1);
            let (secs, ms) = shared.computed_retry_after();
            let body = ErrorResponse::to_json_retry(
                "overloaded",
                "deadline expired before dispatch; retry after the queues drain",
                ms,
            );
            write_response(
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", secs.to_string())],
                &body,
            )
            .into()
        } else {
            dispatch(&job.req, &shared, &job.cancel)
        };
        lock(&completions).push(reactor::Completion {
            token: job.token,
            generation: job.generation,
            resp,
        });
        wakeup.notify();
    }
}

/// Routes one parsed request to its endpoint and serialises the response.
/// `/health` and `/metrics` never shed and never consult the deadline —
/// they are the probes operators rely on *during* overload.
fn dispatch(req: &Request, shared: &Shared, cancel: &CancelToken) -> Response {
    let reg = obs::global();
    let resp = match (req.method.as_str(), req.path()) {
        ("POST", "/query") => {
            let start = reg.now_us();
            let resp = handle_query(req, shared, cancel);
            reg.record(
                "server.query.latency_us",
                reg.now_us().saturating_sub(start),
            );
            return resp;
        }
        ("POST", "/update") => {
            let start = reg.now_us();
            let resp = handle_update(req, shared, cancel);
            reg.record(
                "server.update.latency_us",
                reg.now_us().saturating_sub(start),
            );
            resp
        }
        ("POST", "/subscribe") => handle_subscribe(req, shared, cancel),
        ("GET", p) if p.strip_prefix("/subscribe/").is_some() => {
            handle_subscribe_catchup(req, shared)
        }
        ("DELETE", p) if p.strip_prefix("/subscribe/").is_some() => handle_unsubscribe(req, shared),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/health") => write_response(200, "OK", "text/plain", &[], b"ok"),
        ("GET", "/ready") => handle_ready(shared),
        (_, "/query")
        | (_, "/update")
        | (_, "/metrics")
        | (_, "/health")
        | (_, "/ready")
        | (_, "/subscribe") => {
            let body = ErrorResponse::to_json("method_not_allowed", "wrong method for path");
            write_response(405, "Method Not Allowed", "application/json", &[], &body)
        }
        (_, p) if p.strip_prefix("/subscribe/").is_some() => {
            let body = ErrorResponse::to_json("method_not_allowed", "wrong method for path");
            write_response(405, "Method Not Allowed", "application/json", &[], &body)
        }
        _ => {
            let body = ErrorResponse::to_json("not_found", "unknown path");
            write_response(404, "Not Found", "application/json", &[], &body)
        }
    };
    resp.into()
}

/// Readiness: distinct from `/health` (pure liveness) so orchestrators
/// can pull a degraded or draining instance out of the write path while
/// the process itself stays up (reads keep flowing either way).
fn handle_ready(shared: &Shared) -> Vec<u8> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        let body = ErrorResponse::to_json("shutting_down", "server is draining");
        return write_response(503, "Service Unavailable", "application/json", &[], &body);
    }
    if shared.is_degraded() {
        let reason = shared.degraded_reason();
        let (secs, ms) = shared.computed_retry_after();
        let body = ErrorResponse::to_json_full(
            "degraded",
            "journal faulted; serving reads only",
            Some(ms),
            Some(reason),
        );
        return write_response(
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", secs.to_string())],
            &body,
        );
    }
    write_response(200, "OK", "text/plain", &[], b"ready")
}

fn handle_query(req: &Request, shared: &Shared, cancel: &CancelToken) -> Response {
    let reg = obs::global();
    reg.add("server.query.requests", 1);
    let sparql = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s,
        _ => {
            reg.add("server.query.errors", 1);
            let body = ErrorResponse::to_json("bad_request", "body must be a SPARQL query");
            return write_response(400, "Bad Request", "application/json", &[], &body).into();
        }
    };
    // Optional per-query strategy override (`X-Webreason-Strategy:
    // saturation | reformulation | interval`). The snapshot decides
    // whether it can serve the named strategy; a refusal or an unknown
    // name surfaces as `AnswerError::StrategyUnsupported` below.
    let strategy = req.header("x-webreason-strategy");
    match shared
        .reader
        .answer_sparql_strategy_cancel(sparql, strategy, cancel)
    {
        Ok((sols, stats, epoch)) => {
            query_reply(&shared.reader.dictionary(), &sols, stats.as_ref(), epoch)
        }
        Err(AnswerError::Cancelled) => {
            // Cooperative cancellation fired mid-evaluation: the deadline
            // expired (or the reactor cancelled on disconnect). Every
            // worker's partial state was discarded; the snapshot and its
            // caches are untouched.
            reg.add("server.query.deadline_exceeded", 1);
            let body = ErrorResponse::to_json(
                "deadline_exceeded",
                "query cancelled: deadline expired during evaluation",
            );
            write_response(504, "Gateway Timeout", "application/json", &[], &body).into()
        }
        Err(e @ AnswerError::StrategyUnsupported(_)) => {
            reg.add("server.query.bad_strategy", 1);
            let body = ErrorResponse::to_json("bad_strategy", &e.to_string());
            write_response(400, "Bad Request", "application/json", &[], &body).into()
        }
        Err(e) => {
            reg.add("server.query.errors", 1);
            let body = ErrorResponse::to_json("bad_query", &e.to_string());
            write_response(400, "Bad Request", "application/json", &[], &body).into()
        }
    }
}

fn handle_update(req: &Request, shared: &Shared, cancel: &CancelToken) -> Vec<u8> {
    let reg = obs::global();
    reg.add("server.update.requests", 1);
    let text = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            let body = ErrorResponse::to_json("bad_request", "update body must be UTF-8");
            return write_response(400, "Bad Request", "application/json", &[], &body);
        }
    };
    let ops = match decode_update_body(text) {
        Ok(ops) => ops,
        Err(e) => {
            reg.add("server.update.decode_errors", 1);
            let body = ErrorResponse::to_json("bad_update", &e.to_string());
            return write_response(400, "Bad Request", "application/json", &[], &body);
        }
    };
    if ops.is_empty() {
        let body = serde_json::to_string(&UpdateResponse {
            accepted: 0,
            added: 0,
            removed: 0,
            epoch: shared.reader.snapshot().epoch(),
        })
        .map(String::into_bytes)
        .unwrap_or_default();
        return write_response(200, "OK", "application/json", &[], &body);
    }

    // Degraded mode: the journal is sick, so updates are refused before
    // they touch the queue. Reads keep flowing from published snapshots.
    if shared.is_degraded() {
        reg.add("server.update.degraded_rejects", 1);
        let (secs, ms) = shared.computed_retry_after();
        let reason = shared.degraded_reason();
        let body = ErrorResponse::to_json_full(
            "degraded",
            "journal faulted; server is read-only until the disk heals",
            Some(ms),
            Some(reason),
        );
        return write_response(
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", secs.to_string())],
            &body,
        );
    }

    // Adaptive shedding: if the measured writer drain rate says this
    // request cannot be serviced inside its deadline budget, refuse it
    // now — a 503 in microseconds beats a 504 after the full wait.
    if let Some(remaining) = cancel.remaining() {
        let est_us = shared.drain_estimate_ms().saturating_mul(1000);
        if est_us > remaining.as_micros() as u64 {
            reg.add("server.update.shed", 1);
            let (secs, ms) = shared.computed_retry_after();
            let body = ErrorResponse::to_json_retry(
                "overloaded",
                "estimated queue delay exceeds the request deadline",
                ms,
            );
            return write_response(
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", secs.to_string())],
                &body,
            );
        }
    }

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = WriteJob {
        ops,
        reply: reply_tx,
        enqueued_us: reg.now_us(),
        probe: false,
    };
    // Clone the sender out of the revocable slot so shutdown can
    // disconnect the writer; a `None` here means the writer is gone.
    let Some(tx) = lock(&shared.writer_tx).clone() else {
        let body = ErrorResponse::to_json("unavailable", "writer has shut down");
        return write_response(503, "Service Unavailable", "application/json", &[], &body);
    };
    // Count the slot before the send: the writer decrements after it pops
    // a job, so incrementing afterwards could race the gauge below zero.
    let depth = shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    match tx.try_send(job) {
        Ok(()) => {
            reg.record("server.update.queue_depth", depth);
            reg.add("server.update.enqueued", 1);
        }
        Err(TrySendError::Full(_)) => {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            reg.add("server.update.rejected", 1);
            let body = ErrorResponse::to_json_retry(
                "overloaded",
                "update queue is full; retry after the writer drains",
                shared.retry_after_secs.saturating_mul(1000).max(1),
            );
            return write_response(
                429,
                "Too Many Requests",
                "application/json",
                &[("Retry-After", shared.retry_after_secs.to_string())],
                &body,
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let body = ErrorResponse::to_json("unavailable", "writer has shut down");
            return write_response(503, "Service Unavailable", "application/json", &[], &body);
        }
    }
    match reply_rx.recv() {
        Ok(Ok(resp)) => {
            let body = serde_json::to_string(&resp)
                .map(String::into_bytes)
                .unwrap_or_default();
            write_response(200, "OK", "application/json", &[], &body)
        }
        Ok(Err(WriteError::Degraded(reason))) => {
            // The fault landed while this job was queued: fail-fast from
            // the writer, journal untouched, nothing acknowledged.
            reg.add("server.update.degraded_rejects", 1);
            let (secs, ms) = shared.computed_retry_after();
            let body = ErrorResponse::to_json_full(
                "degraded",
                "journal faulted; server is read-only until the disk heals",
                Some(ms),
                Some(reason),
            );
            write_response(
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", secs.to_string())],
                &body,
            )
        }
        Ok(Err(WriteError::Apply(msg))) => {
            let body = ErrorResponse::to_json("apply_failed", &msg);
            write_response(500, "Internal Server Error", "application/json", &[], &body)
        }
        Err(_) => {
            let body = ErrorResponse::to_json("unavailable", "writer exited mid-apply");
            write_response(503, "Service Unavailable", "application/json", &[], &body)
        }
    }
}

fn batch_json(batch: &DeltaBatch) -> String {
    serde_json::to_string(batch).unwrap_or_else(|_| "{\"error\":\"internal\"}".to_owned())
}

/// `POST /subscribe`: registers the query and answers a *bounded window*
/// as a chunked response — registration header, initial snapshot batch,
/// and a `next` link the client polls (`GET /subscribe/{id}?from=E`) for
/// subsequent deltas. A CPU worker never owns the socket past the window.
fn handle_subscribe(req: &Request, shared: &Shared, cancel: &CancelToken) -> Vec<u8> {
    let reg = obs::global();
    reg.add("server.subscribe.requests", 1);
    let unavailable = || {
        let body = ErrorResponse::to_json("unavailable", "server is shutting down");
        write_response(503, "Service Unavailable", "application/json", &[], &body)
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        return unavailable();
    }
    let sparql = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s,
        _ => {
            let body = ErrorResponse::to_json("bad_request", "body must be a SPARQL query");
            return write_response(400, "Bad Request", "application/json", &[], &body);
        }
    };
    let ok = match shared.hub.subscribe(&shared.reader, sparql, false, cancel) {
        Ok(ok) => ok,
        Err(SubscribeError::AtCapacity(max)) => {
            reg.add("server.subscribe.limit_rejects", 1);
            let (secs, ms) = shared.computed_retry_after();
            let body = ErrorResponse::to_json_retry(
                "subscription_limit",
                &format!("subscription limit ({max}) reached; retry once a subscriber leaves"),
                ms,
            );
            return write_response(
                503,
                "Service Unavailable",
                "application/json",
                &[("Retry-After", secs.to_string())],
                &body,
            );
        }
        Err(SubscribeError::Query(AnswerError::Cancelled)) => {
            // Same contract as /query: the deadline expired during the
            // initial materialization, nothing was registered.
            reg.add("server.subscribe.deadline_exceeded", 1);
            let body = ErrorResponse::to_json(
                "deadline_exceeded",
                "subscription cancelled: deadline expired during initial evaluation",
            );
            return write_response(504, "Gateway Timeout", "application/json", &[], &body);
        }
        Err(SubscribeError::Query(e)) => {
            let body = ErrorResponse::to_json("bad_query", &e.to_string());
            return write_response(400, "Bad Request", "application/json", &[], &body);
        }
        Err(SubscribeError::Unsupported(why)) => {
            let body = ErrorResponse::to_json("unsupported_subscription", &why);
            return write_response(400, "Bad Request", "application/json", &[], &body);
        }
        Err(SubscribeError::ShuttingDown) => return unavailable(),
    };
    let header = serde_json::to_string(&SubscribeHeader {
        id: ok.id,
        epoch: ok.epoch,
        vars: ok.vars,
        distinct: ok.distinct,
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_owned());
    let more = format!(
        "{{\"more\":true,\"next\":\"/subscribe/{}?from={}\"}}",
        ok.id, ok.epoch
    );
    let mut resp = write_chunked_head(200, "OK", "application/json", &[]);
    resp.extend_from_slice(&chunk(header.as_bytes()));
    resp.extend_from_slice(&chunk(batch_json(&ok.initial).as_bytes()));
    resp.extend_from_slice(&chunk(more.as_bytes()));
    resp.extend_from_slice(CHUNK_END);
    resp
}

/// `GET /subscribe/{id}?from=E`: pull-side catch-up. Replays every batch
/// published after epoch `E` (or one snapshot-reset batch when `E` has
/// fallen off the bounded epoch log), plus the terminal condition if the
/// stream has ended. A missing `from` means 0; a malformed one is a 400,
/// never a silent full snapshot.
fn handle_subscribe_catchup(req: &Request, shared: &Shared) -> Vec<u8> {
    let bad_request = |msg: &str| {
        let body = ErrorResponse::to_json("bad_request", msg);
        write_response(400, "Bad Request", "application/json", &[], &body)
    };
    let Some(id) = parse_sub_id(req.path()) else {
        return bad_request("subscription id must be an integer");
    };
    let from = req
        .query_string()
        .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("from=")))
        .map_or(Ok(0), str::parse::<u64>);
    let Ok(from) = from else {
        return bad_request("from must be an epoch (unsigned integer)");
    };
    let Some(cu) = shared.hub.catch_up(id, from) else {
        let body = ErrorResponse::to_json("unknown_subscription", "no such subscription id");
        return write_response(404, "Not Found", "application/json", &[], &body);
    };
    let batches: Vec<String> = cu.batches.iter().map(|b| batch_json(b)).collect();
    let terminal = cu
        .terminal
        .map_or_else(|| "null".to_owned(), |t| format!("\"{}\"", t.as_str()));
    let body = format!(
        "{{\"batches\":[{}],\"terminal\":{terminal}}}",
        batches.join(",")
    );
    write_response(200, "OK", "application/json", &[], body.as_bytes())
}

/// `DELETE /subscribe/{id}`: client-side cancellation.
fn handle_unsubscribe(req: &Request, shared: &Shared) -> Vec<u8> {
    let Some(id) = parse_sub_id(req.path()) else {
        let body = ErrorResponse::to_json("bad_request", "subscription id must be an integer");
        return write_response(400, "Bad Request", "application/json", &[], &body);
    };
    if shared.hub.unsubscribe(id) {
        write_response(200, "OK", "application/json", &[], b"{\"cancelled\":true}")
    } else {
        let body = ErrorResponse::to_json("unknown_subscription", "no such subscription id");
        write_response(404, "Not Found", "application/json", &[], &body)
    }
}

fn parse_sub_id(path: &str) -> Option<u64> {
    path.strip_prefix("/subscribe/")?.parse().ok()
}

fn handle_metrics(shared: &Shared) -> Vec<u8> {
    let reg = obs::global();
    reg.add("server.metrics.requests", 1);
    let mut text = reg.snapshot().to_prometheus();
    // Live gauge: current writer-queue occupancy (counters above are
    // cumulative; this one is the instantaneous depth).
    text.push_str(&format!(
        "# TYPE webreason_server_update_queue_current gauge\n\
         webreason_server_update_queue_current {}\n\
         # TYPE webreason_server_update_queue_capacity gauge\n\
         webreason_server_update_queue_capacity {}\n\
         # TYPE webreason_server_open_connections gauge\n\
         webreason_server_open_connections {}\n\
         # TYPE webreason_server_max_connections gauge\n\
         webreason_server_max_connections {}\n\
         # TYPE webreason_server_degraded gauge\n\
         webreason_server_degraded {}\n\
         # TYPE webreason_server_drain_estimate_ms gauge\n\
         webreason_server_drain_estimate_ms {}\n\
         # TYPE webreason_server_subscriptions_live gauge\n\
         webreason_server_subscriptions_live {}\n\
         # TYPE webreason_server_subscriptions_max gauge\n\
         webreason_server_subscriptions_max {}\n\
         # TYPE webreason_server_subscription_views gauge\n\
         webreason_server_subscription_views {}\n",
        shared.queue_depth.load(Ordering::SeqCst),
        shared.update_queue,
        shared.open_conns.load(Ordering::SeqCst),
        shared.max_conns,
        u64::from(shared.is_degraded()),
        shared.drain_estimate_ms(),
        shared.hub.live_subscribers(),
        shared.max_subscriptions,
        shared.hub.view_count(),
    ));
    write_response(200, "OK", "text/plain; version=0.0.4", &[], text.as_bytes())
}

/// The single-writer loop: owns the [`DurableStore`] and group-commits.
/// After each blocking `recv` it drains every queued job (`try_recv`),
/// journals each job's script as one atomic `UpdateScript` record, fsyncs
/// **once** for the whole drained group, publishes **one** epoch, and
/// fans replies back per job — so N concurrent writers cost one fsync,
/// not N, while each script stays individually atomic. Replies only go
/// out after the group sync settles: ack implies journaled + fsynced (per
/// policy) + published. Exits (returning the store) when every sender is
/// gone.
fn writer_loop(
    mut store: DurableStore,
    rx: Receiver<WriteJob>,
    shared: Arc<Shared>,
    checkpoint_every: usize,
    delay: Option<Duration>,
) -> DurableStore {
    let reg = obs::global();
    let mut since_checkpoint = 0usize;
    // Delta tracking feeds the subscription hub; with subscriptions
    // disabled the store skips the bookkeeping entirely.
    if shared.max_subscriptions > 0 {
        store.set_delta_tracking(true);
    }
    // The snapshot the last published epoch's subscribers have seen —
    // each group's delta steps views from here to the freshly published
    // snapshot. A group that fails leaves its (empty) delta buffered, so
    // the next successful group publishes one consistent step.
    let mut prev_snap = shared.reader.snapshot();
    while let Ok(first) = rx.recv() {
        // The delay hook models a slow apply *before* the drain, so tests
        // can pile jobs into the queue and observe them grouped.
        if let Some(d) = delay {
            std::thread::sleep(d);
        }
        let mut jobs = vec![first];
        jobs.extend(rx.try_iter());
        // Probes never passed through the admission gauge, so only the
        // client jobs release queue slots.
        let client_jobs = jobs.iter().filter(|j| !j.probe).count() as u64;
        shared.queue_depth.fetch_sub(client_jobs, Ordering::SeqCst);
        let now = reg.now_us();
        for job in &jobs {
            let wait = now.saturating_sub(job.enqueued_us);
            reg.record("server.update.queue_wait_us", wait);
            ewma_update(&shared.writer_wait_ewma_us, wait);
        }
        reg.add("server.update.groups", 1);
        reg.record("server.update.group_size", jobs.len() as u64);
        let group_start = reg.now_us();

        // Journal + apply each script; the per-record fsync is deferred to
        // the single group sync below. A job whose append fails is
        // rejected whole — none of its ops applied — and does not poison
        // its groupmates. A *journal I/O* failure
        // additionally flips the server into degraded read-only mode:
        // the failing job 500s (its durability attempt really happened),
        // while later client jobs in the same drain fail-fast with a
        // Degraded reply rather than hammering the sick disk. Probe jobs
        // (from the degraded supervisor) always attempt the disk.
        let mut faulted = shared.is_degraded().then(|| shared.degraded_reason());
        let mut outcomes: Vec<Result<webreason_core::ScriptOutcome, WriteError>> = jobs
            .iter()
            .map(|job| {
                if let Some(reason) = &faulted {
                    if !job.probe {
                        return Err(WriteError::Degraded(reason.clone()));
                    }
                }
                store.apply_script_deferred(&job.ops).map_err(|e| {
                    if let Some(reason) = degraded_reason_for(&e) {
                        shared.enter_degraded(reason.to_owned());
                        faulted = Some(reason.to_owned());
                    }
                    WriteError::Apply(e.to_string())
                })
            })
            .collect();
        let mut any_ok = outcomes.iter().any(Result::is_ok);
        if any_ok {
            if let Err(e) = store.sync_group() {
                // The group's durability is unknown: nothing is
                // acknowledged, nothing is published. An fsync I/O error
                // is a disk fault like any other — degrade.
                if let Some(reason) = degraded_reason_for(&e) {
                    shared.enter_degraded(reason.to_owned());
                }
                let msg = e.to_string();
                for o in outcomes.iter_mut().filter(|o| o.is_ok()) {
                    *o = Err(WriteError::Apply(msg.clone()));
                }
                any_ok = false;
            }
        }
        // A probe that journaled *and* synced proves the disk has healed:
        // the writer itself clears degraded mode, so there is no window
        // where a queued client job can observe a half-cleared flag.
        if jobs
            .iter()
            .zip(&outcomes)
            .any(|(job, o)| job.probe && o.is_ok())
        {
            shared.exit_degraded();
        }
        // Service-rate sample: mean per-job cost of this drained group,
        // feeding the shed estimator's drain rate.
        let per_job_us = reg.now_us().saturating_sub(group_start) / jobs.len() as u64;
        ewma_update(&shared.writer_service_ewma_us, per_job_us);
        // One published epoch per group, and only after a successful
        // apply — on error readers stay on the previous epoch.
        let epoch = if any_ok {
            reg.add("server.update.publishes", 1);
            // Drain the group's consolidated delta *before* publishing so
            // it can't pick up a later group's changes, then step every
            // registered view from the previously published snapshot to
            // the new one.
            let delta = store.take_delta();
            let e = store.publish();
            let new_snap = shared.reader.snapshot();
            shared.hub.publish(&prev_snap, &new_snap, &delta);
            prev_snap = new_snap;
            e
        } else {
            0
        };
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let reply = match outcome {
                Ok(o) => {
                    if !job.probe {
                        reg.add("server.update.applied", 1);
                        since_checkpoint += 1;
                    }
                    Ok(UpdateResponse {
                        accepted: job.ops.len(),
                        added: o.added,
                        removed: o.removed,
                        epoch,
                    })
                }
                Err(e) => {
                    if !job.probe {
                        reg.add("server.update.apply_errors", 1);
                    }
                    Err(e)
                }
            };
            // The client may have timed out and dropped the receiver; the
            // update is journaled and applied either way.
            let _ = job.reply.try_send(reply);
        }
        // Consume the counter in `checkpoint_every`-sized chunks rather
        // than resetting it: a drained group can overshoot the boundary,
        // and the periodic cadence must stay exactly one checkpoint per N
        // applied updates regardless of how the groups landed.
        while checkpoint_every > 0 && since_checkpoint >= checkpoint_every {
            since_checkpoint -= checkpoint_every;
            if store.checkpoint().is_err() {
                reg.add("server.checkpoint.errors", 1);
            } else {
                reg.add("server.checkpoint.count", 1);
            }
        }
    }
    store
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
