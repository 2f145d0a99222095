//! The daemon: listener, per-connection threads, and the coalescing queue.
//!
//! ## Architecture
//!
//! ```text
//! accept thread ──▶ connection threads ──try_send──▶ bounded queue
//!                        ▲                                │
//!                        └────── per-request reply ◀── batcher thread
//! ```
//!
//! Every connection gets a thread that reads frames, decodes requests, and
//! enqueues queries onto one bounded channel; a single **batcher** thread
//! drains the channel and answers. Control operations (ping/stats/shutdown)
//! are answered inline on the connection thread.
//!
//! ## The coalescing invariant
//!
//! The batcher lingers briefly after the first dequeue, drains everything
//! else that arrived, and splits the batch into *groups*, each answered by
//! one evaluation. Ranked queries (top-k / full-rank) group by their
//! *problem class*: same model, same cluster, same non-batch config fields
//! (dataset, epochs, δ, γ) and same effective constraints. Each such group
//! is swept at the group's distinct batch sizes by a single
//! [`GridSweep::run_engine`] pass — so `n` concurrent requests over
//! `k ≤ n` distinct batches cost `k` cell evaluations plus one (usually
//! cached) engine-core build, instead of `n` full evaluations. The pass
//! runs on the column store of the problem's engine-cache entry: from a
//! problem class's second group on, the store keeps its candidate
//! superset, prep sets and communication columns over the batches asked
//! more than once, so a repeated ranked group pays only for its cells,
//! their evaluation and the report (the first group of a class, and a
//! batch's first sight, sweep one-shot and keep nothing; the stores of the
//! cache keep at most 344 MB together). A suggest or survey query is a
//! group of one. Groups
//! are answered in the arrival order of their oldest member, so no problem
//! class always waits longest.
//!
//! Every engine the daemon uses comes from one [`EngineCache`], through
//! [`EngineCache::engine`]. A request's model name is resolved once, at
//! decode, to a shared zoo entry that carries the
//! model's key ([`crate::resolve::resolve_entry`]); the batcher keys each
//! query's cluster, memory config and constraints once, files the query
//! under that key tuple, and the group's one cache lookup reuses the key
//! and reports whether it hit. Nothing on the request path formats a `Debug` string or
//! rebuilds a model.
//!
//! This is sound because a grid sweep is defined to produce, cell for cell,
//! the same `SearchReport` a standalone search would (the conformance tests
//! in `paradl-core` pin that), and because `QueryAnswer::to_json` excludes
//! `pruned_by_bound`, a counter that is always 0. Served answers are
//! therefore **byte-identical** to local `Oracle::answer` results — the
//! integration tests assert exactly that.
//!
//! ## Robustness
//!
//! * Malformed JSON, unknown ops, unknown models, invalid configs: error
//!   *response* (with an [`ErrorKind`] saying whether a retry can help),
//!   connection lives, daemon lives.
//! * Oversized, truncated, or checksum-damaged frames: the connection is
//!   dropped (the stream cannot be resynchronized), the daemon lives.
//! * Hostile payloads: every query passes [`Query::vet`] at enqueue —
//!   degenerate models, non-finite cluster rates, overflowing batch sizes
//!   and enumeration blow-ups are refused as [`ErrorKind::BadRequest`]
//!   (with the offending field named) before they cost queue space or an
//!   engine build. A spec that slips past vet and still defeats engine
//!   construction surfaces the typed `EngineError` the same way, for every
//!   member of its group, with the text a local `Query::run` reports.
//! * Overload: before shedding, the batcher walks the **degradation
//!   ladder** — under queue or deadline pressure a ranked query steps down
//!   `FullRank → TopK(10) → Suggest` (the answer says so via
//!   `AnswerStats::degraded`), and only a full queue sheds outright.
//!   `ServerConfig::degrade = false` (`--no-degrade`) restores the strict
//!   answer-as-asked behavior.
//! * Full queue: [`Response::Shed`] without evaluation (backpressure).
//! * Expired deadline at dequeue: [`Response::DeadlineExpired`] without
//!   evaluation.
//! * Slow clients: a connection that stalls mid-frame past
//!   [`ServerConfig::read_timeout`], or whose socket refuses writes past
//!   [`ServerConfig::write_timeout`], is **evicted** — its thread exits and
//!   the `evictions` counter ticks. A slow-loris peer costs one thread for
//!   one timeout, not forever.
//! * Panics during query evaluation are **contained** with `catch_unwind`:
//!   the offending request is quarantined to an [`ErrorKind::Internal`]
//!   error response and the batcher keeps serving. Should a panic escape
//!   the containment (e.g. in batching code itself), a supervisor restarts
//!   the batcher thread (`batcher_restarts` counter) and the in-flight
//!   requests whose replies were dropped surface as `Internal` errors on
//!   their connections — never as hangs.
//! * Graceful shutdown (local call or remote `shutdown` op): new queries
//!   are refused with [`Response::ShuttingDown`], everything already queued
//!   is drained and answered, then threads exit and the socket is removed.
//! * Stale unix sockets: the bind path is connect-probed first, so a
//!   leftover socket file from a dead daemon is reclaimed but a *live*
//!   daemon's socket is never stolen (`AddrInUse` instead).

use crate::client::Stream;
use crate::fault::FaultSchedule;
use crate::proto::{self, AnswerStats, ErrorKind, FrameRead, Request, Response, MAX_FRAME};
use crate::resolve::resolve_entry;
use paradl_core::engine::{EngineCache, EngineError};
use paradl_core::grid::GridSweep;
use paradl_core::jsonio::Json;
use paradl_core::key::{ConstraintsKey, KeyedModel, ProblemKey};
use paradl_core::oracle::Oracle;
use paradl_core::query::{Query, QueryAnswer, QueryMode};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where the daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl std::fmt::Display for Bind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bind::Unix(path) => write!(f, "unix:{}", path.display()),
            Bind::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Where in the batcher an [`EvalHook`] is being invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStage {
    /// In batching code, *outside* the per-query panic containment — a
    /// panic here exercises the batcher supervisor.
    Batch,
    /// Inside the per-query `catch_unwind` — a panic here exercises
    /// quarantine-to-`Error` containment.
    Eval,
}

/// A test hook called for every query the batcher touches. Chaos tests use
/// it to inject panics at a chosen stage; production servers leave it
/// unset.
pub type EvalHook = Arc<dyn Fn(&Query, EvalStage) + Send + Sync>;

/// Tunables for a [`Server`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Capacity of the engine-core LRU (0 disables caching).
    pub cache_entries: usize,
    /// Bounded queue depth; requests beyond it are shed.
    pub queue_cap: usize,
    /// How long the batcher lingers after the first dequeue to let
    /// concurrent requests join the batch.
    pub linger: Duration,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// How long a connection may stall *mid-frame* before it is evicted.
    /// (Idle time between frames is unlimited; only a half-sent frame
    /// holds protocol state hostage.)
    pub read_timeout: Duration,
    /// Socket-level write timeout; a peer that won't drain its receive
    /// buffer for this long is evicted.
    pub write_timeout: Duration,
    /// Walk the degradation ladder under overload: ranked queries step
    /// down `FullRank → TopK(10) → Suggest` under queue or deadline
    /// pressure instead of being answered late or shed. `false` answers
    /// every query exactly as asked (and sheds under pressure as before).
    pub degrade: bool,
    /// Server-side fault injection: every accepted connection is wrapped
    /// in a plan drawn from this schedule. `None` (production) leaves the
    /// streams untouched.
    pub faults: Option<Arc<FaultSchedule>>,
    /// Test hook invoked per query at each [`EvalStage`].
    pub eval_hook: Option<EvalHook>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("cache_entries", &self.cache_entries)
            .field("queue_cap", &self.queue_cap)
            .field("linger", &self.linger)
            .field("max_frame", &self.max_frame)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("degrade", &self.degrade)
            .field("faults", &self.faults)
            .field("eval_hook", &self.eval_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_entries: 32,
            queue_cap: 1024,
            linger: Duration::from_millis(1),
            max_frame: MAX_FRAME,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            degrade: true,
            faults: None,
            eval_hook: None,
        }
    }
}

/// Monotonic serving counters, surfaced by the `stats` op.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    connections: AtomicU64,
    coalesced_groups: AtomicU64,
    evictions: AtomicU64,
    panics_contained: AtomicU64,
    batcher_restarts: AtomicU64,
    degraded: AtomicU64,
    degraded_to_suggest: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    counters: Counters,
    cache: EngineCache,
    /// EWMA of recent evaluation times in µs (`(3·old + sample) / 4`),
    /// the deadline-pressure signal for the degradation ladder.
    eval_ewma_us: AtomicU64,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn stats_json(&self) -> Json {
        let c = &self.counters;
        let cache = self.cache.stats();
        let columns = self.cache.column_stats();
        Json::obj([
            ("served", Json::count(c.served.load(Ordering::Relaxed) as usize)),
            ("errors", Json::count(c.errors.load(Ordering::Relaxed) as usize)),
            ("shed", Json::count(c.shed.load(Ordering::Relaxed) as usize)),
            ("deadline_expired", Json::count(c.deadline_expired.load(Ordering::Relaxed) as usize)),
            ("connections", Json::count(c.connections.load(Ordering::Relaxed) as usize)),
            ("coalesced_groups", Json::count(c.coalesced_groups.load(Ordering::Relaxed) as usize)),
            ("evictions", Json::count(c.evictions.load(Ordering::Relaxed) as usize)),
            ("panics_contained", Json::count(c.panics_contained.load(Ordering::Relaxed) as usize)),
            ("batcher_restarts", Json::count(c.batcher_restarts.load(Ordering::Relaxed) as usize)),
            ("degraded", Json::count(c.degraded.load(Ordering::Relaxed) as usize)),
            (
                "degraded_to_suggest",
                Json::count(c.degraded_to_suggest.load(Ordering::Relaxed) as usize),
            ),
            (
                "column_store",
                Json::obj([
                    ("hits", Json::count(columns.hits as usize)),
                    ("misses", Json::count(columns.misses as usize)),
                    ("admissions", Json::count(columns.admissions as usize)),
                    ("resident_bytes", Json::count(columns.resident_bytes as usize)),
                ]),
            ),
            (
                "engine_cache",
                Json::obj([
                    ("hits", Json::count(cache.hits as usize)),
                    ("misses", Json::count(cache.misses as usize)),
                ]),
            ),
        ])
    }
}

/// One queued query awaiting the batcher.
struct Pending {
    query: Query,
    /// The zoo entry `query.model` was copied from.
    model: Arc<KeyedModel>,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
    /// Degradation-ladder rungs applied to `query.mode` (0 = as asked).
    degraded: usize,
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// A running daemon. Dropping it without [`Server::shutdown_and_join`]
/// leaves the threads running until a remote `shutdown` op arrives.
pub struct Server {
    bound: Bind,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    queue: Option<SyncSender<Pending>>,
}

impl Server {
    /// Binds and starts the daemon: an accept thread, per-connection
    /// threads as clients arrive, and one batcher thread.
    pub fn start(bind: Bind, config: ServerConfig) -> io::Result<Server> {
        let (listener, bound) = match &bind {
            Bind::Unix(path) => {
                // A stale socket file from a dead daemon would fail the
                // bind — but only reclaim the path after a connect-probe
                // proves nothing is listening, so two daemons can't
                // silently steal each other's socket.
                if path.exists() {
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AddrInUse,
                                format!("a daemon is already listening on {}", path.display()),
                            ));
                        }
                        Err(_) => {
                            // Dead socket (refused/ENOENT race): reclaim it.
                            let _ = std::fs::remove_file(path);
                        }
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), bind.clone())
            }
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                // Report the resolved address so `port 0` binds are usable.
                let actual = l.local_addr()?.to_string();
                (Listener::Tcp(l), Bind::Tcp(actual))
            }
        };
        let queue_cap = config.queue_cap.max(1);
        let shared = Arc::new(Shared {
            cache: EngineCache::new(config.cache_entries),
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            eval_ewma_us: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel::<Pending>(queue_cap);

        // The batcher runs under a supervisor: a panic that escapes the
        // per-query containment (injected via the Batch-stage hook, or a
        // genuine bug in batching code) restarts the loop instead of
        // leaving every future query to hang on a dead channel. Requests
        // whose replies died with the old incarnation surface as Internal
        // errors on their connection threads.
        let batcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || loop {
                match catch_unwind(AssertUnwindSafe(|| batcher_loop(&rx, &shared))) {
                    Ok(()) => break,
                    Err(_) => {
                        shared.counters.batcher_restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let socket_path = match &bind {
                Bind::Unix(path) => Some(path.clone()),
                Bind::Tcp(_) => None,
            };
            thread::spawn(move || accept_loop(listener, tx, &shared, socket_path))
        };

        Ok(Server { bound, shared, accept: Some(accept), batcher: Some(batcher), queue: Some(tx) })
    }

    /// The resolved listen address (useful after binding TCP port 0).
    pub fn bound(&self) -> &Bind {
        &self.bound
    }

    /// Engine-cache statistics: hits and misses of the core lookups so far.
    pub fn cache_stats(&self) -> paradl_core::engine::EngineCacheStats {
        self.shared.cache.stats()
    }

    /// Flags the daemon to shut down: stop accepting, refuse new queries,
    /// drain everything queued. Does not wait — pair with [`Server::join`].
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits until the daemon has fully shut down (triggered locally via
    /// [`Server::trigger_shutdown`] or remotely via the `shutdown` op).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Dropping our queue sender lets the batcher's channel disconnect
        // once every connection thread has exited too.
        drop(self.queue.take());
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }

    /// [`Server::trigger_shutdown`] + [`Server::join`].
    pub fn shutdown_and_join(self) {
        self.trigger_shutdown();
        self.join();
    }
}

fn accept_loop(
    listener: Listener,
    tx: SyncSender<Pending>,
    shared: &Arc<Shared>,
    socket_path: Option<PathBuf>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok(stream) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                // Connection reads poll at this granularity so the thread
                // notices shutdown (and mid-frame stalls) without a wakeup
                // mechanism.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                // Server-side chaos: wrap the accepted stream in the next
                // plan off the schedule.
                let stream = match &shared.config.faults {
                    Some(schedule) => stream.with_faults(schedule.next_plan()),
                    None => stream,
                };
                let tx = tx.clone();
                let shared = Arc::clone(shared);
                connections.push(thread::spawn(move || connection_loop(stream, tx, &shared)));
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    if let Some(path) = socket_path {
        let _ = std::fs::remove_file(path);
    }
}

fn connection_loop(mut stream: Stream, tx: SyncSender<Pending>, shared: &Arc<Shared>) {
    loop {
        // Mid-frame stall tracking: `read_frame` calls `keep_going` every
        // time a read times out *inside* a frame. The first such callback
        // starts the eviction clock; exceeding `read_timeout` evicts the
        // connection (a slow-loris peer holds protocol state hostage, idle
        // peers between frames cost nothing and are never evicted).
        let mut stall_started: Option<Instant> = None;
        let mut evicted = false;
        let keep_going = || {
            if shared.is_shutdown() {
                return false;
            }
            let started = *stall_started.get_or_insert_with(Instant::now);
            if started.elapsed() >= shared.config.read_timeout {
                evicted = true;
                return false;
            }
            true
        };
        match proto::read_frame(&mut stream, shared.config.max_frame, keep_going) {
            Ok(FrameRead::Idle) => {
                if shared.is_shutdown() {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(payload)) => {
                let response = handle_frame(&payload, &tx, shared);
                let frame = response.into_json().render();
                match proto::write_frame(&mut stream, frame.as_bytes(), shared.config.max_frame) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        // The answer exceeded the frame cap. Nothing was
                        // written (the cap is checked up front), so the
                        // stream is still synchronized: substitute an error
                        // response and keep the connection.
                        let fallback = Response::error(
                            ErrorKind::TooLarge,
                            "response exceeds the frame size cap",
                        );
                        if proto::write_frame(
                            &mut stream,
                            fallback.into_json().render().as_bytes(),
                            shared.config.max_frame,
                        )
                        .is_err()
                        {
                            return;
                        }
                    }
                    Err(e) => {
                        // A peer that won't drain its receive buffer hits
                        // the socket write timeout: that's an eviction, not
                        // a clean hangup.
                        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                            shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix or checksum-damaged payload: the
                // stream cannot be resynced. Tell the peer why (the error
                // is retryable — the *bytes* were bad, not the request),
                // then hang up. The daemon lives on.
                let response = Response::error(ErrorKind::Protocol, format!("protocol error: {e}"));
                let _ = proto::write_frame(
                    &mut stream,
                    response.into_json().render().as_bytes(),
                    shared.config.max_frame,
                );
                return;
            }
            Err(_) => {
                if evicted {
                    shared.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
    }
}

fn handle_frame(payload: &[u8], tx: &SyncSender<Pending>, shared: &Arc<Shared>) -> Response {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::error(ErrorKind::Protocol, "frame payload is not UTF-8");
        }
    };
    let json = match Json::parse(text) {
        Ok(j) => j,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::error(ErrorKind::Protocol, format!("malformed JSON: {e}"));
        }
    };
    // Past this point the bytes decoded fine (the checksum already vouched
    // for them in transit), so remaining failures are the *request's* fault.
    // The query owns a copy of its model (vet and the eval hooks read it);
    // the batcher works from the shared zoo entry it was copied from.
    let resolved = RefCell::new(None);
    let resolve = |name: &str| {
        let entry = resolve_entry(name)?;
        let model = entry.model().clone();
        *resolved.borrow_mut() = Some(entry);
        Some(model)
    };
    let request = match Request::from_json(&json, &resolve) {
        Ok(r) => r,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::error(ErrorKind::BadRequest, e);
        }
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::ServerStats(shared.stats_json()),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Query { query, deadline_ms } => {
            let model = resolved.into_inner().expect("a decoded query resolved its model");
            enqueue_query(query, model, deadline_ms, tx, shared)
        }
    }
}

fn enqueue_query(
    query: Query,
    model: Arc<KeyedModel>,
    deadline_ms: Option<u64>,
    tx: &SyncSender<Pending>,
    shared: &Arc<Shared>,
) -> Response {
    // Reject what the oracle would reject, before it costs queue space:
    // the full vet pass (workload presence, model/config validity,
    // finite cluster rates, enumeration admission cap) names the bad
    // field in the refusal.
    if let Err(e) = query.vet() {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        return Response::error(ErrorKind::BadRequest, e.to_string());
    }
    if shared.is_shutdown() {
        return Response::ShuttingDown;
    }
    let now = Instant::now();
    let (reply_tx, reply_rx) = mpsc::channel();
    let pending = Pending {
        query,
        model,
        deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        enqueued: now,
        reply: reply_tx,
        degraded: 0,
    };
    match tx.try_send(pending) {
        Ok(()) => match reply_rx.recv() {
            Ok(response) => response,
            // The reply sender died without answering: either a graceful
            // shutdown, or the batcher incarnation holding our Pending
            // panicked and the supervisor restarted it. Report which.
            Err(_) if shared.is_shutdown() => Response::ShuttingDown,
            Err(_) => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::error(
                    ErrorKind::Internal,
                    "evaluation aborted by a server fault; the request was quarantined",
                )
            }
        },
        Err(TrySendError::Full(_)) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            Response::Shed
        }
        Err(TrySendError::Disconnected(_)) => Response::ShuttingDown,
    }
}

// ---------------------------------------------------------------------------
// The batcher.
// ---------------------------------------------------------------------------

fn batcher_loop(rx: &Receiver<Pending>, shared: &Arc<Shared>) {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(p) => p,
            Err(RecvTimeoutError::Timeout) => {
                if shared.is_shutdown() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Linger so concurrent requests can join this batch, then drain.
        if !shared.config.linger.is_zero() {
            thread::sleep(shared.config.linger);
        }
        let mut batch = vec![first];
        while let Ok(p) = rx.try_recv() {
            batch.push(p);
        }
        process_batch(batch, shared);
    }
    // Stragglers that raced the shutdown check get a refusal, not silence.
    while let Ok(p) = rx.try_recv() {
        let _ = p.reply.send(Response::ShuttingDown);
    }
}

/// The ranked depth the first ladder rung caps queries at.
const DEGRADE_TOP_K: usize = 10;

/// Queue-pressure rung for a drained batch of `len` queries: past a quarter
/// of the queue capacity ranked depth is capped (rung 1), past half every
/// ranked query becomes a suggestion (rung 2). The thresholds have small
/// floors so tiny test queues behave proportionally.
fn queue_rung(len: usize, queue_cap: usize) -> usize {
    if len >= (queue_cap / 2).max(4) {
        2
    } else if len >= (queue_cap / 4).max(2) {
        1
    } else {
        0
    }
}

/// Deadline-pressure rung: how the query's remaining budget compares with
/// the recent evaluation-time EWMA. No history yet (or no deadline) means
/// no pressure.
fn deadline_rung(deadline: Option<Instant>, ewma_us: u64) -> usize {
    let Some(deadline) = deadline else { return 0 };
    if ewma_us == 0 {
        return 0;
    }
    let remaining = deadline.saturating_duration_since(Instant::now()).as_micros() as u64;
    if remaining < ewma_us {
        2
    } else if remaining < ewma_us.saturating_mul(2) {
        1
    } else {
        0
    }
}

/// Steps a ranked query down `rung` ladder rungs (rung 1 caps the ranking
/// depth at [`DEGRADE_TOP_K`], rung 2 downgrades to a suggestion), returning
/// how many rungs actually changed the answer mode. Non-ranked modes are
/// already at the bottom of the ladder and never change.
fn apply_degradation(query: &mut Query, rung: usize) -> usize {
    match (query.mode, rung) {
        (QueryMode::Suggest | QueryMode::Survey { .. }, _) | (_, 0) => 0,
        (QueryMode::TopK(_) | QueryMode::FullRank, 2..) => {
            query.mode = QueryMode::Suggest;
            2
        }
        (QueryMode::FullRank, 1) => {
            query.mode = QueryMode::TopK(DEGRADE_TOP_K);
            1
        }
        (QueryMode::TopK(k), 1) if k > DEGRADE_TOP_K => {
            query.mode = QueryMode::TopK(DEGRADE_TOP_K);
            1
        }
        (QueryMode::TopK(_), 1) => 0,
    }
}

fn process_batch(batch: Vec<Pending>, shared: &Arc<Shared>) {
    // Groups in the arrival order of their oldest member (the batch was
    // drained in arrival order). `ranked` finds a problem class's group by
    // its key; a query whose key another class already holds gets a group
    // of its own, which costs coalescing, never an answer.
    let mut groups: Vec<(GroupKey, Vec<Pending>)> = Vec::new();
    let mut ranked: HashMap<GroupKey, usize> = HashMap::new();
    let pressure = queue_rung(batch.len(), shared.config.queue_cap.max(1));
    let ewma_us = shared.eval_ewma_us.load(Ordering::Relaxed);
    for mut p in batch {
        if let Some(deadline) = p.deadline {
            if Instant::now() >= deadline {
                shared.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                let _ = p.reply.send(Response::DeadlineExpired);
                continue;
            }
        }
        // The degradation ladder: answer shallower instead of late (or not
        // at all). Shedding still happens — but only at enqueue when the
        // queue itself is full, past the last rung.
        if shared.config.degrade {
            let rung = pressure.max(deadline_rung(p.deadline, ewma_us));
            p.degraded = apply_degradation(&mut p.query, rung);
            if p.degraded > 0 {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                if p.degraded >= 2 {
                    shared.counters.degraded_to_suggest.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Batch-stage hook: deliberately OUTSIDE the per-query containment,
        // so a panic injected here escapes to the batcher supervisor.
        if let Some(hook) = &shared.config.eval_hook {
            hook(&p.query, EvalStage::Batch);
        }
        let key = group_key(&p);
        if matches!(p.query.mode, QueryMode::TopK(_) | QueryMode::FullRank) {
            match ranked.get(&key) {
                Some(&g) if same_class(&groups[g].1[0], &p) => {
                    groups[g].1.push(p);
                    continue;
                }
                Some(_) => {}
                None => {
                    ranked.insert(key, groups.len());
                }
            }
        }
        groups.push((key, vec![p]));
    }
    for (key, group) in groups {
        answer_group(&key.0, group, shared);
    }
}

/// Feeds one evaluation-time sample into the deadline-pressure EWMA.
fn record_eval_time(shared: &Arc<Shared>, eval_us: u64) {
    let old = shared.eval_ewma_us.load(Ordering::Relaxed);
    let next = if old == 0 { eval_us } else { (3 * old + eval_us) / 4 };
    shared.eval_ewma_us.store(next, Ordering::Relaxed);
}

/// The key of a query's problem class: its problem (model, cluster, δ and
/// γ), dataset size, epochs and effective constraints. Ranked queries of
/// one class differ at most in batch size and share one sweep. The model
/// key comes with the zoo entry; the other parts are hashed here, once per
/// query.
type GroupKey = (ProblemKey, usize, usize, ConstraintsKey);

fn group_key(p: &Pending) -> GroupKey {
    let cluster = p.query.cluster.as_ref().expect("validated at enqueue");
    let config = p.query.config.expect("validated at enqueue");
    let problem = ProblemKey::of(&p.model, cluster, &config);
    let constraints = ConstraintsKey::of(&p.query.effective_constraints());
    (problem, config.dataset_size, config.epochs, constraints)
}

/// Whether two queries with equal [`GroupKey`]s are of one problem class:
/// the same zoo entry, and equal clusters, non-batch config fields and
/// effective constraints (a key is only a hash).
fn same_class(a: &Pending, b: &Pending) -> bool {
    let config = |p: &Pending| {
        let c = p.query.config.expect("validated at enqueue");
        (c.dataset_size, c.epochs, c.bytes_per_item.to_bits(), c.memory_reuse.to_bits())
    };
    Arc::ptr_eq(&a.model, &b.model)
        && a.query.cluster == b.query.cluster
        && config(a) == config(b)
        && a.query.effective_constraints() == b.query.effective_constraints()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `eval` (preceded by the Eval-stage hook) under `catch_unwind`: a
/// panicking query is quarantined to an `Internal` error response instead
/// of killing the batcher. Sound under `forbid(unsafe_code)` — the only
/// state shared across the boundary is the engine cache and its entries'
/// column stores, whose mutexes are poison-recovered.
fn run_contained<T>(
    query: &Query,
    shared: &Arc<Shared>,
    eval: impl FnOnce() -> T,
) -> Result<T, Response> {
    let hook = shared.config.eval_hook.clone();
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(hook) = &hook {
            hook(query, EvalStage::Eval);
        }
        eval()
    }))
    .map_err(|payload| {
        shared.counters.panics_contained.fetch_add(1, Ordering::Relaxed);
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        Response::error(
            ErrorKind::Internal,
            format!("evaluation panicked (quarantined): {}", panic_message(payload)),
        )
    })
}

/// Answers one group with one evaluation on an engine from
/// [`EngineCache::engine`], looked up once under `key`: the
/// ranked members of a problem class share one [`GridSweep::run_engine`]
/// pass over their distinct batches, on the entry's column store, and a
/// suggestion or survey (a group of one) is answered on the engine
/// directly. The store's columns are uncalibrated; a calibrated member's
/// report is rescaled after the sweep. An engine that cannot be built
/// refuses every member with the typed [`EngineError`]; a panic
/// quarantines every member (they share the poisoned evaluation), and the
/// store recovers from it at the next group.
fn answer_group(key: &ProblemKey, group: Vec<Pending>, shared: &Arc<Shared>) {
    let coalesced = group.len();
    if coalesced > 1 {
        shared.counters.coalesced_groups.fetch_add(1, Ordering::Relaxed);
    }
    let lead = &group[0].query;
    let entry = &group[0].model;
    let cluster = lead.cluster.as_ref().expect("validated at enqueue");
    let config = lead.config.expect("validated at enqueue");
    let batch_of = |p: &Pending| p.query.config.expect("validated at enqueue").batch_size;
    let mut batches: Vec<usize> = group.iter().map(batch_of).collect();
    batches.sort_unstable();
    batches.dedup();

    // Each member's answer with its kernel work counters: (candidates
    // costed, candidates pruned before costing), zero for suggestions and
    // surveys; and whether the engine's core was cached.
    let start = Instant::now();
    let outcome = run_contained(lead, shared, || {
        let (engine, cache_hit, columns) = shared.cache.engine(key, entry, cluster, config)?;
        let answers = match lead.mode {
            QueryMode::TopK(_) | QueryMode::FullRank => {
                let constraints = lead.effective_constraints();
                let report =
                    GridSweep::new().run_engine(&engine, &batches, &constraints, Some(&columns));
                group
                    .iter()
                    .map(|p| {
                        let cell = report
                            .get(0, batch_of(p), 0)
                            .expect("sweep covers every requested cell");
                        // Calibration is per query, applied after the
                        // shared sweep: queries differing only in
                        // calibration still coalesce onto one sweep.
                        let report = cell.report.clone();
                        let report = match &p.query.calibration {
                            Some(calibration) => report.recalibrated(calibration),
                            None => report,
                        };
                        (QueryAnswer::Ranked(report), cell.report.evaluated(), cell.report.pruned())
                    })
                    .collect()
            }
            QueryMode::Suggest | QueryMode::Survey { .. } => {
                let oracle = Oracle::new(entry.model(), &cluster.device, cluster, config);
                vec![(oracle.answer_with_engine(&engine, lead), 0, 0)]
            }
        };
        Ok::<_, EngineError>((answers, cache_hit))
    });
    let eval_us = start.elapsed().as_micros() as u64;

    let (answers, cache_hit) = match outcome {
        Ok(Ok(answered)) => answered,
        Ok(Err(e)) => {
            for p in group {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let _ = p.reply.send(Response::error(ErrorKind::BadRequest, e.to_string()));
            }
            return;
        }
        Err(quarantined) => {
            for p in group {
                let _ = p.reply.send(quarantined.clone());
            }
            return;
        }
    };
    record_eval_time(shared, eval_us);
    for (p, (answer, candidates_evaluated, candidates_pruned)) in group.into_iter().zip(answers) {
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        let _ = p.reply.send(Response::Answer {
            answer: answer.to_json(),
            stats: AnswerStats {
                cache_hit,
                coalesced,
                batch_cells: batches.len(),
                queue_us: start.duration_since(p.enqueued).as_micros() as u64,
                eval_us,
                degraded: p.degraded,
                candidates_evaluated,
                candidates_pruned,
            },
        });
    }
}
