//! The server: acceptor, per-connection sessions, bounded worker pool,
//! admission control, graceful shutdown.
//!
//! Thread shape:
//!
//! * **acceptor** — one thread on the listener. Admission gate #1: past
//!   `max_connections` live connections a new client gets one typed
//!   `ServerBusy` error frame and an immediate close; the accept loop
//!   itself never blocks on engine work.
//! * **reader per connection** (bounded by `max_connections`) — performs
//!   the versioned handshake, then turns `Query` frames into jobs for the
//!   worker pool. Admission gate #2: when the job queue is at
//!   `queue_depth` the query is answered with `ServerBusy` right from the
//!   reader — shed, not queued, so a burst degrades into fast failures
//!   instead of unbounded latency. `Ping` is answered inline (it must
//!   stay cheap precisely when the pool is saturated).
//! * **worker pool** (`workers` threads) — executes jobs against the
//!   connection's [`Session`] (one session per connection, reused across
//!   frames, so `DECLARE PURPOSE` state persists between queries) and
//!   writes the `ResultSet`/`Error` frame back. A client that vanished
//!   mid-query costs one failed write (`dropped_replies`), never a
//!   worker.
//!
//! Every accepted socket — served or refused — has `TCP_NODELAY` set, as
//! the client's and the replication links' sockets do, and every frame
//! goes out in one `write` (see [`protocol`]). Together they keep a reply
//! from waiting on Nagle's algorithm for the peer's delayed ACK, which
//! otherwise adds ~40 ms to each request/reply round trip.
//!
//! [`Server::shutdown`] tears down in dependency order: stop admitting,
//! unblock and join the readers, drain the worker queue (in-flight
//! queries finish and their commits are acknowledged), stop the
//! background daemons, and only then drop the [`Db`] — whose own drop
//! order drains the group-commit pipeline before the log handle closes,
//! so an acknowledged commit can never be lost to a graceful shutdown.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use parking_lot::{Condvar, Mutex};

use instant_common::{Error, Result, SharedClock};
use instant_core::query::{schema_for_create, HierarchyRegistry, QueryOutput};
use instant_core::{Checkpointer, Db, DbConfig, DegradationDaemon, Session};
use instant_obs::Stage;

use crate::protocol::{self, Frame, PROTOCOL_VERSION};
use crate::stats::{ServerStats, StatsCells};

/// Network/admission tuning. The engine itself is configured by
/// [`DbConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Admission gate #1: connections past this are refused with
    /// `ServerBusy`.
    pub max_connections: usize,
    /// Query-executing worker threads.
    pub workers: usize,
    /// Admission gate #2: queries queued beyond the workers; a full queue
    /// sheds with `ServerBusy`.
    pub queue_depth: usize,
    /// Largest accepted frame (`len` field), bytes.
    pub max_frame_bytes: u32,
    /// Spawn a [`DegradationDaemon`] pumping every interval — the served
    /// engine enforces timely degradation without any client's help.
    pub degrade_every: Option<StdDuration>,
    /// How long a freshly accepted connection gets to complete the
    /// `Hello` exchange before its slot is reclaimed. Without this, a
    /// client that connects and sends nothing would occupy a
    /// `max_connections` slot forever — the admission gate itself would
    /// be the denial-of-service vector.
    pub handshake_timeout: StdDuration,
    /// Per-syscall cap on reply writes. A client that stops reading
    /// (zero TCP window) fails its reply after this long instead of
    /// parking a worker forever; a slow-but-draining reader gets a fresh
    /// allowance per partial write and is unaffected.
    pub write_timeout: StdDuration,
    /// Slow-query threshold for the engine's slow-query log. Applied at
    /// start only when [`DbConfig::slow_query`] left the engine's own
    /// threshold unset; `None` here keeps whatever the engine has.
    pub slow_query: Option<StdDuration>,
    /// Serve every connection in read-only mode: mutating statements
    /// fail with a typed [`ReadOnly`](instant_common::Error::ReadOnly)
    /// error while SELECT / DECLARE PURPOSE / SHOW STATS run normally.
    /// This is how a replication follower exposes its engine.
    pub read_only: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            workers: 4,
            queue_depth: 64,
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            degrade_every: None,
            handshake_timeout: StdDuration::from_secs(10),
            write_timeout: StdDuration::from_secs(30),
            slow_query: Some(StdDuration::from_millis(250)),
            read_only: false,
        }
    }
}

/// Per-connection state shared between its reader and the workers.
struct ConnState {
    /// Writing side; every response frame is written under this lock so
    /// frames never interleave on the stream.
    stream: Mutex<TcpStream>, // lock-rank: 160
    /// Outgoing frame cap (mirrors the incoming one): a reply larger
    /// than this is replaced by a typed `capacity` error, keeping the
    /// connection alive instead of desynchronizing the client.
    max_frame_bytes: u32,
    /// The connection's session — reused across frames, so purpose
    /// declarations persist for the connection's lifetime.
    session: Mutex<Session>, // lock-rank: 150
    /// Sequence of the next Query that may execute and reply. Query
    /// frames carry no correlation id, so a pipelining client pairs
    /// replies with queries by order alone — and session state demands
    /// in-order *execution* too (a pipelined `DECLARE PURPOSE` must
    /// govern the `SELECT` behind it). This ticket serializes each
    /// connection's queries in arrival order across the pool — worker
    /// results *and* reader-side `ServerBusy` sheds — even when two
    /// pipelined queries land on different workers. (Execution was
    /// already serialized by the session mutex; the ticket only pins
    /// its order, so cross-connection parallelism is untouched.)
    turn: Mutex<u64>, // lock-rank: 140
    turn_cv: Condvar,
}

impl ConnState {
    /// Best-effort frame write (oversized replies become typed capacity
    /// errors); `false` when the client is gone.
    fn send(&self, frame: &Frame) -> bool {
        let mut stream = self.stream.lock();
        // lint:allow(L102, the per-connection stream mutex exists to keep frames atomic on the wire; the write must happen under it)
        protocol::write_frame_capped(&mut *stream, frame, self.max_frame_bytes).is_ok()
    }

    /// Block until query number `seq` may run: every earlier query on
    /// this connection has executed and its reply is on the wire.
    fn await_turn(&self, seq: u64) {
        let mut turn = self.turn.lock();
        while *turn != seq {
            self.turn_cv.wait(&mut turn);
        }
    }

    /// Reply for the current-turn query and open the next turn. Always
    /// advances, even when the client is gone — later replies must never
    /// wait on a dead send.
    fn finish_turn(&self, frame: &Frame) -> bool {
        let ok = self.send(frame);
        *self.turn.lock() += 1;
        self.turn_cv.notify_all();
        ok
    }

    /// [`ConnState::await_turn`] + [`ConnState::finish_turn`] in one step
    /// (the reader's shed path, which has no work between them).
    fn send_in_turn(&self, seq: u64, frame: &Frame) -> bool {
        self.await_turn(seq);
        self.finish_turn(frame)
    }
}

/// One unit of work for the pool: a query on behalf of a connection.
struct Job {
    conn: Arc<ConnState>,
    sql: String,
    /// Arrival order on the connection; replies are serialized by it.
    seq: u64,
}

/// Outcome of offering a job to the bounded queue.
enum Pushed {
    Queued,
    Shed,
    Closed,
}

/// The bounded MPMC job queue behind the worker pool.
struct JobQueue {
    inner: Mutex<QueueInner>, // lock-rank: 130
    cv: Condvar,
    depth: usize,
}

struct QueueInner {
    jobs: std::collections::VecDeque<Job>,
    open: bool,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::ranked(
                130,
                QueueInner {
                    jobs: std::collections::VecDeque::new(),
                    open: true,
                },
            ),
            cv: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Pushed {
        let mut inner = self.inner.lock();
        if !inner.open {
            return Pushed::Closed;
        }
        if inner.jobs.len() >= self.depth {
            return Pushed::Shed;
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cv.notify_one();
        Pushed::Queued
    }

    /// Blocking pop; `None` once the queue is closed *and* drained, so a
    /// shutdown still executes every admitted query.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            self.cv.wait(&mut inner);
        }
    }

    fn close(&self) {
        self.inner.lock().open = false;
        self.cv.notify_all();
    }
}

/// State shared by the acceptor, readers and workers.
struct Shared {
    db: Arc<Db>,
    hierarchies: HierarchyRegistry,
    cfg: ServerConfig,
    /// Shared with the obs "server" counter provider, which outlives any
    /// one `Server` over the same engine (re-registration replaces it).
    stats: Arc<StatsCells>,
    queue: JobQueue,
    shutting_down: AtomicBool,
    next_conn_id: AtomicU64,
    /// In-flight courtesy-refusal threads (see [`refuse`]); bounded so a
    /// connection flood cannot turn the shed path itself into thread
    /// exhaustion.
    refusing: AtomicU64,
    /// Write-side stream clones, for unblocking readers at shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>, // lock-rank: 120
    readers: Mutex<Vec<JoinHandle<()>>>, // lock-rank: 110
    /// Append-only DDL journal (see [`open_or_recover`]); `None` for an
    /// ephemeral engine.
    ddl: Option<Mutex<std::fs::File>>, // lock-rank: 100
}

/// A running InstantDB network front-end over an embedded [`Db`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    checkpointer: Option<Checkpointer>,
    degrader: Option<DegradationDaemon>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .field("stats", &self.shared.stats.snapshot())
            .finish()
    }
}

impl Server {
    /// Bind, spawn the acceptor + worker pool (+ the background daemons
    /// the engine config arms), and return. `hierarchies` is shared by
    /// every connection's session — register domain trees here so remote
    /// `CREATE TABLE … DEGRADE USING <name>` can resolve them.
    pub fn start(db: Arc<Db>, hierarchies: HierarchyRegistry, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let ddl = match &db.config().path {
            Some(p) => Some(Mutex::ranked(
                100,
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(ddl_path(p))?,
            )),
            None => None,
        };
        let checkpointer = Checkpointer::spawn_from_config(&db)?;
        let degrader = cfg
            .degrade_every
            .map(|every| DegradationDaemon::spawn(db.clone(), every))
            .transpose()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_depth),
            db,
            hierarchies,
            cfg,
            stats: Arc::new(StatsCells::default()),
            shutting_down: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            refusing: AtomicU64::new(0),
            conns: Mutex::ranked(120, HashMap::new()),
            readers: Mutex::ranked(110, Vec::new()),
            ddl,
        });
        // Served engines run with tracing spans on: the query/commit
        // stage histograms behind `SHOW STATS` are the point of serving.
        // (Embedded engines leave them off — zero cost unless opted in.)
        shared.db.obs().set_spans_enabled(true);
        // Arm the slow-query log unless the engine config already chose.
        if shared.db.config().slow_query.is_none() {
            if let Some(threshold) = shared.cfg.slow_query {
                shared.db.obs().set_slow_query_threshold(Some(threshold));
            }
        }
        // Fold the network counters into the engine's stats snapshot so
        // `SHOW STATS` is the whole story (engine + serving layer).
        {
            let cells = shared.stats.clone();
            shared.db.obs().register_provider("server", move || {
                let s = cells.snapshot();
                vec![
                    ("connections_accepted".into(), s.connections_accepted),
                    ("connections_active".into(), s.connections_active),
                    ("connections_shed".into(), s.connections_shed),
                    ("frames".into(), s.frames),
                    ("queries".into(), s.queries),
                    ("query_errors".into(), s.query_errors),
                    ("queries_shed".into(), s.queries_shed),
                    ("pings".into(), s.pings),
                    ("protocol_errors".into(), s.protocol_errors),
                    ("dropped_replies".into(), s.dropped_replies),
                ]
            });
        }
        // Thread spawns can fail under resource pressure; a server that
        // cannot field its pool must report that, not panic half-built.
        // Closing the queue unblocks any workers that did start so they
        // exit instead of leaking.
        let spawned = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("idb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>();
        let workers = match spawned {
            Ok(workers) => workers,
            Err(e) => {
                shared.queue.close();
                return Err(e.into());
            }
        };
        let acceptor = {
            let shared2 = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("idb-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared2));
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    shared.queue.close();
                    for h in workers {
                        let _ = h.join();
                    }
                    return Err(e.into());
                }
            }
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            checkpointer,
            degrader,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the server.
    pub fn db(&self) -> &Arc<Db> {
        &self.shared.db
    }

    /// Snapshot the server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown — see the module docs for the ordering. Errors
    /// from the background daemons' final ticks are returned (first one
    /// wins) after the teardown completes either way.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        // 1. Stop admitting: flag + a self-connection to unblock accept().
        self.shared.shutting_down.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. Unblock readers (close the read side so in-flight responses
        //    can still be written) and join them — no new jobs after this.
        for stream in self.shared.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in std::mem::take(&mut *self.shared.readers.lock()) {
            let _ = h.join();
        }
        // 3. Drain the pool: close the queue, workers finish every
        //    admitted job (acknowledging its commit) and exit.
        self.shared.queue.close();
        for h in std::mem::take(&mut self.workers) {
            let _ = h.join();
        }
        for stream in self.shared.conns.lock().drain().map(|(_, s)| s) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // 4. Background daemons: final drain tick, then join.
        let mut first_err = None;
        if let Some(d) = self.degrader.take() {
            if let Err(e) = d.stop() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(c) = self.checkpointer.take() {
            if let Err(e) = c.stop() {
                first_err.get_or_insert(e);
            }
        }
        // 5. The Db (and with it the group-commit pipeline, drained by
        //    its drop order) goes down with the last Arc — the caller may
        //    still hold one for post-shutdown inspection.
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            // lint:allow(L006, drop is best-effort; shutdown errors have no caller left to report to)
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Listener failure: without accept there is no server; exit
            // (shutdown also lands here after its wake-up connect).
            return;
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        // Reap finished readers so the handle list tracks live
        // connections rather than growing for the server's lifetime.
        shared.readers.lock().retain(|h| !h.is_finished());
        let active = shared.stats.active.load(Ordering::Relaxed);
        if active as usize >= shared.cfg.max_connections {
            shared.stats.add(|s| &s.shed_connections);
            // Detached: the refusal reads the client's handshake first
            // (so the close is a clean FIN, not an RST racing the typed
            // error off the wire), and that read must never be allowed
            // to stall the accept loop. Courtesy threads are themselves
            // bounded — past the cap a flood gets a bare close, so the
            // shed path can never become the thread-exhaustion vector.
            const MAX_REFUSING: u64 = 32;
            if shared.refusing.fetch_add(1, Ordering::AcqRel) >= MAX_REFUSING {
                shared.refusing.fetch_sub(1, Ordering::AcqRel);
                drop(stream);
                continue;
            }
            let shared2 = shared.clone();
            let spawned = std::thread::Builder::new()
                .name("idb-refuse".into())
                .spawn(move || {
                    refuse(stream);
                    shared2.refusing.fetch_sub(1, Ordering::AcqRel);
                });
            if spawned.is_err() {
                shared.refusing.fetch_sub(1, Ordering::AcqRel);
            }
            continue;
        }
        shared.stats.add(|s| &s.accepted);
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        let shared2 = shared.clone();
        let reader = std::thread::Builder::new()
            .name(format!("idb-conn-{id}"))
            .spawn(move || {
                reader_loop(stream, &shared2);
                shared2.conns.lock().remove(&id);
                shared2.stats.active.fetch_sub(1, Ordering::Relaxed);
            });
        match reader {
            Ok(h) => shared.readers.lock().push(h),
            Err(_) => {
                // Thread pressure: give the slot back and drop the
                // connection (the closure — and the stream it owns —
                // was returned and dropped). Panicking here would kill
                // the acceptor and leave a half-dead server.
                shared.conns.lock().remove(&id);
                shared.stats.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Refuse a connection at the gate with one typed error frame. Runs on a
/// throwaway thread with bounded timeouts; the client's handshake frame
/// is consumed first so the refusal arrives as data + FIN rather than
/// being destroyed by an RST for unread input.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(StdDuration::from_secs(1)));
    let _ = stream.set_write_timeout(Some(StdDuration::from_secs(1)));
    // lint:allow(L006, refusal is best-effort: the socket is being dropped and the peer may already be gone)
    let _ = protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES);
    // lint:allow(L006, refusal is best-effort: the socket is being dropped and the peer may already be gone)
    let _ = protocol::write_frame(
        &mut stream,
        &Frame::error(&Error::ServerBusy("connection limit reached".into())),
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

fn reader_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    // No Nagle delay on replies (the socket option, like the timeouts
    // below, is shared with the write-side clone).
    let _ = stream.set_nodelay(true);
    // Timeouts apply to the socket, so the write-side clone taken below
    // inherits them: replies to a client that stopped reading fail after
    // `write_timeout` per syscall instead of parking a worker forever.
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // The handshake read is deadlined — a connect-and-say-nothing client
    // must not hold a max_connections slot indefinitely…
    let _ = stream.set_read_timeout(Some(shared.cfg.handshake_timeout));
    // Handshake first: magic + matching version, or one error and out.
    match protocol::read_frame(&mut stream, shared.cfg.max_frame_bytes) {
        Ok(Some(Frame::Hello { version, .. })) if version == PROTOCOL_VERSION => {
            let hello = Frame::Hello {
                version: PROTOCOL_VERSION,
                banner: format!("instantdb-server/{}", env!("CARGO_PKG_VERSION")),
            };
            if protocol::write_frame(&mut stream, &hello).is_err() {
                return;
            }
        }
        Ok(Some(Frame::Hello { version, .. })) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(
                &mut stream,
                &Frame::error(&Error::Unsupported(format!(
                    "protocol version {version} (server speaks {PROTOCOL_VERSION})"
                ))),
            );
            return;
        }
        Ok(_) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(
                &mut stream,
                &Frame::error(&Error::Corrupt("expected Hello handshake".into())),
            );
            return;
        }
        Err(e) => {
            shared.stats.add(|s| &s.protocol_errors);
            send_raw(&mut stream, &Frame::error(&e));
            return;
        }
    }
    // …but an *established* idle connection is legitimate: lift the
    // read deadline for the session loop.
    let _ = stream.set_read_timeout(None);
    let conn = Arc::new(ConnState {
        stream: Mutex::ranked(
            160,
            match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            },
        ),
        max_frame_bytes: shared.cfg.max_frame_bytes,
        session: Mutex::ranked(150, {
            let mut session = Session::with_registry(shared.db.clone(), shared.hierarchies.clone());
            session.set_read_only(shared.cfg.read_only);
            session
        }),
        turn: Mutex::ranked(140, 0),
        turn_cv: Condvar::new(),
    });
    let mut next_seq = 0u64;
    loop {
        match protocol::read_frame(&mut stream, shared.cfg.max_frame_bytes) {
            Ok(Some(Frame::Query { sql })) => {
                shared.stats.add(|s| &s.frames);
                let seq = next_seq;
                next_seq += 1;
                match shared.queue.try_push(Job {
                    conn: conn.clone(),
                    sql,
                    seq,
                }) {
                    Pushed::Queued => {}
                    Pushed::Shed => {
                        // In turn like any reply: a shed for query N must
                        // not overtake the result of admitted query N-1,
                        // or a pipelining client mispairs them. Blocking
                        // here also stops reading from this connection —
                        // natural per-connection backpressure; the accept
                        // loop and other connections are unaffected.
                        shared.stats.add(|s| &s.shed_queries);
                        conn.send_in_turn(
                            seq,
                            &Frame::error(&Error::ServerBusy(format!(
                                "query queue full ({} deep)",
                                shared.cfg.queue_depth
                            ))),
                        );
                    }
                    Pushed::Closed => return,
                }
            }
            Ok(Some(Frame::Ping)) => {
                shared.stats.add(|s| &s.frames);
                shared.stats.add(|s| &s.pings);
                if !conn.send(&Frame::Pong) {
                    return;
                }
            }
            Ok(Some(Frame::Close)) => {
                // Graceful end of session: count it and close quietly.
                shared.stats.add(|s| &s.frames);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Ok(Some(other)) => {
                shared.stats.add(|s| &s.protocol_errors);
                conn.send(&Frame::error(&Error::Corrupt(format!(
                    "unexpected frame {other:?} after handshake"
                ))));
                return;
            }
            Ok(None) => return, // client disconnected
            Err(e @ Error::Capacity(_)) | Err(e @ Error::Corrupt(_)) => {
                // Oversized or unparseable frame: the stream position is
                // no longer trustworthy — answer typed, then close.
                shared.stats.add(|s| &s.protocol_errors);
                conn.send(&Frame::error(&e));
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => return, // transport error
        }
    }
}

/// Write a frame to a not-yet-registered connection (handshake errors).
fn send_raw(stream: &mut TcpStream, frame: &Frame) {
    let _ = stream.set_write_timeout(Some(StdDuration::from_secs(1)));
    // lint:allow(L006, handshake error reply is best-effort; the connection closes either way)
    let _ = protocol::write_frame(stream, frame);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        // Arrival-order gate: never executes query N before N-1's reply
        // is out (no deadlock: the global queue is FIFO, so every
        // earlier same-connection job was popped — and is progressing on
        // some worker — before this one).
        job.conn.await_turn(job.seq);
        // DDL statements execute under the journal lock, so the journal
        // records CREATE TABLEs in exactly catalog-TableId order even
        // when two connections race — recovery replays the journal top
        // to bottom and must re-derive the same ids the WAL records
        // carry. (Residual window, documented on `journal_ddl`: a crash
        // between the catalog insert and the journal fsync can lose a
        // table another connection already saw by name.)
        let ddl_guard = if is_ddl(&job.sql) {
            shared.ddl.as_ref().map(|m| m.lock())
        } else {
            None
        };
        let result = {
            let mut session = job.conn.session.lock();
            // lint:allow(L102, the session turn mutex is held for the whole statement by design (sessions are serial); a CHECKPOINT statement fsyncs under it)
            session.execute(&job.sql)
        };
        shared.stats.add(|s| &s.queries);
        let reply = match result {
            Ok(output) => {
                // A created table must be journaled durably *before* the
                // acknowledgment: if the journal write fails, the client
                // is told the CREATE failed (the in-memory table exists
                // but would be unrecoverable after a restart — rows
                // committed into it must not look durable).
                let journaled = match (&output, ddl_guard) {
                    (QueryOutput::TableCreated(name), Some(mut file)) => {
                        let journaled = journal_ddl(&mut file, &job.sql);
                        if journaled.is_err() {
                            // Undo the catalog insert so the unjournaled
                            // table cannot accept acknowledged commits
                            // that recovery would have no schema for.
                            // Safe under the still-held DDL lock (no
                            // concurrent CREATE can have taken an id).
                            // lint:allow(L006, undo path already reporting the original error; a detach failure leaves only a harmless orphan entry)
                            let _ = shared.db.catalog().detach_table(name);
                        }
                        journaled
                    }
                    _ => Ok(()),
                };
                match journaled {
                    // A stats snapshot rides its own frame kind, so
                    // monitoring agents can match on the kind byte.
                    Ok(()) => match output {
                        QueryOutput::Stats(snap) => Frame::Stats(snap),
                        other => Frame::ResultSet(other),
                    },
                    Err(e) => {
                        shared.stats.add(|s| &s.query_errors);
                        Frame::error(&e)
                    }
                }
            }
            Err(e) => {
                shared.stats.add(|s| &s.query_errors);
                Frame::error(&e)
            }
        };
        let _reply_span = shared.db.obs().span(Stage::QueryReply);
        if !job.conn.finish_turn(&reply) {
            // Mid-query disconnect: the commit (if any) stands, the
            // reply has no reader. The worker moves on.
            shared.stats.add(|s| &s.dropped_replies);
        }
    }
}

/// Does this statement need the DDL journal lock held across execution?
/// A conservative prefix test: false positives only serialize a
/// non-CREATE statement against DDL, never corrupt anything.
fn is_ddl(sql: &str) -> bool {
    sql.split_whitespace()
        .next()
        .is_some_and(|w| w.eq_ignore_ascii_case("create"))
}

/// Append a successful `CREATE TABLE` statement to the DDL journal and
/// fsync it, so a restarted server can rebuild the schemas for
/// [`Db::recover_with_schemas`]. Newlines are flattened — the journal is
/// one statement per line. The caller holds the journal lock *across the
/// statement's execution*, so journal order always matches catalog
/// TableId-allocation order. A write/fsync failure is returned so the
/// caller refuses to acknowledge the CREATE (an unjournaled table would
/// be silently unrecoverable after a restart). Known residual window: a
/// crash after the catalog insert but before this fsync loses the table
/// while a racing connection may already have seen it by name —
/// catalog-level DDL persistence (ROADMAP follow-up) closes it.
fn journal_ddl(file: &mut std::fs::File, sql: &str) -> Result<()> {
    let line: String = sql
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    writeln!(file, "{}", line.trim())?;
    file.sync_all()?;
    Ok(())
}

/// The DDL journal path for a data-directory prefix.
pub fn ddl_path(prefix: &Path) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(".ddl");
    PathBuf::from(s)
}

/// Open a served engine at `cfg.path`, replaying the DDL journal through
/// [`Db::recover_with_schemas`] when one exists (the schemas resolve
/// their hierarchies against `hierarchies`). Without a journal — or
/// without a path at all — this is a plain [`Db::open`].
pub fn open_or_recover(
    cfg: DbConfig,
    clock: SharedClock,
    hierarchies: &HierarchyRegistry,
) -> Result<Arc<Db>> {
    let Some(path) = cfg.path.clone() else {
        return Ok(Arc::new(Db::open(cfg, clock)?));
    };
    let journal = ddl_path(&path);
    if !journal.is_file() {
        return Ok(Arc::new(Db::open(cfg, clock)?));
    }
    let mut schemas = Vec::new();
    for line in std::fs::read_to_string(&journal)?.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        schemas.push(schema_for_create(hierarchies, line)?);
    }
    Ok(Arc::new(Db::recover_with_schemas(cfg, clock, schemas)?))
}
