//! The thread-per-core sharded TCP daemon.
//!
//! ```text
//!            accept                    shard 0..S-1 (thread-per-core pair)
//!  clients ─────────▶ acceptor ──┬──▶ ┌──────────────────────────────────┐
//!   (TCP)             (rr hand-  │    │ IO thread: poll(2) loop          │
//!                      off)      │    │   decode frames → admission:     │
//!                                │    │   drain? quota? queue full? ──▶  │
//!                                │    │   typed Shed · else enqueue      │
//!                                └──▶ │ exec thread: take_batch(B) ──▶   │
//!                                     │   BatchRunner (one scan pass)    │
//!                                     │   → Result frames → IO outbox    │
//!                                     └──────────────────────────────────┘
//! ```
//!
//! Each shard owns its connections, its `serve::AdmissionQueue`, and a
//! batch-exec thread; the only cross-shard state is the tenant quota map,
//! the drain flag, and the relaxed-atomic counters the `Stats` frame
//! snapshots. The contract the tests and bench pin: **every accepted
//! `Submit` is answered by exactly one `Result`, and every refused one by
//! exactly one typed `Shed`** — including through a graceful drain, which
//! stops admission, finishes all queued and in-flight batches, flushes
//! every outbox, and only then closes the sockets and exits.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parblast_serve::{AdmissionQueue, Query};
use parblast_simcore::SimTime;
use polling::{Event, Poller};

use crate::proto::{encode_frame, Frame, FrameReader, ResultStatus, ShedReason, StatsSnapshot};
use crate::quota::{QuotaConfig, TenantQuotas};
use crate::runner::{BatchRunner, RunnerError};

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Shard (thread-pair) count; connections are spread round-robin.
    pub shards: usize,
    /// Per-shard admission-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Scan-sharing batch cap per execution pass.
    pub max_batch: usize,
    /// Per-tenant token-bucket quota; `None` admits everything.
    pub quota: Option<QuotaConfig>,
    /// Slowloris guard: a connection that has held a *partial* frame
    /// this long without completing it is evicted (counted in
    /// `StatsSnapshot::evicted`, pending queries cancelled). `None`
    /// waits forever.
    pub read_deadline: Option<Duration>,
    /// Most Submits one connection may have accepted-but-unanswered;
    /// the excess is shed `QueueFull` before touching quota or queue, so
    /// one runaway pipeliner cannot monopolize a shard's slots.
    pub max_inflight_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            queue_capacity: 256,
            max_batch: 4,
            quota: None,
            read_deadline: Some(Duration::from_secs(10)),
            max_inflight_per_conn: 1024,
        }
    }
}

/// One accepted query waiting in (or leaving) a shard's queue.
struct PendingQuery {
    conn: usize,
    id: u64,
    query: Vec<u8>,
    // Set by a `Cancel` or by the reaper while the query is queued; the
    // exec thread answers a flagged query with `Shed(Cancelled)`. The
    // flag lives and dies with the slab entry.
    cancelled: bool,
}

/// Shard state shared between its IO and exec threads.
struct ShardState {
    queue: AdmissionQueue,
    slab: Vec<Option<PendingQuery>>,
    free: Vec<usize>,
}

impl ShardState {
    fn insert(&mut self, p: PendingQuery) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(p);
                i
            }
            None => {
                self.slab.push(Some(p));
                self.slab.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) -> PendingQuery {
        let p = self.slab[i].take().expect("slab slot occupied");
        self.free.push(i);
        p
    }

    fn in_flight(&self) -> u64 {
        (self.slab.len() - self.free.len()) as u64
    }
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    // Exec → IO: encoded response frames routed by connection key. The
    // one receiver belongs to the shard's IO thread.
    results_tx: Sender<(usize, Vec<u8>)>,
    poller: Poller,
    // The shard's share of `StatsSnapshot`: answers sent (ok or failed),
    // and what the successful batches reported.
    served: AtomicU64,
    batches: AtomicU64,
    bytes_read: AtomicU64,
    kernel_passes: AtomicU64,
    passes_saved: AtomicU64,
    exec_done: AtomicBool,
}

/// State shared by every thread of one daemon.
struct Shared {
    epoch: Instant,
    draining: AtomicBool,
    quotas: Option<TenantQuotas>,
    shards: Vec<Shard>,
    accept_poller: Poller,
    read_deadline: Option<Duration>,
    max_inflight_per_conn: usize,
    submits: AtomicU64,
    accepted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_quota: AtomicU64,
    shed_draining: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    evicted: AtomicU64,
    next_query_id: AtomicU64,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Wake every blocked thread (drain signal, stats poke).
    fn notify_all(&self) {
        let _ = self.accept_poller.notify();
        for s in &self.shards {
            let _ = s.poller.notify();
            s.cv.notify_all();
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let sum = |field: fn(&Shard) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| field(s).load(Ordering::Relaxed))
                .sum()
        };
        let per_shard_served: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .collect();
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: per_shard_served.iter().sum(),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            batches: sum(|s| &s.batches),
            bytes_read: sum(|s| &s.bytes_read),
            kernel_passes: sum(|s| &s.kernel_passes),
            passes_saved: sum(|s| &s.passes_saved),
            submits: self.submits.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            per_shard_served,
        }
    }
}

/// A running daemon: the handle owns the threads and the shared state.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Programmatic drain: equivalent to receiving a `Drain` frame.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.notify_all();
    }

    /// Current counter snapshot (lock-free).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Wait for the daemon to finish draining and return final counters.
    /// Blocks until a `Drain` frame arrives or [`Self::drain`] is called.
    pub fn join(self) -> StatsSnapshot {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.snapshot()
    }
}

/// The daemon entry point.
pub struct NetServer;

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the shard threads.
    /// `runner` executes batches; it is shared by every shard, so two
    /// shards may call it concurrently.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        runner: Arc<dyn BatchRunner>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let shards = config.shards.max(1);

        let mut shard_vec = Vec::with_capacity(shards);
        let mut results_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (results_tx, results_rx) = mpsc::channel();
            results_rxs.push(results_rx);
            shard_vec.push(Shard {
                state: Mutex::new(ShardState {
                    queue: AdmissionQueue::new(config.queue_capacity),
                    slab: Vec::new(),
                    free: Vec::new(),
                }),
                cv: Condvar::new(),
                results_tx,
                poller: Poller::new()?,
                served: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
                kernel_passes: AtomicU64::new(0),
                passes_saved: AtomicU64::new(0),
                exec_done: AtomicBool::new(false),
            });
        }

        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            quotas: config.quota.map(TenantQuotas::new),
            shards: shard_vec,
            accept_poller: Poller::new()?,
            read_deadline: config.read_deadline,
            max_inflight_per_conn: config.max_inflight_per_conn.max(1),
            submits: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            next_query_id: AtomicU64::new(1),
        });

        let mut threads = Vec::new();
        // Per-shard connection hand-off channels.
        let mut conn_txs = Vec::with_capacity(shards);
        for (shard_ix, results_rx) in results_rxs.into_iter().enumerate() {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            conn_txs.push(conn_tx);
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-io-{shard_ix}"))
                    .spawn(move || io_thread(sh, shard_ix, conn_rx, results_rx))?,
            );
            let sh = Arc::clone(&shared);
            let rn = Arc::clone(&runner);
            let max_batch = config.max_batch.max(1);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-exec-{shard_ix}"))
                    .spawn(move || exec_thread(sh, shard_ix, rn, max_batch))?,
            );
        }
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_thread(sh, listener, conn_txs))?,
        );

        Ok(ServerHandle {
            addr: bound,
            shared,
            threads,
        })
    }
}

/// Accept loop: poll the listener, hand new connections to shards
/// round-robin, exit when draining.
fn accept_thread(shared: Arc<Shared>, listener: TcpListener, conn_txs: Vec<Sender<TcpStream>>) {
    let _ = shared.accept_poller.add(&listener, Event::readable(0));
    let mut next = 0usize;
    let mut events = Vec::new();
    while !shared.draining.load(Ordering::SeqCst) {
        events.clear();
        let _ = shared
            .accept_poller
            .wait(&mut events, Some(Duration::from_millis(50)));
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                        let shard = next % conn_txs.len();
                        next += 1;
                        if conn_txs[shard].send(stream).is_ok() {
                            let _ = shared.shards[shard].poller.notify();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
    // Dropping conn_txs closes the hand-off channels.
}

/// One connection owned by a shard IO thread.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    outbox: Vec<u8>,
    // Interest currently registered with the poller.
    writable_armed: bool,
    closed: bool,
    // Submits accepted into the queue but not yet answered.
    inflight: usize,
    // When the oldest byte of the current *partial* frame arrived; the
    // slowloris guard evicts the connection if the frame does not
    // complete within `read_deadline`.
    partial_since: Option<Instant>,
}

impl Conn {
    fn push_frame(&mut self, frame: &Frame) {
        self.outbox.extend_from_slice(&encode_frame(frame));
    }

    /// Write as much of the outbox as the socket accepts.
    fn flush(&mut self) {
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}

/// Shard IO loop: poll owned connections, decode frames, apply admission,
/// route exec results back out, and during drain keep flushing until
/// every accepted query's answer is on the wire.
fn io_thread(
    shared: Arc<Shared>,
    shard_ix: usize,
    conn_rx: Receiver<TcpStream>,
    results_rx: Receiver<(usize, Vec<u8>)>,
) {
    let shard = &shared.shards[shard_ix];
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = 0usize;
    let mut events = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        events.clear();
        let _ = shard
            .poller
            .wait(&mut events, Some(Duration::from_millis(25)));

        // New connections from the acceptor.
        while let Ok(stream) = conn_rx.try_recv() {
            let key = next_key;
            next_key += 1;
            let _ = shard.poller.add(&stream, Event::readable(key));
            conns.insert(
                key,
                Conn {
                    stream,
                    reader: FrameReader::new(),
                    outbox: Vec::new(),
                    writable_armed: false,
                    closed: false,
                    inflight: 0,
                    partial_since: None,
                },
            );
        }

        route_results(&results_rx, &mut conns);

        // Readable connections: pull bytes, decode, handle.
        let ready: Vec<usize> = events
            .iter()
            .filter(|e| e.readable)
            .map(|e| e.key)
            .collect();
        for key in ready {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => conn.reader.feed(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(frame)) => handle_frame(&shared, shard_ix, key, conn, frame),
                    Ok(None) => break,
                    Err(_) => {
                        // Protocol violation: this connection cannot
                        // resynchronize — drop it.
                        conn.closed = true;
                        break;
                    }
                }
            }
            // Slowloris bookkeeping: a nonempty reader buffer is a
            // partial frame. The clock starts when the partial appears
            // and only resets when a frame *completes* — trickling one
            // byte per tick buys no extension.
            if conn.reader.buffered() == 0 {
                conn.partial_since = None;
            } else if conn.partial_since.is_none() {
                conn.partial_since = Some(Instant::now());
            }
        }

        // Evict connections whose partial frame outlived the read
        // deadline: they hold decode state forever and starve nothing
        // else out, the classic slowloris shape.
        if let Some(deadline) = shared.read_deadline {
            for conn in conns.values_mut() {
                if !conn.closed
                    && conn
                        .partial_since
                        .is_some_and(|t0| t0.elapsed() >= deadline)
                {
                    conn.closed = true;
                    shared.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Flush every outbox; arm/disarm write interest as needed.
        for (key, conn) in conns.iter_mut() {
            if !conn.outbox.is_empty() {
                conn.flush();
            }
            let want_writable = !conn.outbox.is_empty();
            if want_writable != conn.writable_armed {
                let interest = if want_writable {
                    Event::all(*key)
                } else {
                    Event::readable(*key)
                };
                let _ = shard.poller.modify(&conn.stream, interest);
                conn.writable_armed = want_writable;
            }
        }

        // Reap closed connections. A dead connection's still-queued
        // Submits are flagged cancelled so the exec thread releases
        // their queue slots (as Shed(Cancelled), routed to the gone
        // connection and dropped) instead of wasting a scan pass on
        // answers nobody will read — and, because the slab entry is
        // consumed exactly once, the server provably cannot
        // double-answer a query whose connection died mid-frame.
        let dead: Vec<usize> = conns
            .iter()
            .filter(|(_, c)| c.closed)
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            if let Some(conn) = conns.remove(&key) {
                let _ = shard.poller.delete(&conn.stream);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
            let mut st = shard.state.lock().unwrap();
            let mut flagged = false;
            for p in st.slab.iter_mut().flatten() {
                if p.conn == key && !p.cancelled {
                    p.cancelled = true;
                    flagged = true;
                }
            }
            drop(st);
            if flagged {
                shard.cv.notify_one();
            }
        }

        // Drain exit: admission stopped, exec finished everything it will
        // ever get, all results routed, all outboxes flushed. `exec_done`
        // is read before the channel is drained, so every result the exec
        // thread will ever send is already queued; one routed to a live
        // connection leaves its outbox to flush on the next pass.
        if shared.draining.load(Ordering::SeqCst) && shard.exec_done.load(Ordering::SeqCst) {
            route_results(&results_rx, &mut conns);
            if conns.values().all(|c| c.outbox.is_empty()) {
                for (_, conn) in conns.iter() {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                }
                return;
            }
        }
    }
}

/// Exec results → owning connection's outbox, until the channel is empty.
/// A result whose connection is gone is dropped (the client hung up on
/// us). Every routed message answers exactly one accepted Submit, so it
/// releases one in-flight slot.
fn route_results(results_rx: &Receiver<(usize, Vec<u8>)>, conns: &mut HashMap<usize, Conn>) {
    while let Ok((key, bytes)) = results_rx.try_recv() {
        if let Some(conn) = conns.get_mut(&key) {
            conn.outbox.extend_from_slice(&bytes);
            conn.inflight = conn.inflight.saturating_sub(1);
        }
    }
}

/// Decode-side frame dispatch for one connection.
fn handle_frame(shared: &Arc<Shared>, shard_ix: usize, key: usize, conn: &mut Conn, frame: Frame) {
    let shard = &shared.shards[shard_ix];
    match frame {
        Frame::Submit {
            id,
            tenant,
            priority,
            deadline_us,
            query,
        } => {
            shared.submits.fetch_add(1, Ordering::Relaxed);
            // Admission gate 1: drain refuses all new work.
            if shared.draining.load(Ordering::SeqCst) {
                shared.shed_draining.fetch_add(1, Ordering::Relaxed);
                conn.push_frame(&Frame::Shed {
                    id,
                    reason: ShedReason::Draining,
                    retry_after_us: 0,
                });
                return;
            }
            // Gate 2: the per-connection in-flight cap. Checked before
            // quota so an over-pipelined connection is not also charged
            // tokens for work the server will refuse anyway.
            if conn.inflight >= shared.max_inflight_per_conn {
                shared.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                conn.push_frame(&Frame::Shed {
                    id,
                    reason: ShedReason::QueueFull,
                    retry_after_us: 0,
                });
                return;
            }
            // Gate 3: the tenant's token bucket.
            if let Some(q) = &shared.quotas {
                if let Err(retry_after_us) = q.try_admit(tenant, shared.now_ns()) {
                    shared.shed_quota.fetch_add(1, Ordering::Relaxed);
                    conn.push_frame(&Frame::Shed {
                        id,
                        reason: ShedReason::QuotaExceeded,
                        retry_after_us,
                    });
                    return;
                }
            }
            // Gate 4: the shard queue's capacity backpressure.
            let arrival = shared.now();
            let mut st = shard.state.lock().unwrap();
            let payload = st.insert(PendingQuery {
                conn: key,
                id,
                query,
                cancelled: false,
            });
            let q = Query {
                id: shared.next_query_id.fetch_add(1, Ordering::Relaxed),
                priority,
                arrival,
                deadline: (deadline_us > 0)
                    .then(|| arrival.saturating_add(SimTime::from_nanos(deadline_us * 1_000))),
                payload,
            };
            match st.queue.offer(q) {
                Ok(()) => {
                    drop(st);
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    conn.inflight += 1;
                    shard.cv.notify_one();
                }
                Err(_) => {
                    st.remove(payload);
                    drop(st);
                    shared.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                    conn.push_frame(&Frame::Shed {
                        id,
                        reason: ShedReason::QueueFull,
                        retry_after_us: 0,
                    });
                }
            }
        }
        Frame::Cancel { id } => {
            // Best-effort: if (conn, id) is still pending, flag it; the
            // exec thread answers with Shed(Cancelled) when it dequeues
            // it, keeping the one-answer-per-submit invariant.
            let mut st = shard.state.lock().unwrap();
            let queued = st
                .slab
                .iter_mut()
                .flatten()
                .find(|p| p.conn == key && p.id == id && !p.cancelled);
            if let Some(p) = queued {
                p.cancelled = true;
                drop(st);
                shard.cv.notify_one();
            }
        }
        Frame::Drain => {
            let queued: u64 = shared
                .shards
                .iter()
                .map(|s| s.state.lock().unwrap().in_flight())
                .sum();
            conn.push_frame(&Frame::DrainAck { queued });
            shared.draining.store(true, Ordering::SeqCst);
            shared.notify_all();
        }
        Frame::Stats => {
            conn.push_frame(&Frame::StatsReply(shared.snapshot()));
        }
        // Server-to-client frames arriving at the server are a protocol
        // violation; drop the connection.
        Frame::Result { .. }
        | Frame::Shed { .. }
        | Frame::DrainAck { .. }
        | Frame::StatsReply(_) => {
            conn.closed = true;
        }
    }
}

/// A batch entry: the admitted query paired with its reply-routing slot.
type BatchEntry = (Query, PendingQuery);

/// Shard exec loop: form scan-sharing batches, run them, route responses.
fn exec_thread(
    shared: Arc<Shared>,
    shard_ix: usize,
    runner: Arc<dyn BatchRunner>,
    max_batch: usize,
) {
    let shard = &shared.shards[shard_ix];
    loop {
        // Wait for work (or drain).
        let (expired, work): (Vec<PendingQuery>, Vec<BatchEntry>) = {
            let mut st = shard.state.lock().unwrap();
            let (batch, expired_q) = loop {
                let now = shared.now();
                let (batch, expired_q) = st.queue.take_batch_with_expired(max_batch, now);
                if !batch.is_empty() || !expired_q.is_empty() {
                    break (batch, expired_q);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    shard.exec_done.store(true, Ordering::SeqCst);
                    let _ = shard.poller.notify();
                    return;
                }
                let (guard, _) = shard
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap();
                st = guard;
            };
            let expired: Vec<PendingQuery> =
                expired_q.iter().map(|q| st.remove(q.payload)).collect();
            let mut work = Vec::with_capacity(batch.len());
            for q in batch {
                let p = st.remove(q.payload);
                if p.cancelled {
                    shared.cancelled.fetch_add(1, Ordering::Relaxed);
                    let frame = Frame::Shed {
                        id: p.id,
                        reason: ShedReason::Cancelled,
                        retry_after_us: 0,
                    };
                    let _ = shard.results_tx.send((p.conn, encode_frame(&frame)));
                } else {
                    work.push((q, p));
                }
            }
            (expired, work)
        };
        for p in expired {
            shared.expired.fetch_add(1, Ordering::Relaxed);
            let frame = Frame::Shed {
                id: p.id,
                reason: ShedReason::Expired,
                retry_after_us: 0,
            };
            let _ = shard.results_tx.send((p.conn, encode_frame(&frame)));
        }
        // Deadline enforcement a second time, at the execution boundary:
        // the dequeue check used the batch-formation clock, but lock
        // hand-off and cancel resolution consume real time — a query
        // whose propagated deadline lapsed in between must not burn a
        // scan pass on an answer its client has already written off.
        let now = shared.now();
        let (late, work): (Vec<BatchEntry>, Vec<BatchEntry>) = work
            .into_iter()
            .partition(|(q, _)| q.deadline.is_some_and(|d| d < now));
        for (_, p) in late {
            shared.expired.fetch_add(1, Ordering::Relaxed);
            let frame = Frame::Shed {
                id: p.id,
                reason: ShedReason::Expired,
                retry_after_us: 0,
            };
            let _ = shard.results_tx.send((p.conn, encode_frame(&frame)));
        }
        if work.is_empty() {
            let _ = shard.poller.notify();
            continue;
        }

        let queries: Vec<Vec<u8>> = work.iter().map(|(_, p)| p.query.clone()).collect();
        match runner.run_batch(&queries) {
            Ok(out) => {
                shard.batches.fetch_add(1, Ordering::Relaxed);
                shard
                    .bytes_read
                    .fetch_add(out.bytes_read, Ordering::Relaxed);
                shard
                    .kernel_passes
                    .fetch_add(out.kernel_passes, Ordering::Relaxed);
                shard
                    .passes_saved
                    .fetch_add(out.passes_saved, Ordering::Relaxed);
                for ((_, p), payload) in work.iter().zip(out.per_query) {
                    shard.served.fetch_add(1, Ordering::Relaxed);
                    let frame = Frame::Result {
                        id: p.id,
                        status: ResultStatus::Ok,
                        payload,
                    };
                    let _ = shard.results_tx.send((p.conn, encode_frame(&frame)));
                }
            }
            Err(e) => {
                // Zero result loss even on failure: every query in the
                // batch gets a typed error Result.
                let (status, msg) = match &e {
                    RunnerError::Corrupt => (ResultStatus::Corrupt, e.to_string()),
                    RunnerError::Other(m) => (ResultStatus::Failed, m.clone()),
                };
                for (_, p) in &work {
                    shard.served.fetch_add(1, Ordering::Relaxed);
                    let frame = Frame::Result {
                        id: p.id,
                        status,
                        payload: msg.clone().into_bytes(),
                    };
                    let _ = shard.results_tx.send((p.conn, encode_frame(&frame)));
                }
            }
        }
        let _ = shard.poller.notify();
    }
}
