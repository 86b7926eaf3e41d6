//! The thread-per-core sharded TCP daemon.
//!
//! ```text
//!            accept                    shard 0..S-1 (thread-per-core pair)
//!  clients ─────────▶ acceptor ──┬──▶ ┌──────────────────────────────────┐
//!   (TCP)             (rr hand-  │    │ IO thread: poll(2) loop          │
//!                      off)      │    │   decode frames → ledger.submit: │
//!                                │    │   drain? conn cap? quota? full?  │
//!                                │    │   typed Shed · else enqueue      │
//!                                └──▶ │ 2 exec lanes: ledger.take_batch ▶│
//!                                     │   BatchRunner (one scan pass)    │
//!                                     │   → Result frames → IO outbox    │
//!                                     └──────────────────────────────────┘
//! ```
//!
//! Each shard owns its connections, two batch-exec lanes (the second
//! started at the shard's first batch), and one `ShardLedger`
//! (`net::ledger`) behind one `Mutex` + `Condvar`: the ledger
//! makes every admission, cancel, expiry and answer decision and keeps
//! every counter the `Stats` frame sums; this module moves bytes between
//! sockets and ledgers. Across shards only the quota map is shared.
//! The contract the tests and bench pin: **every accepted `Submit` is
//! answered by exactly one `Result`, and every refused one by exactly one
//! typed `Shed`** — including through a graceful drain, which stops
//! admission, finishes all queued and in-flight batches, flushes every
//! outbox, and only then closes the sockets and exits.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parblast_simcore::SimTime;
use polling::{Event, Poller};

use crate::ledger::{Route, ShardLedger};
use crate::proto::{encode_frame, Frame, FrameReader, ResultStatus, StatsSnapshot};
use crate::quota::{QuotaConfig, TenantQuotas};
use crate::runner::{BatchRunner, RunnerError, RunnerOutput};

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

struct Shard {
    ledger: Mutex<ShardLedger>,
    cv: Condvar,
    poller: Poller,
}

/// State shared by every thread of one daemon.
struct Shared {
    epoch: Instant,
    // Stops the acceptor; admission reads each ledger's own drain state.
    draining: AtomicBool,
    quotas: Option<TenantQuotas>,
    shards: Vec<Shard>,
    accept_poller: Poller,
    read_deadline: Option<Duration>,
}

const LEDGER_LOCK: &str = "a shard thread panicked holding its ledger";

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn ledger(&self, shard: usize) -> MutexGuard<'_, ShardLedger> {
        self.shards[shard].ledger.lock().expect(LEDGER_LOCK)
    }

    /// Stop admission on every shard, then wake every blocked thread.
    /// Returns the accepted queries still unanswered.
    fn drain(&self) -> u64 {
        let queued = (0..self.shards.len()).map(|i| self.ledger(i).drain()).sum();
        self.draining.store(true, Ordering::SeqCst);
        let _ = self.accept_poller.notify();
        for s in &self.shards {
            let _ = s.poller.notify();
            s.cv.notify_all();
        }
        queued
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for i in 0..self.shards.len() {
            self.ledger(i).snapshot(&mut total);
        }
        total
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
        self.shared.drain();
    }

    /// Current counter snapshot, summed over the shard ledgers.
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
        for _ in 0..shards {
            shard_vec.push(Shard {
                ledger: Mutex::new(ShardLedger::new(&config)),
                cv: Condvar::new(),
                poller: Poller::new()?,
            });
        }

        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            quotas: config.quota.map(TenantQuotas::new),
            shards: shard_vec,
            accept_poller: Poller::new()?,
            read_deadline: config.read_deadline,
        });

        let mut threads = Vec::new();
        // Per-shard connection hand-off channels.
        let mut conn_txs = Vec::with_capacity(shards);
        for shard_ix in 0..shards {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            // Exec → IO: encoded answers routed by connection key. The exec
            // lanes own the senders, so the IO thread sees the channel
            // disconnect only after receiving every answer.
            let (results_tx, results_rx) = mpsc::channel();
            conn_txs.push(conn_tx);
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-io-{shard_ix}"))
                    .spawn(move || io_thread(sh, shard_ix, conn_rx, results_rx))?,
            );
            let sh = Arc::clone(&shared);
            let rn = Arc::clone(&runner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-exec-{shard_ix}"))
                    .spawn(move || exec_thread(sh, shard_ix, rn, results_tx))?,
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
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                let shard = next % conn_txs.len();
                next += 1;
                if conn_txs[shard].send(stream).is_ok() {
                    let _ = shared.shards[shard].poller.notify();
                }
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
                    partial_since: None,
                },
            );
        }

        let exec_gone = route_results(&results_rx, &mut conns);

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

        // Reap closed connections, and evict those whose partial frame
        // outlived the read deadline (the slowloris shape). The ledger
        // cancels a dead connection's queued Submits, answered once each
        // (to nobody) without a scan pass.
        let dead: Vec<(usize, bool)> = conns
            .iter()
            .filter_map(|(key, c)| {
                let timed_out = !c.closed
                    && shared.read_deadline.is_some_and(|deadline| {
                        c.partial_since.is_some_and(|t0| t0.elapsed() >= deadline)
                    });
                (c.closed || timed_out).then_some((*key, timed_out))
            })
            .collect();
        for (key, timed_out) in dead {
            if let Some(conn) = conns.remove(&key) {
                let _ = shard.poller.delete(&conn.stream);
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
            shared.ledger(shard_ix).evict(key, timed_out);
        }

        // Drain exit: both exec lanes saw their ledger drained and exited,
        // every answer they sent is routed, and every outbox is flushed.
        if exec_gone && conns.values().all(|c| c.outbox.is_empty()) {
            for (_, conn) in conns.iter() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
            return;
        }
    }
}

/// Exec results → owning connection's outbox, until the channel is empty.
/// A result whose connection is gone is dropped (the client hung up on
/// us). True once both exec lanes have exited and all they sent is routed.
fn route_results(
    results_rx: &Receiver<(usize, Vec<u8>)>,
    conns: &mut HashMap<usize, Conn>,
) -> bool {
    loop {
        match results_rx.try_recv() {
            Ok((key, bytes)) => {
                if let Some(conn) = conns.get_mut(&key) {
                    conn.outbox.extend_from_slice(&bytes);
                }
            }
            Err(e) => return e == TryRecvError::Disconnected,
        }
    }
}

/// Decode-side frame dispatch for one connection.
fn handle_frame(shared: &Shared, shard_ix: usize, key: usize, conn: &mut Conn, frame: Frame) {
    match frame {
        Frame::Submit {
            id,
            tenant,
            priority,
            deadline_us,
            query,
        } => {
            let now = shared.now();
            let quota = || {
                shared
                    .quotas
                    .as_ref()
                    .map_or(Ok(()), |q| q.try_admit(tenant, now.as_nanos()))
            };
            let refused =
                shared
                    .ledger(shard_ix)
                    .submit((key, id), priority, deadline_us, query, now, quota);
            match refused {
                None => shared.shards[shard_ix].cv.notify_one(),
                Some(shed) => conn.push_frame(&shed),
            }
        }
        Frame::Cancel { id } => shared.ledger(shard_ix).cancel((key, id)),
        Frame::Drain => {
            let queued = shared.drain();
            conn.push_frame(&Frame::DrainAck { queued });
        }
        Frame::Stats => conn.push_frame(&Frame::StatsReply(shared.snapshot())),
        // Server-to-client frames (Result, Shed, DrainAck, StatsReply)
        // arriving at the server are a protocol violation; drop the
        // connection.
        _ => conn.closed = true,
    }
}

/// A shard's exec thread: its first exec lane, which starts the second,
/// in a scope of its own, when it takes its first batch, so a daemon that
/// never runs a batch starts no lane thread and a drained one has joined
/// both.
fn exec_thread(
    shared: Arc<Shared>,
    shard_ix: usize,
    runner: Arc<dyn BatchRunner>,
    results_tx: Sender<(usize, Vec<u8>)>,
) {
    let (shared, runner) = (&*shared, &*runner);
    std::thread::scope(|scope| {
        let mut peer_tx = Some(results_tx.clone());
        let mut start_peer = || {
            if let Some(tx) = peer_tx.take() {
                // Without it the shard runs one batch at a time.
                let _ = std::thread::Builder::new()
                    .name(format!("net-exec-{shard_ix}b"))
                    .spawn_scoped(scope, move || {
                        exec_lane(shared, shard_ix, runner, tx, &mut || {})
                    });
            }
        };
        exec_lane(shared, shard_ix, runner, results_tx, &mut start_peer);
    });
}

/// Shard exec lane: take scan-sharing batches from the ledger, run them,
/// route the answers. A batch's Results are counted under the lock of the
/// next take, so a batch costs one lock, and no answer reaches the IO
/// thread before the ledger has counted it. The ledger lets a shard's two
/// lanes run two batches at once only while a full one is queued, and
/// the runner's one worker pool hands the older batch's fragments out
/// first.
fn exec_lane(
    shared: &Shared,
    shard_ix: usize,
    runner: &dyn BatchRunner,
    results_tx: Sender<(usize, Vec<u8>)>,
    start_peer: &mut dyn FnMut(),
) {
    let shard = &shared.shards[shard_ix];
    // Encoded answers the ledger has counted, not yet sent to IO.
    let mut outgoing: Vec<(usize, Vec<u8>)> = Vec::new();
    // The batch whose Results are in `outgoing`, and the runner's report
    // (`None` if the batch failed).
    let mut ran: Option<(Vec<Route>, Option<RunnerOutput>)> = None;
    loop {
        let mut ledger = shared.ledger(shard_ix);
        if let Some((routes, out)) = ran.take() {
            ledger.answer(&routes, out.as_ref());
        }
        let mut taken = ledger.take_batch(shared.now());
        // Idle: wait for work once every counted answer is sent.
        while outgoing.is_empty()
            && taken
                .as_ref()
                .is_some_and(|b| b.sheds.is_empty() && b.queries.is_empty())
        {
            ledger = shard
                .cv
                .wait_timeout(ledger, Duration::from_millis(50))
                .expect(LEDGER_LOCK)
                .0;
            taken = ledger.take_batch(shared.now());
        }
        // A full batch left queued is the other lane's to take.
        if taken.as_ref().is_some_and(|b| !b.queries.is_empty()) && ledger.may_take() {
            shard.cv.notify_one();
        }
        drop(ledger);
        for (conn, shed) in taken.iter().flat_map(|b| &b.sheds) {
            outgoing.push((*conn, encode_frame(shed)));
        }
        if !outgoing.is_empty() {
            for answer in outgoing.drain(..) {
                let _ = results_tx.send(answer);
            }
            let _ = shard.poller.notify();
        }
        // Drained: dropping the one sender tells the IO thread that every
        // answer has been sent.
        let Some(batch) = taken else {
            drop(results_tx);
            let _ = shard.poller.notify();
            return;
        };
        if batch.queries.is_empty() {
            continue;
        }
        start_peer();

        let mut result = runner.run_batch(&batch.queries);
        let answers = match &mut result {
            Ok(out) => std::mem::take(&mut out.per_query)
                .into_iter()
                .map(|payload| (ResultStatus::Ok, payload))
                .collect(),
            // Zero result loss even on failure: every query in the batch
            // gets a typed error Result.
            Err(e) => {
                let (status, msg) = match e {
                    RunnerError::Corrupt => (ResultStatus::Corrupt, e.to_string()),
                    RunnerError::Other(m) => (ResultStatus::Failed, m.clone()),
                };
                vec![(status, msg.into_bytes()); batch.routes.len()]
            }
        };
        for (&(conn, id), (status, payload)) in batch.routes.iter().zip(answers) {
            let frame = Frame::Result {
                id,
                status,
                payload,
            };
            outgoing.push((conn, encode_frame(&frame)));
        }
        ran = Some((batch.routes, result.ok()));
    }
}
