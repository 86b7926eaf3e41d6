//! One shard's admission and answer decisions as a pure state machine
//! with no clock, lock or socket (time comes in as `now`), so the
//! identities `submits == accepted + sheds` and `accepted == served +
//! expired + cancelled` are properties of [`ShardLedger`] alone, checked
//! by the enumerator in its tests after every event of every order.

use std::collections::HashMap;

use parblast_serve::{AdmissionQueue, Priority, Query};
use parblast_simcore::SimTime;

use crate::proto::{Frame, ShedReason, StatsSnapshot};
use crate::runner::RunnerOutput;
use crate::server::ServerConfig;

/// Where an answer goes: the connection's key and the client's query id.
pub(crate) type Route = (usize, u64);

/// Batches one shard runs at once. A second is taken only while a full
/// `max_batch` is queued, or while draining, so batches stay full and the
/// second one's fragments start as soon as a worker of the first has
/// nothing left of it to search.
pub(crate) const LANES: usize = 2;

/// One take: `Shed` frames (with their connections) for expired and
/// cancelled queries, and the moved-out bytes of the rest with the route
/// of each one's `Result`, to hand back to [`ShardLedger::answer`].
#[derive(Default)]
pub(crate) struct Batch {
    pub sheds: Vec<(usize, Frame)>,
    pub routes: Vec<Route>,
    pub queries: Vec<Vec<u8>>,
}

/// One queued query. Its cancel flag lives and dies with it, so a later
/// Submit that reuses the id starts clean.
#[derive(Debug, Clone)]
struct Pending {
    conn: usize,
    id: u64,
    query: Vec<u8>,
    cancelled: bool,
}

/// One shard's `AdmissionQueue`, queued queries with their cancel flags,
/// per-connection in-flight counts, running batches, drain state, and
/// `StatsReply` counters.
#[derive(Debug, Clone)]
pub(crate) struct ShardLedger {
    queue: AdmissionQueue,
    max_batch: usize,
    max_inflight_per_conn: usize,
    /// Queued queries, keyed by their `Query::payload`.
    pending: HashMap<usize, Pending>,
    /// Accepted-but-unanswered queries per connection; a connection with
    /// none has no entry.
    inflight: HashMap<usize, usize>,
    /// Batches taken and not yet answered.
    running: usize,
    draining: bool,
    /// This shard's counters; `per_shard_served` stays empty.
    stats: StatsSnapshot,
}

fn shed(id: u64, reason: ShedReason, retry_after_us: u64) -> Frame {
    Frame::Shed {
        id,
        reason,
        retry_after_us,
    }
}

impl ShardLedger {
    pub fn new(config: &ServerConfig) -> Self {
        ShardLedger {
            queue: AdmissionQueue::new(config.queue_capacity),
            max_batch: config.max_batch.max(1),
            max_inflight_per_conn: config.max_inflight_per_conn.max(1),
            pending: HashMap::new(),
            inflight: HashMap::new(),
            running: 0,
            draining: false,
            stats: StatsSnapshot::default(),
        }
    }

    /// Admit one decoded `Submit` (`None`), or return the `Shed` that
    /// refuses it.
    /// The gates, in order: draining → the connection's in-flight cap →
    /// `quota` (the tenant's token bucket, charged only once the cap has
    /// passed) → queue capacity. `deadline_us` is relative to `now`, 0
    /// for none.
    pub fn submit(
        &mut self,
        (conn, id): Route,
        priority: Priority,
        deadline_us: u64,
        query: Vec<u8>,
        now: SimTime,
        quota: impl FnOnce() -> Result<(), u64>,
    ) -> Option<Frame> {
        self.stats.submits += 1;
        if self.draining {
            self.stats.shed_draining += 1;
            return Some(shed(id, ShedReason::Draining, 0));
        }
        if self.inflight.get(&conn).copied().unwrap_or(0) >= self.max_inflight_per_conn {
            self.stats.shed_queue_full += 1;
            return Some(shed(id, ShedReason::QueueFull, 0));
        }
        if let Err(retry_after_us) = quota() {
            self.stats.shed_quota += 1;
            return Some(shed(id, ShedReason::QuotaExceeded, retry_after_us));
        }
        let payload = self.stats.submits as usize;
        let q = Query {
            id: self.stats.submits,
            priority,
            arrival: now,
            // The client's deadline is an unchecked u64; one too far away
            // to represent in nanoseconds is the far future.
            deadline: (deadline_us > 0).then(|| {
                now.saturating_add(SimTime::from_nanos(deadline_us.saturating_mul(1_000)))
            }),
            payload,
        };
        if self.queue.offer(q).is_err() {
            self.stats.shed_queue_full += 1;
            return Some(shed(id, ShedReason::QueueFull, 0));
        }
        self.pending.insert(
            payload,
            Pending {
                conn,
                id,
                query,
                cancelled: false,
            },
        );
        self.stats.accepted += 1;
        *self.inflight.entry(conn).or_insert(0) += 1;
        None
    }

    /// Flag `(conn, id)` cancelled if it is still queued; the take that
    /// dequeues it answers `Shed(Cancelled)`. A running or unknown id is
    /// left alone: its `Result` arrives normally.
    pub fn cancel(&mut self, (conn, id): Route) {
        let queued = self
            .pending
            .values_mut()
            .find(|p| p.conn == conn && p.id == id && !p.cancelled);
        if let Some(p) = queued {
            p.cancelled = true;
        }
    }

    /// `conn` is gone: flag its queued queries cancelled, so they are
    /// answered (to nobody) without a pass. `timed_out` counts it as a
    /// read-deadline eviction.
    pub fn evict(&mut self, conn: usize, timed_out: bool) {
        self.stats.evicted += u64::from(timed_out);
        for p in self.pending.values_mut().filter(|p| p.conn == conn) {
            p.cancelled = true;
        }
    }

    /// Whether [`Self::take_batch`] may start a batch now: with none
    /// running, or with one of [`LANES`] running while a full `max_batch`
    /// is queued or the shard drains.
    pub fn may_take(&self) -> bool {
        self.running == 0
            || (self.running < LANES && (self.draining || self.queue.len() >= self.max_batch))
    }

    /// The next batch of at most `max_batch` queries, strict priority then
    /// FIFO, or an empty one while [`Self::may_take`] says no; `None` once
    /// draining with nothing queued (no later `submit` is admitted). The
    /// one expiry test is the queue's, and it wins over a cancel flag.
    pub fn take_batch(&mut self, now: SimTime) -> Option<Batch> {
        if self.draining && self.queue.is_empty() {
            return None;
        }
        let mut out = Batch::default();
        if !self.may_take() {
            return Some(out);
        }
        let (batch, expired) = self.queue.take_batch_with_expired(self.max_batch, now);
        let expired = expired.into_iter().map(|q| (q, true));
        for (q, expired) in expired.chain(batch.into_iter().map(|q| (q, false))) {
            let p = self
                .pending
                .remove(&q.payload)
                .expect("a queued query is pending");
            if !expired && !p.cancelled {
                out.routes.push((p.conn, p.id));
                out.queries.push(p.query);
                continue;
            }
            self.unmark(p.conn);
            let reason = if expired {
                self.stats.expired += 1;
                ShedReason::Expired
            } else {
                self.stats.cancelled += 1;
                ShedReason::Cancelled
            };
            out.sheds.push((p.conn, shed(p.id, reason, 0)));
        }
        self.running += usize::from(!out.queries.is_empty());
        Some(out)
    }

    /// A batch from [`Self::take_batch`] has run and each of its `routes`
    /// gets a `Result`: `ran` is the runner's report, `None` when the batch
    /// failed (its queries are answered with error Results, counted as
    /// served but not as a pass).
    pub fn answer(&mut self, routes: &[Route], ran: Option<&RunnerOutput>) {
        self.running -= 1;
        for &(conn, _) in routes {
            self.unmark(conn);
        }
        self.stats.served += routes.len() as u64;
        if let Some(out) = ran {
            self.stats.batches += 1;
            self.stats.bytes_read += out.bytes_read;
            self.stats.kernel_passes += out.kernel_passes;
            self.stats.passes_saved += out.passes_saved;
        }
    }

    /// Stop admitting. Returns the accepted queries still unanswered,
    /// queued or running: each of them will still be answered.
    pub fn drain(&mut self) -> u64 {
        self.draining = true;
        let s = &self.stats;
        s.accepted - s.served - s.expired - s.cancelled
    }

    /// Add this shard's counters to `total`, its `served` as one more
    /// `per_shard_served` entry.
    pub fn snapshot(&self, total: &mut StatsSnapshot) {
        let s = &self.stats;
        total.accepted += s.accepted;
        total.served += s.served;
        total.shed_queue_full += s.shed_queue_full;
        total.shed_quota += s.shed_quota;
        total.shed_draining += s.shed_draining;
        total.expired += s.expired;
        total.cancelled += s.cancelled;
        total.batches += s.batches;
        total.bytes_read += s.bytes_read;
        total.kernel_passes += s.kernel_passes;
        total.passes_saved += s.passes_saved;
        total.submits += s.submits;
        total.evicted += s.evicted;
        total.per_shard_served.push(s.served);
    }

    fn unmark(&mut self, conn: usize) {
        let n = self
            .inflight
            .get_mut(&conn)
            .expect("an answered query was in flight on its connection");
        *n -= 1;
        if *n == 0 {
            self.inflight.remove(&conn);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The ledger enumerator: every event order of 2 connections × 3 ids
    //! × {submit, cancel, expire, take, answer, fail, evict, drain} up to
    //! [`DEPTH`] events, with up to [`LANES`] batches running at once and
    //! either one answered first, each prefix then driven to a full drain.
    //! A model beside the ledger says what each query may be answered
    //! with, so a wrong answer, a lost or doubled one, a leak or a broken
    //! identity fails with the event order that led to it.

    use super::*;

    /// Fail with the message and the event order so far, formatting
    /// only on failure.
    macro_rules! ensure {
        ($w:expr, $cond:expr, $($msg:tt)+) => {
            if !$cond {
                $w.fail(&format!($($msg)+));
            }
        };
    }

    const CONNS: usize = 2;
    const IDS: usize = 3;
    /// Events before each path is drained to completion; every order of
    /// this many events is walked.
    const DEPTH: usize = 6;
    const CAPACITY: usize = 2;
    const MAX_BATCH: usize = 2;
    const CAP_PER_CONN: usize = 2;
    /// Quota tokens for the whole walk; the next charge is refused.
    const TOKENS: u32 = 3;
    const RETRY_AFTER_US: u64 = 77;
    /// Id 0 has no deadline; the others expire 1 µs after arrival.
    const DEADLINE_US: u64 = 1;

    /// What the model knows about one `(conn, id)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Q {
        Idle,
        Queued { cancelled: bool, expired: bool },
        Running,
    }

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Submit(usize, usize),
        Cancel(usize, usize),
        Expire,
        Take,
        /// Answer the `k`th running batch.
        Answer(usize),
        /// Fail the `k`th running batch.
        Fail(usize),
        Evict(usize),
        Drain,
    }

    #[derive(Clone)]
    struct World {
        ledger: ShardLedger,
        now: SimTime,
        tokens: u32,
        q: [[Q; IDS]; CONNS],
        live: [bool; CONNS],
        /// Batches taken and not yet answered, oldest first.
        running: Vec<Vec<Route>>,
        drain_called: bool,
        drained: bool,
        /// The counters the ledger must show.
        want: StatsSnapshot,
        path: Vec<Event>,
    }

    fn cost() -> RunnerOutput {
        RunnerOutput {
            per_query: Vec::new(),
            scan_s: 0.0,
            search_s: 0.0,
            bytes_read: 10,
            kernel_passes: 1,
            passes_saved: 2,
        }
    }

    impl World {
        fn new() -> Self {
            World {
                ledger: ShardLedger::new(&ServerConfig {
                    queue_capacity: CAPACITY,
                    max_batch: MAX_BATCH,
                    max_inflight_per_conn: CAP_PER_CONN,
                    ..ServerConfig::default()
                }),
                now: SimTime::ZERO,
                tokens: TOKENS,
                q: [[Q::Idle; IDS]; CONNS],
                live: [true; CONNS],
                running: Vec::new(),
                drain_called: false,
                drained: false,
                want: StatsSnapshot::default(),
                path: Vec::new(),
            }
        }

        fn queued(&self) -> impl Iterator<Item = (usize, usize, Q)> + '_ {
            (0..CONNS).flat_map(move |c| {
                (0..IDS)
                    .map(move |i| (c, i, self.q[c][i]))
                    .filter(|(_, _, q)| matches!(q, Q::Queued { .. }))
            })
        }

        fn unanswered(&self, conn: usize) -> usize {
            self.q[conn].iter().filter(|q| **q != Q::Idle).count()
        }

        fn enabled(&self) -> Vec<Event> {
            let mut ev = Vec::new();
            for c in (0..CONNS).filter(|&c| self.live[c]) {
                for i in 0..IDS {
                    match self.q[c][i] {
                        // Ids are unique per connection among its
                        // unanswered queries (the protocol's contract).
                        Q::Idle => ev.push(Event::Submit(c, i)),
                        _ => ev.push(Event::Cancel(c, i)),
                    }
                }
                ev.push(Event::Evict(c));
            }
            if self
                .queued()
                .any(|(_, i, q)| i > 0 && matches!(q, Q::Queued { expired: false, .. }))
            {
                ev.push(Event::Expire);
            }
            if !self.drained
                && self.running.len() < LANES
                && (self.drain_called || self.queued().next().is_some())
            {
                ev.push(Event::Take);
            }
            for k in 0..self.running.len() {
                ev.push(Event::Answer(k));
                ev.push(Event::Fail(k));
            }
            if !self.drain_called {
                ev.push(Event::Drain);
            }
            ev
        }

        fn fail(&self, what: &str) -> ! {
            panic!("{what}\n  after {:?}", self.path);
        }

        fn apply(&mut self, e: Event) {
            self.path.push(e);
            match e {
                Event::Submit(c, i) => self.submit(c, i),
                Event::Cancel(c, i) => {
                    self.ledger.cancel((c, i as u64));
                    if let Q::Queued { expired, .. } = self.q[c][i] {
                        self.q[c][i] = Q::Queued {
                            cancelled: true,
                            expired,
                        };
                    }
                }
                Event::Expire => {
                    self.now = self
                        .now
                        .saturating_add(SimTime::from_micros(2 * DEADLINE_US));
                    for c in 0..CONNS {
                        for i in 1..IDS {
                            if let Q::Queued { cancelled, .. } = self.q[c][i] {
                                self.q[c][i] = Q::Queued {
                                    cancelled,
                                    expired: true,
                                };
                            }
                        }
                    }
                }
                Event::Take => self.take(),
                Event::Answer(k) | Event::Fail(k) => {
                    let out = cost();
                    let ran = matches!(e, Event::Answer(_)).then_some(&out);
                    let routes = self.running.remove(k);
                    self.ledger.answer(&routes, ran);
                    for &(c, id) in &routes {
                        self.q[c][id as usize] = Q::Idle;
                    }
                    self.want.served += routes.len() as u64;
                    if ran.is_some() {
                        self.want.batches += 1;
                        self.want.bytes_read += out.bytes_read;
                        self.want.kernel_passes += out.kernel_passes;
                        self.want.passes_saved += out.passes_saved;
                    }
                }
                Event::Evict(c) => {
                    let timed_out = c == 0;
                    self.ledger.evict(c, timed_out);
                    self.want.evicted += u64::from(timed_out);
                    self.live[c] = false;
                    for q in &mut self.q[c] {
                        if let Q::Queued { expired, .. } = *q {
                            *q = Q::Queued {
                                cancelled: true,
                                expired,
                            };
                        }
                    }
                }
                Event::Drain => {
                    let left = self.ledger.drain();
                    self.drain_called = true;
                    let want: usize = (0..CONNS).map(|c| self.unanswered(c)).sum();
                    ensure!(
                        self,
                        left == want as u64,
                        "drain() miscounts the unanswered queries"
                    );
                }
            }
            self.check_invariants();
        }

        fn submit(&mut self, c: usize, i: usize) {
            let expect = if self.drain_called {
                Err(ShedReason::Draining)
            } else if self.unanswered(c) >= CAP_PER_CONN {
                Err(ShedReason::QueueFull)
            } else if self.tokens == 0 {
                Err(ShedReason::QuotaExceeded)
            } else if self.queued().count() >= CAPACITY {
                Err(ShedReason::QueueFull)
            } else {
                Ok(())
            };
            let charged_before = self.tokens;
            let mut charged = false;
            let tokens = &mut self.tokens;
            let deadline_us = if i == 0 { 0 } else { DEADLINE_US };
            let got = self.ledger.submit(
                (c, i as u64),
                Priority::Normal,
                deadline_us,
                vec![i as u8],
                self.now,
                || {
                    charged = true;
                    if *tokens == 0 {
                        return Err(RETRY_AFTER_US);
                    }
                    *tokens -= 1;
                    Ok(())
                },
            );
            self.want.submits += 1;
            // The quota is consulted only once drain and the cap passed.
            let reached_quota = !self.drain_called && self.unanswered(c) < CAP_PER_CONN;
            ensure!(
                self,
                charged == reached_quota,
                "quota consulted out of gate order"
            );
            ensure!(
                self,
                self.tokens == charged_before - u32::from(reached_quota && charged_before > 0),
                "quota charged wrongly"
            );
            match &got {
                None => {
                    ensure!(
                        self,
                        !self.drained,
                        "a Submit was admitted after take_batch returned Drained"
                    );
                    self.want.accepted += 1;
                    self.q[c][i] = Q::Queued {
                        cancelled: false,
                        expired: false,
                    };
                }
                Some(frame) => {
                    let (id, reason, retry_after_us) = shed_of(frame);
                    ensure!(self, id == i as u64, "shed misaddressed");
                    let retry = if reason == ShedReason::QuotaExceeded {
                        RETRY_AFTER_US
                    } else {
                        0
                    };
                    ensure!(self, retry_after_us == retry, "wrong retry-after hint");
                    match reason {
                        ShedReason::Draining => self.want.shed_draining += 1,
                        ShedReason::QueueFull => self.want.shed_queue_full += 1,
                        ShedReason::QuotaExceeded => self.want.shed_quota += 1,
                        _ => self.fail("submit shed with a take-time reason"),
                    }
                }
            }
            ensure!(
                self,
                got.as_ref().map(|f| shed_of(f).1) == expect.err(),
                "submit ({c}, {i}): want {expect:?}, got {got:?}"
            );
        }

        fn take(&mut self) {
            let was_queued: Vec<(usize, usize, Q)> = self.queued().collect();
            // The take rule: a second batch only with a full one queued,
            // or while draining.
            let may_take = self.running.is_empty()
                || (self.running.len() < LANES
                    && (self.drain_called || was_queued.len() >= MAX_BATCH));
            match self.ledger.take_batch(self.now) {
                None => {
                    ensure!(self, self.drain_called, "Drained without a drain");
                    ensure!(self, was_queued.is_empty(), "Drained with queries queued");
                    self.drained = true;
                }
                Some(b) if !may_take => {
                    ensure!(
                        self,
                        b.sheds.is_empty() && b.queries.is_empty(),
                        "a second batch taken with {} of {MAX_BATCH} queued and no drain",
                        was_queued.len()
                    );
                }
                Some(b) => {
                    ensure!(
                        self,
                        !b.sheds.is_empty() || !b.queries.is_empty(),
                        "an empty batch with queries queued or a drain pending"
                    );
                    ensure!(
                        self,
                        b.routes.len() == b.queries.len(),
                        "routes and queries differ in length"
                    );
                    let mut taken = 0;
                    for (c, frame) in &b.sheds {
                        let (id, reason, retry_after_us) = shed_of(frame);
                        let (c, i) = (*c, id as usize);
                        ensure!(self, retry_after_us == 0, "a take-time shed with a hint");
                        let Q::Queued { cancelled, expired } = self.q[c][i] else {
                            self.fail(&format!("({c}, {i}) answered {reason:?} while not queued"));
                        };
                        match reason {
                            ShedReason::Expired => {
                                ensure!(
                                    self,
                                    expired,
                                    "({c}, {i}) answered Expired before its deadline"
                                );
                                self.want.expired += 1;
                            }
                            ShedReason::Cancelled => {
                                ensure!(
                                    self,
                                    !expired,
                                    "({c}, {i}) expired but answered Cancelled"
                                );
                                ensure!(
                                    self,
                                    cancelled,
                                    "({c}, {i}) answered Cancelled but never cancelled"
                                );
                                self.want.cancelled += 1;
                                taken += 1;
                            }
                            r => self.fail(&format!("take answered ({c}, {i}) with {r:?}")),
                        }
                        self.q[c][i] = Q::Idle;
                    }
                    for (&(c, id), query) in b.routes.iter().zip(&b.queries) {
                        let i = id as usize;
                        ensure!(
                            self,
                            self.q[c][i]
                                == (Q::Queued {
                                    cancelled: false,
                                    expired: false
                                }),
                            "({c}, {i}) run while {:?}",
                            self.q[c][i]
                        );
                        ensure!(self, query == &vec![i as u8], "query bytes mixed up");
                        self.q[c][i] = Q::Running;
                        taken += 1;
                    }
                    ensure!(self, taken <= MAX_BATCH, "batch over max_batch");
                    let waiting = self
                        .queued()
                        .filter(|(_, _, q)| !matches!(q, Q::Queued { expired: true, .. }))
                        .count();
                    ensure!(
                        self,
                        taken == MAX_BATCH || waiting == 0,
                        "batch left a live query behind while short"
                    );
                    if !b.routes.is_empty() {
                        self.running.push(b.routes);
                    }
                }
            }
        }

        fn check_invariants(&self) {
            let mut s = StatsSnapshot::default();
            self.ledger.snapshot(&mut s);
            ensure!(
                self,
                s.submits == s.accepted + s.shed_queue_full + s.shed_quota + s.shed_draining,
                "submits != accepted + sheds: {s:?}"
            );
            let unanswered: usize = (0..CONNS).map(|c| self.unanswered(c)).sum();
            ensure!(
                self,
                s.accepted == s.served + s.expired + s.cancelled + unanswered as u64,
                "accepted != served + expired + cancelled + unanswered: {s:?}"
            );
            let mut want = self.want.clone();
            want.per_shard_served = vec![want.served];
            ensure!(self, s == want, "counters: want {want:?}, got {s:?}");
            for c in 0..CONNS {
                let n = self.unanswered(c);
                let got = self.ledger.inflight.get(&c).copied();
                ensure!(
                    self,
                    got == (n > 0).then_some(n),
                    "conn {c} in flight {got:?}, want {n}"
                );
            }
            let pending = self.ledger.pending.len();
            ensure!(
                self,
                pending == self.queued().count() && pending == self.ledger.queue.len(),
                "a pending query leaked or was lost"
            );
            ensure!(
                self,
                self.ledger.running == self.running.len(),
                "the ledger runs {} batches, the model {}",
                self.ledger.running,
                self.running.len()
            );
        }

        /// Drain, then answer and take until `Drained`; nothing may be
        /// left, and no later Submit may be admitted.
        fn finish(mut self) {
            if !self.drain_called {
                self.apply(Event::Drain);
            }
            for _ in 0..2 * (CONNS * IDS + LANES) {
                if self.drained && self.running.is_empty() {
                    break;
                }
                self.apply(if self.running.is_empty() {
                    Event::Take
                } else {
                    Event::Answer(0)
                });
            }
            ensure!(
                self,
                self.drained && self.running.is_empty(),
                "the shard never drained"
            );
            ensure!(
                self,
                self.q.iter().flatten().all(|q| *q == Q::Idle),
                "an accepted query was never answered"
            );
            ensure!(
                self,
                self.ledger.inflight.is_empty() && self.ledger.queue.is_empty(),
                "in-flight entries or queued queries left at drain"
            );
            ensure!(
                self,
                self.ledger.pending.is_empty(),
                "a pending query left at drain"
            );
            if let Some(c) = (0..CONNS).find(|&c| self.live[c]) {
                if let Some(i) = (0..IDS).find(|&i| self.q[c][i] == Q::Idle) {
                    self.apply(Event::Submit(c, i));
                }
            }
        }
    }

    /// The `(id, reason, retry_after_us)` of a `Shed` frame.
    fn shed_of(frame: &Frame) -> (u64, ShedReason, u64) {
        match *frame {
            Frame::Shed {
                id,
                reason,
                retry_after_us,
            } => (id, reason, retry_after_us),
            ref other => panic!("the ledger answered {other:?}, not a Shed"),
        }
    }

    fn walk(w: World, depth: usize, paths: &mut u64) {
        let events = w.enabled();
        if depth == 0 || events.is_empty() {
            *paths += 1;
            w.finish();
            return;
        }
        for e in events {
            let mut next = w.clone();
            next.apply(e);
            walk(next, depth - 1, paths);
        }
    }

    #[test]
    fn every_event_order_keeps_the_ledger_exact() {
        let mut paths = 0;
        walk(World::new(), DEPTH, &mut paths);
        assert!(paths > 100_000, "only {paths} paths walked");
    }
}
