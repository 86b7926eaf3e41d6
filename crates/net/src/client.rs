//! The blocking client library.
//!
//! [`NetClient`] speaks the [`crate::proto`] frame protocol over one
//! *pooled* TCP connection and layers the resilience stack on top:
//!
//! * **Pooled retries** — a retry reuses the existing connection when it
//!   is healthy (a server-side `Failed` does not invalidate the socket);
//!   only transport failures drop it and force a re-dial.
//! * **Retry budget** ([`RetryBudget`]) — retries spend tokens deposited
//!   by successes, so a shedding or flapping server sees at most the
//!   original offered load plus a bounded fraction, never a retry storm.
//! * **Circuit breaker** ([`CircuitBreaker`]) — consecutive transport
//!   failures trip it; while open, calls fail fast with
//!   [`ClientError::CircuitOpen`] instead of dialing a corpse; after a
//!   cooldown a single half-open probe decides whether to close it.
//! * **Deadline propagation** — `config.deadline_us` is an end-to-end
//!   budget: every attempt stamps its `Submit` with the budget *remaining
//!   now*, so the server's dequeue- and pre-execution deadline checks act
//!   on truth rather than the original allowance.
//!
//! An attempt has exactly one `Submit` in flight. When it times out, the
//! client sends `Cancel` for it so the server frees the slot, and a late
//! answer to it is skipped by id while a later attempt waits. Every reply
//! wait, for a query or an admin frame, goes through one loop.
//!
//! The deterministic/transient split is unchanged from PR 1: `Shed` and
//! `Corrupt` are answers, not losses — they short-circuit; timeouts,
//! resets, EOFs, and server-side `Failed` are transient and eligible for
//! the retry budget.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parblast_pvfs::{backoff_delay, RetryPolicy};
use parblast_serve::Priority;

use crate::proto::{encode_frame, Frame, FrameError, ResultStatus, ShedReason, StatsSnapshot};
use crate::resilience::{BreakerConfig, BreakerState, BudgetConfig, CircuitBreaker, RetryBudget};

/// What a [`Dialer`] must hand back: a blocking byte stream with a
/// settable read timeout. `TcpStream` is the production impl;
/// `chaos::FaultyStream` the adversarial one.
pub trait ClientStream: Read + Write + Send {
    /// Set (or clear) the blocking-read timeout.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Hard-close both directions.
    fn shutdown(&self) -> io::Result<()>;
}

impl ClientStream for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn shutdown(&self) -> io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }
}

/// Connection factory, so chaos tests can interpose
/// [`crate::chaos::FaultyStream`] without the client knowing.
pub trait Dialer: Send + Sync {
    /// Open a new connection to `addr`.
    fn dial(&self, addr: &str) -> io::Result<Box<dyn ClientStream>>;
}

/// The production dialer: plain `TcpStream` with Nagle disabled.
#[derive(Debug, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, addr: &str) -> io::Result<Box<dyn ClientStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(stream))
    }
}

/// Per-connection client knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Tenant id stamped on every `Submit` (quota accounting key).
    pub tenant: u32,
    /// Scheduling class stamped on every `Submit`.
    pub priority: Priority,
    /// End-to-end deadline budget in microseconds (0 = no deadline).
    /// Each attempt propagates the budget *remaining* at send time.
    pub deadline_us: u64,
    /// Timeout/retry/backoff policy for [`NetClient::query`].
    pub retry: RetryPolicy,
    /// Retry-budget knobs (defaults keep a 10-token bucket refilled 0.1
    /// per success).
    pub budget: BudgetConfig,
    /// Circuit-breaker knobs (defaults trip after 8 consecutive
    /// transport failures, 500 ms cooldown).
    pub breaker: BreakerConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            tenant: 0,
            priority: Priority::Normal,
            deadline_us: 0,
            retry: RetryPolicy::default(),
            budget: BudgetConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server refused the query with a typed reason. **Not retried**
    /// by [`NetClient::query`]: the server said no on purpose, and the
    /// `retry_after_us` hint belongs to the caller's pacing decision.
    Shed {
        /// The server's refusal reason.
        reason: ShedReason,
        /// Microseconds the server suggests waiting before retrying
        /// (0 = no hint).
        retry_after_us: u64,
    },
    /// The server executed the query and hit unrecoverable data
    /// corruption. **Not retried** — deterministic, like
    /// `pvfs::msg::IoError::Corrupt`.
    Corrupt(String),
    /// The server failed to execute the batch (retried up to the policy
    /// budget, then surfaced).
    Failed(String),
    /// Transport-level failure after the retry budget was spent.
    Io(io::Error),
    /// The server sent bytes that do not decode as a valid frame.
    Protocol(FrameError),
    /// The end-to-end deadline budget ran out client-side. Not retried:
    /// there is no time left to spend.
    DeadlineExceeded,
    /// The circuit breaker is open: recent consecutive transport
    /// failures make the server presumptively dead, so the call failed
    /// fast without touching the network.
    CircuitOpen,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed {
                reason,
                retry_after_us,
            } => write!(
                f,
                "shed by server: {reason:?} (retry after {retry_after_us} us)"
            ),
            ClientError::Corrupt(msg) => write!(f, "corrupt result: {msg}"),
            ClientError::Failed(msg) => write!(f, "server-side failure: {msg}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::DeadlineExceeded => write!(f, "end-to-end deadline exceeded"),
            ClientError::CircuitOpen => write!(f, "circuit breaker open"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One response to a pipelined submit, matched to its query by `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The rendered result payload.
    Ok(Vec<u8>),
    /// Executed, but the store is corrupt.
    Corrupt(Vec<u8>),
    /// Executed, but the runner failed.
    Failed(Vec<u8>),
    /// Refused with a typed reason and a retry hint.
    Shed(ShedReason, u64),
}

/// Observability counters for one client's resilience machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Connections dialed (1 = the pool worked perfectly).
    pub dials: u64,
    /// Retries actually sent (budget-approved).
    pub retries: u64,
    /// Retries refused by an exhausted budget.
    pub budget_exhausted: u64,
    /// Calls refused by an open breaker.
    pub breaker_fast_fails: u64,
}

struct Conn {
    stream: Box<dyn ClientStream>,
    reader: crate::proto::FrameReader,
}

/// How a reply wait ended.
enum Wait<T> {
    /// The frame the caller was waiting for, as its picker returned it.
    Got(T),
    /// The server closed the connection.
    Eof,
    /// The wait's deadline passed.
    TimedOut,
}

/// The one mapping from a server answer to a [`Response`]: `Some` for a
/// `Result` or `Shed` frame, `None` for an admin reply.
fn response(frame: Frame) -> Option<(u64, Response)> {
    match frame {
        Frame::Result {
            id,
            status,
            payload,
        } => Some((
            id,
            match status {
                ResultStatus::Ok => Response::Ok(payload),
                ResultStatus::Corrupt => Response::Corrupt(payload),
                ResultStatus::Failed => Response::Failed(payload),
            },
        )),
        Frame::Shed {
            id,
            reason,
            retry_after_us,
        } => Some((id, Response::Shed(reason, retry_after_us))),
        _ => None,
    }
}

impl Response {
    /// The payload of an `Ok` answer; every other answer as the error
    /// [`NetClient::query`] surfaces for it.
    fn into_payload(self) -> Result<Vec<u8>, ClientError> {
        let text = |p: Vec<u8>| String::from_utf8_lossy(&p).into_owned();
        match self {
            Response::Ok(payload) => Ok(payload),
            Response::Corrupt(payload) => Err(ClientError::Corrupt(text(payload))),
            Response::Failed(payload) => Err(ClientError::Failed(text(payload))),
            Response::Shed(reason, retry_after_us) => Err(ClientError::Shed {
                reason,
                retry_after_us,
            }),
        }
    }
}

/// A blocking client over one pooled connection to the daemon.
pub struct NetClient {
    addr: String,
    dialer: Arc<dyn Dialer>,
    conn: Option<Conn>,
    config: ClientConfig,
    next_id: u64,
    budget: RetryBudget,
    breaker: CircuitBreaker,
    epoch: Instant,
    counters: ClientCounters,
}

impl NetClient {
    /// Connect with the default [`ClientConfig`].
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit knobs.
    pub fn connect_with(addr: &str, config: ClientConfig) -> io::Result<Self> {
        Self::connect_with_dialer(addr, config, Arc::new(TcpDialer))
    }

    /// Connect through a custom [`Dialer`] (chaos tests inject
    /// [`crate::chaos::ChaosDialer`] here).
    pub fn connect_with_dialer(
        addr: &str,
        config: ClientConfig,
        dialer: Arc<dyn Dialer>,
    ) -> io::Result<Self> {
        let mut client = NetClient {
            addr: addr.to_string(),
            dialer,
            conn: None,
            config,
            next_id: 1,
            budget: RetryBudget::new(config.budget),
            breaker: CircuitBreaker::new(config.breaker),
            epoch: Instant::now(),
            counters: ClientCounters::default(),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Resilience counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Retry tokens currently available.
    pub fn budget_tokens(&self) -> f64 {
        self.budget.tokens()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = self.dialer.dial(&self.addr)?;
            self.counters.dials += 1;
            self.conn = Some(Conn {
                stream,
                reader: crate::proto::FrameReader::new(),
            });
        }
        Ok(())
    }

    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown();
        }
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.ensure_conn()?;
        let bytes = encode_frame(frame);
        let conn = self.conn.as_mut().expect("ensured above");
        match conn
            .stream
            .write_all(&bytes)
            .and_then(|_| conn.stream.flush())
        {
            Ok(()) => Ok(()),
            Err(e) => {
                self.drop_conn();
                Err(e)
            }
        }
    }

    /// The one reply wait: read frames, handing each to `pick` and
    /// skipping those it declines, until it takes one, the connection
    /// ends, or `until` passes. `until = None` blocks indefinitely and
    /// never ends in [`Wait::TimedOut`].
    fn wait_for<T>(
        &mut self,
        until: Option<Instant>,
        mut pick: impl FnMut(Frame) -> Option<T>,
    ) -> Result<Wait<T>, ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let conn = self.conn.as_mut().ok_or_else(|| {
                ClientError::Io(io::Error::new(io::ErrorKind::NotConnected, "not connected"))
            })?;
            match conn.reader.next_frame() {
                Ok(Some(f)) => match pick(f) {
                    Some(t) => return Ok(Wait::Got(t)),
                    None => continue,
                },
                Ok(None) => {}
                Err(e) => return Err(ClientError::Protocol(e)),
            }
            match until {
                None => conn.stream.set_read_timeout(None)?,
                Some(u) => {
                    let rem = u.saturating_duration_since(Instant::now());
                    if rem.is_zero() {
                        return Ok(Wait::TimedOut);
                    }
                    conn.stream.set_read_timeout(Some(rem))?;
                }
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => return Ok(Wait::Eof),
                Ok(n) => conn.reader.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A timed read that woke early loops back to the deadline
                // check above; an untimed read must never time out.
                Err(e)
                    if until.is_some()
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Send an admin `request`, then wait for the reply `pick` takes.
    /// EOF before it is `UnexpectedEof`.
    fn request<T>(
        &mut self,
        request: Frame,
        pick: impl FnMut(Frame) -> Option<T>,
    ) -> Result<T, ClientError> {
        self.send(&request)?;
        match self.wait_for(None, pick)? {
            Wait::Got(t) => Ok(t),
            Wait::Eof | Wait::TimedOut => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed before the reply to {request:?}"),
            ))),
        }
    }

    /// Pipelined submit: send one `Submit` frame, return its query id
    /// without waiting. Pair with [`Self::recv_response`].
    pub fn submit(&mut self, query: &[u8]) -> io::Result<u64> {
        let deadline_us = self.config.deadline_us;
        self.submit_with_deadline(query, deadline_us)
    }

    fn submit_with_deadline(&mut self, query: &[u8], deadline_us: u64) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::Submit {
            id,
            tenant: self.config.tenant,
            priority: self.config.priority,
            deadline_us,
            query: query.to_vec(),
        })?;
        Ok(id)
    }

    /// Blocking read of the next `Result`/`Shed` for any outstanding
    /// submit. `Ok(None)` = server closed the connection (drained).
    /// Out-of-band admin replies are skipped.
    pub fn recv_response(&mut self) -> Result<Option<(u64, Response)>, ClientError> {
        match self.wait_for(None, response)? {
            Wait::Got(r) => Ok(Some(r)),
            Wait::Eof | Wait::TimedOut => Ok(None),
        }
    }

    /// Best-effort cancel of a previously submitted query id.
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.send(&Frame::Cancel { id })
    }

    /// Ask the daemon for its counter snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.request(Frame::Stats, |f| match f {
            Frame::StatsReply(s) => Some(s),
            _ => None,
        })
    }

    /// Start a graceful drain; returns the queued+in-flight count the
    /// server acknowledged. After this, the server finishes outstanding
    /// work, flushes results, and closes every connection.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.request(Frame::Drain, |f| match f {
            Frame::DrainAck { queued } => Some(queued),
            _ => None,
        })
    }

    /// One blocking query under the full resilience stack: submit, wait
    /// for the matching response, and on a *transient* failure retry
    /// after `backoff_delay(attempt)` — if the retry budget has a token,
    /// the breaker is closed, and the end-to-end deadline has room. The
    /// pooled connection is reused across attempts whenever it is still
    /// healthy; only transport failures force a re-dial. `Shed` and
    /// `Corrupt` short-circuit: they are deterministic answers, not
    /// losses.
    pub fn query(&mut self, query: &[u8]) -> Result<Vec<u8>, ClientError> {
        let policy = self.config.retry;
        let overall: Option<Instant> = if self.config.deadline_us > 0 {
            Some(Instant::now() + Duration::from_micros(self.config.deadline_us))
        } else {
            None
        };
        let attempts = 1 + if policy.enabled() {
            policy.max_retries
        } else {
            0
        };
        let mut last_err: Option<ClientError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                if !self.budget.try_spend() {
                    // Budget empty: surfacing the last error beats
                    // multiplying load on a struggling server.
                    self.counters.budget_exhausted += 1;
                    break;
                }
                self.counters.retries += 1;
                let delay = backoff_delay(attempt - 1, policy.base_backoff, policy.max_backoff);
                let mut delay = Duration::from_nanos(delay.as_nanos());
                if let Some(o) = overall {
                    delay = delay.min(o.saturating_duration_since(Instant::now()));
                }
                std::thread::sleep(delay);
            }
            if let Some(o) = overall {
                if Instant::now() >= o {
                    return Err(ClientError::DeadlineExceeded);
                }
            }
            match self.query_attempt(query, overall) {
                Ok(payload) => {
                    self.budget.deposit();
                    return Ok(payload);
                }
                // Deterministic outcomes: retrying cannot help. An open
                // breaker fails fast by design, and a spent deadline has
                // no time left to retry in.
                Err(
                    e @ (ClientError::Shed { .. }
                    | ClientError::Corrupt(_)
                    | ClientError::DeadlineExceeded
                    | ClientError::CircuitOpen),
                ) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            ClientError::Io(io::Error::other("retry budget spent with no attempt made"))
        }))
    }

    /// One attempt, bracketed by the breaker.
    fn query_attempt(
        &mut self,
        query: &[u8],
        overall: Option<Instant>,
    ) -> Result<Vec<u8>, ClientError> {
        if !self.breaker.allow(self.now_ns()) {
            self.counters.breaker_fast_fails += 1;
            return Err(ClientError::CircuitOpen);
        }
        let r = self.attempt_inner(query, overall);
        match &r {
            // Any typed answer — even a refusal — proves the server is
            // alive and routing frames.
            Ok(_)
            | Err(ClientError::Shed { .. })
            | Err(ClientError::Corrupt(_))
            | Err(ClientError::Failed(_)) => self.breaker.record_success(),
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                let now = self.now_ns();
                self.breaker.record_failure(now);
            }
            Err(ClientError::DeadlineExceeded) | Err(ClientError::CircuitOpen) => {}
        }
        r
    }

    /// Microseconds of end-to-end budget left (0 = "no deadline" when
    /// none was configured; error when a configured budget ran out).
    fn remaining_us(&self, overall: Option<Instant>) -> Result<u64, ClientError> {
        match overall {
            None => Ok(0),
            Some(o) => {
                let rem = o.saturating_duration_since(Instant::now());
                if rem.is_zero() {
                    Err(ClientError::DeadlineExceeded)
                } else {
                    Ok((rem.as_micros() as u64).max(1))
                }
            }
        }
    }

    /// One Submit and the wait for its answer. A `Result` or `Shed` for
    /// any other id is stale, the late answer to an earlier attempt that
    /// timed out, and is skipped.
    fn attempt_inner(
        &mut self,
        query: &[u8],
        overall: Option<Instant>,
    ) -> Result<Vec<u8>, ClientError> {
        let policy = self.config.retry;
        // The attempt ends at the per-attempt timeout or the end-to-end
        // deadline, whichever comes first.
        let mut until: Option<Instant> = if policy.enabled() {
            Some(Instant::now() + Duration::from_nanos(policy.timeout.as_nanos()))
        } else {
            None
        };
        if let Some(o) = overall {
            until = Some(until.map_or(o, |u| u.min(o)));
        }
        let deadline_us = self.remaining_us(overall)?;
        let id = self.submit_with_deadline(query, deadline_us)?;
        match self.wait_for(until, |f| response(f).filter(|(got, _)| *got == id)) {
            Ok(Wait::Got((_, answer))) => answer.into_payload(),
            Ok(Wait::TimedOut) => {
                // Attempt over: release the server's slot before giving
                // up on this attempt.
                let _ = self.cancel(id);
                if overall.is_some_and(|o| Instant::now() >= o) {
                    return Err(ClientError::DeadlineExceeded);
                }
                Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "attempt timed out",
                )))
            }
            Ok(Wait::Eof) => {
                self.drop_conn();
                Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before result",
                )))
            }
            Err(e) => {
                self.drop_conn();
                Err(e)
            }
        }
    }
}
