//! Seeded chaos conformance for the serving tier.
//!
//! Two layers. The *scripted* half drives [`NetClient`] against an
//! in-process fake server (a [`Dialer`] that decodes frames and answers
//! from a script), pinning each resilience mechanism in isolation:
//! deadline propagation shrinks across attempts, the retry budget stops
//! a retry storm, the circuit breaker opens/half-opens/recloses, `Shed`
//! and `Corrupt` are never retried, a timed-out attempt is cancelled on
//! the wire and its late answer skipped, and retries reuse the pooled
//! connection instead of re-dialing.
//!
//! The *conformance* half runs a real daemon over loopback TCP under
//! [`ChaosDialer`] fault schedules — resets, short ops, stalls — across
//! three seeds each, asserting the accounting identities hold under
//! every injected fault and that every payload that does come back is
//! byte-identical to the fault-free answer:
//!
//! ```text
//! submits  == accepted + shed_queue_full + shed_quota + shed_draining
//! accepted == served + expired + cancelled
//! ```

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parblast::net::{
    encode_frame, BreakerConfig, BreakerState, BudgetConfig, ChaosDialer, ClientConfig,
    ClientError, ClientStream, Dialer, EchoRunner, Frame, FrameReader, NetClient, NetServer,
    ResultStatus, ServerConfig, ShedReason,
};
use parblast::simcore::SimTime;
use parblast_hwsim::SocketChaosProfile;
use parblast_pvfs::RetryPolicy;

// ---------------------------------------------------------------------
// Scripted fake server: a Dialer whose streams answer from a script.
// ---------------------------------------------------------------------

/// How the fake server answers each decoded `Submit`.
enum Mode {
    /// Echo every query (`Result::Ok`).
    Echo,
    /// `Result::Failed` for the first `n` Submits, then echo.
    FailThenOk(u32),
    /// `Result::Failed` forever.
    AlwaysFailed,
    /// Typed refusal.
    Shed(ShedReason),
    /// `Result::Corrupt` forever.
    Corrupt,
    /// Never answer the first Submit in time: on the second, first send
    /// the late `Result` for the first id (payload `b"stale"`), then echo.
    SilentThenEcho,
    /// Every read fails with `ConnectionReset` (transport death).
    ResetOnRead,
}

struct FakeState {
    mode: Mode,
    reader: FrameReader,
    out: Vec<u8>,
    /// Every frame the "server" decoded, in order.
    received: Vec<Frame>,
    submits_seen: u32,
    read_timeout: Option<Duration>,
}

impl FakeState {
    fn answer(&mut self, frame: Frame) {
        if let Frame::Submit { id, ref query, .. } = frame {
            self.submits_seen += 1;
            let reply = match &mut self.mode {
                Mode::Echo => Some(Frame::Result {
                    id,
                    status: ResultStatus::Ok,
                    payload: EchoRunner::expected(query),
                }),
                Mode::FailThenOk(n) => {
                    if *n > 0 {
                        *n -= 1;
                        Some(Frame::Result {
                            id,
                            status: ResultStatus::Failed,
                            payload: b"scripted failure".to_vec(),
                        })
                    } else {
                        Some(Frame::Result {
                            id,
                            status: ResultStatus::Ok,
                            payload: EchoRunner::expected(query),
                        })
                    }
                }
                Mode::AlwaysFailed => Some(Frame::Result {
                    id,
                    status: ResultStatus::Failed,
                    payload: b"scripted failure".to_vec(),
                }),
                Mode::Shed(reason) => Some(Frame::Shed {
                    id,
                    reason: *reason,
                    retry_after_us: 5,
                }),
                Mode::Corrupt => Some(Frame::Result {
                    id,
                    status: ResultStatus::Corrupt,
                    payload: b"bad volume".to_vec(),
                }),
                Mode::SilentThenEcho if self.submits_seen >= 2 => {
                    let first = self.received.iter().find_map(|f| match f {
                        Frame::Submit { id, .. } => Some(*id),
                        _ => None,
                    });
                    let stale = Frame::Result {
                        id: first.expect("the first Submit was received"),
                        status: ResultStatus::Ok,
                        payload: b"stale".to_vec(),
                    };
                    self.out.extend_from_slice(&encode_frame(&stale));
                    Some(Frame::Result {
                        id,
                        status: ResultStatus::Ok,
                        payload: EchoRunner::expected(query),
                    })
                }
                Mode::SilentThenEcho => None,
                Mode::ResetOnRead => None,
            };
            if let Some(r) = reply {
                self.out.extend_from_slice(&encode_frame(&r));
            }
        }
        self.received.push(frame);
    }
}

/// A [`ClientStream`] view onto the shared fake-server state. All dials
/// from one [`FakeDialer`] share the same state, so a re-dial "reaches
/// the same server" — received frames and the script survive it.
struct FakeStream(Arc<Mutex<FakeState>>);

impl Read for FakeStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Emulate a blocking socket with a read timeout: data if any,
        // else sleep out the timeout and report it.
        let sleep = {
            let mut st = self.0.lock().unwrap();
            if matches!(st.mode, Mode::ResetOnRead) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "scripted reset",
                ));
            }
            if !st.out.is_empty() {
                let n = st.out.len().min(buf.len());
                buf[..n].copy_from_slice(&st.out[..n]);
                st.out.drain(..n);
                return Ok(n);
            }
            st.read_timeout.unwrap_or(Duration::from_millis(5))
        };
        std::thread::sleep(sleep);
        let mut st = self.0.lock().unwrap();
        if !st.out.is_empty() {
            let n = st.out.len().min(buf.len());
            buf[..n].copy_from_slice(&st.out[..n]);
            st.out.drain(..n);
            return Ok(n);
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "scripted timeout"))
    }
}

impl Write for FakeStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.0.lock().unwrap();
        st.reader.feed(buf);
        while let Ok(Some(frame)) = st.reader.next_frame() {
            st.answer(frame);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ClientStream for FakeStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.0.lock().unwrap().read_timeout = dur;
        Ok(())
    }

    fn shutdown(&self) -> io::Result<()> {
        Ok(())
    }
}

struct FakeDialer {
    state: Arc<Mutex<FakeState>>,
    dials: AtomicU64,
}

impl FakeDialer {
    fn new(mode: Mode) -> Arc<Self> {
        Arc::new(FakeDialer {
            state: Arc::new(Mutex::new(FakeState {
                mode,
                reader: FrameReader::new(),
                out: Vec::new(),
                received: Vec::new(),
                submits_seen: 0,
                read_timeout: None,
            })),
            dials: AtomicU64::new(0),
        })
    }

    fn submit_deadlines(&self) -> Vec<u64> {
        self.state
            .lock()
            .unwrap()
            .received
            .iter()
            .filter_map(|f| match f {
                Frame::Submit { deadline_us, .. } => Some(*deadline_us),
                _ => None,
            })
            .collect()
    }

    fn cancelled_ids(&self) -> Vec<u64> {
        self.state
            .lock()
            .unwrap()
            .received
            .iter()
            .filter_map(|f| match f {
                Frame::Cancel { id } => Some(*id),
                _ => None,
            })
            .collect()
    }

    fn set_mode(&self, mode: Mode) {
        self.state.lock().unwrap().mode = mode;
    }
}

impl Dialer for FakeDialer {
    fn dial(&self, _addr: &str) -> io::Result<Box<dyn ClientStream>> {
        self.dials.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(FakeStream(self.state.clone())))
    }
}

/// A fast retry policy so scripted tests finish in milliseconds.
fn fast_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        timeout: SimTime::from_millis(100),
        base_backoff: SimTime::from_millis(1),
        max_backoff: SimTime::from_millis(2),
        max_retries,
    }
}

// ---------------------------------------------------------------------
// Scripted resilience tests.
// ---------------------------------------------------------------------

/// Each attempt stamps its Submit with the budget *remaining*, so the
/// server-observed deadline shrinks monotonically across retries.
#[test]
fn deadline_propagation_shrinks_across_attempts() {
    let dialer = FakeDialer::new(Mode::FailThenOk(2));
    let config = ClientConfig {
        deadline_us: 300_000,
        retry: fast_retry(3),
        ..Default::default()
    };
    let mut client = NetClient::connect_with_dialer("fake", config, dialer.clone()).unwrap();
    let got = client.query(b"propagate").unwrap();
    assert_eq!(got, EchoRunner::expected(b"propagate"));

    let deadlines = dialer.submit_deadlines();
    assert_eq!(deadlines.len(), 3, "two failures then the success");
    assert!(
        deadlines.windows(2).all(|w| w[1] < w[0]),
        "propagated budget must shrink: {deadlines:?}"
    );
    assert!(deadlines.iter().all(|&d| d > 0 && d <= 300_000));
    // Satellite: all three attempts rode the *same* pooled connection —
    // a server-side Failed does not invalidate the transport.
    assert_eq!(dialer.dials.load(Ordering::SeqCst), 1);
    assert_eq!(client.counters().retries, 2);
}

/// An exhausted retry budget surfaces the last error instead of
/// multiplying load on a struggling server.
#[test]
fn retry_budget_exhaustion_stops_the_storm() {
    let dialer = FakeDialer::new(Mode::AlwaysFailed);
    let config = ClientConfig {
        retry: fast_retry(5),
        budget: BudgetConfig {
            capacity: 1.0,
            per_success: 0.0,
            initial: 1.0,
        },
        ..Default::default()
    };
    let mut client = NetClient::connect_with_dialer("fake", config, dialer.clone()).unwrap();
    match client.query(b"doomed") {
        Err(ClientError::Failed(_)) => {}
        other => panic!("expected Failed, got {other:?}"),
    }
    // Initial attempt + exactly one budget-funded retry; the rest of the
    // retry allowance was refused by the empty bucket.
    assert_eq!(dialer.state.lock().unwrap().submits_seen, 2);
    let c = client.counters();
    assert_eq!(c.retries, 1);
    assert_eq!(c.budget_exhausted, 1);
    assert_eq!(client.budget_tokens(), 0.0);
}

/// Consecutive transport failures trip the breaker; while open, calls
/// fail fast without touching the network; after the cooldown a single
/// half-open probe recloses it.
#[test]
fn circuit_breaker_opens_fails_fast_and_recloses() {
    let dialer = FakeDialer::new(Mode::ResetOnRead);
    let config = ClientConfig {
        retry: fast_retry(0),
        breaker: BreakerConfig {
            consecutive_failures: 2,
            cooldown_ns: 50_000_000, // 50 ms
        },
        ..Default::default()
    };
    let mut client = NetClient::connect_with_dialer("fake", config, dialer.clone()).unwrap();

    for _ in 0..2 {
        match client.query(b"dead") {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
    assert_eq!(client.breaker_state(), BreakerState::Open);
    let submits_before = dialer.state.lock().unwrap().submits_seen;
    match client.query(b"fast-fail") {
        Err(ClientError::CircuitOpen) => {}
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    assert_eq!(
        dialer.state.lock().unwrap().submits_seen,
        submits_before,
        "an open breaker must not touch the network"
    );
    assert_eq!(client.counters().breaker_fast_fails, 1);

    // Server recovers; after the cooldown one half-open probe recloses.
    dialer.set_mode(Mode::Echo);
    std::thread::sleep(Duration::from_millis(60));
    let got = client.query(b"probe").unwrap();
    assert_eq!(got, EchoRunner::expected(b"probe"));
    assert_eq!(client.breaker_state(), BreakerState::Closed);
}

/// Deterministic refusals are answers, not losses: neither `Shed` nor
/// `Corrupt` may burn a retry.
#[test]
fn shed_and_corrupt_are_never_retried() {
    for (mode, check) in [
        (
            Mode::Shed(ShedReason::QueueFull),
            Box::new(|e: ClientError| {
                matches!(
                    e,
                    ClientError::Shed {
                        reason: ShedReason::QueueFull,
                        ..
                    }
                )
            }) as Box<dyn Fn(ClientError) -> bool>,
        ),
        (
            Mode::Corrupt,
            Box::new(|e: ClientError| matches!(e, ClientError::Corrupt(_))),
        ),
    ] {
        let dialer = FakeDialer::new(mode);
        let config = ClientConfig {
            retry: fast_retry(4),
            ..Default::default()
        };
        let mut client = NetClient::connect_with_dialer("fake", config, dialer.clone()).unwrap();
        let err = client.query(b"refused").unwrap_err();
        assert!(check(err));
        assert_eq!(dialer.state.lock().unwrap().submits_seen, 1);
        assert_eq!(client.counters().retries, 0);
    }
}

/// An attempt that times out cancels its Submit on the wire; the late
/// answer to it, arriving while the retry waits, is skipped by id.
#[test]
fn timed_out_attempt_is_cancelled_and_its_late_answer_skipped() {
    let dialer = FakeDialer::new(Mode::SilentThenEcho);
    let config = ClientConfig {
        retry: fast_retry(1),
        ..Default::default()
    };
    let mut client = NetClient::connect_with_dialer("fake", config, dialer.clone()).unwrap();
    let got = client.query(b"retried").unwrap();
    assert_eq!(got, EchoRunner::expected(b"retried"));

    assert_eq!(client.counters().retries, 1);
    assert_eq!(dialer.submit_deadlines().len(), 2, "first attempt + retry");
    // The abandoned first Submit was cancelled so the server frees its slot.
    assert_eq!(dialer.cancelled_ids(), [1]);
}

// ---------------------------------------------------------------------
// Conformance: a real daemon under seeded socket chaos.
// ---------------------------------------------------------------------

fn echo_server(config: ServerConfig, delay: Duration) -> parblast::net::ServerHandle {
    NetServer::start(
        "127.0.0.1:0",
        config,
        Arc::new(EchoRunner::with_delay(delay)),
    )
    .expect("bind loopback")
}

/// One chaos run: `queries` blocking queries through a [`ChaosDialer`],
/// then a clean drain. Returns `(ok, failed)` as counted by the client.
/// Panics if any returned payload differs from the fault-free answer or
/// if the server's final accounting does not balance.
fn chaos_conformance(profile: SocketChaosProfile, seed: u64, lossless: bool) {
    let handle = echo_server(
        ServerConfig {
            shards: 2,
            read_deadline: Some(Duration::from_millis(500)),
            ..Default::default()
        },
        Duration::ZERO,
    );
    let addr = handle.addr().to_string();

    // The schedule is a pure function of (seed, connection index): the
    // same seed must describe byte-identical chaos on every run.
    let dialer = Arc::new(ChaosDialer::new(seed, profile));
    let replay = ChaosDialer::new(seed, profile);
    for i in 0..8 {
        assert_eq!(
            dialer.schedule_for(i).digest(),
            replay.schedule_for(i).digest(),
            "seed {seed} connection {i} schedule diverged"
        );
    }

    let config = ClientConfig {
        retry: RetryPolicy {
            timeout: SimTime::from_millis(300),
            base_backoff: SimTime::from_millis(1),
            max_backoff: SimTime::from_millis(5),
            max_retries: 4,
        },
        ..Default::default()
    };
    let mut ok = 0u64;
    let mut failed = 0u64;
    match NetClient::connect_with_dialer(&addr, config, dialer) {
        Ok(mut client) => {
            for i in 0..30u32 {
                let q = format!("chaos-{seed}-{i}").into_bytes();
                match client.query(&q) {
                    Ok(payload) => {
                        // Whatever the chaos did to the transport, a
                        // payload that arrives is byte-identical to the
                        // fault-free answer.
                        assert_eq!(payload, EchoRunner::expected(&q), "query {i} seed {seed}");
                        ok += 1;
                    }
                    Err(_) => failed += 1,
                }
            }
        }
        Err(_) => failed += 30,
    }

    // Zero-loss drain through a clean connection.
    let mut admin = NetClient::connect(&addr).unwrap();
    admin.drain().unwrap();
    let stats = handle.join();
    assert_eq!(
        stats.submits,
        stats.accepted + stats.shed_queue_full + stats.shed_quota + stats.shed_draining,
        "seed {seed}: submit ledger must balance: {stats:?}"
    );
    assert_eq!(
        stats.accepted,
        stats.served + stats.expired + stats.cancelled,
        "seed {seed}: every accepted query answered exactly once: {stats:?}"
    );
    assert!(ok > 0, "seed {seed}: no query survived the chaos");
    if lossless {
        assert_eq!(
            failed, 0,
            "seed {seed}: non-destructive faults must lose nothing"
        );
    }
}

#[test]
fn chaos_conformance_resets_three_seeds() {
    for seed in [42u64, 1003, 77] {
        chaos_conformance(SocketChaosProfile::resets(0.3, 200), seed, false);
    }
}

#[test]
fn chaos_conformance_short_ops_three_seeds() {
    for seed in [42u64, 1003, 77] {
        chaos_conformance(SocketChaosProfile::short_ops(0.9, 4, 256), seed, true);
    }
}

#[test]
fn chaos_conformance_stalls_three_seeds() {
    for seed in [42u64, 1003, 77] {
        chaos_conformance(SocketChaosProfile::stalls(0.8, 2, 256), seed, true);
    }
}
