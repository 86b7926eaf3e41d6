//! Protocol-conformance and daemon-behavior suite for the `net` tier.
//!
//! The first half pins the frame wire format byte-for-byte — golden
//! vectors for every frame kind, rejection of every truncated prefix and
//! of trailing garbage, and the `decode(encode(x)) == x` round trip over
//! arbitrary frames — exactly the discipline `tests/listio.rs` applies to
//! the PVFS `ReadList` format. The second half drives a real daemon over
//! loopback TCP with the deterministic [`EchoRunner`]: concurrent
//! clients, every typed shed reason, cancellation, stats, and the
//! zero-result-loss graceful-drain contract.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use parblast::net::{
    decode_frame, encode_frame, BatchRunner, ClientConfig, EchoRunner, Frame, FrameError,
    FrameReader, NetClient, NetServer, QuotaConfig, Response, ResultStatus, RunnerError,
    RunnerOutput, ServerConfig, ShedReason, StatsSnapshot, FRAME_HEADER_LEN, MAX_FRAME_LEN,
    NET_MAGIC, NET_VERSION,
};
use parblast::serve::Priority;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Golden wire vectors: if the format drifts — field order, widths,
// endianness — these name the first diverging byte.
// ---------------------------------------------------------------------

fn header(kind: u8, payload_len: u32) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&[0x50, 0x42, 0x4E, 0x31]); // magic "PBN1" (LE of 0x314E4250)
    out.push(1); // version
    out.push(kind);
    out.extend_from_slice(&payload_len.to_le_bytes());
    out
}

#[test]
fn golden_submit_frame() {
    let frame = encode_frame(&Frame::Submit {
        id: 0x0102_0304_0506_0708,
        tenant: 0x0A0B_0C0D,
        priority: Priority::Interactive,
        deadline_us: 1_000_000,
        query: vec![0xDE, 0xAD],
    });
    let mut want = header(1, 27);
    want.extend_from_slice(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]); // id
    want.extend_from_slice(&[0x0D, 0x0C, 0x0B, 0x0A]); // tenant
    want.push(0); // priority = Interactive
    want.extend_from_slice(&[0x40, 0x42, 0x0F, 0, 0, 0, 0, 0]); // deadline 1e6 us
    want.extend_from_slice(&[2, 0, 0, 0]); // query len
    want.extend_from_slice(&[0xDE, 0xAD]);
    assert_eq!(frame, want);
}

#[test]
fn golden_cancel_drain_stats_frames() {
    let mut want = header(2, 8);
    want.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(encode_frame(&Frame::Cancel { id: 9 }), want);
    assert_eq!(encode_frame(&Frame::Drain), header(3, 0));
    assert_eq!(encode_frame(&Frame::Stats), header(4, 0));
}

#[test]
fn golden_result_frame() {
    let frame = encode_frame(&Frame::Result {
        id: 7,
        status: ResultStatus::Corrupt,
        payload: b"hit".to_vec(),
    });
    let mut want = header(5, 16);
    want.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0]); // id
    want.push(1); // status = Corrupt
    want.extend_from_slice(&[3, 0, 0, 0]); // payload len
    want.extend_from_slice(b"hit");
    assert_eq!(frame, want);
}

#[test]
fn golden_shed_frame() {
    let frame = encode_frame(&Frame::Shed {
        id: 8,
        reason: ShedReason::QuotaExceeded,
        retry_after_us: 20_000,
    });
    let mut want = header(6, 17);
    want.extend_from_slice(&[8, 0, 0, 0, 0, 0, 0, 0]); // id
    want.push(1); // reason = QuotaExceeded
    want.extend_from_slice(&[0x20, 0x4E, 0, 0, 0, 0, 0, 0]); // 20000 us
    assert_eq!(frame, want);
}

#[test]
fn golden_drain_ack_and_stats_reply_frames() {
    let mut want = header(7, 8);
    want.extend_from_slice(&[12, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(encode_frame(&Frame::DrainAck { queued: 12 }), want);

    let snap = StatsSnapshot {
        accepted: 1,
        served: 2,
        shed_queue_full: 3,
        shed_quota: 4,
        shed_draining: 5,
        expired: 6,
        cancelled: 7,
        batches: 8,
        bytes_read: 9,
        kernel_passes: 10,
        passes_saved: 11,
        submits: 12,
        evicted: 13,
        per_shard_served: vec![10, 11],
    };
    let frame = encode_frame(&Frame::StatsReply(snap));
    let mut want = header(8, 13 * 8 + 4 + 2 * 8);
    for v in 1u64..=13 {
        want.extend_from_slice(&v.to_le_bytes());
    }
    want.extend_from_slice(&[2, 0, 0, 0]); // shard count
    want.extend_from_slice(&10u64.to_le_bytes());
    want.extend_from_slice(&11u64.to_le_bytes());
    assert_eq!(frame, want);
}

// ---------------------------------------------------------------------
// Rejection rules.
// ---------------------------------------------------------------------

#[test]
fn decode_rejects_bad_magic_version_kind_and_cap() {
    let good = encode_frame(&Frame::Cancel { id: 1 });

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(decode_frame(&bad_magic), Err(FrameError::BadMagic));

    let mut bad_version = good.clone();
    bad_version[4] = NET_VERSION + 1;
    assert_eq!(
        decode_frame(&bad_version),
        Err(FrameError::BadVersion(NET_VERSION + 1))
    );

    let mut bad_kind = good.clone();
    bad_kind[5] = 0;
    assert_eq!(decode_frame(&bad_kind), Err(FrameError::BadKind(0)));
    bad_kind[5] = 9;
    assert_eq!(decode_frame(&bad_kind), Err(FrameError::BadKind(9)));

    let mut too_large = good.clone();
    too_large[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert_eq!(
        decode_frame(&too_large),
        Err(FrameError::TooLarge(MAX_FRAME_LEN + 1))
    );
}

#[test]
fn decode_rejects_out_of_domain_payload_bytes() {
    let mut bad_priority = encode_frame(&Frame::Submit {
        id: 1,
        tenant: 0,
        priority: Priority::Bulk,
        deadline_us: 0,
        query: vec![],
    });
    bad_priority[FRAME_HEADER_LEN + 12] = 3;
    assert_eq!(decode_frame(&bad_priority), Err(FrameError::BadPriority(3)));

    let mut bad_reason = encode_frame(&Frame::Shed {
        id: 1,
        reason: ShedReason::QueueFull,
        retry_after_us: 0,
    });
    bad_reason[FRAME_HEADER_LEN + 8] = 5;
    assert_eq!(decode_frame(&bad_reason), Err(FrameError::BadReason(5)));

    let mut bad_status = encode_frame(&Frame::Result {
        id: 1,
        status: ResultStatus::Ok,
        payload: vec![],
    });
    bad_status[FRAME_HEADER_LEN + 8] = 3;
    assert_eq!(decode_frame(&bad_status), Err(FrameError::BadStatus(3)));
}

/// Chopping a frame at every possible prefix length must decode as
/// `Truncated`, and so must a frame with trailing garbage.
#[test]
fn decode_rejects_truncation_at_every_length_and_trailing_garbage() {
    for frame in [
        Frame::Submit {
            id: 77,
            tenant: 3,
            priority: Priority::Normal,
            deadline_us: 5_000,
            query: vec![7; 33],
        },
        Frame::Result {
            id: 4,
            status: ResultStatus::Failed,
            payload: b"broken pipe".to_vec(),
        },
        Frame::Shed {
            id: 5,
            reason: ShedReason::Draining,
            retry_after_us: 1,
        },
        Frame::StatsReply(StatsSnapshot {
            per_shard_served: vec![1, 2, 3],
            ..Default::default()
        }),
    ] {
        let good = encode_frame(&frame);
        for cut in 0..good.len() {
            assert_eq!(
                decode_frame(&good[..cut]),
                Err(FrameError::Truncated),
                "{frame:?}: prefix of {cut} bytes must decode as truncated"
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(FrameError::Truncated));
    }
}

#[test]
fn magic_constant_is_pbn1() {
    assert_eq!(&NET_MAGIC.to_le_bytes(), b"PBN1");
}

// ---------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::Interactive),
        Just(Priority::Normal),
        Just(Priority::Bulk)
    ]
}

fn arb_reason() -> impl Strategy<Value = ShedReason> {
    prop_oneof![
        Just(ShedReason::QueueFull),
        Just(ShedReason::QuotaExceeded),
        Just(ShedReason::Draining),
        Just(ShedReason::Expired),
        Just(ShedReason::Cancelled)
    ]
}

fn arb_status() -> impl Strategy<Value = ResultStatus> {
    prop_oneof![
        Just(ResultStatus::Ok),
        Just(ResultStatus::Corrupt),
        Just(ResultStatus::Failed)
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            arb_priority(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(id, tenant, priority, deadline_us, query)| Frame::Submit {
                id,
                tenant,
                priority,
                deadline_us,
                query,
            }),
        any::<u64>().prop_map(|id| Frame::Cancel { id }),
        Just(Frame::Drain),
        Just(Frame::Stats),
        (
            any::<u64>(),
            arb_status(),
            proptest::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(id, status, payload)| Frame::Result {
                id,
                status,
                payload,
            }),
        (any::<u64>(), arb_reason(), any::<u64>()).prop_map(|(id, reason, retry_after_us)| {
            Frame::Shed {
                id,
                reason,
                retry_after_us,
            }
        }),
        any::<u64>().prop_map(|queued| Frame::DrainAck { queued }),
        (
            proptest::collection::vec(any::<u64>(), 13..14),
            proptest::collection::vec(any::<u64>(), 0..8)
        )
            .prop_map(|(v, per_shard_served)| {
                Frame::StatsReply(StatsSnapshot {
                    accepted: v[0],
                    served: v[1],
                    shed_queue_full: v[2],
                    shed_quota: v[3],
                    shed_draining: v[4],
                    expired: v[5],
                    cancelled: v[6],
                    batches: v[7],
                    bytes_read: v[8],
                    kernel_passes: v[9],
                    passes_saved: v[10],
                    submits: v[11],
                    evicted: v[12],
                    per_shard_served,
                })
            }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        prop_assert_eq!(decode_frame(&bytes), Ok(frame));
    }

    /// A stream of frames split at arbitrary chunk boundaries reassembles
    /// into exactly the same frames, in order, with nothing left over.
    #[test]
    fn stream_reader_reassembles_any_chunking(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.feed(piece);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(reader.buffered(), 0);
    }
}

// ---------------------------------------------------------------------
// End-to-end daemon behavior over loopback TCP (EchoRunner: the
// deterministic executor, so these test scheduling, not search).
// ---------------------------------------------------------------------

fn echo_server(config: ServerConfig, delay: Duration) -> parblast::net::ServerHandle {
    NetServer::start(
        "127.0.0.1:0",
        config,
        Arc::new(EchoRunner::with_delay(delay)),
    )
    .expect("bind loopback")
}

#[test]
fn daemon_serves_concurrent_clients() {
    let handle = echo_server(
        ServerConfig {
            shards: 2,
            ..Default::default()
        },
        Duration::ZERO,
    );
    let addr = handle.addr().to_string();

    let mut clients = Vec::new();
    for c in 0..4u32 {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(&addr).unwrap();
            for i in 0..25u32 {
                let q = format!("client-{c}-query-{i}").into_bytes();
                let got = client.query(&q).unwrap();
                assert_eq!(got, EchoRunner::expected(&q));
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(stats.accepted, 100);
    assert_eq!(stats.served, 100);
    // The runner reports one fused kernel pass per batch, so the pass
    // counters must balance: passes + saved == queries served.
    assert_eq!(stats.kernel_passes, stats.batches);
    assert_eq!(stats.kernel_passes + stats.passes_saved, stats.served);
    assert_eq!(stats.per_shard_served.len(), 2);
    // Round-robin connection placement spreads clients over both shards.
    assert!(
        stats.per_shard_served.iter().all(|&n| n > 0),
        "both shards served work: {:?}",
        stats.per_shard_served
    );

    handle.drain();
    let final_stats = handle.join();
    assert_eq!(final_stats.served, 100);
}

#[test]
fn over_quota_tenant_is_shed_with_retry_hint_and_others_are_not() {
    // qps≈0 so the bucket never refills during the test: tenant 1 has
    // exactly 3 tokens, tenant 2 has its own 3.
    let handle = echo_server(
        ServerConfig {
            shards: 1,
            quota: Some(QuotaConfig {
                qps: 1e-9,
                burst: 3.0,
            }),
            ..Default::default()
        },
        Duration::ZERO,
    );
    let addr = handle.addr().to_string();

    let tenant = |t: u32| ClientConfig {
        tenant: t,
        ..Default::default()
    };
    let mut hog = NetClient::connect_with(&addr, tenant(1)).unwrap();
    let mut polite = NetClient::connect_with(&addr, tenant(2)).unwrap();

    let mut hog_ok = 0;
    let mut hog_shed = 0;
    for i in 0..6u32 {
        let id = hog.submit(format!("hog-{i}").as_bytes()).unwrap();
        match hog.recv_response().unwrap().unwrap() {
            (got, Response::Ok(_)) => {
                assert_eq!(got, id);
                hog_ok += 1;
            }
            (got, Response::Shed(ShedReason::QuotaExceeded, retry_after_us)) => {
                assert_eq!(got, id);
                assert!(retry_after_us > 0, "shed carries a retry hint");
                hog_shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!((hog_ok, hog_shed), (3, 3));

    // The other tenant's bucket is untouched by the hog's appetite.
    for i in 0..3u32 {
        let q = format!("polite-{i}").into_bytes();
        assert_eq!(polite.query(&q).unwrap(), EchoRunner::expected(&q));
    }

    let stats = hog.stats().unwrap();
    assert_eq!(stats.shed_quota, 3);
    assert_eq!(stats.accepted, 6);
    handle.drain();
    handle.join();
}

#[test]
fn full_queue_sheds_with_queue_full() {
    // One shard, tiny queue, slow batches: back-to-back submits overrun
    // the queue and must be refused, not silently dropped.
    let handle = echo_server(
        ServerConfig {
            shards: 1,
            queue_capacity: 2,
            max_batch: 1,
            quota: None,
            ..Default::default()
        },
        Duration::from_millis(150),
    );
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    let n = 10u32;
    let mut ids = HashSet::new();
    for i in 0..n {
        ids.insert(client.submit(format!("q{i}").as_bytes()).unwrap());
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..n {
        let (id, resp) = client.recv_response().unwrap().expect("answer per submit");
        assert!(ids.remove(&id), "exactly one answer per id");
        match resp {
            Response::Ok(_) => ok += 1,
            Response::Shed(ShedReason::QueueFull, _) => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(ids.is_empty());
    assert!(
        shed > 0,
        "a 2-slot queue under 10 instant submits must shed"
    );
    assert_eq!(ok + shed, n as u64);

    let stats = client.stats().unwrap();
    assert_eq!(stats.shed_queue_full, shed);
    assert_eq!(stats.accepted, ok);
    handle.drain();
    handle.join();
}

#[test]
fn cancel_answers_with_shed_cancelled() {
    let handle = echo_server(
        ServerConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
        Duration::from_millis(200),
    );
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    // q1 occupies the exec thread for 200 ms; q2 waits in the queue long
    // enough for the cancel to land.
    let q1 = client.submit(b"first").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let q2 = client.submit(b"second").unwrap();
    client.cancel(q2).unwrap();

    let mut got_ok = false;
    let mut got_cancel = false;
    for _ in 0..2 {
        match client.recv_response().unwrap().unwrap() {
            (id, Response::Ok(payload)) => {
                assert_eq!(id, q1);
                assert_eq!(payload, EchoRunner::expected(b"first"));
                got_ok = true;
            }
            (id, Response::Shed(ShedReason::Cancelled, _)) => {
                assert_eq!(id, q2);
                got_cancel = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(got_ok && got_cancel);
    assert_eq!(client.stats().unwrap().cancelled, 1);
    handle.drain();
    handle.join();
}

#[test]
fn expired_deadline_is_shed_as_expired() {
    let handle = echo_server(
        ServerConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
        Duration::from_millis(200),
    );
    let addr = handle.addr().to_string();
    let mut blocker = NetClient::connect(&addr).unwrap();
    let mut client = NetClient::connect_with(
        &addr,
        ClientConfig {
            deadline_us: 1, // expires while the blocker's batch runs
            ..Default::default()
        },
    )
    .unwrap();

    let b = blocker.submit(b"slow").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let e = client.submit(b"doomed").unwrap();

    match client.recv_response().unwrap().unwrap() {
        (id, Response::Shed(ShedReason::Expired, _)) => assert_eq!(id, e),
        other => panic!("unexpected response {other:?}"),
    }
    match blocker.recv_response().unwrap().unwrap() {
        (id, Response::Ok(_)) => assert_eq!(id, b),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(client.stats().unwrap().expired, 1);
    handle.drain();
    handle.join();
}

/// Both ledger identities a drained daemon must satisfy.
fn assert_ledger_balances(stats: &StatsSnapshot) {
    assert_eq!(
        stats.submits,
        stats.accepted + stats.shed_queue_full + stats.shed_quota + stats.shed_draining,
        "{stats:?}"
    );
    assert_eq!(
        stats.accepted,
        stats.served + stats.expired + stats.cancelled,
        "{stats:?}"
    );
}

/// Read frames off a raw socket until one is complete.
fn read_frame(sock: &mut std::net::TcpStream, reader: &mut FrameReader) -> Frame {
    use std::io::Read;
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame().expect("well-formed frame") {
            return frame;
        }
        let n = sock.read(&mut buf).expect("daemon answers within 5 s");
        assert!(n > 0, "daemon closed the connection");
        reader.feed(&buf[..n]);
    }
}

/// A query cancelled while queued that then expires is answered
/// `Shed(Expired)`, and the cancel dies with it: a later Submit reusing
/// the id on the same connection is searched, not shed `Cancelled`.
/// Raw frames, because `NetClient` never reuses an id.
#[test]
fn cancel_then_expire_leaves_no_stale_cancel_for_a_reused_id() {
    use std::io::Write;

    let handle = echo_server(
        ServerConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
        Duration::from_millis(200),
    );
    let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = FrameReader::new();
    let submit = |id: u64, deadline_us: u64, query: &[u8]| {
        encode_frame(&Frame::Submit {
            id,
            tenant: 0,
            priority: Priority::Normal,
            deadline_us,
            query: query.to_vec(),
        })
    };

    // With one shard and `max_batch` 1 the blocker is dequeued first and
    // occupies the exec thread for 200 ms; query 7 is cancelled while
    // queued behind it, and its 1 µs deadline lapses before the exec
    // thread can dequeue it.
    let mut burst = submit(1, 0, b"blocker");
    burst.extend(submit(7, 1, b"doomed"));
    burst.extend(encode_frame(&Frame::Cancel { id: 7 }));
    sock.write_all(&burst).unwrap();

    let mut blocker_ok = false;
    let mut expired = false;
    for _ in 0..2 {
        match read_frame(&mut sock, &mut reader) {
            Frame::Result {
                id: 1,
                status: ResultStatus::Ok,
                ..
            } => blocker_ok = true,
            Frame::Shed {
                id: 7,
                reason: ShedReason::Expired,
                ..
            } => expired = true,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(blocker_ok && expired);

    // Same id, same connection, no deadline: it must be searched.
    sock.write_all(&submit(7, 0, b"reused")).unwrap();
    match read_frame(&mut sock, &mut reader) {
        Frame::Result {
            id: 7,
            status: ResultStatus::Ok,
            payload,
        } => assert_eq!(payload, EchoRunner::expected(b"reused")),
        other => panic!("reused id 7 must be searched, got {other:?}"),
    }

    handle.drain();
    let stats = handle.join();
    assert_eq!((stats.expired, stats.cancelled), (1, 0), "{stats:?}");
    assert_eq!(stats.served, 2);
    assert_ledger_balances(&stats);
}

/// A Submit's `deadline_us` is the client's unchecked `u64`. One too far
/// away to represent in nanoseconds is the far future: it neither panics
/// the shard nor wraps into a deadline that has already passed (the
/// smallest overflowing value wraps to 384 ns). Raw frames, because
/// `NetClient` only sends deadlines it computed itself.
#[test]
fn deadline_beyond_the_clock_is_served_not_expired() {
    use std::io::Write;

    let handle = echo_server(
        ServerConfig {
            shards: 1,
            ..Default::default()
        },
        Duration::ZERO,
    );
    let mut sock = std::net::TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = FrameReader::new();
    let far = [(1u64, u64::MAX), (2, u64::MAX / 1_000 + 1)];
    for (id, deadline_us) in far {
        sock.write_all(&encode_frame(&Frame::Submit {
            id,
            tenant: 0,
            priority: Priority::Normal,
            deadline_us,
            query: b"far".to_vec(),
        }))
        .unwrap();
    }

    let mut answered = HashSet::new();
    for _ in far {
        match read_frame(&mut sock, &mut reader) {
            Frame::Result {
                id,
                status: ResultStatus::Ok,
                payload,
            } => {
                assert_eq!(payload, EchoRunner::expected(b"far"));
                assert!(answered.insert(id), "id {id} answered twice");
            }
            other => panic!("a far deadline must be served, got {other:?}"),
        }
    }
    assert_eq!(answered, HashSet::from([1, 2]));

    handle.drain();
    let stats = handle.join();
    assert_eq!((stats.served, stats.expired), (2, 0), "{stats:?}");
    assert_ledger_balances(&stats);
}

/// Runner whose first batch fails and whose later batches succeed, each
/// success reporting the same fixed pass cost.
#[derive(Default)]
struct FailsFirstRunner {
    calls: std::sync::atomic::AtomicU64,
}

impl FailsFirstRunner {
    const BYTES_READ: u64 = 1000;
    const KERNEL_PASSES: u64 = 3;
    const PASSES_SAVED: u64 = 5;
}

impl BatchRunner for FailsFirstRunner {
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError> {
        use std::sync::atomic::Ordering;
        if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            return Err(RunnerError::Other("first batch fails".into()));
        }
        Ok(RunnerOutput {
            per_query: queries.iter().map(|q| EchoRunner::expected(q)).collect(),
            scan_s: 0.0,
            search_s: 0.0,
            bytes_read: Self::BYTES_READ,
            kernel_passes: Self::KERNEL_PASSES,
            passes_saved: Self::PASSES_SAVED,
        })
    }
}

/// `served` counts every answer, failed or not; the batch and pass
/// counters count only what successful batches reported.
#[test]
fn failed_batch_counts_as_served_but_not_as_a_pass() {
    let handle = NetServer::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: 1,
            max_batch: 1,
            ..Default::default()
        },
        Arc::new(FailsFirstRunner::default()),
    )
    .expect("bind loopback");
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    let mut answers = Vec::new();
    for q in [&b"first"[..], b"second", b"third"] {
        let id = client.submit(q).unwrap();
        let (got, resp) = client.recv_response().unwrap().expect("answer");
        assert_eq!(got, id);
        answers.push(resp);
    }
    assert!(matches!(answers[0], Response::Failed(_)), "{answers:?}");
    assert_eq!(answers[1], Response::Ok(EchoRunner::expected(b"second")));
    assert_eq!(answers[2], Response::Ok(EchoRunner::expected(b"third")));

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.bytes_read, 2 * FailsFirstRunner::BYTES_READ);
    assert_eq!(stats.kernel_passes, 2 * FailsFirstRunner::KERNEL_PASSES);
    assert_eq!(stats.passes_saved, 2 * FailsFirstRunner::PASSES_SAVED);
    assert_ledger_balances(&stats);
}

/// The graceful-drain contract: when a `Drain` lands mid-load, every
/// query accepted before it still gets its `Result` (zero result loss),
/// late submits get typed `Shed(Draining)`, and the daemon then closes
/// every connection and exits. Verified from both sides: clients check
/// one answer per submitted id; the server's final counters must balance
/// exactly (accepted == served + expired + cancelled).
#[test]
fn drain_under_load_loses_no_accepted_query() {
    let handle = echo_server(
        ServerConfig {
            shards: 2,
            queue_capacity: 1024,
            max_batch: 4,
            quota: None,
            ..Default::default()
        },
        Duration::from_millis(2),
    );
    let addr = handle.addr().to_string();

    let mut clients = Vec::new();
    for c in 0..3u32 {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(&addr).unwrap();
            let mut submitted = HashSet::new();
            let mut answered = HashSet::new();
            let mut ok = 0u64;
            // Keep submitting until the pipe breaks (drain closed it),
            // then read answers until EOF.
            for i in 0..10_000u32 {
                match client.submit(format!("c{c}-q{i}").as_bytes()) {
                    Ok(id) => submitted.insert(id),
                    Err(_) => break,
                };
                // Interleave reads so the kernel buffers never fill.
                if i % 8 == 7 {
                    match client.recv_response() {
                        Ok(Some((id, resp))) => {
                            assert!(answered.insert(id), "duplicate answer for {id}");
                            if matches!(resp, Response::Ok(_)) {
                                ok += 1;
                            }
                        }
                        Ok(None) | Err(_) => break,
                    }
                }
            }
            while let Ok(Some((id, resp))) = client.recv_response() {
                assert!(answered.insert(id), "duplicate answer for {id}");
                if matches!(resp, Response::Ok(_)) {
                    ok += 1;
                }
            }
            (submitted, answered, ok)
        }));
    }

    // Let load build, then pull the plug from a separate admin connection.
    std::thread::sleep(Duration::from_millis(100));
    let mut admin = NetClient::connect(&addr).unwrap();
    admin.drain().unwrap();

    let mut total_ok = 0u64;
    for c in clients {
        let (submitted, answered, ok) = c.join().unwrap();
        // Every answer matches a submit; every answered id is unique.
        assert!(answered.is_subset(&submitted));
        total_ok += ok;
    }

    let stats = handle.join();
    // Zero result loss, counted on the server: everything accepted was
    // served (or got its typed expired/cancelled shed — none here).
    assert_eq!(
        stats.accepted,
        stats.served + stats.expired + stats.cancelled,
        "drain must answer every accepted query: {stats:?}"
    );
    assert_eq!(stats.expired + stats.cancelled, 0);
    // The full submit ledger: every Submit frame the daemon decoded is
    // accounted for as accepted or some typed shed — nothing vanishes.
    assert_eq!(
        stats.submits,
        stats.accepted + stats.shed_queue_full + stats.shed_quota + stats.shed_draining,
        "submit ledger must balance: {stats:?}"
    );
    // And counted on the clients: every Ok that reached a client is one
    // the server served. (Results the kernel was still carrying at EOF
    // cannot exceed what the server says it served.)
    assert!(total_ok <= stats.served);
    assert!(stats.served > 0, "load ran before the drain");
    assert!(stats.accepted > 0);
}

// ---------------------------------------------------------------------
// Hardening: fault-injected connections, pipelining caps, slowloris.
// ---------------------------------------------------------------------

/// Kill-at-every-byte sweep: a client connection is hard-reset at every
/// possible byte offset of a Submit frame. Whatever the cut point, the
/// server must (a) never double-answer any query, (b) release every
/// queue/slab slot it took, and (c) keep its accounting identity exact —
/// proven by serving a full queue's worth of work afterwards and by the
/// final drained counters.
#[test]
fn kill_at_every_byte_never_double_answers_and_releases_slots() {
    use parblast::net::FaultyStream;
    use parblast_hwsim::{SocketDir, SocketFaultSchedule};
    use std::io::Write;

    let handle = echo_server(
        ServerConfig {
            shards: 1,
            queue_capacity: 4,
            max_batch: 1,
            quota: None,
            read_deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        },
        Duration::ZERO,
    );
    let addr = handle.addr().to_string();

    let frame = encode_frame(&Frame::Submit {
        id: 1,
        tenant: 0,
        priority: Priority::Normal,
        deadline_us: 0,
        query: b"kill-sweep".to_vec(),
    });

    let mut completed = 0u64;
    for cut in 0..=frame.len() as u64 {
        // `cut == frame.len()` is the control case: the fault offset sits
        // past the frame, so the whole Submit is delivered and the
        // connection then drops without reading its answer.
        let sched = SocketFaultSchedule::new().reset_at(SocketDir::Write, cut);
        let stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut s = FaultyStream::new(stream, &sched);
        let mut off = 0usize;
        while let Ok(n) = s.write(&frame[off..]) {
            off += n;
            if off == frame.len() {
                break;
            }
        }
        let _ = s.flush();
        assert_eq!(off as u64, cut.min(frame.len() as u64), "cut {cut}");
        if off == frame.len() {
            completed += 1;
        }
        // Dropping `s` closes the socket; for cut < len the reset already
        // hard-closed it mid-frame.
    }
    assert_eq!(completed, 1, "exactly the control connection completes");

    // Give the reaper a few ticks, then prove no slot leaked: a healthy
    // client can still push a full queue's worth of queries through.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = NetClient::connect(&addr).unwrap();
    let mut ids = HashSet::new();
    for i in 0..4u32 {
        ids.insert(client.submit(format!("post-sweep-{i}").as_bytes()).unwrap());
    }
    for _ in 0..4 {
        let (id, resp) = client.recv_response().unwrap().expect("answer");
        assert!(ids.remove(&id), "exactly one answer per id");
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    }

    let stats = client.stats().unwrap();
    // Only complete Submit frames reach the ledger: the control kill plus
    // the four post-sweep queries.
    assert_eq!(stats.submits, 1 + 4);
    assert_eq!(stats.accepted, 1 + 4);

    handle.drain();
    let stats = handle.join();
    // The one-answer-per-accept identity holds through every kill: the
    // control query was served (its answer routed to a dead connection
    // and dropped there, which still counts as served) or cancelled at
    // dequeue if the reaper flagged it first.
    assert_eq!(
        stats.accepted,
        stats.served + stats.expired + stats.cancelled,
        "{stats:?}"
    );
    assert_eq!(
        stats.submits,
        stats.accepted + stats.shed_queue_full + stats.shed_quota + stats.shed_draining,
        "{stats:?}"
    );
}

/// The per-connection in-flight cap: a client that pipelines more unread
/// Submits than `max_inflight_per_conn` gets the excess shed QueueFull
/// while the in-cap prefix is still served — one greedy pipeliner cannot
/// monopolize a shard.
#[test]
fn inflight_cap_sheds_excess_pipelining() {
    let handle = echo_server(
        ServerConfig {
            shards: 1,
            max_batch: 1,
            max_inflight_per_conn: 2,
            ..Default::default()
        },
        Duration::from_millis(100),
    );
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();

    let mut ids = HashSet::new();
    for i in 0..6u32 {
        ids.insert(client.submit(format!("pipeline-{i}").as_bytes()).unwrap());
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..6 {
        let (id, resp) = client.recv_response().unwrap().expect("answer per submit");
        assert!(ids.remove(&id), "exactly one answer per id");
        match resp {
            Response::Ok(_) => ok += 1,
            Response::Shed(ShedReason::QueueFull, _) => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    // The 6 submits land within microseconds while the first batch needs
    // 100 ms, so exactly the cap's worth is accepted.
    assert_eq!((ok, shed), (2, 4));
    let stats = client.stats().unwrap();
    assert_eq!(stats.shed_queue_full, 4);
    assert_eq!(stats.accepted, 2);
    handle.drain();
    handle.join();
}

/// Slowloris: a connection holding a partial frame past the read deadline
/// is evicted even while it keeps trickling bytes — byte progress does
/// not reset the partial-frame clock, only frame completion does.
#[test]
fn slowloris_partial_frame_is_evicted() {
    use std::io::{Read, Write};

    let handle = echo_server(
        ServerConfig {
            shards: 1,
            read_deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        },
        Duration::ZERO,
    );
    let addr = handle.addr().to_string();

    let frame = encode_frame(&Frame::Submit {
        id: 1,
        tenant: 0,
        priority: Priority::Normal,
        deadline_us: 0,
        query: vec![7; 64],
    });
    let mut sock = std::net::TcpStream::connect(&addr).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.write_all(&frame[..6]).unwrap();
    // Trickle one byte every 40 ms: total elapsed blows through the
    // 100 ms deadline even though bytes keep arriving.
    for i in 6..12 {
        std::thread::sleep(Duration::from_millis(40));
        // Writes may start failing once the server hard-closes us.
        let _ = sock.write_all(&frame[i..i + 1]);
    }
    // The server must have hung up on us: EOF or a reset error.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 16];
    match sock.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("evicted connection produced {n} bytes"),
    }

    // A well-behaved client on the same daemon is unaffected.
    let mut client = NetClient::connect(&addr).unwrap();
    let q = b"healthy".to_vec();
    assert_eq!(client.query(&q).unwrap(), EchoRunner::expected(&q));
    let stats = client.stats().unwrap();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.submits, 1, "the partial Submit never decoded");
    handle.drain();
    handle.join();
}
