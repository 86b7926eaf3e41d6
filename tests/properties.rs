//! Property-based tests (proptest) on the core data structures and
//! invariants: stripe layout coverage, mirrored read plans, 2-bit packing,
//! alignment scores, Karlin statistics, the page cache, and the real
//! striped/mirrored stores.

use proptest::prelude::*;

use parblast::blast::{
    align_stats, banded_global_with, extend_ungapped, ungapped_params, AlignOp, GapPenalties,
    GappedWorkspace, Scorer,
};
use parblast::pio::{
    read_all, MirroredLayout, MirroredStore, ObjectStore, ServerId, StripeLayout, StripedStore,
};
use parblast::pvfs::backoff_delay;
use parblast::seqdb::{pack_2bit, reverse_complement, unpack_2bit};
use parblast::serve::{AdmissionQueue, Priority, Query};
use parblast::simcore::SimTime;

/// Every exact `word`-mer match of `query` in the decoded `subject` as
/// `(qpos, spos)`, by subject position then query position: what the
/// blastn scanner must report for one context, found with no table at all.
fn byte_scan(query: &[u8], subject: &[u8], word: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if query.len() < word || subject.len() < word {
        return out;
    }
    for sp in 0..=subject.len() - word {
        for qp in 0..=query.len() - word {
            if query[qp..qp + word] == subject[sp..sp + word] {
                out.push((qp as u32, sp as u32));
            }
        }
    }
    out
}

/// One `scan_packed_batched` pass over the packed `subject` with the
/// merged lookup of `contexts`; the `(qpos, spos)` stream of each context.
fn scan_packed_batched(contexts: &[&[u8]], subject: &[u8], word: usize) -> Vec<Vec<(u32, u32)>> {
    let lookup = parblast::blast::BatchedNtLookup::build(contexts, word);
    let mut per_context = vec![Vec::new(); contexts.len()];
    let mut block = parblast::blast::SurvivorBlock::default();
    lookup.scan_packed_batched(
        &pack_2bit(subject),
        subject.len(),
        &mut block,
        |ctx, qp, sp| {
            per_context[ctx as usize].push((qp, sp));
        },
    );
    per_context
}

proptest! {
    /// Every byte of any extent is covered exactly once by the stripe map.
    #[test]
    fn stripe_map_partitions_extent(
        stripe in 1u64..64,
        servers in 1u32..9,
        offset in 0u64..512,
        len in 0u64..512,
    ) {
        let l = StripeLayout::new(stripe, servers);
        let ranges = l.map_extent(offset, len);
        let total: u64 = ranges.iter().map(|r| r.len).sum();
        prop_assert_eq!(total, len);
        // Each byte maps into its server's range at the right local offset.
        for pos in offset..offset + len {
            let srv = l.server_of(pos);
            let lo = l.local_offset_of(pos);
            let r = ranges.iter().find(|r| r.server == srv).unwrap();
            prop_assert!(lo >= r.local_offset && lo < r.local_offset + r.len);
        }
        // At most one range per server, ranges are disjoint per server.
        let mut seen = std::collections::HashSet::new();
        for r in &ranges {
            prop_assert!(seen.insert(r.server));
        }
    }

    /// The dual-half mirrored plan covers the extent exactly, regardless of
    /// the skip set (as long as no mirror pair is fully skipped).
    #[test]
    fn mirrored_plan_covers_extent(
        stripe in 1u64..32,
        servers in 1u32..5,
        offset in 0u64..256,
        len in 0u64..256,
        first_group in 0u8..2,
        skip_index in 0u32..5,
        skip_group in 0u8..2,
    ) {
        let l = MirroredLayout::new(stripe, servers);
        let skips = if skip_index < servers {
            vec![ServerId { group: skip_group, index: skip_index }]
        } else {
            vec![]
        };
        let parts = l.plan_read(offset, len, first_group, &skips);
        let total: u64 = parts.iter().map(|p| p.len).sum();
        prop_assert_eq!(total, len);
        for p in &parts {
            prop_assert!(!skips.contains(&p.server), "skipped server used");
        }
    }

    /// A degraded mirrored plan — *any* subset of the primary group dead —
    /// still covers every byte of the extent exactly once, and never
    /// touches a dead server.
    #[test]
    fn degraded_mirrored_plan_covers_every_byte_once(
        stripe in 1u64..32,
        servers in 1u32..5,
        offset in 0u64..256,
        len in 0u64..256,
        first_group in 0u8..2,
        dead_mask in 0u16..16,
    ) {
        let l = MirroredLayout::new(stripe, servers);
        let dead: Vec<ServerId> = (0..servers)
            .filter(|i| dead_mask & (1 << i) != 0)
            .map(|index| ServerId { group: 0, index })
            .collect();
        let parts = l.plan_read(offset, len, first_group, &dead);
        for p in &parts {
            prop_assert!(!dead.contains(&p.server), "dead server {:?} used", p.server);
        }
        // Exactly-once coverage: replay each part back onto the logical
        // extent. A part serves the stripes of its server index within one
        // half; mark every logical byte it covers and require each byte to
        // be marked exactly once.
        let mut cover = vec![0u32; len as usize];
        let half = len / 2;
        let halves = [
            (offset, half, first_group),
            (offset + half, len - half, 1 - first_group),
        ];
        for p in &parts {
            // Find which half this part belongs to (unique per (server
            // index, local range) pair).
            let mut matched = false;
            for &(ho, hl, _g) in &halves {
                if hl == 0 {
                    continue;
                }
                let ranges = l.stripe.map_extent(ho, hl);
                if ranges.iter().any(|r| {
                    r.server == p.server.index
                        && r.local_offset == p.local_offset
                        && r.len == p.len
                }) {
                    for pos in ho..ho + hl {
                        if l.stripe.server_of(pos) == p.server.index {
                            cover[(pos - offset) as usize] += 1;
                        }
                    }
                    matched = true;
                    break;
                }
            }
            prop_assert!(matched, "part {p:?} matches no half");
        }
        for (i, &c) in cover.iter().enumerate() {
            prop_assert!(c == 1, "byte {} covered {} times", i, c);
        }
    }

    /// Retry backoff delays are monotone nondecreasing in the attempt
    /// number and bounded by the cap.
    #[test]
    fn backoff_monotone_and_bounded(
        base_us in 1u64..1_000_000,
        cap_factor in 1u64..64,
        attempts in 1u32..80,
    ) {
        let base = SimTime::from_micros(base_us);
        let cap = SimTime::from_micros(base_us * cap_factor);
        let mut prev = SimTime::ZERO;
        for a in 0..attempts {
            let d = backoff_delay(a, base, cap);
            prop_assert!(d >= prev, "attempt {} shrank: {:?} < {:?}", a, d, prev);
            prop_assert!(d <= cap, "attempt {} above cap: {:?}", a, d);
            prop_assert!(d >= base.min(cap), "attempt {} below base: {:?}", a, d);
            prev = d;
        }
        // The first delay is exactly the base (clamped to the cap).
        prop_assert_eq!(backoff_delay(0, base, cap), base.min(cap));
    }

    /// 2-bit packing round-trips for arbitrary code sequences.
    #[test]
    fn pack_round_trip(codes in proptest::collection::vec(0u8..4, 0..200)) {
        let packed = pack_2bit(&codes);
        prop_assert_eq!(packed.len(), codes.len().div_ceil(4));
        prop_assert_eq!(unpack_2bit(&packed, codes.len()), codes);
    }

    /// Packed-scan oracle: rolling the seed word across 2-bit packed
    /// subject bytes reports exactly the `(qpos, spos)` pairs, in the same
    /// order, that a brute-force word matcher finds in the unpacked codes —
    /// for random queries/subjects, every supported word size, and ragged
    /// (non-multiple-of-4) subject lengths. (The direct-address table caps
    /// at 12 — 4^12 cells — which is also NCBI blastn's limit, so 4..=12
    /// is the full supported range.)
    #[test]
    fn scan_packed_equals_byte_scan(
        query in proptest::collection::vec(0u8..4, 0..120),
        subject in proptest::collection::vec(0u8..4, 0..250),
        word in 4usize..=12,
    ) {
        prop_assert_eq!(
            scan_packed_batched(&[&query], &subject, word).remove(0),
            byte_scan(&query, &subject, word)
        );
    }

    /// Same oracle on self-similar sequences (subject = shifted copy of the
    /// query), which guarantees dense hit streams instead of the sparse
    /// ones random pairs produce.
    #[test]
    fn scan_packed_equals_byte_scan_dense(
        seed in proptest::collection::vec(0u8..4, 20..80),
        repeat in 2usize..5,
        trim in 0usize..4,
        word in 4usize..=12,
    ) {
        let query = seed.clone();
        let mut subject: Vec<u8> = Vec::new();
        for _ in 0..repeat {
            subject.extend_from_slice(&seed);
        }
        subject.truncate(subject.len() - trim); // force ragged tails too
        let by_bytes = byte_scan(&query, &subject, word);
        prop_assert!(!by_bytes.is_empty(), "self-similar subject must seed");
        prop_assert_eq!(scan_packed_batched(&[&query], &subject, word).remove(0), by_bytes);
    }

    /// Fused-kernel oracle: one `scan_packed_batched` pass over the
    /// merged lookup of B contexts reports, per context, exactly the
    /// `(qpos, spos)` stream B separate brute-force scans report — for
    /// B ∈ 1..=8, every supported word size, and ragged
    /// (non-multiple-of-4) subject lengths. The union of per-query
    /// candidate sets is therefore identical, with per-context order
    /// preserved.
    #[test]
    fn scan_packed_batched_equals_per_query_scans(
        queries in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 0..120),
            1..9usize,
        ),
        subject in proptest::collection::vec(0u8..4, 0..250),
        word in 4usize..=12,
    ) {
        let ctxs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let fused = scan_packed_batched(&ctxs, &subject, word);
        for (i, q) in queries.iter().enumerate() {
            let solo = byte_scan(q, &subject, word);
            prop_assert_eq!(&fused[i], &solo, "query {} diverged from its solo scan", i);
        }
    }

    /// Reverse complement is an involution and preserves length.
    #[test]
    fn revcomp_involution(codes in proptest::collection::vec(0u8..4, 0..300)) {
        let rc = reverse_complement(&codes);
        prop_assert_eq!(rc.len(), codes.len());
        prop_assert_eq!(reverse_complement(&rc), codes);
    }

    /// Ungapped extension never returns a segment scoring below the seed
    /// and stays within sequence bounds.
    #[test]
    fn ungapped_extension_invariants(
        q in proptest::collection::vec(0u8..4, 12..120),
        s in proptest::collection::vec(0u8..4, 12..120),
        qpos in 0usize..100,
        spos in 0usize..100,
    ) {
        let seed = 4usize;
        let scorer = Scorer::Nucleotide { reward: 1, penalty: -3 };
        let qpos = qpos % (q.len() - seed);
        let spos = spos % (s.len() - seed);
        let seed_score: i32 = (0..seed)
            .map(|i| scorer.score(q[qpos + i], s[spos + i]))
            .sum();
        let h = extend_ungapped(&q, &s, qpos, spos, seed, &scorer, 10);
        prop_assert!(h.score >= seed_score);
        prop_assert!(h.q_end <= q.len() && h.s_end <= s.len());
        prop_assert!(h.q_start <= qpos && h.s_start <= spos);
        prop_assert_eq!(h.q_end - h.q_start, h.s_end - h.s_start);
        // Recomputing the segment score matches.
        let recomputed: i32 = (0..h.len())
            .map(|i| scorer.score(q[h.q_start + i], s[h.s_start + i]))
            .sum();
        prop_assert_eq!(recomputed, h.score);
    }

    /// Banded global alignment: ops consume exactly the two sequences and
    /// the traceback score matches a recomputation from the ops.
    #[test]
    fn banded_global_consistency(
        q in proptest::collection::vec(0u8..4, 1..60),
        s in proptest::collection::vec(0u8..4, 1..60),
    ) {
        let scorer = Scorer::Nucleotide { reward: 1, penalty: -3 };
        let gaps = GapPenalties::blastn();
        let mut ws = GappedWorkspace::new();
        let (score, ops) = banded_global_with(&q, &s, &scorer, gaps, 8, &mut ws);
        let (mut qi, mut si) = (0usize, 0usize);
        let mut recomputed = 0i32;
        // Gap run state: (direction marker, length). A run closes whenever
        // the op kind changes (Sub, or the opposite gap direction).
        let mut run: Option<(AlignOp, i32)> = None;
        let close = |run: &mut Option<(AlignOp, i32)>, rec: &mut i32| {
            if let Some((_, len)) = run.take() {
                *rec -= gaps.cost(len);
            }
        };
        for &op in ops {
            match op {
                AlignOp::Sub => {
                    close(&mut run, &mut recomputed);
                    recomputed += scorer.score(q[qi], s[si]);
                    qi += 1;
                    si += 1;
                }
                gap_op => {
                    match &mut run {
                        Some((kind, len)) if *kind == gap_op => *len += 1,
                        _ => {
                            close(&mut run, &mut recomputed);
                            run = Some((gap_op, 1));
                        }
                    }
                    if gap_op == AlignOp::InsSubject {
                        si += 1;
                    } else {
                        qi += 1;
                    }
                }
            }
        }
        close(&mut run, &mut recomputed);
        prop_assert_eq!(qi, q.len());
        prop_assert_eq!(si, s.len());
        prop_assert_eq!(recomputed, score);
        let st = align_stats(&q, &s, ops);
        prop_assert_eq!(st.length, ops.len());
        prop_assert_eq!(st.identities + st.mismatches + st.gap_letters, ops.len());
    }

    /// Karlin λ satisfies its defining equation for random negative-mean
    /// score distributions.
    #[test]
    fn karlin_lambda_is_a_root(
        p_match in 0.05f64..0.45,
        penalty in 2i32..6,
    ) {
        // Score +1 w.p. p, −penalty w.p. 1−p; mean negative by construction.
        let mean = p_match - penalty as f64 * (1.0 - p_match);
        prop_assume!(mean < -0.01);
        let mut probs = vec![0.0; (penalty + 2) as usize];
        probs[0] = 1.0 - p_match;
        probs[(penalty + 1) as usize] = p_match;
        let params = ungapped_params(-penalty, &probs).unwrap();
        let check: f64 = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p * (params.lambda * (i as i32 - penalty) as f64).exp())
            .sum();
        prop_assert!((check - 1.0).abs() < 1e-6, "Σp·e^(λs) = {check}");
        prop_assert!(params.h > 0.0 && params.k > 0.0 && params.k < 1.0);
    }
}

/// One admission-queue operation for the model-equivalence proptest.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Offer a query of the given class (0..3).
    Offer(u8),
    /// Take a batch of at most this many queries.
    Take(usize),
}

proptest! {
    /// The admission queue against a reference model: capacity is
    /// enforced exactly (offers fail iff the queue is full), scheduling is
    /// strict priority across classes with FIFO inside each class, and no
    /// admitted query is ever lost — after a full drain everything
    /// admitted has been served exactly once (no starvation within a
    /// class).
    #[test]
    fn admission_queue_matches_reference_model(
        ops in proptest::collection::vec(
            prop_oneof![
                (0u8..3).prop_map(QueueOp::Offer),
                (1usize..6).prop_map(QueueOp::Take),
            ],
            1..300,
        ),
        capacity in 1usize..32,
    ) {
        let mut q = AdmissionQueue::new(capacity);
        let mut model: [std::collections::VecDeque<u64>; 3] = Default::default();
        let mut next_id = 0u64;
        let mut model_rejected = 0u64;
        let mut served: Vec<u64> = Vec::new();
        let take = |q: &mut AdmissionQueue,
                        model: &mut [std::collections::VecDeque<u64>; 3],
                        served: &mut Vec<u64>,
                        max: usize|
         -> Result<(), TestCaseError> {
            let got: Vec<u64> = q
                .take_batch(max, SimTime::ZERO)
                .iter()
                .map(|x| x.id)
                .collect();
            let mut expect = Vec::new();
            for lane in model.iter_mut() {
                while expect.len() < max {
                    match lane.pop_front() {
                        Some(i) => expect.push(i),
                        None => break,
                    }
                }
                if expect.len() >= max {
                    break;
                }
            }
            prop_assert_eq!(&got, &expect);
            served.extend(got);
            Ok(())
        };
        for op in ops {
            match op {
                QueueOp::Offer(class) => {
                    let priority = Priority::ALL[class as usize];
                    let res = q.offer(Query {
                        id: next_id,
                        priority,
                        arrival: SimTime::ZERO,
                        deadline: None,
                        payload: 0,
                    });
                    let full =
                        model.iter().map(|l| l.len()).sum::<usize>() >= capacity.max(1);
                    prop_assert_eq!(res.is_err(), full, "offer vs model fullness");
                    if full {
                        model_rejected += 1;
                    } else {
                        model[class as usize].push_back(next_id);
                    }
                    next_id += 1;
                }
                QueueOp::Take(max) => take(&mut q, &mut model, &mut served, max)?,
            }
        }
        // Drain: every admitted query must eventually come out.
        while !q.is_empty() {
            take(&mut q, &mut model, &mut served, 4)?;
        }
        prop_assert_eq!(q.rejected(), model_rejected);
        prop_assert_eq!(served.len() as u64, q.admitted());
        // Exactly once: ids are unique by construction, so set size matches.
        let uniq: std::collections::HashSet<u64> = served.iter().copied().collect();
        prop_assert_eq!(uniq.len(), served.len());
    }

    /// Deadlines: a query whose deadline has passed is never handed to a
    /// batch, and every admitted query is either served or counted
    /// expired.
    #[test]
    fn expired_queries_are_dropped_never_served(
        deadlines in proptest::collection::vec(
            proptest::option::of(0u64..50),
            1..120,
        ),
        batch_max in 1usize..6,
        step_s in 1u64..10,
    ) {
        let mut q = AdmissionQueue::new(1024);
        for (i, d) in deadlines.iter().enumerate() {
            q.offer(Query {
                id: i as u64,
                priority: Priority::Normal,
                arrival: SimTime::ZERO,
                deadline: d.map(SimTime::from_secs),
                payload: 0,
            })
            .unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut served = 0u64;
        while !q.is_empty() {
            let batch = q.take_batch(batch_max, now);
            for b in &batch {
                prop_assert!(
                    b.deadline.is_none_or(|d| d >= now),
                    "query {} served {}s past its deadline",
                    b.id,
                    now.as_secs_f64()
                );
            }
            served += batch.len() as u64;
            now = now.saturating_add(SimTime::from_secs(step_s));
        }
        prop_assert_eq!(served + q.expired(), deadlines.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Real striped store: arbitrary payloads and stripe sizes round-trip,
    /// including partial reads.
    #[test]
    fn striped_store_round_trip(
        stripe in 1u64..2000,
        servers in 1usize..6,
        payload in proptest::collection::vec(any::<u8>(), 0..20_000),
        window in 0usize..20_000,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_striped_{}_{}",
            std::process::id(),
            stripe * 31 + servers as u64
        ));
        let dirs: Vec<_> = (0..servers).map(|i| base.join(format!("s{i}"))).collect();
        let st = StripedStore::new(dirs, stripe).unwrap();
        st.put("x", &payload).unwrap();
        prop_assert_eq!(read_all(&st, "x").unwrap(), payload.clone());
        if !payload.is_empty() {
            let off = window % payload.len();
            let len = (window / 7) % (payload.len() - off).max(1);
            let mut r = st.open("x").unwrap();
            let mut buf = vec![0u8; len];
            r.read_at(off as u64, &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &payload[off..off + len]);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// Real mirrored store: round-trips with any single server skipped.
    #[test]
    fn mirrored_store_round_trip_with_skip(
        stripe in 1u64..1000,
        servers in 1u32..4,
        payload in proptest::collection::vec(any::<u8>(), 1..10_000),
        hot_index in 0u32..4,
        hot_group in 0u8..2,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_mirror_{}_{}",
            std::process::id(),
            stripe * 17 + servers as u64
        ));
        let p: Vec<_> = (0..servers).map(|i| base.join(format!("p{i}"))).collect();
        let m: Vec<_> = (0..servers).map(|i| base.join(format!("m{i}"))).collect();
        let st = MirroredStore::new(p, m, stripe).unwrap();
        st.put("x", &payload).unwrap();
        if hot_index < servers {
            // Mark one server hot via direct EWMA training.
            let hot = ServerId { group: hot_group, index: hot_index };
            st.monitor().record(hot, 1000, 5.0);
            for g in 0..2u8 {
                for i in 0..servers {
                    let s = ServerId { group: g, index: i };
                    if s != hot {
                        st.monitor().record(s, 1_000_000, 1e-4);
                    }
                }
            }
        }
        prop_assert_eq!(read_all(&st, "x").unwrap(), payload);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Integrity: flipping *any single bit* of *any* stored stripe is
    /// detected — the striped store (no redundancy) must refuse to return
    /// the bytes, surfacing the typed corrupt error instead of garbage.
    #[test]
    fn any_single_flipped_bit_is_detected(
        stripe in 1u64..500,
        servers in 1usize..4,
        payload in proptest::collection::vec(any::<u8>(), 1..8_000),
        victim in 0usize..8_000,
        bit in 0u8..8,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_bitflip_{}_{}",
            std::process::id(),
            stripe * 29 + servers as u64
        ));
        let dirs: Vec<_> = (0..servers).map(|i| base.join(format!("s{i}"))).collect();
        let st = StripedStore::new(dirs.clone(), stripe).unwrap();
        st.put("x", &payload).unwrap();
        // Flip one bit of the stored copy, behind the store's back.
        let pos = victim % payload.len();
        let layout = StripeLayout::new(stripe, servers as u32);
        let shard = dirs[layout.server_of(pos as u64) as usize].join("x");
        let mut raw = std::fs::read(&shard).unwrap();
        raw[layout.local_offset_of(pos as u64) as usize] ^= 1 << bit;
        std::fs::write(&shard, &raw).unwrap();
        let err = read_all(&st, "x").unwrap_err();
        prop_assert!(
            parblast::pio::is_corrupt(&err),
            "flip of payload byte {pos} bit {bit} not reported corrupt: {err}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    /// Integrity: with a mirror, a flipped bit is *transparent* — every
    /// read returns the original bytes no matter which copy rotted, and a
    /// scrub pass rewrites the bad stripe so the disk heals too.
    #[test]
    fn mirrored_reads_stay_byte_identical_under_any_flipped_bit(
        stripe in 1u64..500,
        servers in 1u32..4,
        payload in proptest::collection::vec(any::<u8>(), 1..8_000),
        victim in 0usize..8_000,
        bit in 0u8..8,
        group in 0u8..2,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_repair_{}_{}",
            std::process::id(),
            stripe * 23 + servers as u64 + group as u64 * 7
        ));
        let p: Vec<_> = (0..servers).map(|i| base.join(format!("p{i}"))).collect();
        let m: Vec<_> = (0..servers).map(|i| base.join(format!("m{i}"))).collect();
        let st = MirroredStore::new(p.clone(), m.clone(), stripe).unwrap();
        st.put("x", &payload).unwrap();
        let pos = victim % payload.len();
        let layout = StripeLayout::new(stripe, servers);
        let srv = layout.server_of(pos as u64) as usize;
        let shard = if group == 0 { &p[srv] } else { &m[srv] }.join("x");
        let good_shard = std::fs::read(&shard).unwrap();
        let mut raw = good_shard.clone();
        raw[layout.local_offset_of(pos as u64) as usize] ^= 1 << bit;
        std::fs::write(&shard, &raw).unwrap();
        // Reads never leak the corruption (read-repair refetches from the
        // partner when the plan lands on the bad copy)...
        prop_assert_eq!(read_all(&st, "x").unwrap(), payload.clone());
        // ...and one scrub pass guarantees the on-disk copy heals.
        let mut limiter = parblast::pio::RateLimiter::new(0);
        let (_repaired, unrepairable) = st.scrub_object("x", &mut limiter).unwrap();
        prop_assert!(unrepairable.is_empty(), "{unrepairable:?}");
        prop_assert!(st.monitor().repaired_stripes() >= 1);
        prop_assert_eq!(std::fs::read(&shard).unwrap(), good_shard);
        prop_assert_eq!(read_all(&st, "x").unwrap(), payload);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Real mirrored store: any subset of primary servers dead — replicas
    /// deleted from disk — still round-trips via the mirror partners.
    #[test]
    fn mirrored_store_round_trip_with_dead_primaries(
        stripe in 1u64..500,
        servers in 1u32..4,
        payload in proptest::collection::vec(any::<u8>(), 1..8_000),
        dead_mask in 0u16..8,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_dead_{}_{}",
            std::process::id(),
            stripe * 13 + servers as u64 + dead_mask as u64 * 101
        ));
        let p: Vec<_> = (0..servers).map(|i| base.join(format!("p{i}"))).collect();
        let m: Vec<_> = (0..servers).map(|i| base.join(format!("m{i}"))).collect();
        let st = MirroredStore::new(p.clone(), m, stripe).unwrap();
        st.put("x", &payload).unwrap();
        for i in 0..servers {
            if dead_mask & (1 << i) != 0 {
                st.monitor().mark_dead(ServerId { group: 0, index: i });
                std::fs::remove_file(p[i as usize].join("x")).ok();
            }
        }
        prop_assert_eq!(read_all(&st, "x").unwrap(), payload);
        std::fs::remove_dir_all(&base).ok();
    }

    /// List-I/O equivalence: `read_many_at` over an arbitrary region list
    /// — ragged tails, adjacent and repeated offsets included — returns
    /// exactly the payload's bytes for those regions, concatenated, and so
    /// does each region's own `read_at`, on both the striped and the
    /// mirrored store. Either way a call submits at most one reader-pool
    /// job per server lane: a list costs no more requests than one region.
    #[test]
    fn read_many_at_equals_concatenated_read_at(
        stripe in 1u64..700,
        servers in 1usize..5,
        payload in proptest::collection::vec(any::<u8>(), 1..12_000),
        words in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_listio_{}_{}",
            std::process::id(),
            stripe * 37 + servers as u64
        ));
        let n_bytes = payload.len() as u64;
        let regions: Vec<(u64, u64)> = words
            .iter()
            .map(|w| {
                let off = w % n_bytes;
                let len = 1 + (w >> 16) % (n_bytes - off);
                (off, len)
            })
            .collect();
        let slice = |(off, len): (u64, u64)| &payload[off as usize..(off + len) as usize];
        let want: Vec<u8> = regions.iter().flat_map(|&r| slice(r).to_vec()).collect();
        let sdirs: Vec<_> = (0..servers).map(|i| base.join(format!("s{i}"))).collect();
        let st = StripedStore::new(sdirs, stripe).unwrap();
        st.put("x", &payload).unwrap();
        let p: Vec<_> = (0..servers).map(|i| base.join(format!("p{i}"))).collect();
        let m: Vec<_> = (0..servers).map(|i| base.join(format!("m{i}"))).collect();
        let mst = MirroredStore::new(p, m, stripe).unwrap();
        mst.put("x", &payload).unwrap();
        // Striped: one lane per server; mirrored: two groups of them.
        let stores: [(&dyn ObjectStore, &dyn Fn() -> u64, usize); 2] = [
            (&st, &|| st.server_requests(), servers),
            (&mst, &|| mst.server_requests(), 2 * servers),
        ];
        for (store, requests, lanes) in stores {
            let mut r = store.open("x").unwrap();
            for &region in &regions {
                let mut buf = vec![0u8; region.1 as usize];
                let before = requests();
                r.read_at(region.0, &mut buf).unwrap();
                let jobs = requests() - before;
                prop_assert_eq!(&buf[..], slice(region));
                prop_assert!(jobs <= lanes as u64, "read_at {:?} shipped {} jobs for {} lanes", region, jobs, lanes);
            }
            let before = requests();
            let got = r.read_many_at(&regions).unwrap();
            let jobs = requests() - before;
            prop_assert_eq!(&got, &want);
            prop_assert!(jobs <= lanes as u64, "list shipped {} jobs for {} lanes", jobs, lanes);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// List-I/O integrity is region-by-region: a flipped bit under one
    /// region of a list fails the whole list with the typed corrupt error
    /// (striped — no redundancy to repair with), while a list touching
    /// only clean stripes still reads back byte-identical.
    #[test]
    fn list_read_corruption_is_detected_per_region(
        stripe in 8u64..300,
        servers in 1usize..4,
        payload in proptest::collection::vec(any::<u8>(), 64..6_000),
        victim in 0usize..6_000,
        bit in 0u8..8,
    ) {
        let base = std::env::temp_dir().join(format!(
            "prop_listio_rot_{}_{}",
            std::process::id(),
            stripe * 41 + servers as u64
        ));
        let dirs: Vec<_> = (0..servers).map(|i| base.join(format!("s{i}"))).collect();
        let st = StripedStore::new(dirs.clone(), stripe).unwrap();
        st.put("x", &payload).unwrap();
        let n_bytes = payload.len() as u64;
        // Cover the object with four regions (ragged tail on the last).
        let q = n_bytes.div_ceil(4);
        let regions: Vec<(u64, u64)> = (0..4)
            .map(|i| (i * q, q.min(n_bytes - i * q)))
            .filter(|&(_, len)| len > 0)
            .collect();
        // Rot one bit behind the store's back.
        let pos = victim % payload.len();
        let layout = StripeLayout::new(stripe, servers as u32);
        let shard = dirs[layout.server_of(pos as u64) as usize].join("x");
        let mut raw = std::fs::read(&shard).unwrap();
        raw[layout.local_offset_of(pos as u64) as usize] ^= 1 << bit;
        std::fs::write(&shard, &raw).unwrap();
        let mut r = st.open("x").unwrap();
        let err = r.read_many_at(&regions).unwrap_err();
        prop_assert!(
            parblast::pio::is_corrupt(&err),
            "flip of byte {pos} bit {bit} not reported corrupt by list read: {err}"
        );
        // Regions whose stripe span avoids the rotten stripe stay clean.
        let bad_stripe = pos as u64 / stripe;
        let clean: Vec<(u64, u64)> = regions
            .iter()
            .copied()
            .filter(|&(off, len)| {
                let first = off / stripe;
                let last = (off + len - 1) / stripe;
                bad_stripe < first || bad_stripe > last
            })
            .collect();
        if !clean.is_empty() {
            let got = r.read_many_at(&clean).unwrap();
            let mut want = Vec::new();
            for &(off, len) in &clean {
                want.extend_from_slice(&payload[off as usize..(off + len) as usize]);
            }
            prop_assert_eq!(got, want);
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
