//! Ungapped X-drop extension (the first BLAST stage after a word hit).
//!
//! From a seed word match the alignment is extended residue-by-residue in
//! both directions along the diagonal; each direction stops once the
//! running score falls more than `x_drop` below the best seen. Returns the
//! maximal-scoring ungapped segment (HSP) containing the seed.
//!
//! Two routines compute the same segment. [`extend_ungapped`] reads one
//! byte per residue; it is the reference ([`crate::baseline`] runs it).
//! [`extend_ungapped_packed`] reads the 2-bit packed subject and a
//! [`PackedQuery`] four bases a step, so the kernel never unpacks a
//! subject to extend a seed.

use parblast_seqdb::pack_2bit;

use crate::gapped::pick;
use crate::matrix::Scorer;

/// An ungapped high-scoring segment pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UngappedHsp {
    /// Raw score.
    pub score: i32,
    /// Query start (inclusive).
    pub q_start: usize,
    /// Query end (exclusive).
    pub q_end: usize,
    /// Subject start (inclusive).
    pub s_start: usize,
    /// Subject end (exclusive).
    pub s_end: usize,
}

impl UngappedHsp {
    /// Alignment length.
    pub fn len(&self) -> usize {
        self.q_end - self.q_start
    }

    /// True for degenerate empty segments.
    pub fn is_empty(&self) -> bool {
        self.q_end == self.q_start
    }

    /// Diagonal (subject − query).
    pub fn diagonal(&self) -> i64 {
        self.s_start as i64 - self.q_start as i64
    }
}

/// Extend a seed of `seed_len` residues at `(qpos, spos)` in both
/// directions with X-drop `x_drop` (raw-score units).
pub fn extend_ungapped(
    query: &[u8],
    subject: &[u8],
    qpos: usize,
    spos: usize,
    seed_len: usize,
    scorer: &Scorer,
    x_drop: i32,
) -> UngappedHsp {
    debug_assert!(qpos + seed_len <= query.len());
    debug_assert!(spos + seed_len <= subject.len());
    let seed_score: i32 = (0..seed_len)
        .map(|i| scorer.score(query[qpos + i], subject[spos + i]))
        .sum();

    // Rightward from the end of the seed.
    let mut best = seed_score;
    let mut run = seed_score;
    let mut best_right = seed_len; // offset past qpos
    {
        let mut i = seed_len;
        while qpos + i < query.len() && spos + i < subject.len() {
            run += scorer.score(query[qpos + i], subject[spos + i]);
            i += 1;
            if run > best {
                best = run;
                best_right = i;
            } else if run <= best - x_drop {
                break;
            }
        }
    }

    // Leftward from the start of the seed.
    let mut run_left = best;
    let mut best_total = best;
    let mut best_left = 0usize; // residues extended left of qpos
    {
        let mut i = 0usize;
        while qpos > i && spos > i {
            run_left += scorer.score(query[qpos - i - 1], subject[spos - i - 1]);
            i += 1;
            if run_left > best_total {
                best_total = run_left;
                best_left = i;
            } else if run_left <= best_total - x_drop {
                break;
            }
        }
    }

    // Trim: the maximal segment may start after low-scoring prefix inside
    // the seed; BLAST keeps the seed-containing segment, which is what the
    // two passes above produce.
    UngappedHsp {
        score: best_total,
        q_start: qpos - best_left,
        q_end: qpos + best_right,
        s_start: spos - best_left,
        s_end: spos + best_right,
    }
}

/// A query strand packed four times for [`extend_ungapped_packed`]: copy
/// `r` is the strand behind `r` bases of padding, 2-bit packed like a
/// subject ([`pack_2bit`]), so that the four query bases from any position
/// are one byte of one copy.
pub struct PackedQuery {
    len: usize,
    phases: [Vec<u8>; 4],
}

impl PackedQuery {
    /// Pack `codes`, 2-bit nucleotide codes (0..=3).
    pub fn new(codes: &[u8]) -> Self {
        debug_assert!(codes.iter().all(|&c| c < 4), "2-bit codes only");
        let phases = std::array::from_fn(|r| {
            let padded: Vec<u8> = std::iter::repeat_n(0, r)
                .chain(codes.iter().copied())
                .collect();
            pack_2bit(&padded)
        });
        PackedQuery {
            len: codes.len(),
            phases,
        }
    }

    /// Bases `q .. q + 4` as one packed byte, first base in the top bits.
    #[inline(always)]
    fn quad(&self, q: usize) -> u8 {
        let r = q.wrapping_neg() % 4;
        self.phases[r][(q + r) / 4]
    }
}

/// Base `i` of 2-bit packed bases.
#[inline(always)]
fn base(packed: &[u8], i: usize) -> u8 {
    packed[i / 4] >> (6 - 2 * (i % 4)) & 3
}

/// Bases `s .. s + 4` of 2-bit packed bases as one byte, first base in the
/// top bits; bases past the end of `packed` read as 0.
#[inline(always)]
fn quad_at(packed: &[u8], s: usize) -> u8 {
    let next = packed.get(s / 4 + 1).copied().unwrap_or(0);
    (u16::from_be_bytes([packed[s / 4], next]) << (2 * (s % 4)) >> 8) as u8
}

/// Four pairs of an ungapped walk taken as one step, scores measured from
/// the step's start.
#[derive(Clone, Copy, Default)]
struct Quad {
    /// The running score after each pair.
    after: [i32; 4],
    /// The highest of `after`.
    peak: i32,
    /// Pairs up to the first `peak`.
    peak_len: usize,
    /// The lowest of `after`, negated.
    dip: i32,
    /// The largest fall from one of `after` to a later one.
    fall: i32,
}

/// The step table of [`extend_ungapped_packed`] for one scoring system:
/// for every XOR of a packed subject byte with a packed query byte (a zero
/// base pair is a match), in both walking directions, the running scores
/// of its four pairs and what decides whether the X-drop fires among them.
pub struct UngappedTable {
    reward: i32,
    penalty: i32,
    /// First base first: the rightward walk.
    forward: Box<[Quad; 256]>,
    /// Last base first: the leftward walk.
    backward: Box<[Quad; 256]>,
}

impl UngappedTable {
    /// The tables of `scorer`.
    pub fn new(scorer: &Scorer) -> Self {
        let Scorer::Nucleotide { reward, penalty } = *scorer;
        let table = |first_base_first: bool| {
            let mut quads = Box::new([Quad::default(); 256]);
            for (xor, quad) in quads.iter_mut().enumerate() {
                let (mut run, mut high) = (0, i32::MIN);
                (quad.peak, quad.dip, quad.fall) = (i32::MIN, i32::MIN, i32::MIN);
                for t in 0..4 {
                    let shift = if first_base_first { 6 - 2 * t } else { 2 * t };
                    run += if xor >> shift & 3 == 0 {
                        reward
                    } else {
                        penalty
                    };
                    quad.after[t] = run;
                    if run > quad.peak {
                        (quad.peak, quad.peak_len) = (run, t + 1);
                    }
                    quad.dip = quad.dip.max(-run);
                    quad.fall = quad.fall.max(high.saturating_sub(run));
                    high = high.max(run);
                }
            }
            quads
        };
        UngappedTable {
            reward,
            penalty,
            forward: table(true),
            backward: table(false),
        }
    }

    #[inline(always)]
    fn score(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.reward
        } else {
            self.penalty
        }
    }
}

/// One direction of an ungapped X-drop walk: the running score, the best
/// score so far, and how many pairs the walk and its best prefix span.
struct Walk {
    run: i32,
    best: i32,
    best_len: usize,
    len: usize,
}

impl Walk {
    /// One more pair, scoring `score`; false once the X-drop fires. The
    /// rule of [`extend_ungapped`]'s loops.
    #[inline(always)]
    fn pair(&mut self, score: i32, x_drop: i32) -> bool {
        self.run += score;
        self.len += 1;
        if self.run > self.best {
            (self.best, self.best_len) = (self.run, self.len);
            true
        } else {
            self.run > self.best - x_drop
        }
    }

    /// Four more pairs, `x_drop >= 0`; false once the X-drop fires, and
    /// then `best` and `best_len` are final and nothing else is.
    /// [`Walk::pair`] four times: the X-drop fires inside the step exactly
    /// when a running score in it falls to `best − x_drop` of the `best`
    /// before the step (`dip`) or of one the step sets itself (`fall`). If
    /// it does not, the step is its `peak` and its sum; if it does, the
    /// pairs before the firing one are taken one at a time, unrolled
    /// without a branch, and the walk ends. Whether it fires is the one
    /// branch, and it needs only the table entry and `best − run`.
    #[inline(always)]
    fn quad(&mut self, quad: &Quad, x_drop: i32) -> bool {
        if (self.best - self.run + quad.dip >= x_drop) | (quad.fall >= x_drop) {
            let mut alive = true;
            for (t, &after) in quad.after.iter().enumerate() {
                let run = self.run + after;
                let better = alive & (run > self.best);
                alive &= better | (run > self.best - x_drop);
                self.best = pick(better, run, self.best);
                self.best_len = pick(better, self.len + t + 1, self.best_len);
            }
            debug_assert!(!alive, "the X-drop fires inside the step");
            return false;
        }
        let peak = self.run + quad.peak;
        let better = peak > self.best;
        self.best = pick(better, peak, self.best);
        self.best_len = pick(better, self.len + quad.peak_len, self.best_len);
        self.run += quad.after[3];
        self.len += 4;
        true
    }
}

/// [`extend_ungapped`] on packed bases: the seed of `seed_len` residues at
/// `(qpos, spos)` of `query` and of the first `slen` bases of `subject`
/// (2-bit packed, [`pack_2bit`] layout) extended in both directions with
/// X-drop `x_drop`, under the scoring system `table` was built for. The
/// seed must be an exact match (every lookup seed is), so it scores
/// `seed_len` rewards without being read. Returns what [`extend_ungapped`]
/// returns on the unpacked bases.
///
/// Each walk takes four pairs a step: the XOR of the subject's next four
/// bases with the query's (one byte of the [`PackedQuery`] copy in phase
/// with them) indexes a table entry that scores all four and says whether
/// the X-drop can fire among them. Only in the step where it can, and in
/// the last few pairs before either sequence ends, does the walk go one
/// pair at a time.
#[allow(clippy::too_many_arguments)]
pub fn extend_ungapped_packed(
    query: &PackedQuery,
    subject: &[u8],
    slen: usize,
    qpos: usize,
    spos: usize,
    seed_len: usize,
    table: &UngappedTable,
    x_drop: i32,
) -> UngappedHsp {
    debug_assert!(qpos + seed_len <= query.len && spos + seed_len <= slen);
    debug_assert!(
        (0..seed_len).all(|k| base(&query.phases[0], qpos + k) == base(subject, spos + k)),
        "the seed is an exact match"
    );
    let pair = |q: usize, s: usize| table.score(base(&query.phases[0], q), base(subject, s));
    let seed_score = seed_len as i32 * table.reward;
    // Below zero the X-drop fires at every pair that sets no new best, as
    // at zero.
    let x_drop = x_drop.max(0);

    // Rightward from the end of the seed.
    let mut right = Walk {
        run: seed_score,
        best: seed_score,
        best_len: seed_len,
        len: seed_len,
    };
    let end = (query.len - qpos).min(slen - spos);
    'right: {
        while right.len + 4 <= end {
            let (q, s) = (qpos + right.len, spos + right.len);
            let quad = &table.forward[(quad_at(subject, s) ^ query.quad(q)) as usize];
            if !right.quad(quad, x_drop) {
                break 'right;
            }
        }
        while right.len < end {
            if !right.pair(pair(qpos + right.len, spos + right.len), x_drop) {
                break 'right;
            }
        }
    }

    // Leftward from the start of the seed.
    let mut left = Walk {
        run: right.best,
        best: right.best,
        best_len: 0,
        len: 0,
    };
    let end = qpos.min(spos);
    'left: {
        while left.len + 4 <= end {
            let (q, s) = (qpos - left.len - 4, spos - left.len - 4);
            let quad = &table.backward[(quad_at(subject, s) ^ query.quad(q)) as usize];
            if !left.quad(quad, x_drop) {
                break 'left;
            }
        }
        while left.len < end {
            let (q, s) = (qpos - left.len - 1, spos - left.len - 1);
            if !left.pair(pair(q, s), x_drop) {
                break 'left;
            }
        }
    }

    UngappedHsp {
        score: left.best,
        q_start: qpos - left.best_len,
        q_end: qpos + right.best_len,
        s_start: spos - left.best_len,
        s_end: spos + right.best_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_seqdb::encode_nt_seq;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn nt() -> Scorer {
        Scorer::Nucleotide {
            reward: 1,
            penalty: -3,
        }
    }

    #[test]
    fn perfect_match_extends_fully() {
        let q = encode_nt_seq(b"ACGTACGTACGTACGT");
        let s = q.clone();
        // Seed at position 6, length 4.
        let h = extend_ungapped(&q, &s, 6, 6, 4, &nt(), 20);
        assert_eq!(h.q_start, 0);
        assert_eq!(h.q_end, 16);
        assert_eq!(h.score, 16);
        assert_eq!(h.diagonal(), 0);
    }

    #[test]
    fn extension_stops_at_mismatch_wall() {
        // 8 matching bases then pure mismatches on both sides.
        let q = encode_nt_seq(b"CCCCACGTACGTCCCC");
        let s = encode_nt_seq(b"GGGGACGTACGTGGGG");
        let h = extend_ungapped(&q, &s, 4, 4, 4, &nt(), 6);
        assert_eq!((h.q_start, h.q_end), (4, 12));
        assert_eq!(h.score, 8);
    }

    #[test]
    fn xdrop_tolerates_isolated_mismatch() {
        // Match run, one mismatch, longer match run: with a generous
        // X-drop the extension crosses the mismatch.
        let q = encode_nt_seq(b"ACGTACGTAACGTACGTACG");
        let mut s = q.clone();
        s[10] = (s[10] + 1) & 3; // single mismatch at 10
        let h = extend_ungapped(&q, &s, 0, 0, 4, &nt(), 10);
        assert_eq!(h.q_start, 0);
        assert_eq!(h.q_end, 20);
        assert_eq!(h.score, 19 - 3); // 19 matches, 1 mismatch
    }

    #[test]
    fn small_xdrop_stops_at_mismatch() {
        let q = encode_nt_seq(b"ACGTACGTAACGTACGTACG");
        let mut s = q.clone();
        s[10] = (s[10] + 1) & 3;
        // X-drop 3 < mismatch penalty of 3+? running drop after mismatch
        // is 3, needs (run <= best - x): with x=3 the drop of exactly 3
        // stops only if no recovery first; use x=2 to force the stop.
        let h = extend_ungapped(&q, &s, 0, 0, 4, &nt(), 2);
        assert_eq!(h.q_end, 10);
        assert_eq!(h.score, 10);
    }

    #[test]
    fn respects_sequence_bounds() {
        let q = encode_nt_seq(b"ACGT");
        let s = encode_nt_seq(b"TTACGTTT");
        let h = extend_ungapped(&q, &s, 0, 2, 4, &nt(), 10);
        assert_eq!((h.q_start, h.q_end), (0, 4));
        assert_eq!((h.s_start, h.s_end), (2, 6));
        assert_eq!(h.score, 4);
    }

    #[test]
    fn seed_at_origin() {
        let q = encode_nt_seq(b"ACGTAAAA");
        let s = encode_nt_seq(b"ACGTCCCC");
        let h = extend_ungapped(&q, &s, 0, 0, 4, &nt(), 3);
        assert_eq!(h.q_start, 0);
        assert_eq!(h.score, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The packed walk returns the byte-wise walk's segment: every
        /// `(qp − sp) mod 4`, seeds at either end or inside of either
        /// sequence, lengths up to 300, W 4..=12, `x_drop` 1..=40 (and
        /// the clamped 0 and below), both scorers, unrelated subjects (the
        /// walks die within a few steps) and subjects that copy the query
        /// along the seed's diagonal with 1 substitution in 8 (they run to
        /// a sequence end or die mid-way).
        #[test]
        fn packed_extension_equals_byte_wise(
            seed in any::<u64>(),
            lens in (0usize..=300, 0usize..=300),
            word in 4usize..=12,
            x_drop in -2i32..=40,
            // Where the seed sits: 0 start, 1 end, 2 anywhere.
            ends in (0u8..3, 0u8..3),
            phase in 0usize..4,
            minus_two in any::<bool>(),
            related in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut qlen, mut slen) = (lens.0.max(word), lens.1.max(word));
            let place = |kind: u8, len: usize, rng: &mut StdRng| match kind {
                0 => 0,
                1 => len - word,
                _ => rng.random_range(0..len - word + 1),
            };
            let (mut qp, mut sp) = (place(ends.0, qlen, &mut rng), place(ends.1, slen, &mut rng));
            // Grow one sequence by up to three bases in front of (or,
            // for a seed at its start, instead of) the seed so that
            // `qp − sp ≡ phase`; two seeds at their starts are phase 0.
            let delta = (qp as isize - sp as isize - phase as isize).rem_euclid(4) as usize;
            if ends.1 != 0 {
                slen += delta;
                sp += delta;
            } else if ends.0 != 0 {
                let delta = (4 - delta) % 4;
                qlen += delta;
                qp += delta;
            }
            let q: Vec<u8> = (0..qlen).map(|_| rng.random_range(0..4u8)).collect();
            let mut s: Vec<u8> = (0..slen)
                .map(|k| match (k + qp).checked_sub(sp).and_then(|at| q.get(at)) {
                    Some(&c) if related && rng.random_range(0..8u32) != 0 => c,
                    _ => rng.random_range(0..4u8),
                })
                .collect();
            s[sp..sp + word].copy_from_slice(&q[qp..qp + word]);
            let scorer = Scorer::Nucleotide { reward: 1, penalty: if minus_two { -2 } else { -3 } };
            let want = extend_ungapped(&q, &s, qp, sp, word, &scorer, x_drop);
            let got = extend_ungapped_packed(
                &PackedQuery::new(&q),
                &pack_2bit(&s),
                slen,
                qp,
                sp,
                word,
                &UngappedTable::new(&scorer),
                x_drop,
            );
            prop_assert_eq!(got, want, "q={:?} s={:?} at ({}, {})", &q, &s, qp, sp);
        }
    }
}
