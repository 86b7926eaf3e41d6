//! The blastn query word lookup.
//!
//! [`BatchedNtLookup`]: exact `w`-mer matching through a table over the
//! first `min(w, 8)` bases of every query word (as NCBI's blastn indexes
//! byte-aligned 8-mers for its default `W=11`), scanned a stride of bases
//! at a time and shared by up to 16 query contexts.

use crate::dust::word_masked;

/// Most contexts a [`BatchedNtLookup`] can merge: 8 queries × 2 strands.
pub const MAX_BATCH_CONTEXTS: usize = 16;

/// One query context for a [`BatchedNtLookup`]: its 2-bit codes plus the
/// soft-mask intervals to exclude from seeding (empty slice = unmasked).
pub type MaskedContext<'a> = (&'a [u8], &'a [(usize, usize)]);

/// Most bases that address a table cell: 4^8 presence bits are 8 KB.
const LUT_MAX: usize = 8;
/// Words of the widest presence vector.
const PV_WORDS: usize = (1 << (2 * LUT_MAX)) / 64;
/// Most bases between two visited windows: one packed byte.
const STRIDE_MAX: usize = 4;
/// Bases of context kept before a cell's word ([`Entry::around`]).
const LEAD: usize = 4;
/// Stage one reads the subject in chunks of 12 bases (three packed
/// bytes): a whole number of windows at every stride 1..=4.
const CHUNK_BASES: usize = 12;
/// Most survivors of one pass of stage one; the block lives on the
/// scanner's stack.
const BLOCK: usize = 1024;
/// Chunks per pass of stage one: at stride 1 every base of a chunk is a
/// window and all may survive.
const BLOCK_CHUNKS: usize = BLOCK / CHUNK_BASES;

/// One query position of one context, filed under the cell of the
/// `lut_w`-mer that starts there.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// The 16 query bases `[qpos − 4, qpos + 12)`, 2 bits each, first base
    /// in the top bits; bases outside the query read as 0 (`seedable`
    /// keeps them from counting).
    around: u32,
    /// Query position of the cell's `lut_w`-mer.
    qpos: u32,
    ctx: u8,
    /// Bit `o` set iff the `W`-mer starting at `qpos − o` lies inside the
    /// query and outside every masked interval.
    seedable: u8,
}

/// The blastn seed lookup: merges up to [`MAX_BATCH_CONTEXTS`] query
/// contexts (each query contributes a plus- and a minus-strand context)
/// into ONE table, so a single pass over a packed fragment serves the
/// whole batch. A single query is a batch of one: its two strands still
/// share the pass.
///
/// Query words are filed by their first `lut_w = min(W, 8)` bases (their
/// *cell*), and the scan visits the subject every
/// `stride = min(4, W − lut_w + 1)` bases: every `W`-mer contains exactly
/// one visited `lut_w`-mer among its first `stride` offsets, so no match
/// is missed and none is seen twice. At the blastn default `W = 11` a
/// window is two packed bytes and the scan steps one byte.
///
/// * `pv` is the presence bit vector (NCBI's `pv_array`) over the
///   `4^lut_w` cells: bit `c` set iff some context has a seedable word in
///   cell `c`. At most 8 KB, so the almost-always-miss test of stage one
///   stays in L1.
/// * `first[c]` is the index in `entries` of present cell `c`'s first
///   entry (and meaningless for an absent one). A cell's entries are
///   adjacent, by context and then query position — the order B
///   sequential per-context scans would report them in — and end where
///   the next entry's cell differs. A sentinel follows the last: it is
///   never seedable, so it is harmless where it reads as one more entry
///   of the last cell.
pub struct BatchedNtLookup {
    /// Word size (≤ 12: a word and its stride fit the 16-base context).
    pub word: usize,
    lut_w: usize,
    stride: usize,
    /// `offset_masks[o]` covers, in [`Entry::around`] coordinates, the
    /// `W`-mer that starts `o` bases before the cell's word.
    offset_masks: [u32; STRIDE_MAX],
    /// Covers the cell's own bases in [`Entry::around`] coordinates.
    cell_mask: u32,
    pv: Box<[u64; PV_WORDS]>,
    first: Vec<u32>,
    entries: Vec<Entry>,
}

/// The 32 subject bases from `p − LEAD` on as one big-endian word (first
/// base in the top bits, so the upper half is the window's
/// [`Entry::around`]); zero outside `packed`.
#[inline(always)]
fn bases_around(packed: &[u8], p: usize) -> u64 {
    // Bytes `[p/4 − 1, p/4 + 7)` hold the 32 bases from `p − p%4 − 4` on.
    let inside = (p / 4).checked_sub(1).and_then(|j| packed.get(j..j + 8));
    let bytes = match inside {
        Some(b) => u64::from_be_bytes(b.try_into().expect("an 8-byte slice")),
        None => bytes_padded(packed, p / 4),
    };
    bytes << (2 * (p % 4))
}

/// The bytes `[j − 1, j + 7)` of `packed` as one big-endian word, zero
/// where there is none.
#[cold]
#[inline(never)]
fn bytes_padded(packed: &[u8], j: usize) -> u64 {
    (j..j + 8).fold(0, |w, at| {
        let b = at.checked_sub(1).and_then(|at| packed.get(at));
        w << 8 | b.copied().unwrap_or(0) as u64
    })
}

impl BatchedNtLookup {
    /// Build over a batch of 2-bit-coded query contexts. Panics if `word`
    /// is 0 or > 12 or more than [`MAX_BATCH_CONTEXTS`] contexts are
    /// supplied.
    pub fn build(contexts: &[&[u8]], word: usize) -> Self {
        let masked: Vec<MaskedContext> = contexts.iter().map(|&c| (c, &[][..])).collect();
        Self::build_masked(&masked, word)
    }

    /// Build with per-context soft masking: query words overlapping a
    /// masked interval produce no seeds (NCBI blastn's DUST behaviour).
    pub fn build_masked(contexts: &[MaskedContext], word: usize) -> Self {
        assert!(word > 0 && word <= 12, "word size must be 1..=12");
        assert!(
            contexts.len() <= MAX_BATCH_CONTEXTS,
            "at most {MAX_BATCH_CONTEXTS} contexts per batched lookup"
        );
        let lut_w = word.min(LUT_MAX);
        let stride = (word - lut_w + 1).min(STRIDE_MAX);
        let cells = 1usize << (2 * lut_w);
        let cell_of = |e: &Entry| Self::cell_in((e.around as u64) << 32, LEAD, lut_w);
        let mut offset_masks = [0u32; STRIDE_MAX];
        for (o, m) in offset_masks.iter_mut().enumerate().take(stride) {
            *m = (((1u64 << (2 * word)) - 1) << (32 - 2 * (LEAD - o + word))) as u32;
        }

        // Every seedable position, contexts in order and positions
        // ascending within each.
        let total: usize = contexts.iter().map(|(q, _)| q.len()).sum();
        let mut found: Vec<Entry> = Vec::with_capacity(total);
        for (ctx, (query, mask)) in contexts.iter().enumerate() {
            if query.len() < word {
                continue;
            }
            let code = |i: usize| query.get(i).map_or(0, |&c| (c & 3) as u32);
            // Rolled so that inside the loop it holds bases
            // `[qpos − 4, qpos + 12)`.
            let mut around = (0..15 - LEAD).fold(0u32, |a, i| a << 2 | code(i));
            let mut seedable = 0u8;
            for qpos in 0..=query.len() - lut_w {
                around = around << 2 | code(qpos + 15 - LEAD);
                let ok = qpos + word <= query.len() && !word_masked(mask, qpos, word);
                seedable = (seedable << 1 | ok as u8) & ((1 << stride) - 1);
                if seedable != 0 {
                    found.push(Entry {
                        around,
                        qpos: qpos as u32,
                        ctx: ctx as u8,
                        seedable,
                    });
                }
            }
        }

        // Counting sort by cell, touching the present cells only: count,
        // turn the counts into each cell's end walking the set bits of
        // `pv`, then place the entries last to first. That is stable, so
        // every cell's entries stay in (ctx asc, qpos asc) order.
        let mut pv = Box::new([0u64; PV_WORDS]);
        let mut first = vec![0u32; cells];
        for e in &found {
            let cell = cell_of(e);
            pv[cell / 64] |= 1 << (cell % 64);
            first[cell] += 1;
        }
        let mut end = 0;
        for (w, &word) in pv.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let cell = w * 64 + bits.trailing_zeros() as usize;
                end += first[cell];
                first[cell] = end;
                bits &= bits - 1;
            }
        }
        let cell_mask = ((cells - 1) as u32) << (32 - 2 * (LEAD + lut_w));
        // One more than found: a sentinel, never seedable, so that every
        // entry has a successor to be compared with.
        let mut entries = vec![Entry::default(); found.len() + 1];
        for e in found.iter().rev() {
            let at = &mut first[cell_of(e)];
            *at -= 1;
            entries[*at as usize] = *e;
        }
        BatchedNtLookup {
            word,
            lut_w,
            stride,
            offset_masks,
            cell_mask,
            pv,
            first,
            entries,
        }
    }

    /// Whether any context has a seedable word in `cell`, as 0 or 1.
    #[inline(always)]
    fn present(&self, cell: usize) -> usize {
        (self.pv[cell / 64 % PV_WORDS] >> (cell % 64) & 1) as usize
    }

    /// The cell of the `lut_w`-mer at base `at` of `bases`, 32 subject
    /// bases as one big-endian word.
    #[inline(always)]
    fn cell_in(bases: u64, at: usize, lut_w: usize) -> usize {
        (bases >> (64 - 2 * (at + lut_w))) as usize & ((1 << (2 * lut_w)) - 1)
    }

    /// Stage one over chunks `c0..c1` of `packed`, each of which must have
    /// its eight bytes inside it: append the start of every window (every
    /// `STRIDE`-th base) whose cell is present to `out`, return how many.
    /// No branch depends on the presence test — at B=8 one window in four
    /// passes it, and a branch there mispredicts on most of them.
    fn filter<const STRIDE: usize>(
        &self,
        packed: &[u8],
        c0: usize,
        c1: usize,
        out: &mut [u32; BLOCK],
    ) -> usize {
        debug_assert!(c1 - c0 <= BLOCK_CHUNKS);
        // A stride above one means a word above eight bases.
        let lut_w = if STRIDE > 1 { LUT_MAX } else { self.lut_w };
        let mut n = 0;
        for c in c0..c1 {
            let at = c * CHUNK_BASES / 4;
            let bytes: [u8; 8] = packed[at..at + 8].try_into().expect("an 8-byte slice");
            let bases = u64::from_be_bytes(bytes);
            for i in (0..CHUNK_BASES).step_by(STRIDE) {
                // At most one survivor per window, so `n < BLOCK` here.
                out[n % BLOCK] = (c * CHUNK_BASES + i) as u32;
                n += self.present(Self::cell_in(bases, i, lut_w));
            }
        }
        n
    }

    /// The subject's 16 bases around the window at base `p`
    /// ([`Entry::around`] layout, zero outside `packed`) and the index of
    /// the first entry of its cell, which is present.
    #[inline(always)]
    fn candidates(&self, packed: &[u8], p: usize) -> (u32, usize) {
        let bases = bases_around(packed, p);
        let cell = Self::cell_in(bases, LEAD, self.lut_w);
        ((bases >> 32) as u32, self.first[cell] as usize)
    }

    /// Which of the `stride` W-mers around a window (bit `o`: the one
    /// starting `o` bases before it) equal entry `e`'s, given the
    /// subject's bases `around` the window.
    #[inline(always)]
    fn offsets_matching(&self, e: &Entry, around: u32) -> u8 {
        let differ = e.around ^ around;
        let mut equal = 0u8;
        for (o, &mask) in self.offset_masks.iter().enumerate() {
            equal |= u8::from(differ & mask == 0) << o;
        }
        equal & e.seedable
    }

    /// Stage two over `out[..n]`, the survivors of stage one: keep, in
    /// order, the windows whose cell's first entry matches at some offset
    /// (or whose cell has more entries than that one), return how many.
    /// Branch-free like stage one, and for the same reason: five survivors
    /// in six share only their `lut_w`-mer with a query.
    fn confirm(&self, packed: &[u8], out: &mut [u32; BLOCK], n: usize) -> usize {
        let mut kept = 0;
        for i in 0..n {
            let p = out[i];
            let (around, at) = self.candidates(packed, p as usize);
            let (e, next) = (&self.entries[at], &self.entries[at + 1]);
            let alone = (e.around ^ next.around) & self.cell_mask != 0;
            let hit = !alone | (self.offsets_matching(e, around) != 0);
            out[kept] = p;
            kept += hit as usize;
        }
        kept
    }

    /// Stage three for the window at base `p`, whose cell is present:
    /// report the exact W-mer matches among its cell's entries, by subject
    /// position (offsets high to low), then context, then query position.
    #[inline(always)]
    fn report<F: FnMut(u16, u32, u32)>(&self, packed: &[u8], nbases: usize, p: usize, f: &mut F) {
        let (around, at) = self.candidates(packed, p);
        let cell = self.entries[at].around & self.cell_mask;
        let same = |e: &&Entry| e.around & self.cell_mask == cell;
        let entries = || self.entries[at..].iter().take_while(same);
        let mut any = entries().fold(0, |any, e| any | self.offsets_matching(e, around));
        while any != 0 {
            let o = any.ilog2() as usize;
            any ^= 1 << o;
            // The subject's bases outside `0..nbases` read as 0 and may
            // equal a query's: such a W-mer is not in the subject.
            if p < o || p - o + self.word > nbases {
                continue;
            }
            for e in entries() {
                if self.offsets_matching(e, around) >> o & 1 != 0 {
                    f(e.ctx as u16, e.qpos - o as u32, (p - o) as u32);
                }
            }
        }
    }

    /// Scan a 2-bit packed subject of `nbases` residues ONCE for the
    /// whole batch, invoking `f(ctx, qpos, spos)` for every word hit of
    /// every merged context. The subject is never expanded: windows of
    /// `lut_w` bases are read straight from the packed bytes
    /// ([`pack_2bit`] layout), a block at a time, in three stages — a
    /// branch-free filter through the presence vector that collects the
    /// surviving windows, a branch-free comparison of each survivor's
    /// neighbourhood with its cell's first entry on packed words, and
    /// the ordered report of what is left. For each context `c`, the
    /// subsequence of calls with `ctx == c` is every unmasked exact word
    /// match of that context against the subject, ordered by subject
    /// position and then query position — the fused pass is a strict
    /// interleaving of the B per-context scans.
    ///
    /// [`pack_2bit`]: parblast_seqdb::pack_2bit
    pub fn scan_packed_batched<F: FnMut(u16, u32, u32)>(
        &self,
        packed: &[u8],
        nbases: usize,
        mut f: F,
    ) {
        if nbases < self.word {
            return;
        }
        debug_assert!(packed.len() >= nbases.div_ceil(4));
        // Windows start at multiples of `stride` and end inside the
        // subject: the last starts at or before `last`.
        let last = nbases - self.lut_w;
        // Chunks of windows only, with all eight bytes in `packed`.
        let chunks = ((last + 1) / CHUNK_BASES).min(packed.len().saturating_sub(5) / 3);
        let mut survivors = [0u32; BLOCK];
        for c0 in (0..chunks).step_by(BLOCK_CHUNKS) {
            let c1 = (c0 + BLOCK_CHUNKS).min(chunks);
            let n = match self.stride {
                1 => self.filter::<1>(packed, c0, c1, &mut survivors),
                2 => self.filter::<2>(packed, c0, c1, &mut survivors),
                3 => self.filter::<3>(packed, c0, c1, &mut survivors),
                _ => self.filter::<4>(packed, c0, c1, &mut survivors),
            };
            let n = self.confirm(packed, &mut survivors, n);
            for &p in &survivors[..n] {
                self.report(packed, nbases, p as usize, &mut f);
            }
        }
        // The subject's last few windows, read with zero padding.
        for p in (chunks * CHUNK_BASES..=last).step_by(self.stride) {
            let cell = Self::cell_in(bases_around(packed, p), LEAD, self.lut_w);
            if self.present(cell) == 1 {
                self.report(packed, nbases, p, &mut f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_seqdb::{encode_nt_seq, pack_2bit};
    use proptest::prelude::*;

    /// Every exact `word`-mer match of `query` in `subject` as `(qpos,
    /// spos)`, by subject position and then query position: what a scan
    /// must report for one context, found without any table.
    fn brute_force(query: &[u8], subject: &[u8], word: usize) -> Vec<(u32, u32)> {
        brute_force_batch(&[(query, &[])], subject, word)
            .into_iter()
            .map(|(_, qp, sp)| (qp, sp))
            .collect()
    }

    /// The whole callback sequence a scan owes for a batch, found without
    /// any table: every exact match of an unmasked query word, by subject
    /// position, then context, then query position.
    fn brute_force_batch(
        contexts: &[MaskedContext],
        subject: &[u8],
        word: usize,
    ) -> Vec<(u16, u32, u32)> {
        let mut out = vec![];
        for sp in 0..(subject.len() + 1).saturating_sub(word) {
            for (ctx, (query, mask)) in contexts.iter().enumerate() {
                for qp in 0..(query.len() + 1).saturating_sub(word) {
                    if query[qp..qp + word] == subject[sp..sp + word]
                        && !word_masked(mask, qp, word)
                    {
                        out.push((ctx as u16, qp as u32, sp as u32));
                    }
                }
            }
        }
        out
    }

    /// The callback sequence of one scan of `subject` (packed here).
    fn scan_batch(lk: &BatchedNtLookup, subject: &[u8]) -> Vec<(u16, u32, u32)> {
        let mut calls = vec![];
        lk.scan_packed_batched(&pack_2bit(subject), subject.len(), |ctx, qp, sp| {
            calls.push((ctx, qp, sp))
        });
        calls
    }

    /// Scan `subject` with a lookup of one context.
    fn scan_one(query: &[u8], word: usize, subject: &[u8]) -> Vec<(u32, u32)> {
        scan_batch(&BatchedNtLookup::build(&[query], word), subject)
            .into_iter()
            .map(|(ctx, qp, sp)| {
                assert_eq!(ctx, 0);
                (qp, sp)
            })
            .collect()
    }

    /// `n` pseudo-random bases.
    fn random_bases(n: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 30) as u8
            })
            .collect()
    }

    #[test]
    fn nt_lookup_finds_exact_words() {
        let q = encode_nt_seq(b"ACGTACGTTT");
        // Word "ACGT" occurs at positions 0 and 4.
        let hits = scan_one(&q, 4, &encode_nt_seq(b"GGACGTGG"));
        assert_eq!(hits, vec![(0, 2), (4, 2)]);
    }

    #[test]
    fn nt_lookup_no_false_hits() {
        let q = encode_nt_seq(b"AAAAAAAA");
        assert!(scan_one(&q, 6, &encode_nt_seq(b"CCCCCCCCCC")).is_empty());
    }

    #[test]
    fn nt_lookup_word_11_default() {
        // The blastn default word size used in the paper's searches.
        let q: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let hits = scan_one(&q, 11, &q);
        // Self-scan must include the diagonal (qp == sp) for every word.
        let diag = hits.iter().filter(|&&(q, s)| q == s).count();
        assert_eq!(diag, 64 - 10);
    }

    #[test]
    fn scan_packed_subject_shorter_than_word() {
        let q = encode_nt_seq(b"ACGTACGTACGT");
        assert!(scan_one(&q, 8, &encode_nt_seq(b"ACGTA")).is_empty());
        // Long enough for a table window, still shorter than the word.
        assert!(scan_one(&q, 11, &q[..10]).is_empty());
    }

    #[test]
    fn seeds_at_both_ends_of_the_subject_are_found() {
        // A word at every subject offset 0..=3 (before, at and between the
        // first windows) and ending exactly at the subject's last base, at
        // every tail length `nbases % 4`.
        let word = 11;
        let query = random_bases(40, 7);
        for lead in 0..=3 {
            for len in word + lead..word + lead + 8 {
                let mut subject = random_bases(len, 99);
                subject[lead..lead + word].copy_from_slice(&query[5..5 + word]);
                subject[len - word..].copy_from_slice(&query[20..20 + word]);
                let got = scan_one(&query, word, &subject);
                assert_eq!(
                    got,
                    brute_force(&query, &subject, word),
                    "lead {lead} len {len}"
                );
                assert!(got.contains(&(5, lead as u32)) || len - word < lead + word);
                assert!(got.contains(&(20, (len - word) as u32)));
            }
        }
    }

    #[test]
    fn contexts_sharing_a_cell_report_by_subject_position_first() {
        // Both contexts hold the 8-mer CCGGTTAA, so they share a cell. In
        // the subject it starts at base 4, one aligned window; context 1's
        // 11-mer starts 3 bases before it and context 0's 1 base before
        // it. Context 1 must be reported first: subject position decides
        // before the context does. (The subject is long enough for the
        // window to go through all three stages.)
        let eight = encode_nt_seq(b"CCGGTTAA");
        let subject = encode_nt_seq(b"TACGCCGGTTAAGTGTGTGTGTGTGTGTGTGTGTGTGTGTGTGT");
        let a = encode_nt_seq(b"GCCGGTTAAGT"); // subject[3..14]
        let b = encode_nt_seq(b"ACGCCGGTTAA"); // subject[1..12]
        assert_eq!(subject[4..12], eight[..]);
        let lk = BatchedNtLookup::build(&[&a, &b], 11);
        assert_eq!(scan_batch(&lk, &subject), vec![(1, 0, 1), (0, 0, 3)]);
        // With context 0's word broken the cell's first entry matches
        // nowhere, and its second still does.
        let subject = encode_nt_seq(b"TACGCCGGTTAAGAGTGTGTGTGTGTGTGTGTGTGTGTGTGTGT");
        assert_eq!(scan_batch(&lk, &subject), vec![(1, 0, 1)]);
    }

    #[test]
    fn an_exact_run_reports_every_word_once() {
        let run = random_bases(300, 3);
        for word in [8usize, 9, 10, 11, 12] {
            let hits = scan_one(&run, word, &run);
            assert_eq!(hits, brute_force(&run, &run, word), "word {word}");
            let diagonal = hits.iter().filter(|&&(q, s)| q == s).count();
            assert_eq!(diagonal, 300 - word + 1, "word {word}");
        }
    }

    #[test]
    fn a_seed_straddling_a_filter_block_is_found() {
        // Stage one hands over a block of BLOCK_CHUNKS chunks at a time;
        // plant words before, across and after its first two boundaries.
        let word = 11;
        let query = random_bases(60, 21);
        let edge = BLOCK_CHUNKS * CHUNK_BASES;
        let mut subject = random_bases(2 * edge + 500, 22);
        for (i, at) in [edge - 30, edge - 5, edge + 10, 2 * edge - 7, 2 * edge + 9]
            .into_iter()
            .enumerate()
        {
            subject[at..at + word].copy_from_slice(&query[4 * i..4 * i + word]);
        }
        let got = scan_one(&query, word, &subject);
        assert_eq!(got, brute_force(&query, &subject, word));
        assert!(got.len() >= 5);
    }

    #[test]
    fn batched_lookup_matches_brute_force_including_ragged_tails() {
        for len in [7usize, 16, 33, 250, 255] {
            let subject: Vec<u8> = (0..len).map(|i| ((i * 31 + 7) % 4) as u8).collect();
            // The first query is cut from the subject's own stream, so the
            // comparison is not of empty lists.
            let mut queries: Vec<Vec<u8>> =
                vec![(0..40).map(|i| ((i * 31 + 7) % 4) as u8).collect()];
            queries.extend((0..4).map(|q| {
                (0..30 + q * 7)
                    .map(|i| ((i * 13 + q * 5 + 3) % 4) as u8)
                    .collect()
            }));
            for word in [4usize, 8, 11, 12] {
                let ctxs: Vec<MaskedContext> = queries.iter().map(|q| (&q[..], &[][..])).collect();
                let calls = scan_batch(&BatchedNtLookup::build_masked(&ctxs, word), &subject);
                assert_eq!(
                    calls,
                    brute_force_batch(&ctxs, &subject, word),
                    "len {len} word {word}"
                );
                assert!(
                    word > 8 || len < word || calls.iter().any(|c| c.0 == 0),
                    "len {len} word {word}: vacuous comparison"
                );
            }
        }
    }

    #[test]
    fn a_full_batch_shares_cells_between_contexts() {
        // 16 contexts of 600 residues: 9 440 words in 65 536 cells, so
        // hundreds of cells hold words of several contexts.
        let queries: Vec<Vec<u8>> = (0..MAX_BATCH_CONTEXTS)
            .map(|c| random_bases(600, 12345 + c as u32))
            .collect();
        let ctxs: Vec<MaskedContext> = queries.iter().map(|q| (&q[..], &[][..])).collect();
        let lk = BatchedNtLookup::build_masked(&ctxs, 11);
        let mut subject = queries[3][100..400].to_vec();
        subject.extend(random_bases(300, 777));
        let calls = scan_batch(&lk, &subject);
        assert_eq!(calls, brute_force_batch(&ctxs, &subject, 11));
        assert!(calls.iter().filter(|c| c.0 == 3).count() >= 290);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The scan's whole callback sequence equals the brute-force
        /// matcher's: every word size, 1..=16 contexts, subjects of 0..=200
        /// bases (so every tail length), with and without masked
        /// intervals. Queries borrow pieces from one another, so that
        /// cells hold entries with different neighbourhoods, and the
        /// subject is spliced from query pieces, so that seeds occur at
        /// all word sizes, next to each other, and at both ends.
        #[test]
        fn scan_equals_brute_force(
            word in 4usize..=12,
            queries in proptest::collection::vec(
                proptest::collection::vec(0u8..4, 0..70),
                1..MAX_BATCH_CONTEXTS + 1,
            ),
            noise in proptest::collection::vec(0u8..4, 0..201),
            borrows in proptest::collection::vec((0usize..16, 0usize..16, 0usize..70, 4usize..30, 0usize..70), 0..6),
            splices in proptest::collection::vec((0usize..16, 0usize..70, 1usize..40, 0usize..200), 0..8),
            masks in proptest::collection::vec((0usize..70, 1usize..25), 0..6),
            masked in any::<bool>(),
        ) {
            // `src[from..][..len]` over `dst[at..]`, as far as both reach.
            fn splice(src: &[u8], from: usize, len: usize, dst: &mut [u8], at: usize) {
                let piece = &src[from.min(src.len())..(from + len).min(src.len())];
                let at = at.min(dst.len());
                let fits = piece.len().min(dst.len() - at);
                dst[at..at + fits].copy_from_slice(&piece[..fits]);
            }
            let mut queries = queries;
            for (a, b, from, len, at) in borrows {
                let src = queries[a % queries.len()].clone();
                let b = b % queries.len();
                splice(&src, from, len, &mut queries[b], at);
            }
            let mut subject = noise;
            for (ctx, from, len, at) in splices {
                splice(&queries[ctx % queries.len()], from, len, &mut subject, at);
            }
            // Context `c` takes every `queries.len()`-th interval.
            let masks: Vec<Vec<(usize, usize)>> = (0..queries.len())
                .map(|c| {
                    masks
                        .iter()
                        .skip(c)
                        .step_by(queries.len())
                        .filter(|_| masked)
                        .map(|&(s, l)| (s, s + l))
                        .collect()
                })
                .collect();
            let ctxs: Vec<MaskedContext> = queries
                .iter()
                .zip(&masks)
                .map(|(q, m)| (q.as_slice(), m.as_slice()))
                .collect();
            let lk = BatchedNtLookup::build_masked(&ctxs, word);
            prop_assert_eq!(scan_batch(&lk, &subject), brute_force_batch(&ctxs, &subject, word));
        }
    }

    #[test]
    #[should_panic(expected = "contexts per batched lookup")]
    fn batched_lookup_rejects_too_many_contexts() {
        let q = encode_nt_seq(b"ACGTACGT");
        let ctxs: Vec<&[u8]> = (0..MAX_BATCH_CONTEXTS + 1).map(|_| &q[..]).collect();
        let _ = BatchedNtLookup::build(&ctxs, 4);
    }
}
