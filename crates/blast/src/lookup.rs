//! Query word lookup tables.
//!
//! * [`BatchedNtLookup`] — blastn: exact `w`-mer matching via a
//!   direct-address presence bit vector over the 2-bit alphabet (4^w
//!   cells, as NCBI's blastn scanner keeps for its default `W=11`) in
//!   front of a compact map from the non-empty cells to CSR-packed
//!   positions, shared by up to 16 query contexts.
//! * [`AaLookup`] — blastp: 3-mer *neighborhood* lookup: every database
//!   word scoring ≥ T against some query word hits that query position.

use crate::dust::word_masked;
use crate::matrix::Scorer;

/// Most contexts a [`BatchedNtLookup`] can merge: 8 queries × 2 strands.
/// The per-cell context tag is a `u16` bitmask, so this is a hard cap.
pub const MAX_BATCH_CONTEXTS: usize = 16;

/// One query context for a [`BatchedNtLookup`]: its 2-bit codes plus the
/// soft-mask intervals to exclude from seeding (empty slice = unmasked).
pub type MaskedContext<'a> = (&'a [u8], &'a [(usize, usize)]);

/// The blastn seed lookup: merges up to [`MAX_BATCH_CONTEXTS`] query
/// contexts (each query contributes a plus- and a minus-strand context)
/// into ONE direct-address table, so a single rolled pass over a packed
/// fragment serves the whole batch. A single query is a batch of one: its
/// two strands still share the pass.
///
/// * `pv` is the presence bit vector (NCBI's `pv_array`), the only
///   direct-address structure: bit `c` set iff cell `c` has at least one
///   query position in *any* context. 4^11 bits = 512 KB, so the
///   almost-always-miss probe in the scan inner loop stays cache-resident;
///   probe density grows with the batch but the scan still rolls the word
///   across the packed bytes exactly once per fragment.
/// * `slots` maps the few thousand non-empty cells to their `ranges`
///   entry: an open-addressed `(cell, range index)` array at most half
///   full (multiplicative hash, linear probing). A batch of eight 568-nt
///   queries fills ~9 000 of the 4^11 cells, so the map is a few hundred
///   KB where a direct-address `u32` table was 16 MB to allocate,
///   page-fault and miss cache in on every genuine hit. It is consulted
///   only after a `pv` hit, so the cell is present and the probe sequence
///   ends at it.
/// * every hit-list entry is `(ctx, qpos)` so the scanner can demux each
///   seed to its owning context's diagonal tracker and extension stage;
/// * `ranges` is paired with a per-cell `ctx_masks` bitmask (bit `c` set
///   iff context `c` has at least one position in the cell).
pub struct BatchedNtLookup {
    /// Word size (≤ 12 for the direct table).
    pub word: usize,
    mask: u32,
    nctx: usize,
    /// `(cell, index into ranges)`, or [`EMPTY_SLOT`].
    slots: Vec<(u32, u32)>,
    ranges: Vec<(u32, u32)>,
    /// `(ctx, qpos)` hit-list entries; within a cell, grouped by context
    /// ascending with ascending `qpos` inside each context — exactly the
    /// order B sequential per-context scans would report the cell's hits.
    entries: Vec<(u16, u32)>,
    /// Union presence bit vector over all merged contexts.
    pv: Vec<u64>,
    /// Per non-empty cell (parallel to `ranges`): bitmask of contexts
    /// with at least one position in the cell.
    ctx_masks: Vec<u16>,
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
        let cells = 1usize << (2 * word);
        let code_mask = (cells - 1) as u32;
        // Collect (cell, ctx, qpos) once across the whole batch, then
        // stable-sort by cell: contexts are visited in order and each
        // context's positions ascend, so the per-cell entry order is
        // (ctx asc, qpos asc) — the sequential per-context scan order.
        let total: usize = contexts.iter().map(|(q, _)| q.len()).sum();
        let mut triples: Vec<(u32, u16, u32)> = Vec::with_capacity(total);
        for (ctx, (query, mask)) in contexts.iter().enumerate() {
            let mut w = 0u32;
            for (i, &c) in query.iter().enumerate() {
                w = ((w << 2) | c as u32) & code_mask;
                if i + 1 >= word && !word_masked(mask, i + 1 - word, word) {
                    triples.push((w, ctx as u16, (i + 1 - word) as u32));
                }
            }
        }
        triples.sort_by_key(|&(cell, _, _)| cell);
        let mut pv = vec![0u64; cells.div_ceil(64)];
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut cell_of_range: Vec<u32> = Vec::new();
        let mut ctx_masks: Vec<u16> = Vec::new();
        let mut entries = Vec::with_capacity(triples.len());
        for &(cell, ctx, qpos) in &triples {
            // Sorted by cell: a new cell is one that differs from the last.
            if cell_of_range.last() != Some(&cell) {
                ranges.push((entries.len() as u32, entries.len() as u32));
                ctx_masks.push(0);
                cell_of_range.push(cell);
                pv[cell as usize >> 6] |= 1u64 << (cell & 63);
            }
            entries.push((ctx, qpos));
            ranges.last_mut().expect("just pushed").1 = entries.len() as u32;
            *ctx_masks.last_mut().expect("just pushed") |= 1u16 << ctx;
        }
        let mut slots = vec![EMPTY_SLOT; (2 * ranges.len()).next_power_of_two().max(1024)];
        for (r, &cell) in cell_of_range.iter().enumerate() {
            let mut at = slot_of(cell, slots.len());
            while slots[at] != EMPTY_SLOT {
                at = (at + 1) & (slots.len() - 1);
            }
            slots[at] = (cell, r as u32);
        }
        BatchedNtLookup {
            word,
            mask: code_mask,
            nctx: contexts.len(),
            slots,
            ranges,
            entries,
            pv,
            ctx_masks,
        }
    }

    /// Number of merged contexts.
    #[inline]
    pub fn contexts(&self) -> usize {
        self.nctx
    }

    /// Context bitmask for word `w`: bit `c` set iff context `c` has at
    /// least one query position whose word equals `w`.
    #[inline]
    pub fn cell_mask(&self, w: u32) -> u16 {
        let cell = w & self.mask;
        if self.present(cell) {
            self.ctx_masks[self.range_of(cell)]
        } else {
            0
        }
    }

    /// Whether any context has a query position in `cell`.
    #[inline(always)]
    fn present(&self, cell: u32) -> bool {
        self.pv[cell as usize >> 6] & (1u64 << (cell & 63)) != 0
    }

    /// Index into `ranges`/`ctx_masks` of a cell that is [`present`]:
    /// the probe sequence of a cell that was inserted reaches it before
    /// any empty slot.
    ///
    /// [`present`]: Self::present
    #[inline(always)]
    fn range_of(&self, cell: u32) -> usize {
        let mut at = slot_of(cell, self.slots.len());
        loop {
            let (c, r) = self.slots[at];
            if c == cell {
                return r as usize;
            }
            debug_assert!(c != EMPTY_SLOT.0, "cell {cell} is not in the map");
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// Emit all batch hits for the rolled word `w` whose last residue is
    /// at subject index `i - 1`, as `f(ctx, qpos, spos)`.
    #[inline(always)]
    fn probe<F: FnMut(u16, u32, u32)>(&self, w: u32, i: usize, f: &mut F) {
        if !self.present(w) {
            return;
        }
        let (lo, hi) = self.ranges[self.range_of(w)];
        let spos = (i - self.word) as u32;
        for &(ctx, qpos) in &self.entries[lo as usize..hi as usize] {
            f(ctx, qpos, spos);
        }
    }

    /// Scan a 2-bit packed subject of `nbases` residues ONCE for the
    /// whole batch, invoking `f(ctx, qpos, spos)` for every word hit of
    /// every merged context: the seed word rolls across whole packed bytes
    /// ([`pack_2bit`] layout), so the subject never has to be expanded, and
    /// each candidate word is screened against the presence bit vector so
    /// the CSR arrays are only touched on a genuine hit (≈0.03% of probes
    /// for a 568-nt query at `W=11`). For each context `c`, the
    /// subsequence of calls with `ctx == c` is every exact word match of
    /// that context against the subject, ordered by subject position and
    /// then query position — the fused pass is a strict interleaving of
    /// the B per-context scans.
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
        let mut w = 0u32;
        let mut i = 0usize;
        let full = nbases / 4;
        for &b in &packed[..full] {
            for c in [(b >> 6) & 3, (b >> 4) & 3, (b >> 2) & 3, b & 3] {
                w = ((w << 2) | c as u32) & self.mask;
                i += 1;
                if i >= self.word {
                    self.probe(w, i, &mut f);
                }
            }
        }
        for idx in full * 4..nbases {
            let c = (packed[idx / 4] >> (6 - 2 * (idx % 4))) & 3;
            w = ((w << 2) | c as u32) & self.mask;
            i += 1;
            if i >= self.word {
                self.probe(w, i, &mut f);
            }
        }
    }
}

/// No cell: words are at most 24 bits wide.
const EMPTY_SLOT: (u32, u32) = (u32::MAX, 0);

/// Home slot of `cell` in a table of `len` (a power of two) slots:
/// Fibonacci hashing, the top `log2(len)` bits of `cell × 2^32/φ`.
#[inline(always)]
fn slot_of(cell: u32, len: usize) -> usize {
    (cell.wrapping_mul(0x9E37_79B9) >> (32 - len.trailing_zeros())) as usize
}

/// blastp neighborhood lookup over 3-mers. The table is CSR-packed: one
/// `starts` prefix-sum over the direct-address cells plus one flat
/// `positions` array, instead of a `Vec` allocation per non-empty cell.
pub struct AaLookup {
    /// Word size (fixed 3 in practice; 2 allowed for tests).
    pub word: usize,
    alpha: usize,
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl AaLookup {
    /// Build over a protein query: cell for word `W` holds every query
    /// position whose word scores ≥ `threshold` against `W` (including the
    /// exact word itself if it passes).
    pub fn build(query: &[u8], word: usize, scorer: &Scorer, threshold: i32) -> Self {
        assert!(word == 2 || word == 3, "protein word size must be 2 or 3");
        let alpha = scorer.alphabet();
        let cells = alpha.pow(word as u32);
        let nwords = query.len().saturating_sub(word - 1);
        // For every query word, enumerate neighbor words scoring ≥ T.
        // 24^3 = 13824 candidates per query word: fine for real queries.
        // Collect (cell, qpos) pairs once, then counting-sort into CSR —
        // the stable fill preserves the ascending-qpos order per cell that
        // the old per-cell `Vec` pushes produced.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut stack_word = vec![0u8; word];
        for qpos in 0..nwords {
            let qw = &query[qpos..qpos + word];
            // Depth-first enumeration with score-bound pruning.
            enumerate_neighbors(
                qw,
                scorer,
                threshold,
                0,
                0,
                &mut stack_word,
                &mut |cell_word: &[u8]| {
                    let mut idx = 0usize;
                    for &c in cell_word {
                        idx = idx * alpha + c as usize;
                    }
                    pairs.push((idx as u32, qpos as u32));
                },
            );
        }
        let mut starts = vec![0u32; cells + 1];
        for &(cell, _) in &pairs {
            starts[cell as usize + 1] += 1;
        }
        for i in 1..=cells {
            starts[i] += starts[i - 1];
        }
        let mut positions = vec![0u32; pairs.len()];
        let mut cursor = starts.clone();
        for &(cell, qpos) in &pairs {
            positions[cursor[cell as usize] as usize] = qpos;
            cursor[cell as usize] += 1;
        }
        AaLookup {
            word,
            alpha,
            starts,
            positions,
        }
    }

    /// Query positions matching subject word starting at `sw`.
    #[inline]
    pub fn hits(&self, sw: &[u8]) -> &[u32] {
        let mut idx = 0usize;
        for &c in sw {
            idx = idx * self.alpha + c as usize;
        }
        &self.positions[self.starts[idx] as usize..self.starts[idx + 1] as usize]
    }

    /// Scan a protein subject, invoking `f(qpos, spos)` for every
    /// neighborhood hit.
    pub fn scan<F: FnMut(u32, u32)>(&self, subject: &[u8], mut f: F) {
        if subject.len() < self.word {
            return;
        }
        for spos in 0..=subject.len() - self.word {
            for &qpos in self.hits(&subject[spos..spos + self.word]) {
                f(qpos, spos as u32);
            }
        }
    }
}

/// Enumerate all words over the scorer's alphabet scoring ≥ `threshold`
/// against `qw`, with branch-and-bound pruning on the best possible
/// remaining score.
fn enumerate_neighbors(
    qw: &[u8],
    scorer: &Scorer,
    threshold: i32,
    depth: usize,
    score: i32,
    current: &mut [u8],
    emit: &mut impl FnMut(&[u8]),
) {
    if depth == qw.len() {
        if score >= threshold {
            emit(current);
        }
        return;
    }
    // Upper bound on the remaining positions: max matrix value (11 for
    // BLOSUM62's W–W) per position.
    let remaining_max = 11 * (qw.len() - depth - 1) as i32;
    for c in 0..scorer.alphabet() as u8 {
        let s = score + scorer.score(qw[depth], c);
        if s + remaining_max < threshold {
            continue;
        }
        current[depth] = c;
        enumerate_neighbors(qw, scorer, threshold, depth + 1, s, current, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_seqdb::{encode_aa_seq, encode_nt_seq, pack_2bit};

    /// Every exact `word`-mer match of `query` in `subject` as `(qpos,
    /// spos)`, by subject position and then query position: what a scan
    /// must report for one context, found without any table.
    fn brute_force(query: &[u8], subject: &[u8], word: usize) -> Vec<(u32, u32)> {
        let mut out = vec![];
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

    /// Scan `subject` (packed here) with a lookup of one context.
    fn scan_one(query: &[u8], word: usize, subject: &[u8]) -> Vec<(u32, u32)> {
        let lk = BatchedNtLookup::build(&[query], word);
        let mut hits = vec![];
        lk.scan_packed_batched(&pack_2bit(subject), subject.len(), |ctx, qp, sp| {
            assert_eq!(ctx, 0);
            hits.push((qp, sp));
        });
        hits
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
                let ctxs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
                let blk = BatchedNtLookup::build(&ctxs, word);
                let mut fused: Vec<Vec<(u32, u32)>> = vec![vec![]; queries.len()];
                blk.scan_packed_batched(&pack_2bit(&subject), len, |ctx, qp, sp| {
                    fused[ctx as usize].push((qp, sp))
                });
                for (ci, q) in queries.iter().enumerate() {
                    let want = brute_force(q, &subject, word);
                    assert_eq!(fused[ci], want, "len {len} word {word} ctx {ci}");
                }
                assert!(
                    word > 8 || len < word || !fused[0].is_empty(),
                    "len {len} word {word}: vacuous comparison"
                );
            }
        }
    }

    #[test]
    fn a_full_batch_outgrows_the_minimum_cell_map() {
        // 16 contexts of 600 residues: ~9 000 distinct cells, so the map is
        // resized past its 1024-slot floor and probes collide.
        let mut x = 12345u32;
        let mut next = || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 30) as u8
        };
        let queries: Vec<Vec<u8>> = (0..MAX_BATCH_CONTEXTS)
            .map(|_| (0..600).map(|_| next()).collect())
            .collect();
        let ctxs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let lk = BatchedNtLookup::build(&ctxs, 11);
        assert!(lk.slots.len() > 1024 && lk.slots.len() >= 2 * lk.ranges.len());
        let subject: Vec<u8> = queries[3][100..400]
            .iter()
            .copied()
            .chain((0..300).map(|_| next()))
            .collect();
        let mut fused: Vec<Vec<(u32, u32)>> = vec![vec![]; queries.len()];
        lk.scan_packed_batched(&pack_2bit(&subject), subject.len(), |ctx, qp, sp| {
            fused[ctx as usize].push((qp, sp))
        });
        for (ci, q) in queries.iter().enumerate() {
            assert_eq!(fused[ci], brute_force(q, &subject, 11), "ctx {ci}");
        }
        assert!(fused[3].len() >= 290);
    }

    #[test]
    fn batched_lookup_cell_masks_track_contexts() {
        let a = encode_nt_seq(b"ACGTACGT");
        let b = encode_nt_seq(b"ACGTTTTT");
        let blk = BatchedNtLookup::build(&[&a, &b], 4);
        assert_eq!(blk.contexts(), 2);
        // "ACGT" (cell 0b00011011) occurs in both; "TTTT" only in b;
        // "GGGG" in neither.
        let code = |s: &[u8]| -> u32 {
            encode_nt_seq(s)
                .iter()
                .fold(0u32, |w, &c| (w << 2) | c as u32)
        };
        assert_eq!(blk.cell_mask(code(b"ACGT")), 0b11);
        assert_eq!(blk.cell_mask(code(b"TTTT")), 0b10);
        assert_eq!(blk.cell_mask(code(b"GGGG")), 0);
    }

    #[test]
    #[should_panic(expected = "contexts per batched lookup")]
    fn batched_lookup_rejects_too_many_contexts() {
        let q = encode_nt_seq(b"ACGTACGT");
        let ctxs: Vec<&[u8]> = (0..MAX_BATCH_CONTEXTS + 1).map(|_| &q[..]).collect();
        let _ = BatchedNtLookup::build(&ctxs, 4);
    }

    #[test]
    fn aa_lookup_exact_word_hits_itself() {
        let q = encode_aa_seq(b"MKWVLAAR");
        let lk = AaLookup::build(&q, 3, &Scorer::Blosum62, 11);
        let mut hits = vec![];
        lk.scan(&q, |qp, sp| hits.push((qp, sp)));
        // Every position whose self-word scores ≥ 11 must self-hit.
        for qpos in 0..q.len() - 2 {
            let w = &q[qpos..qpos + 3];
            let self_score: i32 = w.iter().map(|&c| Scorer::Blosum62.score(c, c)).sum();
            if self_score >= 11 {
                assert!(
                    hits.contains(&(qpos as u32, qpos as u32)),
                    "missing self hit at {qpos}"
                );
            }
        }
    }

    #[test]
    fn aa_lookup_neighborhood_includes_similar_words() {
        // KKK vs RKK scores 2+5+5 = 12 ≥ 11 → neighbor.
        let q = encode_aa_seq(b"KKK");
        let lk = AaLookup::build(&q, 3, &Scorer::Blosum62, 11);
        let subj = encode_aa_seq(b"RKK");
        let mut hits = vec![];
        lk.scan(&subj, |qp, sp| hits.push((qp, sp)));
        assert_eq!(hits, vec![(0, 0)]);
        // But an unrelated word must not hit: GGG vs KKK = 3×(−2) = −6.
        let mut hits2 = 0;
        lk.scan(&encode_aa_seq(b"GGG"), |_, _| hits2 += 1);
        assert_eq!(hits2, 0);
    }

    #[test]
    fn aa_threshold_controls_neighborhood_size() {
        let q = encode_aa_seq(b"WWW");
        let loose = AaLookup::build(&q, 3, &Scorer::Blosum62, 8);
        let tight = AaLookup::build(&q, 3, &Scorer::Blosum62, 20);
        let count = |lk: &AaLookup| -> usize {
            (0..24u8)
                .flat_map(|a| (0..24u8).flat_map(move |b| (0..24u8).map(move |c| [a, b, c])))
                .map(|w| lk.hits(&w).len())
                .sum()
        };
        assert!(count(&loose) > count(&tight));
        assert!(count(&tight) >= 1); // WWW itself scores 33
    }
}
