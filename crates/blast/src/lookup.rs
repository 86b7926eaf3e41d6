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
/// Most survivors of one pass of stage one ([`SurvivorBlock`]).
const BLOCK: usize = 1024;
/// Chunks per pass of stage one: at stride 1 every base of a chunk is a
/// window and all may survive.
const BLOCK_CHUNKS: usize = BLOCK / CHUNK_BASES;

/// One query position of one context, filed under the cell of the
/// `lut_w`-mer that starts there. Three `u32` words with no padding, so
/// that the register stages can gather its fields by word.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Entry {
    /// The 16 query bases `[qpos − 4, qpos + 12)`, 2 bits each, first base
    /// in the top bits; bases outside the query read as 0 (`seedable`
    /// keeps them from counting).
    around: u32,
    /// Query position of the cell's `lut_w`-mer.
    qpos: u32,
    ctx: u16,
    /// Bit `o` set iff the `W`-mer starting at `qpos − o` lies inside the
    /// query and outside every masked interval.
    seedable: u16,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 12);

/// Stage one's survivors of one pass over a subject: the starts of the
/// windows whose cell is present. A scan writes every slot it reads, so
/// one block serves any number of scans without being cleared; each
/// thread keeps its own (a [`ScanWorkspace`] holds one).
///
/// [`ScanWorkspace`]: crate::ScanWorkspace
pub struct SurvivorBlock(Box<[u32; BLOCK]>);

impl Default for SurvivorBlock {
    fn default() -> Self {
        SurvivorBlock(Box::new([0; BLOCK]))
    }
}

/// Which routines run stages one and two of a scan.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanKernel {
    /// `filter` and `confirm`: a window at a time, at every stride and on
    /// every CPU; the reference for the other.
    Scalar,
    /// `avx512::filter` and `avx512::confirm`: 16 windows per
    /// instruction, at stride 4 (`W` = 11 or 12).
    Avx512,
}

impl ScanKernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return ScanKernel::Avx512;
        }
        ScanKernel::Scalar
    }
}

/// The kernel this CPU runs stages one and two of a scan at `W` = 11 and
/// 12 with: `"avx512"` (16 windows per instruction) or `"scalar"`. Smaller
/// words always run the scalar stages.
pub fn scan_kernel() -> &'static str {
    match ScanKernel::detect() {
        ScanKernel::Avx512 => "avx512",
        ScanKernel::Scalar => "scalar",
    }
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
    /// `Avx512` only where the CPU was seen to support it, at stride 4,
    /// and with every entry's words addressable by an `i32` lane.
    kernel: ScanKernel,
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
            let mut seedable = 0u16;
            for qpos in 0..=query.len() - lut_w {
                around = around << 2 | code(qpos + 15 - LEAD);
                let ok = qpos + word <= query.len() && !word_masked(mask, qpos, word);
                seedable = (seedable << 1 | ok as u16) & ((1 << stride) - 1);
                if seedable != 0 {
                    found.push(Entry {
                        around,
                        qpos: qpos as u32,
                        ctx: ctx as u16,
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
        let kernel = if stride == STRIDE_MAX && 3 * entries.len() <= i32::MAX as usize {
            ScanKernel::detect()
        } else {
            ScanKernel::Scalar
        };
        BatchedNtLookup {
            word,
            lut_w,
            stride,
            offset_masks,
            cell_mask,
            pv,
            first,
            entries,
            kernel,
        }
    }

    /// This lookup with the scalar stages, whatever the CPU: the portable
    /// path, and the reference the register stages are checked and timed
    /// against.
    pub fn scalar(mut self) -> Self {
        self.kernel = ScanKernel::Scalar;
        self
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
        equal & e.seedable as u8
    }

    /// Stage two over `out[from..n]`, survivors of stage one: keep, in
    /// order and onto `out[kept..]`, the windows whose cell's first entry
    /// matches at some offset (or whose cell has more entries than that
    /// one); return the new `kept`. Branch-free like stage one, and for
    /// the same reason: five survivors in six share only their
    /// `lut_w`-mer with a query.
    fn confirm(
        &self,
        packed: &[u8],
        out: &mut [u32; BLOCK],
        mut kept: usize,
        from: usize,
        n: usize,
    ) -> usize {
        debug_assert!(kept <= from);
        for i in from..n {
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
                    f(e.ctx, e.qpos - o as u32, (p - o) as u32);
                }
            }
        }
    }

    /// Stages one and two over chunks `c0..c1` of `packed`, each of
    /// which must have its eight bytes inside it: the confirmed windows in
    /// `out[..n]`, in order; returns `n`.
    fn survivors(&self, packed: &[u8], c0: usize, c1: usize, out: &mut [u32; BLOCK]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self.kernel == ScanKernel::Avx512 && packed.len() <= i32::MAX as usize / 4 {
            // SAFETY: `kernel` is `Avx512` only where `build_masked` saw
            // the CPU support AVX-512 F, BW and VL, all these need.
            return unsafe {
                let n = avx512::filter(&self.pv, packed, c0, c1, out);
                avx512::confirm(self, packed, out, n)
            };
        }
        let n = match self.stride {
            1 => self.filter::<1>(packed, c0, c1, out),
            2 => self.filter::<2>(packed, c0, c1, out),
            3 => self.filter::<3>(packed, c0, c1, out),
            _ => self.filter::<4>(packed, c0, c1, out),
        };
        self.confirm(packed, out, 0, 0, n)
    }

    /// Scan a 2-bit packed subject of `nbases` residues ONCE for the
    /// whole batch, invoking `f(ctx, qpos, spos)` for every word hit of
    /// every merged context. The subject is never expanded: windows of
    /// `lut_w` bases are read straight from the packed bytes
    /// ([`pack_2bit`] layout), a block at a time, in three stages — a
    /// branch-free filter through the presence vector that collects the
    /// surviving windows in `block`, a branch-free comparison of each
    /// survivor's neighbourhood with its cell's first entry on packed
    /// words, and the ordered report of what is left. For each context
    /// `c`, the subsequence of calls with `ctx == c` is every unmasked
    /// exact word match of that context against the subject, ordered by
    /// subject position and then query position — the fused pass is a
    /// strict interleaving of the B per-context scans. The first two
    /// stages run 16 windows per instruction where [`scan_kernel`] says
    /// so, with the same survivors as the scalar stages.
    ///
    /// [`pack_2bit`]: parblast_seqdb::pack_2bit
    pub fn scan_packed_batched<F: FnMut(u16, u32, u32)>(
        &self,
        packed: &[u8],
        nbases: usize,
        block: &mut SurvivorBlock,
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
        let out = &mut *block.0;
        for c0 in (0..chunks).step_by(BLOCK_CHUNKS) {
            let n = self.survivors(packed, c0, (c0 + BLOCK_CHUNKS).min(chunks), out);
            for &p in &out[..n] {
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

/// Stages one and two at stride 4 in AVX-512: 16 windows per instruction,
/// the same survivors in the same order as the scalar stages.
///
/// At stride 4 (`W` = 11 or 12, `lut_w` = 8) window `j` of a subject
/// starts at base `4j` and its cell is exactly the packed byte pair `j`,
/// `j + 1`: no shifting across bytes, so 16 cells are two byte loads
/// widened to 32-bit lanes.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{BatchedNtLookup, BLOCK, BLOCK_CHUNKS, PV_WORDS};

    /// Windows per register.
    const LANES: usize = 16;

    /// The low `n` lanes, `n <= 16`.
    fn low_lanes(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// Stage one ([`BatchedNtLookup::filter`] at stride 4): for each
    /// group of 16 windows, form the cells, gather their `pv` words
    /// (`cell >> 5` as 32-bit words), test bit `cell & 31`, and compress
    /// the starts of the present windows onto `out[n..]`. The last group
    /// of a pass loads through a lane mask, so no byte past `3·c1` is read.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) fn filter(
        pv: &[u64; PV_WORDS],
        packed: &[u8],
        c0: usize,
        c1: usize,
        out: &mut [u32; BLOCK],
    ) -> usize {
        debug_assert!(c1 - c0 <= BLOCK_CHUNKS);
        // Windows `j0..j1`; the last one's cell ends at byte `j1`.
        let (j0, j1) = (3 * c0, 3 * c1);
        let bytes = &packed[j0..=j1];
        let steps = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60);
        let (one, low5) = (_mm512_set1_epi32(1), _mm512_set1_epi32(31));
        let mut n = 0;
        for g in (0..j1 - j0).step_by(LANES) {
            let m = low_lanes((j1 - j0 - g).min(LANES));
            // SAFETY: lane `k` of `m` reads `bytes[g + k]` and
            // `bytes[g + k + 1]`, and `g + k + 1 <= j1 - j0`, the last
            // index of `bytes`; masked-off bytes are neither read nor
            // faulted on.
            let (hi, lo) = unsafe {
                (
                    _mm_maskz_loadu_epi8(m, bytes.as_ptr().add(g).cast()),
                    _mm_maskz_loadu_epi8(m, bytes.as_ptr().add(g + 1).cast()),
                )
            };
            let cell = _mm512_or_si512(
                _mm512_slli_epi32::<8>(_mm512_cvtepu8_epi32(hi)),
                _mm512_cvtepu8_epi32(lo),
            );
            // SAFETY: `cell < 2^16`, so `cell >> 5` indexes one of the
            // 2 048 32-bit words of `pv` (word `2w` is the low half of
            // `pv[w]` on this little-endian target).
            let words = unsafe {
                _mm512_i32gather_epi32::<4>(_mm512_srli_epi32::<5>(cell), pv.as_ptr().cast())
            };
            let bit = _mm512_sllv_epi32(one, _mm512_and_si512(cell, low5));
            let present = _mm512_mask_test_epi32_mask(m, words, bit);
            // Window starts fit an `i32`: the caller keeps `packed` under
            // 2^29 bytes.
            let starts = _mm512_add_epi32(_mm512_set1_epi32((4 * (j0 + g)) as i32), steps);
            let slot = &mut out[n..n + LANES];
            // SAFETY: `slot` is 16 `u32`s, one 64-byte unaligned store.
            unsafe {
                _mm512_storeu_si512(
                    slot.as_mut_ptr().cast(),
                    _mm512_maskz_compress_epi32(present, starts),
                )
            };
            n += present.count_ones() as usize;
        }
        n
    }

    /// Stage two ([`BatchedNtLookup::confirm`] at stride 4) over
    /// `out[..n]`: per whole group of 16 survivors, gather the subject's 16
    /// bases around each window, its cell's first entry and that entry's
    /// successor, compare on lane masks, and compress the kept windows
    /// onto `out[kept..]` in order. Five gathers cost the same for one
    /// lane as for sixteen, so the last `n % 16` survivors go through the
    /// scalar routine. Every gather index is clamped into its array, so no
    /// lane reads outside it whatever `out` holds.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub(super) fn confirm(
        lk: &BatchedNtLookup,
        packed: &[u8],
        out: &mut [u32; BLOCK],
        n: usize,
    ) -> usize {
        let entries = &lk.entries;
        // With no four bytes or no entry beside the sentinel there is
        // nothing to gather (and no window survives stage one).
        let (Some(last_byte), Some(last_entry)) =
            (packed.len().checked_sub(4), entries.len().checked_sub(2))
        else {
            return lk.confirm(packed, out, 0, 0, n);
        };
        // At stride 4 cells are 16 bits wide.
        assert!(lk.first.len() == 1 << 16, "stride 4 files words by 8 bases");
        let (zero, one) = (_mm512_setzero_si512(), _mm512_set1_epi32(1));
        // Reverses the bytes of every 32-bit lane.
        let bswap = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
        let (last_byte, last_entry) = (
            _mm512_set1_epi32(last_byte as i32),
            _mm512_set1_epi32(last_entry as i32),
        );
        let cell_mask = _mm512_set1_epi32(lk.cell_mask as i32);
        let words = entries.as_ptr().cast::<i32>();
        let mut kept = 0;
        let whole = n - n % LANES;
        for i in (0..whole).step_by(LANES) {
            let group = &out[i..i + LANES];
            // SAFETY: `group` is 16 `u32`s, one 64-byte unaligned load.
            let p = unsafe { _mm512_loadu_si512(group.as_ptr().cast()) };
            // Window `j` has the subject's 16 bases from `4j − 4` in bytes
            // `j − 1 .. j + 3`, big-endian; window 0 reads bytes 0..4 and
            // shifts a zero byte in.
            let j = _mm512_srli_epi32::<2>(p);
            let at = _mm512_min_epi32(_mm512_max_epi32(_mm512_sub_epi32(j, one), zero), last_byte);
            // SAFETY: every `at` lies in `0..=packed.len() − 4`.
            let raw = unsafe { _mm512_i32gather_epi32::<1>(at, packed.as_ptr().cast()) };
            let be = _mm512_shuffle_epi8(raw, bswap);
            let around = _mm512_mask_srli_epi32(be, _mm512_cmpeq_epi32_mask(j, zero), be, 8);
            let cell = _mm512_and_si512(_mm512_srli_epi32::<8>(around), _mm512_set1_epi32(0xffff));
            // SAFETY: `cell < 2^16 = first.len()`, asserted above.
            let first = unsafe { _mm512_i32gather_epi32::<4>(cell, lk.first.as_ptr().cast()) };
            // Entry `e` is words `3e .. 3e + 3`: `around`, `qpos`, and
            // `ctx | seedable << 16`.
            let e = _mm512_min_epi32(first, last_entry);
            let w = _mm512_add_epi32(_mm512_slli_epi32::<1>(e), e);
            // SAFETY: `e <= entries.len() − 2`, so words `3e ..= 3e + 3`
            // lie inside `entries`, whose `3·len` words fit an `i32`
            // (`build_masked` picks this kernel only then).
            let (e_around, e_meta, next_around) = unsafe {
                (
                    _mm512_i32gather_epi32::<4>(w, words),
                    _mm512_i32gather_epi32::<4>(_mm512_add_epi32(w, _mm512_set1_epi32(2)), words),
                    _mm512_i32gather_epi32::<4>(_mm512_add_epi32(w, _mm512_set1_epi32(3)), words),
                )
            };
            let alone = _mm512_test_epi32_mask(_mm512_xor_si512(e_around, next_around), cell_mask);
            let differ = _mm512_xor_si512(e_around, around);
            let mut equal = 0;
            for (o, &mask) in lk.offset_masks.iter().enumerate() {
                equal |= _mm512_testn_epi32_mask(differ, _mm512_set1_epi32(mask as i32))
                    & _mm512_test_epi32_mask(e_meta, _mm512_set1_epi32(1 << (16 + o)));
            }
            let hit = !alone | equal;
            let slot = &mut out[kept..kept + LANES];
            // SAFETY: `slot` is 16 `u32`s; `kept <= i`, so the store
            // overwrites no survivor not yet loaded.
            unsafe {
                _mm512_storeu_si512(
                    slot.as_mut_ptr().cast(),
                    _mm512_maskz_compress_epi32(hit, p),
                )
            };
            kept += hit.count_ones() as usize;
        }
        lk.confirm(packed, out, kept, whole, n)
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

    /// Whether this CPU runs the register stages. Where it does not, says
    /// once that their half of these tests was skipped.
    fn simd_runs() -> bool {
        if ScanKernel::detect() == ScanKernel::Avx512 {
            return true;
        }
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| {
            println!("AVX-512 absent: the register scan stages' half of these tests was skipped")
        });
        false
    }

    /// The callback sequence of one scan of `subject` (packed here), by
    /// the scalar stages and by the stages `lk` dispatches to, which must
    /// agree.
    fn scan_batch(lk: &mut BatchedNtLookup, subject: &[u8]) -> Vec<(u16, u32, u32)> {
        let packed = pack_2bit(subject);
        // One block for both kernels: neither may depend on what the
        // other left in it.
        let mut block = SurvivorBlock::default();
        let mut scan = |lk: &BatchedNtLookup| {
            let mut calls = vec![];
            lk.scan_packed_batched(&packed, subject.len(), &mut block, |ctx, qp, sp| {
                calls.push((ctx, qp, sp))
            });
            calls
        };
        let dispatched = lk.kernel;
        if lk.stride == STRIDE_MAX {
            assert_eq!(dispatched == ScanKernel::Avx512, simd_runs());
        }
        lk.kernel = ScanKernel::Scalar;
        let scalar = scan(lk);
        lk.kernel = dispatched;
        let calls = scan(lk);
        assert_eq!(
            calls, scalar,
            "the {dispatched:?} stages disagree with the scalar ones"
        );
        calls
    }

    /// Scan `subject` with a lookup of one context.
    fn scan_one(query: &[u8], word: usize, subject: &[u8]) -> Vec<(u32, u32)> {
        scan_batch(&mut BatchedNtLookup::build(&[query], word), subject)
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
        let mut lk = BatchedNtLookup::build(&[&a, &b], 11);
        assert_eq!(scan_batch(&mut lk, &subject), vec![(1, 0, 1), (0, 0, 3)]);
        // With context 0's word broken the cell's first entry matches
        // nowhere, and its second still does.
        let subject = encode_nt_seq(b"TACGCCGGTTAAGAGTGTGTGTGTGTGTGTGTGTGTGTGTGTGT");
        assert_eq!(scan_batch(&mut lk, &subject), vec![(1, 0, 1)]);
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
                let calls = scan_batch(&mut BatchedNtLookup::build_masked(&ctxs, word), &subject);
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
        let mut lk = BatchedNtLookup::build_masked(&ctxs, 11);
        let mut subject = queries[3][100..400].to_vec();
        subject.extend(random_bases(300, 777));
        let calls = scan_batch(&mut lk, &subject);
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
            let mut lk = BatchedNtLookup::build_masked(&ctxs, word);
            prop_assert_eq!(scan_batch(&mut lk, &subject), brute_force_batch(&ctxs, &subject, word));
        }

        /// The register stages keep exactly the scalar stages' survivors,
        /// in order, after stage one and after stage two: `W` 11 and 12,
        /// 1..=16 contexts (odd ones DUST-masked, and every query carries
        /// a low-complexity run for DUST to find), subjects spliced from
        /// the queries at lengths around a 16-window register, a whole
        /// 85-chunk pass and the tail past the last chunk, and every pass
        /// a scan makes over them.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn simd_stages_keep_the_scalar_survivors(
            word in 11usize..=12,
            queries in proptest::collection::vec(
                (proptest::collection::vec(0u8..4, 20..120), 0usize..4),
                1..MAX_BATCH_CONTEXTS + 1,
            ),
            edge in 0usize..4,
            delta in 0usize..80,
            splices in proptest::collection::vec((0usize..16, 0usize..120, 8usize..60, 0usize..2200), 0..40),
            seed in any::<u32>(),
        ) {
            if simd_runs() {
                // Query `c`: random bases, then a dinucleotide repeat.
                let queries: Vec<Vec<u8>> = queries
                    .into_iter()
                    .map(|(mut q, unit)| {
                        q.extend((0..40).map(|i| [unit as u8, (unit as u8 + 1) % 4][i % 2]));
                        q
                    })
                    .collect();
                let masks: Vec<Vec<(usize, usize)>> = queries
                    .iter()
                    .enumerate()
                    .map(|(c, q)| if c % 2 == 1 { crate::dust::dust_mask(q, Default::default()) } else { vec![] })
                    .collect();
                let ctxs: Vec<MaskedContext> =
                    queries.iter().zip(&masks).map(|(q, m)| (q.as_slice(), m.as_slice())).collect();
                let lk = BatchedNtLookup::build_masked(&ctxs, word);
                prop_assert_eq!(lk.kernel, ScanKernel::Avx512);
                // Bases at a register's, a pass's or two passes' edge,
                // give or take 40.
                let edge = [0, 64, BLOCK_CHUNKS * CHUNK_BASES, 2 * BLOCK_CHUNKS * CHUNK_BASES][edge];
                let mut subject = random_bases((edge + delta).saturating_sub(40), seed);
                for (c, from, len, at) in splices {
                    let q = &queries[c % queries.len()];
                    let piece = &q[from.min(q.len())..(from + len).min(q.len())];
                    let at = at.min(subject.len());
                    let fits = piece.len().min(subject.len() - at);
                    subject[at..at + fits].copy_from_slice(&piece[..fits]);
                }
                let packed = pack_2bit(&subject);
                let last = subject.len().saturating_sub(lk.lut_w);
                let chunks = ((last + 1) / CHUNK_BASES).min(packed.len().saturating_sub(5) / 3);
                let (mut scalar, mut simd) = ([0u32; BLOCK], [0u32; BLOCK]);
                for c0 in (0..chunks).step_by(BLOCK_CHUNKS) {
                    let c1 = (c0 + BLOCK_CHUNKS).min(chunks);
                    let n = lk.filter::<4>(&packed, c0, c1, &mut scalar);
                    // SAFETY: `simd_runs` saw AVX-512 F, BW and VL.
                    let m = unsafe { avx512::filter(&lk.pv, &packed, c0, c1, &mut simd) };
                    prop_assert_eq!(&simd[..m], &scalar[..n], "stage one, chunks {}..{}", c0, c1);
                    let n = lk.confirm(&packed, &mut scalar, 0, 0, n);
                    // SAFETY: as above.
                    let m = unsafe { avx512::confirm(&lk, &packed, &mut simd, m) };
                    prop_assert_eq!(&simd[..m], &scalar[..n], "stage two, chunks {}..{}", c0, c1);
                }
            }
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
