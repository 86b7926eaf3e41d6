//! Gapped alignment: X-drop gapped extension (scoring stage) and banded
//! global alignment with traceback (reporting stage).
//!
//! The X-drop extension is the NCBI `ALIGN_EX`-style dynamic-band DP: rows
//! advance along the query, the live cell window widens and narrows as
//! cells fall more than `x_drop` below the running best, and extension in
//! each direction stops when a row goes empty. It returns score and
//! end-points only; per-column traceback for the final report is recomputed
//! with a banded global alignment over the (small) aligned ranges.

use crate::matrix::{GapPenalties, Scorer};

const NEG: i32 = i32::MIN / 4;

/// Result of a one-directional X-drop extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionResult {
    /// Best score achieved (≥ 0; 0 means no extension helped).
    pub score: i32,
    /// Query residues consumed at the best cell.
    pub q_ext: usize,
    /// Subject residues consumed at the best cell.
    pub s_ext: usize,
}

/// Reusable scratch for both gapped stages: one `h` and one `f` DP row,
/// updated in place by the X-drop extension and by the traceback kernel,
/// the X-drop row's substitution scores, plus the traceback's byte matrix
/// and its output ops. Everything only ever grows — the rows as far as the
/// widest band any extension reached or the longest aligned subject range
/// traced back, never to a whole subject's length — and nothing is cleared
/// between calls (see [`xdrop_extend_with`] and [`banded_global_with`] for
/// why no stale cell is ever read). `ScanWorkspace` recycles one of these
/// across subjects, fragments and batched queries.
#[derive(Debug, Default)]
pub struct GappedWorkspace {
    h: Vec<i32>,
    f: Vec<i32>,
    /// `s(q_i, ·)` for the columns of the X-drop row being computed.
    sub: Vec<i32>,
    /// One byte per band cell, `(m + 1) × width` row-major ([`TB_SRC`]).
    bt: Vec<u8>,
    /// The last traceback's columns.
    ops: Vec<AlignOp>,
    /// X-drop DP rows and cells computed so far, row 0 included.
    rows: u64,
    cells: u64,
    /// Extensions the register kernel handed back to the scalar one.
    fallbacks: u64,
    /// Tracebacks the register kernel left to the scalar one.
    trace_fallbacks: u64,
}

impl GappedWorkspace {
    /// Empty workspace; buffers grow to the largest problem seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many X-drop DP rows this workspace has computed (lifetime
    /// count, row 0 of every extension included).
    pub fn dp_rows(&self) -> u64 {
        self.rows
    }

    /// How many X-drop DP cells this workspace has computed (lifetime
    /// count): the work of an extension, which depends on its band and not
    /// on the subject's length.
    pub fn dp_cells(&self) -> u64 {
        self.cells
    }

    /// How many X-drop extensions the register row kernel started and
    /// handed back to the scalar kernel because a row needed more than 32
    /// lanes (lifetime count; see [`xdrop_extend_with`]). Their rows and
    /// cells are counted once, by the scalar kernel.
    pub fn dp_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// How many tracebacks ran the scalar kernel on a CPU with the
    /// register one, because the band was wider than 64 lanes or the
    /// scores could leave `i16` (lifetime count; see
    /// [`banded_global_with`]).
    pub fn traceback_fallbacks(&self) -> u64 {
        self.trace_fallbacks
    }

    /// Make column `j` addressable in both rows and `j + 1` substitution
    /// scores available.
    #[inline]
    fn ensure(&mut self, j: usize) {
        if j >= self.h.len() {
            let len = (j + 1).next_power_of_two().max(64);
            self.h.resize(len, NEG);
            self.f.resize(len, NEG);
            self.sub.resize(len, 0);
        }
    }
}

/// X-drop gapped extension of `query` vs `subject` starting at their
/// beginnings (callers slice to anchor), in caller-provided DP rows.
/// Affine gaps; `x_drop` in raw score units.
///
/// The recurrence, with `best` the running maximum over all cells so far
/// in row-major order:
///
/// ```text
/// F(i,j) = max(H(i-1,j) - open - ext, F(i-1,j) - ext)      gap in subject
/// E(i,j) = max(H(i,j-1) - open - ext, E(i,j-1) - ext)      gap in query
/// H(i,j) = max(H(i-1,j-1) + s(q_i, s_j), E(i,j), F(i,j))
/// live(i,j) = H(i,j) >= best - x_drop
/// ```
///
/// Invariants that define the answers (pinned against the five-row
/// implementation the reference kernel in [`crate::baseline`] runs):
///
/// * a dead cell stores `NEG` in `H` and `F`, so it contributes nothing to
///   the row below (and, as far as any live cell can tell, nothing to its
///   right either);
/// * row `i` spans columns `lo(i-1) ..= min(hi(i-1) + 1, n)` where
///   `lo`/`hi` are the first/last live columns of the row above: the band
///   grows at most one column to the right per row, however far `E`
///   could have carried;
/// * `best` is updated inside the row, so a cell is judged against every
///   cell before it, and only a strictly greater `H` moves the best cell:
///   the first best cell in row-major order wins;
/// * the extension ends at the first row with no live cell.
///
/// How a row is computed. With `D(i,j) = max(H(i-1,j-1) + s, F(i,j))`,
/// `H = max(D, E)` and, since `open >= 0`,
/// `H - open - ext = max(D - open - ext, E - open - ext)` where the second
/// term never beats `E - ext`:
///
/// ```text
/// E(i,j+1) = max(E(i,j) - ext, D(i,j) - open - ext)
/// ```
///
/// so the only values carried from cell to cell are `E` (a decaying
/// running max) and `best` (a running max); `D` depends on the row above
/// alone. `E` is not masked at dead cells: a dead cell's `H`, and so its
/// `D` and its `E`, lie below `best - x_drop`, and `best` only grows, so
/// what it passes right can only ever reach cells that are dead anyway.
/// The *stored* `h` must be masked: a dead `H = best - x_drop - 1` plus a
/// match would revive its diagonal successor. The row's substitution
/// scores are computed in a pass of their own before the cell loop, and
/// the best cell is recovered after it, only if the row raised `best`:
/// it is the first column whose stored `h` equals the new `best` (an
/// earlier cell with that value would have raised `best` first).
///
/// No stale cell is read, although the rows are never cleared: row `i`
/// reads `h[j]`/`f[j]` only for `j` in its own span, which lies inside
/// `lo(i-1) ..= hi(i-1) + 1`. Columns up to `hi(i-1)` were written by row
/// `i-1` (whose span contains its live columns; row 0 writes its whole
/// span), and column `hi(i-1) + 1` is set to a dead sentinel before the
/// row starts. The work done is the number of band cells, independent of
/// the subject's length ([`GappedWorkspace::dp_cells`] counts them).
///
/// Two row kernels compute exactly this, and the CPU picks one
/// ([`xdrop_row_kernel`] names it). The scalar kernel above runs
/// everywhere. Where `avx512bw` is present, a row is one `zmm` register
/// of 32 `i16` lanes instead, and `h`/`f` never leave registers (see
/// `avx512::xdrop_rows`). It runs only when every value an extension can
/// form fits `i16` with margin (`fits_i16`). An extension whose band
/// would need a row wider than 32 columns restarts in the scalar kernel
/// ([`GappedWorkspace::dp_fallbacks`] counts those), so both kernels count
/// the same rows and cells.
pub fn xdrop_extend_with(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    xdrop_directed::<false>(
        RowKernel::detect(),
        query,
        subject,
        scorer,
        gaps,
        x_drop,
        ws,
    )
}

/// Which row kernel an X-drop extension or a traceback asks for.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKernel {
    /// [`xdrop_kernel`] or [`banded_kernel`]: a cell at a time, in the
    /// workspace's rows.
    Scalar,
    /// `avx512::xdrop_rows` or `avx512::banded_rows` where the CPU has
    /// `avx512bw`, else the scalar kernel.
    Register,
}

impl RowKernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512bw") {
            return RowKernel::Register;
        }
        RowKernel::Scalar
    }
}

/// The X-drop row kernel this CPU runs: `"avx512bw"` (one row per
/// register) or `"scalar"`.
pub fn xdrop_row_kernel() -> &'static str {
    match RowKernel::detect() {
        RowKernel::Register => "avx512bw",
        RowKernel::Scalar => "scalar",
    }
}

/// Whether every value an X-drop extension of a `len`-long diagonal can
/// form stays inside `i16`, with the register kernel's dead sentinel
/// (−16 384) at least 8 192 below any live value: the best score is at
/// most `|reward| · len ≤ 16 384`, and no live-derived value falls more
/// than `x_drop + 2·open + 34·extend + |penalty| + |reward| ≤ 4 096`
/// below zero (a 32-lane row decays `E` over at most 31 columns).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn fits_i16(reward: i32, penalty: i32, gaps: GapPenalties, x_drop: i32, len: usize) -> bool {
    let (open, ext, x) = (
        i64::from(gaps.open),
        i64::from(gaps.extend),
        i64::from(x_drop),
    );
    let (reward, penalty) = (i64::from(reward).abs(), i64::from(penalty).abs());
    open >= 0
        && ext >= 0
        && x >= 0
        && x + 2 * open + 34 * ext + penalty + reward <= 4096
        && reward.saturating_mul(len as i64) <= 16_384
}

/// One X-drop extension by `kernel`. `REV` extends from the *ends* of
/// `query` and `subject` backwards (the left half of a bidirectional
/// extension) without copying either.
fn xdrop_directed<const REV: bool>(
    kernel: RowKernel,
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    let Scorer::Nucleotide { reward, penalty } = *scorer;
    let len = query.len().min(subject.len());
    #[cfg(target_arch = "x86_64")]
    if kernel == RowKernel::Register
        && std::arch::is_x86_feature_detected!("avx512bw")
        && len > 0
        && fits_i16(reward, penalty, gaps, x_drop, len)
    {
        // SAFETY: the CPU was just seen to support AVX-512BW, all that
        // `xdrop_rows` needs to be sound (the two tests after it make its
        // answer exact).
        let rows =
            unsafe { avx512::xdrop_rows::<REV>(query, subject, reward, penalty, gaps, x_drop) };
        if let Some((result, rows, cells)) = rows {
            ws.rows += rows;
            ws.cells += cells;
            return result;
        }
        // A row needed more than 32 lanes: start over, one cell at a time.
        ws.fallbacks += 1;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (kernel, len);
    xdrop_kernel::<REV>(
        query,
        subject,
        |a, b| if a == b { reward } else { penalty },
        gaps,
        x_drop,
        ws,
    )
}

/// `if c { a } else { b }` the compiler may not turn into a branch. On
/// unrelated sequences every comparison in the cell is a coin flip (and so
/// is whether a step of the ungapped walk sets a new best), and a
/// conditional move costs a cycle where a mispredicted branch costs
/// fifteen; left to itself LLVM's x86 back end converts the selects of a
/// loop-carried chain like this one into branches.
#[inline(always)]
pub(crate) fn pick<T>(c: bool, a: T, b: T) -> T {
    std::hint::select_unpredictable(c, a, b)
}

#[inline(always)]
fn max(a: i32, b: i32) -> i32 {
    pick(a > b, a, b)
}

fn xdrop_kernel<const REV: bool>(
    query: &[u8],
    subject: &[u8],
    score: impl Fn(u8, u8) -> i32,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    // E from D is exact only for a non-negative open cost; a negative
    // X-drop would let a cell raise `best` while dead.
    debug_assert!(gaps.open >= 0 && gaps.extend >= 0 && x_drop >= 0);
    let (m, n) = (query.len(), subject.len());
    if m == 0 || n == 0 {
        return ExtensionResult {
            score: 0,
            q_ext: 0,
            s_ext: 0,
        };
    }
    let (open_ext, ext) = (gaps.open + gaps.extend, gaps.extend);
    // Row 0: a leading gap in the query, as far as it stays live.
    let (mut lo, mut hi) = (0, 0);
    ws.ensure(0);
    ws.h[0] = 0;
    ws.f[0] = NEG;
    for j in 1..=n {
        let v = -gaps.open - gaps.extend * j as i32;
        if v <= -x_drop {
            break;
        }
        ws.ensure(j);
        ws.h[j] = v;
        ws.f[j] = NEG;
        hi = j;
    }
    ws.rows += 1;
    ws.cells += hi as u64 + 1;
    let mut best = 0;
    let mut best_cell = (0, 0);
    for i in 1..=m {
        let qc = if REV { query[m - i] } else { query[i - 1] };
        let (jlo, jhi) = (lo, (hi + 1).min(n));
        if jhi > hi {
            // The one column this row adds: dead above. `NEG + ext` makes
            // F come out at exactly NEG, as if nothing were there.
            ws.ensure(jhi);
            ws.h[jhi] = NEG;
            ws.f[jhi] = NEG + ext;
        }
        ws.rows += 1;
        ws.cells += (jhi - jlo) as u64 + 1;
        let GappedWorkspace { h, f, sub, .. } = ws;
        let (h, f, sub) = (&mut h[jlo..=jhi], &mut f[jlo..=jhi], &mut sub[..=jhi - jlo]);
        // Column `jlo` has nothing on its diagonal (column 0 pairs with no
        // subject residue at all, and `jlo - 1` is dead above): only F can
        // reach it. The other columns pair with subject residues
        // `jlo..jhi`, read back to front under `REV`.
        sub[0] = 0;
        if REV {
            let s = &subject[n - jhi..n - jlo];
            for (d, &sc) in sub[1..].iter_mut().zip(s.iter().rev()) {
                *d = score(qc, sc);
            }
        } else {
            for (d, &sc) in sub[1..].iter_mut().zip(&subject[jlo..jhi]) {
                *d = score(qc, sc);
            }
        }
        let row_best = best;
        // `H(i-1, j-1)` and `E(i, j)`; nothing lies left of column `jlo`.
        let (mut diag, mut e) = (NEG, NEG);
        for ((h, f), &s) in h.iter_mut().zip(f.iter_mut()).zip(sub.iter()) {
            let up = *h;
            let fv = max(up - open_ext, *f - ext);
            let dv = max(diag + s, fv);
            let hv = max(dv, e);
            best = max(best, hv);
            let live = hv >= best - x_drop;
            *h = pick(live, hv, NEG);
            *f = pick(live, fv, NEG);
            e = max(e - ext, dv - open_ext);
            diag = up;
        }
        if best > row_best {
            let j = h
                .iter()
                .position(|&v| v == best)
                .expect("the cell that set best");
            best_cell = (i, jlo + j);
        }
        // The live span is what is left after trimming this row's dead
        // ends; cells die a few at a time, so both scans are short.
        let Some(first) = h.iter().position(|&v| v != NEG) else {
            break; // row died: extension complete
        };
        let last = h.iter().rposition(|&v| v != NEG).expect("a live cell");
        (lo, hi) = (jlo + first, jlo + last);
    }
    ExtensionResult {
        score: best,
        q_ext: best_cell.0,
        s_ext: best_cell.1,
    }
}

/// The register row kernel: the X-drop DP of [`xdrop_kernel`] with one
/// row in one `zmm` register of 32 `i16` lanes, lane `k` holding column
/// `jlo + k`. A row of ~16 cells is one step, with no carry between steps
/// and no store-to-load round trip: `h` and `f` stay in registers from row
/// to row.
///
/// A row, with `D = max(H(i-1,j-1) + s, F)` as in the scalar kernel:
///
/// * the substitution scores select on a match mask computed a row ahead:
///   one masked load of the 63 subject codes the next row can pair,
///   compared with its query base, shifted by how far the row's first
///   column moved;
/// * `H(i-1,j-1)` is permuted straight out of the row above, and
///   `E(k) = max_{l<k} D(l) − open − ext·(k−1−l)` is a five-step prefix
///   max-plus scan;
/// * `live = H >= best(k) − x_drop`, with `best(k)` the `best` carried in
///   on a row that raises nothing, else a five-step prefix max over the
///   row; dead lanes store `NEG` in `h` and `f`;
/// * the best cell, when the row raised `best`, is the first lane holding
///   the row's maximum, and the first and last live lanes are the live
///   mask's trailing and leading zero counts;
/// * `h` and `f` then shift down by the first live lane, so lane 0 is the
///   next row's `jlo`, and the lanes shifted in are dead sentinels.
///
/// The exact `i16` arithmetic ([`fits_i16`] decides when it is exact) and
/// these rules give the scalar kernel's score, best cell, spans and so
/// rows and cells; the dead sentinels' exact values never matter, since
/// anything formed from one lies far below `best − x_drop`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::ExtensionResult;
    use crate::matrix::GapPenalties;

    /// Lanes in a row register: the widest row this kernel computes.
    const LANES: usize = 32;
    /// The dead sentinel; [`super::fits_i16`] keeps every live value at
    /// least 8 192 above it.
    const NEG: i16 = i16::MIN / 2;

    /// Lane `k` holds `k`.
    const IOTA: [i16; LANES] = {
        let mut v = [0; LANES];
        let mut k = 0;
        while k < LANES {
            v[k] = k as i16;
            k += 1;
        }
        v
    };

    #[target_feature(enable = "avx512bw")]
    #[inline]
    fn vec(v: [i16; LANES]) -> __m512i {
        // SAFETY: `[i16; 32]` and `__m512i` are both 64 plain bytes.
        unsafe { std::mem::transmute::<[i16; LANES], __m512i>(v) }
    }

    /// The low `w` lanes, `1 <= w <= 32`.
    fn low_lanes(w: usize) -> u32 {
        u32::MAX >> (LANES - w)
    }

    /// `x` moved `S` lanes up: lane `k >= S` takes lane `k − S`, the lanes
    /// below `S` take `fill`.
    #[target_feature(enable = "avx512bw")]
    #[inline]
    fn up<const S: i16>(x: __m512i, fill: __m512i) -> __m512i {
        match S {
            2 => _mm512_alignr_epi32::<15>(x, fill),
            4 => _mm512_alignr_epi32::<14>(x, fill),
            8 => _mm512_alignr_epi32::<12>(x, fill),
            16 => _mm512_alignr_epi32::<8>(x, fill),
            _ => {
                let idx = _mm512_sub_epi16(vec(IOTA), _mm512_set1_epi16(S));
                _mm512_mask_permutexvar_epi16(fill, u32::MAX << S, idx, x)
            }
        }
    }

    /// The exclusive max-plus scan `E(k) = max_{l<k} x(l) − ext·(k−1−l)`
    /// over the 32 lanes of `x`, `fill` left of lane 0, in five steps (the
    /// first takes two shifts at once); `decay` is `ext·{1, 2, 4, 8, 16}`.
    #[target_feature(enable = "avx512bw")]
    #[inline]
    fn e_scan(x: __m512i, decay: &[__m512i; 5], fill: __m512i) -> __m512i {
        let shifted = _mm512_subs_epi16(up::<2>(x, fill), decay[0]);
        let mut e = _mm512_max_epi16(up::<1>(x, fill), shifted);
        e = _mm512_max_epi16(e, _mm512_subs_epi16(up::<2>(e, fill), decay[1]));
        e = _mm512_max_epi16(e, _mm512_subs_epi16(up::<4>(e, fill), decay[2]));
        e = _mm512_max_epi16(e, _mm512_subs_epi16(up::<8>(e, fill), decay[3]));
        _mm512_max_epi16(e, _mm512_subs_epi16(up::<16>(e, fill), decay[4]))
    }

    /// Where query base `qc` equals the subject residue that lane `t` of
    /// a row starting at column `jlo` pairs (`jlo + t − 1`, or `n − jlo −
    /// t` under REV), for `t` in `1..64`: bit `t`. A row starting `d <=
    /// 31` columns right of `jlo` reads its lane `k` at bit `d + k`. One
    /// masked load of the 63 bytes, none out of bounds (masked-off bytes
    /// are neither read nor faulted on).
    #[target_feature(enable = "avx512bw")]
    #[inline]
    fn matches<const REV: bool>(subject: &[u8], jlo: usize, qc: u8) -> u64 {
        let n = subject.len();
        // Lanes `1..=avail` pair residues inside the subject.
        let avail = (n - jlo).min(63);
        let lanes = (u64::MAX >> (63 - avail)) & !1;
        let qc = _mm512_set1_epi8(qc as i8);
        if REV {
            // Byte `b` is residue `n − jlo − 63 + b`, lane `63 − b`.
            let base = subject.as_ptr().wrapping_add(n - jlo).wrapping_sub(63);
            // SAFETY: the unmasked bytes are `subject[n − jlo − avail..n − jlo]`.
            let v = unsafe { _mm512_maskz_loadu_epi8(lanes.reverse_bits(), base.cast()) };
            _mm512_mask_cmpeq_epi8_mask(lanes.reverse_bits(), v, qc).reverse_bits()
        } else {
            // Byte `t` is residue `jlo + t − 1`.
            let base = subject.as_ptr().wrapping_add(jlo).wrapping_sub(1);
            // SAFETY: the unmasked bytes are `subject[jlo..jlo + avail]`.
            let v = unsafe { _mm512_maskz_loadu_epi8(lanes, base.cast()) };
            _mm512_mask_cmpeq_epi8_mask(lanes, v, qc)
        }
    }

    /// One extension of [`super::xdrop_kernel`] (same arguments, the
    /// scorer resolved), returning its result, rows and cells, or `None`
    /// as soon as a row would need more than 32 lanes.
    ///
    /// # Safety
    ///
    /// The caller must have seen the CPU support AVX-512BW. The result is
    /// exact only for a non-empty `query` and `subject` and where
    /// [`super::fits_i16`] admits the arguments.
    #[target_feature(enable = "avx512bw")]
    pub(super) fn xdrop_rows<const REV: bool>(
        query: &[u8],
        subject: &[u8],
        reward: i32,
        penalty: i32,
        gaps: GapPenalties,
        x_drop: i32,
    ) -> Option<(ExtensionResult, u64, u64)> {
        let (m, n) = (query.len(), subject.len());
        let (open, ext) = (gaps.open, gaps.extend);
        // Row 0: a leading gap in the query, as far as it stays live (a
        // span past 32 lanes fails the width test of row 1).
        let mut hi = 0;
        while hi < n.min(LANES) && -open - ext * (hi as i32 + 1) > -x_drop {
            hi += 1;
        }
        let neg = _mm512_set1_epi16(NEG);
        // `NEG + ext` makes F come out at exactly NEG, as in the scalar
        // kernel's new column.
        let f_new = _mm512_set1_epi16(NEG + ext as i16);
        let open_ext = _mm512_set1_epi16((open + ext) as i16);
        let ext_by = |s: i32| _mm512_set1_epi16((ext * s) as i16);
        let decay = [ext_by(1), ext_by(2), ext_by(4), ext_by(8), ext_by(16)];
        let ext1 = decay[0];
        let (rew, pen) = (
            _mm512_set1_epi16(reward as i16),
            _mm512_set1_epi16(penalty as i16),
        );
        let xd = _mm512_set1_epi16(x_drop as i16);
        let row0 = low_lanes((hi + 1).min(LANES));
        let ramp = _mm512_sub_epi16(
            _mm512_set1_epi16(-open as i16),
            _mm512_mullo_epi16(vec(IOTA), ext1),
        );
        let mut h = _mm512_mask_blend_epi16(row0 & !1, neg, ramp);
        h = _mm512_mask_mov_epi16(h, 1, _mm512_setzero_si512());
        let mut f = _mm512_mask_blend_epi16(row0, f_new, neg);
        // `H(i-1, j-1)`: `h` one lane up, nothing left of column 0.
        let mut diag = up::<1>(h, neg);
        let (mut rows, mut cells) = (1, hi as u64 + 1);
        let mut lo = 0;
        let mut best = _mm512_setzero_si512();
        let mut best_cell = (0, 0);
        let residue = |i: usize| if REV { query[m - i] } else { query[i - 1] };
        // Row i's matches, in the window at the column row i-1 started.
        let (mut window, mut hits) = (0, matches::<REV>(subject, 0, residue(1)));
        for i in 1..=m {
            let (jlo, jhi) = (lo, (hi + 1).min(n));
            let w = jhi - jlo + 1;
            if w > LANES {
                return None;
            }
            rows += 1;
            cells += w as u64;
            let valid = low_lanes(w);
            let s = _mm512_mask_blend_epi16((hits >> (jlo - window)) as u32, pen, rew);
            if i < m {
                // The next row starts at most 31 columns right of this one.
                (window, hits) = (jlo, matches::<REV>(subject, jlo, residue(i + 1)));
            }
            let fv = _mm512_max_epi16(_mm512_subs_epi16(h, open_ext), _mm512_subs_epi16(f, ext1));
            let dv = _mm512_max_epi16(_mm512_adds_epi16(diag, s), fv);
            let x = _mm512_subs_epi16(dv, open_ext);
            let e = e_scan(x, &decay, neg);
            // Lanes past the row read dead, so they raise nothing.
            let hv = _mm512_mask_max_epi16(neg, valid, dv, e);
            let live = if _mm512_mask_cmpgt_epi16_mask(valid, hv, best) == 0 {
                // Most rows raise nothing: every cell is judged against
                // the `best` carried in.
                _mm512_mask_cmpge_epi16_mask(valid, hv, _mm512_subs_epi16(best, xd))
            } else {
                let mut p = _mm512_max_epi16(hv, up::<1>(hv, neg));
                p = _mm512_max_epi16(p, up::<2>(p, neg));
                p = _mm512_max_epi16(p, up::<4>(p, neg));
                p = _mm512_max_epi16(p, up::<8>(p, neg));
                p = _mm512_max_epi16(p, up::<16>(p, neg));
                p = _mm512_max_epi16(p, best);
                // The first lane holding the row's maximum is the first
                // cell to reach it.
                best = _mm512_permutexvar_epi16(_mm512_set1_epi16(LANES as i16 - 1), p);
                let k = _mm512_mask_cmpeq_epi16_mask(valid, hv, best).trailing_zeros();
                best_cell = (i, jlo + k as usize);
                _mm512_mask_cmpge_epi16_mask(valid, hv, _mm512_subs_epi16(p, xd))
            };
            if live == 0 {
                break; // row died: extension complete
            }
            let (first, last) = (
                live.trailing_zeros(),
                LANES as u32 - 1 - live.leading_zeros(),
            );
            // Lane k of the next row is lane `k + first` of this one; its
            // diagonal, lane `k − 1 + first`.
            let idx = _mm512_add_epi16(vec(IOTA), _mm512_set1_epi16(first as i16));
            let keep = u32::MAX >> first;
            let h_row = _mm512_mask_blend_epi16(live, neg, hv);
            let f_row = _mm512_mask_blend_epi16(live, neg, fv);
            h = _mm512_mask_permutexvar_epi16(neg, keep, idx, h_row);
            f = _mm512_mask_permutexvar_epi16(f_new, keep, idx, f_row);
            let idx = _mm512_sub_epi16(idx, _mm512_set1_epi16(1));
            diag = _mm512_mask_permutexvar_epi16(neg, keep << 1, idx, h_row);
            (lo, hi) = (jlo + first as usize, jlo + last as usize);
        }
        let score = _mm_cvtsi128_si32(_mm512_castsi512_si128(best)) as i16;
        let result = ExtensionResult {
            score: score.into(),
            q_ext: best_cell.0,
            s_ext: best_cell.1,
        };
        Some((result, rows, cells))
    }

    /// Lanes in a traceback row: two registers.
    pub(super) const BAND_LANES: usize = 2 * LANES;
    /// The traceback kernel's out-of-band sentinel;
    /// [`super::fits_i16_global`] keeps every value derived from a cell
    /// inside the matrix at least 8 192 above it.
    const TB_NEG: i16 = -24_576;

    /// Lanes `from..=to` of a two-register row, clipped to it.
    fn lanes(from: isize, to: isize) -> u64 {
        let (from, to) = (from.max(0), to.min(BAND_LANES as isize - 1));
        if from > to {
            0
        } else {
            (u64::MAX >> (63 - to)) & (u64::MAX << from)
        }
    }

    /// The low and the high register's halves of a row's lane mask.
    fn halves(k: u64) -> (u32, u32) {
        (k as u32, (k >> 32) as u32)
    }

    /// A row's lane mask from its registers' halves.
    fn joined(lo: u32, hi: u32) -> u64 {
        u64::from(lo) | u64::from(hi) << 32
    }

    /// Rows `1..=m` of [`super::banded_kernel`] (same arguments, the
    /// scorer resolved and the band given) in band coordinates: lane `d`
    /// of row `i` is column `j = i − band + d`, and a row is two
    /// registers, lanes `0..32` and `32..64`. So:
    ///
    /// * `M`'s source `H(i−1, j−1)` is the same lane of the row above, and
    ///   `M` is `TB_NEG` on the lanes with `j ≤ 0` (the `> NEG/2` guard:
    ///   nothing else in the band has an out-of-band diagonal);
    /// * `F`'s sources are the row above one lane down, with `TB_NEG`
    ///   shifted in at lane `width − 1`, new to the band;
    /// * `E` is the same exclusive max-plus scan of `D − open − ext` as in
    ///   `xdrop_rows` ("E from D"), over each register, the low register's
    ///   last `E` carried into the high one decaying by `ext` a lane;
    /// * the choices are lane masks: `F` and `E` open on `>=`, the
    ///   diagonal wins on `M >= E && M >= F`, else `E` on `E >= F`; "`E`
    ///   extended" is `H − open − ext < E − ext` of the lane to the left
    ///   (a mask shifted by one lane), which at a left band edge is
    ///   `TB_NEG − open − ext < TB_NEG − ext`, i.e. `open > 0`, and at
    ///   column 0 never;
    /// * row `i`'s traceback bytes are `bt[i·width..][..width]`, one
    ///   masked byte store of the lanes with `0 ≤ j ≤ n` (the cells the
    ///   scalar kernel writes).
    ///
    /// Every cell of the band with `0 ≤ j ≤ n` has a finite `H`; its `E`
    /// derives from the sentinel only at a left band edge or column 0, its
    /// `F` only at the right edge, and exactly where the scalar kernel's do
    /// from `NEG`, so every comparison there comes out as the scalar
    /// kernel's. Lanes with `j < 0` or `j > n` hold values no cell with
    /// `0 ≤ j ≤ n` reads: `E` flows right, `F` down its own column, `M`
    /// down its own diagonal. Row 0 is the caller's. Returns `H(m, n)`.
    ///
    /// # Safety
    ///
    /// The caller must have seen the CPU support AVX-512BW. The result is
    /// exact only for a non-empty `query` and `subject`, `2·band + 1 ≤ 64`
    /// and where [`super::fits_i16_global`] admits the arguments.
    #[target_feature(enable = "avx512bw")]
    pub(super) fn banded_rows(
        query: &[u8],
        subject: &[u8],
        reward: i32,
        penalty: i32,
        gaps: GapPenalties,
        band: usize,
        bt: &mut [u8],
    ) -> i32 {
        let (m, n) = (query.len(), subject.len());
        let width = 2 * band + 1;
        // Keeps every byte store inside `bt`.
        assert!(width <= BAND_LANES && bt.len() >= (m + 1) * width);
        let (open, ext) = (gaps.open, gaps.extend);
        let neg = _mm512_set1_epi16(TB_NEG);
        let open_ext = _mm512_set1_epi16((open + ext) as i16);
        let ext_by = |s: i32| _mm512_set1_epi16((ext * s) as i16);
        let decay = [ext_by(1), ext_by(2), ext_by(4), ext_by(8), ext_by(16)];
        let iota = vec(IOTA);
        // `E` carried into lane `t` of the high register.
        let ramp = _mm512_mullo_epi16(iota, decay[0]);
        let (rew, pen) = (
            _mm512_set1_epi16(reward as i16),
            _mm512_set1_epi16(penalty as i16),
        );
        // F reads lane `d + 1` of the row above. The permutes copy their
        // index where the mask is clear, so those lanes of the index are
        // the sentinel.
        let (below_lo, below_hi) = halves((u64::MAX >> (64 - width)) >> 1);
        let idx_lo = _mm512_add_epi16(iota, _mm512_set1_epi16(1));
        let idx_hi = _mm512_add_epi16(iota, _mm512_set1_epi16(LANES as i16 + 1));
        let idx_lo = _mm512_mask_blend_epi16(below_lo, neg, idx_lo);
        let idx_hi = _mm512_mask_blend_epi16(below_hi, neg, idx_hi);
        let down = |(lo, hi): (__m512i, __m512i)| {
            (
                _mm512_mask2_permutex2var_epi16(lo, idx_lo, below_lo, hi),
                _mm512_mask2_permutex2var_epi16(lo, idx_hi, below_hi, hi),
            )
        };
        let last = _mm512_set1_epi16(LANES as i16 - 1);
        let byte = |v: u8| _mm512_set1_epi8(v as i8);
        let (src_e, src_f) = (byte(super::SRC_E), byte(super::SRC_F));
        let (e_bit, f_bit) = (byte(1 << super::TB_E_EXT), byte(1 << super::TB_F_EXT));
        let edge = u64::from(open > 0);
        let band_lanes = u64::MAX >> (64 - width);
        // Row 0: a leading gap in the query, as far as the band goes.
        let mut row = [TB_NEG; BAND_LANES];
        row[band] = 0;
        for j in 1..=band.min(n) {
            row[band + j] = (-open - ext * j as i32) as i16;
        }
        // SAFETY: `[i16; 64]` is two registers' worth of plain bytes.
        let [mut h_lo, mut h_hi] =
            unsafe { std::mem::transmute::<[i16; BAND_LANES], [__m512i; 2]>(row) };
        let (mut f_lo, mut f_hi) = (neg, neg);
        let n = n as isize;
        for (i, &qc) in (1..).zip(query) {
            // The column of lane 0.
            let c = i as isize - band as isize;
            // Lanes with `1 ≤ j ≤ n` pair `qc` with subject residue `j − 1`.
            let paired = lanes(1 - c, n - c);
            let base = subject.as_ptr().wrapping_offset(c - 1);
            // SAFETY: the unmasked bytes are subject residues `j − 1` for
            // `1 ≤ j ≤ n` (masked-off bytes are neither read nor faulted on).
            let codes = unsafe { _mm512_maskz_loadu_epi8(paired, base.cast()) };
            let hits = _mm512_mask_cmpeq_epi8_mask(paired, codes, _mm512_set1_epi8(qc as i8));
            let (hits_lo, hits_hi) = halves(hits);
            let (diag_lo, diag_hi) = halves(lanes(1 - c, BAND_LANES as isize));
            let m_lo = _mm512_mask_adds_epi16(
                neg,
                diag_lo,
                h_lo,
                _mm512_mask_blend_epi16(hits_lo, pen, rew),
            );
            let m_hi = _mm512_mask_adds_epi16(
                neg,
                diag_hi,
                h_hi,
                _mm512_mask_blend_epi16(hits_hi, pen, rew),
            );
            let (up_lo, up_hi) = down((h_lo, h_hi));
            let (upf_lo, upf_hi) = down((f_lo, f_hi));
            let (fo_lo, fo_hi) = (
                _mm512_subs_epi16(up_lo, open_ext),
                _mm512_subs_epi16(up_hi, open_ext),
            );
            let (fx_lo, fx_hi) = (
                _mm512_subs_epi16(upf_lo, decay[0]),
                _mm512_subs_epi16(upf_hi, decay[0]),
            );
            let f_ext = joined(
                _mm512_cmplt_epi16_mask(fo_lo, fx_lo),
                _mm512_cmplt_epi16_mask(fo_hi, fx_hi),
            );
            (f_lo, f_hi) = (
                _mm512_max_epi16(fo_lo, fx_lo),
                _mm512_max_epi16(fo_hi, fx_hi),
            );
            let (d_lo, d_hi) = (_mm512_max_epi16(m_lo, f_lo), _mm512_max_epi16(m_hi, f_hi));
            let (x_lo, x_hi) = (
                _mm512_subs_epi16(d_lo, open_ext),
                _mm512_subs_epi16(d_hi, open_ext),
            );
            let e_lo = e_scan(x_lo, &decay, neg);
            // `E` at lane 32: `max(x(31), E(31) − ext)`, in every lane.
            let carry = _mm512_max_epi16(x_lo, _mm512_subs_epi16(e_lo, decay[0]));
            let carry = _mm512_permutexvar_epi16(last, carry);
            let e_hi = _mm512_max_epi16(e_scan(x_hi, &decay, neg), _mm512_subs_epi16(carry, ramp));
            (h_lo, h_hi) = (_mm512_max_epi16(d_lo, e_lo), _mm512_max_epi16(d_hi, e_hi));
            let from_diag = joined(
                _mm512_mask_cmpge_epi16_mask(_mm512_cmpge_epi16_mask(m_lo, e_lo), m_lo, f_lo),
                _mm512_mask_cmpge_epi16_mask(_mm512_cmpge_epi16_mask(m_hi, e_hi), m_hi, f_hi),
            );
            let from_e = joined(
                _mm512_cmpge_epi16_mask(e_lo, f_lo),
                _mm512_cmpge_epi16_mask(e_hi, f_hi),
            );
            let opens_below = joined(
                _mm512_cmplt_epi16_mask(
                    _mm512_subs_epi16(h_lo, open_ext),
                    _mm512_subs_epi16(e_lo, decay[0]),
                ),
                _mm512_cmplt_epi16_mask(
                    _mm512_subs_epi16(h_hi, open_ext),
                    _mm512_subs_epi16(e_hi, decay[0]),
                ),
            );
            let e_ext = (opens_below << 1 | edge) & !lanes(-c, -c);
            let mut v = _mm512_maskz_mov_epi8(!from_diag & from_e, src_e);
            v = _mm512_mask_mov_epi8(v, !(from_diag | from_e), src_f);
            v = _mm512_mask_add_epi8(v, e_ext, v, e_bit);
            v = _mm512_mask_add_epi8(v, f_ext, v, f_bit);
            let store = lanes(-c, n - c) & band_lanes;
            // SAFETY: the stored bytes are lanes `< width` of row `i`,
            // inside `bt` (asserted above).
            unsafe { _mm512_mask_storeu_epi8(bt.as_mut_ptr().add(i * width).cast(), store, v) };
        }
        // SAFETY: as for row 0.
        let row = unsafe { std::mem::transmute::<[__m512i; 2], [i16; BAND_LANES]>([h_lo, h_hi]) };
        row[n as usize + band - m].into()
    }
}

/// Bidirectional gapped extension anchored at `(q0, s0)` (the anchor pair
/// itself is scored by the right extension), in reusable DP rows. Returns
/// `(score, q_range, s_range)`. The left half reads the two prefixes
/// backwards in place, so an extension costs its band cells and nothing
/// that grows with `q0` or `s0`.
#[allow(clippy::too_many_arguments)]
pub fn extend_gapped_with(
    query: &[u8],
    subject: &[u8],
    q0: usize,
    s0: usize,
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> (i32, std::ops::Range<usize>, std::ops::Range<usize>) {
    extend_gapped_by(
        RowKernel::detect(),
        query,
        subject,
        q0,
        s0,
        scorer,
        gaps,
        x_drop,
        ws,
    )
}

/// [`extend_gapped_with`] by `kernel`.
#[allow(clippy::too_many_arguments)]
fn extend_gapped_by(
    kernel: RowKernel,
    query: &[u8],
    subject: &[u8],
    q0: usize,
    s0: usize,
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> (i32, std::ops::Range<usize>, std::ops::Range<usize>) {
    let (q, s) = (&query[q0..], &subject[s0..]);
    let right = xdrop_directed::<false>(kernel, q, s, scorer, gaps, x_drop, ws);
    let (q, s) = (&query[..q0], &subject[..s0]);
    let left = xdrop_directed::<true>(kernel, q, s, scorer, gaps, x_drop, ws);
    (
        left.score + right.score,
        (q0 - left.q_ext)..(q0 + right.q_ext),
        (s0 - left.s_ext)..(s0 + right.s_ext),
    )
}

/// One aligned column in a traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Query and subject residues aligned (match or mismatch).
    Sub,
    /// Gap in the query (subject residue unmatched).
    InsSubject,
    /// Gap in the subject (query residue unmatched).
    InsQuery,
}

/// Alignment summary statistics from a traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlignStats {
    /// Aligned columns.
    pub length: usize,
    /// Identical pairs.
    pub identities: usize,
    /// Substituted (non-identical) pairs.
    pub mismatches: usize,
    /// Gap openings.
    pub gap_opens: usize,
    /// Total gapped columns.
    pub gap_letters: usize,
}

/// Banded global alignment of `query` vs `subject` with affine gaps and
/// full traceback, in caller-provided scratch. `extra_band` widens the
/// band beyond the length difference. Returns `(score, ops)`; the ops
/// borrow from `ws` and are overwritten by the next call.
///
/// The band is `|m − n| + max(extra_band, 1)` cells either side of the
/// main diagonal (`width = 2·band + 1` cells a row), and inside it:
///
/// ```text
/// F(i,j) = max(H(i-1,j) - open - ext, F(i-1,j) - ext)      gap in subject
/// E(i,j) = max(H(i,j-1) - open - ext, E(i,j-1) - ext)      gap in query
/// H(i,j) = max(M(i,j), E(i,j), F(i,j))
/// M(i,j) = H(i-1,j-1) + s(q_i, s_j)  if H(i-1,j-1) > NEG/2,  else NEG
/// ```
///
/// Invariants that define the answers (pinned against the previous
/// six-matrix implementation, kept as the test oracle):
///
/// * ties: `F` and `E` *open* a gap when opening scores `>=` extending
///   one; `H` takes the diagonal when `M >= E` and `M >= F`, else `E` when
///   `E >= F`, else `F`;
/// * a cell outside the band reads `NEG` in every matrix, and `M` is `NEG`
///   rather than `NEG + s` under such a cell (the `> NEG/2` guard);
/// * column 0 pairs with no subject residue, so only `F` reaches it; row 0
///   is a leading gap in the query as far as the band goes, opened at
///   column 1 and extended after it;
/// * the traceback starts at `(m, n)` in `H` and follows the recorded
///   choices; an `H` cell that says "diagonal" on row or column 0 falls
///   back to the gap that leaves the matrix (no finite path produces one).
///
/// Each cell's three choices go into ONE traceback byte (bits 0–1 the
/// source of `H`: 0 diagonal, 1 `E`, 2 `F`; bit 2 set if `E` extended;
/// bit 3 set if `F` did) of a flat `(m+1) × width` buffer, row `i` at
/// `i·width`, cell `(i, j)` at lane `j + band − i` of it. Two row kernels
/// fill that buffer, and the CPU and the input pick one
/// ([`traceback_kernel`] names the CPU's):
///
/// * the scalar kernel runs everywhere: a cell at a time, `h`/`f` one
///   row each indexed by subject column and updated in place as in
///   [`xdrop_extend_with`], every comparison a select (off the main
///   diagonal each is a coin flip);
/// * where `avx512bw` is present, a row is two `zmm` registers of 32
///   `i16` lanes in band coordinates instead (see `avx512::banded_rows`),
///   and a row's bytes are one masked store. It runs when the band is at
///   most 64 lanes wide (`|m − n| ≤ 15` at the `extra_band` of 16 that
///   `finalize` passes) and every value the alignment can form fits
///   `i16` (`fits_i16_global`); otherwise the scalar kernel runs
///   ([`GappedWorkspace::traceback_fallbacks`] counts those).
///
/// Both write the same byte for every cell of the band with `0 ≤ j ≤ n`,
/// so the walk back, which is shared, returns the same ops.
///
/// No stale cell is read, although nothing is cleared between calls: row
/// `i` of the scalar kernel reads `h[j]`/`f[j]` for its own columns
/// `max(i-band, 0) ..= min(i+band, n)` and `h` of the column before them.
/// All but the last were written by row `i-1` (row 0 writes its whole
/// span); the last, when it is `i + band`, is new to the band and set to
/// `NEG` before the row starts. The register kernel keeps its rows in
/// registers. The walk back visits only cells whose value is finite, and
/// those were all written by this call.
pub fn banded_global_with<'w>(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    extra_band: usize,
    ws: &'w mut GappedWorkspace,
) -> (i32, &'w [AlignOp]) {
    banded_global_by(
        RowKernel::detect(),
        query,
        subject,
        scorer,
        gaps,
        extra_band,
        ws,
    )
}

/// The traceback row kernel this CPU runs where the band and the scores
/// allow: `"avx512bw"` (a row in two registers) or `"scalar"`.
pub fn traceback_kernel() -> &'static str {
    xdrop_row_kernel()
}

/// Whether every value the register traceback kernel forms for an `m` by
/// `n` alignment stays inside `i16`, at least 8 192 above its out-of-band
/// sentinel (−24 576): no cell scores more than `sub·min(m, n)` with
/// `sub = max(|reward|, |penalty|)`, and none less than the in-band path
/// into it that runs down the diagonal and then gaps, at most `open +
/// max(sub, extend)·(m + n)` below zero; one more gap step costs `open +
/// 2·extend`, and the `E` scan's constants reach `31·extend`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn fits_i16_global(reward: i32, penalty: i32, gaps: GapPenalties, m: usize, n: usize) -> bool {
    let (open, ext) = (i64::from(gaps.open), i64::from(gaps.extend));
    let sub = i64::from(reward).abs().max(i64::from(penalty).abs());
    let (m, n) = (m as i64, n as i64);
    open >= 0
        && ext >= 0
        && (2 * open + 64 * ext).saturating_add(sub.max(ext).saturating_mul(m + n)) <= 16_384
        && sub.saturating_mul(m.min(n) + 1) <= 16_384
}

/// [`banded_global_with`] by `kernel`.
pub(crate) fn banded_global_by<'w>(
    kernel: RowKernel,
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    extra_band: usize,
    ws: &'w mut GappedWorkspace,
) -> (i32, &'w [AlignOp]) {
    let Scorer::Nucleotide { reward, penalty } = *scorer;
    let (m, n) = (query.len(), subject.len());
    ws.ops.clear();
    if m == 0 || n == 0 {
        // One end-to-end gap, or nothing at all.
        let (op, len) = if m == 0 {
            (AlignOp::InsSubject, n)
        } else {
            (AlignOp::InsQuery, m)
        };
        ws.ops.resize(len, op);
        let score = if len == 0 { 0 } else { -gaps.cost(len as i32) };
        return (score, &ws.ops);
    }
    let band = m.abs_diff(n) + extra_band.max(1);
    let width = 2 * band + 1;
    if ws.bt.len() < (m + 1) * width {
        ws.bt.resize((m + 1) * width, 0);
    }
    // Row 0: a leading gap in the query, as far as the band goes.
    for j in 1..=band.min(n) {
        ws.bt[band + j] = SRC_E | ((j > 1) as u8) << TB_E_EXT;
    }
    let score = banded_rows(kernel, query, subject, reward, penalty, gaps, band, ws);
    walk_back(&ws.bt, band, m, n, &mut ws.ops);
    (score, &ws.ops)
}

/// Rows `1..=m` of a traceback by `kernel` into `ws.bt`; returns `H(m, n)`.
#[allow(clippy::too_many_arguments)]
fn banded_rows(
    kernel: RowKernel,
    query: &[u8],
    subject: &[u8],
    reward: i32,
    penalty: i32,
    gaps: GapPenalties,
    band: usize,
    ws: &mut GappedWorkspace,
) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if kernel == RowKernel::Register && std::arch::is_x86_feature_detected!("avx512bw") {
        let (m, n) = (query.len(), subject.len());
        if 2 * band < avx512::BAND_LANES && fits_i16_global(reward, penalty, gaps, m, n) {
            // SAFETY: the CPU was just seen to support AVX-512BW, the band
            // fits the register pair and `bt` holds `(m + 1)·width` bytes,
            // all that `banded_rows` needs (`fits_i16_global` makes its
            // answer exact).
            return unsafe {
                avx512::banded_rows(query, subject, reward, penalty, gaps, band, &mut ws.bt)
            };
        }
        ws.trace_fallbacks += 1;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel;
    banded_kernel(
        query,
        subject,
        |a, b| pick(a == b, reward, penalty),
        gaps,
        band,
        ws,
    )
}

/// Where a traceback byte says `H` came from (bits 0–1), which doubles as
/// the matrix the walk back is in: `H` itself moves diagonally.
const TB_SRC: u8 = 0b11;
const SRC_DIAG: u8 = 0;
const SRC_E: u8 = 1;
const SRC_F: u8 = 2;
/// Bit positions of "`E` extended a gap" and "`F` extended a gap".
const TB_E_EXT: u32 = 2;
const TB_F_EXT: u32 = 3;

/// What the traceback kernel's cell loop carries from cell to cell.
struct TraceCarry {
    /// `H(i-1, j-1)`.
    diag: i32,
    /// `H(i, j-1)`.
    h_left: i32,
    /// `E(i, j-1)`.
    e_left: i32,
    open_ext: i32,
    ext: i32,
}

impl TraceCarry {
    /// One DP cell; `h`/`f` hold row `i-1` on entry and row `i` on return,
    /// `bt` receives the cell's three choices.
    #[inline(always)]
    fn cell(&mut self, sub: i32, h: &mut i32, f: &mut i32, bt: &mut u8) {
        let up = *h;
        let (f_open, f_ext) = (up - self.open_ext, *f - self.ext);
        let f_extends = f_open < f_ext;
        let fv = pick(f_extends, f_ext, f_open);
        let (e_open, e_ext) = (self.h_left - self.open_ext, self.e_left - self.ext);
        let e_extends = e_open < e_ext;
        let ev = pick(e_extends, e_ext, e_open);
        let mv = pick(self.diag > NEG / 2, self.diag + sub, NEG);
        let from_diag = (mv >= ev) & (mv >= fv);
        let from_e = ev >= fv;
        let hv = pick(from_diag, mv, pick(from_e, ev, fv));
        // SRC_DIAG, else SRC_E, else SRC_F — as arithmetic, because a
        // select of constants comes out of LLVM as a branch.
        let src = (!from_diag as u8) << (!from_e as u8);
        *bt = src | (e_extends as u8) << TB_E_EXT | (f_extends as u8) << TB_F_EXT;
        self.diag = up;
        self.h_left = hv;
        self.e_left = ev;
        *h = hv;
        *f = fv;
    }
}

/// The scalar row kernel: rows `1..=m` of the band a cell at a time, in
/// the workspace's `h`/`f` rows; the row windows of `h`, `f`, the
/// traceback bytes and the subject are cut *before* the cell loop, which
/// then zips four equally long slices and carries no bounds check, and
/// `H(i-1,j-1)`, `H(i,j-1)`, `E(i,j-1)` ride in registers. Returns
/// `H(m, n)`.
fn banded_kernel(
    query: &[u8],
    subject: &[u8],
    score: impl Fn(u8, u8) -> i32,
    gaps: GapPenalties,
    band: usize,
    ws: &mut GappedWorkspace,
) -> i32 {
    let (m, n) = (query.len(), subject.len());
    let width = 2 * band + 1;
    let (open_ext, ext) = (gaps.open + gaps.extend, gaps.extend);
    ws.ensure(n);
    let GappedWorkspace { h, f, bt, .. } = ws;
    // Row 0: a leading gap in the query, as far as the band goes.
    h[0] = 0;
    f[0] = NEG;
    for j in 1..=band.min(n) {
        h[j] = -gaps.open - ext * j as i32;
        f[j] = NEG;
    }
    for i in 1..=m {
        let qc = query[i - 1];
        let (jlo, jhi) = (i.saturating_sub(band), (i + band).min(n));
        if jhi == i + band {
            // The one column this row adds has nothing above it.
            h[jhi] = NEG;
            f[jhi] = NEG;
        }
        let (diag, h_left, sub) = if jlo == 0 {
            // Column 0 has nothing to its left or on its diagonal: only F
            // can reach it. `NEG + open_ext` makes E come out at exactly
            // NEG, and opened rather than extended.
            (NEG, NEG + open_ext, 0)
        } else {
            // Left of the band reads NEG; the diagonal cell is the first
            // of row i-1, which this row does not overwrite.
            (h[jlo - 1], NEG, score(qc, subject[jlo - 1]))
        };
        let mut carry = TraceCarry {
            diag,
            h_left,
            e_left: NEG,
            open_ext,
            ext,
        };
        let first = i * width + jlo + band - i;
        let (h0, hs) = h[jlo..=jhi].split_first_mut().expect("jlo <= jhi");
        let (f0, fs) = f[jlo..=jhi].split_first_mut().expect("jlo <= jhi");
        let (b0, bs) = bt[first..=first + jhi - jlo]
            .split_first_mut()
            .expect("jlo <= jhi");
        carry.cell(sub, h0, f0, b0);
        // The other columns pair with subject residues `jlo..jhi`.
        let s = &subject[jlo..jhi];
        for (((h, f), b), &sc) in hs.iter_mut().zip(fs).zip(bs).zip(s) {
            carry.cell(score(qc, sc), h, f, b);
        }
    }
    h[n]
}

/// The walk back from `(m, n)` in `H` through the traceback bytes of a
/// band `band` cells either side of the diagonal, into `ops` (front to
/// back).
fn walk_back(bt: &[u8], band: usize, m: usize, n: usize, ops: &mut Vec<AlignOp>) {
    let width = 2 * band + 1;
    let (mut i, mut j) = (m, n);
    let mut state = SRC_DIAG;
    while i > 0 || j > 0 {
        let b = bt[i * width + j + band - i];
        match state {
            SRC_DIAG => match b & TB_SRC {
                SRC_DIAG if i > 0 && j > 0 => {
                    ops.push(AlignOp::Sub);
                    i -= 1;
                    j -= 1;
                }
                SRC_E => state = SRC_E,
                SRC_F => state = SRC_F,
                // Degenerate: fall back to gaps to terminate.
                _ => state = if j > 0 { SRC_E } else { SRC_F },
            },
            SRC_E => {
                ops.push(AlignOp::InsSubject);
                let extended = b & 1 << TB_E_EXT != 0;
                state = if extended { SRC_E } else { SRC_DIAG };
                j -= 1;
            }
            _ => {
                ops.push(AlignOp::InsQuery);
                let extended = b & 1 << TB_F_EXT != 0;
                state = if extended { SRC_F } else { SRC_DIAG };
                i -= 1;
            }
        }
    }
    ops.reverse();
}

/// Compute alignment statistics by walking ops over the aligned ranges.
pub fn align_stats(query: &[u8], subject: &[u8], ops: &[AlignOp]) -> AlignStats {
    let mut st = AlignStats {
        length: ops.len(),
        ..Default::default()
    };
    let (mut qi, mut si) = (0usize, 0usize);
    let mut in_gap = false;
    for &op in ops {
        match op {
            AlignOp::Sub => {
                if query[qi] == subject[si] {
                    st.identities += 1;
                } else {
                    st.mismatches += 1;
                }
                qi += 1;
                si += 1;
                in_gap = false;
            }
            AlignOp::InsSubject => {
                if !in_gap {
                    st.gap_opens += 1;
                }
                st.gap_letters += 1;
                si += 1;
                in_gap = true;
            }
            AlignOp::InsQuery => {
                if !in_gap {
                    st.gap_opens += 1;
                }
                st.gap_letters += 1;
                qi += 1;
                in_gap = true;
            }
        }
    }
    st
}

/// The six-matrix banded global alignment this module used before the
/// flat traceback kernel, kept verbatim as the oracle it is pinned
/// against. (The X-drop kernel's oracle is the reference kernel's own
/// five-row DP, in [`crate::baseline`].)
#[cfg(test)]
mod oracle {
    use super::{AlignOp, NEG};
    use crate::matrix::{GapPenalties, Scorer};

    pub fn banded_global(
        query: &[u8],
        subject: &[u8],
        scorer: &Scorer,
        gaps: GapPenalties,
        extra_band: usize,
    ) -> (i32, Vec<AlignOp>) {
        let (m, n) = (query.len(), subject.len());
        if m == 0 {
            return (
                if n == 0 { 0 } else { -gaps.cost(n as i32) },
                vec![AlignOp::InsSubject; n],
            );
        }
        if n == 0 {
            return (-gaps.cost(m as i32), vec![AlignOp::InsQuery; m]);
        }
        let band = (m as i64 - n as i64).unsigned_abs() as usize + extra_band.max(1);
        let width = 2 * band + 1;
        let idx = |i: usize, j: i64| -> Option<usize> {
            // j ranges over [i - band, i + band] mapped onto [0, width).
            let off = j - (i as i64 - band as i64);
            if off < 0 || off >= width as i64 {
                None
            } else {
                Some(off as usize)
            }
        };
        let open_ext = gaps.open + gaps.extend;
        let ext = gaps.extend;
        // 3 DP matrices H/E/F stored banded; traceback bytes per state.
        let mut h = vec![vec![NEG; width]; m + 1];
        let mut e = vec![vec![NEG; width]; m + 1];
        let mut f = vec![vec![NEG; width]; m + 1];
        // Traceback: 0=diag,1=from E,2=from F for H; for E: bit, for F: bit.
        let mut bt_h = vec![vec![0u8; width]; m + 1];
        let mut bt_e = vec![vec![0u8; width]; m + 1];
        let mut bt_f = vec![vec![0u8; width]; m + 1];

        if let Some(k) = idx(0, 0) {
            h[0][k] = 0;
        }
        for j in 1..=n as i64 {
            if let Some(k) = idx(0, j) {
                e[0][k] = -gaps.open - ext * j as i32;
                h[0][k] = e[0][k];
                bt_h[0][k] = 1;
                bt_e[0][k] = if j > 1 { 1 } else { 0 }; // 1 = extend, 0 = open
            }
        }
        for i in 1..=m {
            let jlo = (i as i64 - band as i64).max(0);
            let jhi = (i as i64 + band as i64).min(n as i64);
            for j in jlo..=jhi {
                let k = idx(i, j).unwrap();
                // F (gap in subject: vertical from i-1, same j).
                let fv = {
                    let up_h = idx(i - 1, j).map_or(NEG, |k2| h[i - 1][k2]);
                    let up_f = idx(i - 1, j).map_or(NEG, |k2| f[i - 1][k2]);
                    if up_h - open_ext >= up_f - ext {
                        bt_f[i][k] = 0;
                        up_h - open_ext
                    } else {
                        bt_f[i][k] = 1;
                        up_f - ext
                    }
                };
                f[i][k] = fv;
                // E (gap in query: horizontal from j-1, same i).
                let ev = if j > 0 {
                    let left_h = idx(i, j - 1).map_or(NEG, |k2| h[i][k2]);
                    let left_e = idx(i, j - 1).map_or(NEG, |k2| e[i][k2]);
                    if left_h - open_ext >= left_e - ext {
                        bt_e[i][k] = 0;
                        left_h - open_ext
                    } else {
                        bt_e[i][k] = 1;
                        left_e - ext
                    }
                } else {
                    NEG
                };
                e[i][k] = ev;
                // H.
                let diag = if j > 0 {
                    idx(i - 1, j - 1).map_or(NEG, |k2| h[i - 1][k2])
                } else {
                    NEG
                };
                let mv = if diag > NEG / 2 {
                    diag + scorer.score(query[i - 1], subject[j as usize - 1])
                } else {
                    NEG
                };
                let (hv, tb) = if mv >= ev && mv >= fv {
                    (mv, 0u8)
                } else if ev >= fv {
                    (ev, 1u8)
                } else {
                    (fv, 2u8)
                };
                h[i][k] = hv;
                bt_h[i][k] = tb;
            }
        }

        let score = idx(m, n as i64).map_or(NEG, |k| h[m][k]);
        // Traceback from (m, n) in state H.
        let mut ops_rev = Vec::with_capacity(m + n);
        let (mut i, mut j) = (m, n as i64);
        let mut state = 0u8; // 0=H,1=E,2=F
        while i > 0 || j > 0 {
            let k = idx(i, j).expect("in band");
            match state {
                0 => match bt_h[i][k] {
                    0 if i > 0 && j > 0 => {
                        ops_rev.push(AlignOp::Sub);
                        i -= 1;
                        j -= 1;
                    }
                    1 => state = 1,
                    2 => state = 2,
                    _ => {
                        // Degenerate: fall back to gaps to terminate.
                        if j > 0 {
                            state = 1;
                        } else {
                            state = 2;
                        }
                    }
                },
                1 => {
                    ops_rev.push(AlignOp::InsSubject);
                    let was_extend = bt_e[i][k] == 1;
                    j -= 1;
                    state = if was_extend { 1 } else { 0 };
                }
                _ => {
                    ops_rev.push(AlignOp::InsQuery);
                    let was_extend = bt_f[i][k] == 1;
                    i -= 1;
                    state = if was_extend { 2 } else { 0 };
                }
            }
        }
        ops_rev.reverse();
        (score, ops_rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
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
    fn g() -> GapPenalties {
        GapPenalties::blastn()
    }
    /// The second scoring system the oracle proptests sweep: +1/−2 (a row
    /// of the gapped-statistics table) with the same gaps.
    fn nt_1_2() -> Scorer {
        Scorer::Nucleotide {
            reward: 1,
            penalty: -2,
        }
    }

    #[test]
    fn xdrop_perfect_extension() {
        let q = encode_nt_seq(b"ACGTACGTACGT");
        let s = q.clone();
        let mut ws = GappedWorkspace::new();
        let r = xdrop_extend_with(&q, &s, &nt(), g(), 20, &mut ws);
        assert_eq!(r.score, 12);
        assert_eq!((r.q_ext, r.s_ext), (12, 12));
    }

    #[test]
    fn xdrop_stops_at_junk() {
        let q = encode_nt_seq(b"ACGTACGTCCCCCCCC");
        let s = encode_nt_seq(b"ACGTACGTGGGGGGGG");
        let mut ws = GappedWorkspace::new();
        let r = xdrop_extend_with(&q, &s, &nt(), g(), 6, &mut ws);
        assert_eq!(r.score, 8);
        assert_eq!((r.q_ext, r.s_ext), (8, 8));
    }

    #[test]
    fn xdrop_crosses_insertion() {
        // Subject has a 2-base insertion; with gaps the extension should
        // bridge it: 8 matches, gap(2) = −9, then 12 more matches.
        let q = encode_nt_seq(b"ACGTACGTTTGCATGCATGC");
        let s = encode_nt_seq(b"ACGTACGTGGTTGCATGCATGC");
        let mut ws = GappedWorkspace::new();
        let r = xdrop_extend_with(&q, &s, &nt(), g(), 25, &mut ws);
        // Best: 20 matches − gap cost 9 = 11.
        assert_eq!(r.score, 20 - 9);
        assert_eq!(r.q_ext, 20);
        assert_eq!(r.s_ext, 22);
    }

    /// A dead cell stores `NEG`, not its `H`: the first pair mismatches
    /// (−2, one below `best − x_drop`), and the three matches after it
    /// would lift that diagonal to +1 had the dead cell kept its value.
    #[test]
    fn a_dead_cell_does_not_revive_its_diagonal() {
        let (q, s) = (encode_nt_seq(b"CCGC"), encode_nt_seq(b"ACGC"));
        let want = ExtensionResult {
            score: 0,
            q_ext: 0,
            s_ext: 0,
        };
        assert_eq!(baseline::xdrop_extend(&q, &s, &nt_1_2(), g(), 1), want);
        let mut ws = GappedWorkspace::new();
        assert_eq!(xdrop_extend_with(&q, &s, &nt_1_2(), g(), 1, &mut ws), want);
    }

    /// The best cell is the first column holding the row's new `best`:
    /// the last row here raises `best` at column 3 and again at column 4,
    /// and column 5 ties column 4. Taking the last equal column, or the
    /// first that beat the old `best`, picks 5 or 3. (A +1 reward cannot
    /// raise `best` twice in one row, hence +2.)
    #[test]
    fn the_best_cell_is_the_first_to_reach_the_rows_best() {
        let (q, s) = (encode_nt_seq(b"CACAAA"), encode_nt_seq(b"AAAAA"));
        let scorer = Scorer::Nucleotide {
            reward: 2,
            penalty: -3,
        };
        let gaps = GapPenalties { open: 2, extend: 1 };
        let want = ExtensionResult {
            score: 2,
            q_ext: 6,
            s_ext: 4,
        };
        assert_eq!(baseline::xdrop_extend(&q, &s, &scorer, gaps, 8), want);
        let mut ws = GappedWorkspace::new();
        assert_eq!(xdrop_extend_with(&q, &s, &scorer, gaps, 8, &mut ws), want);
    }

    #[test]
    fn bidirectional_extension_covers_hsp() {
        let q = encode_nt_seq(b"TTTTACGTACGTACGTTTTT");
        let s = encode_nt_seq(b"GGGGACGTACGTACGTGGGG");
        // Anchor inside the common core.
        let mut ws = GappedWorkspace::new();
        let (score, qr, sr) = extend_gapped_with(&q, &s, 8, 8, &nt(), g(), 8, &mut ws);
        assert_eq!(score, 12);
        assert_eq!(qr, 4..16);
        assert_eq!(sr, 4..16);
    }

    #[test]
    fn banded_global_identity() {
        let q = encode_nt_seq(b"ACGTACGT");
        let mut ws = GappedWorkspace::new();
        let (score, ops) = banded_global_with(&q, &q, &nt(), g(), 4, &mut ws);
        assert_eq!(score, 8);
        assert!(ops.iter().all(|&o| o == AlignOp::Sub));
        let st = align_stats(&q, &q, ops);
        assert_eq!(st.identities, 8);
        assert_eq!(st.mismatches, 0);
        assert_eq!(st.gap_opens, 0);
    }

    #[test]
    fn banded_global_with_gap() {
        let q = encode_nt_seq(b"ACGTACGT");
        let s = encode_nt_seq(b"ACGTTACGT"); // one inserted T in subject
        let mut ws = GappedWorkspace::new();
        let (score, ops) = banded_global_with(&q, &s, &nt(), g(), 4, &mut ws);
        assert_eq!(score, 8 - 7); // 8 matches − gap(1)
        let st = align_stats(&q, &s, ops);
        assert_eq!(st.identities, 8);
        assert_eq!(st.gap_opens, 1);
        assert_eq!(st.gap_letters, 1);
        assert_eq!(st.length, 9);
    }

    #[test]
    fn banded_global_mismatch_vs_gap_choice() {
        let q = encode_nt_seq(b"AAAATTTT");
        let s = encode_nt_seq(b"AAAACTTT");
        let mut ws = GappedWorkspace::new();
        let (score, ops) = banded_global_with(&q, &s, &nt(), g(), 4, &mut ws);
        // One mismatch (−3) beats two gaps (−14): 7 − 3 = 4.
        assert_eq!(score, 4);
        let st = align_stats(&q, &s, ops);
        assert_eq!(st.mismatches, 1);
        assert_eq!(st.identities, 7);
    }

    #[test]
    fn empty_inputs() {
        let q = encode_nt_seq(b"ACG");
        let mut ws = GappedWorkspace::new();
        let (score, ops) = banded_global_with(&q, &[], &nt(), g(), 2, &mut ws);
        assert_eq!(ops.len(), 3);
        assert_eq!(score, -(5 + 2 * 3));
        let r = xdrop_extend_with(&[], &q, &nt(), g(), 10, &mut ws);
        assert_eq!(r.score, 0);
    }

    /// `len` random bases; with `related`, a mutated copy of `of` instead
    /// (substitutions and short indels), which is what drives long
    /// extensions through gaps.
    fn residues(rng: &mut StdRng, len: usize, related: Option<&[u8]>) -> Vec<u8> {
        let Some(of) = related else {
            return (0..len).map(|_| rng.random_range(0..4u8)).collect();
        };
        let mut out = Vec::with_capacity(len + 8);
        for &c in of {
            match rng.random_range(0..40u32) {
                0 => out.push(rng.random_range(0..4u8)), // substitution
                1 => {}                                  // deletion
                2 => {
                    out.push(c);
                    for _ in 0..rng.random_range(1..4u32) {
                        out.push(rng.random_range(0..4u8)); // insertion
                    }
                }
                _ => out.push(c),
            }
        }
        out
    }

    /// The row kernels this CPU runs, the scalar one first. Where
    /// `avx512bw` is absent, says once that the register half is skipped.
    fn kernels() -> Vec<RowKernel> {
        if RowKernel::detect() == RowKernel::Register {
            return vec![RowKernel::Scalar, RowKernel::Register];
        }
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| {
            println!("avx512bw absent: the register row kernel's half of these tests was skipped")
        });
        vec![RowKernel::Scalar]
    }

    /// Every kernel on one case, in `ws`: the one-directional extension
    /// from the starts of `q` and `s`, the one from their ends, and the
    /// bidirectional one anchored at `(q0, s0)` each equal the reference
    /// kernel's five-row DP, and every kernel costs the same DP rows and
    /// cells. Returns the register kernel's fallbacks.
    #[allow(clippy::too_many_arguments)]
    fn assert_kernels_match_oracle(
        q: &[u8],
        s: &[u8],
        q0: usize,
        s0: usize,
        scorer: &Scorer,
        gaps: GapPenalties,
        x_drop: i32,
        ws: &mut GappedWorkspace,
    ) -> u64 {
        let (rq, rs): (Vec<u8>, Vec<u8>) = (
            q.iter().rev().copied().collect(),
            s.iter().rev().copied().collect(),
        );
        let want = (
            baseline::xdrop_extend(q, s, scorer, gaps, x_drop),
            baseline::xdrop_extend(&rq, &rs, scorer, gaps, x_drop),
            baseline::extend_gapped(q, s, q0, s0, scorer, gaps, x_drop),
        );
        let (mut costs, fallbacks) = (Vec::new(), ws.dp_fallbacks());
        for kernel in kernels() {
            let (rows, cells) = (ws.dp_rows(), ws.dp_cells());
            let got = (
                xdrop_directed::<false>(kernel, q, s, scorer, gaps, x_drop, ws),
                xdrop_directed::<true>(kernel, q, s, scorer, gaps, x_drop, ws),
                extend_gapped_by(kernel, q, s, q0, s0, scorer, gaps, x_drop, ws),
            );
            assert_eq!(
                got, want,
                "{kernel:?} {gaps:?} x_drop {x_drop} at ({q0}, {s0}) q={q:?} s={s:?}"
            );
            costs.push((kernel, ws.dp_rows() - rows, ws.dp_cells() - cells));
        }
        assert!(
            costs.iter().all(|c| (c.1, c.2) == (costs[0].1, costs[0].2)),
            "DP rows and cells differ by kernel: {costs:?} q={q:?} s={s:?}"
        );
        ws.dp_fallbacks() - fallbacks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Both row kernels return what the reference kernel's five-row DP
        /// returns, at the same DP row and cell cost: forward, backward and
        /// bidirectional, both scorers, every gap cost `open 0..=6 × extend
        /// 1..=3` (the E-from-D row needs `open >= 0`, and `open == 0` is
        /// its edge), unrelated and related pairs, empty inputs included,
        /// with one workspace reused (and so left dirty) across every case.
        #[test]
        fn in_place_kernel_matches_five_row_oracle(
            seed in any::<u64>(),
            qlen in 0usize..160,
            slen in 0usize..220,
            x_drop in 5i32..45,
            open in 0i32..=6,
            extend in 1i32..=3,
            minus_two in any::<bool>(),
            related in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scorer = if minus_two { nt_1_2() } else { nt() };
            let gaps = GapPenalties { open, extend };
            let q = residues(&mut rng, qlen, None);
            let s = if related {
                residues(&mut rng, 0, Some(&q))
            } else {
                residues(&mut rng, slen, None)
            };
            let q0 = rng.random_range(0..q.len() + 1);
            let s0 = rng.random_range(0..s.len() + 1);
            // One workspace per test thread, never cleared.
            thread_local! {
                static WS: std::cell::RefCell<GappedWorkspace> =
                    std::cell::RefCell::new(GappedWorkspace::new());
            }
            WS.with(|ws| {
                let ws = &mut *ws.borrow_mut();
                assert_kernels_match_oracle(&q, &s, q0, s0, &scorer, gaps, x_drop, ws);
            });
        }
    }

    /// A band wider than 32 columns sends the register kernel back to the
    /// scalar one, which starts over and counts every row once. With
    /// `open 0` row 0 alone is 44 columns wide; with `open 20` row 0 has
    /// 24 and the band outgrows 32 lanes a few rows in.
    #[test]
    fn a_row_wider_than_32_lanes_falls_back_and_still_matches() {
        let mut rng = StdRng::seed_from_u64(33);
        let q = residues(&mut rng, 200, None);
        let s = residues(&mut rng, 0, Some(&q));
        let mut ws = GappedWorkspace::new();
        for open in [0, 20] {
            let gaps = GapPenalties { open, extend: 1 };
            let fell_back = assert_kernels_match_oracle(&q, &s, 100, 100, &nt(), gaps, 44, &mut ws);
            if kernels().contains(&RowKernel::Register) {
                assert!(fell_back > 0, "open {open}: no fallback");
            }
        }
    }

    /// Subjects of 1..=40 bases, extended from both ends of the slice and
    /// from its middle, in both directions: the register kernel's masked
    /// loads start before, and end at, the subject's first and last byte.
    #[test]
    fn short_subjects_at_both_slice_ends() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut ws = GappedWorkspace::new();
        for slen in 1..=40 {
            // A subject that is its own allocation, and a query it is cut
            // from with substitutions and indels.
            let core = residues(&mut rng, slen, None);
            let mut q = residues(&mut rng, 6, None);
            q.extend(residues(&mut rng, 0, Some(&core)));
            q.extend(residues(&mut rng, 6, None));
            let s = core.into_boxed_slice();
            for (scorer, x_drop) in [(nt(), 12), (nt_1_2(), 30)] {
                for (q0, s0) in [
                    (0, 0),
                    (q.len(), s.len()),
                    (6, 0),
                    (q.len() - 6, s.len()),
                    (q.len() / 2, slen / 2),
                ] {
                    let fell_back =
                        assert_kernels_match_oracle(&q, &s, q0, s0, &scorer, g(), x_drop, &mut ws);
                    assert_eq!(fell_back, 0);
                }
            }
        }
    }

    /// A diagonal scoring past what `i16` holds with margin is the scalar
    /// kernel's whatever the CPU: the guard declines it before any row
    /// (no fallback), and the 17 000-base match still scores 17 000.
    #[test]
    fn a_query_past_the_i16_guard_runs_scalar() {
        let (scorer, gaps) = (nt(), g());
        assert!(fits_i16(1, -3, gaps, 30, 16_384));
        assert!(!fits_i16(1, -3, gaps, 30, 17_000));
        let mut rng = StdRng::seed_from_u64(16);
        let q = residues(&mut rng, 17_000, None);
        let mut ws = GappedWorkspace::new();
        let fell_back =
            assert_kernels_match_oracle(&q, &q, 8_500, 8_500, &scorer, gaps, 30, &mut ws);
        assert_eq!(fell_back, 0);
        let r = xdrop_extend_with(&q, &q, &scorer, gaps, 30, &mut ws);
        assert_eq!((r.score, r.q_ext, r.s_ext), (17_000, 17_000, 17_000));
    }

    /// One traceback by every kernel this CPU runs, in `ws`: each returns
    /// the six-matrix oracle's score and ops, and the register kernel
    /// writes the scalar kernel's byte for every cell of the band with
    /// `0 ≤ j ≤ n` but `(0, 0)`, which the walk back never reads and
    /// neither kernel writes (the buffer is scribbled over in between, so
    /// a byte left from the scalar run cannot pass for one). Returns the
    /// traceback fallbacks the register run counted.
    fn assert_tracebacks_match_oracle(
        q: &[u8],
        s: &[u8],
        scorer: &Scorer,
        gaps: GapPenalties,
        extra_band: usize,
        ws: &mut GappedWorkspace,
    ) -> u64 {
        let (m, n) = (q.len(), s.len());
        let want = oracle::banded_global(q, s, scorer, gaps, extra_band);
        let band = m.abs_diff(n) + extra_band.max(1);
        let width = 2 * band + 1;
        let in_band = |i: usize, j: usize| j + band >= i && j <= i + band && (i, j) != (0, 0);
        let (mut scalar_bytes, mut fallbacks) = (Vec::new(), 0);
        for kernel in kernels() {
            if kernel == RowKernel::Register {
                ws.bt.fill(0xF0);
            }
            let before = ws.traceback_fallbacks();
            let (score, ops) = banded_global_by(kernel, q, s, scorer, gaps, extra_band, ws);
            assert_eq!(
                (score, ops),
                (want.0, want.1.as_slice()),
                "{kernel:?} {gaps:?} band +{extra_band} q={q:?} s={s:?}"
            );
            if m == 0 || n == 0 {
                continue;
            }
            let bytes = ws.bt[..(m + 1) * width].to_vec();
            if kernel == RowKernel::Scalar {
                scalar_bytes = bytes;
                continue;
            }
            fallbacks = ws.traceback_fallbacks() - before;
            for i in 0..=m {
                for j in (0..=n).filter(|&j| in_band(i, j)) {
                    let at = i * width + j + band - i;
                    assert_eq!(
                        bytes[at], scalar_bytes[at],
                        "byte of ({i}, {j}): {gaps:?} band +{extra_band} q={q:?} s={s:?}"
                    );
                }
            }
        }
        fallbacks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every traceback kernel returns the score and the very ops the
        /// six-matrix oracle returns, and the register kernel writes the
        /// scalar kernel's traceback bytes: both scorers, every gap cost
        /// `open 0..=6 × extend 1..=3`, unrelated pairs and pairs related
        /// through substitutions and indels, `|m − n|` up to 40 (so the
        /// band `finalize` uses falls both sides of 64 lanes), either side
        /// empty or one residue, every band width the callers and tests
        /// use, with one workspace reused (and so left dirty, by X-drop
        /// extensions too) across every case.
        #[test]
        fn traceback_kernels_match_six_matrix_oracle(
            seed in any::<u64>(),
            m in 0usize..=600,
            skew in -40isize..=40,
            edge in 0u32..12,
            band_ix in 0usize..7,
            open in 0i32..=6,
            extend in 1i32..=3,
            minus_two in any::<bool>(),
            related in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let extra_band = [0, 1, 3, 8, 16, 16, 16][band_ix];
            let scorer = if minus_two { nt_1_2() } else { nt() };
            let gaps = GapPenalties { open, extend };
            let mut q = residues(&mut rng, m, None);
            let mut s = if related {
                residues(&mut rng, 0, Some(&q))
            } else {
                residues(&mut rng, m.saturating_add_signed(skew), None)
            };
            // |m − n| <= 40 either way, so the oracle's matrices stay small.
            s.truncate(m + 40);
            match edge {
                0 => q.clear(),
                1 => s.clear(),
                2 => q.truncate(1),
                3 => s.truncate(1),
                _ => {}
            }
            thread_local! {
                static WS: std::cell::RefCell<GappedWorkspace> =
                    std::cell::RefCell::new(GappedWorkspace::new());
            }
            WS.with(|ws| {
                let ws = &mut *ws.borrow_mut();
                let fell_back =
                    assert_tracebacks_match_oracle(&q, &s, &scorer, gaps, extra_band, ws);
                let width = 2 * (q.len().abs_diff(s.len()) + extra_band.max(1)) + 1;
                if kernels().contains(&RowKernel::Register) && !q.is_empty() && !s.is_empty() {
                    assert_eq!(fell_back, u64::from(width > 64), "width {width}");
                }
                // Leave X-drop's leftovers in the rows for the next case.
                xdrop_extend_with(&q, &s, &scorer, gaps, 30, ws);
            });
        }
    }

    /// A band 65 lanes wide (`|m − n| = 16` at band +16) is the scalar
    /// kernel's, counted as a fallback, and still matches; at `|m − n| =
    /// 15` the band is 63 lanes and the register kernel takes it.
    #[test]
    fn a_band_wider_than_64_lanes_falls_back_and_still_matches() {
        let mut rng = StdRng::seed_from_u64(65);
        let q = residues(&mut rng, 300, None);
        let mut s = residues(&mut rng, 0, Some(&q));
        s.resize(q.len() + 16, 2);
        let mut ws = GappedWorkspace::new();
        for (cut, fallbacks) in [(0, 1), (1, 0)] {
            let s = &s[..s.len() - cut];
            let fell_back = assert_tracebacks_match_oracle(&q, s, &nt(), g(), 16, &mut ws);
            if kernels().contains(&RowKernel::Register) {
                assert_eq!(fell_back, fallbacks, "|m - n| = {}", 16 - cut);
            }
        }
        let dispatched = banded_global_with(&q, &s, &nt(), g(), 16, &mut ws).0;
        assert_eq!(dispatched, oracle::banded_global(&q, &s, &nt(), g(), 16).0);
    }

    /// Lengths both sides of the `i16` guard: at `m + n = 5 415` the
    /// blastn scores fit and the register kernel runs, one residue more
    /// and the scalar kernel does, counted; both match the oracle.
    #[test]
    fn a_traceback_past_the_i16_guard_runs_scalar() {
        assert!(fits_i16_global(1, -3, g(), 2_708, 2_707));
        assert!(!fits_i16_global(1, -3, g(), 2_708, 2_708));
        let mut rng = StdRng::seed_from_u64(16);
        let q = residues(&mut rng, 2_708, None);
        let mut s = residues(&mut rng, 0, Some(&q));
        s.resize(2_708, 1);
        let mut ws = GappedWorkspace::new();
        for (slen, fallbacks) in [(2_707, 0), (2_708, 1)] {
            let fell_back = assert_tracebacks_match_oracle(&q, &s[..slen], &nt(), g(), 16, &mut ws);
            if kernels().contains(&RowKernel::Register) {
                assert_eq!(fell_back, fallbacks, "n = {slen}");
            }
        }
    }

    #[test]
    fn a_repeated_traceback_grows_no_workspace_buffer() {
        // The largest shape `finalize` asks for and the proptest above
        // draws: 600 residues, a 40-residue length difference, band +16.
        let mut rng = StdRng::seed_from_u64(17);
        let q = residues(&mut rng, 600, None);
        let mut s = residues(&mut rng, 0, Some(&q));
        s.extend(residues(&mut rng, 640 - s.len().min(640), None));
        s.truncate(640);
        let mut ws = GappedWorkspace::new();
        let caps = |ws: &GappedWorkspace| {
            (
                (ws.h.len(), ws.h.capacity()),
                (ws.f.len(), ws.f.capacity()),
                (ws.bt.len(), ws.bt.capacity()),
                ws.ops.capacity(),
            )
        };
        let (score, ops) = banded_global_with(&q, &s, &nt(), g(), 16, &mut ws);
        let first = (score, ops.to_vec());
        assert_eq!(first, oracle::banded_global(&q, &s, &nt(), g(), 16));
        assert!(
            first.1.iter().any(|&op| op != AlignOp::Sub),
            "a gapped case"
        );
        let before = caps(&ws);
        // A smaller problem in between must not shrink anything either.
        banded_global_with(&q[..50], &s[..60], &nt(), g(), 3, &mut ws);
        let (score, ops) = banded_global_with(&q, &s, &nt(), g(), 16, &mut ws);
        assert_eq!((score, ops), (first.0, first.1.as_slice()));
        assert_eq!(caps(&ws), before);
    }

    #[test]
    fn extension_cost_does_not_depend_on_subject_length() {
        // A 40-nt seed region in the middle of a 100 kb random subject: the
        // extension leaves the seed, meets noise and dies within an X-drop
        // of it. The DP must touch that neighbourhood only, whichever
        // kernel runs it, and both kernels count the same cells.
        let mut rng = StdRng::seed_from_u64(14);
        let mut subject = residues(&mut rng, 100_000, None);
        let mut query = residues(&mut rng, 400, None);
        let core = residues(&mut rng, 40, None);
        subject.splice(50_000..50_040, core.iter().copied());
        query.splice(180..220, core.iter().copied());
        let want = baseline::extend_gapped(&query, &subject, 200, 50_020, &nt(), g(), 30);
        assert!(want.0 >= 40, "the planted core aligns: {want:?}");
        let mut costs = Vec::new();
        for kernel in kernels() {
            let mut ws = GappedWorkspace::new();
            let got = extend_gapped_by(
                kernel,
                &query,
                &subject,
                200,
                50_020,
                &nt(),
                g(),
                30,
                &mut ws,
            );
            assert_eq!(got, want, "{kernel:?}");
            let cells = ws.dp_cells();
            assert!(cells < 10_000, "{kernel:?}: {cells} cells for a 40-nt core");
            assert!(
                ws.h.len() < 1024 && ws.f.len() == ws.h.len(),
                "{kernel:?}: rows grew to {} columns",
                ws.h.len()
            );
            costs.push((ws.dp_rows(), cells, ws.dp_fallbacks()));
        }
        assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
    }
}
