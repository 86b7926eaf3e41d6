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
/// plus the traceback's byte matrix and its output ops. Everything only
/// ever grows — the rows as far as the widest band any extension reached
/// or the longest aligned subject range traced back, never to a whole
/// subject's length — and nothing is cleared between calls (see
/// [`xdrop_extend_with`] and [`banded_global_with`] for why no stale cell
/// is ever read). `ScanWorkspace` recycles one of these across subjects,
/// fragments and batched queries.
#[derive(Debug, Default)]
pub struct GappedWorkspace {
    h: Vec<i32>,
    f: Vec<i32>,
    /// One byte per band cell, `(m + 1) × width` row-major ([`TB_SRC`]).
    bt: Vec<u8>,
    /// The last traceback's columns.
    ops: Vec<AlignOp>,
}

impl GappedWorkspace {
    /// Empty workspace; buffers grow to the largest problem seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make column `j` addressable in both rows.
    #[inline]
    fn ensure(&mut self, j: usize) {
        if j >= self.h.len() {
            let len = (j + 1).next_power_of_two().max(64);
            self.h.resize(len, NEG);
            self.f.resize(len, NEG);
        }
    }
}

/// X-drop gapped extension of `query` vs `subject` starting at their
/// beginnings (callers slice to anchor). Affine gaps; `x_drop` in raw
/// score units. Allocates fresh DP rows; hot paths should use
/// [`xdrop_extend_with`].
pub fn xdrop_extend(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
) -> ExtensionResult {
    xdrop_extend_with(
        query,
        subject,
        scorer,
        gaps,
        x_drop,
        &mut GappedWorkspace::new(),
    )
}

/// [`xdrop_extend`] with caller-provided DP rows.
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
/// Invariants that define the answers (pinned against the previous
/// five-row implementation, kept as the test oracle):
///
/// * a dead cell stores `NEG` in `H` and `F` and carries `NEG` in `E`, so
///   it breaks the `E` chain and contributes nothing to the row below;
/// * row `i` spans columns `lo(i-1) ..= min(hi(i-1) + 1, n)` where
///   `lo`/`hi` are the first/last live columns of the row above: the band
///   grows at most one column to the right per row, however far `E`
///   could have carried;
/// * `best` is updated inside the row, so a cell is judged against every
///   cell before it, and only a strictly greater `H` moves the best cell:
///   the first best cell in row-major order wins;
/// * the extension ends at the first row with no live cell.
///
/// `h`/`f` are updated in place: at column `j` they still hold row `i-1`
/// until overwritten; `H(i-1,j-1)`, `H(i,j-1)` and `E(i,j-1)` ride in
/// registers. Liveness is a select, not a branch — on unrelated sequences
/// it is a coin flip per cell, and mispredicting it was most of the cost.
///
/// No stale cell is read, although the rows are never cleared: row `i`
/// reads `h[j]`/`f[j]` only for `j` in its own span, which lies inside
/// `lo(i-1) ..= hi(i-1) + 1`. Columns up to `hi(i-1)` were written by row
/// `i-1` (whose span contains its live columns; row 0 writes its whole
/// span), and column `hi(i-1) + 1` is set to a dead sentinel before the
/// row starts. The work done is the number of band cells, independent of
/// the subject's length.
pub fn xdrop_extend_with(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    xdrop_directed::<false>(query, subject, scorer, gaps, x_drop, ws)
}

/// Resolve the scorer once per extension so the cell loop sees a plain
/// closure. `REV` extends from the *ends* of `query` and `subject`
/// backwards (the left half of a bidirectional extension) without copying
/// either.
fn xdrop_directed<const REV: bool>(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    let Scorer::Nucleotide { reward, penalty } = *scorer;
    xdrop_kernel::<REV>(
        query,
        subject,
        |a, b| if a == b { reward } else { penalty },
        gaps,
        x_drop,
        ws,
    )
}

/// What the cell loop carries from cell to cell. A row's live span is
/// read back from the row afterwards instead, so the loop keeps few enough
/// values live to stay in registers.
struct Carry {
    /// Running best score over all cells so far.
    best: i32,
    /// Column where the current row first raised `best`, if it did.
    best_j: usize,
    /// `H(i-1, j-1)`.
    diag: i32,
    /// `H(i, j-1)`.
    h_left: i32,
    /// `E(i, j-1)`.
    e_left: i32,
}

/// Sentinel for [`Carry::best_j`]: the row has not raised `best`.
const NO_COLUMN: usize = usize::MAX;

#[derive(Clone, Copy)]
struct Costs {
    open_ext: i32,
    ext: i32,
    x_drop: i32,
}

/// `if c { a } else { b }` the compiler may not turn into a branch. On
/// unrelated sequences every comparison in the cell is a coin flip, and a
/// conditional move costs a cycle where a mispredicted branch costs
/// fifteen; left to itself LLVM's x86 back end converts the selects of a
/// loop-carried chain like this one into branches.
#[inline(always)]
fn pick<T>(c: bool, a: T, b: T) -> T {
    std::hint::select_unpredictable(c, a, b)
}

#[inline(always)]
fn max(a: i32, b: i32) -> i32 {
    pick(a > b, a, b)
}

impl Carry {
    /// One DP cell at column `j`; `h`/`f` hold row `i-1` on entry and row
    /// `i` on return. `sub` is the substitution score of the pair.
    #[inline(always)]
    fn cell(&mut self, j: usize, sub: i32, h: &mut i32, f: &mut i32, c: Costs) {
        let up = *h;
        let fv = max(up - c.open_ext, *f - c.ext);
        let ev = max(self.h_left - c.open_ext, self.e_left - c.ext);
        let hv = max(max(self.diag + sub, ev), fv);
        let live = hv >= self.best - c.x_drop;
        let better = live & (hv > self.best);
        self.best = pick(better, hv, self.best);
        self.best_j = pick(better, j, self.best_j);
        self.diag = up;
        self.h_left = pick(live, hv, NEG);
        self.e_left = pick(live, ev, NEG);
        *h = self.h_left;
        *f = pick(live, fv, NEG);
    }
}

#[cfg(test)]
thread_local! {
    /// DP cells computed by this thread (row 0 included).
    static CELLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn xdrop_kernel<const REV: bool>(
    query: &[u8],
    subject: &[u8],
    score: impl Fn(u8, u8) -> i32,
    gaps: GapPenalties,
    x_drop: i32,
    ws: &mut GappedWorkspace,
) -> ExtensionResult {
    let (m, n) = (query.len(), subject.len());
    if m == 0 || n == 0 {
        return ExtensionResult {
            score: 0,
            q_ext: 0,
            s_ext: 0,
        };
    }
    let costs = Costs {
        open_ext: gaps.open + gaps.extend,
        ext: gaps.extend,
        x_drop,
    };
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
    #[cfg(test)]
    CELLS.with(|c| c.set(c.get() + hi as u64 + 1));
    let mut best_cell = (0, 0);
    let mut carry = Carry {
        best: 0,
        best_j: NO_COLUMN,
        diag: NEG,
        h_left: NEG,
        e_left: NEG,
    };
    for i in 1..=m {
        let qc = if REV { query[m - i] } else { query[i - 1] };
        let (jlo, jhi) = (lo, (hi + 1).min(n));
        if jhi > hi {
            // The one column this row adds: dead above. `NEG + ext` makes
            // F come out at exactly NEG, as if nothing were there.
            ws.ensure(jhi);
            ws.h[jhi] = NEG;
            ws.f[jhi] = NEG + costs.ext;
        }
        #[cfg(test)]
        CELLS.with(|c| c.set(c.get() + (jhi - jlo) as u64 + 1));
        carry.best_j = NO_COLUMN;
        carry.diag = NEG;
        carry.h_left = NEG;
        carry.e_left = NEG + costs.ext; // E comes out at exactly NEG
        let (h0, h) = ws.h[jlo..=jhi].split_first_mut().expect("jlo <= jhi");
        let (f0, f) = ws.f[jlo..=jhi].split_first_mut().expect("jlo <= jhi");
        // Column `jlo` has nothing to its left or on its diagonal (column 0
        // pairs with no subject residue at all): only F can reach it.
        carry.cell(jlo, 0, h0, f0, costs);
        // The other columns pair with subject residues `jlo..jhi`, read
        // back to front under `REV`.
        let s = if REV {
            &subject[n - jhi..n - jlo]
        } else {
            &subject[jlo..jhi]
        };
        let w = h.len();
        assert!(s.len() == w && f.len() == w);
        for (k, (h, f)) in h.iter_mut().zip(f).enumerate() {
            let sc = if REV { s[w - 1 - k] } else { s[k] };
            carry.cell(jlo + 1 + k, score(qc, sc), h, f, costs);
        }
        if carry.best_j != NO_COLUMN {
            best_cell = (i, carry.best_j);
        }
        // The live span is what is left after trimming this row's dead
        // ends; cells die a few at a time, so both scans are short.
        let row = &ws.h[jlo..=jhi];
        let Some(first) = row.iter().position(|&h| h != NEG) else {
            break; // row died: extension complete
        };
        let last = row.iter().rposition(|&h| h != NEG).expect("a live cell");
        (lo, hi) = (jlo + first, jlo + last);
    }
    ExtensionResult {
        score: carry.best,
        q_ext: best_cell.0,
        s_ext: best_cell.1,
    }
}

/// Bidirectional gapped extension anchored at `(q0, s0)` (the anchor pair
/// itself is scored by the right extension). Returns `(score, q_range,
/// s_range)`. Allocating convenience wrapper over [`extend_gapped_with`].
pub fn extend_gapped(
    query: &[u8],
    subject: &[u8],
    q0: usize,
    s0: usize,
    scorer: &Scorer,
    gaps: GapPenalties,
    x_drop: i32,
) -> (i32, std::ops::Range<usize>, std::ops::Range<usize>) {
    extend_gapped_with(
        query,
        subject,
        q0,
        s0,
        scorer,
        gaps,
        x_drop,
        &mut GappedWorkspace::new(),
    )
}

/// [`extend_gapped`] with reusable DP rows. The left half reads the two
/// prefixes backwards in place, so an extension costs its band cells and
/// nothing that grows with `q0` or `s0`.
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
    let right = xdrop_directed::<false>(&query[q0..], &subject[s0..], scorer, gaps, x_drop, ws);
    let left = xdrop_directed::<true>(&query[..q0], &subject[..s0], scorer, gaps, x_drop, ws);
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
/// full traceback. `extra_band` widens the band beyond the length
/// difference. Returns `(score, ops)`. Allocates a fresh workspace; hot
/// paths should use [`banded_global_with`].
pub fn banded_global(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    extra_band: usize,
) -> (i32, Vec<AlignOp>) {
    let mut ws = GappedWorkspace::new();
    let score = banded_global_with(query, subject, scorer, gaps, extra_band, &mut ws).0;
    (score, ws.ops)
}

/// [`banded_global`] with caller-provided scratch; the ops borrow from it
/// and are overwritten by the next call.
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
/// `h`/`f` hold one row, indexed by subject column and updated in place as
/// in [`xdrop_extend_with`]: at column `j` they still hold row `i-1` until
/// overwritten, and `H(i-1,j-1)`, `H(i,j-1)`, `E(i,j-1)` ride in
/// registers. Each cell's three choices go into ONE traceback byte (bits
/// 0–1 the source of `H`: 0 diagonal, 1 `E`, 2 `F`; bit 2 set if `E`
/// extended; bit 3 set if `F` did) of a flat `(m+1) × width` buffer. The
/// row's windows of `h`, `f`, the traceback bytes and the subject are cut
/// *before* the cell loop, which then zips four equally long slices and
/// carries no bounds check, and every comparison is a select, the
/// nucleotide match test included — off the main diagonal each is a coin
/// flip.
///
/// No stale cell is read, although nothing is cleared between calls: row
/// `i` reads `h[j]`/`f[j]` for its own columns `max(i-band, 0) ..=
/// min(i+band, n)` and `h` of the column before them. All but the last
/// were written by row `i-1` (row 0 writes its whole span); the last, when
/// it is `i + band`, is new to the band and set to `NEG` before the row
/// starts. The walk back visits only cells whose value is finite, and
/// those were all written by this call.
pub fn banded_global_with<'w>(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    extra_band: usize,
    ws: &'w mut GappedWorkspace,
) -> (i32, &'w [AlignOp]) {
    let Scorer::Nucleotide { reward, penalty } = *scorer;
    banded_kernel(
        query,
        subject,
        |a, b| pick(a == b, reward, penalty),
        gaps,
        extra_band,
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

fn banded_kernel<'w>(
    query: &[u8],
    subject: &[u8],
    score: impl Fn(u8, u8) -> i32,
    gaps: GapPenalties,
    extra_band: usize,
    ws: &'w mut GappedWorkspace,
) -> (i32, &'w [AlignOp]) {
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
    let (open_ext, ext) = (gaps.open + gaps.extend, gaps.extend);
    ws.ensure(n);
    if ws.bt.len() < (m + 1) * width {
        ws.bt.resize((m + 1) * width, 0);
    }
    let GappedWorkspace { h, f, bt, ops } = ws;
    // Cell (i, j) has its byte at `i * width + j + band - i`.
    // Row 0: a leading gap in the query, as far as the band goes.
    h[0] = 0;
    f[0] = NEG;
    for j in 1..=band.min(n) {
        h[j] = -gaps.open - ext * j as i32;
        f[j] = NEG;
        bt[band + j] = SRC_E | ((j > 1) as u8) << TB_E_EXT;
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
    let score = h[n];
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
    (score, ops)
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

/// The five-row X-drop extension this module used before the in-place
/// kernel, kept verbatim as the oracle the new kernel is pinned against.
#[cfg(test)]
mod oracle {
    use super::{AlignOp, ExtensionResult, NEG};
    use crate::matrix::{GapPenalties, Scorer};

    #[allow(clippy::needless_range_loop)] // absolute-j indexing mirrors the DP recurrences
    pub fn xdrop_extend(
        query: &[u8],
        subject: &[u8],
        scorer: &Scorer,
        gaps: GapPenalties,
        x_drop: i32,
    ) -> ExtensionResult {
        let n = subject.len();
        if n == 0 || query.is_empty() {
            return ExtensionResult {
                score: 0,
                q_ext: 0,
                s_ext: 0,
            };
        }
        let open_ext = gaps.open + gaps.extend;
        let ext = gaps.extend;

        let mut best = 0;
        let mut best_cell = (0usize, 0usize);

        // Previous row (absolute j indexing over [lo_prev, hi_prev]).
        let mut lo_prev = 0usize;
        let mut hi_prev = 0usize;
        let mut h_prev = vec![0; n + 1];
        let mut f_prev = vec![NEG; n + 1];
        // Row 0: leading gap in the query.
        for j in 1..=n {
            let v = -gaps.open - ext * j as i32;
            if v <= -x_drop {
                break;
            }
            h_prev[j] = v;
            hi_prev = j;
        }

        let mut h_row = vec![NEG; n + 1];
        let mut e_row = vec![NEG; n + 1];
        let mut f_row = vec![NEG; n + 1];

        for i in 1..=query.len() {
            let qc = query[i - 1];
            let jlo = lo_prev;
            let jhi = (hi_prev + 1).min(n);
            let mut row_lo = usize::MAX;
            let mut row_hi = 0usize;
            for j in jlo..=jhi {
                // F: gap in subject (vertical), from previous row same j.
                let f = if j >= lo_prev && j <= hi_prev {
                    (h_prev[j] - open_ext).max(f_prev[j] - ext)
                } else {
                    NEG
                };
                // E: gap in query (horizontal), from current row j-1.
                let e = if j > jlo {
                    (h_row[j - 1] - open_ext).max(e_row[j - 1] - ext)
                } else {
                    NEG
                };
                // M: diagonal from previous row j-1.
                let m = if j >= 1 && j > lo_prev && j - 1 <= hi_prev && h_prev[j - 1] > NEG / 2 {
                    h_prev[j - 1] + scorer.score(qc, subject[j - 1])
                } else {
                    NEG
                };
                let mut h = m.max(e).max(f);
                if h < best - x_drop {
                    h = NEG;
                }
                h_row[j] = h;
                e_row[j] = if h > NEG / 2 { e } else { NEG };
                f_row[j] = if h > NEG / 2 { f } else { NEG };
                if h > NEG / 2 {
                    if h > best {
                        best = h;
                        best_cell = (i, j);
                    }
                    if row_lo == usize::MAX {
                        row_lo = j;
                    }
                    row_hi = j;
                }
            }
            if row_lo == usize::MAX {
                break; // row died: extension complete
            }
            // Current row becomes the previous row; clear only the touched span.
            for j in jlo..=jhi {
                h_prev[j] = h_row[j];
                f_prev[j] = f_row[j];
                h_row[j] = NEG;
                e_row[j] = NEG;
                f_row[j] = NEG;
            }
            lo_prev = row_lo;
            hi_prev = row_hi;
        }

        ExtensionResult {
            score: best,
            q_ext: best_cell.0,
            s_ext: best_cell.1,
        }
    }

    /// Bidirectional extension the old way: reverse-copy both prefixes.
    pub fn extend_gapped(
        query: &[u8],
        subject: &[u8],
        q0: usize,
        s0: usize,
        scorer: &Scorer,
        gaps: GapPenalties,
        x_drop: i32,
    ) -> (i32, std::ops::Range<usize>, std::ops::Range<usize>) {
        let right = xdrop_extend(&query[q0..], &subject[s0..], scorer, gaps, x_drop);
        let left_q: Vec<u8> = query[..q0].iter().rev().copied().collect();
        let left_s: Vec<u8> = subject[..s0].iter().rev().copied().collect();
        let left = xdrop_extend(&left_q, &left_s, scorer, gaps, x_drop);
        (
            left.score + right.score,
            (q0 - left.q_ext)..(q0 + right.q_ext),
            (s0 - left.s_ext)..(s0 + right.s_ext),
        )
    }

    /// The six-matrix banded global alignment this module used before the
    /// flat traceback kernel, kept verbatim as its oracle.
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
        let r = xdrop_extend(&q, &s, &nt(), g(), 20);
        assert_eq!(r.score, 12);
        assert_eq!((r.q_ext, r.s_ext), (12, 12));
    }

    #[test]
    fn xdrop_stops_at_junk() {
        let q = encode_nt_seq(b"ACGTACGTCCCCCCCC");
        let s = encode_nt_seq(b"ACGTACGTGGGGGGGG");
        let r = xdrop_extend(&q, &s, &nt(), g(), 6);
        assert_eq!(r.score, 8);
        assert_eq!((r.q_ext, r.s_ext), (8, 8));
    }

    #[test]
    fn xdrop_crosses_insertion() {
        // Subject has a 2-base insertion; with gaps the extension should
        // bridge it: 8 matches, gap(2) = −9, then 12 more matches.
        let q = encode_nt_seq(b"ACGTACGTTTGCATGCATGC");
        let s = encode_nt_seq(b"ACGTACGTGGTTGCATGCATGC");
        let r = xdrop_extend(&q, &s, &nt(), g(), 25);
        // Best: 20 matches − gap cost 9 = 11.
        assert_eq!(r.score, 20 - 9);
        assert_eq!(r.q_ext, 20);
        assert_eq!(r.s_ext, 22);
    }

    #[test]
    fn bidirectional_extension_covers_hsp() {
        let q = encode_nt_seq(b"TTTTACGTACGTACGTTTTT");
        let s = encode_nt_seq(b"GGGGACGTACGTACGTGGGG");
        // Anchor inside the common core.
        let (score, qr, sr) = extend_gapped(&q, &s, 8, 8, &nt(), g(), 8);
        assert_eq!(score, 12);
        assert_eq!(qr, 4..16);
        assert_eq!(sr, 4..16);
    }

    #[test]
    fn banded_global_identity() {
        let q = encode_nt_seq(b"ACGTACGT");
        let (score, ops) = banded_global(&q, &q, &nt(), g(), 4);
        assert_eq!(score, 8);
        assert!(ops.iter().all(|&o| o == AlignOp::Sub));
        let st = align_stats(&q, &q, &ops);
        assert_eq!(st.identities, 8);
        assert_eq!(st.mismatches, 0);
        assert_eq!(st.gap_opens, 0);
    }

    #[test]
    fn banded_global_with_gap() {
        let q = encode_nt_seq(b"ACGTACGT");
        let s = encode_nt_seq(b"ACGTTACGT"); // one inserted T in subject
        let (score, ops) = banded_global(&q, &s, &nt(), g(), 4);
        assert_eq!(score, 8 - 7); // 8 matches − gap(1)
        let st = align_stats(&q, &s, &ops);
        assert_eq!(st.identities, 8);
        assert_eq!(st.gap_opens, 1);
        assert_eq!(st.gap_letters, 1);
        assert_eq!(st.length, 9);
    }

    #[test]
    fn banded_global_mismatch_vs_gap_choice() {
        let q = encode_nt_seq(b"AAAATTTT");
        let s = encode_nt_seq(b"AAAACTTT");
        let (score, ops) = banded_global(&q, &s, &nt(), g(), 4);
        // One mismatch (−3) beats two gaps (−14): 7 − 3 = 4.
        assert_eq!(score, 4);
        let st = align_stats(&q, &s, &ops);
        assert_eq!(st.mismatches, 1);
        assert_eq!(st.identities, 7);
    }

    #[test]
    fn empty_inputs() {
        let q = encode_nt_seq(b"ACG");
        let (score, ops) = banded_global(&q, &[], &nt(), g(), 2);
        assert_eq!(ops.len(), 3);
        assert_eq!(score, -(5 + 2 * 3));
        let r = xdrop_extend(&[], &q, &nt(), g(), 10);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The in-place kernel returns what the five-row oracle returns:
        /// one-directional and bidirectional, both scorers, unrelated and
        /// related pairs, empty inputs included, with one workspace reused
        /// (and so left dirty) across every case.
        #[test]
        fn in_place_kernel_matches_five_row_oracle(
            seed in any::<u64>(),
            qlen in 0usize..160,
            slen in 0usize..220,
            x_drop in 5i32..45,
            minus_two in any::<bool>(),
            related in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (scorer, gaps) = (if minus_two { nt_1_2() } else { nt() }, g());
            let q = residues(&mut rng, qlen, None);
            let s = if related {
                residues(&mut rng, 0, Some(&q))
            } else {
                residues(&mut rng, slen, None)
            };
            // One workspace per test thread, never cleared.
            thread_local! {
                static WS: std::cell::RefCell<GappedWorkspace> =
                    std::cell::RefCell::new(GappedWorkspace::new());
            }
            WS.with(|ws| {
                let ws = &mut *ws.borrow_mut();
                let want = oracle::xdrop_extend(&q, &s, &scorer, gaps, x_drop);
                let got = xdrop_extend_with(&q, &s, &scorer, gaps, x_drop, ws);
                prop_assert_eq!(got, want, "forward q={:?} s={:?}", &q, &s);
                let q0 = rng.random_range(0..q.len() + 1);
                let s0 = rng.random_range(0..s.len() + 1);
                let want = oracle::extend_gapped(&q, &s, q0, s0, &scorer, gaps, x_drop);
                let got = extend_gapped_with(&q, &s, q0, s0, &scorer, gaps, x_drop, ws);
                prop_assert_eq!(got, want, "anchored at ({}, {}) q={:?} s={:?}", q0, s0, &q, &s);
                Ok(())
            })?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The flat kernel returns the score and the very ops the
        /// six-matrix oracle returns: both scorers, unrelated pairs and
        /// pairs related through substitutions and indels, either side
        /// empty, every band width the callers and tests use, with one
        /// workspace reused (and so left dirty, by X-drop extensions too)
        /// across every case.
        #[test]
        fn flat_traceback_matches_six_matrix_oracle(
            seed in any::<u64>(),
            m in 0usize..=600,
            skew in -40isize..=40,
            empty in 0u32..10,
            band_ix in 0usize..5,
            minus_two in any::<bool>(),
            related in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let extra_band = [0, 1, 3, 8, 16][band_ix];
            let (scorer, gaps) = (if minus_two { nt_1_2() } else { nt() }, g());
            let mut q = residues(&mut rng, m, None);
            let mut s = if related {
                residues(&mut rng, 0, Some(&q))
            } else {
                residues(&mut rng, m.saturating_add_signed(skew), None)
            };
            // |m − n| <= 40 either way, so the oracle's matrices stay small.
            s.truncate(m + 40);
            match empty {
                0 => q.clear(),
                1 => s.clear(),
                _ => {}
            }
            thread_local! {
                static WS: std::cell::RefCell<GappedWorkspace> =
                    std::cell::RefCell::new(GappedWorkspace::new());
            }
            WS.with(|ws| {
                let ws = &mut *ws.borrow_mut();
                let want = oracle::banded_global(&q, &s, &scorer, gaps, extra_band);
                let got = banded_global_with(&q, &s, &scorer, gaps, extra_band, ws);
                prop_assert_eq!(
                    (got.0, got.1), (want.0, want.1.as_slice()),
                    "band +{} q={:?} s={:?}", extra_band, &q, &s
                );
                // Leave X-drop's leftovers in the rows for the next case.
                xdrop_extend_with(&q, &s, &scorer, gaps, 30, ws);
                Ok(())
            })?;
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
        // of it. The DP must touch that neighbourhood only.
        let mut rng = StdRng::seed_from_u64(14);
        let mut subject = residues(&mut rng, 100_000, None);
        let mut query = residues(&mut rng, 400, None);
        let core = residues(&mut rng, 40, None);
        subject.splice(50_000..50_040, core.iter().copied());
        query.splice(180..220, core.iter().copied());
        let mut ws = GappedWorkspace::new();
        let before = CELLS.with(|c| c.get());
        let got = extend_gapped_with(&query, &subject, 200, 50_020, &nt(), g(), 30, &mut ws);
        let cells = CELLS.with(|c| c.get()) - before;
        assert_eq!(
            got,
            oracle::extend_gapped(&query, &subject, 200, 50_020, &nt(), g(), 30)
        );
        assert!(got.0 >= 40, "the planted core aligns: {got:?}");
        assert!(cells < 10_000, "{cells} cells for a 40-nt core");
        assert!(
            ws.h.len() < 1024 && ws.f.len() == ws.h.len(),
            "rows grew to {} columns",
            ws.h.len()
        );
    }
}
