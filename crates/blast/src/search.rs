//! The BLAST search pipeline: word hits → ungapped X-drop extension →
//! (optionally) gapped X-drop extension → E-value filtering → reporting.
//!
//! Nucleotide searches (blastn) scan both query strands with exact-word
//! seeds and one-hit triggering; protein searches (blastp and the
//! translated programs) use the 3-mer neighborhood lookup with two-hit
//! triggering on a diagonal, like NCBI BLAST 2.x.

use parblast_seqdb::{reverse_complement, unpack_2bit_into, PackedVolume, SeqType, Volume};

use crate::dust::{dust_mask, DustParams};
use crate::extend::extend_ungapped;
use crate::gapped::{align_stats, banded_global, extend_gapped_with, GappedWorkspace};
use crate::karlin::{gapped_params, scorer_params, KarlinParams};
use crate::lookup::{AaLookup, BatchedNtLookup, MaskedContext, NtLookup, MAX_BATCH_CONTEXTS};
use crate::matrix::{GapPenalties, Scorer};
use crate::report::{Hit, Hsp};
use crate::translate::six_frames;
use crate::workspace::DiagTracker;

/// Which BLAST program to run (§2.1 of the paper lists all five).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Nucleotide query vs nucleotide database.
    Blastn,
    /// Protein query vs protein database.
    Blastp,
    /// Translated nucleotide query vs protein database.
    Blastx,
    /// Protein query vs translated nucleotide database.
    Tblastn,
    /// Translated query vs translated database (ungapped, like NCBI).
    Tblastx,
}

/// Whole-database statistics used for E-values. mpiBLAST passes the *full*
/// database figures even when a worker searches a single fragment, so that
/// E-values are identical to an unsegmented search — we do the same.
#[derive(Debug, Clone, Copy)]
pub struct DbStats {
    /// Total residues in the database.
    pub residues: u64,
    /// Number of sequences.
    pub nseq: u64,
}

/// Search parameters.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Scoring system.
    pub scorer: Scorer,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
    /// Word size (blastn 11, protein 3).
    pub word_size: usize,
    /// Protein neighborhood threshold T.
    pub neighbor_threshold: i32,
    /// Two-hit window A (0 = one-hit triggering).
    pub two_hit_window: usize,
    /// Ungapped X-drop, raw score units.
    pub x_drop_ungapped: i32,
    /// Gapped X-drop, raw score units.
    pub x_drop_gapped: i32,
    /// Bit-score threshold that triggers a gapped extension.
    pub gap_trigger_bits: f64,
    /// E-value report cutoff.
    pub evalue: f64,
    /// Perform gapped extensions.
    pub gapped: bool,
    /// DUST low-complexity query masking (blastn only; `None` disables).
    /// Soft masking: masked regions seed nothing but extensions may cross
    /// them — NCBI blastn's 2003 default behaviour.
    pub dust: Option<DustParams>,
    /// Keep at most this many hits (by best E-value).
    pub max_hits: usize,
}

impl SearchParams {
    /// blastn defaults as used in the paper's era (W=11, +1/−3, gap 5/2).
    pub fn blastn() -> Self {
        SearchParams {
            scorer: Scorer::Nucleotide {
                reward: 1,
                penalty: -3,
            },
            gaps: GapPenalties::blastn(),
            word_size: 11,
            neighbor_threshold: 0,
            two_hit_window: 0,
            x_drop_ungapped: 16,
            x_drop_gapped: 30,
            gap_trigger_bits: 25.0,
            evalue: 10.0,
            gapped: true,
            dust: Some(DustParams::default()),
            max_hits: 500,
        }
    }

    /// blastp defaults (W=3, T=11, BLOSUM62, gap 11/1, two-hit A=40).
    pub fn blastp() -> Self {
        SearchParams {
            scorer: Scorer::Blosum62,
            gaps: GapPenalties::blastp(),
            word_size: 3,
            neighbor_threshold: 11,
            two_hit_window: 40,
            x_drop_ungapped: 7,
            x_drop_gapped: 15,
            gap_trigger_bits: 22.0,
            evalue: 10.0,
            gapped: true,
            dust: None,
            max_hits: 500,
        }
    }
}

pub(crate) struct StatsCtx {
    pub(crate) ungapped: KarlinParams,
    pub(crate) gapped: KarlinParams,
    pub(crate) space: f64,
    pub(crate) gap_trigger_raw: i32,
    pub(crate) cutoff_raw: i32,
}

pub(crate) fn stats_ctx(params: &SearchParams, query_len: usize, db: DbStats) -> StatsCtx {
    let ungapped = scorer_params(&params.scorer).expect("scoring system has valid statistics");
    let gapped = gapped_params(&params.scorer, params.gaps).unwrap_or(ungapped);
    let reporting = if params.gapped { gapped } else { ungapped };
    let space = reporting.search_space(query_len as u64, db.residues, db.nseq);
    // Raw score that reaches gap_trigger bits under ungapped stats.
    let gap_trigger_raw = ((params.gap_trigger_bits * std::f64::consts::LN_2 + ungapped.k.ln())
        / ungapped.lambda)
        .ceil() as i32;
    // Raw score whose E-value equals the cutoff (quick pre-filter).
    let cutoff_raw = ((params.evalue / (reporting.k * space)).ln() / -reporting.lambda)
        .ceil()
        .max(1.0) as i32;
    StatsCtx {
        ungapped,
        gapped,
        space,
        gap_trigger_raw,
        cutoff_raw,
    }
}

/// One query context: a residue string plus its frame annotation.
pub(crate) struct QueryCtx {
    pub(crate) codes: Vec<u8>,
    pub(crate) frame: i8,
}

/// Candidate HSP in context coordinates.
#[derive(Clone)]
pub(crate) struct Candidate {
    pub(crate) score: i32,
    pub(crate) q_range: std::ops::Range<usize>,
    pub(crate) s_range: std::ops::Range<usize>,
    pub(crate) q_frame: i8,
    pub(crate) s_frame: i8,
    pub(crate) gapped: bool,
}

/// Reusable per-thread scratch for [`search_volume_with`] /
/// [`search_packed_with`]: flat diagonal trackers, the lazy subject-unpack
/// buffer, candidate lists, and the gapped-DP rows. One workspace serves
/// any number of searches — subjects, fragments, and batched queries all
/// recycle the same memory, so the per-subject scan path performs no heap
/// allocation at all.
#[derive(Default)]
pub struct ScanWorkspace {
    diag_end: DiagTracker,
    last_hit: DiagTracker,
    subject: Vec<u8>,
    subject_valid: bool,
    unpacks: u64,
    cands: Vec<Candidate>,
    kept: Vec<Candidate>,
    gapped: GappedWorkspace,
}

impl ScanWorkspace {
    /// Empty workspace; buffers grow to the largest subject seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many subject unpacks this workspace has performed (lifetime
    /// count). In the sequential per-query path every query that seeds a
    /// given subject re-unpacks it; the batched path shares one unpack —
    /// the engine bench asserts the drop.
    pub fn unpacks(&self) -> u64 {
        self.unpacks
    }
}

/// Most queries one fused kernel pass can serve: each blastn query brings
/// two strand contexts and the batched lookup holds
/// [`MAX_BATCH_CONTEXTS`] contexts. Larger batches are chunked
/// transparently by [`PreparedBatch`].
pub const MAX_FUSED_BATCH: usize = MAX_BATCH_CONTEXTS / 2;

/// Per-context scratch for the fused batched scan: its own diagonal
/// tracker (diagonal redundancy is a per-context notion) and its own
/// candidate list (so the interleaved fused scan can be demuxed back into
/// exactly the sequential per-context candidate order).
#[derive(Default)]
struct CtxScratch {
    diag_end: DiagTracker,
    cands: Vec<Candidate>,
}

/// Reusable scratch for [`search_packed_batch_with`]: per-context diagonal
/// trackers and candidate lists, ONE shared subject-unpack buffer for the
/// whole batch, and shared gapped-DP rows. Like [`ScanWorkspace`], one
/// workspace serves any number of batches and grows to the largest
/// subject/batch seen.
#[derive(Default)]
pub struct BatchScanWorkspace {
    ctx: Vec<CtxScratch>,
    subject: Vec<u8>,
    unpacks: u64,
    merged: Vec<Candidate>,
    kept: Vec<Candidate>,
    gapped: GappedWorkspace,
    /// Fallback scratch for programs without a fused kernel (everything
    /// but blastn), which run the sequential per-query path.
    solo: ScanWorkspace,
}

impl BatchScanWorkspace {
    /// Empty workspace; buffers grow to the largest batch seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many subject unpacks this workspace has performed (lifetime
    /// count, including any sequential-fallback searches).
    pub fn unpacks(&self) -> u64 {
        self.unpacks + self.solo.unpacks
    }
}

/// A nucleotide subject in either representation the scanner accepts.
#[derive(Clone, Copy)]
enum SubjectRef<'a> {
    /// Decoded codes, one residue per byte.
    Codes(&'a [u8]),
    /// 2-bit packed bytes plus residue count.
    Packed { bytes: &'a [u8], len: usize },
}

impl SubjectRef<'_> {
    fn len(&self) -> usize {
        match self {
            SubjectRef::Codes(c) => c.len(),
            SubjectRef::Packed { len, .. } => *len,
        }
    }
}

/// Search one subject (one frame) with one nucleotide query context. For
/// packed subjects the codes are unpacked lazily into `ws.subject` on the
/// first seed hit — subjects that never seed are scanned entirely in
/// packed form.
fn scan_nt_context(
    lookup: &NtLookup,
    qctx: &QueryCtx,
    subject: SubjectRef<'_>,
    s_frame: i8,
    params: &SearchParams,
    st: &StatsCtx,
    ws: &mut ScanWorkspace,
) {
    let query = &qctx.codes;
    let qlen = query.len();
    ws.diag_end.begin(qlen + subject.len() + 1);
    match subject {
        SubjectRef::Codes(codes) => {
            lookup.scan(codes, |qp, sp| {
                nt_hit(
                    query,
                    codes,
                    qp as usize,
                    sp as usize,
                    lookup.word,
                    qctx.frame,
                    s_frame,
                    params,
                    st,
                    &mut ws.diag_end,
                    &mut ws.gapped,
                    &mut ws.cands,
                );
            });
        }
        SubjectRef::Packed { bytes, len } => {
            lookup.scan_packed(bytes, len, |qp, sp| {
                if !ws.subject_valid {
                    unpack_2bit_into(bytes, len, &mut ws.subject);
                    ws.subject_valid = true;
                    ws.unpacks += 1;
                }
                nt_hit(
                    query,
                    &ws.subject,
                    qp as usize,
                    sp as usize,
                    lookup.word,
                    qctx.frame,
                    s_frame,
                    params,
                    st,
                    &mut ws.diag_end,
                    &mut ws.gapped,
                    &mut ws.cands,
                );
            });
        }
    }
}

/// One nucleotide seed hit: diagonal-redundancy check, ungapped extension,
/// candidate emission. Mirrors the pre-workspace kernel exactly, with the
/// diagonal `HashMap` replaced by the flat tracker (`diag = s − q + qlen`).
#[allow(clippy::too_many_arguments)]
#[inline]
fn nt_hit(
    query: &[u8],
    subject: &[u8],
    qp: usize,
    sp: usize,
    word: usize,
    q_frame: i8,
    s_frame: i8,
    params: &SearchParams,
    st: &StatsCtx,
    diag_end: &mut DiagTracker,
    gws: &mut GappedWorkspace,
    out: &mut Vec<Candidate>,
) {
    let diag = sp + query.len() - qp;
    if let Some(end) = diag_end.get(diag) {
        if sp < end as usize {
            return;
        }
    }
    let hsp = extend_ungapped(
        query,
        subject,
        qp,
        sp,
        word,
        &params.scorer,
        params.x_drop_ungapped,
    );
    diag_end.set(diag, hsp.s_end as u32);
    push_candidate(
        hsp,
        query,
        subject,
        q_frame,
        s_frame,
        params.gapped,
        params,
        st,
        gws,
        out,
    );
}

#[allow(clippy::too_many_arguments)]
fn push_candidate(
    hsp: crate::extend::UngappedHsp,
    query: &[u8],
    subject: &[u8],
    q_frame: i8,
    s_frame: i8,
    do_gapped: bool,
    params: &SearchParams,
    st: &StatsCtx,
    gws: &mut GappedWorkspace,
    out: &mut Vec<Candidate>,
) {
    if do_gapped && hsp.score >= st.gap_trigger_raw {
        // Anchor the gapped extension at the midpoint of the ungapped HSP.
        let mid = hsp.len() / 2;
        let (score, qr, sr) = extend_gapped_with(
            query,
            subject,
            hsp.q_start + mid,
            hsp.s_start + mid,
            &params.scorer,
            params.gaps,
            params.x_drop_gapped,
            gws,
        );
        if score >= st.cutoff_raw {
            out.push(Candidate {
                score,
                q_range: qr,
                s_range: sr,
                q_frame,
                s_frame,
                gapped: true,
            });
        }
    } else if hsp.score >= st.cutoff_raw {
        out.push(Candidate {
            score: hsp.score,
            q_range: hsp.q_start..hsp.q_end,
            s_range: hsp.s_start..hsp.s_end,
            q_frame,
            s_frame,
            gapped: false,
        });
    }
}

/// Search one subject (one frame) with one protein query context.
#[allow(clippy::too_many_arguments)]
fn scan_aa_context(
    lookup: &AaLookup,
    qctx: &QueryCtx,
    subject: &[u8],
    s_frame: i8,
    params: &SearchParams,
    st: &StatsCtx,
    do_gapped: bool,
    ws: &mut ScanWorkspace,
) {
    let query = &qctx.codes;
    let qlen = query.len();
    let ndiags = qlen + subject.len() + 1;
    ws.diag_end.begin(ndiags);
    ws.last_hit.begin(ndiags);
    let two_hit = params.two_hit_window;
    lookup.scan(subject, |qp, sp| {
        let (qp, sp) = (qp as usize, sp as usize);
        let diag = sp + qlen - qp;
        if let Some(end) = ws.diag_end.get(diag) {
            if sp < end as usize {
                return;
            }
        }
        if two_hit > 0 {
            let prev = ws.last_hit.replace(diag, sp as u32);
            let trigger = match prev {
                Some(p) => sp > p as usize && sp - p as usize <= two_hit,
                None => false,
            };
            if !trigger {
                return;
            }
        }
        let hsp = extend_ungapped(
            query,
            subject,
            qp,
            sp,
            lookup.word,
            &params.scorer,
            params.x_drop_ungapped,
        );
        ws.diag_end.set(diag, hsp.s_end as u32);
        push_candidate(
            hsp,
            query,
            subject,
            qctx.frame,
            s_frame,
            do_gapped,
            params,
            st,
            &mut ws.gapped,
            &mut ws.cands,
        );
    });
}

/// Annotate candidates into final HSPs: cull contained duplicates, compute
/// alignment statistics and E-values. `cands` and `kept` are workspace
/// buffers (consumed and reused); `subject_ctxs` maps each subject frame
/// to its decoded codes by linear search (at most six frames).
fn finalize(
    cands: &mut [Candidate],
    kept: &mut Vec<Candidate>,
    query_ctxs: &[QueryCtx],
    subject_ctxs: &[(i8, &[u8])],
    params: &SearchParams,
    st: &StatsCtx,
) -> Vec<Hsp> {
    cands.sort_by_key(|c| std::cmp::Reverse(c.score));
    kept.clear();
    'outer: for c in cands.iter() {
        for k in kept.iter() {
            if k.q_frame == c.q_frame
                && k.s_frame == c.s_frame
                && c.q_range.start >= k.q_range.start
                && c.q_range.end <= k.q_range.end
                && c.s_range.start >= k.s_range.start
                && c.s_range.end <= k.s_range.end
            {
                continue 'outer; // contained in a better HSP
            }
        }
        kept.push(c.clone());
    }
    let mut out = Vec::with_capacity(kept.len());
    for c in kept.iter() {
        let kp = if c.gapped { st.gapped } else { st.ungapped };
        let evalue = kp.evalue(c.score, st.space);
        if evalue > params.evalue {
            continue;
        }
        let qctx = query_ctxs
            .iter()
            .find(|q| q.frame == c.q_frame)
            .expect("query context");
        let subject = subject_ctxs
            .iter()
            .find(|(f, _)| *f == c.s_frame)
            .expect("subject context")
            .1;
        let qslice = &qctx.codes[c.q_range.clone()];
        let sslice = &subject[c.s_range.clone()];
        let (_, ops) = banded_global(qslice, sslice, &params.scorer, params.gaps, 16);
        let stats = align_stats(qslice, sslice, &ops);
        // Map minus-strand nucleotide query coordinates back to the
        // forward query (see module docs).
        let (q_start, q_end) = if c.q_frame == -1 && params.word_size > 3 {
            let m = qctx.codes.len();
            (m - c.q_range.end, m - c.q_range.start)
        } else {
            (c.q_range.start, c.q_range.end)
        };
        out.push(Hsp {
            score: c.score,
            bit_score: kp.bit_score(c.score),
            evalue,
            q_start,
            q_end,
            s_start: c.s_range.start,
            s_end: c.s_range.end,
            q_frame: c.q_frame,
            s_frame: c.s_frame,
            align_len: stats.length,
            identities: stats.identities,
            mismatches: stats.mismatches,
            gap_opens: stats.gap_opens,
        });
    }
    out.sort_by_key(|h| std::cmp::Reverse(h.score));
    out
}

/// Run `program` for one query over one database volume. Convenience
/// wrapper over [`search_volume_with`] with a throwaway workspace.
pub fn search_volume(
    program: Program,
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
) -> Vec<Hit> {
    search_volume_with(
        program,
        query,
        volume,
        params,
        db,
        &mut ScanWorkspace::new(),
    )
}

/// [`search_volume`] with a caller-provided [`ScanWorkspace`], so repeated
/// searches (across fragments, worker-thread jobs, or batched queries)
/// reuse scan and DP buffers instead of reallocating them.
pub fn search_volume_with(
    program: Program,
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    match program {
        Program::Blastn => {
            assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
            search_blastn(query, NtSubjects::Decoded(volume), params, db, ws)
        }
        Program::Blastp => {
            assert_eq!(volume.seq_type, SeqType::Protein, "blastp needs an aa db");
            let ctxs = vec![QueryCtx {
                codes: query.to_vec(),
                frame: 1,
            }];
            search_protein(&ctxs, query.len(), volume, false, params, db, true, ws)
        }
        Program::Blastx => {
            assert_eq!(volume.seq_type, SeqType::Protein, "blastx needs an aa db");
            let ctxs: Vec<QueryCtx> = six_frames(query)
                .into_iter()
                .map(|f| QueryCtx {
                    codes: f.codes,
                    frame: f.frame,
                })
                .collect();
            let eff_len = query.len() / 3;
            search_protein(&ctxs, eff_len, volume, false, params, db, true, ws)
        }
        Program::Tblastn => {
            assert_eq!(
                volume.seq_type,
                SeqType::Nucleotide,
                "tblastn needs a nt db"
            );
            let ctxs = vec![QueryCtx {
                codes: query.to_vec(),
                frame: 1,
            }];
            search_protein(&ctxs, query.len(), volume, true, params, db, true, ws)
        }
        Program::Tblastx => {
            assert_eq!(
                volume.seq_type,
                SeqType::Nucleotide,
                "tblastx needs a nt db"
            );
            let ctxs: Vec<QueryCtx> = six_frames(query)
                .into_iter()
                .map(|f| QueryCtx {
                    codes: f.codes,
                    frame: f.frame,
                })
                .collect();
            let eff_len = query.len() / 3;
            // NCBI tblastx is ungapped-only.
            search_protein(&ctxs, eff_len, volume, true, params, db, false, ws)
        }
    }
}

/// Run `program` for one query over a packed volume. For blastn this is
/// the zero-decode hot path: the scanner reads 2-bit packed subject bytes
/// directly and only seed-hit subjects are unpacked. Other programs decode
/// the volume first (exactly what [`Volume::read_from`] used to do).
pub fn search_packed(
    program: Program,
    query: &[u8],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
) -> Vec<Hit> {
    search_packed_with(
        program,
        query,
        volume,
        params,
        db,
        &mut ScanWorkspace::new(),
    )
}

/// [`search_packed`] with a caller-provided reusable [`ScanWorkspace`].
pub fn search_packed_with(
    program: Program,
    query: &[u8],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    match program {
        Program::Blastn => {
            assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
            search_blastn(query, NtSubjects::Packed(volume), params, db, ws)
        }
        _ => {
            let decoded = volume.to_volume();
            search_volume_with(program, query, &decoded, params, db, ws)
        }
    }
}

/// Run `program` for a whole batch of queries over one packed volume with
/// the fused multi-query kernel. Convenience wrapper over
/// [`search_packed_batch_with`] with a throwaway workspace.
pub fn search_packed_batch(
    program: Program,
    queries: &[&[u8]],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
) -> Vec<Vec<Hit>> {
    search_packed_batch_with(
        program,
        queries,
        volume,
        params,
        db,
        &mut BatchScanWorkspace::new(),
    )
}

/// [`search_packed_batch`] with a caller-provided reusable
/// [`BatchScanWorkspace`]: [`PreparedBatch::new`] then
/// [`PreparedBatch::search`]. Callers that search more than one volume
/// with the same batch should keep the [`PreparedBatch`] instead.
pub fn search_packed_batch_with(
    program: Program,
    queries: &[&[u8]],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut BatchScanWorkspace,
) -> Vec<Vec<Hit>> {
    PreparedBatch::new(program, queries, params, db).search(volume, ws)
}

/// One fused chunk (≤ [`MAX_FUSED_BATCH`] queries) of a prepared blastn
/// batch. Context index `2q` is query q's plus strand, `2q + 1` its minus
/// strand — the order the sequential path scans them.
struct PreparedChunk {
    ctxs: Vec<[QueryCtx; 2]>,
    stats: Vec<StatsCtx>,
    lookup: BatchedNtLookup,
}

enum Prepared<'a> {
    /// blastn: the fused kernel, one chunk per pass over a volume.
    Fused(Vec<PreparedChunk>),
    /// Programs without a fused kernel run the sequential per-query path.
    PerQuery {
        program: Program,
        db: DbStats,
        queries: Vec<&'a [u8]>,
    },
}

/// Everything a batch search needs that depends on the queries and not on
/// the volume: for blastn both strands of every query, their DUST masks
/// folded into one merged [`BatchedNtLookup`] per chunk of at most
/// [`MAX_FUSED_BATCH`] queries, and the per-query statistics. It is
/// immutable after [`PreparedBatch::new`], so one instance serves every
/// fragment of a job and every worker thread at once (each with its own
/// [`BatchScanWorkspace`]); a batch of one query is the degenerate case
/// and still scans both strands in a single pass.
pub struct PreparedBatch<'a> {
    params: &'a SearchParams,
    prepared: Prepared<'a>,
}

impl<'a> PreparedBatch<'a> {
    /// Prepare `queries` for `program`.
    pub fn new(
        program: Program,
        queries: &[&'a [u8]],
        params: &'a SearchParams,
        db: DbStats,
    ) -> Self {
        let prepared = match program {
            Program::Blastn => Prepared::Fused(
                queries
                    .chunks(MAX_FUSED_BATCH)
                    .map(|chunk| PreparedChunk::new(chunk, params, db))
                    .collect(),
            ),
            _ => Prepared::PerQuery {
                program,
                db,
                queries: queries.to_vec(),
            },
        };
        PreparedBatch { params, prepared }
    }

    /// Search one packed volume with the whole batch; one `Vec<Hit>` per
    /// query, in input order.
    ///
    /// For blastn this is the fused hot path: the seed word rolls across
    /// the packed volume bytes **once per chunk for the whole chunk**
    /// instead of once per query — scan cost is per-pass, extension cost
    /// stays per-query. Results are hit-for-hit identical to sequential
    /// [`search_packed_with`] calls: same candidates in the same insertion
    /// order, so every downstream tie-break (stable score sort,
    /// containment cull, E-value ranking) resolves identically.
    pub fn search(&self, volume: &PackedVolume, ws: &mut BatchScanWorkspace) -> Vec<Vec<Hit>> {
        match &self.prepared {
            Prepared::Fused(chunks) => {
                assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
                chunks
                    .iter()
                    .flat_map(|chunk| chunk.search(volume, self.params, ws))
                    .collect()
            }
            Prepared::PerQuery {
                program,
                db,
                queries,
            } => queries
                .iter()
                .map(|q| search_packed_with(*program, q, volume, self.params, *db, &mut ws.solo))
                .collect(),
        }
    }
}

impl PreparedChunk {
    fn new(queries: &[&[u8]], params: &SearchParams, db: DbStats) -> Self {
        let stats = queries
            .iter()
            .map(|q| stats_ctx(params, q.len(), db))
            .collect();
        let ctxs: Vec<[QueryCtx; 2]> = queries
            .iter()
            .map(|q| {
                [
                    QueryCtx {
                        codes: q.to_vec(),
                        frame: 1,
                    },
                    QueryCtx {
                        codes: reverse_complement(q),
                        frame: -1,
                    },
                ]
            })
            .collect();
        let masks: Vec<Vec<(usize, usize)>> = ctxs
            .iter()
            .flatten()
            .map(|c| {
                params
                    .dust
                    .map(|d| dust_mask(&c.codes, d))
                    .unwrap_or_default()
            })
            .collect();
        let merged_ctxs: Vec<MaskedContext> = ctxs
            .iter()
            .flatten()
            .zip(&masks)
            .map(|(c, m)| (c.codes.as_slice(), m.as_slice()))
            .collect();
        let lookup = BatchedNtLookup::build_masked(&merged_ctxs, params.word_size);
        PreparedChunk {
            ctxs,
            stats,
            lookup,
        }
    }

    /// One rolled pass per subject, per-context demux into the sequential
    /// candidate order.
    fn search(
        &self,
        volume: &PackedVolume,
        params: &SearchParams,
        ws: &mut BatchScanWorkspace,
    ) -> Vec<Vec<Hit>> {
        let PreparedChunk {
            ctxs,
            stats,
            lookup,
        } = self;
        let b = ctxs.len();
        if ws.ctx.len() < 2 * b {
            ws.ctx.resize_with(2 * b, CtxScratch::default);
        }
        // Split the workspace into disjoint field borrows once: the scan
        // closure needs the context scratch, the shared unpack buffer, and
        // the gapped rows simultaneously.
        let BatchScanWorkspace {
            ctx: ctx_ws,
            subject,
            unpacks,
            merged,
            kept,
            gapped,
            ..
        } = ws;

        let mut per_query: Vec<Vec<Hit>> = (0..b).map(|_| Vec::new()).collect();
        for si in 0..volume.nseq() {
            let bytes = volume.packed(si);
            let slen = volume.seq_len(si);
            let mut subject_valid = false;
            for (c, cs) in ctx_ws.iter_mut().enumerate().take(2 * b) {
                cs.cands.clear();
                cs.diag_end.begin(ctxs[c / 2][c % 2].codes.len() + slen + 1);
            }
            lookup.scan_packed_batched(bytes, slen, |ctx, qp, sp| {
                if !subject_valid {
                    unpack_2bit_into(bytes, slen, subject);
                    subject_valid = true;
                    *unpacks += 1;
                }
                let c = ctx as usize;
                let qctx = &ctxs[c / 2][c % 2];
                let cs = &mut ctx_ws[c];
                nt_hit(
                    &qctx.codes,
                    subject,
                    qp as usize,
                    sp as usize,
                    lookup.word,
                    qctx.frame,
                    qctx.frame, // s_frame mirrors the context, as sequentially
                    params,
                    &stats[c / 2],
                    &mut cs.diag_end,
                    gapped,
                    &mut cs.cands,
                );
            });
            for (qi, hits) in per_query.iter_mut().enumerate() {
                // Reassemble this query's sequential candidate order: the
                // whole plus-strand scan precedes the whole minus-strand
                // scan, exactly as `search_blastn_range` appends them.
                merged.clear();
                merged.append(&mut ctx_ws[2 * qi].cands);
                merged.append(&mut ctx_ws[2 * qi + 1].cands);
                if merged.is_empty() {
                    continue;
                }
                // Any candidate implies a seed hit, so the shared lazy
                // unpack has filled `subject` by now.
                let codes: &[u8] = subject;
                let subject_ctxs = [(1i8, codes), (-1i8, codes)];
                let hsps = finalize(merged, kept, &ctxs[qi], &subject_ctxs, params, &stats[qi]);
                if !hsps.is_empty() {
                    hits.push(Hit {
                        subject_id: volume.id(si),
                        subject_index: si,
                        hsps,
                    });
                }
            }
        }
        per_query
            .into_iter()
            .map(|hits| rank(hits, params.max_hits))
            .collect()
    }
}

/// The blastn subject source: a decoded volume or a packed one.
#[derive(Clone, Copy)]
enum NtSubjects<'a> {
    Decoded(&'a Volume),
    Packed(&'a PackedVolume),
}

impl NtSubjects<'_> {
    fn nseq(&self) -> usize {
        match self {
            NtSubjects::Decoded(v) => v.sequences.len(),
            NtSubjects::Packed(p) => p.nseq(),
        }
    }

    fn id(&self, i: usize) -> String {
        match self {
            NtSubjects::Decoded(v) => v.sequences[i].id().to_string(),
            NtSubjects::Packed(p) => p.id(i),
        }
    }
}

/// Search only subjects `[range.start, range.end)` of a packed nucleotide
/// volume, returning **unranked** hits (blastn only). Per-subject scanning
/// is independent and the final ranking is a single sort over all hits, so
/// concatenating range results in subject order and applying [`rank_hits`]
/// once reproduces [`search_packed_with`] hit for hit — the property the
/// streaming scan path relies on: search subjects as their bytes arrive
/// through a [`parblast_seqdb::PackedVolumeStream`], rank at the end.
pub fn search_packed_range_with(
    query: &[u8],
    volume: &PackedVolume,
    range: std::ops::Range<usize>,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
    search_blastn_range(query, NtSubjects::Packed(volume), range, params, db, ws)
}

/// The final ranking applied by every search entry point: sort by best
/// E-value (ties broken by score) and keep the top `max_hits`. Exposed so
/// range-searched hits can be merged and ranked exactly once.
pub fn rank_hits(hits: Vec<Hit>, max_hits: usize) -> Vec<Hit> {
    rank(hits, max_hits)
}

fn search_blastn(
    query: &[u8],
    subjects: NtSubjects<'_>,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let nseq = subjects.nseq();
    let hits = search_blastn_range(query, subjects, 0..nseq, params, db, ws);
    rank(hits, params.max_hits)
}

fn search_blastn_range(
    query: &[u8],
    subjects: NtSubjects<'_>,
    range: std::ops::Range<usize>,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let st = stats_ctx(params, query.len(), db);
    let ctxs = [
        QueryCtx {
            codes: query.to_vec(),
            frame: 1,
        },
        QueryCtx {
            codes: reverse_complement(query),
            frame: -1,
        },
    ];
    let lookups: Vec<NtLookup> = ctxs
        .iter()
        .map(|c| {
            let mask = params
                .dust
                .map(|d| dust_mask(&c.codes, d))
                .unwrap_or_default();
            NtLookup::build_masked(&c.codes, params.word_size, &mask)
        })
        .collect();
    let mut hits = Vec::new();
    for si in range {
        ws.cands.clear();
        ws.subject_valid = false;
        let sref = match subjects {
            NtSubjects::Decoded(v) => SubjectRef::Codes(&v.sequences[si].codes),
            NtSubjects::Packed(p) => SubjectRef::Packed {
                bytes: p.packed(si),
                len: p.seq_len(si),
            },
        };
        for (ctx, lk) in ctxs.iter().zip(&lookups) {
            // Minus-strand matches carry s_frame −1 (reported with
            // reversed subject coordinates, NCBI-style).
            let s_frame = ctx.frame;
            scan_nt_context(lk, ctx, sref, s_frame, params, &st, ws);
        }
        if ws.cands.is_empty() {
            continue; // hitless subject: never unpacked, nothing to report
        }
        // Any candidate implies at least one seed hit, so for the packed
        // path the lazy unpack has filled `ws.subject` by now.
        let codes: &[u8] = match subjects {
            NtSubjects::Decoded(v) => &v.sequences[si].codes,
            NtSubjects::Packed(_) => &ws.subject,
        };
        let subject_ctxs = [(1i8, codes), (-1i8, codes)];
        let hsps = finalize(
            &mut ws.cands,
            &mut ws.kept,
            &ctxs,
            &subject_ctxs,
            params,
            &st,
        );
        if !hsps.is_empty() {
            hits.push(Hit {
                subject_id: subjects.id(si),
                subject_index: si,
                hsps,
            });
        }
    }
    hits
}

#[allow(clippy::too_many_arguments)]
fn search_protein(
    query_ctxs: &[QueryCtx],
    eff_query_len: usize,
    volume: &Volume,
    translate_db: bool,
    params: &SearchParams,
    db: DbStats,
    gapped_allowed: bool,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let db_eff = if translate_db {
        DbStats {
            residues: db.residues / 3,
            nseq: db.nseq,
        }
    } else {
        db
    };
    let st = stats_ctx(params, eff_query_len.max(1), db_eff);
    let lookups: Vec<AaLookup> = query_ctxs
        .iter()
        .map(|c| {
            AaLookup::build(
                &c.codes,
                params.word_size,
                &params.scorer,
                params.neighbor_threshold,
            )
        })
        .collect();
    let do_gapped = params.gapped && gapped_allowed;
    let mut hits = Vec::new();
    for (si, subject) in volume.sequences.iter().enumerate() {
        let translated;
        let subject_frames: Vec<(i8, &[u8])> = if translate_db {
            translated = six_frames(&subject.codes);
            translated
                .iter()
                .map(|f| (f.frame, f.codes.as_slice()))
                .collect()
        } else {
            vec![(1i8, subject.codes.as_slice())]
        };
        ws.cands.clear();
        for &(s_frame, scodes) in &subject_frames {
            for (ctx, lk) in query_ctxs.iter().zip(&lookups) {
                scan_aa_context(lk, ctx, scodes, s_frame, params, &st, do_gapped, ws);
            }
        }
        if ws.cands.is_empty() {
            continue;
        }
        let hsps = finalize(
            &mut ws.cands,
            &mut ws.kept,
            query_ctxs,
            &subject_frames,
            params,
            &st,
        );
        if !hsps.is_empty() {
            hits.push(Hit {
                subject_id: subject.id().to_string(),
                subject_index: si,
                hsps,
            });
        }
    }
    rank(hits, params.max_hits)
}

pub(crate) fn rank(mut hits: Vec<Hit>, max_hits: usize) -> Vec<Hit> {
    hits.sort_by(|a, b| {
        a.best_evalue()
            .partial_cmp(&b.best_evalue())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.best_score().cmp(&a.best_score()))
    });
    hits.truncate(max_hits);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_seqdb::blastdb::DbSequence;
    use parblast_seqdb::{encode_aa_seq, encode_nt_seq};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn nt_volume(seqs: &[(&str, Vec<u8>)]) -> Volume {
        Volume {
            seq_type: SeqType::Nucleotide,
            sequences: seqs
                .iter()
                .map(|(d, c)| DbSequence {
                    defline: d.to_string(),
                    codes: c.clone(),
                })
                .collect(),
        }
    }

    fn random_nt(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..4u8)).collect()
    }

    fn db_stats(v: &Volume) -> DbStats {
        DbStats {
            residues: v.residues(),
            nseq: v.sequences.len() as u64,
        }
    }

    #[test]
    fn blastn_finds_planted_query() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut subject = random_nt(&mut rng, 5000);
        let query = random_nt(&mut rng, 568);
        subject.splice(2000..2000, query.iter().copied());
        let v = nt_volume(&[
            ("target seq", subject),
            ("decoy", random_nt(&mut rng, 5000)),
        ]);
        let hits = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "target");
        let top = &hits[0].hsps[0];
        assert!(top.evalue < 1e-100);
        assert_eq!(top.q_start, 0);
        assert_eq!(top.q_end, 568);
        assert_eq!(top.s_start, 2000);
        assert_eq!(top.s_end, 2568);
        assert_eq!(top.identities, top.align_len);
    }

    #[test]
    fn blastn_finds_reverse_strand_match() {
        let mut rng = StdRng::seed_from_u64(2);
        let query = random_nt(&mut rng, 300);
        let rc = reverse_complement(&query);
        let mut subject = random_nt(&mut rng, 3000);
        subject.splice(1000..1000, rc.iter().copied());
        let v = nt_volume(&[("minus_target", subject)]);
        let hits = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        assert!(!hits.is_empty());
        let top = &hits[0].hsps[0];
        assert_eq!(top.q_frame, -1);
        assert_eq!(top.s_start, 1000);
        assert_eq!(top.s_end, 1300);
        assert_eq!((top.q_start, top.q_end), (0, 300));
    }

    #[test]
    fn blastn_tolerates_mutations() {
        let mut rng = StdRng::seed_from_u64(3);
        let query = random_nt(&mut rng, 568);
        let mut mutated = query.clone();
        // 5 % substitutions.
        for _ in 0..28 {
            let p = rng.random_range(0..mutated.len());
            mutated[p] = (mutated[p] + 1) & 3;
        }
        let mut subject = random_nt(&mut rng, 4000);
        subject.splice(500..500, mutated.iter().copied());
        let v = nt_volume(&[("m", subject)]);
        let hits = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        assert!(!hits.is_empty());
        let top = &hits[0].hsps[0];
        assert!(top.evalue < 1e-50);
        // Most of the query aligns.
        assert!(
            top.q_end - top.q_start > 500,
            "aligned {}",
            top.q_end - top.q_start
        );
        assert!(top.percent_identity() > 90.0);
    }

    #[test]
    fn blastn_bridges_an_indel() {
        let mut rng = StdRng::seed_from_u64(4);
        let query = random_nt(&mut rng, 400);
        let mut with_gap = query.clone();
        with_gap.splice(200..200, [0u8, 1, 2].iter().copied()); // 3-nt insertion
        let mut subject = random_nt(&mut rng, 2000);
        subject.splice(700..700, with_gap.iter().copied());
        let v = nt_volume(&[("g", subject)]);
        let hits = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        let top = &hits[0].hsps[0];
        assert!(top.gap_opens >= 1, "expected a gapped alignment");
        assert!(top.q_end - top.q_start > 380);
    }

    #[test]
    fn no_hits_in_unrelated_random_sequences() {
        let mut rng = StdRng::seed_from_u64(5);
        let query = random_nt(&mut rng, 568);
        let v = nt_volume(&[
            ("r1", random_nt(&mut rng, 3000)),
            ("r2", random_nt(&mut rng, 3000)),
        ]);
        let mut p = SearchParams::blastn();
        p.evalue = 1e-6; // strict cutoff: random 3 kb subjects can't pass
        let hits = search_volume(Program::Blastn, &query, &v, &p, db_stats(&v));
        assert!(hits.is_empty(), "false positives: {hits:?}");
    }

    #[test]
    fn blastp_finds_protein_match() {
        let q = encode_aa_seq(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ");
        let mut subj = encode_aa_seq(b"GGGGGGGGGG");
        subj.extend_from_slice(&q);
        subj.extend(encode_aa_seq(b"PPPPPPPPPP"));
        let v = Volume {
            seq_type: SeqType::Protein,
            sequences: vec![
                DbSequence {
                    defline: "albumin fragment".into(),
                    codes: subj,
                },
                DbSequence {
                    defline: "junk".into(),
                    codes: encode_aa_seq(b"GAGAGAGAGAGAGAGAGAGAGAGAGAGA"),
                },
            ],
        };
        let hits = search_volume(
            Program::Blastp,
            &q,
            &v,
            &SearchParams::blastp(),
            db_stats(&v),
        );
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject_id, "albumin");
        let top = &hits[0].hsps[0];
        assert_eq!(top.s_start, 10);
        assert!(top.percent_identity() > 99.0);
    }

    #[test]
    fn blastx_finds_translated_match() {
        // Protein db contains the translation of the nt query's frame +2.
        let nt = encode_nt_seq(b"GATGAAATGGAAGCGTTGGTGCTGATTGCGTTTGCGCAGTATCTGCAACAG");
        let aa_frame2 = crate::translate::translate_frame(&nt, 1);
        let v = Volume {
            seq_type: SeqType::Protein,
            sequences: vec![DbSequence {
                defline: "protein target".into(),
                codes: aa_frame2.clone(),
            }],
        };
        let mut p = SearchParams::blastp();
        p.evalue = 1e3; // short test sequences
        let hits = search_volume(Program::Blastx, &nt, &v, &p, db_stats(&v));
        assert!(!hits.is_empty());
        assert_eq!(hits[0].hsps[0].q_frame, 2);
    }

    #[test]
    fn tblastn_finds_coding_region() {
        let protein = encode_aa_seq(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSE");
        // Reverse-translate via a codon per residue (pick any codon): easier
        // to build the nt subject from a known translation property — embed
        // the protein's coding sequence built from the translate table by
        // brute force.
        let mut nt = Vec::new();
        'aa: for &aa in &protein {
            for c1 in 0..4u8 {
                for c2 in 0..4u8 {
                    for c3 in 0..4u8 {
                        if crate::translate::translate_codon(c1, c2, c3) == aa {
                            nt.extend_from_slice(&[c1, c2, c3]);
                            continue 'aa;
                        }
                    }
                }
            }
            panic!("no codon for {aa}");
        }
        let mut subject = encode_nt_seq(b"CCCCCCCC");
        subject.extend_from_slice(&nt);
        subject.extend(encode_nt_seq(b"GGGGGGGG"));
        let v = nt_volume(&[("coding region", subject)]);
        let mut p = SearchParams::blastp();
        p.evalue = 1e3;
        let hits = search_volume(Program::Tblastn, &protein, &v, &p, db_stats(&v));
        assert!(!hits.is_empty());
        // The match is on some forward frame.
        assert!(hits[0].hsps[0].s_frame > 0);
    }

    #[test]
    fn tblastx_is_ungapped_but_finds_match() {
        let mut rng = StdRng::seed_from_u64(8);
        let core = random_nt(&mut rng, 240);
        let mut subject = random_nt(&mut rng, 600);
        subject.splice(300..300, core.iter().copied());
        let v = nt_volume(&[("tx", subject)]);
        let mut p = SearchParams::blastp();
        p.evalue = 1.0;
        let hits = search_volume(Program::Tblastx, &core, &v, &p, db_stats(&v));
        assert!(!hits.is_empty());
    }

    #[test]
    fn evalues_scale_with_database_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let query = random_nt(&mut rng, 100);
        let mut subject = random_nt(&mut rng, 1000);
        subject.splice(100..100, query.iter().copied());
        let v = nt_volume(&[("t", subject)]);
        let small = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            DbStats {
                residues: 10_000,
                nseq: 10,
            },
        );
        let large = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            DbStats {
                residues: 2_700_000_000,
                nseq: 1_760_000,
            },
        );
        let e_small = small[0].hsps[0].evalue;
        let e_large = large[0].hsps[0].evalue;
        assert!(
            e_large > e_small * 1e3,
            "e_small={e_small} e_large={e_large}"
        );
    }

    #[test]
    fn dust_suppresses_low_complexity_noise() {
        // A query that is half real signal, half poly-A, against subjects
        // full of poly-A runs: with DUST only the real signal seeds.
        let mut rng = StdRng::seed_from_u64(12);
        let signal = random_nt(&mut rng, 200);
        let mut query = signal.clone();
        query.extend(std::iter::repeat_n(0u8, 200)); // poly-A half
        let mut subject_noise = vec![0u8; 3000]; // pure poly-A subject
        subject_noise.extend(random_nt(&mut rng, 500));
        let mut subject_signal = random_nt(&mut rng, 1000);
        subject_signal.splice(400..400, signal.iter().copied());
        let v = nt_volume(&[("noise", subject_noise), ("signal", subject_signal)]);

        let mut with_dust = SearchParams::blastn();
        assert!(with_dust.dust.is_some(), "blastn defaults enable DUST");
        with_dust.evalue = 1e-6;
        let hits = search_volume(Program::Blastn, &query, &v, &with_dust, db_stats(&v));
        assert_eq!(hits.len(), 1, "only the real signal: {hits:?}");
        assert_eq!(hits[0].subject_id, "signal");

        let mut no_dust = with_dust.clone();
        no_dust.dust = None;
        let hits = search_volume(Program::Blastn, &query, &v, &no_dust, db_stats(&v));
        assert!(
            hits.iter().any(|h| h.subject_id == "noise"),
            "without DUST the poly-A subject matches: {hits:?}"
        );
    }

    #[test]
    fn dust_soft_masking_extends_through_repeats() {
        // An alignment straddling a masked region still extends through it
        // (soft masking): plant signal-A + poly-A + signal-B contiguously.
        let mut rng = StdRng::seed_from_u64(13);
        let mut region = random_nt(&mut rng, 150);
        region.extend(std::iter::repeat_n(0u8, 100));
        region.extend(random_nt(&mut rng, 150));
        let mut subject = random_nt(&mut rng, 2000);
        subject.splice(700..700, region.iter().copied());
        let v = nt_volume(&[("s", subject)]);
        let hits = search_volume(
            Program::Blastn,
            &region,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        let top = &hits[0].hsps[0];
        // The full 400-nt region aligns despite the masked middle.
        assert!(
            top.q_end - top.q_start >= 380,
            "aligned {}",
            top.q_end - top.q_start
        );
        assert_eq!(top.identities, top.align_len);
    }

    #[test]
    fn hits_are_ranked_by_evalue() {
        let mut rng = StdRng::seed_from_u64(10);
        let query = random_nt(&mut rng, 200);
        // Perfect copy vs half copy.
        let mut s1 = random_nt(&mut rng, 1000);
        s1.splice(0..0, query.iter().copied());
        let mut s2 = random_nt(&mut rng, 1000);
        s2.splice(0..0, query[..100].iter().copied());
        let v = nt_volume(&[("half", s2), ("full", s1)]);
        let hits = search_volume(
            Program::Blastn,
            &query,
            &v,
            &SearchParams::blastn(),
            db_stats(&v),
        );
        assert_eq!(hits[0].subject_id, "full");
        assert_eq!(hits[1].subject_id, "half");
    }

    #[test]
    fn batched_search_is_hit_for_hit_identical_to_sequential() {
        use parblast_seqdb::{extract_query, SyntheticConfig, SyntheticNt, VolumeWriter};

        // Two fragments, so one `PreparedBatch` is searched over more than
        // one volume the way a job shares it.
        let mut sources = Vec::new();
        let volumes: Vec<PackedVolume> = [33u64, 34]
            .iter()
            .map(|&seed| {
                let mut g = SyntheticNt::new(SyntheticConfig {
                    total_residues: 60_000,
                    seed,
                    ..Default::default()
                });
                let mut buf = std::io::Cursor::new(Vec::new());
                let mut w = VolumeWriter::new(&mut buf, SeqType::Nucleotide).unwrap();
                while let Some((d, c)) = g.next() {
                    sources.push(c.clone());
                    w.add_codes(&d, &c).unwrap();
                }
                w.finish().unwrap();
                let bytes = buf.into_inner();
                PackedVolume::read_from(&mut bytes.as_slice()).unwrap()
            })
            .collect();
        let db = DbStats {
            residues: volumes.iter().map(|v| v.residues()).sum(),
            nseq: volumes.iter().map(|v| v.nseq() as u64).sum(),
        };
        let params = SearchParams::blastn();
        // A mix of planted queries (each hits a different subject, some on
        // the minus strand) and random misses.
        let mut rng = StdRng::seed_from_u64(33);
        let queries: Vec<Vec<u8>> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    let q =
                        extract_query(&sources[(7 * i) % sources.len()], 300, 0.02, 33 + i as u64);
                    if i % 6 == 0 {
                        reverse_complement(&q)
                    } else {
                        q
                    }
                } else {
                    random_nt(&mut rng, 350)
                }
            })
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();

        let mut ws = ScanWorkspace::new();
        let sequential: Vec<Vec<Vec<Hit>>> = volumes
            .iter()
            .map(|v| {
                refs.iter()
                    .map(|q| search_packed_with(Program::Blastn, q, v, &params, db, &mut ws))
                    .collect()
            })
            .collect();
        for per_volume in &sequential {
            assert!(
                per_volume.iter().any(|h| !h.is_empty()),
                "vacuous comparison"
            );
        }

        // Every batch size up to 10: 1 is the degenerate batch `run`
        // drives, 9 and 10 cross the MAX_FUSED_BATCH chunk boundary.
        let mut bws = BatchScanWorkspace::new();
        for b in 1..=refs.len() {
            let prepared = PreparedBatch::new(Program::Blastn, &refs[..b], &params, db);
            for (v, want) in volumes.iter().zip(&sequential) {
                let want = format!("{:?}", &want[..b]);
                assert_eq!(
                    format!("{:?}", prepared.search(v, &mut bws)),
                    want,
                    "prepared batch of {b} must be hit-for-hit identical"
                );
                let oneshot =
                    search_packed_batch_with(Program::Blastn, &refs[..b], v, &params, db, &mut bws);
                assert_eq!(format!("{oneshot:?}"), want, "one-shot batch of {b}");
            }
        }
        // The whole batch shares one unpack per seeded subject: strictly
        // fewer unpacks than the per-query path on this hit-heavy mix.
        let (seq_unpacks, before) = (ws.unpacks(), bws.unpacks());
        PreparedBatch::new(Program::Blastn, &refs, &params, db).search(&volumes[0], &mut bws);
        PreparedBatch::new(Program::Blastn, &refs, &params, db).search(&volumes[1], &mut bws);
        assert!(
            bws.unpacks() - before < seq_unpacks,
            "batched unpacks {} !< sequential {}",
            bws.unpacks() - before,
            seq_unpacks
        );
    }

    #[test]
    fn batched_search_non_blastn_falls_back_to_sequential() {
        let q1 = encode_aa_seq(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ");
        let q2 = encode_aa_seq(b"GAGAGAGAGAGAGAGA");
        let mut subj = encode_aa_seq(b"GGGGGGGGGG");
        subj.extend_from_slice(&q1);
        let v = Volume {
            seq_type: SeqType::Protein,
            sequences: vec![DbSequence {
                defline: "t".into(),
                codes: subj,
            }],
        };
        let packed = {
            let mut buf = std::io::Cursor::new(Vec::new());
            let mut w = parblast_seqdb::VolumeWriter::new(&mut buf, SeqType::Protein).unwrap();
            for s in &v.sequences {
                w.add_codes(&s.defline, &s.codes).unwrap();
            }
            w.finish().unwrap();
            let bytes = buf.into_inner();
            PackedVolume::read_from(&mut bytes.as_slice()).unwrap()
        };
        let params = SearchParams::blastp();
        let db = db_stats(&v);
        let refs: Vec<&[u8]> = vec![&q1, &q2];
        let batched = search_packed_batch(Program::Blastp, &refs, &packed, &params, db);
        let sequential: Vec<Vec<Hit>> = refs
            .iter()
            .map(|q| search_packed(Program::Blastp, q, &packed, &params, db))
            .collect();
        assert_eq!(format!("{sequential:?}"), format!("{batched:?}"));
        assert!(!batched[0].is_empty());
    }

    #[test]
    fn range_search_concatenated_and_ranked_equals_full_search() {
        use parblast_seqdb::{
            extract_query, PackedVolumeStream, SyntheticConfig, SyntheticNt, VolumeWriter,
        };

        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 80_000,
            seed: 21,
            ..Default::default()
        });
        let mut buf = std::io::Cursor::new(Vec::new());
        let mut w = VolumeWriter::new(&mut buf, SeqType::Nucleotide).unwrap();
        let mut query_src = None;
        let mut i = 0;
        while let Some((d, c)) = g.next() {
            if i == 2 {
                query_src = Some(c.clone());
            }
            w.add_codes(&d, &c).unwrap();
            i += 1;
        }
        w.finish().unwrap();
        let bytes = buf.into_inner();
        let packed = PackedVolume::read_from(&mut bytes.as_slice()).unwrap();
        let query = extract_query(&query_src.unwrap(), 400, 0.03, 21);
        let db = DbStats {
            residues: packed.residues(),
            nseq: packed.nseq() as u64,
        };
        let params = SearchParams::blastn();
        let full = search_packed(Program::Blastn, &query, &packed, &params, db);
        assert!(!full.is_empty(), "vacuous comparison");

        // Arbitrary subject split points, searched range by range with one
        // final rank.
        let mut ws = ScanWorkspace::new();
        let cuts = [0, 1, packed.nseq() / 2, packed.nseq()];
        let mut merged = Vec::new();
        for pair in cuts.windows(2) {
            merged.extend(search_packed_range_with(
                &query,
                &packed,
                pair[0]..pair[1],
                &params,
                db,
                &mut ws,
            ));
        }
        let merged = rank_hits(merged, params.max_hits);
        assert_eq!(format!("{full:?}"), format!("{merged:?}"), "split ranges");

        // The streaming consumption pattern: scan each subject the moment
        // its bytes arrive, rank once at the end.
        let mut src = bytes.as_slice();
        let mut stream = PackedVolumeStream::begin(&mut src).unwrap();
        let mut scanned = 0;
        let mut streamed = Vec::new();
        loop {
            let n = stream.feed(&mut src, 1536).unwrap();
            while scanned < stream.ready_seqs() {
                streamed.extend(search_packed_range_with(
                    &query,
                    stream.volume(),
                    scanned..scanned + 1,
                    &params,
                    db,
                    &mut ws,
                ));
                scanned += 1;
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(scanned, packed.nseq());
        let streamed = rank_hits(streamed, params.max_hits);
        assert_eq!(
            format!("{full:?}"),
            format!("{streamed:?}"),
            "streamed scan"
        );
    }
}
