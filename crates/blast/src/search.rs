//! The BLAST search pipeline: word hits → ungapped X-drop extension →
//! (optionally) gapped X-drop extension → E-value filtering → reporting.
//!
//! Nucleotide searches (blastn) scan both query strands with exact-word
//! seeds and one-hit triggering; protein searches (blastp and the
//! translated programs) use the 3-mer neighborhood lookup with two-hit
//! triggering on a diagonal, like NCBI BLAST 2.x.
//!
//! blastn has one kernel: [`PreparedBatch`] merges the strands of up to
//! [`MAX_FUSED_BATCH`] queries into one lookup and scans each packed
//! subject with it once. A single query is a batch of one and a decoded
//! [`Volume`] is packed first, so every entry point below ends there;
//! [`crate::baseline`] is the independent reference the tests compare it
//! with.

use parblast_seqdb::{reverse_complement, unpack_2bit_into, PackedVolume, SeqType, Volume};

use crate::dust::{dust_mask, DustParams};
use crate::extend::extend_ungapped;
use crate::gapped::{align_stats, banded_global_with, extend_gapped_with, GappedWorkspace};
use crate::karlin::{gapped_params, scorer_params, KarlinParams};
use crate::lookup::{AaLookup, BatchedNtLookup, MaskedContext, MAX_BATCH_CONTEXTS};
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

/// Most queries one fused kernel pass can serve: each blastn query brings
/// two strand contexts and the batched lookup holds
/// [`MAX_BATCH_CONTEXTS`] contexts. Larger batches are chunked
/// transparently by [`PreparedBatch`].
pub const MAX_FUSED_BATCH: usize = MAX_BATCH_CONTEXTS / 2;

/// Per-context scratch for the fused blastn scan: its own diagonal
/// tracker (diagonal redundancy is a per-context notion) and its own
/// candidate list (so the interleaved fused scan can be demuxed back into
/// the per-context candidate order: a query's whole plus-strand scan, then
/// its whole minus-strand scan).
#[derive(Default)]
struct CtxScratch {
    diag_end: DiagTracker,
    cands: Vec<Candidate>,
}

/// Reusable per-thread scratch for every search entry point: per-context
/// diagonal trackers and candidate lists and ONE shared subject-unpack
/// buffer for blastn batches, the two-hit trackers of the protein
/// programs, and the candidate lists and gapped-DP rows both share. One
/// workspace serves any number of searches — subjects, fragments and
/// batches all recycle the same memory, which grows to the largest
/// subject and batch seen, so the per-subject scan path performs no heap
/// allocation at all.
#[derive(Default)]
pub struct ScanWorkspace {
    ctx: Vec<CtxScratch>,
    subject: Vec<u8>,
    unpacks: u64,
    diag_end: DiagTracker,
    last_hit: DiagTracker,
    cands: Vec<Candidate>,
    kept: Vec<Candidate>,
    gapped: GappedWorkspace,
}

/// The batch entry points' workspace before the two were folded into
/// [`ScanWorkspace`]; `benchmark/` is frozen and imports both names.
pub type BatchScanWorkspace = ScanWorkspace;

impl ScanWorkspace {
    /// Empty workspace; buffers grow to the largest subject and batch seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many subject unpacks this workspace has performed (lifetime
    /// count). A blastn pass unpacks a subject at most once, on its first
    /// seed hit, however many queries of the batch go on to hit it.
    pub fn unpacks(&self) -> u64 {
        self.unpacks
    }
}

/// One nucleotide seed hit: diagonal-redundancy check, ungapped extension,
/// candidate emission. Mirrors [`crate::baseline`] exactly, with the
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
/// alignment statistics and E-values. `cands`, `kept` and `gws` are
/// workspace buffers (consumed and reused); `subject_ctxs` maps each
/// subject frame to its decoded codes by linear search (at most six
/// frames).
fn finalize(
    cands: &mut [Candidate],
    kept: &mut Vec<Candidate>,
    gws: &mut GappedWorkspace,
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
        let (_, ops) = banded_global_with(qslice, sslice, &params.scorer, params.gaps, 16, gws);
        let stats = align_stats(qslice, sslice, ops);
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

/// Run `program` for one query over one decoded database volume.
/// Convenience wrapper over [`search_volume_with`] with a throwaway
/// workspace.
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

/// [`search_volume`] with a caller-provided [`ScanWorkspace`]. blastn has
/// one kernel, which reads packed subjects: the volume is packed once
/// ([`PackedVolume::from_volume`]) and searched as a batch of one. The
/// protein programs read the decoded subjects as they are.
pub fn search_volume_with(
    program: Program,
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    match program {
        Program::Blastn => PreparedBatch::new(program, &[query], params, db)
            .search(&PackedVolume::from_volume(volume), ws)
            .pop()
            .expect("one query in, one hit list out"),
        _ => search_decoded(program, query, volume, params, db, ws),
    }
}

/// One query over a packed volume, as a batch of one. `benchmark/` is
/// frozen and calls it by this name.
pub fn search_packed_with(
    program: Program,
    query: &[u8],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let mut found = PreparedBatch::new(program, &[query], params, db).search(volume, ws);
    found.pop().expect("one query in, one hit list out")
}

/// Run `program` for a whole batch of queries over one packed volume:
/// [`PreparedBatch::new`] then [`PreparedBatch::search`]. Callers that
/// search more than one volume with the same batch should keep the
/// [`PreparedBatch`] instead.
pub fn search_packed_batch_with(
    program: Program,
    queries: &[&[u8]],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Vec<Hit>> {
    PreparedBatch::new(program, queries, params, db).search(volume, ws)
}

/// A protein program (everything but blastn) for one query over decoded
/// subjects.
fn search_decoded(
    program: Program,
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let one_frame = || {
        vec![QueryCtx {
            codes: query.to_vec(),
            frame: 1,
        }]
    };
    let all_frames = || -> Vec<QueryCtx> {
        six_frames(query)
            .into_iter()
            .map(|f| QueryCtx {
                codes: f.codes,
                frame: f.frame,
            })
            .collect()
    };
    match program {
        Program::Blastn => unreachable!("blastn runs the packed kernel"),
        Program::Blastp => {
            assert_eq!(volume.seq_type, SeqType::Protein, "blastp needs an aa db");
            search_protein(
                &one_frame(),
                query.len(),
                volume,
                false,
                params,
                db,
                true,
                ws,
            )
        }
        Program::Blastx => {
            assert_eq!(volume.seq_type, SeqType::Protein, "blastx needs an aa db");
            let eff_len = query.len() / 3;
            search_protein(&all_frames(), eff_len, volume, false, params, db, true, ws)
        }
        Program::Tblastn => {
            assert_eq!(
                volume.seq_type,
                SeqType::Nucleotide,
                "tblastn needs a nt db"
            );
            search_protein(
                &one_frame(),
                query.len(),
                volume,
                true,
                params,
                db,
                true,
                ws,
            )
        }
        Program::Tblastx => {
            assert_eq!(
                volume.seq_type,
                SeqType::Nucleotide,
                "tblastx needs a nt db"
            );
            let eff_len = query.len() / 3;
            // NCBI tblastx is ungapped-only.
            search_protein(&all_frames(), eff_len, volume, true, params, db, false, ws)
        }
    }
}

/// One fused chunk (≤ [`MAX_FUSED_BATCH`] queries) of a prepared blastn
/// batch. Context index `2q` is query q's plus strand, `2q + 1` its minus
/// strand — the order [`crate::baseline`] scans them.
struct PreparedChunk {
    ctxs: Vec<[QueryCtx; 2]>,
    stats: Vec<StatsCtx>,
    lookup: BatchedNtLookup,
}

enum Prepared<'a> {
    /// blastn: the fused kernel, one chunk per pass over a volume.
    Fused(Vec<PreparedChunk>),
    /// The protein programs have no fused kernel: one search per query
    /// over the decoded volume.
    Decoded {
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
/// [`ScanWorkspace`]); a batch of one query is the degenerate case
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
            _ => Prepared::Decoded {
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
    /// For blastn this is the fused hot path: the packed volume bytes are
    /// scanned **once per chunk for the whole chunk**
    /// instead of once per query — scan cost is per-pass, extension cost
    /// stays per-query. Results are hit-for-hit identical to one
    /// [`crate::baseline`] search per query: same candidates in the same
    /// insertion order, so every downstream tie-break (stable score sort,
    /// containment cull, E-value ranking) resolves identically.
    pub fn search(&self, volume: &PackedVolume, ws: &mut ScanWorkspace) -> Vec<Vec<Hit>> {
        match &self.prepared {
            Prepared::Fused(chunks) => {
                assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
                chunks
                    .iter()
                    .flat_map(|chunk| chunk.search(volume, self.params, ws))
                    .collect()
            }
            Prepared::Decoded {
                program,
                db,
                queries,
            } => {
                // Decoded once for the whole batch, not once per query.
                let decoded = volume.to_volume();
                queries
                    .iter()
                    .map(|q| search_decoded(*program, q, &decoded, self.params, *db, ws))
                    .collect()
            }
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

    /// One scan per subject, per-context demux into the per-query
    /// candidate order.
    fn search(
        &self,
        volume: &PackedVolume,
        params: &SearchParams,
        ws: &mut ScanWorkspace,
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
        let ScanWorkspace {
            ctx: ctx_ws,
            subject,
            unpacks,
            cands,
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
                    qctx.frame, // minus-strand matches carry s_frame −1
                    params,
                    &stats[c / 2],
                    &mut cs.diag_end,
                    gapped,
                    &mut cs.cands,
                );
            });
            for (qi, hits) in per_query.iter_mut().enumerate() {
                // Reassemble this query's candidate order: the whole
                // plus-strand scan precedes the whole minus-strand scan,
                // as if each context had been scanned on its own.
                cands.clear();
                cands.append(&mut ctx_ws[2 * qi].cands);
                cands.append(&mut ctx_ws[2 * qi + 1].cands);
                if cands.is_empty() {
                    continue; // hitless subject: nothing to report
                }
                // Any candidate implies a seed hit, so the shared lazy
                // unpack has filled `subject` by now.
                let codes: &[u8] = subject;
                let subject_ctxs = [(1i8, codes), (-1i8, codes)];
                let hsps = finalize(
                    cands,
                    kept,
                    gapped,
                    &ctxs[qi],
                    &subject_ctxs,
                    params,
                    &stats[qi],
                );
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
            &mut ws.gapped,
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
    use crate::baseline::search_blastn_baseline;
    use parblast_seqdb::blastdb::DbSequence;
    use parblast_seqdb::{encode_aa_seq, encode_nt_seq};
    use proptest::prelude::*;
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

    /// Two fragments, so one `PreparedBatch` is searched over more than
    /// one volume the way a job shares it, and ten queries: a mix of
    /// planted ones (each hits a different subject, some on the minus
    /// strand) and random misses.
    struct Fixture {
        packed: Vec<PackedVolume>,
        decoded: Vec<Volume>,
        queries: Vec<Vec<u8>>,
        db: DbStats,
    }

    fn fixture() -> &'static Fixture {
        use parblast_seqdb::{extract_query, SyntheticConfig, SyntheticNt};
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut sources = Vec::new();
            let decoded: Vec<Volume> = [33u64, 34]
                .iter()
                .map(|&seed| {
                    let mut g = SyntheticNt::new(SyntheticConfig {
                        total_residues: 40_000,
                        seed,
                        ..Default::default()
                    });
                    let mut seqs = Vec::new();
                    while let Some((d, c)) = g.next() {
                        sources.push(c.clone());
                        seqs.push((d, c));
                    }
                    Volume {
                        seq_type: SeqType::Nucleotide,
                        sequences: seqs
                            .into_iter()
                            .map(|(defline, codes)| DbSequence { defline, codes })
                            .collect(),
                    }
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(33);
            let queries = (0..10)
                .map(|i| {
                    if i % 3 == 0 {
                        let src = &sources[(7 * i) % sources.len()];
                        let q = extract_query(src, 300, 0.02, 33 + i as u64);
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
            Fixture {
                packed: decoded.iter().map(PackedVolume::from_volume).collect(),
                db: DbStats {
                    residues: decoded.iter().map(Volume::residues).sum(),
                    nseq: decoded.iter().map(|v| v.sequences.len() as u64).sum(),
                },
                decoded,
                queries,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one kernel against the one reference: a prepared batch of
        /// any size (1 is what `run` drives, 9 and 10 cross the
        /// MAX_FUSED_BATCH chunk boundary), any supported word size, gapped
        /// or not, searched over both volumes with one dirty workspace,
        /// reports for every query exactly what the baseline reports for
        /// that query alone.
        #[test]
        fn prepared_batch_equals_the_baseline_query_by_query(
            b in 1usize..=10,
            first in 0usize..10,
            word in 4usize..=12,
            gapped in any::<bool>(),
        ) {
            let fx = fixture();
            let mut params = SearchParams::blastn();
            params.word_size = word;
            params.gapped = gapped;
            let batch: Vec<&[u8]> = (0..b)
                .map(|i| fx.queries[(first + i) % fx.queries.len()].as_slice())
                .collect();
            let prepared = PreparedBatch::new(Program::Blastn, &batch, &params, fx.db);
            let mut ws = ScanWorkspace::new();
            for (packed, decoded) in fx.packed.iter().zip(&fx.decoded) {
                let want: Vec<Vec<Hit>> = batch
                    .iter()
                    .map(|q| search_blastn_baseline(q, decoded, &params, fx.db))
                    .collect();
                prop_assert_eq!(
                    format!("{:?}", prepared.search(packed, &mut ws)),
                    format!("{want:?}")
                );
            }
        }
    }

    /// The `serve_family` shape, where the reporting traceback is most of
    /// the work: 24 members of one family at 3–15% divergence (every third
    /// with an indel, so tracebacks are gapped) among decoys, and a full
    /// chunk of eight queries cut from the family's seed. One workspace
    /// serves every traceback of the batch; the baseline allocates per HSP.
    #[test]
    fn a_family_batch_of_eight_equals_the_baseline_query_by_query() {
        use parblast_seqdb::extract_query;
        let mut rng = StdRng::seed_from_u64(17);
        let family = random_nt(&mut rng, 1500);
        let mut seqs = Vec::new();
        for c in 0..24u64 {
            let divergence = 0.03 + 0.12 * c as f64 / 23.0;
            let mut member = extract_query(&family, family.len(), divergence, 100 + c);
            if c % 3 == 0 {
                let at = rng.random_range(100..1400);
                if c % 2 == 0 {
                    member.splice(at..at, [0u8, 1, 2, 3]);
                } else {
                    member.drain(at..at + 2);
                }
            }
            seqs.push(("member", member));
            seqs.push(("decoy", random_nt(&mut rng, 1500)));
        }
        let v = nt_volume(&seqs);
        let db = db_stats(&v);
        let params = SearchParams::blastn();
        let queries: Vec<Vec<u8>> = (0..MAX_FUSED_BATCH as u64)
            .map(|i| extract_query(&family, 568, 0.02, 200 + i))
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let found = PreparedBatch::new(Program::Blastn, &refs, &params, db)
            .search(&PackedVolume::from_volume(&v), &mut ScanWorkspace::new());
        assert_eq!(found.len(), 8);
        for (q, hits) in refs.iter().zip(&found) {
            let want = search_blastn_baseline(q, &v, &params, db);
            assert_eq!(format!("{hits:?}"), format!("{want:?}"));
            assert!(hits.len() >= 20, "{} of 24 members found", hits.len());
        }
        let gapped = found.iter().flatten().flat_map(|h| &h.hsps);
        assert!(gapped.filter(|h| h.gap_opens > 0).count() >= 8);
    }

    #[test]
    fn the_fixture_hits_on_both_strands_and_a_batch_shares_unpacks() {
        let fx = fixture();
        let params = SearchParams::blastn();
        let refs: Vec<&[u8]> = fx.queries.iter().map(Vec::as_slice).collect();
        let mut ws = ScanWorkspace::new();
        let mut alone = 0;
        for packed in &fx.packed {
            // The proptest above must not compare empty lists.
            let frames: std::collections::BTreeSet<i8> = refs
                .iter()
                .flat_map(|q| {
                    let before = ws.unpacks();
                    let hits =
                        search_packed_with(Program::Blastn, q, packed, &params, fx.db, &mut ws);
                    alone += ws.unpacks() - before;
                    hits
                })
                .flat_map(|h| h.hsps)
                .map(|h| h.q_frame)
                .collect();
            assert_eq!(frames.into_iter().collect::<Vec<_>>(), [-1, 1]);
        }
        // The whole batch shares one unpack per seeded subject: strictly
        // fewer unpacks than ten batches of one on this hit-heavy mix.
        let before = ws.unpacks();
        let prepared = PreparedBatch::new(Program::Blastn, &refs, &params, fx.db);
        for packed in &fx.packed {
            prepared.search(packed, &mut ws);
        }
        let together = ws.unpacks() - before;
        assert!(together < alone, "batched {together} !< one by one {alone}");
    }

    #[test]
    fn a_blastp_batch_equals_single_searches() {
        let q1 = encode_aa_seq(b"MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQ");
        let q2 = encode_aa_seq(b"GAGAGAGAGAGAGAGA");
        let q3 = encode_aa_seq(b"RGVFRRDAHKSEVAHRFKDLGEENF");
        let q4 = encode_aa_seq(b"PPPPPPPPWWWWWWWW");
        let mut subj = encode_aa_seq(b"GGGGGGGGGG");
        subj.extend_from_slice(&q1);
        let v = Volume {
            seq_type: SeqType::Protein,
            sequences: vec![DbSequence {
                defline: "t".into(),
                codes: subj,
            }],
        };
        let params = SearchParams::blastp();
        let db = db_stats(&v);
        let refs: Vec<&[u8]> = vec![&q1, &q2, &q3, &q4];
        let batched = PreparedBatch::new(Program::Blastp, &refs, &params, db)
            .search(&PackedVolume::from_volume(&v), &mut ScanWorkspace::new());
        let single: Vec<Vec<Hit>> = refs
            .iter()
            .map(|q| search_volume(Program::Blastp, q, &v, &params, db))
            .collect();
        assert_eq!(format!("{single:?}"), format!("{batched:?}"));
        assert!(!batched[0].is_empty() && !batched[2].is_empty());
    }
}
