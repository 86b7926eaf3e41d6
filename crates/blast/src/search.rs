//! The blastn search pipeline: word hits → ungapped X-drop extension →
//! (optionally) gapped X-drop extension → E-value filtering → reporting.
//!
//! Both query strands are scanned with exact-word seeds and one-hit
//! triggering, through one kernel: [`PreparedBatch`] merges the strands
//! of up to [`MAX_FUSED_BATCH`] queries into one lookup and scans each
//! packed subject with it once. A single query is a batch of one and a
//! decoded [`Volume`] is packed first, so every entry point below ends
//! there; [`crate::baseline`] is the independent reference the tests
//! compare it with.

use parblast_seqdb::{reverse_complement, unpack_2bit_into, Deflines, PackedVolume, Volume};

use crate::dust::{dust_mask, DustParams};
use crate::extend::{extend_ungapped_packed, PackedQuery, UngappedTable};
use crate::gapped::{align_stats, banded_global_with, extend_gapped_with, GappedWorkspace};
use crate::karlin::{gapped_params, scorer_params, KarlinParams};
use crate::lookup::{BatchedNtLookup, MaskedContext, SurvivorBlock, MAX_BATCH_CONTEXTS};
use crate::matrix::{GapPenalties, Scorer};
use crate::report::{Hit, Hsp};
use crate::workspace::DiagTracker;

/// Which BLAST program to run. The paper benchmarks blastn alone, and
/// blastn is all this engine runs; the enum keeps its one variant because
/// `benchmark/` is frozen and names `Program::Blastn` (as the first
/// argument of [`search_packed_with`] and [`search_packed_batch_with`],
/// and in its `ParallelBlast` literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Nucleotide query vs nucleotide database.
    Blastn,
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
    /// Word size (default 11; the lookup takes 1..=12).
    pub word_size: usize,
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
    /// DUST low-complexity query masking (`None` disables). Soft masking:
    /// masked regions seed nothing but extensions may cross them — NCBI
    /// blastn's 2003 default behaviour.
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
            x_drop_ungapped: 16,
            x_drop_gapped: 30,
            gap_trigger_bits: 25.0,
            evalue: 10.0,
            gapped: true,
            dust: Some(DustParams::default()),
            max_hits: 500,
        }
    }
}

/// The ungapped and gapped Karlin–Altschul parameters of a
/// [`SearchParams`]' scoring system. They depend on nothing else, so a
/// batch computes them (a λ bisection and the K convolution) once and
/// derives every query's [`StatsCtx`] from them.
#[derive(Clone, Copy)]
pub(crate) struct Karlin {
    ungapped: KarlinParams,
    gapped: KarlinParams,
}

/// One query's statistics: the Karlin parameters, its search space and
/// the raw scores that trigger a gapped extension and pass the E-value
/// cutoff.
pub(crate) struct StatsCtx {
    pub(crate) ungapped: KarlinParams,
    pub(crate) gapped: KarlinParams,
    pub(crate) space: f64,
    pub(crate) gap_trigger_raw: i32,
    pub(crate) cutoff_raw: i32,
}

impl Karlin {
    pub(crate) fn new(params: &SearchParams) -> Self {
        let ungapped = scorer_params(&params.scorer).expect("scoring system has valid statistics");
        let gapped = gapped_params(&params.scorer, params.gaps).unwrap_or(ungapped);
        Karlin { ungapped, gapped }
    }

    /// The statistics of a query of `query_len` residues against `db`.
    pub(crate) fn for_query(
        &self,
        params: &SearchParams,
        query_len: usize,
        db: DbStats,
    ) -> StatsCtx {
        let Karlin { ungapped, gapped } = *self;
        let reporting = if params.gapped { gapped } else { ungapped };
        let space = reporting.search_space(query_len as u64, db.residues, db.nseq);
        let gap_trigger_raw = ungapped.raw_for_bits(params.gap_trigger_bits);
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
}

/// The strand of context `c` of a query, `c` = 0 for the plus and 1 for
/// the minus strand, as an [`Hsp`] reports it in both frame fields.
pub(crate) const STRANDS: [i8; 2] = [1, -1];

/// Candidate HSP in strand coordinates: the query range is on the strand
/// itself (the reverse complement for `strand == -1`), the subject range
/// on the subject as stored.
#[derive(Clone)]
pub(crate) struct Candidate {
    pub(crate) score: i32,
    pub(crate) q_range: std::ops::Range<usize>,
    pub(crate) s_range: std::ops::Range<usize>,
    pub(crate) strand: i8,
    pub(crate) gapped: bool,
}

/// Most queries one fused kernel pass can serve: each query brings two
/// strand contexts and the batched lookup holds [`MAX_BATCH_CONTEXTS`]
/// contexts. Larger batches are chunked transparently by
/// [`PreparedBatch`].
pub const MAX_FUSED_BATCH: usize = MAX_BATCH_CONTEXTS / 2;

/// Seed-scan passes a batch of `queries` queries makes over one fragment:
/// one per [`MAX_FUSED_BATCH`]-query chunk, `ceil(queries / MAX_FUSED_BATCH)`.
/// The real runner, the serving model and the simulator all count passes
/// with it.
pub fn fused_passes(queries: u64) -> u64 {
    queries.div_ceil(MAX_FUSED_BATCH as u64)
}

/// Per-context scratch for the fused scan: its own diagonal tracker
/// (diagonal redundancy is a per-context notion) and its own candidate
/// list (so the interleaved fused scan can be demuxed back into the
/// per-context candidate order: a query's whole plus-strand scan, then
/// its whole minus-strand scan).
#[derive(Default)]
struct CtxScratch {
    diag_end: DiagTracker,
    cands: Vec<Candidate>,
}

/// Reusable per-thread scratch for every search entry point: the seed
/// scan's survivor block, per-context diagonal trackers and candidate
/// lists, ONE shared subject-unpack buffer, and the candidate lists and
/// gapped-DP rows of the reporting stage. One workspace serves any number
/// of searches — subjects, fragments and batches all recycle the same
/// memory, which grows to the largest subject and batch seen, so the
/// per-subject scan path performs no heap allocation at all.
#[derive(Default)]
pub struct ScanWorkspace {
    survivors: SurvivorBlock,
    ctx: Vec<CtxScratch>,
    subject: Vec<u8>,
    unpacks: u64,
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
    /// count). A pass unpacks a subject at most once, the first time a
    /// gapped extension or the reporting stage needs its bases, however
    /// many queries of the batch go on to need them; a subject whose seeds
    /// all die in ungapped extension is never unpacked.
    pub fn unpacks(&self) -> u64 {
        self.unpacks
    }
}

/// The subject being searched: its packed bases, and their unpacked form
/// once something has needed it, in the workspace's shared buffer.
struct Subject<'a> {
    packed: &'a [u8],
    len: usize,
    buf: &'a mut Vec<u8>,
    unpacked: bool,
    unpacks: &'a mut u64,
}

impl Subject<'_> {
    /// One byte per base, unpacked on the first call.
    fn bases(&mut self) -> &[u8] {
        if !self.unpacked {
            unpack_2bit_into(self.packed, self.len, self.buf);
            self.unpacked = true;
            *self.unpacks += 1;
        }
        self.buf
    }
}

/// A query strand in both forms the hit path reads.
struct Strand {
    codes: Vec<u8>,
    packed: PackedQuery,
}

impl Strand {
    fn new(codes: Vec<u8>) -> Self {
        let packed = PackedQuery::new(&codes);
        Strand { codes, packed }
    }
}

/// One seed hit on strand `strand`: diagonal-redundancy check, ungapped
/// extension on the packed bases, a gapped extension if the ungapped score
/// reaches the trigger, candidate emission. Mirrors [`crate::baseline`]
/// exactly, with the diagonal `HashMap` replaced by the flat tracker
/// (`diag = s − q + qlen`).
#[allow(clippy::too_many_arguments)]
#[inline]
fn nt_hit(
    query: &Strand,
    subject: &mut Subject,
    qp: usize,
    sp: usize,
    word: usize,
    strand: i8,
    params: &SearchParams,
    ungapped: &UngappedTable,
    st: &StatsCtx,
    diag_end: &mut DiagTracker,
    gws: &mut GappedWorkspace,
    out: &mut Vec<Candidate>,
) {
    let diag = sp + query.codes.len() - qp;
    if let Some(end) = diag_end.get(diag) {
        if sp < end as usize {
            return;
        }
    }
    let hsp = extend_ungapped_packed(
        &query.packed,
        subject.packed,
        subject.len,
        qp,
        sp,
        word,
        ungapped,
        params.x_drop_ungapped,
    );
    diag_end.set(diag, hsp.s_end as u32);
    let candidate = if params.gapped && hsp.score >= st.gap_trigger_raw {
        // Anchor the gapped extension at the midpoint of the ungapped HSP.
        let mid = hsp.len() / 2;
        let (score, q_range, s_range) = extend_gapped_with(
            &query.codes,
            subject.bases(),
            hsp.q_start + mid,
            hsp.s_start + mid,
            &params.scorer,
            params.gaps,
            params.x_drop_gapped,
            gws,
        );
        Candidate {
            score,
            q_range,
            s_range,
            strand,
            gapped: true,
        }
    } else {
        Candidate {
            score: hsp.score,
            q_range: hsp.q_start..hsp.q_end,
            s_range: hsp.s_start..hsp.s_end,
            strand,
            gapped: false,
        }
    };
    if candidate.score >= st.cutoff_raw {
        out.push(candidate);
    }
}

/// Annotate one subject's candidates into final HSPs: cull contained
/// duplicates, compute alignment statistics and E-values. `cands`, `kept`
/// and `gws` are workspace buffers (consumed and reused); `strands` are
/// the query's plus and minus strands and `subject` the unpacked subject.
fn finalize(
    cands: &mut [Candidate],
    kept: &mut Vec<Candidate>,
    gws: &mut GappedWorkspace,
    strands: &[Strand; 2],
    subject: &[u8],
    params: &SearchParams,
    st: &StatsCtx,
) -> Vec<Hsp> {
    cands.sort_by_key(|c| std::cmp::Reverse(c.score));
    kept.clear();
    'outer: for c in cands.iter() {
        for k in kept.iter() {
            if k.strand == c.strand
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
        let query = &strands[usize::from(c.strand < 0)].codes;
        let qslice = &query[c.q_range.clone()];
        let sslice = &subject[c.s_range.clone()];
        let (_, ops) = banded_global_with(qslice, sslice, &params.scorer, params.gaps, 16, gws);
        let stats = align_stats(qslice, sslice, ops);
        // Report minus-strand query coordinates on the forward query.
        let (q_start, q_end) = if c.strand < 0 {
            (query.len() - c.q_range.end, query.len() - c.q_range.start)
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
            q_frame: c.strand,
            s_frame: c.strand,
            align_len: stats.length,
            identities: stats.identities,
            mismatches: stats.mismatches,
            gap_opens: stats.gap_opens,
        });
    }
    out.sort_by_key(|h| std::cmp::Reverse(h.score));
    out
}

/// blastn for one query over one decoded database volume. Convenience
/// wrapper over [`search_volume_with`] with a throwaway workspace.
pub fn search_volume(
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
) -> Vec<Hit> {
    search_volume_with(query, volume, params, db, &mut ScanWorkspace::new())
}

/// [`search_volume`] with a caller-provided [`ScanWorkspace`]. The one
/// kernel reads packed subjects: the volume is packed once
/// ([`PackedVolume::from_volume`]) and searched as a batch of one.
pub fn search_volume_with(
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    search_packed_with(
        Program::Blastn,
        query,
        &PackedVolume::from_volume(volume),
        params,
        db,
        ws,
    )
}

/// One query over a packed volume, as a batch of one. `benchmark/` is
/// frozen and calls it by this name, `program` included.
pub fn search_packed_with(
    program: Program,
    query: &[u8],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Hit> {
    let mut found = search_packed_batch_with(program, &[query], volume, params, db, ws);
    found.pop().expect("one query in, one hit list out")
}

/// A whole batch of queries over one packed volume:
/// [`PreparedBatch::new`] then [`PreparedBatch::search`]. Callers that
/// search more than one volume with the same batch should keep the
/// [`PreparedBatch`] instead. `program` is always [`Program::Blastn`];
/// `benchmark/` is frozen and passes it.
pub fn search_packed_batch_with(
    program: Program,
    queries: &[&[u8]],
    volume: &PackedVolume,
    params: &SearchParams,
    db: DbStats,
    ws: &mut ScanWorkspace,
) -> Vec<Vec<Hit>> {
    let Program::Blastn = program;
    PreparedBatch::new(queries, params, db).search(volume, ws)
}

/// One fused chunk (≤ [`MAX_FUSED_BATCH`] queries) of a prepared batch.
/// Context index `2q` is query q's plus strand, `2q + 1` its minus
/// strand — the order [`crate::baseline`] scans them.
struct PreparedChunk {
    strands: Vec<[Strand; 2]>,
    stats: Vec<StatsCtx>,
    lookup: BatchedNtLookup,
}

/// Everything a batch search needs that depends on the queries and not on
/// the volume: both strands of every query (as codes and packed for the
/// ungapped walk), their DUST masks folded into one merged
/// [`BatchedNtLookup`] per chunk of at most [`MAX_FUSED_BATCH`] queries,
/// the per-query statistics and the ungapped walk's step table. It is
/// immutable after [`PreparedBatch::new`], so one instance serves every
/// fragment of a job and every worker thread at once (each with its own
/// [`ScanWorkspace`]); a batch of one query is the degenerate case
/// and still scans both strands in a single pass. It keeps its own copy
/// of the parameters, so it can outlive the job that prepared it.
pub struct PreparedBatch {
    params: SearchParams,
    ungapped: UngappedTable,
    chunks: Vec<PreparedChunk>,
}

impl PreparedBatch {
    /// Prepare `queries`, 2-bit nucleotide codes, for a search under
    /// `params`.
    pub fn new(queries: &[&[u8]], params: &SearchParams, db: DbStats) -> Self {
        let karlin = Karlin::new(params);
        let chunks = queries
            .chunks(MAX_FUSED_BATCH)
            .map(|chunk| PreparedChunk::new(chunk, params, &karlin, db))
            .collect();
        PreparedBatch {
            params: params.clone(),
            ungapped: UngappedTable::new(&params.scorer),
            chunks,
        }
    }

    /// Search one packed volume with the whole batch; one `Vec<Hit>` per
    /// query, in input order.
    ///
    /// The packed volume bytes are scanned **once per chunk for the whole
    /// chunk** instead of once per query — scan cost is per-pass,
    /// extension cost stays per-query. Results are hit-for-hit identical
    /// to one [`crate::baseline`] search per query: same candidates in the
    /// same insertion order, so every downstream tie-break (stable score
    /// sort, containment cull, E-value ranking) resolves identically.
    ///
    /// Every hit is named from the volume's deflines, so the volume must
    /// hold the deflines of the subjects it reports ([`PackedVolume::read_from`]).
    pub fn search(&self, volume: &PackedVolume, ws: &mut ScanWorkspace) -> Vec<Vec<Hit>> {
        self.find(volume, ws).name(volume.deflines())
    }

    /// [`Self::search`] without the naming: the hits wait for their
    /// subjects' deflines, which [`Found::subjects`] lists. A volume read
    /// by [`PackedVolume::read_sequences`] is searched this way.
    pub fn find(&self, volume: &PackedVolume, ws: &mut ScanWorkspace) -> Found {
        Found {
            per_query: self
                .chunks
                .iter()
                .flat_map(|chunk| chunk.search(volume, &self.params, &self.ungapped, ws))
                .collect(),
        }
    }
}

/// A batch's hits on one volume before their subjects are named: one list
/// per query, ranked, each hit knowing its subject's index in the volume.
/// The only way out is [`Found::name`], so every reported
/// [`Hit::subject_id`] comes from a defline read from the volume.
#[derive(Debug)]
pub struct Found {
    per_query: Vec<Vec<Hit>>,
}

impl Found {
    /// The subject of every hit, in hit order: a subject appears once
    /// for each of its hits.
    pub fn subjects(&self) -> impl Iterator<Item = usize> + '_ {
        self.per_query.iter().flatten().map(|h| h.subject_index)
    }

    /// Name every hit after the first word of its subject's defline; one
    /// `Vec<Hit>` per query, in input order.
    ///
    /// # Panics
    ///
    /// If `deflines` lacks a subject of [`Self::subjects`].
    pub fn name(self, deflines: &Deflines) -> Vec<Vec<Hit>> {
        let mut per_query = self.per_query;
        for hit in per_query.iter_mut().flatten() {
            hit.subject_id = deflines.id(hit.subject_index).unwrap_or_else(|| {
                panic!("the defline of subject {} was not read", hit.subject_index)
            });
        }
        per_query
    }
}

impl PreparedChunk {
    fn new(queries: &[&[u8]], params: &SearchParams, karlin: &Karlin, db: DbStats) -> Self {
        let stats = queries
            .iter()
            .map(|q| karlin.for_query(params, q.len(), db))
            .collect();
        let strands: Vec<[Strand; 2]> = queries
            .iter()
            .map(|q| [Strand::new(q.to_vec()), Strand::new(reverse_complement(q))])
            .collect();
        let masks: Vec<Vec<(usize, usize)>> = strands
            .iter()
            .flatten()
            .map(|s| {
                params
                    .dust
                    .map(|d| dust_mask(&s.codes, d))
                    .unwrap_or_default()
            })
            .collect();
        let merged_ctxs: Vec<MaskedContext> = strands
            .iter()
            .flatten()
            .zip(&masks)
            .map(|(s, m)| (s.codes.as_slice(), m.as_slice()))
            .collect();
        let lookup = BatchedNtLookup::build_masked(&merged_ctxs, params.word_size);
        PreparedChunk {
            strands,
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
        ungapped: &UngappedTable,
        ws: &mut ScanWorkspace,
    ) -> Vec<Vec<Hit>> {
        let PreparedChunk {
            strands,
            stats,
            lookup,
        } = self;
        let b = strands.len();
        if ws.ctx.len() < 2 * b {
            ws.ctx.resize_with(2 * b, CtxScratch::default);
        }
        // Split the workspace into disjoint field borrows once: the scan
        // takes the survivor block while its closure needs the context
        // scratch, the shared unpack buffer, and the gapped rows.
        let ScanWorkspace {
            survivors,
            ctx: ctx_ws,
            subject: subject_buf,
            unpacks,
            cands,
            kept,
            gapped,
        } = ws;

        let mut per_query: Vec<Vec<Hit>> = (0..b).map(|_| Vec::new()).collect();
        for si in 0..volume.nseq() {
            let mut subject = Subject {
                packed: volume.packed(si),
                len: volume.seq_len(si),
                buf: subject_buf,
                unpacked: false,
                unpacks,
            };
            for (c, cs) in ctx_ws.iter_mut().enumerate().take(2 * b) {
                cs.cands.clear();
                cs.diag_end
                    .begin(strands[c / 2][c % 2].codes.len() + subject.len + 1);
            }
            lookup.scan_packed_batched(subject.packed, subject.len, survivors, |ctx, qp, sp| {
                let c = ctx as usize;
                let cs = &mut ctx_ws[c];
                nt_hit(
                    &strands[c / 2][c % 2],
                    &mut subject,
                    qp as usize,
                    sp as usize,
                    lookup.word,
                    STRANDS[c % 2],
                    params,
                    ungapped,
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
                let hsps = finalize(
                    cands,
                    kept,
                    gapped,
                    &strands[qi],
                    subject.bases(),
                    params,
                    &stats[qi],
                );
                if !hsps.is_empty() {
                    hits.push(Hit {
                        subject_id: String::new(),
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
    use parblast_seqdb::SeqType;
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
    fn fused_passes_is_one_per_chunk() {
        let b = MAX_FUSED_BATCH as u64;
        let got: Vec<u64> = [0, 1, b - 1, b, b + 1, 2 * b, 2 * b + 1]
            .into_iter()
            .map(fused_passes)
            .collect();
        assert_eq!(got, [0, 1, 1, 1, 2, 2, 3]);
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
        let hits = search_volume(&query, &v, &SearchParams::blastn(), db_stats(&v));
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
        let hits = search_volume(&query, &v, &SearchParams::blastn(), db_stats(&v));
        assert!(!hits.is_empty());
        let top = &hits[0].hsps[0];
        assert_eq!(top.q_frame, -1);
        assert_eq!(top.s_start, 1000);
        assert_eq!(top.s_end, 1300);
        assert_eq!((top.q_start, top.q_end), (0, 300));
    }

    /// A minus-strand match reports query coordinates on the forward
    /// query at every word size, the smallest included, in the kernel and
    /// in the reference alike.
    #[test]
    fn minus_strand_query_coordinates_map_back_at_every_word_size() {
        let mut rng = StdRng::seed_from_u64(21);
        let query = random_nt(&mut rng, 300);
        let mut subject = random_nt(&mut rng, 2000);
        subject.splice(700..700, reverse_complement(&query[20..200]));
        // Mismatch the bases either side of the planted piece, so that
        // no extension reaches past it.
        subject[699] = query[200];
        subject[880] = query[19];
        let v = nt_volume(&[("minus_part", subject)]);
        for word in [3, 4, 11] {
            let mut params = SearchParams::blastn();
            params.word_size = word;
            let kernel = crate::blastall(&query, &v, &params);
            let reference = search_blastn_baseline(&query, &v, &params, db_stats(&v));
            for hits in [kernel, reference] {
                let top = &hits[0].hsps[0];
                assert_eq!(top.q_frame, -1, "W={word}");
                assert_eq!((top.q_start, top.q_end), (20, 200), "W={word}");
                assert_eq!((top.s_start, top.s_end), (700, 880), "W={word}");
            }
        }
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
        let hits = search_volume(&query, &v, &SearchParams::blastn(), db_stats(&v));
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
        let hits = search_volume(&query, &v, &SearchParams::blastn(), db_stats(&v));
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
        let hits = search_volume(&query, &v, &p, db_stats(&v));
        assert!(hits.is_empty(), "false positives: {hits:?}");
    }

    #[test]
    fn evalues_scale_with_database_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let query = random_nt(&mut rng, 100);
        let mut subject = random_nt(&mut rng, 1000);
        subject.splice(100..100, query.iter().copied());
        let v = nt_volume(&[("t", subject)]);
        let small = search_volume(
            &query,
            &v,
            &SearchParams::blastn(),
            DbStats {
                residues: 10_000,
                nseq: 10,
            },
        );
        let large = search_volume(
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
        let hits = search_volume(&query, &v, &with_dust, db_stats(&v));
        assert_eq!(hits.len(), 1, "only the real signal: {hits:?}");
        assert_eq!(hits[0].subject_id, "signal");

        let mut no_dust = with_dust.clone();
        no_dust.dust = None;
        let hits = search_volume(&query, &v, &no_dust, db_stats(&v));
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
        let hits = search_volume(&region, &v, &SearchParams::blastn(), db_stats(&v));
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
        let hits = search_volume(&query, &v, &SearchParams::blastn(), db_stats(&v));
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
            let prepared = PreparedBatch::new(&batch, &params, fx.db);
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
        let found = PreparedBatch::new(&refs, &params, db)
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

    /// A subject is unpacked the first time a gapped extension or the
    /// report needs its bases, once a pass however many queries need them,
    /// and not at all when its seeds die in ungapped extension.
    #[test]
    fn only_a_subject_something_needs_is_unpacked() {
        let mut rng = StdRng::seed_from_u64(22);
        let query = random_nt(&mut rng, 300);
        // A 12-base word of the query between two mismatches: it seeds,
        // and its segment stays far below the gap trigger.
        let mut seeded = random_nt(&mut rng, 2000);
        seeded[500..512].copy_from_slice(&query[100..112]);
        seeded[499] = (query[99] + 1) % 4;
        seeded[512] = (query[112] + 1) % 4;
        let mut holds = random_nt(&mut rng, 2000);
        holds.splice(700..700, query.iter().copied());
        let v = nt_volume(&[("seeded", seeded), ("holds", holds)]);
        // Full-scale statistics, so that a 12-base segment reports nothing.
        let db = DbStats {
            residues: 2_700_000_000,
            nseq: 1_760_000,
        };
        let params = SearchParams::blastn();
        let mut ws = ScanWorkspace::new();
        let found = PreparedBatch::new(&[&query, &query], &params, db)
            .search(&PackedVolume::from_volume(&v), &mut ws);
        for hits in &found {
            let ids: Vec<&str> = hits.iter().map(|h| h.subject_id.as_str()).collect();
            assert_eq!(ids, ["holds"]);
        }
        assert_eq!(ws.unpacks(), 1, "only the subject the queries hit");
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
        let prepared = PreparedBatch::new(&refs, &params, fx.db);
        for packed in &fx.packed {
            prepared.search(packed, &mut ws);
        }
        let together = ws.unpacks() - before;
        assert!(together < alone, "batched {together} !< one by one {alone}");
    }
}
