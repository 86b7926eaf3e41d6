//! The reference blastn kernel: what [`crate::PreparedBatch`] must
//! reproduce hit for hit.
//!
//! This is the kernel as it stood before the packed-scan rewrite, frozen:
//! every subject arrives fully decoded (one byte per residue), each query
//! strand is scanned on its own by a byte-at-a-time scanner over a
//! full-CSR prefix-sum lookup (rebuilt with its two 16 MB sweeps for every
//! query context), diagonals are tracked in a per-subject `HashMap`, seeds
//! are extended one byte at a time ([`extend_ungapped`], which the
//! production kernel no longer calls), and every gapped extension runs the
//! five-row X-drop DP below on freshly allocated, reverse-copied rows. It
//! shares no lookup, scanner, tracker, extension kernel or workspace with
//! the production kernel, which is what makes it an oracle: the proptests
//! in `search.rs` and `tests/determinism.rs` compare the two on random
//! batches, `bench --bin engine` asserts identity on every rep, and the
//! golden digests in `tests/determinism.rs` were captured from it. Not for
//! production use. It does share the reporting stage's traceback and
//! [`align_stats`] (pinned against their own oracle in `gapped.rs`), but
//! always through the scalar row kernel ([`banded_global_scalar`]), never
//! the register one the production kernel dispatches to; and the
//! Karlin–Altschul statistics ([`crate::karlin`]), which the digests pin on
//! their own.

use std::collections::HashMap;

use parblast_seqdb::{reverse_complement, Volume};

use crate::dust::{dust_mask, word_masked};
use crate::extend::extend_ungapped;
use crate::gapped::{
    align_stats, banded_global_by, AlignOp, ExtensionResult, GappedWorkspace, RowKernel,
};
use crate::matrix::{GapPenalties, Scorer};
use crate::report::{Hit, Hsp};
use crate::search::{rank, Candidate, DbStats, Karlin, SearchParams, StatsCtx, STRANDS};

/// A dead DP cell.
const NEG: i32 = i32::MIN / 4;

/// [`crate::banded_global_with`] by its scalar row kernel whatever the
/// CPU: the reporting traceback the reference runs, and what `bench --bin
/// engine` times the dispatched kernel against.
pub fn banded_global_scalar<'w>(
    query: &[u8],
    subject: &[u8],
    scorer: &Scorer,
    gaps: GapPenalties,
    extra_band: usize,
    ws: &'w mut GappedWorkspace,
) -> (i32, &'w [AlignOp]) {
    banded_global_by(
        RowKernel::Scalar,
        query,
        subject,
        scorer,
        gaps,
        extra_band,
        ws,
    )
}

/// The reference lookup, frozen alongside the kernel: full-CSR
/// direct table built with a prefix-sum sweep over all 4^w cells (and a
/// 16 MB cursor clone) instead of the sparse sorted-pairs build, and no
/// presence bit vector in front of the `starts` probes.
struct BaselineNtLookup {
    word: usize,
    mask: u32,
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl BaselineNtLookup {
    fn build_masked(query: &[u8], word: usize, mask: &[(usize, usize)]) -> Self {
        assert!(word > 0 && word <= 12, "word size must be 1..=12");
        let cells = 1usize << (2 * word);
        let code_mask = (cells - 1) as u32;
        let mut counts = vec![0u32; cells + 1];
        let mut w = 0u32;
        for (i, &c) in query.iter().enumerate() {
            w = ((w << 2) | c as u32) & code_mask;
            if i + 1 >= word && !word_masked(mask, i + 1 - word, word) {
                counts[w as usize + 1] += 1;
            }
        }
        for i in 1..=cells {
            counts[i] += counts[i - 1];
        }
        let mut positions = vec![0u32; *counts.last().unwrap() as usize];
        let mut cursor = counts.clone();
        let mut w = 0u32;
        for (i, &c) in query.iter().enumerate() {
            w = ((w << 2) | c as u32) & code_mask;
            if i + 1 >= word && !word_masked(mask, i + 1 - word, word) {
                let qpos = (i + 1 - word) as u32;
                positions[cursor[w as usize] as usize] = qpos;
                cursor[w as usize] += 1;
            }
        }
        BaselineNtLookup {
            word,
            mask: code_mask,
            starts: counts,
            positions,
        }
    }

    #[inline]
    fn hits(&self, w: u32) -> &[u32] {
        let w = (w & self.mask) as usize;
        &self.positions[self.starts[w] as usize..self.starts[w + 1] as usize]
    }

    fn scan<F: FnMut(u32, u32)>(&self, subject: &[u8], mut f: F) {
        if subject.len() < self.word {
            return;
        }
        let mut w = 0u32;
        for (i, &c) in subject.iter().enumerate() {
            w = ((w << 2) | c as u32) & self.mask;
            if i + 1 >= self.word {
                let spos = (i + 1 - self.word) as u32;
                for &qpos in self.hits(w) {
                    f(qpos, spos);
                }
            }
        }
    }
}

/// Reference blastn for one query over a decoded volume. See the module
/// docs.
pub fn search_blastn_baseline(
    query: &[u8],
    volume: &Volume,
    params: &SearchParams,
    db: DbStats,
) -> Vec<Hit> {
    let st = Karlin::new(params).for_query(params, query.len(), db);
    let strands = [query.to_vec(), reverse_complement(query)];
    let lookups: Vec<BaselineNtLookup> = strands
        .iter()
        .map(|codes| {
            let mask = params.dust.map(|d| dust_mask(codes, d)).unwrap_or_default();
            BaselineNtLookup::build_masked(codes, params.word_size, &mask)
        })
        .collect();
    let mut hits = Vec::new();
    for (si, subject) in volume.sequences.iter().enumerate() {
        let mut cands = Vec::new();
        for ((codes, lk), strand) in strands.iter().zip(&lookups).zip(STRANDS) {
            scan_nt_context(lk, codes, &subject.codes, strand, params, &st, &mut cands);
        }
        let hsps = finalize(cands, &strands, &subject.codes, params, &st);
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

fn scan_nt_context(
    lookup: &BaselineNtLookup,
    query: &[u8],
    subject: &[u8],
    strand: i8,
    params: &SearchParams,
    st: &StatsCtx,
    out: &mut Vec<Candidate>,
) {
    let mut diag_end: HashMap<i64, usize> = HashMap::new();
    lookup.scan(subject, |qp, sp| {
        let (qp, sp) = (qp as usize, sp as usize);
        let diag = sp as i64 - qp as i64;
        if let Some(&end) = diag_end.get(&diag) {
            if sp < end {
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
        diag_end.insert(diag, hsp.s_end);
        push_candidate(hsp, query, subject, strand, params, st, out);
    });
}

#[allow(clippy::too_many_arguments)]
fn push_candidate(
    hsp: crate::extend::UngappedHsp,
    query: &[u8],
    subject: &[u8],
    strand: i8,
    params: &SearchParams,
    st: &StatsCtx,
    out: &mut Vec<Candidate>,
) {
    if params.gapped && hsp.score >= st.gap_trigger_raw {
        let mid = hsp.len() / 2;
        let (score, qr, sr) = extend_gapped(
            query,
            subject,
            hsp.q_start + mid,
            hsp.s_start + mid,
            &params.scorer,
            params.gaps,
            params.x_drop_gapped,
        );
        if score >= st.cutoff_raw {
            out.push(Candidate {
                score,
                q_range: qr,
                s_range: sr,
                strand,
                gapped: true,
            });
        }
    } else if hsp.score >= st.cutoff_raw {
        out.push(Candidate {
            score: hsp.score,
            q_range: hsp.q_start..hsp.q_end,
            s_range: hsp.s_start..hsp.s_end,
            strand,
            gapped: false,
        });
    }
}

/// One-directional X-drop gapped extension from the beginnings of `query`
/// and `subject`: the five-row DP `gapped::xdrop_extend_with` replaced,
/// kept verbatim (previous and current `H`/`F` rows, a current `E` row,
/// all `n + 1` long and allocated per call; a dead cell stores `NEG` in
/// all three). The oracle `gapped.rs` pins its kernel against.
#[allow(clippy::needless_range_loop)] // absolute-j indexing mirrors the DP recurrences
pub(crate) fn xdrop_extend(
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

/// Bidirectional gapped extension anchored at `(q0, s0)`, the anchor pair
/// scored by the right half: [`xdrop_extend`] rightward, then leftward
/// over reverse-copied prefixes. Returns `(score, q_range, s_range)`.
pub(crate) fn extend_gapped(
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

fn finalize(
    candidates: Vec<Candidate>,
    strands: &[Vec<u8>; 2],
    subject: &[u8],
    params: &SearchParams,
    st: &StatsCtx,
) -> Vec<Hsp> {
    let mut cands = candidates;
    cands.sort_by_key(|c| std::cmp::Reverse(c.score));
    let mut kept: Vec<Candidate> = Vec::new();
    'outer: for c in cands {
        for k in &kept {
            if k.strand == c.strand
                && c.q_range.start >= k.q_range.start
                && c.q_range.end <= k.q_range.end
                && c.s_range.start >= k.s_range.start
                && c.s_range.end <= k.s_range.end
            {
                continue 'outer;
            }
        }
        kept.push(c);
    }
    let mut out = Vec::with_capacity(kept.len());
    let mut gws = GappedWorkspace::new();
    for c in kept {
        let kp = if c.gapped { st.gapped } else { st.ungapped };
        let evalue = kp.evalue(c.score, st.space);
        if evalue > params.evalue {
            continue;
        }
        let query = &strands[usize::from(c.strand < 0)];
        let qslice = &query[c.q_range.clone()];
        let sslice = &subject[c.s_range.clone()];
        let (_, ops) =
            banded_global_scalar(qslice, sslice, &params.scorer, params.gaps, 16, &mut gws);
        let stats = align_stats(qslice, sslice, ops);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_volume, PreparedBatch, ScanWorkspace};
    use parblast_seqdb::blastdb::DbSequence;
    use parblast_seqdb::{
        extract_query, PackedVolume, SeqType, SyntheticConfig, SyntheticNt, VolumeWriter,
    };

    #[test]
    fn baseline_matches_the_kernel_on_decoded_and_packed_volumes() {
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 60_000,
            seed: 5,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let query = extract_query(&seqs[1].1, 400, 0.03, 5);
        // Round-trip through the on-disk format so the packed path is
        // exercised exactly as the runner sees it.
        let mut buf = std::io::Cursor::new(Vec::new());
        let mut w = VolumeWriter::new(&mut buf, SeqType::Nucleotide).unwrap();
        for (d, c) in &seqs {
            w.add_codes(d, c).unwrap();
        }
        w.finish().unwrap();
        let bytes = buf.into_inner();
        let volume = Volume {
            seq_type: SeqType::Nucleotide,
            sequences: seqs
                .into_iter()
                .map(|(defline, codes)| DbSequence { defline, codes })
                .collect(),
        };
        let packed = PackedVolume::read_from(&mut bytes.as_slice()).unwrap();
        let db = DbStats {
            residues: volume.residues(),
            nseq: volume.sequences.len() as u64,
        };
        let params = SearchParams::blastn();
        let base = search_blastn_baseline(&query, &volume, &params, db);
        let new = search_volume(&query, &volume, &params, db);
        let pk = PreparedBatch::new(&[&query], &params, db)
            .search(&packed, &mut ScanWorkspace::new())
            .remove(0);
        assert!(!base.is_empty(), "vacuous comparison");
        assert_eq!(format!("{base:?}"), format!("{new:?}"), "decoded path");
        assert_eq!(format!("{base:?}"), format!("{pk:?}"), "packed path");
        // `blastall` derives the same statistics from the volume itself.
        let all = crate::blastall(&query, &volume, &params);
        assert_eq!(format!("{base:?}"), format!("{all:?}"), "blastall");
    }
}
