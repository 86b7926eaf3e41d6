//! The reference blastn kernel: what [`crate::PreparedBatch`] must
//! reproduce hit for hit.
//!
//! This is the kernel as it stood before the packed-scan rewrite, frozen:
//! every subject arrives fully decoded (one byte per residue), each query
//! strand is scanned on its own by a byte-at-a-time scanner over a
//! full-CSR prefix-sum lookup (rebuilt with its two 16 MB sweeps for every
//! query context), diagonals are tracked in a per-subject `HashMap`, every
//! gapped extension allocates fresh DP rows, and `finalize` receives
//! per-subject clones of the subject codes. It shares no lookup, scanner,
//! tracker or workspace with the production kernel, which is what makes it
//! an oracle: the proptests in `search.rs` and `tests/determinism.rs`
//! compare the two on random batches, `bench --bin engine` asserts
//! identity on every rep, and the golden digests in `tests/determinism.rs`
//! were captured from it. Not for production use.

use std::collections::HashMap;

use parblast_seqdb::{reverse_complement, SeqType, Volume};

use crate::dust::{dust_mask, word_masked};
use crate::extend::extend_ungapped;
use crate::gapped::{align_stats, banded_global, extend_gapped};
use crate::report::{Hit, Hsp};
use crate::search::{rank, stats_ctx, Candidate, DbStats, QueryCtx, SearchParams, StatsCtx};

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
    assert_eq!(volume.seq_type, SeqType::Nucleotide, "blastn needs a nt db");
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
    let lookups: Vec<BaselineNtLookup> = ctxs
        .iter()
        .map(|c| {
            let mask = params
                .dust
                .map(|d| dust_mask(&c.codes, d))
                .unwrap_or_default();
            BaselineNtLookup::build_masked(&c.codes, params.word_size, &mask)
        })
        .collect();
    let mut hits = Vec::new();
    for (si, subject) in volume.sequences.iter().enumerate() {
        let mut cands = Vec::new();
        for (ctx, lk) in ctxs.iter().zip(&lookups) {
            let s_frame = ctx.frame;
            scan_nt_context(lk, ctx, &subject.codes, s_frame, params, &st, &mut cands);
        }
        let mut subject_ctxs = HashMap::new();
        subject_ctxs.insert(1i8, subject.codes.clone());
        subject_ctxs.insert(-1i8, subject.codes.clone());
        let hsps = finalize(cands, &ctxs, &subject_ctxs, params, &st);
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
    qctx: &QueryCtx,
    subject: &[u8],
    s_frame: i8,
    params: &SearchParams,
    st: &StatsCtx,
    out: &mut Vec<Candidate>,
) {
    let mut diag_end: HashMap<i64, usize> = HashMap::new();
    let query = &qctx.codes;
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
        push_candidate(hsp, query, subject, qctx.frame, s_frame, params, st, out);
    });
}

#[allow(clippy::too_many_arguments)]
fn push_candidate(
    hsp: crate::extend::UngappedHsp,
    query: &[u8],
    subject: &[u8],
    q_frame: i8,
    s_frame: i8,
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

fn finalize(
    candidates: Vec<Candidate>,
    query_ctxs: &[QueryCtx],
    subject_ctxs: &HashMap<i8, Vec<u8>>,
    params: &SearchParams,
    st: &StatsCtx,
) -> Vec<Hsp> {
    let mut cands = candidates;
    cands.sort_by_key(|c| std::cmp::Reverse(c.score));
    let mut kept: Vec<Candidate> = Vec::new();
    'outer: for c in cands {
        for k in &kept {
            if k.q_frame == c.q_frame
                && k.s_frame == c.s_frame
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
    for c in kept {
        let kp = if c.gapped { st.gapped } else { st.ungapped };
        let evalue = kp.evalue(c.score, st.space);
        if evalue > params.evalue {
            continue;
        }
        let qctx = query_ctxs
            .iter()
            .find(|q| q.frame == c.q_frame)
            .expect("query context");
        let subject = &subject_ctxs[&c.s_frame];
        let qslice = &qctx.codes[c.q_range.clone()];
        let sslice = &subject[c.s_range.clone()];
        let (_, ops) = banded_global(qslice, sslice, &params.scorer, params.gaps, 16);
        let stats = align_stats(qslice, sslice, &ops);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_volume, PreparedBatch, Program, ScanWorkspace};
    use parblast_seqdb::blastdb::DbSequence;
    use parblast_seqdb::{extract_query, PackedVolume, SyntheticConfig, SyntheticNt, VolumeWriter};

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
        let new = search_volume(Program::Blastn, &query, &volume, &params, db);
        let pk = PreparedBatch::new(Program::Blastn, &[&query], &params, db)
            .search(&packed, &mut ScanWorkspace::new())
            .remove(0);
        assert!(!base.is_empty(), "vacuous comparison");
        assert_eq!(format!("{base:?}"), format!("{new:?}"), "decoded path");
        assert_eq!(format!("{base:?}"), format!("{pk:?}"), "packed path");
        // `blastall` derives the same statistics from the volume itself.
        let all = crate::blastall(Program::Blastn, &query, &volume, &params);
        assert_eq!(format!("{base:?}"), format!("{all:?}"), "blastall");
    }
}
