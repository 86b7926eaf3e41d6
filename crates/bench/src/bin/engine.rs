//! Engine-throughput benchmark: the one blastn kernel
//! ([`PreparedBatch`]) on a synthetic `nt`-like volume, with the reference
//! kernel ([`search_blastn_baseline`]) as its hit-for-hit oracle.
//!
//! * **seed scan** — raw lookup-table scanning:
//!   [`BatchedNtLookup::scan_packed_batched`] over the 2-bit packed bytes
//!   with both strands of one query (B=1) and of eight (B=8), in bases,
//!   table windows and packed bytes per second, and as a fraction of what
//!   a pass that only reads the same packed bytes reaches in this process
//!   (the scan's roofline; the fragment is cache-resident, so that is
//!   cache bandwidth and not DRAM's). Each row names the kernel that runs
//!   the first two stages ([`scan_kernel`]) and is timed in interleaved
//!   reps against the scalar stages, with the same seeds asserted.
//! * **fragment search** — the worker inner loop for a single-query job:
//!   read the volume bytes, search every query as a batch of one, report
//!   hits. Timed in interleaved pairs against the reference kernel
//!   (decode the whole volume, byte scanner, HashMap diagonals, allocating
//!   DP), identity asserted every rep.
//! * **batch scaling** — for B ∈ {1, 2, 4, 8} on a scan-bound, an
//!   extend-bound and a report-bound query mix, one fused pass over the
//!   fragment: seconds, query-bases searched per second, subject unpacks;
//!   every rep's hits asserted identical to the reference kernel's, query
//!   by query.
//! * **B=8 split** — the scan-bound mix's eight queries as one B=8 pass,
//!   as its two B=4 halves and as eight B=1 passes on the same fragment:
//!   seconds and seeds per pass, interleaved reps, hits asserted identical
//!   every rep. The scaling rows take prefixes of a pool; this row holds
//!   the queries fixed.
//! * **extend stage** — one B=8 pass of the scan-bound mix taken apart:
//!   the `ungapped` row extends every seed the pass extends, by
//!   [`extend_ungapped_packed`] (the kernel's walk) and by
//!   [`extend_ungapped`] (the reference's) with identity asserted per
//!   seed; the `gapped_trigger` row runs every gapped extension the pass
//!   triggers, per DP row and per DP cell, and names the X-drop row kernel
//!   the CPU picked ([`xdrop_row_kernel`]) and how many extensions fell
//!   back from it. Each row is timed against whole
//!   passes of the same reps (its share of a pass), and every rep's pass
//!   is asserted identical to the reference kernel's.
//! * **traceback** — [`banded_global_with`] alone, on the aligned ranges
//!   the report-bound mix reports: HSPs and band cells per second, the row
//!   kernel it dispatched to ([`traceback_kernel`]) and how many
//!   tracebacks fell back to the scalar one, timed in interleaved reps
//!   against the scalar kernel ([`banded_global_scalar`]) with score and
//!   ops asserted identical every rep.
//! * **score statistics** — [`scorer_params`], the Karlin-Altschul solve
//!   a batch runs once, per solve (printed, not in the JSON).
//!
//! Writes `BENCH_engine.json` (CI archives it). The legacy byte scanner,
//! the sequential per-query path, the six-matrix traceback and the
//! H-carried X-drop cell loop these numbers used to be set against are
//! gone; their last committed measurements are in EXPERIMENTS.md,
//! "Retired paths".

use std::ops::Range;
use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, median, print_table};
use parblast_blast::baseline::{banded_global_scalar, search_blastn_baseline};
use parblast_blast::lookup::MaskedContext;
use parblast_blast::{
    banded_global_with, dust_mask, extend_gapped_with, extend_ungapped, extend_ungapped_packed,
    scan_kernel, scorer_params, traceback_kernel, xdrop_row_kernel, AlignOp, BatchedNtLookup,
    DbStats, DiagTracker, GappedWorkspace, Hit, PackedQuery, PreparedBatch, ScanWorkspace,
    SearchParams, SurvivorBlock, UngappedHsp, UngappedTable,
};
use parblast_seqdb::blastdb::DbSequence;
use parblast_seqdb::{
    extract_query, reverse_complement, PackedVolume, SeqType, SyntheticConfig, SyntheticNt, Volume,
    VolumeWriter,
};

/// Build the on-disk bytes of a synthetic nt-like volume.
fn synth_volume_bytes(residues: u64, seed: u64) -> Vec<u8> {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed,
        ..Default::default()
    });
    let mut buf = std::io::Cursor::new(Vec::new());
    let mut w = VolumeWriter::new(&mut buf, SeqType::Nucleotide).expect("writer");
    while let Some((defline, codes)) = g.next() {
        w.add_codes(&defline, &codes).expect("add");
    }
    w.finish().expect("finish");
    buf.into_inner()
}

/// Length of the planted family's members (the whole-path benchmark's).
const FAMILY_LEN: usize = 1500;

/// The seed table of both strands of every query of `pool`.
fn strand_lookup(pool: &[Vec<u8>], word: usize) -> BatchedNtLookup {
    let strands: Vec<Vec<u8>> = pool
        .iter()
        .flat_map(|q| [q.clone(), reverse_complement(q)])
        .collect();
    let contexts: Vec<&[u8]> = strands.iter().map(|c| c.as_slice()).collect();
    BatchedNtLookup::build(&contexts, word)
}

/// Seeds one scan of every subject of `packed` with `lookup` yields.
fn count_seeds(lookup: &BatchedNtLookup, packed: &PackedVolume, block: &mut SurvivorBlock) -> u64 {
    let mut n = 0u64;
    for i in 0..packed.nseq() {
        lookup.scan_packed_batched(packed.packed(i), packed.seq_len(i), block, |_, _, _| n += 1);
    }
    n
}

/// DP cells of a banded global alignment of `m` × `n` residues: rows
/// `1..=m`, each `|m − n| + extra_band` columns either side of the diagonal,
/// clipped to the matrix.
fn band_cells(m: usize, n: usize, extra_band: usize) -> u64 {
    let band = m.abs_diff(n) + extra_band;
    (1..=m)
        .map(|i| ((i + band).min(n) + 1 - i.saturating_sub(band)) as u64)
        .sum()
}

/// The reference kernel, one query at a time.
fn reference(queries: &[Vec<u8>], v: &Volume, params: &SearchParams, db: DbStats) -> Vec<Vec<Hit>> {
    queries
        .iter()
        .map(|q| search_blastn_baseline(q, v, params, db))
        .collect()
}

fn main() {
    let residues = arg_u64("--residues", 2_000_000);
    let nqueries = arg_u64("--queries", 4) as usize;
    let reps = arg_u64("--reps", 3) as usize;
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());

    let bytes = synth_volume_bytes(residues, 11);
    let packed = PackedVolume::read_from(&mut bytes.as_slice()).expect("packed volume");
    let volume = packed.to_volume();
    // The volume is one *fragment* of the paper's 2.7 GB / 1.76 M-sequence
    // nt database, so score statistics use the global database numbers —
    // exactly what mpiBLAST workers do so fragment E-values match an
    // unpartitioned run. (Local stats on a small synthetic volume would
    // set the raw-score cutoff unrealistically low and drown the scan in
    // random short matches no full-scale search would report.)
    let db = DbStats {
        residues: 2_700_000_000,
        nseq: 1_760_000,
    };
    let params = SearchParams::blastn();
    // Query mix mirroring a real nt search: one query lifted from the
    // database (so both kernels must report — and agree on — real hits)
    // and the rest from an independent synthetic stream, which mostly
    // miss. Scanning misses is where a 2.7 GB pass spends its time.
    let mut qgen = SyntheticNt::new(SyntheticConfig {
        total_residues: (nqueries as u64).max(1) * 8000,
        min_len: 600,
        seed: 999,
        ..Default::default()
    });
    let queries: Vec<Vec<u8>> = (0..nqueries)
        .map(|i| {
            let src = if i == 0 {
                volume.sequences[7 % volume.sequences.len()].codes.clone()
            } else {
                qgen.next().expect("query stream").1
            };
            extract_query(&src, 568.min(src.len()), 0.03, 40 + i as u64)
        })
        .collect();
    println!(
        "engine benchmark: {:.2} Mbase fragment, {} sequences, {} queries of ~568 nt, \
         median of {} reps (statistics at full-nt scale)\n",
        volume.residues() as f64 / 1e6,
        volume.sequences.len(),
        nqueries,
        reps
    );

    // --- seed-scan throughput -------------------------------------------
    let total_bases: u64 = (0..packed.nseq()).map(|i| packed.seq_len(i) as u64).sum();
    let packed_bytes: u64 = (0..packed.nseq())
        .map(|i| packed.packed(i).len() as u64)
        .sum();
    // At W=11 the scanner looks up the 8-mer at every fourth base.
    let windows: u64 = (0..packed.nseq())
        .map(|i| packed.seq_len(i) as u64)
        .filter(|&len| len >= params.word_size as u64)
        .map(|len| (len - 8) / 4 + 1)
        .sum();
    // The roofline: the same packed bytes, read and summed a word at a time.
    let stream_s = (0..reps.max(5))
        .map(|_| {
            let t0 = Instant::now();
            let sum = (0..packed.nseq())
                .flat_map(|i| std::hint::black_box(packed.packed(i)).chunks_exact(8))
                .fold(0u64, |sum, w| {
                    sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8 bytes")))
                });
            std::hint::black_box(sum);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    // Seeds and median seconds of one scan of the fragment with both
    // strands of every query of `pool`: by the stages this CPU dispatches
    // to, and by the scalar stages, timed in interleaved reps, with the
    // same seeds asserted every rep.
    let scan_row = |pool: &[Vec<u8>]| {
        let lookup = strand_lookup(pool, params.word_size);
        let scalar = strand_lookup(pool, params.word_size).scalar();
        let mut block = SurvivorBlock::default();
        let mut scan = |lookup: &BatchedNtLookup| count_seeds(lookup, &packed, &mut block);
        let seeds = scan(&lookup);
        assert_eq!(scan(&scalar), seeds, "the scan kernels disagree");
        let (mut times, mut scalar_times) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let t0 = Instant::now();
            assert_eq!(scan(&lookup), seeds, "unstable scan");
            times.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            assert_eq!(scan(&scalar), seeds, "unstable scalar scan");
            scalar_times.push(t0.elapsed().as_secs_f64());
        }
        (seeds, median(times), median(scalar_times))
    };
    let (seeds, scan_s, scalar_scan_s) = scan_row(&queries[..1]);

    // --- end-to-end fragment search -------------------------------------
    // The two kernels are timed in interleaved pairs (after one warmup
    // pair) so clock-frequency drift over the run cancels instead of
    // penalizing whichever kernel runs last.
    let mut ws = ScanWorkspace::new();
    let run_base = |bytes: &[u8]| {
        let v = Volume::read_from(&mut &bytes[..]).expect("volume");
        reference(&queries, &v, &params, db)
    };
    let run_kernel = |bytes: &[u8], ws: &mut ScanWorkspace| {
        let p = PackedVolume::read_from(&mut &bytes[..]).expect("packed volume");
        queries
            .iter()
            .map(|q| {
                PreparedBatch::new(&[q], &params, db)
                    .search(&p, ws)
                    .remove(0)
            })
            .collect::<Vec<_>>()
    };
    let base_hits = format!("{:?}", run_base(&bytes));
    assert_eq!(
        format!("{:?}", run_kernel(&bytes, &mut ws)),
        base_hits,
        "kernel disagrees with the reference"
    );
    let mut base_times = Vec::with_capacity(reps);
    let mut kernel_times = Vec::with_capacity(reps);
    let mut nhits = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let b = run_base(&bytes);
        base_times.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let k = run_kernel(&bytes, &mut ws);
        kernel_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(format!("{b:?}"), base_hits, "unstable reference");
        assert_eq!(format!("{k:?}"), base_hits, "unstable kernel");
        nhits = k.iter().map(Vec::len).sum();
    }
    let base_s = median(base_times);
    let kernel_s = median(kernel_times);

    // --- batch scaling ---------------------------------------------------
    // The kernel scans the packed volume once per
    // batch instead of once per query. Two mixes bracket the regimes:
    // scan-bound queries come from an independent stream (nearly every
    // subject misses, so the seed scan the batch shares dominates), while
    // extend-bound queries are all lifted from the same database sequence
    // (every query hits it, so extension work — which a batch cannot
    // share — dominates, and what it does share is the subject's unpack).
    let mut sgen = SyntheticNt::new(SyntheticConfig {
        total_residues: 64_000,
        min_len: 600,
        seed: 4242,
        ..Default::default()
    });
    let scan_bound: Vec<Vec<u8>> = (0..8u64)
        .map(|i| {
            let src = sgen.next().expect("scan-bound query stream").1;
            extract_query(&src, 568.min(src.len()), 0.03, 100 + i)
        })
        .collect();
    let (seeds_b8, scan_b8_s, scalar_scan_b8_s) = scan_row(&scan_bound);
    let hot = &volume.sequences[7 % volume.sequences.len()].codes;
    let extend_bound: Vec<Vec<u8>> = (0..8u64)
        .map(|i| extract_query(hot, 568.min(hot.len()), 0.02, 200 + i))
        .collect();
    // Report-bound queries are cut from the seed of a homolog family
    // planted in a small fragment of its own (60 members at 3–15%
    // divergence among as many decoys, the whole-path benchmark's
    // `serve_family` shape): every query reports ~60 full-length HSPs, so
    // the reporting traceback — one banded DP per HSP — dominates.
    let mut fgen = SyntheticNt::new(SyntheticConfig {
        total_residues: 61 * 16 * FAMILY_LEN as u64,
        seed: 1717,
        ..Default::default()
    });
    let mut family_seqs: Vec<Vec<u8>> = std::iter::from_fn(|| fgen.next())
        .filter(|(_, codes)| codes.len() >= FAMILY_LEN)
        .take(61)
        .map(|(_, mut codes)| {
            codes.truncate(FAMILY_LEN);
            codes
        })
        .collect();
    assert_eq!(family_seqs.len(), 61, "family fragment stream too short");
    let family = family_seqs.pop().expect("the family's seed sequence");
    for c in 0..60u64 {
        let divergence = 0.03 + 0.12 * c as f64 / 59.0;
        family_seqs.push(extract_query(&family, FAMILY_LEN, divergence, 300 + c));
    }
    let family_volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: family_seqs
            .into_iter()
            .enumerate()
            .map(|(i, codes)| DbSequence {
                defline: format!("fam{i} planted-family fragment"),
                codes,
            })
            .collect(),
    };
    let family_packed = PackedVolume::from_volume(&family_volume);
    let report_bound: Vec<Vec<u8>> = (0..8u64)
        .map(|i| extract_query(&family, 568, 0.02, 400 + i))
        .collect();
    let mut batch_rows: Vec<Vec<String>> = Vec::new();
    // Per mix, the batch size with the most query-bases/s.
    let mut peaks: Vec<(&str, usize, f64)> = Vec::new();
    let mut scaling_json = String::from("[");
    for (mix, pool, packed, volume) in [
        ("scan_bound", &scan_bound, &packed, &volume),
        ("extend_bound", &extend_bound, &packed, &volume),
        (
            "report_bound",
            &report_bound,
            &family_packed,
            &family_volume,
        ),
    ] {
        let total_bases = volume.residues();
        let want = reference(pool, volume, &params, db);
        let mut unpacks_at_1 = 0;
        for &b in &[1usize, 2, 4, 8] {
            let qs: Vec<&[u8]> = pool[..b].iter().map(|q| q.as_slice()).collect();
            let want = format!("{:?}", &want[..b]);
            let prepared = PreparedBatch::new(&qs, &params, db);
            let u0 = ws.unpacks();
            assert_eq!(
                format!("{:?}", prepared.search(packed, &mut ws)),
                want,
                "kernel must be hit-for-hit identical to the reference ({mix}, B={b})"
            );
            let unpacks = ws.unpacks() - u0;
            if b == 1 {
                unpacks_at_1 = unpacks;
            } else if mix == "extend_bound" {
                // One unpack per seeded subject and pass, however many
                // queries of the batch hit it.
                assert!(
                    unpacks < b as u64 * unpacks_at_1,
                    "{b} queries hitting one subject must share its unpack: \
                     {unpacks} vs {b} x {unpacks_at_1}"
                );
            }
            // Preparation (strands, masks, lookup) is inside the timed
            // region: a served batch pays it once per job.
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                let found = PreparedBatch::new(&qs, &params, db).search(packed, &mut ws);
                times.push(t0.elapsed().as_secs_f64());
                assert_eq!(format!("{found:?}"), want, "unstable kernel ({mix}, B={b})");
            }
            let fused_s = median(times);
            let bases_per_s = total_bases as f64 * b as f64 / fused_s;
            match peaks.last_mut() {
                Some(peak) if peak.0 == mix => {
                    if bases_per_s > peak.2 {
                        *peak = (mix, b, bases_per_s);
                    }
                }
                _ => peaks.push((mix, b, bases_per_s)),
            }
            batch_rows.push(vec![
                mix.into(),
                format!("{b}"),
                format!("{fused_s:.4}"),
                format!("{:.1}", bases_per_s / 1e6),
                format!("{unpacks}"),
            ]);
            if scaling_json.len() > 1 {
                scaling_json.push_str(", ");
            }
            scaling_json.push_str(&format!(
                "{{\"mix\": \"{mix}\", \"batch\": {b}, \"fused_s\": {fused_s:.6}, \
                 \"bases_per_s\": {bases_per_s:.0}, \"unpacks\": {unpacks}, \
                 \"identical_to_reference\": true}}"
            ));
        }
    }
    scaling_json.push(']');

    // --- one B=8 pass against its own halves and singles -----------------
    // The scaling rows take prefixes of each pool, so B=8 adds queries
    // 5-8 to B=4's and a rate that falls from B=4 to B=8 may be theirs,
    // not the batch's. Here the scan-bound mix's eight queries are
    // searched as one B=8 pass, as its two B=4 halves and as eight B=1
    // passes, in interleaved reps, with identical hits asserted every rep.
    let want = format!("{:?}", reference(&scan_bound, &volume, &params, db));
    let split_search = |b: usize, ws: &mut ScanWorkspace| -> Vec<Vec<Hit>> {
        scan_bound
            .chunks(b)
            .flat_map(|chunk| {
                let qs: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                PreparedBatch::new(&qs, &params, db).search(&packed, ws)
            })
            .collect()
    };
    let splits = [
        (8usize, "one B=8 pass"),
        (4, "two B=4 passes"),
        (1, "eight B=1 passes"),
    ];
    let mut split_times = vec![Vec::with_capacity(reps); splits.len()];
    for _ in 0..reps {
        for (times, &(b, _)) in split_times.iter_mut().zip(&splits) {
            let t0 = Instant::now();
            let found = split_search(b, &mut ws);
            times.push(t0.elapsed().as_secs_f64());
            assert_eq!(
                format!("{found:?}"),
                want,
                "split into B={b} changed the hits"
            );
        }
    }
    let mut block = SurvivorBlock::default();
    let split_seeds: Vec<Vec<u64>> = splits
        .iter()
        .map(|&(b, _)| {
            scan_bound
                .chunks(b)
                .map(|chunk| {
                    count_seeds(&strand_lookup(chunk, params.word_size), &packed, &mut block)
                })
                .collect()
        })
        .collect();
    let split_s: Vec<f64> = split_times.into_iter().map(median).collect();
    let split_rows: Vec<Vec<String>> = splits
        .iter()
        .zip(&split_s)
        .zip(&split_seeds)
        .map(|((&(_, name), &s), seeds)| {
            let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
            vec![
                name.into(),
                seeds.join(" + "),
                format!("{s:.4}"),
                format!("{:.2}", s / split_s[0]),
            ]
        })
        .collect();
    let split_json = splits
        .iter()
        .zip(&split_s)
        .zip(&split_seeds)
        .map(|((&(b, _), s), seeds)| {
            let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
            format!(
                "{{\"batch\": {b}, \"passes\": {}, \"seeds\": [{}], \"s\": {s:.6}}}",
                seeds.len(),
                seeds.join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join(", ");

    // --- the extend stage, kernel by kernel -----------------------------
    // One B=8 pass of the scan-bound mix taken apart the way
    // `PreparedBatch::search` runs it: every seed the diagonal check lets
    // through is extended ungapped — by the packed walk the kernel runs and
    // by the byte-wise walk the reference runs, on the same seeds — and
    // every segment that reaches the gap trigger is extended gapped from
    // its midpoint. Each rep times a whole pass too, so a row's share of a
    // pass comes from the same stretch of clock.
    let strands: Vec<Vec<u8>> = scan_bound
        .iter()
        .flat_map(|q| [q.clone(), reverse_complement(q)])
        .collect();
    let masks: Vec<Vec<(usize, usize)>> = strands
        .iter()
        .map(|c| params.dust.map(|d| dust_mask(c, d)).unwrap_or_default())
        .collect();
    let contexts: Vec<MaskedContext> = strands
        .iter()
        .zip(&masks)
        .map(|(c, m)| (c.as_slice(), m.as_slice()))
        .collect();
    let lookup = BatchedNtLookup::build_masked(&contexts, params.word_size);
    let mut block = SurvivorBlock::default();
    let (word, x_ungapped) = (params.word_size, params.x_drop_ungapped);
    // (context, subject, qp, sp) of every extended seed, and its segment.
    let mut extended: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut segments = Vec::new();
    let mut trackers: Vec<DiagTracker> = strands.iter().map(|_| DiagTracker::new()).collect();
    for (si, subject) in volume.sequences.iter().enumerate() {
        let subject = &subject.codes;
        for (t, q) in trackers.iter_mut().zip(&strands) {
            t.begin(q.len() + subject.len() + 1);
        }
        lookup.scan_packed_batched(
            packed.packed(si),
            packed.seq_len(si),
            &mut block,
            |c, qp, sp| {
                let (c, qp, sp) = (c as usize, qp as usize, sp as usize);
                let diag = sp + strands[c].len() - qp;
                if trackers[c].get(diag).is_some_and(|end| sp < end as usize) {
                    return;
                }
                let hsp = extend_ungapped(
                    &strands[c],
                    subject,
                    qp,
                    sp,
                    word,
                    &params.scorer,
                    x_ungapped,
                );
                trackers[c].set(diag, hsp.s_end as u32);
                extended.push((c, si, qp, sp));
                segments.push(hsp);
            },
        );
    }
    let packed_strands: Vec<PackedQuery> = strands.iter().map(|c| PackedQuery::new(c)).collect();
    let table = UngappedTable::new(&params.scorer);
    let ungapped_packed = || -> Vec<UngappedHsp> {
        extended
            .iter()
            .map(|&(c, si, qp, sp)| {
                let (bytes, slen) = (packed.packed(si), packed.seq_len(si));
                extend_ungapped_packed(
                    &packed_strands[c],
                    bytes,
                    slen,
                    qp,
                    sp,
                    word,
                    &table,
                    x_ungapped,
                )
            })
            .collect()
    };
    let ungapped_bytes = || -> Vec<UngappedHsp> {
        extended
            .iter()
            .map(|&(c, si, qp, sp)| {
                let subject = &volume.sequences[si].codes;
                extend_ungapped(
                    &strands[c],
                    subject,
                    qp,
                    sp,
                    word,
                    &params.scorer,
                    x_ungapped,
                )
            })
            .collect()
    };
    let gap_trigger = scorer_params(&params.scorer)
        .expect("blastn statistics")
        .raw_for_bits(params.gap_trigger_bits);
    let anchors: Vec<(usize, usize, usize, usize)> = extended
        .iter()
        .zip(&segments)
        .filter(|(_, h)| h.score >= gap_trigger)
        .map(|(&(c, si, _, _), h)| (c, si, h.q_start + h.len() / 2, h.s_start + h.len() / 2))
        .collect();
    let gapped = |gws: &mut GappedWorkspace| -> Vec<(i32, Range<usize>, Range<usize>)> {
        anchors
            .iter()
            .map(|&(c, si, q0, s0)| {
                let subject = &volume.sequences[si].codes;
                let (scorer, gaps, x) = (&params.scorer, params.gaps, params.x_drop_gapped);
                extend_gapped_with(&strands[c], subject, q0, s0, scorer, gaps, x, gws)
            })
            .collect()
    };
    let mut gws = GappedWorkspace::new();
    let want_gapped = gapped(&mut gws);
    let (dp_rows, dp_cells) = (gws.dp_rows(), gws.dp_cells());
    let (kernel, fallbacks) = (xdrop_row_kernel(), gws.dp_fallbacks());
    let pass_want = format!("{:?}", reference(&scan_bound, &volume, &params, db));
    let pass_queries: Vec<&[u8]> = scan_bound.iter().map(Vec::as_slice).collect();
    let (mut pass_t, mut packed_t, mut bytes_t, mut gapped_t) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    for _ in 0..reps {
        let mut found = String::new();
        pass_t.push(time(&mut || {
            let hits = PreparedBatch::new(&pass_queries, &params, db).search(&packed, &mut ws);
            found = format!("{hits:?}");
        }));
        assert_eq!(
            found, pass_want,
            "kernel must equal the reference (scan_bound, B=8)"
        );
        let mut got = Vec::new();
        packed_t.push(time(&mut || got = std::hint::black_box(ungapped_packed())));
        assert!(
            got == segments,
            "the packed walk must equal the byte-wise walk"
        );
        bytes_t.push(time(&mut || got = std::hint::black_box(ungapped_bytes())));
        assert!(got == segments, "unstable byte-wise walk");
        let mut got = Vec::new();
        gapped_t.push(time(&mut || got = gapped(&mut gws)));
        assert!(got == want_gapped, "unstable gapped extension");
    }
    let (pass_s, packed_s, bytes_s, gapped_s) = (
        median(pass_t),
        median(packed_t),
        median(bytes_t),
        median(gapped_t),
    );
    let ext_row = |stage: &str, n: usize, s: f64, cells: Option<(u64, u64)>| {
        let (rows, per_row, cells, per_cell) = match cells {
            Some((rows, cells)) => (
                format!("{rows}"),
                format!("{:.1}", s * 1e9 / rows as f64),
                format!("{cells}"),
                format!("{:.2}", s * 1e9 / cells as f64),
            ),
            None => Default::default(),
        };
        vec![
            stage.into(),
            format!("{n}"),
            format!("{s:.5}"),
            format!("{:.2}", n as f64 / s / 1e6),
            format!("{:.0}", s * 1e9 / n as f64),
            rows,
            cells,
            per_row,
            per_cell,
            format!("{:.3}", s / pass_s),
        ]
    };
    let extend_rows = vec![
        ext_row("ungapped, packed (kernel)", extended.len(), packed_s, None),
        ext_row("ungapped, byte-wise (ref)", extended.len(), bytes_s, None),
        ext_row(
            &format!("gapped_trigger (X-drop, {kernel}, {fallbacks} fallbacks)"),
            anchors.len(),
            gapped_s,
            Some((dp_rows, dp_cells)),
        ),
    ];
    let extend_json = format!(
        "{{\"mix\": \"scan_bound\", \"batch\": 8, \"pass_s\": {pass_s:.6}, \
         \"ungapped\": {{\"extensions\": {}, \"packed_s\": {packed_s:.6}, \
         \"byte_wise_s\": {bytes_s:.6}, \"packed_per_s\": {:.0}, \"byte_wise_per_s\": {:.0}, \
         \"speedup\": {:.3}, \"share_of_pass\": {:.4}, \"identical_to_byte_wise\": true}}, \
         \"gapped_trigger\": {{\"extensions\": {}, \"dp_rows\": {dp_rows}, \
         \"dp_cells\": {dp_cells}, \"kernel\": \"{kernel}\", \"fallbacks\": {fallbacks}, \
         \"s\": {gapped_s:.6}, \"per_s\": {:.0}, \
         \"ns_per_row\": {:.2}, \"ns_per_cell\": {:.3}, \"share_of_pass\": {:.4}}}, \
         \"identical_to_reference\": true}}",
        extended.len(),
        extended.len() as f64 / packed_s,
        extended.len() as f64 / bytes_s,
        bytes_s / packed_s,
        packed_s / pass_s,
        anchors.len(),
        anchors.len() as f64 / gapped_s,
        gapped_s * 1e9 / dp_rows as f64,
        gapped_s * 1e9 / dp_cells as f64,
        gapped_s / pass_s,
    );

    // --- traceback alone ------------------------------------------------
    // What `finalize` hands the traceback kernel on the report-bound mix:
    // the aligned query and subject ranges of every plus-strand HSP.
    let pairs: Vec<(&[u8], &[u8])> = reference(&report_bound, &family_volume, &params, db)
        .iter()
        .zip(&report_bound)
        .flat_map(|(hits, q)| {
            let subjects = &family_volume.sequences;
            hits.iter().flat_map(move |hit| {
                let subject = &subjects[hit.subject_index].codes;
                hit.hsps
                    .iter()
                    .filter(|h| h.q_frame == 1)
                    .map(move |h| (&q[h.q_start..h.q_end], &subject[h.s_start..h.s_end]))
            })
        })
        .collect();
    let cells: u64 = pairs
        .iter()
        .map(|(q, s)| band_cells(q.len(), s.len(), 16))
        .sum();
    let want_trace: Vec<(i32, Vec<AlignOp>)> = {
        let mut gws = GappedWorkspace::new();
        pairs
            .iter()
            .map(|(q, s)| {
                let (score, ops) =
                    banded_global_scalar(q, s, &params.scorer, params.gaps, 16, &mut gws);
                (score, ops.to_vec())
            })
            .collect()
    };
    // Every traceback of one pass by the dispatched kernel (or, with
    // `scalar`, by the scalar one), each asserted equal to the scalar
    // kernel's first answer.
    let trace = |scalar: bool, gws: &mut GappedWorkspace| {
        let t0 = Instant::now();
        for ((q, s), want) in pairs.iter().zip(&want_trace) {
            let (score, ops) = if scalar {
                banded_global_scalar(q, s, &params.scorer, params.gaps, 16, gws)
            } else {
                banded_global_with(q, s, &params.scorer, params.gaps, 16, gws)
            };
            assert!(
                score == want.0 && ops == want.1,
                "the traceback kernels must agree"
            );
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut gws, mut scalar_ws) = (GappedWorkspace::new(), GappedWorkspace::new());
    trace(false, &mut gws);
    let trace_fallbacks = gws.traceback_fallbacks();
    let (mut trace_t, mut scalar_trace_t) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        trace_t.push(trace(false, &mut gws));
        scalar_trace_t.push(trace(true, &mut scalar_ws));
    }
    let (trace_s, scalar_trace_s) = (median(trace_t), median(scalar_trace_t));
    let (hsps_per_s, cells_per_s) = (pairs.len() as f64 / trace_s, cells as f64 / trace_s);
    let (ns_per_cell, scalar_ns_per_cell) = (
        trace_s * 1e9 / cells as f64,
        scalar_trace_s * 1e9 / cells as f64,
    );

    // --- score statistics -----------------------------------------------
    // The Karlin-Altschul solve (lambda, K, H of the blastn scorer) that a
    // batch runs once, timed over KARLIN_SOLVES solves per rep.
    const KARLIN_SOLVES: usize = 1000;
    let karlin = scorer_params(&params.scorer).expect("blastn statistics");
    let karlin_s = median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..KARLIN_SOLVES {
                    let p = scorer_params(std::hint::black_box(&params.scorer));
                    assert_eq!(p.as_ref(), Some(&karlin), "unstable Karlin solve");
                }
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    );

    let scan_rows = [
        (1, seeds, scan_s, scalar_scan_s),
        (8, seeds_b8, scan_b8_s, scalar_scan_b8_s),
    ];
    let searched_bases = total_bases as f64 * nqueries as f64;
    let base_bps = searched_bases / base_s;
    let kernel_bps = searched_bases / kernel_s;
    // Bytes/second figure used by the serving model: packed on-disk bytes
    // consumed per second of per-query search work.
    let kernel_bytes_per_s = bytes.len() as f64 * nqueries as f64 / kernel_s;

    print_table(
        &[
            "seed scan",
            "kernel",
            "seeds",
            "time (s)",
            "Mbases/s",
            "Mwindows/s",
            "packed MB/s",
            "of a read pass",
            "scalar Mbases/s",
            "vs scalar",
        ],
        &scan_rows.map(|(b, seeds, s, scalar_s)| {
            vec![
                format!("packed, both strands, B={b}"),
                scan_kernel().into(),
                format!("{seeds}"),
                format!("{s:.4}"),
                format!("{:.1}", total_bases as f64 / s / 1e6),
                format!("{:.1}", windows as f64 / s / 1e6),
                format!("{:.1}", packed_bytes as f64 / s / 1e6),
                format!("{:.3}", stream_s / s),
                format!("{:.1}", total_bases as f64 / scalar_s / 1e6),
                format!("{:.2}x", scalar_s / s),
            ]
        }),
    );
    println!(
        "(a read pass over the {:.2} MB of packed bytes: {:.0} MB/s)\n",
        packed_bytes as f64 / 1e6,
        packed_bytes as f64 / stream_s / 1e6
    );
    print_table(
        &["stage", "kernel", "time (s)", "Mbases/s", "speedup"],
        &[
            vec![
                "fragment search".into(),
                "reference".into(),
                format!("{base_s:.4}"),
                format!("{:.1}", base_bps / 1e6),
                "1.00x".into(),
            ],
            vec![
                "fragment search".into(),
                "kernel, B=1".into(),
                format!("{kernel_s:.4}"),
                format!("{:.1}", kernel_bps / 1e6),
                format!("{:.2}x", kernel_bps / base_bps),
            ],
        ],
    );

    println!();
    print_table(
        &["mix", "B", "fused (s)", "query-Mbases/s", "unpacks"],
        &batch_rows,
    );

    println!("\nthe scan-bound mix's eight queries, split three ways on the same fragment\n");
    print_table(
        &["split", "seeds per pass", "time (s)", "vs one B=8 pass"],
        &split_rows,
    );

    println!(
        "\nextend stage, scan-bound mix at B=8 (a whole pass: {:.4} s, {} seeds extended)\n",
        pass_s,
        extended.len()
    );
    print_table(
        &[
            "stage",
            "extensions",
            "time (s)",
            "M ext/s",
            "ns/ext",
            "DP rows",
            "DP cells",
            "ns/row",
            "ns/cell",
            "of a pass",
        ],
        &extend_rows,
    );

    println!();
    let trace_row = |kernel: &str, s: f64| {
        vec![
            kernel.into(),
            format!("{}", pairs.len()),
            format!("{cells}"),
            format!("{s:.5}"),
            format!("{:.0}", pairs.len() as f64 / s),
            format!("{:.1}", cells as f64 / s / 1e6),
            format!("{:.2}", s * 1e9 / cells as f64),
        ]
    };
    print_table(
        &[
            "traceback",
            "HSPs",
            "band cells",
            "time (s)",
            "HSPs/s",
            "Mcells/s",
            "ns/cell",
        ],
        &[
            trace_row(
                &format!("{} ({trace_fallbacks} fallbacks)", traceback_kernel()),
                trace_s,
            ),
            trace_row("scalar", scalar_trace_s),
        ],
    );
    println!(
        "(the dispatched kernel {:.2}x the scalar one, ops identical every rep)",
        scalar_trace_s / trace_s
    );

    println!();
    print_table(
        &["stage", "solves", "time (s)", "us/solve"],
        &[vec![
            "Karlin-Altschul solve".into(),
            format!("{KARLIN_SOLVES}"),
            format!("{karlin_s:.5}"),
            format!("{:.2}", karlin_s / KARLIN_SOLVES as f64 * 1e6),
        ]],
    );

    let scan_json = scan_rows
        .map(|(b, seeds, s, scalar_s)| {
            format!(
                "{{\"batch\": {b}, \"kernel\": \"{}\", \"seeds\": {seeds}, \
                 \"packed_s\": {s:.6}, \
                 \"packed_bases_per_s\": {:.0}, \"windows_per_s\": {:.0}, \
                 \"packed_bytes_per_s\": {:.0}, \"frac_of_mem\": {:.4}, \
                 \"scalar_s\": {scalar_s:.6}, \"scalar_bases_per_s\": {:.0}, \
                 \"speedup_vs_scalar\": {:.3}}}",
                scan_kernel(),
                total_bases as f64 / s,
                windows as f64 / s,
                packed_bytes as f64 / s,
                stream_s / s,
                total_bases as f64 / scalar_s,
                scalar_s / s
            )
        })
        .join(", ");
    let payload = format!(
        "{{\n  \"experiment\": \"engine\",\n  \"residues\": {},\n  \"nseq\": {},\n  \
         \"stats_residues\": {},\n  \"stats_nseq\": {},\n  \
         \"queries\": {},\n  \"reps\": {},\n  \"seeds\": {},\n  \"hits\": {},\n  \
         \"identical_hits\": true,\n  \
         \"stream_read_bytes_per_s\": {:.0},\n  \"scan\": [{scan_json}],\n  \
         \"fragment_search\": {{\"baseline_s\": {:.6}, \"packed_s\": {:.6}, \
         \"baseline_bases_per_s\": {:.0}, \"packed_bases_per_s\": {:.0}, \
         \"packed_bytes_per_s\": {:.0}, \"speedup\": {:.3}}},\n  \
         \"traceback\": {{\"kernel\": \"{}\", \"fallbacks\": {trace_fallbacks}, \"hsps\": {}, \
         \"band_cells\": {cells}, \"s\": {trace_s:.6}, \"hsps_per_s\": {hsps_per_s:.0}, \
         \"cells_per_s\": {cells_per_s:.0}, \"ns_per_cell\": {ns_per_cell:.3}, \
         \"scalar_s\": {scalar_trace_s:.6}, \"scalar_ns_per_cell\": {scalar_ns_per_cell:.3}, \
         \"speedup_vs_scalar\": {:.3}, \"identical_to_scalar\": true}},\n  \
         \"extend_stage\": {extend_json},\n  \
         \"batch_scaling\": {scaling_json},\n  \
         \"b8_split\": [{split_json}]\n}}\n",
        volume.residues(),
        volume.sequences.len(),
        db.residues,
        db.nseq,
        nqueries,
        reps,
        seeds,
        nhits,
        packed_bytes as f64 / stream_s,
        base_s,
        kernel_s,
        base_bps,
        kernel_bps,
        kernel_bytes_per_s,
        kernel_bps / base_bps,
        traceback_kernel(),
        pairs.len(),
        scalar_trace_s / trace_s,
    );
    std::fs::write(&out, &payload).expect("write BENCH_engine.json");
    let peaks: Vec<String> = peaks
        .iter()
        .map(|(mix, b, bps)| format!("B={b} on {mix} ({:.1} Mbases/s)", bps / 1e6))
        .collect();
    println!(
        "\nwrote {out}\nexpected shape: the kernel searches fragments >= 2x faster than the \
         reference with identical hits\nmeasured: query-bases/s peaks at {}",
        peaks.join(", ")
    );
}
