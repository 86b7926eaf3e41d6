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
//!   cache bandwidth and not DRAM's).
//! * **fragment search** — the worker inner loop for a single-query job:
//!   read the volume bytes, search every query as a batch of one, report
//!   hits. Timed in interleaved pairs against the reference kernel
//!   (decode the whole volume, byte scanner, HashMap diagonals, allocating
//!   DP), identity asserted every rep. The kernel's byte rate is the
//!   provenance for `SERVE_SEARCH_RATE` in `parblast_core::experiments`.
//! * **batch scaling** — for B ∈ {1, 2, 4, 8} on a scan-bound, an
//!   extend-bound and a report-bound query mix, one fused pass over the
//!   fragment: seconds, query-bases searched per second, subject unpacks;
//!   every rep's hits asserted identical to the reference kernel's, query
//!   by query.
//! * **traceback** — [`banded_global_with`] alone, on the aligned ranges
//!   the report-bound mix reports: HSPs and band cells per second.
//!
//! Writes `BENCH_engine.json` (CI archives it). The legacy byte scanner,
//! the sequential per-query path and the six-matrix traceback these
//! numbers used to be set against are gone; their last committed
//! measurements are in EXPERIMENTS.md, "Retired paths".

use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, print_table};
use parblast_blast::baseline::search_blastn_baseline;
use parblast_blast::{
    banded_global_with, BatchedNtLookup, DbStats, GappedWorkspace, Hit, PreparedBatch,
    ScanWorkspace, SearchParams,
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

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Length of the planted family's members (the whole-path benchmark's).
const FAMILY_LEN: usize = 1500;

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
    // strands of every query of `pool`.
    let scan_row = |pool: &[Vec<u8>]| {
        let strands: Vec<Vec<u8>> = pool
            .iter()
            .flat_map(|q| [q.clone(), reverse_complement(q)])
            .collect();
        let contexts: Vec<&[u8]> = strands.iter().map(|c| c.as_slice()).collect();
        let lookup = BatchedNtLookup::build(&contexts, params.word_size);
        let scan = || {
            let mut n = 0u64;
            for i in 0..packed.nseq() {
                lookup.scan_packed_batched(packed.packed(i), packed.seq_len(i), |_, _, _| n += 1);
            }
            n
        };
        let seeds = scan();
        let scan_s = median(
            (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    assert_eq!(scan(), seeds, "unstable scan");
                    t0.elapsed().as_secs_f64()
                })
                .collect(),
        );
        (seeds, scan_s)
    };
    let (seeds, scan_s) = scan_row(&queries[..1]);

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
    let (seeds_b8, scan_b8_s) = scan_row(&scan_bound);
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
    let mut gws = GappedWorkspace::new();
    let mut trace = || {
        pairs
            .iter()
            .map(|(q, s)| banded_global_with(q, s, &params.scorer, params.gaps, 16, &mut gws).0)
            .sum::<i32>()
    };
    let checksum = trace();
    let trace_s = median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(
                    std::hint::black_box(trace()),
                    checksum,
                    "unstable traceback"
                );
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let (hsps_per_s, cells_per_s) = (pairs.len() as f64 / trace_s, cells as f64 / trace_s);

    let scan_rows = [(1, seeds, scan_s), (8, seeds_b8, scan_b8_s)];
    let searched_bases = total_bases as f64 * nqueries as f64;
    let base_bps = searched_bases / base_s;
    let kernel_bps = searched_bases / kernel_s;
    // Bytes/second figure used by the serving model: packed on-disk bytes
    // consumed per second of per-query search work.
    let kernel_bytes_per_s = bytes.len() as f64 * nqueries as f64 / kernel_s;

    print_table(
        &[
            "seed scan",
            "seeds",
            "time (s)",
            "Mbases/s",
            "Mwindows/s",
            "packed MB/s",
            "of a read pass",
        ],
        &scan_rows.map(|(b, seeds, s)| {
            vec![
                format!("packed, both strands, B={b}"),
                format!("{seeds}"),
                format!("{s:.4}"),
                format!("{:.1}", total_bases as f64 / s / 1e6),
                format!("{:.1}", windows as f64 / s / 1e6),
                format!("{:.1}", packed_bytes as f64 / s / 1e6),
                format!("{:.3}", stream_s / s),
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

    println!();
    print_table(
        &[
            "stage",
            "HSPs",
            "band cells",
            "time (s)",
            "HSPs/s",
            "Mcells/s",
        ],
        &[vec![
            "traceback".into(),
            format!("{}", pairs.len()),
            format!("{cells}"),
            format!("{trace_s:.5}"),
            format!("{hsps_per_s:.0}"),
            format!("{:.1}", cells_per_s / 1e6),
        ]],
    );

    let scan_json = scan_rows
        .map(|(b, seeds, s)| {
            format!(
                "{{\"batch\": {b}, \"seeds\": {seeds}, \"packed_s\": {s:.6}, \
                 \"packed_bases_per_s\": {:.0}, \"windows_per_s\": {:.0}, \
                 \"packed_bytes_per_s\": {:.0}, \"frac_of_mem\": {:.4}}}",
                total_bases as f64 / s,
                windows as f64 / s,
                packed_bytes as f64 / s,
                stream_s / s
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
         \"traceback\": {{\"hsps\": {}, \"band_cells\": {cells}, \"s\": {trace_s:.6}, \
         \"hsps_per_s\": {hsps_per_s:.0}, \"cells_per_s\": {cells_per_s:.0}}},\n  \
         \"batch_scaling\": {scaling_json}\n}}\n",
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
        pairs.len(),
    );
    std::fs::write(&out, &payload).expect("write BENCH_engine.json");
    println!(
        "\nwrote {out}\nexpected shape: the kernel searches fragments >= 2x faster than the \
         reference with identical hits, and query-bases/s grows with B on every mix"
    );
}
