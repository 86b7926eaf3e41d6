//! Determinism audit: the simulator with a fault schedule is a pure
//! function of (configuration, seed). Two runs with the same seed must
//! produce byte-identical event-delivery traces — fault injection included
//! — and different seeds must actually change the schedule. The serving
//! layer inherits both obligations: scan-sharing batches must return
//! byte-identical results to sequential per-query serving, and a serving
//! sweep must be a pure function of its configuration.

use parblast::hwsim::FaultSchedule;
use parblast::mpiblast::{run_simblast, SimBlastConfig, SimScheme};
use parblast::simcore::SimTime;

const SEEDS: [u64; 3] = [42, 1003, 77];

fn faulted(seed: u64) -> SimBlastConfig {
    SimBlastConfig {
        nodes: 5,
        workers: 4,
        fragments: 4,
        db_bytes: 64 << 20,
        scheme: SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        },
        master_node: 4,
        warmup_s: 1.0,
        horizon_s: 400.0,
        seed,
        capture_trace: true,
        faults: FaultSchedule::new()
            .crash_server(SimTime::from_secs_f64(3.0), 1)
            .revive_server(SimTime::from_secs_f64(10.0), 1)
            .stall_disk(SimTime::from_secs_f64(2.0), 0, SimTime::from_millis(200)),
        ..Default::default()
    }
}

#[test]
fn same_seed_and_schedule_give_identical_traces() {
    for seed in SEEDS {
        let a = run_simblast(&faulted(seed));
        let b = run_simblast(&faulted(seed));
        assert!(a.completed, "seed {seed}: CEFT must survive the schedule");
        assert!(
            !a.trace.is_empty(),
            "seed {seed}: trace capture produced nothing"
        );
        // Byte-identical: compare the rendered traces, not just counts.
        assert_eq!(
            format!("{:?}", a.trace),
            format!("{:?}", b.trace),
            "seed {seed}: two runs diverged"
        );
        assert_eq!(a.makespan_s, b.makespan_s, "seed {seed}");
        assert_eq!(a.retries, b.retries, "seed {seed}");
        assert_eq!(a.failovers, b.failovers, "seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_traces() {
    let traces: Vec<String> = SEEDS
        .iter()
        .map(|&s| format!("{:?}", run_simblast(&faulted(s)).trace))
        .collect();
    assert_ne!(traces[0], traces[1]);
    assert_ne!(traces[1], traces[2]);
    assert_ne!(traces[0], traces[2]);
}

#[test]
fn trace_capture_does_not_change_the_outcome() {
    let with = faulted(42);
    let mut without = faulted(42);
    without.capture_trace = false;
    let a = run_simblast(&with);
    let b = run_simblast(&without);
    assert!(b.trace.is_empty());
    assert_eq!(a.makespan_s, b.makespan_s);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.failovers, b.failovers);
}

/// FNV-1a over one simulated run: the rendered event-delivery trace plus the
/// makespan bits and every client and server counter the experiments report.
fn sim_digest(out: &parblast::mpiblast::SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(format!("{:?}", out.trace).as_bytes());
    for x in [
        out.makespan_s.to_bits(),
        out.retries,
        out.failovers,
        out.repaired_stripes,
        out.skipped_parts,
        out.server_reads,
        out.server_list_reads,
        out.server_list_regions,
    ] {
        eat(&x.to_le_bytes());
    }
    h
}

/// Golden pin for the simulated storage clients: every client path the
/// experiments drive — fan-out, part and list timeouts with backoff, open
/// retries, failover, tail resend, read-repair, skip redirects, read-ahead,
/// the primary-only ablation and the server-side write protocols — must
/// replay event for event. Each digest covers the full delivery trace, so
/// reordering two sends anywhere in a client changes it.
#[test]
fn sim_traces_are_pinned_across_client_changes() {
    use parblast::ceft::{ReadMode, WriteProtocol};
    use parblast::mpiblast::FRAG_FILE_BASE;

    let s = SimTime::from_secs_f64;
    let pvfs = || SimScheme::Pvfs {
        servers: vec![0, 1, 2, 3],
    };
    let ceft = || SimScheme::Ceft {
        primary: vec![0, 1],
        mirror: vec![2, 3],
    };
    let base = |scheme: SimScheme, list_io: bool| SimBlastConfig {
        nodes: 5,
        workers: 4,
        fragments: 4,
        db_bytes: 64 << 20,
        scheme,
        master_node: 4,
        warmup_s: 1.0,
        horizon_s: 400.0,
        list_io,
        // 128 KiB chunks make each per-server list longer than one
        // LIST_REGION_CAP batch, so a fault can land between batches.
        chunk: if list_io { 128 << 10 } else { 8 << 20 },
        capture_trace: true,
        ..Default::default()
    };
    let mut cases: Vec<(String, SimBlastConfig)> = Vec::new();
    for (name, scheme) in [("pvfs", pvfs()), ("ceft", ceft())] {
        for list_io in [false, true] {
            let tag = |case: &str| format!("{name}/list={list_io}/{case}");
            cases.push((tag("clean"), base(scheme.clone(), list_io)));
            let mut crash = base(scheme.clone(), list_io);
            crash.faults = FaultSchedule::new().crash_server(s(1.5), 1);
            if name == "ceft" {
                crash.faults = crash.faults.revive_server(s(6.0), 1);
            }
            cases.push((tag("crash"), crash));
            let mut corrupt = base(scheme.clone(), list_io);
            corrupt.faults = FaultSchedule::new().corrupt_stripe(s(0.5), 0, FRAG_FILE_BASE, 0);
            cases.push((tag("corrupt"), corrupt));
            if name == "ceft" {
                // The mirror copy (server 2 is primary 0's partner) is bad
                // too: the failed-over read mismatches again and fails.
                let mut both = base(scheme.clone(), list_io);
                both.faults = FaultSchedule::new()
                    .corrupt_stripe(s(0.5), 0, FRAG_FILE_BASE, 0)
                    .corrupt_stripe(s(0.5), 2, FRAG_FILE_BASE, 0);
                cases.push((tag("corrupt_both"), both));
            }
            // Replies from data-server node 1 arrive 11 s late: past the
            // default 10 s timeout, so parts and lists time out and the late
            // originals become duplicates.
            let mut slow = base(scheme.clone(), list_io);
            slow.faults =
                FaultSchedule::new().delay_messages(s(1.2), Some(1), None, s(11.0), s(1.6));
            cases.push((tag("slow_server"), slow));
        }
        // Opens reach the metadata node 11 s late: the open times out and
        // is re-sent.
        let mut slow_meta = base(scheme.clone(), false);
        slow_meta.faults =
            FaultSchedule::new().delay_messages(s(0.9), None, Some(4), s(11.0), s(1.1));
        cases.push((format!("{name}/slow_meta"), slow_meta));
        let mut ahead = base(scheme.clone(), false);
        ahead.read_ahead = 2;
        cases.push((format!("{name}/read_ahead"), ahead));
    }
    for list_io in [false, true] {
        let mut hot = base(ceft(), list_io);
        hot.stress_nodes = vec![1];
        hot.warmup_s = 3.0;
        hot.ceft.heartbeat = SimTime::from_secs(1);
        cases.push((format!("ceft/list={list_io}/stressed"), hot));
        let mut primary = base(ceft(), list_io);
        primary.ceft.read_mode = ReadMode::PrimaryOnly;
        cases.push((format!("ceft/list={list_io}/primary_only"), primary));
    }
    for protocol in [WriteProtocol::ServerSync, WriteProtocol::ServerAsync] {
        let mut w = base(ceft(), false);
        w.ceft.write_protocol = protocol;
        w.result_writes = 8;
        cases.push((format!("ceft/{protocol:?}"), w));
    }

    // Computed before the PVFS and CEFT-PVFS clients became one engine.
    const GOLDEN: [(&str, u64); 28] = [
        ("pvfs/list=false/clean", 0x71cfe31f46bcc4a4),
        ("pvfs/list=false/crash", 0x467f1ff232d1e1c2),
        ("pvfs/list=false/corrupt", 0x819c0c8e134b5128),
        ("pvfs/list=false/slow_server", 0xf045fa9c1820b8b8),
        ("pvfs/list=true/clean", 0x456d422d25188bf1),
        ("pvfs/list=true/crash", 0xc39a4139590d83ea),
        ("pvfs/list=true/corrupt", 0xac0cef49e2355722),
        ("pvfs/list=true/slow_server", 0xf5bb3f2187315260),
        ("pvfs/slow_meta", 0xf1f3f76a82838b84),
        ("pvfs/read_ahead", 0x7e8d793a548ad1d4),
        ("ceft/list=false/clean", 0x922e67231789368d),
        ("ceft/list=false/crash", 0xb0b5649c4badc3d8),
        ("ceft/list=false/corrupt", 0x2163de079b7e3f19),
        ("ceft/list=false/corrupt_both", 0xb7bce1654b1c0095),
        ("ceft/list=false/slow_server", 0xb352025a86388d14),
        ("ceft/list=true/clean", 0xb1d2d3f3fd437542),
        ("ceft/list=true/crash", 0x68b6506684085d2a),
        ("ceft/list=true/corrupt", 0x9028915d81956d0c),
        ("ceft/list=true/corrupt_both", 0xaf003223eed99e0f),
        ("ceft/list=true/slow_server", 0xaf57e2ca0035a0b5),
        ("ceft/slow_meta", 0x573a4071477d10c2),
        ("ceft/read_ahead", 0x9817e1d9bea11c5b),
        ("ceft/list=false/stressed", 0x785de9defa113293),
        ("ceft/list=false/primary_only", 0x88b8125035c902b3),
        ("ceft/list=true/stressed", 0x3cf56a09846e273d),
        ("ceft/list=true/primary_only", 0x1dae4b769e3ab2c0),
        ("ceft/ServerSync", 0xe1c4f2b188868192),
        ("ceft/ServerAsync", 0x08c7ea5997e7dd06),
    ];
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, cfg), (want_name, want)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        let digest = sim_digest(&run_simblast(cfg));
        assert_eq!(
            digest, want,
            "{name}: the simulated run changed (digest 0x{digest:016x})"
        );
    }
}

/// Render a blastn `search_volume` outcome to a digest that pins every
/// reported field: subject order, HSP order, raw/bit scores, E-values,
/// coordinates on both strands, and alignment statistics. Uses FNV-1a over
/// the full `Debug` rendering so any hit-for-hit deviation changes the
/// digest.
fn blastn_digest(seed: u64, gapped: bool) -> String {
    use parblast::blast::{search_volume, DbStats, SearchParams};
    use parblast::seqdb::blastdb::DbSequence;
    use parblast::seqdb::{
        extract_query, reverse_complement, SeqType, SyntheticConfig, SyntheticNt, Volume,
    };

    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: 120_000,
        seed,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    // A mutated query cut from the database (forward-strand alignments with
    // mismatches and indels) ...
    let query = extract_query(&seqs[1].1, 500, 0.03, seed);
    // ... plus one subject carrying the reverse complement of the query so
    // minus-strand reporting is pinned too.
    let mut minus = seqs[2].1[..200.min(seqs[2].1.len())].to_vec();
    minus.extend(reverse_complement(&query));
    minus.extend_from_slice(&seqs[3].1[..150.min(seqs[3].1.len())]);
    seqs.push(("minus_planted reverse-strand target".to_string(), minus));

    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: seqs
            .into_iter()
            .map(|(defline, codes)| DbSequence { defline, codes })
            .collect(),
    };
    let db = DbStats {
        residues: volume.residues(),
        nseq: volume.sequences.len() as u64,
    };
    let mut params = SearchParams::blastn();
    params.gapped = gapped;
    let hits = search_volume(&query, &volume, &params, db);
    // Both strands must actually be exercised for the pin to mean anything.
    let frames: std::collections::BTreeSet<i8> = hits
        .iter()
        .flat_map(|h| h.hsps.iter().map(|s| s.q_frame))
        .collect();
    assert!(
        frames.contains(&1) && frames.contains(&-1),
        "seed {seed}: digest must cover both strands, got {frames:?}"
    );
    let rendered = format!("{hits:?}");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in rendered.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let nhsps: usize = hits.iter().map(|x| x.hsps.len()).sum();
    format!("{}h/{}s/{:016x}", hits.len(), nhsps, h)
}

/// Golden-hits pin for the blastn kernel: `search_volume` output (scores,
/// ranges, E-values, order) must stay byte-identical to the pre-rewrite
/// kernel (per-subject `unpack_2bit`, byte-at-a-time scanner, `HashMap`
/// diagonal tracking), which `blast::baseline` preserves. The digests below
/// were captured from that kernel; the fused packed-scan kernel — here
/// over a decoded volume packed by `PackedVolume::from_volume`, as a batch
/// of one — must reproduce them exactly, gapped and ungapped, on both
/// strands.
#[test]
fn blastn_results_pinned_across_kernel_rewrite() {
    const GOLDEN: [(u64, &str, &str); 3] = [
        (42, "29h/49s/0f59e4ac0a239078", "29h/49s/09ade03370d3bbca"),
        (1003, "26h/54s/18529e25739e352a", "26h/54s/3cc20b897a872e1e"),
        (77, "13h/33s/82355a661b6adde5", "13h/33s/f111f995dbb6a0cf"),
    ];
    for (seed, gapped, ungapped) in GOLDEN {
        assert_eq!(blastn_digest(seed, true), gapped, "seed {seed} gapped");
        assert_eq!(blastn_digest(seed, false), ungapped, "seed {seed} ungapped");
    }
}

/// Scan-sharing on the *real* engine: for every seed, serving a query
/// list in batches returns per-query reports byte-identical to serving
/// each query alone.
#[test]
fn batched_serving_is_byte_identical_to_sequential() {
    use parblast::blast::{DbStats, Program, SearchParams};
    use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
    use parblast::seqdb::{
        extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
    };
    use parblast::serve::serve_batched;

    for seed in SEEDS {
        let base =
            std::env::temp_dir().join(format!("determinism_serve_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let scheme = Scheme::local_at(&base.join("io"), 2).unwrap();
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 200_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let queries: Vec<Vec<u8>> = (0..4)
            .map(|i| extract_query(&seqs[i + 1].1, 350, 0.02, seed ^ i as u64))
            .collect();
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 3, seqs).unwrap();
        let mut fragments = vec![];
        for info in infos {
            let bytes = std::fs::read(&info.path).unwrap();
            let name = info
                .path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            scheme.load_fragment(&name, &bytes).unwrap();
            fragments.push(name);
        }
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 2,
            scheme,
            tracer: Tracer::new(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: false,
            list_io: false,
        };
        let batched = serve_batched(&job, &queries, 3).unwrap();
        let sequential = serve_batched(&job, &queries, 1).unwrap();
        assert_eq!(
            batched.per_query, sequential.per_query,
            "seed {seed}: batched and sequential reports diverged"
        );
        assert_eq!(batched.batches, 2, "seed {seed}");
        assert_eq!(sequential.batches, 4, "seed {seed}");
        std::fs::remove_dir_all(&base).ok();
    }
}

/// Fused multi-query kernel pin: for every seed, gapped and ungapped, the
/// FNV digest of one `PreparedBatch` pass equals the digest of one
/// reference-kernel (`search_blastn_baseline`) search per query —
/// hit-for-hit, covering both strands, so subject order, HSP order,
/// scores, E-values, coordinates, and tie-breaks all survive the kernel
/// fusion.
#[test]
fn fused_batch_digest_matches_sequential() {
    use parblast::blast::baseline::search_blastn_baseline;
    use parblast::blast::{DbStats, PreparedBatch, ScanWorkspace, SearchParams};
    use parblast::seqdb::{
        extract_query, reverse_complement, PackedVolume, SeqType, SyntheticConfig, SyntheticNt,
        VolumeWriter,
    };

    let fnv = |rendered: &str| -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in rendered.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("{h:016x}")
    };
    for seed in SEEDS {
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 150_000,
            seed,
            ..Default::default()
        });
        let mut buf = std::io::Cursor::new(Vec::new());
        let mut w = VolumeWriter::new(&mut buf, SeqType::Nucleotide).unwrap();
        let mut sources = vec![];
        while let Some((defline, codes)) = g.next() {
            w.add_codes(&defline, &codes).unwrap();
            sources.push(codes);
        }
        w.finish().unwrap();
        let bytes = buf.into_inner();
        let packed = PackedVolume::read_from(&mut bytes.as_slice()).unwrap();
        let decoded = packed.to_volume();
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        // Query mix: forward extracts (plus-strand hits), one
        // reverse-complemented extract (minus-strand hits), and one from
        // an independent stream (mostly misses) — 5 queries, one fused
        // chunk.
        let mut queries: Vec<Vec<u8>> = (0..3)
            .map(|i| extract_query(&sources[i + 1], 400, 0.03, seed ^ i as u64))
            .collect();
        queries.push(reverse_complement(&extract_query(
            &sources[4],
            400,
            0.02,
            seed ^ 9,
        )));
        let mut alien = SyntheticNt::new(SyntheticConfig {
            total_residues: 2_000,
            min_len: 600,
            seed: seed ^ 0xdead,
            ..Default::default()
        });
        let stray = alien.next().unwrap().1;
        queries.push(extract_query(&stray, 568.min(stray.len()), 0.03, seed));
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();

        for gapped in [true, false] {
            let mut params = SearchParams::blastn();
            params.gapped = gapped;
            let fused =
                PreparedBatch::new(&qrefs, &params, db).search(&packed, &mut ScanWorkspace::new());
            let sequential: Vec<_> = qrefs
                .iter()
                .map(|q| search_blastn_baseline(q, &decoded, &params, db))
                .collect();
            let frames: std::collections::BTreeSet<i8> = fused
                .iter()
                .flatten()
                .flat_map(|h| h.hsps.iter().map(|s| s.q_frame))
                .collect();
            assert!(
                frames.contains(&1) && frames.contains(&-1),
                "seed {seed} gapped={gapped}: digest must cover both strands, got {frames:?}"
            );
            assert_eq!(
                fnv(&format!("{fused:?}")),
                fnv(&format!("{sequential:?}")),
                "seed {seed} gapped={gapped}: fused and sequential digests diverged"
            );
        }
    }
}

/// The double-buffered fragment prefetch pipeline may change *when* I/O
/// happens, never what is found: for every seed and every scheme, the
/// full `Debug` rendering of the merged hits (scores, E-values,
/// coordinates, order) is identical with prefetch on and off.
#[test]
fn prefetch_on_and_off_agree_hit_for_hit() {
    use parblast::blast::{DbStats, Program, SearchParams};
    use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
    use parblast::seqdb::{
        extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
    };

    for seed in SEEDS {
        let base = std::env::temp_dir().join(format!(
            "determinism_prefetch_{seed}_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&base).unwrap();
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 200_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let query = extract_query(&seqs[2].1, 450, 0.02, seed);
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 4, seqs).unwrap();
        let frag_bytes: Vec<(String, Vec<u8>)> = infos
            .iter()
            .map(|info| {
                (
                    info.path
                        .file_name()
                        .unwrap()
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read(&info.path).unwrap(),
                )
            })
            .collect();
        let mut digests: Vec<(String, bool, String)> = Vec::new();
        for which in ["original", "pvfs", "ceft"] {
            for prefetch in [false, true] {
                let root = base.join(format!("{which}_{prefetch}"));
                let scheme = match which {
                    "original" => Scheme::local_at(&root, 2).unwrap(),
                    "pvfs" => Scheme::pvfs_at(&root, 4, 64 << 10).unwrap(),
                    _ => Scheme::ceft_at(&root, 2, 64 << 10).unwrap(),
                };
                let mut fragments = vec![];
                for (name, bytes) in &frag_bytes {
                    scheme.load_fragment(name, bytes).unwrap();
                    fragments.push(name.clone());
                }
                let job = ParallelBlast {
                    program: Program::Blastn,
                    params: SearchParams::blastn(),
                    db,
                    fragments,
                    workers: 2,
                    scheme,
                    tracer: Tracer::disabled(),
                    parallelization: Parallelization::DatabaseSegmentation,
                    prefetch,
                    list_io: false,
                };
                let out = job.run(&query).unwrap();
                digests.push((which.to_string(), prefetch, format!("{:?}", out.hits)));
            }
        }
        for pair in digests.chunks(2) {
            assert_eq!(
                pair[0].2, pair[1].2,
                "seed {seed} scheme {}: prefetch changed the hits",
                pair[0].0
            );
        }
        // And all three schemes agree with each other.
        assert_eq!(digests[0].2, digests[2].2, "seed {seed}: pvfs vs original");
        assert_eq!(digests[0].2, digests[4].2, "seed {seed}: ceft vs original");
        std::fs::remove_dir_all(&base).ok();
    }
}

/// List-I/O aggregation may only collapse *requests*, never change what
/// is read or found: for every seed and every scheme, the merged hits AND
/// every fragment's traced read block (header, index, data, deflines — in
/// order, with exact byte counts) are identical with list I/O on and off.
/// Blocks are compared as a sorted multiset because which worker thread
/// claims which fragment races between runs; the per-fragment read
/// sequence itself must not change. (The simulated twin below pins full
/// per-worker sequences, where scheduling is deterministic.)
#[test]
fn list_io_on_and_off_agree_hit_for_hit_and_trace_for_trace() {
    use parblast::blast::{DbStats, Program, SearchParams};
    use parblast::mpiblast::{IoKind, ParallelBlast, Parallelization, Scheme, Tracer};
    use parblast::seqdb::{
        extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
    };
    use std::collections::BTreeMap;

    for seed in SEEDS {
        let base =
            std::env::temp_dir().join(format!("determinism_listio_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 200_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let query = extract_query(&seqs[2].1, 450, 0.02, seed);
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 4, seqs).unwrap();
        let frag_bytes: Vec<(String, Vec<u8>)> = infos
            .iter()
            .map(|info| {
                (
                    info.path
                        .file_name()
                        .unwrap()
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read(&info.path).unwrap(),
                )
            })
            .collect();
        for which in ["original", "pvfs", "ceft"] {
            let mut runs: Vec<(String, Vec<Vec<u64>>)> = Vec::new();
            for list_io in [false, true] {
                let root = base.join(format!("{which}_{list_io}"));
                let scheme = match which {
                    "original" => Scheme::local_at(&root, 2).unwrap(),
                    "pvfs" => Scheme::pvfs_at(&root, 4, 64 << 10).unwrap(),
                    _ => Scheme::ceft_at(&root, 2, 64 << 10).unwrap(),
                };
                let mut fragments = vec![];
                for (name, bytes) in &frag_bytes {
                    scheme.load_fragment(name, bytes).unwrap();
                    fragments.push(name.clone());
                }
                let tracer = Tracer::new();
                let job = ParallelBlast {
                    program: Program::Blastn,
                    params: SearchParams::blastn(),
                    db,
                    fragments,
                    workers: 2,
                    scheme,
                    tracer: tracer.clone(),
                    parallelization: Parallelization::DatabaseSegmentation,
                    prefetch: false,
                    list_io,
                };
                let out = job.run(&query).unwrap();
                // Split each worker's in-order read stream into per-fragment
                // blocks: every volume load starts with the fixed-size
                // header read.
                let mut per_worker: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
                for e in tracer.events() {
                    if matches!(e.kind, IoKind::Read) {
                        per_worker.entry(e.worker).or_default().push(e.bytes);
                    }
                }
                let header = per_worker.values().next().unwrap()[0];
                let mut blocks: Vec<Vec<u64>> = Vec::new();
                for seq in per_worker.values() {
                    for b in seq {
                        if *b == header {
                            blocks.push(Vec::new());
                        }
                        blocks.last_mut().unwrap().push(*b);
                    }
                }
                blocks.sort();
                runs.push((format!("{:?}", out.hits), blocks));
            }
            assert_eq!(
                runs[0].0, runs[1].0,
                "seed {seed} scheme {which}: list I/O changed the hits"
            );
            assert_eq!(
                runs[0].1, runs[1].1,
                "seed {seed} scheme {which}: list I/O changed a fragment's \
                 read sequence"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }
}

/// Simulated twin of the pin above, plus the collapse itself: for every
/// seed and every scheme, turning list I/O on leaves each simulated
/// worker's traced read sequence and byte totals unchanged while the
/// servers field strictly fewer (aggregated) read requests.
#[test]
fn sim_list_io_preserves_per_worker_reads_while_collapsing_requests() {
    use parblast::mpiblast::{IoKind, Tracer};
    use std::collections::BTreeMap;

    let schemes = [
        ("original", SimScheme::Original),
        (
            "pvfs",
            SimScheme::Pvfs {
                servers: vec![0, 1, 2, 3],
            },
        ),
        (
            "ceft",
            SimScheme::Ceft {
                primary: vec![0, 1],
                mirror: vec![2, 3],
            },
        ),
    ];
    for seed in SEEDS {
        for (name, scheme) in &schemes {
            let mut runs = Vec::new();
            for list_io in [false, true] {
                let tracer = Tracer::simulated();
                let cfg = SimBlastConfig {
                    nodes: 5,
                    workers: 4,
                    fragments: 4,
                    db_bytes: 64 << 20,
                    scheme: scheme.clone(),
                    master_node: 4,
                    warmup_s: 1.0,
                    horizon_s: 400.0,
                    seed,
                    list_io,
                    io_tracer: Some(tracer.clone()),
                    ..Default::default()
                };
                let out = run_simblast(&cfg);
                assert!(out.completed, "seed {seed} {name} list_io={list_io}");
                let mut per_worker: BTreeMap<u32, Vec<(IoKind, u64)>> = BTreeMap::new();
                for e in tracer.events() {
                    if matches!(e.kind, IoKind::Read) {
                        per_worker
                            .entry(e.worker)
                            .or_default()
                            .push((e.kind, e.bytes));
                    }
                }
                let bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
                runs.push((per_worker, bytes, out));
            }
            assert_eq!(
                runs[0].0, runs[1].0,
                "seed {seed} {name}: list I/O changed a worker's read sequence"
            );
            assert_eq!(
                runs[0].1, runs[1].1,
                "seed {seed} {name}: list I/O changed the bytes read"
            );
            if *name != "original" {
                let (off, on) = (&runs[0].2, &runs[1].2);
                assert_eq!(off.server_list_reads, 0, "seed {seed} {name}");
                assert!(on.server_list_reads > 0, "seed {seed} {name}");
                assert!(
                    on.server_reads < off.server_reads,
                    "seed {seed} {name}: aggregation must collapse requests \
                     ({} vs {})",
                    on.server_reads,
                    off.server_reads
                );
            }
        }
    }
}

/// A background integrity scrub may only *read* (and, on the mirrored
/// scheme, rewrite corrupt stripes — there are none here), so for every
/// seed and every scheme the per-query reports with the scrubber running
/// are byte-identical to serving without it.
#[test]
fn scrub_on_and_off_agree_report_for_report() {
    use parblast::blast::{DbStats, Program, SearchParams};
    use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
    use parblast::seqdb::{
        extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
    };
    use parblast::serve::{serve_batched, serve_batched_scrubbed};

    for seed in SEEDS {
        let base =
            std::env::temp_dir().join(format!("determinism_scrub_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 200_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let queries: Vec<Vec<u8>> = (0..3)
            .map(|i| extract_query(&seqs[i + 1].1, 350, 0.02, seed ^ i as u64))
            .collect();
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 3, seqs).unwrap();
        let frag_bytes: Vec<(String, Vec<u8>)> = infos
            .iter()
            .map(|info| {
                (
                    info.path
                        .file_name()
                        .unwrap()
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read(&info.path).unwrap(),
                )
            })
            .collect();
        for which in ["original", "pvfs", "ceft"] {
            let root = base.join(which);
            let scheme = match which {
                "original" => Scheme::local_at(&root, 2).unwrap(),
                "pvfs" => Scheme::pvfs_at(&root, 4, 64 << 10).unwrap(),
                _ => Scheme::ceft_at(&root, 2, 64 << 10).unwrap(),
            };
            let mut fragments = vec![];
            for (name, bytes) in &frag_bytes {
                scheme.load_fragment(name, bytes).unwrap();
                fragments.push(name.clone());
            }
            let job = ParallelBlast {
                program: Program::Blastn,
                params: SearchParams::blastn(),
                db,
                fragments,
                workers: 2,
                scheme,
                tracer: Tracer::disabled(),
                parallelization: Parallelization::DatabaseSegmentation,
                prefetch: true,
                list_io: false,
            };
            let off = serve_batched(&job, &queries, 3).unwrap();
            let on = serve_batched_scrubbed(&job, &queries, 3, Some(4 << 20)).unwrap();
            assert_eq!(
                off.per_query, on.per_query,
                "seed {seed} scheme {which}: the scrubber changed a report"
            );
            assert!(off.scrub.is_none(), "seed {seed} scheme {which}");
            let totals = on.scrub.expect("scrub totals must be reported");
            assert_eq!(
                totals.corrupt_found, 0,
                "seed {seed} scheme {which}: clean store scrubbed dirty: {totals:?}"
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }
}

/// The networked daemon is a transport, not a transform: for every seed,
/// the payload a TCP client receives for each query is byte-identical to
/// what in-process `serve_batched` renders for the same query against
/// the same store — pinned by an FNV-1a digest over the concatenated
/// results as well as query-by-query equality.
#[test]
fn daemon_results_are_byte_identical_to_in_process_serving() {
    use parblast::blast::{DbStats, Program, SearchParams};
    use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
    use parblast::net::{BlastRunner, NetClient, NetServer, ServerConfig};
    use parblast::seqdb::{
        extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
    };
    use parblast::serve::serve_batched;
    use std::sync::Arc;

    let fnv = |chunks: &[&[u8]]| -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for chunk in chunks {
            for &b in *chunk {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    };

    for seed in SEEDS {
        let base =
            std::env::temp_dir().join(format!("determinism_daemon_{seed}_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 200_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let queries: Vec<Vec<u8>> = (0..4)
            .map(|i| extract_query(&seqs[i + 1].1, 350, 0.02, seed ^ i as u64))
            .collect();
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 3, seqs).unwrap();
        let frag_bytes: Vec<(String, Vec<u8>)> = infos
            .iter()
            .map(|info| {
                (
                    info.path
                        .file_name()
                        .unwrap()
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read(&info.path).unwrap(),
                )
            })
            .collect();
        let make_job = |root: &std::path::Path| {
            let scheme = Scheme::local_at(root, 2).unwrap();
            let mut fragments = vec![];
            for (name, bytes) in &frag_bytes {
                scheme.load_fragment(name, bytes).unwrap();
                fragments.push(name.clone());
            }
            ParallelBlast {
                program: Program::Blastn,
                params: SearchParams::blastn(),
                db,
                fragments,
                workers: 2,
                scheme,
                tracer: Tracer::disabled(),
                parallelization: Parallelization::DatabaseSegmentation,
                prefetch: false,
                list_io: false,
            }
        };

        let in_process = serve_batched(&make_job(&base.join("local")), &queries, 2).unwrap();

        let handle = NetServer::start(
            "127.0.0.1:0",
            ServerConfig {
                shards: 1,
                max_batch: 2,
                ..Default::default()
            },
            Arc::new(BlastRunner::new(make_job(&base.join("daemon")), 0)),
        )
        .unwrap();
        let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();
        let over_the_wire: Vec<Vec<u8>> =
            queries.iter().map(|q| client.query(q).unwrap()).collect();
        handle.drain();
        handle.join();

        for (i, (wire, local)) in over_the_wire.iter().zip(&in_process.per_query).enumerate() {
            assert_eq!(
                wire.as_slice(),
                local.as_bytes(),
                "seed {seed} query {i}: daemon result diverged from serve_batched"
            );
        }
        let wire_digest = fnv(&over_the_wire.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let local_digest = fnv(&in_process
            .per_query
            .iter()
            .map(String::as_bytes)
            .collect::<Vec<_>>());
        assert_eq!(wire_digest, local_digest, "seed {seed}: digest mismatch");
        std::fs::remove_dir_all(&base).ok();
    }
}
