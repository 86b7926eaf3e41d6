//! Prefetch-pipeline benchmark: measures how much fragment I/O the
//! double-buffered runner hides behind compute, against the sequential
//! fetch-then-search loop, on real files with the stores throttled to the
//! paper's ~28 MB/s disks (unthrottled, everything is served from the page
//! cache and there is nothing to hide).
//!
//! Three measurements:
//!
//! * **reader-pool microbench** — `read_at` latency through the persistent
//!   per-server lanes vs the pre-pool design that spawned one OS thread
//!   per involved server on every call.
//! * **pipeline sweep** — the real runner, prefetch on/off × scheme
//!   (original / PVFS / CEFT-PVFS) × workers, hit-for-hit identity
//!   asserted for every timed run. Reports wall time, the fetch and stall
//!   clocks, and the I/O-hidden fraction `1 - stall/fetch`.
//! * **simulated read-ahead ablation** — the paper-scale simulator at
//!   depths 0/1/2/4 (depth 0 is the calibrated synchronous default).
//!
//! Writes `BENCH_pipeline.json` (CI archives it).

use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, median, print_table};
use parblast_blast::{DbStats, Program, SearchParams};
use parblast_core::experiments::read_ahead_ablation;
use parblast_core::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast_core::pio::{read_all, ObjectStore, StripeLayout, StripedStore};
use parblast_seqdb::blastdb::SeqType;
use parblast_seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};

// ---------------------------------------------------------- pool microbench

/// µs/op for striped reads of `len` bytes: the pool-backed store vs a
/// spawn-per-call scatter over the same pre-opened stripe files (what
/// every `read_at` did before the persistent lanes existed).
fn pool_microbench(base: &Path, len: usize, ops: usize) -> (f64, f64) {
    let servers = 4usize;
    let stripe = 64u64 << 10;
    let dirs: Vec<_> = (0..servers).map(|i| base.join(format!("s{i}"))).collect();
    let st = StripedStore::new(dirs.clone(), stripe).expect("striped store");
    let object_len = (len * 8) as u64;
    let payload: Vec<u8> = (0..object_len).map(|i| (i * 31 % 251) as u8).collect();
    st.put("obj", &payload).expect("put");

    let mut reader = st.open("obj").expect("open");
    let mut buf = vec![0u8; len];
    let offset_of = |i: usize| (i as u64 * 13_001) % (object_len - len as u64);

    // Pool path: the store's persistent lanes.
    reader.read_at(0, &mut buf).expect("warm");
    let t0 = Instant::now();
    for i in 0..ops {
        reader.read_at(offset_of(i), &mut buf).expect("pool read");
    }
    let pool_us = t0.elapsed().as_secs_f64() * 1e6 / ops as f64;

    // Baseline: one scoped OS thread per involved server per call, over
    // files opened once up front — isolating pure spawn/join cost.
    let layout = StripeLayout::new(stripe, servers as u32);
    let files: Vec<Arc<std::fs::File>> = dirs
        .iter()
        .map(|d| Arc::new(std::fs::File::open(d.join("obj")).expect("stripe file")))
        .collect();
    let spawn_read = |offset: u64, buf: &mut [u8]| {
        let parts = layout.map_extent(offset, buf.len() as u64);
        let mut chunks: Vec<Vec<u8>> = Vec::with_capacity(parts.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|p| {
                    let f = Arc::clone(&files[p.server as usize]);
                    let (lo, n) = (p.local_offset, p.len as usize);
                    s.spawn(move || {
                        let mut out = vec![0u8; n];
                        f.read_exact_at(&mut out, lo).expect("pread");
                        out
                    })
                })
                .collect();
            for h in handles {
                chunks.push(h.join().expect("join"));
            }
        });
        // Scatter back into logical order, one stripe segment at a time.
        let mut consumed = vec![0usize; servers];
        let mut pos = offset;
        let end = offset + buf.len() as u64;
        while pos < end {
            let seg_end = ((pos / stripe + 1) * stripe).min(end);
            let n = (seg_end - pos) as usize;
            let srv = layout.server_of(pos) as usize;
            let part_idx = parts
                .iter()
                .position(|p| p.server as usize == srv)
                .expect("server in extent");
            let data = &chunks[part_idx];
            let dst = (pos - offset) as usize;
            buf[dst..dst + n].copy_from_slice(&data[consumed[srv]..consumed[srv] + n]);
            consumed[srv] += n;
            pos = seg_end;
        }
    };
    spawn_read(0, &mut buf);
    let t0 = Instant::now();
    for i in 0..ops {
        spawn_read(offset_of(i), &mut buf);
    }
    let spawn_us = t0.elapsed().as_secs_f64() * 1e6 / ops as f64;

    // Both paths read the same bytes.
    let mut a = vec![0u8; len];
    reader.read_at(offset_of(3), &mut a).expect("check");
    let mut b = vec![0u8; len];
    spawn_read(offset_of(3), &mut b);
    assert_eq!(a, b, "pool and spawn baseline disagree");
    assert_eq!(read_all(&st, "obj").expect("read_all"), payload);

    (spawn_us, pool_us)
}

// ------------------------------------------------------------ runner sweep

struct Cell {
    scheme: &'static str,
    workers: usize,
    prefetch: bool,
    /// Median, fastest and slowest wall time of the reps.
    wall_s: f64,
    wall_min_s: f64,
    wall_max_s: f64,
    io_fetch_s: f64,
    io_stall_s: f64,
    hidden: f64,
}

fn main() {
    let residues = arg_u64("--residues", 32 << 20);
    let reps = arg_u64("--reps", 7) as usize;
    // Default 5 MB/s per server: the paper's disks stream ~26 MB/s raw but
    // deliver far less under striped seek+network cost; more importantly
    // the sweep needs I/O and compute of the same order, or there is
    // nothing measurable to hide at this (scaled-down) database size.
    let throttle = arg_u64("--throttle", 5_000_000);
    let sim_bytes = arg_u64("--sim-bytes", 128 << 20);
    let pool_ops = arg_u64("--pool-ops", 200) as usize;
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let base = std::env::temp_dir().join(format!("parblast_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("workdir");

    // --- reader-pool microbench -----------------------------------------
    let (spawn_64k, pool_64k) = pool_microbench(&base.join("mb64k"), 64 << 10, pool_ops);
    let (spawn_2m, pool_2m) = pool_microbench(&base.join("mb2m"), 2 << 20, pool_ops.min(64));
    println!("reader-pool microbench: 4 servers, 64 KiB stripes, striped read_at\n");
    print_table(
        &[
            "read size",
            "spawn-per-call (µs/op)",
            "pool lanes (µs/op)",
            "speedup",
        ],
        &[
            vec![
                "64 KiB".into(),
                format!("{spawn_64k:.1}"),
                format!("{pool_64k:.1}"),
                format!("{:.2}x", spawn_64k / pool_64k),
            ],
            vec![
                "2 MiB".into(),
                format!("{spawn_2m:.1}"),
                format!("{pool_2m:.1}"),
                format!("{:.2}x", spawn_2m / pool_2m),
            ],
        ],
    );

    // --- real-runner pipeline sweep -------------------------------------
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed: 11,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    let query = extract_query(&seqs[2].1, 568, 0.02, 5);
    let db = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    let nfrag = 8u32;
    let infos = segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, nfrag, seqs)
        .expect("segment");
    let frag_bytes: Vec<(String, Vec<u8>)> = infos
        .iter()
        .map(|info| {
            (
                info.path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned(),
                std::fs::read(&info.path).expect("fragment bytes"),
            )
        })
        .collect();

    // Each cell gets a freshly-built scheme (fresh server directories and,
    // for CEFT, a fresh health monitor): the mirrored store's latency EWMA
    // adapts to observed queueing, so sharing one store across cells would
    // leak one configuration's training into the next. CEFT uses the
    // paper's 4 data + 4 mirror servers against PVFS's 4 unmirrored ones.
    let schemes: [&'static str; 3] = ["original", "pvfs", "ceft"];
    let make_scheme = |name: &str, root: &Path| -> Scheme {
        let scheme = match name {
            "original" => Scheme::local_at(root, 4).expect("local"),
            "pvfs" => Scheme::pvfs_at(root, 4, 64 << 10).expect("pvfs"),
            _ => Scheme::ceft_at(root, 4, 64 << 10).expect("ceft"),
        };
        for (frag, bytes) in &frag_bytes {
            scheme.load_fragment(frag, bytes).expect("load fragment");
        }
        scheme.set_io_throttle(throttle);
        scheme
    };
    println!(
        "\npipeline sweep: {:.1} Mbase db, {nfrag} fragments, 568-nt query, \
         stores throttled to {:.0} MB/s per server, median of {reps} interleaved reps\n",
        residues as f64 / 1e6,
        throttle as f64 / 1e6,
    );

    let fragments: Vec<String> = frag_bytes.iter().map(|(n, _)| n.clone()).collect();
    let mut cells: Vec<Cell> = Vec::new();
    let mut reference_hits: Option<String> = None;
    for name in &schemes {
        for &workers in &[2usize, 4] {
            let root = base.join(format!("{name}_{workers}"));
            let scheme = make_scheme(name, &root);
            let run = |prefetch: bool| {
                ParallelBlast {
                    program: Program::Blastn,
                    params: SearchParams::blastn(),
                    db,
                    fragments: fragments.clone(),
                    workers,
                    scheme: scheme.clone(),
                    tracer: Tracer::disabled(),
                    parallelization: Parallelization::DatabaseSegmentation,
                    prefetch,
                    list_io: false,
                }
                .run(&query)
                .expect("run")
            };
            // One warmup pair, then off/on interleaved rep by rep: slow
            // drift (CPU frequency, container neighbors) hits both arms
            // equally instead of biasing whichever ran last.
            let _ = run(false);
            let _ = run(true);
            let (mut t_off, mut t_on) = (Vec::new(), Vec::new());
            let (mut last_off, mut last_on) = (None, None);
            for _ in 0..reps {
                let t0 = Instant::now();
                last_off = Some(run(false));
                t_off.push(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                last_on = Some(run(true));
                t_on.push(t0.elapsed().as_secs_f64());
            }
            let arms = [
                (false, t_off, last_off.expect("reps >= 1")),
                (true, t_on, last_on.expect("reps >= 1")),
            ];
            for (prefetch, times, last) in arms {
                // Every configuration must report the same merged hits.
                let key = format!("{:?}", last.hits);
                match &reference_hits {
                    None => {
                        assert!(!last.hits.is_empty(), "planted query must be found");
                        reference_hits = Some(key);
                    }
                    Some(r) => assert_eq!(
                        r, &key,
                        "{name} workers={workers} prefetch={prefetch} changed the hits"
                    ),
                }
                let hidden = if last.io_fetch_s > 0.0 {
                    (1.0 - last.io_stall_s / last.io_fetch_s).max(0.0)
                } else {
                    0.0
                };
                cells.push(Cell {
                    scheme: name,
                    workers,
                    prefetch,
                    wall_min_s: times.iter().copied().fold(f64::INFINITY, f64::min),
                    wall_max_s: times.iter().copied().fold(0.0, f64::max),
                    wall_s: median(times),
                    io_fetch_s: last.io_fetch_s,
                    io_stall_s: last.io_stall_s,
                    hidden,
                });
            }
            std::fs::remove_dir_all(&root).ok();
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.scheme.into(),
                format!("{}", c.workers),
                if c.prefetch { "on" } else { "off" }.into(),
                format!("{:.4}", c.wall_s),
                format!("{:.4}", c.io_fetch_s),
                format!("{:.4}", c.io_stall_s),
                format!("{:.0}%", c.hidden * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "scheme",
            "workers",
            "prefetch",
            "wall (s)",
            "fetch (s)",
            "stall (s)",
            "I/O hidden",
        ],
        &rows,
    );

    // What the pipeline guarantees for the parallel-I/O schemes: prefetch
    // hides some of the fetch time behind search, and the job is no slower
    // for it than the sequential loop, beyond the sequential arm's own
    // rep-to-rep spread. Whether it is strictly faster depends on how much
    // search there is to hide I/O behind, which is small against throttled
    // reads; a wall-clock difference the two arms' reps overlap on is
    // reported as unresolved, not failed.
    println!();
    for name in &schemes {
        for &workers in &[2usize, 4] {
            let find = |prefetch| {
                cells
                    .iter()
                    .find(|c| c.scheme == *name && c.workers == workers && c.prefetch == prefetch)
                    .expect("cell")
            };
            let (off, on) = (find(false), find(true));
            let speedup = off.wall_s / on.wall_s;
            let spread = off.wall_max_s - off.wall_min_s;
            let verdict = if *name == "original" {
                "" // the private copy is fetched before the search either way
            } else if on.wall_s <= off.wall_s + spread {
                ", within the sequential arm's spread"
            } else if on.wall_min_s <= off.wall_max_s {
                ", unresolved: the arms' reps overlap"
            } else {
                panic!(
                    "{name} workers={workers}: every prefetch rep is slower than every \
                     sequential one, and the medians ({:.4}s vs {:.4}s) differ by more \
                     than the sequential spread {spread:.4}s",
                    on.wall_s, off.wall_s
                )
            };
            println!(
                "{name} workers={workers}: prefetch {:.4}s -> {:.4}s ({speedup:.2}x, \
                 {:.0}% of I/O hidden{verdict})",
                off.wall_s,
                on.wall_s,
                on.hidden * 100.0
            );
            if *name != "original" {
                assert!(
                    on.io_stall_s < on.io_fetch_s,
                    "{name} workers={workers}: prefetch must hide some fetch time \
                     (stall {:.4}s of {:.4}s fetched)",
                    on.io_stall_s,
                    on.io_fetch_s
                );
            }
        }
    }

    // --- simulated read-ahead ablation ----------------------------------
    let depths = [0u32, 1, 2, 4];
    let ablation = read_ahead_ablation(sim_bytes, &depths);
    println!(
        "\nsimulated read-ahead ablation ({} MB database, paper-scale model):\n",
        sim_bytes >> 20
    );
    print_table(
        &["scheme", "depth", "makespan (s)", "speedup vs depth 0"],
        &ablation
            .iter()
            .map(|c| {
                vec![
                    c.scheme.into(),
                    format!("{}", c.depth),
                    format!("{:.2}", c.makespan_s),
                    format!("{:.3}x", c.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- JSON artifact ---------------------------------------------------
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"scheme\": \"{}\", \"workers\": {}, \"prefetch\": {}, \
                 \"wall_s\": {:.6}, \"io_fetch_s\": {:.6}, \"io_stall_s\": {:.6}, \
                 \"io_hidden_fraction\": {:.4}}}",
                c.scheme, c.workers, c.prefetch, c.wall_s, c.io_fetch_s, c.io_stall_s, c.hidden
            )
        })
        .collect();
    let ablation_json: Vec<String> = ablation
        .iter()
        .map(|c| {
            format!(
                "    {{\"scheme\": \"{}\", \"depth\": {}, \"makespan_s\": {:.4}, \
                 \"speedup\": {:.4}}}",
                c.scheme, c.depth, c.makespan_s, c.speedup
            )
        })
        .collect();
    let payload = format!(
        "{{\n  \"experiment\": \"pipeline\",\n  \"residues\": {residues},\n  \
         \"fragments\": {nfrag},\n  \"reps\": {reps},\n  \
         \"throttle_bytes_per_s\": {throttle},\n  \"identical_hits\": true,\n  \
         \"pool_microbench\": {{\n    \
         \"read_64k\": {{\"spawn_us_per_op\": {spawn_64k:.1}, \"pool_us_per_op\": {pool_64k:.1}, \
         \"speedup\": {:.3}}},\n    \
         \"read_2m\": {{\"spawn_us_per_op\": {spawn_2m:.1}, \"pool_us_per_op\": {pool_2m:.1}, \
         \"speedup\": {:.3}}}\n  }},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"sim_read_ahead\": {{\"db_bytes\": {sim_bytes}, \"cells\": [\n{}\n  ]}}\n}}\n",
        spawn_64k / pool_64k,
        spawn_2m / pool_2m,
        cell_json.join(",\n"),
        ablation_json.join(",\n"),
    );
    std::fs::write(&out, &payload).expect("write BENCH_pipeline.json");
    println!(
        "\nwrote {out}\nexpected shape: prefetch hides fetch time for the parallel-I/O \
         schemes with identical hits, and the pool beats spawn-per-call"
    );
    std::fs::remove_dir_all(&base).ok();
}
