//! List-I/O aggregation benchmark: one vectored request per server
//! instead of one request per stripe-sized chunk.
//!
//! Two measurements:
//!
//! * **simulated sweep** — the paper-scale simulator, PVFS and CEFT-PVFS,
//!   workers × list I/O on/off. Reports the per-server request count
//!   (the iods' own accounting), the aggregated-list region totals, the
//!   read-latency p95 the clients observed, and the makespan. Bytes read
//!   are asserted identical between the arms.
//! * **real sweep** — actual striped/mirrored stores, N worker threads
//!   each issuing multi-stripe fragment reads as per-region `read_at`
//!   loops vs one vectored `read_many_at`. Reports reader-pool jobs
//!   submitted (one per request at a PVFS I/O daemon) and the per-read
//!   p95, with byte-identical results asserted.
//!
//! Writes `BENCH_listio.json` (CI archives it). The headline number is
//! the request-count collapse: ≥ 5x for multi-stripe fragment reads at
//! 4+ workers, in both the simulated and the real path.

use std::path::Path;
use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, print_table};
use parblast_core::mpiblast::{run_simblast, SimBlastConfig, SimScheme};
use parblast_core::pio::{MirroredStore, ObjectStore, StripedStore};

/// p95 of a latency sample, in microseconds.
fn p95_us(mut lat: Vec<f64>) -> f64 {
    lat.sort_by(f64::total_cmp);
    let idx = ((lat.len() as f64 * 0.95).ceil() as usize).saturating_sub(1);
    lat[idx] * 1e6
}

// ---------------------------------------------------------- simulated sweep

struct SimCell {
    scheme: &'static str,
    workers: u32,
    list_io: bool,
    server_reads: u64,
    list_regions: u64,
    read_p95_us: f64,
    makespan_s: f64,
}

fn sim_sweep(db_bytes: u64, chunk: u64, worker_counts: &[u32]) -> Vec<SimCell> {
    let mut cells = Vec::new();
    for &workers in worker_counts {
        for (name, scheme) in [
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
        ] {
            let mut bytes = [0u64; 2];
            for list_io in [false, true] {
                // At least 5 nodes: the 4 data servers live on nodes 0-3
                // and the master gets the last node.
                let nodes = (workers as usize + 1).max(5);
                let cfg = SimBlastConfig {
                    nodes,
                    workers,
                    fragments: workers,
                    db_bytes,
                    chunk,
                    scheme: scheme.clone(),
                    list_io,
                    master_node: nodes as u32 - 1,
                    warmup_s: 1.0,
                    horizon_s: 2000.0,
                    ..Default::default()
                };
                let out = run_simblast(&cfg);
                assert!(
                    out.completed,
                    "{name} workers={workers} list_io={list_io}: {:?}",
                    out.error
                );
                assert!(
                    out.read_latency_us.p95 > 0.0,
                    "{name} workers={workers} list_io={list_io}: no read latency recorded"
                );
                bytes[list_io as usize] = out.per_worker.iter().map(|w| w.bytes_read).sum();
                cells.push(SimCell {
                    scheme: name,
                    workers,
                    list_io,
                    server_reads: out.server_reads,
                    list_regions: out.server_list_regions,
                    read_p95_us: out.read_latency_us.p95,
                    makespan_s: out.makespan_s,
                });
            }
            assert_eq!(
                bytes[0], bytes[1],
                "{name} workers={workers}: list I/O changed the bytes read"
            );
        }
    }
    cells
}

// --------------------------------------------------------------- real sweep

struct RealCell {
    scheme: &'static str,
    workers: usize,
    list_io: bool,
    requests: u64,
    read_p95_us: f64,
}

/// `iters` fragment reads per worker thread; each fragment read covers
/// `regions_per_read` regions of `region_len` bytes, either as a
/// per-region `read_at` loop (list off) or one `read_many_at` (list on).
#[allow(clippy::too_many_arguments)]
fn real_arm<S: ObjectStore + Sync>(
    store: &S,
    requests_before: u64,
    requests_after: impl Fn() -> u64,
    workers: usize,
    iters: usize,
    object_len: u64,
    regions_per_read: usize,
    region_len: u64,
    list_io: bool,
) -> (u64, f64, u64) {
    let lats = std::sync::Mutex::new(Vec::new());
    let checksum = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let lats = &lats;
            let checksum = &checksum;
            s.spawn(move || {
                let mut reader = store.open("frag").expect("open");
                let mut local = Vec::with_capacity(iters);
                let mut sum = 0u64;
                for i in 0..iters {
                    // A multi-stripe fragment read: regions marching
                    // through the object at a worker-dependent phase.
                    let span = regions_per_read as u64 * region_len;
                    let base = ((w * iters + i) as u64 * 7919 * region_len) % (object_len - span);
                    let regions: Vec<(u64, u64)> = (0..regions_per_read)
                        .map(|r| (base + r as u64 * region_len, region_len))
                        .collect();
                    let t0 = Instant::now();
                    let data = if list_io {
                        reader.read_many_at(&regions).expect("read_many_at")
                    } else {
                        let mut out = Vec::with_capacity(span as usize);
                        let mut buf = vec![0u8; region_len as usize];
                        for &(off, len) in &regions {
                            buf.resize(len as usize, 0);
                            reader.read_at(off, &mut buf).expect("read_at");
                            out.extend_from_slice(&buf);
                        }
                        out
                    };
                    local.push(t0.elapsed().as_secs_f64());
                    sum = sum.wrapping_add(
                        data.iter()
                            .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64)),
                    );
                }
                checksum.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                lats.lock().unwrap().append(&mut local);
            });
        }
    });
    let requests = requests_after() - requests_before;
    (
        requests,
        p95_us(lats.into_inner().unwrap()),
        checksum.into_inner(),
    )
}

fn real_sweep(
    base: &Path,
    worker_counts: &[usize],
    iters: usize,
    object_len: u64,
    regions_per_read: usize,
    region_len: u64,
) -> Vec<RealCell> {
    let stripe = 64u64 << 10;
    let payload: Vec<u8> = (0..object_len).map(|i| (i * 31 % 251) as u8).collect();
    let sdirs: Vec<_> = (0..4).map(|i| base.join(format!("s{i}"))).collect();
    let striped = StripedStore::new(sdirs, stripe).expect("striped");
    striped.put("frag", &payload).expect("put");
    let p: Vec<_> = (0..2).map(|i| base.join(format!("p{i}"))).collect();
    let m: Vec<_> = (0..2).map(|i| base.join(format!("m{i}"))).collect();
    let mirrored = MirroredStore::new(p, m, stripe).expect("mirrored");
    mirrored.put("frag", &payload).expect("put");

    let mut cells = Vec::new();
    for &workers in worker_counts {
        for (name, is_striped) in [("pvfs", true), ("ceft", false)] {
            let mut sums = [0u64; 2];
            for list_io in [false, true] {
                let (requests, p95, sum) = if is_striped {
                    real_arm(
                        &striped,
                        striped.server_requests(),
                        || striped.server_requests(),
                        workers,
                        iters,
                        object_len,
                        regions_per_read,
                        region_len,
                        list_io,
                    )
                } else {
                    real_arm(
                        &mirrored,
                        mirrored.server_requests(),
                        || mirrored.server_requests(),
                        workers,
                        iters,
                        object_len,
                        regions_per_read,
                        region_len,
                        list_io,
                    )
                };
                sums[list_io as usize] = sum;
                cells.push(RealCell {
                    scheme: name,
                    workers,
                    list_io,
                    requests,
                    read_p95_us: p95,
                });
            }
            assert_eq!(
                sums[0], sums[1],
                "{name} workers={workers}: list I/O changed the bytes read"
            );
        }
    }
    cells
}

// ------------------------------------------------------------------- main

fn main() {
    let sim_bytes = arg_u64("--sim-bytes", 256 << 20);
    // 4 MiB application chunks: a 4-worker run reads 64 MiB fragments as
    // 16-region lists, so aggregation has ≥ 5x to collapse at every
    // worker count in the sweep.
    let sim_chunk = arg_u64("--sim-chunk", 4 << 20);
    let iters = arg_u64("--iters", 40) as usize;
    let object_len = arg_u64("--object-bytes", 8 << 20);
    let regions_per_read = arg_u64("--regions", 16) as usize;
    let region_len = arg_u64("--region-bytes", 128 << 10);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_listio.json".to_string());
    let base = std::env::temp_dir().join(format!("parblast_listio_{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("workdir");

    // --- simulated sweep -------------------------------------------------
    let sim_workers = [2u32, 4, 8];
    let sim = sim_sweep(sim_bytes, sim_chunk, &sim_workers);
    println!(
        "simulated list-I/O sweep: {} MiB database, {} MiB chunks, 4 data servers\n",
        sim_bytes >> 20,
        sim_chunk >> 20
    );
    print_table(
        &[
            "scheme",
            "workers",
            "list I/O",
            "server requests",
            "list regions",
            "read p95 (µs)",
            "makespan (s)",
        ],
        &sim.iter()
            .map(|c| {
                vec![
                    c.scheme.into(),
                    format!("{}", c.workers),
                    if c.list_io { "on" } else { "off" }.into(),
                    format!("{}", c.server_reads),
                    format!("{}", c.list_regions),
                    format!("{:.0}", c.read_p95_us),
                    format!("{:.2}", c.makespan_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- real sweep ------------------------------------------------------
    let real_workers = [2usize, 4, 8];
    let real = real_sweep(
        &base,
        &real_workers,
        iters,
        object_len,
        regions_per_read,
        region_len,
    );
    println!(
        "\nreal list-I/O sweep: {} MiB object, 64 KiB stripes, {} regions × {} KiB \
         per fragment read, {} reads per worker\n",
        object_len >> 20,
        regions_per_read,
        region_len >> 10,
        iters
    );
    print_table(
        &[
            "scheme",
            "workers",
            "list I/O",
            "pool jobs",
            "read p95 (µs)",
        ],
        &real
            .iter()
            .map(|c| {
                vec![
                    c.scheme.into(),
                    format!("{}", c.workers),
                    if c.list_io { "on" } else { "off" }.into(),
                    format!("{}", c.requests),
                    format!("{:.0}", c.read_p95_us),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- collapse headline ----------------------------------------------
    println!();
    let mut lines = Vec::new();
    for (which, pairs) in [
        ("sim", &sim_collapse(&sim)),
        ("real", &real_collapse(&real)),
    ] {
        for &(scheme, workers, off, on) in pairs {
            let collapse = off as f64 / on as f64;
            println!(
                "{which} {scheme} workers={workers}: {off} -> {on} requests \
                 ({collapse:.1}x collapse)"
            );
            if workers >= 4 {
                assert!(
                    collapse >= 5.0,
                    "{which} {scheme} workers={workers}: aggregation must \
                     collapse requests at least 5x, got {collapse:.1}x"
                );
            }
            lines.push(format!(
                "    {{\"path\": \"{which}\", \"scheme\": \"{scheme}\", \
                 \"workers\": {workers}, \"requests_off\": {off}, \
                 \"requests_on\": {on}, \"collapse\": {collapse:.2}}}"
            ));
        }
    }

    // --- JSON artifact ---------------------------------------------------
    let sim_json: Vec<String> = sim
        .iter()
        .map(|c| {
            format!(
                "    {{\"scheme\": \"{}\", \"workers\": {}, \"list_io\": {}, \
                 \"server_requests\": {}, \"list_regions\": {}, \
                 \"read_p95_us\": {:.1}, \"makespan_s\": {:.3}}}",
                c.scheme,
                c.workers,
                c.list_io,
                c.server_reads,
                c.list_regions,
                c.read_p95_us,
                c.makespan_s
            )
        })
        .collect();
    let real_json: Vec<String> = real
        .iter()
        .map(|c| {
            format!(
                "    {{\"scheme\": \"{}\", \"workers\": {}, \"list_io\": {}, \
                 \"pool_jobs\": {}, \"read_p95_us\": {:.1}}}",
                c.scheme, c.workers, c.list_io, c.requests, c.read_p95_us
            )
        })
        .collect();
    let payload = format!(
        "{{\n  \"experiment\": \"listio\",\n  \"sim_db_bytes\": {sim_bytes},\n  \
         \"sim_chunk_bytes\": {sim_chunk},\n  \"identical_bytes\": true,\n  \
         \"sim_sweep\": [\n{}\n  ],\n  \"real_sweep\": [\n{}\n  ],\n  \
         \"collapse\": [\n{}\n  ]\n}}\n",
        sim_json.join(",\n"),
        real_json.join(",\n"),
        lines.join(",\n"),
    );
    std::fs::write(&out, &payload).expect("write BENCH_listio.json");
    println!(
        "\nwrote {out}\nexpected shape: one aggregated request per server replaces \
         one request per chunk — ≥5x fewer server requests at 4+ workers, \
         byte-identical reads"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// (scheme, workers, requests off, requests on) pairs from the sim sweep.
fn sim_collapse(cells: &[SimCell]) -> Vec<(&'static str, u32, u64, u64)> {
    pair_up(
        cells
            .iter()
            .map(|c| (c.scheme, c.workers, c.list_io, c.server_reads)),
    )
}

/// Same pairs from the real sweep.
fn real_collapse(cells: &[RealCell]) -> Vec<(&'static str, u32, u64, u64)> {
    pair_up(
        cells
            .iter()
            .map(|c| (c.scheme, c.workers as u32, c.list_io, c.requests)),
    )
}

fn pair_up(
    it: impl Iterator<Item = (&'static str, u32, bool, u64)>,
) -> Vec<(&'static str, u32, u64, u64)> {
    let all: Vec<_> = it.collect();
    let mut out = Vec::new();
    for &(scheme, workers, list_io, off) in &all {
        if list_io {
            continue;
        }
        let on = all
            .iter()
            .find(|&&(s, w, l, _)| s == scheme && w == workers && l)
            .expect("on arm")
            .3;
        out.push((scheme, workers, off, on));
    }
    out
}
