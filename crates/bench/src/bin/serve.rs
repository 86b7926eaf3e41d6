//! Serving-layer benchmark, real engine and simulator. Prints three tables
//! and writes them to `BENCH_serve.json`, which CI archives.
//!
//! * **cap table** — a scan-bound query stream served by [`serve_batched`]
//!   (one resident pool per call) at batch caps 1, 2, 4 and 8; every
//!   query's answer is asserted independent of its cap, and cap 4 must
//!   out-serve cap 1.
//! * **daemon table** — the same queries through one [`NetServer`] shard
//!   and a [`BlastRunner`] over 4 PVFS servers paced by
//!   [`Scheme::set_io_throttle`], so a cap-1 pass is I/O-bound. `C1` is
//!   the daemon's closed-loop rate at `max_batch` 1, where every queued
//!   query is a full batch and both exec lanes run. The same open-loop
//!   Poisson arrivals at 1.45 × `C1` then meet `max_batch` 1 and 8;
//!   latency runs from each query's scheduled arrival, and the database
//!   bytes are those the store delivered, counted by a [`Tracer`] per
//!   run. Every answer must equal the in-process oracle, the daemon's
//!   own byte counter must equal the traced bytes, and cap 8 must read
//!   at most [`SWEEP_PREDICTED_VS_CAP1`] of cap 1's bytes with a lower
//!   p95 (EXPERIMENTS.md, "Serving sweep").
//! * **simulated sweep** — batch cap × offered load × scheme, with
//!   Poisson arrivals on the calibrated simulator.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, median, open_loop, print_table};
use parblast_core::blast::{DbStats, Program, SearchParams};
use parblast_core::experiments::{serve_sweep, ServeRow, NT_BYTES, SERVE_SEARCH_RATE};
use parblast_core::hwsim::poisson_arrivals;
use parblast_core::mpiblast::{IoKind, ParallelBlast, Parallelization, Scheme, Tracer};
use parblast_core::net::{
    BlastRunner, ClientConfig, ClientError, NetClient, NetServer, ServerConfig, StatsSnapshot,
};
use parblast_core::pvfs::RetryPolicy;
use parblast_core::seqdb::blastdb::SeqType;
use parblast_core::seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};
use parblast_core::serve::serve_batched;
use parblast_core::simcore::{SimRng, SimTime};

const LOADS: [f64; 2] = [0.7, 1.45];
const BATCH_CAPS: [usize; 4] = [1, 2, 4, 8];
/// The daemon table's caps: unbatched against the daemon's largest
/// fused batch.
const DAEMON_CAPS: [usize; 2] = [1, 8];
const WORKERS: usize = 4;
const FRAGMENTS: u32 = 8;
/// Residues of the daemon table's database.
const DAEMON_RESIDUES: u64 = 4_000_000;
/// The daemon table's store: 4 PVFS servers of 64 KiB stripes, each paced
/// to this many bytes/s.
const SERVERS: usize = 4;
const SERVER_BYTES_PER_S: u64 = 16 << 20;
/// Client connections, each blocking on one query at a time; arrivals are
/// dealt round-robin, so at most this many queries wait at once and a
/// queue of this size never sheds.
const CLIENTS: usize = 16;
/// Offered load of the open-loop runs, as a multiple of `C1`.
const LOAD: f64 = 1.45;
const ARRIVAL_SEED: u64 = 2003;
/// The most of cap 1's database bytes cap 8 may read in the daemon table:
/// what the simulated sweep predicts for the same case. Its over-PVFS row
/// at load 1.45, B = 8 has `io_savings` 1.852, and 1 / 1.852 = 0.540.
const SWEEP_PREDICTED_VS_CAP1: f64 = 0.540;

/// One table row as `(column, value)` pairs: printed under `column` and
/// written to the JSON as a field of that name.
type Row = Vec<(&'static str, String)>;

fn print_rows(rows: &[Row]) {
    let columns: Vec<&str> = rows[0].iter().map(|(k, _)| *k).collect();
    let values: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|(_, v)| v.clone()).collect())
        .collect();
    print_table(&columns, &values);
}

fn json_rows(rows: &[Row]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = r.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!("[\n{}\n  ]", objects.join(",\n"))
}

/// A synthetic `nt`-like database of `residues` cut into `FRAGMENTS`
/// formatted fragments: its statistics and each fragment's name and bytes.
fn fragments(base: &Path, residues: u64) -> (DbStats, Vec<(String, Vec<u8>)>) {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed: 11,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    let db = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    let infos =
        segment_into_fragments(base, "nt", SeqType::Nucleotide, FRAGMENTS, seqs).expect("segment");
    let frags = infos
        .iter()
        .map(|info| {
            let name = info.path.file_name().expect("fragment name");
            let bytes = std::fs::read(&info.path).expect("fragment bytes");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect();
    (db, frags)
}

/// A traced job over `scheme` with `frags` loaded into it.
fn job(scheme: Scheme, db: DbStats, frags: &[(String, Vec<u8>)]) -> ParallelBlast {
    for (name, bytes) in frags {
        scheme.load_fragment(name, bytes).expect("load fragment");
    }
    ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db,
        fragments: frags.iter().map(|(name, _)| name.clone()).collect(),
        workers: WORKERS,
        scheme,
        tracer: Tracer::new(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch: true,
        list_io: false,
    }
}

/// Scan-bound mix: queries from an independent stream, so nearly every
/// subject is a seed-scan miss and a shared pass amortizes the dominant
/// cost.
fn scan_bound_queries(n: usize) -> Vec<Vec<u8>> {
    let mut qgen = SyntheticNt::new(SyntheticConfig {
        total_residues: 64_000,
        min_len: 600,
        seed: 4242,
        ..Default::default()
    });
    (0..n)
        .map(|i| {
            let src = qgen.next().expect("query stream").1;
            extract_query(&src, 568.min(src.len()), 0.03, 300 + i as u64)
        })
        .collect()
}

/// Serve `queries` at every batch cap through one resident pool per
/// call; assert that no query's answer depends on the cap. The timed
/// reps go round the caps in turn, so a drift in the machine's speed
/// falls on every cap alike. Cap 4 must out-serve cap 1: sharing the
/// scan must pay.
fn cap_table(job: &ParallelBlast, queries: &[Vec<u8>], reps: usize) -> Vec<Row> {
    let one_by_one = serve_batched(job, queries, 1).expect("serve").per_query;
    // The warmup runs double as the identity check for each cap.
    let firsts: Vec<_> = BATCH_CAPS
        .iter()
        .map(|&cap| {
            let first = serve_batched(job, queries, cap).expect("serve");
            assert_eq!(
                first.per_query, one_by_one,
                "cap {cap}: a query's answer must not depend on its batch"
            );
            first
        })
        .collect();
    let mut times = vec![Vec::with_capacity(reps); BATCH_CAPS.len()];
    for _ in 0..reps {
        for (i, &cap) in BATCH_CAPS.iter().enumerate() {
            let again = serve_batched(job, queries, cap).expect("serve");
            assert_eq!(again.per_query, one_by_one, "cap {cap}: unstable serving");
            times[i].push(again.wall_s);
        }
    }
    let fused_s: Vec<f64> = times.into_iter().map(median).collect();
    let qps: Vec<f64> = fused_s.iter().map(|s| queries.len() as f64 / s).collect();
    assert!(
        qps[2] > qps[0],
        "batch cap 4 must out-serve cap 1: {:.2} vs {:.2} queries/s",
        qps[2],
        qps[0]
    );
    BATCH_CAPS
        .iter()
        .enumerate()
        .map(|(i, cap)| {
            vec![
                ("max_batch", cap.to_string()),
                ("fused_s", format!("{:.4}", fused_s[i])),
                ("fused_qps", format!("{:.3}", qps[i])),
                ("kernel_passes", firsts[i].kernel_passes.to_string()),
                ("passes_saved", firsts[i].passes_saved.to_string()),
            ]
        })
        .collect()
}

/// What the clients of one daemon run saw, and what the daemon counted
/// and read.
struct DaemonRun {
    /// Client latencies of the answered queries, milliseconds, sorted.
    latencies_ms: Vec<f64>,
    sheds: u64,
    stats: StatsSnapshot,
    /// Database bytes the store delivered to the run's fetches.
    traced_bytes: u64,
    wall_s: f64,
}

impl DaemonRun {
    /// Nearest-rank percentile; 0 when nothing was answered.
    fn pct(&self, p: f64) -> f64 {
        let i = (p * self.latencies_ms.len() as f64).ceil() as usize;
        let at = self.latencies_ms.get(i.saturating_sub(1));
        at.copied().unwrap_or(0.0)
    }
}

/// What every daemon run of the table shares: the paced job, the queries
/// and their in-process answers.
struct Daemon<'a> {
    job: ParallelBlast,
    bytes_per_pass: u64,
    queries: &'a [Vec<u8>],
    oracle: Vec<String>,
}

/// A fresh daemon at batch cap `cap`; the client threads send `arrivals`
/// (one query each, `queries[i % len]`) round-robin. With `arrivals` all
/// zero this is a closed loop: each client sends its next query as soon
/// as the last is answered. Every answer is checked against the oracle.
fn daemon_run(d: &Daemon, cap: usize, arrivals: &[SimTime]) -> DaemonRun {
    let config = ServerConfig {
        shards: 1,
        queue_capacity: CLIENTS,
        max_batch: cap,
        quota: None,
        ..Default::default()
    };
    let tracer = Tracer::new();
    let job = ParallelBlast {
        tracer: tracer.clone(),
        ..d.job.clone()
    };
    let runner = Arc::new(BlastRunner::new(job, d.bytes_per_pass));
    let handle = NetServer::start("127.0.0.1:0", config, runner).expect("start daemon");
    let addr = handle.addr().to_string();
    let latencies_ms = Mutex::new(Vec::with_capacity(arrivals.len()));
    let sheds = Mutex::new(0u64);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (addr, latencies_ms, sheds) = (&addr, &latencies_ms, &sheds);
            s.spawn(move || {
                let mine: Vec<usize> = (c..arrivals.len()).step_by(CLIENTS).collect();
                let times: Vec<_> = mine.iter().map(|&i| arrivals[i]).collect();
                let config = ClientConfig {
                    retry: RetryPolicy::disabled(),
                    ..Default::default()
                };
                let mut client = NetClient::connect_with(addr, config).expect("connect");
                open_loop(start, &times, |k, due| {
                    let q = mine[k] % d.queries.len();
                    match client.query(&d.queries[q]) {
                        Ok(bytes) => {
                            assert!(
                                bytes == d.oracle[q].as_bytes(),
                                "cap {cap}: arrival {} answered unlike serve_batched",
                                mine[k]
                            );
                            let ms = due.elapsed().as_secs_f64() * 1e3;
                            latencies_ms.lock().expect("latencies").push(ms);
                        }
                        Err(ClientError::Shed { .. }) => *sheds.lock().expect("sheds") += 1,
                        Err(e) => panic!("cap {cap}: arrival {}: {e:?}", mine[k]),
                    }
                    true
                });
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = NetClient::connect(&addr)
        .expect("admin connect")
        .stats()
        .expect("StatsReply");
    handle.drain();
    handle.join();
    let traced_bytes = tracer
        .events()
        .iter()
        .filter(|e| e.kind == IoKind::Read)
        .map(|e| e.bytes)
        .sum();
    let mut latencies_ms = latencies_ms.into_inner().expect("latencies");
    latencies_ms.sort_by(f64::total_cmp);
    let sheds = sheds.into_inner().expect("sheds");
    assert_eq!(
        latencies_ms.len() as u64 + sheds,
        arrivals.len() as u64,
        "cap {cap}: every arrival is answered or shed"
    );
    assert_eq!(
        latencies_ms.len() as u64,
        stats.served,
        "cap {cap}: served counts disagree"
    );
    assert_eq!(
        stats.bytes_read, traced_bytes,
        "cap {cap}: the daemon's byte counter disagrees with the bytes the store delivered"
    );
    DaemonRun {
        latencies_ms,
        sheds,
        stats,
        traced_bytes,
        wall_s,
    }
}

/// Run and print the daemon table over `queries`, `n` open-loop arrivals
/// per cap; return it as a JSON object.
fn daemon_table(base: &Path, queries: &[Vec<u8>], n: usize) -> String {
    let (db, frags) = fragments(&base.join("daemon_fmt"), DAEMON_RESIDUES);
    let bytes_per_pass: u64 = frags.iter().map(|(_, b)| b.len() as u64).sum();
    let scheme = Scheme::pvfs_at(&base.join("daemon_io"), SERVERS, 64 << 10).expect("pvfs");
    let job = job(scheme, db, &frags);
    // The oracle runs unpaced; the daemon's passes are paced.
    let oracle = serve_batched(&job, queries, 8).expect("oracle").per_query;
    job.scheme.set_io_throttle(SERVER_BYTES_PER_S);
    let daemon = Daemon {
        job,
        bytes_per_pass,
        queries,
        oracle,
    };
    let closed = daemon_run(&daemon, 1, &vec![SimTime::ZERO; n / 2]);
    let c1 = closed.stats.served as f64 / closed.wall_s;
    let rate = LOAD * c1;
    let arrivals = poisson_arrivals(rate, n, &mut SimRng::new(ARRIVAL_SEED));
    let runs: Vec<DaemonRun> = DAEMON_CAPS
        .iter()
        .map(|&cap| daemon_run(&daemon, cap, &arrivals))
        .collect();
    let (b1, b8) = (&runs[0], &runs[1]);
    let rows: Vec<Row> = DAEMON_CAPS
        .iter()
        .zip(&runs)
        .map(|(cap, r)| {
            let mean_batch = r.stats.served as f64 / r.stats.batches.max(1) as f64;
            let saved = b1.traced_bytes.saturating_sub(r.traced_bytes);
            let vs_cap1 = r.traced_bytes as f64 / b1.traced_bytes.max(1) as f64;
            vec![
                ("max_batch", cap.to_string()),
                ("served", r.stats.served.to_string()),
                ("sheds", r.sheds.to_string()),
                ("batches", r.stats.batches.to_string()),
                ("mean_batch", format!("{mean_batch:.2}")),
                ("bytes_read", r.traced_bytes.to_string()),
                ("bytes_saved", saved.to_string()),
                ("bytes_vs_cap1", format!("{vs_cap1:.3}")),
                ("p50_ms", format!("{:.1}", r.pct(0.50))),
                ("p95_ms", format!("{:.1}", r.pct(0.95))),
                ("p99_ms", format!("{:.1}", r.pct(0.99))),
            ]
        })
        .collect();
    // Batching must share reads, at least as well as the simulated sweep
    // predicts, and must shorten the tail.
    assert!(
        b8.traced_bytes < b1.traced_bytes,
        "cap 8 must read fewer database bytes than cap 1: {} vs {}",
        b8.traced_bytes,
        b1.traced_bytes
    );
    let vs_cap1 = b8.traced_bytes as f64 / b1.traced_bytes as f64;
    assert!(
        vs_cap1 <= SWEEP_PREDICTED_VS_CAP1,
        "cap 8 must read at most {SWEEP_PREDICTED_VS_CAP1:.3} of cap 1's bytes: {vs_cap1:.3} \
         ({} batches of mean {:.2}, C1 = {c1:.1} q/s)",
        b8.stats.batches,
        b8.stats.served as f64 / b8.stats.batches.max(1) as f64
    );
    assert!(
        b8.pct(0.95) < b1.pct(0.95),
        "cap 8 must have the lower p95: {:.0} vs {:.0} ms",
        b8.pct(0.95),
        b1.pct(0.95)
    );
    let json = format!(
        "{{\"residues\": {DAEMON_RESIDUES}, \"servers\": {SERVERS}, \"server_bytes_per_s\": \
         {SERVER_BYTES_PER_S}, \"bytes_per_pass\": {bytes_per_pass}, \"clients\": {CLIENTS}, \
         \"c1_qps\": {c1:.2}, \"load\": {LOAD}, \"offered_qps\": {rate:.2}, \"arrivals\": {n}, \
         \"arrival_seed\": {ARRIVAL_SEED}, \"identical_to_serve_batched\": true, \"rows\": {}}}",
        json_rows(&rows)
    );
    println!(
        "\nDaemon table: one shard over {SERVERS} PVFS servers paced to {} MiB/s each, \
         {bytes_per_pass} bytes a pass; C1 = {c1:.1} q/s closed loop at B=1; {n} Poisson \
         arrivals at {LOAD} x C1 = {rate:.1} q/s from {CLIENTS} clients\n",
        SERVER_BYTES_PER_S >> 20,
    );
    print_rows(&rows);
    json
}

fn json(rows: &[ServeRow], db: u64, queries: u64, capacity: u64) -> String {
    let pct = |p: &parblast_core::simcore::Percentiles| {
        format!(
            "{{\"p50\":{:.4},\"p95\":{:.4},\"p99\":{:.4}}}",
            p.p50, p.p95, p.p99
        )
    };
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"scheme\":\"{}\",\"load\":{},\"max_batch\":{},\"arrival_qps\":{:.5},\
                 \"service_s\":{:.4},\"served\":{},\"rejected\":{},\"expired\":{},\
                 \"batches\":{},\"mean_batch\":{:.3},\"bytes_read\":{},\
                 \"bytes_unbatched\":{},\"io_savings\":{:.3},\"throughput_qps\":{:.5},\
                 \"duration_s\":{:.2},\"mean_wait_s\":{:.3},\"mean_latency_s\":{:.3},\
                 \"scan_s_mean\":{:.3},\"search_s_mean\":{:.3},\
                 \"wait_s\":{},\"latency_s\":{}}}",
                r.scheme,
                r.load,
                r.max_batch,
                r.arrival_qps,
                r.service_s,
                r.report.served,
                r.report.rejected,
                r.report.expired,
                r.report.batches,
                r.report.mean_batch,
                r.report.bytes_read,
                r.report.bytes_unbatched,
                r.report.io_savings(),
                r.report.throughput_qps,
                r.report.duration_s,
                r.report.mean_wait_s,
                r.report.mean_latency_s,
                r.report.scan_s_mean,
                r.report.search_s_mean,
                pct(&r.report.wait),
                pct(&r.report.latency),
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"serve\",\n  \"db_bytes\": {db},\n  \
         \"search_rate\": {SERVE_SEARCH_RATE},\n  \"queries\": {queries},\n  \
         \"capacity\": {capacity},\n  \"rows\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    )
}

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    let queries = arg_u64("--queries", 200) as usize;
    let capacity = arg_u64("--capacity", 4096) as usize;
    let residues = arg_u64("--residues", 2_000_000);
    let real_queries = arg_u64("--real-queries", 32) as usize;
    let reps = arg_u64("--reps", 3) as usize;
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let base = std::env::temp_dir().join(format!("serve_bench_{}", std::process::id()));
    let real = scan_bound_queries(real_queries);
    let (rdb, frags) = fragments(&base.join("fmt"), residues);
    let scheme = Scheme::local_at(&base.join("io"), WORKERS).expect("local scheme");
    let cap_rows = cap_table(&job(scheme, rdb, &frags), &real, reps);
    println!(
        "Cap table: {real_queries} scan-bound queries served at each batch cap on one \
         resident pool, median of {reps} reps\n"
    );
    print_rows(&cap_rows);
    let daemon = daemon_table(&base, &real, queries);
    std::fs::remove_dir_all(&base).ok();
    println!();

    let rows = serve_sweep(db, &LOADS, &BATCH_CAPS, queries, capacity);
    println!("Serving sweep: scan-sharing batch cap x offered load x scheme");
    println!(
        "database: {:.2} GB, {} Poisson arrivals per cell, queue capacity {}\n",
        db as f64 / 1e9,
        queries,
        capacity
    );
    print_table(
        &[
            "scheme",
            "load",
            "B",
            "qps",
            "served",
            "batches",
            "mean B",
            "IO saved",
            "p50 (s)",
            "p95 (s)",
            "p99 (s)",
            "thr (q/s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scheme.to_string(),
                    format!("{:.2}", r.load),
                    r.max_batch.to_string(),
                    format!("{:.3}", r.arrival_qps),
                    r.report.served.to_string(),
                    r.report.batches.to_string(),
                    format!("{:.2}", r.report.mean_batch),
                    format!("{:.2}x", r.report.io_savings()),
                    format!("{:.1}", r.report.latency.p50),
                    format!("{:.1}", r.report.latency.p95),
                    format!("{:.1}", r.report.latency.p99),
                    format!("{:.3}", r.report.throughput_qps),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let mut payload = json(&rows, db, queries as u64, capacity as u64);
    let marker = "\n  \"rows\": [";
    let at = payload.find(marker).expect("rows marker");
    payload.insert_str(
        at,
        &format!(
            "\n  \"real_engine\": {},\n  \"daemon\": {daemon},",
            json_rows(&cap_rows)
        ),
    );
    std::fs::write(&out, &payload).expect("write BENCH_serve.json");
    println!(
        "\nwrote {out}\nchecked: no answer depends on its batch cap and cap 4 out-serves cap 1; \
         every daemon answer equals in-process serve_batched byte for byte, the daemon's byte \
         counter equals the traced store reads, and cap 8 reads at most \
         {SWEEP_PREDICTED_VS_CAP1:.3} of cap 1's bytes (the simulated sweep's prediction) with \
         the lower p95"
    );
}
