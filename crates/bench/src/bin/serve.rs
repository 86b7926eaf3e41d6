//! Serving-layer benchmark, two tiers:
//!
//! * **real engine** — a scan-bound query stream served through
//!   [`ParallelBlast::run_batch`] at batch caps {1, 2, 4, 8}: served
//!   queries/s per cap, every query's hits asserted independent of the
//!   cap it was served under. (The per-query kernel this used to be set
//!   against is gone; its last numbers are in EXPERIMENTS.md, "Retired
//!   paths".)
//! * **simulated sweep** — batch cap × offered load × scheme, with
//!   Poisson arrivals on the calibrated simulator.
//!
//! Prints both tables and writes the machine-readable `BENCH_serve.json`
//! that CI archives.

use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, print_table};
use parblast_core::blast::{DbStats, Program, SearchParams};
use parblast_core::experiments::{serve_sweep, ServeRow, NT_BYTES, SERVE_SEARCH_RATE};
use parblast_core::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast_core::seqdb::blastdb::SeqType;
use parblast_core::seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};

const LOADS: [f64; 2] = [0.7, 1.45];
const BATCH_CAPS: [usize; 4] = [1, 2, 4, 8];

/// One real-engine cell: the query stream served at one batch cap.
struct RealCell {
    max_batch: usize,
    fused_s: f64,
    fused_qps: f64,
    kernel_passes: u64,
    passes_saved: u64,
}

/// Serve a scan-bound query stream through the real thread-pool runner at
/// every batch cap; assert that no query's hits depend on the cap.
fn real_engine_bench(residues: u64, nqueries: usize, reps: usize) -> Vec<RealCell> {
    let base = std::env::temp_dir().join(format!("serve_bench_{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("bench tmpdir");
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
    // Scan-bound mix: queries from an independent stream, so nearly every
    // subject is a seed-scan miss and the fused pass amortizes the
    // dominant cost.
    let mut qgen = SyntheticNt::new(SyntheticConfig {
        total_residues: 64_000,
        min_len: 600,
        seed: 4242,
        ..Default::default()
    });
    let queries: Vec<Vec<u8>> = (0..nqueries)
        .map(|i| {
            let src = qgen.next().expect("query stream").1;
            extract_query(&src, 568.min(src.len()), 0.03, 300 + i as u64)
        })
        .collect();
    let scheme = Scheme::local_at(&base.join("io"), 4).expect("local scheme");
    let infos = segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 8, seqs)
        .expect("segment");
    let mut fragments = vec![];
    for info in infos {
        let bytes = std::fs::read(&info.path).expect("fragment bytes");
        let name = info
            .path
            .file_name()
            .expect("fragment name")
            .to_string_lossy()
            .into_owned();
        scheme.load_fragment(&name, &bytes).expect("load fragment");
        fragments.push(name);
    }
    let job = ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db,
        fragments,
        workers: 4,
        scheme,
        tracer: Tracer::new(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch: true,
        list_io: false,
    };
    let serve = |cap: usize| -> (Vec<String>, f64, u64, u64) {
        let t0 = Instant::now();
        let (mut outs, mut kp, mut ps) = (Vec::new(), 0u64, 0u64);
        for chunk in queries.chunks(cap) {
            let out = job.run_batch(chunk).expect("batch");
            kp += out.kernel_passes;
            ps += out.passes_saved;
            for hits in &out.per_query {
                outs.push(format!("{hits:?}"));
            }
        }
        (outs, t0.elapsed().as_secs_f64(), kp, ps)
    };
    let (one_by_one, _, _, _) = serve(1);
    let mut cells = Vec::new();
    for &cap in &BATCH_CAPS {
        // The warmup run doubles as the identity check for this cell.
        let (served, _, kernel_passes, passes_saved) = serve(cap);
        assert_eq!(
            served, one_by_one,
            "cap {cap}: a query's hits must not depend on its batch"
        );
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (again, t, _, _) = serve(cap);
            assert_eq!(again, served, "cap {cap}: unstable serving");
            times.push(t);
        }
        times.sort_by(f64::total_cmp);
        let fused_s = times[reps / 2];
        cells.push(RealCell {
            max_batch: cap,
            fused_s,
            fused_qps: nqueries as f64 / fused_s,
            kernel_passes,
            passes_saved,
        });
    }
    std::fs::remove_dir_all(&base).ok();
    cells
}

fn real_json(cells: &[RealCell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"max_batch\": {}, \"fused_s\": {:.4}, \"fused_qps\": {:.3}, \
                 \"kernel_passes\": {}, \"passes_saved\": {}, \"identical_hits\": true}}",
                c.max_batch, c.fused_s, c.fused_qps, c.kernel_passes, c.passes_saved,
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
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

    let cells = real_engine_bench(residues, real_queries, reps);
    println!(
        "Real engine: {real_queries} scan-bound queries served at each batch cap, \
         median of {reps} reps\n"
    );
    print_table(
        &["B", "time (s)", "served q/s", "passes", "saved"],
        &cells
            .iter()
            .map(|c| {
                vec![
                    c.max_batch.to_string(),
                    format!("{:.3}", c.fused_s),
                    format!("{:.2}", c.fused_qps),
                    c.kernel_passes.to_string(),
                    c.passes_saved.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // Sharing the scan must pay: cap 4 serves more queries/s than cap 1.
    let qps = |cap| {
        let cell = cells.iter().find(|c: &&RealCell| c.max_batch == cap);
        cell.expect("cell").fused_qps
    };
    assert!(
        qps(4) > qps(1),
        "batch cap 4 must out-serve cap 1: {:.2} vs {:.2} queries/s",
        qps(4),
        qps(1)
    );
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
    payload.insert_str(at, &format!("\n  \"real_engine\": {},", real_json(&cells)));
    std::fs::write(&out, &payload).expect("write BENCH_serve.json");
    println!(
        "\nwrote {out}\nexpected shape: served queries/s grows with the batch cap on the \
         real engine; in the sweep, unbatched serving saturates at load 1.45 \
         while batch caps >= 4 cut database reads >= 2x and improve p95 under every scheme"
    );
}
