//! `batch_original` / `batch_pvfs` / `batch_ceft`: the paper's job. One
//! 568-nt query against a 128 M-residue database in 8 fragments, two
//! workers with prefetch, jobs run back to back under one I/O scheme whose
//! data servers are paced to 8 MB/s each.

use std::io;
use std::time::Instant;

use parblast_core::blast::{tabular, MAX_FUSED_BATCH};
use parblast_core::mpiblast::{RunOutcome, Scheme};

use crate::metrics::{Metrics, Outcome};
use crate::replay::{self, Replay};
use crate::stage::{self, SchemeKind, WORKERS};
use crate::trace::Recorder;
use crate::util::{
    cpu_seconds, mean, median, peak_rss_mb, percentile, reset_peak_rss, since, RssSampler,
};
use crate::{gen, probes, Ctx};

const RESIDUES: u64 = 128 << 20;
const FRAGMENTS: u32 = 8;
/// Modelled disk rate per data server, bytes/s.
const THROTTLE: u64 = 8_000_000;
/// Distinct queries the jobs of one run cycle through. One query's search
/// cost varies by ±20% with its composition; a run that used a single
/// query would measure that query, not the scheme.
const QUERIES: usize = 2 * MAX_FUSED_BATCH;

fn server_requests(scheme: &Scheme) -> u64 {
    match scheme {
        Scheme::Local { .. } => 0,
        Scheme::Pvfs(st) => st.server_requests(),
        Scheme::Ceft(st) => st.server_requests(),
    }
}

/// Max over mean of per-worker search seconds: 1 = perfectly even.
fn imbalance(out: &RunOutcome) -> f64 {
    let mut per_worker = [0.0f64; WORKERS];
    for &(w, s) in &out.per_fragment {
        per_worker[w] += s;
    }
    let max = per_worker.iter().cloned().fold(0.0, f64::max);
    max / mean(&per_worker)
}

pub fn run(kind: SchemeKind, ctx: &Ctx) -> io::Result<Outcome> {
    let db = gen::random_db(RESIDUES, ctx.seed);
    let stats = db.stats();
    let queries = gen::db_queries(&db, QUERIES, ctx.seed);
    ctx.phase("generate");

    let (setup_s, staged) = ctx.setups(|base| stage::setup(kind, base, &db, FRAGMENTS), |_| ())?;
    drop(db);
    let fragments = staged.fragments;
    staged.scheme.set_io_throttle(THROTTLE);
    let job = stage::job(staged.scheme, &fragments, stats, WORKERS, true);
    ctx.phase("set up");

    // Oracle: every query's report from a separately staged original
    // store, no prefetch, through the fused batch kernel — another store,
    // another schedule and another kernel than the measured jobs use.
    let local = stage::load(SchemeKind::Original, &ctx.dir.join("reference"), &fragments)?;
    let reference_job = stage::job(local, &fragments, stats, WORKERS, false);
    let mut reference: Vec<Vec<u8>> = Vec::with_capacity(QUERIES);
    for chunk in queries.chunks(MAX_FUSED_BATCH) {
        for hits in reference_job.run_batch(chunk)?.per_query {
            reference.push(tabular("query", &hits).into_bytes());
        }
    }
    job.run(&queries[0])?; // warm-up
    ctx.phase("oracle and warm-up");

    let rec = Recorder::new();
    let mut m = Metrics::default();
    let mut outs: Vec<RunOutcome> = Vec::new();
    let mut failed = 0u64;
    reset_peak_rss();
    let rss = ctx.traced.then(RssSampler::start);
    let requests0 = server_requests(&job.scheme);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    // A traced run records one span per job in the second half of the
    // window; the rate difference between the halves is its overhead.
    let (mut plain, mut plain_s) = (0usize, 0.0);
    while t0.elapsed() < ctx.window {
        let spanned = ctx.traced && t0.elapsed() >= ctx.window / 2;
        let q = outs.len() % QUERIES;
        let start = Instant::now();
        let out = job.run(&queries[q])?;
        if spanned {
            rec.record(
                "mpiblast.run",
                start,
                Instant::now(),
                None,
                outs.len() as u64,
            );
        } else {
            (plain, plain_s) = (plain + 1, since(t0));
        }
        if tabular("query", &out.hits).as_bytes() != reference[q] {
            failed += 1;
        }
        outs.push(out);
    }
    let elapsed = since(t0);
    let cpu = cpu_seconds() - cpu0;
    let jobs = outs.len();
    let mut job_ms: Vec<f64> = outs.iter().map(|o| o.wall_s * 1e3).collect();

    let p50_ms = median(&mut job_ms);
    m.set("setup_s", setup_s);
    m.set("query_p50_ms", p50_ms);
    m.set("served_qps", jobs as f64 / elapsed);
    m.set("cpu_ms_per_query", cpu * 1e3 / jobs as f64);
    let rss_mb = rss.map(RssSampler::stop);
    eprintln!(
        "window: {jobs} jobs sent, {} ok, {failed} failed",
        jobs as u64 - failed
    );
    ctx.phase("window");

    if ctx.traced {
        let per_job = |f: fn(&RunOutcome) -> f64| mean(&outs.iter().map(f).collect::<Vec<_>>());
        let fetch = per_job(|o| o.io_fetch_s);
        let stall = per_job(|o| o.io_stall_s);
        m.set("query_p95_ms", percentile(&mut job_ms, 95.0));
        m.set("rss_mb", rss_mb.expect("a traced run samples its RSS"));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("mpiblast.run_batch_ms_p50", p50_ms);
        m.set("mpiblast.io_fetch_s", fetch);
        m.set("mpiblast.io_stall_s", stall);
        m.set("mpiblast.io_hidden_frac", 1.0 - stall / fetch);
        m.set("mpiblast.copy_s", per_job(|o| o.copy_s));
        m.set("mpiblast.worker_imbalance", per_job(imbalance));
        let requests = server_requests(&job.scheme) - requests0;
        m.set("pio.server_requests_per_job", requests as f64 / jobs as f64);
        if kind != SchemeKind::Original {
            let device = p50_ms / 1e3 * (kind.servers() as u64 * THROTTLE) as f64;
            m.set(
                "pio.frac_of_device",
                stage::total_bytes(&fragments) as f64 / device,
            );
        }
        if let Some(f) = replay::overhead_frac((plain, plain_s), (jobs - plain, elapsed - plain_s))
        {
            m.set("trace.overhead_frac", f);
        }
        let format_mbps = stage::total_bytes(&fragments) as f64 / 1e6 / staged.format_s;
        m.set("seqdb.format_mbps", format_mbps);

        let batch = &queries[..1];
        probes::run(
            &ctx.dir,
            kind,
            &fragments,
            batch,
            reference[0].len(),
            false,
            &mut m,
        )?;
        let replay = Replay {
            rec: &rec,
            scheme: &job.scheme,
            fragments: &job.fragments,
            db: stats,
            daemon: false,
        };
        let (payloads, unpacks) = replay.run(0, batch)?;
        if payloads[0] != reference[0] {
            failed += 1;
            eprintln!("replay: payload differs from the oracle");
        }
        // What `ParallelBlast` adds around its stages: one worker, no
        // prefetch, so nothing overlaps and the stages simply add up.
        let serial = stage::job(job.scheme.clone(), &fragments, stats, 1, false);
        let serial_s = serial.run(&batch[0])?.wall_s;
        replay::ledger(&rec, &payloads, unpacks, stats.residues, serial_s, &mut m);
        rec.write_json(&ctx.trace_path())?;
        ctx.phase("probes and replay");
    }

    Ok(Outcome {
        attempted: jobs as u64 + ctx.traced as u64,
        failed,
        metrics: m,
    })
}
