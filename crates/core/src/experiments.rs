//! Experiment harness: one function per figure of the paper's evaluation
//! (§4), each returning structured rows that the `parblast-bench` binaries
//! print and EXPERIMENTS.md records.
//!
//! Timing experiments (Figures 5–9) run on the calibrated simulator at the
//! paper's full 2.7 GB scale; the I/O-characterization experiment
//! (Figure 4) runs the *real* engine on a scaled synthetic database.

use std::path::Path;

use parblast_blast::{DbStats, Program, SearchParams};
use parblast_mpiblast::{
    run_simblast, ParallelBlast, Parallelization, Scheme, SimBlastConfig, SimScheme, TraceSummary,
    Tracer,
};
use parblast_seqdb::{
    extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
};

/// Paper database size (nt, 2.7 GB).
pub const NT_BYTES: u64 = 2_700_000_000;

fn sim_base(workers: u32, nodes: usize, scheme: SimScheme) -> SimBlastConfig {
    SimBlastConfig {
        nodes,
        workers,
        fragments: workers,
        db_bytes: NT_BYTES,
        scheme,
        master_node: (nodes - 1) as u32,
        ..Default::default()
    }
}

/// §4.1 calibration: simulated Bonnie and Netperf numbers.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Sequential disk write bandwidth, MB/s (paper: 32).
    pub disk_write_mbs: f64,
    /// Sequential disk read bandwidth, MB/s (paper: 26).
    pub disk_read_mbs: f64,
    /// TCP stream bandwidth, MB/s (paper: ≈112).
    pub net_mbs: f64,
    /// CPU cost of saturating TCP, fraction of one CPU (paper: 0.47).
    pub net_cpu_fraction: f64,
}

/// Run the calibration micro-benchmarks on the simulated hardware.
pub fn calibration() -> Calibration {
    use parblast_hwsim::*;
    use parblast_simcore::*;

    // Bonnie: stream 256 MiB sequentially through one LocalFs.
    let measure_disk = |write: bool| -> f64 {
        let mut eng: Engine<Ev> = Engine::new(1);
        let c = Cluster::build(&mut eng, 1, HwParams::default());
        struct Streamer {
            fs: CompId,
            write: bool,
            offset: u64,
            total: u64,
            done_at: std::rc::Rc<std::cell::Cell<f64>>,
        }
        impl Component<Ev> for Streamer {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, _ev: Ev) {
                if self.offset >= self.total {
                    self.done_at.set(ctx.now().as_secs_f64());
                    return;
                }
                let len = (1u64 << 20).min(self.total - self.offset);
                let msg = if self.write {
                    FsMsg::Write {
                        file: 1,
                        offset: self.offset,
                        len,
                        sync: true,
                        reply_to: ctx.self_id(),
                        tag: 0,
                    }
                } else {
                    FsMsg::Read {
                        file: 1,
                        offset: self.offset,
                        len,
                        mmap: false,
                        unit: 0,
                        reply_to: ctx.self_id(),
                        tag: 0,
                    }
                };
                self.offset += len;
                ctx.send(self.fs, Ev::Fs(msg));
            }
        }
        let done_at = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let total = 256 * MIB;
        let s = eng.add(Streamer {
            fs: c.nodes[0].fs,
            write,
            offset: 0,
            total,
            done_at: done_at.clone(),
        });
        eng.schedule(SimTime::ZERO, s, Ev::Timer(0));
        eng.run();
        total as f64 / MIB as f64 / done_at.get()
    };

    // Netperf: stream 512 MiB between two nodes, measure bw + CPU tax.
    let (net_mbs, net_cpu_fraction) = {
        let mut eng: Engine<Ev> = Engine::new(1);
        let c = Cluster::build(&mut eng, 2, HwParams::default());
        struct Sink;
        impl Component<Ev> for Sink {
            fn on_event(&mut self, _ctx: &mut Ctx<'_, Ev>, _ev: Ev) {}
        }
        let sink = eng.add(Sink);
        let total = 512 * MIB;
        for i in 0..(total / MIB) {
            eng.schedule(
                SimTime::from_nanos(i),
                c.net,
                Ev::Net(NetSend {
                    src_node: 0,
                    dst_node: 1,
                    bytes: MIB,
                    dst: sink,
                    payload: Box::new(()),
                }),
            );
        }
        eng.run();
        let t = eng.now().as_secs_f64();
        let bw = total as f64 / MIB as f64 / t;
        let cpu = eng.component::<Cpu>(c.nodes[0].cpu).injected_work() / t;
        (bw, cpu)
    };

    Calibration {
        disk_write_mbs: measure_disk(true),
        disk_read_mbs: measure_disk(false),
        net_mbs,
        net_cpu_fraction,
    }
}

/// One Figure 5 row: same node count for both schemes.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Worker node count (nodes double as PVFS servers).
    pub nodes: u32,
    /// Original scheme execution time, seconds.
    pub t_original: f64,
    /// Over-PVFS execution time, seconds.
    pub t_pvfs: f64,
}

/// Average a configuration's makespan over a few seeds (the paper
/// averages repeated measurements; this removes compute-variability
/// noise from the comparison).
fn mean_makespan(cfg: &SimBlastConfig, seeds: &[u64]) -> f64 {
    let total: f64 = seeds
        .iter()
        .map(|&seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            run_simblast(&c).makespan_s
        })
        .sum();
    total / seeds.len() as f64
}

const SEEDS: [u64; 3] = [42, 1003, 77];

/// Figure 5: original vs over-PVFS under equal resources.
pub fn fig5(node_counts: &[u32], db_bytes: u64) -> Vec<Fig5Row> {
    node_counts
        .iter()
        .map(|&n| {
            let mut orig = sim_base(n, n as usize + 1, SimScheme::Original);
            orig.db_bytes = db_bytes;
            let mut pvfs = sim_base(
                n,
                n as usize + 1,
                SimScheme::Pvfs {
                    servers: (0..n).collect(),
                },
            );
            pvfs.db_bytes = db_bytes;
            Fig5Row {
                nodes: n,
                t_original: mean_makespan(&orig, &SEEDS),
                t_pvfs: mean_makespan(&pvfs, &SEEDS),
            }
        })
        .collect()
}

/// One Figure 6 cell.
#[derive(Debug, Clone)]
pub struct Fig6Cell {
    /// Worker count.
    pub workers: u32,
    /// PVFS data-server count (0 = the original baseline).
    pub servers: u32,
    /// Execution time, seconds.
    pub t: f64,
    /// Measured I/O fraction of the run.
    pub io_fraction: f64,
}

/// Figure 6: execution time across worker × server configurations, plus
/// the original baseline (`servers == 0` rows).
pub fn fig6(workers: &[u32], servers: &[u32], db_bytes: u64) -> Vec<Fig6Cell> {
    let mut out = Vec::new();
    for &w in workers {
        let mut orig = sim_base(w, w as usize + 1, SimScheme::Original);
        orig.db_bytes = db_bytes;
        let o = run_simblast(&orig);
        out.push(Fig6Cell {
            workers: w,
            servers: 0,
            t: o.makespan_s,
            io_fraction: o.io_fraction,
        });
        for &s in servers {
            let nodes = w.max(s) as usize + 1;
            let mut cfg = sim_base(
                w,
                nodes,
                SimScheme::Pvfs {
                    servers: (0..s).collect(),
                },
            );
            cfg.db_bytes = db_bytes;
            let r = run_simblast(&cfg);
            out.push(Fig6Cell {
                workers: w,
                servers: s,
                t: r.makespan_s,
                io_fraction: r.io_fraction,
            });
        }
    }
    out
}

/// One Figure 7 row.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Worker count.
    pub workers: u32,
    /// over-PVFS (8 data servers) execution time.
    pub t_pvfs: f64,
    /// over-CEFT-PVFS (4 mirroring 4) execution time.
    pub t_ceft: f64,
}

/// Figure 7: PVFS with 8 servers vs CEFT-PVFS with 4+4, varying workers.
pub fn fig7(workers: &[u32], db_bytes: u64) -> Vec<Fig7Row> {
    workers
        .iter()
        .map(|&w| {
            let mut pvfs = sim_base(
                w,
                9,
                SimScheme::Pvfs {
                    servers: (0..8).collect(),
                },
            );
            pvfs.db_bytes = db_bytes;
            let mut ceft = sim_base(
                w,
                9,
                SimScheme::Ceft {
                    primary: (0..4).collect(),
                    mirror: (4..8).collect(),
                },
            );
            ceft.db_bytes = db_bytes;
            Fig7Row {
                workers: w,
                t_pvfs: mean_makespan(&pvfs, &SEEDS),
                t_ceft: mean_makespan(&ceft, &SEEDS),
            }
        })
        .collect()
}

/// One Figure 9 row.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Scheme label.
    pub scheme: &'static str,
    /// Execution time without stress.
    pub t_clean: f64,
    /// Execution time with one stressed disk.
    pub t_stressed: f64,
    /// Degradation factor.
    pub factor: f64,
    /// CEFT parts redirected away from the hot server.
    pub skipped_parts: u64,
}

/// Figure 9: all three schemes, 8 workers / 8 data servers, with one
/// data-server disk stressed by the Figure 8 program.
pub fn fig9(db_bytes: u64) -> Vec<Fig9Row> {
    let schemes: Vec<(&'static str, SimScheme)> = vec![
        ("original", SimScheme::Original),
        (
            "over-PVFS",
            SimScheme::Pvfs {
                servers: (0..8).collect(),
            },
        ),
        (
            "over-CEFT-PVFS",
            SimScheme::Ceft {
                primary: (0..4).collect(),
                mirror: (4..8).collect(),
            },
        ),
    ];
    schemes
        .into_iter()
        .map(|(label, scheme)| {
            let mut cfg = sim_base(8, 9, scheme);
            cfg.db_bytes = db_bytes;
            let clean = run_simblast(&cfg);
            cfg.stress_nodes = vec![1];
            let hot = run_simblast(&cfg);
            Fig9Row {
                scheme: label,
                t_clean: clean.makespan_s,
                t_stressed: hot.makespan_s,
                factor: hot.makespan_s / clean.makespan_s,
                skipped_parts: hot.skipped_parts,
            }
        })
        .collect()
}

/// One read-ahead ablation cell: one scheme at one prefetch depth.
#[derive(Debug, Clone)]
pub struct ReadAheadCell {
    /// Scheme label.
    pub scheme: &'static str,
    /// Chunk read-ahead depth (0 = the paper's synchronous loop).
    pub depth: u32,
    /// Predicted execution time, seconds.
    pub makespan_s: f64,
    /// Speedup over the same scheme's synchronous run.
    pub speedup: f64,
}

/// Read-ahead ablation (DESIGN.md §11): the simulator's prediction of how
/// much of each scheme's I/O a double-buffered chunk pipeline hides, at 4
/// workers (PVFS on 4 servers, CEFT on 2+2). Depth 0 is the calibrated
/// paper-faithful loop; the benefit is bounded by each scheme's I/O
/// fraction, so it saturates at one chunk of look-ahead.
pub fn read_ahead_ablation(db_bytes: u64, depths: &[u32]) -> Vec<ReadAheadCell> {
    let schemes: Vec<(&'static str, SimScheme)> = vec![
        ("original", SimScheme::Original),
        (
            "over-PVFS",
            SimScheme::Pvfs {
                servers: (0..4).collect(),
            },
        ),
        (
            "over-CEFT-PVFS",
            SimScheme::Ceft {
                primary: (0..2).collect(),
                mirror: (2..4).collect(),
            },
        ),
    ];
    let mut out = Vec::new();
    for (label, scheme) in schemes {
        let mut base = sim_base(4, 5, scheme);
        base.db_bytes = db_bytes;
        let t0 = mean_makespan(&base, &SEEDS);
        for &depth in depths {
            let makespan_s = if depth == 0 {
                t0
            } else {
                let mut cfg = base.clone();
                cfg.read_ahead = depth;
                mean_makespan(&cfg, &SEEDS)
            };
            out.push(ReadAheadCell {
                scheme: label,
                depth,
                makespan_s,
                speedup: t0 / makespan_s,
            });
        }
    }
    out
}

/// One `faults` experiment row: one scheme at one failure time.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scheme label.
    pub scheme: &'static str,
    /// When the data server crashed, seconds after job start.
    pub fail_at_s: f64,
    /// Fault-free execution time, seconds.
    pub t_clean: f64,
    /// Execution time with the crash (to completion, abort, or horizon).
    pub t_faulted: f64,
    /// Did the job finish every fragment?
    pub completed: bool,
    /// The reported I/O error when it did not.
    pub error: Option<String>,
    /// Client requests re-sent after timeouts.
    pub retries: u64,
    /// CEFT reads re-routed to mirror partners.
    pub failovers: u64,
}

/// Fault-tolerance experiment: crash data server 1 at each failure time
/// and compare the three schemes (8 workers; PVFS on 8 servers, CEFT on
/// 4+4). CEFT fails reads over to the crashed server's mirror partner and
/// completes at roughly halved read parallelism; PVFS exhausts its
/// retries and terminates with a reported I/O error; the original scheme
/// has no data servers and is unaffected.
pub fn faults(db_bytes: u64, fail_times_s: &[f64]) -> Vec<FaultRow> {
    use parblast_hwsim::FaultSchedule;
    use parblast_simcore::SimTime;

    let schemes: Vec<(&'static str, SimScheme)> = vec![
        ("original", SimScheme::Original),
        (
            "over-PVFS",
            SimScheme::Pvfs {
                servers: (0..8).collect(),
            },
        ),
        (
            "over-CEFT-PVFS",
            SimScheme::Ceft {
                primary: (0..4).collect(),
                mirror: (4..8).collect(),
            },
        ),
    ];
    let mut out = Vec::new();
    for (label, scheme) in schemes {
        let mut cfg = sim_base(8, 9, scheme);
        cfg.db_bytes = db_bytes;
        let t_clean = run_simblast(&cfg).makespan_s;
        for &fail_at_s in fail_times_s {
            let mut faulted = cfg.clone();
            // Server index 1 is a primary-group member under CEFT.
            faulted.faults = FaultSchedule::new()
                .crash_server(SimTime::from_secs_f64(cfg.warmup_s + fail_at_s), 1);
            let r = run_simblast(&faulted);
            out.push(FaultRow {
                scheme: label,
                fail_at_s,
                t_clean,
                t_faulted: r.makespan_s,
                completed: r.completed,
                error: r.error,
                retries: r.retries,
                failovers: r.failovers,
            });
        }
    }
    out
}

/// One `integrity` experiment row: the crash + revive scenario at one
/// resync rate cap.
#[derive(Debug, Clone)]
pub struct IntegrityRow {
    /// Resync pacing cap, MB/s (`0.0` = unpaced: the rebuild copies as
    /// fast as the mirror partner's disk serves it).
    pub rate_cap_mbs: f64,
    /// Fault-free execution time, seconds (resync configured, never
    /// triggered).
    pub t_clean: f64,
    /// Execution time with the corruption + crash + revive, seconds.
    pub t_faulted: f64,
    /// Foreground read p95 of the clean run, microseconds.
    pub clean_p95_us: f64,
    /// Foreground read p95 of the faulted run (failover + rebuild
    /// traffic included), microseconds.
    pub faulted_p95_us: f64,
    /// Did every fragment complete?
    pub completed: bool,
    /// Online resyncs completed (1 when the revived server was rebuilt).
    pub resyncs: u64,
    /// Corrupt stripes rewritten from the mirror by read-repair.
    pub repaired_stripes: u64,
    /// Reads re-routed to mirror partners while the primary was down.
    pub failovers: u64,
}

/// Rebuild-overhead ablation: CEFT 4+4 with 8 workers; a latent corrupt
/// stripe on primary server 0 exercises read-repair, then primary
/// server 1 crashes mid-search and revives 8 s later, forcing an online
/// resync before it may serve reads again. Each row paces the rebuild
/// copy at a different rate cap, trading rebuild duration against the
/// disk bandwidth stolen from foreground reads — measured as the
/// foreground read p95 vs the clean run. Averaged over the usual seeds.
pub fn integrity(db_bytes: u64, rate_caps_mbs: &[f64]) -> Vec<IntegrityRow> {
    use parblast_hwsim::FaultSchedule;
    use parblast_mpiblast::FRAG_FILE_BASE;
    use parblast_simcore::SimTime;

    let mut base = sim_base(
        8,
        9,
        SimScheme::Ceft {
            primary: (0..4).collect(),
            mirror: (4..8).collect(),
        },
    );
    base.db_bytes = db_bytes;
    // Fast heartbeat so the metadata server's dead sweep (grace =
    // 2.5 beats) notices the crash well before the revival.
    base.ceft.heartbeat = SimTime::from_secs(1);

    let n = SEEDS.len() as f64;
    // The clean baseline never triggers a resync, so it is the same for
    // every cap; measure it once per seed.
    let (mut t_clean, mut clean_p95) = (0.0, 0.0);
    for &seed in &SEEDS {
        let mut c = base.clone();
        c.ceft.resync_rate = Some(u64::MAX);
        c.seed = seed;
        let clean = run_simblast(&c);
        t_clean += clean.makespan_s;
        clean_p95 += clean.read_latency_us.p95;
    }
    t_clean /= n;
    clean_p95 /= n;

    let crash_at = base.warmup_s + 2.0;
    let revive_at = base.warmup_s + 10.0;
    let mut out = Vec::new();
    for &cap in rate_caps_mbs {
        let mut faulted = base.clone();
        faulted.ceft.resync_rate = Some(if cap <= 0.0 {
            u64::MAX
        } else {
            (cap * 1e6) as u64
        });
        // Latent corruption planted before the job starts, on primary
        // servers that stay up — found and repaired during the search.
        faulted.faults = FaultSchedule::new()
            .corrupt_stripe(
                SimTime::from_secs_f64(base.warmup_s * 0.5),
                0,
                FRAG_FILE_BASE,
                0,
            )
            .corrupt_stripe(
                SimTime::from_secs_f64(base.warmup_s * 0.5),
                2,
                FRAG_FILE_BASE + 2,
                2,
            )
            .crash_server(SimTime::from_secs_f64(crash_at), 1)
            .revive_server(SimTime::from_secs_f64(revive_at), 1);

        let mut t_faulted = 0.0;
        let mut faulted_p95 = 0.0;
        let mut completed = true;
        let (mut resyncs, mut repaired, mut failovers) = (0, 0, 0);
        for &seed in &SEEDS {
            let mut f = faulted.clone();
            f.seed = seed;
            let r = run_simblast(&f);
            t_faulted += r.makespan_s;
            faulted_p95 += r.read_latency_us.p95;
            completed &= r.completed;
            resyncs += r.resyncs;
            repaired += r.repaired_stripes;
            failovers += r.failovers;
        }
        out.push(IntegrityRow {
            rate_cap_mbs: cap,
            t_clean,
            t_faulted: t_faulted / n,
            clean_p95_us: clean_p95,
            faulted_p95_us: faulted_p95 / n,
            completed,
            resyncs,
            repaired_stripes: repaired,
            failovers,
        });
    }
    out
}

/// Per-worker scan rate for the *serving* workload, bytes/second.
///
/// The paper's single 568-nt query is compute-heavy (≈2.3 MB/s per
/// worker, I/O ≈11% of the run). A serving workload is dominated by
/// short interactive queries whose per-byte search cost is far lower, so
/// the database scan is a much larger share of each pass (≈45–55% here).
/// That is precisely the regime where scan sharing pays: the I/O half of
/// the pass is amortized over the whole batch.
///
/// 32 MB/s is what the packed-scan kernel searched per 568-nt query when
/// this constant was set. The kernel has since grown ≈7× faster
/// (`fragment_search.packed_bytes_per_s` in `BENCH_engine.json`, ≈241
/// MB/s per core), so the sweep overprices a pass's compute; the value
/// stays because the sweep's rows are pinned. `bench --bin serve`'s
/// daemon table measures the same batching on the current kernel.
pub const SERVE_SEARCH_RATE: f64 = 32e6;

/// One serving-sweep row: one (scheme, offered load, batch cap) cell.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Scheme label.
    pub scheme: &'static str,
    /// Offered load relative to unbatched capacity (λ · S₁).
    pub load: f64,
    /// Scan-sharing batch cap `B` (1 = no sharing).
    pub max_batch: usize,
    /// Poisson arrival rate, queries/second.
    pub arrival_qps: f64,
    /// Unbatched single-pass service time S₁, seconds.
    pub service_s: f64,
    /// Frozen serving-run metrics.
    pub report: parblast_serve::ServeReport,
}

/// Serving sweep: batch cap × offered load × scheme (8 workers; PVFS on
/// 8 servers, CEFT on 4+4), `queries` Poisson arrivals per cell.
///
/// Per scheme, the service model probes the calibrated simulator once per
/// batch size (a genuine `run_simblast` with `queries_per_pass = k`) and
/// the arrival rate is set to `load / S₁` — `load > 1` offers more
/// traffic than unbatched serving can absorb, so without scan sharing
/// the queue grows without bound while batch caps ≥ 4 stay stable. The
/// same arrival sequence (seed 2003) drives every batch cap, so cells in
/// a (scheme, load) group are directly comparable.
pub fn serve_sweep(
    db_bytes: u64,
    loads: &[f64],
    batch_caps: &[usize],
    queries: usize,
    capacity: usize,
) -> Vec<ServeRow> {
    use parblast_hwsim::poisson_arrivals;
    use parblast_serve::{Query, ScanSharingServer, ServiceModel, SimExecutor};
    use parblast_simcore::SimRng;

    let schemes: Vec<(&'static str, SimScheme)> = vec![
        ("original", SimScheme::Original),
        (
            "over-PVFS",
            SimScheme::Pvfs {
                servers: (0..8).collect(),
            },
        ),
        (
            "over-CEFT-PVFS",
            SimScheme::Ceft {
                primary: (0..4).collect(),
                mirror: (4..8).collect(),
            },
        ),
    ];
    let cap_max = batch_caps.iter().copied().max().unwrap_or(1) as u32;
    let mut out = Vec::new();
    for (label, scheme) in schemes {
        let mut cfg = sim_base(8, 9, scheme);
        cfg.db_bytes = db_bytes;
        cfg.search_rate = SERVE_SEARCH_RATE;
        // Compute grows sublinearly in batch size
        // (`SimBlastConfig::batch_compute_factor`), as `bench --bin serve`
        // measures on the real path.
        let mut model = ServiceModel::new(cfg);
        // Probe every batch size once up front; the executors below clone
        // the warmed cache and never touch the simulator again.
        for k in 1..=cap_max {
            model.cost(k);
        }
        let s1 = model.cost(1).service_s;
        for &load in loads {
            let rate = load / s1;
            let times = poisson_arrivals(rate, queries, &mut SimRng::new(2003));
            let arrivals: Vec<Query> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| Query::new(i as u64, t))
                .collect();
            for &b in batch_caps {
                let exec = SimExecutor::new(model.clone(), 7 + b as u64, 0.10);
                let mut srv = ScanSharingServer::new(capacity, b, exec);
                let report = srv.run_open_loop(&arrivals);
                out.push(ServeRow {
                    scheme: label,
                    load,
                    max_batch: b,
                    arrival_qps: rate,
                    service_s: s1,
                    report,
                });
            }
        }
    }
    out
}

/// Figure 4 output: the real run's trace.
#[derive(Debug)]
pub struct Fig4Result {
    /// Aggregate trace statistics (§4.2's numbers).
    pub summary: TraceSummary,
    /// Scatter data as TSV (`time_s bytes kind worker`).
    pub scatter_tsv: String,
    /// Number of hits the search returned (sanity: the query is found).
    pub hits: usize,
}

/// Figure 4: run the *real* parallel BLAST with tracing enabled — 8
/// workers, 8 fragments, 568-nt query — on a synthetic database of
/// `total_residues` (scaled from nt's 2.7 G).
pub fn fig4(workdir: &Path, total_residues: u64) -> std::io::Result<Fig4Result> {
    let scheme = Scheme::local_at(&workdir.join("io"), 8)?;
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues,
        seed: 2003,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    // The paper's query: 568 characters extracted from a real sequence.
    let query = extract_query(&seqs[0].1, 568, 0.02, 1);
    let db = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    let infos = segment_into_fragments(&workdir.join("fmt"), "nt", SeqType::Nucleotide, 8, seqs)?;
    let mut fragments = vec![];
    for info in &infos {
        let bytes = std::fs::read(&info.path)?;
        let name = info
            .path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        scheme.load_fragment(&name, &bytes)?;
        fragments.push(name);
    }
    let tracer = Tracer::new();
    let job = ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db,
        fragments,
        workers: 8,
        scheme,
        tracer: tracer.clone(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch: false,
        list_io: false,
    };
    let out = job.run(&query)?;
    let events = tracer.events();
    Ok(Fig4Result {
        summary: TraceSummary::from_events(&events),
        scatter_tsv: TraceSummary::scatter_tsv(&events),
        hits: out.hits.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_DB: u64 = 192 << 20;

    #[test]
    fn calibration_matches_paper_numbers() {
        let c = calibration();
        assert!((c.disk_write_mbs - 32.0).abs() < 2.0, "{c:?}");
        assert!((c.disk_read_mbs - 26.0).abs() < 2.0, "{c:?}");
        assert!((c.net_mbs - 112.0).abs() < 6.0, "{c:?}");
        assert!((c.net_cpu_fraction - 0.47).abs() < 0.1, "{c:?}");
    }

    #[test]
    fn fig5_shape_crossover() {
        // Scaled-down sanity check of the crossover (the full 2.7 GB runs
        // in the fig5 binary resolve all four node counts): at 1 node PVFS
        // loses, at 2 it wins.
        let rows = fig5(&[1, 2], SMALL_DB);
        assert!(rows[0].t_pvfs > rows[0].t_original, "{rows:?}");
        assert!(rows[1].t_pvfs < rows[1].t_original, "{rows:?}");
    }

    #[test]
    fn read_ahead_ablation_hides_io_for_the_parallel_schemes() {
        let cells = read_ahead_ablation(SMALL_DB, &[0, 1]);
        for scheme in ["over-PVFS", "over-CEFT-PVFS"] {
            let d0 = cells
                .iter()
                .find(|c| c.scheme == scheme && c.depth == 0)
                .unwrap();
            let d1 = cells
                .iter()
                .find(|c| c.scheme == scheme && c.depth == 1)
                .unwrap();
            assert!(
                d1.makespan_s < d0.makespan_s,
                "{scheme}: depth 1 {} vs depth 0 {}",
                d1.makespan_s,
                d0.makespan_s
            );
            assert!(d1.speedup > 1.0, "{scheme}");
        }
    }

    #[test]
    fn fig7_shape_ceft_slightly_worse() {
        let rows = fig7(&[2, 4], SMALL_DB);
        for r in &rows {
            let ratio = r.t_ceft / r.t_pvfs;
            assert!(ratio > 0.9 && ratio < 1.35, "{r:?}");
        }
    }

    #[test]
    fn serve_batching_saves_io_and_improves_p95_under_saturation() {
        // At an arrival rate where unbatched serving saturates, a batch
        // cap of 4 cuts database-read bytes ≥2× and improves p95 latency,
        // under all three schemes. The fused kernel raised batched
        // capacity (cap-4 passes cost ~1.7 single-query units of compute,
        // not 4), so saturating the batched server's queue enough to fill
        // its batches takes a higher offered load than the pre-fused 1.45.
        let rows = serve_sweep(SMALL_DB, &[2.5], &[1, 4], 120, 4096);
        for scheme in ["original", "over-PVFS", "over-CEFT-PVFS"] {
            let cell = |b: usize| {
                rows.iter()
                    .find(|r| r.scheme == scheme && r.max_batch == b)
                    .unwrap()
            };
            let (un, b4) = (cell(1), cell(4));
            assert_eq!(un.report.served, 120, "{scheme}");
            assert_eq!(b4.report.served, 120, "{scheme}");
            assert!(
                b4.report.bytes_read * 2 <= un.report.bytes_read,
                "{scheme}: batched bytes {} vs unbatched {}",
                b4.report.bytes_read,
                un.report.bytes_read
            );
            assert!(b4.report.io_savings() >= 2.0, "{scheme}");
            assert!(
                b4.report.latency.p95 < un.report.latency.p95,
                "{scheme}: batched p95 {:.1} vs unbatched {:.1}",
                b4.report.latency.p95,
                un.report.latency.p95
            );
            assert!(
                b4.report.throughput_qps > un.report.throughput_qps,
                "{scheme}"
            );
        }
    }

    #[test]
    fn fig4_real_trace_is_read_dominated() {
        let dir = std::env::temp_dir().join(format!("fig4_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let r = fig4(&dir, 2 << 20).unwrap();
        assert!(r.summary.read_fraction > 0.6, "{:?}", r.summary);
        assert!(r.summary.write_max <= 778);
        assert!(r.hits > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
