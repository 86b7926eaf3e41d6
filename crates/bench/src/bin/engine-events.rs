//! Discrete-event engine throughput micro-bench: a ring of components
//! forwarding tokens through the central time-ordered queue. Sweeps the
//! component count and the number of tokens in flight (the heap depth),
//! reporting raw dispatch rate in events per second. Writes
//! `BENCH_engine_events.json` for CI.
//!
//! Two rows with real models behind the queue follow (printed, not in the
//! JSON): a chain of 10 000 sequential 128 KiB reads through one node's
//! file system and disk, and one whole simulated PVFS job (8 workers, 8
//! data servers, 256 MiB database) — the cost of one run behind a figure
//! cell. Each is the median of a few runs.

use std::time::Instant;

use parblast_bench::{arg_u64, arg_value, median, print_table};
use parblast_core::hwsim::{Cluster, Ev, FsMsg, HwParams};
use parblast_core::mpiblast::{run_simblast, SimBlastConfig, SimScheme};
use parblast_core::simcore::{CompId, Component, Ctx, Engine, RunOutcome, SimTime};

/// One hop in the ring: forward every token to the next component after a
/// fixed simulated delay. All state lives in the engine's queue, so the
/// dispatch loop itself dominates the measurement.
struct Hop {
    next: CompId,
}

impl Component<u64> for Hop {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
        ctx.schedule_in(SimTime::from_nanos(100), self.next, token);
    }

    fn name(&self) -> &str {
        "hop"
    }
}

/// Reader that issues its next 128 KiB read when the last one completes,
/// `left` times, walking the first GiB of one file.
struct Chain {
    fs: CompId,
    left: u64,
    offset: u64,
}

impl Component<Ev> for Chain {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, _ev: Ev) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        ctx.send(
            self.fs,
            Ev::Fs(FsMsg::Read {
                file: 1,
                offset: self.offset % (1 << 30),
                len: 128 << 10,
                mmap: false,
                unit: 0,
                reply_to: ctx.self_id(),
                tag: 0,
            }),
        );
        self.offset += 128 << 10;
    }
}

/// Reads in the disk-read chain.
const CHAIN_READS: u64 = 10_000;
/// Timed runs per model row.
const MODEL_REPS: usize = 3;

/// One disk-read chain run: `(events, wall seconds)`.
fn run_chain() -> (u64, f64) {
    let t0 = Instant::now();
    let mut eng: Engine<Ev> = Engine::new(1);
    let cluster = Cluster::build(&mut eng, 1, HwParams::default());
    let chain = eng.add(Chain {
        fs: cluster.nodes[0].fs,
        left: CHAIN_READS,
        offset: 0,
    });
    eng.schedule(SimTime::ZERO, chain, Ev::Timer(0));
    eng.run();
    (eng.events_processed(), t0.elapsed().as_secs_f64())
}

/// One simulated PVFS job, 8 workers over 8 data servers: `(simulated
/// makespan, wall seconds)`.
fn run_pvfs_job() -> (f64, f64) {
    let t0 = Instant::now();
    let out = run_simblast(&SimBlastConfig {
        nodes: 9,
        workers: 8,
        fragments: 8,
        db_bytes: 256 << 20,
        scheme: SimScheme::Pvfs {
            servers: (0..8).collect(),
        },
        master_node: 8,
        warmup_s: 1.0,
        ..Default::default()
    });
    assert!(out.completed, "the PVFS job must complete");
    (out.makespan_s, t0.elapsed().as_secs_f64())
}

struct Row {
    components: usize,
    tokens: usize,
    events: u64,
    wall_s: f64,
    events_per_s: f64,
}

fn run_ring(components: usize, tokens: usize, budget: u64, seed: u64) -> Row {
    let mut eng: Engine<u64> = Engine::new(seed);
    eng.event_budget = budget;
    let first = CompId(0);
    for i in 0..components {
        let next = CompId(((i + 1) % components) as u32);
        eng.add(Hop { next });
    }
    for t in 0..tokens {
        eng.schedule(SimTime::ZERO, first, t as u64);
    }
    let t0 = Instant::now();
    let outcome = eng.run();
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(outcome, RunOutcome::Budget, "ring must run to the budget");
    assert_eq!(eng.events_processed(), budget);
    assert_eq!(eng.events_dropped(), 0);
    Row {
        components,
        tokens,
        events: budget,
        wall_s,
        events_per_s: budget as f64 / wall_s.max(1e-9),
    }
}

fn json(rows: &[Row]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"components\":{},\"tokens\":{},\"events\":{},\
                 \"wall_s\":{:.4},\"events_per_s\":{:.0}}}",
                r.components, r.tokens, r.events, r.wall_s, r.events_per_s
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"engine_events\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    )
}

fn main() {
    let budget = arg_u64("--events", 2_000_000);
    let seed = arg_u64("--seed", 42);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_engine_events.json".to_string());

    println!("simcore engine dispatch rate, {budget} events per cell\n");
    let mut rows = Vec::new();
    for &components in &[1usize, 16, 256] {
        for &tokens in &[1usize, 64, 1024] {
            rows.push(run_ring(components, tokens, budget, seed));
        }
    }
    print_table(
        &["components", "tokens", "events", "wall (s)", "events/s"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.components.to_string(),
                    r.tokens.to_string(),
                    r.events.to_string(),
                    format!("{:.3}", r.wall_s),
                    format!("{:.2e}", r.events_per_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let chain: Vec<(u64, f64)> = (0..MODEL_REPS).map(|_| run_chain()).collect();
    let events = chain[0].0;
    assert!(
        chain.iter().all(|&(e, _)| e == events),
        "the chain must be deterministic"
    );
    let chain_s = median(chain.iter().map(|&(_, s)| s).collect());
    let jobs: Vec<(f64, f64)> = (0..MODEL_REPS).map(|_| run_pvfs_job()).collect();
    let makespan = jobs[0].0;
    let job_s = median(jobs.iter().map(|&(_, s)| s).collect());
    println!("\nwith the hardware and file-system models behind the queue:\n");
    print_table(
        &[
            "workload",
            "events",
            "wall (s)",
            "events/s",
            "simulated (s)",
        ],
        &[
            vec![
                format!("disk-read chain, {CHAIN_READS} x 128 KiB"),
                events.to_string(),
                format!("{chain_s:.4}"),
                format!("{:.2e}", events as f64 / chain_s),
                "-".into(),
            ],
            vec![
                "simblast PVFS 8x8, 256 MiB".into(),
                "-".into(),
                format!("{job_s:.4}"),
                "-".into(),
                format!("{makespan:.1}"),
            ],
        ],
    );
    std::fs::write(&out, json(&rows)).expect("write BENCH_engine_events.json");
    println!(
        "\nwrote {out}\nexpected shape: dispatch rate is millions of events/s and \
         degrades only logarithmically with tokens in flight (heap depth)"
    );
}
