//! The whole-path benchmark of `parblast`: one invocation runs one
//! workload for a fixed time and prints one JSON line. See README.md for
//! the workloads, the metrics and how they interact.
//!
//! ```text
//! parblast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod batch;
mod gen;
mod metrics;
mod probes;
mod replay;
mod serve;
mod stage;
mod trace;
mod util;

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Outcome;
use stage::SchemeKind;

/// Set-ups per run; `setup_s` is their median. At least `MIN_SETUPS`,
/// then more until `SETUP_BUDGET` is spent, so that a set-up of a few
/// milliseconds is repeated often enough for a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 64;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Scratch data and traces go here, relative to the root of the checkout
/// the driver runs the command from; `.gitignore` names it.
const OUT_DIR: &str = "benchmark/out";

/// One invocation.
pub struct Ctx {
    workload: String,
    seed: u64,
    /// How long the measured window lasts.
    window: Duration,
    traced: bool,
    /// Scratch directory of this run, inside the checkout.
    dir: PathBuf,
    /// When the phase being timed for stderr began.
    phase_start: Cell<Instant>,
}

impl Ctx {
    /// Run `setup` several times, each into a fresh directory, and keep
    /// the last; earlier ones go through `teardown`. Returns the median
    /// set-up time in seconds.
    fn setups<T>(
        &self,
        mut setup: impl FnMut(&Path) -> io::Result<T>,
        mut teardown: impl FnMut(T),
    ) -> io::Result<(f64, T)> {
        let mut secs = Vec::new();
        let mut kept: Option<(T, PathBuf)> = None;
        for i in 0..MAX_SETUPS {
            if i >= MIN_SETUPS && secs.iter().sum::<f64>() >= SETUP_BUDGET.as_secs_f64() {
                break;
            }
            if let Some((old, base)) = kept.take() {
                teardown(old);
                std::fs::remove_dir_all(base)?;
            }
            let base = self.dir.join(format!("setup{i}"));
            let t0 = Instant::now();
            let made = setup(&base)?;
            secs.push(util::since(t0));
            kept = Some((made, base));
        }
        let (made, _) = kept.expect("at least one set-up ran");
        Ok((util::median(&mut secs), made))
    }

    /// Tell stderr how long the phase that just ended took, so a reader
    /// can see where a run's wall time outside the window goes.
    fn phase(&self, name: &str) {
        let now = Instant::now();
        let took = now - self.phase_start.replace(now);
        eprintln!("phase: {name} {:.2} s", took.as_secs_f64());
    }

    /// Where a traced run leaves its spans.
    fn trace_path(&self) -> PathBuf {
        Path::new(OUT_DIR).join(format!("trace-{}.json", self.workload))
    }
}

/// A run takes 15–45 s; the driver allows 180. Past this the run has
/// stalled and says so instead of hanging.
const STALL_LIMIT: Duration = Duration::from_secs(150);

const USAGE: &str = "usage: parblast-benchmark --workload <batch_original|batch_pvfs|batch_ceft|\
serve_scan|serve_family|serve_small> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number\n{USAGE}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60\n{USAGE}"));
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
    };
    Ok(Ctx {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        window: Duration::from_secs(seconds),
        traced,
        dir: Path::new(OUT_DIR).join(format!("run-{}", std::process::id())),
        phase_start: Cell::new(Instant::now()),
    })
}

fn run(ctx: &Ctx) -> io::Result<Outcome> {
    match ctx.workload.as_str() {
        "batch_original" => batch::run(SchemeKind::Original, ctx),
        "batch_pvfs" => batch::run(SchemeKind::Pvfs, ctx),
        "batch_ceft" => batch::run(SchemeKind::Ceft, ctx),
        "serve_scan" => serve::run(&serve::SCAN, ctx),
        "serve_family" => serve::run(&serve::FAMILY, ctx),
        "serve_small" => serve::run(&serve::SMALL, ctx),
        other => Err(io::Error::other(format!(
            "unknown workload {other}\n{USAGE}"
        ))),
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    let scratch = ctx.dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(STALL_LIMIT);
        eprintln!(
            "benchmark stalled: no result after {} s; a thread of the program under test is \
             blocked for good (see README.md, Findings)",
            STALL_LIMIT.as_secs()
        );
        let _ = std::fs::remove_dir_all(scratch);
        std::process::exit(3);
    });
    let result = std::fs::create_dir_all(&ctx.dir).and_then(|()| run(&ctx));
    let _ = std::fs::remove_dir_all(&ctx.dir);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(ctx.traced));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
