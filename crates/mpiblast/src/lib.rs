//! # parblast-mpiblast
//!
//! The parallel BLAST layer of the workspace — mpiBLAST's master/worker
//! database-segmentation algorithm (§2.2 of the paper), in two forms that
//! share one master, the scheduling state machine `sched::Master`:
//!
//! * [`runner`] — a **real** job over OS threads: workers claim fragments
//!   from the master, pull them through one of the three I/O [`scheme`]s
//!   (local copy / striped / mirrored), run the real search engine, and
//!   their results are merged by score. Every store access is recorded by
//!   the [`trace`] instrumentation (Figure 4). The workers are a
//!   [`WorkerPool`], started per call or kept by a server, whose one
//!   master hands out the tasks of every batch submitted to it, the older
//!   batch first.
//! * [`simblast`] — the **simulated twin** driving the calibrated cluster
//!   models, used to regenerate the paper's timing figures (5, 6, 7, 9) at
//!   the full 2.7 GB scale.

#![warn(missing_docs)]

mod pool;
pub mod runner;
pub(crate) mod sched;
pub mod scheme;
pub mod simblast;
pub mod trace;

pub use parblast_pio::{ScrubTotals, Scrubber};
pub use pool::WorkerPool;
pub use runner::{BatchOutcome, ParallelBlast, Parallelization, RunOutcome};
pub use scheme::{Scheme, TracedSource};
pub use simblast::{
    run_simblast, SimBlastConfig, SimOutcome, SimScheme, WorkerStats, FRAG_FILE_BASE,
};
pub use trace::{IoKind, TraceEvent, TraceSummary, Tracer};
