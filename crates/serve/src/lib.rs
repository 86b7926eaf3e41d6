//! # parblast-serve
//!
//! The multi-query serving layer: what turns the paper's one-query batch
//! job into a service that can sit in front of heavy traffic.
//!
//! The paper's central measurement (§4.2) is that a BLAST run is
//! dominated by the database scan — every query reads every fragment once,
//! in ~10 MB chunks. A service receiving many concurrent queries can
//! therefore amortize its dominant cost: group queued queries and search
//! the whole group against each fragment in a *single pass*, so one
//! fragment read serves the batch. Per-query I/O cost becomes per-batch
//! cost — request aggregation in the spirit of MPI-IO data sieving and
//! PVFS list I/O, applied at the query layer.
//!
//! ```text
//!              ┌────────────────────────────────────────────────┐
//!   arrivals   │  AdmissionQueue       ScanSharingServer        │
//!  ──────────▶ │  (capacity,      ──▶  take_batch(B) ──▶ exec   │──▶ results
//!   open loop  │   deadlines,          one scan pass serves     │
//!   (Poisson)  │   3 priorities)       the whole batch          │
//!              │        │                   │ BatchResult       │
//!              │     rejected           ServeMetrics            │
//!              │  (backpressure)   wait/latency p50,p95,p99,    │
//!              │                   scan/search split, bytes     │
//!              └────────────────────────────────────────────────┘
//! ```
//!
//! * [`queue`] — bounded admission queue: backpressure, per-query
//!   deadlines, strict priority with FIFO inside each class.
//! * [`batcher`] — the scan-sharing batch scheduler and its open-loop
//!   serving driver, generic over a [`BatchExecutor`] that returns each
//!   pass's cost as a [`BatchResult`].
//! * [`sim`] — executor over the calibrated cluster simulator: probes
//!   [`parblast_mpiblast::run_simblast`] once per batch size, caches the
//!   pass cost as a [`BatchResult`] and replays it deterministically
//!   (Poisson arrivals come from [`parblast_hwsim::poisson_arrivals`]).
//! * [`real`] — executor over the real thread-pool runner /
//!   `pio`-backed I/O schemes via [`parblast_mpiblast::ParallelBlast::run_batch`].
//! * [`metrics`] — the scheduler's per-query/per-batch accounting on
//!   [`parblast_simcore::stats`]: queue wait, scan/search split, latency
//!   percentiles, throughput, and I/O bytes saved versus unbatched. The
//!   networked daemon (`parblast-net`) uses only [`AdmissionQueue`],
//!   [`Query`] and [`Priority`] from this crate and counts for itself.

#![warn(missing_docs)]

pub mod batcher;
pub mod metrics;
pub mod queue;
pub mod real;
pub mod sim;

pub use batcher::{BatchExecutor, BatchResult, ScanSharingServer};
pub use metrics::{ServeMetrics, ServeReport};
pub use queue::{AdmissionQueue, AdmitError, Priority, Query};
pub use real::{serve_batched, serve_batched_scrubbed, RealServeOutcome};
pub use sim::{ServiceModel, SimExecutor};
