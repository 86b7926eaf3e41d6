//! The execution bridge: what a shard's exec lanes call to turn a
//! scan-sharing batch of raw query bytes into rendered result payloads.
//!
//! [`BlastRunner`] is the production implementation — it runs every batch
//! on one resident [`WorkerPool`] over the real `pio` store, so batches
//! submitted at once share its workers, and renders each query's merged hits with
//! [`parblast_blast::tabular`], the *same* rendering
//! `serve::serve_batched` uses, so a result served over the wire is
//! byte-identical to one computed in-process (pinned across seeds in
//! `tests/determinism.rs`). [`EchoRunner`] is a deterministic stand-in
//! for protocol and scheduling tests that must not pay for real searches.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parblast_blast::tabular;
use parblast_mpiblast::{ParallelBlast, WorkerPool};

/// Why a batch failed to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// Unrecoverable data corruption (`pio` checksum mismatch with no
    /// clean redundant copy). **Not retryable** — the same platter bytes
    /// come back on every attempt — so the server reports it with
    /// `ResultStatus::Corrupt` and the client surfaces it without
    /// burning retry budget, exactly like `pvfs::retry` does.
    Corrupt,
    /// Any other execution failure (retryable at the client's choice).
    Other(String),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Corrupt => write!(f, "unrecoverable data corruption"),
            RunnerError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Cost and results of one executed batch.
#[derive(Debug, Clone)]
pub struct RunnerOutput {
    /// One rendered result payload per query, in submission order.
    pub per_query: Vec<Vec<u8>>,
    /// Seconds the pass spent on I/O (fetching fragments).
    pub scan_s: f64,
    /// Seconds the pass spent computing.
    pub search_s: f64,
    /// Database bytes the pass's reads delivered (0 when the executor
    /// cannot tell).
    pub bytes_read: u64,
    /// Seed-scan kernel passes the batch executed across all fragments
    /// (the fused kernel merges up to 8 queries into one pass).
    pub kernel_passes: u64,
    /// Kernel passes the fused kernel avoided versus per-query scanning.
    pub passes_saved: u64,
}

/// Something that can execute a scan-sharing batch of raw queries. A shard
/// may call it from two exec lanes at once.
pub trait BatchRunner: Send + Sync {
    /// Run `queries` as one batch; return one payload per query, in order.
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError>;
}

fn classify(e: io::Error) -> RunnerError {
    if parblast_pio::is_corrupt(&e) {
        RunnerError::Corrupt
    } else {
        RunnerError::Other(e.to_string())
    }
}

/// The production runner: a configured [`ParallelBlast`] job over the
/// real `pio` store. One `run_batch` call is one scan-sharing pass —
/// every fragment is fetched once and searched with every query in the
/// batch — on the one [`WorkerPool`] the runner starts at its first batch
/// and joins when it is dropped; concurrent calls share its workers.
pub struct BlastRunner {
    /// The underlying parallel job (scheme, fragments, workers, params).
    pub job: Arc<ParallelBlast>,
    pool: OnceLock<WorkerPool>,
}

impl BlastRunner {
    /// Wrap `job`. Starts no thread. Each batch reports the database bytes
    /// its reads delivered; the second argument, once the staged size
    /// reported in their place, is unused and stays because `benchmark/`
    /// passes it.
    pub fn new(job: ParallelBlast, _bytes_per_pass: u64) -> Self {
        BlastRunner {
            job: Arc::new(job),
            pool: OnceLock::new(),
        }
    }
}

impl BatchRunner for BlastRunner {
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError> {
        let t0 = Instant::now();
        let pool = self
            .pool
            .get_or_init(|| WorkerPool::start(Arc::clone(&self.job)));
        let out = pool.run_batch(queries).map_err(classify)?;
        let wall = t0.elapsed().as_secs_f64();
        Ok(RunnerOutput {
            per_query: out
                .per_query
                .iter()
                .map(|hits| tabular("query", hits).into_bytes())
                .collect(),
            scan_s: out.io_fetch_s,
            search_s: (wall - out.io_stall_s).max(0.0),
            bytes_read: out.bytes_read,
            kernel_passes: out.kernel_passes,
            passes_saved: out.passes_saved,
        })
    }
}

/// Deterministic test runner: echoes each query back reversed behind an
/// `echo:` tag, optionally sleeping `delay` per batch to simulate a scan
/// pass (what the drain-under-load tests lean on). Counts its batches so
/// tests can assert scan sharing happened.
#[derive(Debug, Default)]
pub struct EchoRunner {
    /// Artificial per-batch execution time.
    pub delay: Duration,
    batches: AtomicU64,
}

impl EchoRunner {
    /// Runner with an artificial per-batch delay.
    pub fn with_delay(delay: Duration) -> Self {
        EchoRunner {
            delay,
            batches: AtomicU64::new(0),
        }
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The payload this runner produces for `query`.
    pub fn expected(query: &[u8]) -> Vec<u8> {
        let mut out = b"echo:".to_vec();
        out.extend(query.iter().rev());
        out
    }
}

impl BatchRunner for EchoRunner {
    fn run_batch(&self, queries: &[Vec<u8>]) -> Result<RunnerOutput, RunnerError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        Ok(RunnerOutput {
            per_query: queries.iter().map(|q| Self::expected(q)).collect(),
            scan_s: self.delay.as_secs_f64(),
            search_s: 0.0,
            bytes_read: 0,
            kernel_passes: 1,
            passes_saved: queries.len() as u64 - 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_runner_is_deterministic_and_counts_batches() {
        let r = EchoRunner::default();
        let queries = vec![vec![1, 2, 3], vec![9]];
        let a = r.run_batch(&queries).unwrap();
        let b = r.run_batch(&queries).unwrap();
        assert_eq!(a.per_query, b.per_query);
        assert_eq!(a.per_query[0], b"echo:\x03\x02\x01".to_vec());
        assert_eq!(r.batches(), 2);
    }

    #[test]
    fn corruption_classifies_as_non_retryable() {
        let e = parblast_pio::integrity::corrupt_error(std::path::Path::new("/x"), 3);
        assert_eq!(classify(e), RunnerError::Corrupt);
        let other = io::Error::new(io::ErrorKind::NotFound, "missing fragment");
        assert!(matches!(classify(other), RunnerError::Other(_)));
    }
}
