//! The scan-sharing batch scheduler.
//!
//! The central observation of the paper (§4.2) is that a BLAST job is
//! dominated by the database scan: every query reads every fragment, in
//! ~10 MB chunks, once. A serving workload therefore amortizes its
//! dominant cost by *sharing scans*: when the cluster frees up, the
//! scheduler takes up to `max_batch` queued queries and searches all of
//! them against each fragment in a single pass — one fragment read serves
//! the whole batch, the same request-aggregation move data sieving and
//! collective I/O make at the MPI-IO layer, applied at the query layer.
//!
//! The scheduler is deliberately simple and deterministic: batches form
//! whenever the executor is idle and the queue non-empty (no timers, no
//! partial-batch holdback — under light load a query rides alone, under
//! heavy load batches fill to `max_batch`). The executor abstraction runs
//! the same loop over the calibrated simulator ([`crate::sim`]) or the
//! real thread-pool runner ([`crate::real`]).

use parblast_simcore::SimTime;

use crate::metrics::{ServeMetrics, ServeReport};
use crate::queue::{AdmissionQueue, Query};

/// Cost of one executed scan-sharing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchResult {
    /// Wall (or simulated) duration of the pass, seconds.
    pub service_s: f64,
    /// Portion spent scanning (I/O), seconds.
    pub scan_s: f64,
    /// Portion spent searching (compute), seconds.
    pub search_s: f64,
    /// Database bytes read by the pass (shared by the whole batch).
    pub bytes_read: u64,
    /// Seed-scan kernel passes the batch actually executed (the fused
    /// multi-query kernel merges up to 8 queries into one pass per
    /// fragment).
    pub kernel_passes: u64,
    /// Kernel passes the fused kernel avoided versus per-query scanning.
    pub passes_saved: u64,
}

/// Something that can search a batch of queries against every fragment in
/// one scan-shared pass.
pub trait BatchExecutor {
    /// Execute `batch` starting at `now`; return the pass cost.
    fn execute(&mut self, batch: &[Query], now: SimTime) -> BatchResult;
}

/// A single-service-loop scan-sharing server: admission queue in front,
/// one batch in flight at a time (the whole cluster is the execution
/// unit, exactly like the paper's one-job-at-a-time mpiBLAST).
#[derive(Debug)]
pub struct ScanSharingServer<E> {
    /// Admission queue (capacity = backpressure bound).
    pub queue: AdmissionQueue,
    /// Most queries one scan pass may carry (`B`). 1 disables sharing.
    pub max_batch: usize,
    /// The batch executor (simulated or real).
    pub exec: E,
    /// Running metrics.
    pub metrics: ServeMetrics,
}

impl<E: BatchExecutor> ScanSharingServer<E> {
    /// New server with the given queue capacity and batch cap.
    pub fn new(capacity: usize, max_batch: usize, exec: E) -> Self {
        ScanSharingServer {
            queue: AdmissionQueue::new(capacity),
            max_batch,
            exec,
            metrics: ServeMetrics::default(),
        }
    }

    /// Serve an open-loop workload: `arrivals` (sorted by arrival time)
    /// are offered to the queue as simulated time passes; the server
    /// drains batches until queue and arrival stream are exhausted.
    pub fn run_open_loop(&mut self, arrivals: &[Query]) -> ServeReport {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrivals must be sorted"
        );
        let mut t = SimTime::ZERO;
        let mut next = 0usize;
        loop {
            // Everything that arrived while the previous batch ran (or
            // before the first one) contends for queue space in arrival
            // order; overflow is rejected at arrival, not deferred.
            while next < arrivals.len() && arrivals[next].arrival <= t {
                let _ = self.queue.offer(arrivals[next]);
                next += 1;
            }
            if self.queue.is_empty() {
                match arrivals.get(next) {
                    // Idle until the next arrival.
                    Some(q) => {
                        t = q.arrival;
                        continue;
                    }
                    None => break,
                }
            }
            let batch = self.queue.take_batch(self.max_batch, t);
            if batch.is_empty() {
                // Everything popped had expired; re-check the queue.
                continue;
            }
            let res = self.exec.execute(&batch, t);
            let done = t.saturating_add(SimTime::from_secs_f64(res.service_s));
            self.metrics.record_batch(&batch, t, done, &res);
            t = done;
        }
        self.metrics.report(&self.queue, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executor with a fixed cost structure: scan `io_s` once per pass,
    /// search `comp_s` per query in the batch.
    struct Fixed {
        io_s: f64,
        comp_s: f64,
        pass_bytes: u64,
    }

    impl BatchExecutor for Fixed {
        fn execute(&mut self, batch: &[Query], _now: SimTime) -> BatchResult {
            let search = self.comp_s * batch.len() as f64;
            BatchResult {
                service_s: self.io_s + search,
                scan_s: self.io_s,
                search_s: search,
                bytes_read: self.pass_bytes,
                kernel_passes: 1,
                passes_saved: batch.len() as u64 - 1,
            }
        }
    }

    fn arrivals(n: usize, spacing_s: f64) -> Vec<Query> {
        (0..n)
            .map(|i| Query::new(i as u64, SimTime::from_secs_f64(i as f64 * spacing_s)))
            .collect()
    }

    #[test]
    fn light_load_serves_singletons() {
        // Service takes 1 s, arrivals every 10 s: no batching happens.
        let exec = Fixed {
            io_s: 0.5,
            comp_s: 0.5,
            pass_bytes: 100,
        };
        let mut srv = ScanSharingServer::new(64, 8, exec);
        let r = srv.run_open_loop(&arrivals(10, 10.0));
        assert_eq!(r.served, 10);
        assert_eq!(r.batches, 10);
        assert!((r.mean_batch - 1.0).abs() < 1e-12);
        assert!((r.io_savings() - 1.0).abs() < 1e-12);
        assert!(r.latency.p99 < 1.1, "{:?}", r.latency);
    }

    #[test]
    fn overload_fills_batches_and_saves_io() {
        // Unbatched capacity is 1 query/s; arrivals at 2/s saturate it.
        let mk = |max_batch| {
            let exec = Fixed {
                io_s: 0.5,
                comp_s: 0.5,
                pass_bytes: 1000,
            };
            let mut srv = ScanSharingServer::new(1000, max_batch, exec);
            srv.run_open_loop(&arrivals(100, 0.5))
        };
        let unbatched = mk(1);
        let batched = mk(8);
        assert_eq!(unbatched.served, 100);
        assert_eq!(batched.served, 100);
        // Scan sharing: far fewer passes, ≥2× fewer bytes, better p95.
        assert!(batched.batches * 2 <= unbatched.batches);
        assert!(batched.bytes_read * 2 <= unbatched.bytes_read);
        assert!(batched.io_savings() >= 2.0, "{}", batched.io_savings());
        assert!(
            batched.latency.p95 < unbatched.latency.p95 / 2.0,
            "batched {:?} vs unbatched {:?}",
            batched.latency,
            unbatched.latency
        );
        assert!(batched.throughput_qps > unbatched.throughput_qps);
    }

    #[test]
    fn bounded_queue_rejects_under_overload() {
        let exec = Fixed {
            io_s: 1.0,
            comp_s: 0.0,
            pass_bytes: 10,
        };
        let mut srv = ScanSharingServer::new(4, 1, exec);
        let r = srv.run_open_loop(&arrivals(50, 0.1));
        assert!(r.rejected > 0, "{r:?}");
        assert_eq!(r.served + r.rejected, 50);
        // Served latency stays bounded by the queue depth.
        assert!(r.latency.p99 <= 6.0, "{:?}", r.latency);
    }

    #[test]
    fn deadlines_drop_stale_queries() {
        let exec = Fixed {
            io_s: 1.0,
            comp_s: 0.0,
            pass_bytes: 10,
        };
        let mut srv = ScanSharingServer::new(100, 1, exec);
        let mut work = arrivals(20, 0.0);
        for q in &mut work {
            // Only ~3 can be served before 3 s.
            q.deadline = Some(SimTime::from_secs(3));
        }
        let r = srv.run_open_loop(&work);
        assert!(r.expired > 0, "{r:?}");
        assert_eq!(r.served + r.expired, 20);
    }

    #[test]
    fn open_loop_is_deterministic() {
        let run = || {
            let exec = Fixed {
                io_s: 0.3,
                comp_s: 0.2,
                pass_bytes: 77,
            };
            let mut srv = ScanSharingServer::new(32, 4, exec);
            srv.run_open_loop(&arrivals(60, 0.4))
        };
        assert_eq!(run(), run());
    }
}
