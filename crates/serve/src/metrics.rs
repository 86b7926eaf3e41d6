//! Per-query and per-batch serving metrics, built on [`parblast_simcore::stats`].
//!
//! Latency and queue-wait land in microsecond [`LogHistogram`]s (so the
//! p50/p95/p99 extraction spans milliseconds to hours without losing the
//! tail); scan/search split and batch fill accumulate in [`Summary`]s,
//! and the event counters (queries served, batches, bytes, kernel passes)
//! are plain integers: the one recorder is the single-threaded
//! [`crate::ScanSharingServer`] loop. A [`ServeReport`] freezes
//! everything into the numbers `BENCH_serve.json` and EXPERIMENTS.md
//! quote. (The networked daemon keeps its own relaxed-atomic counters,
//! only those its `Stats` frame carries.)

use parblast_simcore::{LogHistogram, Percentiles, SimTime, Summary};

use crate::batcher::BatchResult;
use crate::queue::{AdmissionQueue, Query};

/// Running serving-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    queue_wait_us: LogHistogram,
    latency_us: LogHistogram,
    scan_s: Summary,
    search_s: Summary,
    batch_fill: Summary,
    served: u64,
    batches: u64,
    bytes_read: u64,
    bytes_unbatched: u64,
    deadline_hits: u64,
    kernel_passes: u64,
    passes_saved: u64,
}

impl ServeMetrics {
    /// Record one completed scan-sharing batch: `start` is when the batch
    /// left the queue, `done` when every query's result was ready.
    pub fn record_batch(
        &mut self,
        batch: &[Query],
        start: SimTime,
        done: SimTime,
        res: &BatchResult,
    ) {
        let n = batch.len() as u64;
        for q in batch {
            let wait = start.saturating_sub(q.arrival);
            let latency = done.saturating_sub(q.arrival);
            self.queue_wait_us.record(wait.as_nanos() / 1_000);
            self.latency_us.record(latency.as_nanos() / 1_000);
            if q.deadline.is_some_and(|d| done <= d) {
                self.deadline_hits += 1;
            }
        }
        self.batch_fill.record(n as f64);
        self.scan_s.record(res.scan_s);
        self.search_s.record(res.search_s);
        self.served += n;
        self.batches += 1;
        self.bytes_read += res.bytes_read;
        // Without scan sharing every query would read the pass alone.
        self.bytes_unbatched += res.bytes_read * n;
        self.kernel_passes += res.kernel_passes;
        self.passes_saved += res.passes_saved;
    }

    /// Freeze into a report. `queue` supplies the admission counters,
    /// `end` the instant the last batch completed.
    pub fn report(&self, queue: &AdmissionQueue, end: SimTime) -> ServeReport {
        let us = |p: Percentiles| Percentiles {
            p50: p.p50 / 1e6,
            p95: p.p95 / 1e6,
            p99: p.p99 / 1e6,
        };
        let duration_s = end.as_secs_f64();
        ServeReport {
            served: self.served,
            batches: self.batches,
            rejected: queue.rejected(),
            expired: queue.expired(),
            duration_s,
            throughput_qps: if duration_s > 0.0 {
                self.served as f64 / duration_s
            } else {
                0.0
            },
            wait: us(self.queue_wait_us.percentiles()),
            latency: us(self.latency_us.percentiles()),
            mean_wait_s: self.queue_wait_us.summary().mean() / 1e6,
            mean_latency_s: self.latency_us.summary().mean() / 1e6,
            mean_batch: self.batch_fill.mean(),
            scan_s_mean: self.scan_s.mean(),
            search_s_mean: self.search_s.mean(),
            bytes_read: self.bytes_read,
            bytes_unbatched: self.bytes_unbatched,
            deadline_hits: self.deadline_hits,
            kernel_passes: self.kernel_passes,
            passes_saved: self.passes_saved,
        }
    }
}

/// Frozen serving-run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Queries whose results were produced.
    pub served: u64,
    /// Scan-sharing batches executed.
    pub batches: u64,
    /// Queries refused at admission (backpressure).
    pub rejected: u64,
    /// Queries dropped on an expired deadline.
    pub expired: u64,
    /// First arrival → last completion, seconds.
    pub duration_s: f64,
    /// Served queries per second of run.
    pub throughput_qps: f64,
    /// Queue-wait percentiles, seconds.
    pub wait: Percentiles,
    /// End-to-end latency percentiles, seconds.
    pub latency: Percentiles,
    /// Mean queue wait, seconds.
    pub mean_wait_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Mean realized batch size.
    pub mean_batch: f64,
    /// Mean per-batch scan (I/O) seconds.
    pub scan_s_mean: f64,
    /// Mean per-batch search (compute) seconds.
    pub search_s_mean: f64,
    /// Total database bytes actually read.
    pub bytes_read: u64,
    /// Bytes the same queries would have read unbatched (one pass each).
    pub bytes_unbatched: u64,
    /// Served queries that met their deadline (only counted for queries
    /// that had one).
    pub deadline_hits: u64,
    /// Seed-scan kernel passes actually executed.
    pub kernel_passes: u64,
    /// Kernel passes the fused multi-query kernel avoided versus
    /// per-query scanning.
    pub passes_saved: u64,
}

impl ServeReport {
    /// Scan-sharing I/O savings factor (`bytes_unbatched / bytes_read`,
    /// 1.0 when nothing was saved or nothing ran).
    pub fn io_savings(&self) -> f64 {
        if self.bytes_read == 0 {
            1.0
        } else {
            self.bytes_unbatched as f64 / self.bytes_read as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Priority;

    fn query(id: u64, arrival_s: u64) -> Query {
        Query {
            id,
            priority: Priority::Normal,
            arrival: SimTime::from_secs(arrival_s),
            deadline: None,
            payload: 0,
        }
    }

    #[test]
    fn batch_accounting_and_savings() {
        let mut m = ServeMetrics::default();
        let batch = vec![query(1, 0), query(2, 1)];
        let res = BatchResult {
            service_s: 3.0,
            scan_s: 1.0,
            search_s: 2.0,
            bytes_read: 100,
            kernel_passes: 1,
            passes_saved: 1,
        };
        m.record_batch(&batch, SimTime::from_secs(2), SimTime::from_secs(5), &res);
        let r = m.report(&AdmissionQueue::new(4), SimTime::from_secs(5));
        assert_eq!(r.served, 2);
        assert_eq!(r.batches, 1);
        assert_eq!(r.bytes_read, 100);
        assert_eq!(r.bytes_unbatched, 200);
        assert_eq!(r.kernel_passes, 1);
        assert_eq!(r.passes_saved, 1);
        assert!((r.io_savings() - 2.0).abs() < 1e-12);
        assert!((r.mean_batch - 2.0).abs() < 1e-12);
        // Query 1 waited 2 s and finished at latency 5 s; query 2 waited
        // 1 s with latency 4 s. Means come straight from the histograms.
        assert!((r.mean_wait_s - 1.5).abs() < 1e-9, "{}", r.mean_wait_s);
        assert!(
            (r.mean_latency_s - 4.5).abs() < 1e-9,
            "{}",
            r.mean_latency_s
        );
        assert!(r.latency.p50 > 0.0 && r.latency.p99 <= 5.0 + 1e-9);
        assert!((r.throughput_qps - 0.4).abs() < 1e-12);
    }

    #[test]
    fn deadline_hits_counted_only_for_deadlined_queries() {
        let mut m = ServeMetrics::default();
        let mut a = query(1, 0);
        a.deadline = Some(SimTime::from_secs(10));
        let mut b = query(2, 0);
        b.deadline = Some(SimTime::from_secs(1));
        let c = query(3, 0);
        let res = BatchResult {
            service_s: 2.0,
            scan_s: 0.5,
            search_s: 1.5,
            bytes_read: 10,
            kernel_passes: 1,
            passes_saved: 2,
        };
        m.record_batch(&[a, b, c], SimTime::ZERO, SimTime::from_secs(2), &res);
        let r = m.report(&AdmissionQueue::new(4), SimTime::from_secs(2));
        assert_eq!(r.deadline_hits, 1);
    }
}
