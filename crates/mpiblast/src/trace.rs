//! Application-level I/O tracing (the instrumentation behind Figure 4).
//!
//! The paper instrumented the NCBI BLAST library to collect I/O traces at
//! the application level; we wrap every store access in a [`Tracer`] that
//! records `(time, kind, bytes)` triples and can summarize them exactly the
//! way §4.2 reports: operation counts, read/write mix, and size
//! distributions (13 B – 220 MB reads with a ~10 MB mean in the original).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use parblast_simcore::SimTime;

/// Operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// One traced operation.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Seconds since trace start.
    pub t: f64,
    /// Read or write.
    pub kind: IoKind,
    /// Bytes transferred.
    pub bytes: u64,
    /// Worker that performed the operation.
    pub worker: u32,
}

/// Shared collector of trace events.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

/// Where a tracer's timestamps come from.
enum Clock {
    /// Wall-clock seconds since the tracer was created (the real runner).
    Wall(Instant),
    /// Simulated nanoseconds, advanced explicitly via
    /// [`Tracer::advance_to`] — traces taken inside the simulator are a
    /// pure function of the run and byte-identical across repeats.
    Sim(AtomicU64),
}

struct Inner {
    clock: Clock,
    events: Mutex<Vec<TraceEvent>>,
    enabled: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .field(
                "clock",
                &match self.inner.clock {
                    Clock::Wall(_) => "wall",
                    Clock::Sim(_) => "sim",
                },
            )
            .field("events", &self.inner.events.lock().expect("tracer").len())
            .finish()
    }
}

impl Tracer {
    fn with(clock: Clock, enabled: bool) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                clock,
                events: Mutex::new(Vec::new()),
                enabled,
            }),
        }
    }

    /// New enabled tracer timestamping from the wall clock.
    pub fn new() -> Self {
        Tracer::with(Clock::Wall(Instant::now()), true)
    }

    /// New enabled tracer timestamping from simulated time, starting at
    /// zero. Drive the clock with [`Tracer::advance_to`]; the resulting
    /// Figure-4-style trace is deterministic across runs.
    pub fn simulated() -> Self {
        Tracer::with(Clock::Sim(AtomicU64::new(0)), true)
    }

    /// A tracer that records nothing — the paper turned tracing off during
    /// timing measurements "to eliminate the influence of the trace
    /// collection facilities".
    pub fn disabled() -> Self {
        Tracer::with(Clock::Wall(Instant::now()), false)
    }

    /// Move a simulated clock to `now` (no-op for wall-clock tracers).
    pub fn advance_to(&self, now: SimTime) {
        if let Clock::Sim(ns) = &self.inner.clock {
            ns.store(now.as_nanos(), Ordering::Relaxed);
        }
    }

    /// Current trace timestamp, seconds.
    fn now_s(&self) -> f64 {
        match &self.inner.clock {
            Clock::Wall(t0) => t0.elapsed().as_secs_f64(),
            Clock::Sim(ns) => ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Record one operation.
    pub fn record(&self, worker: u32, kind: IoKind, bytes: u64) {
        if !self.inner.enabled {
            return;
        }
        let t = self.now_s();
        self.inner.events.lock().expect("tracer").push(TraceEvent {
            t,
            kind,
            bytes,
            worker,
        });
    }

    /// Snapshot of all events, in time order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut v = self.inner.events.lock().expect("tracer").clone();
        v.sort_by(|a, b| a.t.total_cmp(&b.t));
        v
    }

    /// Summarize like §4.2.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_events(&self.events())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Aggregate statistics of a trace (the §4.2 figures).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total operations.
    pub ops: usize,
    /// Read operations.
    pub reads: usize,
    /// Write operations.
    pub writes: usize,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Smallest read in bytes.
    pub read_min: u64,
    /// Largest read in bytes.
    pub read_max: u64,
    /// Mean read size in bytes.
    pub read_mean: f64,
    /// Smallest write in bytes.
    pub write_min: u64,
    /// Largest write in bytes.
    pub write_max: u64,
    /// Mean write size in bytes.
    pub write_mean: f64,
    /// Read-size tail percentiles (p50/p95/p99, bytes), from the
    /// log-histogram of read sizes.
    pub read_pct: parblast_simcore::Percentiles,
}

impl TraceSummary {
    /// Compute from events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = TraceSummary {
            ops: events.len(),
            reads: 0,
            writes: 0,
            read_fraction: 0.0,
            read_min: u64::MAX,
            read_max: 0,
            read_mean: 0.0,
            write_min: u64::MAX,
            write_max: 0,
            write_mean: 0.0,
            read_pct: parblast_simcore::Percentiles::default(),
        };
        let mut rsum = 0u64;
        let mut wsum = 0u64;
        let mut read_sizes = parblast_simcore::LogHistogram::new();
        for e in events {
            match e.kind {
                IoKind::Read => {
                    s.reads += 1;
                    rsum += e.bytes;
                    s.read_min = s.read_min.min(e.bytes);
                    s.read_max = s.read_max.max(e.bytes);
                    read_sizes.record(e.bytes);
                }
                IoKind::Write => {
                    s.writes += 1;
                    wsum += e.bytes;
                    s.write_min = s.write_min.min(e.bytes);
                    s.write_max = s.write_max.max(e.bytes);
                }
            }
        }
        if s.reads > 0 {
            s.read_mean = rsum as f64 / s.reads as f64;
        } else {
            s.read_min = 0;
        }
        if s.writes > 0 {
            s.write_mean = wsum as f64 / s.writes as f64;
        } else {
            s.write_min = 0;
        }
        if s.ops > 0 {
            s.read_fraction = s.reads as f64 / s.ops as f64;
        }
        s.read_pct = read_sizes.percentiles();
        s
    }

    /// Render the Figure 4 scatter data as TSV (`time_s  bytes  kind`).
    pub fn scatter_tsv(events: &[TraceEvent]) -> String {
        let mut out = String::from("time_s\tbytes\tkind\tworker\n");
        for e in events {
            out.push_str(&format!(
                "{:.6}\t{}\t{}\t{}\n",
                e.t,
                e.bytes,
                match e.kind {
                    IoKind::Read => "read",
                    IoKind::Write => "write",
                },
                e.worker
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let t = Tracer::new();
        t.record(0, IoKind::Read, 13);
        t.record(0, IoKind::Read, 220 << 20);
        t.record(1, IoKind::Write, 50);
        t.record(1, IoKind::Write, 778);
        let s = t.summary();
        assert_eq!(s.ops, 4);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert!((s.read_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.read_min, 13);
        assert_eq!(s.read_max, 220 << 20);
        assert_eq!(s.write_min, 50);
        assert_eq!(s.write_max, 778);
        assert!((s.write_mean - 414.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_clock_timestamps_are_deterministic() {
        let run = || {
            let t = Tracer::simulated();
            t.advance_to(SimTime::from_millis(250));
            t.record(0, IoKind::Read, 8 << 20);
            t.advance_to(SimTime::from_secs(3));
            t.record(1, IoKind::Write, 690);
            t.events()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a[0].t, 0.25);
        assert_eq!(a[1].t, 3.0);
    }

    #[test]
    fn wall_tracer_ignores_advance_to() {
        let t = Tracer::new();
        t.advance_to(SimTime::from_secs(1000));
        t.record(0, IoKind::Read, 1);
        // Wall timestamps are elapsed-since-creation, far below 1000 s.
        assert!(t.events()[0].t < 100.0);
    }

    #[test]
    fn summary_reports_read_percentiles() {
        let t = Tracer::new();
        for _ in 0..99 {
            t.record(0, IoKind::Read, 8 << 20);
        }
        t.record(0, IoKind::Read, 13);
        let s = t.summary();
        assert!(s.read_pct.p50 > 1e6, "{:?}", s.read_pct);
        assert!(s.read_pct.p50 <= s.read_pct.p95);
        assert!(s.read_pct.p95 <= s.read_pct.p99);
        assert!(s.read_pct.p99 <= (8 << 20) as f64);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(0, IoKind::Read, 1000);
        assert_eq!(t.summary().ops, 0);
    }

    #[test]
    fn events_sorted_by_time() {
        let t = Tracer::new();
        for i in 0..50 {
            t.record(i % 4, IoKind::Read, i as u64 + 1);
        }
        let ev = t.events();
        for w in ev.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn scatter_tsv_format() {
        let ev = vec![TraceEvent {
            t: 1.5,
            kind: IoKind::Read,
            bytes: 42,
            worker: 3,
        }];
        let tsv = TraceSummary::scatter_tsv(&ev);
        assert!(tsv.starts_with("time_s\tbytes\tkind\tworker\n"));
        assert!(tsv.contains("1.500000\t42\tread\t3"));
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s.ops, 0);
        assert_eq!(s.read_min, 0);
        assert_eq!(s.write_min, 0);
    }
}
