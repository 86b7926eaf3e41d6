//! Persistent per-server reader threads, and the one way the striped
//! engine ([`crate::Store`]) reads through them.
//!
//! Each store owns one long-lived thread per server (a *lane*, standing in
//! for one PVFS I/O daemon serving its [`crate::LocalStore`]). Every read
//! is a list of regions, and a contiguous read is a list of one: the
//! store plans each lane's share of the list, the pool enqueues one fetch
//! job per involved lane, each job reads its segments straight into its
//! own bytes, and the caller blocks until every lane's bytes are
//! scattered into its buffer. Before the lanes existed every
//! read spawned and joined one OS thread per involved server — tens of
//! microseconds (measured ~32 µs for a one-server 64 KiB read) on every
//! call.

use std::cell::Cell;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};

use crate::layout::{LocalRange, StripeLayout};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed set of persistent reader threads, one per server directory.
///
/// Jobs submitted to the same lane run in submission order (one PVFS I/O
/// daemon serves its disk serially); distinct lanes run in parallel. The
/// threads exit when the owning store (all clones of it) is dropped.
pub struct ReaderPool {
    lanes: Vec<Sender<Job>>,
    /// Modeled disk bandwidth of each lane in bytes/second (0 =
    /// unthrottled). Benchmarks use it to stand in for the paper's ~26 MB/s
    /// disks, where real reads would be served from the page cache at
    /// memory speed; one slow lane is a loaded disk.
    throttles: Vec<Arc<AtomicU64>>,
    /// Jobs ever submitted across all lanes — each stands in for one
    /// request at a PVFS I/O daemon, so benches read it to show the
    /// list-I/O request-count collapse on the real path.
    submitted: Arc<AtomicU64>,
}

impl ReaderPool {
    /// Spawn `lanes` persistent reader threads.
    pub fn new(lanes: usize) -> Self {
        let senders = (0..lanes)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Job>();
                std::thread::spawn(move || loop {
                    let job = match rx.try_recv() {
                        Ok(job) => job,
                        Err(TryRecvError::Empty) => {
                            // The lane idles: what its last sleep overran
                            // is not owed to a later job.
                            LATE.with(|late| late.set(Duration::ZERO));
                            match rx.recv() {
                                Ok(job) => job,
                                Err(_) => return,
                            }
                        }
                        Err(TryRecvError::Disconnected) => return,
                    };
                    job();
                });
                tx
            })
            .collect();
        ReaderPool {
            lanes: senders,
            throttles: (0..lanes).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            submitted: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Enqueue `job` on `lane`; it runs after everything already queued
    /// there.
    pub fn submit(&self, lane: usize, job: impl FnOnce() + Send + 'static) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.lanes[lane]
            .send(Box::new(job))
            .unwrap_or_else(|_| unreachable!("lane thread outlives its sender"));
    }

    /// Total jobs submitted across all lanes since the pool was created
    /// (one job = one server request).
    pub fn jobs_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Model disk bandwidth on every lane: each fetched byte costs
    /// `1/bytes_per_s` seconds of lane time on top of the real read (0
    /// disables).
    pub fn set_throttle(&self, bytes_per_s: u64) {
        for t in &self.throttles {
            t.store(bytes_per_s, Ordering::Relaxed);
        }
    }

    /// [`Self::set_throttle`] for one lane only: a disk slower than its
    /// peers, the way a disk loaded by another application is.
    pub(crate) fn set_lane_throttle(&self, lane: usize, bytes_per_s: u64) {
        self.throttles[lane].store(bytes_per_s, Ordering::Relaxed);
    }

    /// Shared handle to `lane`'s throttle setting, for capture in fetch
    /// jobs.
    pub(crate) fn throttle(&self, lane: usize) -> Arc<AtomicU64> {
        Arc::clone(&self.throttles[lane])
    }

    /// Read a region list into `buf`: one job per lane whose plan holds
    /// segments, enqueued on that lane. The job runs `job_of(lane)` on its
    /// `(local_offset, len)` segments, in list order, and on bytes of
    /// their summed length to fill back to back. Blocks until every job
    /// has answered; returns the first error.
    pub(crate) fn read<F>(
        &self,
        plans: Vec<LanePlan>,
        buf: &mut [u8],
        mut job_of: impl FnMut(usize) -> F,
    ) -> io::Result<()>
    where
        F: FnOnce(Vec<(u64, u64)>, &mut [u8]) -> io::Result<()> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let mut scatters = Vec::new();
        for (lane, plan) in plans.into_iter().enumerate() {
            if plan.segs.is_empty() {
                continue;
            }
            let (idx, tx, job) = (scatters.len(), tx.clone(), job_of(lane));
            let LanePlan { segs, scatter, len } = plan;
            scatters.push(scatter);
            self.submit(lane, move || {
                let mut out = vec![0u8; len];
                let res = job(segs, &mut out);
                let _ = tx.send((idx, res.map(|()| out)));
            });
        }
        drop(tx);
        gather(buf, &rx, &scatters)
    }
}

impl fmt::Debug for ReaderPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let throttles: Vec<u64> = self
            .throttles
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect();
        f.debug_struct("ReaderPool")
            .field("lanes", &self.lanes.len())
            .field("throttles", &throttles)
            .finish()
    }
}

thread_local! {
    /// How far past its end the last pacing sleep of this lane thread
    /// woke, while the lane has not idled since.
    static LATE: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// Sleep out the modeled transfer time of `bytes` at the throttle rate
/// (no-op when unthrottled). Called by fetch jobs on their lane thread, so
/// throttled lanes serialize exactly like a real disk would.
///
/// The OS wakes a sleeper late, by tens to hundreds of microseconds, and
/// by more on a busy machine; a 48-byte header read at 16 MiB/s is due
/// 3 µs. A lane that goes straight on to its next job takes what its last
/// sleep overran off that job's sleep, so a busy lane serves its modeled
/// rate rather than the rate plus one wake-up per job. A lane that idles
/// starts afresh.
pub fn pace(throttle: &AtomicU64, bytes: u64) {
    let rate = throttle.load(Ordering::Relaxed);
    if rate == 0 || bytes == 0 {
        return;
    }
    let due = Duration::from_secs_f64(bytes as f64 / rate as f64);
    let late = LATE.with(Cell::get);
    let Some(nap) = due.checked_sub(late) else {
        LATE.with(|l| l.set(late - due));
        return;
    };
    let t0 = Instant::now();
    std::thread::sleep(nap);
    LATE.with(|l| l.set(t0.elapsed().saturating_sub(nap)));
}

/// Token-bucket pacing for background maintenance I/O (scrubbing, mirror
/// resync): `consume` sleeps just enough that the cumulative byte count
/// never exceeds `bytes_per_s × elapsed`. Unlike [`pace`], which models a
/// *disk's* service rate per request, a `RateLimiter` caps a whole
/// background walk so foreground reads keep most of the bandwidth.
#[derive(Debug)]
pub struct RateLimiter {
    rate: u64,
    started: std::time::Instant,
    consumed: u64,
}

impl RateLimiter {
    /// Cap at `bytes_per_s` (0 = unlimited).
    pub fn new(bytes_per_s: u64) -> Self {
        RateLimiter {
            rate: bytes_per_s,
            started: std::time::Instant::now(),
            consumed: 0,
        }
    }

    /// No pacing at all.
    pub fn unlimited() -> Self {
        RateLimiter::new(0)
    }

    /// Account `bytes` of background I/O, sleeping if ahead of the cap.
    pub fn consume(&mut self, bytes: u64) {
        if self.rate == 0 || bytes == 0 {
            return;
        }
        self.consumed += bytes;
        let due = self.consumed as f64 / self.rate as f64;
        let ahead = due - self.started.elapsed().as_secs_f64();
        if ahead > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ahead));
        }
    }

    /// Bytes accounted so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// One copy of a lane's bytes: `(dst, src, len)` — copy `len` bytes from
/// offset `src` of the lane job's bytes to offset `dst` of the caller's
/// buffer.
type ScatterSeg = (usize, usize, usize);

/// One lane's share of a region-list read: the `(local_offset, len)`
/// segments its job fetches, in list order, and the copy plan that places
/// the job's bytes (those segments back to back) in the caller's buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct LanePlan {
    segs: Vec<(u64, u64)>,
    scatter: Vec<ScatterSeg>,
    /// Bytes the job returns: the segment lengths summed.
    len: usize,
}

impl LanePlan {
    /// Add `r`, server `r.server`'s share of the logical extent `(off,
    /// len)` under `layout`, whose first byte lands at `dst` of the
    /// caller's buffer.
    pub(crate) fn push(
        &mut self,
        layout: &StripeLayout,
        (off, len): (u64, u64),
        r: LocalRange,
        dst: usize,
    ) {
        for (d, s, n) in layout.scatter(off, len, r.server) {
            self.scatter.push((dst + d, self.len + s, n));
        }
        self.segs.push((r.local_offset, r.len));
        self.len += r.len as usize;
    }
}

/// Wait for one answer per plan in `scatters` and copy each lane's bytes
/// into `buf` by its plan. Every part is drained even after an error, so
/// no lane job is still running when the read returns; the first error
/// wins.
fn gather(
    buf: &mut [u8],
    rx: &Receiver<(usize, io::Result<Vec<u8>>)>,
    scatters: &[Vec<ScatterSeg>],
) -> io::Result<()> {
    let mut first_err = None;
    for _ in scatters {
        match rx.recv() {
            Ok((idx, Ok(data))) => {
                for &(dst, src, n) in &scatters[idx] {
                    buf[dst..dst + n].copy_from_slice(&data[src..src + n]);
                }
            }
            Ok((_, Err(e))) => {
                first_err.get_or_insert(e);
            }
            Err(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "reader pool disconnected mid-read",
                ))
            }
        }
    }
    first_err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_run_jobs_in_submission_order() {
        let pool = ReaderPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.submit(0, move || {
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().take(10).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_lanes_run_in_parallel() {
        use std::sync::atomic::AtomicUsize;
        let pool = ReaderPool::new(4);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for lane in 0..4 {
            let (b, d, tx) = (Arc::clone(&barrier), Arc::clone(&done), tx.clone());
            pool.submit(lane, move || {
                // Deadlocks unless all four lanes reach this point at once.
                b.wait();
                d.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..4 {
            rx.recv().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn gather_assembles_scattered_parts() {
        let (tx, rx) = mpsc::channel();
        // Two parts interleaving 2-byte stripes of an 8-byte buffer.
        let scatters = vec![
            vec![(0, 0, 2), (4, 2, 2)], // part 0: bytes 0-1 and 4-5
            vec![(2, 0, 2), (6, 2, 2)], // part 1: bytes 2-3 and 6-7
        ];
        tx.send((1usize, Ok(vec![3u8, 3, 4, 4]))).unwrap();
        tx.send((0usize, Ok(vec![1u8, 1, 2, 2]))).unwrap();
        let mut buf = [0u8; 8];
        gather(&mut buf, &rx, &scatters).unwrap();
        assert_eq!(buf, [1, 1, 3, 3, 2, 2, 4, 4]);
    }

    #[test]
    fn gather_surfaces_part_errors_after_draining_every_part() {
        let (tx, rx) = mpsc::channel();
        tx.send((
            0usize,
            Err(io::Error::new(io::ErrorKind::NotFound, "replica gone")),
        ))
        .unwrap();
        tx.send((1usize, Ok(vec![9u8; 4]))).unwrap();
        let mut buf = [0u8; 8];
        let err = gather(&mut buf, &rx, &[vec![(0, 0, 4)], vec![(4, 0, 4)]]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(rx.try_recv().is_err(), "a part was left undrained");
    }

    #[test]
    fn lane_throttles_are_independent() {
        let pool = ReaderPool::new(3);
        pool.set_throttle(1000);
        pool.set_lane_throttle(1, 10);
        let rates: Vec<u64> = (0..3)
            .map(|l| pool.throttle(l).load(Ordering::Relaxed))
            .collect();
        assert_eq!(rates, vec![1000, 10, 1000]);
    }

    #[test]
    fn a_late_wake_is_taken_off_the_next_sleep_until_the_lane_idles() {
        // 1 MB/s: 20 000 bytes are due 20 ms. Each job answers how long
        // its pacing took and what the lane is owed after it.
        let pool = ReaderPool::new(1);
        let (tx, rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let job = |owed: Option<Duration>, bytes: u64| {
            let tx = tx.clone();
            move || {
                if let Some(owed) = owed {
                    LATE.with(|l| l.set(owed));
                }
                let t0 = Instant::now();
                pace(&AtomicU64::new(1_000_000), bytes);
                tx.send((t0.elapsed(), LATE.with(Cell::get))).unwrap();
            }
        };
        // Hold the lane until three jobs queue behind it, so it goes
        // straight from one to the next.
        pool.submit(0, move || gate_rx.recv().unwrap());
        pool.submit(0, job(Some(Duration::from_millis(50)), 20_000));
        pool.submit(0, job(None, 40_000));
        gate_tx.send(()).unwrap();
        // 20 ms due of 50 owed: no sleep, 30 owed.
        let (took, owed) = rx.recv().unwrap();
        assert!(took < Duration::from_millis(10), "{took:?}");
        assert_eq!(owed, Duration::from_millis(30));
        // 40 ms due: it sleeps the 10 past what is owed.
        let (took, _) = rx.recv().unwrap();
        assert!(took >= Duration::from_millis(10), "{took:?}");
        assert!(took < Duration::from_millis(30), "{took:?}");
        // A lane that idled is owed nothing.
        pool.submit(0, job(Some(Duration::from_millis(50)), 0));
        assert_eq!(rx.recv().unwrap().1, Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(20));
        pool.submit(0, job(None, 0));
        assert_eq!(rx.recv().unwrap().1, Duration::ZERO);
    }

    #[test]
    fn pace_is_a_noop_when_unthrottled() {
        let t = AtomicU64::new(0);
        let t0 = std::time::Instant::now();
        pace(&t, 1 << 30);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn rate_limiter_caps_throughput() {
        // 1 MB/s cap, 100 KB consumed → at least ~100 ms must elapse.
        let mut lim = RateLimiter::new(1 << 20);
        let t0 = std::time::Instant::now();
        for _ in 0..10 {
            lim.consume(10 << 10);
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(80),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(lim.consumed(), 100 << 10);
        // Unlimited never sleeps.
        let t0 = std::time::Instant::now();
        RateLimiter::unlimited().consume(1 << 40);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
