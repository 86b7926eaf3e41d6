//! Queueing resources embedded inside components.
//!
//! Two service disciplines cover the hardware models:
//!
//! * [`FcfsStation`] — a single server with first-come-first-served order
//!   (disks, NIC transmit/receive paths). Because service times are known
//!   at submission, the station can be simulated analytically: completion
//!   time is `max(now, previous completion) + service`.
//! * [`PsResource`] — generalized processor sharing with `c` servers
//!   (a node's CPUs). Jobs carry a work amount in "server-seconds"; each of
//!   the `k` active jobs progresses at rate `min(1, c/k)`. Because future
//!   arrivals change completion times, the owner drives it with
//!   `advance`/`next_completion` and reschedules wake-ups on every change.

use crate::stats::TimeWeighted;
use crate::time::SimTime;

/// Single FCFS server with deterministic completion times.
#[derive(Debug, Clone)]
pub struct FcfsStation {
    free_at: SimTime,
    served: u64,
    busy_ns: u64,
}

impl FcfsStation {
    /// New idle station.
    pub fn new(t0: SimTime) -> Self {
        FcfsStation {
            free_at: t0,
            served: 0,
            busy_ns: 0,
        }
    }

    /// Submit a request at `now` requiring `service` time; returns its
    /// completion time (the caller schedules the completion event).
    pub fn submit(&mut self, now: SimTime, service: SimTime) -> SimTime {
        let start = self.free_at.max(now);
        let done = start.saturating_add(service);
        self.free_at = done;
        self.served += 1;
        self.busy_ns += service.as_nanos();
        done
    }

    /// Time at which the station next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Queue delay a request submitted at `now` would currently face.
    pub fn backlog(&self, now: SimTime) -> SimTime {
        self.free_at.saturating_sub(now)
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> SimTime {
        SimTime::from_nanos(self.busy_ns)
    }

    /// Utilization over `[t0, now]`.
    pub fn utilization(&self, now: SimTime, t0: SimTime) -> f64 {
        let span = now.saturating_sub(t0).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        // Busy time cannot exceed wall time even though free_at may be in
        // the future; clamp.
        (self.busy_time().as_secs_f64() / span).min(1.0)
    }
}

/// Identifier of a job inside a [`PsResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PsJobId(pub u64);

#[derive(Debug, Clone)]
struct PsJob {
    id: PsJobId,
    remaining: f64, // server-seconds
}

/// Generalized processor sharing with `servers` identical servers.
#[derive(Debug, Clone)]
pub struct PsResource {
    servers: f64,
    jobs: Vec<PsJob>,
    last: SimTime,
    next_id: u64,
    load: TimeWeighted,
    completed: u64,
}

impl PsResource {
    /// New empty resource with the given server count (e.g. 2.0 CPUs).
    pub fn new(t0: SimTime, servers: f64) -> Self {
        assert!(servers > 0.0);
        PsResource {
            servers,
            jobs: Vec::new(),
            last: t0,
            next_id: 1,
            load: TimeWeighted::new(t0, 0.0),
            completed: 0,
        }
    }

    fn rate(&self) -> f64 {
        let k = self.jobs.len() as f64;
        if k == 0.0 {
            0.0
        } else {
            (self.servers / k).min(1.0)
        }
    }

    /// Progress all jobs to `now`, removing finished ones and returning
    /// their ids. Call this before every query or mutation at `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<PsJobId> {
        let mut finished = Vec::new();
        let mut t = self.last;
        // Jobs may finish at staggered instants before `now`; step through
        // completion epochs so the rate is correct in each interval. Each
        // epoch either finishes at least one job (bounding the loop by the
        // job count) or consumes all available time and breaks.
        while !self.jobs.is_empty() {
            let rate = self.rate();
            // Earliest remaining completion under the current rate.
            let min_rem = self
                .jobs
                .iter()
                .map(|j| j.remaining)
                .fold(f64::INFINITY, f64::min);
            let dt_to_finish = min_rem / rate;
            let dt_avail = (now.saturating_sub(t)).as_secs_f64();
            if dt_to_finish <= dt_avail + 1e-12 {
                let step = dt_to_finish;
                for j in &mut self.jobs {
                    j.remaining -= rate * step;
                }
                t = t.saturating_add(SimTime::from_secs_f64(step)).min(now);
                let mut i = 0;
                let mut any = false;
                while i < self.jobs.len() {
                    if self.jobs[i].remaining <= 1e-9 {
                        finished.push(self.jobs.swap_remove(i).id);
                        self.completed += 1;
                        any = true;
                    } else {
                        i += 1;
                    }
                }
                // Guard against floating-point stall: if nothing finished,
                // force-finish the minimum-remaining job (it was within
                // rounding of done).
                if !any {
                    let (idx, _) = self
                        .jobs
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))
                        .expect("nonempty");
                    finished.push(self.jobs.swap_remove(idx).id);
                    self.completed += 1;
                }
            } else {
                for j in &mut self.jobs {
                    j.remaining -= rate * dt_avail;
                }
                break;
            }
        }
        self.last = now;
        self.load.set(now, self.jobs.len() as f64);
        finished
    }

    /// Add a job with `work` server-seconds at `now`. `advance(now)` must be
    /// called first (debug-asserted).
    pub fn add(&mut self, now: SimTime, work: f64) -> PsJobId {
        debug_assert!(self.last == now, "advance() before add()");
        let id = PsJobId(self.next_id);
        self.next_id += 1;
        self.jobs.push(PsJob {
            id,
            remaining: work.max(0.0),
        });
        self.load.set(now, self.jobs.len() as f64);
        id
    }

    /// Remove a job before completion (e.g. cancelled work); returns the
    /// remaining server-seconds if the job existed.
    pub fn remove(&mut self, now: SimTime, id: PsJobId) -> Option<f64> {
        debug_assert!(self.last == now, "advance() before remove()");
        let idx = self.jobs.iter().position(|j| j.id == id)?;
        let job = self.jobs.swap_remove(idx);
        self.load.set(now, self.jobs.len() as f64);
        Some(job.remaining)
    }

    /// Predicted time of the next completion assuming no further arrivals.
    /// `None` when idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        debug_assert!(self.last == now, "advance() before next_completion()");
        if self.jobs.is_empty() {
            return None;
        }
        let rate = self.rate();
        let min_rem = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        Some(now.saturating_add(SimTime::from_secs_f64(min_rem / rate)))
    }

    /// Jobs currently in service.
    pub fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Time-averaged number of active jobs.
    pub fn average_load(&self, now: SimTime) -> f64 {
        self.load.average(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_sequences_requests() {
        let mut st = FcfsStation::new(SimTime::ZERO);
        let d1 = st.submit(SimTime::ZERO, SimTime::from_secs(2));
        let d2 = st.submit(SimTime::ZERO, SimTime::from_secs(3));
        assert_eq!(d1, SimTime::from_secs(2));
        assert_eq!(d2, SimTime::from_secs(5));
        // A later arrival after the queue drains starts immediately.
        let d3 = st.submit(SimTime::from_secs(10), SimTime::from_secs(1));
        assert_eq!(d3, SimTime::from_secs(11));
        assert_eq!(st.served(), 3);
        assert_eq!(st.busy_time(), SimTime::from_secs(6));
    }

    #[test]
    fn fcfs_utilization() {
        let mut st = FcfsStation::new(SimTime::ZERO);
        st.submit(SimTime::ZERO, SimTime::from_secs(5));
        let u = st.utilization(SimTime::from_secs(10), SimTime::ZERO);
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ps_single_job_runs_at_full_rate() {
        let mut ps = PsResource::new(SimTime::ZERO, 2.0);
        ps.advance(SimTime::ZERO);
        let _id = ps.add(SimTime::ZERO, 4.0);
        let done = ps.next_completion(SimTime::ZERO).unwrap();
        // One job on a 2-server PS runs at rate 1 (a job can use one server).
        assert_eq!(done, SimTime::from_secs(4));
    }

    #[test]
    fn ps_three_jobs_on_two_cpus_share() {
        let mut ps = PsResource::new(SimTime::ZERO, 2.0);
        ps.advance(SimTime::ZERO);
        for _ in 0..3 {
            ps.add(SimTime::ZERO, 3.0);
        }
        // rate = 2/3 each → 3.0 work finishes at t = 4.5.
        let done = ps.next_completion(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 4.5).abs() < 1e-9);
        let fin = ps.advance(SimTime::from_secs_f64(4.5));
        assert_eq!(fin.len(), 3);
        assert_eq!(ps.active(), 0);
    }

    #[test]
    fn ps_staggered_arrivals() {
        let mut ps = PsResource::new(SimTime::ZERO, 1.0);
        ps.advance(SimTime::ZERO);
        let a = ps.add(SimTime::ZERO, 2.0);
        // At t=1, add a second job; each then runs at rate 1/2.
        ps.advance(SimTime::from_secs(1));
        let b = ps.add(SimTime::from_secs(1), 2.0);
        // Job a has 1.0 left at t=1 → finishes at t=3; b finishes at t=1+ (2-?)...
        let next = ps.next_completion(SimTime::from_secs(1)).unwrap();
        assert!((next.as_secs_f64() - 3.0).abs() < 1e-9);
        let fin = ps.advance(SimTime::from_secs(3));
        assert_eq!(fin, vec![a]);
        // b had 1.0 remaining at t=3, now alone at rate 1 → done at t=4.
        let next = ps.next_completion(SimTime::from_secs(3)).unwrap();
        assert!((next.as_secs_f64() - 4.0).abs() < 1e-9);
        let fin = ps.advance(SimTime::from_secs(5));
        assert_eq!(fin, vec![b]);
    }

    #[test]
    fn ps_remove_returns_remaining() {
        let mut ps = PsResource::new(SimTime::ZERO, 1.0);
        ps.advance(SimTime::ZERO);
        let id = ps.add(SimTime::ZERO, 10.0);
        ps.advance(SimTime::from_secs(4));
        let rem = ps.remove(SimTime::from_secs(4), id).unwrap();
        assert!((rem - 6.0).abs() < 1e-9);
        assert_eq!(ps.active(), 0);
    }

    #[test]
    fn ps_average_load() {
        let mut ps = PsResource::new(SimTime::ZERO, 1.0);
        ps.advance(SimTime::ZERO);
        ps.add(SimTime::ZERO, 5.0);
        ps.advance(SimTime::from_secs(5));
        // 1 job for 5 s, then idle 5 s → average 0.5 over 10 s.
        ps.advance(SimTime::from_secs(10));
        let avg = ps.average_load(SimTime::from_secs(10));
        assert!((avg - 0.5).abs() < 1e-9, "avg={avg}");
    }
}
