//! mpiBLAST's master (§2.2) as a state machine over task indices, with no
//! clock and no threads. The simulator's master component and the
//! runner's fetch threads both drive it, so both hand out the same
//! fragments in the same order and give up on the same attempt.

/// Hand-outs of one task before its failure fails the job.
pub const MAX_ATTEMPTS: u32 = 3;

/// The answer to [`Master::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Work on this task, then report it done or failed.
    Task(usize),
    /// Nothing for this worker now; ask again after the next report or
    /// hand-out.
    Wait,
    /// Nothing is pending or held: the job is over.
    Finished,
}

/// What [`Master::failed`] did with the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Put back on top of the pending tasks.
    Retry,
    /// Dropped at its [`MAX_ATTEMPTS`]th failure: the job has failed.
    Fatal,
}

/// Pending tasks, who holds what, and each task's failures. The rules:
/// * tasks are handed out last-first;
/// * a failed task goes back on top, so the worker it failed on, idle
///   again, claims it next;
/// * after a [`Failure::Fatal`] pending tasks are still handed out and
///   retried;
/// * a worker holds at most `slots` tasks, and a claim for a second slot
///   waits while a peer holds nothing and a task is pending, so one
///   worker's prefetch cannot take a task an idle peer would start on;
/// * [`Claim::Finished`] comes only when nothing is pending or held.
#[derive(Debug, Clone)]
pub struct Master {
    /// Unclaimed tasks; the last is handed out next.
    pending: Vec<usize>,
    /// Tasks held, per worker.
    held: Vec<usize>,
    /// The worker holding each task.
    holder: Vec<Option<usize>>,
    /// Failures so far, per task.
    failures: Vec<u32>,
    slots: usize,
}

impl Master {
    /// `tasks` tasks, `0..tasks`, for `workers` workers of `slots` slots
    /// each.
    pub fn new(tasks: usize, workers: usize, slots: usize) -> Self {
        assert!(workers > 0 && slots > 0, "a master needs a worker slot");
        Master {
            pending: (0..tasks).collect(),
            held: vec![0; workers],
            holder: vec![None; tasks],
            failures: vec![0; tasks],
            slots,
        }
    }

    /// `worker` asks for a task.
    pub fn claim(&mut self, worker: usize) -> Claim {
        let held = self.held[worker];
        let Some(&task) = self.pending.last() else {
            return if self.held.iter().all(|&h| h == 0) {
                Claim::Finished
            } else {
                Claim::Wait
            };
        };
        if held >= self.slots || (held > 0 && self.held.contains(&0)) {
            return Claim::Wait;
        }
        self.pending.pop();
        self.held[worker] += 1;
        self.holder[task] = Some(worker);
        Claim::Task(task)
    }

    /// `worker` finished `task`.
    pub fn done(&mut self, worker: usize, task: usize) {
        self.release(worker, task);
    }

    /// `worker` failed on `task`.
    pub fn failed(&mut self, worker: usize, task: usize) -> Failure {
        self.release(worker, task);
        self.failures[task] += 1;
        if self.failures[task] >= MAX_ATTEMPTS {
            Failure::Fatal
        } else {
            self.pending.push(task);
            Failure::Retry
        }
    }

    fn release(&mut self, worker: usize, task: usize) {
        assert_eq!(
            self.holder[task].take(),
            Some(worker),
            "task {task} reported by a worker that does not hold it"
        );
        self.held[worker] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn tasks_go_out_last_first() {
        let mut m = Master::new(3, 1, 1);
        for want in [2, 1, 0] {
            assert_eq!(m.claim(0), Claim::Task(want));
            m.done(0, want);
        }
        assert_eq!(m.claim(0), Claim::Finished);
    }

    #[test]
    fn a_failed_task_goes_back_on_top_to_its_idle_worker() {
        let mut m = Master::new(3, 2, 1);
        assert_eq!(m.claim(0), Claim::Task(2));
        assert_eq!(m.claim(1), Claim::Task(1));
        assert_eq!(m.failed(0, 2), Failure::Retry);
        assert_eq!(m.claim(0), Claim::Task(2));
    }

    #[test]
    fn the_third_failure_is_fatal() {
        let mut m = Master::new(1, 1, 1);
        for _ in 1..MAX_ATTEMPTS {
            assert_eq!(m.claim(0), Claim::Task(0));
            assert_eq!(m.failed(0, 0), Failure::Retry);
        }
        assert_eq!(m.claim(0), Claim::Task(0));
        assert_eq!(m.failed(0, 0), Failure::Fatal);
        assert_eq!(m.claim(0), Claim::Finished);
    }

    #[test]
    fn hand_out_and_retry_continue_after_a_fatal_failure() {
        let mut m = Master::new(2, 1, 1);
        for _ in 1..MAX_ATTEMPTS {
            assert_eq!(m.claim(0), Claim::Task(1));
            assert_eq!(m.failed(0, 1), Failure::Retry);
        }
        assert_eq!(m.claim(0), Claim::Task(1));
        assert_eq!(m.failed(0, 1), Failure::Fatal);
        assert_eq!(m.claim(0), Claim::Task(0));
        assert_eq!(m.failed(0, 0), Failure::Retry);
        assert_eq!(m.claim(0), Claim::Task(0));
        m.done(0, 0);
        assert_eq!(m.claim(0), Claim::Finished);
    }

    #[test]
    fn a_second_slot_waits_while_a_peer_holds_nothing() {
        let mut m = Master::new(3, 2, 2);
        assert_eq!(m.claim(0), Claim::Task(2));
        assert_eq!(m.claim(0), Claim::Wait, "worker 1 is idle");
        assert_eq!(m.claim(1), Claim::Task(1));
        assert_eq!(m.claim(0), Claim::Task(0));
        assert_eq!(m.claim(1), Claim::Wait, "nothing pending");
        m.done(0, 2);
        m.done(1, 1);
        // Two fragments, two workers: one each, whoever starts first.
        let mut m = Master::new(2, 2, 2);
        assert_eq!(m.claim(0), Claim::Task(1));
        assert_eq!(m.claim(0), Claim::Wait);
        assert_eq!(m.claim(1), Claim::Task(0));
    }

    #[test]
    fn finished_only_when_nothing_is_pending_or_held() {
        assert_eq!(Master::new(0, 2, 1).claim(1), Claim::Finished);
        let mut m = Master::new(1, 2, 1);
        assert_eq!(m.claim(0), Claim::Task(0));
        assert_eq!(m.claim(1), Claim::Wait, "worker 0 may still fail it");
        assert_eq!(m.failed(0, 0), Failure::Retry);
        assert_eq!(m.claim(1), Claim::Task(0));
        m.done(1, 0);
        assert_eq!(m.claim(0), Claim::Finished);
        assert_eq!(m.claim(1), Claim::Finished);
    }

    /// A job as the walker sees it: the master, and what the workers
    /// were handed and reported.
    #[derive(Clone)]
    struct Job {
        m: Master,
        held: Vec<Vec<usize>>,
        done: Vec<u32>,
        fails: Vec<u32>,
        fatal: Vec<bool>,
    }

    /// Two orders that reach the same master and the same reports reach
    /// the same future, so each state is walked once.
    type State = (
        Vec<usize>,
        Vec<Option<usize>>,
        Vec<u32>,
        Vec<u32>,
        Vec<bool>,
    );

    /// Every claim / done / failed order from `j` on: each worker may
    /// claim, and report any task it holds done or failed.
    fn walk(j: Job, seen: &mut HashSet<State>, finished: &mut u64) {
        let state = (
            j.m.pending.clone(),
            j.m.holder.clone(),
            j.m.failures.clone(),
            j.done.clone(),
            j.fatal.clone(),
        );
        if !seen.insert(state) {
            return;
        }
        let (workers, slots) = (j.held.len(), j.m.slots);
        let pending = !j.m.pending.is_empty();
        let peer_idle = j.held.iter().any(Vec::is_empty);
        let mut moved = false;
        for w in 0..workers {
            let mut next = j.clone();
            let held = j.held[w].len();
            match next.m.claim(w) {
                Claim::Task(t) => {
                    assert!(!j.fatal[t] && j.done[t] == 0, "task {t} handed out again");
                    assert!(held < slots, "worker {w} over its {slots} slots");
                    assert!(
                        held == 0 || !peer_idle,
                        "a second slot taken while a peer is idle"
                    );
                    next.held[w].push(t);
                    moved = true;
                    walk(next, seen, finished);
                }
                Claim::Wait => assert!(
                    if pending {
                        held >= slots || (held > 0 && peer_idle)
                    } else {
                        j.held.iter().any(|h| !h.is_empty())
                    },
                    "worker {w} told to wait for nothing"
                ),
                Claim::Finished => {
                    assert!(!pending && !j.held.iter().any(|h| !h.is_empty()));
                    let any_fatal = j.fatal.contains(&true);
                    for t in 0..j.done.len() {
                        if any_fatal {
                            assert_eq!(j.done[t] + u32::from(j.fatal[t]), 1, "task {t}");
                        } else {
                            assert_eq!(j.done[t], 1, "task {t} not done exactly once");
                        }
                    }
                    *finished += 1;
                    moved = true;
                }
            }
        }
        for w in 0..workers {
            for (k, &t) in j.held[w].iter().enumerate() {
                let mut next = j.clone();
                next.held[w].remove(k);
                next.m.done(w, t);
                next.done[t] += 1;
                walk(next, seen, finished);

                let mut next = j.clone();
                next.held[w].remove(k);
                let verdict = next.m.failed(w, t);
                next.fails[t] += 1;
                assert!(
                    next.fails[t] <= MAX_ATTEMPTS,
                    "task {t} failed past MAX_ATTEMPTS"
                );
                assert_eq!(verdict == Failure::Fatal, next.fails[t] == MAX_ATTEMPTS);
                next.fatal[t] = verdict == Failure::Fatal;
                walk(next, seen, finished);
                moved = true;
            }
        }
        assert!(moved, "no worker can claim, report or finish");
    }

    #[test]
    fn every_claim_and_report_order_finishes_each_task_once() {
        for workers in 1..=3 {
            for tasks in 0..=4 {
                for slots in 1..=2 {
                    let job = Job {
                        m: Master::new(tasks, workers, slots),
                        held: vec![Vec::new(); workers],
                        done: vec![0; tasks],
                        fails: vec![0; tasks],
                        fatal: vec![false; tasks],
                    };
                    let (mut seen, mut finished) = (HashSet::new(), 0);
                    walk(job, &mut seen, &mut finished);
                    assert!(finished > 0, "{workers}×{tasks}×{slots}: no order finished");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Random claims and done/failed reports by random workers: no
        /// worker holds more than its slots, every task is done exactly
        /// once (or, once a task went fatal, at most once and never after
        /// its own fatal failure), and the run ends in `Finished`.
        #[test]
        fn any_interleaving_hands_out_every_task_and_finishes(
            workers in 1usize..=4,
            slots in 1usize..=2,
            tasks in 0usize..=10,
            seed in any::<u64>(),
        ) {
            let mut rng = seed | 1;
            let mut next = move |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let mut m = Master::new(tasks, workers, slots);
            let mut held: Vec<Vec<usize>> = vec![Vec::new(); workers];
            let mut done = vec![0u32; tasks];
            let mut fatal = vec![false; tasks];
            let mut finished = false;
            for _ in 0..100_000 {
                let w = next(workers);
                if held[w].is_empty() || next(2) == 0 {
                    match m.claim(w) {
                        Claim::Task(t) => {
                            prop_assert!(t < tasks && !fatal[t] && done[t] == 0);
                            held[w].push(t);
                            prop_assert!(held[w].len() <= slots, "worker {w} over its slots");
                        }
                        Claim::Wait => {}
                        Claim::Finished => {
                            finished = true;
                            break;
                        }
                    }
                } else {
                    let i = next(held[w].len());
                    let t = held[w].remove(i);
                    if next(3) == 0 {
                        if m.failed(w, t) == Failure::Fatal {
                            fatal[t] = true;
                        }
                    } else {
                        m.done(w, t);
                        done[t] += 1;
                    }
                }
            }
            prop_assert!(finished, "the run never finished");
            prop_assert!(held.iter().all(Vec::is_empty), "finished while a task was held");
            for t in 0..tasks {
                prop_assert_eq!(done[t] + u32::from(fatal[t]), 1, "task {}", t);
            }
        }
    }
}
