//! mpiBLAST's master (§2.2) as a state machine over task indices, with no
//! clock and no threads. The simulator's master component and the worker
//! pool's fetch threads both drive it, so both hand out the same
//! fragments in the same order and give up on the same attempt. The pool
//! appends one batch of tasks per submitted job while earlier ones run.

use std::collections::BTreeMap;

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
/// * tasks come in batches ([`Self::append`]), numbered on from the last
///   batch's; an older batch's pending tasks are all handed out before any
///   of a newer one's, and within a batch tasks go out last-first;
/// * a failed task goes back on top of its own batch's pending tasks, so
///   the worker it failed on, idle again, claims it next unless an older
///   batch still has a task pending;
/// * after a [`Failure::Fatal`] pending tasks, of its batch and of every
///   other, are still handed out and retried;
/// * a worker holds at most `slots` tasks, and a claim for a second slot
///   waits while a peer holds nothing and a task is pending, so one
///   worker's prefetch cannot take a task an idle peer would start on;
/// * [`Claim::Finished`] comes only when nothing is pending or held.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Master {
    /// Unclaimed tasks; the last is handed out next.
    pending: Vec<usize>,
    /// Tasks held, per worker.
    held: Vec<usize>,
    /// Every task pending or held.
    live: BTreeMap<usize, Live>,
    /// The id the next appended task gets.
    next: usize,
    slots: usize,
}

/// A task still pending or held.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Live {
    /// The first task of its batch.
    batch: usize,
    holder: Option<usize>,
    failures: u32,
}

impl Master {
    /// `tasks` tasks, `0..tasks`, for `workers` workers of `slots` slots
    /// each.
    pub fn new(tasks: usize, workers: usize, slots: usize) -> Self {
        assert!(workers > 0 && slots > 0, "a master needs a worker slot");
        let mut m = Master {
            pending: Vec::new(),
            held: vec![0; workers],
            live: BTreeMap::new(),
            next: 0,
            slots,
        };
        m.append(tasks);
        m
    }

    /// Add a batch of `tasks` tasks beneath every pending one; returns the
    /// first of their ids, which run on from the last batch's.
    pub fn append(&mut self, tasks: usize) -> usize {
        let first = self.next;
        self.next += tasks;
        self.pending.splice(0..0, first..self.next);
        for task in first..self.next {
            let live = Live {
                batch: first,
                holder: None,
                failures: 0,
            };
            self.live.insert(task, live);
        }
        first
    }

    /// Whether `worker` holds no task.
    pub fn idle(&self, worker: usize) -> bool {
        self.held[worker] == 0
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
        self.live
            .get_mut(&task)
            .expect("a pending task is live")
            .holder = Some(worker);
        Claim::Task(task)
    }

    /// `worker` finished `task`.
    pub fn done(&mut self, worker: usize, task: usize) {
        self.release(worker, task);
        self.live.remove(&task);
    }

    /// `worker` failed on `task`.
    pub fn failed(&mut self, worker: usize, task: usize) -> Failure {
        let live = self.release(worker, task);
        live.failures += 1;
        if live.failures >= MAX_ATTEMPTS {
            self.live.remove(&task);
            return Failure::Fatal;
        }
        let batch = live.batch;
        // Above its own batch and every newer one, below any older one.
        let at = self
            .pending
            .partition_point(|t| self.live[t].batch >= batch);
        self.pending.insert(at, task);
        Failure::Retry
    }

    fn release(&mut self, worker: usize, task: usize) -> &mut Live {
        let live = self.live.get_mut(&task);
        let live = live
            .filter(|l| l.holder == Some(worker))
            .unwrap_or_else(|| panic!("task {task} reported by a worker that does not hold it"));
        live.holder = None;
        self.held[worker] -= 1;
        live
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

    /// One appended batch as the walker sees it: its tasks, and a
    /// standalone master of its size whose one worker is never told to
    /// wait, which must hand out the same tasks in the same order.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Batch {
        first: usize,
        tasks: usize,
        alone: Master,
    }

    /// A job as the walker sees it: the master, its batches, the size of
    /// the batch still to append, and what the workers were handed and
    /// reported (per task id).
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Job {
        m: Master,
        batches: Vec<Batch>,
        later: Option<usize>,
        held: Vec<Vec<usize>>,
        done: Vec<u32>,
        fails: Vec<u32>,
        fatal: Vec<bool>,
    }

    impl Job {
        fn batch_of(&self, task: usize) -> usize {
            self.batches
                .iter()
                .rposition(|b| b.first <= task)
                .expect("an appended task")
        }

        /// Whether batch `b` has a task neither held nor finished.
        fn pending(&self, b: usize) -> bool {
            let Batch { first, tasks, .. } = self.batches[b];
            (first..first + tasks).any(|t| {
                self.done[t] == 0 && !self.fatal[t] && !self.held.iter().flatten().any(|&h| h == t)
            })
        }
    }

    /// Every claim / done / failed / append order from `j` on: each worker
    /// may claim, and report any task it holds done or failed, and the
    /// batch still to come may be appended at any point. Two orders that
    /// reach the same state reach the same future, so each state is
    /// walked once.
    fn walk(j: Job, seen: &mut HashSet<Job>, finished: &mut u64) {
        if !seen.insert(j.clone()) {
            return;
        }
        let (workers, slots) = (j.held.len(), j.m.slots);
        let pending = (0..j.batches.len()).any(|b| j.pending(b));
        let peer_idle = j.held.iter().any(Vec::is_empty);
        let mut moved = false;
        if let Some(tasks) = j.later {
            let mut next = j.clone();
            let first = next.m.append(tasks);
            assert_eq!(first, j.done.len() - tasks, "batch ids do not run on");
            let alone = Master::new(tasks, 1, tasks.max(1));
            next.batches.push(Batch {
                first,
                tasks,
                alone,
            });
            next.later = None;
            moved = true;
            walk(next, seen, finished);
        }
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
                    let b = j.batch_of(t);
                    assert!(
                        (0..b).all(|older| !j.pending(older)),
                        "task {t} of batch {b} handed out while an older batch has one pending"
                    );
                    let first = j.batches[b].first;
                    assert_eq!(
                        next.batches[b].alone.claim(0),
                        Claim::Task(t - first),
                        "batch {b} hands out another order than a master of its own"
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
                    // A fatal failure answers for its own batch alone.
                    for &Batch { first, tasks, .. } in &j.batches {
                        let batch = first..first + tasks;
                        let fatal = batch.clone().any(|t| j.fatal[t]);
                        for t in batch {
                            if fatal {
                                assert_eq!(j.done[t] + u32::from(j.fatal[t]), 1, "task {t}");
                            } else {
                                assert_eq!(j.done[t], 1, "task {t} not done exactly once");
                            }
                        }
                    }
                    *finished += u64::from(j.later.is_none());
                    moved = true;
                }
            }
        }
        for w in 0..workers {
            for (k, &t) in j.held[w].iter().enumerate() {
                let b = j.batch_of(t);
                let local = t - j.batches[b].first;
                let mut next = j.clone();
                next.held[w].remove(k);
                next.m.done(w, t);
                next.batches[b].alone.done(0, local);
                next.done[t] += 1;
                walk(next, seen, finished);

                let mut next = j.clone();
                next.held[w].remove(k);
                let verdict = next.m.failed(w, t);
                assert_eq!(
                    next.batches[b].alone.failed(0, local),
                    verdict,
                    "task {t}: another verdict than its batch's own master"
                );
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

    /// Every order of ≤ 3 workers × slots {1, 2} over one batch of ≤ 4
    /// tasks, or over two batches of ≤ 4 tasks in all, the second appended
    /// at any point of the first's run (before, during or after it).
    #[test]
    fn every_claim_and_report_order_finishes_each_task_once() {
        let singles = (0..=4).map(|tasks| (tasks, None));
        let pairs = (1..=3).flat_map(|a| (0..=4 - a).map(move |b| (a, Some(b))));
        let shapes: Vec<(usize, Option<usize>)> = singles.chain(pairs).collect();
        for workers in 1..=3 {
            for &(tasks, later) in &shapes {
                for slots in 1..=2 {
                    let total = tasks + later.unwrap_or(0);
                    let job = Job {
                        m: Master::new(tasks, workers, slots),
                        batches: vec![Batch {
                            first: 0,
                            tasks,
                            alone: Master::new(tasks, 1, tasks.max(1)),
                        }],
                        later,
                        held: vec![Vec::new(); workers],
                        done: vec![0; total],
                        fails: vec![0; total],
                        fatal: vec![false; total],
                    };
                    let (mut seen, mut finished) = (HashSet::new(), 0);
                    walk(job, &mut seen, &mut finished);
                    assert!(
                        finished > 0,
                        "{workers} workers × {tasks}+{later:?} tasks × {slots} slots: no order finished"
                    );
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
