//! The worker pool every job runs on: W workers, each a fetch thread and a
//! search thread, fed by one [`Master`] that takes more batches while it
//! runs.
//!
//! The paper's master (§2.2) gives a fragment to whichever worker goes
//! idle. The pool applies that rule across batches as well as within one:
//! a submitted batch's tasks go beneath every pending task, so an older
//! batch is always handed out first, but a worker that finds nothing left
//! of it starts on the next batch's fragments instead of waiting for the
//! older batch's last fragment to finish on a peer. Each batch keeps its
//! own prepared query tables, results, I/O clocks and error; a submitter
//! returns when its own batch's last task is done, and a fatal failure
//! fails that batch alone.
//!
//! [`ParallelBlast::run`] and [`ParallelBlast::run_batch`] start a pool
//! for the call and shut it down after it; a server keeps one
//! ([`WorkerPool::start`]) and submits every batch to it, from as many
//! threads as it likes. Each search thread keeps one [`ScanWorkspace`] for
//! the pool's whole life.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parblast_blast::{fused_passes, Hit, PreparedBatch, ScanWorkspace};
use parblast_seqdb::PackedVolume;

use crate::runner::{merge_hit, rank_merged, BatchOutcome, ParallelBlast, RunOutcome};
use crate::sched::{Claim, Failure, Master};
use crate::trace::IoKind;

const POOL_LOCK: &str = "a pool thread panicked holding the master";

/// Nanosecond clocks shared by the worker threads of one batch.
#[derive(Debug, Default)]
pub(crate) struct IoClocks {
    pub(crate) copy_ns: AtomicU64,
    pub(crate) fetch_ns: AtomicU64,
    stall_ns: AtomicU64,
}

impl IoClocks {
    pub(crate) fn add(cell: &AtomicU64, d: Duration) {
        cell.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
    fn secs(cell: &AtomicU64) -> f64 {
        cell.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Queries searched together against every fragment.
struct QuerySet {
    queries: Vec<Vec<u8>>,
    /// Where the set's one query starts in the whole query of a
    /// query-segmented [`ParallelBlast::run`]; 0 otherwise.
    offset: usize,
    /// Strands, masks, statistics and the merged lookup depend on the
    /// queries alone: built once, by whichever search thread first has a
    /// fetch of this set in flight to hide the work behind, and shared by
    /// every worker and fragment from then on.
    prepared: OnceLock<PreparedBatch>,
}

impl QuerySet {
    fn new(queries: Vec<Vec<u8>>, offset: usize) -> Self {
        QuerySet {
            queries,
            offset,
            prepared: OnceLock::new(),
        }
    }
}

/// One submission: every set against every fragment, task `t` searching
/// set `t / fragments` against fragment `t % fragments`.
struct Work {
    sets: Vec<QuerySet>,
    /// [`ParallelBlast::run`]'s job rather than a batch: map each set's
    /// hits back onto the whole query and trace each task's small result
    /// write, as the paper's Figure 4 instruments it.
    run_job: bool,
    clocks: IoClocks,
}

/// One searched task.
struct Searched {
    worker: usize,
    search_s: f64,
    /// Hits per query of the set, for this fragment alone.
    per_query: Vec<Vec<Hit>>,
}

/// A submitted batch until its last task is done or fatal.
struct Running {
    work: Arc<Work>,
    left: usize,
    searched: Vec<Searched>,
    /// The error of its first task that failed for good.
    error: Option<io::Error>,
}

/// A handed-out task as the fetch thread passes it on: its batch, its
/// index there, and its id in the master.
type Handed = (Arc<Work>, usize, usize);

struct State {
    master: Master,
    /// Running batches by the id of their first task.
    running: BTreeMap<usize, Running>,
    /// A worker's first task of a batch that found it idle, until its
    /// fetch thread picks it up.
    handed: Vec<Option<usize>>,
    closing: bool,
}

impl State {
    fn batch_of(&mut self, task: usize) -> (usize, &mut Running) {
        let (&first, run) = self
            .running
            .range_mut(..=task)
            .next_back()
            .expect("a live task's batch is running");
        (first, run)
    }
}

struct Core {
    job: Arc<ParallelBlast>,
    state: Mutex<State>,
    /// Fetch threads wait here for a task.
    work: Condvar,
    /// Submitters wait here for their batch's last task.
    finished: Condvar,
}

impl Core {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POOL_LOCK)
    }

    /// Submit `sets` beneath every pending task and wait until the last
    /// of their tasks is done or fatal. Returns the submission and its
    /// searched tasks, or the error of its first fatal failure.
    fn execute(
        &self,
        sets: Vec<QuerySet>,
        run_job: bool,
    ) -> io::Result<(Arc<Work>, Vec<Searched>)> {
        let tasks = sets.len() * self.job.fragments.len();
        let work = Arc::new(Work {
            sets,
            run_job,
            clocks: IoClocks::default(),
        });
        let mut s = self.lock();
        let first = s.master.append(tasks);
        let run = Running {
            work: Arc::clone(&work),
            left: tasks,
            searched: Vec::new(),
            error: None,
        };
        s.running.insert(first, run);
        // As in the simulator, the master first hands every idle worker
        // one task in turn.
        for w in 0..s.handed.len() {
            if s.master.idle(w) {
                if let Claim::Task(task) = s.master.claim(w) {
                    s.handed[w] = Some(task);
                }
            }
        }
        self.work.notify_all();
        while s.running[&first].left > 0 {
            s = self.finished.wait(s).expect(POOL_LOCK);
        }
        let run = s.running.remove(&first).expect("its own batch");
        drop(s);
        match run.error {
            Some(e) => Err(e),
            None => Ok((work, run.searched)),
        }
    }

    /// Blocks while the master says wait; `None` once the pool is closing
    /// and nothing is left.
    fn claim(&self, w: usize) -> Option<Handed> {
        let mut s = self.lock();
        loop {
            let task = match s.handed[w].take() {
                Some(task) => Some(task),
                None => match s.master.claim(w) {
                    Claim::Task(task) => {
                        // A peer's second slot may have waited on this
                        // worker being idle.
                        self.work.notify_all();
                        Some(task)
                    }
                    Claim::Finished if s.closing => return None,
                    Claim::Wait | Claim::Finished => None,
                },
            };
            if let Some(task) = task {
                let (first, run) = s.batch_of(task);
                return Some((Arc::clone(&run.work), task - first, task));
            }
            s = self.work.wait(s).expect(POOL_LOCK);
        }
    }

    fn report(&self, w: usize, task: usize, r: io::Result<Searched>) {
        let mut s = self.lock();
        let over = match r {
            Ok(searched) => {
                s.master.done(w, task);
                s.batch_of(task).1.searched.push(searched);
                true
            }
            // A retried task goes to the next claim: a CEFT-backed scheme
            // will have failed over to the mirror by then.
            Err(e) => match s.master.failed(w, task) {
                Failure::Retry => false,
                Failure::Fatal => {
                    s.batch_of(task).1.error.get_or_insert(e);
                    true
                }
            },
        };
        if over {
            let run = s.batch_of(task).1;
            run.left -= 1;
            if run.left == 0 {
                self.finished.notify_all();
            }
        }
        self.work.notify_all();
    }

    /// Worker `w`'s fetch thread: claim a task, tell the search thread
    /// (so the batch is prepared while the fetch runs), fetch its
    /// fragment and hand the volume over. One read of each fragment
    /// serves a whole set; nucleotide data stays 2-bit packed.
    fn fetch(&self, w: usize, tasks: Sender<Handed>, volumes: Sender<io::Result<PackedVolume>>) {
        let nfrag = self.job.fragments.len();
        while let Some((work, task, id)) = self.claim(w) {
            let fragment = &self.job.fragments[task % nfrag];
            let sent = tasks.send((Arc::clone(&work), task, id)).is_ok()
                && volumes
                    .send(self.job.fetch_volume(w, fragment, &work.clocks))
                    .is_ok();
            if !sent {
                break;
            }
        }
    }

    /// Worker `w`'s search thread: search each fetched volume with its
    /// set and report the task done or failed.
    fn search(
        &self,
        w: usize,
        tasks: Receiver<Handed>,
        volumes: Receiver<io::Result<PackedVolume>>,
    ) {
        let job = &*self.job;
        let nfrag = job.fragments.len();
        let mut ws = ScanWorkspace::new();
        for (work, task, id) in tasks {
            let set = &work.sets[task / nfrag];
            let prepared = set.prepared.get_or_init(|| {
                let refs: Vec<&[u8]> = set.queries.iter().map(Vec::as_slice).collect();
                PreparedBatch::new(&refs, &job.params, job.db)
            });
            let w0 = Instant::now();
            let fetched = volumes.recv().expect("fetcher alive");
            IoClocks::add(&work.clocks.stall_ns, w0.elapsed());
            let r = fetched.map(|volume| {
                let s0 = Instant::now();
                let mut per_query = prepared.search(&volume, &mut ws);
                if work.run_job {
                    let hits = &mut per_query[0];
                    for hit in hits.iter_mut() {
                        for h in &mut hit.hsps {
                            h.q_start += set.offset;
                            h.q_end += set.offset;
                        }
                    }
                    // Temporary result files of 50–778 bytes.
                    let table = parblast_blast::tabular("query", hits);
                    let result_bytes = table.len().clamp(50, 778) as u64;
                    job.tracer.record(w as u32, IoKind::Write, result_bytes);
                }
                Searched {
                    worker: w,
                    search_s: s0.elapsed().as_secs_f64(),
                    per_query,
                }
            });
            self.report(w, id, r);
        }
    }
}

/// W resident fetch/search thread pairs over one job, one master for
/// every batch submitted to them; dropping the pool joins its threads.
pub struct WorkerPool {
    core: Arc<Core>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start `job.workers` worker pairs (at least one), each holding one
    /// task, two with [`ParallelBlast::prefetch`].
    pub fn start(job: Arc<ParallelBlast>) -> Self {
        let workers = job.workers.max(1);
        let slots = if job.prefetch { 2 } else { 1 };
        let state = State {
            master: Master::new(0, workers, slots),
            running: BTreeMap::new(),
            handed: vec![None; workers],
            closing: false,
        };
        let core = Arc::new(Core {
            job,
            state: Mutex::new(state),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(2 * workers);
        for w in 0..workers {
            let (task_tx, task_rx) = mpsc::channel();
            let (vol_tx, vol_rx) = mpsc::channel();
            let fetcher = Arc::clone(&core);
            threads.push(spawn(format!("pb-fetch-{w}"), move || {
                fetcher.fetch(w, task_tx, vol_tx)
            }));
            let searcher = Arc::clone(&core);
            threads.push(spawn(format!("pb-search-{w}"), move || {
                searcher.search(w, task_rx, vol_rx)
            }));
        }
        WorkerPool { core, threads }
    }

    /// The job the pool runs.
    pub fn job(&self) -> &ParallelBlast {
        &self.core.job
    }

    /// [`ParallelBlast::run_batch`] on this pool.
    pub fn run_batch(&self, queries: &[Vec<u8>]) -> io::Result<BatchOutcome> {
        let t0 = Instant::now();
        let set = QuerySet::new(queries.to_vec(), 0);
        let (work, searched) = self.core.execute(vec![set], false)?;
        let mut per_query: Vec<Vec<Hit>> = vec![Vec::new(); queries.len()];
        for searched in searched {
            for (merged, found) in per_query.iter_mut().zip(searched.per_query) {
                merged.extend(found);
            }
        }
        let job = self.job();
        for hits in &mut per_query {
            rank_merged(hits, job.params.max_hits);
        }
        // One pass per chunk of the batch; a batch that succeeds searched
        // every fragment exactly once.
        let nq = queries.len() as u64;
        let passes_per_fragment = fused_passes(nq);
        let fragments = job.fragments.len() as u64;
        Ok(BatchOutcome {
            per_query,
            wall_s: t0.elapsed().as_secs_f64(),
            io_fetch_s: IoClocks::secs(&work.clocks.fetch_ns),
            io_stall_s: IoClocks::secs(&work.clocks.stall_ns),
            kernel_passes: fragments * passes_per_fragment,
            passes_saved: fragments * (nq - passes_per_fragment),
        })
    }

    /// [`ParallelBlast::run`] on this pool.
    pub fn run(&self, query: &[u8]) -> io::Result<RunOutcome> {
        let t0 = Instant::now();
        let job = self.job();
        let sets = job
            .query_windows_of(query.len())
            .into_iter()
            .map(|(offset, len)| QuerySet::new(vec![query[offset..offset + len].to_vec()], offset))
            .collect();
        let (work, searched) = self.core.execute(sets, true)?;
        let mut hits: Vec<Hit> = Vec::new();
        let mut per_fragment = Vec::new();
        for searched in searched {
            per_fragment.push((searched.worker, searched.search_s));
            for hit in searched.per_query.into_iter().flatten() {
                merge_hit(&mut hits, hit);
            }
        }
        rank_merged(&mut hits, job.params.max_hits);
        Ok(RunOutcome {
            hits,
            wall_s: t0.elapsed().as_secs_f64(),
            copy_s: IoClocks::secs(&work.clocks.copy_ns),
            io_fetch_s: IoClocks::secs(&work.clocks.fetch_ns),
            io_stall_s: IoClocks::secs(&work.clocks.stall_ns),
            per_fragment,
        })
    }
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn a worker thread")
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.core.lock().closing = true;
        self.core.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
