//! The whole-path benchmark (`benchmark/`) is a package of its own that
//! imports these four names from `parblast_core::serve`. Naming them here
//! makes dropping one fail `cargo test`, not only the benchmark's build.

use std::io;

use parblast::mpiblast::ParallelBlast;
use parblast::serve::{serve_batched, AdmissionQueue, Priority, Query, RealServeOutcome};
use parblast::simcore::SimTime;

#[test]
fn the_names_the_benchmark_imports_resolve_from_serve() {
    let mut queue = AdmissionQueue::new(2);
    let mut q = Query::new(7, SimTime::ZERO);
    q.priority = Priority::Interactive;
    queue.offer(q).expect("an empty queue has room");
    let taken: Vec<Query> = queue.take_batch(8, SimTime::ZERO);
    assert_eq!(taken, vec![q]);
    // The in-process oracle, with the signature the benchmark calls.
    let oracle: fn(&ParallelBlast, &[Vec<u8>], usize) -> io::Result<RealServeOutcome> =
        serve_batched;
    let _ = oracle;
}
