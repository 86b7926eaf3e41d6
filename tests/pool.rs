//! The resident worker pool behind `BlastRunner`: batches submitted at
//! once share one master and one set of workers, but each batch keeps its
//! own answer and its own error. A corrupt fragment fails the batch that
//! read it and no other, and a batch that failed on every attempt leaves
//! the pool able to run the next one.

mod common;

use std::path::Path;
use std::time::{Duration, Instant};

use parblast::mpiblast::{Scheme, Tracer};
use parblast::net::{BatchRunner, BlastRunner, RunnerError};

/// Two batches at once on one worker: the first reads a fragment whose
/// only copy is corrupt and fails with `Corrupt`; the second, submitted
/// while the first runs, reaches that fragment only after the first has
/// failed and the fragment has been restored, and answers exactly what
/// in-process `serve_batched` does. The servers are paced so that every
/// clean fetch takes about 70 ms: the second batch fetches two other
/// fragments between the first batch's failure and its own read of the
/// restored one.
#[test]
fn a_corrupt_fragment_fails_only_the_batch_that_read_it() {
    let dir = common::Scratch::new("isolation");
    let db = common::db(&dir.0.join("fmt"), 400_000, 3, 4);
    let scheme = Scheme::pvfs_at(&dir.0.join("pvfs"), 2, 16 << 10).unwrap();
    let mut job = common::job(&db, scheme.clone(), 1, false);
    job.tracer = Tracer::new();
    let tracer = job.tracer.clone();
    let runner = BlastRunner::new(job, 0);
    let (a, b) = (&db.queries[..2], &db.queries[2..]);
    let want = oracle(&db, &dir.0.join("oracle"), b);

    // Fragment 0 is handed out last: the first batch searches the other
    // two before its three attempts on the corrupt one.
    let (name, clean) = &db.fragments[0];
    flip_byte(&dir.0.join("pvfs").join("iod0").join(name));
    scheme.set_io_throttle(256 << 10);
    let answer = std::thread::scope(|s| {
        let first = s.spawn(|| {
            let failed = runner.run_batch(a);
            scheme.load_fragment(name, clean).unwrap();
            failed
        });
        // The first batch has begun reading, so it is the older one.
        let deadline = Instant::now() + Duration::from_secs(30);
        while tracer.events().is_empty() {
            assert!(Instant::now() < deadline, "the first batch never read");
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = runner.run_batch(b);
        let failed = first.join().unwrap();
        assert_eq!(failed.err(), Some(RunnerError::Corrupt));
        second
    });
    let answer = answer.expect("the batch beside the failed one is answered");
    assert!(!want.iter().all(|p| p.is_empty()), "vacuous comparison");
    assert_eq!(answer.per_query, want);
}

/// A fetch that fails on every attempt fails its batch and nothing else:
/// once the fragment is restored, the same pool answers the next batches.
#[test]
fn a_batch_that_failed_every_attempt_does_not_wedge_the_pool() {
    let dir = common::Scratch::new("wedge");
    let db = common::db(&dir.0.join("fmt"), 200_000, 3, 2);
    let job = common::job(
        &db,
        Scheme::local_at(&dir.0.join("io"), 2).unwrap(),
        2,
        true,
    );
    let runner = BlastRunner::new(job, 0);
    let want = oracle(&db, &dir.0.join("oracle"), &db.queries);

    // Before any worker holds a private copy: every attempt copies the
    // corrupt source again.
    let (name, clean) = &db.fragments[1];
    flip_byte(&dir.0.join("io").join("shared").join(name));
    let failed = runner.run_batch(&db.queries);
    assert_eq!(failed.err(), Some(RunnerError::Corrupt));
    runner.job.scheme.load_fragment(name, clean).unwrap();
    for _ in 0..3 {
        assert_eq!(runner.run_batch(&db.queries).unwrap().per_query, want);
    }
}

/// What in-process `serve_batched` renders for `queries` as one batch,
/// over a fresh original-scheme store of `db` under `dir`.
fn oracle(db: &common::Db, dir: &Path, queries: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let job = common::job(db, Scheme::local_at(dir, 2).unwrap(), 2, true);
    let out = parblast::serve::serve_batched(&job, queries, queries.len()).unwrap();
    out.per_query.into_iter().map(String::into_bytes).collect()
}

/// Flip one byte in the middle of `path`.
fn flip_byte(path: &Path) {
    let mut raw = std::fs::read(path).unwrap();
    let at = raw.len() / 2;
    raw[at] ^= 0x20;
    std::fs::write(path, &raw).unwrap();
}
