//! Thread lifecycle of the resident worker pool and the daemon around it,
//! counted from `/proc/self/task`. The one test of this binary, so that no
//! other test's threads come and go while it counts.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use parblast::mpiblast::Scheme;
use parblast::net::{BatchRunner, BlastRunner, NetClient, NetServer, ServerConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it has settled at `want` (a joined thread may
/// leave its task entry a moment after the join returns), or what it
/// still is after two seconds.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    threads()
}

#[test]
fn the_pool_starts_its_threads_once_and_joins_them_all() {
    const WORKERS: usize = 2;
    let dir = common::Scratch::new("threads");
    let db = common::db(&dir.0.join("fmt"), 200_000, 3, 2);
    let job = |tag: &str| {
        let scheme = Scheme::local_at(&dir.0.join(tag), WORKERS).unwrap();
        common::job(&db, scheme, WORKERS, true)
    };
    let base = threads();

    // The runner alone: no thread until its first batch, the pool's 2W
    // from then on, none after it is dropped.
    let runner = BlastRunner::new(job("runner"), 0);
    assert_eq!(threads(), base, "BlastRunner::new started a thread");
    let first = runner.run_batch(&db.queries).unwrap().per_query;
    let warm = threads();
    assert_eq!(
        warm,
        base + 2 * WORKERS,
        "one fetch and one search thread per worker"
    );
    for i in 0..50 {
        assert_eq!(runner.run_batch(&db.queries).unwrap().per_query, first);
        assert_eq!(threads(), warm, "batch {i} started a thread");
    }
    drop(runner);
    assert_eq!(
        settles_at(base),
        base,
        "dropping the runner left threads behind"
    );

    // The daemon: 2S + 1 threads to start, one more exec lane per shard
    // and the pool at the first batch, none after drain and join.
    let runner = Arc::new(BlastRunner::new(job("daemon"), 0));
    let config = ServerConfig {
        shards: 1,
        max_batch: 2,
        ..Default::default()
    };
    let handle = NetServer::start("127.0.0.1:0", config, runner.clone()).unwrap();
    assert_eq!(
        threads(),
        base + 2 + 1,
        "an IO and an exec thread per shard, one acceptor"
    );
    let mut client = NetClient::connect(&handle.addr().to_string()).unwrap();
    client.query(&db.queries[0]).unwrap();
    let serving = threads();
    assert_eq!(serving, base + 2 + 1 + 1 + 2 * WORKERS);
    for _ in 0..20 {
        for q in &db.queries {
            client.query(q).unwrap();
        }
        assert_eq!(threads(), serving, "a served batch started a thread");
    }
    drop(client);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.served, 41);
    drop(runner);
    assert_eq!(
        settles_at(base),
        base,
        "a drained daemon left threads behind"
    );
}
