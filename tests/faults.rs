//! Failure-scenario integration tests: a data server dies mid-search.
//!
//! Simulated path: the deterministic fault schedule crashes a server while
//! the parallel BLAST job is running. CEFT-PVFS must complete (reads fail
//! over to the mirror group), PVFS must *report* an I/O error rather than
//! hang, and the retry-free protocol's hang must itself be reported as a
//! non-completion instead of a panic.
//!
//! Real path: the same scenario expressed with actual files — a primary
//! directory loses its replicas and the mirrored store serves reads from
//! the partners, producing byte-identical BLAST hits.

use parblast::hwsim::FaultSchedule;
use parblast::mpiblast::{
    run_simblast, ParallelBlast, Parallelization, RunOutcome, Scheme, SimBlastConfig, SimScheme,
    Tracer,
};
use parblast::pvfs::RetryPolicy;
use parblast::simcore::SimTime;
use parblast_blast::{DbStats, Program, SearchParams};
use parblast_seqdb::blastdb::SeqType;
use parblast_seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------- simulated

/// Small, fast job configuration (same shape as the paper's, scaled down).
fn sim(scheme: SimScheme) -> SimBlastConfig {
    SimBlastConfig {
        nodes: 5,
        workers: 4,
        fragments: 4,
        db_bytes: 64 << 20,
        scheme,
        master_node: 4,
        warmup_s: 1.0,
        horizon_s: 400.0,
        ..Default::default()
    }
}

fn crash_at_2s() -> FaultSchedule {
    // 1 s warmup + 2 s of searching: mid-job for this database size.
    FaultSchedule::new().crash_server(SimTime::from_secs_f64(3.0), 1)
}

#[test]
fn ceft_completes_after_primary_crash_mid_search() {
    let scheme = SimScheme::Ceft {
        primary: vec![0, 1],
        mirror: vec![2, 3],
    };
    let clean = run_simblast(&sim(scheme.clone()));
    assert!(clean.completed, "clean CEFT run must complete");

    let mut cfg = sim(scheme);
    cfg.faults = crash_at_2s();
    let out = run_simblast(&cfg);
    assert!(
        out.completed,
        "CEFT must survive a primary crash: error = {:?}",
        out.error
    );
    assert!(
        out.failovers > 0,
        "reads must have failed over to the mirror"
    );
    // Every byte of the database was still searched exactly once.
    let bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
    let clean_bytes: u64 = clean.per_worker.iter().map(|w| w.bytes_read).sum();
    assert_eq!(
        bytes, clean_bytes,
        "degraded run read a different byte count"
    );
    // Degraded, not free: slower than clean but far from the horizon.
    assert!(
        out.makespan_s > clean.makespan_s,
        "failover should cost time ({} vs {})",
        out.makespan_s,
        clean.makespan_s
    );
    assert!(out.makespan_s < 4.0 * clean.makespan_s + 60.0);
}

#[test]
fn pvfs_reports_io_error_after_server_crash() {
    let mut cfg = sim(SimScheme::Pvfs {
        servers: vec![0, 1, 2, 3],
    });
    cfg.faults = crash_at_2s();
    let out = run_simblast(&cfg);
    assert!(
        !out.completed,
        "unmirrored PVFS cannot survive a dead server"
    );
    let err = out.error.expect("the abort must carry the I/O error");
    assert!(
        err.contains("timed out"),
        "error should name the timeout: {err}"
    );
    assert!(
        out.retries > 0,
        "the client must have retried before giving up"
    );
}

#[test]
fn retry_free_pvfs_hangs_and_the_hang_is_reported() {
    // The faithful 2003 protocol has no timeouts: a dead server blocks the
    // client forever. The harness must report that as a non-completion
    // with no error, not panic or spin.
    let mut cfg = sim(SimScheme::Pvfs {
        servers: vec![0, 1, 2, 3],
    });
    cfg.faults = crash_at_2s();
    cfg.retry = Some(RetryPolicy::disabled());
    cfg.horizon_s = 120.0;
    let out = run_simblast(&cfg);
    assert!(!out.completed);
    assert!(out.error.is_none(), "a hang has no error to report");
    assert_eq!(out.retries, 0, "retry-free clients never retry");
    // Every worker blocks on the dead server's stripe: no fragment ever
    // completes.
    let frags: u32 = out.per_worker.iter().map(|w| w.fragments).sum();
    assert_eq!(frags, 0, "workers must be stuck mid-fragment");
}

#[test]
fn crash_before_revival_only_degrades_the_window() {
    // Crash at 3 s, revive at 8 s: the job must complete either way, and
    // the early revival must not cost more than the permanent crash.
    let scheme = SimScheme::Ceft {
        primary: vec![0, 1],
        mirror: vec![2, 3],
    };
    let mut dead_forever = sim(scheme.clone());
    dead_forever.faults = crash_at_2s();
    let t_dead = run_simblast(&dead_forever);

    let mut revived = sim(scheme);
    revived.faults = FaultSchedule::new()
        .crash_server(SimTime::from_secs_f64(3.0), 1)
        .revive_server(SimTime::from_secs_f64(8.0), 1);
    let t_rev = run_simblast(&revived);

    assert!(t_dead.completed && t_rev.completed);
    // Revival can only shrink the degraded window, never widen it beyond
    // event-scheduling noise.
    assert!(
        t_rev.makespan_s <= t_dead.makespan_s * 1.05,
        "revival must not be materially slower than staying dead ({} vs {})",
        t_rev.makespan_s,
        t_dead.makespan_s
    );
}

#[test]
fn sim_corruption_crash_and_revive_complete_on_ceft_across_seeds() {
    // The issue's acceptance scenario, pinned on three seeds: a latent
    // corrupt stripe plus a primary crash plus a later revival. CEFT must
    // repair the stripe from the mirror, fail reads over while the
    // primary is down, resync the revived server before it serves reads
    // again, and still read exactly the clean run's byte count.
    use parblast::mpiblast::FRAG_FILE_BASE;
    for seed in [42u64, 1003, 77] {
        let mut cfg = sim(SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        });
        cfg.db_bytes = 256 << 20;
        cfg.seed = seed;
        // Fast heartbeat so the dead sweep (2.5-beat grace) notices the
        // crash before the revival; pace the rebuild fast enough to
        // finish within the job.
        cfg.ceft.heartbeat = SimTime::from_secs(1);
        cfg.ceft.resync_rate = Some(256 << 20);
        let clean = run_simblast(&cfg);
        assert!(clean.completed, "seed {seed}: clean run must complete");

        let mut faulted = cfg.clone();
        faulted.faults = FaultSchedule::new()
            .corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0)
            .crash_server(SimTime::from_secs_f64(3.0), 1)
            .revive_server(SimTime::from_secs_f64(8.0), 1);
        let out = run_simblast(&faulted);
        assert!(
            out.completed,
            "seed {seed}: CEFT must survive corruption + crash + revive: {:?}",
            out.error
        );
        assert!(
            out.repaired_stripes >= 1,
            "seed {seed}: the corrupt stripe must be read-repaired"
        );
        assert!(out.failovers > 0, "seed {seed}: reads must fail over");
        assert_eq!(
            out.resyncs, 1,
            "seed {seed}: the revived server must be rebuilt exactly once"
        );
        let bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
        let clean_bytes: u64 = clean.per_worker.iter().map(|w| w.bytes_read).sum();
        assert_eq!(
            bytes, clean_bytes,
            "seed {seed}: degraded run read a different byte count"
        );
    }
}

#[test]
fn sim_pvfs_corruption_reports_typed_error_across_seeds() {
    // Unmirrored PVFS has no good copy to repair from: the same latent
    // corruption must surface as a *corruption* error (not a timeout) and
    // must never burn the retry budget — resending the read cannot fix a
    // bad disk block.
    use parblast::mpiblast::FRAG_FILE_BASE;
    for seed in [42u64, 1003, 77] {
        let mut cfg = sim(SimScheme::Pvfs {
            servers: vec![0, 1, 2, 3],
        });
        cfg.seed = seed;
        cfg.faults =
            FaultSchedule::new().corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0);
        let out = run_simblast(&cfg);
        assert!(!out.completed, "seed {seed}: PVFS cannot mask corruption");
        let err = out.error.expect("the abort must carry the error");
        assert!(
            err.contains("corruption"),
            "seed {seed}: error must name corruption: {err}"
        );
        assert_eq!(out.retries, 0, "seed {seed}: corruption is non-retryable");
    }
}

// ------------------------------------------------------------ list I/O

#[test]
fn sim_ceft_list_io_crash_refetches_only_the_unserved_tail() {
    // A primary dies while a multi-batch ReadList is in flight. The CEFT
    // client must resend only `regions[served..]` to the mirror partner —
    // never the whole list — so the regions the partner serves are
    // strictly fewer than a full resend would cost.
    let scheme = SimScheme::Ceft {
        primary: vec![0, 1],
        mirror: vec![2, 3],
    };
    let mut cfg = sim(scheme);
    cfg.list_io = true;
    // 128 KiB chunks over 16 MiB fragments: 128 regions per list, 64 per
    // dual-half, i.e. two LIST_REGION_CAP batches per half — a crash can
    // land between batches.
    cfg.chunk = 128 << 10;
    let clean = run_simblast(&cfg);
    assert!(clean.completed, "clean list-I/O CEFT run must complete");
    assert!(clean.server_list_reads > 0, "lists must be in use");

    let mut faulted = cfg.clone();
    faulted.faults = FaultSchedule::new().crash_server(SimTime::from_secs_f64(1.5), 1);
    let out = run_simblast(&faulted);
    assert!(
        out.completed,
        "CEFT list I/O must survive a primary crash: {:?}",
        out.error
    );
    assert!(out.failovers > 0, "list tails must fail over to the mirror");
    let bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
    let clean_bytes: u64 = clean.per_worker.iter().map(|w| w.bytes_read).sum();
    assert_eq!(
        bytes, clean_bytes,
        "degraded run read a different byte count"
    );
    // Tail-only refetch, read off the servers' own accounting: an iod
    // counts a list's regions only when it FINISHES the list, so the dead
    // primary's in-flight lists are never counted and the partner counts
    // only the tail regions it was re-sent. A full-list resend would make
    // the partner re-count every region and bring the degraded total back
    // up to the clean total — the deficit below is exactly the batches the
    // dead server had already delivered and the client did not re-request.
    assert!(
        out.server_list_regions < clean.server_list_regions,
        "partner must be sent only the unserved tail ({} vs clean {})",
        out.server_list_regions,
        clean.server_list_regions
    );
    // The deficit is bounded by the dead server's share (~1/4 of regions).
    assert!(
        out.server_list_regions >= clean.server_list_regions * 3 / 4,
        "deficit larger than the dead server's own share ({} vs clean {})",
        out.server_list_regions,
        clean.server_list_regions
    );
}

#[test]
fn sim_pvfs_list_io_retry_budget_is_counted_per_list_request() {
    // With aggregation on, the retry budget applies to the one list
    // request a client has outstanding at the dead server — not to every
    // chunk it carries. Each worker burns at most `max_retries` retries
    // before aborting, however many regions the list held.
    let mut cfg = sim(SimScheme::Pvfs {
        servers: vec![0, 1, 2, 3],
    });
    cfg.list_io = true;
    cfg.chunk = 128 << 10; // 128 regions per fragment list
    cfg.faults = FaultSchedule::new().crash_server(SimTime::from_secs_f64(1.5), 1);
    let out = run_simblast(&cfg);
    assert!(
        !out.completed,
        "unmirrored PVFS cannot survive a dead server"
    );
    let err = out.error.expect("the abort must carry the I/O error");
    assert!(
        err.contains("timed out"),
        "error should name the timeout: {err}"
    );
    assert!(
        out.retries > 0,
        "the client must have retried before giving up"
    );
    // Each failed fragment attempt issues one list part at the dead
    // server and burns at most `max_retries` on it; the master re-assigns
    // each fragment up to 3 attempts. A per-region budget would spend
    // 128 × max_retries per attempt instead.
    let budget = RetryPolicy::default().max_retries as u64;
    let attempts = cfg.fragments as u64 * 3;
    assert!(
        out.retries <= budget * attempts,
        "retries must be budgeted per list request ({} > {budget} × \
         {attempts} fragment attempts); a per-region budget would burn \
         128 × {budget} per attempt",
        out.retries
    );
}

#[test]
fn sim_list_io_corruption_stays_non_retryable() {
    // Regression pin: aggregating reads into lists must not reclassify
    // corruption as retryable. A corrupt region fails the list with the
    // typed corruption error and burns zero retries — resending the same
    // list cannot fix a bad disk block.
    use parblast::mpiblast::FRAG_FILE_BASE;
    let mut cfg = sim(SimScheme::Pvfs {
        servers: vec![0, 1, 2, 3],
    });
    cfg.list_io = true;
    cfg.faults =
        FaultSchedule::new().corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0);
    let out = run_simblast(&cfg);
    assert!(!out.completed, "PVFS cannot mask corruption");
    let err = out.error.expect("the abort must carry the error");
    assert!(
        err.contains("corruption"),
        "error must name corruption: {err}"
    );
    assert_eq!(out.retries, 0, "corruption is non-retryable under list I/O");
}

// -------------------------------------------------------------- real files

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("faults_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Synthetic database split into fragments and loaded into `scheme`.
fn setup(base: &Path, scheme: &Scheme) -> (Vec<String>, Vec<u8>, DbStats) {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: 300_000,
        seed: 7,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    let query = extract_query(&seqs[2].1, 500, 0.02, 5);
    let db = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    let infos =
        segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 4, seqs).unwrap();
    let mut names = vec![];
    for info in infos {
        let bytes = std::fs::read(&info.path).unwrap();
        let name = info
            .path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        scheme.load_fragment(&name, &bytes).unwrap();
        names.push(name);
    }
    (names, query, db)
}

fn job(scheme: Scheme, fragments: Vec<String>, db: DbStats) -> ParallelBlast {
    ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db,
        fragments,
        workers: 2,
        scheme,
        tracer: Tracer::disabled(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch: false,
        list_io: false,
    }
}

fn hit_key(o: &RunOutcome) -> Vec<(String, i32)> {
    o.hits
        .iter()
        .map(|h| (h.subject_id.clone(), h.best_score()))
        .collect()
}

/// Remove every object file in one server directory ("the node died"),
/// leaving the directory itself so opens fail with NotFound.
fn kill_server_dir(dir: &Path) {
    for e in std::fs::read_dir(dir).unwrap() {
        std::fs::remove_file(e.unwrap().path()).unwrap();
    }
}

#[test]
fn real_ceft_yields_identical_hits_after_primary_loss() {
    let base = tmp("ceft");
    let ceft = Scheme::ceft_at(&base.join("c"), 2, 16 << 10).unwrap();
    let (fragments, query, db) = setup(&base, &ceft);
    let baseline = job(ceft.clone(), fragments.clone(), db)
        .run(&query)
        .unwrap();
    assert!(!baseline.hits.is_empty(), "planted query must be found");

    // Primary server 1 dies: its striped replicas vanish.
    kill_server_dir(&base.join("c").join("primary1"));
    let degraded = job(ceft, fragments, db).run(&query).unwrap();
    assert_eq!(
        hit_key(&baseline),
        hit_key(&degraded),
        "failover must not change BLAST results"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn real_ceft_completes_with_prefetch_in_flight_when_primary_dies() {
    // The double-buffered runner keeps fragment k+1's reads in flight
    // while fragment k is searched. Killing a primary under that pipeline
    // must behave exactly like the sequential path: in-flight and future
    // reads fail over to the mirror partner and the merged hits are
    // unchanged.
    let base = tmp("ceft_prefetch");
    let ceft = Scheme::ceft_at(&base.join("c"), 2, 16 << 10).unwrap();
    let (fragments, query, db) = setup(&base, &ceft);
    let mut baseline_job = job(ceft.clone(), fragments.clone(), db);
    baseline_job.prefetch = true;
    let baseline = baseline_job.run(&query).unwrap();
    assert!(!baseline.hits.is_empty(), "planted query must be found");

    // Primary server 1 dies between runs: every striped replica it held
    // is gone, so the prefetch pipeline's async reads hit the failure
    // mid-flight from the very first fragment onward. (Server 0 keeps the
    // `.meta` size files, so index 1 is the interesting data-loss case.)
    kill_server_dir(&base.join("c").join("primary1"));
    let mut degraded_job = job(ceft, fragments, db);
    degraded_job.prefetch = true;
    let degraded = degraded_job.run(&query).unwrap();
    assert_eq!(
        hit_key(&baseline),
        hit_key(&degraded),
        "failover under prefetch must not change BLAST results"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sim_ceft_read_ahead_crash_completes_with_failovers() {
    // Simulated twin of the scenario above: a primary crashes while
    // read-ahead keeps prefetched chunk reads in flight. The stale
    // replies are dropped, the client reroutes to the mirror, and the
    // job completes.
    let mut cfg = sim(SimScheme::Ceft {
        primary: vec![0, 1],
        mirror: vec![2, 3],
    });
    cfg.read_ahead = 2;
    // Read-ahead drains each fragment's chunk reads early in the compute
    // phase, so the crash must land shortly after warmup (1 s) to catch
    // prefetched reads still in flight.
    cfg.faults = FaultSchedule::new().crash_server(SimTime::from_secs_f64(1.5), 1);
    let out = run_simblast(&cfg);
    assert!(
        out.completed,
        "CEFT with read-ahead must survive the crash: {:?}",
        out.error
    );
    assert!(out.failovers > 0, "reads must have failed over");
}

#[test]
fn real_revived_stale_server_is_excluded_until_resync_completes() {
    // A server that died and came back with stale bytes must never serve
    // a read until `resync_server` has rebuilt it from its mirror
    // partner: `revive()` is refused while Degraded/Rebuilding, reads
    // keep routing around it, and only a completed rebuild (which
    // rewrites the stale stripes) readmits it.
    use parblast::pio::{read_all, MirroredStore, ObjectStore, ResyncState, ServerId};
    let base = tmp("stale_revive");
    let p: Vec<PathBuf> = (0..2).map(|i| base.join(format!("p{i}"))).collect();
    let m: Vec<PathBuf> = (0..2).map(|i| base.join(format!("m{i}"))).collect();
    let store = MirroredStore::new(p, m, 16 << 10).unwrap();
    let data: Vec<u8> = (0..200_000u32).map(|i| (i * 13 % 251) as u8).collect();
    store.put("nt", &data).unwrap();

    // Primary 1 dies, then "comes back" holding garbage where its
    // stripes used to be — it missed every write since the crash.
    let victim = ServerId { group: 0, index: 1 };
    store.monitor().mark_dead(victim);
    let shard = base.join("p1").join("nt");
    let good_shard = std::fs::read(&shard).unwrap();
    std::fs::write(&shard, vec![0xAAu8; good_shard.len()]).unwrap();

    assert!(
        !store.monitor().revive(victim),
        "a stale server must not be readmitted by revival alone"
    );
    assert_eq!(store.monitor().resync_state(victim), ResyncState::Degraded);
    assert!(store.monitor().dead().contains(&victim));
    assert_eq!(
        read_all(&store, "nt").unwrap(),
        data,
        "reads must route around the stale replica"
    );

    // The rebuild copies the partner's good stripes back, after which —
    // and only after which — the server serves reads again.
    let report = store.resync_server(victim, 0).unwrap();
    assert!(report.bytes > 0, "{report:?}");
    assert_eq!(store.monitor().resync_state(victim), ResyncState::Healthy);
    assert!(store.monitor().dead().is_empty());
    assert_eq!(
        std::fs::read(&shard).unwrap(),
        good_shard,
        "the rebuild must rewrite the stale stripes"
    );
    assert_eq!(read_all(&store, "nt").unwrap(), data);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn real_pvfs_reports_error_after_server_loss() {
    let base = tmp("pvfs");
    let pvfs = Scheme::pvfs_at(&base.join("p"), 4, 16 << 10).unwrap();
    let (fragments, query, db) = setup(&base, &pvfs);
    assert!(job(pvfs.clone(), fragments.clone(), db).run(&query).is_ok());

    // An unmirrored server dies: the job must fail cleanly — the master
    // reassigns each fragment MAX_TASK_ATTEMPTS times, every attempt hits
    // the same missing stripes, and the error surfaces.
    kill_server_dir(&base.join("p").join("iod0"));
    let job = job(pvfs, fragments, db);
    // `run` and `run_batch` are one pipeline: both reassign, both give up.
    let errors = [
        job.run(&query).map(drop).unwrap_err(),
        job.run_batch(&[query]).map(drop).unwrap_err(),
    ];
    for err in errors {
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
    std::fs::remove_dir_all(&base).ok();
}
