//! `pb-blastall` — search formatted database fragments, the workspace's
//! analogue of NCBI's `blastall` single interface (§2.1 of the paper) with
//! mpiBLAST-style parallel fragment dispatch built in.
//!
//! ```sh
//! # One-shot batch job (the original mode):
//! pb-blastall -p blastn -d ./db/nt -i query.fa [--workers 8] [--evalue 10]
//!
//! # Long-running daemon serving the same store over TCP:
//! pb-blastall --daemon 0.0.0.0:7878 -p blastn -d ./db/nt \
//!     [--shards 2] [--max-batch 4] [--queue-cap 256] [--quota-qps 50]
//!
//! # Clients against a daemon (many may run concurrently):
//! pb-blastall --connect host:7878 -i query.fa [--tenant 3] [--deadline-us N]
//! pb-blastall --connect host:7878 --stats
//! pb-blastall --connect host:7878 --drain     # graceful shutdown
//! ```
//!
//! `-d` takes the fragment prefix (`<dir>/<name>`); all `<name>.NNN.pdb`
//! volumes beside it are searched. Output is BLAST tabular (`-m 8`).
//! `-p` accepts `blastn` only, the program the paper runs; any other value
//! exits with status 2.
//! Daemon results are byte-identical to the one-shot mode's (pinned in
//! `tests/determinism.rs`); `--drain` finishes every accepted query
//! before the daemon exits.

use std::sync::Arc;

use parblast::blast::DbStats;
use parblast::net::{BlastRunner, ClientConfig, NetClient, NetServer, QuotaConfig, ServerConfig};
use parblast::prelude::*;
use parblast::seqdb::encode_nt_seq;

fn arg(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

fn other_err<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Everything the batch mode and the daemon share: fragment discovery,
/// whole-database statistics, and staging into a `pio`-backed scheme.
struct StagedJob {
    job: ParallelBlast,
    residues: u64,
    nseq: u64,
    fragment_bytes: u64,
    work_dir: std::path::PathBuf,
}

fn stage_job(db_prefix: &str, workers: usize) -> std::io::Result<StagedJob> {
    // Discover fragments: <prefix>.NNN.pdb.
    let prefix = std::path::PathBuf::from(db_prefix);
    let dir = prefix.parent().unwrap_or(std::path::Path::new("."));
    let name = prefix.file_name().unwrap().to_string_lossy().into_owned();
    let mut fragment_paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .map(|f| f.starts_with(&format!("{name}.")) && f.ends_with(".pdb"))
                .unwrap_or(false)
        })
        .collect();
    fragment_paths.sort();
    assert!(
        !fragment_paths.is_empty(),
        "no fragments matching {db_prefix}.NNN.pdb"
    );

    // Whole-database statistics from the volume headers (mpiBLAST
    // semantics: E-values against the full database).
    let mut residues = 0u64;
    let mut nseq = 0u64;
    for p in &fragment_paths {
        let mut f = std::fs::File::open(p)?;
        let h = Volume::read_header(&mut f)?;
        residues += h.residues;
        nseq += h.nseq;
    }
    let db = DbStats { residues, nseq };

    // Stage fragments into a local scheme rooted next to the database.
    let work_dir = dir.join(".pb_work");
    let scheme = Scheme::local_at(&work_dir, workers)?;
    let mut fragments = Vec::new();
    let mut fragment_bytes = 0u64;
    for p in &fragment_paths {
        let bytes = std::fs::read(p)?;
        fragment_bytes += bytes.len() as u64;
        let frag_name = p.file_name().unwrap().to_string_lossy().into_owned();
        scheme.load_fragment(&frag_name, &bytes)?;
        fragments.push(frag_name);
    }

    let mut params = SearchParams::blastn();
    if let Some(e) = arg("--evalue").and_then(|v| v.parse().ok()) {
        params.evalue = e;
    }

    Ok(StagedJob {
        job: ParallelBlast {
            program: Program::Blastn,
            params,
            db,
            fragments,
            workers,
            scheme,
            tracer: Tracer::disabled(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        },
        residues,
        nseq,
        fragment_bytes,
        work_dir,
    })
}

fn read_queries(query_path: &str) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let records = FastaReader::open(query_path)?.read_all()?;
    assert!(!records.is_empty(), "no query records in {query_path}");
    Ok(records
        .into_iter()
        .map(|r| (r.id, encode_nt_seq(&r.seq)))
        .collect())
}

/// `--daemon <addr>`: serve the staged store over TCP until drained.
fn daemon_mode(addr: &str) -> std::io::Result<()> {
    let db_prefix = arg("-d").expect("--daemon requires -d <dir>/<name>");
    let workers: usize = arg("--workers").and_then(|v| v.parse().ok()).unwrap_or(8);
    let staged = stage_job(&db_prefix, workers)?;

    let config = ServerConfig {
        shards: arg("--shards").and_then(|v| v.parse().ok()).unwrap_or(2),
        queue_capacity: arg("--queue-cap")
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
        max_batch: arg("--max-batch").and_then(|v| v.parse().ok()).unwrap_or(4),
        quota: arg("--quota-qps")
            .and_then(|v| v.parse().ok())
            .map(QuotaConfig::per_second),
        read_deadline: arg("--read-deadline-ms")
            .and_then(|v| v.parse().ok())
            .map(std::time::Duration::from_millis)
            .or(ServerConfig::default().read_deadline),
        max_inflight_per_conn: arg("--max-inflight")
            .and_then(|v| v.parse().ok())
            .unwrap_or(ServerConfig::default().max_inflight_per_conn),
    };
    let runner = Arc::new(BlastRunner::new(staged.job, staged.fragment_bytes));
    let handle = NetServer::start(addr, config, runner)?;
    eprintln!(
        "# pb-blastall daemon on {} — {} residues in {} sequences, {} shards, \
         max batch {}, queue cap {}, quota {}",
        handle.addr(),
        staged.residues,
        staged.nseq,
        config.shards,
        config.max_batch,
        config.queue_capacity,
        config
            .quota
            .map(|q| format!("{} qps (burst {})", q.qps, q.burst))
            .unwrap_or_else(|| "off".into()),
    );

    // Blocks until a Drain frame arrives (pb-blastall --connect --drain),
    // then finishes every accepted query before returning.
    let stats = handle.join();
    eprintln!(
        "# drained: {} accepted, {} served, {} batches, sheds {}/{}/{} \
         (queue-full/quota/draining), per-shard {:?}",
        stats.accepted,
        stats.served,
        stats.batches,
        stats.shed_queue_full,
        stats.shed_quota,
        stats.shed_draining,
        stats.per_shard_served,
    );
    std::fs::remove_dir_all(&staged.work_dir).ok();
    Ok(())
}

/// `--connect <addr>`: submit queries (or admin ops) to a daemon.
fn connect_mode(addr: &str) -> std::io::Result<()> {
    let config = ClientConfig {
        tenant: arg("--tenant").and_then(|v| v.parse().ok()).unwrap_or(0),
        deadline_us: arg("--deadline-us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        ..Default::default()
    };
    let mut client = NetClient::connect_with(addr, config)?;

    if flag("--drain") {
        let queued = client.drain().map_err(other_err)?;
        eprintln!("# drain acknowledged; {queued} queries still in flight");
        return Ok(());
    }
    if flag("--stats") {
        let s = client.stats().map_err(other_err)?;
        println!(
            "submits\t{}\nevicted\t{}\naccepted\t{}\nserved\t{}\nshed_queue_full\t{}\nshed_quota\t{}\n\
             shed_draining\t{}\nexpired\t{}\ncancelled\t{}\nbatches\t{}\n\
             bytes_read\t{}\nper_shard_served\t{:?}",
            s.submits,
            s.evicted,
            s.accepted,
            s.served,
            s.shed_queue_full,
            s.shed_quota,
            s.shed_draining,
            s.expired,
            s.cancelled,
            s.batches,
            s.bytes_read,
            s.per_shard_served,
        );
        return Ok(());
    }

    let query_path = arg("-i").expect("--connect requires -i <query.fa> (or --stats/--drain)");
    let queries = read_queries(&query_path)?;
    let t0 = std::time::Instant::now();
    for (qid, codes) in &queries {
        // The daemon renders with the generic "query" id (so its bytes
        // match in-process serving exactly); re-label with the FASTA id.
        let payload = client.query(codes).map_err(other_err)?;
        let text = String::from_utf8_lossy(&payload);
        for line in text.lines() {
            match line.strip_prefix("query\t") {
                Some(rest) => println!("{qid}\t{rest}"),
                None => println!("{line}"),
            }
        }
    }
    eprintln!(
        "# {} quer{} served by {} in {:.2}s",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        addr,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    if let Some(p) = arg("-p").filter(|p| p != "blastn") {
        eprintln!("pb-blastall: -p {p}: only blastn is supported");
        std::process::exit(2);
    }
    if let Some(addr) = arg("--connect") {
        return connect_mode(&addr);
    }
    if let Some(addr) = arg("--daemon") {
        return daemon_mode(&addr);
    }

    let Some(db_prefix) = arg("-d") else {
        eprintln!(
            "usage: pb-blastall [-p blastn] -d <dir>/<name> -i <query.fa> \
             [--workers N] [--evalue E]\n\
             \x20      pb-blastall --daemon <addr> -d <dir>/<name> [-p blastn] \
             [--shards N] [--max-batch B] [--queue-cap C] [--quota-qps Q]\n\
             \x20      pb-blastall --connect <addr> -i <query.fa> [--tenant T] \
             [--deadline-us D] | --stats | --drain"
        );
        return Ok(());
    };
    let query_path = arg("-i").expect("-i <query.fa>");
    let workers: usize = arg("--workers").and_then(|v| v.parse().ok()).unwrap_or(8);
    let staged = stage_job(&db_prefix, workers)?;
    let queries = read_queries(&query_path)?;

    let batch = staged
        .job
        .run_batch(&queries.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>())?;
    for ((qid, _), hits) in queries.iter().zip(&batch.per_query) {
        print!("{}", tabular(qid, hits));
    }
    eprintln!(
        "# {} quer{} vs {} residues in {} sequences, {:.2}s wall",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        staged.residues,
        staged.nseq,
        batch.wall_s
    );
    std::fs::remove_dir_all(&staged.work_dir).ok();
    Ok(())
}
