//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. CEFT dual-half reads vs naive primary-only reads (the optimization
//!    of \[6\] that Figure 7 relies on), on the simulator and, as mirrored
//!    4+4 vs striped 8, on real files;
//! 2. hot-spot skip-threshold sensitivity (Figure 9's detector);
//! 3. elevator write-batch size vs stress degradation (the Figure 8/9
//!    mechanism knob);
//! 4. application read-chunk size (the Figure 4 access-granularity choice);
//! 5. CEFT duplex write protocols;
//! 6. real striped-read throughput vs server count and stripe size.
//!
//! The real-file cells put an 8 MiB object into stores over directories
//! under the system temp dir and report the median of 20 whole-object
//! reads, each checked against the object's bytes.
//!
//! ```sh
//! cargo run --release -p parblast-bench --bin ablations [--db-bytes N]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use parblast_bench::{arg_u64, median, print_table};
use parblast_core::ceft::{CeftConfig, ReadMode, SkipPolicy, WriteProtocol};
use parblast_core::hwsim::MIB;
use parblast_core::mpiblast::{run_simblast, SimBlastConfig, SimScheme};
use parblast_core::pio::{MirroredStore, ObjectStore, StripedStore};

/// Size of the object the real-file cells read.
const REAL_OBJECT_BYTES: usize = 8 << 20;
/// Timed whole-object reads per real-file cell.
const REAL_REPS: usize = 20;

/// `n` fresh directories for one real-file cell.
fn scratch_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            std::env::temp_dir().join(format!("pio_ablation_{tag}_{}_{i}", std::process::id()))
        })
        .collect()
}

/// Put `data` into `store` and read it whole [`REAL_REPS`] times, each
/// read checked against `data`; the median read's MB/s. Removes `dirs`
/// afterwards.
fn real_read_mbps(store: &dyn ObjectStore, dirs: &[PathBuf], data: &[u8]) -> f64 {
    store.put("ablation.obj", data).expect("put");
    let mut reader = store.open("ablation.obj").expect("open");
    let mut buf = vec![0u8; data.len()];
    let s = median(
        (0..REAL_REPS)
            .map(|_| {
                buf.fill(0);
                let t0 = Instant::now();
                reader.read_at(0, &mut buf).expect("read");
                let s = t0.elapsed().as_secs_f64();
                assert!(buf == data, "a read differs from the object's bytes");
                s
            })
            .collect(),
    );
    for d in dirs {
        std::fs::remove_dir_all(d).ok();
    }
    data.len() as f64 / s / 1e6
}

/// Real striped-read MB/s over `servers` directories at `stripe` bytes.
fn striped_mbps(servers: usize, stripe: u64, data: &[u8]) -> f64 {
    let dirs = scratch_dirs(&format!("s{servers}_{stripe}"), servers);
    let store = StripedStore::new(dirs.clone(), stripe).expect("striped store");
    real_read_mbps(&store, &dirs, data)
}

fn base(db: u64) -> SimBlastConfig {
    SimBlastConfig {
        nodes: 9,
        workers: 8,
        fragments: 8,
        db_bytes: db,
        master_node: 8,
        scheme: SimScheme::Ceft {
            primary: (0..4).collect(),
            mirror: (4..8).collect(),
        },
        ..Default::default()
    }
}

fn main() {
    let db = arg_u64("--db-bytes", 2_700_000_000);

    // ── 1. Dual-half vs primary-only reads ──────────────────────────────
    println!("Ablation 1: CEFT read scheduling (8 workers, 4+4 servers)\n");
    let mut rows = Vec::new();
    for (label, mode) in [
        ("dual-half (paper)", ReadMode::DualHalf),
        ("primary-only (naive)", ReadMode::PrimaryOnly),
    ] {
        let mut cfg = base(db);
        cfg.ceft = CeftConfig {
            read_mode: mode,
            ..CeftConfig::default()
        };
        let out = run_simblast(&cfg);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", out.makespan_s),
            format!("{:.1}%", out.io_fraction * 100.0),
        ]);
    }
    print_table(&["read mode", "time (s)", "io fraction"], &rows);
    println!("\ndual-half engages all 8 disks per read; primary-only only 4 —");
    println!("the doubled parallelism of [6] that lets CEFT match PVFS in Fig. 7.\n");

    let data: Vec<u8> = (0..REAL_OBJECT_BYTES)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    println!("on real files, 8 directories, 64 KiB stripes:\n");
    let (primary, mirror) = (scratch_dirs("mp", 4), scratch_dirs("mm", 4));
    let mirrored = MirroredStore::new(primary.clone(), mirror.clone(), 64 << 10).expect("store");
    let dirs: Vec<PathBuf> = primary.into_iter().chain(mirror).collect();
    let rows = [
        ("striped 8".to_string(), striped_mbps(8, 64 << 10, &data)),
        (
            "mirrored 4+4, dual-half".to_string(),
            real_read_mbps(&mirrored, &dirs, &data),
        ),
    ]
    .map(|(store, mbps)| vec![store, format!("{mbps:.0}")]);
    print_table(&["store", "read MB/s"], &rows);
    println!();

    // ── 2. Skip-threshold sensitivity ───────────────────────────────────
    println!("Ablation 2: hot-spot skip threshold (one stressed disk)\n");
    let mut rows = Vec::new();
    for hot in [0.5f64, 0.7, 0.85, 0.95, 1.01] {
        let mut cfg = base(db);
        cfg.stress_nodes = vec![1];
        cfg.ceft = CeftConfig {
            policy: SkipPolicy {
                hot_threshold: hot,
                ..SkipPolicy::default()
            },
            ..CeftConfig::default()
        };
        let out = run_simblast(&cfg);
        rows.push(vec![
            if hot > 1.0 {
                "off (never skips)".into()
            } else {
                format!("{hot:.2}")
            },
            format!("{:.1}", out.makespan_s),
            out.skipped_parts.to_string(),
        ]);
    }
    print_table(
        &["hot threshold", "stressed time (s)", "skipped parts"],
        &rows,
    );
    println!("\nany threshold below the stressor's ~100% utilization detects it;");
    println!("disabling the skip leaves CEFT convoying like PVFS (Fig. 9).\n");

    // ── 3. Elevator write-batch size vs degradation ─────────────────────
    println!("Ablation 3: elevator write-batch size vs PVFS stress collapse\n");
    let mut rows = Vec::new();
    for batch_mb in [2u64, 8, 16, 32] {
        let mk = |stress: bool| {
            let mut cfg = base(db);
            cfg.scheme = SimScheme::Pvfs {
                servers: (0..8).collect(),
            };
            cfg.hw.disk.write_batch_bytes = batch_mb * MIB;
            if stress {
                cfg.stress_nodes = vec![1];
            }
            run_simblast(&cfg).makespan_s
        };
        let clean = mk(false);
        let hot = mk(true);
        rows.push(vec![
            format!("{batch_mb} MB"),
            format!("{clean:.1}"),
            format!("{hot:.1}"),
            format!("{:.1}x", hot / clean),
        ]);
    }
    print_table(
        &["write batch", "clean (s)", "stressed (s)", "factor"],
        &rows,
    );
    println!("\nthe collapse factor tracks how long the appending writer may");
    println!("monopolize the head — the 2003 elevator behavior behind Fig. 9.\n");

    // ── 4. Application read-chunk size ──────────────────────────────────
    println!("Ablation 4: application read-chunk size (PVFS, 8x8)\n");
    let mut rows = Vec::new();
    for chunk_mb in [1u64, 4, 8, 16, 32] {
        let mut cfg = base(db);
        cfg.scheme = SimScheme::Pvfs {
            servers: (0..8).collect(),
        };
        cfg.chunk = chunk_mb * MIB;
        let out = run_simblast(&cfg);
        rows.push(vec![
            format!("{chunk_mb} MB"),
            format!("{:.1}", out.makespan_s),
            format!("{:.1}%", out.io_fraction * 100.0),
        ]);
    }
    print_table(&["chunk", "time (s)", "io fraction"], &rows);
    println!("\nlarger requests amortize per-server overheads (the paper's mean");
    println!("read is ~10 MB, Fig. 4) until store-and-forward latency dominates.\n");

    // ── 5. Duplex write protocols ───────────────────────────────────────
    // The BLAST workload barely writes, so measure with a write-heavy
    // variant: every fragment ends with many large result writes.
    println!("Ablation 5: CEFT duplex write protocols (write-heavy variant)\n");
    let mut rows = Vec::new();
    for (label, protocol) in [
        ("client duplex", WriteProtocol::ClientDuplex),
        ("server sync", WriteProtocol::ServerSync),
        ("server async", WriteProtocol::ServerAsync),
    ] {
        let mut cfg = base(db / 16); // smaller db: writes dominate
        cfg.result_writes = 64;
        cfg.result_write_bytes = 4 * MIB;
        cfg.ceft = CeftConfig {
            write_protocol: protocol,
            ..CeftConfig::default()
        };
        let out = run_simblast(&cfg);
        rows.push(vec![label.to_string(), format!("{:.1}", out.makespan_s)]);
    }
    print_table(&["write protocol", "time (s)"], &rows);
    println!("\nserver-side forwarding halves client NIC traffic; asynchronous");
    println!("mirroring acks earliest (the trade-off studied in ref. [7]).\n");

    // ── 6. Real striped reads: servers and stripe size ──────────────────
    println!("Ablation 6: real striped-read throughput (8 MiB object)\n");
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
        .map(|servers| (servers, 64u64))
        .into_iter()
        .chain([16u64, 64, 256, 1024].map(|kib| (4, kib)))
        .map(|(servers, kib)| {
            vec![
                servers.to_string(),
                format!("{kib} KiB"),
                format!("{:.0}", striped_mbps(servers, kib << 10, &data)),
            ]
        })
        .collect();
    print_table(&["servers", "stripe", "read MB/s"], &rows);
    println!("\nthe first four rows sweep servers at the paper's 64 KiB stripe, the");
    println!("last four the stripe size at 4 servers; every read is checked whole.");
}
