//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. CEFT dual-half reads vs naive primary-only reads (the optimization
//!    of \[6\] that Figure 7 relies on);
//! 2. hot-spot skip-threshold sensitivity (Figure 9's detector);
//! 3. elevator write-batch size vs stress degradation (the Figure 8/9
//!    mechanism knob);
//! 4. application read-chunk size (the Figure 4 access-granularity choice).
//!
//! ```sh
//! cargo run --release -p parblast-bench --bin ablations [--db-bytes N]
//! ```

use parblast_bench::{arg_u64, print_table};
use parblast_core::ceft::{CeftConfig, ReadMode, SkipPolicy, WriteProtocol};
use parblast_core::hwsim::MIB;
use parblast_core::mpiblast::{run_simblast, SimBlastConfig, SimScheme};

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
    println!("mirroring acks earliest (the trade-off studied in ref. [7]).");
}
