//! Hot-spot skipping on real files (§4.5 of the paper, Figure 3).
//!
//! Stores an object in a 4+4 mirrored store whose disks are paced to
//! 64 MB/s, slows one primary server to 4 MB/s (a loaded disk), and shows
//! the health monitor detecting it and subsequent reads skipping to the
//! mirror partner — then proves the redundancy claim by deleting the hot
//! server's file outright.
//!
//! ```sh
//! cargo run --release --example hotspot_failover
//! ```

use parblast::prelude::*;
use std::path::PathBuf;
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let base = std::env::temp_dir().join(format!("parblast_hotspot_{}", std::process::id()));
    let dirs = |g: &str| -> Vec<PathBuf> { (0..4).map(|i| base.join(format!("{g}{i}"))).collect() };
    let store = MirroredStore::new(dirs("primary"), dirs("mirror"), 64 << 10)?;
    store.set_io_throttle(64_000_000);

    let data: Vec<u8> = (0..8u32 << 20).map(|i| (i % 251) as u8).collect();
    store.put("nt.000.pdb", &data)?;
    println!("stored 8 MiB across 4 primary + 4 mirror directories (RAID-10)");

    // Baseline read: dual-half schedule, all 8 "servers" participate.
    let mut r = store.open("nt.000.pdb")?;
    let mut buf = vec![0u8; 1 << 20];
    let t0 = Instant::now();
    for i in 0..8u64 {
        r.read_at(i * (1 << 20), &mut buf)?;
    }
    println!(
        "clean read pass: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Stress primary server 2: its disk now serves 16x slower than its
    // peers (standing in for the paper's Figure 8 stressor), so its share
    // of every read costs ~30 ms instead of ~2 ms.
    let hot = ServerId { group: 0, index: 2 };
    store.set_server_throttle(hot, 4_000_000);
    println!("\nslowed primary server 2 to 4 MB/s");

    let t1 = Instant::now();
    for i in 0..8u64 {
        r.read_at(i * (1 << 20), &mut buf)?;
    }
    println!(
        "stressed pass (monitor learning): {:.1} ms, skips = {:?}",
        t1.elapsed().as_secs_f64() * 1e3,
        store.monitor().skips()
    );
    assert!(
        store.monitor().skips().contains(&hot),
        "hot server detected"
    );

    // With the skip in place, reads avoid the hot server entirely.
    let t2 = Instant::now();
    for i in 0..8u64 {
        r.read_at(i * (1 << 20), &mut buf)?;
    }
    println!(
        "skipping pass: {:.1} ms (hot server avoided)",
        t2.elapsed().as_secs_f64() * 1e3
    );

    // The redundancy is real: destroy the hot server's file and re-read.
    std::fs::remove_file(base.join("primary2").join("nt.000.pdb"))?;
    let mut all = vec![0u8; data.len()];
    r.read_at(0, &mut all)?;
    assert_eq!(all, data);
    println!("\nhot server's file deleted — full object still reads correctly from the mirror");

    std::fs::remove_dir_all(&base).ok();
    Ok(())
}
