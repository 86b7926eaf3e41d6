//! Regenerate every experiment in one go and print the full
//! paper-vs-measured record (the data behind EXPERIMENTS.md), each figure
//! through the same printer as its own binary.
//!
//! ```sh
//! cargo run --release -p parblast-bench --bin run_all [--db-bytes N] [--residues N]
//! ```

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::*;

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    let residues = arg_u64("--residues", 64 << 20);

    print!("{}", figures::calibration(&calibration()));

    let dir = std::env::temp_dir().join(format!("parblast_runall_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let f4 = fig4(&dir, residues).expect("fig4");
    std::fs::remove_dir_all(&dir).ok();
    print!("\n{}", figures::fig4(&f4, residues));

    print!("\n{}", figures::fig5(&fig5(&figures::FIG5_NODES, db), db));

    let (workers, servers) = (figures::FIG6_WORKERS, figures::FIG6_SERVERS);
    let cells = fig6(&workers, &servers, db);
    print!("\n{}", figures::fig6(&cells, &workers, &servers, db));

    print!("\n{}", figures::fig7(&fig7(&figures::FIG7_WORKERS, db), db));

    print!("\n{}", figures::fig9(&fig9(db), db));
}
