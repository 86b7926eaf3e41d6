//! Figure 7: over-PVFS (8 data servers) vs over-CEFT-PVFS (4 mirroring 4)
//! with the same total number of server nodes.

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::{fig7, NT_BYTES};

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    print!("{}", figures::fig7(&fig7(&figures::FIG7_WORKERS, db), db));
}
