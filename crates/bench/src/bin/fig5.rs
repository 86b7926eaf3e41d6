//! Figure 5: original vs over-PVFS under equal resources
//! (nodes serve as both workers and data servers).

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::{fig5, NT_BYTES};

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    print!("{}", figures::fig5(&fig5(&figures::FIG5_NODES, db), db));
}
