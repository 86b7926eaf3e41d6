//! Figure 9: all three schemes with one data-server disk stressed by the
//! Figure 8 program (8 workers, 8 data servers).

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::{fig9, NT_BYTES};

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    print!("{}", figures::fig9(&fig9(db), db));
}
