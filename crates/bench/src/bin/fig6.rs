//! Figure 6: execution time across worker counts and PVFS data-server
//! counts, with the original scheme as baseline.

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::{fig6, NT_BYTES};

fn main() {
    let db = arg_u64("--db-bytes", NT_BYTES);
    let (workers, servers) = (figures::FIG6_WORKERS, figures::FIG6_SERVERS);
    let cells = fig6(&workers, &servers, db);
    print!("{}", figures::fig6(&cells, &workers, &servers, db));
}
