//! §4.1 calibration check: simulated Bonnie (disk) and Netperf (network)
//! against the paper's measured numbers.

use parblast_bench::figures;
use parblast_core::experiments::calibration;

fn main() {
    print!("{}", figures::calibration(&calibration()));
}
