//! Figure 4: application-level I/O trace of the real parallel BLAST
//! (8 workers, 8 fragments, 568-nt query). Prints the §4.2 statistics and
//! writes the scatter data to `fig4_trace.tsv`.

use parblast_bench::{arg_u64, figures};
use parblast_core::experiments::fig4;

fn main() {
    // Default scale: 64 M residues (1/42 of nt); override with --residues.
    let residues = arg_u64("--residues", 64 << 20);
    let dir = std::env::temp_dir().join(format!("parblast_fig4_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("workdir");
    let r = fig4(&dir, residues).expect("fig4 run");
    print!("{}", figures::fig4(&r, residues));
    let out = std::path::Path::new("fig4_trace.tsv");
    std::fs::write(out, &r.scatter_tsv).expect("write tsv");
    println!("\nscatter data -> {}", out.display());
    std::fs::remove_dir_all(&dir).ok();
}
