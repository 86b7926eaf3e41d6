//! `pb-formatdb` — format a FASTA file into searchable database volumes,
//! the workspace's analogue of NCBI's `formatdb` plus mpiBLAST's
//! `mpiformatdb` segmentation.
//!
//! ```sh
//! pb-formatdb --in db.fa --out ./db --name nt --fragments 8
//! pb-formatdb --synthetic 64000000 --out ./db --name nt --fragments 8
//! ```
//!
//! Volumes hold nucleotides only, the residues blastn searches;
//! `--protein` exits with status 2.

use parblast::prelude::*;
use parblast::seqdb::encode_nt_seq;

fn arg(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

fn main() -> std::io::Result<()> {
    if flag("--help") || std::env::args().len() == 1 {
        eprintln!(
            "usage: pb-formatdb (--in <fasta> | --synthetic <residues>) \
             --out <dir> [--name nt] [--fragments N] [--seed S]"
        );
        return Ok(());
    }
    let out = std::path::PathBuf::from(arg("--out").unwrap_or_else(|| ".".into()));
    let name = arg("--name").unwrap_or_else(|| "db".into());
    let fragments: u32 = arg("--fragments").and_then(|v| v.parse().ok()).unwrap_or(1);
    if flag("--protein") {
        eprintln!("pb-formatdb: --protein: only nucleotide databases are supported");
        std::process::exit(2);
    }

    let seqs: Vec<(String, Vec<u8>)> = if let Some(n) = arg("--synthetic") {
        let total: u64 = n.parse().expect("--synthetic takes a residue count");
        let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(2003);
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: total,
            seed,
            ..Default::default()
        });
        let mut v = Vec::new();
        while let Some(s) = g.next() {
            v.push(s);
        }
        v
    } else {
        let input = arg("--in").expect("--in <fasta> or --synthetic <residues>");
        let records = FastaReader::open(&input)?.read_all()?;
        records
            .into_iter()
            .map(|r| (r.defline(), encode_nt_seq(&r.seq)))
            .collect()
    };

    let nseq = seqs.len();
    let residues: u64 = seqs.iter().map(|(_, c)| c.len() as u64).sum();
    let infos = segment_into_fragments(&out, &name, SeqType::Nucleotide, fragments, seqs)?;
    println!(
        "formatted {nseq} sequences / {residues} residues into {} fragment(s):",
        infos.len()
    );
    for info in &infos {
        println!(
            "  {}  {} seqs, {} residues, {} bytes",
            info.path.display(),
            info.nseq,
            info.residues,
            info.bytes
        );
    }
    Ok(())
}
