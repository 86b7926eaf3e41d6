//! Quickstart: generate a synthetic nucleotide database, format it, and
//! run a blastn search for a query extracted from it — the single-node
//! version of the paper's workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parblast::prelude::*;

fn main() {
    // 1. Generate a small synthetic database with nt-like statistics
    //    (the paper uses NCBI's 2.7 GB `nt`; we scale down).
    let mut gen = SyntheticNt::new(SyntheticConfig {
        total_residues: 2 << 20, // 2 M residues ≈ 1/1300 of nt
        seed: 2003,
        ..Default::default()
    });
    let mut seqs = Vec::new();
    while let Some(s) = gen.next() {
        seqs.push(s);
    }
    println!(
        "database: {} sequences, {} residues",
        seqs.len(),
        seqs.iter().map(|(_, c)| c.len()).sum::<usize>()
    );

    // 2. Extract the paper's style of query: 568 nucleotides cut from a
    //    database sequence, with 2 % mutations.
    let query = extract_query(&seqs[10].1, 568, 0.02, 7);
    println!(
        "query: {} nt (2% mutated window of sequence 11)",
        query.len()
    );

    // 3. Build an in-memory volume and search it with blastn defaults
    //    (word size 11, +1/−3, gaps 5/2 — the 2003-era parameters).
    let volume = Volume {
        seq_type: SeqType::Nucleotide,
        sequences: seqs
            .into_iter()
            .map(|(defline, codes)| DbSequence { defline, codes })
            .collect(),
    };
    let params = SearchParams::blastn();
    let hits = blastall(&query, &volume, &params);

    // 4. Report, BLAST tabular style.
    println!("\ntop hits (qid sid %id len mm go qs qe ss se evalue bits):");
    let top: Vec<_> = hits.iter().take(5).cloned().collect();
    print!("{}", tabular("query_568nt", &top));
    assert!(!hits.is_empty(), "the planted query must be found");
    println!(
        "\n{} subject(s) matched; best E-value {:.2e}",
        hits.len(),
        hits[0].best_evalue()
    );
}
