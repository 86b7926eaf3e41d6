//! A small synthetic database for the worker-pool suites: formatted into
//! fragments once, then staged into as many stores as a test needs.

use std::path::{Path, PathBuf};

use parblast::blast::{DbStats, Program, SearchParams};
use parblast::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast::seqdb::{
    extract_query, segment_into_fragments, SeqType, SyntheticConfig, SyntheticNt,
};

/// Formatted fragments, their database's statistics, and queries cut from
/// its sequences.
pub struct Db {
    pub fragments: Vec<(String, Vec<u8>)>,
    pub stats: DbStats,
    pub queries: Vec<Vec<u8>>,
}

/// A scratch directory of this test process; removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pool_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// `residues` of synthetic database in `fragments` fragments, and
/// `queries` queries of 350 residues cut from it with 2% mutations.
pub fn db(dir: &Path, residues: u64, fragments: u32, queries: usize) -> Db {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed: 2003,
        ..Default::default()
    });
    let mut seqs = vec![];
    while let Some(x) = g.next() {
        seqs.push(x);
    }
    let queries = (0..queries)
        .map(|i| extract_query(&seqs[i % seqs.len()].1, 350, 0.02, i as u64))
        .collect();
    let stats = DbStats {
        residues: g.residues(),
        nseq: g.sequences(),
    };
    let infos = segment_into_fragments(dir, "nt", SeqType::Nucleotide, fragments, seqs).unwrap();
    let fragments = infos
        .iter()
        .map(|info| {
            let name = info
                .path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&info.path).unwrap())
        })
        .collect();
    Db {
        fragments,
        stats,
        queries,
    }
}

/// A blastn job over `scheme`, with `db`'s fragments loaded into it.
pub fn job(db: &Db, scheme: Scheme, workers: usize, prefetch: bool) -> ParallelBlast {
    for (name, bytes) in &db.fragments {
        scheme.load_fragment(name, bytes).unwrap();
    }
    ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db: db.stats,
        fragments: db.fragments.iter().map(|(n, _)| n.clone()).collect(),
        workers,
        scheme,
        tracer: Tracer::disabled(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch,
        list_io: false,
    }
}
