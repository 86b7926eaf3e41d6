//! Set-up: format the generated database into fragments and load them
//! into an I/O scheme — the part of a run `setup_s` times.

use std::io;
use std::path::Path;
use std::time::Instant;

use parblast_core::blast::{DbStats, Program, SearchParams};
use parblast_core::mpiblast::{ParallelBlast, Parallelization, Scheme, Tracer};
use parblast_core::seqdb::{segment_into_fragments, SeqType};

use crate::gen::Db;
use crate::util::since;

/// Stripe size and servers per group, as in the paper (§4).
const STRIPE: u64 = 64 << 10;
const SERVERS: usize = 4;
/// Worker count of every measured job: one per core of this box.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    Original,
    Pvfs,
    Ceft,
}

impl SchemeKind {
    pub const ALL: [SchemeKind; 3] = [SchemeKind::Original, SchemeKind::Pvfs, SchemeKind::Ceft];

    /// Metric-name suffix.
    pub fn tag(self) -> &'static str {
        match self {
            SchemeKind::Original => "local",
            SchemeKind::Pvfs => "pvfs",
            SchemeKind::Ceft => "ceft",
        }
    }

    pub fn build(self, base: &Path) -> io::Result<Scheme> {
        match self {
            SchemeKind::Original => Scheme::local_at(base, WORKERS),
            SchemeKind::Pvfs => Scheme::pvfs_at(base, SERVERS, STRIPE),
            SchemeKind::Ceft => Scheme::ceft_at(base, SERVERS, STRIPE),
        }
    }

    /// Data servers a read is spread over.
    pub fn servers(self) -> usize {
        match self {
            SchemeKind::Original => 1,
            SchemeKind::Pvfs => SERVERS,
            SchemeKind::Ceft => 2 * SERVERS,
        }
    }
}

/// Formatted fragments: `(object name, volume bytes)`.
pub type Fragments = Vec<(String, Vec<u8>)>;

/// `mpiformatdb`: segment `db` into `n` balanced volumes under `dir` and
/// read them back.
pub fn format(db: &Db, dir: &Path, n: u32) -> io::Result<Fragments> {
    let infos = segment_into_fragments(dir, "nt", SeqType::Nucleotide, n, db.seqs.iter().cloned())?;
    infos
        .iter()
        .map(|info| {
            let name = info
                .path
                .file_name()
                .expect("fragment file name")
                .to_string_lossy()
                .into_owned();
            Ok((name, std::fs::read(&info.path)?))
        })
        .collect()
}

/// Distribute `fragments` to a fresh `kind` store under `base`.
pub fn load(kind: SchemeKind, base: &Path, fragments: &Fragments) -> io::Result<Scheme> {
    let scheme = kind.build(base)?;
    for (name, bytes) in fragments {
        scheme.load_fragment(name, bytes)?;
    }
    Ok(scheme)
}

/// A database formatted and distributed.
pub struct Staged {
    pub scheme: Scheme,
    pub fragments: Fragments,
    /// Seconds `format` took of the whole set-up.
    pub format_s: f64,
}

/// `format` + `load`: what `setup_s` times.
pub fn setup(kind: SchemeKind, base: &Path, db: &Db, n: u32) -> io::Result<Staged> {
    let t0 = Instant::now();
    let fragments = format(db, &base.join("fmt"), n)?;
    let format_s = since(t0);
    let scheme = load(kind, &base.join("io"), &fragments)?;
    Ok(Staged {
        scheme,
        fragments,
        format_s,
    })
}

/// The blastn job the paper ran, over `scheme`.
pub fn job(
    scheme: Scheme,
    fragments: &Fragments,
    db: DbStats,
    workers: usize,
    prefetch: bool,
) -> ParallelBlast {
    ParallelBlast {
        program: Program::Blastn,
        params: SearchParams::blastn(),
        db,
        fragments: fragments.iter().map(|(n, _)| n.clone()).collect(),
        workers,
        scheme,
        tracer: Tracer::disabled(),
        parallelization: Parallelization::DatabaseSegmentation,
        prefetch,
        list_io: false,
    }
}

pub fn total_bytes(fragments: &Fragments) -> u64 {
    fragments.iter().map(|(_, b)| b.len() as u64).sum()
}
