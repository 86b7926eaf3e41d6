//! The seeded input generator. Everything the program is given —
//! database, planted families, query pools, arrival schedule — is a pure
//! function of `--seed`; the program itself never sees the seed.

use std::time::Duration;

use parblast_core::blast::DbStats;
use parblast_core::seqdb::{extract_query, SyntheticConfig, SyntheticNt};

use crate::util::{subseed, Rng};

/// Query length, the paper's 568-nt `ecoli.nt` query.
pub const QUERY_LEN: usize = 568;

pub type Sequence = (String, Vec<u8>);

/// A generated database, still in memory.
pub struct Db {
    pub seqs: Vec<Sequence>,
}

impl Db {
    pub fn stats(&self) -> DbStats {
        DbStats {
            residues: self.seqs.iter().map(|(_, c)| c.len() as u64).sum(),
            nseq: self.seqs.len() as u64,
        }
    }
}

/// `SyntheticNt` with uniform base composition and mild length variation.
/// Its defaults (sticky composition, lognormal lengths with a heavy tail)
/// model `nt` better, but then a handful of long or repetitive sequences
/// decide what a query costs, and they differ from seed to seed: on
/// `serve_scan` throughput moved 11–19% across seeds with the defaults and
/// 6–8% with these, against 3% between runs of one seed.
fn synthetic(residues: u64, seed: u64) -> Vec<Sequence> {
    let mut g = SyntheticNt::new(SyntheticConfig {
        total_residues: residues,
        seed,
        len_cv: 0.5,
        repeat_bias: 0.25,
        ..Default::default()
    });
    let mut seqs = Vec::new();
    while let Some(s) = g.next() {
        seqs.push(s);
    }
    seqs
}

/// `residues` of random nt-like sequence.
pub fn random_db(residues: u64, seed: u64) -> Db {
    Db {
        seqs: synthetic(residues, subseed(seed, 1)),
    }
}

/// `n` queries of the paper's shape: a window cut from a database sequence
/// with 2% point mutations, so each job finds its source.
pub fn db_queries(db: &Db, n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(subseed(seed, 2));
    let mut queries = Vec::with_capacity(n);
    while queries.len() < n {
        let (_, codes) = &db.seqs[rng.below(db.seqs.len())];
        if codes.len() >= QUERY_LEN {
            queries.push(extract_query(codes, QUERY_LEN, 0.02, rng.next_u64()));
        }
    }
    queries
}

/// `n` queries cut from a sequence stream the database never saw: nearly
/// every subject is a seed-scan miss, so the scan kernel is the cost.
pub fn scan_pool(n: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(subseed(seed, 3));
    synthetic((n * 8 * QUERY_LEN) as u64, subseed(seed, 4))
        .into_iter()
        .filter(|(_, c)| c.len() >= QUERY_LEN)
        .take(n)
        .map(|(_, c)| extract_query(&c, QUERY_LEN, 0.0, rng.next_u64()))
        .collect()
}

/// Plant `families` homolog families of `copies` members each (3–15% point
/// divergence from the family's seed sequence) into `db`, and return `n`
/// queries cut from the family seeds: every query has ~`copies` true
/// homologs, so extension, traceback and report rendering are the cost.
pub fn plant_families(
    db: &mut Db,
    families: usize,
    copies: usize,
    n: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    const FAMILY_LEN: usize = 1500;
    let mut rng = Rng::new(subseed(seed, 5));
    let seeds: Vec<Vec<u8>> = synthetic((families * 16 * FAMILY_LEN) as u64, subseed(seed, 6))
        .into_iter()
        .filter(|(_, c)| c.len() >= FAMILY_LEN)
        .take(families)
        .map(|(_, mut c)| {
            c.truncate(FAMILY_LEN);
            c
        })
        .collect();
    assert_eq!(seeds.len(), families, "family seed stream too short");
    for (f, fam) in seeds.iter().enumerate() {
        for c in 0..copies {
            let divergence = 0.03 + 0.12 * rng.unit();
            let member = extract_query(fam, fam.len(), divergence, rng.next_u64());
            let gi = 20_000_000 + f * copies + c;
            db.seqs.push((
                format!("gi|{gi}|fam|FAM{f:03}.{c} planted family member"),
                member,
            ));
        }
    }
    (0..n)
        .map(|i| extract_query(&seeds[i % families], QUERY_LEN, 0.02, rng.next_u64()))
        .collect()
}

/// Arrival offsets of an open loop of `rate` per second over `window`: one
/// arrival placed uniformly at random in each slot of `1/rate` seconds.
/// Every seed offers the same number of requests at the same mean rate,
/// gaps range from nothing to two slots, and the sender never waits for an
/// answer. (A Poisson schedule was tried first: with ~100 arrivals in a
/// window its bursts, not the daemon, decided the median latency, which
/// moved by 15–25% from seed to seed.)
pub fn arrival_schedule(rate: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(subseed(seed, 7));
    let n = (rate * window.as_secs_f64()).round() as usize;
    (0..n)
        .map(|slot| Duration::from_secs_f64((slot as f64 + rng.unit()) / rate))
        .collect()
}
