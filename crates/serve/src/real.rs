//! Scan-sharing over the real thread-pool runner.
//!
//! The real-path counterpart of [`crate::sim`]: batches drain through
//! one [`WorkerPool`] per call ([`WorkerPool::run_batch`], what
//! [`ParallelBlast::run_batch`] runs), so every fragment is pulled through the
//! configured I/O scheme (local copy / striped PVFS / mirrored CEFT-PVFS
//! via `pio`) exactly once per batch and searched with every query in the
//! batch. Results per query are rendered to the same tabular report the
//! single-query path produces — byte-identical to running each query
//! alone, which `tests/determinism.rs` enforces. Each search thread
//! keeps one reusable `ScanWorkspace` for the whole call, so every query
//! in every batch recycles the same diagonal trackers, subject-unpack
//! buffer, and gapped-DP rows — the packed-scan hot path allocates
//! nothing per subject no matter how many queries a batch carries.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use parblast_blast::tabular;
use parblast_mpiblast::{ParallelBlast, ScrubTotals, WorkerPool};

/// Outcome of serving a query list through scan-sharing batches.
#[derive(Debug)]
pub struct RealServeOutcome {
    /// Rendered tabular report per query, in input order.
    pub per_query: Vec<String>,
    /// Scan-sharing passes executed.
    pub batches: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Seed-scan kernel passes executed across all batches and fragments
    /// (the fused kernel folds up to 8 queries into one pass).
    pub kernel_passes: u64,
    /// Kernel passes the fused kernel avoided versus per-query scanning.
    pub passes_saved: u64,
    /// What the background integrity scrub did, when one was requested
    /// (see [`serve_batched_scrubbed`]).
    pub scrub: Option<ScrubTotals>,
}

/// Serve `queries` in admission order with scan-sharing batches of up to
/// `max_batch`: each batch is searched against the fragment set in one
/// pass. `max_batch == 1` degenerates to sequential per-query serving.
pub fn serve_batched(
    job: &ParallelBlast,
    queries: &[Vec<u8>],
    max_batch: usize,
) -> io::Result<RealServeOutcome> {
    serve_batched_scrubbed(job, queries, max_batch, None)
}

/// [`serve_batched`] with an optional background integrity scrub riding
/// along: `scrub_rate` starts a scrubber over the job's fragment set at
/// the given bytes/second cap (0 = unpaced) for the duration of the run,
/// so silent corruption is found and — on the mirrored scheme — repaired
/// while the server stays up. The outcome carries the scrub totals.
pub fn serve_batched_scrubbed(
    job: &ParallelBlast,
    queries: &[Vec<u8>],
    max_batch: usize,
    scrub_rate: Option<u64>,
) -> io::Result<RealServeOutcome> {
    let t0 = Instant::now();
    let scrubber = scrub_rate.map(|rate| job.scheme.start_scrub(&job.fragments, rate));
    let mut per_query = Vec::with_capacity(queries.len());
    let mut batches = 0u64;
    let mut kernel_passes = 0u64;
    let mut passes_saved = 0u64;
    let pool = WorkerPool::start(Arc::new(job.clone()));
    for chunk in queries.chunks(max_batch.max(1)) {
        let out = pool.run_batch(chunk)?;
        batches += 1;
        kernel_passes += out.kernel_passes;
        passes_saved += out.passes_saved;
        for hits in &out.per_query {
            per_query.push(tabular("query", hits));
        }
    }
    Ok(RealServeOutcome {
        per_query,
        batches,
        wall_s: t0.elapsed().as_secs_f64(),
        kernel_passes,
        passes_saved,
        scrub: scrubber.map(|s| s.stop()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_blast::{DbStats, Program, SearchParams};
    use parblast_mpiblast::{IoKind, Parallelization, Scheme, Tracer};
    use parblast_seqdb::blastdb::SeqType;
    use parblast_seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};
    use std::path::{Path, PathBuf};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("serve_real_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn setup(base: &Path, scheme: &Scheme) -> (Vec<String>, Vec<Vec<u8>>, DbStats) {
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 300_000,
            seed: 11,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let queries: Vec<Vec<u8>> = (0..5)
            .map(|i| extract_query(&seqs[i + 1].1, 400, 0.02, i as u64))
            .collect();
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos =
            segment_into_fragments(&base.join("fmt"), "nt", SeqType::Nucleotide, 4, seqs).unwrap();
        let mut names = vec![];
        for info in infos {
            let bytes = std::fs::read(&info.path).unwrap();
            let name = info
                .path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned();
            scheme.load_fragment(&name, &bytes).unwrap();
            names.push(name);
        }
        (names, queries, db)
    }

    #[test]
    fn batched_serving_reads_less_and_matches_sequential() {
        let base = tmp("match");
        let scheme = Scheme::local_at(&base.join("io"), 2).unwrap();
        let (fragments, queries, db) = setup(&base, &scheme);
        let tracer = Tracer::new();
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 2,
            scheme,
            tracer: tracer.clone(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        let read_bytes = |t: &Tracer| -> u64 {
            t.events()
                .iter()
                .filter(|e| e.kind == IoKind::Read)
                .map(|e| e.bytes)
                .sum()
        };
        let batched = serve_batched(&job, &queries, 5).unwrap();
        let after_batched = read_bytes(&tracer);
        let sequential = serve_batched(&job, &queries, 1).unwrap();
        let after_sequential = read_bytes(&tracer) - after_batched;
        // Identical per-query reports, ~5× fewer database bytes.
        assert_eq!(batched.per_query, sequential.per_query);
        assert_eq!(batched.batches, 1);
        assert_eq!(sequential.batches, 5);
        // Fused kernel: 4 fragments x 1 merged pass vs 4 x 5 per-query.
        assert_eq!(batched.kernel_passes, 4);
        assert_eq!(batched.passes_saved, 16);
        assert_eq!(sequential.kernel_passes, 20);
        assert_eq!(sequential.passes_saved, 0);
        assert!(
            after_batched * 4 <= after_sequential,
            "batched {after_batched} vs sequential {after_sequential}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn scrubbed_serving_matches_and_reports_totals() {
        // A background scrub over a clean mirrored store must not change
        // a single output byte, and its totals ride back in the outcome.
        let base = tmp("scrub");
        let scheme = Scheme::ceft_at(&base.join("io"), 2, 64 << 10).unwrap();
        let (fragments, queries, db) = setup(&base, &scheme);
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 2,
            scheme,
            tracer: Tracer::new(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        let plain = serve_batched(&job, &queries, 5).unwrap();
        let scrubbed = serve_batched_scrubbed(&job, &queries, 5, Some(8 << 20)).unwrap();
        assert_eq!(plain.per_query, scrubbed.per_query);
        assert!(plain.scrub.is_none());
        let totals = scrubbed.scrub.expect("scrub totals must be reported");
        assert_eq!(totals.corrupt_found, 0, "clean store: {totals:?}");
        std::fs::remove_dir_all(&base).ok();
    }
}
