//! The real parallel BLAST runner: a master/worker job over OS threads.
//!
//! Mirrors mpiBLAST's database-segmentation algorithm (§2.2): workers
//! claim unsearched fragments from the master, `sched::Master` behind a
//! mutex, the same state machine the simulator drives; each
//! worker pulls its fragment's bytes through the configured I/O scheme,
//! runs the search engine, records small result writes, and keeps its
//! hits; once every fragment is searched the hits are merged by alignment
//! score.
//!
//! Each worker is a *pair* of threads of a [`WorkerPool`]: a fetch thread
//! that claims and pulls fragment bytes through the I/O scheme and a
//! search thread that runs the engine. With [`ParallelBlast::prefetch`]
//! on, a worker holds two slots, so fragment k+1 is fetched while fragment
//! k is searched and the I/O time hides behind compute; with it off it
//! holds one and the pair degenerates to the sequential fetch-then-search
//! loop. Results and traced reads are identical either way — only the
//! overlap changes.
//!
//! A fetch reads a fragment's header, index and packed data, not its
//! deflines: like BLAST over a memory-mapped volume, a job touches a
//! subject's defline only when it reports the subject. After the search
//! the fetch thread reads the deflines of the subjects that produced hits,
//! in one list request through the reader that fetched the fragment, and
//! names the hits from them.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use parblast_blast::{DbStats, Found, Hit, Program, SearchParams};
use parblast_seqdb::{DeflineRead, PackedVolume};

use crate::pool::{IoClocks, WorkerPool};
use crate::scheme::{Scheme, TracedSource};
use crate::trace::Tracer;

/// The two parallelization approaches of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelization {
    /// mpiBLAST's approach: the database is segmented; every worker
    /// searches one fragment with the whole query. Reads the database
    /// once in total.
    DatabaseSegmentation,
    /// The older approach (WU-BLAST style): the query is split into
    /// pieces and every worker searches the *entire* database with its
    /// piece — "with the explosion of the database size, the first
    /// approach becomes less attractive due to large I/O overhead" (§2.2).
    /// `overlap` bases are repeated across piece boundaries so alignments
    /// spanning a boundary are not lost (must exceed the expected
    /// alignment length).
    QuerySegmentation {
        /// Number of query pieces (== parallel tasks).
        pieces: usize,
        /// Overlap between adjacent pieces, in residues.
        overlap: usize,
    },
}

/// A configured parallel BLAST job.
#[derive(Clone)]
pub struct ParallelBlast {
    /// Which program to run: always blastn, the one the paper uses. The
    /// field stays because `benchmark/` is frozen and builds this struct
    /// by literal.
    pub program: Program,
    /// Engine parameters.
    pub params: SearchParams,
    /// Whole-database statistics (mpiBLAST semantics: E-values computed
    /// against the full database even per fragment).
    pub db: DbStats,
    /// Fragment object names, assignment order.
    pub fragments: Vec<String>,
    /// Worker count.
    pub workers: usize,
    /// I/O scheme.
    pub scheme: Scheme,
    /// Trace collector (use [`Tracer::disabled`] for timing runs, as the
    /// paper did).
    pub tracer: Tracer,
    /// Parallelization approach (§2.2).
    pub parallelization: Parallelization,
    /// Double-buffer fragment I/O: while a worker searches fragment k its
    /// fetch thread pulls fragment k+1 in the background. Off = the
    /// sequential fetch-then-search loop the paper measured. (`benchmark/`
    /// is frozen and builds this struct by literal, so the field stays.)
    pub prefetch: bool,
    /// List I/O: after the volume header, fetch the index and the packed
    /// data in ONE vectored request per storage server (`read_many_at`)
    /// instead of one request per region. The deflines of the reported
    /// subjects are one list request either way. Bytes read, traced
    /// events, and results are identical either way — only the request
    /// count changes. (Stays for the same reason as `prefetch`.)
    pub list_io: bool,
}

/// Result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Merged hits, best first.
    pub hits: Vec<Hit>,
    /// Wall-clock seconds (copy time *included*; see `copy_s`).
    pub wall_s: f64,
    /// Total fragment-staging seconds across workers: the original
    /// scheme's freshness check of each private copy plus any copy it
    /// made, which is only a (worker, fragment)'s first job or one after
    /// the source changed (the paper subtracts the average copy time
    /// from the original scheme's total). Zero for the other schemes.
    pub copy_s: f64,
    /// Seconds spent fetching fragment bytes, summed across fetch threads
    /// (copy + read + volume decode).
    pub io_fetch_s: f64,
    /// Seconds search threads sat idle waiting for fragment data;
    /// `1 - io_stall_s / io_fetch_s` is the fraction of I/O hidden
    /// behind compute.
    pub io_stall_s: f64,
    /// Per-fragment `(worker, search seconds)` pairs.
    pub per_fragment: Vec<(usize, f64)>,
}

/// Per-query result of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Merged hits per query, in input order.
    pub per_query: Vec<Vec<Hit>>,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Seconds spent fetching fragment bytes across fetch threads.
    pub io_fetch_s: f64,
    /// Seconds search threads waited for fragment data.
    pub io_stall_s: f64,
    /// Seed-scan kernel passes executed (one fused pass serves up to
    /// [`MAX_FUSED_BATCH`](parblast_blast::MAX_FUSED_BATCH) queries per
    /// fragment).
    pub kernel_passes: u64,
    /// Kernel passes the fused kernel avoided versus one scan per query
    /// (`queries × fragments − kernel_passes`).
    pub passes_saved: u64,
    /// Database bytes the batch's fetches and defline reads delivered,
    /// failed attempts included: the bytes of the read events a tracer
    /// records for the batch.
    pub bytes_read: u64,
}

/// Add one fragment's `hit` to the merged list. Under query segmentation
/// the same subject can be found by several pieces: their HSP lists are
/// merged per subject, an HSP a piece overlap found twice counting once
/// with the smaller of its two E-values (each piece has its own search
/// space), and sorted by score, then coordinates, so the merged list does
/// not depend on which piece was searched first.
pub(crate) fn merge_hit(hits: &mut Vec<Hit>, hit: Hit) {
    let Some(existing) = hits.iter_mut().find(|h| h.subject_id == hit.subject_id) else {
        hits.push(hit);
        return;
    };
    for hsp in hit.hsps {
        let dup = existing
            .hsps
            .iter_mut()
            .find(|e| e.s_start == hsp.s_start && e.s_end == hsp.s_end && e.q_start == hsp.q_start);
        match dup {
            Some(e) if hsp.evalue < e.evalue => *e = hsp,
            Some(_) => {}
            None => existing.hsps.push(hsp),
        }
    }
    existing.hsps.sort_by_key(|h| {
        let key = (h.q_start, h.q_end, h.s_start, h.s_end, h.q_frame);
        (std::cmp::Reverse(h.score), key)
    });
}

/// Final merge: rank across fragments by E-value then score, like
/// mpiBLAST's score-ordered merge, and keep the best `max_hits`. The
/// subject id breaks ties so the order does not depend on which fragment
/// arrived first.
pub(crate) fn rank_merged(hits: &mut Vec<Hit>, max_hits: usize) {
    hits.sort_by(|a, b| {
        a.best_evalue()
            .partial_cmp(&b.best_evalue())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.best_score().cmp(&a.best_score()))
            .then_with(|| a.subject_id.cmp(&b.subject_id))
    });
    hits.truncate(max_hits);
}

impl ParallelBlast {
    /// Run a batch of queries over the fragment set: each worker task
    /// searches one fragment with *all* queries (one pass over the data,
    /// the way production blastall streams query batches), so the database
    /// is still read only once in total. The batch's merged seed table
    /// scans each fragment's packed bytes once per
    /// [`MAX_FUSED_BATCH`](parblast_blast::MAX_FUSED_BATCH)-query chunk
    /// ([`fused_passes`](parblast_blast::fused_passes)) instead of once per
    /// query. Starts a [`WorkerPool`] for the call and shuts it down after.
    pub fn run_batch(&self, queries: &[Vec<u8>]) -> io::Result<BatchOutcome> {
        WorkerPool::start(Arc::new(self.clone())).run_batch(queries)
    }

    /// Split the query into `pieces` overlapping windows (§2.2's query
    /// segmentation). Returns `(offset, len)` windows covering the query.
    fn query_windows(query_len: usize, pieces: usize, overlap: usize) -> Vec<(usize, usize)> {
        let pieces = pieces.clamp(1, query_len.max(1));
        let stride = query_len.div_ceil(pieces);
        (0..pieces)
            .map(|i| {
                let start = (i * stride).saturating_sub(if i > 0 { overlap } else { 0 });
                let end = ((i + 1) * stride).min(query_len);
                (start, end - start)
            })
            .filter(|&(_, len)| len > 0)
            .collect()
    }

    /// The windows [`Self::run`] searches a query of `query_len` residues
    /// as: database segmentation searches every fragment with the whole
    /// query; query segmentation searches every fragment once *per piece*
    /// — the whole database is read `pieces` times, the §2.2 I/O overhead.
    pub(crate) fn query_windows_of(&self, query_len: usize) -> Vec<(usize, usize)> {
        match self.parallelization {
            Parallelization::DatabaseSegmentation => vec![(0, query_len)],
            Parallelization::QuerySegmentation { pieces, overlap } => {
                Self::query_windows(query_len, pieces, overlap)
            }
        }
    }

    /// Run the job for one query: a batch of one per query window (both
    /// strands in one pass over each fragment), plus what the paper's job
    /// has and a served batch does not — query segmentation and the traced
    /// result writes. Starts a [`WorkerPool`] for the call and shuts it
    /// down after.
    pub fn run(&self, query: &[u8]) -> io::Result<RunOutcome> {
        WorkerPool::start(Arc::new(self.clone())).run(query)
    }

    /// Fetch one fragment's sequences through the scheme: the fetch
    /// thread's first job for a task. The read sequence through
    /// [`TracedSource`] is exactly the sequential path's, whichever thread
    /// issues it. A failed fetch is reported to the scheme before the task
    /// is, so a corrupt private copy is gone by the time the master hands
    /// out the retry.
    pub(crate) fn fetch_volume(
        &self,
        worker: usize,
        fragment: &str,
        clocks: &IoClocks,
    ) -> io::Result<Fetched> {
        let t0 = Instant::now();
        let fetched = self
            .scheme
            .open_for_worker(worker, fragment)
            .and_then(|(reader, copy)| {
                let mut src = TracedSource::new(reader, self.tracer.clone(), worker as u32);
                let volume = if self.list_io {
                    PackedVolume::read_sequences_listio(&mut src)
                } else {
                    PackedVolume::read_sequences(&mut src)
                };
                IoClocks::add_bytes(&clocks.bytes, src.take_bytes());
                volume.map(|volume| (Fetched { volume, src }, copy))
            });
        let (fetched, copy) =
            fetched.inspect_err(|e| self.scheme.fetch_failed(worker, fragment, e))?;
        IoClocks::add(&clocks.copy_ns, copy);
        IoClocks::add(&clocks.fetch_ns, t0.elapsed());
        Ok(fetched)
    }

    /// Read the deflines `read` names through `src`, the reader that
    /// fetched `fragment`, and name `found`'s hits from them: the fetch
    /// thread's second job for a task that produced hits. A failed read
    /// fails the task as a failed fetch does.
    pub(crate) fn name_hits(
        &self,
        worker: usize,
        fragment: &str,
        mut src: TracedSource,
        found: Found,
        read: &DeflineRead,
        clocks: &IoClocks,
    ) -> io::Result<Vec<Vec<Hit>>> {
        let t0 = Instant::now();
        let deflines = read.read(&mut src);
        IoClocks::add_bytes(&clocks.bytes, src.take_bytes());
        let deflines = deflines.inspect_err(|e| self.scheme.fetch_failed(worker, fragment, e))?;
        IoClocks::add(&clocks.fetch_ns, t0.elapsed());
        Ok(found.name(&deflines))
    }
}

/// A fetched fragment as the fetch thread hands it to the search thread:
/// its sequences, and the reader that read them, kept open for the
/// deflines of the subjects the search reports.
pub(crate) struct Fetched {
    pub(crate) volume: PackedVolume,
    pub(crate) src: TracedSource,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::IoKind;
    use parblast_seqdb::blastdb::SeqType;
    use parblast_seqdb::{extract_query, segment_into_fragments, SyntheticConfig, SyntheticNt};
    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("runner_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Build a small synthetic database split into `frags` fragments,
    /// loaded into `scheme`; returns (fragment names, query, db stats).
    fn setup(base: &Path, scheme: &Scheme, frags: u32) -> (Vec<String>, Vec<u8>, DbStats) {
        let (formatted, query, db) = format_db(&base.join("fmt"), 77, frags);
        let mut names = vec![];
        for (name, bytes) in formatted {
            scheme.load_fragment(&name, &bytes).unwrap();
            names.push(name);
        }
        (names, query, db)
    }

    /// Formatted fragments: `(object name, volume bytes)`.
    type Formatted = Vec<(String, Vec<u8>)>;

    /// The synthetic database of `seed`, formatted into `frags` fragments
    /// under `dir`: (fragments, query, db stats).
    fn format_db(dir: &Path, seed: u64, frags: u32) -> (Formatted, Vec<u8>, DbStats) {
        let mut g = SyntheticNt::new(SyntheticConfig {
            total_residues: 400_000,
            seed,
            ..Default::default()
        });
        let mut seqs = vec![];
        while let Some(x) = g.next() {
            seqs.push(x);
        }
        let query = extract_query(&seqs[3].1, 568, 0.02, 5);
        let db = DbStats {
            residues: g.residues(),
            nseq: g.sequences(),
        };
        let infos = segment_into_fragments(dir, "nt", SeqType::Nucleotide, frags, seqs).unwrap();
        let formatted = infos
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
        (formatted, query, db)
    }

    fn run_with(scheme: Scheme, base: &Path, workers: usize) -> RunOutcome {
        let (fragments, query, db) = setup(base, &scheme, 4);
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers,
            scheme,
            tracer: Tracer::new(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: false,
            list_io: false,
        };
        job.run(&query).unwrap()
    }

    #[test]
    fn local_scheme_finds_planted_query() {
        let base = tmp("local");
        let scheme = Scheme::local_at(&base.join("io"), 2).unwrap();
        let out = run_with(scheme, &base, 2);
        assert!(!out.hits.is_empty(), "query must be found");
        assert!(out.hits[0].best_evalue() < 1e-50);
        assert!(out.copy_s > 0.0, "original scheme copies fragments");
        assert_eq!(out.per_fragment.len(), 4);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn all_schemes_agree_on_results() {
        let base = tmp("agree");
        let l = Scheme::local_at(&base.join("l"), 2).unwrap();
        let p = Scheme::pvfs_at(&base.join("p"), 4, 64 << 10).unwrap();
        let c = Scheme::ceft_at(&base.join("c"), 2, 64 << 10).unwrap();
        let ol = run_with(l, &base, 2);
        let op = run_with(p, &base, 2);
        let oc = run_with(c, &base, 2);
        let key = |o: &RunOutcome| -> Vec<(String, i32)> {
            o.hits
                .iter()
                .map(|h| (h.subject_id.clone(), h.best_score()))
                .collect()
        };
        assert_eq!(key(&ol), key(&op), "PVFS results differ from original");
        assert_eq!(key(&ol), key(&oc), "CEFT results differ from original");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn two_fragments_two_workers_prefetch_search_one_each() {
        // With as many fragments as workers, the first worker's second
        // slot must not take the fragment its idle peer would start on.
        let base = tmp("one_each");
        let scheme = Scheme::local_at(&base.join("io"), 2).unwrap();
        let (fragments, query, db) = setup(&base, &scheme, 2);
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 2,
            scheme,
            tracer: Tracer::disabled(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        for _ in 0..5 {
            let mut workers: Vec<usize> = job
                .run(&query)
                .unwrap()
                .per_fragment
                .iter()
                .map(|&(w, _)| w)
                .collect();
            workers.sort_unstable();
            assert_eq!(workers, [0, 1], "each worker searches one fragment");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn results_independent_of_worker_count() {
        let base = tmp("workers");
        let key = |o: &RunOutcome| -> Vec<String> {
            o.hits.iter().map(|h| h.subject_id.clone()).collect()
        };
        let s1 = Scheme::local_at(&base.join("w1"), 1).unwrap();
        let s4 = Scheme::local_at(&base.join("w4"), 4).unwrap();
        let o1 = run_with(s1, &base, 1);
        let o4 = run_with(s4, &base, 4);
        assert_eq!(key(&o1), key(&o4));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn run_is_run_batch_of_one_for_every_scheme_and_query_segmentation_too() {
        let base = tmp("run_eq");
        let schemes = [
            Scheme::local_at(&base.join("l"), 2).unwrap(),
            Scheme::pvfs_at(&base.join("p"), 4, 64 << 10).unwrap(),
            Scheme::ceft_at(&base.join("c"), 2, 64 << 10).unwrap(),
        ];
        for (si, scheme) in schemes.into_iter().enumerate() {
            let (fragments, query, db) = setup(&base, &scheme, 4);
            for prefetch in [false, true] {
                let mk = |workers, parallelization| ParallelBlast {
                    program: Program::Blastn,
                    params: SearchParams::blastn(),
                    db,
                    fragments: fragments.clone(),
                    workers,
                    scheme: scheme.clone(),
                    tracer: Tracer::disabled(),
                    parallelization,
                    prefetch,
                    list_io: false,
                };
                let whole = mk(2, Parallelization::DatabaseSegmentation);
                let single = whole.run(&query).unwrap();
                assert!(!single.hits.is_empty(), "vacuous comparison");
                let mut batch = whole.run_batch(std::slice::from_ref(&query)).unwrap();
                assert_eq!(
                    format!("{:?}", single.hits),
                    format!("{:?}", batch.per_query.remove(0)),
                    "scheme {si} prefetch {prefetch}"
                );

                // Query segmentation: every window is its own batch of one.
                let (pieces, overlap) = (3, 120);
                let segmented = mk(2, Parallelization::QuerySegmentation { pieces, overlap })
                    .run(&query)
                    .unwrap();
                let windows = ParallelBlast::query_windows(query.len(), pieces, overlap);
                let per_piece: Vec<Vec<u8>> = windows
                    .iter()
                    .map(|&(offset, len)| query[offset..offset + len].to_vec())
                    .collect();
                let mut want = Vec::new();
                let found = whole.run_batch(&per_piece).unwrap().per_query;
                for (&(offset, _), hits) in windows.iter().zip(found) {
                    for mut hit in hits {
                        for h in &mut hit.hsps {
                            h.q_start += offset;
                            h.q_end += offset;
                        }
                        merge_hit(&mut want, hit);
                    }
                }
                rank_merged(&mut want, whole.params.max_hits);
                assert!(
                    want.iter().any(|h| h.hsps.len() > 1),
                    "no subject was found by two pieces"
                );
                assert_eq!(
                    format!("{:?}", segmented.hits),
                    format!("{want:?}"),
                    "query segmentation, scheme {si} prefetch {prefetch}"
                );
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_batch_of_ten_matches_ten_jobs_of_one_and_counts_passes() {
        let base = tmp("fused");
        let scheme = Scheme::local_at(&base.join("io"), 3).unwrap();
        let (fragments, q1, db) = setup(&base, &scheme, 4);
        let nfrag = fragments.len() as u64;
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 3,
            scheme,
            tracer: Tracer::disabled(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        // 10 queries exercises the MAX_FUSED_BATCH=8 chunking inside the
        // kernel (2 passes per fragment instead of 10).
        let queries: Vec<Vec<u8>> = (0..10)
            .map(|i| q1.iter().map(|&c| (c + i) & 3).collect())
            .collect();
        let batch = job.run_batch(&queries).unwrap();
        let singly: Vec<Vec<Hit>> = queries.iter().map(|q| job.run(q).unwrap().hits).collect();
        assert_eq!(
            format!("{:?}", batch.per_query),
            format!("{singly:?}"),
            "a query's hits must not depend on its batch"
        );
        assert!(!batch.per_query[0].is_empty(), "vacuous comparison");
        assert_eq!(batch.kernel_passes, 2 * nfrag);
        assert_eq!(batch.passes_saved, 8 * nfrag);
        let one = job.run_batch(&queries[..1]).unwrap();
        assert_eq!((one.kernel_passes, one.passes_saved), (nfrag, 0));
        std::fs::remove_dir_all(&base).ok();
    }

    /// Bytes a tracer recorded as read.
    fn read_bytes(tracer: &Tracer) -> u64 {
        tracer
            .events()
            .iter()
            .filter(|e| e.kind == IoKind::Read)
            .map(|e| e.bytes)
            .sum()
    }

    /// What a batch of `queries` over `formatted` must find and read: the
    /// merged hits of a search over whole volumes ([`PackedVolume::read_from`]),
    /// and per fragment its header, packed data and index plus the
    /// deflines of the distinct subjects with hits there.
    fn expected_batch(
        formatted: &Formatted,
        queries: &[Vec<u8>],
        db: DbStats,
    ) -> (Vec<Vec<Hit>>, u64) {
        let params = SearchParams::blastn();
        let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
        let prepared = parblast_blast::PreparedBatch::new(&refs, &params, db);
        let mut ws = parblast_blast::ScanWorkspace::new();
        let mut merged: Vec<Vec<Hit>> = vec![Vec::new(); queries.len()];
        let mut bytes = 0;
        for (_, raw) in formatted {
            let volume = PackedVolume::read_from(&mut raw.as_slice()).unwrap();
            let header = parblast_seqdb::Volume::read_header(&mut raw.as_slice()).unwrap();
            let found = prepared.search(&volume, &mut ws);
            // Counted here from the hits, not by `defline_read`.
            let subjects: BTreeSet<usize> =
                found.iter().flatten().map(|h| h.subject_index).collect();
            let deflines: usize = subjects.iter().map(|&i| volume.defline(i).len()).sum();
            bytes += header.defline_offset + deflines as u64;
            for (all, hits) in merged.iter_mut().zip(found) {
                all.extend(hits);
            }
        }
        for hits in &mut merged {
            rank_merged(hits, params.max_hits);
        }
        (merged, bytes)
    }

    #[test]
    fn a_batch_reads_its_fragments_sequences_and_only_its_hit_subjects_deflines() {
        let base = tmp("exact_bytes");
        let (formatted, _, db) = format_db(&base.join("fmt"), 77, 4);
        // One query lifted from a subject of each fragment, and one that
        // hits nothing in particular.
        let mut queries: Vec<Vec<u8>> = formatted
            .iter()
            .enumerate()
            .map(|(i, (_, raw))| {
                let volume = PackedVolume::read_from(&mut raw.as_slice()).unwrap();
                let mut subject = Vec::new();
                volume.unpack_into(3 + i, &mut subject);
                extract_query(&subject, 400, 0.03, 90 + i as u64)
            })
            .collect();
        queries.push((0..500).map(|k| ((k * 7 + k / 3) % 4) as u8).collect());
        let (want_hits, want_bytes) = expected_batch(&formatted, &queries, db);
        assert!(
            want_hits.iter().filter(|h| !h.is_empty()).count() >= 4,
            "vacuous comparison"
        );
        let whole: u64 = formatted.iter().map(|(_, raw)| raw.len() as u64).sum();
        assert!(want_bytes < whole, "every defline would be read");
        for (si, list_io) in (0..3).flat_map(|si| [(si, false), (si, true)]) {
            let root = base.join(format!("s{si}_{list_io}"));
            let scheme = match si {
                0 => Scheme::local_at(&root, 2).unwrap(),
                1 => Scheme::pvfs_at(&root, 4, 16 << 10).unwrap(),
                _ => Scheme::ceft_at(&root, 2, 16 << 10).unwrap(),
            };
            let mut fragments = vec![];
            for (name, raw) in &formatted {
                scheme.load_fragment(name, raw).unwrap();
                fragments.push(name.clone());
            }
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
                list_io,
            };
            let out = job.run_batch(&queries).unwrap();
            let what = format!("{} list_io {list_io}", job.scheme.name());
            assert_eq!(
                format!("{:?}", out.per_query),
                format!("{want_hits:?}"),
                "{what}"
            );
            assert_eq!(read_bytes(&tracer), want_bytes, "{what}: traced bytes");
            assert_eq!(out.bytes_read, want_bytes, "{what}: counted bytes");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn batch_reads_database_once() {
        let base = tmp("batch_io");
        let scheme = Scheme::local_at(&base.join("io"), 2).unwrap();
        let (formatted, q1, db) = format_db(&base.join("fmt"), 77, 4);
        let mut fragments = vec![];
        for (name, raw) in &formatted {
            scheme.load_fragment(name, raw).unwrap();
            fragments.push(name.clone());
        }
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
        let queries: Vec<Vec<u8>> = (0..5).map(|_| q1.clone()).collect();
        job.run_batch(&queries).unwrap();
        // Read bytes are one pass over the sequences plus the deflines of
        // the subjects the query hits, independent of the query count.
        let read = read_bytes(&tracer);
        assert_eq!(read, expected_batch(&formatted, &queries[..1], db).1);
        // Re-run with 1 query: read bytes must be identical.
        let tracer2 = Tracer::new();
        let job2 = ParallelBlast {
            tracer: tracer2.clone(),
            ..job
        };
        job2.run_batch(&queries[..1]).unwrap();
        assert_eq!(
            read,
            read_bytes(&tracer2),
            "batching must not re-read the database"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn query_windows_cover_query_with_overlap() {
        let w = ParallelBlast::query_windows(1000, 4, 50);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], (0, 250));
        // Later windows start `overlap` early.
        assert_eq!(w[1], (200, 300));
        assert_eq!(w.last().unwrap().0 + w.last().unwrap().1, 1000);
        // Degenerate cases.
        assert_eq!(ParallelBlast::query_windows(10, 1, 5), vec![(0, 10)]);
        let tiny = ParallelBlast::query_windows(3, 10, 2);
        let covered: usize = tiny.iter().map(|&(_, l)| l).sum();
        assert!(covered >= 3);
    }

    #[test]
    fn query_segmentation_finds_the_same_best_hit() {
        let base = tmp("qseg");
        let scheme = Scheme::local_at(&base.join("io"), 4).unwrap();
        let (fragments, query, db) = setup(&base, &scheme, 4);
        let mk = |parallelization| ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments: fragments.clone(),
            workers: 4,
            scheme: scheme.clone(),
            tracer: Tracer::disabled(),
            parallelization,
            prefetch: false,
            list_io: false,
        };
        let db_seg = mk(Parallelization::DatabaseSegmentation)
            .run(&query)
            .unwrap();
        let q_seg = mk(Parallelization::QuerySegmentation {
            pieces: 4,
            overlap: 120,
        })
        .run(&query)
        .unwrap();
        // The planted subject is the top hit either way.
        assert_eq!(
            db_seg.hits[0].subject_id, q_seg.hits[0].subject_id,
            "top hit differs"
        );
        // Query segmentation can only fragment alignments, not invent
        // better ones.
        assert!(q_seg.hits[0].best_score() <= db_seg.hits[0].best_score());
        // But most of the alignment is still recovered by some piece.
        assert!(
            q_seg.hits[0].best_score() * 4 >= db_seg.hits[0].best_score(),
            "{} vs {}",
            q_seg.hits[0].best_score(),
            db_seg.hits[0].best_score()
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn query_segmentation_multiplies_io_as_the_paper_says() {
        // §2.2: "With the explosion of the database size, the first
        // approach becomes less attractive due to large I/O overhead."
        let base = tmp("qseg_io");
        let scheme = Scheme::local_at(&base.join("io"), 4).unwrap();
        let (fragments, query, db) = setup(&base, &scheme, 4);
        let run_with_tracer = |parallelization| {
            let tracer = Tracer::new();
            ParallelBlast {
                program: Program::Blastn,
                params: SearchParams::blastn(),
                db,
                fragments: fragments.clone(),
                workers: 4,
                scheme: scheme.clone(),
                tracer: tracer.clone(),
                parallelization,
                prefetch: false,
                list_io: false,
            }
            .run(&query)
            .unwrap();
            tracer
                .events()
                .iter()
                .filter(|e| e.kind == crate::trace::IoKind::Read)
                .map(|e| e.bytes)
                .sum::<u64>()
        };
        let db_seg_bytes = run_with_tracer(Parallelization::DatabaseSegmentation);
        let q_seg_bytes = run_with_tracer(Parallelization::QuerySegmentation {
            pieces: 4,
            overlap: 120,
        });
        let ratio = q_seg_bytes as f64 / db_seg_bytes as f64;
        assert!(
            (ratio - 4.0).abs() < 0.2,
            "4 pieces must read the database ~4x: ratio = {ratio}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn trace_shape_matches_figure_4() {
        // Read-dominated with small writes: mirrors §4.2's observation.
        let base = tmp("fig4");
        let scheme = Scheme::local_at(&base.join("io"), 4).unwrap();
        let (fragments, query, db) = setup(&base, &scheme, 8);
        let tracer = Tracer::new();
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 4,
            scheme,
            tracer: tracer.clone(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        job.run(&query).unwrap();
        let s = tracer.summary();
        assert!(s.read_fraction > 0.7, "reads dominate: {s:?}");
        assert!(s.read_max > 10_000, "bulk data reads present");
        assert!(s.write_max <= 778, "writes are small: {s:?}");
        assert!(s.writes >= 8, "one small write per fragment");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn prefetch_preserves_results_and_trace() {
        // The double buffer may only change *when* I/O happens, never what
        // is read or what is found.
        let base = tmp("prefetch");
        let mut outs = Vec::new();
        for (i, prefetch) in [(0, false), (1, true)] {
            let scheme = Scheme::pvfs_at(&base.join(format!("p{i}")), 4, 64 << 10).unwrap();
            let (fragments, query, db) = setup(&base, &scheme, 6);
            let tracer = Tracer::new();
            let job = ParallelBlast {
                program: Program::Blastn,
                params: SearchParams::blastn(),
                db,
                fragments,
                workers: 3,
                scheme,
                tracer: tracer.clone(),
                parallelization: Parallelization::DatabaseSegmentation,
                prefetch,
                list_io: false,
            };
            let out = job.run(&query).unwrap();
            // Per-worker trace interleaving varies with thread timing;
            // the sorted event multiset must not.
            let mut events: Vec<(u8, u64)> = tracer
                .events()
                .iter()
                .map(|e| (matches!(e.kind, IoKind::Write) as u8, e.bytes))
                .collect();
            events.sort_unstable();
            outs.push((out, events));
        }
        let key = |o: &RunOutcome| -> Vec<(String, i32)> {
            o.hits
                .iter()
                .map(|h| (h.subject_id.clone(), h.best_score()))
                .collect()
        };
        assert_eq!(key(&outs[0].0), key(&outs[1].0), "hits differ");
        assert_eq!(outs[0].1, outs[1].1, "traced I/O differs");
        assert!(outs[1].0.io_fetch_s > 0.0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn sequential_stall_accounts_for_the_whole_fetch() {
        // With the pipeline depth forced to one the search thread waits
        // out every fetch but its first, which hides behind the query
        // preparation: stall ≈ fetch. The bench's hidden fraction is
        // measured against exactly this baseline. The servers are paced
        // so that a fetch is milliseconds of waiting, not microseconds of
        // page-cache copying the scheduler can hide.
        let base = tmp("stall");
        let scheme = Scheme::pvfs_at(&base.join("p"), 4, 64 << 10).unwrap();
        scheme.set_io_throttle(1 << 20);
        let (fragments, query, db) = setup(&base, &scheme, 8);
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers: 1,
            scheme,
            tracer: Tracer::disabled(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: false,
            list_io: false,
        };
        let out = job.run(&query).unwrap();
        assert!(out.io_fetch_s > 0.0, "fetch clock must run");
        assert!(
            out.io_stall_s > 0.5 * out.io_fetch_s,
            "sequential path must stall for most of the fetch: stall {} fetch {}",
            out.io_stall_s,
            out.io_fetch_s
        );
        std::fs::remove_dir_all(&base).ok();
    }

    /// The original scheme's job over 4 fragments staged under `base/io`,
    /// with `workers` workers, and its query.
    fn original_job(base: &Path, workers: usize) -> (ParallelBlast, Vec<u8>) {
        let scheme = Scheme::local_at(&base.join("io"), workers).unwrap();
        let (fragments, query, db) = setup(base, &scheme, 4);
        let job = ParallelBlast {
            program: Program::Blastn,
            params: SearchParams::blastn(),
            db,
            fragments,
            workers,
            scheme,
            tracer: Tracer::disabled(),
            parallelization: Parallelization::DatabaseSegmentation,
            prefetch: true,
            list_io: false,
        };
        (job, query)
    }

    /// The hits of one job, as bytes to compare.
    fn hits_of(job: &ParallelBlast, query: &[u8]) -> String {
        let hits = job.run(query).unwrap().hits;
        assert!(!hits.is_empty(), "vacuous comparison");
        format!("{hits:?}")
    }

    fn private_copy(base: &Path, worker: usize, name: &str) -> PathBuf {
        base.join("io").join(format!("worker{worker}")).join(name)
    }

    fn flip_byte(path: &Path) {
        let mut raw = std::fs::read(path).unwrap();
        let at = raw.len() / 2;
        raw[at] ^= 0x20;
        std::fs::write(path, &raw).unwrap();
    }

    #[test]
    fn a_second_job_rewrites_no_private_copy() {
        let base = tmp("reuse");
        let (job, query) = original_job(&base, 1);
        let first = hits_of(&job, &query);
        let stamps = || -> Vec<(PathBuf, std::time::SystemTime)> {
            let mut files: Vec<_> = std::fs::read_dir(base.join("io").join("worker0"))
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (e.path(), e.metadata().unwrap().modified().unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let before = stamps();
        assert_eq!(before.len(), 2 * job.fragments.len(), "data + sidecar each");
        // Let the clock move on, so a rewrite would show in the stamps.
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(hits_of(&job, &query), first);
        assert_eq!(stamps(), before, "a private copy was rewritten");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_replaced_source_fragment_is_copied_again() {
        let base = tmp("replaced");
        let (job, query) = original_job(&base, 2);
        let before = hits_of(&job, &query);
        // Every worker holds a copy of every fragment, so whichever worker
        // is handed the replaced one has an old copy to find stale.
        for w in 0..2 {
            for name in &job.fragments {
                job.scheme.open_for_worker(w, name).unwrap();
            }
        }
        // The same fragment name over another database's bytes.
        let (other, _, _) = format_db(&base.join("other"), 78, 4);
        let name = &job.fragments[0];
        let bytes = &other.iter().find(|(n, _)| n == name).unwrap().1;
        job.scheme.load_fragment(name, bytes).unwrap();
        let after = hits_of(&job, &query);
        assert_ne!(after, before, "the replacement must change the answer");

        // A scheme staged from scratch over the new bytes.
        let fresh_base = base.join("fresh");
        let (mut fresh, _) = original_job(&fresh_base, 2);
        fresh.scheme.load_fragment(name, bytes).unwrap();
        fresh.db = job.db;
        assert_eq!(after, hits_of(&fresh, &query));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_corrupt_private_copy_is_deleted_and_copied_again() {
        let base = tmp("heal");
        let (job, query) = original_job(&base, 2);
        let first = hits_of(&job, &query);
        // Every worker holds fragment 0, and every copy has a flipped byte.
        let name = &job.fragments[0];
        for w in 0..2 {
            job.scheme.open_for_worker(w, name).unwrap();
            flip_byte(&private_copy(&base, w, name));
        }
        assert_eq!(hits_of(&job, &query), first);
        // The copy the retry made verifies; a worker that was not handed
        // fragment 0 still holds its flipped copy until it reads it.
        let clean = (0..2).filter(|&w| {
            let copy = private_copy(&base, w, name);
            let sums = parblast_pio::integrity::load_sums(&copy);
            std::fs::read(&copy)
                .is_ok_and(|bytes| parblast_pio::integrity::stripe_sums(&bytes, 64 << 10) == sums)
        });
        assert!(clean.count() >= 1, "no worker holds a clean copy");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn a_corrupt_source_fragment_is_a_typed_error() {
        let base = tmp("bad_src");
        let (job, query) = original_job(&base, 2);
        flip_byte(&base.join("io").join("shared").join(&job.fragments[0]));
        let err = job.run(&query).unwrap_err();
        assert!(parblast_pio::is_corrupt(&err), "{err}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn the_scrub_deletes_a_corrupt_private_copy_and_the_next_job_copies_it() {
        let base = tmp("scrub_private");
        let (job, query) = original_job(&base, 2);
        let first = hits_of(&job, &query);
        let name = &job.fragments[0];
        job.scheme.open_for_worker(0, name).unwrap();
        let copy = private_copy(&base, 0, name);
        flip_byte(&copy);
        let scrub = job.scheme.start_scrub(&job.fragments, 0);
        let deadline = Instant::now() + Duration::from_secs(30);
        while copy.exists() {
            assert!(
                Instant::now() < deadline,
                "the scrub never removed the copy"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let totals = scrub.stop();
        assert!(totals.corrupt_found >= 1, "{totals:?}");
        assert!(!parblast_pio::integrity::sums_path(&copy).exists());
        assert_eq!(hits_of(&job, &query), first);
        std::fs::remove_dir_all(&base).ok();
    }
}
