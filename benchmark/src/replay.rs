//! Staged replay: one batch walked through each layer's public API on one
//! thread, in request order, every call under its own child span. The
//! payloads it produces must equal the oracle's, so the stage times are
//! times of the same work the daemon did.

use std::io;

use parblast_core::blast::{
    search_packed_batch_with, search_packed_with, tabular, BatchScanWorkspace, DbStats, Hit,
    Program, ScanWorkspace, SearchParams,
};
use parblast_core::mpiblast::{Scheme, TracedSource, Tracer};
use parblast_core::net::{encode_frame, Frame, FrameReader, ResultStatus};
use parblast_core::seqdb::PackedVolume;
use parblast_core::serve::{AdmissionQueue, Priority, Query};
use parblast_core::simcore::SimTime;

use crate::metrics::Metrics;
use crate::serve::server_config;
use crate::trace::Recorder;

/// Child spans of a `replay` root, in request order. `pio.fetch` is what
/// a fetch thread does: open the fragment through the scheme and decode it
/// with `PackedVolume::read_from`, whose reads are the store's real
/// request pattern (the in-memory decode share is `seqdb.decode_mbps`).
const SUBMIT_CODEC: &str = "net.submit_codec";
const ADMIT_TAKE: &str = "serve.admit_take";
const FETCH: &str = "pio.fetch";
const SEARCH: &str = "blast.search";
const MERGE: &str = "mpiblast.merge";
const TABULAR: &str = "blast.tabular";
const RESULT_CODEC: &str = "net.result_codec";
const STAGES: [&str; 7] = [
    SUBMIT_CODEC,
    ADMIT_TAKE,
    FETCH,
    SEARCH,
    MERGE,
    TABULAR,
    RESULT_CODEC,
];
/// The stages inside `ParallelBlast::run_batch`.
const IN_RUN_BATCH: [&str; 3] = [FETCH, SEARCH, MERGE];

pub struct Replay<'a> {
    pub rec: &'a Recorder,
    pub scheme: &'a Scheme,
    pub fragments: &'a [String],
    pub db: DbStats,
    /// A daemon batch crosses the wire and the queue and runs the fused
    /// kernel; the batch job does neither and runs the single-query one.
    pub daemon: bool,
}

/// Push `frame` through the codec the way a socket would and hand back
/// what the peer decodes.
pub fn codec_round_trip(frame: &Frame) -> Frame {
    let mut reader = FrameReader::new();
    reader.feed(&encode_frame(frame));
    reader
        .next_frame()
        .expect("own frame decodes")
        .expect("whole frame fed")
}

/// Cross-fragment merge, as `ParallelBlast` ranks it.
fn merge(mut hits: Vec<Hit>, max_hits: usize) -> Vec<Hit> {
    hits.sort_by(|a, b| {
        a.best_evalue()
            .partial_cmp(&b.best_evalue())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.best_score().cmp(&a.best_score()))
            .then_with(|| a.subject_id.cmp(&b.subject_id))
    });
    hits.truncate(max_hits);
    hits
}

/// The search call a worker makes per fragment: the fused batch kernel in
/// the daemon, the single-query kernel in the batch job.
pub struct Kernel {
    fused: bool,
    params: SearchParams,
    db: DbStats,
    bws: BatchScanWorkspace,
    ws: ScanWorkspace,
}

impl Kernel {
    pub fn new(fused: bool, db: DbStats) -> Self {
        Kernel {
            fused,
            params: SearchParams::blastn(),
            db,
            bws: BatchScanWorkspace::new(),
            ws: ScanWorkspace::new(),
        }
    }

    pub fn search(&mut self, queries: &[Vec<u8>], volume: &PackedVolume) -> Vec<Vec<Hit>> {
        if self.fused {
            let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
            search_packed_batch_with(
                Program::Blastn,
                &refs,
                volume,
                &self.params,
                self.db,
                &mut self.bws,
            )
        } else {
            queries
                .iter()
                .map(|q| {
                    search_packed_with(
                        Program::Blastn,
                        q,
                        volume,
                        &self.params,
                        self.db,
                        &mut self.ws,
                    )
                })
                .collect()
        }
    }

    /// Subject unpacks so far.
    pub fn unpacks(&self) -> u64 {
        self.bws.unpacks() + self.ws.unpacks()
    }
}

impl Replay<'_> {
    /// Replay one batch; returns the rendered payload per query and the
    /// subject unpacks the search performed.
    pub fn run(&self, batch: u64, queries: &[Vec<u8>]) -> io::Result<(Vec<Vec<u8>>, u64)> {
        let rec = self.rec;
        let max_hits = SearchParams::blastn().max_hits;
        let root = rec.open("replay", batch);

        let queries: Vec<Vec<u8>> = if self.daemon {
            let decoded = rec.child(SUBMIT_CODEC, root, batch, || {
                queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| {
                        match codec_round_trip(&Frame::Submit {
                            id: i as u64,
                            tenant: 0,
                            priority: Priority::Normal,
                            deadline_us: 0,
                            query: q.clone(),
                        }) {
                            Frame::Submit { query, .. } => query,
                            other => panic!("Submit decoded as {other:?}"),
                        }
                    })
                    .collect::<Vec<_>>()
            });
            rec.child(ADMIT_TAKE, root, batch, || {
                let mut queue = AdmissionQueue::new(server_config().queue_capacity);
                for i in 0..decoded.len() {
                    queue
                        .offer(Query::new(i as u64, SimTime::from_nanos(0)))
                        .expect("queue has room");
                }
                let taken = queue.take_batch(decoded.len(), SimTime::from_nanos(0));
                assert_eq!(taken.len(), decoded.len());
            });
            decoded
        } else {
            queries.to_vec()
        };

        let mut per_query: Vec<Vec<Hit>> = vec![Vec::new(); queries.len()];
        let mut kernel = Kernel::new(self.daemon, self.db);
        for fragment in self.fragments {
            let volume = rec.child(FETCH, root, batch, || {
                let (reader, _copy) = self.scheme.open_for_worker(0, fragment)?;
                PackedVolume::read_from(&mut TracedSource::new(reader, Tracer::disabled(), 0))
            })?;
            let found = rec.child(SEARCH, root, batch, || kernel.search(&queries, &volume));
            for (all, hits) in per_query.iter_mut().zip(found) {
                all.extend(hits);
            }
        }
        let merged: Vec<Vec<Hit>> = rec.child(MERGE, root, batch, || {
            per_query
                .into_iter()
                .map(|hits| merge(hits, max_hits))
                .collect()
        });
        let mut payloads: Vec<Vec<u8>> = rec.child(TABULAR, root, batch, || {
            merged
                .iter()
                .map(|hits| tabular("query", hits).into_bytes())
                .collect()
        });
        if self.daemon {
            payloads = rec.child(RESULT_CODEC, root, batch, || {
                payloads
                    .into_iter()
                    .enumerate()
                    .map(|(i, payload)| {
                        match codec_round_trip(&Frame::Result {
                            id: i as u64,
                            status: ResultStatus::Ok,
                            payload,
                        }) {
                            Frame::Result { payload, .. } => payload,
                            other => panic!("Result decoded as {other:?}"),
                        }
                    })
                    .collect()
            });
        }
        rec.close(root);
        Ok((payloads, kernel.unpacks()))
    }
}

/// Turn the replay's spans into per-layer metrics. `payloads` and `unpacks`
/// are what all replays together produced, each replay covered `residues`
/// database residues, and `serial_s` is the mean wall time of a real
/// `run`/`run_batch` of the same batches at one worker without prefetch.
pub fn ledger(
    rec: &Recorder,
    payloads: &[Vec<u8>],
    unpacks: u64,
    residues: u64,
    serial_s: f64,
    m: &mut Metrics,
) {
    let replays = rec.durations("replay").len() as f64;
    let queries = payloads.len() as f64;
    let stage_sum: f64 = STAGES.iter().map(|s| rec.total(s)).sum();
    let search_s = rec.total(SEARCH);
    let searches = rec.durations(SEARCH).len() as f64;
    let scanned = residues as f64 * replays;
    // A replay's self time is what no named stage covers.
    let uncovered = rec.self_time("replay") / rec.total("replay");
    m.set("trace.stage_sum_over_wall", 1.0 - uncovered);
    m.set("blast.search_share_of_stages", search_s / stage_sum);
    m.set("blast.search_ms_per_fragment", search_s * 1e3 / searches);
    m.set("blast.scan_mbases_per_s", scanned / 1e6 / search_s);
    // Computed bytes moved: the packed database is streamed once per pass.
    let mem = m.get("ceiling.mem_read_gbps").expect("probes ran first") * 1e9;
    m.set("blast.scan_frac_of_mem", scanned / 4.0 / search_s / mem);
    m.set(
        "blast.report_us_per_query",
        rec.total(TABULAR) * 1e6 / queries,
    );
    let lines: usize = payloads
        .iter()
        .map(|p| p.iter().filter(|&&b| b == b'\n').count())
        .sum();
    m.set("blast.hits_per_query", lines as f64 / queries);
    m.set("blast.unpacks_per_query", unpacks as f64 / queries);
    for stage in STAGES.iter().filter(|s| !rec.durations(s).is_empty()) {
        eprintln!(
            "replay: {stage:<18} {:>9.3} ms per batch",
            rec.total(stage) * 1e3 / replays
        );
    }
    eprintln!(
        "replay: {:<18} {:>9.3} ms per batch; one worker, no prefetch: {:.3} ms",
        "whole",
        rec.total("replay") * 1e3 / replays,
        serial_s * 1e3
    );
    let inside: f64 = IN_RUN_BATCH.iter().map(|s| rec.total(s)).sum();
    m.set(
        "mpiblast.orchestration_ms",
        (serial_s - inside / replays) * 1e3,
    );
}

/// Share of throughput lost while spans were being recorded.
pub fn overhead_frac(plain: (usize, f64), spanned: (usize, f64)) -> Option<f64> {
    let rate = |(n, s): (usize, f64)| (n > 0 && s > 0.0).then(|| n as f64 / s);
    Some(1.0 - rate(spanned)? / rate(plain)?)
}
