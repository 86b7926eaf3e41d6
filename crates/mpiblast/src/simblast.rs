//! The simulated twin of the parallel BLAST job, driving the calibrated
//! cluster models to regenerate the paper's timing figures (5, 6, 7, 9).
//!
//! The workload model comes from the real runner's measurements and the
//! paper's §4.2/§4.3 characterization:
//!
//! * each fragment is read once, in large chunks (default 8 MB — Figure
//!   4's mean read is ≈10 MB), through one of the three I/O schemes;
//! * between chunk reads the worker computes: sequence comparison at
//!   `search_rate` bytes/s with lognormal per-chunk variability (the CPU
//!   stays ≈99 % busy, I/O ≈11 % of the run at two workers — §4.3);
//! * each fragment ends with a few small buffered result writes
//!   (50–778 B, Figure 4);
//! * the master hands fragments to idle workers and the run ends when the
//!   last fragment completes (makespan).

use parblast_blast::fused_passes;
use parblast_ceft::{Ceft, CeftClient, CeftConfig, MirroredPlacement};
use parblast_hwsim::{
    start_stressor, Cluster, CpuMsg, DiskStressor, Envelope, Ev, FaultInjector, FaultSchedule,
    FsDone, FsMsg, HwParams, NetSend, StressorConfig,
};
use parblast_pvfs::{
    Client, ClientReq, ClientResp, Iod, Placement, Pvfs, PvfsClient, Region, RetryPolicy,
    StripedPlacement, CTRL_BYTES,
};
use parblast_simcore::{CompId, Component, Ctx, Engine, LogHistogram, SimTime, TraceEntry};

use crate::sched::{Claim, Failure, Master};
use crate::trace::{IoKind, Tracer};

/// Which simulated I/O scheme to use.
#[derive(Debug, Clone)]
pub enum SimScheme {
    /// Conventional I/O on each worker's local disk (original mpiBLAST).
    Original,
    /// PVFS with data servers on the given nodes (layout order).
    Pvfs {
        /// Data-server node indices.
        servers: Vec<u32>,
    },
    /// CEFT-PVFS with primary and mirror groups on the given nodes.
    Ceft {
        /// Primary-group node indices.
        primary: Vec<u32>,
        /// Mirror-group node indices.
        mirror: Vec<u32>,
    },
}

impl SimScheme {
    /// Scheme label used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SimScheme::Original => "original",
            SimScheme::Pvfs { .. } => "over-PVFS",
            SimScheme::Ceft { .. } => "over-CEFT-PVFS",
        }
    }
}

/// Simulation configuration. Defaults reproduce the paper's environment:
/// the 2.7 GB `nt` database, dual-CPU nodes, and a search rate calibrated
/// so I/O is ≈11 % of execution time for the original scheme.
#[derive(Debug, Clone)]
pub struct SimBlastConfig {
    /// Total cluster nodes (workers, servers and the master/metadata node).
    pub nodes: usize,
    /// Worker node indices (workers run on nodes `0..workers`).
    pub workers: u32,
    /// Fragment count (the paper uses fragments == workers).
    pub fragments: u32,
    /// Database size in bytes (nt: 2.7 GB).
    pub db_bytes: u64,
    /// I/O scheme.
    pub scheme: SimScheme,
    /// Node hosting the master and (for parallel schemes) the metadata
    /// server.
    pub master_node: u32,
    /// Application read chunk.
    pub chunk: u64,
    /// Search throughput per worker, bytes/second of database scanned.
    pub search_rate: f64,
    /// Coefficient of variation of per-chunk compute time (provides the
    /// natural worker staggering observed in real runs).
    pub compute_cv: f64,
    /// Small result writes per fragment.
    pub result_writes: u32,
    /// Result write size in bytes (Figure 4: mean 690 B).
    pub result_write_bytes: u64,
    /// Queries sharing each fragment scan (the serving layer's
    /// scan-sharing batch). One fragment read serves the whole batch, so
    /// I/O stays per-pass; result writes scale by the batch size, and
    /// compute by [`SimBlastConfig::batch_compute_factor`] — the batch's
    /// merged lookup table scans each chunk's packed bytes once per
    /// [`MAX_FUSED_BATCH`](parblast_blast::MAX_FUSED_BATCH)-query chunk, so
    /// only the per-query *extension* work scales with the batch (see
    /// [`FUSED_SCAN_FRAC`]). `1` (the default) is the paper's single-query
    /// job and leaves the simulation event-for-event unchanged.
    pub queries_per_pass: u32,
    /// Chunk read-ahead depth: how many chunks a worker keeps in flight
    /// or buffered *while computing*. `0` (the default) is the paper's
    /// synchronous loop — read, then compute, then read — and leaves the
    /// simulation event-for-event unchanged; `1` double-buffers so chunk
    /// k+1 arrives while chunk k is scanned.
    pub read_ahead: u32,
    /// List I/O: a worker ships its fragment's whole chunk list as ONE
    /// `ReadList` request (the client aggregates it into one vectored
    /// request per data server) instead of one `Read` per chunk. `false`
    /// (the default) is the per-chunk protocol and leaves the simulation
    /// event-for-event unchanged; either way every byte is read exactly
    /// once and the per-worker traced read sequence is identical.
    pub list_io: bool,
    /// Optional application-level I/O trace collector. Pass
    /// [`Tracer::simulated`] to take a Figure-4-style trace from inside
    /// the simulator with deterministic `SimTime` timestamps.
    pub io_tracer: Option<Tracer>,
    /// CEFT deployment configuration (read mode, skip policy, heartbeat).
    pub ceft: CeftConfig,
    /// Nodes whose disk is stressed by the Figure 8 program from t=0.
    pub stress_nodes: Vec<u32>,
    /// Deterministic fault schedule (server crashes, disk and network
    /// faults). Server indices are layout order: for CEFT, `0..N` is the
    /// primary group and `N..2N` the mirror group.
    pub faults: FaultSchedule,
    /// Client timeout/retry policy. `None` picks automatically: disabled
    /// (the faithful retry-free protocols) for a fault-free run, the
    /// default policy when `faults` is non-empty.
    pub retry: Option<RetryPolicy>,
    /// Delay before the job starts (lets CEFT's heartbeat monitors observe
    /// a pre-existing hot spot, matching the experimental procedure).
    pub warmup_s: f64,
    /// Hardware parameters.
    pub hw: HwParams,
    /// RNG seed.
    pub seed: u64,
    /// Simulation horizon (guards against runaway configurations).
    pub horizon_s: f64,
    /// Record every event delivery; the trace lands in
    /// [`SimOutcome::trace`] (determinism audits — off by default, it is
    /// one entry per event).
    pub capture_trace: bool,
}

impl Default for SimBlastConfig {
    fn default() -> Self {
        SimBlastConfig {
            nodes: 9,
            workers: 8,
            fragments: 8,
            db_bytes: 2_700_000_000,
            scheme: SimScheme::Original,
            master_node: 8,
            chunk: 8 << 20,
            // Calibrated so the original scheme's I/O fraction lands at
            // the paper's ≈11 % (§4.3): mmap reads deliver ≈18 MB/s
            // (26 MB/s media + per-fault overhead), so the search side
            // must run at ≈2.3 MB/s.
            search_rate: 2.27 * 1024.0 * 1024.0,
            compute_cv: 0.30,
            result_writes: 2,
            result_write_bytes: 690,
            queries_per_pass: 1,
            read_ahead: 0,
            list_io: false,
            io_tracer: None,
            ceft: CeftConfig::default(),
            stress_nodes: Vec::new(),
            faults: FaultSchedule::default(),
            retry: None,
            warmup_s: 2.0,
            hw: HwParams::default(),
            seed: 42,
            horizon_s: 40_000.0,
            capture_trace: false,
        }
    }
}

/// Fraction of a single-query fragment search the kernel *shares* across
/// the batch: the seed-scan pass over the packed bytes. The
/// remaining `1 − FUSED_SCAN_FRAC` is per-query work (ungapped/gapped
/// extension, finalization) that still scales with the batch size.
///
/// Provenance: the fused-vs-sequential batch-scaling curve `bench --bin
/// engine` measured on the scan-bound mix while the per-query scan still
/// existed (EXPERIMENTS.md, "Retired paths"). Solving the model's
/// fused/sequential time ratio `(B − (B − passes) × f) / B` (with
/// `passes = ceil(B/8)`) for `f` at the measured cells gives f = 0.83 at
/// B=4 (measured ratio 0.374) and f = 0.72 at B=8 (ratio 0.373); this
/// constant is their mean. The model pins `factor(1) = 1` so an unbatched
/// sim keeps the calibrated single-query service time.
pub const FUSED_SCAN_FRAC: f64 = 0.78;

impl SimBlastConfig {
    /// Compute-cost multiplier of one scan pass relative to a
    /// single-query pass. One scan per query would cost `B`; the kernel
    /// executes [`fused_passes`]`(B)` merged scan passes and only
    /// the extension share scales per query: `B − saved_passes ×
    /// FUSED_SCAN_FRAC`. A single-query pass costs exactly `1.0`.
    pub fn batch_compute_factor(&self) -> f64 {
        let b = u64::from(self.queries_per_pass.max(1));
        let passes = fused_passes(b);
        b as f64 - (b - passes) as f64 * FUSED_SCAN_FRAC
    }
}

/// Per-worker accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Seconds spent waiting for reads.
    pub io_s: f64,
    /// Seconds spent computing.
    pub compute_s: f64,
    /// Fragments searched.
    pub fragments: u32,
    /// Bytes read.
    pub bytes_read: u64,
}

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Job start → last fragment completion (or abort/horizon), seconds.
    pub makespan_s: f64,
    /// Per-worker statistics.
    pub per_worker: Vec<WorkerStats>,
    /// Aggregate I/O fraction `io / (io + compute)`.
    pub io_fraction: f64,
    /// Parts redirected away from hot servers (CEFT only).
    pub skipped_parts: u64,
    /// Did every fragment complete? `false` with an `error` means the job
    /// aborted on an I/O error; `false` without one means it hung until
    /// the horizon (original PVFS's behavior on a dead server).
    pub completed: bool,
    /// The I/O error that aborted the job, if any.
    pub error: Option<String>,
    /// Client requests re-sent after a timeout, summed over workers.
    pub retries: u64,
    /// Timed-out reads re-routed to a mirror partner (CEFT only).
    pub failovers: u64,
    /// Corrupt stripes rewritten from the mirror partner's good copy
    /// (CEFT read-repair), summed over workers.
    pub repaired_stripes: u64,
    /// Online resyncs completed by the metadata server (CEFT with
    /// [`parblast_ceft::CeftConfig::resync_rate`] set).
    pub resyncs: u64,
    /// Foreground read-latency tail across all PVFS or CEFT clients, in
    /// microseconds (zeroed for the original scheme). The integrity bench
    /// compares this clean vs. during an online rebuild.
    pub read_latency_us: parblast_simcore::Percentiles,
    /// Event-delivery trace (empty unless
    /// [`SimBlastConfig::capture_trace`] was set).
    pub trace: Vec<TraceEntry>,
    /// Read requests served by the data servers (PVFS/CEFT; 0 for the
    /// original scheme's local disks). A vectored list request counts
    /// once however many regions it carries — this is the number the
    /// list-I/O aggregation collapses.
    pub server_reads: u64,
    /// Of [`SimOutcome::server_reads`], how many were vectored
    /// `ReadList` requests.
    pub server_list_reads: u64,
    /// Regions carried by those list requests in total.
    pub server_list_regions: u64,
}

/// Storage-client counters summed over a run's clients.
#[derive(Default)]
struct ClientTotals {
    retries: u64,
    failovers: u64,
    repaired_stripes: u64,
    read_hist: LogHistogram,
}

impl ClientTotals {
    fn add<P: Placement + 'static>(&mut self, eng: &Engine<Ev>, clients: &[CompId]) {
        for &c in clients {
            let cl = eng.component::<Client<P>>(c);
            self.retries += cl.retries();
            self.failovers += cl.failovers();
            self.repaired_stripes += cl.repaired_stripes();
            self.read_hist.merge(cl.read_latency_hist());
        }
    }
}

/// Simulated file id of fragment 0; fragment `i` is file
/// `FRAG_FILE_BASE + i`. Public so fault schedules built outside this
/// crate (experiments, tests) can target a specific fragment's stripes
/// with [`parblast_hwsim::FaultSchedule::corrupt_stripe`].
pub const FRAG_FILE_BASE: u64 = 500;

/// Messages between master and workers.
#[derive(Debug, Clone)]
enum JobMsg {
    Assign {
        fragment: u32,
        size: u64,
    },
    Done {
        worker: u32,
        fragment: u32,
    },
    /// A fragment's I/O failed past the client's retry budget; the worker
    /// aborted it and is idle again.
    Failed {
        worker: u32,
        fragment: u32,
        error: String,
    },
}

/// Adapter giving the Original scheme the same `ClientReq`/`ClientResp`
/// interface as the PVFS/CEFT clients, backed by the node's local FS.
struct LocalClient {
    fs: CompId,
    pending: std::collections::HashMap<u64, (CompId, u64, SimTime, u64)>,
    /// FS-read token → owning list id (list-I/O regions in flight).
    list_regions: std::collections::HashMap<u64, u64>,
    /// List id → (reply_to, app tag, start, total bytes, regions left).
    lists: std::collections::HashMap<u64, (CompId, u64, SimTime, u64, u32)>,
    name: String,
}

impl LocalClient {
    fn new(name: impl Into<String>, fs: CompId) -> Self {
        LocalClient {
            fs,
            pending: std::collections::HashMap::new(),
            list_regions: std::collections::HashMap::new(),
            lists: std::collections::HashMap::new(),
            name: name.into(),
        }
    }
}

impl Component<Ev> for LocalClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::User(env) => {
                let req: ClientReq = env.expect();
                match req {
                    ClientReq::Open { reply_to, tag, .. } => {
                        // A local open is a metadata touch: ~0.1 ms.
                        ctx.schedule_in(
                            SimTime::from_micros(100),
                            reply_to,
                            Ev::User(Envelope::local(ClientResp::OpenDone {
                                tag,
                                latency: SimTime::from_micros(100),
                            })),
                        );
                    }
                    ClientReq::Read {
                        file,
                        offset,
                        len,
                        reply_to,
                        tag,
                    } => {
                        let token = ctx.fresh_token();
                        self.pending.insert(token, (reply_to, tag, ctx.now(), len));
                        ctx.send(
                            self.fs,
                            Ev::Fs(FsMsg::Read {
                                file,
                                offset,
                                len,
                                // The original scheme uses conventional
                                // memory-mapped I/O (§3).
                                mmap: true,
                                unit: 0,
                                reply_to: ctx.self_id(),
                                tag: token,
                            }),
                        );
                    }
                    ClientReq::ReadList {
                        file,
                        regions,
                        reply_to,
                        tag,
                    } => {
                        // The local disk has no per-request network cost to
                        // amortize, but honoring the op keeps the Original
                        // scheme usable with the list knob on: every region
                        // is read, one reply reports the whole list.
                        let list = ctx.fresh_token();
                        let total: u64 = regions.iter().map(|r| r.len).sum();
                        self.lists.insert(
                            list,
                            (reply_to, tag, ctx.now(), total, regions.len() as u32),
                        );
                        for r in regions {
                            let token = ctx.fresh_token();
                            self.list_regions.insert(token, list);
                            ctx.send(
                                self.fs,
                                Ev::Fs(FsMsg::Read {
                                    file,
                                    offset: r.offset,
                                    len: r.len,
                                    mmap: true,
                                    unit: 0,
                                    reply_to: ctx.self_id(),
                                    tag: token,
                                }),
                            );
                        }
                    }
                    ClientReq::Write {
                        file,
                        offset,
                        len,
                        reply_to,
                        tag,
                    } => {
                        let token = ctx.fresh_token();
                        self.pending.insert(token, (reply_to, tag, ctx.now(), len));
                        ctx.send(
                            self.fs,
                            Ev::Fs(FsMsg::Write {
                                file,
                                offset,
                                len,
                                sync: false,
                                reply_to: ctx.self_id(),
                                tag: token,
                            }),
                        );
                    }
                }
            }
            Ev::FsDone(FsDone { tag, latency, .. }) => {
                if let Some((reply_to, app_tag, _, len)) = self.pending.remove(&tag) {
                    // Reads and writes share the pending map; the worker
                    // disambiguates by its own tag protocol.
                    ctx.send(
                        reply_to,
                        Ev::User(Envelope::local(ClientResp::ReadDone {
                            tag: app_tag,
                            latency,
                            len,
                        })),
                    );
                } else if let Some(list) = self.list_regions.remove(&tag) {
                    let e = self.lists.get_mut(&list).expect("list state");
                    e.4 -= 1;
                    if e.4 == 0 {
                        let (reply_to, app_tag, t0, total, _) =
                            self.lists.remove(&list).expect("list state");
                        ctx.send(
                            reply_to,
                            Ev::User(Envelope::local(ClientResp::ReadDone {
                                tag: app_tag,
                                latency: ctx.now().saturating_sub(t0).max(latency),
                                len: total,
                            })),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Worker tag kinds, in the low two bits; the high bits carry the
/// worker's abort generation so replies belonging to an aborted fragment
/// are recognized and dropped. Generation 0 (any fault-free run) leaves
/// the tags — and thus the event stream — exactly as before the
/// generation scheme existed.
const TAG_READ: u64 = 2;
const TAG_WRITE: u64 = 3;
const TAG_OPEN: u64 = 1;
const TAG_KIND_BITS: u64 = 3;

struct SimWorker {
    index: u32,
    node: u32,
    client: CompId,
    cpu: CompId,
    master: (u32, CompId),
    net: CompId,
    chunk: u64,
    search_rate: f64,
    compute_cv: f64,
    result_writes: u32,
    result_write_bytes: u64,
    batch: u32,
    /// Per-pass compute multiplier ([`SimBlastConfig::batch_compute_factor`]),
    /// sublinear in `batch`.
    compute_factor: f64,
    read_ahead: u32,
    list_io: bool,
    tracer: Option<Tracer>,
    // run state
    fragment: Option<(u32, u64)>,
    offset: u64,
    writes_left: u32,
    cpu_pending: u8,
    /// Abort generation: bumped when a fragment is handed back so stale
    /// in-flight replies (reads, CPU completions) are dropped.
    gen: u64,
    /// Chunk reads submitted and not yet delivered.
    inflight: u32,
    /// Chunk lengths of the in-flight `ReadList` (list-I/O mode): the one
    /// `ReadDone` reply re-expands into these per-chunk compute slices.
    list_chunks: Vec<u64>,
    /// Delivered chunks (their lengths) waiting for the CPU.
    buffered: std::collections::VecDeque<u64>,
    stats: WorkerStats,
    name: String,
}

impl SimWorker {
    fn issue_read(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let (frag, size) = self.fragment.expect("assigned");
        let len = self.chunk.min(size - self.offset);
        ctx.send(
            self.client,
            Ev::User(Envelope::local(ClientReq::Read {
                file: FRAG_FILE_BASE + frag as u64,
                offset: self.offset,
                len,
                reply_to: ctx.self_id(),
                tag: TAG_READ | (self.gen << 2),
            })),
        );
        self.offset += len;
        self.stats.bytes_read += len;
        self.inflight += 1;
    }

    /// Ship the fragment's whole remaining chunk list as one `ReadList`:
    /// the client turns it into one vectored request per data server.
    fn issue_list_read(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let (frag, size) = self.fragment.expect("assigned");
        let mut regions = Vec::new();
        while self.offset < size {
            let len = self.chunk.min(size - self.offset);
            regions.push(Region::new(self.offset, len));
            self.offset += len;
            self.stats.bytes_read += len;
        }
        self.list_chunks = regions.iter().map(|r| r.len).collect();
        ctx.send(
            self.client,
            Ev::User(Envelope::local(ClientReq::ReadList {
                file: FRAG_FILE_BASE + frag as u64,
                regions,
                reply_to: ctx.self_id(),
                tag: TAG_READ | (self.gen << 2),
            })),
        );
        self.inflight += 1;
    }

    /// Top up the chunk pipeline. While the CPU is busy the worker keeps
    /// `read_ahead` chunks in flight or buffered; when it is idle at
    /// least one read goes out (the synchronous path's only read).
    fn fill_pipeline(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let Some((_, size)) = self.fragment else {
            return;
        };
        if self.list_io {
            // One vectored request covers the fragment; nothing to top up.
            if self.offset < size && self.inflight == 0 {
                self.issue_list_read(ctx);
            }
            return;
        }
        let cap = if self.cpu_pending > 0 {
            self.read_ahead
        } else {
            self.read_ahead.max(1)
        };
        while self.offset < size && self.inflight + (self.buffered.len() as u32) < cap {
            self.issue_read(ctx);
        }
    }

    /// Start scanning one delivered chunk. blastall runs one search
    /// thread per CPU (the paper reports ≈99 % CPU busy on the dual-CPU
    /// nodes): two parallel jobs, the chunk is done when both finish. A
    /// scan-sharing batch multiplies the compute (every query scans the
    /// chunk) but not the read.
    fn start_compute(&mut self, ctx: &mut Ctx<'_, Ev>, len: u64) {
        let factor = ctx.rng().lognormal_mean_cv(1.0, self.compute_cv);
        let work = len as f64 * self.compute_factor / self.search_rate * factor;
        self.cpu_pending = 2;
        for _ in 0..2 {
            ctx.send(
                self.cpu,
                Ev::Cpu(CpuMsg::Run {
                    work,
                    reply_to: ctx.self_id(),
                    tag: self.gen,
                }),
            );
        }
        // The chunk just moved out of the buffer: refill its slot so the
        // next read overlaps this scan.
        self.fill_pipeline(ctx);
    }

    fn issue_write_or_finish(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if self.writes_left > 0 {
            self.writes_left -= 1;
            let (frag, _) = self.fragment.expect("assigned");
            if let Some(tr) = &self.tracer {
                tr.advance_to(ctx.now());
                tr.record(self.index, IoKind::Write, self.result_write_bytes);
            }
            ctx.send(
                self.client,
                Ev::User(Envelope::local(ClientReq::Write {
                    file: FRAG_FILE_BASE + frag as u64,
                    offset: 0,
                    len: self.result_write_bytes,
                    reply_to: ctx.self_id(),
                    tag: TAG_WRITE | (self.gen << 2),
                })),
            );
        } else {
            self.stats.fragments += 1;
            let (fragment, _) = self.fragment.take().expect("assigned");
            let worker = self.index;
            ctx.send(
                self.net,
                Ev::Net(NetSend {
                    src_node: self.node,
                    dst_node: self.master.0,
                    bytes: CTRL_BYTES,
                    dst: self.master.1,
                    payload: Box::new(JobMsg::Done { worker, fragment }),
                }),
            );
        }
    }
}

impl Component<Ev> for SimWorker {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::User(env) => {
                // Either a master assignment or a client response.
                match env.payload.downcast::<JobMsg>() {
                    Ok(msg) => {
                        if let JobMsg::Assign { fragment, size } = *msg {
                            self.fragment = Some((fragment, size));
                            self.offset = 0;
                            // Every query in the scan-sharing batch writes
                            // its own small result files.
                            self.writes_left = self.result_writes * self.batch;
                            ctx.send(
                                self.client,
                                Ev::User(Envelope::local(ClientReq::Open {
                                    file: FRAG_FILE_BASE + fragment as u64,
                                    reply_to: ctx.self_id(),
                                    tag: TAG_OPEN | (self.gen << 2),
                                })),
                            );
                        }
                    }
                    Err(other) => {
                        let resp: ClientResp = *other
                            .downcast::<ClientResp>()
                            .expect("worker got unknown message");
                        match resp {
                            ClientResp::OpenDone { tag, .. } => {
                                if tag >> 2 == self.gen {
                                    self.fill_pipeline(ctx);
                                }
                            }
                            ClientResp::ReadDone { latency, len, tag }
                                if tag & TAG_KIND_BITS == TAG_READ =>
                            {
                                if tag >> 2 != self.gen {
                                    return; // reply for an aborted fragment
                                }
                                self.inflight -= 1;
                                self.stats.io_s += latency.as_secs_f64();
                                if self.list_io {
                                    // The whole chunk list arrived as one
                                    // reply: re-expand it so the compute
                                    // loop (and the trace) still proceeds
                                    // chunk by chunk, as the per-chunk
                                    // protocol would.
                                    let chunks = std::mem::take(&mut self.list_chunks);
                                    if let Some(tr) = &self.tracer {
                                        tr.advance_to(ctx.now());
                                        for &c in &chunks {
                                            tr.record(self.index, IoKind::Read, c);
                                        }
                                    }
                                    self.buffered.extend(chunks);
                                    if self.cpu_pending == 0 {
                                        if let Some(first) = self.buffered.pop_front() {
                                            self.start_compute(ctx, first);
                                        }
                                    }
                                    return;
                                }
                                if let Some(tr) = &self.tracer {
                                    tr.advance_to(ctx.now());
                                    tr.record(self.index, IoKind::Read, len);
                                }
                                if self.cpu_pending == 0 {
                                    self.start_compute(ctx, len);
                                } else {
                                    // Read-ahead delivered mid-scan: park
                                    // the chunk until the CPU frees up.
                                    self.buffered.push_back(len);
                                }
                            }
                            // LocalClient replies to writes as ReadDone with
                            // the write tag; treat any non-read completion
                            // as a finished write.
                            ClientResp::ReadDone { tag, .. }
                            | ClientResp::WriteDone { tag, .. } => {
                                if tag >> 2 == self.gen && self.fragment.is_some() {
                                    self.issue_write_or_finish(ctx);
                                }
                            }
                            ClientResp::Error { error, tag, .. } => {
                                // The client gave up on a server. Abort the
                                // fragment — dropping any prefetched chunks
                                // and in-flight reads with it — and hand it
                                // back to the master for reassignment.
                                if tag >> 2 != self.gen {
                                    return; // the fragment is already gone
                                }
                                let Some((fragment, _)) = self.fragment.take() else {
                                    return;
                                };
                                self.gen += 1;
                                self.inflight = 0;
                                self.list_chunks.clear();
                                self.buffered.clear();
                                self.cpu_pending = 0;
                                let worker = self.index;
                                ctx.send(
                                    self.net,
                                    Ev::Net(NetSend {
                                        src_node: self.node,
                                        dst_node: self.master.0,
                                        bytes: CTRL_BYTES,
                                        dst: self.master.1,
                                        payload: Box::new(JobMsg::Failed {
                                            worker,
                                            fragment,
                                            error: error.to_string(),
                                        }),
                                    }),
                                );
                            }
                        }
                    }
                }
            }
            Ev::CpuDone(done) => {
                if done.tag != self.gen {
                    return; // compute for an aborted fragment
                }
                self.cpu_pending = self.cpu_pending.saturating_sub(1);
                if self.cpu_pending > 0 {
                    return;
                }
                let Some((_, size)) = self.fragment else {
                    return;
                };
                if let Some(len) = self.buffered.pop_front() {
                    self.start_compute(ctx, len);
                } else if self.offset < size {
                    // Idle: the pipeline puts out at least one read.
                    self.fill_pipeline(ctx);
                } else if self.inflight == 0 {
                    self.issue_write_or_finish(ctx);
                }
                // else: the tail chunks are still in flight; the next
                // ReadDone restarts the scan.
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The DES shell around [`Master`]: its timer and worker messages become
/// claims and reports, a handed-out task an `Assign` over the network.
struct SimMaster {
    sched: Master,
    /// Every fragment's size (equal shares of the database).
    frag_size: u64,
    workers: Vec<(u32, CompId)>, // (node, comp)
    net: CompId,
    node: u32,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    error: Option<String>,
    name: String,
}

impl SimMaster {
    fn claim(&mut self, ctx: &mut Ctx<'_, Ev>, worker: u32) {
        match self.sched.claim(worker as usize) {
            Claim::Task(fragment) => {
                let (wnode, wcomp) = self.workers[worker as usize];
                ctx.send(
                    self.net,
                    Ev::Net(NetSend {
                        src_node: self.node,
                        dst_node: wnode,
                        bytes: CTRL_BYTES,
                        dst: wcomp,
                        payload: Box::new(JobMsg::Assign {
                            fragment: fragment as u32,
                            size: self.frag_size,
                        }),
                    }),
                );
            }
            Claim::Wait => {}
            Claim::Finished => {
                self.finished.get_or_insert(ctx.now());
            }
        }
    }
}

impl Component<Ev> for SimMaster {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Timer(_) => {
                self.started = Some(ctx.now());
                for w in 0..self.workers.len() as u32 {
                    self.claim(ctx, w);
                }
            }
            Ev::User(env) => {
                let msg: JobMsg = env.expect();
                match msg {
                    JobMsg::Done { worker, fragment } => {
                        self.sched.done(worker as usize, fragment as usize);
                        self.claim(ctx, worker);
                    }
                    JobMsg::Failed {
                        worker,
                        fragment,
                        error,
                    } => match self.sched.failed(worker as usize, fragment as usize) {
                        Failure::Retry => self.claim(ctx, worker),
                        Failure::Fatal => {
                            // Every attempt died the same way: the file
                            // system has lost data. Abort the job with a
                            // reported error (what the paper's PVFS cannot
                            // avoid after a server crash).
                            if self.finished.is_none() {
                                self.error = Some(error);
                                self.finished = Some(ctx.now());
                            }
                        }
                    },
                    JobMsg::Assign { .. } => {}
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Run one simulated parallel BLAST job.
pub fn run_simblast(cfg: &SimBlastConfig) -> SimOutcome {
    let mut eng: Engine<Ev> = Engine::new(cfg.seed);
    if cfg.capture_trace {
        eng.enable_trace();
    }
    let cluster = Cluster::build(&mut eng, cfg.nodes, cfg.hw.clone());

    // Fragment sizes: equal split of the database.
    let frag_size = cfg.db_bytes / cfg.fragments as u64;

    // Client retry policy: disabled for fault-free runs (the faithful
    // retry-free protocols), the default policy once faults are scheduled,
    // unless overridden explicitly.
    let retry = cfg.retry.unwrap_or_else(|| {
        if cfg.faults.is_empty() {
            RetryPolicy::disabled()
        } else {
            RetryPolicy::default()
        }
    });

    // Fault injector (installed only when there is something to inject, so
    // fault-free runs are event-for-event identical to before).
    let mut injector = (!cfg.faults.is_empty()).then(|| FaultInjector::new(cfg.faults.clone()));

    // Deploy the I/O scheme and create one client per worker node.
    let mut ceft_clients: Vec<CompId> = Vec::new();
    let mut pvfs_clients: Vec<CompId> = Vec::new();
    let mut ceft_meta: Option<CompId> = None;
    let mut iod_ids: Vec<CompId> = Vec::new();
    let clients: Vec<CompId> = match &cfg.scheme {
        SimScheme::Original => (0..cfg.workers)
            .map(|w| {
                let node = &cluster.nodes[w as usize];
                eng.add(LocalClient::new(format!("localclient{w}"), node.fs))
            })
            .collect(),
        SimScheme::Pvfs { servers } => {
            let pvfs = Pvfs::deploy(&mut eng, &cluster, cfg.master_node, servers, 64 << 10);
            for f in 0..cfg.fragments {
                pvfs.register_file(&mut eng, FRAG_FILE_BASE + f as u64, frag_size);
            }
            iod_ids = pvfs.iods.iter().map(|&(_, id)| id).collect();
            if let Some(inj) = injector.as_mut() {
                for (i, &(_, iod)) in pvfs.iods.iter().enumerate() {
                    inj.register_server(i, vec![iod]);
                }
            }
            let v: Vec<CompId> = (0..cfg.workers)
                .map(|w| {
                    let c = pvfs.add_client(&mut eng, w);
                    eng.component_mut::<PvfsClient>(c).set_retry(retry);
                    c
                })
                .collect();
            pvfs_clients = v.clone();
            v
        }
        SimScheme::Ceft { primary, mirror } => {
            let ceft = Ceft::deploy(
                &mut eng,
                &cluster,
                cfg.master_node,
                primary,
                mirror,
                &cfg.ceft,
            );
            ceft_meta = Some(ceft.meta.1);
            iod_ids = ceft
                .primary
                .iter()
                .chain(ceft.mirror.iter())
                .map(|&(_, id)| id)
                .collect();
            for f in 0..cfg.fragments {
                ceft.register_file(&mut eng, FRAG_FILE_BASE + f as u64, frag_size);
            }
            if let Some(inj) = injector.as_mut() {
                // Server indices: 0..N primary, N..2N mirror. A crash
                // takes out the iod and its load monitor together (both
                // live in the failed daemon's process).
                let n = ceft.primary.len();
                for (i, &(_, iod)) in ceft.primary.iter().enumerate() {
                    inj.register_server(i, vec![iod, ceft.monitors[i]]);
                }
                for (i, &(_, iod)) in ceft.mirror.iter().enumerate() {
                    inj.register_server(n + i, vec![iod, ceft.monitors[n + i]]);
                }
            }
            let v: Vec<CompId> = (0..cfg.workers)
                .map(|w| {
                    let c = ceft.add_client(&mut eng, w);
                    eng.component_mut::<CeftClient>(c).set_retry(retry);
                    c
                })
                .collect();
            ceft_clients = v.clone();
            v
        }
    };

    if let Some(mut inj) = injector.take() {
        for (n, node) in cluster.nodes.iter().enumerate() {
            inj.register_disk(n as u32, node.disk);
        }
        inj.register_net(cluster.net);
        inj.install(&mut eng);
    }

    // Workers.
    let worker_ids: Vec<(u32, CompId)> = (0..cfg.workers)
        .map(|w| {
            let node = &cluster.nodes[w as usize];
            let comp = eng.add(SimWorker {
                index: w,
                node: w,
                client: clients[w as usize],
                cpu: node.cpu,
                master: (cfg.master_node, CompId::NONE), // fixed below
                net: cluster.net,
                chunk: cfg.chunk,
                search_rate: cfg.search_rate,
                compute_cv: cfg.compute_cv,
                result_writes: cfg.result_writes,
                result_write_bytes: cfg.result_write_bytes,
                batch: cfg.queries_per_pass.max(1),
                compute_factor: cfg.batch_compute_factor(),
                read_ahead: cfg.read_ahead,
                list_io: cfg.list_io,
                tracer: cfg.io_tracer.clone(),
                fragment: None,
                offset: 0,
                writes_left: 0,
                cpu_pending: 0,
                gen: 0,
                inflight: 0,
                list_chunks: Vec::new(),
                buffered: std::collections::VecDeque::new(),
                stats: WorkerStats::default(),
                name: format!("worker{w}"),
            });
            (w, comp)
        })
        .collect();

    // Master.
    let master = eng.add(SimMaster {
        sched: Master::new(cfg.fragments as usize, worker_ids.len(), 1),
        frag_size,
        workers: worker_ids.clone(),
        net: cluster.net,
        node: cfg.master_node,
        started: None,
        finished: None,
        error: None,
        name: "master".into(),
    });
    for &(_, wcomp) in &worker_ids {
        eng.component_mut::<SimWorker>(wcomp).master = (cfg.master_node, master);
    }

    // Stressors.
    for &n in &cfg.stress_nodes {
        let st = eng.add(DiskStressor::new(
            format!("stressor{n}"),
            cluster.nodes[n as usize].fs,
            StressorConfig::default(),
        ));
        start_stressor(&mut eng, st, SimTime::ZERO);
    }

    // Go. Background components (stressors, heartbeat monitors) never
    // drain the queue, so advance in slices and stop as soon as the master
    // reports completion.
    eng.schedule(SimTime::from_secs_f64(cfg.warmup_s), master, Ev::Timer(0));
    let mut horizon = cfg.warmup_s + 50.0;
    loop {
        eng.run_until(SimTime::from_secs_f64(horizon));
        if eng.component::<SimMaster>(master).finished.is_some() || horizon >= cfg.horizon_s {
            break;
        }
        horizon += 50.0;
    }

    // Harvest.
    let m = eng.component::<SimMaster>(master);
    let started = m.started.expect("job started");
    let error = m.error.clone();
    // No finish within the horizon = the job hung (a retry-free client
    // blocked on a dead server); report it instead of panicking.
    let finished = m.finished;
    let completed = finished.is_some() && error.is_none();
    let makespan_s = finished
        .unwrap_or_else(|| eng.now())
        .saturating_sub(started)
        .as_secs_f64();
    // Compute time: derive from per-worker bytes (the sampled factors are
    // already reflected in the makespan; for reporting we use the actual
    // busy accounting below).
    let mut per_worker = Vec::new();
    let mut io = 0.0;
    let mut bytes = 0u64;
    let batch_factor = cfg.batch_compute_factor();
    for &(_, wcomp) in &worker_ids {
        let w = eng.component::<SimWorker>(wcomp);
        let mut st = w.stats;
        st.compute_s = st.bytes_read as f64 * batch_factor / cfg.search_rate;
        per_worker.push(st);
        io += st.io_s;
        bytes += st.bytes_read;
    }
    let compute = bytes as f64 * batch_factor / cfg.search_rate;
    let io_fraction = if io + compute > 0.0 {
        io / (io + compute)
    } else {
        0.0
    };
    let skipped_parts = ceft_clients
        .iter()
        .map(|&c| eng.component::<CeftClient>(c).placement().skipped_parts())
        .sum();
    let mut totals = ClientTotals::default();
    totals.add::<StripedPlacement>(&eng, &pvfs_clients);
    totals.add::<MirroredPlacement>(&eng, &ceft_clients);
    let resyncs = ceft_meta
        .map(|m| eng.component::<parblast_ceft::CeftMeta>(m).resync_stats().0)
        .unwrap_or(0);
    let mut server_reads = 0u64;
    let mut server_list_reads = 0u64;
    let mut server_list_regions = 0u64;
    for &id in &iod_ids {
        let iod = eng.component::<Iod>(id);
        server_reads += iod.stats().0;
        let (lr, lrg) = iod.list_stats();
        server_list_reads += lr;
        server_list_regions += lrg;
    }
    let trace = eng.take_trace();
    SimOutcome {
        makespan_s,
        per_worker,
        io_fraction,
        skipped_parts,
        completed,
        error,
        retries: totals.retries,
        failovers: totals.failovers,
        repaired_stripes: totals.repaired_stripes,
        resyncs,
        read_latency_us: totals.read_hist.percentiles(),
        trace,
        server_reads,
        server_list_reads,
        server_list_regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shrink the database so tests stay fast while keeping the shape.
    fn small(scheme: SimScheme, workers: u32, nodes: usize) -> SimBlastConfig {
        SimBlastConfig {
            nodes,
            workers,
            fragments: workers,
            db_bytes: 256 << 20,
            scheme,
            master_node: (nodes - 1) as u32,
            warmup_s: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn original_scheme_completes_and_accounts() {
        let cfg = small(SimScheme::Original, 2, 3);
        let out = run_simblast(&cfg);
        assert!(out.makespan_s > 0.0);
        let total_bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
        assert_eq!(total_bytes, cfg.db_bytes / 2 * 2);
        // I/O fraction near the paper's ~11 %.
        assert!(
            out.io_fraction > 0.06 && out.io_fraction < 0.2,
            "io_fraction = {}",
            out.io_fraction
        );
    }

    #[test]
    fn batched_pass_amortizes_io_and_the_scan_share_of_compute() {
        let mut cfg = small(SimScheme::Original, 2, 3);
        let one = run_simblast(&cfg);
        assert_eq!(cfg.batch_compute_factor(), 1.0, "b=1 is the paper's job");
        cfg.queries_per_pass = 4;
        let four = run_simblast(&cfg);
        // Same single database pass...
        let bytes = |o: &SimOutcome| o.per_worker.iter().map(|w| w.bytes_read).sum::<u64>();
        assert_eq!(bytes(&four), cfg.db_bytes / 2 * 2);
        assert_eq!(bytes(&four), bytes(&one));
        // ...and 4 queries' worth of extension work but one shared scan:
        // 4 − 3 × FUSED_SCAN_FRAC ≈ 1.66 single-query computes, against
        // the closed form B = 4 of one scan per query.
        assert!((cfg.batch_compute_factor() - (4.0 - 3.0 * FUSED_SCAN_FRAC)).abs() < 1e-12);
        let compute = |o: &SimOutcome| o.per_worker.iter().map(|w| w.compute_s).sum::<f64>();
        let ratio = compute(&four) / compute(&one);
        assert!(ratio > 1.0 && ratio < 0.6 * 4.0, "compute ratio {ratio}");
        let (t1, t4) = (one.makespan_s, four.makespan_s);
        assert!(t4 > t1 && t4 < t1 * 2.0, "t1={t1} t4={t4}");
        // I/O fraction shrinks when the read is shared.
        assert!(
            four.io_fraction < one.io_fraction,
            "io_fraction {} !< {}",
            four.io_fraction,
            one.io_fraction
        );
    }

    #[test]
    fn sim_io_trace_is_deterministic_and_read_dominated() {
        let run = || {
            let mut cfg = small(SimScheme::Original, 2, 3);
            cfg.io_tracer = Some(Tracer::simulated());
            run_simblast(&cfg);
            cfg.io_tracer.unwrap().events()
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "sim trace diverged");
        let s = crate::trace::TraceSummary::from_events(&a);
        assert!(s.read_fraction > 0.7, "{s:?}");
        assert_eq!(s.write_max, 690);
        // Timestamps are simulation time: monotone, starting after warmup.
        assert!(a[0].t >= 1.0, "first event at {}", a[0].t);
    }

    #[test]
    fn read_ahead_hides_io_without_changing_the_workload() {
        // Double-buffering the chunk reads must shave the I/O wait off
        // the makespan while reading exactly the same bytes.
        let mut cfg = small(
            SimScheme::Pvfs {
                servers: vec![0, 1],
            },
            2,
            3,
        );
        let sync = run_simblast(&cfg);
        cfg.read_ahead = 1;
        let ahead = run_simblast(&cfg);
        assert!(sync.completed && ahead.completed);
        let bytes = |o: &SimOutcome| o.per_worker.iter().map(|w| w.bytes_read).sum::<u64>();
        assert_eq!(bytes(&sync), bytes(&ahead), "read-ahead must not re-read");
        assert!(
            ahead.makespan_s < sync.makespan_s,
            "read-ahead must shorten the run: {} vs {}",
            ahead.makespan_s,
            sync.makespan_s
        );
        // The win is bounded by the I/O it can hide.
        assert!(
            ahead.makespan_s > sync.makespan_s * (1.0 - sync.io_fraction - 0.05),
            "win exceeds the hideable I/O: {} vs {} (io {})",
            ahead.makespan_s,
            sync.makespan_s,
            sync.io_fraction
        );
    }

    #[test]
    fn read_ahead_saturates_at_one_chunk() {
        // One chunk of look-ahead hides a compute-bound run's I/O;
        // deeper pipelines only queue reads at the disk (the burst
        // delays first-chunk delivery at each fragment start) and win
        // nothing further. Variability off: different depths sample the
        // per-chunk factors in different orders, which would otherwise
        // drown the comparison in noise.
        let mut cfg = small(SimScheme::Original, 2, 3);
        cfg.compute_cv = 0.0;
        let d0 = run_simblast(&cfg).makespan_s;
        cfg.read_ahead = 1;
        let d1 = run_simblast(&cfg).makespan_s;
        cfg.read_ahead = 4;
        let d4 = run_simblast(&cfg).makespan_s;
        assert!(d1 < d0, "depth 1 ({d1}) must beat sync ({d0})");
        assert!(d4 < d0, "depth 4 ({d4}) must still beat sync ({d0})");
        assert!(
            d1 <= d4,
            "deeper than one chunk must not win more: d1 {d1} vs d4 {d4}"
        );
    }

    #[test]
    fn read_ahead_survives_ceft_crash_with_prefetch_in_flight() {
        // A primary dies while prefetched chunk reads are in flight: the
        // stale replies are dropped, the client fails over to the mirror,
        // and the job still completes with every byte searched.
        let scheme = SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        };
        let mut cfg = small(scheme, 4, 5);
        cfg.read_ahead = 2;
        let clean = run_simblast(&cfg);
        assert!(clean.completed);
        cfg.faults = FaultSchedule::new().crash_server(SimTime::from_secs_f64(3.0), 1);
        let out = run_simblast(&cfg);
        assert!(
            out.completed,
            "CEFT with read-ahead must survive the crash: {:?}",
            out.error
        );
        assert!(out.failovers > 0, "reads must have failed over");
        let bytes = |o: &SimOutcome| o.per_worker.iter().map(|w| w.bytes_read).sum::<u64>();
        // Aborted prefetches may re-read a fragment's chunks, never lose
        // them: the degraded run reads at least the clean run's bytes.
        assert!(bytes(&out) >= bytes(&clean));
    }

    #[test]
    fn pvfs_faster_than_original_at_two_nodes() {
        let t_orig = run_simblast(&small(SimScheme::Original, 2, 3)).makespan_s;
        let t_pvfs = run_simblast(&small(
            SimScheme::Pvfs {
                servers: vec![0, 1],
            },
            2,
            3,
        ))
        .makespan_s;
        assert!(
            t_pvfs < t_orig,
            "PVFS ({t_pvfs}) should beat original ({t_orig}) at 2 nodes"
        );
    }

    #[test]
    fn pvfs_slower_than_original_at_one_node() {
        let t_orig = run_simblast(&small(SimScheme::Original, 1, 2)).makespan_s;
        let t_pvfs = run_simblast(&small(SimScheme::Pvfs { servers: vec![0] }, 1, 2)).makespan_s;
        assert!(
            t_pvfs > t_orig,
            "PVFS ({t_pvfs}) should lose to original ({t_orig}) at 1 node"
        );
    }

    #[test]
    fn ceft_close_to_pvfs_unstressed() {
        let t_pvfs = run_simblast(&small(
            SimScheme::Pvfs {
                servers: vec![0, 1, 2, 3],
            },
            4,
            5,
        ))
        .makespan_s;
        let t_ceft = run_simblast(&small(
            SimScheme::Ceft {
                primary: vec![0, 1],
                mirror: vec![2, 3],
            },
            4,
            5,
        ))
        .makespan_s;
        let ratio = t_ceft / t_pvfs;
        assert!(
            ratio > 0.9 && ratio < 1.3,
            "CEFT/PVFS ratio = {ratio} (pvfs {t_pvfs}, ceft {t_ceft})"
        );
    }

    #[test]
    fn ceft_read_repair_survives_latent_corruption() {
        // A latent media error flips a stripe on each primary before the
        // search starts. Checksum verification catches it at read time,
        // the client rewrites the bad copy from the mirror's good one,
        // and the search completes over every byte.
        let scheme = SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        };
        let mut cfg = small(scheme, 4, 5);
        let clean = run_simblast(&cfg);
        assert!(clean.completed);
        cfg.faults = FaultSchedule::new()
            .corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0)
            .corrupt_stripe(SimTime::from_secs_f64(0.5), 1, FRAG_FILE_BASE + 1, 2);
        let out = run_simblast(&cfg);
        assert!(
            out.completed,
            "CEFT must survive latent corruption: {:?}",
            out.error
        );
        assert!(
            out.repaired_stripes >= 2,
            "read-repair must rewrite the bad copies: {}",
            out.repaired_stripes
        );
        // Corruption costs a partner re-fetch, never a lost byte: the
        // degraded run searches at least the clean run's bytes.
        let bytes = |o: &SimOutcome| o.per_worker.iter().map(|w| w.bytes_read).sum::<u64>();
        assert!(bytes(&out) >= bytes(&clean));
    }

    #[test]
    fn ceft_corruption_of_both_replicas_is_unrecoverable() {
        // The same stripe rots on a primary AND its mirror partner: no
        // good copy remains, so the read must surface the typed corrupt
        // error instead of retrying forever.
        let scheme = SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        };
        let mut cfg = small(scheme, 4, 5);
        cfg.faults = FaultSchedule::new()
            .corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0)
            .corrupt_stripe(SimTime::from_secs_f64(0.5), 2, FRAG_FILE_BASE, 0);
        let out = run_simblast(&cfg);
        assert!(!out.completed, "double corruption cannot be repaired");
        let err = out.error.expect("an error must be reported");
        assert!(err.contains("corruption"), "unexpected error: {err}");
    }

    #[test]
    fn pvfs_corruption_aborts_with_typed_error() {
        // PVFS has no replica to repair from: a corrupt stripe fails the
        // read with the non-retryable error and the job aborts after the
        // master exhausts fragment reassignment.
        let mut cfg = small(
            SimScheme::Pvfs {
                servers: vec![0, 1],
            },
            2,
            3,
        );
        cfg.faults =
            FaultSchedule::new().corrupt_stripe(SimTime::from_secs_f64(0.5), 0, FRAG_FILE_BASE, 0);
        let out = run_simblast(&cfg);
        assert!(!out.completed, "PVFS cannot mask corruption");
        let err = out.error.expect("an error must be reported");
        assert!(err.contains("corruption"), "unexpected error: {err}");
        // The error is deterministic: no retry or backoff budget burned.
        assert_eq!(out.retries, 0, "corruption must not spend retries");
    }

    #[test]
    fn ceft_revive_resyncs_before_rejoining() {
        // Crash a primary mid-search, revive it later with online resync
        // enabled: the metadata server rebuilds the stale copy from the
        // mirror partner and only then lets reads land on it again.
        let scheme = SimScheme::Ceft {
            primary: vec![0, 1],
            mirror: vec![2, 3],
        };
        let mut cfg = small(scheme, 4, 5);
        cfg.ceft.resync_rate = Some(256 << 20);
        // Fast heartbeat so the metadata server's dead sweep (2.5 beats of
        // grace) notices the crash well before the revival.
        cfg.ceft.heartbeat = SimTime::from_secs(1);
        cfg.faults = FaultSchedule::new()
            .crash_server(SimTime::from_secs_f64(3.0), 1)
            .revive_server(SimTime::from_secs_f64(8.0), 1);
        let out = run_simblast(&cfg);
        assert!(
            out.completed,
            "CEFT must survive crash + revive: {:?}",
            out.error
        );
        assert!(out.failovers > 0, "reads must have failed over");
        assert_eq!(out.resyncs, 1, "the revived server must be rebuilt");
    }

    #[test]
    fn stress_degrades_pvfs_more_than_ceft() {
        let mut pvfs = small(
            SimScheme::Pvfs {
                servers: vec![0, 1, 2, 3],
            },
            4,
            5,
        );
        let base_pvfs = run_simblast(&pvfs).makespan_s;
        pvfs.stress_nodes = vec![1];
        let hot_pvfs = run_simblast(&pvfs).makespan_s;

        let mut ceft = small(
            SimScheme::Ceft {
                primary: vec![0, 1],
                mirror: vec![2, 3],
            },
            4,
            5,
        );
        ceft.warmup_s = 10.0;
        let base_ceft = run_simblast(&ceft).makespan_s;
        ceft.stress_nodes = vec![1];
        let out_hot = run_simblast(&ceft);
        let hot_ceft = out_hot.makespan_s;

        let deg_pvfs = hot_pvfs / base_pvfs;
        let deg_ceft = hot_ceft / base_ceft;
        assert!(out_hot.skipped_parts > 0, "CEFT must skip the hot server");
        assert!(
            deg_pvfs > 2.0 * deg_ceft,
            "PVFS degradation {deg_pvfs} vs CEFT {deg_ceft}"
        );
        assert!(deg_ceft < 4.0, "CEFT degradation too high: {deg_ceft}");
    }
}
