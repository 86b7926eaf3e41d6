//! CEFT-PVFS client.
//!
//! Same application-facing interface as the PVFS client
//! ([`parblast_pvfs::ClientReq`]/[`ClientResp`]) so that the simulated
//! parallel BLAST can swap file systems without changing its own logic.
//! Differences from PVFS:
//!
//! * **Reads** follow the dual-half schedule: half of each request from the
//!   primary group, half from the mirror group (doubling parallelism), with
//!   hot servers replaced by their mirror partners per the skip set pushed
//!   by the metadata server.
//! * **Writes** are duplexed to both groups (the client-driven duplex
//!   protocol of the CEFT papers) and complete when both replicas ack.

use std::collections::HashMap;

use parblast_hwsim::{Envelope, Ev, NetSend};
use parblast_pvfs::retry::{backoff_delay, RetryPolicy};
use parblast_pvfs::{
    list_req_wire_bytes, validate_regions, ClientReq, ClientResp, IoError, IodRead, IodReadList,
    IodReadListResp, IodReadResp, IodWrite, IodWriteResp, Region, CTRL_BYTES,
};
use parblast_simcore::{CompId, Component, Ctx, LogHistogram, SimTime, Summary};

use crate::group::MirroredLayout;
use crate::msg::{CeftOpen, CeftOpenResp, ServerId, SkipUpdate};

/// CEFT duplex write protocols (the four protocols studied in the
/// companion write-performance paper, ref. \[7\]; we implement three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProtocol {
    /// Client sends the data to both groups and waits for both acks
    /// (maximum reliability, doubles the client's outbound traffic).
    ClientDuplex,
    /// Client writes the primary only; the primary forwards to the mirror
    /// and acks the client only after the mirror acks (server duplex,
    /// halves client traffic at the cost of serialized hops).
    ServerSync,
    /// Client writes the primary only; the primary acks immediately and
    /// mirrors in the background (fastest, a crash window before the
    /// mirror is consistent).
    ServerAsync,
}

/// How the client schedules reads over the two groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// First half from one group, second half from the other — all 2N
    /// servers participate (the paper's design, \[6\]).
    DualHalf,
    /// Naive mirroring: read everything from the primary group (the
    /// ablation baseline the dual-half design was measured against).
    PrimaryOnly,
}

#[derive(Debug, Clone)]
struct FileEntry {
    layout: MirroredLayout,
    #[allow(dead_code)]
    size: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

#[derive(Debug)]
struct PendingOp {
    kind: OpKind,
    remaining: u32,
    reply_to: CompId,
    tag: u64,
    started: SimTime,
    len: u64,
}

#[derive(Debug)]
struct PendingOpen {
    file: u64,
    reply_to: CompId,
    tag: u64,
    started: SimTime,
    attempts: u32,
}

/// One in-flight per-server request. A timed-out *read* is re-sent to the
/// server's mirror partner (the replica holds identical data), which is
/// what lets CEFT survive a crashed server; writes retry the same server.
/// The token is reused across attempts: first answer wins.
#[derive(Debug, Clone)]
struct PartState {
    op: u64,
    server: ServerId,
    file: u64,
    offset: u64,
    len: u64,
    kind: OpKind,
    forward_to: Option<(u32, CompId)>,
    forward_sync: bool,
    attempts: u32,
    /// This read already failed over once because of a checksum mismatch;
    /// a second mismatch means both replicas are corrupt and the operation
    /// fails with [`IoError::Corrupt`].
    corrupt_failover: bool,
    /// Stripes that failed verification on the original server, queued for
    /// rewrite once (and only once) the partner's copy verifies clean.
    repair: Vec<u64>,
}

/// One in-flight aggregated list request to a single server. Batches
/// stream back in order; on a timeout the client fails over to the mirror
/// partner and re-sends **only the unserved tail** (`regions[served..]`),
/// so regions already delivered are never refetched. The retry budget is
/// spent per list request, not per region.
#[derive(Debug, Clone)]
struct ListPartState {
    op: u64,
    server: ServerId,
    file: u64,
    /// Full per-server region list, in server-local coordinates.
    regions: Vec<Region>,
    /// Regions received and accepted so far.
    served: usize,
    attempts: u32,
    /// A batch already failed verification and the tail moved to the
    /// partner; a second mismatch means both replicas are corrupt.
    corrupt_failover: bool,
    /// Stripes queued for rewrite once the partner's bytes verify clean.
    repair: Vec<u64>,
    /// Earliest time a pending timeout may fire; accepted batches push it
    /// out (progress resets the clock).
    deadline: SimTime,
}

fn partner_of(s: ServerId) -> ServerId {
    ServerId {
        group: 1 - s.group,
        index: s.index,
    }
}

/// Split a sorted region list at its byte midpoint (cutting a region in
/// two if the midpoint lands inside it), for the dual-half schedule: the
/// first portion reads from one group, the rest from the other. A
/// single-region list degenerates to the contiguous dual-half plan.
fn split_at_midpoint(regions: &[Region]) -> (Vec<Region>, Vec<Region>) {
    let total: u64 = regions.iter().map(|r| r.len).sum();
    let half = total / 2;
    let (mut first, mut second) = (Vec::new(), Vec::new());
    let mut acc = 0u64;
    for r in regions {
        if acc >= half {
            second.push(*r);
        } else if acc + r.len <= half {
            first.push(*r);
        } else {
            let cut = half - acc;
            first.push(Region::new(r.offset, cut));
            second.push(Region::new(r.offset + cut, r.len - cut));
        }
        acc += r.len;
    }
    (first, second)
}

/// CEFT client component.
pub struct CeftClient {
    node: u32,
    net: CompId,
    meta: (u32, CompId),
    /// `groups[g][i]` = (node, iod component) of server `i` in group `g`.
    groups: [Vec<(u32, CompId)>; 2],
    files: HashMap<u64, FileEntry>,
    skips: Vec<ServerId>,
    dead: Vec<ServerId>,
    opens: HashMap<u64, PendingOpen>,
    ops: HashMap<u64, PendingOp>,
    parts: HashMap<u64, PartState>,
    list_parts: HashMap<u64, ListPartState>,
    next_op: u64,
    retry: RetryPolicy,
    retries: u64,
    failovers: u64,
    failures: u64,
    repaired: u64,
    /// Read scheduling mode (dual-half vs primary-only ablation).
    pub read_mode: ReadMode,
    /// Duplex write protocol.
    pub write_protocol: WriteProtocol,
    /// Alternates which group serves the first half of successive reads.
    flip: bool,
    read_latency: Summary,
    read_hist: LogHistogram,
    bytes_read: u64,
    bytes_written: u64,
    skipped_parts: u64,
    name: String,
}

impl CeftClient {
    /// New client on `node` with the two server groups (layout order).
    pub fn new(
        name: impl Into<String>,
        node: u32,
        net: CompId,
        meta: (u32, CompId),
        primary: Vec<(u32, CompId)>,
        mirror: Vec<(u32, CompId)>,
    ) -> Self {
        assert_eq!(primary.len(), mirror.len(), "groups must be equal-sized");
        CeftClient {
            node,
            net,
            meta,
            groups: [primary, mirror],
            files: HashMap::new(),
            skips: Vec::new(),
            dead: Vec::new(),
            opens: HashMap::new(),
            ops: HashMap::new(),
            parts: HashMap::new(),
            list_parts: HashMap::new(),
            next_op: 1,
            retry: RetryPolicy::disabled(),
            retries: 0,
            failovers: 0,
            failures: 0,
            repaired: 0,
            read_mode: ReadMode::DualHalf,
            write_protocol: WriteProtocol::ClientDuplex,
            flip: false,
            read_latency: Summary::new(),
            read_hist: LogHistogram::new(),
            bytes_read: 0,
            bytes_written: 0,
            skipped_parts: 0,
            name: name.into(),
        }
    }

    /// `(bytes read, bytes written)` through this client.
    pub fn bytes(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// Per-read latency summary.
    pub fn read_latency(&self) -> &Summary {
        &self.read_latency
    }

    /// Per-read latency distribution in microseconds, for tail
    /// percentiles (foreground p95 under rebuild, §12 of DESIGN.md).
    pub fn read_latency_hist(&self) -> &LogHistogram {
        &self.read_hist
    }

    /// Parts redirected away from hot servers.
    pub fn skipped_parts(&self) -> u64 {
        self.skipped_parts
    }

    /// Current skip set as seen by this client.
    pub fn skips(&self) -> &[ServerId] {
        &self.skips
    }

    /// Servers this client currently believes dead.
    pub fn dead(&self) -> &[ServerId] {
        &self.dead
    }

    /// Enable (or change) the request timeout/retry policy.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Requests re-sent after a timeout.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Timed-out reads re-routed to the mirror partner.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Operations that failed with [`ClientResp::Error`].
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Corrupt stripes rewritten from the mirror partner's good copy
    /// (read-repair).
    pub fn repaired_stripes(&self) -> u64 {
        self.repaired
    }

    /// Servers to avoid when planning reads: pushed skips plus servers
    /// presumed dead.
    fn avoid(&self) -> Vec<ServerId> {
        let mut v = self.skips.clone();
        for &d in &self.dead {
            if !v.contains(&d) {
                v.push(d);
            }
        }
        v
    }

    fn addr(&self, s: ServerId) -> (u32, CompId) {
        self.groups[s.group as usize][s.index as usize]
    }

    fn send_net(
        &self,
        ctx: &mut Ctx<'_, Ev>,
        dst: (u32, CompId),
        bytes: u64,
        payload: Box<dyn std::any::Any>,
    ) {
        ctx.send(
            self.net,
            Ev::Net(NetSend {
                src_node: self.node,
                dst_node: dst.0,
                bytes,
                dst: dst.1,
                payload,
            }),
        );
    }

    /// (Re-)send one per-server request after `delay`, arming its timeout.
    fn send_part(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64, state: &PartState, delay: SimTime) {
        let me = ctx.self_id();
        let node = self.node;
        let dst = self.addr(state.server);
        let (bytes, payload): (u64, Box<dyn std::any::Any>) = match state.kind {
            OpKind::Read => (
                CTRL_BYTES,
                Box::new(IodRead {
                    file: state.file,
                    offset: state.offset,
                    len: state.len,
                    reply: me,
                    reply_node: node,
                    token,
                }),
            ),
            OpKind::Write => (
                state.len + CTRL_BYTES,
                Box::new(IodWrite {
                    file: state.file,
                    offset: state.offset,
                    len: state.len,
                    sync: false,
                    reply: me,
                    reply_node: node,
                    token,
                    forward_to: state.forward_to,
                    forward_sync: state.forward_sync,
                }),
            ),
        };
        ctx.schedule_in(
            delay,
            self.net,
            Ev::Net(NetSend {
                src_node: node,
                dst_node: dst.0,
                bytes,
                dst: dst.1,
                payload,
            }),
        );
        if self.retry.enabled() {
            ctx.wake_in(delay + self.retry.timeout, Ev::Timer(token));
        }
    }

    /// (Re-)send the unserved tail of one per-server list request after
    /// `delay`, arming (or pushing out) its timeout.
    fn send_list_part(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        token: u64,
        state: &ListPartState,
        delay: SimTime,
    ) {
        let me = ctx.self_id();
        let node = self.node;
        let dst = self.addr(state.server);
        let tail = state.regions[state.served..].to_vec();
        let bytes = list_req_wire_bytes(tail.len());
        ctx.schedule_in(
            delay,
            self.net,
            Ev::Net(NetSend {
                src_node: node,
                dst_node: dst.0,
                bytes,
                dst: dst.1,
                payload: Box::new(IodReadList {
                    file: state.file,
                    first: state.served as u64,
                    regions: tail,
                    reply: me,
                    reply_node: node,
                    token,
                }),
            }),
        );
        if self.retry.enabled() {
            ctx.wake_in(delay + self.retry.timeout, Ev::Timer(token));
        }
    }

    /// Abandon a whole operation: a server (and, for reads, its partner
    /// too) exhausted the retry budget.
    fn fail_op(&mut self, ctx: &mut Ctx<'_, Ev>, op_id: u64, error: IoError) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        self.parts.retain(|_, s| s.op != op_id);
        self.list_parts.retain(|_, s| s.op != op_id);
        self.failures += 1;
        ctx.send(
            op.reply_to,
            Ev::User(Envelope::local(ClientResp::Error { tag: op.tag, error })),
        );
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64) {
        if let Some(mut state) = self.parts.remove(&token) {
            if state.attempts >= self.retry.max_retries {
                self.fail_op(ctx, state.op, IoError::DataServerTimeout);
                return;
            }
            if state.kind == OpKind::Read {
                // Fail over: the mirror partner holds an identical replica
                // of this range, so re-issue the read there. Alternates on
                // successive attempts (partner is an involution), covering
                // a transiently-slow partner as well.
                state.server = partner_of(state.server);
                self.failovers += 1;
            }
            let delay = backoff_delay(
                state.attempts,
                self.retry.base_backoff,
                self.retry.max_backoff,
            );
            state.attempts += 1;
            self.retries += 1;
            self.send_part(ctx, token, &state, delay);
            self.parts.insert(token, state);
            return;
        }
        if let Some(state) = self.list_parts.get_mut(&token) {
            if ctx.now() < state.deadline {
                // Stale timer: a batch arrived since it was armed and
                // pushed the real deadline out.
                return;
            }
            if state.attempts >= self.retry.max_retries {
                let op = state.op;
                self.fail_op(ctx, op, IoError::DataServerTimeout);
                return;
            }
            // Fail over to the mirror partner, re-requesting only the
            // unserved tail of the list: regions already streamed back
            // before the crash are kept.
            state.server = partner_of(state.server);
            self.failovers += 1;
            let delay = backoff_delay(
                state.attempts,
                self.retry.base_backoff,
                self.retry.max_backoff,
            );
            state.attempts += 1;
            self.retries += 1;
            let mut state = self.list_parts.remove(&token).unwrap();
            state.deadline = ctx
                .now()
                .saturating_add(delay)
                .saturating_add(self.retry.timeout);
            self.send_list_part(ctx, token, &state, delay);
            self.list_parts.insert(token, state);
            return;
        }
        if let Some(open) = self.opens.get_mut(&token) {
            if open.attempts >= self.retry.max_retries {
                let open = self.opens.remove(&token).unwrap();
                self.failures += 1;
                ctx.send(
                    open.reply_to,
                    Ev::User(Envelope::local(ClientResp::Error {
                        tag: open.tag,
                        error: IoError::MetaTimeout,
                    })),
                );
                return;
            }
            let delay = backoff_delay(
                open.attempts,
                self.retry.base_backoff,
                self.retry.max_backoff,
            );
            open.attempts += 1;
            self.retries += 1;
            let file = open.file;
            let me = ctx.self_id();
            let node = self.node;
            let meta = self.meta;
            ctx.schedule_in(
                delay,
                self.net,
                Ev::Net(NetSend {
                    src_node: node,
                    dst_node: meta.0,
                    bytes: CTRL_BYTES,
                    dst: meta.1,
                    payload: Box::new(CeftOpen {
                        file,
                        reply: me,
                        reply_node: node,
                        token,
                    }),
                }),
            );
            ctx.wake_in(delay + self.retry.timeout, Ev::Timer(token));
        }
        // Anything else: a stale timer for a part that already completed.
    }

    fn handle_req(&mut self, ctx: &mut Ctx<'_, Ev>, req: ClientReq) {
        match req {
            ClientReq::Open {
                file,
                reply_to,
                tag,
            } => {
                let token = ctx.fresh_token();
                self.opens.insert(
                    token,
                    PendingOpen {
                        file,
                        reply_to,
                        tag,
                        started: ctx.now(),
                        attempts: 0,
                    },
                );
                let me = ctx.self_id();
                let node = self.node;
                let meta = self.meta;
                self.send_net(
                    ctx,
                    meta,
                    CTRL_BYTES,
                    Box::new(CeftOpen {
                        file,
                        reply: me,
                        reply_node: node,
                        token,
                    }),
                );
                if self.retry.enabled() {
                    ctx.wake_in(self.retry.timeout, Ev::Timer(token));
                }
            }
            ClientReq::Read {
                file,
                offset,
                len,
                reply_to,
                tag,
            } => {
                let entry = self
                    .files
                    .get(&file)
                    .unwrap_or_else(|| panic!("read of unopened file {file}"))
                    .clone();
                let first_group = u8::from(self.flip);
                self.flip = !self.flip;
                let avoid = self.avoid();
                let parts = match self.read_mode {
                    ReadMode::DualHalf => entry.layout.plan_read(offset, len, first_group, &avoid),
                    ReadMode::PrimaryOnly => entry.layout.plan_single_group(offset, len, 0, &avoid),
                };
                if parts.is_empty() {
                    ctx.send(
                        reply_to,
                        Ev::User(Envelope::local(ClientResp::ReadDone {
                            tag,
                            latency: SimTime::ZERO,
                            len: 0,
                        })),
                    );
                    return;
                }
                let op = self.next_op;
                self.next_op += 1;
                self.ops.insert(
                    op,
                    PendingOp {
                        kind: OpKind::Read,
                        remaining: parts.len() as u32,
                        reply_to,
                        tag,
                        started: ctx.now(),
                        len,
                    },
                );
                for p in parts {
                    if p.redirected {
                        self.skipped_parts += 1;
                    }
                    let token = ctx.fresh_token();
                    let state = PartState {
                        op,
                        server: p.server,
                        file,
                        offset: p.local_offset,
                        len: p.len,
                        kind: OpKind::Read,
                        forward_to: None,
                        forward_sync: false,
                        attempts: 0,
                        corrupt_failover: false,
                        repair: Vec::new(),
                    };
                    self.send_part(ctx, token, &state, SimTime::ZERO);
                    self.parts.insert(token, state);
                }
            }
            ClientReq::ReadList {
                file,
                regions,
                reply_to,
                tag,
            } => {
                if let Err(e) = validate_regions(&regions) {
                    panic!("ReadList with invalid region list: {e}");
                }
                let entry = self
                    .files
                    .get(&file)
                    .unwrap_or_else(|| panic!("read of unopened file {file}"))
                    .clone();
                let first_group = u8::from(self.flip);
                self.flip = !self.flip;
                let avoid = self.avoid();
                let total: u64 = regions.iter().map(|r| r.len).sum();
                // Dual-half over the whole list: split at the byte
                // midpoint, first portion from one group, rest from the
                // other (all 2N servers participate, like `plan_read`).
                let halves: [(Vec<Region>, u8); 2] = match self.read_mode {
                    ReadMode::DualHalf => {
                        let (a, b) = split_at_midpoint(&regions);
                        [(a, first_group), (b, 1 - first_group)]
                    }
                    ReadMode::PrimaryOnly => [(regions, 0), (Vec::new(), 0)],
                };
                // One aggregated request per involved physical server;
                // processing the halves in logical order keeps each
                // server's list sorted even under skip substitution.
                let n = entry.layout.group_size() as usize;
                let mut lists: Vec<Vec<Region>> = vec![Vec::new(); 2 * n];
                for (half, group) in &halves {
                    for lr in half {
                        for p in entry
                            .layout
                            .plan_single_group(lr.offset, lr.len, *group, &avoid)
                        {
                            if p.redirected {
                                self.skipped_parts += 1;
                            }
                            let lane = p.server.group as usize * n + p.server.index as usize;
                            lists[lane].push(Region::new(p.local_offset, p.len));
                        }
                    }
                }
                let involved = lists.iter().filter(|l| !l.is_empty()).count();
                if involved == 0 {
                    ctx.send(
                        reply_to,
                        Ev::User(Envelope::local(ClientResp::ReadDone {
                            tag,
                            latency: SimTime::ZERO,
                            len: 0,
                        })),
                    );
                    return;
                }
                let op = self.next_op;
                self.next_op += 1;
                self.ops.insert(
                    op,
                    PendingOp {
                        kind: OpKind::Read,
                        remaining: involved as u32,
                        reply_to,
                        tag,
                        started: ctx.now(),
                        len: total,
                    },
                );
                for (lane, list) in lists.into_iter().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    debug_assert!(validate_regions(&list).is_ok());
                    let server = ServerId {
                        group: (lane / n) as u8,
                        index: (lane % n) as u32,
                    };
                    let token = ctx.fresh_token();
                    let state = ListPartState {
                        op,
                        server,
                        file,
                        regions: list,
                        served: 0,
                        attempts: 0,
                        corrupt_failover: false,
                        repair: Vec::new(),
                        deadline: ctx.now().saturating_add(self.retry.timeout),
                    };
                    self.send_list_part(ctx, token, &state, SimTime::ZERO);
                    self.list_parts.insert(token, state);
                }
            }
            ClientReq::Write {
                file,
                offset,
                len,
                reply_to,
                tag,
            } => {
                let entry = self
                    .files
                    .get(&file)
                    .unwrap_or_else(|| panic!("write of unopened file {file}"))
                    .clone();
                // The extent reaches both groups in full; how depends on
                // the duplex protocol.
                let mut parts = entry.layout.plan_single_group(offset, len, 0, &[]);
                if self.write_protocol == WriteProtocol::ClientDuplex {
                    parts.extend(entry.layout.plan_single_group(offset, len, 1, &[]));
                }
                if parts.is_empty() {
                    ctx.send(
                        reply_to,
                        Ev::User(Envelope::local(ClientResp::WriteDone {
                            tag,
                            latency: SimTime::ZERO,
                            len: 0,
                        })),
                    );
                    return;
                }
                let op = self.next_op;
                self.next_op += 1;
                self.ops.insert(
                    op,
                    PendingOp {
                        kind: OpKind::Write,
                        remaining: parts.len() as u32,
                        reply_to,
                        tag,
                        started: ctx.now(),
                        len,
                    },
                );
                for p in parts {
                    let token = ctx.fresh_token();
                    // Server-forwarding protocols hand the mirror hop to
                    // the primary iod.
                    let forward_to = match self.write_protocol {
                        WriteProtocol::ClientDuplex => None,
                        _ => Some(self.addr(entry.layout.partner(p.server))),
                    };
                    let forward_sync = self.write_protocol == WriteProtocol::ServerSync;
                    let state = PartState {
                        op,
                        server: p.server,
                        file,
                        offset: p.local_offset,
                        len: p.len,
                        kind: OpKind::Write,
                        forward_to,
                        forward_sync,
                        attempts: 0,
                        corrupt_failover: false,
                        repair: Vec::new(),
                    };
                    self.send_part(ctx, token, &state, SimTime::ZERO);
                    self.parts.insert(token, state);
                }
            }
        }
    }

    /// A read answered. Clean data completes the part; a checksum mismatch
    /// triggers read-repair: re-fetch the range from the mirror partner
    /// (which holds an identical replica) and rewrite the bad stripes with
    /// the partner's good bytes — all without spending any retry budget,
    /// since corruption is deterministic, not transient.
    fn on_read_resp(&mut self, ctx: &mut Ctx<'_, Ev>, r: IodReadResp) {
        if r.corrupt.is_empty() {
            self.flush_repairs(ctx, r.token);
            self.part_done(ctx, r.token);
            return;
        }
        // Unknown tokens: stragglers of failed/retried operations.
        let Some(mut state) = self.parts.remove(&r.token) else {
            return;
        };
        if state.corrupt_failover {
            // The partner's copy is corrupt too — nothing left to read.
            self.fail_op(ctx, state.op, IoError::Corrupt);
            return;
        }
        // Queue the bad stripes for rewrite and re-fetch the whole part
        // from the partner, immediately. The rewrite itself waits until the
        // partner's bytes verify clean: repairing first would blindly
        // clear the evidence when both replicas turn out to be corrupt.
        state.repair = r.corrupt;
        state.server = partner_of(state.server);
        state.corrupt_failover = true;
        self.failovers += 1;
        self.send_part(ctx, r.token, &state, SimTime::ZERO);
        self.parts.insert(r.token, state);
    }

    /// Accept one streamed batch of a list request: clean batches advance
    /// `served`; a corrupt batch is rejected and the tail (that batch
    /// included) moves to the mirror partner, with the bad stripes queued
    /// for read-repair — no retry budget spent, corruption is
    /// deterministic, not transient.
    fn on_list_resp(&mut self, ctx: &mut Ctx<'_, Ev>, r: IodReadListResp) {
        // Unknown tokens: stragglers of completed or failed operations.
        let Some(state) = self.list_parts.get_mut(&r.token) else {
            return;
        };
        if r.first != state.served as u64 {
            // Stale or duplicate batch from a superseded attempt.
            return;
        }
        if !r.corrupt.is_empty() {
            if state.corrupt_failover {
                // The partner's copy is corrupt too — nothing left to
                // read.
                let op = state.op;
                self.fail_op(ctx, op, IoError::Corrupt);
                return;
            }
            state.repair.extend(r.corrupt);
            state.server = partner_of(state.server);
            state.corrupt_failover = true;
            self.failovers += 1;
            let mut state = self.list_parts.remove(&r.token).unwrap();
            state.deadline = ctx.now().saturating_add(self.retry.timeout);
            self.send_list_part(ctx, r.token, &state, SimTime::ZERO);
            self.list_parts.insert(r.token, state);
            return;
        }
        state.served += r.count as usize;
        if state.served < state.regions.len() {
            // More batches are coming; progress pushes the timeout out.
            if self.retry.enabled() {
                state.deadline = ctx.now().saturating_add(self.retry.timeout);
                ctx.wake_in(self.retry.timeout, Ev::Timer(r.token));
            }
            return;
        }
        // List complete. Whatever served the final regions verified
        // clean, so flush any queued repairs against its copy.
        let mut state = self.list_parts.remove(&r.token).unwrap();
        let stripes = std::mem::take(&mut state.repair);
        self.send_repair_writes(ctx, state.file, state.server, stripes);
        self.finish_part_of(ctx, state.op);
    }

    /// The partner's copy verified clean: rewrite the stripes that failed
    /// verification on the original server with the good bytes. The acks
    /// come back with unregistered tokens and are dropped by `part_done`.
    fn flush_repairs(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64) {
        let Some((file, good_server, stripes)) = self
            .parts
            .get_mut(&token)
            .map(|state| (state.file, state.server, std::mem::take(&mut state.repair)))
        else {
            return;
        };
        self.send_repair_writes(ctx, file, good_server, stripes);
    }

    /// Rewrite `stripes` on `good_server`'s mirror partner with the good
    /// copy just fetched from `good_server`.
    fn send_repair_writes(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        file: u64,
        good_server: ServerId,
        stripes: Vec<u64>,
    ) {
        if stripes.is_empty() {
            return;
        }
        let stripe = self
            .files
            .get(&file)
            .map(|e| e.layout.stripe.stripe_size)
            .unwrap_or(64 << 10);
        let me = ctx.self_id();
        let dst = self.addr(partner_of(good_server));
        for s in stripes {
            let token = ctx.fresh_token();
            self.send_net(
                ctx,
                dst,
                stripe + CTRL_BYTES,
                Box::new(IodWrite {
                    file,
                    offset: s * stripe,
                    len: stripe,
                    sync: false,
                    reply: me,
                    reply_node: self.node,
                    token,
                    forward_to: None,
                    forward_sync: false,
                }),
            );
            self.repaired += 1;
        }
    }

    fn part_done(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64) {
        // Unknown tokens are expected under retries: a duplicate answer to
        // a re-sent request, or a straggler of an operation that already
        // failed. Both are dropped.
        let Some(state) = self.parts.remove(&token) else {
            return;
        };
        self.finish_part_of(ctx, state.op);
    }

    /// One per-server part of `op_id` fully delivered; complete the
    /// operation when it was the last.
    fn finish_part_of(&mut self, ctx: &mut Ctx<'_, Ev>, op_id: u64) {
        let Some(op) = self.ops.get_mut(&op_id) else {
            return;
        };
        op.remaining -= 1;
        if op.remaining > 0 {
            return;
        }
        let op = self.ops.remove(&op_id).unwrap();
        let latency = ctx.now().saturating_sub(op.started);
        let resp = match op.kind {
            OpKind::Read => {
                self.bytes_read += op.len;
                self.read_latency.record(latency.as_secs_f64());
                self.read_hist.record((latency.as_secs_f64() * 1e6) as u64);
                ClientResp::ReadDone {
                    tag: op.tag,
                    latency,
                    len: op.len,
                }
            }
            OpKind::Write => {
                self.bytes_written += op.len;
                ClientResp::WriteDone {
                    tag: op.tag,
                    latency,
                    len: op.len,
                }
            }
        };
        ctx.send(op.reply_to, Ev::User(Envelope::local(resp)));
    }
}

impl Component<Ev> for CeftClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let env = match ev {
            Ev::User(env) => env,
            Ev::Timer(token) => {
                self.on_timeout(ctx, token);
                return;
            }
            _ => return,
        };
        match env.payload.downcast::<ClientReq>() {
            Ok(req) => self.handle_req(ctx, *req),
            Err(other) => match other.downcast::<CeftOpenResp>() {
                Ok(resp) => {
                    let resp = *resp;
                    // Unknown token: duplicate reply to a retried open.
                    let Some(open) = self.opens.remove(&resp.token) else {
                        return;
                    };
                    self.files.insert(
                        open.file,
                        FileEntry {
                            layout: resp.layout,
                            size: resp.size,
                        },
                    );
                    self.skips = resp.skips;
                    self.dead = resp.dead;
                    let latency = ctx.now().saturating_sub(open.started);
                    ctx.send(
                        open.reply_to,
                        Ev::User(Envelope::local(ClientResp::OpenDone {
                            tag: open.tag,
                            latency,
                        })),
                    );
                }
                Err(other) => match other.downcast::<SkipUpdate>() {
                    Ok(u) => {
                        self.skips = u.skips;
                        self.dead = u.dead;
                    }
                    Err(other) => match other.downcast::<IodReadResp>() {
                        Ok(r) => self.on_read_resp(ctx, *r),
                        Err(other) => match other.downcast::<IodReadListResp>() {
                            Ok(r) => self.on_list_resp(ctx, *r),
                            Err(other) => match other.downcast::<IodWriteResp>() {
                                Ok(w) => self.part_done(ctx, w.token),
                                Err(_) => debug_assert!(false, "ceft client got unknown message"),
                            },
                        },
                    },
                },
            },
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}
