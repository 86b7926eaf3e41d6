//! The storage client library, modeled as one component per client node:
//! one request engine for PVFS and CEFT-PVFS alike.
//!
//! The application (a BLAST worker) sends [`ClientReq`]s; the client
//! resolves the stripe layout (an `open` round trip to the metadata server,
//! cached thereafter), fans one request out to every involved data server in
//! parallel, and reports completion when the slowest server answers —
//! exactly the read path the paper's §3 describes. With a [`RetryPolicy`]
//! enabled every per-server part, list request and open carries a timeout
//! and is re-sent with bounded exponential backoff.
//!
//! The two file systems differ only in their [`Placement`]: where each part
//! of a request goes, and where a failed read part goes next. PVFS
//! ([`StripedPlacement`]) keeps one copy of every stripe, so a part retries
//! the same server and a checksum mismatch fails the operation. CEFT-PVFS
//! (`parblast-ceft`) names each server's mirror partner, so a timed-out or
//! corrupt read part moves there, and stripes that failed verification are
//! rewritten from the partner's good copy (read-repair).

use std::any::Any;
use std::collections::HashMap;

use parblast_hwsim::{Envelope, Ev, NetSend};
use parblast_simcore::{CompId, Component, Ctx, LogHistogram, SimTime, Summary};

use crate::layout::StripeLayout;
use crate::msg::{
    list_req_wire_bytes, validate_regions, ClientReq, ClientResp, IoError, IodRead, IodReadList,
    IodReadListResp, IodReadResp, IodWrite, IodWriteResp, MetaOpen, MetaOpenResp, Region,
    CTRL_BYTES,
};
use crate::retry::{backoff_delay, RetryPolicy};

/// Address of a protocol server: `(node index, component)`.
pub type ServerAddr = (u32, CompId);

/// What a file system decides for the [`Client`] engine: server addressing,
/// the open protocol, request planning, and where a read part fails over.
/// Everything else — the request tables, fan-out and completion, timeouts,
/// retries, list tail resend, read-repair and the counters — is the
/// engine's.
pub trait Placement {
    /// Key of one data server.
    type Server: Copy + 'static;
    /// The metadata server's answer to [`Placement::open_request`].
    type OpenResp: 'static;

    /// Network address of `server`.
    fn addr(&self, server: Self::Server) -> ServerAddr;

    /// Open request for `file`, answered with a [`Placement::OpenResp`].
    fn open_request(&self, file: u64, reply: CompId, reply_node: u32, token: u64) -> Box<dyn Any>;

    /// The token an open response echoes.
    fn open_token(resp: &Self::OpenResp) -> u64;

    /// Take in the answer to a pending open; returns the file's stripe
    /// layout (per group, for a mirrored file system).
    fn opened(&mut self, resp: Self::OpenResp) -> StripeLayout;

    /// A message the metadata server pushes unasked. Anything else is
    /// handed back.
    fn push(&mut self, msg: Box<dyn Any>) -> Result<(), Box<dyn Any>> {
        Err(msg)
    }

    /// Per-server parts of the logical read `[offset, offset + len)`, in
    /// server-local coordinates and send order.
    fn plan_read(
        &mut self,
        layout: &StripeLayout,
        offset: u64,
        len: u64,
    ) -> Vec<(Self::Server, Region)>;

    /// One region list per involved server for a list read, in send order.
    /// Each list is in server-local coordinates, sorted and non-empty.
    fn plan_list(
        &mut self,
        layout: &StripeLayout,
        regions: &[Region],
    ) -> Vec<(Self::Server, Vec<Region>)>;

    /// Per-server parts of the logical write `[offset, offset + len)`.
    fn plan_write(
        &self,
        layout: &StripeLayout,
        offset: u64,
        len: u64,
    ) -> Vec<(Self::Server, Region)>;

    /// Where the server itself forwards a write it receives, and whether
    /// it acknowledges only after the forward is acknowledged.
    fn forward(&self, _server: Self::Server) -> Option<(ServerAddr, bool)> {
        None
    }

    /// Another copy of `server`'s bytes, if there is one. A read part or
    /// list that times out or fails verification moves there; with `None`
    /// it retries the same server, and a checksum mismatch fails the
    /// operation.
    fn partner(&self, server: Self::Server) -> Option<Self::Server>;
}

/// PVFS placement: one copy of every stripe, on the data server at its
/// layout index.
#[derive(Debug, Clone)]
pub struct StripedPlacement {
    iods: Vec<ServerAddr>,
}

impl StripedPlacement {
    /// `iods[i]` must be the server at layout index `i`.
    pub fn new(iods: Vec<ServerAddr>) -> Self {
        StripedPlacement { iods }
    }
}

impl Placement for StripedPlacement {
    type Server = usize;
    type OpenResp = MetaOpenResp;

    fn addr(&self, server: usize) -> ServerAddr {
        self.iods[server]
    }

    fn open_request(&self, file: u64, reply: CompId, reply_node: u32, token: u64) -> Box<dyn Any> {
        Box::new(MetaOpen {
            file,
            reply,
            reply_node,
            token,
        })
    }

    fn open_token(resp: &MetaOpenResp) -> u64 {
        resp.token
    }

    fn opened(&mut self, resp: MetaOpenResp) -> StripeLayout {
        resp.layout
    }

    fn plan_read(&mut self, layout: &StripeLayout, offset: u64, len: u64) -> Vec<(usize, Region)> {
        self.plan_write(layout, offset, len)
    }

    fn plan_list(
        &mut self,
        layout: &StripeLayout,
        regions: &[Region],
    ) -> Vec<(usize, Vec<Region>)> {
        // Each logical region contributes its per-server ranges,
        // concatenated in logical order (local offsets are monotone per
        // server, so the per-server lists stay sorted and non-overlapping).
        let mut lists: Vec<Vec<Region>> = vec![Vec::new(); self.iods.len()];
        for lr in regions {
            for (server, r) in self.plan_write(layout, lr.offset, lr.len) {
                lists[server].push(r);
            }
        }
        lists
            .into_iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .collect()
    }

    fn plan_write(&self, layout: &StripeLayout, offset: u64, len: u64) -> Vec<(usize, Region)> {
        layout
            .map_extent(offset, len)
            .into_iter()
            .map(|r| (r.server as usize, Region::new(r.local_offset, r.len)))
            .collect()
    }

    fn partner(&self, _server: usize) -> Option<usize> {
        None
    }
}

/// The PVFS client component.
pub type PvfsClient = Client<StripedPlacement>;

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

/// One in-flight per-server request, kept so a timed-out attempt can be
/// re-sent (the token is reused: whichever attempt answers first completes
/// the part, later duplicates are ignored).
#[derive(Debug)]
struct PartState<S> {
    op: u64,
    server: S,
    file: u64,
    offset: u64,
    len: u64,
    kind: OpKind,
    attempts: u32,
    /// This read already moved to the partner because of a checksum
    /// mismatch; a second mismatch means both copies are corrupt.
    corrupt_failover: bool,
    /// Stripes that failed verification on the original server, rewritten
    /// once (and only once) the partner's copy verifies clean.
    repair: Vec<u64>,
}

/// One in-flight aggregated list request to a single server. The server
/// streams batches back in order; `served` counts the regions accepted so
/// far, so a timed-out or failed-over attempt re-sends **only the unserved
/// tail** (`regions[served..]` with `first = served`) and late batches from
/// a superseded attempt are recognized by their stale `first` and dropped.
#[derive(Debug)]
struct ListPartState<S> {
    op: u64,
    server: S,
    file: u64,
    /// Full per-server region list, in server-local coordinates.
    regions: Vec<Region>,
    /// Regions received and accepted so far.
    served: usize,
    /// The retry budget is spent per **list request**, not per region.
    attempts: u32,
    /// See [`PartState::corrupt_failover`].
    corrupt_failover: bool,
    /// See [`PartState::repair`].
    repair: Vec<u64>,
    /// Earliest time the pending timeout timer is allowed to fire; each
    /// accepted batch pushes it out (progress resets the clock).
    deadline: SimTime,
}

/// The storage client component: one request engine, placed by `P`.
pub struct Client<P: Placement> {
    node: u32,
    net: CompId,
    meta: ServerAddr,
    place: P,
    files: HashMap<u64, StripeLayout>,
    opens: HashMap<u64, PendingOpen>,
    ops: HashMap<u64, PendingOp>,
    parts: HashMap<u64, PartState<P::Server>>,
    list_parts: HashMap<u64, ListPartState<P::Server>>,
    next_op: u64,
    retry: RetryPolicy,
    retries: u64,
    failovers: u64,
    failures: u64,
    repaired: u64,
    read_latency: Summary,
    read_hist: LogHistogram,
    bytes_read: u64,
    bytes_written: u64,
    name: String,
}

fn reply(ctx: &mut Ctx<'_, Ev>, to: CompId, resp: ClientResp) {
    ctx.send(to, Ev::User(Envelope::local(resp)));
}

fn done(kind: OpKind, tag: u64, latency: SimTime, len: u64) -> ClientResp {
    match kind {
        OpKind::Read => ClientResp::ReadDone { tag, latency, len },
        OpKind::Write => ClientResp::WriteDone { tag, latency, len },
    }
}

impl<P: Placement> Client<P> {
    /// New client on `node`, talking to the metadata server at `meta`.
    /// Retries start disabled (see [`Client::set_retry`]).
    pub fn new(
        name: impl Into<String>,
        node: u32,
        net: CompId,
        meta: ServerAddr,
        place: P,
    ) -> Self {
        Client {
            node,
            net,
            meta,
            place,
            files: HashMap::new(),
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
            read_latency: Summary::new(),
            read_hist: LogHistogram::new(),
            bytes_read: 0,
            bytes_written: 0,
            name: name.into(),
        }
    }

    /// Enable (or change) the request timeout/retry policy.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The file system's placement state.
    pub fn placement(&self) -> &P {
        &self.place
    }

    /// `(bytes read, bytes written)` through this client.
    pub fn bytes(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// Requests re-sent after a timeout.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Read parts and lists moved to a partner copy (always 0 without one).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Operations that failed with [`ClientResp::Error`].
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Corrupt stripes rewritten from the partner's good copy (read-repair).
    pub fn repaired_stripes(&self) -> u64 {
        self.repaired
    }

    /// Per-read latency summary, in seconds.
    pub fn read_latency(&self) -> &Summary {
        &self.read_latency
    }

    /// Per-read latency distribution in microseconds, for tail percentiles
    /// (foreground p95 under rebuild, §12 of DESIGN.md).
    pub fn read_latency_hist(&self) -> &LogHistogram {
        &self.read_hist
    }

    /// Send `payload` to `dst` through the network after `delay`.
    fn send(
        &self,
        ctx: &mut Ctx<'_, Ev>,
        dst: ServerAddr,
        bytes: u64,
        payload: Box<dyn Any>,
        delay: SimTime,
    ) {
        ctx.schedule_in(
            delay,
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

    /// Arm the timeout of an attempt sent after `delay`.
    fn arm(&self, ctx: &mut Ctx<'_, Ev>, token: u64, delay: SimTime) {
        if self.retry.enabled() {
            ctx.wake_in(delay + self.retry.timeout, Ev::Timer(token));
        }
    }

    /// Spend one retry of a request's budget: the backoff before the
    /// re-send, or `None` once `max_retries` re-sends have been spent.
    fn spend_retry(&mut self, attempts: &mut u32) -> Option<SimTime> {
        if *attempts >= self.retry.max_retries {
            return None;
        }
        let delay = backoff_delay(*attempts, self.retry.base_backoff, self.retry.max_backoff);
        *attempts += 1;
        self.retries += 1;
        Some(delay)
    }

    /// Move a read part to its server's partner copy; `false` when there is
    /// none.
    fn fail_over(&mut self, server: &mut P::Server) -> bool {
        let Some(partner) = self.place.partner(*server) else {
            return false;
        };
        *server = partner;
        self.failovers += 1;
        true
    }

    fn layout(&self, file: u64) -> StripeLayout {
        self.files
            .get(&file)
            .unwrap_or_else(|| panic!("I/O on unopened file {file}"))
            .clone()
    }

    /// (Re-)send an open after `delay`, arming its timeout.
    fn send_open(&self, ctx: &mut Ctx<'_, Ev>, token: u64, file: u64, delay: SimTime) {
        let msg = self
            .place
            .open_request(file, ctx.self_id(), self.node, token);
        self.send(ctx, self.meta, CTRL_BYTES, msg, delay);
        self.arm(ctx, token, delay);
    }

    /// (Re-)send one per-server request after `delay`, arming its timeout.
    fn send_part(
        &self,
        ctx: &mut Ctx<'_, Ev>,
        token: u64,
        state: &PartState<P::Server>,
        delay: SimTime,
    ) {
        let me = ctx.self_id();
        let (bytes, payload): (u64, Box<dyn Any>) = match state.kind {
            OpKind::Read => (
                CTRL_BYTES,
                Box::new(IodRead {
                    file: state.file,
                    offset: state.offset,
                    len: state.len,
                    reply: me,
                    reply_node: self.node,
                    token,
                }),
            ),
            OpKind::Write => {
                let forward = self.place.forward(state.server);
                (
                    state.len + CTRL_BYTES,
                    Box::new(IodWrite {
                        file: state.file,
                        offset: state.offset,
                        len: state.len,
                        sync: false,
                        reply: me,
                        reply_node: self.node,
                        token,
                        forward_to: forward.map(|f| f.0),
                        forward_sync: forward.is_some_and(|f| f.1),
                    }),
                )
            }
        };
        self.send(ctx, self.place.addr(state.server), bytes, payload, delay);
        self.arm(ctx, token, delay);
    }

    /// (Re-)send the unserved tail of one per-server list request after
    /// `delay`, arming its timeout.
    fn send_list_part(
        &self,
        ctx: &mut Ctx<'_, Ev>,
        token: u64,
        state: &ListPartState<P::Server>,
        delay: SimTime,
    ) {
        let tail = state.regions[state.served..].to_vec();
        let bytes = list_req_wire_bytes(tail.len());
        let payload = Box::new(IodReadList {
            file: state.file,
            first: state.served as u64,
            regions: tail,
            reply: ctx.self_id(),
            reply_node: self.node,
            token,
        });
        self.send(ctx, self.place.addr(state.server), bytes, payload, delay);
        self.arm(ctx, token, delay);
    }

    /// Abandon a whole operation.
    fn fail_op(&mut self, ctx: &mut Ctx<'_, Ev>, op_id: u64, error: IoError) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        self.parts.retain(|_, s| s.op != op_id);
        self.list_parts.retain(|_, s| s.op != op_id);
        self.failures += 1;
        reply(ctx, op.reply_to, ClientResp::Error { tag: op.tag, error });
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64) {
        if let Some(mut state) = self.parts.remove(&token) {
            let Some(delay) = self.spend_retry(&mut state.attempts) else {
                return self.fail_op(ctx, state.op, IoError::DataServerTimeout);
            };
            if state.kind == OpKind::Read {
                self.fail_over(&mut state.server);
            }
            self.send_part(ctx, token, &state, delay);
            self.parts.insert(token, state);
        } else if let Some(mut state) = self.list_parts.remove(&token) {
            if ctx.now() < state.deadline {
                // A stale timer armed before a batch arrived; progress
                // pushed the real deadline out.
                self.list_parts.insert(token, state);
                return;
            }
            let Some(delay) = self.spend_retry(&mut state.attempts) else {
                return self.fail_op(ctx, state.op, IoError::DataServerTimeout);
            };
            self.fail_over(&mut state.server);
            state.deadline = ctx
                .now()
                .saturating_add(delay)
                .saturating_add(self.retry.timeout);
            self.send_list_part(ctx, token, &state, delay);
            self.list_parts.insert(token, state);
        } else if let Some(mut open) = self.opens.remove(&token) {
            let Some(delay) = self.spend_retry(&mut open.attempts) else {
                self.failures += 1;
                let error = IoError::MetaTimeout;
                let failed = ClientResp::Error {
                    tag: open.tag,
                    error,
                };
                return reply(ctx, open.reply_to, failed);
            };
            self.send_open(ctx, token, open.file, delay);
            self.opens.insert(token, open);
        }
        // Anything else: a stale timer for a part that already completed.
    }

    /// Register an operation of `parts` per-server parts; one that touches
    /// no server is answered at once.
    fn start_op(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        kind: OpKind,
        parts: usize,
        len: u64,
        reply_to: CompId,
        tag: u64,
    ) -> Option<u64> {
        if parts == 0 {
            reply(ctx, reply_to, done(kind, tag, SimTime::ZERO, 0));
            return None;
        }
        let op = self.next_op;
        self.next_op += 1;
        self.ops.insert(
            op,
            PendingOp {
                kind,
                remaining: parts as u32,
                reply_to,
                tag,
                started: ctx.now(),
                len,
            },
        );
        Some(op)
    }

    /// Send the per-server parts of operation `op`.
    fn send_parts(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        op: u64,
        kind: OpKind,
        file: u64,
        parts: Vec<(P::Server, Region)>,
    ) {
        for (server, r) in parts {
            let token = ctx.fresh_token();
            let state = PartState {
                op,
                server,
                file,
                offset: r.offset,
                len: r.len,
                kind,
                attempts: 0,
                corrupt_failover: false,
                repair: Vec::new(),
            };
            self.send_part(ctx, token, &state, SimTime::ZERO);
            self.parts.insert(token, state);
        }
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
                self.send_open(ctx, token, file, SimTime::ZERO);
            }
            ClientReq::Read {
                file,
                offset,
                len,
                reply_to,
                tag,
            } => {
                let layout = self.layout(file);
                let parts = self.place.plan_read(&layout, offset, len);
                let kind = OpKind::Read;
                if let Some(op) = self.start_op(ctx, kind, parts.len(), len, reply_to, tag) {
                    self.send_parts(ctx, op, kind, file, parts);
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
                let layout = self.layout(file);
                let total = regions.iter().map(|r| r.len).sum();
                let lists = self.place.plan_list(&layout, &regions);
                let Some(op) = self.start_op(ctx, OpKind::Read, lists.len(), total, reply_to, tag)
                else {
                    return;
                };
                for (server, regions) in lists {
                    debug_assert!(validate_regions(&regions).is_ok());
                    let token = ctx.fresh_token();
                    let state = ListPartState {
                        op,
                        server,
                        file,
                        regions,
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
                let layout = self.layout(file);
                let parts = self.place.plan_write(&layout, offset, len);
                let kind = OpKind::Write;
                if let Some(op) = self.start_op(ctx, kind, parts.len(), len, reply_to, tag) {
                    self.send_parts(ctx, op, kind, file, parts);
                }
            }
        }
    }

    fn on_open_resp(&mut self, ctx: &mut Ctx<'_, Ev>, resp: P::OpenResp) {
        // Unknown token: duplicate reply to a retried open.
        let Some(open) = self.opens.remove(&P::open_token(&resp)) else {
            return;
        };
        let layout = self.place.opened(resp);
        self.files.insert(open.file, layout);
        let latency = ctx.now().saturating_sub(open.started);
        reply(
            ctx,
            open.reply_to,
            ClientResp::OpenDone {
                tag: open.tag,
                latency,
            },
        );
    }

    /// A read answered. Clean data completes the part. A checksum mismatch
    /// is deterministic, not transient, so it never spends retry budget:
    /// the part moves to the partner copy at once (queueing the bad stripes
    /// for read-repair), or the operation fails when there is no other
    /// copy or the partner's is corrupt too.
    fn on_read_resp(&mut self, ctx: &mut Ctx<'_, Ev>, r: IodReadResp) {
        if r.corrupt.is_empty() {
            self.part_done(ctx, r.token);
            return;
        }
        // Unknown tokens: stragglers of failed/retried operations.
        let Some(mut state) = self.parts.remove(&r.token) else {
            return;
        };
        if state.corrupt_failover || !self.fail_over(&mut state.server) {
            return self.fail_op(ctx, state.op, IoError::Corrupt);
        }
        // The rewrite waits until the partner's bytes verify clean:
        // repairing first would blindly clear the evidence when both
        // copies turn out to be corrupt.
        state.repair = r.corrupt;
        state.corrupt_failover = true;
        self.send_part(ctx, r.token, &state, SimTime::ZERO);
        self.parts.insert(r.token, state);
    }

    /// Accept one streamed batch of a list request: a batch of a superseded
    /// attempt is dropped before anything else, clean batches advance
    /// `served`, and a corrupt batch is handled like a corrupt read part —
    /// the tail (that batch included) moves to the partner, or the
    /// operation fails.
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
            let mut state = self.list_parts.remove(&r.token).expect("looked up above");
            if state.corrupt_failover || !self.fail_over(&mut state.server) {
                return self.fail_op(ctx, state.op, IoError::Corrupt);
            }
            state.repair.extend(r.corrupt);
            state.corrupt_failover = true;
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
        // List complete. Whatever served the final regions verified clean,
        // so flush any queued repairs against its copy.
        let mut state = self.list_parts.remove(&r.token).expect("looked up above");
        let stripes = std::mem::take(&mut state.repair);
        self.send_repair_writes(ctx, state.file, state.server, stripes);
        self.finish_part_of(ctx, state.op);
    }

    /// A part answered cleanly: flush its queued repairs, then count it.
    fn part_done(&mut self, ctx: &mut Ctx<'_, Ev>, token: u64) {
        // Unknown tokens are expected under retries: a duplicate answer to a
        // re-sent request, or a straggler of an operation that already
        // failed. Both are dropped.
        let Some(mut state) = self.parts.remove(&token) else {
            return;
        };
        let stripes = std::mem::take(&mut state.repair);
        self.send_repair_writes(ctx, state.file, state.server, stripes);
        self.finish_part_of(ctx, state.op);
    }

    /// Rewrite `stripes` on `good`'s partner with the copy just fetched
    /// from `good`. The acks come back with unregistered tokens and are
    /// dropped by `part_done`.
    fn send_repair_writes(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        file: u64,
        good: P::Server,
        stripes: Vec<u64>,
    ) {
        let Some(bad) = self.place.partner(good) else {
            return;
        };
        let stripe = self.files[&file].stripe_size;
        let dst = self.place.addr(bad);
        let me = ctx.self_id();
        for s in stripes {
            let token = ctx.fresh_token();
            let write = Box::new(IodWrite {
                file,
                offset: s * stripe,
                len: stripe,
                sync: false,
                reply: me,
                reply_node: self.node,
                token,
                forward_to: None,
                forward_sync: false,
            });
            self.send(ctx, dst, stripe + CTRL_BYTES, write, SimTime::ZERO);
            self.repaired += 1;
        }
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
        let op = self.ops.remove(&op_id).expect("looked up above");
        let latency = ctx.now().saturating_sub(op.started);
        match op.kind {
            OpKind::Read => {
                self.bytes_read += op.len;
                self.read_latency.record(latency.as_secs_f64());
                self.read_hist.record((latency.as_secs_f64() * 1e6) as u64);
            }
            OpKind::Write => self.bytes_written += op.len,
        }
        reply(ctx, op.reply_to, done(op.kind, op.tag, latency, op.len));
    }
}

impl<P: Placement + 'static> Component<Ev> for Client<P> {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
        let msg = match ev {
            Ev::User(env) => env.payload,
            Ev::Timer(token) => return self.on_timeout(ctx, token),
            _ => return,
        };
        let msg = match msg.downcast::<ClientReq>() {
            Ok(req) => return self.handle_req(ctx, *req),
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<IodReadResp>() {
            Ok(r) => return self.on_read_resp(ctx, *r),
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<IodReadListResp>() {
            Ok(r) => return self.on_list_resp(ctx, *r),
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<IodWriteResp>() {
            Ok(w) => return self.part_done(ctx, w.token),
            Err(msg) => msg,
        };
        let msg = match msg.downcast::<P::OpenResp>() {
            Ok(resp) => return self.on_open_resp(ctx, *resp),
            Err(msg) => msg,
        };
        if self.place.push(msg).is_err() {
            debug_assert!(false, "storage client got unknown message");
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::LIST_REGION_CAP;
    use parblast_simcore::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    const STRIPE: u64 = 64 << 10;
    const REGIONS: u64 = LIST_REGION_CAP as u64 + 8;

    /// Stands in for the network, the metadata server, the one data server
    /// and the application. It opens a file and reads it as one list longer
    /// than a batch. The first list request goes unanswered, so the client
    /// times out and re-sends it; the re-sent request is answered with its
    /// two clean batches, and between them arrives a late batch of the first
    /// attempt that saw a stripe corrupted in the meantime.
    struct Script {
        client: CompId,
        list_requests: u32,
        log: Rc<RefCell<Vec<ClientResp>>>,
    }

    impl Component<Ev> for Script {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            let me = ctx.self_id();
            match ev {
                Ev::Timer(_) => {
                    let open = ClientReq::Open {
                        file: 1,
                        reply_to: me,
                        tag: 0,
                    };
                    ctx.send(self.client, Ev::User(Envelope::local(open)));
                }
                Ev::User(env) => {
                    let resp: ClientResp = env.expect();
                    if let ClientResp::OpenDone { .. } = resp {
                        let regions = (0..REGIONS)
                            .map(|i| Region::new(2 * i * STRIPE, STRIPE))
                            .collect();
                        let read = ClientReq::ReadList {
                            file: 1,
                            regions,
                            reply_to: me,
                            tag: 1,
                        };
                        ctx.send(self.client, Ev::User(Envelope::local(read)));
                    }
                    self.log.borrow_mut().push(resp);
                }
                Ev::Net(send) => {
                    let payload = match send.payload.downcast::<MetaOpen>() {
                        Ok(open) => {
                            let resp = MetaOpenResp {
                                token: open.token,
                                layout: StripeLayout::new(STRIPE, 1),
                                size: 2 * REGIONS * STRIPE,
                            };
                            ctx.send(open.reply, Ev::User(Envelope::local(resp)));
                            return;
                        }
                        Err(payload) => payload,
                    };
                    let req = *payload.downcast::<IodReadList>().expect("a list read");
                    self.list_requests += 1;
                    if self.list_requests == 1 {
                        return;
                    }
                    let cap = LIST_REGION_CAP as u64;
                    let batch = |first: u64, count: u64, corrupt: Vec<u64>| IodReadListResp {
                        token: req.token,
                        first,
                        count,
                        len: count * STRIPE,
                        done: first + count == REGIONS,
                        corrupt,
                    };
                    for b in [
                        batch(0, cap, vec![]),
                        batch(0, cap, vec![0]),
                        batch(cap, REGIONS - cap, vec![]),
                    ] {
                        ctx.send(req.reply, Ev::User(Envelope::local(b)));
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn stale_corrupt_list_batch_is_dropped_not_failed() {
        let mut eng: Engine<Ev> = Engine::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let script = eng.add(Script {
            client: CompId::NONE,
            list_requests: 0,
            log: log.clone(),
        });
        let mut client = PvfsClient::new(
            "client",
            0,
            script,
            (0, script),
            StripedPlacement::new(vec![(0, script)]),
        );
        client.set_retry(RetryPolicy::default());
        let client = eng.add(client);
        eng.component_mut::<Script>(script).client = client;
        eng.schedule(SimTime::ZERO, script, Ev::Timer(0));
        eng.run();

        assert_eq!(eng.component::<Script>(script).list_requests, 2);
        let log = log.borrow();
        assert!(
            matches!(
                log.as_slice(),
                [ClientResp::OpenDone { .. }, ClientResp::ReadDone { len, .. }]
                    if *len == REGIONS * STRIPE
            ),
            "every region arrived clean, so the read must complete: {log:?}"
        );
        let c = eng.component::<PvfsClient>(client);
        assert_eq!((c.retries(), c.failures()), (1, 0));
    }
}
