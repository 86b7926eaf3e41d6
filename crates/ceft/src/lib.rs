//! # parblast-ceft
//!
//! Simulated CEFT-PVFS (Cost-Effective, Fault-Tolerant PVFS; Zhu et al.
//! 2003): a RAID-10-style extension of PVFS that stripes data over a
//! primary group of servers and mirrors it to a second group.
//!
//! The redundancy is exploited exactly as in the paper:
//!
//! * **Doubled read parallelism** — every read fetches its first half from
//!   one group and its second half from the other, so all `2N` servers
//!   participate (§3, "Improved read performance" \[6\]);
//! * **Hot-spot skipping** — load monitors report per-server disk
//!   utilization to the metadata server each heartbeat; servers that stay
//!   hot while their mirror partner stays cool are put in a skip set that
//!   clients use to redirect reads to the partner (§4.5, Figure 3);
//! * **Duplex writes** — writes go to both groups before completing, the
//!   cost of fault tolerance (Figure 7's slight CEFT overhead).
//!
//! The iod data path and the client request engine are shared with
//! [`parblast_pvfs`].

#![warn(missing_docs)]

pub mod client;
pub mod group;
pub mod meta;
pub mod monitor;
pub mod msg;

pub use client::{CeftClient, MirroredPlacement, ReadMode, WriteProtocol};
pub use group::{MirroredLayout, ReadPart};
pub use meta::{CeftMeta, SkipPolicy};
pub use monitor::LoadMonitor;
pub use msg::{CeftOpen, CeftOpenResp, LoadReport, ServerId, SkipUpdate};

use parblast_hwsim::{Cluster, Disk, Ev};
use parblast_pvfs::Iod;
use parblast_simcore::{CompId, Engine, SimTime};

/// A deployed CEFT-PVFS instance.
#[derive(Debug, Clone)]
pub struct Ceft {
    /// Metadata server address.
    pub meta: (u32, CompId),
    /// Primary-group data servers in layout order.
    pub primary: Vec<(u32, CompId)>,
    /// Mirror-group data servers in layout order.
    pub mirror: Vec<(u32, CompId)>,
    /// Load monitors (one per data server).
    pub monitors: Vec<CompId>,
    /// Stripe size for new files.
    pub stripe_size: u64,
    /// What every client from [`Ceft::add_client`] starts from: the two
    /// groups plus the configured read mode and write protocol.
    placement: MirroredPlacement,
    net: CompId,
}

/// Deployment knobs.
#[derive(Debug, Clone)]
pub struct CeftConfig {
    /// Stripe size (paper: 64 KB).
    pub stripe_size: u64,
    /// Metadata service time per request (slightly above PVFS's: CEFT
    /// manages more metadata, §4.4).
    pub meta_service: SimTime,
    /// Heartbeat interval for load collection.
    pub heartbeat: SimTime,
    /// Per-request iod overhead (CEFT manages more metadata than PVFS).
    pub iod_overhead: SimTime,
    /// Client read-scheduling mode (dual-half vs the primary-only
    /// ablation).
    pub read_mode: ReadMode,
    /// Duplex write protocol.
    pub write_protocol: WriteProtocol,
    /// Skip policy.
    pub policy: SkipPolicy,
    /// Online-resync rate cap in bytes/s for revived servers. `None`
    /// (default) keeps the legacy instant rejoin: the first heartbeat from
    /// a presumed-dead server returns it to read service immediately.
    /// `Some(r)` holds a revived server out of service while the metadata
    /// server copies its local share of every file back from the mirror
    /// partner at up to `r` bytes/s (`Some(0)` = unpaced).
    pub resync_rate: Option<u64>,
}

impl Default for CeftConfig {
    fn default() -> Self {
        CeftConfig {
            stripe_size: 64 << 10,
            meta_service: SimTime::from_micros(450),
            heartbeat: SimTime::from_secs(5),
            iod_overhead: SimTime::from_millis(3),
            read_mode: ReadMode::DualHalf,
            write_protocol: WriteProtocol::ClientDuplex,
            policy: SkipPolicy::default(),
            resync_rate: None,
        }
    }
}

impl Ceft {
    /// Deploy CEFT-PVFS: metadata server on `meta_node`, data servers on
    /// `primary_nodes` mirrored by `mirror_nodes` (equal length, layout
    /// order). Load monitors start heartbeating immediately.
    pub fn deploy(
        eng: &mut Engine<Ev>,
        cluster: &Cluster,
        meta_node: u32,
        primary_nodes: &[u32],
        mirror_nodes: &[u32],
        cfg: &CeftConfig,
    ) -> Ceft {
        assert_eq!(
            primary_nodes.len(),
            mirror_nodes.len(),
            "mirror group must match primary group"
        );
        assert!(!primary_nodes.is_empty(), "CEFT needs data servers");
        let mut meta_comp = CeftMeta::new(
            "ceft.meta",
            meta_node,
            cluster.net,
            cfg.meta_service,
            cfg.policy.clone(),
        );
        meta_comp.set_heartbeat(cfg.heartbeat);
        let meta = eng.add(meta_comp);
        // Dead-server sweep rides the same heartbeat cadence as the load
        // reports it watches for.
        eng.schedule(cfg.heartbeat, meta, Ev::Timer(0));
        let meta_addr = (meta_node, meta);
        let mut monitors = Vec::new();
        let mut deploy_group = |eng: &mut Engine<Ev>, nodes: &[u32], group: u8| {
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let node = &cluster.nodes[n as usize];
                    let mut daemon =
                        Iod::new(format!("ceft.iod.g{group}.{i}"), n, node.fs, cluster.net);
                    daemon.set_overhead(cfg.iod_overhead);
                    let iod = eng.add(daemon);
                    let gauge = eng.component::<Disk>(node.disk).gauge();
                    let mon = eng.add(LoadMonitor::new(
                        format!("ceft.mon.g{group}.{i}"),
                        ServerId {
                            group,
                            index: i as u32,
                        },
                        n,
                        cluster.net,
                        meta_addr,
                        gauge,
                        cfg.heartbeat,
                    ));
                    monitors.push(mon);
                    eng.schedule(SimTime::ZERO, mon, Ev::Timer(0));
                    (n, iod)
                })
                .collect::<Vec<_>>()
        };
        let primary = deploy_group(eng, primary_nodes, 0);
        let mirror = deploy_group(eng, mirror_nodes, 1);
        if let Some(rate) = cfg.resync_rate {
            eng.component_mut::<CeftMeta>(meta)
                .set_rebuild(rate, primary.clone(), mirror.clone());
        }
        let placement = MirroredPlacement::new(
            primary.clone(),
            mirror.clone(),
            cfg.read_mode,
            cfg.write_protocol,
        );
        Ceft {
            meta: meta_addr,
            primary,
            mirror,
            monitors,
            stripe_size: cfg.stripe_size,
            placement,
            net: cluster.net,
        }
    }

    /// Register a file with the metadata server (setup-time).
    pub fn register_file(&self, eng: &mut Engine<Ev>, file: u64, size: u64) {
        let layout = MirroredLayout::new(self.stripe_size, self.primary.len() as u32);
        eng.component_mut::<CeftMeta>(self.meta.1)
            .register(file, layout, size);
    }

    /// Create a client component on `node`.
    pub fn add_client(&self, eng: &mut Engine<Ev>, node: u32) -> CompId {
        eng.add(CeftClient::new(
            format!("ceft.client{node}"),
            node,
            self.net,
            self.meta,
            self.placement.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_hwsim::{start_stressor, DiskStressor, Envelope, HwParams, StressorConfig, MIB};
    use parblast_pvfs::{ClientReq, ClientResp};
    use parblast_simcore::{Component, Ctx};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Scripted application: open, then chain reads.
    struct App {
        client: CompId,
        file: u64,
        reads: Vec<(u64, u64)>,
        next: usize,
        log: Rc<RefCell<Vec<(SimTime, ClientResp)>>>,
    }
    impl Component<Ev> for App {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            match ev {
                Ev::Timer(_) => {
                    let me = ctx.self_id();
                    ctx.send(
                        self.client,
                        Ev::User(Envelope::local(ClientReq::Open {
                            file: self.file,
                            reply_to: me,
                            tag: 0,
                        })),
                    );
                }
                Ev::User(env) => {
                    let resp: ClientResp = env.expect();
                    self.log.borrow_mut().push((ctx.now(), resp));
                    if self.next < self.reads.len() {
                        let (offset, len) = self.reads[self.next];
                        self.next += 1;
                        let me = ctx.self_id();
                        ctx.send(
                            self.client,
                            Ev::User(Envelope::local(ClientReq::Read {
                                file: self.file,
                                offset,
                                len,
                                reply_to: me,
                                tag: self.next as u64,
                            })),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    fn seq_reads(total: u64, chunk: u64) -> Vec<(u64, u64)> {
        (0..total.div_ceil(chunk))
            .map(|i| (i * chunk, chunk.min(total - i * chunk)))
            .collect()
    }

    /// 4+4 CEFT deployment with a client on node 8; returns (read seconds,
    /// skipped part count).
    fn ceft_read_time(stress_node: Option<u32>, total: u64) -> (f64, u64) {
        let mut eng: Engine<Ev> = Engine::new(3);
        let cluster = Cluster::build(&mut eng, 9, HwParams::default());
        let ceft = Ceft::deploy(
            &mut eng,
            &cluster,
            8,
            &[0, 1, 2, 3],
            &[4, 5, 6, 7],
            &CeftConfig::default(),
        );
        ceft.register_file(&mut eng, 1, total);
        let client = ceft.add_client(&mut eng, 8);
        if let Some(n) = stress_node {
            let st = eng.add(DiskStressor::new(
                "stress",
                cluster.nodes[n as usize].fs,
                StressorConfig::default(),
            ));
            start_stressor(&mut eng, st, SimTime::ZERO);
        }
        let log = Rc::new(RefCell::new(vec![]));
        let app = eng.add(App {
            client,
            file: 1,
            reads: seq_reads(total, 8 * MIB),
            next: 0,
            log: log.clone(),
        });
        // Start after the skip policy has had a chance to see reports.
        eng.schedule(SimTime::from_secs(10), app, Ev::Timer(0));
        eng.run_until(SimTime::from_secs(4000));
        let v = log.borrow();
        let t_open = v[0].0;
        let t_done = v.last().unwrap().0;
        let skipped = eng
            .component::<CeftClient>(client)
            .placement()
            .skipped_parts();
        (t_done.saturating_sub(t_open).as_secs_f64(), skipped)
    }

    #[test]
    fn dual_half_read_uses_all_eight_servers() {
        let mut eng: Engine<Ev> = Engine::new(3);
        let cluster = Cluster::build(&mut eng, 9, HwParams::default());
        let ceft = Ceft::deploy(
            &mut eng,
            &cluster,
            8,
            &[0, 1, 2, 3],
            &[4, 5, 6, 7],
            &CeftConfig::default(),
        );
        ceft.register_file(&mut eng, 1, 64 * MIB);
        let client = ceft.add_client(&mut eng, 8);
        let log = Rc::new(RefCell::new(vec![]));
        let app = eng.add(App {
            client,
            file: 1,
            reads: vec![(0, 64 * MIB)],
            next: 0,
            log: log.clone(),
        });
        eng.schedule(SimTime::ZERO, app, Ev::Timer(0));
        eng.run_until(SimTime::from_secs(100));
        for &(_, iod) in ceft.primary.iter().chain(&ceft.mirror) {
            let (reads, bytes, _, _) = eng.component::<Iod>(iod).stats();
            assert!(reads >= 1, "every server participates");
            assert_eq!(bytes, 8 * MIB, "each of 8 servers serves 1/8");
        }
    }

    #[test]
    fn stressed_server_is_skipped_and_read_survives() {
        let total = 256 * MIB;
        let (t_clean, skipped_clean) = ceft_read_time(None, total);
        let (t_stressed, skipped_stressed) = ceft_read_time(Some(2), total);
        assert_eq!(skipped_clean, 0);
        assert!(skipped_stressed > 0, "hot server must be skipped");
        // Degradation stays small — the paper's factor ~2, nowhere near
        // PVFS's collapse.
        let factor = t_stressed / t_clean;
        assert!(factor < 4.0, "factor = {factor}");
        // With detection complete before the read starts, the redirected
        // read can be nearly as fast as the clean one.
        assert!(factor > 0.9, "factor = {factor}");
    }

    /// Drive one 4 MiB write through a given protocol; returns
    /// (ack latency seconds, client-node tx bytes, per-group iod write byte
    /// totals).
    fn write_with_protocol(protocol: WriteProtocol) -> (f64, u64, (u64, u64)) {
        let mut eng: Engine<Ev> = Engine::new(3);
        let cluster = Cluster::build(&mut eng, 9, HwParams::default());
        let ceft = Ceft::deploy(
            &mut eng,
            &cluster,
            8,
            &[0, 1],
            &[2, 3],
            &CeftConfig {
                write_protocol: protocol,
                ..CeftConfig::default()
            },
        );
        ceft.register_file(&mut eng, 1, 16 * MIB);
        let client = ceft.add_client(&mut eng, 8);
        struct W {
            client: CompId,
            done_at: Rc<RefCell<Option<SimTime>>>,
        }
        impl Component<Ev> for W {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
                match ev {
                    Ev::Timer(_) => {
                        let me = ctx.self_id();
                        ctx.send(
                            self.client,
                            Ev::User(Envelope::local(ClientReq::Open {
                                file: 1,
                                reply_to: me,
                                tag: 0,
                            })),
                        );
                    }
                    Ev::User(env) => match env.expect::<ClientResp>() {
                        ClientResp::OpenDone { .. } => {
                            let me = ctx.self_id();
                            ctx.send(
                                self.client,
                                Ev::User(Envelope::local(ClientReq::Write {
                                    file: 1,
                                    offset: 0,
                                    len: 4 * MIB,
                                    reply_to: me,
                                    tag: 1,
                                })),
                            );
                        }
                        ClientResp::WriteDone { .. } => {
                            *self.done_at.borrow_mut() = Some(ctx.now());
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
        }
        let done_at = Rc::new(RefCell::new(None));
        let w = eng.add(W {
            client,
            done_at: done_at.clone(),
        });
        eng.schedule(SimTime::ZERO, w, Ev::Timer(0));
        eng.run_until(SimTime::from_secs(120));
        let latency = done_at.borrow().expect("write acked").as_secs_f64();
        let tx = eng
            .component::<parblast_hwsim::Network>(cluster.net)
            .nic_bytes(8)
            .0;
        let group_bytes = |grp: &[(u32, CompId)]| -> u64 {
            grp.iter()
                .map(|&(_, id)| eng.component::<Iod>(id).stats().3)
                .sum()
        };
        (
            latency,
            tx,
            (group_bytes(&ceft.primary), group_bytes(&ceft.mirror)),
        )
    }

    #[test]
    fn all_write_protocols_duplicate_the_data() {
        for protocol in [
            WriteProtocol::ClientDuplex,
            WriteProtocol::ServerSync,
            WriteProtocol::ServerAsync,
        ] {
            let (_, _, (p, m)) = write_with_protocol(protocol);
            assert_eq!(p, 4 * MIB, "{protocol:?}: primary bytes");
            assert_eq!(m, 4 * MIB, "{protocol:?}: mirror bytes");
        }
    }

    #[test]
    fn server_protocols_halve_client_traffic() {
        let (_, tx_dup, _) = write_with_protocol(WriteProtocol::ClientDuplex);
        let (_, tx_srv, _) = write_with_protocol(WriteProtocol::ServerSync);
        assert!(
            tx_dup > tx_srv + 3 * MIB,
            "client duplex tx {tx_dup} vs server duplex {tx_srv}"
        );
    }

    #[test]
    fn async_acks_faster_than_sync_forwarding() {
        let (t_sync, _, _) = write_with_protocol(WriteProtocol::ServerSync);
        let (t_async, _, _) = write_with_protocol(WriteProtocol::ServerAsync);
        assert!(
            t_async < t_sync,
            "async {t_async} should ack before sync {t_sync}"
        );
    }

    #[test]
    fn duplex_write_hits_both_groups() {
        let mut eng: Engine<Ev> = Engine::new(3);
        let cluster = Cluster::build(&mut eng, 9, HwParams::default());
        let ceft = Ceft::deploy(
            &mut eng,
            &cluster,
            8,
            &[0, 1],
            &[2, 3],
            &CeftConfig::default(),
        );
        ceft.register_file(&mut eng, 1, 16 * MIB);
        let client = ceft.add_client(&mut eng, 8);
        struct W {
            client: CompId,
            done: Rc<RefCell<bool>>,
        }
        impl Component<Ev> for W {
            fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
                match ev {
                    Ev::Timer(_) => {
                        let me = ctx.self_id();
                        ctx.send(
                            self.client,
                            Ev::User(Envelope::local(ClientReq::Open {
                                file: 1,
                                reply_to: me,
                                tag: 0,
                            })),
                        );
                    }
                    Ev::User(env) => match env.expect::<ClientResp>() {
                        ClientResp::OpenDone { .. } => {
                            let me = ctx.self_id();
                            ctx.send(
                                self.client,
                                Ev::User(Envelope::local(ClientReq::Write {
                                    file: 1,
                                    offset: 0,
                                    len: 4 * MIB,
                                    reply_to: me,
                                    tag: 1,
                                })),
                            );
                        }
                        ClientResp::WriteDone { len, .. } => {
                            assert_eq!(len, 4 * MIB);
                            *self.done.borrow_mut() = true;
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
        }
        let done = Rc::new(RefCell::new(false));
        let w = eng.add(W {
            client,
            done: done.clone(),
        });
        eng.schedule(SimTime::ZERO, w, Ev::Timer(0));
        eng.run_until(SimTime::from_secs(60));
        assert!(*done.borrow());
        // Every server in both groups got half the extent.
        for &(_, iod) in ceft.primary.iter().chain(&ceft.mirror) {
            let (_, _, w, bw) = eng.component::<Iod>(iod).stats();
            assert_eq!(w, 1);
            assert_eq!(bw, 2 * MIB);
        }
    }
}
