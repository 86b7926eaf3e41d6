//! # parblast-pvfs
//!
//! Simulated PVFS (Parallel Virtual File System, Carns et al. 2000) as
//! deployed in the paper: one metadata server, N I/O daemons striping file
//! data round-robin in 64 KB units, and a client library that fans each
//! request out to all involved servers in parallel.
//!
//! The simulation captures the properties the paper measures:
//!
//! * aggregate read bandwidth scales with the number of data servers until
//!   the client NIC saturates;
//! * every byte crosses the TCP stack (costing CPU at both endpoints) and
//!   the metadata server adds an open round-trip — the overheads that make
//!   PVFS *slower* than local disks at one node (Figure 5);
//! * there is exactly one copy of the data, so a single stressed server
//!   disk convoys every client (Figure 9).

#![warn(missing_docs)]

pub mod client;
pub mod iod;
pub mod meta;
pub mod msg;
pub mod retry;

/// Stripe layout mathematics (shared with the real `parblast-pio` library).
pub mod layout {
    pub use parblast_pio::layout::{LocalRange, StripeLayout};
}

pub use client::{Client, Placement, PvfsClient, ServerAddr, StripedPlacement};
pub use iod::Iod;
pub use layout::{LocalRange, StripeLayout};
pub use meta::{FileMeta, MetaServer};
pub use msg::{
    list_req_wire_bytes, validate_regions, ClientReq, ClientResp, IoError, IodRead, IodReadList,
    IodReadListResp, IodReadResp, IodWrite, IodWriteResp, ListFrameError, MetaOpen, MetaOpenResp,
    Region, CTRL_BYTES, LIST_REGION_CAP,
};
pub use retry::{backoff_delay, RetryPolicy};

use parblast_hwsim::{Cluster, Ev};
use parblast_simcore::{CompId, Engine, SimTime};

/// A deployed PVFS instance: component ids of the metadata server and iods.
#[derive(Debug, Clone)]
pub struct Pvfs {
    /// Metadata server address.
    pub meta: ServerAddr,
    /// Data servers in layout order.
    pub iods: Vec<ServerAddr>,
    /// Stripe size used for new files.
    pub stripe_size: u64,
    net: CompId,
}

impl Pvfs {
    /// Deploy PVFS on `cluster`: the metadata server on node `meta_node`,
    /// one iod on each node in `server_nodes` (layout order).
    pub fn deploy(
        eng: &mut Engine<Ev>,
        cluster: &Cluster,
        meta_node: u32,
        server_nodes: &[u32],
        stripe_size: u64,
    ) -> Pvfs {
        assert!(!server_nodes.is_empty(), "PVFS needs data servers");
        let meta = eng.add(MetaServer::new(
            "pvfs.meta",
            meta_node,
            cluster.net,
            SimTime::from_micros(300),
        ));
        let iods = server_nodes
            .iter()
            .map(|&n| {
                let node = &cluster.nodes[n as usize];
                let iod = eng.add(Iod::new(format!("pvfs.iod{n}"), n, node.fs, cluster.net));
                (n, iod)
            })
            .collect();
        Pvfs {
            meta: (meta_node, meta),
            iods,
            stripe_size,
            net: cluster.net,
        }
    }

    /// Register a file with the metadata server (setup-time, not simulated).
    pub fn register_file(&self, eng: &mut Engine<Ev>, file: u64, size: u64) {
        let layout = StripeLayout::new(self.stripe_size, self.iods.len() as u32);
        eng.component_mut::<MetaServer>(self.meta.1)
            .register(file, layout, size);
    }

    /// Create a client component on `node`.
    pub fn add_client(&self, eng: &mut Engine<Ev>, node: u32) -> CompId {
        eng.add(PvfsClient::new(
            format!("pvfs.client{node}"),
            node,
            self.net,
            self.meta,
            StripedPlacement::new(self.iods.clone()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_hwsim::{Envelope, HwParams, MIB};
    use parblast_simcore::{Component, Ctx};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Scripted application: open file, then issue a sequence of reads.
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

    /// Time to read `total` bytes once, sequentially in `chunk`-sized reads,
    /// with `servers` data servers (client on the last node).
    fn read_once(servers: u32, total: u64, chunk: u64) -> f64 {
        let mut eng: Engine<Ev> = Engine::new(7);
        let n = servers as usize + 1;
        let cluster = Cluster::build(&mut eng, n, HwParams::default());
        let server_nodes: Vec<u32> = (0..servers).collect();
        let pvfs = Pvfs::deploy(&mut eng, &cluster, 0, &server_nodes, 64 << 10);
        pvfs.register_file(&mut eng, 1, total);
        let client = pvfs.add_client(&mut eng, servers);
        let log = Rc::new(RefCell::new(vec![]));
        let reads = (0..total.div_ceil(chunk))
            .map(|i| (i * chunk, chunk.min(total - i * chunk)))
            .collect();
        let app = eng.add(App {
            client,
            file: 1,
            reads,
            next: 0,
            log: log.clone(),
        });
        eng.schedule(SimTime::ZERO, app, Ev::Timer(0));
        eng.run();
        let t = log.borrow().last().unwrap().0.as_secs_f64();
        t
    }

    #[test]
    fn striped_read_scales_with_servers() {
        let total = 64 * MIB;
        let t1 = read_once(1, total, 4 * MIB);
        let t4 = read_once(4, total, 4 * MIB);
        let bw1 = total as f64 / MIB as f64 / t1;
        let bw4 = total as f64 / MIB as f64 / t4;
        // One server ≈ one disk (26); four servers well above.
        assert!(bw1 > 15.0 && bw1 < 27.0, "bw1 = {bw1}");
        assert!(bw4 > 2.2 * bw1, "bw4 = {bw4} vs bw1 = {bw1}");
    }

    #[test]
    fn many_servers_cap_at_client_nic() {
        let total = 128 * MIB;
        let t8 = read_once(8, total, 8 * MIB);
        let bw8 = total as f64 / MIB as f64 / t8;
        // 8 disks could source 208 MB/s but the client NIC is ~112 MB/s
        // (minus store-and-forward and per-request costs).
        assert!(bw8 < 115.0, "bw8 = {bw8}");
        assert!(bw8 > 50.0, "bw8 = {bw8}");
    }

    #[test]
    fn open_costs_a_round_trip() {
        let mut eng: Engine<Ev> = Engine::new(7);
        let cluster = Cluster::build(&mut eng, 3, HwParams::default());
        let pvfs = Pvfs::deploy(&mut eng, &cluster, 0, &[0, 1], 64 << 10);
        pvfs.register_file(&mut eng, 1, MIB);
        let client = pvfs.add_client(&mut eng, 2);
        let log = Rc::new(RefCell::new(vec![]));
        let app = eng.add(App {
            client,
            file: 1,
            reads: vec![],
            next: 0,
            log: log.clone(),
        });
        eng.schedule(SimTime::ZERO, app, Ev::Timer(0));
        eng.run();
        let v = log.borrow();
        assert_eq!(v.len(), 1);
        match &v[0].1 {
            ClientResp::OpenDone { latency, .. } => {
                assert!(latency.as_secs_f64() > 300e-6);
                assert!(latency.as_secs_f64() < 5e-3);
            }
            other => panic!("expected OpenDone, got {other:?}"),
        }
    }

    #[test]
    fn tiny_read_touches_single_server() {
        // A 13-byte read (paper's minimum) only involves one iod.
        let mut eng: Engine<Ev> = Engine::new(7);
        let cluster = Cluster::build(&mut eng, 5, HwParams::default());
        let pvfs = Pvfs::deploy(&mut eng, &cluster, 0, &[0, 1, 2, 3], 64 << 10);
        pvfs.register_file(&mut eng, 1, MIB);
        let client = pvfs.add_client(&mut eng, 4);
        let log = Rc::new(RefCell::new(vec![]));
        let app = eng.add(App {
            client,
            file: 1,
            reads: vec![(100, 13)],
            next: 0,
            log: log.clone(),
        });
        eng.schedule(SimTime::ZERO, app, Ev::Timer(0));
        eng.run();
        let served: u64 = pvfs
            .iods
            .iter()
            .map(|&(_, id)| eng.component::<Iod>(id).stats().0)
            .sum();
        assert_eq!(served, 1);
    }

    #[test]
    fn writes_stripe_across_servers() {
        let mut eng: Engine<Ev> = Engine::new(7);
        let cluster = Cluster::build(&mut eng, 5, HwParams::default());
        let pvfs = Pvfs::deploy(&mut eng, &cluster, 0, &[0, 1, 2, 3], 64 << 10);
        pvfs.register_file(&mut eng, 1, 16 * MIB);
        let client = pvfs.add_client(&mut eng, 4);
        struct W {
            client: CompId,
            done: Rc<RefCell<Option<ClientResp>>>,
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
                    Ev::User(env) => {
                        let resp: ClientResp = env.expect();
                        match resp {
                            ClientResp::OpenDone { .. } => {
                                let me = ctx.self_id();
                                ctx.send(
                                    self.client,
                                    Ev::User(Envelope::local(ClientReq::Write {
                                        file: 1,
                                        offset: 0,
                                        len: 8 * MIB,
                                        reply_to: me,
                                        tag: 1,
                                    })),
                                );
                            }
                            done => *self.done.borrow_mut() = Some(done),
                        }
                    }
                    _ => {}
                }
            }
        }
        let done = Rc::new(RefCell::new(None));
        let w = eng.add(W {
            client,
            done: done.clone(),
        });
        eng.schedule(SimTime::ZERO, w, Ev::Timer(0));
        eng.run();
        match done.borrow().as_ref() {
            Some(ClientResp::WriteDone { len, .. }) => assert_eq!(*len, 8 * MIB),
            other => panic!("expected WriteDone, got {other:?}"),
        }
        for &(_, id) in &pvfs.iods {
            let (_, _, w, bw) = eng.component::<Iod>(id).stats();
            assert_eq!(w, 1);
            assert_eq!(bw, 2 * MIB);
        }
    }
}
