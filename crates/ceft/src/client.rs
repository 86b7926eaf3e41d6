//! CEFT-PVFS client: the PVFS request engine ([`parblast_pvfs::Client`])
//! with a mirrored placement.
//!
//! Same application-facing interface as the PVFS client
//! ([`parblast_pvfs::ClientReq`]/[`parblast_pvfs::ClientResp`]) so that the
//! simulated parallel BLAST can swap file systems without changing its own
//! logic. What the placement changes:
//!
//! * **Reads** follow the dual-half schedule: half of each request from the
//!   primary group, half from the mirror group (doubling parallelism), with
//!   hot or dead servers replaced by their mirror partners per the skip set
//!   pushed by the metadata server.
//! * **Writes** reach both groups, by the client or by the primary server
//!   per the [`WriteProtocol`].
//! * **Failover**: every server's mirror partner holds an identical copy,
//!   so a read part that times out or fails verification moves there.

use std::any::Any;

use parblast_pvfs::{Client, Placement, Region, ServerAddr, StripeLayout};
use parblast_simcore::CompId;

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

/// The CEFT-PVFS client component.
pub type CeftClient = Client<MirroredPlacement>;

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

/// CEFT-PVFS placement: a primary and a mirror group of data servers
/// holding identical stripes, the client's view of the skip and dead sets,
/// and the two client knobs.
#[derive(Debug, Clone)]
pub struct MirroredPlacement {
    /// `groups[g][i]` = address of server `i` in group `g`.
    groups: [Vec<ServerAddr>; 2],
    read_mode: ReadMode,
    write_protocol: WriteProtocol,
    skips: Vec<ServerId>,
    dead: Vec<ServerId>,
    /// Alternates which group serves the first half of successive reads.
    flip: bool,
    skipped_parts: u64,
}

impl MirroredPlacement {
    /// The two server groups (layout order) and the client knobs.
    pub fn new(
        primary: Vec<ServerAddr>,
        mirror: Vec<ServerAddr>,
        read_mode: ReadMode,
        write_protocol: WriteProtocol,
    ) -> Self {
        assert_eq!(primary.len(), mirror.len(), "groups must be equal-sized");
        MirroredPlacement {
            groups: [primary, mirror],
            read_mode,
            write_protocol,
            skips: Vec::new(),
            dead: Vec::new(),
            flip: false,
            skipped_parts: 0,
        }
    }

    /// Parts redirected away from hot or dead servers.
    pub fn skipped_parts(&self) -> u64 {
        self.skipped_parts
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

    /// The group serving the first half of the next read.
    fn next_first_group(&mut self) -> u8 {
        let g = u8::from(self.flip);
        self.flip = !self.flip;
        g
    }
}

impl Placement for MirroredPlacement {
    type Server = ServerId;
    type OpenResp = CeftOpenResp;

    fn addr(&self, s: ServerId) -> ServerAddr {
        self.groups[s.group as usize][s.index as usize]
    }

    fn open_request(&self, file: u64, reply: CompId, reply_node: u32, token: u64) -> Box<dyn Any> {
        Box::new(CeftOpen {
            file,
            reply,
            reply_node,
            token,
        })
    }

    fn open_token(resp: &CeftOpenResp) -> u64 {
        resp.token
    }

    fn opened(&mut self, resp: CeftOpenResp) -> StripeLayout {
        self.skips = resp.skips;
        self.dead = resp.dead;
        resp.layout.stripe
    }

    fn push(&mut self, msg: Box<dyn Any>) -> Result<(), Box<dyn Any>> {
        let u = msg.downcast::<SkipUpdate>()?;
        self.skips = u.skips;
        self.dead = u.dead;
        Ok(())
    }

    fn plan_read(
        &mut self,
        layout: &StripeLayout,
        offset: u64,
        len: u64,
    ) -> Vec<(ServerId, Region)> {
        let layout = MirroredLayout {
            stripe: layout.clone(),
        };
        let first_group = self.next_first_group();
        let avoid = self.avoid();
        let parts = match self.read_mode {
            ReadMode::DualHalf => layout.plan_read(offset, len, first_group, &avoid),
            ReadMode::PrimaryOnly => layout.plan_single_group(offset, len, 0, &avoid),
        };
        self.skipped_parts += parts.iter().filter(|p| p.redirected).count() as u64;
        parts
            .into_iter()
            .map(|p| (p.server, Region::new(p.local_offset, p.len)))
            .collect()
    }

    fn plan_list(
        &mut self,
        layout: &StripeLayout,
        regions: &[Region],
    ) -> Vec<(ServerId, Vec<Region>)> {
        let layout = MirroredLayout {
            stripe: layout.clone(),
        };
        let first_group = self.next_first_group();
        let avoid = self.avoid();
        // Dual-half over the whole list: split at the byte midpoint, first
        // portion from one group, rest from the other (all 2N servers
        // participate, like `plan_read`).
        let halves: [(Vec<Region>, u8); 2] = match self.read_mode {
            ReadMode::DualHalf => {
                let (a, b) = split_at_midpoint(regions);
                [(a, first_group), (b, 1 - first_group)]
            }
            ReadMode::PrimaryOnly => [(regions.to_vec(), 0), (Vec::new(), 0)],
        };
        // One list per physical server (lane `group * n + index`);
        // processing the halves in logical order keeps each server's list
        // sorted even under skip substitution.
        let n = layout.group_size() as usize;
        let mut lists: Vec<Vec<Region>> = vec![Vec::new(); 2 * n];
        for (half, group) in &halves {
            for lr in half {
                for p in layout.plan_single_group(lr.offset, lr.len, *group, &avoid) {
                    if p.redirected {
                        self.skipped_parts += 1;
                    }
                    let lane = p.server.group as usize * n + p.server.index as usize;
                    lists[lane].push(Region::new(p.local_offset, p.len));
                }
            }
        }
        lists
            .into_iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(lane, l)| {
                let server = ServerId {
                    group: (lane / n) as u8,
                    index: (lane % n) as u32,
                };
                (server, l)
            })
            .collect()
    }

    fn plan_write(&self, layout: &StripeLayout, offset: u64, len: u64) -> Vec<(ServerId, Region)> {
        let layout = MirroredLayout {
            stripe: layout.clone(),
        };
        // The extent reaches both groups in full: from the client under
        // the client duplex protocol, else by the primary's forward.
        let mut parts = layout.plan_single_group(offset, len, 0, &[]);
        if self.write_protocol == WriteProtocol::ClientDuplex {
            parts.extend(layout.plan_single_group(offset, len, 1, &[]));
        }
        parts
            .into_iter()
            .map(|p| (p.server, Region::new(p.local_offset, p.len)))
            .collect()
    }

    fn forward(&self, s: ServerId) -> Option<(ServerAddr, bool)> {
        match self.write_protocol {
            WriteProtocol::ClientDuplex => None,
            protocol => Some((
                self.addr(self.partner(s)?),
                protocol == WriteProtocol::ServerSync,
            )),
        }
    }

    fn partner(&self, s: ServerId) -> Option<ServerId> {
        Some(ServerId {
            group: 1 - s.group,
            index: s.index,
        })
    }
}
