//! # parblast-hwsim
//!
//! Calibrated hardware models of the PrairieFire cluster (CLUSTER 2003):
//! IDE disks with an elevator scheduler, a Myrinet/TCP interconnect, dual
//! Athlon CPUs under processor sharing, a per-node page cache with
//! read-ahead, and the paper's Figure 8 disk stressor.
//!
//! Calibration anchors (paper §4.1):
//!
//! * Bonnie: 26 MB/s sequential read, 32 MB/s sequential write;
//! * Netperf: ≈112 MB/s TCP over Myrinet at 47 % CPU utilization;
//! * 2 CPUs and 2 GB RAM per node.
//!
//! Higher layers (simulated PVFS, CEFT-PVFS, parallel BLAST) talk to these
//! components through the unified [`event::Ev`] type and ship their own
//! protocol messages inside [`event::Envelope`]s.

#![warn(missing_docs)]

pub mod arrivals;
pub mod cache;
pub mod cluster;
pub mod cpu;
pub mod disk;
pub mod event;
pub mod fault;
pub mod localfs;
pub mod net;
pub mod params;
pub mod stressor;

pub use arrivals::poisson_arrivals;
pub use cache::{BlockKey, PageCache};
pub use cluster::{Cluster, NodeIds};
pub use cpu::Cpu;
pub use disk::{Disk, DiskGauge};
pub use event::{
    CpuDone, CpuMsg, DiskCtl, DiskDone, DiskOp, DiskReq, Envelope, Ev, FaultCmd, FsDone, FsMsg,
    NetFaultMode, NetFaultRule, NetSend,
};
pub use fault::{
    Fault, FaultEvent, FaultInjector, FaultSchedule, SocketChaosProfile, SocketDir, SocketFault,
    SocketFaultKind, SocketFaultSchedule,
};
pub use localfs::{file_pos, LocalFs};
pub use net::Network;
pub use params::{DiskParams, HwParams, NetParams, NodeParams, GIB, KIB, MIB};
pub use stressor::{start_stressor, DiskStressor, StressorConfig};
