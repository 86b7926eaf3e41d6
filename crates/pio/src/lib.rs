//! # parblast-pio
//!
//! A working user-space parallel-I/O library implementing the paper's three
//! data-access schemes against real files:
//!
//! * [`LocalStore`] — a plain directory (the original mpiBLAST "copy to
//!   local disk" scheme);
//! * [`StripedStore`] — PVFS-style RAID-0: 64 KB round-robin striping over
//!   N server directories, with one parallel reader thread per server;
//! * [`MirroredStore`] — CEFT-PVFS-style RAID-10: the same striping kept
//!   twice, in a primary and a mirror group, with dual-half reads that
//!   double the degree of parallelism and latency-based hot-spot detection
//!   that *skips* slow servers by redirecting their ranges to the mirror
//!   partner.
//!
//! The last two are one engine, [`Store`], that differs only in how many
//! copies it keeps: one put, read, verify and scrub path ([`engine`]).
//!
//! The striping mathematics ([`layout`]) is shared with the simulated
//! PVFS/CEFT-PVFS crates, so the simulator and the real library cannot
//! drift apart.

#![warn(missing_docs)]

pub mod engine;
pub mod integrity;
pub mod layout;
pub mod monitor;
pub mod pool;
pub mod store;

pub use engine::{MirroredStore, ResyncReport, Store, StripedStore};
pub use integrity::{corrupt_stripe_of, crc32c, is_corrupt, CorruptStripe, ScrubTotals, Scrubber};
pub use layout::{LocalRange, MirroredLayout, ReadPart, ServerId, StripeLayout};
pub use monitor::{HealthMonitor, ResyncState};
pub use pool::{RateLimiter, ReaderPool};
pub use store::{copy_object, read_all, LocalStore, ObjectReader, ObjectStore};
