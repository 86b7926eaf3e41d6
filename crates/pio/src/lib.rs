//! # parblast-pio
//!
//! A working user-space parallel-I/O library implementing the paper's three
//! data-access schemes against real files:
//!
//! * [`LocalStore`] — a plain directory (the original mpiBLAST "copy to
//!   local disk" scheme);
//! * [`StripedStore`] — PVFS-style RAID-0: 64 KB round-robin striping over
//!   N server directories, with one parallel reader thread per server;
//! * [`MirroredStore`] — CEFT-PVFS-style RAID-10: duplexed writes to a
//!   primary and a mirror group, dual-half reads that double the degree of
//!   parallelism, and latency-EWMA hot-spot detection that *skips* slow
//!   servers by redirecting their ranges to the mirror partner.
//!
//! The striping mathematics ([`layout`]) is shared with the simulated
//! PVFS/CEFT-PVFS crates, so the simulator and the real library cannot
//! drift apart.

#![warn(missing_docs)]

pub mod integrity;
pub mod layout;
pub mod mirrored;
pub mod pool;
pub mod store;
pub mod striped;

pub use integrity::{corrupt_stripe_of, crc32c, is_corrupt, CorruptStripe, ScrubTotals, Scrubber};
pub use layout::{LocalRange, MirroredLayout, ReadPart, ServerId, StripeLayout};
pub use mirrored::{HealthMonitor, MirroredReader, MirroredStore, ResyncReport, ResyncState};
pub use pool::{RateLimiter, ReaderPool};
pub use store::{copy_object, read_all, FileReader, LocalStore, ObjectReader, ObjectStore};
pub use striped::{StripedReader, StripedStore};
