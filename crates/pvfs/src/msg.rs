//! PVFS protocol messages.
//!
//! These travel inside [`parblast_hwsim::Envelope`]s — over the simulated
//! network between nodes, or as local sends between an application and its
//! node's client component.

use parblast_simcore::{CompId, SimTime};

use crate::layout::StripeLayout;

/// Approximate wire size of a control message (request headers, acks).
pub const CTRL_BYTES: u64 = 128;

/// Most regions a data server packs into one [`IodReadListResp`] batch.
/// Longer lists are split automatically: the daemon streams back batches
/// of at most this many regions, each flagged `done: false` until the
/// final one. Bounding the batch keeps any single response (and the
/// buffer it describes) a few megabytes at the 64 KB stripe size.
pub const LIST_REGION_CAP: usize = 32;

/// One `(offset, len)` region of a list-I/O request. Offsets are
/// server-local for [`IodReadList`] and logical for
/// [`ClientReq::ReadList`]; either way a valid list is sorted by offset,
/// free of overlaps, and contains no zero-length regions
/// (see [`validate_regions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Byte offset of the region.
    pub offset: u64,
    /// Length in bytes (never zero in a valid list).
    pub len: u64,
}

impl Region {
    /// Shorthand constructor.
    pub fn new(offset: u64, len: u64) -> Self {
        Region { offset, len }
    }
}

/// Why a region list was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListFrameError {
    /// The list carries no regions at all.
    Empty,
    /// Region at this index has `len == 0`.
    ZeroLen(usize),
    /// Region at this index starts before the previous region.
    Unsorted(usize),
    /// Region at this index overlaps the previous region.
    Overlap(usize),
}

impl std::fmt::Display for ListFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListFrameError::Empty => write!(f, "region list is empty"),
            ListFrameError::ZeroLen(i) => write!(f, "region {i} has zero length"),
            ListFrameError::Unsorted(i) => write!(f, "region {i} is out of order"),
            ListFrameError::Overlap(i) => write!(f, "region {i} overlaps its predecessor"),
        }
    }
}

/// Check that `regions` form a valid list: non-empty, every region
/// non-zero length, sorted by offset, no overlaps. Adjacent regions are
/// legal (the requester may keep stripe boundaries visible).
pub fn validate_regions(regions: &[Region]) -> Result<(), ListFrameError> {
    if regions.is_empty() {
        return Err(ListFrameError::Empty);
    }
    let mut end = 0u64;
    for (i, r) in regions.iter().enumerate() {
        if r.len == 0 {
            return Err(ListFrameError::ZeroLen(i));
        }
        if i > 0 {
            if r.offset < regions[i - 1].offset {
                return Err(ListFrameError::Unsorted(i));
            }
            if r.offset < end {
                return Err(ListFrameError::Overlap(i));
            }
        }
        end = r.offset + r.len;
    }
    Ok(())
}

/// Wire size of a `ReadList` request carrying `regions` regions: a
/// 33-byte header (magic `u32`, version `u8`, token, file and first
/// `u64`, count `u32`) plus 16 bytes per region (offset and len `u64`).
/// This is what a client charges the network for one aggregated request
/// (instead of [`CTRL_BYTES`] per stripe).
pub fn list_req_wire_bytes(regions: usize) -> u64 {
    33 + 16 * regions as u64
}

/// Application-facing request to a PVFS client component.
#[derive(Debug, Clone)]
pub enum ClientReq {
    /// Open `file`: fetches the stripe layout from the metadata server.
    Open {
        /// Global file id.
        file: u64,
        /// Completion recipient.
        reply_to: CompId,
        /// Correlation tag echoed in [`ClientResp`].
        tag: u64,
    },
    /// Read a logical extent in parallel from all involved data servers.
    Read {
        /// Global file id (must be open).
        file: u64,
        /// Logical offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
        /// Completion recipient.
        reply_to: CompId,
        /// Correlation tag.
        tag: u64,
    },
    /// Read a *list* of logical extents with one aggregated request per
    /// involved data server (list I/O). Equivalent to issuing one
    /// [`ClientReq::Read`] per region, but the per-server stripe lists
    /// are shipped as single [`IodReadList`] requests, so the request
    /// count collapses from regions × servers to at most one per server.
    ReadList {
        /// Global file id (must be open).
        file: u64,
        /// Logical regions to read (validated; must be sorted and
        /// non-overlapping).
        regions: Vec<Region>,
        /// Completion recipient.
        reply_to: CompId,
        /// Correlation tag.
        tag: u64,
    },
    /// Write a logical extent (striped across the data servers).
    Write {
        /// Global file id (must be open).
        file: u64,
        /// Logical offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
        /// Completion recipient.
        reply_to: CompId,
        /// Correlation tag.
        tag: u64,
    },
}

/// Why a client operation failed (surfaced instead of hanging when a
/// server stops answering and retries are exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// A data server never acknowledged a request, through all retries.
    DataServerTimeout,
    /// The metadata server never answered the open, through all retries.
    MetaTimeout,
    /// A data server delivered bytes whose stripe checksum failed and no
    /// redundant copy exists. Unlike the timeout variants this is **not
    /// retryable**: re-reading the same platter returns the same bad bytes,
    /// so the client fails the operation immediately instead of burning its
    /// retry/backoff budget.
    Corrupt,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::DataServerTimeout => write!(f, "data server timed out"),
            IoError::MetaTimeout => write!(f, "metadata server timed out"),
            IoError::Corrupt => write!(f, "stripe checksum mismatch (unrecoverable corruption)"),
        }
    }
}

/// Application-facing completion from a PVFS client component.
#[derive(Debug, Clone)]
pub enum ClientResp {
    /// Open finished.
    OpenDone {
        /// Echoed tag.
        tag: u64,
        /// End-to-end latency.
        latency: SimTime,
    },
    /// Read finished (all servers delivered).
    ReadDone {
        /// Echoed tag.
        tag: u64,
        /// End-to-end latency.
        latency: SimTime,
        /// Bytes transferred.
        len: u64,
    },
    /// Write finished (all servers acknowledged).
    WriteDone {
        /// Echoed tag.
        tag: u64,
        /// End-to-end latency.
        latency: SimTime,
        /// Bytes transferred.
        len: u64,
    },
    /// The operation failed: a server stopped answering and every retry
    /// timed out. The request is abandoned; the application decides
    /// whether to abort or reassign the work.
    Error {
        /// Echoed tag.
        tag: u64,
        /// What went wrong.
        error: IoError,
    },
}

/// Open request to the metadata server.
#[derive(Debug, Clone)]
pub struct MetaOpen {
    /// Global file id.
    pub file: u64,
    /// Requesting component.
    pub reply: CompId,
    /// Requesting component's node (for the reply route).
    pub reply_node: u32,
    /// Correlation token.
    pub token: u64,
}

/// Open response from the metadata server.
#[derive(Debug, Clone)]
pub struct MetaOpenResp {
    /// Echoed token.
    pub token: u64,
    /// Stripe layout of the file.
    pub layout: StripeLayout,
    /// File size in bytes.
    pub size: u64,
}

/// Read request to a data server (iod), in server-local coordinates.
#[derive(Debug, Clone)]
pub struct IodRead {
    /// Global file id.
    pub file: u64,
    /// Offset within the server's local portion.
    pub offset: u64,
    /// Length of the contiguous local range.
    pub len: u64,
    /// Requesting component.
    pub reply: CompId,
    /// Requesting component's node.
    pub reply_node: u32,
    /// Correlation token.
    pub token: u64,
}

/// Read response from a data server (carries `len` data bytes on the wire).
#[derive(Debug, Clone)]
pub struct IodReadResp {
    /// Echoed token.
    pub token: u64,
    /// Bytes delivered.
    pub len: u64,
    /// Local stripe indices inside the served range whose checksum failed
    /// verification (empty = clean data). The daemon still ships the bytes;
    /// the client decides whether to fail the operation (PVFS) or re-fetch
    /// from the mirror partner and repair (CEFT-PVFS).
    pub corrupt: Vec<u64>,
}

/// Aggregated list-I/O read request to a data server: every region the
/// requester wants from this server, in one message, in server-local
/// coordinates. The daemon streams the regions back **in list order** as
/// one or more [`IodReadListResp`] batches of at most
/// [`LIST_REGION_CAP`] regions each, paying its per-request fixed
/// overhead once for the whole list rather than once per region.
#[derive(Debug, Clone)]
pub struct IodReadList {
    /// Global file id.
    pub file: u64,
    /// Absolute index (in the requester's numbering) of `regions[0]`.
    /// A failover or retry resends only the unserved tail with `first`
    /// advanced, so late batches from the original attempt are
    /// recognized and dropped by their stale `first`.
    pub first: u64,
    /// Server-local regions, sorted and non-overlapping
    /// ([`validate_regions`] holds).
    pub regions: Vec<Region>,
    /// Requesting component.
    pub reply: CompId,
    /// Requesting component's node.
    pub reply_node: u32,
    /// Correlation token.
    pub token: u64,
}

/// One streamed batch of a list-I/O response (carries `len` data bytes
/// on the wire). The requester accepts a batch only when `first` matches
/// the count of regions it has already received for the token, which
/// makes duplicated or stale batches harmless.
#[derive(Debug, Clone)]
pub struct IodReadListResp {
    /// Echoed token.
    pub token: u64,
    /// Absolute index of the first region in this batch.
    pub first: u64,
    /// Regions delivered in this batch (≤ [`LIST_REGION_CAP`]).
    pub count: u64,
    /// Data bytes delivered in this batch.
    pub len: u64,
    /// True on the final batch of the request.
    pub done: bool,
    /// Local stripe indices inside this batch whose checksum failed
    /// (empty = clean). Same contract as [`IodReadResp::corrupt`].
    pub corrupt: Vec<u64>,
}

/// Write request to a data server (carries `len` data bytes on the wire).
#[derive(Debug, Clone)]
pub struct IodWrite {
    /// Global file id.
    pub file: u64,
    /// Offset within the server's local portion.
    pub offset: u64,
    /// Length of the contiguous local range.
    pub len: u64,
    /// Force each unit to the platter before acknowledging.
    pub sync: bool,
    /// Requesting component.
    pub reply: CompId,
    /// Requesting component's node.
    pub reply_node: u32,
    /// Correlation token.
    pub token: u64,
    /// Server-side mirroring (CEFT duplex write protocols): forward this
    /// write to the mirror partner at `(node, component)` after the local
    /// write.
    pub forward_to: Option<(u32, CompId)>,
    /// With `forward_to` set: acknowledge the client only after the mirror
    /// acknowledges (`true`, the safe server-duplex protocol) or right
    /// after the local write (`false`, the asynchronous protocol of \[7\]).
    pub forward_sync: bool,
}

/// Write acknowledgement from a data server.
#[derive(Debug, Clone)]
pub struct IodWriteResp {
    /// Echoed token.
    pub token: u64,
    /// Bytes written.
    pub len: u64,
}
