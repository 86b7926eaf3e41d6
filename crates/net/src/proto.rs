//! The query-serving RPC wire protocol.
//!
//! Every message on a connection is one *frame*: a fixed 10-byte header —
//! magic `u32`, version `u8`, kind `u8`, payload length `u32`, all
//! little-endian — followed by exactly `payload length` bytes of
//! kind-specific payload. The framing is deliberately the same shape as
//! the `pvfs::msg::ReadList` format (magic/version/validate/decode), and
//! carries the same conformance obligations: decoders reject bad magic,
//! unknown versions and kinds, truncated frames, trailing garbage, and
//! any payload field outside its domain — a server never acts on a
//! malformed frame, and `tests/net.rs` pins the byte layout with golden
//! vectors exactly like `tests/listio.rs` does for `ReadList`.
//!
//! Client → server frames: [`Frame::Submit`], [`Frame::Cancel`],
//! [`Frame::Drain`], [`Frame::Stats`]. Server → client frames:
//! [`Frame::Result`], [`Frame::Shed`], [`Frame::DrainAck`],
//! [`Frame::StatsReply`]. A `Submit` is answered by exactly one `Result`
//! or one `Shed` (this is the zero-result-loss contract graceful drain
//! preserves).

use parblast_serve::Priority;

/// Magic number opening every frame (`"PBN1"` bytes, read as LE `u32`).
pub const NET_MAGIC: u32 = 0x314E_4250;

/// Current protocol version.
pub const NET_VERSION: u8 = 1;

/// Frame header size: magic (4) + version (1) + kind (1) + payload len (4).
pub const FRAME_HEADER_LEN: usize = 10;

/// Largest payload a peer will accept (guards the read buffer against a
/// hostile or corrupt length prefix).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Why a frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame does not start with [`NET_MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The buffer ended before the declared payload (or carries trailing
    /// garbage past it).
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// Priority byte outside `0..=2`.
    BadPriority(u8),
    /// Shed-reason byte outside its domain.
    BadReason(u8),
    /// Result-status byte outside its domain.
    BadStatus(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::TooLarge(n) => write!(f, "declared payload of {n} bytes exceeds cap"),
            FrameError::BadPriority(p) => write!(f, "priority byte {p} out of range"),
            FrameError::BadReason(r) => write!(f, "shed reason byte {r} out of range"),
            FrameError::BadStatus(s) => write!(f, "result status byte {s} out of range"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Why a submitted query was refused (the typed `Shed` responses the
/// admission layer returns instead of silently dropping work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The shard's admission queue is at capacity — back off and retry.
    QueueFull = 0,
    /// The tenant's token bucket is empty — the *tenant* is over quota,
    /// not the server. Retrying before `retry_after_us` just sheds again.
    QuotaExceeded = 1,
    /// The server is draining and accepts no new work.
    Draining = 2,
    /// The query's deadline passed while it waited in the queue.
    Expired = 3,
    /// The query was cancelled by a `Cancel` frame before it ran.
    Cancelled = 4,
}

impl ShedReason {
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            0 => ShedReason::QueueFull,
            1 => ShedReason::QuotaExceeded,
            2 => ShedReason::Draining,
            3 => ShedReason::Expired,
            4 => ShedReason::Cancelled,
            other => return Err(FrameError::BadReason(other)),
        })
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue full"),
            ShedReason::QuotaExceeded => write!(f, "tenant quota exceeded"),
            ShedReason::Draining => write!(f, "server draining"),
            ShedReason::Expired => write!(f, "deadline expired in queue"),
            ShedReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Outcome code carried by a `Result` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultStatus {
    /// The search ran; the payload is the rendered tabular report.
    Ok = 0,
    /// The search failed on unrecoverable data corruption
    /// (`pvfs::msg::IoError::Corrupt` semantics — **not retryable**:
    /// re-submitting reads the same bad platter bytes).
    Corrupt = 1,
    /// The search failed for any other reason; the payload is the error
    /// text. Retryable at the client's discretion.
    Failed = 2,
}

impl ResultStatus {
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            0 => ResultStatus::Ok,
            1 => ResultStatus::Corrupt,
            2 => ResultStatus::Failed,
            other => return Err(FrameError::BadStatus(other)),
        })
    }
}

/// A copy of the daemon's counters, served by the `Stats` frame: every
/// field is a sum over the shards' ledgers, each shard's counters copied
/// under its lock, so each shard's share is consistent (`net::server`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Submits accepted into an admission queue.
    pub accepted: u64,
    /// Results returned (every accepted query ends here or in
    /// `expired`/`cancelled`).
    pub served: u64,
    /// Sheds with [`ShedReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Sheds with [`ShedReason::QuotaExceeded`].
    pub shed_quota: u64,
    /// Sheds with [`ShedReason::Draining`].
    pub shed_draining: u64,
    /// Accepted queries whose deadline expired while queued.
    pub expired: u64,
    /// Accepted queries cancelled before execution.
    pub cancelled: u64,
    /// Scan-sharing batches executed.
    pub batches: u64,
    /// Database bytes the executed batches read.
    pub bytes_read: u64,
    /// Seed-scan kernel passes the executed batches ran (the fused
    /// multi-query kernel merges up to 8 queries into one pass per
    /// fragment).
    pub kernel_passes: u64,
    /// Kernel passes the fused kernel avoided versus per-query scanning.
    pub passes_saved: u64,
    /// Every decoded `Submit` frame, before any gate. The accounting
    /// identity `submits == accepted + shed_queue_full + shed_quota +
    /// shed_draining` holds at drain; combined with the accepted-side
    /// identity, `submits == served + shed + expired + cancelled`.
    pub submits: u64,
    /// Connections forcibly closed by the read-deadline (slowloris)
    /// guard.
    pub evicted: u64,
    /// Queries served by each shard, in shard order (the per-shard
    /// balance the bench reports).
    pub per_shard_served: Vec<u64>,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Submit a query for execution.
    Submit {
        /// Client-chosen id, echoed by the `Result`/`Shed` answer.
        /// Unique per connection.
        id: u64,
        /// Tenant the query bills to (quota bucket key).
        tenant: u32,
        /// Scheduling class.
        priority: Priority,
        /// Relative deadline in microseconds from arrival; 0 = none.
        deadline_us: u64,
        /// Encoded query residues.
        query: Vec<u8>,
    },
    /// Best-effort cancel of a still-queued submit (by id, same
    /// connection). Answered by a `Shed(Cancelled)` if it was dequeued in
    /// time; otherwise the `Result` arrives normally.
    Cancel {
        /// Id of the submit to cancel.
        id: u64,
    },
    /// Ask the server to drain: stop accepting, finish everything
    /// accepted, flush results, exit. Answered by a `DrainAck`.
    Drain,
    /// Ask for a counter snapshot. Answered by a `StatsReply`.
    Stats,
    /// A completed query.
    Result {
        /// Echoed submit id.
        id: u64,
        /// Outcome code.
        status: ResultStatus,
        /// Rendered tabular report ([`ResultStatus::Ok`]) or error text.
        payload: Vec<u8>,
    },
    /// A refused query.
    Shed {
        /// Echoed submit id.
        id: u64,
        /// Why it was refused.
        reason: ShedReason,
        /// Hint: microseconds until a retry could succeed (0 = unknown).
        retry_after_us: u64,
    },
    /// Drain accepted; the server exits once in-flight work flushes.
    DrainAck {
        /// Queries still queued or executing at the time of the ack —
        /// every one of them will still receive its `Result`.
        queued: u64,
    },
    /// Counter snapshot.
    StatsReply(StatsSnapshot),
}

const KIND_SUBMIT: u8 = 1;
const KIND_CANCEL: u8 = 2;
const KIND_DRAIN: u8 = 3;
const KIND_STATS: u8 = 4;
const KIND_RESULT: u8 = 5;
const KIND_SHED: u8 = 6;
const KIND_DRAIN_ACK: u8 = 7;
const KIND_STATS_REPLY: u8 = 8;

impl Frame {
    /// Frame kind byte as it appears on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Cancel { .. } => KIND_CANCEL,
            Frame::Drain => KIND_DRAIN,
            Frame::Stats => KIND_STATS,
            Frame::Result { .. } => KIND_RESULT,
            Frame::Shed { .. } => KIND_SHED,
            Frame::DrainAck { .. } => KIND_DRAIN_ACK,
            Frame::StatsReply(_) => KIND_STATS_REPLY,
        }
    }
}

fn priority_to_u8(p: Priority) -> u8 {
    match p {
        Priority::Interactive => 0,
        Priority::Normal => 1,
        Priority::Bulk => 2,
    }
}

fn priority_from_u8(b: u8) -> Result<Priority, FrameError> {
    Ok(match b {
        0 => Priority::Interactive,
        1 => Priority::Normal,
        2 => Priority::Bulk,
        other => return Err(FrameError::BadPriority(other)),
    })
}

/// Encode `frame` into a complete wire frame (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    match frame {
        Frame::Submit {
            id,
            tenant,
            priority,
            deadline_us,
            query,
        } => {
            payload.extend_from_slice(&id.to_le_bytes());
            payload.extend_from_slice(&tenant.to_le_bytes());
            payload.push(priority_to_u8(*priority));
            payload.extend_from_slice(&deadline_us.to_le_bytes());
            payload.extend_from_slice(&(query.len() as u32).to_le_bytes());
            payload.extend_from_slice(query);
        }
        Frame::Cancel { id } => payload.extend_from_slice(&id.to_le_bytes()),
        Frame::Drain | Frame::Stats => {}
        Frame::Result {
            id,
            status,
            payload: body,
        } => {
            payload.extend_from_slice(&id.to_le_bytes());
            payload.push(*status as u8);
            payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
            payload.extend_from_slice(body);
        }
        Frame::Shed {
            id,
            reason,
            retry_after_us,
        } => {
            payload.extend_from_slice(&id.to_le_bytes());
            payload.push(*reason as u8);
            payload.extend_from_slice(&retry_after_us.to_le_bytes());
        }
        Frame::DrainAck { queued } => payload.extend_from_slice(&queued.to_le_bytes()),
        Frame::StatsReply(s) => {
            for v in [
                s.accepted,
                s.served,
                s.shed_queue_full,
                s.shed_quota,
                s.shed_draining,
                s.expired,
                s.cancelled,
                s.batches,
                s.bytes_read,
                s.kernel_passes,
                s.passes_saved,
                s.submits,
                s.evicted,
            ] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.extend_from_slice(&(s.per_shard_served.len() as u32).to_le_bytes());
            for v in &s.per_shard_served {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&NET_MAGIC.to_le_bytes());
    out.push(NET_VERSION);
    out.push(frame.kind());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn take<const N: usize>(buf: &[u8], at: &mut usize) -> Result<[u8; N], FrameError> {
    let end = *at + N;
    if end > buf.len() {
        return Err(FrameError::Truncated);
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[*at..end]);
    *at = end;
    Ok(out)
}

fn take_u64(buf: &[u8], at: &mut usize) -> Result<u64, FrameError> {
    Ok(u64::from_le_bytes(take::<8>(buf, at)?))
}

fn take_u32(buf: &[u8], at: &mut usize) -> Result<u32, FrameError> {
    Ok(u32::from_le_bytes(take::<4>(buf, at)?))
}

fn take_bytes(buf: &[u8], at: &mut usize) -> Result<Vec<u8>, FrameError> {
    let len = take_u32(buf, at)? as usize;
    let end = at.checked_add(len).ok_or(FrameError::Truncated)?;
    if end > buf.len() {
        return Err(FrameError::Truncated);
    }
    let out = buf[*at..end].to_vec();
    *at = end;
    Ok(out)
}

/// Validate a frame header. Returns `(kind, payload_len)`; `Truncated`
/// when fewer than [`FRAME_HEADER_LEN`] bytes are available, so a stream
/// reader can call it on a growing buffer.
pub fn decode_header(buf: &[u8]) -> Result<(u8, u32), FrameError> {
    let mut at = 0usize;
    let magic = u32::from_le_bytes(take::<4>(buf, &mut at)?);
    if magic != NET_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = take::<1>(buf, &mut at)?[0];
    if version != NET_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = take::<1>(buf, &mut at)?[0];
    if !(KIND_SUBMIT..=KIND_STATS_REPLY).contains(&kind) {
        return Err(FrameError::BadKind(kind));
    }
    let len = u32::from_le_bytes(take::<4>(buf, &mut at)?);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    Ok((kind, len))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    let mut at = 0usize;
    let frame = match kind {
        KIND_SUBMIT => {
            let id = take_u64(payload, &mut at)?;
            let tenant = take_u32(payload, &mut at)?;
            let priority = priority_from_u8(take::<1>(payload, &mut at)?[0])?;
            let deadline_us = take_u64(payload, &mut at)?;
            let query = take_bytes(payload, &mut at)?;
            Frame::Submit {
                id,
                tenant,
                priority,
                deadline_us,
                query,
            }
        }
        KIND_CANCEL => Frame::Cancel {
            id: take_u64(payload, &mut at)?,
        },
        KIND_DRAIN => Frame::Drain,
        KIND_STATS => Frame::Stats,
        KIND_RESULT => {
            let id = take_u64(payload, &mut at)?;
            let status = ResultStatus::from_u8(take::<1>(payload, &mut at)?[0])?;
            let body = take_bytes(payload, &mut at)?;
            Frame::Result {
                id,
                status,
                payload: body,
            }
        }
        KIND_SHED => {
            let id = take_u64(payload, &mut at)?;
            let reason = ShedReason::from_u8(take::<1>(payload, &mut at)?[0])?;
            let retry_after_us = take_u64(payload, &mut at)?;
            Frame::Shed {
                id,
                reason,
                retry_after_us,
            }
        }
        KIND_DRAIN_ACK => Frame::DrainAck {
            queued: take_u64(payload, &mut at)?,
        },
        KIND_STATS_REPLY => {
            let mut vals = [0u64; 13];
            for v in vals.iter_mut() {
                *v = take_u64(payload, &mut at)?;
            }
            let shards = take_u32(payload, &mut at)? as usize;
            let mut per_shard_served = Vec::with_capacity(shards.min(4096));
            for _ in 0..shards {
                per_shard_served.push(take_u64(payload, &mut at)?);
            }
            Frame::StatsReply(StatsSnapshot {
                accepted: vals[0],
                served: vals[1],
                shed_queue_full: vals[2],
                shed_quota: vals[3],
                shed_draining: vals[4],
                expired: vals[5],
                cancelled: vals[6],
                batches: vals[7],
                bytes_read: vals[8],
                kernel_passes: vals[9],
                passes_saved: vals[10],
                submits: vals[11],
                evicted: vals[12],
                per_shard_served,
            })
        }
        other => return Err(FrameError::BadKind(other)),
    };
    if at != payload.len() {
        return Err(FrameError::Truncated);
    }
    Ok(frame)
}

/// Decode one complete frame from `buf`, which must contain exactly the
/// frame — a short buffer and trailing garbage both decode as
/// [`FrameError::Truncated`].
pub fn decode_frame(buf: &[u8]) -> Result<Frame, FrameError> {
    let (kind, len) = decode_header(buf)?;
    let end = FRAME_HEADER_LEN + len as usize;
    if buf.len() != end {
        return Err(FrameError::Truncated);
    }
    decode_payload(kind, &buf[FRAME_HEADER_LEN..end])
}

/// Incremental frame decoder for a byte stream: feed arbitrary chunks,
/// pop complete frames. Protocol errors are sticky — a connection that
/// ever produced garbage cannot resynchronize and must be dropped.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameReader {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete frame. `Ok(None)` = need more bytes.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::BadMagic);
        }
        match decode_header(&self.buf) {
            Err(FrameError::Truncated) if self.buf.len() < FRAME_HEADER_LEN => Ok(None),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
            Ok((kind, len)) => {
                let end = FRAME_HEADER_LEN + len as usize;
                if self.buf.len() < end {
                    return Ok(None);
                }
                let frame = decode_payload(kind, &self.buf[FRAME_HEADER_LEN..end]);
                match frame {
                    Ok(f) => {
                        self.buf.drain(..end);
                        Ok(Some(f))
                    }
                    Err(e) => {
                        self.poisoned = true;
                        Err(e)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: Frame) {
        let bytes = encode_frame(&f);
        assert_eq!(decode_frame(&bytes), Ok(f));
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(Frame::Submit {
            id: 7,
            tenant: 3,
            priority: Priority::Interactive,
            deadline_us: 1_000_000,
            query: vec![1, 2, 3, 0],
        });
        round_trip(Frame::Cancel { id: 9 });
        round_trip(Frame::Drain);
        round_trip(Frame::Stats);
        round_trip(Frame::Result {
            id: 7,
            status: ResultStatus::Ok,
            payload: b"query\tsubject\t...".to_vec(),
        });
        round_trip(Frame::Shed {
            id: 8,
            reason: ShedReason::QuotaExceeded,
            retry_after_us: 20_000,
        });
        round_trip(Frame::DrainAck { queued: 12 });
        round_trip(Frame::StatsReply(StatsSnapshot {
            accepted: 1,
            served: 2,
            shed_queue_full: 3,
            shed_quota: 4,
            shed_draining: 5,
            expired: 6,
            cancelled: 7,
            batches: 8,
            bytes_read: 9,
            kernel_passes: 10,
            passes_saved: 11,
            submits: 12,
            evicted: 13,
            per_shard_served: vec![4, 5, 6],
        }));
    }

    #[test]
    fn stream_reader_reassembles_split_frames() {
        let frames = vec![
            Frame::Submit {
                id: 1,
                tenant: 0,
                priority: Priority::Normal,
                deadline_us: 0,
                query: vec![9; 100],
            },
            Frame::Stats,
            Frame::Cancel { id: 1 },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(7) {
            reader.feed(chunk);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn stream_reader_poisons_on_garbage() {
        let mut reader = FrameReader::new();
        reader.feed(&[0xFF; 16]);
        assert_eq!(reader.next_frame(), Err(FrameError::BadMagic));
        // Sticky: even good bytes afterwards are refused.
        reader.feed(&encode_frame(&Frame::Stats));
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn header_cap_guards_length_prefix() {
        let mut bytes = encode_frame(&Frame::Cancel { id: 1 });
        bytes[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::TooLarge(MAX_FRAME_LEN + 1))
        );
    }
}
