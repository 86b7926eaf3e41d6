//! End-to-end data integrity for the real I/O path: per-stripe CRC32C
//! checksums, verified reads, and stripe repair.
//!
//! Every local object file has a *sums sidecar* next to it: for a file of
//! `L` bytes it holds `ceil(L / stripe_size)` little-endian `u32` CRC32C
//! values, one per stripe of the file (the last stripe may be partial).
//! Every object file is a [`crate::LocalStore`] object: a plain store's
//! files use [`DEFAULT_STRIPE`]-sized stripes, and each server of a
//! striped or mirrored store is a `LocalStore` whose stripes are the
//! engine's, so a server's sidecar covers that server's local stripes.
//!
//! Every read goes through one verified range read: the requested range
//! is read straight into the caller's slice, each stripe lying wholly
//! inside it is checked there, and a partly covered edge stripe is re-read
//! whole into a scratch buffer, which also serves those edge bytes. A
//! mismatch surfaces as a typed corrupt error ([`corrupt_stripe_of`]) so
//! callers can distinguish "the bytes are wrong" (not retryable,
//! repairable from a mirror) from "the server is gone" (fail over /
//! retry). Only read-repair reads a stripe-aligned span
//! ([`read_aligned`]) to find every bad stripe of it. A file with *no*
//! sidecar is read unverified — objects written before checksums existed,
//! or placed by hand.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stripe size used by [`crate::LocalStore`] sidecars (the paper's 64 KB
/// PVFS stripe, reused so every store checksums at the same granularity).
pub const DEFAULT_STRIPE: u64 = 64 << 10;

// CRC32C (Castagnoli), reflected polynomial — the checksum iSCSI and ext4
// use for exactly this job, and the one x86 has an instruction for. Every
// put, every verified read (striped and local alike) and every scrub
// checksums every byte, so this runs three interleaved SSE4.2 `crc32`
// streams where the CPU has the instruction and slice-by-8 where it has
// not. Tables built at compile time; no dependencies.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes be folded in with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes in each of the three hardware streams of one round.
#[cfg(target_arch = "x86_64")]
const STREAM: usize = 4096;

/// A CRC state is a vector over GF(2), and running it through zero bytes
/// is a linear map: a 32×32 bit matrix, stored as the image of each bit.
#[cfg(target_arch = "x86_64")]
const fn gf2_apply(m: &[u32; 32], v: u32) -> u32 {
    let mut out = 0;
    let mut j = 0;
    while j < 32 {
        if v >> j & 1 != 0 {
            out ^= m[j];
        }
        j += 1;
    }
    out
}

/// `SHIFT[k][b]` is the CRC state `b << 8k` after 4 096 zero bytes, so
/// [`shift_stream`] moves a state past one stream in four lookups. Built
/// from the one-zero-byte map squared twelve times (2^12 = 4 096).
#[cfg(target_arch = "x86_64")]
const fn build_shift() -> [[u32; 256]; 4] {
    let byte = build_tables()[0];
    let mut m = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        let s = 1u32 << j;
        m[j] = (s >> 8) ^ byte[(s & 0xFF) as usize];
        j += 1;
    }
    let mut squarings = 0;
    while squarings < 12 {
        let mut sq = [0u32; 32];
        let mut j = 0;
        while j < 32 {
            sq[j] = gf2_apply(&m, m[j]);
            j += 1;
        }
        m = sq;
        squarings += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            shift[k][b] = gf2_apply(&m, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    shift
}

#[cfg(target_arch = "x86_64")]
static SHIFT: [[u32; 256]; 4] = build_shift();

/// The CRC state `crc` carried past [`STREAM`] zero bytes.
#[cfg(target_arch = "x86_64")]
fn shift_stream(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just seen to support SSE4.2, the only
        // requirement `crc32c_sse42` has.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_slice8(data)
}

/// The hardware path. One `crc32` instruction per eight bytes has a
/// three-cycle latency and a one-cycle issue rate, so a single chain runs
/// at a third of the unit's speed. Each 12 KiB round therefore runs three
/// 4 KiB streams side by side, the second and third from state 0, and
/// folds them by linearity: CRC(s, A‖B) = shift(CRC(s, A)) ^ CRC(0, B).
/// The tail runs as one stream.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut crc = !0u32;
    let mut rounds = data.chunks_exact(3 * STREAM);
    for round in &mut rounds {
        let (a, rest) = round.split_at(STREAM);
        let (b, c) = rest.split_at(STREAM);
        let (mut ca, mut cb, mut cc) = (u64::from(crc), 0u64, 0u64);
        let words = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8));
        for ((wa, wb), wc) in words {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        crc = shift_stream(shift_stream(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    let mut words = rounds.remainder().chunks_exact(8);
    let mut wide = u64::from(crc);
    for w in &mut words {
        wide = _mm_crc32_u64(wide, word(w));
    }
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The portable path: slice-by-8.
fn crc32c_slice8(data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    let mut crc = !0u32;
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Per-stripe checksums of one local file's bytes.
pub fn stripe_sums(data: &[u8], stripe_size: u64) -> Vec<u32> {
    data.chunks(stripe_size.max(1) as usize)
        .map(crc32c)
        .collect()
}

/// Sidecar path for an object file path.
pub fn sums_path(object: &Path) -> PathBuf {
    let mut os = object.as_os_str().to_owned();
    os.push(".sums");
    PathBuf::from(os)
}

/// Serialize checksums (little-endian `u32` each).
pub fn encode_sums(sums: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sums.len() * 4);
    for s in sums {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Parse a sidecar's bytes; trailing partial entries are dropped (a torn
/// sidecar write verifies as "missing entry", which fails closed).
pub fn decode_sums(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Make `parts`, back to back, the whole content of `path`, creating the
/// file if it is missing. An existing file is overwritten in place and
/// then cut to length, never truncated first: ext4 (`auto_da_alloc`)
/// takes truncate-to-zero-then-rewrite for "replace via truncate" and
/// writes every new block to the device when the file is closed, and the
/// next truncate waits for that write-out. Objects are replaced often —
/// the original scheme re-copies a worker's private copy whenever its
/// source changes, and set-up re-puts every fragment of a reused store,
/// whichever scheme keeps it — and through `File::create` each
/// replacement would go to the disk at the disk's speed. Overwritten in
/// place, the pages stay dirty in the page cache like those of any other
/// write. A reader racing the overwrite may see mixed bytes; the sidecar,
/// written after the data, convicts them.
pub(crate) fn replace_file<'a>(
    path: &Path,
    parts: impl IntoIterator<Item = &'a [u8]>,
) -> io::Result<()> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut len = 0u64;
    for part in parts {
        f.write_all(part)?;
        len += part.len() as u64;
    }
    if f.metadata()?.len() != len {
        f.set_len(len)?;
    }
    Ok(())
}

/// Load the sidecar of `object`; empty when missing (= read unverified).
pub fn load_sums(object: &Path) -> Vec<u32> {
    fs::read(sums_path(object)).map_or_else(|_| Vec::new(), |b| decode_sums(&b))
}

/// Remove the sidecar of `object` (idempotent).
pub fn remove_sums(object: &Path) {
    let _ = fs::remove_file(sums_path(object));
}

/// Typed payload of a checksum-mismatch error.
#[derive(Debug)]
pub struct CorruptStripe {
    /// The local file whose stripe failed verification.
    pub path: PathBuf,
    /// Local stripe index within that file.
    pub stripe: u64,
}

impl fmt::Display for CorruptStripe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checksum mismatch in stripe {} of {}",
            self.stripe,
            self.path.display()
        )
    }
}

impl std::error::Error for CorruptStripe {}

/// Build the typed corrupt error (kind `InvalidData`).
pub fn corrupt_error(path: &Path, stripe: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        CorruptStripe {
            path: path.to_path_buf(),
            stripe,
        },
    )
}

/// The corrupted local stripe index, when `err` is a checksum mismatch.
pub fn corrupt_stripe_of(err: &io::Error) -> Option<u64> {
    err.get_ref()
        .and_then(|e| e.downcast_ref::<CorruptStripe>())
        .map(|c| c.stripe)
}

/// Is this a checksum-mismatch error (as opposed to a hard I/O failure)?
pub fn is_corrupt(err: &io::Error) -> bool {
    corrupt_stripe_of(err).is_some()
}

/// One local file as a verified read sees it: its path (which a corrupt
/// error names), its length, its stripe size, and the sidecar loaded for
/// it earlier (empty = none on disk: the file reads unverified).
#[derive(Debug, Clone)]
pub(crate) struct VerifiedFile {
    pub(crate) path: PathBuf,
    pub(crate) len: u64,
    pub(crate) stripe: u64,
    pub(crate) sums: Arc<[u32]>,
}

impl VerifiedFile {
    /// The one verified range read: `[off, off + buf.len())` of `file`
    /// straight into `buf`, every stripe the range touches checked against
    /// the sidecar. A stripe lying wholly inside `buf` is checked in place;
    /// a partly covered edge stripe is re-read whole into `scratch` and
    /// checked there, and its bytes in `buf` are the checked ones. A
    /// missing sidecar entry fails closed, and the first bad stripe is the
    /// typed [`corrupt_error`].
    pub(crate) fn read_at(
        &self,
        file: &File,
        off: u64,
        buf: &mut [u8],
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        let end = off
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of object")
            })?;
        read_exact_at(file, off, buf)?;
        if self.sums.is_empty() || buf.is_empty() {
            return Ok(());
        }
        let s = self.stripe;
        for k in off / s..end.div_ceil(s) {
            let (lo, hi) = (k * s, ((k + 1) * s).min(self.len));
            let (a, b) = (lo.max(off), hi.min(end));
            let dst = &mut buf[(a - off) as usize..(b - off) as usize];
            let whole = (a, b) == (lo, hi);
            if !whole {
                scratch.resize((hi - lo) as usize, 0);
                read_exact_at(file, lo, scratch)?;
                dst.copy_from_slice(&scratch[(a - lo) as usize..(b - lo) as usize]);
            }
            let stripe = if whole { &*dst } else { &scratch[..] };
            match self.sums.get(k as usize) {
                Some(&want) if crc32c(stripe) == want => {}
                _ => return Err(corrupt_error(&self.path, k)),
            }
        }
        Ok(())
    }
}

fn read_exact_at(mut file: &File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Round the local range `[lo, lo+ln)` out to stripe boundaries, clamped
/// to the local file length. Returns `(start, len)` of the aligned span.
pub fn aligned_span(lo: u64, ln: u64, stripe_size: u64, local_len: u64) -> (u64, u64) {
    let s = stripe_size.max(1);
    let start = lo - lo % s;
    let end = (lo + ln).div_ceil(s) * s;
    let end = end.min(local_len.max(lo + ln));
    (start, end - start)
}

/// Read the stripe-aligned span covering `[lo, lo+ln)` of `path`.
/// Returns `(aligned_start, aligned_bytes)`; the caller slices the
/// requested range back out.
pub fn read_aligned(
    path: &Path,
    lo: u64,
    ln: u64,
    stripe_size: u64,
    local_len: u64,
) -> io::Result<(u64, Vec<u8>)> {
    let (start, alen) = aligned_span(lo, ln, stripe_size, local_len);
    let mut out = vec![0u8; alen as usize];
    read_exact_at(&File::open(path)?, start, &mut out)?;
    Ok((start, out))
}

/// Local stripe indices within an aligned span whose bytes do not match
/// `sums`. `start` must be stripe-aligned. A stripe with no sidecar entry
/// fails closed (reported corrupt): a short sidecar means the file grew
/// or the sidecar was torn — either way the data is unverifiable.
pub fn bad_stripes(aligned: &[u8], start: u64, stripe_size: u64, sums: &[u32]) -> Vec<u64> {
    let s = stripe_size.max(1);
    let first = start / s;
    aligned
        .chunks(s as usize)
        .enumerate()
        .filter_map(|(i, chunk)| {
            let k = first + i as u64;
            match sums.get(k as usize) {
                Some(&want) if crc32c(chunk) == want => None,
                _ => Some(k),
            }
        })
        .collect()
}

/// Rewrite `bad` local stripes of `path` (data file *and* sidecar entry)
/// from known-good aligned bytes `(good_start, good)` — the read-repair
/// write. Every bad stripe must lie inside the good span. Concurrent
/// repairs of the same stripe write identical bytes, so races are benign.
/// Returns the number of stripes rewritten.
pub fn repair_stripes(
    path: &Path,
    good_start: u64,
    good: &[u8],
    bad: &[u64],
    stripe_size: u64,
) -> io::Result<u64> {
    if bad.is_empty() {
        return Ok(0);
    }
    let s = stripe_size.max(1);
    let mut data_f = OpenOptions::new().write(true).open(path)?;
    let mut sums_f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(sums_path(path))?;
    for &k in bad {
        let off = k * s;
        let a = (off - good_start) as usize;
        let b = good.len().min(a + s as usize);
        let stripe = &good[a..b];
        data_f.seek(SeekFrom::Start(off))?;
        data_f.write_all(stripe)?;
        sums_f.seek(SeekFrom::Start(k * 4))?;
        sums_f.write_all(&crc32c(stripe).to_le_bytes())?;
    }
    data_f.flush()?;
    sums_f.flush()?;
    Ok(bad.len() as u64)
}

/// A background scrub thread: repeatedly runs `pass` until stopped.
/// The closure owns its store handle, object list, and rate limiter; it
/// returns how many corrupt stripes the pass found (repaired or not).
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<ScrubTotals>>,
}

/// What a [`Scrubber`] did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Complete passes over the object set.
    pub passes: u64,
    /// Corrupt stripes found across all passes.
    pub corrupt_found: u64,
}

impl Scrubber {
    /// Spawn the scrub loop. `pass` runs back to back until [`Self::stop`].
    pub fn spawn<F>(mut pass: F) -> Scrubber
    where
        F: FnMut() -> u64 + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut totals = ScrubTotals::default();
            while !flag.load(Ordering::Relaxed) {
                totals.corrupt_found += pass();
                totals.passes += 1;
            }
            totals
        });
        Scrubber {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop after the current pass and return the totals.
    pub fn stop(mut self) -> ScrubTotals {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RateLimiter;

    #[test]
    fn crc32c_known_answer() {
        // The canonical CRC32C check value (iSCSI test vector).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_slice8(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // Every short length, where the word loop and the tail loop meet.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let want = crc32c_bytewise(&data[..len]);
            assert_eq!(crc32c_slice8(&data[..len]), want, "slice-by-8, {len} bytes");
            assert_eq!(crc32c(&data[..len]), want, "dispatched, {len} bytes");
        }
    }

    /// The byte-at-a-time loop every sidecar on disk was written with.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The dispatched path (hardware where this CPU has SSE4.2),
    /// slice-by-8 and the old loop agree on `bytes` from every start
    /// alignment within a word, so sidecars written by any of them verify
    /// under any other.
    fn paths_agree(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
        for start in 0..8.min(bytes.len() + 1) {
            let data = &bytes[start..];
            let want = crc32c_bytewise(data);
            proptest::prop_assert_eq!(crc32c_slice8(data), want, "slice-by-8 from {}", start);
            proptest::prop_assert_eq!(crc32c(data), want, "dispatched from {}", start);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Every length up to 4 KiB, where the word and tail loops meet.
        #[test]
        fn crc32c_paths_agree(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4104),
        ) {
            paths_agree(&bytes)?;
        }

        /// Up to 200 KiB: many of the hardware path's 12 KiB three-stream
        /// rounds, and a tail.
        #[test]
        fn crc32c_paths_agree_across_three_stream_rounds(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200 << 10),
        ) {
            paths_agree(&bytes)?;
        }
    }

    #[test]
    fn crc32c_at_the_round_edges() {
        // One byte short of a round, exactly one, one over; a 64 KiB
        // stripe (five rounds and a 4 KiB tail) and that plus a ragged tail.
        let data: Vec<u8> = (0..65_543u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [3 * 4096 - 1, 3 * 4096, 3 * 4096 + 1, 65_536, 65_543] {
            let want = crc32c_bytewise(&data[..len]);
            assert_eq!(crc32c_slice8(&data[..len]), want, "slice-by-8, {len} bytes");
            assert_eq!(crc32c(&data[..len]), want, "dispatched, {len} bytes");
        }
    }

    #[test]
    fn sums_round_trip_and_partial_tail() {
        let data: Vec<u8> = (0..2500u32).map(|i| (i % 251) as u8).collect();
        let sums = stripe_sums(&data, 1024);
        assert_eq!(sums.len(), 3); // 1024 + 1024 + 452
        let enc = encode_sums(&sums);
        assert_eq!(decode_sums(&enc), sums);
        // A torn sidecar (odd byte count) drops the partial entry.
        assert_eq!(decode_sums(&enc[..9]).len(), 2);
    }

    #[test]
    fn aligned_span_clamps_to_file() {
        // Range [100, 200) in 64-byte stripes of a 1000-byte file.
        assert_eq!(aligned_span(100, 100, 64, 1000), (64, 192));
        // Tail range: rounds up past EOF, clamps back.
        assert_eq!(aligned_span(990, 10, 64, 1000), (960, 40));
        // Exactly aligned stays put.
        assert_eq!(aligned_span(128, 64, 64, 1000), (128, 64));
    }

    #[test]
    fn bad_stripes_detects_a_flip_and_fails_closed() {
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let sums = stripe_sums(&data, 100);
        assert!(bad_stripes(&data, 0, 100, &sums).is_empty());
        let mut fl = data.clone();
        fl[150] ^= 0x40;
        assert_eq!(bad_stripes(&fl, 0, 100, &sums), vec![1]);
        // Missing sidecar entry = unverifiable = corrupt.
        assert_eq!(bad_stripes(&data, 0, 100, &sums[..2]), vec![2]);
    }

    #[test]
    fn corrupt_error_is_typed_and_detectable() {
        let e = corrupt_error(Path::new("/x/frag"), 7);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(is_corrupt(&e));
        assert_eq!(corrupt_stripe_of(&e), Some(7));
        let plain = io::Error::new(io::ErrorKind::InvalidData, "not typed");
        assert!(!is_corrupt(&plain));
    }

    #[test]
    fn repair_rewrites_data_and_sidecar() {
        use crate::store::{LocalStore, ObjectStore};
        let dir = std::env::temp_dir().join(format!("pio_integrity_{}", std::process::id()));
        let st = LocalStore::with_stripe(&dir, 256).unwrap();
        let p = st.path_of("obj");
        let good: Vec<u8> = (0..1000u32).map(|i| (i * 13 % 251) as u8).collect();
        st.put("obj", &good).unwrap();
        // Corrupt stripe 2 on disk.
        let mut broken = good.clone();
        broken[600] ^= 0xFF;
        fs::write(&p, &broken).unwrap();
        let scrub = |st: &LocalStore| st.scrub_object("obj", &mut RateLimiter::unlimited());
        assert_eq!(scrub(&st).unwrap(), vec![2]);
        let n = repair_stripes(&p, 0, &good, &[2], 256).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fs::read(&p).unwrap(), good);
        assert!(scrub(&st).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrubber_runs_until_stopped() {
        let scrubber = Scrubber::spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            1
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let totals = scrubber.stop();
        assert!(totals.passes >= 1);
        assert_eq!(totals.corrupt_found, totals.passes);
    }
}
