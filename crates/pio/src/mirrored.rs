//! RAID-10 mirrored store with CEFT-PVFS read semantics on real files:
//!
//! * writes are duplexed to a primary and a mirror group of server
//!   directories (identical striped layout in each);
//! * reads follow the dual-half schedule — first half of each request from
//!   one group, second half from the other — doubling the number of
//!   directories (disks) serving a single read;
//! * a per-server latency monitor (decayed, byte-weighted read times) marks
//!   slow servers hot, and subsequent reads *skip* them, fetching the
//!   affected ranges from the mirror partner instead — the §4.5 mechanism.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::integrity;
use crate::layout::{MirroredLayout, ServerId};
use crate::pool::{self, LanePlan, RateLimiter, ReaderPool};
use crate::store::{ObjectReader, ObjectStore};

/// Where a server stands in the crash → rebuild → rejoin lifecycle.
///
/// A server that suffered a hard failure may hold stale or missing
/// stripes, so reads must keep avoiding it until its partner has rebuilt
/// it: `Degraded` (dead, not yet rebuilding) → `Rebuilding` (copy from
/// partner in progress) → `Healthy` (caught up, serving reads again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncState {
    /// In rotation; stripes are trusted.
    Healthy,
    /// Failed and excluded; stripes are suspect.
    Degraded,
    /// Being rebuilt from its mirror partner; still excluded.
    Rebuilding,
}

/// Latency-based hot-spot detector shared by all readers of a store.
#[derive(Debug)]
pub struct HealthMonitor {
    /// Exponentially decayed `(seconds, bytes)` read per server; their
    /// ratio is the server's per-byte latency. Every sample decays both
    /// sums by `1 − alpha` and adds its own, so samples weigh by their
    /// bytes: a 64-byte header read, whose fixed cost makes it ten times
    /// a stripe read per byte, cannot outvote the 512 KB read before it.
    load: Mutex<Vec<[(f64, f64); 2]>>,
    /// Smoothing factor.
    alpha: f64,
    /// A server is hot when its latency exceeds `factor ×` the group median.
    factor: f64,
    /// Crash/rebuild lifecycle per server (see [`ResyncState`]). A server
    /// that is not `Healthy` is dead: it returned a hard I/O error, and
    /// every later plan routes its ranges to the mirror partner (CEFT
    /// failover on the real path) until a resync brings it back.
    state: Mutex<Vec<[ResyncState; 2]>>,
    /// Stripes rewritten by read-repair and scrubbing.
    repaired: AtomicU64,
}

impl HealthMonitor {
    /// New monitor for `n` servers per group.
    pub fn new(n: usize) -> Self {
        HealthMonitor {
            load: Mutex::new(vec![[(0.0, 0.0); 2]; n]),
            alpha: 0.3,
            factor: 4.0,
            state: Mutex::new(vec![[ResyncState::Healthy; 2]; n]),
            repaired: AtomicU64::new(0),
        }
    }

    /// Mark a server dead after a hard I/O error; all later plans route
    /// its ranges to the mirror partner, and its stripes are considered
    /// stale until [`MirroredStore::resync_server`] has caught it up.
    pub fn mark_dead(&self, s: ServerId) {
        self.state.lock()[s.index as usize][s.group as usize] = ResyncState::Degraded;
    }

    /// The server's position in the crash → rebuild → rejoin lifecycle.
    pub fn resync_state(&self, s: ServerId) -> ResyncState {
        self.state.lock()[s.index as usize][s.group as usize]
    }

    /// Enter `Rebuilding` (the server stays excluded from reads).
    pub fn begin_resync(&self, s: ServerId) {
        self.state.lock()[s.index as usize][s.group as usize] = ResyncState::Rebuilding;
    }

    /// Rebuild finished: mark `Healthy` and put the server back into
    /// rotation with a fresh latency history.
    pub fn complete_resync(&self, s: ServerId) {
        self.state.lock()[s.index as usize][s.group as usize] = ResyncState::Healthy;
        self.load.lock()[s.index as usize][s.group as usize] = (0.0, 0.0);
    }

    /// Count `n` stripes rewritten by read-repair or scrubbing.
    pub fn note_repair(&self, n: u64) {
        self.repaired.fetch_add(n, Ordering::Relaxed);
    }

    /// Total stripes rewritten from a mirror partner so far.
    pub fn repaired_stripes(&self) -> u64 {
        self.repaired.load(Ordering::Relaxed)
    }

    /// Servers currently dead: every server not `Healthy`.
    pub fn dead(&self) -> Vec<ServerId> {
        let state = self.state.lock();
        let mut out = Vec::new();
        for (i, pair) in state.iter().enumerate() {
            for (g, &st) in pair.iter().enumerate() {
                if st != ResyncState::Healthy {
                    out.push(ServerId {
                        group: g as u8,
                        index: i as u32,
                    });
                }
            }
        }
        out
    }

    /// Record an observed read of `bytes` taking `seconds`.
    pub fn record(&self, s: ServerId, bytes: u64, seconds: f64) {
        if bytes == 0 {
            return;
        }
        let mut load = self.load.lock();
        let (secs, read) = &mut load[s.index as usize][s.group as usize];
        *secs = (1.0 - self.alpha) * *secs + seconds;
        *read = (1.0 - self.alpha) * *read + bytes as f64;
    }

    /// Servers currently considered hot or dead (skippable). Dead servers
    /// are always skipped; hot ones only once enough latency samples exist
    /// to compute a group median.
    pub fn skips(&self) -> Vec<ServerId> {
        let mut out = self.dead();
        // Per-byte latency; 0 for a server with no samples yet.
        let latency: Vec<[f64; 2]> = self
            .load
            .lock()
            .iter()
            .map(|pair| pair.map(|(secs, read)| if read > 0.0 { secs / read } else { 0.0 }))
            .collect();
        let mut all: Vec<f64> = latency
            .iter()
            .flat_map(|pair| pair.iter().copied())
            .filter(|&x| x > 0.0)
            .collect();
        if all.len() < 2 {
            return out;
        }
        all.sort_by(f64::total_cmp);
        let median = all[all.len() / 2];
        if median <= 0.0 {
            return out;
        }
        for (i, pair) in latency.iter().enumerate() {
            for (g, &v) in pair.iter().enumerate() {
                let s = ServerId {
                    group: g as u8,
                    index: i as u32,
                };
                if v > self.factor * median && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// RAID-10 mirrored store.
#[derive(Clone)]
pub struct MirroredStore {
    primary: Arc<Vec<PathBuf>>,
    mirror: Arc<Vec<PathBuf>>,
    layout: MirroredLayout,
    monitor: Arc<HealthMonitor>,
    pool: Arc<ReaderPool>,
}

impl MirroredStore {
    /// New mirrored store (equal-length groups; directories created).
    pub fn new(primary: Vec<PathBuf>, mirror: Vec<PathBuf>, stripe_size: u64) -> io::Result<Self> {
        assert_eq!(
            primary.len(),
            mirror.len(),
            "mirror group must match primary group"
        );
        assert!(!primary.is_empty());
        for d in primary.iter().chain(&mirror) {
            fs::create_dir_all(d)?;
        }
        let layout = MirroredLayout::new(stripe_size, primary.len() as u32);
        let monitor = Arc::new(HealthMonitor::new(primary.len()));
        // One persistent lane per physical server: primary group first,
        // then the mirror group.
        let pool = Arc::new(ReaderPool::new(primary.len() * 2));
        Ok(MirroredStore {
            primary: Arc::new(primary),
            mirror: Arc::new(mirror),
            layout,
            monitor,
            pool,
        })
    }

    /// Model per-server disk bandwidth (bytes/second; 0 = unthrottled).
    pub fn set_io_throttle(&self, bytes_per_s: u64) {
        self.pool.set_throttle(bytes_per_s);
    }

    /// [`Self::set_io_throttle`] for one server only: a loaded disk, which
    /// the health monitor sees as hot.
    pub fn set_server_throttle(&self, s: ServerId, bytes_per_s: u64) {
        self.pool.set_lane_throttle(self.lane_of(s), bytes_per_s);
    }

    /// Server requests (lane jobs) issued through this store so far —
    /// the number list I/O collapses.
    pub fn server_requests(&self) -> u64 {
        self.pool.jobs_submitted()
    }

    fn lane_of(&self, s: ServerId) -> usize {
        s.group as usize * self.layout.group_size() as usize + s.index as usize
    }

    /// The shared health monitor (for inspection, and to mark a server
    /// dead).
    pub fn monitor(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    /// The mirrored layout.
    pub fn layout(&self) -> &MirroredLayout {
        &self.layout
    }

    fn dir_of(&self, s: ServerId) -> &PathBuf {
        match s.group {
            0 => &self.primary[s.index as usize],
            _ => &self.mirror[s.index as usize],
        }
    }

    fn path_of(&self, s: ServerId, name: &str) -> PathBuf {
        self.dir_of(s).join(name)
    }
}

impl ObjectStore for MirroredStore {
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        // Duplex write: identical striped layout in both groups.
        let n = self.layout.group_size() as u64;
        let s = self.layout.stripe.stripe_size;
        // Both groups hold identical striped layouts, so the per-server
        // checksum sidecars are computed once and written to each group.
        let mut sums: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for (k, chunk) in data.chunks(s as usize).enumerate() {
            sums[(k as u64 % n) as usize].push(integrity::crc32c(chunk));
        }
        for group in 0..2u8 {
            let mut files: Vec<File> = (0..n)
                .map(|i| {
                    File::create(self.path_of(
                        ServerId {
                            group,
                            index: i as u32,
                        },
                        name,
                    ))
                })
                .collect::<io::Result<_>>()?;
            for (k, chunk) in data.chunks(s as usize).enumerate() {
                files[(k as u64 % n) as usize].write_all(chunk)?;
            }
            for mut f in files {
                f.flush()?;
            }
            for (i, server_sums) in sums.iter().enumerate() {
                let side = integrity::sums_path(&self.path_of(
                    ServerId {
                        group,
                        index: i as u32,
                    },
                    name,
                ));
                fs::write(side, integrity::encode_sums(server_sums))?;
            }
        }
        let meta = self.path_of(ServerId { group: 0, index: 0 }, &format!("{name}.meta"));
        fs::write(meta, data.len().to_string())
    }

    /// A [`MirroredReader`], with both groups' checksum sidecars loaded
    /// for lane-side verification and read-repair.
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        let size = self.size(name)?;
        let sums = (0..self.layout.group_size())
            .map(|i| {
                [0u8, 1].map(|group| {
                    Arc::new(integrity::load_sums(
                        &self.path_of(ServerId { group, index: i }, name),
                    ))
                })
            })
            .collect();
        Ok(Box::new(MirroredReader {
            store: self.clone(),
            name: name.to_string(),
            size,
            sums,
            flip: false,
        }))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        let meta = self.path_of(ServerId { group: 0, index: 0 }, &format!("{name}.meta"));
        let s = fs::read_to_string(meta)?;
        s.trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad meta: {e}")))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        for group in 0..2u8 {
            for i in 0..self.layout.group_size() {
                let p = self.path_of(ServerId { group, index: i }, name);
                integrity::remove_sums(&p);
                let _ = fs::remove_file(p);
            }
        }
        let _ =
            fs::remove_file(self.path_of(ServerId { group: 0, index: 0 }, &format!("{name}.meta")));
        Ok(())
    }
}

/// What one [`MirroredStore::resync_server`] rebuild copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Objects rebuilt on the target server.
    pub objects: u64,
    /// Bytes copied from the mirror partner.
    pub bytes: u64,
}

impl MirroredStore {
    /// Verify every replica stripe of `name` against the sidecars, paced
    /// by `limiter`, and rewrite any corrupt stripe from its mirror
    /// partner (counted in [`HealthMonitor::repaired_stripes`]). Returns
    /// `(repaired, unrepairable)` — a stripe is unrepairable when both
    /// replicas fail verification.
    pub fn scrub_object(
        &self,
        name: &str,
        limiter: &mut RateLimiter,
    ) -> io::Result<(u64, Vec<(ServerId, u64)>)> {
        let s = self.layout.stripe.stripe_size;
        let mut repaired = 0u64;
        let mut unrepairable = Vec::new();
        for group in 0..2u8 {
            for i in 0..self.layout.group_size() {
                let server = ServerId { group, index: i };
                let path = self.path_of(server, name);
                let partner_path = self.path_of(self.layout.partner(server), name);
                for k in integrity::scrub_file(&path, s, limiter)? {
                    // Fetch the partner's copy of the stripe and check it
                    // before trusting it as the repair source.
                    let good = (|| -> io::Result<(u64, Vec<u8>)> {
                        let plen = fs::metadata(&partner_path)?.len();
                        let ln = s.min(plen.saturating_sub(k * s));
                        if ln == 0 {
                            return Err(integrity::corrupt_error(&partner_path, k));
                        }
                        let got = integrity::read_aligned(&partner_path, k * s, ln, s, plen)?;
                        limiter.consume(ln);
                        let psums = integrity::load_sums(&partner_path);
                        integrity::verify_aligned(&partner_path, &got.1, got.0, s, &psums)?;
                        Ok(got)
                    })();
                    match good {
                        Ok((start, bytes)) => {
                            repaired += integrity::repair_stripes(&path, start, &bytes, &[k], s)?;
                        }
                        Err(_) => unrepairable.push((server, k)),
                    }
                }
            }
        }
        self.monitor.note_repair(repaired);
        Ok((repaired, unrepairable))
    }

    /// Rebuild every object on `s` from its mirror partner, paced at
    /// `bytes_per_s` (0 = unpaced), then return the server to rotation.
    ///
    /// The server is put into [`ResyncState::Rebuilding`] for the whole
    /// copy, so concurrent reads keep avoiding it; only a fully verified
    /// rebuild flips it back to `Healthy`. On error the server stays
    /// excluded (`Rebuilding`), which fails safe: a half-rebuilt replica
    /// never serves reads.
    pub fn resync_server(&self, s: ServerId, bytes_per_s: u64) -> io::Result<ResyncReport> {
        let partner = self.layout.partner(s);
        self.monitor.begin_resync(s);
        let mut limiter = RateLimiter::new(bytes_per_s);
        let stripe = self.layout.stripe.stripe_size;
        let src_dir = self.dir_of(partner).clone();
        let dst_dir = self.dir_of(s).clone();
        // Deterministic object order: sorted data-file names (sidecars and
        // size metadata ride along with their object).
        let mut names: Vec<String> = fs::read_dir(&src_dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| !n.ends_with(".meta") && !n.ends_with(".sums"))
            .collect();
        names.sort();
        let mut report = ResyncReport::default();
        for name in names {
            let src = src_dir.join(&name);
            let dst = dst_dir.join(&name);
            let sums = integrity::load_sums(&src);
            let mut f = File::open(&src)?;
            let len = f.metadata()?.len();
            let mut out = File::create(&dst)?;
            let mut buf = vec![0u8; stripe.max(1) as usize];
            let mut off = 0u64;
            let mut k = 0u64;
            while off < len {
                let n = ((len - off) as usize).min(buf.len());
                f.seek(SeekFrom::Start(off))?;
                f.read_exact(&mut buf[..n])?;
                limiter.consume(n as u64);
                // The partner is the only good copy left — verify every
                // stripe before it becomes the rebuilt replica.
                if !sums.is_empty() {
                    match sums.get(k as usize) {
                        Some(&want) if integrity::crc32c(&buf[..n]) == want => {}
                        _ => return Err(integrity::corrupt_error(&src, k)),
                    }
                }
                out.write_all(&buf[..n])?;
                off += n as u64;
                k += 1;
            }
            out.flush()?;
            if sums.is_empty() {
                integrity::remove_sums(&dst);
            } else {
                fs::write(integrity::sums_path(&dst), integrity::encode_sums(&sums))?;
            }
            report.objects += 1;
            report.bytes += len;
        }
        self.monitor.complete_resync(s);
        Ok(report)
    }
}

/// Parallel mirrored reader with dual-half scheduling and skipping.
pub struct MirroredReader {
    store: MirroredStore,
    name: String,
    size: u64,
    /// Checksum sidecars per server: `sums[index][group]`, loaded at
    /// open. Read-repair rewrites the on-disk copy, so a reader holding a
    /// stale cached sidecar only risks re-repairing (identical bytes),
    /// never serving bad data.
    sums: Vec<[Arc<Vec<u32>>; 2]>,
    flip: bool,
}

impl MirroredReader {
    /// The one read path: every `(offset, len)` of `regions`, concatenated
    /// into `buf`, with ONE lane job per involved physical server carrying
    /// every segment it serves. A contiguous read is a list of one region,
    /// and each half of a region places at most one part per lane.
    fn read_into(&mut self, regions: &[(u64, u64)], buf: &mut [u8]) -> io::Result<()> {
        if regions.iter().any(|&(off, len)| off + len > self.size) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "mirrored read past end of object",
            ));
        }
        if buf.is_empty() {
            return Ok(());
        }
        // One flip per call: every region of a list follows the same
        // dual-half orientation, and consecutive calls alternate it.
        let first_group = u8::from(self.flip);
        self.flip = !self.flip;
        let skips = self.store.monitor.skips();
        let layout = &self.store.layout;
        let n = layout.group_size() as usize;
        // Dual-half schedule: the first half of each region from one
        // group, the second from the other. A skip-redirected part keeps
        // its original half's offsets: both groups store identical striped
        // layouts.
        let mut plans = vec![LanePlan::default(); 2 * n];
        let mut dst = 0usize;
        for &(off, len) in regions {
            let half = len / 2;
            for (ho, hl, group) in [
                (off, half, first_group),
                (off + half, len - half, 1 - first_group),
            ] {
                for r in layout.stripe.map_extent(ho, hl) {
                    let part = layout.place(r, group, &skips);
                    let at = dst + (ho - off) as usize;
                    plans[self.store.lane_of(part.server)].push(&layout.stripe, (ho, hl), r, at);
                }
            }
            dst += len as usize;
        }
        self.store.pool.read(plans, buf, |lane| {
            let server = ServerId {
                group: (lane / n) as u8,
                index: (lane % n) as u32,
            };
            let partner = layout.partner(server);
            let path = self.store.path_of(server, &self.name);
            let partner_path = self.store.path_of(partner, &self.name);
            let stripe = layout.stripe.stripe_size;
            let local_len = layout.stripe.server_share(self.size, server.index);
            let psums = Arc::clone(&self.sums[server.index as usize][server.group as usize]);
            let qsums = Arc::clone(&self.sums[server.index as usize][partner.group as usize]);
            let throttle = self.store.pool.throttle(lane);
            let partner_throttle = self.store.pool.throttle(self.store.lane_of(partner));
            let mon = self.store.monitor();
            move |lo, ln| {
                // Fetch the stripe-aligned span covering the segment
                // (verification needs whole stripes), paced at the rate
                // of the disk it comes from and timed for the monitor.
                let fetch = |srv, path: &PathBuf, throttle: &AtomicU64| {
                    let t0 = Instant::now();
                    let got = integrity::read_aligned(path, lo, ln, stripe, local_len)?;
                    pool::pace(throttle, ln);
                    mon.record(srv, ln, t0.elapsed().as_secs_f64());
                    io::Result::Ok(got)
                };
                let own = fetch(server, &path, &throttle);
                let bad = match &own {
                    Ok((start, aligned)) if !psums.is_empty() => {
                        integrity::bad_stripes(aligned, *start, stripe, &psums)
                    }
                    Ok(_) => Vec::new(),
                    // Hard error: the server lost its replica. Mark it
                    // dead; later plans avoid it until a resync completes.
                    Err(_) => {
                        mon.mark_dead(server);
                        Vec::new()
                    }
                };
                match own {
                    Ok(got) if bad.is_empty() => Ok(got),
                    // A checksum mismatch or a hard error: serve the
                    // segment from the mirror partner (both groups hold
                    // identical striped layouts) once *its* copy verifies.
                    // A mismatch is then read-repaired — the corrupt
                    // stripes are rewritten, data and sidecar — but the
                    // server is NOT marked dead: one bad stripe is a
                    // media flaw, not a crash.
                    _ => {
                        let (start, good) = fetch(partner, &partner_path, &partner_throttle)?;
                        integrity::verify_aligned(&partner_path, &good, start, stripe, &qsums)?;
                        if let Ok(k) = integrity::repair_stripes(&path, start, &good, &bad, stripe)
                        {
                            mon.note_repair(k);
                        }
                        Ok((start, good))
                    }
                }
            }
        })
    }
}

impl ObjectReader for MirroredReader {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.read_into(&[(offset, buf.len() as u64)], buf)
    }

    fn read_many_at(&mut self, regions: &[(u64, u64)]) -> io::Result<Vec<u8>> {
        let mut out = vec![0u8; regions.iter().map(|&(_, l)| l as usize).sum()];
        self.read_into(regions, &mut out)?;
        Ok(out)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::read_all;

    fn dirs(tag: &str, n: usize) -> (Vec<PathBuf>, Vec<PathBuf>) {
        let mk = |g: &str| {
            (0..n)
                .map(|i| {
                    std::env::temp_dir()
                        .join(format!("pio_mirror_{tag}_{}_{g}{i}", std::process::id()))
                })
                .collect::<Vec<_>>()
        };
        (mk("p"), mk("m"))
    }

    fn cleanup(a: &[PathBuf], b: &[PathBuf]) {
        for d in a.iter().chain(b) {
            fs::remove_dir_all(d).ok();
        }
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 253) as u8).collect()
    }

    /// One 512 KB stripe read and one 64-byte header read at the paced
    /// rate of the whole-path benchmark's servers (8 MB/s; a header costs
    /// the fixed ~80 µs of any read).
    const STRIPE_READ: (u64, f64) = (512 << 10, (512 << 10) as f64 / 8e6);
    const HEADER_READ: (u64, f64) = (64, 80e-6);

    fn all_servers(n: u32) -> impl Iterator<Item = ServerId> {
        (0..2u8).flat_map(move |group| (0..n).map(move |index| ServerId { group, index }))
    }

    #[test]
    fn header_reads_between_stripe_reads_flag_nobody() {
        // Opening a volume reads a few headers from server 0 of a group;
        // per byte they cost ten times a stripe read at the same device.
        let mon = HealthMonitor::new(4);
        for _ in 0..50 {
            for s in all_servers(4) {
                mon.record(s, STRIPE_READ.0, STRIPE_READ.1);
            }
            for _ in 0..3 {
                mon.record(
                    ServerId { group: 0, index: 0 },
                    HEADER_READ.0,
                    HEADER_READ.1,
                );
                assert_eq!(mon.skips(), vec![], "a header read marked a server hot");
            }
        }
    }

    #[test]
    fn a_slow_server_is_flagged_as_soon_as_before_and_resync_forgets_it() {
        let mon = HealthMonitor::new(4);
        let slow = ServerId { group: 1, index: 2 };
        for _ in 0..10 {
            for s in all_servers(4) {
                mon.record(s, STRIPE_READ.0, STRIPE_READ.1);
            }
        }
        assert_eq!(mon.skips(), vec![]);
        // Ten times slower: an average with weight 0.3 on each new read
        // passes four times the median on the second one
        // (1 + (1 − 0.7²) × 9 = 5.6), and so do the decayed sums.
        mon.record(slow, STRIPE_READ.0, 10.0 * STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![]);
        mon.record(slow, STRIPE_READ.0, 10.0 * STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![slow]);
        // A rebuilt server starts over: its next read alone is its latency.
        mon.begin_resync(slow);
        mon.complete_resync(slow);
        assert_eq!(mon.skips(), vec![]);
        mon.record(slow, STRIPE_READ.0, STRIPE_READ.1);
        assert_eq!(mon.skips(), vec![]);
    }

    #[test]
    fn round_trip_and_dual_half() {
        let (p, m) = dirs("rt", 4);
        let st = MirroredStore::new(p.clone(), m.clone(), 512).unwrap();
        for size in [0usize, 1, 511, 512, 513, 8192, 50_000] {
            let data = pattern(size);
            st.put("obj", &data).unwrap();
            assert_eq!(read_all(&st, "obj").unwrap(), data, "size {size}");
        }
        cleanup(&p, &m);
    }

    #[test]
    fn both_groups_hold_full_copies() {
        let (p, m) = dirs("dup", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        let data = pattern(4096);
        st.put("obj", &data).unwrap();
        for (pd, md) in p.iter().zip(&m) {
            let a = fs::read(pd.join("obj")).unwrap();
            let b = fs::read(md.join("obj")).unwrap();
            assert_eq!(a, b, "mirror differs from primary");
            assert!(!a.is_empty());
        }
        cleanup(&p, &m);
    }

    #[test]
    fn survives_loss_of_one_group_member_via_skip() {
        let (p, m) = dirs("skip", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        // "Stress" primary server 1: huge injected delay plus EWMA training
        // so the monitor marks it hot.
        let hot = ServerId { group: 0, index: 1 };
        let mon = st.monitor();
        mon.record(hot, 1000, 10.0); // 10 ms/B: absurdly slow
        for i in 0..2u32 {
            for g in 0..2u8 {
                let s = ServerId { group: g, index: i };
                if s != hot {
                    mon.record(s, 1_000_000, 0.001);
                }
            }
        }
        assert_eq!(mon.skips(), vec![hot]);
        // Now delete the hot server's file entirely: reads must still work
        // because the plan avoids it.
        fs::remove_file(p[1].join("obj")).unwrap();
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(&p, &m);
    }

    #[test]
    fn a_throttled_server_triggers_skip_detection() {
        let (p, m) = dirs("detect", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        let data = pattern(64 * 1024);
        st.put("obj", &data).unwrap();
        // A loaded disk: its 4 KiB of every 16 KiB read costs it ~40 ms,
        // while its peers read from the page cache.
        let hot = ServerId { group: 0, index: 0 };
        st.set_server_throttle(hot, 100_000);
        let mut r = st.open("obj").unwrap();
        // A few reads train the EWMA; the hot server then gets skipped.
        let mut buf = vec![0u8; 16 * 1024];
        for i in 0..6 {
            r.read_at((i % 4) * 16 * 1024, &mut buf).unwrap();
        }
        assert!(
            st.monitor().skips().contains(&hot),
            "hot server not detected: {:?}",
            st.monitor().skips()
        );
        // Reads still return correct data while skipping.
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..16 * 1024]);
        cleanup(&p, &m);
    }

    #[test]
    fn hard_error_fails_over_to_partner_and_marks_dead() {
        let (p, m) = dirs("failover", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(20_000);
        st.put("obj", &data).unwrap();
        // Kill primary server 1 with NO prior EWMA training: the monitor
        // has no latency signal, so the plan still targets it; the read
        // must succeed anyway via per-part partner failover.
        fs::remove_file(p[1].join("obj")).unwrap();
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        let dead = ServerId { group: 0, index: 1 };
        assert_eq!(st.monitor().dead(), vec![dead]);
        assert!(st.monitor().skips().contains(&dead));
        // Subsequent reads plan around the dead server (no redirected
        // fetch needed — every planned part avoids it).
        let mut r = st.open("obj").unwrap();
        let mut buf = vec![0u8; 4096];
        r.read_at(512, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[512..512 + 4096]);
        cleanup(&p, &m);
    }

    #[test]
    fn losing_both_replicas_reports_an_error() {
        let (p, m) = dirs("bothdead", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        st.put("obj", &pattern(8_000)).unwrap();
        fs::remove_file(p[0].join("obj")).unwrap();
        fs::remove_file(m[0].join("obj")).unwrap();
        let err = read_all(&st, "obj").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        cleanup(&p, &m);
    }

    #[test]
    fn a_dead_server_is_excluded_until_resync_completes() {
        let (p, m) = dirs("revive", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        let dead = ServerId { group: 1, index: 0 };
        st.monitor().mark_dead(dead);
        assert_eq!(st.monitor().dead(), vec![dead]);
        assert_eq!(st.monitor().resync_state(dead), ResyncState::Degraded);
        assert!(st.monitor().skips().contains(&dead));
        // Simulate the data loss the crash caused, then rebuild.
        fs::remove_file(m[0].join("obj")).unwrap();
        let report = st.resync_server(dead, 0).unwrap();
        assert_eq!(report.objects, 1);
        assert!(report.bytes > 0);
        assert_eq!(st.monitor().resync_state(dead), ResyncState::Healthy);
        assert!(st.monitor().dead().is_empty());
        assert!(st.monitor().skips().is_empty());
        // The rebuilt replica is byte-identical to its partner.
        assert_eq!(
            fs::read(m[0].join("obj")).unwrap(),
            fs::read(p[0].join("obj")).unwrap()
        );
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(&p, &m);
    }

    #[test]
    fn read_repair_fixes_a_flipped_bit_from_the_partner() {
        let (p, m) = dirs("repair", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(20_000);
        st.put("obj", &data).unwrap();
        // Flip a bit in primary server 0's local file.
        let victim = p[0].join("obj");
        let pristine = fs::read(&victim).unwrap();
        let mut raw = pristine.clone();
        raw[1000] ^= 0x20;
        fs::write(&victim, &raw).unwrap();
        // Full reads return bytes identical to the original, transparently.
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        assert!(st.monitor().repaired_stripes() > 0, "repair not counted");
        // The corruption was healed on disk, and the server was NOT
        // declared dead (a media flaw is not a crash).
        assert_eq!(fs::read(&victim).unwrap(), pristine);
        assert!(st.monitor().dead().is_empty());
        assert!(st
            .scrub_object("obj", &mut RateLimiter::unlimited())
            .unwrap()
            .1
            .is_empty());
        cleanup(&p, &m);
    }

    #[test]
    fn corruption_on_both_replicas_is_an_error() {
        let (p, m) = dirs("bothbad", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        st.put("obj", &pattern(8_000)).unwrap();
        for dir in [&p[0], &m[0]] {
            let f = dir.join("obj");
            let mut raw = fs::read(&f).unwrap();
            raw[10] ^= 0x01;
            fs::write(&f, &raw).unwrap();
        }
        let err = read_all(&st, "obj").unwrap_err();
        assert!(integrity::is_corrupt(&err), "{err}");
        cleanup(&p, &m);
    }

    #[test]
    fn scrub_repairs_silent_corruption_before_any_read() {
        let (p, m) = dirs("scrub", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        let data = pattern(30_000);
        st.put("obj", &data).unwrap();
        // Silently corrupt two stripes on different servers.
        for (dir, at) in [(&m[1], 100usize), (&p[0], 2000)] {
            let f = dir.join("obj");
            let mut raw = fs::read(&f).unwrap();
            raw[at] ^= 0x80;
            fs::write(&f, &raw).unwrap();
        }
        let (repaired, unrepairable) = st
            .scrub_object("obj", &mut RateLimiter::unlimited())
            .unwrap();
        assert_eq!(repaired, 2);
        assert!(unrepairable.is_empty());
        assert_eq!(st.monitor().repaired_stripes(), 2);
        // Second pass: clean.
        let (again, _) = st
            .scrub_object("obj", &mut RateLimiter::unlimited())
            .unwrap();
        assert_eq!(again, 0);
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(&p, &m);
    }

    #[test]
    fn reads_match_the_object_across_flip_states() {
        let (p, m) = dirs("flip", 3);
        let st = MirroredStore::new(p.clone(), m.clone(), 512).unwrap();
        let data = pattern(40_000);
        st.put("obj", &data).unwrap();
        let mut r = st.open("obj").unwrap();
        let want = |regions: &[(u64, u64)]| -> Vec<u8> {
            regions
                .iter()
                .flat_map(|&(off, len)| data[off as usize..(off + len) as usize].to_vec())
                .collect()
        };
        // Every call flips which group serves the first half, so running
        // each read twice covers both orientations.
        for (off, len) in [(0u64, 10_000u64), (513, 7777), (100, 1), (0, 40_000)] {
            for _ in 0..2 {
                let mut buf = vec![0u8; len as usize];
                r.read_at(off, &mut buf).unwrap();
                assert_eq!(buf, want(&[(off, len)]), "off={off} len={len}");
            }
        }
        let list = [
            (39_000u64, 1000u64),
            (0, 3),
            (512, 512),
            (700, 20_000),
            (0, 3),
        ];
        for _ in 0..2 {
            assert_eq!(r.read_many_at(&list).unwrap(), want(&list));
        }
        cleanup(&p, &m);
    }

    #[test]
    fn delete_cleans_both_groups() {
        let (p, m) = dirs("del", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        st.put("obj", &pattern(1000)).unwrap();
        st.delete("obj").unwrap();
        for d in p.iter().chain(&m) {
            assert!(!d.join("obj").exists());
            assert!(!integrity::sums_path(&d.join("obj")).exists());
        }
        cleanup(&p, &m);
    }
}
