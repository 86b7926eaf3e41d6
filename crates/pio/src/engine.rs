//! The one real storage engine behind both parallel schemes.
//!
//! An object is striped round-robin over the N servers of a *copy*, and a
//! [`Store`] keeps `COPIES` identical copies in groups of N servers. One
//! copy is PVFS (RAID-0, [`StripedStore`]); two are CEFT-PVFS (RAID-10,
//! [`MirroredStore`]): writes are duplexed, and reads follow the dual-half
//! schedule, doubling the directories (disks) that serve one read. The
//! copy count comes from the constructor's directory groups; everything
//! else is one code path:
//!
//! * each server is a [`LocalStore`] over its directory (the per-server
//!   I/O daemon's local disk, on a single machine where "servers" are
//!   directories, typically on different disks or mount points) whose
//!   stripes are the engine's: it holds the server's stripes back to back
//!   and their checksum sidecar, and its put, delete and scrub are the
//!   engine's;
//! * one persistent reader lane per server, group-major, whose every
//!   fetch is the one verified range read of [`crate::integrity`];
//! * a [`HealthMonitor`] fed by every segment's read time.
//!
//! A read splits each region into one piece per copy and ships one lane job
//! per involved server. With a second copy a hot or dead server is skipped
//! in favour of its mirror partner (§4.5), a hard error fails the segment
//! over to the partner, and a checksum mismatch is read-repaired from it.
//! With one copy there is no partner: the typed corrupt error or the I/O
//! error is the answer, and PVFS's abort-and-reassign path picks it up.

use std::fs::{self, File};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use crate::integrity::{self, VerifiedFile};
use crate::layout::{MirroredLayout, ServerId};
use crate::monitor::HealthMonitor;
use crate::pool::{self, LanePlan, RateLimiter, ReaderPool};
use crate::store::{LocalStore, ObjectReader, ObjectStore};

/// A striped store keeping `COPIES` identical copies of every object.
#[derive(Debug, Clone)]
pub struct Store<const COPIES: usize> {
    /// One local store per server, group-major: lane `g × N + i` is
    /// server `i` of copy `g`.
    lanes: Arc<Vec<LocalStore>>,
    /// The per-copy stripe layout, and which server mirrors which.
    layout: MirroredLayout,
    monitor: Arc<HealthMonitor>,
    pool: Arc<ReaderPool>,
}

/// PVFS-style RAID-0: one copy striped over N server directories.
pub type StripedStore = Store<1>;

/// CEFT-PVFS-style RAID-10: a primary and a mirror group of N server
/// directories each, holding identical striped copies.
pub type MirroredStore = Store<2>;

impl Store<1> {
    /// New store striping over `dirs` with `stripe_size` (paper: 64 KB).
    /// Directories are created if missing.
    pub fn new(dirs: Vec<PathBuf>, stripe_size: u64) -> io::Result<Self> {
        Self::with_groups([dirs], stripe_size)
    }
}

impl Store<2> {
    /// New mirrored store (equal-length groups; directories created).
    pub fn new(primary: Vec<PathBuf>, mirror: Vec<PathBuf>, stripe_size: u64) -> io::Result<Self> {
        Self::with_groups([primary, mirror], stripe_size)
    }
}

impl<const COPIES: usize> Store<COPIES> {
    fn with_groups(groups: [Vec<PathBuf>; COPIES], stripe_size: u64) -> io::Result<Self> {
        let n = groups[0].len();
        assert!(n > 0, "need at least one server directory");
        assert!(
            groups.iter().all(|g| g.len() == n),
            "mirror group must match primary group"
        );
        let lanes: Vec<LocalStore> = groups
            .into_iter()
            .flatten()
            .map(|d| LocalStore::with_stripe(d, stripe_size))
            .collect::<io::Result<_>>()?;
        Ok(Store {
            layout: MirroredLayout::new(stripe_size, n as u32),
            monitor: Arc::new(HealthMonitor::new(n, COPIES)),
            pool: Arc::new(ReaderPool::new(lanes.len())),
            lanes: Arc::new(lanes),
        })
    }

    /// Model per-server disk bandwidth (bytes/second; 0 = unthrottled).
    /// Benchmarks use this to stand in for the paper's ~26 MB/s disks.
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

    /// The shared health monitor (for inspection, and to mark a server
    /// dead).
    pub fn monitor(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    fn lane_of(&self, s: ServerId) -> usize {
        s.group as usize * self.layout.group_size() as usize + s.index as usize
    }

    fn server_of(&self, lane: usize) -> ServerId {
        let n = self.layout.group_size() as usize;
        ServerId {
            group: (lane / n) as u8,
            index: (lane % n) as u32,
        }
    }

    fn server(&self, s: ServerId) -> &LocalStore {
        &self.lanes[self.lane_of(s)]
    }

    /// Copy `group`'s logical size record, beside its first server. Every
    /// copy keeps one, so any copy alone can open the object.
    fn meta_path(&self, group: usize, name: &str) -> PathBuf {
        let first = group * self.layout.group_size() as usize;
        self.lanes[first].path_of(&format!("{name}.meta"))
    }

    /// The server holding `s`'s stripes in the other copy; `None` with
    /// one copy, whose stripes have no second home.
    fn partner(&self, s: ServerId) -> Option<ServerId> {
        (COPIES > 1).then(|| self.layout.partner(s))
    }

    /// Servers a read plans around — hot or dead ones — when a partner
    /// can take their share; none with one copy.
    fn skips(&self) -> Vec<ServerId> {
        if COPIES > 1 {
            self.monitor.skips()
        } else {
            Vec::new()
        }
    }

    /// Verify every stored stripe of `name` against the sidecars, paced by
    /// `limiter`, and rewrite any corrupt stripe from its mirror partner
    /// (counted in [`HealthMonitor::repaired_stripes`]). Returns
    /// `(repaired, unrepairable)`: a stripe is unrepairable when the
    /// partner's copy fails verification too, or when there is no second
    /// copy — PVFS can only report corruption.
    pub fn scrub_object(
        &self,
        name: &str,
        limiter: &mut RateLimiter,
    ) -> io::Result<(u64, Vec<(ServerId, u64)>)> {
        let s = self.layout.stripe.stripe_size;
        let mut repaired = 0u64;
        let mut unrepairable = Vec::new();
        for (lane, local) in self.lanes.iter().enumerate() {
            let server = self.server_of(lane);
            for k in local.scrub_object(name, limiter)? {
                let source = self
                    .partner(server)
                    .map(|p| verified_stripe(self.server(p), name, k, limiter));
                match source {
                    Some(Ok((start, bytes))) => {
                        let path = local.path_of(name);
                        repaired += integrity::repair_stripes(&path, start, &bytes, &[k], s)?;
                    }
                    _ => unrepairable.push((server, k)),
                }
            }
        }
        self.monitor.note_repair(repaired);
        Ok((repaired, unrepairable))
    }
}

/// Local stripe `k` of `name` on `server`, read (paced by `limiter`) and
/// verified before a repair may copy from it.
fn verified_stripe(
    server: &LocalStore,
    name: &str,
    k: u64,
    limiter: &mut RateLimiter,
) -> io::Result<(u64, Vec<u8>)> {
    let mut r = server.reader(name)?;
    let (start, s) = (k * r.at.stripe, r.at.stripe);
    let ln = s.min(r.at.len.saturating_sub(start));
    if ln == 0 {
        return Err(integrity::corrupt_error(&r.at.path, k));
    }
    let mut bytes = vec![0u8; ln as usize];
    r.read_at(start, &mut bytes)?;
    limiter.consume(ln);
    Ok((start, bytes))
}

impl<const COPIES: usize> ObjectStore for Store<COPIES> {
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let n = self.layout.group_size() as usize;
        let stripes = || data.chunks(self.layout.stripe.stripe_size as usize);
        // Every copy holds the same striped layout — server i's local file
        // is stripes i, i + N, … back to back — so the per-server checksum
        // sidecars are computed once and written to each copy.
        let mut sums: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (k, chunk) in stripes().enumerate() {
            sums[k % n].push(integrity::crc32c(chunk));
        }
        for (lane, server) in self.lanes.iter().enumerate() {
            let i = lane % n;
            server.put_parts(name, stripes().skip(i).step_by(n), Some(&sums[i]))?;
        }
        // Record the logical size (stripe math alone cannot recover it
        // when the last stripe is partial and groups are uneven).
        let size = data.len().to_string();
        for g in 0..COPIES {
            integrity::replace_file(&self.meta_path(g, name), [size.as_bytes()])?;
        }
        Ok(())
    }

    /// A reader with every server's checksum sidecar loaded for lane-side
    /// verification (and, with a mirror, read-repair).
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        let size = self.size(name)?;
        let replicas = self
            .lanes
            .iter()
            .enumerate()
            .map(|(lane, local)| {
                let server = self.server_of(lane);
                let len = self.layout.stripe.server_share(size, server.index);
                Arc::new(Replica {
                    server,
                    at: local.verified(name, len),
                    throttle: self.pool.throttle(lane),
                })
            })
            .collect();
        Ok(Box::new(Reader {
            store: self.clone(),
            size,
            replicas,
            turn: 0,
        }))
    }

    /// The first size record that exists, in copy order.
    fn size(&self, name: &str) -> io::Result<u64> {
        let record = |g| fs::read_to_string(self.meta_path(g, name));
        let s = (1..COPIES).fold(record(0), |got, g| got.or_else(|_| record(g)))?;
        s.trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad meta: {e}")))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        for server in self.lanes.iter() {
            server.delete(name)?;
        }
        for g in 0..COPIES {
            let _ = fs::remove_file(self.meta_path(g, name));
        }
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

impl Store<2> {
    /// Rebuild every object on `s` from its mirror partner, paced at
    /// `bytes_per_s` (0 = unpaced), then return the server to rotation.
    ///
    /// The server is put into [`crate::ResyncState::Rebuilding`] for the
    /// whole copy, so concurrent reads keep avoiding it; only a fully
    /// verified rebuild flips it back to `Healthy`. On error the server
    /// stays excluded (`Rebuilding`), which fails safe: a half-rebuilt
    /// replica never serves reads.
    pub fn resync_server(&self, s: ServerId, bytes_per_s: u64) -> io::Result<ResyncReport> {
        self.monitor.begin_resync(s);
        let mut limiter = RateLimiter::new(bytes_per_s);
        let (src, dst) = (self.server(self.layout.partner(s)), self.server(s));
        let mut report = ResyncReport::default();
        // Deterministic object order: sorted names.
        for name in src.names()? {
            if name.ends_with(".meta") {
                // A copy's first server also holds the size record.
                let record = fs::read(src.path_of(&name))?;
                integrity::replace_file(&dst.path_of(&name), [&record[..]])?;
                continue;
            }
            // The partner is the only good copy left: one verified read of
            // its whole file, then the put that rebuilds this one, with
            // the partner's sidecar (or none, when it has none).
            let mut from = src.reader(&name)?;
            let mut data = vec![0u8; from.at.len as usize];
            from.read_at(0, &mut data)?;
            limiter.consume(from.at.len);
            let sums = (!from.at.sums.is_empty()).then_some(&from.at.sums[..]);
            dst.put_parts(&name, [&data[..]], sums)?;
            report.objects += 1;
            report.bytes += from.at.len;
        }
        self.monitor.complete_resync(s);
        Ok(report)
    }
}

/// A reader over one object of a [`Store`].
struct Reader<const COPIES: usize> {
    store: Store<COPIES>,
    size: u64,
    /// Every server's copy of the object, by lane, each with the sidecar
    /// loaded at open (empty = none on disk; that server reads
    /// unverified). Read-repair rewrites the on-disk copy, so a reader
    /// holding a stale cached sidecar only risks re-repairing (identical
    /// bytes), never serving bad data.
    replicas: Vec<Arc<Replica>>,
    /// The copy that serves the first piece of every region in the next
    /// call.
    turn: usize,
}

/// One server's copy of the object, as a lane job reads it.
struct Replica {
    server: ServerId,
    at: VerifiedFile,
    throttle: Arc<AtomicU64>,
}

impl<const COPIES: usize> Reader<COPIES> {
    /// Refuse a region that ends past the object (or past `u64::MAX`).
    fn check_bounds(&self, regions: &[(u64, u64)]) -> io::Result<()> {
        let past_end =
            |&(off, len): &(u64, u64)| off.checked_add(len).is_none_or(|end| end > self.size);
        if regions.iter().any(past_end) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of object",
            ));
        }
        Ok(())
    }

    /// The one read path: every `(offset, len)` of `regions` (already
    /// bounds-checked), concatenated into `buf`, with ONE lane job per
    /// involved physical server carrying every segment it serves. A
    /// contiguous read is a list of one region, and each piece of a region
    /// places at most one part per lane. Each segment is checksum-verified
    /// on its own, so a flipped bit is caught for exactly the region that
    /// covers it.
    fn read_into(&mut self, regions: &[(u64, u64)], buf: &mut [u8]) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        // One turn per call: every region of a list follows the same
        // orientation, and consecutive calls rotate it (with two copies,
        // alternate which group serves the first half).
        let first = self.turn;
        self.turn = (self.turn + 1) % COPIES;
        let skips = self.store.skips();
        let layout = &self.store.layout;
        let mut plans = vec![LanePlan::default(); self.store.lanes.len()];
        let mut dst = 0usize;
        for &(off, len) in regions {
            // One piece per copy: the whole region with one copy, the
            // dual-half schedule with two. A skip-redirected part keeps
            // its piece's offsets: every copy stores the same layout.
            let cut = |c: usize| off + (u128::from(len) * c as u128 / COPIES as u128) as u64;
            for c in 0..COPIES {
                let piece = (cut(c), cut(c + 1) - cut(c));
                let group = ((first + c) % COPIES) as u8;
                for r in layout.stripe.map_extent(piece.0, piece.1) {
                    let part = layout.place(r, group, &skips);
                    let at = dst + (piece.0 - off) as usize;
                    plans[self.store.lane_of(part.server)].push(&layout.stripe, piece, r, at);
                }
            }
            dst += len as usize;
        }
        self.store.pool.read(plans, buf, |lane| {
            let own = Arc::clone(&self.replicas[lane]);
            let partner = self
                .store
                .partner(own.server)
                .map(|p| Arc::clone(&self.replicas[self.store.lane_of(p)]));
            let mon = self.store.monitor();
            let mut scratch = Vec::new();
            move |lo, dst: &mut [u8]| {
                // The verified range read of `r`'s file straight into
                // `buf`, paced at the rate of the disk it comes from and
                // timed for the monitor unless the file could not be read.
                let ln = dst.len() as u64;
                let fetch = |r: &Replica, off, buf: &mut [u8], scratch: &mut Vec<u8>| {
                    let t0 = Instant::now();
                    let got =
                        File::open(&r.at.path).and_then(|f| r.at.read_at(&f, off, buf, scratch));
                    if got.as_ref().map_or_else(integrity::is_corrupt, |()| true) {
                        pool::pace(&r.throttle, ln);
                        mon.record(r.server, ln, t0.elapsed().as_secs_f64());
                    }
                    got
                };
                let Err(err) = fetch(&own, lo, dst, &mut scratch) else {
                    return Ok(());
                };
                // No second copy: the hard error, or the typed corrupt
                // error for the first bad stripe, is the answer.
                let Some(partner) = &partner else {
                    return Err(err);
                };
                // A checksum mismatch or a hard error: serve the segment
                // from the stripe-aligned span of the mirror partner once
                // *its* copy verifies. A mismatch is then read-repaired —
                // every bad stripe of the span is rewritten, data and
                // sidecar — but only a hard error marks the server dead
                // (later plans avoid it until a resync completes): one bad
                // stripe is a media flaw, not a crash.
                let stripe = own.at.stripe;
                let bad = if integrity::is_corrupt(&err) {
                    let span = integrity::read_aligned(&own.at.path, lo, ln, stripe, own.at.len);
                    span.map_or_else(
                        |_| Vec::new(),
                        |(start, got)| integrity::bad_stripes(&got, start, stripe, &own.at.sums),
                    )
                } else {
                    mon.mark_dead(own.server);
                    Vec::new()
                };
                let (start, len) = integrity::aligned_span(lo, ln, stripe, partner.at.len);
                let mut good = vec![0u8; len as usize];
                fetch(partner, start, &mut good, &mut scratch)?;
                if let Ok(k) = integrity::repair_stripes(&own.at.path, start, &good, &bad, stripe) {
                    mon.note_repair(k);
                }
                dst.copy_from_slice(&good[(lo - start) as usize..][..dst.len()]);
                Ok(())
            }
        })
    }
}

impl<const COPIES: usize> ObjectReader for Reader<COPIES> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let regions = [(offset, buf.len() as u64)];
        self.check_bounds(&regions)?;
        self.read_into(&regions, buf)
    }

    fn read_many_at(&mut self, regions: &[(u64, u64)]) -> io::Result<Vec<u8>> {
        self.check_bounds(regions)?;
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
    use crate::monitor::ResyncState;
    use crate::store::read_all;
    use std::path::Path;

    fn striped_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| {
                std::env::temp_dir().join(format!("pio_striped_{tag}_{}_{i}", std::process::id()))
            })
            .collect()
    }

    fn mirrored_dirs(tag: &str, n: usize) -> (Vec<PathBuf>, Vec<PathBuf>) {
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

    fn cleanup<'a>(ds: impl IntoIterator<Item = &'a PathBuf>) {
        for d in ds {
            fs::remove_dir_all(d).ok();
        }
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    fn flip_bit(file: &Path, at: usize, mask: u8) {
        let mut raw = fs::read(file).unwrap();
        raw[at] ^= mask;
        fs::write(file, &raw).unwrap();
    }

    #[test]
    fn round_trip_various_sizes() {
        let ds = striped_dirs("rt", 4);
        let st = StripedStore::new(ds.clone(), 1024).unwrap();
        for size in [0usize, 1, 1023, 1024, 1025, 4096, 100_000] {
            let data = pattern(size);
            st.put("obj", &data).unwrap();
            assert_eq!(st.size("obj").unwrap(), size as u64);
            let before = st.server_requests();
            assert_eq!(read_all(&st, "obj").unwrap(), data, "size {size}");
            // A zero-length read submits nothing.
            assert_eq!(st.server_requests() == before, size == 0, "size {size}");
        }
        cleanup(&ds);
    }

    #[test]
    fn partial_reads_at_odd_offsets() {
        let ds = striped_dirs("partial", 3);
        let st = StripedStore::new(ds.clone(), 64).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        let mut r = st.open("obj").unwrap();
        for (off, len) in [(0u64, 1usize), (63, 2), (64, 64), (1000, 3333), (9999, 1)] {
            let mut buf = vec![0u8; len];
            r.read_at(off, &mut buf).unwrap();
            assert_eq!(&buf[..], &data[off as usize..off as usize + len]);
        }
        cleanup(&ds);
    }

    #[test]
    fn stripes_land_on_all_servers() {
        let ds = striped_dirs("spread", 4);
        let st = StripedStore::new(ds.clone(), 100).unwrap();
        st.put("obj", &pattern(1000)).unwrap();
        for (i, d) in ds.iter().enumerate() {
            let sz = fs::metadata(d.join("obj")).unwrap().len();
            assert!(sz > 0, "server {i} holds no data");
        }
        // Per-server share: 10 stripes over 4 servers → 300/300/200/200.
        let s0 = fs::metadata(ds[0].join("obj")).unwrap().len();
        assert_eq!(s0, 300);
        cleanup(&ds);
    }

    #[test]
    fn read_past_end_is_error() {
        let ds = striped_dirs("eof", 2);
        let st = StripedStore::new(ds.clone(), 64).unwrap();
        st.put("obj", &pattern(100)).unwrap();
        let mut r = st.open("obj").unwrap();
        let mut buf = vec![0u8; 200];
        assert!(r.read_at(0, &mut buf).is_err());
        cleanup(&ds);
    }

    /// A region whose end overflows `u64` is past the end of any object:
    /// the guard must say so, not overflow (a debug build panicked; a
    /// release build wrapped past the guard).
    #[test]
    fn a_read_ending_past_u64_max_is_unexpected_eof_on_both_copy_counts() {
        let ds = striped_dirs("overflow", 2);
        let (p, m) = mirrored_dirs("overflow", 2);
        let striped = StripedStore::new(ds.clone(), 64).unwrap();
        let mirrored = MirroredStore::new(p.clone(), m.clone(), 64).unwrap();
        for store in [&striped as &dyn ObjectStore, &mirrored] {
            store.put("obj", &pattern(1000)).unwrap();
            let mut r = store.open("obj").unwrap();
            let err = r.read_at(u64::MAX - 1, &mut [0u8; 4]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            let err = r.read_many_at(&[(0, 4), (u64::MAX - 1, 4)]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        cleanup(ds.iter().chain(&p).chain(&m));
    }

    #[test]
    fn delete_removes_all_pieces() {
        let ds = striped_dirs("del", 3);
        let st = StripedStore::new(ds.clone(), 64).unwrap();
        st.put("obj", &pattern(1000)).unwrap();
        // One copy, one size record: beside server 0 only.
        let records = |d: &PathBuf| d.join("obj.meta").exists();
        assert_eq!(
            ds.iter().map(records).collect::<Vec<_>>(),
            [true, false, false]
        );
        st.delete("obj").unwrap();
        assert!(st.open("obj").is_err());
        for d in &ds {
            assert!(!d.join("obj").exists());
            assert!(!records(d));
        }
        cleanup(&ds);
    }

    #[test]
    fn concurrent_reads_from_several_threads_share_the_lanes() {
        let ds = striped_dirs("concurrent", 3);
        let st = StripedStore::new(ds.clone(), 512).unwrap();
        let data = pattern(60_000);
        st.put("obj", &data).unwrap();
        let before = st.server_requests();
        std::thread::scope(|s| {
            for i in 0..8usize {
                let (st, data) = (&st, &data);
                s.spawn(move || {
                    let mut r = st.open("obj").unwrap();
                    let mut buf = vec![0u8; 5000];
                    for rep in 0..4 {
                        let off = (i * 7000 + rep * 101) % (data.len() - buf.len());
                        r.read_at(off as u64, &mut buf).unwrap();
                        assert_eq!(&buf[..], &data[off..off + 5000], "thread {i} read {rep}");
                    }
                });
            }
        });
        // Three servers, so no read ever costs more than three jobs.
        assert!(st.server_requests() - before <= 8 * 4 * 3);
        cleanup(&ds);
    }

    #[test]
    fn flipped_bit_surfaces_typed_corrupt_error() {
        let ds = striped_dirs("corrupt", 3);
        let st = StripedStore::new(ds.clone(), 256).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        // Flip one bit in server 1's local file (stripe 1, i.e. logical
        // stripe 4 of the object).
        let victim = ds[1].join("obj");
        flip_bit(&victim, 300, 0x08);
        let rotten = fs::read(&victim).unwrap();
        // A read not touching the bad stripe still succeeds...
        let mut r = st.open("obj").unwrap();
        let mut buf = vec![0u8; 100];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..100]);
        // ...but covering it reports the typed corrupt error, and the
        // scrub pinpoints it. With one copy nothing is repaired: not by
        // the read, not by the scrub.
        let mut big = vec![0u8; 4000];
        let err = r.read_at(0, &mut big).unwrap_err();
        assert!(integrity::is_corrupt(&err), "{err}");
        assert_eq!(integrity::corrupt_stripe_of(&err), Some(1));
        assert_eq!(
            st.scrub_object("obj", &mut RateLimiter::unlimited())
                .unwrap(),
            (0, vec![(ServerId { group: 0, index: 1 }, 1)])
        );
        assert_eq!(fs::read(&victim).unwrap(), rotten);
        assert_eq!(st.monitor().repaired_stripes(), 0);
        cleanup(&ds);
    }

    #[test]
    fn a_lost_stripe_file_with_one_copy_is_the_io_error_and_marks_nobody_dead() {
        let ds = striped_dirs("lost", 2);
        let st = StripedStore::new(ds.clone(), 128).unwrap();
        st.put("obj", &pattern(8_000)).unwrap();
        fs::remove_file(ds[1].join("obj")).unwrap();
        let err = read_all(&st, "obj").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        // No partner to route to, so no server is taken out of rotation.
        assert!(st.monitor().dead().is_empty());
        cleanup(&ds);
    }

    #[test]
    fn missing_sidecar_reads_unverified() {
        let ds = striped_dirs("nosums", 2);
        let st = StripedStore::new(ds.clone(), 128).unwrap();
        let data = pattern(2_000);
        st.put("obj", &data).unwrap();
        for d in &ds {
            fs::remove_file(integrity::sums_path(&d.join("obj"))).unwrap();
        }
        // No sidecars: legacy objects stay readable, scrub has nothing to
        // check.
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        assert_eq!(
            st.scrub_object("obj", &mut RateLimiter::unlimited())
                .unwrap(),
            (0, vec![])
        );
        cleanup(&ds);
    }

    #[test]
    fn single_server_degenerates_to_local() {
        let ds = striped_dirs("one", 1);
        let st = StripedStore::new(ds.clone(), 64 << 10).unwrap();
        let data = pattern(200_000);
        st.put("obj", &data).unwrap();
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(&ds);
    }

    #[test]
    fn round_trip_and_dual_half() {
        let (p, m) = mirrored_dirs("rt", 4);
        let st = MirroredStore::new(p.clone(), m.clone(), 512).unwrap();
        for size in [0usize, 1, 511, 512, 513, 8192, 50_000] {
            let data = pattern(size);
            st.put("obj", &data).unwrap();
            assert_eq!(read_all(&st, "obj").unwrap(), data, "size {size}");
        }
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn both_groups_hold_full_copies() {
        let (p, m) = mirrored_dirs("dup", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        let data = pattern(4096);
        st.put("obj", &data).unwrap();
        for (pd, md) in p.iter().zip(&m) {
            let a = fs::read(pd.join("obj")).unwrap();
            let b = fs::read(md.join("obj")).unwrap();
            assert_eq!(a, b, "mirror differs from primary");
            assert!(!a.is_empty());
        }
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn survives_loss_of_one_group_member_via_skip() {
        let (p, m) = mirrored_dirs("skip", 2);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn a_throttled_server_triggers_skip_detection() {
        let (p, m) = mirrored_dirs("detect", 2);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn hard_error_fails_over_to_partner_and_marks_dead() {
        let (p, m) = mirrored_dirs("failover", 2);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn losing_both_replicas_reports_an_error() {
        let (p, m) = mirrored_dirs("bothdead", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        st.put("obj", &pattern(8_000)).unwrap();
        fs::remove_file(p[0].join("obj")).unwrap();
        fs::remove_file(m[0].join("obj")).unwrap();
        let err = read_all(&st, "obj").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn a_dead_server_is_excluded_until_resync_completes() {
        let (p, m) = mirrored_dirs("revive", 2);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn read_repair_fixes_a_flipped_bit_from_the_partner() {
        let (p, m) = mirrored_dirs("repair", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(20_000);
        st.put("obj", &data).unwrap();
        // Flip a bit in primary server 0's local file.
        let victim = p[0].join("obj");
        let pristine = fs::read(&victim).unwrap();
        flip_bit(&victim, 1000, 0x20);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn corruption_on_both_replicas_is_an_error() {
        let (p, m) = mirrored_dirs("bothbad", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        st.put("obj", &pattern(8_000)).unwrap();
        for dir in [&p[0], &m[0]] {
            flip_bit(&dir.join("obj"), 10, 0x01);
        }
        let err = read_all(&st, "obj").unwrap_err();
        assert!(integrity::is_corrupt(&err), "{err}");
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn scrub_repairs_silent_corruption_before_any_read() {
        let (p, m) = mirrored_dirs("scrub", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        let data = pattern(30_000);
        st.put("obj", &data).unwrap();
        // Silently corrupt two stripes on different servers.
        for (dir, at) in [(&m[1], 100usize), (&p[0], 2000)] {
            flip_bit(&dir.join("obj"), at, 0x80);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn reads_match_the_object_across_flip_states() {
        let (p, m) = mirrored_dirs("flip", 3);
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
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn delete_cleans_both_groups() {
        let (p, m) = mirrored_dirs("del", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 256).unwrap();
        st.put("obj", &pattern(1000)).unwrap();
        assert!(p[0].join("obj.meta").exists() && m[0].join("obj.meta").exists());
        st.delete("obj").unwrap();
        for d in p.iter().chain(&m) {
            assert!(!d.join("obj").exists());
            assert!(!integrity::sums_path(&d.join("obj")).exists());
            assert!(!d.join("obj.meta").exists());
        }
        cleanup(p.iter().chain(&m));
    }

    /// After a put, every server file is a fresh striping of `data`, every
    /// sidecar that file's stripe sums, every copy's size record the
    /// length, the scrub finds nothing and the object reads back.
    fn assert_holds_exactly<const C: usize>(st: &Store<C>, groups: &[&[PathBuf]], data: &[u8]) {
        let s = st.layout.stripe.stripe_size;
        for group in groups {
            let n = group.len();
            for (i, d) in group.iter().enumerate() {
                let want: Vec<u8> = data
                    .chunks(s as usize)
                    .skip(i)
                    .step_by(n)
                    .flatten()
                    .copied()
                    .collect();
                let file = fs::read(d.join("obj")).unwrap();
                assert_eq!(file, want, "server {i}, {} bytes", data.len());
                let sums = integrity::load_sums(&d.join("obj"));
                assert_eq!(sums, integrity::stripe_sums(&file, s));
            }
            let record = fs::read_to_string(group[0].join("obj.meta")).unwrap();
            assert_eq!(record, data.len().to_string());
        }
        let (repaired, unrepairable) = st
            .scrub_object("obj", &mut RateLimiter::unlimited())
            .unwrap();
        assert_eq!((repaired, unrepairable), (0, vec![]));
        assert_eq!(read_all(st, "obj").unwrap(), data);
    }

    #[test]
    fn put_replaces_in_place_and_cuts_to_length_on_both_copy_counts() {
        let ds = striped_dirs("replace", 3);
        let (p, m) = mirrored_dirs("replace", 3);
        let striped = StripedStore::new(ds.clone(), 16 << 10).unwrap();
        let mirrored = MirroredStore::new(p.clone(), m.clone(), 16 << 10).unwrap();
        // Longer, shorter (also across a stripe boundary), longer, empty.
        for (len, salt) in [(300_000, 1), (70_000, 2), (500_000, 3), (0, 4), (10, 5)] {
            let data: Vec<u8> = (0..len).map(|i: u32| ((i ^ salt) % 251) as u8).collect();
            striped.put("obj", &data).unwrap();
            assert_holds_exactly(&striped, &[&ds], &data);
            mirrored.put("obj", &data).unwrap();
            assert_holds_exactly(&mirrored, &[&p, &m], &data);
        }
        cleanup(ds.iter().chain(&p).chain(&m));
    }

    #[test]
    fn losing_primary_zero_keeps_every_object_readable_and_resync_restores_it() {
        let (p, m) = mirrored_dirs("meta", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        // Primary 0 loses its stripe file, its sidecar and its size record.
        let obj = p[0].join("obj");
        let lost = [
            obj.clone(),
            integrity::sums_path(&obj),
            p[0].join("obj.meta"),
        ];
        let kept: Vec<Vec<u8>> = lost.iter().map(|f| fs::read(f).unwrap()).collect();
        for f in &lost {
            fs::remove_file(f).unwrap();
        }
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        let report = st
            .resync_server(ServerId { group: 0, index: 0 }, 0)
            .unwrap();
        assert_eq!(report.objects, 1);
        for (f, want) in lost.iter().zip(&kept) {
            assert_eq!(&fs::read(f).unwrap(), want, "{}", f.display());
        }
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(p.iter().chain(&m));
    }

    #[test]
    fn resync_from_a_partner_with_no_sidecar_rebuilds_no_sidecar() {
        let (p, m) = mirrored_dirs("resync_nosums", 2);
        let st = MirroredStore::new(p.clone(), m.clone(), 128).unwrap();
        let data = pattern(9_000);
        st.put("obj", &data).unwrap();
        for d in p.iter().chain(&m) {
            integrity::remove_sums(&d.join("obj"));
        }
        let target = ServerId { group: 1, index: 1 };
        flip_bit(&m[1].join("obj"), 7, 0x04);
        st.resync_server(target, 0).unwrap();
        let rebuilt = m[1].join("obj");
        assert!(!integrity::sums_path(&rebuilt).exists());
        assert_eq!(
            fs::read(&rebuilt).unwrap(),
            fs::read(p[1].join("obj")).unwrap()
        );
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(p.iter().chain(&m));
    }
}
