//! RAID-0 striped store: real files dealt round-robin across N server
//! directories, read back through one *persistent* reader thread per
//! server — a working user-space analogue of PVFS's data path on a single
//! machine (where "servers" are directories, typically on different disks
//! or mount points in a real deployment, and the reader threads stand in
//! for the per-server I/O daemons).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Arc;

use crate::integrity;
use crate::layout::StripeLayout;
use crate::pool::{self, LanePlan, RateLimiter, ReaderPool};
use crate::store::{ObjectReader, ObjectStore};

/// RAID-0 store over N server directories.
#[derive(Debug, Clone)]
pub struct StripedStore {
    dirs: Arc<Vec<PathBuf>>,
    layout: StripeLayout,
    pool: Arc<ReaderPool>,
}

impl StripedStore {
    /// New store striping over `dirs` with `stripe_size` (paper: 64 KB).
    /// Directories are created if missing.
    pub fn new(dirs: Vec<PathBuf>, stripe_size: u64) -> io::Result<Self> {
        assert!(!dirs.is_empty(), "need at least one server directory");
        for d in &dirs {
            fs::create_dir_all(d)?;
        }
        let layout = StripeLayout::new(stripe_size, dirs.len() as u32);
        let pool = Arc::new(ReaderPool::new(dirs.len()));
        Ok(StripedStore {
            dirs: Arc::new(dirs),
            layout,
            pool,
        })
    }

    /// Model per-server disk bandwidth (bytes/second; 0 = unthrottled).
    /// Benchmarks use this to stand in for the paper's ~26 MB/s disks.
    pub fn set_io_throttle(&self, bytes_per_s: u64) {
        self.pool.set_throttle(bytes_per_s);
    }

    /// [`Self::set_io_throttle`] for one server only: a loaded disk.
    pub fn set_server_throttle(&self, server: u32, bytes_per_s: u64) {
        self.pool.set_lane_throttle(server as usize, bytes_per_s);
    }

    /// Server requests (lane jobs) issued through this store so far —
    /// the number list I/O collapses.
    pub fn server_requests(&self) -> u64 {
        self.pool.jobs_submitted()
    }

    /// The stripe layout in use.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// Number of server directories.
    pub fn servers(&self) -> usize {
        self.dirs.len()
    }

    fn server_path(&self, server: u32, name: &str) -> PathBuf {
        self.dirs[server as usize].join(name)
    }

    /// Verify every server's stripes of `name` against the sidecars,
    /// paced by `limiter`. PVFS has no redundancy, so corruption can only
    /// be *reported*: the result lists `(server, local_stripe)` pairs.
    pub fn scrub_object(
        &self,
        name: &str,
        limiter: &mut RateLimiter,
    ) -> io::Result<Vec<(u32, u64)>> {
        let mut out = Vec::new();
        for i in 0..self.servers() as u32 {
            let path = self.server_path(i, name);
            for k in integrity::scrub_file(&path, self.layout.stripe_size, limiter)? {
                out.push((i, k));
            }
        }
        Ok(out)
    }
}

impl ObjectStore for StripedStore {
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        // Each server's local file is its stripes concatenated in order.
        let n = self.servers() as u64;
        let s = self.layout.stripe_size;
        let mut files: Vec<File> = (0..self.servers())
            .map(|i| File::create(self.server_path(i as u32, name)))
            .collect::<io::Result<_>>()?;
        // Each data chunk is exactly one stripe (the last may be partial),
        // so per-server checksum sidecars accumulate chunk by chunk.
        let mut sums: Vec<Vec<u32>> = vec![Vec::new(); self.servers()];
        for (k, chunk) in data.chunks(s as usize).enumerate() {
            let srv = (k as u64 % n) as usize;
            files[srv].write_all(chunk)?;
            sums[srv].push(integrity::crc32c(chunk));
        }
        for mut f in files {
            f.flush()?;
        }
        for (i, server_sums) in sums.into_iter().enumerate() {
            let side = integrity::sums_path(&self.server_path(i as u32, name));
            fs::write(side, integrity::encode_sums(&server_sums))?;
        }
        // Record the logical size (stripe math alone cannot recover it
        // when the last stripe is partial and groups are uneven).
        let meta = self.server_path(0, &format!("{name}.meta"));
        fs::write(meta, data.len().to_string())
    }

    /// A [`StripedReader`], with each server's checksum sidecar loaded for
    /// lane-side verification.
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        let size = self.size(name)?;
        let sums = (0..self.servers())
            .map(|i| Arc::new(integrity::load_sums(&self.server_path(i as u32, name))))
            .collect();
        Ok(Box::new(StripedReader {
            store: self.clone(),
            name: name.to_string(),
            size,
            sums,
        }))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        let meta = self.server_path(0, &format!("{name}.meta"));
        let s = fs::read_to_string(meta)?;
        s.trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad meta: {e}")))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        for i in 0..self.servers() {
            let p = self.server_path(i as u32, name);
            integrity::remove_sums(&p);
            match fs::remove_file(p) {
                Ok(()) | Err(_) => {}
            }
        }
        let _ = fs::remove_file(self.server_path(0, &format!("{name}.meta")));
        Ok(())
    }
}

/// Parallel striped reader.
pub struct StripedReader {
    store: StripedStore,
    name: String,
    size: u64,
    /// Per-server checksum sidecars, loaded at open (empty = none on
    /// disk; those servers read unverified).
    sums: Vec<Arc<Vec<u32>>>,
}

impl StripedReader {
    /// The one read path: every `(offset, len)` of `regions`, concatenated
    /// into `buf`, with ONE lane job per involved server carrying every
    /// region's segment on that server. A contiguous read is a list of one
    /// region, and `map_extent` gives it at most one range per server, so
    /// it costs one job per server either way. Each segment is still
    /// checksum-verified on its own, so a flipped bit surfaces the typed
    /// corrupt error for exactly the region that covers it.
    fn read_into(&self, regions: &[(u64, u64)], buf: &mut [u8]) -> io::Result<()> {
        if regions.iter().any(|&(off, len)| off + len > self.size) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "striped read past end of object",
            ));
        }
        if buf.is_empty() {
            return Ok(());
        }
        let layout = &self.store.layout;
        let mut plans = vec![LanePlan::default(); self.store.servers()];
        let mut dst = 0usize;
        for &(off, len) in regions {
            for r in layout.map_extent(off, len) {
                plans[r.server as usize].push(layout, (off, len), r, dst);
            }
            dst += len as usize;
        }
        self.store.pool.read(plans, buf, |srv| {
            let path = self.store.server_path(srv as u32, &self.name);
            let stripe = layout.stripe_size;
            let local_len = layout.server_share(self.size, srv as u32);
            let sums = Arc::clone(&self.sums[srv]);
            let throttle = self.store.pool.throttle(srv);
            // Fetch the stripe-aligned span covering the segment and
            // verify every covered checksum before handing any byte back.
            // RAID-0 has no second copy, so a mismatch is surfaced as the
            // typed corrupt error (PVFS's abort-and-reassign path picks it
            // up).
            move |lo, ln| {
                let (start, aligned) = integrity::read_aligned(&path, lo, ln, stripe, local_len)?;
                pool::pace(&throttle, ln);
                integrity::verify_aligned(&path, &aligned, start, stripe, &sums)?;
                Ok((start, aligned))
            }
        })
    }
}

impl ObjectReader for StripedReader {
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

    fn dirs(tag: &str, n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| {
                std::env::temp_dir().join(format!("pio_striped_{tag}_{}_{i}", std::process::id()))
            })
            .collect()
    }

    fn cleanup(ds: &[PathBuf]) {
        for d in ds {
            fs::remove_dir_all(d).ok();
        }
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn round_trip_various_sizes() {
        let ds = dirs("rt", 4);
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
        let ds = dirs("partial", 3);
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
        let ds = dirs("spread", 4);
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
        let ds = dirs("eof", 2);
        let st = StripedStore::new(ds.clone(), 64).unwrap();
        st.put("obj", &pattern(100)).unwrap();
        let mut r = st.open("obj").unwrap();
        let mut buf = vec![0u8; 200];
        assert!(r.read_at(0, &mut buf).is_err());
        cleanup(&ds);
    }

    #[test]
    fn delete_removes_all_pieces() {
        let ds = dirs("del", 3);
        let st = StripedStore::new(ds.clone(), 64).unwrap();
        st.put("obj", &pattern(1000)).unwrap();
        st.delete("obj").unwrap();
        assert!(st.open("obj").is_err());
        for d in &ds {
            assert!(!d.join("obj").exists());
        }
        cleanup(&ds);
    }

    #[test]
    fn concurrent_reads_from_several_threads_share_the_lanes() {
        let ds = dirs("concurrent", 3);
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
        let ds = dirs("corrupt", 3);
        let st = StripedStore::new(ds.clone(), 256).unwrap();
        let data = pattern(10_000);
        st.put("obj", &data).unwrap();
        // Flip one bit in server 1's local file (stripe 1, i.e. logical
        // stripe 4 of the object).
        let victim = ds[1].join("obj");
        let mut raw = fs::read(&victim).unwrap();
        raw[300] ^= 0x08;
        fs::write(&victim, &raw).unwrap();
        // A read not touching the bad stripe still succeeds...
        let mut r = st.open("obj").unwrap();
        let mut buf = vec![0u8; 100];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..100]);
        // ...but covering it reports the typed corrupt error, and the
        // scrub pinpoints it.
        let mut big = vec![0u8; 4000];
        let err = r.read_at(0, &mut big).unwrap_err();
        assert!(integrity::is_corrupt(&err), "{err}");
        assert_eq!(integrity::corrupt_stripe_of(&err), Some(1));
        assert_eq!(
            st.scrub_object("obj", &mut RateLimiter::unlimited())
                .unwrap(),
            vec![(1, 1)]
        );
        cleanup(&ds);
    }

    #[test]
    fn missing_sidecar_reads_unverified() {
        let ds = dirs("nosums", 2);
        let st = StripedStore::new(ds.clone(), 128).unwrap();
        let data = pattern(2_000);
        st.put("obj", &data).unwrap();
        for d in &ds {
            fs::remove_file(integrity::sums_path(&d.join("obj"))).unwrap();
        }
        // No sidecars: legacy objects stay readable, scrub has nothing to
        // check.
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        assert!(st
            .scrub_object("obj", &mut RateLimiter::unlimited())
            .unwrap()
            .is_empty());
        cleanup(&ds);
    }

    #[test]
    fn single_server_degenerates_to_local() {
        let ds = dirs("one", 1);
        let st = StripedStore::new(ds.clone(), 64 << 10).unwrap();
        let data = pattern(200_000);
        st.put("obj", &data).unwrap();
        assert_eq!(read_all(&st, "obj").unwrap(), data);
        cleanup(&ds);
    }
}
