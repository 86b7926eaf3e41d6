//! The three I/O access schemes of the paper, as real storage backends.

use std::io;
use std::path::PathBuf;

use parblast_pio::{
    copy_if_stale, is_corrupt, LocalStore, MirroredStore, ObjectReader, ObjectStore, RateLimiter,
    Scrubber, Store, StripedStore,
};
use parblast_seqdb::ReadAt;

use crate::trace::{IoKind, Tracer};

/// Which I/O scheme a run uses (§3 of the paper).
#[derive(Clone)]
pub enum Scheme {
    /// Original mpiBLAST: fragments live in a shared source directory and
    /// each worker searches its own private copy, with conventional I/O.
    /// As in mpiBLAST, a fragment is copied into the worker's private
    /// directory only when the copy there is missing or stale, so one
    /// copy serves every later job of that worker. Every read of either
    /// directory is verified against the object's checksum sidecar.
    Local {
        /// Source of formatted fragments (the shared storage).
        src: LocalStore,
        /// Per-worker private directories ("local disks").
        workdirs: Vec<LocalStore>,
    },
    /// mpiBLAST over PVFS: fragments striped across server directories,
    /// read in place through the parallel client.
    Pvfs(StripedStore),
    /// mpiBLAST over CEFT-PVFS: mirrored striping with dual-half reads and
    /// hot-spot skipping.
    Ceft(MirroredStore),
}

/// The store a scheme keeps its fragments in: the original scheme's
/// shared directory, or the striped engine both parallel schemes share
/// (one copy for PVFS, two for CEFT-PVFS).
trait Storage: ObjectStore {
    fn set_io_throttle(&self, bytes_per_s: u64);
    /// One paced verification pass over `name`: the corrupt stripes it
    /// found, repaired or not.
    fn scrub(&self, name: &str, limiter: &mut RateLimiter) -> io::Result<u64>;
}

impl Storage for LocalStore {
    /// The original scheme's reads go through the OS page cache like the
    /// paper's local disks, so there is no disk to pace.
    fn set_io_throttle(&self, _: u64) {}

    fn scrub(&self, name: &str, limiter: &mut RateLimiter) -> io::Result<u64> {
        Ok(self.scrub_object(name, limiter)?.len() as u64)
    }
}

impl<const COPIES: usize> Storage for Store<COPIES> {
    fn set_io_throttle(&self, bytes_per_s: u64) {
        Store::set_io_throttle(self, bytes_per_s);
    }

    fn scrub(&self, name: &str, limiter: &mut RateLimiter) -> io::Result<u64> {
        let (repaired, unrepairable) = self.scrub_object(name, limiter)?;
        Ok(repaired + unrepairable.len() as u64)
    }
}

impl Scheme {
    /// Human-readable scheme name (matches the paper's labels).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Local { .. } => "original",
            Scheme::Pvfs(_) => "over-PVFS",
            Scheme::Ceft(_) => "over-CEFT-PVFS",
        }
    }

    fn storage(&self) -> &dyn Storage {
        match self {
            Scheme::Local { src, .. } => src,
            Scheme::Pvfs(st) => st,
            Scheme::Ceft(st) => st,
        }
    }

    /// The per-worker private directories: the original scheme's, none
    /// for the schemes that read in place.
    fn private_copies(&self) -> &[LocalStore] {
        match self {
            Scheme::Local { workdirs, .. } => workdirs,
            _ => &[],
        }
    }

    /// Prepare a fragment for `worker` and return a verifying reader plus
    /// the staging time (the paper measures and subtracts the copy). The
    /// original scheme copies the fragment into the worker's private
    /// directory unless the copy there is already current, and the time
    /// covers that check and any copy; the other schemes read in place
    /// and take no time here.
    pub fn open_for_worker(
        &self,
        worker: usize,
        fragment: &str,
    ) -> io::Result<(Box<dyn ObjectReader>, std::time::Duration)> {
        match self {
            Scheme::Local { src, workdirs } => {
                let wd = &workdirs[worker % workdirs.len()];
                let t0 = std::time::Instant::now();
                copy_if_stale(src, wd, fragment)?;
                let copy = t0.elapsed();
                Ok((wd.open(fragment)?, copy))
            }
            // Read in place.
            _ => Ok((self.storage().open(fragment)?, std::time::Duration::ZERO)),
        }
    }

    /// A fetch of `fragment` by `worker` failed with `err`. A corrupt
    /// private copy is deleted, data and sidecar, so the retry copies it
    /// afresh from the source; any other failure leaves storage alone.
    pub(crate) fn fetch_failed(&self, worker: usize, fragment: &str, err: &io::Error) {
        let copies = self.private_copies();
        if is_corrupt(err) && !copies.is_empty() {
            let _ = copies[worker % copies.len()].delete(fragment);
        }
    }

    /// Model per-server disk bandwidth for the parallel schemes
    /// (bytes/second; 0 = unthrottled). No-op for the original scheme,
    /// whose reads go through the OS page cache like the paper's local
    /// disks. Benchmarks use this to stand in for ~26 MB/s 2003 disks.
    pub fn set_io_throttle(&self, bytes_per_s: u64) {
        self.storage().set_io_throttle(bytes_per_s);
    }

    /// Store fragments into the scheme's backing storage (setup step:
    /// `mpiformatdb` output distributed to where the scheme expects it).
    pub fn load_fragment(&self, fragment: &str, data: &[u8]) -> io::Result<()> {
        self.storage().put(fragment, data)
    }

    /// Start a background scrub over `fragments`: every stored stripe is
    /// re-read and verified against its checksum sidecar, paced to at most
    /// `bytes_per_s` (0 = unpaced) so foreground searches keep their disk
    /// bandwidth. CEFT rewrites corrupt stripes from the mirror partner;
    /// the schemes without redundancy only report them. The original
    /// scheme's pass also walks every worker's private copy that exists,
    /// and deletes a corrupt one, so the worker's next job copies it
    /// afresh. Runs pass after pass until [`Scrubber::stop`], which
    /// returns the totals.
    pub fn start_scrub(&self, fragments: &[String], bytes_per_s: u64) -> Scrubber {
        let (scheme, names) = (self.clone(), fragments.to_vec());
        let mut limiter = RateLimiter::new(bytes_per_s);
        Scrubber::spawn(move || {
            let storage = scheme.storage();
            let mut found = 0;
            for name in &names {
                found += storage.scrub(name, &mut limiter).unwrap_or(0);
                for copy in scheme.private_copies() {
                    let bad = copy.scrub(name, &mut limiter).unwrap_or(0);
                    if bad > 0 {
                        let _ = copy.delete(name);
                    }
                    found += bad;
                }
            }
            found
        })
    }

    /// Build a Local scheme rooted at `base` for `workers` workers.
    pub fn local_at(base: &std::path::Path, workers: usize) -> io::Result<Scheme> {
        let src = LocalStore::new(base.join("shared"))?;
        let workdirs = (0..workers.max(1))
            .map(|w| LocalStore::new(base.join(format!("worker{w}"))))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Scheme::Local { src, workdirs })
    }

    /// Build a PVFS scheme with `servers` directories under `base`.
    pub fn pvfs_at(base: &std::path::Path, servers: usize, stripe: u64) -> io::Result<Scheme> {
        let dirs: Vec<PathBuf> = (0..servers.max(1))
            .map(|i| base.join(format!("iod{i}")))
            .collect();
        Ok(Scheme::Pvfs(StripedStore::new(dirs, stripe)?))
    }

    /// Build a CEFT scheme with `servers_per_group`×2 directories.
    pub fn ceft_at(
        base: &std::path::Path,
        servers_per_group: usize,
        stripe: u64,
    ) -> io::Result<Scheme> {
        let p: Vec<PathBuf> = (0..servers_per_group.max(1))
            .map(|i| base.join(format!("primary{i}")))
            .collect();
        let m: Vec<PathBuf> = (0..servers_per_group.max(1))
            .map(|i| base.join(format!("mirror{i}")))
            .collect();
        Ok(Scheme::Ceft(MirroredStore::new(p, m, stripe)?))
    }
}

/// Adapter: a traced [`ObjectReader`] usable as a [`parblast_seqdb::ReadAt`]
/// source for volume decoding, recording every access.
pub struct TracedSource {
    reader: Box<dyn ObjectReader>,
    tracer: Tracer,
    worker: u32,
}

impl TracedSource {
    /// Wrap a reader.
    pub fn new(reader: Box<dyn ObjectReader>, tracer: Tracer, worker: u32) -> Self {
        TracedSource {
            reader,
            tracer,
            worker,
        }
    }
}

impl ReadAt for TracedSource {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.reader.read_at(offset, buf)?;
        self.tracer
            .record(self.worker, IoKind::Read, buf.len() as u64);
        Ok(())
    }
    fn read_many_at(&mut self, regions: &[(u64, u64)]) -> io::Result<Vec<u8>> {
        // Ride the store's vectored lane (one aggregated request per
        // server), but trace one read event per region in list order so
        // the recorded read sequence is identical to issuing the regions
        // one `read_at` at a time.
        let out = self.reader.read_many_at(regions)?;
        for &(_, len) in regions {
            self.tracer.record(self.worker, IoKind::Read, len);
        }
        Ok(out)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.reader.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("scheme_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn all_three_schemes_round_trip() {
        let base = tmp("rt");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 255) as u8).collect();
        for scheme in [
            Scheme::local_at(&base.join("l"), 2).unwrap(),
            Scheme::pvfs_at(&base.join("p"), 4, 64 << 10).unwrap(),
            Scheme::ceft_at(&base.join("c"), 2, 64 << 10).unwrap(),
        ] {
            scheme.load_fragment("nt.000.pdb", &data).unwrap();
            let (mut r, copy) = scheme.open_for_worker(0, "nt.000.pdb").unwrap();
            let mut buf = vec![0u8; data.len()];
            r.read_at(0, &mut buf).unwrap();
            assert_eq!(buf, data, "{}", scheme.name());
            match scheme {
                Scheme::Local { .. } => assert!(copy > std::time::Duration::ZERO),
                _ => assert_eq!(copy, std::time::Duration::ZERO),
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn traced_source_records_reads() {
        let base = tmp("trace");
        let scheme = Scheme::local_at(&base, 1).unwrap();
        scheme.load_fragment("f", &vec![7u8; 10_000]).unwrap();
        let (r, _) = scheme.open_for_worker(0, "f").unwrap();
        let tracer = Tracer::new();
        let mut src = TracedSource::new(r, tracer.clone(), 3);
        let mut buf = vec![0u8; 4096];
        src.read_at(100, &mut buf).unwrap();
        src.read_at(0, &mut buf[..13]).unwrap();
        let s = tracer.summary();
        assert_eq!(s.reads, 2);
        assert_eq!(s.read_min, 13);
        assert_eq!(s.read_max, 4096);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn background_scrub_repairs_ceft_corruption() {
        let base = tmp("scrub");
        let scheme = Scheme::ceft_at(&base, 2, 64 << 10).unwrap();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i * 7 % 251) as u8).collect();
        scheme.load_fragment("nt.000", &data).unwrap();
        // Flip one byte of the primary copy behind the store's back.
        let victim = base.join("primary0").join("nt.000");
        let mut raw = std::fs::read(&victim).unwrap();
        let orig = raw[100];
        raw[100] ^= 0x40;
        std::fs::write(&victim, &raw).unwrap();
        let scrub = scheme.start_scrub(&["nt.000".into()], 0);
        // The scrub must find the mismatch and restore the mirror's bytes.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if std::fs::read(&victim).unwrap()[100] == orig {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrub never repaired the flipped byte"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let totals = scrub.stop();
        assert!(totals.corrupt_found >= 1, "{totals:?}");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn scheme_names_match_paper() {
        let base = tmp("names");
        assert_eq!(Scheme::local_at(&base, 1).unwrap().name(), "original");
        assert_eq!(Scheme::pvfs_at(&base, 2, 1024).unwrap().name(), "over-PVFS");
        assert_eq!(
            Scheme::ceft_at(&base, 1, 1024).unwrap().name(),
            "over-CEFT-PVFS"
        );
        std::fs::remove_dir_all(&base).ok();
    }
}
