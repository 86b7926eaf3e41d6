//! Object-store abstractions over real directories.
//!
//! A *store* keeps named byte objects (database fragments). The three
//! implementations mirror the paper's three I/O schemes:
//!
//! * [`LocalStore`] — one plain directory (a worker's local disk);
//! * [`crate::StripedStore`] — RAID-0 across N server directories (PVFS);
//! * [`crate::MirroredStore`] — RAID-10 across 2×N server directories with
//!   dual-half reads and hot-spot skipping (CEFT-PVFS), the same engine
//!   ([`crate::Store`]) keeping a second copy.
//!
//! Every store hands out an [`ObjectReader`]: blocking positional reads,
//! contiguous or as a region list, each verified against the object's
//! checksum sidecar ([`crate::integrity`]).

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::PathBuf;

use crate::integrity;

/// Positional reader handed out by stores.
///
/// A read is a list of regions, and a contiguous read is a list of one.
/// The striped engine serves both methods through one path that ships one
/// lane job per involved server; plain files loop.
pub trait ObjectReader: Send {
    /// Fill `buf` from `offset`; must read exactly `buf.len()` bytes.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Read every `(offset, len)` region and return their bytes
    /// concatenated in list order (list I/O). Equivalent to one
    /// [`ObjectReader::read_at`] per region, which is what the default
    /// does; pool-backed stores override it to ship **one vectored lane
    /// job per server** instead of one per region per server, which is
    /// the request aggregation this crate's striped engine is measured on.
    fn read_many_at(&mut self, regions: &[(u64, u64)]) -> io::Result<Vec<u8>> {
        let mut out = vec![0u8; regions.iter().map(|&(_, l)| l as usize).sum()];
        let mut at = 0usize;
        for &(off, len) in regions {
            let n = len as usize;
            self.read_at(off, &mut out[at..at + n])?;
            at += n;
        }
        Ok(out)
    }
    /// Object length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// True when the object is empty.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A store of named byte objects.
pub trait ObjectStore {
    /// Write (or replace) an object.
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Open an object for positional reads.
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>>;
    /// Object size without opening a reader.
    fn size(&self, name: &str) -> io::Result<u64>;
    /// Delete an object (idempotent).
    fn delete(&self, name: &str) -> io::Result<()>;
}

/// Plain single-directory store: the "original mpiBLAST" local-disk path.
/// [`ObjectStore::put`] writes the data file, then its checksum sidecar;
/// reads verify against the sidecar.
#[derive(Debug, Clone)]
pub struct LocalStore {
    dir: PathBuf,
}

impl LocalStore {
    /// Create (the directory is created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(LocalStore { dir })
    }

    /// Path of an object.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// A reader over one [`LocalStore`] object. The sidecar is loaded once,
/// at open, and every read is verified against it, as the striped
/// engine's reads are: the requested range is read straight into the
/// caller's buffer, each stripe lying wholly inside it is checked there,
/// and only a partly covered edge stripe is read whole into `scratch` to
/// be checked. An empty sidecar reads unverified.
struct LocalReader {
    path: PathBuf,
    file: File,
    len: u64,
    sums: Vec<u32>,
    scratch: Vec<u8>,
}

impl LocalReader {
    fn read_exact_at(file: &mut File, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    /// Stripe `k` against its sidecar entry; a missing entry fails closed.
    fn check(&self, k: u64, stripe: &[u8]) -> io::Result<()> {
        match self.sums.get(k as usize) {
            Some(&want) if integrity::crc32c(stripe) == want => Ok(()),
            _ => Err(integrity::corrupt_error(&self.path, k)),
        }
    }
}

impl ObjectReader for LocalReader {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let end = offset
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of object")
            })?;
        Self::read_exact_at(&mut self.file, offset, buf)?;
        if self.sums.is_empty() || buf.is_empty() {
            return Ok(());
        }
        let s = integrity::DEFAULT_STRIPE;
        for k in offset / s..end.div_ceil(s) {
            let (lo, hi) = (k * s, ((k + 1) * s).min(self.len));
            let (a, b) = (lo.max(offset), hi.min(end));
            let dst = &mut buf[(a - offset) as usize..(b - offset) as usize];
            if (a, b) == (lo, hi) {
                self.check(k, dst)?;
                continue;
            }
            self.scratch.resize((hi - lo) as usize, 0);
            Self::read_exact_at(&mut self.file, lo, &mut self.scratch)?;
            self.check(k, &self.scratch)?;
            // Serve the bytes that were checked, not the first read's.
            dst.copy_from_slice(&self.scratch[(a - lo) as usize..(b - lo) as usize]);
        }
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.len)
    }
}

impl LocalStore {
    /// Verify an object against its checksum sidecar, returning corrupt
    /// stripe indices (empty = clean or no sidecar to check).
    pub fn scrub_object(
        &self,
        name: &str,
        limiter: &mut crate::pool::RateLimiter,
    ) -> io::Result<Vec<u64>> {
        integrity::scrub_file(&self.path_of(name), integrity::DEFAULT_STRIPE, limiter)
    }
}

impl ObjectStore for LocalStore {
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let path = self.path_of(name);
        integrity::replace_file(&path, data)?;
        integrity::write_sums(&path, data, integrity::DEFAULT_STRIPE)
    }

    /// A reader that verifies every read against the sidecar as it was at
    /// open; a replaced object needs a new reader.
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        let path = self.path_of(name);
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        let sums = integrity::load_sums(&path);
        Ok(Box::new(LocalReader {
            path,
            file,
            len,
            sums,
            scratch: Vec::new(),
        }))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path_of(name))?.len())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        integrity::remove_sums(&self.path_of(name));
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Read a whole object into memory.
pub fn read_all(store: &dyn ObjectStore, name: &str) -> io::Result<Vec<u8>> {
    let mut r = store.open(name)?;
    let len = r.len()? as usize;
    let mut buf = vec![0u8; len];
    r.read_at(0, &mut buf)?;
    Ok(buf)
}

/// Copy an object between stores (the paper's "copy the fragment to
/// local disk" step), returning bytes copied. The source is read in one
/// verified read into the buffer that is put, so a corrupt source is the
/// typed corrupt error and nothing is written.
pub fn copy_object(src: &dyn ObjectStore, dst: &dyn ObjectStore, name: &str) -> io::Result<u64> {
    let data = read_all(src, name)?;
    dst.put(name, &data)?;
    Ok(data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pio_store_{tag}_{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn put_open_read_round_trip() {
        let dir = tmp("rt");
        let st = LocalStore::new(&dir).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        st.put("frag.000", &data).unwrap();
        assert_eq!(st.size("frag.000").unwrap(), data.len() as u64);
        let mut r = st.open("frag.000").unwrap();
        let mut mid = vec![0u8; 1000];
        r.read_at(50_000, &mut mid).unwrap();
        assert_eq!(&mid[..], &data[50_000..51_000]);
        assert_eq!(read_all(&st, "frag.000").unwrap(), data);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_replaces_in_place_and_cuts_to_length() {
        let dir = tmp("replace");
        let st = LocalStore::new(&dir).unwrap();
        let object = |len: u32, salt: u32| -> Vec<u8> {
            (0..len).map(|i| ((i ^ salt) % 251) as u8).collect()
        };
        // Longer, shorter (also across a stripe boundary), longer, empty:
        // after every put the file is exactly the new bytes and the
        // sidecar covers exactly the new stripes.
        for (len, salt) in [(300_000, 1), (70_000, 2), (500_000, 3), (0, 4), (10, 5)] {
            let data = object(len, salt);
            st.put("frag", &data).unwrap();
            assert_eq!(st.size("frag").unwrap(), data.len() as u64);
            assert_eq!(fs::read(st.path_of("frag")).unwrap(), data);
            let sums = integrity::load_sums(&st.path_of("frag"));
            assert_eq!(
                sums,
                integrity::stripe_sums(&data, integrity::DEFAULT_STRIPE)
            );
            let mut unpaced = crate::pool::RateLimiter::new(0);
            assert!(st.scrub_object("frag", &mut unpaced).unwrap().is_empty());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_is_idempotent() {
        let dir = tmp("del");
        let st = LocalStore::new(&dir).unwrap();
        st.put("x", b"abc").unwrap();
        st.delete("x").unwrap();
        st.delete("x").unwrap();
        assert!(st.open("x").is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn copy_between_stores() {
        let d1 = tmp("cp1");
        let d2 = tmp("cp2");
        let a = LocalStore::new(&d1).unwrap();
        let b = LocalStore::new(&d2).unwrap();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i * 7 % 256) as u8).collect();
        a.put("db", &data).unwrap();
        let n = copy_object(&a, &b, "db").unwrap();
        assert_eq!(n, data.len() as u64);
        assert_eq!(read_all(&b, "db").unwrap(), data);
        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d2).ok();
    }

    #[test]
    fn put_writes_sums_sidecar_and_delete_removes_it() {
        use crate::pool::RateLimiter;
        let dir = tmp("sums");
        let st = LocalStore::new(&dir).unwrap();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
        st.put("frag", &data).unwrap();
        let side = integrity::sums_path(&st.path_of("frag"));
        assert!(side.exists());
        assert!(st
            .scrub_object("frag", &mut RateLimiter::unlimited())
            .unwrap()
            .is_empty());
        // Flip one bit on disk: the scrub pinpoints the stripe.
        let mut raw = fs::read(st.path_of("frag")).unwrap();
        raw[130_000] ^= 1;
        fs::write(st.path_of("frag"), &raw).unwrap();
        let bad = st
            .scrub_object("frag", &mut RateLimiter::unlimited())
            .unwrap();
        assert_eq!(bad, vec![130_000 / integrity::DEFAULT_STRIPE]);
        st.delete("frag").unwrap();
        assert!(!side.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_past_end_errors() {
        let dir = tmp("eof");
        let st = LocalStore::new(&dir).unwrap();
        st.put("x", b"short").unwrap();
        let mut r = st.open("x").unwrap();
        let mut buf = vec![0u8; 10];
        assert!(r.read_at(0, &mut buf).is_err());
        let past_max = r.read_at(u64::MAX, &mut buf).unwrap_err();
        assert_eq!(past_max.kind(), io::ErrorKind::UnexpectedEof);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sidecar_reads_unverified() {
        let dir = tmp("nosums");
        let st = LocalStore::new(&dir).unwrap();
        let data: Vec<u8> = (0..150_000u32).map(|i| (i % 241) as u8).collect();
        st.put("frag", &data).unwrap();
        integrity::remove_sums(&st.path_of("frag"));
        let mut raw = data.clone();
        raw[70_000] ^= 0x10;
        fs::write(st.path_of("frag"), &raw).unwrap();
        assert_eq!(read_all(&st, "frag").unwrap(), raw);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_source_is_not_copied() {
        let (d1, d2) = (tmp("cpbad1"), tmp("cpbad2"));
        let (a, b) = (LocalStore::new(&d1).unwrap(), LocalStore::new(&d2).unwrap());
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 11 % 256) as u8).collect();
        a.put("db", &data).unwrap();
        let mut raw = data.clone();
        raw[140_000] ^= 0x01;
        fs::write(a.path_of("db"), &raw).unwrap();
        let err = copy_object(&a, &b, "db").unwrap_err();
        assert_eq!(
            integrity::corrupt_stripe_of(&err),
            Some(140_000 / integrity::DEFAULT_STRIPE)
        );
        assert!(b.open("db").is_err(), "nothing was written");
        fs::remove_dir_all(&d1).ok();
        fs::remove_dir_all(&d2).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any `(offset, len)` range of an object, starting and ending on
        /// or off stripe boundaries, reads back exactly; one flipped byte
        /// anywhere in a stripe the range touches (inside the range or in
        /// the unrequested part of an edge stripe) fails the read with
        /// that stripe's typed corrupt error.
        #[test]
        fn verified_reads_are_exact_and_name_a_flipped_stripe(
            len in 1usize..400_000,
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            c in proptest::prelude::any::<u64>(),
        ) {
            let dir = tmp("prop");
            let st = LocalStore::new(&dir).unwrap();
            let data: Vec<u8> = (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
            st.put("frag", &data).unwrap();
            let off = a % len as u64;
            let n = b % (len as u64 - off + 1);
            let mut buf = vec![0u8; n as usize];
            st.open("frag").unwrap().read_at(off, &mut buf).unwrap();
            proptest::prop_assert_eq!(&buf[..], &data[off as usize..(off + n) as usize]);

            let s = integrity::DEFAULT_STRIPE;
            let lo = off / s * s;
            let hi = ((off + n).div_ceil(s) * s).min(len as u64).max(lo + 1);
            let at = lo + c % (hi - lo);
            let mut raw = data.clone();
            raw[at as usize] ^= 0x80;
            fs::write(st.path_of("frag"), &raw).unwrap();
            let got = st.open("frag").unwrap().read_at(off, &mut buf);
            if n == 0 {
                proptest::prop_assert!(got.is_ok(), "an empty read touches no stripe");
            } else {
                let err = got.unwrap_err();
                proptest::prop_assert_eq!(integrity::corrupt_stripe_of(&err), Some(at / s));
            }
        }
    }
}
