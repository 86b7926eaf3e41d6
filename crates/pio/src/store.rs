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
//! Every object file on disk is a [`LocalStore`] object: each server of
//! the engine is a `LocalStore` over its directory, with the engine's
//! stripe size, so one put, delete and scrub serve every scheme. Every
//! store hands out an [`ObjectReader`]: blocking positional reads,
//! contiguous or as a region list, each verified against the object's
//! checksum sidecar by the one verified range read in
//! [`crate::integrity`].

use std::fs::{self, File};
use std::io;
use std::path::PathBuf;

use crate::integrity::{self, StripeCache, VerifiedFile};

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

/// Plain single-directory store: the "original mpiBLAST" local-disk path,
/// and each server of the striped engine. [`ObjectStore::put`] writes the
/// data file, then its checksum sidecar; reads verify against the
/// sidecar.
#[derive(Debug, Clone)]
pub struct LocalStore {
    dir: PathBuf,
    /// Bytes per checksummed stripe: [`integrity::DEFAULT_STRIPE`], or
    /// the engine's stripe size for one of its servers.
    stripe: u64,
}

impl LocalStore {
    /// Create (the directory is created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_stripe(dir, integrity::DEFAULT_STRIPE)
    }

    /// A store checksumming `stripe`-byte stripes: one engine server.
    pub(crate) fn with_stripe(dir: impl Into<PathBuf>, stripe: u64) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(LocalStore { dir, stripe })
    }

    /// Path of an object.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Names of the objects here, sorted; a sidecar is not an object.
    pub(crate) fn names(&self) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| !n.ends_with(".sums"))
            .collect();
        names.sort();
        Ok(names)
    }

    /// Write `name` as `parts` back to back — overwritten in place and cut
    /// to length — and then its sidecar: `sums`, or none at all.
    pub(crate) fn put_parts<'a>(
        &self,
        name: &str,
        parts: impl IntoIterator<Item = &'a [u8]>,
        sums: Option<&[u32]>,
    ) -> io::Result<()> {
        let path = self.path_of(name);
        integrity::replace_file(&path, parts)?;
        let Some(sums) = sums else {
            integrity::remove_sums(&path);
            return Ok(());
        };
        integrity::replace_file(
            &integrity::sums_path(&path),
            [&integrity::encode_sums(sums)[..]],
        )
    }

    /// `name` as a verified read sees it, `len` bytes long, with its
    /// sidecar as it is now.
    pub(crate) fn verified(&self, name: &str, len: u64) -> VerifiedFile {
        let path = self.path_of(name);
        VerifiedFile {
            sums: integrity::load_sums(&path).into(),
            path,
            len,
            stripe: self.stripe,
        }
    }

    /// A verifying reader over `name` (see [`ObjectStore::open`]).
    pub(crate) fn reader(&self, name: &str) -> io::Result<LocalReader> {
        let file = File::open(self.path_of(name))?;
        let at = self.verified(name, file.metadata()?.len());
        Ok(LocalReader {
            file,
            at,
            cache: StripeCache::default(),
        })
    }

    /// Verify an object against its checksum sidecar, returning corrupt
    /// stripe indices (empty = clean or no sidecar to check). Each stripe
    /// is one verified read, paced by `limiter` so a background scrub
    /// cannot starve foreground reads of disk bandwidth.
    pub fn scrub_object(
        &self,
        name: &str,
        limiter: &mut crate::pool::RateLimiter,
    ) -> io::Result<Vec<u64>> {
        if integrity::load_sums(&self.path_of(name)).is_empty() {
            return Ok(Vec::new());
        }
        let mut r = self.reader(name)?;
        let (s, len) = (self.stripe, r.at.len);
        let mut stripe = vec![0u8; s as usize];
        let mut bad = Vec::new();
        // A sidecar longer than the file means stripes were lost (a
        // truncated file): they are reported too, so a mirrored scrub
        // repairs the tail.
        for k in 0..len.div_ceil(s).max(r.at.sums.len() as u64) {
            let n = s.min(len.saturating_sub(k * s));
            match r.read_at(k * s, &mut stripe[..n as usize]) {
                Ok(()) if n > 0 => {}
                Err(e) if n > 0 && !integrity::is_corrupt(&e) => return Err(e),
                _ => bad.push(k),
            }
            limiter.consume(n);
        }
        Ok(bad)
    }
}

/// A reader over one [`LocalStore`] object: the sidecar is loaded once,
/// at open, and every read is the one verified range read against it.
pub(crate) struct LocalReader {
    file: File,
    pub(crate) at: VerifiedFile,
    cache: StripeCache,
}

impl ObjectReader for LocalReader {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.at.read_at(&self.file, offset, buf, &mut self.cache)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.at.len)
    }
}

impl ObjectStore for LocalStore {
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let sums = integrity::stripe_sums(data, self.stripe);
        self.put_parts(name, [data], Some(&sums))
    }

    /// A reader that verifies every read against the sidecar as it was at
    /// open; a replaced object needs a new reader.
    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        Ok(Box::new(self.reader(name)?))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path_of(name))?.len())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        integrity::remove_sums(&self.path_of(name));
        match fs::remove_file(self.path_of(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
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

/// Copy `name` from `src` into `dst` (the paper's "copy the fragment to
/// local disk") unless `dst`'s copy is current — both sidecars hold the
/// same bytes and both data files the same length — and say whether it
/// copied. The sidecar is written last, so a matching one means the data
/// write finished; a source with no sidecar is always copied. The source
/// is one verified read, so a corrupt one is the typed corrupt error and
/// nothing is written.
pub fn copy_if_stale(src: &LocalStore, dst: &LocalStore, name: &str) -> io::Result<bool> {
    let sums = |st: &LocalStore| fs::read(integrity::sums_path(&st.path_of(name))).ok();
    let current = match (sums(src), src.size(name)) {
        (Some(want), Ok(len)) if !want.is_empty() => {
            sums(dst) == Some(want) && dst.size(name).is_ok_and(|l| l == len)
        }
        _ => false,
    };
    if !current {
        dst.put(name, &read_all(src, name)?)?;
    }
    Ok(!current)
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
        assert!(copy_if_stale(&a, &b, "db").unwrap());
        assert_eq!(read_all(&b, "db").unwrap(), data);
        // Current now: the second call copies nothing.
        assert!(!copy_if_stale(&a, &b, "db").unwrap());
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
        let err = copy_if_stale(&a, &b, "db").unwrap_err();
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
        /// that stripe's typed corrupt error. Both the plain store and a
        /// striped store of several servers with small stripes, where
        /// stripe `k` of the object is local stripe `k / N` of server
        /// `k mod N`, read through the one verified range read.
        #[test]
        fn verified_reads_are_exact_and_name_a_flipped_stripe(
            len in 1usize..400_000,
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
            c in proptest::prelude::any::<u64>(),
            servers in 2usize..5,
            stripe_kib in 1u64..9,
        ) {
            let dir = tmp("prop");
            let iods: Vec<PathBuf> = (0..servers).map(|i| dir.join(format!("iod{i}"))).collect();
            let local = LocalStore::new(&dir).unwrap();
            let striped = crate::StripedStore::new(iods.clone(), stripe_kib << 10).unwrap();
            let data: Vec<u8> = (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
            let off = a % len as u64;
            let n = b % (len as u64 - off + 1);
            let cases = [
                (&local as &dyn ObjectStore, integrity::DEFAULT_STRIPE, vec![dir.clone()]),
                (&striped, stripe_kib << 10, iods),
            ];
            for (store, s, dirs) in cases {
                store.put("frag", &data).unwrap();
                let mut buf = vec![0u8; n as usize];
                store.open("frag").unwrap().read_at(off, &mut buf).unwrap();
                proptest::prop_assert_eq!(&buf[..], &data[off as usize..(off + n) as usize]);

                let lo = off / s * s;
                let hi = ((off + n).div_ceil(s) * s).min(len as u64).max(lo + 1);
                let at = lo + c % (hi - lo);
                let (k, nd) = (at / s, dirs.len() as u64);
                let file = dirs[(k % nd) as usize].join("frag");
                let mut raw = fs::read(&file).unwrap();
                raw[(k / nd * s + at % s) as usize] ^= 0x80;
                fs::write(&file, &raw).unwrap();
                let got = store.open("frag").unwrap().read_at(off, &mut buf);
                if n == 0 {
                    proptest::prop_assert!(got.is_ok(), "an empty read touches no stripe");
                } else {
                    let err = got.unwrap_err();
                    proptest::prop_assert_eq!(integrity::corrupt_stripe_of(&err), Some(k / nd));
                }
            }
        }
    }
}
