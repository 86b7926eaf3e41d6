//! Object-store abstractions over real directories.
//!
//! A *store* keeps named byte objects (database fragments). The three
//! implementations mirror the paper's three I/O schemes:
//!
//! * [`LocalStore`] — one plain directory (a worker's local disk);
//! * [`crate::striped::StripedStore`] — RAID-0 across N server directories
//!   (PVFS);
//! * [`crate::mirrored::MirroredStore`] — RAID-10 across 2×N server
//!   directories with dual-half reads and hot-spot skipping (CEFT-PVFS).
//!
//! Every store hands out an [`ObjectReader`]: blocking positional reads,
//! contiguous or as a region list.

use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::integrity;

/// Positional reader handed out by stores.
///
/// A read is a list of regions, and a contiguous read is a list of one.
/// The striped and mirrored readers serve both methods through one path
/// that ships one lane job per involved server; plain files loop.
pub trait ObjectReader: Send {
    /// Fill `buf` from `offset`; must read exactly `buf.len()` bytes.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Read every `(offset, len)` region and return their bytes
    /// concatenated in list order (list I/O). Equivalent to one
    /// [`ObjectReader::read_at`] per region, which is what the default
    /// does; pool-backed stores override it to ship **one vectored lane
    /// job per server** instead of one per region per server, which is
    /// the request aggregation this crate's striped/mirrored readers are
    /// measured on.
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

/// File-backed positional reader.
pub struct FileReader {
    file: File,
}

impl FileReader {
    /// Open a file as a reader.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(FileReader {
            file: File::open(path)?,
        })
    }
}

impl ObjectReader for FileReader {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
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

    fn open(&self, name: &str) -> io::Result<Box<dyn ObjectReader>> {
        Ok(Box::new(FileReader::open(&self.path_of(name))?))
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

/// Copy an object between stores in `chunk`-sized pieces (the paper's
/// "copy the fragment to local disk" step), returning bytes copied.
pub fn copy_object(
    src: &dyn ObjectStore,
    dst: &dyn ObjectStore,
    name: &str,
    chunk: usize,
) -> io::Result<u64> {
    let mut r = src.open(name)?;
    let len = r.len()?;
    let mut data = Vec::with_capacity(len as usize);
    let mut off = 0u64;
    let mut buf = vec![0u8; chunk.max(1)];
    while off < len {
        let n = ((len - off) as usize).min(buf.len());
        r.read_at(off, &mut buf[..n])?;
        data.extend_from_slice(&buf[..n]);
        off += n as u64;
    }
    dst.put(name, &data)?;
    let _ = io::copy(&mut io::empty(), &mut io::sink()); // keep Read in scope
    Ok(len)
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
        let n = copy_object(&a, &b, "db", 64 << 10).unwrap();
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
        fs::remove_dir_all(&dir).ok();
    }
}
