//! Formatted sequence database volumes (the `formatdb` substrate).
//!
//! A *volume* is one self-contained file holding packed sequences, an
//! offsets index, and deflines — the role NCBI's `.nsq`/`.nin`/`.nhr`
//! triple plays, folded into a single file for simplicity:
//!
//! ```text
//! [ header 48 B ][ packed sequence data ][ index 32 B × nseq ][ deflines ]
//! ```
//!
//! Reading goes through the [`ReadAt`] trait so the same decoder works over
//! a plain file, an in-memory buffer, or the `pio` striped/mirrored stores —
//! and so the application-level I/O tracer can observe every access. The
//! access pattern mirrors BLAST's: a small header read, an index read, then
//! one large read of the whole data region (the paper's Figure 4 reads of
//! up to 220 MB).

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::alphabet::{encode_nt_seq, pack_2bit_onto, unpack_2bit_into};

/// Magic bytes of a volume file.
pub const MAGIC: [u8; 4] = *b"PBDB";
/// Format version.
pub const VERSION: u32 = 1;
/// Header size in bytes.
pub const HEADER_LEN: u64 = 48;
/// Index entry size in bytes.
pub const INDEX_ENTRY_LEN: u64 = 32;

/// Residue type stored in a volume: nucleotides, the only type this
/// workspace formats or searches. The header keeps its type byte (0), and
/// the enum its one variant because `benchmark/` is frozen and passes
/// `SeqType::Nucleotide` to [`VolumeWriter::create`] and
/// [`crate::segment_into_fragments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqType {
    /// Nucleotides, 2-bit packed.
    Nucleotide,
}

/// Positional read access (the seam between the decoder and the I/O
/// backends).
pub trait ReadAt {
    /// Fill `buf` from absolute `offset`; must read exactly `buf.len()`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Read every `(offset, len)` region, returning the bytes concatenated
    /// in list order (list I/O). The default loops [`ReadAt::read_at`];
    /// sources backed by a parallel store override it to ship one vectored
    /// request per server instead of one per region.
    fn read_many_at(&mut self, regions: &[(u64, u64)]) -> io::Result<Vec<u8>> {
        let total: usize = regions.iter().map(|&(_, l)| l as usize).sum();
        let mut out = vec![0u8; total];
        let mut at = 0usize;
        for &(off, len) in regions {
            let n = len as usize;
            self.read_at(off, &mut out[at..at + n])?;
            at += n;
        }
        Ok(out)
    }
    /// Total length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// True when the source holds no bytes.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

impl ReadAt for File {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.read_exact(buf)
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// In-memory `ReadAt` (tests, and volumes already fetched by a worker).
impl ReadAt for &[u8] {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = offset as usize;
        let end = start + buf.len();
        if end > <[u8]>::len(self) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of buffer",
            ));
        }
        buf.copy_from_slice(&self[start..end]);
        Ok(())
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(<[u8]>::len(self) as u64)
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Volume header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeHeader {
    /// Residue type.
    pub seq_type: SeqType,
    /// Number of sequences.
    pub nseq: u64,
    /// Total residues across all sequences.
    pub residues: u64,
    /// File offset of the index.
    pub index_offset: u64,
    /// File offset of the defline blob.
    pub defline_offset: u64,
}

impl VolumeHeader {
    fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(HEADER_LEN as usize);
        b.extend_from_slice(&MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.push(match self.seq_type {
            SeqType::Nucleotide => 0,
        });
        b.extend_from_slice(&[0u8; 7]);
        put_u64(&mut b, self.nseq);
        put_u64(&mut b, self.residues);
        put_u64(&mut b, self.index_offset);
        put_u64(&mut b, self.defline_offset);
        debug_assert_eq!(b.len() as u64, HEADER_LEN);
        b
    }

    fn from_bytes(b: &[u8]) -> io::Result<Self> {
        if b.len() < HEADER_LEN as usize || b[0..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a PBDB volume",
            ));
        }
        let version = u32::from_le_bytes(b[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported volume version {version}"),
            ));
        }
        let seq_type = match b[8] {
            0 => SeqType::Nucleotide,
            // Protein volumes: named, so the error says why.
            1 => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "protein volume (sequence type 1): only nucleotide volumes are supported",
                ))
            }
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad sequence type {t}"),
                ))
            }
        };
        Ok(VolumeHeader {
            seq_type,
            nseq: get_u64(b, 16),
            residues: get_u64(b, 24),
            index_offset: get_u64(b, 32),
            defline_offset: get_u64(b, 40),
        })
    }
}

/// Sequence data is handed to the sink in pieces of about this size.
const WRITE_CHUNK: usize = 1 << 20;

/// Streaming volume writer. Sequence data is gathered into chunks of about
/// 1 MiB before it reaches the sink — one `write` per sequence is tens of
/// thousands of system calls per formatted database — so a write error
/// surfaces at a later [`VolumeWriter::add_codes`] or at
/// [`VolumeWriter::finish`], never silently.
pub struct VolumeWriter<W: Write + Seek> {
    out: W,
    seq_type: SeqType,
    /// Sequence data not yet handed to `out`.
    pending: Vec<u8>,
    data_cursor: u64,
    index: Vec<u8>,
    deflines: Vec<u8>,
    nseq: u64,
    residues: u64,
}

impl VolumeWriter<File> {
    /// Create a volume file.
    pub fn create(path: impl AsRef<Path>, seq_type: SeqType) -> io::Result<Self> {
        VolumeWriter::new(File::create(path)?, seq_type)
    }
}

impl<W: Write + Seek> VolumeWriter<W> {
    /// Start writing a volume.
    pub fn new(mut out: W, seq_type: SeqType) -> io::Result<Self> {
        // Header placeholder; fixed up in finish().
        out.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(VolumeWriter {
            out,
            seq_type,
            pending: Vec::new(),
            data_cursor: HEADER_LEN,
            index: Vec::new(),
            deflines: Vec::new(),
            nseq: 0,
            residues: 0,
        })
    }

    /// Append one sequence given as raw ASCII letters.
    pub fn add_ascii(&mut self, defline: &str, ascii_seq: &[u8]) -> io::Result<()> {
        self.add_codes(defline, &encode_nt_seq(ascii_seq))
    }

    /// Append one sequence given as 2-bit nucleotide codes.
    pub fn add_codes(&mut self, defline: &str, codes: &[u8]) -> io::Result<()> {
        let def = defline.as_bytes();
        put_u64(&mut self.index, self.data_cursor);
        put_u64(&mut self.index, codes.len() as u64);
        put_u64(&mut self.index, self.deflines.len() as u64);
        put_u64(&mut self.index, def.len() as u64);
        self.deflines.extend_from_slice(def);
        pack_2bit_onto(codes, &mut self.pending);
        self.data_cursor += codes.len().div_ceil(4) as u64;
        self.nseq += 1;
        self.residues += codes.len() as u64;
        if self.pending.len() >= WRITE_CHUNK {
            self.write_pending()?;
        }
        Ok(())
    }

    fn write_pending(&mut self) -> io::Result<()> {
        self.out.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    /// Write the index, deflines and header; returns `(nseq, residues,
    /// file size)`.
    pub fn finish(mut self) -> io::Result<(u64, u64, u64)> {
        self.write_pending()?;
        let index_offset = self.data_cursor;
        let defline_offset = index_offset + self.index.len() as u64;
        self.out.write_all(&self.index)?;
        self.out.write_all(&self.deflines)?;
        let total = defline_offset + self.deflines.len() as u64;
        let header = VolumeHeader {
            seq_type: self.seq_type,
            nseq: self.nseq,
            residues: self.residues,
            index_offset,
            defline_offset,
        };
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header.to_bytes())?;
        self.out.flush()?;
        Ok((self.nseq, self.residues, total))
    }
}

/// One decoded sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbSequence {
    /// Defline (id + description).
    pub defline: String,
    /// Nucleotide codes, one 2-bit value per byte.
    pub codes: Vec<u8>,
}

impl DbSequence {
    /// Identifier: first word of the defline.
    pub fn id(&self) -> &str {
        self.defline.split_whitespace().next().unwrap_or("")
    }
}

/// A fully-decoded volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Volume {
    /// Residue type.
    pub seq_type: SeqType,
    /// Sequences in storage order.
    pub sequences: Vec<DbSequence>,
}

impl Volume {
    /// Total residues.
    pub fn residues(&self) -> u64 {
        self.sequences.iter().map(|s| s.codes.len() as u64).sum()
    }

    /// Read a whole volume through any [`ReadAt`] source, decoding every
    /// sequence to one code per byte. Performs the BLAST-shaped access
    /// sequence: header → index → bulk data → deflines. Hot search paths
    /// should prefer [`PackedVolume::read_from`], which keeps nucleotide
    /// data 2-bit packed instead of expanding it 4×.
    pub fn read_from<R: ReadAt>(src: &mut R) -> io::Result<Volume> {
        Ok(PackedVolume::read_from(src)?.into_volume())
    }

    /// Read just the header.
    pub fn read_header<R: ReadAt>(src: &mut R) -> io::Result<VolumeHeader> {
        let mut hdr = [0u8; HEADER_LEN as usize];
        src.read_at(0, &mut hdr)?;
        VolumeHeader::from_bytes(&hdr)
    }
}

/// One sequence's location inside a [`PackedVolume`].
#[derive(Debug, Clone, Copy)]
struct PackedEntry {
    /// Byte offset of the sequence inside the data blob.
    data_start: usize,
    /// Residue count.
    nres: usize,
    /// Defline byte range inside the defline blob.
    def_start: usize,
    def_len: usize,
}

/// A volume decoded only to its storage representation: the data stays
/// 2-bit packed (4 bases per byte). This is the zero-copy substrate of the
/// packed-scan blastn kernel — the scanner reads its table windows directly
/// from these bytes and only subjects that produce seed hits are ever
/// unpacked (into a caller-provided reusable buffer).
#[derive(Debug, Clone)]
pub struct PackedVolume {
    /// Residue type.
    pub seq_type: SeqType,
    data: Vec<u8>,
    entries: Vec<PackedEntry>,
    deflines: Vec<u8>,
}

impl PackedVolume {
    /// Read a whole volume through any [`ReadAt`] source without unpacking.
    /// Performs the exact same access sequence as [`Volume::read_from`]
    /// (header → index → bulk data → deflines), so I/O traces are
    /// identical between the two readers.
    pub fn read_from<R: ReadAt>(src: &mut R) -> io::Result<PackedVolume> {
        let (seq_type, [index, data, deflines]) = Self::layout(src)?;
        let mut read = |(offset, len): (u64, u64)| {
            let mut buf = vec![0u8; len as usize];
            src.read_at(offset, &mut buf).map(|()| buf)
        };
        let index = read(index)?;
        // One large read for the entire packed data region.
        let data = read(data)?;
        let deflines = read(deflines)?;
        let entries = parse_index(&index, data.len(), deflines.len())?;
        Ok(PackedVolume {
            seq_type,
            data,
            entries,
            deflines,
        })
    }

    /// [`PackedVolume::read_from`] over list I/O: after the header, the
    /// index, packed data, and defline regions travel in ONE vectored
    /// [`ReadAt::read_many_at`] call — one aggregated request per storage
    /// server instead of one per region — listed in the same
    /// index → data → deflines order the plain reader visits them, so the
    /// traced read sequence (and of course the decoded volume) is
    /// identical. The data region is not copied out of the list's bytes:
    /// the index is parsed where it lies, the deflines are split off the
    /// end, and the data shifts down over the index.
    pub fn read_from_listio<R: ReadAt>(src: &mut R) -> io::Result<PackedVolume> {
        let (seq_type, regions) = Self::layout(src)?;
        let mut data = src.read_many_at(&regions)?;
        let index_len = regions[0].1 as usize;
        let deflines = data.split_off(index_len + regions[1].1 as usize);
        let entries = parse_index(&data[..index_len], data.len() - index_len, deflines.len())?;
        data.drain(..index_len);
        Ok(PackedVolume {
            seq_type,
            data,
            entries,
            deflines,
        })
    }

    /// Read the header, then locate the regions behind it: `(offset,
    /// len)` of the index, the packed data and the deflines, in the order
    /// both readers fetch them. The header is checked before anything is
    /// sized from it: data, index and deflines must follow it in that
    /// order and end inside the file, or the volume is `InvalidData`.
    fn layout<R: ReadAt>(src: &mut R) -> io::Result<(SeqType, [(u64, u64); 3])> {
        let header = Volume::read_header(src)?;
        let len = src.len()?;
        let index_len = header.nseq.checked_mul(INDEX_ENTRY_LEN);
        let index_end = index_len.and_then(|n| header.index_offset.checked_add(n));
        let ordered = index_end.is_some_and(|end| {
            HEADER_LEN <= header.index_offset
                && end <= header.defline_offset
                && header.defline_offset <= len
        });
        if !ordered {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "volume header regions out of order or past the end of the file",
            ));
        }
        let regions = [
            (header.index_offset, header.nseq * INDEX_ENTRY_LEN),
            (HEADER_LEN, header.index_offset - HEADER_LEN),
            (header.defline_offset, len - header.defline_offset),
        ];
        Ok((header.seq_type, regions))
    }

    /// Pack a decoded volume: the inverse of [`Self::to_volume`]. Lossless,
    /// because nucleotide codes are always `0..4`.
    pub fn from_volume(volume: &Volume) -> PackedVolume {
        let mut data = Vec::new();
        let mut deflines = Vec::new();
        let mut entries = Vec::with_capacity(volume.sequences.len());
        for s in &volume.sequences {
            entries.push(PackedEntry {
                data_start: data.len(),
                nres: s.codes.len(),
                def_start: deflines.len(),
                def_len: s.defline.len(),
            });
            pack_2bit_onto(&s.codes, &mut data);
            deflines.extend_from_slice(s.defline.as_bytes());
        }
        PackedVolume {
            seq_type: volume.seq_type,
            data,
            entries,
            deflines,
        }
    }

    /// Number of sequences.
    pub fn nseq(&self) -> usize {
        self.entries.len()
    }

    /// Total residues across all sequences.
    pub fn residues(&self) -> u64 {
        self.entries.iter().map(|e| e.nres as u64).sum()
    }

    /// Residue count of sequence `i`.
    pub fn seq_len(&self, i: usize) -> usize {
        self.entries[i].nres
    }

    /// Stored bytes of sequence `i`: 2-bit packed, big-endian within the
    /// byte ([`crate::alphabet::pack_2bit`] layout).
    pub fn packed(&self, i: usize) -> &[u8] {
        let e = &self.entries[i];
        &self.data[e.data_start..e.data_start + e.nres.div_ceil(4)]
    }

    /// Defline of sequence `i`.
    pub fn defline(&self, i: usize) -> std::borrow::Cow<'_, str> {
        let e = &self.entries[i];
        String::from_utf8_lossy(&self.deflines[e.def_start..e.def_start + e.def_len])
    }

    /// Identifier of sequence `i`: first word of its defline.
    pub fn id(&self, i: usize) -> String {
        self.defline(i)
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string()
    }

    /// Unpack sequence `i` into a reusable buffer (replacing its contents).
    pub fn unpack_into(&self, i: usize, out: &mut Vec<u8>) {
        unpack_2bit_into(self.packed(i), self.entries[i].nres, out)
    }

    /// Decode every sequence into a [`Volume`], one byte per residue.
    pub fn to_volume(&self) -> Volume {
        let mut sequences = Vec::with_capacity(self.entries.len());
        for i in 0..self.entries.len() {
            let mut codes = Vec::new();
            self.unpack_into(i, &mut codes);
            sequences.push(DbSequence {
                defline: self.defline(i).into_owned(),
                codes,
            });
        }
        Volume {
            seq_type: self.seq_type,
            sequences,
        }
    }

    /// Consuming variant of [`Self::to_volume`].
    pub fn into_volume(self) -> Volume {
        self.to_volume()
    }
}

/// Parse a volume index, checking every entry against the lengths of the
/// data and defline regions it points into.
fn parse_index(index: &[u8], data_len: usize, def_len: usize) -> io::Result<Vec<PackedEntry>> {
    index
        .chunks_exact(INDEX_ENTRY_LEN as usize)
        .map(|e| {
            let nres = get_u64(e, 8);
            let (def_start, dlen) = (get_u64(e, 16), get_u64(e, 24));
            let fits = |start: u64, len: u64, region: usize| {
                start
                    .checked_add(len)
                    .is_some_and(|end| end <= region as u64)
            };
            let data_start = get_u64(e, 0)
                .checked_sub(HEADER_LEN)
                .filter(|&start| fits(start, nres.div_ceil(4), data_len))
                .filter(|_| fits(def_start, dlen, def_len))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "volume index entry out of bounds",
                    )
                })?;
            Ok(PackedEntry {
                data_start: data_start as usize,
                nres: nres as usize,
                def_start: def_start as usize,
                def_len: dlen as usize,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::pack_2bit;
    use std::io::Cursor;

    fn build(seq_type: SeqType, seqs: &[(&str, &[u8])]) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let mut w = VolumeWriter::new(&mut buf, seq_type).unwrap();
        for &(d, s) in seqs {
            w.add_ascii(d, s).unwrap();
        }
        w.finish().unwrap();
        buf.into_inner()
    }

    #[test]
    fn nt_volume_round_trip() {
        let bytes = build(
            SeqType::Nucleotide,
            &[
                ("seq1 E. coli fragment", b"ACGTACGTACGTA"),
                ("seq2", b"TTTTGGGG"),
                ("seq3 with N runs", b"ACGNNNNACG"),
            ],
        );
        let v = Volume::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(v.seq_type, SeqType::Nucleotide);
        assert_eq!(v.sequences.len(), 3);
        assert_eq!(v.sequences[0].defline, "seq1 E. coli fragment");
        assert_eq!(v.sequences[0].id(), "seq1");
        assert_eq!(v.sequences[0].codes.len(), 13);
        assert_eq!(
            v.sequences[1].codes,
            crate::alphabet::encode_nt_seq(b"TTTTGGGG")
        );
        // N canonicalizes to A.
        assert_eq!(
            v.sequences[2].codes,
            crate::alphabet::encode_nt_seq(b"ACGAAAAACG")
        );
        assert_eq!(v.residues(), 13 + 8 + 10);
    }

    #[test]
    fn packed_volume_matches_decoded_volume() {
        for seqs in [
            vec![
                ("seq1 E. coli fragment", b"ACGTACGTACGTA".as_slice()),
                ("seq2", b"TTTTGGGG"),
                ("seq3 ragged", b"ACGTACG"),
            ],
            vec![
                ("n1 kinase gene", b"ATGAAAGTG".as_slice()),
                ("n2", b"GATTACA"),
            ],
        ] {
            let bytes = build(SeqType::Nucleotide, &seqs);
            let v = Volume::read_from(&mut bytes.as_slice()).unwrap();
            let p = PackedVolume::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(p.seq_type, v.seq_type);
            assert_eq!(p.nseq(), v.sequences.len());
            assert_eq!(p.residues(), v.residues());
            let mut buf = Vec::new();
            for (i, s) in v.sequences.iter().enumerate() {
                assert_eq!(p.seq_len(i), s.codes.len());
                assert_eq!(p.defline(i), s.defline);
                assert_eq!(p.id(i), s.id());
                p.unpack_into(i, &mut buf);
                assert_eq!(buf, s.codes, "seq {i}");
                assert_eq!(p.packed(i), pack_2bit(&s.codes));
            }
            // Packing the decoded volume gives back what the file held.
            let repacked = PackedVolume::from_volume(&v);
            assert_eq!(repacked.to_volume(), v);
            for i in 0..p.nseq() {
                assert_eq!(repacked.packed(i), p.packed(i), "seq {i}");
            }
        }
    }

    #[test]
    fn packed_volume_issues_the_same_reads_as_volume() {
        // The two readers must be trace-identical so pio/Tracer-based tests
        // and figure reproductions hold for either. Record (offset, len)
        // pairs through a counting ReadAt wrapper.
        struct Recorder<'a> {
            inner: &'a [u8],
            reads: Vec<(u64, usize)>,
        }
        impl ReadAt for Recorder<'_> {
            fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
                self.reads.push((offset, buf.len()));
                let mut s = self.inner;
                s.read_at(offset, buf)
            }
            fn len(&mut self) -> io::Result<u64> {
                Ok(self.inner.len() as u64)
            }
        }
        let bytes = build(
            SeqType::Nucleotide,
            &[("a", b"ACGTACGTA".as_slice()), ("b", b"GGCC")],
        );
        let mut r1 = Recorder {
            inner: &bytes,
            reads: vec![],
        };
        Volume::read_from(&mut r1).unwrap();
        let mut r2 = Recorder {
            inner: &bytes,
            reads: vec![],
        };
        PackedVolume::read_from(&mut r2).unwrap();
        assert_eq!(r1.reads, r2.reads);
        // header → index → bulk data → deflines: four reads.
        assert_eq!(r1.reads.len(), 4);
        assert_eq!(r1.reads[0], (0, HEADER_LEN as usize));
    }

    #[test]
    fn every_reader_rejects_a_protein_volume_naming_its_type() {
        // A well-formed volume whose header says type 1, the protein
        // volumes of earlier formats.
        let mut bytes = build(SeqType::Nucleotide, &[("a", b"ACGT"), ("b", b"GG")]);
        bytes[8] = 1;
        let src = || bytes.as_slice();
        let errors = [
            Volume::read_header(&mut src()).map(drop),
            Volume::read_from(&mut src()).map(drop),
            PackedVolume::read_from(&mut src()).map(drop),
            PackedVolume::read_from_listio(&mut src()).map(drop),
        ];
        for (reader, got) in errors.into_iter().enumerate() {
            let err = got.expect_err("a protein volume must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "reader {reader}");
            assert!(
                err.to_string().contains("protein"),
                "reader {reader}: {err}"
            );
        }
        // Any other unknown type is rejected too, by its number.
        bytes[8] = 7;
        let err = Volume::read_header(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("type 7"), "{err}");
    }

    #[test]
    fn every_reader_rejects_a_header_whose_regions_do_not_fit() {
        // Valid magic, version and type, but the offsets behind them are
        // wrong: the index before the end of the header, the deflines past
        // the end of the file, an index too long to count in a u64.
        let bytes = build(SeqType::Nucleotide, &[("a", b"ACGT"), ("b", b"GG")]);
        let past_end = bytes.len() as u64 + 100;
        for (field, value) in [(32, 16u64), (40, past_end), (16, u64::MAX / 8)] {
            let mut bad = bytes.clone();
            bad[field..field + 8].copy_from_slice(&value.to_le_bytes());
            for (reader, got) in [
                PackedVolume::read_from(&mut bad.as_slice()),
                PackedVolume::read_from_listio(&mut bad.as_slice()),
            ]
            .into_iter()
            .enumerate()
            {
                let err = got.expect_err("a header that does not fit must not load");
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "reader {reader}, field {field} = {value}: {err}"
                );
            }
        }
        // The same for an index entry whose data offset points into the
        // header.
        let mut bad = bytes.clone();
        let entry = get_u64(&bad, 32) as usize;
        bad[entry..entry + 8].copy_from_slice(&0u64.to_le_bytes());
        for got in [
            PackedVolume::read_from(&mut bad.as_slice()),
            PackedVolume::read_from_listio(&mut bad.as_slice()),
        ] {
            assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn empty_volume() {
        let bytes = build(SeqType::Nucleotide, &[]);
        let v = Volume::read_from(&mut bytes.as_slice()).unwrap();
        assert!(v.sequences.is_empty());
    }

    #[test]
    fn header_survives_round_trip() {
        let bytes = build(SeqType::Nucleotide, &[("a", b"ACGT"), ("b", b"GG")]);
        let h = Volume::read_header(&mut bytes.as_slice()).unwrap();
        assert_eq!(h.nseq, 2);
        assert_eq!(h.residues, 6);
        assert_eq!(h.seq_type, SeqType::Nucleotide);
    }

    #[test]
    fn rejects_garbage() {
        let garbage = vec![0u8; 64];
        assert!(Volume::read_from(&mut garbage.as_slice()).is_err());
    }

    #[test]
    fn file_backed_round_trip() {
        let dir = std::env::temp_dir().join(format!("pbdb_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vol.pdb");
        {
            let mut w = VolumeWriter::create(&path, SeqType::Nucleotide).unwrap();
            w.add_ascii("f1", b"ACGTACGT").unwrap();
            let (n, r, sz) = w.finish().unwrap();
            assert_eq!((n, r), (1, 8));
            assert_eq!(sz, std::fs::metadata(&path).unwrap().len());
        }
        let mut f = File::open(&path).unwrap();
        let v = Volume::read_from(&mut f).unwrap();
        assert_eq!(v.sequences[0].codes.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that counts `write` calls.
    struct CountingSink {
        inner: Cursor<Vec<u8>>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for CountingSink {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn sequence_data_reaches_the_sink_in_chunks_and_whole() {
        // ~2.6 MiB of packed data in 3000 sequences of ragged lengths:
        // crosses the write chunk twice and ends on a partial one.
        let seqs: Vec<(String, Vec<u8>)> = (0..3000usize)
            .map(|i| {
                let codes = (0..3400 + i % 7)
                    .map(|k| ((k * 7 + i * 13) % 4) as u8)
                    .collect();
                (format!("s{i} sequence number {i}"), codes)
            })
            .collect();
        let mut sink = CountingSink {
            inner: Cursor::new(Vec::new()),
            writes: 0,
        };
        let mut w = VolumeWriter::new(&mut sink, SeqType::Nucleotide).unwrap();
        for (d, c) in &seqs {
            w.add_codes(d, c).unwrap();
        }
        let (nseq, _, total) = w.finish().unwrap();
        assert_eq!(nseq, 3000);
        assert!(
            sink.writes < 12,
            "{} writes for 3000 sequences",
            sink.writes
        );
        let bytes = sink.inner.into_inner();
        assert_eq!(bytes.len() as u64, total);
        // The layout is what one write per sequence produced: header, every
        // sequence's packed bytes back to back, index, deflines.
        let data: Vec<u8> = seqs.iter().flat_map(|(_, c)| pack_2bit(c)).collect();
        let start = HEADER_LEN as usize;
        assert!(bytes[start..start + data.len()] == data[..], "data region");
        let v = Volume::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(v.sequences.len(), seqs.len());
        for (got, (d, c)) in v.sequences.iter().zip(&seqs) {
            assert_eq!(&got.defline, d);
            assert!(got.codes == *c, "codes of {d}");
        }
    }
}
