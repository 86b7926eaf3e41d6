//! The nucleotide alphabet and its encodings.
//!
//! Nucleotides use the compact 2-bit code `A=0 C=1 G=2 T=3` (ambiguity
//! codes are canonicalized before packing, as `formatdb` does for its
//! `.nsq` files).

/// Nucleotide codes.
pub const NT_A: u8 = 0;
/// Cytosine.
pub const NT_C: u8 = 1;
/// Guanine.
pub const NT_G: u8 = 2;
/// Thymine.
pub const NT_T: u8 = 3;

/// Encode one nucleotide ASCII letter to its 2-bit code. Ambiguity codes
/// (N, R, Y, ...) map to a deterministic canonical base so packing stays
/// 2-bit; lowercase accepted. Returns `None` for non-nucleotide bytes.
pub fn encode_nt(c: u8) -> Option<u8> {
    Some(match c.to_ascii_uppercase() {
        b'A' => NT_A,
        b'C' => NT_C,
        b'G' => NT_G,
        b'T' | b'U' => NT_T,
        // IUPAC ambiguity codes: canonicalize to their first possibility.
        b'R' | b'D' | b'V' | b'W' | b'M' | b'H' | b'N' => NT_A,
        b'Y' | b'B' | b'S' => NT_C,
        b'K' => NT_G,
        _ => return None,
    })
}

/// Decode a 2-bit nucleotide code to its ASCII letter.
pub fn decode_nt(code: u8) -> u8 {
    match code & 3 {
        NT_A => b'A',
        NT_C => b'C',
        NT_G => b'G',
        _ => b'T',
    }
}

/// Complement of a 2-bit nucleotide code.
pub fn complement_nt(code: u8) -> u8 {
    3 - (code & 3)
}

/// Encode an ASCII nucleotide sequence; non-sequence bytes are skipped.
pub fn encode_nt_seq(ascii: &[u8]) -> Vec<u8> {
    ascii.iter().filter_map(|&c| encode_nt(c)).collect()
}

/// Reverse complement of a 2-bit-coded nucleotide sequence.
pub fn reverse_complement(codes: &[u8]) -> Vec<u8> {
    codes.iter().rev().map(|&c| complement_nt(c)).collect()
}

/// Pack 2-bit nucleotide codes, 4 per byte (big-endian within the byte,
/// like NCBI's ncbi2na).
pub fn pack_2bit(codes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(codes.len().div_ceil(4));
    pack_2bit_onto(codes, &mut out);
    out
}

/// [`pack_2bit`] appended to `out`. Formatting a database is mostly this,
/// so the bytes are written into a pre-sized slice from fixed four-code
/// chunks, each read as one little-endian word and packed by shifts, a
/// loop the compiler vectorises.
pub(crate) fn pack_2bit_onto(codes: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + codes.len().div_ceil(4), 0);
    let bytes = &mut out[start..];
    let (quads, tail) = codes.as_chunks::<4>();
    for (b, q) in bytes.iter_mut().zip(quads) {
        // Codes `c0..c3` in bytes 0..3 of `w`; `c0` lands in bits 6..7
        // of the low byte, `c1` in 4..5, `c2` in 2..3, `c3` in 0..1.
        let w = u32::from_le_bytes(*q) & 0x0303_0303;
        *b = (w << 6 | w >> 4 | w >> 14 | w >> 24) as u8;
    }
    if let Some(last) = bytes.get_mut(quads.len()) {
        *last = tail
            .iter()
            .enumerate()
            .fold(0, |b, (i, &c)| b | (c & 3) << (6 - 2 * i));
    }
}

/// Unpack `len` 2-bit nucleotide codes from packed bytes.
pub fn unpack_2bit(packed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    unpack_2bit_into(packed, len, &mut out);
    out
}

/// The four codes of every packed byte, first base first.
const UNPACKED: [[u8; 4]; 256] = {
    let mut table = [[0u8; 4]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [
            (b >> 6) as u8 & 3,
            (b >> 4) as u8 & 3,
            (b >> 2) as u8 & 3,
            b as u8 & 3,
        ];
        b += 1;
    }
    table
};

/// Unpack `len` 2-bit nucleotide codes into a reusable buffer (replacing
/// its contents). The allocation-free counterpart of [`unpack_2bit`] for
/// hot per-subject paths: every full packed byte is one table entry
/// stored to its four-code slot.
pub fn unpack_2bit_into(packed: &[u8], len: usize, out: &mut Vec<u8>) {
    let packed = &packed[..len.div_ceil(4)];
    out.resize(len, 0);
    let mut quads = out.chunks_exact_mut(4);
    for (quad, &b) in quads.by_ref().zip(packed) {
        quad.copy_from_slice(&UNPACKED[b as usize]);
    }
    let tail = quads.into_remainder();
    if let Some(&b) = packed.get(len / 4) {
        tail.copy_from_slice(&UNPACKED[b as usize][..tail.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_round_trip() {
        for (c, code) in [(b'A', 0), (b'C', 1), (b'G', 2), (b'T', 3)] {
            assert_eq!(encode_nt(c), Some(code));
            assert_eq!(decode_nt(code), c);
        }
        assert_eq!(encode_nt(b'a'), Some(0));
        assert_eq!(encode_nt(b'u'), Some(3));
        assert_eq!(encode_nt(b'N'), Some(0));
        assert_eq!(encode_nt(b'-'), None);
        assert_eq!(encode_nt(b'\n'), None);
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(complement_nt(NT_A), NT_T);
        assert_eq!(complement_nt(NT_T), NT_A);
        assert_eq!(complement_nt(NT_C), NT_G);
        assert_eq!(complement_nt(NT_G), NT_C);
    }

    #[test]
    fn reverse_complement_involution() {
        let seq = encode_nt_seq(b"ACGTTGCAAT");
        assert_eq!(reverse_complement(&reverse_complement(&seq)), seq);
        let rc = reverse_complement(&encode_nt_seq(b"ACGT"));
        let ascii: Vec<u8> = rc.iter().map(|&c| decode_nt(c)).collect();
        assert_eq!(ascii, b"ACGT");
    }

    /// The expansion `unpack_2bit_into` used before the table: one
    /// `extend_from_slice` per full byte, then the tail code by code.
    fn unpack_by_shifts(packed: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let full = len / 4;
        for &b in &packed[..full] {
            out.extend_from_slice(&[(b >> 6) & 3, (b >> 4) & 3, (b >> 2) & 3, b & 3]);
        }
        for i in full * 4..len {
            out.push((packed[i / 4] >> (6 - 2 * (i % 4))) & 3);
        }
        out
    }

    #[test]
    fn table_unpack_equals_shift_unpack_at_every_length_and_tail() {
        // Every byte value occurs, and the bits past a ragged tail are
        // set, so a tail that copied too much would show.
        let packed: Vec<u8> = (0..=255u8).rev().collect();
        // A reused buffer, longer and shorter than what each call needs.
        let mut out = vec![9u8; 40];
        for len in 0..=67 {
            unpack_2bit_into(&packed, len, &mut out);
            assert_eq!(out, unpack_by_shifts(&packed, len), "len {len}");
        }
        for len in [1020, 1021, 1022, 1023, 1024] {
            unpack_2bit_into(&packed, len, &mut out);
            assert_eq!(out, unpack_by_shifts(&packed, len), "len {len}");
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        for len in 0..40usize {
            let codes: Vec<u8> = (0..len).map(|i| (i * 7 % 4) as u8).collect();
            let packed = pack_2bit(&codes);
            assert_eq!(packed.len(), len.div_ceil(4));
            assert_eq!(unpack_2bit(&packed, len), codes);
        }
    }

    proptest::proptest! {
        /// Packing equals a byte-by-byte reference at every length and
        /// tail, with the bits above each code set, onto an empty vector
        /// and onto one that already holds bytes.
        #[test]
        fn pack_equals_bytewise_reference(
            codes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2000),
            before in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..9),
        ) {
            let reference: Vec<u8> = (0..codes.len().div_ceil(4))
                .map(|j| {
                    (0..4).fold(0, |b, i| {
                        let c = codes.get(4 * j + i).map_or(0, |&c| c & 3);
                        b | c << (6 - 2 * i)
                    })
                })
                .collect();
            proptest::prop_assert_eq!(pack_2bit(&codes), reference.clone());
            let mut onto = before.clone();
            pack_2bit_onto(&codes, &mut onto);
            proptest::prop_assert_eq!(&onto[..before.len()], &before[..]);
            proptest::prop_assert_eq!(&onto[before.len()..], &reference[..]);
        }
    }

    #[test]
    fn pack_layout_is_big_endian_in_byte() {
        // A C G T → 00 01 10 11 → 0b00011011 = 0x1B.
        let packed = pack_2bit(&[0, 1, 2, 3]);
        assert_eq!(packed, vec![0x1B]);
    }
}
