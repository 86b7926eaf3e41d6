//! # parblast-seqdb
//!
//! The sequence-database substrate of the `parblast` workspace:
//!
//! * [`alphabet`] — the nucleotide encodings (2-bit packing, reverse
//!   complement);
//! * [`fasta`] — streaming FASTA I/O;
//! * [`blastdb`] — formatted database volumes (the `formatdb` analogue)
//!   read through the [`blastdb::ReadAt`] seam so any I/O backend can
//!   supply the bytes;
//! * [`segment`] — `mpiformatdb`-style segmentation into balanced
//!   fragments;
//! * [`synthetic`] — an `nt`-statistics database generator standing in for
//!   the real 2.7 GB NCBI download (see DESIGN.md's substitution table).

#![warn(missing_docs)]

pub mod alphabet;
pub mod blastdb;
pub mod fasta;
pub mod segment;
pub mod synthetic;

pub use alphabet::{
    complement_nt, decode_nt, encode_nt, encode_nt_seq, pack_2bit, reverse_complement, unpack_2bit,
    unpack_2bit_into,
};
pub use blastdb::{
    DbSequence, DeflineRead, Deflines, PackedVolume, ReadAt, SeqType, Volume, VolumeHeader,
    VolumeWriter,
};
pub use fasta::{FastaReader, FastaRecord, FastaWriter};
pub use segment::{fragment_path, segment_into_fragments, FragmentInfo};
pub use synthetic::{extract_query, to_ascii, SyntheticConfig, SyntheticNt};
