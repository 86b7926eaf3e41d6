//! # parblast-blast
//!
//! A from-scratch implementation of `blastn`, the nucleotide-vs-nucleotide
//! BLAST program (Altschul et al. 1990/1997) the paper benchmarks, standing
//! in for the NCBI BLAST library the paper's mpiBLAST wraps:
//!
//! * one kernel, [`PreparedBatch`]: both strands of up to
//!   [`MAX_FUSED_BATCH`] queries seeded from one packed scan of each
//!   subject, with exact-word hits and DUST soft masking;
//! * Karlin-Altschul statistics (λ, K, H computed from first principles,
//!   matching NCBI's published constants) with E-values, bit scores, and
//!   length adjustment;
//! * ungapped and gapped X-drop extensions, banded-global traceback for
//!   percent-identity reporting, and `-m 8` tabular output.
//!
//! ```
//! use parblast_blast::{blastall, SearchParams};
//! use parblast_seqdb::blastdb::DbSequence;
//! use parblast_seqdb::{encode_nt_seq, SeqType, Volume};
//!
//! let subject = encode_nt_seq(b"TTGACCTAGATAGCATCAGTTGACGAGCTAGCGGCGTACAAGCTAGCTAGCGGCTT");
//! let query = subject[8..40].to_vec();
//! let volume = Volume {
//!     seq_type: SeqType::Nucleotide,
//!     sequences: vec![DbSequence { defline: "subj1".into(), codes: subject }],
//! };
//! let mut params = SearchParams::blastn();
//! params.evalue = 1e3; // toy-sized sequences
//! let hits = blastall(&query, &volume, &params);
//! assert_eq!(hits[0].subject_id, "subj1");
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod dust;
pub mod extend;
pub mod gapped;
pub mod karlin;
pub mod lookup;
pub mod matrix;
pub mod report;
pub mod search;
pub mod workspace;

pub use dust::{dust_mask, is_masked, word_masked, DustParams};
pub use extend::{
    extend_ungapped, extend_ungapped_packed, PackedQuery, UngappedHsp, UngappedTable,
};
pub use gapped::{
    align_stats, banded_global_with, extend_gapped_with, traceback_kernel, xdrop_extend_with,
    xdrop_row_kernel, AlignOp, AlignStats, GappedWorkspace,
};
pub use karlin::{gapped_params, scorer_params, ungapped_params, KarlinParams};
pub use lookup::{scan_kernel, BatchedNtLookup, SurvivorBlock, MAX_BATCH_CONTEXTS};
pub use matrix::{GapPenalties, Scorer};
pub use report::{tabular, Hit, Hsp};
pub use search::{
    fused_passes, search_packed_batch_with, search_packed_with, search_volume, search_volume_with,
    BatchScanWorkspace, DbStats, Found, PreparedBatch, Program, ScanWorkspace, SearchParams,
    MAX_FUSED_BATCH,
};
pub use workspace::DiagTracker;

use parblast_seqdb::Volume;

/// Convenience entry point mirroring NCBI's `blastall` single interface
/// (§2.1) for blastn: derives the database statistics from the volume
/// itself.
pub fn blastall(query: &[u8], volume: &Volume, params: &SearchParams) -> Vec<Hit> {
    let db = DbStats {
        residues: volume.residues(),
        nseq: volume.sequences.len() as u64,
    };
    search_volume(query, volume, params, db)
}
