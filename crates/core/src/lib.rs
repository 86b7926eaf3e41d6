//! # parblast-core
//!
//! The public facade of the `parblast` workspace — a reproduction of
//! *"A Case Study of Parallel I/O for Biological Sequence Search on Linux
//! Clusters"* (Zhu, Jiang, Qin, Swanson; CLUSTER 2003).
//!
//! The workspace provides, from the bottom up:
//!
//! * [`simcore`]/[`hwsim`] — a deterministic discrete-event simulator of
//!   the PrairieFire cluster (IDE disks, Myrinet TCP, dual CPUs, page
//!   cache, the Figure 8 disk stressor);
//! * [`pvfs`]/[`ceft`] — simulated PVFS and CEFT-PVFS (RAID-0 and RAID-10
//!   parallel file systems, dual-half reads, hot-spot skipping);
//! * [`pio`] — a *real* user-space parallel-I/O library with the same
//!   striping/mirroring semantics over actual files;
//! * [`seqdb`]/[`blast`] — a real nucleotide sequence-database substrate
//!   and a from-scratch blastn engine, the program the paper runs;
//! * [`mpiblast`] — the parallel BLAST layer, both as a real threaded job
//!   and as a simulated twin;
//! * [`experiments`] — one function per figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use parblast_core::prelude::*;
//!
//! // Generate a small synthetic nt-like database.
//! let mut gen = SyntheticNt::new(SyntheticConfig {
//!     total_residues: 200_000,
//!     ..Default::default()
//! });
//! let mut seqs = Vec::new();
//! while let Some(s) = gen.next() { seqs.push(s); }
//!
//! // Cut a 568-nt query out of it (like the paper's ecoli.nt query)...
//! let query = extract_query(&seqs[0].1, 568, 0.02, 7);
//!
//! // ...and search it with blastn.
//! let volume = Volume {
//!     seq_type: SeqType::Nucleotide,
//!     sequences: seqs
//!         .into_iter()
//!         .map(|(defline, codes)| DbSequence { defline, codes })
//!         .collect(),
//! };
//! let hits = blastall(&query, &volume, &SearchParams::blastn());
//! assert!(!hits.is_empty());
//! ```

#![warn(missing_docs)]

pub mod experiments;

pub use parblast_blast as blast;
pub use parblast_ceft as ceft;
pub use parblast_hwsim as hwsim;
pub use parblast_mpiblast as mpiblast;
pub use parblast_net as net;
pub use parblast_pio as pio;
pub use parblast_pvfs as pvfs;
pub use parblast_seqdb as seqdb;
pub use parblast_simcore as simcore;

pub mod serve {
    //! The serving names under one path. Nothing is defined here:
    //! [`AdmissionQueue`], [`AdmitError`], [`Priority`] and [`Query`] live
    //! in [`net::queue`](crate::net::queue), the daemon's admission queue;
    //! [`serve_batched`], [`serve_batched_scrubbed`] and
    //! [`RealServeOutcome`] live in
    //! [`mpiblast::serve`](crate::mpiblast::serve), in-process scan-sharing
    //! over the real engine.

    pub use parblast_mpiblast::serve::{serve_batched, serve_batched_scrubbed, RealServeOutcome};
    pub use parblast_net::queue::{AdmissionQueue, AdmitError, Priority, Query};
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use parblast_blast::{
        blastall, tabular, DbStats, GapPenalties, Hit, Hsp, Program, Scorer, SearchParams,
    };
    pub use parblast_mpiblast::{
        run_simblast, serve_batched, ParallelBlast, Parallelization, RunOutcome, Scheme,
        SimBlastConfig, SimOutcome, SimScheme, TraceSummary, Tracer,
    };
    pub use parblast_net::{
        AdmissionQueue, BlastRunner, ClientConfig, NetClient, NetServer, Priority, Query,
        ServerConfig,
    };
    pub use parblast_pio::{
        LocalStore, MirroredStore, ObjectReader, ObjectStore, ServerId, StripedStore,
    };
    pub use parblast_seqdb::blastdb::DbSequence;
    pub use parblast_seqdb::{
        extract_query, segment_into_fragments, FastaReader, FastaWriter, SeqType, SyntheticConfig,
        SyntheticNt, Volume, VolumeWriter,
    };

    pub use crate::experiments;
}
