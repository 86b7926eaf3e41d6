//! # parblast-net
//!
//! The networked serving tier: what puts the PR 5 scan-sharing service
//! behind a TCP socket so the batch job becomes a daemon that many
//! clients — and many *tenants* — can hit concurrently.
//!
//! ```text
//!   clients (N threads, T tenants)            pb-blastall --daemon
//!  ┌─────────────┐  Submit{tenant,deadline} ┌──────────────────────────┐
//!  │ NetClient   │ ────────────────────────▶│ NetServer                │
//!  │  retry +    │ ◀──────────────────────── │  shard 0: IO + exec      │
//!  │  backoff    │  Result | Shed{reason}   │  shard 1: IO + exec      │
//!  │ (pvfs PR 1  │                          │  ...thread-per-core...   │
//!  │  policy)    │  Drain → DrainAck → EOF  │  quotas · queue · drain  │
//!  └─────────────┘                          └──────────────────────────┘
//! ```
//!
//! * [`proto`] — the length-prefixed, versioned binary frame protocol
//!   (magic `"PBN1"`), built and tested to the same discipline as
//!   `pvfs::msg::ReadList`: golden byte vectors, every-prefix truncation
//!   rejection, round-trip proptests.
//! * [`server`] — the thread-per-core daemon: an acceptor hands
//!   connections round-robin to shards; each shard pairs a poll(2) IO
//!   thread with two batch-exec lanes around the [`queue`]'s
//!   [`AdmissionQueue`] in one shard ledger. Per-tenant
//!   token buckets shed over-quota traffic with typed reasons; graceful
//!   drain answers every accepted query before closing a single socket.
//!   The ledger (`ledger`, crate-private) is one shard's admission state
//!   as a pure state machine, its tests walking every event order.
//! * [`queue`] — the bounded admission queue: backpressure, per-query
//!   deadlines, strict priority with FIFO inside each class.
//! * [`quota`] — the token buckets.
//! * [`runner`] — the execution bridge ([`BlastRunner`] over the real
//!   `pio` store, [`EchoRunner`] for tests); results are byte-identical
//!   to in-process [`parblast_mpiblast::serve_batched`].
//! * [`client`] — the blocking client with the PR 1 timeout/retry/backoff
//!   policy (`Shed` and `Corrupt` are deterministic → never retried),
//!   pooled-connection retries, a retry budget, a circuit breaker, and
//!   deadline propagation; one Submit in flight per attempt.
//! * [`chaos`] — deterministic socket fault injection ([`FaultyStream`],
//!   [`ChaosDialer`]) replaying seeded `hwsim` socket-fault schedules.
//! * [`resilience`] — the pure client-side state machines
//!   ([`RetryBudget`], [`CircuitBreaker`]).

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
mod ledger;
pub mod proto;
pub mod queue;
pub mod quota;
pub mod resilience;
pub mod runner;
pub mod server;

pub use chaos::{connection_seed, ChaosDialer, FaultCounts, FaultyStream, HardReset};
pub use client::{
    ClientConfig, ClientCounters, ClientError, ClientStream, Dialer, NetClient, Response, TcpDialer,
};
pub use proto::{
    decode_frame, decode_header, encode_frame, Frame, FrameError, FrameReader, ResultStatus,
    ShedReason, StatsSnapshot, FRAME_HEADER_LEN, MAX_FRAME_LEN, NET_MAGIC, NET_VERSION,
};
pub use queue::{AdmissionQueue, AdmitError, Priority, Query};
pub use quota::{QuotaConfig, TenantQuotas};
pub use resilience::{BreakerConfig, BreakerState, BudgetConfig, CircuitBreaker, RetryBudget};
pub use runner::{BatchRunner, BlastRunner, EchoRunner, RunnerError, RunnerOutput};
pub use server::{NetServer, ServerConfig, ServerHandle};
