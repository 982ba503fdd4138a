//! Sharded campaign service: the batch engine and campaign planner
//! behind a long-running, wire-addressable service.
//!
//! The validation argument of the source paper rests on Monte-Carlo
//! campaigns large enough to bound rare NMAC rates; one process is not
//! where such campaigns end. This crate turns the in-process seams the
//! workspace already has — [`PairSource`]/[`SplitSource`] job batches
//! and the [`CampaignPlanner`] round loop — into a service:
//!
//! * **Wire protocol** ([`protocol`]): line-delimited JSON messages, one
//!   message per line. Jobs, outcomes, round summaries and campaign
//!   results are the same serde types the rest of the workspace uses, so
//!   the PR-4 undefined-estimate mappings (`NaN`/`∞` → `null`) hold on
//!   the wire too.
//! * **Transports** ([`transport`]): one [`Transport`] trait with an
//!   in-process channel implementation and a std-TCP implementation —
//!   no external dependencies, consistent with `crates/support`.
//! * **Shard workers** ([`shard`]): each shard hosts a
//!   [`BatchRunner`](uavca_validation::BatchRunner) and serves indexed
//!   job batches; the coordinator-side [`ShardedBackend`] satisfies the
//!   same [`PairSource`]/[`SplitSource`] contracts as `BatchRunner`, so
//!   a [`CampaignPlanner`] drives a shard fleet exactly as it drives a
//!   local worker pool.
//! * **Service** ([`server`], [`client`]): a [`CampaignServer`] whose
//!   readiness loop multiplexes many client sessions over one shared
//!   shard fleet, and the [`CampaignClient`] that drives it.
//! * **Control plane** ([`control`]): the campaign lifecycle API —
//!   [`Create`](protocol::Request::Create) (optionally from a
//!   [`Checkpoint`]) / `Status` / `Stream` / `Pause` / `Resume` /
//!   `Cancel` — over a fair-share quantum dispatcher
//!   ([`ControlPlane`]), with a supervisor that restarts faulted
//!   campaigns from their checkpoints and an [`EventLog`] recording
//!   the session and campaign incidents the old blocking server
//!   silently swallowed. Checkpoints are tiny and exact: by the seed
//!   rule below, (config, round index, merged tallies) is a campaign's
//!   full state, so kill-and-resume is byte-identical to never having
//!   stopped.
//!
//! # Bit-identity
//!
//! The service is held to the strongest oracle available: a campaign run
//! through N shards must produce a [`StratifiedEstimate`] **byte-identical**
//! (serialized form compared) to `CampaignPlanner::run` in one process —
//! for any shard count, any shard scheduling order, and across mid-round
//! shard loss. The guarantee composes from three facts:
//!
//! 1. every job's seed derives from `(campaign_seed, stratum, round,
//!    index)` — never from where or when it runs;
//! 2. outcomes are pure functions of their job, and the coordinator
//!    merges them **by job index**, so requeued jobs land in the same
//!    slot with the same bits;
//! 3. per-stratum tallies are integer counts merged by addition
//!    ([`PairTable::merge`](uavca_validation::PairTable::merge)), which
//!    is partition-independent.
//!
//! Faults therefore affect only *bookkeeping* ([`ShardFault`], the
//! [`ShardUsage`](uavca_validation::ShardUsage) table), never the
//! estimate. Enforced by `crates/core/tests/campaign_determinism.rs`
//! (shard × thread matrix) and this crate's fault-injection tests.
//!
//! [`PairSource`]: uavca_validation::PairSource
//! [`SplitSource`]: uavca_validation::SplitSource
//! [`CampaignPlanner`]: uavca_validation::CampaignPlanner
//! [`StratifiedEstimate`]: uavca_validation::StratifiedEstimate

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod client;
pub mod control;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod transport;

pub use client::{spawn_in_process, CampaignClient, InProcessServer};
pub use control::{
    CampaignBackend, CampaignId, CampaignNotice, CampaignResult, CampaignSpec, CampaignState,
    CampaignStatus, Checkpoint, ControlEvent, ControlPlane, EventLog, RoundEvent,
};
pub use protocol::{
    decode, encode, read_frame, write_frame, CampaignRequest, Event, IndexedMultiJob,
    IndexedPairedJob, IndexedSplitJob, Request, ShardEvent, ShardRequest, SplitCampaignRequest,
};
pub use server::{CampaignServer, SessionEnd};
pub use shard::{serve_shard, serve_shard_tcp, ShardFault, ShardedBackend};
pub use transport::{
    channel_pair, recv_msg, send_msg, ChannelTransport, RecvOutcome, TcpTransport, Transport,
    TransportError,
};

/// Any failure of the service stack: transport breakdowns, undecodable
/// messages, server-side errors, or a shard fleet that lost every
/// member with work outstanding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// A received line failed to decode into the expected message type.
    Protocol(String),
    /// The peer closed the connection while a reply was still expected.
    ConnectionClosed,
    /// The server reported an error: a rejected campaign spec or
    /// checkpoint, an unknown campaign, or an execution failure.
    Server(String),
    /// A syntactically valid message arrived that is wrong for the
    /// current protocol state (e.g. a status reply to a create request).
    Unexpected(String),
    /// Every shard was lost while `outstanding` jobs still had no
    /// result; the batch cannot complete.
    AllShardsLost {
        /// Jobs with no merged outcome when the last shard died.
        outstanding: usize,
    },
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Transport(e) => write!(f, "transport error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::ConnectionClosed => {
                write!(f, "connection closed while a reply was still expected")
            }
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Unexpected(msg) => write!(f, "unexpected message: {msg}"),
            ServeError::AllShardsLost { outstanding } => write!(
                f,
                "every shard was lost with {outstanding} jobs outstanding"
            ),
        }
    }
}

impl std::error::Error for ServeError {}
