//! The wire protocol: every message exchanged by the campaign service,
//! plus the line-delimited JSON framing they travel in.
//!
//! # Framing
//!
//! One message per line: a message is its serde JSON rendering followed
//! by `\n`. The workspace's JSON writer never emits a raw newline (it is
//! escaped inside strings and absent everywhere else), so the framing is
//! unambiguous and a reader can resynchronize on line boundaries. Floats
//! print via shortest-round-trip formatting, so every finite `f64`
//! crosses the wire bit-exactly — the precondition for the service's
//! bit-identity guarantee. Undefined statistics (`NaN` rates, infinite
//! half-widths, the `target_half_width = ∞` no-early-stop sentinel)
//! serialize as `null` exactly as they do in reports, and deserialize
//! back to their in-memory markers (covered by this crate's proptests).
//!
//! # Message families
//!
//! * [`Request`]/[`Event`] — client ↔ server: the campaign lifecycle
//!   (`Create`, `Status`, `Stream`, `Pause`, `Resume`, `Cancel`),
//!   answered by tagged per-campaign events and streamed rounds.
//! * [`ShardRequest`]/[`ShardEvent`] — coordinator ↔ shard worker:
//!   indexed job batches tagged with a `batch` id, answered by chunk
//!   events that each carry the outcomes of one executed sub-batch. The
//!   `batch` tag is what lets the coordinator reject stale or duplicated
//!   deliveries with a typed fault instead of corrupting a later round's
//!   merge.

use std::io::{BufRead, Write};

use serde::{Deserialize, Serialize};
use uavca_encounter::StatisticalEncounterModel;
use uavca_validation::{
    CampaignConfig, MultiJob, MultiPairedOutcome, PairedJob, PairedOutcome, SplitConfig, SplitJob,
    SplitOutcome,
};

use crate::control::{
    CampaignId, CampaignResult, CampaignSpec, CampaignStatus, Checkpoint, RoundEvent,
};
use crate::ServeError;

/// A full campaign specification as submitted over the wire: the
/// [`CampaignConfig`] plus the statistical model and stratification
/// the server should plan over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignRequest {
    /// The campaign schedule, seed and early-stop target. Its
    /// `threads` field is ignored server-side: parallelism is the
    /// shard fleet's, and the estimate is bit-identical regardless.
    pub config: CampaignConfig,
    /// The statistical encounter model to stratify and sample.
    pub model: StatisticalEncounterModel,
    /// CPA bands per geometry class (the [`uavca_encounter::Stratification`]
    /// resolution).
    pub cpa_bins: usize,
    /// `true` runs the mass-proportional uniform baseline instead of
    /// Neyman reallocation.
    pub uniform: bool,
}

/// A multilevel-splitting campaign specification as submitted over the
/// wire — the splitting twin of [`CampaignRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitCampaignRequest {
    /// The splitting schedule, seed, ladder shape and early-stop
    /// target. Its `threads` field is ignored server-side.
    pub config: SplitConfig,
    /// The statistical encounter model to stratify and sample.
    pub model: StatisticalEncounterModel,
    /// CPA bands per geometry class (the [`uavca_encounter::Stratification`]
    /// resolution).
    pub cpa_bins: usize,
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Create a campaign on the control plane, optionally resuming it
    /// from a checkpoint. Replied to with [`Event::CampaignCreated`].
    Create {
        /// What to run (boxed: the spec dwarfs every other request).
        spec: Box<CampaignSpec>,
        /// Exact resume point from a prior [`Event::CampaignCancelled`]
        /// or [`CampaignStatus::checkpoint`]; `None` starts fresh.
        checkpoint: Option<Checkpoint>,
    },
    /// Ask for a campaign's current status.
    Status {
        /// The campaign.
        id: CampaignId,
    },
    /// Subscribe to a campaign's rounds: the server replays every
    /// completed round as [`Event::CampaignRound`], then streams new
    /// ones until a terminal event.
    Stream {
        /// The campaign.
        id: CampaignId,
    },
    /// Hold a running campaign.
    Pause {
        /// The campaign.
        id: CampaignId,
    },
    /// Release a paused campaign (or manually revive a failed one).
    Resume {
        /// The campaign.
        id: CampaignId,
    },
    /// Cancel a campaign, collecting its exact resume point.
    Cancel {
        /// The campaign.
        id: CampaignId,
    },
    /// Ask the server to acknowledge and stop serving.
    Shutdown,
}

/// A server-to-client event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Reply to [`Request::Create`]: the campaign is registered.
    CampaignCreated {
        /// The new campaign's id, unique within this server.
        id: CampaignId,
    },
    /// Reply to [`Request::Status`].
    CampaignStatus {
        /// The campaign's current status, checkpoint included.
        status: CampaignStatus,
    },
    /// One completed round of a control-plane campaign (replayed on
    /// subscribe, then streamed as rounds complete).
    CampaignRound {
        /// The campaign.
        id: CampaignId,
        /// The completed round.
        round: RoundEvent,
    },
    /// A control-plane campaign finished; terminal for its stream.
    CampaignFinished {
        /// The campaign.
        id: CampaignId,
        /// Its terminal result.
        result: CampaignResult,
    },
    /// A control-plane campaign failed terminally; the message carries
    /// the typed backend fault (e.g. "every shard was lost …").
    CampaignFailed {
        /// The campaign.
        id: CampaignId,
        /// The typed fault detail.
        message: String,
    },
    /// Reply to [`Request::Pause`].
    CampaignPaused {
        /// The campaign.
        id: CampaignId,
    },
    /// Reply to [`Request::Resume`].
    CampaignResumed {
        /// The campaign.
        id: CampaignId,
    },
    /// Reply to [`Request::Cancel`] (also fanned out to subscribed
    /// streams): the campaign stopped at an exact resume point.
    CampaignCancelled {
        /// The campaign.
        id: CampaignId,
        /// The checkpoint a later [`Request::Create`] can resume from.
        checkpoint: Checkpoint,
    },
    /// Request execution failed server-side.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// The server acknowledges [`Request::Shutdown`] and will close.
    ShutdownAck,
}

/// A [`PairedJob`] tagged with its index in the submitted batch, so
/// results can be merged by position whatever shard ran them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexedPairedJob {
    /// Position of this job in the coordinator's batch.
    pub index: usize,
    /// The job itself.
    pub job: PairedJob,
}

/// A [`SplitJob`] tagged with its index in the submitted batch. Not
/// `Copy` (the job carries its severity ladder and branch schedule), but
/// cheap to clone relative to simulating a branch tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexedSplitJob {
    /// Position of this job in the coordinator's batch.
    pub index: usize,
    /// The job itself.
    pub job: SplitJob,
}

/// A [`MultiJob`] tagged with its index in the submitted batch. Not
/// `Copy` (the job carries its per-aircraft parameter vector), but cheap
/// to clone relative to flying a k-aircraft pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexedMultiJob {
    /// Position of this job in the coordinator's batch.
    pub index: usize,
    /// The job itself.
    pub job: MultiJob,
}

/// A coordinator-to-shard request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardRequest {
    /// Run the indexed paired jobs, answering
    /// [`ShardEvent::PairedChunk`] events.
    RunPaired {
        /// The coordinator's batch id; echoed in every reply.
        batch: u64,
        /// The shard's slice of the batch.
        jobs: Vec<IndexedPairedJob>,
    },
    /// Run the indexed multilevel-splitting jobs, answering
    /// [`ShardEvent::SplitChunk`] events. Each job is a pure function of
    /// its fields (the branch-seed rule rides in the job), so splitting
    /// batches shard exactly like plain pairs.
    RunSplits {
        /// The coordinator's batch id; echoed in every reply.
        batch: u64,
        /// The shard's slice of the batch.
        jobs: Vec<IndexedSplitJob>,
    },
    /// Run the indexed k-aircraft jobs, answering
    /// [`ShardEvent::MultiChunk`] events. Each job is a pure function of
    /// its fields (params, seed, equipage mode), so multi-aircraft
    /// batches shard exactly like plain pairs.
    RunMultis {
        /// The coordinator's batch id; echoed in every reply.
        batch: u64,
        /// The shard's slice of the batch.
        jobs: Vec<IndexedMultiJob>,
    },
    /// Stop serving (orderly shard shutdown).
    Shutdown,
}

/// A shard-to-coordinator event: one or more completed jobs.
///
/// Shards flush results per execution sub-batch as a single *chunk*
/// event, one per job family: one framed line per chunk instead of one
/// per job, which divides the per-result framing/serialization overhead
/// by the chunk size. `indices` and `outcomes` are parallel vectors
/// (round-robin partitioning means a shard's indices are not
/// contiguous); a length mismatch is rejected by the coordinator as a
/// malformed event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardEvent {
    /// A sub-batch of paired jobs finished (the per-chunk flush).
    PairedChunk {
        /// The batch id of the request this answers.
        batch: u64,
        /// The jobs' indices in the coordinator's batch, parallel to
        /// `outcomes`.
        indices: Vec<usize>,
        /// Both arms' outcomes, parallel to `indices`.
        outcomes: Vec<PairedOutcome>,
    },
    /// A sub-batch of multilevel-splitting jobs finished.
    SplitChunk {
        /// The batch id of the request this answers.
        batch: u64,
        /// The jobs' indices in the coordinator's batch, parallel to
        /// `outcomes`.
        indices: Vec<usize>,
        /// The roots' outcomes, parallel to `indices`.
        outcomes: Vec<SplitOutcome>,
    },
    /// A sub-batch of k-aircraft paired jobs finished.
    MultiChunk {
        /// The batch id of the request this answers.
        batch: u64,
        /// The jobs' indices in the coordinator's batch, parallel to
        /// `outcomes`.
        indices: Vec<usize>,
        /// Both arms' outcomes, parallel to `indices`.
        outcomes: Vec<MultiPairedOutcome>,
    },
}

/// Encodes a message as one wire line (JSON, no trailing newline).
pub fn encode<T: Serialize>(msg: &T) -> String {
    #[expect(
        clippy::expect_used,
        reason = "the stand-in JSON writer has no fallible path"
    )]
    let line = serde_json::to_string(msg).expect("the stand-in JSON writer is infallible");
    debug_assert!(
        !line.contains('\n'),
        "the JSON writer escapes newlines; a raw one would break framing"
    );
    line
}

/// Decodes one wire line into a message.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] when the line is not valid JSON or
/// does not match `T`'s shape.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, ServeError> {
    serde_json::from_str(line).map_err(|e| ServeError::Protocol(e.to_string()))
}

/// Writes one framed message (line + `\n`) to a byte stream — the same
/// framing writer [`crate::TcpTransport`] uses (one shared
/// implementation, so the two cannot diverge); channel transports move
/// the same lines without the byte layer.
///
/// # Errors
///
/// Returns [`ServeError::Transport`] on I/O failure.
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, msg: &T) -> Result<(), ServeError> {
    crate::transport::write_framed_line(writer, &encode(msg)).map_err(ServeError::Transport)
}

/// Reads one framed message from a buffered byte stream via the same
/// framing reader [`crate::TcpTransport`] uses. `Ok(None)` means the
/// stream ended cleanly on a frame boundary.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on malformed frames,
/// [`ServeError::Transport`] on I/O failure, and
/// [`ServeError::ConnectionClosed`] on EOF inside a frame.
pub fn read_frame<R: BufRead, T: Deserialize>(reader: &mut R) -> Result<Option<T>, ServeError> {
    match crate::transport::read_framed_line(reader) {
        Ok(Some(line)) => decode(&line).map(Some),
        Ok(None) => Ok(None),
        Err(crate::TransportError::Closed) => Err(ServeError::ConnectionClosed),
        Err(e) => Err(ServeError::Transport(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_round_trips_through_framing() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        write_frame(&mut buf, &Event::ShutdownAck).unwrap();
        let mut reader = buf.as_slice();
        let req: Request = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(req, Request::Shutdown);
        let ev: Event = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(ev, Event::ShutdownAck);
        assert!(read_frame::<_, Event>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_a_closed_connection_not_a_parse_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        buf.pop(); // strip the newline: an interrupted send
        let mut reader = buf.as_slice();
        assert_eq!(
            read_frame::<_, Request>(&mut reader).unwrap_err(),
            ServeError::ConnectionClosed
        );
    }

    #[test]
    fn wrong_shape_is_a_typed_protocol_error() {
        let line = encode(&Event::ShutdownAck);
        let err = decode::<ShardEvent>(&line).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        // Request lines of the retired one-shot dialect no longer decode.
        for family in ["Batch", "Paired", "Splits", "Campaign"] {
            let line = format!(r#"{{"Run{family}":{{"jobs":[]}}}}"#);
            let err = decode::<Request>(&line).unwrap_err();
            assert!(matches!(err, ServeError::Protocol(_)), "{line}: {err}");
        }
    }
}
