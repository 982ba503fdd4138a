//! The campaign control plane: many concurrent campaigns over one
//! shared shard fleet.
//!
//! [`ControlPlane`] owns a set of campaigns — paired stratified
//! ([`uavca_validation::CampaignPlanner`]) or multilevel-splitting
//! ([`uavca_validation::SplitPlanner`]) — and advances them one
//! *quantum* at a time through a [`CampaignBackend`]. Each call to
//! [`ControlPlane::tick`] picks the runnable campaign with the least
//! accumulated cost (fair share), dispatches the next slice of its
//! current round, and completes the round when every outcome is back.
//!
//! Determinism is the whole design: a round's jobs are a pure function
//! of `(config, round index, merged tallies)` via the campaign seed
//! rule, outcomes are pure functions of jobs, and rounds are absorbed
//! in job order. Slicing a round into quanta, interleaving campaigns,
//! or killing and resuming a campaign from a [`Checkpoint`] therefore
//! cannot change a single bit of any estimate — the concurrent service
//! is byte-identical to running each campaign serially, which the
//! control-plane test battery and the `multi_campaign` example enforce.
//!
//! Failure handling is supervisor-style: when the backend reports a
//! typed fault (e.g. [`ServeError::AllShardsLost`]) the campaign is
//! marked failed with the *typed* message preserved, and — if created
//! supervised — restarted from its last checkpoint on the next tick,
//! up to a restart budget. The restart path really does round-trip
//! through [`Checkpoint`] so crash recovery exercises the same code as
//! an operator resume.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};
use uavca_encounter::Stratification;
use uavca_validation::{
    CampaignCheckpoint, CampaignOutcome, CampaignPlanner, CampaignStepper, EncounterRunner,
    PairedJob, PairedOutcome, PlannedRound, RoundSummary, SplitCampaignOutcome, SplitCheckpoint,
    SplitJob, SplitOutcome, SplitPlanner, SplitRoundSummary, SplitStepper,
};

use crate::protocol::{CampaignRequest, SplitCampaignRequest};
use crate::{ServeError, ShardedBackend};

/// Paired jobs dispatched per scheduling quantum. Small enough that
/// three interleaved campaigns visibly share the fleet within a round,
/// large enough to amortize one coordinator round-trip per slice.
pub const PAIR_QUANTUM: usize = 32;

/// Splitting roots dispatched per quantum — fewer, because each root
/// fans out into a branch tree worth many plain simulations.
pub const SPLIT_QUANTUM: usize = 8;

/// Nominal fair-share cost of one paired job (two simulations).
const PAIR_COST: u64 = 2;

/// Nominal fair-share cost of one splitting root (a branch tree).
const SPLIT_COST: u64 = 16;

/// Most recent control events retained before the oldest are dropped.
const EVENT_LOG_CAP: usize = 4096;

/// Identifier of one campaign within a [`ControlPlane`] (and over the
/// wire, within one server). Dense and monotonically assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign-{}", self.0)
    }
}

impl Serialize for CampaignId {
    fn serialize(&self) -> Value {
        self.0.serialize()
    }
}

impl Deserialize for CampaignId {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(CampaignId(u64::deserialize(v)?))
    }
}

/// What kind of campaign to run — the create-time specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignSpec {
    /// A paired stratified campaign (adaptive Neyman reallocation, or
    /// uniform when `request.uniform` is set).
    Paired {
        /// The campaign request: model, stratification, schedule and
        /// allocation mode.
        request: CampaignRequest,
    },
    /// A multilevel-splitting rare-event campaign.
    Splitting {
        /// The splitting campaign request.
        request: SplitCampaignRequest,
    },
}

/// An exact, tiny snapshot of a campaign between rounds.
///
/// Thanks to the deterministic seed rule this is a campaign's *full*
/// state: resuming from it and replaying is byte-identical to never
/// having stopped (property-tested in `core/tests/checkpoint_resume.rs`
/// and end-to-end in `tests/control_plane.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Checkpoint {
    /// Snapshot of a paired stratified campaign.
    Paired {
        /// The planner-level checkpoint.
        checkpoint: CampaignCheckpoint,
    },
    /// Snapshot of a multilevel-splitting campaign.
    Splitting {
        /// The planner-level checkpoint.
        checkpoint: SplitCheckpoint,
    },
}

/// Terminal result of a finished campaign, either family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignResult {
    /// Outcome of a paired stratified campaign.
    Paired {
        /// The full campaign outcome.
        outcome: CampaignOutcome,
    },
    /// Outcome of a multilevel-splitting campaign.
    Splitting {
        /// The full splitting campaign outcome.
        outcome: SplitCampaignOutcome,
    },
}

/// One completed round of either campaign family, as streamed to
/// subscribed clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoundEvent {
    /// A paired campaign round.
    Paired {
        /// The round summary.
        summary: RoundSummary,
    },
    /// A splitting campaign round.
    Splitting {
        /// The round summary.
        summary: SplitRoundSummary,
    },
}

/// Lifecycle state of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignState {
    /// Eligible for dispatch.
    Running,
    /// Held by an operator; keeps its in-flight partial round.
    Paused,
    /// The backend faulted. Supervised campaigns with restart budget
    /// left are revived from their checkpoint on the next tick.
    Failed,
    /// Reached its target or round budget; result available.
    Finished,
    /// Cancelled by an operator; final checkpoint available.
    Cancelled,
}

impl fmt::Display for CampaignState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CampaignState::Running => "running",
            CampaignState::Paused => "paused",
            CampaignState::Failed => "failed",
            CampaignState::Finished => "finished",
            CampaignState::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// A point-in-time status report for one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// The campaign.
    pub id: CampaignId,
    /// Current lifecycle state.
    pub state: CampaignState,
    /// Rounds fully completed so far.
    pub rounds_completed: usize,
    /// Paired runs or splitting roots absorbed so far.
    pub jobs_done: usize,
    /// Supervisor restarts consumed so far.
    pub restarts: usize,
    /// Last backend fault, if the campaign ever failed.
    pub last_error: Option<String>,
    /// Exact resume point at the last completed round.
    pub checkpoint: Checkpoint,
}

/// One entry in the control-plane event log — the diagnosable record
/// of session-level and campaign-level incidents that the old blocking
/// server silently swallowed.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A session connected (or was handed to the server).
    SessionOpened {
        /// Server-local session number.
        session: u64,
    },
    /// A session closed cleanly.
    SessionClosed {
        /// Server-local session number.
        session: u64,
    },
    /// A session died with a transport or protocol error.
    SessionError {
        /// Server-local session number.
        session: u64,
        /// What went wrong.
        error: String,
    },
    /// An accepted TCP client never became a session.
    HandshakeFailed {
        /// What went wrong.
        error: String,
    },
    /// A campaign was created.
    CampaignCreated {
        /// The campaign.
        id: CampaignId,
    },
    /// A campaign reached its target or budget.
    CampaignFinished {
        /// The campaign.
        id: CampaignId,
    },
    /// The backend faulted while running a campaign. The message
    /// preserves the typed fault (e.g. "every shard was lost …").
    CampaignFailed {
        /// The campaign.
        id: CampaignId,
        /// The typed fault detail.
        error: String,
    },
    /// The supervisor revived a failed campaign from its checkpoint.
    CampaignRestarted {
        /// The campaign.
        id: CampaignId,
        /// Which restart this is (1-based).
        attempt: usize,
    },
    /// An operator paused a campaign.
    CampaignPaused {
        /// The campaign.
        id: CampaignId,
    },
    /// An operator resumed a campaign.
    CampaignResumed {
        /// The campaign.
        id: CampaignId,
    },
    /// An operator cancelled a campaign.
    CampaignCancelled {
        /// The campaign.
        id: CampaignId,
    },
}

impl fmt::Display for ControlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlEvent::SessionOpened { session } => write!(f, "session {session}: opened"),
            ControlEvent::SessionClosed { session } => write!(f, "session {session}: closed"),
            ControlEvent::SessionError { session, error } => {
                write!(f, "session {session}: error: {error}")
            }
            ControlEvent::HandshakeFailed { error } => write!(f, "handshake failed: {error}"),
            ControlEvent::CampaignCreated { id } => write!(f, "{id}: created"),
            ControlEvent::CampaignFinished { id } => write!(f, "{id}: finished"),
            ControlEvent::CampaignFailed { id, error } => write!(f, "{id}: failed: {error}"),
            ControlEvent::CampaignRestarted { id, attempt } => {
                write!(f, "{id}: restarted from checkpoint (attempt {attempt})")
            }
            ControlEvent::CampaignPaused { id } => write!(f, "{id}: paused"),
            ControlEvent::CampaignResumed { id } => write!(f, "{id}: resumed"),
            ControlEvent::CampaignCancelled { id } => write!(f, "{id}: cancelled"),
        }
    }
}

/// A shared, bounded, append-only log of [`ControlEvent`]s.
///
/// Clone handles freely — all clones view the same log. The server
/// records into it from its readiness loop; tests and operators drain
/// it to diagnose misbehaving clients and supervisor activity.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    inner: Arc<Mutex<Vec<ControlEvent>>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event, dropping the oldest past the retention cap.
    pub fn record(&self, event: ControlEvent) {
        // audit: allow(panic_policy, event log lock poisoning propagates a prior panic)
        let mut log = self.inner.lock().expect("event log poisoned");
        if log.len() >= EVENT_LOG_CAP {
            log.remove(0);
        }
        log.push(event);
    }

    /// Removes and returns every retained event, oldest first.
    pub fn drain(&self) -> Vec<ControlEvent> {
        // audit: allow(panic_policy, event log lock poisoning propagates a prior panic)
        let mut log = self.inner.lock().expect("event log poisoned");
        std::mem::take(&mut *log)
    }

    /// Returns a copy of every retained event without clearing the log.
    pub fn snapshot(&self) -> Vec<ControlEvent> {
        // audit: allow(panic_policy, event log lock poisoning propagates a prior panic)
        self.inner.lock().expect("event log poisoned").clone()
    }
}

/// Anything that can run campaign jobs *fallibly* for the control
/// plane: the sharded fleet in production, or a rigged backend in
/// supervisor-restart tests.
///
/// Errors are typed ([`ServeError`]), never panics — this is what lets
/// the control plane carry fault detail like
/// [`ServeError::AllShardsLost`] into the event log and wire events
/// instead of a generic "campaign execution panicked" string.
pub trait CampaignBackend: Send + Sync {
    /// Runs paired jobs, returning outcomes in job order.
    fn run_pair_jobs(&self, jobs: &[PairedJob]) -> Result<Vec<PairedOutcome>, ServeError>;
    /// Runs splitting roots, returning outcomes in job order.
    fn run_split_jobs(&self, jobs: &[SplitJob]) -> Result<Vec<SplitOutcome>, ServeError>;
}

impl CampaignBackend for ShardedBackend {
    fn run_pair_jobs(&self, jobs: &[PairedJob]) -> Result<Vec<PairedOutcome>, ServeError> {
        self.try_run_pairs(jobs)
    }

    fn run_split_jobs(&self, jobs: &[SplitJob]) -> Result<Vec<SplitOutcome>, ServeError> {
        self.try_run_splits(jobs)
    }
}

/// What [`ControlPlane::tick`] reports back to the caller (the server
/// fans these out to streaming sessions).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignNotice {
    /// A campaign completed a round.
    Round {
        /// The campaign.
        id: CampaignId,
        /// The completed round.
        round: RoundEvent,
    },
    /// A campaign finished.
    Finished {
        /// The campaign.
        id: CampaignId,
        /// Its terminal result.
        result: CampaignResult,
    },
    /// A campaign failed terminally (restart budget exhausted, or
    /// unsupervised).
    Failed {
        /// The campaign.
        id: CampaignId,
        /// The typed fault detail.
        error: String,
    },
    /// The supervisor restarted a campaign from its checkpoint.
    Restarted {
        /// The campaign.
        id: CampaignId,
        /// Which restart this is (1-based).
        attempt: usize,
    },
}

/// Either campaign family's stepper, erased behind one dispatch point.
enum Engine {
    Paired(Box<CampaignStepper>),
    Splitting(Box<SplitStepper>),
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Paired(_) => f.write_str("Engine::Paired"),
            Engine::Splitting(_) => f.write_str("Engine::Splitting"),
        }
    }
}

/// A round in flight: the immutable plan plus the outcomes collected
/// so far (the cursor is `outcomes.len()`).
#[derive(Debug)]
enum Inflight {
    Paired {
        planned: PlannedRound<PairedJob>,
        outcomes: Vec<PairedOutcome>,
    },
    Splitting {
        planned: PlannedRound<SplitJob>,
        outcomes: Vec<SplitOutcome>,
    },
}

/// One managed campaign.
#[derive(Debug)]
struct Campaign {
    id: CampaignId,
    spec: CampaignSpec,
    engine: Engine,
    state: CampaignState,
    inflight: Option<Inflight>,
    /// Nominal work dispatched so far — the fair-share key.
    cost: u64,
    restarts: usize,
    supervised: bool,
    last_error: Option<String>,
    result: Option<CampaignResult>,
}

/// The multiplexing coordinator: owns every campaign, advances them
/// fairly over one shared backend, and supervises failures.
pub struct ControlPlane {
    runner: EncounterRunner,
    backend: Arc<dyn CampaignBackend>,
    log: EventLog,
    campaigns: BTreeMap<u64, Campaign>,
    next_id: u64,
    max_restarts: usize,
}

impl fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPlane")
            .field("campaigns", &self.campaigns.len())
            .field("next_id", &self.next_id)
            .field("max_restarts", &self.max_restarts)
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// Creates a control plane over `backend`, with a fresh event log
    /// and the default restart budget of 3.
    pub fn new(runner: EncounterRunner, backend: Arc<dyn CampaignBackend>) -> Self {
        ControlPlane {
            runner,
            backend,
            log: EventLog::new(),
            campaigns: BTreeMap::new(),
            next_id: 0,
            max_restarts: 3,
        }
    }

    /// Shares `log` instead of the plane's own (the server passes its
    /// log so session and campaign events interleave in one record).
    pub fn with_log(mut self, log: EventLog) -> Self {
        self.log = log;
        self
    }

    /// Overrides the per-campaign supervisor restart budget.
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// A handle to the event log.
    pub fn log(&self) -> EventLog {
        self.log.clone()
    }

    /// Creates a campaign from `spec`, optionally resuming from a
    /// checkpoint. `supervised` campaigns are restarted from their
    /// checkpoint on backend faults; unsupervised ones fail fast.
    pub fn create(
        &mut self,
        spec: CampaignSpec,
        from: Option<&Checkpoint>,
        supervised: bool,
    ) -> Result<CampaignId, String> {
        let engine = Self::build_engine(&self.runner, &spec, from)?;
        let id = CampaignId(self.next_id);
        self.next_id += 1;
        let finished = match &engine {
            Engine::Paired(s) => s.is_finished(),
            Engine::Splitting(s) => s.is_finished(),
        };
        let mut campaign = Campaign {
            id,
            spec,
            engine,
            state: CampaignState::Running,
            inflight: None,
            cost: 0,
            restarts: 0,
            supervised,
            last_error: None,
            result: None,
        };
        // A checkpoint of an already-finished campaign creates it in
        // its terminal state so Status/Stream answer immediately.
        if finished {
            campaign.state = CampaignState::Finished;
            campaign.result = Some(Self::engine_result(&campaign.engine));
        }
        self.log.record(ControlEvent::CampaignCreated { id });
        self.campaigns.insert(id.0, campaign);
        Ok(id)
    }

    fn build_engine(
        runner: &EncounterRunner,
        spec: &CampaignSpec,
        from: Option<&Checkpoint>,
    ) -> Result<Engine, String> {
        let cpa_bins = match spec {
            CampaignSpec::Paired { request } => request.cpa_bins,
            CampaignSpec::Splitting { request } => request.cpa_bins,
        };
        if cpa_bins == 0 {
            return Err(String::from(
                "campaign spec: cpa_bins must be at least 1 (a stratification needs a CPA band)",
            ));
        }
        match spec {
            CampaignSpec::Paired { request } => {
                let planner = CampaignPlanner::new(runner.clone(), request.config)
                    .model(request.model)
                    .stratification(Stratification::new(request.cpa_bins));
                let stepper = match from {
                    None if request.uniform => {
                        planner.uniform_stepper().map_err(|e| e.to_string())?
                    }
                    None => planner.stepper().map_err(|e| e.to_string())?,
                    Some(Checkpoint::Paired { checkpoint }) => {
                        if checkpoint.adaptive == request.uniform {
                            return Err(String::from(
                                "checkpoint allocation mode does not match the request",
                            ));
                        }
                        planner.resume(checkpoint).map_err(|e| e.to_string())?
                    }
                    Some(Checkpoint::Splitting { .. }) => {
                        return Err(String::from(
                            "cannot resume a paired campaign from a splitting checkpoint",
                        ));
                    }
                };
                Ok(Engine::Paired(Box::new(stepper)))
            }
            CampaignSpec::Splitting { request } => {
                let planner = SplitPlanner::new(runner.clone(), request.config)
                    .model(request.model)
                    .stratification(Stratification::new(request.cpa_bins));
                let stepper = match from {
                    None => planner.stepper().map_err(|e| e.to_string())?,
                    Some(Checkpoint::Splitting { checkpoint }) => {
                        planner.resume(checkpoint).map_err(|e| e.to_string())?
                    }
                    Some(Checkpoint::Paired { .. }) => {
                        return Err(String::from(
                            "cannot resume a splitting campaign from a paired checkpoint",
                        ));
                    }
                };
                Ok(Engine::Splitting(Box::new(stepper)))
            }
        }
    }

    fn engine_checkpoint(engine: &Engine) -> Checkpoint {
        match engine {
            Engine::Paired(s) => Checkpoint::Paired {
                checkpoint: s.checkpoint(),
            },
            Engine::Splitting(s) => Checkpoint::Splitting {
                checkpoint: s.checkpoint(),
            },
        }
    }

    fn engine_result(engine: &Engine) -> CampaignResult {
        match engine {
            Engine::Paired(s) => CampaignResult::Paired {
                outcome: s.outcome(),
            },
            Engine::Splitting(s) => CampaignResult::Splitting {
                outcome: s.outcome(),
            },
        }
    }

    /// Current status of `id`, if known.
    pub fn status(&self, id: CampaignId) -> Option<CampaignStatus> {
        let c = self.campaigns.get(&id.0)?;
        let (rounds_completed, jobs_done) = match &c.engine {
            Engine::Paired(s) => (s.rounds().len(), s.total_runs()),
            Engine::Splitting(s) => (s.rounds().len(), s.total_runs()),
        };
        Some(CampaignStatus {
            id,
            state: c.state,
            rounds_completed,
            jobs_done,
            restarts: c.restarts,
            last_error: c.last_error.clone(),
            checkpoint: Self::engine_checkpoint(&c.engine),
        })
    }

    /// Completed rounds of `id` so far, for stream replay.
    pub fn rounds(&self, id: CampaignId) -> Option<Vec<RoundEvent>> {
        let c = self.campaigns.get(&id.0)?;
        Some(match &c.engine {
            Engine::Paired(s) => s
                .rounds()
                .iter()
                .map(|summary| RoundEvent::Paired {
                    summary: summary.clone(),
                })
                .collect(),
            Engine::Splitting(s) => s
                .rounds()
                .iter()
                .map(|summary| RoundEvent::Splitting {
                    summary: summary.clone(),
                })
                .collect(),
        })
    }

    /// Terminal result of `id`, if it finished.
    pub fn result(&self, id: CampaignId) -> Option<&CampaignResult> {
        self.campaigns.get(&id.0)?.result.as_ref()
    }

    /// Last recorded fault of `id`, if it ever failed.
    pub fn last_error(&self, id: CampaignId) -> Option<String> {
        self.campaigns.get(&id.0)?.last_error.clone()
    }

    /// Holds a running campaign. Its in-flight partial round is kept.
    pub fn pause(&mut self, id: CampaignId) -> Result<(), String> {
        let c = Self::known(&mut self.campaigns, id)?;
        match c.state {
            CampaignState::Running => {
                c.state = CampaignState::Paused;
                self.log.record(ControlEvent::CampaignPaused { id });
                Ok(())
            }
            other => Err(format!("{id} is {other}, not running")),
        }
    }

    /// Releases a paused campaign, or manually revives a failed one
    /// (dropping its partial round — it replans from the checkpoint).
    pub fn resume(&mut self, id: CampaignId) -> Result<(), String> {
        let c = Self::known(&mut self.campaigns, id)?;
        match c.state {
            CampaignState::Paused => {
                c.state = CampaignState::Running;
                self.log.record(ControlEvent::CampaignResumed { id });
                Ok(())
            }
            CampaignState::Failed => {
                c.state = CampaignState::Running;
                c.inflight = None;
                self.log.record(ControlEvent::CampaignResumed { id });
                Ok(())
            }
            other => Err(format!("{id} is {other}, cannot resume")),
        }
    }

    /// Cancels a live campaign, returning its exact resume point. The
    /// entry stays queryable in its `Cancelled` state.
    pub fn cancel(&mut self, id: CampaignId) -> Result<Checkpoint, String> {
        let c = Self::known(&mut self.campaigns, id)?;
        match c.state {
            CampaignState::Finished | CampaignState::Cancelled => {
                Err(format!("{id} is already {}", c.state))
            }
            _ => {
                c.state = CampaignState::Cancelled;
                c.inflight = None;
                self.log.record(ControlEvent::CampaignCancelled { id });
                Ok(Self::engine_checkpoint(&c.engine))
            }
        }
    }

    fn known(
        campaigns: &mut BTreeMap<u64, Campaign>,
        id: CampaignId,
    ) -> Result<&mut Campaign, String> {
        campaigns.get_mut(&id.0).ok_or(format!("unknown {id}"))
    }

    /// Whether a failed campaign is about to be revived by the
    /// supervisor (as opposed to terminally failed).
    pub fn restart_pending(&self, id: CampaignId) -> bool {
        self.campaigns.get(&id.0).is_some_and(|c| {
            c.state == CampaignState::Failed && c.supervised && c.restarts < self.max_restarts
        })
    }

    /// Whether any campaign is eligible for dispatch (running, or
    /// failed-but-restartable).
    pub fn has_runnable(&self) -> bool {
        self.campaigns.values().any(|c| {
            c.state == CampaignState::Running
                || (c.state == CampaignState::Failed
                    && c.supervised
                    && c.restarts < self.max_restarts)
        })
    }

    /// Advances the plane one step: revives restartable failures, then
    /// dispatches one quantum for the least-served running campaign.
    ///
    /// Returns the notices produced (completed rounds, terminal
    /// results, failures, restarts) for the server to fan out.
    pub fn tick(&mut self) -> Vec<CampaignNotice> {
        let mut notices = Vec::new();
        self.supervise(&mut notices);
        let Some(id) = self.pick_runnable() else {
            return notices;
        };
        self.dispatch_quantum(id, &mut notices);
        notices
    }

    /// The supervisor pass: revive failed, supervised campaigns with
    /// restart budget left, rebuilding their engine from the
    /// checkpoint (the same path an operator resume takes).
    fn supervise(&mut self, notices: &mut Vec<CampaignNotice>) {
        let runner = self.runner.clone();
        for c in self.campaigns.values_mut() {
            if c.state != CampaignState::Failed || !c.supervised || c.restarts >= self.max_restarts
            {
                continue;
            }
            c.restarts += 1;
            c.inflight = None;
            let checkpoint = Self::engine_checkpoint(&c.engine);
            c.engine = Self::build_engine(&runner, &c.spec, Some(&checkpoint))
                // audit: allow(panic_policy, a checkpoint taken from a live engine always resumes)
                .expect("a checkpoint taken from a live engine must resume");
            c.state = CampaignState::Running;
            self.log.record(ControlEvent::CampaignRestarted {
                id: c.id,
                attempt: c.restarts,
            });
            notices.push(CampaignNotice::Restarted {
                id: c.id,
                attempt: c.restarts,
            });
        }
    }

    /// Fair share: the running campaign with the least accumulated
    /// nominal cost (creation order breaks ties via the BTreeMap).
    fn pick_runnable(&self) -> Option<CampaignId> {
        self.campaigns
            .values()
            .filter(|c| c.state == CampaignState::Running)
            .min_by_key(|c| (c.cost, c.id.0))
            .map(|c| c.id)
    }

    /// Plans the campaign's next round if none is in flight, runs one
    /// quantum of it on the backend, and completes the round when the
    /// last outcome lands.
    fn dispatch_quantum(&mut self, id: CampaignId, notices: &mut Vec<CampaignNotice>) {
        let c = self
            .campaigns
            .get_mut(&id.0)
            // audit: allow(panic_policy, the scheduler only picks ids present in the map)
            .expect("picked campaign exists");
        if c.inflight.is_none() {
            let planned = match &mut c.engine {
                Engine::Paired(s) => s.plan_round().map(|planned| Inflight::Paired {
                    planned,
                    outcomes: Vec::new(),
                }),
                Engine::Splitting(s) => s.plan_round().map(|planned| Inflight::Splitting {
                    planned,
                    outcomes: Vec::new(),
                }),
            };
            match planned {
                Some(inflight) => c.inflight = Some(inflight),
                None => {
                    // Nothing left to plan: the campaign is finished.
                    c.state = CampaignState::Finished;
                    let result = Self::engine_result(&c.engine);
                    c.result = Some(result.clone());
                    self.log.record(ControlEvent::CampaignFinished { id });
                    notices.push(CampaignNotice::Finished { id, result });
                    return;
                }
            }
        }
        // audit: allow(panic_policy, inflight was set by the plan step immediately above)
        let mut inflight = c.inflight.take().expect("round planned above");
        let step = match &mut inflight {
            Inflight::Paired { planned, outcomes } => {
                let end = (outcomes.len() + PAIR_QUANTUM).min(planned.jobs.len());
                let slice = &planned.jobs[outcomes.len()..end];
                let cost = slice.len() as u64 * PAIR_COST;
                match self.backend.run_pair_jobs(slice) {
                    Ok(mut got) => {
                        outcomes.append(&mut got);
                        Ok((cost, outcomes.len() == planned.jobs.len()))
                    }
                    Err(e) => Err(e),
                }
            }
            Inflight::Splitting { planned, outcomes } => {
                let end = (outcomes.len() + SPLIT_QUANTUM).min(planned.jobs.len());
                let slice = &planned.jobs[outcomes.len()..end];
                let cost = slice.len() as u64 * SPLIT_COST;
                match self.backend.run_split_jobs(slice) {
                    Ok(mut got) => {
                        outcomes.append(&mut got);
                        Ok((cost, outcomes.len() == planned.jobs.len()))
                    }
                    Err(e) => Err(e),
                }
            }
        };
        match step {
            Ok((cost, round_complete)) => {
                c.cost += cost;
                if !round_complete {
                    c.inflight = Some(inflight);
                    return;
                }
                let round = match (inflight, &mut c.engine) {
                    (Inflight::Paired { planned, outcomes }, Engine::Paired(s)) => {
                        RoundEvent::Paired {
                            summary: s.complete_round(&planned, &outcomes),
                        }
                    }
                    (Inflight::Splitting { planned, outcomes }, Engine::Splitting(s)) => {
                        RoundEvent::Splitting {
                            summary: s.complete_round(&planned, &outcomes),
                        }
                    }
                    // audit: allow(panic_policy, the inflight family was built from this engine family)
                    _ => unreachable!("in-flight round family matches the engine family"),
                };
                notices.push(CampaignNotice::Round { id, round });
                let finished = match &c.engine {
                    Engine::Paired(s) => s.is_finished(),
                    Engine::Splitting(s) => s.is_finished(),
                };
                if finished {
                    c.state = CampaignState::Finished;
                    let result = Self::engine_result(&c.engine);
                    c.result = Some(result.clone());
                    self.log.record(ControlEvent::CampaignFinished { id });
                    notices.push(CampaignNotice::Finished { id, result });
                }
            }
            Err(e) => {
                let error = e.to_string();
                c.state = CampaignState::Failed;
                c.last_error = Some(error.clone());
                // The partial round is dropped: a restart replans it
                // from the checkpoint, which regenerates the identical
                // jobs — determinism makes retry exact.
                c.inflight = None;
                self.log.record(ControlEvent::CampaignFailed {
                    id,
                    error: error.clone(),
                });
                let terminal = !c.supervised || c.restarts >= self.max_restarts;
                if terminal {
                    notices.push(CampaignNotice::Failed { id, error });
                }
            }
        }
    }
}
