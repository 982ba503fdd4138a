//! Shard workers and the coordinator-side [`ShardedBackend`].
//!
//! A shard is a worker loop ([`serve_shard`]) hosting a
//! [`BatchRunner`]: it receives indexed job batches, runs them on its
//! local executor in sub-batches, and streams one chunked [`ShardEvent`]
//! back per sub-batch. The coordinator ([`ShardedBackend`]) partitions
//! every batch across its shards, merges results **by job index**,
//! requeues the unfinished jobs of a lost shard onto the survivors, and
//! rejects duplicate or stale deliveries with a typed [`ShardFault`] —
//! all without any effect on the merged results, which are pure
//! functions of the jobs.
//!
//! `ShardedBackend` satisfies the same job-level contracts as
//! `BatchRunner` — [`PairSource`], [`SplitSource`] and [`MultiSource`] —
//! so a `CampaignPlanner` (or any other batch consumer) cannot tell a
//! shard fleet from a local worker pool except by wall clock. The
//! closure-level [`uavca_exec::Backend`] seam is deliberately *not*
//! implemented here: closures do not serialize, so distribution happens
//! at the job level, where jobs and outcomes are plain data.

use std::sync::Mutex;

use uavca_exec::{Backend, Executor};
use uavca_validation::{
    BatchRunner, EncounterRunner, MultiJob, MultiPairedOutcome, MultiSource, PairSource, PairedJob,
    PairedOutcome, ShardUsage, SplitJob, SplitOutcome, SplitSource,
};

use crate::protocol::{
    IndexedMultiJob, IndexedPairedJob, IndexedSplitJob, ShardEvent, ShardRequest,
};
use crate::transport::{recv_msg, send_msg, RecvOutcome, TcpTransport, Transport};
use crate::{channel_pair, ServeError};

/// Jobs per sub-batch a shard runs between result flushes: small enough
/// that a lost shard forfeits little finished work (everything sent
/// before the loss is merged; only unsent jobs are requeued), large
/// enough to amortize the executor's fan-out.
const SHARD_CHUNK: usize = 16;

/// A fault observed and absorbed by the sharded merge layer.
///
/// Faults are bookkeeping, not failures: each one is recorded (see
/// [`ShardedBackend::take_faults`]) and the batch continues, because
/// none of them can change merged results — a duplicate is rejected, a
/// stale delivery is ignored, and a lost shard's unfinished jobs rerun
/// elsewhere with identical seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// A result arrived for a job whose outcome was already merged; the
    /// duplicate was rejected.
    DuplicateResult {
        /// Shard that delivered the duplicate.
        shard: usize,
        /// Batch id the delivery was tagged with.
        batch: u64,
        /// Index of the already-merged job.
        index: usize,
    },
    /// A result arrived for an index outside the current batch.
    UnknownJob {
        /// Shard that delivered it.
        shard: usize,
        /// Batch id the delivery was tagged with.
        batch: u64,
        /// The out-of-range index.
        index: usize,
    },
    /// A result arrived tagged with a previous batch id (a straggler
    /// from before a requeue or a rigged re-delivery); ignored.
    StaleBatch {
        /// Shard that delivered it.
        shard: usize,
        /// The stale batch id.
        batch: u64,
        /// Index the stale delivery carried.
        index: usize,
    },
    /// A delivery that was not a decodable [`ShardEvent`] of the kind
    /// the batch expects; ignored.
    MalformedEvent {
        /// Shard that delivered it.
        shard: usize,
    },
    /// A shard's transport closed with jobs outstanding; they were
    /// requeued onto the surviving shards.
    ShardLost {
        /// The lost shard.
        shard: usize,
        /// Batch id in flight when it died.
        batch: u64,
        /// Jobs requeued away from it.
        requeued: usize,
    },
    /// A shard stayed silent past the coordinator's loss timeout (see
    /// [`ShardedBackend::with_loss_timeout`]) with jobs outstanding; it
    /// was written off and its unfinished jobs requeued onto the
    /// survivors exactly as for [`ShardFault::ShardLost`].
    ShardTimedOut {
        /// The unresponsive shard.
        shard: usize,
        /// Batch id in flight when it went silent.
        batch: u64,
        /// Jobs requeued away from it.
        requeued: usize,
    },
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFault::DuplicateResult {
                shard,
                batch,
                index,
            } => write!(
                f,
                "shard {shard} re-delivered job {index} of batch {batch}; duplicate rejected"
            ),
            ShardFault::UnknownJob {
                shard,
                batch,
                index,
            } => write!(
                f,
                "shard {shard} delivered unknown job {index} for batch {batch}"
            ),
            ShardFault::StaleBatch {
                shard,
                batch,
                index,
            } => write!(
                f,
                "shard {shard} delivered job {index} of stale batch {batch}; ignored"
            ),
            ShardFault::MalformedEvent { shard } => {
                write!(f, "shard {shard} delivered a malformed event; ignored")
            }
            ShardFault::ShardLost {
                shard,
                batch,
                requeued,
            } => write!(
                f,
                "shard {shard} lost during batch {batch}; {requeued} jobs requeued"
            ),
            ShardFault::ShardTimedOut {
                shard,
                batch,
                requeued,
            } => write!(
                f,
                "shard {shard} timed out during batch {batch}; {requeued} jobs requeued"
            ),
        }
    }
}

impl std::error::Error for ShardFault {}

/// The shard worker loop: serves [`ShardRequest`]s until the
/// coordinator shuts it down or disconnects.
///
/// Jobs run in small sub-batches (16 jobs) on the hosted
/// [`BatchRunner`], each sub-batch's results flushed as **one** chunked
/// [`ShardEvent`] before the next starts — one framed line per chunk
/// instead of per job — so a coordinator observing this shard's stream
/// sees progress at chunk granularity and loses at most one unsent chunk
/// if the shard dies.
///
/// # Errors
///
/// Returns [`ServeError`] when a request fails to decode or the
/// transport back to the coordinator fails; an orderly coordinator
/// disconnect returns `Ok(())`.
pub fn serve_shard<B: Backend, T: Transport>(
    mut transport: T,
    batch: BatchRunner<B>,
) -> Result<(), ServeError> {
    loop {
        let Some(request) = recv_msg::<ShardRequest>(&mut transport)? else {
            return Ok(());
        };
        match request {
            ShardRequest::RunPaired { batch: id, jobs } => {
                for chunk in jobs.chunks(SHARD_CHUNK) {
                    let plain: Vec<PairedJob> = chunk.iter().map(|j| j.job).collect();
                    let outcomes = batch.run_paired(&plain);
                    send_msg(
                        &mut transport,
                        &ShardEvent::PairedChunk {
                            batch: id,
                            indices: chunk.iter().map(|j| j.index).collect(),
                            outcomes,
                        },
                    )?;
                }
            }
            ShardRequest::RunSplits { batch: id, jobs } => {
                for chunk in jobs.chunks(SHARD_CHUNK) {
                    let plain: Vec<SplitJob> = chunk.iter().map(|j| j.job.clone()).collect();
                    let outcomes = batch.run_splits(&plain);
                    send_msg(
                        &mut transport,
                        &ShardEvent::SplitChunk {
                            batch: id,
                            indices: chunk.iter().map(|j| j.index).collect(),
                            outcomes,
                        },
                    )?;
                }
            }
            ShardRequest::RunMultis { batch: id, jobs } => {
                for chunk in jobs.chunks(SHARD_CHUNK) {
                    let plain: Vec<MultiJob> = chunk.iter().map(|j| j.job.clone()).collect();
                    let outcomes = batch.run_multis(&plain);
                    send_msg(
                        &mut transport,
                        &ShardEvent::MultiChunk {
                            batch: id,
                            indices: chunk.iter().map(|j| j.index).collect(),
                            outcomes,
                        },
                    )?;
                }
            }
            ShardRequest::Shutdown => return Ok(()),
        }
    }
}

/// Serves one shard over TCP: accepts a single coordinator connection on
/// `listener` and runs [`serve_shard`] on it. The blocking entry point a
/// shard host process calls (see `examples/campaign_server.rs`).
///
/// # Errors
///
/// Returns accept/transport failures as [`ServeError`].
pub fn serve_shard_tcp<B: Backend>(
    listener: std::net::TcpListener,
    batch: BatchRunner<B>,
) -> Result<(), ServeError> {
    let (stream, _) = listener
        .accept()
        .map_err(|e| ServeError::Transport(crate::TransportError::Io(e.to_string())))?;
    let transport = TcpTransport::from_stream(stream)
        .map_err(|e| ServeError::Transport(crate::TransportError::Io(e.to_string())))?;
    serve_shard(transport, batch)
}

/// One shard as the coordinator sees it.
struct ShardSlot {
    transport: Box<dyn Transport>,
    alive: bool,
    usage: ShardUsage,
}

impl std::fmt::Debug for ShardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSlot")
            .field("alive", &self.alive)
            .field("usage", &self.usage)
            .finish_non_exhaustive()
    }
}

/// Coordinator state behind one mutex: batches must be serialized
/// anyway (the wire conversations interleave otherwise), and one lock
/// keeps slot, fault and counter updates consistent.
#[derive(Debug)]
struct Coordinator {
    slots: Vec<ShardSlot>,
    faults: Vec<ShardFault>,
    next_batch: u64,
}

/// A fleet of shard workers behind the same job-level contracts as
/// [`BatchRunner`]: [`PairSource`], [`SplitSource`] and [`MultiSource`].
///
/// Every batch is partitioned round-robin across live shards, executed
/// remotely, and merged by job index, so the result vector is
/// bit-identical to local execution for any shard count and any
/// interleaving of deliveries. A shard lost mid-batch has its
/// unfinished jobs requeued onto the survivors (same jobs, same seeds —
/// same bits); duplicated or stale deliveries are rejected with a typed
/// [`ShardFault`]. If *every* shard is lost with jobs outstanding the
/// batch cannot complete: the fallible entry points return
/// [`ServeError::AllShardsLost`] and the trait impls (whose contracts
/// are infallible) panic.
#[derive(Debug)]
pub struct ShardedBackend {
    coordinator: Mutex<Coordinator>,
    /// Worker threads for locally spawned shards; joined on drop.
    locals: Vec<std::thread::JoinHandle<()>>,
    /// How long a shard that owes results may stay silent before the
    /// coordinator writes it off; `None` waits forever.
    loss_timeout: Option<std::time::Duration>,
}

impl ShardedBackend {
    /// A backend over already-connected shard transports (TCP peers,
    /// rigged test transports, or hand-wired channels).
    pub fn from_transports(transports: Vec<Box<dyn Transport>>) -> Self {
        let slots = transports
            .into_iter()
            .enumerate()
            .map(|(shard, transport)| ShardSlot {
                transport,
                alive: true,
                usage: ShardUsage {
                    shard,
                    jobs_completed: 0,
                    jobs_requeued: 0,
                    duplicates_rejected: 0,
                    lost: false,
                },
            })
            .collect();
        Self {
            coordinator: Mutex::new(Coordinator {
                slots,
                faults: Vec::new(),
                next_batch: 0,
            }),
            locals: Vec::new(),
            loss_timeout: None,
        }
    }

    /// Arms timeout-based loss detection: a shard that owes results and
    /// stays silent for `timeout` is treated exactly like a closed one —
    /// marked dead, faulted as [`ShardFault::ShardTimedOut`], its
    /// unfinished jobs requeued onto the survivors. Because requeued
    /// jobs rerun with identical seeds, the merged results stay
    /// byte-identical to a run with no timeout at all; late deliveries
    /// from a written-off shard are never read (its transport is dead to
    /// the coordinator).
    ///
    /// Without this, loss detection is purely *closure*-based: a shard
    /// whose process wedges while its socket stays open stalls the
    /// campaign forever.
    #[must_use]
    pub fn with_loss_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.loss_timeout = Some(timeout);
        self
    }

    /// Spawns `shards` in-process shard workers over channel transports,
    /// each hosting a [`BatchRunner`] on its own [`Executor`] with
    /// `threads_per_shard` workers (`0` = hardware parallelism).
    ///
    /// The zero-infrastructure deployment: same protocol, same merge
    /// layer, no sockets. Workers shut down when the backend drops.
    pub fn spawn_local(
        runner: EncounterRunner,
        shards: usize,
        threads_per_shard: usize,
    ) -> ShardedBackend {
        let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(shards);
        let mut locals = Vec::with_capacity(shards);
        for k in 0..shards {
            let (coordinator_end, shard_end) = channel_pair();
            let batch = BatchRunner::new(runner.clone(), Executor::new(threads_per_shard));
            let handle = std::thread::Builder::new()
                .name(format!("uavca-shard-{k}"))
                .spawn(move || {
                    // A coordinator that vanishes mid-batch is this
                    // worker's shutdown signal, not a failure to report.
                    let _ = serve_shard(shard_end, batch);
                })
                // audit: allow(panic_policy, thread spawn fails only on OS resource exhaustion)
                .expect("spawning a shard worker thread");
            transports.push(Box::new(coordinator_end) as Box<dyn Transport>);
            locals.push(handle);
        }
        let mut backend = Self::from_transports(transports);
        backend.locals = locals;
        backend
    }

    /// Connects to shard workers listening on `addrs` (each serving
    /// [`serve_shard_tcp`]).
    ///
    /// # Errors
    ///
    /// Returns the first connection error.
    pub fn connect_tcp<A: std::net::ToSocketAddrs>(addrs: &[A]) -> std::io::Result<Self> {
        let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            transports.push(Box::new(TcpTransport::connect(addr)?) as Box<dyn Transport>);
        }
        Ok(Self::from_transports(transports))
    }

    /// Per-shard usage counters (jobs completed, requeues, rejected
    /// duplicates) — the rows of
    /// [`uavca_validation::campaign_shard_table`].
    pub fn usage(&self) -> Vec<ShardUsage> {
        // audit: allow(panic_policy, coordinator lock poisoning propagates a prior panic)
        let coordinator = self.coordinator.lock().expect("coordinator lock");
        coordinator.slots.iter().map(|s| s.usage).collect()
    }

    /// Drains the faults recorded since the last call. An empty result
    /// after a campaign is the clean-run certificate; a non-empty one
    /// documents exactly which deliveries were rejected or requeued
    /// (none of which can have affected the merged results).
    pub fn take_faults(&self) -> Vec<ShardFault> {
        // audit: allow(panic_policy, coordinator lock poisoning propagates a prior panic)
        let mut coordinator = self.coordinator.lock().expect("coordinator lock");
        std::mem::take(&mut coordinator.faults)
    }

    /// Runs a paired batch across the fleet; outcomes in job order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AllShardsLost`] when no live shard remains
    /// with jobs still outstanding.
    pub fn try_run_pairs(&self, jobs: &[PairedJob]) -> Result<Vec<PairedOutcome>, ServeError> {
        self.run_indexed(
            jobs,
            |batch, slice| ShardRequest::RunPaired {
                batch,
                jobs: slice
                    .iter()
                    .map(|&(index, job)| IndexedPairedJob { index, job })
                    .collect(),
            },
            |event| match event {
                ShardEvent::PairedChunk {
                    batch,
                    indices,
                    outcomes,
                } => Some((batch, indices, outcomes)),
                _ => None,
            },
        )
    }

    /// Runs a splitting batch across the fleet; outcomes in job order.
    ///
    /// Splitting jobs carry their stratum's level ladder and branch
    /// schedule, so shards replay each root's depth-first branch tree
    /// from `(root seed, level, node, branch)` alone — a requeued job
    /// reruns bit-identically on any survivor.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AllShardsLost`] when no live shard remains
    /// with jobs still outstanding.
    pub fn try_run_splits(&self, jobs: &[SplitJob]) -> Result<Vec<SplitOutcome>, ServeError> {
        self.run_indexed(
            jobs,
            |batch, slice| ShardRequest::RunSplits {
                batch,
                jobs: slice
                    .iter()
                    .map(|(index, job)| IndexedSplitJob {
                        index: *index,
                        job: job.clone(),
                    })
                    .collect(),
            },
            |event| match event {
                ShardEvent::SplitChunk {
                    batch,
                    indices,
                    outcomes,
                } => Some((batch, indices, outcomes)),
                _ => None,
            },
        )
    }

    /// Runs a k-aircraft paired batch across the fleet; outcomes in job
    /// order.
    ///
    /// Multi jobs are pure functions of their fields (sampled encounter
    /// parameters, simulation seed, equipage mode), so a requeued job
    /// reruns bit-identically on any survivor, exactly as for plain
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AllShardsLost`] when no live shard remains
    /// with jobs still outstanding.
    pub fn try_run_multis(&self, jobs: &[MultiJob]) -> Result<Vec<MultiPairedOutcome>, ServeError> {
        self.run_indexed(
            jobs,
            |batch, slice| ShardRequest::RunMultis {
                batch,
                jobs: slice
                    .iter()
                    .map(|(index, job)| IndexedMultiJob {
                        index: *index,
                        job: job.clone(),
                    })
                    .collect(),
            },
            |event| match event {
                ShardEvent::MultiChunk {
                    batch,
                    indices,
                    outcomes,
                } => Some((batch, indices, outcomes)),
                _ => None,
            },
        )
    }

    /// The shared dispatch/merge loop: partition, send, drain, requeue.
    ///
    /// Determinism does not depend on any choice made here — results are
    /// keyed by job index and jobs are pure — so the partitioning
    /// (round-robin) and drain order (lowest live shard first) are
    /// chosen for balance and simplicity, not reproducibility.
    /// `extract` unpacks a chunk event of the batch's family into its
    /// `(batch, indices, outcomes)` payload (`None` for another family).
    /// Wrong-family and length-mismatched chunks are recorded as
    /// malformed. Every entry of a chunk then passes the
    /// stale/unknown/duplicate checks individually, so a chunk straggling
    /// in from a previous batch records one typed fault per job.
    fn run_indexed<J: Clone, O>(
        &self,
        jobs: &[J],
        make_request: impl Fn(u64, &[(usize, J)]) -> ShardRequest,
        extract: impl Fn(ShardEvent) -> Option<(u64, Vec<usize>, Vec<O>)>,
    ) -> Result<Vec<O>, ServeError> {
        // audit: allow(panic_policy, coordinator lock poisoning propagates a prior panic)
        let mut co = self.coordinator.lock().expect("coordinator lock");
        let co = &mut *co;
        let batch_id = co.next_batch;
        co.next_batch += 1;
        if jobs.is_empty() {
            return Ok(Vec::new());
        }

        // Round-robin partition over live shards; `owner[i]` tracks which
        // shard is currently responsible for job i.
        let live: Vec<usize> = (0..co.slots.len()).filter(|&s| co.slots[s].alive).collect();
        if live.is_empty() {
            return Err(ServeError::AllShardsLost {
                outstanding: jobs.len(),
            });
        }
        let mut owner: Vec<usize> = (0..jobs.len()).map(|i| live[i % live.len()]).collect();
        let mut results: Vec<Option<O>> = jobs.iter().map(|_| None).collect();
        let mut filled = 0usize;
        // Unfilled jobs currently owed by each shard, kept incrementally
        // so the drain loop's shard pick is O(shards), not a scan of the
        // whole job list per event. Counters of dead shards are stale by
        // design — every read is guarded by `alive`.
        let mut outstanding: Vec<usize> = vec![0; co.slots.len()];
        for &o in &owner {
            outstanding[o] += 1;
        }

        // A failed send is a shard loss like any other: mark the shard
        // dead and record the fault; the jobs of the failed assignment
        // stay unowned-by-a-live-shard and the requeue pass picks them
        // up.
        let send_assignment = |co: &mut Coordinator, shard: usize, slice: &[(usize, J)]| -> bool {
            let request = make_request(batch_id, slice);
            let line = crate::protocol::encode(&request);
            if co.slots[shard].transport.send(&line).is_ok() {
                return true;
            }
            co.slots[shard].alive = false;
            co.slots[shard].usage.lost = true;
            co.slots[shard].usage.jobs_requeued += slice.len();
            co.faults.push(ShardFault::ShardLost {
                shard,
                batch: batch_id,
                requeued: slice.len(),
            });
            false
        };
        let assignment_of = |owner: &[usize], shard: usize, jobs: &[J]| -> Vec<(usize, J)> {
            owner
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o == shard)
                .map(|(i, _)| (i, jobs[i].clone()))
                .collect()
        };

        // Initial dispatch. A send failure marks the shard lost inside
        // `send_assignment`; the requeue pass below redistributes.
        for &shard in &live {
            let slice = assignment_of(&owner, shard, jobs);
            if !slice.is_empty() {
                send_assignment(co, shard, &slice);
            }
        }

        // Drain loop: always service the lowest-indexed live shard that
        // still owes results. Outcomes land by index, so servicing order
        // cannot influence the merged vector.
        while filled < results.len() {
            let Some(shard) =
                (0..co.slots.len()).find(|&s| co.slots[s].alive && outstanding[s] > 0)
            else {
                // Jobs owed only by dead shards: requeue them onto the
                // survivors, or give up if there are none.
                let pending: Vec<usize> =
                    (0..jobs.len()).filter(|&i| results[i].is_none()).collect();
                let live: Vec<usize> = (0..co.slots.len()).filter(|&s| co.slots[s].alive).collect();
                if live.is_empty() {
                    return Err(ServeError::AllShardsLost {
                        outstanding: pending.len(),
                    });
                }
                for (k, &i) in pending.iter().enumerate() {
                    owner[i] = live[k % live.len()];
                }
                for &shard in &live {
                    let slice: Vec<(usize, J)> = pending
                        .iter()
                        .filter(|&&i| owner[i] == shard)
                        .map(|&i| (i, jobs[i].clone()))
                        .collect();
                    if !slice.is_empty() {
                        outstanding[shard] += slice.len();
                        send_assignment(co, shard, &slice);
                    }
                }
                // Loop back: drain whoever took the requeue, or fail
                // above once nobody is left alive.
                continue;
            };

            // With a loss timeout armed, the wait on a silent shard is
            // bounded; the default blocking receive otherwise.
            let delivery = match self.loss_timeout {
                Some(timeout) => co.slots[shard].transport.recv_deadline(timeout),
                None => co.slots[shard].transport.recv().map(|line| match line {
                    Some(line) => RecvOutcome::Line(line),
                    None => RecvOutcome::Closed,
                }),
            };
            match delivery {
                Ok(RecvOutcome::Line(line)) => {
                    let Ok(event) = crate::protocol::decode::<ShardEvent>(&line) else {
                        co.faults.push(ShardFault::MalformedEvent { shard });
                        continue;
                    };
                    let Some((batch, indices, outcomes)) = extract(event)
                        .filter(|(_, indices, outcomes)| indices.len() == outcomes.len())
                    else {
                        co.faults.push(ShardFault::MalformedEvent { shard });
                        continue;
                    };
                    for (index, outcome) in indices.into_iter().zip(outcomes) {
                        if batch != batch_id {
                            co.faults.push(ShardFault::StaleBatch {
                                shard,
                                batch,
                                index,
                            });
                            continue;
                        }
                        if index >= results.len() {
                            co.faults.push(ShardFault::UnknownJob {
                                shard,
                                batch,
                                index,
                            });
                            continue;
                        }
                        if results[index].is_some() {
                            co.faults.push(ShardFault::DuplicateResult {
                                shard,
                                batch,
                                index,
                            });
                            co.slots[shard].usage.duplicates_rejected += 1;
                            continue;
                        }
                        results[index] = Some(outcome);
                        filled += 1;
                        co.slots[shard].usage.jobs_completed += 1;
                        outstanding[owner[index]] -= 1;
                    }
                }
                outcome @ (Ok(RecvOutcome::Closed | RecvOutcome::TimedOut) | Err(_)) => {
                    // Shard loss — orderly close, broken pipe, and
                    // timeout expiry alike: requeue its unfinished jobs
                    // onto the survivors. The timeout differs only in
                    // the fault it records; the requeue path (and so the
                    // merged results) is byte-identical.
                    let timed_out = matches!(outcome, Ok(RecvOutcome::TimedOut));
                    co.slots[shard].alive = false;
                    co.slots[shard].usage.lost = true;
                    let pending: Vec<usize> = (0..jobs.len())
                        .filter(|&i| owner[i] == shard && results[i].is_none())
                        .collect();
                    co.slots[shard].usage.jobs_requeued += pending.len();
                    co.faults.push(if timed_out {
                        ShardFault::ShardTimedOut {
                            shard,
                            batch: batch_id,
                            requeued: pending.len(),
                        }
                    } else {
                        ShardFault::ShardLost {
                            shard,
                            batch: batch_id,
                            requeued: pending.len(),
                        }
                    });
                    let live: Vec<usize> =
                        (0..co.slots.len()).filter(|&s| co.slots[s].alive).collect();
                    if live.is_empty() {
                        return Err(ServeError::AllShardsLost {
                            outstanding: results.iter().filter(|r| r.is_none()).count(),
                        });
                    }
                    outstanding[shard] = 0;
                    for (k, &i) in pending.iter().enumerate() {
                        owner[i] = live[k % live.len()];
                    }
                    for &survivor in &live {
                        let slice: Vec<(usize, J)> = pending
                            .iter()
                            .filter(|&&i| owner[i] == survivor)
                            .map(|&i| (i, jobs[i].clone()))
                            .collect();
                        if !slice.is_empty() {
                            outstanding[survivor] += slice.len();
                            send_assignment(co, survivor, &slice);
                        }
                    }
                }
            }
        }

        Ok(results
            .into_iter()
            // audit: allow(panic_policy, filled == len guarantees every slot is Some)
            .map(|r| r.expect("filled == len ensures every slot is Some"))
            .collect())
    }
}

impl PairSource for ShardedBackend {
    /// # Panics
    ///
    /// The [`PairSource`] contract is infallible; this panics if every
    /// shard is lost with jobs outstanding. Use
    /// [`ShardedBackend::try_run_pairs`] to handle fleet loss as a
    /// value.
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        self.try_run_pairs(jobs)
            // audit: allow(panic_policy, JobSource is infallible by contract; panic is documented)
            .expect("shard fleet lost every member mid-batch")
    }
}

impl SplitSource for ShardedBackend {
    /// # Panics
    ///
    /// Panics if every shard is lost with jobs outstanding; see
    /// [`ShardedBackend::try_run_splits`].
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        self.try_run_splits(jobs)
            // audit: allow(panic_policy, SplitSource is infallible by contract; panic is documented)
            .expect("shard fleet lost every member mid-batch")
    }
}

impl MultiSource for ShardedBackend {
    /// # Panics
    ///
    /// Panics if every shard is lost with jobs outstanding; see
    /// [`ShardedBackend::try_run_multis`].
    fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
        self.try_run_multis(jobs)
            // audit: allow(panic_policy, MultiSource is infallible by contract; panic is documented)
            .expect("shard fleet lost every member mid-batch")
    }
}

impl Drop for ShardedBackend {
    fn drop(&mut self) {
        {
            // audit: allow(panic_policy, coordinator lock poisoning propagates a prior panic)
            let mut co = self.coordinator.lock().expect("coordinator lock");
            for slot in co.slots.iter_mut().filter(|s| s.alive) {
                let _ = slot
                    .transport
                    .send(&crate::protocol::encode(&ShardRequest::Shutdown));
            }
            // Dropping the transports below also disconnects channel
            // workers whose Shutdown send raced their own exit.
            co.slots.clear();
        }
        for handle in self.locals.drain(..) {
            let _ = handle.join();
        }
    }
}
