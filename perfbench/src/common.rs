//! Shared pieces: campaign records, counting job sources, statistics,
//! digests, seeds and host probes.

use std::cell::Cell;
use std::time::Instant;

use serde::Serialize;

use crate::trace::Tracer;
use uavca_exec::Executor;
use uavca_sim::{EncounterOutcome, MultiEncounterOutcome};
use uavca_validation::SimEngine;
use uavca_validation::{
    BatchRunner, MultiJob, MultiPairedOutcome, MultiSource, PairSource, PairedJob, PairedOutcome,
};

/// Simulation time step of the default [`uavca_sim::SimConfig`]; every
/// workload runs the default configuration.
pub fn dt_s() -> f64 {
    uavca_sim::SimConfig::default().dt_s
}

/// UAV-steps of one two-aircraft arm.
pub fn arm_steps(outcome: &EncounterOutcome) -> u64 {
    2 * (outcome.duration_s / dt_s()).round() as u64
}

/// UAV-steps of one k-aircraft arm.
pub fn multi_arm_steps(outcome: &MultiEncounterOutcome) -> u64 {
    outcome.num_aircraft() as u64 * (outcome.duration_s / dt_s()).round() as u64
}

/// One campaign the workload ran, as the caller saw it.
#[derive(Debug, Clone)]
pub struct CampaignRecord {
    /// Position in the workload's campaign sequence (the golden key).
    pub key: usize,
    pub kind: &'static str,
    /// Wall time from campaign start to the final estimate, s.
    pub time_to_target_s: f64,
    /// Simulated runs (pairs, roots or encounters) until the stop.
    pub runs: usize,
    /// Jobs completed (paired, splitting roots or k-aircraft).
    pub jobs: usize,
    pub uav_steps: u64,
    /// Gaps between consecutive round completions, ms.
    pub round_gaps_ms: Vec<f64>,
    /// Client `Create` to first streamed round, ms (control plane only).
    pub queue_wait_ms: Option<f64>,
    /// FNV-1a digest of the serialized outcome.
    pub digest: String,
    /// Why the campaign failed its checks, if it did.
    pub failure: Option<String>,
}

/// Everything one workload run produced, before it becomes metrics.
pub struct WorkloadRun {
    /// Peak resident memory when the fixed set completed, MiB; later
    /// campaigns are left out so memory the program keeps per campaign
    /// does not grow with throughput.
    pub fixed_rss_mib: f64,
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    pub records: Vec<CampaignRecord>,
    /// Wall time of the timed phase, s.
    pub timed_s: f64,
    /// Checks attempted besides the campaigns (replays, probes).
    pub checks: usize,
    /// Failed checks and faults besides the campaigns.
    pub failures: Vec<String>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
    /// The simulation engine the batch runners used.
    pub engine: String,
}

/// Times `reps` set-ups, the first from process start; tears down all
/// but the last and returns it.
pub fn time_setups<T>(
    reps: usize,
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(reps);
    for r in 0.. {
        let t = if r == 0 {
            process_start
        } else {
            Instant::now()
        };
        let state = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if r + 1 >= reps {
            return Ok((times, state));
        }
        teardown(state)?;
    }
    unreachable!("the loop returns on its last repetition")
}

/// Gaps between consecutive instants, ms.
pub fn gaps_ms(marks: &[Instant]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// A paired job source that runs on a [`BatchRunner`] and counts the
/// UAV-steps it simulated.
pub struct CountingPairs {
    pub batch: BatchRunner,
    pub steps: Cell<u64>,
    pub jobs: Cell<usize>,
}

impl CountingPairs {
    pub fn new(batch: BatchRunner) -> Self {
        CountingPairs {
            batch,
            steps: Cell::new(0),
            jobs: Cell::new(0),
        }
    }

    /// Returns and resets the (jobs, steps) counters.
    pub fn take(&self) -> (usize, u64) {
        (self.jobs.replace(0), self.steps.replace(0))
    }
}

impl PairSource for CountingPairs {
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        let out = self.batch.run_paired(jobs);
        let steps: u64 = out
            .iter()
            .map(|p| arm_steps(&p.equipped) + arm_steps(&p.unequipped))
            .sum();
        self.steps.set(self.steps.get() + steps);
        self.jobs.set(self.jobs.get() + jobs.len());
        out
    }
}

/// The k-aircraft twin of [`CountingPairs`].
pub struct CountingMultis {
    pub batch: BatchRunner,
    pub steps: Cell<u64>,
    pub jobs: Cell<usize>,
}

impl CountingMultis {
    pub fn new(batch: BatchRunner) -> Self {
        CountingMultis {
            batch,
            steps: Cell::new(0),
            jobs: Cell::new(0),
        }
    }

    pub fn take(&self) -> (usize, u64) {
        (self.jobs.replace(0), self.steps.replace(0))
    }
}

impl MultiSource for CountingMultis {
    fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
        let out = self.batch.run_multis(jobs);
        let steps: u64 = out
            .iter()
            .map(|p| multi_arm_steps(&p.equipped) + multi_arm_steps(&p.unequipped))
            .sum();
        self.steps.set(self.steps.get() + steps);
        self.jobs.set(self.jobs.get() + jobs.len());
        out
    }
}

/// Label of a batch runner's simulation engine.
pub fn engine_label(engine: SimEngine) -> String {
    match engine {
        SimEngine::Scalar => "scalar".to_string(),
        SimEngine::Cohort { width } => format!("cohort{width}"),
    }
}

/// A serial batch runner: every workload runs its executor with one
/// thread.
pub fn serial_batch(runner: &uavca_validation::EncounterRunner) -> BatchRunner {
    BatchRunner::new(runner.clone(), Executor::new(1))
}

/// The `q`-quantile (0..=1) of `values`, linear between order
/// statistics; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over the bytes of a string, as 16 hex digits.
pub fn fnv1a(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a value's serialized (JSON) form.
pub fn digest<T: Serialize>(value: &T) -> String {
    fnv1a(&serde_json::to_string(value).expect("outcomes serialize"))
}

/// splitmix64: derives independent campaign seeds from the workload
/// seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of campaign `index` of stream `stream` under workload seed
/// `seed`.
pub fn campaign_seed(seed: u64, stream: u64, index: usize) -> u64 {
    mix(mix(seed ^ (stream << 48)) ^ index as u64)
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kib / 1024.0)
}

/// Spins a fixed integer workload; returns a value so it is not elided.
fn spin(iterations: u64) -> u64 {
    let mut x: u64 = 0x1234_5678;
    for i in 0..iterations {
        x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x9e37_79b9);
    }
    x
}

/// The host's effective parallelism: the advertised CPU count, and the
/// wall time of two threads spinning the same fixed work at once over
/// that of one thread (1.0 on two free cores, 2.0 on one).
pub fn host_probe() -> (usize, f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    const WORK: u64 = 40_000_000;
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(spin(WORK));
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(WORK));
            let b = s.spawn(|| spin(WORK));
            std::hint::black_box(a.join().expect("spin thread") ^ b.join().expect("spin thread"));
        });
        ratios.push(t.elapsed().as_secs_f64() / one);
    }
    (nproc, median(&ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn campaign_seeds_differ_by_stream_and_index() {
        assert_ne!(campaign_seed(1, 0, 0), campaign_seed(1, 1, 0));
        assert_ne!(campaign_seed(1, 0, 0), campaign_seed(1, 0, 1));
        assert_ne!(campaign_seed(1, 0, 0), campaign_seed(2, 0, 0));
        assert_eq!(campaign_seed(5, 2, 3), campaign_seed(5, 2, 3));
    }
}
