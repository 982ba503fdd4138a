//! Correctness checks: the round trail of every final estimate, and the
//! golden digests frozen for the default and held-out seeds.

use uavca_validation::RatioEstimate;

use crate::common::CampaignRecord;
use crate::goldens::{goldens, FIXED_CAMPAIGNS};

/// What the round trail of a finished campaign must agree with.
pub struct Trail<'a> {
    /// Runs (pairs, roots or encounters) of each round, in order.
    pub round_runs: Vec<usize>,
    /// Half-width of the risk-ratio interval after each round.
    pub half_widths: Vec<f64>,
    pub total_runs: usize,
    pub reached_target: bool,
    pub max_rounds: usize,
    pub target_half_width: f64,
    pub risk_ratio: &'a RatioEstimate,
}

/// Checks that a finished campaign stopped exactly where its rule says
/// (first round at or under the target, else after the last round),
/// that its rounds account for every run of the estimate, and that the
/// final interval holds its ratio.
pub fn check_trail(t: &Trail<'_>) -> Option<String> {
    let summed: usize = t.round_runs.iter().sum();
    if summed != t.total_runs {
        return Some(format!(
            "round trail sums to {summed} runs but the estimate holds {}",
            t.total_runs
        ));
    }
    let Some(&last) = t.half_widths.last() else {
        return Some("campaign finished without a round".into());
    };
    let reached = t.target_half_width.is_finite() && last <= t.target_half_width;
    if reached != t.reached_target {
        return Some(format!(
            "reached_target = {} but the final half-width is {last}",
            t.reached_target
        ));
    }
    if let Some(early) = t.half_widths[..t.half_widths.len() - 1]
        .iter()
        .position(|&hw| hw <= t.target_half_width)
    {
        return Some(format!(
            "round {early} met the target but the campaign went on"
        ));
    }
    if !reached && t.half_widths.len() != t.max_rounds + 1 {
        return Some(format!(
            "stopped after {} rounds without reaching the target",
            t.half_widths.len()
        ));
    }
    let rr = t.risk_ratio;
    if rr.ratio.is_finite() && !(rr.ci_low <= rr.ratio && rr.ratio <= rr.ci_high) {
        return Some(format!(
            "risk ratio {} outside its interval [{}, {}]",
            rr.ratio, rr.ci_low, rr.ci_high
        ));
    }
    None
}

/// Marks every fixed-set record whose digest disagrees with the golden
/// recorded for (`workload`, `seed`). Returns how many records were
/// compared (0 for a seed with no goldens).
pub fn check_goldens(workload: &str, seed: u64, records: &mut [CampaignRecord]) -> usize {
    let Some(digests) = goldens(workload, seed) else {
        return 0;
    };
    let mut compared = 0;
    for r in records.iter_mut().filter(|r| r.key < FIXED_CAMPAIGNS) {
        compared += 1;
        let want = digests.get(r.key).copied().unwrap_or("(none)");
        if r.digest != want && r.failure.is_none() {
            r.failure = Some(format!(
                "campaign {} digest {} differs from the golden {want}",
                r.key, r.digest
            ));
        }
    }
    compared
}

/// The line `goldens.txt` records for this run: the workload, the seed
/// and the digests of the fixed campaigns in key order.
pub fn golden_line(workload: &str, seed: u64, records: &[CampaignRecord]) -> String {
    let mut keyed: Vec<&CampaignRecord> =
        records.iter().filter(|r| r.key < FIXED_CAMPAIGNS).collect();
    keyed.sort_by_key(|r| r.key);
    let list: Vec<&str> = keyed.iter().map(|r| r.digest.as_str()).collect();
    format!("{workload} {seed} {}", list.join(" "))
}
