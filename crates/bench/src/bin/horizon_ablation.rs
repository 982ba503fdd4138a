//! ABL-HORIZON — the "model revision" step of the paper's Fig. 1 loop,
//! driven by what the GA search found: the logic's weakness in aligned
//! low-closure encounters depends on the table's alerting horizon τ_max.
//!
//! Sweeps the horizon and reports the NMAC rate on the canonical
//! tail-approach and head-on conflicts plus alert statistics. Short
//! horizons reproduce the paper's catastrophic tail-approach rates
//! (80–90/100); extending the horizon — a *model* change, not a logic
//! patch — repairs them, demonstrating how search-found situations feed
//! model improvement.
//!
//! `cargo run --release -p uavca-bench --bin horizon_ablation [--full]`

#![allow(clippy::disallowed_methods, reason = "wall-clock timing is the point")]
use std::sync::Arc;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_bench::full_scale;
use uavca_encounter::EncounterParams;
use uavca_validation::{EncounterRunner, FitnessFunction, TextTable};

fn main() {
    let horizons: &[usize] = if full_scale() {
        &[8, 12, 16, 20, 28, 40]
    } else {
        &[8, 12, 20, 40]
    };
    let runs = if full_scale() { 100 } else { 30 };
    println!("== ABL-HORIZON: NMAC rate vs alerting horizon (runs = {runs}/geometry) ==\n");

    let mut table = TextTable::new([
        "horizon (s)",
        "solve (s)",
        "tail NMAC",
        "head-on NMAC",
        "tail mean sep (ft)",
        "tail alert lead (s)",
    ]);
    for &h in horizons {
        let mut config = if full_scale() {
            AcasConfig::default()
        } else {
            AcasConfig::coarse()
        };
        config.tau_max_s = h;
        let started = std::time::Instant::now();
        let lt = Arc::new(LogicTable::solve(&config));
        let solve_s = started.elapsed().as_secs_f64();
        let runner = EncounterRunner::new(lt);

        let tail = runner.run_repeated(&EncounterParams::tail_approach_template(), runs, 7);
        let head = runner.run_repeated(&EncounterParams::head_on_template(), runs, 7);
        let tail_rate = FitnessFunction::nmac_rate(&tail);
        let head_rate = FitnessFunction::nmac_rate(&head);
        let mean_sep = tail.iter().map(|o| o.min_separation_ft).sum::<f64>() / tail.len() as f64;
        // Alert lead time: CPA time minus first alert time (more is safer).
        let lead: Vec<f64> = tail
            .iter()
            .filter_map(|o| o.first_alert_time_s.map(|t| o.time_of_min_s - t))
            .collect();
        let mean_lead = if lead.is_empty() {
            f64::NAN
        } else {
            lead.iter().sum::<f64>() / lead.len() as f64
        };
        table.row([
            h.to_string(),
            format!("{solve_s:.1}"),
            format!("{:.0}/{}", tail_rate * runs as f64, runs),
            format!("{:.0}/{}", head_rate * runs as f64, runs),
            format!("{mean_sep:.0}"),
            format!("{mean_lead:.1}"),
        ]);
    }
    println!("{table}");
    println!(
        "shape check: short horizons reproduce the paper's tail-approach failures \
         (their Section VII rates), longer horizons repair them — the search output \
         feeds the manual model revision step of Fig. 1"
    );
}
