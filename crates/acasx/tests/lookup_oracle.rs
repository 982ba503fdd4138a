//! `LogicTable::q_values` against a reference interpolation over the
//! materialized per-stage Q rows: every looked-up value must agree bit for
//! bit.
//!
//! The reference reads the full Q rows of `LogicTable::stage_q` and
//! interpolates them in the lookup's accumulation order: grid corners in
//! `interp_weights_into` order, two accumulator chains (by corner parity
//! on a single stage, by stage when τ is blended), summed once at the end.
//! Those rows equal the generic solver's bit for bit (see
//! `solve_oracle.rs`), so equal bits here mean the lookup reproduces the
//! materialized Q table.

mod common;

use common::small_config;
use proptest::prelude::*;
use uavca_acasx::{AcasConfig, Advisory, LogicTable};
use uavca_mdp::{InterpCorners, QTable, RectGrid};

/// A table's configuration, grid and full Q rows.
struct MaterializedTable {
    config: AcasConfig,
    grid: RectGrid,
    stage_q: Vec<QTable>,
}

impl MaterializedTable {
    fn of(table: &LogicTable) -> MaterializedTable {
        MaterializedTable {
            config: table.config().clone(),
            grid: table.config().build_grid(),
            stage_q: table.stage_q(),
        }
    }

    /// The reference lookup over the stored Q rows.
    fn q_values(
        &self,
        h: f64,
        own: f64,
        intruder: f64,
        tau_s: f64,
        previous: Advisory,
    ) -> [f64; Advisory::COUNT] {
        let mut corners = InterpCorners::empty();
        self.grid
            .interp_weights_into(&[h, own, intruder], &mut corners)
            .expect("3-D query");
        let stages = self.stage_q.len() as f64;
        let t = (tau_s / self.config.dynamics.dt_s).clamp(1.0, stages);
        let (k_lo, k_hi) = (t.floor() as usize, t.ceil() as usize);
        let frac = t - k_lo as f64;
        let base = previous.index() * self.grid.num_points();
        let (lo, hi) = (&self.stage_q[k_lo - 1], &self.stage_q[k_hi - 1]);

        let mut acc = [[0.0; Advisory::COUNT]; 2];
        let corners = corners.indices().iter().zip(corners.weights());
        for (i, (&g, &w)) in corners.enumerate() {
            let (q_lo, q_hi) = (lo.row(base + g), hi.row(base + g));
            if k_lo == k_hi {
                for (acc, q) in acc[i % 2].iter_mut().zip(q_lo) {
                    *acc += w * q;
                }
            } else {
                for (acc, q) in acc[0].iter_mut().zip(q_lo) {
                    *acc += w * (1.0 - frac) * q;
                }
                for (acc, q) in acc[1].iter_mut().zip(q_hi) {
                    *acc += w * frac * q;
                }
            }
        }
        std::array::from_fn(|a| acc[0][a] + acc[1][a])
    }
}

/// τ values below `dt`, on every stage, blended between every pair of
/// stages, and above the horizon.
fn tau_queries(config: &AcasConfig) -> Vec<f64> {
    let dt = config.dynamics.dt_s;
    let stages = config.num_stages();
    let mut taus = vec![-1.0, 0.0, 0.4 * dt];
    for k in 1..=stages {
        taus.push(k as f64 * dt);
        if k < stages {
            taus.push((k as f64 + 0.37) * dt);
        }
    }
    taus.extend([(stages as f64 + 0.5) * dt, 1e9, f64::INFINITY]);
    taus
}

/// Checks every τ query and all 7 previous advisories at each kinematic
/// point, given as fractions of the grid box (|fraction| > 1 is outside).
fn assert_lookups_match(table: &LogicTable, points: &[(f64, f64, f64)]) {
    let reference = MaterializedTable::of(table);
    let h_max = reference.config.h_max_ft;
    let v_max = reference.config.dynamics.max_rate_fps;
    for &(fh, fo, fi) in points {
        let (h, own, intruder) = (fh * h_max, fo * v_max, fi * v_max);
        for tau in tau_queries(&reference.config) {
            for previous in Advisory::ALL {
                let got = table.q_values(h, own, intruder, tau, previous);
                let want = reference.q_values(h, own, intruder, tau, previous);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "({h}, {own}, {intruder}, τ {tau}, previous {previous}): {got:?} vs {want:?}"
                );
            }
        }
    }
}

#[test]
fn coarse_table_lookups_match_stored_q_rows() {
    let table = LogicTable::solve(&AcasConfig::coarse());
    let fractions = [-1.7, -1.0, -0.61, -0.2, 0.0, 0.13, 0.5, 1.0, 2.4];
    let mut points = Vec::new();
    for &fh in &fractions {
        for &fo in &fractions {
            for &fi in &[-1.3, -0.44, 0.0, 0.71, 1.0] {
                points.push((fh, fo, fi));
            }
        }
    }
    assert_lookups_match(&table, &points);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random points inside and outside the grid box of random small
    /// tables.
    #[test]
    fn small_config_lookups_match_stored_q_rows(
        config in small_config(),
        points in vec![(-1.5f64..1.5, -1.5f64..1.5, -1.5f64..1.5); 8],
    ) {
        assert_lookups_match(&LogicTable::solve(&config), &points);
    }
}
