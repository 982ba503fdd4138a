//! Property-based tests for the vertical logic: τ estimation, dynamics
//! and table-lookup invariants under random inputs.

use proptest::prelude::*;
use std::sync::OnceLock;
use uavca_acasx::{estimate_tau, AcasConfig, Advisory, LogicTable, VerticalDynamics};

fn table() -> &'static LogicTable {
    static TABLE: OnceLock<LogicTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut cfg = AcasConfig::coarse();
        cfg.h_points = 9;
        cfg.rate_points = 5;
        cfg.tau_max_s = 8;
        LogicTable::solve(&cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// τ estimates are non-negative (or infinite) and the projected miss
    /// distance never exceeds the current range for converging geometry.
    #[test]
    fn tau_estimate_invariants(
        rx in -20_000.0f64..20_000.0,
        ry in -20_000.0f64..20_000.0,
        vx in -500.0f64..500.0,
        vy in -500.0f64..500.0,
    ) {
        let est = estimate_tau(rx, ry, vx, vy, 3000.0);
        prop_assert!(est.tau_s >= 0.0);
        prop_assert!(est.hmd_ft >= 0.0);
        prop_assert!((est.range_ft - (rx * rx + ry * ry).sqrt()).abs() < 1e-6);
        if est.tau_s.is_finite() && !est.diverging && est.tau_s > 0.0 {
            prop_assert!(
                est.hmd_ft <= est.range_ft + 1e-6,
                "closest approach cannot exceed current range: hmd {} range {}",
                est.hmd_ft,
                est.range_ft
            );
        }
    }

    /// Own-ship responses never exceed the vertical-rate envelope and move
    /// toward the advisory target.
    #[test]
    fn own_response_is_bounded_and_directed(
        rate in -45.0f64..45.0,
        adv_idx in 0usize..7,
    ) {
        let d = VerticalDynamics::default();
        let adv = Advisory::from_index(adv_idx);
        let next = d.own_response(rate, adv).next_rate_fps;
        prop_assert!(next.abs() <= d.max_rate_fps + 1e-9);
        if let Some(target) = adv.target_rate_fps(rate) {
            let before = (target - rate.clamp(-d.max_rate_fps, d.max_rate_fps)).abs();
            let after = (target - next).abs();
            prop_assert!(after <= before + 1e-9, "response must not move away from target");
        } else {
            prop_assert!((next - rate.clamp(-d.max_rate_fps, d.max_rate_fps)).abs() < 1e-9);
        }
    }

    /// Successor distributions are proper for arbitrary kinematics.
    #[test]
    fn successor_mass_is_one(
        h in -2000.0f64..2000.0,
        own in -45.0f64..45.0,
        intr in -45.0f64..45.0,
        adv_idx in 0usize..7,
    ) {
        let d = VerticalDynamics::default();
        let succ = d.successors(h, own, intr, Advisory::from_index(adv_idx));
        let mass: f64 = succ.iter().map(|s| s.3).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        for (_, o, i, p) in succ {
            prop_assert!(p > 0.0);
            prop_assert!(o.abs() <= d.max_rate_fps + 1e-9);
            prop_assert!(i.abs() <= d.max_rate_fps + 1e-9);
        }
    }

    /// Q-lookups are finite everywhere in (and beyond) the grid box, and
    /// the masked argmax never returns a forbidden-sense advisory.
    #[test]
    fn table_lookup_is_total_and_mask_is_respected(
        h in -5000.0f64..5000.0,
        own in -80.0f64..80.0,
        intr in -80.0f64..80.0,
        tau in -5.0f64..60.0,
        prev_idx in 0usize..7,
    ) {
        let t = table();
        let prev = Advisory::from_index(prev_idx);
        let q = t.q_values(h, own, intr, tau, prev);
        prop_assert!(q.iter().all(|v| v.is_finite()));
        for forbidden in [uavca_sim::Sense::Up, uavca_sim::Sense::Down] {
            let best = t.best_advisory(h, own, intr, tau, prev, Some(forbidden), 0.0);
            prop_assert_ne!(best.sense(), Some(forbidden));
        }
    }
}
