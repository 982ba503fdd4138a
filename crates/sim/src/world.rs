use std::ops::{Deref, DerefMut};

use crate::{
    CollisionAvoider, EncounterOutcome, MultiEncounterWorld, MultiMode, SimConfig, UavState, Vec3,
    NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT,
};

/// The two-UAV encounter world of the paper's Section VI-C: the k = 2,
/// [`MultiMode::Pairwise`] view of [`MultiEncounterWorld`], which owns the
/// step, the twin, the trace and snapshot/branch (see its module docs
/// for the phases and the draw order).
///
/// Aircraft 0 is the own-ship and aircraft 1 the intruder. Every method
/// of [`MultiEncounterWorld`] is available through `Deref`; the ones
/// below take the pair as an array and report the pair's
/// [`EncounterOutcome`].
#[derive(Debug)]
pub struct EncounterWorld {
    world: MultiEncounterWorld,
}

impl std::fmt::Debug for Box<dyn CollisionAvoider> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CollisionAvoider({})", self.name())
    }
}

impl Deref for EncounterWorld {
    type Target = MultiEncounterWorld;

    fn deref(&self) -> &MultiEncounterWorld {
        &self.world
    }
}

impl DerefMut for EncounterWorld {
    fn deref_mut(&mut self) -> &mut MultiEncounterWorld {
        &mut self.world
    }
}

impl EncounterWorld {
    /// Creates a world with default UAV performance for both aircraft.
    ///
    /// `initial` holds the initial states of aircraft 0 (own-ship) and 1
    /// (intruder); `avoiders` the corresponding avoidance logics; `seed`
    /// drives every stochastic element of the run (noise, disturbance).
    pub fn new(
        config: SimConfig,
        initial: [UavState; 2],
        avoiders: [Box<dyn CollisionAvoider>; 2],
        seed: u64,
    ) -> Self {
        let world =
            MultiEncounterWorld::new(config, MultiMode::Pairwise, &initial, avoiders.into(), seed);
        Self { world }
    }

    /// Rearms the world for a fresh encounter (see
    /// [`MultiEncounterWorld::reset`]).
    pub fn reset(&mut self, initial: [UavState; 2], seed: u64) {
        self.world.reset(&initial, seed);
    }

    /// Whether an NMAC has latched so far in this run.
    pub fn nmac(&self) -> bool {
        self.world.nmac_any()
    }

    /// Runs the encounter to `config.max_time_s` and returns the outcome.
    pub fn run(&mut self) -> EncounterOutcome {
        self.world.run_to_horizon();
        self.outcome()
    }

    /// Runs this world and its unequipped `twin` as one paired job and
    /// returns what [`run`](Self::run) on each world would return,
    /// `(self, twin)`, bit for bit (see
    /// [`MultiEncounterWorld::run_paired`]).
    pub fn run_paired(
        &mut self,
        twin: &mut EncounterWorld,
    ) -> (EncounterOutcome, EncounterOutcome) {
        self.world.run_paired(&mut twin.world);
        (self.outcome(), twin.outcome())
    }

    /// The outcome so far (valid mid-run as well as after [`run`](Self::run)).
    pub fn outcome(&self) -> EncounterOutcome {
        self.world.pairwise_outcome()
    }
}

/// Minimum separation along the straight-line relative motion from `rel0`
/// to `rel1` (parametrized `s ∈ [0, 1]`). Returns `(s_at_min, distance)`.
pub(crate) fn segment_min_separation(rel0: Vec3, rel1: Vec3) -> (f64, f64) {
    let d = rel1 - rel0;
    let dd = d.dot(d);
    let s = if dd < 1e-12 {
        0.0
    } else {
        (-rel0.dot(d) / dd).clamp(0.0, 1.0)
    };
    let at = rel0 + d * s;
    (s, at.norm())
}

/// Whether the NMAC cylinder (horizontal < 500 ft AND vertical < 100 ft)
/// is entered anywhere along the relative motion `rel0 → rel1`; returns the
/// earliest such `s ∈ [0, 1]`.
pub(crate) fn segment_nmac(rel0: Vec3, rel1: Vec3) -> Option<f64> {
    // Vertical window: |z0 + s dz| < 100.
    let z0 = rel0.z;
    let dz = rel1.z - rel0.z;
    let (v_lo, v_hi) = interval_abs_lt(z0, dz, NMAC_VERTICAL_FT)?;
    // Horizontal window: |h0 + s dh|^2 < 500^2, a quadratic in s.
    let h0x = rel0.x;
    let h0y = rel0.y;
    let dhx = rel1.x - rel0.x;
    let dhy = rel1.y - rel0.y;
    let a = dhx * dhx + dhy * dhy;
    let b = 2.0 * (h0x * dhx + h0y * dhy);
    let c = h0x * h0x + h0y * h0y - NMAC_HORIZONTAL_FT * NMAC_HORIZONTAL_FT;
    let (h_lo, h_hi) = interval_quadratic_lt_zero(a, b, c)?;
    let lo = v_lo.max(h_lo).max(0.0);
    let hi = v_hi.min(h_hi).min(1.0);
    if lo <= hi {
        Some(lo)
    } else {
        None
    }
}

/// Solves `|z0 + s*dz| < bound` for `s`, intersected with `[0, 1]`.
fn interval_abs_lt(z0: f64, dz: f64, bound: f64) -> Option<(f64, f64)> {
    if dz.abs() < 1e-12 {
        return if z0.abs() < bound {
            Some((0.0, 1.0))
        } else {
            None
        };
    }
    let s1 = (-bound - z0) / dz;
    let s2 = (bound - z0) / dz;
    let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
    let lo = lo.max(0.0);
    let hi = hi.min(1.0);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// Solves `a s² + b s + c < 0` for `s`, intersected with `[0, 1]`.
fn interval_quadratic_lt_zero(a: f64, b: f64, c: f64) -> Option<(f64, f64)> {
    if a.abs() < 1e-12 {
        // Linear: b s + c < 0.
        if b.abs() < 1e-12 {
            return if c < 0.0 { Some((0.0, 1.0)) } else { None };
        }
        let root = -c / b;
        let (lo, hi) = if b > 0.0 {
            (f64::NEG_INFINITY, root)
        } else {
            (root, f64::INFINITY)
        };
        let lo = lo.max(0.0);
        let hi = hi.min(1.0);
        return if lo <= hi { Some((lo, hi)) } else { None };
    }
    let disc = b * b - 4.0 * a * c;
    if disc <= 0.0 {
        // No real roots: the parabola never crosses zero. For a > 0 it is
        // always positive (never < 0); relative horizontal motion always
        // has a >= 0 here.
        return if a < 0.0 { Some((0.0, 1.0)) } else { None };
    }
    let sq = disc.sqrt();
    let r1 = (-b - sq) / (2.0 * a);
    let r2 = (-b + sq) / (2.0 * a);
    let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    let lo = lo.max(0.0);
    let hi = hi.min(1.0);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unequipped;

    fn head_on(distance_ft: f64, speed_fps: f64) -> [UavState; 2] {
        [
            UavState::new(Vec3::ZERO, Vec3::new(speed_fps, 0.0, 0.0)),
            UavState::new(
                Vec3::new(distance_ft, 0.0, 0.0),
                Vec3::new(-speed_fps, 0.0, 0.0),
            ),
        ]
    }

    fn unequipped_pair() -> [Box<dyn CollisionAvoider>; 2] {
        [Box::new(Unequipped::new()), Box::new(Unequipped::new())]
    }

    #[test]
    fn head_on_without_avoidance_is_nmac() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        let o = w.run();
        assert!(o.nmac);
        assert!(o.min_separation_ft < 1.0);
        // CPA is at ~26.7 s (8000 / 300).
        assert!((o.first_nmac_time_s.unwrap() - 8000.0 / 300.0).abs() < 2.0);
        assert_eq!(o.own_alert_steps, 0);
        assert!(!o.alerted());
    }

    #[test]
    fn fast_crossing_is_detected_between_samples() {
        // Relative speed 2000 ft/s crosses the whole NMAC cylinder inside
        // one 1-second step; endpoint sampling alone would miss it.
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(10_000.0, 1000.0),
            unequipped_pair(),
            2,
        );
        let o = w.run();
        assert!(o.nmac, "continuous NMAC check must catch the crossing");
        assert!(o.min_separation_ft < 1.0, "min sep {}", o.min_separation_ft);
    }

    #[test]
    fn vertically_separated_paths_are_safe() {
        let mut init = head_on(8000.0, 150.0);
        init[1].position.z = 1000.0;
        let mut w = EncounterWorld::new(SimConfig::deterministic(), init, unequipped_pair(), 3);
        let o = w.run();
        assert!(!o.nmac);
        assert!((o.min_separation_ft - 1000.0).abs() < 1.0);
        assert!((o.min_vertical_ft - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn outcome_is_deterministic_for_a_seed() {
        let run = |seed| {
            let mut w = EncounterWorld::new(
                SimConfig::default(),
                head_on(8000.0, 150.0),
                unequipped_pair(),
                seed,
            );
            w.run()
        };
        let a = run(77);
        let b = run(77);
        let c = run(78);
        assert_eq!(a, b, "same seed, same outcome");
        assert_ne!(
            a.min_separation_ft, c.min_separation_ft,
            "different seeds should differ under noise"
        );
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut cfg = SimConfig::deterministic();
        cfg.record_trace = true;
        cfg.max_time_s = 20.0;
        let mut w = EncounterWorld::new(cfg, head_on(8000.0, 150.0), unequipped_pair(), 4);
        w.run();
        assert_eq!(w.trace().len(), 20);
    }

    /// An avoider that flips its commanded sense every step — for
    /// exercising the reversal bookkeeping.
    #[derive(Debug)]
    struct Flapper {
        up: bool,
    }

    impl crate::CollisionAvoider for Flapper {
        fn decide(&mut self, _ctx: &crate::AvoiderContext<'_>) -> Option<crate::ManeuverCommand> {
            self.up = !self.up;
            Some(crate::ManeuverCommand {
                target_vertical_rate_fps: if self.up { 10.0 } else { -10.0 },
                sense: if self.up {
                    crate::Sense::Up
                } else {
                    crate::Sense::Down
                },
                label: if self.up { "UP" } else { "DOWN" },
            })
        }
        fn reset(&mut self) {
            self.up = false;
        }
        fn name(&self) -> &'static str {
            "flapper"
        }
        fn clone_boxed(&self) -> Box<dyn crate::CollisionAvoider> {
            Box::new(Flapper { up: self.up })
        }
    }

    #[test]
    fn reversals_and_alert_steps_are_counted() {
        let mut cfg = SimConfig::deterministic();
        cfg.max_time_s = 10.0;
        let mut w = EncounterWorld::new(
            cfg,
            head_on(50_000.0, 150.0),
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            1,
        );
        let o = w.run();
        assert_eq!(o.own_alert_steps, 10, "flapper alerts every step");
        // Every step after the first flips the sense: 9 reversals.
        assert_eq!(o.own_reversals, 9);
        assert_eq!(o.intruder_alert_steps, 0);
        assert_eq!(o.first_alert_time_s, Some(0.0));
    }

    #[test]
    fn reset_world_matches_fresh_world_bit_for_bit() {
        let init_a = head_on(8000.0, 150.0);
        let mut init_b = head_on(9000.0, 170.0);
        init_b[1].position.z = 80.0;
        // Fresh worlds for reference outcomes.
        let fresh = |init: [UavState; 2], seed| {
            EncounterWorld::new(SimConfig::default(), init, unequipped_pair(), seed).run()
        };
        // One world, reset between runs — including after a mid-run abort
        // and with an avoider carrying advisory state.
        let mut w = EncounterWorld::new(
            SimConfig::default(),
            init_a,
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            7,
        );
        for _ in 0..3 {
            w.step(); // dirty every piece of internal state
        }
        w.reset(init_a, 41);
        let flapper_outcome = w.run();
        let fresh_flapper = EncounterWorld::new(
            SimConfig::default(),
            init_a,
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            41,
        )
        .run();
        assert_eq!(flapper_outcome, fresh_flapper, "avoider state must reset");

        let mut w = EncounterWorld::new(SimConfig::default(), init_a, unequipped_pair(), 7);
        w.run();
        w.reset(init_b, 99);
        assert_eq!(w.run(), fresh(init_b, 99), "reset must equal construction");
        w.reset(init_a, 7);
        assert_eq!(w.run(), fresh(init_a, 7), "reset back to the first case");
    }

    #[test]
    fn restored_branch_is_bit_identical_to_first_continuation() {
        // Noisy config and a stateful avoider: every piece of snapshot
        // state (RNG position, advisory memory, counters) matters here.
        let mut w = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            7,
        );
        w.begin();
        for _ in 0..5 {
            w.step();
        }
        let snap = w.snapshot();

        // Continuation A from the snapshot under branch seed 1234.
        w.restore_branch(&snap, 1234);
        while w.steps_remaining() > 0 {
            w.step();
        }
        let a = w.outcome();

        // Thoroughly dirty the world (full fresh run), then replay the
        // same branch: must match A bit-for-bit.
        w.reset(head_on(9000.0, 170.0), 999);
        w.run();
        w.restore_branch(&snap, 1234);
        while w.steps_remaining() > 0 {
            w.step();
        }
        assert_eq!(w.outcome(), a, "same snapshot + branch seed must replay");

        // A different branch seed shares the history but diverges after
        // the checkpoint under disturbance noise.
        w.restore_branch(&snap, 1235);
        while w.steps_remaining() > 0 {
            w.step();
        }
        let b = w.outcome();
        assert_ne!(
            a.min_separation_ft, b.min_separation_ft,
            "distinct branch seeds should diverge under noise"
        );
    }

    #[test]
    fn plain_restore_resumes_the_original_stream() {
        // Run a world straight through; then replay it from a mid-run
        // snapshot with restore() (same RNG stream, not a branch): the
        // final outcome must equal the uninterrupted run.
        let mut reference = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            21,
        );
        let expected = reference.run();

        let mut w = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            21,
        );
        w.begin();
        for _ in 0..7 {
            w.step();
        }
        let snap = w.snapshot();
        w.run(); // dirty: runs the remaining horizon
        w.restore(&snap);
        while w.steps_remaining() > 0 {
            w.step();
        }
        assert_eq!(w.outcome(), expected);
    }

    #[test]
    fn advance_to_severity_stops_at_first_crossing() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        w.begin();
        let before = w.min_severity();
        assert!(before > 4.0, "head-on at 8000 ft starts far outside");
        let taken = w.advance_to_severity(4.0);
        assert!(taken > 0);
        assert!(w.min_severity() < 4.0, "crossed the requested threshold");
        assert!(
            w.min_severity() >= 1.0 || w.nmac(),
            "should not silently overshoot into the cylinder without latching"
        );
        // threshold 0.0 = run until NMAC or horizon; head-on unequipped
        // reaches NMAC.
        w.advance_to_severity(0.0);
        assert!(w.nmac());
        // Finishing the horizon afterwards reproduces the plain-run
        // outcome for this deterministic config.
        while w.steps_remaining() > 0 {
            w.step();
        }
        let full = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        )
        .run();
        assert_eq!(w.outcome(), full);
    }

    #[test]
    fn outcome_is_queryable_mid_run() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        for _ in 0..5 {
            w.step();
        }
        let mid = w.outcome();
        assert_eq!(mid.duration_s, 5.0);
        assert!(!mid.nmac, "no NMAC after only 5 s");
        assert!(mid.min_separation_ft < 8000.0, "closing already");
        assert_eq!(w.time_s(), 5.0);
        assert!(w.uav_state(0).position.x > 0.0);
    }

    #[test]
    fn segment_min_separation_midpoint() {
        // Relative motion passes through the origin at s = 0.5.
        let (s, d) =
            segment_min_separation(Vec3::new(-100.0, 0.0, 0.0), Vec3::new(100.0, 0.0, 0.0));
        assert!((s - 0.5).abs() < 1e-12);
        assert!(d < 1e-9);
    }

    #[test]
    fn segment_min_separation_endpoint() {
        // Moving away: minimum at s = 0.
        let (s, d) = segment_min_separation(Vec3::new(100.0, 0.0, 0.0), Vec3::new(300.0, 0.0, 0.0));
        assert_eq!(s, 0.0);
        assert!((d - 100.0).abs() < 1e-12);
    }

    #[test]
    fn segment_nmac_requires_cylinder_overlap() {
        // Passes 600 ft abeam: no NMAC even though vertical is 0.
        let r = segment_nmac(
            Vec3::new(-5000.0, 600.0, 0.0),
            Vec3::new(5000.0, 600.0, 0.0),
        );
        assert!(r.is_none());
        // Passes 300 ft abeam at 0 vertical: NMAC.
        let r = segment_nmac(
            Vec3::new(-5000.0, 300.0, 0.0),
            Vec3::new(5000.0, 300.0, 0.0),
        );
        assert!(r.is_some());
        // Passes 300 ft abeam but 150 ft above: no NMAC.
        let r = segment_nmac(
            Vec3::new(-5000.0, 300.0, 150.0),
            Vec3::new(5000.0, 300.0, 150.0),
        );
        assert!(r.is_none());
    }

    #[test]
    fn segment_nmac_stationary_inside() {
        assert_eq!(
            segment_nmac(Vec3::new(10.0, 0.0, 5.0), Vec3::new(10.0, 0.0, 5.0)),
            Some(0.0)
        );
    }

    #[test]
    fn segment_nmac_thresholds_are_strict_boundaries() {
        let on_horizontal = Vec3::new(NMAC_HORIZONTAL_FT, 0.0, 0.0);
        assert_eq!(segment_nmac(on_horizontal, on_horizontal), None);
        let on_vertical = Vec3::new(0.0, 0.0, NMAC_VERTICAL_FT);
        assert_eq!(segment_nmac(on_vertical, on_vertical), None);
    }
}
