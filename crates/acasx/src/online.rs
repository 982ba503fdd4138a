use std::sync::Arc;

use serde::{Deserialize, Serialize};
use uavca_sim::{AlphaBetaTracker, AvoiderContext, CollisionAvoider, ManeuverCommand, SenseSet};

use crate::{Advisory, AdvisorySet, LogicTable};

/// The horizontal-geometry part of the online state estimation: time to
/// the closest point of approach and projected miss distance, computed
/// from (noisy) ADS-B relative state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TauEstimate {
    /// Estimated time to horizontal CPA, s (`f64::INFINITY` when
    /// diverging and outside the protection range).
    pub tau_s: f64,
    /// Projected horizontal miss distance at the CPA, ft.
    pub hmd_ft: f64,
    /// Current horizontal range, ft.
    pub range_ft: f64,
    /// Whether the horizontal geometry is diverging.
    pub diverging: bool,
}

/// Estimates τ and the horizontal miss distance from relative position and
/// velocity (horizontal components, ft and ft/s).
///
/// Inside `dmod_ft` range the estimate saturates to τ = 0 even when
/// diverging — the "modified tau" protection volume used by TCAS-family
/// logics so slow, already-close geometries still alert.
pub fn estimate_tau(rx: f64, ry: f64, vx: f64, vy: f64, dmod_ft: f64) -> TauEstimate {
    let range = (rx * rx + ry * ry).sqrt();
    let closure = rx * vx + ry * vy; // < 0 when converging
    let v2 = vx * vx + vy * vy;
    if v2 < 1e-9 || closure >= 0.0 {
        // No relative motion, or diverging.
        let inside = range <= dmod_ft;
        return TauEstimate {
            tau_s: if inside { 0.0 } else { f64::INFINITY },
            hmd_ft: range,
            range_ft: range,
            diverging: closure >= 0.0 && !inside,
        };
    }
    let tau = -closure / v2;
    let mx = rx + vx * tau;
    let my = ry + vy * tau;
    let hmd = (mx * mx + my * my).sqrt();
    TauEstimate {
        tau_s: tau,
        hmd_ft: hmd,
        range_ft: range,
        diverging: false,
    }
}

/// Whether the alerting entry criteria hold: τ within the table horizon
/// and either the projected miss distance inside the protection threshold
/// or the raw range inside DMOD.
#[inline]
fn alerting_eligible(
    tau: &TauEstimate,
    horizon_s: f64,
    hmd_threshold_ft: f64,
    dmod_ft: f64,
) -> bool {
    tau.tau_s <= horizon_s && (tau.hmd_ft <= hmd_threshold_ft || tau.range_ft <= dmod_ft)
}

/// The advisory mask in force for one decision: the coordination
/// restriction combined with the sense lock.
///
/// Sense lock: once an advisory with a sense is active, the logic stays in
/// that sense family (or weakens to COC) unless the coordination
/// restriction forbids it — reversals happen only when the peer claims our
/// sense with priority. This is the TCAS-family anti-chattering rule;
/// reversal costs in the offline table discourage but cannot forbid
/// flapping in perfectly symmetric geometries. With *both* senses
/// forbidden (possible only with ≥ 3 coordinating aircraft) the mask
/// collapses to COC alone.
#[inline]
fn decision_mask(previous: Advisory, forbidden: SenseSet) -> AdvisorySet {
    let locked = match previous.sense() {
        Some(s) if !forbidden.contains(s) => Some(s),
        _ => None,
    };
    AdvisorySet::from_fn(|adv| {
        if adv.sense().is_some_and(|s| forbidden.contains(s)) {
            return false;
        }
        match (adv.sense(), locked) {
            (Some(s), Some(l)) => s == l,
            _ => true,
        }
    })
}

/// The hysteresis bonus actually applied for one decision: the incumbent
/// advisory keeps its bonus only while alerting (COC gets none, so initial
/// alerts are not delayed).
#[inline]
fn effective_hysteresis(previous: Advisory, bonus: f64) -> f64 {
    if previous.is_alert() {
        bonus
    } else {
        0.0
    }
}

/// Converts a selected advisory into the command handed to the simulation
/// (`None` for COC).
#[inline]
fn advisory_command(advisory: Advisory, own_rate_fps: f64) -> Option<ManeuverCommand> {
    advisory.sense().map(|sense| ManeuverCommand {
        target_vertical_rate_fps: advisory
            .target_rate_fps(own_rate_fps)
            .expect("alerting advisories define a target"),
        sense,
        label: advisory.label(),
    })
}

/// The online ACAS XU-like collision avoidance system: wraps a solved
/// [`LogicTable`] behind the [`CollisionAvoider`] interface of the
/// simulation.
///
/// Each decision step it estimates τ from the intruder's ADS-B report,
/// checks the alerting entry criteria (τ within the table horizon and the
/// projected miss distance within the protection threshold), interpolates
/// the Q-table, applies coordination masking and hysteresis, and issues
/// the chosen advisory as a vertical-rate command.
#[derive(Debug, Clone)]
pub struct AcasXu {
    table: Arc<LogicTable>,
    previous: Advisory,
    /// The table horizon in seconds, cached instead of being recomputed
    /// every `decide`.
    horizon_s: f64,
    /// Q-value bonus retained by the current advisory (anti-chattering).
    hysteresis_bonus: f64,
    /// Projected-miss-distance alerting threshold, ft.
    hmd_threshold_ft: f64,
    /// Range-based protection volume ("modified tau" floor), ft.
    dmod_ft: f64,
    /// Optional α-β smoothing of the intruder track before τ estimation.
    tracker: Option<AlphaBetaTracker>,
}

impl AcasXu {
    /// Creates an avoider over a shared solved table with default online
    /// parameters (hysteresis 3 cost units, HMD threshold 1500 ft, DMOD
    /// 3000 ft, no track smoothing).
    pub fn new(table: Arc<LogicTable>) -> Self {
        let horizon_s = table.horizon_s();
        Self {
            table,
            previous: Advisory::Coc,
            horizon_s,
            hysteresis_bonus: 3.0,
            hmd_threshold_ft: 1500.0,
            dmod_ft: 3000.0,
            tracker: None,
        }
    }

    /// Enables α-β smoothing of the intruder's ADS-B track before τ
    /// estimation and table lookup — the state-estimation front end the
    /// deployed ACAS X systems interpose between surveillance and logic
    /// (paper Section IV's state-uncertainty concern).
    pub fn with_tracking(mut self, tracker: AlphaBetaTracker) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Sets the hysteresis bonus (cost units).
    pub fn hysteresis_bonus(mut self, bonus: f64) -> Self {
        self.hysteresis_bonus = bonus;
        self
    }

    /// Sets the projected-miss-distance alerting threshold, ft.
    pub fn hmd_threshold_ft(mut self, ft: f64) -> Self {
        self.hmd_threshold_ft = ft;
        self
    }

    /// Sets the range protection volume, ft.
    pub fn dmod_ft(mut self, ft: f64) -> Self {
        self.dmod_ft = ft;
        self
    }

    /// The advisory currently in force.
    pub fn current_advisory(&self) -> Advisory {
        self.previous
    }

    /// The shared logic table.
    pub fn table(&self) -> &Arc<LogicTable> {
        &self.table
    }

    /// The full decision step under an explicit restriction set — the
    /// single body behind both [`CollisionAvoider::decide`] (pairwise,
    /// restriction from `ctx.forbidden_sense`) and
    /// [`CollisionAvoider::decide_multi`] (n-party, restriction passed
    /// in). Sharing the body is what makes the k = 2 multi path
    /// bit-identical to the pairwise path by construction.
    fn decide_masked(
        &mut self,
        ctx: &AvoiderContext<'_>,
        forbidden: SenseSet,
    ) -> Option<ManeuverCommand> {
        let (intruder_pos, intruder_vel) = match &mut self.tracker {
            Some(tracker) => tracker.update(ctx.intruder),
            None => (ctx.intruder.position, ctx.intruder.velocity),
        };
        let rel_pos = intruder_pos - ctx.own.position;
        let rel_vel = intruder_vel - ctx.own.velocity;
        let tau = estimate_tau(rel_pos.x, rel_pos.y, rel_vel.x, rel_vel.y, self.dmod_ft);

        let eligible = alerting_eligible(&tau, self.horizon_s, self.hmd_threshold_ft, self.dmod_ft);

        let advisory = if eligible {
            self.table.best_advisory_masked(
                rel_pos.z,
                ctx.own.velocity.z,
                intruder_vel.z,
                tau.tau_s,
                self.previous,
                decision_mask(self.previous, forbidden),
                effective_hysteresis(self.previous, self.hysteresis_bonus),
            )
        } else {
            Advisory::Coc
        };
        self.previous = advisory;

        advisory_command(advisory, ctx.own.velocity.z)
    }
}

impl CollisionAvoider for AcasXu {
    fn decide(&mut self, ctx: &AvoiderContext<'_>) -> Option<ManeuverCommand> {
        self.decide_masked(ctx, SenseSet::from_option(ctx.forbidden_sense))
    }

    fn decide_multi(
        &mut self,
        ctx: &AvoiderContext<'_>,
        forbidden: SenseSet,
    ) -> Option<ManeuverCommand> {
        // Unlike the trait's default bridge, this keeps the advisory
        // memory (previous advisory, hysteresis offset) advancing even
        // when both senses are forbidden: the mask collapses to COC and
        // the state machine records the stand-down.
        self.decide_masked(ctx, forbidden)
    }

    fn reset(&mut self) {
        self.previous = Advisory::Coc;
        if let Some(tracker) = &mut self.tracker {
            tracker.reset();
        }
    }

    fn name(&self) -> &'static str {
        "acas-xu"
    }

    fn clone_boxed(&self) -> Box<dyn CollisionAvoider> {
        // Cheap: the logic table is shared behind an `Arc`; only the
        // advisory memory (previous advisory, hysteresis offset,
        // tracker filter state) is per-instance. This is the state
        // importance-splitting checkpoints must carry into branches.
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::test_support::coarse_table;
    use uavca_sim::{AdsbReport, Sense, UavState, Vec3};

    fn table() -> Arc<LogicTable> {
        Arc::new(coarse_table().clone())
    }

    fn ctx<'a>(
        own: &'a UavState,
        intruder: &'a AdsbReport,
        forbidden: Option<Sense>,
    ) -> AvoiderContext<'a> {
        AvoiderContext {
            own,
            intruder,
            forbidden_sense: forbidden,
            time_s: 0.0,
            dt_s: 1.0,
        }
    }

    fn report(position: Vec3, velocity: Vec3) -> AdsbReport {
        AdsbReport {
            sender: 1,
            position,
            velocity,
            time_s: 0.0,
        }
    }

    #[test]
    fn tau_estimate_head_on() {
        // 3000 ft ahead, closing at 300 ft/s: tau = 10 s, hmd = 0.
        let t = estimate_tau(3000.0, 0.0, -300.0, 0.0, 3000.0);
        assert!((t.tau_s - 10.0).abs() < 1e-9);
        assert!(t.hmd_ft < 1e-9);
        assert!(!t.diverging);
    }

    #[test]
    fn tau_estimate_offset_pass() {
        // Passing 1000 ft abeam: hmd = 1000 regardless of range.
        let t = estimate_tau(5000.0, 1000.0, -250.0, 0.0, 3000.0);
        assert!((t.hmd_ft - 1000.0).abs() < 1e-6);
        assert!((t.tau_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tau_estimate_diverging_far_is_infinite() {
        let t = estimate_tau(5000.0, 0.0, 100.0, 0.0, 3000.0);
        assert!(t.tau_s.is_infinite());
        assert!(t.diverging);
    }

    #[test]
    fn tau_estimate_diverging_close_saturates_to_zero() {
        let t = estimate_tau(1000.0, 0.0, 50.0, 0.0, 3000.0);
        assert_eq!(t.tau_s, 0.0, "inside DMOD the logic still engages");
    }

    #[test]
    fn alerts_on_collision_course_and_stays_quiet_when_clear() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        // Head-on co-altitude, 10 s out.
        let intr = report(Vec3::new(3000.0, 0.0, 4000.0), Vec3::new(-150.0, 0.0, 0.0));
        let cmd = acas.decide(&ctx(&own, &intr, None));
        assert!(cmd.is_some(), "collision course must alert");
        assert!(acas.current_advisory().is_alert());

        acas.reset();
        assert_eq!(acas.current_advisory(), Advisory::Coc);
        // Same range but passing 8000 ft abeam: no alert.
        let intr = report(
            Vec3::new(3000.0, 8000.0, 4000.0),
            Vec3::new(-150.0, 0.0, 0.0),
        );
        let cmd = acas.decide(&ctx(&own, &intr, None));
        assert!(cmd.is_none(), "large miss distance must not alert");
    }

    #[test]
    fn intruder_above_commands_down_sense() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        let intr = report(Vec3::new(2400.0, 0.0, 4250.0), Vec3::new(-150.0, 0.0, 0.0));
        let cmd = acas
            .decide(&ctx(&own, &intr, None))
            .expect("conflict alerts");
        assert_eq!(cmd.sense, Sense::Down);
        assert!(cmd.target_vertical_rate_fps <= 0.0);
    }

    #[test]
    fn coordination_restriction_is_respected() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        let intr = report(Vec3::new(2400.0, 0.0, 4000.0), Vec3::new(-150.0, 0.0, 0.0));
        // Peer took the up sense; we must not.
        let cmd = acas
            .decide(&ctx(&own, &intr, Some(Sense::Up)))
            .expect("conflict alerts");
        assert_eq!(cmd.sense, Sense::Down);
    }

    #[test]
    fn beyond_horizon_is_clear_of_conflict() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        // Head-on but 200 s away (coarse horizon is 12 s).
        let intr = report(
            Vec3::new(60_000.0, 0.0, 4000.0),
            Vec3::new(-150.0, 0.0, 0.0),
        );
        assert!(acas.decide(&ctx(&own, &intr, None)).is_none());
    }

    #[test]
    fn advisory_label_reaches_the_command() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        let intr = report(Vec3::new(2400.0, 0.0, 3900.0), Vec3::new(-150.0, 0.0, 0.0));
        let cmd = acas
            .decide(&ctx(&own, &intr, None))
            .expect("conflict alerts");
        assert_eq!(cmd.label, acas.current_advisory().label());
        assert_eq!(acas.name(), "acas-xu");
    }

    #[test]
    fn tracking_variant_still_alerts_and_resets() {
        let mut acas =
            AcasXu::new(table()).with_tracking(uavca_sim::AlphaBetaTracker::default_gains());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        let intr = report(Vec3::new(3000.0, 0.0, 4000.0), Vec3::new(-150.0, 0.0, 0.0));
        // Feed a couple of consistent reports; the smoothed track must
        // produce the same head-on alert as the raw one.
        assert!(acas.decide(&ctx(&own, &intr, None)).is_some());
        let mut intr2 = report(Vec3::new(2700.0, 0.0, 4000.0), Vec3::new(-150.0, 0.0, 0.0));
        intr2.time_s = 1.0;
        let mut ctx2 = ctx(&own, &intr2, None);
        ctx2.time_s = 1.0;
        assert!(acas.decide(&ctx2).is_some());
        acas.reset();
        assert_eq!(acas.current_advisory(), Advisory::Coc);
    }

    #[test]
    fn sense_lock_prevents_spontaneous_reversals() {
        let mut acas = AcasXu::new(table());
        let own = UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0));
        // Perfectly symmetric conflict: whatever sense is chosen first must
        // be kept on subsequent (still symmetric) decisions.
        let intr = report(Vec3::new(2400.0, 0.0, 4000.0), Vec3::new(-150.0, 0.0, 0.0));
        let first = acas.decide(&ctx(&own, &intr, None)).expect("alerts");
        for _ in 0..5 {
            let again = acas
                .decide(&ctx(&own, &intr, None))
                .expect("still alerting");
            assert_eq!(again.sense, first.sense, "sense lock must hold");
        }
        // A coordination restriction against our sense forces the reversal.
        let forced = acas
            .decide(&ctx(&own, &intr, Some(first.sense)))
            .expect("conflict still present");
        assert_eq!(forced.sense, first.sense.opposite());
    }
}
