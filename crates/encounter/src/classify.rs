use serde::{Deserialize, Serialize};
use uavca_sim::units::wrap_angle;

use crate::EncounterParams;

/// Coarse geometry class of an encounter, used to analyze what kinds of
/// situations a search surfaced (paper Section VII: "most of them are tail
/// approach situations").
/// `Ord` follows declaration order (the order of [`GeometryClass::ALL`])
/// so the class can key a `BTreeMap` — the workspace's order-stable
/// substitute for hash maps in counting passes (lint rule A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GeometryClass {
    /// Roughly opposed tracks (relative heading within 45° of 180°).
    HeadOn,
    /// Roughly aligned tracks with opposite vertical senses — one climbs
    /// into the other while approaching from behind. The paper's
    /// challenging case.
    TailApproach,
    /// Roughly aligned tracks without the climb/descend geometry.
    Overtake,
    /// Everything else: convergent crossing tracks.
    Crossing,
}

impl GeometryClass {
    /// All classes in a stable order (useful for tabulation).
    pub const ALL: [GeometryClass; 4] = [
        GeometryClass::HeadOn,
        GeometryClass::TailApproach,
        GeometryClass::Overtake,
        GeometryClass::Crossing,
    ];

    /// A short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            GeometryClass::HeadOn => "head-on",
            GeometryClass::TailApproach => "tail-approach",
            GeometryClass::Overtake => "overtake",
            GeometryClass::Crossing => "crossing",
        }
    }
}

impl std::fmt::Display for GeometryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Threshold on the relative heading for "aligned" tracks, radians (45°).
const ALIGNED_RAD: f64 = std::f64::consts::FRAC_PI_4;

/// Vertical rate magnitude above which an aircraft counts as climbing or
/// descending rather than level, ft/min.
const VERTICAL_ACTIVE_FPM: f64 = 200.0;

/// Classifies the geometry of an encounter from its parameters.
///
/// The own-ship bearing is taken as 0 (the [`crate::ScenarioGenerator`]
/// convention), so the relative heading is simply the intruder bearing.
///
/// * relative heading within 45° of 180° → [`GeometryClass::HeadOn`];
/// * relative heading within 45° of 0°: if the two vertical speeds have
///   opposite active senses (one climbing ≥ 200 ft/min, one descending
///   ≤ −200 ft/min) → [`GeometryClass::TailApproach`], else
///   [`GeometryClass::Overtake`];
/// * otherwise → [`GeometryClass::Crossing`].
pub fn classify(params: &EncounterParams) -> GeometryClass {
    let rel_heading = wrap_angle(params.intruder_bearing_rad);
    let from_opposed = (rel_heading.abs() - std::f64::consts::PI).abs();
    if from_opposed <= ALIGNED_RAD {
        return GeometryClass::HeadOn;
    }
    if rel_heading.abs() <= ALIGNED_RAD {
        let own_vs = params.own_vertical_speed_fpm;
        let int_vs = params.intruder_vertical_speed_fpm;
        let opposite_senses = (own_vs >= VERTICAL_ACTIVE_FPM && int_vs <= -VERTICAL_ACTIVE_FPM)
            || (own_vs <= -VERTICAL_ACTIVE_FPM && int_vs >= VERTICAL_ACTIVE_FPM);
        return if opposite_senses {
            GeometryClass::TailApproach
        } else {
            GeometryClass::Overtake
        };
    }
    GeometryClass::Crossing
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn base() -> EncounterParams {
        EncounterParams::head_on_template()
    }

    #[test]
    fn templates_classify_as_named() {
        assert_eq!(
            classify(&EncounterParams::head_on_template()),
            GeometryClass::HeadOn
        );
        assert_eq!(
            classify(&EncounterParams::tail_approach_template()),
            GeometryClass::TailApproach
        );
    }

    #[test]
    fn aligned_level_tracks_are_overtake() {
        let mut p = base();
        p.intruder_bearing_rad = 0.2;
        p.own_vertical_speed_fpm = 0.0;
        p.intruder_vertical_speed_fpm = 0.0;
        assert_eq!(classify(&p), GeometryClass::Overtake);
    }

    #[test]
    fn same_sense_vertical_is_not_tail_approach() {
        let mut p = base();
        p.intruder_bearing_rad = 0.0;
        p.own_vertical_speed_fpm = 600.0;
        p.intruder_vertical_speed_fpm = 600.0;
        assert_eq!(classify(&p), GeometryClass::Overtake);
    }

    #[test]
    fn perpendicular_is_crossing() {
        let mut p = base();
        p.intruder_bearing_rad = PI / 2.0;
        assert_eq!(classify(&p), GeometryClass::Crossing);
        p.intruder_bearing_rad = -PI / 2.0;
        assert_eq!(classify(&p), GeometryClass::Crossing);
    }

    #[test]
    fn heading_wraps_correctly() {
        let mut p = base();
        // 350° is 10° off aligned — overtake family (level → Overtake).
        p.intruder_bearing_rad = 2.0 * PI - 10.0_f64.to_radians();
        p.own_vertical_speed_fpm = 0.0;
        assert_eq!(classify(&p), GeometryClass::Overtake);
        // -170° is within 45° of 180°.
        p.intruder_bearing_rad = -170.0_f64.to_radians();
        assert_eq!(classify(&p), GeometryClass::HeadOn);
    }

    #[test]
    fn weak_vertical_rates_do_not_count() {
        let mut p = base();
        p.intruder_bearing_rad = 0.0;
        p.own_vertical_speed_fpm = -150.0;
        p.intruder_vertical_speed_fpm = 150.0;
        assert_eq!(
            classify(&p),
            GeometryClass::Overtake,
            "below the 200 fpm threshold"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GeometryClass::TailApproach.label(), "tail-approach");
        assert_eq!(GeometryClass::ALL.len(), 4);
        assert_eq!(format!("{}", GeometryClass::HeadOn), "head-on");
    }
}
