use uavca_mdp::{InterpCorners, Mdp, QTable, RectGrid};
use uavca_sim::Sense;

use crate::{AcasConfig, Advisory, AdvisorySet, VerticalMdp};

/// The offline product of the development process: the "logic table"
/// (paper Fig. 1) mapping discretized encounter states to advisory costs.
///
/// Stage `k` of the table answers "what does each advisory cost with `k`
/// decision steps left to the closest point of approach". Online lookups
/// interpolate multilinearly over the kinematic grid and linearly between
/// the two bracketing τ stages.
///
/// # Storage layout
///
/// The table is stored factored. A Q value is
/// `Q(previous, g, a) = r(previous, a) + γ · E_k[g, a]`, where only the
/// reward depends on the previous advisory and only the expectation
/// depends on the grid point (see [`solve`](Self::solve)). So the table
/// keeps the 7×7 reward table `r[previous][a]` and one contiguous
/// stage-major buffer of discounted expectations,
/// `e[((k - 1) * grid_points + g) * 7 + a] = γ · E_k[g, a]`, one 7-advisory
/// row per (stage, grid point) instead of seven per-previous-advisory
/// copies. A lookup rebuilds each interpolation corner's Q row as
/// `r[previous][a] + e[a]`, the same `f64` expression the solve evaluates,
/// so every looked-up value is bit-identical to a lookup over the
/// materialized Q rows. [`stage_q`](Self::stage_q) derives the
/// materialized per-stage Q tables row by row.
#[derive(Debug, Clone)]
pub struct LogicTable {
    config: AcasConfig,
    grid: RectGrid,
    num_stages: usize,
    /// `reward[previous][a]`: the reward of advisory `a` issued after
    /// `previous`, identical at every grid point and stage.
    reward: [[f64; Advisory::COUNT]; Advisory::COUNT],
    /// Stage-major discounted expectations (see the layout note above).
    e: Vec<f64>,
}

impl LogicTable {
    /// Generates the table by backward induction over the configured
    /// horizon — the "Optimization" arrow of the development-process
    /// figure. Runtime grows linearly in grid points × stages; the default
    /// configuration solves in well under a second in release builds.
    ///
    /// The induction is factored by the three structural facts documented
    /// on [`VerticalMdp`]. Rewards depend only on `(previous, action)`, so
    /// each stage computes one expectation `E[g, a] = Σ p · V[next]` per
    /// grid point and action, stores the discounted row `γ · E[g, a]` once
    /// (the layout note on [`LogicTable`]) and computes the next stage's
    /// values `V(previous, g) = max_a (r(previous, a) + γ · E[g, a])` for
    /// all 7 previous advisories. Transitions depend only on
    /// `(grid point, action)`, and a successor's rates, probability and
    /// altitude step `Δh` only on `(rate point, action)`, so the
    /// transitions are never materialized: the solve keeps the
    /// probability and rate corners of each (rate point, action,
    /// successor) and one altitude bracket of `h + Δh` per grid altitude,
    /// and every stage expands them on the fly. The expansion visits the
    /// same corners in the same order with the same weight products as
    /// [`VerticalMdp`]'s `transitions_into`, so the sums and the
    /// expressions are those of [`uavca_mdp::BackwardInduction`] and every
    /// Q value a lookup or [`stage_q`](Self::stage_q) rebuilds is
    /// bit-identical to the generic solver's.
    pub fn solve(config: &AcasConfig) -> LogicTable {
        const NA: usize = Advisory::COUNT;
        // Successors per (rate point, action): the 3 × 3 noise outcomes of
        // `VerticalDynamics::rate_successors`.
        const NK: usize = 9;
        let model = VerticalMdp::new(config.clone());
        let grid = model.grid();
        let gp = model.grid_points();
        let gamma = model.discount();
        // Grid point `g = i * nr + r`: altitude `i`, rate point `r`
        // (intruder rate fastest).
        let (hs, owns, intrs) = (grid.axis(0), grid.axis(1), grid.axis(2));
        let (nh, nr) = (hs.len(), owns.len() * intrs.len());

        // Both tables are (rate point, action, successor)-major; the
        // altitude brackets hold `nh` consecutive `(lo · nr, frac)` entries
        // per successor, so one stage streams through them in order.
        let rows = nr * NA * NK;
        let mut rate = Vec::with_capacity(rows);
        let mut h_lo = Vec::with_capacity(rows * nh);
        let mut h_frac = Vec::with_capacity(rows * nh);
        for &own in owns {
            for &intr in intrs {
                for adv in Advisory::ALL {
                    let successors = config.dynamics.rate_successors(own, intr, adv);
                    for (own_next, intr_next, dh, p) in successors {
                        rate.push(RateSuccessor::new(grid, own_next, intr_next, p));
                        for &h in hs {
                            let (lo, frac) = grid.bracket(0, h + dh);
                            h_lo.push(u32::try_from(lo * nr).expect("grid points fit in u32"));
                            h_frac.push(frac);
                        }
                    }
                }
            }
        }
        let reward: [[f64; NA]; NA] =
            std::array::from_fn(|p| std::array::from_fn(|a| model.reward(p * gp, a)));

        let num_stages = config.num_stages();
        let mut e = vec![0.0; num_stages * gp * NA];
        let mut values = model.terminal_values();
        let mut next_values = vec![0.0; NA * gp];
        let mut acc = vec![0.0; nh];
        for stage in e.chunks_exact_mut(gp * NA) {
            // All `nh` altitude chains of one (rate point, action) advance
            // together: the rate corners are shared, and each chain's sum
            // still runs in transition order.
            for (r, by_action) in rate.chunks_exact(NA * NK).enumerate() {
                for (a, successors) in by_action.chunks_exact(NK).enumerate() {
                    let v = &values[a * gp..][..gp];
                    let row = (r * NA + a) * NK * nh;
                    acc.fill(0.0);
                    for (succ, (los, fracs)) in successors.iter().zip(
                        h_lo[row..]
                            .chunks_exact(nh)
                            .zip(h_frac[row..].chunks_exact(nh)),
                    ) {
                        for &(w_own, w_intr, offset) in succ.corners() {
                            for ((acc, &lo), &frac) in acc.iter_mut().zip(los).zip(fracs) {
                                // `w > 0` is `transitions_into`'s test; it also
                                // skips the zero-weight corners (a `0 · −∞`
                                // term would be NaN) and so never reads the
                                // missing upper corner of a one-point axis.
                                let next = lo as usize + offset;
                                let w = ((1.0 - frac) * w_own) * w_intr;
                                if w > 0.0 {
                                    *acc += succ.p * w * v[next];
                                }
                                let w = (frac * w_own) * w_intr;
                                if w > 0.0 {
                                    *acc += succ.p * w * v[next + nr];
                                }
                            }
                        }
                    }
                    for (i, &acc) in acc.iter().enumerate() {
                        stage[(i * nr + r) * NA + a] = gamma * acc;
                    }
                }
            }
            for (g, row) in stage.chunks_exact(NA).enumerate() {
                for (p, r) in reward.iter().enumerate() {
                    next_values[p * gp + g] = r
                        .iter()
                        .zip(row)
                        .map(|(&r, &e)| r + e)
                        .fold(f64::NEG_INFINITY, f64::max);
                }
            }
            std::mem::swap(&mut values, &mut next_values);
        }
        LogicTable {
            config: config.clone(),
            grid: grid.clone(),
            num_stages,
            reward,
            e,
        }
    }

    /// The Q row of state `s = previous * grid_points + g` at stage `k`
    /// (1-based), rebuilt from the factored storage. Cold path: the lookup
    /// rebuilds rows inside its accumulation instead.
    fn q_row(&self, k: usize, s: usize) -> [f64; Advisory::COUNT] {
        let gp = self.grid.num_points();
        let r = &self.reward[s / gp];
        let e = row7(self.stage(k), s % gp);
        std::array::from_fn(|a| r[a] + e[a])
    }

    /// The materialized per-stage Q tables, derived row by row from the
    /// factored storage: `stage_q()[k - 1]` holds
    /// `Q(previous * grid_points + g, a)` with `k` stages to go, in the
    /// shape of [`uavca_mdp::StagedSolution::stage_q`]. Cold path:
    /// allocates the full `num_stages × 7 × grid_points × 7` table.
    pub fn stage_q(&self) -> Vec<QTable> {
        let states_per_stage = Advisory::COUNT * self.grid.num_points();
        (1..=self.num_stages)
            .map(|k| {
                let values = (0..states_per_stage)
                    .flat_map(|s| self.q_row(k, s))
                    .collect();
                QTable::from_values(states_per_stage, Advisory::COUNT, values)
                    .expect("rows are exactly 7 advisories wide")
            })
            .collect()
    }

    /// The configuration the table was generated from.
    pub fn config(&self) -> &AcasConfig {
        &self.config
    }

    /// Number of decision stages in the table.
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// The alerting horizon in seconds: `num_stages * dt`.
    pub fn horizon_s(&self) -> f64 {
        self.num_stages as f64 * self.config.dynamics.dt_s
    }

    /// Stored table bytes: the discounted expectation rows,
    /// `num_stages × grid_points × 7 × 8` (the 7×7 reward table is not
    /// counted).
    pub fn q_bytes(&self) -> usize {
        self.e.len() * 8
    }

    /// τ-stage blending: the two bracketing stages and the upper fraction.
    #[inline]
    fn tau_blend(&self, tau_s: f64) -> (usize, usize, f64) {
        let stages = self.num_stages as f64;
        let dt = self.config.dynamics.dt_s;
        // `max`/`min` rather than `clamp`: a NaN τ takes stage 1, like −∞.
        let t = (tau_s / dt).max(1.0).min(stages);
        let k_lo = t.floor() as usize;
        let k_hi = t.ceil() as usize;
        (k_lo, k_hi, t - k_lo as f64)
    }

    /// The expectation rows of stage `k` (1-based, as in the τ blend).
    #[inline]
    fn stage(&self, k: usize) -> &[f64] {
        let stage_len = self.grid.num_points() * Advisory::COUNT;
        &self.e[(k - 1) * stage_len..k * stage_len]
    }

    /// The full lookup for one query whose kinematic corners are already
    /// interpolated.
    ///
    /// The corner-outer / action-inner accumulation is explicitly unrolled
    /// over the 7 contiguous advisory lanes (see [`fma_row`]) and split into
    /// two independent accumulator chains — by corner parity in the
    /// single-stage case, by τ stage in the blended case — so the FMAs of
    /// consecutive corners do not serialize on one dependency chain. Both
    /// cases sum the chains once at the end.
    #[inline]
    fn q_values_at(
        &self,
        corners: &InterpCorners,
        tau_s: f64,
        previous: Advisory,
    ) -> [f64; Advisory::COUNT] {
        let (k_lo, k_hi, frac) = self.tau_blend(tau_s);
        let r = &self.reward[previous.index()];
        let lo = self.stage(k_lo);
        let indices = corners.indices();
        let weights = corners.weights();
        let mut acc0 = [0.0; Advisory::COUNT];
        let mut acc1 = [0.0; Advisory::COUNT];
        if k_lo == k_hi {
            let mut i = 0;
            while i + 1 < indices.len() {
                fma_row(&mut acc0, r, row7(lo, indices[i]), weights[i]);
                fma_row(&mut acc1, r, row7(lo, indices[i + 1]), weights[i + 1]);
                i += 2;
            }
            if i < indices.len() {
                fma_row(&mut acc0, r, row7(lo, indices[i]), weights[i]);
            }
        } else {
            let hi = self.stage(k_hi);
            let (w_lo, w_hi) = (1.0 - frac, frac);
            for (&g, &w) in indices.iter().zip(weights) {
                fma_row(&mut acc0, r, row7(lo, g), w * w_lo);
                fma_row(&mut acc1, r, row7(hi, g), w * w_hi);
            }
        }
        let mut out = [0.0; Advisory::COUNT];
        for (slot, (a, b)) in out.iter_mut().zip(acc0.iter().zip(&acc1)) {
            *slot = a + b;
        }
        out
    }

    /// Interpolated Q-values (higher = better) of all 7 advisories at the
    /// continuous state `(h, ḣ_own, ḣ_int, τ, previous advisory)`.
    ///
    /// Kinematics are clamped to the grid box; τ is clamped to
    /// `[dt, horizon]` and blended linearly between the bracketing stages.
    /// Performs no heap allocation: the interpolation corners live on the
    /// stack and the expectation rows are read contiguously.
    #[inline]
    pub fn q_values(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        previous: Advisory,
    ) -> [f64; Advisory::COUNT] {
        let mut corners = InterpCorners::empty();
        self.grid
            .interp_weights_into(&[h_ft, own_rate_fps, intruder_rate_fps], &mut corners)
            .expect("arity matches the 3-D grid");
        self.q_values_at(&corners, tau_s, previous)
    }

    /// The best advisory at a continuous state, with optional coordination
    /// masking (advisories whose sense equals `forbidden` are excluded;
    /// COC is always allowed) and advisory hysteresis: the previous
    /// advisory's Q-value receives `hysteresis_bonus` before comparison so
    /// marginal differences do not cause chattering.
    #[allow(clippy::too_many_arguments)]
    pub fn best_advisory(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        previous: Advisory,
        forbidden: Option<Sense>,
        hysteresis_bonus: f64,
    ) -> Advisory {
        self.best_advisory_masked(
            h_ft,
            own_rate_fps,
            intruder_rate_fps,
            tau_s,
            previous,
            AdvisorySet::for_restriction(forbidden),
            hysteresis_bonus,
        )
    }

    /// [`best_advisory`](Self::best_advisory) with an arbitrary advisory
    /// mask. COC is a member of every [`AdvisorySet`], so a decision always
    /// exists.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn best_advisory_masked(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        previous: Advisory,
        allowed: AdvisorySet,
        hysteresis_bonus: f64,
    ) -> Advisory {
        let q = self.q_values(h_ft, own_rate_fps, intruder_rate_fps, tau_s, previous);
        argmax_masked(&q, previous, allowed, hysteresis_bonus)
    }

    /// Renders an ASCII advisory map over relative altitude (rows, top =
    /// high) and τ (columns, left = far) for fixed vertical rates — the
    /// classic "policy plot" the ACAS X reports use to inspect generated
    /// logic.
    ///
    /// Legend: `.` COC, `^`/`v` climb/descend 1500, `N`/`U` do-not-climb /
    /// do-not-descend, `+`/`-` strengthened climb/descend.
    pub fn render_advisory_map(&self, own_rate_fps: f64, intruder_rate_fps: f64) -> String {
        let cols = self.num_stages();
        let dt = self.config.dynamics.dt_s;
        let mut out = format!(
            "advisory map (own rate {:.0} ft/s, intruder rate {:.0} ft/s); rows h, cols tau {}..1 s\n",
            own_rate_fps, intruder_rate_fps, cols
        );
        for row in (0..self.grid.axis(0).len()).rev() {
            let h = self.grid.axis(0)[row];
            out.push_str(&format!("{h:>7.0} ft |"));
            for k in (1..=cols).rev() {
                let adv = self.best_advisory(
                    h,
                    own_rate_fps,
                    intruder_rate_fps,
                    k as f64 * dt,
                    Advisory::Coc,
                    None,
                    0.0,
                );
                out.push(match adv {
                    Advisory::Coc => '.',
                    Advisory::Dnc => 'N',
                    Advisory::Dnd => 'U',
                    Advisory::Des1500 => 'v',
                    Advisory::Cl1500 => '^',
                    Advisory::Sdes2500 => '-',
                    Advisory::Scl2500 => '+',
                });
            }
            out.push('\n');
        }
        out
    }
}

/// One stochastic successor of a (rate point, action) pair in
/// [`LogicTable::solve`]: its probability and the non-zero corners of its
/// next rates `(ḣ_own', ḣ_int')` on the two rate axes.
struct RateSuccessor {
    p: f64,
    len: usize,
    /// `(w_own, w_intr, offset)`: the two per-axis weights of a corner and
    /// its flat index within one altitude slice of the grid.
    corners: [(f64, f64, usize); 4],
}

impl RateSuccessor {
    /// Brackets the next rates on axes 1 and 2 and lists the corners in
    /// the grid's corner order (own rate before intruder rate), skipping
    /// zero per-axis weights as interpolation does.
    fn new(grid: &RectGrid, own_next: f64, intr_next: f64, p: f64) -> Self {
        let (own_lo, own_frac) = grid.bracket(1, own_next);
        let (intr_lo, intr_frac) = grid.bracket(2, intr_next);
        let own = [(1.0 - own_frac, own_lo), (own_frac, own_lo + 1)];
        let intr = [(1.0 - intr_frac, intr_lo), (intr_frac, intr_lo + 1)];
        let n_intr = grid.axis(2).len();
        let mut out = RateSuccessor {
            p,
            len: 0,
            corners: [(0.0, 0.0, 0); 4],
        };
        for (w_intr, l) in intr {
            for (w_own, j) in own {
                if w_own != 0.0 && w_intr != 0.0 {
                    out.corners[out.len] = (w_own, w_intr, j * n_intr + l);
                    out.len += 1;
                }
            }
        }
        out
    }

    fn corners(&self) -> &[(f64, f64, usize)] {
        &self.corners[..self.len]
    }
}

/// A 7-advisory row viewed as a fixed-size array so the accumulation
/// kernel unrolls at the type level.
#[inline]
fn row7(stage: &[f64], g: usize) -> &[f64; Advisory::COUNT] {
    stage[g * Advisory::COUNT..][..Advisory::COUNT]
        .try_into()
        .expect("rows are exactly 7 advisories wide")
}

/// `acc += w * (r + e)`: rebuilds one corner's Q row from the reward row of
/// the previous advisory and the corner's discounted expectation row, and
/// accumulates it, explicitly unrolled over the 7 advisory lanes (the
/// widest vectorizable form available without target-feature dispatch:
/// 4+2+1 f64 lanes on AVX2, 2×3+1 on 128-bit SIMD).
#[inline(always)]
fn fma_row(
    acc: &mut [f64; Advisory::COUNT],
    r: &[f64; Advisory::COUNT],
    e: &[f64; Advisory::COUNT],
    w: f64,
) {
    acc[0] += w * (r[0] + e[0]);
    acc[1] += w * (r[1] + e[1]);
    acc[2] += w * (r[2] + e[2]);
    acc[3] += w * (r[3] + e[3]);
    acc[4] += w * (r[4] + e[4]);
    acc[5] += w * (r[5] + e[5]);
    acc[6] += w * (r[6] + e[6]);
}

/// The masked, hysteresis-biased argmax behind every advisory selection, so
/// all of them break ties identically. COC is always in the
/// [`AdvisorySet`], so a decision always exists.
///
/// Masked lanes are blended to `-∞` and the winner found by a fixed
/// comparison tournament instead of a data-dependent scan. Every pairwise
/// `pick` keeps the smaller index unless the larger one is *strictly*
/// greater, which reproduces the linear scan's lowest-index-wins tie-break
/// (the hysteresis bonus is applied before masking, so a masked-out
/// previous advisory stays at `-∞`).
#[inline]
fn argmax_masked(
    q: &[f64; Advisory::COUNT],
    previous: Advisory,
    allowed: AdvisorySet,
    hysteresis_bonus: f64,
) -> Advisory {
    let mut v = *q;
    v[previous.index()] += hysteresis_bonus;
    for adv in &Advisory::ALL[1..] {
        if !allowed.allows(*adv) {
            v[adv.index()] = f64::NEG_INFINITY;
        }
    }
    #[inline(always)]
    fn pick(v: &[f64; Advisory::COUNT], a: usize, b: usize) -> usize {
        // Callers keep `a < b`; strict `>` makes ties resolve low.
        if v[b] > v[a] {
            b
        } else {
            a
        }
    }
    let m01 = pick(&v, 0, 1);
    let m23 = pick(&v, 2, 3);
    let m45 = pick(&v, 4, 5);
    let quad = pick(&v, m01, m23);
    let hex = pick(&v, quad, m45);
    Advisory::from_index(pick(&v, hex, 6))
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::OnceLock;

    /// A shared coarse table so the test-suite solves it only once.
    pub fn coarse_table() -> &'static LogicTable {
        static TABLE: OnceLock<LogicTable> = OnceLock::new();
        TABLE.get_or_init(|| LogicTable::solve(&AcasConfig::coarse()))
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::coarse_table;
    use super::*;

    #[test]
    fn close_conflicts_alert_far_geometries_do_not() {
        let t = coarse_table();
        // Co-altitude, both level, 8 s out: must alert.
        let best = t.best_advisory(0.0, 0.0, 0.0, 8.0, Advisory::Coc, None, 0.0);
        assert_ne!(
            best,
            Advisory::Coc,
            "imminent co-altitude collision must alert"
        );
        // 1100 ft above and diverging rates, 8 s out: COC is fine.
        let best = t.best_advisory(1100.0, -5.0, 5.0, 8.0, Advisory::Coc, None, 0.0);
        assert_eq!(best, Advisory::Coc);
    }

    #[test]
    fn sense_matches_geometry() {
        let t = coarse_table();
        // Intruder 250 ft above: the own-ship should prefer a down-sense
        // advisory; 250 ft below: up-sense.
        let above = t.best_advisory(250.0, 0.0, 0.0, 6.0, Advisory::Coc, None, 0.0);
        let below = t.best_advisory(-250.0, 0.0, 0.0, 6.0, Advisory::Coc, None, 0.0);
        assert_eq!(above.sense(), Some(uavca_sim::Sense::Down), "got {above}");
        assert_eq!(below.sense(), Some(uavca_sim::Sense::Up), "got {below}");
    }

    #[test]
    fn logic_is_vertically_symmetric() {
        // Mirror symmetry holds at the Q-value level: Q(s, a) equals
        // Q(mirror(s), mirror(a)). (Argmax alone is not a fair check —
        // exactly symmetric states tie and tie-breaking is positional.)
        let t = coarse_table();
        for (h, own, intr, tau) in [
            (0.0, 0.0, 0.0, 6.0),
            (150.0, 5.0, -5.0, 9.0),
            (-300.0, -10.0, 3.0, 4.0),
        ] {
            for prev in Advisory::ALL {
                let q = t.q_values(h, own, intr, tau, prev);
                let qm = t.q_values(-h, -own, -intr, tau, prev.mirrored());
                for a in Advisory::ALL {
                    let lhs = q[a.index()];
                    let rhs = qm[a.mirrored().index()];
                    assert!(
                        (lhs - rhs).abs() < 1e-6,
                        "state ({h},{own},{intr},{tau}) prev {prev} action {a}: {lhs} vs {rhs}"
                    );
                }
            }
        }
    }

    #[test]
    fn coordination_mask_excludes_the_forbidden_sense() {
        let t = coarse_table();
        // Co-altitude conflict, but the peer already took the up sense.
        let best = t.best_advisory(
            0.0,
            0.0,
            0.0,
            6.0,
            Advisory::Coc,
            Some(uavca_sim::Sense::Up),
            0.0,
        );
        assert_ne!(best.sense(), Some(uavca_sim::Sense::Up));
        assert_ne!(
            best,
            Advisory::Coc,
            "must still resolve the conflict downward"
        );
    }

    #[test]
    fn hysteresis_retains_the_current_advisory_on_ties() {
        let t = coarse_table();
        // Find a state where CL1500 and DES1500 are nearly tied (h = 0,
        // symmetric) — with a hysteresis bonus the incumbent must win.
        let incumbent = Advisory::Cl1500;
        let best = t.best_advisory(0.0, 0.0, 0.0, 6.0, incumbent, None, 50.0);
        assert_eq!(best, incumbent);
    }

    #[test]
    fn tau_interpolation_is_monotone_near_conflict() {
        let t = coarse_table();
        // The value of COC (co-altitude, level) should not improve as tau
        // shrinks: less time means the collision is harder to escape.
        let q_far = t.q_values(0.0, 0.0, 0.0, 12.0, Advisory::Coc)[Advisory::Coc.index()];
        let q_near = t.q_values(0.0, 0.0, 0.0, 3.0, Advisory::Coc)[Advisory::Coc.index()];
        assert!(q_near <= q_far + 1e-9, "near {q_near} vs far {q_far}");
    }

    #[test]
    fn fractional_tau_blends_between_stages() {
        let t = coarse_table();
        let q4 = t.q_values(100.0, 0.0, 0.0, 4.0, Advisory::Coc);
        let q5 = t.q_values(100.0, 0.0, 0.0, 5.0, Advisory::Coc);
        let q45 = t.q_values(100.0, 0.0, 0.0, 4.5, Advisory::Coc);
        for a in 0..Advisory::COUNT {
            let mid = 0.5 * (q4[a] + q5[a]);
            assert!((q45[a] - mid).abs() < 1e-9, "action {a}");
        }
    }

    #[test]
    fn out_of_range_tau_clamps() {
        let t = coarse_table();
        let q_low = t.q_values(0.0, 0.0, 0.0, -3.0, Advisory::Coc);
        let q_dt = t.q_values(0.0, 0.0, 0.0, t.config().dynamics.dt_s, Advisory::Coc);
        assert_eq!(q_low, q_dt);
        let q_high = t.q_values(0.0, 0.0, 0.0, 1e9, Advisory::Coc);
        let q_max = t.q_values(0.0, 0.0, 0.0, t.num_stages() as f64, Advisory::Coc);
        assert_eq!(q_high, q_max);
    }

    #[test]
    fn nan_inputs_look_up_like_negative_infinity() {
        let t = coarse_table();
        let base = [120.0, 3.0, -4.0, 6.5];
        for dim in 0..base.len() {
            let q_at = |x: f64| {
                let mut query = base;
                query[dim] = x;
                let [h, own, intr, tau] = query;
                t.q_values(h, own, intr, tau, Advisory::Cl1500)
                    .map(f64::to_bits)
            };
            assert_eq!(q_at(f64::NAN), q_at(f64::NEG_INFINITY), "input {dim}");
        }
    }

    #[test]
    fn advisory_map_has_alert_core_and_quiet_edges() {
        let t = coarse_table();
        let map = t.render_advisory_map(0.0, 0.0);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 1 + t.config().h_points);
        // The co-altitude row at small tau must alert; the extreme
        // altitude rows must be quiet everywhere.
        let mid = &lines[1 + t.config().h_points / 2];
        assert!(
            mid.ends_with(|c| "Nv^U+-".contains(c)),
            "co-altitude near tau=1 must alert: {mid}"
        );
        let top = lines[1];
        let body: String = top.chars().skip_while(|&c| c != '|').skip(1).collect();
        assert!(
            body.chars().all(|c| c == '.'),
            "h=+max must be COC everywhere: {top}"
        );
    }

    #[test]
    fn advisory_map_with_scratch_matches_plain_rendering() {
        let t = coarse_table();
        // Rendering keeps no state between calls: a map rendered after
        // other lookups is identical to a fresh one.
        let first = t.render_advisory_map(5.0, -5.0);
        let _ = t.render_advisory_map(0.0, 0.0);
        let _ = t.q_values(120.0, 3.0, -4.0, 6.0, Advisory::Coc);
        assert_eq!(first, t.render_advisory_map(5.0, -5.0));
        // One column per τ stage, spanning the table horizon.
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(
            lines[1].split('|').nth(1).map(|cols| cols.chars().count()),
            Some(t.num_stages())
        );
        assert_eq!(
            t.horizon_s(),
            t.num_stages() as f64 * t.config().dynamics.dt_s
        );
    }

    #[test]
    fn stored_bytes_hold_one_row_per_stage_and_grid_point() {
        for config in [AcasConfig::coarse(), AcasConfig::default()] {
            let t = LogicTable::solve(&config);
            let grid_points = config.build_grid().num_points();
            assert_eq!(
                t.q_bytes(),
                config.num_stages() * grid_points * Advisory::COUNT * 8,
                "{config:?}"
            );
        }
    }
}
