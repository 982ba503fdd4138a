use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
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
/// The Q data is one contiguous stage-major buffer:
/// `q[((k - 1) * states_per_stage + s) * 7 + a]`, where
/// `s = previous.index() * grid_points + grid_flat` and `a` is the advisory
/// index. A lookup therefore reads, per interpolation corner, the full
/// 7-advisory row contiguously (corner-outer / action-inner accumulation) —
/// ~8 contiguous row FMAs per stage instead of an action-outer re-walk of
/// scattered per-stage tables. The serialized (JSON) representation keeps
/// the historical per-stage `QTable` format for compatibility.
#[derive(Debug, Clone)]
pub struct LogicTable {
    config: AcasConfig,
    grid: RectGrid,
    num_stages: usize,
    /// `Advisory::COUNT * grid.num_points()` — the state count of one stage.
    states_per_stage: usize,
    /// Stage-major contiguous Q buffer (see the layout note above).
    q: Vec<f64>,
}

/// The serialized (wire) shape of a [`LogicTable`]: the historical
/// per-stage representation, kept so tables saved before the
/// structure-of-arrays repack still load.
#[derive(Debug, Serialize, Deserialize)]
struct LogicTableRepr {
    config: AcasConfig,
    grid: RectGrid,
    /// `stage_q[k - 1]` is the Q-table with `k` stages to go.
    stage_q: Vec<QTable>,
}

impl LogicTable {
    /// Generates the table by backward induction over the configured
    /// horizon — the "Optimization" arrow of the development-process
    /// figure. Runtime grows linearly in grid points × stages; the default
    /// configuration solves in well under a second in release builds.
    ///
    /// The induction is factored by the two structural facts documented on
    /// [`VerticalMdp`]: transitions depend only on `(grid point, action)`,
    /// so they are generated once (through [`VerticalMdp`]'s
    /// `transitions_into`) and reused by every stage, and rewards depend
    /// only on `(previous, action)`, so each stage computes one expectation
    /// `E[g, a] = Σ p · V[next]` per grid point and action and writes
    /// `Q(previous, g, a) = r(previous, a) + γ · E[g, a]` for all 7
    /// previous advisories. The sums run in transition order and use the
    /// same expressions as [`uavca_mdp::BackwardInduction`], so every Q
    /// value is bit-identical to the generic solver's.
    pub fn solve(config: &AcasConfig) -> LogicTable {
        const NA: usize = Advisory::COUNT;
        // 9 successors, each interpolated over at most 2³ grid corners.
        const MAX_ROW: usize = 9 * 8;
        let model = VerticalMdp::new(config.clone());
        let gp = model.grid_points();
        let states_per_stage = NA * gp;
        let gamma = model.discount();

        // Row `g * NA + a` holds the transitions of grid point `g` under
        // action `a` (previous advisory COC: state index `g`). Reserving the
        // upper bound avoids `Vec` doubling; untouched pages stay
        // non-resident.
        let rows = gp * NA;
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut next = Vec::with_capacity(rows * MAX_ROW);
        let mut prob = Vec::with_capacity(rows * MAX_ROW);
        offsets.push(0);
        let mut scratch = Vec::with_capacity(MAX_ROW);
        for g in 0..gp {
            for a in 0..NA {
                scratch.clear();
                model.transitions_into(g, a, &mut scratch);
                for t in &scratch {
                    next.push(u32::try_from(t.next_state).expect("state count fits in u32"));
                    prob.push(t.probability);
                }
                offsets.push(next.len());
            }
        }
        let reward: [[f64; NA]; NA] =
            std::array::from_fn(|p| std::array::from_fn(|a| model.reward(p * gp, a)));

        let num_stages = config.num_stages();
        let stage_len = states_per_stage * NA;
        let mut q = vec![0.0; num_stages * stage_len];
        let mut values = model.terminal_values();
        let mut next_values = vec![0.0; states_per_stage];
        for stage in q.chunks_exact_mut(stage_len) {
            for g in 0..gp {
                let mut expect = [0.0; NA];
                let bounds = offsets[g * NA..=(g + 1) * NA].windows(2);
                for (e, bound) in expect.iter_mut().zip(bounds) {
                    let (lo, hi) = (bound[0], bound[1]);
                    let mut acc = 0.0;
                    for (&n, &p) in next[lo..hi].iter().zip(&prob[lo..hi]) {
                        acc += p * values[n as usize];
                    }
                    *e = acc;
                }
                for (p, r) in reward.iter().enumerate() {
                    let s = p * gp + g;
                    let row = &mut stage[s * NA..(s + 1) * NA];
                    for ((slot, &r), &e) in row.iter_mut().zip(r).zip(&expect) {
                        *slot = r + gamma * e;
                    }
                    next_values[s] = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                }
            }
            std::mem::swap(&mut values, &mut next_values);
        }
        LogicTable {
            config: config.clone(),
            grid: model.grid().clone(),
            num_stages,
            states_per_stage,
            q,
        }
    }

    /// Packs per-stage Q-tables into the contiguous stage-major buffer,
    /// validating every shape against `config` first (the checks
    /// [`load`](Self::load) relies on to reject inconsistent files).
    fn from_parts(
        config: AcasConfig,
        grid: RectGrid,
        stage_q: Vec<QTable>,
    ) -> Result<LogicTable, String> {
        if grid != config.build_grid() {
            return Err(format!(
                "grid does not match the configuration (expected {} points over 3 axes, \
                 got {} points over {} axes)",
                config.build_grid().num_points(),
                grid.num_points(),
                grid.num_dims()
            ));
        }
        if stage_q.len() != config.num_stages() {
            return Err(format!(
                "stage count {} does not match the configured horizon ({} stages)",
                stage_q.len(),
                config.num_stages()
            ));
        }
        let states_per_stage = Advisory::COUNT * grid.num_points();
        let mut q = Vec::with_capacity(stage_q.len() * states_per_stage * Advisory::COUNT);
        for (k, stage) in stage_q.iter().enumerate() {
            if stage.num_states() != states_per_stage
                || stage.num_actions() != Advisory::COUNT
                || !stage.is_consistent()
            {
                return Err(format!(
                    "stage {} is {}x{} ({}consistent buffer), expected {}x{}",
                    k + 1,
                    stage.num_states(),
                    stage.num_actions(),
                    if stage.is_consistent() { "" } else { "in" },
                    states_per_stage,
                    Advisory::COUNT
                ));
            }
            for s in 0..states_per_stage {
                q.extend_from_slice(stage.row(s));
            }
        }
        Ok(LogicTable {
            config,
            grid,
            num_stages: stage_q.len(),
            states_per_stage,
            q,
        })
    }

    /// Unpacks the contiguous buffer back into per-stage Q-tables (the
    /// serialization shape). Cold path: allocates freely.
    fn to_stage_q(&self) -> Vec<QTable> {
        let stage_len = self.states_per_stage * Advisory::COUNT;
        self.q
            .chunks_exact(stage_len)
            .map(|chunk| {
                QTable::from_values(self.states_per_stage, Advisory::COUNT, chunk.to_vec())
                    .expect("stage chunk length matches by construction")
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

    /// Approximate in-memory size of the Q data, bytes.
    pub fn q_bytes(&self) -> usize {
        self.q.len() * 8
    }

    /// The state-offset base of `previous`'s block within a stage
    /// (`previous.index() * grid_points`) — cacheable by callers that hold
    /// an advisory across many lookups, e.g. [`crate::AcasXu`].
    #[inline]
    pub(crate) fn prev_offset(&self, previous: Advisory) -> usize {
        previous.index() * self.grid.num_points()
    }

    /// τ-stage blending: the two bracketing stages and the upper fraction.
    #[inline]
    fn tau_blend(&self, tau_s: f64) -> (usize, usize, f64) {
        let stages = self.num_stages as f64;
        let dt = self.config.dynamics.dt_s;
        let t = (tau_s / dt).clamp(1.0, stages);
        let k_lo = t.floor() as usize;
        let k_hi = t.ceil() as usize;
        (k_lo, k_hi, t - k_lo as f64)
    }

    /// The Q rows of stage `k` (1-based, as in the τ blend).
    #[inline]
    fn stage(&self, k: usize) -> &[f64] {
        let stage_len = self.states_per_stage * Advisory::COUNT;
        &self.q[(k - 1) * stage_len..k * stage_len]
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
        prev_offset: usize,
    ) -> [f64; Advisory::COUNT] {
        let (k_lo, k_hi, frac) = self.tau_blend(tau_s);
        let lo = self.stage(k_lo);
        let indices = corners.indices();
        let weights = corners.weights();
        let mut acc0 = [0.0; Advisory::COUNT];
        let mut acc1 = [0.0; Advisory::COUNT];
        if k_lo == k_hi {
            let mut i = 0;
            while i + 1 < indices.len() {
                fma_row(&mut acc0, row7(lo, prev_offset + indices[i]), weights[i]);
                fma_row(
                    &mut acc1,
                    row7(lo, prev_offset + indices[i + 1]),
                    weights[i + 1],
                );
                i += 2;
            }
            if i < indices.len() {
                fma_row(&mut acc0, row7(lo, prev_offset + indices[i]), weights[i]);
            }
        } else {
            let hi = self.stage(k_hi);
            let (w_lo, w_hi) = (1.0 - frac, frac);
            for (&idx, &w) in indices.iter().zip(weights) {
                let state = prev_offset + idx;
                fma_row(&mut acc0, row7(lo, state), w * w_lo);
                fma_row(&mut acc1, row7(hi, state), w * w_hi);
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
    /// stack and the Q rows are read contiguously.
    pub fn q_values(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        previous: Advisory,
    ) -> [f64; Advisory::COUNT] {
        self.q_values_with_offset(
            h_ft,
            own_rate_fps,
            intruder_rate_fps,
            tau_s,
            self.prev_offset(previous),
        )
    }

    /// [`q_values`](Self::q_values) with the previous-advisory offset
    /// already resolved (see [`prev_offset`](Self::prev_offset)).
    #[inline]
    pub(crate) fn q_values_with_offset(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        prev_offset: usize,
    ) -> [f64; Advisory::COUNT] {
        let mut corners = InterpCorners::empty();
        self.grid
            .interp_weights_into(&[h_ft, own_rate_fps, intruder_rate_fps], &mut corners)
            .expect("arity matches the 3-D grid");
        self.q_values_at(&corners, tau_s, prev_offset)
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
        self.best_advisory_masked_with_offset(
            h_ft,
            own_rate_fps,
            intruder_rate_fps,
            tau_s,
            previous,
            self.prev_offset(previous),
            allowed,
            hysteresis_bonus,
        )
    }

    /// [`best_advisory_masked`](Self::best_advisory_masked) with the
    /// previous-advisory offset already resolved, so per-step callers
    /// (e.g. [`crate::AcasXu`]) can cache it across decisions.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn best_advisory_masked_with_offset(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        tau_s: f64,
        previous: Advisory,
        prev_offset: usize,
        allowed: AdvisorySet,
        hysteresis_bonus: f64,
    ) -> Advisory {
        let q =
            self.q_values_with_offset(h_ft, own_rate_fps, intruder_rate_fps, tau_s, prev_offset);
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

    /// Serializes the table as JSON to `writer` (the historical per-stage
    /// format; see the struct-level layout note).
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error as `io::Error`.
    pub fn save<W: io::Write>(&self, writer: W) -> io::Result<()> {
        let repr = LogicTableRepr {
            config: self.config.clone(),
            grid: self.grid.clone(),
            stage_q: self.to_stage_q(),
        };
        serde_json::to_writer(writer, &repr).map_err(io::Error::other)
    }

    /// Reads a table back from JSON. A mut reference can be passed as the
    /// reader.
    ///
    /// The stage/grid/action shapes of the file are validated against its
    /// embedded configuration: a file whose grid does not match the config,
    /// whose stage count disagrees with the horizon, or whose Q-tables have
    /// the wrong state/action arity is rejected here instead of panicking
    /// on a later lookup.
    ///
    /// # Errors
    ///
    /// Returns I/O and deserialization errors as `io::Error`, and shape
    /// inconsistencies as [`io::ErrorKind::InvalidData`].
    pub fn load<R: io::Read>(reader: R) -> io::Result<LogicTable> {
        let repr: LogicTableRepr = serde_json::from_reader(reader).map_err(io::Error::other)?;
        Self::from_parts(repr.config, repr.grid, repr.stage_q)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Saves to a file path.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and serialization errors.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.save(io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// Propagates file-open and deserialization errors.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> io::Result<LogicTable> {
        Self::load(io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// A 7-advisory Q row viewed as a fixed-size array so the accumulation
/// kernel unrolls at the type level.
#[inline]
fn row7(stage: &[f64], state: usize) -> &[f64; Advisory::COUNT] {
    stage[state * Advisory::COUNT..][..Advisory::COUNT]
        .try_into()
        .expect("rows are exactly 7 advisories wide")
}

/// `acc += w * row`, explicitly unrolled over the 7 advisory lanes (the
/// widest vectorizable form available without target-feature dispatch:
/// 4+2+1 f64 lanes on AVX2, 2×3+1 on 128-bit SIMD).
#[inline(always)]
fn fma_row(acc: &mut [f64; Advisory::COUNT], row: &[f64; Advisory::COUNT], w: f64) {
    acc[0] += w * row[0];
    acc[1] += w * row[1];
    acc[2] += w * row[2];
    acc[3] += w * row[3];
    acc[4] += w * row[4];
    acc[5] += w * row[5];
    acc[6] += w * row[6];
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
    fn save_load_round_trip_preserves_lookups() {
        let t = coarse_table();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = LogicTable::load(buf.as_slice()).unwrap();
        assert_eq!(back.num_stages(), t.num_stages());
        for (h, tau) in [(0.0, 5.0), (200.0, 9.0), (-450.0, 2.5)] {
            let a = t.q_values(h, 0.0, 0.0, tau, Advisory::Coc);
            let b = back.q_values(h, 0.0, 0.0, tau, Advisory::Coc);
            for i in 0..Advisory::COUNT {
                // JSON float round-trips are not guaranteed bit-exact.
                assert!(
                    (a[i] - b[i]).abs() < 1e-9,
                    "action {i}: {} vs {}",
                    a[i],
                    b[i]
                );
            }
        }
        assert!(t.q_bytes() > 0);
    }

    #[test]
    fn load_rejects_inconsistent_shapes() {
        let t = coarse_table();
        let mut json = Vec::new();
        t.save(&mut json).unwrap();
        let json = String::from_utf8(json).unwrap();

        // Pristine round trip loads.
        assert!(LogicTable::load(json.as_bytes()).is_ok());

        // A config whose horizon disagrees with the stored stage count.
        let wrong_horizon = json.replacen("\"tau_max_s\":12", "\"tau_max_s\":10", 1);
        assert_ne!(wrong_horizon, json, "substitution must hit");
        let err = LogicTable::load(wrong_horizon.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("stage count"), "{err}");

        // A grid that no longer matches the config's axes.
        let wrong_grid = json.replacen("\"h_max_ft\":1200", "\"h_max_ft\":1300", 1);
        assert_ne!(wrong_grid, json, "substitution must hit");
        let err = LogicTable::load(wrong_grid.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("grid"), "{err}");

        // A stage whose action arity is wrong: drop one value from the
        // first stage's buffer. QTable's own deserialization validates the
        // buffer length, so this surfaces as a parse error rather than a
        // lookup panic.
        let pos = json.find("\"values\":[").expect("stage values present");
        let comma = json[pos..].find(',').expect("more than one value") + pos;
        let mut truncated = json.clone();
        truncated.replace_range(pos + "\"values\":[".len()..=comma, "");
        assert!(LogicTable::load(truncated.as_bytes()).is_err());
    }
}
