//! Property-based tests for the MDP substrate: solver agreement, Bellman
//! optimality, and interpolation invariants on randomly generated inputs.

use proptest::prelude::*;
use uavca_mdp::{
    BackwardInduction, DenseMdp, DenseMdpBuilder, Mdp, PolicyIteration, RectGridBuilder,
    SweepOrder, ValueIteration,
};

/// Strategy: a random well-formed dense MDP with `n` states, `na` actions.
fn arb_mdp(max_states: usize, max_actions: usize) -> impl Strategy<Value = DenseMdp> {
    (2..=max_states, 1..=max_actions, 0u64..u64::MAX).prop_map(|(n, na, seed)| {
        // Deterministic construction from the seed keeps shrinking stable.
        let mut state = seed;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut b = DenseMdpBuilder::new(n, na, 0.9);
        for s in 0..n {
            for a in 0..na {
                let s1 = (next() * n as f64) as usize % n;
                let mut s2 = (next() * n as f64) as usize % n;
                if s2 == s1 {
                    s2 = (s2 + 1) % n;
                }
                let p = 0.05 + 0.9 * next();
                b.transition(s, a, s1, p);
                b.transition(s, a, s2, 1.0 - p);
                b.reward(s, a, next() * 2.0 - 1.0);
            }
        }
        b.build().expect("constructed mass sums to one")
    })
}

/// One query coordinate on `axis`, by `kind`: 0 a point inside (or a
/// little beyond) the axis span at `t`, 1 the exact grid coordinate
/// nearest `t`, 2 the bottom end, 3 the top end, 4 NaN, 5 `+∞`, 6 `−∞`.
fn query_coordinate(axis: &[f64], kind: usize, t: f64) -> f64 {
    let (lo, hi) = (axis[0], axis[axis.len() - 1]);
    match kind {
        0 => lo - 1.0 + t * (hi - lo + 2.0),
        1 => axis[((t * axis.len() as f64) as usize).min(axis.len() - 1)],
        2 => lo,
        3 => hi,
        4 => f64::NAN,
        5 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// The generic corner expansion restated: bitmask order over the
/// per-axis brackets, zero-weight corners skipped, weights multiplied
/// up from 1 in axis order.
fn reference_corners(grid: &uavca_mdp::RectGrid, query: &[f64]) -> (Vec<usize>, Vec<u64>) {
    let d = query.len();
    let mut strides = vec![1usize; d];
    for dim in (0..d - 1).rev() {
        strides[dim] = strides[dim + 1] * grid.axis(dim + 1).len();
    }
    let brackets: Vec<(usize, f64)> = (0..d).map(|dim| grid.bracket(dim, query[dim])).collect();
    let (mut indices, mut weights) = (Vec::new(), Vec::new());
    'corner: for mask in 0..1usize << d {
        let (mut flat, mut w) = (0, 1.0f64);
        for (dim, &(lo, frac)) in brackets.iter().enumerate() {
            let hi = mask >> dim & 1;
            let wd = if hi == 1 { frac } else { 1.0 - frac };
            if wd == 0.0 {
                continue 'corner;
            }
            w *= wd;
            flat += (lo + hi) * strides[dim];
        }
        indices.push(flat);
        weights.push(w.to_bits());
    }
    (indices, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimal values satisfy the Bellman optimality equation:
    /// V*(s) = max_a [ R(s,a) + γ Σ P(s'|s,a) V*(s') ].
    #[test]
    fn value_iteration_satisfies_bellman_optimality(m in arb_mdp(20, 4)) {
        let sol = ValueIteration::new().tolerance(1e-12).solve(&m).unwrap();
        for s in 0..m.num_states() {
            let mut best = f64::NEG_INFINITY;
            for a in 0..m.num_actions() {
                let q: f64 = m.reward(s, a)
                    + m.discount()
                        * m.transitions(s, a)
                            .iter()
                            .map(|t| t.probability * sol.values[t.next_state])
                            .sum::<f64>();
                best = best.max(q);
            }
            prop_assert!((best - sol.values[s]).abs() < 1e-6, "state {}", s);
        }
    }

    /// Gauss–Seidel and synchronous sweeps converge to the same fixed point.
    #[test]
    fn sweep_orders_agree(m in arb_mdp(16, 3)) {
        let a = ValueIteration::new().tolerance(1e-12).solve(&m).unwrap();
        let b = ValueIteration::new()
            .tolerance(1e-12)
            .sweep_order(SweepOrder::GaussSeidel)
            .solve(&m)
            .unwrap();
        for s in 0..m.num_states() {
            prop_assert!((a.values[s] - b.values[s]).abs() < 1e-7);
        }
    }

    /// Policy iteration reaches the same optimal value function as value
    /// iteration.
    #[test]
    fn policy_iteration_agrees_with_value_iteration(m in arb_mdp(14, 3)) {
        let vi = ValueIteration::new().tolerance(1e-12).solve(&m).unwrap();
        let (pi, _) = PolicyIteration::new().solve(&m).unwrap();
        for s in 0..m.num_states() {
            prop_assert!((vi.values[s] - pi.values[s]).abs() < 1e-6, "state {}", s);
        }
    }

    /// Backward induction over a long horizon approaches the discounted
    /// infinite-horizon fixed point (γ < 1 contracts the horizon tail).
    #[test]
    fn long_horizon_backward_induction_approaches_vi(m in arb_mdp(10, 2)) {
        let vi = ValueIteration::new().tolerance(1e-12).solve(&m).unwrap();
        let bi = BackwardInduction::new()
            .solve(&m, 400, vec![0.0; m.num_states()])
            .unwrap();
        let last = bi.stage_values.last().unwrap();
        for (s, &v) in last.iter().enumerate() {
            // gamma^400 * max|V| is astronomically small for gamma = 0.9.
            prop_assert!((vi.values[s] - v).abs() < 1e-6, "state {}", s);
        }
    }

    /// Interpolation weights are a convex combination for any query point.
    #[test]
    fn interp_weights_are_convex(
        q0 in -50.0f64..50.0,
        q1 in -50.0f64..50.0,
        q2 in -50.0f64..50.0,
    ) {
        let g = RectGridBuilder::new()
            .axis_linspace(-10.0, 10.0, 7)
            .axis(vec![-5.0, -1.0, 0.0, 2.0])
            .axis_linspace(0.0, 30.0, 4)
            .build()
            .unwrap();
        let w = g.interp_weights(&[q0, q1, q2]).unwrap();
        let total: f64 = w.weights.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(w.weights.iter().all(|&x| x >= 0.0));
        prop_assert!(w.indices.iter().all(|&i| i < g.num_points()));

        // The zero-allocation path agrees bit-for-bit with the allocating
        // one.
        let mut corners = uavca_mdp::InterpCorners::empty();
        g.interp_weights_into(&[q0, q1, q2], &mut corners).unwrap();
        prop_assert_eq!(corners.indices(), w.indices.as_slice());
        prop_assert_eq!(corners.weights(), w.weights.as_slice());
    }

    /// The straight-line 3-D kernel writes the corners the generic mask
    /// loop writes: same count, indices and weight bits, on exact grid
    /// coordinates, axis ends, NaN, ±∞ and one-point axes too. The same
    /// grid with a trailing one-point axis takes the generic expansion
    /// and must agree as well.
    #[test]
    fn three_d_kernel_matches_generic_expansion(
        sizes in (1usize..=6, 1usize..=6, 1usize..=6),
        spacing in (0.1f64..50.0, 0.1f64..50.0, 0.1f64..50.0),
        kinds in (0usize..14, 0usize..14, 0usize..14),
        ts in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        // Kinds 7..14 are more "inside" draws, so many queries take the
        // kernel.
        let inside = |k: usize| if k >= 7 { 0 } else { k };
        let kinds = [inside(kinds.0), inside(kinds.1), inside(kinds.2)];
        let sizes = [sizes.0, sizes.1, sizes.2];
        let spacing = [spacing.0, spacing.1, spacing.2];
        let ts = [ts.0, ts.1, ts.2];
        let axes: Vec<Vec<f64>> = (0..3)
            .map(|dim| (0..sizes[dim]).map(|i| -20.0 + i as f64 * spacing[dim]).collect())
            .collect();
        let grid = axes
            .iter()
            .fold(RectGridBuilder::new(), |b, axis| b.axis(axis.clone()))
            .build()
            .unwrap();
        let query: Vec<f64> = (0..3).map(|dim| query_coordinate(&axes[dim], kinds[dim], ts[dim])).collect();

        let mut corners = uavca_mdp::InterpCorners::empty();
        grid.interp_weights_into(&query, &mut corners).unwrap();
        let got_weights: Vec<u64> = corners.weights().iter().map(|w| w.to_bits()).collect();
        let (want_indices, want_weights) = reference_corners(&grid, &query);
        prop_assert_eq!(corners.len(), want_indices.len());
        prop_assert_eq!(corners.indices(), want_indices.as_slice());
        prop_assert_eq!(&got_weights, &want_weights);

        let grid4 = axes
            .iter()
            .fold(RectGridBuilder::new(), |b, axis| b.axis(axis.clone()))
            .axis(vec![0.0])
            .build()
            .unwrap();
        let mut generic = uavca_mdp::InterpCorners::empty();
        grid4
            .interp_weights_into(&[query[0], query[1], query[2], 0.0], &mut generic)
            .unwrap();
        let generic_weights: Vec<u64> = generic.weights().iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(generic.indices(), corners.indices());
        prop_assert_eq!(&generic_weights, &got_weights);
    }

    /// Multilinear interpolation is exact on affine functions inside the box.
    #[test]
    fn interpolation_exact_on_affine(
        q0 in -10.0f64..10.0,
        q1 in -5.0f64..2.0,
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
        c in -3.0f64..3.0,
    ) {
        let g = RectGridBuilder::new()
            .axis_linspace(-10.0, 10.0, 9)
            .axis(vec![-5.0, -2.0, 0.5, 2.0])
            .build()
            .unwrap();
        let values: Vec<f64> = g.iter_points().map(|(_, p)| a * p[0] + b * p[1] + c).collect();
        let got = g.interpolate(&[q0, q1], &values).unwrap();
        let want = a * q0 + b * q1 + c;
        prop_assert!((got - want).abs() < 1e-7, "got {} want {}", got, want);
    }

    /// Grid index round trip for arbitrary shapes.
    #[test]
    fn grid_index_round_trip(n0 in 1usize..6, n1 in 1usize..6, n2 in 1usize..6) {
        let g = RectGridBuilder::new()
            .axis_linspace(0.0, 1.0, n0)
            .axis_linspace(0.0, 1.0, n1)
            .axis_linspace(0.0, 1.0, n2)
            .build()
            .unwrap();
        prop_assert_eq!(g.num_points(), n0 * n1 * n2);
        for flat in 0..g.num_points() {
            let multi = g.multi_index(flat).unwrap();
            prop_assert_eq!(g.flat_index(&multi).unwrap(), flat);
        }
    }
}
