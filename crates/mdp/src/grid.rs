use serde::{Deserialize, Serialize};

use crate::{MdpError, Result};

/// Maximum grid dimensionality served by the zero-allocation interpolation
/// path ([`RectGrid::interp_weights_into`]). The
/// allocating [`RectGrid::interp_weights`] remains total for higher
/// dimensionalities.
pub const MAX_INTERP_DIMS: usize = 4;

/// Corner capacity of [`InterpCorners`]: `2^MAX_INTERP_DIMS`.
pub const MAX_INTERP_CORNERS: usize = 1 << MAX_INTERP_DIMS;

/// Interpolation support for one query point: up to `2^d` grid corners with
/// convex weights.
///
/// Produced by [`RectGrid::interp_weights`]. The weights are non-negative
/// and sum to one, so pushing them through any value table is a convex
/// combination — this is how a continuous encounter state is projected onto
/// the discretized MDP ("sampling and interpolation" in the paper's
/// challenge list).
#[derive(Debug, Clone, PartialEq)]
pub struct InterpWeights {
    /// Flat indices of the participating grid corners.
    pub indices: Vec<usize>,
    /// Convex weight of each corner, aligned with `indices`.
    pub weights: Vec<f64>,
}

impl InterpWeights {
    /// Applies the weights to a per-grid-point value table.
    ///
    /// # Panics
    ///
    /// Panics if any stored index is out of range for `values` — the weights
    /// are only meaningful for tables over the grid that produced them.
    pub fn apply(&self, values: &[f64]) -> f64 {
        self.indices
            .iter()
            .zip(&self.weights)
            .map(|(&i, &w)| values[i] * w)
            .sum()
    }
}

/// Fixed-capacity interpolation corner set: the zero-allocation counterpart
/// of [`InterpWeights`] for grids of up to [`MAX_INTERP_DIMS`] dimensions.
///
/// Filled in place by [`RectGrid::interp_weights_into`]; lives on the
/// stack, so hot lookup loops never touch the heap.
/// Corner order, values and the zero-weight-skipping behaviour are
/// identical to [`RectGrid::interp_weights`].
#[derive(Debug, Clone, Copy)]
pub struct InterpCorners {
    indices: [usize; MAX_INTERP_CORNERS],
    weights: [f64; MAX_INTERP_CORNERS],
    len: usize,
}

impl PartialEq for InterpCorners {
    /// Compares only the live corners; slots beyond `len` are scratch space
    /// and may hold stale values.
    fn eq(&self, other: &Self) -> bool {
        self.indices() == other.indices() && self.weights() == other.weights()
    }
}

impl Default for InterpCorners {
    fn default() -> Self {
        Self::empty()
    }
}

impl InterpCorners {
    /// A corner set with no corners (the state before the first fill).
    pub const fn empty() -> Self {
        Self {
            indices: [0; MAX_INTERP_CORNERS],
            weights: [0.0; MAX_INTERP_CORNERS],
            len: 0,
        }
    }

    /// Number of participating corners (`1..=2^d`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no corners.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flat grid indices of the participating corners.
    pub fn indices(&self) -> &[usize] {
        &self.indices[..self.len]
    }

    /// Convex weight of each corner, aligned with [`indices`](Self::indices).
    pub fn weights(&self) -> &[f64] {
        &self.weights[..self.len]
    }

    /// Iterates over `(flat_index, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices()
            .iter()
            .zip(self.weights())
            .map(|(&i, &w)| (i, w))
    }

    /// Applies the weights to a per-grid-point value table.
    ///
    /// # Panics
    ///
    /// Panics if any stored index is out of range for `values`.
    pub fn apply(&self, values: &[f64]) -> f64 {
        self.iter().map(|(i, w)| values[i] * w).sum()
    }

    /// Copies into the allocating representation.
    pub fn to_weights(&self) -> InterpWeights {
        InterpWeights {
            indices: self.indices().to_vec(),
            weights: self.weights().to_vec(),
        }
    }
}

/// An N-dimensional rectilinear grid: the cartesian product of strictly
/// increasing coordinate axes.
///
/// Flat indices are row-major with the **last axis fastest**, matching the
/// layout used by the logic tables in `uavca-acasx`.
///
/// # Example
///
/// ```
/// use uavca_mdp::RectGridBuilder;
///
/// let grid = RectGridBuilder::new()
///     .axis_linspace(-1000.0, 1000.0, 5) // relative altitude, ft
///     .axis(vec![-20.0, 0.0, 20.0])      // vertical rate, ft/s
///     .build()?;
/// assert_eq!(grid.num_points(), 15);
/// let w = grid.interp_weights(&[250.0, 5.0])?;
/// let total: f64 = w.weights.iter().sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok::<(), uavca_mdp::MdpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RectGrid {
    axes: Vec<Vec<f64>>,
    /// Stride of each axis in the flat index (last axis has stride 1).
    strides: Vec<usize>,
    num_points: usize,
}

impl RectGrid {
    fn from_axes(axes: Vec<Vec<f64>>) -> Result<Self> {
        if axes.is_empty() {
            return Err(MdpError::InvalidGridAxis { axis: 0 });
        }
        for (i, axis) in axes.iter().enumerate() {
            // `!(a < b)` deliberately also rejects NaN coordinates.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if axis.is_empty() || axis.windows(2).any(|w| !(w[0] < w[1])) {
                return Err(MdpError::InvalidGridAxis { axis: i });
            }
        }
        let mut strides = vec![0; axes.len()];
        let mut acc = 1;
        for (i, axis) in axes.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= axis.len();
        }
        Ok(Self {
            axes,
            strides,
            num_points: acc,
        })
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.axes.len()
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// The coordinate values along axis `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn axis(&self, dim: usize) -> &[f64] {
        &self.axes[dim]
    }

    /// Converts per-axis indices to a flat index.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for a wrong-arity index and
    /// [`MdpError::StateOutOfRange`] when a component exceeds its axis.
    pub fn flat_index(&self, multi: &[usize]) -> Result<usize> {
        if multi.len() != self.axes.len() {
            return Err(MdpError::DimensionMismatch {
                expected: self.axes.len(),
                got: multi.len(),
            });
        }
        let mut flat = 0;
        for ((&i, axis), &stride) in multi.iter().zip(&self.axes).zip(&self.strides) {
            if i >= axis.len() {
                return Err(MdpError::StateOutOfRange {
                    state: i,
                    num_states: axis.len(),
                });
            }
            flat += i * stride;
        }
        Ok(flat)
    }

    /// Converts a flat index back to per-axis indices.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] if `flat` exceeds
    /// [`num_points`](Self::num_points).
    pub fn multi_index(&self, flat: usize) -> Result<Vec<usize>> {
        if flat >= self.num_points {
            return Err(MdpError::StateOutOfRange {
                state: flat,
                num_states: self.num_points,
            });
        }
        let mut rem = flat;
        let mut multi = Vec::with_capacity(self.axes.len());
        for &stride in &self.strides {
            multi.push(rem / stride);
            rem %= stride;
        }
        Ok(multi)
    }

    /// The coordinates of the grid point with flat index `flat`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] if `flat` is out of range.
    pub fn point(&self, flat: usize) -> Result<Vec<f64>> {
        let multi = self.multi_index(flat)?;
        Ok(multi
            .iter()
            .zip(&self.axes)
            .map(|(&i, axis)| axis[i])
            .collect())
    }

    /// Clamps `query` to the grid's bounding box, component-wise.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for wrong arity.
    pub fn clamp(&self, query: &[f64]) -> Result<Vec<f64>> {
        if query.len() != self.axes.len() {
            return Err(MdpError::DimensionMismatch {
                expected: self.axes.len(),
                got: query.len(),
            });
        }
        Ok(query
            .iter()
            .zip(&self.axes)
            .map(|(&q, axis)| q.clamp(axis[0], *axis.last().expect("non-empty axis")))
            .collect())
    }

    /// Multilinear interpolation weights for `query`.
    ///
    /// The query is clamped to the grid bounds first (collision avoidance
    /// tables saturate at their edges rather than extrapolate). The result
    /// has up to `2^d` corners; axes where the query hits a grid line
    /// exactly contribute a single corner.
    ///
    /// This is the allocating convenience wrapper; hot paths should prefer
    /// [`interp_weights_into`](Self::interp_weights_into).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for wrong arity.
    pub fn interp_weights(&self, query: &[f64]) -> Result<InterpWeights> {
        if self.num_dims() <= MAX_INTERP_DIMS {
            let mut corners = InterpCorners::empty();
            self.interp_weights_into(query, &mut corners)?;
            return Ok(corners.to_weights());
        }
        let q = self.clamp(query)?;
        // Per-axis: (lower index, weight of the *upper* neighbor).
        let mut lows = Vec::with_capacity(q.len());
        let mut fracs = Vec::with_capacity(q.len());
        for (x, axis) in q.iter().zip(&self.axes) {
            let (lo, frac) = bracket(axis, *x);
            lows.push(lo);
            fracs.push(frac);
        }
        let d = q.len();
        let mut indices = Vec::with_capacity(1 << d.min(20));
        let mut weights = Vec::with_capacity(1 << d.min(20));
        expand_corners_with(&self.strides, &lows, &fracs, |flat, w| {
            indices.push(flat);
            weights.push(w);
        });
        Ok(InterpWeights { indices, weights })
    }

    /// Zero-allocation multilinear interpolation weights for `query`,
    /// written into `out`.
    ///
    /// Semantics (clamping, corner order, zero-weight skipping) are
    /// identical to [`interp_weights`](Self::interp_weights); all working
    /// state lives in fixed-size stack arrays, so no heap allocation happens
    /// per call. Clamping is performed implicitly: the per-axis bracketing
    /// saturates at the axis ends, which yields exactly the clamped weights.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for wrong query arity, or if
    /// the grid has more than [`MAX_INTERP_DIMS`] dimensions (use the
    /// allocating API for those).
    pub fn interp_weights_into(&self, query: &[f64], out: &mut InterpCorners) -> Result<()> {
        let d = self.check_interp_dims(query.len())?;
        let mut lows = [0usize; MAX_INTERP_DIMS];
        let mut fracs = [0.0f64; MAX_INTERP_DIMS];
        for (dim, (x, axis)) in query.iter().zip(&self.axes).enumerate() {
            let (lo, frac) = bracket(axis, *x);
            lows[dim] = lo;
            fracs[dim] = frac;
        }
        self.expand_corners(d, &lows, &fracs, out);
        Ok(())
    }

    /// Validates an interpolation arity against the grid and the fixed-size
    /// corner capacity, returning the dimensionality.
    fn check_interp_dims(&self, got: usize) -> Result<usize> {
        let d = self.num_dims();
        if got != d {
            return Err(MdpError::DimensionMismatch { expected: d, got });
        }
        if d > MAX_INTERP_DIMS {
            return Err(MdpError::DimensionMismatch {
                expected: MAX_INTERP_DIMS,
                got: d,
            });
        }
        Ok(d)
    }

    /// Expands per-axis `(low, frac)` brackets into weighted corners, in the
    /// same bitmask order (and with the same zero-weight skipping) as
    /// [`interp_weights`](Self::interp_weights).
    ///
    /// Kept out of line: inlined into its one caller, logic-table
    /// lookups measured about 10 % slower on the coarse table and 4 %
    /// slower on the default one.
    #[inline(never)]
    fn expand_corners(
        &self,
        d: usize,
        lows: &[usize; MAX_INTERP_DIMS],
        fracs: &[f64; MAX_INTERP_DIMS],
        out: &mut InterpCorners,
    ) {
        out.len = 0;
        expand_corners_with(&self.strides, &lows[..d], &fracs[..d], |flat, w| {
            out.indices[out.len] = flat;
            out.weights[out.len] = w;
            out.len += 1;
        });
    }

    /// Interpolates a value table at `query` (multilinear, clamped).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for wrong arity or if
    /// `values` does not have one entry per grid point.
    pub fn interpolate(&self, query: &[f64], values: &[f64]) -> Result<f64> {
        if values.len() != self.num_points {
            return Err(MdpError::DimensionMismatch {
                expected: self.num_points,
                got: values.len(),
            });
        }
        Ok(self.interp_weights(query)?.apply(values))
    }

    /// Flat index of the grid point nearest to `query` (Euclidean per-axis,
    /// clamped).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] for wrong arity.
    pub fn nearest(&self, query: &[f64]) -> Result<usize> {
        let q = self.clamp(query)?;
        let mut flat = 0;
        for ((x, axis), &stride) in q.iter().zip(&self.axes).zip(&self.strides) {
            let (lo, frac) = bracket(axis, *x);
            let idx = if frac > 0.5 { lo + 1 } else { lo };
            flat += idx * stride;
        }
        Ok(flat)
    }

    /// Iterates over all grid points as `(flat_index, coordinates)`.
    pub fn iter_points(&self) -> impl Iterator<Item = (usize, Vec<f64>)> + '_ {
        (0..self.num_points).map(move |i| (i, self.point(i).expect("index in range")))
    }
}

/// Enumerates the weighted corners spanned by per-axis `(low, frac)`
/// brackets: bitmask order, with zero-weight corners skipped so exact hits
/// collapse to fewer points. The single corner-expansion algorithm behind
/// every interpolation path (allocating and in-place) — keep the
/// semantics here so the paths cannot diverge.
#[inline]
fn expand_corners_with(
    strides: &[usize],
    lows: &[usize],
    fracs: &[f64],
    mut push: impl FnMut(usize, f64),
) {
    let d = lows.len();
    'corner: for mask in 0u64..(1u64 << d) {
        let mut w = 1.0;
        let mut flat = 0;
        for dim in 0..d {
            let hi = mask >> dim & 1 == 1;
            let frac = fracs[dim];
            let wd = if hi { frac } else { 1.0 - frac };
            if wd == 0.0 {
                continue 'corner;
            }
            w *= wd;
            let idx = lows[dim] + usize::from(hi);
            flat += idx * strides[dim];
        }
        push(flat, w);
    }
}

/// Returns `(lower_index, fraction)` such that
/// `x ≈ axis[lower] * (1 - fraction) + axis[lower + 1] * fraction`,
/// with `fraction ∈ [0, 1)` except at the very top of the axis.
fn bracket(axis: &[f64], x: f64) -> (usize, f64) {
    debug_assert!(!axis.is_empty());
    if axis.len() == 1 || x <= axis[0] {
        return (0, 0.0);
    }
    let last = axis.len() - 1;
    if x >= axis[last] {
        return (last - 1, 1.0);
    }
    // partition_point: first index with axis[i] > x; lower bracket is i - 1.
    let hi = axis.partition_point(|&a| a <= x);
    let lo = hi - 1;
    let span = axis[hi] - axis[lo];
    ((lo), (x - axis[lo]) / span)
}

/// Builder for [`RectGrid`].
#[derive(Debug, Clone, Default)]
pub struct RectGridBuilder {
    axes: Vec<Vec<f64>>,
}

impl RectGridBuilder {
    /// Starts an empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an axis with explicit, strictly increasing coordinates.
    pub fn axis(mut self, coords: Vec<f64>) -> Self {
        self.axes.push(coords);
        self
    }

    /// Adds an axis of `n` evenly spaced points spanning `[lo, hi]`.
    pub fn axis_linspace(mut self, lo: f64, hi: f64, n: usize) -> Self {
        let coords = if n <= 1 {
            vec![lo]
        } else {
            (0..n)
                .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
                .collect()
        };
        self.axes.push(coords);
        self
    }

    /// Finalizes the grid.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidGridAxis`] if the grid has no axes or an
    /// axis is empty / not strictly increasing.
    pub fn build(self) -> Result<RectGrid> {
        RectGrid::from_axes(self.axes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2() -> RectGrid {
        RectGridBuilder::new()
            .axis(vec![0.0, 1.0, 3.0])
            .axis(vec![-1.0, 1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn index_round_trip() {
        let g = grid2();
        assert_eq!(g.num_points(), 6);
        for flat in 0..6 {
            let multi = g.multi_index(flat).unwrap();
            assert_eq!(g.flat_index(&multi).unwrap(), flat);
        }
        assert_eq!(g.flat_index(&[2, 1]).unwrap(), 5);
        assert_eq!(g.point(5).unwrap(), vec![3.0, 1.0]);
    }

    #[test]
    fn rejects_bad_axes() {
        assert!(RectGridBuilder::new().build().is_err());
        assert!(RectGridBuilder::new().axis(vec![]).build().is_err());
        assert!(RectGridBuilder::new().axis(vec![1.0, 1.0]).build().is_err());
        assert!(RectGridBuilder::new().axis(vec![2.0, 1.0]).build().is_err());
    }

    #[test]
    fn weights_sum_to_one_and_are_convex() {
        let g = grid2();
        for q in [
            [0.5, 0.0],
            [0.0, -1.0],
            [3.0, 1.0],
            [-5.0, 9.0],
            [2.9, 0.99],
        ] {
            let w = g.interp_weights(&q).unwrap();
            let total: f64 = w.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "{q:?}");
            assert!(w.weights.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }
    }

    #[test]
    fn exact_hits_collapse_to_single_corner() {
        let g = grid2();
        let w = g.interp_weights(&[1.0, 1.0]).unwrap();
        assert_eq!(w.indices.len(), 1);
        assert_eq!(w.indices[0], g.flat_index(&[1, 1]).unwrap());
    }

    #[test]
    fn interpolation_reproduces_linear_functions() {
        // f(x, y) = 2x - 3y + 1 must be reproduced exactly inside each cell.
        let g = grid2();
        let values: Vec<f64> = g
            .iter_points()
            .map(|(_, p)| 2.0 * p[0] - 3.0 * p[1] + 1.0)
            .collect();
        for q in [[0.25, -0.5], [2.0, 0.0], [0.0, 1.0], [2.999, 0.999]] {
            let got = g.interpolate(&q, &values).unwrap();
            let want = 2.0 * q[0] - 3.0 * q[1] + 1.0;
            assert!((got - want).abs() < 1e-9, "{q:?}: got {got} want {want}");
        }
    }

    #[test]
    fn clamping_saturates_at_edges() {
        let g = grid2();
        let values: Vec<f64> = g.iter_points().map(|(_, p)| p[0]).collect();
        let inside = g.interpolate(&[3.0, 0.0], &values).unwrap();
        let outside = g.interpolate(&[100.0, 0.0], &values).unwrap();
        assert!((inside - outside).abs() < 1e-12);
    }

    #[test]
    fn nearest_picks_closest_axis_point() {
        let g = grid2();
        assert_eq!(
            g.nearest(&[0.4, -1.0]).unwrap(),
            g.flat_index(&[0, 0]).unwrap()
        );
        assert_eq!(
            g.nearest(&[0.6, -1.0]).unwrap(),
            g.flat_index(&[1, 0]).unwrap()
        );
        assert_eq!(
            g.nearest(&[99.0, 99.0]).unwrap(),
            g.flat_index(&[2, 1]).unwrap()
        );
    }

    #[test]
    fn single_point_axis_is_allowed() {
        let g = RectGridBuilder::new()
            .axis(vec![5.0])
            .axis_linspace(0.0, 1.0, 3)
            .build()
            .unwrap();
        assert_eq!(g.num_points(), 3);
        let w = g.interp_weights(&[5.0, 0.5]).unwrap();
        let total: f64 = w.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interp_weights_into_matches_allocating_path() {
        let g = grid2();
        let mut corners = InterpCorners::empty();
        for q in [
            [0.5, 0.0],
            [0.0, -1.0],
            [3.0, 1.0],
            [-5.0, 9.0],
            [2.9, 0.99],
            [1.0, 1.0],
        ] {
            let alloc = g.interp_weights(&q).unwrap();
            g.interp_weights_into(&q, &mut corners).unwrap();
            assert_eq!(corners.indices(), alloc.indices.as_slice(), "{q:?}");
            assert_eq!(corners.weights(), alloc.weights.as_slice(), "{q:?}");
            let values: Vec<f64> = (0..g.num_points()).map(|i| i as f64).collect();
            assert_eq!(corners.apply(&values), alloc.apply(&values));
        }
        assert!(g.interp_weights_into(&[0.0], &mut corners).is_err());
    }

    #[test]
    fn high_dimensional_grids_fall_back_to_the_allocating_path() {
        let g = RectGridBuilder::new()
            .axis(vec![0.0, 1.0])
            .axis(vec![0.0, 1.0])
            .axis(vec![0.0, 1.0])
            .axis(vec![0.0, 1.0])
            .axis(vec![0.0, 1.0])
            .build()
            .unwrap();
        assert_eq!(g.num_dims(), MAX_INTERP_DIMS + 1);
        let q = [0.5; 5];
        let w = g.interp_weights(&q).unwrap();
        assert_eq!(w.indices.len(), 32);
        let mut corners = InterpCorners::empty();
        assert!(g.interp_weights_into(&q, &mut corners).is_err());
    }

    #[test]
    fn linspace_endpoints_are_exact() {
        let g = RectGridBuilder::new()
            .axis_linspace(-2.0, 2.0, 5)
            .build()
            .unwrap();
        assert_eq!(g.axis(0), &[-2.0, -1.0, 0.0, 1.0, 2.0]);
    }
}
