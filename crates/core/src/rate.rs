//! Proportions with Wilson-score intervals, and the JSON mapping of the
//! non-finite "undefined" markers every estimate type shares.

use serde::{Deserialize, Serialize, Value};

/// Serializes a float, mapping the non-finite "undefined" markers (NaN
/// rates on zero trials, infinite CI bounds) to JSON `null` — the bare
/// literals `NaN`/`Infinity` are not valid JSON and would corrupt every
/// emitted report.
pub(crate) fn finite_or_null(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

/// Deserializes a float field whose serialized `null` means `undefined`
/// — the inverse of [`finite_or_null`], with the type-specific undefined
/// marker (`NaN` for rates and ratios, `+∞` for upper bounds and
/// standard errors) supplied by the caller.
pub(crate) fn float_or(v: &Value, undefined: f64) -> Result<f64, serde::Error> {
    match v {
        Value::Null => Ok(undefined),
        other => f64::deserialize(other),
    }
}

/// A proportion with a Wilson-score 95% confidence interval.
///
/// # Serialized form
///
/// At `trials == 0` the rate is undefined (`NaN` in memory); it
/// serializes as JSON `null` and deserializes back to `NaN`, so emitted
/// reports stay valid JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// Number of positive events.
    pub events: usize,
    /// Number of trials.
    pub trials: usize,
    /// Point estimate `events / trials`.
    pub rate: f64,
    /// Lower 95% Wilson bound.
    pub ci_low: f64,
    /// Upper 95% Wilson bound.
    pub ci_high: f64,
}

impl Serialize for RateEstimate {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("events".to_string(), self.events.serialize()),
            ("trials".to_string(), self.trials.serialize()),
            ("rate".to_string(), finite_or_null(self.rate)),
            ("ci_low".to_string(), Value::Float(self.ci_low)),
            ("ci_high".to_string(), Value::Float(self.ci_high)),
        ])
    }
}

impl Deserialize for RateEstimate {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(RateEstimate {
            events: usize::deserialize(v.field("events")?)?,
            trials: usize::deserialize(v.field("trials")?)?,
            rate: float_or(v.field("rate")?, f64::NAN)?,
            ci_low: f64::deserialize(v.field("ci_low")?)?,
            ci_high: f64::deserialize(v.field("ci_high")?)?,
        })
    }
}

impl RateEstimate {
    /// Computes the Wilson-score interval for `events` out of `trials`.
    ///
    /// The lower bound is evaluated in rationalized form —
    /// `lo = p²/(p+a+h)` with `a = z²/2n` and `h = √(a² + 2ap(1−p))` —
    /// algebraically identical to the textbook `center − half` but free
    /// of its cancellation: at rare-event rates (`p ≲ 1e-6` against
    /// billions of trials) `center` and `half` agree to most of their
    /// significant digits and the subtraction collapses the lower bound,
    /// degenerating the interval. The upper bound `(p+a+h)/(1+2a)` is a
    /// sum of positives and needs no such treatment. Neither bound
    /// subtracts anything, so `0 < lo < p < hi` holds whenever
    /// `0 < events < trials`, and the extremes stay exact: `events == 0`
    /// gives `[0, z²/(n+z²)]`, `events == trials` its mirror.
    pub fn wilson(events: usize, trials: usize) -> RateEstimate {
        if trials == 0 {
            return RateEstimate {
                events,
                trials,
                rate: f64::NAN,
                ci_low: 0.0,
                ci_high: 1.0,
            };
        }
        let n = trials as f64;
        let p = events as f64 / n;
        let q = 1.0 - p;
        let z = 1.959_963_984_540_054; // 97.5th percentile of N(0,1)
        let a = z * z / (2.0 * n);
        let h = (a * a + 2.0 * a * p * q).sqrt();
        let ci_low = if events == 0 {
            0.0
        } else {
            p * p / (p + a + h)
        };
        let ci_high = if events == trials {
            1.0
        } else {
            ((p + a + h) / (1.0 + 2.0 * a)).min(1.0)
        };
        RateEstimate {
            events,
            trials,
            rate: p,
            ci_low,
            ci_high,
        }
    }
}

impl std::fmt::Display for RateEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Shares the report tables' formatter so a 1e-6-scale rate
        // renders in scientific notation instead of flattening to
        // `0.0000`.
        write!(
            f,
            "{}/{} = {} [95% CI {}, {}]",
            self.events,
            self.trials,
            crate::report::fmt_rate(self.rate),
            crate::report::fmt_rate(self.ci_low),
            crate::report::fmt_rate(self.ci_high)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_properties() {
        let e = RateEstimate::wilson(5, 100);
        assert!((e.rate - 0.05).abs() < 1e-12);
        assert!(e.ci_low < e.rate && e.rate < e.ci_high);
        assert!(e.ci_low >= 0.0 && e.ci_high <= 1.0);
        // More trials tighten the interval.
        let tight = RateEstimate::wilson(50, 1000);
        assert!(tight.ci_high - tight.ci_low < e.ci_high - e.ci_low);
        // Degenerate cases stay defined.
        let zero = RateEstimate::wilson(0, 10);
        assert_eq!(zero.rate, 0.0);
        assert!(zero.ci_high > 0.0);
        let none = RateEstimate::wilson(0, 0);
        assert!(none.rate.is_nan());
        // Display is informative.
        assert!(e.to_string().contains("5/100"));
    }

    #[test]
    fn wilson_survives_rare_event_rates() {
        // 3 events in a billion trials: the textbook center-minus-half
        // evaluation cancels the lower bound into garbage; the
        // rationalized form keeps a strict 0 < lo < p < hi ordering.
        let e = RateEstimate::wilson(3, 1_000_000_000);
        assert!(e.ci_low > 0.0, "no degenerate zero-width floor");
        assert!(e.ci_low < e.rate && e.rate < e.ci_high);
        assert!(e.ci_high < 1e-7, "the interval stays rare-event sized");
        // events == 0 pins exactly to [0, z²/(n+z²)].
        let zero = RateEstimate::wilson(0, 1_000_000_000);
        assert_eq!(zero.ci_low, 0.0);
        let z2 = 1.959_963_984_540_054f64 * 1.959_963_984_540_054;
        assert!((zero.ci_high - z2 / (1e9 + z2)).abs() < 1e-18);
        // Where the textbook form is numerically fine, both agree.
        let m = RateEstimate::wilson(50, 1000);
        let (n, p, z) = (1000.0, 0.05, 1.959_963_984_540_054f64);
        let denom = 1.0 + z * z / n;
        let center = (p + z * z / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt();
        assert!((m.ci_low - (center - half)).abs() < 1e-12);
        assert!((m.ci_high - (center + half)).abs() < 1e-12);
    }
}
