//! The integration kernel for operational carbon (eq. IV.7 without
//! sampling error), and the one trait each kind of signal implements.
//!
//! Every time-varying operational-carbon number in CORDOBA is an integral
//! `∫ CI(t)·P(t) dt`. This module computes it in closed form:
//!
//! * [`CiIntegral`] — a carbon-intensity signal: its point value `CI(t)`
//!   and exact `∫ CI(t) dt` over an arbitrary interval, with closed-form
//!   antiderivatives for the analytic sources (cosine and exponential terms
//!   integrate analytically) and an O(log n) prefix-sum lookup for traces;
//! * [`PowerIntegral`] — a power draw: its point value `P(t)`, exact
//!   `∫ P(t) dt`, and enumeration of its maximal constant-power segments;
//! * [`operational_carbon_exact`] — the eq. IV.7 product, computed by
//!   splitting the lifetime at power-segment boundaries and applying the CI
//!   integral exactly on each constant-power piece.
//!
//! [`Midpoint`] is the sampled reference: it wraps any source or profile and
//! answers every integral by summing `at(t)` at the midpoints of `n` equal
//! steps, so it plugs into every consumer of the two traits. The property
//! suite (`tests/prop_integral.rs`) asserts that it converges to the exact
//! kernels as `n` grows and matches them exactly for constant signals.

use crate::units::{
    count_f64, CarbonIntensity, CarbonIntensitySeconds, GramsCo2e, Joules, Seconds, Watts,
};
use std::fmt;

/// Antiderivative of `e^{k·t}` evaluated at `t`, for `k <= 0` (decline
/// rates are non-negative, so the exponent never grows).
///
/// For `k < 0` this is `e^{k·t}/k`; at `k = 0` the integrand is constant 1
/// and the antiderivative is `t` itself. The branch is on sign rather than
/// float equality: `k` is computed as `ln(1 - decline)/year`, which is
/// exactly `0.0` when `decline == 0` and strictly negative otherwise.
pub(crate) fn exp_antideriv(k: f64, t: f64) -> f64 {
    if k < 0.0 {
        (k * t).exp() / k
    } else {
        t
    }
}

/// Antiderivative of `e^{k·t}·cos(w·t)` evaluated at `t`:
/// `e^{k·t}·(k·cos(w·t) + w·sin(w·t)) / (k² + w²)`, valid for `w != 0`
/// (and in particular for `k = 0`, where it reduces to `sin(w·t)/w`).
pub(crate) fn exp_cos_antideriv(k: f64, w: f64, t: f64) -> f64 {
    let e = (k * t).exp();
    e * (k * (w * t).cos() + w * (w * t).sin()) / (k * k + w * w)
}

/// A time-varying carbon-intensity signal `CI(t)` whose time integral is
/// available in closed form (or amortized closed form, for prefix-summed
/// traces).
///
/// `t = 0` is the moment the system enters service. `at` must return
/// non-negative, finite intensities for all `t >= 0`. Implementations must
/// satisfy `integral_over(a, b) + integral_over(b, c) == integral_over(a,
/// c)` up to rounding, and agree with [`Midpoint`] in the limit of
/// infinitely many samples. `Send + Sync` is required so scenario sets can
/// be evaluated by parallel Monte Carlo workers.
///
/// # Examples
///
/// ```
/// use cordoba_carbon::integral::CiIntegral;
/// use cordoba_carbon::intensity::{grids, ConstantCi};
/// use cordoba_carbon::units::Seconds;
///
/// let ci = ConstantCi::new(grids::US_AVERAGE);
/// assert_eq!(ci.at(Seconds::from_days(100.0)), grids::US_AVERAGE);
/// let integral = ci.integral_over(Seconds::ZERO, Seconds::from_hours(1.0));
/// assert!((integral.value() - 380.0 * 3_600.0).abs() < 1e-6);
/// ```
pub trait CiIntegral: fmt::Debug + Send + Sync {
    /// The intensity at time `t` after deployment.
    fn at(&self, t: Seconds) -> CarbonIntensity;

    /// Exact `∫ CI(t) dt` over `[t0, t1]` (signed: swapping the bounds
    /// negates the result).
    #[must_use]
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds;

    /// Exact mean intensity over `[t0, t1]`.
    ///
    /// For an empty interval (`t1 <= t0`) this degenerates to the point
    /// value `at(t0)`.
    #[must_use]
    fn mean_exact(&self, t0: Seconds, t1: Seconds) -> CarbonIntensity {
        let dt = t1 - t0;
        if dt.value() > 0.0 {
            self.integral_over(t0, t1) / dt
        } else {
            self.at(t0)
        }
    }
}

/// One maximal constant-power stretch of a piecewise-constant profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSegment {
    /// Segment start time.
    pub start: Seconds,
    /// Segment end time (`end > start`).
    pub end: Seconds,
    /// The constant draw across the segment.
    pub power: Watts,
}

impl PowerSegment {
    /// The segment's duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// A time-varying power draw `P(t)` whose energy integral is available in
/// closed form and whose shape decomposes into constant-power segments.
///
/// The segment decomposition is what makes the eq. IV.7 product integral
/// exact: on a constant-power segment, `∫ CI(t)·P dt = P·∫ CI(t) dt`, and
/// the CI factor comes from [`CiIntegral`].
pub trait PowerIntegral: fmt::Debug + Send + Sync {
    /// Power at time `t` after deployment.
    fn at(&self, t: Seconds) -> Watts;

    /// Exact `∫ P(t) dt` over `[t0, t1]`.
    #[must_use]
    fn energy_integral(&self, t0: Seconds, t1: Seconds) -> Joules;

    /// Visits the maximal constant-power segments covering `[t0, t1]`, in
    /// increasing time order. Does nothing when `t1 <= t0` (or either bound
    /// is NaN).
    fn for_each_segment(&self, t0: Seconds, t1: Seconds, visit: &mut dyn FnMut(PowerSegment));
}

/// Exact operational carbon for a time-varying intensity and a
/// piecewise-constant power profile over `[0, lifetime]` (eq. IV.7):
/// the lifetime is split at the profile's segment boundaries and each
/// constant-power segment contributes `P · ∫ CI(t) dt` exactly.
///
/// [`crate::operational::operational_carbon_profile`] is the sampled
/// product integral the tests check this against.
///
/// # Examples
///
/// ```
/// use cordoba_carbon::integral::operational_carbon_exact;
/// use cordoba_carbon::intensity::{grids, ConstantCi};
/// use cordoba_carbon::operational::{operational_carbon, ConstantPower};
/// use cordoba_carbon::units::{Seconds, Watts};
///
/// let ci = ConstantCi::new(grids::US_AVERAGE);
/// let p = ConstantPower::new(Watts::new(8.3));
/// let life = Seconds::from_hours(1.0);
/// let exact = operational_carbon_exact(&ci, &p, life);
/// let closed = operational_carbon(grids::US_AVERAGE, Watts::new(8.3) * life);
/// assert!((exact.value() - closed.value()).abs() < 1e-9);
/// ```
#[must_use]
pub fn operational_carbon_exact(
    ci: &dyn CiIntegral,
    power: &dyn PowerIntegral,
    lifetime: Seconds,
) -> GramsCo2e {
    let mut total = GramsCo2e::ZERO;
    power.for_each_segment(Seconds::ZERO, lifetime, &mut |seg| {
        total += ci
            .integral_over(seg.start, seg.end)
            .carbon_at_power(seg.power);
    });
    total
}

/// The midpoint rule as a source: wraps an intensity source or a power
/// profile and answers every integral by summing the wrapped `at(t)` at the
/// midpoints of `samples` equal steps.
///
/// It implements the same trait as what it wraps, so the consumers of the
/// exact kernels ([`operational_carbon_exact`], the core crate's
/// `tcdp_under_source` and `monte_carlo_source_tcdp`) also run the sampled reference.
/// Over `[0, d]` its mean is `Σ at((i + ½)·d/n) / n`, summed in step order.
///
/// # Examples
///
/// ```
/// use cordoba_carbon::integral::{CiIntegral, Midpoint};
/// use cordoba_carbon::intensity::DiurnalCi;
/// use cordoba_carbon::units::{CarbonIntensity, Seconds};
///
/// let ci = DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0))?;
/// let day = Seconds::from_days(1.0);
/// let sampled = Midpoint::new(&ci, 96).mean_exact(Seconds::ZERO, day);
/// let exact = ci.mean_exact(Seconds::ZERO, day);
/// assert!((sampled.value() - exact.value()).abs() < 1e-9);
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[derive(Debug)]
pub struct Midpoint<'a, S: ?Sized + 'a> {
    inner: &'a S,
    samples: usize,
}

impl<'a, S: ?Sized + 'a> Midpoint<'a, S> {
    /// Wraps `inner`, integrating every interval with `samples` midpoint
    /// evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    #[must_use]
    pub fn new(inner: &'a S, samples: usize) -> Self {
        assert!(samples > 0, "samples must be > 0");
        Self { inner, samples }
    }
}

/// The step width and the midpoints of `steps` equal steps over
/// `[t0, t1]`: the one midpoint loop behind [`Midpoint`] and
/// [`crate::operational::operational_carbon_profile`].
pub(crate) fn midpoints(
    t0: Seconds,
    t1: Seconds,
    steps: usize,
) -> (f64, impl Iterator<Item = Seconds>) {
    let dt = (t1 - t0).value() / count_f64(steps);
    let mids = (0..steps).map(move |i| t0 + Seconds::new((count_f64(i) + 0.5) * dt));
    (dt, mids)
}

impl<S: CiIntegral + ?Sized> CiIntegral for Midpoint<'_, S> {
    fn at(&self, t: Seconds) -> CarbonIntensity {
        self.inner.at(t)
    }

    /// `Σ at(tᵢ)·Δt`, signed like the exact kernels.
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        let (dt, mids) = midpoints(t0, t1, self.samples);
        let sum: f64 = mids.map(|t| self.inner.at(t).value()).sum();
        CarbonIntensitySeconds::new(sum * dt)
    }

    /// `Σ at(tᵢ) / n`, or `at(t0)` for an empty or inverted interval.
    fn mean_exact(&self, t0: Seconds, t1: Seconds) -> CarbonIntensity {
        if (t1 - t0).value() > 0.0 {
            let (_, mids) = midpoints(t0, t1, self.samples);
            let sum: f64 = mids.map(|t| self.inner.at(t).value()).sum();
            CarbonIntensity::new(sum / count_f64(self.samples))
        } else {
            self.inner.at(t0)
        }
    }
}

impl<P: PowerIntegral + ?Sized> PowerIntegral for Midpoint<'_, P> {
    fn at(&self, t: Seconds) -> Watts {
        self.inner.at(t)
    }

    /// `Σ at(tᵢ)·Δt`, signed like the exact kernels.
    fn energy_integral(&self, t0: Seconds, t1: Seconds) -> Joules {
        let (dt, mids) = midpoints(t0, t1, self.samples);
        let sum: f64 = mids.map(|t| self.inner.at(t).value()).sum();
        Joules::new(sum * dt)
    }

    /// Visits the `samples` equal steps tiling `[t0, t1]`, each at the
    /// wrapped profile's power at its midpoint.
    fn for_each_segment(&self, t0: Seconds, t1: Seconds, visit: &mut dyn FnMut(PowerSegment)) {
        if t1.value().partial_cmp(&t0.value()) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let (dt, mids) = midpoints(t0, t1, self.samples);
        let mut start = t0;
        for (i, mid) in mids.enumerate() {
            let end = if i + 1 == self.samples {
                t1
            } else {
                t0 + Seconds::new(count_f64(i + 1) * dt)
            };
            visit(PowerSegment {
                start,
                end,
                power: self.inner.at(mid),
            });
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intensity::{grids, ConstantCi, DiurnalCi, SeasonalCi, TrendCi};
    use crate::operational::{
        operational_carbon, operational_carbon_profile, ConstantPower, DutyCycledPower,
    };
    use crate::units::SECONDS_PER_DAY;

    #[test]
    fn antiderivative_helpers_match_numeric_quadrature() {
        // ∫_0^T e^{kt} dt and ∫_0^T e^{kt} cos(wt) dt vs a fine midpoint sum.
        let quad = |f: &dyn Fn(f64) -> f64, t0: f64, t1: f64| {
            let n = 200_000;
            let dt = (t1 - t0) / f64::from(n);
            (0..n)
                .map(|i| f(t0 + (f64::from(i) + 0.5) * dt) * dt)
                .sum::<f64>()
        };
        for (k, w, t0, t1) in [
            (0.0, 2.0, 0.0, 3.0),
            (-0.5, 1.0, 0.5, 4.0),
            (-1e-3, 7.3, -2.0, 2.0),
        ] {
            let exact = exp_antideriv(k, t1) - exp_antideriv(k, t0);
            let numeric = quad(&|t| (k * t).exp(), t0, t1);
            assert!(
                (exact - numeric).abs() < 1e-6,
                "exp k={k}: {exact} vs {numeric}"
            );

            let exact = exp_cos_antideriv(k, w, t1) - exp_cos_antideriv(k, w, t0);
            let numeric = quad(&|t| (k * t).exp() * (w * t).cos(), t0, t1);
            assert!(
                (exact - numeric).abs() < 1e-6,
                "exp·cos k={k} w={w}: {exact} vs {numeric}"
            );
        }
    }

    #[test]
    fn mean_exact_degenerates_to_point_value_on_empty_interval() {
        let ci = DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let t = Seconds::from_hours(5.0);
        assert_eq!(ci.mean_exact(t, t), ci.at(t));
        // Inverted interval also degenerates rather than dividing by a
        // negative duration.
        assert_eq!(ci.mean_exact(t, Seconds::ZERO), ci.at(t));
    }

    #[test]
    fn integrals_are_additive_over_adjacent_intervals() {
        let seasonal = SeasonalCi::solar_rich();
        let (a, b, c) = (
            Seconds::from_days(3.0),
            Seconds::from_days(40.0),
            Seconds::from_days(400.0),
        );
        let split = seasonal.integral_over(a, b) + seasonal.integral_over(b, c);
        let whole = seasonal.integral_over(a, c);
        assert!((split.value() - whole.value()).abs() / whole.value() < 1e-12);
        // Swapped bounds negate.
        let reversed = seasonal.integral_over(c, a);
        assert!((reversed.value() + whole.value()).abs() / whole.value() < 1e-12);
    }

    #[test]
    fn exact_product_matches_closed_form_for_constants() {
        let ci = ConstantCi::new(grids::US_AVERAGE);
        let p = ConstantPower::new(Watts::new(10.0));
        let life = Seconds::from_days(30.0);
        let exact = operational_carbon_exact(&ci, &p, life);
        let closed = operational_carbon(grids::US_AVERAGE, Watts::new(10.0) * life);
        assert!((exact.value() - closed.value()).abs() / closed.value() < 1e-12);
    }

    #[test]
    fn exact_product_is_the_limit_of_the_sampled_profile_integral() {
        let ci = DiurnalCi::new(CarbonIntensity::new(380.0), CarbonIntensity::new(120.0)).unwrap();
        let p = DutyCycledPower::daily(Watts::new(8.3), Watts::new(0.5), 2.0).unwrap();
        let life = Seconds::from_days(5.0);
        let exact = operational_carbon_exact(&ci, &p, life);
        let mut last_err = f64::INFINITY;
        for steps in [1_000, 10_000, 100_000] {
            let sampled = operational_carbon_profile(&ci, &p, life, steps);
            let err = (sampled.value() - exact.value()).abs() / exact.value();
            assert!(
                err < last_err * 2.0,
                "error should tighten: {err} after {last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 1e-3, "final relative error {last_err}");
    }

    #[test]
    fn duty_cycle_segments_tile_the_interval() {
        let p = DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), 0.3)
            .unwrap();
        let mut segments: Vec<PowerSegment> = Vec::new();
        p.for_each_segment(Seconds::new(2.0), Seconds::new(27.0), &mut |s| {
            segments.push(s);
        });
        // Segments are ordered, contiguous, and alternate with the duty shape.
        assert_eq!(segments.first().unwrap().start, Seconds::new(2.0));
        assert_eq!(segments.last().unwrap().end, Seconds::new(27.0));
        for pair in segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Each segment's power matches the profile at its midpoint.
        for seg in &segments {
            let mid_t = 0.5 * (seg.start.value() + seg.end.value());
            assert_eq!(seg.power, p.at(Seconds::new(mid_t)), "segment {seg:?}");
        }
        // And the segment energies sum to the closed-form energy integral.
        let summed: Joules = segments.iter().map(|s| s.power * s.duration()).sum();
        let exact = p.energy_integral(Seconds::new(2.0), Seconds::new(27.0));
        assert!((summed.value() - exact.value()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_duty_cycles_produce_single_power_segments() {
        for (duty, expect) in [(0.0, 1.0), (1.0, 4.0)] {
            let p =
                DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), duty)
                    .unwrap();
            let mut powers: Vec<f64> = Vec::new();
            p.for_each_segment(Seconds::ZERO, Seconds::new(25.0), &mut |s| {
                powers.push(s.power.value());
            });
            assert!(
                powers.iter().all(|&w| (w - expect).abs() < 1e-12),
                "duty {duty}: {powers:?}"
            );
        }
    }

    #[test]
    fn empty_or_nan_interval_visits_no_segments() {
        let p = DutyCycledPower::daily(Watts::new(2.0), Watts::new(1.0), 6.0).unwrap();
        let mut count = 0usize;
        let day = Seconds::new(SECONDS_PER_DAY);
        p.for_each_segment(day, day, &mut |_| count += 1);
        p.for_each_segment(day, Seconds::ZERO, &mut |_| count += 1);
        p.for_each_segment(Seconds::new(f64::NAN), day, &mut |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(
            operational_carbon_exact(&ConstantCi::new(grids::WIND), &p, Seconds::ZERO),
            GramsCo2e::ZERO
        );
    }

    #[test]
    fn trend_integral_handles_zero_decline_exactly() {
        let flat = TrendCi::new(grids::US_AVERAGE, 0.0).unwrap();
        let life = Seconds::from_years(3.0);
        let integral = flat.integral_over(Seconds::ZERO, life);
        let expected = grids::US_AVERAGE * life;
        assert!((integral.value() - expected.value()).abs() / expected.value() < 1e-15);
    }

    #[test]
    fn midpoint_source_sums_at_the_step_midpoints() {
        let ci = SeasonalCi::solar_rich();
        let (n, d) = (37_usize, Seconds::from_days(3.5));
        let mid = Midpoint::new(&ci, n);
        // `at` passes through to the wrapped source.
        let t = Seconds::from_hours(7.0);
        assert_eq!(mid.at(t), ci.at(t));
        // The mean over `[0, d]` is the step-order sum of the midpoint
        // values divided by `n`, bit for bit.
        let dt = d.value() / n as f64;
        let sum: f64 = (0..n)
            .map(|i| ci.at(Seconds::new((i as f64 + 0.5) * dt)).value())
            .sum();
        assert_eq!(
            mid.mean_exact(Seconds::ZERO, d).value().to_bits(),
            (sum / n as f64).to_bits()
        );
        assert_eq!(
            mid.integral_over(Seconds::ZERO, d).value().to_bits(),
            (sum * dt).to_bits()
        );
        // An offset interval samples its own midpoints, and swapping the
        // bounds negates the integral.
        let (a, b) = (Seconds::from_days(1.0), Seconds::from_days(2.0));
        let forward = mid.integral_over(a, b);
        let backward = mid.integral_over(b, a);
        assert!((forward.value() + backward.value()).abs() / forward.value() < 1e-12);
        let exact = ci.integral_over(a, b);
        assert!((forward.value() - exact.value()).abs() / exact.value() < 1e-3);
    }

    #[test]
    fn midpoint_mean_of_an_empty_or_inverted_interval_is_the_point_value() {
        let ci = DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let mid = Midpoint::new(&ci, 8);
        let t = Seconds::from_hours(5.0);
        assert_eq!(mid.mean_exact(t, t), ci.at(t));
        assert_eq!(mid.mean_exact(t, Seconds::ZERO), ci.at(t));
        assert_eq!(mid.integral_over(t, t), CarbonIntensitySeconds::ZERO);
    }

    #[test]
    fn midpoint_profile_bills_each_step_at_its_midpoint_power() {
        let p = DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), 0.3)
            .unwrap();
        let (n, t0, t1) = (7_usize, Seconds::new(2.0), Seconds::new(27.0));
        let mid = Midpoint::new(&p, n);
        assert_eq!(mid.at(Seconds::new(1.0)), p.at(Seconds::new(1.0)));
        let mut segments: Vec<PowerSegment> = Vec::new();
        mid.for_each_segment(t0, t1, &mut |s| segments.push(s));
        // Exactly n contiguous segments tile [t0, t1] ...
        assert_eq!(segments.len(), n);
        assert_eq!(segments[0].start, t0);
        assert_eq!(segments[n - 1].end, t1);
        for pair in segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // ... each at the profile's power at its midpoint, and their
        // energies sum to the midpoint energy integral.
        for seg in &segments {
            assert!(seg.end > seg.start, "segment {seg:?}");
            let centre = seg.start + seg.duration() / 2.0;
            assert_eq!(seg.power, p.at(centre), "segment {seg:?}");
        }
        let summed: Joules = segments.iter().map(|s| s.power * s.duration()).sum();
        let sampled = mid.energy_integral(t0, t1);
        assert!((summed.value() - sampled.value()).abs() < 1e-9);
        let exact = p.energy_integral(t0, t1);
        assert!((sampled.value() - exact.value()).abs() / exact.value() < 0.2);
        // Empty, inverted, and NaN intervals visit nothing.
        let mut count = 0usize;
        mid.for_each_segment(t1, t1, &mut |_| count += 1);
        mid.for_each_segment(t1, t0, &mut |_| count += 1);
        mid.for_each_segment(Seconds::new(f64::NAN), t1, &mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn midpoint_sources_drive_the_exact_consumers() {
        // A Midpoint is itself a source and a profile, so the exact product
        // integral runs over it; with one step per day on a constant source
        // it bills each day at the duty cycle's mid-day power.
        let ci = ConstantCi::new(grids::US_AVERAGE);
        let p = DutyCycledPower::daily(Watts::new(8.0), Watts::new(1.0), 18.0).unwrap();
        let days = 4;
        let life = Seconds::from_days(f64::from(days));
        let sampled = operational_carbon_exact(&Midpoint::new(&ci, 3), &Midpoint::new(&p, 4), life);
        let expected = operational_carbon(grids::US_AVERAGE, Watts::new(8.0) * life);
        assert!((sampled.value() - expected.value()).abs() / expected.value() < 1e-12);
    }
}
