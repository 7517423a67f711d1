//! Carbon-intensity sources (`CI_use(t)`, `CI_fab`).
//!
//! The paper (§IV-B) stresses that `CI_use` varies over a system's lifetime —
//! diurnally with solar availability and annually as grids decarbonize — and
//! builds its uncertainty techniques around that. This module provides
//! constant, diurnal, trend, seasonal, and trace-driven sources, plus
//! published grid-average constants in [`grids`]. Each source implements
//! the one intensity trait, [`CiIntegral`]: a point value `at(t)` and an
//! exact interval integral. [`crate::integral::Midpoint`] wraps any of them
//! as the sampled reference.

use crate::error::CarbonError;
use crate::integral::{exp_antideriv, exp_cos_antideriv, CiIntegral};
use crate::units::{
    CarbonIntensity, CarbonIntensitySeconds, Seconds, SECONDS_PER_DAY, SECONDS_PER_YEAR,
};
use cordoba_obs::Counter;
use serde::{Deserialize, Serialize};

/// Integral-kernel traffic counters: how many point lookups and exact
/// interval integrals the trace kernel served (`--metrics` surfaces these;
/// a run dominated by lookups instead of integrals signals a consumer still
/// sampling the trace, e.g. through [`crate::integral::Midpoint`]).
static TRACE_LOOKUPS: Counter = Counter::new("carbon/trace/lookups");
static TRACE_INTEGRALS: Counter = Counter::new("carbon/trace/integrals");

/// Published lifecycle carbon intensities of common energy sources, in
/// gCO2e/kWh. Values follow IPCC/ACT-style lifecycle figures.
pub mod grids {
    use crate::units::CarbonIntensity;

    /// Coal-fired generation.
    pub const COAL: CarbonIntensity = CarbonIntensity::new(820.0);
    /// Natural-gas generation.
    pub const GAS: CarbonIntensity = CarbonIntensity::new(490.0);
    /// World average grid mix.
    pub const WORLD_AVERAGE: CarbonIntensity = CarbonIntensity::new(475.0);
    /// United States average grid mix (the paper's `CI_use` example).
    pub const US_AVERAGE: CarbonIntensity = CarbonIntensity::new(380.0);
    /// Utility-scale solar photovoltaic.
    pub const SOLAR: CarbonIntensity = CarbonIntensity::new(41.0);
    /// Onshore wind.
    pub const WIND: CarbonIntensity = CarbonIntensity::new(11.0);
    /// Hydroelectric.
    pub const HYDRO: CarbonIntensity = CarbonIntensity::new(24.0);
    /// Nuclear.
    pub const NUCLEAR: CarbonIntensity = CarbonIntensity::new(12.0);
    /// Taiwan average grid mix (typical leading-edge fab location; the
    /// paper's `CI_fab` example of 820 g/kWh corresponds to a coal-heavy
    /// fab energy source).
    pub const TAIWAN: CarbonIntensity = CarbonIntensity::new(560.0);
}

/// A constant carbon intensity (a fixed grid mix).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantCi {
    intensity: CarbonIntensity,
}

impl ConstantCi {
    /// Creates a constant source.
    #[must_use]
    pub const fn new(intensity: CarbonIntensity) -> Self {
        Self { intensity }
    }
}

impl CiIntegral for ConstantCi {
    fn at(&self, _t: Seconds) -> CarbonIntensity {
        self.intensity
    }

    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        self.intensity * (t1 - t0)
    }

    /// The mean of a constant is the constant, bit-exactly (no round trip
    /// through multiply-then-divide).
    fn mean_exact(&self, _t0: Seconds, _t1: Seconds) -> CarbonIntensity {
        self.intensity
    }
}

impl From<CarbonIntensity> for ConstantCi {
    fn from(intensity: CarbonIntensity) -> Self {
        Self::new(intensity)
    }
}

/// A diurnal (sinusoidal) intensity: low mid-day when solar is plentiful,
/// high overnight.
///
/// `CI(t) = mean + amplitude * cos(2π t / period)` with `t = 0` at the
/// overnight peak. The amplitude is clamped during construction so the
/// signal never goes negative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCi {
    mean: CarbonIntensity,
    amplitude: CarbonIntensity,
    period: Seconds,
}

impl DiurnalCi {
    /// Creates a diurnal source with a 24 h period.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is negative/non-finite or
    /// `amplitude > mean` (which would produce negative intensities).
    pub fn new(mean: CarbonIntensity, amplitude: CarbonIntensity) -> Result<Self, CarbonError> {
        CarbonError::require_in_range("diurnal mean", mean.value(), 0.0, f64::MAX)?;
        CarbonError::require_in_range("diurnal amplitude", amplitude.value(), 0.0, mean.value())?;
        Ok(Self {
            mean,
            amplitude,
            period: Seconds::new(SECONDS_PER_DAY),
        })
    }

    /// The mean intensity.
    #[must_use]
    pub fn mean(&self) -> CarbonIntensity {
        self.mean
    }
}

impl CiIntegral for DiurnalCi {
    fn at(&self, t: Seconds) -> CarbonIntensity {
        let phase = core::f64::consts::TAU * t.value() / self.period.value();
        self.mean + self.amplitude * phase.cos()
    }

    /// `∫ (m + a·cos(ωt)) dt = m·Δt + (a/ω)·(sin ωt₁ − sin ωt₀)`, here via
    /// the shared `e^{kt}·cos(ωt)` antiderivative at `k = 0`.
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        let w = core::f64::consts::TAU / self.period.value();
        let c1 = exp_cos_antideriv(0.0, w, t1.value());
        let c0 = exp_cos_antideriv(0.0, w, t0.value());
        self.mean * (t1 - t0) + self.amplitude * Seconds::new(c1 - c0)
    }
}

/// An exponentially decarbonizing grid:
/// `CI(t) = start * (1 - annual_decline)^(t in years)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrendCi {
    start: CarbonIntensity,
    annual_decline: f64,
}

impl TrendCi {
    /// Creates a decarbonization trend.
    ///
    /// `annual_decline` is the fraction by which intensity falls each year
    /// (e.g. `0.05` for 5 %/year).
    ///
    /// # Errors
    ///
    /// Returns an error if `annual_decline` is outside `[0, 1)` or `start`
    /// is negative/non-finite.
    pub fn new(start: CarbonIntensity, annual_decline: f64) -> Result<Self, CarbonError> {
        CarbonError::require_in_range("trend start", start.value(), 0.0, f64::MAX)?;
        CarbonError::require_in_range("annual decline", annual_decline, 0.0, 1.0 - 1e-12)?;
        Ok(Self {
            start,
            annual_decline,
        })
    }
}

impl CiIntegral for TrendCi {
    fn at(&self, t: Seconds) -> CarbonIntensity {
        let years = t.value() / SECONDS_PER_YEAR;
        self.start * (1.0 - self.annual_decline).powf(years)
    }

    /// `CI(t) = start·e^{kt}` with `k = ln(1 − decline)/year ≤ 0`, so
    /// `∫ = start·(e^{kt₁} − e^{kt₀})/k` (and exactly `start·Δt` for a
    /// zero decline, where `k` is exactly zero).
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        let k = (1.0 - self.annual_decline).ln() / SECONDS_PER_YEAR;
        let e1 = exp_antideriv(k, t1.value());
        let e0 = exp_antideriv(k, t0.value());
        self.start * Seconds::new(e1 - e0)
    }
}

/// A trace-driven intensity built from `(time, intensity)` samples with
/// linear interpolation; values are held flat beyond the last sample.
///
/// Construction builds a cumulative trapezoid table (`prefix[i]` is the
/// exact `∫ CI` from the first sample to sample `i`), so point lookups and
/// interval integrals are both O(log n) binary searches instead of linear
/// scans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCi {
    samples: Vec<(Seconds, CarbonIntensity)>,
    /// `prefix[i] = ∫_{t_first}^{t_i} CI(t) dt` in (gCO2e/kWh)·s; the trace
    /// is piecewise linear, so each increment is one exact trapezoid.
    prefix: Vec<f64>,
}

impl TraceCi {
    /// Builds a trace from samples sorted by time.
    ///
    /// # Errors
    ///
    /// Returns an error if `samples` is empty, not strictly increasing in
    /// time, or contains negative/non-finite intensities.
    pub fn new(samples: Vec<(Seconds, CarbonIntensity)>) -> Result<Self, CarbonError> {
        if samples.is_empty() {
            return Err(CarbonError::Empty {
                what: "carbon-intensity trace",
            });
        }
        for window in samples.windows(2) {
            if window[1].0.value() <= window[0].0.value() {
                return Err(CarbonError::NotMonotonic {
                    what: "carbon-intensity trace timestamps",
                });
            }
        }
        for &(_, ci) in &samples {
            CarbonError::require_in_range("trace intensity", ci.value(), 0.0, f64::MAX)?;
        }
        let mut prefix = Vec::with_capacity(samples.len());
        prefix.push(0.0);
        let mut acc = 0.0f64;
        for window in samples.windows(2) {
            let (t0, c0) = window[0];
            let (t1, c1) = window[1];
            acc += 0.5 * (c0.value() + c1.value()) * (t1.value() - t0.value());
            prefix.push(acc);
        }
        Ok(Self { samples, prefix })
    }

    /// Index of the first sample at or after `t` (`len` when `t` is past
    /// the last sample; 0 when it is at or before the first, or NaN).
    fn upper_sample(&self, t: Seconds) -> usize {
        self.samples
            .partition_point(|&(ts, _)| ts.value() < t.value())
    }

    /// `∫ CI` from the first sample's timestamp to `t`, with the boundary
    /// values extended flat outside the covered span (matching
    /// [`CiIntegral::at`]).
    fn cumulative(&self, t: Seconds) -> f64 {
        let (first_t, first_c) = self.samples[0];
        if t.value() <= first_t.value() {
            return first_c.value() * (t.value() - first_t.value());
        }
        let idx = self.upper_sample(t);
        let Some(&(t1, c1)) = self.samples.get(idx) else {
            let (last_t, last_c) = self.samples[self.samples.len() - 1];
            return self.prefix[self.prefix.len() - 1]
                + last_c.value() * (t.value() - last_t.value());
        };
        // t > first_t, so idx >= 1 and (idx-1, idx) brackets t; the partial
        // trapezoid up to the interpolated value completes the integral.
        let (t0, c0) = self.samples[idx - 1];
        let frac = (t.value() - t0.value()) / (t1.value() - t0.value());
        let ci_at_t = c0.value() + (c1.value() - c0.value()) * frac;
        self.prefix[idx - 1] + 0.5 * (c0.value() + ci_at_t) * (t.value() - t0.value())
    }

    /// The number of samples in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples (never true for constructed
    /// values; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `[first, last]` timestamp range the trace actually covers.
    ///
    /// Outside this span [`CiIntegral::at`] holds the boundary value flat, so
    /// fallback chains use the span as the trace tier's validity window.
    #[must_use]
    pub fn span(&self) -> (Seconds, Seconds) {
        let first = self.samples.first().map_or(Seconds::ZERO, |s| s.0);
        let last = self.samples.last().map_or(Seconds::ZERO, |s| s.0);
        (first, last)
    }
}

impl CiIntegral for TraceCi {
    /// O(log n) binary search for the bracketing samples, then the same
    /// linear interpolation (bit-identically the same arithmetic) as the
    /// linear scan it replaced.
    fn at(&self, t: Seconds) -> CarbonIntensity {
        TRACE_LOOKUPS.incr();
        let first = self.samples[0];
        if t.value() <= first.0.value() {
            return first.1;
        }
        let idx = self.upper_sample(t);
        let Some(&(t1, c1)) = self.samples.get(idx) else {
            return self.samples[self.samples.len() - 1].1;
        };
        let (t0, c0) = self.samples[idx - 1];
        let frac = (t.value() - t0.value()) / (t1.value() - t0.value());
        c0 + (c1 - c0) * frac
    }

    /// Difference of two O(log n) prefix-table lookups; exact for the
    /// trace's piecewise-linear interpolation (each piece is a trapezoid).
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        TRACE_INTEGRALS.incr();
        let c1 = self.cumulative(t1);
        let c0 = self.cumulative(t0);
        CarbonIntensitySeconds::new(c1 - c0)
    }
}

/// A composite grid model: exponential decarbonization modulated by
/// diurnal (solar) and seasonal (heating/hydro) cycles:
///
/// `CI(t) = mean·(1-decline)^years · (1 + a_d·cos(2πt/day)) · (1 + a_s·cos(2πt/year))`
///
/// with `t = 0` at the overnight/winter peak.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeasonalCi {
    mean: CarbonIntensity,
    diurnal_amplitude: f64,
    seasonal_amplitude: f64,
    annual_decline: f64,
}

impl SeasonalCi {
    /// Creates a composite grid model.
    ///
    /// # Errors
    ///
    /// Returns an error unless the amplitudes are in `[0, 1)` (the product
    /// form then never goes negative), the decline is in `[0, 1)`, and the
    /// mean is non-negative.
    pub fn new(
        mean: CarbonIntensity,
        diurnal_amplitude: f64,
        seasonal_amplitude: f64,
        annual_decline: f64,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_in_range("seasonal mean", mean.value(), 0.0, f64::MAX)?;
        CarbonError::require_in_range("diurnal amplitude", diurnal_amplitude, 0.0, 1.0 - 1e-9)?;
        CarbonError::require_in_range("seasonal amplitude", seasonal_amplitude, 0.0, 1.0 - 1e-9)?;
        CarbonError::require_in_range("annual decline", annual_decline, 0.0, 1.0 - 1e-12)?;
        Ok(Self {
            mean,
            diurnal_amplitude,
            seasonal_amplitude,
            annual_decline,
        })
    }

    /// A solar-rich grid with a deep mid-day dip and steady
    /// decarbonization (a California-style duck curve).
    ///
    /// # Panics
    ///
    /// Never panics (static parameters are valid).
    #[must_use]
    pub fn solar_rich() -> Self {
        Self::new(CarbonIntensity::new(260.0), 0.45, 0.10, 0.06)
            .expect("static parameters are valid") // cordoba-lint: allow(no-panic) — parameters are compile-time constants, validated by tests
    }

    /// A coal-heavy grid: high baseline, weak daily structure, slow
    /// decarbonization.
    ///
    /// # Panics
    ///
    /// Never panics (static parameters are valid).
    #[must_use]
    pub fn coal_heavy() -> Self {
        Self::new(CarbonIntensity::new(680.0), 0.08, 0.12, 0.015)
            .expect("static parameters are valid") // cordoba-lint: allow(no-panic) — parameters are compile-time constants, validated by tests
    }

    /// A wind/hydro grid: low baseline with strong seasonal variation.
    ///
    /// # Panics
    ///
    /// Never panics (static parameters are valid).
    #[must_use]
    pub fn wind_hydro() -> Self {
        Self::new(CarbonIntensity::new(90.0), 0.10, 0.35, 0.04)
            .expect("static parameters are valid") // cordoba-lint: allow(no-panic) — parameters are compile-time constants, validated by tests
    }
}

impl CiIntegral for SeasonalCi {
    fn at(&self, t: Seconds) -> CarbonIntensity {
        let years = t.value() / SECONDS_PER_YEAR;
        let day_phase = core::f64::consts::TAU * t.value() / SECONDS_PER_DAY;
        let year_phase = core::f64::consts::TAU * years;
        self.mean
            * ((1.0 - self.annual_decline).powf(years)
                * (1.0 + self.diurnal_amplitude * day_phase.cos())
                * (1.0 + self.seasonal_amplitude * year_phase.cos()))
    }

    /// Expanding `e^{kt}·(1 + a_d·cos ω_d t)(1 + a_s·cos ω_s t)` gives four
    /// analytically integrable terms; the cosine product folds into sum and
    /// difference frequencies via
    /// `cos A·cos B = (cos(A−B) + cos(A+B))/2`. All frequencies involved
    /// (`ω_d`, `ω_s`, `ω_d ± ω_s`) are nonzero, so the shared
    /// `e^{kt}·cos(ωt)` antiderivative applies throughout.
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        let k = (1.0 - self.annual_decline).ln() / SECONDS_PER_YEAR;
        let wd = core::f64::consts::TAU / SECONDS_PER_DAY;
        let ws = core::f64::consts::TAU / SECONDS_PER_YEAR;
        let cross = 0.5 * self.diurnal_amplitude * self.seasonal_amplitude;
        let antideriv = |t: f64| -> f64 {
            exp_antideriv(k, t)
                + self.diurnal_amplitude * exp_cos_antideriv(k, wd, t)
                + self.seasonal_amplitude * exp_cos_antideriv(k, ws, t)
                + cross * (exp_cos_antideriv(k, wd - ws, t) + exp_cos_antideriv(k, wd + ws, t))
        };
        let f1 = antideriv(t1.value());
        let f0 = antideriv(t0.value());
        self.mean * Seconds::new(f1 - f0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integral::Midpoint;

    #[test]
    fn seasonal_profile_oscillates_and_declines() {
        let ci = SeasonalCi::solar_rich();
        // Mid-day dip vs overnight peak on day one.
        let night = ci.at(Seconds::ZERO);
        let noon = ci.at(Seconds::from_hours(12.0));
        assert!(night.value() > 1.5 * noon.value());
        // Annual mean declines year over year (sample whole years so the
        // cycles average out).
        let y0 = Midpoint::new(&ci, 8_760).mean_exact(Seconds::ZERO, Seconds::from_years(1.0));
        let shifted = SeasonalCi::solar_rich();
        let mut total = 0.0;
        let samples = 8_760;
        for i in 0..samples {
            let t = Seconds::from_years(2.0)
                + Seconds::from_hours(f64::from(i) * (8_760.0 / f64::from(samples)));
            total += shifted.at(t).value();
        }
        let y2 = total / f64::from(samples);
        assert!(y2 < y0.value() * 0.95, "year-2 mean {y2} vs year-0 {y0}");
    }

    #[test]
    fn seasonal_profiles_stay_non_negative_for_a_decade() {
        for profile in [
            SeasonalCi::solar_rich(),
            SeasonalCi::coal_heavy(),
            SeasonalCi::wind_hydro(),
        ] {
            for hour in (0..87_600).step_by(97) {
                let v = profile.at(Seconds::from_hours(f64::from(hour))).value();
                assert!(v >= 0.0, "{profile:?} at hour {hour}: {v}");
            }
        }
    }

    #[test]
    fn preset_ordering_is_sensible() {
        let t = Seconds::from_days(10.0);
        assert!(SeasonalCi::coal_heavy().at(t) > SeasonalCi::solar_rich().at(t));
        assert!(SeasonalCi::solar_rich().at(t) > SeasonalCi::wind_hydro().at(t));
    }

    #[test]
    fn seasonal_validation() {
        let mean = CarbonIntensity::new(100.0);
        assert!(SeasonalCi::new(mean, 1.0, 0.0, 0.0).is_err());
        assert!(SeasonalCi::new(mean, 0.0, 1.0, 0.0).is_err());
        assert!(SeasonalCi::new(mean, 0.5, 0.5, 1.0).is_err());
        assert!(SeasonalCi::new(CarbonIntensity::new(-1.0), 0.1, 0.1, 0.1).is_err());
        assert!(SeasonalCi::new(mean, 0.5, 0.5, 0.1).is_ok());
    }

    #[test]
    fn constant_is_constant() {
        let ci = ConstantCi::new(grids::US_AVERAGE);
        assert_eq!(ci.at(Seconds::ZERO), CarbonIntensity::new(380.0));
        assert_eq!(ci.at(Seconds::from_years(3.0)), CarbonIntensity::new(380.0));
        assert_eq!(
            Midpoint::new(&ci, 7).mean_exact(Seconds::ZERO, Seconds::from_days(10.0)),
            CarbonIntensity::new(380.0)
        );
    }

    #[test]
    fn constant_from_intensity() {
        let ci: ConstantCi = grids::SOLAR.into();
        assert_eq!(ci.at(Seconds::ZERO), grids::SOLAR);
    }

    #[test]
    fn diurnal_oscillates_around_mean_and_stays_non_negative() {
        let ci = DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(150.0)).unwrap();
        // Peak at t = 0 (overnight), trough at mid-day.
        assert!((ci.at(Seconds::ZERO).value() - 550.0).abs() < 1e-9);
        assert!((ci.at(Seconds::from_hours(12.0)).value() - 250.0).abs() < 1e-6);
        // Mean over a whole number of days recovers the mean.
        let mean = Midpoint::new(&ci, 4_800).mean_exact(Seconds::ZERO, Seconds::from_days(2.0));
        assert!((mean.value() - 400.0).abs() < 0.5);
        for h in 0..48 {
            assert!(ci.at(Seconds::from_hours(f64::from(h))).value() >= 0.0);
        }
    }

    #[test]
    fn diurnal_rejects_negative_dips() {
        let err = DiurnalCi::new(CarbonIntensity::new(100.0), CarbonIntensity::new(200.0));
        assert!(err.is_err());
    }

    #[test]
    fn trend_decays_annually() {
        let ci = TrendCi::new(CarbonIntensity::new(400.0), 0.10).unwrap();
        assert!((ci.at(Seconds::ZERO).value() - 400.0).abs() < 1e-9);
        assert!((ci.at(Seconds::from_years(1.0)).value() - 360.0).abs() < 1e-9);
        assert!((ci.at(Seconds::from_years(2.0)).value() - 324.0).abs() < 1e-9);
    }

    #[test]
    fn trend_rejects_bad_decline() {
        assert!(TrendCi::new(CarbonIntensity::new(400.0), 1.0).is_err());
        assert!(TrendCi::new(CarbonIntensity::new(400.0), -0.1).is_err());
    }

    #[test]
    fn trace_interpolates_and_clamps() {
        let trace = TraceCi::new(vec![
            (Seconds::new(0.0), CarbonIntensity::new(100.0)),
            (Seconds::new(10.0), CarbonIntensity::new(300.0)),
            (Seconds::new(20.0), CarbonIntensity::new(200.0)),
        ])
        .unwrap();
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.at(Seconds::new(-5.0)), CarbonIntensity::new(100.0));
        assert_eq!(trace.at(Seconds::new(5.0)), CarbonIntensity::new(200.0));
        assert_eq!(trace.at(Seconds::new(15.0)), CarbonIntensity::new(250.0));
        assert_eq!(trace.at(Seconds::new(99.0)), CarbonIntensity::new(200.0));
    }

    #[test]
    fn single_sample_trace_is_flat_everywhere() {
        let trace = TraceCi::new(vec![(Seconds::new(50.0), CarbonIntensity::new(321.0))]).unwrap();
        assert_eq!(trace.len(), 1);
        for t in [-1e9, 0.0, 50.0, 51.0, 1e12] {
            assert_eq!(trace.at(Seconds::new(t)), CarbonIntensity::new(321.0));
        }
        assert_eq!(trace.span(), (Seconds::new(50.0), Seconds::new(50.0)));
        // The integral is the flat extension on both sides of the
        // zero-width span.
        let integral = trace.integral_over(Seconds::new(40.0), Seconds::new(60.0));
        assert!((integral.value() - 321.0 * 20.0).abs() < 1e-9);
        assert_eq!(
            trace.integral_over(Seconds::new(50.0), Seconds::new(50.0)),
            CarbonIntensitySeconds::ZERO
        );
        // Sampled mean over a span that starts at 0 agrees too.
        let sampled = Midpoint::new(&trace, 16).mean_exact(Seconds::ZERO, Seconds::new(100.0));
        assert!((sampled.value() - 321.0).abs() < 1e-12);
    }

    #[test]
    fn mean_over_zero_duration_returns_the_point_value() {
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        // A zero-length interval degenerates to the point value at t = 0.
        let sampled = Midpoint::new(&diurnal, 64).mean_exact(Seconds::ZERO, Seconds::ZERO);
        assert!((sampled.value() - diurnal.at(Seconds::ZERO).value()).abs() < 1e-12);
        assert_eq!(
            diurnal.mean_exact(Seconds::ZERO, Seconds::ZERO),
            diurnal.at(Seconds::ZERO)
        );
    }

    #[test]
    fn mean_over_single_sample_is_the_midpoint_value() {
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let d = Seconds::from_hours(6.0);
        assert_eq!(
            Midpoint::new(&diurnal, 1).mean_exact(Seconds::ZERO, d),
            diurnal.at(d / 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "samples must be > 0")]
    fn mean_over_zero_samples_panics_as_documented() {
        let ci = ConstantCi::new(grids::US_AVERAGE);
        let _ = Midpoint::new(&ci, 0);
    }

    #[test]
    fn trace_rejects_empty_and_unsorted() {
        assert!(TraceCi::new(vec![]).is_err());
        let unsorted = vec![
            (Seconds::new(10.0), CarbonIntensity::new(1.0)),
            (Seconds::new(5.0), CarbonIntensity::new(2.0)),
        ];
        assert!(TraceCi::new(unsorted).is_err());
        let negative = vec![(Seconds::new(0.0), CarbonIntensity::new(-1.0))];
        assert!(TraceCi::new(negative).is_err());
    }

    #[test]
    fn grid_constants_are_ordered_sensibly() {
        assert!(grids::COAL > grids::GAS);
        assert!(grids::GAS > grids::US_AVERAGE);
        assert!(grids::US_AVERAGE > grids::SOLAR);
        assert!(grids::SOLAR > grids::WIND);
    }

    #[test]
    fn sources_are_object_safe() {
        let sources: Vec<Box<dyn CiIntegral>> = vec![
            Box::new(ConstantCi::new(grids::GAS)),
            Box::new(TrendCi::new(grids::GAS, 0.02).unwrap()),
        ];
        assert!(sources[0].at(Seconds::ZERO) > sources[1].at(Seconds::from_years(10.0)));
    }
}
