//! Operational-carbon accounting (paper eq. IV.6 and IV.7).
//!
//! The simple form is `C_operational = CI_use * E` for a known total energy;
//! the general form integrates a time-varying intensity against a power
//! profile: `C_operational = ∫ CI_use(t) P(t) dt`.

use crate::error::CarbonError;
use crate::integral::{midpoints, CiIntegral, PowerIntegral, PowerSegment};
use crate::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Operational carbon for a known total energy at constant intensity
/// (eq. IV.6).
///
/// # Examples
///
/// ```
/// use cordoba_carbon::operational::operational_carbon;
/// use cordoba_carbon::units::{CarbonIntensity, Joules};
///
/// // 332 J per task at 380 gCO2e/kWh.
/// let c = operational_carbon(CarbonIntensity::new(380.0), Joules::new(332.0));
/// assert!((c.value() - 0.03504).abs() < 1e-4);
/// ```
#[must_use]
pub fn operational_carbon(ci: CarbonIntensity, energy: Joules) -> GramsCo2e {
    ci * energy.to_kilowatt_hours()
}

/// A constant power draw.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantPower {
    power: Watts,
}

impl ConstantPower {
    /// Creates a constant profile.
    #[must_use]
    pub const fn new(power: Watts) -> Self {
        Self { power }
    }
}

impl PowerIntegral for ConstantPower {
    fn at(&self, _t: Seconds) -> Watts {
        self.power
    }

    fn energy_integral(&self, t0: Seconds, t1: Seconds) -> Joules {
        self.power * (t1 - t0)
    }

    fn for_each_segment(&self, t0: Seconds, t1: Seconds, visit: &mut dyn FnMut(PowerSegment)) {
        if t1.value() > t0.value() {
            visit(PowerSegment {
                start: t0,
                end: t1,
                power: self.power,
            });
        }
    }
}

/// A duty-cycled profile: `active` power for the first
/// `duty` fraction of each period, `idle` power (off-state leakage — the
/// paper notes idle time still consumes energy) for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DutyCycledPower {
    active: Watts,
    idle: Watts,
    period: Seconds,
    duty: f64,
}

impl DutyCycledPower {
    /// Creates a duty-cycled profile.
    ///
    /// # Errors
    ///
    /// Returns an error if `duty` is outside `[0, 1]`, the period is not
    /// positive, or either power is negative.
    pub fn new(
        active: Watts,
        idle: Watts,
        period: Seconds,
        duty: f64,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_in_range("duty", duty, 0.0, 1.0)?;
        CarbonError::require_positive("period", period.value())?;
        CarbonError::require_in_range("active power", active.value(), 0.0, f64::MAX)?;
        CarbonError::require_in_range("idle power", idle.value(), 0.0, f64::MAX)?;
        Ok(Self {
            active,
            idle,
            period,
            duty,
        })
    }

    /// A daily cycle with `active_hours` of use per day.
    ///
    /// # Errors
    ///
    /// Returns an error if `active_hours` is outside `[0, 24]` or powers
    /// are negative.
    pub fn daily(active: Watts, idle: Watts, active_hours: f64) -> Result<Self, CarbonError> {
        CarbonError::require_in_range("active hours", active_hours, 0.0, 24.0)?;
        Self::new(active, idle, Seconds::from_days(1.0), active_hours / 24.0)
    }

    /// Mean power over a full period.
    #[must_use]
    pub fn mean_power(&self) -> Watts {
        self.active * self.duty + self.idle * (1.0 - self.duty)
    }
}

impl DutyCycledPower {
    /// Exact `∫ P` from the period-aligned origin to `t`: whole periods at
    /// the per-period energy plus the partial period's active-then-idle
    /// split. The profile is periodic over all of `t`, so this works for
    /// negative times too.
    fn cumulative_energy(&self, t: Seconds) -> Joules {
        let cycles = (t.value() / self.period.value()).floor();
        let phase = t - self.period * cycles;
        let active_len = self.period * self.duty;
        let per_period = self.active * active_len + self.idle * (self.period - active_len);
        let partial = self.active * phase.min(active_len)
            + self.idle * (phase - active_len).max(Seconds::ZERO);
        per_period * cycles + partial
    }
}

impl PowerIntegral for DutyCycledPower {
    fn at(&self, t: Seconds) -> Watts {
        let phase = (t.value() / self.period.value()).rem_euclid(1.0);
        if phase < self.duty {
            self.active
        } else {
            self.idle
        }
    }

    fn energy_integral(&self, t0: Seconds, t1: Seconds) -> Joules {
        self.cumulative_energy(t1) - self.cumulative_energy(t0)
    }

    /// Walks the periods overlapping `[t0, t1]`, clipping the active
    /// (`[k·T, k·T + duty·T)`) and idle stretches of each to the requested
    /// interval — the half-open active window matches
    /// [`PowerIntegral::at`]'s `phase < duty` rule. Zero-width stretches
    /// (duty 0 or 1) are skipped, so degenerate cycles yield one segment
    /// per period. O((t1 − t0)/period) segments.
    fn for_each_segment(&self, t0: Seconds, t1: Seconds, visit: &mut dyn FnMut(PowerSegment)) {
        // `partial_cmp` keeps the guard NaN-safe: a NaN bound is not
        // `Greater`, so the interval is treated as empty.
        if t1.value().partial_cmp(&t0.value()) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let active_len = self.period * self.duty;
        let mut cycle = (t0.value() / self.period.value()).floor();
        loop {
            let start = self.period * cycle;
            if start.value() >= t1.value() {
                break;
            }
            let a0 = start.max(t0);
            let a1 = (start + active_len).min(t1);
            if a1.value() > a0.value() {
                visit(PowerSegment {
                    start: a0,
                    end: a1,
                    power: self.active,
                });
            }
            let i0 = (start + active_len).max(t0);
            let i1 = (start + self.period).min(t1);
            if i1.value() > i0.value() {
                visit(PowerSegment {
                    start: i0,
                    end: i1,
                    power: self.idle,
                });
            }
            cycle += 1.0;
        }
    }
}

/// Operational carbon for a time-varying intensity and power profile
/// (eq. IV.7), by midpoint integration of `CI(t) * P(t)`: the sampled
/// product integral that [`crate::integral::operational_carbon_exact`] is
/// checked against.
///
/// # Panics
///
/// Panics if `steps == 0`.
#[must_use]
pub fn operational_carbon_profile(
    ci: &dyn CiIntegral,
    power: &dyn PowerIntegral,
    lifetime: Seconds,
    steps: usize,
) -> GramsCo2e {
    assert!(steps > 0, "steps must be > 0");
    let (dt, mids) = midpoints(Seconds::ZERO, lifetime, steps);
    let mut grams = 0.0;
    for t in mids {
        let e = (power.at(t) * Seconds::new(dt)).to_kilowatt_hours();
        grams += (ci.at(t) * e).value();
    }
    GramsCo2e::new(grams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integral::Midpoint;
    use crate::intensity::{grids, ConstantCi, DiurnalCi};

    #[test]
    fn table_iii_operational_example() {
        // 8.3 W for 1 hour at 380 g/kWh -> 3.154 gCO2e per hour of use.
        let e = Watts::new(8.3) * Seconds::from_hours(1.0);
        let c = operational_carbon(grids::US_AVERAGE, e);
        assert!((c.value() - 3.154).abs() < 1e-3);
    }

    #[test]
    fn profile_integration_matches_closed_form_for_constants() {
        let ci = ConstantCi::new(grids::US_AVERAGE);
        let p = ConstantPower::new(Watts::new(10.0));
        let life = Seconds::from_days(30.0);
        let integrated = operational_carbon_profile(&ci, &p, life, 1_000);
        let closed = operational_carbon(grids::US_AVERAGE, Watts::new(10.0) * life);
        assert!((integrated.value() - closed.value()).abs() / closed.value() < 1e-9);
    }

    #[test]
    fn duty_cycle_energy() {
        // 2 h/day active at 8.3 W, idle at 0.5 W.
        let p = DutyCycledPower::daily(Watts::new(8.3), Watts::new(0.5), 2.0).unwrap();
        let day =
            Midpoint::new(&p, 24 * 60).energy_integral(Seconds::ZERO, Seconds::from_days(1.0));
        let expected = 8.3 * 2.0 * crate::units::SECONDS_PER_HOUR
            + 0.5 * 22.0 * crate::units::SECONDS_PER_HOUR;
        assert!((day.value() - expected).abs() / expected < 1e-6);
        let mean = p.mean_power();
        assert!((mean.value() - expected / crate::units::SECONDS_PER_DAY).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle_shape() {
        let p = DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), 0.3)
            .unwrap();
        assert_eq!(p.at(Seconds::new(1.0)), Watts::new(4.0));
        assert_eq!(p.at(Seconds::new(5.0)), Watts::new(1.0));
        // Periodic.
        assert_eq!(p.at(Seconds::new(11.0)), Watts::new(4.0));
    }

    #[test]
    fn duty_cycle_validation() {
        assert!(DutyCycledPower::daily(Watts::new(1.0), Watts::new(0.1), 25.0).is_err());
        assert!(
            DutyCycledPower::new(Watts::new(1.0), Watts::new(0.1), Seconds::ZERO, 0.5).is_err()
        );
        assert!(
            DutyCycledPower::new(Watts::new(-1.0), Watts::new(0.1), Seconds::new(1.0), 0.5)
                .is_err()
        );
    }

    #[test]
    fn diurnal_ci_with_constant_power_averages_out() {
        // Over whole days, a diurnal CI with mean == constant CI gives the
        // same operational carbon for constant power.
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(380.0), CarbonIntensity::new(120.0)).unwrap();
        let constant = ConstantCi::new(grids::US_AVERAGE);
        let p = ConstantPower::new(Watts::new(5.0));
        let life = Seconds::from_days(10.0);
        let a = operational_carbon_profile(&diurnal, &p, life, 24_000);
        let b = operational_carbon_profile(&constant, &p, life, 24_000);
        assert!((a.value() - b.value()).abs() / b.value() < 1e-3);
    }

    #[test]
    fn solar_aligned_duty_cycle_cuts_carbon() {
        // Running the duty cycle mid-day (when the diurnal CI dips) emits
        // less carbon than the overnight peak. DiurnalCi peaks at t=0 and
        // dips at 12 h; our duty window is the first `duty` fraction of each
        // day, so shift comparison via two profiles sampled against the
        // diurnal curve directly.
        let ci = DiurnalCi::new(CarbonIntensity::new(380.0), CarbonIntensity::new(120.0)).unwrap();
        let night = DutyCycledPower::daily(Watts::new(8.0), Watts::new(0.0), 4.0).unwrap();
        let life = Seconds::from_days(5.0);
        let night_c = operational_carbon_profile(&ci, &night, life, 24_000);
        // Same energy at constant mean CI.
        let mean_c = operational_carbon(
            CarbonIntensity::new(380.0),
            Midpoint::new(&night, 24_000).energy_integral(Seconds::ZERO, life),
        );
        // Overnight window catches the high-CI phase.
        assert!(night_c > mean_c);
    }

    #[test]
    fn zero_energy_zero_carbon() {
        assert_eq!(
            operational_carbon(grids::COAL, Joules::ZERO),
            GramsCo2e::ZERO
        );
    }

    #[test]
    fn energy_over_zero_duration_is_zero() {
        let p = DutyCycledPower::daily(Watts::new(8.3), Watts::new(0.5), 2.0).unwrap();
        assert_eq!(
            Midpoint::new(&p, 100).energy_integral(Seconds::ZERO, Seconds::ZERO),
            Joules::ZERO
        );
        assert_eq!(
            p.energy_integral(Seconds::ZERO, Seconds::ZERO),
            Joules::ZERO
        );
    }

    #[test]
    fn energy_over_one_step_is_the_midpoint_rectangle() {
        // With a single midpoint sample the whole interval is billed at
        // `at(duration / 2)`.
        let p = DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), 0.3)
            .unwrap();
        let d = Seconds::new(8.0);
        let one = Midpoint::new(&p, 1).energy_integral(Seconds::ZERO, d);
        let expected = p.at(Seconds::new(4.0)) * d;
        assert_eq!(one, expected);
    }

    #[test]
    #[should_panic(expected = "samples must be > 0")]
    fn energy_over_zero_steps_panics_as_documented() {
        let p = ConstantPower::new(Watts::new(1.0));
        let _ = Midpoint::new(&p, 0);
    }

    #[test]
    fn duty_cycle_exact_energy_matches_hand_count() {
        // 2 h/day at 8.3 W active, 0.5 W idle: exact over 1 day and over a
        // partial interval straddling the active/idle boundary.
        let p = DutyCycledPower::daily(Watts::new(8.3), Watts::new(0.5), 2.0).unwrap();
        let day = p.energy_integral(Seconds::ZERO, Seconds::from_days(1.0));
        let expected = 8.3 * 2.0 * crate::units::SECONDS_PER_HOUR
            + 0.5 * 22.0 * crate::units::SECONDS_PER_HOUR;
        assert!((day.value() - expected).abs() / expected < 1e-12);
        // [1 h, 3 h] covers one active hour then one idle hour.
        let window = p.energy_integral(Seconds::from_hours(1.0), Seconds::from_hours(3.0));
        let expected = (8.3 + 0.5) * crate::units::SECONDS_PER_HOUR;
        assert!((window.value() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn duty_cycle_exact_energy_is_additive_and_periodic() {
        let p = DutyCycledPower::new(Watts::new(4.0), Watts::new(1.0), Seconds::new(10.0), 0.3)
            .unwrap();
        let a = p.energy_integral(Seconds::new(-7.0), Seconds::new(3.0));
        let b = p.energy_integral(Seconds::new(3.0), Seconds::new(13.0));
        let whole = p.energy_integral(Seconds::new(-7.0), Seconds::new(13.0));
        assert!((a.value() + b.value() - whole.value()).abs() < 1e-9);
        // One full period anywhere equals mean power times the period.
        let per_period = p.mean_power() * Seconds::new(10.0);
        assert!((a.value() - per_period.value()).abs() / per_period.value() < 1e-12);
    }
}
