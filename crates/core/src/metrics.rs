//! Carbon- and energy-efficiency metrics (§III).
//!
//! The central object is a [`DesignPoint`]: one hardware candidate
//! characterized by its task delay `D`, task energy `E`, embodied carbon,
//! die area, and power. Metrics are evaluated against an
//! [`OperationalContext`] — how many times the task runs over the
//! hardware's life and at what use-phase carbon intensity — because total
//! carbon (and therefore tCDP and CCI) is meaningless without one.
//!
//! | resource | per-task metric | rate-weighted metric |
//! |----------|-----------------|----------------------|
//! | energy   | `E_task` (J)    | EDP (J·s)            |
//! | carbon   | CCI (gCO2e/task)| tCDP (gCO2e·s)       |

use cordoba_carbon::operational::operational_carbon;
use cordoba_carbon::units::{
    CarbonIntensity, GramSecondsCo2e, GramsCo2e, JouleSeconds, Joules, Seconds, SquareCentimeters,
    Watts,
};
use cordoba_carbon::CarbonError;
use cordoba_obs::Name;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One candidate hardware design, characterized for a fixed task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Candidate name (e.g. `"a48"`, `"3D_2K_8M"`, `"IC-E"`), shared with
    /// the configuration it was built from.
    pub name: Name,
    /// Execution time of one task (`D`).
    pub delay: Seconds,
    /// Energy of one task execution (`E`).
    pub energy: Joules,
    /// Embodied carbon of manufacturing the hardware.
    pub embodied: GramsCo2e,
    /// Total die area (for area constraints and Fig. 7).
    pub area: SquareCentimeters,
}

impl DesignPoint {
    /// Creates a design point.
    ///
    /// # Errors
    ///
    /// Returns an error if delay/energy/area are not positive or embodied
    /// carbon is negative.
    pub fn new(
        name: impl Into<Name>,
        delay: Seconds,
        energy: Joules,
        embodied: GramsCo2e,
        area: SquareCentimeters,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_positive("delay", delay.value())?;
        CarbonError::require_positive("energy", energy.value())?;
        CarbonError::require_in_range("embodied", embodied.value(), 0.0, f64::MAX)?;
        CarbonError::require_positive("area", area.value())?;
        Ok(Self {
            name: name.into(),
            delay,
            energy,
            embodied,
            area,
        })
    }

    /// Average power over a task execution.
    #[must_use]
    pub fn power(&self) -> Watts {
        self.energy / self.delay
    }

    /// Energy-delay product (J·s — "Joules per Hz").
    #[must_use]
    pub fn edp(&self) -> JouleSeconds {
        self.energy * self.delay
    }

    /// Energy-delay² product (J·s²).
    #[must_use]
    pub fn ed2p(&self) -> f64 {
        self.energy.value() * self.delay.value() * self.delay.value()
    }

    /// Operational carbon over `ctx.tasks` executions.
    #[must_use]
    pub fn operational(&self, ctx: &OperationalContext) -> GramsCo2e {
        operational_carbon(ctx.ci_use, self.energy * ctx.tasks)
    }

    /// Total lifetime carbon `tC = C_embodied + C_operational` (§IV).
    #[must_use]
    pub fn total_carbon(&self, ctx: &OperationalContext) -> GramsCo2e {
        self.embodied + self.operational(ctx)
    }

    /// Computational carbon intensity `CCI = tC / N_task` \[50\].
    #[must_use]
    pub fn cci(&self, ctx: &OperationalContext) -> GramsCo2e {
        self.total_carbon(ctx) / ctx.tasks
    }

    /// Total-carbon-delay product `tCDP = tC · D` (gCO2e·s — the paper's
    /// carbon-efficiency metric).
    #[must_use]
    pub fn tcdp(&self, ctx: &OperationalContext) -> GramSecondsCo2e {
        self.total_carbon(ctx) * self.delay
    }

    /// Total-carbon-delay² product (gCO2e·s²) — shown in §III-C to lack
    /// the justification `tCDP` has; provided for comparison studies.
    #[must_use]
    pub fn tcd2p(&self, ctx: &OperationalContext) -> f64 {
        self.total_carbon(ctx).value() * self.delay.value() * self.delay.value()
    }

    /// The embodied share of total carbon, in `[0, 1]`.
    #[must_use]
    pub fn embodied_share(&self, ctx: &OperationalContext) -> f64 {
        self.embodied.value() / self.total_carbon(ctx).value()
    }

    /// `C_embodied · D` — the x-axis of the paper's Fig. 12 uncertainty
    /// analysis (§IV-B).
    #[must_use]
    pub fn embodied_delay(&self) -> GramSecondsCo2e {
        self.embodied * self.delay
    }

    /// `E · D` per task execution — the y-axis of Fig. 12.
    #[must_use]
    pub fn energy_delay(&self) -> JouleSeconds {
        self.energy * self.delay
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: D={:.3e} s, E={:.3e} J, C_emb={:.1} gCO2e",
            self.name,
            self.delay.value(),
            self.energy.value(),
            self.embodied.value()
        )
    }
}

/// How the hardware is used over its life: task count and grid intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationalContext {
    /// Number of task executions over the hardware lifetime
    /// (the paper's "operational time in number of inferences").
    pub tasks: f64,
    /// Use-phase carbon intensity.
    pub ci_use: CarbonIntensity,
}

impl OperationalContext {
    /// Creates a context.
    ///
    /// # Errors
    ///
    /// Returns an error if `tasks` is not positive or the intensity is
    /// negative.
    pub fn new(tasks: f64, ci_use: CarbonIntensity) -> Result<Self, CarbonError> {
        CarbonError::require_positive("tasks", tasks)?;
        CarbonError::require_in_range("ci_use", ci_use.value(), 0.0, f64::MAX)?;
        Ok(Self { tasks, ci_use })
    }

    /// A context at the paper's default 380 gCO2e/kWh.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is not positive (use [`OperationalContext::new`]
    /// for fallible construction).
    #[must_use]
    pub fn us_grid(tasks: f64) -> Self {
        Self::new(tasks, cordoba_carbon::intensity::grids::US_AVERAGE)
            .expect("tasks must be positive") // cordoba-lint: allow(no-panic) — documented "# Panics" contract
    }
}

/// Which metric an optimization targets (§III-C: the target should derive
/// from the application scenario, not a preconceived carbon/delay weight).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MetricKind {
    /// Energy per task.
    Energy,
    /// Energy-delay product.
    Edp,
    /// Energy-delay² product.
    Ed2p,
    /// Total lifetime carbon.
    TotalCarbon,
    /// Carbon per task.
    Cci,
    /// Total-carbon-delay product (the paper's carbon-efficiency metric).
    Tcdp,
    /// Total-carbon-delay² product.
    Tcd2p,
    /// Task delay alone.
    Delay,
    /// Die area alone.
    Area,
}

impl MetricKind {
    /// Evaluates this metric for `point` under `ctx`. All metrics are
    /// "lower is better".
    #[must_use]
    pub fn evaluate(self, point: &DesignPoint, ctx: &OperationalContext) -> f64 {
        match self {
            Self::Energy => point.energy.value(),
            Self::Edp => point.edp().value(),
            Self::Ed2p => point.ed2p(),
            Self::TotalCarbon => point.total_carbon(ctx).value(),
            Self::Cci => point.cci(ctx).value(),
            Self::Tcdp => point.tcdp(ctx).value(),
            Self::Tcd2p => point.tcd2p(ctx),
            Self::Delay => point.delay.value(),
            Self::Area => point.area.value(),
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Energy => "E_task",
            Self::Edp => "EDP",
            Self::Ed2p => "ED2P",
            Self::TotalCarbon => "tC",
            Self::Cci => "CCI",
            Self::Tcdp => "tCDP",
            Self::Tcd2p => "tCD2P",
            Self::Delay => "D",
            Self::Area => "A",
        }
    }
}

/// Finds the point minimizing `metric` under `ctx`.
///
/// Returns `None` for an empty slice.
#[must_use]
pub fn argmin<'a>(
    points: &'a [DesignPoint],
    metric: MetricKind,
    ctx: &OperationalContext,
) -> Option<&'a DesignPoint> {
    points
        .iter()
        .min_by(|a, b| metric.evaluate(a, ctx).total_cmp(&metric.evaluate(b, ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_carbon::units::JOULES_PER_KILOWATT_HOUR;

    fn point(name: &str, d: f64, e: f64, emb: f64) -> DesignPoint {
        DesignPoint::new(
            name,
            Seconds::new(d),
            Joules::new(e),
            GramsCo2e::new(emb),
            SquareCentimeters::new(1.0),
        )
        .unwrap()
    }

    #[test]
    fn edp_and_power() {
        let p = point("x", 0.125, 0.4, 3000.0);
        assert!((p.edp().value() - 0.05).abs() < 1e-12);
        assert!((p.power().value() - 3.2).abs() < 1e-12);
        assert!((p.ed2p() - 0.00625).abs() < 1e-12);
    }

    #[test]
    fn total_carbon_splits_into_components() {
        let p = point("x", 1.0, JOULES_PER_KILOWATT_HOUR, 1000.0); // 1 kWh per task
        let ctx = OperationalContext::us_grid(10.0);
        assert!((p.operational(&ctx).value() - 3800.0).abs() < 1e-9);
        assert!((p.total_carbon(&ctx).value() - 4800.0).abs() < 1e-9);
        assert!((p.cci(&ctx).value() - 480.0).abs() < 1e-9);
        assert!((p.tcdp(&ctx).value() - 4800.0).abs() < 1e-9);
        assert!((p.embodied_share(&ctx) - 1000.0 / 4800.0).abs() < 1e-12);
        assert!((p.tcd2p(&ctx) - 4800.0).abs() < 1e-9);
    }

    #[test]
    fn embodied_dominates_at_low_task_counts() {
        let p = point("x", 1.0, 100.0, 3000.0);
        let low = OperationalContext::us_grid(1.0);
        let high = OperationalContext::us_grid(1e9);
        assert!(p.embodied_share(&low) > 0.99);
        assert!(p.embodied_share(&high) < 0.01);
    }

    #[test]
    fn fig12_axes() {
        let p = point("x", 2.0, 5.0, 100.0);
        assert_eq!(
            p.embodied_delay(),
            GramsCo2e::new(100.0) * Seconds::new(2.0)
        );
        assert_eq!(p.energy_delay(), Joules::new(5.0) * Seconds::new(2.0));
    }

    #[test]
    fn metric_kind_evaluation_is_consistent() {
        let p = point("x", 0.5, 2.0, 10.0);
        let ctx = OperationalContext::us_grid(100.0);
        assert_eq!(MetricKind::Delay.evaluate(&p, &ctx), 0.5);
        assert_eq!(MetricKind::Energy.evaluate(&p, &ctx), 2.0);
        assert_eq!(MetricKind::Edp.evaluate(&p, &ctx), p.edp().value());
        assert_eq!(MetricKind::Tcdp.evaluate(&p, &ctx), p.tcdp(&ctx).value());
        assert_eq!(MetricKind::Cci.evaluate(&p, &ctx), p.cci(&ctx).value());
        assert_eq!(MetricKind::Area.evaluate(&p, &ctx), 1.0);
        assert_eq!(MetricKind::Tcdp.label(), "tCDP");
    }

    #[test]
    fn argmin_picks_different_winners_per_metric() {
        // The §III story: E_task picks the slow design, EDP/tCDP do not.
        let slow_frugal = point("A", 5.0, 0.19, 3000.0);
        let fast = point("B", 0.5, 0.2, 3000.0);
        let points = vec![slow_frugal, fast];
        let ctx = OperationalContext::us_grid(1e6);
        assert_eq!(argmin(&points, MetricKind::Energy, &ctx).unwrap().name, "A");
        assert_eq!(argmin(&points, MetricKind::Edp, &ctx).unwrap().name, "B");
        assert_eq!(argmin(&points, MetricKind::Tcdp, &ctx).unwrap().name, "B");
        assert!(argmin(&[], MetricKind::Edp, &ctx).is_none());
    }

    #[test]
    fn validation() {
        assert!(DesignPoint::new(
            "bad",
            Seconds::ZERO,
            Joules::new(1.0),
            GramsCo2e::new(1.0),
            SquareCentimeters::new(1.0)
        )
        .is_err());
        assert!(DesignPoint::new(
            "bad",
            Seconds::new(1.0),
            Joules::new(1.0),
            GramsCo2e::new(-1.0),
            SquareCentimeters::new(1.0)
        )
        .is_err());
        assert!(OperationalContext::new(0.0, CarbonIntensity::new(380.0)).is_err());
        assert!(OperationalContext::new(1.0, CarbonIntensity::new(-1.0)).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = point("a48", 0.5, 2.0, 10.0).to_string();
        assert!(s.contains("a48") && s.contains("gCO2e"));
    }
}
