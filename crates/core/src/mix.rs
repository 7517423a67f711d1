//! Lifetime workload mixes.
//!
//! The paper notes its Fig. 8 analysis "can also be adjusted to account for
//! varying workloads over the system's lifetime". A [`LifetimeMix`] assigns
//! each task a fraction of lifetime executions; the mix behaves like a
//! single composite task whose delay/energy are the weighted sums, so all
//! of CORDOBA's machinery (tCDP sweeps, elimination, robustness) applies
//! unchanged.

use crate::dse::accel_design_point;
use crate::error::CoreError;
use crate::metrics::DesignPoint;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::CarbonError;
use cordoba_workloads::task::Task;
use serde::{Deserialize, Serialize};

/// A weighted set of tasks representing a hardware lifetime's workload.
///
/// # Examples
///
/// ```
/// use cordoba::mix::LifetimeMix;
/// use cordoba_workloads::task::Task;
///
/// let mix = LifetimeMix::new(vec![
///     (Task::ai_5_kernels(), 0.7),
///     (Task::xr_5_kernels(), 0.3),
/// ])?;
/// assert_eq!(mix.entries().len(), 2);
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeMix {
    entries: Vec<(Task, f64)>,
}

impl LifetimeMix {
    /// Creates a mix from `(task, weight)` pairs; weights are normalized to
    /// sum to 1.
    ///
    /// # Errors
    ///
    /// Returns an error if `entries` is empty or any weight is not
    /// positive and finite.
    pub fn new(entries: Vec<(Task, f64)>) -> Result<Self, CarbonError> {
        if entries.is_empty() {
            return Err(CarbonError::Empty {
                what: "lifetime mix",
            });
        }
        for &(_, w) in &entries {
            CarbonError::require_positive("mix weight", w)?;
        }
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        let entries = entries.into_iter().map(|(t, w)| (t, w / total)).collect();
        Ok(Self { entries })
    }

    /// A single-task "mix".
    ///
    /// # Panics
    ///
    /// Never panics (a weight of 1.0 is always valid).
    #[must_use]
    pub fn single(task: Task) -> Self {
        Self::new(vec![(task, 1.0)]).expect("single positive weight is valid") // cordoba-lint: allow(no-panic) — documented "Never panics"
    }

    /// The normalized `(task, weight)` entries.
    #[must_use]
    pub fn entries(&self) -> &[(Task, f64)] {
        &self.entries
    }

    /// A display name composed from the member tasks.
    #[must_use]
    pub fn name(&self) -> String {
        self.entries
            .iter()
            .map(|(t, w)| format!("{:.0}%:{}", w * 100.0, t.name()))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Characterizes `config` for this mix: delay and energy are the
    /// weighted sums over member tasks (an "average task execution");
    /// embodied carbon and area are the config's own.
    ///
    /// # Errors
    ///
    /// Propagates carbon-model and cost-table errors.
    pub fn design_point(
        &self,
        config: &AcceleratorConfig,
        embodied: &EmbodiedModel,
    ) -> Result<DesignPoint, CoreError> {
        let mut delay = cordoba_carbon::units::Seconds::ZERO;
        let mut energy = cordoba_carbon::units::Joules::ZERO;
        let mut base = None;
        for (task, weight) in &self.entries {
            let point = accel_design_point(config, task, embodied)?;
            delay += point.delay * *weight;
            energy += point.energy * *weight;
            base = Some(point);
        }
        let base = base.expect("mix is non-empty"); // cordoba-lint: allow(no-panic) — Mix::new rejects empty entry lists
        Ok(DesignPoint::new(
            config.shared_name(),
            delay,
            energy,
            base.embodied,
            base.area,
        )?)
    }

    /// Characterizes a whole configuration list for this mix.
    ///
    /// # Errors
    ///
    /// Propagates carbon-model and cost-table errors.
    pub fn evaluate_space(
        &self,
        configs: &[AcceleratorConfig],
        embodied: &EmbodiedModel,
    ) -> Result<Vec<DesignPoint>, CoreError> {
        configs
            .iter()
            .map(|c| self.design_point(c, embodied))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{argmin, MetricKind, OperationalContext};
    use cordoba_accel::space::{config_by_name, design_space};

    fn model() -> EmbodiedModel {
        EmbodiedModel::default()
    }

    #[test]
    fn weights_normalize() {
        let mix = LifetimeMix::new(vec![
            (Task::ai_5_kernels(), 2.0),
            (Task::xr_5_kernels(), 6.0),
        ])
        .unwrap();
        let weights: Vec<f64> = mix.entries().iter().map(|&(_, w)| w).collect();
        assert!((weights[0] - 0.25).abs() < 1e-12);
        assert!((weights[1] - 0.75).abs() < 1e-12);
        assert!(mix.name().contains("25%:AI 5 kernels"));
    }

    #[test]
    fn single_task_mix_matches_direct_evaluation() {
        let mix = LifetimeMix::single(Task::xr_10_kernels());
        let cfg = config_by_name("a48").unwrap();
        let via_mix = mix.design_point(&cfg, &model()).unwrap();
        let direct = accel_design_point(&cfg, &Task::xr_10_kernels(), &model()).unwrap();
        assert!((via_mix.delay.value() - direct.delay.value()).abs() < 1e-15);
        assert!((via_mix.energy.value() - direct.energy.value()).abs() < 1e-12);
        assert_eq!(via_mix.embodied, direct.embodied);
    }

    #[test]
    fn mix_point_is_the_weighted_combination() {
        let cfg = config_by_name("a60").unwrap();
        let ai = accel_design_point(&cfg, &Task::ai_5_kernels(), &model()).unwrap();
        let xr = accel_design_point(&cfg, &Task::xr_5_kernels(), &model()).unwrap();
        let mix = LifetimeMix::new(vec![
            (Task::ai_5_kernels(), 0.5),
            (Task::xr_5_kernels(), 0.5),
        ])
        .unwrap();
        let point = mix.design_point(&cfg, &model()).unwrap();
        let expected_delay = 0.5 * ai.delay.value() + 0.5 * xr.delay.value();
        assert!((point.delay.value() - expected_delay).abs() < 1e-12);
        let expected_energy = 0.5 * ai.energy.value() + 0.5 * xr.energy.value();
        assert!((point.energy.value() - expected_energy).abs() < 1e-12);
    }

    #[test]
    fn mix_optimum_interpolates_between_member_optima() {
        // A mostly-AI mix should pick an accelerator with SRAM between the
        // AI-only and XR-only optima.
        let configs = design_space();
        let m = model();
        let ctx = OperationalContext::us_grid(1e8);
        let sram_of = |points: &[DesignPoint]| {
            let best = argmin(points, MetricKind::Tcdp, &ctx).unwrap();
            config_by_name(&best.name).unwrap().sram().to_mebibytes()
        };
        let ai = LifetimeMix::single(Task::ai_5_kernels())
            .evaluate_space(&configs, &m)
            .unwrap();
        let xr = LifetimeMix::single(Task::xr_5_kernels())
            .evaluate_space(&configs, &m)
            .unwrap();
        let blend = LifetimeMix::new(vec![
            (Task::ai_5_kernels(), 0.5),
            (Task::xr_5_kernels(), 0.5),
        ])
        .unwrap()
        .evaluate_space(&configs, &m)
        .unwrap();
        let (lo, hi) = (sram_of(&ai), sram_of(&xr));
        let mid = sram_of(&blend);
        assert!(lo < hi, "precondition: AI optimum smaller than XR optimum");
        assert!(
            (lo..=hi).contains(&mid),
            "blend optimum {mid} MiB outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn validation() {
        assert!(LifetimeMix::new(vec![]).is_err());
        assert!(LifetimeMix::new(vec![(Task::ai_5_kernels(), 0.0)]).is_err());
        assert!(LifetimeMix::new(vec![(Task::ai_5_kernels(), -1.0)]).is_err());
    }
}
