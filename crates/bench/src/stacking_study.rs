//! The §VI-E three-dimensional-integration study (Fig. 11 and Fig. 12).
//!
//! Runs the SR(512x512) kernel on the baseline and the six 3D-stacked
//! configurations, evaluates tCDP at an *embodied-carbon-dominant*
//! operational time (embodied ≈ 80 % of total on average) and an
//! *operational-carbon-dominant* one (embodied ≈ 8 %), and performs the
//! Fig. 12 `E·D` vs `C_emb·D` Pareto elimination.

use cordoba::lagrange::BetaSweep;
use cordoba::metrics::DesignPoint;
use cordoba::uncertainty::context_for_embodied_share;
use cordoba_accel::sim::simulate;
use cordoba_accel::stacking::study_configs;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::CarbonError;
use cordoba_workloads::kernel::KernelId;

/// The paper's target embodied share for the "embodied carbon dominant"
/// case (80 % embodied / 20 % operational, averaged over configurations).
pub const EMBODIED_DOMINANT_SHARE: f64 = 0.80;
/// The paper's target embodied share for the "operational carbon dominant"
/// case (8 % embodied / 92 % operational).
pub const OPERATIONAL_DOMINANT_SHARE: f64 = 0.08;

/// One configuration's results across both Fig. 11 cases.
#[derive(Debug, Clone, PartialEq)]
pub struct StackingRow {
    /// The design point (delay/energy for one SR(512x512) inference).
    pub point: DesignPoint,
    /// tCDP in the embodied-dominant case.
    pub tcdp_embodied_case: f64,
    /// tCDP in the operational-dominant case.
    pub tcdp_operational_case: f64,
}

/// The full study output.
#[derive(Debug, Clone, PartialEq)]
pub struct StackingStudy {
    /// Per-configuration rows, in Fig. 11 order (baseline first).
    pub rows: Vec<StackingRow>,
    /// Task count of the embodied-dominant case.
    pub embodied_case_tasks: f64,
    /// Task count of the operational-dominant case.
    pub operational_case_tasks: f64,
    /// The Fig. 12 elimination (Pareto + β-sweep support set).
    pub beta_sweep: BetaSweep,
}

impl StackingStudy {
    /// Runs the study.
    ///
    /// # Errors
    ///
    /// Propagates carbon-model errors (cannot occur for the built-in
    /// configurations).
    pub fn run() -> Result<Self, CarbonError> {
        let embodied_model = EmbodiedModel::default();
        let kernel = KernelId::Sr512.descriptor();
        let mut points = Vec::new();
        for cfg in study_configs() {
            let sim = simulate(&cfg, &kernel);
            // Charge leakage over the inference for the task energy.
            let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
            points.push(DesignPoint::new(
                cfg.shared_name(),
                sim.latency,
                energy,
                cfg.embodied_carbon(&embodied_model)?,
                cfg.total_area(),
            )?);
        }

        let ci = grids::US_AVERAGE;
        let embodied_ctx = context_for_embodied_share(&points, ci, EMBODIED_DOMINANT_SHARE)?;
        let operational_ctx = context_for_embodied_share(&points, ci, OPERATIONAL_DOMINANT_SHARE)?;

        let rows = points
            .iter()
            .map(|p| StackingRow {
                point: p.clone(),
                tcdp_embodied_case: p.tcdp(&embodied_ctx).value(),
                tcdp_operational_case: p.tcdp(&operational_ctx).value(),
            })
            .collect();
        Ok(Self {
            rows,
            embodied_case_tasks: embodied_ctx.tasks,
            operational_case_tasks: operational_ctx.tasks,
            beta_sweep: BetaSweep::run(&points),
        })
    }

    /// The baseline row.
    ///
    /// # Panics
    ///
    /// Panics if the study is empty (cannot happen for [`Self::run`]).
    #[must_use]
    pub fn baseline(&self) -> &StackingRow {
        &self.rows[0]
    }

    /// Name of the tCDP-optimal configuration in the embodied-dominant
    /// case.
    #[must_use]
    pub fn embodied_case_winner(&self) -> &str {
        &self
            .rows
            .iter()
            .min_by(|a, b| a.tcdp_embodied_case.total_cmp(&b.tcdp_embodied_case))
            .expect("rows non-empty")
            .point
            .name
    }

    /// Name of the tCDP-optimal configuration in the operational-dominant
    /// case.
    #[must_use]
    pub fn operational_case_winner(&self) -> &str {
        &self
            .rows
            .iter()
            .min_by(|a, b| a.tcdp_operational_case.total_cmp(&b.tcdp_operational_case))
            .expect("rows non-empty")
            .point
            .name
    }

    /// tCDP improvement of the best design over the baseline in the
    /// embodied-dominant case (the paper reports 1.08x).
    #[must_use]
    pub fn embodied_case_improvement(&self) -> f64 {
        let best = self
            .rows
            .iter()
            .map(|r| r.tcdp_embodied_case)
            .fold(f64::INFINITY, f64::min);
        self.baseline().tcdp_embodied_case / best
    }

    /// tCDP improvement of the best design over the baseline in the
    /// operational-dominant case (the paper reports 6.9x).
    #[must_use]
    pub fn operational_case_improvement(&self) -> f64 {
        let best = self
            .rows
            .iter()
            .map(|r| r.tcdp_operational_case)
            .fold(f64::INFINITY, f64::min);
        self.baseline().tcdp_operational_case / best
    }

    /// Names of the Fig. 12 Pareto survivors (the only designs that can be
    /// tCDP-optimal for any `CI_use(t)`).
    #[must_use]
    pub fn pareto_survivors(&self) -> Vec<&str> {
        self.beta_sweep.surviving_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winners_match_paper() {
        let study = StackingStudy::run().unwrap();
        // Fig. 11(b): 3D_2K_4M wins the embodied-dominant case, 3D_2K_8M
        // the operational-dominant case.
        assert_eq!(study.embodied_case_winner(), "3D_2K_4M");
        assert_eq!(study.operational_case_winner(), "3D_2K_8M");
    }

    #[test]
    fn both_cases_improve_on_baseline_and_operational_improves_more() {
        let study = StackingStudy::run().unwrap();
        let emb = study.embodied_case_improvement();
        let op = study.operational_case_improvement();
        assert!(emb > 1.0, "embodied-case improvement {emb}");
        assert!(op > emb, "operational {op} should exceed embodied {emb}");
    }

    #[test]
    fn pareto_keeps_exactly_the_two_2k_mid_sram_designs() {
        // Fig. 12: five of seven configurations eliminated.
        let study = StackingStudy::run().unwrap();
        let survivors = study.pareto_survivors();
        assert_eq!(survivors.len(), 2, "survivors {survivors:?}");
        assert!(survivors.contains(&"3D_2K_4M"));
        assert!(survivors.contains(&"3D_2K_8M"));
    }

    #[test]
    fn case_task_counts_are_ordered() {
        let study = StackingStudy::run().unwrap();
        assert!(study.operational_case_tasks > study.embodied_case_tasks * 10.0);
    }
}
