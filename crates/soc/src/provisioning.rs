//! The hardware-provisioning sweep (§VI-D, Fig. 10, Table V).
//!
//! For each core count 4..=8, replays an app's activity trace, derives task
//! delay and energy, charges amortized embodied carbon and operational
//! carbon over the headset's deployed life, and reports tCDP.

use crate::apps::VrApp;
use crate::scheduler::{schedule_app, ScheduleResult};
use crate::soc::SocConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::lifetime::UsageProfile;
use cordoba_carbon::operational::operational_carbon;
use cordoba_carbon::units::{CarbonIntensity, GramSecondsCo2e, GramsCo2e, Joules, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_par::CostHint;
use serde::{Deserialize, Serialize};

/// Deployment assumptions for the provisioning study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Headset lifetime in years.
    pub lifetime_years: f64,
    /// Use-phase carbon intensity.
    pub ci_use: CarbonIntensity,
    /// Embodied-carbon model for the SoC die.
    pub embodied: EmbodiedModel,
}

impl Default for Deployment {
    /// The paper's assumptions: 5-year lifetime, 380 gCO2e/kWh use-phase
    /// intensity, ACT-style embodied model.
    fn default() -> Self {
        Self {
            lifetime_years: 5.0,
            ci_use: grids::US_AVERAGE,
            embodied: EmbodiedModel::default(),
        }
    }
}

/// One row of the provisioning sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvisioningRow {
    /// Core count of this configuration.
    pub cores: u32,
    /// The SoC configuration.
    pub soc: SocConfig,
    /// Task delay (one session).
    pub delay: Seconds,
    /// Task energy (one session).
    pub energy: Joules,
    /// Embodied carbon of the SoC, amortized over the app's share of the
    /// device's operational life and scaled to lifetime task executions.
    pub embodied: GramsCo2e,
    /// Operational carbon over all lifetime task executions.
    pub operational: GramsCo2e,
    /// Total carbon x task delay.
    pub tcdp: GramSecondsCo2e,
    /// Energy-delay product numerator terms for comparison plots:
    /// `E * D` in joule-seconds.
    pub edp: f64,
}

impl ProvisioningRow {
    /// Lifetime total carbon `tC`.
    #[must_use]
    pub fn total_carbon(&self) -> GramsCo2e {
        self.embodied + self.operational
    }

    /// Carbon efficiency `tCDP⁻¹` (for Fig. 10's y-axis).
    #[must_use]
    pub fn carbon_efficiency(&self) -> f64 {
        1.0 / self.tcdp.value()
    }
}

/// The core counts every provisioning sweep evaluates, in row order.
const CORE_COUNTS: [u32; 5] = [4, 5, 6, 7, 8];

/// Estimated cost of one core count's trace replay and carbon accounting,
/// for the sweep's `CostHint`: perfbench's `cli_session` workload measures
/// `soc.provisioning.ms` at 0.019 ms per op over four apps of five core
/// counts (shared 2-vCPU x86-64 host), about 0.9 µs per core count. A
/// five-row sweep therefore stays on the calling thread.
const PROVISION_NS_PER_CORE_COUNT: u64 = 900;

/// Sweeps core counts 4..=8 for `app` under `deployment`.
///
/// Each core count is an independent trace replay, evaluated through one
/// [`cordoba_par::map`] at [`cordoba_par::effective_threads`] workers;
/// the returned list is in ascending core order and identical to the
/// sequential sweep at every thread count.
///
/// # Errors
///
/// Propagates model-construction errors (cannot occur for the default
/// deployment).
///
/// # Panics
///
/// Re-raises a panicking trace replay on the caller.
pub fn sweep(app: &VrApp, deployment: &Deployment) -> Result<Vec<ProvisioningRow>, CarbonError> {
    let _span = cordoba_obs::span("soc/provisioning_sweep");
    let usage = UsageProfile::from_daily_hours(deployment.lifetime_years, app.daily_hours)?;
    let sessions = usage.operational_time().value() / app.session.value();
    cordoba_par::map(
        CORE_COUNTS.len(),
        cordoba_par::effective_threads(),
        CostHint::per_item_ns(PROVISION_NS_PER_CORE_COUNT),
        |idx| provision_row(CORE_COUNTS[idx], app, deployment, sessions),
    )
    .into_iter()
    .collect()
}

/// One provisioning row for a single core count.
fn provision_row(
    cores: u32,
    app: &VrApp,
    deployment: &Deployment,
    sessions: f64,
) -> Result<ProvisioningRow, CarbonError> {
    let soc = SocConfig::provisioned(cores)?;
    let ScheduleResult {
        duration, energy, ..
    } = schedule_app(app, &soc);
    // The app occupies the device's full operational window for this
    // study (each task is assessed as if it were the device's workload).
    let embodied = soc.embodied_carbon(&deployment.embodied)?;
    let lifetime_energy = energy * sessions;
    let operational = operational_carbon(deployment.ci_use, lifetime_energy);
    let total = embodied + operational;
    Ok(ProvisioningRow {
        cores,
        soc,
        delay: duration,
        energy,
        embodied,
        operational,
        tcdp: total * duration,
        edp: energy.value() * duration.value(),
    })
}

/// The core count with the lowest tCDP in `rows`.
///
/// # Panics
///
/// Panics if `rows` is empty.
#[must_use]
pub fn optimal_cores(rows: &[ProvisioningRow]) -> u32 {
    rows.iter()
        .min_by(|a, b| a.tcdp.value().total_cmp(&b.tcdp.value()))
        .expect("rows must not be empty")
        .cores
}

/// tCDP improvement factor of the best configuration over the 8-core
/// baseline.
///
/// # Panics
///
/// Panics if `rows` lacks an 8-core entry or is empty.
#[must_use]
pub fn improvement_over_8core(rows: &[ProvisioningRow]) -> f64 {
    let base = rows
        .iter()
        .find(|r| r.cores == 8)
        .expect("rows must contain the 8-core baseline");
    let best = rows
        .iter()
        .min_by(|a, b| a.tcdp.value().total_cmp(&b.tcdp.value()))
        .expect("rows must not be empty");
    base.tcdp.value() / best.tcdp.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_prefers_four_cores() {
        // Fig. 10 / Table V: M-1 is tCDP-optimal at 4 cores, ~1.25x better
        // than the 8-core baseline.
        let rows = sweep(&VrApp::m1(), &Deployment::default()).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(optimal_cores(&rows), 4);
        let improvement = improvement_over_8core(&rows);
        assert!(
            (1.10..1.45).contains(&improvement),
            "M-1 improvement {improvement}"
        );
    }

    #[test]
    fn browser_and_social_do_not_prefer_four_cores() {
        // Fig. 10: B-1 and SG-1 suffer degraded tCDP at 4 cores.
        for app in [VrApp::b1(), VrApp::sg1()] {
            let rows = sweep(&app, &Deployment::default()).unwrap();
            let four = rows.iter().find(|r| r.cores == 4).unwrap();
            let best = optimal_cores(&rows);
            assert_ne!(best, 4, "{} should not be optimal at 4 cores", app.name);
            let best_row = rows.iter().find(|r| r.cores == best).unwrap();
            assert!(four.tcdp > best_row.tcdp);
        }
    }

    #[test]
    fn all_tasks_prefers_five_cores_with_modest_gain() {
        // Fig. 10: "even for the All Tasks category, reducing cores from 8
        // to 5 improves tCDP by 1.08x".
        let rows = sweep(&VrApp::all_tasks(), &Deployment::default()).unwrap();
        let best = optimal_cores(&rows);
        assert!((5..=6).contains(&best), "All-tasks optimum at {best}");
        let improvement = improvement_over_8core(&rows);
        assert!(
            (1.02..1.25).contains(&improvement),
            "All-tasks improvement {improvement}"
        );
    }

    #[test]
    fn embodied_monotone_in_cores() {
        let rows = sweep(&VrApp::m1(), &Deployment::default()).unwrap();
        for pair in rows.windows(2) {
            assert!(pair[1].embodied > pair[0].embodied);
        }
    }

    #[test]
    fn totals_compose() {
        let rows = sweep(&VrApp::g2(), &Deployment::default()).unwrap();
        for r in &rows {
            assert!((r.total_carbon().value() - (r.embodied + r.operational).value()).abs() < 1e-9);
            assert!(
                (r.tcdp.value() - r.total_carbon().value() * r.delay.value()).abs()
                    < 1e-6 * r.tcdp.value()
            );
            assert!(r.carbon_efficiency() > 0.0);
        }
    }

    #[test]
    fn delay_never_improves_with_fewer_cores() {
        for app in VrApp::studied_tasks() {
            let rows = sweep(&app, &Deployment::default()).unwrap();
            for pair in rows.windows(2) {
                assert!(
                    pair[0].delay >= pair[1].delay,
                    "{}: delay should be non-increasing in cores",
                    app.name
                );
            }
        }
    }
}
