//! # CORDOBA
//!
//! A from-scratch Rust implementation of **CORDOBA: Carbon-Efficient
//! Optimization Framework for Computing Systems** (Elgamal et al.,
//! HPCA 2025).
//!
//! CORDOBA optimizes *carbon efficiency*, quantified by the **total
//! Carbon Delay Product** — `tCDP = tC · D`, the product of a system's
//! lifetime carbon footprint (embodied + operational) and its task
//! execution time. Where EDP (J·s) balances energy against delay, tCDP
//! (gCO2e·s) additionally balances *embodied* carbon against energy
//! efficiency, which changes which designs win (§III).
//!
//! This crate is the framework layer; the substrates live in sibling
//! crates:
//!
//! | crate | role |
//! |-------|------|
//! | `cordoba_carbon` | units, ACT-style embodied carbon, yield/wafer models, CI sources |
//! | `cordoba_tech` | alpha-power MOSFET, DVFS, node scaling |
//! | `cordoba_workloads` | the 15 AI/XR kernels, 5 tasks, eq. IV.2/IV.4 |
//! | `cordoba_accel` | roofline accelerator simulator, 121-config space, 3D stacking |
//! | `cordoba_soc` | VR SoC cores, traces, scheduler, provisioning |
//!
//! Framework modules:
//!
//! * [`metrics`] — `DesignPoint`, `OperationalContext`, EDP/CCI/tCDP/...;
//! * [`case_ics`] — the §III six-IC worked example (Tables I & II);
//! * [`optimize`] — eq. IV.1 constrained minimization;
//! * [`pareto`] / [`lagrange`] — §IV-B elimination under unknown `CI_use(t)`;
//! * [`dse`] — operational-time sweeps and design-space elimination (Fig. 8);
//! * [`attrib`] — the carbon attribution ledger: embodied vs operational
//!   vs quarantined-loss decomposition of a sweep's tCDP, reconciled
//!   bit-for-bit against the sweep matrix;
//! * [`supervise`] — deadlines, cancellation, and checkpoint/resume for
//!   the operational-time sweep, the one pipeline a user interrupts;
//! * [`uncertainty`] — Fig. 6 domain studies, robustness and regret;
//! * [`stats`] / [`report`] — analysis and reporting helpers.
//!
//! # Quickstart
//!
//! ```
//! use cordoba::prelude::*;
//! use cordoba_accel::space::design_space;
//! use cordoba_carbon::embodied::EmbodiedModel;
//! use cordoba_carbon::intensity::grids;
//! use cordoba_workloads::task::Task;
//!
//! // Characterize the 121-accelerator design space for the XR task...
//! let points = evaluate_space(
//!     &design_space(),
//!     &Task::xr_5_kernels(),
//!     &EmbodiedModel::default(),
//! )?;
//! // ...and sweep operational time to find every possibly-optimal design.
//! let sweep = OpTimeSweep::new(points, log_sweep(4, 10, 2), grids::US_AVERAGE)?;
//! assert!(sweep.elimination_fraction() > 0.9);
//! # Ok::<(), cordoba::CoreError>(())
//! ```

pub mod attrib;
pub mod case_ics;
pub mod chart;
pub mod dse;
pub mod error;
pub mod lagrange;
pub mod metrics;
pub mod mix;
pub mod optimize;
pub mod pareto;
pub mod report;
pub mod stats;
pub mod store;
pub mod supervise;
pub mod uncertainty;

pub use error::CoreError;

/// Runs `f` with the process-wide worker count set to `threads`, then
/// restores the default. One lock serializes the unit tests that set the
/// count, so each really runs at the count it asks for.
#[cfg(test)]
pub(crate) fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _serial = THREADS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cordoba_par::set_threads(std::num::NonZeroUsize::new(threads));
    let out = f();
    cordoba_par::set_threads(None);
    out
}

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::attrib::{
        AttributionReport, BetaAttribution, ConfigAttribution, QuarantinedLoss, TaskCountTotals,
    };
    pub use crate::case_ics::{candidates, design_points, table_one, table_two, Scenario};
    pub use crate::chart::AsciiChart;
    pub use crate::dse::{
        accel_design_point, evaluate_space, evaluate_space_multi, log_sweep, EvalFailure,
        OpTimeSweep, ResilientEval,
    };
    pub use crate::error::CoreError;
    pub use crate::lagrange::{beta_for_context, BetaSweep, BetaTransition, TwoFactorSweep};
    pub use crate::metrics::{argmin, DesignPoint, MetricKind, OperationalContext};
    pub use crate::mix::LifetimeMix;
    pub use crate::optimize::{Constraints, OptimizationProblem, Solution};
    pub use crate::pareto::{
        elimination_fraction, lower_hull_indices, pareto_front, pareto_indices, pareto_indices_kd,
        pareto_indices_kd_naive, pareto_indices_naive, Point2, PointK,
    };
    pub use crate::report::{fmt_num, fmt_ratio, Table};
    pub use crate::store::{beta_sweep_stored, evaluate_space_stored, op_time_sweep_stored};
    pub use crate::supervise::{op_time_sweep_supervised, SupervisedSweep, SweepCheckpoint};
    pub use crate::uncertainty::{
        context_for_embodied_share, domain_analysis, monte_carlo_regret, monte_carlo_source_tcdp,
        monte_carlo_tcdp, scenario_regret, tcdp_under_source, DomainAnalysis, DomainClass,
        MonteCarloSpec, MonteCarloSummary, SourceMonteCarloSpec,
    };
    pub use cordoba_obs::Name;
}
