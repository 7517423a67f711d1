//! # cordoba-carbon
//!
//! Carbon-accounting substrate for the CORDOBA carbon-efficient optimization
//! framework (Elgamal et al., HPCA 2025).
//!
//! This crate provides everything needed to quantify the **total carbon
//! footprint** `tC = C_operational + C_embodied` of a computing system:
//!
//! * [`units`] — strongly-typed physical quantities (`Joules`, `Watts`,
//!   `GramsCo2e`, `CarbonIntensity`, ...) with dimension-checked arithmetic;
//! * [`fab`] — per-process-node fabrication characterization (`EPA`, `MPA`,
//!   `GPA`, defect density, logic scaling), ACT-style \[22\], \[39\];
//! * [`yield_model`] / [`wafer`] — Murphy/Poisson/Seeds/Bose-Einstein yield
//!   and gross-die-per-wafer models \[11\], \[34\];
//! * [`embodied`] — eq. IV.5 embodied carbon for dice and 3D assemblies;
//! * [`intensity`] / [`operational`] — time-varying `CI_use(t)` sources and
//!   eq. IV.6/IV.7 operational carbon;
//! * [`lifetime`] — operational-time amortization (eq. IV.3).
//!
//! # Example: total carbon of the paper's VR SoC
//!
//! ```
//! use cordoba_carbon::prelude::*;
//!
//! // Embodied: 2.25 cm^2 7 nm die at a coal-powered fab, 0.98 fixed yield.
//! let model = EmbodiedModel::new(
//!     CarbonIntensity::new(820.0),
//!     YieldModel::fixed(0.98)?,
//!     GramsCo2e::ZERO,
//! );
//! let die = Die::new("xr2-soc", SquareCentimeters::new(2.25), ProcessNode::N7)?;
//! let embodied = model.die_carbon(&die);
//!
//! // Operational: 8.3 W, 2 h/day for 5 years at the US grid average.
//! let usage = UsageProfile::from_daily_hours(5.0, 2.0)?;
//! let energy = Watts::new(8.3) * usage.operational_time();
//! let operational = operational_carbon(grids::US_AVERAGE, energy);
//!
//! let total = embodied + operational;
//! assert!(total > embodied && total > operational);
//! # Ok::<(), cordoba_carbon::CarbonError>(())
//! ```

pub mod embodied;
pub mod error;
pub mod fab;
pub mod fallback;
pub mod integral;
pub mod intensity;
pub mod lifetime;
pub mod memory;
pub mod operational;
pub mod sanitize;
pub mod units;
pub mod wafer;
pub mod yield_model;

pub use error::CarbonError;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::embodied::{Assembly, Die, EmbodiedModel};
    pub use crate::error::CarbonError;
    pub use crate::fab::{FabProfile, ProcessNode};
    pub use crate::fallback::{
        FallbackCi, FallbackCiBuilder, FallbackHealth, TierCoverage, TierHealth,
    };
    pub use crate::integral::{
        operational_carbon_exact, CiIntegral, Midpoint, PowerIntegral, PowerSegment,
    };
    pub use crate::intensity::{grids, ConstantCi, DiurnalCi, SeasonalCi, TraceCi, TrendCi};
    pub use crate::lifetime::UsageProfile;
    pub use crate::memory::{GramsCo2ePerGigabyte, MemoryDevice, MemoryKind, SystemBom};
    pub use crate::operational::{
        operational_carbon, operational_carbon_profile, ConstantPower, DutyCycledPower,
    };
    pub use crate::sanitize::{Gap, SanitizePolicy, SanitizeReport};
    pub use crate::units::{
        Bytes, BytesPerSecond, CarbonIntensity, CarbonIntensitySeconds, CarbonPerArea,
        DefectDensity, EnergyPerArea, GramSecondsCo2e, GramsCo2e, Hertz, JouleSeconds, Joules,
        KilowattHours, Millimeters, Seconds, SquareCentimeters, SquareMillimeters, Watts,
    };
    pub use crate::wafer::Wafer;
    pub use crate::yield_model::YieldModel;
}
