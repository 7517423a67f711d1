//! Accelerator configurations: MAC array size, activation SRAM, and memory
//! integration style (Fig. 5 hardware template).

use crate::params::{TechTuning, MACS_PER_UNIT};
use cordoba_carbon::embodied::{Assembly, Die, EmbodiedModel};
use cordoba_carbon::fab::ProcessNode;
use cordoba_carbon::integral::{operational_carbon_exact, CiIntegral};
use cordoba_carbon::lifetime::UsageProfile;
use cordoba_carbon::operational::DutyCycledPower;
use cordoba_carbon::units::{
    Bytes, GramsCo2e, Seconds, SquareCentimeters, SquareMillimeters, Watts,
};
use cordoba_carbon::CarbonError;
use cordoba_obs::Name;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the activation memory is integrated with the logic die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryIntegration {
    /// Conventional 2D: the SRAM shares the logic die.
    OnDie,
    /// 3D stacking \[54\]: separately fabricated SRAM dice hybrid-bonded on
    /// top of the logic die, `dies` tiers deep.
    Stacked3d {
        /// Number of memory dice in the stack.
        dies: u32,
    },
}

impl MemoryIntegration {
    /// `true` for 3D-stacked configurations.
    #[must_use]
    pub fn is_stacked(self) -> bool {
        matches!(self, Self::Stacked3d { .. })
    }
}

/// One hardware accelerator design point.
///
/// # Examples
///
/// ```
/// use cordoba_accel::config::AcceleratorConfig;
/// use cordoba_carbon::units::Bytes;
///
/// let cfg = AcceleratorConfig::on_die("a48", 16, Bytes::from_mebibytes(8.0))?;
/// assert_eq!(cfg.mac_units(), 16);
/// assert!(cfg.total_area().value() > 0.0);
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    name: Name,
    mac_units: u32,
    sram: Bytes,
    integration: MemoryIntegration,
    tuning: TechTuning,
}

impl AcceleratorConfig {
    /// Fractional die-area overhead for TSV/hybrid-bond pads on each die of
    /// a 3D stack.
    pub const TSV_AREA_OVERHEAD: f64 = 0.03;
    /// Yield of each 3D bonding interface.
    pub const BOND_YIELD: f64 = 0.99;

    /// Creates a conventional 2D configuration at 7 nm.
    ///
    /// # Errors
    ///
    /// Returns an error if `mac_units` is zero or `sram` is not positive.
    pub fn on_die(name: impl Into<Name>, mac_units: u32, sram: Bytes) -> Result<Self, CarbonError> {
        Self::with_tuning(
            name,
            mac_units,
            sram,
            MemoryIntegration::OnDie,
            TechTuning::n7(),
        )
    }

    /// Creates a 3D-stacked configuration at 7 nm with `dies` memory dice
    /// of `sram_per_die` each.
    ///
    /// # Errors
    ///
    /// Returns an error if `mac_units` or `dies` is zero or the SRAM size
    /// is not positive.
    pub fn stacked_3d(
        name: impl Into<Name>,
        mac_units: u32,
        sram_per_die: Bytes,
        dies: u32,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_positive("memory dies", f64::from(dies))?;
        Self::with_tuning(
            name,
            mac_units,
            sram_per_die * f64::from(dies),
            MemoryIntegration::Stacked3d { dies },
            TechTuning::n7(),
        )
    }

    /// Creates a configuration with explicit integration and tuning.
    ///
    /// # Errors
    ///
    /// Returns an error if `mac_units` is zero or `sram` is not positive.
    pub fn with_tuning(
        name: impl Into<Name>,
        mac_units: u32,
        sram: Bytes,
        integration: MemoryIntegration,
        tuning: TechTuning,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_positive("mac units", f64::from(mac_units))?;
        CarbonError::require_positive("sram bytes", sram.value())?;
        Ok(Self {
            name: name.into(),
            mac_units,
            sram,
            integration,
            tuning,
        })
    }

    /// The configuration's name (e.g. `"a48"` or `"3D_2K_8M"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration's name as a shared handle: every result built
    /// from this configuration clones it (a pointer copy) rather than
    /// copying the text.
    #[must_use]
    pub fn shared_name(&self) -> &Name {
        &self.name
    }

    /// Number of MAC units (each [`MACS_PER_UNIT`] scalar MACs).
    #[must_use]
    pub fn mac_units(&self) -> u32 {
        self.mac_units
    }

    /// Total scalar MAC count.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        u64::from(self.mac_units) * u64::from(MACS_PER_UNIT)
    }

    /// Total activation SRAM capacity.
    #[must_use]
    pub fn sram(&self) -> Bytes {
        self.sram
    }

    /// How the memory is integrated.
    #[must_use]
    pub fn integration(&self) -> MemoryIntegration {
        self.integration
    }

    /// The technology tuning in effect.
    #[must_use]
    pub fn tuning(&self) -> &TechTuning {
        &self.tuning
    }

    /// The process node of the design.
    #[must_use]
    pub fn node(&self) -> ProcessNode {
        self.tuning.node
    }

    /// Logic-die area: MAC array + base overhead, plus the SRAM when it is
    /// on-die.
    #[must_use]
    pub fn logic_die_area(&self) -> SquareCentimeters {
        let mut mm2 =
            f64::from(self.mac_units) * self.tuning.mac_unit_area_mm2 + self.tuning.base_area_mm2;
        if self.integration == MemoryIntegration::OnDie {
            mm2 += self.sram.to_mebibytes() * self.tuning.sram_area_mm2_per_mib;
        }
        SquareMillimeters::new(mm2).to_square_centimeters()
    }

    /// Area of each memory die in a 3D stack (zero for 2D designs).
    #[must_use]
    pub fn memory_die_area(&self) -> SquareCentimeters {
        match self.integration {
            MemoryIntegration::OnDie => SquareCentimeters::ZERO,
            MemoryIntegration::Stacked3d { dies } => {
                let per_die_mib = self.sram.to_mebibytes() / f64::from(dies);
                SquareMillimeters::new(per_die_mib * self.tuning.sram_area_mm2_per_mib)
                    .to_square_centimeters()
            }
        }
    }

    /// Total silicon area across all dice (before TSV overhead).
    #[must_use]
    pub fn total_area(&self) -> SquareCentimeters {
        match self.integration {
            MemoryIntegration::OnDie => self.logic_die_area(),
            MemoryIntegration::Stacked3d { dies } => {
                self.logic_die_area() + self.memory_die_area() * f64::from(dies)
            }
        }
    }

    /// Leakage power of the whole accelerator.
    #[must_use]
    pub fn leakage_power(&self) -> Watts {
        self.tuning.leakage_base
            + self.tuning.leakage_per_mac_unit * f64::from(self.mac_units)
            + self.tuning.leakage_per_sram_mib * self.sram.to_mebibytes()
    }

    /// Exact lifetime operational carbon under a time-varying grid: the
    /// accelerator draws `active` power for the usage profile's active
    /// fraction of each day and its own [leakage
    /// power](Self::leakage_power) the rest, integrated against `ci` over
    /// the full deployed lifetime with the closed-form kernel
    /// ([`operational_carbon_exact`]) — no sampling error, O(days) segment
    /// visits.
    ///
    /// # Errors
    ///
    /// Returns an error when `active` is negative (duty-cycle validation).
    pub fn lifetime_operational_carbon(
        &self,
        active: Watts,
        usage: &UsageProfile,
        ci: &dyn CiIntegral,
    ) -> Result<GramsCo2e, CarbonError> {
        let profile = DutyCycledPower::new(
            active,
            self.leakage_power(),
            Seconds::from_days(1.0),
            usage.active_fraction(),
        )?;
        Ok(operational_carbon_exact(ci, &profile, usage.lifetime()))
    }

    /// The dice of this design, for embodied-carbon accounting.
    ///
    /// # Errors
    ///
    /// Propagates die-construction errors (cannot occur for validated
    /// configurations).
    pub fn assembly(&self) -> Result<Assembly, CarbonError> {
        let node = self.tuning.node;
        match self.integration {
            MemoryIntegration::OnDie => Assembly::new(
                vec![Die::new(
                    format!("{}-logic", self.name),
                    self.logic_die_area(),
                    node,
                )?],
                0.0,
                1.0,
                GramsCo2e::ZERO,
            ),
            MemoryIntegration::Stacked3d { dies } => {
                let mut stack = vec![Die::new(
                    format!("{}-logic", self.name),
                    self.logic_die_area(),
                    node,
                )?];
                for i in 0..dies {
                    stack.push(Die::new(
                        format!("{}-mem{}", self.name, i),
                        self.memory_die_area(),
                        node,
                    )?);
                }
                Assembly::new(
                    stack,
                    Self::TSV_AREA_OVERHEAD,
                    Self::BOND_YIELD,
                    GramsCo2e::new(5.0),
                )
            }
        }
    }

    /// Embodied carbon of manufacturing this accelerator.
    ///
    /// # Errors
    ///
    /// Propagates assembly-construction errors (cannot occur for validated
    /// configurations).
    pub fn embodied_carbon(&self, model: &EmbodiedModel) -> Result<GramsCo2e, CarbonError> {
        Ok(model.assembly_carbon(&self.assembly()?))
    }

    /// The `CI_fab`-separable breakdown of this accelerator's embodied
    /// carbon (for elimination when the fab's grid intensity is unknown).
    ///
    /// # Errors
    ///
    /// Propagates assembly-construction errors (cannot occur for validated
    /// configurations).
    pub fn embodied_breakdown(
        &self,
        model: &EmbodiedModel,
    ) -> Result<cordoba_carbon::embodied::EmbodiedBreakdown, CarbonError> {
        Ok(model.assembly_breakdown(&self.assembly()?))
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} MAC units, {:.0} MiB SRAM{})",
            self.name,
            self.mac_units,
            self.sram.to_mebibytes(),
            if self.integration.is_stacked() {
                ", 3D"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(units: u32, sram_mib: f64) -> AcceleratorConfig {
        AcceleratorConfig::on_die("t", units, Bytes::from_mebibytes(sram_mib)).unwrap()
    }

    #[test]
    fn area_composition() {
        let c = cfg(16, 8.0);
        // 16*0.6 + 8*0.8 + 0.5 = 16.5 mm^2.
        assert!((c.logic_die_area().to_square_millimeters().value() - 16.5).abs() < 1e-9);
        assert_eq!(c.total_area(), c.logic_die_area());
        assert_eq!(c.memory_die_area(), SquareCentimeters::ZERO);
        assert_eq!(c.total_macs(), 16 * 128);
    }

    #[test]
    fn stacked_area_splits_dies() {
        let c =
            AcceleratorConfig::stacked_3d("3D_2K_8M", 16, Bytes::from_mebibytes(4.0), 2).unwrap();
        assert!((c.sram().to_mebibytes() - 8.0).abs() < 1e-12);
        // Logic die excludes SRAM: 16*0.6 + 0.5 = 10.1 mm^2.
        assert!((c.logic_die_area().to_square_millimeters().value() - 10.1).abs() < 1e-9);
        // Each memory die: 4 MiB * 0.8 = 3.2 mm^2.
        assert!((c.memory_die_area().to_square_millimeters().value() - 3.2).abs() < 1e-9);
        assert!((c.total_area().to_square_millimeters().value() - (10.1 + 6.4)).abs() < 1e-9);
        assert!(c.integration().is_stacked());
    }

    #[test]
    fn stacked_assembly_has_logic_plus_memory_dies() {
        let c = AcceleratorConfig::stacked_3d("s", 8, Bytes::from_mebibytes(2.0), 4).unwrap();
        let asm = c.assembly().unwrap();
        assert_eq!(asm.dice.len(), 5);
        assert_eq!(asm.interfaces(), 4);
        assert!(asm.compound_bond_yield() < 1.0);
    }

    #[test]
    fn on_die_assembly_is_single_die() {
        let asm = cfg(8, 2.0).assembly().unwrap();
        assert_eq!(asm.dice.len(), 1);
        assert_eq!(asm.compound_bond_yield(), 1.0);
    }

    #[test]
    fn embodied_increases_with_sram() {
        let model = EmbodiedModel::default();
        let small = cfg(8, 1.0).embodied_carbon(&model).unwrap();
        let big = cfg(8, 64.0).embodied_carbon(&model).unwrap();
        assert!(big.value() > 2.0 * small.value());
    }

    #[test]
    fn stacking_small_sram_on_top_beats_on_die_area_for_footprint_not_carbon() {
        // 3D pays bond yield + TSV overhead, so total embodied for the same
        // MACs+SRAM is slightly higher than the monolithic 2D die.
        let model = EmbodiedModel::default();
        let flat = cfg(8, 8.0).embodied_carbon(&model).unwrap();
        let stacked = AcceleratorConfig::stacked_3d("s", 8, Bytes::from_mebibytes(2.0), 4)
            .unwrap()
            .embodied_carbon(&model)
            .unwrap();
        assert!(stacked.value() > flat.value());
        // But not wildly higher.
        assert!(stacked.value() < 1.5 * flat.value());
    }

    #[test]
    fn leakage_scales_with_resources() {
        let small = cfg(1, 1.0).leakage_power();
        let big = cfg(64, 64.0).leakage_power();
        assert!(big.value() > small.value());
        let expected = 0.020 + 64.0 * 0.002 + 64.0 * 0.008;
        assert!((big.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn lifetime_operational_carbon_matches_closed_form_for_constant_ci() {
        use cordoba_carbon::intensity::{grids, ConstantCi};
        use cordoba_carbon::operational::operational_carbon;

        let c = cfg(8, 2.0);
        let usage = UsageProfile::from_daily_hours(3.0, 6.0).unwrap();
        let active = Watts::new(8.3);
        let got = c
            .lifetime_operational_carbon(active, &usage, &ConstantCi::new(grids::US_AVERAGE))
            .unwrap();
        // Constant CI: exactly `CI * (E_active + E_idle)`.
        let energy = active * usage.operational_time() + c.leakage_power() * usage.off_time();
        let expected = operational_carbon(grids::US_AVERAGE, energy);
        assert!((got.value() - expected.value()).abs() / expected.value() < 1e-9);
    }

    #[test]
    fn cleaner_grids_cut_lifetime_operational_carbon() {
        use cordoba_carbon::intensity::{grids, ConstantCi};

        let c = cfg(8, 2.0);
        let usage = UsageProfile::from_daily_hours(3.0, 6.0).unwrap();
        let active = Watts::new(8.3);
        let coal = c
            .lifetime_operational_carbon(active, &usage, &ConstantCi::new(grids::COAL))
            .unwrap();
        let wind = c
            .lifetime_operational_carbon(active, &usage, &ConstantCi::new(grids::WIND))
            .unwrap();
        assert!(coal.value() > wind.value());
    }

    #[test]
    fn validation() {
        assert!(AcceleratorConfig::on_die("x", 0, Bytes::from_mebibytes(1.0)).is_err());
        assert!(AcceleratorConfig::on_die("x", 1, Bytes::ZERO).is_err());
        assert!(AcceleratorConfig::stacked_3d("x", 1, Bytes::from_mebibytes(1.0), 0).is_err());
    }

    #[test]
    fn display_format() {
        let c =
            AcceleratorConfig::stacked_3d("3D_1K_2M", 8, Bytes::from_mebibytes(2.0), 1).unwrap();
        assert_eq!(c.to_string(), "3D_1K_2M (8 MAC units, 2 MiB SRAM, 3D)");
        assert_eq!(cfg(4, 1.0).to_string(), "t (4 MAC units, 1 MiB SRAM)");
    }
}
