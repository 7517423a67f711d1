//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] bundles corruption probabilities with a seed; every
//! `corrupt_*` method derives its own generator from that seed (salted per
//! operation), so calls are independent, order-insensitive, and exactly
//! reproducible. Rates are clamped to `[0, 1]` at construction, which
//! keeps the plan total: no input can make the injector itself fail.

use cordoba_accel::params::TechTuning;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Default multiplier for spiked values.
const DEFAULT_SPIKE_SCALE: f64 = 1.0e3;

/// Per-operation salts so each `corrupt_*` call draws from an independent
/// deterministic stream (two operations on the same plan never alias).
const SALT_TRACE: u64 = 0x0074_7261_6365;
const SALT_VALUES: u64 = 0x7661_6c73_0000;
const SALT_TUNING: u64 = 0x7475_6e65_0000;
const SALT_TRIP: u64 = 0x7472_6970_0000;

/// Clamps a probability knob into `[0, 1]`, mapping non-finite input to 0
/// so `Rng::gen_bool` can never assert.
fn clamp_rate(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// A seeded recipe for corrupting traces and configurations and for
/// picking supervision trip points.
///
/// Build one with [`FaultPlan::new`] (all faults off) or
/// [`FaultPlan::chaos`] (every fault class enabled at moderate rates), then
/// tune individual rates with the `with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    shuffle: bool,
    nan_rate: f64,
    negative_rate: f64,
    spike_rate: f64,
    spike_scale: f64,
}

impl FaultPlan {
    /// A plan with every fault disabled; corruption methods are identity
    /// transforms until rates are raised.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            shuffle: false,
            nan_rate: 0.0,
            negative_rate: 0.0,
            spike_rate: 0.0,
            spike_scale: DEFAULT_SPIKE_SCALE,
        }
    }

    /// A preset with every fault class active at rates aggressive enough
    /// that a few-dozen-sample trace almost surely carries several faults.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        Self::new(seed)
            .with_drop_rate(0.15)
            .with_duplicate_rate(0.15)
            .with_shuffle(true)
            .with_nan_rate(0.08)
            .with_negative_rate(0.08)
            .with_spike_rate(0.08)
    }

    /// Sets the probability of silently dropping each trace sample
    /// (clamped to `[0, 1]`; non-finite input disables the fault).
    #[must_use]
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = clamp_rate(p);
        self
    }

    /// Sets the probability of emitting each trace sample twice (clamped
    /// to `[0, 1]`; non-finite input disables the fault).
    #[must_use]
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = clamp_rate(p);
        self
    }

    /// Enables or disables shuffling the corrupted trace out of
    /// chronological order.
    #[must_use]
    pub fn with_shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Sets the probability of replacing a value with NaN (clamped to
    /// `[0, 1]`; non-finite input disables the fault).
    #[must_use]
    pub fn with_nan_rate(mut self, p: f64) -> Self {
        self.nan_rate = clamp_rate(p);
        self
    }

    /// Sets the probability of flipping a value negative (clamped to
    /// `[0, 1]`; non-finite input disables the fault).
    #[must_use]
    pub fn with_negative_rate(mut self, p: f64) -> Self {
        self.negative_rate = clamp_rate(p);
        self
    }

    /// Sets the probability of spiking a value by [`spike_scale`]
    /// (clamped to `[0, 1]`; non-finite input disables the fault).
    ///
    /// [`spike_scale`]: FaultPlan::with_spike_scale
    #[must_use]
    pub fn with_spike_rate(mut self, p: f64) -> Self {
        self.spike_rate = clamp_rate(p);
        self
    }

    /// Sets the spike multiplier; non-finite or sub-unity magnitudes fall
    /// back to the default so a spike always distorts.
    #[must_use]
    pub fn with_spike_scale(mut self, scale: f64) -> Self {
        self.spike_scale = if scale.is_finite() && scale.abs() >= 1.0 {
            scale.abs()
        } else {
            DEFAULT_SPIKE_SCALE
        };
        self
    }

    /// The seed every corruption stream derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh generator for one corruption operation, salted so distinct
    /// operations draw from distinct deterministic streams.
    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Applies the value-fault ladder (NaN, then negative, then spike) to
    /// one sample.
    fn corrupt_one(&self, v: f64, rng: &mut StdRng) -> f64 {
        if rng.gen_bool(self.nan_rate) {
            return f64::NAN;
        }
        if rng.gen_bool(self.negative_rate) {
            return -v.abs() - 1.0;
        }
        if rng.gen_bool(self.spike_rate) {
            return v.abs().max(1.0) * self.spike_scale;
        }
        v
    }

    /// Corrupts a `(time, intensity)` trace: per-sample drop, value
    /// faults, duplication, then an optional whole-trace shuffle.
    ///
    /// Timestamps are left intact so duplicates collide exactly (the
    /// hardest case for a sanitizer to merge).
    #[must_use]
    pub fn corrupt_trace(
        &self,
        samples: &[(Seconds, CarbonIntensity)],
    ) -> Vec<(Seconds, CarbonIntensity)> {
        let mut rng = self.rng(SALT_TRACE);
        let mut out = Vec::with_capacity(samples.len());
        for &(t, ci) in samples {
            if rng.gen_bool(self.drop_rate) {
                continue;
            }
            // cordoba-lint: allow(unit-laundering) — a fault injector exists to forge invalid intensities
            let faulty = CarbonIntensity::new(self.corrupt_one(ci.value(), &mut rng));
            out.push((t, faulty));
            if rng.gen_bool(self.duplicate_rate) {
                out.push((t, faulty));
            }
        }
        if self.shuffle {
            out.shuffle(&mut rng);
        }
        out
    }

    /// Applies the value-fault ladder to an arbitrary series (no drops or
    /// duplication — the output has the input's length).
    #[must_use]
    pub fn corrupt_values(&self, values: &[f64]) -> Vec<f64> {
        let mut rng = self.rng(SALT_VALUES);
        values
            .iter()
            .map(|&v| self.corrupt_one(v, &mut rng))
            .collect()
    }

    /// Rate-driven corruption of a technology-tuning block: each plain
    /// scalar field passes through the value-fault ladder independently.
    ///
    /// With all rates at zero this is the identity; use
    /// [`poison_tuning`](Self::poison_tuning) when a fault must be
    /// guaranteed.
    #[must_use]
    pub fn corrupt_tuning(&self, tuning: &TechTuning) -> TechTuning {
        let mut rng = self.rng(SALT_TUNING);
        let mut t = *tuning;
        for field in Self::tuning_fields(&mut t) {
            *field = self.corrupt_one(*field, &mut rng);
        }
        t
    }

    /// Corrupts exactly one scalar field of a tuning block with a
    /// guaranteed-invalid value (NaN, negative, or an absurd magnitude),
    /// choosing field and poison from the plan's seed.
    ///
    /// The result is always distinguishable from the input, which makes it
    /// the right tool for "one poisoned configuration in a sweep" tests.
    #[must_use]
    pub fn poison_tuning(&self, tuning: &TechTuning) -> TechTuning {
        let mut rng = self.rng(SALT_TUNING.wrapping_add(1));
        let mut t = *tuning;
        let poison = match rng.gen_range(0..3u32) {
            0 => f64::NAN,
            1 => -1.0,
            _ => 1.0e30,
        };
        let fields = Self::tuning_fields(&mut t);
        let pick = rng.gen_range(0..fields.len().max(1));
        if let Some(field) = fields.into_iter().nth(pick) {
            *field = poison;
        }
        t
    }

    /// The plain scalar fields of a tuning block that the injector is
    /// allowed to corrupt (typed-unit fields are covered indirectly: a
    /// poisoned area or exponent propagates into every derived quantity).
    fn tuning_fields(t: &mut TechTuning) -> [&mut f64; 9] {
        [
            &mut t.utilization,
            &mut t.utilization_knee_units,
            &mut t.sram_energy_exponent,
            &mut t.sram_bytes_per_mac,
            &mut t.mac_unit_area_mm2,
            &mut t.sram_area_mm2_per_mib,
            &mut t.base_area_mm2,
            &mut t.refetch_exponent,
            &mut t.refetch_scale,
        ]
    }

    /// A deterministic supervision trip point: a draw from `[0, total]`
    /// marking how many progress units a supervised pipeline completes
    /// before it is interrupted (feed it to `Supervisor::tripping_after`).
    ///
    /// The full range is inclusive on both ends so a suite of seeds covers
    /// the edge cases — tripping before any work (`0`) and tripping after
    /// the last unit (`total`, which never fires).
    #[must_use]
    pub fn trip_point(&self, total: u64) -> u64 {
        let mut rng = self.rng(SALT_TRIP);
        rng.gen_range(0..=total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<(Seconds, CarbonIntensity)> {
        (0..48)
            .map(|h| {
                (
                    Seconds::from_hours(f64::from(h)),
                    CarbonIntensity::new(400.0 + 50.0 * f64::from(h % 24)),
                )
            })
            .collect()
    }

    #[test]
    fn zero_rate_plan_is_identity_on_traces() {
        let clean = trace();
        assert_eq!(FaultPlan::new(7).corrupt_trace(&clean), clean);
        assert_eq!(
            FaultPlan::new(7).corrupt_values(&[1.0, 2.0, 3.0]),
            vec![1.0, 2.0, 3.0]
        );
    }

    /// Bitwise key so NaN-carrying corruptions still compare equal to
    /// their reproductions (`NaN != NaN` under `PartialEq`).
    fn bits(samples: &[(Seconds, CarbonIntensity)]) -> Vec<(u64, u64)> {
        samples
            .iter()
            .map(|&(t, ci)| (t.value().to_bits(), ci.value().to_bits()))
            .collect()
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let clean = trace();
        let a = FaultPlan::chaos(123).corrupt_trace(&clean);
        let b = FaultPlan::chaos(123).corrupt_trace(&clean);
        assert_eq!(bits(&a), bits(&b));
        let c = FaultPlan::chaos(124).corrupt_trace(&clean);
        assert_ne!(
            bits(&a),
            bits(&c),
            "different seeds should corrupt differently"
        );
    }

    #[test]
    fn chaos_actually_corrupts() {
        let clean = trace();
        let bad = FaultPlan::chaos(1).corrupt_trace(&clean);
        assert_ne!(bad, clean);
        let has_fault = bad
            .iter()
            .any(|&(_, ci)| !ci.value().is_finite() || ci.value() < 0.0);
        let sorted = bad.windows(2).all(|w| w[0].0.value() <= w[1].0.value());
        assert!(
            has_fault || !sorted || bad.len() != clean.len(),
            "chaos plan left a 48-sample trace untouched"
        );
    }

    #[test]
    fn rates_are_clamped_so_gen_bool_cannot_assert() {
        let plan = FaultPlan::new(9)
            .with_drop_rate(7.0)
            .with_duplicate_rate(-3.0)
            .with_nan_rate(f64::NAN)
            .with_negative_rate(f64::INFINITY)
            .with_spike_rate(2.0)
            .with_spike_scale(f64::NAN);
        // drop=1.0 drops everything; nothing panics on the way.
        assert!(plan.corrupt_trace(&trace()).is_empty());
    }

    #[test]
    fn poison_tuning_always_breaks_something() {
        let base = TechTuning::n7();
        for seed in 0..64 {
            let poisoned = FaultPlan::new(seed).poison_tuning(&base);
            assert_ne!(
                poisoned, base,
                "seed {seed}: poison_tuning returned the clean tuning"
            );
        }
    }

    #[test]
    fn trip_point_is_deterministic_and_in_range() {
        for seed in 0..64 {
            let plan = FaultPlan::new(seed);
            let t = plan.trip_point(10);
            assert_eq!(t, plan.trip_point(10), "seed {seed}: trip_point drifted");
            assert!(t <= 10);
            assert_eq!(plan.trip_point(0), 0);
        }
        let hits: std::collections::HashSet<u64> =
            (0..64).map(|s| FaultPlan::new(s).trip_point(10)).collect();
        assert!(
            hits.len() > 4,
            "64 seeds should spread trip points across [0, 10]"
        );
    }
}
