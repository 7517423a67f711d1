//! Seeded input generators. Every input a workload uses is derived from
//! the workload seed through [`Rng`], so the same seed always yields the
//! same inputs and the program under test never sees the seed itself.
//
// cordoba-lint: allow-file(lossy-cast) —
// draws are bounded (below 256) before they are cast.

use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_carbon::units::{Bytes, Hertz};
use std::fmt::Write as _;

/// splitmix64: small, fast, and good enough to decorrelate generated
/// inputs; no external RNG crate is needed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A generated design space of `shapes × variants` configurations.
///
/// Shapes mix on-die and 3D-stacked memory across MAC counts, SRAM sizes
/// and die counts. Each shape appears in `variants` clock/utilization
/// tunings; those fields do not enter embodied carbon, so the variants of
/// one shape share an `EmbodiedCache` entry (a hit ratio of
/// `1 - 1/variants` on a fresh cache). The order is shuffled so the
/// sharing is not adjacent.
///
/// # Panics
///
/// Never for `shapes, variants > 0`: every generated value is positive.
#[must_use]
pub fn design_space(rng: &mut Rng, shapes: usize, variants: usize) -> Vec<AcceleratorConfig> {
    let mut space = Vec::with_capacity(shapes * variants);
    for s in 0..shapes {
        let mac_units = 1 + rng.below(128) as u32;
        let sram_mib = 0.25 * (1 + rng.below(256)) as f64;
        let integration = if rng.unit() < 0.6 {
            MemoryIntegration::OnDie
        } else {
            MemoryIntegration::Stacked3d {
                dies: 2 + rng.below(3) as u32,
            }
        };
        for v in 0..variants {
            let mut tuning = TechTuning::n7();
            tuning.clock = Hertz::from_gigahertz(0.5 + rng.unit());
            tuning.utilization = 0.7 + 0.25 * rng.unit();
            space.push(
                AcceleratorConfig::with_tuning(
                    format!("g{s}_{v}"),
                    mac_units,
                    Bytes::from_mebibytes(sram_mib),
                    integration,
                    tuning,
                )
                // cordoba-lint: allow(no-panic) — every generated value is positive
                .expect("generated shape is positive"),
            );
        }
    }
    for i in (1..space.len()).rev() {
        space.swap(i, rng.below(i + 1));
    }
    space
}

/// A design CSV in the `eliminate` format (`name,delay,energy,embodied`)
/// with `rows` valid rows: delay and energy trade off against embodied
/// carbon with multiplicative noise, like a real design sweep.
#[must_use]
pub fn design_csv(rng: &mut Rng, rows: usize) -> String {
    let mut csv = String::with_capacity(rows * 64);
    csv.push_str("name,delay,energy,embodied\n");
    for i in 0..rows {
        let size = 1.0 + 99.0 * rng.unit();
        let delay = 1e-3 / size * (0.5 + rng.unit());
        let energy = 1e-2 / size.sqrt() * (0.5 + rng.unit());
        let embodied = 50.0 * size * (0.5 + rng.unit());
        let _ = writeln!(csv, "d{i},{delay},{energy},{embodied}");
    }
    csv
}
