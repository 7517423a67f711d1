//! Roofline latency/energy simulation of a kernel on an accelerator
//! configuration (the paper's Fig. 5 simulator, rebuilt analytically).
//!
//! * **Latency** is the roofline maximum of compute time
//!   (`MACs / peak throughput`) and DRAM time (`traffic / bandwidth`),
//!   assuming perfect overlap of compute and memory.
//! * **DRAM traffic** is weights + kernel I/O plus a *re-fetch
//!   amplification* term that kicks in when the activation working set
//!   exceeds the on-chip SRAM: tiled dataflows re-fetch activations
//!   super-linearly in the overflow ratio. The term is calibrated so that
//!   growing SRAM from 2 MiB to 32 MiB cuts a super-resolution kernel's
//!   bandwidth demand by roughly the paper's quoted 89.6x.
//! * **Energy** sums MAC, SRAM (capacity-dependent per-access energy, with
//!   a 3D-hop multiplier for stacked memory), and DRAM contributions.

use crate::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_carbon::units::{Bytes, Joules, Seconds, Watts};
use cordoba_workloads::cost::{CostTable, KernelCost, MissingKernel};
use cordoba_workloads::kernel::{KernelDescriptor, KernelId};
use cordoba_workloads::task::Task;
use serde::{Deserialize, Serialize};

/// Result of simulating one kernel inference on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelSim {
    /// Which kernel was simulated.
    pub kernel: KernelId,
    /// End-to-end latency of one inference.
    pub latency: Seconds,
    /// Dynamic energy of one inference (excludes leakage).
    pub dynamic_energy: Joules,
    /// Bytes moved to/from DRAM.
    pub dram_traffic: Bytes,
    /// Time the compute roofline alone would take.
    pub compute_time: Seconds,
    /// Time the memory roofline alone would take.
    pub memory_time: Seconds,
}

impl KernelSim {
    /// `true` when the kernel is DRAM-bandwidth bound on this config.
    #[must_use]
    pub fn is_memory_bound(&self) -> bool {
        self.memory_time > self.compute_time
    }

    /// Average dynamic power over the inference.
    #[must_use]
    pub fn dynamic_power(&self) -> Watts {
        self.dynamic_energy / self.latency
    }

    /// Sustained DRAM bandwidth demand of this kernel at full rate.
    #[must_use]
    pub fn bandwidth_demand(&self) -> f64 {
        self.dram_traffic.value() / self.latency.value()
    }
}

/// Simulates one inference of `kernel` on `config`.
///
/// # Examples
///
/// ```
/// use cordoba_accel::config::AcceleratorConfig;
/// use cordoba_accel::sim::simulate;
/// use cordoba_carbon::units::Bytes;
/// use cordoba_workloads::kernel::KernelId;
///
/// let cfg = AcceleratorConfig::on_die("a48", 16, Bytes::from_mebibytes(8.0))?;
/// let sim = simulate(&cfg, &KernelId::ResNet50.descriptor());
/// assert!(sim.latency.is_positive());
/// assert!(sim.dynamic_energy.is_positive());
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[must_use]
pub fn simulate(config: &AcceleratorConfig, kernel: &KernelDescriptor) -> KernelSim {
    let t = config.tuning();

    // Compute roofline (utilization depends on kernel parallelism).
    let peak = t.peak_macs_per_second(config.mac_units(), kernel.macs / 1e9);
    let compute_time = Seconds::new(kernel.macs / peak);

    // DRAM traffic: weights stream once; activations move as kernel I/O
    // plus re-fetch amplification when the working set exceeds SRAM.
    let io = kernel.activation * t.io_traffic_fraction + kernel.weights;
    let overflow = kernel.activation.value() / config.sram().value();
    let refetch = if overflow > 1.0 {
        kernel.activation * (t.refetch_scale * (overflow.powf(t.refetch_exponent) - 1.0))
    } else {
        Bytes::ZERO
    };
    let dram_traffic = io + refetch;
    let memory_time: Seconds = dram_traffic / t.dram_bandwidth;

    let latency = compute_time.max(memory_time);

    // Energy.
    let mac_energy = t.mac_energy * kernel.macs;
    let sram_factor = match config.integration() {
        MemoryIntegration::OnDie => 1.0,
        MemoryIntegration::Stacked3d { .. } => t.stacked_sram_energy_factor,
    };
    let sram_bytes = kernel.macs * t.sram_bytes_per_mac;
    let sram_energy = t.sram_energy_per_byte(config.sram()) * sram_bytes * sram_factor;
    let dram_energy = t.dram_energy_per_byte * dram_traffic.value();
    let dynamic_energy = mac_energy + sram_energy + dram_energy;

    KernelSim {
        kernel: kernel.id,
        latency,
        dynamic_energy,
        dram_traffic,
        compute_time,
        memory_time,
    }
}

/// Builds a [`CostTable`] for the given kernels on `config` (leakage power
/// included), ready for the eq. IV.2/IV.4 task evaluation.
#[must_use]
pub fn cost_table(
    config: &AcceleratorConfig,
    kernels: impl IntoIterator<Item = KernelId>,
) -> CostTable {
    let mut table = CostTable::new(config.leakage_power());
    for id in kernels {
        let sim = simulate(config, &id.descriptor());
        table.insert(id, KernelCost::new(sim.latency, sim.dynamic_power()));
    }
    table
}

/// Builds a [`CostTable`] covering all fifteen kernels.
#[must_use]
pub fn full_cost_table(config: &AcceleratorConfig) -> CostTable {
    cost_table(config, KernelId::ALL)
}

/// Per-kernel inputs of the batch simulator, laid out as contiguous arrays
/// with the descriptor lookup and the utilization-knee clamp hoisted out of
/// the per-config loop.
///
/// Kernels passed by id are deduplicated (first occurrence wins), so a slab
/// built through [`KernelSlab::new`] or [`KernelSlab::full`] never exceeds
/// [`KernelSlab::CAP`] kernels — the invariant [`SlabCosts`] relies on.
#[derive(Debug, Clone)]
pub struct KernelSlab {
    ids: Vec<KernelId>,
    /// MACs per inference.
    macs: Vec<f64>,
    /// `(macs / 1e9).clamp(0.5, 16.0)` — the knee scale of
    /// [`crate::params::TechTuning::achieved_utilization`].
    gmacs_clamped: Vec<f64>,
    /// Peak activation footprint in bytes.
    activation: Vec<f64>,
    /// Weight footprint in bytes.
    weights: Vec<f64>,
}

impl KernelSlab {
    /// Upper bound on the kernel count of a deduplicated slab (the full
    /// kernel catalog).
    pub const CAP: usize = KernelId::ALL.len();

    /// Lays out the descriptors of the given kernels, deduplicating by id
    /// (first occurrence wins).
    #[must_use]
    pub fn new(kernels: impl IntoIterator<Item = KernelId>) -> Self {
        let mut slab = Self {
            ids: Vec::new(),
            macs: Vec::new(),
            gmacs_clamped: Vec::new(),
            activation: Vec::new(),
            weights: Vec::new(),
        };
        for id in kernels {
            if slab.ids.contains(&id) {
                continue;
            }
            let k = id.descriptor();
            slab.ids.push(id);
            slab.macs.push(k.macs);
            slab.gmacs_clamped.push((k.macs / 1e9).clamp(0.5, 16.0));
            slab.activation.push(k.activation.value());
            slab.weights.push(k.weights.value());
        }
        slab
    }

    /// A slab covering all fifteen kernels, in [`KernelId::ALL`] order.
    #[must_use]
    pub fn full() -> Self {
        Self::new(KernelId::ALL)
    }

    /// Number of kernels in the slab.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the slab holds no kernels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The kernel ids, in slab order.
    #[must_use]
    pub fn ids(&self) -> &[KernelId] {
        &self.ids
    }

    /// Slab index of a kernel, if present.
    #[must_use]
    pub fn index_of(&self, id: KernelId) -> Option<usize> {
        self.ids.iter().position(|k| *k == id)
    }
}

/// Struct-of-arrays layout of the per-config simulator inputs: every tuning
/// parameter the roofline model reads, derived once per configuration so
/// the config × kernel inner loop touches only contiguous `f64` arrays.
///
/// Hoisted per config (versus [`simulate`], which re-derives them per
/// kernel): the kernel-independent throughput factor
/// `units x MACS_PER_UNIT x clock`, the capacity-dependent SRAM energy per
/// byte (a `powf`), the 3D-stacking energy factor, and the leakage power.
/// Every hoist preserves the scalar path's exact operation order, so batch
/// results are bit-identical to per-kernel [`simulate`] calls.
#[derive(Debug, Clone)]
pub struct ConfigBatch {
    /// `units x MACS_PER_UNIT x clock` — peak throughput before the
    /// utilization factor.
    rate: Vec<f64>,
    /// MAC units as `f64`.
    units: Vec<f64>,
    utilization: Vec<f64>,
    knee_units: Vec<f64>,
    /// SRAM capacity in bytes.
    sram: Vec<f64>,
    io_fraction: Vec<f64>,
    refetch_scale: Vec<f64>,
    refetch_exponent: Vec<f64>,
    dram_bandwidth: Vec<f64>,
    mac_energy: Vec<f64>,
    /// Capacity-dependent SRAM energy per byte (the hoisted `powf`).
    sram_energy_per_byte: Vec<f64>,
    /// 1.0 on-die, the stacking factor for 3D memory.
    sram_factor: Vec<f64>,
    sram_bytes_per_mac: Vec<f64>,
    dram_energy_per_byte: Vec<f64>,
    /// Leakage power in watts.
    leakage: Vec<f64>,
}

impl ConfigBatch {
    /// Derives the per-config arrays from a configuration list.
    #[must_use]
    pub fn new(configs: &[AcceleratorConfig]) -> Self {
        let n = configs.len();
        let mut b = Self {
            rate: Vec::with_capacity(n),
            units: Vec::with_capacity(n),
            utilization: Vec::with_capacity(n),
            knee_units: Vec::with_capacity(n),
            sram: Vec::with_capacity(n),
            io_fraction: Vec::with_capacity(n),
            refetch_scale: Vec::with_capacity(n),
            refetch_exponent: Vec::with_capacity(n),
            dram_bandwidth: Vec::with_capacity(n),
            mac_energy: Vec::with_capacity(n),
            sram_energy_per_byte: Vec::with_capacity(n),
            sram_factor: Vec::with_capacity(n),
            sram_bytes_per_mac: Vec::with_capacity(n),
            dram_energy_per_byte: Vec::with_capacity(n),
            leakage: Vec::with_capacity(n),
        };
        for config in configs {
            let t = config.tuning();
            let units = f64::from(config.mac_units());
            b.rate
                .push(units * f64::from(crate::params::MACS_PER_UNIT) * t.clock.value());
            b.units.push(units);
            b.utilization.push(t.utilization);
            b.knee_units.push(t.utilization_knee_units);
            b.sram.push(config.sram().value());
            b.io_fraction.push(t.io_traffic_fraction);
            b.refetch_scale.push(t.refetch_scale);
            b.refetch_exponent.push(t.refetch_exponent);
            b.dram_bandwidth.push(t.dram_bandwidth.value());
            b.mac_energy.push(t.mac_energy.value());
            b.sram_energy_per_byte
                .push(t.sram_energy_per_byte(config.sram()).value());
            b.sram_factor.push(match config.integration() {
                MemoryIntegration::OnDie => 1.0,
                MemoryIntegration::Stacked3d { .. } => t.stacked_sram_energy_factor,
            });
            b.sram_bytes_per_mac.push(t.sram_bytes_per_mac);
            b.dram_energy_per_byte.push(t.dram_energy_per_byte.value());
            b.leakage.push(config.leakage_power().value());
        }
        b
    }

    /// Number of configurations in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// `true` when the batch holds no configurations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }

    /// Leakage power of configuration `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range.
    #[must_use]
    pub fn leakage_power(&self, c: usize) -> Watts {
        Watts::new(self.leakage[c])
    }

    /// Simulates kernel `k` of `slab` on configuration `c`, replicating the
    /// scalar [`simulate`] operation for operation — same `f64` op order,
    /// same results to the last bit.
    ///
    /// # Panics
    ///
    /// Panics when `c` or `k` is out of range.
    #[must_use]
    pub fn simulate_at(&self, c: usize, slab: &KernelSlab, k: usize) -> KernelSim {
        // Compute roofline: peak = (units x MACS x clock) x utilization,
        // with the first three factors hoisted into `rate` (the scalar path
        // multiplies left to right, so the grouping is identical).
        let util = self.utilization[c]
            / (1.0 + self.units[c] / (self.knee_units[c] * slab.gmacs_clamped[k]));
        let peak = self.rate[c] * util;
        let compute_time = slab.macs[k] / peak;

        // DRAM traffic with SRAM-overflow re-fetch amplification.
        let io = slab.activation[k] * self.io_fraction[c] + slab.weights[k];
        let overflow = slab.activation[k] / self.sram[c];
        let refetch = if overflow > 1.0 {
            slab.activation[k]
                * (self.refetch_scale[c] * (overflow.powf(self.refetch_exponent[c]) - 1.0))
        } else {
            0.0
        };
        let dram_traffic = io + refetch;
        let memory_time = dram_traffic / self.dram_bandwidth[c];
        let latency = compute_time.max(memory_time);

        // Energy: MAC + SRAM (hoisted capacity-dependent per-byte energy,
        // hoisted stacking factor) + DRAM.
        let mac_energy = self.mac_energy[c] * slab.macs[k];
        let sram_bytes = slab.macs[k] * self.sram_bytes_per_mac[c];
        let sram_energy = self.sram_energy_per_byte[c] * sram_bytes * self.sram_factor[c];
        let dram_energy = self.dram_energy_per_byte[c] * dram_traffic;
        let dynamic_energy = mac_energy + sram_energy + dram_energy;

        KernelSim {
            kernel: slab.ids[k],
            latency: Seconds::new(latency),
            dynamic_energy: Joules::new(dynamic_energy),
            dram_traffic: Bytes::new(dram_traffic),
            compute_time: Seconds::new(compute_time),
            memory_time: Seconds::new(memory_time),
        }
    }

    /// Delay and dynamic power of every slab kernel on configuration `c`,
    /// on the stack (no heap traffic per configuration).
    ///
    /// Lane-wise: the configuration's scalars are read once, then three
    /// loops run over the slab's kernel lanes — roofline, I/O and overflow
    /// ratio; a scalar `powf` re-fetch fix-up only on lanes whose working
    /// set overflows SRAM; memory time, latency, energy and power. The
    /// first and last loops are branch-free arithmetic over contiguous
    /// lanes, left to the auto-vectorizer: on baseline x86-64 the last one
    /// compiles to packed `divpd`/`mulpd`/`maxpd`, while the first stays
    /// scalar (its chain of three divisions does not pay at SSE2 width).
    /// Every lane keeps
    /// [`ConfigBatch::simulate_at`]'s exact operation order and grouping
    /// (including the `io + refetch` add when the re-fetch is `0.0`), so
    /// the costs are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range or the slab exceeds
    /// [`KernelSlab::CAP`] kernels.
    #[must_use]
    pub fn slab_costs(&self, c: usize, slab: &KernelSlab) -> SlabCosts {
        const CAP: usize = KernelSlab::CAP;
        let n = slab.len();
        assert!(n <= CAP, "slab of {n} kernels exceeds {CAP}");
        let (utilization, units, knee_units, rate) = (
            self.utilization[c],
            self.units[c],
            self.knee_units[c],
            self.rate[c],
        );
        let (io_fraction, sram) = (self.io_fraction[c], self.sram[c]);
        let (macs, gmacs) = (&slab.macs[..n], &slab.gmacs_clamped[..n]);
        let (activation, weights) = (&slab.activation[..n], &slab.weights[..n]);

        // Lane loop 1: compute roofline, kernel I/O and the overflow ratio.
        let mut compute_time = [0.0; CAP];
        let mut io = [0.0; CAP];
        let mut overflow = [0.0; CAP];
        for k in 0..n {
            let util = utilization / (1.0 + units / (knee_units * gmacs[k]));
            let peak = rate * util;
            compute_time[k] = macs[k] / peak;
            io[k] = activation[k] * io_fraction + weights[k];
            overflow[k] = activation[k] / sram;
        }

        // Lane loop 2: the re-fetch term, only where the working set
        // overflows SRAM (0.0 elsewhere, as in the scalar path).
        let (refetch_scale, refetch_exponent) = (self.refetch_scale[c], self.refetch_exponent[c]);
        let mut refetch = [0.0; CAP];
        for k in 0..n {
            if overflow[k] > 1.0 {
                refetch[k] =
                    activation[k] * (refetch_scale * (overflow[k].powf(refetch_exponent) - 1.0));
            }
        }

        // Lane loop 3: memory time, latency, energy and dynamic power.
        let (dram_bandwidth, mac_energy) = (self.dram_bandwidth[c], self.mac_energy[c]);
        let (sram_energy_per_byte, sram_factor) =
            (self.sram_energy_per_byte[c], self.sram_factor[c]);
        let (sram_bytes_per_mac, dram_energy_per_byte) =
            (self.sram_bytes_per_mac[c], self.dram_energy_per_byte[c]);
        let mut costs = [KernelCost::new(Seconds::ZERO, Watts::ZERO); CAP];
        for k in 0..n {
            let dram_traffic = io[k] + refetch[k];
            let memory_time = dram_traffic / dram_bandwidth;
            let latency = compute_time[k].max(memory_time);
            let mac = mac_energy * macs[k];
            let sram_bytes = macs[k] * sram_bytes_per_mac;
            let sram_energy = sram_energy_per_byte * sram_bytes * sram_factor;
            let dram_energy = dram_energy_per_byte * dram_traffic;
            let dynamic_energy = mac + sram_energy + dram_energy;
            costs[k] = KernelCost::new(Seconds::new(latency), Watts::new(dynamic_energy / latency));
        }
        SlabCosts { costs, len: n }
    }

    /// Task delay and energy of configuration `c` (paper eq. IV.2/IV.4),
    /// replicating [`cordoba_workloads::cost::CostTable::task_delay`] and
    /// [`CostTable::task_energy`] operation for operation over the plan's
    /// entries — including re-deriving each kernel's dynamic energy as
    /// `power x delay` rather than reusing the simulator's energy, because
    /// `e / d * d` is not `e` in floating point.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range or `costs` was built from a slab
    /// shorter than the plan's kernel indices.
    #[must_use]
    pub fn task_cost(&self, c: usize, costs: &SlabCosts, plan: &TaskPlan) -> (Seconds, Joules) {
        let mut delay = Seconds::ZERO;
        for &(k, calls) in &plan.entries {
            delay += costs.get(k).delay * calls;
        }
        let mut dynamic = Joules::ZERO;
        for &(k, calls) in &plan.entries {
            dynamic += costs.get(k).dynamic_energy() * calls;
        }
        let energy = dynamic + Watts::new(self.leakage[c]) * delay;
        (delay, energy)
    }
}

/// Stack-allocated per-kernel costs of one configuration over one
/// [`KernelSlab`] — the batch pipeline's replacement for the scalar path's
/// `BTreeMap`-backed [`CostTable`].
#[derive(Debug, Clone, Copy)]
pub struct SlabCosts {
    costs: [KernelCost; KernelSlab::CAP],
    len: usize,
}

impl SlabCosts {
    /// Cost of the kernel at slab index `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    #[must_use]
    pub fn get(&self, k: usize) -> KernelCost {
        assert!(k < self.len, "slab index {k} out of range ({})", self.len);
        self.costs[k]
    }

    /// The costs in slab order.
    #[must_use]
    pub fn as_slice(&self) -> &[KernelCost] {
        &self.costs[..self.len]
    }
}

/// A task resolved against a [`KernelSlab`]: the task's `(kernel, calls)`
/// entries in declaration order, with kernels replaced by slab indices so
/// the evaluation loop does no map lookups.
#[derive(Debug, Clone)]
pub struct TaskPlan {
    entries: Vec<(usize, f64)>,
}

impl TaskPlan {
    /// Resolves `task` against `slab`, preserving the task's entry order
    /// (which [`CostTable::task_delay`] / [`CostTable::task_energy`] sum
    /// in).
    ///
    /// # Errors
    ///
    /// Returns [`MissingKernel`] when the task references a kernel the slab
    /// does not carry.
    pub fn new(task: &Task, slab: &KernelSlab) -> Result<Self, MissingKernel> {
        let entries = task
            .entries()
            .map(|(kernel, calls)| {
                slab.index_of(kernel)
                    .map(|k| (k, calls))
                    .ok_or(MissingKernel { kernel })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { entries })
    }

    /// Number of `(kernel, calls)` entries in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plan has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Simulates every kernel of `slab` on every configuration, row-major by
/// configuration: entry `c * slab.len() + k` is kernel `k` on config `c`,
/// bit-identical to `simulate(&configs[c], &slab.ids()[k].descriptor())`.
#[must_use]
pub fn simulate_batch(configs: &[AcceleratorConfig], slab: &KernelSlab) -> Vec<KernelSim> {
    let batch = ConfigBatch::new(configs);
    let mut out = Vec::with_capacity(configs.len() * slab.len());
    for c in 0..batch.len() {
        for k in 0..slab.len() {
            out.push(batch.simulate_at(c, slab, k));
        }
    }
    out
}

/// Batch sibling of [`full_cost_table`]: one [`CostTable`] per
/// configuration, each bit-identical to `full_cost_table(&configs[c])`,
/// with descriptor lookup and tuning derivation done once for the whole
/// batch.
#[must_use]
pub fn full_cost_table_batch(configs: &[AcceleratorConfig]) -> Vec<CostTable> {
    let slab = KernelSlab::full();
    let batch = ConfigBatch::new(configs);
    (0..batch.len())
        .map(|c| {
            let mut table = CostTable::new(batch.leakage_power(c));
            for k in 0..slab.len() {
                let sim = batch.simulate_at(c, &slab, k);
                table.insert(
                    slab.ids[k],
                    KernelCost::new(sim.latency, sim.dynamic_power()),
                );
            }
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_workloads::task::Task;

    fn cfg(units: u32, sram_mib: f64) -> AcceleratorConfig {
        AcceleratorConfig::on_die(
            format!("u{units}s{sram_mib}"),
            units,
            Bytes::from_mebibytes(sram_mib),
        )
        .unwrap()
    }

    #[test]
    fn more_macs_cut_compute_time_sublinearly() {
        let k = KernelId::ResNet50.descriptor();
        let slow = simulate(&cfg(1, 8.0), &k);
        let fast = simulate(&cfg(64, 8.0), &k);
        let speedup = slow.compute_time.value() / fast.compute_time.value();
        // 64x the units: big speedup, but below linear (utilization decay).
        assert!(speedup > 10.0 && speedup < 64.0, "speedup {speedup}");
        assert!(fast.latency < slow.latency);
    }

    #[test]
    fn small_sram_makes_sr_memory_bound() {
        // SR(1024) on 1 MiB SRAM must be savagely memory bound; with 256 MiB
        // more compute bound.
        let k = KernelId::Sr1024.descriptor();
        let starved = simulate(&cfg(16, 1.0), &k);
        assert!(starved.is_memory_bound());
        let fed = simulate(&cfg(16, 512.0), &k);
        assert!(!fed.is_memory_bound());
        assert!(fed.latency < starved.latency);
    }

    #[test]
    fn sram_growth_cuts_bandwidth_demand_by_paper_magnitude() {
        // §V: growing activation SRAM 2 -> 32 MiB cuts the SR bandwidth
        // requirement by 89.6x. Our refetch calibration should land within
        // a factor ~2 of that.
        let k = KernelId::Sr1024.descriptor();
        let at2 = simulate(&cfg(16, 2.0), &k);
        let at32 = simulate(&cfg(16, 32.0), &k);
        let ratio = at2.dram_traffic.value() / at32.dram_traffic.value();
        assert!(
            ratio > 40.0 && ratio < 200.0,
            "bandwidth reduction ratio {ratio}"
        );
    }

    #[test]
    fn fitting_activations_eliminates_refetch() {
        let k = KernelId::ResNet18.descriptor(); // 3 MiB activations
        let fits = simulate(&cfg(8, 4.0), &k);
        let expected_io = k.activation.value() * 0.25 + k.weights.value();
        assert!((fits.dram_traffic.value() - expected_io).abs() < 1.0);
    }

    #[test]
    fn energy_components_monotonic() {
        let k = KernelId::Sr512.descriptor();
        // Bigger SRAM: less DRAM energy, more per-access SRAM energy.
        let small = simulate(&cfg(16, 2.0), &k);
        let big = simulate(&cfg(16, 64.0), &k);
        assert!(big.dram_traffic < small.dram_traffic);
        // Overall, for a spilling kernel, bigger SRAM saves energy here.
        assert!(big.dynamic_energy < small.dynamic_energy);
    }

    #[test]
    fn oversized_sram_wastes_energy_for_small_kernels() {
        // For a kernel that already fits, growing SRAM only raises access
        // energy (and embodied carbon) — the over-provisioning signal that
        // drives tCDP-optimal designs to small SRAM for AI tasks.
        let k = KernelId::MobileNetV2.descriptor(); // 4 MiB
        let right = simulate(&cfg(8, 4.0), &k);
        let bloated = simulate(&cfg(8, 512.0), &k);
        assert!(bloated.dynamic_energy > right.dynamic_energy);
        assert_eq!(bloated.dram_traffic, right.dram_traffic);
    }

    #[test]
    fn stacked_memory_pays_small_energy_premium_only() {
        let k = KernelId::Sr512.descriptor();
        let flat = simulate(&cfg(16, 8.0), &k);
        let stacked = simulate(
            &AcceleratorConfig::stacked_3d("s", 16, Bytes::from_mebibytes(4.0), 2).unwrap(),
            &k,
        );
        // Same SRAM capacity -> same traffic; slightly higher SRAM energy.
        assert_eq!(stacked.dram_traffic, flat.dram_traffic);
        assert!(stacked.dynamic_energy > flat.dynamic_energy);
        assert!(stacked.dynamic_energy.value() < flat.dynamic_energy.value() * 1.2);
    }

    #[test]
    fn cost_table_feeds_task_equations() {
        let c = cfg(16, 8.0);
        let table = full_cost_table(&c);
        assert_eq!(table.len(), 15);
        let task = Task::xr_5_kernels();
        let delay = table.task_delay(&task).unwrap();
        let energy = table.task_energy(&task).unwrap();
        assert!(delay.is_positive());
        assert!(energy.is_positive());
        // Task delay is the sum of kernel latencies.
        let by_hand: Seconds = task
            .kernels()
            .map(|k| simulate(&c, &k.descriptor()).latency)
            .sum();
        assert!((delay.value() - by_hand.value()).abs() / by_hand.value() < 1e-12);
    }

    #[test]
    fn bandwidth_demand_reported() {
        let k = KernelId::Sr1024.descriptor();
        let starved = simulate(&cfg(16, 2.0), &k);
        // Memory-bound kernels demand the full DRAM bandwidth.
        assert!((starved.bandwidth_demand() - 16e9).abs() / 16e9 < 1e-9);
    }

    /// A small but shape-diverse batch: on-die and stacked, overflowing and
    /// fitting SRAM, tiny and huge arrays.
    fn mixed_batch() -> Vec<AcceleratorConfig> {
        vec![
            cfg(1, 1.0),
            cfg(16, 8.0),
            cfg(64, 512.0),
            AcceleratorConfig::stacked_3d("s2", 16, Bytes::from_mebibytes(4.0), 2).unwrap(),
            AcceleratorConfig::stacked_3d("s4", 128, Bytes::from_mebibytes(32.0), 4).unwrap(),
        ]
    }

    fn sim_bits(s: &KernelSim) -> [u64; 5] {
        [
            s.latency.value().to_bits(),
            s.dynamic_energy.value().to_bits(),
            s.dram_traffic.value().to_bits(),
            s.compute_time.value().to_bits(),
            s.memory_time.value().to_bits(),
        ]
    }

    #[test]
    fn batch_simulation_is_bit_identical_to_scalar() {
        let configs = mixed_batch();
        let slab = KernelSlab::full();
        let sims = simulate_batch(&configs, &slab);
        assert_eq!(sims.len(), configs.len() * slab.len());
        for (c, config) in configs.iter().enumerate() {
            for (k, &id) in slab.ids().iter().enumerate() {
                let scalar = simulate(config, &id.descriptor());
                let batch = &sims[c * slab.len() + k];
                assert_eq!(batch.kernel, scalar.kernel);
                assert_eq!(
                    sim_bits(batch),
                    sim_bits(&scalar),
                    "config {} kernel {id}",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn batch_cost_tables_are_bit_identical_to_scalar() {
        let configs = mixed_batch();
        let tables = full_cost_table_batch(&configs);
        assert_eq!(tables.len(), configs.len());
        for (config, table) in configs.iter().zip(&tables) {
            let scalar = full_cost_table(config);
            assert_eq!(table.leakage_power, scalar.leakage_power);
            for id in KernelId::ALL {
                let b = table.get(id).unwrap();
                let s = scalar.get(id).unwrap();
                assert_eq!(b.delay.value().to_bits(), s.delay.value().to_bits());
                assert_eq!(
                    b.dynamic_power.value().to_bits(),
                    s.dynamic_power.value().to_bits()
                );
            }
        }
    }

    #[test]
    fn task_cost_matches_cost_table_equations_bit_for_bit() {
        let configs = mixed_batch();
        let batch = ConfigBatch::new(&configs);
        for task in [
            Task::all_kernels(),
            Task::ai_5_kernels(),
            Task::xr_5_kernels(),
            Task::xr_10_kernels(),
        ] {
            let slab = KernelSlab::new(task.kernels());
            let plan = TaskPlan::new(&task, &slab).unwrap();
            assert_eq!(plan.len(), task.kernels().count());
            for (c, config) in configs.iter().enumerate() {
                let costs = batch.slab_costs(c, &slab);
                let (delay, energy) = batch.task_cost(c, &costs, &plan);
                let table = full_cost_table(config);
                let want_delay = table.task_delay(&task).unwrap();
                let want_energy = table.task_energy(&task).unwrap();
                assert_eq!(
                    delay.value().to_bits(),
                    want_delay.value().to_bits(),
                    "{} delay on {}",
                    task.name(),
                    config.name()
                );
                assert_eq!(
                    energy.value().to_bits(),
                    want_energy.value().to_bits(),
                    "{} energy on {}",
                    task.name(),
                    config.name()
                );
            }
        }
    }

    #[test]
    fn slab_dedups_and_resolves_indices() {
        let slab = KernelSlab::new([KernelId::Sr512, KernelId::ResNet18, KernelId::Sr512]);
        assert_eq!(slab.len(), 2);
        assert!(!slab.is_empty());
        assert_eq!(slab.index_of(KernelId::Sr512), Some(0));
        assert_eq!(slab.index_of(KernelId::ResNet18), Some(1));
        assert_eq!(slab.index_of(KernelId::UNet), None);
        // A plan against a slab missing one of the task's kernels fails.
        let task = Task::uniform("u", [KernelId::UNet]).unwrap();
        assert!(TaskPlan::new(&task, &slab).is_err());
    }

    #[test]
    fn dynamic_power_is_energy_over_latency() {
        let s = simulate(&cfg(8, 8.0), &KernelId::ResNet50.descriptor());
        assert!(
            (s.dynamic_power().value() - s.dynamic_energy.value() / s.latency.value()).abs()
                < 1e-12
        );
    }
}
