//! Design-space exploration across operational time (§VI-A/§VI-B,
//! Figures 6-8).
//!
//! The central trick of the paper's Fig. 8: plotting tCDP against
//! operational time (number of inferences) sweeps *every possible ratio* of
//! embodied to operational carbon. Designs that are never optimal at any
//! ratio are eliminated — typically 96-98 % of the space — and the
//! survivors are exactly the candidates a designer must choose between
//! under uncertainty.

use crate::error::CoreError;
use crate::metrics::DesignPoint;
use crate::supervise::{SupervisedEval, SweepCheckpoint};
use cordoba_accel::cache::EmbodiedCache;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::sim::{full_cost_table, ConfigBatch, KernelSlab, SlabCosts, TaskPlan};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_obs::Name;
use cordoba_par::{CostHint, SupervisedMap, Supervisor};
use cordoba_workloads::task::Task;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

/// Estimated cost of characterizing one configuration through the batch
/// pipeline (roofline + task equations + memoized embodied carbon). Feeds
/// the [`CostHint`] chunk sizing: the seed 121-config space stays on the
/// calling thread while thousand-config spaces fan out.
pub(crate) const EVAL_NS_PER_CONFIG: u64 = 1_200;

/// The batch-evaluation state shared by every configuration of one space
/// evaluation: the SoA simulator inputs, each task resolved to slab
/// indices, and the embodied-carbon memo — everything the per-config
/// scalar path re-derived on every call, hoisted out of the hot loop.
///
/// [`EvalBatch::design_point`] (one configuration, first task) produces
/// results bit-identical to [`accel_design_point`], including the error
/// for an invalid configuration; [`EvalBatch::chunk`] (a range of
/// configurations, every task) produces the same points stage by stage.
pub(crate) struct EvalBatch<'a> {
    configs: &'a [AcceleratorConfig],
    batch: ConfigBatch,
    slab: KernelSlab,
    plans: Vec<TaskPlan>,
    cache: EmbodiedCache,
}

impl<'a> EvalBatch<'a> {
    pub(crate) fn new(
        configs: &'a [AcceleratorConfig],
        tasks: &[Task],
        embodied: &EmbodiedModel,
    ) -> Self {
        // One slab over the union of the tasks' kernels (not all fifteen):
        // per-kernel simulations are independent, so skipping unused
        // kernels cannot change the bits of the ones a task sums. Each task
        // resolves to slab indices once, so the loops do no map lookups.
        let slab = KernelSlab::new(tasks.iter().flat_map(Task::kernels));
        let plans = tasks
            .iter()
            .map(|task| TaskPlan::new(task, &slab))
            .collect::<Result<Vec<_>, _>>()
            .expect("slab was built from the tasks' own kernels"); // cordoba-lint: allow(no-panic)
        Self {
            configs,
            batch: ConfigBatch::new(configs),
            slab,
            plans,
            cache: EmbodiedCache::new(embodied.clone()),
        }
    }

    /// The configurations this batch evaluates.
    pub(crate) fn configs(&self) -> &'a [AcceleratorConfig] {
        self.configs
    }

    /// Configuration `idx` characterized for the batch's first task (the
    /// supervised runner builds its batch for exactly one).
    pub(crate) fn design_point(&self, idx: usize) -> Result<DesignPoint, CoreError> {
        let config = &self.configs[idx];
        let costs = self.batch.slab_costs(idx, &self.slab);
        let (delay, energy) = self.batch.task_cost(idx, &costs, &self.plans[0]);
        Ok(DesignPoint::new(
            config.shared_name(),
            delay,
            energy,
            self.cache.embodied(config)?,
            config.total_area(),
        )?)
    }

    /// One contiguous chunk of configurations for every task, stage by
    /// stage, into per-task point lists allocated once. The first failure
    /// in input order wins, with a configuration's embodied-carbon error
    /// ahead of its task errors: the embodied pass stops at its first
    /// failure, the point pass runs only the configurations before it, and
    /// the embodied error is returned only if none of those failed.
    fn chunk(&self, range: Range<usize>) -> Result<Vec<Vec<DesignPoint>>, CoreError> {
        let costs: Vec<SlabCosts> = range
            .clone()
            .map(|idx| self.batch.slab_costs(idx, &self.slab))
            .collect();
        let configs = &self.configs[range.clone()];
        let mut embodied = Vec::with_capacity(configs.len());
        let mut embodied_error = None;
        for config in configs {
            match self.cache.embodied(config) {
                Ok(carbon) => embodied.push(carbon),
                Err(err) => {
                    embodied_error = Some(err);
                    break;
                }
            }
        }
        let mut per_task = vec![Vec::with_capacity(configs.len()); self.plans.len()];
        for (((idx, config), costs), &carbon) in range.zip(configs).zip(&costs).zip(&embodied) {
            let area = config.total_area();
            for (points, plan) in per_task.iter_mut().zip(&self.plans) {
                let (delay, energy) = self.batch.task_cost(idx, costs, plan);
                points.push(DesignPoint::new(
                    config.shared_name(),
                    delay,
                    energy,
                    carbon,
                    area,
                )?);
            }
        }
        match embodied_error {
            Some(err) => Err(err.into()),
            None => Ok(per_task),
        }
    }
}

/// Characterizes one accelerator configuration as a [`DesignPoint`] for a
/// task: delay and energy from the roofline simulator via eq. IV.2/IV.4,
/// embodied carbon from the assembly model.
///
/// # Errors
///
/// Returns [`CoreError::MissingKernel`] when the task references a kernel
/// the config's cost table cannot price, and [`CoreError::Carbon`] when the
/// config yields an invalid carbon model or design point (e.g. a corrupted
/// tuning producing non-finite area).
pub fn accel_design_point(
    config: &AcceleratorConfig,
    task: &Task,
    embodied: &EmbodiedModel,
) -> Result<DesignPoint, CoreError> {
    let table = full_cost_table(config);
    let delay = table.task_delay(task)?;
    let energy = table.task_energy(task)?;
    Ok(DesignPoint::new(
        config.shared_name(),
        delay,
        energy,
        config.embodied_carbon(embodied)?,
        config.total_area(),
    )?)
}

/// Characterizes a whole configuration list for a task, aborting on the
/// first invalid configuration: [`SupervisedEval`]'s strict finisher under
/// a supervisor that never trips.
///
/// Configurations are evaluated in parallel (see [`cordoba_par`]) but the
/// returned points are in input order and bit-identical to a sequential
/// `configs.iter().map(..).collect()` at any thread count.
///
/// For sweeps over untrusted or generated spaces, prefer
/// [`SupervisedEval::into_resilient`], which quarantines failures instead.
///
/// # Errors
///
/// Propagates the error of the first (in input order) invalid
/// configuration (see [`accel_design_point`]).
pub fn evaluate_space(
    configs: &[AcceleratorConfig],
    task: &Task,
    embodied: &EmbodiedModel,
) -> Result<Vec<DesignPoint>, CoreError> {
    SupervisedEval::new(configs, task, embodied).into_points()
}

/// Characterizes a configuration list for *several* tasks at once, sharing
/// the cost table and memoized embodied carbon of each configuration across
/// all tasks.
///
/// The per-task result `out[t]` equals `evaluate_space(configs, &tasks[t],
/// embodied)` exactly, but each configuration's roofline table is built
/// once (instead of once per task) and the yield/wafer math behind
/// [`AcceleratorConfig::embodied_carbon`] runs once per distinct
/// configuration shape via [`EmbodiedCache`].
///
/// The evaluation is stage-major: the configurations are split into one
/// contiguous chunk per worker ([`CostHint::workers`] picks the count),
/// and each chunk runs whole-chunk passes — simulate every configuration,
/// then look up every embodied carbon, then assemble the points — rather
/// than interleaving the stages per configuration. Each configuration's
/// arithmetic is unchanged, so the points are bit-identical at any worker
/// count.
///
/// # Errors
///
/// Propagates the error of the first (in input order) configuration that
/// fails on any task; within one configuration, an embodied-carbon error
/// comes first, then the first failing task.
pub fn evaluate_space_multi(
    configs: &[AcceleratorConfig],
    tasks: &[Task],
    embodied: &EmbodiedModel,
) -> Result<Vec<Vec<DesignPoint>>, CoreError> {
    let _span = cordoba_obs::span_with(
        "core/evaluate_space_multi",
        "tasks",
        u64::try_from(tasks.len()).unwrap_or(u64::MAX),
    );
    let batch = EvalBatch::new(configs, tasks, embodied);
    let ns_per_config = EVAL_NS_PER_CONFIG.saturating_mul(tasks.len().max(1) as u64);
    let workers = CostHint::per_item_ns(ns_per_config)
        .workers(configs.len(), cordoba_par::effective_threads());
    let chunk_len = configs.len().div_ceil(workers).max(1);
    let chunks: Vec<Range<usize>> = (0..configs.len())
        .step_by(chunk_len)
        .map(|start| start..configs.len().min(start + chunk_len))
        .collect();
    let hint = CostHint::per_item_ns(ns_per_config.saturating_mul(chunk_len as u64));
    let mut map = SupervisedMap::new(chunks.len());
    map.advance(workers, hint, &Supervisor::unbounded(), |c| {
        batch.chunk(chunks[c].clone())
    });
    let mut parts = map
        .into_values()
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    if parts.len() == 1 {
        return Ok(parts.swap_remove(0));
    }
    let mut per_task = vec![Vec::with_capacity(configs.len()); tasks.len()];
    for part in parts {
        for (all, chunk) in per_task.iter_mut().zip(part) {
            all.extend(chunk);
        }
    }
    Ok(per_task)
}

/// One configuration that failed resilient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalFailure {
    /// Name of the failing configuration.
    pub name: Name,
    /// Why it failed.
    pub error: CoreError,
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.name, self.error)
    }
}

/// Outcome of [`SupervisedEval::into_resilient`]: the points that
/// evaluated cleanly plus a quarantine report for those that did not.
///
/// A poisoned configuration (corrupted tuning, unpriceable kernel, or a
/// *panicking* evaluation — panics are isolated per configuration by the
/// supervised map) lands in `failures` with its structured error; every
/// healthy configuration is still evaluated. On a clean space `points` are
/// exactly those of [`evaluate_space`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilientEval {
    /// Successfully characterized design points, in input order.
    pub points: Vec<DesignPoint>,
    /// Configurations that failed, with their errors, in input order.
    pub failures: Vec<EvalFailure>,
}

impl ResilientEval {
    /// `true` when at least one configuration was quarantined.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// A logarithmic sweep of task counts: `per_decade` points per decade from
/// `10^lo` to `10^hi` inclusive.
///
/// # Panics
///
/// Panics if `hi <= lo` or `per_decade == 0`.
#[must_use]
pub fn log_sweep(lo: i32, hi: i32, per_decade: u32) -> Vec<f64> {
    assert!(hi > lo, "hi must exceed lo");
    assert!(per_decade > 0, "per_decade must be > 0");
    let steps = ((hi - lo) as u32 * per_decade) as usize;
    (0..=steps)
        .map(|i| 10f64.powf(f64::from(lo) + i as f64 / f64::from(per_decade)))
        .collect()
}

/// tCDP of every design at every operational time (one Fig. 8 subplot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpTimeSweep {
    /// The candidate designs.
    pub points: Vec<DesignPoint>,
    /// The operational-time axis (task counts).
    pub task_counts: Vec<f64>,
    /// The use-phase carbon intensity.
    pub ci_use: CarbonIntensity,
    /// Flat row-major tCDP matrix: entry `n * points.len() + p` is the
    /// tCDP of point `p` at task count `n`. One contiguous allocation
    /// instead of one `Vec` per row, so row scans (optimum lookups,
    /// robustness scores) stream linearly through memory.
    pub(crate) tcdp: Vec<f64>,
}

impl OpTimeSweep {
    /// Evaluates the sweep: [`SweepCheckpoint::resume`] under a supervisor
    /// that never trips.
    ///
    /// The tCDP matrix rows (one per task count) are computed in parallel;
    /// each row is independent, so the matrix is bit-identical to the
    /// sequential evaluation at any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if `task_counts` is empty or contains non-positive
    /// values, or `points` is empty.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from a row computation on the caller.
    pub fn new(
        points: Vec<DesignPoint>,
        task_counts: Vec<f64>,
        ci_use: CarbonIntensity,
    ) -> Result<Self, CarbonError> {
        Ok(SweepCheckpoint::new(points, task_counts, ci_use)?.finish())
    }

    /// The tCDP row for sweep index `n` (one value per design point).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn row(&self, n: usize) -> &[f64] {
        let width = self.points.len();
        &self.tcdp[n * width..(n + 1) * width]
    }

    /// The whole tCDP matrix, flat row-major: entry `n * points.len() + p`
    /// is the tCDP of point `p` at task count `n`.
    #[must_use]
    pub fn tcdp_matrix(&self) -> &[f64] {
        &self.tcdp
    }

    /// Evaluates the sweep under a *time-varying* intensity source: the
    /// lifetime-mean `CI_use` comes from the exact integration kernel
    /// ([`CiIntegral::mean_exact`] over `[0, lifetime]`), then the sweep is
    /// evaluated as in [`OpTimeSweep::new`].
    ///
    /// # Errors
    ///
    /// Returns an error if `task_counts` is empty or contains non-positive
    /// values, or `points` is empty.
    pub fn under_source(
        points: Vec<DesignPoint>,
        task_counts: Vec<f64>,
        source: &dyn CiIntegral,
        lifetime: Seconds,
    ) -> Result<Self, CarbonError> {
        let ci_use = source.mean_exact(Seconds::ZERO, lifetime);
        Self::new(points, task_counts, ci_use)
    }

    /// tCDP of point `p` at sweep index `n`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn tcdp_at(&self, n: usize, p: usize) -> f64 {
        assert!(p < self.points.len(), "point index {p} out of range");
        self.tcdp[n * self.points.len() + p]
    }

    /// Index of the tCDP-optimal design at sweep index `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn optimal_at(&self, n: usize) -> usize {
        self.row(n)
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("points is non-empty") // cordoba-lint: allow(no-panic) — OpTimeSweep::new rejects empty point lists
            .0
    }

    /// Names of all designs that are optimal at some operational time —
    /// the survivors of the Fig. 8 elimination.
    #[must_use]
    pub fn ever_optimal(&self) -> BTreeSet<Name> {
        (0..self.task_counts.len())
            .map(|n| self.points[self.optimal_at(n)].name.clone())
            .collect()
    }

    /// Fraction of the design space eliminated as never-optimal.
    #[must_use]
    pub fn elimination_fraction(&self) -> f64 {
        1.0 - self.ever_optimal().len() as f64 / self.points.len() as f64
    }

    /// tCDP of each design at sweep index `n`, normalized to the optimum
    /// (1.0 = optimal; the Fig. 9 y-axis is the reciprocal).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn normalized_at(&self, n: usize) -> Vec<f64> {
        let row = self.row(n);
        let best = row[self.optimal_at(n)];
        row.iter().map(|v| v / best).collect()
    }

    /// Mean normalized tCDP of design `p` across the whole sweep — the
    /// Fig. 9 robustness score (lower is more robust; 1.0 would be optimal
    /// everywhere).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn robustness_score(&self, p: usize) -> f64 {
        let sum: f64 = (0..self.task_counts.len())
            .map(|n| self.normalized_at(n)[p])
            .sum();
        sum / self.task_counts.len() as f64
    }

    /// Robustness scores of every design, computed in one pass over the
    /// sweep (one optimum lookup per operational time instead of one per
    /// design x time).
    #[must_use]
    pub fn robustness_scores(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.points.len()];
        for row in self.tcdp.chunks_exact(self.points.len()) {
            let best = row.iter().copied().fold(f64::INFINITY, f64::min);
            for (sum, v) in sums.iter_mut().zip(row) {
                *sum += v / best;
            }
        }
        let n = self.task_counts.len() as f64;
        sums.iter_mut().for_each(|s| *s /= n);
        sums
    }

    /// Index of the most robust design (best average normalized tCDP).
    #[must_use]
    pub fn robust_choice(&self) -> usize {
        self.robustness_scores()
            .into_iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("points is non-empty") // cordoba-lint: allow(no-panic) — OpTimeSweep::new rejects empty point lists
            .0
    }

    /// Mean tCDP across all designs at sweep index `n` (the Fig. 8(f) red
    /// diamonds).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn average_tcdp_at(&self, n: usize) -> f64 {
        self.row(n).iter().sum::<f64>() / self.points.len() as f64
    }

    /// Ratio of average to optimal tCDP at sweep index `n` — the headroom
    /// the paper reports (8x-10.5x at 1e4 inferences, >= 2.3x everywhere).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn optimal_vs_average_at(&self, n: usize) -> f64 {
        self.average_tcdp_at(n) / self.row(n)[self.optimal_at(n)]
    }

    /// The sweep index closest to a task count of `n`.
    #[must_use]
    pub fn index_near(&self, n: f64) -> usize {
        self.task_counts
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1.ln() - n.ln())
                    .abs()
                    .total_cmp(&(b.1.ln() - n.ln()).abs())
            })
            .expect("task_counts is non-empty") // cordoba-lint: allow(no-panic) — OpTimeSweep::new rejects empty sweeps
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordoba_accel::space::{config_by_name, design_space};
    use cordoba_carbon::intensity::grids;

    fn small_sweep(task: &Task) -> OpTimeSweep {
        let configs = design_space();
        let points = evaluate_space(&configs, task, &EmbodiedModel::default()).unwrap();
        OpTimeSweep::new(points, log_sweep(4, 11, 2), grids::US_AVERAGE).unwrap()
    }

    #[test]
    fn log_sweep_shape() {
        let s = log_sweep(4, 6, 1);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 1e4).abs() < 1e-6);
        assert!((s[2] - 1e6).abs() < 1e-4);
        let dense = log_sweep(0, 1, 4);
        assert_eq!(dense.len(), 5);
    }

    #[test]
    #[should_panic(expected = "hi must exceed lo")]
    fn log_sweep_rejects_bad_range() {
        let _ = log_sweep(5, 5, 1);
    }

    #[test]
    fn accel_bridge_produces_consistent_point() {
        let cfg = config_by_name("a48").unwrap();
        let task = Task::xr_10_kernels();
        let p = accel_design_point(&cfg, &task, &EmbodiedModel::default()).unwrap();
        assert_eq!(p.name, "a48");
        assert!(p.delay.is_positive());
        assert!(p.energy.is_positive());
        assert!(p.embodied.value() > 0.0);
        assert_eq!(p.area, cfg.total_area());
    }

    #[test]
    fn elimination_is_severe_for_all_tasks() {
        // §VI-B: 96.7-98.3 % of the 121 designs eliminated per task.
        for task in Task::evaluation_suite() {
            let sweep = small_sweep(&task);
            let frac = sweep.elimination_fraction();
            assert!(
                frac > 0.90,
                "{}: only {:.1}% eliminated",
                task.name(),
                frac * 100.0
            );
            let survivors = sweep.ever_optimal();
            assert!(
                (1..=12).contains(&survivors.len()),
                "{}: {} survivors",
                task.name(),
                survivors.len()
            );
        }
    }

    #[test]
    fn optimum_grows_with_operational_time() {
        // At short operational times the embodied-lean (small) design wins;
        // at long times a larger, more energy-efficient one wins.
        let sweep = small_sweep(&Task::all_kernels());
        let first = &sweep.points[sweep.optimal_at(0)];
        let last = &sweep.points[sweep.optimal_at(sweep.task_counts.len() - 1)];
        assert!(
            last.area > first.area,
            "late optimum {} should out-size early optimum {}",
            last.name,
            first.name
        );
        assert!(last.delay < first.delay);
        // At long operational times the optimum approaches the EDP optimum,
        // so its energy efficiency (not necessarily raw energy) improves.
        assert!(last.edp() <= first.edp());
    }

    #[test]
    fn under_source_uses_the_exact_lifetime_mean() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let points = evaluate_space(&configs, &task, &EmbodiedModel::default()).unwrap();
        let counts = log_sweep(4, 8, 1);
        // A constant source must reproduce the plain constructor exactly.
        let constant = cordoba_carbon::intensity::ConstantCi::new(grids::US_AVERAGE);
        let via_source = OpTimeSweep::under_source(
            points.clone(),
            counts.clone(),
            &constant,
            cordoba_carbon::units::Seconds::from_years(5.0),
        )
        .unwrap();
        let direct = OpTimeSweep::new(points.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        assert_eq!(via_source, direct);
        // A decarbonizing trend lowers the effective CI below the start.
        let trend = cordoba_carbon::intensity::TrendCi::new(grids::US_AVERAGE, 0.10).unwrap();
        let decarb = OpTimeSweep::under_source(
            points,
            counts,
            &trend,
            cordoba_carbon::units::Seconds::from_years(5.0),
        )
        .unwrap();
        assert!(decarb.ci_use < grids::US_AVERAGE);
    }

    #[test]
    fn xr_optima_carry_more_sram_than_ai_optima() {
        // §VI-B: XR tasks (activation-heavy) pick high-SRAM accelerators;
        // AI-5 picks 1 MiB-class SRAM.
        let xr = small_sweep(&Task::xr_5_kernels());
        let ai = small_sweep(&Task::ai_5_kernels());
        let sram_of = |sweep: &OpTimeSweep, n: usize| {
            let name = sweep.points[sweep.optimal_at(n)].name.clone();
            config_by_name(&name).unwrap().sram().to_mebibytes()
        };
        let mid = xr.index_near(1e8);
        assert!(
            sram_of(&xr, mid) > sram_of(&ai, mid),
            "XR optimum should have more SRAM"
        );
    }

    #[test]
    fn normalized_curves_have_unit_minimum() {
        let sweep = small_sweep(&Task::ai_5_kernels());
        for n in 0..sweep.task_counts.len() {
            let normalized = sweep.normalized_at(n);
            let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!((min - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn robust_choice_beats_endpoint_specialists_on_average() {
        let sweep = small_sweep(&Task::all_kernels());
        let robust = sweep.robust_choice();
        let early = sweep.optimal_at(0);
        let late = sweep.optimal_at(sweep.task_counts.len() - 1);
        let score = |p| sweep.robustness_score(p);
        assert!(score(robust) <= score(early));
        assert!(score(robust) <= score(late));
        assert!(score(robust) >= 1.0);
    }

    #[test]
    fn optimal_vs_average_headroom_is_large_when_embodied_dominates() {
        // Fig. 8(f): at 1e4 inferences the optimal design beats the average
        // by a large factor; the paper's minimum across everything is 2.3x.
        let sweep = small_sweep(&Task::ai_5_kernels());
        let low = sweep.index_near(1e4);
        assert!(
            sweep.optimal_vs_average_at(low) > 3.0,
            "headroom {}",
            sweep.optimal_vs_average_at(low)
        );
        for n in 0..sweep.task_counts.len() {
            assert!(sweep.optimal_vs_average_at(n) > 1.5);
        }
    }

    #[test]
    fn index_near_finds_decades() {
        let sweep = small_sweep(&Task::ai_5_kernels());
        let idx = sweep.index_near(1e6);
        assert!((sweep.task_counts[idx].log10() - 6.0).abs() < 0.3);
    }

    #[test]
    fn resilient_matches_strict_on_clean_space() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let strict = evaluate_space(&configs, &task, &EmbodiedModel::default()).unwrap();
        let resilient =
            SupervisedEval::new(&configs, &task, &EmbodiedModel::default()).into_resilient();
        assert!(!resilient.degraded());
        assert!(resilient.failures.is_empty());
        assert_eq!(resilient.points, strict);
    }

    #[test]
    fn resilient_quarantines_poisoned_config_and_keeps_sweeping() {
        use cordoba_accel::config::MemoryIntegration;
        use cordoba_accel::params::TechTuning;
        use cordoba_carbon::units::Bytes;

        let mut configs = design_space();
        let healthy = configs.len();
        let mut tuning = TechTuning::n7();
        tuning.mac_unit_area_mm2 = f64::NAN;
        configs.insert(
            healthy / 2,
            AcceleratorConfig::with_tuning(
                "poison",
                16,
                Bytes::from_mebibytes(8.0),
                MemoryIntegration::OnDie,
                tuning,
            )
            .unwrap(),
        );

        let task = Task::ai_5_kernels();
        // Strict evaluation aborts the whole sweep...
        assert!(evaluate_space(&configs, &task, &EmbodiedModel::default()).is_err());
        // ...resilient evaluation quarantines the one bad config.
        let result =
            SupervisedEval::new(&configs, &task, &EmbodiedModel::default()).into_resilient();
        assert!(result.degraded());
        assert_eq!(result.points.len(), healthy);
        assert_eq!(result.failures.len(), 1);
        assert_eq!(result.failures[0].name, "poison");
        assert!(result.failures[0].to_string().contains("poison"));
        for p in &result.points {
            assert!(p.delay.is_finite() && p.energy.is_finite());
        }
    }

    #[test]
    fn sweep_validation() {
        let cfg = config_by_name("a1").unwrap();
        let p = accel_design_point(&cfg, &Task::ai_5_kernels(), &EmbodiedModel::default()).unwrap();
        assert!(OpTimeSweep::new(vec![], log_sweep(0, 1, 1), grids::US_AVERAGE).is_err());
        assert!(OpTimeSweep::new(vec![p.clone()], vec![], grids::US_AVERAGE).is_err());
        assert!(OpTimeSweep::new(vec![p], vec![-1.0], grids::US_AVERAGE).is_err());
    }
}
