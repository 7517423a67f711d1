//! The four workloads and the traced decompositions they share.
//
// cordoba-lint: allow-file(wall-clock, lossy-cast) —
// layer spans read the wall clock by design; counts become f64 ratio terms.

mod cli_session;
mod dse_cold;
mod store_mixed;
mod uncertainty;

use crate::trace::{stopwatch, Tracer};
use crate::{Fingerprint, Scale};
use cordoba::dse::OpTimeSweep;
use cordoba::lagrange::{objectives, BetaSweep};
use cordoba::metrics::DesignPoint;
use cordoba::pareto::{lower_hull_indices, pareto_indices, Point2};
use cordoba_accel::cache::EmbodiedCache;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::sim::{ConfigBatch, KernelSlab, TaskPlan};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_workloads::task::Task;
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["dse_cold", "store_mixed", "uncertainty", "cli_session"];

/// One benchmark workload: a pool of seeded inputs and the op run on them.
pub trait Workload {
    /// Runs op `i` (on input `i % pool`) between `t.begin()` and
    /// `t.end()`, taking the traced decomposition when `t.on()`, then
    /// checks the output off the clock. `Err` is a failed op.
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String>;

    /// Fingerprint of every expected op output, computed in setup.
    fn reference(&self) -> u64;

    /// Input sizes, for the run's `env` line.
    fn sizes(&self) -> Vec<(&'static str, usize)>;
}

/// Builds workload `name` from `seed`; `work` is an empty directory the
/// workload may write (its store and files).
///
/// # Errors
///
/// Unknown workload names and any failure while generating inputs or
/// computing the reference outputs.
pub fn setup(
    name: &str,
    seed: u64,
    scale: Scale,
    work: &Path,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "dse_cold" => Box::new(dse_cold::DseCold::setup(seed, scale)?),
        "store_mixed" => Box::new(store_mixed::StoreMixed::setup(seed, scale, work)?),
        "uncertainty" => Box::new(uncertainty::Uncertainty::setup(seed, scale)?),
        "cli_session" => Box::new(cli_session::CliSession::setup(seed, scale, work)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Compares an op's output fingerprint with the reference for its input.
fn check(workload: &str, i: usize, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{workload} op {i}: output fingerprint {got:016x} != reference {expected:016x}"
        ))
    }
}

/// Fingerprint of a reference list.
fn combine(expected: &[u64]) -> u64 {
    let mut fp = Fingerprint::default();
    expected.iter().for_each(|&e| fp.word(e));
    fp.finish()
}

/// Mixes in a sweep's points and its whole tCDP matrix.
fn push_sweep(fp: &mut Fingerprint, sweep: &OpTimeSweep) {
    sweep.points.iter().for_each(|p| fp.point(p));
    sweep.task_counts.iter().for_each(|&n| fp.f64(n));
    fp.f64(sweep.ci_use.value());
    sweep.tcdp_matrix().iter().for_each(|&c| fp.f64(c));
}

/// Mixes in a β-sweep's objective points, Pareto set and support set.
fn push_beta(fp: &mut Fingerprint, beta: &BetaSweep) {
    for p in &beta.points {
        fp.bytes(p.name.as_bytes());
        fp.f64(p.x);
        fp.f64(p.y);
    }
    fp.indices(&beta.pareto);
    fp.indices(&beta.support);
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Layer clocks of one traced evaluation: the span between consecutive
/// marks goes to the layer that ran in it. One clock read per layer
/// boundary, so the layer sums cover the evaluation loop exactly.
struct Spans {
    mark: Instant,
    sim: Duration,
    embodied: Duration,
    point: Duration,
}

impl Spans {
    fn new() -> Self {
        Self {
            mark: Instant::now(),
            sim: Duration::ZERO,
            embodied: Duration::ZERO,
            point: Duration::ZERO,
        }
    }

    /// Ends the current span and charges it to the layer `pick` selects.
    fn lap(&mut self, pick: fn(&mut Self) -> &mut Duration) {
        let now = Instant::now();
        let elapsed = now - self.mark;
        *pick(self) += elapsed;
        self.mark = now;
    }

    /// Records the layer sums and the kernel and embodied-cache ratios.
    fn report(&self, kernels: usize, cache: &EmbodiedCache, t: &mut Tracer) {
        t.add("accel.sim.ms", nanos(self.sim));
        t.add("accel.embodied.ms", nanos(self.embodied));
        t.add("core.design_point.ms", nanos(self.point));
        t.ratio("accel.sim.ns_per_kernel", nanos(self.sim), kernels as f64);
        let stats = cache.stats();
        t.ratio(
            "accel.embodied.hit_ratio",
            stats.hits as f64,
            stats.lookups() as f64,
        );
    }
}

/// `evaluate_space_multi` driven through its public lower layers in the
/// same order: `KernelSlab`/`TaskPlan`/`ConfigBatch` over the union of the
/// tasks' kernels, then per config the slab simulation,
/// `EmbodiedCache::embodied`, and per task the task sums and
/// `DesignPoint::new` into that config's list; the per-config lists are
/// then transposed into per-task lists as the library does (that glue is
/// left to `unattributed.ms`). Bit-identical to `evaluate_space_multi`
/// (checked by the package tests).
pub(crate) fn evaluate_traced(
    configs: &[AcceleratorConfig],
    tasks: &[Task],
    model: &EmbodiedModel,
    t: &mut Tracer,
) -> Result<Vec<Vec<DesignPoint>>, String> {
    let mut spans = Spans::new();
    let cache = EmbodiedCache::new(model.clone());
    let slab = KernelSlab::new(tasks.iter().flat_map(Task::kernels));
    let plans = tasks
        .iter()
        .map(|task| TaskPlan::new(task, &slab))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let batch = ConfigBatch::new(configs);
    spans.lap(|s| &mut s.sim);
    let mut per_config = Vec::with_capacity(configs.len());
    for (idx, config) in configs.iter().enumerate() {
        let costs = batch.slab_costs(idx, &slab);
        spans.lap(|s| &mut s.sim);
        let embodied = cache.embodied(config).map_err(|e| e.to_string())?;
        spans.lap(|s| &mut s.embodied);
        let mut points = Vec::with_capacity(plans.len());
        for plan in &plans {
            let (delay, energy) = batch.task_cost(idx, &costs, plan);
            spans.lap(|s| &mut s.sim);
            points.push(
                DesignPoint::new(config.name(), delay, energy, embodied, config.total_area())
                    .map_err(|e| e.to_string())?,
            );
            spans.lap(|s| &mut s.point);
        }
        per_config.push(points);
    }
    spans.report(configs.len() * slab.len(), &cache, t);
    let mut per_task = vec![Vec::with_capacity(configs.len()); tasks.len()];
    for config_points in per_config {
        for (k, point) in config_points.into_iter().enumerate() {
            per_task[k].push(point);
        }
    }
    Ok(per_task)
}

/// Single-task `evaluate_space` driven through the same public lower
/// layers in its order: a slab over the task's own kernels, then per
/// config the slab simulation and task sums, `EmbodiedCache::embodied`
/// and `DesignPoint::new`. Bit-identical to `evaluate_space`.
pub(crate) fn evaluate_one_traced(
    configs: &[AcceleratorConfig],
    task: &Task,
    model: &EmbodiedModel,
    t: &mut Tracer,
) -> Result<Vec<DesignPoint>, String> {
    let mut spans = Spans::new();
    let slab = KernelSlab::new(task.kernels());
    let plan = TaskPlan::new(task, &slab).map_err(|e| e.to_string())?;
    let batch = ConfigBatch::new(configs);
    let cache = EmbodiedCache::new(model.clone());
    spans.lap(|s| &mut s.sim);
    let mut points = Vec::with_capacity(configs.len());
    for (idx, config) in configs.iter().enumerate() {
        let costs = batch.slab_costs(idx, &slab);
        let (delay, energy) = batch.task_cost(idx, &costs, &plan);
        spans.lap(|s| &mut s.sim);
        let embodied = cache.embodied(config).map_err(|e| e.to_string())?;
        spans.lap(|s| &mut s.embodied);
        points.push(
            DesignPoint::new(config.name(), delay, energy, embodied, config.total_area())
                .map_err(|e| e.to_string())?,
        );
        spans.lap(|s| &mut s.point);
    }
    spans.report(configs.len() * slab.len(), &cache, t);
    Ok(points)
}

/// `BetaSweep::run` split into its layers: objective mapping plus
/// `pareto_indices` (`core.pareto.ms`), then `lower_hull_indices`
/// (`core.hull.ms`). Bit-identical to `BetaSweep::run`.
pub(crate) fn beta_traced(candidates: &[DesignPoint], t: &mut Tracer) -> BetaSweep {
    let (points, pareto) = t.time("core.pareto.ms", || {
        let points: Vec<Point2> = candidates.iter().map(objectives).collect();
        let pareto = pareto_indices(&points);
        (points, pareto)
    });
    let support = t.time("core.hull.ms", || lower_hull_indices(&points));
    t.ratio(
        "core.beta_sweep.survivor_ratio",
        pareto.len() as f64,
        points.len() as f64,
    );
    BetaSweep {
        points,
        pareto,
        support,
    }
}

/// `OpTimeSweep::new` as a `core.op_time_sweep.ms` span.
pub(crate) fn sweep_traced(
    points: Vec<DesignPoint>,
    counts: &[f64],
    ci: cordoba_carbon::units::CarbonIntensity,
    t: &mut Tracer,
) -> Result<OpTimeSweep, String> {
    let cells = (points.len() * counts.len()) as f64;
    let counts = counts.to_vec();
    let (sweep, ns) = stopwatch(|| OpTimeSweep::new(points, counts, ci));
    t.add("core.op_time_sweep.ms", ns);
    t.ratio("core.op_time_sweep.ns_per_cell", ns, cells);
    sweep.map_err(|e| e.to_string())
}
