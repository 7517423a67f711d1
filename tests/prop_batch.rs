//! Equivalence contract of the batch (SoA) evaluation pipeline: every
//! batch entry point must return results *bit-identical* to the retained
//! scalar path (`simulate` / `full_cost_table` / `accel_design_point`),
//! including quarantine ordering under failures, at every thread count.
//!
//! Like `prop_parallel`, these are hand-rolled seeded generators driving
//! explicit case loops through `StdRng` streams.

use cordoba::prelude::*;
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::sim::{full_cost_table, simulate, ConfigBatch, KernelSlab};
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::{Bytes, CarbonIntensity, Joules};
use cordoba_par::Supervisor;
use cordoba_workloads::kernel::KernelId;
use cordoba_workloads::task::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests that set the process-wide worker count, so each
/// really runs at the count it asks for.
static THREADS: Mutex<()> = Mutex::new(());

/// A uniformly random index in `0..n`.
fn index(rng: &mut StdRng, n: usize) -> usize {
    ((rng.gen::<f64>() * n as f64) as usize).min(n - 1)
}

/// A random order-preserving, non-empty subset of the 121-config space.
fn random_configs(rng: &mut StdRng) -> Vec<AcceleratorConfig> {
    let space = design_space();
    let keep_probability = 0.1 + 0.9 * rng.gen::<f64>();
    let mut subset: Vec<AcceleratorConfig> = space
        .iter()
        .filter(|_| rng.gen::<f64>() < keep_probability)
        .cloned()
        .collect();
    if subset.is_empty() {
        subset.push(space[index(rng, space.len())].clone());
    }
    subset
}

fn random_task(rng: &mut StdRng) -> Task {
    match index(rng, 4) {
        0 => Task::all_kernels(),
        1 => Task::xr_10_kernels(),
        2 => Task::xr_5_kernels(),
        _ => Task::ai_5_kernels(),
    }
}

/// A configuration whose tuning is poisoned so characterization fails.
fn poisoned_config(name: &str) -> AcceleratorConfig {
    let mut tuning = TechTuning::n7();
    tuning.mac_unit_area_mm2 = f64::NAN;
    AcceleratorConfig::with_tuning(
        name,
        16,
        Bytes::from_mebibytes(8.0),
        MemoryIntegration::OnDie,
        tuning,
    )
    .unwrap()
}

/// Asserts that every lane of [`ConfigBatch::slab_costs`] carries the
/// scalar simulator's delay and dynamic-power bits, on every configuration.
fn assert_lanes_match_simulate(configs: &[AcceleratorConfig], slab: &KernelSlab, context: &str) {
    let batch = ConfigBatch::new(configs);
    for (c, config) in configs.iter().enumerate() {
        let costs = batch.slab_costs(c, slab);
        assert_eq!(costs.as_slice().len(), slab.len(), "{context}, config {c}");
        for (k, &id) in slab.ids().iter().enumerate() {
            let scalar = simulate(config, &id.descriptor());
            let lane = costs.get(k);
            assert_eq!(
                (
                    lane.delay.value().to_bits(),
                    lane.dynamic_power.value().to_bits()
                ),
                (
                    scalar.latency.value().to_bits(),
                    scalar.dynamic_power().value().to_bits()
                ),
                "{context}, config {}, kernel {id:?}",
                config.name()
            );
        }
    }
}

#[test]
fn batch_simulator_matches_scalar_simulate_bit_for_bit() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C ^ seed);
        let configs = random_configs(&mut rng);
        // Alternate between the full 15-kernel slab and a task-shaped one.
        let slab = if rng.gen::<f64>() < 0.5 {
            KernelSlab::full()
        } else {
            KernelSlab::new(random_task(&mut rng).kernels())
        };
        assert_lanes_match_simulate(&configs, &slab, &format!("seed {seed}"));
    }
}

#[test]
fn batch_task_costs_match_scalar_cost_table_queries() {
    let tasks = [
        Task::all_kernels(),
        Task::xr_10_kernels(),
        Task::xr_5_kernels(),
        Task::ai_5_kernels(),
    ];
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0x7A5C ^ seed);
        let configs = random_configs(&mut rng);
        let batch = ConfigBatch::new(&configs);
        for task in &tasks {
            let slab = KernelSlab::new(task.kernels());
            let plan = cordoba_accel::sim::TaskPlan::new(task, &slab).unwrap();
            for (c, config) in configs.iter().enumerate() {
                let costs = batch.slab_costs(c, &slab);
                let (delay, energy) = batch.task_cost(c, &costs, &plan);
                let table = full_cost_table(config);
                assert_eq!(
                    delay.value().to_bits(),
                    table.task_delay(task).unwrap().value().to_bits(),
                    "seed {seed}, config {}",
                    config.name()
                );
                assert_eq!(
                    energy.value().to_bits(),
                    table.task_energy(task).unwrap().value().to_bits(),
                    "seed {seed}, config {}",
                    config.name()
                );
            }
        }
    }
}

/// Runs `f` with the process worker count set to `threads`, under
/// [`THREADS`], then restores the default.
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _serial = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    cordoba_par::set_threads(NonZeroUsize::new(threads));
    let out = f();
    cordoba_par::set_threads(None);
    out
}

/// The sweep computed at `threads` workers under a supervisor that never
/// trips.
fn swept(
    points: Vec<DesignPoint>,
    counts: Vec<f64>,
    ci: CarbonIntensity,
    threads: usize,
) -> OpTimeSweep {
    SweepCheckpoint::new(points, counts, ci)
        .unwrap()
        .resume(&Supervisor::unbounded(), threads)
        .complete()
        .unwrap()
}

#[test]
fn evaluate_space_matches_the_retained_scalar_path() {
    let model = EmbodiedModel::default();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0x5CA1 ^ seed);
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        // The reference is the pre-batch scalar pipeline, config by config.
        let scalar: Vec<DesignPoint> = configs
            .iter()
            .map(|c| accel_design_point(c, &task, &model).unwrap())
            .collect();
        let auto = evaluate_space(&configs, &task, &model).unwrap();
        assert_eq!(scalar, auto, "seed {seed}, auto threads");
        for threads in [1, 2, 4, 16] {
            let batch = at_threads(threads, || evaluate_space(&configs, &task, &model).unwrap());
            assert_eq!(scalar, batch, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn evaluate_space_multi_matches_per_task_scalar_runs() {
    let model = EmbodiedModel::default();
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0x3417 ^ seed);
        let configs = random_configs(&mut rng);
        let tasks: Vec<Task> = (0..1 + index(&mut rng, 4))
            .map(|_| random_task(&mut rng))
            .collect();
        let multi = evaluate_space_multi(&configs, &tasks, &model).unwrap();
        assert_eq!(multi.len(), tasks.len(), "seed {seed}");
        for (t, task) in tasks.iter().enumerate() {
            let scalar: Vec<DesignPoint> = configs
                .iter()
                .map(|c| accel_design_point(c, task, &model).unwrap())
                .collect();
            assert_eq!(scalar, multi[t], "seed {seed}, task {t}");
        }
    }
}

/// Poisoned configuration `p`, in one of three ways: a negative MAC area
/// and an infinite base area fail the embodied-carbon model, a negative
/// DRAM energy passes it but fails `DesignPoint::new` on every task. The
/// magnitudes depend on `p`, so different poisons of one kind still render
/// different errors.
fn poisoned_variant(p: usize, kind: usize) -> AcceleratorConfig {
    let scale = 1.0 + p as f64;
    let mut tuning = TechTuning::n7();
    match kind % 3 {
        0 => tuning.mac_unit_area_mm2 = -scale,
        1 => tuning.base_area_mm2 = f64::INFINITY,
        _ => tuning.dram_energy_per_byte = Joules::new(-1e-3 * scale),
    }
    AcceleratorConfig::with_tuning(
        format!("poison{p}"),
        16,
        Bytes::from_mebibytes(8.0),
        MemoryIntegration::OnDie,
        tuning,
    )
    .unwrap()
}

#[test]
fn evaluate_space_multi_is_identical_at_1_2_and_16_threads() {
    let model = EmbodiedModel::default();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x4D17 ^ seed);
        // Two random subsets back to back: up to 242 configs, enough
        // estimated work to split across workers.
        let mut configs = random_configs(&mut rng);
        configs.extend(random_configs(&mut rng));
        let tasks: Vec<Task> = (0..1 + index(&mut rng, 5))
            .map(|_| random_task(&mut rng))
            .collect();
        let reference = at_threads(1, || evaluate_space_multi(&configs, &tasks, &model)).unwrap();
        for (t, task) in tasks.iter().enumerate() {
            let single = at_threads(1, || evaluate_space(&configs, task, &model).unwrap());
            assert_eq!(single, reference[t], "seed {seed}, task {t}");
        }
        for threads in [2, 16] {
            let multi =
                at_threads(threads, || evaluate_space_multi(&configs, &tasks, &model)).unwrap();
            assert_eq!(reference, multi, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn evaluate_space_multi_reports_the_first_failing_config_at_every_thread_count() {
    let model = EmbodiedModel::default();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xF1E5 ^ seed);
        let mut configs = random_configs(&mut rng);
        configs.extend(random_configs(&mut rng));
        let tasks: Vec<Task> = (0..1 + index(&mut rng, 5))
            .map(|_| random_task(&mut rng))
            .collect();
        for p in 0..1 + index(&mut rng, 4) {
            let at = index(&mut rng, configs.len() + 1);
            configs.insert(at, poisoned_variant(p, index(&mut rng, 3)));
        }
        // Scalar reference: configs in input order, tasks in order within
        // a config; the scalar path prices the embodied carbon before it
        // builds the point, so an embodied failure comes first.
        let expected = configs
            .iter()
            .find_map(|c| {
                tasks
                    .iter()
                    .find_map(|task| accel_design_point(c, task, &model).err())
            })
            .expect("at least one config is poisoned");
        for threads in [1, 2, 16] {
            let err =
                at_threads(threads, || evaluate_space_multi(&configs, &tasks, &model)).unwrap_err();
            // Error payloads carry NaN (self-unequal), so compare the
            // rendered messages.
            assert_eq!(
                expected.to_string(),
                err.to_string(),
                "seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn resilient_quarantine_matches_the_scalar_path_under_failures() {
    let model = EmbodiedModel::default();
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0x9A4F ^ seed);
        let mut configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let poisons = 1 + index(&mut rng, 4);
        for p in 0..poisons {
            let at = index(&mut rng, configs.len() + 1);
            configs.insert(at, poisoned_config(&format!("poison{p}")));
        }
        // Scalar reference: per-config calls, partitioned in input order.
        let mut scalar_points = Vec::new();
        let mut scalar_failures = Vec::new();
        for config in &configs {
            match accel_design_point(config, &task, &model) {
                Ok(point) => scalar_points.push(point),
                Err(err) => scalar_failures.push(format!("{}: {err}", config.name())),
            }
        }
        for threads in [1, 2, 16] {
            let batch = at_threads(threads, || ResilientEval::evaluate(&configs, &task, &model));
            assert_eq!(
                scalar_points, batch.points,
                "seed {seed}, {threads} threads"
            );
            // Failure payloads carry NaN (self-unequal), so compare the
            // rendered reports instead of the values.
            let rendered: Vec<String> = batch
                .failures
                .iter()
                .map(|f| format!("{}: {}", f.name, f.error))
                .collect();
            assert_eq!(scalar_failures, rendered, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn op_time_sweep_rows_match_manual_scalar_rows() {
    let model = EmbodiedModel::default();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x0775 ^ seed);
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let points = evaluate_space(&configs, &task, &model).unwrap();
        let counts: Vec<f64> = (0..1 + index(&mut rng, 24))
            .map(|_| 10f64.powf(1.0 + 8.0 * rng.gen::<f64>()))
            .collect();
        // Manual scalar reference for every row of the tCDP matrix.
        let manual: Vec<Vec<f64>> = counts
            .iter()
            .map(|&n| {
                let ctx = OperationalContext::new(n, grids::US_AVERAGE).unwrap();
                points.iter().map(|p| p.tcdp(&ctx).value()).collect()
            })
            .collect();
        for threads in [1, 2, 16] {
            let sweep = swept(points.clone(), counts.clone(), grids::US_AVERAGE, threads);
            assert_eq!(
                sweep.tcdp_matrix().len(),
                points.len() * counts.len(),
                "seed {seed}, {threads} threads"
            );
            for (n, row) in manual.iter().enumerate() {
                let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(
                    bits(row),
                    bits(sweep.row(n)),
                    "seed {seed}, {threads} threads, row {n}"
                );
                for (p, &expected) in row.iter().enumerate() {
                    assert_eq!(
                        expected.to_bits(),
                        sweep.tcdp_at(n, p).to_bits(),
                        "seed {seed}, {threads} threads, row {n}, point {p}"
                    );
                }
            }
        }
    }
}

#[test]
fn slab_dedup_keeps_batch_equal_to_scalar_on_repeated_kernels() {
    // A slab built over a kernel list with duplicates must still price every
    // kernel exactly once and identically to the scalar simulator.
    let configs = design_space();
    let slab = KernelSlab::new(KernelId::ALL.iter().chain(KernelId::ALL.iter()).copied());
    assert_eq!(slab.len(), KernelId::ALL.len());
    assert_lanes_match_simulate(&configs[..8], &slab, "repeated kernels");
}
