//! Determinism contract of the parallel sweep engine: every parallel
//! entry point must return results *bit-identical* (exact `f64` equality,
//! via derived `PartialEq`) to the sequential path at every thread count.
//!
//! The vendored `proptest` stub caps its case count below the coverage we
//! want here, so these are hand-rolled seeded generators: each test drives
//! its own `StdRng` stream through explicit case loops, 270 cases across
//! the suite, and every case compares `threads = 1` against 2, 4, and 16.

use cordoba::prelude::*;
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::intensity::{ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::units::Bytes;
use cordoba_par::Supervisor;
use cordoba_workloads::task::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [2, 4, 16];

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

#[test]
fn evaluate_space_is_bit_identical_across_thread_counts() {
    let model = EmbodiedModel::default();
    for seed in 0..70u64 {
        let mut rng = StdRng::seed_from_u64(0xE5A1 ^ seed);
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let sequential = evaluate_space_with_threads(&configs, &task, &model, 1).unwrap();
        for threads in THREAD_COUNTS {
            let parallel = evaluate_space_with_threads(&configs, &task, &model, threads).unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn op_time_sweep_is_bit_identical_across_thread_counts() {
    let model = EmbodiedModel::default();
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(0x0F5E ^ seed);
        let configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let points = evaluate_space_with_threads(&configs, &task, &model, 1).unwrap();
        let counts: Vec<f64> = (0..1 + index(&mut rng, 40))
            .map(|_| 10f64.powf(1.0 + 8.0 * rng.gen::<f64>()))
            .collect();
        let sequential =
            OpTimeSweep::with_threads(points.clone(), counts.clone(), grids::US_AVERAGE, 1)
                .unwrap();
        for threads in THREAD_COUNTS {
            let parallel = OpTimeSweep::with_threads(
                points.clone(),
                counts.clone(),
                grids::US_AVERAGE,
                threads,
            )
            .unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let model = EmbodiedModel::default();
    let space = design_space();
    let task = Task::xr_5_kernels();
    let points = evaluate_space_with_threads(&space, &task, &model, 1).unwrap();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x3CA0 ^ seed);
        let samples = 1 + index(&mut rng, 300);
        let spec = MonteCarloSpec::new(samples, rng.gen::<u64>());
        let point = &points[index(&mut rng, points.len())];
        let sequential = McRun::tcdp(point, &spec)
            .unwrap()
            .advance(&Supervisor::unbounded(), 1)
            .map(Option::unwrap)
            .unwrap();
        assert_eq!(sequential.samples, samples);
        // A handful of candidates for the regret study, sequential baseline.
        let candidates: Vec<DesignPoint> = (0..2 + index(&mut rng, 6))
            .map(|_| points[index(&mut rng, points.len())].clone())
            .collect();
        let regret_sequential = McRun::regret(&candidates, &spec)
            .unwrap()
            .advance(&Supervisor::unbounded(), 1)
            .map(Option::unwrap)
            .unwrap();
        for threads in THREAD_COUNTS {
            let parallel = McRun::tcdp(point, &spec)
                .unwrap()
                .advance(&Supervisor::unbounded(), threads)
                .map(Option::unwrap)
                .unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
            let regret_parallel = McRun::regret(&candidates, &spec)
                .unwrap()
                .advance(&Supervisor::unbounded(), threads)
                .map(Option::unwrap)
                .unwrap();
            assert_eq!(
                regret_sequential, regret_parallel,
                "regret: seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn source_monte_carlo_is_bit_identical_across_thread_counts() {
    let model = EmbodiedModel::default();
    let space = design_space();
    let task = Task::ai_5_kernels();
    let points = evaluate_space_with_threads(&space, &task, &model, 1).unwrap();
    let flat = ConstantCi::new(grids::US_AVERAGE);
    let trend = TrendCi::new(grids::COAL, 0.12).unwrap();
    let seasonal = SeasonalCi::solar_rich();
    let sources: [&dyn CiIntegral; 3] = [&flat, &trend, &seasonal];
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x50C4 ^ seed);
        let samples = 1 + index(&mut rng, 300);
        let spec = SourceMonteCarloSpec::new(samples, rng.gen::<u64>());
        let point = &points[index(&mut rng, points.len())];
        let sequential = McRun::source(point, &sources, &spec)
            .unwrap()
            .advance(&Supervisor::unbounded(), 1)
            .map(Option::unwrap)
            .unwrap();
        assert_eq!(sequential.samples, samples);
        let sampled_sequential = McRun::source_sampled(point, &sources, &spec, 32)
            .unwrap()
            .advance(&Supervisor::unbounded(), 1)
            .map(Option::unwrap)
            .unwrap();
        for threads in THREAD_COUNTS {
            let parallel = McRun::source(point, &sources, &spec)
                .unwrap()
                .advance(&Supervisor::unbounded(), threads)
                .map(Option::unwrap)
                .unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
            let sampled_parallel = McRun::source_sampled(point, &sources, &spec, 32)
                .unwrap()
                .advance(&Supervisor::unbounded(), threads)
                .map(Option::unwrap)
                .unwrap();
            assert_eq!(
                sampled_sequential, sampled_parallel,
                "sampled: seed {seed}, {threads} threads"
            );
        }
    }
}

#[test]
fn resilient_evaluation_preserves_failure_ordering() {
    let model = EmbodiedModel::default();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xFA11 ^ seed);
        let mut configs = random_configs(&mut rng);
        let task = random_task(&mut rng);
        let healthy = configs.len();
        let poisons = 1 + index(&mut rng, 5);
        for p in 0..poisons {
            let at = index(&mut rng, configs.len() + 1);
            configs.insert(at, poisoned_config(&format!("poison{p}")));
        }
        let sequential = evaluate_space_resilient_with_threads(&configs, &task, &model, 1);
        assert_eq!(sequential.points.len(), healthy, "seed {seed}");
        assert_eq!(sequential.failures.len(), poisons, "seed {seed}");
        for threads in THREAD_COUNTS {
            let parallel = evaluate_space_resilient_with_threads(&configs, &task, &model, threads);
            assert_eq!(
                sequential.points, parallel.points,
                "seed {seed}, {threads} threads"
            );
            // Failures carry the poisoned NaN inside their error payload, so
            // derived equality is self-unequal; compare the rendered report.
            let render = |r: &ResilientEval| -> Vec<String> {
                r.failures.iter().map(ToString::to_string).collect()
            };
            assert_eq!(
                render(&sequential),
                render(&parallel),
                "seed {seed}, {threads} threads"
            );
        }
        // Quarantine order is input order: failures appear exactly as the
        // poisoned configs do in the sweep's input list.
        let quarantined: Vec<&str> = sequential
            .failures
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        let expected: Vec<&str> = configs
            .iter()
            .map(AcceleratorConfig::name)
            .filter(|name| name.starts_with("poison"))
            .collect();
        assert_eq!(
            quarantined, expected,
            "seed {seed}: quarantine out of input order"
        );
    }
}

#[test]
fn beta_transitions_are_bit_identical_across_thread_counts() {
    let model = EmbodiedModel::default();
    let space = design_space();
    let points = evaluate_space_with_threads(&space, &Task::all_kernels(), &model, 1).unwrap();
    let sweep = BetaSweep::run(&points);
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0xBE7A ^ seed);
        let beta_lo = 200.0 * rng.gen::<f64>();
        let beta_hi = beta_lo + 1.0 + 400.0 * rng.gen::<f64>();
        let tol = 1e-4 + rng.gen::<f64>();
        let budget = index(&mut rng, 400);
        let sequential = sweep
            .solve_transitions_supervised(
                beta_lo,
                beta_hi,
                tol,
                budget,
                &Supervisor::unbounded(),
                1,
            )
            .unwrap();
        for threads in THREAD_COUNTS {
            let parallel = sweep
                .solve_transitions_supervised(
                    beta_lo,
                    beta_hi,
                    tol,
                    budget,
                    &Supervisor::unbounded(),
                    threads,
                )
                .unwrap();
            assert_eq!(sequential, parallel, "seed {seed}, {threads} threads");
        }
    }
}

#[test]
fn skyline_and_kd_fronts_match_the_naive_scans() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x2D00 ^ seed);
        let n = 1 + index(&mut rng, 400);
        let cloud: Vec<Point2> = (0..n)
            .map(|i| {
                let x = 100.0 * rng.gen::<f64>();
                let y = 100.0 * rng.gen::<f64>();
                Point2::new(format!("p{i}"), x, y)
            })
            .collect();
        assert_eq!(
            pareto_indices(&cloud),
            pareto_indices_naive(&cloud),
            "seed {seed}"
        );
        let dims = 2 + index(&mut rng, 3);
        let kd: Vec<PointK> = (0..n)
            .map(|i| {
                let objectives = (0..dims).map(|_| 10.0 * rng.gen::<f64>()).collect();
                PointK::new(format!("k{i}"), objectives)
            })
            .collect();
        assert_eq!(
            pareto_indices_kd(&kd),
            pareto_indices_kd_naive(&kd),
            "kd: seed {seed}"
        );
    }
}
