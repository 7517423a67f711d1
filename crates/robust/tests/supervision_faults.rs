//! Supervision fault injection: interrupt long-running pipelines at
//! seeded trip points and prove the workspace's checkpoint/resume
//! invariant — a run interrupted at *any* point and resumed is
//! bit-identical to an uninterrupted run at any thread count — plus the
//! panic-isolation contract (a panicking work unit is quarantined in
//! input order; the process survives).
//!
//! Every interruption point is derived from a `FaultPlan` seed
//! ([`FaultPlan::trip_point`]), so any failure reproduces exactly from
//! the seed printed in the assertion message.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::prelude::{grids, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_par::CostHint;
use cordoba_robust::prelude::*;
use cordoba_robust::supervise::{Outcome, SupervisedMap};
use cordoba_soc::apps::VrApp;
use cordoba_soc::provisioning::{sweep, sweep_supervised, Deployment};
use cordoba_workloads::task::Task;
use std::time::Duration;

/// Marker that tells the filtering panic hook to swallow the report;
/// intentional panics in these tests would otherwise spam the log.
const QUIET: &str = "[quiet-test-panic]";

fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(QUIET))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(QUIET));
            if !quiet {
                default(info);
            }
        }));
    });
}

/// A small hand-built design set: cheap enough for thousand-seed loops,
/// and with a space in each name to exercise checkpoint name parsing.
fn synthetic_points() -> Vec<DesignPoint> {
    (1..=6)
        .map(|i| {
            let f = f64::from(i);
            DesignPoint::new(
                format!("design {i}"),
                Seconds::new(0.8 + 0.1 * f),
                Joules::new(30.0 + 3.0 * f),
                GramsCo2e::new(9000.0 - 400.0 * f),
                SquareCentimeters::new(0.4 + 0.05 * f),
            )
            .expect("synthetic design points are valid")
        })
        .collect()
}

/// The core invariant, at a thousand seeded interruption points: an
/// `OpTimeSweep` cancelled mid-flight, checkpointed through the text
/// format, and resumed lands on the exact bits of the uninterrupted run
/// — regardless of the thread count on either side of the cut.
#[test]
fn sweep_interrupted_at_a_thousand_seeded_points_resumes_bit_identically() {
    let pts = synthetic_points();
    let counts = log_sweep(3, 9, 2);
    let rows = counts.len() as u64;
    let baseline = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
        .expect("baseline sweep builds");
    for seed in 0..1000u64 {
        let plan = FaultPlan::new(seed);
        let trip = plan.trip_point(rows);
        // Even seeds interrupt on the exact sequential path (trip point is
        // then exact); odd seeds interrupt mid-parallel (the cut set is
        // scheduler-dependent, the merged result must not be).
        let interrupt_threads = if seed % 2 == 0 { 1 } else { 2 };
        let run = SweepCheckpoint::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
            .expect("supervised sweep accepts valid inputs")
            .resume(&Supervisor::tripping_after(trip), interrupt_threads)
            .expect("no row panics");
        let resumed = match run {
            SupervisedSweep::Complete(sweep) => {
                assert_eq!(
                    trip, rows,
                    "seed {seed}: completed despite trip {trip} < {rows}"
                );
                sweep
            }
            SupervisedSweep::Partial(partial) => {
                assert_eq!(partial.reason, StopReason::Cancelled, "seed {seed}");
                if interrupt_threads == 1 {
                    assert_eq!(
                        partial.checkpoint.completed_rows() as u64,
                        trip,
                        "seed {seed}: sequential trip point should be exact"
                    );
                }
                let text = partial.checkpoint.to_text();
                let restored = SweepCheckpoint::from_text(&text).expect("checkpoint round-trips");
                assert_eq!(
                    restored, partial.checkpoint,
                    "seed {seed}: lossy checkpoint"
                );
                let fresh = Supervisor::unbounded();
                let resume_threads = match seed % 3 {
                    0 => 1,
                    1 => 2,
                    _ => cordoba_par::effective_threads(),
                };
                restored
                    .resume(&fresh, resume_threads)
                    .expect("resume accepts a valid checkpoint")
                    .complete()
                    .expect("a fresh unbounded supervisor completes the sweep")
            }
        };
        assert_eq!(
            resumed, baseline,
            "seed {seed}: resume diverged from baseline"
        );
    }
}

/// Deadline faults: a zero-budget deadline stops the sweep before any row,
/// the checkpoint records the deadline reason, and resume still completes
/// to the baseline bits.
#[test]
fn zero_deadline_interrupts_sweep_and_checkpoint_resumes() {
    let pts = synthetic_points();
    let counts = log_sweep(3, 9, 2);
    let baseline = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
        .expect("baseline sweep builds");
    for threads in [1, 2, 4] {
        let partial = SweepCheckpoint::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
            .expect("supervised sweep accepts valid inputs")
            .resume(&Supervisor::with_deadline(Duration::ZERO), threads)
            .expect("no row panics")
            .partial()
            .expect("a zero deadline must interrupt the sweep");
        assert_eq!(
            partial.reason,
            StopReason::DeadlineExceeded,
            "threads {threads}"
        );
        assert_eq!(partial.checkpoint.completed_rows(), 0, "threads {threads}");
        let text = partial.checkpoint.to_text();
        assert!(
            text.contains("deadline-exceeded"),
            "checkpoint should serialize the deadline reason"
        );
        let resumed = SweepCheckpoint::from_text(&text)
            .expect("checkpoint round-trips")
            .resume(&Supervisor::unbounded(), threads)
            .expect("resume accepts a valid checkpoint")
            .complete()
            .expect("resume completes");
        assert_eq!(resumed, baseline, "threads {threads}");
    }
}

/// Space evaluation under combined faults: one seeded-poisoned
/// configuration in the space *and* a seeded mid-run interruption. After
/// resume, the points and the quarantine list (order included) must match
/// the uninterrupted resilient evaluation exactly.
#[test]
fn interrupted_eval_with_poisoned_configs_resumes_and_quarantines_in_order() {
    let task = Task::ai_5_kernels();
    let embodied = EmbodiedModel::default();
    for seed in 0..40u64 {
        let plan = FaultPlan::new(seed);
        let mut configs: Vec<AcceleratorConfig> = design_space().into_iter().take(24).collect();
        let poison_at = (seed as usize).wrapping_mul(7) % configs.len();
        configs[poison_at] = AcceleratorConfig::with_tuning(
            "poisoned",
            16,
            cordoba_carbon::prelude::Bytes::from_mebibytes(8.0),
            cordoba_accel::config::MemoryIntegration::OnDie,
            plan.poison_tuning(&TechTuning::n7()),
        )
        .expect("poisoned tuning still constructs");
        let baseline = SupervisedEval::new(&configs, &task, &embodied).into_resilient();
        let trip = plan.trip_point(configs.len() as u64);
        let mut eval = SupervisedEval::new(&configs, &task, &embodied);
        eval.advance(&Supervisor::tripping_after(trip), 1);
        if trip < configs.len() as u64 {
            assert_eq!(eval.stop(), Some(StopReason::Cancelled), "seed {seed}");
            assert_eq!(eval.attempted() as u64, trip, "seed {seed}");
        }
        let resume_threads = 1 + (seed as usize % 3);
        eval.advance(&Supervisor::unbounded(), resume_threads);
        assert!(eval.is_complete(), "seed {seed}");
        let resumed = eval.into_resilient();
        assert_eq!(
            resumed.points, baseline.points,
            "seed {seed}: points diverged"
        );
        assert_eq!(
            resumed
                .failures
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            baseline
                .failures
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            "seed {seed}: quarantine order diverged"
        );
    }
}

/// Panic isolation: work units that panic at seeded positions are
/// quarantined as `Outcome::Panicked` at exactly those input indices, and
/// the quarantine set is identical at 1, 2, and auto threads.
#[test]
fn seeded_panic_faults_are_quarantined_in_input_order_at_any_thread_count() {
    install_quiet_hook();
    let items: Vec<u64> = (0..120).collect();
    for seed in 0..200u64 {
        let plan = FaultPlan::new(seed);
        let modulus = 5 + plan.trip_point(20); // panic stride in [5, 25]
        let phase = seed % modulus;
        let classify = |threads: usize| -> Vec<Option<u64>> {
            let sup = Supervisor::unbounded();
            let mut run = SupervisedMap::new(items.len());
            run.advance(threads, CostHint::per_item_ns(1_000_000), &sup, |i| {
                let x = items[i];
                assert!(x % modulus != phase, "{QUIET} poisoned item {x}");
                x.wrapping_mul(31) ^ seed
            });
            assert!(run.is_complete(), "seed {seed}: no unit skipped");
            run.into_outcomes()
                .into_iter()
                .enumerate()
                .map(|(i, outcome)| match outcome {
                    Outcome::Done(v) => Some(v),
                    Outcome::Panicked(msg) => {
                        assert!(
                            msg.contains(&format!("poisoned item {i}")),
                            "seed {seed}: panic message lost its origin"
                        );
                        None
                    }
                    Outcome::Skipped => panic!("seed {seed}: unexpected skip at {i}"),
                })
                .collect()
        };
        let sequential = classify(1);
        for (i, slot) in sequential.iter().enumerate() {
            let should_panic = (i as u64) % modulus == phase;
            assert_eq!(
                slot.is_none(),
                should_panic,
                "seed {seed}: quarantine set wrong at index {i}"
            );
        }
        assert_eq!(
            sequential,
            classify(2),
            "seed {seed}: 2-thread run diverged"
        );
        assert_eq!(
            sequential,
            classify(cordoba_par::effective_threads()),
            "seed {seed}: auto-thread run diverged"
        );
    }
}

/// The resume thread counts every interrupted run is finished at: the
/// exact sequential path, two workers, and the process default.
fn resume_thread_counts() -> [usize; 3] {
    [1, 2, cordoba_par::effective_threads()]
}

/// Interrupts `run` at a seeded block count, resumes it at `resume_threads`,
/// and returns the folded result. Even seeds interrupt on the exact
/// sequential path (the trip point is then exact); odd seeds interrupt
/// mid-parallel, where workers that checked the trip count before it was
/// reached may finish more blocks, up to the whole run.
fn interrupt_and_resume<O>(
    mut run: McRun<'_, O>,
    plan: &FaultPlan,
    seed: u64,
    resume_threads: usize,
) -> O {
    let blocks = run.total_blocks() as u64;
    let trip = plan.trip_point(blocks);
    let interrupt_threads = if seed.is_multiple_of(2) { 1 } else { 2 };
    let partial = run
        .advance(&Supervisor::tripping_after(trip), interrupt_threads)
        .expect("no block panics");
    match partial {
        None => assert_eq!(run.stop(), Some(StopReason::Cancelled), "seed {seed}"),
        Some(_) => assert!(
            interrupt_threads > 1 || trip >= blocks,
            "seed {seed}: completed despite trip {trip}"
        ),
    }
    if interrupt_threads == 1 {
        assert_eq!(
            run.completed_blocks() as u64,
            trip.min(blocks),
            "seed {seed}: sequential trip point should be exact"
        );
    }
    run.advance(&Supervisor::unbounded(), resume_threads)
        .expect("no block panics")
        .expect("a fresh unbounded supervisor completes the run")
}

/// Every Monte Carlo experiment (constant-CI, exact-source, sampled-source
/// tCDP and mean regret), interrupted at a seeded block and resumed at 1,
/// 2, and auto threads, lands on the bits of the uninterrupted run.
#[test]
fn monte_carlo_runs_interrupted_at_seeded_points_resume_bit_identically() {
    let pts = synthetic_points();
    let coal = ConstantCi::new(grids::COAL);
    let trend = TrendCi::new(grids::US_AVERAGE, 0.10).expect("valid trend");
    let seasonal = SeasonalCi::solar_rich();
    let sources: [&dyn CiIntegral; 3] = [&coal, &trend, &seasonal];
    for seed in 0..60u64 {
        let plan = FaultPlan::new(seed);
        // 1,300 samples make 21 RNG blocks: enough for a two-worker split.
        let spec = MonteCarloSpec::new(1_300, seed);
        let source_spec = SourceMonteCarloSpec::new(1_300, seed);
        let point = &pts[seed as usize % pts.len()];
        let tcdp = monte_carlo_tcdp(point, &spec).expect("valid spec");
        let source = monte_carlo_source_tcdp(point, &sources, &source_spec).expect("valid spec");
        let regret = monte_carlo_regret(&pts, &spec).expect("valid spec");
        let mut sampled_run =
            McRun::source_sampled(point, &sources, &source_spec, 8).expect("valid spec");
        let sampled = sampled_run
            .advance(&Supervisor::unbounded(), 1)
            .expect("no block panics")
            .expect("an unbounded supervisor completes the run");
        for threads in resume_thread_counts() {
            let run = McRun::tcdp(point, &spec).expect("valid spec");
            let resumed = interrupt_and_resume(run, &plan, seed, threads);
            assert_eq!(resumed, tcdp, "seed {seed}, {threads} threads: tcdp");
            let run = McRun::source(point, &sources, &source_spec).expect("valid spec");
            let resumed = interrupt_and_resume(run, &plan, seed, threads);
            assert_eq!(resumed, source, "seed {seed}, {threads} threads: source");
            let run = McRun::source_sampled(point, &sources, &source_spec, 8).expect("valid spec");
            let resumed = interrupt_and_resume(run, &plan, seed, threads);
            assert_eq!(resumed, sampled, "seed {seed}, {threads} threads: sampled");
            let run = McRun::regret(&pts, &spec).expect("valid spec");
            let resumed = interrupt_and_resume(run, &plan, seed, threads);
            assert_eq!(resumed, regret, "seed {seed}, {threads} threads: regret");
        }
    }
}

/// The provisioning sweep, interrupted before a seeded core count and
/// resumed at 1, 2, and auto threads, returns the rows of the
/// uninterrupted sweep.
#[test]
fn provisioning_sweep_interrupted_at_seeded_points_resumes_bit_identically() {
    let apps = VrApp::studied_tasks();
    let deployment = Deployment::default();
    let baselines: Vec<_> = apps
        .iter()
        .map(|app| sweep(app, &deployment).expect("default deployment sweeps"))
        .collect();
    for seed in 0..40u64 {
        let plan = FaultPlan::new(seed);
        let pick = seed as usize % apps.len();
        let app = &apps[pick];
        for threads in resume_thread_counts() {
            let total = 5u64;
            let trip = plan.trip_point(total);
            let sup = Supervisor::tripping_after(trip);
            let mut run = sweep_supervised(app, &deployment, &sup, 1).expect("valid deployment");
            assert_eq!(run.total() as u64, total);
            if trip < total {
                assert_eq!(run.stop(), Some(StopReason::Cancelled), "seed {seed}");
                assert_eq!(run.completed() as u64, trip, "seed {seed}: exact trip");
                assert!(run.rows().is_none(), "seed {seed}");
            }
            run.resume(&Supervisor::unbounded(), threads)
                .expect("valid deployment");
            assert_eq!(
                run.rows(),
                Some(baselines[pick].clone()),
                "seed {seed}, {threads} threads: rows diverged"
            );
        }
    }
}
