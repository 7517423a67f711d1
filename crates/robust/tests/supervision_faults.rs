//! Supervision fault injection: interrupt the operational-time sweep at
//! seeded trip points and prove the workspace's checkpoint/resume
//! invariant — a sweep interrupted at *any* point and resumed is
//! bit-identical to an uninterrupted run at any thread count — plus the
//! quarantine contract (a failing or panicking work unit is quarantined in
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
use cordoba_carbon::prelude::{grids, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_par::{CostHint, StopReason, Supervisor};
use cordoba_robust::prelude::*;
use cordoba_workloads::task::Task;
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Serializes the tests that set the process-wide worker count, so each
/// really runs at the count it asks for.
static THREADS: Mutex<()> = Mutex::new(());

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
/// `OpTimeSweep` interrupted mid-flight, checkpointed through the text
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
            .resume(&Supervisor::tripping_after(trip), interrupt_threads);
        let resumed = match run {
            SupervisedSweep::Complete(sweep) => {
                assert_eq!(
                    trip, rows,
                    "seed {seed}: completed despite trip {trip} < {rows}"
                );
                sweep
            }
            SupervisedSweep::Partial(checkpoint) => {
                assert_eq!(checkpoint.reason(), StopReason::Cancelled, "seed {seed}");
                if interrupt_threads == 1 {
                    assert_eq!(
                        checkpoint.completed_rows() as u64,
                        trip,
                        "seed {seed}: sequential trip point should be exact"
                    );
                }
                let text = checkpoint.to_text();
                let restored = SweepCheckpoint::from_text(&text).expect("checkpoint round-trips");
                assert_eq!(restored, checkpoint, "seed {seed}: lossy checkpoint");
                let fresh = Supervisor::unbounded();
                let resume_threads = match seed % 3 {
                    0 => 1,
                    1 => 2,
                    _ => cordoba_par::effective_threads(),
                };
                restored
                    .resume(&fresh, resume_threads)
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
        let checkpoint = SweepCheckpoint::new(pts.clone(), counts.clone(), grids::US_AVERAGE)
            .expect("supervised sweep accepts valid inputs")
            .resume(&Supervisor::with_deadline(Duration::ZERO), threads)
            .partial()
            .expect("a zero deadline must interrupt the sweep");
        assert_eq!(
            checkpoint.reason(),
            StopReason::DeadlineExceeded,
            "threads {threads}"
        );
        assert_eq!(checkpoint.completed_rows(), 0, "threads {threads}");
        let text = checkpoint.to_text();
        assert!(
            text.contains("deadline-exceeded"),
            "checkpoint should serialize the deadline reason"
        );
        let resumed = SweepCheckpoint::from_text(&text)
            .expect("checkpoint round-trips")
            .resume(&Supervisor::unbounded(), threads)
            .complete()
            .expect("resume completes");
        assert_eq!(resumed, baseline, "threads {threads}");
    }
}

/// Space evaluation of a space holding one seeded-poisoned configuration:
/// the points and the quarantine list (order included) are identical at 1,
/// 2, and auto threads.
#[test]
fn poisoned_configs_are_quarantined_in_input_order_at_1_2_and_auto_threads() {
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
        let names = |eval: &ResilientEval| -> Vec<String> {
            eval.failures.iter().map(|f| f.name.to_string()).collect()
        };
        let at = |threads: Option<usize>| {
            let _serial = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
            cordoba_par::set_threads(threads.and_then(NonZeroUsize::new));
            let eval = ResilientEval::evaluate(&configs, &task, &embodied);
            cordoba_par::set_threads(None);
            eval
        };
        let baseline = at(Some(1));
        assert_eq!(
            baseline.points.len() + baseline.failures.len(),
            configs.len(),
            "seed {seed}: every configuration is accounted for"
        );
        for threads in [Some(2), None] {
            let eval = at(threads);
            assert_eq!(
                eval.points, baseline.points,
                "seed {seed}, threads {threads:?}: points diverged"
            );
            assert_eq!(
                names(&eval),
                names(&baseline),
                "seed {seed}, threads {threads:?}: quarantine order diverged"
            );
        }
    }
}

/// Panic isolation: work units that panic at seeded positions are
/// quarantined by `cordoba_par::isolate` inside `cordoba_par::map` at
/// exactly those input indices, and the quarantine set is identical at 1,
/// 2, and auto threads.
#[test]
fn seeded_panic_faults_are_quarantined_in_input_order_at_any_thread_count() {
    install_quiet_hook();
    let items: Vec<u64> = (0..120).collect();
    for seed in 0..200u64 {
        let plan = FaultPlan::new(seed);
        let modulus = 5 + plan.trip_point(20); // panic stride in [5, 25]
        let phase = seed % modulus;
        let classify = |threads: usize| -> Vec<Option<u64>> {
            let run = cordoba_par::map(
                items.len(),
                threads,
                CostHint::per_item_ns(1_000_000),
                |i| {
                    cordoba_par::isolate(|| {
                        let x = items[i];
                        assert!(x % modulus != phase, "{QUIET} poisoned item {x}");
                        x.wrapping_mul(31) ^ seed
                    })
                },
            );
            assert_eq!(run.len(), items.len(), "seed {seed}: no unit skipped");
            run.into_iter()
                .enumerate()
                .map(|(i, outcome)| match outcome {
                    Ok(v) => Some(v),
                    Err(msg) => {
                        assert!(
                            msg.contains(&format!("poisoned item {i}")),
                            "seed {seed}: panic message lost its origin"
                        );
                        None
                    }
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
