//! Fault-injection suite: every CORDOBA subsystem must return a structured
//! error or a degraded-but-finite result under corrupted input — never
//! panic, never NaN.
//!
//! The explicit seed loops below push well over a thousand distinct
//! [`FaultPlan`] corruptions through the sanitizer, the fallback CI chain,
//! the resilient design-space sweep, and the event-driven scheduler; the
//! `proptest!` block adds randomized rate combinations on top.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::prelude::{
    grids, CarbonIntensity, CiIntegral, DiurnalCi, FallbackCi, SanitizePolicy, Seconds, TraceCi,
};
use cordoba_robust::fault::FaultPlan;
use cordoba_soc::prelude::{simulate_events, ActivityTrace, Segment, SocConfig, VrApp};
use cordoba_workloads::task::Task;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A clean two-day hourly trace with a mild diurnal swing.
fn clean_trace() -> Vec<(Seconds, CarbonIntensity)> {
    (0..48)
        .map(|h| {
            let swing = 120.0 * (f64::from(h % 24) / 24.0 * std::f64::consts::TAU).sin();
            (
                Seconds::from_hours(f64::from(h)),
                CarbonIntensity::new(400.0 + swing),
            )
        })
        .collect()
}

/// Probes a CI source at many offsets and asserts finite, non-negative
/// intensity everywhere: the point value at each hour, and the integral and
/// mean over each following hour window (what `tcdp_under_source` and
/// `operational_carbon_exact` consume).
fn assert_source_sane(source: &dyn CiIntegral, seed: u64) {
    for h in 0..96 {
        let ci = source.at(Seconds::from_hours(f64::from(h)));
        assert!(
            ci.value().is_finite() && ci.value() >= 0.0,
            "seed {seed}: intensity {ci:?} at hour {h}"
        );
    }
    for h in 0..96 {
        let (t0, t1) = (
            Seconds::from_hours(f64::from(h)),
            Seconds::from_hours(f64::from(h + 1)),
        );
        let integral = source.integral_over(t0, t1);
        assert!(
            integral.value().is_finite() && integral.value() >= 0.0,
            "seed {seed}: integral {integral:?} over hour {h}"
        );
        let mean = source.mean_exact(t0, t1);
        assert!(
            mean.value().is_finite() && mean.value() >= 0.0,
            "seed {seed}: mean {mean:?} over hour {h}"
        );
    }
}

#[test]
fn sanitizer_survives_a_thousand_corrupted_traces() {
    let clean = clean_trace();
    let mut recovered = 0usize;
    for seed in 0..1000u64 {
        let corrupted = FaultPlan::chaos(seed).corrupt_trace(&clean);
        for policy in [SanitizePolicy::lenient(), SanitizePolicy::production()] {
            // A structured `Err` (e.g. every sample dropped) is an
            // acceptable outcome; a panic or NaN is not.
            if let Ok((trace, report)) = TraceCi::sanitize(corrupted.clone(), &policy) {
                recovered += 1;
                assert_eq!(report.input_samples, corrupted.len(), "seed {seed}");
                assert_eq!(report.output_samples, trace.len(), "seed {seed}");
                assert_source_sane(&trace, seed);
            }
        }
    }
    // chaos drops ~15% of samples, so the sanitizer should recover the
    // overwhelming majority of 48-sample traces.
    assert!(
        recovered > 1800,
        "sanitizer recovered only {recovered}/2000 corrupted traces"
    );
}

#[test]
fn fallback_chain_yields_finite_intensity_under_corruption() {
    let clean = clean_trace();
    let diurnal = DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(120.0))
        .expect("valid diurnal model");
    for seed in 0..200u64 {
        let corrupted = FaultPlan::chaos(seed).corrupt_trace(&clean);
        let chain = match TraceCi::sanitize(corrupted, &SanitizePolicy::production()) {
            Ok((trace, _)) => FallbackCi::standard(trace, Some(diurnal), grids::US_AVERAGE)
                .expect("chain with all tiers builds"),
            // Trace beyond repair: the chain still stands on its fallbacks.
            Err(_) => FallbackCi::builder()
                .tier("diurnal", Box::new(diurnal))
                .tier(
                    "constant",
                    Box::new(cordoba_carbon::prelude::ConstantCi::new(grids::US_AVERAGE)),
                )
                .build()
                .expect("fallback-only chain builds"),
        };
        assert_source_sane(&chain, seed);
        let health = chain.health();
        // 96 point lookups, plus one query each for the 96 windows'
        // `integral_over` and `mean_exact`: every trace-span edge is a whole
        // hour, so no window is split at a tier boundary.
        assert_eq!(health.queries, 3 * 96, "seed {seed}");
        assert_eq!(health.exhausted, 0, "seed {seed}: {health}");
    }
}

#[test]
fn resilient_sweep_is_total_under_config_corruption() {
    let task = Task::xr_5_kernels();
    let embodied = EmbodiedModel::default();
    let clean: Vec<AcceleratorConfig> = design_space().into_iter().take(12).collect();
    let strict = evaluate_space(&clean, &task, &embodied).expect("clean space evaluates");

    for seed in 0..100u64 {
        let plan = FaultPlan::new(seed);
        let mut configs = clean.clone();
        let poisoned = AcceleratorConfig::with_tuning(
            format!("poison-{seed}"),
            16,
            cordoba_carbon::prelude::Bytes::from_mebibytes(8.0),
            cordoba_accel::config::MemoryIntegration::OnDie,
            plan.poison_tuning(&TechTuning::n7()),
        )
        .expect("poisoned tuning still constructs");
        configs.push(poisoned);

        let eval = ResilientEval::evaluate(&configs, &task, &embodied);
        // Totality: every configuration lands in exactly one bucket, and
        // everything that survives is finite.
        assert_eq!(
            eval.points.len() + eval.failures.len(),
            configs.len(),
            "seed {seed}"
        );
        for p in &eval.points {
            assert!(
                p.delay.is_finite() && p.energy.is_finite() && p.embodied.is_finite(),
                "seed {seed}: non-finite survivor {p:?}"
            );
        }
        // The clean prefix is never affected by the poisoned tail.
        assert_eq!(
            &eval.points[..strict.len().min(eval.points.len())],
            &strict[..strict.len().min(eval.points.len())],
            "seed {seed}"
        );
        assert!(
            eval.points.len() >= strict.len(),
            "seed {seed}: clean configs lost"
        );
    }
}

#[test]
fn nan_poisoned_config_is_quarantined_not_fatal() {
    let task = Task::xr_5_kernels();
    let embodied = EmbodiedModel::default();
    let mut configs: Vec<AcceleratorConfig> = design_space().into_iter().take(8).collect();
    let mut tuning = TechTuning::n7();
    tuning.mac_unit_area_mm2 = f64::NAN;
    configs.push(
        AcceleratorConfig::with_tuning(
            "nan-poison",
            16,
            cordoba_carbon::prelude::Bytes::from_mebibytes(8.0),
            cordoba_accel::config::MemoryIntegration::OnDie,
            tuning,
        )
        .expect("constructs"),
    );
    let eval = ResilientEval::evaluate(&configs, &task, &embodied);
    assert!(eval.degraded());
    assert_eq!(eval.failures.len(), 1);
    assert_eq!(eval.failures[0].name, "nan-poison");
    assert_eq!(eval.points.len(), 8);
}

#[test]
fn event_sim_stays_finite_under_hostile_demands() {
    let soc = SocConfig::quest2();
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let app = VrApp {
            name: format!("hostile-{seed}"),
            main_demand: 10.0f64.powi(rng.gen_range(-2..8)),
            background_demand: 10.0f64.powi(rng.gen_range(-2..8)),
            ..VrApp::m1()
        };
        let threads = rng.gen_range(1..=9u32);
        let trace = ActivityTrace::new(vec![Segment {
            duration: Seconds::new(1.0),
            threads,
        }])
        .expect("non-empty trace");
        let r = simulate_events(&trace, &app, &soc, 40);
        assert!(
            r.duration.is_finite() && r.energy.is_finite(),
            "seed {seed}: {r:?}"
        );
        // The watchdog bounds runtime at 50x the segment length (plus at
        // most one tick of overshoot).
        assert!(
            r.duration.value() <= 50.0 + 1.0 / 40.0 + 1e-6,
            "seed {seed}"
        );
        if r.truncated {
            assert!(r.duration.value() > 0.0, "seed {seed}: empty truncated run");
        }
    }
}

proptest! {
    /// Arbitrary rate combinations never make sanitize panic or emit NaN.
    #[test]
    fn prop_sanitize_never_emits_nan(
        seed in 0u64..1_000_000,
        drop in 0.0f64..1.0,
        nan in 0.0f64..1.0,
        neg in 0.0f64..1.0,
        spike in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop_rate(drop)
            .with_duplicate_rate(0.2)
            .with_shuffle(true)
            .with_nan_rate(nan)
            .with_negative_rate(neg)
            .with_spike_rate(spike);
        let corrupted = plan.corrupt_trace(&clean_trace());
        if let Ok((trace, report)) = TraceCi::sanitize(corrupted, &SanitizePolicy::lenient()) {
            prop_assert!(report.output_samples >= 1);
            for h in 0..48 {
                let ci = trace.at(Seconds::from_hours(f64::from(h)));
                prop_assert!(ci.value().is_finite() && ci.value() >= 0.0);
            }
        }
    }

    /// Value corruption preserves series length and is reproducible.
    #[test]
    fn prop_corrupt_values_is_deterministic(seed in 0u64..1_000_000) {
        let plan = FaultPlan::chaos(seed);
        let input: Vec<f64> = (0..32).map(f64::from).collect();
        let a = plan.corrupt_values(&input);
        let b = plan.corrupt_values(&input);
        prop_assert_eq!(a.len(), input.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
