//! Observability must be a pure side channel: every sweep and solver
//! returns *bit-identical* results (exact `f64` equality via derived
//! `PartialEq`) whether tracing and metrics are enabled or disabled, at
//! every thread count.
//!
//! Span collection and counter updates share global state, so the whole
//! contract lives in one `#[test]` — this file is its own test binary and
//! the single function keeps the enable/disable toggles race-free.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::config::MemoryIntegration;
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::Bytes;
use cordoba_par::Supervisor;
use cordoba_workloads::task::Task;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 1, an oversubscribed explicit count, and the auto (0 = `effective_threads`)
/// path all have to agree with the obs-off baseline.
const THREAD_COUNTS: [usize; 3] = [1, 2, 0];

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

/// Everything the suite computes for one seeded case, bundled so the
/// obs-off and obs-on passes compare with a single `assert_eq!`.
#[derive(Debug, Clone, PartialEq)]
struct CaseResult {
    points: Vec<DesignPoint>,
    quarantined: Vec<String>,
    sweep: OpTimeSweep,
    /// The attribution ledger, serialized: shortest-round-trip `f64`
    /// formatting makes string equality bit equality.
    attribution: String,
    beta: String,
    mc_mean_bits: u64,
    mc_stddev_bits: u64,
}

fn run_case(seed: u64, threads: usize) -> CaseResult {
    let model = EmbodiedModel::default();
    let mut rng = StdRng::seed_from_u64(0x0B5D ^ seed);
    let mut configs = random_configs(&mut rng);
    let task = Task::xr_5_kernels();
    let poisons = 1 + index(&mut rng, 3);
    for p in 0..poisons {
        let at = index(&mut rng, configs.len() + 1);
        configs.insert(at, poisoned_config(&format!("poison{p}")));
    }

    let resilient = evaluate_space_resilient_with_threads(&configs, &task, &model, threads);
    let quarantined = resilient
        .failures
        .iter()
        .map(|f| f.name.clone())
        .collect::<Vec<_>>();

    let counts: Vec<f64> = (0..1 + index(&mut rng, 10))
        .map(|_| 10f64.powf(1.0 + 8.0 * rng.gen::<f64>()))
        .collect();
    let sweep =
        OpTimeSweep::with_threads(resilient.points.clone(), counts, grids::US_AVERAGE, threads)
            .unwrap();

    let beta_sweep = BetaSweep::run(&resilient.points);

    // The attribution ledger decomposes the sweep's tCDP; it must
    // reconcile bit-for-bit against the matrix it was derived from at
    // every thread count, with or without observability.
    let report = AttributionReport::from_sweep(&sweep)
        .unwrap()
        .with_quarantine(&resilient.failures)
        .with_beta(&beta_sweep);
    report.check_against(&sweep).unwrap();
    let attribution = report.to_json();
    let beta = format!(
        "{:?}",
        beta_sweep
            .solve_transitions_supervised(0.0, 1e3, 1e-3, 4_000, &Supervisor::unbounded(), threads)
            .unwrap()
    );

    let spec = MonteCarloSpec::new(64, 0xDE7E ^ seed);
    let mc = McRun::tcdp(&resilient.points[0], &spec)
        .unwrap()
        .advance(&Supervisor::unbounded(), threads)
        .map(Option::unwrap)
        .unwrap();

    CaseResult {
        points: resilient.points,
        quarantined,
        sweep,
        attribution,
        beta,
        mc_mean_bits: mc.mean.to_bits(),
        mc_stddev_bits: mc.std_dev.to_bits(),
    }
}

#[test]
fn obs_on_is_bit_identical_to_obs_off_at_every_thread_count() {
    assert!(!cordoba_obs::tracing_enabled());
    assert!(!cordoba_obs::metrics_enabled());
    for seed in 0..12u64 {
        // Baseline: observability fully disabled, sequential.
        let baseline = run_case(seed, 1);
        for threads in THREAD_COUNTS {
            let quiet = run_case(seed, threads);
            assert_eq!(baseline, quiet, "obs off: seed {seed}, {threads} threads");
        }

        cordoba_obs::set_tracing_enabled(true);
        cordoba_obs::set_metrics_enabled(true);
        for threads in THREAD_COUNTS {
            let traced = run_case(seed, threads);
            assert_eq!(baseline, traced, "obs on: seed {seed}, {threads} threads");
        }
        cordoba_obs::set_tracing_enabled(false);
        cordoba_obs::set_metrics_enabled(false);

        // The traced runs actually recorded something — the side channel is
        // live, not short-circuited — and the profiler agrees with itself
        // whether it aggregates the live buffer or the exported trace.
        let live_profile = cordoba_obs::profile_report();
        let trace = cordoba_obs::drain_chrome_trace();
        let check = cordoba_obs::validate_chrome_trace(&trace).unwrap();
        assert!(
            check.spans >= 1,
            "seed {seed}: no spans collected: {check:?}"
        );
        let parsed_profile = cordoba_obs::profile_chrome_trace(&trace).unwrap();
        assert_eq!(
            live_profile, parsed_profile,
            "seed {seed}: live and trace-derived profiles diverged"
        );
        // The trace validator counts every `ph:"X"` event as a span,
        // which includes the zero-duration instants the profiler tallies
        // separately.
        assert_eq!(
            live_profile.spans + live_profile.instants,
            check.spans,
            "seed {seed}"
        );
        assert!(
            live_profile
                .entries
                .iter()
                .any(|e| e.name.starts_with("core/")),
            "seed {seed}: no core spans in the profile: {live_profile:?}"
        );
        for entry in &live_profile.entries {
            assert!(entry.self_ns <= entry.total_ns, "seed {seed}: {entry:?}");
            assert!(entry.count >= 1, "seed {seed}: {entry:?}");
        }
        cordoba_obs::clear_trace();
    }
    let counters = cordoba_obs::counter_snapshot();
    assert!(
        counters
            .iter()
            .any(|(name, value)| *name == "events/quarantine" && *value > 0),
        "quarantine events were not counted: {counters:?}"
    );
}
