//! Golden bits across refactors: fingerprints over the exact `f64` bits
//! of the workspace's pipelines for fixed inputs.
//!
//! * [`EXPECTED`] covers every Monte Carlo experiment and the provisioning
//!   sweep, for fixed seeds.
//! * [`EXPECTED_DSE`] covers space evaluation (strict and quarantining,
//!   failure names and messages included) and the operational-time sweep
//!   (uninterrupted, and interrupted, checkpointed through text, and
//!   resumed).
//! * [`EXPECTED_ELIM`] covers multi-task space evaluation over a generated
//!   mixed on-die/3D space, the β-sweep elimination of every task's
//!   points, and the Pareto front and lower hull of adversarial clouds
//!   (NaN of both signs, ±0, ±∞, duplicates, equal-x groups).
//!
//! The property suites compare the code only with itself (at different
//! thread counts), so they cannot see drift between commits. Each constant
//! was recorded before its pipelines were rebuilt on their supervised
//! runners; a change in any result bit changes the fingerprint. Both must
//! hold at 1, 2, and the default number of threads.

use cordoba::dse::{evaluate_space, evaluate_space_multi, log_sweep, OpTimeSweep, ResilientEval};
use cordoba::lagrange::BetaSweep;
use cordoba::metrics::DesignPoint;
use cordoba::pareto::{lower_hull_indices, pareto_indices, pareto_indices_naive, Point2};
use cordoba::supervise::{op_time_sweep_supervised, SupervisedSweep, SweepCheckpoint};
use cordoba::uncertainty::{
    monte_carlo_regret, monte_carlo_source_tcdp, monte_carlo_tcdp, MonteCarloSpec,
    MonteCarloSummary, SourceMonteCarloSpec,
};
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::sim::simulate;
use cordoba_accel::space::design_space;
use cordoba_accel::stacking::study_configs;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::{CiIntegral, Midpoint};
use cordoba_carbon::intensity::{grids, ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::units::{Bytes, GramsCo2e, Hertz, Joules, Seconds, SquareCentimeters};
use cordoba_par::Supervisor;
use cordoba_soc::apps::VrApp;
use cordoba_soc::provisioning::{sweep, Deployment, ProvisioningRow};
use cordoba_workloads::kernel::KernelId;
use cordoba_workloads::task::Task;
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// Serializes the fingerprints, each of which sets the process-wide worker
/// count, so each really runs at the count it asks for.
static THREADS: Mutex<()> = Mutex::new(());

/// Runs `f` with the process worker count set to `threads` (`None` = the
/// default), under [`THREADS`], then restores the default.
fn at_threads<T>(threads: Option<usize>, f: impl FnOnce() -> T) -> T {
    let _serial = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    cordoba_par::set_threads(threads.and_then(NonZeroUsize::new));
    let out = f();
    cordoba_par::set_threads(None);
    out
}

/// The Monte Carlo / provisioning fingerprint recorded before those
/// pipelines were rebuilt on their runners (with the words of the removed
/// β-transition solver taken out of the recorded stream).
const EXPECTED: u64 = 0x1fac_72fe_f6ad_3a03;

/// The space-evaluation / operational-time-sweep fingerprint recorded
/// before those pipelines were rebuilt on their runners.
const EXPECTED_DSE: u64 = 0x2ca6_4d45_05f5_19f3;

/// The multi-task evaluation / elimination fingerprint recorded before
/// space evaluation went stage-major and elimination went to one sort,
/// with one fix applied to the old skyline scan first: it took an equal-x
/// group's minimum y from the group's first point, which is wrong for a
/// group mixing -0.0 and 0.0 (sorted by y within each sign only). Without
/// the fix the old code gave `0xa377_8065_9c5f_93a0` and disagreed with
/// `pareto_indices_naive` on two of the adversarial clouds.
const EXPECTED_ELIM: u64 = 0x2ea2_1432_d07e_fdf9;

/// 1,300 samples make 21 RNG blocks, past the 16-item parallel cutoff, so
/// two workers really split the Monte Carlo runs.
const SAMPLES: usize = 1_300;
const SEEDS: [u64; 3] = [0, 7, 0xC0FFEE];

/// FNV-1a-style hash over 64-bit words; every `f64` enters as `to_bits`.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.float(x));
    }
    fn summary(&mut self, s: &MonteCarloSummary) {
        self.word(s.samples as u64);
        self.floats(&[s.mean, s.std_dev, s.min, s.max]);
    }
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }
    fn points(&mut self, points: &[DesignPoint]) {
        self.word(points.len() as u64);
        for p in points {
            self.text(&p.name);
            self.floats(&[
                p.delay.value(),
                p.energy.value(),
                p.embodied.value(),
                p.area.value(),
            ]);
        }
    }
    fn resilient(&mut self, eval: &ResilientEval) {
        self.points(&eval.points);
        self.word(eval.failures.len() as u64);
        for f in &eval.failures {
            self.text(&f.name);
            self.text(&f.error.to_string());
        }
    }
    fn sweep(&mut self, sweep: &OpTimeSweep) {
        self.points(&sweep.points);
        self.floats(&sweep.task_counts);
        self.float(sweep.ci_use.value());
        self.floats(sweep.tcdp_matrix());
    }
    fn indices(&mut self, indices: &[usize]) {
        self.word(indices.len() as u64);
        indices.iter().for_each(|&i| self.word(i as u64));
    }
    fn beta(&mut self, beta: &BetaSweep) {
        self.word(beta.points.len() as u64);
        for p in &beta.points {
            self.text(&p.name);
            self.floats(&[p.x, p.y]);
        }
        self.indices(&beta.pareto);
        self.indices(&beta.support);
    }
    fn rows(&mut self, rows: &[ProvisioningRow]) {
        for r in rows {
            self.word(u64::from(r.cores));
            self.floats(&[
                r.delay.value(),
                r.energy.value(),
                r.embodied.value(),
                r.operational.value(),
                r.tcdp.value(),
                r.edp,
            ]);
        }
    }
}

fn points() -> Vec<DesignPoint> {
    [
        ("tiny", 4.0, 0.5, 20.0),
        ("small", 2.0, 1.0, 60.0),
        ("mid", 1.0, 2.5, 200.0),
        ("big", 0.5, 3.0, 800.0),
        ("huge", 0.4, 20.0, 4000.0),
        ("odd", 1.3, 0.9, 150.0),
    ]
    .into_iter()
    .map(|(name, d, e, emb)| {
        DesignPoint::new(
            name,
            Seconds::new(d),
            Joules::new(e),
            GramsCo2e::new(emb),
            SquareCentimeters::new(1.0),
        )
        .unwrap()
    })
    .collect()
}

/// Fingerprint of every pipeline with the process worker count set to
/// `threads` (`None` = the default).
fn fingerprint(threads: Option<usize>) -> u64 {
    at_threads(threads, || {
        let pts = points();
        let coal = ConstantCi::new(grids::COAL);
        let trend = TrendCi::new(grids::US_AVERAGE, 0.10).unwrap();
        let seasonal = SeasonalCi::solar_rich();
        let sources: [&dyn CiIntegral; 3] = [&coal, &trend, &seasonal];
        let midpoints = sources.map(|s| Midpoint::new(s, 16));
        let sampled_sources: Vec<&dyn CiIntegral> =
            midpoints.iter().map(|s| s as &dyn CiIntegral).collect();
        let mut fp = Fingerprint::new();
        for seed in SEEDS {
            let spec = MonteCarloSpec::new(SAMPLES, seed);
            let source_spec = SourceMonteCarloSpec::new(SAMPLES, seed);
            for p in &pts {
                fp.summary(&monte_carlo_tcdp(p, &spec).unwrap());
                fp.summary(&monte_carlo_source_tcdp(p, &sources, &source_spec).unwrap());
                fp.summary(&monte_carlo_source_tcdp(p, &sampled_sources, &source_spec).unwrap());
            }
            fp.floats(&monte_carlo_regret(&pts, &spec).unwrap());
        }
        for app in VrApp::studied_tasks() {
            fp.rows(&sweep(&app, &Deployment::default()).unwrap());
        }
        fp.0
    })
}

/// The seed space twice over with three poisoned configurations spread
/// through it: 245 configurations, enough estimated work that two workers
/// really split the evaluation.
fn poisoned_space() -> Vec<AcceleratorConfig> {
    let mut configs: Vec<AcceleratorConfig> =
        design_space().into_iter().chain(design_space()).collect();
    type Poison = fn(&mut TechTuning);
    let poisons: [(&str, Poison); 3] = [
        ("poison-nan-mac", |t| t.mac_unit_area_mm2 = f64::NAN),
        ("poison-infinite-base", |t| t.base_area_mm2 = f64::INFINITY),
        ("poison-nan-sram-energy", |t| {
            t.sram_energy_exponent = f64::NAN
        }),
    ];
    for (k, (name, poison)) in poisons.into_iter().enumerate() {
        let mut tuning = TechTuning::n7();
        poison(&mut tuning);
        let config = AcceleratorConfig::with_tuning(
            name,
            16,
            Bytes::from_mebibytes(8.0),
            MemoryIntegration::OnDie,
            tuning,
        )
        .unwrap();
        configs.insert(7 + 90 * k, config);
    }
    configs
}

/// Fingerprint of space evaluation and the operational-time sweep with the
/// process worker count set to `threads` (`None` = the default).
fn dse_fingerprint(threads: Option<usize>) -> u64 {
    at_threads(threads, || {
        let embodied = EmbodiedModel::default();
        let space = design_space();
        let mut fp = Fingerprint::new();
        let mut xr = Vec::new();
        for task in [Task::xr_5_kernels(), Task::ai_5_kernels()] {
            let points = evaluate_space(&space, &task, &embodied).unwrap();
            fp.points(&points);
            if xr.is_empty() {
                xr = points;
            }
        }
        let quarantined =
            ResilientEval::evaluate(&poisoned_space(), &Task::ai_5_kernels(), &embodied);
        assert_eq!(quarantined.failures.len(), 3);
        fp.resilient(&quarantined);

        // 81 rows of 121 points: enough estimated work for two workers.
        let counts = log_sweep(2, 12, 8);
        let sweep = OpTimeSweep::new(xr.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        fp.sweep(&sweep);
        for trip in [0u64, 5, 40] {
            let sup = Supervisor::tripping_after(trip);
            let run = op_time_sweep_supervised(xr.clone(), counts.clone(), grids::US_AVERAGE, &sup);
            let Ok(SupervisedSweep::Partial(checkpoint)) = run else {
                panic!("trip {trip} must interrupt the sweep");
            };
            let restored = SweepCheckpoint::from_text(&checkpoint.to_text()).unwrap();
            let resumed = restored
                .resume(&Supervisor::unbounded(), cordoba_par::effective_threads())
                .complete()
                .unwrap();
            fp.sweep(&resumed);
        }
        fp.0
    })
}

/// Deterministic xorshift64 stream for the generated inputs below.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 150 shapes (on-die and 3D-stacked with 2-4 dies) x 3 clock/utilization
/// tunings, shuffled: 450 configurations, enough estimated work for two
/// workers, with three tunings sharing each embodied-carbon entry.
fn mixed_space() -> Vec<AcceleratorConfig> {
    let mut rng = XorShift(0x5EED_E11A);
    let mut space = Vec::new();
    for s in 0..150 {
        let units = 1 + rng.below(128) as u32;
        let sram = Bytes::from_mebibytes(0.25 * (1 + rng.below(256)) as f64);
        let integration = if rng.unit() < 0.6 {
            MemoryIntegration::OnDie
        } else {
            MemoryIntegration::Stacked3d {
                dies: 2 + rng.below(3) as u32,
            }
        };
        for v in 0..3 {
            let mut tuning = TechTuning::n7();
            tuning.clock = Hertz::from_gigahertz(0.5 + rng.unit());
            tuning.utilization = 0.7 + 0.25 * rng.unit();
            let name = format!("m{s}_{v}");
            let config =
                AcceleratorConfig::with_tuning(name, units, sram, integration, tuning).unwrap();
            space.push(config);
        }
    }
    for i in (1..space.len()).rev() {
        space.swap(i, rng.below(i as u64 + 1) as usize);
    }
    space
}

/// Clouds built to break sort-based elimination: coordinates drawn from a
/// small palette (so equal-x groups and exact duplicates are common) that
/// holds NaN of both signs, ±0 and ±∞, mixed with random values.
fn adversarial_clouds() -> Vec<Vec<Point2>> {
    let palette = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        2.0,
        3.0,
        -1.0,
    ];
    let mut rng = XorShift(0xAD5E_C10D);
    let mut clouds = Vec::new();
    for c in 0..60 {
        let len = 1 + rng.below(40) as usize;
        // Every third cloud stays finite-only but grouped; the rest mix in
        // the special values at rising rates.
        let special = if c % 3 == 0 {
            0.0
        } else {
            0.05 * (c % 7) as f64
        };
        let coord = |rng: &mut XorShift| {
            if rng.unit() < special {
                palette[rng.below(6) as usize]
            } else if rng.unit() < 0.5 {
                palette[6 + rng.below(4) as usize]
            } else {
                (rng.below(16) as f64) * 0.5 - 2.0
            }
        };
        let mut cloud: Vec<Point2> = (0..len)
            .map(|i| {
                let x = coord(&mut rng);
                let y = coord(&mut rng);
                Point2::new(format!("c{c}_{i}"), x, y)
            })
            .collect();
        // Exact duplicates of earlier points.
        for i in 0..len / 4 {
            let copy = cloud[rng.below(len as u64) as usize].clone();
            cloud.push(Point2::new(format!("c{c}_dup{i}"), copy.x, copy.y));
        }
        clouds.push(cloud);
    }
    clouds
}

/// Fingerprint of multi-task evaluation and elimination with the process
/// worker count set to `threads` (`None` = the default).
fn elim_fingerprint(threads: Option<usize>) -> u64 {
    let space = mixed_space();
    let tasks = Task::evaluation_suite();
    let per_task = at_threads(threads, || {
        evaluate_space_multi(&space, &tasks, &EmbodiedModel::default()).unwrap()
    });
    let mut fp = Fingerprint::new();
    for points in &per_task {
        fp.points(points);
        fp.beta(&BetaSweep::run(points));
    }
    for cloud in adversarial_clouds() {
        fp.indices(&pareto_indices(&cloud));
        fp.indices(&lower_hull_indices(&cloud));
    }
    fp.0
}

#[test]
fn pareto_front_of_every_adversarial_cloud_matches_the_all_pairs_reference() {
    for (k, cloud) in adversarial_clouds().iter().enumerate() {
        assert_eq!(
            pareto_indices(cloud),
            pareto_indices_naive(cloud),
            "cloud {k}"
        );
    }
}

/// The SR(512x512) points of the Fig. 12 study: the baseline and the six
/// 3D-stacked configurations.
fn fig12_points() -> Vec<DesignPoint> {
    let model = EmbodiedModel::default();
    let kernel = KernelId::Sr512.descriptor();
    study_configs()
        .iter()
        .map(|cfg| {
            let sim = simulate(cfg, &kernel);
            let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
            DesignPoint::new(
                cfg.name(),
                sim.latency,
                energy,
                cfg.embodied_carbon(&model).unwrap(),
                cfg.total_area(),
            )
            .unwrap()
        })
        .collect()
}

/// Distance between `a` and `b` in units of the spacing of `f64` at the
/// larger magnitude of the two.
fn ulps_apart(a: f64, b: f64) -> f64 {
    let larger = a.abs().max(b.abs());
    let spacing = f64::from_bits(larger.to_bits() + 1) - larger;
    (a - b).abs() / spacing
}

/// Checks [`BetaSweep::transitions`] of `sweep` against the O(n) scan
/// [`BetaSweep::optimal_for_beta`]: one transition per consecutive support
/// pair with strictly ascending β, the support winner's objective equal to
/// the scan's at the midpoint of every interval and past the last
/// breakpoint, and the two neighbours' objectives equal at each breakpoint.
fn check_transitions(sweep: &BetaSweep, what: &str) {
    let objective = |i: usize, beta: f64| sweep.points[i].x + beta * sweep.points[i].y;
    let transitions = sweep.transitions();
    assert_eq!(
        transitions.len(),
        sweep.support.len().saturating_sub(1),
        "{what}"
    );
    for (t, pair) in transitions.iter().zip(sweep.support.windows(2)) {
        assert_eq!((t.from_index, t.to_index), (pair[0], pair[1]), "{what}");
        let apart = ulps_apart(
            objective(t.from_index, t.beta),
            objective(t.to_index, t.beta),
        );
        assert!(apart <= 4.0, "{what}: {t:?} neighbours {apart} ulps apart");
    }
    for w in transitions.windows(2) {
        assert!(w[0].beta < w[1].beta, "{what}: {:?} then {:?}", w[0], w[1]);
    }
    // Probe β: the midpoint of each interval [previous breakpoint (or 0),
    // breakpoint], then a β past the last breakpoint.
    let mut lo = 0.0;
    let mut probes: Vec<f64> = transitions
        .iter()
        .map(|t| {
            let mid = f64::midpoint(lo, t.beta);
            lo = t.beta;
            mid
        })
        .collect();
    probes.push(transitions.last().map_or(1.0, |t| 2.0 * t.beta));
    for (&beta, &winner) in probes.iter().zip(&sweep.support) {
        let scan = sweep.optimal_for_beta(beta).unwrap();
        assert_eq!(
            objective(scan, beta).to_bits(),
            objective(winner, beta).to_bits(),
            "{what}: at beta {beta} the scan picks {scan}, the hull {winner}"
        );
    }
}

#[test]
fn beta_transitions_read_off_the_hull_match_the_argmin_scan() {
    for (k, cloud) in adversarial_clouds().into_iter().enumerate() {
        let sweep = BetaSweep {
            pareto: pareto_indices(&cloud),
            support: lower_hull_indices(&cloud),
            points: cloud,
        };
        if k % 3 == 0 {
            check_transitions(&sweep, &format!("cloud {k}"));
        } else {
            // Non-finite clouds have no meaningful crossings, but reading
            // them off must still not panic.
            assert_eq!(
                sweep.transitions().len(),
                sweep.support.len().saturating_sub(1)
            );
        }
    }
    let embodied = EmbodiedModel::default();
    for task in Task::evaluation_suite() {
        let points = evaluate_space(&design_space(), &task, &embodied).unwrap();
        check_transitions(&BetaSweep::run(&points), task.name());
    }
    let fig12 = BetaSweep::run(&fig12_points());
    check_transitions(&fig12, "fig12");
    let names: Vec<(&str, &str)> = fig12
        .transitions()
        .iter()
        .map(|t| {
            let name = |i: usize| fig12.points[i].name.as_str();
            (name(t.from_index), name(t.to_index))
        })
        .collect();
    assert_eq!(names, [("3D_2K_4M", "3D_2K_8M")]);
}

#[test]
fn elimination_bits_match_the_recorded_fingerprint_at_1_2_and_auto_threads() {
    for threads in [Some(1), Some(2), None] {
        let got = elim_fingerprint(threads);
        assert_eq!(
            got, EXPECTED_ELIM,
            "threads {threads:?}: elimination result bits drifted from the recorded fingerprint: {got:#018x}"
        );
    }
}

#[test]
fn dse_bits_match_the_recorded_fingerprint_at_1_2_and_auto_threads() {
    for threads in [Some(1), Some(2), None] {
        assert_eq!(
            dse_fingerprint(threads),
            EXPECTED_DSE,
            "threads {threads:?}: dse result bits drifted from the recorded fingerprint: {:#018x}",
            dse_fingerprint(threads)
        );
    }
}

#[test]
fn result_bits_match_the_recorded_fingerprint_at_1_2_and_auto_threads() {
    for threads in [Some(1), Some(2), None] {
        assert_eq!(
            fingerprint(threads),
            EXPECTED,
            "threads {threads:?}: result bits drifted from the recorded fingerprint"
        );
    }
}
