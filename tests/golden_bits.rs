//! Golden bits across refactors: one fingerprint over the exact `f64` bits
//! of every Monte Carlo experiment, the β-transition solver, and the
//! provisioning sweep, for fixed seeds.
//!
//! The property suites compare the code only with itself (at different
//! thread counts), so they cannot see drift between commits. This test
//! pins the value recorded before the three pipelines were rebuilt on
//! their supervised runners; a change in any result bit changes the
//! fingerprint. It must hold at 1, 2, and the default number of threads.

use cordoba::lagrange::{BetaSolve, BetaSweep};
use cordoba::metrics::DesignPoint;
use cordoba::uncertainty::{
    monte_carlo_regret, monte_carlo_source_tcdp, monte_carlo_tcdp, McRun, MonteCarloSpec,
    MonteCarloSummary, SourceMonteCarloSpec,
};
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{grids, ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::units::{GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_par::Supervisor;
use cordoba_soc::apps::VrApp;
use cordoba_soc::provisioning::{sweep, sweep_supervised, Deployment, ProvisioningRow};

/// The fingerprint recorded before the refactor.
const EXPECTED: u64 = 0xb474_4dee_3bcb_32b6;

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
    fn solve(&mut self, solve: &BetaSolve) {
        self.word(u64::from(solve.converged()));
        let evaluations = match solve {
            BetaSolve::Converged { evaluations, .. }
            | BetaSolve::NotConverged { evaluations, .. } => *evaluations,
        };
        self.word(evaluations as u64);
        for t in solve.transitions() {
            self.float(t.beta);
            self.word(t.from_index as u64);
            self.word(t.to_index as u64);
        }
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

/// Advances `run` to completion under a supervisor that never trips.
fn complete<O>(mut run: McRun<'_, O>, threads: usize) -> O {
    run.advance(&Supervisor::unbounded(), threads)
        .unwrap()
        .expect("an unbounded supervisor completes the run")
}

/// Fingerprint of every pipeline at `threads` workers (`None` = the plain
/// entry points at the process default).
fn fingerprint(threads: Option<usize>) -> u64 {
    let pts = points();
    let coal = ConstantCi::new(grids::COAL);
    let trend = TrendCi::new(grids::US_AVERAGE, 0.10).unwrap();
    let seasonal = SeasonalCi::solar_rich();
    let sources: [&dyn CiIntegral; 3] = [&coal, &trend, &seasonal];
    let t = threads.unwrap_or_else(cordoba_par::effective_threads);
    let mut fp = Fingerprint::new();
    for seed in SEEDS {
        let spec = MonteCarloSpec::new(SAMPLES, seed);
        let source_spec = SourceMonteCarloSpec::new(SAMPLES, seed);
        for p in &pts {
            let (tcdp, source) = match threads {
                Some(t) => (
                    complete(McRun::tcdp(p, &spec).unwrap(), t),
                    complete(McRun::source(p, &sources, &source_spec).unwrap(), t),
                ),
                None => (
                    monte_carlo_tcdp(p, &spec).unwrap(),
                    monte_carlo_source_tcdp(p, &sources, &source_spec).unwrap(),
                ),
            };
            fp.summary(&tcdp);
            fp.summary(&source);
            let sampled = McRun::source_sampled(p, &sources, &source_spec, 16).unwrap();
            fp.summary(&complete(sampled, t));
        }
        let regret = match threads {
            Some(t) => complete(McRun::regret(&pts, &spec).unwrap(), t),
            None => monte_carlo_regret(&pts, &spec).unwrap(),
        };
        fp.floats(&regret);
    }
    let beta = BetaSweep::run(&pts);
    for budget in [10_000, 7] {
        let solve = match threads {
            Some(t) => beta.solve_transitions_supervised(
                0.0,
                1e4,
                1e-9,
                budget,
                &Supervisor::unbounded(),
                t,
            ),
            None => beta.solve_transitions(0.0, 1e4, 1e-9, budget),
        };
        fp.solve(&solve.unwrap());
    }
    for app in VrApp::studied_tasks() {
        let rows = match threads {
            Some(t) => sweep_supervised(&app, &Deployment::default(), &Supervisor::unbounded(), t)
                .unwrap()
                .rows()
                .unwrap(),
            None => sweep(&app, &Deployment::default()).unwrap(),
        };
        fp.rows(&rows);
    }
    fp.0
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
