//! `uncertainty`: the "decide under unknown CI" path, analysis-bound; no
//! kernel simulation or store work inside an op.
//!
//! Setup characterizes the pooled spaces once. Each op sweeps one pooled
//! point set over a fine operational-time grid, builds and reconciles the
//! attribution ledger, then runs the Monte Carlo regret over the 121
//! seed-space points and the source Monte Carlo under constant, trend and
//! solar-rich seasonal intensity.
//
// cordoba-lint: allow-file(lossy-cast) —
// a sample count is mixed into the fingerprint.

use super::{check, combine, push_sweep, sweep_traced, Workload};
use crate::gen::{design_space, Rng};
use crate::trace::Tracer;
use crate::{Fingerprint, Scale};
use cordoba::attrib::AttributionReport;
use cordoba::dse::{evaluate_space, log_sweep, OpTimeSweep};
use cordoba::metrics::DesignPoint;
use cordoba::uncertainty::{
    monte_carlo_regret, monte_carlo_source_tcdp, MonteCarloSpec, MonteCarloSummary,
    SourceMonteCarloSpec,
};
use cordoba_accel::space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{grids, ConstantCi, SeasonalCi, TrendCi};
use cordoba_carbon::units::CarbonIntensity;
use cordoba_workloads::task::Task;

const CI: CarbonIntensity = grids::US_AVERAGE;

struct Input {
    points: Vec<DesignPoint>,
    seed_points: Vec<DesignPoint>,
    source_point: usize,
    mc_seed: u64,
}

struct Output {
    sweep: OpTimeSweep,
    report: AttributionReport,
    regret: Vec<f64>,
    source: MonteCarloSummary,
}

pub struct Uncertainty {
    inputs: Vec<Input>,
    counts: Vec<f64>,
    sources: (ConstantCi, TrendCi, SeasonalCi),
    regret_samples: usize,
    source_samples: usize,
    configs: usize,
    expected: Vec<u64>,
}

fn fingerprint(out: &Output) -> u64 {
    let mut fp = Fingerprint::default();
    push_sweep(&mut fp, &out.sweep);
    for c in &out.report.configs {
        fp.f64(c.embodied);
        fp.f64(c.delay);
        c.operational.iter().for_each(|&v| fp.f64(v));
        c.tcdp.iter().for_each(|&v| fp.f64(v));
    }
    for total in &out.report.totals {
        fp.f64(total.embodied_delay);
        fp.f64(total.operational_delay);
        fp.f64(total.tcdp);
    }
    out.regret.iter().for_each(|&r| fp.f64(r));
    let s = out.source;
    fp.word(s.samples as u64);
    [s.mean, s.std_dev, s.min, s.max]
        .iter()
        .for_each(|&v| fp.f64(v));
    fp.finish()
}

impl Uncertainty {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (pool, shapes, variants, regret_samples, source_samples) = match scale {
            Scale::Full => (4, 1_000, 4, 12_000, 150_000),
            Scale::Small => (2, 20, 2, 300, 2_000),
        };
        let model = EmbodiedModel::default();
        let suite = Task::evaluation_suite();
        let seed_space = space::design_space();
        let mut rng = Rng::new(seed);
        let mut inputs = Vec::with_capacity(pool);
        for k in 0..pool {
            let task = &suite[(k + rng.below(suite.len())) % suite.len()];
            let configs = design_space(&mut rng, shapes, variants);
            let points = evaluate_space(&configs, task, &model).map_err(|e| e.to_string())?;
            let seed_points =
                evaluate_space(&seed_space, task, &model).map_err(|e| e.to_string())?;
            inputs.push(Input {
                source_point: rng.below(seed_points.len()),
                points,
                seed_points,
                mc_seed: rng.next_u64(),
            });
        }
        let mut workload = Self {
            inputs,
            counts: log_sweep(0, 14, 8),
            sources: (
                ConstantCi::new(CI),
                TrendCi::new(CI, 0.10).map_err(|e| e.to_string())?,
                SeasonalCi::solar_rich(),
            ),
            regret_samples,
            source_samples,
            configs: shapes * variants,
            expected: Vec::new(),
        };
        let mut untraced = Tracer::new(false);
        workload.expected = (0..pool)
            .map(|k| workload.run(k, &mut untraced).map(|out| fingerprint(&out)))
            .collect::<Result<_, _>>()?;
        Ok(workload)
    }

    fn run(&self, k: usize, t: &mut Tracer) -> Result<Output, String> {
        let input = &self.inputs[k];
        let err = |e: cordoba_carbon::CarbonError| e.to_string();
        let sources: [&dyn CiIntegral; 3] = [&self.sources.0, &self.sources.1, &self.sources.2];
        let regret_spec = MonteCarloSpec::new(self.regret_samples, input.mc_seed);
        let source_spec = SourceMonteCarloSpec::new(self.source_samples, input.mc_seed);
        let point = &input.seed_points[input.source_point];
        if !t.on() {
            let sweep =
                OpTimeSweep::new(input.points.clone(), self.counts.clone(), CI).map_err(err)?;
            let report = AttributionReport::from_sweep(&sweep).map_err(err)?;
            report.check_against(&sweep)?;
            let regret = monte_carlo_regret(&input.seed_points, &regret_spec).map_err(err)?;
            let source = monte_carlo_source_tcdp(point, &sources, &source_spec).map_err(err)?;
            return Ok(Output {
                sweep,
                report,
                regret,
                source,
            });
        }
        let sweep = sweep_traced(input.points.clone(), &self.counts, CI, t)?;
        let report = t.time("core.attrib.ms", || {
            let report = AttributionReport::from_sweep(&sweep).map_err(err)?;
            report.check_against(&sweep)?;
            Ok::<_, String>(report)
        })?;
        let regret = t
            .time("core.uncertainty.regret.ms", || {
                monte_carlo_regret(&input.seed_points, &regret_spec)
            })
            .map_err(err)?;
        let source = t
            .time("core.uncertainty.source.ms", || {
                monte_carlo_source_tcdp(point, &sources, &source_spec)
            })
            .map_err(err)?;
        Ok(Output {
            sweep,
            report,
            regret,
            source,
        })
    }
}

impl Workload for Uncertainty {
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let k = i % self.inputs.len();
        t.begin();
        let out = self.run(k, t);
        t.end();
        check("uncertainty", i, fingerprint(&out?), self.expected[k])
    }

    fn reference(&self) -> u64 {
        combine(&self.expected)
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("point_sets", self.inputs.len()),
            ("points_per_set", self.configs),
            ("task_counts", self.counts.len()),
            ("regret_points", space::design_space().len()),
            ("regret_samples", self.regret_samples),
            ("source_samples", self.source_samples),
            ("sources", 3),
        ]
    }
}
