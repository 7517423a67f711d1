//! `dse_cold`: the paper-style sweep a user runs, kernel-bound.
//!
//! Each op characterizes one generated space for the five paper tasks
//! with `evaluate_space_multi` (fresh `EmbodiedCache`, no store), then
//! runs the operational-time sweep and the β-sweep per task. The
//! reference is computed in setup through the single-task
//! `evaluate_space`, so every op also cross-checks the multi-task path.

use super::{
    beta_traced, check, combine, evaluate_traced, push_beta, push_sweep, sweep_traced, Workload,
};
use crate::gen::{design_space, Rng};
use crate::trace::Tracer;
use crate::{Fingerprint, Scale};
use cordoba::dse::{evaluate_space, evaluate_space_multi, log_sweep, OpTimeSweep};
use cordoba::lagrange::BetaSweep;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::CarbonIntensity;
use cordoba_workloads::task::Task;

const CI: CarbonIntensity = grids::US_AVERAGE;

pub struct DseCold {
    spaces: Vec<Vec<AcceleratorConfig>>,
    tasks: Vec<Task>,
    model: EmbodiedModel,
    counts: Vec<f64>,
    expected: Vec<u64>,
    shapes: usize,
    variants: usize,
}

fn fingerprint(results: &[(OpTimeSweep, BetaSweep)]) -> u64 {
    let mut fp = Fingerprint::default();
    for (sweep, beta) in results {
        push_sweep(&mut fp, sweep);
        push_beta(&mut fp, beta);
    }
    fp.finish()
}

impl DseCold {
    pub fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (pool, shapes, variants) = match scale {
            Scale::Full => (3, 2_500, 4),
            Scale::Small => (2, 200, 3),
        };
        let mut rng = Rng::new(seed);
        let spaces: Vec<_> = (0..pool)
            .map(|_| design_space(&mut rng, shapes, variants))
            .collect();
        let mut workload = Self {
            spaces,
            tasks: Task::evaluation_suite(),
            model: EmbodiedModel::default(),
            counts: log_sweep(4, 11, 2),
            expected: Vec::new(),
            shapes,
            variants,
        };
        for space in &workload.spaces {
            let results = workload
                .tasks
                .iter()
                .map(|task| {
                    let points =
                        evaluate_space(space, task, &workload.model).map_err(|e| e.to_string())?;
                    let beta = BetaSweep::run(&points);
                    let sweep = OpTimeSweep::new(points, workload.counts.clone(), CI)
                        .map_err(|e| e.to_string())?;
                    Ok((sweep, beta))
                })
                .collect::<Result<Vec<_>, String>>()?;
            workload.expected.push(fingerprint(&results));
        }
        Ok(workload)
    }

    fn plain(&self, space: &[AcceleratorConfig]) -> Result<Vec<(OpTimeSweep, BetaSweep)>, String> {
        let per_task =
            evaluate_space_multi(space, &self.tasks, &self.model).map_err(|e| e.to_string())?;
        per_task
            .into_iter()
            .map(|points| {
                let beta = BetaSweep::run(&points);
                let sweep =
                    OpTimeSweep::new(points, self.counts.clone(), CI).map_err(|e| e.to_string())?;
                Ok((sweep, beta))
            })
            .collect()
    }

    fn traced(
        &self,
        space: &[AcceleratorConfig],
        t: &mut Tracer,
    ) -> Result<Vec<(OpTimeSweep, BetaSweep)>, String> {
        let per_task = evaluate_traced(space, &self.tasks, &self.model, t)?;
        per_task
            .into_iter()
            .map(|points| {
                let beta = beta_traced(&points, t);
                let sweep = sweep_traced(points, &self.counts, CI, t)?;
                Ok((sweep, beta))
            })
            .collect()
    }
}

impl Workload for DseCold {
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let k = i % self.spaces.len();
        let space = &self.spaces[k];
        t.begin();
        let results = if t.on() {
            self.traced(space, t)
        } else {
            self.plain(space)
        };
        t.end();
        check("dse_cold", i, fingerprint(&results?), self.expected[k])
    }

    fn reference(&self) -> u64 {
        combine(&self.expected)
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("spaces", self.spaces.len()),
            ("configs_per_space", self.shapes * self.variants),
            ("shapes_per_space", self.shapes),
            ("tuning_variants", self.variants),
            ("tasks", self.tasks.len()),
            ("task_counts", self.counts.len()),
        ]
    }
}
