//! `store_mixed`: store-bound, reads beside writes; the kernel simulator
//! never runs inside an op.
//!
//! Setup publishes the `eval_space`, `op_time_sweep` and `beta_sweep`
//! entries of every pooled space into a store the benchmark owns. Each op
//! reads the space's points and β-sweep back (warm `*_stored` calls),
//! then republishes the sweep stage: it evicts `op_time_sweep`, calls
//! `op_time_sweep_stored` once cold (recompute, encode, write) and once
//! warm (read, decode). Every restored result must equal the fresh
//! computation made in setup.
//
// cordoba-lint: allow-file(lossy-cast) —
// byte counts become f64 per-op means.

use super::{check, combine, push_beta, push_sweep, Workload};
use crate::gen::{design_space, Rng};
use crate::trace::{stopwatch, Tracer};
use crate::{Fingerprint, Scale};
use cordoba::dse::{evaluate_space, log_sweep, OpTimeSweep};
use cordoba::lagrange::BetaSweep;
use cordoba::metrics::DesignPoint;
use cordoba::store::{
    beta_sweep_key, beta_sweep_stored, evaluate_space_key, evaluate_space_stored,
    op_time_sweep_key, op_time_sweep_stored, KIND_BETA_SWEEP, KIND_EVAL_SPACE, KIND_OP_TIME_SWEEP,
};
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::CarbonIntensity;
use cordoba_store::{Store, StoreKey};
use cordoba_workloads::task::Task;
use std::path::Path;

const CI: CarbonIntensity = grids::US_AVERAGE;

struct Input {
    space: Vec<AcceleratorConfig>,
    task: Task,
}

pub struct StoreMixed {
    inputs: Vec<Input>,
    model: EmbodiedModel,
    counts: Vec<f64>,
    store: Store,
    expected: Vec<u64>,
    shapes: usize,
    variants: usize,
}

fn fingerprint(cold: &OpTimeSweep, warm: &OpTimeSweep, beta: &BetaSweep) -> u64 {
    let mut fp = Fingerprint::default();
    push_sweep(&mut fp, cold);
    push_sweep(&mut fp, warm);
    push_beta(&mut fp, beta);
    fp.finish()
}

/// Bytes of an entry payload as written (one newline per line).
fn payload_bytes(lines: &[String]) -> f64 {
    lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64
}

impl StoreMixed {
    pub fn setup(seed: u64, scale: Scale, work: &Path) -> Result<Self, String> {
        let (pool, shapes, variants) = match scale {
            Scale::Full => (3, 2_500, 4),
            Scale::Small => (2, 30, 3),
        };
        let store = Store::open(work.join("store")).map_err(|e| e.to_string())?;
        let model = EmbodiedModel::default();
        let counts = log_sweep(4, 11, 2);
        let suite = Task::evaluation_suite();
        let mut rng = Rng::new(seed);
        let mut inputs = Vec::with_capacity(pool);
        let mut expected = Vec::with_capacity(pool);
        for k in 0..pool {
            let space = design_space(&mut rng, shapes, variants);
            let task = suite[(k + rng.below(suite.len())) % suite.len()].clone();
            let fresh = evaluate_space(&space, &task, &model).map_err(|e| e.to_string())?;
            let beta = BetaSweep::run(&fresh);
            let sweep = OpTimeSweep::new(fresh, counts.clone(), CI).map_err(|e| e.to_string())?;
            expected.push(fingerprint(&sweep, &sweep, &beta));
            let points =
                evaluate_space_stored(&space, &task, &model, &store).map_err(|e| e.to_string())?;
            let _ = beta_sweep_stored(&points, &store);
            op_time_sweep_stored(points, counts.clone(), CI, &store).map_err(|e| e.to_string())?;
            inputs.push(Input { space, task });
        }
        Ok(Self {
            inputs,
            model,
            counts,
            store,
            expected,
            shapes,
            variants,
        })
    }

    fn plain(&self, input: &Input) -> Result<(OpTimeSweep, OpTimeSweep, BetaSweep), String> {
        let points = evaluate_space_stored(&input.space, &input.task, &self.model, &self.store)
            .map_err(|e| e.to_string())?;
        let beta = beta_sweep_stored(&points, &self.store);
        self.store.evict(Some(KIND_OP_TIME_SWEEP));
        let cold = op_time_sweep_stored(points.clone(), self.counts.clone(), CI, &self.store)
            .map_err(|e| e.to_string())?;
        let warm = op_time_sweep_stored(points, self.counts.clone(), CI, &self.store)
            .map_err(|e| e.to_string())?;
        Ok((cold, warm, beta))
    }

    /// Probes `kind` at the key `key` derives with a timed `Store::get`
    /// (`store.get.ms`), counting the hit and the bytes read. Deriving
    /// the key is part of the probe, off the op clock.
    fn probe_get(&self, kind: &str, key: impl FnOnce() -> StoreKey, t: &mut Tracer) -> (bool, f64) {
        let (lines, get_ns) = t.probe(|t| {
            let key = key();
            t.time("store.get.ms", || self.store.get(kind, key))
        });
        if let Some(lines) = &lines {
            t.count("store.bytes_read", payload_bytes(lines));
        }
        (lines.is_some(), get_ns)
    }

    fn traced(
        &self,
        input: &Input,
        t: &mut Tracer,
    ) -> Result<(OpTimeSweep, OpTimeSweep, BetaSweep), String> {
        let mut hits = 0u8;
        // Warm stage 1: the space's points. decode = warm call − get.
        let eval_key = || evaluate_space_key(&input.space, &input.task, &self.model);
        let (hit, get_ns) = self.probe_get(KIND_EVAL_SPACE, eval_key, t);
        hits += u8::from(hit);
        let (points, warm_ns) = stopwatch(|| {
            evaluate_space_stored(&input.space, &input.task, &self.model, &self.store)
        });
        let points = points.map_err(|e| e.to_string())?;
        t.add("store.decode.ms", warm_ns - get_ns);
        let (recompute_ns, _) = t.probe(|_| {
            stopwatch(|| drop(evaluate_space(&input.space, &input.task, &self.model))).1
        });
        t.ratio(
            "store.eval_space.decode_over_recompute",
            warm_ns - get_ns,
            recompute_ns,
        );

        // Warm stage 2: the β-sweep.
        let (hit, get_ns) = self.probe_get(KIND_BETA_SWEEP, || beta_sweep_key(&points), t);
        hits += u8::from(hit);
        let (beta, warm_ns) = stopwatch(|| beta_sweep_stored(&points, &self.store));
        t.add("store.decode.ms", warm_ns - get_ns);

        t.time("store.evict.ms", || {
            self.store.evict(Some(KIND_OP_TIME_SWEEP))
        });

        // Cold sweep stage: encode = cold call − miss lookup − recompute − put.
        let sweep_key = || op_time_sweep_key(&points, &self.counts, CI);
        let (hit, miss_ns) = self.probe_get(KIND_OP_TIME_SWEEP, sweep_key, t);
        hits += u8::from(hit);
        let input_points = points.clone();
        let (cold, cold_ns) =
            stopwatch(|| op_time_sweep_stored(input_points, self.counts.clone(), CI, &self.store));
        let cold = cold.map_err(|e| e.to_string())?;
        let (recompute_ns, put_ns) = self.probe_cold_parts(&points, t)?;
        t.add("store.encode.ms", cold_ns - miss_ns - recompute_ns - put_ns);

        // Warm sweep stage.
        let (hit, get_ns) = self.probe_get(KIND_OP_TIME_SWEEP, sweep_key, t);
        hits += u8::from(hit);
        let (warm, warm_ns) =
            stopwatch(|| op_time_sweep_stored(points, self.counts.clone(), CI, &self.store));
        let warm = warm.map_err(|e| e.to_string())?;
        t.add("store.decode.ms", warm_ns - get_ns);
        t.ratio(
            "store.op_time_sweep.decode_over_recompute",
            warm_ns - get_ns,
            recompute_ns,
        );
        t.ratio("store.hit_ratio", f64::from(hits), 4.0);
        Ok((cold, warm, beta))
    }

    /// Splits a cold `op_time_sweep_stored` call: a fresh recompute
    /// (`core.op_time_sweep.ms`) and a rewrite of the entry it published
    /// (`store.put.ms`), both off the op clock. Returns their times.
    fn probe_cold_parts(
        &self,
        points: &[DesignPoint],
        t: &mut Tracer,
    ) -> Result<(f64, f64), String> {
        let (recompute, recompute_ns) = t.probe(|t| {
            let fresh_input = points.to_vec();
            let counts = self.counts.clone();
            t.time("core.op_time_sweep.ms", || {
                OpTimeSweep::new(fresh_input, counts, CI)
            })
        });
        recompute.map_err(|e| e.to_string())?;
        let (written, put_ns) = t.probe(|t| {
            let key = op_time_sweep_key(points, &self.counts, CI);
            let lines = self.store.get(KIND_OP_TIME_SWEEP, key)?;
            let put = t.time("store.put.ms", || {
                self.store.put(KIND_OP_TIME_SWEEP, key, &lines)
            });
            Some((lines, put))
        });
        let (lines, put) = written.ok_or("cold op_time_sweep_stored published no entry")?;
        put.map_err(|e| e.to_string())?;
        t.count("store.bytes_written", payload_bytes(&lines));
        Ok((recompute_ns, put_ns))
    }
}

impl Workload for StoreMixed {
    fn op(&mut self, i: usize, t: &mut Tracer) -> Result<(), String> {
        let k = i % self.inputs.len();
        let input = &self.inputs[k];
        t.begin();
        let result = if t.on() {
            self.traced(input, t)
        } else {
            self.plain(input)
        };
        t.end();
        let (cold, warm, beta) = result?;
        check(
            "store_mixed",
            i,
            fingerprint(&cold, &warm, &beta),
            self.expected[k],
        )
    }

    fn reference(&self) -> u64 {
        combine(&self.expected)
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("spaces", self.inputs.len()),
            ("configs_per_space", self.shapes * self.variants),
            ("task_counts", self.counts.len()),
        ]
    }
}
