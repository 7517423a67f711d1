//! The supervised runners behind design-space evaluation and the
//! operational-time sweep.
//!
//! The framework-layer face of the execution-supervision substrate in
//! [`cordoba_par::supervise`]: each pipeline has exactly one engine, which
//! accepts a [`Supervisor`] and a worker-thread count and, instead of
//! running all-or-nothing, keeps a *partial result keyed by input index*
//! when the supervisor stops it — plus enough state to resume later and
//! land on the exact bits an uninterrupted run would have produced. The
//! plain entry points ([`evaluate_space`](crate::dse::evaluate_space),
//! [`OpTimeSweep::new`]) are these runners under
//! [`Supervisor::unbounded`] at [`cordoba_par::effective_threads`].
//!
//! * [`SupervisedEval`] — design-space characterization with
//!   per-configuration outcomes (done / failed / pending), advanced in
//!   place by [`SupervisedEval::advance`]; the caller picks the failure
//!   policy by its finisher: [`SupervisedEval::into_points`] (strict) or
//!   [`SupervisedEval::into_resilient`] (quarantine);
//! * [`SweepCheckpoint`] — the Fig. 8 tCDP grid with row-level
//!   checkpointing: [`SweepCheckpoint::resume`] computes the pending rows,
//!   and an interrupted sweep yields a [`PartialSweep`] whose checkpoint
//!   serializes to a deterministic text format
//!   ([`SweepCheckpoint::to_text`]) the CLI writes to disk and resumes
//!   from (`dse --deadline … --checkpoint …` / `dse --resume …`).
//!
//! # Determinism argument
//!
//! Every work unit (one configuration, one sweep row) is a pure function
//! of its input index; supervision only decides *whether* a unit runs now,
//! later, or never — never *how*. Completed units are stored by index and
//! merged in index order, and `f64`s cross the checkpoint boundary as
//! exact bit patterns (`f64::to_bits` hex), so
//! `interrupt-at-any-point + resume == uninterrupted` bit-for-bit at any
//! thread count. The property suite in `crates/robust` pins this.

use crate::dse::{EvalBatch, EvalFailure, OpTimeSweep, ResilientEval, EVAL_NS_PER_CONFIG};
use crate::error::CoreError;
use crate::metrics::{DesignPoint, OperationalContext};
use cordoba_accel::config::AcceleratorConfig;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_obs::{Event, Histogram};
use cordoba_par::supervise::{Outcome, StopReason, SupervisedMap, Supervisor};
use cordoba_par::CostHint;
use cordoba_store::{parse_hex_f64, push_hex_f64};
use cordoba_workloads::task::Task;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Wall-clock distribution of [`SupervisedEval::advance`] calls.
static EVALUATE_SPACE_NS: Histogram = Histogram::new("core/evaluate_space_ns");
/// Wall-clock distribution of sweep-engine runs ([`SweepCheckpoint::resume`]
/// and [`OpTimeSweep::new`]).
static OP_TIME_SWEEP_NS: Histogram = Histogram::new("core/op_time_sweep_ns");

/// Estimated cost of one tCDP matrix entry (one `DesignPoint::tcdp` call);
/// a sweep row's hint is this times the point count. bench_smoke
/// `--quick`'s `dse/op_time_sweep_121x29/threads=1` fills 3,509 cells in
/// 12,937–16,347 ns (three runs on a shared 2-vCPU x86-64 host, median
/// 15,162), 3.7–4.7 ns each, cloning the points included.
const TCDP_NS_PER_POINT: u64 = 4;

/// A design-space evaluation in flight: one slot per configuration, filled
/// under a [`Supervisor`] by [`advance`](Self::advance), which both starts
/// and resumes the run.
///
/// The run borrows its configurations when it is built and prepares the
/// batch state (SoA simulator inputs, task plan, embodied-carbon memo)
/// once, so an advance cannot mix configurations of different spaces,
/// tasks, or carbon models. A configuration that returns an error or
/// panics is recorded as failed; the supervised map isolates the panic and
/// the rest of the space is still evaluated. A failed configuration is not
/// retried by a later advance.
///
/// The two consuming finishers complete any pending configurations under
/// [`Supervisor::unbounded`] at [`cordoba_par::effective_threads`] and
/// apply a failure policy: [`into_points`](Self::into_points) is strict,
/// [`into_resilient`](Self::into_resilient) quarantines.
pub struct SupervisedEval<'a> {
    batch: EvalBatch<'a>,
    /// One outcome per configuration, [`Outcome::Skipped`] while pending.
    slots: SupervisedMap<Result<DesignPoint, CoreError>>,
}

impl fmt::Debug for SupervisedEval<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisedEval")
            .field("attempted", &self.attempted())
            .field("total", &self.total())
            .field("stop", &self.stop())
            .finish_non_exhaustive()
    }
}

impl<'a> SupervisedEval<'a> {
    /// An evaluation of `configs` for `task` with nothing attempted yet.
    #[must_use]
    pub fn new(configs: &'a [AcceleratorConfig], task: &Task, embodied: &EmbodiedModel) -> Self {
        Self {
            batch: EvalBatch::new(configs, std::slice::from_ref(task), embodied),
            slots: SupervisedMap::new(configs.len()),
        }
    }

    /// Attempts the pending configurations under `sup` with `threads`
    /// workers (1 = the exact sequential path), checking the stop flag
    /// before every configuration and merging by input index. Completed
    /// slots are bit-identical at every thread count, so any sequence of
    /// interrupted advances ends on an uninterrupted run's bits.
    pub fn advance(&mut self, sup: &Supervisor, threads: usize) {
        let _span = cordoba_obs::span_timed("core/evaluate_space", &EVALUATE_SPACE_NS);
        let batch = &self.batch;
        self.slots.advance(
            threads,
            CostHint::per_item_ns(EVAL_NS_PER_CONFIG),
            sup,
            |idx| batch.design_point(idx),
        );
    }

    /// Why the last advance stopped early, or `None` if it was not
    /// interrupted.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.slots.stop()
    }

    /// `true` when every configuration was attempted (done or failed).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.slots.is_complete()
    }

    /// Indices of configurations not yet attempted, ascending.
    #[must_use]
    pub fn pending_indices(&self) -> Vec<usize> {
        self.slots.pending_indices()
    }

    /// Configurations attempted so far (done + failed).
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.slots.attempted()
    }

    /// Total configurations in the evaluation.
    #[must_use]
    pub fn total(&self) -> usize {
        self.batch.configs().len()
    }

    /// Attempted fraction in `[0, 1]` (1.0 for an empty space).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        self.attempted() as f64 / self.total() as f64
    }

    /// Strict finisher: every design point in input order.
    ///
    /// # Errors
    ///
    /// Returns the error of the first (in input order) invalid
    /// configuration (see [`accel_design_point`](crate::dse::accel_design_point)).
    ///
    /// # Panics
    ///
    /// Re-raises the first (in input order) panicking configuration's
    /// panic on the caller ([`SupervisedMap::into_values`]).
    pub fn into_points(mut self) -> Result<Vec<DesignPoint>, CoreError> {
        self.complete();
        self.slots.into_values().into_iter().collect()
    }

    /// Quarantine finisher: the points that evaluated cleanly plus one
    /// [`EvalFailure`] per failed or panicked configuration, both in input
    /// order, recording a quarantine event per failure.
    #[must_use]
    pub fn into_resilient(mut self) -> ResilientEval {
        self.complete();
        let mut result = ResilientEval {
            points: Vec::with_capacity(self.total()),
            failures: Vec::new(),
        };
        for (config, slot) in self.batch.configs().iter().zip(self.slots.into_outcomes()) {
            let error = match slot {
                Outcome::Done(Ok(point)) => {
                    result.points.push(point);
                    continue;
                }
                Outcome::Done(Err(error)) => error,
                Outcome::Panicked(message) => CoreError::Panicked(message),
                // A completed run has no pending slot.
                Outcome::Skipped => continue,
            };
            cordoba_obs::record(&Event::Quarantine);
            result.failures.push(EvalFailure {
                name: config.shared_name().clone(),
                error,
            });
        }
        result
    }

    /// Attempts whatever is still pending under a supervisor that never
    /// trips.
    fn complete(&mut self) {
        if !self.is_complete() {
            self.advance(&Supervisor::unbounded(), cordoba_par::effective_threads());
        }
    }
}

/// Outcome of a supervised operational-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedSweep {
    /// Every row was computed; the sweep is bit-identical to
    /// [`OpTimeSweep::new`] on the same inputs.
    Complete(OpTimeSweep),
    /// The supervisor stopped the sweep; the partial result can be
    /// serialized and resumed.
    Partial(PartialSweep),
}

impl SupervisedSweep {
    /// The completed sweep, if the run finished.
    #[must_use]
    pub fn complete(self) -> Option<OpTimeSweep> {
        match self {
            Self::Complete(sweep) => Some(sweep),
            Self::Partial(_) => None,
        }
    }

    /// The partial result, if the run was interrupted.
    #[must_use]
    pub fn partial(self) -> Option<PartialSweep> {
        match self {
            Self::Complete(_) => None,
            Self::Partial(partial) => Some(partial),
        }
    }
}

/// An interrupted sweep: the checkpoint holding every computed row plus
/// the reason the run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSweep {
    /// Resumable sweep state (serialize with [`SweepCheckpoint::to_text`]).
    pub checkpoint: SweepCheckpoint,
    /// Why the sweep stopped.
    pub reason: StopReason,
}

impl PartialSweep {
    /// A one-paragraph human-readable coverage report for CLI output and
    /// logs.
    #[must_use]
    pub fn coverage_report(&self) -> String {
        self.checkpoint.coverage_report()
    }
}

/// Resumable state of an [`OpTimeSweep`]: the validated inputs plus every
/// tCDP row already computed, keyed by row index.
///
/// [`SweepCheckpoint::new`] is a sweep with no row computed yet, and
/// [`resume`](Self::resume) is the one engine that fills a tCDP matrix:
/// [`OpTimeSweep::new`] and [`op_time_sweep_supervised`] are thin wrappers
/// over it.
///
/// The serialized form ([`to_text`](Self::to_text) /
/// [`from_text`](Self::from_text)) is a line-oriented text format in which
/// every `f64` is stored as the 16-hex-digit big-endian rendering of its
/// IEEE-754 bit pattern, so a round-tripped checkpoint resumes to results
/// bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    /// `contexts[n]` is the validated context of `task_counts[n]`.
    contexts: Vec<OperationalContext>,
    /// Flat row-major tCDP matrix; row `n` holds results once row `n` of
    /// `rows` is done and zeros before.
    tcdp: Vec<f64>,
    /// One slot per row; the rows themselves are written in place into
    /// `tcdp`.
    rows: SupervisedMap<()>,
    /// Why the originating run stopped.
    reason: StopReason,
}

/// Magic first line of the checkpoint format (versioned).
const CHECKPOINT_HEADER: &str = "cordoba-sweep-checkpoint v1";

/// Parses one [`push_hex_f64`]-rendered token back to the exact same
/// `f64`: exactly 16 hex digits, no sign and no short forms.
fn parse_hex(token: &str, what: &str) -> Result<f64, CoreError> {
    parse_hex_f64(token)
        .ok_or_else(|| CoreError::Supervision(format!("checkpoint: bad {what} value `{token}`")))
}

impl SweepCheckpoint {
    /// A sweep of `points` over `task_counts` at `ci_use` with no row
    /// computed yet. Every input is checked here, so the rows themselves
    /// cannot fail.
    ///
    /// # Errors
    ///
    /// Returns an error if `points` or `task_counts` is empty, a task count
    /// is not positive, or `ci_use` is negative (the first invalid count in
    /// input order).
    pub fn new(
        points: Vec<DesignPoint>,
        task_counts: Vec<f64>,
        ci_use: CarbonIntensity,
    ) -> Result<Self, CarbonError> {
        if points.is_empty() {
            return Err(CarbonError::Empty {
                what: "design points",
            });
        }
        if task_counts.is_empty() {
            return Err(CarbonError::Empty {
                what: "task counts",
            });
        }
        let contexts = task_counts
            .iter()
            .map(|&n| OperationalContext::new(n, ci_use))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            tcdp: vec![0.0; points.len() * task_counts.len()],
            rows: SupervisedMap::new(task_counts.len()),
            points,
            task_counts,
            ci_use,
            contexts,
            reason: StopReason::Cancelled,
        })
    }

    /// The candidate designs.
    #[must_use]
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// The operational-time axis.
    #[must_use]
    pub fn task_counts(&self) -> &[f64] {
        &self.task_counts
    }

    /// The use-phase carbon intensity.
    #[must_use]
    pub fn ci_use(&self) -> CarbonIntensity {
        self.ci_use
    }

    /// Why the originating run stopped.
    #[must_use]
    pub fn reason(&self) -> StopReason {
        self.reason
    }

    /// Rows already computed.
    #[must_use]
    pub fn completed_rows(&self) -> usize {
        self.rows.attempted()
    }

    /// Total rows in the sweep.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.task_counts.len()
    }

    /// Completed fraction in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.completed_rows() as f64 / self.total_rows() as f64
    }

    /// Indices of rows still pending, ascending.
    #[must_use]
    pub fn pending_rows(&self) -> Vec<usize> {
        self.rows.pending_indices()
    }

    /// A one-paragraph human-readable coverage report.
    #[must_use]
    pub fn coverage_report(&self) -> String {
        format!(
            "sweep interrupted ({}): {}/{} rows complete ({:.1}%), {} designs",
            self.reason,
            self.completed_rows(),
            self.total_rows(),
            self.coverage() * 100.0,
            self.points.len(),
        )
    }

    /// Computes the pending rows under `sup` with `threads` workers (1 =
    /// the exact sequential path) and merges by row index. With a
    /// supervisor that never trips this always completes, and the
    /// [`OpTimeSweep`] is bit-identical to an uninterrupted run at any
    /// thread count; an interrupted run returns the checkpoint to resume.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Panicked`] with the first (in row order)
    /// panicking row's message.
    pub fn resume(
        mut self,
        sup: &Supervisor,
        threads: usize,
    ) -> Result<SupervisedSweep, CoreError> {
        self.fill(sup, threads);
        if let Some(message) = self.rows.first_panic() {
            return Err(CoreError::Panicked(message.to_owned()));
        }
        match self.rows.stop() {
            None => Ok(SupervisedSweep::Complete(self.into_sweep())),
            Some(reason) => {
                self.reason = reason;
                Ok(SupervisedSweep::Partial(PartialSweep {
                    checkpoint: self,
                    reason,
                }))
            }
        }
    }

    /// Completes the sweep under a supervisor that never trips at
    /// [`cordoba_par::effective_threads`]; a panicking row re-raises on the
    /// caller.
    pub(crate) fn finish(mut self) -> OpTimeSweep {
        self.fill(&Supervisor::unbounded(), cordoba_par::effective_threads());
        self.into_sweep()
    }

    /// The sweep engine: writes every pending row in place into the flat
    /// matrix (no per-row allocation and no merge copy, sequential or
    /// parallel) under the supervised map's stop checks and per-row panic
    /// isolation.
    fn fill(&mut self, sup: &Supervisor, threads: usize) {
        let _span = cordoba_obs::span_timed("core/op_time_sweep", &OP_TIME_SWEEP_NS);
        let (points, contexts) = (&self.points, &self.contexts);
        // Each row is handed out once, behind its own uncontended lock, so
        // workers write disjoint rows through a shared slice. A row is
        // locked at most once, so no lock is ever seen poisoned.
        let matrix: Vec<Mutex<&mut [f64]>> = self
            .tcdp
            .chunks_exact_mut(points.len())
            .map(Mutex::new)
            .collect();
        let hint = CostHint::per_item_ns(TCDP_NS_PER_POINT.saturating_mul(points.len() as u64));
        self.rows.advance(threads, hint, sup, |n| {
            let ctx = &contexts[n];
            let mut row = matrix[n].lock().unwrap_or_else(PoisonError::into_inner);
            for (cell, p) in row.iter_mut().zip(points) {
                *cell = p.tcdp(ctx).value();
            }
        });
    }

    /// The completed sweep; callers have filled every row. Re-raises the
    /// first panicked row on the caller.
    fn into_sweep(self) -> OpTimeSweep {
        let _: Vec<()> = self.rows.into_values();
        OpTimeSweep {
            points: self.points,
            task_counts: self.task_counts,
            ci_use: self.ci_use,
            tcdp: self.tcdp,
        }
    }

    /// Serializes the checkpoint to its deterministic text form and
    /// records a checkpoint-written supervision event.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // Writing to a String cannot fail; the let-bindings keep clippy's
        // unused-result lint satisfied without unwraps.
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "reason {}", self.reason.token());
        out.push_str("ci_use ");
        push_hex_f64(&mut out, self.ci_use.value());
        out.push('\n');
        let _ = writeln!(out, "task_counts {}", self.task_counts.len());
        for count in &self.task_counts {
            out.push_str("c ");
            push_hex_f64(&mut out, *count);
            out.push('\n');
        }
        let _ = writeln!(out, "points {}", self.points.len());
        for p in &self.points {
            out.push('p');
            for v in [
                p.delay.value(),
                p.energy.value(),
                p.embodied.value(),
                p.area.value(),
            ] {
                out.push(' ');
                push_hex_f64(&mut out, v);
            }
            let _ = writeln!(out, " {}", p.name);
        }
        let _ = writeln!(out, "rows {}", self.completed_rows());
        let rows = self
            .tcdp
            .chunks_exact(self.points.len())
            .zip(self.rows.outcomes());
        for (idx, (values, _)) in rows
            .enumerate()
            .filter(|(_, (_, row))| row.done().is_some())
        {
            let _ = write!(out, "r {idx}");
            for v in values {
                out.push(' ');
                push_hex_f64(&mut out, *v);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "end");
        cordoba_obs::record(&Event::CheckpointWritten {
            completed: u64::try_from(self.completed_rows()).unwrap_or(u64::MAX),
        });
        out
    }

    /// Parses and validates a checkpoint written by
    /// [`to_text`](Self::to_text), recording a checkpoint-restored
    /// supervision event on success.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Supervision`] for any structural problem —
    /// wrong header, truncated sections, malformed values, out-of-range or
    /// duplicate row indices, row width not matching the point count — and
    /// [`CoreError::Carbon`] when a restored design point fails
    /// [`DesignPoint::new`] validation or the inputs fail
    /// [`SweepCheckpoint::new`].
    pub fn from_text(text: &str) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::Supervision(format!("checkpoint: {msg}"));
        let mut lines = text.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| bad(format!("truncated before {what}")))
        };
        if next("header")? != CHECKPOINT_HEADER {
            return Err(bad("unrecognized header".to_string()));
        }
        let reason_line = next("reason")?;
        let reason = reason_line
            .strip_prefix("reason ")
            .and_then(StopReason::from_token)
            .ok_or_else(|| bad(format!("bad reason line `{reason_line}`")))?;
        let ci_line = next("ci_use")?;
        let ci_hex = ci_line
            .strip_prefix("ci_use ")
            .ok_or_else(|| bad(format!("bad ci_use line `{ci_line}`")))?;
        let ci_use = CarbonIntensity::new(parse_hex(ci_hex, "ci_use")?);

        let counts_line = next("task_counts")?;
        let n: usize = counts_line
            .strip_prefix("task_counts ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad task_counts line `{counts_line}`")))?;
        if n == 0 {
            return Err(bad("empty task-count axis".to_string()));
        }
        let mut task_counts = Vec::with_capacity(n);
        for _ in 0..n {
            let line = next("task count")?;
            let hex = line
                .strip_prefix("c ")
                .ok_or_else(|| bad(format!("bad count line `{line}`")))?;
            task_counts.push(parse_hex(hex, "task count")?);
        }

        let points_line = next("points")?;
        let m: usize = points_line
            .strip_prefix("points ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad points line `{points_line}`")))?;
        if m == 0 {
            return Err(bad("empty design-point list".to_string()));
        }
        let mut points = Vec::with_capacity(m);
        for _ in 0..m {
            let line = next("design point")?;
            // `p <delay> <energy> <embodied> <area> <name…>`; the name is
            // the verbatim rest of the line, so it may contain spaces.
            let mut tokens = line.splitn(6, ' ');
            let tag = tokens.next();
            let (Some("p"), Some(d), Some(e), Some(emb), Some(area), Some(name)) = (
                tag,
                tokens.next(),
                tokens.next(),
                tokens.next(),
                tokens.next(),
                tokens.next(),
            ) else {
                return Err(bad(format!("bad point line `{line}`")));
            };
            points.push(DesignPoint::new(
                name,
                Seconds::new(parse_hex(d, "delay")?),
                cordoba_carbon::units::Joules::new(parse_hex(e, "energy")?),
                cordoba_carbon::units::GramsCo2e::new(parse_hex(emb, "embodied")?),
                cordoba_carbon::units::SquareCentimeters::new(parse_hex(area, "area")?),
            )?);
        }

        let rows_line = next("rows")?;
        let completed: usize = rows_line
            .strip_prefix("rows ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad rows line `{rows_line}`")))?;
        let mut checkpoint = Self::new(points, task_counts, ci_use)?;
        checkpoint.reason = reason;
        for _ in 0..completed {
            let line = next("row")?;
            let mut tokens = line.split_whitespace();
            if tokens.next() != Some("r") {
                return Err(bad(format!("bad row line `{line}`")));
            }
            let idx: usize = tokens
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("bad row index in `{line}`")))?;
            if idx >= n {
                return Err(bad(format!("row index {idx} out of range (rows: {n})")));
            }
            if checkpoint.rows.outcomes()[idx].done().is_some() {
                return Err(bad(format!("duplicate row index {idx}")));
            }
            let values = tokens
                .map(|tok| parse_hex(tok, "row"))
                .collect::<Result<Vec<f64>, CoreError>>()?;
            if values.len() != m {
                return Err(bad(format!(
                    "row {idx} has {} values, expected {m}",
                    values.len()
                )));
            }
            checkpoint.tcdp[idx * m..(idx + 1) * m].copy_from_slice(&values);
            checkpoint.rows.restore(idx, ());
        }
        if next("end")? != "end" {
            return Err(bad("missing end marker".to_string()));
        }
        cordoba_obs::record(&Event::CheckpointRestored {
            completed: u64::try_from(completed).unwrap_or(u64::MAX),
        });
        Ok(checkpoint)
    }
}

/// Evaluates the Fig. 8 tCDP grid under supervision at
/// [`cordoba_par::effective_threads`]: [`SweepCheckpoint::new`] followed by
/// [`SweepCheckpoint::resume`]. A completed run returns
/// [`SupervisedSweep::Complete`] with a sweep bit-identical to
/// [`OpTimeSweep::new`]; an interrupted run returns a resumable
/// [`PartialSweep`].
///
/// # Errors
///
/// Same input validation as [`OpTimeSweep::new`], plus
/// [`CoreError::Panicked`] when a row computation panics.
pub fn op_time_sweep_supervised(
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<SupervisedSweep, CoreError> {
    SweepCheckpoint::new(points, task_counts, ci_use)?.resume(sup, cordoba_par::effective_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{evaluate_space, log_sweep};
    use cordoba_accel::space::design_space;
    use cordoba_carbon::intensity::grids;

    fn supervised(
        points: Vec<DesignPoint>,
        task_counts: Vec<f64>,
        sup: &Supervisor,
        threads: usize,
    ) -> Result<SupervisedSweep, CoreError> {
        SweepCheckpoint::new(points, task_counts, grids::US_AVERAGE)?.resume(sup, threads)
    }

    fn points() -> Vec<DesignPoint> {
        let configs = design_space();
        evaluate_space(&configs, &Task::ai_5_kernels(), &EmbodiedModel::default()).unwrap()
    }

    #[test]
    fn supervised_eval_matches_resilient_when_unbounded() {
        let configs = design_space();
        let task = Task::xr_5_kernels();
        let embodied = EmbodiedModel::default();
        let strict = evaluate_space(&configs, &task, &embodied).unwrap();
        for threads in [1, 2] {
            let mut eval = SupervisedEval::new(&configs, &task, &embodied);
            eval.advance(&Supervisor::unbounded(), threads);
            assert!(eval.is_complete());
            assert!((eval.coverage() - 1.0).abs() < 1e-12);
            let resilient = eval.into_resilient();
            assert!(resilient.failures.is_empty());
            assert_eq!(resilient.points, strict);
        }
    }

    #[test]
    fn interrupted_eval_resumes_to_identical_bits() {
        let configs = design_space();
        let task = Task::ai_5_kernels();
        let embodied = EmbodiedModel::default();
        let full = evaluate_space(&configs, &task, &embodied).unwrap();
        for trip in [0u64, 1, 40, 120] {
            let mut eval = SupervisedEval::new(&configs, &task, &embodied);
            eval.advance(&Supervisor::tripping_after(trip), 1);
            assert_eq!(eval.stop(), Some(StopReason::Cancelled), "trip {trip}");
            assert_eq!(eval.attempted(), trip as usize, "trip {trip}");
            eval.advance(&Supervisor::unbounded(), 2);
            assert!(eval.is_complete());
            assert_eq!(eval.into_points().unwrap(), full);
        }
    }

    #[test]
    fn supervised_sweep_completes_identically() {
        let pts = points();
        let counts = log_sweep(4, 9, 2);
        let direct = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        let sup = Supervisor::unbounded();
        let run = supervised(pts, counts, &sup, 2)
            .unwrap()
            .complete()
            .unwrap();
        assert_eq!(run, direct);
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly_and_resumes() {
        let pts = points();
        let counts = log_sweep(4, 9, 3);
        let direct = OpTimeSweep::new(pts.clone(), counts.clone(), grids::US_AVERAGE).unwrap();
        for trip in [0u64, 1, 5, 10] {
            let sup = Supervisor::tripping_after(trip);
            let partial = supervised(pts.clone(), counts.clone(), &sup, 1)
                .unwrap()
                .partial()
                .unwrap();
            assert_eq!(partial.checkpoint.completed_rows(), trip as usize);
            assert!(partial.coverage_report().contains("rows complete"));
            let text = partial.checkpoint.to_text();
            let restored = SweepCheckpoint::from_text(&text).unwrap();
            assert_eq!(restored, partial.checkpoint);
            let resumed = restored
                .resume(&Supervisor::unbounded(), 2)
                .unwrap()
                .complete()
                .unwrap();
            assert_eq!(resumed, direct, "trip {trip}");
            // The resumed sweep stores the flat row-major matrix; rows and
            // scalar lookups must agree with it bit-for-bit.
            let width = resumed.points.len();
            assert_eq!(
                resumed.tcdp_matrix().len(),
                width * resumed.task_counts.len()
            );
            for n in 0..resumed.task_counts.len() {
                assert_eq!(
                    resumed.row(n),
                    &resumed.tcdp_matrix()[n * width..(n + 1) * width]
                );
                for p in 0..width {
                    assert_eq!(
                        resumed.tcdp_at(n, p).to_bits(),
                        direct.tcdp_at(n, p).to_bits(),
                        "trip {trip} row {n} point {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let pts = points();
        let sup = Supervisor::tripping_after(2);
        let partial = supervised(pts, log_sweep(4, 8, 2), &sup, 1)
            .unwrap()
            .partial()
            .unwrap();
        let text = partial.checkpoint.to_text();
        assert!(SweepCheckpoint::from_text("").is_err());
        assert!(SweepCheckpoint::from_text("garbage\n").is_err());
        // Truncation mid-file.
        let cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(SweepCheckpoint::from_text(&cut).is_err());
        // A corrupted hex token.
        let broken = text.replacen("r 0 ", "r 999 ", 1);
        if broken != text {
            assert!(SweepCheckpoint::from_text(&broken).is_err());
        }
    }

    /// Values must be exactly 16 hex digits: the signed and short forms
    /// `from_str_radix` used to accept are rejected, and the writer →
    /// parser round trip stays the identity.
    #[test]
    fn checkpoint_values_must_be_sixteen_hex_digits() {
        let partial = supervised(
            points(),
            log_sweep(4, 8, 2),
            &Supervisor::tripping_after(2),
            1,
        )
        .unwrap()
        .partial()
        .unwrap();
        let text = partial.checkpoint.to_text();
        let restored = SweepCheckpoint::from_text(&text).unwrap();
        assert_eq!(restored, partial.checkpoint);
        assert_eq!(restored.to_text(), text);

        let ci_line = text.lines().nth(2).unwrap();
        assert!(ci_line.starts_with("ci_use "));
        for token in ["+3ff0000000000000", "3ff"] {
            let damaged = text.replacen(ci_line, &format!("ci_use {token}"), 1);
            let err = SweepCheckpoint::from_text(&damaged).unwrap_err();
            assert!(
                err.to_string().contains("bad ci_use value"),
                "{token}: {err}"
            );
            let count_line = text.lines().find(|l| l.starts_with("c ")).unwrap();
            let damaged = text.replacen(count_line, &format!("c {token}"), 1);
            assert!(SweepCheckpoint::from_text(&damaged).is_err(), "{token}");
        }
    }

    #[test]
    fn zero_trip_checkpoint_has_no_rows_but_full_inputs() {
        let pts = points();
        let counts = log_sweep(4, 8, 1);
        let sup = Supervisor::tripping_after(0);
        let partial = supervised(pts.clone(), counts.clone(), &sup, 1)
            .unwrap()
            .partial()
            .unwrap();
        assert_eq!(partial.checkpoint.completed_rows(), 0);
        assert_eq!(partial.checkpoint.total_rows(), counts.len());
        assert_eq!(partial.checkpoint.points().len(), pts.len());
        assert_eq!(partial.checkpoint.pending_rows().len(), counts.len());
        assert!(partial.checkpoint.coverage() < 1e-12);
    }

    #[test]
    fn supervised_sweep_validates_inputs() {
        let ci = grids::US_AVERAGE;
        assert!(SweepCheckpoint::new(vec![], log_sweep(0, 1, 1), ci).is_err());
        assert!(SweepCheckpoint::new(points(), vec![], ci).is_err());
        assert!(SweepCheckpoint::new(points(), vec![-3.0], ci).is_err());
    }
}
