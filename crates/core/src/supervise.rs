//! The one supervised pipeline: the operational-time sweep and its
//! checkpoint.
//!
//! The Fig. 8 tCDP grid is the pipeline a user interrupts and resumes
//! (`dse --deadline … --checkpoint …` / `dse --resume …`), so it is the one
//! runner that accepts a [`Supervisor`] (from [`cordoba_par::supervise`])
//! and a worker-thread count. It owns its resume state: a
//! [`SweepCheckpoint`] marks each row done or pending, and
//! [`SweepCheckpoint::resume`] maps [`cordoba_par::map`] over the pending
//! rows only. Each row checks the supervisor before it runs, so a stop
//! keeps every computed row keyed by row index, and an interrupted sweep
//! is its checkpoint ([`SupervisedSweep::Partial`]), which records why it
//! stopped and serializes to a deterministic text format
//! ([`SweepCheckpoint::to_text`]). The plain
//! [`OpTimeSweep::new`] is this runner under [`Supervisor::unbounded`] at
//! [`cordoba_par::effective_threads`]. Every other pipeline (space
//! evaluation, Monte Carlo, provisioning) is a plain function over one
//! [`cordoba_par::map`].
//!
//! # Determinism argument
//!
//! Every sweep row is a pure function of its row index; supervision only
//! decides *whether* a row runs now, later, or never — never *how*.
//! Completed rows are stored by index and merged in index order, and
//! `f64`s cross the checkpoint boundary as exact bit patterns
//! (`f64::to_bits` hex), so
//! `interrupt-at-any-point + resume == uninterrupted` bit-for-bit at any
//! thread count. The property suite in `crates/robust` pins this.

use crate::dse::OpTimeSweep;
use crate::error::CoreError;
use crate::metrics::{DesignPoint, OperationalContext};
use crate::store::{parse_point_line, point_line};
use cordoba_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_carbon::CarbonError;
use cordoba_obs::{Event, Histogram};
use cordoba_par::supervise::{StopReason, Supervisor};
use cordoba_par::CostHint;
use cordoba_store::{parse_hex_f64, push_hex_f64};
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Wall-clock distribution of sweep-engine runs ([`SweepCheckpoint::resume`]
/// and [`OpTimeSweep::new`]).
static OP_TIME_SWEEP_NS: Histogram = Histogram::new("core/op_time_sweep_ns");

/// Estimated cost of one tCDP matrix entry (one `DesignPoint::tcdp` call);
/// a sweep row's hint is this times the point count. bench_smoke
/// `--quick`'s `dse/op_time_sweep_121x29/threads=1` fills 3,509 cells in
/// 12,937–16,347 ns (three runs on a shared 2-vCPU x86-64 host, median
/// 15,162), 3.7–4.7 ns each, cloning the points included.
const TCDP_NS_PER_POINT: u64 = 4;

/// Outcome of a supervised operational-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedSweep {
    /// Every row was computed; the sweep is bit-identical to
    /// [`OpTimeSweep::new`] on the same inputs.
    Complete(OpTimeSweep),
    /// The supervisor stopped the sweep; the checkpoint holds every
    /// computed row and the stop reason, and can be serialized and resumed.
    Partial(SweepCheckpoint),
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

    /// The checkpoint, if the run was interrupted.
    #[must_use]
    pub fn partial(self) -> Option<SweepCheckpoint> {
        match self {
            Self::Complete(_) => None,
            Self::Partial(checkpoint) => Some(checkpoint),
        }
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
    /// Flat row-major tCDP matrix; row `n` holds results once `done[n]`
    /// and zeros before.
    tcdp: Vec<f64>,
    /// `done[n]` once row `n` of `tcdp` is computed.
    done: Vec<bool>,
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
            done: vec![false; task_counts.len()],
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
        self.done.iter().filter(|&&done| done).count()
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
    /// thread count; an interrupted run returns the checkpoint to resume,
    /// with its [`reason`](Self::reason) set to why `sup` stopped it.
    /// [`SweepCheckpoint::new`] validated every input, so no row can fail.
    ///
    /// # Panics
    ///
    /// Re-raises the first (in row order) panicking row on the caller.
    pub fn resume(mut self, sup: &Supervisor, threads: usize) -> SupervisedSweep {
        match self.fill(sup, threads) {
            None => SupervisedSweep::Complete(self.into_sweep()),
            Some(reason) => {
                self.reason = reason;
                SupervisedSweep::Partial(self)
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

    /// The sweep engine: maps over the pending rows, each of which checks
    /// `sup` before it runs, writes itself in place into the flat matrix
    /// (no per-row allocation and no merge copy, sequential or parallel)
    /// and counts itself completed. Returns why `sup` stopped the run
    /// (recorded once as a supervision event) when a row is left pending.
    fn fill(&mut self, sup: &Supervisor, threads: usize) -> Option<StopReason> {
        let _span = cordoba_obs::span_timed("core/op_time_sweep", &OP_TIME_SWEEP_NS);
        let (points, contexts) = (&self.points, &self.contexts);
        // Each pending row is handed out once, with its index, behind its
        // own uncontended lock, so workers write disjoint rows through a
        // shared slice. A row is locked at most once, so no lock is ever
        // seen poisoned.
        let mut pending = Vec::with_capacity(self.done.len());
        let rows = self.tcdp.chunks_exact_mut(points.len()).zip(&self.done);
        for (n, (row, &done)) in rows.enumerate() {
            if !done {
                pending.push((n, Mutex::new(row)));
            }
        }
        let hint = CostHint::per_item_ns(TCDP_NS_PER_POINT.saturating_mul(points.len() as u64));
        let ran = cordoba_par::map(pending.len(), threads, hint, |k| {
            // A stop is sticky, so once one row sees it every later row of
            // its run does too: a run stops at its first positive check.
            if sup.should_stop().is_some() {
                return false;
            }
            let (n, row) = &pending[k];
            let ctx = &contexts[*n];
            let mut row = row.lock().unwrap_or_else(PoisonError::into_inner);
            for (cell, p) in row.iter_mut().zip(points) {
                *cell = p.tcdp(ctx).value();
            }
            sup.note_completed(1);
            true
        });
        for ((n, _), ran) in pending.into_iter().zip(ran) {
            self.done[n] = ran;
        }
        // A row left pending implies a reached trip count or an elapsed
        // deadline, both sticky, so this re-check agrees with what the row
        // saw. The fallback cannot fire but keeps this total.
        (!self.done.iter().all(|&done| done))
            .then(|| sup.record_stop(sup.should_stop().unwrap_or(StopReason::Cancelled)))
    }

    /// The completed sweep; callers have filled every row.
    fn into_sweep(self) -> OpTimeSweep {
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
            out.push_str(&point_line(p));
            out.push('\n');
        }
        let _ = writeln!(out, "rows {}", self.completed_rows());
        let rows = self.tcdp.chunks_exact(self.points.len()).zip(&self.done);
        for (idx, (values, _)) in rows.enumerate().filter(|(_, (_, &done))| done) {
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
        // Each count takes a line, so the text bounds a valid reservation
        // and a damaged header cannot overflow it.
        let mut task_counts = Vec::with_capacity(n.min(text.len()));
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
        let mut points = Vec::with_capacity(m.min(text.len()));
        for _ in 0..m {
            let line = next("design point")?;
            let ([delay, energy, embodied, area], name) =
                parse_point_line(line).ok_or_else(|| bad(format!("bad point line `{line}`")))?;
            points.push(DesignPoint::new(
                name,
                Seconds::new(delay),
                Joules::new(energy),
                GramsCo2e::new(embodied),
                SquareCentimeters::new(area),
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
            if checkpoint.done[idx] {
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
            checkpoint.done[idx] = true;
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
/// [`OpTimeSweep::new`]; an interrupted run returns
/// [`SupervisedSweep::Partial`] with a resumable checkpoint.
///
/// # Errors
///
/// Same input validation as [`OpTimeSweep::new`].
///
/// # Panics
///
/// Re-raises the first (in row order) panicking row on the caller.
pub fn op_time_sweep_supervised(
    points: Vec<DesignPoint>,
    task_counts: Vec<f64>,
    ci_use: CarbonIntensity,
    sup: &Supervisor,
) -> Result<SupervisedSweep, CoreError> {
    Ok(SweepCheckpoint::new(points, task_counts, ci_use)?
        .resume(sup, cordoba_par::effective_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{evaluate_space, log_sweep};
    use cordoba_accel::space::design_space;
    use cordoba_carbon::embodied::EmbodiedModel;
    use cordoba_carbon::intensity::grids;
    use cordoba_workloads::task::Task;

    fn supervised(
        points: Vec<DesignPoint>,
        task_counts: Vec<f64>,
        sup: &Supervisor,
        threads: usize,
    ) -> Result<SupervisedSweep, CarbonError> {
        Ok(SweepCheckpoint::new(points, task_counts, grids::US_AVERAGE)?.resume(sup, threads))
    }

    fn points() -> Vec<DesignPoint> {
        let configs = design_space();
        evaluate_space(&configs, &Task::ai_5_kernels(), &EmbodiedModel::default()).unwrap()
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
            let checkpoint = supervised(pts.clone(), counts.clone(), &sup, 1)
                .unwrap()
                .partial()
                .unwrap();
            assert_eq!(checkpoint.completed_rows(), trip as usize);
            assert_eq!(checkpoint.reason(), StopReason::Cancelled);
            assert!(checkpoint.coverage_report().contains("rows complete"));
            let text = checkpoint.to_text();
            let restored = SweepCheckpoint::from_text(&text).unwrap();
            assert_eq!(restored, checkpoint);
            let resumed = restored
                .resume(&Supervisor::unbounded(), 2)
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
        let checkpoint = supervised(pts, log_sweep(4, 8, 2), &sup, 1)
            .unwrap()
            .partial()
            .unwrap();
        let text = checkpoint.to_text();
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
        // A count larger than any file is an error, not an allocation.
        for header in ["task_counts", "points"] {
            let line = text.lines().find(|l| l.starts_with(header)).unwrap();
            for count in [usize::MAX, 1 << 61] {
                let damaged = text.replacen(line, &format!("{header} {count}"), 1);
                assert!(
                    SweepCheckpoint::from_text(&damaged).is_err(),
                    "{header} {count}"
                );
            }
        }
    }

    /// Values must be exactly 16 hex digits: the signed and short forms
    /// `from_str_radix` used to accept are rejected, and the writer →
    /// parser round trip stays the identity.
    #[test]
    fn checkpoint_values_must_be_sixteen_hex_digits() {
        let checkpoint = supervised(
            points(),
            log_sweep(4, 8, 2),
            &Supervisor::tripping_after(2),
            1,
        )
        .unwrap()
        .partial()
        .unwrap();
        let text = checkpoint.to_text();
        let restored = SweepCheckpoint::from_text(&text).unwrap();
        assert_eq!(restored, checkpoint);
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
            // A point's cells go through the store's point-line codec.
            let point_line = text.lines().find(|l| l.starts_with("p ")).unwrap();
            let (_, rest) = point_line.split_at("p ".len() + 16);
            let damaged = text.replacen(point_line, &format!("p {token}{rest}"), 1);
            let err = SweepCheckpoint::from_text(&damaged).unwrap_err();
            assert!(err.to_string().contains("bad point line"), "{token}: {err}");
        }
    }

    #[test]
    fn zero_trip_checkpoint_has_no_rows_but_full_inputs() {
        let pts = points();
        let counts = log_sweep(4, 8, 1);
        let sup = Supervisor::tripping_after(0);
        let checkpoint = supervised(pts.clone(), counts.clone(), &sup, 1)
            .unwrap()
            .partial()
            .unwrap();
        assert_eq!(checkpoint.completed_rows(), 0);
        assert_eq!(checkpoint.total_rows(), counts.len());
        assert_eq!(checkpoint.points().len(), pts.len());
        assert!(checkpoint.coverage() < 1e-12);
    }

    #[test]
    fn supervised_sweep_validates_inputs() {
        let ci = grids::US_AVERAGE;
        assert!(SweepCheckpoint::new(vec![], log_sweep(0, 1, 1), ci).is_err());
        assert!(SweepCheckpoint::new(points(), vec![], ci).is_err());
        assert!(SweepCheckpoint::new(points(), vec![-3.0], ci).is_err());
    }
}
