//! `dse`: the op-time sweep, supervised or memoized in a store.

use super::*;
use cordoba_accel::space::config_by_name;
use cordoba_store::{KeyBuilder, StoreKey};

/// `dse` flag combinations that are usage errors, checked in order: a row
/// `(flag, others, given, why)` fires when `--flag` is set and one of
/// `others` is set (`given`) or missing (`!given`); `{other}` in `why`
/// names that option.
const DSE_CONFLICTS: [(&str, &[&str], bool, &str); 4] = [
    // The store memoizes *complete* runs; supervision produces partial
    // ones, so the two modes are mutually exclusive.
    (
        "store",
        &["deadline", "checkpoint", "resume"],
        true,
        "--store memoizes complete runs and cannot be combined with --{other}",
    ),
    (
        "resume",
        &["attribution"],
        true,
        "a resumed checkpoint no longer carries the evaluation quarantine; \
         re-run the sweep with --attribution instead",
    ),
    (
        "resume",
        &["task", "grid", "lo", "hi", "lenient"],
        true,
        "--resume restores every sweep input from the checkpoint; drop --{other}",
    ),
    // Only a deadline interrupts a sweep, so without one there is never
    // progress to save.
    (
        "checkpoint",
        &["deadline"],
        false,
        "--checkpoint saves a sweep interrupted by --deadline; add --deadline <dur> \
         or drop --checkpoint",
    ),
];

/// Parses a human-readable duration: a non-negative number with an
/// optional `ms`/`s`/`m`/`h` suffix (bare numbers mean seconds).
pub(super) fn parse_duration(raw: &str) -> Result<Duration, CliError> {
    let bad = || {
        CliError::Usage(format!(
            "bad duration `{raw}` (expected e.g. `500ms`, `5s`, `2m`, `1h`)"
        ))
    };
    let (number, scale) = if let Some(v) = raw.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = raw.strip_suffix('s') {
        (v, 1.0)
    } else if let Some(v) = raw.strip_suffix('m') {
        (v, 60.0)
    } else if let Some(v) = raw.strip_suffix('h') {
        (v, cordoba_carbon::units::SECONDS_PER_HOUR)
    } else {
        (raw, 1.0)
    };
    let value: f64 = number.trim().parse().map_err(|_| bad())?;
    if !value.is_finite() || value < 0.0 {
        return Err(bad());
    }
    // try_ rather than from_secs_f64: absurd magnitudes (`9e99h`) must be
    // a usage error, not an overflow panic.
    Duration::try_from_secs_f64(value * scale).map_err(|_| bad())
}

fn task_by_name(name: &str) -> Result<Task, CliError> {
    match name {
        "all" => Ok(Task::all_kernels()),
        "xr10" => Ok(Task::xr_10_kernels()),
        "ai10" => Ok(Task::ai_10_kernels()),
        "xr5" => Ok(Task::xr_5_kernels()),
        "ai5" => Ok(Task::ai_5_kernels()),
        other => Err(CliError::Usage(format!(
            "unknown task `{other}` (all | xr10 | ai10 | xr5 | ai5)"
        ))),
    }
}

pub(super) fn dse(args: &Args<'_>) -> Result<String, CliError> {
    let set = |key: &str| args.get(key).is_some() || args.flag(key);
    for (flag, others, given, why) in DSE_CONFLICTS {
        if !set(flag) {
            continue;
        }
        if let Some(other) = others.iter().find(|&&other| set(other) == given) {
            return Err(CliError::Usage(why.replace("{other}", other)));
        }
    }
    let deadline = args.get("deadline").map(parse_duration).transpose()?;
    if let Some(path) = args.get("resume") {
        return dse_resume(args, path, deadline);
    }
    let task = task_by_name(args.get("task").unwrap_or("all"))?;
    let ci = grid_by_name(args.get("grid").unwrap_or("us"))?;
    let decade = |key: &'static str, default: f64| -> Result<i32, CliError> {
        let v = args.get_f64(key, default)?;
        // cordoba-lint: allow(float-eq) — fract() of a whole number is exactly 0.0
        if v.fract() != 0.0 || !(-300.0..=300.0).contains(&v) {
            return Err(CliError::Usage(format!(
                "--{key} must be a whole decade exponent, got {v}"
            )));
        }
        Ok(v as i32)
    };
    let lo = decade("lo", 4.0)?;
    let hi = decade("hi", 11.0)?;
    if hi <= lo {
        return Err(CliError::Usage("--hi must exceed --lo".to_owned()));
    }
    if let Some(dir) = args.get("store") {
        return dse_stored(args, dir, &task, ci, lo, hi);
    }

    let mut out = String::new();
    let (points, quarantined) = if args.flag("lenient") {
        evaluate_lenient(&task, &mut out)?
    } else {
        let points = evaluate_space(&design_space(), &task, &EmbodiedModel::default())?;
        (points, Vec::new())
    };
    let _ = writeln!(out, "task: {task} | grid: {ci}");
    // The evaluation stage above runs without a deadline (it is the fast
    // part); the deadline budget governs the sweep, so even `--deadline 0s`
    // leaves a resumable checkpoint behind.
    let sup = deadline.map_or_else(Supervisor::unbounded, Supervisor::with_deadline);
    let run = op_time_sweep_supervised(points, log_sweep(lo, hi, 2), ci, &sup)?;
    match run {
        SupervisedSweep::Complete(sweep) => {
            render_sweep(&sweep, &mut out)?;
            if let Some(dest) = args.get("attribution") {
                write_attribution(&sweep, &quarantined, dest, &mut out)?;
            }
            Ok(out)
        }
        // An interrupted sweep has no complete tCDP matrix to attribute;
        // the checkpoint carries the progress instead.
        SupervisedSweep::Partial(partial) => {
            save_checkpoint(partial, args.get("checkpoint"), "written to", out)
        }
    }
}

/// The `--lenient` evaluation of the built-in space: quarantines every
/// configuration that fails to evaluate, lists the quarantine in `out`,
/// and returns the surviving points with the failures.
fn evaluate_lenient(
    task: &Task,
    out: &mut String,
) -> Result<(Vec<DesignPoint>, Vec<EvalFailure>), CliError> {
    let configs = design_space();
    let eval = SupervisedEval::new(&configs, task, &EmbodiedModel::default()).into_resilient();
    if eval.degraded() {
        let _ = writeln!(
            out,
            "quarantined {} of {} configurations:",
            eval.failures.len(),
            eval.points.len() + eval.failures.len()
        );
        for failure in &eval.failures {
            let _ = writeln!(out, "  {failure}");
        }
    }
    if eval.points.is_empty() {
        return Err(CliError::Usage(
            "every configuration failed to evaluate".to_owned(),
        ));
    }
    Ok((eval.points, eval.failures))
}

/// Builds the carbon attribution ledger for a completed sweep, reconciles
/// it bit-for-bit against the sweep's tCDP matrix, and delivers it: JSON
/// to a file, or the human-readable table appended to `out` when `dest`
/// is `-`.
fn write_attribution(
    sweep: &OpTimeSweep,
    quarantined: &[EvalFailure],
    dest: &str,
    out: &mut String,
) -> Result<(), CliError> {
    let report = AttributionReport::from_sweep(sweep)?.with_quarantine(quarantined);
    report
        .check_against(sweep)
        .map_err(|e| CliError::Usage(format!("attribution ledger failed to reconcile: {e}")))?;
    if dest == "-" {
        out.push_str(&report.to_table());
    } else {
        write_file(dest, &report.to_json())?;
        let _ = writeln!(out, "attribution written to {dest}");
    }
    Ok(())
}

/// Renders a completed operational-time sweep: the optimal-design
/// crossover table plus the elimination summary.
fn render_sweep(sweep: &OpTimeSweep, out: &mut String) -> Result<(), CliError> {
    let mut last = "";
    for n in 0..sweep.task_counts.len() {
        let best = &sweep.points[sweep.optimal_at(n)];
        if best.name != last {
            let cfg = config_by_name(&best.name)
                .ok_or_else(|| CliError::Usage(format!("unknown configuration `{}`", best.name)))?;
            let _ = writeln!(
                out,
                "  from {:>9.2e} tasks: {:5} ({} MAC units, {:.0} MiB SRAM)",
                sweep.task_counts[n],
                best.name,
                cfg.mac_units(),
                cfg.sram().to_mebibytes()
            );
            last = &best.name;
        }
    }
    let survivors = sweep.ever_optimal();
    let _ = writeln!(
        out,
        "survivors: {} of {} ({:.1}% eliminated); robust choice: {}",
        survivors.len(),
        sweep.points.len(),
        sweep.elimination_fraction() * 100.0,
        sweep.points[sweep.robust_choice()].name
    );
    Ok(())
}

/// Content hash identifying a whole `dse` run: every input that shapes
/// the rendered output participates, so two runs share a hash exactly
/// when they would print identical results.
fn dse_run_key(task: &Task, ci: CarbonIntensity, lo: i32, hi: i32, lenient: bool) -> StoreKey {
    let mut key = KeyBuilder::new("dse");
    key.push_str(task.name());
    key.push_f64(ci.value());
    key.push_u64(lo as i64 as u64);
    key.push_u64(hi as i64 as u64);
    key.push_u64(u64::from(lenient));
    key.finish()
}

/// The `dse --store` path: the whole rendered run is memoized under a
/// content hash of its inputs, and the space evaluation underneath is
/// memoized on its own, so a partial overlap with a prior run skips the
/// simulator. The tCDP matrix is recomputed on every run (it costs less
/// than reading it back); the store keeps only its receipt. Cold and warm
/// outputs are byte-identical.
///
/// Only the sweep itself is memoized: an attribution request needs the
/// live sweep object, so it bypasses the run-level memo (the space memo
/// underneath still serves) and the ledger is appended *after* the stored
/// payload, keeping warm replays byte-identical with or without it.
fn dse_stored(
    args: &Args<'_>,
    dir: &str,
    task: &Task,
    ci: CarbonIntensity,
    lo: i32,
    hi: i32,
) -> Result<String, CliError> {
    let (lenient, attribution) = (args.flag("lenient"), args.get("attribution"));
    let store = open_store(dir)?;
    let key = dse_run_key(task, ci, lo, hi, lenient);
    if attribution.is_none() {
        if let Some(lines) = store.get(RUN_KIND, key) {
            return Ok(lines.join("\n"));
        }
    }
    let mut out = String::new();
    let (points, quarantined) = if lenient {
        evaluate_lenient(task, &mut out)?
    } else {
        let model = EmbodiedModel::default();
        let points = evaluate_space_stored(&design_space(), task, &model, &store)?;
        (points, Vec::new())
    };
    let _ = writeln!(out, "task: {task} | grid: {ci}");
    let sweep = op_time_sweep_stored(points, log_sweep(lo, hi, 2), ci, &store)?;
    render_sweep(&sweep, &mut out)?;
    let _ = writeln!(out, "store: run {key}");
    let payload: Vec<String> = out.split('\n').map(str::to_owned).collect();
    let _ = store.put(RUN_KIND, key, &payload);
    if let Some(dest) = attribution {
        write_attribution(&sweep, &quarantined, dest, &mut out)?;
    }
    Ok(out)
}

/// Saves an interrupted sweep's checkpoint to `path` (an error without
/// one — progress would be lost silently) and reports coverage plus the
/// resume command; `written` says how the file was touched.
fn save_checkpoint(
    partial: PartialSweep,
    path: Option<&str>,
    written: &str,
    mut out: String,
) -> Result<String, CliError> {
    let report = partial.coverage_report();
    let Some(path) = path else {
        return Err(CliError::Usage(format!(
            "{report}; re-run with --checkpoint <file> to save progress"
        )));
    };
    write_file(path, &partial.checkpoint.to_text())?;
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "checkpoint {written} {path}; continue with `cordoba dse --resume {path}`"
    );
    Ok(out)
}

/// The `dse --resume` path: restores a sweep checkpoint and computes the
/// remaining rows (under a fresh deadline when `--deadline` is given
/// again, otherwise to completion).
fn dse_resume(args: &Args<'_>, path: &str, deadline: Option<Duration>) -> Result<String, CliError> {
    let text = read_file(path)?;
    let checkpoint =
        SweepCheckpoint::from_text(&text).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "resuming {path}: {}/{} rows already complete | grid: {}",
        checkpoint.completed_rows(),
        checkpoint.total_rows(),
        checkpoint.ci_use()
    );
    let sup = deadline.map_or_else(Supervisor::unbounded, Supervisor::with_deadline);
    match checkpoint.resume(&sup, cordoba_par::effective_threads())? {
        SupervisedSweep::Complete(sweep) => {
            render_sweep(&sweep, &mut out)?;
            Ok(out)
        }
        // Interrupted again: save to --checkpoint if given, else back to
        // the file being resumed (progress is monotone either way).
        SupervisedSweep::Partial(partial) => match args.get("checkpoint") {
            Some(dest) => save_checkpoint(partial, Some(dest), "written to", out),
            None => save_checkpoint(partial, Some(path), "updated at", out),
        },
    }
}
