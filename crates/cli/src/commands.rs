//! The `cordoba` CLI subcommands.
//!
//! Every command is a pure function from parsed arguments to output text,
//! so the whole CLI is unit-testable without spawning processes.

use crate::args::{ArgError, Args};
use cordoba::prelude::*;
use cordoba_accel::cache::EmbodiedCache;
use cordoba_accel::space::{config_by_name, design_space};
use cordoba_carbon::prelude::*;
use cordoba_obs::Layer;
use cordoba_par::supervise::{Outcome, SupervisedMap, Supervisor};
use cordoba_par::CostHint;
use cordoba_soc::prelude::*;
use cordoba_store::{KeyBuilder, Store, StoreKey};
use cordoba_workloads::kernel::KernelId;
use cordoba_workloads::task::Task;
use std::fmt::Write as _;
use std::time::Duration;

/// Store entry kind for whole rendered CLI runs (the `replay` payload).
const RUN_KIND: &str = "run";

/// Error type of the CLI layer.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// A model rejected its inputs.
    Carbon(CarbonError),
    /// A framework evaluation failed (carbon model or cost table).
    Core(CoreError),
    /// Free-form usage error.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Args(e) => write!(f, "{e}"),
            Self::Carbon(e) => write!(f, "{e}"),
            Self::Core(e) => write!(f, "{e}"),
            Self::Usage(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self::Args(e)
    }
}

impl From<CarbonError> for CliError {
    fn from(e: CarbonError) -> Self {
        Self::Carbon(e)
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
cordoba — carbon-efficient optimization framework (tCDP)

USAGE:
    cordoba <COMMAND> [OPTIONS]

COMMANDS:
    metrics      evaluate EDP/tC/CCI/tCDP for one design point
    dse          explore the 121-accelerator space for a task
    provision    sweep VR SoC core counts for an app
    stacking     evaluate the 3D-integration study
    eliminate    Pareto/beta-sweep elimination over designs from a CSV
    doctor       sanity-check a trace/design CSV and print repair reports
                 (with --metrics alone: run the built-in self-check probe)
    trace-check  validate a Chrome trace-event JSON file
    profile      aggregate a Chrome trace into a per-span self-time profile
    replay       re-emit a stored run by hash without recomputing
    cache        inspect or evict the persistent result store
    kernels      list the workload kernels
    tasks        list the evaluation tasks
    grids        list built-in carbon intensities
    help         show this message

Persistent memoization: `dse --store <dir>` keys every expensive result by
a content hash of its inputs, so a repeated sweep is a single lookup. Each
stored run prints its hash; `replay <hash> --store <dir>` re-emits it.

Commands that ingest data accept `--lenient` to quarantine bad rows or
configurations and continue with the rest instead of aborting.

Every command accepts `--threads <N>` to cap the worker threads used for
parallel sweeps (default: all cores). Results are identical at any thread
count; only wall-clock time changes.

Observability (zero overhead when off; never changes results):
    --trace-out <file>    record spans/events and write Chrome trace-event
                          JSON (open in chrome://tracing or Perfetto)
    --metrics             append the metrics registry (counters/histograms)
                          to the output as JSON lines
    --profile-out <file>  record spans and write a per-name self/total-time
                          profile as JSON (see also the `profile` command)

Run `cordoba <COMMAND> --help` for per-command options.
";

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing invalid usage or model errors.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(USAGE.to_owned());
    };
    let args = Args::parse(argv[1..].iter().cloned());
    apply_threads(&args)?;
    let obs = ObsOptions::from_args(&args);
    // Held to the end of the run, and released on unwind.
    let _trace = obs.enable();
    let result = match command.as_str() {
        "metrics" => cmd_metrics(&args),
        "dse" => cmd_dse(&args),
        "provision" => cmd_provision(&args),
        "stacking" => cmd_stacking(&args),
        "eliminate" => cmd_eliminate(&args),
        "doctor" => cmd_doctor(&args),
        "trace-check" => cmd_trace_check(&args),
        "profile" => cmd_profile(&args),
        "replay" => cmd_replay(&args),
        "cache" => cmd_cache(&args),
        "kernels" => cmd_kernels(&args),
        "tasks" => cmd_tasks(&args),
        "grids" => cmd_grids(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; run `cordoba help`"
        ))),
    };
    obs.finish(result)
}

/// The global observability options: `--trace-out <file>`, `--metrics`,
/// and `--profile-out <file>`.
///
/// `--trace-out` enables both tracing *and* metrics (so the exported trace
/// always carries counter tracks); `--metrics` enables the registry alone;
/// `--profile-out` enables tracing and aggregates the recorded span tree
/// into a per-name self/total-time profile written as JSON.
/// Observation is a pure side channel: enabling any of them never changes
/// a command's computed results, only what is reported about them.
///
/// The switches are process-global. A counting run holds metrics through
/// [`cordoba_obs::acquire`], so the registry stays on until the last
/// overlapping in-process [`run`] finishes. A traced run owns the span
/// buffer through a [`cordoba_obs::TraceSession`], so overlapping traced
/// runs take turns and each exports only its own spans. Untraced runs that
/// overlap a traced one still add their spans to its trace, because the
/// tracing switch is process-wide.
struct ObsOptions {
    trace_out: Option<String>,
    profile_out: Option<String>,
    metrics: bool,
}

impl ObsOptions {
    fn from_args(args: &Args) -> Self {
        Self {
            trace_out: args.get("trace-out").map(str::to_owned),
            profile_out: args.get("profile-out").map(str::to_owned),
            metrics: args.flag("metrics"),
        }
    }

    /// Whether this run records counters (`--trace-out` implies them).
    fn counts(&self) -> bool {
        self.metrics || self.trace_out.is_some()
    }

    /// Whether this run records spans.
    fn traces(&self) -> bool {
        self.trace_out.is_some() || self.profile_out.is_some()
    }

    /// Takes this run's metrics hold and, for a traced run, the trace
    /// session, waiting while another traced run holds it.
    fn enable(&self) -> Option<cordoba_obs::TraceSession> {
        let session = self.traces().then(cordoba_obs::TraceSession::begin);
        if self.counts() {
            cordoba_obs::acquire(Layer::Metrics);
        }
        session
    }

    /// Appends the metrics dump, writes the profile and trace files, and
    /// releases the metrics hold. The caller still holds the trace
    /// session, so the files hold this run's spans.
    fn finish(&self, mut result: Result<String, CliError>) -> Result<String, CliError> {
        if self.metrics {
            if let Ok(out) = &mut result {
                out.push_str(&cordoba_obs::dump_json_lines());
            }
        }
        if self.counts() {
            cordoba_obs::release(Layer::Metrics);
        }
        // The profile aggregates the same span buffer the trace exports,
        // so it must be computed before the drain below.
        if let Some(path) = &self.profile_out {
            if result.is_ok() {
                let report = cordoba_obs::profile_report();
                match std::fs::write(path, report.to_json()) {
                    Ok(()) => {
                        if let Ok(out) = &mut result {
                            let _ = writeln!(out, "profile written to {path}");
                        }
                    }
                    Err(e) => {
                        result = Err(CliError::Usage(format!("cannot write {path}: {e}")));
                    }
                }
            }
        }
        if let Some(path) = &self.trace_out {
            let trace = cordoba_obs::drain_chrome_trace();
            if result.is_ok() {
                match std::fs::write(path, &trace) {
                    Ok(()) => {
                        if let Ok(out) = &mut result {
                            let _ = writeln!(out, "trace written to {path}");
                        }
                    }
                    Err(e) => {
                        result = Err(CliError::Usage(format!("cannot write {path}: {e}")));
                    }
                }
            }
        }
        result
    }
}

/// Applies the global `--threads <N>` option: caps the process-wide worker
/// pool every parallel sweep draws from. Absent means all available cores.
fn apply_threads(args: &Args) -> Result<(), CliError> {
    let Some(raw) = args.get("threads") else {
        return Ok(());
    };
    let threads: Option<std::num::NonZeroUsize> = raw.parse().ok();
    if threads.is_none() {
        return Err(CliError::Args(ArgError::InvalidValue {
            key: "threads".to_owned(),
            value: raw.to_owned(),
            expected: "a positive integer",
        }));
    }
    cordoba_par::set_threads(threads);
    Ok(())
}

/// Parses a human-readable duration: a non-negative number with an
/// optional `ms`/`s`/`m`/`h` suffix (bare numbers mean seconds).
fn parse_duration(raw: &str) -> Result<Duration, CliError> {
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

fn grid_by_name(name: &str) -> Result<CarbonIntensity, CliError> {
    Ok(match name {
        "coal" => grids::COAL,
        "gas" => grids::GAS,
        "world" => grids::WORLD_AVERAGE,
        "us" => grids::US_AVERAGE,
        "solar" => grids::SOLAR,
        "wind" => grids::WIND,
        "hydro" => grids::HYDRO,
        "nuclear" => grids::NUCLEAR,
        other => {
            let value: f64 = other.parse().map_err(|_| {
                CliError::Usage(format!(
                    "unknown grid `{other}` (try coal/gas/world/us/solar/wind/hydro/nuclear or a gCO2e/kWh number)"
                ))
            })?;
            CarbonIntensity::new(value)
        }
    })
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

fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok(
            "cordoba metrics --delay <s> --energy <J> --embodied <gCO2e> \
                   [--area <cm2>] [--tasks <N>] [--grid <name|gCO2e/kWh>]\n"
                .to_owned(),
        );
    }
    args.expect_only(&[
        "delay",
        "energy",
        "embodied",
        "area",
        "tasks",
        "grid",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let delay = args
        .get("delay")
        .ok_or(CliError::Args(ArgError::Missing("--delay")))?;
    let energy = args
        .get("energy")
        .ok_or(CliError::Args(ArgError::Missing("--energy")))?;
    let embodied = args
        .get("embodied")
        .ok_or(CliError::Args(ArgError::Missing("--embodied")))?;
    let parse = |key: &str, v: &str| -> Result<f64, CliError> {
        v.parse().map_err(|_| {
            CliError::Args(ArgError::InvalidValue {
                key: key.to_owned(),
                value: v.to_owned(),
                expected: "a number",
            })
        })
    };
    let point = DesignPoint::new(
        "design",
        Seconds::new(parse("delay", delay)?),
        Joules::new(parse("energy", energy)?),
        GramsCo2e::new(parse("embodied", embodied)?),
        SquareCentimeters::new(args.get_f64("area", 1.0)?),
    )?;
    let tasks = args.get_f64("tasks", 1e6)?;
    let ci = grid_by_name(args.get("grid").unwrap_or("us"))?;
    let ctx = OperationalContext::new(tasks, ci)?;

    let mut out = String::new();
    let _ = writeln!(out, "design point over {tasks:.3e} lifetime tasks at {ci}:");
    let _ = writeln!(out, "  D     = {:.4}", point.delay);
    let _ = writeln!(out, "  E     = {:.4}", point.energy);
    let _ = writeln!(out, "  P     = {:.4}", point.power());
    let _ = writeln!(out, "  EDP   = {:.4}", point.edp());
    let _ = writeln!(out, "  C_emb = {:.2}", point.embodied);
    let _ = writeln!(out, "  C_op  = {:.2}", point.operational(&ctx));
    let _ = writeln!(
        out,
        "  tC    = {:.2} ({:.1}% embodied)",
        point.total_carbon(&ctx),
        point.embodied_share(&ctx) * 100.0
    );
    let _ = writeln!(
        out,
        "  CCI   = {:.3e} gCO2e per task",
        point.cci(&ctx).value()
    );
    let _ = writeln!(out, "  tCDP  = {:.4}", point.tcdp(&ctx));
    Ok(out)
}

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

fn cmd_dse(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok(
            "cordoba dse --task <all|xr10|ai10|xr5|ai5> [--grid <name>] \
                   [--lo <decade>] [--hi <decade>] [--lenient]\n\
                   [--deadline <dur>] [--checkpoint <file>] [--resume <file>]\n\
                   [--store <dir>] [--attribution <file|->]\n\
                   --lenient quarantines configurations that fail to \
                   evaluate and sweeps the rest\n\
                   --attribution writes the carbon attribution ledger \
                   (embodied vs operational vs quarantined tCDP per \
                   configuration, reconciled bit-for-bit against the \
                   sweep) as JSON, or appends a table when the file is `-`\n\
                   --deadline bounds the sweep (e.g. 5s, 500ms); an \
                   interrupted sweep writes its progress to --checkpoint\n\
                   --resume continues a checkpointed sweep to the exact \
                   result the uninterrupted run would have produced\n\
                   --store memoizes results in a content-addressed store: \
                   a repeat run is served bit-identically without \
                   recomputing, and prints a hash usable with `replay`\n"
                .to_owned(),
        );
    }
    args.expect_only(&[
        "task",
        "grid",
        "lo",
        "hi",
        "lenient",
        "deadline",
        "checkpoint",
        "resume",
        "store",
        "attribution",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
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
        return dse_stored(
            dir,
            &task,
            ci,
            lo,
            hi,
            args.flag("lenient"),
            args.get("attribution"),
        );
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
    let sup = match deadline {
        Some(budget) => Supervisor::with_deadline(budget),
        None => Supervisor::unbounded(),
    };
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
        SupervisedSweep::Partial(partial) => dse_checkpoint(args, partial, out),
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
        std::fs::write(dest, report.to_json())
            .map_err(|e| CliError::Usage(format!("cannot write {dest}: {e}")))?;
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

/// Opens the persistent store at `dir` (creating it if needed).
fn open_store(dir: &str) -> Result<Store, CliError> {
    Store::open(dir).map_err(|e| CliError::Usage(format!("cannot open store {dir}: {e}")))
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
    dir: &str,
    task: &Task,
    ci: CarbonIntensity,
    lo: i32,
    hi: i32,
    lenient: bool,
    attribution: Option<&str>,
) -> Result<String, CliError> {
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

/// Handles an interrupted `dse` sweep: writes the checkpoint to
/// `--checkpoint` (an error without one — progress would be lost
/// silently) and reports coverage plus the resume command.
fn dse_checkpoint(args: &Args, partial: PartialSweep, mut out: String) -> Result<String, CliError> {
    let report = partial.coverage_report();
    let Some(path) = args.get("checkpoint") else {
        return Err(CliError::Usage(format!(
            "{report}; re-run with --checkpoint <file> to save progress"
        )));
    };
    std::fs::write(path, partial.checkpoint.to_text())
        .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "checkpoint written to {path}; continue with `cordoba dse --resume {path}`"
    );
    Ok(out)
}

/// The `dse --resume` path: restores a sweep checkpoint and computes the
/// remaining rows (under a fresh deadline when `--deadline` is given
/// again, otherwise to completion).
fn dse_resume(args: &Args, path: &str, deadline: Option<Duration>) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
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
    let sup = match deadline {
        Some(budget) => Supervisor::with_deadline(budget),
        None => Supervisor::unbounded(),
    };
    match checkpoint.resume(&sup, cordoba_par::effective_threads())? {
        SupervisedSweep::Complete(sweep) => {
            render_sweep(&sweep, &mut out)?;
            Ok(out)
        }
        // Interrupted again: save to --checkpoint if given, else back to
        // the file being resumed (progress is monotone either way).
        SupervisedSweep::Partial(partial) => {
            if args.get("checkpoint").is_none() {
                let report = partial.coverage_report();
                std::fs::write(path, partial.checkpoint.to_text())
                    .map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "{report}");
                let _ = writeln!(
                    out,
                    "checkpoint updated at {path}; continue with `cordoba dse --resume {path}`"
                );
                Ok(out)
            } else {
                dse_checkpoint(args, partial, out)
            }
        }
    }
}

fn cmd_provision(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok(
            "cordoba provision --app <m1|g2|b1|sg1|all> [--years <f>] [--grid <name>]\n".to_owned(),
        );
    }
    args.expect_only(&[
        "app",
        "years",
        "grid",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let app = match args.get("app").unwrap_or("m1") {
        "m1" => VrApp::m1(),
        "g2" => VrApp::g2(),
        "b1" => VrApp::b1(),
        "sg1" => VrApp::sg1(),
        "all" => VrApp::all_tasks(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown app `{other}` (m1 | g2 | b1 | sg1 | all)"
            )))
        }
    };
    let mut deployment = Deployment::default();
    deployment.lifetime_years = args.get_f64("years", deployment.lifetime_years)?;
    deployment.ci_use = grid_by_name(args.get("grid").unwrap_or("us"))?;

    let rows = sweep(&app, &deployment)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} (TLP {:.2}) over {} years:",
        app.name,
        app.tlp(),
        deployment.lifetime_years
    );
    for r in &rows {
        let marker = if r.cores == optimal_cores(&rows) {
            "  <== optimal"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {} cores: tCDP {:.4e} gCO2e*s{marker}",
            r.cores,
            r.tcdp.value()
        );
    }
    let _ = writeln!(
        out,
        "optimal: {} cores ({:.2}x better than 8)",
        optimal_cores(&rows),
        improvement_over_8core(&rows)
    );
    Ok(out)
}

fn cmd_stacking(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba stacking [--share <embodied fraction, default 0.8>]\n".to_owned());
    }
    args.expect_only(&[
        "share",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let share = args.get_f64("share", 0.8)?;
    let model = EmbodiedModel::default();
    let kernel = KernelId::Sr512.descriptor();
    let mut points = Vec::new();
    for cfg in cordoba_accel::stacking::study_configs() {
        let sim = cordoba_accel::sim::simulate(&cfg, &kernel);
        let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
        points.push(DesignPoint::new(
            cfg.shared_name(),
            sim.latency,
            energy,
            cfg.embodied_carbon(&model)?,
            cfg.total_area(),
        )?);
    }
    let ctx = context_for_embodied_share(&points, grids::US_AVERAGE, share)?;
    let best = argmin(&points, MetricKind::Tcdp, &ctx)
        .ok_or_else(|| CliError::Usage("empty design study".to_owned()))?;
    let base = &points[0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SR(512x512), embodied share {:.0}% ({:.2e} inferences):",
        share * 100.0,
        ctx.tasks
    );
    for p in &points {
        let marker = if p.name == best.name {
            "  <== optimal"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:14} tCDP {:.4e}{marker}",
            p.name,
            p.tcdp(&ctx).value()
        );
    }
    let _ = writeln!(
        out,
        "winner {} improves {:.2}x over {}",
        best.name,
        base.tcdp(&ctx).value() / best.tcdp(&ctx).value(),
        base.name
    );
    Ok(out)
}

fn cmd_eliminate(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba eliminate --csv <file> [--lenient]\n\
                   CSV columns: name,delay_s,energy_j,embodied_gco2e\n\
                   --lenient skips malformed rows (reported) instead of aborting\n"
            .to_owned());
    }
    args.expect_only(&[
        "csv",
        "lenient",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let path = args
        .get("csv")
        .ok_or(CliError::Args(ArgError::Missing("--csv <file>")))?;
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    let mut out = String::new();
    let points = if args.flag("lenient") {
        let report = parse_design_csv_lenient(&content)?;
        if !report.skipped.is_empty() {
            let _ = writeln!(out, "skipped {} malformed rows:", report.skipped.len());
            for reason in &report.skipped {
                let _ = writeln!(out, "  {reason}");
            }
        }
        report.points
    } else {
        parse_design_csv(&content)?
    };
    let sweep = BetaSweep::run(&points);
    let _ = writeln!(out, "{} candidates:", points.len());
    let _ = writeln!(out, "  survivors:  {}", sweep.surviving_names().join(", "));
    let _ = writeln!(out, "  eliminated: {}", sweep.eliminated_names().join(", "));
    let _ = writeln!(
        out,
        "  {:.1}% of candidates can never be tCDP-optimal for any CI_use(t)",
        sweep.elimination_fraction() * 100.0
    );
    Ok(out)
}

/// Outcome of a lenient design-CSV parse: the rows that survived plus a
/// line-numbered reason for every row that was dropped.
#[derive(Debug, Clone, Default)]
pub struct DesignCsvReport {
    /// Successfully parsed design points.
    pub points: Vec<DesignPoint>,
    /// One `line N: reason` entry per skipped row.
    pub skipped: Vec<String>,
}

/// Parses one non-comment, non-header CSV row into a design point.
fn parse_design_row(lineno: usize, line: &str) -> Result<DesignPoint, CliError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 4 {
        return Err(CliError::Usage(format!(
            "line {lineno}: expected 4 comma-separated fields, got {}",
            fields.len()
        )));
    }
    let num = |i: usize| -> Result<f64, CliError> {
        fields[i]
            .parse()
            .map_err(|_| CliError::Usage(format!("line {lineno}: `{}` is not a number", fields[i])))
    };
    DesignPoint::new(
        fields[0],
        Seconds::new(num(1)?),
        Joules::new(num(2)?),
        GramsCo2e::new(num(3)?),
        SquareCentimeters::new(1.0),
    )
    .map_err(|e| CliError::Usage(format!("line {lineno}: {e}")))
}

/// Runs `per_row` over every data row of the `eliminate`/`doctor` CSV
/// format, skipping blank lines, `#` comments, and a leading header.
fn for_each_csv_row(content: &str, mut per_row: impl FnMut(usize, &str)) {
    let mut seen_data = false;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Skip a header row (the first non-comment line, wherever it is).
        if !seen_data && line.to_lowercase().starts_with("name") {
            continue;
        }
        seen_data = true;
        per_row(lineno + 1, line);
    }
}

/// Parses the `eliminate` command's CSV format strictly: any malformed
/// row aborts the parse, but the whole file is scanned first so the error
/// names *every* bad line at once — one fix-up pass instead of one per
/// re-run.
///
/// # Errors
///
/// Returns a usage error listing every malformed row with its line
/// number, or an error when no data rows are present.
pub fn parse_design_csv(content: &str) -> Result<Vec<DesignPoint>, CliError> {
    let mut points = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for_each_csv_row(content, |lineno, line| {
        match parse_design_row(lineno, line) {
            Ok(point) => points.push(point),
            Err(e) => errors.push(e.to_string()),
        }
    });
    if !errors.is_empty() {
        let mut msg = format!("{} malformed row(s):", errors.len());
        for e in &errors {
            msg.push_str("\n  ");
            msg.push_str(e);
        }
        return Err(CliError::Usage(msg));
    }
    if points.is_empty() {
        return Err(CliError::Usage("no design rows found".to_owned()));
    }
    Ok(points)
}

/// Parses the `eliminate` CSV format leniently: malformed rows are skipped
/// and reported in the returned [`DesignCsvReport`] instead of aborting
/// the parse.
///
/// # Errors
///
/// Returns an error only when *no* row parses (there is nothing to
/// continue with).
pub fn parse_design_csv_lenient(content: &str) -> Result<DesignCsvReport, CliError> {
    let mut report = DesignCsvReport::default();
    for_each_csv_row(content, |lineno, line| {
        match parse_design_row(lineno, line) {
            Ok(point) => report.points.push(point),
            Err(e) => report.skipped.push(e.to_string()),
        }
    });
    if report.points.is_empty() {
        return Err(CliError::Usage(format!(
            "no usable design rows found ({} malformed)",
            report.skipped.len()
        )));
    }
    Ok(report)
}

fn cmd_doctor(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba doctor [--trace <csv>] [--designs <csv>] \
                   [--policy <lenient|production>] [--grid <name>]\n\
                   Ingests messy CSVs and prints sanitize/repair reports.\n\
                   Trace CSV columns: time_s,ci_gco2e_per_kwh\n\
                   Design CSV columns: name,delay_s,energy_j,embodied_gco2e\n\
                   With --metrics and no inputs: runs a built-in self-check\n\
                   probe (sanitizer, fallback tiers, embodied cache, and\n\
                   supervision health: deadline sweep, checkpoint\n\
                   round-trip, panic isolation), prints the Prometheus\n\
                   text exposition of the registry it populated (self-\n\
                   validated), and dumps the registry as JSON lines.\n"
            .to_owned());
    }
    args.expect_only(&[
        "trace",
        "designs",
        "policy",
        "grid",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let mut out = String::new();
    if let Some(path) = args.get("trace") {
        doctor_trace(args, path, &mut out)?;
    }
    if let Some(path) = args.get("designs") {
        doctor_designs(path, &mut out)?;
    }
    if out.is_empty() {
        if args.flag("metrics") {
            doctor_self_check(&mut out)?;
        } else {
            return Err(CliError::Args(ArgError::Missing(
                "--trace <csv> and/or --designs <csv> (or --metrics for a self-check)",
            )));
        }
    }
    Ok(out)
}

/// The `doctor --metrics` self-check: drives a deliberately messy synthetic
/// trace through the sanitizer and a standard fallback chain, probes the
/// embodied-carbon cache, and reports tier health and cache hit rates. The
/// probe populates the same counters and structured events the real hot
/// paths emit, so the appended registry dump exercises the full pipeline.
fn doctor_self_check(out: &mut String) -> Result<(), CliError> {
    let _ = writeln!(out, "self-check: synthetic trace + fallback + cache probe");

    // A messy diurnal-ish trace: one NaN and one negative sample force the
    // sanitizer to repair (and emit a sanitize-rejection event).
    let samples = vec![
        (Seconds::new(0.0), CarbonIntensity::new(300.0)),
        (Seconds::from_hours(1.0), CarbonIntensity::new(f64::NAN)),
        (Seconds::from_hours(2.0), CarbonIntensity::new(-5.0)),
        (Seconds::from_hours(3.0), CarbonIntensity::new(410.0)),
        (Seconds::from_hours(4.0), CarbonIntensity::new(420.0)),
    ];
    let (trace, report) = TraceCi::sanitize(samples, &SanitizePolicy::lenient())?;
    let _ = writeln!(out, "  sanitizer: {report}");

    // Query the chain inside the trace span (primary tier) and far beyond
    // it (constant backstop), plus one exact integral across the boundary.
    let chain = FallbackCi::standard(trace, None, grids::US_AVERAGE)?;
    for t in [0.0, 7_200.0, 14_000.0] {
        let _ = chain.at(Seconds::new(t));
    }
    let _ = chain.at(Seconds::from_days(30.0));
    let _ = chain.integral_over(Seconds::new(0.0), Seconds::from_days(1.0));
    let _ = writeln!(out, "  {}", chain.health());

    // Embodied-cache probe: repeated lookups of the same shapes must hit.
    let cache = EmbodiedCache::new(EmbodiedModel::default());
    for config in design_space().iter().take(4) {
        let _ = cache.embodied(config)?;
        let _ = cache.embodied(config)?;
    }
    let stats = cache.stats();
    let _ = writeln!(
        out,
        "  embodied cache: {} hits / {} lookups ({} distinct shapes)",
        stats.hits,
        stats.lookups(),
        cache.len()
    );
    let _ = writeln!(
        out,
        "  status: {}",
        if stats.hits == stats.misses && !chain.health().tiers.is_empty() {
            "ok"
        } else {
            "UNEXPECTED (see counters above)"
        }
    );
    doctor_supervision(out)?;
    doctor_prometheus(out);
    Ok(())
}

/// The Prometheus-exposition section of the `doctor --metrics` self-check:
/// renders the registry the probes above populated in text exposition
/// format, prints it, and self-validates the rendering with the in-crate
/// validator (the same round-trip an external scraper would perform).
fn doctor_prometheus(out: &mut String) {
    let _ = writeln!(out, "prometheus exposition of the probe registry:");
    let text = cordoba_obs::render_prometheus();
    out.push_str(&text);
    match cordoba_obs::validate_prometheus_text(&text) {
        Ok(check) => {
            let _ = writeln!(
                out,
                "prometheus exposition: OK ({} families: {} counters, {} gauges, \
                 {} histograms; {} samples)",
                check.families, check.counters, check.gauges, check.histograms, check.samples
            );
        }
        Err(e) => {
            let _ = writeln!(out, "prometheus exposition: INVALID ({e})");
        }
    }
}

/// Marker carried by the doctor's deliberate probe panic so the filtering
/// hook can swallow its report without touching any other panic.
const PANIC_PROBE: &str = "[doctor-panic-probe]";

/// Installs (once, lazily) a panic hook that suppresses the default
/// report only for payloads carrying [`PANIC_PROBE`]; every other panic
/// still reports through the previous hook.
fn install_panic_probe_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let probe = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(PANIC_PROBE))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(PANIC_PROBE));
            if !probe {
                previous(info);
            }
        }));
    });
}

/// The supervision-health section of the `doctor --metrics` self-check:
/// a deadline-bounded micro-sweep, a checkpoint serialize/restore/resume
/// round-trip verified bit-for-bit against the uninterrupted sweep, and a
/// panic-isolation probe. Each exercises the corresponding supervision
/// counters, so the appended metrics dump carries the full family.
fn doctor_supervision(out: &mut String) -> Result<(), CliError> {
    let _ = writeln!(out, "supervision: deadline + checkpoint + panic probes");
    let points = vec![
        DesignPoint::new(
            "probe-a",
            Seconds::new(1.0),
            Joules::new(40.0),
            GramsCo2e::new(8000.0),
            SquareCentimeters::new(0.5),
        )?,
        DesignPoint::new(
            "probe-b",
            Seconds::new(0.7),
            Joules::new(70.0),
            GramsCo2e::new(11000.0),
            SquareCentimeters::new(0.8),
        )?,
    ];
    let counts = log_sweep(4, 8, 1);
    let rows = counts.len();

    // A zero-budget deadline must interrupt before any row.
    let fresh = SweepCheckpoint::new(points.clone(), counts.clone(), grids::US_AVERAGE)?;
    let deadline_ok = fresh
        .clone()
        .resume(&Supervisor::with_deadline(Duration::ZERO), 1)?
        .partial()
        .is_some_and(|p| p.checkpoint.completed_rows() == 0);
    let _ = writeln!(
        out,
        "  deadline-bounded sweep: {}",
        if deadline_ok {
            "interrupts"
        } else {
            "DID NOT STOP"
        }
    );

    // Interrupt mid-sweep, round-trip the checkpoint through its text
    // form, resume, and demand the uninterrupted sweep's exact bits.
    let direct = OpTimeSweep::new(points, counts, grids::US_AVERAGE)?;
    let partial = fresh
        .resume(
            &Supervisor::tripping_after(u64::try_from(rows / 2).unwrap_or(1)),
            1,
        )?
        .partial();
    let (roundtrip_ok, resume_ok) = match partial {
        Some(p) => {
            let restored = SweepCheckpoint::from_text(&p.checkpoint.to_text()).ok();
            let roundtrip = restored.as_ref() == Some(&p.checkpoint);
            let resumed = restored
                .and_then(|c| c.resume(&Supervisor::unbounded(), 1).ok())
                .and_then(SupervisedSweep::complete);
            (roundtrip, resumed.as_ref() == Some(&direct))
        }
        None => (false, false),
    };
    let _ = writeln!(
        out,
        "  checkpoint round-trip: {}",
        if roundtrip_ok { "bit-exact" } else { "LOSSY" }
    );
    let _ = writeln!(
        out,
        "  interrupted resume: {}",
        if resume_ok {
            "bit-identical to uninterrupted sweep"
        } else {
            "DIVERGED"
        }
    );

    // Panic isolation: a deliberately panicking work unit must land as a
    // quarantined outcome with the process intact and its peers computed.
    install_panic_probe_filter();
    let mut run = SupervisedMap::new(3);
    run.advance(1, CostHint::per_item_ns(1), &Supervisor::unbounded(), |x| {
        if x == 1 {
            // Deliberate: this probe exists to prove panics are isolated.
            panic!("{PANIC_PROBE} deliberate probe panic"); // cordoba-lint: allow(no-panic)
        }
        x * 2
    });
    let isolation_ok = run.is_complete()
        && matches!(run.outcomes().get(1), Some(Outcome::Panicked(_)))
        && run.outcomes().iter().filter(|o| o.done().is_some()).count() == 2;
    let _ = writeln!(
        out,
        "  panic isolation: {}",
        if isolation_ok {
            "quarantined (process intact)"
        } else {
            "NOT ISOLATED"
        }
    );
    let _ = writeln!(
        out,
        "  supervision status: {}",
        if deadline_ok && roundtrip_ok && resume_ok && isolation_ok {
            "ok"
        } else {
            "UNEXPECTED (see lines above)"
        }
    );
    Ok(())
}

fn cmd_trace_check(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba trace-check <trace.json>\n\
                   Validates a Chrome trace-event JSON file: parses the\n\
                   document, checks ph/ts/pid/tid fields, and verifies\n\
                   per-thread timestamp monotonicity.\n"
            .to_owned());
    }
    args.expect_only(&["threads", "trace-out", "profile-out", "metrics", "help"])?;
    let path = args
        .positional()
        .first()
        .ok_or(CliError::Args(ArgError::Missing("<trace.json> path")))?;
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    let check = cordoba_obs::validate_chrome_trace(&content)
        .map_err(|e| CliError::Usage(format!("{path}: invalid Chrome trace: {e}")))?;
    Ok(format!(
        "{path}: OK ({} events: {} spans, {} counters, {} threads)\n",
        check.events, check.spans, check.counters, check.threads
    ))
}

/// The `profile` command: aggregates a captured Chrome trace into the
/// per-span-name self/total-time profile and prints it as a table.
fn cmd_profile(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba profile <trace.json> [--top <N>]\n\
                   Aggregates a Chrome trace (captured with --trace-out)\n\
                   into a deterministic per-span-name profile: call count,\n\
                   total time, self time (excluding children), and maximum\n\
                   single-span duration. --top caps the rows shown (20).\n"
            .to_owned());
    }
    args.expect_only(&[
        "top",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let path = args
        .positional()
        .first()
        .ok_or(CliError::Args(ArgError::Missing("<trace.json> path")))?;
    let top = args.get_u32("top", 20)?;
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    let report = cordoba_obs::profile_chrome_trace(&content)
        .map_err(|e| CliError::Usage(format!("{path}: invalid Chrome trace: {e}")))?;
    Ok(format!("{path}:\n{}", report.to_table(top as usize)))
}

/// Sanitizes a `time_s,ci` trace CSV and reports every repair; diagnosis
/// never fails, so an unusable trace is reported rather than returned as
/// an error.
fn doctor_trace(args: &Args, path: &str, out: &mut String) -> Result<(), CliError> {
    let policy = match args.get("policy").unwrap_or("lenient") {
        "lenient" => SanitizePolicy::lenient(),
        "production" => SanitizePolicy::production(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy `{other}` (lenient | production)"
            )))
        }
    };
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    let mut samples: Vec<(Seconds, CarbonIntensity)> = Vec::new();
    let mut unparseable: Vec<String> = Vec::new();
    for_each_csv_row(&content, |lineno, line| {
        // The trace header starts with `time...`, which `for_each_csv_row`
        // does not recognize; swallow it here.
        if samples.is_empty() && unparseable.is_empty() && line.to_lowercase().starts_with("time") {
            return;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let parsed = match fields.as_slice() {
            [t, ci] => t
                .parse::<f64>()
                .and_then(|t| ci.parse::<f64>().map(|ci| (t, ci)))
                .ok(),
            _ => None,
        };
        match parsed {
            Some((t, ci)) => samples.push((Seconds::new(t), CarbonIntensity::new(ci))),
            None => unparseable.push(format!("line {lineno}: expected `time_s,ci`")),
        }
    });
    let _ = writeln!(
        out,
        "trace {path}: {} rows parsed, {} unparseable",
        samples.len(),
        unparseable.len()
    );
    for reason in &unparseable {
        let _ = writeln!(out, "  {reason}");
    }
    match TraceCi::sanitize(samples, &policy) {
        Ok((trace, report)) => {
            let _ = writeln!(out, "  {report}");
            let (from, until) = trace.span();
            let _ = writeln!(out, "  span: {from} .. {until}");
            let mean = trace.mean_exact(from, until);
            let _ = writeln!(out, "  mean CI over span (exact): {mean}");
            let _ = writeln!(
                out,
                "  status: {}",
                if report.is_clean() {
                    "clean"
                } else {
                    "DEGRADED (repairs applied)"
                }
            );
        }
        Err(e) => {
            let _ = writeln!(out, "  status: UNUSABLE ({e})");
        }
    }
    Ok(())
}

/// The `replay` command: re-emits a stored run by hash, byte-identically,
/// without invoking the simulator.
fn cmd_replay(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok("cordoba replay <hash> --store <dir>\n\
                   re-emits the stored run identified by <hash> (printed by\n\
                   `dse --store` as `store: run <hash>`) without recomputing;\n\
                   combine with --trace-out to regenerate a Chrome trace\n"
            .to_owned());
    }
    args.expect_only(&[
        "store",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let [hash] = args.positional() else {
        return Err(CliError::Usage(
            "replay expects exactly one <hash> argument".to_owned(),
        ));
    };
    let key = StoreKey::from_hex(hash)
        .ok_or_else(|| CliError::Usage(format!("`{hash}` is not a run hash (32 hex digits)")))?;
    let dir = args
        .get("store")
        .ok_or_else(|| CliError::Usage("replay requires --store <dir>".to_owned()))?;
    let store = open_store(dir)?;
    let lines = store.get(RUN_KIND, key).ok_or_else(|| {
        CliError::Usage(format!(
            "no stored run {hash} in {dir}; re-run with `dse --store`"
        ))
    })?;
    Ok(lines.join("\n"))
}

/// The `cache` command: `inspect` lists the store's entries, `evict`
/// deletes them (all, or one `--kind`).
fn cmd_cache(args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok(
            "cordoba cache <inspect|evict> --store <dir> [--kind <kind>]\n\
                   inspect lists every stored entry (kind, hash, size);\n\
                   with --metrics it also prints the process-wide store\n\
                   hit/miss/write counters from the obs registry\n\
                   evict deletes entries; --kind restricts to one kind\n"
                .to_owned(),
        );
    }
    args.expect_only(&[
        "store",
        "kind",
        "threads",
        "trace-out",
        "profile-out",
        "metrics",
        "help",
    ])?;
    let [action] = args.positional() else {
        return Err(CliError::Usage(
            "cache expects exactly one action: inspect or evict".to_owned(),
        ));
    };
    let dir = args
        .get("store")
        .ok_or_else(|| CliError::Usage("cache requires --store <dir>".to_owned()))?;
    let store = open_store(dir)?;
    let mut out = String::new();
    match action.as_str() {
        "inspect" => {
            if args.get("kind").is_some() {
                return Err(CliError::Usage(
                    "--kind only applies to `cache evict`".to_owned(),
                ));
            }
            let entries = store.entries();
            let mut total = 0u64;
            for entry in &entries {
                total += entry.bytes;
                let _ = writeln!(out, "{:16} {} {:>8} B", entry.kind, entry.key, entry.bytes);
            }
            let _ = writeln!(
                out,
                "total: {} entries, {} B in {dir}",
                entries.len(),
                total
            );
            if args.flag("metrics") {
                let snapshot = cordoba_obs::counter_snapshot();
                let value = |name: &str| {
                    snapshot
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0, |&(_, v)| v)
                };
                let _ = writeln!(
                    out,
                    "store ops this process: {} hits, {} misses, {} writes",
                    value("events/store_hit"),
                    value("events/store_miss"),
                    value("events/store_write")
                );
            }
        }
        "evict" => {
            let removed = store.evict(args.get("kind"));
            match args.get("kind") {
                Some(kind) => {
                    let _ = writeln!(out, "evicted {removed} `{kind}` entries from {dir}");
                }
                None => {
                    let _ = writeln!(out, "evicted {removed} entries from {dir}");
                }
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown cache action `{other}`; expected inspect or evict"
            )));
        }
    }
    Ok(out)
}

/// Leniently parses a design CSV and reports the rows that were dropped.
fn doctor_designs(path: &str, out: &mut String) -> Result<(), CliError> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))?;
    match parse_design_csv_lenient(&content) {
        Ok(report) => {
            let _ = writeln!(
                out,
                "designs {path}: {} rows parsed, {} skipped",
                report.points.len(),
                report.skipped.len()
            );
            for reason in &report.skipped {
                let _ = writeln!(out, "  {reason}");
            }
            let _ = writeln!(
                out,
                "  status: {}",
                if report.skipped.is_empty() {
                    "clean"
                } else {
                    "DEGRADED (rows dropped)"
                }
            );
        }
        Err(e) => {
            let _ = writeln!(out, "designs {path}: status UNUSABLE ({e})");
        }
    }
    Ok(())
}

fn cmd_kernels(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["threads", "trace-out", "profile-out", "metrics", "help"])?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:16} {:>10} {:>12} {:>10}  heavy",
        "kernel", "GMACs", "act (MiB)", "wt (MiB)"
    );
    for k in KernelId::ALL {
        let d = k.descriptor();
        let _ = writeln!(
            out,
            "{:16} {:>10.1} {:>12.1} {:>10.1}  {}",
            k.short_name(),
            d.macs / 1e9,
            d.activation.to_mebibytes(),
            d.weights.to_mebibytes(),
            if k.is_activation_heavy() { "yes" } else { "no" }
        );
    }
    Ok(out)
}

fn cmd_tasks(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["threads", "trace-out", "profile-out", "metrics", "help"])?;
    let mut out = String::new();
    for task in Task::evaluation_suite() {
        let kernels: Vec<&str> = task.kernels().map(KernelId::short_name).collect();
        let _ = writeln!(out, "{:14} {}", task.name(), kernels.join(", "));
    }
    Ok(out)
}

fn cmd_grids(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["threads", "trace-out", "profile-out", "metrics", "help"])?;
    let mut out = String::new();
    for (name, ci) in [
        ("coal", grids::COAL),
        ("gas", grids::GAS),
        ("world", grids::WORLD_AVERAGE),
        ("us", grids::US_AVERAGE),
        ("solar", grids::SOLAR),
        ("hydro", grids::HYDRO),
        ("nuclear", grids::NUCLEAR),
        ("wind", grids::WIND),
    ] {
        let _ = writeln!(out, "{name:8} {ci}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        run(&argv)
    }

    #[test]
    fn no_command_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run_str("help").unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn metrics_computes_tcdp() {
        let out = run_str("metrics --delay 0.5 --energy 2.0 --embodied 450 --tasks 1e8 --grid us")
            .unwrap();
        assert!(out.contains("tCDP"));
        assert!(out.contains("% embodied"));
        // Missing required option.
        let err = run_str("metrics --delay 0.5").unwrap_err();
        assert!(err.to_string().contains("--energy"));
        // Bad numbers.
        assert!(run_str("metrics --delay x --energy 1 --embodied 1").is_err());
    }

    #[test]
    fn metrics_rejects_unknown_options() {
        let err = run_str("metrics --delay 1 --energy 1 --embodied 1 --bogus 3").unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn threads_option_is_global_and_validated() {
        // Accepted on any command; results are thread-count invariant.
        let capped = run_str("provision --app m1 --threads 2").unwrap();
        let auto = run_str("provision --app m1").unwrap();
        assert_eq!(capped, auto);
        // Zero and non-numeric counts are rejected up front.
        for bad in ["0", "x", "-1"] {
            let err = run_str(&format!(
                "metrics --delay 1 --energy 1 --embodied 1 --threads {bad}"
            ))
            .unwrap_err();
            assert!(err.to_string().contains("threads"), "{bad}: {err}");
        }
    }

    #[test]
    fn dse_runs_for_every_task_name() {
        for task in ["all", "xr10", "ai10", "xr5", "ai5"] {
            let out = run_str(&format!("dse --task {task} --lo 5 --hi 8")).unwrap();
            assert!(out.contains("survivors:"), "{task}");
        }
        assert!(run_str("dse --task nope").is_err());
        assert!(run_str("dse --lo 8 --hi 5").is_err());
    }

    /// Value of a named global counter (0 if it never registered).
    fn counter_value(name: &str) -> u64 {
        cordoba_obs::counter_snapshot()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn dse_store_warm_and_replay_are_byte_identical() {
        let dir = std::env::temp_dir().join("cordoba-cli-test-store-dse");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!("dse --task xr5 --lo 5 --hi 7 --store {}", dir.display());
        let cold = run_str(&cmd).unwrap();
        assert!(cold.contains("survivors:"));
        let hash = cold
            .lines()
            .find_map(|l| l.strip_prefix("store: run "))
            .expect("stored run prints its hash")
            .to_owned();
        // Second run is served from the store, byte-for-byte.
        let warm = run_str(&cmd).unwrap();
        assert_eq!(cold, warm);
        // `replay <hash>` re-emits the identical bytes.
        let replayed = run_str(&format!("replay {hash} --store {}", dir.display())).unwrap();
        assert_eq!(replayed, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_does_not_recompute() {
        let dir = std::env::temp_dir().join("cordoba-cli-test-store-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run_str(&format!(
            "dse --task ai5 --lo 5 --hi 7 --store {}",
            dir.display()
        ))
        .unwrap();
        let hash = cold
            .lines()
            .find_map(|l| l.strip_prefix("store: run "))
            .unwrap()
            .to_owned();
        // With metrics on, replay must hit the store and leave the solver
        // counters untouched: nothing is recomputed.
        let beta_before = counter_value("core/beta_evaluations");
        let hits_before = counter_value("events/store_hit");
        let out = run_str(&format!(
            "replay {hash} --store {} --metrics",
            dir.display()
        ))
        .unwrap();
        assert!(out.starts_with(&cold), "replay re-emits the stored bytes");
        assert_eq!(counter_value("core/beta_evaluations"), beta_before);
        assert!(counter_value("events/store_hit") > hits_before);
        // Usage errors: malformed hash, missing --store, unknown hash.
        assert!(run_str("replay nothex --store /tmp/x").is_err());
        assert!(run_str(&format!("replay {hash}")).is_err());
        let missing = format!("{:032x}", 7u128);
        assert!(run_str(&format!("replay {missing} --store {}", dir.display())).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run that finishes must not switch the metrics registry off under
    /// another in-process run that is still counting (before the layers
    /// were reference-counted, a `replay --metrics` beside a looping
    /// `kernels --metrics` run lost store hits).
    #[test]
    fn a_finishing_run_leaves_overlapping_runs_counting() {
        // Stands in for a `--metrics` run still in progress elsewhere.
        cordoba_obs::acquire(Layer::Metrics);
        let finished = run_str("kernels --metrics");
        let still_counting = cordoba_obs::metrics_enabled();
        cordoba_obs::release(Layer::Metrics);
        finished.unwrap();
        assert!(still_counting, "a finishing run switched metrics off");
    }

    #[test]
    fn cache_inspect_and_evict_round_trip() {
        let dir = std::env::temp_dir().join("cordoba-cli-test-store-cache");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run_str(&format!(
            "dse --task xr10 --lo 5 --hi 7 --store {}",
            dir.display()
        ))
        .unwrap();
        let hash = cold
            .lines()
            .find_map(|l| l.strip_prefix("store: run "))
            .unwrap()
            .to_owned();
        // One run leaves one entry per memoized stage.
        let listing = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
        assert!(listing.contains("eval_space"));
        assert!(listing.contains("op_time_sweep"));
        assert!(listing.contains(&hash));
        assert!(listing.contains("total: 3 entries"));
        // Evicting one kind leaves the others; the replayed run is gone.
        let out = run_str(&format!("cache evict --store {} --kind run", dir.display())).unwrap();
        assert!(out.contains("evicted 1"));
        assert!(run_str(&format!("replay {hash} --store {}", dir.display())).is_err());
        let out = run_str(&format!("cache evict --store {}", dir.display())).unwrap();
        assert!(out.contains("evicted 2"));
        let listing = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
        assert!(listing.contains("total: 0 entries"));
        // Usage errors.
        assert!(run_str("cache inspect").is_err());
        assert!(run_str(&format!("cache defrost --store {}", dir.display())).is_err());
        assert!(run_str(&format!(
            "cache inspect --store {} --kind run",
            dir.display()
        ))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dse_store_conflicts_with_supervision() {
        for conflict in ["--deadline 5s", "--checkpoint /tmp/c", "--resume /tmp/c"] {
            let err = run_str(&format!("dse --task xr5 --store /tmp/s {conflict}")).unwrap_err();
            assert!(err.to_string().contains("--store"), "{conflict}: {err}");
        }
    }

    #[test]
    fn provision_reports_optimum() {
        let out = run_str("provision --app m1").unwrap();
        assert!(out.contains("<== optimal"));
        assert!(out.contains("4 cores"));
        assert!(run_str("provision --app nope").is_err());
    }

    #[test]
    fn stacking_reports_winner() {
        let out = run_str("stacking --share 0.08").unwrap();
        assert!(out.contains("3D_2K_8M"));
        let out = run_str("stacking --share 0.8").unwrap();
        assert!(out.contains("3D_2K_4M"));
    }

    #[test]
    fn grids_accepts_names_and_numbers() {
        assert!(grid_by_name("solar").is_ok());
        assert!((grid_by_name("123.5").unwrap().value() - 123.5).abs() < 1e-12);
        assert!(grid_by_name("unobtainium").is_err());
        let out = run_str("grids").unwrap();
        assert!(out.contains("coal") && out.contains("820"));
    }

    #[test]
    fn kernel_and_task_listings() {
        let out = run_str("kernels").unwrap();
        assert!(out.contains("SR (1024x1024)"));
        assert_eq!(out.lines().count(), 16); // header + 15 kernels
        let out = run_str("tasks").unwrap();
        assert!(out.contains("XR 5 kernels"));
    }

    #[test]
    fn eliminate_parses_csv() {
        let csv = "name,delay,energy,embodied\n\
                   lean,1.6,1.0,90\n\
                   wasteful,1.6,3.0,300\n\
                   beefy,0.5,4.0,420\n";
        let points = parse_design_csv(csv).unwrap();
        assert_eq!(points.len(), 3);
        let sweep = BetaSweep::run(&points);
        assert!(sweep.eliminated_names().contains(&"wasteful"));
        // Malformed rows.
        assert!(parse_design_csv("a,b\n").is_err());
        assert!(parse_design_csv("x,1,2,banana\n").is_err());
        assert!(parse_design_csv("\n# only comments\n").is_err());
    }

    #[test]
    fn eliminate_end_to_end_via_tempfile() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("designs.csv");
        std::fs::write(&path, "a,1.0,1.0,10\nb,2.0,2.0,20\n").unwrap();
        let out = run_str(&format!("eliminate --csv {}", path.display())).unwrap();
        assert!(out.contains("survivors"));
        assert!(out.contains('b'));
        let _ = std::fs::remove_file(path);
        assert!(run_str("eliminate --csv /nonexistent/x.csv").is_err());
        assert!(run_str("eliminate").is_err());
    }

    #[test]
    fn help_flags_per_command() {
        for cmd in [
            "metrics",
            "dse",
            "provision",
            "stacking",
            "eliminate",
            "doctor",
        ] {
            let out = run_str(&format!("{cmd} --help")).unwrap();
            assert!(out.contains("cordoba"), "{cmd}");
        }
    }

    #[test]
    fn lenient_csv_parser_reports_line_numbers() {
        let csv = "name,delay,energy,embodied\n\
                   good,1.0,1.0,10\n\
                   bad,row\n\
                   worse,1.0,banana,30\n\
                   fine,2.0,2.0,20\n";
        // Strict mode aborts on the first malformed row with its line.
        let err = parse_design_csv(csv).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        // Lenient mode keeps the good rows and reports each skip.
        let report = parse_design_csv_lenient(csv).unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped[0].contains("line 3"));
        assert!(report.skipped[1].contains("line 4"));
        assert!(report.skipped[1].contains("banana"));
        // A fully malformed file is still an error.
        assert!(parse_design_csv_lenient("junk,row\n").is_err());
    }

    #[test]
    fn lenient_eliminate_skips_bad_rows() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("messy.csv");
        std::fs::write(&path, "a,1.0,1.0,10\nnot a row\nb,2.0,2.0,20\n").unwrap();
        let arg = format!("eliminate --csv {}", path.display());
        assert!(run_str(&arg).is_err(), "strict mode must abort");
        let out = run_str(&format!("{arg} --lenient")).unwrap();
        assert!(out.contains("skipped 1 malformed rows"));
        assert!(out.contains("line 2"));
        assert!(out.contains("2 candidates"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn dse_lenient_matches_strict_on_clean_space() {
        let strict = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
        let lenient = run_str("dse --task xr5 --lo 5 --hi 7 --lenient").unwrap();
        // The built-in space is clean, so no quarantine block appears and
        // the sweep output is identical.
        assert_eq!(strict, lenient);
    }

    #[test]
    fn parse_duration_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_duration("5s").unwrap(), Duration::from_secs(5));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(parse_duration("0s").unwrap(), Duration::ZERO);
        assert_eq!(parse_duration("1.5").unwrap(), Duration::from_millis(1500));
        for bad in ["", "banana", "-3s", "nan", "9e99h", "5 s s"] {
            assert!(parse_duration(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strict_csv_parser_reports_every_malformed_line() {
        let csv = "name,delay,energy,embodied\n\
                   good,1.0,1.0,10\n\
                   bad,row\n\
                   worse,1.0,banana,30\n\
                   fine,2.0,2.0,20\n";
        let err = parse_design_csv(csv).unwrap_err().to_string();
        assert!(err.contains("2 malformed row(s)"), "{err}");
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("line 4"), "{err}");
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn dse_deadline_writes_checkpoint_and_resume_matches_direct_run() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let _ = std::fs::remove_file(&path);
        // A zero deadline interrupts before any row but after the
        // deadline-free evaluation stage, so the checkpoint always lands.
        let out = run_str(&format!(
            "dse --task xr5 --lo 5 --hi 7 --deadline 0s --checkpoint {}",
            path.display()
        ))
        .unwrap();
        assert!(
            out.contains("sweep interrupted (deadline-exceeded)"),
            "{out}"
        );
        assert!(out.contains("checkpoint written"), "{out}");
        let saved = std::fs::read_to_string(&path).unwrap();
        assert!(saved.starts_with("cordoba-sweep-checkpoint v1"), "{saved}");
        // Resuming completes the sweep and reproduces the direct run's
        // crossover table and elimination summary exactly.
        let resumed = run_str(&format!("dse --resume {}", path.display())).unwrap();
        let direct = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
        assert!(resumed.starts_with("resuming"), "{resumed}");
        let resumed_body: Vec<&str> = resumed.lines().skip(1).collect();
        let direct_body: Vec<&str> = direct.lines().skip(1).collect();
        assert_eq!(resumed_body, direct_body);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dse_deadline_without_checkpoint_is_an_error() {
        let err = run_str("dse --task xr5 --lo 5 --hi 7 --deadline 0s").unwrap_err();
        assert!(err.to_string().contains("--checkpoint"), "{err}");
    }

    #[test]
    fn dse_resume_validates_inputs() {
        // Resume with sweep-shaping options is contradictory.
        let err = run_str("dse --resume whatever.ckpt --task xr5").unwrap_err();
        assert!(err.to_string().contains("--task"), "{err}");
        // Missing and corrupt checkpoint files are usage errors.
        assert!(run_str("dse --resume /nonexistent/x.ckpt").is_err());
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ckpt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = run_str(&format!("dse --resume {}", path.display())).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dse_rejects_bad_deadline() {
        let err = run_str("dse --task xr5 --deadline banana").unwrap_err();
        assert!(err.to_string().contains("duration"), "{err}");
    }

    #[test]
    fn dse_attribution_table_appends_to_output() {
        let out = run_str("dse --task xr5 --lo 5 --hi 7 --attribution -").unwrap();
        assert!(out.contains("survivors:"), "{out}");
        assert!(out.contains("attribution:"), "{out}");
        assert!(out.contains("embodied*D"), "{out}");
        assert!(out.contains("operational*D"), "{out}");
        // The base sweep output is unchanged by the ledger request.
        let plain = run_str("dse --task xr5 --lo 5 --hi 7").unwrap();
        assert!(out.starts_with(&plain), "ledger must append, not rewrite");
    }

    #[test]
    fn dse_attribution_json_reconciles_with_sweep() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("attrib.json");
        let _ = std::fs::remove_file(&path);
        let out = run_str(&format!(
            "dse --task ai5 --lo 5 --hi 7 --attribution {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("attribution written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = cordoba_obs::json::parse(&text).expect("ledger is valid JSON");
        for key in ["ci_use", "task_counts", "configs", "totals", "quarantined"] {
            assert!(doc.get(key).is_some(), "missing `{key}` in ledger");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dse_attribution_rides_along_with_store() {
        let dir = std::env::temp_dir().join("cordoba-cli-test-store-attrib");
        let _ = std::fs::remove_dir_all(&dir);
        let base = format!("dse --task xr5 --lo 5 --hi 7 --store {}", dir.display());
        let cold = run_str(&base).unwrap();
        // A warm attribution request bypasses the run memo but reuses the
        // stage memos underneath; the stored payload stays byte-identical
        // and the ledger appends after it.
        let with_ledger = run_str(&format!("{base} --attribution -")).unwrap();
        assert!(with_ledger.starts_with(&cold), "{with_ledger}");
        assert!(with_ledger.contains("attribution:"), "{with_ledger}");
        // A later plain warm run is still served from the memo unchanged.
        assert_eq!(run_str(&base).unwrap(), cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dse_attribution_conflicts_with_resume() {
        let err = run_str("dse --resume x.ckpt --attribution -").unwrap_err();
        assert!(err.to_string().contains("attribution"), "{err}");
    }

    #[test]
    fn dse_lenient_conflicts_with_resume() {
        // A resumed sweep never re-evaluates the space, so `--lenient`
        // would be silently ignored.
        let err = run_str("dse --resume x.ckpt --lenient").unwrap_err();
        assert!(err.to_string().contains("drop --lenient"), "{err}");
    }

    #[test]
    fn dse_checkpoint_requires_deadline() {
        // Without a deadline the sweep is never interrupted, so the
        // checkpoint file would never be written.
        let err = run_str("dse --task xr5 --lo 5 --hi 7 --checkpoint x.ckpt").unwrap_err();
        assert!(err.to_string().contains("add --deadline"), "{err}");
        let err = run_str("dse --resume x.ckpt --checkpoint y.ckpt").unwrap_err();
        assert!(err.to_string().contains("add --deadline"), "{err}");
    }

    #[test]
    fn profile_verb_aggregates_a_captured_trace() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile-trace.json");
        let _ = std::fs::remove_file(&path);
        let out = run_str(&format!(
            "dse --task xr5 --lo 5 --hi 7 --trace-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        let table = run_str(&format!("profile {}", path.display())).unwrap();
        assert!(table.contains("span"), "{table}");
        assert!(table.contains("self_ns"), "{table}");
        assert!(table.contains("core/evaluate_space"), "{table}");
        // --top caps the table body.
        let capped = run_str(&format!("profile {} --top 1", path.display())).unwrap();
        assert!(capped.lines().count() < table.lines().count(), "{capped}");
        // Usage errors: missing path, unreadable file, invalid trace.
        assert!(run_str("profile").is_err());
        assert!(run_str("profile /nonexistent/trace.json").is_err());
        let bad = dir.join("not-a-trace.json");
        std::fs::write(&bad, "hello").unwrap();
        assert!(run_str(&format!("profile {}", bad.display())).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn profile_out_writes_profile_json() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-profile.json");
        let _ = std::fs::remove_file(&path);
        let out = run_str(&format!(
            "dse --task xr5 --lo 5 --hi 7 --profile-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("profile written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = cordoba_obs::json::parse(&text).expect("profile is valid JSON");
        for key in ["entries", "wall_ns", "spans", "threads"] {
            assert!(doc.get(key).is_some(), "missing `{key}` in profile");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn doctor_prometheus_probe_self_validates() {
        let out = run_str("doctor --metrics").unwrap();
        assert!(out.contains("# TYPE"), "{out}");
        assert!(out.contains("prometheus exposition: OK"), "{out}");
    }

    #[test]
    fn cache_inspect_metrics_prints_store_counters() {
        let dir = std::env::temp_dir().join("cordoba-cli-test-store-inspect");
        let _ = std::fs::remove_dir_all(&dir);
        run_str(&format!(
            "dse --task xr5 --lo 5 --hi 7 --store {}",
            dir.display()
        ))
        .unwrap();
        let plain = run_str(&format!("cache inspect --store {}", dir.display())).unwrap();
        assert!(!plain.contains("store ops this process"), "{plain}");
        let with_counters = run_str(&format!(
            "cache inspect --store {} --metrics",
            dir.display()
        ))
        .unwrap();
        assert!(
            with_counters.contains("store ops this process:"),
            "{with_counters}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctor_self_check_reports_supervision_health() {
        let out = run_str("doctor --metrics").unwrap();
        assert!(
            out.contains("supervision: deadline + checkpoint + panic probes"),
            "{out}"
        );
        assert!(out.contains("deadline-bounded sweep: interrupts"), "{out}");
        assert!(out.contains("checkpoint round-trip: bit-exact"), "{out}");
        assert!(
            out.contains("interrupted resume: bit-identical to uninterrupted sweep"),
            "{out}"
        );
        assert!(
            out.contains("panic isolation: quarantined (process intact)"),
            "{out}"
        );
        assert!(out.contains("supervision status: ok"), "{out}");
        // The probe populates the whole supervision counter family, so the
        // appended metrics dump must carry it.
        for counter in [
            "supervision_deadline_exceeded",
            "supervision_cancelled",
            "supervision_chunk_panic",
            "supervision_checkpoint_written",
            "supervision_checkpoint_restored",
        ] {
            assert!(out.contains(counter), "missing {counter} in:\n{out}");
        }
    }

    #[test]
    fn doctor_reports_trace_repairs() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(
            &path,
            "time_s,ci\n0,400\n3600,nan\n7200,-5\n7200,410\n10800,420\nbroken line\n",
        )
        .unwrap();
        let out = run_str(&format!("doctor --trace {}", path.display())).unwrap();
        assert!(out.contains("5 rows parsed, 1 unparseable"), "{out}");
        assert!(out.contains("line 7"), "{out}");
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("span:"), "{out}");
        assert!(out.contains("mean CI over span (exact):"), "{out}");
        // Unknown policy is rejected; known policies both work.
        assert!(run_str(&format!("doctor --trace {} --policy bogus", path.display())).is_err());
        let out = run_str(&format!(
            "doctor --trace {} --policy production",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("sanitized"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn doctor_reports_design_rows_and_requires_input() {
        let dir = std::env::temp_dir().join("cordoba-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doctor-designs.csv");
        std::fs::write(&path, "a,1.0,1.0,10\nbad\n").unwrap();
        let out = run_str(&format!("doctor --designs {}", path.display())).unwrap();
        assert!(out.contains("1 rows parsed, 1 skipped"), "{out}");
        assert!(out.contains("DEGRADED"), "{out}");
        let _ = std::fs::remove_file(path);
        // No input at all is a usage error.
        assert!(run_str("doctor").is_err());
    }
}
