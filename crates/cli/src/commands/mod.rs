//! The `cordoba` CLI subcommands, each declared once in the verb table
//! that [`run`] parses against and `cordoba help` lists. Every handler is a
//! pure function from parsed arguments to output text, so it is testable.

mod doctor;
mod dse;
mod eliminate;
mod listings;
mod obs;
mod store;
mod study;
#[cfg(test)]
mod tests;

pub use eliminate::{parse_design_csv, parse_design_csv_lenient, DesignCsvReport};

// Also the verb modules' imports, through their `use super::*`.
use crate::args::{ArgError, Args};
use cordoba::prelude::*;
use cordoba_accel::space::design_space;
use cordoba_carbon::prelude::*;
use cordoba_obs::Layer;
use cordoba_par::supervise::Supervisor;
use cordoba_store::Store;
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

/// One `cordoba` verb; `flags` and `options` exclude the global ones.
struct Verb {
    name: &'static str,
    /// Its `cordoba help` entry; a second line is indented under the first.
    summary: &'static str,
    help: &'static str,
    flags: &'static [&'static str],
    options: &'static [&'static str],
    /// The most positional arguments it takes.
    positionals: usize,
    run: fn(&Args<'_>) -> Result<String, CliError>,
}

/// Every verb, in `cordoba help` order.
const VERBS: &[Verb] = &[
    Verb {
        name: "metrics",
        summary: "evaluate EDP/tC/CCI/tCDP for one design point",
        help: "cordoba metrics --delay <s> --energy <J> --embodied <gCO2e> \
               [--area <cm2>] [--tasks <N>] [--grid <name|gCO2e/kWh>]\n",
        flags: &[],
        options: &["delay", "energy", "embodied", "area", "tasks", "grid"],
        positionals: 0,
        run: study::metrics,
    },
    Verb {
        name: "dse",
        summary: "explore the 121-accelerator space for a task",
        help: "cordoba dse --task <all|xr10|ai10|xr5|ai5> [--grid <name>] \
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
               recomputing, and prints a hash usable with `replay`\n",
        flags: &["lenient"],
        options: &[
            "task",
            "grid",
            "lo",
            "hi",
            "deadline",
            "checkpoint",
            "resume",
            "store",
            "attribution",
        ],
        positionals: 0,
        run: dse::dse,
    },
    Verb {
        name: "provision",
        summary: "sweep VR SoC core counts for an app",
        help: "cordoba provision --app <m1|g2|b1|sg1|all> [--years <f>] [--grid <name>]\n",
        flags: &[],
        options: &["app", "years", "grid"],
        positionals: 0,
        run: study::provision,
    },
    Verb {
        name: "stacking",
        summary: "evaluate the 3D-integration study",
        help: "cordoba stacking [--share <embodied fraction, default 0.8>]\n",
        flags: &[],
        options: &["share"],
        positionals: 0,
        run: study::stacking,
    },
    Verb {
        name: "eliminate",
        summary: "Pareto/beta-sweep elimination over designs from a CSV",
        help: "cordoba eliminate --csv <file> [--lenient]\n\
               CSV columns: name,delay_s,energy_j,embodied_gco2e\n\
               --lenient skips malformed rows (reported) instead of aborting\n",
        flags: &["lenient"],
        options: &["csv"],
        positionals: 0,
        run: eliminate::eliminate,
    },
    Verb {
        name: "doctor",
        summary: "sanity-check a trace/design CSV and print repair reports\n\
                  (with --metrics alone: run the built-in self-check probe)",
        help: "cordoba doctor [--trace <csv>] [--designs <csv>] \
               [--policy <lenient|production>]\n\
               Ingests messy CSVs and prints sanitize/repair reports.\n\
               Trace CSV columns: time_s,ci_gco2e_per_kwh\n\
               Design CSV columns: name,delay_s,energy_j,embodied_gco2e\n\
               With --metrics and no inputs: runs a built-in self-check\n\
               probe (sanitizer, fallback tiers, embodied cache, and\n\
               supervision health: deadline sweep, checkpoint\n\
               round-trip, panic isolation), prints the Prometheus\n\
               text exposition of the registry it populated (self-\n\
               validated), and dumps the registry as JSON lines.\n",
        flags: &[],
        options: &["trace", "designs", "policy"],
        positionals: 0,
        run: doctor::doctor,
    },
    Verb {
        name: "trace-check",
        summary: "validate a Chrome trace-event JSON file",
        help: "cordoba trace-check <trace.json>\n\
               Validates a Chrome trace-event JSON file: parses the\n\
               document, checks ph/ts/pid/tid fields, and verifies\n\
               per-thread timestamp monotonicity.\n",
        flags: &[],
        options: &[],
        positionals: 1,
        run: obs::trace_check,
    },
    Verb {
        name: "profile",
        summary: "aggregate a Chrome trace into a per-span self-time profile",
        help: "cordoba profile <trace.json> [--top <N>]\n\
               Aggregates a Chrome trace (captured with --trace-out)\n\
               into a deterministic per-span-name profile: call count,\n\
               total time, self time (excluding children), and maximum\n\
               single-span duration. --top caps the rows shown (20).\n",
        flags: &[],
        options: &["top"],
        positionals: 1,
        run: obs::profile,
    },
    Verb {
        name: "replay",
        summary: "re-emit a stored run by hash without recomputing",
        help: "cordoba replay <hash> --store <dir>\n\
               re-emits the stored run identified by <hash> (printed by\n\
               `dse --store` as `store: run <hash>`) without recomputing;\n\
               combine with --trace-out to regenerate a Chrome trace\n",
        flags: &[],
        options: &["store"],
        positionals: 1,
        run: store::replay,
    },
    Verb {
        name: "cache",
        summary: "inspect or evict the persistent result store",
        help: "cordoba cache <inspect|evict> --store <dir> [--kind <kind>]\n\
               inspect lists every stored entry (kind, hash, size);\n\
               with --metrics it also prints the process-wide store\n\
               hit/miss/write counters from the obs registry\n\
               evict deletes entries; --kind restricts to one kind\n",
        flags: &[],
        options: &["store", "kind"],
        positionals: 1,
        run: store::cache,
    },
    Verb {
        name: "kernels",
        summary: "list the workload kernels",
        help: "cordoba kernels\nLists each workload kernel's GMACs and footprints.\n",
        flags: &[],
        options: &[],
        positionals: 0,
        run: listings::kernels,
    },
    Verb {
        name: "tasks",
        summary: "list the evaluation tasks",
        help: "cordoba tasks\nLists each evaluation task with its kernels.\n",
        flags: &[],
        options: &[],
        positionals: 0,
        run: listings::tasks,
    },
    Verb {
        name: "grids",
        summary: "list built-in carbon intensities",
        help: "cordoba grids\nLists the built-in grids' carbon intensities.\n",
        flags: &[],
        options: &[],
        positionals: 0,
        run: listings::grids,
    },
];

/// The top-level usage text; [`usage`] fills in `{verbs}`.
const USAGE: &str = "\
cordoba — carbon-efficient optimization framework (tCDP)

USAGE:
    cordoba <COMMAND> [OPTIONS]

COMMANDS:
{verbs}    help         show this message

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

/// [`USAGE`] with its command list generated from the verb table.
fn usage() -> String {
    let mut verbs = String::new();
    for verb in VERBS {
        let summary = verb.summary.replace('\n', &format!("\n{:17}", ""));
        let _ = writeln!(verbs, "    {:13}{summary}", verb.name);
    }
    USAGE.replace("{verbs}", &verbs)
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing invalid usage or model errors.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let command = match argv.first() {
        Some(command) if !matches!(command.as_str(), "help" | "--help" | "-h") => command,
        _ => return Ok(usage()),
    };
    let verb = VERBS
        .iter()
        .find(|verb| verb.name == command)
        .ok_or_else(|| {
            CliError::Usage(format!("unknown command `{command}`; run `cordoba help`"))
        })?;
    let args = Args::parse(&argv[1..], verb.flags, verb.options, verb.positionals)?;
    apply_threads(&args)?;
    let obs = ObsOptions::from_args(&args);
    // Held to the end of the run, and released on unwind.
    let _trace = obs.enable();
    let result = if args.flag("help") {
        Ok(verb.help.to_owned())
    } else {
        (verb.run)(&args)
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
struct ObsOptions<'a> {
    trace_out: Option<&'a str>,
    profile_out: Option<&'a str>,
    metrics: bool,
}

impl<'a> ObsOptions<'a> {
    fn from_args(args: &Args<'a>) -> Self {
        Self {
            trace_out: args.get("trace-out"),
            profile_out: args.get("profile-out"),
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
        if let Some(path) = self.profile_out {
            result = result.and_then(|mut out| {
                write_file(path, &cordoba_obs::profile_report().to_json())?;
                let _ = writeln!(out, "profile written to {path}");
                Ok(out)
            });
        }
        if let Some(path) = self.trace_out {
            let trace = cordoba_obs::drain_chrome_trace();
            result = result.and_then(|mut out| {
                write_file(path, &trace)?;
                let _ = writeln!(out, "trace written to {path}");
                Ok(out)
            });
        }
        result
    }
}

/// Applies the global `--threads <N>` option: caps the process-wide worker
/// pool every parallel sweep draws from. Absent means all available cores.
fn apply_threads(args: &Args<'_>) -> Result<(), CliError> {
    let threads = args.get_as::<std::num::NonZeroUsize>("threads", "a positive integer")?;
    if threads.is_some() {
        cordoba_par::set_threads(threads);
    }
    Ok(())
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Usage(format!("cannot write {path}: {e}")))
}

/// The built-in grids, in `cordoba grids` order.
const GRIDS: [(&str, CarbonIntensity); 8] = [
    ("coal", grids::COAL),
    ("gas", grids::GAS),
    ("world", grids::WORLD_AVERAGE),
    ("us", grids::US_AVERAGE),
    ("solar", grids::SOLAR),
    ("hydro", grids::HYDRO),
    ("nuclear", grids::NUCLEAR),
    ("wind", grids::WIND),
];

fn grid_by_name(name: &str) -> Result<CarbonIntensity, CliError> {
    if let Some(&(_, ci)) = GRIDS.iter().find(|(grid, _)| *grid == name) {
        return Ok(ci);
    }
    name.parse().map(CarbonIntensity::new).map_err(|_| {
        let names: Vec<&str> = GRIDS.iter().map(|&(grid, _)| grid).collect();
        CliError::Usage(format!(
            "unknown grid `{name}` (try {} or a gCO2e/kWh number)",
            names.join("/")
        ))
    })
}

/// Opens the persistent store at `dir` (creating it if needed).
fn open_store(dir: &str) -> Result<Store, CliError> {
    Store::open(dir).map_err(|e| CliError::Usage(format!("cannot open store {dir}: {e}")))
}
