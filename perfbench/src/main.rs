//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse_cold|store_mixed|uncertainty|cli_session> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process, one closed-loop client,
//! every pipeline pinned to one worker thread. A run is `ROUNDS` rounds
//! of set-up followed by ops, so the set-up samples are spread over the
//! run like the op samples. The last stdout line is the result object;
//! the line before it records the run environment.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced ops and reports the per-layer metrics.
//
// cordoba-lint: allow-file(wall-clock, ambient-input, lossy-cast) —
// the entry point times ops with the wall clock, owns its work directory,
// and turns counts into rates.

use cordoba_perfbench::trace::{stopwatch, Reported, Tracer};
use cordoba_perfbench::workloads;
use cordoba_perfbench::{calibration_ms, filesystem_of, median, peak_rss_mib, percentile, Scale};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rounds per run, each a fresh set-up and then an equal share of the
/// measured time; `setup_s` is the median of the rounds' set-up times.
const ROUNDS: u32 = 9;
/// Untimed ops after each set-up, so lazy state settles before measuring.
const WARMUP_OPS: usize = 2;
/// Calibration loops timed at each end of a run.
const CALIBRATION_REPS: usize = 3;
/// Where runs keep their stores and files, under the working directory.
const WORK_ROOT: &str = ".perfbench_work";

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Options {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_metrics(metrics: &Reported) -> String {
    let mut out = String::from("{");
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push('}');
    out
}

fn json_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| json_number(*v))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Op times of one run, in milliseconds, the op counts, the set-up time
/// of every round, in seconds, the peak resident set of the first round,
/// and the workload's input sizes.
#[derive(Default)]
struct Measured {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    peak_rss_mib: f64,
    sizes: Vec<(&'static str, usize)>,
}

impl Measured {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            if self.failed < 5 {
                eprintln!("failed op: {e}");
            }
            self.failed += 1;
        }
    }
}

/// The closed loop. Each round sets the workload up from scratch in an
/// empty directory (the previous round's inputs already freed), runs
/// untimed warm-up ops, then runs ops for its share of `opts.seconds`;
/// with `--trace 1` every other op takes the traced path.
fn measure(opts: &Options, work: &Path, tracer: &mut Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let slice = Duration::from_secs(opts.seconds) / ROUNDS;
    let mut i = 0;
    for round in 0..ROUNDS {
        let dir = work.join(format!("round{round}"));
        fresh_dir(&dir)?;
        let (built, ns) =
            stopwatch(|| workloads::setup(&opts.workload, opts.seed, Scale::Full, &dir));
        m.setup_s.push(ns / 1e9);
        let mut workload = built?;
        m.sizes = workload.sizes();
        tracer.set_enabled(false);
        for _ in 0..WARMUP_OPS {
            m.record(workload.op(i, tracer));
            i += 1;
        }
        let round_start = Instant::now();
        while round_start.elapsed() < slice {
            let traced = opts.trace && i % 2 == 1;
            tracer.set_enabled(traced);
            let result = workload.op(i, tracer);
            if result.is_ok() {
                let ms = tracer.last_op_ns() / 1e6;
                if traced {
                    m.traced_ms.push(ms);
                } else {
                    m.untraced_ms.push(ms);
                }
            }
            m.record(result);
            i += 1;
        }
        if round == 0 {
            // One set-up and its ops is what a user's process holds; later
            // rounds only add allocator fragmentation from repeated set-ups.
            m.peak_rss_mib = peak_rss_mib();
        }
        drop(workload);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(m)
}

fn run(opts: &Options) -> Result<(), String> {
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {:?})",
            opts.workload,
            workloads::NAMES
        ));
    }
    cordoba_par::set_threads(NonZeroUsize::new(1));
    let calibration_start: Vec<f64> = (0..CALIBRATION_REPS).map(|_| calibration_ms()).collect();
    let work =
        WorkDir(Path::new(WORK_ROOT).join(format!("{}-{}", opts.workload, std::process::id())));
    let mut tracer = Tracer::new(false);
    let mut m = measure(opts, &work.0, &mut tracer)?;
    let calibration_end: Vec<f64> = (0..CALIBRATION_REPS).map(|_| calibration_ms()).collect();
    if m.untraced_ms.is_empty() || (opts.trace && m.traced_ms.is_empty()) {
        return Err("no op completed".to_owned());
    }
    m.untraced_ms.sort_by(f64::total_cmp);

    let metrics = if opts.trace {
        let calibration = [calibration_start.as_slice(), &calibration_end].concat();
        tracer.layer_metrics(&[
            (
                "trace.overhead_ratio",
                median(&m.traced_ms) / median(&m.untraced_ms),
            ),
            ("host.calib_ms", median(&calibration)),
        ])
    } else {
        BTreeMap::from([
            ("op_ms.p90", (percentile(&m.untraced_ms, 0.9), "ms")),
            ("setup_s", (median(&m.setup_s), "s")),
            ("peak_rss_mib", (m.peak_rss_mib, "MiB")),
        ])
    };

    let op_seconds = m.untraced_ms.iter().sum::<f64>() / 1e3;
    let sizes = m
        .sizes
        .iter()
        .map(|(name, size)| format!("\"{name}\": {size}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"threads\": {}, \"store_fs\": \"{}\", \"rounds\": {ROUNDS}, \
         \"untraced_ops\": {}, \"traced_ops\": {}, \"op_ms_p50\": {}, \"op_ms_p75\": {}, \"ops_per_s\": {}, \
         \"setup_s\": [{}], \"calib_ms_start\": [{}], \"calib_ms_end\": [{}], \
         \"sizes\": {{{sizes}}}}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, NonZeroUsize::get),
        cordoba_par::effective_threads(),
        filesystem_of(&work.0),
        m.untraced_ms.len(),
        m.traced_ms.len(),
        json_number(percentile(&m.untraced_ms, 0.5)),
        json_number(percentile(&m.untraced_ms, 0.75)),
        json_number(m.untraced_ms.len() as f64 / op_seconds),
        json_list(&m.setup_s),
        json_list(&calibration_start),
        json_list(&calibration_end),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
