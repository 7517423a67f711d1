//! `doctor`: repair reports for messy CSVs, and the self-check probe.

use super::eliminate::for_each_csv_row;
use super::*;
use cordoba_accel::cache::EmbodiedCache;
use cordoba_par::supervise::{Outcome, SupervisedMap};
use cordoba_par::CostHint;

pub(super) fn doctor(args: &Args<'_>) -> Result<String, CliError> {
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

/// Sanitizes a `time_s,ci` trace CSV and reports every repair; diagnosis
/// never fails, so an unusable trace is reported rather than returned as
/// an error.
fn doctor_trace(args: &Args<'_>, path: &str, out: &mut String) -> Result<(), CliError> {
    let policy = match args.get("policy").unwrap_or("lenient") {
        "lenient" => SanitizePolicy::lenient(),
        "production" => SanitizePolicy::production(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy `{other}` (lenient | production)"
            )))
        }
    };
    let content = read_file(path)?;
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

/// Leniently parses a design CSV and reports the rows that were dropped.
fn doctor_designs(path: &str, out: &mut String) -> Result<(), CliError> {
    let content = read_file(path)?;
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
