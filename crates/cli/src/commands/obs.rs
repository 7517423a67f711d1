//! `trace-check` and `profile`: tools for `--trace-out`'s Chrome traces.

use super::*;

/// The trace file named by the one positional argument, and its text.
fn trace_file<'a>(args: &Args<'a>) -> Result<(&'a str, String), CliError> {
    let path = args
        .positional()
        .first()
        .copied()
        .ok_or(CliError::Args(ArgError::Missing("<trace.json> path")))?;
    Ok((path, read_file(path)?))
}

pub(super) fn trace_check(args: &Args<'_>) -> Result<String, CliError> {
    let (path, content) = trace_file(args)?;
    let check = cordoba_obs::validate_chrome_trace(&content)
        .map_err(|e| CliError::Usage(format!("{path}: invalid Chrome trace: {e}")))?;
    Ok(format!(
        "{path}: OK ({} events: {} spans, {} counters, {} threads)\n",
        check.events, check.spans, check.counters, check.threads
    ))
}

/// The `profile` command: aggregates a captured Chrome trace into the
/// per-span-name self/total-time profile and prints it as a table.
pub(super) fn profile(args: &Args<'_>) -> Result<String, CliError> {
    let top = args.get_u32("top", 20)?;
    let (path, content) = trace_file(args)?;
    let report = cordoba_obs::profile_chrome_trace(&content)
        .map_err(|e| CliError::Usage(format!("{path}: invalid Chrome trace: {e}")))?;
    Ok(format!("{path}:\n{}", report.to_table(top as usize)))
}
