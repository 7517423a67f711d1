//! `eliminate`: β-sweep elimination over a design CSV, and its parser.

use super::*;

pub(super) fn eliminate(args: &Args<'_>) -> Result<String, CliError> {
    let path = args
        .get("csv")
        .ok_or(CliError::Args(ArgError::Missing("--csv <file>")))?;
    let content = read_file(path)?;
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
    // Freed before the sweep allocates, which then reuses its memory.
    drop(content);
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
pub(super) fn for_each_csv_row(content: &str, mut per_row: impl FnMut(usize, &str)) {
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

/// Parses every data row, keeping the points and a reason per bad row.
fn scan_design_csv(content: &str) -> DesignCsvReport {
    let mut report = DesignCsvReport::default();
    for_each_csv_row(content, |lineno, line| {
        match parse_design_row(lineno, line) {
            Ok(point) => report.points.push(point),
            Err(e) => report.skipped.push(e.to_string()),
        }
    });
    report
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
    let report = scan_design_csv(content);
    if !report.skipped.is_empty() {
        let mut msg = format!("{} malformed row(s):", report.skipped.len());
        for e in &report.skipped {
            msg.push_str("\n  ");
            msg.push_str(e);
        }
        return Err(CliError::Usage(msg));
    }
    if report.points.is_empty() {
        return Err(CliError::Usage("no design rows found".to_owned()));
    }
    Ok(report.points)
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
    let report = scan_design_csv(content);
    if report.points.is_empty() {
        return Err(CliError::Usage(format!(
            "no usable design rows found ({} malformed)",
            report.skipped.len()
        )));
    }
    Ok(report)
}
