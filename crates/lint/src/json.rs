//! Machine-readable output: JSON report rendering and the baseline file.
//!
//! Reports and baselines are written here with
//! [`cordoba_obs::chrome::escape_json`] and read back with the workspace's
//! one JSON parser, [`cordoba_obs::json::parse`]. The baseline is a
//! ratchet: findings recorded in it are tolerated (matched by
//! `(file, rule, message)` as a multiset, so line drift from unrelated
//! edits does not resurrect them), anything new fails the run.

use std::collections::BTreeMap;

use cordoba_obs::chrome::escape_json;
use cordoba_obs::json::{parse, Json};

use crate::diagnostics::Diagnostic;

/// One baseline entry: findings are matched by content, not by line, so
/// unrelated edits that shift code do not resurrect baselined findings.
pub type BaselineEntry = (String, String, String);

/// Renders findings as a committed baseline document.
#[must_use]
pub fn baseline_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&d.file),
            escape_json(d.rule),
            escape_json(&d.message),
        ));
    }
    if diags.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Parses a baseline document into its `(file, rule, message)` entries.
///
/// # Errors
///
/// Returns a message when the document is not valid baseline JSON.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let Some(findings) = doc.get("findings").and_then(Json::as_array) else {
        return Err("baseline: missing `findings` array".to_string());
    };
    let mut entries = Vec::new();
    for f in findings {
        let field = |k: &str| -> Result<String, String> {
            f.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("baseline: finding missing string `{k}`"))
        };
        entries.push((field("file")?, field("rule")?, field("message")?));
    }
    Ok(entries)
}

/// Splits findings into (new, baselined-count): each baseline entry absorbs
/// at most one matching finding (multiset semantics).
#[must_use]
pub fn apply_baseline(
    diags: Vec<Diagnostic>,
    baseline: &[BaselineEntry],
) -> (Vec<Diagnostic>, usize) {
    let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for (file, rule, message) in baseline {
        *budget
            .entry((file.clone(), rule.clone(), message.clone()))
            .or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    let mut absorbed = 0usize;
    for d in diags {
        let key = (d.file.clone(), d.rule.to_string(), d.message.clone());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                absorbed += 1;
            }
            _ => fresh.push(d),
        }
    }
    (fresh, absorbed)
}

/// Renders the full machine-readable report: findings, baseline count, and
/// per-rule/severity summary.
#[must_use]
pub fn report_to_json(diags: &[Diagnostic], baselined: usize) -> String {
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    let mut deny = 0usize;
    let mut warn = 0usize;
    for d in diags {
        *by_rule.entry(d.rule).or_insert(0) += 1;
        match d.severity {
            crate::diagnostics::Severity::Deny => deny += 1,
            crate::diagnostics::Severity::Warn => warn += 1,
        }
    }
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&d.file),
            d.line,
            escape_json(d.rule),
            d.severity,
            escape_json(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"baselined\": {baselined},\n  \"summary\": {{\"deny\": {deny}, \"warn\": {warn}, \"by_rule\": {{"
    ));
    for (i, (rule, count)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {count}", escape_json(rule)));
    }
    out.push_str("}}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::{apply_baseline, baseline_to_json, parse, parse_baseline, report_to_json, Json};
    use crate::diagnostics::{Diagnostic, Severity};

    fn diag(file: &str, line: u32, rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic::new(file, line, rule, msg)
    }

    #[test]
    fn parser_round_trips_a_report() {
        let mut warn = diag("a.rs", 3, "atomic-ordering", "relaxed");
        warn.severity = Severity::Warn;
        let diags = vec![diag("a.rs", 1, "float-eq", "x == \"quoted\"\nnext"), warn];
        let text = report_to_json(&diags, 2);
        let doc = parse(&text).expect("report parses");
        let Some(findings) = doc.get("findings").and_then(Json::as_array) else {
            panic!("findings array");
        };
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some("x == \"quoted\"\nnext")
        );
        assert_eq!(doc.get("baselined"), Some(&Json::Num(2.0)));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("deny"), Some(&Json::Num(1.0)));
        assert_eq!(summary.get("warn"), Some(&Json::Num(1.0)));
        assert_eq!(
            summary.get("by_rule").and_then(|b| b.get("float-eq")),
            Some(&Json::Num(1.0))
        );
    }

    #[test]
    fn baseline_round_trips_and_absorbs_as_multiset() {
        let recorded = vec![
            diag("a.rs", 1, "no-panic", "unwrap"),
            diag("a.rs", 9, "no-panic", "unwrap"),
        ];
        let baseline = parse_baseline(&baseline_to_json(&recorded)).expect("baseline parses");
        // Three identical findings against two baseline slots: one is new.
        let now = vec![
            diag("a.rs", 2, "no-panic", "unwrap"),
            diag("a.rs", 10, "no-panic", "unwrap"),
            diag("a.rs", 20, "no-panic", "unwrap"),
        ];
        let (fresh, absorbed) = apply_baseline(now, &baseline);
        assert_eq!(absorbed, 2);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 20);
    }

    #[test]
    fn empty_baseline_parses() {
        let text = baseline_to_json(&[]);
        assert_eq!(parse_baseline(&text).expect("parses"), Vec::new());
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(parse("{\"findings\": [").is_err());
        assert!(parse("").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
    }
}
