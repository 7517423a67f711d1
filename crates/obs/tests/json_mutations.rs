//! Hostile-input suite for the workspace's one JSON reader,
//! [`cordoba_obs::json::parse`], which reads Chrome traces, span profiles
//! and `cordoba-lint` baselines. Two real documents — a trace exported by
//! this crate and a lint report as `cordoba-lint check --format json`
//! writes it — must round-trip unmutated, and every byte-level mutation of
//! them (each prefix cut, a flipped byte at a stride, a duplicated line,
//! LF swapped for CRLF) must come back as `Ok` or `Err`, never a panic.

use cordoba_obs::json::{parse, Json};

/// A lint report in `report_to_json`'s layout: one finding whose message
/// needs every escape the writer emits, one warn finding, and the summary.
const LINT_REPORT: &str = concat!(
    "{\n",
    "  \"version\": 1,\n",
    "  \"findings\": [\n",
    "    {\"file\": \"crates/lint/fixtures/bad/float_eq.rs\", \"line\": 4, \"rule\": \"float-eq\", ",
    "\"severity\": \"deny\", \"message\": \"x == \\\"quoted\\\"\\nnext\\t\\u0001 \\\\ done\"},\n",
    "    {\"file\": \"crates/lint/fixtures/bad/atomic_ordering.rs\", \"line\": 9, ",
    "\"rule\": \"atomic-ordering\", \"severity\": \"warn\", \"message\": \"`Relaxed` ordering\"}\n",
    "  ],\n",
    "  \"baselined\": 2,\n",
    "  \"summary\": {\"deny\": 1, \"warn\": 1, \"by_rule\": {\"atomic-ordering\": 1, \"float-eq\": 1}}\n",
    "}\n",
);

/// Parses every mutation of `doc`. A panic fails the test; the results are
/// checked only where the mutation cannot change the document's meaning.
fn assert_mutations_never_panic(doc: &str) {
    let original = parse(doc).expect("unmutated document parses");
    let bytes = doc.as_bytes();

    // Every cut shorter than the document's last closing bracket leaves an
    // unclosed container, so it must be rejected.
    let body = doc.trim_end().len();
    for cut in 0..=bytes.len() {
        let result = parse(&String::from_utf8_lossy(&bytes[..cut]));
        if cut < body {
            assert!(result.is_err(), "prefix of {cut} bytes accepted");
        } else {
            assert_eq!(result.as_ref(), Ok(&original), "prefix of {cut} bytes");
        }
    }

    for start in 0..7 {
        for at in (start..bytes.len()).step_by(7) {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= mask;
                let _ = parse(&String::from_utf8_lossy(&flipped));
            }
        }
    }

    let lines: Vec<&str> = doc.split_inclusive('\n').collect();
    for dup in 0..lines.len() {
        let mut spliced = String::with_capacity(doc.len() + lines[dup].len());
        for (i, line) in lines.iter().enumerate() {
            spliced.push_str(line);
            if i == dup {
                spliced.push_str(line);
            }
        }
        let _ = parse(&spliced);
    }

    // Line breaks only separate tokens, so CRLF must parse to the same value.
    assert_eq!(parse(&doc.replace('\n', "\r\n")), Ok(original));
}

#[test]
fn exported_trace_round_trips_and_survives_byte_mutations() {
    const NAMES: [&str; 3] = ["outer", "inner \"quoted\"\tname", "sibling"];
    cordoba_obs::set_tracing_enabled(true);
    cordoba_obs::clear_trace();
    {
        let _outer = cordoba_obs::span(NAMES[0]);
        let _inner = cordoba_obs::span_with(NAMES[1], "items", 3);
    }
    drop(cordoba_obs::span(NAMES[2]));
    let trace = cordoba_obs::drain_chrome_trace();
    cordoba_obs::set_tracing_enabled(false);

    let doc = parse(&trace).expect("exported trace parses");
    let spans: Vec<&str> = doc
        .as_array()
        .expect("trace is an array")
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("span"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    let mut want = NAMES.to_vec();
    let mut got = spans.clone();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "every span name decodes back");
    assert!(trace.lines().count() > NAMES.len(), "one event per line");
    assert_mutations_never_panic(&trace);
}

#[test]
fn lint_report_round_trips_and_survives_byte_mutations() {
    let doc = parse(LINT_REPORT).expect("lint report parses");
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings array");
    assert_eq!(findings.len(), 2);
    assert_eq!(
        findings[0].get("message").and_then(Json::as_str),
        Some("x == \"quoted\"\nnext\t\u{1} \\ done")
    );
    assert_eq!(findings[1].get("line").and_then(Json::as_f64), Some(9.0));
    assert_eq!(doc.get("baselined").and_then(Json::as_f64), Some(2.0));
    let by_rule = doc
        .get("summary")
        .and_then(|s| s.get("by_rule"))
        .expect("by_rule object");
    assert_eq!(by_rule.get("float-eq").and_then(Json::as_f64), Some(1.0));
    assert_mutations_never_panic(LINT_REPORT);
}
