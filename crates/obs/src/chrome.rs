//! Chrome trace-event JSON export and validation.
//!
//! The export format is the Trace Event Format's JSON-array flavor, the
//! lingua franca of `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! an array of objects where spans are *complete* events (`"ph":"X"` with
//! microsecond `ts`/`dur`), structured events are zero-duration complete
//! events, and registered counters are appended as *counter* events
//! (`"ph":"C"`) on a synthetic `tid 0` track. Events are sorted by
//! `(tid, ts, seq)` so each thread's track is monotonic and parents always
//! precede their children — the order-stable span tree.
//!
//! [`validate_chrome_trace`] re-parses an exported document with the
//! in-crate JSON parser and checks the schema; the CLI's `trace-check`
//! command and the `prom-export` CI job are thin wrappers around it.

use crate::json::{parse, Json};
use crate::metrics::registry_snapshot;
use crate::span::{snapshot_records, take_records, Record, RecordArgs};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escapes `text` for inclusion inside a JSON string literal.
#[must_use]
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond offset as fractional microseconds (the unit the
/// trace-event format uses for `ts` and `dur`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Writes the `"args"` object for a record's fixed-size argument list.
fn write_args(out: &mut String, args: &RecordArgs) {
    out.push_str(",\"args\":{");
    let mut first = true;
    for (key, value) in args.iter().flatten() {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{value}", escape_json(key));
        first = false;
    }
    out.push('}');
}

/// Renders `records` plus a trailing counter track as a Chrome trace-event
/// JSON array.
fn render(mut records: Vec<Record>) -> String {
    fn sort_key(record: &Record) -> (u32, u64, u64) {
        match *record {
            Record::Span {
                tid, start_ns, seq, ..
            } => (tid, start_ns, seq),
            Record::Instant {
                tid, ts_ns, seq, ..
            } => (tid, ts_ns, seq),
        }
    }
    records.sort_unstable_by_key(sort_key);
    let counter_ts = records
        .iter()
        .map(|r| match *r {
            Record::Span {
                start_ns, dur_ns, ..
            } => start_ns.saturating_add(dur_ns),
            Record::Instant { ts_ns, .. } => ts_ns,
        })
        .max()
        .unwrap_or(0);
    let mut out = String::from("[\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        out.push_str(&line);
        first = false;
    };
    for record in &records {
        let mut line = String::new();
        match *record {
            Record::Span {
                name,
                ref args,
                tid,
                start_ns,
                dur_ns,
                ..
            } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}",
                    escape_json(name),
                    micros(start_ns),
                    micros(dur_ns),
                );
                write_args(&mut line, args);
                line.push('}');
            }
            Record::Instant {
                name,
                ref args,
                tid,
                ts_ns,
                ..
            } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"X\",\"ts\":{},\"dur\":0.000,\"pid\":1,\"tid\":{tid}",
                    escape_json(name),
                    micros(ts_ns),
                );
                write_args(&mut line, args);
                line.push('}');
            }
        }
        emit(line, &mut out);
    }
    // Registered plain counters and histograms ride along as a final "C"
    // sample each on the synthetic tid-0 track, so the trace is
    // self-contained.
    let snapshot = registry_snapshot();
    let ts = micros(counter_ts);
    for counter in snapshot.counters.iter().filter(|c| c.labels.is_empty()) {
        emit(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
                escape_json(&counter.name),
                counter.value,
            ),
            &mut out,
        );
    }
    for histogram in &snapshot.histograms {
        emit(
            format!(
                "{{\"name\":\"{}\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\"tid\":0,\"args\":{{\"count\":{},\"sum\":{}}}}}",
                escape_json(&histogram.name),
                histogram.count,
                histogram.sum,
            ),
            &mut out,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Exports the current trace buffer (without draining it) plus a counter
/// sample per registered counter as a Chrome trace-event JSON array.
#[must_use]
pub fn export_chrome_trace() -> String {
    render(snapshot_records())
}

/// Like [`export_chrome_trace`] but drains the buffer, so the next export
/// starts empty.
#[must_use]
pub fn drain_chrome_trace() -> String {
    render(take_records())
}

/// Summary of a validated Chrome trace, from [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the array.
    pub events: usize,
    /// Complete (`"ph":"X"`) events.
    pub spans: usize,
    /// Counter (`"ph":"C"`) events.
    pub counters: usize,
    /// Distinct `tid` values seen.
    pub threads: usize,
}

/// Reads a finite, non-negative number field from an event object.
fn number_field(event: &Json, key: &str, index: usize) -> Result<f64, String> {
    let value = event
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("event {index}: missing numeric \"{key}\""))?;
    if !value.is_finite() || value.is_sign_negative() {
        return Err(format!(
            "event {index}: \"{key}\" must be finite and >= 0, got {value}"
        ));
    }
    Ok(value)
}

/// Validates `text` as Chrome trace-event JSON of the shape this crate
/// exports: a non-empty array of `"ph":"X"` / `"ph":"C"` events carrying
/// `name`, `ts`, `pid`, `tid` (and `dur` for spans), with per-thread
/// monotonic timestamps.
///
/// # Errors
///
/// Returns a description of the first JSON syntax or schema violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .as_array()
        .ok_or_else(|| "top level is not a JSON array".to_string())?;
    if events.is_empty() {
        return Err("trace contains no events".to_string());
    }
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for (index, event) in events.iter().enumerate() {
        if event
            .get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("event {index}: missing \"name\""));
        }
        let ts = number_field(event, "ts", index)?;
        let _ = number_field(event, "pid", index)?;
        let tid = number_field(event, "tid", index)?;
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => {
                let _ = number_field(event, "dur", index)?;
                spans += 1;
            }
            Some("C") => counters += 1,
            other => {
                return Err(format!(
                    "event {index}: \"ph\" must be \"X\" or \"C\", got {other:?}"
                ));
            }
        }
        // Monotonic (non-decreasing) timestamps per thread track.
        let track = tid.to_bits();
        if let Some(previous) = last_ts.get(&track) {
            if ts < *previous {
                return Err(format!(
                    "event {index}: ts {ts} goes backwards on tid {tid} (previous {previous})"
                ));
            }
        }
        last_ts.insert(track, ts);
    }
    Ok(TraceCheck {
        events: events.len(),
        spans,
        counters,
        threads: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, span_with, Event};

    #[test]
    fn exported_trace_validates_and_orders_threads() {
        let _guard = crate::test_lock();
        crate::set_tracing_enabled(true);
        crate::set_metrics_enabled(true);
        crate::clear_trace();
        {
            let _outer = span("test/chrome/outer");
            let _inner = span_with("test/chrome/inner", "items", 9);
            crate::record(&Event::Quarantine);
        }
        std::thread::spawn(|| {
            let _worker = span("test/chrome/worker");
        })
        .join()
        .unwrap();
        let text = drain_chrome_trace();
        crate::set_tracing_enabled(false);
        let check = validate_chrome_trace(&text).unwrap();
        assert!(check.spans >= 4, "{check:?}");
        assert!(check.counters >= 1, "{check:?}");
        assert!(check.threads >= 2, "{check:?}");
        assert!(text.contains("\"items\":9"));
        assert!(text.contains("events/quarantine"));
        // Drained: a second export has only the counter track.
        let empty = export_chrome_trace();
        assert!(!empty.contains("test/chrome/outer"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        // Missing dur on an X event.
        let no_dur = r#"[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]"#;
        assert!(validate_chrome_trace(no_dur).is_err());
        // Unknown phase.
        let bad_ph = r#"[{"name":"a","ph":"B","ts":1,"dur":1,"pid":1,"tid":1}]"#;
        assert!(validate_chrome_trace(bad_ph).is_err());
        // Backwards timestamps on one thread.
        let backwards = r#"[
            {"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},
            {"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":1}
        ]"#;
        let err = validate_chrome_trace(backwards).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        // The same timestamps on different threads are fine.
        let two_tracks = r#"[
            {"name":"a","ph":"X","ts":5,"dur":1,"pid":1,"tid":1},
            {"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":2}
        ]"#;
        let check = validate_chrome_trace(two_tracks).unwrap();
        assert_eq!(check.threads, 2);
        assert_eq!(check.spans, 2);
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
