//! Deterministic hotspot aggregation over the recorded span tree.
//!
//! The trace buffer already carries everything a profiler needs: every
//! span knows its thread, start offset, duration, and creation sequence,
//! and nesting is reconstructible from `(tid, start_ns, seq)` alone (see
//! [`mod@crate::span`]). [`profile_report`] folds that tree into a per-name
//! table of **total** time (span durations summed) and **self** time
//! (total minus time spent in child spans) — the classic flat profile —
//! without any sampling or extra instrumentation cost.
//!
//! [`profile_chrome_trace`] computes the same report from an exported
//! Chrome trace, so a trace captured with `--trace-out` can be profiled
//! offline (the CLI `profile` verb).
//!
//! Determinism: the aggregation is a pure function of the recorded
//! `(name, tid, start, duration, seq)` tuples — re-running it on the same
//! trace always yields the same report. Wall-clock *values* naturally vary
//! run to run; the tests therefore pin structural invariants
//! (`self ≤ total`, totals additive, ordering stable), not timings.

use crate::json::{parse, Json};
use crate::span::{snapshot_records, Record};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Span name.
    pub name: String,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus time spent in child spans, nanoseconds.
    pub self_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// A flat profile of the span tree, from [`profile_report`] or
/// [`profile_chrome_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Per-name statistics, sorted by self time (descending), then name.
    pub entries: Vec<ProfileEntry>,
    /// Summed duration of top-level (parentless) spans across all threads,
    /// nanoseconds.
    pub wall_ns: u64,
    /// Spans aggregated.
    pub spans: usize,
    /// Instant events seen (not aggregated — they have no duration).
    pub instants: usize,
    /// Distinct threads.
    pub threads: usize,
}

/// One span flattened for aggregation, however it was sourced.
struct Row {
    name: String,
    tid: u64,
    seq: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Folds rows into a [`ProfileReport`]. Rows are sorted by
/// `(tid, start_ns, seq)` — a total order, `seq` being unique — and each
/// thread is replayed with an open-span stack: a row starting at or after
/// the top's end closes it; otherwise the row is its child and its
/// duration accrues to the parent's child time.
fn aggregate(mut rows: Vec<Row>, instants: usize) -> ProfileReport {
    rows.sort_unstable_by_key(|a| (a.tid, a.start_ns, a.seq));
    struct Frame {
        name: String,
        end_ns: u64,
        dur_ns: u64,
        child_ns: u64,
    }
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_ns: u64,
        self_ns: u64,
        max_ns: u64,
    }
    let mut stats: BTreeMap<String, Agg> = BTreeMap::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut threads: Vec<u64> = Vec::new();
    let mut wall_ns = 0u64;
    let mut current_tid: Option<u64> = None;
    let close = |frame: Frame, stats: &mut BTreeMap<String, Agg>| {
        let entry = stats.entry(frame.name).or_default();
        entry.count += 1;
        entry.total_ns = entry.total_ns.saturating_add(frame.dur_ns);
        entry.self_ns = entry
            .self_ns
            .saturating_add(frame.dur_ns.saturating_sub(frame.child_ns));
        entry.max_ns = entry.max_ns.max(frame.dur_ns);
    };
    let spans = rows.len();
    for row in rows {
        if current_tid != Some(row.tid) {
            while let Some(frame) = stack.pop() {
                close(frame, &mut stats);
            }
            current_tid = Some(row.tid);
            threads.push(row.tid);
        }
        while let Some(top_end) = stack.last().map(|top| top.end_ns) {
            if row.start_ns < top_end {
                break;
            }
            if let Some(frame) = stack.pop() {
                close(frame, &mut stats);
            }
        }
        match stack.last_mut() {
            Some(parent) => parent.child_ns = parent.child_ns.saturating_add(row.dur_ns),
            None => wall_ns = wall_ns.saturating_add(row.dur_ns),
        }
        stack.push(Frame {
            end_ns: row.start_ns.saturating_add(row.dur_ns),
            dur_ns: row.dur_ns,
            child_ns: 0,
            name: row.name,
        });
    }
    while let Some(frame) = stack.pop() {
        close(frame, &mut stats);
    }
    let mut entries: Vec<ProfileEntry> = stats
        .into_iter()
        .map(|(name, agg)| ProfileEntry {
            name,
            count: agg.count,
            total_ns: agg.total_ns,
            self_ns: agg.self_ns,
            max_ns: agg.max_ns,
        })
        .collect();
    entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    ProfileReport {
        entries,
        wall_ns,
        spans,
        instants,
        threads: threads.len(),
    }
}

/// Profiles the current trace buffer (without draining it).
#[must_use]
pub fn profile_report() -> ProfileReport {
    let mut rows = Vec::new();
    let mut instants = 0usize;
    for record in snapshot_records() {
        match record {
            Record::Span {
                name,
                tid,
                seq,
                start_ns,
                dur_ns,
                ..
            } => rows.push(Row {
                name: name.to_owned(),
                tid: u64::from(tid),
                seq,
                start_ns,
                dur_ns,
            }),
            Record::Instant { .. } => instants += 1,
        }
    }
    aggregate(rows, instants)
}

/// Recovers the exact nanosecond value behind a fractional-microsecond
/// `ts`/`dur` field (the Chrome export writes `ns/1000` with three decimal
/// places, so multiplying back by 1000 and rounding is lossless).
fn ns_from_micros(us: f64) -> u64 {
    let ns = (us * 1000.0).round();
    if ns <= 0.0 {
        0
    } else if ns >= 1.8446744073709552e19 {
        u64::MAX
    } else {
        // Rounded, bounded, non-negative: the cast is value-preserving.
        // cordoba-lint: allow(lossy-cast)
        ns as u64
    }
}

/// Profiles an exported Chrome trace-event JSON document: `"ph":"X"`
/// events with `cat != "event"` are spans (instant events export with
/// `"cat":"event"` and zero duration), counter events are ignored, and
/// array order stands in for creation sequence (the export sorts by
/// `(tid, ts, seq)`, which preserves it per thread).
///
/// # Errors
///
/// Returns a message when the document is not parseable trace JSON.
pub fn profile_chrome_trace(text: &str) -> Result<ProfileReport, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .as_array()
        .ok_or_else(|| "top level is not a JSON array".to_string())?;
    let mut rows = Vec::new();
    let mut instants = 0usize;
    for (index, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "X" {
            continue;
        }
        let cat = event.get("cat").and_then(Json::as_str).unwrap_or("span");
        if cat == "event" {
            instants += 1;
            continue;
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {index}: missing \"name\""))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {index}: missing numeric \"ts\""))?;
        let dur = event
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {index}: missing numeric \"dur\""))?;
        let tid = event
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {index}: missing numeric \"tid\""))?;
        rows.push(Row {
            name: name.to_owned(),
            // Thread ids are small non-negative integers in the export.
            // cordoba-lint: allow(lossy-cast)
            tid: if tid.is_finite() && tid >= 0.0 {
                tid as u64
            } else {
                0
            },
            seq: index as u64,
            start_ns: ns_from_micros(ts),
            dur_ns: ns_from_micros(dur),
        });
    }
    Ok(aggregate(rows, instants))
}

impl ProfileReport {
    /// The report as a JSON object (hand-rolled; durations in nanoseconds).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"spans\":{},\"instants\":{},\"threads\":{},\"entries\":[",
            self.wall_ns, self.spans, self.instants, self.threads
        );
        for (i, entry) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{}}}",
                if i > 0 { "," } else { "" },
                crate::chrome::escape_json(&entry.name),
                entry.count,
                entry.total_ns,
                entry.self_ns,
                entry.max_ns
            );
        }
        out.push_str("]}");
        out
    }

    /// The report as a human-readable table of the top `top` entries by
    /// self time.
    #[must_use]
    pub fn to_table(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>14} {:>14} {:>6} {:>14}",
            "span", "count", "total_ns", "self_ns", "self%", "max_ns"
        );
        for entry in self.entries.iter().take(top) {
            let share = if self.wall_ns == 0 {
                0.0
            } else {
                // Display-only ratio; u64→f64 rounding is irrelevant here.
                // cordoba-lint: allow(lossy-cast)
                entry.self_ns as f64 * 100.0 / self.wall_ns as f64
            };
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>14} {:>14} {:>5.1}% {:>14}",
                entry.name, entry.count, entry.total_ns, entry.self_ns, share, entry.max_ns
            );
        }
        if self.entries.len() > top {
            let _ = writeln!(out, "... {} more", self.entries.len() - top);
        }
        let _ = writeln!(
            out,
            "{} spans, {} instants, {} threads, wall {} ns",
            self.spans, self.instants, self.threads, self.wall_ns
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{clear_trace, span};

    fn row(name: &str, tid: u64, seq: u64, start_ns: u64, dur_ns: u64) -> Row {
        Row {
            name: name.to_owned(),
            tid,
            seq,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn nesting_splits_self_from_total() {
        // tid 1: outer [0, 100) with inner [10, 40); tid 2: solo [0, 50).
        let report = aggregate(
            vec![
                row("outer", 1, 0, 0, 100),
                row("inner", 1, 1, 10, 30),
                row("solo", 2, 2, 0, 50),
            ],
            1,
        );
        assert_eq!(report.spans, 3);
        assert_eq!(report.instants, 1);
        assert_eq!(report.threads, 2);
        assert_eq!(report.wall_ns, 150, "top-level spans only");
        let by_name = |n: &str| report.entries.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("outer").total_ns, 100);
        assert_eq!(by_name("outer").self_ns, 70);
        assert_eq!(by_name("inner").self_ns, 30);
        assert_eq!(by_name("solo").self_ns, 50);
        // Sorted by self time descending.
        assert_eq!(report.entries[0].name, "outer");
    }

    #[test]
    fn siblings_do_not_nest() {
        // Two back-to-back spans on one thread: the second starts at the
        // first's end, so it must close the first, not become its child.
        let report = aggregate(vec![row("a", 1, 0, 0, 10), row("b", 1, 1, 10, 10)], 0);
        assert_eq!(report.wall_ns, 20);
        for entry in &report.entries {
            assert_eq!(entry.self_ns, entry.total_ns);
        }
    }

    #[test]
    fn repeated_names_accumulate_and_track_max() {
        let report = aggregate(
            vec![row("worker", 1, 0, 0, 10), row("worker", 1, 1, 20, 30)],
            0,
        );
        let entry = &report.entries[0];
        assert_eq!(entry.count, 2);
        assert_eq!(entry.total_ns, 40);
        assert_eq!(entry.max_ns, 30);
    }

    #[test]
    fn aggregation_is_deterministic_under_input_order() {
        let rows = || {
            vec![
                row("a", 1, 0, 0, 100),
                row("b", 1, 1, 10, 20),
                row("c", 2, 2, 5, 50),
            ]
        };
        let forward = aggregate(rows(), 0);
        let mut reversed = rows();
        reversed.reverse();
        assert_eq!(forward, aggregate(reversed, 0));
    }

    #[test]
    fn live_and_chrome_profiles_agree() {
        let _guard = crate::test_lock();
        crate::set_tracing_enabled(true);
        clear_trace();
        {
            let _outer = span("test/profile/outer");
            let _inner = span("test/profile/inner");
        }
        let live = profile_report();
        let traced = profile_chrome_trace(&crate::export_chrome_trace()).unwrap();
        crate::set_tracing_enabled(false);
        clear_trace();
        // The Chrome ts/dur encoding is lossless, so both views agree
        // entry for entry.
        assert_eq!(live.entries, traced.entries);
        assert_eq!(live.wall_ns, traced.wall_ns);
        assert!(live.entries.iter().any(|e| e.name == "test/profile/outer"));
        let json = live.to_json();
        assert!(json.contains("\"wall_ns\""));
        assert!(json.contains("test/profile/inner"));
        let table = live.to_table(10);
        assert!(table.contains("self%"));
    }

    #[test]
    fn structural_invariants_hold() {
        let report = aggregate(
            vec![
                row("a", 1, 0, 0, 100),
                row("b", 1, 1, 0, 60),
                row("c", 1, 2, 10, 20),
                row("d", 1, 3, 30, 40),
            ],
            0,
        );
        let total_self: u64 = report.entries.iter().map(|e| e.self_ns).sum();
        assert!(total_self <= report.wall_ns.max(total_self));
        for entry in &report.entries {
            assert!(entry.self_ns <= entry.total_ns, "{entry:?}");
            assert!(entry.max_ns <= entry.total_ns, "{entry:?}");
        }
    }
}
