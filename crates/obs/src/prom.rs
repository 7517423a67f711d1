//! Prometheus text exposition (format v0.0.4) for the metrics registry.
//!
//! [`render_prometheus`] renders the live registry — counters, labeled
//! counters, and the 65-bucket power-of-two histograms — in the
//! Prometheus text format a `/metrics` endpoint serves: `# TYPE` headers,
//! cumulative `le`-bucketed histograms with `_sum`/`_count`, slash names
//! mangled to legal metric names, and label values escaped. Because the
//! workspace is dependency-free by policy, the crate also ships its own
//! parser/validator ([`validate_prometheus_text`], mirroring
//! [`crate::validate_chrome_trace`]) so round-trips are testable offline.
//! The validator also accepts `gauge` families, which other exporters
//! write.
//!
//! ## Name mangling and collisions
//!
//! Registry names are `/`-separated paths (`carbon/fallback/queries`);
//! Prometheus names admit only `[a-zA-Z0-9_:]`, so every illegal character
//! becomes `_`. Mangling can collide (`a/b` and `a_b` both become `a_b`);
//! colliding same-kind sources are merged into one family whose samples are
//! disambiguated by a `name="<original>"` label, which keeps the exposition
//! valid and lossless. A histogram whose name clashes with a counter
//! family takes a `_histogram` suffix. Exact duplicates — counters with the
//! same name and labels, histogram states with the same name — are summed
//! into one series.
//!
//! ## Histogram mapping
//!
//! Registry bucket `0` holds exact zeros and bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i)`, so the *inclusive* Prometheus bound of bucket `i` is
//! `2^i - 1` (and `0` for the zero bucket). Buckets are rendered
//! cumulatively up to the last non-empty one, followed by the mandatory
//! `+Inf` bucket equal to `_count`.

use crate::metrics::{registry_snapshot, HistogramState, RegistrySnapshot, HISTOGRAM_BUCKETS};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A label set: `(key, value)` pairs in rendering order.
type Labels = [(String, String)];

/// Renders the live registry in Prometheus text exposition format v0.0.4.
#[must_use]
pub fn render_prometheus() -> String {
    render_snapshot(&registry_snapshot())
}

/// A metric name with every character outside `[a-zA-Z0-9_:]` replaced by
/// `_`, prefixed with `_` when it would otherwise start with a digit.
#[must_use]
pub fn mangle_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if legal {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a label set as `{k="v",...}`, or nothing when empty.
fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", mangle_metric_name(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The inclusive Prometheus `le` bound of registry bucket `index`: the
/// zero bucket admits only `0`, bucket `i ≥ 1` covers `[2^(i-1), 2^i)` so
/// its largest member is `2^i - 1`.
fn bucket_upper_inclusive(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i < HISTOGRAM_BUCKETS - 1 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// One family ready to emit: name, exposition type, and its sample lines.
struct Family {
    name: String,
    kind: &'static str,
    lines: String,
}

/// Renders a snapshot in Prometheus text exposition format v0.0.4. Output
/// is deterministic: families sorted by mangled name, samples by original
/// name then labels.
#[must_use]
pub fn render_snapshot(snapshot: &RegistrySnapshot) -> String {
    // Exact duplicates (same source name and labels) sum into one sample
    // so the exposition never carries duplicate series.
    let mut counters: BTreeMap<(&str, &Labels), u64> = BTreeMap::new();
    for counter in &snapshot.counters {
        *counters
            .entry((&counter.name, &counter.labels))
            .or_insert(0) += counter.value;
    }
    // Histogram states with the same name merge the same way: bucket by
    // bucket, plus `sum` and `count`.
    let mut histograms: BTreeMap<&str, HistogramState> = BTreeMap::new();
    for histogram in &snapshot.histograms {
        let merged = histograms
            .entry(&histogram.name)
            .or_insert_with(|| HistogramState {
                name: histogram.name.clone(),
                count: 0,
                sum: 0,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            });
        merged.count += histogram.count;
        merged.sum += histogram.sum;
        for (total, n) in merged.buckets.iter_mut().zip(&histogram.buckets) {
            *total += n;
        }
    }
    let mut families = Vec::new();
    // Counters first: they keep their mangled names, and a histogram
    // family that clashes with one is renamed.
    push_families(
        &mut families,
        "counter",
        counters
            .into_iter()
            .map(|((name, labels), value)| (name, labels, value)),
        |out, family, labels, value| {
            let _ = writeln!(out, "{family}{} {value}", render_labels(labels));
        },
    );
    push_families(
        &mut families,
        "histogram",
        histograms
            .values()
            .map(|histogram| (histogram.name.as_str(), &[][..], histogram)),
        render_histogram,
    );
    families.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for family in &families {
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
        out.push_str(&family.lines);
    }
    out
}

/// Groups `sources` — `(registry name, labels, value)` — by mangled name
/// into families of `kind`, rendering each source's samples with `render`.
/// When different registry names mangle alike, every sample of the family
/// carries a `name="<original>"` label; a family name another family
/// already took gets a `_<kind>` suffix (underscores appended until free).
fn push_families<'a, T>(
    families: &mut Vec<Family>,
    kind: &'static str,
    sources: impl Iterator<Item = (&'a str, &'a Labels, T)>,
    render: impl Fn(&mut String, &str, &Labels, T),
) {
    type Source<'a, T> = (&'a str, Vec<(String, String)>, T);
    let mut groups: BTreeMap<String, Vec<Source<'a, T>>> = BTreeMap::new();
    for (name, labels, value) in sources {
        groups
            .entry(mangle_metric_name(name))
            .or_default()
            .push((name, labels.to_vec(), value));
    }
    for (mut name, mut group) in groups {
        let taken = |name: &str| families.iter().any(|f| f.name == name);
        if taken(&name) {
            name = format!("{name}_{kind}");
            while taken(&name) {
                name.push('_');
            }
        }
        if group.iter().any(|(source, ..)| *source != group[0].0) {
            for (source, labels, _) in &mut group {
                labels.push(("name".to_owned(), (*source).to_owned()));
            }
        }
        group.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut lines = String::new();
        for (_, labels, value) in group {
            render(&mut lines, &name, &labels, value);
        }
        families.push(Family { name, kind, lines });
    }
}

/// Renders one histogram's cumulative `_bucket` series, `_sum` and
/// `_count` under `family`, each with `labels`.
fn render_histogram(out: &mut String, family: &str, labels: &Labels, histogram: &HistogramState) {
    let mut bucket = |le: String, value: u64| {
        let mut with_le = labels.to_vec();
        with_le.push(("le".to_owned(), le));
        let _ = writeln!(out, "{family}_bucket{} {value}", render_labels(&with_le));
    };
    let counts = &histogram.buckets[..histogram.buckets.len().min(HISTOGRAM_BUCKETS)];
    let used = counts
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |last| last + 1);
    let mut cumulative = 0u64;
    for (i, &n) in counts[..used].iter().enumerate() {
        cumulative += n;
        bucket(bucket_upper_inclusive(i).to_string(), cumulative);
    }
    bucket("+Inf".to_owned(), histogram.count);
    let labels = render_labels(labels);
    let _ = writeln!(out, "{family}_sum{labels} {}", histogram.sum);
    let _ = writeln!(out, "{family}_count{labels} {}", histogram.count);
}

// ---------------------------------------------------------------------------
// Parsing and validation
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in document order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A syntactically parsed exposition document: `# TYPE` declarations and
/// samples, both in document order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromDoc {
    /// `(family name, type)` per `# TYPE` line.
    pub types: Vec<(String, String)>,
    /// Every sample line.
    pub samples: Vec<PromSample>,
}

/// Summary returned by [`validate_prometheus_text`], mirroring
/// [`crate::TraceCheck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromCheck {
    /// `# TYPE` declarations.
    pub families: usize,
    /// Families declared `counter`.
    pub counters: usize,
    /// Families declared `gauge`.
    pub gauges: usize,
    /// Families declared `histogram`.
    pub histograms: usize,
    /// Total sample lines.
    pub samples: usize,
}

/// `true` for a legal metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` for a legal label key (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn is_label_key(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses an exposition value: `+Inf`/`Inf`/`-Inf`/`NaN` or a decimal.
fn parse_value(token: &str) -> Option<f64> {
    match token {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses the `{k="v",...}` label block starting after `{`; returns the
/// pairs and the byte offset just past the closing `}`.
fn parse_labels(rest: &str, lineno: usize) -> Result<(Vec<(String, String)>, usize), String> {
    let bytes = rest.as_bytes();
    let mut labels = Vec::new();
    let mut pos = 0usize;
    if bytes.get(pos) == Some(&b'}') {
        return Ok((labels, pos + 1));
    }
    loop {
        let key_start = pos;
        while bytes
            .get(pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            pos += 1;
        }
        let key = &rest[key_start..pos];
        if !is_label_key(key) {
            return Err(format!("line {lineno}: bad label key `{key}`"));
        }
        if bytes.get(pos) != Some(&b'=') {
            return Err(format!("line {lineno}: expected `=` after label key"));
        }
        pos += 1;
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("line {lineno}: expected `\"` to open label value"));
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err(format!("line {lineno}: unterminated label value")),
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("line {lineno}: unknown escape in label value")),
                    }
                    pos += 2;
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim; `rest` came from a
                    // `&str`, so boundaries are valid.
                    let tail = &rest[pos..];
                    let len = tail.chars().next().map_or(1, char::len_utf8);
                    value.push_str(&tail[..len]);
                    pos += len;
                }
            }
        }
        labels.push((key.to_owned(), value));
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok((labels, pos + 1)),
            _ => return Err(format!("line {lineno}: expected `,` or `}}` after label")),
        }
    }
}

/// One meaningful line of an exposition document.
enum Line {
    /// A `# TYPE <family> <kind>` declaration.
    Type(String, String),
    /// A sample line.
    Sample(PromSample),
}

/// Parses `text` into its `# TYPE` and sample lines, in document order.
fn parse_lines(text: &str) -> Result<Vec<Line>, String> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(format!("line {lineno}: malformed `# TYPE` declaration"));
                };
                if !is_metric_name(name) {
                    return Err(format!("line {lineno}: bad family name `{name}`"));
                }
                lines.push(Line::Type(name.to_owned(), kind.to_owned()));
            }
            // `# HELP` and free-form comments are legal and ignored.
            continue;
        }
        // Sample: name [{labels}] value [timestamp]
        let name_len = line
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b':')
            .count();
        let name = &line[..name_len];
        if !is_metric_name(name) {
            return Err(format!("line {lineno}: bad metric name"));
        }
        let mut rest = &line[name_len..];
        let mut labels = Vec::new();
        if let Some(after_brace) = rest.strip_prefix('{') {
            let (parsed, consumed) = parse_labels(after_brace, lineno)?;
            labels = parsed;
            rest = &after_brace[consumed..];
        }
        let mut tokens = rest.split_whitespace();
        let Some(value_token) = tokens.next() else {
            return Err(format!("line {lineno}: missing sample value"));
        };
        let Some(value) = parse_value(value_token) else {
            return Err(format!("line {lineno}: bad sample value `{value_token}`"));
        };
        if let Some(timestamp) = tokens.next() {
            if timestamp.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: bad timestamp `{timestamp}`"));
            }
        }
        if tokens.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens after sample"));
        }
        lines.push(Line::Sample(PromSample {
            name: name.to_owned(),
            labels,
            value,
        }));
    }
    Ok(lines)
}

/// Parses `text` as an exposition document (syntax only; semantic checks
/// live in [`validate_prometheus_text`]).
///
/// # Errors
///
/// Returns a message locating the first malformed line.
pub fn parse_prometheus_text(text: &str) -> Result<PromDoc, String> {
    let mut doc = PromDoc::default();
    for line in parse_lines(text)? {
        match line {
            Line::Type(name, kind) => doc.types.push((name, kind)),
            Line::Sample(sample) => doc.samples.push(sample),
        }
    }
    Ok(doc)
}

/// The declared family a sample belongs to: the `_bucket`/`_sum`/`_count`
/// stem when that stem is a declared histogram, otherwise the name itself.
fn family_of<'a>(name: &'a str, types: &BTreeMap<&str, &str>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem) == Some(&"histogram") {
                return stem;
            }
        }
    }
    name
}

/// One histogram series (a family's samples sharing every label but `le`)
/// as collected by [`validate_prometheus_text`].
#[derive(Default)]
struct HistogramSeries {
    /// `(le bound, cumulative count)` in document order.
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validates `text` as a self-consistent exposition document: syntax, one
/// `# TYPE` per family (declared before its samples, kind one of
/// `counter`/`gauge`/`histogram`), every sample attributable to a declared
/// family, no duplicate series, non-negative finite counters, and — per
/// histogram series — strictly increasing `le` bounds ending in `+Inf`,
/// non-decreasing cumulative counts, and `_sum`/`_count` agreeing with the
/// `+Inf` bucket.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_prometheus_text(text: &str) -> Result<PromCheck, String> {
    let lines = parse_lines(text)?;
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for line in &lines {
        let Line::Type(name, kind) = line else {
            continue;
        };
        if !matches!(kind.as_str(), "counter" | "gauge" | "histogram") {
            return Err(format!("family `{name}`: unsupported type `{kind}`"));
        }
        if types.insert(name, kind).is_some() {
            return Err(format!("family `{name}`: duplicate `# TYPE` declaration"));
        }
    }

    // One walk in document order: each sample is checked against the
    // families declared so far, and histogram samples are gathered per
    // series (labels minus `le`) for the checks below.
    let mut declared: BTreeSet<&str> = BTreeSet::new();
    // A series: sample or family name plus its sorted labels.
    type Series<'a> = (&'a str, Vec<&'a (String, String)>);
    let mut seen_series: BTreeSet<Series> = BTreeSet::new();
    let mut series: BTreeMap<Series, HistogramSeries> = BTreeMap::new();
    let mut samples = 0;
    for line in &lines {
        let sample = match line {
            Line::Type(name, _) => {
                declared.insert(name);
                continue;
            }
            Line::Sample(sample) => sample,
        };
        samples += 1;
        let family = family_of(&sample.name, &types);
        let Some(&kind) = types.get(family) else {
            return Err(format!(
                "sample `{}`: no `# TYPE` declaration for its family",
                sample.name
            ));
        };
        if !declared.contains(family) {
            return Err(format!(
                "family `{family}`: sample appears before its `# TYPE` declaration"
            ));
        }
        let mut series_labels: Vec<&(String, String)> = sample.labels.iter().collect();
        series_labels.sort();
        if !seen_series.insert((&sample.name, series_labels)) {
            return Err(format!("sample `{}`: duplicate series", sample.name));
        }
        match kind {
            "counter" if !sample.value.is_finite() || sample.value < 0.0 => {
                return Err(format!(
                    "counter `{}`: value must be finite and non-negative",
                    sample.name
                ));
            }
            "histogram" => {
                if family == sample.name {
                    return Err(format!(
                        "histogram `{family}`: bare sample without _bucket/_sum/_count"
                    ));
                }
                if !sample.value.is_finite() || sample.value < 0.0 {
                    return Err(format!(
                        "histogram `{family}`: sample values must be finite and non-negative"
                    ));
                }
                let mut group: Vec<&(String, String)> =
                    sample.labels.iter().filter(|(k, _)| k != "le").collect();
                group.sort();
                let entry = series.entry((family, group)).or_default();
                if sample.name.ends_with("_bucket") {
                    let Some((_, le)) = sample.labels.iter().find(|(k, _)| k == "le") else {
                        return Err(format!("histogram `{family}`: _bucket without `le` label"));
                    };
                    let Some(bound) = parse_value(le) else {
                        return Err(format!("histogram `{family}`: bad `le` bound `{le}`"));
                    };
                    entry.buckets.push((bound, sample.value));
                } else if sample.name.ends_with("_sum") {
                    entry.sum = Some(sample.value);
                } else {
                    entry.count = Some(sample.value);
                }
            }
            _ => {}
        }
    }

    // Histogram series checks: buckets cumulative and +Inf-terminated,
    // `_count` equal to the +Inf bucket, `_sum` present.
    for ((family, _), data) in &series {
        if data.buckets.is_empty() {
            return Err(format!("histogram `{family}`: series has no buckets"));
        }
        for window in data.buckets.windows(2) {
            // `partial_cmp` so a NaN bound (incomparable) is rejected too.
            if window[0].0.partial_cmp(&window[1].0) != Some(std::cmp::Ordering::Less) {
                return Err(format!(
                    "histogram `{family}`: `le` bounds must strictly increase"
                ));
            }
            if window[0].1 > window[1].1 {
                return Err(format!(
                    "histogram `{family}`: bucket counts must be cumulative"
                ));
            }
        }
        let Some(&(last_bound, inf_count)) = data.buckets.last() else {
            continue;
        };
        if last_bound != f64::INFINITY {
            return Err(format!(
                "histogram `{family}`: series must end with an `+Inf` bucket"
            ));
        }
        match data.count {
            None => return Err(format!("histogram `{family}`: missing _count")),
            // Exact equality is the exposition contract: both values render
            // from the same integer counter.
            // cordoba-lint: allow(float-eq)
            Some(count) if count != inf_count => {
                return Err(format!(
                    "histogram `{family}`: _count ({count}) disagrees with +Inf bucket ({inf_count})"
                ));
            }
            Some(_) => {}
        }
        if data.sum.is_none() {
            return Err(format!("histogram `{family}`: missing _sum"));
        }
    }

    let count = |kind: &str| types.values().filter(|&&k| k == kind).count();
    Ok(PromCheck {
        families: types.len(),
        counters: count("counter"),
        gauges: count("gauge"),
        histograms: count("histogram"),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CounterState;

    fn state(counters: &[(&str, u64)]) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: counters
                .iter()
                .map(|&(name, value)| CounterState {
                    name: name.to_owned(),
                    labels: Vec::new(),
                    value,
                })
                .collect(),
            ..RegistrySnapshot::default()
        }
    }

    #[test]
    fn renders_and_validates_plain_counters() {
        let text = render_snapshot(&state(&[("carbon/fallback/queries", 12), ("a", 0)]));
        assert!(text.contains("# TYPE carbon_fallback_queries counter"));
        assert!(text.contains("carbon_fallback_queries 12"));
        let check = validate_prometheus_text(&text).unwrap();
        assert_eq!(check.counters, 2);
        assert_eq!(check.samples, 2);
    }

    #[test]
    fn mangling_collisions_disambiguate_with_a_name_label() {
        let text = render_snapshot(&state(&[("a/b", 1), ("a_b", 2)]));
        // One family, two samples, each carrying its original name.
        assert_eq!(text.matches("# TYPE a_b counter").count(), 1);
        assert!(text.contains("a_b{name=\"a/b\"} 1"));
        assert!(text.contains("a_b{name=\"a_b\"} 2"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn duplicate_sources_merge_instead_of_duplicating_series() {
        let text = render_snapshot(&state(&[("x", 1), ("x", 2)]));
        assert!(text.contains("x 3"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn cross_kind_collision_takes_a_suffix() {
        let mut snapshot = state(&[("depth", 1)]);
        snapshot.histograms.push(HistogramState {
            name: "depth".to_owned(),
            count: 2,
            sum: 5,
            buckets: vec![0, 0, 1, 1],
        });
        let text = render_snapshot(&snapshot);
        assert!(text.contains("# TYPE depth counter\ndepth 1\n"));
        assert!(text.contains("# TYPE depth_histogram histogram"));
        assert!(text.contains("depth_histogram_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("depth_histogram_count 2"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn hand_written_gauge_families_validate() {
        let text = "# HELP queue_depth Jobs waiting.\n# TYPE queue_depth gauge\n\
                    queue_depth{queue=\"a\"} -2.5\nqueue_depth{queue=\"b\"} NaN\n\
                    # TYPE jobs counter\njobs 3\n";
        let check = validate_prometheus_text(text).unwrap();
        assert_eq!(
            check,
            PromCheck {
                families: 2,
                counters: 1,
                gauges: 1,
                histograms: 0,
                samples: 3,
            }
        );
        assert!(validate_prometheus_text("queue_depth 1\n# TYPE queue_depth gauge\n").is_err());
    }

    #[test]
    fn histogram_renders_cumulative_le_buckets() {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        buckets[0] = 1; // one exact zero
        buckets[2] = 2; // two samples in [2, 4)
        let snapshot = RegistrySnapshot {
            histograms: vec![HistogramState {
                name: "core/sweep_ns".to_owned(),
                count: 3,
                sum: 6,
                buckets,
            }],
            ..RegistrySnapshot::default()
        };
        let text = render_snapshot(&snapshot);
        assert!(text.contains("# TYPE core_sweep_ns histogram"));
        assert!(text.contains("core_sweep_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("core_sweep_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("core_sweep_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("core_sweep_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("core_sweep_ns_sum 6"));
        assert!(text.contains("core_sweep_ns_count 3"));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn zero_count_histogram_is_just_the_inf_bucket() {
        let snapshot = RegistrySnapshot {
            histograms: vec![HistogramState {
                name: "empty".to_owned(),
                count: 0,
                sum: 0,
                buckets: vec![0; HISTOGRAM_BUCKETS],
            }],
            ..RegistrySnapshot::default()
        };
        let text = render_snapshot(&snapshot);
        assert!(text.contains("empty_bucket{le=\"+Inf\"} 0"));
        assert!(!text.contains("le=\"0\""));
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let snapshot = RegistrySnapshot {
            counters: vec![CounterState {
                name: "c".to_owned(),
                labels: vec![("tier".to_owned(), "a\"b\\c\nd".to_owned())],
                value: 7,
            }],
            ..RegistrySnapshot::default()
        };
        let text = render_snapshot(&snapshot);
        assert!(text.contains("c{tier=\"a\\\"b\\\\c\\nd\"} 7"));
        let doc = parse_prometheus_text(&text).unwrap();
        assert_eq!(doc.samples[0].labels[0].1, "a\"b\\c\nd");
        validate_prometheus_text(&text).unwrap();
    }

    #[test]
    fn validator_rejects_broken_documents() {
        for (bad, why) in [
            ("c 1\n", "sample without TYPE"),
            ("# TYPE c counter\nc -1\n", "negative counter"),
            ("# TYPE c counter\nc 1\nc 2\n", "duplicate series"),
            ("# TYPE c counter\n# TYPE c counter\nc 1\n", "duplicate TYPE"),
            ("c 1\n# TYPE c counter\n", "TYPE after samples"),
            ("# TYPE c widget\nc 1\n", "unsupported type"),
            ("# TYPE h histogram\nh 5\n", "bare histogram sample"),
            (
                "# TYPE h histogram\nh_sum 1\nh_count 0\n",
                "histogram without buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
                "_count disagrees with +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "missing +Inf bucket",
            ),
            ("# TYPE c counter\nc{k=\"v} 1\n", "unterminated label"),
            ("# TYPE c counter\nc banana\n", "unparseable value"),
            ("# TYPE c counter\n9c 1\n", "bad metric name"),
        ] {
            assert!(validate_prometheus_text(bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn live_registry_renders_round_trip() {
        static PROM_TEST: crate::Counter = crate::Counter::new("test/prom/live");
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        PROM_TEST.add(3);
        let text = render_prometheus();
        crate::set_metrics_enabled(false);
        let check = validate_prometheus_text(&text).unwrap();
        assert!(check.counters >= 1);
        let doc = parse_prometheus_text(&text).unwrap();
        assert!(doc
            .samples
            .iter()
            .any(|s| s.name == "test_prom_live" && s.value >= 3.0));
    }

    #[test]
    fn mangles_names_deterministically() {
        assert_eq!(mangle_metric_name("a/b/c"), "a_b_c");
        assert_eq!(mangle_metric_name("events/store_hit"), "events_store_hit");
        assert_eq!(mangle_metric_name("9lives"), "_9lives");
        assert_eq!(mangle_metric_name("ok:name_1"), "ok:name_1");
        assert_eq!(mangle_metric_name("sp ace-dash"), "sp_ace_dash");
        assert_eq!(mangle_metric_name(""), "_");
    }
}
