//! Named atomic counters and fixed-bucket histograms with a global,
//! opt-in registry.
//!
//! Metrics are declared as `static` items and self-register into the
//! process-wide registry the first time they are touched while metrics are
//! enabled. The update paths are allocation-free after that one-time
//! registration: a disabled counter costs a single relaxed load, an enabled
//! one a relaxed load plus a relaxed `fetch_add`. This keeps instrumented
//! hot loops within measurement noise of uninstrumented ones (bench_smoke
//! records the comparison as `obs/disabled_overhead/*`).

use crate::metrics_enabled;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of histogram buckets: one per power of two of a `u64` value,
/// plus a zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maximum label cells a [`LabeledCounter`] can carry; small and fixed so
/// the cell array lives inline in the static with no allocation.
pub const MAX_LABEL_CELLS: usize = 8;

/// A registered metric; the registry holds one per static that has
/// recorded while metrics were enabled.
enum Metric {
    Counter(&'static Counter),
    Labeled(&'static LabeledCounter),
    Histogram(&'static Histogram),
}

/// The registry: every registered metric, in first-touch order. Only
/// [`registry_snapshot`] reads it.
static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

/// One-time registration of `metric`, guarded by its `registered` flag;
/// the only metrics operation that allocates. A poisoned lock is
/// recovered: the registry holds plain pointers, so a panic mid-push
/// cannot leave it inconsistent.
#[cold]
fn register(registered: &AtomicBool, metric: Metric) {
    if !registered.swap(true, Ordering::Relaxed) {
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(metric);
    }
}

/// A named monotonic counter backed by a relaxed `AtomicU64`.
///
/// Declare counters as `static` items so they live for the whole process
/// and can self-register:
///
/// ```
/// use cordoba_obs::Counter;
///
/// static LOOKUPS: Counter = Counter::new("example/lookups");
///
/// cordoba_obs::set_metrics_enabled(true);
/// LOOKUPS.add(3);
/// assert_eq!(LOOKUPS.value(), 3);
/// ```
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter named `name`; names are `/`-separated paths like
    /// `"carbon/fallback/queries"`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`; a no-op while metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            register(&self.registered, Metric::Counter(self));
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one; a no-op while metrics are disabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current value (readable even while metrics are disabled).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] family keyed by one static label with a fixed set of
/// values — e.g. `carbon/fallback/tier_hits{tier="trace"}`. Each label
/// value owns one atomic cell, so updates stay lock- and allocation-free:
///
/// ```
/// use cordoba_obs::LabeledCounter;
///
/// static HITS: LabeledCounter =
///     LabeledCounter::new("example/tier_hits", "tier", &["trace", "constant"]);
///
/// cordoba_obs::set_metrics_enabled(true);
/// HITS.incr(0); // tier="trace"
/// assert_eq!(HITS.cell_value(0), 1);
/// ```
///
/// Out-of-range cell indices land in the *last* cell, so declaring a
/// trailing catch-all value (e.g. `"other"`) gives open-ended indices a
/// well-defined label instead of a panic.
#[derive(Debug)]
pub struct LabeledCounter {
    name: &'static str,
    label: &'static str,
    values: &'static [&'static str],
    cells: [AtomicU64; MAX_LABEL_CELLS],
    registered: AtomicBool,
}

impl LabeledCounter {
    /// A new labeled counter; `values` are the label values, one cell each.
    ///
    /// # Panics
    ///
    /// Panics at `const` evaluation time when `values` is empty or longer
    /// than [`MAX_LABEL_CELLS`] — a declaration bug, never a runtime one.
    #[must_use]
    pub const fn new(
        name: &'static str,
        label: &'static str,
        values: &'static [&'static str],
    ) -> Self {
        assert!(
            !values.is_empty() && values.len() <= MAX_LABEL_CELLS,
            "label values must number 1..=MAX_LABEL_CELLS"
        ); // cordoba-lint: allow(no-panic) — const-eval declaration check
        Self {
            name,
            label,
            values,
            cells: [const { AtomicU64::new(0) }; MAX_LABEL_CELLS],
            registered: AtomicBool::new(false),
        }
    }

    /// The family's registry name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The label key.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        self.label
    }

    /// The label values, in cell order.
    #[must_use]
    pub const fn values(&self) -> &'static [&'static str] {
        self.values
    }

    /// Adds `n` to the cell for label value `cell` (clamped to the last
    /// declared value); a no-op while metrics are disabled.
    #[inline]
    pub fn add(&'static self, cell: usize, n: u64) {
        if !metrics_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            register(&self.registered, Metric::Labeled(self));
        }
        let index = cell.min(self.values.len() - 1);
        self.cells[index].fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the cell for label value `cell`; a no-op while metrics
    /// are disabled.
    #[inline]
    pub fn incr(&'static self, cell: usize) {
        self.add(cell, 1);
    }

    /// The current value of cell `cell` (zero when out of range; readable
    /// even while metrics are disabled).
    #[must_use]
    pub fn cell_value(&self, cell: usize) -> u64 {
        self.cells
            .get(cell)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A named fixed-bucket histogram of `u64` samples (typically durations in
/// nanoseconds), bucketed by power of two.
///
/// Bucket `0` holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Recording is allocation-free and lock-free: three
/// relaxed `fetch_add`s when enabled, one relaxed load when disabled.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// A new histogram named `name`.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample; a no-op while metrics are disabled.
    #[inline]
    pub fn record(&'static self, value: u64) {
        if !metrics_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            register(&self.registered, Metric::Histogram(self));
        }
        let index = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on `u64` overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The inclusive lower bound of bucket `index`.
    #[must_use]
    pub fn bucket_floor(index: usize) -> u64 {
        match index {
            0 => 0,
            i if i < HISTOGRAM_BUCKETS => 1u64 << (i - 1),
            _ => u64::MAX,
        }
    }

    /// Snapshot of every bucket count, in bucket-index order (index `0` is
    /// the zero bucket; index `i ≥ 1` covers `[2^(i-1), 2^i)`). This is the
    /// raw, non-cumulative view the Prometheus renderer folds into
    /// cumulative `le` buckets.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// One counter sample in a [`RegistrySnapshot`]: registry name, static
/// labels (empty for plain counters), and the cell value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterState {
    /// Registry name (pre-mangling, e.g. `carbon/fallback/queries`).
    pub name: String,
    /// Label key/value pairs (one pair for [`LabeledCounter`] cells).
    pub labels: Vec<(String, String)>,
    /// The counter value.
    pub value: u64,
}

/// One histogram in a [`RegistrySnapshot`], with raw (non-cumulative)
/// power-of-two bucket counts as produced by [`Histogram::bucket_counts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// Registry name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Per-bucket counts, `HISTOGRAM_BUCKETS` entries (missing trailing
    /// entries are treated as zero).
    pub buckets: Vec<u64>,
}

/// A point-in-time copy of the registry in renderer-independent form. Every
/// output — [`dump_json_lines`], the Chrome counter track,
/// [`crate::render_prometheus`] — renders from one, and tests can render
/// synthetic states without touching the global registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter samples: plain counters sorted by name, then every
    /// labeled-counter cell (families sorted by name, cells in declared
    /// order).
    pub counters: Vec<CounterState>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramState>,
}

impl RegistrySnapshot {
    /// The value of the plain (unlabeled) counter `name`, or 0 when no such
    /// counter has registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels.is_empty())
            .map_or(0, |c| c.value)
    }
}

/// Captures the live registry as a [`RegistrySnapshot`]; the only reader
/// of the registry.
#[must_use]
pub fn registry_snapshot() -> RegistrySnapshot {
    let mut snapshot = RegistrySnapshot::default();
    for metric in REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        match *metric {
            Metric::Counter(counter) => snapshot.counters.push(CounterState {
                name: counter.name.to_owned(),
                labels: Vec::new(),
                value: counter.value(),
            }),
            Metric::Labeled(family) => {
                for (i, value) in family.values.iter().enumerate() {
                    snapshot.counters.push(CounterState {
                        name: family.name.to_owned(),
                        labels: vec![(family.label.to_owned(), (*value).to_owned())],
                        value: family.cell_value(i),
                    });
                }
            }
            Metric::Histogram(histogram) => snapshot.histograms.push(HistogramState {
                name: histogram.name.to_owned(),
                count: histogram.count(),
                sum: histogram.sum(),
                buckets: histogram.bucket_counts().to_vec(),
            }),
        }
    }
    // Stable sorts: a labeled family's cells keep their declared order.
    snapshot
        .counters
        .sort_by(|a, b| (!a.labels.is_empty(), &a.name).cmp(&(!b.labels.is_empty(), &b.name)));
    snapshot.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snapshot
}

/// Dumps the registry as JSON lines — one object per counter sample and
/// histogram, in [`RegistrySnapshot`] order. Histogram buckets carry their
/// power-of-two floors first-class, so consumers never re-derive the
/// boundaries:
///
/// ```text
/// {"type":"counter","name":"carbon/fallback/queries","value":12}
/// {"type":"counter","name":"store/ops","labels":{"op":"hit"},"value":3}
/// {"type":"histogram","name":"core/evaluate_space_ns","count":3,"sum":41872,"buckets":[{"bucket_floor":8192,"count":2},{"bucket_floor":16384,"count":1}]}
/// ```
#[must_use]
pub fn dump_json_lines() -> String {
    use crate::chrome::escape_json;
    use std::fmt::Write as _;
    let snapshot = registry_snapshot();
    let mut out = String::new();
    for counter in &snapshot.counters {
        let _ = write!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\"",
            escape_json(&counter.name)
        );
        for (i, (key, value)) in counter.labels.iter().enumerate() {
            let open = if i == 0 { ",\"labels\":{" } else { "," };
            let _ = write!(
                out,
                "{open}\"{}\":\"{}\"",
                escape_json(key),
                escape_json(value)
            );
        }
        let close = if counter.labels.is_empty() { "" } else { "}" };
        let _ = writeln!(out, "{close},\"value\":{}}}", counter.value);
    }
    for histogram in &snapshot.histograms {
        let _ = write!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
            escape_json(&histogram.name),
            histogram.count,
            histogram.sum
        );
        let nonzero = histogram
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0);
        for (i, (index, n)) in nonzero.enumerate() {
            let _ = write!(
                out,
                "{}{{\"bucket_floor\":{},\"count\":{n}}}",
                if i > 0 { "," } else { "" },
                Histogram::bucket_floor(index)
            );
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counter_records_nothing() {
        static DISABLED: Counter = Counter::new("test/metrics/disabled");
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(false);
        DISABLED.add(7);
        assert_eq!(DISABLED.value(), 0);
    }

    #[test]
    fn enabled_counter_accumulates_and_registers() {
        static ENABLED: Counter = Counter::new("test/metrics/enabled");
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        ENABLED.incr();
        ENABLED.add(4);
        assert_eq!(ENABLED.value(), 5);
        assert_eq!(registry_snapshot().counter("test/metrics/enabled"), 5);
        let dump = dump_json_lines();
        assert!(dump.contains("\"name\":\"test/metrics/enabled\",\"value\":5"));
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        static HIST: Histogram = Histogram::new("test/metrics/hist");
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        HIST.record(0);
        HIST.record(1);
        HIST.record(1);
        HIST.record(1000);
        assert_eq!(HIST.count(), 4);
        assert_eq!(HIST.sum(), 1002);
        let buckets = HIST.bucket_counts();
        assert_eq!(buckets[0], 1, "zero bucket: {buckets:?}");
        assert_eq!(buckets[1], 2, "ones bucket: {buckets:?}");
        // 1000 lands in [512, 1024).
        assert_eq!(Histogram::bucket_floor(10), 512);
        assert_eq!(buckets[10], 1, "512 bucket: {buckets:?}");
        assert!(dump_json_lines().contains("\"name\":\"test/metrics/hist\""));
    }

    #[test]
    fn labeled_counter_cells_accumulate_and_clamp() {
        static TIERS: LabeledCounter = LabeledCounter::new(
            "test/metrics/tiers",
            "tier",
            &["trace", "constant", "other"],
        );
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        TIERS.incr(0);
        TIERS.add(1, 2);
        // Out-of-range cells land in the trailing catch-all.
        TIERS.incr(17);
        assert_eq!(TIERS.cell_value(0), 1);
        assert_eq!(TIERS.cell_value(1), 2);
        assert_eq!(TIERS.cell_value(2), 1);
        assert_eq!(TIERS.cell_value(99), 0);
        let cell = |value: &str, count| CounterState {
            name: "test/metrics/tiers".to_owned(),
            labels: vec![("tier".to_owned(), value.to_owned())],
            value: count,
        };
        let cells = registry_snapshot().counters;
        assert!(cells.contains(&cell("trace", 1)));
        assert!(cells.contains(&cell("other", 1)));
        let dump = dump_json_lines();
        assert!(dump.contains(
            "\"name\":\"test/metrics/tiers\",\"labels\":{\"tier\":\"constant\"},\"value\":2"
        ));
        crate::set_metrics_enabled(false);
        TIERS.incr(0);
        assert_eq!(TIERS.cell_value(0), 1, "disabled updates must not record");
    }

    #[test]
    fn bucket_counts_expose_the_raw_buckets() {
        static RAW: Histogram = Histogram::new("test/metrics/raw_buckets");
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        RAW.record(0);
        RAW.record(3);
        RAW.record(3);
        let counts = RAW.bucket_counts();
        assert_eq!(counts[0], 1, "zero bucket");
        assert_eq!(counts[2], 2, "3 lands in [2, 4)");
        assert_eq!(counts.iter().sum::<u64>(), RAW.count());
        assert!(dump_json_lines().contains("{\"bucket_floor\":2,\"count\":2}"));
        crate::set_metrics_enabled(false);
    }

    #[test]
    fn bucket_floors_are_monotonic() {
        let floors: Vec<u64> = (0..HISTOGRAM_BUCKETS)
            .map(Histogram::bucket_floor)
            .collect();
        assert_eq!(floors[0], 0);
        assert_eq!(floors[1], 1);
        assert_eq!(floors[64], 1u64 << 63);
        assert!(floors.windows(2).all(|w| w[0] < w[1]));
    }
}
