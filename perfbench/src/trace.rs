//! The op clock and the per-layer span recorder.
//!
//! Every op runs between [`Tracer::begin`] and [`Tracer::end`]; with
//! tracing off that is all the tracer does. With tracing on, the workload
//! wraps each call into a layer in [`Tracer::time`] (or adds a derived
//! share with [`Tracer::add`]). A *probe* ([`Tracer::probe`]) is extra
//! work the traced op does only to split one call into layers, such as
//! a separate `Store::get` that tells the read share of a warm
//! `*_stored` call apart from its decode. Probe time is taken off the op
//! clock. Layer time recorded inside a probe counts in its layer, and the
//! workload takes the same amount out of the on-clock call the probe
//! splits (decode = warm call − get), so the partition layers still sum
//! to the op time.
//
// cordoba-lint: allow-file(wall-clock, lossy-cast) —
// the span recorder reads the wall clock by design and averages counts as
// f64.

use std::collections::BTreeMap;
use std::time::Instant;

/// How a per-layer metric is accumulated and reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Summed span time; the partition layers plus `unattributed.ms` sum
    /// to `trace.op_ms`. Reported as a per-op mean in ms.
    Partition,
    /// Summed span time grouping partition layers by CLI verb (not part
    /// of the partition sum). Reported as a per-op mean in ms.
    View,
    /// `Σ numerator ÷ Σ denominator` over the traced ops.
    Ratio,
    /// A per-op mean of a count.
    Count,
    /// The mean traced op time (probes excluded).
    OpTime,
    /// `trace.op_ms` − the sum of the partition layers.
    Unattributed,
    /// Measured by the runner around the ops and passed in at the end.
    Run,
}

/// Every per-layer metric: name, unit and kind. The `--trace 1` output is
/// exactly this table, in this order (`BENCHMARK.json` lists the same
/// names and units; a package test keeps the two equal).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("accel.sim.ms", "ms", Kind::Partition),
    ("accel.sim.ns_per_kernel", "ns", Kind::Ratio),
    ("accel.embodied.ms", "ms", Kind::Partition),
    ("accel.embodied.hit_ratio", "ratio", Kind::Ratio),
    ("core.design_point.ms", "ms", Kind::Partition),
    ("core.op_time_sweep.ms", "ms", Kind::Partition),
    ("core.op_time_sweep.ns_per_cell", "ns", Kind::Ratio),
    ("core.pareto.ms", "ms", Kind::Partition),
    ("core.hull.ms", "ms", Kind::Partition),
    ("core.beta_sweep.survivor_ratio", "ratio", Kind::Ratio),
    ("core.attrib.ms", "ms", Kind::Partition),
    ("core.uncertainty.regret.ms", "ms", Kind::Partition),
    ("core.uncertainty.source.ms", "ms", Kind::Partition),
    ("store.get.ms", "ms", Kind::Partition),
    ("store.decode.ms", "ms", Kind::Partition),
    ("store.put.ms", "ms", Kind::Partition),
    ("store.encode.ms", "ms", Kind::Partition),
    ("store.evict.ms", "ms", Kind::Partition),
    ("store.bytes_read", "bytes", Kind::Count),
    ("store.bytes_written", "bytes", Kind::Count),
    ("store.hit_ratio", "ratio", Kind::Ratio),
    (
        "store.eval_space.decode_over_recompute",
        "ratio",
        Kind::Ratio,
    ),
    (
        "store.op_time_sweep.decode_over_recompute",
        "ratio",
        Kind::Ratio,
    ),
    ("soc.provisioning.ms", "ms", Kind::Partition),
    ("cli.parse_csv.ms", "ms", Kind::Partition),
    ("cli.dse.ms", "ms", Kind::View),
    ("cli.eliminate.ms", "ms", Kind::View),
    ("cli.provision.ms", "ms", Kind::View),
    ("cli.stacking.ms", "ms", Kind::View),
    ("cli.replay.ms", "ms", Kind::View),
    ("cli.render.ms", "ms", Kind::Partition),
    ("trace.op_ms", "ms", Kind::OpTime),
    ("unattributed.ms", "ms", Kind::Unattributed),
    ("trace.overhead_ratio", "ratio", Kind::Run),
    ("host.calib_ms", "ms", Kind::Run),
];

/// The kind of metric `name`, if the table lists it.
#[must_use]
pub fn kind_of(name: &str) -> Option<Kind> {
    METRICS.iter().find(|m| m.0 == name).map(|m| m.2)
}

/// A reported metric: its value and unit.
pub type Reported = BTreeMap<&'static str, (f64, &'static str)>;

/// Nanoseconds elapsed since `start`.
#[must_use]
pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Runs `f` and returns its result with its duration in nanoseconds.
pub fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ns_since(start))
}

/// The op clock plus, when enabled, the per-layer accumulators.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    start: Instant,
    probe_ns: f64,
    last_op_ns: f64,
    /// Per metric: summed nanoseconds (partition layers and views), a
    /// summed count, or a ratio's summed numerator and denominator.
    sums: BTreeMap<&'static str, (f64, f64)>,
    /// Total nanoseconds added to partition layers (probe bookkeeping).
    attributed_ns: f64,
    traced_ops: usize,
    traced_op_ns: f64,
}

impl Tracer {
    /// A tracer; `enabled` selects the traced decomposition of each op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            start: Instant::now(),
            probe_ns: 0.0,
            last_op_ns: 0.0,
            sums: BTreeMap::new(),
            attributed_ns: 0.0,
            traced_ops: 0,
            traced_op_ns: 0.0,
        }
    }

    /// `true` when ops should take their traced decomposition.
    #[must_use]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Turns the traced decomposition on or off between ops.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the op clock.
    pub fn begin(&mut self) {
        self.probe_ns = 0.0;
        self.start = Instant::now();
    }

    /// Stops the op clock; the op time excludes probe time.
    pub fn end(&mut self) {
        self.last_op_ns = ns_since(self.start) - self.probe_ns;
        if self.enabled {
            self.traced_ops += 1;
            self.traced_op_ns += self.last_op_ns;
        }
    }

    /// The duration of the last op, in nanoseconds.
    #[must_use]
    pub fn last_op_ns(&self) -> f64 {
        self.last_op_ns
    }

    fn accumulate(&mut self, name: &'static str, kinds: &[Kind], numerator: f64, denominator: f64) {
        debug_assert!(
            kind_of(name).is_some_and(|k| kinds.contains(&k)),
            "{name} is not a metric of kind {kinds:?}"
        );
        let slot = self.sums.entry(name).or_insert((0.0, 0.0));
        slot.0 += numerator;
        slot.1 += denominator;
    }

    /// Adds `ns` to `layer` (partition layers and views alike).
    pub fn add(&mut self, layer: &'static str, ns: f64) {
        self.accumulate(layer, &[Kind::Partition, Kind::View], ns, 0.0);
        if kind_of(layer) == Some(Kind::Partition) {
            self.attributed_ns += ns;
        }
    }

    /// Runs `f` as a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ns) = stopwatch(f);
        self.add(layer, ns);
        out
    }

    /// Runs probe `f` off the op clock and returns its result with the
    /// partition-layer time `f` attributed. The caller is responsible for
    /// taking that share back out of a derived layer (for example
    /// `render = verb − library calls`), so nothing is counted twice.
    pub fn probe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let before = self.attributed_ns;
        let out = f(self);
        let attributed = self.attributed_ns - before;
        self.probe_ns += ns_since(start);
        (out, attributed)
    }

    /// Accumulates one observation of a ratio metric.
    pub fn ratio(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        self.accumulate(name, &[Kind::Ratio], numerator, denominator);
    }

    /// Accumulates a per-op count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.accumulate(name, &[Kind::Count], value, 0.0);
    }

    /// Every metric of [`METRICS`] with its unit: per-op means over the
    /// traced ops, `trace.op_ms`, `unattributed.ms`, and the runner's
    /// `run` values for the [`Kind::Run`] rows (0 when absent). Metrics a
    /// workload never touched read 0.
    #[must_use]
    pub fn layer_metrics(&self, run: &[(&str, f64)]) -> Reported {
        let ops = self.traced_ops.max(1) as f64;
        let op_ms = self.traced_op_ns / ops / 1e6;
        let attributed_ms = self.attributed_ns / ops / 1e6;
        METRICS
            .iter()
            .map(|&(name, unit, kind)| {
                let (num, den) = self.sums.get(name).copied().unwrap_or((0.0, 0.0));
                let value = match kind {
                    Kind::Partition | Kind::View => num / ops / 1e6,
                    Kind::Ratio if den > 0.0 => num / den,
                    Kind::Ratio => 0.0,
                    Kind::Count => num / ops,
                    Kind::OpTime => op_ms,
                    Kind::Unattributed => op_ms - attributed_ms,
                    Kind::Run => run.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1),
                };
                (name, (value, unit))
            })
            .collect()
    }
}
