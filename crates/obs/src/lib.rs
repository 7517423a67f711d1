//! Zero-dependency observability for CORDOBA's sweeps, solvers, and
//! resilience machinery.
//!
//! The framework's hot paths — design-space characterization, β-transition
//! solving, Monte Carlo sampling, fallback carbon-intensity chains — are
//! instrumented with three layers, all of which cost a few relaxed atomic
//! loads when disabled so instrumented code stays bit-identical to (and
//! within noise of) uninstrumented code:
//!
//! * **Spans** ([`span()`], [`span_with`], [`span_timed`]): RAII timed scopes
//!   collected into a thread-aware, order-stable buffer and exported as
//!   Chrome trace-event JSON ([`export_chrome_trace`]) loadable in Perfetto
//!   or `chrome://tracing`.
//! * **Metrics** ([`Counter`], [`Histogram`]): named atomic counters and
//!   fixed-bucket (log₂) histograms that self-register into a global
//!   registry on first touch and dump as JSON lines
//!   ([`dump_json_lines`]).
//! * **Structured events** ([`Event`], [`record`]): typed records for the
//!   interesting state transitions — a `FallbackCi` tier switch, a sanitize
//!   rejection, a quarantined evaluation, a solver that ran out of budget, a
//!   watchdog truncation, an embodied-carbon cache hit or miss.
//!
//! Both layers are **opt-in at runtime**: nothing is recorded until
//! [`set_metrics_enabled`] / [`set_tracing_enabled`] is called, or a
//! reference-counted hold is taken with [`acquire`]. The CLI holds metrics
//! for the length of a `--metrics` run, and a traced run owns the span
//! buffer through a [`TraceSession`].
//! Instrumentation never changes results — observation is a side channel,
//! and the sweep engine's determinism contract (bit-identical output at
//! every thread count) holds with every layer enabled.
//!
//! # Examples
//!
//! ```
//! use cordoba_obs::{Counter, Event};
//!
//! static SWEEPS: Counter = Counter::new("example/sweeps");
//!
//! cordoba_obs::set_metrics_enabled(true);
//! cordoba_obs::set_tracing_enabled(true);
//! {
//!     let _span = cordoba_obs::span("example/work");
//!     SWEEPS.incr();
//!     cordoba_obs::record(&Event::CacheMiss);
//! }
//! assert_eq!(SWEEPS.value(), 1);
//! let trace = cordoba_obs::drain_chrome_trace();
//! assert!(cordoba_obs::validate_chrome_trace(&trace).is_ok());
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod name;
pub mod profile;
pub mod prom;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

pub use chrome::{drain_chrome_trace, export_chrome_trace, validate_chrome_trace, TraceCheck};
pub use event::{record, Event};
pub use metrics::{
    counter_snapshot, dump_json_lines, gauge_snapshot, labeled_counter_snapshot, Counter, Gauge,
    Histogram, LabeledCounter, MAX_LABEL_CELLS,
};
pub use name::Name;
pub use profile::{profile_chrome_trace, profile_report, ProfileEntry, ProfileReport};
pub use prom::{
    parse_prometheus_text, registry_snapshot, render_prometheus, render_snapshot,
    validate_prometheus_text, CounterState, GaugeState, HistogramState, PromCheck, PromDoc,
    PromSample, RegistrySnapshot,
};
pub use span::{clear_trace, span, span_timed, span_with, SpanGuard, TraceSession};

/// Global metrics switch; off by default so instrumented code costs one
/// relaxed load per counter touch.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Global span/event-collection switch; off by default.
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the metrics registry on or off. Counter and histogram updates are
/// dropped while off; values accumulated earlier are retained.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when counters and histograms are recording.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turns span and structured-event collection on or off. Enabling also pins
/// the trace epoch (the `ts = 0` instant) on first use.
pub fn set_tracing_enabled(on: bool) {
    if on {
        span::init_epoch();
    }
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when spans and structured events are being collected.
#[inline]
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// A global observation layer, for [`acquire`] and [`release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Counters and histograms ([`set_metrics_enabled`]).
    Metrics,
    /// Spans and structured events ([`set_tracing_enabled`]).
    Tracing,
}

/// Outstanding [`acquire`] holds on each layer, indexed by `Layer as usize`.
static HOLDS: Mutex<[usize; 2]> = Mutex::new([0; 2]);

fn switch(layer: Layer, on: bool) {
    match layer {
        Layer::Metrics => set_metrics_enabled(on),
        Layer::Tracing => set_tracing_enabled(on),
    }
}

/// Takes one hold on `layer` and switches it on.
///
/// Holds are reference-counted, so callers that overlap in one process
/// (say, concurrent in-process CLI runs) never switch a layer off under
/// each other: the layer stays on until the last hold is [`release`]d.
/// The plain `set_*_enabled` switches bypass the count.
pub fn acquire(layer: Layer) {
    let mut holds = HOLDS.lock().unwrap_or_else(PoisonError::into_inner);
    holds[layer as usize] += 1;
    switch(layer, true);
}

/// Drops one [`acquire`] hold on `layer`, switching the layer off when it
/// was the last one. A release without a hold is ignored.
pub fn release(layer: Layer) {
    let mut holds = HOLDS.lock().unwrap_or_else(PoisonError::into_inner);
    let count = &mut holds[layer as usize];
    if *count > 0 {
        *count -= 1;
        if *count == 0 {
            switch(layer, false);
        }
    }
}

/// Serializes tests that toggle the global switches, which would otherwise
/// race across the parallel test harness.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_stay_on_until_the_last_hold_is_released() {
        let _guard = test_lock();
        set_metrics_enabled(false);
        acquire(Layer::Metrics);
        acquire(Layer::Metrics);
        release(Layer::Metrics);
        assert!(metrics_enabled(), "one hold remains");
        release(Layer::Metrics);
        assert!(!metrics_enabled(), "the last hold switches the layer off");
        release(Layer::Metrics);
        acquire(Layer::Metrics);
        assert!(metrics_enabled(), "a stray release does not go below zero");
        release(Layer::Metrics);
        assert!(!metrics_enabled());

        set_tracing_enabled(false);
        acquire(Layer::Tracing);
        assert!(
            tracing_enabled() && !metrics_enabled(),
            "layers count apart"
        );
        release(Layer::Tracing);
        assert!(!tracing_enabled());
    }
}
