//! RAII timed spans collected into a thread-aware, order-stable trace
//! buffer.
//!
//! A span measures the scope it is bound to: [`span`] stamps the current
//! instant, and dropping the returned [`SpanGuard`] records a complete
//! event (name, thread, start offset from the trace epoch, duration) into
//! the global buffer. Threads are identified by small stable integers
//! assigned on first use, and every span carries a global creation sequence
//! number so export can order parents before children even when timestamps
//! tie at clock resolution — that pair makes the exported tree
//! *order-stable*: nesting is reconstructible from `(tid, ts, seq)` alone.
//!
//! While tracing is disabled ([`crate::tracing_enabled`]) span creation is
//! a single relaxed load and no guard state is allocated.

use crate::metrics::Histogram;
use crate::tracing_enabled;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Cap on buffered trace records; excess records are counted in
/// [`dropped_records`] instead of growing the buffer without bound.
pub const MAX_TRACE_RECORDS: usize = 1 << 20;

/// Key/value arguments attached to a trace record (at most two, fixed-size
/// so recording never allocates).
pub(crate) type RecordArgs = [Option<(&'static str, u64)>; 2];

/// One buffered trace record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Record {
    /// A completed span.
    Span {
        /// Span name.
        name: &'static str,
        /// Optional argument shown in the trace viewer.
        args: RecordArgs,
        /// Stable small thread id.
        tid: u32,
        /// Global creation sequence number (orders parents before children).
        seq: u64,
        /// Start offset from the trace epoch, nanoseconds.
        start_ns: u64,
        /// Duration, nanoseconds.
        dur_ns: u64,
    },
    /// A structured instant event (exported as a zero-duration span).
    Instant {
        /// Event name.
        name: &'static str,
        /// Event payload.
        args: RecordArgs,
        /// Stable small thread id.
        tid: u32,
        /// Global sequence number.
        seq: u64,
        /// Offset from the trace epoch, nanoseconds.
        ts_ns: u64,
    },
}

/// The global trace buffer.
static TRACE_BUF: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Records dropped after the buffer reached [`MAX_TRACE_RECORDS`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Global span/event creation sequence.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Next stable thread id; 0 is reserved for "unassigned" (and for the
/// synthetic counter track in the Chrome export).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// The instant all trace timestamps are measured from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// This thread's stable id; 0 until assigned.
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Recovers the guard from a poisoned buffer lock; the buffer holds plain
/// `Copy` records, so a panic mid-push cannot leave it inconsistent.
fn lock_buf() -> MutexGuard<'static, Vec<Record>> {
    match TRACE_BUF.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Pins the trace epoch (idempotent).
pub(crate) fn init_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

/// The trace epoch, pinned on first use.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds in `d`, saturating at `u64::MAX` (~584 years).
fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from the trace epoch to `at` (zero if `at` precedes it).
pub(crate) fn ns_since_epoch(at: Instant) -> u64 {
    duration_ns(at.duration_since(epoch()))
}

/// The next global creation sequence number, shared by spans and instants
/// so export ordering is total within a thread.
pub(crate) fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// This thread's stable small id, assigned on first use.
pub(crate) fn current_tid() -> u32 {
    TID.with(|cell| {
        let tid = cell.get();
        if tid != 0 {
            return tid;
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        cell.set(tid);
        tid
    })
}

/// Appends `record` to the trace buffer, honoring [`MAX_TRACE_RECORDS`].
pub(crate) fn push_record(record: Record) {
    let mut buf = lock_buf();
    if buf.len() < MAX_TRACE_RECORDS {
        buf.push(record);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Takes every buffered record, leaving the buffer empty.
pub(crate) fn take_records() -> Vec<Record> {
    std::mem::take(&mut *lock_buf())
}

/// Clones every buffered record without draining.
pub(crate) fn snapshot_records() -> Vec<Record> {
    lock_buf().clone()
}

/// Discards every buffered record and resets the dropped-record count.
pub fn clear_trace() {
    lock_buf().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Guards the span buffer's one owner; see [`TraceSession`].
static SESSION: Mutex<()> = Mutex::new(());

/// Exclusive use of the span buffer for one traced run, from
/// [`begin`](Self::begin) until the session is dropped.
///
/// A session clears the buffer when it begins and again when it ends, and
/// holds the tracing layer on ([`crate::acquire`]) in between, so what its
/// owner exports ([`crate::drain_chrome_trace`], [`crate::profile_report`])
/// holds only spans recorded while it was open. A second session waits
/// until the first is dropped, which also happens on unwind.
///
/// Spans are recorded by every thread while tracing is on: the switch is
/// process-wide, so untraced work that overlaps a session (say, an
/// untraced in-process CLI run beside a traced one) still adds its spans
/// to the session's buffer. Only traced runs are kept apart.
#[derive(Debug)]
#[must_use = "the session ends when dropped"]
pub struct TraceSession {
    _owner: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Waits for any open session to end, then clears the buffer and
    /// switches tracing on.
    pub fn begin() -> Self {
        // The guarded value is `()`, so a poisoned lock carries no state.
        let owner = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        clear_trace();
        crate::acquire(crate::Layer::Tracing);
        Self { _owner: owner }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        clear_trace();
        crate::release(crate::Layer::Tracing);
    }
}

/// Number of currently buffered trace records.
#[must_use]
pub fn buffered_records() -> usize {
    lock_buf().len()
}

/// Records dropped since the last [`clear_trace`] because the buffer was
/// full.
#[must_use]
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// A live, not-yet-recorded span.
#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    args: RecordArgs,
    histogram: Option<&'static Histogram>,
    begin: Instant,
    seq: u64,
}

/// RAII guard returned by [`span`]; records the timed scope when dropped.
///
/// Bind it to a named local (`let _span = ...`) — binding to `_` drops it
/// immediately and records an empty span.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a named local"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_ns = duration_ns(live.begin.elapsed());
        if let Some(histogram) = live.histogram {
            histogram.record(dur_ns);
        }
        if tracing_enabled() {
            // `duration_since` saturates to zero when the span began before
            // the epoch was pinned.
            let start_ns = duration_ns(live.begin.duration_since(epoch()));
            push_record(Record::Span {
                name: live.name,
                args: live.args,
                tid: current_tid(),
                seq: live.seq,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Opens a span if any consumer (trace buffer, duration histogram) is
/// currently enabled.
fn begin(name: &'static str, args: RecordArgs, histogram: Option<&'static Histogram>) -> SpanGuard {
    let want_trace = tracing_enabled();
    let want_histogram = histogram.is_some() && crate::metrics_enabled();
    if !want_trace && !want_histogram {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some(LiveSpan {
            name,
            args,
            histogram,
            begin: Instant::now(),
            seq: next_seq(),
        }),
    }
}

/// Starts a timed span named `name`; the returned guard records the scope's
/// duration when dropped. Near-free while tracing is disabled.
///
/// ```
/// cordoba_obs::set_tracing_enabled(true);
/// {
///     let _span = cordoba_obs::span("docs/example");
/// }
/// assert!(cordoba_obs::span::buffered_records() > 0);
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    begin(name, [None, None], None)
}

/// [`span`] with one named integer argument shown in the trace viewer
/// (e.g. the chunk length of a parallel worker).
pub fn span_with(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    begin(name, [Some((key, value)), None], None)
}

/// [`span`] that additionally records the scope's duration (nanoseconds)
/// into `histogram` when metrics are enabled — so hot entry points get a
/// latency distribution even when no trace is being collected.
pub fn span_timed(name: &'static str, histogram: &'static Histogram) -> SpanGuard {
    begin(name, [None, None], Some(histogram))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_and_tids() {
        let _guard = crate::test_lock();
        crate::set_tracing_enabled(true);
        clear_trace();
        {
            let _outer = span("test/outer");
            let _inner = span_with("test/inner", "items", 3);
        }
        let records = snapshot_records();
        let mut spans: Vec<(&str, u64)> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span { name, seq, .. } => Some((*name, *seq)),
                Record::Instant { .. } => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        // Creation order: outer first, even though inner dropped first.
        spans.sort_by_key(|(_, seq)| *seq);
        assert_eq!(spans[0].0, "test/outer");
        assert_eq!(spans[1].0, "test/inner");
        crate::set_tracing_enabled(false);
        clear_trace();
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = crate::test_lock();
        crate::set_tracing_enabled(false);
        clear_trace();
        {
            let _span = span("test/disabled");
        }
        assert_eq!(buffered_records(), 0);
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let here = current_tid();
        assert_eq!(here, current_tid());
        let there = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, 0);
        assert_ne!(there, 0);
        assert_ne!(here, there);
    }
}
