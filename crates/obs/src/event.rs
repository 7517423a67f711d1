//! Typed structured events for CORDOBA's interesting state transitions.
//!
//! Counters tell you *how often* something happened; structured events tell
//! you *that a specific transition happened, when, and with what payload*.
//! Each [`Event`] recorded via [`record`] increments a per-kind counter
//! (under the `events/` prefix) and, while tracing is enabled, lands in the
//! trace buffer as a zero-duration instant visible on the recording
//! thread's track in Perfetto.

use crate::metrics::Counter;
use crate::span::{current_tid, next_seq, ns_since_epoch, push_record, Record, RecordArgs};
use crate::tracing_enabled;
use std::time::Instant;

static FALLBACK_TIER_SWITCH: Counter = Counter::new("events/fallback_tier_switch");
static FALLBACK_EXHAUSTED: Counter = Counter::new("events/fallback_exhausted");
static SANITIZE_REJECTION: Counter = Counter::new("events/sanitize_rejection");
static QUARANTINE: Counter = Counter::new("events/quarantine");
static WATCHDOG_TRUNCATION: Counter = Counter::new("events/event_sim_truncated");
static CACHE_HIT: Counter = Counter::new("events/embodied_cache_hit");
static CACHE_MISS: Counter = Counter::new("events/embodied_cache_miss");
static DEADLINE_EXCEEDED: Counter = Counter::new("events/supervision_deadline_exceeded");
static CANCELLED: Counter = Counter::new("events/supervision_cancelled");
static CHUNK_PANIC: Counter = Counter::new("events/supervision_chunk_panic");
static CHECKPOINT_WRITTEN: Counter = Counter::new("events/supervision_checkpoint_written");
static CHECKPOINT_RESTORED: Counter = Counter::new("events/supervision_checkpoint_restored");
static STORE_HIT: Counter = Counter::new("events/store_hit");
static STORE_MISS: Counter = Counter::new("events/store_miss");
static STORE_WRITE: Counter = Counter::new("events/store_write");

/// An interesting state transition somewhere in the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A `FallbackCi` query was answered below the primary tier; `tier` is
    /// the zero-based index of the serving tier.
    FallbackTierSwitch {
        /// Zero-based index of the tier that served the query.
        tier: u64,
    },
    /// A `FallbackCi` query that no tier could answer (served as zero).
    FallbackExhausted,
    /// `TraceCi::sanitize` rejected or repaired samples.
    SanitizeRejection {
        /// Samples dropped outright (non-finite timestamp/value, negative
        /// timestamp).
        dropped: u64,
        /// Samples repaired in place (clamped, deduplicated, reordered,
        /// clipped).
        repaired: u64,
    },
    /// A configuration was quarantined during resilient space evaluation.
    Quarantine,
    /// The event-driven simulator's watchdog truncated a segment.
    WatchdogTruncation,
    /// An `EmbodiedCache` lookup was served from the cache.
    CacheHit,
    /// An `EmbodiedCache` lookup had to run the embodied-carbon model.
    CacheMiss,
    /// A supervised run stopped because its deadline budget was exhausted;
    /// `completed` is the number of work units finished before the stop.
    DeadlineExceeded {
        /// Work units completed before the deadline fired.
        completed: u64,
    },
    /// A supervised run reached its trip count
    /// (`cordoba_par::Supervisor::tripping_after`).
    Cancelled {
        /// Work units completed before the stop was observed.
        completed: u64,
    },
    /// An item panicked inside `cordoba_par::isolate`; its panic was
    /// quarantined as a message instead of unwinding the caller.
    ChunkPanic,
    /// A sweep checkpoint was serialized for later resumption.
    CheckpointWritten {
        /// Work units (e.g. sweep rows) captured as complete.
        completed: u64,
    },
    /// A sweep checkpoint was parsed back and its invariants verified.
    CheckpointRestored {
        /// Work units the restored checkpoint already covers.
        completed: u64,
    },
    /// A persistent-store lookup found a valid entry.
    StoreHit,
    /// A persistent-store lookup found nothing usable (absent, corrupt,
    /// truncated, or salted for a different code version).
    StoreMiss,
    /// A result was written behind into the persistent store.
    StoreWrite,
}

impl Event {
    /// The per-kind counter and trace payload for this event.
    fn dissect(&self) -> (&'static Counter, RecordArgs) {
        match *self {
            Self::FallbackTierSwitch { tier } => {
                (&FALLBACK_TIER_SWITCH, [Some(("tier", tier)), None])
            }
            Self::FallbackExhausted => (&FALLBACK_EXHAUSTED, [None, None]),
            Self::SanitizeRejection { dropped, repaired } => (
                &SANITIZE_REJECTION,
                [Some(("dropped", dropped)), Some(("repaired", repaired))],
            ),
            Self::Quarantine => (&QUARANTINE, [None, None]),
            Self::WatchdogTruncation => (&WATCHDOG_TRUNCATION, [None, None]),
            Self::CacheHit => (&CACHE_HIT, [None, None]),
            Self::CacheMiss => (&CACHE_MISS, [None, None]),
            Self::DeadlineExceeded { completed } => {
                (&DEADLINE_EXCEEDED, [Some(("completed", completed)), None])
            }
            Self::Cancelled { completed } => (&CANCELLED, [Some(("completed", completed)), None]),
            Self::ChunkPanic => (&CHUNK_PANIC, [None, None]),
            Self::CheckpointWritten { completed } => {
                (&CHECKPOINT_WRITTEN, [Some(("completed", completed)), None])
            }
            Self::CheckpointRestored { completed } => {
                (&CHECKPOINT_RESTORED, [Some(("completed", completed)), None])
            }
            Self::StoreHit => (&STORE_HIT, [None, None]),
            Self::StoreMiss => (&STORE_MISS, [None, None]),
            Self::StoreWrite => (&STORE_WRITE, [None, None]),
        }
    }

    /// The registry/trace name for this event kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.dissect().0.name()
    }
}

/// Records a structured event: bumps its `events/*` counter (metrics layer)
/// and, while tracing is enabled, appends an instant to the trace buffer.
///
/// ```
/// use cordoba_obs::Event;
///
/// cordoba_obs::record(&Event::FallbackTierSwitch { tier: 2 });
/// ```
pub fn record(event: &Event) {
    let (counter, args) = event.dissect();
    counter.incr();
    if tracing_enabled() {
        push_record(Record::Instant {
            name: counter.name(),
            args,
            tid: current_tid(),
            seq: next_seq(),
            ts_ns: ns_since_epoch(Instant::now()),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_bump_their_counters_and_trace() {
        let _guard = crate::test_lock();
        crate::set_metrics_enabled(true);
        crate::set_tracing_enabled(true);
        crate::clear_trace();
        let hits_before = CACHE_HIT.value();
        let written_before = CHECKPOINT_WRITTEN.value();
        record(&Event::CacheHit);
        record(&Event::CheckpointWritten { completed: 17 });
        assert_eq!(CACHE_HIT.value(), hits_before + 1);
        assert_eq!(CHECKPOINT_WRITTEN.value(), written_before + 1);
        assert_eq!(crate::span::buffered_records(), 2);
        crate::set_tracing_enabled(false);
        crate::clear_trace();
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(
            Event::FallbackTierSwitch { tier: 1 }.name(),
            "events/fallback_tier_switch"
        );
        assert_eq!(
            Event::SanitizeRejection {
                dropped: 1,
                repaired: 2
            }
            .name(),
            "events/sanitize_rejection"
        );
        assert_eq!(
            Event::WatchdogTruncation.name(),
            "events/event_sim_truncated"
        );
        assert_eq!(
            Event::DeadlineExceeded { completed: 3 }.name(),
            "events/supervision_deadline_exceeded"
        );
        assert_eq!(
            Event::Cancelled { completed: 0 }.name(),
            "events/supervision_cancelled"
        );
        assert_eq!(Event::ChunkPanic.name(), "events/supervision_chunk_panic");
        assert_eq!(
            Event::CheckpointWritten { completed: 7 }.name(),
            "events/supervision_checkpoint_written"
        );
        assert_eq!(
            Event::CheckpointRestored { completed: 7 }.name(),
            "events/supervision_checkpoint_restored"
        );
        assert_eq!(Event::StoreHit.name(), "events/store_hit");
        assert_eq!(Event::StoreMiss.name(), "events/store_miss");
        assert_eq!(Event::StoreWrite.name(), "events/store_write");
    }
}
