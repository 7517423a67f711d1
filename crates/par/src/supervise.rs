//! Execution supervision for the one pipeline a user stops and resumes.
//!
//! A [`Supervisor`] is the stop rule of the operational-time sweep behind
//! `dse --deadline/--checkpoint/--resume`, which checks it once per row
//! through [`Supervisor::should_stop`]. It holds two limits and a tally:
//!
//! * **deadline budget** — [`Supervisor::with_deadline`] arms a monotonic
//!   wall-clock budget;
//! * **trip count** — [`Supervisor::tripping_after`] stops after a fixed
//!   number of completed units instead of after elapsed time, which is
//!   what the fault-injection suite uses to interrupt runs at seed-chosen
//!   points reproducibly;
//! * **progress accounting** — a completed-unit counter
//!   ([`Supervisor::note_completed`]) that drives the trip count and is
//!   attached to the supervision events recorded through `cordoba-obs`.
//!
//! # Determinism contract
//!
//! Supervision never changes *values*: a row that runs produces the exact
//! bits a sequential loop would have produced. What a stop makes
//! nondeterministic is only *which subset* of rows completed before the
//! cut (worker interleaving decides that). The sweep keeps its completed
//! rows and a later resume computes only the others, so any sequence of
//! interrupted runs ends on the uninterrupted output bit for bit at any
//! thread count — the invariant the `cordoba-robust` property suite pins.
//
// cordoba-lint: allow-file(atomic-ordering) — the supervisor's one cell is
// a monotonic progress tally; no data is published through it (results
// travel through the scoped-join), so Relaxed is sufficient and cannot
// affect mapped values.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a supervised run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`Supervisor::tripping_after`] threshold was reached. The name and
    /// its `cancelled` token predate the trip count and are kept so
    /// existing checkpoints still parse.
    Cancelled,
    /// The monotonic deadline budget was exhausted.
    DeadlineExceeded,
}

impl StopReason {
    /// Stable lowercase token used in checkpoint files and CLI output.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Self::Cancelled => "cancelled",
            Self::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Parses the token written by [`StopReason::token`].
    #[must_use]
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "cancelled" => Some(Self::Cancelled),
            "deadline-exceeded" => Some(Self::DeadlineExceeded),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Trip count + deadline budget + progress accounting.
///
/// Each constructor arms at most one limit, and both limits are sticky on
/// their own: the completed count only grows and the monotonic clock only
/// advances. So once [`should_stop`](Self::should_stop) reports a reason,
/// every later check of the run reports the same one.
///
/// ```
/// use cordoba_par::supervise::{StopReason, Supervisor};
///
/// let sup = Supervisor::tripping_after(1);
/// assert_eq!(sup.should_stop(), None);
/// sup.note_completed(1);
/// assert_eq!(sup.should_stop(), Some(StopReason::Cancelled));
/// ```
#[derive(Debug)]
pub struct Supervisor {
    /// Stop after this many completed units; `u64::MAX` disables the trip.
    trip_at: u64,
    /// Deadline armed at construction; `None` means unbounded.
    deadline: Option<(Instant, Duration)>,
    /// Work units completed.
    completed: AtomicU64,
}

impl Supervisor {
    fn with_limits(trip_at: u64, deadline: Option<(Instant, Duration)>) -> Self {
        Self {
            trip_at,
            deadline,
            completed: AtomicU64::new(0),
        }
    }

    /// A supervisor that never stops a run. A check costs two compares and
    /// no memory load.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_limits(u64::MAX, None)
    }

    /// Arms a monotonic deadline: `should_stop` reports
    /// [`StopReason::DeadlineExceeded`] once `budget` has elapsed since
    /// this call.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        // The budget is a robustness control, never an input to computed
        // values: rows either run to completion (bit-identical to an
        // uninterrupted run) or are skipped and computed on resume.
        // cordoba-lint: allow(wall-clock) — deadline anchor; cannot reach results
        Self::with_limits(u64::MAX, Some((Instant::now(), budget)))
    }

    /// A supervisor that stops once `units` work units have completed.
    /// This is the deterministic interruption mechanism used by the
    /// fault-injection suite: unlike a wall-clock deadline it fires at a
    /// reproducible point (exactly reproducible at one thread; at a
    /// seed-independent *count* of completed units otherwise).
    #[must_use]
    pub fn tripping_after(units: u64) -> Self {
        Self::with_limits(units, None)
    }

    /// The reason this run should stop now, if any.
    #[must_use]
    pub fn should_stop(&self) -> Option<StopReason> {
        // `u64::MAX` disables the trip; skip the progress-counter load
        // entirely so untripped supervision loads nothing.
        if self.trip_at != u64::MAX && self.completed.load(Ordering::Relaxed) >= self.trip_at {
            return Some(StopReason::Cancelled);
        }
        if let Some((start, budget)) = self.deadline {
            if start.elapsed() >= budget {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Accounts `n` successfully completed work units.
    pub fn note_completed(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the stop as a typed `cordoba-obs` event (with the completed
    /// count as payload) and returns it unchanged. Consumers call this once
    /// per interrupted pipeline stage.
    #[must_use]
    pub fn record_stop(&self, reason: StopReason) -> StopReason {
        let completed = self.completed.load(Ordering::Relaxed);
        let event = match reason {
            StopReason::Cancelled => cordoba_obs::Event::Cancelled { completed },
            StopReason::DeadlineExceeded => cordoba_obs::Event::DeadlineExceeded { completed },
        };
        cordoba_obs::record(&event);
        reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map, CostHint};

    /// A hint heavy enough that every requested thread count fans out.
    const HEAVY: CostHint = CostHint::per_item_ns(1_000_000);

    /// The operational-time sweep's row pattern over `len` items: check
    /// `sup`, then run and count the item. `true` where the item ran.
    fn supervised_items(len: usize, threads: usize, sup: &Supervisor) -> Vec<bool> {
        map(len, threads, HEAVY, |_| {
            if sup.should_stop().is_some() {
                return false;
            }
            sup.note_completed(1);
            true
        })
    }

    #[test]
    fn unbounded_supervisor_matches_unsupervised_map() {
        for threads in [1, 2, 5, 64] {
            let sup = Supervisor::unbounded();
            assert_eq!(
                supervised_items(600, threads, &sup),
                vec![true; 600],
                "threads = {threads}"
            );
            assert_eq!(sup.should_stop(), None);
        }
    }

    #[test]
    fn trip_after_stops_at_exact_point_sequentially() {
        let sup = Supervisor::tripping_after(17);
        let ran = supervised_items(50, 1, &sup);
        assert_eq!(ran, (0..50).map(|i| i < 17).collect::<Vec<_>>());
        assert_eq!(sup.should_stop(), Some(StopReason::Cancelled));
        assert_eq!(
            Supervisor::tripping_after(0).should_stop(),
            Some(StopReason::Cancelled)
        );
    }

    #[test]
    fn zero_deadline_skips_everything() {
        let sup = Supervisor::with_deadline(Duration::ZERO);
        assert_eq!(supervised_items(40, 4, &sup), vec![false; 40]);
        assert_eq!(sup.should_stop(), Some(StopReason::DeadlineExceeded));
        let roomy = Supervisor::with_deadline(Duration::from_secs(3600));
        assert_eq!(roomy.should_stop(), None);
    }

    #[test]
    fn stop_reason_tokens_round_trip() {
        for reason in [StopReason::Cancelled, StopReason::DeadlineExceeded] {
            assert_eq!(StopReason::from_token(reason.token()), Some(reason));
            assert_eq!(format!("{reason}"), reason.token());
        }
        assert_eq!(StopReason::from_token("nonsense"), None);
    }
}
