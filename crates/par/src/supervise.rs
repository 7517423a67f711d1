//! Execution supervision for long-running parallel work.
//!
//! A [`Supervisor`] is a cheap, cloneable handle combining three concerns
//! that every long-running CORDOBA pipeline (design-space sweeps, β-solves,
//! Monte Carlo runs, event simulation) needs:
//!
//! * **cooperative cancellation** — [`Supervisor::cancel`] requests a stop;
//!   workers observe it at the next item boundary via
//!   [`Supervisor::should_stop`];
//! * **deadline budget** — [`Supervisor::with_deadline`] arms a monotonic
//!   wall-clock budget checked at the same boundaries;
//! * **progress accounting** — completed/panicked unit counters, surfaced
//!   through [`Supervisor::progress`] and attached to the supervision
//!   events recorded through `cordoba-obs`.
//!
//! [`SupervisedMap`] is the crate's one parallel map and the one place
//! where a pipeline's progress is kept: one [`Outcome`] slot per input
//! index, filled in place by [`SupervisedMap::advance`] with a stop check
//! and per-item panic isolation (`std::panic::catch_unwind`) before every
//! item, and finished by [`SupervisedMap::into_values`].
//!
//! # Determinism contract
//!
//! Supervision never changes *values*: an item that completes produces the
//! exact bits a sequential loop would have produced, because the closure
//! runs unchanged and results are stored by input index. What a stop makes
//! nondeterministic is only *which subset* of items completed before the
//! cut (worker interleaving decides that). A later advance attempts only
//! the `Skipped` slots, so any sequence of interrupted advances ends on the
//! uninterrupted output bit for bit at any thread count — the invariant
//! the `cordoba-robust` property suite pins.
//!
//! [`Supervisor::tripping_after`] stops after a fixed number of completed
//! units instead of after elapsed time, which is what the fault-injection
//! suite uses to interrupt runs at seed-chosen points reproducibly.
//
// cordoba-lint: allow-file(atomic-ordering) — the supervisor's cells are a
// sticky cancellation flag and monotonic progress tallies; no data is
// published through them (results travel through the scoped-join), so
// Relaxed is sufficient and cannot affect mapped values.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::CostHint;

/// Why a supervised run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`Supervisor::cancel`] was called (or a [`Supervisor::tripping_after`]
    /// threshold was reached).
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

/// Progress snapshot of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Work units that completed normally.
    pub completed: u64,
    /// Work units whose closure panicked (isolated, not aborted).
    pub panicked: u64,
}

impl Progress {
    /// Units attempted: completed plus panicked.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.completed + self.panicked
    }
}

/// Shared state behind the cloneable handle.
#[derive(Debug)]
struct Shared {
    /// Sticky cancellation flag; set by [`Supervisor::cancel`] and latched
    /// when a trip threshold fires so the reason stays stable.
    cancelled: AtomicBool,
    /// Stop after this many attempted units; `u64::MAX` disables the trip.
    trip_at: u64,
    /// Deadline armed at construction; `None` means unbounded.
    deadline: Option<(Instant, Duration)>,
    /// Work units completed normally.
    completed: AtomicU64,
    /// Work units that panicked and were quarantined.
    panicked: AtomicU64,
}

/// Cooperative cancellation token + deadline budget + progress accounting.
///
/// Cloning is cheap and shares all state, so the same handle can be held by
/// the caller (to cancel) and threaded through nested pipelines (to observe
/// the stop and account progress).
///
/// ```
/// use cordoba_par::supervise::{StopReason, Supervisor};
///
/// let sup = Supervisor::unbounded();
/// assert_eq!(sup.should_stop(), None);
/// sup.cancel();
/// assert_eq!(sup.should_stop(), Some(StopReason::Cancelled));
/// ```
#[derive(Debug, Clone)]
pub struct Supervisor {
    shared: Arc<Shared>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl Supervisor {
    fn with_limits(trip_at: u64, deadline: Option<(Instant, Duration)>) -> Self {
        Self {
            shared: Arc::new(Shared {
                cancelled: AtomicBool::new(false),
                trip_at,
                deadline,
                completed: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
            }),
        }
    }

    /// A supervisor that never stops a run unless [`cancel`](Self::cancel)
    /// is called. The no-deadline overhead is one relaxed flag load per
    /// item.
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
        // values: items either run to completion (bit-identical to an
        // uninterrupted run) or are skipped and computed on resume.
        // cordoba-lint: allow(wall-clock) — deadline anchor; cannot reach results
        Self::with_limits(u64::MAX, Some((Instant::now(), budget)))
    }

    /// A supervisor that auto-cancels once `units` work units have been
    /// attempted. This is the deterministic interruption mechanism used by
    /// the fault-injection suite: unlike a wall-clock deadline it fires at
    /// a reproducible point (exactly reproducible at one thread; at a
    /// seed-independent *count* of attempted units otherwise).
    #[must_use]
    pub fn tripping_after(units: u64) -> Self {
        Self::with_limits(units, None)
    }

    /// Requests a cooperative stop; sticky.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) was called or a trip threshold
    /// latched.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// The reason this run should stop now, if any. Cancellation (explicit
    /// or tripped) takes precedence over the deadline so the reported
    /// reason is stable once latched.
    #[must_use]
    pub fn should_stop(&self) -> Option<StopReason> {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return Some(StopReason::Cancelled);
        }
        // `u64::MAX` disables the trip; skip the two progress-counter
        // loads entirely so untripped supervision costs one flag load.
        if self.shared.trip_at != u64::MAX && self.progress().attempted() >= self.shared.trip_at {
            // Latch so the reason survives later progress and clones.
            self.cancel();
            return Some(StopReason::Cancelled);
        }
        if let Some((start, budget)) = self.shared.deadline {
            if start.elapsed() >= budget {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Accounts `n` successfully completed work units.
    pub fn note_completed(&self, n: u64) {
        self.shared.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Accounts one panicked (quarantined) work unit.
    pub fn note_panicked(&self) {
        self.shared.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Progress so far across everything this handle supervised.
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            completed: self.shared.completed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Records the stop as a typed `cordoba-obs` event (with the completed
    /// count as payload) and returns it unchanged. Consumers call this once
    /// per interrupted pipeline stage.
    #[must_use]
    pub fn record_stop(&self, reason: StopReason) -> StopReason {
        let completed = self.progress().completed;
        let event = match reason {
            StopReason::Cancelled => cordoba_obs::Event::Cancelled { completed },
            StopReason::DeadlineExceeded => cordoba_obs::Event::DeadlineExceeded { completed },
        };
        cordoba_obs::record(&event);
        reason
    }
}

/// Per-slot outcome of a [`SupervisedMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<R> {
    /// The closure completed; the value is bit-identical at every thread
    /// count.
    Done(R),
    /// The closure panicked; the payload message is quarantined here and
    /// the process survives.
    Panicked(String),
    /// No advance has attempted this slot yet.
    Skipped,
}

impl<R> Outcome<R> {
    /// The completed value, if any.
    pub fn done(&self) -> Option<&R> {
        match self {
            Self::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// The one parallel map: one [`Outcome`] slot per input index, filled in
/// place by [`advance`](Self::advance), which both starts and resumes the
/// map.
///
/// An advance attempts only the [`Outcome::Skipped`] slots, checking the
/// supervisor before every item and isolating each item's panic. Once
/// attempted, a slot's outcome is final: a value (which may be an error
/// the closure returned inside `R`) or a quarantined panic. A panicked
/// item is never re-run; a pure item would only panic again.
///
/// Values are merged by input index, so for a pure closure every `Done`
/// value is bit-identical at every thread count, and any sequence of
/// interrupted advances ends on the bits of one uninterrupted advance.
/// [`into_values`](Self::into_values) is the finisher.
///
/// Two maps are equal when their slots are: the stop reason of the last
/// advance is not part of a map's value, so a map restored from saved
/// values equals the interrupted map it was saved from.
///
/// ```
/// use cordoba_par::{CostHint, SupervisedMap, Supervisor};
///
/// let items = [1u64, 2, 3, 4];
/// let mut map = SupervisedMap::new(items.len());
/// map.advance(2, CostHint::per_item_ns(1), &Supervisor::unbounded(), |i| {
///     items[i] * items[i]
/// });
/// assert_eq!(map.into_values(), vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct SupervisedMap<R> {
    slots: Vec<Outcome<R>>,
    /// Slots still [`Outcome::Skipped`].
    pending: usize,
    stop: Option<StopReason>,
}

impl<R: PartialEq> PartialEq for SupervisedMap<R> {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl<R: Eq> Eq for SupervisedMap<R> {}

impl<R> SupervisedMap<R> {
    /// A map over `len` inputs with every slot [`Outcome::Skipped`].
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            slots: std::iter::repeat_with(|| Outcome::Skipped)
                .take(len)
                .collect(),
            pending: len,
            stop: None,
        }
    }

    /// One outcome per input index, in input order.
    #[must_use]
    pub fn outcomes(&self) -> &[Outcome<R>] {
        &self.slots
    }

    /// Why the last advance stopped early, or `None` when it attempted
    /// every slot it was given.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.stop
    }

    /// Slots attempted so far (done or panicked).
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.slots.len() - self.pending
    }

    /// `true` when every slot has been attempted.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }

    /// Indices of the slots not yet attempted, ascending.
    #[must_use]
    pub fn pending_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, o)| matches!(o, Outcome::Skipped).then_some(i))
            .collect()
    }

    /// The message of the first (in index order) panicked slot.
    #[must_use]
    pub fn first_panic(&self) -> Option<&str> {
        self.slots.iter().find_map(|o| match o {
            Outcome::Panicked(message) => Some(message.as_str()),
            _ => None,
        })
    }

    /// Records `value` for slot `index` as if an advance had computed it:
    /// how a value saved by an earlier run (a checkpoint row, say) is put
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn restore(&mut self, index: usize, value: R) {
        if matches!(self.slots[index], Outcome::Skipped) {
            self.pending -= 1;
        }
        self.slots[index] = Outcome::Done(value);
    }

    /// The outcomes, in input order.
    #[must_use]
    pub fn into_outcomes(self) -> Vec<Outcome<R>> {
        self.slots
    }

    /// The finisher: every value in input order.
    ///
    /// # Panics
    ///
    /// Re-raises the first (in index order) panicked slot's message on the
    /// caller, as a sequential loop would have raised it. Panics if a slot
    /// was never attempted, which an advance under a supervisor that never
    /// trips rules out.
    #[must_use]
    pub fn into_values(self) -> Vec<R> {
        if let Some(message) = self.first_panic() {
            std::panic::resume_unwind(Box::new(message.to_owned()));
        }
        self.slots
            .into_iter()
            .map(|slot| match slot {
                Outcome::Done(value) => value,
                // cordoba-lint: allow(no-panic) — documented contract: finishing an interrupted map is a caller bug
                _ => panic!("SupervisedMap::into_values on a map with unattempted slots"),
            })
            .collect()
    }

    /// Attempts every [`Outcome::Skipped`] slot `i` as `f(i)` under `sup`,
    /// with as many workers (at most `threads`, 1 = the calling thread) as
    /// `hint` says the pending work pays for.
    ///
    /// The pending slots are split into one contiguous run per worker,
    /// each walked front to back with a stop check and a `catch_unwind`
    /// per item, writing outcomes in place. When the supervisor stops the
    /// advance, the stop is recorded once as a supervision event and kept
    /// in [`stop`](Self::stop); the unattempted slots stay `Skipped` for
    /// the next advance.
    pub fn advance<F>(&mut self, threads: usize, hint: CostHint, sup: &Supervisor, f: F)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = hint.workers(self.pending, threads);
        let attempted = if workers <= 1 {
            advance_run(0, &mut self.slots, sup, &f)
        } else {
            let per_worker = self.pending.div_ceil(workers);
            let f = &f;
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                let (mut rest, mut base, mut left) = (&mut self.slots[..], 0, self.pending);
                while left > 0 {
                    let take = per_worker.min(left);
                    let cut = end_of_nth_pending(rest, take);
                    let (run, tail) = std::mem::take(&mut rest).split_at_mut(cut);
                    handles.push(scope.spawn(move || {
                        // Observability side channel only: the span never
                        // touches the mapped values.
                        let _span = cordoba_obs::span_with(
                            "par/chunk",
                            "items",
                            u64::try_from(take).unwrap_or(u64::MAX),
                        );
                        advance_run(base, run, sup, f)
                    }));
                    (rest, base, left) = (tail, base + cut, left - take);
                }
                handles
                    .into_iter()
                    // Items isolate their own panics, so a join failure
                    // is a panic outside `f` (say, in obs plumbing):
                    // re-raise it on the caller.
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .sum()
            })
        };
        self.pending -= attempted;
        // A slot left pending implies a latched cancel, a tripped
        // threshold, or an elapsed deadline, all sticky, so this re-check
        // agrees with what the worker saw. The fallback cannot fire but
        // keeps this total.
        self.stop = (self.pending > 0)
            .then(|| sup.record_stop(sup.should_stop().unwrap_or(StopReason::Cancelled)));
    }
}

/// The length of the shortest prefix of `slots` holding `n` pending slots.
fn end_of_nth_pending<R>(slots: &[Outcome<R>], n: usize) -> usize {
    slots
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, Outcome::Skipped))
        .nth(n - 1)
        .map_or(slots.len(), |(i, _)| i + 1)
}

/// Renders a panic payload into a stable, storable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Attempts the pending slots of one contiguous run (`slots[0]` is input
/// index `base`) front to back, stopping at the first positive stop check;
/// returns how many slots it attempted. The sequential and parallel paths
/// share it, so supervision semantics never depend on the worker count.
fn advance_run<R, F>(base: usize, slots: &mut [Outcome<R>], sup: &Supervisor, f: &F) -> usize
where
    F: Fn(usize) -> R,
{
    let mut attempted = 0;
    for (offset, slot) in slots.iter_mut().enumerate() {
        if !matches!(slot, Outcome::Skipped) {
            continue;
        }
        if sup.should_stop().is_some() {
            break;
        }
        // Per *item*, not per run: run boundaries move with the thread
        // count, so quarantining whole runs would make the set of salvaged
        // results thread-count-dependent. AssertUnwindSafe is sound
        // because a panicked item contributes nothing but its message — no
        // state touched by `f` for that item is reused.
        *slot = match catch_unwind(AssertUnwindSafe(|| f(base + offset))) {
            Ok(value) => {
                sup.note_completed(1);
                Outcome::Done(value)
            }
            Err(payload) => {
                sup.note_panicked();
                cordoba_obs::record(&cordoba_obs::Event::ChunkPanic);
                Outcome::Panicked(panic_message(payload.as_ref()))
            }
        };
        attempted += 1;
    }
    attempted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silences the default panic-hook chatter for payloads carrying this
    /// marker; intentional panics in these tests would otherwise spam the
    /// test log.
    const QUIET: &str = "[quiet-test-panic]";

    fn install_quiet_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let quiet = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(QUIET))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains(QUIET));
                if !quiet {
                    default(info);
                }
            }));
        });
    }

    /// A hint heavy enough that every requested thread count fans out.
    const HEAVY: CostHint = CostHint::per_item_ns(1_000_000);

    /// One advance of a fresh map over `len` items under `sup`.
    fn run<R: Send>(
        len: usize,
        threads: usize,
        hint: CostHint,
        sup: &Supervisor,
        f: impl Fn(usize) -> R + Sync,
    ) -> SupervisedMap<R> {
        let mut map = SupervisedMap::new(len);
        map.advance(threads, hint, sup, f);
        map
    }

    #[test]
    fn unbounded_supervisor_matches_unsupervised_map() {
        let items: Vec<u64> = (0..600).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(37) ^ 11).collect();
        for threads in [1, 2, 5, 64] {
            let sup = Supervisor::unbounded();
            let run = run(items.len(), threads, HEAVY, &sup, |i| {
                items[i].wrapping_mul(37) ^ 11
            });
            assert!(run.is_complete(), "threads = {threads}");
            let got: Vec<u64> = run
                .into_outcomes()
                .into_iter()
                .map(|o| match o {
                    Outcome::Done(v) => v,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect();
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(sup.progress().completed, items.len() as u64);
        }
    }

    #[test]
    fn cancellation_skips_remaining_items() {
        let sup = Supervisor::unbounded();
        sup.cancel();
        let run = run(100, 4, HEAVY, &sup, |i| i);
        assert_eq!(run.stop(), Some(StopReason::Cancelled));
        assert_eq!(run.pending_indices().len(), 100);
    }

    #[test]
    fn trip_after_stops_at_exact_point_sequentially() {
        let sup = Supervisor::tripping_after(17);
        let run = run(50, 1, HEAVY, &sup, |i| i * 2);
        assert_eq!(run.stop(), Some(StopReason::Cancelled));
        let done = run.outcomes().iter().filter(|o| o.done().is_some()).count();
        assert_eq!(done, 17);
        assert_eq!(run.pending_indices(), (17..50).collect::<Vec<_>>());
        assert_eq!(sup.progress().completed, 17);
    }

    #[test]
    fn zero_deadline_skips_everything() {
        let sup = Supervisor::with_deadline(Duration::ZERO);
        let run = run(40, 4, HEAVY, &sup, |i| i);
        assert_eq!(run.stop(), Some(StopReason::DeadlineExceeded));
        assert_eq!(run.pending_indices().len(), 40);
        assert_eq!(sup.progress().completed, 0);
    }

    #[test]
    fn panics_are_quarantined_per_item_in_input_order() {
        install_quiet_hook();
        for threads in [1, 3, 8] {
            let sup = Supervisor::unbounded();
            let run = run(200, threads, HEAVY, &sup, |x| {
                assert!(x % 61 != 13, "{QUIET} poisoned item {x}");
                x * 3
            });
            assert!(run.is_complete());
            for (i, outcome) in run.outcomes().iter().enumerate() {
                if i % 61 == 13 {
                    match outcome {
                        Outcome::Panicked(msg) => assert!(msg.contains("poisoned item")),
                        other => panic!("index {i}: expected panic, got {other:?}"),
                    }
                } else {
                    assert_eq!(outcome.done(), Some(&(i * 3)), "index {i}");
                }
            }
            assert_eq!(sup.progress().panicked, 4); // 13, 74, 135, 196
        }
    }

    #[test]
    fn hinted_supervised_map_matches_unhinted_outcomes() {
        let items: Vec<u64> = (0..400).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(41) ^ 5).collect();
        for hint_ns in [1, 2_000] {
            let sup = Supervisor::unbounded();
            let run = run(items.len(), 4, CostHint::per_item_ns(hint_ns), &sup, |i| {
                items[i].wrapping_mul(41) ^ 5
            });
            assert!(run.is_complete(), "hint = {hint_ns}");
            let got: Vec<u64> = run
                .into_outcomes()
                .into_iter()
                .map(|o| match o {
                    Outcome::Done(v) => v,
                    other => panic!("unexpected outcome {other:?}"),
                })
                .collect();
            assert_eq!(got, expected, "hint = {hint_ns}");
        }
        // A tripping supervisor still stops a hinted sequential run at the
        // exact unit count.
        let sup = Supervisor::tripping_after(9);
        let run = run(items.len(), 8, CostHint::per_item_ns(1), &sup, |i| items[i]);
        assert_eq!(run.stop(), Some(StopReason::Cancelled));
        assert_eq!(run.pending_indices(), (9..400).collect::<Vec<_>>());
    }

    /// The slot contract: over an interrupted advance and a resuming one,
    /// every index runs exactly once, `Done` and `Panicked` slots are never
    /// re-run, and `into_values` re-raises the lowest panicked index.
    #[test]
    fn every_index_runs_once_across_interrupted_advances() {
        use std::sync::atomic::AtomicUsize;
        install_quiet_hook();
        let len = 300;
        let poisoned = |i: usize| i % 53 == 20; // 20, 73, 126, 179, 232, 285
        for threads in [1, 4] {
            for trip in [0u64, 1, 37, 150, 299] {
                let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let f = |i: usize| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    assert!(!poisoned(i), "{QUIET} poisoned item {i}");
                    i * 7
                };
                let mut map = SupervisedMap::new(len);
                map.advance(threads, HEAVY, &Supervisor::tripping_after(trip), f);
                assert_eq!(map.stop().is_some(), !map.is_complete(), "trip {trip}");
                if threads == 1 {
                    assert_eq!(map.attempted() as u64, trip, "trip {trip}");
                }
                let before = map.outcomes().to_vec();
                map.advance(threads, HEAVY, &Supervisor::unbounded(), f);
                assert!(map.is_complete() && map.stop().is_none(), "trip {trip}");
                for (i, count) in calls.iter().enumerate() {
                    let what = format!("threads {threads}, trip {trip}, index {i}");
                    assert_eq!(count.load(Ordering::Relaxed), 1, "{what}");
                    if !matches!(before[i], Outcome::Skipped) {
                        assert_eq!(before[i], map.outcomes()[i], "{what}");
                    }
                    match &map.outcomes()[i] {
                        Outcome::Done(v) => assert!(!poisoned(i) && *v == i * 7, "{what}"),
                        Outcome::Panicked(m) => {
                            assert!(poisoned(i) && m.contains("item"), "{what}")
                        }
                        Outcome::Skipped => panic!("{what}: left pending"),
                    }
                }
                // A third advance finds nothing to do.
                map.advance(threads, HEAVY, &Supervisor::unbounded(), f);
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
                let raised = std::panic::catch_unwind(AssertUnwindSafe(|| map.into_values()))
                    .expect_err("a panicked slot re-raises");
                assert_eq!(
                    raised.downcast_ref::<String>().map(String::as_str),
                    Some(format!("{QUIET} poisoned item 20").as_str())
                );
            }
        }
    }

    #[test]
    fn restored_slots_are_not_rerun() {
        let mut map = SupervisedMap::new(5);
        map.restore(1, 100);
        map.restore(3, 300);
        assert_eq!(map.attempted(), 2);
        assert_eq!(map.pending_indices(), vec![0, 2, 4]);
        map.advance(1, HEAVY, &Supervisor::unbounded(), |i| i);
        assert_eq!(map.into_values(), vec![0, 100, 2, 300, 4]);
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
