//! Deterministic data parallelism for CORDOBA's analytical sweeps.
//!
//! Every hot loop in the framework — design-space characterization, tCDP
//! grids over operational time, β-transition solving, Monte Carlo
//! uncertainty sampling, the core-count provisioning study — is a pure map
//! over independent items. This crate parallelizes exactly that shape with
//! **zero external dependencies** (`std::thread::scope` +
//! `std::thread::available_parallelism`) through one map,
//! [`SupervisedMap`], under a strict determinism contract:
//!
//! * **Order-preserving**: results are stored by input index, so for a
//!   pure closure [`SupervisedMap::into_values`] is *byte-identical* to
//!   `(0..len).map(f).collect()` at every thread count.
//! * **One worker rule**: a [`CostHint`] (estimated nanoseconds per item)
//!   decides how many workers the pending work pays for; below
//!   [`CostHint::MIN_PARALLEL_WORK_NS`] of estimated work, or at a thread
//!   count of 1, the map runs inline on the calling thread.
//! * **Supervisable and resumable**: [`SupervisedMap::advance`] checks a
//!   [`Supervisor`] (cooperative cancellation + deadline budget) before
//!   every item, isolates each item's panic, and attempts only the slots
//!   no earlier advance attempted — the substrate for the workspace's
//!   checkpoint/resume pipelines (see [`supervise`]).
//! * **Panics reach the caller**: [`SupervisedMap::into_values`] re-raises
//!   the first (in input order) panicked item, as a sequential loop would.
//!   Fallible work returns `Result` inside the value, and collecting the
//!   values keeps the sequential "first error in input order" contract.
//!
//! # Thread-count resolution
//!
//! Every advance takes its thread count explicitly. Pipelines pass
//! [`effective_threads`]: the process-wide setting ([`set_threads`], wired
//! to the CLI's `--threads N`), falling back to
//! [`std::thread::available_parallelism`]. A count of 1 is exactly the
//! sequential path.
//!
//! # Examples
//!
//! ```
//! use cordoba_par::{CostHint, SupervisedMap, Supervisor};
//!
//! let inputs = ["1", "2", "x"];
//! let mut map = SupervisedMap::new(inputs.len());
//! map.advance(2, CostHint::per_item_ns(1), &Supervisor::unbounded(), |i| {
//!     inputs[i].parse::<i32>()
//! });
//! let parsed: Result<Vec<i32>, _> = map.into_values().into_iter().collect();
//! assert!(parsed.is_err());
//! ```

pub mod supervise;

pub use supervise::{Outcome, StopReason, SupervisedMap, Supervisor};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Caller-supplied per-item cost estimate: the worker rule of
/// [`SupervisedMap::advance`].
///
/// Item count alone cannot tell a 121-item sweep of microsecond work
/// (where spawning threads *loses* time) from 121 items of millisecond work
/// (where it pays). A `CostHint` makes the rule work-based: a map stays on
/// the calling thread until
/// its estimated total work reaches [`CostHint::MIN_PARALLEL_WORK_NS`], and
/// beyond that it uses only as many workers as keep each chunk above
/// [`CostHint::TARGET_CHUNK_NS`] of estimated work, so spawn/join overhead
/// (~10 µs per thread) stays a small fraction of every chunk.
///
/// The hint is a pure scheduling knob: the map is order-preserving, so results are bit-identical at any worker count and a
/// wrong estimate can only cost wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    ns_per_item: u64,
}

impl CostHint {
    /// Estimated total work below which a hinted map runs on the calling
    /// thread: ~200 µs of work saves at most ~100 µs by splitting in two,
    /// which barely clears the spawn/join cost.
    pub const MIN_PARALLEL_WORK_NS: u64 = 200_000;

    /// Estimated work each chunk should carry when a hinted map does go
    /// parallel, keeping per-thread spawn overhead around the percent
    /// level.
    pub const TARGET_CHUNK_NS: u64 = 100_000;

    /// A hint of `ns` estimated nanoseconds per mapped item (0 is treated
    /// as 1).
    #[must_use]
    pub const fn per_item_ns(ns: u64) -> Self {
        Self {
            ns_per_item: if ns == 0 { 1 } else { ns },
        }
    }

    /// The estimated per-item cost in nanoseconds.
    #[must_use]
    pub const fn ns_per_item(self) -> u64 {
        self.ns_per_item
    }

    /// Worker count for a map of `len` items with `threads` available:
    /// 1 while the estimated total work is under
    /// [`Self::MIN_PARALLEL_WORK_NS`], otherwise capped so each chunk
    /// carries at least [`Self::TARGET_CHUNK_NS`] of estimated work.
    #[must_use]
    pub fn workers(self, len: usize, threads: usize) -> usize {
        let threads = threads.clamp(1, len.max(1));
        if threads == 1 {
            return 1;
        }
        let total_ns = self.ns_per_item.saturating_mul(len as u64);
        if total_ns < Self::MIN_PARALLEL_WORK_NS {
            return 1;
        }
        let paying = usize::try_from(total_ns / Self::TARGET_CHUNK_NS).unwrap_or(usize::MAX);
        threads.min(paying)
    }
}

/// Process-wide thread-count override; 0 means "auto" (all cores).
///
/// Thread count is a pure performance knob: the map is order-preserving, so results are bit-identical at any worker count and
/// these statics can never reach a computed value. Relaxed suffices
/// because each is a single word with no data published through it.
// cordoba-lint: allow-file(atomic-ordering) — single-word config/memo cells, no cross-thread data handoff
// cordoba-lint: allow(global-state) — perf-only knob, cannot affect results (maps are order-preserving)
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Memoized [`std::thread::available_parallelism`]; 0 means "not yet
/// queried". The std call re-reads cgroup quota files on Linux (tens of
/// microseconds), which would dominate small sweeps if paid per map.
// cordoba-lint: allow(global-state) — memoized hardware probe, perf-only; cannot affect results
static AUTO_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the process-wide worker-thread count returned by
/// [`effective_threads`]. `None` restores the default (all available cores).
///
/// The CLI's `--threads N` flag calls this once at startup. Because the
/// map is order-preserving, changing the count never changes results —
/// only wall-clock time.
pub fn set_threads(threads: Option<NonZeroUsize>) {
    CONFIGURED_THREADS.store(threads.map_or(0, NonZeroUsize::get), Ordering::Relaxed);
}

/// The explicit override installed by [`set_threads`], if any.
#[must_use]
pub fn configured_threads() -> Option<NonZeroUsize> {
    NonZeroUsize::new(CONFIGURED_THREADS.load(Ordering::Relaxed))
}

/// The worker-thread count the workspace's pipelines pass to the map: the
/// [`set_threads`] override if present, otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
#[must_use]
pub fn effective_threads() -> usize {
    match configured_threads() {
        Some(n) => n.get(),
        None => match AUTO_THREADS.load(Ordering::Relaxed) {
            0 => {
                let auto = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
                AUTO_THREADS.store(auto, Ordering::Relaxed);
                auto
            }
            cached => cached,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hint heavy enough that every requested thread count fans out.
    const HEAVY: CostHint = CostHint::per_item_ns(1_000_000);

    /// `f` over `0..len` through one unbounded advance.
    fn map_values<R: Send>(
        len: usize,
        threads: usize,
        hint: CostHint,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let mut map = SupervisedMap::new(len);
        map.advance(threads, hint, &Supervisor::unbounded(), f);
        map.into_values()
    }

    #[test]
    fn preserves_order_and_values_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for threads in [1, 2, 3, 4, 7, 64, 1000, 5000] {
            let got = map_values(items.len(), threads, HEAVY, |i| {
                Ok::<_, ()>(items[i].wrapping_mul(31) ^ 7)
            });
            let got: Result<Vec<u64>, ()> = got.into_iter().collect();
            assert_eq!(got, Ok(expected.clone()), "threads = {threads}");
            let got = map_values(items.len(), threads, HEAVY, |i| {
                items[i].wrapping_mul(31) ^ 7
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cheap = CostHint::per_item_ns(1);
        assert!(map_values(0, 8, HEAVY, |i| i).is_empty());
        assert_eq!(map_values(1, 8, HEAVY, |i| i + 6), vec![6]);
        // Below the work threshold the calling thread does all the work.
        let caller = std::thread::current().id();
        let ids = map_values(3, 8, cheap, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1 + 0.3).collect();
        let work = |x: &f64| (x.sin() * x.exp()).ln_1p() / (x + 1.0);
        let seq: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
        for threads in [2, 3, 8] {
            let par: Vec<u64> = map_values(items.len(), threads, HEAVY, |i| work(&items[i]))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn try_map_reports_first_error_in_input_order() {
        let f = |x: i64| {
            if x % 71 == 13 {
                Err(x)
            } else {
                Ok(x * 2)
            }
        };
        for threads in [1, 2, 4, 16] {
            // 13 and 84 and 155 fail; 13 is first in input order.
            let got: Result<Vec<i64>, i64> = map_values(200, threads, HEAVY, |i| f(i as i64))
                .into_iter()
                .collect();
            assert_eq!(got, Err(13));
        }
        let ok: Result<Vec<i64>, ()> = map_values(100, 4, HEAVY, |i| Ok(i as i64 + 1))
            .into_iter()
            .collect();
        assert_eq!(ok.unwrap(), (1..=100).collect::<Vec<i64>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            map_values(100, 4, HEAVY, |x| {
                assert!(x != 57, "boom");
                x
            })
        });
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| {
            map_values(100, 4, HEAVY, |x| {
                assert!(x != 57, "boom");
                Ok::<_, ()>(x)
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn global_thread_configuration_round_trips() {
        assert!(effective_threads() >= 1);
        set_threads(NonZeroUsize::new(3));
        assert_eq!(configured_threads(), NonZeroUsize::new(3));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert_eq!(configured_threads(), None);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn cost_hint_keeps_cheap_sweeps_sequential() {
        // 121 items of ~1.2 µs (the seed evaluate_space shape): total work
        // ~145 µs is under the parallel threshold, so no spawning.
        let hint = CostHint::per_item_ns(1_200);
        assert_eq!(hint.workers(121, 8), 1);
        // 1000 items of the same work: parallel, but capped by the chunk
        // budget (1.2 ms / 100 µs = 12 chunks).
        assert_eq!(hint.workers(1000, 8), 8);
        assert_eq!(hint.workers(1000, 64), 12);
        // Expensive items parallelize even at short lengths.
        assert_eq!(CostHint::per_item_ns(1_000_000).workers(4, 8), 4);
        // Degenerate inputs.
        assert_eq!(hint.workers(0, 8), 1);
        assert_eq!(hint.workers(1, 8), 1);
        assert_eq!(CostHint::per_item_ns(0).ns_per_item(), 1);
    }

    #[test]
    fn hinted_maps_match_unhinted_bits_at_every_thread_count() {
        let items: Vec<f64> = (0..300).map(|i| f64::from(i) * 0.7 + 0.1).collect();
        let work = |x: &f64| (x.sqrt() * x.ln_1p()).sin();
        let seq: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
        for threads in [1, 2, 8] {
            for hint_ns in [1, 1_000, 10_000_000] {
                let hint = CostHint::per_item_ns(hint_ns);
                let got = map_values(items.len(), threads, hint, |i| {
                    Ok::<_, ()>(work(&items[i]).to_bits())
                });
                assert_eq!(
                    got.into_iter().collect::<Result<Vec<u64>, ()>>(),
                    Ok(seq.clone()),
                    "threads = {threads}, hint = {hint_ns}"
                );
            }
        }
    }

    #[test]
    fn hinted_try_map_reports_first_error_in_input_order() {
        let f = |i: usize| {
            let x = i as i64;
            if x % 71 == 13 {
                Err(x)
            } else {
                Ok(x * 2)
            }
        };
        for hint_ns in [1, 100_000] {
            let hint = CostHint::per_item_ns(hint_ns);
            let got: Result<Vec<i64>, i64> = map_values(200, 4, hint, f).into_iter().collect();
            assert_eq!(got, Err(13));
        }
    }

    #[test]
    fn hinted_map_stays_on_caller_below_work_threshold() {
        let caller = std::thread::current().id();
        // 100 items x 1 ns is far below the threshold.
        let ids = map_values(100, 8, CostHint::per_item_ns(1), |_| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn uses_multiple_threads_for_large_inputs() {
        use std::collections::HashSet;
        let ids = map_values(256, 4, HEAVY, |_| {
            // A short stall so chunks overlap in time rather than one
            // worker finishing before the next spawns.
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }
}
