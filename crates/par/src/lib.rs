//! Deterministic data parallelism for CORDOBA's analytical sweeps.
//!
//! Every hot loop in the framework — design-space characterization, tCDP
//! grids over operational time, Monte Carlo uncertainty sampling, the
//! core-count provisioning study — is a pure map
//! over independent items. This crate parallelizes exactly that shape with
//! **zero external dependencies** (`std::thread::scope` +
//! `std::thread::available_parallelism`) through one function, [`map`],
//! under a strict determinism contract:
//!
//! * **Order-preserving**: results are stored by input index, so for a
//!   pure closure [`map`] is *byte-identical* to
//!   `(0..len).map(f).collect()` at every thread count.
//! * **One worker rule**: a [`CostHint`] (estimated nanoseconds per item)
//!   decides how many workers the work pays for; below
//!   [`CostHint::MIN_PARALLEL_WORK_NS`] of estimated work, or at a thread
//!   count of 1, the map runs inline on the calling thread.
//! * **Panics reach the caller**: [`map`] re-raises the panic of the
//!   lowest panicking index, as a sequential loop would. Fallible work
//!   returns `Result` inside the value, and collecting the values keeps
//!   the sequential "first error in input order" contract. A caller that
//!   must carry on past a panicking item wraps the item in [`isolate`].
//!
//! The one pipeline a user stops and resumes, the operational-time sweep,
//! checks a [`Supervisor`] inside its own rows (see [`supervise`]); the
//! map itself knows nothing of stopping.
//!
//! # Thread-count resolution
//!
//! Every map takes its thread count explicitly. Pipelines pass
//! [`effective_threads`]: the process-wide setting ([`set_threads`], wired
//! to the CLI's `--threads N`), falling back to
//! [`std::thread::available_parallelism`]. A count of 1 is exactly the
//! sequential path.
//!
//! # Examples
//!
//! ```
//! use cordoba_par::CostHint;
//!
//! let inputs = ["1", "2", "x"];
//! let parsed: Result<Vec<i32>, _> =
//!     cordoba_par::map(inputs.len(), 2, CostHint::per_item_ns(1), |i| {
//!         inputs[i].parse::<i32>()
//!     })
//!     .into_iter()
//!     .collect();
//! assert!(parsed.is_err());
//! ```

pub mod supervise;

pub use supervise::{StopReason, Supervisor};

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Caller-supplied per-item cost estimate: the worker rule of [`map`].
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

/// `f(i)` for every `i` in `0..len`, in input order, with as many workers
/// (at most `threads`, 1 = the calling thread) as `hint` says the work
/// pays for.
///
/// Each worker walks one contiguous run of indices front to back; a single
/// worker runs inline on the caller. For a pure `f` the result is
/// bit-identical to `(0..len).map(f).collect()` at every thread count.
///
/// ```
/// use cordoba_par::CostHint;
///
/// let items = [1u64, 2, 3, 4];
/// let squares = cordoba_par::map(items.len(), 2, CostHint::per_item_ns(1), |i| {
///     items[i] * items[i]
/// });
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// A panic ends only its own run. Once every worker has joined, the panic
/// of the lowest panicking index is re-raised on the caller with its
/// message as a `String` payload, as a sequential loop would have raised
/// it.
pub fn map<R, F>(len: usize, threads: usize, hint: CostHint, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = hint.workers(len, threads);
    let runs = if workers <= 1 {
        vec![run(0..len, &f)]
    } else {
        let per_worker = len.div_ceil(workers);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..len)
                .step_by(per_worker)
                .map(|start| {
                    let indices = start..len.min(start + per_worker);
                    scope.spawn(move || {
                        // Observability side channel only: the span never
                        // touches the mapped values.
                        let _span = cordoba_obs::span_with(
                            "par/chunk",
                            "items",
                            u64::try_from(indices.len()).unwrap_or(u64::MAX),
                        );
                        run(indices, f)
                    })
                })
                .collect();
            handles
                .into_iter()
                // Each run catches the panics of `f`, so a join failure is
                // a panic outside `f` (say, in obs plumbing): re-raise it.
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect::<Vec<_>>()
        })
    };
    let mut values = Vec::new();
    for run in runs {
        // Runs are in index order and each ends at its first panic, so the
        // first failed run holds the lowest panicking index.
        let run = run.unwrap_or_else(|message| resume_unwind(Box::new(message)));
        if values.is_empty() {
            // The first run's buffer becomes the result, so an inline map
            // allocates nothing beyond its own values.
            values = run;
            values.reserve_exact(len - values.len());
        } else {
            values.extend(run);
        }
    }
    values
}

/// `f` over one contiguous run of indices, under one `catch_unwind` for
/// the whole run.
fn run<R>(indices: Range<usize>, f: &impl Fn(usize) -> R) -> Result<Vec<R>, String> {
    catch(|| indices.map(f).collect())
}

/// Runs `f`, quarantining its panic: the panic's message, and one
/// `ChunkPanic` supervision event, instead of an unwinding caller.
///
/// This is per-item panic isolation for the callers that carry on past a
/// failing item; [`map`] itself re-raises. Wrap the item, not the map:
/// `map(len, threads, hint, |i| isolate(|| f(i)))` quarantines exactly the
/// panicking indices at every thread count.
///
/// ```
/// let quiet = std::panic::take_hook();
/// std::panic::set_hook(Box::new(|_| {}));
/// let result = cordoba_par::isolate(|| -> u32 { panic!("bad item") });
/// std::panic::set_hook(quiet);
/// assert_eq!(result, Err("bad item".to_string()));
/// assert_eq!(cordoba_par::isolate(|| 7), Ok(7));
/// ```
///
/// # Errors
///
/// Returns the panic's message when `f` panics.
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch(f).inspect_err(|_| cordoba_obs::record(&cordoba_obs::Event::ChunkPanic))
}

/// `f`'s value, or its panic's message. `AssertUnwindSafe` is sound
/// because a panicked call contributes nothing but its message: no state
/// `f` touched is read afterwards by the map or its callers.
fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A hint heavy enough that every requested thread count fans out.
    const HEAVY: CostHint = CostHint::per_item_ns(1_000_000);

    #[test]
    fn preserves_order_and_values_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for threads in [1, 2, 3, 4, 7, 64, 1000, 5000] {
            let got = map(items.len(), threads, HEAVY, |i| {
                Ok::<_, ()>(items[i].wrapping_mul(31) ^ 7)
            });
            let got: Result<Vec<u64>, ()> = got.into_iter().collect();
            assert_eq!(got, Ok(expected.clone()), "threads = {threads}");
            let got = map(items.len(), threads, HEAVY, |i| {
                items[i].wrapping_mul(31) ^ 7
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let cheap = CostHint::per_item_ns(1);
        assert!(map(0, 8, HEAVY, |i| i).is_empty());
        assert_eq!(map(1, 8, HEAVY, |i| i + 6), vec![6]);
        // Below the work threshold the calling thread does all the work.
        let caller = std::thread::current().id();
        let ids = map(3, 8, cheap, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1 + 0.3).collect();
        let work = |x: &f64| (x.sin() * x.exp()).ln_1p() / (x + 1.0);
        let seq: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
        for threads in [2, 3, 8] {
            let par: Vec<u64> = map(items.len(), threads, HEAVY, |i| work(&items[i]))
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
            let got: Result<Vec<i64>, i64> = map(200, threads, HEAVY, |i| f(i as i64))
                .into_iter()
                .collect();
            assert_eq!(got, Err(13));
        }
        let ok: Result<Vec<i64>, ()> = map(100, 4, HEAVY, |i| Ok(i as i64 + 1))
            .into_iter()
            .collect();
        assert_eq!(ok.unwrap(), (1..=100).collect::<Vec<i64>>());
    }

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

    /// The map's panic contract: with items panicking at several indices,
    /// some with a `&str` payload and some with a `String` one, the caller
    /// receives a `String` payload carrying the lowest panicking index's
    /// message, at every thread count.
    #[test]
    fn lowest_index_panic_reaches_the_caller_as_a_string() {
        install_quiet_hook();
        // 150 and 400 panic with `&str`, 37 and 263 with `String`.
        let f = |i: usize| match i {
            150 => panic!("[quiet-test-panic] str item"),
            400 => panic!("[quiet-test-panic] late str item"),
            37 | 263 => panic!("{QUIET} string item {i}"),
            _ => i,
        };
        let lowest = |from: usize| -> Option<String> {
            [37, 150, 263, 400]
                .into_iter()
                .find(|&i| i >= from)
                .map(|i| match i {
                    150 => "[quiet-test-panic] str item".to_string(),
                    400 => "[quiet-test-panic] late str item".to_string(),
                    _ => format!("{QUIET} string item {i}"),
                })
        };
        for threads in [1, 2, 3, 8] {
            // Shifting the start moves the lowest panic across payload
            // kinds and run boundaries.
            for from in [0, 38, 151, 264] {
                let raised =
                    std::panic::catch_unwind(|| map(500 - from, threads, HEAVY, |i| f(i + from)))
                        .expect_err("a panicking item panics the caller");
                assert_eq!(
                    raised.downcast_ref::<String>(),
                    lowest(from).as_ref(),
                    "threads {threads}, from {from}"
                );
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let len = 777;
        for threads in [1, 2, 3, 8] {
            let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let got = map(len, threads, HEAVY, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(got, (0..len).collect::<Vec<_>>(), "threads {threads}");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads {threads}"
            );
        }
    }

    /// `isolate` inside the map quarantines exactly the panicking items,
    /// in input order, at every thread count, and passes values through.
    #[test]
    fn panics_are_quarantined_per_item_in_input_order() {
        install_quiet_hook();
        assert_eq!(isolate(|| 5), Ok(5));
        for threads in [1, 3, 8] {
            let got = map(200, threads, HEAVY, |x| {
                isolate(|| {
                    assert!(x % 61 != 13, "{QUIET} poisoned item {x}");
                    x * 3
                })
            });
            for (i, outcome) in got.iter().enumerate() {
                if i % 61 == 13 {
                    assert_eq!(outcome, &Err(format!("{QUIET} poisoned item {i}")));
                } else {
                    assert_eq!(outcome, &Ok(i * 3), "index {i}");
                }
            }
            // 13, 74, 135, 196
            assert_eq!(got.iter().filter(|o| o.is_err()).count(), 4);
        }
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
                let got = map(items.len(), threads, hint, |i| {
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
            let got: Result<Vec<i64>, i64> = map(200, 4, hint, f).into_iter().collect();
            assert_eq!(got, Err(13));
        }
    }

    #[test]
    fn hinted_map_stays_on_caller_below_work_threshold() {
        let caller = std::thread::current().id();
        // 100 items x 1 ns is far below the threshold.
        let ids = map(100, 8, CostHint::per_item_ns(1), |_| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn uses_multiple_threads_for_large_inputs() {
        use std::collections::HashSet;
        let ids = map(256, 4, HEAVY, |_| {
            // A short stall so chunks overlap in time rather than one
            // worker finishing before the next spawns.
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }
}
