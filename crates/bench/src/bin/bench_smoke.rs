//! Smoke-mode performance record for the parallel sweep engine, the
//! exact-integration carbon kernel, and the observability layer.
//!
//! Times the headline sweeps with plain wall-clock measurement and writes
//! `BENCH_<N+1>.json` at the repository root (where `N` is the highest
//! committed record): a flat map of bench name to median nanoseconds. The
//! gated end-to-end benchmark is `perfbench/` (`BENCHMARK.json`); this
//! binary keeps the per-kernel medians it does not report, such as the
//! trace scheduler on a long sampled trace. The highest committed record
//! is also used for an informational comparison (no gate — the files are
//! usually recorded on different machines). `--out <file>` overrides the
//! output path.
//!
//! Each parallel or kernel bench is run twice — once pinned to one worker
//! and once with the default pool — so the thread-scaling ratio is visible
//! in the recorded file. The `integral/` and `uncertainty/` groups pair
//! each exact-kernel measurement with its sampled predecessor, so the
//! recorded file documents the kernel speedup directly. The `obs/` group
//! records the cost of a disabled-registry counter bump next to the bare
//! loop it instruments, and the run's own `cordoba-obs` counter values are
//! appended as `obs/counter/...` entries so the recorded file shows what
//! the sweeps actually did.
//!
//! Usage: `cargo run -p cordoba-bench --release --bin bench_smoke \
//!     [-- --quick] [-- --out <file>]`
//! where `--quick` trims iteration counts for CI.

use cordoba::prelude::*;
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::integral::{CiIntegral, Midpoint};
use cordoba_carbon::intensity::{grids, ConstantCi, SeasonalCi, TraceCi, TrendCi};
use cordoba_carbon::units::{CarbonIntensity, GramsCo2e, Joules, Seconds, SquareCentimeters};
use cordoba_soc::prelude::{schedule, ActivityTrace, SocConfig, VrApp};
use cordoba_workloads::task::Task;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Median wall-clock nanoseconds over `iters` calls of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Interleaved A/B medians for overhead ratios: alternates the two
/// closures sample by sample so a slow machine phase lands on both sides
/// equally — a ratio of two independently-taken medians cannot guarantee
/// that on a shared machine.
fn paired_median_ns(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (u128, u128) {
    let mut sa: Vec<u128> = Vec::with_capacity(iters.max(1));
    let mut sb: Vec<u128> = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        a();
        sa.push(start.elapsed().as_nanos());
        let start = Instant::now();
        b();
        sb.push(start.elapsed().as_nanos());
    }
    sa.sort_unstable();
    sb.sort_unstable();
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

/// Deterministic pseudo-random point cloud (xorshift, no RNG dependency).
fn synthetic_cloud(n: usize) -> Vec<Point2> {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let x = next() * 100.0 + 1.0;
            let y = 100.0 / x + next() * 10.0;
            Point2::new(format!("p{i}"), x, y)
        })
        .collect()
}

/// A deterministic `n`-sample hourly trace with grid-plausible values.
fn synthetic_trace(n: usize) -> TraceCi {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let samples: Vec<(Seconds, CarbonIntensity)> = (0..n)
        .map(|i| {
            // Diurnal swing plus bounded measurement noise — smooth enough
            // that the sampled baseline converges, like a real grid feed.
            let diurnal = (i as f64 / 24.0 * std::f64::consts::TAU).cos();
            (
                Seconds::from_hours(i as f64),
                CarbonIntensity::new(400.0 + 150.0 * diurnal + next() * 40.0),
            )
        })
        .collect();
    TraceCi::new(samples).expect("synthetic trace is monotonic")
}

/// Reads a flat `{"name": nanoseconds, ...}` bench record; empty when the
/// file is missing or a line does not parse.
fn read_flat_json(path: &str) -> Vec<(String, u128)> {
    let Ok(content) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in content.lines() {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        if name.is_empty() {
            continue;
        }
        if let Ok(ns) = value.trim().trim_end_matches(',').parse::<u128>() {
            out.push((name.to_owned(), ns));
        }
    }
    out
}

/// Repository root holding the `BENCH_N.json` records.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The highest `N` for which `BENCH_N.json` exists at the repository root.
fn latest_bench_generation() -> Option<u32> {
    let entries = std::fs::read_dir(REPO_ROOT).ok()?;
    entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let name = entry.file_name();
            let name = name.to_str()?;
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u32>()
                .ok()
        })
        .max()
}

/// Mean wall-clock nanoseconds per call over a batch of `batch` calls.
fn per_call_ns(batch: u64, f: impl Fn()) -> u128 {
    let start = Instant::now();
    for _ in 0..batch {
        f();
    }
    start.elapsed().as_nanos() / u128::from(batch.max(1))
}

/// The disabled-overhead probe counter (satellite guard: a disabled
/// registry must cost a couple of relaxed loads per update, nothing more).
static OVERHEAD_PROBE: cordoba_obs::Counter = cordoba_obs::Counter::new("bench/overhead_probe");

/// Disabled-overhead probe for the labeled-counter update path.
static LABELED_PROBE: cordoba_obs::LabeledCounter =
    cordoba_obs::LabeledCounter::new("bench/labeled_probe", "tier", &["a", "b"]);

/// Counts loop iterations in the baseline arm so both arms do one atomic
/// add per iteration and the probe isolates the enablement-check cost.
static BASELINE_SINK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_scaling = args.iter().any(|a| a == "--check-scaling");
    let out_override = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let iters = if quick { 3 } else { 11 };
    let heavy_iters = if quick { 1 } else { 5 };
    let thread_modes = [("threads=1", NonZeroUsize::new(1)), ("threads=auto", None)];
    let mut results: Vec<(String, u128)> = Vec::new();

    // dse/evaluate_space — 121 configs x all-kernels roofline characterization.
    let configs = design_space();
    let model = EmbodiedModel::default();
    let task = Task::all_kernels();
    for (label, threads) in thread_modes {
        cordoba_par::set_threads(threads);
        let ns = median_ns(iters, || {
            black_box(evaluate_space(black_box(&configs), &task, &model).unwrap());
        });
        results.push((format!("dse/evaluate_space/{label}"), ns));
    }

    // dse/op_time_sweep_121x29 — the Fig. 8 tCDP matrix.
    let points = evaluate_space(&configs, &task, &model).unwrap();
    let counts = log_sweep(4, 11, 4);
    for (label, threads) in thread_modes {
        cordoba_par::set_threads(threads);
        let ns = median_ns(iters, || {
            let sweep =
                OpTimeSweep::new(black_box(points.clone()), counts.clone(), grids::US_AVERAGE)
                    .unwrap();
            black_box(sweep.elimination_fraction());
        });
        results.push((format!("dse/op_time_sweep_121x29/{label}"), ns));
    }

    // scaling/* — thread-scaling sweep over a generated 1,000-config space
    // plus the 121-config seed space as the auto-vs-1 guard. The cost-hint
    // chunker keeps the seed space sequential (121 configs is below the
    // parallel-work threshold), so `threads=auto` must never lose to
    // `threads=1` there; the 1,000-config space is above it and records the
    // real fan-out. Speedup ratios are recorded x100 as integers so the
    // flat JSON stays integer-valued. On a single-core runner every
    // explicit thread count measures the same sequential chunk plus spawn
    // overhead; the ratios document that honestly rather than simulating a
    // wider machine.
    let wide_space: Vec<AcceleratorConfig> = (0..40u32)
        .flat_map(|u| (0..25u32).map(move |s| (u, s)))
        .map(|(u, s)| {
            AcceleratorConfig::on_die(
                format!("w{u}_{s}"),
                1 + u * 3,
                cordoba_carbon::units::Bytes::from_mebibytes(0.5 * f64::from(s + 1)),
            )
            .expect("generated config is valid")
        })
        .collect();
    assert_eq!(wide_space.len(), 1_000);
    let mut per_thread: Vec<(String, u128)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let ns = median_ns(iters, || {
            black_box(evaluate_at(black_box(&wide_space), &task, &model, threads));
        });
        results.push((format!("scaling/evaluate_space_1000/threads={threads}"), ns));
        per_thread.push((format!("{threads}"), ns));
    }
    cordoba_par::set_threads(None);
    let auto_ns = median_ns(iters, || {
        black_box(evaluate_space(black_box(&wide_space), &task, &model).unwrap());
    });
    results.push((
        "scaling/evaluate_space_1000/threads=auto".to_owned(),
        auto_ns,
    ));
    per_thread.push(("auto".to_owned(), auto_ns));
    let one_thread_ns = per_thread[0].1;
    for (label, ns) in per_thread.iter().skip(1) {
        results.push((
            format!("scaling/evaluate_space_1000/speedup_{label}v1_x100"),
            one_thread_ns * 100 / (*ns).max(1),
        ));
    }
    // Batch (SoA) pipeline against the retained per-config scalar path,
    // interleaved so both arms see the same machine phases. Both run on one
    // worker: the ratio isolates the batch layout's effect (hoisted tuning
    // derivation, no per-config table allocation) from thread fan-out.
    let (scalar_ns, batch_ns) = paired_median_ns(
        iters,
        || {
            for config in &wide_space {
                black_box(accel_design_point(black_box(config), &task, &model).unwrap());
            }
        },
        || {
            black_box(evaluate_at(black_box(&wide_space), &task, &model, 1));
        },
    );
    results.push((
        "scaling/evaluate_space_1000/scalar_per_config".to_owned(),
        scalar_ns,
    ));
    results.push((
        "scaling/evaluate_space_1000/batch_threads=1".to_owned(),
        batch_ns,
    ));
    results.push((
        "scaling/evaluate_space_1000/batch_vs_scalar_x100".to_owned(),
        scalar_ns * 100 / batch_ns.max(1),
    ));
    // Seed-space guard: auto must not lose to an explicit single thread on
    // the 121-config space (the BENCH_6 regression this group exists to
    // prevent). Interleaved for the same shared-machine reason as above.
    let auto_workers = cordoba_par::effective_threads();
    let (seed_one_ns, seed_auto_ns) = paired_median_ns(
        iters * 3,
        || {
            black_box(evaluate_at(black_box(&configs), &task, &model, 1));
        },
        || {
            black_box(evaluate_at(
                black_box(&configs),
                &task,
                &model,
                auto_workers,
            ));
        },
    );
    results.push((
        "scaling/evaluate_space_121/threads=1".to_owned(),
        seed_one_ns,
    ));
    results.push((
        "scaling/evaluate_space_121/threads=auto".to_owned(),
        seed_auto_ns,
    ));
    results.push((
        "scaling/evaluate_space_121/auto_vs_1_x100".to_owned(),
        seed_auto_ns * 100 / seed_one_ns.max(1),
    ));

    // store/* — content-addressed persistent memoization over the same
    // 1,000-config space, layered like the CLI: a sub-entry memoizes the
    // space evaluation (bit-identical restore), the tCDP matrix is
    // recomputed beside its receipt, and a run-level entry memoizes the
    // whole pipeline's product — what a repeated identical sweep is
    // actually served from. Cold runs against an evicted store (compute +
    // write-behind); `warm` is the run-level hit; `warm_decode` restores
    // the points from their sub-entry and recomputes the matrix.
    // The run-level warm path must pay for itself: >=10x over cold,
    // asserted below.
    let store_root =
        std::env::temp_dir().join(format!("cordoba-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let store = cordoba_store::Store::open(&store_root).expect("temp store opens");
    let store_counts = log_sweep(4, 11, 4);
    let run_key = {
        let mut k = cordoba_store::KeyBuilder::new("bench-run");
        k.push_u64(wide_space.len() as u64);
        k.push_u64(store_counts.len() as u64);
        k.push_f64(grids::US_AVERAGE.value());
        k.finish()
    };
    let summarize = |sweep: &OpTimeSweep| -> Vec<String> {
        vec![
            format!("survivors {}", sweep.ever_optimal().len()),
            format!("robust {}", sweep.points[sweep.robust_choice()].name),
            format!(
                "eliminated_x1e6 {}",
                (sweep.elimination_fraction() * 1e6) as u64
            ),
        ]
    };
    let cold_store_ns = median_ns(iters, || {
        store.evict(None);
        let pts = evaluate_space_stored(black_box(&wide_space), &task, &model, &store).unwrap();
        let sweep =
            op_time_sweep_stored(pts, store_counts.clone(), grids::US_AVERAGE, &store).unwrap();
        store
            .put("bench-run", run_key, &summarize(&sweep))
            .expect("run entry writes");
    });
    let warm_store_ns = median_ns(iters, || {
        black_box(store.get("bench-run", run_key).expect("run entry is warm"));
    });
    let warm_decode_ns = median_ns(iters, || {
        let pts = evaluate_space_stored(black_box(&wide_space), &task, &model, &store).unwrap();
        black_box(
            op_time_sweep_stored(pts, store_counts.clone(), grids::US_AVERAGE, &store).unwrap(),
        );
    });
    results.push(("store/sweep_1000/cold".to_owned(), cold_store_ns));
    results.push(("store/sweep_1000/warm".to_owned(), warm_store_ns));
    results.push(("store/sweep_1000/warm_decode".to_owned(), warm_decode_ns));
    results.push((
        "store/sweep_1000/warm_speedup_x100".to_owned(),
        cold_store_ns * 100 / warm_store_ns.max(1),
    ));
    // Replay through the CLI layer: `dse --store` warms the run entry,
    // then `replay <hash>` serves the rendered output in one lookup.
    let dse_argv: Vec<String> = format!("dse --task xr5 --store {}", store_root.display())
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let cold_cli = cordoba_cli::run(&dse_argv).expect("dse --store runs");
    let run_hash = cold_cli
        .lines()
        .find_map(|l| l.strip_prefix("store: run "))
        .expect("stored run prints its hash")
        .to_owned();
    let warm_cli_ns = median_ns(iters, || {
        black_box(cordoba_cli::run(black_box(&dse_argv)).unwrap());
    });
    let replay_argv: Vec<String> = format!("replay {run_hash} --store {}", store_root.display())
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let replay_ns = median_ns(iters, || {
        black_box(cordoba_cli::run(black_box(&replay_argv)).unwrap());
    });
    results.push(("store/cli_dse/warm".to_owned(), warm_cli_ns));
    results.push(("store/cli_dse/replay".to_owned(), replay_ns));
    assert!(
        warm_store_ns * 10 <= cold_store_ns,
        "warm store sweep must beat cold by >=10x: warm {warm_store_ns}ns vs cold {cold_store_ns}ns"
    );
    let _ = std::fs::remove_dir_all(&store_root);

    // pareto/frontier_10000 — sort-based skyline vs the all-pairs scan.
    let cloud = synthetic_cloud(10_000);
    let skyline = pareto_indices(&cloud);
    let naive = pareto_indices_naive(&cloud);
    assert_eq!(skyline, naive, "skyline and naive fronts must agree");
    results.push((
        "pareto/frontier_10000/skyline".to_owned(),
        median_ns(iters, || {
            black_box(pareto_indices(black_box(&cloud)));
        }),
    ));
    results.push((
        "pareto/frontier_10000/naive".to_owned(),
        median_ns(heavy_iters, || {
            black_box(pareto_indices_naive(black_box(&cloud)));
        }),
    ));

    // soc/schedule_sampled_10k — the trace scheduler on a 10,000-segment
    // sampled B-1 trace. The provisioning sweep only schedules the
    // deterministic traces, which have one segment per thread count.
    let app = VrApp::b1();
    let soc = SocConfig::quest2();
    let sampled = ActivityTrace::sampled(&mut StdRng::seed_from_u64(7), &app, 10_000);
    results.push((
        "soc/schedule_sampled_10k".to_owned(),
        median_ns(iters, || {
            black_box(schedule(black_box(&sampled), &app, &soc));
        }),
    ));

    // integral/trace_integral_10k_x256 — 256 interval integrals over a
    // 10k-sample trace: two prefix-table lookups each vs 1,024 lookups each
    // through a `Midpoint` wrapper (the sampled baseline the kernel
    // replaced). Single-threaded work; recorded under both modes so the
    // file shape matches the other groups.
    let trace = synthetic_trace(10_000);
    let (first, last) = trace.span();
    let span = last.value() - first.value();
    let intervals: Vec<(Seconds, Seconds)> = (0..256)
        .map(|i| {
            let a = first.value() + span * (i as f64 / 256.0) * 0.5;
            let b = (a + span * 0.25 + (i as f64 + 1.0) * 7.0).min(last.value());
            (Seconds::new(a), Seconds::new(b))
        })
        .collect();
    let sampled_trace = Midpoint::new(&trace, 1_024);
    // Sanity: the two integrators must agree before being timed.
    for &(a, b) in &intervals {
        let exact = trace.integral_over(a, b).value();
        let approx = sampled_trace.integral_over(a, b).value();
        let scale = exact.abs().max(1.0);
        assert!(
            (exact - approx).abs() / scale < 1e-2,
            "sampled baseline diverged from prefix sums"
        );
    }
    for (label, threads) in thread_modes {
        cordoba_par::set_threads(threads);
        results.push((
            format!("integral/trace_integral_10k_x256/exact/{label}"),
            median_ns(iters, || {
                let mut acc = 0.0;
                for &(a, b) in &intervals {
                    acc += trace.integral_over(black_box(a), black_box(b)).value();
                }
                black_box(acc);
            }),
        ));
        results.push((
            format!("integral/trace_integral_10k_x256/sampled_1024/{label}"),
            median_ns(iters, || {
                let mut acc = 0.0;
                for &(a, b) in &intervals {
                    acc += sampled_trace
                        .integral_over(black_box(a), black_box(b))
                        .value();
                }
                black_box(acc);
            }),
        ));
    }

    // uncertainty/source_mc_256 — 256 Monte Carlo draws over time-varying
    // sources: the exact kernel's O(1) lifetime means vs `Midpoint` sources
    // taking 10,000 lookups per draw. Both rows run `monte_carlo_source_tcdp`
    // and so carry its per-draw `CostHint`, which keeps the sampled row's 4
    // blocks on one worker.
    let point = DesignPoint::new(
        "bench",
        Seconds::new(1e-3),
        Joules::new(0.5),
        GramsCo2e::new(500.0),
        SquareCentimeters::new(1.0),
    )
    .expect("valid bench point");
    let flat = ConstantCi::new(grids::US_AVERAGE);
    let trend = TrendCi::new(grids::COAL, 0.10).expect("valid trend");
    let seasonal = SeasonalCi::solar_rich();
    let sources: [&dyn CiIntegral; 3] = [&flat, &trend, &seasonal];
    let midpoints = sources.map(|s| Midpoint::new(s, 10_000));
    let sampled_sources: Vec<&dyn CiIntegral> =
        midpoints.iter().map(|s| s as &dyn CiIntegral).collect();
    let spec = SourceMonteCarloSpec::new(256, 42);
    for (label, threads) in thread_modes {
        cordoba_par::set_threads(threads);
        results.push((
            format!("uncertainty/source_mc_256/exact/{label}"),
            median_ns(iters, || {
                black_box(monte_carlo_source_tcdp(black_box(&point), &sources, &spec).unwrap());
            }),
        ));
        results.push((
            format!("uncertainty/source_mc_256/sampled_10000/{label}"),
            median_ns(heavy_iters, || {
                black_box(
                    monte_carlo_source_tcdp(black_box(&point), &sampled_sources, &spec)
                        .expect("valid sampled spec"),
                );
            }),
        ));
    }
    cordoba_par::set_threads(None);

    // obs/disabled_overhead — per-update cost of an instrumented counter
    // while the registry is disabled, next to a bare atomic add. Both arms
    // do one relaxed `fetch_add` per iteration; the instrumented arm adds
    // the enablement check every hot path pays when observability is off.
    cordoba_obs::set_metrics_enabled(false);
    let batch = if quick { 100_000 } else { 1_000_000 };
    results.push((
        "obs/disabled_overhead/baseline".to_owned(),
        per_call_ns(batch, || {
            BASELINE_SINK.fetch_add(black_box(1), std::sync::atomic::Ordering::Relaxed);
        }),
    ));
    results.push((
        "obs/disabled_overhead/instrumented".to_owned(),
        per_call_ns(batch, || {
            OVERHEAD_PROBE.add(black_box(1));
        }),
    ));
    results.push((
        "obs/disabled_overhead/labeled".to_owned(),
        per_call_ns(batch, || {
            LABELED_PROBE.incr(black_box(1));
        }),
    ));

    // With the registry live, re-run the cache-sharing sweep so the
    // recorded file carries the counters that path emits.
    cordoba_obs::set_metrics_enabled(true);
    let multi = evaluate_space_multi(&configs, std::slice::from_ref(&task), &model).unwrap();
    black_box(&multi);
    for counter in cordoba_obs::registry_snapshot().counters {
        if counter.labels.is_empty() {
            results.push((
                format!("obs/counter/{}", counter.name),
                u128::from(counter.value),
            ));
        }
    }

    // obs/prom_render — cost of rendering the now-populated registry in
    // Prometheus text exposition format (what a scrape endpoint would pay).
    let rendered = cordoba_obs::render_prometheus();
    cordoba_obs::validate_prometheus_text(&rendered)
        .unwrap_or_else(|e| panic!("bench registry renders invalid exposition: {e}"));
    results.push((
        "obs/prom_render".to_owned(),
        median_ns(iters, || {
            black_box(cordoba_obs::render_prometheus());
        }),
    ));
    cordoba_obs::set_metrics_enabled(false);

    let mut json = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("  \"{name}\": {ns}{sep}\n"));
        println!("{name:<55} {ns:>14} ns");
    }
    json.push_str("}\n");
    let previous_generation = latest_bench_generation();
    let path = out_override.unwrap_or_else(|| {
        format!(
            "{REPO_ROOT}/BENCH_{}.json",
            previous_generation.map_or(1, |n| n + 1)
        )
    });
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");

    // Exact-vs-sampled kernel speedups, straight from this run's medians.
    println!("\nkernel speedups (sampled baseline / exact kernel):");
    let lookup = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ns)| ns as f64)
    };
    for (group, exact, sampled) in [
        (
            "integral/trace_integral_10k_x256",
            "integral/trace_integral_10k_x256/exact",
            "integral/trace_integral_10k_x256/sampled_1024",
        ),
        (
            "uncertainty/source_mc_256",
            "uncertainty/source_mc_256/exact",
            "uncertainty/source_mc_256/sampled_10000",
        ),
    ] {
        for (label, _) in thread_modes {
            if let (Some(e), Some(s)) = (
                lookup(&format!("{exact}/{label}")),
                lookup(&format!("{sampled}/{label}")),
            ) {
                println!("  {group} [{label}]: {:.1}x", s / e.max(1.0));
            }
        }
    }

    // Thread-scaling summary for the batch pipeline, from this run.
    println!("\nthread scaling (1,000-config evaluate_space, vs threads=1):");
    if let Some(one) = lookup("scaling/evaluate_space_1000/threads=1") {
        for label in ["2", "4", "8", "auto"] {
            if let Some(ns) = lookup(&format!("scaling/evaluate_space_1000/threads={label}")) {
                println!(
                    "  threads={label:<4} {ns:>14.0} ns  ({:.2}x)",
                    one / ns.max(1.0)
                );
            }
        }
    }
    if let (Some(scalar), Some(batch)) = (
        lookup("scaling/evaluate_space_1000/scalar_per_config"),
        lookup("scaling/evaluate_space_1000/batch_threads=1"),
    ) {
        println!(
            "  batch vs scalar (1 worker): {:.2}x ({scalar:.0} -> {batch:.0} ns)",
            scalar / batch.max(1.0)
        );
    }
    if let (Some(one), Some(auto)) = (
        lookup("scaling/evaluate_space_121/threads=1"),
        lookup("scaling/evaluate_space_121/threads=auto"),
    ) {
        let ratio = auto / one.max(1.0);
        println!("  121-config seed, auto vs 1 thread: {ratio:.3}x (target <= 1.05x)");
        if check_scaling {
            assert!(
                ratio <= 1.05,
                "auto threads regressed the 121-config seed sweep: \
                 {auto:.0} ns auto vs {one:.0} ns single-thread ({ratio:.3}x > 1.05x)"
            );
            println!("  check-scaling: ok");
        }
    }

    // Informational comparison against the newest committed record; the
    // shared names are the carried-over sweep benches.
    let previous_path = previous_generation.map(|n| format!("{REPO_ROOT}/BENCH_{n}.json"));
    let previous = previous_path
        .as_deref()
        .map(read_flat_json)
        .unwrap_or_default();
    if previous.is_empty() {
        println!("\nno previous BENCH_N.json found; skipping comparison");
    } else {
        let previous_name = previous_path.as_deref().unwrap_or("BENCH_N.json");
        println!("\nvs {previous_name} (informational, not a gate):");
        for (name, old_ns) in &previous {
            if let Some(new_ns) = lookup(name) {
                println!(
                    "  {name:<45} {old_ns:>12} -> {new_ns:>12.0} ns ({:+.1}%)",
                    (new_ns - *old_ns as f64) / *old_ns as f64 * 100.0
                );
            }
        }
    }
}

/// `configs` evaluated for `task` by `evaluate_space` with the process
/// worker count set to `threads`, restored to the default afterwards.
fn evaluate_at(
    configs: &[AcceleratorConfig],
    task: &Task,
    model: &EmbodiedModel,
    threads: usize,
) -> Vec<DesignPoint> {
    cordoba_par::set_threads(NonZeroUsize::new(threads));
    let points = evaluate_space(configs, task, model).expect("bench configurations evaluate");
    cordoba_par::set_threads(None);
    points
}
