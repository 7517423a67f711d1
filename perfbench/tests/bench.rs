//! Tests of the benchmark itself, at the small input scale:
//! deterministic generators, traced ops that reproduce the untraced
//! outputs bit for bit, a bounded unattributed share, and a per-layer
//! metric table that matches `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use cordoba_perfbench::gen::{design_csv, design_space, Rng};
use cordoba_perfbench::trace::{Tracer, METRICS};
use cordoba_perfbench::workloads::{setup, Workload, NAMES};
use cordoba_perfbench::Scale;
use std::path::PathBuf;

/// The largest share of a traced op the partition layers may leave
/// unattributed (METRICS.md states the same bound).
const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test work directory");
    dir
}

fn small(name: &str, seed: u64, tag: &str) -> Box<dyn Workload> {
    let dir = work_dir(&format!("{name}-{seed}-{tag}"));
    setup(name, seed, Scale::Small, &dir).expect("small setup succeeds")
}

#[test]
fn generators_are_deterministic_per_seed() {
    let space = |seed| design_space(&mut Rng::new(seed), 20, 3);
    assert_eq!(space(7), space(7));
    assert_ne!(space(7), space(8));
    let csv = |seed| design_csv(&mut Rng::new(seed), 50);
    assert_eq!(csv(7), csv(7));
    assert_ne!(csv(7), csv(8));
}

#[test]
fn reference_fingerprints_follow_the_seed() {
    for &name in NAMES {
        let a = small(name, 1, "a").reference();
        let b = small(name, 1, "b").reference();
        let c = small(name, 2, "c").reference();
        assert_eq!(a, b, "{name}: same seed, different inputs");
        assert_ne!(a, c, "{name}: different seeds, same fingerprint");
    }
}

#[test]
fn traced_ops_reproduce_untraced_outputs() {
    for &name in NAMES {
        let mut workload = small(name, 3, "trace");
        let mut tracer = Tracer::new(false);
        for i in 0..6 {
            tracer.set_enabled(i % 2 == 1);
            // Each op checks its output against the setup reference, so
            // traced and untraced ops both passing means equal bits.
            workload
                .op(i, &mut tracer)
                .unwrap_or_else(|e| panic!("{name} op {i} (traced: {}): {e}", i % 2 == 1));
        }
    }
}

#[test]
fn layers_account_for_the_traced_op() {
    for &name in NAMES {
        let mut workload = small(name, 4, "layers");
        // Untraced warm-up ops first, as in a benchmark run, so first-touch
        // page faults do not land in the glue between spans.
        let mut tracer = Tracer::new(false);
        for i in 0..10 {
            tracer.set_enabled(i >= 2);
            workload.op(i, &mut tracer).expect("op succeeds");
        }
        let m = tracer.layer_metrics(&[]);
        let share = m["unattributed.ms"].0 / m["trace.op_ms"].0;
        assert!(
            share.abs() < MAX_UNATTRIBUTED_SHARE,
            "{name}: unattributed share {share:.3} of {:.3} ms",
            m["trace.op_ms"].0
        );
        // The no-change predictions of METRICS.md hold structurally.
        if matches!(name, "store_mixed" | "uncertainty") {
            assert_eq!(m["accel.sim.ms"].0, 0.0, "{name} ran the simulator");
        }
        if matches!(name, "dse_cold" | "uncertainty") {
            for layer in [
                "store.get.ms",
                "store.decode.ms",
                "store.put.ms",
                "store.encode.ms",
            ] {
                assert_eq!(m[layer].0, 0.0, "{name} touched the store ({layer})");
            }
        }
    }
}

#[test]
fn per_layer_table_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    let listed: Vec<(&str, &str)> = per_layer
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("quoted name");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .expect("quoted unit")
                .0;
            (name, unit)
        })
        .collect();
    let table: Vec<(&str, &str)> = METRICS.iter().map(|m| (m.0, m.1)).collect();
    assert_eq!(listed, table, "BENCHMARK.json per_layer != trace::METRICS");
}
