//! Each configuration's name is allocated once, in its
//! `AcceleratorConfig`, and every result built from the configuration
//! shares that allocation: the design points of every task, the β-sweep's
//! objective points, the op-time sweep and attribution rows, quarantine
//! reports, and the points a warm store read returns. These tests pin the
//! sharing with `Name::ptr_eq`, and pin that sharing the name left the
//! stored bytes exactly as before.

use cordoba::prelude::*;
use cordoba::store::{evaluate_space_key, KIND_EVAL_SPACE};
use cordoba_accel::config::{AcceleratorConfig, MemoryIntegration};
use cordoba_accel::params::TechTuning;
use cordoba_accel::space::design_space;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::Bytes;
use cordoba_par::Supervisor;
use cordoba_store::Store;
use cordoba_workloads::task::Task;
use std::num::NonZeroUsize;
use std::path::PathBuf;

/// The `eval_space` entry for the seed space and the XR-5 task under the
/// default embodied model, as written before names were shared.
const SEED_XR5_ENTRY: &[u8] = include_bytes!("fixtures/eval_space_seed_xr5.entry");

/// A fresh, test-unique store directory (removed by the caller).
fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cordoba-shared-names-{tag}-{}", std::process::id()))
}

/// Asserts that point `i` of `names` shares configuration `i`'s name.
fn assert_shared<'a>(
    what: &str,
    configs: &[AcceleratorConfig],
    names: impl ExactSizeIterator<Item = &'a Name>,
) {
    assert_eq!(names.len(), configs.len(), "{what}: one point per config");
    for (config, name) in configs.iter().zip(names) {
        assert!(
            Name::ptr_eq(config.shared_name(), name),
            "{what}: `{name}` does not share its configuration's name"
        );
    }
}

/// The seed space repeated with distinct names, large enough for the
/// stage-major evaluation to split into several chunks.
fn large_space() -> Vec<AcceleratorConfig> {
    let seed = design_space();
    (0..8)
        .flat_map(|copy| {
            seed.iter().map(move |c| {
                AcceleratorConfig::with_tuning(
                    format!("{}-{copy}", c.name()),
                    c.mac_units(),
                    c.sram(),
                    c.integration(),
                    *c.tuning(),
                )
                .unwrap()
            })
        })
        .collect()
}

#[test]
fn evaluated_points_share_their_configuration_names() {
    let configs = large_space();
    let tasks = Task::evaluation_suite();
    let model = EmbodiedModel::default();
    for threads in [1, 2] {
        cordoba_par::set_threads(NonZeroUsize::new(threads));
        let per_task = evaluate_space_multi(&configs, &tasks, &model).unwrap();
        for (task, points) in tasks.iter().zip(&per_task) {
            let what = format!("evaluate_space_multi, {}, {threads} threads", task.name());
            assert_shared(&what, &configs, points.iter().map(|p| &p.name));
        }
        let single = evaluate_space(&configs, &tasks[0], &model).unwrap();
        let what = format!("evaluate_space, {threads} threads");
        assert_shared(&what, &configs, single.iter().map(|p| &p.name));
    }
    cordoba_par::set_threads(None);
}

#[test]
fn elimination_sweep_ledger_and_quarantine_share_the_names() {
    let mut tuning = TechTuning::n7();
    tuning.mac_unit_area_mm2 = f64::NAN;
    let poison = AcceleratorConfig::with_tuning(
        "poison",
        16,
        Bytes::from_mebibytes(8.0),
        MemoryIntegration::OnDie,
        tuning,
    )
    .unwrap();
    let configs = design_space();
    let mut with_poison = configs.clone();
    with_poison.push(poison);
    let mut run = SupervisedEval::new(
        &with_poison,
        &Task::xr_5_kernels(),
        &EmbodiedModel::default(),
    );
    run.advance(&Supervisor::unbounded(), 1);
    let ResilientEval { points, failures } = run.into_resilient();
    assert_shared("resilient points", &configs, points.iter().map(|p| &p.name));
    assert_shared(
        "failures",
        &with_poison[configs.len()..],
        failures.iter().map(|f| &f.name),
    );

    let beta = BetaSweep::run(&points);
    assert_shared(
        "BetaSweep::run",
        &configs,
        beta.points.iter().map(|p| &p.name),
    );

    let sweep = OpTimeSweep::new(points, log_sweep(4, 8, 2), grids::US_AVERAGE).unwrap();
    assert_shared(
        "OpTimeSweep",
        &configs,
        sweep.points.iter().map(|p| &p.name),
    );
    for name in sweep.ever_optimal() {
        let config = configs.iter().find(|c| c.name() == name.as_str()).unwrap();
        assert!(
            Name::ptr_eq(config.shared_name(), &name),
            "survivor `{name}`"
        );
    }

    let ledger = AttributionReport::from_sweep(&sweep)
        .unwrap()
        .with_quarantine(&failures);
    assert_shared("ledger", &configs, ledger.configs.iter().map(|c| &c.name));
    assert_shared(
        "quarantine",
        &with_poison[configs.len()..],
        ledger.quarantined.iter().map(|q| &q.name),
    );
}

#[test]
fn warm_reads_share_the_configuration_names() {
    let dir = store_dir("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let configs = design_space();
    let task = Task::xr_5_kernels();
    let model = EmbodiedModel::default();
    let cold = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
    let warm = evaluate_space_stored(&configs, &task, &model, &store).unwrap();
    assert_eq!(warm, cold);
    assert_shared(
        "warm evaluate_space_stored",
        &configs,
        warm.iter().map(|p| &p.name),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_space_entry_bytes_match_the_recorded_fixture() {
    let dir = store_dir("fixture");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let configs = design_space();
    let task = Task::xr_5_kernels();
    let model = EmbodiedModel::default();
    evaluate_space_stored(&configs, &task, &model, &store).unwrap();
    let key = evaluate_space_key(&configs, &task, &model);
    let path = dir
        .join(KIND_EVAL_SPACE)
        .join(format!("{}.entry", key.to_hex()));
    let written = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    // The fixture also pins the key (its header names it) and the code
    // version salt; a deliberate salt bump must re-record it.
    assert!(
        written == SEED_XR5_ENTRY,
        "eval_space entry for the seed space and XR-5 differs from the fixture"
    );
}
