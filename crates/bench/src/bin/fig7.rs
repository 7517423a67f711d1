//! Regenerates the paper's Fig. 7: (a) tCDP versus die area and (b) EDP
//! versus die area over the 121-accelerator space.
//!
//! Expected shape: the tCDP-optimal design (red point) moves as operational
//! time changes and is never simply the minimum-area design; the
//! EDP-optimal design is invariant to operational time because EDP ignores
//! embodied carbon.

use cordoba::prelude::*;
use cordoba_accel::space::design_space;
use cordoba_bench::{emit, heading};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::task::Task;

fn main() {
    let points = evaluate_space(
        &design_space(),
        &Task::all_kernels(),
        &EmbodiedModel::default(),
    )
    .expect("static space evaluates");

    let op_times = [1e5, 1e7, 1e9, 1e11];
    heading("Fig. 7(a): tCDP vs die area across operational time");
    let mut a = Table::new(vec![
        "tasks".into(),
        "tcdp_optimal".into(),
        "optimal_area_cm2".into(),
        "min_area_design".into(),
        "min_area_cm2".into(),
        "min_area_is_tcdp_optimal".into(),
    ]);
    let min_area = points
        .iter()
        .min_by(|x, y| x.area.value().total_cmp(&y.area.value()))
        .expect("non-empty");
    for &n in &op_times {
        let ctx = OperationalContext::new(n, grids::US_AVERAGE).expect("valid tasks");
        let best = argmin(&points, MetricKind::Tcdp, &ctx).expect("non-empty");
        a.row(vec![
            fmt_num(n),
            best.name.to_string(),
            fmt_num(best.area.value()),
            min_area.name.to_string(),
            fmt_num(min_area.area.value()),
            (best.name == min_area.name).to_string(),
        ]);
    }
    emit(&a, "fig7a");

    heading("Fig. 7(b): EDP vs die area (EDP optimum invariant to operational time)");
    let mut b = Table::new(vec!["tasks".into(), "edp_optimal".into(), "edp_js".into()]);
    for &n in &op_times {
        let ctx = OperationalContext::new(n, grids::US_AVERAGE).expect("valid tasks");
        let best = argmin(&points, MetricKind::Edp, &ctx).expect("non-empty");
        b.row(vec![
            fmt_num(n),
            best.name.to_string(),
            fmt_num(best.edp().value()),
        ]);
    }
    emit(&b, "fig7b");

    // The full scatter for both panels.
    let ctx_lo = OperationalContext::new(1e5, grids::US_AVERAGE).expect("valid tasks");
    let ctx_hi = OperationalContext::new(1e9, grids::US_AVERAGE).expect("valid tasks");
    let mut scatter = Table::new(vec![
        "design".into(),
        "area_cm2".into(),
        "edp_js".into(),
        "tcdp_at_1e5".into(),
        "tcdp_at_1e9".into(),
    ]);
    for p in &points {
        scatter.row(vec![
            p.name.to_string(),
            fmt_num(p.area.value()),
            fmt_num(p.edp().value()),
            fmt_num(p.tcdp(&ctx_lo).value()),
            fmt_num(p.tcdp(&ctx_hi).value()),
        ]);
    }
    emit(&scatter, "fig7_scatter");
    println!("Shape: tCDP optimum moves with operational time; EDP optimum does not; neither equals min-area.");
}
