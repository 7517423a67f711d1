//! Regenerates the paper's Fig. 11: tCDP benefits of 3D stacking on the
//! SR(512x512) kernel.
//!
//! Expected shape: 3D stacking beats the 2D baseline in both the
//! embodied-carbon-dominant and operational-carbon-dominant cases;
//! 3D_2K_4M wins the embodied case (paper: 1.08x) and 3D_2K_8M wins the
//! operational case (paper: 6.9x), with the operational-case benefit much
//! larger.

use cordoba::prelude::*;
use cordoba_bench::stacking_study::StackingStudy;
use cordoba_bench::{emit, heading};

fn main() {
    let study = StackingStudy::run().expect("static study inputs are valid");

    heading("Fig. 11(a): configurations");
    let mut a = Table::new(vec![
        "config".into(),
        "delay_s".into(),
        "energy_j".into(),
        "embodied_gco2e".into(),
        "area_cm2".into(),
    ]);
    for row in &study.rows {
        a.row(vec![
            row.point.name.to_string(),
            fmt_num(row.point.delay.value()),
            fmt_num(row.point.energy.value()),
            fmt_num(row.point.embodied.value()),
            fmt_num(row.point.area.value()),
        ]);
    }
    emit(&a, "fig11a");

    heading("Fig. 11(b): tCDP improvement vs baseline, both cases");
    println!(
        "embodied-dominant case: {:.3e} inferences | operational-dominant case: {:.3e} inferences\n",
        study.embodied_case_tasks, study.operational_case_tasks
    );
    let mut b = Table::new(vec![
        "config".into(),
        "tcdp_embodied_case".into(),
        "improvement_embodied".into(),
        "tcdp_operational_case".into(),
        "improvement_operational".into(),
    ]);
    let base = study.baseline().clone();
    for row in &study.rows {
        b.row(vec![
            row.point.name.to_string(),
            fmt_num(row.tcdp_embodied_case),
            fmt_ratio(base.tcdp_embodied_case / row.tcdp_embodied_case),
            fmt_num(row.tcdp_operational_case),
            fmt_ratio(base.tcdp_operational_case / row.tcdp_operational_case),
        ]);
    }
    emit(&b, "fig11b");
    println!(
        "Winners: embodied case -> {} (paper: 3D_2K_4M at 1.08x), operational case -> {} (paper: 3D_2K_8M at 6.9x)",
        study.embodied_case_winner(),
        study.operational_case_winner()
    );
    println!(
        "Measured improvements: embodied {:.2}x, operational {:.2}x (operational >> embodied, as in the paper).",
        study.embodied_case_improvement(),
        study.operational_case_improvement()
    );
}
