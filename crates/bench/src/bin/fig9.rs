//! Regenerates the paper's Fig. 9: tCDP normalized to the per-operational-
//! time optimum, and the robust-design selection.
//!
//! Expected shape: the design optimal at short operational times degrades
//! heavily at long ones (the paper's a1 is up to 12.5x worse at 1e11
//! inferences); a mid-sized design has the best *average* normalized tCDP
//! and is the robust choice under usage uncertainty.

use cordoba::prelude::*;
use cordoba_accel::space::design_space;
use cordoba_bench::{emit, heading};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::task::Task;

fn main() {
    let configs = design_space();
    let model = EmbodiedModel::default();
    let counts = log_sweep(4, 11, 4);

    heading("Fig. 9: normalized tCDP vs operational time and robust choices");
    let mut robust = Table::new(vec![
        "task".into(),
        "early_optimal".into(),
        "late_optimal".into(),
        "early_design_worst_case".into(),
        "robust_choice".into(),
        "robust_avg_normalized_tcdp".into(),
    ]);
    let mut curves = Table::new(vec![
        "task".into(),
        "design".into(),
        "tasks_lifetime".into(),
        "tcdp_normalized".into(),
    ]);
    for task in Task::evaluation_suite() {
        let points = evaluate_space(&configs, &task, &model).expect("static space evaluates");
        let sweep = OpTimeSweep::new(points, counts.clone(), grids::US_AVERAGE)
            .expect("valid sweep inputs");
        let early = sweep.optimal_at(0);
        let late = sweep.optimal_at(sweep.task_counts.len() - 1);
        let robust_idx = sweep.robust_choice();
        // Worst-case degradation of the early specialist across the sweep.
        let worst_early = (0..sweep.task_counts.len())
            .map(|n| sweep.normalized_at(n)[early])
            .fold(0.0f64, f64::max);
        robust.row(vec![
            task.name().into(),
            sweep.points[early].name.to_string(),
            sweep.points[late].name.to_string(),
            fmt_ratio(worst_early),
            sweep.points[robust_idx].name.to_string(),
            fmt_num(sweep.robustness_score(robust_idx)),
        ]);
        // Emit curves for the interesting designs.
        let mut interesting = vec![early, late, robust_idx];
        interesting.dedup();
        for &p in &interesting {
            for n in (0..sweep.task_counts.len()).step_by(4) {
                curves.row(vec![
                    task.name().into(),
                    sweep.points[p].name.to_string(),
                    fmt_num(sweep.task_counts[n]),
                    fmt_num(sweep.normalized_at(n)[p]),
                ]);
            }
        }
    }
    emit(&robust, "fig9_robust");
    emit(&curves, "fig9_curves");

    // ASCII rendering of the "All kernels" normalized-tCDP curves: the
    // early specialist degrades rightward, the late specialist leftward,
    // the robust choice stays flat.
    let points =
        evaluate_space(&configs, &Task::all_kernels(), &model).expect("static space evaluates");
    let sweep = OpTimeSweep::new(points, counts, grids::US_AVERAGE).expect("valid sweep");
    let mut chart = AsciiChart::new(64, 12).with_log_y();
    let mut interesting = vec![
        sweep.optimal_at(0),
        sweep.robust_choice(),
        sweep.optimal_at(sweep.task_counts.len() - 1),
    ];
    interesting.dedup();
    for p in interesting {
        let series: Vec<f64> = (0..sweep.task_counts.len())
            .map(|n| sweep.normalized_at(n)[p])
            .collect();
        chart.series(sweep.points[p].name.clone(), &series);
    }
    println!("Fig. 9 shape — normalized tCDP vs operational time (1e4 -> 1e11), All kernels:");
    println!("{}", chart.render());
    println!(
        "Paper: for All kernels, the short-lifetime optimum (a1) is up to 12.5x\n\
         worse at 1e11 inferences; robust picks (a38/a48/a23/a12) have the best\n\
         average normalized tCDP across operational time."
    );
}
