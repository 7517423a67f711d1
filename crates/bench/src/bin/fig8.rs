//! Regenerates the paper's Fig. 8: carbon-efficiency (tCDP⁻¹) trends of the
//! 121-accelerator design space across operational time for the five
//! evaluation tasks, plus the Fig. 8(f) optimal-vs-average comparison.
//!
//! Expected shape: only a handful of configurations are ever tCDP-optimal
//! per task (96-98 % of the space eliminated); optimal designs grow in
//! MACs/SRAM as operational time grows; XR optima carry more activation
//! SRAM than AI optima; specialized tasks beat the general "All kernels"
//! task; the optimal design beats the space average by large factors.

use cordoba::prelude::*;
use cordoba_accel::space::{config_by_name, design_space};
use cordoba_bench::{emit, heading};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::task::Task;

fn main() {
    let configs = design_space();
    let model = EmbodiedModel::default();
    let tasks = Task::evaluation_suite();
    let counts = log_sweep(4, 11, 4);

    let mut sweeps = Vec::new();
    heading("Fig. 8(a-e): tCDP-optimal designs vs operational time");
    let mut optima = Table::new(vec![
        "task".into(),
        "tasks_lifetime".into(),
        "optimal".into(),
        "mac_units".into(),
        "sram_mib".into(),
        "tcdp_inv".into(),
    ]);
    let mut elimination = Table::new(vec![
        "task".into(),
        "survivors".into(),
        "eliminated_pct".into(),
        "survivor_names".into(),
    ]);
    for task in &tasks {
        let points = evaluate_space(&configs, task, &model).expect("static space evaluates");
        let sweep = OpTimeSweep::new(points, counts.clone(), grids::US_AVERAGE)
            .expect("valid sweep inputs");
        let mut last = String::new();
        for n in 0..sweep.task_counts.len() {
            let best = &sweep.points[sweep.optimal_at(n)];
            if best.name != last {
                let cfg = config_by_name(&best.name).expect("space names are valid");
                optima.row(vec![
                    task.name().into(),
                    fmt_num(sweep.task_counts[n]),
                    best.name.to_string(),
                    cfg.mac_units().to_string(),
                    fmt_num(cfg.sram().to_mebibytes()),
                    fmt_num(1.0 / sweep.tcdp_at(n, sweep.optimal_at(n))),
                ]);
                last = best.name.to_string();
            }
        }
        let survivors = sweep.ever_optimal();
        elimination.row(vec![
            task.name().into(),
            survivors.len().to_string(),
            format!("{:.1}%", sweep.elimination_fraction() * 100.0),
            survivors.into_iter().collect::<Vec<_>>().join(" "),
        ]);
        sweeps.push((task.name().to_owned(), sweep));
    }
    emit(&optima, "fig8_optima");
    emit(&elimination, "fig8_elimination");
    println!("Paper: 96.7-98.3% of the 121 designs eliminated per task.");

    // ASCII rendering of Fig. 8(a): carbon efficiency (tCDP^-1) of the
    // survivors vs operational time for the "All kernels" task.
    let all = &sweeps[0].1;
    let mut chart = AsciiChart::new(64, 14).with_log_y();
    let survivors = all.ever_optimal();
    for name in &survivors {
        let idx = all.points.iter().position(|p| &p.name == name).unwrap();
        let series: Vec<f64> = (0..all.task_counts.len())
            .map(|n| 1.0 / all.tcdp_at(n, idx))
            .collect();
        chart.series(name.clone(), &series);
    }
    println!("Fig. 8(a) shape — tCDP^-1 vs operational time (1e4 -> 1e11), All kernels:");
    println!("{}", chart.render());

    heading("Fig. 8(f): optimal vs average carbon efficiency per task");
    let mut f = Table::new(vec![
        "tasks_lifetime".into(),
        "task".into(),
        "optimal_tcdp_inv".into(),
        "average_tcdp_inv".into(),
        "optimal_vs_average".into(),
    ]);
    let mut min_headroom = f64::INFINITY;
    for &n_target in &[1e4, 1e6, 1e8, 1e10] {
        for (name, sweep) in &sweeps {
            let idx = sweep.index_near(n_target);
            let best = sweep.tcdp_at(idx, sweep.optimal_at(idx));
            let avg = sweep.average_tcdp_at(idx);
            let headroom = sweep.optimal_vs_average_at(idx);
            min_headroom = min_headroom.min(headroom);
            f.row(vec![
                fmt_num(n_target),
                name.clone(),
                fmt_num(1.0 / best),
                fmt_num(1.0 / avg),
                fmt_ratio(headroom),
            ]);
        }
    }
    emit(&f, "fig8f");
    println!("Minimum optimal-vs-average benefit across tasks/op-times: {min_headroom:.2}x (paper: 2.3x).");

    // Specialization benefit, read as in the paper's Fig. 8(f): the
    // specialized task's optimal tCDP bar vs the general task's bar at
    // matched operational time.
    heading("Fig. 8(f) inset: specialization benefit vs the general task");
    let general = &sweeps[0].1;
    let mut s = Table::new(vec![
        "tasks_lifetime".into(),
        "specialized".into(),
        "benefit_vs_all_kernels".into(),
    ]);
    for &n_target in &[1e6, 1e10] {
        for (name, sweep) in &sweeps[1..] {
            let idx = sweep.index_near(n_target);
            let gidx = general.index_near(n_target);
            let spec = sweep.tcdp_at(idx, sweep.optimal_at(idx));
            let gen = general.tcdp_at(gidx, general.optimal_at(gidx));
            s.row(vec![fmt_num(n_target), name.clone(), fmt_ratio(gen / spec)]);
        }
    }
    emit(&s, "fig8_specialization");
    println!("Paper: specialization is up to 8.3x (AI 5, 1e6 inf) / 8.4x (XR 5, 1e10 inf) more carbon-efficient.");

    // Cross-hardware view: the specialized task run on the general task's
    // optimal accelerator versus its own optimum (the over-provisioning
    // penalty of generality).
    heading("Cross-hardware specialization: task on general-optimal vs own-optimal accelerator");
    let mut x = Table::new(vec![
        "tasks_lifetime".into(),
        "task".into(),
        "general_hw".into(),
        "own_hw".into(),
        "penalty".into(),
    ]);
    for &n_target in &[1e5, 1e7, 1e9] {
        for (name, sweep) in &sweeps[1..] {
            let idx = sweep.index_near(n_target);
            let gidx = general.index_near(n_target);
            let general_opt = &general.points[general.optimal_at(gidx)].name;
            let own = sweep.optimal_at(idx);
            let cross = sweep
                .points
                .iter()
                .position(|p| &p.name == general_opt)
                .expect("same config namespace");
            x.row(vec![
                fmt_num(n_target),
                name.clone(),
                general_opt.to_string(),
                sweep.points[own].name.to_string(),
                fmt_ratio(sweep.tcdp_at(idx, cross) / sweep.tcdp_at(idx, own)),
            ]);
        }
    }
    emit(&x, "fig8_cross_hardware");
}
