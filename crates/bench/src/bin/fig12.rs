//! Regenerates the paper's Fig. 12: `E·D` versus `C_embodied·D` for the
//! seven 3D-integration configurations, with the §IV-B Pareto/Lagrange
//! elimination.
//!
//! Expected shape: five of the seven configurations are off the
//! Pareto-optimal curve and can be eliminated without knowing `CI_use(t)`;
//! the survivors are 3D_2K_4M and 3D_2K_8M, which are exactly the Fig. 11
//! winners of the embodied- and operational-dominant cases respectively.
//! The optimum hands from the first to the second at one exact β, printed
//! with the US-grid task count it corresponds to.

use cordoba::prelude::*;
use cordoba_bench::stacking_study::StackingStudy;
use cordoba_bench::{emit, heading};
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::JOULES_PER_KILOWATT_HOUR;

fn main() {
    let study = StackingStudy::run().expect("static study inputs are valid");
    let sweep = &study.beta_sweep;

    heading("Fig. 12: E*D vs C_emb*D with Pareto / beta-sweep elimination");
    let mut t = Table::new(vec![
        "config".into(),
        "c_emb_x_d".into(),
        "e_x_d".into(),
        "on_pareto".into(),
        "in_beta_support".into(),
    ]);
    for (i, p) in sweep.points.iter().enumerate() {
        t.row(vec![
            p.name.to_string(),
            fmt_num(p.x),
            fmt_num(p.y),
            sweep.pareto.contains(&i).to_string(),
            sweep.support.contains(&i).to_string(),
        ]);
    }
    emit(&t, "fig12");

    println!(
        "Eliminated ({} of {}): {}",
        sweep.points.len() - sweep.pareto.len(),
        sweep.points.len(),
        study.beta_sweep.eliminated_names().join(", ")
    );
    println!(
        "Survivors: {} (paper: 3D_2K_4M and 3D_2K_8M)",
        study.pareto_survivors().join(", ")
    );

    // Demonstrate the Lagrange bridge: concrete beta values recover the
    // Fig. 11 winners.
    let ctx_emb = OperationalContext::us_grid(study.embodied_case_tasks);
    let ctx_op = OperationalContext::us_grid(study.operational_case_tasks);
    let beta_emb = beta_for_context(&ctx_emb);
    let beta_op = beta_for_context(&ctx_op);
    let name_for = |beta: f64| {
        sweep
            .optimal_for_beta(beta)
            .map(|i| sweep.points[i].name.to_string())
            .unwrap_or_default()
    };
    println!(
        "beta (embodied case) = {:.3e} -> {} | beta (operational case) = {:.3e} -> {}",
        beta_emb,
        name_for(beta_emb),
        beta_op,
        name_for(beta_op)
    );
    // The exact crossover read off the hull, and the task count that puts
    // a constant US-grid deployment there (inverting `beta_for_context`).
    for t in sweep.transitions() {
        let tasks = t.beta * JOULES_PER_KILOWATT_HOUR / grids::US_AVERAGE.value();
        println!(
            "Transition: {} -> {} at beta = {:.4e} (N = {:.3e} tasks on the US grid)",
            sweep.points[t.from_index].name, sweep.points[t.to_index].name, t.beta, tasks
        );
    }
}
