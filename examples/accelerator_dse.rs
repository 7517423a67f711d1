//! Design-space exploration over the paper's 121 accelerator
//! configurations (§VI-B): find the tCDP-optimal accelerator for an XR
//! workload at every operational time, and see how much of the space can
//! be eliminated outright.
//!
//! Run with: `cargo run --release --example accelerator_dse`

use cordoba::prelude::*;
use cordoba_accel::space::{config_by_name, design_space};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::task::Task;

fn main() -> Result<(), CoreError> {
    let task = Task::xr_10_kernels();
    println!("Workload: {task}");

    // Characterize all 121 MACs x SRAM configurations for this task.
    let points = evaluate_space(&design_space(), &task, &EmbodiedModel::default())?;
    println!("Characterized {} design points.\n", points.len());

    // Sweep operational time from 1e4 to 1e11 inferences.
    let sweep = OpTimeSweep::new(points, log_sweep(4, 11, 2), grids::US_AVERAGE)?;

    println!("operational time -> tCDP-optimal accelerator");
    let mut last = String::new();
    for n in 0..sweep.task_counts.len() {
        let best = &sweep.points[sweep.optimal_at(n)];
        if best.name != last {
            let cfg = config_by_name(&best.name).expect("space names decode");
            println!(
                "  from {:>8.1e} inferences: {:5} ({:4} MAC units, {:4.0} MiB SRAM, {:.2} cm^2)",
                sweep.task_counts[n],
                best.name,
                cfg.mac_units(),
                cfg.sram().to_mebibytes(),
                best.area.value()
            );
            last = best.name.to_string();
        }
    }

    let survivors = sweep.ever_optimal();
    println!(
        "\n{} of 121 designs are ever optimal; {:.1}% of the space is eliminated",
        survivors.len(),
        sweep.elimination_fraction() * 100.0
    );
    println!("(the paper eliminates 96.7-98.3% per task)");

    // Robust choice under usage uncertainty (Fig. 9).
    let robust = sweep.robust_choice();
    println!(
        "\nRobust choice (best average normalized tCDP): {} (score {:.2}; 1.0 = optimal everywhere)",
        sweep.points[robust].name,
        sweep.robustness_score(robust)
    );
    Ok(())
}
