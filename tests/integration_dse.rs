//! Integration: the full §VI-B design-space exploration over the 121
//! configurations and five Table IV tasks, cross-validated against the
//! §IV-B Lagrange elimination.

use cordoba::prelude::*;
use cordoba_accel::space::{config_by_name, design_space, SPACE_SIZE};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::task::Task;

fn sweep_for(task: &Task) -> OpTimeSweep {
    let points = evaluate_space(&design_space(), task, &EmbodiedModel::default()).unwrap();
    OpTimeSweep::new(points, log_sweep(4, 11, 4), grids::US_AVERAGE).unwrap()
}

#[test]
fn elimination_matches_paper_band_for_every_task() {
    // Paper: 96.7%, 98.3%, 96.7%, 98.3%, 97.5% eliminated. Our calibration
    // keeps 5, 4, 3, 3 and 3 of the 121 designs on this 4-per-decade grid
    // (`cordoba dse`'s 2-per-decade grid misses All's a61).
    let survivors = [
        ("All kernels", 5),
        ("XR 10 kernels", 4),
        ("AI 10 kernels", 3),
        ("XR 5 kernels", 3),
        ("AI 5 kernels", 3),
    ];
    let suite = Task::evaluation_suite();
    assert_eq!(suite.len(), survivors.len());
    for (task, (name, count)) in suite.iter().zip(survivors) {
        let sweep = sweep_for(task);
        let frac = sweep.elimination_fraction();
        assert!(
            (0.93..=0.995).contains(&frac),
            "{}: eliminated {:.1}%",
            task.name(),
            frac * 100.0
        );
        assert_eq!(task.name(), name);
        assert_eq!(sweep.points.len(), SPACE_SIZE);
        assert_eq!(sweep.ever_optimal().len(), count, "{name} survivors");
    }
    let all: Vec<String> = sweep_for(&Task::all_kernels())
        .ever_optimal()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(all, ["a49", "a60", "a61", "a72", "a84"]);
}

#[test]
fn every_op_time_winner_lies_on_the_beta_support_set() {
    // Theorem check: the tCDP argmin at any operational time must be a
    // lower-convex-hull point of (C_emb*D, E*D) — the §IV-B support set.
    for task in [Task::all_kernels(), Task::ai_5_kernels()] {
        let sweep = sweep_for(&task);
        let beta = BetaSweep::run(&sweep.points);
        let support: Vec<&str> = beta
            .support
            .iter()
            .map(|&i| beta.points[i].name.as_str())
            .collect();
        for name in sweep.ever_optimal() {
            assert!(
                support.contains(&name.as_str()),
                "{}: op-time winner {} missing from beta support {:?}",
                task.name(),
                name,
                support
            );
        }
    }
}

#[test]
fn optimal_design_grows_with_operational_time() {
    for task in Task::evaluation_suite() {
        let sweep = sweep_for(&task);
        let first = &sweep.points[sweep.optimal_at(0)];
        let last = &sweep.points[sweep.optimal_at(sweep.task_counts.len() - 1)];
        assert!(
            last.area >= first.area,
            "{}: late optimum {} smaller than early {}",
            task.name(),
            last.name,
            first.name
        );
        assert!(last.edp() <= first.edp());
        assert!(last.delay <= first.delay);
    }
}

#[test]
fn xr_optima_use_more_sram_than_ai_optima_at_matched_op_time() {
    let xr = sweep_for(&Task::xr_5_kernels());
    let ai = sweep_for(&Task::ai_5_kernels());
    for n_target in [1e5, 1e7, 1e9] {
        let sram = |s: &OpTimeSweep| {
            let idx = s.index_near(n_target);
            let name = &s.points[s.optimal_at(idx)].name;
            config_by_name(name).unwrap().sram().to_mebibytes()
        };
        assert!(
            sram(&xr) >= 4.0 * sram(&ai),
            "at {n_target:.0e}: XR {} MiB vs AI {} MiB",
            sram(&xr),
            sram(&ai)
        );
    }
}

#[test]
fn specialized_tasks_beat_the_general_task() {
    // Fig. 8(f): the specialized tasks' optimal bars sit well above (better
    // tCDP than) the general "All kernels" bar at matched operational time
    // (paper: up to 8.3x for AI 5 at 1e6, 8.4x for XR 5 at 1e10).
    let tasks = Task::evaluation_suite();
    let general = sweep_for(&tasks[0]);
    let benefit_of = |task: &Task, n_target: f64| {
        let sweep = sweep_for(task);
        let idx = sweep.index_near(n_target);
        let gidx = general.index_near(n_target);
        let spec = sweep.tcdp_at(idx, sweep.optimal_at(idx));
        let gen = general.tcdp_at(gidx, general.optimal_at(gidx));
        gen / spec
    };
    for task in &tasks[3..] {
        for n_target in [1e6, 1e10] {
            let benefit = benefit_of(task, n_target);
            assert!(
                benefit > 1.3,
                "{} at {n_target:.0e}: specialization benefit only {benefit:.2}x",
                task.name()
            );
        }
    }
    // The paper's strongest claim is AI 5 at 1e6 inferences (8.3x): the
    // lean AI-only task dodges the SR kernels entirely.
    assert!(
        benefit_of(&tasks[4], 1e6) > 3.0,
        "AI 5 at 1e6 should show a strong specialization benefit"
    );
}

#[test]
fn specialized_hardware_beats_general_hardware_on_the_specialized_task() {
    // Cross-hardware view: running AI 5 on the accelerator optimized for
    // "All kernels" wastes embodied carbon (over-provisioned SRAM/MACs)
    // versus the AI-5-optimal accelerator.
    let general = sweep_for(&Task::all_kernels());
    let ai5 = sweep_for(&Task::ai_5_kernels());
    for n_target in [1e5, 1e7] {
        let idx = ai5.index_near(n_target);
        let gidx = general.index_near(n_target);
        let general_opt = &general.points[general.optimal_at(gidx)].name;
        let own_opt = ai5.optimal_at(idx);
        let cross = ai5
            .points
            .iter()
            .position(|p| &p.name == general_opt)
            .expect("same 121-config namespace");
        let benefit = ai5.tcdp_at(idx, cross) / ai5.tcdp_at(idx, own_opt);
        assert!(
            benefit > 1.2,
            "AI 5 at {n_target:.0e}: cross-hardware penalty only {benefit:.2}x"
        );
    }
}

#[test]
fn optimal_vs_average_benefit_exceeds_paper_minimum() {
    // Paper: minimum benefit between optimal and average is 2.3x.
    for task in Task::evaluation_suite() {
        let sweep = sweep_for(&task);
        for n in 0..sweep.task_counts.len() {
            let headroom = sweep.optimal_vs_average_at(n);
            assert!(
                headroom > 1.8,
                "{} at index {n}: headroom {headroom:.2}",
                task.name()
            );
        }
    }
}

#[test]
fn constrained_problem_respects_area_budget_over_the_space() {
    let points = evaluate_space(
        &design_space(),
        &Task::all_kernels(),
        &EmbodiedModel::default(),
    )
    .unwrap();
    let ctx = OperationalContext::us_grid(1e8);
    let unconstrained = OptimizationProblem::tcdp(points.clone())
        .solve(&ctx)
        .unwrap();
    let tight_area = unconstrained.best.area * 0.5;
    let constrained = OptimizationProblem::tcdp(points)
        .with_constraints(Constraints::none().with_max_area(tight_area))
        .solve(&ctx)
        .unwrap();
    assert!(constrained.best.area <= tight_area);
    assert!(constrained.objective_value >= unconstrained.objective_value);
    assert!(constrained.feasible_count < SPACE_SIZE);
}

#[test]
fn qos_constraint_can_forbid_the_tcdp_optimum() {
    // §III-C scenario (a) on the real space: a tight latency ceiling moves
    // the choice off the tCDP optimum.
    let points = evaluate_space(
        &design_space(),
        &Task::xr_10_kernels(),
        &EmbodiedModel::default(),
    )
    .unwrap();
    let ctx = OperationalContext::us_grid(1e5);
    let free = OptimizationProblem::tcdp(points.clone())
        .solve(&ctx)
        .unwrap();
    let ceiling = free.best.delay * 0.5;
    let constrained = OptimizationProblem::tcdp(points)
        .with_constraints(Constraints::none().with_max_delay(ceiling))
        .solve(&ctx)
        .unwrap();
    assert_ne!(constrained.best.name, free.best.name);
    assert!(constrained.best.delay <= ceiling);
}
