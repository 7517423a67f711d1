//! Integration: the §VI-E 3D-integration case study (Fig. 11 / Fig. 12)
//! computed directly from the accel + carbon + core crates.

use cordoba::prelude::*;
use cordoba_accel::prelude::*;
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_carbon::intensity::grids;
use cordoba_workloads::kernel::KernelId;

fn study_points() -> Vec<DesignPoint> {
    let model = EmbodiedModel::default();
    let kernel = KernelId::Sr512.descriptor();
    study_configs()
        .iter()
        .map(|cfg| {
            let sim = simulate(cfg, &kernel);
            let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
            DesignPoint::new(
                cfg.name(),
                sim.latency,
                energy,
                cfg.embodied_carbon(&model).unwrap(),
                cfg.total_area(),
            )
            .unwrap()
        })
        .collect()
}

fn winner_at_share(points: &[DesignPoint], share: f64) -> (String, f64) {
    let ctx = context_for_embodied_share(points, grids::US_AVERAGE, share).unwrap();
    let best = argmin(points, MetricKind::Tcdp, &ctx).unwrap();
    let improvement = points[0].tcdp(&ctx).value() / best.tcdp(&ctx).value();
    (best.name.to_string(), improvement)
}

#[test]
fn fig11_winners_match_paper() {
    let points = study_points();
    let (emb_winner, emb_gain) = winner_at_share(&points, 0.80);
    let (op_winner, op_gain) = winner_at_share(&points, 0.08);
    assert_eq!(emb_winner, "3D_2K_4M", "embodied-dominant winner");
    assert_eq!(op_winner, "3D_2K_8M", "operational-dominant winner");
    // Both beat the baseline; the operational-case benefit is much larger
    // (paper: 1.08x vs 6.9x).
    assert!(emb_gain > 1.0);
    assert!(op_gain > 2.0 * emb_gain, "op {op_gain} vs emb {emb_gain}");
}

#[test]
fn fig12_pareto_eliminates_five_of_seven() {
    let points = study_points();
    let sweep = BetaSweep::run(&points);
    let survivors = sweep.surviving_names();
    assert_eq!(survivors.len(), 2, "{survivors:?}");
    assert!(survivors.contains(&"3D_2K_4M"));
    assert!(survivors.contains(&"3D_2K_8M"));
    for gone in [
        "Baseline_1K_1M",
        "3D_1K_2M",
        "3D_1K_4M",
        "3D_1K_8M",
        "3D_2K_16M",
    ] {
        assert!(sweep.eliminated_names().contains(&gone), "{gone} survived");
    }
    assert!((sweep.elimination_fraction() - 5.0 / 7.0).abs() < 1e-12);
}

#[test]
fn baseline_is_memory_starved_and_3d_relieves_it() {
    let kernel = KernelId::Sr512.descriptor();
    let base = simulate(&baseline(), &kernel);
    assert!(base.is_memory_bound(), "1 MiB baseline must be DRAM-bound");
    // The largest 2K stack is compute-bound.
    let big = stacked_configs()
        .into_iter()
        .find(|c| c.name() == "3D_2K_16M")
        .unwrap();
    let relieved = simulate(&big, &kernel);
    assert!(!relieved.is_memory_bound());
    assert!(relieved.latency < base.latency);
    assert!(relieved.dram_traffic < base.dram_traffic);
}

#[test]
fn stacking_pays_embodied_but_saves_energy() {
    let points = study_points();
    let base = &points[0];
    for p in &points[1..] {
        assert!(p.embodied > base.embodied, "{} embodied", p.name);
        assert!(p.energy < base.energy, "{} energy", p.name);
    }
}

#[test]
fn lifetime_change_acts_like_ci_change_through_beta() {
    // §VI-E note: lifetime and CI_use(t) changes both scale E -> C_op, so
    // they move the same beta knob. Doubling tasks at half the CI gives the
    // same tCDP ordering.
    let points = study_points();
    let a = OperationalContext::new(2e8, grids::US_AVERAGE).unwrap();
    let b = OperationalContext::new(4e8, grids::US_AVERAGE * 0.5).unwrap();
    assert!((beta_for_context(&a) - beta_for_context(&b)).abs() < 1e-9);
    let rank = |ctx: &OperationalContext| {
        let mut names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        names.sort_by(|x, y| {
            let px = points
                .iter()
                .find(|p| p.name == *x)
                .unwrap()
                .tcdp(ctx)
                .value();
            let py = points
                .iter()
                .find(|p| p.name == *y)
                .unwrap()
                .tcdp(ctx)
                .value();
            px.total_cmp(&py)
        });
        names.first().map(|s| (*s).to_owned()).unwrap()
    };
    // The tCDP winner is identical (embodied terms are equal; operational
    // terms scale identically).
    assert_eq!(rank(&a), rank(&b));
}

#[test]
fn beta_bridge_recovers_both_fig11_winners() {
    let points = study_points();
    let sweep = BetaSweep::run(&points);
    let emb_ctx = context_for_embodied_share(&points, grids::US_AVERAGE, 0.80).unwrap();
    let op_ctx = context_for_embodied_share(&points, grids::US_AVERAGE, 0.08).unwrap();
    let name = |ctx: &OperationalContext| {
        let idx = sweep.optimal_for_beta(beta_for_context(ctx)).unwrap();
        sweep.points[idx].name.clone()
    };
    assert_eq!(name(&emb_ctx), "3D_2K_4M");
    assert_eq!(name(&op_ctx), "3D_2K_8M");
    // Between the two cases the optimum changes hands exactly once, from
    // 4M to 8M.
    let (beta_emb, beta_op) = (beta_for_context(&emb_ctx), beta_for_context(&op_ctx));
    let between: Vec<(&str, &str)> = sweep
        .transitions()
        .iter()
        .filter(|t| t.beta > beta_emb && t.beta < beta_op)
        .map(|t| {
            (
                sweep.points[t.from_index].name.as_str(),
                sweep.points[t.to_index].name.as_str(),
            )
        })
        .collect();
    assert_eq!(between, [("3D_2K_4M", "3D_2K_8M")]);
}
