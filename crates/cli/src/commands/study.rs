//! `metrics`, `provision` (Fig. 10) and `stacking` (Fig. 11).

use super::*;
use cordoba_soc::prelude::*;

pub(super) fn metrics(args: &Args<'_>) -> Result<String, CliError> {
    for required in ["--delay", "--energy", "--embodied"] {
        if args.get(&required[2..]).is_none() {
            return Err(CliError::Args(ArgError::Missing(required)));
        }
    }
    let point = DesignPoint::new(
        "design",
        Seconds::new(args.get_f64("delay", 0.0)?),
        Joules::new(args.get_f64("energy", 0.0)?),
        GramsCo2e::new(args.get_f64("embodied", 0.0)?),
        SquareCentimeters::new(args.get_f64("area", 1.0)?),
    )?;
    let tasks = args.get_f64("tasks", 1e6)?;
    let ci = grid_by_name(args.get("grid").unwrap_or("us"))?;
    let ctx = OperationalContext::new(tasks, ci)?;

    let mut out = String::new();
    let _ = writeln!(out, "design point over {tasks:.3e} lifetime tasks at {ci}:");
    let _ = writeln!(out, "  D     = {:.4}", point.delay);
    let _ = writeln!(out, "  E     = {:.4}", point.energy);
    let _ = writeln!(out, "  P     = {:.4}", point.power());
    let _ = writeln!(out, "  EDP   = {:.4}", point.edp());
    let _ = writeln!(out, "  C_emb = {:.2}", point.embodied);
    let _ = writeln!(out, "  C_op  = {:.2}", point.operational(&ctx));
    let _ = writeln!(
        out,
        "  tC    = {:.2} ({:.1}% embodied)",
        point.total_carbon(&ctx),
        point.embodied_share(&ctx) * 100.0
    );
    let _ = writeln!(
        out,
        "  CCI   = {:.3e} gCO2e per task",
        point.cci(&ctx).value()
    );
    let _ = writeln!(out, "  tCDP  = {:.4}", point.tcdp(&ctx));
    Ok(out)
}

pub(super) fn provision(args: &Args<'_>) -> Result<String, CliError> {
    let app = match args.get("app").unwrap_or("m1") {
        "m1" => VrApp::m1(),
        "g2" => VrApp::g2(),
        "b1" => VrApp::b1(),
        "sg1" => VrApp::sg1(),
        "all" => VrApp::all_tasks(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown app `{other}` (m1 | g2 | b1 | sg1 | all)"
            )))
        }
    };
    let mut deployment = Deployment::default();
    deployment.lifetime_years = args.get_f64("years", deployment.lifetime_years)?;
    deployment.ci_use = grid_by_name(args.get("grid").unwrap_or("us"))?;

    let rows = sweep(&app, &deployment)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} (TLP {:.2}) over {} years:",
        app.name,
        app.tlp(),
        deployment.lifetime_years
    );
    for r in &rows {
        let marker = if r.cores == optimal_cores(&rows) {
            "  <== optimal"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {} cores: tCDP {:.4e} gCO2e*s{marker}",
            r.cores,
            r.tcdp.value()
        );
    }
    let _ = writeln!(
        out,
        "optimal: {} cores ({:.2}x better than 8)",
        optimal_cores(&rows),
        improvement_over_8core(&rows)
    );
    Ok(out)
}

pub(super) fn stacking(args: &Args<'_>) -> Result<String, CliError> {
    let share = args.get_f64("share", 0.8)?;
    let model = EmbodiedModel::default();
    let kernel = KernelId::Sr512.descriptor();
    let mut points = Vec::new();
    for cfg in cordoba_accel::stacking::study_configs() {
        let sim = cordoba_accel::sim::simulate(&cfg, &kernel);
        let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
        points.push(DesignPoint::new(
            cfg.shared_name(),
            sim.latency,
            energy,
            cfg.embodied_carbon(&model)?,
            cfg.total_area(),
        )?);
    }
    let ctx = context_for_embodied_share(&points, grids::US_AVERAGE, share)?;
    let best = argmin(&points, MetricKind::Tcdp, &ctx)
        .ok_or_else(|| CliError::Usage("empty design study".to_owned()))?;
    let base = &points[0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SR(512x512), embodied share {:.0}% ({:.2e} inferences):",
        share * 100.0,
        ctx.tasks
    );
    for p in &points {
        let marker = if p.name == best.name {
            "  <== optimal"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:14} tCDP {:.4e}{marker}",
            p.name,
            p.tcdp(&ctx).value()
        );
    }
    let _ = writeln!(
        out,
        "winner {} improves {:.2}x over {}",
        best.name,
        base.tcdp(&ctx).value() / best.tcdp(&ctx).value(),
        base.name
    );
    Ok(out)
}
