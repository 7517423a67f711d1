//! Demonstrates the framework extensions the paper's conclusion calls for:
//!
//! 1. **System bill of materials** — memory/storage embodied carbon next to
//!    logic dice (ACT-style DRAM/NAND/HDD factors).
//! 2. **Lifetime workload mixes** — DSE over a blend of tasks instead of a
//!    single fixed task.
//! 3. **Two-factor elimination** — dropping designs when *both* `CI_use(t)`
//!    and `CI_fab` are unknown, via the 3-D Pareto front of
//!    (`materials·D`, `fab_energy·D`, `E·D`).
//! 4. **Carbon-aware DVFS** — the tCDP-optimal supply voltage as a function
//!    of operational lifetime.

use cordoba::prelude::*;
use cordoba_accel::sim::simulate;
use cordoba_accel::space::design_space;
use cordoba_accel::stacking::study_configs;
use cordoba_bench::{emit, heading};
use cordoba_carbon::prelude::*;
use cordoba_tech::dvfs::DvfsCurve;
use cordoba_tech::mosfet::GateModel;
use cordoba_workloads::kernel::KernelId;
use cordoba_workloads::task::Task;

fn main() {
    bom_study();
    mix_study();
    two_factor_study();
    dvfs_study();
}

fn bom_study() {
    heading("Extension 1: system BOM with memory/storage embodied carbon");
    let model = EmbodiedModel::default();
    let mut bom = SystemBom::new("vr-headset");
    bom.add_die(Die::new("xr2-soc", SquareCentimeters::new(2.25), ProcessNode::N7).unwrap());
    bom.add_memory(MemoryDevice::new(MemoryKind::Dram, 8.0).unwrap());
    bom.add_memory(MemoryDevice::new(MemoryKind::Nand, 256.0).unwrap());
    let mut t = Table::new(vec!["component".into(), "embodied_gco2e".into()]);
    t.row(vec![
        "SoC (2.25 cm^2, 7 nm)".into(),
        fmt_num(bom.logic_carbon(&model).value()),
    ]);
    for m in bom.memories() {
        t.row(vec![
            format!("{} {} GB", m.kind, m.capacity_gb),
            fmt_num(m.embodied_carbon().value()),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        fmt_num(bom.embodied_carbon(&model).value()),
    ]);
    emit(&t, "ext_bom");
    println!(
        "Memory/storage share of embodied carbon: {:.0}% — ignoring it understates tC substantially.",
        bom.memory_share(&model) * 100.0
    );
}

fn mix_study() {
    heading("Extension 2: DSE over a lifetime workload mix (60% AI-5 / 40% XR-5)");
    let mix = LifetimeMix::new(vec![
        (Task::ai_5_kernels(), 0.6),
        (Task::xr_5_kernels(), 0.4),
    ])
    .expect("valid mix");
    let points = mix
        .evaluate_space(&design_space(), &EmbodiedModel::default())
        .expect("static space evaluates");
    let sweep =
        OpTimeSweep::new(points, log_sweep(4, 11, 2), grids::US_AVERAGE).expect("valid sweep");
    let mut t = Table::new(vec!["tasks_lifetime".into(), "optimal".into()]);
    let mut last = String::new();
    for n in 0..sweep.task_counts.len() {
        let best = &sweep.points[sweep.optimal_at(n)];
        if best.name != last {
            t.row(vec![fmt_num(sweep.task_counts[n]), best.name.to_string()]);
            last = best.name.to_string();
        }
    }
    emit(&t, "ext_mix");
    println!(
        "Mix '{}' eliminates {:.1}% of the space; its optima sit between the AI-only and XR-only optima.",
        mix.name(),
        sweep.elimination_fraction() * 100.0
    );
}

fn two_factor_study() {
    heading("Extension 3: elimination with unknown CI_use AND CI_fab (3D stacking study)");
    let model = EmbodiedModel::default();
    let kernel = KernelId::Sr512.descriptor();
    let candidates: Vec<_> = study_configs()
        .iter()
        .map(|cfg| {
            let sim = simulate(cfg, &kernel);
            let energy = sim.dynamic_energy + cfg.leakage_power() * sim.latency;
            let point = DesignPoint::new(
                cfg.shared_name(),
                sim.latency,
                energy,
                cfg.embodied_carbon(&model).unwrap(),
                cfg.total_area(),
            )
            .unwrap();
            (point, cfg.embodied_breakdown(&model).unwrap())
        })
        .collect();
    let two = TwoFactorSweep::run(&candidates);
    let mut t = Table::new(vec![
        "config".into(),
        "materials_x_d".into(),
        "fab_energy_x_d".into(),
        "e_x_d".into(),
        "survives".into(),
    ]);
    for (i, p) in two.points.iter().enumerate() {
        t.row(vec![
            p.name.to_string(),
            fmt_num(p.objectives[0]),
            fmt_num(p.objectives[1]),
            fmt_num(p.objectives[2]),
            two.pareto.contains(&i).to_string(),
        ]);
    }
    emit(&t, "ext_two_factor");
    println!(
        "Survivors for ANY (CI_fab, CI_use) pair: {:?} ({:.0}% eliminated)",
        two.surviving_names(),
        two.elimination_fraction() * 100.0
    );
}

fn dvfs_study() {
    heading("Extension 4: carbon-aware DVFS — tCDP-optimal V_DD vs operational lifetime");
    let curve = DvfsCurve::new(
        GateModel::default(),
        Hertz::from_gigahertz(1.5),
        Joules::from_nanojoules(1.0),
        Watts::new(0.2),
    );
    let embodied = GramsCo2e::new(2_000.0);
    let mut t = Table::new(vec![
        "tasks_lifetime".into(),
        "optimal_v_dd".into(),
        "frequency_ghz".into(),
    ]);
    for tasks in [1.0, 1e4, 1e6, 1e8, 1e10] {
        let p = curve
            .tcdp_optimal_point(5e8, embodied, tasks, grids::US_AVERAGE, 0.5, 1.15, 48)
            .expect("valid sweep");
        t.row(vec![
            fmt_num(tasks),
            format!("{:.3}", p.v_dd),
            format!("{:.2}", p.frequency.to_gigahertz()),
        ]);
    }
    emit(&t, "ext_dvfs");
    println!(
        "Embodied-dominant lifetimes run flat-out (minimize D);\n\
         operational-dominant lifetimes settle near the EDP-optimal voltage."
    );
}
