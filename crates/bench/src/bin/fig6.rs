//! Regenerates the paper's Fig. 6: tCDP versus EDP across wearable, mobile,
//! and datacenter design spaces.
//!
//! Expected shape: the EDP-tCDP correlation is weak when embodied carbon
//! dominates (wearables, 95 % embodied) and strengthens toward
//! operational-carbon-dominant datacenters (50 %); EDP-equivalent designs
//! can differ by orders of magnitude in tCDP; only under full operational
//! dominance would the EDP- and tCDP-optimal designs coincide.

use cordoba::prelude::*;
use cordoba_accel::space::design_space;
use cordoba_bench::{emit, heading};
use cordoba_carbon::embodied::EmbodiedModel;
use cordoba_workloads::task::Task;

fn main() {
    let points = evaluate_space(
        &design_space(),
        &Task::all_kernels(),
        &EmbodiedModel::default(),
    )
    .expect("static space evaluates");

    heading("Fig. 6: EDP vs tCDP correlation per domain (121 accelerator designs)");
    let mut summary = Table::new(vec![
        "domain".into(),
        "embodied_share".into(),
        "tasks_lifetime".into(),
        "log_correlation(EDP,tCDP)".into(),
        "iso-EDP tCDP spread".into(),
        "EDP-optimal".into(),
        "tCDP-optimal".into(),
    ]);
    let mut scatter = Table::new(vec![
        "domain".into(),
        "design".into(),
        "edp_js".into(),
        "tcdp_gs".into(),
    ]);
    for domain in DomainClass::ALL {
        let analysis = domain_analysis(&points, domain).expect("non-empty space");
        summary.row(vec![
            domain.label().into(),
            format!("{:.0}%", domain.embodied_share() * 100.0),
            fmt_num(analysis.context.tasks),
            format!("{:.3}", analysis.correlation),
            fmt_ratio(analysis.iso_edp_tcdp_spread),
            analysis.edp_optimal.to_string(),
            analysis.tcdp_optimal.to_string(),
        ]);
        for (p, (edp, tcdp)) in points
            .iter()
            .zip(analysis.edp.iter().zip(analysis.tcdp.iter()))
        {
            scatter.row(vec![
                domain.label().into(),
                p.name.to_string(),
                fmt_num(*edp),
                fmt_num(*tcdp),
            ]);
        }
    }
    emit(&summary, "fig6_summary");
    emit(&scatter, "fig6_scatter");
    println!(
        "Shape: correlation weakest for wearables, strongest for datacenters;\n\
         EDP-equivalent designs exhibit large tCDP spreads when embodied dominates\n\
         (paper reports up to ~100x)."
    );
}
