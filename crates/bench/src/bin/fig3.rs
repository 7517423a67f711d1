//! Regenerates the paper's Fig. 3: (a) total carbon versus clock frequency
//! and (b) normalized EDP and tCDP per IC, showing the EDP-optimal design
//! is "D" while the tCDP-optimal design is "E".

use cordoba::prelude::*;
use cordoba_bench::{emit, heading};

fn main() {
    let scenario = Scenario::default();
    let (points, ctx) = design_points(&scenario);
    let ics = candidates();

    heading("Fig. 3(a): total carbon vs clock frequency");
    let mut a = Table::new(vec![
        "ic".into(),
        "clock_ghz".into(),
        "tC_gco2e".into(),
        "embodied_share".into(),
    ]);
    for (ic, p) in ics.iter().zip(&points) {
        a.row(vec![
            ic.name.clone(),
            fmt_num(ic.clock.to_gigahertz()),
            fmt_num(p.total_carbon(&ctx).value()),
            format!("{:.1}%", p.embodied_share(&ctx) * 100.0),
        ]);
    }
    emit(&a, "fig3a");

    heading("Fig. 3(b): normalized EDP and tCDP per IC");
    let min_edp = points
        .iter()
        .map(|p| p.edp().value())
        .fold(f64::INFINITY, f64::min);
    let min_tcdp = points
        .iter()
        .map(|p| p.tcdp(&ctx).value())
        .fold(f64::INFINITY, f64::min);
    let mut b = Table::new(vec![
        "ic".into(),
        "edp_normalized".into(),
        "tcdp_normalized".into(),
    ]);
    for p in &points {
        b.row(vec![
            p.name.to_string(),
            fmt_num(p.edp().value() / min_edp),
            fmt_num(p.tcdp(&ctx).value() / min_tcdp),
        ]);
    }
    emit(&b, "fig3b");

    let edp_opt = argmin(&points, MetricKind::Edp, &ctx).expect("non-empty");
    let tcdp_opt = argmin(&points, MetricKind::Tcdp, &ctx).expect("non-empty");
    println!(
        "EDP-optimal: {} (paper: D) | tCDP-optimal: {} (paper: E)",
        edp_opt.name, tcdp_opt.name
    );
    println!(
        "The tCDP-optimal design trades away energy efficiency (EDP {} vs {}) for lower embodied pressure.",
        fmt_num(tcdp_opt.edp().value() / min_edp),
        fmt_num(edp_opt.edp().value() / min_edp)
    );
}
