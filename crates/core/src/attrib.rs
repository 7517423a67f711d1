//! Carbon attribution ledger: *where* a sweep's tCDP comes from.
//!
//! CORDOBA's claim is that tCDP makes carbon an *accountable* optimization
//! metric — so the reproduction should be able to say not just "this sweep
//! totals X gCO2e·s" but how much of that is embodied manufacturing carbon
//! versus operational (use-phase) carbon, per candidate design and per
//! operational-time point, and how much of the design space was lost to
//! quarantine along the way. [`AttributionReport`] is that ledger.
//!
//! ## The bit-exactness invariant
//!
//! The ledger is only trustworthy if it reconciles exactly with what the
//! sweep reported. Two properties are maintained and verified:
//!
//! 1. Every per-cell tCDP in the report is copied **verbatim** from the
//!    sweep's matrix ([`OpTimeSweep::tcdp_matrix`]) — the ledger never
//!    recomputes the number it is attributing.
//! 2. The decomposition recomposes to the same bits:
//!    `(embodied + operational) · delay` evaluated in plain `f64` is the
//!    exact operation chain [`DesignPoint::tcdp`] uses (the unit newtypes
//!    add and multiply their raw `f64`s in the same order), so
//!    [`AttributionReport::check_against`] can require bitwise equality,
//!    not approximate agreement.
//!
//! Because the sweep matrix itself is bit-identical at every worker-thread
//! count, so is the report (`tests/prop_obs_determinism.rs` pins both).

use crate::dse::{EvalFailure, OpTimeSweep};
use crate::lagrange::BetaSweep;
use crate::metrics::OperationalContext;
use cordoba_carbon::error::CarbonError;
use cordoba_obs::Name;

/// Embodied/operational decomposition for one candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigAttribution {
    /// Design name, shared with the sweep's design point.
    pub name: Name,
    /// Embodied carbon, gCO2e (task-count independent).
    pub embodied: f64,
    /// Per-task delay, seconds.
    pub delay: f64,
    /// Operational carbon at each sweep task count, gCO2e.
    pub operational: Vec<f64>,
    /// tCDP at each sweep task count, gCO2e·s — copied verbatim from the
    /// sweep matrix, never recomputed.
    pub tcdp: Vec<f64>,
}

impl ConfigAttribution {
    /// Fraction of lifetime carbon that is embodied at sweep index `n`
    /// (`NaN`-free: returns 0 for an all-zero decomposition).
    #[must_use]
    pub fn embodied_share(&self, n: usize) -> f64 {
        let operational = self.operational.get(n).copied().unwrap_or(0.0);
        let total = self.embodied + operational;
        if total > 0.0 {
            self.embodied / total
        } else {
            0.0
        }
    }
}

/// Space-wide totals at one sweep task count.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskCountTotals {
    /// The task count (operational time in task executions).
    pub tasks: f64,
    /// `Σ_p embodied_p · delay_p`, gCO2e·s — the embodied share of the
    /// summed tCDP (up to f64 distribution error; reported for reading,
    /// not reconciliation).
    pub embodied_delay: f64,
    /// `Σ_p operational_p(n) · delay_p`, gCO2e·s.
    pub operational_delay: f64,
    /// `Σ_p tcdp[n][p]` in point-index order over the verbatim sweep
    /// values — deterministic for a given sweep.
    pub tcdp: f64,
}

/// A design excluded from the sweep by quarantine — carbon the ledger
/// cannot attribute because the candidate never evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLoss {
    /// Design name, shared with the evaluation failure.
    pub name: Name,
    /// Rendered evaluation error.
    pub error: String,
}

/// β-sweep elimination summary riding along with the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BetaAttribution {
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Candidates on the (`C_emb·D`, `E·D`) Pareto front.
    pub pareto: usize,
    /// Candidates in the support set `X*` (lower convex hull).
    pub support: usize,
}

/// The carbon attribution ledger for one operational-time sweep: per-config
/// embodied/operational decomposition, per-task-count totals, quarantined
/// losses, and (optionally) the β-elimination summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Use-phase carbon intensity, gCO2e/kWh.
    pub ci_use: f64,
    /// The sweep's operational-time axis.
    pub task_counts: Vec<f64>,
    /// Per-design decomposition, in sweep point order.
    pub configs: Vec<ConfigAttribution>,
    /// Space-wide totals, one per task count.
    pub totals: Vec<TaskCountTotals>,
    /// Designs lost to quarantine (empty unless
    /// [`AttributionReport::with_quarantine`] was applied).
    pub quarantined: Vec<QuarantinedLoss>,
    /// β-sweep summary (present after [`AttributionReport::with_beta`]).
    pub beta: Option<BetaAttribution>,
}

impl AttributionReport {
    /// Assembles the ledger for `sweep`. tCDP cells are copied verbatim
    /// from the sweep matrix; the embodied/operational decomposition is
    /// evaluated through the same [`DesignPoint`](crate::metrics::DesignPoint)
    /// methods the sweep used, so [`Self::check_against`] holds by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns an error if an operational context cannot be constructed
    /// for one of the sweep's task counts (impossible for a sweep built by
    /// [`OpTimeSweep::new`], which validates them).
    pub fn from_sweep(sweep: &OpTimeSweep) -> Result<Self, CarbonError> {
        let _span = cordoba_obs::span("core/attribution_report");
        let contexts: Vec<OperationalContext> = sweep
            .task_counts
            .iter()
            .map(|&n| OperationalContext::new(n, sweep.ci_use))
            .collect::<Result<_, _>>()?;
        let width = sweep.points.len();
        let matrix = sweep.tcdp_matrix();
        // Per-task-count `Σ_p operational_p(n) · delay_p`, accumulated in
        // point order from `-0.0` (the start `Iterator::sum` uses), so the
        // bits equal a separate sum per task count.
        let mut operational_delay = vec![-0.0; contexts.len()];
        let configs: Vec<ConfigAttribution> = sweep
            .points
            .iter()
            .enumerate()
            .map(|(p, point)| {
                let delay = point.delay.value();
                let operational: Vec<f64> = contexts
                    .iter()
                    .map(|ctx| point.operational(ctx).value())
                    .collect();
                for (sum, op) in operational_delay.iter_mut().zip(&operational) {
                    *sum += op * delay;
                }
                ConfigAttribution {
                    name: point.name.clone(),
                    embodied: point.embodied.value(),
                    delay,
                    operational,
                    tcdp: matrix[p..].iter().step_by(width).copied().collect(),
                }
            })
            .collect();
        let embodied_delay: f64 = configs.iter().map(|c| c.embodied * c.delay).sum();
        let totals = sweep
            .task_counts
            .iter()
            .zip(operational_delay)
            .enumerate()
            .map(|(n, (&tasks, operational_delay))| TaskCountTotals {
                tasks,
                embodied_delay,
                operational_delay,
                tcdp: sweep.row(n).iter().sum(),
            })
            .collect();
        Ok(Self {
            ci_use: sweep.ci_use.value(),
            task_counts: sweep.task_counts.clone(),
            configs,
            totals,
            quarantined: Vec::new(),
            beta: None,
        })
    }

    /// Attaches the quarantined-evaluation losses from a resilient or
    /// supervised evaluation pass.
    #[must_use]
    pub fn with_quarantine(mut self, failures: &[EvalFailure]) -> Self {
        self.quarantined = failures
            .iter()
            .map(|f| QuarantinedLoss {
                name: f.name.clone(),
                error: f.error.to_string(),
            })
            .collect();
        self
    }

    /// Attaches the β-sweep elimination summary.
    #[must_use]
    pub fn with_beta(mut self, beta: &BetaSweep) -> Self {
        self.beta = Some(BetaAttribution {
            evaluated: beta.points.len(),
            pareto: beta.pareto.len(),
            support: beta.support.len(),
        });
        self
    }

    /// Verifies the ledger against `sweep` **bit-for-bit**: every stored
    /// tCDP cell must equal the sweep matrix, and the stored decomposition
    /// must recompose to it exactly — `(embodied + operational) · delay`
    /// in plain `f64` is the same operation chain
    /// [`DesignPoint::tcdp`](crate::metrics::DesignPoint::tcdp) evaluates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first cell that fails to reconcile.
    pub fn check_against(&self, sweep: &OpTimeSweep) -> Result<(), String> {
        if self.configs.len() != sweep.points.len() {
            return Err(format!(
                "config count {} != sweep point count {}",
                self.configs.len(),
                sweep.points.len()
            ));
        }
        if self.task_counts.len() != sweep.task_counts.len() {
            return Err(format!(
                "task-count axis {} != sweep axis {}",
                self.task_counts.len(),
                sweep.task_counts.len()
            ));
        }
        let width = sweep.points.len();
        let matrix = sweep.tcdp_matrix();
        for (p, config) in self.configs.iter().enumerate() {
            // Column `p` of the flat row-major matrix: one cell per task count.
            for (n, &swept) in matrix[p..].iter().step_by(width).enumerate() {
                let cell = |values: &[f64]| values.get(n).copied().unwrap_or(f64::NAN);
                let stored = cell(&config.tcdp);
                if stored.to_bits() != swept.to_bits() {
                    return Err(format!(
                        "config `{}` task count {}: ledger tcdp {stored:e} != sweep {swept:e}",
                        config.name, self.task_counts[n]
                    ));
                }
                let operational = cell(&config.operational);
                let recomposed = (config.embodied + operational) * config.delay;
                if recomposed.to_bits() != swept.to_bits() {
                    return Err(format!(
                        "config `{}` task count {}: decomposition ({:e} + {operational:e}) * {:e} \
                         = {recomposed:e} does not recompose sweep tcdp {swept:e}",
                        config.name, self.task_counts[n], config.embodied, config.delay
                    ));
                }
            }
        }
        Ok(())
    }

    /// The ledger as a JSON object (hand-rolled; finite `f64`s render in
    /// Rust's shortest round-trip form).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        fn num_array(values: &[f64]) -> String {
            let cells: Vec<String> = values.iter().map(|&v| num(v)).collect();
            format!("[{}]", cells.join(","))
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"ci_use\":{},\"task_counts\":{},\"configs\":[",
            num(self.ci_use),
            num_array(&self.task_counts)
        );
        for (i, config) in self.configs.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"embodied\":{},\"delay\":{},\"operational\":{},\"tcdp\":{}}}",
                if i > 0 { "," } else { "" },
                cordoba_obs::chrome::escape_json(&config.name),
                num(config.embodied),
                num(config.delay),
                num_array(&config.operational),
                num_array(&config.tcdp)
            );
        }
        out.push_str("],\"totals\":[");
        for (i, totals) in self.totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"tasks\":{},\"embodied_delay\":{},\"operational_delay\":{},\"tcdp\":{}}}",
                if i > 0 { "," } else { "" },
                num(totals.tasks),
                num(totals.embodied_delay),
                num(totals.operational_delay),
                num(totals.tcdp)
            );
        }
        out.push_str("],\"quarantined\":[");
        for (i, loss) in self.quarantined.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"error\":\"{}\"}}",
                if i > 0 { "," } else { "" },
                cordoba_obs::chrome::escape_json(&loss.name),
                cordoba_obs::chrome::escape_json(&loss.error)
            );
        }
        out.push(']');
        if let Some(beta) = self.beta {
            let _ = write!(
                out,
                ",\"beta\":{{\"evaluated\":{},\"pareto\":{},\"support\":{}}}",
                beta.evaluated, beta.pareto, beta.support
            );
        }
        out.push('}');
        out
    }

    /// The ledger as a human-readable table: per-task-count totals with
    /// embodied/operational split, then the per-config decomposition at the
    /// largest task count, then quarantine and β summaries.
    #[must_use]
    pub fn to_table(&self) -> String {
        use crate::report::{fmt_num, Table};
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution: {} configs x {} task counts, CI_use {} gCO2e/kWh",
            self.configs.len(),
            self.task_counts.len(),
            fmt_num(self.ci_use)
        );
        let mut totals = Table::new(vec![
            "tasks".into(),
            "tCDP".into(),
            "embodied*D".into(),
            "operational*D".into(),
            "emb share".into(),
        ]);
        for row in &self.totals {
            let split = row.embodied_delay + row.operational_delay;
            let share = if split > 0.0 {
                row.embodied_delay / split
            } else {
                0.0
            };
            totals.row(vec![
                fmt_num(row.tasks),
                fmt_num(row.tcdp),
                fmt_num(row.embodied_delay),
                fmt_num(row.operational_delay),
                format!("{:.1}%", share * 100.0),
            ]);
        }
        out.push_str(&totals.render());
        if let Some(last) = self.task_counts.len().checked_sub(1) {
            let _ = writeln!(
                out,
                "\nper-config at {} tasks:",
                fmt_num(self.task_counts[last])
            );
            let mut configs = Table::new(vec![
                "config".into(),
                "embodied".into(),
                "operational".into(),
                "delay".into(),
                "tCDP".into(),
                "emb share".into(),
            ]);
            for config in &self.configs {
                configs.row(vec![
                    config.name.to_string(),
                    fmt_num(config.embodied),
                    fmt_num(config.operational.get(last).copied().unwrap_or(0.0)),
                    fmt_num(config.delay),
                    fmt_num(config.tcdp.get(last).copied().unwrap_or(0.0)),
                    format!("{:.1}%", config.embodied_share(last) * 100.0),
                ]);
            }
            out.push_str(&configs.render());
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "\nquarantined ({}):", self.quarantined.len());
            for loss in &self.quarantined {
                let _ = writeln!(out, "  {}: {}", loss.name, loss.error);
            }
        }
        if let Some(beta) = self.beta {
            let _ = writeln!(
                out,
                "\nbeta sweep: {} evaluated, {} pareto, {} support",
                beta.evaluated, beta.pareto, beta.support
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{evaluate_space, log_sweep};
    use cordoba_accel::space::design_space;
    use cordoba_carbon::embodied::EmbodiedModel;
    use cordoba_carbon::intensity::grids;
    use cordoba_workloads::task::Task;

    fn sweep() -> OpTimeSweep {
        let points = evaluate_space(
            &design_space(),
            &Task::xr_5_kernels(),
            &EmbodiedModel::default(),
        )
        .unwrap();
        OpTimeSweep::new(points, log_sweep(4, 8, 2), grids::US_AVERAGE).unwrap()
    }

    #[test]
    fn ledger_reconciles_bit_for_bit() {
        let sweep = sweep();
        let report = AttributionReport::from_sweep(&sweep).unwrap();
        report.check_against(&sweep).unwrap();
        assert_eq!(report.configs.len(), sweep.points.len());
        assert_eq!(report.task_counts, sweep.task_counts);
        // Totals are the index-order sums of the verbatim rows and of the
        // per-config decomposition, bit for bit.
        let embodied: f64 = report.configs.iter().map(|c| c.embodied * c.delay).sum();
        for (n, totals) in report.totals.iter().enumerate() {
            let expected: f64 = sweep.row(n).iter().sum();
            assert_eq!(totals.tcdp.to_bits(), expected.to_bits());
            assert_eq!(totals.embodied_delay.to_bits(), embodied.to_bits());
            let operational: f64 = report
                .configs
                .iter()
                .map(|c| c.operational[n] * c.delay)
                .sum();
            assert_eq!(totals.operational_delay.to_bits(), operational.to_bits());
        }
    }

    #[test]
    fn check_rejects_a_tampered_ledger() {
        let sweep = sweep();
        let mut report = AttributionReport::from_sweep(&sweep).unwrap();
        report.configs[0].tcdp[0] *= 1.0 + 1e-12;
        let err = report.check_against(&sweep).unwrap_err();
        assert!(err.contains("ledger tcdp"), "{err}");
        let mut report = AttributionReport::from_sweep(&sweep).unwrap();
        report.configs[3].embodied += 1e-9;
        let err = report.check_against(&sweep).unwrap_err();
        assert!(err.contains("recompose"), "{err}");
    }

    #[test]
    fn embodied_share_moves_with_operational_time() {
        let report = AttributionReport::from_sweep(&sweep()).unwrap();
        let config = &report.configs[0];
        let first = config.embodied_share(0);
        let last = config.embodied_share(report.task_counts.len() - 1);
        assert!((0.0..=1.0).contains(&first));
        // More task executions -> more operational carbon -> smaller
        // embodied share.
        assert!(last <= first, "{last} > {first}");
    }

    #[test]
    fn json_and_table_render_the_ledger() {
        let sweep = sweep();
        let report = AttributionReport::from_sweep(&sweep)
            .unwrap()
            .with_quarantine(&[EvalFailure {
                name: "broken".into(),
                error: crate::error::CoreError::Carbon(cordoba_carbon::error::CarbonError::Empty {
                    what: "test",
                }),
            }])
            .with_beta(&BetaSweep::run(&sweep.points));
        let json = report.to_json();
        let doc = cordoba_obs::json::parse(&json).unwrap();
        assert!(doc.get("ci_use").and_then(|j| j.as_f64()).is_some());
        assert_eq!(
            doc.get("configs").and_then(|j| j.as_array()).unwrap().len(),
            report.configs.len()
        );
        assert_eq!(
            doc.get("quarantined")
                .and_then(|j| j.as_array())
                .unwrap()
                .len(),
            1
        );
        assert!(doc.get("beta").is_some());
        // JSON round-trips the verbatim bits (shortest round-trip form).
        let parsed = doc.get("configs").and_then(|j| j.as_array()).unwrap()[0]
            .get("tcdp")
            .and_then(|j| j.as_array())
            .unwrap()[0]
            .as_f64()
            .unwrap();
        assert_eq!(parsed.to_bits(), report.configs[0].tcdp[0].to_bits());
        let table = report.to_table();
        assert!(table.contains("emb share"));
        assert!(table.contains("quarantined (1)"));
        assert!(table.contains("beta sweep"));
    }
}
