//! Lagrange-multiplier elimination under unknown `CI_use(t)` (§IV-B).
//!
//! When the use-phase carbon intensity is unknown or time-varying, the tCDP
//! objective `C_emb·D + (∫CI(t)P(t)dt)·D` cannot be evaluated — but it can
//! be recast as `C_emb·D + β·E·D` for some unknown `β ≥ 0` (eq. IV.9).
//! Optimizing over all `β` yields the support set `X*`; every design
//! outside `X*` is guaranteed sub-optimal for every possible `CI_use(t)`
//! and can be eliminated.
//!
//! Because the objective is linear in β, the support set (the lower convex
//! hull of the (`C_emb·D`, `E·D`) points) also says *where* each design
//! wins: neighbouring hull vertices hand over at the β where their lines
//! cross, so [`BetaSweep::transitions`] reads every transition straight
//! off the hull, exactly and in O(|X*|).

use crate::metrics::DesignPoint;
use crate::pareto::{front_and_hull, pareto_indices_kd, Point2, PointK};
use cordoba_carbon::embodied::EmbodiedBreakdown;
use cordoba_carbon::units::CarbonIntensity;
use serde::{Deserialize, Serialize};

/// The two Fig. 12 objectives for a design point.
#[must_use]
pub fn objectives(point: &DesignPoint) -> Point2 {
    Point2::new(
        point.name.clone(),
        point.embodied_delay().value(),
        point.energy_delay().value(),
    )
}

/// Result of the β-sweep elimination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BetaSweep {
    /// Objective-space points, in candidate order.
    pub points: Vec<Point2>,
    /// Indices of candidates on the Pareto front of
    /// (`C_emb·D`, `E·D`) — the paper's "Pareto-optimal curve".
    pub pareto: Vec<usize>,
    /// Indices of candidates in the support set `X*` (lower convex hull):
    /// designs that are optimal for *some* `β ∈ [0, ∞)`.
    pub support: Vec<usize>,
}

impl BetaSweep {
    /// Runs the sweep over `candidates`: `pareto` is
    /// [`crate::pareto::pareto_indices`] and `support` is
    /// [`crate::pareto::lower_hull_indices`] of the objectives, both
    /// derived from one sort.
    #[must_use]
    pub fn run(candidates: &[DesignPoint]) -> Self {
        let points: Vec<Point2> = candidates.iter().map(objectives).collect();
        let (pareto, support) = front_and_hull(&points);
        Self {
            points,
            pareto,
            support,
        }
    }

    /// Names of the designs that survive (cannot be eliminated) under the
    /// Pareto criterion.
    #[must_use]
    pub fn surviving_names(&self) -> Vec<&str> {
        self.pareto
            .iter()
            .map(|&i| self.points[i].name.as_str())
            .collect()
    }

    /// Names of the designs eliminated under the Pareto criterion —
    /// guaranteed not tCDP-optimal for any `CI_use(t)`.
    #[must_use]
    pub fn eliminated_names(&self) -> Vec<&str> {
        let survives = survivor_mask(self.points.len(), &self.pareto);
        self.points
            .iter()
            .zip(survives)
            .filter(|&(_, survives)| !survives)
            .map(|(p, _)| p.name.as_str())
            .collect()
    }

    /// Fraction of the candidate set eliminated.
    #[must_use]
    pub fn elimination_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        1.0 - self.pareto.len() as f64 / self.points.len() as f64
    }

    /// The design index minimizing `C_emb·D + β·E·D` for a concrete β, by
    /// an O(n) scan over every candidate. Ties go to the lowest index under
    /// [`f64::total_cmp`].
    ///
    /// Returns `None` for an empty candidate set.
    #[must_use]
    pub fn optimal_for_beta(&self, beta: f64) -> Option<usize> {
        (0..self.points.len()).min_by(|&a, &b| {
            let fa = self.points[a].x + beta * self.points[a].y;
            let fb = self.points[b].x + beta * self.points[b].y;
            fa.total_cmp(&fb)
        })
    }

    /// Every β at which the tCDP argmin changes hands, ascending.
    ///
    /// Each objective `C_emb·D + β·E·D` is linear in β, so the argmin
    /// walks the support set in order: `support[0]` wins from β = 0, and
    /// consecutive vertices `a`, `b` of the lower hull swap places where
    /// their lines cross, at exactly `β = (x_b − x_a) / (y_a − y_b)`. The
    /// result has one entry per consecutive pair (`support.len() − 1` in
    /// all), in support order, which is ascending β. A caller that wants
    /// a β range filters the result.
    #[must_use]
    pub fn transitions(&self) -> Vec<BetaTransition> {
        self.support
            .windows(2)
            .map(|pair| {
                let (a, b) = (&self.points[pair[0]], &self.points[pair[1]]);
                BetaTransition {
                    beta: (b.x - a.x) / (a.y - b.y),
                    from_index: pair[0],
                    to_index: pair[1],
                }
            })
            .collect()
    }
}

/// `mask[i]` is `true` exactly when `i` is in `survivors`: one pass over
/// the survivors instead of a `contains` scan per point.
fn survivor_mask(len: usize, survivors: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; len];
    for &i in survivors {
        mask[i] = true;
    }
    mask
}

/// One change of the tCDP-optimal design along the β axis: where the
/// lines of two neighbouring support-set designs cross.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaTransition {
    /// The β at which the optimum changes hands, exact up to the one
    /// division that computes it.
    pub beta: f64,
    /// Candidate index optimal just below `beta`.
    pub from_index: usize,
    /// Candidate index optimal just above `beta`.
    pub to_index: usize,
}

/// Two-factor elimination when **both** `CI_use(t)` and `CI_fab` are
/// unknown (the extension §IV-B explicitly suggests).
///
/// Each candidate's tCDP decomposes as
/// `tCDP = materials·D + CI_fab·(fab_energy·D) + β_use·(E·D)` with two
/// unknown non-negative multipliers, so any design dominated in the
/// three-objective space (`materials·D`, `fab_energy·D`, `E·D`) can never
/// be tCDP-optimal for any grid pair and is eliminated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoFactorSweep {
    /// Objective-space points, in candidate order:
    /// `[materials·D (g·s), fab_energy·D (kWh·s), E·D (J·s)]`.
    pub points: Vec<PointK>,
    /// Indices of candidates on the 3-D Pareto front.
    pub pareto: Vec<usize>,
}

impl TwoFactorSweep {
    /// Runs the sweep over `(design, embodied breakdown)` candidates.
    ///
    /// The design points' `embodied` field is ignored; the breakdown
    /// supplies the split version.
    #[must_use]
    pub fn run(candidates: &[(DesignPoint, EmbodiedBreakdown)]) -> Self {
        let points: Vec<PointK> = candidates
            .iter()
            .map(|(p, split)| {
                let d = p.delay.value();
                PointK::new(
                    p.name.clone(),
                    vec![
                        split.materials.value() * d,
                        split.fab_energy.value() * d,
                        p.energy.value() * d,
                    ],
                )
            })
            .collect();
        let pareto = pareto_indices_kd(&points);
        Self { points, pareto }
    }

    /// Names of designs that survive for some `(CI_fab, CI_use)` pair.
    #[must_use]
    pub fn surviving_names(&self) -> Vec<&str> {
        self.pareto
            .iter()
            .map(|&i| self.points[i].name.as_str())
            .collect()
    }

    /// Names of designs eliminated for every `(CI_fab, CI_use)` pair.
    #[must_use]
    pub fn eliminated_names(&self) -> Vec<&str> {
        let survives = survivor_mask(self.points.len(), &self.pareto);
        self.points
            .iter()
            .zip(survives)
            .filter(|&(_, survives)| !survives)
            .map(|(p, _)| p.name.as_str())
            .collect()
    }

    /// Fraction of the candidate set eliminated.
    #[must_use]
    pub fn elimination_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        1.0 - self.pareto.len() as f64 / self.points.len() as f64
    }

    /// The tCDP-optimal index for concrete intensities:
    /// minimizes `materials·D + ci_fab·fab_energy·D + β_use·E·D`.
    ///
    /// Returns `None` for an empty candidate set.
    #[must_use]
    pub fn optimal_for(&self, ci_fab: CarbonIntensity, beta_use: f64) -> Option<usize> {
        (0..self.points.len()).min_by(|&a, &b| {
            let eval = |i: usize| {
                let o = &self.points[i].objectives;
                o[0] + ci_fab.value() * o[1] + beta_use * o[2]
            };
            eval(a).total_cmp(&eval(b))
        })
    }
}

/// The concrete β that a constant `CI_use` and operational task count
/// induce: with `N` tasks of energy `E` joules at `CI` gCO2e/kWh,
/// `tCDP = C_emb·D + (N · CI · E / 3.6e6) · D`, so `β = N · CI / 3.6e6`
/// in gCO2e per joule (3.6e6 J per kWh).
///
/// With this β, [`BetaSweep::optimal_for_beta`] reproduces the exact
/// tCDP argmin — the bridge between the unknown-CI analysis and a
/// committed scenario.
#[must_use]
pub fn beta_for_context(ctx: &crate::metrics::OperationalContext) -> f64 {
    ctx.tasks * ctx.ci_use.value() / cordoba_carbon::units::JOULES_PER_KILOWATT_HOUR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{argmin, MetricKind, OperationalContext};
    use cordoba_carbon::units::{GramsCo2e, Joules, Seconds, SquareCentimeters};

    fn point(name: &str, d: f64, e: f64, emb: f64) -> DesignPoint {
        DesignPoint::new(
            name,
            Seconds::new(d),
            Joules::new(e),
            GramsCo2e::new(emb),
            SquareCentimeters::new(1.0),
        )
        .unwrap()
    }

    fn candidates() -> Vec<DesignPoint> {
        vec![
            point("frugal", 2.0, 1.0, 100.0),   // low E*D, high Cemb*D? 200/2
            point("balanced", 1.0, 3.0, 150.0), // 150 / 3
            point("fast", 0.5, 10.0, 400.0),    // 200 / 5
            point("dominated", 2.0, 4.0, 300.0),
        ]
    }

    #[test]
    fn dominated_design_is_eliminated() {
        let sweep = BetaSweep::run(&candidates());
        assert!(sweep.eliminated_names().contains(&"dominated"));
        assert!(!sweep.surviving_names().contains(&"dominated"));
        assert!(sweep.elimination_fraction() > 0.0);
    }

    #[test]
    fn survivors_cover_every_tcdp_argmin() {
        // For any constant CI_use and any task count, the tCDP-optimal
        // design must be in the Pareto survivors (§IV-B's theorem).
        let cands = candidates();
        let sweep = BetaSweep::run(&cands);
        let survivors = sweep.surviving_names();
        for &tasks in &[1.0, 1e2, 1e4, 1e6, 1e8] {
            for ci in [10.0, 380.0, 820.0] {
                let ctx =
                    OperationalContext::new(tasks, cordoba_carbon::units::CarbonIntensity::new(ci))
                        .unwrap();
                let best = argmin(&cands, MetricKind::Tcdp, &ctx).unwrap();
                assert!(
                    survivors.contains(&best.name.as_str()),
                    "tCDP argmin {} (N={tasks}, CI={ci}) not in survivors {survivors:?}",
                    best.name
                );
            }
        }
    }

    #[test]
    fn beta_for_context_reproduces_tcdp_argmin() {
        let cands = candidates();
        let sweep = BetaSweep::run(&cands);
        for &tasks in &[1.0, 1e3, 1e6, 1e9] {
            let ctx = OperationalContext::us_grid(tasks);
            let beta = beta_for_context(&ctx);
            let via_beta = sweep.optimal_for_beta(beta).unwrap();
            let direct = argmin(&cands, MetricKind::Tcdp, &ctx).unwrap();
            assert_eq!(cands[via_beta].name, direct.name, "N = {tasks}");
        }
    }

    #[test]
    fn beta_zero_minimizes_embodied_delay() {
        let cands = candidates();
        let sweep = BetaSweep::run(&cands);
        let idx = sweep.optimal_for_beta(0.0).unwrap();
        let min_ed = cands
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.embodied_delay()
                    .value()
                    .total_cmp(&b.1.embodied_delay().value())
            })
            .unwrap()
            .0;
        assert_eq!(idx, min_ed);
    }

    #[test]
    fn huge_beta_minimizes_energy_delay() {
        let cands = candidates();
        let sweep = BetaSweep::run(&cands);
        let idx = sweep.optimal_for_beta(1e18).unwrap();
        let min_ed = cands
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.edp().value().total_cmp(&b.1.edp().value()))
            .unwrap()
            .0;
        assert_eq!(idx, min_ed);
    }

    #[test]
    fn transitions_hand_balanced_to_frugal_at_exactly_fifty() {
        // Lines x + βy for candidates(): "balanced" (150 + 3β) wins at
        // β = 0 and hands over to "frugal" (200 + 2β) exactly at β = 50;
        // "fast" and "dominated" never win.
        let cands = candidates();
        let sweep = BetaSweep::run(&cands);
        let transitions = sweep.transitions();
        assert_eq!(transitions.len(), 1);
        let t = transitions[0];
        assert_eq!(t.beta, 50.0);
        assert_eq!(cands[t.from_index].name, "balanced");
        assert_eq!(cands[t.to_index].name, "frugal");
        // Transition endpoints agree with direct argmin on either side.
        assert_eq!(sweep.optimal_for_beta(t.beta - 0.01), Some(t.from_index));
        assert_eq!(sweep.optimal_for_beta(t.beta + 0.01), Some(t.to_index));
    }

    #[test]
    fn a_single_design_or_none_has_no_transitions() {
        assert!(BetaSweep::run(&[]).transitions().is_empty());
        let one = BetaSweep::run(&candidates()[..1]);
        assert!(one.transitions().is_empty());
    }

    #[test]
    fn surviving_and_eliminated_names_partition_every_name_in_input_order() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for cloud in 0..40 {
            let len = 1 + next(80) as usize;
            let mut cands: Vec<DesignPoint> = Vec::with_capacity(len);
            for i in 0..len {
                // A coarse grid, plus copies of earlier points, so ties and
                // exact duplicates are common.
                let p = if i > 0 && next(4) == 0 {
                    let copy = &cands[next(i as u64) as usize];
                    point(
                        &format!("c{cloud}_{i}"),
                        copy.delay.value(),
                        copy.energy.value(),
                        copy.embodied.value(),
                    )
                } else {
                    let coarse = |v: u64| 0.5 * (1 + v) as f64;
                    point(
                        &format!("c{cloud}_{i}"),
                        coarse(next(4)),
                        coarse(next(6)),
                        10.0 * coarse(next(6)),
                    )
                };
                cands.push(p);
            }
            let sweep = BetaSweep::run(&cands);
            let surviving = sweep.surviving_names();
            let eliminated = sweep.eliminated_names();
            assert_eq!(surviving.len() + eliminated.len(), len, "cloud {cloud}");
            // Merge the two lists back by membership: input order must be
            // restored exactly.
            let (mut s, mut e) = (surviving.iter().peekable(), eliminated.iter().peekable());
            for (i, c) in cands.iter().enumerate() {
                let from = if sweep.pareto.contains(&i) {
                    s.next()
                } else {
                    e.next()
                };
                assert_eq!(
                    from.copied(),
                    Some(c.name.as_str()),
                    "cloud {cloud}, point {i}"
                );
            }
            assert!(s.peek().is_none() && e.peek().is_none(), "cloud {cloud}");
        }
    }

    #[test]
    fn support_is_subset_of_pareto() {
        let sweep = BetaSweep::run(&candidates());
        for i in &sweep.support {
            assert!(sweep.pareto.contains(i));
        }
    }

    #[test]
    fn empty_candidates() {
        let sweep = BetaSweep::run(&[]);
        assert_eq!(sweep.elimination_fraction(), 0.0);
        assert!(sweep.optimal_for_beta(1.0).is_none());
        assert!(sweep.surviving_names().is_empty());
    }

    fn two_factor_candidates() -> Vec<(DesignPoint, EmbodiedBreakdown)> {
        use cordoba_carbon::units::KilowattHours;
        let split = |fab: f64, mat: f64| EmbodiedBreakdown {
            fab_energy: KilowattHours::new(fab),
            materials: GramsCo2e::new(mat),
        };
        vec![
            // materials-lean but fab-energy heavy
            (point("euv", 1.0, 2.0, 0.0), split(5.0, 50.0)),
            // fab-energy lean but materials heavy
            (point("duv", 1.2, 2.0, 0.0), split(1.0, 200.0)),
            // energy-lean
            (point("eco", 2.0, 0.5, 0.0), split(3.0, 120.0)),
            // dominated everywhere
            (point("waste", 2.0, 3.0, 0.0), split(6.0, 400.0)),
        ]
    }

    #[test]
    fn two_factor_sweep_eliminates_dominated_designs() {
        let cands = two_factor_candidates();
        let sweep = TwoFactorSweep::run(&cands);
        assert!(sweep.eliminated_names().contains(&"waste"));
        assert!(!sweep.surviving_names().contains(&"waste"));
        assert!(sweep.elimination_fraction() > 0.0);
    }

    #[test]
    fn two_factor_survivors_cover_every_intensity_pair() {
        let cands = two_factor_candidates();
        let sweep = TwoFactorSweep::run(&cands);
        let survivors = sweep.surviving_names();
        for ci_fab in [0.0, 50.0, 400.0, 820.0, 2000.0] {
            for beta_use in [0.0, 1.0, 100.0, 1e4] {
                let idx = sweep
                    .optimal_for(CarbonIntensity::new(ci_fab), beta_use)
                    .unwrap();
                assert!(
                    survivors.contains(&sweep.points[idx].name.as_str()),
                    "winner at (ci_fab={ci_fab}, beta={beta_use}) not in survivors"
                );
            }
        }
    }

    #[test]
    fn two_factor_extremes_pick_the_expected_specialists() {
        let cands = two_factor_candidates();
        let sweep = TwoFactorSweep::run(&cands);
        // ci_fab huge, beta 0: minimize fab_energy*D -> "duv".
        let idx = sweep.optimal_for(CarbonIntensity::new(1e12), 0.0).unwrap();
        assert_eq!(sweep.points[idx].name, "duv");
        // beta huge: minimize E*D -> "eco".
        let idx = sweep.optimal_for(CarbonIntensity::new(0.0), 1e12).unwrap();
        assert_eq!(sweep.points[idx].name, "eco");
    }

    #[test]
    fn two_factor_empty() {
        let sweep = TwoFactorSweep::run(&[]);
        assert_eq!(sweep.elimination_fraction(), 0.0);
        assert!(sweep.optimal_for(CarbonIntensity::new(1.0), 1.0).is_none());
    }
}
