//! Uncertainty analyses: domain studies (Fig. 6) and robustness to
//! unknown usage and grid intensity (§VI-C).

use crate::metrics::{DesignPoint, OperationalContext};
use crate::stats::log_pearson;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::grids;
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_obs::Name;
use cordoba_par::CostHint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The computing domains of Fig. 6, distinguished by how much of their
/// total carbon is embodied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DomainClass {
    /// Microcontrollers and wearables: ~95 % embodied \[3\].
    Wearable,
    /// Mobile/laptop: ~72 % embodied \[2\].
    Mobile,
    /// Datacenter servers: ~50 % embodied \[21\].
    Datacenter,
}

impl DomainClass {
    /// All domains, embodied-dominant first.
    pub const ALL: [DomainClass; 3] = [Self::Wearable, Self::Mobile, Self::Datacenter];

    /// The domain's typical embodied share of total carbon.
    #[must_use]
    pub fn embodied_share(self) -> f64 {
        match self {
            Self::Wearable => 0.95,
            Self::Mobile => 0.72,
            Self::Datacenter => 0.50,
        }
    }

    /// A representative use-phase carbon intensity.
    #[must_use]
    pub fn ci_use(self) -> CarbonIntensity {
        grids::US_AVERAGE
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Wearable => "wearable",
            Self::Mobile => "mobile",
            Self::Datacenter => "datacenter",
        }
    }
}

/// Finds the operational context (task count) at which the *average*
/// embodied share across `points` hits `target_share`, by bisection.
///
/// # Errors
///
/// Returns an error if `points` is empty or `target_share` is outside
/// `(0, 1)`.
pub fn context_for_embodied_share(
    points: &[DesignPoint],
    ci_use: CarbonIntensity,
    target_share: f64,
) -> Result<OperationalContext, CarbonError> {
    if points.is_empty() {
        return Err(CarbonError::Empty {
            what: "design points",
        });
    }
    CarbonError::require_in_range("target share", target_share, 1e-6, 1.0 - 1e-6)?;
    let mean_share = |tasks: f64| -> f64 {
        let ctx = OperationalContext { tasks, ci_use };
        points.iter().map(|p| p.embodied_share(&ctx)).sum::<f64>() / points.len() as f64
    };
    // Share decreases monotonically with task count; bisect on the
    // geometric midpoint.
    let (mut lo, mut hi): (f64, f64) = (1e-3, 1e18);
    for _ in 0..200 {
        let mid = (lo * hi).sqrt();
        if mean_share(mid) > target_share {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    OperationalContext::new((lo * hi).sqrt(), ci_use)
}

/// The Fig. 6 per-domain analysis: EDP vs tCDP over a design space at the
/// domain's embodied:operational balance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainAnalysis {
    /// The domain.
    pub domain: DomainClass,
    /// The operational context realizing the domain's embodied share.
    pub context: OperationalContext,
    /// EDP of each design (J·s).
    pub edp: Vec<f64>,
    /// tCDP of each design (gCO2e·s).
    pub tcdp: Vec<f64>,
    /// Log-domain Pearson correlation between EDP and tCDP.
    pub correlation: f64,
    /// Largest tCDP ratio among near-EDP-equivalent design pairs (the
    /// paper's "100x difference at equal EDP" observation).
    pub iso_edp_tcdp_spread: f64,
    /// Name of the EDP-optimal design.
    pub edp_optimal: Name,
    /// Name of the tCDP-optimal design.
    pub tcdp_optimal: Name,
}

/// Runs the Fig. 6 analysis for one domain over a design space.
///
/// # Errors
///
/// Returns an error if `points` is empty.
pub fn domain_analysis(
    points: &[DesignPoint],
    domain: DomainClass,
) -> Result<DomainAnalysis, CarbonError> {
    let context = context_for_embodied_share(points, domain.ci_use(), domain.embodied_share())?;
    let edp: Vec<f64> = points.iter().map(|p| p.edp().value()).collect();
    let tcdp: Vec<f64> = points.iter().map(|p| p.tcdp(&context).value()).collect();
    let correlation = log_pearson(&edp, &tcdp).unwrap_or(0.0);

    // Iso-EDP spread: pairs within 25 % EDP of each other.
    let mut spread: f64 = 1.0;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let edp_ratio = (edp[i] / edp[j]).max(edp[j] / edp[i]);
            if edp_ratio < 1.25 {
                spread = spread.max((tcdp[i] / tcdp[j]).max(tcdp[j] / tcdp[i]));
            }
        }
    }

    let argmin = |vs: &[f64]| {
        vs.iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("points non-empty") // cordoba-lint: allow(no-panic) — caller validates the point list above
            .0
    };
    Ok(DomainAnalysis {
        domain,
        context,
        edp_optimal: points[argmin(&edp)].name.clone(),
        tcdp_optimal: points[argmin(&tcdp)].name.clone(),
        edp,
        tcdp,
        correlation,
        iso_edp_tcdp_spread: spread,
    })
}

/// Evaluates a design's tCDP under a *time-varying* intensity source by
/// replacing `CI_use` with the source's exact lifetime mean (valid for
/// constant power, eq. IV.7).
///
/// The mean comes from the closed-form integration kernel
/// ([`CiIntegral::mean_exact`]), so this is O(1) for the analytic sources
/// and O(log n) for traces. Pass a [`cordoba_carbon::integral::Midpoint`]
/// source for the sampled reference.
#[must_use]
pub fn tcdp_under_source(
    point: &DesignPoint,
    source: &dyn CiIntegral,
    tasks: f64,
    lifetime: Seconds,
) -> f64 {
    let mean_ci = source.mean_exact(Seconds::ZERO, lifetime);
    let ctx = OperationalContext {
        tasks,
        ci_use: mean_ci,
    };
    point.tcdp(&ctx).value()
}

/// Worst-case regret of each design across a set of intensity scenarios:
/// `max_s tCDP(design, s) / tCDP(optimal(s), s)`.
///
/// The design minimizing this is the robust choice when the grid's future
/// is unknown (§IV-B / §VI-C).
///
/// # Errors
///
/// Returns an error if `points` or `scenarios` is empty.
pub fn scenario_regret(
    points: &[DesignPoint],
    scenarios: &[&dyn CiIntegral],
    tasks: f64,
    lifetime: Seconds,
) -> Result<Vec<f64>, CarbonError> {
    if points.is_empty() {
        return Err(CarbonError::Empty {
            what: "design points",
        });
    }
    if scenarios.is_empty() {
        return Err(CarbonError::Empty { what: "scenarios" });
    }
    let mut regret = vec![1.0f64; points.len()];
    for &s in scenarios {
        let tcdps: Vec<f64> = points
            .iter()
            .map(|p| tcdp_under_source(p, s, tasks, lifetime))
            .collect();
        let best = tcdps.iter().cloned().fold(f64::INFINITY, f64::min);
        for (r, t) in regret.iter_mut().zip(&tcdps) {
            *r = r.max(t / best);
        }
    }
    Ok(regret)
}

/// Samples per Monte Carlo RNG block: each block of this many scenarios
/// gets its own seeded generator, so block `b` draws the same scenarios no
/// matter which worker thread evaluates it.
const MC_BLOCK: usize = 64;

// Per-draw cost estimates behind each Monte Carlo run's `CostHint` (one
// block is `MC_BLOCK` draws). They steer only how many workers a run uses,
// never its bits. Measured on a shared 2-vCPU x86-64 host:

/// A constant-CI tCDP draw: one `10f64.powf` (15.5 ns) plus one tCDP
/// evaluation (6.2 ns), from the scratch microbenchmark ROADMAP.md records
/// for prepared intensity sources.
const MC_TCDP_NS_PER_DRAW: u64 = 22;
/// An exact-integral source draw: `core.uncertainty.source` in perfbench's
/// `uncertainty` workload, 19.3 ms over 150,000 draws.
const MC_SOURCE_NS_PER_DRAW: u64 = 129;
/// One design in one regret draw: `core.uncertainty.regret` in perfbench's
/// `uncertainty` workload, 4.4 ms over 12,000 draws of 121 designs.
const MC_REGRET_NS_PER_DRAW_AND_POINT: u64 = 3;

/// The generator and length of RNG block `block` of a `samples`-long
/// stream seeded with `seed` (the last block may be short). The generator
/// is a pure function of `(seed, block)`, which is what makes both Monte
/// Carlo specs thread-agnostic.
fn block_stream(seed: u64, samples: usize, block: u64) -> (StdRng, usize) {
    let rng = StdRng::seed_from_u64(
        seed ^ block
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491_4f6c_dd1d),
    );
    (rng, MC_BLOCK.min(samples - block as usize * MC_BLOCK))
}

/// A reproducible Monte Carlo experiment over unknown `(N, CI_use)`
/// scenarios (§VI-C's uncertainty, sampled instead of enumerated).
///
/// Task counts are drawn log-uniformly from
/// `10^tasks_log10_lo ..= 10^tasks_log10_hi`; the use-phase carbon
/// intensity uniformly from `ci_lo ..= ci_hi`. The draw stream is fully
/// determined by `seed`: scenario `i` always comes from RNG block
/// `i / MC_BLOCK`, regardless of how many threads evaluate the blocks, so
/// results are bit-identical across thread counts and runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloSpec {
    /// Number of sampled scenarios.
    pub samples: usize,
    /// RNG seed determining the whole scenario stream.
    pub seed: u64,
    /// Lower bound of the sampled use-phase intensity.
    pub ci_lo: CarbonIntensity,
    /// Upper bound of the sampled use-phase intensity.
    pub ci_hi: CarbonIntensity,
    /// `log10` of the smallest sampled task count.
    pub tasks_log10_lo: f64,
    /// `log10` of the largest sampled task count.
    pub tasks_log10_hi: f64,
}

impl MonteCarloSpec {
    /// A spec spanning the solar-to-coal intensity range and `1e3..=1e9`
    /// tasks — the paper's full uncertainty envelope.
    #[must_use]
    pub fn new(samples: usize, seed: u64) -> Self {
        Self {
            samples,
            seed,
            ci_lo: grids::SOLAR,
            ci_hi: grids::COAL,
            tasks_log10_lo: 3.0,
            tasks_log10_hi: 9.0,
        }
    }

    fn validate(&self) -> Result<(), CarbonError> {
        if self.samples == 0 {
            return Err(CarbonError::Empty {
                what: "monte carlo samples",
            });
        }
        CarbonError::require_in_range("ci_lo", self.ci_lo.value(), 0.0, f64::MAX)?;
        CarbonError::require_in_range("ci_hi", self.ci_hi.value(), self.ci_lo.value(), f64::MAX)?;
        CarbonError::require_finite("tasks_log10_lo", self.tasks_log10_lo)?;
        CarbonError::require_in_range(
            "tasks_log10_hi",
            self.tasks_log10_hi,
            self.tasks_log10_lo,
            308.0,
        )?;
        Ok(())
    }

    /// The scenarios of block `block`.
    fn block_scenarios(&self, block: u64) -> Vec<OperationalContext> {
        let (mut rng, len) = block_stream(self.seed, self.samples, block);
        (0..len)
            .map(|_| {
                let u: f64 = rng.gen();
                let v: f64 = rng.gen();
                let ci = self.ci_lo.value() + (self.ci_hi.value() - self.ci_lo.value()) * u;
                let log10_tasks =
                    self.tasks_log10_lo + (self.tasks_log10_hi - self.tasks_log10_lo) * v;
                OperationalContext {
                    tasks: 10f64.powf(log10_tasks),
                    ci_use: CarbonIntensity::new(ci),
                }
            })
            .collect()
    }
}

/// Summary statistics of a sampled tCDP distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloSummary {
    /// Number of scenarios sampled.
    pub samples: usize,
    /// Mean tCDP across scenarios (gCO2e·s).
    pub mean: f64,
    /// Population standard deviation of the sampled tCDPs.
    pub std_dev: f64,
    /// Smallest sampled tCDP.
    pub min: f64,
    /// Largest sampled tCDP.
    pub max: f64,
}

/// One block's partial moments `[sum, sum of squares, min, max]`.
fn moments(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for value in values {
        sum += value;
        sum_sq += value * value;
        min = min.min(value);
        max = max.max(value);
    }
    vec![sum, sum_sq, min, max]
}

/// Runs `block` once per RNG block of a `samples`-long experiment under
/// one [`cordoba_par::map`] at [`cordoba_par::effective_threads`], inside the
/// experiment's `span`, and returns the per-block partials in block order.
/// `ns_per_draw` sizes the map's [`CostHint`] (one block is `MC_BLOCK`
/// draws).
///
/// # Panics
///
/// Re-raises the first (in block order) panicking block on the caller.
fn block_partials(
    span: &'static str,
    samples: usize,
    ns_per_draw: u64,
    block: impl Fn(u64) -> Vec<f64> + Sync,
) -> Vec<Vec<f64>> {
    let _span = cordoba_obs::span_with(span, "samples", u64::try_from(samples).unwrap_or(u64::MAX));
    cordoba_par::map(
        samples.div_ceil(MC_BLOCK),
        cordoba_par::effective_threads(),
        CostHint::per_item_ns(ns_per_draw.saturating_mul(MC_BLOCK as u64)),
        |b| block(b as u64),
    )
}

/// Folds per-block [`moments`] sequentially in block order, so the final
/// statistics are bit-identical at every thread count.
fn fold_summary(partials: &[Vec<f64>], samples: usize) -> MonteCarloSummary {
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in partials {
        sum += p[0];
        sum_sq += p[1];
        min = min.min(p[2]);
        max = max.max(p[3]);
    }
    let n = samples as f64;
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    MonteCarloSummary {
        samples,
        mean,
        std_dev: variance.sqrt(),
        min,
        max,
    }
}

/// Folds per-block regret sums in block order into per-design means.
fn fold_regret(partials: &[Vec<f64>], samples: usize) -> Vec<f64> {
    let mut totals = vec![0.0f64; partials.first().map_or(0, Vec::len)];
    for sums in partials {
        for (total, sum) in totals.iter_mut().zip(sums) {
            *total += sum;
        }
    }
    let n = samples as f64;
    totals.iter_mut().for_each(|t| *t /= n);
    totals
}

/// Samples the tCDP distribution of one design across the spec's scenario
/// envelope.
///
/// # Errors
///
/// Returns an error for a zero-sample spec or invalid scenario bounds.
///
/// # Panics
///
/// Re-raises a panic from a block evaluation on the caller.
pub fn monte_carlo_tcdp(
    point: &DesignPoint,
    spec: &MonteCarloSpec,
) -> Result<MonteCarloSummary, CarbonError> {
    spec.validate()?;
    let partials = block_partials(
        "core/monte_carlo_tcdp",
        spec.samples,
        MC_TCDP_NS_PER_DRAW,
        |block| {
            moments(
                spec.block_scenarios(block)
                    .iter()
                    .map(|ctx| point.tcdp(ctx).value()),
            )
        },
    );
    Ok(fold_summary(&partials, spec.samples))
}

/// A reproducible Monte Carlo experiment over *time-varying* intensity
/// sources and unknown `(N, lifetime)` — the source-level analogue of
/// [`MonteCarloSpec`], which samples a constant `CI_use` instead.
///
/// Each scenario draws a source uniformly from the provided set, a task
/// count log-uniformly from `10^tasks_log10_lo ..= 10^tasks_log10_hi`, and
/// a lifetime uniformly from `lifetime_lo ..= lifetime_hi`; the design's
/// tCDP is then evaluated under that source's lifetime-mean intensity via
/// the exact integration kernel. The draw stream is fully determined by
/// `seed` and blocked like [`MonteCarloSpec`], so results are bit-identical
/// across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceMonteCarloSpec {
    /// Number of sampled scenarios.
    pub samples: usize,
    /// RNG seed determining the whole scenario stream.
    pub seed: u64,
    /// `log10` of the smallest sampled task count.
    pub tasks_log10_lo: f64,
    /// `log10` of the largest sampled task count.
    pub tasks_log10_hi: f64,
    /// Shortest sampled deployment lifetime.
    pub lifetime_lo: Seconds,
    /// Longest sampled deployment lifetime.
    pub lifetime_hi: Seconds,
}

impl SourceMonteCarloSpec {
    /// A spec spanning `1e3..=1e9` tasks and 1-to-8-year deployments.
    #[must_use]
    pub fn new(samples: usize, seed: u64) -> Self {
        Self {
            samples,
            seed,
            tasks_log10_lo: 3.0,
            tasks_log10_hi: 9.0,
            lifetime_lo: Seconds::from_years(1.0),
            lifetime_hi: Seconds::from_years(8.0),
        }
    }

    fn validate(&self, n_sources: usize) -> Result<(), CarbonError> {
        if self.samples == 0 {
            return Err(CarbonError::Empty {
                what: "monte carlo samples",
            });
        }
        if n_sources == 0 {
            return Err(CarbonError::Empty {
                what: "intensity sources",
            });
        }
        CarbonError::require_finite("tasks_log10_lo", self.tasks_log10_lo)?;
        CarbonError::require_in_range(
            "tasks_log10_hi",
            self.tasks_log10_hi,
            self.tasks_log10_lo,
            308.0,
        )?;
        CarbonError::require_positive("lifetime_lo", self.lifetime_lo.value())?;
        CarbonError::require_in_range(
            "lifetime_hi",
            self.lifetime_hi.value(),
            self.lifetime_lo.value(),
            f64::MAX,
        )?;
        Ok(())
    }

    /// The `(source index, tasks, lifetime)` draws of block `block`.
    fn block_draws(&self, block: u64, n_sources: usize) -> Vec<(usize, f64, Seconds)> {
        let (mut rng, len) = block_stream(self.seed, self.samples, block);
        (0..len)
            .map(|_| {
                let u: f64 = rng.gen();
                let v: f64 = rng.gen();
                let w: f64 = rng.gen();
                let idx = ((u * n_sources as f64) as usize).min(n_sources - 1);
                let log10_tasks =
                    self.tasks_log10_lo + (self.tasks_log10_hi - self.tasks_log10_lo) * v;
                let life = self.lifetime_lo.value()
                    + (self.lifetime_hi.value() - self.lifetime_lo.value()) * w;
                (idx, 10f64.powf(log10_tasks), Seconds::new(life))
            })
            .collect()
    }
}

/// Samples the tCDP distribution of one design across time-varying
/// intensity sources, each draw's lifetime mean from the source's
/// [`CiIntegral::mean_exact`] (the exact kernel, or a midpoint sum for a
/// [`cordoba_carbon::integral::Midpoint`] source).
///
/// # Errors
///
/// Returns an error for a zero-sample spec, an empty source set, or
/// invalid scenario bounds.
///
/// # Panics
///
/// Re-raises a panic from a block evaluation on the caller.
pub fn monte_carlo_source_tcdp(
    point: &DesignPoint,
    sources: &[&dyn CiIntegral],
    spec: &SourceMonteCarloSpec,
) -> Result<MonteCarloSummary, CarbonError> {
    spec.validate(sources.len())?;
    let partials = block_partials(
        "core/monte_carlo_source_tcdp",
        spec.samples,
        MC_SOURCE_NS_PER_DRAW,
        |block| {
            moments(
                spec.block_draws(block, sources.len())
                    .into_iter()
                    .map(|(idx, tasks, life)| tcdp_under_source(point, sources[idx], tasks, life)),
            )
        },
    );
    Ok(fold_summary(&partials, spec.samples))
}

/// Mean tCDP regret of each design across sampled scenarios:
/// `E_s[tCDP(design, s) / min_d tCDP(d, s)]`.
///
/// The sampled analogue of [`scenario_regret`]: instead of a handful of
/// hand-picked intensity trajectories, the whole `(N, CI_use)` envelope is
/// sampled. A mean regret of 1.0 means the design is optimal in every
/// sampled scenario.
///
/// # Errors
///
/// Returns an error for an empty point list, a zero-sample spec, or
/// invalid scenario bounds.
///
/// # Panics
///
/// Re-raises a panic from a block evaluation on the caller.
pub fn monte_carlo_regret(
    points: &[DesignPoint],
    spec: &MonteCarloSpec,
) -> Result<Vec<f64>, CarbonError> {
    if points.is_empty() {
        return Err(CarbonError::Empty {
            what: "design points",
        });
    }
    spec.validate()?;
    let partials = block_partials(
        "core/monte_carlo_regret",
        spec.samples,
        MC_REGRET_NS_PER_DRAW_AND_POINT.saturating_mul(points.len() as u64),
        |block| {
            let mut regret_sums = vec![0.0f64; points.len()];
            let mut tcdps = Vec::with_capacity(points.len());
            for ctx in spec.block_scenarios(block) {
                tcdps.clear();
                tcdps.extend(points.iter().map(|p| p.tcdp(&ctx).value()));
                let best = tcdps.iter().copied().fold(f64::INFINITY, f64::min);
                for (sum, tcdp) in regret_sums.iter_mut().zip(&tcdps) {
                    *sum += tcdp / best;
                }
            }
            regret_sums
        },
    );
    Ok(fold_regret(&partials, spec.samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::at_threads;
    use cordoba_carbon::integral::Midpoint;
    use cordoba_carbon::intensity::{ConstantCi, TrendCi};
    use cordoba_carbon::units::{GramsCo2e, Joules, SquareCentimeters, JOULES_PER_KILOWATT_HOUR};

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

    fn space() -> Vec<DesignPoint> {
        vec![
            point("tiny", 4.0, 0.5, 20.0),
            point("small", 2.0, 1.0, 60.0),
            point("mid", 1.0, 2.5, 200.0),
            point("big", 0.5, 3.0, 800.0),
            point("huge", 0.4, 20.0, 4000.0),
        ]
    }

    #[test]
    fn bisection_hits_target_share() {
        let pts = space();
        for share in [0.95, 0.72, 0.50, 0.10] {
            let ctx = context_for_embodied_share(&pts, grids::US_AVERAGE, share).unwrap();
            let mean: f64 =
                pts.iter().map(|p| p.embodied_share(&ctx)).sum::<f64>() / pts.len() as f64;
            assert!((mean - share).abs() < 0.01, "share {share} got {mean}");
        }
    }

    #[test]
    fn bisection_validation() {
        assert!(context_for_embodied_share(&[], grids::US_AVERAGE, 0.5).is_err());
        assert!(context_for_embodied_share(&space(), grids::US_AVERAGE, 0.0).is_err());
        assert!(context_for_embodied_share(&space(), grids::US_AVERAGE, 1.0).is_err());
    }

    #[test]
    fn correlation_strengthens_toward_operational_dominance() {
        // Fig. 6: wearables show the weakest EDP-tCDP correlation,
        // datacenters the strongest.
        let pts = space();
        let wearable = domain_analysis(&pts, DomainClass::Wearable).unwrap();
        let datacenter = domain_analysis(&pts, DomainClass::Datacenter).unwrap();
        assert!(
            datacenter.correlation > wearable.correlation,
            "dc {} vs wearable {}",
            datacenter.correlation,
            wearable.correlation
        );
    }

    #[test]
    fn edp_and_tcdp_optima_diverge_when_embodied_dominates() {
        let pts = space();
        let wearable = domain_analysis(&pts, DomainClass::Wearable).unwrap();
        assert_ne!(wearable.edp_optimal, wearable.tcdp_optimal);
        assert!(wearable.iso_edp_tcdp_spread >= 1.0);
    }

    #[test]
    fn domain_metadata() {
        assert_eq!(DomainClass::ALL.len(), 3);
        assert!(DomainClass::Wearable.embodied_share() > DomainClass::Mobile.embodied_share());
        assert!(DomainClass::Mobile.embodied_share() > DomainClass::Datacenter.embodied_share());
        assert_eq!(DomainClass::Wearable.label(), "wearable");
    }

    #[test]
    fn tcdp_under_constant_source_matches_direct() {
        let p = point("x", 1.0, JOULES_PER_KILOWATT_HOUR, 500.0);
        let constant = ConstantCi::new(grids::US_AVERAGE);
        let via_source = tcdp_under_source(&p, &constant, 100.0, Seconds::from_years(3.0));
        let direct = p.tcdp(&OperationalContext::us_grid(100.0)).value();
        // The exact kernel recovers the constant bit-for-bit.
        assert!((via_source - direct).abs() / direct < f64::EPSILON);
        // ... and so does the sampled spec, for a constant source.
        let sampled = tcdp_under_source(
            &p,
            &Midpoint::new(&constant, 7),
            100.0,
            Seconds::from_years(3.0),
        );
        assert!((sampled - direct).abs() / direct < f64::EPSILON);
    }

    #[test]
    fn sampled_tcdp_converges_to_the_exact_kernel() {
        let p = point("x", 1.0, JOULES_PER_KILOWATT_HOUR, 500.0);
        let trend = TrendCi::new(grids::US_AVERAGE, 0.08).unwrap();
        let life = Seconds::from_years(5.0);
        let exact = tcdp_under_source(&p, &trend, 100.0, life);
        let mut prev = f64::INFINITY;
        for samples in [10, 100, 1_000, 10_000] {
            let sampled = Midpoint::new(&trend, samples);
            let err = (tcdp_under_source(&p, &sampled, 100.0, life) - exact).abs() / exact;
            assert!(err < prev * 1.5, "error should shrink: {err} vs {prev}");
            prev = err;
        }
        assert!(prev < 1e-6, "10k samples should be within 1e-6: {prev}");
    }

    #[test]
    fn decarbonizing_grid_lowers_tcdp() {
        let p = point("x", 1.0, JOULES_PER_KILOWATT_HOUR, 500.0);
        let flat = ConstantCi::new(grids::US_AVERAGE);
        let trend = TrendCi::new(grids::US_AVERAGE, 0.10).unwrap();
        let life = Seconds::from_years(5.0);
        assert!(
            tcdp_under_source(&p, &trend, 100.0, life) < tcdp_under_source(&p, &flat, 100.0, life)
        );
    }

    #[test]
    fn monte_carlo_is_bit_identical_across_thread_counts() {
        let p = point("x", 1.0, 2.0, 500.0);
        // 1,300 samples span 21 RNG blocks, past the parallel cutoff, so
        // multi-thread runs really do split the work.
        let spec = MonteCarloSpec::new(1_300, 42);
        let base = at_threads(1, || monte_carlo_tcdp(&p, &spec).unwrap());
        for threads in [2, 4, 16] {
            let par = at_threads(threads, || monte_carlo_tcdp(&p, &spec).unwrap());
            assert_eq!(base, par, "threads = {threads}");
        }
        assert_eq!(base.samples, 1_300);
        assert!(base.min > 0.0);
        assert!(base.min <= base.mean && base.mean <= base.max);
        assert!(base.std_dev > 0.0);
    }

    #[test]
    fn monte_carlo_seed_controls_the_stream() {
        let p = point("x", 1.0, 2.0, 500.0);
        let a = monte_carlo_tcdp(&p, &MonteCarloSpec::new(100, 1)).unwrap();
        let b = monte_carlo_tcdp(&p, &MonteCarloSpec::new(100, 1)).unwrap();
        let c = monte_carlo_tcdp(&p, &MonteCarloSpec::new(100, 2)).unwrap();
        assert_eq!(a, b);
        assert!(
            (a.mean - c.mean).abs() > 0.0,
            "different seeds should differ"
        );
    }

    #[test]
    fn monte_carlo_regret_finds_the_all_around_design() {
        let pts = space();
        let spec = MonteCarloSpec::new(512, 7);
        let regret = monte_carlo_regret(&pts, &spec).unwrap();
        assert_eq!(regret.len(), pts.len());
        // Mean regret is at least 1 by construction.
        assert!(regret.iter().all(|&r| r >= 1.0 - 1e-12));
        // The sampled envelope spans embodied- and operational-dominated
        // scenarios, so the extreme specialists ("huge") fare worse than
        // the best all-rounder.
        let best = regret.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(regret[4] > best, "huge should not be the robust choice");
        // And parallel evaluation changes nothing.
        let seq = at_threads(1, || monte_carlo_regret(&pts, &spec).unwrap());
        assert_eq!(regret, seq);
    }

    #[test]
    fn monte_carlo_validation() {
        let p = point("x", 1.0, 2.0, 500.0);
        assert!(monte_carlo_tcdp(&p, &MonteCarloSpec::new(0, 1)).is_err());
        let mut bad = MonteCarloSpec::new(10, 1);
        std::mem::swap(&mut bad.ci_lo, &mut bad.ci_hi);
        assert!(monte_carlo_tcdp(&p, &bad).is_err());
        let mut bad = MonteCarloSpec::new(10, 1);
        bad.tasks_log10_hi = bad.tasks_log10_lo - 1.0;
        assert!(monte_carlo_tcdp(&p, &bad).is_err());
        assert!(monte_carlo_regret(&[], &MonteCarloSpec::new(10, 1)).is_err());
    }

    #[test]
    fn regret_identifies_robust_design() {
        let pts = space();
        let clean = ConstantCi::new(grids::SOLAR);
        let dirty = ConstantCi::new(grids::COAL);
        let scenarios: Vec<&dyn CiIntegral> = vec![&clean, &dirty];
        let regret = scenario_regret(&pts, &scenarios, 1e4, Seconds::from_years(3.0)).unwrap();
        assert_eq!(regret.len(), pts.len());
        // Every regret >= 1; at least one design is not universally optimal.
        assert!(regret.iter().all(|&r| r >= 1.0 - 1e-12));
        let min = regret.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = regret.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min);
        // Empty inputs are errors.
        assert!(scenario_regret(&[], &scenarios, 1.0, Seconds::new(1.0)).is_err());
        assert!(scenario_regret(&pts, &[], 1.0, Seconds::new(1.0)).is_err());
    }

    fn source_set() -> (ConstantCi, TrendCi) {
        (
            ConstantCi::new(grids::COAL),
            TrendCi::new(grids::US_AVERAGE, 0.10).unwrap(),
        )
    }

    #[test]
    fn source_monte_carlo_is_bit_identical_across_thread_counts() {
        let p = point("x", 1.0, 2.0, 500.0);
        let (coal, trend) = source_set();
        let sources: [&dyn CiIntegral; 2] = [&coal, &trend];
        // 1,300 samples span 21 RNG blocks.
        let spec = SourceMonteCarloSpec::new(1_300, 42);
        let run = || monte_carlo_source_tcdp(&p, &sources, &spec).unwrap();
        let base = at_threads(1, run);
        for threads in [2, 4, 16] {
            assert_eq!(base, at_threads(threads, run), "threads = {threads}");
        }
        assert_eq!(base.samples, 1_300);
        assert!(base.min > 0.0);
        assert!(base.min <= base.mean && base.mean <= base.max);
        assert!(base.std_dev > 0.0);
    }

    #[test]
    fn source_monte_carlo_seed_controls_the_stream() {
        let p = point("x", 1.0, 2.0, 500.0);
        let (coal, trend) = source_set();
        let sources: [&dyn CiIntegral; 2] = [&coal, &trend];
        let a = monte_carlo_source_tcdp(&p, &sources, &SourceMonteCarloSpec::new(100, 1)).unwrap();
        let b = monte_carlo_source_tcdp(&p, &sources, &SourceMonteCarloSpec::new(100, 1)).unwrap();
        let c = monte_carlo_source_tcdp(&p, &sources, &SourceMonteCarloSpec::new(100, 2)).unwrap();
        assert_eq!(a, b);
        assert!(
            (a.mean - c.mean).abs() > 0.0,
            "different seeds should differ"
        );
    }

    #[test]
    fn sampled_source_monte_carlo_approaches_the_exact_one() {
        let p = point("x", 1.0, 2.0, 500.0);
        let (coal, trend) = source_set();
        let sources: [&dyn CiIntegral; 2] = [&coal, &trend];
        let spec = SourceMonteCarloSpec::new(128, 9);
        let exact = monte_carlo_source_tcdp(&p, &sources, &spec).unwrap();
        // Same draw stream, so the only difference is integration error.
        let (coarse_coal, coarse_trend) = (Midpoint::new(&coal, 16), Midpoint::new(&trend, 16));
        let coarse_sources: [&dyn CiIntegral; 2] = [&coarse_coal, &coarse_trend];
        let coarse = monte_carlo_source_tcdp(&p, &coarse_sources, &spec).unwrap();
        let (fine_coal, fine_trend) = (Midpoint::new(&coal, 4_096), Midpoint::new(&trend, 4_096));
        let fine_sources: [&dyn CiIntegral; 2] = [&fine_coal, &fine_trend];
        let fine = monte_carlo_source_tcdp(&p, &fine_sources, &spec).unwrap();
        let coarse_err = (coarse.mean - exact.mean).abs() / exact.mean;
        let fine_err = (fine.mean - exact.mean).abs() / exact.mean;
        assert!(fine_err <= coarse_err);
        assert!(fine_err < 1e-6, "4096-sample mean off by {fine_err}");
    }

    #[test]
    fn source_monte_carlo_validation() {
        let p = point("x", 1.0, 2.0, 500.0);
        let (coal, _) = source_set();
        let sources: [&dyn CiIntegral; 1] = [&coal];
        assert!(monte_carlo_source_tcdp(&p, &sources, &SourceMonteCarloSpec::new(0, 1)).is_err());
        assert!(monte_carlo_source_tcdp(&p, &[], &SourceMonteCarloSpec::new(10, 1)).is_err());
        let mut bad = SourceMonteCarloSpec::new(10, 1);
        std::mem::swap(&mut bad.lifetime_lo, &mut bad.lifetime_hi);
        assert!(monte_carlo_source_tcdp(&p, &sources, &bad).is_err());
        let mut bad = SourceMonteCarloSpec::new(10, 1);
        bad.tasks_log10_hi = bad.tasks_log10_lo - 1.0;
        assert!(monte_carlo_source_tcdp(&p, &sources, &bad).is_err());
        assert!(std::panic::catch_unwind(|| Midpoint::new(&coal, 0)).is_err());
    }

    /// A source whose every lookup panics, standing in for a faulty
    /// integration kernel.
    #[derive(Debug)]
    struct PanickingSource;

    impl CiIntegral for PanickingSource {
        fn at(&self, _t: Seconds) -> CarbonIntensity {
            panic!("poisoned source");
        }

        fn integral_over(
            &self,
            _t0: Seconds,
            _t1: Seconds,
        ) -> cordoba_carbon::units::CarbonIntensitySeconds {
            panic!("poisoned source");
        }
    }

    /// A panicking block re-raises on the caller, whether the source is
    /// integrated exactly or through its midpoint reference.
    #[test]
    fn panicking_block_reaches_the_caller_of_either_form() {
        let p = point("x", 1.0, 2.0, 500.0);
        let poisoned = PanickingSource;
        let sampled = Midpoint::new(&poisoned, 8);
        // One block, so each form reports one panic.
        let spec = SourceMonteCarloSpec::new(64, 7);
        for source in [&poisoned as &dyn CiIntegral, &sampled] {
            let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                monte_carlo_source_tcdp(&p, &[source], &spec)
            }));
            let payload = raised.expect_err("a panicking block must panic the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("poisoned source")
            );
        }
    }
}
