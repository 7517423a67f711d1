//! Uncertainty analyses: domain studies (Fig. 6) and robustness to
//! unknown usage and grid intensity (§VI-C).

use crate::error::CoreError;
use crate::metrics::{DesignPoint, OperationalContext};
use crate::stats::log_pearson;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{grids, CiSource};
use cordoba_carbon::units::{CarbonIntensity, Seconds};
use cordoba_carbon::CarbonError;
use cordoba_obs::Name;
use cordoba_par::supervise::{Outcome, StopReason, SupervisedMap, Supervisor};
use cordoba_par::CostHint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

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
/// and O(log n) for traces — [`tcdp_under_source_sampled`] is the sampled
/// executable spec it replaced.
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

/// The sampled predecessor of [`tcdp_under_source`]: estimates the lifetime
/// mean intensity by midpoint sampling with `samples` lookups.
///
/// Kept as an executable specification — property tests assert it converges
/// to the exact kernel as `samples → ∞` and matches it exactly for constant
/// sources.
///
/// # Panics
///
/// Panics if `samples == 0` (see [`CiSource::mean_over`]).
#[must_use]
pub fn tcdp_under_source_sampled(
    point: &DesignPoint,
    source: &dyn CiSource,
    tasks: f64,
    lifetime: Seconds,
    samples: usize,
) -> f64 {
    let mean_ci = source.mean_over(lifetime, samples);
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
/// One midpoint lookup of the sampled source spec: bench_smoke's
/// `uncertainty/source_mc_256/sampled_10000/threads=1`, 42.8 ms over 256
/// draws of 10,000 lookups each.
const MC_LOOKUP_NS: u64 = 17;
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

/// The per-block partials of a Monte Carlo run, in block order.
type Partials<'p> = &'p mut dyn Iterator<Item = &'p Vec<f64>>;

/// Folds per-block [`moments`] sequentially in block order, so the final
/// statistics are bit-identical at every thread count.
fn fold_summary(partials: Partials<'_>, samples: usize) -> MonteCarloSummary {
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
fn fold_regret(partials: Partials<'_>, samples: usize) -> Vec<f64> {
    let mut partials = partials.peekable();
    let mut totals = vec![0.0f64; partials.peek().map_or(0, |sums| sums.len())];
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
    Ok(McRun::tcdp(point, spec)?.finish())
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
/// intensity sources, using the exact integration kernel for every draw's
/// lifetime mean.
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
    Ok(McRun::source(point, sources, spec)?.finish())
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
    Ok(McRun::regret(points, spec)?.finish())
}

/// A Monte Carlo experiment in flight: per-RNG-block partials keyed by
/// block index, computed under a [`Supervisor`] by [`McRun::advance`],
/// which both starts and resumes the run. `O` is the folded result:
/// [`MonteCarloSummary`] for the tCDP experiments, per-design mean regrets
/// for [`McRun::regret`].
///
/// Blocks are the experiment's unit of supervision *and* of determinism
/// (each block's scenarios are a pure function of `(seed, block)`), so a
/// run interrupted at any block boundary and advanced again — even at a
/// different thread count — folds to the same bits as an uninterrupted
/// run. The run borrows its inputs at construction, so an advance cannot
/// mix blocks of different designs, sources, specs, or experiments.
///
/// The plain functions ([`monte_carlo_tcdp`], [`monte_carlo_source_tcdp`],
/// [`monte_carlo_regret`]) are this run advanced once under a supervisor
/// that never trips.
pub struct McRun<'a, O> {
    span: &'static str,
    samples: usize,
    hint: CostHint,
    block: Box<dyn Fn(u64) -> Vec<f64> + Sync + 'a>,
    fold: fn(Partials<'_>, usize) -> O,
    partials: SupervisedMap<Vec<f64>>,
}

impl<O> fmt::Debug for McRun<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McRun")
            .field("span", &self.span)
            .field("samples", &self.samples)
            .field("completed_blocks", &self.completed_blocks())
            .field("total_blocks", &self.total_blocks())
            .field("stop", &self.stop())
            .finish_non_exhaustive()
    }
}

impl<'a> McRun<'a, MonteCarloSummary> {
    /// The tCDP distribution of `point` across the spec's constant-CI
    /// scenarios.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-sample spec or invalid scenario bounds.
    pub fn tcdp(point: &'a DesignPoint, spec: &MonteCarloSpec) -> Result<Self, CarbonError> {
        spec.validate()?;
        let spec = *spec;
        Ok(Self::new(
            "core/monte_carlo_tcdp",
            spec.samples,
            MC_TCDP_NS_PER_DRAW,
            fold_summary,
            move |block| {
                moments(
                    spec.block_scenarios(block)
                        .iter()
                        .map(|ctx| point.tcdp(ctx).value()),
                )
            },
        ))
    }

    /// The tCDP distribution of `point` across time-varying `sources`,
    /// each draw's lifetime mean from the exact integration kernel.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-sample spec, an empty source set, or
    /// invalid scenario bounds.
    pub fn source(
        point: &'a DesignPoint,
        sources: &'a [&'a dyn CiIntegral],
        spec: &SourceMonteCarloSpec,
    ) -> Result<Self, CarbonError> {
        spec.validate(sources.len())?;
        let spec = *spec;
        Ok(Self::new(
            "core/monte_carlo_source_tcdp",
            spec.samples,
            MC_SOURCE_NS_PER_DRAW,
            fold_summary,
            move |block| {
                moments(
                    spec.block_draws(block, sources.len())
                        .into_iter()
                        .map(|(idx, tasks, life)| {
                            tcdp_under_source(point, sources[idx], tasks, life)
                        }),
                )
            },
        ))
    }

    /// The sampled executable spec of [`McRun::source`]: identical draw
    /// stream, but each draw's lifetime mean is estimated with
    /// `samples_per_draw` midpoint lookups instead of the exact kernel.
    ///
    /// Exists for convergence property tests and as the benchmark
    /// baseline; new code should use the exact variant.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-sample spec, an empty source set,
    /// invalid scenario bounds, or `samples_per_draw == 0`.
    pub fn source_sampled(
        point: &'a DesignPoint,
        sources: &'a [&'a dyn CiIntegral],
        spec: &SourceMonteCarloSpec,
        samples_per_draw: usize,
    ) -> Result<Self, CarbonError> {
        spec.validate(sources.len())?;
        if samples_per_draw == 0 {
            return Err(CarbonError::Empty {
                what: "integration samples per draw",
            });
        }
        let spec = *spec;
        let span = "core/monte_carlo_source_tcdp_sampled";
        let ns_per_draw = MC_LOOKUP_NS.saturating_mul(samples_per_draw as u64);
        Ok(Self::new(
            span,
            spec.samples,
            ns_per_draw,
            fold_summary,
            move |block| {
                moments(spec.block_draws(block, sources.len()).into_iter().map(
                    |(idx, tasks, life)| {
                        tcdp_under_source_sampled(
                            point,
                            sources[idx],
                            tasks,
                            life,
                            samples_per_draw,
                        )
                    },
                ))
            },
        ))
    }
}

impl<'a> McRun<'a, Vec<f64>> {
    /// The mean tCDP regret of each of `points` across the spec's
    /// scenarios (see [`monte_carlo_regret`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty point list, a zero-sample spec, or
    /// invalid scenario bounds.
    pub fn regret(points: &'a [DesignPoint], spec: &MonteCarloSpec) -> Result<Self, CarbonError> {
        if points.is_empty() {
            return Err(CarbonError::Empty {
                what: "design points",
            });
        }
        spec.validate()?;
        let spec = *spec;
        Ok(Self::new(
            "core/monte_carlo_regret",
            spec.samples,
            MC_REGRET_NS_PER_DRAW_AND_POINT.saturating_mul(points.len() as u64),
            fold_regret,
            move |block| {
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
        ))
    }
}

impl<'a, O> McRun<'a, O> {
    fn new(
        span: &'static str,
        samples: usize,
        ns_per_draw: u64,
        fold: fn(Partials<'_>, usize) -> O,
        block: impl Fn(u64) -> Vec<f64> + Sync + 'a,
    ) -> Self {
        Self {
            span,
            samples,
            hint: CostHint::per_item_ns(ns_per_draw.saturating_mul(MC_BLOCK as u64)),
            block: Box::new(block),
            fold,
            partials: SupervisedMap::new(samples.div_ceil(MC_BLOCK)),
        }
    }

    /// Computes the still-pending RNG blocks under `sup` and returns the
    /// folded result once every block is done (`None` while the run is
    /// interrupted). Completed blocks are bit-identical at every thread
    /// count (1 = fully sequential).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Panicked`] with the first (in block order)
    /// panicking block's message. A panicked block is final: a later
    /// advance does not re-run it and reports the same error.
    pub fn advance(&mut self, sup: &Supervisor, threads: usize) -> Result<Option<O>, CoreError> {
        self.run_pending(sup, threads);
        if let Some(message) = self.partials.first_panic() {
            return Err(CoreError::Panicked(message.to_owned()));
        }
        Ok(self.partials.is_complete().then(|| {
            let mut blocks = self.partials.outcomes().iter().filter_map(Outcome::done);
            (self.fold)(&mut blocks, self.samples)
        }))
    }

    /// Why the last advance stopped early, or `None` if it was not
    /// interrupted.
    #[must_use]
    pub fn stop(&self) -> Option<StopReason> {
        self.partials.stop()
    }

    /// RNG blocks computed so far.
    #[must_use]
    pub fn completed_blocks(&self) -> usize {
        self.partials
            .outcomes()
            .iter()
            .filter(|p| p.done().is_some())
            .count()
    }

    /// Total RNG blocks in the experiment.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.partials.outcomes().len()
    }

    /// Runs every block under a supervisor that never trips at
    /// [`cordoba_par::effective_threads`]; a panicking block re-raises on
    /// the caller ([`SupervisedMap::into_values`]).
    fn finish(mut self) -> O {
        self.run_pending(&Supervisor::unbounded(), cordoba_par::effective_threads());
        let blocks = self.partials.into_values();
        (self.fold)(&mut blocks.iter(), self.samples)
    }

    /// Computes the pending blocks under `sup`, filling slots by block
    /// index.
    fn run_pending(&mut self, sup: &Supervisor, threads: usize) {
        let _span = cordoba_obs::span_with(
            self.span,
            "samples",
            u64::try_from(self.samples).unwrap_or(u64::MAX),
        );
        let block = &self.block;
        self.partials
            .advance(threads, self.hint, sup, |b| block(b as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let sampled = tcdp_under_source_sampled(&p, &constant, 100.0, Seconds::from_years(3.0), 7);
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
            let err =
                (tcdp_under_source_sampled(&p, &trend, 100.0, life, samples) - exact).abs() / exact;
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

    /// Advances `run` to completion under a supervisor that never trips.
    fn complete<O>(mut run: McRun<'_, O>, threads: usize) -> O {
        run.advance(&Supervisor::unbounded(), threads)
            .unwrap()
            .expect("an unbounded supervisor completes the run")
    }

    #[test]
    fn monte_carlo_is_bit_identical_across_thread_counts() {
        let p = point("x", 1.0, 2.0, 500.0);
        // 1,300 samples span 21 RNG blocks, past the parallel cutoff, so
        // multi-thread runs really do split the work.
        let spec = MonteCarloSpec::new(1_300, 42);
        let base = complete(McRun::tcdp(&p, &spec).unwrap(), 1);
        for threads in [2, 4, 16] {
            let par = complete(McRun::tcdp(&p, &spec).unwrap(), threads);
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
        let seq = complete(McRun::regret(&pts, &spec).unwrap(), 1);
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
        let base = complete(McRun::source(&p, &sources, &spec).unwrap(), 1);
        for threads in [2, 4, 16] {
            let par = complete(McRun::source(&p, &sources, &spec).unwrap(), threads);
            assert_eq!(base, par, "threads = {threads}");
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
        let coarse = complete(McRun::source_sampled(&p, &sources, &spec, 16).unwrap(), 1);
        let fine = complete(
            McRun::source_sampled(&p, &sources, &spec, 4_096).unwrap(),
            1,
        );
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
        assert!(McRun::source_sampled(&p, &sources, &SourceMonteCarloSpec::new(10, 1), 0).is_err());
    }

    #[test]
    fn supervised_monte_carlo_matches_unsupervised_when_unbounded() {
        let p = point("x", 1.0, 2.0, 500.0);
        let spec = MonteCarloSpec::new(300, 11);
        let direct = monte_carlo_tcdp(&p, &spec).unwrap();
        let mut run = McRun::tcdp(&p, &spec).unwrap();
        let summary = run.advance(&Supervisor::unbounded(), 2).unwrap();
        assert_eq!(run.stop(), None);
        assert_eq!(summary, Some(direct));
    }

    #[test]
    fn interrupted_monte_carlo_resumes_to_identical_bits() {
        let p = point("x", 1.0, 2.0, 500.0);
        // 300 samples = 5 blocks of 64 (last short).
        let spec = MonteCarloSpec::new(300, 11);
        let direct = monte_carlo_tcdp(&p, &spec).unwrap();
        for trip in [0u64, 1, 3] {
            let mut mc = McRun::tcdp(&p, &spec).unwrap();
            let partial = mc.advance(&Supervisor::tripping_after(trip), 1).unwrap();
            assert_eq!(mc.stop(), Some(StopReason::Cancelled), "trip {trip}");
            assert_eq!(mc.completed_blocks(), trip as usize);
            assert!(partial.is_none());
            let resumed = mc.advance(&Supervisor::unbounded(), 2).unwrap();
            assert_eq!(mc.stop(), None);
            assert_eq!(resumed, Some(direct), "trip {trip}");
        }
    }

    #[test]
    fn supervised_source_monte_carlo_resumes_exactly() {
        let p = point("x", 1.0, 2.0, 500.0);
        let (coal, trend) = source_set();
        let sources: [&dyn CiIntegral; 2] = [&coal, &trend];
        let spec = SourceMonteCarloSpec::new(200, 7);
        let exact = monte_carlo_source_tcdp(&p, &sources, &spec).unwrap();
        let mut mc = McRun::source(&p, &sources, &spec).unwrap();
        assert!(mc
            .advance(&Supervisor::tripping_after(1), 1)
            .unwrap()
            .is_none());
        let resumed = mc.advance(&Supervisor::unbounded(), 2).unwrap();
        assert_eq!(resumed, Some(exact));
        // Sampled-integration path, same shape.
        let sampled = complete(McRun::source_sampled(&p, &sources, &spec, 16).unwrap(), 1);
        let mut mc = McRun::source_sampled(&p, &sources, &spec, 16).unwrap();
        assert!(mc
            .advance(&Supervisor::tripping_after(2), 1)
            .unwrap()
            .is_none());
        let resumed = mc.advance(&Supervisor::unbounded(), 1).unwrap();
        assert_eq!(resumed, Some(sampled));
    }

    #[test]
    fn supervised_regret_resumes_exactly() {
        let pts = space();
        let spec = MonteCarloSpec::new(256, 3);
        let direct = monte_carlo_regret(&pts, &spec).unwrap();
        let mut regret = McRun::regret(&pts, &spec).unwrap();
        let partial = regret.advance(&Supervisor::tripping_after(2), 1).unwrap();
        assert_eq!(regret.stop(), Some(StopReason::Cancelled));
        assert_eq!(regret.completed_blocks(), 2);
        assert_eq!(regret.total_blocks(), 4);
        assert!(partial.is_none());
        let resumed = regret.advance(&Supervisor::unbounded(), 2).unwrap();
        assert_eq!(resumed, Some(direct));
    }

    /// A source whose every lookup panics, standing in for a faulty
    /// integration kernel.
    #[derive(Debug)]
    struct PanickingSource;

    impl CiSource for PanickingSource {
        fn at(&self, _t: Seconds) -> CarbonIntensity {
            panic!("poisoned source");
        }
    }

    impl CiIntegral for PanickingSource {
        fn integral_over(
            &self,
            _t0: Seconds,
            _t1: Seconds,
        ) -> cordoba_carbon::units::CarbonIntensitySeconds {
            panic!("poisoned source");
        }
    }

    #[test]
    fn panicking_block_reaches_the_caller_of_either_form() {
        let p = point("x", 1.0, 2.0, 500.0);
        let poisoned = PanickingSource;
        let sources: [&dyn CiIntegral; 1] = [&poisoned];
        // One block, so each form reports one panic.
        let spec = SourceMonteCarloSpec::new(64, 7);
        // The plain form re-raises the panic on the caller.
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monte_carlo_source_tcdp(&p, &sources, &spec)
        }));
        let payload = raised.expect_err("a panicking block must panic the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("poisoned source")
        );
        // The supervised form isolates it into an error.
        let mut run = McRun::source(&p, &sources, &spec).unwrap();
        match run.advance(&Supervisor::unbounded(), 2) {
            Err(CoreError::Panicked(message)) => assert_eq!(message, "poisoned source"),
            other => panic!("expected a quarantined panic, got {:?}", other.map(|_| ())),
        }
        assert_eq!(run.completed_blocks(), 0);
    }
}
