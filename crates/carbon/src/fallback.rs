//! Fallback chains of carbon-intensity sources.
//!
//! A production deployment ideally runs on a live grid-intensity trace, but
//! feeds go down, cover a bounded time window, and occasionally emit
//! garbage. [`FallbackCi`] chains several [`CiIntegral`] sources in
//! priority order — typically trace → diurnal model → constant grid
//! average — with an optional validity window per tier, so a trace outage
//! degrades to a model instead of failing (or silently extrapolating) the
//! run.
//!
//! Every query is counted per serving tier, so [`FallbackCi::health`] can
//! report after the fact how often the chain degraded below its primary
//! source.
//
// cordoba-lint: allow-file(atomic-ordering) — per-tier hit/rejected tallies
// are monotonic observability counters read only by `health()` snapshots;
// no data is published through them, so Relaxed is sufficient.

use crate::error::CarbonError;
use crate::integral::CiIntegral;
use crate::intensity::{ConstantCi, DiurnalCi, TraceCi};
use crate::units::{CarbonIntensity, CarbonIntensitySeconds, Seconds};
use cordoba_obs::{Counter, Event, LabeledCounter};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide mirrors of the per-chain accounting, surfaced through the
/// cordoba-obs registry so `--metrics` and `doctor` can report fallback
/// behavior without holding a reference to every chain. Tier switches and
/// exhaustions additionally go through [`cordoba_obs::record`] as typed
/// events; `crates/carbon/tests/obs_fallback.rs` pins these mirrors to
/// [`FallbackCi::health`].
static FALLBACK_QUERIES: Counter = Counter::new("carbon/fallback/queries");
static FALLBACK_REJECTED: Counter = Counter::new("carbon/fallback/rejected");

/// Per-tier hit counts, one cell per tier label of the
/// [`FallbackCi::standard`] chain (`trace`, `diurnal`, `constant`); a tier
/// with any other label counts in the trailing `other` cell. Exported as
/// `carbon_fallback_tier_hits{tier="..."}` in the Prometheus rendering.
static FALLBACK_TIER_HITS: LabeledCounter = LabeledCounter::new(
    "carbon/fallback/tier_hits",
    "tier",
    &["trace", "diurnal", "constant", "other"],
);

/// The [`FALLBACK_TIER_HITS`] cell for a tier labeled `label`.
fn tier_hits_cell(label: &str) -> usize {
    let values = FALLBACK_TIER_HITS.values();
    values
        .iter()
        .position(|value| *value == label)
        .unwrap_or(values.len() - 1)
}

/// The zero-based tier index as the `u64` payload of a tier-switch event.
fn tier_index(index: usize) -> u64 {
    u64::try_from(index).unwrap_or(u64::MAX)
}

/// One prioritized source in a [`FallbackCi`] chain.
#[derive(Debug)]
struct Tier {
    /// Human-readable name used in health reports.
    label: String,
    /// Its [`FALLBACK_TIER_HITS`] cell, resolved from `label` by
    /// [`FallbackCiBuilder::build`].
    hits_cell: usize,
    /// The underlying intensity source.
    source: Box<dyn CiIntegral>,
    /// Inclusive `[from, until]` validity window; `None` means always valid.
    window: Option<(Seconds, Seconds)>,
    /// Queries this tier answered.
    hits: AtomicU64,
    /// Queries this tier was consulted for but answered with a non-finite
    /// or negative intensity.
    rejected: AtomicU64,
}

impl Tier {
    /// `true` when the tier is willing to answer for time `t`.
    fn covers(&self, t: Seconds) -> bool {
        match self.window {
            None => true,
            Some((from, until)) => t.value() >= from.value() && t.value() <= until.value(),
        }
    }
}

/// Builder for [`FallbackCi`] chains; tiers are consulted in the order they
/// are added.
#[derive(Debug, Default)]
pub struct FallbackCiBuilder {
    tiers: Vec<Tier>,
}

impl FallbackCiBuilder {
    /// Appends an always-valid tier.
    #[must_use]
    pub fn tier(mut self, label: impl Into<String>, source: Box<dyn CiIntegral>) -> Self {
        self.tiers.push(Tier {
            label: label.into(),
            hits_cell: 0,
            source,
            window: None,
            hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        self
    }

    /// Appends a tier that only answers for `t` in `[from, until]`.
    #[must_use]
    pub fn tier_within(
        mut self,
        label: impl Into<String>,
        source: Box<dyn CiIntegral>,
        from: Seconds,
        until: Seconds,
    ) -> Self {
        self.tiers.push(Tier {
            label: label.into(),
            hits_cell: 0,
            source,
            window: Some((from, until)),
            hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        self
    }

    /// Finalizes the chain.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::Empty`] when no tier was added, and
    /// [`CarbonError::NotMonotonic`] when a tier's validity window is
    /// inverted (`from > until`) or non-finite.
    pub fn build(mut self) -> Result<FallbackCi, CarbonError> {
        if self.tiers.is_empty() {
            return Err(CarbonError::Empty {
                what: "fallback chain",
            });
        }
        for tier in &mut self.tiers {
            tier.hits_cell = tier_hits_cell(&tier.label);
            if let Some((from, until)) = tier.window {
                if !from.is_finite() || !until.is_finite() || from.value() > until.value() {
                    return Err(CarbonError::NotMonotonic {
                        what: "fallback tier validity window",
                    });
                }
            }
        }
        Ok(FallbackCi {
            tiers: self.tiers,
            queries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        })
    }
}

/// A prioritized chain of [`CiIntegral`] sources with per-tier validity
/// windows and query accounting.
///
/// [`CiIntegral::at`] walks the tiers in order and returns the first finite,
/// non-negative answer from a tier whose window covers `t`. If every tier
/// declines, the chain returns [`CarbonIntensity::ZERO`] and counts the
/// query as exhausted — callers watching [`FallbackCi::health`] can tell a
/// healthy run from a degraded one.
///
/// # Examples
///
/// ```
/// use cordoba_carbon::fallback::FallbackCi;
/// use cordoba_carbon::integral::CiIntegral;
/// use cordoba_carbon::intensity::{grids, TraceCi};
/// use cordoba_carbon::units::{CarbonIntensity, Seconds};
///
/// let trace = TraceCi::new(vec![
///     (Seconds::new(0.0), CarbonIntensity::new(300.0)),
///     (Seconds::new(3_600.0), CarbonIntensity::new(420.0)),
/// ])?;
/// let chain = FallbackCi::standard(trace, None, grids::US_AVERAGE)?;
///
/// // Inside the trace span: answered by the trace.
/// assert_eq!(chain.at(Seconds::new(0.0)), CarbonIntensity::new(300.0));
/// // Far beyond it: degrades to the constant grid average.
/// assert_eq!(chain.at(Seconds::from_days(30.0)), grids::US_AVERAGE);
/// assert!(chain.health().degraded());
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[derive(Debug)]
pub struct FallbackCi {
    tiers: Vec<Tier>,
    /// Total queries served.
    queries: AtomicU64,
    /// Queries no tier could answer (served as zero intensity).
    exhausted: AtomicU64,
}

impl FallbackCi {
    /// Starts building a chain.
    #[must_use]
    pub fn builder() -> FallbackCiBuilder {
        FallbackCiBuilder::default()
    }

    /// The canonical trace → diurnal → constant chain from the design docs:
    /// the trace answers inside its covered span, an optional diurnal model
    /// answers elsewhere, and `constant` is the unconditional backstop.
    ///
    /// # Errors
    ///
    /// Returns an error when the trace span is invalid (cannot happen for a
    /// constructed [`TraceCi`]).
    pub fn standard(
        trace: TraceCi,
        diurnal: Option<DiurnalCi>,
        constant: CarbonIntensity,
    ) -> Result<Self, CarbonError> {
        let (from, until) = trace.span();
        let mut builder = Self::builder().tier_within("trace", Box::new(trace), from, until);
        if let Some(model) = diurnal {
            builder = builder.tier("diurnal", Box::new(model));
        }
        builder
            .tier("constant", Box::new(ConstantCi::new(constant)))
            .build()
    }

    /// Fraction of the query window `[from, until]` that each tier's
    /// validity window covers, in chain priority order.
    ///
    /// This is the planning-side complement to [`FallbackCi::health`]:
    /// health reports how queries *were* served, coverage reports how a
    /// window *would* be served. A supervised sweep that is stopped early
    /// integrates only a prefix of its lifetime window — pass that partial
    /// window here to see which tiers back the truncated result (e.g. a
    /// trace tier covering 100 % of a 5-hour prefix but 3 % of the full
    /// deployment).
    ///
    /// A zero-length window (`from == until`) reports 1.0 for tiers whose
    /// window contains the instant and 0.0 otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::NotMonotonic`] when the window is non-finite
    /// or inverted (`from > until`).
    pub fn tier_coverage(
        &self,
        from: Seconds,
        until: Seconds,
    ) -> Result<Vec<TierCoverage>, CarbonError> {
        if !from.is_finite() || !until.is_finite() || from.value() > until.value() {
            return Err(CarbonError::NotMonotonic {
                what: "fallback coverage query window",
            });
        }
        let span = until.value() - from.value();
        Ok(self
            .tiers
            .iter()
            .map(|tier| {
                let fraction = match tier.window {
                    None => 1.0,
                    Some((lo, hi)) => {
                        // Degenerate point query: the window collapses to an
                        // instant, so coverage is a membership test, not a
                        // ratio. Exact zero is the intended sentinel — any
                        // nonzero span, however small, divides fine below.
                        // cordoba-lint: allow(float-eq)
                        if span == 0.0 {
                            f64::from(u8::from(tier.covers(from)))
                        } else {
                            let overlap =
                                hi.value().min(until.value()) - lo.value().max(from.value());
                            (overlap / span).clamp(0.0, 1.0)
                        }
                    }
                };
                TierCoverage {
                    label: tier.label.clone(),
                    fraction,
                }
            })
            .collect())
    }

    /// Snapshot of the chain's query accounting.
    #[must_use]
    pub fn health(&self) -> FallbackHealth {
        FallbackHealth {
            tiers: self
                .tiers
                .iter()
                .map(|tier| TierHealth {
                    label: tier.label.clone(),
                    hits: tier.hits.load(Ordering::Relaxed),
                    rejected: tier.rejected.load(Ordering::Relaxed),
                })
                .collect(),
            queries: self.queries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }
}

impl CiIntegral for FallbackCi {
    fn at(&self, t: Seconds) -> CarbonIntensity {
        self.queries.fetch_add(1, Ordering::Relaxed);
        FALLBACK_QUERIES.incr();
        for (index, tier) in self.tiers.iter().enumerate() {
            if !tier.covers(t) {
                continue;
            }
            let value = tier.source.at(t);
            if value.is_finite() && value.value() >= 0.0 {
                tier.hits.fetch_add(1, Ordering::Relaxed);
                FALLBACK_TIER_HITS.incr(tier.hits_cell);
                if index > 0 {
                    cordoba_obs::record(&Event::FallbackTierSwitch {
                        tier: tier_index(index),
                    });
                }
                return value;
            }
            tier.rejected.fetch_add(1, Ordering::Relaxed);
            FALLBACK_REJECTED.incr();
        }
        self.exhausted.fetch_add(1, Ordering::Relaxed);
        cordoba_obs::record(&Event::FallbackExhausted);
        CarbonIntensity::ZERO
    }

    /// Exact interval integral through the chain.
    ///
    /// `[t0, t1]` is split at every tier window endpoint that falls strictly
    /// inside it, so each sub-interval has a fixed covering-tier set. Each
    /// sub-interval counts as one query: the first covering tier whose
    /// integral is finite and non-negative serves it (a hit); tiers
    /// producing invalid integrals are counted as rejected; a sub-interval
    /// no tier can serve contributes zero and counts as exhausted —
    /// mirroring [`CiIntegral::at`]'s accounting so [`FallbackCi::health`]
    /// sees the integral path too. Swapped bounds negate the result, as
    /// the trait requires.
    fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
        // `partial_cmp` keeps the guard NaN-safe: an interval with a NaN
        // bound, like an empty one, integrates to zero.
        match t1.value().partial_cmp(&t0.value()) {
            Some(std::cmp::Ordering::Greater) => {}
            Some(std::cmp::Ordering::Less) => return -self.integral_over(t1, t0),
            _ => return CarbonIntensitySeconds::ZERO,
        }
        let mut cuts = vec![t0.value(), t1.value()];
        for tier in &self.tiers {
            if let Some((from, until)) = tier.window {
                for edge in [from.value(), until.value()] {
                    if edge > t0.value() && edge < t1.value() {
                        cuts.push(edge);
                    }
                }
            }
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let mut total = 0.0;
        for pair in cuts.windows(2) {
            let (a, b) = (Seconds::new(pair[0]), Seconds::new(pair[1]));
            self.queries.fetch_add(1, Ordering::Relaxed);
            FALLBACK_QUERIES.incr();
            let mut served = false;
            for (index, tier) in self.tiers.iter().enumerate() {
                if !(tier.covers(a) && tier.covers(b)) {
                    continue;
                }
                let part = tier.source.integral_over(a, b);
                if part.is_finite() && part.value() >= 0.0 {
                    tier.hits.fetch_add(1, Ordering::Relaxed);
                    FALLBACK_TIER_HITS.incr(tier.hits_cell);
                    if index > 0 {
                        cordoba_obs::record(&Event::FallbackTierSwitch {
                            tier: tier_index(index),
                        });
                    }
                    total += part.value();
                    served = true;
                    break;
                }
                tier.rejected.fetch_add(1, Ordering::Relaxed);
                FALLBACK_REJECTED.incr();
            }
            if !served {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                cordoba_obs::record(&Event::FallbackExhausted);
            }
        }
        CarbonIntensitySeconds::new(total)
    }
}

/// Window-coverage of one tier over a queried interval, from
/// [`FallbackCi::tier_coverage`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierCoverage {
    /// The tier's label.
    pub label: String,
    /// Fraction of the queried window the tier's validity window covers,
    /// in `[0, 1]` (1.0 for unwindowed tiers).
    pub fraction: f64,
}

/// Query accounting for one tier of a [`FallbackCi`] chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierHealth {
    /// The tier's label.
    pub label: String,
    /// Queries this tier answered.
    pub hits: u64,
    /// Queries this tier answered with an invalid (non-finite or negative)
    /// intensity, forcing a further fallback.
    pub rejected: u64,
}

/// Snapshot of a [`FallbackCi`] chain's accounting, from
/// [`FallbackCi::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackHealth {
    /// Per-tier accounting, in chain priority order.
    pub tiers: Vec<TierHealth>,
    /// Total queries served by the chain.
    pub queries: u64,
    /// Queries no tier could answer (served as zero intensity).
    pub exhausted: u64,
}

impl FallbackHealth {
    /// `true` when any query was answered below the primary tier (or not at
    /// all) — i.e. the chain has actually degraded at least once.
    #[must_use]
    pub fn degraded(&self) -> bool {
        let primary_hits = self.tiers.first().map_or(0, |t| t.hits);
        self.exhausted > 0 || primary_hits < self.queries
    }
}

impl fmt::Display for FallbackHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fallback chain: {} queries, {} exhausted ({})",
            self.queries,
            self.exhausted,
            if self.degraded() {
                "DEGRADED"
            } else {
                "healthy"
            }
        )?;
        for (i, tier) in self.tiers.iter().enumerate() {
            write!(
                f,
                "{}  tier {} `{}`: {} hits, {} rejected",
                if i > 0 { "\n" } else { "" },
                i,
                tier.label,
                tier.hits,
                tier.rejected
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integral::Midpoint;
    use crate::intensity::grids;

    fn short_trace() -> TraceCi {
        TraceCi::new(vec![
            (Seconds::new(0.0), CarbonIntensity::new(100.0)),
            (Seconds::new(100.0), CarbonIntensity::new(200.0)),
        ])
        .unwrap()
    }

    #[test]
    fn empty_chain_is_rejected() {
        assert!(matches!(
            FallbackCi::builder().build(),
            Err(CarbonError::Empty { .. })
        ));
    }

    #[test]
    fn inverted_window_is_rejected() {
        let err = FallbackCi::builder()
            .tier_within(
                "bad",
                Box::new(short_trace()),
                Seconds::new(10.0),
                Seconds::new(0.0),
            )
            .build();
        assert!(matches!(err, Err(CarbonError::NotMonotonic { .. })));
    }

    #[test]
    fn primary_tier_answers_inside_its_window() {
        let chain = FallbackCi::standard(short_trace(), None, grids::US_AVERAGE).unwrap();
        assert_eq!(chain.at(Seconds::new(50.0)), CarbonIntensity::new(150.0));
        let health = chain.health();
        assert_eq!(health.queries, 1);
        assert_eq!(health.tiers[0].hits, 1);
        assert!(!health.degraded());
    }

    #[test]
    fn falls_back_outside_the_window() {
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let chain = FallbackCi::standard(short_trace(), Some(diurnal), grids::US_AVERAGE).unwrap();
        // t = 0 h after the span: diurnal peak (mean + amplitude at phase 0
        // of the day)... actually t=200 s is near the overnight peak.
        let v = chain.at(Seconds::new(200.0));
        assert!(v.value() > 400.0);
        let health = chain.health();
        assert_eq!(health.tiers[0].hits, 0);
        assert_eq!(health.tiers[1].hits, 1);
        assert!(health.degraded());
    }

    #[test]
    fn rejects_invalid_values_and_keeps_falling() {
        /// A deliberately broken source for testing.
        #[derive(Debug)]
        struct NanCi;
        impl CiIntegral for NanCi {
            fn at(&self, _t: Seconds) -> CarbonIntensity {
                CarbonIntensity::new(f64::NAN)
            }
            fn integral_over(&self, _t0: Seconds, _t1: Seconds) -> CarbonIntensitySeconds {
                CarbonIntensitySeconds::new(f64::NAN)
            }
        }

        let chain = FallbackCi::builder()
            .tier("broken", Box::new(NanCi))
            .tier("constant", Box::new(ConstantCi::new(grids::WIND)))
            .build()
            .unwrap();
        assert_eq!(chain.at(Seconds::ZERO), grids::WIND);
        let health = chain.health();
        assert_eq!(health.tiers[0].rejected, 1);
        assert_eq!(health.tiers[1].hits, 1);
        assert!(health.degraded());
    }

    #[test]
    fn exhausted_chain_returns_zero_not_nan() {
        #[derive(Debug)]
        struct NegativeCi;
        impl CiIntegral for NegativeCi {
            fn at(&self, _t: Seconds) -> CarbonIntensity {
                CarbonIntensity::new(-10.0)
            }
            fn integral_over(&self, t0: Seconds, t1: Seconds) -> CarbonIntensitySeconds {
                CarbonIntensity::new(-10.0) * (t1 - t0)
            }
        }

        let chain = FallbackCi::builder()
            .tier("negative", Box::new(NegativeCi))
            .build()
            .unwrap();
        assert_eq!(chain.at(Seconds::new(5.0)), CarbonIntensity::ZERO);
        // The integral path also rejects the negative tier and serves zero.
        assert_eq!(
            chain.integral_over(Seconds::ZERO, Seconds::new(10.0)),
            CarbonIntensitySeconds::ZERO
        );
        let health = chain.health();
        assert_eq!(health.exhausted, 2);
        assert_eq!(health.tiers[0].rejected, 2);
        assert!(health.degraded());
    }

    #[test]
    fn nan_query_time_degrades_gracefully() {
        let chain = FallbackCi::standard(short_trace(), None, grids::US_AVERAGE).unwrap();
        let v = chain.at(Seconds::new(f64::NAN));
        // The windowed trace tier declines (NaN comparisons are false); the
        // constant backstop answers.
        assert_eq!(v, grids::US_AVERAGE);
    }

    #[test]
    fn health_display_lists_tiers() {
        let chain = FallbackCi::standard(short_trace(), None, grids::US_AVERAGE).unwrap();
        let _ = chain.at(Seconds::new(1e9));
        let text = chain.health().to_string();
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("`trace`"));
        assert!(text.contains("`constant`"));
    }

    #[test]
    fn tier_coverage_reports_partial_windows() {
        // Trace covers [0, 100] s; the diurnal and constant tiers are
        // unwindowed.
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let chain = FallbackCi::standard(short_trace(), Some(diurnal), grids::US_AVERAGE).unwrap();
        // A truncated run that only reached t = 50 s: the trace fully backs
        // the partial window.
        let partial = chain
            .tier_coverage(Seconds::ZERO, Seconds::new(50.0))
            .unwrap();
        assert_eq!(partial.len(), 3);
        assert!((partial[0].fraction - 1.0).abs() < 1e-12);
        assert!((partial[1].fraction - 1.0).abs() < 1e-12);
        // The full deployment window: the trace backs only a quarter of it.
        let full = chain
            .tier_coverage(Seconds::ZERO, Seconds::new(400.0))
            .unwrap();
        assert!((full[0].fraction - 0.25).abs() < 1e-12);
        assert!((full[2].fraction - 1.0).abs() < 1e-12);
        // Entirely past the trace window: zero trace coverage.
        let past = chain
            .tier_coverage(Seconds::new(200.0), Seconds::new(300.0))
            .unwrap();
        assert!(past[0].fraction.abs() < 1e-12);
        // Zero-length window: point containment.
        let inside = chain
            .tier_coverage(Seconds::new(50.0), Seconds::new(50.0))
            .unwrap();
        assert!((inside[0].fraction - 1.0).abs() < 1e-12);
        let outside = chain
            .tier_coverage(Seconds::new(500.0), Seconds::new(500.0))
            .unwrap();
        assert!(outside[0].fraction.abs() < 1e-12);
        // Invalid windows are rejected.
        assert!(chain
            .tier_coverage(Seconds::new(10.0), Seconds::ZERO)
            .is_err());
        assert!(chain
            .tier_coverage(Seconds::new(f64::NAN), Seconds::ZERO)
            .is_err());
    }

    #[test]
    fn mean_over_integrates_through_the_chain() {
        let chain = FallbackCi::standard(short_trace(), None, grids::US_AVERAGE).unwrap();
        let mean = Midpoint::new(&chain, 100).mean_exact(Seconds::ZERO, Seconds::new(100.0));
        assert!(mean.value() > 100.0 && mean.value() < 200.0);
    }

    #[test]
    fn interval_integral_falls_through_a_trace_gap() {
        // The trace covers [0, 100] s; integrating over [50, 150] s must
        // split at the window edge, serve the first half from the trace and
        // the second from the diurnal tier, and account both.
        let diurnal =
            DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap();
        let chain = FallbackCi::standard(
            short_trace(),
            Some(DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap()),
            grids::US_AVERAGE,
        )
        .unwrap();
        let total = chain.integral_over(Seconds::new(50.0), Seconds::new(150.0));
        let trace_part = short_trace().integral_over(Seconds::new(50.0), Seconds::new(100.0));
        let diurnal_part = diurnal.integral_over(Seconds::new(100.0), Seconds::new(150.0));
        let expected = trace_part.value() + diurnal_part.value();
        assert!((total.value() - expected).abs() < 1e-9 * expected.abs().max(1.0));

        let health = chain.health();
        assert_eq!(health.queries, 2);
        assert_eq!(health.tiers[0].hits, 1, "trace serves [50, 100]");
        assert_eq!(health.tiers[1].hits, 1, "diurnal serves [100, 150]");
        assert_eq!(health.exhausted, 0);
        assert!(health.degraded());
    }

    #[test]
    fn interval_integral_matches_mean_exact_through_the_chain() {
        let chain = FallbackCi::standard(short_trace(), None, grids::US_AVERAGE).unwrap();
        // Fully inside the trace span: exact trapezoid of the linear ramp.
        let inside = chain.integral_over(Seconds::ZERO, Seconds::new(100.0));
        assert!((inside.value() - 150.0 * 100.0).abs() < 1e-9);
        // Empty and NaN-bounded intervals serve zero without touching
        // health.
        let before = chain.health().queries;
        for (t0, t1) in [(5.0, 5.0), (f64::NAN, 5.0), (5.0, f64::NAN)] {
            assert_eq!(
                chain.integral_over(Seconds::new(t0), Seconds::new(t1)),
                CarbonIntensitySeconds::ZERO
            );
        }
        assert_eq!(chain.health().queries, before);
    }

    #[test]
    fn swapped_bounds_negate_the_integral_through_the_chain() {
        let chain = FallbackCi::standard(
            short_trace(),
            Some(DiurnalCi::new(CarbonIntensity::new(400.0), CarbonIntensity::new(100.0)).unwrap()),
            grids::US_AVERAGE,
        )
        .unwrap();
        // [50, 150] s crosses the trace's window edge, so both tiers serve.
        let forward = chain.integral_over(Seconds::new(50.0), Seconds::new(150.0));
        let backward = chain.integral_over(Seconds::new(150.0), Seconds::new(50.0));
        assert!(forward.value() > 0.0);
        assert_eq!(backward, -forward);
    }
}
