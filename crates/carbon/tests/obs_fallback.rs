//! The obs counters wired through [`FallbackCi`] must agree exactly with
//! the chain's own [`FallbackCi::health`] accounting: `carbon/fallback/*`
//! and `events/fallback_*` are the *same* numbers surfaced through a
//! different channel, and this test pins them together.
//!
//! The `carbon/fallback/tier_hits` cells are named after tier labels, so
//! they are pinned too: a hit counts in the cell of its tier's label, not
//! of its position in the chain.
//!
//! Counters are process-global, so the whole contract lives in one
//! `#[test]` in its own integration binary.

use cordoba_carbon::fallback::FallbackCi;
use cordoba_carbon::integral::CiIntegral;
use cordoba_carbon::intensity::{grids, ConstantCi, TraceCi};
use cordoba_carbon::units::{CarbonIntensity, Seconds};

/// Current value of a named counter in the global registry (0 if untouched).
fn counter(name: &str) -> u64 {
    cordoba_obs::registry_snapshot().counter(name)
}

/// Current `carbon/fallback/tier_hits{tier="<tier>"}` cell (0 if untouched).
fn tier_hits(tier: &str) -> u64 {
    cordoba_obs::registry_snapshot()
        .counters
        .iter()
        .find(|c| {
            c.name == "carbon/fallback/tier_hits"
                && c.labels == [("tier".to_owned(), tier.to_owned())]
        })
        .map_or(0, |c| c.value)
}

/// Every `tier_hits` cell, in declared order.
fn all_tier_hits() -> [u64; 4] {
    ["trace", "diurnal", "constant", "other"].map(tier_hits)
}

#[test]
fn fallback_counters_match_the_health_report() {
    cordoba_obs::set_metrics_enabled(true);
    let before_queries = counter("carbon/fallback/queries");
    let before_rejected = counter("carbon/fallback/rejected");
    let before_switches = counter("events/fallback_tier_switch");
    let before_exhausted = counter("events/fallback_exhausted");
    let before_tiers = all_tier_hits();

    // A three-tier chain that exercises every accounting path:
    //  * "trace"    answers only inside [0, 3600] s;
    //  * "poison"   always covers but always produces NaN (rejected);
    //  * "backstop" answers only inside [0, 10_000] s.
    let trace = TraceCi::new(vec![
        (Seconds::new(0.0), CarbonIntensity::new(300.0)),
        (Seconds::from_hours(1.0), CarbonIntensity::new(420.0)),
    ])
    .unwrap();
    let chain = FallbackCi::builder()
        .tier_within(
            "trace",
            Box::new(trace),
            Seconds::new(0.0),
            Seconds::from_hours(1.0),
        )
        .tier(
            "poison",
            Box::new(ConstantCi::new(CarbonIntensity::new(f64::NAN))),
        )
        .tier_within(
            "backstop",
            Box::new(ConstantCi::new(grids::US_AVERAGE)),
            Seconds::new(0.0),
            Seconds::new(10_000.0),
        )
        .build()
        .unwrap();

    // Primary hit: inside the trace window, no tier switch.
    assert_eq!(chain.at(Seconds::new(0.0)), CarbonIntensity::new(300.0));
    // Degraded hit: trace declines, poison rejects, backstop answers.
    assert_eq!(chain.at(Seconds::new(5_000.0)), grids::US_AVERAGE);
    // Exhausted: past every window, poison still rejects.
    assert_eq!(chain.at(Seconds::new(20_000.0)), CarbonIntensity::ZERO);
    // Integral path: split at the trace-window edge into [0, 3600] (trace
    // hit) and [3600, 7200] (poison rejects, backstop hit + tier switch).
    let integral = chain.integral_over(Seconds::new(0.0), Seconds::new(7_200.0));
    assert!(integral.value() > 0.0);

    let health = chain.health();
    assert_eq!(health.queries, 5, "{health:?}");
    assert_eq!(health.exhausted, 1, "{health:?}");
    assert!(health.degraded());

    let d_queries = counter("carbon/fallback/queries") - before_queries;
    let d_rejected = counter("carbon/fallback/rejected") - before_rejected;
    let d_switches = counter("events/fallback_tier_switch") - before_switches;
    let d_exhausted = counter("events/fallback_exhausted") - before_exhausted;
    let after_custom = all_tier_hits();

    cordoba_obs::set_metrics_enabled(false);

    // trace / diurnal / constant / other: the custom chain's "trace" tier
    // served 2 queries and its "backstop" 2 ("poison" never served).
    let delta = |after: [u64; 4], before: [u64; 4]| -> Vec<u64> {
        after.iter().zip(before).map(|(a, b)| a - b).collect()
    };
    assert_eq!(
        delta(after_custom, before_tiers),
        [2, 0, 0, 2],
        "{health:?}"
    );

    assert_eq!(d_queries, health.queries, "{health:?}");
    assert_eq!(d_exhausted, health.exhausted, "{health:?}");
    let rejected_total: u64 = health.tiers.iter().map(|t| t.rejected).sum();
    assert_eq!(d_rejected, rejected_total, "{health:?}");
    // A tier switch is recorded exactly when a non-primary tier serves.
    let non_primary_hits: u64 = health.tiers.iter().skip(1).map(|t| t.hits).sum();
    assert_eq!(d_switches, non_primary_hits, "{health:?}");
    assert_eq!(d_switches, 2, "{health:?}");

    // With metrics off the chain's own accounting still runs, but the
    // global counters stay frozen.
    let _ = chain.at(Seconds::new(100.0));
    assert_eq!(chain.health().queries, 6);
    assert_eq!(
        counter("carbon/fallback/queries") - before_queries,
        d_queries
    );

    cordoba_obs::set_metrics_enabled(true);
    // The standard chain without a diurnal model: its constant backstop is
    // the second tier, and its hits still count as `constant`.
    let trace = TraceCi::new(vec![
        (Seconds::new(0.0), CarbonIntensity::new(300.0)),
        (Seconds::from_hours(1.0), CarbonIntensity::new(420.0)),
    ])
    .unwrap();
    let standard = FallbackCi::standard(trace, None, grids::US_AVERAGE).unwrap();
    let _ = standard.at(Seconds::new(0.0));
    let _ = standard.at(Seconds::from_days(1.0));
    let _ = standard.at(Seconds::from_days(2.0));
    let after_standard = all_tier_hits();
    cordoba_obs::set_metrics_enabled(false);
    assert_eq!(
        delta(after_standard, after_custom),
        [1, 0, 2, 0],
        "{:?}",
        standard.health()
    );
}
