//! Property-based tests (proptest) on cross-crate invariants: unit
//! algebra, yield monotonicity, Pareto/hull laws, simulator monotonicity,
//! scheduler monotonicity, and metric identities.

use cordoba::metrics::{DesignPoint, OperationalContext};
use cordoba::pareto::{lower_hull_indices, pareto_indices, Point2};
use cordoba_accel::config::AcceleratorConfig;
use cordoba_accel::sim::simulate;
use cordoba_carbon::prelude::*;
use cordoba_soc::prelude::*;
use cordoba_workloads::kernel::KernelId;
use proptest::prelude::*;

fn kernel_strategy() -> impl Strategy<Value = KernelId> {
    prop::sample::select(KernelId::ALL.to_vec())
}

/// The two-sort lower hull that `lower_hull_indices` replaced, kept as the
/// reference for the one-sort version: sort the Pareto front by `(x, y)`
/// in `total_cmp` order, drop numerically equal neighbours, then run the
/// monotone chain.
fn lower_hull_two_sort_reference(points: &[Point2]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut front = pareto_indices(points);
    front.sort_by(|&a, &b| {
        points[a]
            .x
            .total_cmp(&points[b].x)
            .then(points[a].y.total_cmp(&points[b].y))
    });
    front.dedup_by(|&mut a, &mut b| points[a].x == points[b].x && points[a].y == points[b].y);
    let mut hull: Vec<usize> = Vec::with_capacity(front.len());
    for &i in &front {
        while hull.len() >= 2 {
            let a = &points[hull[hull.len() - 2]];
            let b = &points[hull[hull.len() - 1]];
            let c = &points[i];
            let cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(i);
    }
    hull
}

/// Coordinate palette that stresses sort-based elimination: NaN of both
/// signs, ±0, ±∞ and a few small integers (equal-x groups, duplicates).
const PALETTE: [f64; 10] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    1.0,
    2.0,
    3.0,
];

/// A palette entry for a draw below `PALETTE.len()`, else the random value.
fn coordinate((pick, random): (usize, f64)) -> f64 {
    PALETTE.get(pick).copied().unwrap_or(random)
}

fn cloud(coords: &[(f64, f64)]) -> Vec<Point2> {
    coords
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Point2::new(format!("p{i}"), x, y))
        .collect()
}

#[test]
fn lower_hull_matches_the_two_sort_reference_on_degenerate_clouds() {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let cases: Vec<Vec<(f64, f64)>> = vec![
        vec![],
        vec![(1.0, 1.0)],
        vec![(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
        vec![(0.0, -0.0), (-0.0, 0.0), (1.0, 1.0)],
        vec![(-0.0, 1.0), (0.0, 1.0), (0.0, 0.5), (2.0, 0.0)],
        vec![(inf, 0.0), (0.0, inf), (inf, inf), (1.0, 1.0)],
        vec![(-inf, 5.0), (0.0, 5.0), (-inf, 4.0), (1.0, -inf)],
        vec![(nan, 1.0), (1.0, nan), (0.5, 0.5), (2.0, 2.0)],
        vec![
            (-nan, 1.0),
            (nan, -1.0),
            (-nan, -nan),
            (0.0, 0.0),
            (3.0, -2.0),
        ],
        vec![
            (1.0, 3.0),
            (1.0, 2.0),
            (1.0, 2.0),
            (2.0, 1.0),
            (2.0, 1.0),
            (3.0, 0.0),
        ],
        vec![(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)],
    ];
    for (k, coords) in cases.iter().enumerate() {
        let points = cloud(coords);
        assert_eq!(
            lower_hull_indices(&points),
            lower_hull_two_sort_reference(&points),
            "case {k}: {coords:?}"
        );
    }
}

proptest! {
    #[test]
    fn power_time_energy_algebra(p in 0.0f64..1e4, t in 1e-6f64..1e6) {
        let e: Joules = Watts::new(p) * Seconds::new(t);
        let back: Watts = e / Seconds::new(t);
        prop_assert!((back.value() - p).abs() <= 1e-9 * p.abs().max(1.0));
        let kwh = e.to_kilowatt_hours().to_joules();
        prop_assert!((kwh.value() - e.value()).abs() <= 1e-9 * e.value().max(1.0));
    }

    #[test]
    fn carbon_scales_linearly_with_energy(ci in 0.0f64..1000.0, e in 0.0f64..1e9) {
        let one = operational_carbon(CarbonIntensity::new(ci), Joules::new(e));
        let two = operational_carbon(CarbonIntensity::new(ci), Joules::new(2.0 * e));
        prop_assert!((two.value() - 2.0 * one.value()).abs() <= 1e-9 * two.value().max(1.0));
    }

    #[test]
    fn yield_models_are_monotone_in_area(
        a1 in 0.01f64..5.0,
        delta in 0.01f64..5.0,
        d0 in 0.01f64..0.5,
    ) {
        let d0 = DefectDensity::new(d0);
        for model in [
            YieldModel::Murphy,
            YieldModel::Poisson,
            YieldModel::Seeds,
            YieldModel::BoseEinstein { layers: 8 },
        ] {
            let small = model.fraction(SquareCentimeters::new(a1), d0);
            let large = model.fraction(SquareCentimeters::new(a1 + delta), d0);
            prop_assert!(large <= small, "{model:?} not monotone");
            prop_assert!((0.0..=1.0).contains(&small));
            // Effective area is always inflated.
            prop_assert!(
                model.effective_area(SquareCentimeters::new(a1), d0).value() >= a1
            );
        }
    }

    #[test]
    fn embodied_carbon_is_monotone_in_area(
        a in 0.01f64..4.0,
        extra in 0.01f64..4.0,
    ) {
        let model = EmbodiedModel::default();
        let small = model.die_carbon(&Die::new("s", SquareCentimeters::new(a), ProcessNode::N7).unwrap());
        let large = model.die_carbon(&Die::new("l", SquareCentimeters::new(a + extra), ProcessNode::N7).unwrap());
        prop_assert!(large > small);
    }

    #[test]
    fn pareto_front_is_sound_and_complete(
        coords in prop::collection::vec((0.1f64..100.0, 0.1f64..100.0), 1..60)
    ) {
        let points: Vec<Point2> = coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point2::new(format!("p{i}"), x, y))
            .collect();
        let front = pareto_indices(&points);
        // Soundness: no front point is dominated.
        for &i in &front {
            for (j, other) in points.iter().enumerate() {
                if i != j {
                    prop_assert!(!other.dominates(&points[i]));
                }
            }
        }
        // Completeness: every non-front point is dominated by someone.
        for i in 0..points.len() {
            if !front.contains(&i) {
                prop_assert!(points.iter().any(|o| o.dominates(&points[i])));
            }
        }
        // The hull is a subset of the front, and every hull point wins some
        // scalarization.
        let hull = lower_hull_indices(&points);
        for &h in &hull {
            prop_assert!(front.contains(&h));
        }
        // Each hull point must (tie-)win the scalarization for a beta
        // derived from its neighboring hull segments' critical slopes.
        let critical_beta = |a: usize, b: usize| {
            (points[b].x - points[a].x) / (points[a].y - points[b].y)
        };
        for (pos, &h) in hull.iter().enumerate() {
            let beta = if hull.len() == 1 {
                1.0
            } else if pos == 0 {
                critical_beta(hull[0], hull[1]) * 0.5
            } else if pos == hull.len() - 1 {
                critical_beta(hull[pos - 1], hull[pos]) * 2.0
            } else {
                let lo = critical_beta(hull[pos - 1], hull[pos]);
                let hi = critical_beta(hull[pos], hull[pos + 1]);
                (lo * hi).sqrt()
            };
            prop_assume!(beta.is_finite() && beta >= 0.0);
            let vh = points[h].x + beta * points[h].y;
            let vbest = (0..points.len())
                .map(|i| points[i].x + beta * points[i].y)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                vh <= vbest * (1.0 + 1e-9) + 1e-9,
                "hull point {h} loses its own beta {beta}"
            );
        }
    }

    #[test]
    fn lower_hull_matches_the_two_sort_reference(
        draws in prop::collection::vec(((0usize..16, -10.0f64..10.0), (0usize..16, -10.0f64..10.0)), 0..48)
    ) {
        let coords: Vec<(f64, f64)> = draws
            .into_iter()
            .map(|(x, y)| (coordinate(x), coordinate(y)))
            .collect();
        let points = cloud(&coords);
        prop_assert_eq!(
            lower_hull_indices(&points),
            lower_hull_two_sort_reference(&points)
        );
    }

    #[test]
    fn simulator_is_monotone_in_resources(
        kernel in kernel_strategy(),
        units_exp in 0u32..9,
        sram_exp in 0u32..9,
    ) {
        let k = kernel.descriptor();
        let units = 1u32 << units_exp;
        let sram = Bytes::from_mebibytes(f64::from(1u32 << sram_exp));
        let base = simulate(
            &AcceleratorConfig::on_die("base", units, sram).unwrap(),
            &k,
        );
        // More MAC units never increase compute time or latency.
        let more_units = simulate(
            &AcceleratorConfig::on_die("units", units * 2, sram).unwrap(),
            &k,
        );
        prop_assert!(more_units.compute_time <= base.compute_time);
        prop_assert!(more_units.latency <= base.latency);
        // More SRAM never increases DRAM traffic or memory time.
        let more_sram = simulate(
            &AcceleratorConfig::on_die("sram", units, sram * 2.0).unwrap(),
            &k,
        );
        prop_assert!(more_sram.dram_traffic <= base.dram_traffic);
        prop_assert!(more_sram.memory_time <= base.memory_time);
        // Sanity: all outputs finite and positive.
        prop_assert!(base.latency.is_positive());
        prop_assert!(base.dynamic_energy.is_positive());
        prop_assert!(base.dram_traffic.value() >= 0.0);
    }

    #[test]
    fn scheduler_is_monotone_in_cores(app_idx in 0usize..4, cores in 4u32..8) {
        let app = &VrApp::studied_tasks()[app_idx];
        let fewer = schedule_app(app, &SocConfig::provisioned(cores).unwrap());
        let more = schedule_app(app, &SocConfig::provisioned(cores + 1).unwrap());
        prop_assert!(more.duration <= fewer.duration);
        // Work is invariant.
        prop_assert!((more.work - fewer.work).abs() < 1e-9);
    }

    #[test]
    fn tcdp_identity_embodied_plus_beta_energy(
        d in 1e-3f64..1e3,
        e in 1e-3f64..1e3,
        emb in 0.0f64..1e5,
        tasks in 1.0f64..1e10,
        ci in 1.0f64..1000.0,
    ) {
        // tCDP == C_emb*D + beta*(E*D) with beta = N*CI/3.6e6.
        let p = DesignPoint::new(
            "x",
            Seconds::new(d),
            Joules::new(e),
            GramsCo2e::new(emb),
            SquareCentimeters::new(1.0),
        ).unwrap();
        let ctx = OperationalContext::new(tasks, CarbonIntensity::new(ci)).unwrap();
        let beta = cordoba::lagrange::beta_for_context(&ctx);
        let via_beta = p.embodied_delay().value() + beta * p.energy_delay().value();
        let direct = p.tcdp(&ctx).value();
        prop_assert!((via_beta - direct).abs() <= 1e-9 * direct.max(1.0));
    }

    #[test]
    fn amortization_is_linear(
        years in 0.5f64..10.0,
        hours in 0.5f64..24.0,
        task_secs in 1.0f64..1e6,
        emb in 1.0f64..1e5,
    ) {
        let usage = UsageProfile::from_daily_hours(years, hours).unwrap();
        let one = usage.amortized_embodied(GramsCo2e::new(emb), Seconds::new(task_secs));
        let two = usage.amortized_embodied(GramsCo2e::new(emb), Seconds::new(2.0 * task_secs));
        prop_assert!((two.value() - 2.0 * one.value()).abs() <= 1e-9 * two.value().max(1e-12));
    }

    #[test]
    fn ci_sources_are_non_negative_everywhere(
        t_days in 0.0f64..3650.0,
        mean in 1.0f64..1000.0,
        amp_frac in 0.0f64..1.0,
        decline in 0.0f64..0.3,
    ) {
        let t = Seconds::from_days(t_days);
        let mean_ci = CarbonIntensity::new(mean);
        let diurnal = DiurnalCi::new(mean_ci, mean_ci * amp_frac * 0.999).unwrap();
        prop_assert!(diurnal.at(t).value() >= -1e-9);
        let trend = TrendCi::new(mean_ci, decline).unwrap();
        prop_assert!(trend.at(t).value() >= 0.0);
        prop_assert!(trend.at(t).value() <= mean + 1e-9);
    }
}
