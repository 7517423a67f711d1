//! Property tests for the exact-integration kernel (`cordoba_carbon::integral`).
//!
//! Two contracts are exercised here, mirroring `tests/prop_parallel.rs`'s
//! hand-rolled seeded-case style:
//!
//! 1. **Scan parity** — the `partition_point` binary search behind
//!    `TraceCi::at` must be *bit-identical* to the O(n) linear scan it
//!    replaced, for every finite query (exact sample timestamps, interior
//!    points, out-of-span points, and ±infinity).
//! 2. **Convergence** — the sampled reference (`Midpoint`, the midpoint rule
//!    wrapped around a source or power profile) is the executable
//!    specification: its error against the closed-form kernel must tighten
//!    as the sample count grows, and vanish entirely for constant
//!    sources/profiles.

use cordoba_carbon::integral::{CiIntegral, Midpoint, PowerIntegral};
use cordoba_carbon::intensity::{ConstantCi, DiurnalCi, SeasonalCi, TraceCi, TrendCi};
use cordoba_carbon::operational::{ConstantPower, DutyCycledPower};
use cordoba_carbon::units::{CarbonIntensity, Seconds, Watts, SECONDS_PER_DAY, SECONDS_PER_HOUR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random strictly-increasing trace of 2..=40 samples with irregular
/// spacing, starting anywhere in ±1000 s.
fn random_trace_samples(rng: &mut StdRng) -> Vec<(Seconds, CarbonIntensity)> {
    let len = 2 + (rng.gen::<f64>() * 38.0) as usize;
    let mut t = -1000.0 + rng.gen::<f64>() * 2000.0;
    let mut samples = Vec::with_capacity(len);
    for _ in 0..len {
        samples.push((
            Seconds::new(t),
            CarbonIntensity::new(rng.gen::<f64>() * 900.0),
        ));
        t += 1e-3 + rng.gen::<f64>() * SECONDS_PER_HOUR;
    }
    samples
}

/// The O(n) linear scan `TraceCi::at` replaced, reproduced verbatim as the
/// parity reference.
fn linear_scan_at(samples: &[(Seconds, CarbonIntensity)], t: Seconds) -> CarbonIntensity {
    let first = samples[0];
    if t.value() <= first.0.value() {
        return first.1;
    }
    for window in samples.windows(2) {
        let (t0, c0) = window[0];
        let (t1, c1) = window[1];
        if t.value() <= t1.value() {
            let frac = (t.value() - t0.value()) / (t1.value() - t0.value());
            return c0 + (c1 - c0) * frac;
        }
    }
    samples[samples.len() - 1].1
}

#[test]
fn trace_binary_search_is_bit_identical_to_the_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0x7261_6365_5f61_7431);
    for case in 0..100 {
        let samples = random_trace_samples(&mut rng);
        let trace = TraceCi::new(samples.clone()).unwrap();
        let (first, last) = trace.span();

        let mut queries: Vec<Seconds> = Vec::new();
        // Every exact sample timestamp (the duplicate-query boundary where
        // `<=` vs `<` bugs hide), plus every segment midpoint.
        for window in samples.windows(2) {
            queries.push(window[0].0);
            let mid = 0.5 * (window[0].0.value() + window[1].0.value());
            queries.push(Seconds::new(mid));
        }
        queries.push(last);
        // Out-of-span on both sides, and the infinities.
        let before = first.value() - 123.456;
        let after = last.value() + 123.456;
        queries.push(Seconds::new(before));
        queries.push(Seconds::new(after));
        queries.push(Seconds::new(f64::NEG_INFINITY));
        queries.push(Seconds::new(f64::INFINITY));
        // And random points across the extended span.
        for _ in 0..20 {
            let span = last.value() - first.value();
            let q = first.value() - span + rng.gen::<f64>() * 3.0 * span;
            queries.push(Seconds::new(q));
        }

        for &q in &queries {
            let fast = trace.at(q);
            let slow = linear_scan_at(&samples, q);
            assert_eq!(
                fast.value().to_bits(),
                slow.value().to_bits(),
                "case {case}: query {} got {} (binary) vs {} (scan)",
                q.value(),
                fast.value(),
                slow.value()
            );
        }
    }
}

#[test]
fn trace_integral_matches_a_trapezoid_reference() {
    let mut rng = StdRng::seed_from_u64(0x7472_6170_657a_6f69);
    for case in 0..100 {
        let samples = random_trace_samples(&mut rng);
        let trace = TraceCi::new(samples.clone()).unwrap();
        let (first, last) = trace.span();
        let span = last.value() - first.value();
        // A random interval poking out of the span on either side.
        let mut a = first.value() - 0.5 * span + rng.gen::<f64>() * 2.0 * span;
        let mut b = first.value() - 0.5 * span + rng.gen::<f64>() * 2.0 * span;
        if b < a {
            std::mem::swap(&mut a, &mut b);
        }
        // Reference: trapezoid over every breakpoint inside [a, b], with
        // values from the (already parity-checked) linear scan.
        let mut cuts = vec![a, b];
        for &(ts, _) in &samples {
            if ts.value() > a && ts.value() < b {
                cuts.push(ts.value());
            }
        }
        cuts.sort_by(f64::total_cmp);
        let mut reference = 0.0;
        for pair in cuts.windows(2) {
            let lo = linear_scan_at(&samples, Seconds::new(pair[0])).value();
            let hi = linear_scan_at(&samples, Seconds::new(pair[1])).value();
            reference += 0.5 * (lo + hi) * (pair[1] - pair[0]);
        }
        let exact = trace
            .integral_over(Seconds::new(a), Seconds::new(b))
            .value();
        let scale = reference.abs().max(1.0);
        assert!(
            (exact - reference).abs() / scale < 1e-9,
            "case {case}: prefix-sum {exact} vs trapezoid {reference}"
        );
    }
}

#[test]
fn sampled_mean_converges_to_the_exact_kernel() {
    let mut rng = StdRng::seed_from_u64(0x636f_6e76_6572_6765);
    for case in 0..30 {
        let mean = CarbonIntensity::new(150.0 + rng.gen::<f64>() * 500.0);
        let amplitude = rng.gen::<f64>() * 0.9 * mean.value();
        let source: Box<dyn CiIntegral> = match case % 3 {
            0 => Box::new(DiurnalCi::new(mean, CarbonIntensity::new(amplitude)).unwrap()),
            1 => Box::new(TrendCi::new(mean, rng.gen::<f64>() * 0.3).unwrap()),
            _ => Box::new(
                SeasonalCi::new(
                    mean,
                    rng.gen::<f64>() * 0.9,
                    rng.gen::<f64>() * 0.9,
                    rng.gen::<f64>() * 0.3,
                )
                .unwrap(),
            ),
        };
        let duration = Seconds::from_days(1.0 + rng.gen::<f64>() * 29.0);
        let exact = source.mean_exact(Seconds::ZERO, duration).value();
        assert!(exact.is_finite() && exact > 0.0);
        // Midpoint error is O(dt^2): an 8x denser grid must cut the error
        // by ~64x; demand at least 4x (down to floating-point noise).
        let mut prev = f64::INFINITY;
        for samples in [256_usize, 2_048, 16_384] {
            let sampled =
                Midpoint::new(source.as_ref(), samples).mean_exact(Seconds::ZERO, duration);
            let err = (sampled.value() - exact).abs() / exact;
            assert!(
                err <= (prev / 4.0).max(1e-12),
                "case {case}: {samples} samples error {err} after {prev}"
            );
            prev = err;
        }
        assert!(prev < 1e-4, "case {case}: final error {prev}");
    }
}

#[test]
fn constant_ci_sampled_mean_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x636f_6e73_745f_6369);
    for _ in 0..50 {
        let c = CarbonIntensity::new(rng.gen::<f64>() * 900.0);
        let source = ConstantCi::new(c);
        let duration = Seconds::new(1e-3 + rng.gen::<f64>() * 1e9);
        let exact = source.mean_exact(Seconds::ZERO, duration);
        assert_eq!(exact.value().to_bits(), c.value().to_bits());
        // 1- and 2-sample midpoint means involve only exact float ops, so
        // the sampled spec matches bit-for-bit...
        for samples in [1_usize, 2] {
            let sampled = Midpoint::new(&source, samples).mean_exact(Seconds::ZERO, duration);
            assert_eq!(sampled.value().to_bits(), c.value().to_bits());
        }
        // ... and longer sums stay within accumulated rounding noise.
        let sampled = Midpoint::new(&source, 10_000)
            .mean_exact(Seconds::ZERO, duration)
            .value();
        assert!((sampled - c.value()).abs() <= 1e-12 * c.value());
    }
}

#[test]
fn constant_power_sampled_energy_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x636f_6e73_745f_7077);
    for _ in 0..50 {
        let p = ConstantPower::new(Watts::new(rng.gen::<f64>() * 50.0));
        let duration = Seconds::new(1e-3 + rng.gen::<f64>() * 1e9);
        let exact = p.energy_integral(Seconds::ZERO, duration);
        for samples in [1_usize, 2] {
            let sampled = Midpoint::new(&p, samples).energy_integral(Seconds::ZERO, duration);
            assert_eq!(sampled.value().to_bits(), exact.value().to_bits());
        }
    }
}

#[test]
fn sampled_energy_converges_to_the_exact_integral() {
    let mut rng = StdRng::seed_from_u64(0x6475_7479_5f63_7963);
    for case in 0..30 {
        let active = Watts::new(1.0 + rng.gen::<f64>() * 20.0);
        let idle = Watts::new(rng.gen::<f64>() * 1.0);
        let period = Seconds::new(60.0 + rng.gen::<f64>() * SECONDS_PER_DAY);
        let duty = rng.gen::<f64>();
        let p = DutyCycledPower::new(active, idle, period, duty).unwrap();
        let duration = period * (0.5 + rng.gen::<f64>() * 19.5);
        let exact = p.energy_integral(Seconds::ZERO, duration).value();
        // The profile is piecewise constant, so a midpoint step only errs
        // when it straddles a power jump: |err| <= jumps * |Δp| * dt. That
        // bound tightens linearly with the sample count.
        let jumps = 2.0 * (duration.value() / period.value()).ceil() + 2.0;
        let dp = (active.value() - idle.value()).abs();
        for steps in [256_usize, 2_048, 16_384] {
            let dt = duration.value() / steps as f64;
            let sampled = Midpoint::new(&p, steps)
                .energy_integral(Seconds::ZERO, duration)
                .value();
            let bound = jumps * dp * dt + 1e-9 * exact.abs();
            assert!(
                (sampled - exact).abs() <= bound,
                "case {case}: {steps} steps error {} over bound {bound}",
                (sampled - exact).abs()
            );
        }
    }
}
