//! Time-stepped scheduler simulation.
//!
//! A finer-grained cross-check of the analytic model in
//! [`crate::scheduler`]: threads are simulated tick by tick with explicit
//! core assignment, demand-limited progress, and per-tick preemption
//! overhead when runnable threads outnumber cores. The analytic model's
//! closed-form stretch should agree with this simulation within a few
//! percent — the test suite enforces it — while the simulation additionally
//! exposes per-core utilization and preemption counts.

use crate::apps::VrApp;
use crate::soc::SocConfig;
use crate::traces::ActivityTrace;
use cordoba_carbon::units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Fraction of a tick lost to a preemption (matches the analytic model's
/// context-switch overhead of 0.25 per unit oversubscription).
const PREEMPTION_LOSS: f64 = 0.25;

/// Result of the time-stepped simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSimResult {
    /// Wall-clock duration of the run.
    pub duration: Seconds,
    /// Total energy (CPU dynamic + uncore + leakage).
    pub energy: Joules,
    /// Per-core busy time, fastest core first.
    pub core_busy: Vec<Seconds>,
    /// Oversubscribed thread-segments observed: for each trace segment with
    /// `k` runnable threads on `m < k` cores, `k - m` threads had to share.
    /// Independent of the tick fidelity.
    pub preemptions: u64,
    /// `true` when the tick watchdog cut a segment short because its work
    /// did not drain within the runaway budget; `duration` and `energy` are
    /// then lower bounds for the truncated segment.
    pub truncated: bool,
}

impl EventSimResult {
    /// Utilization of core `i` over the run, or `None` when `i` is out of
    /// range or the run had zero duration.
    #[must_use]
    pub fn core_utilization(&self, i: usize) -> Option<f64> {
        let busy = self.core_busy.get(i)?;
        if self.duration.is_positive() {
            Some(busy.value() / self.duration.value())
        } else {
            None
        }
    }
}

/// Replays `trace` on `soc` with a time-stepped scheduler.
///
/// `ticks_per_segment` controls fidelity (the tests use 200+).
///
/// # Panics
///
/// Panics if `ticks_per_segment` is zero.
#[must_use]
pub fn simulate_events(
    trace: &ActivityTrace,
    app: &VrApp,
    soc: &SocConfig,
    ticks_per_segment: u32,
) -> EventSimResult {
    assert!(ticks_per_segment > 0, "ticks_per_segment must be > 0");
    let _span = cordoba_obs::span_with(
        "soc/event_sim",
        "segments",
        u64::try_from(trace.segments().len()).unwrap_or(u64::MAX),
    );
    let cores = soc.cores();
    let m = cores.len();
    let leakage = soc.leakage_power();
    let uncore = crate::scheduler::UNCORE_ACTIVE_POWER;

    let mut duration = Seconds::ZERO;
    let mut energy = Joules::ZERO;
    let mut core_busy = vec![Seconds::ZERO; m];
    let mut preemptions = 0u64;
    let mut truncated = false;

    for segment in trace.segments() {
        let demands = app.thread_demands(segment.threads);
        let k = demands.len();
        if k == 0 {
            duration += segment.duration;
            energy += leakage * segment.duration;
            continue;
        }
        // Work each thread must complete in this segment
        // (silver-core-seconds).
        let mut remaining: Vec<f64> = demands
            .iter()
            .map(|u| u * segment.duration.value())
            .collect();
        let dt = segment.duration.value() / f64::from(ticks_per_segment);
        let oversubscribed = k > m;
        if oversubscribed {
            preemptions += (k - m) as u64;
        }
        // Effective per-tick efficiency under oversubscription.
        let efficiency = if oversubscribed {
            1.0 / (1.0 + PREEMPTION_LOSS * (k - m) as f64 / m as f64)
        } else {
            1.0
        };

        let mut t = 0.0;
        // Tick watchdog: demand-limited progress always terminates for the
        // built-in app models; a pathological custom app (vanishing demand
        // with nonzero work) is truncated here rather than hanging, and the
        // result carries a `truncated` marker instead of asserting.
        let max_time = segment.duration.value() * 50.0;
        while remaining.iter().any(|&w| w > 1e-12) && t < max_time {
            // Greedy assignment: most-loaded runnable threads onto the
            // fastest cores, round-robin when oversubscribed.
            let mut order: Vec<usize> = (0..k).filter(|&i| remaining[i] > 1e-12).collect();
            order.sort_by(|&a, &b| remaining[b].total_cmp(&remaining[a]));
            let mut queues: Vec<Vec<usize>> = vec![Vec::new(); m];
            for (slot, &thread) in order.iter().enumerate() {
                queues[slot % m].push(thread);
            }
            let mut cpu_power = Watts::ZERO;
            for (core, queue) in queues.iter().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let perf = cores[core].performance();
                // The core serves its queue's aggregate demand, capped by
                // its own throughput, degraded by preemption overhead.
                let want: f64 = queue.iter().map(|&i| demands[i]).sum();
                let deliver_rate = want.min(perf) * efficiency;
                let mut delivered = 0.0;
                for &thread in queue {
                    let share = demands[thread] / want;
                    let done = (deliver_rate * dt * share).min(remaining[thread]);
                    remaining[thread] -= done;
                    delivered += done;
                }
                let busy = (delivered / (perf * efficiency)).min(dt);
                core_busy[core] += Seconds::new(busy);
                cpu_power += cores[core].dynamic_power() * (busy / dt).min(1.0);
            }
            energy += (cpu_power + uncore + leakage) * Seconds::new(dt);
            t += dt;
        }
        if remaining.iter().any(|&w| w > 1e-9) {
            truncated = true;
            cordoba_obs::record(&cordoba_obs::Event::WatchdogTruncation);
        }
        duration += Seconds::new(t);
    }

    EventSimResult {
        duration,
        energy,
        core_busy,
        preemptions,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule;

    #[test]
    fn agrees_with_analytic_model_on_duration() {
        for app in VrApp::studied_tasks() {
            let trace = ActivityTrace::deterministic(&app);
            for cores in [4u32, 6, 8] {
                let soc = SocConfig::provisioned(cores).unwrap();
                let analytic = schedule(&trace, &app, &soc);
                let event = simulate_events(&trace, &app, &soc, 400);
                let rel = (event.duration.value() - analytic.duration.value()).abs()
                    / analytic.duration.value();
                assert!(
                    rel < 0.12,
                    "{} on {cores} cores: event {} vs analytic {} ({rel:.3})",
                    app.name,
                    event.duration,
                    analytic.duration
                );
            }
        }
    }

    #[test]
    fn agrees_with_analytic_model_on_energy() {
        let app = VrApp::m1();
        let trace = ActivityTrace::deterministic(&app);
        let soc = SocConfig::quest2();
        let analytic = schedule(&trace, &app, &soc);
        let event = simulate_events(&trace, &app, &soc, 400);
        let rel = (event.energy.value() - analytic.energy.value()).abs() / analytic.energy.value();
        assert!(rel < 0.15, "energy mismatch {rel:.3}");
    }

    #[test]
    fn oversubscription_produces_preemptions() {
        let app = VrApp::b1();
        let trace = ActivityTrace::deterministic(&app);
        let four = simulate_events(&trace, &app, &SocConfig::provisioned(4).unwrap(), 200);
        let eight = simulate_events(&trace, &app, &SocConfig::quest2(), 200);
        assert!(four.preemptions > eight.preemptions);
        assert!(four.duration > eight.duration);
    }

    #[test]
    fn fastest_core_is_busiest_for_main_heavy_apps() {
        let app = VrApp::m1(); // main thread demand 2.0, background 0.55
        let trace = ActivityTrace::deterministic(&app);
        let soc = SocConfig::quest2();
        let r = simulate_events(&trace, &app, &soc, 300);
        // The prime core (index 0) carries the main thread.
        let prime = r.core_utilization(0).unwrap();
        let last_silver = r.core_utilization(soc.cores().len() - 1).unwrap();
        assert!(
            prime > last_silver,
            "prime {prime:.3} vs silver {last_silver:.3}"
        );
        assert!(prime <= 1.0 + 1e-9);
        // Checked accessor: out-of-range index is None, not a panic.
        assert_eq!(r.core_utilization(soc.cores().len()), None);
        assert!(!r.truncated);
    }

    #[test]
    fn zero_duration_utilization_is_none() {
        let r = EventSimResult {
            duration: Seconds::ZERO,
            energy: Joules::ZERO,
            core_busy: vec![Seconds::ZERO; 2],
            preemptions: 0,
            truncated: false,
        };
        assert_eq!(r.core_utilization(0), None);
        assert_eq!(r.core_utilization(5), None);
    }

    #[test]
    fn pathological_demand_is_truncated_not_hung() {
        // Demands far beyond the cluster's throughput cannot drain within
        // the 50x watchdog budget; the simulation must stop, flag the
        // truncation, and still report finite totals.
        let app = VrApp {
            name: "runaway".to_string(),
            main_demand: 1e6,
            background_demand: 1e6,
            ..VrApp::m1()
        };
        let trace = ActivityTrace::new(vec![crate::traces::Segment {
            duration: Seconds::new(1.0),
            threads: 8,
        }])
        .unwrap();
        let soc = SocConfig::quest2();
        let r = simulate_events(&trace, &app, &soc, 50);
        assert!(r.truncated);
        assert!(r.duration.is_finite() && r.energy.is_finite());
        // Bounded by the watchdog: at most 50x the segment duration.
        assert!(r.duration.value() <= 50.0 + 1e-6);
    }

    #[test]
    fn idle_trace_costs_only_leakage() {
        let app = VrApp::m1();
        let trace = ActivityTrace::new(vec![crate::traces::Segment {
            duration: Seconds::new(5.0),
            threads: 0,
        }])
        .unwrap();
        let soc = SocConfig::quest2();
        let r = simulate_events(&trace, &app, &soc, 100);
        assert!((r.duration.value() - 5.0).abs() < 1e-9);
        let expected = soc.leakage_power().value() * 5.0;
        assert!((r.energy.value() - expected).abs() < 1e-9);
        assert_eq!(r.preemptions, 0);
        assert!(r.core_busy.iter().all(|b| b.value() == 0.0));
    }

    #[test]
    fn fidelity_improves_with_tick_count() {
        let app = VrApp::sg1();
        let trace = ActivityTrace::deterministic(&app);
        let soc = SocConfig::provisioned(5).unwrap();
        let analytic = schedule(&trace, &app, &soc).duration.value();
        let coarse = simulate_events(&trace, &app, &soc, 20).duration.value();
        let fine = simulate_events(&trace, &app, &soc, 800).duration.value();
        let err = |v: f64| (v - analytic).abs() / analytic;
        assert!(err(fine) <= err(coarse) + 0.01);
    }

    #[test]
    fn work_conservation_across_schedulers() {
        // The event simulator must complete the same total work the
        // analytic model accounts for.
        let app = VrApp::g2();
        let trace = ActivityTrace::deterministic(&app);
        let soc = SocConfig::provisioned(6).unwrap();
        let analytic = schedule(&trace, &app, &soc);
        let event = simulate_events(&trace, &app, &soc, 300);
        // Busy time x perf x efficiency >= work (efficiency losses make
        // busy time an upper bound).
        let delivered: f64 = event
            .core_busy
            .iter()
            .zip(soc.cores())
            .map(|(busy, core)| busy.value() * core.performance())
            .sum();
        assert!(
            delivered >= analytic.work * 0.95,
            "delivered {delivered} vs work {}",
            analytic.work
        );
    }
}
