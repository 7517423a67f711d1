//! Fault injection for CORDOBA resilience testing.
//!
//! Real carbon-intensity feeds drop samples, repeat timestamps, arrive out
//! of order, and occasionally report garbage; configuration files get
//! hand-edited into inconsistency; long sweeps get interrupted or run
//! out of time. CORDOBA's contract under all of these is *graceful
//! degradation*: every subsystem returns a structured error or a
//! degraded-but-finite result — never a panic, never a NaN.
//!
//! This crate provides the deterministic, seeded [`fault::FaultPlan`]
//! injector that the workspace's fault-injection suite (and CI job) uses to
//! exercise that contract:
//!
//! * **trace faults** — drop, duplicate, and reorder `(time, intensity)`
//!   samples; replace intensities with NaN, negative, or spiked values
//!   (absorbed by `TraceCi::sanitize` and `FallbackCi` in
//!   `cordoba-carbon`);
//! * **config faults** — poison `TechTuning` parameters so a design point
//!   fails characterization (quarantined by the core crate's
//!   `ResilientEval::evaluate`);
//! * **supervision faults** — interrupt the operational-time sweep, the
//!   one resumable pipeline, mid-flight at seeded trip points
//!   ([`fault::FaultPlan::trip_point`]) to prove that checkpoint/resume
//!   reproduces the uninterrupted result bit for bit, and panic work units
//!   at seeded positions to prove `cordoba_par::isolate` quarantines them
//!   in input order (the trip point feeds
//!   `cordoba_par::Supervisor::tripping_after`, the stop rule the sweep
//!   checks once per row).
//!
//! Everything is derived from a single `u64` seed, so any failure found by
//! the suite reproduces exactly from its seed alone.
//!
//! ```
//! use cordoba_robust::fault::FaultPlan;
//! use cordoba_carbon::units::{CarbonIntensity, Seconds};
//!
//! let clean: Vec<(Seconds, CarbonIntensity)> = (0..24)
//!     .map(|h| (Seconds::from_hours(f64::from(h)), CarbonIntensity::new(400.0)))
//!     .collect();
//! let plan = FaultPlan::chaos(42);
//! let corrupted = plan.corrupt_trace(&clean);
//! // Deterministic: the same seed always produces the same corruption
//! // (compared via Debug because injected NaNs defeat `==`).
//! assert_eq!(format!("{corrupted:?}"), format!("{:?}", plan.corrupt_trace(&clean)));
//! ```

pub mod fault;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::fault::FaultPlan;
}
