//! # cordoba-soc
//!
//! Production-VR-SoC substrate for the CORDOBA framework: everything the
//! paper's §VI-D hardware-provisioning case study needs, rebuilt from
//! scratch with synthetic traces in place of the proprietary Quest 2
//! profiles (see `DESIGN.md` for the substitution rationale).
//!
//! * [`cores`] — silver/gold/prime CPU core models (perf, area, power);
//! * [`soc`] — provisioned SoC configurations (eq. VI.12's 0/1 selection),
//!   sized so 8-core = 2.25 cm² and 4-core = 1.35 cm² (Table V);
//! * [`apps`] — VR app models (G-2, M-1, B-1, SG-1 and the All-Tasks mix)
//!   with concurrency distributions hitting the published TLP of 3.52-4.15;
//! * [`traces`] — deterministic/stochastic thread-activity synthesis;
//! * [`scheduler`] — heterogeneous-core trace replay (delay + energy);
//! * [`provisioning`] — the 4..8-core tCDP sweep (Fig. 10, Table V).
//!
//! # Example
//!
//! ```
//! use cordoba_soc::prelude::*;
//!
//! let rows = sweep(&VrApp::m1(), &Deployment::default())?;
//! assert_eq!(optimal_cores(&rows), 4); // the paper's M-1 result
//! # Ok::<(), cordoba_carbon::CarbonError>(())
//! ```

pub mod apps;
pub mod cores;
pub mod event_sim;
pub mod provisioning;
pub mod scheduler;
pub mod soc;
pub mod traces;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::apps::{AppCategory, VrApp};
    pub use crate::cores::CoreKind;
    pub use crate::event_sim::{
        simulate_events, simulate_events_supervised, EventSimResult, SupervisedSimResult,
    };
    pub use crate::provisioning::{
        improvement_over_8core, optimal_cores, sweep, sweep_supervised, Deployment,
        ProvisioningRow, SupervisedProvisioning,
    };
    pub use crate::scheduler::{schedule, schedule_app, ScheduleResult};
    pub use crate::soc::SocConfig;
    pub use crate::traces::{ActivityTrace, Segment};
}
