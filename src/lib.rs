//! # plc — IEEE 1901 / HomePlug AV MAC analysis and simulation suite
//!
//! A faithful, open reproduction of the experimental framework and
//! simulator behind *"Analyzing and Boosting the Performance of Power-Line
//! Communication Networks"* (Vlachou, Herzen, Thiran): the IEEE 1901
//! CSMA/CA mechanism with its deferral counter, simulators at several
//! levels of fidelity, analytical fixed-point models, an emulated
//! HomePlug AV testbed with the paper's `ampstat`/`faifa` measurement
//! tools, and a benchmark harness regenerating every table and figure.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `plc-core` | priorities, CSMA parameter tables, timing, frames, MMEs |
//! | [`mac`] | `plc-mac` | 1901 backoff FSM (BC/DC/BPC), 802.11 DCF, retry policies |
//! | [`sim`] | `plc-sim` | reference simulator port, modular engine, traffic/bursting, traces |
//! | [`phy`] | `plc-phy` | synthetic channel, tone maps, bit loading, PB errors |
//! | [`analysis`] | `plc-analysis` | coupled round model, decoupled model, Bianchi, boosting |
//! | [`testbed`] | `plc-testbed` | emulated devices, MME bus, ampstat/faifa, §3.2 methodology |
//! | [`stats`] | `plc-stats` | summaries, confidence intervals, fairness, histograms |
//! | [`obs`] | `plc-obs` | metric registry: counters and span timers |
//! | [`faults`] | `plc-faults` | deterministic fault plans: MME loss/delay, brownouts, wrap, noise, retry policies |
//! | [`jobs`] | `plc-jobs` | crash-tolerant sweep jobs: checkpoint journal, exact resume, watchdogs, quarantine |
//! | [`boost`] | `plc-boost` | closed-loop config boosting: successive halving over (CW, DC) schedules against a scenario portfolio, Pareto-front artifact |
//!
//! ## Quickstart
//!
//! ```
//! use plc::prelude::*;
//!
//! // Simulate 3 saturated IEEE 1901 stations for 5 s (paper defaults).
//! let report = Simulation::ieee1901(3).horizon_us(5.0e6).seed(7).run();
//!
//! // Compare with the analytical model.
//! let model = CoupledModel::default_ca1().solve(3);
//!
//! assert!((report.collision_probability - model.collision_probability).abs() < 0.03);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Compile and run the README's code blocks (Quickstart, Parallel sweeps)
// as doctests so the documented examples can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use plc_analysis as analysis;
pub use plc_boost as boost;
pub use plc_core as core;
pub use plc_faults as faults;
pub use plc_jobs as jobs;
pub use plc_mac as mac;
pub use plc_obs as obs;
pub use plc_phy as phy;
pub use plc_sim as sim;
pub use plc_stats as stats;
pub use plc_testbed as testbed;

/// The most common imports in one place.
pub mod prelude {
    pub use plc_analysis::{
        gamma_tolerance, throughput_tolerance, BianchiModel, CanoMaloneModel, CoupledModel,
        MeanFieldModel, Model1901, RoundModel,
    };
    pub use plc_boost::{BoostConfig, BoostRun, Portfolio, SearchSpace};
    pub use plc_core::config::{CsmaConfig, StageParams, DC_DISABLED};
    pub use plc_core::priority::Priority;
    pub use plc_core::timing::MacTiming;
    pub use plc_core::units::Microseconds;
    pub use plc_jobs::{Job, JobConfig, JobStatus, ResultSink};
    pub use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf, BackoffProcess, RetryPolicy};
    pub use plc_obs::Registry;
    pub use plc_phy::{ChannelModel, PbErrorModel, PhyRate, ToneMap};
    pub use plc_sim::{
        Backend, BatchRunner, BurstPolicy, EarlyStop, MultiDomainReport, PaperSim, Quantity,
        RunSummary, Scenario, SimReport, Simulation, StepOutcome, SweepGrid, SweepResults,
        Topology, TraceEvent, TrafficModel,
    };
    pub use plc_testbed::{CollisionExperiment, PowerStrip, TestbedConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let cfg = CsmaConfig::ieee1901_ca01();
        assert_eq!(cfg.cw_min(), 8);
        let _ = Priority::CA1;
    }
}
