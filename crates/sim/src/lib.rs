//! # plc-sim — discrete-event simulator for the IEEE 1901 MAC
//!
//! Two engines, one protocol:
//!
//! * [`paper::PaperSim`] — a line-faithful Rust port of the technical
//!   report's MATLAB reference simulator (`sim_1901`). Use it when you want
//!   the paper's numbers, exactly as published.
//! * [`engine::SlottedEngine`] — a modular engine with the same channel
//!   dynamics plus traffic models, MPDU bursting, retry policies, trace
//!   sinks and per-station metrics. Generic over
//!   [`plc_mac::BackoffProcess`], so IEEE 1901 and 802.11 DCF contend under
//!   identical conditions. When the stations' priorities differ it runs
//!   the standard's priority resolution, so CA0–CA3 interactions run on
//!   the same engine. An integration test pins the two engines to each
//!   other statistically.
//!
//! Plus one analytic stand-in: [`backend::Backend::MeanField`] swaps the
//! event loop for a `plc_analysis` mean-field fixed-point solve that
//! synthesizes the same [`runner::SimReport`] schema deterministically —
//! fleet-scale sweeps in microseconds, at the documented decoupling
//! accuracy envelope.
//!
//! Most callers want the [`runner::Simulation`] builder:
//!
//! ```
//! use plc_sim::runner::Simulation;
//!
//! // Three saturated 1901 stations, 5 seconds of simulated time.
//! let report = Simulation::ieee1901(3).horizon_us(5.0e6).seed(7).run();
//! println!("collision probability: {:.3}", report.collision_probability);
//! ```
//!
//! Everything is deterministic given `(configuration, seed)`; no wall-clock
//! time or I/O enters the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod backend;
pub mod batch;
pub mod bursting;
pub(crate) mod contention;
pub mod engine;
pub mod export;
pub mod metrics;
pub mod multidomain;
pub mod paper;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use aggregation::{AggregatedMpdu, AggregationConfig, AggregationQueue};
pub use backend::{Backend, MeanFieldReport};
pub use batch::BatchRunner;
pub use bursting::BurstPolicy;
#[doc(hidden)]
pub use contention::bench as contention_bench;
pub use contention::CoreRejection;
pub use engine::{BeaconSchedule, EngineConfig, SlottedEngine, StationSpec, StepOutcome};
pub use export::JsonLinesSink;
pub use metrics::{Metrics, StationMetrics};
pub use multidomain::MultiDomainReport;
pub use paper::{PaperSim, PaperSimResult};
pub use runner::{ReplicationSummary, RunSummary, SimReport, Simulation};
pub use scenario::Scenario;
pub use sweep::{
    parallel_map, parallel_map_observed, parallel_map_with_progress, EarlyStop, Quantity,
    SweepGrid, SweepPoint, SweepPointResult, SweepResults,
};
pub use topology::{Topology, TopologyBuilder};
pub use trace::{StationId, SuccessTrace, TraceEvent, TraceSink, VecTraceSink};
pub use traffic::TrafficModel;
