//! # plc-analysis — analytical models of CSMA/CA performance
//!
//! The "Analysis" curves of the paper's evaluation:
//!
//! * [`model1901::Model1901`] — decoupling-assumption fixed point for the
//!   IEEE 1901 backoff process (backoff counter + deferral counter +
//!   stage chain), following the companion analysis the report cites as
//!   reference \[5\] (Vlachou, Banchs, Herzen, Thiran — ICNP 2014). Predicts
//!   the per-slot attempt rate τ, the collision probability
//!   `1 − (1 − τ)^(N−1)` plotted in Figure 2, and normalized throughput.
//! * [`coupled::CoupledModel`] — the primary "Analysis" curve: a
//!   champion-conditioned, residual-tracking round model that lands on
//!   Figure 2 at every N (validated within ±0.01 of the simulator).
//! * [`round_model::RoundModel`] — a simpler round-based mean-field
//!   (fresh redraws, i.i.d. stations); kept as a comparison point in the
//!   model-assumptions experiment alongside the naive decoupled model.
//! * [`bianchi::BianchiModel`] — the classic 802.11 DCF fixed point, both
//!   as the comparison baseline and as a closed-form cross-check of the
//!   general stage-chain machinery (disable the deferral counter and the
//!   two coincide).
//! * [`meanfield::MeanFieldModel`] — multi-class decoupling fixed point
//!   with a damped adaptive solver and convergence diagnostics; the
//!   engine behind the `Backend::MeanField` simulation backend in
//!   `plc-sim`.
//! * [`drift::DriftModel`] — drift ODE for the transient stage-occupancy
//!   dynamics (ToN extension), plus the access-delay distribution of the
//!   mean-field backend.
//! * [`cano_malone::CanoMaloneModel`] — deterministic-deferral reference
//!   model (Cano & Malone style), the independent second opinion of the
//!   backend cross-validation suite.
//! * [`throughput`] — slot-structure throughput/delay formulas shared by
//!   both models.
//! * [`boost`] — parameter-space search for throughput-optimal (CW, DC)
//!   tables, the "boosting" use case.
//!
//! Everything is deterministic, allocation-light and fast: a mean-field
//! screen of one (candidate, n) — fixed point plus delay walk — takes
//! ≈0.46 ms on average over the default boost space (≈0.27 ms + ≈0.18 ms,
//! `perfbench --trace 1` on a 2-vCPU Intel Xeon host), so whole parameter
//! sweeps run interactively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bianchi;
pub mod boost;
pub mod cano_malone;
pub mod coupled;
pub mod drift;
pub mod math;
pub mod meanfield;
pub mod model1901;
pub mod round_model;
pub mod throughput;

pub use bianchi::{BianchiFixedPoint, BianchiModel};
pub use boost::{
    boost_search, optimize_constant_window, screen_schedule, BoostOptions, Candidate,
    ScheduleScreen,
};
pub use cano_malone::{CanoMaloneFixedPoint, CanoMaloneModel};
pub use coupled::{CoupledFixedPoint, CoupledModel};
pub use drift::{delay_summary, DelayDistribution, DelaySummary, DriftModel, DriftTrajectory};
pub use meanfield::{
    gamma_tolerance, throughput_tolerance, ClassSpec, MeanFieldModel, MeanFieldSolution,
    SolverDiagnostics, SolverOptions,
};
pub use model1901::{FixedPoint, Model1901};
pub use round_model::{RoundFixedPoint, RoundModel};
pub use throughput::{normalized_throughput, SlotProbabilities};
