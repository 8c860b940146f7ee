//! # plc-boost — closed-loop configuration boosting
//!
//! The paper's closing argument is that a fast, validated simulator
//! turns MAC configuration into an *optimization* problem: search the
//! (CW, DC) schedule space for tables that beat the IEEE 1901 defaults.
//! This crate closes that loop at production scale:
//!
//! * [`SearchSpace`] — named, code-pinned candidate enumerations
//!   (geometric window progressions × deferral patterns), always
//!   containing the CA0/CA1 default as the [`space::BASELINE_LABEL`]
//!   yardstick;
//! * [`Portfolio`] — named, weighted scenario sets (saturated,
//!   Poisson-unsaturated, multi-domain cells × station counts), so a
//!   winner has to be good everywhere it is weighted to matter, not at
//!   one cherry-picked operating point;
//! * [`BoostRun`] — successive halving: an analytic **screen** (the
//!   `Backend::MeanField` fixed point + delay DTMC via
//!   [`plc_analysis::screen_schedule_p99`]) prunes the space, solving
//!   each distinct (candidate, contention-domain size) once on the run's
//!   worker pool (≈0.03 s for the default space and portfolio on two
//!   workers, `perfbench --trace 1` on a 2-vCPU Intel Xeon host), then
//!   slotted **confirm rungs** with 4×-growing horizons run the
//!   survivors through crash-tolerant [`plc_jobs::JobGroup`]s and halve
//!   the field by aggregate score after each rung;
//! * the verdict is a **Pareto front** over (throughput ↑, Jain
//!   fairness ↑, p99 access delay ↓) plus a [`Recommendation`] — the
//!   front member beating the baseline on the most objectives — written
//!   atomically as `pareto.json`.
//!
//! Every selection step is a deterministic total order and every sweep
//! cell seed derives from the manifest seed, so a boosting run is a
//! pure function of its `boost.json` manifest: artifacts are
//! **byte-identical across worker counts**, and a SIGKILL at any
//! instant is survivable — [`BoostRun::resume`] replays settled points
//! from the rung journals and recomputes every decision to the same
//! outcome. Progress is observable through `boost.rungs` /
//! `boost.evals` / `boost.pruned` counters on an attached
//! [`plc_obs::Registry`].
//!
//! ```
//! use plc_boost::{BoostConfig, BoostRun};
//!
//! let dir = std::env::temp_dir().join(format!("plc_boost_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut cfg = BoostConfig::smoke(&dir);
//! cfg.base_horizon_us = 1.0e5; // doctest-sized rungs
//! cfg.rungs = 1;
//! let report = BoostRun::create(cfg.clone()).unwrap().run().unwrap();
//! assert!(!report.artifact.pareto.is_empty());
//! // Resuming a finished run recomputes nothing stochastic and returns
//! // the identical artifact.
//! let resumed = BoostRun::resume(cfg).unwrap().run().unwrap();
//! assert_eq!(resumed.artifact, report.artifact);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod portfolio;
pub mod run;
pub mod screen;
pub mod space;

pub use portfolio::{Portfolio, PortfolioScenario, ScenarioKind};
pub use run::{
    boost_status, read_boost_manifest, scalarize, BoostArtifact, BoostConfig, BoostManifest,
    BoostReport, BoostRun, CandidateObjectives, Recommendation, BOOST_FILE_NAME, PARETO_FILE_NAME,
};
pub use screen::{screen_space, ScreenScore};
pub use space::{ScheduleCandidate, SearchSpace};
