//! # plc-stats — statistics utilities for the experiment harness
//!
//! Small, dependency-free building blocks used across the workspace:
//!
//! * [`summary::Welford`] — online mean/variance, the backbone of every
//!   repeated-test average in the evaluation (the paper averages 10 tests
//!   per point in Figure 2).
//! * [`summary::Summary`] — batch summaries with Student-t confidence
//!   intervals.
//! * [`fairness`] — Jain's fairness index and windowed short-term fairness
//!   over success traces, used for the fairness study the paper points to
//!   (its prior work \[4\]) and our extension experiment E4.
//! * [`hist::Histogram`] — integer-bucket histograms (burst sizes,
//!   inter-transmission counts).
//! * [`quantile_from_cdf`] — the quantile of a tabulated CDF (the
//!   mean-field delay distribution's p50/p90/p99).
//! * [`table::Table`] — fixed-width text tables so every experiment prints
//!   rows the way the paper's tables read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fairness;
pub mod hist;
pub mod quantile;
pub mod summary;
pub mod table;

pub use fairness::{jain_index, windowed_jain};
pub use hist::Histogram;
pub use quantile::quantile_from_cdf;
pub use summary::{Summary, Welford};
pub use table::Table;
