//! # plc-testbed — an emulated HomePlug AV testbed
//!
//! The paper's experimental framework drives real HomePlug AV devices
//! (INT6300 chips on a power strip) through two tools: `ampstat` from the
//! Atheros Open PLC Toolkit (vendor MME `0xA030`, acknowledged/collided
//! frame counters) and `faifa` (vendor MME `0xA034`, sniffer mode that
//! captures SoF delimiters). This crate reproduces that setup in software,
//! end to end:
//!
//! * [`device::Device`] — emulated PLC firmware: per-link statistics
//!   counters with the 1901 selective-ACK semantics (collided MPDUs are
//!   acknowledged-with-errors, so `Aᵢ` includes them), a sniffer mode, and
//!   a byte-level MME request/confirm handler.
//! * [`bus::MgmtBus`] — the host's management path to the devices
//!   (in-process stand-in for raw Ethernet), routing encoded MMEs by
//!   destination MAC.
//! * [`tools::AmpStat`] / [`tools::Faifa`] — faithful re-implementations
//!   of the two tools' workflows, speaking real wire-format MMEs over the
//!   bus (the ampstat reply carries the counters at the exact byte
//!   offsets the report quotes: bytes 25–32 and 33–40).
//! * [`powerstrip::PowerStrip`] — the physical setup: N transmitting
//!   stations plus a destination `D` on one contention domain, backed by
//!   the `plc-sim` slotted engine; UDP data flows at CA1, management
//!   messages at CA2, exactly as the paper observes, and the engine's
//!   priority resolution lets a backlogged MME win the next round.
//! * [`capture`] — the sniffer post-processing: burst detection via the
//!   SoF `MPDUCnt` field, MME-overhead computation over *bursts*, and
//!   per-source transmission traces for fairness studies.
//! * [`adaptation`] — tone-map adaptation: §4.1's channel-dependent MME
//!   rate closed-loop (devices watch their SACK error feedback, drifting
//!   channels force re-negotiations);
//! * [`experiment`] — the §3.2 measurement methodology: reset statistics
//!   at every station, run the test, query `ΣCᵢ`/`ΣAᵢ`, and report
//!   `ΣCᵢ / ΣAᵢ` — generating Table 2 and the measurement series of
//!   Figure 2.
//!
//! The whole stack is fault-aware: a [`plc_faults::FaultPlan`] on the
//! [`TestbedConfig`] injects deterministic MME loss/delay on the bus,
//! device brownouts, counter wrap and impulse noise on the medium, while
//! the tools retry with bounded backoff and the experiment layer stitches
//! counter discontinuities (see [`experiment`]'s module docs).
//!
//! Everything a real measurement would see — counter values, reply bytes,
//! captured delimiter fields — passes through the same wire formats as on
//! hardware, so the analysis code cannot cheat.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptation;
pub mod bus;
pub mod capture;
pub mod device;
pub mod experiment;
pub mod powerstrip;
pub mod tools;

pub use bus::{MgmtBus, SharedMmeFaults};
pub use capture::{group_bursts, group_bursts_lossy, mme_overhead, source_trace, BurstRecord};
pub use device::{Device, StatKey};
pub use experiment::{mean_collision_probability, CollisionExperiment, ExperimentOutcome};
pub use powerstrip::{PowerStrip, TestbedConfig};
pub use tools::{AmpStat, Faifa};
