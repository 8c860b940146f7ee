//! # plc-obs — lightweight observability for the PLC workspace
//!
//! The measurement-first counterpart to the paper's methodology, turned
//! inward: where §3.2 resets and reads `ampstat` counters on real
//! devices, this crate gives every layer of the workspace one shared
//! instrumentation vocabulary —
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, [`Histogram`]s and
//!   [`SpanTimer`]s behind cheap cloneable handles; deterministic sorted
//!   JSON snapshots ([`Registry::to_json`]);
//! * [`Observer`] — a periodic read-only hook the slotted engine and the
//!   sweep worker pool call at configurable intervals with plain-data
//!   snapshots ([`EngineObs`] stage occupancy / BPC distributions,
//!   [`SweepProgress`] with ETA);
//! * zero cost when disabled: an engine without observers pays one
//!   branch per step, and a disabled registry turns every handle into a
//!   no-op that never reads the clock.
//!
//! Observers and registries are strictly read-only with respect to the
//! simulation: they never touch RNG streams, so results — including
//! byte-level sweep JSON — are identical with or without them.
//!
//! Names are dotted and owned by the instrumented layer: `engine.*`
//! (steps, steps_skipped, soa_fallbacks), `sweep.*`, `meanfield.*`
//! (solves, stations), `multidomain.*` (cells, components, jammed_tx,
//! sensed_defers) and `exp.*` phase timers. Parallel work records into
//! one shared registry from every worker; counters and timers are
//! atomics, so counter totals are worker-count invariant.
//!
//! ```
//! use plc_obs::{Registry, Observer, shared, CollectingObserver};
//!
//! let registry = Registry::new();
//! let steps = registry.counter("engine.steps");
//! steps.add(3);
//! assert_eq!(registry.snapshot().counter("engine.steps"), Some(3));
//!
//! let observer = shared(CollectingObserver::default());
//! observer.lock().on_engine(&plc_obs::EngineObs {
//!     t_us: 35.84,
//!     step: 1,
//!     idle_slots: 1,
//!     successes: 0,
//!     collision_events: 0,
//!     stations: vec![],
//! });
//! ```
//!
//! This crate deliberately depends only on the vendored `serde` /
//! `parking_lot`, never on the simulator crates, so `plc-sim`,
//! `plc-bench` and `plc-testbed` can all instrument themselves through
//! it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observer;
pub mod registry;

pub use observer::{
    shared, CollectingObserver, EngineObs, JsonLinesObserver, Observer, ProgressPrinter,
    SharedObserver, StationObs, SweepProgress,
};
pub use registry::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, SpanGuard, SpanTimer, TimerSnapshot,
};
