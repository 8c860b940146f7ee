//! # plc-obs — lightweight observability for the PLC workspace
//!
//! The measurement-first counterpart to the paper's methodology, turned
//! inward: where §3.2 resets and reads `ampstat` counters on real
//! devices, this crate gives every layer of the workspace one shared
//! instrumentation vocabulary — a [`Registry`] of named [`Counter`]s and
//! [`SpanTimer`]s behind cheap cloneable handles, with deterministic
//! sorted JSON snapshots ([`Registry::to_json`]). A disabled registry
//! turns every handle into a no-op that never reads the clock.
//!
//! A registry is strictly read-only with respect to the simulation: it
//! never touches RNG streams, so results — including byte-level sweep
//! JSON — are identical with or without one. What a run did slot by slot
//! is the trace sinks' business (`plc-sim`'s `TraceSink`), the
//! counterpart of the paper's `faifa` captures.
//!
//! Names are dotted and owned by the instrumented layer: `engine.*`
//! (steps, steps_skipped, soa_fallbacks), `sweep.*`, `meanfield.*`
//! (solves, stations), `multidomain.*` (cells, components, jammed_tx,
//! sensed_defers) and `exp.*` phase timers. Parallel work records into
//! one shared registry from every worker; counters and timers are
//! atomics, so counter totals are worker-count invariant.
//!
//! Hot loops record in batches: [`SpanTimer::record_many`] adds many
//! spans measured together, so a loop that would pay two clock reads per
//! step reads the clock once per run. The slotted engine's fast loop and
//! the coupled-cell coordinator time `engine.step` this way; per-slot
//! runs time each step with a [`SpanGuard`].
//!
//! ```
//! use plc_obs::Registry;
//!
//! let registry = Registry::new();
//! let steps = registry.counter("engine.steps");
//! steps.add(3);
//! registry.timer("engine.step").record_many(3, std::time::Duration::from_micros(2));
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("engine.steps"), Some(3));
//! assert_eq!(snap.timer("engine.step").map(|t| t.count), Some(3));
//! ```
//!
//! This crate deliberately depends only on `plc-core` and the vendored
//! `serde` / `serde_json` / `parking_lot`, never on the simulator crates,
//! so `plc-sim`, `plc-bench` and `plc-testbed` can all instrument
//! themselves through it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;

pub use registry::{
    Counter, CounterSnapshot, Registry, RegistrySnapshot, SpanGuard, SpanTimer, TimerSnapshot,
};
