//! Exact output pins for unsaturated traffic in the slotted engine.
//!
//! The fast-forward and SoA suites compare two engine paths with each
//! other, and both sides share the arrival handling: a step that
//! delivered an arrival late (or never) would show on both sides and
//! pass them. These pins fix the output itself — report fields and a
//! digest of the full event trace — for Poisson traffic at the default
//! portfolio's rate, on/off traffic, and a mixed saturated + Poisson +
//! on/off population built from [`StationSpec`]s, on every engine path
//! (fast-forward on and off, SoA core on and off).
//!
//! A pin changes only when the engine's output contract changes; a
//! re-bless must say why in the change that makes it.

use parking_lot::Mutex;
use plc_core::config::CsmaConfig;
use plc_core::units::Microseconds;
use plc_mac::{Backoff1901, RetryPolicy};
use plc_sim::trace::{TraceEvent, TraceSink};
use plc_sim::traffic::TrafficModel;
use plc_sim::{EngineConfig, Metrics, Simulation, SlottedEngine, StationSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// FNV-1a over the `Debug` rendering of every event (floats render
/// round-trip exact, so equal digests mean bit-equal traces).
struct DigestSink(u64);

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink(0xcbf2_9ce4_8422_2325)
    }
}

impl TraceSink for DigestSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        for byte in format!("{ev:?}").bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    successes: u64,
    collision_events: u64,
    idle_slots: u64,
    elapsed_bits: u64,
    trace_digest: u64,
}

impl Pin {
    fn of(m: &Metrics, digest: u64) -> Pin {
        Pin {
            successes: m.successes,
            collision_events: m.collision_events,
            idle_slots: m.idle_slots,
            elapsed_bits: m.elapsed.as_micros().to_bits(),
            trace_digest: digest,
        }
    }
}

const PATHS: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

/// Run `sim` on every (fast-forward, SoA) path and assert each matches
/// `expected`.
fn assert_sim_pinned(sim: Simulation, expected: Pin) {
    for (fast_forward, soa) in PATHS {
        let sink = Arc::new(Mutex::new(DigestSink::default()));
        let report = sim
            .clone()
            .fast_forward(fast_forward)
            .soa(soa)
            .sink(sink.clone())
            .run();
        let got = Pin::of(&report.metrics, sink.lock().0);
        assert_eq!(
            got, expected,
            "fast_forward {fast_forward}, soa {soa}: output moved"
        );
    }
}

#[test]
fn poisson_at_the_default_portfolio_rate_is_pinned() {
    // The default portfolio's `poisson` scenario: N = 10, 3e-5 frames/µs
    // per station, 8-frame queues.
    let sim = Simulation::ieee1901(10)
        .horizon_us(4e6)
        .seed(42)
        .traffic(TrafficModel::Poisson {
            rate_per_us: 3.0e-5,
            queue_cap: 8,
        });
    assert_sim_pinned(
        sim,
        Pin {
            successes: 1166,
            collision_events: 97,
            idle_slots: 20982,
            elapsed_bits: 0x414e_8487_9999_902a,
            trace_digest: 0x6116_6401_46f7_bb48,
        },
    );
}

#[test]
fn on_off_traffic_is_pinned() {
    let sim = Simulation::ieee1901(6)
        .horizon_us(4e6)
        .seed(7)
        .traffic(TrafficModel::OnOff {
            rate_per_us: 4e-4,
            mean_on_us: 1.5e5,
            mean_off_us: 2.5e5,
            queue_cap: 6,
        });
    assert_sim_pinned(
        sim,
        Pin {
            successes: 1334,
            collision_events: 148,
            idle_slots: 4951,
            elapsed_bits: 0x414e_8796_28f5_c1d8,
            trace_digest: 0xbf32_5b45_f4d8_7c7e,
        },
    );
}

/// Two saturated stations, three Poisson stations (one with a lossy
/// link, so errored PBs wait for retransmission with an empty queue)
/// and two on/off stations, under a retry limit that drops frames.
fn mixed_population(seed: u64) -> Vec<StationSpec<Backoff1901>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let traffic = [
        TrafficModel::Saturated,
        TrafficModel::Poisson {
            rate_per_us: 5e-5,
            queue_cap: 4,
        },
        TrafficModel::OnOff {
            rate_per_us: 6e-4,
            mean_on_us: 8e4,
            mean_off_us: 3e5,
            queue_cap: 8,
        },
        TrafficModel::Poisson {
            rate_per_us: 2e-4,
            queue_cap: 2,
        },
        TrafficModel::Saturated,
        TrafficModel::OnOff {
            rate_per_us: 1e-4,
            mean_on_us: 5e5,
            mean_off_us: 5e4,
            queue_cap: 3,
        },
        TrafficModel::Poisson {
            rate_per_us: 1e-5,
            queue_cap: 1,
        },
    ];
    traffic
        .into_iter()
        .enumerate()
        .map(|(i, traffic)| StationSpec {
            traffic,
            pb_error_prob: (i == 3).then_some(0.2),
            ..StationSpec::saturated(Backoff1901::new(CsmaConfig::ieee1901_ca01(), &mut rng))
        })
        .collect()
}

#[test]
fn mixed_station_spec_population_is_pinned() {
    let expected = Pin {
        successes: 988,
        collision_events: 135,
        idle_slots: 2672,
        elapsed_bits: 0x4146_e7a1_9999_9937,
        trace_digest: 0x400b_587b_5409_39b1,
    };
    for (fast_forward, soa) in PATHS {
        let cfg = EngineConfig {
            retry: RetryPolicy::Limited { max_attempts: 3 },
            fast_forward,
            soa,
            ..EngineConfig::with_horizon(Microseconds(3e6))
        };
        let sink = Arc::new(Mutex::new(DigestSink::default()));
        let mut engine = SlottedEngine::new(cfg, mixed_population(11), 99);
        engine.add_sink(sink.clone());
        let metrics = engine.run();
        // The population reaches the paths it is built for.
        assert!(metrics.per_station.iter().any(|s| s.dropped > 0));
        assert!(metrics.per_station[3].pbs_errored > 0);
        let got = Pin::of(metrics, sink.lock().0);
        assert_eq!(
            got, expected,
            "fast_forward {fast_forward}, soa {soa}: output moved"
        );
    }
}
