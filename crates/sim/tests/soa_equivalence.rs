//! Byte-identity pins for the struct-of-arrays contention core.
//!
//! The engine's hot path now runs on `ContentionCore`: parallel BC/DC/
//! BPC/stage arrays, with BC/DC either event-indexed (saturated 1901) or
//! packed and swept in one pass. The rebuild claims *exactness*: with the
//! SoA core on or off, the event trace (including per-slot snapshots),
//! the metrics struct, observer snapshots and the sweep JSON export are
//! byte-for-byte identical — not statistically close, identical. Redraws
//! consume the RNG stream in exactly the per-object call order, so even
//! the raw generator state matches slot for slot.
//!
//! These tests pin that claim across both protocols, beacons, impulse
//! noise, unsaturated traffic, PB errors, bursts, retry-limit drops,
//! per-slot snapshot emission, observers, and both fast-forward modes.
//! Saturated 1901 populations run the core's event-indexed layout; the
//! `across_bitset_words` cases pin it where its station bitsets need one
//! word (N ≤ 64) and several (N = 65, 130, 500), and a window table wide
//! enough that N = 1000 falls back to the packed layout. Property tests
//! drive randomized populations and seeds (Poisson traffic with random
//! station priorities, and saturated up to N = 200) through all four
//! (soa × fast-forward) engine configurations.

use parking_lot::Mutex;
use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::priority::Priority;
use plc_core::units::Microseconds;
use plc_faults::NoiseBurst;
use plc_mac::retry::RetryPolicy;
use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf};
use plc_sim::bursting::BurstPolicy;
use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};
use plc_sim::runner::{SimReport, Simulation};
use plc_sim::trace::{TraceEvent, VecTraceSink};
use plc_sim::traffic::TrafficModel;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Run `sim` with the SoA core on and off and assert the reports and
/// full event traces match exactly. Both runs keep whatever
/// fast-forward setting `sim` carries. Returns the (shared) report.
fn assert_soa_equivalent(sim: Simulation) -> (SimReport, Vec<TraceEvent>) {
    let soa_sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let obj_sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let soa = sim.clone().soa(true).sink(soa_sink.clone()).run();
    let obj = sim.soa(false).sink(obj_sink.clone()).run();
    assert_eq!(soa, obj, "reports must be identical");
    let soa_events = std::mem::take(&mut soa_sink.lock().events);
    let obj_events = &obj_sink.lock().events;
    assert_eq!(
        soa_events.len(),
        obj_events.len(),
        "event counts must match"
    );
    for (i, (a, b)) in soa_events.iter().zip(obj_events.iter()).enumerate() {
        assert_eq!(a, b, "event {i} diverged");
    }
    (soa, soa_events)
}

#[test]
fn equivalent_1901_saturated() {
    let (report, _) = assert_soa_equivalent(Simulation::ieee1901(3).horizon_us(2e6).seed(1));
    assert!(report.collided_tx > 0, "3 stations must collide");
}

#[test]
fn equivalent_1901_without_fast_forward() {
    // The slow per-slot path exercises idle_sweep on every idle slot.
    let (report, _) = assert_soa_equivalent(
        Simulation::ieee1901(3)
            .horizon_us(1e6)
            .seed(2)
            .fast_forward(false),
    );
    assert!(report.successes > 0);
}

#[test]
fn equivalent_dcf() {
    let (report, _) = assert_soa_equivalent(Simulation::dcf(3).horizon_us(2e6).seed(3));
    assert!(report.successes > 0);
}

#[test]
fn equivalent_with_per_slot_snapshots() {
    // Snapshot events reconstruct BackoffSnapshot from the SoA arrays
    // (stage/cw/bc/dc/bpc); any drift in the synthesis shows up here.
    let (_, events) = assert_soa_equivalent(
        Simulation::ieee1901(2)
            .horizon_us(2e5)
            .seed(4)
            .snapshots(true),
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Snapshot { .. })));
    let (_, dcf_events) =
        assert_soa_equivalent(Simulation::dcf(2).horizon_us(2e5).seed(4).snapshots(true));
    assert!(dcf_events
        .iter()
        .any(|e| matches!(e, TraceEvent::Snapshot { .. })));
}

#[test]
fn equivalent_with_retry_drops() {
    // Finite retry at high error rate forces FrameDropped bookkeeping
    // through the collision/failure pre-pass.
    let (report, events) = assert_soa_equivalent(
        Simulation::ieee1901(4)
            .horizon_us(2e6)
            .seed(5)
            .pb_error_prob(0.6)
            .retry(RetryPolicy::Limited { max_attempts: 2 }),
    );
    let dropped: u64 = report.metrics.per_station.iter().map(|s| s.dropped).sum();
    assert!(dropped > 0, "drops must occur");
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::FrameDropped { .. })));
}

#[test]
fn equivalent_poisson_traffic() {
    // Unsaturated stations exercise the active[] flags: stations leave
    // and re-enter the backlog, and reactivation draws one immediate BC.
    let (report, _) =
        assert_soa_equivalent(Simulation::ieee1901(3).horizon_us(2e6).seed(6).traffic(
            TrafficModel::Poisson {
                rate_per_us: 2e-4,
                queue_cap: 16,
            },
        ));
    assert!(report.successes > 0);
}

#[test]
fn equivalent_everything_at_once() {
    let (report, _) = assert_soa_equivalent(
        Simulation::ieee1901(3)
            .horizon_us(3e6)
            .seed(7)
            .beacons(plc_sim::engine::BeaconSchedule::standard_50hz())
            .noise([NoiseBurst {
                start_us: 5e5,
                duration_us: 1e5,
            }])
            .pb_error_prob(0.05)
            .burst(BurstPolicy::INT6300)
            .retry(RetryPolicy::Limited { max_attempts: 7 })
            .traffic(TrafficModel::OnOff {
                rate_per_us: 5e-4,
                mean_on_us: 2e5,
                mean_off_us: 1e5,
                queue_cap: 8,
            }),
    );
    assert!(report.metrics.beacons > 0);
}

#[test]
fn observer_snapshots_are_identical() {
    // EngineObs synthesizes per-station backoff state from the core.
    let observe = |soa: bool| {
        let collector = Arc::new(Mutex::new(plc_obs::CollectingObserver::default()));
        let report = Simulation::ieee1901(3)
            .horizon_us(1e6)
            .seed(8)
            .soa(soa)
            .observer(collector.clone(), 500)
            .run();
        let snaps = std::mem::take(&mut collector.lock().engine);
        (report, snaps)
    };
    let (soa_report, soa_snaps) = observe(true);
    let (obj_report, obj_snaps) = observe(false);
    assert_eq!(soa_report, obj_report);
    assert!(!soa_snaps.is_empty(), "periodic snapshots must arrive");
    assert_eq!(soa_snaps, obj_snaps, "observer snapshots diverged");
}

#[test]
fn sweep_json_is_byte_identical() {
    use plc_sim::sweep::SweepGrid;
    let json = |soa: bool| {
        SweepGrid::new(13)
            .config("1901", Simulation::ieee1901(2).horizon_us(5e5).soa(soa))
            .config("dcf", Simulation::dcf(2).horizon_us(5e5).soa(soa))
            .stations([1, 2, 5])
            .replications(2)
            .workers(2)
            .run()
            .to_json()
    };
    assert_eq!(json(true), json(false), "sweep JSON must not change");
}

/// Saturated population sizes on both sides of the 64-station bitset
/// word of the event-indexed layout.
const WORD_SPANNING: [usize; 5] = [63, 64, 65, 130, 500];

/// One digest per engine snapshot, so two runs compare every station's
/// backoff state step for step without holding N × steps snapshots.
#[derive(Default)]
struct DigestObserver(Vec<u64>);

impl plc_obs::Observer for DigestObserver {
    fn on_engine(&mut self, obs: &plc_obs::EngineObs) {
        // FNV-1a over whole words: a single differing word always
        // changes the digest.
        let mix = |h: u64, x: u64| (h ^ x).wrapping_mul(0x100_0000_01b3);
        let mut h = mix(0xcbf2_9ce4_8422_2325, obs.t_us.to_bits());
        h = mix(h, obs.idle_slots);
        h = mix(h, obs.successes);
        h = mix(h, obs.collision_events);
        for s in &obs.stations {
            h = mix(h, s.bc as u64 | (s.cw as u64) << 32);
            h = mix(h, s.bpc as u64 | (s.stage as u64) << 32);
            h = mix(h, s.dc.map_or(u64::MAX, u64::from));
        }
        self.0.push(h);
    }
}

/// [`assert_soa_equivalent`] for an `n`-station `sim`. Wire events
/// address stations by TEI, which holds at most 254 of them, so a larger
/// population cannot carry a sink: its reports must match, and an
/// observer compares every station's backoff state after every step
/// (observers force per-slot stepping).
fn assert_soa_equivalent_at(n: usize, sim: Simulation) -> SimReport {
    if n < 254 {
        return assert_soa_equivalent(sim).0;
    }
    let soa = sim.clone().soa(true).run();
    assert_eq!(soa, sim.clone().soa(false).run(), "N = {n} reports");
    let observe = |soa: bool| {
        let digests = Arc::new(Mutex::new(DigestObserver::default()));
        sim.clone().soa(soa).observer(digests.clone(), 1).run();
        let steps = std::mem::take(&mut digests.lock().0);
        steps
    };
    let (soa_steps, obj_steps) = (observe(true), observe(false));
    assert!(!soa_steps.is_empty());
    let diverged = soa_steps.iter().zip(&obj_steps).position(|(a, b)| a != b);
    assert_eq!(diverged, None, "N = {n}: backoff state diverged at step");
    assert_eq!(soa_steps.len(), obj_steps.len(), "N = {n} observed steps");
    soa
}

#[test]
fn equivalent_saturated_across_bitset_words() {
    for n in WORD_SPANNING {
        for ff in [true, false] {
            let report = assert_soa_equivalent_at(
                n,
                Simulation::ieee1901(n)
                    .horizon_us(1e6)
                    .seed(n as u64)
                    .fast_forward(ff),
            );
            assert!(report.collided_tx > 0, "N = {n} must collide");
        }
    }
}

#[test]
fn equivalent_snapshots_across_bitset_words() {
    for n in WORD_SPANNING.into_iter().filter(|&n| n < 254) {
        let (_, events) = assert_soa_equivalent(
            Simulation::ieee1901(n)
                .horizon_us(5e4)
                .seed(n as u64 + 1)
                .snapshots(true),
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Snapshot { station, .. } if *station == n - 1)));
    }
}

#[test]
fn equivalent_drops_and_beacons_across_bitset_words() {
    for n in WORD_SPANNING {
        let report = assert_soa_equivalent_at(
            n,
            Simulation::ieee1901(n)
                .horizon_us(1e6)
                .seed(n as u64 + 2)
                .retry(RetryPolicy::Limited { max_attempts: 2 })
                .beacons(plc_sim::engine::BeaconSchedule::standard_50hz()),
        );
        let dropped: u64 = report.metrics.per_station.iter().map(|s| s.dropped).sum();
        assert!(dropped > 0, "N = {n}: drops must occur");
        assert!(report.metrics.beacons > 0, "N = {n}: beacons must occur");
    }
}

#[test]
fn equivalent_wide_and_deferral_off_schedules_across_bitset_words() {
    // `cw128-g4-dc1901` reaches CW 8192 at stage 3: an 8192-bucket
    // transmit ring that the slot clock laps within the horizon, and at
    // N = 1000 more ring memory than the event layout may take (packed
    // there). `cw16-g2-dcoff` never files a deferral.
    let wide = CsmaConfig::from_vectors(&[128, 512, 2048, 8192], &[0, 1, 3, 15]).unwrap();
    let dcoff = CsmaConfig::from_vectors(&[16, 32, 64, 128], &[DC_DISABLED; 4]).unwrap();
    // The packed fallback needs no lap: a shorter horizon keeps it cheap.
    let cases = WORD_SPANNING
        .into_iter()
        .flat_map(|n| [(n, &wide, 3e6), (n, &dcoff, 3e6)])
        .chain([(1000, &wide, 1e6)]);
    for (n, config, horizon_us) in cases {
        let report = assert_soa_equivalent_at(
            n,
            Simulation::ieee1901(n)
                .config(config.clone())
                .horizon_us(horizon_us)
                .seed(n as u64 + 3),
        );
        let m = &report.metrics;
        assert!(m.successes > 0, "N = {n}");
        if config == &wide && n <= 500 {
            let slots = m.idle_slots + m.successes + m.collision_events;
            assert!(slots > 8192, "N = {n}: {slots} slots must lap the ring");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized populations and seeds through all four engine modes:
    /// the SoA core must agree with the per-object path with the
    /// fast-forward both on and off, under mixed traffic, errors and
    /// station priorities (each station draws its class; a population
    /// whose classes differ runs priority-resolution rounds).
    #[test]
    fn soa_matches_objects_for_random_populations(
        seed in 0u64..1000,
        n in 1usize..6,
        dcf in any::<bool>(),
        ff in any::<bool>(),
        rate in 1e-5f64..1e-3,
        pb_err in 0f64..0.3,
        classes in proptest::collection::vec(0u8..4, 5),
    ) {
        let run = |soa: bool| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let stations: Vec<StationSpec<AnyBackoff>> = classes[..n]
                .iter()
                .map(|&c| {
                    let priority = [Priority::CA0, Priority::CA1, Priority::CA2, Priority::CA3]
                        [c as usize];
                    let process: AnyBackoff = if dcf {
                        BackoffDcf::new(CsmaConfig::dcf_like(16, 6).expect("valid"), &mut rng)
                            .into()
                    } else {
                        Backoff1901::new(CsmaConfig::ieee1901_for(priority), &mut rng).into()
                    };
                    StationSpec {
                        priority,
                        traffic: TrafficModel::Poisson { rate_per_us: rate, queue_cap: 8 },
                        ..StationSpec::saturated(process)
                    }
                })
                .collect();
            let cfg = EngineConfig {
                fast_forward: ff,
                soa,
                pb_error_prob: pb_err,
                ..EngineConfig::with_horizon(Microseconds(3e5))
            };
            let sink = Arc::new(Mutex::new(VecTraceSink::new()));
            let mut engine = SlottedEngine::new(cfg, stations, seed);
            engine.add_sink(sink.clone());
            engine.run();
            let events = std::mem::take(&mut sink.lock().events);
            (engine.metrics().clone(), events)
        };
        let (soa_metrics, se) = run(true);
        let (obj_metrics, oe) = run(false);
        prop_assert_eq!(&soa_metrics, &obj_metrics);
        prop_assert_eq!(se, oe);
    }

    /// The same check for randomized saturated populations up to
    /// N = 200, four bitset words of the event layout (1901) or the
    /// packed sweep (DCF).
    #[test]
    fn soa_matches_objects_for_random_saturated_populations(
        seed in 0u64..1000,
        n in 1usize..=200,
        dcf in any::<bool>(),
        ff in any::<bool>(),
        pb_err in 0f64..0.3,
    ) {
        let base = if dcf { Simulation::dcf(n) } else { Simulation::ieee1901(n) };
        assert_soa_equivalent(
            base.horizon_us(3e5)
                .seed(seed)
                .fast_forward(ff)
                .pb_error_prob(pb_err),
        );
    }
}
