//! Topology equivalence suite.
//!
//! The topology layer's core contract: a fully-connected [`Topology`] is
//! *byte-identical* to the pre-topology single-domain engine — reports,
//! trace event streams and sweep JSON — and spatial topologies degrade
//! it in exactly the physically expected directions (hidden terminals
//! jam, exposed cells defer, isolated cells reuse the medium).
//!
//! The numeric pins below were captured on the engine *before* the
//! topology layer landed; they keep every refactor honest about the
//! legacy path.

use parking_lot::Mutex;
use plc_sim::runner::Simulation;
use plc_sim::{Backend, Scenario, SweepGrid, Topology, TraceEvent, VecTraceSink};
use proptest::prelude::*;
use std::sync::Arc;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 1_469_598_103_934_665_603;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(1_099_511_628_211);
    }
    h
}

fn events_of(sim: Simulation) -> (plc_sim::SimReport, Vec<TraceEvent>) {
    let sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let report = sim.sink(sink.clone()).run();
    let events = sink.lock().events.clone();
    (report, events)
}

/// Two 2-station cells `gap_m` apart: ~34 dB cross-SNR at 10 m (sensed),
/// the hidden band at 80 m, full isolation at 200 m (short-link channel,
/// default thresholds).
fn two_cells(gap_m: f64) -> Topology {
    Topology::builder()
        .cell(&[(0.0, 0.0), (2.0, 0.0)])
        .cell(&[(gap_m, 0.0), (gap_m + 2.0, 0.0)])
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------
// Pre-topology golden pins: the legacy path must not move.
// ---------------------------------------------------------------------

#[test]
fn fully_connected_pins_pre_topology_goldens() {
    struct Pin {
        n: usize,
        horizon: f64,
        seed: u64,
        p: f64,
        s: f64,
        successes: u64,
        collided_tx: u64,
        idle_slots: u64,
        elapsed_us: f64,
        events: usize,
    }
    let pins = [
        Pin {
            n: 4,
            horizon: 1e6,
            seed: 42,
            p: 0.19759036144578312,
            s: 0.6823498206668956,
            successes: 333,
            collided_tx: 82,
            idle_slots: 1030,
            elapsed_us: 1000439.9199999949,
            events: 2233,
        },
        Pin {
            n: 3,
            horizon: 2e6,
            seed: 7,
            p: 0.12125,
            s: 0.7200360386243548,
            successes: 703,
            collided_tx: 97,
            idle_slots: 2060,
            elapsed_us: 2001497.0400000392,
            events: 4411,
        },
        Pin {
            n: 6,
            horizon: 5e5,
            seed: 11,
            p: 0.215962441314554,
            s: 0.681836396229651,
            successes: 167,
            collided_tx: 46,
            idle_slots: 369,
            elapsed_us: 502099.92000000575,
            events: 984,
        },
    ];
    for pin in pins {
        let legacy = Simulation::ieee1901(pin.n)
            .horizon_us(pin.horizon)
            .seed(pin.seed);
        let scenario = Scenario::ieee1901(Topology::fully_connected(pin.n))
            .simulation()
            .horizon_us(pin.horizon)
            .seed(pin.seed);
        let (lr, le) = events_of(legacy);
        let (sr, se) = events_of(scenario);
        assert_eq!(lr, sr, "n={}: scenario ≠ legacy report", pin.n);
        assert_eq!(le, se, "n={}: scenario ≠ legacy trace", pin.n);
        assert_eq!(lr.collision_probability, pin.p, "n={}", pin.n);
        assert_eq!(lr.norm_throughput, pin.s, "n={}", pin.n);
        assert_eq!(lr.successes, pin.successes, "n={}", pin.n);
        assert_eq!(lr.collided_tx, pin.collided_tx, "n={}", pin.n);
        assert_eq!(lr.metrics.idle_slots, pin.idle_slots, "n={}", pin.n);
        assert_eq!(lr.elapsed_us, pin.elapsed_us, "n={}", pin.n);
        assert_eq!(le.len(), pin.events, "n={}", pin.n);
    }
}

#[test]
fn dcf_pins_pre_topology_golden() {
    let (lr, le) = events_of(Simulation::dcf(3).horizon_us(1e6).seed(5));
    let (sr, se) = events_of(
        Scenario::dcf(Topology::fully_connected(3))
            .simulation()
            .horizon_us(1e6)
            .seed(5),
    );
    assert_eq!(lr, sr);
    assert_eq!(le, se);
    assert_eq!(lr.collision_probability, 0.22355769230769232);
    assert_eq!(lr.successes, 323);
    assert_eq!(lr.collided_tx, 93);
}

#[test]
fn sweep_json_pins_pre_topology_golden() {
    let json = SweepGrid::new(99)
        .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
        .stations([2, 4])
        .replications(2)
        .workers(2)
        .run()
        .to_json();
    assert!(
        json.starts_with(
            "{\"master_seed\":99,\"replications\":2,\"points\":[{\"Ok\":{\"config\":\"ca1\",\"n\":2,"
        ),
        "sweep JSON prefix changed: {}",
        &json[..80.min(json.len())]
    );
    // The bytes pinned before sweep points carried an `attempts` field;
    // retrying a point is the job layer's, and its count lives in the
    // journal (`job_attempts`), not in the sweep JSON.
    assert_eq!(json.len(), 1248, "sweep JSON length changed");
    assert_eq!(
        fnv1a(&json),
        14124080075401720860,
        "sweep JSON bytes changed"
    );
}

#[test]
fn fully_connected_run_topology_wraps_the_legacy_report() {
    let sim = Simulation::ieee1901(3).horizon_us(1e6).seed(9);
    let md = sim.try_run_topology().unwrap();
    let legacy = sim.run();
    assert_eq!(md.report, legacy);
    assert_eq!(md.cells, vec![legacy]);
    assert_eq!(md.jammed_tx, 0);
    assert_eq!(md.sensed_defers, 0);
}

// ---------------------------------------------------------------------
// Single-cell spatial topology ≡ legacy engine with the derived timing.
// ---------------------------------------------------------------------

#[test]
fn uniform_link_cell_reproduces_legacy_timings_byte_identically() {
    // A symmetric 4 m cell derives one MacTiming for both stations; the
    // spatial path must then reduce to the legacy engine run with that
    // timing — same seed, same trace, same metrics.
    let topo = Topology::builder()
        .cell(&[(0.0, 0.0), (4.0, 0.0)])
        .link_payload_bytes(36 * 1024)
        .build()
        .unwrap();
    let derived = topo.station_timing(0).unwrap();
    assert_eq!(derived, topo.station_timing(1).unwrap());

    let sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let md = Simulation::ieee1901(2)
        .topology(topo)
        .horizon_us(1e6)
        .seed(21)
        .sink(sink.clone())
        .try_run_topology()
        .unwrap();
    let spatial_events = sink.lock().events.clone();

    let (legacy, legacy_events) = events_of(
        Simulation::ieee1901(2)
            .timing(derived)
            .horizon_us(1e6)
            .seed(21),
    );
    assert_eq!(md.cells.len(), 1);
    assert_eq!(
        md.cells[0], legacy,
        "per-cell report ≠ legacy with derived timing"
    );
    assert_eq!(md.report.metrics, legacy.metrics, "merged metrics ≠ legacy");
    assert_eq!(spatial_events, legacy_events, "trace streams differ");
    assert_eq!(md.jammed_tx, 0);
    assert_eq!(md.sensed_defers, 0);
    // The derived timing is genuinely different from the paper default,
    // so this equivalence is not vacuous.
    assert_ne!(
        derived,
        plc_core::timing::MacTiming::paper_default(),
        "link-derived timing should differ from the paper default"
    );
}

// ---------------------------------------------------------------------
// Hidden-terminal golden: interference without carrier sense destroys
// throughput relative to the same cells in isolation.
// ---------------------------------------------------------------------

#[test]
fn hidden_terminal_cells_lose_throughput() {
    let run = |topo: Topology| {
        Simulation::ieee1901(4)
            .topology(topo)
            .horizon_us(2e6)
            .seed(3)
            .try_run_topology()
            .unwrap()
    };
    let isolated = run(two_cells(200.0));
    let hidden = run(two_cells(80.0));

    assert_eq!(isolated.jammed_tx, 0);
    assert_eq!(isolated.sensed_defers, 0);
    assert!(
        isolated.report.metrics.mpdus_ok > 0,
        "isolated cells must deliver"
    );

    // Hidden band: cells cannot sense each other, only jam.
    assert_eq!(hidden.sensed_defers, 0, "hidden cells must never defer");
    assert!(hidden.jammed_tx > 0, "hidden cells must jam each other");
    for c in 0..2 {
        assert!(
            hidden.cells[c].metrics.mpdus_ok < isolated.cells[c].metrics.mpdus_ok,
            "cell {c}: hidden-terminal victim must deliver strictly less \
             ({} vs isolated {})",
            hidden.cells[c].metrics.mpdus_ok,
            isolated.cells[c].metrics.mpdus_ok
        );
    }
    assert!(
        hidden.report.norm_throughput < isolated.report.norm_throughput,
        "aggregate throughput must degrade under hidden interference"
    );
}

#[test]
fn exposed_cells_sense_and_share_the_medium() {
    let exposed = Simulation::ieee1901(4)
        .topology(two_cells(10.0))
        .horizon_us(2e6)
        .seed(3)
        .try_run_topology()
        .unwrap();
    assert!(
        exposed.sensed_defers > 0,
        "cells in sense range must defer to each other"
    );
    assert!(
        exposed.report.metrics.mpdus_ok > 0,
        "sensing cells still share the medium and deliver"
    );
}

#[test]
fn isolated_cells_reuse_the_medium() {
    // Two isolated cells each behave like an independent 2-station
    // network; aggregate delivery ≈ 2× a single cell, and normalized
    // throughput (vs one wire's airtime) exceeds any single-domain run.
    let single = Simulation::ieee1901(2).horizon_us(2e6).seed(3).run();
    let reuse = Simulation::ieee1901(4)
        .topology(two_cells(200.0))
        .horizon_us(2e6)
        .seed(3)
        .try_run_topology()
        .unwrap();
    assert!(
        reuse.report.metrics.mpdus_ok as f64 > 1.5 * single.metrics.mpdus_ok as f64,
        "spatial reuse must nearly double delivery: {} vs single {}",
        reuse.report.metrics.mpdus_ok,
        single.metrics.mpdus_ok
    );
    assert!(
        reuse.report.norm_throughput > single.norm_throughput,
        "aggregate normalized throughput exceeds one domain under reuse"
    );
}

// ---------------------------------------------------------------------
// Domain sharding: worker count must never change a byte.
// ---------------------------------------------------------------------

#[test]
fn domain_workers_do_not_change_results() {
    // Mixed component structure: a hidden-coupled pair plus two isolated
    // cells — the sharded path must reproduce the sequential one exactly,
    // traces included.
    let topo = Topology::builder()
        .cell(&[(0.0, 0.0), (2.0, 0.0)])
        .cell(&[(80.0, 0.0), (82.0, 0.0)])
        .cell(&[(400.0, 0.0), (402.0, 0.0)])
        .cell(&[(700.0, 0.0), (702.0, 0.0), (704.0, 0.0)])
        .build()
        .unwrap();
    assert_eq!(topo.components().len(), 3);

    let run = |workers: usize| {
        let sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let md = Simulation::ieee1901(topo.num_stations())
            .topology(topo.clone())
            .horizon_us(1e6)
            .seed(17)
            .domain_workers(workers)
            .sink(sink.clone())
            .try_run_topology()
            .unwrap();
        let events = sink.lock().events.clone();
        (md, events)
    };
    let (a, ae) = run(1);
    let (b, be) = run(4);
    assert_eq!(a, b, "domain worker count changed the report");
    assert_eq!(ae, be, "domain worker count changed the trace stream");
    assert!(!ae.is_empty());
}

#[test]
fn trace_station_ids_are_global() {
    let topo = two_cells(200.0);
    let sink = Arc::new(Mutex::new(VecTraceSink::new()));
    Simulation::ieee1901(4)
        .topology(topo)
        .horizon_us(5e5)
        .seed(2)
        .sink(sink.clone())
        .try_run_topology()
        .unwrap();
    let events = sink.lock().events.clone();
    let mut seen = [false; 4];
    for ev in &events {
        if let TraceEvent::Success { station, .. } = ev {
            seen[*station] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "every station must appear under its global id: {seen:?}"
    );
}

// ---------------------------------------------------------------------
// Backend gating.
// ---------------------------------------------------------------------

#[test]
fn meanfield_rejects_multidomain_topologies() {
    let sim = Simulation::ieee1901(4)
        .topology(two_cells(200.0))
        .backend(Backend::MeanField);
    let err = sim.try_run().unwrap_err();
    assert!(
        err.to_string()
            .contains("mean-field backend does not model"),
        "unexpected error: {err}"
    );
    let err = sim.try_run_topology().unwrap_err();
    assert!(
        err.to_string()
            .contains("mean-field backend does not model"),
        "unexpected error: {err}"
    );
}

#[test]
fn spatial_try_build_is_a_typed_error() {
    let err = Simulation::ieee1901(4)
        .topology(two_cells(200.0))
        .try_build()
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.to_string().contains("no single slotted engine"),
        "unexpected error: {err}"
    );
}

#[test]
fn spatial_topologies_gate_unsupported_knobs() {
    let base = || Simulation::ieee1901(4).topology(two_cells(200.0));
    let err = base()
        .beacons(plc_sim::BeaconSchedule {
            period: plc_core::units::Microseconds(33_333.0),
            duration: plc_core::units::Microseconds(110.48),
        })
        .try_run_topology()
        .unwrap_err();
    assert!(err.to_string().contains("beacon"), "{err}");
    let err = base().snapshots(true).try_run_topology().unwrap_err();
    assert!(err.to_string().contains("snapshots"), "{err}");
}

// ---------------------------------------------------------------------
// SoA fallback: the rejection reason is typed and counted.
// ---------------------------------------------------------------------

#[test]
fn soa_fallback_reason_is_typed_and_counted() {
    use plc_core::units::Microseconds;
    use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf};
    use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};
    use rand::SeedableRng;
    // IEEE 1901 counts its backoff down on every contention slot, DCF on
    // idle slots only: a population of both has no one backoff clock, so
    // the SoA core must decline — with a reason.
    let build = |soa: bool| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let stations: Vec<StationSpec<AnyBackoff>> = vec![
            StationSpec::saturated(Backoff1901::default_ca1(&mut rng).into()),
            StationSpec::saturated(BackoffDcf::classic(&mut rng).into()),
        ];
        let cfg = EngineConfig {
            soa,
            ..EngineConfig::with_horizon(Microseconds(2e5))
        };
        SlottedEngine::new(cfg, stations, 1)
    };
    let registry = plc_obs::Registry::new();
    let mut engine = build(true);
    engine.instrument(&registry).unwrap();
    let why = engine
        .soa_rejection()
        .expect("a mixed-protocol population must surface a rejection reason");
    assert!(
        why.to_string().contains("different protocol"),
        "unexpected reason: {why}"
    );
    assert_eq!(
        registry.snapshot().counter("engine.soa_fallbacks"),
        Some(1),
        "the fallback must be counted"
    );
    // The per-object fallback is exact: same results as soa(false).
    let with_fallback = engine.run().clone();
    assert!(with_fallback.per_station.iter().all(|s| s.successes > 0));
    assert_eq!(with_fallback, *build(false).run());
}

#[test]
fn representable_configs_do_not_count_fallbacks() {
    let registry = plc_obs::Registry::new();
    Simulation::ieee1901(2)
        .horizon_us(2e5)
        .seed(1)
        .registry(&registry)
        .run();
    assert_eq!(registry.snapshot().counter("engine.soa_fallbacks"), Some(0));
}

#[test]
fn multidomain_registry_counters_flow() {
    let registry = plc_obs::Registry::new();
    let md = Simulation::ieee1901(4)
        .topology(two_cells(80.0))
        .horizon_us(1e6)
        .seed(3)
        .registry(&registry)
        .try_run_topology()
        .unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("multidomain.cells"), Some(2));
    assert_eq!(snap.counter("multidomain.components"), Some(1));
    assert_eq!(snap.counter("multidomain.jammed_tx"), Some(md.jammed_tx));
    assert_eq!(
        snap.counter("multidomain.sensed_defers"),
        Some(md.sensed_defers)
    );
}

// ---------------------------------------------------------------------
// Random hearing matrices: determinism and conservation under any
// coupling structure.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_hearing_matrices_run_deterministically(
        n in 2usize..7,
        assign_pool in proptest::collection::vec(0usize..3, 6),
        sense_bits in proptest::collection::vec(any::<bool>(), 36),
        interfere_bits in proptest::collection::vec(any::<bool>(), 36),
        seed in any::<u64>(),
    ) {
        let assign = &assign_pool[..n];
        // Group stations into cells by assignment label (first-seen
        // order); within-cell pairs always sense, cross pairs follow the
        // random bits (from_matrices symmetrizes and folds sense into
        // interference).
        let mut labels: Vec<usize> = Vec::new();
        let mut cells: Vec<Vec<usize>> = Vec::new();
        for (i, &a) in assign.iter().enumerate() {
            match labels.iter().position(|&l| l == a) {
                Some(c) => cells[c].push(i),
                None => {
                    labels.push(a);
                    cells.push(vec![i]);
                }
            }
        }
        let same_cell = |i: usize, j: usize| assign[i] == assign[j];
        let mut sense = vec![vec![false; n]; n];
        let mut interfere = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                sense[i][j] = same_cell(i, j) || sense_bits[i * 6 + j];
                interfere[i][j] = interfere_bits[i * 6 + j];
            }
        }
        let topo = Topology::from_matrices(cells, sense, interfere).unwrap();
        let num_cells = topo.num_cells();
        let sim = Simulation::ieee1901(n)
            .topology(topo)
            .horizon_us(5e4)
            .seed(seed);
        let a = sim.try_run_topology().unwrap();
        let b = sim.try_run_topology().unwrap();
        prop_assert_eq!(&a, &b, "same seed must reproduce byte-identically");
        let c = sim.clone().domain_workers(3).try_run_topology().unwrap();
        prop_assert_eq!(&a, &c, "worker count must not change results");

        prop_assert_eq!(a.report.metrics.per_station.len(), n);
        prop_assert_eq!(a.cells.len(), num_cells);
        let per_station: u64 = a.report.metrics.per_station.iter().map(|s| s.successes).sum();
        prop_assert_eq!(per_station, a.report.metrics.successes);
        let cell_succ: u64 = a.cells.iter().map(|c| c.successes).sum();
        prop_assert_eq!(cell_succ, a.report.metrics.successes);
        prop_assert!(a.report.elapsed_us >= 5e4);
    }
}
