//! Bit-for-bit pins of the coupled-cell coordinator.
//!
//! `topology_equivalence` checks coupled runs only by direction (hidden
//! cells jam, exposed cells defer) and by determinism. This suite pins
//! what the coordinator writes: for each case, a 64-bit FNV-1a hash of
//! the `MultiDomainReport` JSON and one of the event stream a
//! `VecTraceSink` collects. Every case also runs without a sink, which
//! must give the same report.
//!
//! A change that is meant to move coupled results re-blesses these
//! values once and says so in CHANGES.md; a failing run prints every
//! case's actual hashes.

use parking_lot::Mutex;
use plc_core::CancelToken;
use plc_faults::NoiseBurst;
use plc_mac::retry::RetryPolicy;
use plc_sim::runner::Simulation;
use plc_sim::{BurstPolicy, MultiDomainReport, Topology, TraceEvent, TrafficModel, VecTraceSink};
use std::sync::Arc;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 1_469_598_103_934_665_603;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(1_099_511_628_211);
    }
    h
}

/// Two 2-station cells `gap_m` apart: sensed at 10 m, hidden at 80 m
/// (short-link channel, default thresholds).
fn two_cells(gap_m: f64) -> Topology {
    Topology::builder()
        .cell(&[(0.0, 0.0), (2.0, 0.0)])
        .cell(&[(gap_m, 0.0), (gap_m + 2.0, 0.0)])
        .build()
        .unwrap()
}

/// A pair of cells `gap_m` apart under `protocol`'s defaults.
fn pair(protocol: fn(usize) -> Simulation, gap_m: f64) -> Simulation {
    protocol(4)
        .topology(two_cells(gap_m))
        .horizon_us(1e6)
        .seed(3)
}

/// The four cells of `domain_workers_do_not_change_results`: a hidden
/// pair plus two isolated cells.
fn four_cells() -> Topology {
    Topology::builder()
        .cell(&[(0.0, 0.0), (2.0, 0.0)])
        .cell(&[(80.0, 0.0), (82.0, 0.0)])
        .cell(&[(400.0, 0.0), (402.0, 0.0)])
        .cell(&[(700.0, 0.0), (702.0, 0.0), (704.0, 0.0)])
        .build()
        .unwrap()
}

/// One cell whose stations derive different timings from their links.
fn uneven_cell() -> Topology {
    Topology::builder()
        .cell(&[(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)])
        .link_payload_bytes(36 * 1024)
        .build()
        .unwrap()
}

fn noise() -> Vec<NoiseBurst> {
    [(1.0e5, 2.0e4), (3.0e5, 5.0e4), (6.0e5, 1.0e5)]
        .map(|(start_us, duration_us)| NoiseBurst {
            start_us,
            duration_us,
        })
        .to_vec()
}

/// Every pinned case, in [`PINS`] order. Each pair runs plain and with
/// each knob the coordinator reads. At 80 m every success is jammed, so
/// noise and PB errors change nothing there; the 10 m pair delivers and
/// pins them.
fn cases() -> Vec<(String, Simulation)> {
    let mut cases = vec![
        (
            "four cells, 1 domain worker".to_string(),
            Simulation::ieee1901(9)
                .topology(four_cells())
                .horizon_us(1e6)
                .seed(17),
        ),
        (
            "four cells, 4 domain workers".to_string(),
            Simulation::ieee1901(9)
                .topology(four_cells())
                .horizon_us(1e6)
                .seed(17)
                .domain_workers(4),
        ),
        (
            "one cell, uneven link timings".to_string(),
            Simulation::ieee1901(3)
                .topology(uneven_cell())
                .horizon_us(1e6)
                .seed(5),
        ),
    ];
    for gap in [10.0, 80.0] {
        let ieee = pair(Simulation::ieee1901, gap);
        let variants = [
            ("plain", ieee.clone()),
            ("impulse noise", ieee.clone().noise(noise())),
            (
                "INT6300 bursts, 2 attempts",
                ieee.clone()
                    .burst(BurstPolicy::INT6300)
                    .retry(RetryPolicy::Limited { max_attempts: 2 }),
            ),
            (
                "Poisson traffic",
                ieee.clone().traffic(TrafficModel::Poisson {
                    rate_per_us: 5e-4,
                    queue_cap: 20,
                }),
            ),
            ("PB errors", ieee.clone().pb_error_prob(0.05)),
            ("DCF", pair(Simulation::dcf, gap)),
            ("unfired cancel token", ieee.cancel(CancelToken::new())),
        ];
        for (name, sim) in variants {
            cases.push((format!("{gap} m, {name}"), sim));
        }
    }
    cases
}

/// (case, report JSON hash, event stream hash).
const PINS: &[(&str, u64, u64)] = &[
    (
        "four cells, 1 domain worker",
        11483080968215673913,
        11052587308348749299,
    ),
    (
        "four cells, 4 domain workers",
        11483080968215673913,
        11052587308348749299,
    ),
    (
        "one cell, uneven link timings",
        9184588203257323932,
        131365552149505502,
    ),
    ("10 m, plain", 3090524082826627005, 2492839038283202557),
    (
        "10 m, impulse noise",
        3592556842349683066,
        5813012473564602653,
    ),
    (
        "10 m, INT6300 bursts, 2 attempts",
        14083090171508762773,
        15096952816900273373,
    ),
    (
        "10 m, Poisson traffic",
        11458395343444649295,
        15374031875665161105,
    ),
    (
        "10 m, PB errors",
        11575228541624657400,
        12634740768803000779,
    ),
    ("10 m, DCF", 11601174931633439487, 13348626321913088748),
    (
        "10 m, unfired cancel token",
        3090524082826627005,
        2492839038283202557,
    ),
    ("80 m, plain", 17572127234668587494, 11347267477123521587),
    (
        "80 m, impulse noise",
        17572127234668587494,
        11347267477123521587,
    ),
    (
        "80 m, INT6300 bursts, 2 attempts",
        5482669035182198605,
        15397703130982566317,
    ),
    (
        "80 m, Poisson traffic",
        3049001349085236154,
        5538536012401829643,
    ),
    (
        "80 m, PB errors",
        17572127234668587494,
        11347267477123521587,
    ),
    ("80 m, DCF", 6750556009570821303, 8543103911274429458),
    (
        "80 m, unfired cancel token",
        17572127234668587494,
        11347267477123521587,
    ),
];

/// Run `sim` with a sink and without; the two reports must agree.
fn run(sim: &Simulation) -> (MultiDomainReport, Vec<TraceEvent>) {
    let sink = Arc::new(Mutex::new(VecTraceSink::new()));
    let traced = sim.clone().sink(sink.clone()).try_run_topology().unwrap();
    let plain = sim.try_run_topology().unwrap();
    assert_eq!(traced, plain, "attaching a sink changed the report");
    let events = std::mem::take(&mut sink.lock().events);
    (traced, events)
}

fn hashes(report: &MultiDomainReport, events: &[TraceEvent]) -> (u64, u64) {
    (
        fnv1a(&serde_json::to_string(report).unwrap()),
        fnv1a(&serde_json::to_string(events).unwrap()),
    )
}

#[test]
fn coupled_runs_write_the_pinned_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len());
    let mut wrong = Vec::new();
    for ((name, sim), &(pinned_name, report_hash, events_hash)) in cases.iter().zip(PINS) {
        assert_eq!(name, pinned_name);
        let (report, events) = run(sim);
        let got = hashes(&report, &events);
        if got != (report_hash, events_hash) {
            wrong.push(format!("(\"{name}\", {}, {}),", got.0, got.1));
        }
    }
    assert!(
        wrong.is_empty(),
        "coordinator output moved; actual values:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn every_variant_reaches_the_coordinator() {
    // Each knob must move the 10 m pair's bytes, or its pin is vacuous.
    let pins: Vec<(u64, u64)> = PINS
        .iter()
        .filter(|(name, ..)| name.starts_with("10 m,"))
        .map(|&(_, r, e)| (r, e))
        .collect();
    let plain = pins[0];
    let last = pins.len() - 1;
    for (k, &p) in pins.iter().enumerate().skip(1) {
        if k == last {
            assert_eq!(p, plain, "an unfired token must change nothing");
        } else {
            assert_ne!(p, plain, "10 m variant {k} pins the plain run's bytes");
        }
    }
    let sensed = run(&pair(Simulation::ieee1901, 10.0)).0;
    assert!(sensed.sensed_defers > 0 && sensed.jammed_tx < sensed.report.successes);
    let hidden = run(&pair(Simulation::ieee1901, 80.0)).0;
    assert_eq!(hidden.sensed_defers, 0);
    assert!(hidden.jammed_tx > 0);
}

#[test]
fn uneven_cell_runs_on_the_coordinator() {
    let topo = uneven_cell();
    let timings: Vec<_> = (0..3).map(|i| topo.station_timing(i).unwrap()).collect();
    assert!(
        timings.windows(2).any(|w| w[0] != w[1]),
        "per-station timings must differ, or the cell runs isolated"
    );
    let (md, _) = run(&Simulation::ieee1901(3)
        .topology(topo)
        .horizon_us(1e6)
        .seed(5));
    assert_eq!(md.report.successes, 184);
    assert_eq!(md.report.collided_tx, 34);
}

#[test]
fn limited_retries_drop_frames_on_the_coordinator() {
    let (md, events) = run(&pair(Simulation::ieee1901, 80.0)
        .burst(BurstPolicy::INT6300)
        .retry(RetryPolicy::Limited { max_attempts: 2 }));
    let drops = events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::FrameDropped { .. }))
        .count() as u64;
    assert!(drops > 0, "two attempts must drop some frames");
    let dropped: u64 = md
        .report
        .metrics
        .per_station
        .iter()
        .map(|s| s.dropped)
        .sum();
    assert_eq!(drops, dropped);
}
