//! Observability must never perturb results: registries are read-only
//! with respect to the simulation and never touch its RNG streams. These
//! tests pin the strongest form of that guarantee at the workspace level
//! — the exported sweep JSON is byte-identical with and without
//! instrumentation, for one worker and for many.

use plc::prelude::*;
use plc_sim::sweep::SweepGrid;

fn grid(master_seed: u64) -> SweepGrid {
    SweepGrid::new(master_seed)
        .config("ca1", Simulation::ieee1901(1).horizon_us(2.0e5))
        .config("dcf", Simulation::dcf(1).horizon_us(2.0e5))
        .stations([2, 3, 5])
        .replications(2)
}

/// Sweep JSON is byte-identical across worker counts and with a live
/// registry attached — while the registry demonstrably records.
#[test]
fn sweep_json_is_byte_identical_with_observers_and_any_worker_count() {
    let baseline = grid(0x0B5).workers(1).run().to_json();

    let parallel = grid(0x0B5).workers(4).run().to_json();
    assert_eq!(baseline, parallel, "worker count changed sweep JSON");

    let registry = Registry::new();
    let observed = grid(0x0B5).workers(4).registry(&registry).run().to_json();
    assert_eq!(baseline, observed, "instrumentation changed sweep JSON");

    // The instrumentation genuinely ran: the registry counted every
    // (point, replication) cell, 2 configs × 3 N × 2 replications = 12.
    let cells = registry.snapshot().counter("sweep.cells");
    assert_eq!(cells, Some(12), "registry missed sweep cells");
}

/// A single simulation run is unchanged by an enabled registry (same
/// report fields to the last bit).
#[test]
fn engine_observer_does_not_perturb_single_run() {
    let sim = Simulation::ieee1901(4).horizon_us(5.0e5).seed(42);
    let plain = sim.run();

    let registry = Registry::new();
    let observed = sim.clone().registry(&registry).run();

    assert_eq!(plain.metrics, observed.metrics, "registry changed metrics");
    assert!(
        registry.snapshot().counter("engine.steps") > Some(0),
        "the engine never recorded"
    );
}
