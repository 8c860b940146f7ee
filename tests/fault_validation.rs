//! Workspace-level pins of ISSUE 4's determinism contract: for a fixed
//! `(master_seed, FaultPlan)` the whole measurement stack — fault-injected
//! testbed runs and panic-contained sweeps — produces byte-identical JSON
//! regardless of worker count or an attached registry. Fault injection is
//! allowed to *change* results (that is its job); it is never allowed to
//! make them *irreproducible*.

use plc::prelude::*;
use plc_faults::{FaultPlan, RetryPolicy};
use plc_sim::sweep::SweepGrid;
use plc_testbed::CollisionExperiment;

/// The chaos plan used throughout: lossy bus, one brownout, 32-bit
/// counters.
fn plan(duration_us: f64) -> FaultPlan {
    FaultPlan::builder()
        .seed(0xFA17)
        .mme_loss(0.2)
        .mme_delay(0.1, 400.0)
        .device_reset_at(0, duration_us * 0.5)
        .counter_wrap_u32()
        .build()
}

fn chaos_experiment(seed: u64) -> CollisionExperiment {
    let mut exp = CollisionExperiment::quick(3, seed);
    exp.duration = Microseconds::from_secs(3.0);
    exp.faults = Some(plan(exp.duration.as_micros()));
    exp.checkpoints = 6;
    exp.retry = RetryPolicy::with_attempts(32);
    exp
}

/// Same seed + same plan → byte-identical outcome JSON, with or without
/// an observability registry attached.
#[test]
fn chaos_experiment_is_deterministic_and_observer_independent() {
    let exp = chaos_experiment(41);
    let plain = serde_json::to_string(&exp.run().unwrap()).unwrap();
    let again = serde_json::to_string(&exp.run().unwrap()).unwrap();
    assert_eq!(plain, again, "same (seed, plan) must reproduce exactly");

    let registry = Registry::new();
    let observed = serde_json::to_string(&exp.run_observed(&registry).unwrap()).unwrap();
    assert_eq!(plain, observed, "observation must not perturb the outcome");
    // ... but the registry really was fed by the fault layer.
    let snap = registry.snapshot();
    assert!(snap.counter("faults.mme.lost_request").unwrap_or(0) > 0);
    assert!(snap.counter("testbed.mme.retries").unwrap_or(0) > 0);

    // A different fault seed genuinely changes the transport schedule
    // without changing the stitched measurement's medium-side inputs.
    let mut other = chaos_experiment(41);
    other.faults = Some(
        FaultPlan::builder()
            .seed(0xBEEF)
            .mme_loss(0.2)
            .device_reset_at(0, other.duration.as_micros() * 0.5)
            .counter_wrap_u32()
            .build(),
    );
    let outcome = other.run().unwrap();
    assert!(
        outcome.discontinuities > 0,
        "the reset must still be stitched under the other plan"
    );
}

/// Sweeps with noise bursts injected into the engine are byte-identical
/// across worker counts.
#[test]
fn noisy_sweep_json_is_worker_count_and_observer_invariant() {
    let noisy = |seed: u64| {
        Simulation::ieee1901(1)
            .horizon_us(2.0e6)
            .seed(seed)
            .noise([plc_faults::NoiseBurst {
                start_us: 5.0e5,
                duration_us: 2.0e5,
            }])
    };
    let grid = |workers: usize| {
        SweepGrid::new(0xFA17)
            .config("noisy", noisy(1))
            .stations([2, 4, 6])
            .replications(3)
            .workers(workers)
    };
    let serial = grid(1).run().to_json();
    let fanned = grid(4).run().to_json();
    assert_eq!(serial, fanned, "worker count must not leak into results");
}

/// A panicking point is contained as a `Failed` record while every other
/// point matches the fault-free sweep byte-for-byte — at the workspace
/// level, through the facade's public API.
#[test]
fn sweep_panic_containment_leaves_other_points_untouched() {
    let good = Simulation::ieee1901(1).horizon_us(1.0e6).seed(9);
    let mut bad_timing = MacTiming::paper_default();
    bad_timing.slot = Microseconds(-1.0);
    let bad = Simulation::ieee1901(1)
        .horizon_us(1.0e6)
        .seed(9)
        .timing(bad_timing);

    let mixed = SweepGrid::new(7)
        .config("good", good.clone())
        .config("bad", bad)
        .stations([2, 3])
        .replications(2)
        .run();
    let clean = SweepGrid::new(7)
        .config("good", good)
        .stations([2, 3])
        .replications(2)
        .run();

    let mut failures = 0;
    for point in &mixed.points {
        if point.config() == "bad" {
            let reason = point.failure().expect("bad config must fail");
            assert!(reason.contains("MacTiming"), "reason: {reason}");
            failures += 1;
        } else {
            let twin = clean.point("good", point.n()).expect("clean twin exists");
            assert_eq!(
                serde_json::to_string(point).unwrap(),
                serde_json::to_string(twin).unwrap(),
                "healthy points must be unaffected by the failing config"
            );
        }
    }
    assert_eq!(failures, 2, "every bad point is a contained failure");
}
