//! Zero-allocation pins for the engine hot loops and the mean-field
//! delay walk.
//!
//! The SoA contention core (its rings and clocks, or its batched RNG
//! draw buffer) and the reused scratch vectors exist so that
//! steady-state stepping never touches the heap. This test pins that
//! property with a counting global allocator: running the same scenario
//! for horizon `H` and `2·H` must perform the **same number of
//! allocations** — everything the engine allocates happens at build
//! time or during the first steps (warmup growth of reusable buffers),
//! never per step thereafter.
//!
//! The counter is thread-local, so tests running concurrently in other
//! threads cannot perturb a measurement.

use plc_sim::runner::Simulation;
use plc_sim::traffic::TrafficModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(|c| c.get());
    let out = f();
    (out, ALLOCS.with(|c| c.get()) - before)
}

/// Build + run the given scenario and return its allocation count.
/// Successes are asserted so a silently-idle run can't pass vacuously;
/// a saturated N = 500 cell collides on (nearly) every busy slot, so
/// there collisions are asserted instead.
fn engine_allocs(n: usize, horizon_us: f64, fast_forward: bool, soa: bool) -> u64 {
    traffic_allocs(n, TrafficModel::Saturated, horizon_us, fast_forward, soa)
}

/// [`engine_allocs`] with every station on the given arrival model.
fn traffic_allocs(
    n: usize,
    traffic: TrafficModel,
    horizon_us: f64,
    fast_forward: bool,
    soa: bool,
) -> u64 {
    let sim = Simulation::ieee1901(n)
        .horizon_us(horizon_us)
        .seed(42)
        .traffic(traffic)
        .fast_forward(fast_forward)
        .soa(soa);
    let (report, count) = allocs_during(|| sim.run());
    if n >= 500 {
        assert!(report.metrics.collision_events > 0);
    } else {
        assert!(report.successes > 0);
    }
    count
}

#[test]
fn saturated_run_does_not_allocate_per_step() {
    // Doubling the horizon doubles the steps; if the steady-state loop
    // allocated even once per step, the counts would differ by
    // thousands. Build-time and warmup allocations are identical.
    let short = engine_allocs(10, 1e6, true, true);
    let long = engine_allocs(10, 2e6, true, true);
    assert_eq!(
        short, long,
        "hot loop allocated ({long} allocs at 2x horizon vs {short})"
    );
}

#[test]
fn per_slot_path_does_not_allocate_per_step() {
    let short = engine_allocs(10, 1e6, false, true);
    let long = engine_allocs(10, 2e6, false, true);
    assert_eq!(short, long, "per-slot path allocated per step");
}

#[test]
fn event_layout_at_benchmark_size_does_not_allocate_per_step() {
    // The saturated N = 500 shape of the benchmark: the event-indexed
    // core's rings and clocks are allocated once per engine, with the
    // fast-forward on and off.
    for fast_forward in [true, false] {
        let short = engine_allocs(500, 1e6, fast_forward, true);
        let long = engine_allocs(500, 2e6, fast_forward, true);
        assert_eq!(
            short, long,
            "N = 500 (fast-forward {fast_forward}) allocated per step"
        );
    }
}

#[test]
fn object_reference_path_does_not_allocate_per_step() {
    let short = engine_allocs(10, 1e6, true, false);
    let long = engine_allocs(10, 2e6, true, false);
    assert_eq!(short, long, "per-object path allocated per step");
}

#[test]
fn poisson_run_does_not_allocate_per_step() {
    // The default portfolio's unsaturated cell: arrivals, queue drains
    // and backlog-flag updates stay off the heap on every engine path.
    let poisson = TrafficModel::Poisson {
        rate_per_us: 3.0e-5,
        queue_cap: 8,
    };
    for (fast_forward, soa) in [(true, true), (false, true), (true, false)] {
        let short = traffic_allocs(10, poisson, 2e6, fast_forward, soa);
        let long = traffic_allocs(10, poisson, 4e6, fast_forward, soa);
        assert_eq!(
            short, long,
            "Poisson N = 10 (fast-forward {fast_forward}, soa {soa}) allocated per step"
        );
    }
}

#[test]
fn mixed_priority_round_does_not_allocate_per_round() {
    use plc_core::config::CsmaConfig;
    use plc_core::priority::Priority;
    use plc_mac::Backoff1901;
    use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};

    // Four saturated CA1 stations under a light CA3 source: every step
    // past the first rounds opens or runs a priority-resolution round,
    // on both the packed core and the per-object path.
    let run = |horizon_us: f64, soa: bool| {
        let (successes, count) = allocs_during(|| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut stations = Vec::new();
            for _ in 0..4 {
                stations.push(StationSpec::saturated(Backoff1901::new(
                    CsmaConfig::ieee1901_ca01(),
                    &mut rng,
                )));
            }
            stations.push(StationSpec {
                priority: Priority::CA3,
                traffic: TrafficModel::Poisson {
                    rate_per_us: 2e-5,
                    queue_cap: 8,
                },
                ..StationSpec::saturated(Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng))
            });
            let cfg = EngineConfig {
                soa,
                ..EngineConfig::with_horizon(plc_core::units::Microseconds(horizon_us))
            };
            let mut engine = SlottedEngine::new(cfg, stations, 7);
            let m = engine.run();
            (m.per_station[0].successes, m.per_station[4].successes)
        });
        assert!(
            successes.0 > 0 && successes.1 > 0,
            "both classes win rounds"
        );
        count
    };
    for soa in [true, false] {
        let short = run(1e6, soa);
        let long = run(2e6, soa);
        assert_eq!(
            short, long,
            "mixed-priority round (soa {soa}) allocated per round"
        );
    }
}

#[test]
fn delay_walk_does_not_allocate_per_slot() {
    // The mean-field backend's delay walk steps two stage buffers and
    // streams its quantiles: a 100× longer walk makes no more allocations.
    let config = plc_core::config::CsmaConfig::ieee1901_ca01();
    let timing = plc_core::timing::MacTiming::paper_default();
    let walk = |max_slots: usize| {
        let (summary, count) = allocs_during(|| {
            plc_analysis::delay_summary(&config, 0.05, 0.3, 10, &timing, max_slots)
        });
        assert!(summary.p50_slots.is_some());
        count
    };
    let short = walk(1_000);
    let long = walk(100_000);
    assert_eq!(short, long, "delay walk allocated per slot");
}
