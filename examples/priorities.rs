//! Priority classes CA0–CA3 and the two-slot priority resolution.
//!
//! The 1901 standard "specifies that only the stations belonging to the
//! highest contending priority class run the backoff process", decided by
//! busy tones in two priority-resolution slots. The paper leans on this
//! for its methodology: UDP data goes at CA1 while MMEs use CA2/CA3,
//! which is how the sniffer separates them.
//!
//! This example demonstrates both faces of the mechanism with the
//! slotted engine, which resolves priorities whenever its stations' classes
//! differ:
//!
//! 1. strict precedence — a saturated CA2 station starves saturated CA1
//!    stations completely;
//! 2. sharing under light high-priority load — a low-rate CA2 source
//!    (100 frames/s) is served as its frames arrive, and the example
//!    prints the share of all successes it takes from the CA1 stations.
//!
//! Run with: `cargo run --release --example priorities`

use plc::prelude::*;
use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};
use plc_stats::table::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Run `specs` to `horizon_us` and return the (CA1, CA2) success counts.
fn successes_by_class(
    specs: Vec<StationSpec<Backoff1901>>,
    horizon_us: f64,
    seed: u64,
) -> (u64, u64) {
    let classes: Vec<Priority> = specs.iter().map(|s| s.priority).collect();
    let cfg = EngineConfig::with_horizon(Microseconds::new(horizon_us));
    let mut engine = SlottedEngine::new(cfg, specs, seed);
    let metrics = engine.run();
    let count = |class: Priority| -> u64 {
        classes
            .iter()
            .zip(&metrics.per_station)
            .filter(|(&p, _)| p == class)
            .map(|(_, s)| s.successes)
            .sum()
    };
    (count(Priority::CA1), count(Priority::CA2))
}

fn spec(priority: Priority, traffic: TrafficModel, rng: &mut SmallRng) -> StationSpec<Backoff1901> {
    StationSpec {
        priority,
        traffic,
        ..StationSpec::saturated(Backoff1901::new(CsmaConfig::ieee1901_for(priority), rng))
    }
}

fn main() {
    let horizon = 2.0e7;

    // ---- Scenario 1: saturated CA2 vs saturated CA1 -------------------
    let mut rng = SmallRng::seed_from_u64(1);
    let saturated = successes_by_class(
        vec![
            spec(Priority::CA1, TrafficModel::Saturated, &mut rng),
            spec(Priority::CA1, TrafficModel::Saturated, &mut rng),
            spec(Priority::CA2, TrafficModel::Saturated, &mut rng),
        ],
        horizon,
        1,
    );

    // ---- Scenario 2: light CA2 over saturated CA1 ---------------------
    let mut rng = SmallRng::seed_from_u64(2);
    let light = successes_by_class(
        vec![
            spec(Priority::CA1, TrafficModel::Saturated, &mut rng),
            spec(Priority::CA1, TrafficModel::Saturated, &mut rng),
            spec(
                Priority::CA2,
                TrafficModel::Poisson {
                    rate_per_us: 1e-4,
                    queue_cap: 32,
                },
                &mut rng,
            ),
        ],
        horizon,
        2,
    );

    let mut table = Table::new(vec!["scenario", "CA1 successes", "CA2 successes"]);
    table.row(vec![
        "CA2 saturated".to_string(),
        saturated.0.to_string(),
        saturated.1.to_string(),
    ]);
    table.row(vec![
        "CA2 light (Poisson)".to_string(),
        light.0.to_string(),
        light.1.to_string(),
    ]);

    println!(
        "Priority resolution with 2×CA1 + 1×CA2 stations, {:.0} s\n",
        horizon / 1e6
    );
    println!("{}", table.render());
    let ca2_share = 100.0 * light.1 as f64 / (light.0 + light.1).max(1) as f64;
    println!(
        "Saturated CA2 wins every priority-resolution phase: CA1 gets zero.\n\
         Under light CA2 load (100 frames/s) priority resolution serves the CA2\n\
         frames as they arrive: CA2 takes {ca2_share:.1} % of all successes and the\n\
         two CA1 stations share the rest.\n"
    );
}
