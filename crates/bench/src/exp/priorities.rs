//! E2 — the CA0–CA3 priority classes (Table 1's two columns) on the
//! slotted engine, whose priority resolution decides between classes.
//!
//! Two questions:
//!
//! 1. *within-class performance*: the CA2/CA3 table caps CW at 32, so at
//!    larger N the delay-sensitive table collides more than CA0/CA1 —
//!    the cost of bounded access delay. One class never resolves, so
//!    these curves are plain single-class runs;
//! 2. *cross-class precedence*: strict starvation under saturation, and
//!    near-zero impact of light high-priority traffic (the paper's MME
//!    background).

use crate::RunOpts;
use plc_analysis::CoupledModel;
use plc_core::config::CsmaConfig;
use plc_core::error::Result;
use plc_core::priority::Priority;
use plc_core::units::Microseconds;
use plc_mac::Backoff1901;
use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};
use plc_sim::{Simulation, TrafficModel};
use plc_stats::table::{fmt_prob, Table};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Collision probability of N same-class saturated stations, per class
/// table, simulated plus predicted by the model.
pub fn class_collision_curves(opts: &RunOpts) -> Vec<(usize, f64, f64, f64, f64)> {
    let ca01 = CoupledModel::new(CsmaConfig::ieee1901_ca01());
    let ca23 = CoupledModel::new(CsmaConfig::ieee1901_ca23());
    (1..=7usize)
        .map(|n| {
            let sim = |prio: Priority, seed: u64| {
                Simulation::ieee1901(n)
                    .config(CsmaConfig::ieee1901_for(prio))
                    .horizon_us(opts.horizon_us())
                    .seed(seed)
                    .run()
                    .collision_probability
            };
            (
                n,
                sim(Priority::CA1, 30 + n as u64),
                ca01.solve(n).collision_probability,
                sim(Priority::CA3, 60 + n as u64),
                ca23.solve(n).collision_probability,
            )
        })
        .collect()
}

/// Cross-class scenario: 2×CA1 saturated + 1×CA2 Poisson(100 frames/s),
/// returning the (CA1, CA2) success counts.
pub fn cross_class_successes(opts: &RunOpts) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(5);
    let ca1 = |rng: &mut SmallRng| {
        StationSpec::saturated(Backoff1901::new(CsmaConfig::ieee1901_ca01(), rng))
    };
    let stations = vec![
        ca1(&mut rng),
        ca1(&mut rng),
        StationSpec {
            priority: Priority::CA2,
            traffic: TrafficModel::Poisson {
                rate_per_us: 1e-4,
                queue_cap: 32,
            },
            ..StationSpec::saturated(Backoff1901::new(CsmaConfig::ieee1901_ca23(), &mut rng))
        },
    ];
    let cfg = EngineConfig::with_horizon(Microseconds::new(opts.horizon_us()));
    let mut e = SlottedEngine::new(cfg, stations, 5);
    let per_station = &e.run().per_station;
    (
        per_station[0].successes + per_station[1].successes,
        per_station[2].successes,
    )
}

/// Render the experiment.
pub fn run(opts: &RunOpts) -> Result<String> {
    let span = opts.obs.timer("exp.priorities.curves").start();
    let mut t = Table::new(vec!["N", "CA1 sim", "CA1 model", "CA3 sim", "CA3 model"]);
    for (n, s01, m01, s23, m23) in class_collision_curves(opts) {
        t.row(vec![
            n.to_string(),
            fmt_prob(s01),
            fmt_prob(m01),
            fmt_prob(s23),
            fmt_prob(m23),
        ]);
    }

    drop(span);
    let _cross = opts.obs.timer("exp.priorities.cross_class").start();
    let (ca1, ca2) = cross_class_successes(opts);

    Ok(format!(
        "E2 — priority classes (Table 1 columns) under priority resolution\n\n\
         Per-class collision probability, N same-class saturated stations:\n\n{}\n\
         The CA2/CA3 table (CW capped at 32) collides more at large N — bounded\n\
         windows buy bounded access delay at the cost of collisions.\n\n\
         Cross-class: 2×CA1 saturated + 1×CA2 Poisson(100 frames/s):\n\
         CA1 successes = {}, CA2 successes = {} — light high-priority traffic\n\
         preempts per-frame but barely dents CA1 throughput.\n",
        t.render(),
        ca1,
        ca2,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_output_is_pinned() {
        // Every simulated column of E2 at smoke horizons, bit for bit:
        // (N, CA1 sim, CA3 sim) as `f64::to_bits`, then the cross-class
        // (CA1, CA2) success counts.
        const CURVES: [(usize, u64, u64); 7] = [
            (1, 0, 0),
            (2, 4589283497204057744, 4591049270767791454),
            (3, 4595758653891565418, 4595462207721559250),
            (4, 4596934707073066579, 4596963724908673826),
            (5, 4597055981768060080, 4598406833240398327),
            (6, 4596842793620018873, 4599643784641158099),
            (7, 4596459562544373370, 4599511452401748981),
        ];
        const CROSS: (u64, u64) = (100, 45);
        let opts = RunOpts::smoke();
        let got: Vec<(usize, u64, u64)> = class_collision_curves(&opts)
            .into_iter()
            .map(|(n, s01, _, s23, _)| (n, s01.to_bits(), s23.to_bits()))
            .collect();
        assert_eq!(got, CURVES, "E2 class curves moved");
        assert_eq!(cross_class_successes(&opts), CROSS, "E2 cross-class moved");
    }

    #[test]
    fn ca23_collides_more_at_every_n() {
        // The CA2/CA3 table halves the stage-2/3 windows, so it collides
        // more — visibly even at N = 2, where a loser cascades into the
        // capped stages within a few busy rounds.
        let rows = class_collision_curves(&RunOpts::quick());
        for &(n, s01, m01, s23, m23) in &rows[1..] {
            assert!(s23 > s01, "N={n}: CA3 sim {s23} vs CA1 sim {s01}");
            assert!(m23 > m01, "N={n}: CA3 model {m23} vs CA1 model {m01}");
            // Model tracks the PRS-engine simulation per class.
            assert!(
                (s01 - m01).abs() < 0.035,
                "N={n}: CA1 sim {s01} vs model {m01}"
            );
            assert!(
                (s23 - m23).abs() < 0.035,
                "N={n}: CA3 sim {s23} vs model {m23}"
            );
        }
    }
}
