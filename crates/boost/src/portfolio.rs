//! Named scenario portfolios: what a candidate schedule is judged on.
//!
//! Boosting for one operating point overfits — a schedule tuned for 30
//! saturated stations can starve a lightly-loaded cell. A [`Portfolio`]
//! is a weighted set of [`PortfolioScenario`]s (traffic model ×
//! topology × station counts) and the optimizer aggregates every
//! objective across the whole set, so a winning schedule has to be good
//! *everywhere it is weighted to matter*. Like search spaces,
//! portfolios are code-defined and looked up by name, so the boost
//! manifest pins the exact evaluation conditions across resumes.

use plc_core::config::CsmaConfig;
use plc_sim::{Simulation, TrafficModel};
use serde::{Deserialize, Serialize};

/// The scenario family: how stations load and see the medium.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Always-backlogged single contention domain — the paper's setting.
    Saturated,
    /// Poisson arrivals into bounded queues (unsaturated MAC).
    Poisson {
        /// Mean arrival rate per station, frames/µs.
        rate_per_us: f64,
        /// Per-station queue capacity in frames.
        queue_cap: usize,
    },
    /// Stations split into isolated cells of `cell_size` — the
    /// multi-domain path (neighbouring-network coexistence).
    Cells {
        /// Stations per contention domain.
        cell_size: usize,
    },
}

/// One weighted evaluation scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioScenario {
    /// Scenario name — becomes the member-job subdirectory of a rung,
    /// so it must be a plain path component.
    pub name: String,
    /// Traffic/topology family.
    pub kind: ScenarioKind,
    /// Station counts evaluated under this scenario.
    pub stations: Vec<usize>,
    /// Relative weight of each of this scenario's grid points in the
    /// aggregated objectives.
    pub weight: f64,
}

impl PortfolioScenario {
    /// The simulation template confirm rungs sweep for `config` — the
    /// sweep grid sets each station count on it, rebuilding the cell
    /// layout for [`ScenarioKind::Cells`].
    pub fn template(&self, config: &CsmaConfig, horizon_us: f64) -> Simulation {
        let sim = Simulation::ieee1901(1)
            .config(config.clone())
            .horizon_us(horizon_us);
        match self.kind {
            ScenarioKind::Saturated => sim,
            ScenarioKind::Poisson {
                rate_per_us,
                queue_cap,
            } => sim.traffic(TrafficModel::Poisson {
                rate_per_us,
                queue_cap,
            }),
            ScenarioKind::Cells { cell_size } => sim.cells_of(cell_size),
        }
    }

    /// The contention-domain size the analytic screen solves for `n`
    /// total stations: cells contend per cell, everything else in one
    /// domain.
    pub fn screen_n(&self, n: usize) -> usize {
        match self.kind {
            ScenarioKind::Cells { cell_size } => n.min(cell_size).max(1),
            _ => n,
        }
    }
}

/// A named, weighted scenario set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Portfolio {
    /// Registry name (`default`, `smoke`).
    pub name: String,
    /// The scenarios; names are unique plain path components.
    pub scenarios: Vec<PortfolioScenario>,
}

impl Portfolio {
    /// Look a portfolio up by registry name.
    pub fn named(name: &str) -> Option<Portfolio> {
        match name {
            "default" => Some(Self::default_portfolio()),
            "smoke" => Some(Self::smoke_portfolio()),
            _ => None,
        }
    }

    /// The known portfolio names, for usage lines.
    pub fn names() -> &'static [&'static str] {
        &["default", "smoke"]
    }

    /// The production portfolio: saturated single-domain at N ∈
    /// {5, 15, 30} (full weight), Poisson-unsaturated at N = 10
    /// (quarter weight) and 5-station isolated cells at N = 20 (half
    /// weight).
    pub fn default_portfolio() -> Portfolio {
        Portfolio {
            name: "default".to_string(),
            scenarios: vec![
                PortfolioScenario {
                    name: "saturated".to_string(),
                    kind: ScenarioKind::Saturated,
                    stations: vec![5, 15, 30],
                    weight: 1.0,
                },
                PortfolioScenario {
                    name: "poisson".to_string(),
                    kind: ScenarioKind::Poisson {
                        rate_per_us: 3.0e-5,
                        queue_cap: 8,
                    },
                    stations: vec![10],
                    weight: 0.25,
                },
                PortfolioScenario {
                    name: "cells".to_string(),
                    kind: ScenarioKind::Cells { cell_size: 5 },
                    stations: vec![20],
                    weight: 0.5,
                },
            ],
        }
    }

    /// A two-scenario portfolio for CI smoke runs.
    pub fn smoke_portfolio() -> Portfolio {
        Portfolio {
            name: "smoke".to_string(),
            scenarios: vec![
                PortfolioScenario {
                    name: "saturated".to_string(),
                    kind: ScenarioKind::Saturated,
                    stations: vec![3, 8],
                    weight: 1.0,
                },
                PortfolioScenario {
                    name: "cells".to_string(),
                    kind: ScenarioKind::Cells { cell_size: 4 },
                    stations: vec![8],
                    weight: 0.5,
                },
            ],
        }
    }

    /// Total weight across every (scenario, n) grid point.
    pub fn total_weight(&self) -> f64 {
        self.scenarios
            .iter()
            .map(|s| s.weight * s.stations.len() as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_sim::sweep::SweepGrid;

    #[test]
    fn portfolios_are_pinned() {
        let p = Portfolio::default_portfolio();
        assert_eq!(p.scenarios.len(), 3);
        assert!((p.total_weight() - 3.75).abs() < 1e-12);
        let s = Portfolio::smoke_portfolio();
        assert_eq!(s.scenarios.len(), 2);
        for name in Portfolio::names() {
            assert!(Portfolio::named(name).is_some());
        }
    }

    #[test]
    fn cells_screen_per_cell_and_templates_build() {
        let p = Portfolio::default_portfolio();
        let cells = &p.scenarios[2];
        assert_eq!(cells.screen_n(20), 5);
        assert_eq!(p.scenarios[0].screen_n(30), 30);
        let cfg = CsmaConfig::ieee1901_ca01();
        for s in &p.scenarios {
            // A template must actually run once the sweep grid has set
            // its station count, as in a confirm rung.
            let n = s.stations[0];
            let results = SweepGrid::new(1)
                .config(s.name.clone(), s.template(&cfg, 5.0e4))
                .stations([n])
                .workers(1)
                .run();
            let summary = results
                .point(&s.name, n)
                .and_then(|point| point.summary())
                .expect("portfolio template runs");
            assert!(summary.norm_throughput.mean > 0.0, "{}", s.name);
        }
    }
}
