//! The two workloads. An operation derives its inputs from the run's
//! seed and its own index, calls one public entry point of the
//! workspace, and checks every output into the run's [`Tally`].

use crate::checks::{self, Tally};
use crate::{timed, Bench, Layers, OpTime, Row, Trace};
use plc_analysis::{delay_summary, MeanFieldModel};
use plc_boost::{BoostConfig, BoostRun, Portfolio, SearchSpace};
use plc_core::error::{Error, Result};
use plc_core::timing::MacTiming;
use plc_jobs::{GroupMember, JobGroup, JobManifest, MANIFEST_FILE_NAME, RESULTS_FILE_NAME};
use plc_sim::sweep::derive_seed;
use plc_sim::{Simulation, SweepGrid};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated N = 500 single-cell simulations, one per worker thread
    /// at a time.
    SaturatedDense,
    /// The default boosting run, from an empty directory to `pareto.json`.
    BoostSearch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::SaturatedDense, Workload::BoostSearch];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturatedDense => "saturated_dense",
            Workload::BoostSearch => "boost_search",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub(crate) fn bench(self, seed: u64, smoke: bool) -> Box<dyn Bench> {
        // All load comes from one process with at most two threads, and
        // never more threads than cores.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        match self {
            Workload::SaturatedDense => Box::new(SaturatedDense {
                seed,
                horizon_us: if smoke { 2.0e5 } else { DENSE_HORIZON_US },
                workers,
            }),
            Workload::BoostSearch => Box::new(BoostSearch {
                seed,
                smoke,
                workers,
            }),
        }
    }
}

/// Stations in the saturated cell: the `engine_1901_n500_sat` shape.
const DENSE_STATIONS: usize = 500;
/// Simulated time of one saturated_dense operation, µs.
const DENSE_HORIZON_US: f64 = 1.0e9;

/// An operation runs one simulation on every worker thread at once and
/// lasts until the slowest is done. On a host whose cores slow down one
/// at a time, as shared virtual CPUs do when their hardware siblings get
/// busy, a single thread is as fast as the core it lands on, and that
/// changes from one process to the next; every core at once, waiting for
/// the slowest, is much steadier.
struct SaturatedDense {
    seed: u64,
    horizon_us: f64,
    workers: usize,
}

impl Bench for SaturatedDense {
    fn workers(&self) -> usize {
        self.workers
    }

    fn op(
        &self,
        index: u64,
        scale: f64,
        _dir: &Path,
        trace: Option<&mut Trace>,
        tally: &mut Tally,
    ) -> Result<OpTime> {
        let built = Instant::now();
        let sims: Vec<Simulation> = (0..self.workers as u64)
            .map(|lane| {
                let sim = Simulation::ieee1901(DENSE_STATIONS)
                    .horizon_us(self.horizon_us * scale)
                    .seed(derive_seed(self.seed, index, lane));
                match &trace {
                    Some(t) => sim.registry(&t.registry),
                    None => sim,
                }
            })
            .collect();
        let setup = built.elapsed().as_secs_f64();
        let (runs, wall, cpu) = timed(|| {
            std::thread::scope(|scope| {
                let lanes: Vec<_> = sims
                    .into_iter()
                    .map(|sim| {
                        scope.spawn(move || {
                            let started = Instant::now();
                            (sim.try_run(), started.elapsed().as_secs_f64())
                        })
                    })
                    .collect();
                lanes
                    .into_iter()
                    .map(|lane| lane.join())
                    .collect::<Vec<_>>()
            })
        })?;
        let mut slowest: f64 = 0.0;
        for run in runs {
            match run {
                Ok((report, secs)) => {
                    slowest = slowest.max(secs);
                    tally.record(
                        report
                            .map_err(|e| e.to_string())
                            .and_then(|r| checks::sim_report(&r)),
                    );
                }
                Err(_) => tally.record(Err("a simulation thread panicked".to_string())),
            }
        }
        if let Some(t) = trace {
            t.add("sim.run_s", slowest);
        }
        Ok(OpTime { setup, wall, cpu })
    }

    fn rows(&self, l: &Layers) -> Vec<Row> {
        let workers = self.workers as f64;
        vec![
            Row::top(
                "sim runs, slowest worker",
                l["sim.run_s"],
                "measured: Simulation::try_run span of the slowest worker thread",
            ),
            Row::part(
                "sim.engine busy-slot sweep per worker",
                l["engine.busy_s"] / workers,
                "measured: engine.step span / workers",
            ),
            Row::part(
                "sim.engine idle fast-forward per worker",
                l["engine.ff_s"] / workers,
                "measured: engine.fast_forward span / workers",
            ),
        ]
    }

    fn claims(&self, l: &Layers, _untraced_wall: f64) -> Vec<(String, bool)> {
        let (ff, fallbacks) = (l["engine.ff_share"], l["engine.soa_fallbacks"]);
        vec![
            (format!("engine.ff_share {ff} < 0.01"), ff < 0.01),
            (
                format!("engine.soa_fallbacks {fallbacks} = 0"),
                fallbacks == 0.0,
            ),
        ]
    }

    fn rate(&self, wall_s: f64) -> Option<(&'static str, f64)> {
        let simulated = self.workers as f64 * self.horizon_us * 1e-6;
        Some(("sim_s_per_s", simulated / wall_s))
    }
}

struct BoostSearch {
    seed: u64,
    smoke: bool,
    workers: usize,
}

impl BoostSearch {
    /// The run of operation `index`: the default search (the CI smoke
    /// search in smoke mode) with its seed derived from the run's.
    fn config(&self, dir: &Path, index: u64, scale: f64) -> BoostConfig {
        let mut cfg = if self.smoke {
            BoostConfig::smoke(dir)
        } else {
            BoostConfig::new(dir)
        };
        cfg.seed = derive_seed(self.seed, index, 0);
        cfg.workers = Some(self.workers);
        cfg.base_horizon_us *= scale;
        cfg
    }
}

impl Bench for BoostSearch {
    fn workers(&self) -> usize {
        self.workers
    }

    fn op(
        &self,
        index: u64,
        scale: f64,
        dir: &Path,
        mut trace: Option<&mut Trace>,
        tally: &mut Tally,
    ) -> Result<OpTime> {
        let run_dir = dir.join(format!("boost-{index}"));
        let cfg = self.config(&run_dir, index, scale);
        let created = Instant::now();
        let run = BoostRun::create(cfg.clone());
        let setup = created.elapsed().as_secs_f64();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                tally.record(Err(format!("BoostRun::create: {e}")));
                return Ok(OpTime {
                    setup,
                    wall: 0.0,
                    cpu: 0.0,
                });
            }
        };
        let run = match trace.as_deref_mut() {
            Some(t) => {
                t.add("job.create_s", setup);
                if let Err(e) = screen_layers(&cfg, t) {
                    tally.record(Err(format!("screen: {e}")));
                }
                run.registry(&t.registry)
            }
            None => run,
        };
        let (report, wall, cpu) = timed(|| run.run())?;
        let mut check = report
            .map_err(|e| e.to_string())
            .and_then(|r| checks::pareto(&r.artifact_path));
        if let (Some(t), Ok(())) = (trace, &check) {
            t.add("boost.run_s", wall);
            check =
                confirm_layers(&cfg, self.workers, t).map_err(|e| format!("confirm replay: {e}"));
        }
        tally.record(check);
        std::fs::remove_dir_all(&run_dir)?;
        Ok(OpTime { setup, wall, cpu })
    }

    fn rows(&self, l: &Layers) -> Vec<Row> {
        let workers = self.workers as f64;
        vec![
            Row::top(
                "boost screen",
                l["boost.screen_s"],
                "measured: screen_space on the run's space and portfolio",
            ),
            Row::part(
                "analysis fixed point",
                l["analysis.fixed_point_s"],
                "measured: MeanFieldModel::solve per screened (candidate, n)",
            ),
            Row::part(
                "analysis delay walk",
                l["analysis.delay_walk_s"],
                "measured: delay_summary per screened (candidate, n)",
            ),
            Row::top(
                "boost confirm rungs, replayed",
                l["boost.confirm_replay_s"],
                "measured: JobGroup::run of every rung, rebuilt as the run built it, uninstrumented",
            ),
            Row::part(
                "sim.sweep cell work per worker",
                l["sweep.cell_s"] / workers,
                "measured in the instrumented replay: sweep.cell span / workers",
            ),
            Row::part(
                "sim.engine busy-slot sweep per worker",
                l["engine.busy_s"] / workers,
                "measured in the instrumented replay: engine.step span / workers",
            ),
            Row::part(
                "sim.engine idle fast-forward per worker",
                l["engine.ff_s"] / workers,
                "measured in the instrumented replay: engine.fast_forward span / workers",
            ),
            Row::part(
                "jobs journal appends in the run (collector thread)",
                l["job.checkpoint_flush_s"],
                "measured: job.checkpoint_flush span, overlaps the cell work",
            ),
            Row::derived(
                "boost confirm rungs",
                l["boost.confirm_s"],
                "derived: BoostRun::run span - boost.screen_s; not in the coverage",
            ),
        ]
    }

    fn claims(&self, l: &Layers, untraced_wall: f64) -> Vec<(String, bool)> {
        let screen = l["boost.screen_s"];
        vec![(
            format!("boost.screen_s {screen} >= half of untraced wall_s {untraced_wall}"),
            screen >= 0.5 * untraced_wall,
        )]
    }

    fn rate(&self, _wall_s: f64) -> Option<(&'static str, f64)> {
        None
    }
}

/// The search space and the portfolio `cfg` names.
fn space_and_portfolio(cfg: &BoostConfig) -> Result<(SearchSpace, Portfolio)> {
    let space = SearchSpace::named(&cfg.space)
        .ok_or_else(|| Error::invalid_config(format!("unknown space {}", cfg.space)))?;
    let portfolio = Portfolio::named(&cfg.portfolio)
        .ok_or_else(|| Error::invalid_config(format!("unknown portfolio {}", cfg.portfolio)))?;
    Ok((space, portfolio))
}

/// The screen's work again, timed from outside: `screen_space` whole,
/// then the fixed point and the delay walk of every (candidate, n) pair
/// it solves.
fn screen_layers(cfg: &BoostConfig, trace: &mut Trace) -> Result<()> {
    let (space, portfolio) = space_and_portfolio(cfg)?;
    let timing = MacTiming::paper_default();
    let started = Instant::now();
    black_box(plc_boost::screen_space(&space, &portfolio, &timing, None)?);
    trace.add("boost.screen_s", started.elapsed().as_secs_f64());
    for candidate in &space.candidates {
        let config = candidate.config()?;
        for scenario in &portfolio.scenarios {
            for &n in &scenario.stations {
                let n = scenario.screen_n(n);
                let started = Instant::now();
                let solution = MeanFieldModel::single(config.clone(), n).solve()?;
                trace.add("analysis.fixed_point_s", started.elapsed().as_secs_f64());
                let class = &solution.classes[0];
                let slots = delay_walk_slots(class.mean_access_delay_slots);
                let started = Instant::now();
                black_box(delay_summary(
                    &config,
                    class.tau,
                    class.collision_probability,
                    n,
                    &timing,
                    slots,
                ));
                trace.add("analysis.delay_walk_s", started.elapsed().as_secs_f64());
                trace.add("analysis.delay_walk_slots", slots as f64);
            }
        }
    }
    Ok(())
}

/// The confirm rungs again, timed from outside. Every rung's `JobGroup`
/// is rebuilt as `BoostRun` builds it, with the survivors its member
/// manifests list in their order, and run twice in directories of its
/// own: plain, then with the engine and the sweep recording into the
/// trace's registry, which slows them; each replay is timed.
/// Both replays must write the same `results.json` as the run did, or
/// they measured other work.
fn confirm_layers(cfg: &BoostConfig, workers: usize, trace: &mut Trace) -> Result<()> {
    let (space, portfolio) = space_and_portfolio(cfg)?;
    let registry = trace.registry.clone();
    for rung in 1..=cfg.rungs {
        let ran = cfg.dir.join(format!("rung{rung}"));
        let horizon = cfg.base_horizon_us * 4.0f64.powi(rung as i32 - 1);
        for (replay, total, instrument) in [
            ("replay", "boost.confirm_replay_s", None),
            (
                "replay-traced",
                "boost.confirm_traced_replay_s",
                Some(&registry),
            ),
        ] {
            let replay = cfg.dir.join(replay).join(format!("rung{rung}"));
            let mut members = Vec::new();
            for (si, scenario) in portfolio.scenarios.iter().enumerate() {
                let path = ran.join(&scenario.name).join(MANIFEST_FILE_NAME);
                let manifest: JobManifest = serde_json::from_str(&std::fs::read_to_string(&path)?)
                    .map_err(|e| Error::runtime(format!("{}: {e}", path.display())))?;
                let mut grid = SweepGrid::new(derive_seed(cfg.seed, rung as u64, si as u64))
                    .stations(scenario.stations.iter().copied())
                    .replications(cfg.replications)
                    .workers(workers);
                if let Some(r) = instrument {
                    grid = grid.registry(r);
                }
                for label in manifest.configs {
                    let candidate = space
                        .candidate(&label)
                        .ok_or_else(|| Error::runtime(format!("unknown candidate {label}")))?;
                    let mut template = scenario.template(&candidate.config()?, horizon);
                    if let Some(r) = instrument {
                        template = template.registry(r);
                    }
                    grid = grid.config(label, template);
                }
                members.push(GroupMember::new(scenario.name.clone(), grid));
            }
            let group = JobGroup::new(&replay, members)?;
            let started = Instant::now();
            group.run()?;
            trace.add(total, started.elapsed().as_secs_f64());
            for scenario in &portfolio.scenarios {
                let results =
                    |dir: &Path| std::fs::read(dir.join(&scenario.name).join(RESULTS_FILE_NAME));
                if results(&ran)? != results(&replay)? {
                    return Err(Error::runtime(format!(
                        "rung{rung}/{}: the replay wrote other results",
                        scenario.name
                    )));
                }
            }
        }
    }
    Ok(())
}

/// The delay-walk length `plc_analysis::screen_schedule` uses: fifty
/// mean delays, clamped to 1 000 – 100 000 slots.
fn delay_walk_slots(mean_slots: f64) -> usize {
    if mean_slots.is_finite() {
        (mean_slots * 50.0).ceil().clamp(1_000.0, 100_000.0) as usize
    } else {
        100_000
    }
}
