//! Deterministic parallel parameter sweeps.
//!
//! Every paper experiment is a sweep: run the simulator over a grid of
//! (configuration × station count) points, replicate each point with
//! decorrelated seeds, and summarize the replications with confidence
//! intervals. This module is the one implementation of that pattern, so
//! experiments stop hand-rolling their own thread scopes:
//!
//! * [`parallel_map`] — a fixed-size worker pool that evaluates arbitrary
//!   per-point work and returns results **in input order**, so output is
//!   bit-identical regardless of worker count or OS scheduling;
//! * [`SweepGrid`] — a builder over (config × N) points with `replications`
//!   per point. Per-replication seeds derive from
//!   [`derive_seed`]`(master_seed, point_index, replication)` via SplitMix64,
//!   so every replication stream is decorrelated and reproducible no matter
//!   how the points are scheduled;
//! * per-point [`Welford`] accumulators are merged in replication order into
//!   a [`ReplicationSummary`] grid, optionally stopping a point early once
//!   its 95% CI half-width undercuts a target;
//! * panics inside a replication are **contained** per point
//!   ([`SweepPointResult::Failed`]), optionally replayed under a
//!   [`SweepGrid::retries`] budget (same seeds, so a recovered retry is
//!   byte-identical to a first-try success);
//! * [`SweepGrid::run_point_at`] / [`SweepGrid::run_point_with`] expose
//!   single-point evaluation (with optional cooperative cancellation)
//!   for external job engines that journal and resume points
//!   individually — see the `plc-jobs` crate;
//! * [`SweepResults`] serializes to JSON through
//!   [`export::sweep_results_json`](crate::export::sweep_results_json).
//!
//! ```
//! use plc_sim::sweep::SweepGrid;
//! use plc_sim::Simulation;
//!
//! let results = SweepGrid::new(42)
//!     .config("ca1", Simulation::ieee1901(1).horizon_us(2.0e5))
//!     .stations([2, 3])
//!     .replications(2)
//!     .workers(2)
//!     .run();
//! assert_eq!(results.points.len(), 2);
//! assert_eq!(results.points[0].summary().unwrap().collision_probability.count, 2);
//! ```

use crate::runner::{ReplicationSummary, SimReport, Simulation};
use plc_stats::summary::Welford;
use serde::{Deserialize, Serialize};

/// The SplitMix64 finalizer: one full avalanche round. A bijection on
/// `u64`, so distinct inputs always map to distinct outputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for one `(point, replication)` cell of a sweep from the
/// master seed.
///
/// The pair is packed into one word (`point_index` in the high 32 bits,
/// `replication` in the low 32) and pushed through the SplitMix64
/// finalizer twice. Because the finalizer is a bijection and the packing
/// is injective, the derivation is **provably injective** over
/// `(point_index, replication)` for any fixed master seed as long as both
/// coordinates stay below 2³².
///
/// This replaces ad-hoc `seed + k` schemes whose replication streams for
/// adjacent master seeds overlap (master 3, replication 1 colliding with
/// master 4, replication 0).
pub fn derive_seed(master_seed: u64, point_index: u64, replication: u64) -> u64 {
    debug_assert!(point_index < 1 << 32, "sweep points limited to 2^32");
    debug_assert!(replication < 1 << 32, "replications limited to 2^32");
    let cell = (point_index << 32) | (replication & 0xFFFF_FFFF);
    splitmix64(splitmix64(master_seed) ^ cell.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Number of workers used when the caller does not pick one: the machine's
/// available parallelism (at least 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluate `f(index, item)` for every item on a fixed-size worker pool
/// and return the results **in input order**.
///
/// Work is distributed through a shared queue; finished results flow back
/// over a channel and are reassembled by index, so the output is a pure
/// function of the inputs — bit-identical for 1 worker or 64, whatever the
/// OS scheduler does. `f` must itself be deterministic in `(index, item)`
/// for that guarantee to carry through.
///
/// ```
/// let squares = plc_sim::sweep::parallel_map(4, (0u64..100).collect(), |_, x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn parallel_map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    parallel_map_with_progress(workers, items, f, |_| {})
}

/// [`parallel_map`] with a progress callback.
///
/// `on_done` is invoked with the number of completed items (1 ≤ n ≤
/// `items.len()`) from the **calling thread** (the result collector), in
/// completion order — it observes progress without being able to affect
/// the results, which stay bit-identical for any worker count.
pub fn parallel_map_with_progress<I, T, F, P>(
    workers: usize,
    items: Vec<I>,
    f: F,
    mut on_done: P,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
    P: FnMut(usize),
{
    let mut done = 0usize;
    parallel_map_observed(workers, items, f, |_, _| {
        done += 1;
        on_done(done);
    })
}

/// The worker-pool core every `parallel_map` variant builds on: evaluate
/// `f(index, item)` on a fixed-size pool, calling `on_result(index,
/// &result)` from the **calling thread** (the result collector) as each
/// item completes, in completion order.
///
/// `on_result` sees results before input-order reassembly — progress
/// reporting uses it to count finished items as they land — but it
/// receives only a shared reference, so it cannot perturb the returned
/// vector, which stays bit-identical for any worker count.
///
/// Execution is delegated to [`BatchRunner`](crate::batch::BatchRunner)
/// with static round-robin sharding; see that type for the full
/// determinism contract (and for per-shard registry merging, which this
/// registry-less wrapper does not expose).
pub fn parallel_map_observed<I, T, F, P>(
    workers: usize,
    items: Vec<I>,
    f: F,
    on_result: P,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
    P: FnMut(usize, &T),
{
    crate::batch::BatchRunner::new()
        .workers(workers)
        .run_observed(items, |i, item, _| f(i, item), on_result)
}

/// Render a caught panic payload as a human-readable reason string.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-point quantity an early-stopping rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quantity {
    /// `SimReport::collision_probability`.
    CollisionProbability,
    /// `SimReport::norm_throughput`.
    NormThroughput,
    /// `SimReport::jain_fairness`.
    JainFairness,
}

/// Stop replicating a point once the watched quantity's 95% CI half-width
/// drops below `ci95_half_width` (checked only after `min_replications`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStop {
    /// The quantity whose confidence interval is watched.
    pub quantity: Quantity,
    /// Target half-width of the 95% confidence interval.
    pub ci95_half_width: f64,
    /// Never stop before this many replications (CI estimates below ~3
    /// observations are meaningless).
    pub min_replications: u64,
}

/// Builder for a deterministic (config × N × replication) sweep.
///
/// Point indices are row-major over `configs × stations`: the point for
/// config `c` and the `i`-th station count has
/// `point_index = c * stations.len() + i`. Replication `k` of that point
/// runs with seed [`derive_seed`]`(master_seed, point_index, k)`.
#[derive(Clone)]
pub struct SweepGrid {
    configs: Vec<(String, Simulation)>,
    stations: Vec<usize>,
    replications: u64,
    master_seed: u64,
    workers: usize,
    retries: u32,
    early_stop: Option<EarlyStop>,
    observers: Vec<plc_obs::SharedObserver>,
    registry: Option<plc_obs::Registry>,
}

impl std::fmt::Debug for SweepGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepGrid")
            .field("configs", &self.configs)
            .field("stations", &self.stations)
            .field("replications", &self.replications)
            .field("master_seed", &self.master_seed)
            .field("workers", &self.workers)
            .field("retries", &self.retries)
            .field("early_stop", &self.early_stop)
            .field("observers", &self.observers.len())
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl SweepGrid {
    /// Empty grid with a master seed; defaults to 1 replication and the
    /// machine's available parallelism.
    pub fn new(master_seed: u64) -> Self {
        SweepGrid {
            configs: Vec::new(),
            stations: Vec::new(),
            replications: 1,
            master_seed,
            workers: default_workers(),
            retries: 0,
            early_stop: None,
            observers: Vec::new(),
            registry: None,
        }
    }

    /// Add one labelled configuration template. The template's station
    /// count and seed are overridden per point; everything else (protocol,
    /// CSMA table, timing, horizon, traffic, …) is swept as-is.
    pub fn config(mut self, label: impl Into<String>, template: Simulation) -> Self {
        self.configs.push((label.into(), template));
        self
    }

    /// Set the station counts the grid sweeps over.
    pub fn stations(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.stations = ns.into_iter().collect();
        self
    }

    /// Replications per point (the paper averages 10 testbed runs).
    pub fn replications(mut self, r: u64) -> Self {
        self.replications = r.max(1);
        self
    }

    /// Fixed worker-pool size. Results are identical for any value ≥ 1.
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w.max(1);
        self
    }

    /// Transient-panic retry budget per point (default 0).
    ///
    /// A panicking execution is replayed with the **same** derived seeds
    /// up to `k` extra times before the point is recorded as
    /// [`SweepPointResult::Failed`]. Replaying identical seeds keeps the
    /// determinism contract: a retry that succeeds produces exactly the
    /// bytes a first-try success would have. Retries therefore only help
    /// against *environmental* faults (memory exhaustion, injected
    /// chaos); a deterministic panic fails identically on every attempt
    /// and just costs `k` extra executions. The attempt count is recorded
    /// on the result either way.
    pub fn retries(mut self, k: u32) -> Self {
        self.retries = k;
        self
    }

    /// Enable early stopping per point.
    pub fn early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Attach a progress observer. It receives a
    /// [`SweepProgress`](plc_obs::SweepProgress) (completed/total units,
    /// elapsed wall time, ETA) from the collector thread as work units
    /// finish. Repeatable. Observers cannot perturb the sweep's results:
    /// the JSON export stays byte-identical with or without them.
    pub fn observer(mut self, observer: plc_obs::SharedObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Record sweep instrumentation into `registry`: the `sweep.cell`
    /// span timer (one span per replication cell) and the `sweep.cells`
    /// counter.
    pub fn registry(mut self, registry: &plc_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Number of grid points (`configs × stations`).
    pub fn num_points(&self) -> usize {
        self.configs.len() * self.stations.len()
    }

    /// The master seed every cell seed derives from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Requested replications per point.
    pub fn replication_budget(&self) -> u64 {
        self.replications
    }

    /// Transient-panic retry budget per point (see
    /// [`retries`](SweepGrid::retries)).
    pub fn retry_budget(&self) -> u32 {
        self.retries
    }

    /// Configured worker-pool size.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// The early-stopping rule, if one is set.
    pub fn early_stop_rule(&self) -> Option<EarlyStop> {
        self.early_stop
    }

    /// The configuration labels, in declaration order.
    pub fn config_labels(&self) -> Vec<String> {
        self.configs.iter().map(|(l, _)| l.clone()).collect()
    }

    /// The station counts the grid sweeps over.
    pub fn station_counts(&self) -> &[usize] {
        &self.stations
    }

    /// The `(config label, station count)` a point index maps to, if it
    /// is in range. Point indices are row-major over `configs ×
    /// stations`.
    pub fn point_spec(&self, point_index: usize) -> Option<(&str, usize)> {
        let per_config = self.stations.len();
        if per_config == 0 {
            return None;
        }
        let (label, _) = self.configs.get(point_index / per_config)?;
        let n = self.stations[point_index % per_config];
        Some((label.as_str(), n))
    }

    /// Replications actually scheduled for a template: deterministic
    /// backends (mean-field) ignore the seed, so every replication would
    /// be byte-identical — one run per point replaces the whole budget.
    fn reps_for(&self, template: &Simulation) -> u64 {
        if template.is_deterministic() {
            1
        } else {
            self.replications
        }
    }

    /// Row-major `(index, label, template, n)` tuples of the grid.
    fn grid_points(&self) -> Vec<(usize, &str, &Simulation, usize)> {
        self.configs
            .iter()
            .flat_map(|(label, template)| {
                self.stations
                    .iter()
                    .map(move |&n| (label.as_str(), template, n))
            })
            .enumerate()
            .map(|(idx, (label, template, n))| (idx, label, template, n))
            .collect()
    }

    /// Progress callback of [`run`](SweepGrid::run). Progress is observed
    /// from the collector thread (wall-clock ETA, completion order); it
    /// cannot feed back into the results.
    fn notify(&self, started: std::time::Instant, done: usize, total: usize) {
        if self.observers.is_empty() {
            return;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let eta = if done > 0 && done < total {
            elapsed / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        let progress = plc_obs::SweepProgress {
            completed: done,
            total,
            elapsed_secs: elapsed,
            eta_secs: eta,
        };
        for o in &self.observers {
            o.lock().on_sweep_progress(&progress);
        }
    }

    /// The instrumented single-cell runner both execution paths share.
    fn timed_cell_fn(&self) -> impl Fn(&Simulation, usize, u64, u64, u64) -> SimReport + Sync + '_ {
        // Degrade gracefully on metric-name clashes: a sweep should still
        // run (uninstrumented) if the caller's registry already uses these
        // names for other kinds.
        let cell_timer = self
            .registry
            .as_ref()
            .and_then(|r| r.try_timer("sweep.cell").ok());
        let cell_counter = self
            .registry
            .as_ref()
            .and_then(|r| r.try_counter("sweep.cells").ok());
        move |template: &Simulation, n: usize, master: u64, idx: u64, rep: u64| {
            let _span = cell_timer.as_ref().map(|t| t.start());
            let report = run_cell(template, n, master, idx, rep);
            if let Some(c) = &cell_counter {
                c.inc();
            }
            report
        }
    }

    /// Evaluate one whole grid point (all its replications, early stopping
    /// applied) with panic containment: a panicking replication yields
    /// [`SweepPointResult::Failed`] instead of poisoning the pool.
    fn run_point(
        &self,
        cell: &(dyn Fn(&Simulation, usize, u64, u64, u64) -> SimReport + Sync),
        idx: usize,
        label: &str,
        template: &Simulation,
        n: usize,
    ) -> SweepPointResult {
        let master = self.master_seed;
        let max_reps = self.reps_for(template);
        let early = self.early_stop;
        let mut attempt: u32 = 1;
        loop {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut acc = PointAccumulator::new();
                let mut reps_run = 0;
                for rep in 0..max_reps {
                    let report = cell(template, n, master, idx as u64, rep);
                    acc.merge_report(&report);
                    reps_run = rep + 1;
                    if let Some(rule) = early {
                        if reps_run >= rule.min_replications.max(2)
                            && acc.ci95_half_width(rule.quantity) <= rule.ci95_half_width
                        {
                            break;
                        }
                    }
                }
                acc.finish(label.to_string(), n, idx, reps_run)
            }));
            match caught {
                Ok(mut point) => {
                    point.attempts = attempt;
                    return SweepPointResult::Ok(point);
                }
                Err(payload) => {
                    if attempt > self.retries {
                        return SweepPointResult::Failed {
                            config: label.to_string(),
                            n,
                            point_index: idx,
                            reason: panic_reason(payload),
                            attempts: attempt,
                        };
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Evaluate exactly one grid point by index — the building block of
    /// external job engines that schedule, journal and resume points
    /// individually. Returns `None` if `point_index` is out of range.
    ///
    /// The point runs on the calling thread through the same pointwise
    /// path as early-stopping sweeps, which is pinned byte-identical to
    /// [`run`](SweepGrid::run)'s fan-out merge — assembling
    /// [`SweepResults`] from per-point calls reproduces a whole-grid run
    /// bit for bit. Panic containment and the
    /// [`retries`](SweepGrid::retries) budget apply exactly as in `run`.
    pub fn run_point_at(&self, point_index: usize) -> Option<SweepPointResult> {
        self.run_point_with(point_index, None)
    }

    /// [`run_point_at`](SweepGrid::run_point_at) with a cooperative
    /// cancellation token installed into the point's engine runs.
    ///
    /// When `cancel` fires mid-execution the engine returns early with
    /// **partial, non-deterministic** metrics; the caller owns the token
    /// and must check [`CancelToken::is_cancelled`] afterwards and
    /// discard the result (this is how watchdog timeouts reclaim a stuck
    /// point without killing the process). Deterministic backends
    /// (mean-field) ignore the token. With `cancel = None` this is
    /// byte-identical to the uncancellable path.
    ///
    /// [`CancelToken::is_cancelled`]: plc_core::CancelToken::is_cancelled
    pub fn run_point_with(
        &self,
        point_index: usize,
        cancel: Option<&plc_core::CancelToken>,
    ) -> Option<SweepPointResult> {
        let points = self.grid_points();
        let &(idx, label, template, n) = points.get(point_index)?;
        let timed_cell = self.timed_cell_fn();
        let cancellable;
        let template = match cancel {
            Some(token) => {
                cancellable = template.clone().cancel(token.clone());
                &cancellable
            }
            None => template,
        };
        Some(self.run_point(&timed_cell, idx, label, template, n))
    }

    /// Run the sweep on the worker pool and summarize every point.
    ///
    /// A panicking replication (a configuration whose engine asserts, a
    /// numeric blow-up) is **contained**: the point it belongs to becomes
    /// [`SweepPointResult::Failed`] carrying the panic message, and every
    /// other point completes normally — one bad point no longer kills a
    /// whole overnight sweep.
    pub fn run(&self) -> SweepResults {
        let points = self.grid_points();
        let started = std::time::Instant::now();
        let timed_cell = self.timed_cell_fn();

        let results = if self.early_stop.is_some() {
            // Early stopping makes a point's replication count depend on
            // its own running CI, so the unit of work is the whole point.
            let total_points = points.len();
            parallel_map_with_progress(
                self.workers,
                points,
                |_, (idx, label, template, n)| self.run_point(&timed_cell, idx, label, template, n),
                |done| self.notify(started, done, total_points),
            )
        } else {
            // Fixed replication counts: fan out at (point, replication)
            // granularity for load balance, then merge each point's
            // replications in replication order. `parallel_map` returns in
            // input order, so the merge order — and therefore every bit of
            // the output — is schedule-independent. Deterministic-backend
            // points schedule one cell each, so replication counts vary
            // per point and the merge walks prefix offsets, not a fixed
            // stride.
            let per_point_reps: Vec<u64> = points
                .iter()
                .map(|&(_, _, template, _)| self.reps_for(template))
                .collect();
            let offsets: Vec<usize> = per_point_reps
                .iter()
                .scan(0usize, |acc, &r| {
                    let start = *acc;
                    *acc += r as usize;
                    Some(start)
                })
                .collect();
            let cells: Vec<(usize, &Simulation, usize, u64)> = points
                .iter()
                .flat_map(|&(idx, _, template, n)| {
                    (0..per_point_reps[idx]).map(move |rep| (idx, template, n, rep))
                })
                .collect();
            let master = self.master_seed;
            let total_cells = cells.len();
            let retries = self.retries;
            // Each cell retries independently with its own (identical)
            // seed; the merge below takes the max attempt count over a
            // point's cells so both execution paths report the same
            // `attempts` for a deterministic workload.
            let reports = parallel_map_with_progress(
                self.workers,
                cells,
                |_, (idx, template, n, rep)| {
                    let mut attempts: u32 = 1;
                    loop {
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            timed_cell(template, n, master, idx as u64, rep)
                        }));
                        match caught {
                            Ok(report) => return (Ok(report), attempts),
                            Err(payload) => {
                                if attempts > retries {
                                    return (Err(panic_reason(payload)), attempts);
                                }
                                attempts += 1;
                            }
                        }
                    }
                },
                |done| self.notify(started, done, total_cells),
            );
            points
                .iter()
                .map(|&(idx, label, _, n)| {
                    let reps = per_point_reps[idx];
                    let mut acc = PointAccumulator::new();
                    let mut failure = None;
                    let mut attempts: u32 = 1;
                    for rep in 0..reps as usize {
                        let (outcome, cell_attempts) = &reports[offsets[idx] + rep];
                        attempts = attempts.max(*cell_attempts);
                        match outcome {
                            Ok(report) => acc.merge_report(report),
                            Err(reason) => {
                                failure.get_or_insert_with(|| reason.clone());
                            }
                        }
                    }
                    match failure {
                        None => {
                            let mut point = acc.finish(label.to_string(), n, idx, reps);
                            point.attempts = attempts;
                            SweepPointResult::Ok(point)
                        }
                        Some(reason) => SweepPointResult::Failed {
                            config: label.to_string(),
                            n,
                            point_index: idx,
                            reason,
                            attempts,
                        },
                    }
                })
                .collect()
        };

        SweepResults {
            master_seed: self.master_seed,
            replications: self.replications,
            points: results,
        }
    }
}

/// Run one (point, replication) cell with its derived seed.
fn run_cell(template: &Simulation, n: usize, master: u64, point_index: u64, rep: u64) -> SimReport {
    template
        .clone()
        .set_num_stations(n)
        .seed(derive_seed(master, point_index, rep))
        .run()
}

/// Streaming per-point accumulator: one [`Welford`] per summarized
/// quantity, extended by merging each replication's single-observation
/// accumulator in replication order (so the early-stopping and fixed-count
/// paths perform the exact same float operations).
struct PointAccumulator {
    collision_probability: Welford,
    norm_throughput: Welford,
    jain_fairness: Welford,
}

impl PointAccumulator {
    fn new() -> Self {
        PointAccumulator {
            collision_probability: Welford::new(),
            norm_throughput: Welford::new(),
            jain_fairness: Welford::new(),
        }
    }

    fn merge_report(&mut self, r: &SimReport) {
        let single = |x: f64| {
            let mut w = Welford::new();
            w.push(x);
            w
        };
        self.collision_probability
            .merge(&single(r.collision_probability));
        self.norm_throughput.merge(&single(r.norm_throughput));
        self.jain_fairness.merge(&single(r.jain_fairness));
    }

    fn ci95_half_width(&self, q: Quantity) -> f64 {
        let w = match q {
            Quantity::CollisionProbability => &self.collision_probability,
            Quantity::NormThroughput => &self.norm_throughput,
            Quantity::JainFairness => &self.jain_fairness,
        };
        w.ci_half_width(0.95)
    }

    fn finish(self, config: String, n: usize, point_index: usize, reps: u64) -> SweepPoint {
        SweepPoint {
            config,
            n,
            point_index,
            replications_run: reps,
            attempts: 1,
            summary: ReplicationSummary {
                collision_probability: self.collision_probability.summary(),
                norm_throughput: self.norm_throughput.summary(),
                jain_fairness: self.jain_fairness.summary(),
            },
        }
    }
}

/// The summarized outcome of one grid point that ran to completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Label of the configuration template.
    pub config: String,
    /// Station count.
    pub n: usize,
    /// Row-major index of the point in the grid.
    pub point_index: usize,
    /// Replications actually run (less than requested under early
    /// stopping).
    pub replications_run: u64,
    /// Execution attempts the point needed: 1 for a first-try success,
    /// more when a transient panic was retried under a
    /// [`SweepGrid::retries`] budget (the fan-out path reports the max
    /// over the point's cells).
    pub attempts: u32,
    /// Mean ± CI summaries over the replications.
    pub summary: ReplicationSummary,
}

/// One grid point's recorded outcome: a summary, or a contained failure.
///
/// A replication that panics (an engine assertion, a numeric blow-up in a
/// pathological configuration) is caught at the worker boundary and
/// recorded as [`Failed`](SweepPointResult::Failed) with the panic
/// message; the rest of the sweep is unaffected. The JSON export keeps
/// both variants, so a sweep artifact always accounts for every point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepPointResult {
    /// The point ran every scheduled replication.
    Ok(SweepPoint),
    /// A replication of this point panicked; `reason` is the panic
    /// message. No summary exists — partial accumulators are discarded so
    /// a `Failed` point can never masquerade as a clean one.
    Failed {
        /// Label of the configuration template.
        config: String,
        /// Station count.
        n: usize,
        /// Row-major index of the point in the grid.
        point_index: usize,
        /// The panic message of the first failing replication.
        reason: String,
        /// Execution attempts consumed before giving up — `retries + 1`
        /// once the [`SweepGrid::retries`] budget is exhausted.
        attempts: u32,
    },
}

impl SweepPointResult {
    /// Label of the configuration template.
    pub fn config(&self) -> &str {
        match self {
            SweepPointResult::Ok(p) => &p.config,
            SweepPointResult::Failed { config, .. } => config,
        }
    }

    /// Station count.
    pub fn n(&self) -> usize {
        match self {
            SweepPointResult::Ok(p) => p.n,
            SweepPointResult::Failed { n, .. } => *n,
        }
    }

    /// Row-major index of the point in the grid.
    pub fn point_index(&self) -> usize {
        match self {
            SweepPointResult::Ok(p) => p.point_index,
            SweepPointResult::Failed { point_index, .. } => *point_index,
        }
    }

    /// The completed point, if this one did not fail.
    pub fn ok(&self) -> Option<&SweepPoint> {
        match self {
            SweepPointResult::Ok(p) => Some(p),
            SweepPointResult::Failed { .. } => None,
        }
    }

    /// The point's summary, if it completed.
    pub fn summary(&self) -> Option<&ReplicationSummary> {
        self.ok().map(|p| &p.summary)
    }

    /// Execution attempts the point consumed (1 = first-try success).
    pub fn attempts(&self) -> u32 {
        match self {
            SweepPointResult::Ok(p) => p.attempts,
            SweepPointResult::Failed { attempts, .. } => *attempts,
        }
    }

    /// The contained panic message, if the point failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            SweepPointResult::Ok(_) => None,
            SweepPointResult::Failed { reason, .. } => Some(reason),
        }
    }
}

/// All points of a finished sweep, in grid order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// Master seed every cell seed was derived from.
    pub master_seed: u64,
    /// Requested replications per point.
    pub replications: u64,
    /// One result per grid point, in `point_index` order.
    pub points: Vec<SweepPointResult>,
}

impl SweepResults {
    /// The point for (config label, n), if present.
    pub fn point(&self, config: &str, n: usize) -> Option<&SweepPointResult> {
        self.points
            .iter()
            .find(|p| p.config() == config && p.n() == n)
    }

    /// The completed points, skipping contained failures.
    pub fn ok_points(&self) -> impl Iterator<Item = &SweepPoint> + '_ {
        self.points.iter().filter_map(SweepPointResult::ok)
    }

    /// The failed points as `(point, reason)` — empty for a clean sweep.
    pub fn failures(&self) -> impl Iterator<Item = (&SweepPointResult, &str)> + '_ {
        self.points
            .iter()
            .filter_map(|p| p.failure().map(|r| (p, r)))
    }

    /// Serialize to a compact JSON document (see
    /// [`export::sweep_results_json`](crate::export::sweep_results_json)).
    pub fn to_json(&self) -> String {
        crate::export::sweep_results_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_bijection_probe() {
        // Distinct inputs through a bijection stay distinct.
        let outs: std::collections::HashSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn derived_seeds_are_unique_across_cells() {
        let mut seen = std::collections::HashSet::new();
        for point in 0..64u64 {
            for rep in 0..64u64 {
                assert!(seen.insert(derive_seed(99, point, rep)));
            }
        }
    }

    #[test]
    fn adjacent_masters_do_not_collide() {
        // The failure mode of `seed + k` schemes.
        assert_ne!(derive_seed(3, 0, 1), derive_seed(4, 0, 0));
        assert_ne!(derive_seed(3, 1, 0), derive_seed(4, 0, 0));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(3, (0..50u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u64> = parallel_map(4, Vec::<u64>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(4, vec![7u64], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn grid_shape_and_labels() {
        let results = SweepGrid::new(1)
            .config("a", Simulation::ieee1901(1).horizon_us(1e5))
            .config("b", Simulation::dcf(1).horizon_us(1e5))
            .stations([2, 3, 4])
            .replications(2)
            .workers(2)
            .run();
        assert_eq!(results.points.len(), 6);
        assert_eq!(results.points[0].config(), "a");
        assert_eq!(results.points[0].n(), 2);
        assert_eq!(results.points[5].config(), "b");
        assert_eq!(results.points[5].n(), 4);
        assert_eq!(results.ok_points().count(), 6);
        assert_eq!(results.failures().count(), 0);
        for (i, p) in results.points.iter().enumerate() {
            assert_eq!(p.point_index(), i);
            let ok = p.ok().expect("clean grid has no failures");
            assert_eq!(ok.replications_run, 2);
            assert_eq!(ok.summary.collision_probability.count, 2);
        }
        assert!(results.point("b", 3).is_some());
        assert!(results.point("c", 3).is_none());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = SweepGrid::new(7)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
            .stations([2, 3])
            .replications(3);
        let serial = grid.clone().workers(1).run();
        let pooled = grid.clone().workers(8).run();
        assert_eq!(serial, pooled);
        assert_eq!(serial.to_json(), pooled.to_json());
    }

    #[test]
    fn early_stop_cuts_replications() {
        // A huge CI target stops every point at min_replications.
        let rule = EarlyStop {
            quantity: Quantity::CollisionProbability,
            ci95_half_width: 10.0,
            min_replications: 2,
        };
        let results = SweepGrid::new(5)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
            .stations([2])
            .replications(10)
            .early_stop(rule)
            .run();
        assert_eq!(results.points[0].ok().unwrap().replications_run, 2);

        // An unattainable target (0) runs the full budget.
        let strict = EarlyStop {
            ci95_half_width: 0.0,
            ..rule
        };
        let full = SweepGrid::new(5)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
            .stations([2])
            .replications(4)
            .early_stop(strict)
            .run();
        assert_eq!(full.points[0].ok().unwrap().replications_run, 4);
    }

    #[test]
    fn early_stop_matches_fixed_path_prefix() {
        // With early stopping disabled by an unattainable target, the
        // per-point path must produce bit-identical summaries to the
        // fan-out path: both merge single-observation accumulators in
        // replication order.
        let grid = SweepGrid::new(11)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
            .stations([2, 3])
            .replications(3);
        let fanned = grid.clone().run();
        let pointwise = grid
            .clone()
            .early_stop(EarlyStop {
                quantity: Quantity::NormThroughput,
                ci95_half_width: 0.0,
                min_replications: 3,
            })
            .run();
        assert_eq!(fanned, pointwise);
    }

    #[test]
    fn progress_observer_sees_every_cell() {
        use parking_lot::Mutex as PlMutex;
        use std::sync::Arc;
        let collector = Arc::new(PlMutex::new(plc_obs::CollectingObserver::default()));
        let registry = plc_obs::Registry::new();
        let results = SweepGrid::new(9)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2, 3])
            .replications(2)
            .workers(2)
            .observer(collector.clone())
            .registry(&registry)
            .run();
        assert_eq!(results.points.len(), 2);
        let progress = collector.lock().progress.clone();
        // 2 points × 2 replications = 4 cells, one report each.
        assert_eq!(progress.len(), 4);
        assert!(progress.windows(2).all(|w| w[0].completed < w[1].completed));
        let last = progress.last().unwrap();
        assert_eq!(last.completed, 4);
        assert_eq!(last.total, 4);
        assert_eq!(last.eta_secs, 0.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sweep.cells"), Some(4));
        assert_eq!(snap.timer("sweep.cell").unwrap().count, 4);
    }

    #[test]
    fn observers_do_not_change_sweep_json() {
        let grid = SweepGrid::new(13)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
            .stations([2, 3])
            .replications(2);
        let bare = grid.clone().workers(1).run();
        let observed = grid
            .clone()
            .workers(4)
            .observer(plc_obs::shared(plc_obs::CollectingObserver::default()))
            .registry(&plc_obs::Registry::new())
            .run();
        assert_eq!(bare, observed);
        assert_eq!(bare.to_json(), observed.to_json());
    }

    #[test]
    fn meanfield_template_collapses_replications() {
        use crate::backend::Backend;
        let grid = SweepGrid::new(41)
            .config(
                "mf",
                Simulation::ieee1901(1)
                    .backend(Backend::MeanField)
                    .horizon_us(1e6),
            )
            .config("slotted", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2, 5])
            .replications(4);
        let results = grid.clone().workers(1).run();
        for p in results.ok_points() {
            let expected = if p.config == "mf" { 1 } else { 4 };
            assert_eq!(
                p.replications_run, expected,
                "{} at N={} ran {} replications",
                p.config, p.n, p.replications_run
            );
        }
        assert_eq!(results.ok_points().count(), 4);
        // Mixed per-point replication counts stay schedule-independent.
        // Compared through the JSON export because single-replication
        // summaries hold `std_dev: NaN`, and NaN breaks struct equality.
        let pooled = grid.clone().workers(8).run();
        assert_eq!(results.to_json(), pooled.to_json());
        // And the fan-out path matches the pointwise (early-stop) path.
        let pointwise = grid
            .early_stop(EarlyStop {
                quantity: Quantity::NormThroughput,
                ci95_half_width: 0.0,
                min_replications: 4,
            })
            .run();
        assert_eq!(results.to_json(), pointwise.to_json());
    }

    #[test]
    fn json_round_trips() {
        let results = SweepGrid::new(3)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2])
            .replications(2)
            .run();
        let text = results.to_json();
        let back: SweepResults = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, results);
    }

    /// A template whose engine asserts at construction (`invalid
    /// MacTiming`) — the sweep-level stand-in for any panicking
    /// replication.
    fn broken_sim() -> Simulation {
        let mut bad = plc_core::timing::MacTiming::paper_default();
        bad.slot = plc_core::units::Microseconds(-1.0);
        Simulation::ieee1901(1).horizon_us(1e5).timing(bad)
    }

    #[test]
    fn panicking_point_is_contained() {
        // The good config comes first so its point_index matches the
        // single-config control sweep below.
        let grid = SweepGrid::new(17)
            .config("good", Simulation::ieee1901(1).horizon_us(1e5))
            .config("bad", broken_sim())
            .stations([2])
            .replications(2)
            .workers(2);
        let results = grid.run();
        assert_eq!(results.points.len(), 2);
        let good = results.point("good", 2).expect("good point present");
        assert!(good.ok().is_some());
        let bad = results.point("bad", 2).expect("bad point present");
        let reason = bad.failure().expect("bad config must fail");
        assert!(reason.contains("MacTiming"), "reason: {reason}");
        assert_eq!(results.ok_points().count(), 1);
        assert_eq!(results.failures().count(), 1);
        // The surviving point is bit-identical to a fault-free sweep's.
        let clean = SweepGrid::new(17)
            .config("good", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2])
            .replications(2)
            .run();
        assert_eq!(good.ok(), clean.points[0].ok());
        // The failure stays on record through the JSON export.
        let text = results.to_json();
        assert!(text.contains("Failed"));
        let back: SweepResults = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, results);
    }

    #[test]
    fn panicking_point_contained_under_early_stop() {
        let results = SweepGrid::new(19)
            .config("good", Simulation::ieee1901(1).horizon_us(1e5))
            .config("bad", broken_sim())
            .stations([2])
            .replications(3)
            .early_stop(EarlyStop {
                quantity: Quantity::CollisionProbability,
                ci95_half_width: 0.0,
                min_replications: 2,
            })
            .workers(2)
            .run();
        assert!(results.point("good", 2).unwrap().ok().is_some());
        assert!(results.point("bad", 2).unwrap().failure().is_some());
    }

    #[test]
    fn retry_budget_is_inert_on_a_clean_sweep() {
        let grid = SweepGrid::new(53)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2, 3])
            .replications(2)
            .workers(2);
        let plain = grid.clone().run();
        let retried = grid.clone().retries(3).run();
        assert_eq!(plain, retried);
        assert_eq!(plain.to_json(), retried.to_json());
        for p in &retried.points {
            assert_eq!(p.attempts(), 1);
        }
    }

    #[test]
    fn deterministic_panic_exhausts_retry_budget_on_both_paths() {
        let grid = SweepGrid::new(47)
            .config("bad", broken_sim())
            .stations([2])
            .replications(1)
            .workers(1)
            .retries(2);
        let fanned = grid.clone().run();
        assert_eq!(fanned.points[0].attempts(), 3);
        assert!(fanned.points[0].failure().is_some());
        let pointwise = grid.run_point_at(0).expect("point 0 exists");
        assert_eq!(pointwise.attempts(), 3);
        assert!(pointwise.failure().is_some());
    }

    #[test]
    fn transient_panic_recovers_with_identical_bytes() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let grid = SweepGrid::new(43)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2])
            .replications(2)
            .retries(1);
        // An environmental (non-deterministic) fault: the first cell
        // execution panics, every later one succeeds. Reaches the private
        // cell hook directly because no simulation backend can be made
        // genuinely flaky — they are deterministic by construction.
        let remaining = AtomicU32::new(1);
        let flaky = move |template: &Simulation, n: usize, master: u64, idx: u64, rep: u64| {
            if remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                panic!("injected transient fault");
            }
            run_cell(template, n, master, idx, rep)
        };
        let (idx, label, template, n) = grid.grid_points()[0];
        let recovered = grid.run_point(&flaky, idx, label, template, n);
        let point = recovered.ok().expect("retry must recover");
        assert_eq!(point.attempts, 2);
        // Identical seeds on replay: everything but the attempt count is
        // byte-identical to a first-try success.
        let clean = grid.run_point_at(0).expect("point 0 exists");
        let clean_point = clean.ok().expect("clean run succeeds");
        assert_eq!(clean_point.attempts, 1);
        assert_eq!(point.summary, clean_point.summary);
        assert_eq!(point.replications_run, clean_point.replications_run);
    }

    #[test]
    fn run_point_at_matches_whole_grid_run() {
        let grid = SweepGrid::new(59)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .config("dcf", Simulation::dcf(1).horizon_us(1e5))
            .stations([2, 3])
            .replications(2);
        let whole = grid.run();
        for idx in 0..grid.num_points() {
            let single = grid.run_point_at(idx).expect("index in range");
            assert_eq!(single, whole.points[idx], "point {idx}");
            assert_eq!(
                grid.point_spec(idx).expect("spec in range"),
                (single.config(), single.n())
            );
        }
        assert!(grid.run_point_at(grid.num_points()).is_none());
        assert!(grid.point_spec(grid.num_points()).is_none());
    }

    #[test]
    fn idle_cancel_token_does_not_perturb_a_point() {
        let token = plc_core::CancelToken::new();
        let grid = SweepGrid::new(61)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([3])
            .replications(2);
        let with = grid.run_point_with(0, Some(&token)).expect("in range");
        let without = grid.run_point_at(0).expect("in range");
        assert_eq!(with, without);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn pre_cancelled_token_stops_a_point_immediately() {
        let token = plc_core::CancelToken::new();
        token.cancel();
        let grid = SweepGrid::new(67)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e6))
            .stations([5])
            .replications(1);
        let res = grid.run_point_with(0, Some(&token)).expect("in range");
        // The engine observes the token before its first slot: the point
        // still yields a result object (the job layer discards it after
        // checking the token), but no airtime was ever simulated.
        let p = res.ok().expect("cancellation is not a panic");
        let thr = p.summary.norm_throughput.mean;
        assert!(
            thr == 0.0 || thr.is_nan(),
            "cancelled point simulated airtime: {thr}"
        );
    }
}
