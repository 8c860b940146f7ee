//! High-level simulation builder and report.
//!
//! [`Simulation`] is the one-stop API most callers want: pick a protocol
//! and a station count, optionally adjust the configuration/timing/horizon,
//! and get a [`SimReport`] with the paper's headline quantities already
//! computed.
//!
//! ```
//! use plc_sim::runner::Simulation;
//!
//! let report = Simulation::ieee1901(3)
//!     .horizon_us(5.0e6)
//!     .seed(42)
//!     .run();
//! assert!(report.collision_probability > 0.0);
//! assert!(report.norm_throughput > 0.5);
//! ```

use crate::backend::{Backend, MeanFieldReport};
use crate::bursting::BurstPolicy;
use crate::engine::{EngineConfig, SharedSink, SlottedEngine, StationSpec};
use crate::metrics::Metrics;
use crate::multidomain::MultiDomainReport;
use crate::scenario::Scenario;
use crate::topology::Topology;
use crate::traffic::TrafficModel;
use plc_core::config::CsmaConfig;
use plc_core::timing::MacTiming;
use plc_core::units::Microseconds;
use plc_mac::process::Protocol;
use plc_mac::retry::RetryPolicy;
use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf};
use plc_obs::SharedObserver;
use plc_stats::summary::{Summary, Welford};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Builder for single-contention-domain simulations.
///
/// [`run`](Simulation::run) is the single entry point: sinks and
/// observers are attached with [`sink`](Simulation::sink) /
/// [`observer`](Simulation::observer) before running, instead of through
/// side-channel run variants or post-construction engine mutation.
#[derive(Clone)]
pub struct Simulation {
    pub(crate) n: usize,
    pub(crate) topology: Topology,
    pub(crate) cell_size: Option<usize>,
    pub(crate) domain_workers: usize,
    pub(crate) backend: Backend,
    pub(crate) protocol: Protocol,
    pub(crate) config: CsmaConfig,
    pub(crate) timing: MacTiming,
    pub(crate) horizon: Microseconds,
    pub(crate) seed: u64,
    pub(crate) burst: BurstPolicy,
    pub(crate) retry: RetryPolicy,
    pub(crate) traffic: TrafficModel,
    pub(crate) pb_error_prob: f64,
    pub(crate) beacons: Option<crate::engine::BeaconSchedule>,
    pub(crate) noise: Vec<plc_faults::NoiseBurst>,
    pub(crate) snapshots: bool,
    pub(crate) fast_forward: bool,
    pub(crate) soa: bool,
    pub(crate) cancel: Option<plc_core::CancelToken>,
    pub(crate) sinks: Vec<SharedSink>,
    pub(crate) observers: Vec<(SharedObserver, u64)>,
    pub(crate) registry: Option<plc_obs::Registry>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.n)
            .field("cells", &self.topology.num_cells())
            .field("domain_workers", &self.domain_workers)
            .field("backend", &self.backend)
            .field("protocol", &self.protocol)
            .field("config", &self.config)
            .field("timing", &self.timing)
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .field("burst", &self.burst)
            .field("retry", &self.retry)
            .field("traffic", &self.traffic)
            .field("pb_error_prob", &self.pb_error_prob)
            .field("beacons", &self.beacons)
            .field("noise", &self.noise.len())
            .field("snapshots", &self.snapshots)
            .field("fast_forward", &self.fast_forward)
            .field("soa", &self.soa)
            .field("cancel", &self.cancel.is_some())
            .field("sinks", &self.sinks.len())
            .field("observers", &self.observers.len())
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl Simulation {
    /// `n` saturated IEEE 1901 stations with the default CA1 table and the
    /// paper's timing — sugar for a fully-connected single-cell
    /// [`Topology`] (every station hears every station, the legacy
    /// single-domain setting).
    pub fn ieee1901(n: usize) -> Self {
        Simulation {
            n,
            topology: Topology::fully_connected(n),
            cell_size: None,
            domain_workers: 1,
            backend: Backend::Slotted,
            protocol: Protocol::Ieee1901,
            config: CsmaConfig::ieee1901_ca01(),
            timing: MacTiming::paper_default(),
            horizon: plc_core::timing::DEFAULT_SIM_TIME,
            seed: 0,
            burst: BurstPolicy::Single,
            retry: RetryPolicy::Infinite,
            traffic: TrafficModel::Saturated,
            pb_error_prob: 0.0,
            beacons: None,
            noise: Vec::new(),
            snapshots: false,
            fast_forward: true,
            soa: true,
            cancel: None,
            sinks: Vec::new(),
            observers: Vec::new(),
            registry: None,
        }
    }

    /// `n` saturated 802.11 DCF stations (classic CW 16…512 table).
    pub fn dcf(n: usize) -> Self {
        Simulation {
            protocol: Protocol::Dcf80211,
            config: CsmaConfig::dcf_like(16, 6).expect("valid"),
            ..Self::ieee1901(n)
        }
    }

    /// Select the engine: the exact slotted simulator (default) or the
    /// deterministic mean-field fixed point (see [`Backend`]). Both
    /// produce the same [`SimReport`] schema; the mean-field backend
    /// supports only the error-free saturated single-class MAC and
    /// rejects other knobs at run time with a typed error.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The selected backend.
    pub fn backend_kind(&self) -> Backend {
        self.backend
    }

    /// Whether runs are seed-independent (mean-field backend).
    /// Deterministic simulations short-circuit replication:
    /// [`run_repeated`](Simulation::run_repeated) returns a single report
    /// and sweeps run one replication per grid point.
    pub fn is_deterministic(&self) -> bool {
        self.backend.is_deterministic()
    }

    /// Use a custom CSMA parameter table.
    pub fn config(mut self, config: CsmaConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the station count.
    ///
    /// Deprecated: the station count now lives in the [`Topology`];
    /// construct with [`ieee1901(n)`](Simulation::ieee1901) /
    /// [`dcf(n)`](Simulation::dcf) for the fully-connected case or set a
    /// [`topology`](Simulation::topology) explicitly. Sweeps restamp the
    /// count internally.
    #[deprecated(
        since = "0.1.0",
        note = "set the station count via ieee1901(n)/dcf(n) or Simulation::topology(...)"
    )]
    pub fn num_stations(self, n: usize) -> Self {
        self.set_num_stations(n)
    }

    /// Restamp the station count onto this template (sweep internals).
    /// Resets the topology to fully-connected — a sweep over `n` has no
    /// way to scale an *explicit* spatial layout — unless
    /// [`cells_of`](Simulation::cells_of) declared a cell structure, in
    /// which case the isolated-cells layout is rebuilt at the new count.
    pub(crate) fn set_num_stations(mut self, n: usize) -> Self {
        self.n = n;
        self.topology = match self.cell_size {
            Some(size) => Topology::isolated_cells(n, size),
            None => Topology::fully_connected(n),
        };
        self
    }

    /// Group stations into isolated cells of `cell_size` (see
    /// [`Topology::isolated_cells`]) — and, unlike
    /// [`topology`](Simulation::topology)'s explicit layout, keep that
    /// structure when a [`SweepGrid`](crate::SweepGrid) restamps the
    /// station count onto this template. This is the portfolio plumbing
    /// for multi-domain sweep scenarios: a grid over `n` scales the
    /// number of cells, not the contention density inside one.
    pub fn cells_of(mut self, cell_size: usize) -> Self {
        assert!(cell_size >= 1, "cell_size must be at least 1");
        self.cell_size = Some(cell_size);
        self.topology = Topology::isolated_cells(self.n, cell_size);
        self
    }

    /// Place the stations on an explicit [`Topology`]. The station count
    /// follows the topology; a fully-connected topology reproduces the
    /// legacy single-domain engine byte-for-byte, while spatial
    /// topologies run the multi-domain coordinator (see
    /// [`try_run_topology`](Simulation::try_run_topology)).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.n = topology.num_stations();
        self.topology = topology;
        // An explicit layout overrides any earlier `cells_of` structure.
        self.cell_size = None;
        self
    }

    /// Shard independent topology components across this many worker
    /// threads (via [`crate::BatchRunner`]; default 1). Results are
    /// byte-identical for any worker count.
    pub fn domain_workers(mut self, workers: usize) -> Self {
        self.domain_workers = workers;
        self
    }

    /// Build from a [`Scenario`] — the topology-first front door.
    /// Equivalent to `scenario.simulation()`.
    pub fn scenario(scenario: &Scenario) -> Self {
        scenario.simulation()
    }

    /// Use custom channel timing.
    pub fn timing(mut self, timing: MacTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Set the simulation horizon in µs.
    pub fn horizon_us(mut self, us: f64) -> Self {
        self.horizon = Microseconds(us);
        self
    }

    /// Set the master seed. Station backoff draws, traffic arrivals and
    /// burst draws all derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the burst policy.
    pub fn burst(mut self, burst: BurstPolicy) -> Self {
        self.burst = burst;
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the traffic model applied to every station.
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Set the per-PB channel error probability (0 = the paper's
    /// error-free assumption). Derive realistic values with
    /// `plc_phy::PbErrorModel`.
    pub fn pb_error_prob(mut self, p: f64) -> Self {
        self.pb_error_prob = p;
        self
    }

    /// Enable beacon scheduling (the paper's model has none; the standard
    /// transmits one CCo beacon per two mains cycles).
    pub fn beacons(mut self, schedule: crate::engine::BeaconSchedule) -> Self {
        self.beacons = Some(schedule);
        self
    }

    /// Schedule impulse-noise bursts (see
    /// [`plc_faults::NoiseBurst`]): while one is active, every PB of
    /// every transmission errors. Typically taken from a
    /// [`plc_faults::FaultPlan`]'s `noise` schedule.
    pub fn noise(mut self, bursts: impl IntoIterator<Item = plc_faults::NoiseBurst>) -> Self {
        self.noise.extend(bursts);
        self.noise.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        self
    }

    /// Emit per-station [`TraceEvent::Snapshot`](crate::trace::TraceEvent)
    /// events after every step (Figure 1-style backoff traces; costly on
    /// long runs).
    pub fn snapshots(mut self, emit: bool) -> Self {
        self.snapshots = emit;
        self
    }

    /// Enable or disable the engine's idle-slot fast-forward (on by
    /// default). The optimization is exact — traces, metrics and sweep
    /// output are byte-identical either way — so disabling it is only
    /// useful for benchmarking the slow path or for debugging.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Enable or disable the struct-of-arrays contention core (on by
    /// default). Like fast-forward, the SoA core is exact — reports,
    /// traces and sweep output are byte-identical either way — so
    /// disabling it only matters for benchmarking the per-object
    /// reference path or for debugging.
    pub fn soa(mut self, enabled: bool) -> Self {
        self.soa = enabled;
        self
    }

    /// Install a cooperative [`CancelToken`](plc_core::CancelToken):
    /// the slotted engine polls it once per slot and returns early when
    /// it fires, leaving partial metrics behind (the report computed
    /// from them covers only the simulated time actually run — check
    /// [`CancelToken::is_cancelled`](plc_core::CancelToken::is_cancelled)
    /// afterwards and discard the report if exactness matters, as the
    /// `plc-jobs` watchdog does). Without a token the engine dispatches
    /// to its exact pre-cancellation loops, so support is zero-cost
    /// when unused. The deterministic mean-field backend solves in
    /// microseconds and ignores the token.
    pub fn cancel(mut self, token: plc_core::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a trace sink; every built engine emits its events into it.
    /// Repeatable.
    pub fn sink(mut self, sink: SharedSink) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attach a periodic observer: it receives an engine snapshot every
    /// `every_steps` steps (see [`SlottedEngine::add_observer`]).
    /// Repeatable. Observers never perturb results.
    pub fn observer(mut self, observer: SharedObserver, every_steps: u64) -> Self {
        self.observers.push((observer, every_steps));
        self
    }

    /// Instrument built engines into `registry` (hot-path span timers
    /// and the `engine.steps` counter; see [`SlottedEngine::instrument`]).
    pub fn registry(mut self, registry: &plc_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Build the engine (for callers that want to attach sinks or step
    /// manually).
    ///
    /// # Panics
    ///
    /// On invalid configuration; [`try_build`](Simulation::try_build)
    /// returns the error instead.
    pub fn build(&self) -> SlottedEngine<AnyBackoff> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the engine, surfacing configuration problems (overlapping
    /// noise bursts, invalid timing, metric-name clashes in the attached
    /// registry) as typed errors instead of panicking.
    pub fn try_build(&self) -> plc_core::error::Result<SlottedEngine<AnyBackoff>> {
        if self.backend != Backend::Slotted {
            return Err(plc_core::error::Error::invalid_config(
                "the mean-field backend has no slotted engine to build; \
                 call run()/try_run() directly, or select Backend::Slotted",
            ));
        }
        if !self.topology.is_fully_connected() {
            return Err(plc_core::error::Error::invalid_config(
                "a spatial topology has no single slotted engine to build; \
                 call run()/try_run() (or try_run_topology() for the \
                 per-cell breakdown) instead",
            ));
        }
        let mut proc_rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        );
        let stations: Vec<StationSpec<AnyBackoff>> = (0..self.n)
            .map(|_| {
                let process: AnyBackoff = match self.protocol {
                    Protocol::Ieee1901 => {
                        Backoff1901::new(self.config.clone(), &mut proc_rng).into()
                    }
                    Protocol::Dcf80211 => {
                        BackoffDcf::new(self.config.clone(), &mut proc_rng).into()
                    }
                };
                StationSpec {
                    traffic: self.traffic,
                    ..StationSpec::saturated(process)
                }
            })
            .collect();
        let cfg = EngineConfig {
            timing: self.timing,
            horizon: self.horizon,
            burst: self.burst,
            retry: self.retry,
            pb_error_prob: self.pb_error_prob,
            emit_snapshots: self.snapshots,
            emit_wire_events: true,
            beacons: self.beacons,
            noise: self.noise.clone(),
            fast_forward: self.fast_forward,
            soa: self.soa,
            cancel: self.cancel.clone(),
        };
        let mut engine = SlottedEngine::try_new(cfg, stations, self.seed)?;
        for s in &self.sinks {
            engine.add_sink(s.clone());
        }
        for (obs, every) in &self.observers {
            engine.add_observer(obs.clone(), *every);
        }
        if let Some(reg) = &self.registry {
            engine.instrument(reg)?;
        }
        Ok(engine)
    }

    /// Build, run to the horizon, and summarize. The single entry point:
    /// attached sinks, observers and instrumentation all apply.
    ///
    /// # Panics
    ///
    /// On invalid configuration; [`try_run`](Simulation::try_run)
    /// returns the error instead.
    pub fn run(&self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build and run, surfacing configuration problems as typed errors.
    pub fn try_run(&self) -> plc_core::error::Result<SimReport> {
        match self.backend {
            Backend::Slotted => {
                if !self.topology.is_fully_connected() {
                    return Ok(self.try_run_topology()?.report);
                }
                let mut engine = self.try_build()?;
                engine.run();
                Ok(SimReport::from_metrics(
                    engine.metrics().clone(),
                    self.timing.frame_length,
                ))
            }
            Backend::MeanField => {
                self.meanfield_supported()?;
                crate::backend::meanfield_report(
                    &self.config,
                    self.n,
                    &self.timing,
                    self.horizon,
                    self.registry.as_ref(),
                )
            }
        }
    }

    /// Run and return the full multi-domain view: the merged report plus
    /// per-cell reports and the cross-domain interaction counters.
    ///
    /// Works for any topology — a fully-connected one runs the legacy
    /// single-domain engine and wraps its report as the only cell (zero
    /// jams, zero defers). Requires [`Backend::Slotted`]; the mean-field
    /// backend rejects multi-domain topologies with a typed error.
    pub fn try_run_topology(&self) -> plc_core::error::Result<MultiDomainReport> {
        if self.backend != Backend::Slotted {
            return Err(plc_core::error::Error::invalid_config(
                "the mean-field backend does not model multi-domain topologies; \
                 use Backend::Slotted for this configuration",
            ));
        }
        if self.topology.is_fully_connected() {
            let mut engine = self.try_build()?;
            engine.run();
            let report =
                SimReport::from_metrics(engine.metrics().clone(), self.timing.frame_length);
            return Ok(MultiDomainReport {
                cells: vec![report.clone()],
                report,
                jammed_tx: 0,
                sensed_defers: 0,
            });
        }
        crate::multidomain::run_spatial(self, &self.topology)
    }

    /// [`try_run_topology`](Simulation::try_run_topology), panicking on
    /// invalid configuration.
    pub fn run_topology(&self) -> MultiDomainReport {
        self.try_run_topology().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The analytic quantities behind a mean-field run — the solved fixed
    /// point with diagnostics plus the drift-state access-delay summary —
    /// for callers that want more than the [`SimReport`] schema. Errors
    /// unless the mean-field backend is selected and supported.
    pub fn meanfield_analysis(&self) -> plc_core::error::Result<MeanFieldReport> {
        if self.backend != Backend::MeanField {
            return Err(plc_core::error::Error::invalid_config(
                "meanfield_analysis() needs Backend::MeanField",
            ));
        }
        self.meanfield_supported()?;
        crate::backend::meanfield_analysis(&self.config, self.n, &self.timing)
    }

    /// Reject knobs the mean-field model cannot represent. The backend
    /// covers exactly the paper's analytic setting: error-free channel,
    /// saturated single-class traffic, single-MPDU transmissions,
    /// infinite retries, no beacons/noise/traces.
    fn meanfield_supported(&self) -> plc_core::error::Result<()> {
        use plc_core::error::Error;
        let reject = |what: &str| {
            Err(Error::invalid_config(format!(
                "the mean-field backend does not model {what}; \
                 use Backend::Slotted for this configuration"
            )))
        };
        if !self.topology.is_fully_connected() {
            return reject("multi-domain topologies");
        }
        if self.traffic != TrafficModel::Saturated {
            return reject("unsaturated traffic");
        }
        if self.pb_error_prob != 0.0 {
            return reject("channel errors (pb_error_prob > 0)");
        }
        if self.burst != BurstPolicy::Single {
            return reject("MPDU bursting");
        }
        if self.retry != RetryPolicy::Infinite {
            return reject("finite retry limits");
        }
        if self.beacons.is_some() {
            return reject("beacon schedules");
        }
        if !self.noise.is_empty() {
            return reject("impulse-noise bursts");
        }
        if self.snapshots {
            return reject("per-step snapshots");
        }
        if !self.sinks.is_empty() {
            return reject("trace sinks");
        }
        if !self.observers.is_empty() {
            return reject("periodic observers");
        }
        Ok(())
    }

    /// Run `repeats` replications with distinct derived seeds and return
    /// each report (the paper averages 10 testbed runs per point).
    ///
    /// Replication `k` runs with
    /// [`sweep::derive_seed`](crate::sweep::derive_seed)`(seed, 0, k)` —
    /// the same SplitMix64 mixing the sweep engine uses — so the streams
    /// of adjacent master seeds never overlap (a plain `seed + k` scheme
    /// collides: base 3 replication 1 equals base 4 replication 0).
    /// Deterministic backends short-circuit: every replication would be
    /// byte-identical (the seed is ignored), so a single report is
    /// returned regardless of `repeats`.
    pub fn run_repeated(&self, repeats: u64) -> Vec<SimReport> {
        if self.is_deterministic() {
            return vec![self.run()];
        }
        (0..repeats)
            .map(|k| {
                let mut s = self.clone();
                s.seed = crate::sweep::derive_seed(self.seed, 0, k);
                s.run()
            })
            .collect()
    }

    /// Run `repeats` replications and summarize, backend-aware: the
    /// slotted engine yields a [`RunSummary::Sampled`] mean ± CI over
    /// genuinely distinct replications, while a deterministic backend
    /// returns its single exact report as [`RunSummary::Deterministic`]
    /// instead of a degenerate zero-variance "confidence interval".
    pub fn run_summary(&self, repeats: u64) -> RunSummary {
        if self.is_deterministic() {
            RunSummary::Deterministic(Box::new(self.run()))
        } else {
            RunSummary::Sampled(ReplicationSummary::of(&self.run_repeated(repeats)))
        }
    }
}

/// Backend-aware replication summary: sampled statistics from the
/// stochastic engine, or the single exact report of a deterministic one.
///
/// Collapsing a deterministic backend into [`ReplicationSummary`] would
/// fabricate a zero-width confidence interval from `repeats` copies of
/// the same number; keeping the variants distinct lets consumers render
/// "exact" instead of "± 0.000".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunSummary {
    /// One exact report from a deterministic backend (mean-field).
    Deterministic(Box<SimReport>),
    /// Mean ± CI across stochastic replications.
    Sampled(ReplicationSummary),
}

impl RunSummary {
    /// Point estimate of the collision probability.
    pub fn collision_probability(&self) -> f64 {
        match self {
            RunSummary::Deterministic(r) => r.collision_probability,
            RunSummary::Sampled(s) => s.collision_probability.mean,
        }
    }

    /// Point estimate of the normalized throughput.
    pub fn norm_throughput(&self) -> f64 {
        match self {
            RunSummary::Deterministic(r) => r.norm_throughput,
            RunSummary::Sampled(s) => s.norm_throughput.mean,
        }
    }

    /// Whether the estimate carries sampling error.
    pub fn is_sampled(&self) -> bool {
        matches!(self, RunSummary::Sampled(_))
    }
}

/// A finished run, with the paper's headline quantities precomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Collision probability (`ΣCᵢ / (ΣCᵢ + successes)`), Figure 2's metric.
    pub collision_probability: f64,
    /// Normalized throughput (`delivered payload airtime / elapsed`).
    pub norm_throughput: f64,
    /// Jain's fairness index over station success counts.
    pub jain_fairness: f64,
    /// Successful transmissions.
    pub successes: u64,
    /// Colliding transmissions (per-station counting).
    pub collided_tx: u64,
    /// Simulated time elapsed (µs).
    pub elapsed_us: f64,
    /// Full metrics.
    pub metrics: Metrics,
}

impl SimReport {
    /// Derive a report from raw metrics.
    pub fn from_metrics(metrics: Metrics, frame_length: Microseconds) -> Self {
        SimReport {
            collision_probability: metrics.collision_probability(),
            norm_throughput: metrics.norm_throughput(frame_length),
            jain_fairness: metrics.jain_fairness(),
            successes: metrics.successes,
            collided_tx: metrics.collided_tx,
            elapsed_us: metrics.elapsed.as_micros(),
            metrics,
        }
    }
}

/// Aggregate replicated reports into mean ± CI summaries per quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Collision probability across replications.
    pub collision_probability: Summary,
    /// Normalized throughput across replications.
    pub norm_throughput: Summary,
    /// Jain fairness across replications.
    pub jain_fairness: Summary,
}

impl ReplicationSummary {
    /// Summarize a set of reports.
    pub fn of(reports: &[SimReport]) -> Self {
        let mut p = Welford::new();
        let mut s = Welford::new();
        let mut j = Welford::new();
        for r in reports {
            p.push(r.collision_probability);
            s.push(r.norm_throughput);
            j.push(r.jain_fairness);
        }
        ReplicationSummary {
            collision_probability: p.summary(),
            norm_throughput: s.summary(),
            jain_fairness: j.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_runs_1901() {
        let r = Simulation::ieee1901(2).horizon_us(5e6).seed(1).run();
        assert!(r.collision_probability > 0.02 && r.collision_probability < 0.2);
        assert!(r.norm_throughput > 0.5);
        assert!(r.successes > 0);
        assert_eq!(r.metrics.num_stations(), 2);
    }

    #[test]
    fn builder_runs_dcf() {
        let r = Simulation::dcf(2).horizon_us(5e6).seed(1).run();
        assert!(r.successes > 0);
        assert!(r.collision_probability > 0.0);
    }

    #[test]
    fn deferral_counter_beats_matched_dcf() {
        // The paper's key effect: with the *same* windows (CW_min = 8,
        // doubling to 64), 1901's deferral counter preemptively spreads
        // stations across stages and yields a lower collision probability
        // than pure DCF, which only reacts to collisions.
        let dcf = Simulation::dcf(4)
            .config(CsmaConfig::dcf_like(8, 4).unwrap())
            .horizon_us(1e7)
            .seed(1)
            .run();
        let p1901 = Simulation::ieee1901(4).horizon_us(1e7).seed(1).run();
        assert!(
            p1901.collision_probability < dcf.collision_probability,
            "1901 {} must beat matched-window DCF {}",
            p1901.collision_probability,
            dcf.collision_probability
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let a = Simulation::ieee1901(3).horizon_us(2e6).seed(7).run();
        let b = Simulation::ieee1901(3).horizon_us(2e6).seed(7).run();
        assert_eq!(a, b);
    }

    #[test]
    fn replications_differ_but_concentrate() {
        let reports = Simulation::ieee1901(3)
            .horizon_us(5e6)
            .seed(3)
            .run_repeated(5);
        assert_eq!(reports.len(), 5);
        let summary = ReplicationSummary::of(&reports);
        assert_eq!(summary.collision_probability.count, 5);
        assert!(summary.collision_probability.std_dev < 0.02);
        assert!(summary.collision_probability.mean > 0.05);
        // Distinct seeds → not all identical.
        assert!(reports.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn adjacent_master_seeds_do_not_share_replications() {
        // Regression: `seed_from_u64(seed + k)` made (base 3, k = 1)
        // reuse (base 4, k = 0)'s stream. SplitMix64 (seed, k) mixing
        // keeps replication sets of adjacent masters fully disjoint.
        let base3 = Simulation::ieee1901(2)
            .horizon_us(5e5)
            .seed(3)
            .run_repeated(3);
        let base4 = Simulation::ieee1901(2)
            .horizon_us(5e5)
            .seed(4)
            .run_repeated(3);
        for a in &base3 {
            for b in &base4 {
                assert_ne!(a, b, "replication streams of masters 3 and 4 overlap");
            }
        }
        // And replications stay reproducible.
        let again = Simulation::ieee1901(2)
            .horizon_us(5e5)
            .seed(3)
            .run_repeated(3);
        assert_eq!(base3, again);
    }

    #[test]
    fn custom_config_flows_through() {
        // A huge constant window nearly eliminates collisions at N=2.
        let r = Simulation::ieee1901(2)
            .config(CsmaConfig::constant_window(256).unwrap())
            .horizon_us(5e6)
            .seed(2)
            .run();
        assert!(
            r.collision_probability < 0.02,
            "CW=256 should be nearly collision-free at N=2, got {}",
            r.collision_probability
        );
    }

    #[test]
    fn doc_example_compiles_and_holds() {
        let report = Simulation::ieee1901(3).horizon_us(5.0e6).seed(42).run();
        assert!(report.collision_probability > 0.0);
        assert!(report.norm_throughput > 0.5);
    }

    #[test]
    fn builder_sink_receives_all_events() {
        use crate::trace::CountingSink;
        use parking_lot::Mutex;
        use std::sync::Arc;
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        let r = Simulation::ieee1901(2)
            .horizon_us(1e6)
            .seed(4)
            .sink(sink.clone())
            .run();
        let c = *sink.lock();
        assert_eq!(c.successes, r.successes);
        assert_eq!(c.collisions, r.metrics.collision_events);
    }

    #[test]
    fn meanfield_backend_tracks_slotted_at_moderate_n() {
        let slotted = Simulation::ieee1901(10).horizon_us(1e7).seed(11).run();
        let mf = Simulation::ieee1901(10)
            .backend(Backend::MeanField)
            .horizon_us(1e7)
            .run();
        assert!(
            (slotted.collision_probability - mf.collision_probability).abs() < 0.05,
            "slotted γ={} vs mean-field γ={}",
            slotted.collision_probability,
            mf.collision_probability
        );
        assert!((slotted.norm_throughput - mf.norm_throughput).abs() < 0.05);
    }

    #[test]
    fn meanfield_runs_ignore_the_seed() {
        let a = Simulation::ieee1901(5)
            .backend(Backend::MeanField)
            .seed(1)
            .run();
        let b = Simulation::ieee1901(5)
            .backend(Backend::MeanField)
            .seed(999)
            .run();
        assert_eq!(a, b);
    }

    #[test]
    fn meanfield_run_repeated_short_circuits() {
        let reports = Simulation::ieee1901(5)
            .backend(Backend::MeanField)
            .run_repeated(10);
        assert_eq!(reports.len(), 1, "deterministic backend replicates once");
        match Simulation::ieee1901(5)
            .backend(Backend::MeanField)
            .run_summary(10)
        {
            RunSummary::Deterministic(r) => assert_eq!(*r, reports[0]),
            RunSummary::Sampled(_) => panic!("mean-field summary must be Deterministic"),
        }
        match Simulation::ieee1901(3).horizon_us(5e5).run_summary(3) {
            RunSummary::Sampled(s) => assert_eq!(s.collision_probability.count, 3),
            RunSummary::Deterministic(_) => panic!("slotted summary must be Sampled"),
        }
    }

    #[test]
    fn meanfield_rejects_unsupported_knobs() {
        let cases: Vec<(&str, Simulation)> = vec![
            (
                "pb errors",
                Simulation::ieee1901(3)
                    .backend(Backend::MeanField)
                    .pb_error_prob(0.1),
            ),
            (
                "bursting",
                Simulation::ieee1901(3)
                    .backend(Backend::MeanField)
                    .burst(BurstPolicy::Fixed(4)),
            ),
            (
                "finite retries",
                Simulation::ieee1901(3)
                    .backend(Backend::MeanField)
                    .retry(RetryPolicy::Limited { max_attempts: 3 }),
            ),
            (
                "noise",
                Simulation::ieee1901(3).backend(Backend::MeanField).noise([
                    plc_faults::NoiseBurst {
                        start_us: 0.0,
                        duration_us: 100.0,
                    },
                ]),
            ),
            (
                "snapshots",
                Simulation::ieee1901(3)
                    .backend(Backend::MeanField)
                    .snapshots(true),
            ),
        ];
        for (what, sim) in cases {
            let err = sim.try_run().expect_err(what);
            assert!(
                err.to_string()
                    .contains("mean-field backend does not model"),
                "{what}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn meanfield_try_build_is_a_typed_error() {
        let err = Simulation::ieee1901(3)
            .backend(Backend::MeanField)
            .try_build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("no slotted engine"));
    }

    #[test]
    fn meanfield_analysis_exposes_diagnostics_and_delay() {
        let a = Simulation::ieee1901(10)
            .backend(Backend::MeanField)
            .meanfield_analysis()
            .unwrap();
        assert!(a.solution.diagnostics.converged);
        assert!(a.delay.mean_us > 0.0);
        // And the accessor refuses on the slotted backend.
        assert!(Simulation::ieee1901(10).meanfield_analysis().is_err());
    }

    #[test]
    fn observers_and_registry_do_not_perturb_results() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        let plain = Simulation::ieee1901(3).horizon_us(1e6).seed(5).run();
        let collector = Arc::new(Mutex::new(plc_obs::CollectingObserver::default()));
        let registry = plc_obs::Registry::new();
        let observed = Simulation::ieee1901(3)
            .horizon_us(1e6)
            .seed(5)
            .observer(collector.clone(), 500)
            .registry(&registry)
            .run();
        assert_eq!(plain, observed, "observation must be read-only");
        let snaps = collector.lock();
        assert!(!snaps.engine.is_empty(), "periodic snapshots must arrive");
        let first = &snaps.engine[0];
        assert_eq!(first.step, 500);
        assert_eq!(first.stations.len(), 3);
        assert_eq!(first.stage_occupancy().iter().sum::<usize>(), 3);
        let steps = registry.snapshot().counter("engine.steps").unwrap();
        assert!(steps >= snaps.engine.len() as u64 * 500);
    }
}
