//! The modular slotted simulation engine.
//!
//! [`SlottedEngine`] implements the same channel dynamics as the paper's
//! reference simulator — a single contention domain where each step is
//! either an idle slot (`σ`), a successful transmission (`Ts`) or a
//! collision (`Tc`) — but in extensible form:
//!
//! * generic over the backoff process, so IEEE 1901, 802.11 DCF and the
//!   ablation variants run under identical dynamics (use
//!   [`plc_mac::AnyBackoff`] to mix protocols in one channel);
//! * per-station traffic models (saturated, Poisson, on/off);
//! * MPDU bursting with per-MPDU SoF/SACK wire events, which is what the
//!   emulated testbed's sniffer captures;
//! * retry policies;
//! * priority resolution among the CA0–CA3 classes of Table 1;
//! * trace sinks and per-station metrics.
//!
//! # Priority resolution
//!
//! The 1901 standard "specifies that only the stations belonging to the
//! highest contending priority class run the backoff process", decided by
//! busy tones in two priority-resolution slots (PRS0/PRS1) after each
//! transmission. When the stations do not all share one
//! [`StationSpec::priority`], the engine applies that rule round by round:
//!
//! * a round opens at the first step that has a backlogged station, after
//!   that step's arrivals;
//! * the winning class is [`resolve_priority`] over the backlogged
//!   stations' classes;
//! * until the round's success or collision, every station outside the
//!   winning class is treated exactly like a station with an empty queue:
//!   it neither counts down, senses busy, nor transmits, so its backoff
//!   state stays frozen.
//!
//! Resolution charges no airtime: the two PRS slots already sit inside
//! `Ts` and `Tc` ([`MacTiming::from_payload`]). A population with one
//! priority never resolves.
//!
//! With the default knobs (saturated stations, single-MPDU bursts,
//! infinite retries) the engine is statistically indistinguishable from
//! the reference port in [`crate::paper`] — an integration test asserts
//! exactly that.

use crate::bursting::BurstPolicy;
use crate::contention::{ContentionCore, CoreRejection, SweepAction};
use crate::metrics::Metrics;
use crate::trace::{StationId, TraceEvent, TraceSink};
use crate::traffic::{TrafficModel, TrafficState};
use parking_lot::Mutex;
use plc_core::addr::Tei;
use plc_core::error::{Error, Result};
use plc_core::frame::{SelectiveAck, SofDelimiter};
use plc_core::priority::{resolve_priority, Priority};
use plc_core::timing::{MacTiming, MAX_BURST, PREAMBLE, RIFS, SACK};
use plc_core::units::Microseconds;
use plc_mac::process::BackoffProcess;
use plc_mac::retry::{RetryPolicy, RetryState};
use plc_obs::{EngineObs, SharedObserver, StationObs};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A trace sink shared between the engine and its owner.
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// An observer attached to the engine, firing every `every` steps.
struct ObserverSlot {
    observer: SharedObserver,
    every: u64,
}

/// Hot-path span timers installed by [`SlottedEngine::instrument`].
struct EngineTimers {
    step: plc_obs::SpanTimer,
    pb_draw: plc_obs::SpanTimer,
    steps: plc_obs::Counter,
    steps_skipped: plc_obs::Counter,
    fast_forward: plc_obs::SpanTimer,
}

/// Beacon scheduling: the CCo transmits one beacon per period; contention
/// is *suspended* (not sensed busy — backoff state freezes) while the
/// beacon occupies the medium, per the standard's region structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconSchedule {
    /// Beacon period (HomePlug AV: two mains cycles, 40 ms at 50 Hz).
    pub period: Microseconds,
    /// Beacon airtime.
    pub duration: Microseconds,
}

impl BeaconSchedule {
    /// The standard 50 Hz-mains schedule.
    pub fn standard_50hz() -> Self {
        BeaconSchedule {
            period: plc_core::timing::BEACON_PERIOD_50HZ,
            duration: plc_core::timing::BEACON_AIRTIME,
        }
    }
}

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Channel timing (slot, Ts, Tc, frame length).
    pub timing: MacTiming,
    /// Simulation horizon: the engine steps until simulated time exceeds
    /// this value (matching the reference's `while t <= sim_time`).
    pub horizon: Microseconds,
    /// Burst policy applied on contention wins.
    pub burst: BurstPolicy,
    /// Retry policy for failed transmissions.
    pub retry: RetryPolicy,
    /// Per-physical-block channel error probability. 0 (the default)
    /// reproduces the paper's error-free assumption; a positive value
    /// exercises the §4.1 mechanism the paper leaves unmodelled: errored
    /// PBs are flagged in the selective ACK and *only those blocks* are
    /// retransmitted in a later contention win (`plc-phy` derives this
    /// probability from a synthetic channel).
    pub pb_error_prob: f64,
    /// Emit per-station [`TraceEvent::Snapshot`] events after every step
    /// (needed to regenerate Figure 1; costly on long runs).
    pub emit_snapshots: bool,
    /// Emit [`TraceEvent::Sof`]/[`TraceEvent::Sack`] wire events (needed by
    /// the testbed sniffer; harmless otherwise).
    pub emit_wire_events: bool,
    /// Optional beacon schedule (`None` = the paper's pure-CSMA model).
    pub beacons: Option<BeaconSchedule>,
    /// Impulse-noise bursts: while one is active, every physical block of
    /// every transmitted MPDU errors, without consuming channel-RNG
    /// draws. Empty = the paper's clean medium. The engine sorts the list
    /// by start time on construction and rejects overlapping or
    /// non-finite bursts with [`Error::InvalidConfig`].
    pub noise: Vec<plc_faults::NoiseBurst>,
    /// Fast-forward runs of idle slots in one jump (default `true`).
    /// Byte-identical to per-slot stepping — idle slots consume no RNG
    /// draws and never touch the deferral counter — and exercised against
    /// it by the `fast_forward_equivalence` test suite; disable only to
    /// cross-check the stepping path.
    /// [`emit_snapshots`](EngineConfig::emit_snapshots) and attached
    /// observers force the per-slot path regardless, since both need every
    /// step materialized.
    pub fast_forward: bool,
    /// Host the contention counters in a struct-of-arrays core (default
    /// `true`), making the busy-slot pass a tight sweep over parallel
    /// arrays with batched RNG draws. Bit-identical to the per-object
    /// path — same traces, metrics and RNG stream, pinned by the
    /// `soa_equivalence` suite — and engaged only when every station's
    /// process exports a [`plc_mac::SoaView`]; disable to force the
    /// per-object reference path.
    pub soa: bool,
    /// Cooperative cancellation: when installed, [`SlottedEngine::run`]
    /// polls the token once per slot (idle runs are still absorbed in
    /// one fast-forward jump first) and returns early when it fires,
    /// leaving partial metrics behind. `None` (the default) is **zero
    /// cost**: the run loop compiles without any check — the engine
    /// dispatches to the exact pre-cancellation loops — so installing
    /// no token keeps the hot path byte-for-byte as fast as before.
    /// Cancellation never perturbs results that complete: a run that
    /// reaches the horizon with an un-fired token is bit-identical to
    /// one without a token installed.
    pub cancel: Option<plc_core::CancelToken>,
}

impl EngineConfig {
    /// Paper defaults: CA1 timing, 500 s horizon, single-MPDU bursts,
    /// infinite retries, no snapshots, wire events on.
    pub fn paper_default() -> Self {
        EngineConfig {
            timing: MacTiming::paper_default(),
            horizon: plc_core::timing::DEFAULT_SIM_TIME,
            burst: BurstPolicy::Single,
            retry: RetryPolicy::Infinite,
            pb_error_prob: 0.0,
            emit_snapshots: false,
            emit_wire_events: true,
            beacons: None,
            noise: Vec::new(),
            fast_forward: true,
            soa: true,
            cancel: None,
        }
    }

    /// Same defaults with a custom horizon.
    pub fn with_horizon(horizon: Microseconds) -> Self {
        EngineConfig {
            horizon,
            ..Self::paper_default()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Specification of one station.
#[derive(Debug, Clone)]
pub struct StationSpec<P> {
    /// The backoff process (already constructed, i.e. already at stage 0
    /// with BC drawn).
    pub process: P,
    /// The station's channel-access class, carried in its SoF LinkID
    /// field (data at CA1, MMEs at CA2/CA3 in the testbed). When the
    /// stations' priorities differ, only the highest backlogged class
    /// contends in each round (see the [module docs](self)).
    pub priority: Priority,
    /// Arrival model.
    pub traffic: TrafficModel,
    /// Physical blocks per MPDU (SoF bookkeeping; 4 PBs ≈ one 2 kB frame).
    pub num_pbs: u16,
    /// Per-station PB error probability override (`None` = the engine's
    /// global `pb_error_prob`). Lets harnesses model per-link channel
    /// quality and tone-map staleness.
    pub pb_error_prob: Option<f64>,
    /// TEI stamped into this station's SoF delimiters and SACKs (`None` =
    /// `Tei::station(index)`). The testbed sets it when one device
    /// contributes several stations (data and management).
    pub tei: Option<Tei>,
    /// Destination TEI stamped into its SoF delimiters (`None` = one past
    /// the last station, the destination `D` of the paper's tests).
    pub dst: Option<Tei>,
}

impl<P> StationSpec<P> {
    /// A saturated CA1 station around the given process.
    pub fn saturated(process: P) -> Self {
        StationSpec {
            process,
            priority: Priority::CA1,
            traffic: TrafficModel::Saturated,
            num_pbs: 4,
            pb_error_prob: None,
            tei: None,
            dst: None,
        }
    }
}

struct StationCtx<P> {
    process: P,
    priority: Priority,
    traffic: TrafficState,
    retry: RetryState,
    num_pbs: u16,
    pb_error_prob: Option<f64>,
    /// PB counts of partially-errored MPDUs awaiting selective
    /// retransmission (FIFO; serviced before fresh frames).
    retx: std::collections::VecDeque<u16>,
    tei: Option<Tei>,
    dst: Option<Tei>,
    /// Outside the winning class of the open priority-resolution round.
    /// Meaningful only while a round is open; always `false` in a
    /// population with one priority.
    frozen: bool,
}

impl<P> StationCtx<P> {
    /// Fresh frames queued or errored PBs awaiting retransmission.
    #[inline]
    fn backlogged(&self) -> bool {
        self.traffic.has_frame() || !self.retx.is_empty()
    }

    /// Backlogged and not frozen by priority resolution: the station
    /// counts down, senses busy and transmits this slot.
    #[inline]
    fn contends(&self) -> bool {
        !self.frozen && self.backlogged()
    }
}

/// What one engine step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The medium was idle for one slot (or no station had traffic).
    Idle,
    /// One station transmitted a burst successfully.
    Success {
        /// The winner.
        station: StationId,
        /// MPDUs in the burst.
        burst: usize,
    },
    /// Two or more stations collided.
    Collision {
        /// The colliding stations.
        stations: Vec<StationId>,
    },
}

/// Lightweight step result used internally: the public [`StepOutcome`]
/// (which owns the colliding-station list) is only materialized by
/// [`SlottedEngine::step`], so the `run` hot loop never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Idle,
    Success { station: StationId, burst: usize },
    Collision,
}

/// Earliest pending traffic event over `stations` (see
/// [`TrafficState::next_event_us`]).
fn next_traffic_event<P>(stations: &[StationCtx<P>]) -> f64 {
    stations
        .iter()
        .map(|st| st.traffic.next_event_us())
        .fold(f64::INFINITY, f64::min)
}

/// Deliver `ev` to every sink. A free function so the busy branches can
/// emit while they hold the contention core.
fn emit_to(sinks: &[SharedSink], ev: &TraceEvent) {
    for sink in sinks {
        sink.lock().on_event(ev);
    }
}

/// The slotted single-contention-domain engine. See the [module
/// docs](self).
pub struct SlottedEngine<P: BackoffProcess> {
    cfg: EngineConfig,
    stations: Vec<StationCtx<P>>,
    rng: SmallRng,
    t: Microseconds,
    metrics: Metrics,
    sinks: Vec<SharedSink>,
    /// Scratch buffer of transmitting stations (avoids per-step
    /// allocation); holds the last step's transmitter set after a step.
    tx_buf: Vec<StationId>,
    /// Scratch buffer of per-MPDU (pbs, errored) outcomes of a success.
    outcome_buf: Vec<(u16, u16)>,
    /// Scratch buffer of per-station burst draws of a collision.
    burst_buf: Vec<(usize, usize)>,
    /// Time of the next scheduled beacon, when beacons are enabled.
    next_beacon: Microseconds,
    /// Slots executed so far (skipped idle slots count one each).
    steps: u64,
    observers: Vec<ObserverSlot>,
    timers: Option<EngineTimers>,
    /// Cursor into `cfg.noise` (time is monotone, so passed bursts never
    /// come back).
    noise_idx: usize,
    /// Every station saturated and one priority: the backlog flags are
    /// constant `true` (and the event-indexed core, which has none, may
    /// be in use).
    fixed_backlog: bool,
    /// The stations' priorities differ, so contention runs in
    /// priority-resolution rounds (see the module docs).
    resolves: bool,
    /// A resolution round is open: its losers are `frozen` until its
    /// success or collision.
    round_open: bool,
    /// Scratch list of the backlogged classes a round resolves over,
    /// reused from round to round.
    classes_buf: Vec<Priority>,
    /// Earliest [`TrafficState::next_event_us`] over all stations
    /// (`INFINITY` when no station has a pending arrival or phase flip).
    /// A step runs the arrival loop only once its start time reaches
    /// it; every `advance_to` before then is a documented no-op.
    next_traffic_event: f64,
    /// Contention-state cache for the fast-forward run loops: when
    /// `hint_valid`, `zero_bc` holds exactly the backlogged stations whose
    /// process transmits this slot (ascending station order — the same
    /// order the contend scan produces) and, when `zero_bc` is empty,
    /// `min_bc` the minimum backoff counter over backlogged stations
    /// (`u32::MAX` when none). With transmitters pending `min_bc` is
    /// never read, and the event-indexed core does not compute it.
    /// Maintained by the `TRACK = true` step path by folding
    /// [`BackoffProcess::idle_skip`] into the mutation loops it already
    /// runs, so the per-step contention rescan disappears; any mutation
    /// outside those loops (traffic reset, external `step()` calls)
    /// invalidates it.
    hint_valid: bool,
    min_bc: u32,
    zero_bc: Vec<StationId>,
    /// Struct-of-arrays contention state (see [`EngineConfig::soa`]).
    /// When present it is the *authoritative* store of every station's
    /// BC/DC/BPC/stage — the `StationCtx` process objects are only read
    /// at build time — and every read or mutation of contention state
    /// routes through it.
    core: Option<ContentionCore>,
    /// Why the struct-of-arrays core could not be packed, when `cfg.soa`
    /// was requested but the engine had to fall back to the per-object
    /// path. `None` either means the core is active or that a process
    /// opted out of exporting a SoA view.
    soa_rejection: Option<CoreRejection>,
    /// Scratch buffer of per-transmitter sweep actions (collision arm).
    action_buf: Vec<SweepAction>,
}

impl<P: BackoffProcess> SlottedEngine<P> {
    /// Build an engine over the given stations. `seed` drives all engine
    /// randomness (traffic arrivals, burst draws) — note the *processes*
    /// were seeded by their own constructor RNGs, so construct them from
    /// the same master seed for full reproducibility (the
    /// [`crate::runner`] builder does this).
    ///
    /// # Panics
    ///
    /// On any configuration [`try_new`](Self::try_new) rejects.
    pub fn new(cfg: EngineConfig, stations: Vec<StationSpec<P>>, seed: u64) -> Self {
        Self::try_new(cfg, stations, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), returning configuration problems as
    /// [`Error::InvalidConfig`] instead of panicking: an empty station
    /// set, invalid timing, a PB error probability outside `[0, 1)`, or a
    /// malformed noise schedule. Noise bursts are sorted by start time
    /// here (callers may build them out of order); overlapping or
    /// non-finite bursts are rejected since both would corrupt the
    /// monotone noise cursor and the fast-forward clamp.
    pub fn try_new(
        mut cfg: EngineConfig,
        stations: Vec<StationSpec<P>>,
        seed: u64,
    ) -> Result<Self> {
        if stations.is_empty() {
            return Err(Error::invalid_config("need at least one station"));
        }
        if !cfg.timing.is_valid() {
            return Err(Error::invalid_config("invalid MacTiming"));
        }
        if !(0.0..1.0).contains(&cfg.pb_error_prob) {
            return Err(Error::invalid_config(
                "PB error probability must be in [0, 1)",
            ));
        }
        for b in &cfg.noise {
            if !(b.start_us.is_finite() && b.duration_us.is_finite())
                || b.start_us < 0.0
                || b.duration_us < 0.0
            {
                return Err(Error::invalid_config(format!(
                    "noise burst (start {} µs, duration {} µs) must have \
                     finite, non-negative start and duration",
                    b.start_us, b.duration_us
                )));
            }
        }
        cfg.noise.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for w in cfg.noise.windows(2) {
            if w[1].start_us < w[0].end_us() {
                return Err(Error::invalid_config(format!(
                    "noise bursts overlap: [{}, {}) and [{}, {}) µs",
                    w[0].start_us,
                    w[0].end_us(),
                    w[1].start_us,
                    w[1].end_us()
                )));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = stations.len();
        let stations: Vec<StationCtx<P>> = stations
            .into_iter()
            .map(|s| StationCtx {
                process: s.process,
                priority: s.priority,
                traffic: TrafficState::new(s.traffic, &mut rng),
                retry: RetryState::new(),
                num_pbs: s.num_pbs,
                pb_error_prob: s.pb_error_prob,
                retx: std::collections::VecDeque::new(),
                tei: s.tei,
                dst: s.dst,
                frozen: false,
            })
            .collect();
        let next_beacon = cfg
            .beacons
            .map(|b| b.period)
            .unwrap_or(Microseconds(f64::INFINITY));
        let resolves = stations.iter().any(|s| s.priority != stations[0].priority);
        let fixed_backlog = !resolves && stations.iter().all(|s| s.traffic.is_saturated());
        let next_traffic_event = next_traffic_event(&stations);
        // Move the contention counters into the struct-of-arrays core
        // when every process can export them; a single opt-out (or an
        // unrepresentable table) falls back to the per-object path, and
        // the rejection reason is kept so callers (and the
        // `engine.soa_fallbacks` counter) can see *why* instead of the
        // core silently staying unused.
        let mut soa_rejection = None;
        let core = if cfg.soa {
            match stations
                .iter()
                .map(|s| s.process.soa_view())
                .collect::<Option<Vec<_>>>()
            {
                Some(views) => match ContentionCore::try_from_views(&views, fixed_backlog) {
                    Ok(mut core) => {
                        // The backlog flags mirror the queues between
                        // steps, from the start: fast-forward folds its
                        // jump length and consumes idle slots by them.
                        if !fixed_backlog {
                            for (i, st) in stations.iter().enumerate() {
                                core.set_active(i, st.contends());
                            }
                        }
                        Some(core)
                    }
                    Err(why) => {
                        soa_rejection = Some(why);
                        None
                    }
                },
                // A process without a SoA view opted out by design — not
                // a packing failure, so no rejection is recorded.
                None => None,
            }
        } else {
            None
        };
        Ok(SlottedEngine {
            cfg,
            stations,
            rng,
            t: Microseconds::ZERO,
            metrics: Metrics::new(n),
            sinks: Vec::new(),
            tx_buf: Vec::with_capacity(n),
            outcome_buf: Vec::with_capacity(MAX_BURST),
            burst_buf: Vec::with_capacity(n),
            next_beacon,
            steps: 0,
            observers: Vec::new(),
            timers: None,
            noise_idx: 0,
            fixed_backlog,
            resolves,
            round_open: false,
            classes_buf: Vec::new(),
            next_traffic_event,
            hint_valid: false,
            min_bc: u32::MAX,
            zero_bc: Vec::with_capacity(n),
            core,
            soa_rejection,
            action_buf: Vec::with_capacity(n),
        })
    }

    /// Subscribe a trace sink.
    pub fn add_sink(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Attach a periodic observer: it receives an [`EngineObs`] snapshot
    /// every `every_steps` engine steps. Observers are read-only — they
    /// never touch the engine's RNG stream, so attaching one cannot
    /// change the simulation's results.
    pub fn add_observer(&mut self, observer: SharedObserver, every_steps: u64) {
        assert!(every_steps > 0, "observer interval must be positive");
        self.observers.push(ObserverSlot {
            observer,
            every: every_steps,
        });
    }

    /// Install hot-path instrumentation into `registry`: the span timers
    /// `engine.step` (whole-step wall time), `engine.pb_draw` (per-MPDU
    /// channel-error sampling) and `engine.fast_forward` (idle-slot
    /// skips), plus the counters `engine.steps` (every slot, skipped ones
    /// included) and `engine.steps_skipped` (slots absorbed by
    /// fast-forward). Without this call the hot loop pays a single branch
    /// per step for observability.
    ///
    /// Inside [`run`](Self::run) with fast-forward on, `engine.step` and
    /// `engine.steps` are recorded in one batch when the run completes
    /// (a per-step clock read would cost as much as the step itself);
    /// the totals are identical, but mid-run reads from another thread
    /// see them only after the run returns. External [`step`](Self::step)
    /// calls record per step.
    ///
    /// Fails with [`Error::Runtime`] if any of those names is already
    /// registered as a different metric kind.
    pub fn instrument(&mut self, registry: &plc_obs::Registry) -> Result<()> {
        self.timers = Some(EngineTimers {
            step: registry.try_timer("engine.step")?,
            pb_draw: registry.try_timer("engine.pb_draw")?,
            steps: registry.try_counter("engine.steps")?,
            steps_skipped: registry.try_counter("engine.steps_skipped")?,
            fast_forward: registry.try_timer("engine.fast_forward")?,
        });
        // Make silent SoA fallbacks visible: the counter exists whenever
        // an instrumented engine runs, so a zero reading means "core
        // active or opted out", a non-zero reading says how many engines
        // hit an unrepresentable contention table.
        let fallbacks = registry.try_counter("engine.soa_fallbacks")?;
        if self.soa_rejection.is_some() {
            fallbacks.add(1);
        }
        Ok(())
    }

    /// Why the struct-of-arrays contention core was rejected, when
    /// [`EngineConfig::soa`] asked for it but the engine fell back to the
    /// per-object path. `None` means the core is active, SoA was not
    /// requested, or a process opted out of exporting a view.
    pub fn soa_rejection(&self) -> Option<&CoreRejection> {
        self.soa_rejection.as_ref()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current simulated time.
    pub fn time(&self) -> Microseconds {
        self.t
    }

    /// Metrics so far. `elapsed` is kept up to date after every step.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counter snapshot of station `i`.
    pub fn snapshot(&self, i: StationId) -> plc_mac::process::BackoffSnapshot {
        match &self.core {
            Some(core) => core.snapshot(i),
            None => self.stations[i].process.snapshot(),
        }
    }

    /// Number of stations.
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Sample how many of `pbs` physical blocks error on a channel whose
    /// PB error probability `p` is positive (the success arm answers
    /// `p = 0` itself, without a draw).
    fn sample_pb_errors(&mut self, p: f64, pbs: u16) -> u16 {
        debug_assert!(p > 0.0, "an error-free channel draws nothing");
        let _draw_span = self.timers.as_ref().map(|t| t.pb_draw.start());
        let mut errored = 0u16;
        for _ in 0..pbs {
            if rand::Rng::gen::<f64>(&mut self.rng) < p {
                errored += 1;
            }
        }
        errored
    }

    /// Whether an impulse-noise burst is active at `t`. Advances a
    /// monotone cursor; zero cost (one slice-length check) when the
    /// config has no noise.
    fn noise_active(&mut self, t: Microseconds) -> bool {
        let t = t.as_micros();
        while self
            .cfg
            .noise
            .get(self.noise_idx)
            .is_some_and(|b| t >= b.end_us())
        {
            self.noise_idx += 1;
        }
        self.cfg
            .noise
            .get(self.noise_idx)
            .is_some_and(|b| b.contains(t))
    }

    /// The next noise-burst boundary (start or end) strictly ahead of the
    /// current time, `INFINITY` when none remain. Read-only: the monotone
    /// cursor is only advanced by [`noise_active`](Self::noise_active).
    fn next_noise_edge(&self) -> f64 {
        let t = self.t.as_micros();
        for b in &self.cfg.noise[self.noise_idx..] {
            if t < b.start_us {
                return b.start_us;
            }
            if t < b.end_us() {
                return b.end_us();
            }
        }
        f64::INFINITY
    }

    /// Fast-forward a run of guaranteed-idle slots, returning how many
    /// were absorbed (0 = the next step must take the per-slot path).
    ///
    /// Validity: an idle slot consumes no RNG draws and never touches the
    /// deferral counter in either protocol (see
    /// [`BackoffProcess::idle_skip`]), so while every backlogged station
    /// has `BC > 0` the next `min(BC)` slots are fully predictable. The
    /// jump is clamped at the horizon, the next beacon, the next traffic
    /// arrival/phase event (where `advance_to` would mutate state) and
    /// the next noise-burst edge (belt and braces — idle slots never
    /// sample the noise schedule). Time and `time_idle` advance by
    /// per-slot `+=` in the original order, so the f64 accumulations —
    /// and any emitted `IdleSlot` events — are bit-identical to the
    /// stepping path. A jump never crosses a priority-resolution round
    /// opening: with no round open and a station backlogged, the next
    /// step opens one.
    fn fast_forward_idle(&mut self) -> u64 {
        if self.resolves && !self.round_open && self.round_pending() {
            return 0;
        }
        let k = if self.hint_valid {
            // The previous step's mutation loops already folded every
            // backlogged station's BC: no rescan needed.
            if !self.zero_bc.is_empty() {
                return 0;
            }
            self.min_bc
        } else if let Some(core) = &mut self.core {
            // Skipping no slots folds the cache from the core's own
            // backlog flags without changing its state.
            let mut zero = std::mem::take(&mut self.zero_bc);
            zero.clear();
            let mut k = u32::MAX;
            core.skip_idle(0, &mut zero, &mut k);
            let transmits = !zero.is_empty();
            self.zero_bc = zero;
            if transmits {
                // A station transmits this slot: step normally.
                return 0;
            }
            k
        } else {
            let mut k = u32::MAX;
            for st in &self.stations {
                if st.contends() {
                    match st.process.idle_skip() {
                        Some(bc) if bc > 0 => k = k.min(bc),
                        // A station transmits this slot, or its process
                        // opted out of skipping: step normally.
                        _ => return 0,
                    }
                }
            }
            k
        };
        if k == 0 {
            return 0;
        }
        let slot = self.cfg.timing.slot;
        let horizon = self.cfg.horizon.as_micros();
        let next_beacon = self.next_beacon.as_micros();
        let next_event = self.next_noise_edge().min(self.next_traffic_event);
        let emitting = !self.sinks.is_empty();
        // The two f64 accumulators live in registers for the run; each
        // still takes one `+= slot` per absorbed slot, in order.
        let (mut t, mut time_idle) = (self.t, self.metrics.time_idle);
        let mut skipped: u64 = 0;
        while skipped < k as u64 {
            let t0 = t.as_micros();
            if t0 > horizon || t0 >= next_beacon || t0 >= next_event {
                break;
            }
            if emitting {
                emit_to(&self.sinks, &TraceEvent::IdleSlot { t });
            }
            t += slot;
            time_idle += slot;
            skipped += 1;
        }
        self.t = t;
        self.metrics.time_idle = time_idle;
        self.metrics.idle_slots += skipped;
        if skipped > 0 {
            // Consume the absorbed slots and refresh the hint in the same
            // pass: every backlogged BC just dropped by `skipped`.
            let mut zero = std::mem::take(&mut self.zero_bc);
            zero.clear();
            let mut min = u32::MAX;
            let mut poisoned = false;
            if let Some(core) = &mut self.core {
                core.skip_idle(skipped as u32, &mut zero, &mut min);
            } else {
                for (i, st) in self.stations.iter_mut().enumerate() {
                    if st.contends() {
                        st.process.consume_idle_slots(skipped as u32);
                        match st.process.idle_skip() {
                            Some(0) => zero.push(i),
                            Some(bc) => min = min.min(bc),
                            None => poisoned = true,
                        }
                    }
                }
            }
            self.zero_bc = zero;
            self.min_bc = min;
            self.hint_valid = !poisoned;
            self.metrics.elapsed = self.t;
            self.steps += skipped;
        }
        skipped
    }

    /// Whether any station is backlogged: with no round open, the next
    /// step then opens a priority-resolution round.
    #[cold]
    #[inline(never)]
    fn round_pending(&self) -> bool {
        self.stations.iter().any(|st| st.backlogged())
    }

    /// Open a priority-resolution round when a station is backlogged:
    /// resolve the backlogged stations' classes and freeze every station
    /// outside the winner, clearing its backlog flag in the core.
    /// Rebuilding every flag here is what lets a round's close leave the
    /// stale `frozen` marks in place: no station contends between a close
    /// and the next opening.
    #[cold]
    #[inline(never)]
    fn open_round(&mut self) {
        self.classes_buf.clear();
        self.classes_buf.extend(
            self.stations
                .iter()
                .filter(|st| st.backlogged())
                .map(|st| st.priority),
        );
        let Some(res) = resolve_priority(&self.classes_buf) else {
            return;
        };
        for (i, st) in self.stations.iter_mut().enumerate() {
            st.frozen = st.priority != res.winner;
            if let Some(core) = &mut self.core {
                core.set_active(i, st.contends());
            }
        }
        self.round_open = true;
        // The contention cache was folded over the previous round's
        // contenders.
        self.hint_valid = false;
    }

    /// Update station `i`'s per-link PB error probability mid-run — the
    /// hook tone-map adaptation harnesses use to model channel drift and
    /// re-estimation.
    pub fn set_station_pb_error(&mut self, station: StationId, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "PB error probability must be in [0, 1)"
        );
        self.stations[station].pb_error_prob = Some(p);
    }

    fn emit(&mut self, ev: TraceEvent) {
        emit_to(&self.sinks, &ev);
    }

    /// The SoF delimiter station `i` puts on the wire, `remaining` MPDUs
    /// following in the burst.
    fn sof_for(&self, i: StationId, remaining: usize) -> SofDelimiter {
        let st = &self.stations[i];
        // Frame-length field is in 1.28 µs units.
        let fl = (self.cfg.timing.frame_length.as_micros() / 1.28).round();
        SofDelimiter {
            src: self.tei_of(i),
            // Destination D: one past the senders.
            dst: st
                .dst
                .unwrap_or_else(|| Tei::station(self.stations.len() as u32)),
            priority: st.priority,
            mpdu_cnt: remaining as u8,
            num_pbs: st.num_pbs,
            fl_units: fl.min(u16::MAX as f64) as u16,
        }
    }

    /// The TEI station `i` stamps into its SoFs and SACKs.
    fn tei_of(&self, i: StationId) -> Tei {
        self.stations[i]
            .tei
            .unwrap_or_else(|| Tei::station(i as u32))
    }

    /// Execute one step: idle slot, success or collision. Advances
    /// simulated time accordingly. Always takes the per-slot path;
    /// fast-forward only engages inside [`run`](Self::run).
    pub fn step(&mut self) -> StepOutcome {
        // Keep the uninstrumented path free of Drop locals (span guards)
        // so the optimizer sees the same hot loop as without
        // observability; it pays exactly this one branch.
        let kind = if self.timers.is_none() && self.observers.is_empty() {
            let kind = self.step_inner::<false>();
            self.steps += 1;
            kind
        } else {
            self.step_instrumented::<false>()
        };
        // External stepping mutates station state without folding the
        // contention cache; a later `run()` must rebuild it.
        self.hint_valid = false;
        self.materialize(kind)
    }

    /// Expand a [`StepKind`] into the public outcome; the colliding
    /// station set lives in `tx_buf` until the next step begins.
    fn materialize(&self, kind: StepKind) -> StepOutcome {
        match kind {
            StepKind::Idle => StepOutcome::Idle,
            StepKind::Success { station, burst } => StepOutcome::Success { station, burst },
            StepKind::Collision => StepOutcome::Collision {
                stations: self.tx_buf.clone(),
            },
        }
    }

    #[cold]
    fn step_instrumented<const TRACK: bool>(&mut self) -> StepKind {
        let _step_span = self.timers.as_ref().map(|t| t.step.start());
        let kind = self.step_inner::<TRACK>();
        self.steps += 1;
        if let Some(t) = &self.timers {
            t.steps.inc();
        }
        if !self.observers.is_empty() {
            self.notify_observers();
        }
        kind
    }

    /// Build the plain-data snapshot observers receive.
    fn engine_obs(&self) -> EngineObs {
        EngineObs {
            t_us: self.t.as_micros(),
            step: self.steps,
            idle_slots: self.metrics.idle_slots,
            successes: self.metrics.successes,
            collision_events: self.metrics.collision_events,
            stations: self
                .stations
                .iter()
                .enumerate()
                .map(|(i, st)| {
                    let snap = match &self.core {
                        Some(core) => core.snapshot(i),
                        None => st.process.snapshot(),
                    };
                    StationObs {
                        station: i,
                        stage: snap.stage,
                        cw: snap.cw,
                        bc: snap.bc,
                        dc: snap.dc,
                        bpc: snap.bpc,
                        successes: self.metrics.per_station[i].successes,
                        collisions: self.metrics.per_station[i].collisions,
                    }
                })
                .collect(),
        }
    }

    fn notify_observers(&self) {
        let mut obs: Option<EngineObs> = None;
        for slot in &self.observers {
            if self.steps.is_multiple_of(slot.every) {
                let snapshot = obs.get_or_insert_with(|| self.engine_obs());
                slot.observer.lock().on_engine(snapshot);
            }
        }
    }

    // Force-inlined into both `step` paths: with two call sites the
    // inliner otherwise outlines this hot body, costing ~5-15% engine
    // throughput (measured on the saturated-1901 workloads).
    //
    // `TRACK` selects the fast-forward run loop's variant, which consumes
    // the `zero_bc`/`min_bc` contention cache instead of rescanning all
    // stations and rebuilds it inside the mutation loops each branch
    // already runs. With `TRACK = false` (the public `step()` path and
    // the `fast_forward(false)` reference engine) every cache line
    // compiles out and the body is the plain stepping loop.
    #[inline(always)]
    fn step_inner<const TRACK: bool>(&mut self) -> StepKind {
        // The CCo's beacon takes the medium at its scheduled time;
        // contention is suspended (backoff state frozen) for its airtime.
        if let Some(b) = self.cfg.beacons {
            if self.t >= self.next_beacon {
                let tb = self.t;
                self.t += b.duration;
                self.next_beacon += b.period;
                self.metrics.beacons += 1;
                self.metrics.time_beacon += b.duration;
                self.metrics.elapsed = self.t;
                self.emit(TraceEvent::Beacon { t: tb });
                return StepKind::Idle;
            }
        }
        let t0 = self.t;

        // Deliver traffic arrivals up to now; newly-backlogged stations
        // start a fresh stage-0 backoff. Before the earliest pending
        // event every `advance_to` is a no-op, so the loop is skipped,
        // and inside it only due stations are advanced — the others
        // would neither mutate state nor draw from the RNG.
        let now = t0.as_micros();
        if now >= self.next_traffic_event {
            for (i, st) in self.stations.iter_mut().enumerate() {
                if st.traffic.next_event_us() <= now && st.traffic.advance_to(now, &mut self.rng) {
                    match &mut self.core {
                        Some(core) => {
                            core.reset_now(i, &mut self.rng);
                            // The backlog flags mirror the queues between
                            // steps; an arrival only ever sets one (consume
                            // and drop clear theirs in the outcome arms),
                            // unless priority resolution froze the station.
                            core.set_active(i, !st.frozen);
                        }
                        None => st.process.reset(&mut self.rng),
                    }
                    if TRACK {
                        // The fresh stage-0 BC isn't folded into the
                        // cache; rebuild it below.
                        self.hint_valid = false;
                    }
                }
            }
            self.next_traffic_event = next_traffic_event(&self.stations);
        }
        if self.resolves && !self.round_open {
            self.open_round();
        }

        // Who transmits this slot? A station contends while it has fresh
        // frames queued or errored PBs awaiting retransmission, and no
        // priority-resolution round froze it.
        self.tx_buf.clear();
        if TRACK && self.hint_valid {
            // `zero_bc` is exactly the contender set, in scan order.
            std::mem::swap(&mut self.tx_buf, &mut self.zero_bc);
        } else if let Some(core) = &self.core {
            core.contenders(&mut self.tx_buf);
        } else {
            for (i, st) in self.stations.iter().enumerate() {
                if st.contends() && st.process.wants_tx() {
                    self.tx_buf.push(i);
                }
            }
        }
        let tx = std::mem::take(&mut self.tx_buf);

        // Every outcome branch below rebuilds the contention cache while
        // it mutates station state, so the next step never rescans.
        let mut zero = if TRACK {
            let mut z = std::mem::take(&mut self.zero_bc);
            z.clear();
            z
        } else {
            Vec::new()
        };
        let mut min_bc = u32::MAX;
        let mut poisoned = false;

        // Wire events only matter when someone listens; with no sinks the
        // SoF/SACK construction (and its allocations) is pure waste.
        let emitting = !self.sinks.is_empty();
        let outcome = match tx.len() {
            0 => {
                if let Some(core) = &mut self.core {
                    core.idle_sweep::<TRACK>(&mut zero, &mut min_bc);
                } else {
                    for (i, st) in self.stations.iter_mut().enumerate() {
                        if st.contends() {
                            st.process.on_idle_slot(&mut self.rng);
                            if TRACK {
                                match st.process.idle_skip() {
                                    Some(0) => zero.push(i),
                                    Some(bc) => min_bc = min_bc.min(bc),
                                    None => poisoned = true,
                                }
                            }
                        }
                    }
                }
                self.t += self.cfg.timing.slot;
                self.metrics.idle_slots += 1;
                self.metrics.time_idle += self.cfg.timing.slot;
                self.emit(TraceEvent::IdleSlot { t: t0 });
                StepKind::Idle
            }
            1 => {
                let w = tx[0];
                // Sendable units: errored-PB retransmissions first, then
                // fresh frames from the queue.
                let retx_ready = self.stations[w].retx.len();
                let fresh_ready = self.stations[w].traffic.backlog();
                let available = retx_ready.saturating_add(fresh_ready).min(MAX_BURST);
                let burst = self.cfg.burst.draw(&mut self.rng, available);
                let dur = self.cfg.timing.burst_duration(burst);
                // Impulse noise wipes every PB of the transmission without
                // consuming channel-RNG draws (the fault layer never
                // touches simulation streams).
                let jammed = self.noise_active(t0);
                // The winner's PB error probability: its per-link
                // override, else the global one.
                let p_err = self.stations[w]
                    .pb_error_prob
                    .unwrap_or(self.cfg.pb_error_prob);

                // Per-MPDU channel outcome (selective-ACK granularity).
                let mut fresh_consumed = 0usize;
                let mut clean_mpdus = 0usize;
                let mut outcomes = std::mem::take(&mut self.outcome_buf); // (pbs, errored)
                outcomes.clear();
                for _ in 0..burst {
                    let (pbs, is_fresh) = match self.stations[w].retx.pop_front() {
                        Some(pbs) => (pbs, false),
                        None => {
                            fresh_consumed += 1;
                            (self.stations[w].num_pbs, true)
                        }
                    };
                    let errored = if jammed {
                        pbs
                    } else if p_err == 0.0 {
                        0
                    } else {
                        self.sample_pb_errors(p_err, pbs)
                    };
                    outcomes.push((pbs, errored));
                    let s = &mut self.metrics.per_station[w];
                    s.pbs_delivered += (pbs - errored) as u64;
                    s.pbs_errored += errored as u64;
                    self.metrics.payload_delivered_us += self.cfg.timing.frame_length.as_micros()
                        * (pbs - errored) as f64
                        / self.stations[w].num_pbs as f64;
                    if errored == 0 {
                        self.metrics.frames_completed += 1;
                        self.metrics.per_station[w].frames_completed += 1;
                        if is_fresh {
                            // A fresh full MPDU through error-free: the
                            // clean delivery `record_success` credits.
                            clean_mpdus += 1;
                        } else {
                            // A retransmission that finished the frame is a
                            // partial MPDU delivery, not a clean full MPDU.
                            self.metrics.per_station[w].mpdus_partial += 1;
                        }
                    } else {
                        self.stations[w].retx.push_back(errored);
                        self.metrics.per_station[w].mpdus_partial += 1;
                    }
                }

                if self.cfg.emit_wire_events && emitting {
                    // One SoF per MPDU; SACK follows each payload after RIFS.
                    let mpdu_stride = self.cfg.timing.frame_length + RIFS + SACK;
                    for (k, &(pbs, errored)) in outcomes.iter().enumerate() {
                        let sof_t = t0 + mpdu_stride * (k as u64);
                        let mut sof = self.sof_for(w, burst - 1 - k);
                        sof.num_pbs = pbs;
                        self.emit(TraceEvent::Sof {
                            t: sof_t,
                            station: w,
                            sof,
                        });
                        let ack_t = sof_t + PREAMBLE + self.cfg.timing.frame_length + RIFS;
                        let mut ack = SelectiveAck::all_good(self.tei_of(w), pbs);
                        for slot in ack.pb_ok.iter_mut().take(errored as usize) {
                            *slot = false;
                        }
                        self.emit(TraceEvent::Sack { t: ack_t, ack });
                    }
                }

                // Winner resets; everyone else with traffic sensed busy.
                if let Some(core) = &mut self.core {
                    // Engine-level bookkeeping first (consumes no RNG
                    // draws), then the sweep redraws in ascending station
                    // order — the per-object draw order.
                    let st = &mut self.stations[w];
                    st.retry = RetryState::new();
                    st.traffic.consume(fresh_consumed);
                    if !self.fixed_backlog {
                        core.set_active(w, st.contends());
                    }
                    core.success_sweep::<TRACK>(w, &mut self.rng, &mut zero, &mut min_bc);
                } else {
                    for i in 0..self.stations.len() {
                        if i == w {
                            self.stations[i].process.on_tx_success(&mut self.rng);
                            self.stations[i].retry = RetryState::new();
                            self.stations[i].traffic.consume(fresh_consumed);
                        } else if self.stations[i].contends() {
                            self.stations[i].process.on_busy(&mut self.rng);
                        }
                        if TRACK {
                            let st = &self.stations[i];
                            if st.contends() {
                                match st.process.idle_skip() {
                                    Some(0) => zero.push(i),
                                    Some(bc) => min_bc = min_bc.min(bc),
                                    None => poisoned = true,
                                }
                            }
                        }
                    }
                }

                self.t += dur;
                self.round_open = false;
                self.metrics.record_success(w, t0, clean_mpdus);
                self.metrics.time_success += dur;
                self.outcome_buf = outcomes;
                self.emit(TraceEvent::Success {
                    t: t0,
                    station: w,
                    burst,
                });
                StepKind::Success { station: w, burst }
            }
            _ => {
                // Every colliding station still transmits its full burst —
                // the transmitter only learns of the collision from the
                // all-errored SACKs, so every MPDU goes out and every MPDU
                // is acknowledged-with-errors. This is what keeps the
                // testbed's per-MPDU ΣCᵢ/ΣAᵢ equal to the event-level
                // collision probability despite 2-MPDU bursts.
                let mut bursts = std::mem::take(&mut self.burst_buf);
                bursts.clear();
                bursts.extend(tx.iter().map(|&i| {
                    let available = (self.stations[i].retx.len()
                        + self.stations[i].traffic.backlog().min(MAX_BURST))
                    .clamp(1, MAX_BURST);
                    (i, self.cfg.burst.draw(&mut self.rng, available))
                }));
                let max_burst = bursts.iter().map(|&(_, b)| b).max().unwrap_or(1);
                // The channel is occupied for the longest burst plus the
                // collision-detection overhead (Tc − Ts); equals Tc for
                // single-MPDU transmissions.
                let dur = self.cfg.timing.burst_duration(max_burst) + self.cfg.timing.tc
                    - self.cfg.timing.ts;
                if self.cfg.emit_wire_events && emitting {
                    // The colliding bursts overlap in time; emit MPDU slot
                    // by MPDU slot so capture timestamps stay monotone.
                    let mpdu_stride = self.cfg.timing.frame_length + RIFS + SACK;
                    for k in 0..max_burst {
                        for &(i, burst) in bursts.iter().filter(|&&(_, b)| b > k) {
                            let sof_t = t0 + mpdu_stride * (k as u64);
                            let sof = self.sof_for(i, burst - 1 - k);
                            self.emit(TraceEvent::Sof {
                                t: sof_t,
                                station: i,
                                sof,
                            });
                        }
                        // The destination decodes the robust delimiters and
                        // acknowledges with every PB flagged errored.
                        let ack_t = t0
                            + mpdu_stride * (k as u64)
                            + PREAMBLE
                            + self.cfg.timing.frame_length
                            + RIFS;
                        for &(i, _) in bursts.iter().filter(|&&(_, b)| b > k) {
                            let ack =
                                SelectiveAck::all_errored(self.tei_of(i), self.stations[i].num_pbs);
                            self.emit(TraceEvent::Sack { t: ack_t, ack });
                        }
                    }
                }

                if let Some(core) = &mut self.core {
                    // Engine-level retry/drop bookkeeping first — it
                    // consumes no RNG draws and only emits `FrameDropped`
                    // events, which the per-object loop also emits before
                    // the `Collision` event — then the sweep redraws in
                    // ascending station order.
                    let mut actions = std::mem::take(&mut self.action_buf);
                    actions.clear();
                    for &i in &tx {
                        let st = &mut self.stations[i];
                        if st.retry.record_failure(self.cfg.retry) {
                            st.retry = RetryState::new();
                            // Drop the head-of-line unit: a pending
                            // retransmission if any, else a queued frame.
                            if st.retx.pop_front().is_none() {
                                st.traffic.consume(1);
                            }
                            self.metrics.per_station[i].dropped += 1;
                            emit_to(&self.sinks, &TraceEvent::FrameDropped { t: t0, station: i });
                            actions.push(SweepAction::Restart);
                        } else {
                            actions.push(SweepAction::Advance);
                        }
                        if !self.fixed_backlog {
                            core.set_active(i, st.contends());
                        }
                    }
                    core.collision_sweep::<TRACK>(
                        &tx,
                        &actions,
                        &mut self.rng,
                        &mut zero,
                        &mut min_bc,
                    );
                    self.action_buf = actions;
                } else {
                    // `tx` is ascending (scan order), so a cursor replaces
                    // the O(|tx|) membership test per station.
                    let mut txi = 0usize;
                    for i in 0..self.stations.len() {
                        if txi < tx.len() && tx[txi] == i {
                            txi += 1;
                            let dropped = self.stations[i].retry.record_failure(self.cfg.retry);
                            if dropped {
                                self.stations[i].retry = RetryState::new();
                                // Drop the head-of-line unit: a pending
                                // retransmission if any, else a queued frame.
                                if self.stations[i].retx.pop_front().is_none() {
                                    self.stations[i].traffic.consume(1);
                                }
                                self.stations[i].process.reset(&mut self.rng);
                                self.metrics.per_station[i].dropped += 1;
                                self.emit(TraceEvent::FrameDropped { t: t0, station: i });
                            } else {
                                self.stations[i].process.on_tx_failure(&mut self.rng);
                            }
                        } else if self.stations[i].contends() {
                            self.stations[i].process.on_busy(&mut self.rng);
                        }
                        if TRACK {
                            let st = &self.stations[i];
                            if st.contends() {
                                match st.process.idle_skip() {
                                    Some(0) => zero.push(i),
                                    Some(bc) => min_bc = min_bc.min(bc),
                                    None => poisoned = true,
                                }
                            }
                        }
                    }
                }

                self.t += dur;
                self.round_open = false;
                self.metrics.record_collision(&bursts);
                self.metrics.time_collision += dur;
                self.burst_buf = bursts;
                if emitting {
                    self.emit(TraceEvent::Collision {
                        t: t0,
                        stations: tx.clone(),
                    });
                }
                StepKind::Collision
            }
        };

        if self.cfg.emit_snapshots {
            for i in 0..self.stations.len() {
                let snap = match &self.core {
                    Some(core) => core.snapshot(i),
                    None => self.stations[i].process.snapshot(),
                };
                self.emit(TraceEvent::Snapshot {
                    t: self.t,
                    station: i,
                    snap,
                });
            }
        }

        if TRACK {
            self.zero_bc = zero;
            self.min_bc = min_bc;
            self.hint_valid = !poisoned;
        }

        // Keep the transmitter set for `materialize` (the public
        // `step()` builds `StepOutcome::Collision` from it).
        self.tx_buf = tx;
        self.metrics.elapsed = self.t;
        outcome
    }

    /// Step until simulated time exceeds the horizon; returns the metrics.
    ///
    /// When [`EngineConfig::fast_forward`] is on (the default), runs of
    /// guaranteed-idle slots are absorbed in one jump per run. Per-slot
    /// snapshots ([`EngineConfig::emit_snapshots`]) and attached
    /// observers force per-slot stepping, since both need every step
    /// materialized.
    pub fn run(&mut self) -> &Metrics {
        // Cancellable runs poll the token once per slot in dedicated
        // loops; the common no-token case falls through to the exact
        // pre-cancellation loops below, keeping cancellation support
        // zero-cost when unused.
        if self.cfg.cancel.is_some() {
            return self.run_cancellable();
        }
        let fast = self.cfg.fast_forward && !self.cfg.emit_snapshots && self.observers.is_empty();
        // External `step()` calls may have mutated station state since the
        // cache was last folded.
        self.hint_valid = false;
        // The instrumented-or-not decision is loop-invariant: hoist it so
        // the uninstrumented loop compiles exactly as it would without
        // observability support.
        if self.timers.is_none() && self.observers.is_empty() {
            if fast {
                while self.t <= self.cfg.horizon {
                    if self.fast_forward_idle() == 0 {
                        self.step_inner::<true>();
                        self.steps += 1;
                    }
                }
            } else {
                while self.t <= self.cfg.horizon {
                    self.step_inner::<false>();
                    self.steps += 1;
                }
            }
        } else if fast {
            // Batched hot-loop instrumentation: a per-step span guard
            // costs two clock reads — as much as a busy sweep — so the
            // loop is timed as a whole and `engine.step` receives
            // (steps, loop time minus fast-forward time) once at the
            // end: the same totals the per-step guards would have
            // accumulated. The `fast` path never has observers, which
            // are what need per-step materialization.
            let started = std::time::Instant::now();
            let mut stepped = 0u64;
            let mut ff_time = std::time::Duration::ZERO;
            while self.t <= self.cfg.horizon {
                if self.fast_forward_timed(&mut ff_time) > 0 {
                    continue;
                }
                self.step_inner::<true>();
                self.steps += 1;
                stepped += 1;
            }
            if let Some(t) = &self.timers {
                t.step
                    .record_many(stepped, started.elapsed().saturating_sub(ff_time));
                t.steps.add(stepped);
            }
        } else {
            while self.t <= self.cfg.horizon {
                self.step_instrumented::<false>();
            }
        }
        &self.metrics
    }

    /// The cancellable mirror of [`run`](Self::run): the same four
    /// hoisted loop variants with one extra condition — an acquire load
    /// of the [`EngineConfig::cancel`] token — per slot. Idle runs are
    /// still absorbed in a single fast-forward jump before the next
    /// poll, so cancellation latency is bounded by one busy slot plus
    /// one idle run. A run whose token never fires performs the same
    /// mutations in the same order as [`run`](Self::run) and is
    /// bit-identical to it.
    fn run_cancellable(&mut self) -> &Metrics {
        let token = self
            .cfg
            .cancel
            .clone()
            .expect("run_cancellable requires an installed token");
        let fast = self.cfg.fast_forward && !self.cfg.emit_snapshots && self.observers.is_empty();
        self.hint_valid = false;
        if self.timers.is_none() && self.observers.is_empty() {
            if fast {
                while self.t <= self.cfg.horizon && !token.is_cancelled() {
                    if self.fast_forward_idle() == 0 {
                        self.step_inner::<true>();
                        self.steps += 1;
                    }
                }
            } else {
                while self.t <= self.cfg.horizon && !token.is_cancelled() {
                    self.step_inner::<false>();
                    self.steps += 1;
                }
            }
        } else if fast {
            let started = std::time::Instant::now();
            let mut stepped = 0u64;
            let mut ff_time = std::time::Duration::ZERO;
            while self.t <= self.cfg.horizon && !token.is_cancelled() {
                if self.fast_forward_timed(&mut ff_time) > 0 {
                    continue;
                }
                self.step_inner::<true>();
                self.steps += 1;
                stepped += 1;
            }
            if let Some(t) = &self.timers {
                t.step
                    .record_many(stepped, started.elapsed().saturating_sub(ff_time));
                t.steps.add(stepped);
            }
        } else {
            while self.t <= self.cfg.horizon && !token.is_cancelled() {
                self.step_instrumented::<false>();
            }
        }
        &self.metrics
    }

    /// [`fast_forward_idle`](Self::fast_forward_idle) under the
    /// `engine.fast_forward` span timer, crediting skipped slots to the
    /// `engine.steps` and `engine.steps_skipped` counters. The span's
    /// wall time also accumulates into `total` so the run loop can
    /// subtract it from the batched `engine.step` time.
    fn fast_forward_timed(&mut self, total: &mut std::time::Duration) -> u64 {
        // Known busy slot: skip the clock read, nothing will be absorbed.
        if self.hint_valid && !self.zero_bc.is_empty() {
            return 0;
        }
        let started = std::time::Instant::now();
        let skipped = self.fast_forward_idle();
        if skipped > 0 {
            let elapsed = started.elapsed();
            *total += elapsed;
            if let Some(t) = &self.timers {
                t.fast_forward.record(elapsed);
                t.steps.add(skipped);
                t.steps_skipped.add(skipped);
            }
        }
        skipped
    }

    /// Step at most `max_steps` times (examples and tests).
    pub fn run_steps(&mut self, max_steps: usize) -> &Metrics {
        for _ in 0..max_steps {
            if self.t > self.cfg.horizon {
                break;
            }
            self.step();
        }
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, SuccessTrace, VecTraceSink};
    use plc_mac::Backoff1901;
    use rand::rngs::SmallRng;

    fn stations_1901(n: usize, seed: u64) -> Vec<StationSpec<Backoff1901>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| StationSpec::saturated(Backoff1901::default_ca1(&mut rng)))
            .collect()
    }

    fn quick_cfg(horizon_us: f64) -> EngineConfig {
        EngineConfig::with_horizon(Microseconds(horizon_us))
    }

    #[test]
    fn single_station_only_succeeds() {
        let mut e = SlottedEngine::new(quick_cfg(1e6), stations_1901(1, 1), 1);
        let m = e.run().clone();
        assert!(m.successes > 0);
        assert_eq!(m.collision_events, 0);
        assert_eq!(m.collision_probability(), 0.0);
        assert!(m.elapsed.as_micros() > 1e6);
    }

    #[test]
    fn two_stations_collide_sometimes() {
        let mut e = SlottedEngine::new(quick_cfg(5e6), stations_1901(2, 2), 2);
        let m = e.run().clone();
        assert!(m.successes > 0);
        assert!(m.collision_events > 0);
        let p = m.collision_probability();
        assert!(
            p > 0.02 && p < 0.2,
            "N=2 collision probability ≈ 0.074, got {p}"
        );
    }

    #[test]
    fn matches_reference_simulator_statistically() {
        // Engine with default knobs vs the paper port, N = 3, same horizon.
        let horizon = 2e7;
        let mut e = SlottedEngine::new(quick_cfg(horizon), stations_1901(3, 3), 3);
        let em = e.run().clone();
        let pr = crate::paper::PaperSim::with_n_and_time(3, horizon)
            .run(3)
            .unwrap();
        assert!(
            (em.collision_probability() - pr.collision_pr).abs() < 0.01,
            "engine {} vs reference {}",
            em.collision_probability(),
            pr.collision_pr
        );
        let et = em.norm_throughput(Microseconds(2050.0));
        assert!(
            (et - pr.norm_throughput).abs() < 0.02,
            "engine throughput {et} vs reference {}",
            pr.norm_throughput
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut e = SlottedEngine::new(quick_cfg(2e6), stations_1901(3, 9), 9);
            e.run().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wire_events_are_consistent() {
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        let mut e = SlottedEngine::new(quick_cfg(2e6), stations_1901(3, 4), 4);
        e.add_sink(sink.clone());
        let m = e.run().clone();
        let c = *sink.lock();
        assert_eq!(c.successes, m.successes);
        assert_eq!(c.collisions, m.collision_events);
        assert_eq!(c.idle_slots, m.idle_slots);
        // One SoF per success (single bursts) + one per colliding station;
        // every SoF gets a SACK (collided ones all-errored).
        assert_eq!(c.sofs, m.successes + m.collided_tx);
        assert_eq!(c.sacks, c.sofs);
    }

    #[test]
    fn success_trace_matches_metrics() {
        let tr = Arc::new(Mutex::new(SuccessTrace::new()));
        let mut e = SlottedEngine::new(quick_cfg(2e6), stations_1901(2, 5), 5);
        e.add_sink(tr.clone());
        let m = e.run().clone();
        let winners = tr.lock().winners.clone();
        assert_eq!(winners.len() as u64, m.successes);
        for s in 0..2 {
            let count = winners.iter().filter(|&&w| w == s).count() as u64;
            assert_eq!(count, m.per_station[s].successes);
        }
    }

    #[test]
    fn burst_policy_accelerates_delivery() {
        let single = {
            let mut e = SlottedEngine::new(quick_cfg(5e6), stations_1901(2, 6), 6);
            e.run().clone()
        };
        let burst2 = {
            let mut cfg = quick_cfg(5e6);
            cfg.burst = BurstPolicy::INT6300;
            let mut e = SlottedEngine::new(cfg, stations_1901(2, 6), 6);
            e.run().clone()
        };
        assert!(
            burst2.norm_throughput(Microseconds(2050.0))
                > single.norm_throughput(Microseconds(2050.0)),
            "2-MPDU bursts amortize contention overhead"
        );
        assert_eq!(burst2.mpdus_ok, 2 * burst2.successes);
    }

    #[test]
    fn retry_limit_drops_frames() {
        let mut cfg = quick_cfg(1e7);
        cfg.retry = RetryPolicy::Limited { max_attempts: 1 };
        // Many stations to force collisions.
        let mut e = SlottedEngine::new(cfg, stations_1901(6, 7), 7);
        let m = e.run().clone();
        let drops: u64 = m.per_station.iter().map(|s| s.dropped).sum();
        assert!(
            drops > 0,
            "with a 1-attempt limit every collision drops a frame"
        );
        assert_eq!(
            drops, m.collided_tx,
            "every collision participation is a drop"
        );
    }

    #[test]
    fn unsaturated_station_is_quiet_at_low_load() {
        // One saturated + one nearly-silent Poisson station.
        let mut rng = SmallRng::seed_from_u64(8);
        let specs = vec![
            StationSpec::saturated(Backoff1901::default_ca1(&mut rng)),
            StationSpec {
                traffic: TrafficModel::Poisson {
                    rate_per_us: 1e-6,
                    queue_cap: 64,
                },
                ..StationSpec::saturated(Backoff1901::default_ca1(&mut rng))
            },
        ];
        let mut e = SlottedEngine::new(quick_cfg(5e6), specs, 8);
        let m = e.run().clone();
        assert!(m.per_station[0].successes > 100);
        assert!(
            m.per_station[1].successes < m.per_station[0].successes / 10,
            "a 1-frame-per-second source must win far less than a saturated one"
        );
        // Its few frames do eventually get through.
        assert!(m.per_station[1].successes > 0);
    }

    #[test]
    fn snapshots_emitted_when_enabled() {
        let sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let mut cfg = quick_cfg(1e5);
        cfg.emit_snapshots = true;
        let mut e = SlottedEngine::new(cfg, stations_1901(2, 10), 10);
        e.add_sink(sink.clone());
        e.run_steps(10);
        let events = &sink.lock().events;
        let snaps = events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::Snapshot { .. }))
            .count();
        assert_eq!(snaps, 2 * 10, "two snapshots per step");
    }

    #[test]
    fn step_outcomes_advance_time_correctly() {
        let mut e = SlottedEngine::new(quick_cfg(1e6), stations_1901(2, 11), 11);
        let timing = MacTiming::paper_default();
        // Time is accumulated in f64, so `(t + Δ) − t` is only Δ up to
        // one ulp of the running clock; compare with a tolerance instead
        // of bitwise equality.
        let close = |a: Microseconds, b: Microseconds| (a.as_micros() - b.as_micros()).abs() < 1e-9;
        loop {
            let before = e.time();
            match e.step() {
                StepOutcome::Idle => {
                    assert!(close(e.time() - before, timing.slot));
                }
                StepOutcome::Success { burst, .. } => {
                    assert_eq!(burst, 1);
                    assert!(close(e.time() - before, timing.ts));
                    break;
                }
                StepOutcome::Collision { stations } => {
                    assert!(stations.len() >= 2);
                    assert!(close(e.time() - before, timing.tc));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one station")]
    fn empty_station_set_rejected() {
        let _ = SlottedEngine::<Backoff1901>::new(quick_cfg(1e6), vec![], 0);
    }

    #[test]
    fn beacons_fire_on_schedule_and_suspend_contention() {
        let mut cfg = quick_cfg(1e6); // 1 s
        cfg.beacons = Some(BeaconSchedule::standard_50hz());
        let mut e = SlottedEngine::new(cfg, stations_1901(2, 31), 31);
        let m = e.run().clone();
        // One beacon per 40 ms, starting at t = 40 ms: 1 s → 25 beacons.
        assert!(
            (24..=26).contains(&(m.beacons as i32)),
            "{} beacons",
            m.beacons
        );
        assert!((m.time_beacon.as_micros() - m.beacons as f64 * 110.48).abs() < 1e-6);
        // Contention still works around the beacons.
        assert!(m.successes > 100);
        // Time decomposition now includes beacon airtime.
        let accounted = m.time_idle + m.time_success + m.time_collision + m.time_beacon;
        assert!((accounted.as_micros() - m.elapsed.as_micros()).abs() < 1e-6);
    }

    #[test]
    fn beacons_cost_little_throughput() {
        let without = {
            let mut e = SlottedEngine::new(quick_cfg(5e6), stations_1901(2, 32), 32);
            e.run().norm_throughput(Microseconds(2050.0))
        };
        let with = {
            let mut cfg = quick_cfg(5e6);
            cfg.beacons = Some(BeaconSchedule::standard_50hz());
            let mut e = SlottedEngine::new(cfg, stations_1901(2, 32), 32);
            e.run().norm_throughput(Microseconds(2050.0))
        };
        // 110.48 µs per 40 ms ≈ 0.28% overhead.
        assert!(with < without);
        assert!(
            without - with < 0.02,
            "beacon cost {} too high",
            without - with
        );
    }

    #[test]
    #[should_panic(expected = "PB error probability")]
    fn error_prob_of_one_rejected() {
        let mut cfg = quick_cfg(1e6);
        cfg.pb_error_prob = 1.0;
        let _ = SlottedEngine::new(cfg, stations_1901(1, 0), 0);
    }

    #[test]
    fn error_free_channel_has_no_pb_errors() {
        let mut e = SlottedEngine::new(quick_cfg(2e6), stations_1901(2, 21), 21);
        let m = e.run().clone();
        let s = &m.per_station[0];
        assert_eq!(s.pbs_errored, 0);
        assert_eq!(s.mpdus_partial, 0);
        assert_eq!(m.frames_completed, m.successes, "one frame per clean win");
        // Goodput equals normalized throughput without errors.
        assert!(
            (m.goodput() - m.norm_throughput(Microseconds(2050.0))).abs() < 1e-9,
            "goodput {} vs throughput {}",
            m.goodput(),
            m.norm_throughput(Microseconds(2050.0))
        );
    }

    #[test]
    fn channel_errors_trigger_selective_retransmission() {
        let mut cfg = quick_cfg(5e6);
        cfg.pb_error_prob = 0.2;
        let mut e = SlottedEngine::new(cfg, stations_1901(2, 22), 22);
        let m = e.run().clone();
        let s = &m.per_station[0];
        assert!(s.pbs_errored > 0, "a 20% PB error rate must produce errors");
        assert!(s.mpdus_partial > 0, "partial MPDUs must occur");
        assert!(
            m.frames_completed > 0,
            "frames still complete via retransmission"
        );
        // Retransmitting only errored PBs still delivers everything
        // eventually: delivered PBs exceed errored ones by far at p = 0.2.
        assert!(s.pbs_delivered > s.pbs_errored);
        // Goodput strictly below the error-free run's.
        let clean = {
            let mut e2 = SlottedEngine::new(quick_cfg(5e6), stations_1901(2, 22), 22);
            e2.run().goodput()
        };
        assert!(
            m.goodput() < clean,
            "errors must cost goodput: {} vs {clean}",
            m.goodput()
        );
    }

    #[test]
    fn pb_conservation_under_errors() {
        // Every PB put on the wire in a success is either delivered or
        // errored-and-requeued; across the run, delivered + still-pending
        // errored = transmitted.
        let mut cfg = quick_cfg(3e6);
        cfg.pb_error_prob = 0.3;
        let mut e = SlottedEngine::new(cfg, stations_1901(1, 23), 23);
        let m = e.run().clone();
        let s = &m.per_station[0];
        // Each completed frame delivered exactly num_pbs = 4 clean PBs.
        assert_eq!(
            s.pbs_delivered,
            4 * m.frames_completed + (s.pbs_delivered - 4 * m.frames_completed),
        );
        assert!(s.pbs_delivered >= 4 * m.frames_completed);
        // And the per-frame payload credit is consistent with goodput.
        assert!(m.payload_delivered_us > 0.0);
        assert!((m.payload_delivered_us - 2050.0 * s.pbs_delivered as f64 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn noise_burst_covering_horizon_jams_everything() {
        let mut cfg = quick_cfg(1e6);
        cfg.noise = vec![plc_faults::NoiseBurst {
            start_us: 0.0,
            duration_us: 2e6,
        }];
        let mut e = SlottedEngine::new(cfg, stations_1901(1, 31), 31);
        let m = e.run().clone();
        let s = &m.per_station[0];
        assert!(s.pbs_errored > 0, "the jammer must error PBs");
        assert_eq!(s.pbs_delivered, 0, "nothing survives a full-horizon burst");
        assert_eq!(m.frames_completed, 0);
    }

    #[test]
    fn empty_noise_schedule_changes_nothing() {
        let mut cfg = quick_cfg(2e6);
        cfg.noise = Vec::new();
        let mut e = SlottedEngine::new(cfg, stations_1901(3, 32), 32);
        let jam_free = e.run().clone();
        let mut e2 = SlottedEngine::new(quick_cfg(2e6), stations_1901(3, 32), 32);
        assert_eq!(&jam_free, e2.run());
    }

    fn class_spec(priority: Priority, rng: &mut SmallRng) -> StationSpec<Backoff1901> {
        StationSpec {
            priority,
            ..StationSpec::saturated(Backoff1901::new(
                plc_core::config::CsmaConfig::ieee1901_for(priority),
                rng,
            ))
        }
    }

    fn successes_by_class(e: &SlottedEngine<Backoff1901>) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (st, m) in e.stations.iter().zip(&e.metrics.per_station) {
            out[st.priority as usize] += m.successes;
        }
        out
    }

    #[test]
    fn higher_class_starves_lower_when_saturated() {
        let mut rng = SmallRng::seed_from_u64(1);
        let stations = vec![
            class_spec(Priority::CA1, &mut rng),
            class_spec(Priority::CA1, &mut rng),
            class_spec(Priority::CA3, &mut rng),
        ];
        let mut e = SlottedEngine::new(quick_cfg(5e6), stations, 1);
        e.run();
        let by_class = successes_by_class(&e);
        assert!(by_class[3] > 0);
        assert_eq!(
            by_class[1], 0,
            "a saturated CA3 station never lets CA1 win priority resolution"
        );
    }

    #[test]
    fn single_class_behaves_like_plain_contention() {
        let mut rng = SmallRng::seed_from_u64(2);
        let stations = vec![
            class_spec(Priority::CA1, &mut rng),
            class_spec(Priority::CA1, &mut rng),
        ];
        let mut e = SlottedEngine::new(quick_cfg(5e6), stations, 2);
        assert!(!e.resolves, "one priority never resolves");
        let m = e.run().clone();
        assert!(m.successes > 0);
        assert!(m.collision_events > 0);
        let p = m.collision_probability();
        assert!(
            p > 0.02 && p < 0.2,
            "two CA1 stations collide like the paper's N=2: {p}"
        );
    }

    #[test]
    fn unsaturated_high_class_shares_with_low() {
        // A CA3 station with light Poisson traffic lets a saturated CA1
        // station through most of the time.
        let mut rng = SmallRng::seed_from_u64(3);
        let stations = vec![
            class_spec(Priority::CA1, &mut rng),
            StationSpec {
                traffic: TrafficModel::Poisson {
                    rate_per_us: 5e-5,
                    queue_cap: 64,
                },
                ..class_spec(Priority::CA3, &mut rng)
            },
        ];
        let mut e = SlottedEngine::new(quick_cfg(1e7), stations, 3);
        e.run();
        let by_class = successes_by_class(&e);
        assert!(by_class[1] > 0, "CA1 must win rounds when CA3 is idle");
        assert!(by_class[3] > 0, "CA3 frames do go out");
        assert!(by_class[1] > by_class[3], "light CA3 load ≪ saturated CA1");
    }

    #[test]
    fn ca2_beats_ca0_and_ca1_mixture() {
        let mut rng = SmallRng::seed_from_u64(4);
        let stations = vec![
            class_spec(Priority::CA0, &mut rng),
            class_spec(Priority::CA1, &mut rng),
            class_spec(Priority::CA2, &mut rng),
        ];
        let mut e = SlottedEngine::new(quick_cfg(3e6), stations, 4);
        e.run();
        let by_class = successes_by_class(&e);
        assert!(by_class[2] > 0);
        assert_eq!(by_class[0] + by_class[1], 0);
    }

    #[test]
    fn mixed_priority_time_accounting_is_complete() {
        let mut rng = SmallRng::seed_from_u64(5);
        let stations = vec![
            class_spec(Priority::CA1, &mut rng),
            class_spec(Priority::CA1, &mut rng),
            StationSpec {
                traffic: TrafficModel::Poisson {
                    rate_per_us: 1e-4,
                    queue_cap: 8,
                },
                ..class_spec(Priority::CA2, &mut rng)
            },
        ];
        let mut e = SlottedEngine::new(quick_cfg(2e6), stations, 5);
        let m = e.run().clone();
        assert!(m.per_station[2].successes > 0);
        let accounted = m.time_idle + m.time_success + m.time_collision;
        assert!(
            (accounted.as_micros() - m.elapsed.as_micros()).abs() < 1e-6,
            "all elapsed time must be attributed"
        );
    }

    #[test]
    fn mixed_priority_is_deterministic() {
        let run = || {
            let mut rng = SmallRng::seed_from_u64(6);
            let stations = vec![
                class_spec(Priority::CA2, &mut rng),
                class_spec(Priority::CA1, &mut rng),
            ];
            let mut e = SlottedEngine::new(quick_cfg(1e6), stations, 6);
            e.run().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_class_that_never_wins_keeps_its_build_snapshot() {
        // A saturated CA3 station wins every round, so the two CA1
        // stations never count down, sense busy or transmit: their
        // backoff state is the one they were built with, slot after slot,
        // on the packed core and on the per-object path alike.
        for soa in [true, false] {
            let build = || {
                let mut rng = SmallRng::seed_from_u64(12);
                let stations = vec![
                    class_spec(Priority::CA1, &mut rng),
                    class_spec(Priority::CA3, &mut rng),
                    class_spec(Priority::CA1, &mut rng),
                ];
                let cfg = EngineConfig {
                    soa,
                    ..quick_cfg(3e5)
                };
                SlottedEngine::new(cfg, stations, 12)
            };
            let mut e = build();
            assert_eq!(e.core.is_some(), soa);
            let frozen = [e.snapshot(0), e.snapshot(2)];
            while e.time() <= e.cfg.horizon {
                e.step();
                assert_eq!([e.snapshot(0), e.snapshot(2)], frozen, "soa {soa}");
            }
            // The fast-forward run loop leaves them alone too.
            let mut e = build();
            let m = e.run().clone();
            assert_eq!([e.snapshot(0), e.snapshot(2)], frozen, "soa {soa}");
            assert!(m.per_station[1].successes > 0);
            assert_eq!(m.per_station[0].attempts + m.per_station[2].attempts, 0);
        }
    }

    #[test]
    fn idle_slots_are_stamped_with_their_start() {
        // Light mixed-priority Poisson load: most slots pass with nothing
        // backlogged, the rest inside resolution rounds. Every idle slot
        // carries the time at which its step began.
        let mut rng = SmallRng::seed_from_u64(13);
        let light = |priority, rng: &mut SmallRng| StationSpec {
            traffic: TrafficModel::Poisson {
                rate_per_us: 2e-4,
                queue_cap: 8,
            },
            ..class_spec(priority, rng)
        };
        let stations = vec![
            light(Priority::CA1, &mut rng),
            light(Priority::CA2, &mut rng),
            light(Priority::CA1, &mut rng),
        ];
        let sink = Arc::new(Mutex::new(VecTraceSink::new()));
        let mut e = SlottedEngine::new(quick_cfg(3e5), stations, 13);
        e.add_sink(sink.clone());
        let mut idle = 0u64;
        while e.time() <= e.cfg.horizon {
            let before = e.time();
            let seen = sink.lock().events.len();
            e.step();
            for ev in &sink.lock().events[seen..] {
                if let TraceEvent::IdleSlot { t } = ev {
                    assert_eq!(*t, before, "idle slot not stamped with its start");
                    idle += 1;
                }
            }
        }
        assert!(idle > 0);
        assert!(e.metrics().per_station[1].successes > 0);
    }

    #[test]
    fn bounded_noise_burst_only_hits_its_window() {
        // A burst over the first half of the horizon: errors happen, but
        // the second half still completes frames.
        let mut cfg = quick_cfg(2e6);
        cfg.noise = vec![plc_faults::NoiseBurst {
            start_us: 0.0,
            duration_us: 1e6,
        }];
        let mut e = SlottedEngine::new(cfg, stations_1901(1, 33), 33);
        let m = e.run().clone();
        let s = &m.per_station[0];
        assert!(s.pbs_errored > 0);
        assert!(m.frames_completed > 0, "clean half must deliver frames");
        let clean = {
            let mut e2 = SlottedEngine::new(quick_cfg(2e6), stations_1901(1, 33), 33);
            e2.run().frames_completed
        };
        assert!(m.frames_completed < clean);
    }
}
