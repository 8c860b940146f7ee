//! Multi-domain simulation: several coordinated PLC networks on one wire.
//!
//! The legacy engine models one contention domain — every station hears
//! every station. This module runs a [`Topology`] of *cells* (logical
//! networks) that may partially hear each other:
//!
//! * **Exposed coupling** (cross-cell link above the sense threshold):
//!   a cell defers while a sensed foreign transmission occupies the wire
//!   — carrier sense works across network boundaries.
//! * **Hidden interference** (between the interference and sense
//!   thresholds): the foreign transmission is *not* sensed, but any of
//!   our transmissions overlapping it are jammed — every PB errors, the
//!   selective ACK flags them all, and the MPDUs queue for selective
//!   retransmission. This is the classic hidden-terminal degradation.
//! * **Isolation** (below both): full spatial reuse.
//!
//! # Execution plan
//!
//! Cells are grouped into connected components of the coupling graph
//! ([`Topology::components`]); components are independent simulations
//! and run on the [`BatchRunner`] pool
//! ([`Simulation::domain_workers`]). Per-cell seeds derive from the
//! master seed and the *global* cell index, so results are byte-identical
//! for any worker count.
//!
//! * An **isolated cell** (single-cell component, uniform station
//!   timing) runs on the unmodified single-domain [`SlottedEngine`] —
//!   full struct-of-arrays + fast-forward speed.
//! * A **coupled component** runs on an event-driven coordinator: each
//!   cell keeps its own clock, per-object backoff processes, RNG stream
//!   and metrics, and the cell with the earliest next event (ties to the
//!   lowest cell index) executes one step at a time. The coordinator
//!   deliberately per-slot-steps (no idle fast-forward): a jump could
//!   skip straight over a foreign transmission that should have been
//!   sensed. It polls [`Simulation::cancel`]'s token before every
//!   action, as the engine polls once per slot.
//!
//! # What the coordinator owns, and what it calls
//!
//! The coordinator keeps only what is cross-cell: the earliest-event
//! schedule, the transmission records other cells sense and are jammed
//! by, cell-wide sensing and deferral, the jam decision, committing a
//! success when its burst ends, per-station burst timing, and the wire
//! order of a collision (each collider's SoF, then its SACK, per MPDU
//! slot). Everything per station comes from the engine:
//!
//! * cells hold the engine's station record, built from the same
//!   [`Simulation`] builder method as [`Simulation::try_build`] and
//!   isolated cells, so a cell seeds exactly as a single-domain run; a
//!   station's global id is its entry in the cell's `members`;
//! * the configuration is checked once, before any component runs, by
//!   the engine's own check (timing, PB error range, noise schedule);
//! * a success's per-MPDU delivery and SoF/SACK stamp, and a
//!   collision's per-object pass, are the functions the engine's own
//!   success arm and per-object collision arm call;
//! * with a registry attached, the metric handles are the engine's: a
//!   kind clash is the error [`SlottedEngine::instrument`] returns, each
//!   contention slot a cell runs (idle, success start, intra-cell
//!   collision; not a deferral or a commit) counts into `engine.steps`,
//!   and `engine.step` receives the component's loop time in one batch.
//!
//! Coupled cells do not become [`SlottedEngine`]s: a coupled cell
//! commits a success when its burst ends, defers as a unit to foreign
//! transmissions and times bursts per station, and teaching the engine
//! all three would make it branch on its caller.
//!
//! # Sensing and jamming semantics
//!
//! Sensing is *cell-coherent*: a cell defers as a unit when any member
//! could sense a foreign transmission (one `on_busy` sweep over its
//! backlogged stations per sensed transmission, then the cell's clock
//! jumps to the transmission's end). Sensing uses an open interval at
//! the transmit instant — two transmissions starting in the same slot do
//! not sense each other, they overlap (and mutually jam when in
//! interference range), exactly the cross-cell collision a real hidden /
//! exposed layout produces. A foreign transmission that both starts and
//! ends while a cell is occupied is never sensed (the cell was
//! transmitting, not listening).
//!
//! A success is **jammed** when an impulse-noise burst covers its start
//! or any foreign transmission overlapping `[start, end)` comes from a
//! station in interference range of the winner. Jamming reuses the
//! engine's impulse-noise semantics: every PB of every MPDU errors
//! without consuming channel-RNG draws.
//!
//! Successes commit their outcome (PB errors, retransmission queues,
//! metrics, wire events) when the transmission *ends* — only then are
//! all overlapping foreign transmissions known. The winner's backoff
//! sweep still happens at transmission start, matching the slot-event
//! contract. Intra-cell collisions resolve entirely at start (their
//! outcome cannot be changed by interference) but still radiate a
//! transmission record that neighbours sense or are jammed by.
//!
//! # Traces
//!
//! With sinks attached, every cell — on the engine or the coordinator —
//! emits into its own [`VecTraceSink`] buffer with cell-local `station`
//! ids. After the run the ids are mapped to *global* station ids and the
//! buffers are flushed to the user's sinks in global cell order —
//! deterministic for any `domain_workers` count. TEIs inside SoF/SACK
//! payloads stay cell-local, mirroring the standard's per-AVLN TEI
//! assignment.

use crate::batch::BatchRunner;
use crate::engine::{
    check_default_teis, collision_pass, emit_to, Burst, EngineConfig, EngineTimers, SharedSink,
    SlottedEngine, StationCtx,
};
use crate::metrics::Metrics;
use crate::runner::{SimReport, Simulation};
use crate::topology::Topology;
use crate::trace::{TraceEvent, VecTraceSink};
use parking_lot::Mutex;
use plc_core::error::{Error, Result};
use plc_core::frame::SelectiveAck;
use plc_core::timing::{MacTiming, MAX_BURST, PREAMBLE, RIFS, SACK};
use plc_core::units::Microseconds;
use plc_mac::process::BackoffProcess;
use plc_mac::retry::RetryState;
use plc_mac::AnyBackoff;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Report of a multi-domain run: the merged network-wide view plus the
/// per-cell breakdown and the cross-domain interaction counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDomainReport {
    /// Merged report over all cells: per-station metrics live at their
    /// global ids, counters are summed and `elapsed` is the maximum over
    /// cells, so `norm_throughput` measures aggregate spatial reuse (it
    /// exceeds 1.0 when isolated cells transmit concurrently).
    /// Normalization uses the simulation's configured frame length.
    pub report: SimReport,
    /// One report per cell, in cell order, normalized by the cell's own
    /// (possibly link-derived) frame length.
    pub cells: Vec<SimReport>,
    /// Successful contention wins destroyed by a hidden/exposed foreign
    /// transmission overlapping them (impulse-noise jams not included).
    pub jammed_tx: u64,
    /// Foreign transmissions that cells sensed and deferred to (one per
    /// cell×transmission pair).
    pub sensed_defers: u64,
}

/// Per-cell result carried from a component run back to the merge step.
struct CellOut {
    cell: usize,
    members: Vec<usize>,
    metrics: Metrics,
    frame_length: Microseconds,
    events: Vec<TraceEvent>,
}

struct ComponentOut {
    cells: Vec<CellOut>,
    jammed_tx: u64,
    sensed_defers: u64,
}

fn reject(what: &str) -> Error {
    Error::invalid_config(format!(
        "the multi-domain engine does not support {what}; \
         use a fully-connected topology for this configuration"
    ))
}

/// Seed of cell `c`: the master seed itself for a single-cell topology
/// (so single-cell runs reduce to the legacy engine with the same seed),
/// else a SplitMix64 derivation from the master and the *global* cell
/// index — independent of component grouping and worker count.
fn cell_seed(sim: &Simulation, topo: &Topology, c: usize) -> u64 {
    if topo.num_cells() == 1 {
        sim.seed
    } else {
        crate::sweep::derive_seed(sim.seed, c as u64, 1)
    }
}

/// Run `sim` over a spatial (non-fully-connected) topology.
pub(crate) fn run_spatial(sim: &Simulation, topo: &Topology) -> Result<MultiDomainReport> {
    debug_assert!(
        !topo.is_fully_connected(),
        "trivial topologies take the legacy path"
    );
    if sim.beacons.is_some() {
        return Err(reject("beacon schedules"));
    }
    if sim.snapshots {
        return Err(reject("per-step snapshots"));
    }
    // Every component runs under this configuration: the engine's check
    // rejects it (and sorts its noise schedule) before any cell runs.
    let (_, mut cfg) = sim.engine_parts(0, sim.seed, sim.timing);
    cfg.check()?;

    let emitting = !sim.sinks.is_empty();
    if emitting {
        // Each cell is its own AVLN: its wire events take cell-local TEIs.
        for c in 0..topo.num_cells() {
            check_default_teis(topo.cell_members(c).len())?;
        }
    }
    let components = topo.components();
    let num_components = components.len() as u64;
    let outs: Vec<Result<ComponentOut>> = BatchRunner::new()
        .workers(sim.domain_workers)
        .run(components, |_, comp, _| {
            run_component(sim, topo, &cfg, &comp, emitting)
        });

    let mut global = Metrics::new(topo.num_stations());
    let mut cell_reports: Vec<Option<SimReport>> = vec![None; topo.num_cells()];
    let mut buffered: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    let mut jammed_tx = 0u64;
    let mut sensed_defers = 0u64;
    for out in outs {
        let out = out?;
        jammed_tx += out.jammed_tx;
        sensed_defers += out.sensed_defers;
        for c in out.cells {
            global.absorb_cell(&c.metrics, &c.members);
            cell_reports[c.cell] = Some(SimReport::from_metrics(c.metrics, c.frame_length));
            buffered.push((c.cell, c.events));
        }
    }
    if emitting {
        // Global cell order pins the flush for any worker count.
        buffered.sort_by_key(|&(c, _)| c);
        for (_, events) in &buffered {
            for ev in events {
                emit_to(&sim.sinks, ev);
            }
        }
    }
    if let Some(reg) = &sim.registry {
        reg.try_counter("multidomain.cells")?
            .add(topo.num_cells() as u64);
        reg.try_counter("multidomain.components")?
            .add(num_components);
        reg.try_counter("multidomain.jammed_tx")?.add(jammed_tx);
        reg.try_counter("multidomain.sensed_defers")?
            .add(sensed_defers);
    }
    Ok(MultiDomainReport {
        report: SimReport::from_metrics(global, sim.timing.frame_length),
        cells: cell_reports
            .into_iter()
            .map(|r| r.expect("every cell belongs to exactly one component"))
            .collect(),
        jammed_tx,
        sensed_defers,
    })
}

fn run_component(
    sim: &Simulation,
    topo: &Topology,
    cfg: &EngineConfig,
    comp: &[usize],
    emitting: bool,
) -> Result<ComponentOut> {
    if comp.len() == 1 {
        let members = topo.cell_members(comp[0]);
        let derived: Vec<Option<MacTiming>> =
            members.iter().map(|&i| topo.station_timing(i)).collect();
        if derived.windows(2).all(|w| w[0] == w[1]) {
            return run_isolated(sim, topo, comp[0], derived[0], emitting);
        }
    }
    let timers = sim
        .registry
        .as_ref()
        .map(EngineTimers::resolve)
        .transpose()?;
    Ok(Coordinator::new(sim, topo, cfg, comp, emitting, timers).run())
}

/// A cell's trace buffer, when the run has sinks.
fn trace_buffer(emitting: bool) -> Option<Arc<Mutex<VecTraceSink>>> {
    emitting.then(|| Arc::new(Mutex::new(VecTraceSink::new())))
}

/// The events a cell buffered, with its cell-local station ids mapped to
/// global ids. TEIs inside the SoF/SACK payloads stay cell-local
/// (per-AVLN semantics).
fn cell_events(buffer: Option<Arc<Mutex<VecTraceSink>>>, members: &[usize]) -> Vec<TraceEvent> {
    let mut events = buffer
        .map(|buf| std::mem::take(&mut buf.lock().events))
        .unwrap_or_default();
    for ev in &mut events {
        match ev {
            TraceEvent::Sof { station, .. }
            | TraceEvent::Success { station, .. }
            | TraceEvent::FrameDropped { station, .. }
            | TraceEvent::Snapshot { station, .. } => *station = members[*station],
            TraceEvent::Collision { stations, .. } => {
                for s in stations {
                    *s = members[*s];
                }
            }
            TraceEvent::IdleSlot { .. } | TraceEvent::Beacon { .. } | TraceEvent::Sack { .. } => {}
        }
    }
    events
}

/// A single uncoupled cell with uniform timing: exactly the legacy
/// engine, at full struct-of-arrays + fast-forward speed.
fn run_isolated(
    sim: &Simulation,
    topo: &Topology,
    cell: usize,
    derived: Option<MacTiming>,
    emitting: bool,
) -> Result<ComponentOut> {
    let members = topo.cell_members(cell);
    let seed = cell_seed(sim, topo, cell);
    let timing = derived.unwrap_or(sim.timing);
    let (stations, cfg) = sim.engine_parts(members.len(), seed, timing);
    let mut engine = SlottedEngine::try_new(cfg, stations, seed)?;
    if let Some(reg) = &sim.registry {
        engine.instrument(reg)?;
    }
    let buffer = trace_buffer(emitting);
    if let Some(buf) = &buffer {
        engine.add_sink(buf.clone());
    }
    engine.run();
    let metrics = engine.metrics().clone();
    Ok(ComponentOut {
        cells: vec![CellOut {
            cell,
            events: cell_events(buffer, &members),
            members,
            metrics,
            frame_length: timing.frame_length,
        }],
        jammed_tx: 0,
        sensed_defers: 0,
    })
}

/// One in-flight successful transmission, committed at `end`.
struct PendingTx {
    winner: usize,
    burst: usize,
    start: f64,
    end: f64,
}

/// A transmission on the wire, visible to other cells for sensing and
/// jamming. Records are appended in start-time order (the scheduler
/// processes cells in global time order).
struct TxRecord {
    /// Component-local index of the transmitting cell.
    cell: usize,
    start: f64,
    end: f64,
    /// Global ids of the transmitting stations (1 for a success, ≥ 2 for
    /// an intra-cell collision).
    txs: Vec<usize>,
    /// Which component-local cells have already deferred to this record.
    sensed: Vec<bool>,
}

struct CoCell {
    /// Global cell index.
    id: usize,
    /// Global station ids, by cell-local station index.
    members: Vec<usize>,
    stations: Vec<StationCtx<AnyBackoff>>,
    /// Each station's transmit timing (link-derived or the simulation's).
    timing: Vec<MacTiming>,
    rng: SmallRng,
    /// Local clock (µs).
    t: f64,
    slot: f64,
    metrics: Metrics,
    /// The cell's trace buffer, and the sink list that feeds it: events
    /// carry cell-local station ids until [`cell_events`] maps them.
    buffer: Option<Arc<Mutex<VecTraceSink>>>,
    sinks: Vec<SharedSink>,
    pending: Option<PendingTx>,
    /// Scratch: contenders of the current slot (local ids, ascending).
    tx_buf: Vec<usize>,
}

impl CoCell {
    fn next_time(&self) -> f64 {
        self.pending.as_ref().map_or(self.t, |p| p.end)
    }
}

struct Coordinator<'a> {
    cfg: &'a EngineConfig,
    topo: &'a Topology,
    cells: Vec<CoCell>,
    /// Cell-level sense coupling, component-local indices.
    sense_cc: Vec<Vec<bool>>,
    records: Vec<TxRecord>,
    /// Records before this index can never be sensed or jam again.
    alive_from: usize,
    jammed_tx: u64,
    sensed_defers: u64,
    /// The engine's metric handles, when a registry is attached.
    timers: Option<EngineTimers>,
    /// Contention slots run so far, over every cell (`engine.steps`).
    steps: u64,
}

impl<'a> Coordinator<'a> {
    fn new(
        sim: &Simulation,
        topo: &'a Topology,
        cfg: &'a EngineConfig,
        comp: &[usize],
        emitting: bool,
        timers: Option<EngineTimers>,
    ) -> Self {
        let mut cells = Vec::with_capacity(comp.len());
        for &c in comp {
            let members = topo.cell_members(c);
            let seed = cell_seed(sim, topo, c);
            let (specs, _) = sim.engine_parts(members.len(), seed, sim.timing);
            // The engine's seeding: traffic from the raw seed.
            let mut rng = SmallRng::seed_from_u64(seed);
            let stations: Vec<_> = specs
                .into_iter()
                .map(|s| StationCtx::new(s, &mut rng))
                .collect();
            let timing: Vec<MacTiming> = members
                .iter()
                .map(|&g| topo.station_timing(g).unwrap_or(sim.timing))
                .collect();
            let buffer = trace_buffer(emitting);
            let sinks = buffer.iter().map(|b| b.clone() as SharedSink).collect();
            cells.push(CoCell {
                id: c,
                slot: timing[0].slot.as_micros(),
                metrics: Metrics::new(members.len()),
                members,
                stations,
                timing,
                rng,
                t: 0.0,
                buffer,
                sinks,
                pending: None,
                tx_buf: Vec::new(),
            });
        }
        let k = comp.len();
        let mut sense_cc = vec![vec![false; k]; k];
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    sense_cc[a][b] = cells[a]
                        .members
                        .iter()
                        .any(|&i| cells[b].members.iter().any(|&j| topo.hears(i, j)));
                }
            }
        }
        Coordinator {
            cfg,
            topo,
            cells,
            sense_cc,
            records: Vec::new(),
            alive_from: 0,
            jammed_tx: 0,
            sensed_defers: 0,
            timers,
            steps: 0,
        }
    }

    fn run(mut self) -> ComponentOut {
        let horizon = self.cfg.horizon.as_micros();
        let started = std::time::Instant::now();
        loop {
            // A fired token stops the component before its next action,
            // as the engine stops before its next slot.
            if self.cfg.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            // The cell with the earliest next event acts; ties go to the
            // lowest component-local index. Cells past the horizon with
            // nothing in flight are done.
            let mut best: Option<(f64, usize)> = None;
            for (ci, cell) in self.cells.iter().enumerate() {
                if cell.pending.is_none() && cell.t > horizon {
                    continue;
                }
                let nt = cell.next_time();
                if best.is_none_or(|(bt, _)| nt < bt) {
                    best = Some((nt, ci));
                }
            }
            let Some((_, ci)) = best else { break };
            if self.cells[ci].pending.is_some() {
                self.commit(ci);
            } else {
                self.free_step(ci);
            }
            self.prune_records();
        }
        // One batch, as the engine's fast loop records: a clock read per
        // slot would cost as much as the slot.
        if let Some(t) = &self.timers {
            t.step.record_many(self.steps, started.elapsed());
            t.steps.add(self.steps);
        }
        let out_cells = self
            .cells
            .into_iter()
            .map(|c| CellOut {
                cell: c.id,
                events: cell_events(c.buffer, &c.members),
                frame_length: c.timing[0].frame_length,
                members: c.members,
                metrics: c.metrics,
            })
            .collect();
        ComponentOut {
            cells: out_cells,
            jammed_tx: self.jammed_tx,
            sensed_defers: self.sensed_defers,
        }
    }

    /// Drop records no cell can ever sense or be jammed by again.
    fn prune_records(&mut self) {
        let low = self
            .cells
            .iter()
            .map(|c| c.pending.as_ref().map_or(c.t, |p| p.start))
            .fold(f64::INFINITY, f64::min);
        while self
            .records
            .get(self.alive_from)
            .is_some_and(|r| r.end <= low)
        {
            self.alive_from += 1;
        }
    }

    /// Put cell `ci`'s transmission by the global stations `txs` on the
    /// wire, for the other cells to sense or be jammed by.
    fn push_record(&mut self, ci: usize, start: f64, end: f64, txs: Vec<usize>) {
        let mut sensed = vec![false; self.sense_cc.len()];
        sensed[ci] = true;
        self.records.push(TxRecord {
            cell: ci,
            start,
            end,
            txs,
            sensed,
        });
    }

    /// Is an impulse-noise burst active at `t`? The simulation's noise
    /// schedule is global (mains-borne noise hits the whole wire).
    fn noise_active(&self, t: f64) -> bool {
        let idx = self.cfg.noise.partition_point(|b| b.start_us <= t);
        idx > 0 && self.cfg.noise[idx - 1].contains(t)
    }

    /// One action for a cell with nothing in flight: defer to a sensed
    /// foreign transmission, or run one contention slot (counted into
    /// `engine.steps`, as the engine counts its slots).
    fn free_step(&mut self, ci: usize) {
        let t = self.cells[ci].t;

        // Sense the earliest active foreign transmission this cell has
        // not deferred to yet. Strictly-earlier start: simultaneous
        // starts overlap instead of sensing each other.
        let hit = self.records[self.alive_from..].iter().position(|r| {
            r.cell != ci && r.start < t && r.end > t && !r.sensed[ci] && self.sense_cc[ci][r.cell]
        });
        if let Some(off) = hit {
            let r = &mut self.records[self.alive_from + off];
            r.sensed[ci] = true;
            let end = r.end;
            self.sensed_defers += 1;
            let cell = &mut self.cells[ci];
            for s in cell.stations.iter_mut() {
                // Deferring stations (BC > 0) apply the busy-slot rule; a
                // station that already counted down to 0 holds its pending
                // transmission until the medium frees (`on_busy` is only
                // legal mid-countdown).
                if s.backlogged() && !s.process.wants_tx() {
                    s.process.on_busy(&mut cell.rng);
                }
            }
            cell.t = end;
            cell.metrics.elapsed = Microseconds(cell.t);
            return;
        }

        self.steps += 1;
        let cell = &mut self.cells[ci];
        // Traffic arrivals up to now; newly-backlogged stations start a
        // fresh stage-0 backoff (the legacy engine's per-step arrivals).
        for s in cell.stations.iter_mut() {
            if !s.traffic.is_saturated() && s.traffic.advance_to(t, &mut cell.rng) {
                s.process.reset(&mut cell.rng);
            }
        }

        cell.tx_buf.clear();
        for (i, s) in cell.stations.iter().enumerate() {
            if s.backlogged() && s.process.wants_tx() {
                cell.tx_buf.push(i);
            }
        }
        match cell.tx_buf.len() {
            0 => {
                for s in cell.stations.iter_mut() {
                    if s.backlogged() {
                        s.process.on_idle_slot(&mut cell.rng);
                    }
                }
                emit_to(&cell.sinks, &TraceEvent::IdleSlot { t: Microseconds(t) });
                cell.t += cell.slot;
                cell.metrics.idle_slots += 1;
                cell.metrics.time_idle += Microseconds(cell.slot);
                cell.metrics.elapsed = Microseconds(cell.t);
            }
            1 => self.start_success(ci),
            _ => self.intra_cell_collision(ci),
        }
    }

    /// A single contender wins its cell: sweep the backoff processes now
    /// (slot-event contract), put the transmission on the wire, and
    /// defer the channel outcome to [`commit`](Self::commit).
    fn start_success(&mut self, ci: usize) {
        let cell = &mut self.cells[ci];
        let t = cell.t;
        let w = cell.tx_buf[0];
        let available = cell.stations[w]
            .retx
            .len()
            .saturating_add(cell.stations[w].traffic.backlog())
            .min(MAX_BURST);
        let burst = self.cfg.burst.draw(&mut cell.rng, available);
        let dur = cell.timing[w].burst_duration(burst).as_micros();
        for (i, s) in cell.stations.iter_mut().enumerate() {
            if i == w {
                s.process.on_tx_success(&mut cell.rng);
            } else if s.backlogged() {
                s.process.on_busy(&mut cell.rng);
            }
        }
        cell.pending = Some(PendingTx {
            winner: w,
            burst,
            start: t,
            end: t + dur,
        });
        let txs = vec![cell.members[w]];
        self.push_record(ci, t, t + dur, txs);
    }

    /// The winner's transmission ended: now every overlapping foreign
    /// transmission is known, so resolve the channel outcome and deliver
    /// the burst as the engine does.
    fn commit(&mut self, ci: usize) {
        let p = self.cells[ci]
            .pending
            .take()
            .expect("commit needs a pending tx");
        let winner_global = self.cells[ci].members[p.winner];
        let foreign_jam = self.records[self.alive_from..].iter().any(|r| {
            r.cell != ci
                && r.start < p.end
                && p.start < r.end
                && r.txs
                    .iter()
                    .any(|&g| self.topo.interferes(winner_global, g))
        });
        if foreign_jam {
            self.jammed_tx += 1;
        }
        let b = Burst {
            station: p.winner,
            mpdus: p.burst,
            start: Microseconds(p.start),
            frame_length: self.cells[ci].timing[p.winner].frame_length,
            jammed: foreign_jam || self.noise_active(p.start),
        };

        let cell = &mut self.cells[ci];
        let n = cell.stations.len();
        let st = &mut cell.stations[b.station];
        let mut outcomes = Vec::with_capacity(b.mpdus);
        let (fresh_consumed, clean_mpdus) = st.deliver(
            &b,
            self.cfg.pb_error_prob,
            &mut cell.rng,
            self.timers.as_ref().map(|t| &t.pb_draw),
            &mut cell.metrics,
            &mut outcomes,
        );
        st.emit_success(&b, n, &outcomes, &cell.sinks);
        st.retry = RetryState::new();
        st.traffic.consume(fresh_consumed);
        cell.t = p.end;
        cell.metrics.record_success(b.station, b.start, clean_mpdus);
        cell.metrics.time_success += Microseconds(p.end - p.start);
        cell.metrics.elapsed = Microseconds(cell.t);
        emit_to(
            &cell.sinks,
            &TraceEvent::Success {
                t: b.start,
                station: b.station,
                burst: b.mpdus,
            },
        );
    }

    /// Two or more stations of one cell collide — resolved entirely at
    /// start (interference cannot change a collision), but the wreckage
    /// still radiates to neighbouring cells via a [`TxRecord`].
    fn intra_cell_collision(&mut self, ci: usize) {
        let cell = &mut self.cells[ci];
        let t = cell.t;
        let t0 = Microseconds(t);
        let tx = std::mem::take(&mut cell.tx_buf);
        let bursts: Vec<(usize, usize)> = tx
            .iter()
            .map(|&i| {
                let available = (cell.stations[i].retx.len()
                    + cell.stations[i].traffic.backlog().min(MAX_BURST))
                .clamp(1, MAX_BURST);
                (i, self.cfg.burst.draw(&mut cell.rng, available))
            })
            .collect();
        // The channel is occupied for the longest colliding burst plus
        // that station's collision-detection overhead (Tc − Ts).
        let dur = bursts
            .iter()
            .map(|&(i, b)| {
                let tm = cell.timing[i];
                tm.burst_duration(b).as_micros() + tm.tc.as_micros() - tm.ts.as_micros()
            })
            .fold(0.0, f64::max);

        if !cell.sinks.is_empty() {
            // Each collider's SoF and all-errored SACK, MPDU slot by MPDU
            // slot, at the collider's own frame length.
            let n = cell.stations.len();
            let max_burst = bursts.iter().map(|&(_, b)| b).max().unwrap_or(1);
            for k in 0..max_burst {
                for &(i, burst) in bursts.iter().filter(|&&(_, b)| b > k) {
                    let st = &cell.stations[i];
                    let fl = cell.timing[i].frame_length;
                    let sof_t = t0 + (fl + RIFS + SACK) * (k as u64);
                    let sof = st.sof(i, n, fl, burst - 1 - k);
                    emit_to(
                        &cell.sinks,
                        &TraceEvent::Sof {
                            t: sof_t,
                            station: i,
                            sof,
                        },
                    );
                    let ack_t = sof_t + PREAMBLE + fl + RIFS;
                    let ack = SelectiveAck::all_errored(st.tei(i), st.num_pbs);
                    emit_to(&cell.sinks, &TraceEvent::Sack { t: ack_t, ack });
                }
            }
        }

        let sinks = &cell.sinks;
        collision_pass(
            &mut cell.stations,
            &tx,
            self.cfg.retry,
            &mut cell.rng,
            &mut cell.metrics,
            |i, _, dropped| {
                if dropped {
                    emit_to(sinks, &TraceEvent::FrameDropped { t: t0, station: i });
                }
            },
        );

        cell.t += dur;
        cell.metrics.record_collision(&bursts);
        cell.metrics.time_collision += Microseconds(dur);
        cell.metrics.elapsed = Microseconds(cell.t);
        if !cell.sinks.is_empty() {
            emit_to(
                &cell.sinks,
                &TraceEvent::Collision {
                    t: t0,
                    stations: tx.clone(),
                },
            );
        }
        let txs = tx.iter().map(|&i| cell.members[i]).collect();
        cell.tx_buf = tx;
        self.push_record(ci, t, t + dur, txs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_core::CancelToken;
    use plc_faults::NoiseBurst;

    /// Two 2-station cells `gap_m` apart: sensed at 10 m, hidden at 80 m,
    /// isolated at 1,000 m.
    fn pair(gap_m: f64) -> Simulation {
        let topo = Topology::builder()
            .cell(&[(0.0, 0.0), (2.0, 0.0)])
            .cell(&[(gap_m, 0.0), (gap_m + 2.0, 0.0)])
            .build()
            .unwrap();
        Simulation::ieee1901(4).topology(topo)
    }

    #[test]
    fn every_topology_counts_its_cells_slots_into_the_registry() {
        for (gap_m, expected) in [(10.0, 2_160), (80.0, 3_087), (1_000.0, 3_087)] {
            let registry = plc_obs::Registry::new();
            let md = pair(gap_m)
                .horizon_us(1e6)
                .seed(3)
                .registry(&registry)
                .try_run_topology()
                .unwrap();
            let slots: u64 = (md.cells.iter().map(|c| &c.metrics))
                .map(|m| m.idle_slots + m.successes + m.collision_events)
                .sum();
            assert_eq!(slots, expected, "{gap_m} m");
            let snap = registry.snapshot();
            assert_eq!(snap.counter("engine.steps"), Some(slots), "{gap_m} m");
            // Every slot not absorbed by a fast-forward jump is a step
            // span, on the engine and the coordinator alike.
            let spans = snap.timer("engine.step").map(|t| t.count);
            let skipped = snap.counter("engine.steps_skipped").unwrap_or(0);
            assert_eq!(spans, Some(slots - skipped), "{gap_m} m");
        }
    }

    #[test]
    fn coupled_cells_return_the_engines_metric_kind_clash() {
        let errors: Vec<String> = [pair(1_000.0), pair(80.0)]
            .into_iter()
            .map(|sim| {
                let registry = plc_obs::Registry::new();
                registry.timer("engine.steps");
                let run = sim.horizon_us(2e5).registry(&registry).try_run();
                run.unwrap_err().to_string()
            })
            .collect();
        assert!(errors[0].contains("engine.steps"), "{}", errors[0]);
        assert_eq!(errors[0], errors[1]);
    }

    #[test]
    fn a_fired_token_stops_every_topology_before_it_runs() {
        let token = CancelToken::new();
        token.cancel();
        for (what, sim) in [
            ("sensed", pair(10.0)),
            ("hidden", pair(80.0)),
            ("isolated", pair(1_000.0)),
            ("single domain", Simulation::ieee1901(4)),
        ] {
            let md = sim
                .horizon_us(2e6)
                .seed(3)
                .cancel(token.clone())
                .try_run_topology()
                .unwrap();
            assert_eq!(md.report.elapsed_us, 0.0, "{what}");
            assert_eq!(md.report.successes, 0, "{what}");
        }
    }

    #[test]
    fn every_topology_rejects_a_malformed_noise_burst_alike() {
        for burst in [
            NoiseBurst {
                start_us: 1e5,
                duration_us: -1.0,
            },
            NoiseBurst {
                start_us: f64::NAN,
                duration_us: 1e4,
            },
        ] {
            let errors: Vec<String> = [Simulation::ieee1901(4), pair(1_000.0), pair(80.0)]
                .into_iter()
                .map(|sim| {
                    let err = sim.horizon_us(2e5).noise([burst]).try_run().unwrap_err();
                    assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
                    err.to_string()
                })
                .collect();
            assert!(errors[0].contains("finite, non-negative"), "{}", errors[0]);
            assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        }
    }
}
