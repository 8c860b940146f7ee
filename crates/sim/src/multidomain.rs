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
//!   sensed.
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
//! With sinks attached, each cell buffers its events and the buffers are
//! flushed to the user's sinks in global cell order after the run —
//! deterministic for any `domain_workers` count. `station` fields carry
//! *global* station ids; TEIs inside SoF/SACK payloads stay cell-local,
//! mirroring the standard's per-AVLN TEI assignment.

use crate::batch::BatchRunner;
use crate::engine::{EngineConfig, SlottedEngine, StationSpec};
use crate::metrics::Metrics;
use crate::runner::{SimReport, Simulation};
use crate::topology::Topology;
use crate::trace::{TraceEvent, VecTraceSink};
use crate::traffic::TrafficState;
use parking_lot::Mutex;
use plc_core::addr::Tei;
use plc_core::error::{Error, Result};
use plc_core::frame::{SelectiveAck, SofDelimiter};
use plc_core::priority::Priority;
use plc_core::timing::{MacTiming, MAX_BURST, PREAMBLE, RIFS, SACK};
use plc_core::units::Microseconds;
use plc_mac::process::BackoffProcess;
use plc_mac::process::Protocol;
use plc_mac::retry::RetryState;
use plc_mac::{AnyBackoff, Backoff1901, BackoffDcf};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
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
    if !sim.observers.is_empty() {
        return Err(reject("periodic observers"));
    }
    if !(0.0..1.0).contains(&sim.pb_error_prob) {
        return Err(Error::invalid_config(
            "PB error probability must be in [0, 1)",
        ));
    }
    if !sim.timing.is_valid() {
        return Err(Error::invalid_config("invalid MacTiming"));
    }
    for w in sim.noise.windows(2) {
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

    let components = topo.components();
    let num_components = components.len() as u64;
    let emitting = !sim.sinks.is_empty();
    let outs: Vec<Result<ComponentOut>> = BatchRunner::new()
        .workers(sim.domain_workers)
        .run(components, |_, comp, _| {
            run_component(sim, topo, &comp, emitting)
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
            if emitting {
                buffered.push((c.cell, c.events));
            }
        }
    }
    if emitting {
        // Global cell order pins the flush for any worker count.
        buffered.sort_by_key(|&(c, _)| c);
        for (_, events) in &buffered {
            for ev in events {
                for sink in &sim.sinks {
                    sink.lock().on_event(ev);
                }
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
    Coordinator::new(sim, topo, comp, emitting)?.run()
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
    let mut proc_rng =
        SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let stations: Vec<StationSpec<AnyBackoff>> = members
        .iter()
        .map(|_| {
            let process: AnyBackoff = match sim.protocol {
                Protocol::Ieee1901 => Backoff1901::new(sim.config.clone(), &mut proc_rng).into(),
                Protocol::Dcf80211 => BackoffDcf::new(sim.config.clone(), &mut proc_rng).into(),
            };
            StationSpec {
                traffic: sim.traffic,
                ..StationSpec::saturated(process)
            }
        })
        .collect();
    let timing = derived.unwrap_or(sim.timing);
    let cfg = EngineConfig {
        timing,
        horizon: sim.horizon,
        burst: sim.burst,
        retry: sim.retry,
        pb_error_prob: sim.pb_error_prob,
        emit_snapshots: false,
        emit_wire_events: true,
        beacons: None,
        noise: sim.noise.clone(),
        fast_forward: sim.fast_forward,
        soa: sim.soa,
        cancel: sim.cancel.clone(),
    };
    let mut engine = SlottedEngine::try_new(cfg, stations, seed)?;
    if let Some(reg) = &sim.registry {
        engine.instrument(reg)?;
    }
    let buffer = emitting.then(|| Arc::new(Mutex::new(VecTraceSink::new())));
    if let Some(buf) = &buffer {
        engine.add_sink(buf.clone());
    }
    engine.run();
    let metrics = engine.metrics().clone();
    drop(engine);
    let mut events = buffer
        .map(|buf| std::mem::take(&mut buf.lock().events))
        .unwrap_or_default();
    remap_station_ids(&mut events, &members);
    Ok(ComponentOut {
        cells: vec![CellOut {
            cell,
            members,
            metrics,
            frame_length: timing.frame_length,
            events,
        }],
        jammed_tx: 0,
        sensed_defers: 0,
    })
}

/// Rewrite cell-local `station` ids to global ids. TEIs inside the
/// SoF/SACK payloads are left cell-local (per-AVLN semantics).
fn remap_station_ids(events: &mut [TraceEvent], members: &[usize]) {
    for ev in events {
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
}

struct CoStation {
    process: AnyBackoff,
    traffic: TrafficState,
    retry: RetryState,
    /// PB counts of partially-errored MPDUs awaiting selective
    /// retransmission (FIFO, serviced before fresh frames) — the legacy
    /// engine's `retx` queue.
    retx: VecDeque<u16>,
    num_pbs: u16,
    /// This station's transmit timing (link-derived or the simulation's).
    timing: MacTiming,
    /// Global station id.
    global: usize,
}

impl CoStation {
    fn backlogged(&self) -> bool {
        self.traffic.has_frame() || !self.retx.is_empty()
    }
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
    members: Vec<usize>,
    stations: Vec<CoStation>,
    rng: SmallRng,
    /// Local clock (µs).
    t: f64,
    slot: f64,
    metrics: Metrics,
    events: Vec<TraceEvent>,
    pending: Option<PendingTx>,
    /// Scratch: contenders of the current slot (local ids, ascending).
    tx_buf: Vec<usize>,
    frame_length: Microseconds,
}

impl CoCell {
    fn next_time(&self) -> f64 {
        self.pending.as_ref().map_or(self.t, |p| p.end)
    }
}

struct Coordinator<'a> {
    sim: &'a Simulation,
    topo: &'a Topology,
    cells: Vec<CoCell>,
    /// Cell-level sense coupling, component-local indices.
    sense_cc: Vec<Vec<bool>>,
    records: Vec<TxRecord>,
    /// Records before this index can never be sensed or jam again.
    alive_from: usize,
    horizon: f64,
    emitting: bool,
    jammed_tx: u64,
    sensed_defers: u64,
}

impl<'a> Coordinator<'a> {
    fn new(
        sim: &'a Simulation,
        topo: &'a Topology,
        comp: &[usize],
        emitting: bool,
    ) -> Result<Self> {
        let mut cells = Vec::with_capacity(comp.len());
        for &c in comp {
            let members = topo.cell_members(c);
            let seed = cell_seed(sim, topo, c);
            // Mirror the legacy builder's seeding exactly: processes from
            // the golden-ratio-mixed stream, traffic from the raw seed.
            let mut proc_rng =
                SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut stations = Vec::with_capacity(members.len());
            for &g in &members {
                let process: AnyBackoff = match sim.protocol {
                    Protocol::Ieee1901 => {
                        Backoff1901::new(sim.config.clone(), &mut proc_rng).into()
                    }
                    Protocol::Dcf80211 => BackoffDcf::new(sim.config.clone(), &mut proc_rng).into(),
                };
                let timing = topo.station_timing(g).unwrap_or(sim.timing);
                if !timing.is_valid() {
                    return Err(Error::invalid_config(format!(
                        "station {g}'s link-derived timing is invalid"
                    )));
                }
                stations.push(CoStation {
                    process,
                    traffic: TrafficState::new(sim.traffic, &mut rng),
                    retry: RetryState::new(),
                    retx: VecDeque::new(),
                    num_pbs: 4,
                    timing,
                    global: g,
                });
            }
            let slot = stations[0].timing.slot.as_micros();
            let frame_length = stations[0].timing.frame_length;
            let n_local = members.len();
            cells.push(CoCell {
                id: c,
                members,
                stations,
                rng,
                t: 0.0,
                slot,
                metrics: Metrics::new(n_local),
                events: Vec::new(),
                pending: None,
                tx_buf: Vec::new(),
                frame_length,
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
        Ok(Coordinator {
            sim,
            topo,
            cells,
            sense_cc,
            records: Vec::new(),
            alive_from: 0,
            horizon: sim.horizon.as_micros(),
            emitting,
            jammed_tx: 0,
            sensed_defers: 0,
        })
    }

    fn run(mut self) -> Result<ComponentOut> {
        loop {
            // The cell with the earliest next event acts; ties go to the
            // lowest component-local index. Cells past the horizon with
            // nothing in flight are done.
            let mut best: Option<(f64, usize)> = None;
            for (ci, cell) in self.cells.iter().enumerate() {
                if cell.pending.is_none() && cell.t > self.horizon {
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
        let out_cells = self
            .cells
            .into_iter()
            .map(|c| CellOut {
                cell: c.id,
                members: c.members,
                metrics: c.metrics,
                frame_length: c.frame_length,
                events: c.events,
            })
            .collect();
        Ok(ComponentOut {
            cells: out_cells,
            jammed_tx: self.jammed_tx,
            sensed_defers: self.sensed_defers,
        })
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

    /// Is an impulse-noise burst active at `t`? The simulation's noise
    /// schedule is global (mains-borne noise hits the whole wire).
    fn noise_active(&self, t: f64) -> bool {
        let idx = self.sim.noise.partition_point(|b| b.start_us <= t);
        idx > 0 && self.sim.noise[idx - 1].contains(t)
    }

    /// One action for a cell with nothing in flight: defer to a sensed
    /// foreign transmission, or run one contention slot.
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
                if self.emitting {
                    cell.events
                        .push(TraceEvent::IdleSlot { t: Microseconds(t) });
                }
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
        let burst = self.sim.burst.draw(&mut cell.rng, available);
        let dur = cell.stations[w].timing.burst_duration(burst).as_micros();
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
        let n_cells = self.sense_cc.len();
        self.records.push(TxRecord {
            cell: ci,
            start: t,
            end: t + dur,
            txs: vec![self.cells[ci].stations[w].global],
            sensed: {
                let mut s = vec![false; n_cells];
                s[ci] = true;
                s
            },
        });
    }

    /// The winner's transmission ended: now every overlapping foreign
    /// transmission is known, so resolve the channel outcome.
    fn commit(&mut self, ci: usize) {
        let p = self.cells[ci]
            .pending
            .take()
            .expect("commit needs a pending tx");
        let winner_global = self.cells[ci].stations[p.winner].global;
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
        let jammed = foreign_jam || self.noise_active(p.start);

        let cell = &mut self.cells[ci];
        let w = p.winner;
        let t0 = Microseconds(p.start);
        let dur = Microseconds(p.end - p.start);
        let timing = cell.stations[w].timing;

        // The legacy success branch, verbatim: retransmissions first,
        // then fresh frames; jams error every PB without RNG draws.
        let mut fresh_consumed = 0usize;
        let mut clean_mpdus = 0usize;
        let mut outcomes: Vec<(u16, u16)> = Vec::with_capacity(p.burst);
        for _ in 0..p.burst {
            let (pbs, is_fresh) = match cell.stations[w].retx.pop_front() {
                Some(pbs) => (pbs, false),
                None => {
                    fresh_consumed += 1;
                    (cell.stations[w].num_pbs, true)
                }
            };
            let errored = if jammed {
                pbs
            } else if self.sim.pb_error_prob == 0.0 {
                0
            } else {
                let mut e = 0u16;
                for _ in 0..pbs {
                    if rand::Rng::gen::<f64>(&mut cell.rng) < self.sim.pb_error_prob {
                        e += 1;
                    }
                }
                e
            };
            outcomes.push((pbs, errored));
            let s = &mut cell.metrics.per_station[w];
            s.pbs_delivered += (pbs - errored) as u64;
            s.pbs_errored += errored as u64;
            cell.metrics.payload_delivered_us += timing.frame_length.as_micros()
                * (pbs - errored) as f64
                / cell.stations[w].num_pbs as f64;
            if errored == 0 {
                cell.metrics.frames_completed += 1;
                cell.metrics.per_station[w].frames_completed += 1;
                if is_fresh {
                    clean_mpdus += 1;
                } else {
                    cell.metrics.per_station[w].mpdus_partial += 1;
                }
            } else {
                cell.stations[w].retx.push_back(errored);
                cell.metrics.per_station[w].mpdus_partial += 1;
            }
        }

        if self.emitting {
            let mpdu_stride = timing.frame_length + RIFS + SACK;
            for (k, &(pbs, errored)) in outcomes.iter().enumerate() {
                let sof_t = t0 + mpdu_stride * (k as u64);
                cell.events.push(TraceEvent::Sof {
                    t: sof_t,
                    station: winner_global,
                    sof: sof_for(cell, w, p.burst - 1 - k, pbs, timing),
                });
                let ack_t = sof_t + PREAMBLE + timing.frame_length + RIFS;
                let mut ack = SelectiveAck::all_good(Tei::station(w as u32), pbs);
                for slot in ack.pb_ok.iter_mut().take(errored as usize) {
                    *slot = false;
                }
                cell.events.push(TraceEvent::Sack { t: ack_t, ack });
            }
        }

        cell.stations[w].retry = RetryState::new();
        cell.stations[w].traffic.consume(fresh_consumed);
        cell.t = p.end;
        cell.metrics.record_success(w, t0, clean_mpdus);
        cell.metrics.time_success += dur;
        cell.metrics.elapsed = Microseconds(cell.t);
        if self.emitting {
            cell.events.push(TraceEvent::Success {
                t: t0,
                station: winner_global,
                burst: p.burst,
            });
        }
    }

    /// Two or more stations of one cell collide — resolved entirely at
    /// start (interference cannot change a collision), but the wreckage
    /// still radiates to neighbouring cells via a [`TxRecord`].
    fn intra_cell_collision(&mut self, ci: usize) {
        let n_cells = self.sense_cc.len();
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
                (i, self.sim.burst.draw(&mut cell.rng, available))
            })
            .collect();
        // The channel is occupied for the longest colliding burst plus
        // that station's collision-detection overhead (Tc − Ts).
        let dur = bursts
            .iter()
            .map(|&(i, b)| {
                let tm = cell.stations[i].timing;
                tm.burst_duration(b).as_micros() + tm.tc.as_micros() - tm.ts.as_micros()
            })
            .fold(0.0, f64::max);

        if self.emitting {
            let max_burst = bursts.iter().map(|&(_, b)| b).max().unwrap_or(1);
            for k in 0..max_burst {
                for &(i, burst) in bursts.iter().filter(|&&(_, b)| b > k) {
                    let tm = cell.stations[i].timing;
                    let stride = tm.frame_length + RIFS + SACK;
                    let sof_t = t0 + stride * (k as u64);
                    cell.events.push(TraceEvent::Sof {
                        t: sof_t,
                        station: cell.stations[i].global,
                        sof: sof_for(cell, i, burst - 1 - k, cell.stations[i].num_pbs, tm),
                    });
                    let ack_t = sof_t + PREAMBLE + tm.frame_length + RIFS;
                    cell.events.push(TraceEvent::Sack {
                        t: ack_t,
                        ack: SelectiveAck::all_errored(
                            Tei::station(i as u32),
                            cell.stations[i].num_pbs,
                        ),
                    });
                }
            }
        }

        // The legacy per-object collision pass: colliders fail or drop,
        // bystanders with traffic sense busy — one ascending sweep.
        let mut txi = 0usize;
        for i in 0..cell.stations.len() {
            if txi < tx.len() && tx[txi] == i {
                txi += 1;
                let dropped = cell.stations[i].retry.record_failure(self.sim.retry);
                if dropped {
                    cell.stations[i].retry = RetryState::new();
                    if cell.stations[i].retx.pop_front().is_none() {
                        cell.stations[i].traffic.consume(1);
                    }
                    cell.stations[i].process.reset(&mut cell.rng);
                    cell.metrics.per_station[i].dropped += 1;
                    if self.emitting {
                        cell.events.push(TraceEvent::FrameDropped {
                            t: t0,
                            station: cell.stations[i].global,
                        });
                    }
                } else {
                    cell.stations[i].process.on_tx_failure(&mut cell.rng);
                }
            } else if cell.stations[i].backlogged() {
                cell.stations[i].process.on_busy(&mut cell.rng);
            }
        }

        cell.t += dur;
        cell.metrics.record_collision(&bursts);
        cell.metrics.time_collision += Microseconds(dur);
        cell.metrics.elapsed = Microseconds(cell.t);
        if self.emitting {
            cell.events.push(TraceEvent::Collision {
                t: t0,
                stations: tx.iter().map(|&i| cell.stations[i].global).collect(),
            });
        }

        let txs_global: Vec<usize> = tx.iter().map(|&i| cell.stations[i].global).collect();
        cell.tx_buf = tx;
        self.records.push(TxRecord {
            cell: ci,
            start: t,
            end: t + dur,
            txs: txs_global,
            sensed: {
                let mut s = vec![false; n_cells];
                s[ci] = true;
                s
            },
        });
    }
}

/// The SoF delimiter station `i` (cell-local) puts on the wire.
fn sof_for(cell: &CoCell, i: usize, remaining: usize, pbs: u16, timing: MacTiming) -> SofDelimiter {
    let fl = (timing.frame_length.as_micros() / 1.28).round();
    SofDelimiter {
        src: Tei::station(i as u32),
        dst: Tei::station(cell.stations.len() as u32),
        priority: Priority::CA1,
        mpdu_cnt: remaining as u8,
        num_pbs: pbs,
        fl_units: fl.min(u16::MAX as f64) as u16,
    }
}
