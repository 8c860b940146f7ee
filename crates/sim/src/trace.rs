//! Simulation trace events and sinks.
//!
//! The engine publishes a stream of MAC-level events — idle slots, SoF
//! delimiters (one per MPDU, including collided ones, since 1901 delimiters
//! are robustly modulated), selective ACKs, transmission outcomes. Sinks
//! subscribe to this stream:
//!
//! * the testbed emulation's *sniffer mode* is a sink that records SoF
//!   delimiters exactly as `faifa` would;
//! * [`SuccessTrace`] records the sequence of winning stations, which is
//!   the input to the fairness analysis;
//! * [`VecTraceSink`] records everything, for examples and debugging
//!   (Figure 1's two-station table is generated from it).

use plc_core::frame::{SelectiveAck, SofDelimiter};
use plc_core::units::Microseconds;
use plc_mac::process::BackoffSnapshot;
use serde::{Deserialize, Serialize};

/// Index of a station within a simulation (0-based).
pub type StationId = usize;

/// One MAC-level event on the simulated channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The medium stayed idle for one contention slot.
    IdleSlot {
        /// Slot start time.
        t: Microseconds,
    },
    /// The central coordinator's beacon occupied the medium. HomePlug AV
    /// schedules a beacon every beacon period (two mains cycles); the
    /// paper's §3.3 notes faifa captures "data frames, beacons,
    /// management".
    Beacon {
        /// Beacon transmission time.
        t: Microseconds,
    },
    /// A start-of-frame delimiter went on the wire. Emitted for *every*
    /// MPDU — including each MPDU of a burst and the delimiters of
    /// colliding stations (their preambles are decodable).
    Sof {
        /// Delimiter transmission time.
        t: Microseconds,
        /// Transmitting station.
        station: StationId,
        /// The delimiter fields, as a sniffer would capture them.
        sof: SofDelimiter,
    },
    /// A selective acknowledgment went on the wire.
    Sack {
        /// ACK transmission time.
        t: Microseconds,
        /// The acknowledgment. For collided MPDUs every PB is flagged
        /// errored but the ACK still exists — the 1901 quirk behind the
        /// paper's `ΣAᵢ` growing with N.
        ack: SelectiveAck,
    },
    /// A contention round ended with a successful transmission.
    Success {
        /// Transmission start time.
        t: Microseconds,
        /// The winning station.
        station: StationId,
        /// Number of MPDUs in the transmitted burst.
        burst: usize,
    },
    /// A contention round ended with a collision.
    Collision {
        /// Collision start time.
        t: Microseconds,
        /// All stations whose backoff expired in the same slot.
        stations: Vec<StationId>,
    },
    /// A station exhausted its retry limit and dropped the frame.
    FrameDropped {
        /// Drop time.
        t: Microseconds,
        /// The station that discarded its head-of-line frame.
        station: StationId,
    },
    /// Per-station counter snapshot, emitted when snapshot tracing is
    /// enabled (used to regenerate Figure 1).
    Snapshot {
        /// Snapshot time.
        t: Microseconds,
        /// The station.
        station: StationId,
        /// Counter values after the event at `t` was processed.
        snap: BackoffSnapshot,
    },
}

impl TraceEvent {
    /// The timestamp of the event.
    pub fn time(&self) -> Microseconds {
        match self {
            TraceEvent::IdleSlot { t }
            | TraceEvent::Beacon { t }
            | TraceEvent::Sof { t, .. }
            | TraceEvent::Sack { t, .. }
            | TraceEvent::Success { t, .. }
            | TraceEvent::Collision { t, .. }
            | TraceEvent::FrameDropped { t, .. }
            | TraceEvent::Snapshot { t, .. } => *t,
        }
    }
}

/// A consumer of trace events. Engines call `on_event` synchronously, in
/// simulated-time order.
pub trait TraceSink {
    /// Handle one event.
    fn on_event(&mut self, ev: &TraceEvent);
}

/// Records every event. Memory grows with the trace; prefer dedicated sinks
/// for long runs.
#[derive(Debug, Default)]
pub struct VecTraceSink {
    /// The recorded events, in order.
    pub events: Vec<TraceEvent>,
}

impl VecTraceSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecTraceSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

/// Records only the ordered sequence of successful transmitters — the
/// "trace of the sources for all the transmitted data frames" the paper
/// uses for its fairness study — along with their timestamps (for delay
/// distributions).
#[derive(Debug, Default)]
pub struct SuccessTrace {
    /// Winning station per success, in time order.
    pub winners: Vec<StationId>,
    /// Transmission start time of each success (µs), index-aligned with
    /// `winners`.
    pub times_us: Vec<f64>,
}

impl SuccessTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inter-success gaps (µs) of one station.
    pub fn intersuccess_times_us(&self, station: StationId) -> Vec<f64> {
        let mut out = Vec::new();
        let mut last: Option<f64> = None;
        for (&w, &t) in self.winners.iter().zip(&self.times_us) {
            if w == station {
                if let Some(prev) = last {
                    out.push(t - prev);
                }
                last = Some(t);
            }
        }
        out
    }
}

impl TraceSink for SuccessTrace {
    fn on_event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Success { station, t, .. } = ev {
            self.winners.push(*station);
            self.times_us.push(t.as_micros());
        }
    }
}

/// Counts events by kind without storing them — cheap sanity checks on
/// long runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Idle slots seen.
    pub idle_slots: u64,
    /// SoF delimiters seen.
    pub sofs: u64,
    /// SACKs seen.
    pub sacks: u64,
    /// Successful rounds.
    pub successes: u64,
    /// Collision rounds.
    pub collisions: u64,
    /// Dropped frames.
    pub drops: u64,
}

impl TraceSink for CountingSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::IdleSlot { .. } => self.idle_slots += 1,
            TraceEvent::Sof { .. } => self.sofs += 1,
            TraceEvent::Sack { .. } => self.sacks += 1,
            TraceEvent::Success { .. } => self.successes += 1,
            TraceEvent::Collision { .. } => self.collisions += 1,
            TraceEvent::FrameDropped { .. } => self.drops += 1,
            TraceEvent::Beacon { .. } | TraceEvent::Snapshot { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_core::addr::Tei;
    use plc_core::priority::Priority;

    fn sof_at(t: f64) -> TraceEvent {
        TraceEvent::Sof {
            t: Microseconds(t),
            station: 0,
            sof: SofDelimiter {
                src: Tei(1),
                dst: Tei(2),
                priority: Priority::CA1,
                mpdu_cnt: 0,
                num_pbs: 4,
                fl_units: 1602,
            },
        }
    }

    #[test]
    fn event_time_extraction() {
        assert_eq!(
            TraceEvent::IdleSlot {
                t: Microseconds(5.0)
            }
            .time(),
            Microseconds(5.0)
        );
        assert_eq!(sof_at(9.0).time(), Microseconds(9.0));
        let c = TraceEvent::Collision {
            t: Microseconds(1.0),
            stations: vec![0, 1],
        };
        assert_eq!(c.time(), Microseconds(1.0));
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecTraceSink::new();
        sink.on_event(&TraceEvent::IdleSlot {
            t: Microseconds(0.0),
        });
        sink.on_event(&sof_at(35.84));
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[1].time(), Microseconds(35.84));
    }

    #[test]
    fn success_trace_filters() {
        let mut tr = SuccessTrace::new();
        tr.on_event(&TraceEvent::IdleSlot {
            t: Microseconds(0.0),
        });
        tr.on_event(&TraceEvent::Success {
            t: Microseconds(1.0),
            station: 2,
            burst: 1,
        });
        tr.on_event(&TraceEvent::Collision {
            t: Microseconds(2.0),
            stations: vec![0, 1],
        });
        tr.on_event(&TraceEvent::Success {
            t: Microseconds(3.0),
            station: 0,
            burst: 2,
        });
        assert_eq!(tr.winners, vec![2, 0]);
    }

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::default();
        c.on_event(&TraceEvent::IdleSlot {
            t: Microseconds(0.0),
        });
        c.on_event(&TraceEvent::IdleSlot {
            t: Microseconds(1.0),
        });
        c.on_event(&sof_at(2.0));
        c.on_event(&TraceEvent::Success {
            t: Microseconds(2.0),
            station: 0,
            burst: 1,
        });
        c.on_event(&TraceEvent::FrameDropped {
            t: Microseconds(3.0),
            station: 0,
        });
        assert_eq!(c.idle_slots, 2);
        assert_eq!(c.sofs, 1);
        assert_eq!(c.successes, 1);
        assert_eq!(c.drops, 1);
        assert_eq!(c.collisions, 0);
    }
}
