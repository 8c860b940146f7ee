//! Metrics collected by the simulation engines.
//!
//! Counter semantics deliberately match the testbed's: a "collision" is
//! counted once *per colliding station* (that is what each station's
//! firmware counter `Cᵢ` sees, and what the MATLAB reference accumulates
//! with `collisions += counter`), while a success is one acknowledged
//! transmission. The derived quantities reproduce the paper's definitions:
//!
//! * collision probability `= ΣCᵢ / (ΣCᵢ + successes)` — identical to the
//!   testbed's `ΣCᵢ / ΣAᵢ` because 1901 selective ACKs cover collided
//!   frames too, so `ΣAᵢ = ΣCᵢ + successes`;
//! * normalized throughput `= payload airtime / elapsed time`.

use plc_core::units::Microseconds;
use plc_stats::fairness::jain_index;
use plc_stats::summary::Welford;
use serde::{Deserialize, Serialize};

/// Per-station counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StationMetrics {
    /// Successful transmissions (contention wins that were acknowledged
    /// clean). With bursting, one win still counts once here; MPDU-level
    /// counts live in `mpdus_ok`.
    pub successes: u64,
    /// Transmission attempts that ended in a collision.
    pub collisions: u64,
    /// Total transmission attempts (`successes + collisions`).
    pub attempts: u64,
    /// MPDUs delivered without error (burst-aware: one per MPDU).
    pub mpdus_ok: u64,
    /// MPDUs that collided (one per MPDU put on the wire during a
    /// collision; with bursting every MPDU of the burst goes out and is
    /// acknowledged-with-errors, so all of them count).
    pub mpdus_collided: u64,
    /// MPDUs acknowledged with a mix of clean and errored PBs (channel
    /// errors; the errored PBs are selectively retransmitted).
    pub mpdus_partial: u64,
    /// Physical blocks delivered clean.
    pub pbs_delivered: u64,
    /// Physical blocks received in error (channel errors, not collisions).
    pub pbs_errored: u64,
    /// Frames fully delivered (every PB clean, possibly across several
    /// selective retransmissions).
    pub frames_completed: u64,
    /// Frames discarded by the retry policy.
    pub dropped: u64,
    /// Inter-success times in µs (access-delay proxy).
    pub intersuccess: Welford,
    /// Time of this station's last success, if any.
    pub last_success: Option<Microseconds>,
}

impl StationMetrics {
    /// MPDUs acknowledged by the destination, *including* collided and
    /// partially-errored ones — the 1901 selective-ACK semantics behind
    /// the testbed's `Aᵢ`.
    pub fn mpdus_acked(&self) -> u64 {
        self.mpdus_ok + self.mpdus_partial + self.mpdus_collided
    }
}

/// Aggregate metrics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Simulated time elapsed.
    pub elapsed: Microseconds,
    /// Number of idle contention slots.
    pub idle_slots: u64,
    /// Successful contention rounds.
    pub successes: u64,
    /// Collision rounds (events, not stations).
    pub collision_events: u64,
    /// Colliding stations summed over collision rounds (the paper's
    /// `collisions` counter / the testbed's `ΣCᵢ`).
    pub collided_tx: u64,
    /// Time the medium spent idle.
    pub time_idle: Microseconds,
    /// Time spent in successful transmissions (bursts included).
    pub time_success: Microseconds,
    /// Time spent in collisions.
    pub time_collision: Microseconds,
    /// Beacons transmitted by the coordinator.
    pub beacons: u64,
    /// Time spent in beacon transmissions.
    pub time_beacon: Microseconds,
    /// MPDUs delivered clean, network-wide.
    pub mpdus_ok: u64,
    /// Frames fully delivered network-wide (all PBs clean, possibly after
    /// selective retransmissions).
    pub frames_completed: u64,
    /// Payload airtime actually delivered (µs), crediting each clean PB
    /// its share of the frame length. Equals `mpdus_ok · frame_length`
    /// on an error-free channel; strictly less under channel errors.
    pub payload_delivered_us: f64,
    /// Per-station breakdown.
    pub per_station: Vec<StationMetrics>,
}

impl Metrics {
    /// Fresh metrics for `n` stations.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_station: vec![StationMetrics::default(); n],
            ..Default::default()
        }
    }

    /// Number of stations.
    pub fn num_stations(&self) -> usize {
        self.per_station.len()
    }

    /// The paper's collision probability: colliding transmissions over all
    /// acknowledged transmissions (`ΣCᵢ / (ΣCᵢ + successes)`).
    ///
    /// Returns 0 when nothing was transmitted.
    pub fn collision_probability(&self) -> f64 {
        let denom = self.collided_tx + self.successes;
        if denom == 0 {
            0.0
        } else {
            self.collided_tx as f64 / denom as f64
        }
    }

    /// MPDU-level collision probability (`Σ mpdus_collided / Σ mpdus_acked`)
    /// — exactly what the testbed computes from the ampstat counters. With
    /// single-MPDU transmissions it coincides with
    /// [`collision_probability`](Self::collision_probability).
    pub fn mpdu_collision_probability(&self) -> f64 {
        let collided: u64 = self.per_station.iter().map(|s| s.mpdus_collided).sum();
        let acked: u64 = self.per_station.iter().map(|s| s.mpdus_acked()).sum();
        if acked == 0 {
            0.0
        } else {
            collided as f64 / acked as f64
        }
    }

    /// Normalized throughput: payload airtime per unit time, where each
    /// delivered MPDU is credited `frame_length` of payload airtime
    /// (`successes · frame_length / t` in the reference simulator; burst
    /// deliveries credit each MPDU).
    pub fn norm_throughput(&self, frame_length: Microseconds) -> f64 {
        if self.elapsed.as_micros() == 0.0 {
            return 0.0;
        }
        (frame_length * self.mpdus_ok) / self.elapsed
    }

    /// Goodput: payload airtime actually delivered per unit time. On an
    /// error-free channel this equals
    /// [`norm_throughput`](Self::norm_throughput); with channel errors it
    /// accounts for errored PBs awaiting selective retransmission.
    pub fn goodput(&self) -> f64 {
        if self.elapsed.as_micros() == 0.0 {
            return 0.0;
        }
        self.payload_delivered_us / self.elapsed.as_micros()
    }

    /// Jain's fairness index over per-station success counts.
    pub fn jain_fairness(&self) -> f64 {
        let alloc: Vec<f64> = self
            .per_station
            .iter()
            .map(|s| s.successes as f64)
            .collect();
        jain_index(&alloc)
    }

    /// Fraction of simulated time spent idle / in success / in collision.
    /// Sums to 1 up to beacon time; priority resolution charges no
    /// airtime of its own (its two slots sit inside `Ts` and `Tc`).
    pub fn airtime_shares(&self) -> (f64, f64, f64) {
        let t = self.elapsed.as_micros();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.time_idle.as_micros() / t,
            self.time_success.as_micros() / t,
            self.time_collision.as_micros() / t,
        )
    }

    /// Record a success for `station` at time `t` (one burst of
    /// `burst_mpdus` MPDUs).
    pub(crate) fn record_success(&mut self, station: usize, t: Microseconds, burst_mpdus: usize) {
        self.successes += 1;
        self.mpdus_ok += burst_mpdus as u64;
        let s = &mut self.per_station[station];
        s.successes += 1;
        s.attempts += 1;
        s.mpdus_ok += burst_mpdus as u64;
        if let Some(last) = s.last_success {
            s.intersuccess.push((t - last).as_micros());
        }
        s.last_success = Some(t);
    }

    /// Fold one cell's metrics into this network-wide view: counters and
    /// airtimes sum, `elapsed` is the maximum over cells (cells run
    /// concurrently on the wire), and `members[local]` maps the cell's
    /// station indices to their global slots. Each station belongs to
    /// exactly one cell, so per-station rows move rather than merge.
    pub(crate) fn absorb_cell(&mut self, cell: &Metrics, members: &[usize]) {
        debug_assert_eq!(cell.per_station.len(), members.len());
        self.elapsed = Microseconds(self.elapsed.as_micros().max(cell.elapsed.as_micros()));
        self.idle_slots += cell.idle_slots;
        self.successes += cell.successes;
        self.collision_events += cell.collision_events;
        self.collided_tx += cell.collided_tx;
        self.time_idle += cell.time_idle;
        self.time_success += cell.time_success;
        self.time_collision += cell.time_collision;
        self.beacons += cell.beacons;
        self.time_beacon += cell.time_beacon;
        self.mpdus_ok += cell.mpdus_ok;
        self.frames_completed += cell.frames_completed;
        self.payload_delivered_us += cell.payload_delivered_us;
        for (local, &global) in members.iter().enumerate() {
            self.per_station[global] = cell.per_station[local].clone();
        }
    }

    /// Record a collision among `stations`, each transmitting a burst of
    /// the given MPDU count. `collided_tx` counts *stations* (the
    /// event-level semantics of the reference simulator); the per-station
    /// MPDU counters count every MPDU of the burst (the firmware-counter
    /// semantics of the testbed).
    pub(crate) fn record_collision(&mut self, stations: &[(usize, usize)]) {
        self.collision_events += 1;
        self.collided_tx += stations.len() as u64;
        for &(i, mpdus) in stations {
            let s = &mut self.per_station[i];
            s.collisions += 1;
            s.attempts += 1;
            s.mpdus_collided += mpdus as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_probability_matches_paper_definition() {
        let mut m = Metrics::new(2);
        m.record_success(0, Microseconds(10.0), 1);
        m.record_success(1, Microseconds(20.0), 1);
        m.record_collision(&[(0, 1), (1, 1)]);
        // collisions = 2 stations, successes = 2 → p = 2/4.
        assert_eq!(m.collision_probability(), 0.5);
        assert_eq!(m.collision_events, 1);
        assert_eq!(m.collided_tx, 2);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new(3);
        assert_eq!(m.collision_probability(), 0.0);
        assert_eq!(m.mpdu_collision_probability(), 0.0);
        assert_eq!(m.norm_throughput(Microseconds(2050.0)), 0.0);
        assert_eq!(m.airtime_shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mpdu_probability_equals_event_probability_without_bursts() {
        let mut m = Metrics::new(2);
        for _ in 0..7 {
            m.record_success(0, Microseconds(1.0), 1);
        }
        m.record_collision(&[(0, 1), (1, 1)]);
        assert!((m.collision_probability() - m.mpdu_collision_probability()).abs() < 1e-12);
    }

    #[test]
    fn full_burst_collisions_preserve_mpdu_ratio() {
        let mut m = Metrics::new(2);
        // One success delivering 2 MPDUs, one collision where both
        // stations put their full 2-MPDU bursts on the wire.
        m.record_success(0, Microseconds(1.0), 2);
        m.record_collision(&[(0, 2), (1, 2)]);
        // Event-level: 2 collided stations / 3 transmissions.
        assert!((m.collision_probability() - 2.0 / 3.0).abs() < 1e-12);
        // MPDU-level: 4 collided / 6 acked — the same ratio, which is why
        // the paper's per-MPDU firmware counters reproduce the event-level
        // collision probability despite the 2-MPDU bursts.
        assert!((m.mpdu_collision_probability() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_counts_mpdus() {
        let mut m = Metrics::new(1);
        m.record_success(0, Microseconds(1.0), 2);
        m.elapsed = Microseconds(10_000.0);
        assert!((m.norm_throughput(Microseconds(2050.0)) - 2.0 * 2050.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn intersuccess_tracking() {
        let mut m = Metrics::new(1);
        m.record_success(0, Microseconds(100.0), 1);
        m.record_success(0, Microseconds(300.0), 1);
        m.record_success(0, Microseconds(600.0), 1);
        let w = &m.per_station[0].intersuccess;
        assert_eq!(w.count(), 2);
        assert!((w.mean() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn jain_over_success_counts() {
        let mut m = Metrics::new(2);
        for _ in 0..10 {
            m.record_success(0, Microseconds(1.0), 1);
        }
        assert!(
            (m.jain_fairness() - 0.5).abs() < 1e-12,
            "one station hogging → 1/n"
        );
        for _ in 0..10 {
            m.record_success(1, Microseconds(1.0), 1);
        }
        assert!((m.jain_fairness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acked_includes_collided() {
        let mut m = Metrics::new(1);
        m.record_success(0, Microseconds(1.0), 1);
        m.record_collision(&[(0, 1)]);
        assert_eq!(m.per_station[0].mpdus_acked(), 2);
    }

    #[test]
    fn airtime_shares_sum_to_one() {
        let mut m = Metrics::new(1);
        m.time_idle = Microseconds(300.0);
        m.time_success = Microseconds(500.0);
        m.time_collision = Microseconds(200.0);
        m.elapsed = Microseconds(1000.0);
        let (i, s, c) = m.airtime_shares();
        assert!((i + s + c - 1.0).abs() < 1e-12);
        assert_eq!(s, 0.5);
    }
}
