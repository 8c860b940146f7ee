//! HomePlug AV / IEEE 1901 MAC timing constants.
//!
//! The values the paper's reference simulator uses verbatim are exposed as
//! constants ([`SLOT`], [`DEFAULT_TS`], [`DEFAULT_TC`],
//! [`DEFAULT_FRAME_LENGTH`], [`DEFAULT_SIM_TIME`]). Around them we provide
//! the standard's contention timing structure (priority-resolution slots,
//! inter-frame spaces) used by the extended engine and the testbed
//! emulation, and a [`MacTiming`] bundle that derives success/collision
//! durations from their components so experiments can vary the payload
//! length coherently.

use crate::units::Microseconds;
use serde::{Deserialize, Serialize};

/// The 1901 contention time slot: 35.84 µs (the paper's simulator hardcodes
/// this value).
pub const SLOT: Microseconds = Microseconds(35.84);

/// Duration of one priority-resolution slot (PRS0 or PRS1) in 1901.
pub const PRS_SLOT: Microseconds = Microseconds(35.84);

/// Contention inter-frame space: the gap after a transmission before the
/// priority-resolution slots of the next contention round.
pub const CIFS: Microseconds = Microseconds(100.0);

/// Response inter-frame space: the gap between a data MPDU and its
/// (selective) acknowledgment.
pub const RIFS: Microseconds = Microseconds(140.0);

/// Duration of the frame-control + preamble portion of a PLC frame. The
/// preamble is modulated robustly so that even colliding frames can have
/// their delimiters decoded — the property the paper exploits to show that
/// collided frames are still acknowledged (with all PBs marked in error).
pub const PREAMBLE: Microseconds = Microseconds(110.48);

/// Duration of a selective-ACK (SACK) delimiter.
pub const SACK: Microseconds = Microseconds(110.48);

/// HomePlug AV beacon period: two mains cycles at 50 Hz (the paper's
/// European testbed) — 40 ms. The CCo transmits one beacon per period;
/// the rest of the period carries the CSMA allocation the paper studies.
pub const BEACON_PERIOD_50HZ: Microseconds = Microseconds(40_000.0);

/// Airtime of one beacon (preamble + frame control; beacons carry no
/// payload PBs).
pub const BEACON_AIRTIME: Microseconds = Microseconds(110.48);

/// Default duration of a successful transmission used throughout the paper:
/// `Ts = 2542.64 µs`.
pub const DEFAULT_TS: Microseconds = Microseconds(2542.64);

/// Default duration of a collision used throughout the paper:
/// `Tc = 2920.64 µs`.
pub const DEFAULT_TC: Microseconds = Microseconds(2920.64);

/// Default frame duration (payload airtime, excluding preamble, priority
/// slots, inter-frame spaces and ACK): `2050 µs`.
pub const DEFAULT_FRAME_LENGTH: Microseconds = Microseconds(2050.0);

/// Default simulation horizon used by the paper's example invocation:
/// `5 · 10^8 µs` (500 s of simulated time).
pub const DEFAULT_SIM_TIME: Microseconds = Microseconds(5.0e8);

/// Payload of one physical block in bytes (the 1901 PB is 512 bytes, of
/// which a header and checksum consume a small part; we model the full
/// 512-byte block as the unit the MAC reasons about, as the paper does).
pub const PB_SIZE: usize = 512;

/// Maximum number of MPDUs a station may send in one burst after winning
/// contention ("Up to four MPDUs may be supported in a burst").
pub const MAX_BURST: usize = 4;

/// The burst size the paper measured its INT6300 devices actually using in
/// the isolated experiments ("the stations in the isolated experiments use
/// bursts with 2 MPDUs").
pub const MEASURED_BURST: usize = 2;

/// The complete timing picture of one contention/transmission cycle.
///
/// The paper's reference simulator collapses everything into three numbers
/// (slot, Ts, Tc). `MacTiming` keeps those as the source of truth but also
/// exposes the structured breakdown so that the testbed emulation can place
/// SoF delimiters, ACK gaps and priority slots at realistic offsets inside a
/// transmission, and so that experiments varying the payload can recompute
/// `Ts`/`Tc` consistently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacTiming {
    /// Contention slot duration (σ).
    pub slot: Microseconds,
    /// Total airtime+overhead of a successful transmission, as seen by the
    /// contention process (everything between two backoff slots).
    pub ts: Microseconds,
    /// Total time consumed by a collision.
    pub tc: Microseconds,
    /// The payload airtime credited to the winner on success; normalized
    /// throughput is `successes · frame_length / total_time`.
    pub frame_length: Microseconds,
}

impl MacTiming {
    /// The paper's default timing: slot 35.84 µs, Ts 2542.64 µs,
    /// Tc 2920.64 µs, frame length 2050 µs.
    pub fn paper_default() -> Self {
        MacTiming {
            slot: SLOT,
            ts: DEFAULT_TS,
            tc: DEFAULT_TC,
            frame_length: DEFAULT_FRAME_LENGTH,
        }
    }

    /// Build a timing set from a payload duration, deriving `Ts` and `Tc`
    /// from the standard's overhead structure:
    ///
    /// * `Ts` = 2·PRS + preamble + payload + RIFS + SACK + CIFS
    /// * `Tc` = 2·PRS + preamble + payload + **ACK timeout** + CIFS, where
    ///   the ACK timeout is RIFS + SACK + an extra slot of detection margin
    ///   (collisions cost slightly more than successes, matching
    ///   `Tc > Ts` in the paper's defaults).
    pub fn from_payload(payload: Microseconds) -> Self {
        let common = PRS_SLOT * 2.0 + PREAMBLE + payload + CIFS;
        let ts = common + RIFS + SACK;
        let tc = common + RIFS + SACK + Microseconds(378.0);
        MacTiming {
            slot: SLOT,
            ts,
            tc,
            frame_length: payload,
        }
    }

    /// Validity check used by simulator constructors: all durations finite
    /// and positive, and the slot not longer than the transmissions.
    pub fn is_valid(&self) -> bool {
        self.slot.is_valid_duration()
            && self.ts.is_valid_duration()
            && self.tc.is_valid_duration()
            && self.frame_length.is_valid_duration()
            && self.slot.as_micros() > 0.0
            && self.ts.as_micros() > 0.0
            && self.tc.as_micros() > 0.0
    }

    /// The per-MPDU airtime when a burst of `n` MPDUs is sent in one won
    /// contention: the burst amortizes the contention overhead over `n`
    /// MPDUs, each separated by RIFS+SACK (1901 bursts are individually
    /// acknowledged when SACK is in use).
    ///
    /// Inlinable across crates: the engine's success and collision arms
    /// call it once per busy slot.
    #[inline]
    pub fn burst_duration(&self, n: usize) -> Microseconds {
        assert!((1..=MAX_BURST).contains(&n), "burst size must be in 1..=4");
        // The first MPDU carries the full Ts overhead; each further MPDU
        // adds payload + RIFS + SACK.
        self.ts + (self.frame_length + RIFS + SACK) * ((n - 1) as u64)
    }
}

impl Default for MacTiming {
    fn default() -> Self {
        MacTiming::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_exact() {
        assert_eq!(SLOT.as_micros(), 35.84);
        assert_eq!(DEFAULT_TS.as_micros(), 2542.64);
        assert_eq!(DEFAULT_TC.as_micros(), 2920.64);
        assert_eq!(DEFAULT_FRAME_LENGTH.as_micros(), 2050.0);
        assert_eq!(DEFAULT_SIM_TIME.as_micros(), 5.0e8);
    }

    #[test]
    fn paper_default_bundle() {
        let t = MacTiming::paper_default();
        assert!(t.is_valid());
        assert_eq!(t.slot, SLOT);
        assert_eq!(t.ts, DEFAULT_TS);
        assert_eq!(t.tc, DEFAULT_TC);
        assert!(t.tc > t.ts, "collisions cost more than successes");
    }

    #[test]
    fn derived_timing_close_to_paper_defaults() {
        // With the paper's 2050 µs payload, the derived breakdown should
        // land near the paper's Ts/Tc (they were computed from the same
        // standard constants).
        let t = MacTiming::from_payload(DEFAULT_FRAME_LENGTH);
        assert!(
            (t.ts.as_micros() - DEFAULT_TS.as_micros()).abs() < 60.0,
            "Ts = {}",
            t.ts
        );
        assert!(
            (t.tc.as_micros() - DEFAULT_TC.as_micros()).abs() < 60.0,
            "Tc = {}",
            t.tc
        );
        assert!(t.tc > t.ts);
    }

    #[test]
    fn burst_amortizes_overhead() {
        let t = MacTiming::paper_default();
        let one = t.burst_duration(1);
        let two = t.burst_duration(2);
        assert_eq!(one, t.ts);
        assert!(two > one);
        // Per-MPDU airtime must shrink with burst size.
        assert!(two.as_micros() / 2.0 < one.as_micros());
        let four = t.burst_duration(MAX_BURST);
        assert!(four.as_micros() / 4.0 < two.as_micros() / 2.0);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn burst_of_zero_panics() {
        MacTiming::paper_default().burst_duration(0);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn burst_of_five_panics() {
        MacTiming::paper_default().burst_duration(5);
    }

    #[test]
    fn invalid_timing_detected() {
        let mut t = MacTiming::paper_default();
        t.slot = Microseconds(0.0);
        assert!(!t.is_valid());
        let mut t2 = MacTiming::paper_default();
        t2.ts = Microseconds(-1.0);
        assert!(!t2.is_valid());
        let mut t3 = MacTiming::paper_default();
        t3.tc = Microseconds(f64::NAN);
        assert!(!t3.is_valid());
    }

    #[test]
    fn pb_and_burst_constants() {
        assert_eq!(PB_SIZE, 512);
        assert_eq!(MAX_BURST, 4);
        assert_eq!(MEASURED_BURST, 2);
    }
}
