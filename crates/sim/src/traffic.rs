//! Traffic models.
//!
//! The paper's experiments are run with **saturated** stations ("N
//! saturated PLC stations transmitting UDP traffic"), which is also the
//! reference simulator's only mode. For extension experiments (delay under
//! load, unsaturated throughput) we add Poisson and on/off arrivals; a
//! station with an empty queue does not contend, and the arrival of a frame
//! to an idle station starts a fresh backoff at stage 0 — the standard's
//! behaviour "upon the arrival of a new packet".

use rand::Rng;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Frame arrival model for one station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TrafficModel {
    /// Always backlogged — the paper's assumption.
    #[default]
    Saturated,
    /// Poisson arrivals with the given rate (frames per µs); the queue is
    /// bounded and overflowing arrivals are dropped.
    Poisson {
        /// Mean arrival rate in frames/µs (e.g. `2e-4` ≈ one frame per 5 ms).
        rate_per_us: f64,
        /// Queue capacity in frames.
        queue_cap: usize,
    },
    /// Markov-modulated on/off source: exponentially distributed on and off
    /// periods; while "on", Poisson arrivals at `rate_per_us`.
    OnOff {
        /// Arrival rate while in the on state (frames/µs).
        rate_per_us: f64,
        /// Mean duration of the on state (µs).
        mean_on_us: f64,
        /// Mean duration of the off state (µs).
        mean_off_us: f64,
        /// Queue capacity in frames.
        queue_cap: usize,
    },
}

/// Runtime state of one station's traffic source + queue.
#[derive(Debug, Clone)]
pub struct TrafficState {
    model: TrafficModel,
    /// Frames waiting (saturated stations report `usize::MAX`).
    queue: usize,
    /// Next scheduled arrival time (µs), for arrival-driven models.
    next_arrival: f64,
    /// On/off phase state: `true` while in the on period.
    on: bool,
    /// Time the current on/off phase ends.
    phase_end: f64,
    /// Arrivals dropped because the queue was full.
    pub dropped_arrivals: u64,
    /// Total arrivals generated (including dropped).
    pub total_arrivals: u64,
}

fn exp_sample(rng: &mut dyn RngCore, mean: f64) -> f64 {
    // Inverse-CDF; `gen::<f64>()` is in [0,1), guard the log.
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

impl TrafficState {
    /// Initialize at simulated time 0.
    pub fn new(model: TrafficModel, rng: &mut dyn RngCore) -> Self {
        let mut s = TrafficState {
            model,
            queue: 0,
            next_arrival: f64::INFINITY,
            on: true,
            phase_end: f64::INFINITY,
            dropped_arrivals: 0,
            total_arrivals: 0,
        };
        match model {
            TrafficModel::Saturated => {}
            TrafficModel::Poisson { rate_per_us, .. } => {
                s.next_arrival = exp_sample(rng, 1.0 / rate_per_us);
            }
            TrafficModel::OnOff {
                rate_per_us,
                mean_on_us,
                ..
            } => {
                s.on = true;
                s.phase_end = exp_sample(rng, mean_on_us);
                s.next_arrival = exp_sample(rng, 1.0 / rate_per_us);
            }
        }
        s
    }

    /// Saturated?
    pub fn is_saturated(&self) -> bool {
        matches!(self.model, TrafficModel::Saturated)
    }

    /// Frames currently available to send (for burst sizing). Saturated
    /// sources report `usize::MAX`.
    pub fn backlog(&self) -> usize {
        if self.is_saturated() {
            usize::MAX
        } else {
            self.queue
        }
    }

    /// Does the station have a frame to contend for?
    pub fn has_frame(&self) -> bool {
        self.backlog() > 0
    }

    /// Earliest time (µs) at which [`advance_to`](Self::advance_to) would
    /// mutate state or consume RNG draws: the next arrival or on/off
    /// phase flip, `INFINITY` for saturated sources. Any `advance_to(now)`
    /// with `now` strictly below this value is a guaranteed no-op — the
    /// invariant the engine's idle-slot fast-forward relies on.
    pub fn next_event_us(&self) -> f64 {
        match self.model {
            TrafficModel::Saturated => f64::INFINITY,
            TrafficModel::Poisson { .. } => self.next_arrival,
            TrafficModel::OnOff { .. } => self.next_arrival.min(self.phase_end),
        }
    }

    /// Advance the arrival process to time `now` (µs), enqueueing arrivals.
    /// Returns `true` if the queue went from empty to non-empty (the
    /// station must start a fresh backoff).
    pub fn advance_to(&mut self, now: f64, rng: &mut dyn RngCore) -> bool {
        let was_empty = !self.has_frame();
        match self.model {
            TrafficModel::Saturated => return false,
            TrafficModel::Poisson {
                rate_per_us,
                queue_cap,
            } => {
                while self.next_arrival <= now {
                    self.arrive(queue_cap);
                    self.next_arrival += exp_sample(rng, 1.0 / rate_per_us);
                }
            }
            TrafficModel::OnOff {
                rate_per_us,
                mean_on_us,
                mean_off_us,
                queue_cap,
            } => {
                // Walk phase boundaries and arrivals interleaved.
                loop {
                    let next_event = self.next_arrival.min(self.phase_end);
                    if next_event > now {
                        break;
                    }
                    if self.phase_end <= self.next_arrival {
                        // Phase flip.
                        self.on = !self.on;
                        let mean = if self.on { mean_on_us } else { mean_off_us };
                        let t0 = self.phase_end;
                        self.phase_end = t0 + exp_sample(rng, mean);
                        self.next_arrival = if self.on {
                            t0 + exp_sample(rng, 1.0 / rate_per_us)
                        } else {
                            f64::INFINITY.min(self.phase_end + 0.0).max(self.phase_end)
                        };
                        if !self.on {
                            // No arrivals while off; re-arm at phase end.
                            self.next_arrival = self.phase_end;
                            continue;
                        }
                    } else {
                        if self.on {
                            self.arrive(queue_cap);
                            self.next_arrival += exp_sample(rng, 1.0 / rate_per_us);
                        } else {
                            // Arrival marker while off is just the phase end.
                            self.next_arrival = self.phase_end;
                        }
                    }
                }
            }
        }
        was_empty && self.has_frame()
    }

    fn arrive(&mut self, cap: usize) {
        self.total_arrivals += 1;
        if self.queue < cap {
            self.queue += 1;
        } else {
            self.dropped_arrivals += 1;
        }
    }

    /// Consume `n` frames after a successful burst.
    pub fn consume(&mut self, n: usize) {
        if !self.is_saturated() {
            self.queue = self.queue.saturating_sub(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn saturated_always_has_frames() {
        let mut r = rng();
        let mut s = TrafficState::new(TrafficModel::Saturated, &mut r);
        assert!(s.has_frame());
        assert_eq!(s.backlog(), usize::MAX);
        assert!(!s.advance_to(1e9, &mut r));
        s.consume(5);
        assert!(s.has_frame());
        assert_eq!(s.dropped_arrivals, 0);
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut r = rng();
        let rate = 1e-3; // 1 frame per 1000 µs
        let mut s = TrafficState::new(
            TrafficModel::Poisson {
                rate_per_us: rate,
                queue_cap: usize::MAX / 2,
            },
            &mut r,
        );
        s.advance_to(1e7, &mut r); // 10 s → expect ~10_000 arrivals
        let got = s.total_arrivals as f64;
        assert!((got - 10_000.0).abs() < 500.0, "got {got} arrivals");
        assert_eq!(s.dropped_arrivals, 0);
    }

    #[test]
    fn poisson_activation_signal() {
        let mut r = rng();
        let mut s = TrafficState::new(
            TrafficModel::Poisson {
                rate_per_us: 1e-3,
                queue_cap: 100,
            },
            &mut r,
        );
        assert!(!s.has_frame());
        // Advance far enough that an arrival certainly occurred.
        let activated = s.advance_to(1e6, &mut r);
        assert!(activated, "empty→non-empty must signal activation");
        // Further arrivals with a non-empty queue do not re-signal.
        assert!(!s.advance_to(2e6, &mut r));
    }

    #[test]
    fn queue_cap_drops() {
        let mut r = rng();
        let mut s = TrafficState::new(
            TrafficModel::Poisson {
                rate_per_us: 1e-2,
                queue_cap: 3,
            },
            &mut r,
        );
        s.advance_to(1e6, &mut r); // ~10_000 arrivals into a 3-deep queue
        assert_eq!(s.backlog(), 3);
        assert!(s.dropped_arrivals > 9_000);
    }

    #[test]
    fn consume_drains_queue() {
        let mut r = rng();
        let mut s = TrafficState::new(
            TrafficModel::Poisson {
                rate_per_us: 1e-2,
                queue_cap: 10,
            },
            &mut r,
        );
        s.advance_to(1e5, &mut r);
        assert_eq!(s.backlog(), 10);
        s.consume(4);
        assert_eq!(s.backlog(), 6);
        s.consume(100);
        assert_eq!(s.backlog(), 0);
        assert!(!s.has_frame());
    }

    #[test]
    fn onoff_generates_fewer_than_always_on() {
        let mut r = rng();
        let rate = 1e-3;
        let mut onoff = TrafficState::new(
            TrafficModel::OnOff {
                rate_per_us: rate,
                mean_on_us: 5e4,
                mean_off_us: 5e4,
                queue_cap: usize::MAX / 2,
            },
            &mut r,
        );
        onoff.advance_to(2e7, &mut r);
        let got = onoff.total_arrivals as f64;
        // 50% duty cycle → ≈ rate · T / 2 = 10_000 arrivals.
        assert!(
            (5_000.0..15_000.0).contains(&got),
            "on/off at 50% duty should halve arrivals, got {got}"
        );
    }

    fn arrival_models() -> impl Strategy<Value = TrafficModel> {
        prop_oneof![
            (1e-6f64..1e-2, 1usize..12).prop_map(|(rate_per_us, queue_cap)| {
                TrafficModel::Poisson {
                    rate_per_us,
                    queue_cap,
                }
            }),
            (1e-6f64..1e-2, 1e2f64..1e6, 1e2f64..1e6, 1usize..12).prop_map(
                |(rate_per_us, mean_on_us, mean_off_us, queue_cap)| TrafficModel::OnOff {
                    rate_per_us,
                    mean_on_us,
                    mean_off_us,
                    queue_cap,
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The contract the engine's arrival gate rests on: strictly
        /// before `next_event_us`, `advance_to` reports no activation,
        /// leaves the state as it was and draws no RNG word — from any
        /// reachable state, at the last representable instant before the
        /// event and anywhere earlier.
        #[test]
        fn advance_before_the_next_event_is_a_no_op(
            model in arrival_models(),
            seed in any::<u64>(),
            warm_us in 0.0f64..2e6,
            consumed in 0usize..4,
            earlier in 0.0f64..1.0,
        ) {
            let mut r = SmallRng::seed_from_u64(seed);
            let mut s = TrafficState::new(model, &mut r);
            s.advance_to(warm_us, &mut r);
            s.consume(consumed);
            let next = s.next_event_us();
            prop_assert!(next.is_finite() && next > 0.0, "{s:?}");
            for now in [next.next_down(), next * earlier] {
                let (before, rng_before) = (format!("{s:?}"), r.clone());
                prop_assert!(!s.advance_to(now, &mut r), "activated at {now} < {next}");
                prop_assert_eq!(format!("{s:?}"), before, "state moved at {now} < {next}");
                prop_assert!(r == rng_before, "RNG drawn at {now} < {next}");
            }
        }
    }

    #[test]
    fn exp_sample_mean() {
        let mut r = rng();
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            sum += exp_sample(&mut r, 250.0);
        }
        let mean = sum / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "mean {mean}");
    }
}
