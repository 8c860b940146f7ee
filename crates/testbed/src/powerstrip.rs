//! The power strip: physical topology plus the firmware/medium glue.
//!
//! The paper's setup: "N saturated PLC stations transmitting UDP traffic
//! to the same destination station called D. At each experiment, only the
//! N stations are activated and plugged on the power-strip … the channel
//! conditions are ideal". [`PowerStrip`] builds exactly that — `N`
//! emulated devices plus `D` on one contention domain — and runs the
//! `plc-sim` slotted engine underneath:
//!
//! * each device contributes a **data station** at CA1 (saturated UDP, the
//!   paper's default priority) — except `D`, which only receives;
//! * each device (including `D`) optionally contributes a **management
//!   station** at CA2 with low-rate Poisson arrivals, reproducing the
//!   MMEs the paper observes "are transmitted with CA2 or CA3 priorities".
//!   The two classes share the medium through the engine's priority
//!   resolution: a backlogged MME station wins the next round;
//! * a firmware trace sink feeds the engine's wire events into the
//!   devices: every SACK updates the transmitter's acked/collided
//!   counters (collided MPDUs are acknowledged-with-errors), and every
//!   SoF is offered to all devices for sniffer capture.

use crate::bus::{DeviceTable, MgmtBus};
use crate::device::Device;
use parking_lot::Mutex;
use plc_core::addr::{MacAddr, Tei};
use plc_core::config::CsmaConfig;
use plc_core::priority::Priority;
use plc_core::timing::MacTiming;
use plc_core::units::Microseconds;
use plc_mac::Backoff1901;
use plc_sim::bursting::BurstPolicy;
use plc_sim::engine::{EngineConfig, SlottedEngine, StationSpec};
use plc_sim::metrics::Metrics;
use plc_sim::trace::{TraceEvent, TraceSink};
use plc_sim::traffic::TrafficModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of one testbed instance.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Number of transmitting stations `N` (the destination `D` is extra).
    pub n_stations: usize,
    /// Test duration (the paper uses 240 s tests).
    pub duration: Microseconds,
    /// Master seed.
    pub seed: u64,
    /// Burst policy; the paper's devices used 2-MPDU bursts.
    pub burst: BurstPolicy,
    /// Per-device management-message rate (frames/µs) at CA2; 0 disables
    /// management traffic.
    pub mme_rate_per_us: f64,
    /// Channel timing.
    pub timing: MacTiming,
    /// Deterministic fault plan: MME loss/delay on the management bus,
    /// device brownouts, counter wrap, impulse noise. `None` is the ideal
    /// testbed of the paper.
    pub faults: Option<plc_faults::FaultPlan>,
}

impl Default for TestbedConfig {
    /// Paper-like defaults: 240 s, 2-MPDU bursts, light management
    /// traffic (≈ 2 MMEs per second per device).
    fn default() -> Self {
        TestbedConfig {
            n_stations: 2,
            duration: Microseconds::from_secs(240.0),
            seed: 0,
            burst: BurstPolicy::INT6300,
            mme_rate_per_us: 2e-6,
            timing: MacTiming::paper_default(),
            faults: None,
        }
    }
}

/// The emulated power strip.
pub struct PowerStrip {
    cfg: TestbedConfig,
    devices: DeviceTable,
    host: MacAddr,
    registry: Option<plc_obs::Registry>,
    /// Shared MME fault injector, built from the config's plan; all buses
    /// handed out by [`bus`](PowerStrip::bus) consume one fate stream.
    mme_faults: Option<crate::bus::SharedMmeFaults>,
}

/// The measurement host's MAC address (the PC the tools run on).
pub const HOST_MAC: MacAddr = MacAddr([0x02, 0xB0, 0x57, 0x00, 0x00, 0x01]);

impl PowerStrip {
    /// Plug `cfg.n_stations` stations and the destination `D` into the
    /// strip. Device `i` has `MacAddr::station(i)` / `Tei::station(i)`;
    /// `D` is the last device.
    pub fn new(cfg: TestbedConfig) -> Self {
        assert!(
            cfg.n_stations >= 1,
            "need at least one transmitting station"
        );
        let mut devices: Vec<Device> = (0..=cfg.n_stations as u32)
            .map(|i| Device::new(MacAddr::station(i), Tei::station(i)))
            .collect();
        let mme_faults = cfg.faults.as_ref().map(|plan| {
            for d in devices.iter_mut() {
                d.set_counter_wrap(plan.counter_wrap);
            }
            Arc::new(Mutex::new(plc_faults::MmeFaults::from_plan(plan)))
        });
        PowerStrip {
            cfg,
            devices: Arc::new(Mutex::new(devices)),
            host: HOST_MAC,
            registry: None,
            mme_faults,
        }
    }

    /// Mirror every device's firmware counters into `registry`
    /// (`testbed.dev<TEI>.tx_acked` / `.tx_collided`) and instrument the
    /// underlying engine (its `engine.*` metrics, see
    /// [`SlottedEngine::instrument`]) on every later test run.
    /// Observability only — results are identical with or without it.
    /// Fails (leaving the strip uninstrumented) if a device mirror name is
    /// already registered under a different kind; a clash on an engine
    /// name surfaces from
    /// [`run_test_with_breaks`](PowerStrip::run_test_with_breaks) before
    /// any slot runs.
    pub fn attach_registry(&mut self, registry: &plc_obs::Registry) -> plc_core::error::Result<()> {
        for d in self.devices.lock().iter_mut() {
            d.attach_registry(registry)?;
        }
        if let Some(f) = &self.mme_faults {
            f.lock().attach_registry(registry)?;
        }
        self.registry = Some(registry.clone());
        Ok(())
    }

    /// The management bus the tools plug into (fault-injected when the
    /// config carries a plan).
    pub fn bus(&self) -> MgmtBus {
        let bus = MgmtBus::new(self.devices.clone(), self.host);
        match &self.mme_faults {
            Some(f) => bus.with_faults(f.clone()),
            None => bus,
        }
    }

    /// A bus that bypasses fault injection (assertions and ground-truth
    /// reads in tests).
    pub fn clean_bus(&self) -> MgmtBus {
        MgmtBus::new(self.devices.clone(), self.host)
    }

    /// The configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// MAC of transmitting station `i`.
    pub fn station_mac(&self, i: usize) -> MacAddr {
        assert!(i < self.cfg.n_stations);
        MacAddr::station(i as u32)
    }

    /// MAC of the destination `D`.
    pub fn destination_mac(&self) -> MacAddr {
        MacAddr::station(self.cfg.n_stations as u32)
    }

    /// TEI of the destination `D`.
    pub fn destination_tei(&self) -> Tei {
        Tei::station(self.cfg.n_stations as u32)
    }

    /// Run one test of the configured duration. Returns the engine's
    /// ground-truth metrics (the measured counters live in the devices and
    /// are read through the tools, as on hardware).
    ///
    /// # Panics
    ///
    /// When the engine cannot be built (a malformed noise plan) or
    /// instrumented (an engine metric name registered under another kind
    /// in the attached registry);
    /// [`run_test_with_breaks`](PowerStrip::run_test_with_breaks) returns
    /// the error instead.
    pub fn run_test(&mut self) -> Metrics {
        self.run_test_with_breaks(&[], |_| Ok(()))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_test`](PowerStrip::run_test), pausing the engine at each time
    /// in `breaks` to invoke `on_break(index)` — the hook the experiment
    /// layer uses to read counters mid-test (checkpointed reads are what
    /// make reset/wrap stitching possible). Device brownouts scheduled in
    /// the fault plan are applied at their times as well; a reset
    /// coinciding with a break is applied first, so the break observes the
    /// post-reset counters.
    ///
    /// The engine performs the exact same sequence of steps as an
    /// unsegmented run — pausing is observationally free — so for an empty
    /// plan and no breaks this is byte-identical to
    /// [`run_test`](PowerStrip::run_test). The plan's impulse-noise bursts
    /// reach the engine ([`EngineConfig::noise`]); a malformed schedule,
    /// or an engine metric name the attached registry holds under another
    /// kind, is returned as an error before any slot runs.
    pub fn run_test_with_breaks(
        &mut self,
        breaks: &[Microseconds],
        mut on_break: impl FnMut(usize) -> plc_core::error::Result<()>,
    ) -> plc_core::error::Result<Metrics> {
        let n = self.cfg.n_stations;
        let dst = self.destination_tei();
        let mut proc_rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x9E37_79B9_7F4A_7C15);

        let mut stations: Vec<StationSpec<Backoff1901>> = Vec::new();
        // Data stations: CA1, saturated, one per transmitting device.
        for i in 0..n {
            stations.push(StationSpec {
                tei: Some(Tei::station(i as u32)),
                dst: Some(dst),
                ..StationSpec::saturated(Backoff1901::new(
                    CsmaConfig::ieee1901_ca01(),
                    &mut proc_rng,
                ))
            });
        }
        // Management stations: CA2, light Poisson, one per device incl. D.
        if self.cfg.mme_rate_per_us > 0.0 {
            for i in 0..=n {
                stations.push(StationSpec {
                    priority: Priority::CA2,
                    traffic: TrafficModel::Poisson {
                        rate_per_us: self.cfg.mme_rate_per_us,
                        queue_cap: 16,
                    },
                    num_pbs: 1, // MMEs are single-PB frames
                    tei: Some(Tei::station(i as u32)),
                    // MMEs from stations go to D; D's own MMEs go to station 0.
                    dst: Some(if i == n { Tei::station(0) } else { dst }),
                    ..StationSpec::saturated(Backoff1901::new(
                        CsmaConfig::ieee1901_ca23(),
                        &mut proc_rng,
                    ))
                });
            }
        }

        let engine_cfg = EngineConfig {
            timing: self.cfg.timing,
            horizon: self.cfg.duration,
            burst: self.cfg.burst,
            noise: self
                .cfg
                .faults
                .as_ref()
                .map(|plan| plan.noise.clone())
                .unwrap_or_default(),
            ..EngineConfig::paper_default()
        };
        let mut engine = SlottedEngine::try_new(engine_cfg, stations, self.cfg.seed)?;
        if let Some(registry) = &self.registry {
            engine.instrument(registry)?;
        }
        let sink = Arc::new(Mutex::new(FirmwareSink::new(self.devices.clone())));
        engine.add_sink(sink);

        // Boundary schedule: fault-plan brownouts merged with the caller's
        // breaks. The stable sort keeps resets ahead of breaks that share
        // a timestamp (resets were pushed first).
        enum Boundary {
            Reset(usize),
            Break(usize),
        }
        let horizon = self.cfg.duration;
        let n_devices = self.devices.lock().len();
        let mut bounds: Vec<(f64, Boundary)> = Vec::new();
        if let Some(plan) = &self.cfg.faults {
            for r in &plan.device_resets {
                if r.at_us < horizon.as_micros() && r.station < n_devices {
                    bounds.push((r.at_us, Boundary::Reset(r.station)));
                }
            }
        }
        for (j, b) in breaks.iter().enumerate() {
            bounds.push((b.as_micros(), Boundary::Break(j)));
        }
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0));

        for (t, boundary) in bounds {
            let target = Microseconds(t.min(horizon.as_micros()));
            while engine.time() <= target {
                engine.step();
            }
            match boundary {
                Boundary::Reset(station) => self.devices.lock()[station].reset_firmware(),
                Boundary::Break(j) => on_break(j)?,
            }
        }
        // The rest runs to the horizon with fast-forward, byte-identical
        // to stepping.
        Ok(engine.run().clone())
    }
}

/// Trace sink wiring engine wire events into device firmware state.
struct FirmwareSink {
    devices: DeviceTable,
    /// In-flight MPDU bookkeeping: src TEI → (priority, dst TEI), set by
    /// the SoF, consumed by the matching SACK.
    pending: HashMap<Tei, (Priority, Tei)>,
}

impl FirmwareSink {
    fn new(devices: DeviceTable) -> Self {
        FirmwareSink {
            devices,
            pending: HashMap::new(),
        }
    }
}

impl TraceSink for FirmwareSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Sof { t, sof, .. } => {
                self.pending.insert(sof.src, (sof.priority, sof.dst));
                let mut devices = self.devices.lock();
                for d in devices.iter_mut() {
                    d.sense_sof(t.as_micros(), *sof);
                }
            }
            TraceEvent::Sack { ack, .. } => {
                let Some(&(priority, dst)) = self.pending.get(&ack.to) else {
                    return;
                };
                let collided = ack.indicates_collision();
                let mut devices = self.devices.lock();
                // Peer of the transmit-side counter is the destination MAC.
                let peer_mac = devices
                    .iter()
                    .find(|d| d.tei() == dst)
                    .map(|d| d.mac())
                    .unwrap_or(MacAddr::BROADCAST);
                let src_mac = devices
                    .iter()
                    .find(|d| d.tei() == ack.to)
                    .map(|d| d.mac())
                    .unwrap_or(MacAddr::BROADCAST);
                if let Some(tx_dev) = devices.iter_mut().find(|d| d.tei() == ack.to) {
                    tx_dev.record_tx_ack(peer_mac, priority, collided);
                }
                if let Some(rx_dev) = devices.iter_mut().find(|d| d.tei() == dst) {
                    rx_dev.record_rx(src_mac, priority, collided);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tools::{AmpStat, Faifa};
    use plc_core::mme::Direction;

    fn quick_cfg(n: usize, seed: u64) -> TestbedConfig {
        TestbedConfig {
            n_stations: n,
            duration: Microseconds::from_secs(5.0),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn counters_match_engine_ground_truth() {
        let mut strip = PowerStrip::new(quick_cfg(3, 1));
        let metrics = strip.run_test();
        let tool = AmpStat::new(strip.bus());
        let dst = strip.destination_mac();
        let mut sum_acked = 0;
        let mut sum_collided = 0;
        for i in 0..3 {
            let s = tool
                .get(strip.station_mac(i), dst, Priority::CA1, Direction::Tx)
                .unwrap();
            // Engine station i is the data station of device i.
            let gt = &metrics.per_station[i];
            assert_eq!(s.acked, gt.mpdus_acked(), "station {i} acked");
            assert_eq!(s.collided, gt.mpdus_collided, "station {i} collided");
            sum_acked += s.acked;
            sum_collided += s.collided;
        }
        assert!(sum_acked > 0);
        assert!(sum_collided > 0, "3 saturated stations must collide in 5 s");
    }

    #[test]
    fn registry_mirror_agrees_with_ampstat() {
        // The per-device mirror counters aggregate across priorities, so
        // disable MME traffic to compare against the CA1-only ampstat view.
        let mut cfg = quick_cfg(3, 1);
        cfg.mme_rate_per_us = 0.0;
        let mut strip = PowerStrip::new(cfg);
        let registry = plc_obs::Registry::new();
        strip.attach_registry(&registry).unwrap();
        strip.run_test();
        let tool = AmpStat::new(strip.bus());
        let dst = strip.destination_mac();
        let snap = registry.snapshot();
        for i in 0..3u32 {
            let s = tool
                .get(
                    strip.station_mac(i as usize),
                    dst,
                    Priority::CA1,
                    Direction::Tx,
                )
                .unwrap();
            // Device i carries Tei::station(i) == i + 1.
            let tei = i + 1;
            assert_eq!(
                snap.counter(&format!("testbed.dev{tei}.tx_acked")),
                Some(s.acked),
                "device {i} acked mirror"
            );
            assert_eq!(
                snap.counter(&format!("testbed.dev{tei}.tx_collided")),
                Some(s.collided),
                "device {i} collided mirror"
            );
        }
        // The engine was instrumented through the same registry.
        assert!(snap.counter("engine.steps").is_some_and(|steps| steps > 0));
    }

    #[test]
    fn bursts_mean_two_mpdus_per_win() {
        let mut strip = PowerStrip::new(quick_cfg(1, 2));
        let metrics = strip.run_test();
        // INT6300 burst policy: every saturated win carries 2 MPDUs.
        assert_eq!(
            metrics.per_station[0].mpdus_ok,
            2 * metrics.per_station[0].successes
        );
    }

    #[test]
    fn rx_counters_land_on_destination() {
        let mut strip = PowerStrip::new(quick_cfg(2, 3));
        strip.run_test();
        let tool = AmpStat::new(strip.bus());
        let dst = strip.destination_mac();
        let rx = tool
            .get(dst, strip.station_mac(0), Priority::CA1, Direction::Rx)
            .unwrap();
        assert!(
            rx.acked > 0,
            "D must have receive-side counters for station 0"
        );
    }

    #[test]
    fn sniffer_captures_both_data_and_mme_priorities() {
        let mut strip = PowerStrip::new(quick_cfg(2, 4));
        let faifa = Faifa::new(strip.bus());
        faifa.set_sniffer(strip.destination_mac(), true).unwrap();
        strip.run_test();
        let caps = faifa.collect(strip.destination_mac()).unwrap();
        assert!(!caps.is_empty());
        let data = caps
            .iter()
            .filter(|c| c.sof.priority == Priority::CA1)
            .count();
        let mme = caps
            .iter()
            .filter(|c| c.sof.priority == Priority::CA2)
            .count();
        assert!(data > 0, "UDP data at CA1 must be captured");
        assert!(mme > 0, "management traffic at CA2 must be captured");
        assert!(data > mme, "saturated data dwarfs light management traffic");
        // Timestamps are non-decreasing.
        assert!(caps
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn no_mme_traffic_when_disabled() {
        let mut cfg = quick_cfg(2, 5);
        cfg.mme_rate_per_us = 0.0;
        let mut strip = PowerStrip::new(cfg);
        let faifa = Faifa::new(strip.bus());
        faifa.set_sniffer(strip.destination_mac(), true).unwrap();
        strip.run_test();
        let caps = faifa.collect(strip.destination_mac()).unwrap();
        assert!(caps.iter().all(|c| c.sof.priority == Priority::CA1));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut strip = PowerStrip::new(quick_cfg(2, seed));
            strip.run_test();
            let tool = AmpStat::new(strip.bus());
            let dst = strip.destination_mac();
            (0..2)
                .map(|i| {
                    tool.get(strip.station_mac(i), dst, Priority::CA1, Direction::Tx)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_stations_rejected() {
        PowerStrip::new(TestbedConfig {
            n_stations: 0,
            ..Default::default()
        });
    }

    fn counters(strip: &PowerStrip, n: usize) -> Vec<plc_core::mme::AmpStatCnf> {
        let tool = AmpStat::new(strip.clean_bus());
        let dst = strip.destination_mac();
        (0..n)
            .map(|i| {
                tool.get(strip.station_mac(i), dst, Priority::CA1, Direction::Tx)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn pausing_at_breaks_is_observationally_free() {
        let mut plain = PowerStrip::new(quick_cfg(2, 6));
        let m_plain = plain.run_test();
        let mut paused = PowerStrip::new(quick_cfg(2, 6));
        let breaks = [
            Microseconds::from_secs(1.0),
            Microseconds::from_secs(2.5),
            Microseconds::from_secs(5.0),
        ];
        let mut visits = 0;
        let m_paused = paused
            .run_test_with_breaks(&breaks, |_| {
                visits += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(visits, 3);
        assert_eq!(m_plain, m_paused, "pausing must not perturb the engine");
        assert_eq!(counters(&plain, 2), counters(&paused, 2));
    }

    #[test]
    fn break_errors_propagate() {
        let mut strip = PowerStrip::new(quick_cfg(1, 6));
        let err = strip
            .run_test_with_breaks(&[Microseconds::from_secs(1.0)], |_| {
                Err(plc_core::error::Error::timeout("checkpoint read", 7.0))
            })
            .unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn scheduled_brownout_clears_counters_mid_test() {
        let mut cfg = quick_cfg(2, 7);
        cfg.faults = Some(
            plc_faults::FaultPlan::builder()
                .seed(7)
                .device_reset_at(0, Microseconds::from_secs(2.5).as_micros())
                .build(),
        );
        let mut strip = PowerStrip::new(cfg);
        strip.run_test();
        let reset_count = strip
            .clean_bus()
            .with_device(strip.station_mac(0), |d| d.reset_count())
            .unwrap();
        assert_eq!(reset_count, 1);
        // Compare against a fault-free control with the same seed: the
        // engine traffic is identical (resets touch only firmware state),
        // so station 0's counters lost their first 2.5 s while station 1's
        // are untouched.
        let mut control = PowerStrip::new(quick_cfg(2, 7));
        control.run_test();
        let faulted = counters(&strip, 2);
        let clean = counters(&control, 2);
        assert!(
            faulted[0].acked < clean[0].acked,
            "reset must lose counts: {} vs {}",
            faulted[0].acked,
            clean[0].acked
        );
        assert_eq!(faulted[1], clean[1], "other station unaffected");
    }

    #[test]
    fn impulse_noise_from_the_plan_reaches_the_medium() {
        // A burst over the middle second wipes every PB sent inside it.
        // Each such MPDU is SACKed with every PB errored, which the
        // firmware counts as a collision, so ampstat's ΣCᵢ rises over the
        // same-seed clean control. The engine itself draws nothing for
        // noise: its own success and collision counts stay equal.
        let mut cfg = quick_cfg(2, 11);
        cfg.mme_rate_per_us = 0.0;
        let mut control = PowerStrip::new(cfg.clone());
        let clean_metrics = control.run_test();
        cfg.faults = Some(
            plc_faults::FaultPlan::builder()
                .seed(11)
                .noise_burst(2.0e6, 1.0e6)
                .build(),
        );
        let mut noisy = PowerStrip::new(cfg);
        let noisy_metrics = noisy.run_test();
        assert_eq!(noisy_metrics.successes, clean_metrics.successes);
        assert_eq!(
            noisy_metrics.collision_events,
            clean_metrics.collision_events
        );
        let collided =
            |strip: &PowerStrip| -> u64 { counters(strip, 2).iter().map(|c| c.collided).sum() };
        assert!(
            collided(&noisy) > collided(&control),
            "noise must show as collided MPDUs: {} vs {}",
            collided(&noisy),
            collided(&control)
        );
    }

    #[test]
    fn engine_metric_kind_clash_fails_before_any_slot() {
        let mut cfg = quick_cfg(2, 12);
        cfg.mme_rate_per_us = 0.0;
        let mut strip = PowerStrip::new(cfg);
        let registry = plc_obs::Registry::new();
        // The engine counts `engine.steps`; a timer of that name clashes.
        registry.timer("engine.steps");
        strip.attach_registry(&registry).unwrap();
        let err = strip.run_test_with_breaks(&[], |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("engine.steps"), "{err}");
        assert!(
            counters(&strip, 2).iter().all(|c| c.acked == 0),
            "no slot may run"
        );
    }

    #[test]
    fn counter_wrap_applies_from_the_plan() {
        let mut cfg = quick_cfg(2, 8);
        cfg.faults = Some(
            plc_faults::FaultPlan::builder()
                .seed(8)
                .counter_wrap(100)
                .build(),
        );
        let mut strip = PowerStrip::new(cfg);
        strip.run_test();
        let mut control = PowerStrip::new(quick_cfg(2, 8));
        control.run_test();
        let wrappedc = counters(&strip, 2);
        let clean = counters(&control, 2);
        assert!(clean[0].acked >= 100, "5 s saturated must exceed 100 MPDUs");
        assert_eq!(wrappedc[0].acked, clean[0].acked % 100);
        assert_eq!(wrappedc[0].collided, clean[0].collided % 100);
    }
}
