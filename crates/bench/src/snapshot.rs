//! Perf-trajectory snapshots: `BENCH_<date>.json`.
//!
//! The `experiments bench-snapshot` subcommand times a small set of
//! pinned engine workloads (wall-clock and engine slots per second, the
//! slot count read back from the [`plc_obs::Registry`] the engines are
//! instrumented with) and writes the result as a dated JSON file. The
//! committed files form a perf trajectory across PRs; `--check` reruns
//! the workloads at a reduced horizon and validates the schema without
//! touching the working tree.
//!
//! Wall-clock numbers depend on the host, so snapshots record throughput
//! for trend-reading by humans — they are deliberately *not* asserted
//! against by tests (the criterion benches in `benches/` are the
//! statistically careful tool).

use plc_core::error::{Error, Result};
use plc_obs::Registry;
use plc_sim::sweep;
use plc_sim::{Simulation, Topology};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema identifier embedded in every snapshot file.
pub const SCHEMA: &str = "plc-bench-snapshot/v1";

/// One timed workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name (stable across PRs — the trajectory key).
    pub name: String,
    /// Wall-clock seconds for the whole workload.
    pub wall_secs: f64,
    /// Units of work done: engine slots stepped (`engine.steps`) for
    /// slotted workloads, stations solved (`meanfield.stations`) for the
    /// mean-field backend workload.
    pub slots: u64,
    /// Slots per wall-clock second.
    pub slots_per_sec: f64,
}

/// A dated collection of workload timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Civil date (UTC) the snapshot was taken, `YYYY-MM-DD`.
    pub date: String,
    /// The pinned workloads, in a fixed order.
    pub workloads: Vec<WorkloadResult>,
}

impl BenchSnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::runtime(format!("snapshot encode: {e}")))
    }

    /// Parse a snapshot back from JSON, verifying the schema tag.
    pub fn from_json(json: &str) -> Result<Self> {
        let snap: BenchSnapshot = serde_json::from_str(json)
            .map_err(|e| Error::runtime(format!("snapshot decode: {e}")))?;
        if snap.schema != SCHEMA {
            return Err(Error::runtime(format!(
                "snapshot schema mismatch: expected {SCHEMA:?}, got {:?}",
                snap.schema
            )));
        }
        Ok(snap)
    }

    /// The file name this snapshot belongs in.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }
}

/// Today's civil date (UTC) as `YYYY-MM-DD`, from the system clock.
///
/// Uses the days-from-epoch civil-calendar algorithm so no date crate is
/// needed.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Convert days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Time one closure that runs instrumented engines against `registry`,
/// reading the work count back from the named counter's delta
/// (`engine.steps` for slotted workloads, `meanfield.stations` for the
/// analytic backend, whose unit of work is stations solved, not slots
/// stepped).
fn time_workload(
    name: &str,
    registry: &Registry,
    counter_name: &str,
    f: impl FnOnce(),
) -> WorkloadResult {
    let counter = registry.counter(counter_name);
    let before = counter.get();
    let started = Instant::now();
    f();
    let wall_secs = started.elapsed().as_secs_f64();
    let slots = counter.get() - before;
    WorkloadResult {
        name: name.to_string(),
        wall_secs,
        slots,
        slots_per_sec: if wall_secs > 0.0 {
            slots as f64 / wall_secs
        } else {
            0.0
        },
    }
}

/// Run the pinned workloads. `scale` multiplies every horizon (1.0 for a
/// real snapshot, smaller for `--check`).
pub fn collect(scale: f64) -> Result<BenchSnapshot> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Error::runtime(format!("invalid horizon scale {scale}")));
    }
    let h = |us: f64| us * scale;
    let registry = Registry::new();
    let mut workloads = Vec::new();

    workloads.push(time_workload(
        "engine_1901_n5_500s",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(5)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    workloads.push(time_workload(
        "engine_1901_n20_500s",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(20)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    workloads.push(time_workload(
        "engine_dcf_n10_500s",
        &registry,
        "engine.steps",
        || {
            Simulation::dcf(10)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    workloads.push(time_workload(
        "engine_noisy_n3_500s",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(3)
                .pb_error_prob(0.1)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    // A parallel sweep: 8 independent runs on the worker pool; the shared
    // registry accumulates engine.steps across workers.
    workloads.push(time_workload(
        "sweep_1901_n2to9_250s",
        &registry,
        "engine.steps",
        || {
            sweep::parallel_map(sweep::default_workers(), (2..=9usize).collect(), |_, n| {
                Simulation::ieee1901(n)
                    .horizon_us(h(2.5e8))
                    .seed(n as u64)
                    .registry(&registry)
                    .run()
            });
        },
    ));
    // Saturated N=50: the deepest-backoff workload, where the idle-slot
    // fast-forward matters most. Gated in CI against the committed
    // baseline (see `compare`).
    workloads.push(time_workload(
        "engine_1901_n50_sat_500s",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(50)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    // Fleet-scale saturated populations: the medium is busy almost every
    // slot, so these exercise the SoA busy-slot sweep rather than the
    // idle fast-forward.
    workloads.push(time_workload(
        "engine_1901_n200_sat",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(200)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    workloads.push(time_workload(
        "engine_1901_n500_sat",
        &registry,
        "engine.steps",
        || {
            Simulation::ieee1901(500)
                .horizon_us(h(5.0e8))
                .seed(1)
                .registry(&registry)
                .run();
        },
    ));
    // Ten isolated 50-station cells spread over the batch pool. Each
    // cell spans 49 m (inside sense range), cells sit 500 m apart
    // (isolated), so every component takes the legacy fast path — this
    // times the multi-domain scheduling/merge overhead, not a new inner
    // loop. Counter is still engine slots: the per-cell engines are
    // instrumented into the same registry.
    workloads.push(time_workload(
        "multidomain_10x50_sat",
        &registry,
        "engine.steps",
        || {
            let mut b = Topology::builder();
            for c in 0..10 {
                let cell: Vec<(f64, f64)> = (0..50)
                    .map(|i| (c as f64 * 500.0 + i as f64, 0.0))
                    .collect();
                b = b.cell(&cell);
            }
            let topo = b.build().expect("snapshot topology must build");
            Simulation::ieee1901(500)
                .topology(topo)
                .horizon_us(h(5.0e8))
                .seed(1)
                .domain_workers(sweep::default_workers())
                .registry(&registry)
                .try_run_topology()
                .expect("multi-domain snapshot workload must run");
        },
    ));
    // The saturated N≈50 sweep path run through the journaled job
    // engine: same cells as a plain `SweepGrid::run`, plus the manifest,
    // per-point journal flushes and the atomic results write. The
    // trajectory shows what crash-tolerance costs end to end; the CI
    // gate (`--job-overhead`, see [`job_overhead`]) asserts the paired
    // plain-vs-job ratio.
    workloads.push(time_workload(
        "job_resume_overhead",
        &registry,
        "engine.steps",
        || {
            let dir =
                std::env::temp_dir().join(format!("plc_bench_job_snapshot_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            plc_jobs::Job::create(
                job_overhead_grid(scale, Some(&registry)),
                plc_jobs::JobConfig::new(&dir),
            )
            .expect("job snapshot workload must create")
            .run()
            .expect("job snapshot workload must run");
            let _ = std::fs::remove_dir_all(&dir);
        },
    ));
    // The boost optimizer's screening rung: the full default candidate
    // space pushed through the mean-field fixed point + delay DTMC at
    // every default-portfolio operating point. This is the cost of
    // "admission" into the expensive slotted rungs, so a regression
    // here multiplies directly into boosting-run latency. Unit of work
    // is distinct fixed-point solves (`boost.evals`, 220 per round),
    // run on the machine's default worker pool; `scale` shrinks the
    // round count, not the per-solve cost.
    workloads.push(time_workload(
        "boost_rung_screen",
        &registry,
        "boost.evals",
        || {
            let space = plc_boost::SearchSpace::default_space();
            let portfolio = plc_boost::Portfolio::default_portfolio();
            let timing = plc_core::timing::MacTiming::paper_default();
            let rounds = ((5.0 * scale).ceil() as usize).max(1);
            for _ in 0..rounds {
                plc_boost::screen_space(&space, &portfolio, &timing, Some(&registry))
                    .expect("boost screen workload must solve");
            }
        },
    ));
    // The mean-field backend at fleet scale: many 10k-station contention
    // domains solved on the batch pool. Unit of work is stations solved
    // (`meanfield.stations`), not engine slots — the analytic backend
    // steps none. `scale` shrinks the domain count instead of the
    // horizon, which the solve cost does not depend on.
    workloads.push(time_workload(
        "meanfield_n10k",
        &registry,
        "meanfield.stations",
        || {
            let domains = ((100.0 * scale).ceil() as usize).max(1);
            let sims: Vec<Simulation> = (0..domains)
                .map(|_| {
                    Simulation::ieee1901(10_000)
                        .backend(plc_sim::Backend::MeanField)
                        .horizon_us(1.0e8)
                })
                .collect();
            plc_sim::BatchRunner::new()
                .registry(&registry)
                .run_sims(sims);
        },
    ));

    Ok(BenchSnapshot {
        schema: SCHEMA.to_string(),
        date: today_utc(),
        workloads,
    })
}

/// The ten-point saturated-N≈50 sweep both sides of the job-overhead
/// gate run: one replication per point keeps every cell on the deep
/// backoff path the `engine_1901_n50_sat_500s` workload pins.
fn job_overhead_grid(scale: f64, registry: Option<&Registry>) -> plc_sim::SweepGrid {
    let mut template = Simulation::ieee1901(1).horizon_us(5.0e8 * scale);
    if let Some(r) = registry {
        template = template.registry(r);
    }
    plc_sim::SweepGrid::new(4243)
        .config("ca1_sat", template)
        .stations(41..=50)
        .replications(1)
        .workers(1)
}

/// Result of the paired plain-vs-journaled timing behind the
/// `bench-snapshot --job-overhead` CI gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOverhead {
    /// Best-of-`rounds` wall seconds for the plain [`SweepGrid`] run.
    pub plain_secs: f64,
    /// Best-of-`rounds` wall seconds for the same grid under
    /// [`plc_jobs::Job`] (manifest + journal + atomic results).
    pub job_secs: f64,
    /// `job_secs / plain_secs` — the gate fails when this exceeds
    /// `1 + tolerance`.
    pub ratio: f64,
}

/// Time the `job_resume_overhead` grid both plain and journaled,
/// best-of-`rounds` each, interleaved so drift hits both sides alike.
/// Also asserts the job's `results.json` payload is byte-identical to
/// the plain sweep every round — the overhead gate doubles as a
/// determinism check.
pub fn job_overhead(scale: f64, rounds: usize) -> Result<JobOverhead> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Error::runtime(format!("invalid horizon scale {scale}")));
    }
    let rounds = rounds.max(1);
    let mut plain_secs = f64::INFINITY;
    let mut job_secs = f64::INFINITY;
    let mut plain_json: Option<String> = None;
    for round in 0..rounds {
        let started = Instant::now();
        let results = job_overhead_grid(scale, None).run();
        plain_secs = plain_secs.min(started.elapsed().as_secs_f64());
        let json = results.to_json();
        if plain_json.get_or_insert_with(|| json.clone()) != &json {
            return Err(Error::runtime("plain sweep varied across rounds"));
        }

        let dir = std::env::temp_dir().join(format!(
            "plc_bench_job_overhead_{}_{round}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let report = plc_jobs::Job::create(
            job_overhead_grid(scale, None),
            plc_jobs::JobConfig::new(&dir),
        )?
        .run()?;
        job_secs = job_secs.min(started.elapsed().as_secs_f64());
        let job_json = report
            .results
            .ok_or_else(|| Error::runtime("job-overhead job did not complete"))?
            .to_json();
        let _ = std::fs::remove_dir_all(&dir);
        if Some(&job_json) != plain_json.as_ref() {
            return Err(Error::runtime(
                "journaled job diverged from the plain sweep",
            ));
        }
    }
    Ok(JobOverhead {
        plain_secs,
        job_secs,
        ratio: job_secs / plain_secs,
    })
}

/// Validate a freshly collected snapshot: every workload must have run
/// slots and the JSON must round-trip. Used by `bench-snapshot --check`.
pub fn check(snap: &BenchSnapshot) -> Result<()> {
    if snap.workloads.is_empty() {
        return Err(Error::runtime("snapshot has no workloads"));
    }
    for w in &snap.workloads {
        if w.slots == 0 {
            return Err(Error::runtime(format!("workload {:?} ran 0 slots", w.name)));
        }
        if !(w.wall_secs.is_finite() && w.wall_secs >= 0.0) {
            return Err(Error::runtime(format!(
                "workload {:?} has invalid wall time {}",
                w.name, w.wall_secs
            )));
        }
    }
    let round = BenchSnapshot::from_json(&snap.to_json()?)?;
    if round != *snap {
        return Err(Error::runtime("snapshot JSON does not round-trip"));
    }
    Ok(())
}

/// Regression gate: compare a fresh snapshot against a committed
/// baseline, failing if any workload present in both regressed by more
/// than `tolerance` (e.g. `0.15` = a 15% slots/sec drop fails).
///
/// Workloads are matched by name; ones only present on one side are
/// ignored (new workloads have no baseline yet, retired ones no current
/// number). Improvements never fail the gate.
pub fn compare(current: &BenchSnapshot, baseline: &BenchSnapshot, tolerance: f64) -> Result<()> {
    if !(tolerance.is_finite() && (0.0..1.0).contains(&tolerance)) {
        return Err(Error::runtime(format!(
            "tolerance must be in [0, 1), got {tolerance}"
        )));
    }
    let mut regressions = Vec::new();
    let mut matched = 0usize;
    for base in &baseline.workloads {
        let Some(cur) = current.workloads.iter().find(|w| w.name == base.name) else {
            continue;
        };
        matched += 1;
        if base.slots_per_sec <= 0.0 {
            continue;
        }
        let ratio = cur.slots_per_sec / base.slots_per_sec;
        if ratio < 1.0 - tolerance {
            regressions.push(format!(
                "{}: {:.3e} slots/s vs baseline {:.3e} ({:.1}%)",
                base.name,
                cur.slots_per_sec,
                base.slots_per_sec,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    if matched == 0 {
        return Err(Error::runtime(
            "no workloads in common between snapshot and baseline",
        ));
    }
    if !regressions.is_empty() {
        return Err(Error::runtime(format!(
            "perf regression beyond {:.0}% tolerance: {}",
            tolerance * 100.0,
            regressions.join("; ")
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // 2024-01-01
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        // Leap day.
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
    }

    #[test]
    fn today_is_well_formed() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn collect_and_check_roundtrip() {
        // Tiny horizons: this is a schema/plumbing test, not a benchmark.
        let snap = collect(2.0e-5).unwrap();
        assert_eq!(snap.workloads.len(), 12);
        check(&snap).unwrap();
        let parsed = BenchSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(parsed, snap);
        assert!(parsed.file_name().starts_with("BENCH_"));
    }

    #[test]
    fn job_overhead_pairs_plain_and_journaled_runs() {
        // Tiny horizon: exercises the pairing + byte-identity check, not
        // the timing itself (CI runs it at gate scale).
        let o = job_overhead(2.0e-5, 1).unwrap();
        assert!(o.plain_secs.is_finite() && o.plain_secs > 0.0);
        assert!(o.job_secs.is_finite() && o.job_secs > 0.0);
        assert!(o.ratio > 0.0);
        assert!(job_overhead(f64::NAN, 1).is_err());
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let bad = r#"{"schema":"other/v9","date":"2026-01-01","workloads":[]}"#;
        assert!(BenchSnapshot::from_json(bad).is_err());
    }

    fn snap_with(workloads: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            schema: SCHEMA.to_string(),
            date: "2026-01-01".to_string(),
            workloads: workloads
                .iter()
                .map(|&(name, sps)| WorkloadResult {
                    name: name.to_string(),
                    wall_secs: 1.0,
                    slots: sps as u64,
                    slots_per_sec: sps,
                })
                .collect(),
        }
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = snap_with(&[("a", 1.0e6), ("b", 2.0e6)]);
        let cur = snap_with(&[("a", 0.9e6), ("b", 2.5e6)]);
        compare(&cur, &base, 0.15).unwrap();
    }

    #[test]
    fn compare_fails_on_regression() {
        let base = snap_with(&[("a", 1.0e6)]);
        let cur = snap_with(&[("a", 0.5e6)]);
        let err = compare(&cur, &base, 0.15).unwrap_err().to_string();
        assert!(err.contains("regression"), "{err}");
        assert!(err.contains('a'), "{err}");
    }

    #[test]
    fn compare_ignores_unmatched_workloads() {
        // A brand-new workload has no baseline; a retired one no current
        // number. Neither may trip the gate.
        let base = snap_with(&[("a", 1.0e6), ("retired", 9.9e6)]);
        let cur = snap_with(&[("a", 1.0e6), ("brand_new", 0.1e6)]);
        compare(&cur, &base, 0.15).unwrap();
    }

    #[test]
    fn compare_rejects_disjoint_snapshots() {
        let base = snap_with(&[("a", 1.0e6)]);
        let cur = snap_with(&[("b", 1.0e6)]);
        assert!(compare(&cur, &base, 0.15).is_err());
    }

    #[test]
    fn compare_rejects_bad_tolerance() {
        let s = snap_with(&[("a", 1.0e6)]);
        assert!(compare(&s, &s, 1.0).is_err());
        assert!(compare(&s, &s, -0.1).is_err());
        compare(&s, &s, 0.0).unwrap();
    }
}
