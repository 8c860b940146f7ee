//! End-to-end tests of the job engine inside one process: partial runs,
//! exact resume, watchdog quarantine, streaming sinks and counters.
//! (Kill-and-resume across real processes lives in `plc-bench`, next to
//! the `experiments` binary it drives.)

use plc_jobs::{
    ChannelSink, Job, JobConfig, JobStatus, Journal, JournalEntry, JsonlFileSink, PointOutcome,
};
use plc_sim::{Simulation, SweepGrid};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plc_jobs_it_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_grid() -> SweepGrid {
    SweepGrid::new(77)
        .config("ca1", Simulation::ieee1901(1).horizon_us(2e5))
        .config("ca3", Simulation::ieee1901(3).horizon_us(2e5))
        .stations([2, 3])
        .replications(2)
        .workers(2)
}

#[test]
fn partial_run_then_resume_is_byte_identical_across_worker_counts() {
    let dir = temp_dir("resume");
    let clean = small_grid().run().to_json();

    // Settle only point 2 first (any subset works), on one worker.
    let mut cfg = JobConfig::new(&dir);
    cfg.points = Some(vec![2]);
    let first = Job::create(small_grid().workers(1), cfg)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(first.executed, 1);
    assert!(!first.is_complete(), "3 of 4 points still unsettled");
    assert!(!dir.join(plc_jobs::RESULTS_FILE_NAME).exists());

    let status = JobStatus::read(&dir).unwrap();
    assert_eq!((status.settled, status.total), (1, 4));
    assert!(!status.complete);
    assert!(status.render().contains("1/4 points settled"));

    // Resume with a different worker count; results must not care.
    let registry = plc_obs::Registry::new();
    let second = Job::resume(small_grid().workers(4), JobConfig::new(&dir))
        .unwrap()
        .registry(&registry)
        .run()
        .unwrap();
    assert_eq!(second.resumed, 1);
    assert_eq!(second.executed, 3);
    let results = second.results.expect("job complete");
    assert_eq!(results.to_json(), clean, "resume must be byte-identical");
    let on_disk = std::fs::read_to_string(dir.join(plc_jobs::RESULTS_FILE_NAME)).unwrap();
    assert_eq!(on_disk, format!("{clean}\n"));

    let snap = registry.snapshot();
    assert_eq!(snap.counter("job.points_resumed"), Some(1));
    assert_eq!(snap.counter("job.points_done"), Some(3));
    assert_eq!(snap.counter("job.points_retried"), Some(0));
    assert_eq!(snap.counter("job.points_quarantined"), Some(0));
    assert_eq!(snap.timer("job.checkpoint_flush").unwrap().count, 3);
    // The registry export landed next to the results.
    assert!(dir.join(plc_jobs::METRICS_FILE_NAME).exists());

    let status = JobStatus::read(&dir).unwrap();
    assert_eq!(status.settled, 4);
    assert!(status.complete);
    assert!(status.render().ends_with("complete"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_create_refuses_an_existing_job_and_resume_refuses_a_stranger() {
    let dir = temp_dir("refuse");
    let job = Job::create(small_grid(), JobConfig::new(&dir)).unwrap();
    drop(job);
    // A second create on the same directory must refuse.
    let err = Job::create(small_grid(), JobConfig::new(&dir)).unwrap_err();
    assert!(err.to_string().contains("already holds a job manifest"));
    // Resuming with a different grid must refuse, naming the mismatch.
    let other = small_grid().replications(5);
    let err = Job::resume(other, JobConfig::new(&dir)).unwrap_err();
    assert!(err.to_string().contains("replication budget"), "{err}");
    // Resuming with execution-policy changes only is fine.
    let mut cfg = JobConfig::new(&dir);
    cfg.retries = 2;
    let report = Job::resume(small_grid().workers(1), cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(report.is_complete());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watchdog_times_out_retries_and_quarantines_a_stuck_point() {
    let dir = temp_dir("watchdog");
    // One pathological point: an enormous horizon that cannot finish
    // inside the watchdog deadline.
    let grid = SweepGrid::new(5)
        .config("stuck", Simulation::ieee1901(1).horizon_us(5e10))
        .stations([20])
        .replications(1)
        .workers(1);
    let mut cfg = JobConfig::new(&dir);
    cfg.timeout = Some(std::time::Duration::from_millis(40));
    cfg.retries = 1;
    cfg.repro_prefix = Some("experiments job run --grid stuck --dir out".into());
    let registry = plc_obs::Registry::new();
    let report = Job::create(grid, cfg)
        .unwrap()
        .registry(&registry)
        .run()
        .unwrap();
    // The point settled badly but the job completed and accounted for it.
    assert!(report.is_complete());
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.point_index, 0);
    assert_eq!(q.config, "stuck");
    assert_eq!(q.n, 20);
    assert_eq!(q.job_attempts, 2, "one retry before quarantine");
    assert!(q.reason.contains("watchdog timeout after 40 ms"));
    assert_eq!(
        q.repro,
        "experiments job run --grid stuck --dir out --points 0"
    );
    // The quarantine ledger persists the same record.
    let ledger = JobStatus::quarantine(&dir).unwrap();
    assert_eq!(ledger, report.quarantined);
    // The assembled results render the timeout as a deterministic
    // failure, so every grid point stays accounted for.
    let results = report.results.unwrap();
    assert_eq!(results.points.len(), 1);
    assert_eq!(
        results.points[0].failure(),
        Some("watchdog timeout after 40 ms")
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("job.points_quarantined"), Some(1));
    assert_eq!(snap.counter("job.points_retried"), Some(1));
    let status = JobStatus::read(&dir).unwrap();
    assert_eq!(status.quarantined, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sinks_stream_every_settled_point_before_completion() {
    let dir = temp_dir("sinks");
    let stream_path = dir.join("stream.jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let (channel, rx) = ChannelSink::new();
    let report = Job::create(small_grid(), JobConfig::new(&dir))
        .unwrap()
        .sink(Box::new(JsonlFileSink::create(&stream_path).unwrap()))
        .sink(Box::new(channel))
        .run()
        .unwrap();
    assert!(report.is_complete());
    // The channel saw all four settlements.
    let mut seen: Vec<usize> = rx.try_iter().map(|e| e.point_index).collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3]);
    // The JSONL stream parses back into the same entries the journal
    // holds (order may differ between collectors? no — same collector
    // feeds both, so order matches the journal exactly).
    let stream = std::fs::read_to_string(&stream_path).unwrap();
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    assert_eq!(stream, journal);
    for line in stream.lines() {
        let entry: plc_jobs::JournalEntry = serde_json::from_str(line).unwrap();
        assert!(matches!(entry.outcome, PointOutcome::Done(_)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stall_hook_fires_without_perturbing_results() {
    let dir = temp_dir("stall");
    let clean = small_grid().run().to_json();
    let mut cfg = JobConfig::new(&dir);
    cfg.stall = Some(plc_faults::JobStall {
        after_points: 2,
        stall_ms: 30,
    });
    let started = std::time::Instant::now();
    let report = Job::create(small_grid(), cfg).unwrap().run().unwrap();
    assert!(started.elapsed() >= std::time::Duration::from_millis(30));
    assert_eq!(report.results.unwrap().to_json(), clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sink that fires a job-level cancel token the moment the first
/// point settles — on one worker the collector runs between points, so
/// exactly one point executes.
struct CancelOnFirst(plc_core::CancelToken);

impl plc_jobs::ResultSink for CancelOnFirst {
    fn on_point(&mut self, _entry: &plc_jobs::JournalEntry) {
        self.0.cancel();
    }
}

#[test]
fn graceful_cancel_keeps_the_journal_and_resume_finishes() {
    let dir = temp_dir("cancel");
    let clean = small_grid().run().to_json();
    let job = Job::create(small_grid().workers(1), JobConfig::new(&dir)).unwrap();
    let token = job.cancel_token();
    let report = job.sink(Box::new(CancelOnFirst(token))).run().unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.executed, 1);
    // Everything journaled survives; resume completes the grid.
    let resumed = Job::resume(small_grid(), JobConfig::new(&dir))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.executed, 3);
    assert_eq!(resumed.results.unwrap().to_json(), clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A template whose engine asserts at construction (an invalid
/// `MacTiming`): a point that panics identically on every attempt.
fn broken_sim() -> Simulation {
    let mut bad = plc_core::timing::MacTiming::paper_default();
    bad.slot = plc_core::units::Microseconds(-1.0);
    Simulation::ieee1901(1).horizon_us(1e5).timing(bad)
}

/// A good config and an always-panicking one: the first half of the
/// points succeeds, the second half fails.
fn grid_with_a_broken_config(stations: &[usize]) -> SweepGrid {
    SweepGrid::new(17)
        .config("good", Simulation::ieee1901(1).horizon_us(1e5))
        .config("bad", broken_sim())
        .stations(stations.iter().copied())
        .replications(2)
        .workers(2)
}

#[test]
fn job_retries_a_panicking_point_then_quarantines_it() {
    let dir = temp_dir("panic");
    let grid = grid_with_a_broken_config(&[2]);
    let mut cfg = JobConfig::new(&dir);
    cfg.retries = 2;
    let registry = plc_obs::Registry::new();
    let report = Job::create(grid.clone(), cfg)
        .unwrap()
        .registry(&registry)
        .run()
        .unwrap();
    // The job is the one retry layer: the bad point ran 1 + 2 times,
    // then settled as a contained failure and was quarantined.
    assert!(report.is_complete());
    assert_eq!(report.retried, 2);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!((q.point_index, q.config.as_str()), (1, "bad"));
    assert_eq!(q.job_attempts, 3, "two retries before quarantine");
    assert!(q.reason.contains("MacTiming"), "reason: {}", q.reason);
    assert_eq!(JobStatus::quarantine(&dir).unwrap(), report.quarantined);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("job.points_retried"), Some(2));
    assert_eq!(snap.counter("job.points_quarantined"), Some(1));
    // Same-seed replays leave no trace in the results: they match a
    // plain sweep of the grid byte for byte, the failure included.
    let on_disk = std::fs::read_to_string(dir.join(plc_jobs::RESULTS_FILE_NAME)).unwrap();
    assert_eq!(on_disk, format!("{}\n", grid.run().to_json()));
    // The manifest records the budget the job ran with.
    assert_eq!(plc_jobs::read_manifest(&dir).unwrap().retries, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_lines_with_a_sweep_attempts_field_resume_byte_identical() {
    // Journals written while sweep points still carried an `attempts`
    // field hold `"attempts":1` inside every point. The format version
    // did not change when the field went, so such a job directory must
    // resume to the bytes of a fresh run.
    let fresh_dir = temp_dir("legacy_fresh");
    let fresh = Job::create(
        grid_with_a_broken_config(&[2, 3]),
        JobConfig::new(&fresh_dir),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(fresh.is_complete());
    let fresh_results =
        std::fs::read_to_string(fresh_dir.join(plc_jobs::RESULTS_FILE_NAME)).unwrap();
    let fresh_journal = std::fs::read_to_string(fresh_dir.join(Journal::FILE_NAME)).unwrap();

    // Points 0 (ok) and 2 (failed) as the older layout wrote them: the
    // field sat between `replications_run` and `summary` of a completed
    // point, and after `reason` of a failed one.
    let mut legacy = String::new();
    for line in fresh_journal.lines() {
        let entry: JournalEntry = serde_json::from_str(line).unwrap();
        let old = match entry.point_index {
            0 => line.replacen(",\"summary\":", ",\"attempts\":1,\"summary\":", 1),
            2 => {
                let head = line
                    .strip_suffix("}}}}")
                    .expect("a failed point closes four objects");
                format!("{head},\"attempts\":1}}}}}}}}")
            }
            _ => continue,
        };
        assert_ne!(old, line);
        assert!(old.contains("\"attempts\":1"), "{old}");
        let back: JournalEntry = serde_json::from_str(&old).unwrap();
        assert_eq!(back, entry, "the extra field is ignored on load");
        legacy.push_str(&old);
        legacy.push('\n');
    }

    let dir = temp_dir("legacy_resume");
    drop(Job::create(grid_with_a_broken_config(&[2, 3]), JobConfig::new(&dir)).unwrap());
    std::fs::write(dir.join(Journal::FILE_NAME), legacy).unwrap();
    let resumed = Job::resume(
        grid_with_a_broken_config(&[2, 3]).workers(1),
        JobConfig::new(&dir),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!((resumed.resumed, resumed.executed), (2, 2));
    let results = std::fs::read_to_string(dir.join(plc_jobs::RESULTS_FILE_NAME)).unwrap();
    assert_eq!(results, fresh_results);
    std::fs::remove_dir_all(&fresh_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
