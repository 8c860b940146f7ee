//! The job engine: checkpointed, resumable execution of a [`SweepGrid`].
//!
//! A *job* is a sweep bound to a directory. The directory is the whole
//! contract:
//!
//! | file              | contents                                         |
//! |-------------------|--------------------------------------------------|
//! | `manifest.json`   | versioned grid fingerprint + execution record    |
//! | `journal.jsonl`   | one flushed JSON line per settled point          |
//! | `quarantine.jsonl`| bad settlements with ready-to-run repro commands |
//! | `results.json`    | the assembled [`SweepResults`], written atomically on completion |
//! | `metrics.json`    | registry snapshot (when a registry is attached)  |
//!
//! Because every point is a pure function of `(master_seed,
//! point_index)` — [`SweepGrid::run_point_at`] is pinned byte-identical
//! to the whole-grid fan-out — a job that is killed at *any* instant and
//! resumed (with any worker count) produces a `results.json`
//! byte-identical to an uninterrupted run.

use crate::journal::{
    append_quarantine, load_quarantine, Journal, JournalEntry, PointOutcome, QuarantineRecord,
};
use crate::manifest::JobManifest;
use crate::sink::ResultSink;
use crate::watchdog::Watchdog;
use plc_core::{CancelToken, Error, Result};
use plc_faults::JobStall;
use plc_sim::sweep::{SweepGrid, SweepResults};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File name of the manifest inside a job directory.
pub const MANIFEST_FILE_NAME: &str = "manifest.json";
/// File name of the assembled results inside a job directory.
pub const RESULTS_FILE_NAME: &str = "results.json";
/// File name of the registry export inside a job directory.
pub const METRICS_FILE_NAME: &str = "metrics.json";

/// Execution policy of one job (everything that may differ between a
/// run and its resume without breaking byte-identity).
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The job directory (created if absent).
    pub dir: PathBuf,
    /// Job-level re-settle budget per point: a point that times out or
    /// fails is replayed (same derived seeds) up to this many extra
    /// times before it is quarantined. Default 0.
    pub retries: u32,
    /// Per-point watchdog deadline; `None` (default) arms no watchdog
    /// and installs no cancel token, so points run the engine's plain
    /// loop and cost nothing extra.
    pub timeout: Option<Duration>,
    /// Name under which a front end can rebuild the grid on resume.
    pub grid_name: Option<String>,
    /// Only settle these point indices (repro / partial runs). The job
    /// completes — and writes `results.json` — only once *every* grid
    /// point is settled in the journal.
    pub points: Option<Vec<usize>>,
    /// Chaos hook: stall the checkpoint hook after the n-th point
    /// journaled by this process (kill-window injection for crash
    /// tests).
    pub stall: Option<JobStall>,
    /// Command prefix for quarantine repro lines, e.g.
    /// `experiments job run --grid chaos-smoke --dir out`.
    pub repro_prefix: Option<String>,
}

impl JobConfig {
    /// Policy with every knob at its default for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JobConfig {
            dir: dir.into(),
            retries: 0,
            timeout: None,
            grid_name: None,
            points: None,
            stall: None,
            repro_prefix: None,
        }
    }
}

/// What one [`Job::run`] did.
#[derive(Debug)]
pub struct JobReport {
    /// The assembled sweep — `Some` only when every grid point is
    /// settled (then also on disk as `results.json`).
    pub results: Option<SweepResults>,
    /// Points settled by this process.
    pub executed: usize,
    /// Points skipped because the journal already held them.
    pub resumed: usize,
    /// Extra attempts consumed by job-level retries.
    pub retried: u64,
    /// Points this run quarantined.
    pub quarantined: Vec<QuarantineRecord>,
}

impl JobReport {
    /// Whether the job is fully settled.
    pub fn is_complete(&self) -> bool {
        self.results.is_some()
    }
}

/// Read the manifest of the job under `dir`.
pub fn read_manifest(dir: &Path) -> Result<JobManifest> {
    let path = dir.join(MANIFEST_FILE_NAME);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::runtime(format!("no job manifest at {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| Error::runtime(format!("corrupt job manifest at {}: {e}", path.display())))
}

/// Atomically write `manifest` as the manifest of the job under `dir`.
fn write_manifest(dir: &Path, manifest: &JobManifest) -> Result<()> {
    let mut doc = serde_json::to_string(manifest).expect("manifest serializes");
    doc.push('\n');
    plc_core::fs::atomic_write(dir.join(MANIFEST_FILE_NAME), doc.as_bytes())?;
    Ok(())
}

/// A checkpointed sweep job bound to a directory.
pub struct Job {
    grid: SweepGrid,
    cfg: JobConfig,
    manifest: JobManifest,
    settled: BTreeMap<usize, JournalEntry>,
    resumed: usize,
    sinks: Vec<Box<dyn ResultSink>>,
    registry: Option<plc_obs::Registry>,
    cancel: CancelToken,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("dir", &self.cfg.dir)
            .field("grid", &self.grid)
            .field("settled", &self.settled.len())
            .field("resumed", &self.resumed)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Job {
    /// Start a fresh job: create the directory and atomically write the
    /// manifest. Refuses a directory that already holds a manifest —
    /// that is what [`resume`](Job::resume) is for.
    pub fn create(grid: SweepGrid, cfg: JobConfig) -> Result<Job> {
        if grid.num_points() == 0 {
            return Err(Error::invalid_config(
                "job grid has no points (no configs or no station counts)",
            ));
        }
        std::fs::create_dir_all(&cfg.dir)?;
        let manifest_path = cfg.dir.join(MANIFEST_FILE_NAME);
        if manifest_path.exists() {
            return Err(Error::invalid_config(format!(
                "{} already holds a job manifest; resume it or pick a fresh directory",
                cfg.dir.display()
            )));
        }
        let manifest = JobManifest::from_grid(&grid, &cfg);
        write_manifest(&cfg.dir, &manifest)?;
        Ok(Job {
            grid,
            cfg,
            manifest,
            settled: BTreeMap::new(),
            resumed: 0,
            sinks: Vec::new(),
            registry: None,
            cancel: CancelToken::new(),
        })
    }

    /// Resume the job under `cfg.dir`: validate the on-disk manifest
    /// against `grid`, load the journal (dropping a torn tail), compact
    /// it, and skip every settled point. A mismatching grid is refused
    /// — a journal is never merged across sweeps.
    ///
    /// A resume under a different execution policy (`retries`,
    /// `timeout`) rewrites the manifest's record of it, atomically and
    /// before any point runs, so the directory says how its remaining
    /// points settle. Under the same policy the file is left untouched.
    pub fn resume(grid: SweepGrid, cfg: JobConfig) -> Result<Job> {
        let mut manifest = read_manifest(&cfg.dir)?;
        let rebuilt = JobManifest::from_grid(&grid, &cfg);
        if let Some(why) = manifest.mismatch(&rebuilt) {
            return Err(Error::invalid_config(format!(
                "cannot resume {}: {}",
                cfg.dir.display(),
                why
            )));
        }
        if (manifest.retries, manifest.timeout_ms) != (rebuilt.retries, rebuilt.timeout_ms) {
            manifest.retries = rebuilt.retries;
            manifest.timeout_ms = rebuilt.timeout_ms;
            write_manifest(&cfg.dir, &manifest)?;
        }
        let mut settled = BTreeMap::new();
        for entry in Journal::load(&cfg.dir)? {
            if entry.point_index < grid.num_points() {
                settled.insert(entry.point_index, entry);
            }
        }
        let clean: Vec<JournalEntry> = settled.values().cloned().collect();
        Journal::compact(&cfg.dir, &clean)?;
        let resumed = settled.len();
        Ok(Job {
            grid,
            cfg,
            manifest,
            settled,
            resumed,
            sinks: Vec::new(),
            registry: None,
            cancel: CancelToken::new(),
        })
    }

    /// [`create`](Job::create) when `cfg.dir` holds no manifest,
    /// [`resume`](Job::resume) otherwise.
    pub fn create_or_resume(grid: SweepGrid, cfg: JobConfig) -> Result<Job> {
        if cfg.dir.join(MANIFEST_FILE_NAME).exists() {
            Job::resume(grid, cfg)
        } else {
            Job::create(grid, cfg)
        }
    }

    /// Attach a streaming sink (repeatable). Sinks observe settled
    /// points after their journal line is durable; they cannot perturb
    /// results.
    pub fn sink(mut self, sink: Box<dyn ResultSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Record job instrumentation into `registry`: the
    /// `job.points_done` / `job.points_retried` / `job.points_quarantined`
    /// / `job.points_resumed` counters and the `job.checkpoint_flush`
    /// span timer. The registry is also exported to `metrics.json` when
    /// the job completes.
    pub fn registry(mut self, registry: &plc_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// The job's manifest.
    pub fn manifest(&self) -> &JobManifest {
        &self.manifest
    }

    /// Points already settled in the journal.
    pub fn settled_points(&self) -> usize {
        self.settled.len()
    }

    /// A token that gracefully stops the run between points: settled
    /// work stays journaled, and a later [`resume`](Job::resume)
    /// finishes the rest.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Execute every unsettled point, journaling each as it lands.
    ///
    /// Points are evaluated on the grid's worker pool; the journal, the
    /// sinks and the quarantine ledger are all fed from the collector
    /// thread, in completion order. When the last point settles, the
    /// assembled [`SweepResults`] is written atomically to
    /// `results.json` and every sink's
    /// [`on_complete`](ResultSink::on_complete) fires.
    ///
    /// This is the one-job case of the pass a
    /// [`JobGroup`](crate::JobGroup) runs over all its members.
    pub fn run(self) -> Result<JobReport> {
        let cancel = self.cancel.clone();
        let mut reports = run_jobs(vec![self], &cancel)?;
        Ok(reports.pop().expect("one job, one report"))
    }
}

/// The `job.*` instruments of one job's registry.
struct Counters {
    done: Option<plc_obs::Counter>,
    retried: Option<plc_obs::Counter>,
    quarantined: Option<plc_obs::Counter>,
    flush: Option<plc_obs::SpanTimer>,
}

/// What the collector thread owns of one job during a pass: everything
/// the pass writes, apart from the grid and policy the workers read.
struct Ledger {
    journal: Journal,
    settled: BTreeMap<usize, JournalEntry>,
    sinks: Vec<Box<dyn ResultSink>>,
    registry: Option<plc_obs::Registry>,
    counters: Counters,
    resumed: usize,
    executed: usize,
    retried: u64,
    quarantined: Vec<QuarantineRecord>,
    results: Option<SweepResults>,
    /// The first I/O error; the job journals nothing after it and is
    /// never completed by this pass.
    error: Option<std::io::Error>,
}

impl Ledger {
    /// Record one settled point: journal it, count it, quarantine it if
    /// it settled badly, then show it to the sinks.
    fn settle(&mut self, grid: &SweepGrid, cfg: &JobConfig, entry: &JournalEntry) {
        {
            let _span = self.counters.flush.as_ref().map(|t| t.start());
            if self.error.is_none() {
                if let Err(e) = self.journal.append(entry) {
                    self.error = Some(e);
                }
            }
        }
        self.executed += 1;
        self.retried += u64::from(entry.job_attempts - 1);
        if let Some(c) = &self.counters.done {
            c.inc();
        }
        if let Some(c) = &self.counters.retried {
            c.add(u64::from(entry.job_attempts - 1));
        }
        if !entry.outcome.is_ok() {
            let record = quarantine_record(grid, cfg, entry);
            if self.error.is_none() {
                if let Err(e) = append_quarantine(&cfg.dir, &record) {
                    self.error = Some(e);
                }
            }
            if let Some(c) = &self.counters.quarantined {
                c.inc();
            }
            self.quarantined.push(record);
        }
        for sink in self.sinks.iter_mut() {
            sink.on_point(entry);
        }
        self.settled.insert(entry.point_index, entry.clone());
        if let Some(stall) = cfg.stall {
            if stall.fires_at(self.executed) {
                std::thread::sleep(Duration::from_millis(stall.stall_ms));
            }
        }
    }

    /// Once every grid point is settled (and nothing failed), write
    /// `results.json` and `metrics.json` and fire the sinks'
    /// [`on_complete`](ResultSink::on_complete).
    fn complete_if_settled(&mut self, grid: &SweepGrid, cfg: &JobConfig) {
        if self.error.is_some() || self.settled.len() != grid.num_points() {
            return;
        }
        let results = SweepResults {
            master_seed: grid.master_seed(),
            replications: grid.replication_budget(),
            points: self
                .settled
                .values()
                .map(|e| e.outcome.to_point_result())
                .collect(),
        };
        let mut doc = results.to_json();
        doc.push('\n');
        if let Err(e) = plc_core::fs::atomic_write(cfg.dir.join(RESULTS_FILE_NAME), doc.as_bytes())
        {
            self.error = Some(e);
            return;
        }
        for sink in self.sinks.iter_mut() {
            sink.on_complete(&results);
        }
        if let Some(registry) = &self.registry {
            if let Err(e) = registry.write_json_atomic(cfg.dir.join(METRICS_FILE_NAME)) {
                self.error = Some(e);
                return;
            }
        }
        self.results = Some(results);
    }
}

/// Run every unsettled point of `jobs` in one
/// [`BatchRunner`](plc_sim::BatchRunner) pass over the (job, point)
/// list, in job order, on the largest worker count any job's grid asks
/// for; each worker takes the next point from the pass's shared queue.
/// `cancel` stops the pass between points.
///
/// The collector appends each settled point to its own job's journal,
/// and completes a job (results, metrics, sinks) as soon as its last
/// point lands, while the workers carry on with the others. Returns one
/// report per job, in job order, or the first job's I/O error.
pub(crate) fn run_jobs(jobs: Vec<Job>, cancel: &CancelToken) -> Result<Vec<JobReport>> {
    let workers = jobs.iter().map(|j| j.grid.num_workers()).max().unwrap_or(1);
    let mut plans = Vec::with_capacity(jobs.len());
    let mut ledgers = Vec::with_capacity(jobs.len());
    let mut todo: Vec<(usize, usize)> = Vec::new();
    for (j, job) in jobs.into_iter().enumerate() {
        let registry = job.registry.as_ref();
        let counters = Counters {
            done: registry.and_then(|r| r.try_counter("job.points_done").ok()),
            retried: registry.and_then(|r| r.try_counter("job.points_retried").ok()),
            quarantined: registry.and_then(|r| r.try_counter("job.points_quarantined").ok()),
            flush: registry.and_then(|r| r.try_timer("job.checkpoint_flush").ok()),
        };
        if let Some(c) = registry.and_then(|r| r.try_counter("job.points_resumed").ok()) {
            c.add(job.resumed as u64);
        }
        todo.extend(
            (0..job.grid.num_points())
                .filter(|idx| !job.settled.contains_key(idx))
                .filter(|idx| {
                    job.cfg
                        .points
                        .as_ref()
                        .is_none_or(|only| only.contains(idx))
                })
                .map(|idx| (j, idx)),
        );
        let mut ledger = Ledger {
            journal: Journal::open_append(&job.cfg.dir)?,
            settled: job.settled,
            sinks: job.sinks,
            registry: job.registry,
            counters,
            resumed: job.resumed,
            executed: 0,
            retried: 0,
            quarantined: Vec::new(),
            results: None,
            error: None,
        };
        // A job settled entirely by earlier runs completes right away.
        ledger.complete_if_settled(&job.grid, &job.cfg);
        plans.push((job.grid, job.cfg));
        ledgers.push(ledger);
    }

    let plans = &plans;
    let outcomes = plc_sim::BatchRunner::new()
        .workers(workers)
        .run_cancellable(
            cancel,
            todo,
            |_, (j, idx), _| {
                let (grid, cfg) = &plans[j];
                (j, settle_point(grid, cfg, idx))
            },
            |_, (j, entry): &(usize, JournalEntry)| {
                let (grid, cfg) = &plans[*j];
                let ledger = &mut ledgers[*j];
                ledger.settle(grid, cfg, entry);
                ledger.complete_if_settled(grid, cfg);
            },
        );
    drop(outcomes);

    let mut reports = Vec::with_capacity(ledgers.len());
    for ledger in ledgers {
        if let Some(e) = ledger.error {
            return Err(e.into());
        }
        reports.push(JobReport {
            results: ledger.results,
            executed: ledger.executed,
            resumed: ledger.resumed,
            retried: ledger.retried,
            quarantined: ledger.quarantined,
        });
    }
    Ok(reports)
}

/// Settle one point on a worker thread: run it under an optional
/// watchdog, replaying bad settlements until the job-level retry budget
/// is exhausted. Replays use the same derived seeds, so a retry that
/// recovers is byte-identical to a first-try success.
fn settle_point(grid: &SweepGrid, cfg: &JobConfig, idx: usize) -> JournalEntry {
    let run = |token: Option<&CancelToken>| {
        grid.run_point_with(idx, token)
            .expect("job schedules only in-range points")
    };
    let mut attempts: u32 = 1;
    loop {
        let outcome = match cfg.timeout {
            // No deadline, no token: the engine takes its plain run loop
            // and the point's template is not cloned.
            None => PointOutcome::Done(run(None)),
            Some(timeout) => {
                let token = CancelToken::new();
                let watchdog = Watchdog::arm(timeout, token.clone());
                let result = run(Some(&token));
                watchdog.disarm();
                if token.is_cancelled() {
                    // Partial metrics from a cancelled engine are not data.
                    let (config, n) = grid.point_spec(idx).expect("in-range point has a spec");
                    PointOutcome::TimedOut {
                        config: config.to_string(),
                        n,
                        point_index: idx,
                        timeout_ms: timeout.as_millis() as u64,
                    }
                } else {
                    PointOutcome::Done(result)
                }
            }
        };
        if !outcome.is_ok() && attempts <= cfg.retries {
            attempts += 1;
            continue;
        }
        return JournalEntry {
            point_index: idx,
            job_attempts: attempts,
            outcome,
        };
    }
}

/// Render the quarantine record for a badly settled point.
fn quarantine_record(grid: &SweepGrid, cfg: &JobConfig, entry: &JournalEntry) -> QuarantineRecord {
    let (config, n) = grid
        .point_spec(entry.point_index)
        .map(|(c, n)| (c.to_string(), n))
        .unwrap_or_default();
    let reason = match &entry.outcome {
        PointOutcome::Done(r) => r.failure().unwrap_or("unknown failure").to_string(),
        PointOutcome::TimedOut { timeout_ms, .. } => {
            format!("watchdog timeout after {timeout_ms} ms")
        }
    };
    let repro = match &cfg.repro_prefix {
        Some(prefix) => format!("{prefix} --points {}", entry.point_index),
        None => format!(
            "re-run this job with `points = [{}]` in its JobConfig",
            entry.point_index
        ),
    };
    QuarantineRecord {
        point_index: entry.point_index,
        config,
        n,
        job_attempts: entry.job_attempts,
        reason,
        repro,
    }
}

/// Progress of a job directory, derived from the manifest and journal
/// alone — readable while the job runs, after a crash, or from another
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job's manifest.
    pub manifest: JobManifest,
    /// Points settled in the journal.
    pub settled: usize,
    /// Settled points with a usable summary.
    pub ok: usize,
    /// Settled points quarantined (failed or timed out).
    pub quarantined: usize,
    /// Grid points in total.
    pub total: usize,
    /// Whether `results.json` exists (the job ran to completion).
    pub complete: bool,
}

impl JobStatus {
    /// Read the status of the job under `dir`.
    pub fn read(dir: &Path) -> Result<JobStatus> {
        let manifest = read_manifest(dir)?;
        let mut settled: BTreeMap<usize, JournalEntry> = BTreeMap::new();
        for entry in Journal::load(dir)? {
            settled.insert(entry.point_index, entry);
        }
        let ok = settled.values().filter(|e| e.outcome.is_ok()).count();
        let quarantined = settled.len() - ok;
        Ok(JobStatus {
            total: manifest.num_points,
            settled: settled.len(),
            ok,
            quarantined,
            complete: dir.join(RESULTS_FILE_NAME).exists(),
            manifest,
        })
    }

    /// One human-readable progress line.
    pub fn render(&self) -> String {
        let name = self.manifest.grid_name.as_deref().unwrap_or("unnamed");
        let state = if self.complete {
            "complete"
        } else if self.settled == self.total {
            "settled (results pending)"
        } else {
            "in progress"
        };
        format!(
            "job '{}' (seed {}): {}/{} points settled, {} ok, {} quarantined — {}",
            name,
            self.manifest.master_seed,
            self.settled,
            self.total,
            self.ok,
            self.quarantined,
            state
        )
    }

    /// Quarantine ledger of the job under `dir` (empty when absent).
    pub fn quarantine(dir: &Path) -> Result<Vec<QuarantineRecord>> {
        Ok(load_quarantine(dir)?)
    }
}
