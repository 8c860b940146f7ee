//! Multi-grid job composition: several sweeps as one resumable unit.
//!
//! A [`JobGroup`] binds an ordered set of named [`SweepGrid`]s to one
//! parent directory: each member runs as a full [`Job`] in its own
//! subdirectory (`<dir>/<member-name>/` — manifest, journal, results,
//! quarantine, all the usual crash-tolerance machinery), and the parent
//! directory holds a `group.json` manifest recording the member names
//! in order.
//!
//! [`JobGroup::run`] first creates or resumes every member job, so each
//! manifest is durable before any point runs. It then settles the
//! unsettled points of all members in one pass over the (member, point)
//! list, in member order, whose workers each take the next point from a
//! shared queue: members do not run one after another, and no member
//! waits at a barrier for the others. The collector appends each point
//! to its own member's journal and completes a member — `results.json`,
//! `metrics.json`, sinks — as soon as that member's last point lands,
//! while the workers carry on with the rest. A member's `metrics.json`
//! is therefore a snapshot of the shared registry taken at its
//! completion, and can include in-flight points of other members.
//!
//! Killing the process at any instant leaves every started member with
//! its manifest, and any of them may be partially journaled.
//! Re-running the same group resumes exactly: completed members
//! reassemble from their journals without re-executing a single point,
//! and every other member finishes its remainder.
//!
//! This is the composition layer the `plc-boost` optimizer runs on: one
//! successive-halving rung = one group with one member grid per
//! portfolio scenario.

use crate::job::{run_jobs, Job, JobConfig, JobReport, JobStatus, MANIFEST_FILE_NAME};
use plc_core::{CancelToken, Error, Result};
use plc_sim::sweep::{SweepGrid, SweepResults};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// File name of the group manifest inside a group directory.
pub const GROUP_FILE_NAME: &str = "group.json";

/// The on-disk identity of a job group: which members it is composed
/// of, in order. Per-member determinism is fingerprinted by each
/// member job's own manifest; the group manifest pins only the
/// composition so a resume with a different member set is refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupManifest {
    /// [`crate::FORMAT_VERSION`] at creation time.
    pub format_version: u32,
    /// Member names, in order (also the subdirectory names).
    pub members: Vec<String>,
}

/// One member of a [`JobGroup`]: a named grid plus the execution policy
/// its [`Job`] runs under. The member name becomes the subdirectory and
/// must be a single path component.
pub struct GroupMember {
    /// Member name (subdirectory under the group dir).
    pub name: String,
    /// The sweep this member settles.
    pub grid: SweepGrid,
    /// Job-level retry budget (see [`JobConfig::retries`]).
    pub retries: u32,
    /// Per-point watchdog deadline (see [`JobConfig::timeout`]).
    pub timeout: Option<std::time::Duration>,
    /// Chaos stall hook, forwarded to the member job (kill-window
    /// injection for crash tests).
    pub stall: Option<plc_faults::JobStall>,
}

impl GroupMember {
    /// A member with default execution policy.
    pub fn new(name: impl Into<String>, grid: SweepGrid) -> Self {
        GroupMember {
            name: name.into(),
            grid,
            retries: 0,
            timeout: None,
            stall: None,
        }
    }
}

/// What one [`JobGroup::run`] did: every member's [`JobReport`] in
/// member order, with its name.
#[derive(Debug)]
pub struct GroupReport {
    /// Per-member reports, in member order.
    pub members: Vec<(String, JobReport)>,
}

impl GroupReport {
    /// Whether every member settled every point.
    pub fn is_complete(&self) -> bool {
        self.members.iter().all(|(_, r)| r.is_complete())
    }

    /// The assembled results of the named member, when complete.
    pub fn results(&self, name: &str) -> Option<&SweepResults> {
        self.members
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, r)| r.results.as_ref())
    }
}

/// An ordered set of named sweeps run as one crash-tolerant unit.
pub struct JobGroup {
    dir: PathBuf,
    members: Vec<GroupMember>,
    registry: Option<plc_obs::Registry>,
}

impl JobGroup {
    /// Compose `members` under `dir`. Member names must be unique,
    /// non-empty single path components.
    pub fn new(dir: impl Into<PathBuf>, members: Vec<GroupMember>) -> Result<JobGroup> {
        if members.is_empty() {
            return Err(Error::invalid_config("job group has no members"));
        }
        for m in &members {
            if m.name.is_empty() || m.name.contains(['/', '\\', '.']) {
                return Err(Error::invalid_config(format!(
                    "group member name {:?} must be a plain path component",
                    m.name
                )));
            }
        }
        let mut names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != members.len() {
            return Err(Error::invalid_config("group member names must be unique"));
        }
        Ok(JobGroup {
            dir: dir.into(),
            members,
            registry: None,
        })
    }

    /// Record member-job instrumentation into `registry` (the `job.*`
    /// counters accumulate across members).
    pub fn registry(mut self, registry: &plc_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Create or resume every member's [`Job`], then settle all their
    /// unsettled points in one pass (see the [module docs](self)), on
    /// the largest worker count any member's grid asks for. The group
    /// manifest is written on first run and validated on every rerun: a
    /// directory composed of different members is refused rather than
    /// partially reused. A member's I/O error fails the run.
    pub fn run(self) -> Result<GroupReport> {
        std::fs::create_dir_all(&self.dir)?;
        let manifest = GroupManifest {
            format_version: crate::manifest::FORMAT_VERSION,
            members: self.members.iter().map(|m| m.name.clone()).collect(),
        };
        let path = self.dir.join(GROUP_FILE_NAME);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let on_disk: GroupManifest = serde_json::from_str(&text).map_err(|e| {
                    Error::runtime(format!("corrupt group manifest at {}: {e}", path.display()))
                })?;
                if on_disk != manifest {
                    return Err(Error::invalid_config(format!(
                        "cannot resume group at {}: members {:?} on disk, {:?} requested",
                        self.dir.display(),
                        on_disk.members,
                        manifest.members
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut doc = serde_json::to_string(&manifest).expect("group manifest serializes");
                doc.push('\n');
                plc_core::fs::atomic_write(&path, doc.as_bytes())?;
            }
            Err(e) => return Err(e.into()),
        }

        // Every member's manifest is durable before any point runs.
        let mut names = Vec::with_capacity(self.members.len());
        let mut jobs = Vec::with_capacity(self.members.len());
        for member in self.members {
            let mut cfg = JobConfig::new(self.dir.join(&member.name));
            cfg.retries = member.retries;
            cfg.timeout = member.timeout;
            cfg.stall = member.stall;
            cfg.grid_name = Some(member.name.clone());
            let mut job = Job::create_or_resume(member.grid, cfg)?;
            if let Some(r) = &self.registry {
                job = job.registry(r);
            }
            names.push(member.name);
            jobs.push(job);
        }
        let reports = run_jobs(jobs, &CancelToken::new())?;
        Ok(GroupReport {
            members: names.into_iter().zip(reports).collect(),
        })
    }
}

/// Progress of a group directory: the member list from `group.json`
/// plus each member job's [`JobStatus`] (absent for members whose job
/// directory was never created).
pub fn group_status(dir: &Path) -> Result<Vec<(String, Option<JobStatus>)>> {
    let path = dir.join(GROUP_FILE_NAME);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::runtime(format!("no group manifest at {}: {e}", path.display())))?;
    let manifest: GroupManifest = serde_json::from_str(&text).map_err(|e| {
        Error::runtime(format!("corrupt group manifest at {}: {e}", path.display()))
    })?;
    let mut out = Vec::with_capacity(manifest.members.len());
    for name in manifest.members {
        let sub = dir.join(&name);
        let status = if sub.join(MANIFEST_FILE_NAME).exists() {
            Some(JobStatus::read(&sub)?)
        } else {
            None
        };
        out.push((name, status));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_sim::Simulation;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plc_jobs_group_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid(seed: u64) -> SweepGrid {
        SweepGrid::new(seed)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2.0e5))
            .stations([2, 3])
            .replications(1)
    }

    /// Six points: a saturated and a Poisson config over three sizes.
    fn wide_grid(seed: u64, workers: usize) -> SweepGrid {
        let poisson = plc_sim::TrafficModel::Poisson {
            rate_per_us: 2e-4,
            queue_cap: 4,
        };
        SweepGrid::new(seed)
            .config("ca1", Simulation::ieee1901(1).horizon_us(2.0e5))
            .config(
                "poisson",
                Simulation::ieee1901(1).horizon_us(2.0e5).traffic(poisson),
            )
            .stations([2, 3, 5])
            .replications(1)
            .workers(workers)
    }

    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

    fn wide_members(workers: usize) -> Vec<GroupMember> {
        NAMES
            .iter()
            .zip(1u64..)
            .map(|(name, seed)| GroupMember::new(*name, wide_grid(seed, workers)))
            .collect()
    }

    fn results_on_disk(dir: &Path, name: &str) -> String {
        std::fs::read_to_string(dir.join(name).join(crate::RESULTS_FILE_NAME)).unwrap()
    }

    #[test]
    fn member_results_equal_the_plain_sweep_at_any_worker_count() {
        // Which worker settles which point of the concatenated (member,
        // point) list depends on timing and on the worker count.
        for workers in 1..=3 {
            let dir = temp_dir(&format!("workers{workers}"));
            let report = JobGroup::new(&dir, wide_members(workers))
                .unwrap()
                .run()
                .unwrap();
            assert!(report.is_complete());
            for (i, name) in NAMES.iter().enumerate() {
                let plain = wide_grid(i as u64 + 1, workers).run().to_json();
                assert_eq!(
                    results_on_disk(&dir, name),
                    format!("{plain}\n"),
                    "{name} at {workers} workers"
                );
                assert_eq!(report.members[i].1.executed, 6);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rerun_after_a_kill_executes_exactly_the_missing_points() {
        let dir = temp_dir("kill_state");
        JobGroup::new(&dir, wide_members(2)).unwrap().run().unwrap();
        let finished: Vec<String> = NAMES.iter().map(|n| results_on_disk(&dir, n)).collect();

        // The state a kill mid-pass leaves: every member has its
        // manifest, any of them may be partially journaled (beta with a
        // torn last line), and none has completed.
        let journaled = [2usize, 4, 0];
        for (name, &keep) in NAMES.iter().zip(&journaled) {
            let sub = dir.join(name);
            assert!(sub.join(MANIFEST_FILE_NAME).exists());
            std::fs::remove_file(sub.join(crate::RESULTS_FILE_NAME)).unwrap();
            let journal = sub.join(crate::Journal::FILE_NAME);
            let lines: Vec<String> = std::fs::read_to_string(&journal)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect();
            if keep == 0 {
                std::fs::remove_file(&journal).unwrap();
                continue;
            }
            let mut text: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
            if *name == "beta" {
                text.push_str(&lines[keep][..lines[keep].len() / 2]);
            }
            std::fs::write(&journal, text).unwrap();
        }

        let report = JobGroup::new(&dir, wide_members(3)).unwrap().run().unwrap();
        for (i, (name, member)) in report.members.iter().enumerate() {
            assert_eq!(member.resumed, journaled[i], "{name}");
            assert_eq!(member.executed, 6 - journaled[i], "{name}");
            assert_eq!(results_on_disk(&dir, name), finished[i], "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_journal_append_error_in_one_member_fails_the_group() {
        let dir = temp_dir("append_error");
        // Every write to /dev/full fails (ENOSPC), even as root.
        std::fs::create_dir_all(dir.join("beta")).unwrap();
        std::os::unix::fs::symlink(
            "/dev/full",
            dir.join("beta").join(crate::Journal::FILE_NAME),
        )
        .unwrap();
        let err = JobGroup::new(&dir, wide_members(2))
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("I/O error"), "{err}");
        assert!(!dir.join("beta").join(crate::RESULTS_FILE_NAME).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_counters_tick_for_retries_quarantines_and_resumes() {
        let dir = temp_dir("counters");
        let members = || {
            // One point that cannot finish inside its watchdog deadline.
            let stuck_grid = SweepGrid::new(5)
                .config("stuck", Simulation::ieee1901(1).horizon_us(5e10))
                .stations([20])
                .replications(1)
                .workers(1);
            let mut stuck = GroupMember::new("stuck", stuck_grid);
            stuck.timeout = Some(std::time::Duration::from_millis(40));
            stuck.retries = 1;
            vec![stuck, GroupMember::new("alpha", grid(1))]
        };
        let registry = plc_obs::Registry::new();
        let report = JobGroup::new(&dir, members())
            .unwrap()
            .registry(&registry)
            .run()
            .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.members[0].1.quarantined.len(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("job.points_done"), Some(3));
        assert_eq!(snap.counter("job.points_retried"), Some(1));
        assert_eq!(snap.counter("job.points_quarantined"), Some(1));
        assert_eq!(snap.counter("job.points_resumed"), Some(0));
        for name in ["stuck", "alpha"] {
            assert!(dir.join(name).join(crate::METRICS_FILE_NAME).exists());
        }

        let registry = plc_obs::Registry::new();
        JobGroup::new(&dir, members())
            .unwrap()
            .registry(&registry)
            .run()
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("job.points_resumed"), Some(3));
        assert_eq!(snap.counter("job.points_done"), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_runs_members_in_order_and_resumes_without_rework() {
        let dir = temp_dir("order");
        let members = || {
            vec![
                GroupMember::new("alpha", grid(1)),
                GroupMember::new("beta", grid(2)),
            ]
        };
        let report = JobGroup::new(&dir, members()).unwrap().run().unwrap();
        assert!(report.is_complete());
        assert_eq!(report.members[0].0, "alpha");
        assert_eq!(report.members[1].0, "beta");
        assert!(dir.join("alpha/results.json").exists());
        assert!(dir.join("beta/results.json").exists());
        // Member results equal the plain grid run, byte for byte.
        assert_eq!(
            report.results("alpha").unwrap().to_json(),
            grid(1).run().to_json()
        );

        // A rerun resumes both members and executes nothing.
        let again = JobGroup::new(&dir, members()).unwrap().run().unwrap();
        for (_, r) in &again.members {
            assert_eq!(r.executed, 0);
            assert_eq!(r.resumed, 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_refuses_a_different_composition() {
        let dir = temp_dir("composition");
        JobGroup::new(&dir, vec![GroupMember::new("alpha", grid(1))])
            .unwrap()
            .run()
            .unwrap();
        let err = JobGroup::new(&dir, vec![GroupMember::new("gamma", grid(1))])
            .unwrap()
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("members"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_status_reads_partial_progress() {
        let dir = temp_dir("status");
        JobGroup::new(&dir, vec![GroupMember::new("alpha", grid(1))])
            .unwrap()
            .run()
            .unwrap();
        // Hand-extend the manifest with a member that never ran: status
        // must render it as absent rather than erroring.
        let manifest = GroupManifest {
            format_version: crate::manifest::FORMAT_VERSION,
            members: vec!["alpha".into(), "beta".into()],
        };
        plc_core::fs::atomic_write(
            dir.join(GROUP_FILE_NAME),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        let status = group_status(&dir).unwrap();
        assert_eq!(status.len(), 2);
        assert!(status[0].1.as_ref().unwrap().complete);
        assert!(status[1].1.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_member_names_are_rejected() {
        for bad in ["", "a/b", "..", "x.y"] {
            assert!(
                JobGroup::new("/tmp/never", vec![GroupMember::new(bad, grid(1))]).is_err(),
                "{bad:?} accepted"
            );
        }
        let dup = vec![
            GroupMember::new("a", grid(1)),
            GroupMember::new("a", grid(2)),
        ];
        assert!(JobGroup::new("/tmp/never", dup).is_err());
    }
}
