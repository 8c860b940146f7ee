//! The job manifest: a versioned fingerprint of *what* is being swept.
//!
//! The manifest is written once, atomically, when a job directory is
//! created, and re-validated on every resume: a journal is only ever
//! merged into a run of the **same** grid. Determinism-relevant fields
//! (seed, replication budget, grid shape, early-stop rule) participate in
//! the compatibility check; execution policy (workers, retries, timeout)
//! deliberately does not — resuming with more workers or a different
//! watchdog must still reproduce the uninterrupted run byte for byte,
//! because every point is a pure function of `(master_seed,
//! point_index)`.

use crate::job::JobConfig;
use plc_sim::sweep::{EarlyStop, SweepGrid};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Journal/manifest format revision. Bump on any incompatible change to
/// [`JobManifest`] or the journal line schema; a resume across versions
/// is refused rather than misread.
pub const FORMAT_VERSION: u32 = 1;

/// Identity and execution record of one sweep job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobManifest {
    /// [`FORMAT_VERSION`] at creation time.
    pub format_version: u32,
    /// Master seed every cell seed derives from.
    pub master_seed: u64,
    /// Requested replications per point.
    pub replications: u64,
    /// Configuration labels, in declaration order.
    pub configs: Vec<String>,
    /// Station counts the grid sweeps over.
    pub stations: Vec<usize>,
    /// Grid points (`configs × stations`).
    pub num_points: usize,
    /// The early-stopping rule, if one is set.
    pub early_stop: Option<EarlyStop>,
    /// Job-level retry budget per point ([`JobConfig::retries`]) the job
    /// was created with (recorded, not part of the compatibility
    /// fingerprint).
    pub retries: u32,
    /// Per-point watchdog timeout in milliseconds, if armed (recorded,
    /// not fingerprinted).
    pub timeout_ms: Option<u64>,
    /// Name of the grid in the caller's registry, when launched through
    /// a named front end (lets `job resume` rebuild the grid without
    /// re-specifying it).
    pub grid_name: Option<String>,
    /// `git describe` of the source tree that created the job —
    /// best-effort provenance, not fingerprinted. Computed once per
    /// process: every manifest a process builds carries the same value.
    pub created_by: Option<String>,
}

impl JobManifest {
    /// Capture `grid` (shape and determinism knobs) plus the job's
    /// execution policy from `cfg` (retry budget, watchdog timeout,
    /// grid name).
    pub fn from_grid(grid: &SweepGrid, cfg: &JobConfig) -> Self {
        // A process's provenance does not change while it runs, and each
        // `git` spawn costs milliseconds on every create and resume.
        static CREATED_BY: OnceLock<Option<String>> = OnceLock::new();
        JobManifest {
            format_version: FORMAT_VERSION,
            master_seed: grid.master_seed(),
            replications: grid.replication_budget(),
            configs: grid.config_labels(),
            stations: grid.station_counts().to_vec(),
            num_points: grid.num_points(),
            early_stop: grid.early_stop_rule(),
            retries: cfg.retries,
            timeout_ms: cfg.timeout.map(|t| t.as_millis() as u64),
            grid_name: cfg.grid_name.clone(),
            created_by: CREATED_BY.get_or_init(git_describe).clone(),
        }
    }

    /// Human-readable one-line description of the first fingerprint
    /// mismatch against `other`, if any: `None` exactly when `self`
    /// (from disk) describes the same deterministic sweep as `other`
    /// (rebuilt by the resuming process). Compares format version and
    /// every determinism-relevant field; ignores execution policy and
    /// provenance.
    pub fn mismatch(&self, other: &JobManifest) -> Option<String> {
        if self.format_version != other.format_version {
            return Some(format!(
                "format version {} on disk, {} in this build",
                self.format_version, other.format_version
            ));
        }
        if self.master_seed != other.master_seed {
            return Some(format!(
                "master seed {} on disk, {} requested",
                self.master_seed, other.master_seed
            ));
        }
        if self.replications != other.replications {
            return Some(format!(
                "replication budget {} on disk, {} requested",
                self.replications, other.replications
            ));
        }
        if self.configs != other.configs {
            return Some(format!(
                "config labels {:?} on disk, {:?} requested",
                self.configs, other.configs
            ));
        }
        if self.stations != other.stations {
            return Some(format!(
                "station counts {:?} on disk, {:?} requested",
                self.stations, other.stations
            ));
        }
        if self.num_points != other.num_points {
            return Some(format!(
                "{} points on disk, {} requested",
                self.num_points, other.num_points
            ));
        }
        if self.early_stop != other.early_stop {
            return Some("early-stop rule differs".to_string());
        }
        None
    }
}

/// Best-effort `git describe --always --dirty` of the current directory.
/// Provenance only; `None` outside a git checkout or without git.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_sim::Simulation;

    fn grid() -> SweepGrid {
        SweepGrid::new(7)
            .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
            .stations([2, 3])
            .replications(2)
    }

    /// A job policy for the manifest tests; its directory is never
    /// touched.
    fn policy(retries: u32, timeout_ms: Option<u64>, grid_name: Option<&str>) -> JobConfig {
        let mut cfg = JobConfig::new("unused");
        cfg.retries = retries;
        cfg.timeout = timeout_ms.map(std::time::Duration::from_millis);
        cfg.grid_name = grid_name.map(str::to_string);
        cfg
    }

    #[test]
    fn manifest_captures_the_grid() {
        let m = JobManifest::from_grid(&grid(), &policy(2, Some(500), Some("unit")));
        assert_eq!(m.format_version, FORMAT_VERSION);
        assert_eq!(m.master_seed, 7);
        assert_eq!(m.replications, 2);
        assert_eq!(m.configs, vec!["ca1".to_string()]);
        assert_eq!(m.stations, vec![2, 3]);
        assert_eq!(m.num_points, 2);
        assert_eq!(m.retries, 2);
        assert_eq!(m.timeout_ms, Some(500));
        assert_eq!(m.grid_name.as_deref(), Some("unit"));
    }

    #[test]
    fn fingerprint_ignores_execution_policy() {
        let a = JobManifest::from_grid(&grid(), &policy(0, Some(500), None));
        let mut b = JobManifest::from_grid(&grid().workers(8), &policy(3, None, Some("x")));
        b.created_by = Some("elsewhere".into());
        assert_eq!(a.mismatch(&b), None);
        assert_eq!(b.mismatch(&a), None);
    }

    #[test]
    fn fingerprint_catches_every_grid_change() {
        let cfg = policy(0, None, None);
        let base = JobManifest::from_grid(&grid(), &cfg);
        let seeds = JobManifest::from_grid(
            &SweepGrid::new(8)
                .config("ca1", Simulation::ieee1901(1).horizon_us(1e5))
                .stations([2, 3])
                .replications(2),
            &cfg,
        );
        assert!(base.mismatch(&seeds).unwrap().contains("master seed"));
        assert!(seeds.mismatch(&base).unwrap().contains("master seed"));
        let fewer = JobManifest::from_grid(&grid().stations([2]), &cfg);
        assert!(base.mismatch(&fewer).unwrap().contains("station counts"));
        let mut version = base.clone();
        version.format_version += 1;
        assert!(base.mismatch(&version).unwrap().contains("format version"));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = JobManifest::from_grid(&grid(), &policy(1, None, Some("unit")));
        let json = serde_json::to_string(&m).unwrap();
        let back: JobManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
