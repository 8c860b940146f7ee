//! The closed-loop boosting run: successive halving over a candidate
//! space, evaluated against a scenario portfolio, crash-resumable end
//! to end.
//!
//! A run is a pure function of its manifest — `(space, portfolio,
//! seed, rungs, screen_keep, base_horizon_us, replications)` — plus
//! code. Every stochastic cell seed derives from the manifest seed via
//! [`derive_seed`], every rung is a [`JobGroup`] of journaled sweep
//! jobs, and every selection step (screen ranking, per-rung pruning,
//! the Pareto front, the recommendation) is a deterministic total order
//! over the results. Consequences:
//!
//! * **byte-identical artifacts** for any worker count — `pareto.json`
//!   is the same file for `--workers 1` and `--workers 8`;
//! * **exact resume** — kill the process at any instant and
//!   [`BoostRun::resume`] replays: settled sweep points reassemble from
//!   their journals, the analytic screen re-solves (≈0.03 s for the
//!   default space and portfolio on two workers), and the pruning
//!   decisions recompute to the same survivors.
//!
//! ## Rung structure
//!
//! * **Screen** (`Backend::MeanField` math): every candidate ×
//!   every portfolio operating point through the fixed point + delay
//!   DTMC; the top [`BoostConfig::screen_keep`] by ranked analytic
//!   score survive (the baseline always does).
//! * **Confirm rungs** `1..=rungs`: each rung runs the survivors on the
//!   slotted engine over every portfolio scenario (one [`JobGroup`]
//!   member per scenario, directory `rung<r>/<scenario>/`), with the
//!   horizon growing 4× per rung; after each non-final rung the
//!   surviving set is halved by aggregate score.
//! * **Verdict**: Pareto front over (throughput ↑, Jain fairness ↑,
//!   p99 access delay ↓) and a recommended schedule — the front member
//!   beating the baseline on the most objectives.

use crate::portfolio::Portfolio;
use crate::screen::{rank, screen_space_on, ScreenScore};
use crate::space::{ScheduleCandidate, SearchSpace, BASELINE_LABEL};
use plc_core::error::{Error, Result};
use plc_core::fs::atomic_write;
use plc_core::timing::MacTiming;
use plc_jobs::{group_status, GroupMember, GroupReport, JobGroup, GROUP_FILE_NAME};
use plc_sim::sweep::{default_workers, derive_seed, SweepGrid};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File name of the boost manifest inside a boost directory.
pub const BOOST_FILE_NAME: &str = "boost.json";
/// File name of the final artifact inside a boost directory.
pub const PARETO_FILE_NAME: &str = "pareto.json";
/// Manifest schema version.
pub const BOOST_FORMAT_VERSION: u32 = 1;

/// Everything that defines a boosting run.
#[derive(Debug, Clone)]
pub struct BoostConfig {
    /// The run directory (manifest, rung subdirectories, artifact).
    pub dir: PathBuf,
    /// Search-space name ([`SearchSpace::named`]).
    pub space: String,
    /// Portfolio name ([`Portfolio::named`]).
    pub portfolio: String,
    /// Master seed every sweep-cell seed derives from.
    pub seed: u64,
    /// Number of slotted confirm rungs (≥ 1).
    pub rungs: usize,
    /// Survivors of the analytic screen (baseline always added).
    pub screen_keep: usize,
    /// Horizon of the first confirm rung in µs; rung `r` runs
    /// `base · 4^(r−1)`.
    pub base_horizon_us: f64,
    /// Replications per sweep point in confirm rungs.
    pub replications: u64,
    /// Worker threads for the analytic screen and sweep execution;
    /// `None` = machine default. Results are byte-identical for any
    /// choice.
    pub workers: Option<usize>,
    /// Chaos hook forwarded to every member job (kill-window injection
    /// for crash tests); never part of the manifest.
    pub stall: Option<plc_faults::JobStall>,
}

impl BoostConfig {
    /// The production defaults for `dir`: default space and portfolio,
    /// 2 rungs from a 5·10⁶ µs horizon, screen keeps 12.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        BoostConfig {
            dir: dir.into(),
            space: "default".to_string(),
            portfolio: "default".to_string(),
            seed: 42,
            rungs: 2,
            screen_keep: 12,
            base_horizon_us: 5.0e6,
            replications: 2,
            workers: None,
            stall: None,
        }
    }

    /// CI smoke defaults: tiny space, smoke portfolio, short horizons.
    pub fn smoke(dir: impl Into<PathBuf>) -> Self {
        let mut cfg = Self::new(dir);
        cfg.space = "tiny".to_string();
        cfg.portfolio = "smoke".to_string();
        cfg.screen_keep = 4;
        cfg.base_horizon_us = 4.0e5;
        cfg.replications = 1;
        cfg
    }

    fn manifest(&self, space: &SearchSpace) -> BoostManifest {
        BoostManifest {
            format_version: BOOST_FORMAT_VERSION,
            space: self.space.clone(),
            portfolio: self.portfolio.clone(),
            seed: self.seed,
            rungs: self.rungs,
            screen_keep: self.screen_keep,
            base_horizon_us: self.base_horizon_us,
            replications: self.replications,
            candidates: space.labels(),
        }
    }
}

/// The on-disk identity of a boosting run. Everything that affects the
/// search outcome is pinned here (execution policy — workers, stall —
/// deliberately is not), so a resume against different parameters is
/// refused instead of silently mixing two searches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoostManifest {
    /// [`BOOST_FORMAT_VERSION`] at creation time.
    pub format_version: u32,
    /// Search-space name.
    pub space: String,
    /// Portfolio name.
    pub portfolio: String,
    /// Master seed.
    pub seed: u64,
    /// Confirm-rung count.
    pub rungs: usize,
    /// Screen survivor count.
    pub screen_keep: usize,
    /// First-rung horizon in µs.
    pub base_horizon_us: f64,
    /// Replications per sweep point.
    pub replications: u64,
    /// Candidate labels in enumeration order — belt and braces against
    /// a code change silently redefining a named space between run and
    /// resume.
    pub candidates: Vec<String>,
}

/// Aggregated objectives of one candidate after a confirm rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateObjectives {
    /// Candidate label.
    pub label: String,
    /// Per-stage contention windows.
    pub cw: Vec<u32>,
    /// Per-stage deferral counters.
    pub dc: Vec<u32>,
    /// Weighted mean normalized throughput over the portfolio
    /// (slotted engine).
    pub throughput: f64,
    /// Weighted mean Jain fairness over the portfolio (slotted engine).
    pub jain_fairness: f64,
    /// Weighted mean p99 access delay in µs (analytic screen); `None`
    /// when the delay walk truncated before the p99 anywhere.
    pub p99_delay_us: Option<f64>,
    /// Scalarized pruning score (throughput + fairness bonus − delay
    /// penalty); higher is better.
    pub score: f64,
}

/// Which objectives a candidate strictly beats the baseline on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BeatsBaseline {
    /// Strictly higher weighted throughput.
    pub throughput: bool,
    /// Strictly higher weighted Jain fairness.
    pub fairness: bool,
    /// Strictly lower p99 access delay (an untruncated tail beats a
    /// truncated one).
    pub p99_delay: bool,
}

impl BeatsBaseline {
    /// How many of the three objectives are beaten.
    pub fn count(&self) -> usize {
        self.throughput as usize + self.fairness as usize + self.p99_delay as usize
    }
}

/// The recommended schedule of a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The winning candidate's objectives.
    pub candidate: CandidateObjectives,
    /// Objective-by-objective verdict against the baseline.
    pub beats_baseline: BeatsBaseline,
}

/// The final artifact, written atomically to [`PARETO_FILE_NAME`].
/// Contains no timestamps or machine state — byte-identical across
/// reruns, resumes and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoostArtifact {
    /// [`BOOST_FORMAT_VERSION`].
    pub format_version: u32,
    /// Search-space name.
    pub space: String,
    /// Portfolio name.
    pub portfolio: String,
    /// Master seed.
    pub seed: u64,
    /// Confirm-rung count.
    pub rungs: usize,
    /// The baseline's objectives at the final rung.
    pub baseline: CandidateObjectives,
    /// Every finalist's objectives (final-rung survivors), score order.
    pub finalists: Vec<CandidateObjectives>,
    /// Labels on the Pareto front over (throughput ↑, fairness ↑,
    /// p99 delay ↓), score order.
    pub pareto: Vec<String>,
    /// The recommended schedule.
    pub recommended: Recommendation,
}

/// What [`BoostRun::run`] produced.
#[derive(Debug, Clone)]
pub struct BoostReport {
    /// The artifact, as written to disk.
    pub artifact: BoostArtifact,
    /// Where [`PARETO_FILE_NAME`] was written.
    pub artifact_path: PathBuf,
}

/// A created-or-resumed boosting run, ready to execute.
pub struct BoostRun {
    cfg: BoostConfig,
    space: SearchSpace,
    portfolio: Portfolio,
    registry: Option<plc_obs::Registry>,
}

impl BoostRun {
    /// Start a fresh run in `cfg.dir`; refuses a directory that already
    /// holds a boost manifest.
    pub fn create(cfg: BoostConfig) -> Result<BoostRun> {
        let run = Self::bind(cfg)?;
        let path = run.cfg.dir.join(BOOST_FILE_NAME);
        if path.exists() {
            return Err(Error::invalid_config(format!(
                "{} already exists — use resume",
                path.display()
            )));
        }
        std::fs::create_dir_all(&run.cfg.dir)?;
        let mut doc = serde_json::to_string(&run.cfg.manifest(&run.space))
            .expect("boost manifest serializes");
        doc.push('\n');
        atomic_write(&path, doc.as_bytes())?;
        Ok(run)
    }

    /// Resume the run in `cfg.dir`; the on-disk manifest must match
    /// `cfg` exactly.
    pub fn resume(cfg: BoostConfig) -> Result<BoostRun> {
        let run = Self::bind(cfg)?;
        let on_disk = read_boost_manifest(&run.cfg.dir)?;
        let expected = run.cfg.manifest(&run.space);
        if on_disk != expected {
            return Err(Error::invalid_config(format!(
                "cannot resume boost run at {}: manifest on disk does not match \
                 the requested space/portfolio/seed/rung parameters",
                run.cfg.dir.display()
            )));
        }
        Ok(run)
    }

    fn bind(cfg: BoostConfig) -> Result<BoostRun> {
        if cfg.rungs == 0 {
            return Err(Error::invalid_config("boost needs at least one rung"));
        }
        if cfg.screen_keep == 0 {
            return Err(Error::invalid_config("screen_keep must be at least 1"));
        }
        let space = SearchSpace::named(&cfg.space).ok_or_else(|| {
            Error::invalid_config(format!(
                "unknown search space '{}'; known: {}",
                cfg.space,
                SearchSpace::names().join(" ")
            ))
        })?;
        let portfolio = Portfolio::named(&cfg.portfolio).ok_or_else(|| {
            Error::invalid_config(format!(
                "unknown portfolio '{}'; known: {}",
                cfg.portfolio,
                Portfolio::names().join(" ")
            ))
        })?;
        Ok(BoostRun {
            cfg,
            space,
            portfolio,
            registry: None,
        })
    }

    /// Record `boost.*` and member-job instrumentation into `registry`.
    pub fn registry(mut self, registry: &plc_obs::Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Execute (the rest of) the search and write the artifact.
    pub fn run(self) -> Result<BoostReport> {
        let timing = MacTiming::paper_default();
        let scores = screen_space_on(
            self.cfg.workers.unwrap_or_else(default_workers),
            &self.space,
            &self.portfolio,
            &timing,
            self.registry.as_ref(),
        )?;
        let delay_by_label: BTreeMap<&str, Option<f64>> = scores
            .iter()
            .map(|s| (s.label.as_str(), s.p99_delay_us))
            .collect();
        let mut survivors = self.screen_survivors(&scores);
        self.count("boost.pruned", (scores.len() - survivors.len()) as u64);

        let mut objectives = Vec::new();
        for rung in 1..=self.cfg.rungs {
            let report = self.run_rung(rung, &survivors)?;
            self.count("boost.rungs", 1);
            objectives = self.rung_objectives(&report, &survivors, &delay_by_label)?;
            objectives.sort_by(|a, b| {
                b.score
                    .total_cmp(&a.score)
                    .then_with(|| a.label.cmp(&b.label))
            });
            if rung < self.cfg.rungs {
                let keep = objectives.len().div_ceil(2).max(2);
                let mut kept: Vec<String> = objectives
                    .iter()
                    .take(keep)
                    .map(|o| o.label.clone())
                    .collect();
                if !kept.iter().any(|l| l == BASELINE_LABEL) {
                    kept.push(BASELINE_LABEL.to_string());
                }
                self.count("boost.pruned", (survivors.len() - kept.len()) as u64);
                survivors = kept;
            }
        }

        let artifact = self.verdict(objectives)?;
        let artifact_path = self.cfg.dir.join(PARETO_FILE_NAME);
        let mut doc = serde_json::to_string(&artifact).expect("boost artifact serializes");
        doc.push('\n');
        atomic_write(&artifact_path, doc.as_bytes())?;
        Ok(BoostReport {
            artifact,
            artifact_path,
        })
    }

    /// The analytic survivors: top `screen_keep` of the ranked screen,
    /// plus the baseline if it did not make the cut.
    fn screen_survivors(&self, scores: &[ScreenScore]) -> Vec<String> {
        let mut survivors: Vec<String> = rank(scores)
            .into_iter()
            .take(self.cfg.screen_keep)
            .map(|s| s.label.clone())
            .collect();
        if !survivors.iter().any(|l| l == BASELINE_LABEL) {
            survivors.push(BASELINE_LABEL.to_string());
        }
        survivors
    }

    /// One confirm rung: a [`JobGroup`] with one member per portfolio
    /// scenario, each sweeping every survivor over the scenario's
    /// station counts at the rung's horizon.
    fn run_rung(&self, rung: usize, survivors: &[String]) -> Result<GroupReport> {
        let horizon = self.cfg.base_horizon_us * 4.0f64.powi(rung as i32 - 1);
        let mut members = Vec::with_capacity(self.portfolio.scenarios.len());
        for (si, scenario) in self.portfolio.scenarios.iter().enumerate() {
            let mut grid = SweepGrid::new(derive_seed(self.cfg.seed, rung as u64, si as u64))
                .stations(scenario.stations.iter().copied())
                .replications(self.cfg.replications);
            if let Some(w) = self.cfg.workers {
                grid = grid.workers(w);
            }
            for label in survivors {
                let candidate = self.candidate(label)?;
                grid = grid.config(
                    label.clone(),
                    scenario.template(&candidate.config()?, horizon),
                );
            }
            let mut member = GroupMember::new(scenario.name.clone(), grid);
            member.stall = self.cfg.stall;
            members.push(member);
        }
        let mut group = JobGroup::new(self.cfg.dir.join(format!("rung{rung}")), members)?;
        if let Some(r) = &self.registry {
            group = group.registry(r);
        }
        group.run()
    }

    /// Aggregate (throughput, fairness) from a rung's slotted results
    /// and the delay tail from the screen into per-survivor objectives.
    fn rung_objectives(
        &self,
        report: &GroupReport,
        survivors: &[String],
        delay_by_label: &BTreeMap<&str, Option<f64>>,
    ) -> Result<Vec<CandidateObjectives>> {
        let total_weight = self.portfolio.total_weight();
        let mut out = Vec::with_capacity(survivors.len());
        for label in survivors {
            let candidate = self.candidate(label)?;
            let mut throughput = 0.0;
            let mut jain = 0.0;
            for scenario in &self.portfolio.scenarios {
                let results = report.results(&scenario.name).ok_or_else(|| {
                    Error::runtime(format!(
                        "rung member '{}' is incomplete (quarantined points?) — \
                         resume after inspecting its quarantine file",
                        scenario.name
                    ))
                })?;
                for &n in &scenario.stations {
                    let summary = results
                        .point(label, n)
                        .and_then(|p| p.summary())
                        .ok_or_else(|| {
                            Error::runtime(format!(
                                "point ({label}, n={n}) of member '{}' has no summary",
                                scenario.name
                            ))
                        })?;
                    let w = scenario.weight / total_weight;
                    throughput += w * summary.norm_throughput.mean;
                    jain += w * summary.jain_fairness.mean;
                }
            }
            let p99_delay_us = delay_by_label.get(label.as_str()).copied().flatten();
            out.push(CandidateObjectives {
                label: label.clone(),
                cw: candidate.cw.clone(),
                dc: candidate.dc.clone(),
                throughput,
                jain_fairness: jain,
                p99_delay_us,
                score: scalarize(throughput, jain, p99_delay_us),
            });
        }
        Ok(out)
    }

    /// Pareto front + recommendation over the final objectives.
    fn verdict(&self, finalists: Vec<CandidateObjectives>) -> Result<BoostArtifact> {
        let baseline = finalists
            .iter()
            .find(|o| o.label == BASELINE_LABEL)
            .cloned()
            .ok_or_else(|| Error::runtime("baseline missing from finalists"))?;
        let pareto: Vec<String> = finalists
            .iter()
            .filter(|a| !finalists.iter().any(|b| dominates(b, a)))
            .map(|o| o.label.clone())
            .collect();
        let recommended = finalists
            .iter()
            .filter(|o| pareto.contains(&o.label))
            .map(|o| Recommendation {
                candidate: o.clone(),
                beats_baseline: beats(o, &baseline),
            })
            .max_by(|a, b| {
                a.beats_baseline
                    .count()
                    .cmp(&b.beats_baseline.count())
                    .then_with(|| a.candidate.score.total_cmp(&b.candidate.score))
                    // Ties break toward the lexicographically *smaller*
                    // label, so the pick is deterministic.
                    .then_with(|| b.candidate.label.cmp(&a.candidate.label))
            })
            .ok_or_else(|| Error::runtime("empty Pareto front"))?;
        Ok(BoostArtifact {
            format_version: BOOST_FORMAT_VERSION,
            space: self.cfg.space.clone(),
            portfolio: self.cfg.portfolio.clone(),
            seed: self.cfg.seed,
            rungs: self.cfg.rungs,
            baseline,
            finalists,
            pareto,
            recommended,
        })
    }

    fn candidate(&self, label: &str) -> Result<&ScheduleCandidate> {
        self.space
            .candidate(label)
            .ok_or_else(|| Error::runtime(format!("unknown candidate label '{label}'")))
    }

    fn count(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(r) = &self.registry {
            r.counter(name).add(n);
        }
    }
}

/// The scalarized pruning score: throughput plus a fairness bonus minus
/// a logarithmic delay penalty (a truncated tail takes a fixed worst
/// penalty). Deterministic in the objectives.
pub fn scalarize(throughput: f64, jain_fairness: f64, p99_delay_us: Option<f64>) -> f64 {
    let delay_penalty = match p99_delay_us {
        Some(us) => 0.1 * (1.0 + us / 1.0e4).ln(),
        None => 2.0,
    };
    throughput + 0.25 * jain_fairness - delay_penalty
}

/// Whether `a` Pareto-dominates `b` over (throughput ↑, fairness ↑,
/// p99 delay ↓): at least as good everywhere, strictly better
/// somewhere. A truncated (`None`) delay tail is worse than any
/// measured one.
pub fn dominates(a: &CandidateObjectives, b: &CandidateObjectives) -> bool {
    let delay = cmp_delay(a.p99_delay_us, b.p99_delay_us);
    let ge = a.throughput >= b.throughput
        && a.jain_fairness >= b.jain_fairness
        && delay != std::cmp::Ordering::Greater;
    let strict = a.throughput > b.throughput
        || a.jain_fairness > b.jain_fairness
        || delay == std::cmp::Ordering::Less;
    ge && strict
}

/// Compare two p99 delays, lower better, `None` (truncated) worst.
fn cmp_delay(a: Option<f64>, b: Option<f64>) -> std::cmp::Ordering {
    match (a, b) {
        (Some(x), Some(y)) => x.total_cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    }
}

/// Objective-by-objective strict comparison against the baseline.
fn beats(candidate: &CandidateObjectives, baseline: &CandidateObjectives) -> BeatsBaseline {
    BeatsBaseline {
        throughput: candidate.throughput > baseline.throughput,
        fairness: candidate.jain_fairness > baseline.jain_fairness,
        p99_delay: cmp_delay(candidate.p99_delay_us, baseline.p99_delay_us)
            == std::cmp::Ordering::Less,
    }
}

/// Read the boost manifest of a run directory.
pub fn read_boost_manifest(dir: &Path) -> Result<BoostManifest> {
    let path = dir.join(BOOST_FILE_NAME);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::runtime(format!("no boost manifest at {}: {e}", path.display())))?;
    serde_json::from_str(&text)
        .map_err(|e| Error::runtime(format!("corrupt boost manifest at {}: {e}", path.display())))
}

/// Render the progress of a boost directory from its manifests and
/// journals alone — safe to run while another process owns the run.
pub fn boost_status(dir: &Path) -> Result<String> {
    let manifest = read_boost_manifest(dir)?;
    let mut out = format!(
        "boost run: space '{}' × portfolio '{}', seed {}, {} rung(s), {} candidate(s)\n",
        manifest.space,
        manifest.portfolio,
        manifest.seed,
        manifest.rungs,
        manifest.candidates.len()
    );
    for rung in 1..=manifest.rungs {
        let rung_dir = dir.join(format!("rung{rung}"));
        if !rung_dir.join(GROUP_FILE_NAME).exists() {
            out.push_str(&format!("  rung{rung}: not started\n"));
            continue;
        }
        for (name, status) in group_status(&rung_dir)? {
            match status {
                Some(s) => out.push_str(&format!("  rung{rung}/{name}: {}\n", s.render())),
                None => out.push_str(&format!("  rung{rung}/{name}: not started\n")),
            }
        }
    }
    out.push_str(if dir.join(PARETO_FILE_NAME).exists() {
        "  artifact: pareto.json written\n"
    } else {
        "  artifact: pending\n"
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(label: &str, thr: f64, jain: f64, p99: Option<f64>) -> CandidateObjectives {
        CandidateObjectives {
            label: label.to_string(),
            cw: vec![8, 16, 32, 64],
            dc: vec![0, 1, 3, 15],
            throughput: thr,
            jain_fairness: jain,
            p99_delay_us: p99,
            score: scalarize(thr, jain, p99),
        }
    }

    #[test]
    fn dominance_needs_a_strict_edge_and_none_delay_loses() {
        let a = obj("a", 0.8, 0.99, Some(100.0));
        let b = obj("b", 0.7, 0.99, Some(200.0));
        let c = obj("c", 0.8, 0.99, Some(100.0));
        let t = obj("t", 0.8, 0.99, None);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        assert!(!dominates(&a, &c), "equal objectives do not dominate");
        assert!(dominates(&a, &t), "a truncated tail is strictly worse");
    }

    #[test]
    fn scalarize_prefers_throughput_and_penalizes_tails() {
        assert!(scalarize(0.8, 1.0, Some(100.0)) > scalarize(0.7, 1.0, Some(100.0)));
        assert!(scalarize(0.8, 1.0, Some(100.0)) > scalarize(0.8, 1.0, None));
        assert!(scalarize(0.8, 1.0, Some(100.0)) > scalarize(0.8, 1.0, Some(1.0e6)));
    }

    #[test]
    fn create_then_create_is_refused_and_resume_checks_the_manifest() {
        let dir = std::env::temp_dir().join(format!("plc_boost_manifest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = BoostConfig::smoke(&dir);
        let _run = BoostRun::create(cfg.clone()).unwrap();
        assert!(
            BoostRun::create(cfg.clone()).is_err(),
            "second create refused"
        );
        assert!(BoostRun::resume(cfg.clone()).is_ok());
        let mut other = cfg;
        other.seed = 7;
        assert!(BoostRun::resume(other).is_err(), "seed mismatch refused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_names_are_refused() {
        let mut cfg = BoostConfig::new(std::env::temp_dir().join("plc_boost_unknown"));
        cfg.space = "nope".to_string();
        assert!(BoostRun::create(cfg.clone()).is_err());
        cfg.space = "tiny".to_string();
        cfg.portfolio = "nope".to_string();
        assert!(BoostRun::create(cfg).is_err());
    }
}
