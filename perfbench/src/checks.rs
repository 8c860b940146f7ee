//! Output checks. A failed check counts the operation as failed in the
//! run's [`Tally`]; it never aborts the run, so one bad result shows up
//! as `failed` next to everything that did work.

use plc_boost::BoostArtifact;
use plc_sim::SimReport;
use std::path::Path;

/// Operations attempted and failed in one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Why the first failed operation failed.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation with the outcome of its checks.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Failed operations over operations attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn unit_interval(name: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{name} = {value} lies outside [0, 1]"))
    }
}

/// Normalized throughput adds up over isolated cells, so it may exceed 1;
/// it must still be a finite share that is not negative.
fn throughput(name: &str, value: f64) -> Result<(), String> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{name} = {value} is not a finite, non-negative share"
        ))
    }
}

/// One simulation: every probability in [0, 1], a valid throughput and
/// at least one transmission.
pub fn sim_report(report: &SimReport) -> Result<(), String> {
    unit_interval("collision_probability", report.collision_probability)?;
    unit_interval("jain_fairness", report.jain_fairness)?;
    throughput("norm_throughput", report.norm_throughput)?;
    if report.successes + report.collided_tx == 0 {
        return Err("the simulation made no transmissions".to_string());
    }
    Ok(())
}

/// A boosting artifact as written to disk: a non-empty front, the
/// recommendation on it, and every objective in range.
pub fn pareto(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let artifact: BoostArtifact =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if artifact.pareto.is_empty() {
        return Err("pareto.json has an empty front".to_string());
    }
    let label = &artifact.recommended.candidate.label;
    if !artifact.pareto.contains(label) {
        return Err(format!("recommended '{label}' is not on the front"));
    }
    for c in artifact.finalists.iter().chain([&artifact.baseline]) {
        throughput(&format!("{} throughput", c.label), c.throughput)?;
        unit_interval(&format!("{} jain_fairness", c.label), c.jain_fairness)?;
    }
    Ok(())
}
