//! Named candidate-schedule search spaces.
//!
//! A [`SearchSpace`] is a deterministic, code-defined enumeration of
//! (CW, DC) schedules; the optimizer never mutates it, so a space
//! *name* in the on-disk boost manifest pins the exact candidate set a
//! resumed search replays against. Every space contains the IEEE 1901
//! CA0/CA1 default as candidate 0 under [`BASELINE_LABEL`] — it is the
//! yardstick every objective is compared to and is exempt from pruning.

use plc_core::config::{CsmaConfig, DC_DISABLED};
use plc_core::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// Label of the IEEE 1901 CA0/CA1 default schedule present in every
/// space.
pub const BASELINE_LABEL: &str = "ca1-default";

/// One candidate (CW, DC) schedule, identified by a stable label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleCandidate {
    /// Stable label; becomes the sweep-config label in confirm rungs.
    pub label: String,
    /// Per-stage contention windows.
    pub cw: Vec<u32>,
    /// Per-stage deferral counters ([`DC_DISABLED`] = no deferral).
    pub dc: Vec<u32>,
}

impl ScheduleCandidate {
    /// A candidate from explicit vectors.
    pub fn new(label: impl Into<String>, cw: Vec<u32>, dc: Vec<u32>) -> Self {
        ScheduleCandidate {
            label: label.into(),
            cw,
            dc,
        }
    }

    /// A candidate copying an existing configuration's table.
    pub fn from_config(label: impl Into<String>, config: &CsmaConfig) -> Self {
        ScheduleCandidate::new(label, config.cw_vector(), config.dc_vector())
    }

    /// Build the runnable configuration.
    pub fn config(&self) -> Result<CsmaConfig> {
        CsmaConfig::from_vectors(&self.cw, &self.dc)
            .map_err(|e| Error::invalid_config(format!("candidate '{}': {e}", self.label)))
    }
}

/// A named, deterministic candidate enumeration. Candidate 0 is always
/// the [`BASELINE_LABEL`] default schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Registry name (`default`, `tiny`).
    pub name: String,
    /// Candidates in enumeration order; labels are unique.
    pub candidates: Vec<ScheduleCandidate>,
}

impl SearchSpace {
    /// Look a space up by registry name.
    pub fn named(name: &str) -> Option<SearchSpace> {
        match name {
            "default" => Some(Self::default_space()),
            "tiny" => Some(Self::tiny_space()),
            _ => None,
        }
    }

    /// The known space names, for usage lines.
    pub fn names() -> &'static [&'static str] {
        &["default", "tiny"]
    }

    /// The full production space: the baseline plus the cross product of
    /// `CW₀ ∈ {4, 8, 16, 32, 64, 128}` × window growth `g ∈ {1, 2, 4}`
    /// (`CW_i = CW₀·gⁱ`, four stages, capped at 2¹⁶) × deferral pattern
    /// `{standard 1901, aggressive, off}` — 55 candidates. E3
    /// (`experiments boost`) ranks this space at one saturated N.
    pub fn default_space() -> SearchSpace {
        Self::enumerated("default", &[4, 8, 16, 32, 64, 128], &[1, 2, 4], true)
    }

    /// A 5-candidate space for CI smoke runs: the baseline plus
    /// `CW₀ ∈ {8, 32}` × doubling windows × deferral `{standard, off}`.
    pub fn tiny_space() -> SearchSpace {
        Self::enumerated("tiny", &[8, 32], &[2], false)
    }

    fn enumerated(name: &str, cw0s: &[u32], growths: &[u32], aggressive: bool) -> SearchSpace {
        const STAGES: usize = 4;
        let standard_dc = [0u32, 1, 3, 15];
        let aggressive_dc = [0u32, 0, 1, 3];
        let off_dc = [DC_DISABLED; STAGES];
        let mut dc_patterns: Vec<(&str, [u32; STAGES])> = vec![("dc1901", standard_dc)];
        if aggressive {
            dc_patterns.push(("dcaggr", aggressive_dc));
        }
        dc_patterns.push(("dcoff", off_dc));

        let mut candidates = vec![ScheduleCandidate::from_config(
            BASELINE_LABEL,
            &CsmaConfig::ieee1901_ca01(),
        )];
        for &cw0 in cw0s {
            for &g in growths {
                let cw: Vec<u32> = (0..STAGES)
                    .map(|i| ((cw0 as u64) * (g as u64).pow(i as u32)).min(1 << 16) as u32)
                    .collect();
                for (dc_name, dc) in &dc_patterns {
                    candidates.push(ScheduleCandidate::new(
                        format!("cw{cw0}-g{g}-{dc_name}"),
                        cw.clone(),
                        dc.to_vec(),
                    ));
                }
            }
        }
        SearchSpace {
            name: name.to_string(),
            candidates,
        }
    }

    /// The baseline candidate (always present, always index 0).
    pub fn baseline(&self) -> &ScheduleCandidate {
        &self.candidates[0]
    }

    /// Candidate labels in enumeration order.
    pub fn labels(&self) -> Vec<String> {
        self.candidates.iter().map(|c| c.label.clone()).collect()
    }

    /// The candidate with the given label.
    pub fn candidate(&self, label: &str) -> Option<&ScheduleCandidate> {
        self.candidates.iter().find(|c| c.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_is_pinned_and_valid() {
        let space = SearchSpace::default_space();
        assert_eq!(space.candidates.len(), 55);
        assert_eq!(space.baseline().label, BASELINE_LABEL);
        let mut labels = space.labels();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 55, "labels must be unique");
        for c in &space.candidates {
            c.config().expect("every candidate builds");
        }
    }

    #[test]
    fn tiny_space_is_small_and_contains_the_baseline() {
        let space = SearchSpace::tiny_space();
        assert_eq!(space.candidates.len(), 5);
        assert_eq!(space.baseline().label, BASELINE_LABEL);
        assert!(space.candidate("cw8-g2-dc1901").is_some());
    }

    #[test]
    fn baseline_matches_the_1901_default_table() {
        let space = SearchSpace::named("default").unwrap();
        let cfg = space.baseline().config().unwrap();
        let default = CsmaConfig::ieee1901_ca01();
        assert_eq!(cfg.cw_vector(), default.cw_vector());
        assert_eq!(cfg.dc_vector(), default.dc_vector());
    }
}
