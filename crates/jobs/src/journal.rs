//! The append-only checkpoint journal and the quarantine ledger.
//!
//! `journal.jsonl` holds one JSON line per *settled* point — settled
//! meaning the job will never execute it again: completed, failed after
//! exhausting retries, or timed out after exhausting retries. Each line
//! is flushed before the job moves on, so after a crash the journal is a
//! prefix of the finished work plus at most one torn line; loading drops
//! the torn tail and a compaction rewrite (atomic temp-file + rename)
//! restores a clean file before new lines are appended.
//!
//! `quarantine.jsonl` records the points that settled *badly*, each with
//! a ready-to-run repro command, so an overnight sweep's failures are
//! triageable without re-running the job.

use plc_sim::sweep::SweepPointResult;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How one point settled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point ran to completion (possibly as a contained
    /// [`Failed`](SweepPointResult::Failed) panic).
    Done(SweepPointResult),
    /// Every attempt hit the per-point watchdog; partial metrics were
    /// discarded (a timed-out point never masquerades as data).
    TimedOut {
        /// Label of the configuration template.
        config: String,
        /// Station count.
        n: usize,
        /// Row-major index of the point in the grid.
        point_index: usize,
        /// The watchdog deadline that fired, milliseconds.
        timeout_ms: u64,
    },
}

impl PointOutcome {
    /// Row-major index of the point this outcome settles.
    pub fn point_index(&self) -> usize {
        match self {
            PointOutcome::Done(r) => r.point_index(),
            PointOutcome::TimedOut { point_index, .. } => *point_index,
        }
    }

    /// Whether the point produced a usable summary.
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Done(r) if r.ok().is_some())
    }

    /// The completed result, for assembling final [`SweepResults`]
    /// (timed-out points are rendered as `Failed` with a deterministic
    /// reason so every grid point stays accounted for).
    ///
    /// [`SweepResults`]: plc_sim::sweep::SweepResults
    pub fn to_point_result(&self) -> SweepPointResult {
        match self {
            PointOutcome::Done(r) => r.clone(),
            PointOutcome::TimedOut {
                config,
                n,
                point_index,
                timeout_ms,
            } => SweepPointResult::Failed {
                config: config.clone(),
                n: *n,
                point_index: *point_index,
                reason: format!("watchdog timeout after {timeout_ms} ms"),
            },
        }
    }
}

/// One settled point as journaled: the outcome plus how many job-level
/// attempts (initial + watchdog/failure retries) it consumed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Row-major index of the settled point.
    pub point_index: usize,
    /// Job-level attempts consumed (1 = settled on the first try).
    pub job_attempts: u32,
    /// How the point settled.
    pub outcome: PointOutcome,
}

/// One quarantined point: a bad settlement plus the exact command that
/// replays it in isolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Row-major index of the quarantined point.
    pub point_index: usize,
    /// Label of the configuration template.
    pub config: String,
    /// Station count.
    pub n: usize,
    /// Job-level attempts consumed before quarantining.
    pub job_attempts: u32,
    /// Why the point was quarantined (panic message or watchdog note).
    pub reason: String,
    /// A shell command replaying exactly this point.
    pub repro: String,
}

/// The open, append-mode journal of one running job.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: std::fs::File,
}

impl Journal {
    /// File name of the journal inside a job directory.
    pub const FILE_NAME: &'static str = "journal.jsonl";

    /// Parse journal text, dropping a torn final line (and anything
    /// unparsable — a journal is only ever appended to by this module,
    /// so garbage means a crash mid-write).
    fn parse(text: &str) -> Vec<JournalEntry> {
        text.lines()
            .filter_map(|l| serde_json::from_str::<JournalEntry>(l).ok())
            .collect()
    }

    /// Load the settled entries under `dir` (empty when no journal
    /// exists yet). Torn tails are dropped, not errors.
    pub fn load(dir: &Path) -> std::io::Result<Vec<JournalEntry>> {
        match std::fs::read_to_string(dir.join(Self::FILE_NAME)) {
            Ok(text) => Ok(Self::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// Atomically rewrite the journal under `dir` to exactly `entries`
    /// (one line each) — this is the compaction that scrubs a torn tail
    /// after a crash, via temp-file + rename. Stray `journal.jsonl.*.tmp`
    /// files a killed writer left behind are removed as well: they were
    /// never renamed into place, so they hold no settled work.
    pub fn compact(dir: &Path, entries: &[JournalEntry]) -> std::io::Result<()> {
        let mut doc = String::new();
        for e in entries {
            doc.push_str(&serde_json::to_string(e).expect("journal entry serializes"));
            doc.push('\n');
        }
        plc_core::fs::atomic_write(dir.join(Self::FILE_NAME), doc.as_bytes())?;
        remove_stray_tmp_files(dir, Self::FILE_NAME);
        Ok(())
    }

    /// Open the journal under `dir` for appending (creating it empty if
    /// absent).
    pub fn open_append(dir: &Path) -> std::io::Result<Journal> {
        let path = dir.join(Self::FILE_NAME);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Journal { path, file })
    }

    /// Append one settled point and flush it to the OS before returning
    /// — after this call the entry survives a `SIGKILL` of the process.
    pub fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        let line = serde_json::to_string(entry).expect("journal entry serializes");
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Best-effort removal of `<file_name>.<pid>.<seq>.tmp` leftovers from
/// writers that were killed mid-`atomic_write`. Such files were never
/// renamed over the destination, so deleting them loses nothing; errors
/// are swallowed because a leftover temp file is cosmetic, not state.
fn remove_stray_tmp_files(dir: &Path, file_name: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{file_name}.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with(&prefix) && name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Append `record` to `quarantine.jsonl` under `dir`, flushed like a
/// journal line.
pub fn append_quarantine(dir: &Path, record: &QuarantineRecord) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(QUARANTINE_FILE_NAME))?;
    let line = serde_json::to_string(record).expect("quarantine record serializes");
    writeln!(file, "{line}")?;
    file.flush()
}

/// File name of the quarantine ledger inside a job directory.
pub const QUARANTINE_FILE_NAME: &str = "quarantine.jsonl";

/// Load the quarantine ledger under `dir` (empty when absent).
pub fn load_quarantine(dir: &Path) -> std::io::Result<Vec<QuarantineRecord>> {
    match std::fs::read_to_string(dir.join(QUARANTINE_FILE_NAME)) {
        Ok(text) => Ok(text
            .lines()
            .filter_map(|l| serde_json::from_str::<QuarantineRecord>(l).ok())
            .collect()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_sim::sweep::SweepPointResult;

    fn entry(idx: usize) -> JournalEntry {
        JournalEntry {
            point_index: idx,
            job_attempts: 1,
            outcome: PointOutcome::TimedOut {
                config: "ca1".into(),
                n: 2,
                point_index: idx,
                timeout_ms: 100,
            },
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plc_jobs_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_appends_load_back_in_order() {
        let dir = temp_dir("order");
        let mut j = Journal::open_append(&dir).unwrap();
        for i in 0..3 {
            j.append(&entry(i)).unwrap();
        }
        drop(j);
        let back = Journal::load(&dir).unwrap();
        assert_eq!(back, vec![entry(0), entry(1), entry(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_compaction_scrubs_it() {
        let dir = temp_dir("torn");
        let mut j = Journal::open_append(&dir).unwrap();
        j.append(&entry(0)).unwrap();
        j.append(&entry(1)).unwrap();
        drop(j);
        // Simulate a crash mid-write: a torn, unparsable final line.
        let path = dir.join(Journal::FILE_NAME);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"point_index\":2,\"job_att");
        std::fs::write(&path, &text).unwrap();
        let back = Journal::load(&dir).unwrap();
        assert_eq!(back, vec![entry(0), entry(1)]);
        Journal::compact(&dir, &back).unwrap();
        let clean = std::fs::read_to_string(&path).unwrap();
        assert_eq!(clean.lines().count(), 2);
        assert!(clean.ends_with('\n'));
        assert_eq!(Journal::load(&dir).unwrap(), back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_tmp_files_are_ignored_by_load_and_cleaned_by_compaction() {
        // A writer SIGKILLed inside `atomic_write` leaves
        // `journal.jsonl.<pid>.<seq>.tmp` behind: never renamed, so it
        // must not contribute entries, and compaction must sweep it.
        let dir = temp_dir("straytmp");
        let mut j = Journal::open_append(&dir).unwrap();
        j.append(&entry(0)).unwrap();
        j.append(&entry(1)).unwrap();
        drop(j);
        let stray = dir.join(format!("{}.99999.7.tmp", Journal::FILE_NAME));
        // Partial bytes of a *valid-looking* entry: if load ever read tmp
        // files, this would parse and corrupt the settled set.
        std::fs::write(&stray, serde_json::to_string(&entry(2)).unwrap()).unwrap();
        let back = Journal::load(&dir).unwrap();
        assert_eq!(back, vec![entry(0), entry(1)], "tmp file leaked into load");
        Journal::compact(&dir, &back).unwrap();
        assert!(!stray.exists(), "compaction left the stray tmp file");
        assert_eq!(Journal::load(&dir).unwrap(), back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_loads_empty() {
        let dir = temp_dir("missing");
        assert!(Journal::load(&dir).unwrap().is_empty());
        assert!(load_quarantine(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timed_out_renders_as_deterministic_failure() {
        let out = entry(4).outcome.to_point_result();
        assert_eq!(out.point_index(), 4);
        assert_eq!(out.failure(), Some("watchdog timeout after 100 ms"));
        assert!(!entry(4).outcome.is_ok());
    }

    #[test]
    fn quarantine_ledger_round_trips() {
        let dir = temp_dir("quarantine");
        let rec = QuarantineRecord {
            point_index: 5,
            config: "ca1".into(),
            n: 4,
            job_attempts: 3,
            reason: "watchdog timeout after 100 ms".into(),
            repro: "experiments job run --grid unit --points 5".into(),
        };
        append_quarantine(&dir, &rec).unwrap();
        let back = load_quarantine(&dir).unwrap();
        assert_eq!(back, vec![rec]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn done_outcome_preserves_the_point_bytes() {
        let point = SweepPointResult::Failed {
            config: "bad".into(),
            n: 2,
            point_index: 1,
            reason: "panic".into(),
        };
        let e = JournalEntry {
            point_index: 1,
            job_attempts: 2,
            outcome: PointOutcome::Done(point.clone()),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: JournalEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.outcome.to_point_result(), point);
    }
}
