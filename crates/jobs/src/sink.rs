//! Incremental result streaming: watch a job's points as they settle.
//!
//! Sinks observe the journal stream — they are fed from the job's
//! collector thread *after* each entry is durably journaled, so a sink
//! never sees a point the journal could lose. Sinks cannot perturb
//! results: they receive shared references and the job ignores their
//! internal failures (a broken pipe mid-sweep must not kill the sweep;
//! check [`JsonlFileSink::error`] afterwards).

use crate::journal::JournalEntry;
use plc_sim::sweep::SweepResults;
use std::io::Write;
use std::path::Path;

/// Receiver of a running job's settled points.
pub trait ResultSink: Send {
    /// One point settled and its journal line is durable.
    fn on_point(&mut self, entry: &JournalEntry);

    /// The job finished; `results` is the complete assembled sweep.
    fn on_complete(&mut self, results: &SweepResults) {
        let _ = results;
    }
}

/// Stream settled points as JSON lines into any writer (a file, a pipe,
/// a buffer). I/O errors are latched, not raised — inspect
/// [`error`](JsonlFileSink::error) after the job.
pub struct JsonlFileSink<W: Write + Send> {
    writer: W,
    written: u64,
    error: Option<std::io::Error>,
}

impl JsonlFileSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncating) `path` and stream settled points into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlFileSink::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> JsonlFileSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        JsonlFileSink {
            writer,
            written: 0,
            error: None,
        }
    }

    /// Entries successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first latched I/O error, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

impl<W: Write + Send> ResultSink for JsonlFileSink<W> {
    fn on_point(&mut self, entry: &JournalEntry) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(entry).expect("journal entry serializes");
        match writeln!(self.writer, "{line}") {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn on_complete(&mut self, _results: &SweepResults) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Stream settled points into an in-process channel — the live-progress
/// hook for dashboards or tests. A disconnected receiver is tolerated
/// (the job outlives its observers).
pub struct ChannelSink {
    tx: std::sync::mpsc::Sender<JournalEntry>,
}

impl ChannelSink {
    /// A sink plus the receiving end of its channel.
    pub fn new() -> (Self, std::sync::mpsc::Receiver<JournalEntry>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (ChannelSink { tx }, rx)
    }
}

impl ResultSink for ChannelSink {
    fn on_point(&mut self, entry: &JournalEntry) {
        let _ = self.tx.send(entry.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::PointOutcome;

    fn entry(idx: usize) -> JournalEntry {
        JournalEntry {
            point_index: idx,
            job_attempts: 1,
            outcome: PointOutcome::TimedOut {
                config: "ca1".into(),
                n: 2,
                point_index: idx,
                timeout_ms: 50,
            },
        }
    }

    #[test]
    fn file_sink_streams_parseable_lines() {
        let mut sink = JsonlFileSink::new(Vec::<u8>::new());
        sink.on_point(&entry(0));
        sink.on_point(&entry(1));
        assert_eq!(sink.written(), 2);
        assert!(sink.error().is_none());
        let text = String::from_utf8(sink.writer.clone()).unwrap();
        let back: Vec<JournalEntry> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, vec![entry(0), entry(1)]);
    }

    #[test]
    fn channel_sink_delivers_and_tolerates_a_dead_receiver() {
        let (mut sink, rx) = ChannelSink::new();
        sink.on_point(&entry(3));
        assert_eq!(rx.recv().unwrap(), entry(3));
        drop(rx);
        sink.on_point(&entry(4)); // must not panic
    }
}
