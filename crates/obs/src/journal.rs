//! Event journals: the in-memory recorders the engine writes into and
//! the JSONL serialization they round-trip through.
//!
//! A journal file is line-oriented: the first line is the
//! [`JournalHeader`] (versioned, carrying the scheduler name, the run
//! seed and the FNV-1a config fingerprint), every
//! subsequent line one [`Event`]. Line-oriented JSON keeps the format
//! streamable — `dollymp-trace inspect` and the replay verifier both
//! read it without loading structure beyond one line at a time — and
//! diff-friendly for humans.

use crate::config_fingerprint;
use dollymp_cluster::trace::{Event, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Current journal format version. Bump on any schema change; readers
/// reject newer versions instead of misparsing them.
pub const JOURNAL_VERSION: u32 = 1;

/// First line of every journal file: enough provenance to match the
/// journal to the run that produced it. Journals written when the
/// header also carried the two recording flags still load: the reader
/// ignores keys it does not know.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`] at write time).
    pub version: u32,
    /// Scheduler name as reported by `Scheduler::name` (matches
    /// `SimReport::scheduler`).
    pub scheduler: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// [`config_fingerprint`] of `(seed, experiment config)` — 16 hex
    /// digits, same convention as the `dollymp-bench` artifacts.
    pub config_fingerprint: String,
}

/// An unbounded in-memory journal: header plus every event of one run,
/// in emission order. This is the [`Recorder`] to pass to
/// `try_simulate_with_faults_recorded` when the full stream is wanted
/// (replay verification, JSONL export, series folding).
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Run provenance (first line of the JSONL form).
    pub header: JournalHeader,
    /// The event stream, in emission order.
    pub events: Vec<Event>,
}

impl Journal {
    /// Journal for a run of `scheduler` with the given seed and
    /// experiment config (fingerprinted into the header).
    pub fn for_run<T: Serialize>(scheduler: &str, seed: u64, config: &T) -> Journal {
        Journal {
            header: JournalHeader {
                version: JOURNAL_VERSION,
                scheduler: scheduler.to_string(),
                seed,
                config_fingerprint: config_fingerprint(seed, config),
            },
            events: Vec::new(),
        }
    }

    /// Serialize to the JSONL form: header line, then one event per
    /// line, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        #[allow(clippy::expect_used)] // trace events serialize infallibly
        {
            out.push_str(&serde_json::to_string(&self.header).expect("header serializes"));
            out.push('\n');
            for ev in &self.events {
                out.push_str(&serde_json::to_string(ev).expect("event serializes"));
                out.push('\n');
            }
        }
        out
    }

    /// Parse the JSONL form produced by [`Journal::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Journal, JournalError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, first) = lines.next().ok_or(JournalError::Empty)?;
        let header: JournalHeader =
            serde_json::from_str(first).map_err(|e| JournalError::BadLine {
                line: 1,
                detail: e.to_string(),
            })?;
        if header.version > JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion(header.version));
        }
        let mut events = Vec::new();
        for (i, line) in lines {
            let ev: Event = serde_json::from_str(line).map_err(|e| JournalError::BadLine {
                line: i + 1,
                detail: e.to_string(),
            })?;
            events.push(ev);
        }
        Ok(Journal { header, events })
    }

    /// Write the JSONL form to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Read a journal back from a JSONL file.
    pub fn load(path: &std::path::Path) -> Result<Journal, JournalError> {
        let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io(e.to_string()))?;
        Journal::from_jsonl(&text)
    }
}

impl Recorder for Journal {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// Why a journal file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file had no non-blank lines.
    Empty,
    /// The header declared a version newer than this reader.
    UnsupportedVersion(u32),
    /// A line was not valid header/event JSON (1-based line number).
    BadLine {
        /// 1-based line number of the offending line.
        line: usize,
        /// Parser message.
        detail: String,
    },
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Empty => write!(f, "journal is empty (missing header line)"),
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "journal version {v} is newer than supported {JOURNAL_VERSION}"
                )
            }
            JournalError::BadLine { line, detail } => {
                write!(f, "journal line {line}: {detail}")
            }
            JournalError::Io(e) => write!(f, "journal read failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A bounded recorder keeping only the most recent `capacity` events —
/// the "flight recorder" proper, for long runs where only the tail
/// matters (e.g. capturing the lead-up to a guard quarantine or an
/// engine error without the memory cost of the full stream).
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted from the front to honor the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the retained tail into a vector, oldest first.
    pub fn into_events(self) -> Vec<Event> {
        self.buf.into_iter().collect()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, ev: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dollymp_core::time::Time;

    fn tick(at: Time) -> Event {
        Event::SlotTick { at }
    }

    #[test]
    fn jsonl_round_trip_preserves_journal() {
        let mut j = Journal::for_run("fifo", 9, &"cfg");
        j.record(tick(0));
        j.record(tick(3));
        let text = j.to_jsonl();
        // An archived header that still carries the retired recording
        // flags loads to the same journal.
        let archived = text.replacen(
            "}\n",
            ",\"record_utilization\":true,\"record_timeline\":false}\n",
            1,
        );
        assert_ne!(archived, text);
        for input in [text, archived] {
            assert_eq!(Journal::from_jsonl(&input).unwrap(), j, "{input}");
        }
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut j = Journal::for_run("fifo", 9, &"cfg");
        j.header.version = JOURNAL_VERSION + 1;
        match Journal::from_jsonl(&j.to_jsonl()) {
            Err(JournalError::UnsupportedVersion(v)) => assert_eq!(v, JOURNAL_VERSION + 1),
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn bad_event_line_is_located() {
        let mut text = Journal::for_run("fifo", 9, &"cfg").to_jsonl();
        text.push_str("{\"NotAnEvent\":{}}\n");
        match Journal::from_jsonl(&text) {
            Err(JournalError::BadLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected bad-line error, got {other:?}"),
        }
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut r = RingRecorder::new(3);
        for t in 0..10 {
            r.record(tick(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let kept: Vec<Time> = r.events().map(|e| e.at()).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }
}
