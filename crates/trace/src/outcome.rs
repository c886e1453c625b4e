//! Outcome sidecars: per-request terminal verdicts recorded from telemetry.
//!
//! A [`Trace`](crate::Trace) captures what *arrived*; an [`OutcomeLog`]
//! captures what *happened to it* — for every request id, whether the run
//! completed, rejected, or aborted it, and when. The log is recorded live by
//! the same [`TraceRecorder`](crate::TraceRecorder) that records the trace
//! (see [`TraceRecorder::outcomes`](crate::TraceRecorder::outcomes)), and
//! serializes to a versioned sidecar text format next to the trace itself:
//!
//! ```text
//! MOEOUTCOME 1
//! # outcomes=3 completed=2 rejected=1 aborted=0
//! 0 completed 4.25
//! 1 rejected 0.5
//! 2 completed 6.75
//! ```
//!
//! Each record is `<request_id> <verdict> <finish_secs>`, sorted by request
//! id. `finish_secs` is the simulation instant the verdict landed: the
//! completion instant for completed requests, the rejection or abort
//! instant otherwise. Replaying a recorded trace through the originating spec must
//! reproduce the outcome log exactly — `tests/trace_roundtrip.rs` pins that.

use crate::format::{read_records, TraceError, TRACE_VERSION};
use std::fmt;
use std::path::Path;

/// The first token of every outcome sidecar file.
pub const OUTCOME_MAGIC: &str = "MOEOUTCOME";

/// How a request's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeKind {
    /// Served to completion.
    Completed,
    /// Refused admission by the router's SLO screen.
    Rejected,
    /// Dropped: oversized for every replica, or stranded by churn at
    /// end of run.
    Aborted,
}

impl OutcomeKind {
    /// The serialized label (`completed` / `rejected` / `aborted`).
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Rejected => "rejected",
            OutcomeKind::Aborted => "aborted",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "completed" => Some(OutcomeKind::Completed),
            "rejected" => Some(OutcomeKind::Rejected),
            "aborted" => Some(OutcomeKind::Aborted),
            _ => None,
        }
    }
}

impl fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One request's terminal verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// The request id (matches the trace's canonical numbering).
    pub id: u64,
    /// How the request ended.
    pub kind: OutcomeKind,
    /// The simulation instant the verdict landed: the completion instant
    /// for completed requests, the rejection/abort instant otherwise.
    pub finish_secs: f64,
}

/// A full run's worth of terminal verdicts, sorted by request id.
///
/// Invariant: at most one outcome per request id; construction keeps the
/// last verdict recorded for an id (requests rerouted around churn end
/// exactly once, so in practice verdicts are already unique).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutcomeLog {
    outcomes: Vec<RequestOutcome>,
}

impl OutcomeLog {
    /// Builds a log from any bag of outcomes: sorts by request id and keeps
    /// the last verdict per id.
    pub fn new(mut outcomes: Vec<RequestOutcome>) -> Self {
        outcomes.sort_by_key(|o| o.id);
        outcomes.dedup_by(|next, kept| {
            if next.id == kept.id {
                *kept = *next;
                true
            } else {
                false
            }
        });
        OutcomeLog { outcomes }
    }

    /// Number of recorded outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the log holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The outcomes, sorted by request id.
    pub fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Number of outcomes with the given verdict.
    pub fn count(&self, kind: OutcomeKind) -> usize {
        self.outcomes.iter().filter(|o| o.kind == kind).count()
    }

    /// Serializes the log to the version-1 sidecar text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{OUTCOME_MAGIC} {TRACE_VERSION}\n"));
        out.push_str(&format!(
            "# outcomes={} completed={} rejected={} aborted={}\n",
            self.outcomes.len(),
            self.count(OutcomeKind::Completed),
            self.count(OutcomeKind::Rejected),
            self.count(OutcomeKind::Aborted),
        ));
        for o in &self.outcomes {
            out.push_str(&format!("{} {} {}\n", o.id, o.kind, o.finish_secs));
        }
        out
    }

    /// Parses a log from its text form.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for a
    /// bad header, [`TraceError::Corrupt`] for a malformed record.
    pub fn parse(text: &str) -> Result<OutcomeLog, TraceError> {
        let mut outcomes = Vec::new();
        read_records(text, OUTCOME_MAGIC, |fields: [&str; 3], corrupt| {
            let id: u64 = fields[0]
                .parse()
                .map_err(|_| corrupt(format!("bad request id `{}`", fields[0])))?;
            let kind = OutcomeKind::from_label(fields[1])
                .ok_or_else(|| corrupt(format!("unknown verdict `{}`", fields[1])))?;
            let finish_secs: f64 = fields[2]
                .parse()
                .map_err(|_| corrupt(format!("bad finish time `{}`", fields[2])))?;
            if !finish_secs.is_finite() || finish_secs < 0.0 {
                return Err(corrupt(format!(
                    "finish time `{finish_secs}` is not a finite non-negative time"
                )));
            }
            outcomes.push(RequestOutcome {
                id,
                kind,
                finish_secs,
            });
            Ok(())
        })?;
        Ok(OutcomeLog::new(outcomes))
    }

    /// Writes the log to `path` in the version-1 sidecar text format.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error as [`TraceError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path, self.render())?;
        Ok(())
    }

    /// Reads a log from `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, otherwise the same
    /// errors as [`OutcomeLog::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<OutcomeLog, TraceError> {
        OutcomeLog::parse(&std::fs::read_to_string(path)?)
    }
}
