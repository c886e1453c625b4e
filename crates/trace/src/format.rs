//! The versioned on-disk request-trace format and its tooling.
//!
//! A trace is a plain-text file: a magic/version header, optional `#` comment
//! lines, then one record per line —
//!
//! ```text
//! MOETRACE 1
//! # requests=3 duration=1.5
//! 0 77 64 0 standard
//! 0.25 128 32 0 interactive
//! 1.5 64 128 1 batch
//! ```
//!
//! Each record is `<arrival_secs> <input_len> <gen_len> <session_id> <class>`,
//! whitespace-separated, arrivals non-decreasing. Request ids are *not*
//! serialized: they are assigned from the record index on read, which is exact
//! for every stream the recorder emits (dispatch order equals id order).
//! Arrival stamps round-trip exactly: `f64`'s `Display` output is the shortest
//! string that parses back to the same bits.

use moe_hardware::Seconds;
use moe_workload::{Request, SloClass};
use std::fmt;
use std::path::Path;

/// The first token of every trace file.
pub const TRACE_MAGIC: &str = "MOETRACE";
/// The format version this crate reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Why a trace could not be read.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The first line does not start with [`TRACE_MAGIC`].
    BadMagic {
        /// What the first line actually was.
        found: String,
    },
    /// The header declares a version this crate does not understand.
    UnsupportedVersion {
        /// The declared version.
        found: u32,
    },
    /// A record line is malformed.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(err) => write!(f, "trace I/O error: {err}"),
            TraceError::BadMagic { found } => {
                write!(
                    f,
                    "not a trace file: expected `{TRACE_MAGIC} <version>` header, found `{found}`"
                )
            }
            TraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (this build reads version {TRACE_VERSION})"
                )
            }
            TraceError::Corrupt { line, reason } => {
                write!(f, "corrupt trace at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        TraceError::Io(err)
    }
}

/// Summary statistics of one trace (what `stats` tooling prints).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of requests.
    pub requests: usize,
    /// Arrival span: the last request's arrival stamp.
    pub duration: Seconds,
    /// Mean offered rate in requests/s over the arrival span (0 for
    /// single-instant traces).
    pub arrival_rate: f64,
    /// Mean prompt length in tokens.
    pub mean_input_len: f64,
    /// Mean generation length in tokens.
    pub mean_gen_len: f64,
    /// Number of distinct sessions.
    pub sessions: usize,
    /// Request count per [`SloClass`], indexed by [`SloClass::index`].
    pub class_requests: [usize; 3],
}

/// An ordered, realized arrival stream: the unit the recorder emits, the
/// replayer feeds back, and the phase sampler slices.
///
/// Invariant: requests are sorted by `(arrival, id)` and re-numbered `0..n`
/// in that order, so a trace is always in canonical dispatch order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Builds a trace from any bag of requests: sorts them into dispatch
    /// order `(arrival, id)` and re-numbers ids `0..n` in that order.
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.arrival.key(), r.id));
        for (index, request) in requests.iter_mut().enumerate() {
            request.id = index as u64;
        }
        Trace { requests }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests, in dispatch order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// An owned copy of the request queue, ready for
    /// `ClusterSpec::with_queue` / `ServeSpec::with_queue`.
    pub fn queue(&self) -> Vec<Request> {
        self.requests.clone()
    }

    /// Arrival span: the last request's arrival stamp (zero when empty).
    pub fn duration(&self) -> Seconds {
        self.requests.last().map_or(Seconds::ZERO, |r| r.arrival)
    }

    /// The sub-trace of arrivals in `[start, end)`, rebased so the window
    /// start becomes time zero. Session ids are preserved.
    pub fn slice(&self, start: Seconds, end: Seconds) -> Trace {
        let filtered = self
            .requests
            .iter()
            .filter(|r| r.arrival.key() >= start.key() && r.arrival.key() < end.key())
            .map(|r| {
                let mut r = *r;
                r.arrival = r.arrival - start;
                r
            })
            .collect();
        Trace::new(filtered)
    }

    /// Summary statistics over the whole trace.
    pub fn stats(&self) -> TraceStats {
        let n = self.requests.len();
        let duration = self.duration();
        let mut class_requests = [0usize; 3];
        let mut sessions = std::collections::BTreeSet::new();
        // Summed in u128: u64 token counts cannot overflow it.
        let (mut input_sum, mut gen_sum) = (0u128, 0u128);
        for r in &self.requests {
            class_requests[r.slo_class.index()] += 1;
            sessions.insert(r.session_id);
            input_sum += u128::from(r.input_len);
            gen_sum += u128::from(r.gen_len);
        }
        TraceStats {
            requests: n,
            duration,
            arrival_rate: if duration.as_secs() > 0.0 {
                n as f64 / duration.as_secs()
            } else {
                0.0
            },
            mean_input_len: if n > 0 {
                input_sum as f64 / n as f64
            } else {
                0.0
            },
            mean_gen_len: if n > 0 {
                gen_sum as f64 / n as f64
            } else {
                0.0
            },
            sessions: sessions.len(),
            class_requests,
        }
    }

    /// Serializes the trace to the version-1 text format.
    pub fn render(&self) -> String {
        let stats = self.stats();
        let mut out = String::new();
        out.push_str(&format!("{TRACE_MAGIC} {TRACE_VERSION}\n"));
        out.push_str(&format!(
            "# requests={} duration={} sessions={}\n",
            stats.requests,
            stats.duration.as_secs(),
            stats.sessions
        ));
        for r in &self.requests {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                r.arrival.as_secs(),
                r.input_len,
                r.gen_len,
                r.session_id,
                r.slo_class
            ));
        }
        out
    }

    /// Parses a trace from its text form.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for a
    /// bad header, [`TraceError::Corrupt`] for a malformed or out-of-order
    /// record, or one whose total token count does not fit a `u64`.
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut requests = Vec::new();
        let mut last_arrival = Seconds::ZERO;
        read_records(text, TRACE_MAGIC, |fields: [&str; 5], corrupt| {
            let arrival_secs: f64 = fields[0]
                .parse()
                .map_err(|_| corrupt(format!("bad arrival `{}`", fields[0])))?;
            if !arrival_secs.is_finite() || arrival_secs < 0.0 {
                return Err(corrupt(format!(
                    "arrival `{arrival_secs}` is not a finite non-negative time"
                )));
            }
            let arrival = Seconds::from_secs(arrival_secs);
            if arrival.key() < last_arrival.key() {
                return Err(corrupt(format!(
                    "arrivals must be non-decreasing ({} after {})",
                    arrival_secs,
                    last_arrival.as_secs()
                )));
            }
            last_arrival = arrival;
            let input_len: u64 = fields[1]
                .parse()
                .map_err(|_| corrupt(format!("bad input length `{}`", fields[1])))?;
            let gen_len: u64 = fields[2]
                .parse()
                .map_err(|_| corrupt(format!("bad generation length `{}`", fields[2])))?;
            if input_len.checked_add(gen_len).is_none() {
                return Err(corrupt(format!(
                    "input length {input_len} plus generation length {gen_len} overflows u64"
                )));
            }
            let session_id: u64 = fields[3]
                .parse()
                .map_err(|_| corrupt(format!("bad session id `{}`", fields[3])))?;
            let slo_class = SloClass::from_label(fields[4])
                .ok_or_else(|| corrupt(format!("unknown SLO class `{}`", fields[4])))?;
            let mut request = Request::new(requests.len() as u64, input_len, gen_len)
                .with_session(session_id)
                .with_slo_class(slo_class);
            request.arrival = arrival;
            requests.push(request);
            Ok(())
        })?;
        Ok(Trace { requests })
    }

    /// Writes the trace to `path` in the version-1 text format.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error as [`TraceError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        std::fs::write(path, self.render())?;
        Ok(())
    }

    /// Reads a trace from `path`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, otherwise the same
    /// errors as [`Trace::parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        Trace::parse(&std::fs::read_to_string(path)?)
    }
}

/// The one reader behind [`Trace::parse`] and
/// [`crate::OutcomeLog::parse`]: checks the `<magic> <version>` header,
/// skips blank and `#` lines, and hands each record's `N`
/// whitespace-separated fields to `record`, with the constructor of its
/// line's [`TraceError::Corrupt`].
///
/// # Errors
///
/// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for a bad
/// header, [`TraceError::Corrupt`] for a record without exactly `N` fields,
/// and whatever `record` returns.
pub(crate) fn read_records<const N: usize>(
    text: &str,
    magic: &str,
    mut record: impl FnMut([&str; N], &dyn Fn(String) -> TraceError) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| TraceError::BadMagic {
        found: String::new(),
    })?;
    let bad_magic = || TraceError::BadMagic {
        found: header.to_owned(),
    };
    let mut parts = header.split_whitespace();
    if parts.next() != Some(magic) {
        return Err(bad_magic());
    }
    let version: u32 = (parts.next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad_magic)?;
    if version != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    for (index, line) in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let corrupt = |reason: String| TraceError::Corrupt {
            line: index + 1,
            reason,
        };
        let mut fields = [""; N];
        let mut found = 0;
        for field in trimmed.split_whitespace() {
            if let Some(slot) = fields.get_mut(found) {
                *slot = field;
            }
            found += 1;
        }
        if found != N {
            return Err(corrupt(format!("expected {N} fields, found {found}")));
        }
        record(fields, &corrupt)?;
    }
    Ok(())
}
