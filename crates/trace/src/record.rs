//! Recording: turn any serving run into a [`Trace`] and its [`OutcomeLog`].

use crate::format::Trace;
use crate::outcome::{OutcomeKind, OutcomeLog, RequestOutcome};
use moe_hardware::Seconds;
use moe_lightning::{TelemetryEvent, TelemetrySink};
use moe_workload::{Request, SloClass};
use std::sync::{Mutex, MutexGuard};

/// A `TelemetrySink` that records a run's realized arrival stream and each
/// request's terminal verdict.
///
/// Each `Arrival` event is rebuilt into its [`Request`], once per offered
/// request; each `Completed`, `Rejected` and `Aborted` event becomes a
/// [`RequestOutcome`]. Install it with `with_telemetry`, run the scenario,
/// then save [`TraceRecorder::trace`] and [`TraceRecorder::outcomes`]:
///
/// ```no_run
/// use moe_lightning::{ClusterEvaluator, ClusterSpec, EvalSetting, SystemKind};
/// use moe_trace::TraceRecorder;
/// use moe_workload::WorkloadSpec;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let recorder = Arc::new(TraceRecorder::new());
/// let spec = ClusterSpec::homogeneous(
///     SystemKind::MoeLightning,
///     WorkloadSpec::mtbench(),
///     &EvalSetting::S1.node(),
///     4,
/// )
/// .with_telemetry(recorder.clone());
/// ClusterEvaluator::new(EvalSetting::S1.model()).run(&spec)?;
/// recorder.trace().save("run.trace")?;
/// recorder.outcomes().save("run.outcomes")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    requests: Mutex<Vec<Request>>,
    outcomes: Mutex<Vec<RequestOutcome>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arrivals recorded so far.
    pub fn len(&self) -> usize {
        lock(&self.requests).len()
    }

    /// Whether no arrival has been recorded yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.requests).is_empty()
    }

    /// The recorded stream as a canonical [`Trace`] (sorted, re-numbered).
    pub fn trace(&self) -> Trace {
        Trace::new(lock(&self.requests).clone())
    }

    /// The recorded verdicts as a canonical [`OutcomeLog`].
    pub fn outcomes(&self) -> OutcomeLog {
        OutcomeLog::new(lock(&self.outcomes).clone())
    }
}

impl TelemetrySink for TraceRecorder {
    fn event(&self, event: &TelemetryEvent) {
        let (id, kind, finish_secs) = match *event {
            TelemetryEvent::Arrival {
                id,
                input_len,
                gen_len,
                session,
                class,
                at,
            } => {
                let mut request = Request::new(id, input_len, gen_len)
                    .with_session(session)
                    .with_slo_class(
                        SloClass::from_label(class).expect("arrivals carry an SloClass label"),
                    );
                request.arrival = Seconds::from_secs(at);
                lock(&self.requests).push(request);
                return;
            }
            TelemetryEvent::Completed {
                id, completion_s, ..
            } => (id, OutcomeKind::Completed, completion_s),
            TelemetryEvent::Rejected { id, at, .. } => (id, OutcomeKind::Rejected, at),
            TelemetryEvent::Aborted { id, at } => (id, OutcomeKind::Aborted, at),
            _ => return,
        };
        lock(&self.outcomes).push(RequestOutcome {
            id,
            kind,
            finish_secs,
        });
    }
}

fn lock<T>(log: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    log.lock().expect("trace recorder lock poisoned")
}
