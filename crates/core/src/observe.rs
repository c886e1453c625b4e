//! Telemetry wiring for the fleet loop: every [`TelemetrySink`] emission
//! site in `crates/core` funnels through the helpers here. A sink is the one
//! observation hook: `Arrival` carries the whole request, so even trace
//! recording (`moe_trace::TraceRecorder`) is a sink.
//!
//! The design invariant is that observation never perturbs the run:
//!
//! * every helper is a no-op (one `Option` check) unless a sink is installed
//!   via [`ClusterSpec::with_telemetry`] (or `ServeSpec::with_telemetry`,
//!   whose single-node run is a 1-replica fleet on the same loop), so the
//!   unattached hot path does zero telemetry work;
//! * all emissions happen in deterministic simulation order, one settled
//!   event at a time;
//! * nothing here reads back into routing, admission or costing, so an
//!   attached sink (recording or [`moe_telemetry::NoopSink`]) produces a
//!   bit-identical [`crate::ClusterReport`] to an unattached run (pinned by
//!   `tests/telemetry_conservation.rs` and the `scale_sweep` overhead gate).
//!
//! Time-series sampling rides the global clock: when the sink asks for an
//! interval, the fleet loop emits every sample due before it settles the
//! next event, so gauge snapshots are taken from exact event-ordered state,
//! and one closing snapshot is always emitted so end-of-run gauges (e.g.
//! cumulative prefix-cache hits) reconcile with the report.
//!
//! Observation reads the loop's own ledgers rather than re-deriving them:
//!
//! * the self-profile is one `[SpanReport; 4]` per run, kept in the
//!   `EventScratch` every replica step receives, so the loop's sections and
//!   each engine's scheduler planning write into the same array;
//! * the end-of-run aborts are each engine's `aborted_requests`, the list
//!   its report is built from;
//! * a scale event's census is the membership and fleet view the
//!   autoscaler has just observed.

use crate::cluster::{ClusterSpec, FleetLoop, ReplicaId};
use crate::engine::{EventScratch, Lifecycle};
use moe_hardware::Seconds;
use moe_telemetry::{FleetSample, ReplicaSample, Section, TelemetryEvent, TelemetrySink};
use moe_workload::{Request, RequestLatency};
use std::sync::Arc;
use std::time::Instant;

impl ClusterSpec {
    /// Installs a [`TelemetrySink`] observing the run: structured events
    /// (arrivals, routing, admission, completions, lifecycle, scaling,
    /// migrations), fleet gauge samples on the global clock, and the
    /// simulator's self-profiling roll-up. The report is bit-identical with
    /// and without a sink.
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }
}

/// The sampling cursor carried by [`FleetLoop`]: the sink's interval
/// ([`ClusterSpec::validate`] holds it finite and positive) and the next
/// sample's instant.
pub(crate) struct ObsState {
    interval: Option<Seconds>,
    next_sample_at: Seconds,
}

impl ObsState {
    pub(crate) fn new(spec: &ClusterSpec) -> Self {
        let interval = spec
            .telemetry
            .as_ref()
            .and_then(|sink| sink.sample_interval())
            .map(Seconds::from_secs);
        ObsState {
            interval,
            next_sample_at: interval.unwrap_or(Seconds::ZERO),
        }
    }
}

impl EventScratch {
    /// Starts a wall-clock span when the run is profiled (`None`
    /// otherwise, so unobserved runs never touch the clock).
    #[inline]
    pub(crate) fn span_start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Closes a span opened by [`Self::span_start`] into `section`'s slot.
    #[inline]
    pub(crate) fn span_end(&mut self, section: Section, start: Option<Instant>) {
        if let (Some(profile), Some(t0)) = (self.profile.as_mut(), start) {
            let span = &mut profile[section as usize];
            span.calls += 1;
            span.nanos += t0.elapsed().as_nanos() as u64;
        }
    }
}

fn lifecycle_label(lifecycle: Lifecycle) -> &'static str {
    match lifecycle {
        Lifecycle::Provisioning { .. } => "provisioning",
        Lifecycle::Serving => "serving",
        Lifecycle::Draining { .. } => "draining",
        Lifecycle::Departed { .. } => "departed",
    }
}

impl FleetLoop<'_> {
    #[inline]
    fn sink(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.spec.telemetry.as_ref()
    }

    /// A new arrival entered the offered load (the whole request, stamped).
    #[inline]
    pub(crate) fn note_arrival(&self, request: &Request, at: Seconds) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Arrival {
                id: request.id,
                input_len: request.input_len,
                gen_len: request.gen_len,
                session: request.session_id,
                class: request.slo_class.label(),
                at: at.as_secs(),
            });
        }
    }

    /// The router chose `replica` out of `considered` candidates.
    #[inline]
    pub(crate) fn note_routed(
        &self,
        request: &Request,
        replica: ReplicaId,
        considered: usize,
        at: Seconds,
    ) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Routed {
                id: request.id,
                replica: replica.0,
                considered,
                at: at.as_secs(),
            });
        }
    }

    /// The request was enqueued on `replica`.
    #[inline]
    pub(crate) fn note_admitted(&self, request: &Request, replica: ReplicaId, at: Seconds) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Admitted {
                id: request.id,
                replica: replica.0,
                at: at.as_secs(),
            });
        }
    }

    /// Records an admission-control rejection (event + availability ledger).
    pub(crate) fn reject(
        &mut self,
        request: Request,
        replica: ReplicaId,
        projected: Seconds,
        at: Seconds,
    ) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Rejected {
                id: request.id,
                replica: replica.0,
                projected_ttft_s: projected.as_secs(),
                at: at.as_secs(),
            });
        }
        self.availability.rejected.push(request);
    }

    /// Records a fleet-level abort (event + the report's aborted list).
    pub(crate) fn abort(&mut self, request: Request, at: Seconds) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Aborted {
                id: request.id,
                at: at.as_secs(),
            });
        }
        self.fleet_aborted.push(request);
    }

    /// Re-dispatches a churn-displaced (or migration-lost) request: marks it
    /// re-routed, emits the event, and sends it back through dispatch without
    /// re-screening.
    pub(crate) fn redispatch(&mut self, request: Request, at: Seconds) {
        self.availability.rerouted.push(request.id);
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Rerouted {
                id: request.id,
                at: at.as_secs(),
            });
        }
        self.dispatch(request, at, false);
    }

    /// A request completed on `replica` (a prefill-only handoff never does).
    #[inline]
    pub(crate) fn note_completed(&self, replica: usize, latency: &RequestLatency, at: Seconds) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Completed {
                id: latency.request.id,
                replica,
                input_len: latency.request.input_len,
                gen_len: latency.request.gen_len,
                class: latency.request.slo_class.label(),
                arrival_s: latency.request.arrival.as_secs(),
                ttft_s: latency.ttft.as_secs(),
                per_token_s: latency.per_token.as_secs(),
                completion_s: at.as_secs(),
            });
        }
    }

    /// A replica entered lifecycle state `to`.
    #[inline]
    pub(crate) fn note_lifecycle(&self, replica: usize, to: &'static str, at: Seconds) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::Lifecycle {
                replica,
                to,
                at: at.as_secs(),
            });
        }
    }

    /// The autoscaler acted (`up` / `down`), with the census it observed
    /// at the decision instant: `serving` replicas, `queued` requests on
    /// them.
    pub(crate) fn note_scale(
        &self,
        decision: &'static str,
        serving: usize,
        queued: usize,
        at: Seconds,
    ) {
        let Some(sink) = self.sink() else { return };
        sink.event(&TelemetryEvent::Scale {
            decision,
            serving,
            queued: queued as u64,
            at: at.as_secs(),
        });
    }

    /// A KV slice went on the wire from `from` to `to`, landing at `eta`.
    pub(crate) fn note_migration_start(
        &self,
        request: &Request,
        from: usize,
        to: usize,
        eta: Seconds,
        at: Seconds,
    ) {
        if let Some(sink) = self.sink() {
            sink.event(&TelemetryEvent::MigrationStart {
                id: request.id,
                from,
                to,
                kv_tokens: request.input_len,
                eta_s: eta.as_secs(),
                at: at.as_secs(),
            });
        }
    }

    /// An in-flight migration landed on (`landed`) or was lost with (`!landed`)
    /// its destination.
    pub(crate) fn note_migration_end(
        &self,
        request: &Request,
        to: usize,
        landed: bool,
        at: Seconds,
    ) {
        if let Some(sink) = self.sink() {
            let event = if landed {
                TelemetryEvent::MigrationComplete {
                    id: request.id,
                    to,
                    at: at.as_secs(),
                }
            } else {
                TelemetryEvent::MigrationLost {
                    id: request.id,
                    to,
                    at: at.as_secs(),
                }
            };
            sink.event(&event);
        }
    }

    /// Emits every periodic gauge sample due at or before `t` (state as of
    /// the last settled event, which is exact — nothing changes between
    /// events) and advances the sampling cursor past `t`.
    pub(crate) fn maybe_sample_to(&mut self, t: Seconds) {
        let Some(interval) = self.obs.interval else {
            return;
        };
        while self.obs.next_sample_at <= t {
            let next = self.obs.next_sample_at;
            let sample = self.fleet_sample(next);
            if let Some(sink) = self.sink() {
                sink.sample(&sample);
            }
            self.obs.next_sample_at = next + interval;
        }
    }

    /// End-of-run observation: emits an abort for each request the
    /// engines' reports will list aborted, emits the closing gauge snapshot,
    /// and hands the sink the run's self-profile ledger.
    pub(crate) fn finish_observation(&mut self) {
        let Some(sink) = self.sink().map(Arc::clone) else {
            return;
        };
        let end = self
            .engines
            .iter()
            .map(|e| e.now())
            .fold(Seconds::ZERO, Seconds::max);
        for engine in &mut self.engines {
            for request in engine.aborted_requests() {
                sink.event(&TelemetryEvent::Aborted {
                    id: request.id,
                    at: end.as_secs(),
                });
            }
        }
        self.maybe_sample_to(end);
        sink.sample(&self.fleet_sample(end));
        let profile = self.scratch.profile.unwrap_or_default();
        for (section, span) in Section::ALL.into_iter().zip(profile) {
            if span.calls > 0 {
                sink.span(section, span.calls, span.nanos);
            }
        }
    }

    /// One fleet-wide gauge snapshot at instant `at`, summing every replica
    /// the fleet has ever had (departed replicas keep contributing their
    /// cumulative cache counters, so the final sample reconciles with the
    /// report).
    fn fleet_sample(&self, at: Seconds) -> FleetSample {
        let mut sample = FleetSample {
            at: at.as_secs(),
            migrations_in_flight: self.agenda.landings(),
            ..FleetSample::default()
        };
        for engine in &self.engines {
            let view = self.view(engine.id.0);
            match engine.lifecycle {
                Lifecycle::Provisioning { .. } => sample.provisioning += 1,
                Lifecycle::Serving => sample.serving += 1,
                Lifecycle::Draining { .. } => sample.draining += 1,
                Lifecycle::Departed { .. } => sample.departed += 1,
            }
            sample.queued += view.queued_requests as u64;
            sample.active += view.active_requests as u64;
            sample.outstanding_tokens += view.outstanding_tokens;
            sample.kv_projected += view.kv_projected;
            sample.kv_migrating_in += view.kv_migrating_in;
            sample.cache_hits += view.cache_stats.hits;
            sample.cache_misses += view.cache_stats.misses;
            sample.cache_hit_tokens += view.cache_stats.hit_tokens;
            sample.replicas.push(ReplicaSample {
                replica: view.id.0,
                lifecycle: lifecycle_label(engine.lifecycle),
                queued: view.queued_requests as u64,
                active: view.active_requests as u64,
                outstanding_tokens: view.outstanding_tokens,
                kv_projected: view.kv_projected,
                kv_capacity: view.kv_capacity,
                kv_migrating_in: view.kv_migrating_in,
                decode_rate: view.decode_rate,
                cache_hits: view.cache_stats.hits,
                cache_misses: view.cache_stats.misses,
                cache_hit_tokens: view.cache_stats.hit_tokens,
            });
        }
        sample
    }
}
