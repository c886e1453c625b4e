//! Fleet-wide telemetry for the serving simulator: structured event tracing,
//! metrics time-series sampled on the global clock, and self-profiling of the
//! simulator's own hot sections.
//!
//! The crate is deliberately tiny and dependency-light: everything the
//! simulator emits flows through one trait, [`TelemetrySink`], installed on a
//! spec via `ClusterSpec::with_telemetry` / `ServeSpec::with_telemetry` in
//! `moe-lightning`. A spec without a sink does literally zero telemetry work
//! (every emission site is behind an `Option` check), and [`NoopSink`]
//! compiles to empty inlined calls, so the fleet-scale hot path is unaffected
//! unless a run opts in.
//!
//! Three data shapes cross the trait:
//!
//! * [`TelemetryEvent`] — one structured record per simulation event:
//!   arrivals, routing decisions (chosen replica + candidates considered),
//!   admission verdicts, completions with their realized latencies, replica
//!   lifecycle transitions, autoscaler decisions and KV migrations. Events
//!   carry plain `f64` simulated seconds and are emitted in deterministic
//!   simulation order (the driver thread owns every emission site).
//! * [`FleetSample`] — a gauge snapshot of the whole fleet (queue depths,
//!   outstanding/KV tokens, migration tokens in flight, prefix-cache
//!   counters, lifecycle census), taken on the global clock every
//!   [`TelemetrySink::sample_interval`] simulated seconds plus once at the
//!   end of the run.
//! * [`Section`] self-profiling roll-ups — wall-clock nanoseconds the
//!   simulator itself spent in event selection, routing, replica stepping
//!   and scheduler planning, aggregated per run.
//!
//! [`Recorder`] is the batteries-included sink: it derives a [`Counters`]
//! summary, keeps the event log and a ring-buffered time-series, and exports
//! them as one JSON document (`--metrics` dumps on the bench bins). The
//! export is built from [`JsonValue`], the workspace's one JSON writer, which
//! the bench binaries' `BENCH_JSON` rows share.
//!
//! # Examples
//!
//! ```
//! use moe_telemetry::{Recorder, Section, TelemetryEvent, TelemetrySink};
//!
//! let recorder = Recorder::new().with_interval(0.5);
//! recorder.event(&TelemetryEvent::Arrival {
//!     id: 0,
//!     input_len: 128,
//!     gen_len: 32,
//!     session: 0,
//!     class: "standard",
//!     at: 0.1,
//! });
//! recorder.event(&TelemetryEvent::Completed {
//!     id: 0,
//!     replica: 2,
//!     input_len: 128,
//!     gen_len: 32,
//!     class: "standard",
//!     arrival_s: 0.1,
//!     ttft_s: 0.4,
//!     per_token_s: 0.05,
//!     completion_s: 2.0,
//! });
//! recorder.span(Section::Routing, 1, 1_200);
//! assert_eq!(recorder.counters().arrivals, 1);
//! assert_eq!(recorder.counters().completed, 1);
//! assert_eq!(recorder.events().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

pub use json::{obj, JsonValue};

use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

/// One structured simulation event, emitted in deterministic event order.
///
/// Times are simulated seconds on the run's global clock. Replica indices are
/// the cluster's stable replica ids. String fields are `'static` labels so
/// events stay `Copy` and emission never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A request entered the run's offered load (post arrival stamping,
    /// before routing and admission). Carries the whole request, so the
    /// arrival stream can be recorded and replayed from events alone.
    Arrival {
        /// Request id.
        id: u64,
        /// Prompt length in tokens.
        input_len: u64,
        /// Tokens to generate.
        gen_len: u64,
        /// Session (conversation) id.
        session: u64,
        /// SLO class label (`interactive`/`standard`/`batch`).
        class: &'static str,
        /// Arrival instant.
        at: f64,
    },
    /// The router chose a replica for a request.
    Routed {
        /// Request id.
        id: u64,
        /// Chosen replica.
        replica: usize,
        /// How many candidate replicas were considered (the routing budget:
        /// the offered view slice or the live router-index size).
        considered: usize,
        /// Decision instant.
        at: f64,
    },
    /// Admission let a routed request onto its replica's queue.
    Admitted {
        /// Request id.
        id: u64,
        /// Admitting replica.
        replica: usize,
        /// Admission instant.
        at: f64,
    },
    /// Admission control rejected a routed request (load shedding).
    Rejected {
        /// Request id.
        id: u64,
        /// Replica the request was routed to before the verdict.
        replica: usize,
        /// The projected TTFT the verdict was based on.
        projected_ttft_s: f64,
        /// Rejection instant.
        at: f64,
    },
    /// A request left a failing/draining replica and re-entered dispatch.
    Rerouted {
        /// Request id.
        id: u64,
        /// Re-dispatch instant.
        at: f64,
    },
    /// A request was aborted: no serving replica could hold it, or it was
    /// still refused or waiting when the run ended.
    Aborted {
        /// Request id.
        id: u64,
        /// Abort instant.
        at: f64,
    },
    /// A request finished decoding and retired.
    Completed {
        /// Request id.
        id: u64,
        /// Serving replica.
        replica: usize,
        /// Prompt length in tokens.
        input_len: u64,
        /// Generated tokens.
        gen_len: u64,
        /// SLO class label (`interactive`/`standard`/`batch`).
        class: &'static str,
        /// Arrival instant.
        arrival_s: f64,
        /// Realized time-to-first-token.
        ttft_s: f64,
        /// Realized mean per-token decode latency.
        per_token_s: f64,
        /// Completion instant.
        completion_s: f64,
    },
    /// A replica changed lifecycle state.
    Lifecycle {
        /// Replica id.
        replica: usize,
        /// The state entered: `provisioning`, `serving`, `draining`,
        /// `failed` or `departed`.
        to: &'static str,
        /// Transition instant.
        at: f64,
    },
    /// The autoscaler acted (`up` joins a replica, `down` drains or cancels
    /// a pending join).
    Scale {
        /// `up` or `down`.
        decision: &'static str,
        /// Serving replicas at the decision instant.
        serving: usize,
        /// Queued requests on the serving replicas at the decision instant.
        queued: u64,
        /// Decision instant.
        at: f64,
    },
    /// A KV slice started migrating between replicas.
    MigrationStart {
        /// Request id whose KV is moving.
        id: u64,
        /// Source (prefill) replica.
        from: usize,
        /// Destination replica.
        to: usize,
        /// Context tokens on the wire.
        kv_tokens: u64,
        /// Scheduled landing instant.
        eta_s: f64,
        /// Start instant.
        at: f64,
    },
    /// An in-flight KV migration landed on its destination.
    MigrationComplete {
        /// Request id.
        id: u64,
        /// Destination replica.
        to: usize,
        /// Landing instant.
        at: f64,
    },
    /// An in-flight KV migration was lost (destination left the fleet).
    MigrationLost {
        /// Request id.
        id: u64,
        /// The destination that died.
        to: usize,
        /// Loss instant.
        at: f64,
    },
}

impl TelemetryEvent {
    /// Stable kind label used in the JSON export.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::Arrival { .. } => "arrival",
            TelemetryEvent::Routed { .. } => "routed",
            TelemetryEvent::Admitted { .. } => "admitted",
            TelemetryEvent::Rejected { .. } => "rejected",
            TelemetryEvent::Rerouted { .. } => "rerouted",
            TelemetryEvent::Aborted { .. } => "aborted",
            TelemetryEvent::Completed { .. } => "completed",
            TelemetryEvent::Lifecycle { .. } => "lifecycle",
            TelemetryEvent::Scale { .. } => "scale",
            TelemetryEvent::MigrationStart { .. } => "migration_start",
            TelemetryEvent::MigrationComplete { .. } => "migration_complete",
            TelemetryEvent::MigrationLost { .. } => "migration_lost",
        }
    }

    /// The simulated instant the event occurred at.
    pub fn at(&self) -> f64 {
        match *self {
            TelemetryEvent::Arrival { at, .. }
            | TelemetryEvent::Routed { at, .. }
            | TelemetryEvent::Admitted { at, .. }
            | TelemetryEvent::Rejected { at, .. }
            | TelemetryEvent::Rerouted { at, .. }
            | TelemetryEvent::Aborted { at, .. }
            | TelemetryEvent::Lifecycle { at, .. }
            | TelemetryEvent::Scale { at, .. }
            | TelemetryEvent::MigrationStart { at, .. }
            | TelemetryEvent::MigrationComplete { at, .. }
            | TelemetryEvent::MigrationLost { at, .. } => at,
            TelemetryEvent::Completed { completion_s, .. } => completion_s,
        }
    }

    /// Renders the event as one JSON object (no newline).
    pub fn to_json(&self) -> String {
        let mut fields = vec![("kind", self.kind().into())];
        fields.extend(match *self {
            TelemetryEvent::Arrival {
                id,
                input_len,
                gen_len,
                session,
                class,
                at,
            } => vec![
                ("id", id.into()),
                ("input_len", input_len.into()),
                ("gen_len", gen_len.into()),
                ("session", session.into()),
                ("class", class.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::Rerouted { id, at } | TelemetryEvent::Aborted { id, at } => {
                vec![("id", id.into()), ("at", at.into())]
            }
            TelemetryEvent::Routed {
                id,
                replica,
                considered,
                at,
            } => vec![
                ("id", id.into()),
                ("replica", replica.into()),
                ("considered", considered.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::Admitted { id, replica, at } => vec![
                ("id", id.into()),
                ("replica", replica.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::Rejected {
                id,
                replica,
                projected_ttft_s,
                at,
            } => vec![
                ("id", id.into()),
                ("replica", replica.into()),
                ("projected_ttft_s", projected_ttft_s.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::Completed {
                id,
                replica,
                input_len,
                gen_len,
                class,
                arrival_s,
                ttft_s,
                per_token_s,
                completion_s,
            } => vec![
                ("id", id.into()),
                ("replica", replica.into()),
                ("input_len", input_len.into()),
                ("gen_len", gen_len.into()),
                ("class", class.into()),
                ("arrival_s", arrival_s.into()),
                ("ttft_s", ttft_s.into()),
                ("per_token_s", per_token_s.into()),
                ("at", completion_s.into()),
            ],
            TelemetryEvent::Lifecycle { replica, to, at } => vec![
                ("replica", replica.into()),
                ("to", to.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::Scale {
                decision,
                serving,
                queued,
                at,
            } => vec![
                ("decision", decision.into()),
                ("serving", serving.into()),
                ("queued", queued.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::MigrationStart {
                id,
                from,
                to,
                kv_tokens,
                eta_s,
                at,
            } => vec![
                ("id", id.into()),
                ("from", from.into()),
                ("to", to.into()),
                ("kv_tokens", kv_tokens.into()),
                ("eta_s", eta_s.into()),
                ("at", at.into()),
            ],
            TelemetryEvent::MigrationComplete { id, to, at }
            | TelemetryEvent::MigrationLost { id, to, at } => {
                vec![("id", id.into()), ("to", to.into()), ("at", at.into())]
            }
        });
        obj(fields).to_string()
    }
}

/// Per-replica gauge row inside a [`FleetSample`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplicaSample {
    /// Replica id.
    pub replica: usize,
    /// Lifecycle label at the sample instant.
    pub lifecycle: &'static str,
    /// Requests waiting in the replica's queue.
    pub queued: u64,
    /// Requests currently decoding.
    pub active: u64,
    /// Generation tokens still outstanding across queued + active work.
    pub outstanding_tokens: u64,
    /// Projected KV tokens (active context plus reservations).
    pub kv_projected: u64,
    /// KV token capacity, summed over every micro-batch.
    pub kv_capacity: u64,
    /// KV tokens reserved for migrations still in flight to this replica.
    pub kv_migrating_in: u64,
    /// Measured decode rate (EWMA tokens/s; 0 until measured).
    pub decode_rate: f64,
    /// Prefix-cache hits so far (0 without a cache).
    pub cache_hits: u64,
    /// Prefix-cache misses so far.
    pub cache_misses: u64,
    /// Prefill tokens skipped by cache hits so far.
    pub cache_hit_tokens: u64,
}

/// One time-series point: the whole fleet's gauges at a global-clock instant.
///
/// Fleet-level fields are sums (or censuses) over `replicas`; the per-replica
/// rows are kept so exports can render per-replica timelines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetSample {
    /// Sample instant on the global clock.
    pub at: f64,
    /// Replicas currently serving.
    pub serving: usize,
    /// Replicas still provisioning.
    pub provisioning: usize,
    /// Replicas draining.
    pub draining: usize,
    /// Replicas that left the fleet (failed or drained out).
    pub departed: usize,
    /// Fleet-wide queued requests.
    pub queued: u64,
    /// Fleet-wide in-flight requests.
    pub active: u64,
    /// Fleet-wide outstanding generation tokens.
    pub outstanding_tokens: u64,
    /// Fleet-wide projected KV tokens.
    pub kv_projected: u64,
    /// Fleet-wide KV tokens reserved for in-flight migrations.
    pub kv_migrating_in: u64,
    /// KV migrations currently on the wire.
    pub migrations_in_flight: usize,
    /// Fleet-wide prefix-cache hits so far.
    pub cache_hits: u64,
    /// Fleet-wide prefix-cache misses so far.
    pub cache_misses: u64,
    /// Fleet-wide prefill tokens skipped by cache hits so far.
    pub cache_hit_tokens: u64,
    /// Per-replica gauge rows (every replica the fleet has ever had).
    pub replicas: Vec<ReplicaSample>,
}

impl FleetSample {
    fn to_json(&self) -> JsonValue {
        let replicas = self
            .replicas
            .iter()
            .map(|r| {
                obj(vec![
                    ("replica", r.replica.into()),
                    ("lifecycle", r.lifecycle.into()),
                    ("queued", r.queued.into()),
                    ("active", r.active.into()),
                    ("outstanding_tokens", r.outstanding_tokens.into()),
                    ("kv_projected", r.kv_projected.into()),
                    ("kv_capacity", r.kv_capacity.into()),
                    ("kv_migrating_in", r.kv_migrating_in.into()),
                    ("decode_rate", r.decode_rate.into()),
                    ("cache_hits", r.cache_hits.into()),
                ])
            })
            .collect();
        obj(vec![
            ("at", self.at.into()),
            ("serving", self.serving.into()),
            ("provisioning", self.provisioning.into()),
            ("draining", self.draining.into()),
            ("departed", self.departed.into()),
            ("queued", self.queued.into()),
            ("active", self.active.into()),
            ("outstanding_tokens", self.outstanding_tokens.into()),
            ("kv_projected", self.kv_projected.into()),
            ("kv_migrating_in", self.kv_migrating_in.into()),
            ("migrations_in_flight", self.migrations_in_flight.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("cache_hit_tokens", self.cache_hit_tokens.into()),
            ("replicas", JsonValue::Arr(replicas)),
        ])
    }
}

/// A self-profiled hot section of the simulator, declared in [`Section::ALL`]
/// order: `section as usize` indexes a per-section `[SpanReport; 4]` ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Picking the next due event (agenda and router-index refreshes + the
    /// agenda's pop).
    EventSelection,
    /// Routing + admission over the fleet (dispatch).
    Routing,
    /// Replica stepping: settling one replica's internal event (the label
    /// keeps its historical `shard-step` name).
    ShardStep,
    /// Scheduler planning inside the engines (backfill/plan calls).
    Planning,
}

impl Section {
    /// All sections, in export order.
    pub const ALL: [Section; 4] = [
        Section::EventSelection,
        Section::Routing,
        Section::ShardStep,
        Section::Planning,
    ];

    /// Stable label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            Section::EventSelection => "event-selection",
            Section::Routing => "routing",
            Section::ShardStep => "shard-step",
            Section::Planning => "scheduler-planning",
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Wall-clock roll-up of one profiled section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanReport {
    /// Times the section ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds spent in it.
    pub nanos: u64,
}

/// Counter summary a [`Recorder`] derives from the event stream.
///
/// `rerouted` counts *distinct* request ids (a request can bounce through
/// several failures), matching `AvailabilityReport::rerouted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Offered-load arrivals.
    pub arrivals: u64,
    /// Routing decisions (including re-dispatches).
    pub routed: u64,
    /// Admissions onto replica queues (including re-dispatches).
    pub admitted: u64,
    /// Admission-control rejections.
    pub rejected: u64,
    /// Distinct requests re-routed by churn or lost migrations.
    pub rerouted: u64,
    /// Aborted requests (see [`TelemetryEvent::Aborted`]).
    pub aborted: u64,
    /// Completions.
    pub completed: u64,
    /// Generation tokens across completions.
    pub completed_tokens: u64,
    /// Replica lifecycle transitions observed.
    pub lifecycle_transitions: u64,
    /// Replica failures.
    pub failures: u64,
    /// Drains started.
    pub drains: u64,
    /// Joins scheduled (replicas entering provisioning).
    pub joins: u64,
    /// Autoscaler scale-up decisions.
    pub scale_ups: u64,
    /// Autoscaler scale-down decisions.
    pub scale_downs: u64,
    /// KV migrations put on the wire.
    pub migrations_started: u64,
    /// KV migrations that landed.
    pub migrations_completed: u64,
    /// KV migrations lost to a dying destination.
    pub migrations_lost: u64,
}

impl Counters {
    fn to_json(self) -> JsonValue {
        obj(vec![
            ("arrivals", self.arrivals.into()),
            ("routed", self.routed.into()),
            ("admitted", self.admitted.into()),
            ("rejected", self.rejected.into()),
            ("rerouted", self.rerouted.into()),
            ("aborted", self.aborted.into()),
            ("completed", self.completed.into()),
            ("completed_tokens", self.completed_tokens.into()),
            ("lifecycle_transitions", self.lifecycle_transitions.into()),
            ("failures", self.failures.into()),
            ("drains", self.drains.into()),
            ("joins", self.joins.into()),
            ("scale_ups", self.scale_ups.into()),
            ("scale_downs", self.scale_downs.into()),
            ("migrations_started", self.migrations_started.into()),
            ("migrations_completed", self.migrations_completed.into()),
            ("migrations_lost", self.migrations_lost.into()),
        ])
    }
}

/// The telemetry hook the simulator drives.
///
/// Every method has an empty default, so a sink implements only what it
/// wants; all methods take `&self` (sinks are shared `Arc`s and use interior
/// mutability). Emission order is the deterministic simulation event order —
/// sinks never see cross-thread interleaving, because the fleet loop's driver
/// thread owns every call site.
pub trait TelemetrySink: fmt::Debug + Send + Sync {
    /// Observes one structured event.
    fn event(&self, _event: &TelemetryEvent) {}

    /// Observes one fleet gauge snapshot (see [`Self::sample_interval`]).
    fn sample(&self, _sample: &FleetSample) {}

    /// Receives the wall-clock roll-up of one profiled section at the end of
    /// the run.
    fn span(&self, _section: Section, _calls: u64, _nanos: u64) {}

    /// Simulated seconds between [`Self::sample`] snapshots, or `None` to
    /// receive only the single end-of-run snapshot.
    fn sample_interval(&self) -> Option<f64> {
        None
    }
}

/// A sink that ignores everything — the explicit form of "no telemetry".
///
/// Attaching it must be indistinguishable (bit-identical reports, zero
/// overhead beyond the `Option` checks) from attaching nothing; the
/// `telemetry_conservation` suite and the `scale_sweep` overhead gate pin
/// that.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// Default ring-buffer capacity for [`Recorder`] time-series samples.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Default cap on retained events (ring semantics: oldest dropped first).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

#[derive(Debug, Default)]
struct RecorderState {
    events: VecDeque<TelemetryEvent>,
    events_dropped: u64,
    counters: Counters,
    rerouted_ids: HashSet<u64>,
    series: VecDeque<FleetSample>,
    samples_dropped: u64,
    spans: [SpanReport; Section::ALL.len()],
}

/// The batteries-included [`TelemetrySink`]: retains the event log (ring
/// buffer), derives [`Counters`], keeps the sampled time-series (ring
/// buffer) and the profiling roll-up, and exports all of it.
#[derive(Debug)]
pub struct Recorder {
    interval: Option<f64>,
    series_capacity: usize,
    event_capacity: usize,
    state: Mutex<RecorderState>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            interval: None,
            series_capacity: DEFAULT_SERIES_CAPACITY,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            state: Mutex::new(RecorderState::default()),
        }
    }
}

impl Recorder {
    /// A recorder with no periodic sampling (it still receives the one
    /// end-of-run snapshot) and default ring capacities.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the fleet gauges every `interval` simulated seconds (a run
    /// refuses one that is not finite and positive).
    pub fn with_interval(mut self, interval: f64) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Caps the retained time-series at `capacity` samples (oldest dropped).
    pub fn with_series_capacity(mut self, capacity: usize) -> Self {
        self.series_capacity = capacity.max(1);
        self
    }

    /// Caps the retained event log at `capacity` events (oldest dropped).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity.max(1);
        self
    }

    fn state(&self) -> MutexGuard<'_, RecorderState> {
        self.state.lock().expect("recorder state lock poisoned")
    }

    /// The derived counter summary.
    pub fn counters(&self) -> Counters {
        self.state().counters
    }

    /// Retained events, oldest first (see [`Self::events_dropped`]).
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.state().events.iter().copied().collect()
    }

    /// Events evicted from the ring buffer so far.
    pub fn events_dropped(&self) -> u64 {
        self.state().events_dropped
    }

    /// Retained time-series samples, oldest first.
    pub fn series(&self) -> Vec<FleetSample> {
        self.state().series.iter().cloned().collect()
    }

    /// Samples evicted from the ring buffer so far.
    pub fn samples_dropped(&self) -> u64 {
        self.state().samples_dropped
    }

    /// The wall-clock profiling roll-up, in [`Section::ALL`] order; a
    /// section no span reached is left out.
    pub fn profile(&self) -> Vec<(Section, SpanReport)> {
        let spans = Section::ALL.into_iter().zip(self.state().spans);
        spans.filter(|(_, r)| *r != SpanReport::default()).collect()
    }

    /// Everything in one JSON document: counters, profiling roll-up, the
    /// sampled series (with per-replica rows) and the retained events. This
    /// is what the bench bins write for `--metrics <path>`.
    pub fn export_json(&self) -> String {
        let spans = (self.profile().into_iter())
            .map(|(s, r)| {
                obj(vec![
                    ("section", s.label().into()),
                    ("calls", r.calls.into()),
                    ("nanos", r.nanos.into()),
                ])
            })
            .collect();
        let state = self.state();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"counters\": {},", state.counters.to_json());
        let _ = writeln!(out, "  \"profile\": {},", JsonValue::Arr(spans));
        let _ = write!(
            out,
            "  \"samples_dropped\": {},\n  \"events_dropped\": {},\n",
            state.samples_dropped, state.events_dropped
        );
        let samples: Vec<String> = state
            .series
            .iter()
            .map(|s| s.to_json().to_string())
            .collect();
        let _ = write!(
            out,
            "  \"series\": [\n    {}\n  ],\n",
            samples.join(",\n    ")
        );
        let events: Vec<String> = state.events.iter().map(|e| e.to_json()).collect();
        let _ = write!(
            out,
            "  \"events\": [\n    {}\n  ]\n}}\n",
            events.join(",\n    ")
        );
        out
    }
}

impl TelemetrySink for Recorder {
    fn event(&self, event: &TelemetryEvent) {
        let mut state = self.state();
        let c = &mut state.counters;
        match *event {
            TelemetryEvent::Arrival { .. } => c.arrivals += 1,
            TelemetryEvent::Routed { .. } => c.routed += 1,
            TelemetryEvent::Admitted { .. } => c.admitted += 1,
            TelemetryEvent::Rejected { .. } => c.rejected += 1,
            TelemetryEvent::Rerouted { .. } => {}
            TelemetryEvent::Aborted { .. } => c.aborted += 1,
            TelemetryEvent::Completed { gen_len, .. } => {
                c.completed += 1;
                c.completed_tokens += gen_len;
            }
            TelemetryEvent::Lifecycle { to, .. } => {
                c.lifecycle_transitions += 1;
                match to {
                    "failed" => c.failures += 1,
                    "draining" => c.drains += 1,
                    "provisioning" => c.joins += 1,
                    _ => {}
                }
            }
            TelemetryEvent::Scale { decision, .. } => {
                if decision == "up" {
                    c.scale_ups += 1;
                } else {
                    c.scale_downs += 1;
                }
            }
            TelemetryEvent::MigrationStart { .. } => c.migrations_started += 1,
            TelemetryEvent::MigrationComplete { .. } => c.migrations_completed += 1,
            TelemetryEvent::MigrationLost { .. } => c.migrations_lost += 1,
        }
        if let TelemetryEvent::Rerouted { id, .. } = *event {
            if state.rerouted_ids.insert(id) {
                state.counters.rerouted += 1;
            }
        }
        if state.events.len() == self.event_capacity {
            state.events.pop_front();
            state.events_dropped += 1;
        }
        state.events.push_back(*event);
    }

    fn sample(&self, sample: &FleetSample) {
        let mut state = self.state();
        if state.series.len() == self.series_capacity {
            state.series.pop_front();
            state.samples_dropped += 1;
        }
        state.series.push_back(sample.clone());
    }

    fn span(&self, section: Section, calls: u64, nanos: u64) {
        let span = &mut self.state().spans[section as usize];
        span.calls += calls;
        span.nanos += nanos;
    }

    fn sample_interval(&self) -> Option<f64> {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(id: u64, at: f64) -> TelemetryEvent {
        TelemetryEvent::Arrival {
            id,
            input_len: 64,
            gen_len: 16,
            session: id,
            class: "standard",
            at,
        }
    }

    fn completed(id: u64, gen_len: u64, completion_s: f64) -> TelemetryEvent {
        TelemetryEvent::Completed {
            id,
            replica: 0,
            input_len: 64,
            gen_len,
            class: "standard",
            arrival_s: 0.0,
            ttft_s: 1.0,
            per_token_s: 0.1,
            completion_s,
        }
    }

    #[test]
    fn recorder_derives_counters_from_the_event_stream() {
        let r = Recorder::new();
        r.event(&arrival(0, 0.0));
        r.event(&TelemetryEvent::Routed {
            id: 0,
            replica: 1,
            considered: 4,
            at: 0.0,
        });
        r.event(&TelemetryEvent::Admitted {
            id: 0,
            replica: 1,
            at: 0.0,
        });
        r.event(&completed(0, 32, 5.0));
        r.event(&TelemetryEvent::Rejected {
            id: 1,
            replica: 0,
            projected_ttft_s: 9.0,
            at: 0.5,
        });
        // The same id rerouted twice counts once (distinct-id semantics).
        r.event(&TelemetryEvent::Rerouted { id: 2, at: 1.0 });
        r.event(&TelemetryEvent::Rerouted { id: 2, at: 2.0 });
        r.event(&TelemetryEvent::Scale {
            decision: "up",
            serving: 3,
            queued: 40,
            at: 2.0,
        });
        r.event(&TelemetryEvent::Lifecycle {
            replica: 1,
            to: "failed",
            at: 1.0,
        });
        let c = r.counters();
        assert_eq!(c.arrivals, 1);
        assert_eq!(c.routed, 1);
        assert_eq!(c.admitted, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.completed_tokens, 32);
        assert_eq!(c.rejected, 1);
        assert_eq!(c.rerouted, 1);
        assert_eq!(c.scale_ups, 1);
        assert_eq!(c.failures, 1);
        assert_eq!(c.lifecycle_transitions, 1);
    }

    #[test]
    fn ring_buffers_cap_and_count_drops() {
        let r = Recorder::new()
            .with_event_capacity(2)
            .with_series_capacity(2);
        for i in 0..5 {
            r.event(&arrival(i, i as f64));
            r.sample(&FleetSample {
                at: i as f64,
                ..FleetSample::default()
            });
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events_dropped(), 3);
        assert_eq!(r.series().len(), 2);
        assert_eq!(r.samples_dropped(), 3);
        // Most recent survive.
        assert_eq!(r.events()[1].at(), 4.0);
        assert_eq!(r.series()[1].at, 4.0);
        // Counters keep counting past the ring.
        assert_eq!(r.counters().arrivals, 5);
    }

    #[test]
    fn events_render_one_json_object_each() {
        let r = Recorder::new().with_interval(1.0);
        r.event(&arrival(7, 0.25));
        r.event(&completed(7, 16, 3.5));
        r.sample(&FleetSample {
            at: 1.0,
            serving: 4,
            queued: 3,
            cache_hits: 1,
            cache_misses: 3,
            ..FleetSample::default()
        });
        let lines: Vec<String> = r.events().iter().map(TelemetryEvent::to_json).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"arrival\"") && lines[0].contains("\"id\":7"));
        assert!(lines[0].contains("\"session\":7") && lines[0].contains("\"class\":\"standard\""));
        assert!(lines[1].contains("\"kind\":\"completed\"") && lines[1].contains("\"gen_len\":16"));
    }

    #[test]
    fn export_json_carries_counters_profile_series_and_events() {
        let r = Recorder::new();
        r.event(&arrival(0, 0.0));
        r.sample(&FleetSample::default());
        r.span(Section::Routing, 10, 1_000);
        r.span(Section::Routing, 5, 500);
        let json = r.export_json();
        assert!(json.contains("\"arrivals\":1"));
        assert!(json.contains("\"section\":\"routing\""));
        assert!(json.contains("\"calls\":15"));
        assert!(json.contains("\"series\""));
        assert!(json.contains("\"events\""));
        let profile = r.profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].1.nanos, 1_500);
    }

    #[test]
    fn sections_index_their_ledger_slot_in_export_order() {
        for (slot, section) in Section::ALL.into_iter().enumerate() {
            assert_eq!(section as usize, slot, "{section}");
        }
        let r = Recorder::new();
        r.span(Section::Planning, 2, 20);
        r.span(Section::EventSelection, 1, 10);
        let sections: Vec<Section> = r.profile().into_iter().map(|(s, _)| s).collect();
        assert_eq!(sections, [Section::EventSelection, Section::Planning]);
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let sink = NoopSink;
        sink.event(&arrival(0, 0.0));
        sink.sample(&FleetSample::default());
        sink.span(Section::Planning, 1, 1);
        assert!(sink.sample_interval().is_none());
    }

    /// A recorder holding one event of every [`TelemetryEvent`] variant, one
    /// profiling span and one fleet sample with two replica rows.
    fn every_shape() -> Recorder {
        let r = Recorder::new();
        r.event(&arrival(1, 0.25));
        r.event(&TelemetryEvent::Routed {
            id: 1,
            replica: 2,
            considered: 4,
            at: 0.25,
        });
        r.event(&TelemetryEvent::Admitted {
            id: 1,
            replica: 2,
            at: 0.25,
        });
        r.event(&TelemetryEvent::Rejected {
            id: 2,
            replica: 0,
            projected_ttft_s: 12.5,
            at: 0.5,
        });
        r.event(&TelemetryEvent::Rerouted { id: 3, at: 1.0 });
        r.event(&TelemetryEvent::Aborted { id: 4, at: 1.5 });
        r.event(&completed(1, 16, 3.75));
        r.event(&TelemetryEvent::Lifecycle {
            replica: 1,
            to: "draining",
            at: 2.0,
        });
        r.event(&TelemetryEvent::Scale {
            decision: "up",
            serving: 3,
            queued: 40,
            at: 2.5,
        });
        r.event(&TelemetryEvent::MigrationStart {
            id: 5,
            from: 0,
            to: 3,
            kv_tokens: 256,
            eta_s: 3.125,
            at: 3.0,
        });
        r.event(&TelemetryEvent::MigrationComplete {
            id: 5,
            to: 3,
            at: 3.125,
        });
        r.event(&TelemetryEvent::MigrationLost {
            id: 6,
            to: 1,
            at: 4.0,
        });
        r.span(Section::ShardStep, 7, 9_000);
        let row = |replica: usize, lifecycle: &'static str, decode_rate: f64| ReplicaSample {
            replica,
            lifecycle,
            queued: 2,
            active: 3,
            outstanding_tokens: 40,
            kv_projected: 900,
            kv_capacity: 4096,
            kv_migrating_in: 64,
            decode_rate,
            cache_hits: 5,
            cache_misses: 6,
            cache_hit_tokens: 70,
        };
        r.sample(&FleetSample {
            at: 4.5,
            serving: 1,
            provisioning: 0,
            draining: 1,
            departed: 0,
            queued: 4,
            active: 6,
            outstanding_tokens: 80,
            kv_projected: 1800,
            kv_migrating_in: 128,
            migrations_in_flight: 1,
            cache_hits: 10,
            cache_misses: 12,
            cache_hit_tokens: 140,
            // A non-finite gauge exports as `null`.
            replicas: vec![row(0, "serving", 12.5), row(1, "draining", f64::NAN)],
        });
        r
    }

    /// The exact bytes of the `--metrics` export: every event shape, the
    /// profile roll-up and a sample's nested `replicas` array.
    const EVERY_SHAPE_JSON: &str = r#"{
  "counters": {"arrivals":1,"routed":1,"admitted":1,"rejected":1,"rerouted":1,"aborted":1,"completed":1,"completed_tokens":16,"lifecycle_transitions":1,"failures":0,"drains":1,"joins":0,"scale_ups":1,"scale_downs":0,"migrations_started":1,"migrations_completed":1,"migrations_lost":1},
  "profile": [{"section":"shard-step","calls":7,"nanos":9000}],
  "samples_dropped": 0,
  "events_dropped": 0,
  "series": [
    {"at":4.5,"serving":1,"provisioning":0,"draining":1,"departed":0,"queued":4,"active":6,"outstanding_tokens":80,"kv_projected":1800,"kv_migrating_in":128,"migrations_in_flight":1,"cache_hits":10,"cache_misses":12,"cache_hit_tokens":140,"replicas":[{"replica":0,"lifecycle":"serving","queued":2,"active":3,"outstanding_tokens":40,"kv_projected":900,"kv_capacity":4096,"kv_migrating_in":64,"decode_rate":12.5,"cache_hits":5},{"replica":1,"lifecycle":"draining","queued":2,"active":3,"outstanding_tokens":40,"kv_projected":900,"kv_capacity":4096,"kv_migrating_in":64,"decode_rate":null,"cache_hits":5}]}
  ],
  "events": [
    {"kind":"arrival","id":1,"input_len":64,"gen_len":16,"session":1,"class":"standard","at":0.25},
    {"kind":"routed","id":1,"replica":2,"considered":4,"at":0.25},
    {"kind":"admitted","id":1,"replica":2,"at":0.25},
    {"kind":"rejected","id":2,"replica":0,"projected_ttft_s":12.5,"at":0.5},
    {"kind":"rerouted","id":3,"at":1},
    {"kind":"aborted","id":4,"at":1.5},
    {"kind":"completed","id":1,"replica":0,"input_len":64,"gen_len":16,"class":"standard","arrival_s":0,"ttft_s":1,"per_token_s":0.1,"at":3.75},
    {"kind":"lifecycle","replica":1,"to":"draining","at":2},
    {"kind":"scale","decision":"up","serving":3,"queued":40,"at":2.5},
    {"kind":"migration_start","id":5,"from":0,"to":3,"kv_tokens":256,"eta_s":3.125,"at":3},
    {"kind":"migration_complete","id":5,"to":3,"at":3.125},
    {"kind":"migration_lost","id":6,"to":1,"at":4}
  ]
}
"#;

    #[test]
    fn export_json_bytes_are_pinned() {
        assert_eq!(every_shape().export_json(), EVERY_SHAPE_JSON);
    }
}
