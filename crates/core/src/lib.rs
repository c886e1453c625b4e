//! MoE-Lightning: the top-level engine of the reproduction.
//!
//! This crate ties the substrates together into the comparison the paper reports:
//!
//! * [`settings::EvalSetting`] — the Tab. 2 model × hardware settings (S1–S9).
//! * [`system::SystemKind`] — MoE-Lightning, MoE-Lightning(p), FlexGen, FlexGen(c)
//!   and DeepSpeed ZeRO-Inference, each a (policy generator, schedule, padding)
//!   triple.
//! * [`evaluator::SystemEvaluator`] — generates each system's policy, simulates its
//!   decode pipeline on the discrete-event simulator and reports generation
//!   throughput.
//! * [`engine`] — the one serving engine: the crate-private per-replica event
//!   machine the cluster layer interleaves per replica.
//! * [`serving::ServeSpec`] — a single-node serving scenario, run by
//!   [`evaluator::SystemEvaluator::run`] as a 1-replica fleet through
//!   [`cluster::ClusterEvaluator::run`], the fleet loop's one entry.
//! * [`router`] — the [`router::Router`] strategy trait, its four built-ins
//!   and the incremental [`router::RouterIndex`] behind sub-linear dispatch.
//! * [`cluster::ClusterEvaluator`] — serves one fleet-wide request queue on N
//!   (optionally heterogeneous) replicas behind a pluggable [`cluster::Router`],
//!   merging per-replica event streams on one global clock.
//! * [`agenda`] — the crate-private event order of that clock, with one tie
//!   rule for every event the fleet loop settles: each replica's one entry in
//!   a min-tree over replicas, timeline actions and KV landings in a
//!   min-heap (it owns each replica's inbound KV), arrivals in their queue.
//! * [`dynamics`] — the fleet control plane: injected failures/drains/joins
//!   ([`dynamics::FleetTimeline`]), autoscaling ([`dynamics::Autoscaler`]) and
//!   SLO admission control ([`dynamics::AdmissionController`]) executed mid-run.
//! * [`disagg`] — disaggregated prefill/decode pools with priced KV migration
//!   ([`disagg::ReplicaRole`], [`disagg::InterconnectSpec`]), per-replica
//!   prefix caches ([`disagg::PrefixCache`]) and cache/session/speed-aware
//!   routing ([`disagg::StickySession`], [`disagg::PrefixAware`]).
//! * [`observe`] — fleet-wide telemetry, the one observation hook: a
//!   [`moe_telemetry::TelemetrySink`] attached via `with_telemetry` receives
//!   structured events (trace recording included), gauge samples and the
//!   simulator's self-profiling roll-up, without perturbing the report.
//!
//! # Examples
//!
//! ```no_run
//! use moe_lightning::{EvalSetting, SystemEvaluator, SystemKind};
//! use moe_workload::WorkloadSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let setting = EvalSetting::S1;
//! let evaluator = SystemEvaluator::new(setting.node(), setting.model());
//! let result = evaluator.evaluate(SystemKind::MoeLightningPadded, &WorkloadSpec::mtbench(), 128)?;
//! println!("{}: {:.1} tokens/s with {}", result.system, result.throughput, result.policy);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agenda;
pub mod cluster;
pub mod disagg;
pub mod dynamics;
pub mod engine;
pub mod evaluator;
mod min_tree;
pub mod observe;
pub mod router;
pub mod serving;
pub mod settings;
pub mod system;

pub use cluster::{
    builtin_routers, ClusterEvaluator, ClusterReport, ClusterSpec, ClusterSpecError, KvAware,
    LeastOutstandingTokens, PowerOfTwoChoices, ReplicaId, ReplicaReport, ReplicaSpec, ReplicaView,
    RoundRobin, Router, RouterCtx, SloSpec,
};
pub use disagg::{
    CacheStats, InterconnectSpec, PrefixAware, PrefixCache, ReplicaRole, StickySession,
};
pub use dynamics::{
    AdmissionController, AdmitAll, Autoscaler, AvailabilityReport, FleetAction, FleetTimeline,
    FleetView, QueueDepthScaler, ScaleBounds, ScaleDecision, SloAdmission, SloAttainmentScaler,
};
pub use evaluator::{EngineError, SystemEvaluation, SystemEvaluator};
pub use serving::{RoundReport, ServeSpec, ServingMode, ServingReport};
pub use settings::EvalSetting;
pub use system::SystemKind;

// Re-export the telemetry vocabulary so downstream crates can attach sinks
// without depending on `moe-telemetry` directly.
pub use moe_telemetry::{
    Counters, FleetSample, NoopSink, Recorder, ReplicaSample, Section, SpanReport, TelemetryEvent,
    TelemetrySink,
};

// Re-export the most used building blocks so downstream users need only this crate.
pub use moe_hardware::{ByteSize, NodeSpec, Seconds, TimeKey};
pub use moe_model::MoeModelConfig;
pub use moe_policy::{Policy, PolicyGenerator, PolicyOptimizer, WorkloadShape};
pub use moe_schedule::ScheduleKind;
pub use moe_workload::{
    Algorithm2, ArrivalProcess, FcfsPadded, GenLens, Scheduler, ShortestJobFirst, SloClass,
    TokenBudget, WorkloadSpec,
};
