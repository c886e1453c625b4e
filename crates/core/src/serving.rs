//! Request-level serving: a queue of variable-length requests turned into
//! micro-batched work on the simulated pipeline, driven by the one serving
//! engine.
//!
//! This is the execution model behind the paper's headline numbers (Fig. 7,
//! Tab. 4/5). Requests are pulled from a queue as they arrive (each [`Request`]
//! carries an arrival time stamped by a `moe_workload::ArrivalProcess`),
//! assigned to micro-batches by a pluggable [`Scheduler`] (the paper's
//! Algorithm 2 by default) under the policy's micro-batch capacity (`ubs = μ`)
//! and KV-cache budget, and decoded on the simulated pipeline. Two
//! [`ServingMode`]s are supported:
//!
//! * [`ServingMode::RoundToCompletion`] — the classic offline loop: the
//!   scheduler forms a round ([`Scheduler::plan`]), every request in it holds
//!   its micro-batch slot for the round's longest `gen_len`, and the queue is
//!   only reconsidered when the whole round finishes. Simple, but short
//!   requests neither free KV capacity nor admit queued work early
//!   (head-of-line blocking).
//! * [`ServingMode::Continuous`] — step-level continuous batching: decode
//!   advances in steps; the moment a request emits its last token its KV
//!   reservation is released and the scheduler re-runs over the waiting queue
//!   ([`Scheduler::backfill`]) to fill the freed slots mid-flight. Backfilled
//!   requests pay a prefill that overlaps the already-streaming weights
//!   (`CostModel::backfill_prefill_time`); only the first admission pays the
//!   cold-start weight stream.
//!
//! A serving scenario — system, workload, queue size, generation lengths,
//! seed, mode, arrival process, scheduler — is described declaratively by a
//! [`ServeSpec`] (a replica-less [`ClusterSpec`] plus the node's scheduler
//! and policy override) and executed by [`SystemEvaluator::run`], the one
//! single-node entry point.
//!
//! Single-node serving carries **no loop and no checks of its own**: `run`
//! lifts the spec into a 1-replica fleet ([`ServeSpec::into_cluster`]) and
//! calls [`ClusterEvaluator::run`], so spec validation, engine construction,
//! queue realization, dispatch and telemetry are the fleet's. Wave costing,
//! KV release, backfill and latency bookkeeping exist exactly once, in
//! [`crate::engine`]; `tests/self_check.rs` pins the reports against
//! committed fixtures.
//!
//! In both modes, requests whose `input_len + gen_len` alone exceeds the
//! per-micro-batch KV budget are aborted at dispatch — no replica can hold
//! them, so they never reach the scheduler — and all latency metrics are
//! measured from each request's arrival time (queue-aware TTFT). The old
//! single-shot uniform path ([`crate::SystemEvaluator::evaluate`]) remains as
//! the padded-systems special case.

use crate::cluster::{ClusterEvaluator, ClusterReport, ClusterSpec, ReplicaSpec};
use crate::evaluator::{EngineError, SystemEvaluator};
use crate::system::SystemKind;
use moe_hardware::{NodeSpec, Seconds};
use moe_policy::Policy;
use moe_schedule::ScheduleKind;
use moe_telemetry::TelemetrySink;
use moe_workload::{
    Algorithm2, ArrivalProcess, BatchRunReport, LatencySummary, Request, RequestLatency, Scheduler,
    WorkloadSpec,
};
use std::sync::Arc;

/// How a serving node schedules decode work over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ServingMode {
    /// The scheduler forms a round; every request holds its slot until the
    /// round's longest request finishes. The PR-1 behaviour and the default.
    #[default]
    RoundToCompletion,
    /// Step-level continuous batching: completed requests release KV immediately
    /// and the scheduler backfills freed slots mid-flight.
    Continuous,
}

impl ServingMode {
    /// Short display label (`rtc` / `cont`) for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            ServingMode::RoundToCompletion => "rtc",
            ServingMode::Continuous => "cont",
        }
    }
}

impl std::fmt::Display for ServingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingMode::RoundToCompletion => f.write_str("round-to-completion"),
            ServingMode::Continuous => f.write_str("continuous"),
        }
    }
}

/// One serving round (round-to-completion mode) or admission wave (continuous
/// mode): a set of micro-batch assignments produced by the node's
/// [`Scheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Zero-based round / admission-wave index.
    pub round: usize,
    /// Global-clock instant the scheduler formed this round / admitted this
    /// wave (before its prefill). Lets churn tests assert that a drained
    /// replica admits nothing after its drain time.
    pub admitted_at: Seconds,
    /// Active sequences per micro-batch right after the assignment (in continuous
    /// mode this includes requests admitted in earlier waves that are still
    /// decoding).
    pub occupancy: Vec<u64>,
    /// KV-cache tokens reserved per micro-batch right after the assignment; never
    /// exceeds the node's per-micro-batch budget.
    pub kv_reserved: Vec<u64>,
    /// Smallest and largest per-micro-batch prompt token counts (imbalance
    /// indicator).
    pub prompt_token_spread: (u64, u64),
    /// Token and time accounting. In continuous mode the decode time accrued
    /// between this wave and the next is attributed here, and `generated_tokens`
    /// counts the tokens the wave's requests will generate in total.
    pub report: BatchRunReport,
}

/// Aggregate outcome of serving one request queue to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// The system that served the queue.
    pub system: SystemKind,
    /// The scheduling mode the queue was served in.
    pub mode: ServingMode,
    /// Name of the [`Scheduler`] that formed the batches (e.g. `"algo2"`).
    pub scheduler: String,
    /// The policy the queue was served with.
    pub policy: Policy,
    /// The pipeline schedule the queue was served with.
    pub schedule: ScheduleKind,
    /// Per-round (or per-admission-wave) accounting, in execution order.
    pub rounds: Vec<RoundReport>,
    /// Per-request latency records for every served request.
    pub latencies: Vec<RequestLatency>,
    /// Requests that could never be scheduled: those whose prompt +
    /// generation alone exceeds the per-micro-batch KV-cache budget (aborted
    /// at dispatch), in `(arrival, id)` order — which is queue order for
    /// every queue the repo builds — followed by any a scheduler refused on
    /// an empty pipeline that were still waiting when the run ended. In a
    /// [`ClusterReport`] the dispatch aborts sit in `fleet_aborted` instead.
    pub aborted: Vec<Request>,
    /// Combined token/time totals across all rounds.
    pub totals: BatchRunReport,
}

impl ServingReport {
    /// Number of requests that completed generation.
    pub fn served_requests(&self) -> usize {
        self.latencies.len()
    }

    /// End-to-end generation throughput in tokens/s across the whole queue.
    pub fn generation_throughput(&self) -> f64 {
        self.totals.generation_throughput()
    }

    /// Busy wall-clock time (prefill + decode, excluding idle waits for
    /// arrivals).
    pub fn total_time(&self) -> Seconds {
        self.totals.total_time()
    }

    /// Time-to-first-token summary over served requests, measured from each
    /// request's arrival.
    pub fn ttft(&self) -> LatencySummary {
        LatencySummary::ttft(&self.latencies)
    }

    /// Average per-token decode latency summary over served requests.
    pub fn per_token(&self) -> LatencySummary {
        LatencySummary::per_token(&self.latencies)
    }

    /// Completion-time summary over served requests, measured from each request's
    /// arrival.
    pub fn completion(&self) -> LatencySummary {
        LatencySummary::completion(&self.latencies)
    }
}

/// A declarative serving scenario: every axis of one serving run — system,
/// workload, queue size, generation lengths, seed, mode, arrival process,
/// scheduler and (optionally) an explicit policy — in one builder-style value
/// consumed by [`SystemEvaluator::run`].
///
/// This replaced the `serve` / `serve_with_mode` / `serve_online` entry-point
/// family: a new scenario axis becomes a new builder method instead of another
/// positional argument on three signatures. It is a replica-less
/// [`ClusterSpec`] plus the node's scheduler and policy override, so every
/// axis it shares with a fleet is stored, and built, once.
///
/// # Examples
///
/// ```no_run
/// use moe_lightning::{EvalSetting, ServeSpec, ServingMode, SystemEvaluator, SystemKind};
/// use moe_workload::{ArrivalProcess, TokenBudget, WorkloadSpec};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
/// let report = evaluator.run(
///     &ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
///         .with_count(1000)
///         .with_mixed_gen_lens()
///         .with_seed(7)
///         .with_mode(ServingMode::Continuous)
///         .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 1.0 })
///         .with_scheduler(Arc::new(TokenBudget)),
/// )?;
/// println!(
///     "{} [{}] {:.1} tok/s, TTFT p50 {:.1}s",
///     report.scheduler,
///     report.mode.label(),
///     report.generation_throughput(),
///     report.ttft().p50.as_secs(),
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Every scenario axis the node shares with a fleet; never holds
    /// replicas (see [`Self::into_cluster`]).
    pub(crate) cluster: ClusterSpec,
    pub(crate) scheduler: Arc<dyn Scheduler>,
    pub(crate) policy: Option<Policy>,
}

impl ServeSpec {
    /// A scenario with defaults matching the paper's offline evaluation: 1000
    /// requests, the workload's first default generation length (128 if it has
    /// none), seed 0, round-to-completion mode, all requests arriving at time
    /// zero, and [`Algorithm2`] batching with the system's searched policy.
    pub fn new(system: SystemKind, workload: WorkloadSpec) -> Self {
        ServeSpec {
            cluster: ClusterSpec::new(system, workload),
            scheduler: Arc::new(Algorithm2),
            policy: None,
        }
    }

    /// Applies a [`ClusterSpec`] builder to the shared axes.
    fn map(mut self, f: impl FnOnce(ClusterSpec) -> ClusterSpec) -> Self {
        self.cluster = f(self.cluster);
        self
    }

    /// Sets the number of requests in the queue.
    pub fn with_count(self, count: usize) -> Self {
        self.map(|c| c.with_count(count))
    }

    /// Gives every request the same generation length.
    pub fn with_gen_len(self, gen_len: u64) -> Self {
        self.map(|c| c.with_gen_len(gen_len))
    }

    /// Draws each request's generation length uniformly from the workload's
    /// `default_gen_lens` (the heterogeneous queue continuous batching and the
    /// scheduler ablation are designed for).
    pub fn with_mixed_gen_lens(self) -> Self {
        self.map(ClusterSpec::with_mixed_gen_lens)
    }

    /// Sets the queue-synthesis seed.
    pub fn with_seed(self, seed: u64) -> Self {
        self.map(|c| c.with_seed(seed))
    }

    /// Sets the scheduling mode.
    pub fn with_mode(self, mode: ServingMode) -> Self {
        self.map(|c| c.with_mode(mode))
    }

    /// Stamps arrival times from `arrivals` (online serving under load).
    pub fn with_arrivals(self, arrivals: ArrivalProcess) -> Self {
        self.map(|c| c.with_arrivals(arrivals))
    }

    /// Sets the batch-formation strategy.
    pub fn with_scheduler(mut self, scheduler: Arc<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the policy instead of searching one for the system (the Tab. 5
    /// ablation mixes schedules and policies this way). It becomes the
    /// replica's override in [`Self::into_cluster`], so a policy
    /// [`Policy::validate`] rejects is a
    /// [`crate::ClusterSpecError::InvalidPolicy`] error.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Serves an explicit, pre-stamped request queue instead of synthesizing
    /// one — the trace-replay path. The count is taken from the queue's
    /// length, and the workload/count/gen/seed/arrival axes no longer shape
    /// the queue itself (the workload and `gen` still size the policy, so a
    /// replay sized like its originating run reproduces it exactly).
    pub fn with_queue(self, queue: Vec<Request>) -> Self {
        self.map(|c| c.with_queue(queue))
    }

    /// Installs a [`TelemetrySink`] on the single-node run, a 1-replica fleet
    /// (see [`ClusterSpec::with_telemetry`]). Lifecycle, scaling and
    /// migration events have nothing to report on one static replica.
    pub fn with_telemetry(self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.map(|c| c.with_telemetry(sink))
    }

    /// Lifts this single-node scenario into a cluster over `fleet`: the
    /// shared axes plus one replica per node, each with the spec's scheduler
    /// (and policy override, if any). Routing defaults to
    /// [`crate::RoundRobin`]; a one-node fleet reproduces the single-node
    /// scenario.
    pub fn into_cluster(self, fleet: impl IntoIterator<Item = NodeSpec>) -> ClusterSpec {
        let replicas = fleet
            .into_iter()
            .map(|node| ReplicaSpec {
                policy: self.policy,
                scheduler: Arc::clone(&self.scheduler),
                ..ReplicaSpec::new(node)
            })
            .collect();
        ClusterSpec {
            replicas,
            ..self.cluster
        }
    }
}

impl SystemEvaluator {
    /// Executes one serving scenario on this evaluator's node as a
    /// 1-replica fleet: runs the spec's [`ServeSpec::into_cluster`] lift over
    /// this node through [`ClusterEvaluator::run`] (which sizes or adopts the
    /// policy; padded systems see every prompt at the maximum length, and
    /// the queue is synthesized unless explicit) and returns the replica's
    /// report.
    ///
    /// Every request appears in the result exactly once: either in
    /// [`ServingReport::latencies`] (served) or [`ServingReport::aborted`].
    /// Requests whose prompt plus generation alone exceeds the
    /// per-micro-batch KV budget are aborted at dispatch and lead the aborted
    /// list.
    ///
    /// # Errors
    ///
    /// Spec errors come first, before any policy search: an
    /// [`EngineError::InvalidClusterSpec`] if the queue is empty
    /// ([`crate::ClusterSpecError::ZeroRequests`], an empty explicit queue
    /// included), the workload cannot sample it
    /// ([`crate::ClusterSpecError::InvalidWorkload`]), its arrivals cannot
    /// be stamped or are not finite
    /// ([`crate::ClusterSpecError::InvalidArrivals`]), a sampling sink's
    /// interval is not finite and positive
    /// ([`crate::ClusterSpecError::InvalidSampleInterval`]), the last
    /// arrival lies more than 10^8 sampling intervals in
    /// ([`crate::ClusterSpecError::ExceedsSampleBudget`]), or its policy
    /// override is invalid
    /// ([`crate::ClusterSpecError::InvalidPolicy`]).
    /// Then an error if no policy fits, the batching configuration is
    /// invalid, or the simulation fails.
    pub fn run(&self, spec: &ServeSpec) -> Result<ServingReport, EngineError> {
        let ClusterReport {
            mut replicas,
            mut fleet_aborted,
            ..
        } = ClusterEvaluator::new(self.model().clone())
            .run(&spec.clone().into_cluster([self.node().clone()]))?;
        let mut report = replicas.pop().expect("one replica").report;
        fleet_aborted.append(&mut report.aborted);
        report.aborted = fleet_aborted;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EvalSetting;

    fn s1() -> SystemEvaluator {
        SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
    }

    /// An offline MTBench scenario on unpadded MoE-Lightning.
    fn mtbench_spec(count: usize, gen_len: u64, seed: u64) -> ServeSpec {
        ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(count)
            .with_gen_len(gen_len)
            .with_seed(seed)
    }

    /// The per-micro-batch KV budget `spec`'s S1 node enforces, read off a
    /// one-replica fleet serving a single one-token request.
    fn kv_budget(spec: &ServeSpec) -> u64 {
        let probe = spec
            .clone()
            .with_queue(vec![Request::new(0, 1, 1)])
            .into_cluster([EvalSetting::S1.node()]);
        let report = ClusterEvaluator::new(EvalSetting::S1.model())
            .run(&probe)
            .unwrap();
        report.replicas[0].kv_budget_per_micro_batch
    }

    #[test]
    fn serving_accounts_for_every_request() {
        let eval = s1();
        let report = eval.run(&mtbench_spec(600, 64, 17)).unwrap();
        assert_eq!(report.served_requests() + report.aborted.len(), 600);
        let mut ids: Vec<u64> = report
            .latencies
            .iter()
            .map(|l| l.request.id)
            .chain(report.aborted.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<u64>>());
    }

    #[test]
    fn continuous_serving_accounts_for_every_request() {
        let eval = s1();
        let report = eval
            .run(&mtbench_spec(600, 64, 17).with_mode(ServingMode::Continuous))
            .unwrap();
        assert_eq!(report.mode, ServingMode::Continuous);
        assert_eq!(report.served_requests() + report.aborted.len(), 600);
        let mut ids: Vec<u64> = report
            .latencies
            .iter()
            .map(|l| l.request.id)
            .chain(report.aborted.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..600).collect::<Vec<u64>>());
        // Token accounting holds per wave and in total.
        let expected: u64 = report.latencies.iter().map(|l| l.request.gen_len).sum();
        assert_eq!(report.totals.generated_tokens, expected);
        let per_wave: u64 = report
            .rounds
            .iter()
            .map(|r| r.report.generated_tokens)
            .sum();
        assert_eq!(per_wave, expected);
    }

    #[test]
    fn generated_tokens_equal_sum_over_served_requests() {
        let eval = s1();
        let report = eval.run(&mtbench_spec(300, 32, 9)).unwrap();
        let expected: u64 = report.latencies.iter().map(|l| l.request.gen_len).sum();
        assert_eq!(report.totals.generated_tokens, expected);
        let per_round: u64 = report
            .rounds
            .iter()
            .map(|r| r.report.generated_tokens)
            .sum();
        assert_eq!(per_round, report.totals.generated_tokens);
    }

    #[test]
    fn rounds_respect_policy_capacity() {
        let eval = s1();
        let report = eval.run(&mtbench_spec(12_000, 64, 3)).unwrap();
        assert!(
            report.rounds.len() > 1,
            "12k requests must not fit one round"
        );
        let p = &report.policy;
        for round in &report.rounds {
            assert!(round.occupancy.len() as u64 <= p.num_micro_batches());
            assert!(round.occupancy.iter().all(|&o| o <= p.micro_batch_size));
            assert!(round.report.requests <= p.batch_size);
        }
    }

    #[test]
    fn latencies_grow_across_rounds() {
        let eval = s1();
        let report = eval.run(&mtbench_spec(12_000, 64, 5)).unwrap();
        assert!(report.rounds.len() >= 2);
        let first_round_max = report
            .latencies
            .iter()
            .filter(|l| l.round == 0)
            .map(|l| l.completion_time.as_secs())
            .fold(0.0, f64::max);
        let later_min = report
            .latencies
            .iter()
            .filter(|l| l.round > 0)
            .map(|l| l.ttft.as_secs())
            .fold(f64::INFINITY, f64::min);
        assert!(
            later_min > first_round_max - 1e-9,
            "queueing must delay later rounds: {later_min} vs {first_round_max}"
        );
        let s = report.ttft();
        assert!(s.p99 >= s.p50);
        assert!(s.max >= s.p99);
    }

    #[test]
    fn non_divisible_policy_never_overfills_a_round() {
        // N=100, μ=36 → n_ub=3 and n_ub×μ=108 > N: the round must still cap at N.
        let eval = s1();
        let policy = Policy::offload_default(100, 36);
        let queue: Vec<Request> = (0..150).map(|id| Request::new(id, 77, 32)).collect();
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_gen_len(32)
            .with_policy(policy)
            .with_queue(queue);
        let report = eval.run(&spec).unwrap();
        assert_eq!(report.served_requests(), 150);
        for round in &report.rounds {
            assert!(
                round.report.requests <= policy.batch_size,
                "round {} schedules {} > N={}",
                round.round,
                round.report.requests,
                policy.batch_size
            );
        }
        // The KV budget (⌈N·ctx/n_ub⌉ tokens per micro-batch) binds just below the
        // total cap here; the point is the round lands at ~N, not at n_ub×μ = 108.
        assert!(report.rounds[0].report.requests >= 95);
    }

    #[test]
    fn continuous_mode_caps_concurrent_requests_at_the_policy_batch() {
        let eval = s1();
        let policy = Policy::offload_default(100, 36);
        let queue: Vec<Request> = (0..150).map(|id| Request::new(id, 77, 32)).collect();
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_gen_len(32)
            .with_policy(policy)
            .with_mode(ServingMode::Continuous)
            .with_queue(queue);
        let report = eval.run(&spec).unwrap();
        assert_eq!(report.served_requests(), 150);
        for wave in &report.rounds {
            assert!(
                wave.occupancy.iter().sum::<u64>() <= policy.batch_size,
                "wave {} holds {} concurrent requests > N={}",
                wave.round,
                wave.occupancy.iter().sum::<u64>(),
                policy.batch_size
            );
            assert!(wave.occupancy.iter().all(|&o| o <= policy.micro_batch_size));
        }
    }

    #[test]
    fn oversized_request_is_aborted_not_served() {
        let eval = s1();
        let spec =
            ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench()).with_gen_len(32);
        let budget = kv_budget(&spec);
        let queue = vec![Request::new(0, 50, 32), Request::new(1, budget + 1, 32)];
        let report = eval.run(&spec.with_queue(queue)).unwrap();
        assert_eq!(report.served_requests(), 1);
        assert_eq!(report.aborted.len(), 1);
        assert_eq!(report.aborted[0].id, 1);
    }

    #[test]
    fn permanently_oversized_requests_are_classified_up_front() {
        // Regression for the O(rounds × queue) re-batching bug: oversized requests
        // used to survive into `pending` every round (re-sorted by prompt length
        // each time) and only landed in `aborted` — in *descending prompt order* —
        // once everything else drained. They are now classified before the first
        // round and keep their queue order.
        let eval = s1();
        for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
            let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
                .with_gen_len(32)
                .with_mode(mode);
            let budget = kv_budget(&spec);
            let queue = vec![
                Request::new(0, 120, 32),
                Request::new(1, budget + 1, 32),
                Request::new(2, 80, 32),
                Request::new(3, budget + 500, 32),
            ];
            let report = eval.run(&spec.with_queue(queue)).unwrap();
            assert_eq!(report.served_requests(), 2);
            let aborted_ids: Vec<u64> = report.aborted.iter().map(|r| r.id).collect();
            assert_eq!(
                aborted_ids,
                vec![1, 3],
                "{mode}: oversized requests must be aborted up front in queue order"
            );
        }
    }

    #[test]
    fn unpadded_serving_beats_padded_on_variable_length_queues() {
        let eval = s1();
        let padded = eval
            .run(
                &ServeSpec::new(SystemKind::MoeLightningPadded, WorkloadSpec::mtbench())
                    .with_count(500)
                    .with_gen_len(64)
                    .with_seed(11),
            )
            .unwrap();
        let unpadded = eval.run(&mtbench_spec(500, 64, 11)).unwrap();
        assert!(padded.aborted.is_empty() && unpadded.aborted.is_empty());
        assert!(
            unpadded.generation_throughput() > padded.generation_throughput(),
            "padding wastes KV capacity and attention compute: {} vs {}",
            unpadded.generation_throughput(),
            padded.generation_throughput()
        );
    }

    #[test]
    fn reports_record_the_scheduler_that_produced_them() {
        let eval = s1();
        let report = eval.run(&mtbench_spec(100, 32, 1)).unwrap();
        assert_eq!(report.scheduler, "algo2");
        let report = eval
            .run(&mtbench_spec(100, 32, 1).with_scheduler(Arc::new(moe_workload::TokenBudget)))
            .unwrap();
        assert_eq!(report.scheduler, "token-budget");
    }

    #[test]
    fn serve_spec_defaults_match_the_offline_evaluation() {
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
        assert_eq!(spec.cluster.system, SystemKind::MoeLightning);
        assert_eq!(spec.cluster.mode, ServingMode::RoundToCompletion);
        assert_eq!(spec.scheduler.name(), "algo2");
    }

    #[test]
    fn run_honours_an_explicit_policy_override() {
        let eval = s1();
        let policy = Policy::offload_default(60, 20);
        let report = eval
            .run(&mtbench_spec(120, 32, 3).with_policy(policy))
            .unwrap();
        assert_eq!(report.policy, policy);
        for round in &report.rounds {
            assert!(round.report.requests <= 60);
        }
    }

    #[test]
    fn online_arrivals_flow_through_the_spec() {
        let eval = s1();
        let report = eval
            .run(
                &mtbench_spec(80, 32, 5)
                    .with_mode(ServingMode::Continuous)
                    .with_arrivals(ArrivalProcess::Burst {
                        size: 20,
                        period_secs: 1000.0,
                    }),
            )
            .unwrap();
        assert_eq!(report.served_requests(), 80);
        // Bursts spaced far apart: at least one request arrives (and is measured
        // from) a non-zero time.
        assert!(report
            .latencies
            .iter()
            .any(|l| l.request.arrival > Seconds::ZERO));
    }

    #[test]
    fn invalid_batching_config_returns_a_typed_error_instead_of_panicking() {
        let eval = s1();
        // A zero-context workload shape sizes a zero KV budget, which used to
        // reach div_ceil/slicing as a nonsense config; it must now surface as a
        // typed error from run().
        let empty_prompts = WorkloadSpec {
            avg_prompt_len: 0,
            max_prompt_len: 0,
            ..WorkloadSpec::mtbench()
        };
        let spec = ServeSpec::new(SystemKind::MoeLightning, empty_prompts)
            .with_gen_len(0)
            .with_policy(Policy::offload_default(8, 4))
            .with_queue(vec![Request::new(0, 10, 10)]);
        let err = eval.run(&spec).unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidBatchingConfig {
                reason: moe_workload::BatchingConfigError::ZeroCacheBudget
            }
        ));
        assert!(err.to_string().contains("cache_tokens_per_micro_batch"));
    }

    #[test]
    fn an_overflowing_cache_budget_returns_a_typed_error_instead_of_panicking() {
        // batch_size × max_context overflows a u64.
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_policy(Policy::offload_default(u64::MAX / 2, 1 << 62))
            .with_count(4);
        let err = s1().run(&spec).unwrap_err();
        let reason = moe_workload::BatchingConfigError::CacheBudgetOverflow;
        assert_eq!(err, EngineError::InvalidBatchingConfig { reason });
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn serving_mode_labels_are_stable() {
        assert_eq!(ServingMode::RoundToCompletion.label(), "rtc");
        assert_eq!(ServingMode::Continuous.label(), "cont");
        assert_eq!(
            ServingMode::RoundToCompletion.to_string(),
            "round-to-completion"
        );
        assert_eq!(ServingMode::Continuous.to_string(), "continuous");
        assert_eq!(ServingMode::default(), ServingMode::RoundToCompletion);
    }
}
