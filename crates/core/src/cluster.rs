//! Cluster-level serving: a fleet of replicas behind a pluggable request
//! [`Router`].
//!
//! Single-node serving (a [`crate::ServeSpec`] through
//! [`SystemEvaluator::run`]) is a 1-replica fleet: it lifts its spec with
//! [`crate::ServeSpec::into_cluster`] and calls [`ClusterEvaluator::run`],
//! the one entry into this layer's driver loop, so [`ClusterSpec::validate`]
//! checks every scenario before any policy search. A [`ClusterSpec`]
//! describes a fleet of N replicas —
//! each an optionally heterogeneous [`moe_hardware::NodeSpec`] with its own
//! policy and [`Scheduler`] (e.g. a mixed T4/L4 fleet) — plus the fleet-wide
//! workload: arrivals are sampled **once** for the whole fleet (an
//! [`ArrivalProcess`] stamps one global queue) and a [`Router`] assigns each
//! request to a replica at its arrival instant.
//!
//! [`ClusterEvaluator::run`] merges the per-replica event streams into one
//! global clock: completions, admission waves and arrivals are processed in
//! global time order, so a routing decision sees every replica's state as of
//! the decision instant and queue-aware TTFT / per-token latency remain
//! correct across the fleet. Four routing strategies ship on one dispatch
//! engine ([`RoundRobin`], [`LeastOutstandingTokens`], [`PowerOfTwoChoices`],
//! [`KvAware`]); custom strategies implement [`Router`].
//!
//! The outcome is a [`ClusterReport`]: per-replica [`ServingReport`]s plus
//! fleet-wide latency summaries, fleet throughput over the global makespan,
//! and goodput under per-request SLOs ([`SloSpec`]: TTFT and per-token
//! deadlines, attainment percentage).
//!
//! The fleet is not necessarily static: a [`FleetTimeline`] injects failures,
//! drains and joins mid-run, an [`Autoscaler`] grows or shrinks the fleet from
//! observed load, and an [`AdmissionController`] may reject hopeless arrivals
//! outright — see [`crate::dynamics`]. The report's
//! [`ClusterReport::availability`] section records what churn did to the run.

use crate::agenda::{Agenda, Event};
use crate::disagg::{CacheStats, InterconnectSpec, PrefixCache, ReplicaRole};
use crate::dynamics::{
    AdmissionController, AdmitAll, Autoscaler, AvailabilityReport, FleetAction, FleetTimeline,
    FleetView, ScaleBounds, ScaleDecision,
};
use crate::engine::{batching_for, EventScratch, Finished, Lifecycle, ReplicaEngine};
use crate::evaluator::{EngineError, SystemEvaluator};
use crate::observe::ObsState;
use crate::serving::{ServingMode, ServingReport};
use crate::system::SystemKind;
use moe_hardware::{NodeSpec, Seconds};
use moe_model::MoeModelConfig;
use moe_policy::Policy;
use moe_telemetry::{Section, TelemetrySink};
use moe_workload::{
    Algorithm2, ArrivalProcess, BatchRunReport, GenLens, LatencySummary, Request, RequestLatency,
    Scheduler, WorkloadSpec,
};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

pub use crate::router::{
    builtin_routers, KvAware, LeastOutstandingTokens, PowerOfTwoChoices, ReplicaId, ReplicaView,
    RoundRobin, Router, RouterCtx, RouterIndex,
};

/// Per-request service-level objective: deadlines on queue-aware TTFT and mean
/// per-token latency. A served request *attains* the SLO when it meets both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Deadline on time-to-first-token, measured from the request's arrival.
    pub ttft: Seconds,
    /// Deadline on the request's mean per-token decode latency.
    pub per_token: Seconds,
}

impl SloSpec {
    /// Whether a served request met both deadlines.
    pub fn attained(&self, latency: &RequestLatency) -> bool {
        latency.ttft <= self.ttft && latency.per_token <= self.per_token
    }
}

/// The most sampling intervals a run's last arrival or timeline instant may
/// lie in. A sampling sink takes a snapshot per interval up to there: 20
/// requests at a Poisson rate of 1e-6 (about 2·10^7 intervals of 1 s) took
/// 2.6–3.0 s on a 2-vCPU VM, so the budget bounds that work to well under a
/// minute.
const SAMPLE_BUDGET: f64 = 1e8;

/// Why a [`ClusterSpec`] is unusable (see [`ClusterSpec::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ClusterSpecError {
    /// The fleet is empty — no replica could ever serve a request.
    NoReplicas,
    /// The scenario asks for zero requests — nothing to route or serve.
    ZeroRequests,
    /// The autoscaler's [`ScaleBounds`] are inverted (`min_replicas` exceeds
    /// `max_replicas`) or allow an empty fleet (`max_replicas` of zero).
    InvalidScaleBounds,
    /// The disaggregated pools cannot serve: with role pools in play the
    /// fleet needs at least one replica taking arrivals (prefill or unified)
    /// and one taking migrations (decode or unified).
    IncompletePools,
    /// Some arrival stamp would not be finite, or could not be drawn at all:
    /// the synthesized queue's [`ArrivalProcess`] has a Poisson rate that is
    /// not positive (zero, negative or NaN) or so small that the largest
    /// stamp it can draw overflows, a burst of zero requests or a
    /// non-finite burst period, or an explicit queue
    /// ([`ClusterSpec::with_queue`]) carries a non-finite arrival.
    InvalidArrivals,
    /// The [`WorkloadSpec`] cannot sample the synthesized queue: its average
    /// prompt length is zero or exceeds its maximum, or the scenario asks for
    /// mixed generation lengths and the workload has no defaults. Checked
    /// only when the run synthesizes its queue: an explicit queue is exempt.
    InvalidWorkload,
    /// The [`InterconnectSpec`] would land every KV migration at `t = +inf`:
    /// its bandwidth is not positive (zero, negative or NaN) or its latency
    /// is not finite.
    InvalidInterconnect,
    /// The [`FleetTimeline`] would act at a non-finite instant: an action is
    /// scheduled at one, or its provisioning delay is not finite, so a join
    /// would come up at `t = +inf`.
    InvalidTimeline,
    /// The telemetry sink's [`TelemetrySink::sample_interval`] is not finite
    /// and positive: the sampling cursor would never pass the next event.
    InvalidSampleInterval,
    /// The last arrival or the timeline's last instant (a timeline join's
    /// provisioning included) lies more than `SAMPLE_BUDGET` (10^8) sampling
    /// intervals in: the sink would take a snapshot per interval up to it,
    /// and the run would not return in any useful time. Checked on the
    /// realized queue by [`ClusterEvaluator::run`], and on an explicit queue
    /// and the timeline by [`ClusterSpec::validate`].
    ExceedsSampleBudget,
    /// A policy override ([`ReplicaSpec::with_policy`], on a replica, the
    /// scale template or a timeline join, or [`crate::ServeSpec::with_policy`])
    /// fails [`Policy::validate`]: a zero batch or micro-batch, a
    /// micro-batch larger than the batch, or a GPU ratio outside `[0, 1]`
    /// (NaN included).
    InvalidPolicy,
}

impl fmt::Display for ClusterSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterSpecError::NoReplicas => f.write_str("the fleet has zero replicas"),
            ClusterSpecError::ZeroRequests => f.write_str("the scenario has zero requests"),
            ClusterSpecError::InvalidScaleBounds => {
                f.write_str("the autoscaler bounds are inverted or allow an empty fleet")
            }
            ClusterSpecError::IncompletePools => f.write_str(
                "disaggregated pools need an arrival-taking and a migration-taking replica",
            ),
            ClusterSpecError::InvalidArrivals => f.write_str(
                "arrivals need finite stamps: a positive Poisson rate whose stamps cannot \
                 overflow, a non-empty burst with a finite period, and no non-finite explicit \
                 arrival",
            ),
            ClusterSpecError::InvalidWorkload => f.write_str(
                "the workload needs an average prompt in 1..=max and, for mixed generation \
                 lengths, default generation lengths",
            ),
            ClusterSpecError::InvalidInterconnect => {
                f.write_str("the interconnect needs a positive bandwidth and a finite latency")
            }
            ClusterSpecError::InvalidTimeline => f.write_str(
                "the fleet timeline needs finite action instants and a finite provisioning delay",
            ),
            ClusterSpecError::InvalidSampleInterval => {
                f.write_str("the telemetry sampling interval must be finite and positive")
            }
            ClusterSpecError::ExceedsSampleBudget => f.write_str(
                "the last arrival or timeline instant lies more than 10^8 sampling intervals in",
            ),
            ClusterSpecError::InvalidPolicy => f.write_str(
                "a policy override needs a positive batch no smaller than its micro-batch and \
                 GPU ratios in [0, 1]",
            ),
        }
    }
}

impl std::error::Error for ClusterSpecError {}

/// One replica of a cluster: a hardware node plus (optionally) an explicit
/// policy override and a batch-formation strategy. Replicas of one fleet may
/// be heterogeneous in all three.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    pub(crate) node: NodeSpec,
    pub(crate) policy: Option<Policy>,
    pub(crate) scheduler: Arc<dyn Scheduler>,
    pub(crate) role: ReplicaRole,
}

impl ReplicaSpec {
    /// A replica on `node` with the system's searched policy and the paper's
    /// [`Algorithm2`] batcher.
    pub fn new(node: NodeSpec) -> Self {
        ReplicaSpec {
            node,
            policy: None,
            scheduler: Arc::new(Algorithm2),
            role: ReplicaRole::Unified,
        }
    }

    /// Overrides the policy instead of searching one for the replica's node.
    /// [`ClusterSpec::validate`] checks it with [`Policy::validate`].
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the replica's batch-formation strategy.
    pub fn with_scheduler(mut self, scheduler: Arc<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The hardware node this replica runs on.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }
}

/// A declarative cluster serving scenario: the fleet (per-replica node, policy
/// and scheduler), the fleet-wide workload (request count, generation lengths,
/// seed, serving mode, arrival process — sampled once for the whole fleet),
/// the [`Router`], and an optional [`SloSpec`]. Consumed by
/// [`ClusterEvaluator::run`].
///
/// A single-node [`crate::ServeSpec`] is this spec without replicas, and
/// lifts into a cluster with [`crate::ServeSpec::into_cluster`]; a
/// one-replica cluster reproduces the single-node scenario.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub(crate) system: SystemKind,
    pub(crate) workload: WorkloadSpec,
    pub(crate) replicas: Vec<ReplicaSpec>,
    pub(crate) count: usize,
    pub(crate) gen: GenLens,
    pub(crate) seed: u64,
    pub(crate) mode: ServingMode,
    pub(crate) arrivals: ArrivalProcess,
    pub(crate) router: Arc<dyn Router>,
    pub(crate) slo: Option<SloSpec>,
    pub(crate) timeline: FleetTimeline,
    pub(crate) autoscaler: Option<(Arc<dyn Autoscaler>, ScaleBounds)>,
    pub(crate) admission: Arc<dyn AdmissionController>,
    pub(crate) scale_template: Option<ReplicaSpec>,
    /// Shared, so cloning a spec never copies an explicit queue.
    pub(crate) queue: Option<Arc<Vec<Request>>>,
    pub(crate) telemetry: Option<Arc<dyn TelemetrySink>>,
    pub(crate) interconnect: InterconnectSpec,
    pub(crate) prefix_cache: Option<u64>,
}

impl ClusterSpec {
    /// An empty-fleet scenario with the defaults [`crate::ServeSpec::new`]
    /// shares: 1000 requests, the workload's first default generation
    /// length, seed 0, round-to-completion mode, immediate arrivals,
    /// [`RoundRobin`] routing.
    /// Add replicas with [`Self::with_replica`] / [`Self::with_node`].
    pub fn new(system: SystemKind, workload: WorkloadSpec) -> Self {
        let gen = GenLens::Uniform(workload.default_gen_lens.first().copied().unwrap_or(128));
        ClusterSpec {
            system,
            workload,
            replicas: Vec::new(),
            count: 1000,
            gen,
            seed: 0,
            mode: ServingMode::default(),
            arrivals: ArrivalProcess::Immediate,
            router: Arc::new(RoundRobin),
            slo: None,
            timeline: FleetTimeline::new(),
            autoscaler: None,
            admission: Arc::new(AdmitAll),
            scale_template: None,
            queue: None,
            telemetry: None,
            interconnect: InterconnectSpec::default(),
            prefix_cache: None,
        }
    }

    /// A homogeneous fleet: `n` replicas of the same node.
    pub fn homogeneous(
        system: SystemKind,
        workload: WorkloadSpec,
        node: &NodeSpec,
        n: usize,
    ) -> Self {
        let mut spec = Self::new(system, workload);
        for _ in 0..n {
            spec = spec.with_node(node.clone());
        }
        spec
    }

    /// Appends a replica to the fleet.
    pub fn with_replica(mut self, replica: ReplicaSpec) -> Self {
        self.replicas.push(replica);
        self
    }

    /// Appends a default-configured replica on `node` (shorthand for
    /// [`Self::with_replica`] of [`ReplicaSpec::new`]).
    pub fn with_node(self, node: NodeSpec) -> Self {
        self.with_replica(ReplicaSpec::new(node))
    }

    /// Sets the fleet-wide number of requests.
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Gives every request the same generation length.
    pub fn with_gen_len(mut self, gen_len: u64) -> Self {
        self.gen = GenLens::Uniform(gen_len);
        self
    }

    /// Draws each request's generation length uniformly from the workload's
    /// `default_gen_lens`.
    pub fn with_mixed_gen_lens(mut self) -> Self {
        self.gen = GenLens::MixedDefaults;
        self
    }

    /// Sets the queue-synthesis (and router RNG) seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the serving mode every replica runs in.
    pub fn with_mode(mut self, mode: ServingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Stamps fleet-wide arrival times from `arrivals` (sampled once for the
    /// whole fleet, not per replica).
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the request-routing strategy.
    pub fn with_router(mut self, router: Arc<dyn Router>) -> Self {
        self.router = router;
        self
    }

    /// Records the per-request SLO the report's goodput is judged against.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Injects a schedule of membership events (failures, drains, joins)
    /// executed mid-run on the global clock.
    pub fn with_timeline(mut self, timeline: FleetTimeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// Installs an [`Autoscaler`] whose Join/Drain decisions the control plane
    /// executes within `bounds` (min/max fleet size, cooldown). Scale-ups
    /// provision the scale template (see [`Self::with_scale_template`]) after
    /// the timeline's provisioning delay.
    pub fn with_autoscaler(mut self, scaler: Arc<dyn Autoscaler>, bounds: ScaleBounds) -> Self {
        self.autoscaler = Some((scaler, bounds));
        self
    }

    /// Installs an [`AdmissionController`] consulted once per arrival, after
    /// routing: a refused request is recorded as rejected instead of queued.
    /// Defaults to [`AdmitAll`]. Requests re-routed by a failure or drain are
    /// not re-screened — they were already accepted into the system.
    pub fn with_admission(mut self, admission: Arc<dyn AdmissionController>) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the replica spec autoscaler scale-ups provision (defaults to a
    /// clone of the fleet's first replica).
    pub fn with_scale_template(mut self, template: ReplicaSpec) -> Self {
        self.scale_template = Some(template);
        self
    }

    /// Replaces workload synthesis with an explicit, pre-stamped request
    /// queue (the replay side of the trace subsystem). Sets `count` to the
    /// queue length; requests are served in `(arrival, id)` order. Arrival
    /// stamps are taken as-is and the scenario's [`ArrivalProcess`] is
    /// ignored (the queue already *is* a realized arrival stream).
    pub fn with_queue(mut self, queue: Vec<Request>) -> Self {
        self.count = queue.len();
        self.queue = Some(Arc::new(queue));
        self
    }

    /// Checks that the scenario can serve at least one request — the one
    /// place a scenario is checked, before any policy search.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint (empty fleet, zero requests,
    /// inverted autoscaler bounds, a timeline acting at a non-finite
    /// instant, a policy override on a replica, the scale template or a
    /// timeline join that [`Policy::validate`] rejects, a sampling interval
    /// that is not finite and positive, incomplete pools, unusable
    /// interconnect, a workload that cannot synthesize the queue, arrivals
    /// that cannot be stamped or are not finite, an explicit queue or a
    /// timeline reaching past the sample budget).
    pub fn validate(&self) -> Result<(), ClusterSpecError> {
        if self.replicas.is_empty() {
            return Err(ClusterSpecError::NoReplicas);
        }
        if self.count == 0 {
            return Err(ClusterSpecError::ZeroRequests);
        }
        if let Some((_, bounds)) = &self.autoscaler {
            if bounds.min_replicas > bounds.max_replicas || bounds.max_replicas == 0 {
                return Err(ClusterSpecError::InvalidScaleBounds);
            }
        }
        // An action or a join landing at `+inf` would settle there, after
        // every request, and a sampling sink would never reach it.
        let events = self.timeline.sorted_events();
        if !self.timeline.provisioning_delay().as_secs().is_finite()
            || events.iter().any(|(at, _)| !at.as_secs().is_finite())
        {
            return Err(ClusterSpecError::InvalidTimeline);
        }
        let joins = events.iter().filter_map(|(_, action)| match action {
            FleetAction::Join(replica) => Some(&**replica),
            _ => None,
        });
        let templates = self.scale_template.iter().chain(joins);
        let replicas = self.replicas.iter().chain(templates);
        if (replicas.filter_map(|r| r.policy)).any(|policy| policy.validate().is_err()) {
            return Err(ClusterSpecError::InvalidPolicy);
        }
        let interval = self.telemetry.as_ref().and_then(|s| s.sample_interval());
        if interval.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
            return Err(ClusterSpecError::InvalidSampleInterval);
        }
        if self.has_role_pools()
            && (!self.replicas.iter().any(|r| r.role.takes_arrivals())
                || !self.replicas.iter().any(|r| r.role.takes_migrations()))
        {
            return Err(ClusterSpecError::IncompletePools);
        }
        // `bandwidth()` clamps a negative or NaN rate to zero.
        let link = self.interconnect;
        if link.bandwidth().as_bytes_per_sec() <= 0.0 || !link.latency().as_secs().is_finite() {
            return Err(ClusterSpecError::InvalidInterconnect);
        }
        // A stamp at `+inf` would park its request, and continuous serving's
        // clock, there forever. An explicit queue is already a realized
        // arrival stream, so only its stamps are checked; a synthesized one
        // must meet what `WorkloadSpec::synthesize_queue` and
        // `ArrivalProcess::stamp` assert.
        let arrivals_ok = match &self.queue {
            Some(queue) => queue.iter().all(|r| r.arrival.as_secs().is_finite()),
            None => {
                let workload = &self.workload;
                if workload.avg_prompt_len == 0
                    || workload.avg_prompt_len > workload.max_prompt_len
                    || (self.gen == GenLens::MixedDefaults && workload.default_gen_lens.is_empty())
                {
                    return Err(ClusterSpecError::InvalidWorkload);
                }
                match self.arrivals {
                    ArrivalProcess::Immediate => true,
                    // The stamper's RNG draws 53 bits, so each exponential
                    // gap is at most `53·ln 2 / rate`: a positive rate small
                    // enough to overflow the last stamp is rejected too.
                    ArrivalProcess::Poisson { rate_per_sec } => {
                        let span = self.count as f64 * 53.0 * std::f64::consts::LN_2;
                        rate_per_sec > 0.0 && (span / rate_per_sec).is_finite()
                    }
                    ArrivalProcess::Burst { size, period_secs } => {
                        size > 0 && period_secs.is_finite()
                    }
                }
            }
        };
        if !arrivals_ok {
            return Err(ClusterSpecError::InvalidArrivals);
        }
        let explicit = self.queue.iter().flat_map(|queue| queue.iter());
        self.check_sample_budget(explicit.map(|r| r.arrival), &events)
    }

    /// [`ClusterSpecError::ExceedsSampleBudget`] if the sink samples and the
    /// last of `arrivals` or of the sorted timeline `events` lies more than
    /// `SAMPLE_BUDGET` of its intervals in.
    fn check_sample_budget(
        &self,
        arrivals: impl Iterator<Item = Seconds>,
        events: &[(Seconds, FleetAction)],
    ) -> Result<(), ClusterSpecError> {
        let Some(interval) = self.telemetry.as_ref().and_then(|s| s.sample_interval()) else {
            return Ok(());
        };
        let delay = self.timeline.provisioning_delay();
        let instants = events.iter().map(|(at, action)| match action {
            FleetAction::Join(_) => *at + delay,
            _ => *at,
        });
        let last = arrivals.chain(instants).fold(Seconds::ZERO, Seconds::max);
        if last.as_secs() / interval > SAMPLE_BUDGET {
            return Err(ClusterSpecError::ExceedsSampleBudget);
        }
        Ok(())
    }

    /// The name of the routing strategy.
    pub fn router_name(&self) -> &'static str {
        self.router.name()
    }
}

/// One replica's outcome within a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Which replica this is.
    pub id: ReplicaId,
    /// Human-readable node description (e.g. `"1xNVIDIA T4 + …"`).
    pub node: String,
    /// The per-micro-batch KV-cache budget the replica enforced.
    pub kv_budget_per_micro_batch: u64,
    /// Final prefix-cache statistics, when the replica carried one (see
    /// [`ClusterSpec::with_prefix_cache`]).
    pub cache: Option<CacheStats>,
    /// The replica's full single-node serving report.
    pub report: ServingReport,
}

/// Aggregate outcome of serving one fleet-wide request queue on a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Name of the [`Router`] that dispatched the queue.
    pub router: String,
    /// The serving mode every replica ran in.
    pub mode: ServingMode,
    /// Per-replica reports, in replica-id order.
    pub replicas: Vec<ReplicaReport>,
    /// Requests no replica could ever serve (their prompt + generation alone
    /// overflows every replica's per-micro-batch KV budget, or no replica was
    /// alive to take them), in arrival order.
    pub fleet_aborted: Vec<Request>,
    /// The SLO recorded on the scenario, if any.
    pub slo: Option<SloSpec>,
    /// What churn, autoscaling and admission control did to the run:
    /// rejections, re-routes, membership events, replica-seconds lost.
    pub availability: AvailabilityReport,
    /// Combined token/time totals across all replicas.
    pub totals: BatchRunReport,
}

impl ClusterReport {
    /// Number of requests served to completion across the fleet.
    pub fn served_requests(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.report.served_requests())
            .sum()
    }

    /// Number of aborted requests (fleet-level plus per-replica).
    pub fn aborted_requests(&self) -> usize {
        self.fleet_aborted.len()
            + self
                .replicas
                .iter()
                .map(|r| r.report.aborted.len())
                .sum::<usize>()
    }

    /// Number of requests the admission controller rejected (never queued).
    pub fn rejected_requests(&self) -> usize {
        self.availability.rejected.len()
    }

    /// Every request the scenario synthesized lands in exactly one bucket:
    /// served, aborted, or rejected. This is their sum (the arrival count).
    pub fn total_requests(&self) -> usize {
        self.served_requests() + self.aborted_requests() + self.rejected_requests()
    }

    /// Every served request's latency record, across all replicas.
    pub fn latencies(&self) -> Vec<RequestLatency> {
        let len = self.replicas.iter().map(|r| r.report.latencies.len()).sum();
        let mut all = Vec::with_capacity(len);
        for replica in &self.replicas {
            all.extend_from_slice(&replica.report.latencies);
        }
        all
    }

    /// Global makespan: the latest absolute completion instant (arrival +
    /// completion latency) over all served requests.
    pub fn makespan(&self) -> Seconds {
        self.replicas
            .iter()
            .flat_map(|r| r.report.latencies.iter())
            .map(|l| l.request.arrival + l.completion_time)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Fleet generation throughput in tokens/s: generated tokens over the
    /// global makespan (wall-clock from the first arrival at time zero to the
    /// last completion, idle gaps included — the fleet-level metric).
    pub fn fleet_throughput(&self) -> f64 {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return 0.0;
        }
        self.totals.generated_tokens as f64 / span
    }

    /// Fleet-wide time-to-first-token summary (queue-aware).
    pub fn ttft(&self) -> LatencySummary {
        LatencySummary::ttft(&self.latencies())
    }

    /// Fleet-wide per-token latency summary.
    pub fn per_token(&self) -> LatencySummary {
        LatencySummary::per_token(&self.latencies())
    }

    /// Fleet-wide completion-time summary (queue-aware).
    pub fn completion(&self) -> LatencySummary {
        LatencySummary::completion(&self.latencies())
    }

    /// Percentage (0–100) of *all* requests that were served and met `slo`
    /// (aborted and admission-rejected requests count as missed).
    pub fn slo_attainment_pct(&self, slo: &SloSpec) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            return 0.0;
        }
        let attained = self
            .replicas
            .iter()
            .flat_map(|r| r.report.latencies.iter())
            .filter(|l| slo.attained(l))
            .count();
        100.0 * attained as f64 / total as f64
    }

    /// Fleet goodput in tokens/s: generated tokens of SLO-attaining requests
    /// over the global makespan.
    pub fn goodput(&self, slo: &SloSpec) -> f64 {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return 0.0;
        }
        let attained_tokens: u64 = self
            .replicas
            .iter()
            .flat_map(|r| r.report.latencies.iter())
            .filter(|l| slo.attained(l))
            .map(|l| l.request.gen_len)
            .sum();
        attained_tokens as f64 / span
    }

    /// Fleet goodput in tokens/s counting only requests churn never touched:
    /// SLO-attaining requests that were not re-routed by a failure or drain.
    /// The gap to [`Self::goodput`] is the goodput churn-displaced requests
    /// still salvaged; the gap to a churn-free run of the same scenario is the
    /// goodput churn destroyed.
    pub fn unchurned_goodput(&self, slo: &SloSpec) -> f64 {
        let span = self.makespan().as_secs();
        if span <= 0.0 {
            return 0.0;
        }
        let rerouted: std::collections::HashSet<u64> =
            self.availability.rerouted.iter().copied().collect();
        let attained_tokens: u64 = self
            .replicas
            .iter()
            .flat_map(|r| r.report.latencies.iter())
            .filter(|l| slo.attained(l) && !rerouted.contains(&l.request.id))
            .map(|l| l.request.gen_len)
            .sum();
        attained_tokens as f64 / span
    }
}

/// One distinct node's evaluator and, once searched, its policy: every
/// replica of the node holds the same evaluator (the loop runs on one
/// thread, so an `Rc` shares it).
type NodeCosting = (Rc<SystemEvaluator>, Option<Policy>);

/// Evaluates cluster serving scenarios: one shared model and, per run, one
/// [`SystemEvaluator`] per distinct node, held by every replica of it.
///
/// Two loops produce the identical [`ClusterReport`]. Both pick each event
/// with one selection from one agenda ([`crate::agenda`]: a min-tree over
/// replicas and a min-heap, keyed on time, then kind — timeline action,
/// provisioning completion, KV landing, arrival, replica-internal event —
/// then timeline position, replica id or migration sequence number, with
/// the sorted arrival queue merged under the same order) and settle it
/// through one `match`: one offer → route → admit path, one replica step.
/// They differ only in how fresh the agenda's replica entries and the
/// routing offers are kept:
///
/// * the **indexed loop** (default) — each replica's agenda entry and its
///   view in one [`RouterIndex`] per pool (arrivals and migrations on a
///   fleet with role pools, one for the whole fleet otherwise) are
///   refreshed only for replicas whose state changed. A request that fits
///   every budget in its pool is routed from the whole index (with
///   [`Router::route_indexed`] fast paths); a request masked for part of
///   its pool gets the scan loop's offer of fresh views. Autoscaler
///   observations read the index on a fleet without role pools and fresh
///   views on a fleet with them;
/// * the **scan loop** ([`Self::with_scan_loop`]) — every replica's agenda
///   entry is refreshed before each selection, and offers and autoscaler
///   observations are rebuilt from fresh views. `O(fleet)` per event; kept
///   as the test reference the self-check fixtures and the `scale_sweep`
///   speedup gate measure against.
#[derive(Debug, Clone)]
pub struct ClusterEvaluator {
    model: MoeModelConfig,
    scan_loop: bool,
}

impl ClusterEvaluator {
    /// Creates a cluster evaluator for `model` (every replica serves the same
    /// model; the hardware may differ per replica).
    pub fn new(model: MoeModelConfig) -> Self {
        ClusterEvaluator {
            model,
            scan_loop: false,
        }
    }

    /// Selects the linear scan loop instead of the indexed fast path (see the
    /// type-level docs). The report is identical; only the work per event
    /// changes. Exposed for the self-check fixtures and the `scale_sweep`
    /// speedup baseline, not for production use.
    #[doc(hidden)]
    pub fn with_scan_loop(mut self) -> Self {
        self.scan_loop = true;
        self
    }

    /// Does nothing: the fleet loop settles one replica event per iteration
    /// on the calling thread, so there are no shard threads to cap.
    #[deprecated(note = "the fleet loop no longer shards replica stepping; remove the call")]
    pub fn with_shard_threads(self, _threads: usize) -> Self {
        self
    }

    /// The model the fleet serves.
    pub fn model(&self) -> &MoeModelConfig {
        &self.model
    }

    /// Builds one replica's event machine — the only place a
    /// [`ReplicaEngine`] is constructed, for the initial fleet and joiners
    /// alike: sizes (or adopts) its policy for the scenario's workload shape
    /// and validates the implied batching.
    fn build_engine(
        &self,
        spec: &ClusterSpec,
        replica: &ReplicaSpec,
        index: usize,
        node_cache: &mut Vec<NodeCosting>,
    ) -> Result<ReplicaEngine, EngineError> {
        // Replicas of one node hold one evaluator, so their steps are priced
        // by one cost model and share its token-keyed price memo.
        let at = match node_cache
            .iter()
            .position(|(evaluator, _)| *evaluator.node() == replica.node)
        {
            Some(at) => at,
            None => {
                let evaluator = SystemEvaluator::new(replica.node.clone(), self.model.clone());
                node_cache.push((Rc::new(evaluator), None));
                node_cache.len() - 1
            }
        };
        let (evaluator, searched) = &mut node_cache[at];
        // Policies (and thus KV budgets) are sized for the scenario's expected
        // generation length — the mean of the defaults for mixed queues, where
        // per-round admission control keeps the long-generation tail within
        // budget and worst-case sizing would forfeit most of the batch.
        let policy_gen = spec.gen.policy_gen_for(&spec.workload);
        let shape = evaluator.workload_shape(spec.system, &spec.workload, policy_gen);
        // The policy search only depends on the node within one run (system,
        // workload and policy generation are fixed), so a homogeneous
        // 1000-replica fleet searches once, not 1000 times.
        let policy = match (replica.policy, *searched) {
            (Some(policy), _) | (None, Some(policy)) => policy,
            (None, None) => *searched.insert(evaluator.policy_for(spec.system, &shape)?),
        };
        let evaluator = Rc::clone(evaluator);
        let batching = batching_for(&policy, &shape)
            .map_err(|reason| EngineError::InvalidBatchingConfig { reason })?;
        let mut engine = ReplicaEngine::new(
            ReplicaId(index),
            evaluator,
            spec.system,
            policy,
            batching,
            spec.mode,
            Arc::clone(&replica.scheduler),
        );
        engine.role = replica.role;
        engine.prefix_cache = spec.prefix_cache.map(PrefixCache::new);
        Ok(engine)
    }

    /// Executes one cluster scenario — the one entry into the driver loop,
    /// for fleets and single nodes alike: checks the spec, sizes or adopts
    /// each replica's policy, realizes the fleet-wide request queue (arrivals
    /// sampled once), routes every request through the scenario's [`Router`]
    /// at its arrival instant, and drains each replica's stream on a merged
    /// global clock — executing the scenario's [`FleetTimeline`],
    /// [`Autoscaler`] and [`AdmissionController`] along the way.
    ///
    /// # Errors
    ///
    /// Spec errors come first: [`EngineError::InvalidClusterSpec`] for any
    /// constraint [`ClusterSpec::validate`] rejects, and for a realized
    /// queue past the sample budget
    /// ([`ClusterSpecError::ExceedsSampleBudget`]), before any policy
    /// search. Then [`EngineError::NoFeasiblePolicy`] if some replica cannot
    /// run at all, and batching/simulation errors.
    pub fn run(&self, spec: &ClusterSpec) -> Result<ClusterReport, EngineError> {
        let invalid = |reason| EngineError::InvalidClusterSpec { reason };
        spec.validate().map_err(invalid)?;

        // One fleet-wide queue: arrivals are sampled once, not per replica.
        // An explicit queue is already a realized arrival stream, so its
        // stamps are final and the arrival process is not consulted.
        let mut queue = match &spec.queue {
            Some(explicit) => explicit.to_vec(),
            None => spec.workload.synthesize_queue(
                spec.count,
                spec.gen,
                spec.seed,
                spec.system.pads_requests(),
                &spec.arrivals,
            ),
        };
        queue.sort_by_key(|r| (r.arrival.key(), r.id));
        let timeline = spec.timeline.sorted_events();
        // Only now is a synthesized queue's last arrival known.
        let last_arrival = queue.last().map(|r| r.arrival);
        spec.check_sample_budget(last_arrival.into_iter(), &timeline)
            .map_err(invalid)?;

        // The per-node costing `build_engine` fills; joins share it.
        let mut node_cache: Vec<NodeCosting> = Vec::new();
        let mut engines: Vec<ReplicaEngine> = Vec::with_capacity(spec.replicas.len());
        for (index, replica) in spec.replicas.iter().enumerate() {
            engines.push(self.build_engine(spec, replica, index, &mut node_cache)?);
        }

        let fleet_size = engines.len();
        let membership = Membership::count(&engines);
        let mut plane = FleetLoop {
            cluster: self,
            spec,
            engines,
            ctx: RouterCtx::new(spec.seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x7f4a)),
            fleet_aborted: Vec::new(),
            availability: AvailabilityReport::default(),
            departures: Vec::new(),
            recent: Vec::new(),
            last_scale: None,
            agenda: Agenda::new(&timeline),
            indexes: (0..if spec.has_role_pools() { 2 } else { 1 })
                .map(|_| RouterIndex::new())
                .collect(),
            dirty: Vec::new(),
            is_dirty: vec![false; fleet_size],
            membership,
            node_cache,
            obs: ObsState::new(spec),
            scratch: EventScratch::new(spec.telemetry.is_some()),
        };
        for i in 0..fleet_size {
            plane.mark_dirty(i);
        }

        let mut next = 0usize;
        loop {
            let prof_select = plane.scratch.span_start();
            // Bring the agenda and router index up to date with every replica
            // touched since the last decision; the scan loop refreshes every
            // replica's entry instead.
            plane.flush_dirty();
            if self.scan_loop {
                for (index, engine) in plane.engines.iter().enumerate() {
                    plane.agenda.refresh(index, engine.agenda_entry());
                }
            }
            let selected = plane.agenda.pop(queue.get(next).map(|r| (r.arrival, next)));
            plane.scratch.span_end(Section::EventSelection, prof_select);
            let Some((t, event)) = selected else {
                break;
            };
            // Sampling first advances the cursor to this event, so every
            // gauge snapshot is taken from event-exact state.
            plane.maybe_sample_to(t);
            match event {
                Event::Timeline(position) => plane.apply_action(t, timeline[position].1.clone())?,
                Event::Ready(index) => plane.finish_provisioning(index, t),
                Event::Landing(slot) => plane.land_migration(slot, t),
                Event::Arrival(position) => {
                    next = position + 1;
                    let prof_route = plane.scratch.span_start();
                    plane.dispatch(queue[position], t, true);
                    plane.scratch.span_end(Section::Routing, prof_route);
                }
                Event::Internal(index) => {
                    let prof_step = plane.scratch.span_start();
                    let had_completions = plane.step_replica(index, t)?;
                    if plane.engines[index].drain_finished() {
                        plane.depart(index, t);
                    }
                    plane.scratch.span_end(Section::ShardStep, prof_step);
                    if !had_completions {
                        continue;
                    }
                }
            }
            // Membership changes (a failure may re-route late work), landings,
            // arrivals and completions let the autoscaler react now.
            plane.maybe_autoscale(t)?;
        }
        plane.finish_observation();

        let FleetLoop {
            engines,
            fleet_aborted,
            mut availability,
            departures,
            ..
        } = plane;
        availability.rerouted.sort_unstable();
        availability.rerouted.dedup();
        let replica_reports: Vec<ReplicaReport> = engines.into_iter().map(replica_report).collect();
        let totals = replica_reports
            .iter()
            .fold(BatchRunReport::default(), |acc, r| {
                acc.combine(&r.report.totals)
            });
        let mut report = ClusterReport {
            router: spec.router.name().to_owned(),
            mode: spec.mode,
            replicas: replica_reports,
            fleet_aborted,
            slo: spec.slo,
            availability,
            totals,
        };
        // Replica-seconds lost: departed capacity, measured to the run's end
        // (the global makespan over every served request).
        let end = report.makespan();
        report.availability.replica_seconds_lost = departures
            .iter()
            .fold(Seconds::ZERO, |acc, (_, at)| acc + (end - *at));
        Ok(report)
    }
}

/// How many of the fleet's most recent completions an [`Autoscaler`]
/// observes. The loop keeps up to twice as many, so that it trims its list
/// once per window's worth of completions rather than on every step.
const RECENT_COMPLETION_WINDOW: usize = 128;

/// Which serving replicas a request may be placed on: new arrivals go to
/// the prefill and unified pools, KV migrations to the decode and unified
/// pools.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pool {
    Arrivals,
    Migrations,
}

impl Pool {
    /// Whether a replica of `role` with a per-micro-batch KV budget of
    /// `budget` tokens may take `request`. A prefill replica only ever holds
    /// the prompt's KV (it runs the request's prefill-only phase); every
    /// other replica needs the full context to fit.
    pub(crate) fn admits(self, role: ReplicaRole, budget: u64, request: &Request) -> bool {
        let held = match role {
            ReplicaRole::Prefill => request.input_len,
            _ => request.max_context(),
        };
        self.takes(role) && held <= budget
    }

    /// Whether replicas of `role` belong to this pool at all.
    pub(crate) fn takes(self, role: ReplicaRole) -> bool {
        match self {
            Pool::Arrivals => role.takes_arrivals(),
            Pool::Migrations => role.takes_migrations(),
        }
    }
}

/// The mutable state of one [`ClusterEvaluator::run`] invocation: the replica
/// event machines plus the control plane's bookkeeping (membership, admission,
/// autoscaling, availability accounting). Whether it runs the indexed or the
/// scan loop is the evaluator's `scan_loop` switch.
pub(crate) struct FleetLoop<'a> {
    cluster: &'a ClusterEvaluator,
    pub(crate) spec: &'a ClusterSpec,
    pub(crate) engines: Vec<ReplicaEngine>,
    pub(crate) ctx: RouterCtx,
    pub(crate) fleet_aborted: Vec<Request>,
    /// The report's availability section, written as churn, rejections and
    /// re-routes happen. Re-routed ids are pushed once per re-route and
    /// sorted and deduplicated when the run ends; `replica_seconds_lost` is
    /// filled in then, from `departures`.
    pub(crate) availability: AvailabilityReport,
    departures: Vec<(ReplicaId, Seconds)>,
    /// Served requests, oldest first: at least the last
    /// `RECENT_COMPLETION_WINDOW` of them, and at most twice that many.
    recent: Vec<RequestLatency>,
    last_scale: Option<Seconds>,
    /// Every pending event but the arrivals, in settling order (see
    /// [`crate::agenda`]): timeline actions, each replica's one entry, and
    /// the KV migrations on the wire.
    pub(crate) agenda: Agenda,
    /// Incrementally maintained serving-replica views for routing, one
    /// index per pool (indexed loop only): `[arrivals, migrations]` on a
    /// fleet with role pools, and one index over the whole fleet, which is
    /// both pools, on a fleet without.
    indexes: Vec<RouterIndex>,
    /// Replicas touched since the last [`FleetLoop::flush_dirty`].
    dirty: Vec<usize>,
    /// Dedup membership for `dirty`, indexed by replica id.
    is_dirty: Vec<bool>,
    /// Replicas per lifecycle state, kept at every transition by
    /// [`FleetLoop::set_lifecycle`], so the autoscaler reads the counts.
    membership: Membership,
    /// Per-node evaluators and policy searches (see
    /// [`ClusterEvaluator::build_engine`]), shared with joins.
    node_cache: Vec<NodeCosting>,
    /// Telemetry sampling cursor (see [`crate::observe`]).
    pub(crate) obs: ObsState,
    /// The buffers every replica step fills and the run's self-profile
    /// ledger: one set per run, not per replica, so a large fleet keeps one
    /// warm copy.
    pub(crate) scratch: EventScratch,
}

/// How many replicas are in each counted lifecycle state (departed ones are
/// not counted).
#[derive(Debug, Default, Clone, Copy)]
struct Membership {
    provisioning: usize,
    serving: usize,
    draining: usize,
}

impl Membership {
    /// Counts `engines` by scanning them: the starting counts, and the
    /// scan loop's reference for the kept ones.
    fn count(engines: &[ReplicaEngine]) -> Self {
        let mut membership = Membership::default();
        for engine in engines {
            membership.enter(engine.lifecycle);
        }
        membership
    }

    fn count_of(&mut self, lifecycle: Lifecycle) -> Option<&mut usize> {
        match lifecycle {
            Lifecycle::Provisioning { .. } => Some(&mut self.provisioning),
            Lifecycle::Serving => Some(&mut self.serving),
            Lifecycle::Draining { .. } => Some(&mut self.draining),
            Lifecycle::Departed { .. } => None,
        }
    }

    fn enter(&mut self, lifecycle: Lifecycle) {
        if let Some(n) = self.count_of(lifecycle) {
            *n += 1;
        }
    }

    fn leave(&mut self, lifecycle: Lifecycle) {
        if let Some(n) = self.count_of(lifecycle) {
            *n -= 1;
        }
    }
}

impl FleetLoop<'_> {
    /// Moves replica `index` to lifecycle state `to` at `at`, keeping the
    /// per-state counts, marking it dirty and emitting the transition under
    /// `label` (a replica that fails departs as `failed`).
    fn set_lifecycle(&mut self, index: usize, to: Lifecycle, label: &'static str, at: Seconds) {
        let from = std::mem::replace(&mut self.engines[index].lifecycle, to);
        self.membership.leave(from);
        self.membership.enter(to);
        self.mark_dirty(index);
        self.note_lifecycle(index, label, at);
    }

    /// Queues replica `index` for re-synchronisation of its agenda entry and
    /// router-index view. No-op on the scan loop.
    pub(crate) fn mark_dirty(&mut self, index: usize) {
        if self.cluster.scan_loop {
            return;
        }
        if self.is_dirty.len() <= index {
            self.is_dirty.resize(index + 1, false);
        }
        if !self.is_dirty[index] {
            self.is_dirty[index] = true;
            self.dirty.push(index);
        }
    }

    /// Replica `index`'s view, with the KV the agenda holds on the wire to it.
    pub(crate) fn view(&self, index: usize) -> ReplicaView {
        self.engines[index].view(self.agenda.inbound(index))
    }

    /// Brings the agenda and the router indexes up to date with every
    /// replica marked dirty since the last flush. A serving replica sits in
    /// the index of every pool its role belongs to.
    fn flush_dirty(&mut self) {
        while let Some(index) = self.dirty.pop() {
            self.is_dirty[index] = false;
            let engine = &self.engines[index];
            self.agenda.refresh(index, engine.agenda_entry());
            let view = engine.is_serving().then(|| self.view(index));
            let budget = engine.batching.cache_tokens_per_micro_batch;
            for (pool, router_index) in [Pool::Arrivals, Pool::Migrations]
                .into_iter()
                .zip(self.indexes.iter_mut())
            {
                match view {
                    Some(view) if pool.takes(engine.role) => router_index.upsert(view, budget),
                    _ => router_index.remove(index),
                }
            }
        }
    }

    /// Routes `request` at time `now`. Arrivals pass through the admission
    /// controller (`screen` true); requests re-routed by churn were already
    /// accepted and are not re-screened.
    pub(crate) fn dispatch(&mut self, request: Request, now: Seconds, screen: bool) {
        // Only new arrivals (screen) are observed: a churn re-route is the
        // same request again, not a new arrival.
        if screen {
            self.note_arrival(&request, now);
        }
        let Some((view, considered)) = self.place(&request, Pool::Arrivals) else {
            self.abort(request, now);
            return;
        };
        let id = view.id;
        self.note_routed(&request, id, considered, now);
        if screen {
            let projected = self.engines[id.0].projected_ttft();
            if !self.spec.admission.admit(&request, projected, &view) {
                self.reject(request, id, projected, now);
                return;
            }
        }
        self.note_admitted(&request, id, now);
        let phase = self.engines[id.0].role.phase_for(&request);
        self.engines[id.0].enqueue(request, phase, now);
        self.mark_dirty(id.0);
    }

    /// Routes `request` over the serving replicas `pool` admits it to and
    /// returns the chosen replica's view (the first offered one when the
    /// router names a replica outside the offer) with the offer size, or
    /// `None` when no serving replica is eligible.
    ///
    /// On the indexed loop, when the request's full context fits every
    /// budget in its pool, the whole [`RouterIndex`] of that pool is the
    /// offer and [`Router::route_indexed`] may answer without building one.
    /// Otherwise — the scan loop, or a request some replica of the pool is
    /// masked for — the offer is built from fresh views of the eligible
    /// engines.
    pub(crate) fn place(&mut self, request: &Request, pool: Pool) -> Option<(ReplicaView, usize)> {
        let router = &self.spec.router;
        self.flush_dirty();
        let index = match pool {
            _ if self.cluster.scan_loop => None,
            Pool::Arrivals => self.indexes.first(),
            Pool::Migrations => self.indexes.last(),
        };
        if let Some(index) = index.filter(|i| request.max_context() <= i.min_budget) {
            let first = index.views().first()?.id;
            let chosen = router
                .route_indexed(request, index, &mut self.ctx)
                .unwrap_or_else(|| router.route(request, index.views(), &mut self.ctx));
            self.ctx.decision += 1;
            let id = if index.contains(chosen) {
                chosen
            } else {
                first
            };
            return Some((*index.view_of(id), index.len()));
        }
        let offer: Vec<ReplicaView> = self
            .engines
            .iter()
            .filter(|e| {
                e.is_serving()
                    && pool.admits(e.role, e.batching.cache_tokens_per_micro_batch, request)
            })
            .map(|e| self.view(e.id.0))
            .collect();
        let first = *offer.first()?;
        let chosen = router.route(request, &offer, &mut self.ctx);
        self.ctx.decision += 1;
        let view = offer.iter().find(|v| v.id == chosen).unwrap_or(&first);
        Some((*view, offer.len()))
    }

    /// Delivers what replica `index` released, in order, and empties the
    /// released buffer: a handoff starts the request's KV migration; a
    /// served request fires the router's completion callback (at its actual
    /// completion instant) and feeds the autoscaler's sliding window.
    fn note_completions(&mut self, index: usize) {
        let mut finished = std::mem::take(&mut self.scratch.finished);
        for entry in finished.drain(..) {
            match entry {
                Finished::Handoff { request, at } => self.start_migration(request, index, at),
                Finished::Served(latency) => {
                    let at = latency.request.arrival + latency.completion_time;
                    self.note_completed(index, &latency, at);
                    self.spec.router.on_complete(
                        &latency.request,
                        ReplicaId(index),
                        at,
                        &mut self.ctx,
                    );
                    self.recent.push(latency);
                }
            }
        }
        self.scratch.finished = finished;
        if self.recent.len() > 2 * RECENT_COMPLETION_WINDOW {
            let excess = self.recent.len() - RECENT_COMPLETION_WINDOW;
            self.recent.drain(..excess);
        }
    }

    /// The fleet's most recent completions, oldest first: the window an
    /// autoscaler observes.
    fn recent_window(&self) -> &[RequestLatency] {
        &self.recent[self.recent.len().saturating_sub(RECENT_COMPLETION_WINDOW)..]
    }

    /// Marks a replica as gone (failure, drain completion, or cancelled join)
    /// and tells the router.
    fn depart(&mut self, index: usize, at: Seconds) {
        self.set_lifecycle(index, Lifecycle::Departed { at }, "departed", at);
        self.departures.push((ReplicaId(index), at));
        self.spec
            .router
            .on_replica_down(ReplicaId(index), at, &mut self.ctx);
    }

    /// A provisioning replica finished coming up: it starts serving and the
    /// router learns about it.
    fn finish_provisioning(&mut self, index: usize, at: Seconds) {
        self.set_lifecycle(index, Lifecycle::Serving, "serving", at);
        self.availability.joins.push((ReplicaId(index), at));
        self.spec
            .router
            .on_replica_up(ReplicaId(index), at, &mut self.ctx);
    }

    /// Provisions a new replica from `template`; it starts serving after the
    /// timeline's provisioning delay.
    fn join_replica(&mut self, template: &ReplicaSpec, now: Seconds) -> Result<(), EngineError> {
        let index = self.engines.len();
        let mut engine =
            self.cluster
                .build_engine(self.spec, template, index, &mut self.node_cache)?;
        engine.lifecycle = Lifecycle::Provisioning {
            ready_at: now + self.spec.timeline.provisioning_delay(),
        };
        // Pools are fixed by the spec: a run without them serves every
        // joiner unified.
        if !self.spec.has_role_pools() {
            engine.role = ReplicaRole::Unified;
        }
        self.membership.enter(engine.lifecycle);
        self.engines.push(engine);
        self.note_lifecycle(index, "provisioning", now);
        self.mark_dirty(index);
        Ok(())
    }

    /// Executes one timeline (or autoscaler-emitted) action at time `t`.
    /// Actions naming a departed or unknown replica are ignored.
    fn apply_action(&mut self, t: Seconds, action: FleetAction) -> Result<(), EngineError> {
        match action {
            FleetAction::Fail(rid) => {
                let Some(lifecycle) = self.engines.get(rid.0).map(|e| e.lifecycle) else {
                    return Ok(());
                };
                match lifecycle {
                    Lifecycle::Departed { .. } => return Ok(()),
                    Lifecycle::Provisioning { .. } => {
                        // Died before it ever served: the join just never
                        // lands.
                        self.set_lifecycle(rid.0, Lifecycle::Departed { at: t }, "failed", t);
                        self.availability.failures.push((rid, t));
                        return Ok(());
                    }
                    Lifecycle::Serving | Lifecycle::Draining { .. } => {}
                }
                // Settle events due strictly up to the failure instant, then
                // kill it: whatever completed by t was delivered.
                self.step_replica(rid.0, t)?;
                let lost = self.engines[rid.0].fail(t);
                self.set_lifecycle(rid.0, Lifecycle::Departed { at: t }, "failed", t);
                self.availability.failures.push((rid, t));
                self.departures.push((rid, t));
                self.spec.router.on_replica_down(rid, t, &mut self.ctx);
                for request in lost {
                    self.redispatch(request, t);
                }
                // In-flight migrated KV headed to the dead replica is lost
                // with it.
                self.lose_migrations_to(rid.0, t);
            }
            FleetAction::Drain(rid) => {
                let Some(lifecycle) = self.engines.get(rid.0).map(|e| e.lifecycle) else {
                    return Ok(());
                };
                match lifecycle {
                    Lifecycle::Departed { .. } | Lifecycle::Draining { .. } => return Ok(()),
                    Lifecycle::Provisioning { .. } => {
                        // Draining a replica that never came up cancels the
                        // join.
                        self.set_lifecycle(rid.0, Lifecycle::Departed { at: t }, "departed", t);
                        self.availability.cancelled_joins += 1;
                        return Ok(());
                    }
                    Lifecycle::Serving => {}
                }
                self.step_replica(rid.0, t)?;
                self.drain_replica(rid.0, t);
            }
            FleetAction::Join(spec) => {
                self.join_replica(&spec, t)?;
            }
        }
        Ok(())
    }

    /// One autoscaler observation at time `t`, gated by the cooldown and
    /// executed within the configured [`ScaleBounds`].
    ///
    /// Cost per observation on the indexed loop without role pools: flushing
    /// the replicas touched since the last flush, then `O(log fleet)` to
    /// build the [`FleetView`] — its serving views are a borrow of the
    /// router index's cached slice, its queued count the index's running
    /// sum, its oldest queued arrival the index's tree root, and the
    /// membership counts are kept at every lifecycle transition. A fleet
    /// with role pools reads fresh views of its serving engines, as the
    /// scan loop does; the scan loop also counts the fleet, as the
    /// reference.
    fn maybe_autoscale(&mut self, t: Seconds) -> Result<(), EngineError> {
        let Some((scaler, bounds)) = self.spec.autoscaler.as_ref() else {
            return Ok(());
        };
        let (scaler, bounds) = (Arc::clone(scaler), *bounds);
        if let Some(last) = self.last_scale {
            if t - last < bounds.cooldown {
                return Ok(());
            }
        }
        self.flush_dirty();
        let fresh: Vec<ReplicaView>;
        let membership = if self.cluster.scan_loop {
            Membership::count(&self.engines)
        } else {
            self.membership
        };
        let (provisioning, draining) = (membership.provisioning, membership.draining);
        let fleet = match self.indexes.as_slice() {
            [fleet] if !self.cluster.scan_loop => FleetView {
                now: t,
                replicas: fleet.views(),
                queued_requests: fleet.total_queued(),
                oldest_queued_arrival: fleet.oldest_queued_arrival(),
                provisioning,
                draining,
                recent: self.recent_window(),
            },
            _ => {
                fresh = self
                    .engines
                    .iter()
                    .filter(|e| e.is_serving())
                    .map(|e| self.view(e.id.0))
                    .collect();
                FleetView::new(t, &fresh, provisioning, draining, self.recent_window())
            }
        };
        let decision = scaler.observe(&fleet, t);
        let target = membership.serving + membership.provisioning;
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up if target < bounds.max_replicas => {
                self.note_scale("up", membership.serving, fleet.queued_requests, t);
                let template = self
                    .spec
                    .scale_template
                    .clone()
                    .unwrap_or_else(|| self.spec.replicas[0].clone());
                self.join_replica(&template, t)?;
                self.last_scale = Some(t);
            }
            ScaleDecision::Down if target > bounds.min_replicas => {
                self.note_scale("down", membership.serving, fleet.queued_requests, t);
                // Cheapest first: cancel the join *furthest* from coming up —
                // a join about to land carries capacity that is almost paid
                // for, so it is the most expensive one to throw away.
                let last_provisioning = self
                    .engines
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e.lifecycle {
                        Lifecycle::Provisioning { ready_at } => Some((ready_at, i)),
                        _ => None,
                    })
                    .max_by_key(|&(t, i)| (t.key(), i));
                if let Some((_, index)) = last_provisioning {
                    self.set_lifecycle(index, Lifecycle::Departed { at: t }, "departed", t);
                    self.availability.cancelled_joins += 1;
                } else {
                    // Drain the serving replica with the least outstanding
                    // work.
                    let victim = self
                        .engines
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.is_serving())
                        .min_by_key(|&(i, _)| (self.view(i).outstanding_tokens, i))
                        .map(|(i, _)| i);
                    let Some(index) = victim else {
                        return Ok(());
                    };
                    self.drain_replica(index, t);
                }
                self.last_scale = Some(t);
            }
            ScaleDecision::Up | ScaleDecision::Down => {}
        }
        Ok(())
    }

    /// Settles replica `index`'s internal events due at `t` and delivers
    /// what finished there; returns whether anything did, handoffs included.
    /// The replica is marked dirty *before* delivery: a handoff starts a KV
    /// migration that routes over the index.
    fn step_replica(&mut self, index: usize, t: Seconds) -> Result<bool, EngineError> {
        self.engines[index].step_to(t, &mut self.scratch)?;
        self.mark_dirty(index);
        let had_completions = !self.scratch.finished.is_empty();
        self.note_completions(index);
        Ok(had_completions)
    }

    /// Starts draining serving replica `index` at `t`: its queued requests
    /// are re-routed, and it departs at once if nothing is in flight.
    fn drain_replica(&mut self, index: usize, t: Seconds) {
        self.set_lifecycle(index, Lifecycle::Draining { since: t }, "draining", t);
        let queued = self.engines[index].begin_drain();
        self.availability.drains.push((ReplicaId(index), t));
        for request in queued {
            self.redispatch(request, t);
        }
        if self.engines[index].drain_finished() {
            self.depart(index, t);
        }
    }
}

/// Wraps a finished engine into its per-replica report, capturing the
/// identity fields the [`ServingReport`] does not carry before the engine is
/// consumed into it.
fn replica_report(engine: ReplicaEngine) -> ReplicaReport {
    let id = engine.id;
    let node = engine.evaluator.node().describe();
    let kv_budget_per_micro_batch = engine.batching.cache_tokens_per_micro_batch;
    let cache = engine.prefix_cache.as_ref().map(|c| c.stats());
    ReplicaReport {
        id,
        node,
        kv_budget_per_micro_batch,
        cache,
        report: engine.into_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EvalSetting;
    use moe_workload::SloClass;

    #[test]
    fn slo_attainment_requires_both_deadlines() {
        let slo = SloSpec {
            ttft: Seconds::from_secs(10.0),
            per_token: Seconds::from_secs(1.0),
        };
        let latency = |ttft: f64, per_token: f64| RequestLatency {
            request: Request::new(0, 10, 10),
            round: 0,
            ttft: Seconds::from_secs(ttft),
            per_token: Seconds::from_secs(per_token),
            completion_time: Seconds::from_secs(ttft + 10.0 * per_token),
        };
        assert!(slo.attained(&latency(10.0, 1.0)));
        assert!(!slo.attained(&latency(10.1, 1.0)));
        assert!(!slo.attained(&latency(10.0, 1.1)));
    }

    #[test]
    fn validate_rejects_empty_fleets_and_zero_requests() {
        let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
        assert_eq!(spec.validate(), Err(ClusterSpecError::NoReplicas));
        let spec = spec.with_node(NodeSpec::t4_single());
        assert_eq!(spec.validate(), Ok(()));
        // Queue synthesis is checked here too: the workload must sample the
        // queue and the arrival process stamp it at finite instants. An
        // explicit queue is exempt from both, but its own stamps must be
        // finite.
        use ClusterSpecError::{InvalidArrivals as Arrivals, InvalidWorkload, ZeroRequests};
        let (s, inf) = (|| spec.clone(), f64::INFINITY);
        let burst = |size, period_secs| ArrivalProcess::Burst { size, period_secs };
        let at = |secs| Request {
            arrival: Seconds::from_secs(secs),
            ..Request::new(0, 10, 10)
        };
        let mut no_prompts = s();
        no_prompts.workload.avg_prompt_len = 0;
        let cases = [
            (s().with_count(0), Err(ZeroRequests)),
            (s().with_queue(Vec::new()), Err(ZeroRequests)),
            (no_prompts.clone(), Err(InvalidWorkload)),
            (
                s().with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 0.0 }),
                Err(Arrivals),
            ),
            (s().with_arrivals(burst(0, 1.0)), Err(Arrivals)),
            (s().with_arrivals(burst(4, inf)), Err(Arrivals)),
            (s().with_arrivals(burst(4, f64::NAN)), Err(Arrivals)),
            (s().with_queue(vec![at(inf)]), Err(Arrivals)),
            (
                no_prompts
                    .with_arrivals(burst(0, inf))
                    .with_queue(vec![at(1.0)]),
                Ok(()),
            ),
        ];
        for (i, (spec, expected)) in cases.into_iter().enumerate() {
            assert_eq!(spec.validate(), expected, "case {i}");
        }
        // And the evaluator surfaces the typed error.
        let empty = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
        let err = ClusterEvaluator::new(EvalSetting::S1.model())
            .run(&empty)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidClusterSpec {
                reason: ClusterSpecError::NoReplicas
            }
        ));
        assert!(err.to_string().contains("zero replicas"));
    }

    /// A timeline acting at `+inf` is a typed error before any search: with
    /// a sampling sink the loop would sample toward `+inf` forever, and
    /// without one the report would record a failure or join at `t = inf`.
    #[test]
    fn non_finite_timelines_are_invalid_timeline_errors() {
        let inf = Seconds::from_secs(f64::INFINITY);
        let fleet = |timeline: FleetTimeline| {
            ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &EvalSetting::S1.node(),
                2,
            )
            .with_count(40)
            .with_timeline(timeline)
            .with_telemetry(Arc::new(moe_telemetry::Recorder::new().with_interval(1.0)))
        };
        let late_failure = fleet(FleetTimeline::new().fail_at(inf, ReplicaId(1)));
        let endless_join = fleet(
            FleetTimeline::new()
                .join_at(
                    Seconds::from_secs(1.0),
                    ReplicaSpec::new(EvalSetting::S1.node()),
                )
                .with_provisioning_delay(inf),
        );
        let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
        for spec in [late_failure, endless_join] {
            assert_eq!(spec.validate(), Err(ClusterSpecError::InvalidTimeline));
            assert!(matches!(
                evaluator.run(&spec),
                Err(EngineError::InvalidClusterSpec {
                    reason: ClusterSpecError::InvalidTimeline
                })
            ));
        }
    }

    /// A positive Poisson rate so small that a stamp can overflow to `+inf`
    /// is an `InvalidArrivals` error from `validate` and `run`: the stamps
    /// would park requests at `+inf` and stall the clock.
    #[test]
    fn poisson_rates_that_overflow_the_stamps_are_invalid_arrivals() {
        let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
        for rate_per_sec in [1e-308, f64::MIN_POSITIVE] {
            let spec = ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                2,
            )
            .with_count(20)
            .with_gen_len(16)
            .with_seed(3)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec });
            assert_eq!(
                spec.validate(),
                Err(ClusterSpecError::InvalidArrivals),
                "{rate_per_sec:e}"
            );
            assert!(matches!(
                evaluator.run(&spec),
                Err(EngineError::InvalidClusterSpec {
                    reason: ClusterSpecError::InvalidArrivals
                })
            ));
        }
    }

    /// A sampling interval that is not finite and positive is a typed error
    /// before any search: the sampling cursor would never pass the next
    /// event, so the run would not return. So is a 1 s interval over an
    /// astronomical span, on both loops, where one sample per interval would
    /// not return either: Poisson rates of 1e-12 and 1e-300 (found by `run`
    /// on the synthesized queue) and an explicit queue or a timeline action
    /// 10^9 s in (found by `validate` too).
    #[test]
    fn invalid_sample_intervals_are_typed_errors() {
        let spec = |interval| {
            ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                2,
            )
            .with_count(20)
            .with_telemetry(Arc::new(
                moe_telemetry::Recorder::new().with_interval(interval),
            ))
        };
        let check = |spec: &ClusterSpec, validated: bool, reason| {
            assert_eq!(spec.validate(), validated.then_some(()).ok_or(reason));
            let indexed = ClusterEvaluator::new(EvalSetting::S1.model());
            for evaluator in [indexed.clone(), indexed.with_scan_loop()] {
                let run = evaluator.run(spec).map(|_| ());
                assert_eq!(run, Err(EngineError::InvalidClusterSpec { reason }));
            }
        };
        use ClusterSpecError::{ExceedsSampleBudget as Budget, InvalidSampleInterval};
        for interval in [0.0, -1.0, f64::NAN] {
            check(&spec(interval), false, InvalidSampleInterval);
        }
        for rate_per_sec in [1e-12, 1e-300] {
            let poisson = spec(1.0).with_arrivals(ArrivalProcess::Poisson { rate_per_sec });
            check(&poisson, true, Budget);
        }
        let late = Request {
            arrival: Seconds::from_secs(1e9),
            ..Request::new(0, 10, 10)
        };
        check(&spec(1.0).with_queue(vec![late]), false, Budget);
        let timeline = FleetTimeline::new().fail_at(Seconds::from_secs(1e9), ReplicaId(0));
        check(&spec(1.0).with_timeline(timeline), false, Budget);
    }

    /// Every policy override is checked before any search: on a replica,
    /// on the scale template and in a timeline join, a policy
    /// `Policy::validate` rejects is an `InvalidPolicy` error from
    /// `validate` and `run` (a zero batch used to panic dividing by zero in
    /// `batching_for`, and the other four ran to a report).
    #[test]
    fn invalid_policy_overrides_are_typed_errors() {
        let base = Policy::offload_default(16, 8);
        let invalid = [
            Policy::offload_default(0, 1),
            Policy {
                weights_gpu_ratio: f64::NAN,
                ..base
            },
            Policy {
                weights_gpu_ratio: 1.5,
                ..base
            },
            Policy {
                kv_gpu_ratio: f64::NAN,
                ..base
            },
            Policy::offload_default(16, 64),
        ];
        let fleet = || {
            ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
                .with_count(8)
                .with_gen_len(8)
                .with_mode(ServingMode::Continuous)
        };
        let replica = |policy| ReplicaSpec::new(EvalSetting::S1.node()).with_policy(policy);
        let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
        for policy in invalid {
            let at = Seconds::from_secs(1.0);
            let specs = [
                fleet().with_replica(replica(policy)),
                (fleet().with_node(EvalSetting::S1.node())).with_scale_template(replica(policy)),
                (fleet().with_node(EvalSetting::S1.node()))
                    .with_timeline(FleetTimeline::new().join_at(at, replica(policy))),
            ];
            for (i, spec) in specs.into_iter().enumerate() {
                let case = format!("{policy:?}, case {i}");
                assert_eq!(
                    spec.validate(),
                    Err(ClusterSpecError::InvalidPolicy),
                    "{case}"
                );
                assert!(
                    matches!(
                        evaluator.run(&spec),
                        Err(EngineError::InvalidClusterSpec {
                            reason: ClusterSpecError::InvalidPolicy
                        })
                    ),
                    "{case}"
                );
            }
        }
        // A valid override still runs.
        let report = evaluator.run(&fleet().with_replica(replica(base))).unwrap();
        assert_eq!(report.served_requests(), 8);
    }

    #[test]
    fn replicas_of_one_node_share_its_cost_model() {
        let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_node(NodeSpec::t4_single())
            .with_node(NodeSpec::l4_single())
            .with_node(NodeSpec::t4_single());
        let cluster = ClusterEvaluator::new(EvalSetting::S1.model());
        let mut node_cache = Vec::new();
        let engines: Vec<ReplicaEngine> = (spec.replicas.iter().enumerate())
            .map(|(index, replica)| {
                (cluster.build_engine(&spec, replica, index, &mut node_cache)).unwrap()
            })
            .collect();
        let ids: Vec<u64> = (engines.iter())
            .map(|engine| engine.evaluator.cost_model().pricing_id())
            .collect();
        // Both T4 replicas hold the one T4 evaluator, so one price memo
        // serves them; the L4 prices apart.
        assert!(Rc::ptr_eq(&engines[0].evaluator, &engines[2].evaluator));
        assert!(!Rc::ptr_eq(&engines[0].evaluator, &engines[1].evaluator));
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(node_cache.len(), 2);
    }

    #[test]
    fn serve_spec_lifts_into_a_cluster() {
        let spec = crate::ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(64)
            .with_seed(3)
            .with_mode(ServingMode::Continuous)
            .into_cluster(vec![NodeSpec::t4_single(), NodeSpec::l4_single()]);
        assert_eq!(spec.replicas.len(), 2);
        assert_eq!(spec.mode, ServingMode::Continuous);
        assert_eq!(spec.router_name(), "round-robin");
        assert_eq!(spec.replicas[0].scheduler.name(), "algo2");
        assert_eq!(
            spec.replicas[1].node().describe(),
            NodeSpec::l4_single().describe()
        );
        assert_eq!(spec.count, 64);
        assert_eq!(spec.seed, 3);
    }

    #[test]
    fn dynamics_spec_axes_have_static_defaults() {
        let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
        assert!(spec.timeline.is_empty());
        assert_eq!(spec.admission.name(), "admit-all");
        assert!(spec.autoscaler.is_none());
        let spec = spec
            .with_node(NodeSpec::t4_single())
            .with_admission(Arc::new(crate::dynamics::SloAdmission::new(SloSpec {
                ttft: Seconds::from_secs(10.0),
                per_token: Seconds::from_secs(1.0),
            })))
            .with_autoscaler(
                Arc::new(crate::dynamics::QueueDepthScaler::new(8.0, 1.0)),
                crate::dynamics::ScaleBounds::new(1, 4, Seconds::from_secs(5.0)),
            )
            .with_timeline(FleetTimeline::new().fail_at(Seconds::from_secs(1.0), ReplicaId(0)));
        assert_eq!(spec.admission.name(), "slo-admission");
        assert_eq!(
            spec.autoscaler.as_ref().map(|(s, _)| s.name()),
            Some("queue-depth")
        );
        assert_eq!(spec.timeline.len(), 1);
        assert_eq!(spec.validate(), Ok(()));
        // Inverted bounds fail validation.
        let bad = spec.with_autoscaler(
            Arc::new(crate::dynamics::QueueDepthScaler::new(8.0, 1.0)),
            crate::dynamics::ScaleBounds::new(4, 1, Seconds::from_secs(5.0)),
        );
        assert_eq!(bad.validate(), Err(ClusterSpecError::InvalidScaleBounds));
    }

    #[test]
    fn homogeneous_builder_replicates_the_node() {
        let spec = ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            4,
        );
        assert_eq!(spec.replicas.len(), 4);
        assert!(spec
            .replicas
            .iter()
            .all(|r| r.node().describe() == NodeSpec::t4_single().describe()));
    }

    #[test]
    fn zero_generation_queues_are_conserved_in_continuous_mode() {
        // Regression: a wave of gen_len == 0 requests completes at prefill end
        // and leaves the pipeline empty again; the deferred remainder used to
        // be dropped (never re-offered, never aborted). The admission pass now
        // loops until the queue drains, like the single-node loop.
        let policy = Policy::offload_default(16, 8);
        let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_count(100)
            .with_gen_len(0)
            .with_seed(7)
            .with_mode(ServingMode::Continuous);
        let report = ClusterEvaluator::new(EvalSetting::S1.model())
            .run(&spec)
            .unwrap();
        assert_eq!(
            report.served_requests() + report.aborted_requests(),
            100,
            "every zero-generation request must be served or aborted"
        );
        assert_eq!(report.served_requests(), 100);
        assert!(
            report.replicas[0].report.rounds.len() >= 100 / 16,
            "the 16-request batch cap forces multiple admission waves"
        );
    }

    #[test]
    fn explicit_queues_are_recorded_and_replay_identically() {
        /// Rebuilds each offered request from its `Arrival` event.
        #[derive(Debug, Default)]
        struct ArrivalSink(std::sync::Mutex<Vec<Request>>);
        impl TelemetrySink for ArrivalSink {
            fn event(&self, event: &moe_telemetry::TelemetryEvent) {
                if let moe_telemetry::TelemetryEvent::Arrival {
                    id,
                    input_len,
                    gen_len,
                    session,
                    class,
                    at,
                } = *event
                {
                    let mut request = Request::new(id, input_len, gen_len)
                        .with_session(session)
                        .with_slo_class(SloClass::from_label(class).unwrap());
                    request.arrival = Seconds::from_secs(at);
                    self.0.lock().unwrap().push(request);
                }
            }
        }

        let queue: Vec<Request> = (0..48)
            .map(|id| {
                let mut r = Request::new(id, 64 + 13 * (id % 7), 24)
                    .with_session(id / 3)
                    .with_slo_class(SloClass::ALL[(id % 3) as usize]);
                r.arrival = Seconds::from_secs(0.15 * id as f64);
                r
            })
            .collect();
        let fleet = || {
            ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                2,
            )
            .with_mode(ServingMode::Continuous)
        };
        let sink = Arc::new(ArrivalSink::default());
        let spec = fleet()
            .with_queue(queue.clone())
            .with_telemetry(Arc::clone(&sink) as Arc<dyn TelemetrySink>);
        assert_eq!(spec.count, queue.len());
        let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
        let report = evaluator.run(&spec).unwrap();
        assert_eq!(report.total_requests(), queue.len());
        // The sink saw the offered load, in realized arrival order.
        let recorded = sink.0.lock().unwrap().clone();
        assert_eq!(recorded, queue);
        // Replaying the recorded stream reproduces the report exactly.
        let replayed = evaluator.run(&fleet().with_queue(recorded)).unwrap();
        assert_eq!(replayed, report);
    }

    /// `SystemEvaluator::run` is `ClusterEvaluator::run` on the spec's
    /// one-node `into_cluster` lift, unpacked: a 1-replica cluster must
    /// reproduce the single-node report exactly, fleet aborts first.
    #[test]
    fn one_replica_cluster_serves_every_request_like_a_single_node() {
        let workload = WorkloadSpec::mtbench();
        let single = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
        let fleet = ClusterEvaluator::new(EvalSetting::S1.model());
        for system in [SystemKind::MoeLightning, SystemKind::MoeLightningPadded] {
            let mut queue = workload.synthesize_queue(
                120,
                GenLens::Uniform(32),
                9,
                system.pads_requests(),
                &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            );
            let mut oversized = Request::new(120, 60_000, 32);
            oversized.arrival = queue[60].arrival;
            queue.push(oversized);
            for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
                let spec = crate::ServeSpec::new(system, workload.clone())
                    .with_gen_len(32)
                    .with_mode(mode)
                    .with_queue(queue.clone());
                let expected = single.run(&spec).unwrap();
                let cluster = fleet
                    .run(&spec.into_cluster([EvalSetting::S1.node()]))
                    .unwrap();
                assert_eq!(cluster.replicas.len(), 1);
                assert_eq!(cluster.fleet_aborted, vec![oversized]);
                let mut report = cluster.replicas[0].report.clone();
                let mut aborted = cluster.fleet_aborted.clone();
                aborted.append(&mut report.aborted);
                report.aborted = aborted;
                assert_eq!(report, expected, "{system:?} [{mode}]");
                assert_eq!(expected.served_requests(), 120, "{system:?} [{mode}]");
            }
        }
    }
}
