//! Fleet dynamics: the control plane that mutates cluster membership and
//! admission mid-run.
//!
//! PR 4's cluster layer served a *static* fleet: N replicas fixed for the whole
//! run, routers that never saw a replica leave, and every request admitted no
//! matter how hopeless its SLO. This module adds the three levers a production
//! fleet actually has:
//!
//! * **Injected churn** — a [`FleetTimeline`] of [`FleetAction`]s executed on
//!   the cluster event loop's global clock: [`FleetAction::Fail`] (in-flight
//!   and queued requests are re-routed through the
//!   [`Router`](crate::cluster::Router), KV state lost, prefill re-charged),
//!   [`FleetAction::Drain`] (no new admissions, in-flight work finishes, then
//!   the replica leaves) and [`FleetAction::Join`] (a new replica comes up
//!   after the timeline's provisioning delay).
//! * **Autoscaling** — an [`Autoscaler`] observes a [`FleetView`] (live
//!   replica views, queue depths, a sliding window of recent completions) and
//!   emits [`ScaleDecision`]s; the control plane turns them into Join/Drain
//!   actions bounded by [`ScaleBounds`] (min/max replicas, cooldown). Two
//!   policies ship: [`QueueDepthScaler`] and [`SloAttainmentScaler`].
//! * **Admission control** — an [`AdmissionController`] may *reject* (rather
//!   than queue) an arrival whose projected TTFT — estimated from the target
//!   replica's backlog and its last computed decode step — already misses
//!   the SLO ([`SloAdmission`]; [`AdmitAll`] is the default).
//!
//! Outcomes are recorded in the [`AvailabilityReport`] section of a
//! [`ClusterReport`](crate::cluster::ClusterReport): rejections, re-routed
//! requests, membership events, and replica-seconds lost — enough to compute
//! goodput with and without churn
//! ([`ClusterReport::unchurned_goodput`](crate::cluster::ClusterReport::unchurned_goodput)).

use crate::cluster::{ReplicaId, ReplicaSpec, ReplicaView, SloSpec};
use moe_hardware::Seconds;
use moe_workload::{Request, RequestLatency};
use std::fmt;

/// One membership mutation on the cluster's global clock.
#[derive(Debug, Clone)]
pub enum FleetAction {
    /// The replica dies instantly: its KV state is lost, and every request it
    /// held (queued or in flight) is re-routed through the scenario's
    /// `Router` at the failure instant, re-charging prefill on the new
    /// replica. Tokens the replica had already generated for unfinished
    /// requests were never delivered and are not counted.
    Fail(ReplicaId),
    /// The replica stops taking new work (routers no longer see it), finishes
    /// its in-flight requests, then leaves the fleet. Requests it had queued
    /// but not yet admitted are re-routed immediately.
    Drain(ReplicaId),
    /// A new replica is provisioned from `spec`; it starts serving after the
    /// timeline's provisioning delay and is announced to the router via
    /// `Router::on_replica_up`. Boxed: a [`ReplicaSpec`] dwarfs the other
    /// variants.
    Join(Box<ReplicaSpec>),
}

impl FleetAction {
    /// Short stable label used in logs and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            FleetAction::Fail(_) => "fail",
            FleetAction::Drain(_) => "drain",
            FleetAction::Join(_) => "join",
        }
    }
}

/// A schedule of injected membership events, plus the provisioning delay every
/// join (injected or autoscaled) pays before the new replica starts serving.
///
/// Events are executed in time order on the cluster's global clock, *before*
/// any arrival or replica-internal event due at the same instant. Events
/// naming a replica that has already left (or never existed) are ignored.
///
/// # Examples
///
/// ```
/// use moe_lightning::{FleetTimeline, ReplicaId, NodeSpec, ReplicaSpec, Seconds};
///
/// let timeline = FleetTimeline::new()
///     .fail_at(Seconds::from_secs(120.0), ReplicaId(1))
///     .join_at(Seconds::from_secs(180.0), ReplicaSpec::new(NodeSpec::t4_single()))
///     .with_provisioning_delay(Seconds::from_secs(30.0));
/// assert_eq!(timeline.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FleetTimeline {
    events: Vec<(Seconds, FleetAction)>,
    provisioning_delay: Seconds,
}

impl FleetTimeline {
    /// An empty timeline (the static-fleet default) with zero provisioning
    /// delay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at time `at`.
    pub fn with_event(mut self, at: Seconds, action: FleetAction) -> Self {
        self.events.push((at, action));
        self
    }

    /// Schedules a replica failure at time `at`.
    pub fn fail_at(self, at: Seconds, replica: ReplicaId) -> Self {
        self.with_event(at, FleetAction::Fail(replica))
    }

    /// Schedules a graceful drain starting at time `at`.
    pub fn drain_at(self, at: Seconds, replica: ReplicaId) -> Self {
        self.with_event(at, FleetAction::Drain(replica))
    }

    /// Schedules a new replica to be provisioned from `spec` at time `at` (it
    /// starts serving at `at` + the provisioning delay).
    pub fn join_at(self, at: Seconds, spec: ReplicaSpec) -> Self {
        self.with_event(at, FleetAction::Join(Box::new(spec)))
    }

    /// Sets the delay between a join being issued (injected or autoscaled) and
    /// the new replica serving its first request.
    pub fn with_provisioning_delay(mut self, delay: Seconds) -> Self {
        self.provisioning_delay = delay;
        self
    }

    /// The provisioning delay joins pay before serving.
    pub fn provisioning_delay(&self) -> Seconds {
        self.provisioning_delay
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in execution order (stable: ties keep insertion order).
    pub(crate) fn sorted_events(&self) -> Vec<(Seconds, FleetAction)> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.0.key());
        events
    }
}

/// What an [`Autoscaler`] asks the control plane to do after one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleDecision {
    /// Keep the fleet as it is.
    Hold,
    /// Provision one more replica (from the scenario's scale template),
    /// subject to [`ScaleBounds::max_replicas`] and the cooldown.
    Up,
    /// Retire one replica (a pending join is cancelled first; otherwise the
    /// serving replica with the least outstanding work is drained), subject to
    /// [`ScaleBounds::min_replicas`] and the cooldown.
    Down,
}

/// Fleet-size and rate limits the control plane enforces on every
/// [`Autoscaler`] decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleBounds {
    /// The fleet never shrinks below this many replicas (serving +
    /// provisioning).
    pub min_replicas: usize,
    /// The fleet never grows beyond this many replicas (serving +
    /// provisioning).
    pub max_replicas: usize,
    /// Minimum time between two scale actions.
    pub cooldown: Seconds,
}

impl ScaleBounds {
    /// Bounds between `min` and `max` replicas with the given cooldown.
    pub fn new(min: usize, max: usize, cooldown: Seconds) -> Self {
        ScaleBounds {
            min_replicas: min,
            max_replicas: max,
            cooldown,
        }
    }
}

/// Everything an [`Autoscaler`] may observe at a decision instant: the live
/// (serving) replicas' router-visible views, in-progress membership changes,
/// and a sliding window of the fleet's most recent completions.
///
/// Building one is `O(log fleet)` on the indexed fleet loop without role
/// pools: `replicas` borrows the router index's cached views, the two queue
/// aggregates come from the index's running sum and oldest-arrival tree,
/// and the membership counts are kept at every lifecycle transition. With
/// role pools, and on the scan loop, `replicas` are fresh views of the
/// serving engines and the aggregates are summed from them (`O(fleet)`).
/// [`Self::total_queued`], [`Self::mean_queue_depth`]
/// and [`Self::has_certainly_late_queued`] read the aggregates in `O(1)`;
/// [`Self::recent_attainment_pct`] scans the completion window.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// The global-clock instant of the observation.
    pub now: Seconds,
    /// Router-visible views of every *serving* replica (draining and
    /// provisioning replicas are excluded), in replica-id order.
    pub replicas: &'a [ReplicaView],
    /// Sum of `queued_requests` over `replicas`.
    pub queued_requests: usize,
    /// The earliest `oldest_queued_arrival` over `replicas` (`None` when
    /// nothing is queued).
    pub oldest_queued_arrival: Option<Seconds>,
    /// Replicas provisioned but not yet serving.
    pub provisioning: usize,
    /// Replicas draining (finishing in-flight work, taking no new requests).
    pub draining: usize,
    /// The most recent fleet-wide completions (latency records, oldest
    /// first), capped at a fixed window by the control plane.
    pub recent: &'a [RequestLatency],
}

impl<'a> FleetView<'a> {
    /// A view over `replicas` whose queue aggregates are computed from them
    /// (`O(fleet)`).
    pub fn new(
        now: Seconds,
        replicas: &'a [ReplicaView],
        provisioning: usize,
        draining: usize,
        recent: &'a [RequestLatency],
    ) -> Self {
        FleetView {
            now,
            replicas,
            queued_requests: replicas.iter().map(|v| v.queued_requests).sum(),
            oldest_queued_arrival: replicas
                .iter()
                .filter_map(|v| v.oldest_queued_arrival)
                .min_by_key(|a| a.key()),
            provisioning,
            draining,
            recent,
        }
    }

    /// Requests routed to serving replicas but not yet admitted, fleet-wide.
    pub fn total_queued(&self) -> usize {
        self.queued_requests
    }

    /// Mean queued requests per serving replica (zero for an empty fleet).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        self.queued_requests as f64 / self.replicas.len() as f64
    }

    /// Percentage (0–100) of the recent-completion window that attained
    /// `slo`, or `None` if the window is empty.
    pub fn recent_attainment_pct(&self, slo: &SloSpec) -> Option<f64> {
        if self.recent.is_empty() {
            return None;
        }
        let attained = self.recent.iter().filter(|l| slo.attained(l)).count();
        Some(100.0 * attained as f64 / self.recent.len() as f64)
    }

    /// Whether some serving replica holds a queued request whose age already
    /// exceeds `ttft_deadline` — a *certain* SLO miss that no completion
    /// record has reported yet. The completion signal lags a full service
    /// time behind a capacity loss; queue age does not. The oldest arrival
    /// alone decides it: a queued request's age `now - arrival` is
    /// non-increasing in its arrival.
    pub fn has_certainly_late_queued(&self, ttft_deadline: Seconds) -> bool {
        self.oldest_queued_arrival
            .is_some_and(|arrival| self.now - arrival > ttft_deadline)
    }
}

/// A fleet-sizing policy: observes the fleet at completion and arrival events
/// and asks for one replica more, one fewer, or no change. The control plane
/// enforces [`ScaleBounds`] and the cooldown; implementations only decide.
pub trait Autoscaler: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in cluster reports and bench rows.
    fn name(&self) -> &'static str;

    /// One observation of the fleet at global time `now`.
    fn observe(&self, fleet: &FleetView<'_>, now: Seconds) -> ScaleDecision;
}

/// Scales on routed-but-unadmitted queue depth: up when the mean queue per
/// serving replica exceeds `up_per_replica`, down when it is below
/// `down_per_replica` and no membership change is already in progress. Also
/// scales up whenever *no* replica is serving (total capacity loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDepthScaler {
    /// Scale up above this mean queued-requests-per-replica.
    pub up_per_replica: f64,
    /// Scale down below this mean queued-requests-per-replica.
    pub down_per_replica: f64,
}

impl QueueDepthScaler {
    /// A scaler with the given per-replica queue watermarks.
    pub fn new(up_per_replica: f64, down_per_replica: f64) -> Self {
        QueueDepthScaler {
            up_per_replica,
            down_per_replica,
        }
    }
}

impl Autoscaler for QueueDepthScaler {
    fn name(&self) -> &'static str {
        "queue-depth"
    }

    fn observe(&self, fleet: &FleetView<'_>, _now: Seconds) -> ScaleDecision {
        if fleet.replicas.is_empty() {
            // Every serving replica is gone; queue depth is unobservable but
            // capacity certainly is not sufficient.
            return ScaleDecision::Up;
        }
        let depth = fleet.mean_queue_depth();
        if depth > self.up_per_replica {
            ScaleDecision::Up
        } else if depth < self.down_per_replica && fleet.provisioning == 0 && fleet.draining == 0 {
            ScaleDecision::Down
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Scales on SLO attainment, reading two signals:
///
/// * **Certain misses in queue** — a queued request older than the SLO's TTFT
///   deadline can no longer attain it, no matter what happens next. This
///   triggers a scale-up immediately: after a capacity loss the *completion*
///   signal lags by a full service time (the delayed requests have not
///   finished yet), but head-of-queue age does not.
/// * **Recent attainment** — the sliding completion window's attainment
///   percentage: up below `target_pct`; down at `relax_pct` or above with
///   empty queues and no membership change in progress. Attainment decisions
///   wait for `min_samples` completions so a cold fleet is not scaled on
///   noise.
///
/// A fleet with zero serving replicas always scales up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAttainmentScaler {
    /// The SLO attainment is judged against.
    pub slo: SloSpec,
    /// Scale up when recent attainment falls below this percentage.
    pub target_pct: f64,
    /// Scale down when recent attainment reaches this percentage (and queues
    /// are empty).
    pub relax_pct: f64,
    /// Minimum completions in the window before any decision.
    pub min_samples: usize,
}

impl SloAttainmentScaler {
    /// A scaler targeting `target_pct` attainment of `slo`, relaxing only at
    /// 100% attainment, after 16 observed completions.
    pub fn new(slo: SloSpec, target_pct: f64) -> Self {
        SloAttainmentScaler {
            slo,
            target_pct,
            relax_pct: 100.0,
            min_samples: 16,
        }
    }
}

impl Autoscaler for SloAttainmentScaler {
    fn name(&self) -> &'static str {
        "slo-attainment"
    }

    fn observe(&self, fleet: &FleetView<'_>, _now: Seconds) -> ScaleDecision {
        if fleet.replicas.is_empty() {
            return ScaleDecision::Up;
        }
        // A queued request already past the TTFT deadline is a certain miss;
        // do not wait for the (lagging) completion window to say so.
        if fleet.has_certainly_late_queued(self.slo.ttft) {
            return ScaleDecision::Up;
        }
        if fleet.recent.len() < self.min_samples {
            return ScaleDecision::Hold;
        }
        let attainment = fleet
            .recent_attainment_pct(&self.slo)
            .expect("window checked non-empty");
        if attainment < self.target_pct {
            ScaleDecision::Up
        } else if attainment >= self.relax_pct
            && fleet.total_queued() == 0
            && fleet.provisioning == 0
            && fleet.draining == 0
        {
            ScaleDecision::Down
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Decides, per arriving request, whether the chosen replica should queue it
/// at all. `projected_ttft` is the control plane's queue-aware estimate of the
/// request's time-to-first-token on `replica`: the generation tokens queued
/// there over the decode rate of its last priced step (optimistically zero
/// for a cold replica with no step history).
///
/// Rejected requests never occupy queue or KV space; they are recorded in the
/// report's [`AvailabilityReport::rejected`] and count as SLO misses.
pub trait AdmissionController: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in cluster reports and bench rows.
    fn name(&self) -> &'static str;

    /// Whether to accept `request` onto `replica`.
    fn admit(&self, request: &Request, projected_ttft: Seconds, replica: &ReplicaView) -> bool;
}

/// Admits every request (the static-fleet default: rejection disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }

    fn admit(&self, _request: &Request, _projected_ttft: Seconds, _replica: &ReplicaView) -> bool {
        true
    }
}

/// Rejects arrivals whose projected TTFT already misses the SLO's TTFT
/// deadline: a request that is guaranteed late wastes queue and KV space that
/// on-time requests could use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAdmission {
    slo: SloSpec,
}

impl SloAdmission {
    /// Rejects requests projected to miss `slo.ttft`.
    pub fn new(slo: SloSpec) -> Self {
        SloAdmission { slo }
    }

    /// The SLO admissions are judged against.
    pub fn slo(&self) -> SloSpec {
        self.slo
    }
}

impl AdmissionController for SloAdmission {
    fn name(&self) -> &'static str {
        "slo-admission"
    }

    fn admit(&self, _request: &Request, projected_ttft: Seconds, _replica: &ReplicaView) -> bool {
        projected_ttft <= self.slo.ttft
    }
}

/// The availability section of a
/// [`ClusterReport`](crate::cluster::ClusterReport): what churn, autoscaling
/// and admission control did to the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AvailabilityReport {
    /// Requests the admission controller rejected (never queued), in arrival
    /// order. Rejections count as SLO misses in attainment percentages.
    pub rejected: Vec<Request>,
    /// Ids of requests re-routed at least once by a failure or drain, in
    /// ascending order, each once (their prefill was re-charged on the new
    /// replica; latency still counts from the original arrival).
    pub rerouted: Vec<u64>,
    /// `(replica, time)` of every failure executed.
    pub failures: Vec<(ReplicaId, Seconds)>,
    /// `(replica, drain start)` of every drain executed.
    pub drains: Vec<(ReplicaId, Seconds)>,
    /// `(replica, serving start)` of every join that came up (injected or
    /// autoscaled), recorded when the provisioning delay elapsed.
    pub joins: Vec<(ReplicaId, Seconds)>,
    /// Joins cancelled by a scale-down before they started serving.
    pub cancelled_joins: u64,
    /// Capacity removed by churn: the sum over departed replicas of the time
    /// between their departure and the end of the run (the global makespan).
    /// Joins are reported separately and not netted against this.
    pub replica_seconds_lost: Seconds,
}

impl AvailabilityReport {
    /// Whether the run saw any membership change, rejection or re-route.
    pub fn is_quiet(&self) -> bool {
        self.rejected.is_empty()
            && self.rerouted.is_empty()
            && self.failures.is_empty()
            && self.drains.is_empty()
            && self.joins.is_empty()
            && self.cancelled_joins == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::NodeSpec;

    fn view(id: usize, queued: usize, outstanding: u64) -> ReplicaView {
        ReplicaView {
            id: ReplicaId(id),
            queued_requests: queued,
            outstanding_tokens: outstanding,
            kv_capacity: 10_000,
            ..ReplicaView::default()
        }
    }

    fn latency(ttft: f64, per_token: f64) -> RequestLatency {
        RequestLatency {
            request: Request::new(0, 10, 10),
            round: 0,
            ttft: Seconds::from_secs(ttft),
            per_token: Seconds::from_secs(per_token),
            completion_time: Seconds::from_secs(ttft + 10.0 * per_token),
        }
    }

    fn fleet<'a>(replicas: &'a [ReplicaView], recent: &'a [RequestLatency]) -> FleetView<'a> {
        FleetView::new(Seconds::from_secs(100.0), replicas, 0, 0, recent)
    }

    #[test]
    fn timeline_sorts_events_and_keeps_insertion_order_on_ties() {
        let t = |s: f64| Seconds::from_secs(s);
        let timeline = FleetTimeline::new()
            .drain_at(t(50.0), ReplicaId(2))
            .fail_at(t(10.0), ReplicaId(0))
            .fail_at(t(50.0), ReplicaId(1))
            .with_provisioning_delay(t(5.0));
        assert_eq!(timeline.len(), 3);
        assert!(!timeline.is_empty());
        assert_eq!(timeline.provisioning_delay(), t(5.0));
        let sorted = timeline.sorted_events();
        let labels: Vec<(&str, f64)> = sorted
            .iter()
            .map(|(at, a)| (a.label(), at.as_secs()))
            .collect();
        assert_eq!(
            labels,
            vec![("fail", 10.0), ("drain", 50.0), ("fail", 50.0)]
        );
        assert!(FleetTimeline::new().is_empty());
    }

    #[test]
    fn fleet_action_labels_are_stable() {
        assert_eq!(FleetAction::Fail(ReplicaId(0)).label(), "fail");
        assert_eq!(FleetAction::Drain(ReplicaId(0)).label(), "drain");
        assert_eq!(
            FleetAction::Join(Box::new(ReplicaSpec::new(NodeSpec::t4_single()))).label(),
            "join"
        );
    }

    #[test]
    fn fleet_view_aggregates_queue_depth_and_attainment() {
        let replicas = [view(0, 4, 100), view(1, 0, 50)];
        let recent = [latency(1.0, 0.1), latency(100.0, 0.1)];
        let f = fleet(&replicas, &recent);
        assert_eq!(f.total_queued(), 4);
        assert!((f.mean_queue_depth() - 2.0).abs() < 1e-12);
        let slo = SloSpec {
            ttft: Seconds::from_secs(10.0),
            per_token: Seconds::from_secs(1.0),
        };
        assert_eq!(f.recent_attainment_pct(&slo), Some(50.0));
        let empty = fleet(&replicas, &[]);
        assert_eq!(empty.recent_attainment_pct(&slo), None);
        let no_replicas = fleet(&[], &[]);
        assert_eq!(no_replicas.mean_queue_depth(), 0.0);
    }

    #[test]
    fn queue_depth_scaler_follows_its_watermarks() {
        let scaler = QueueDepthScaler::new(3.0, 1.0);
        assert_eq!(scaler.name(), "queue-depth");
        let now = Seconds::from_secs(1.0);
        // Above the high watermark: up.
        let deep = [view(0, 8, 0), view(1, 0, 0)];
        assert_eq!(scaler.observe(&fleet(&deep, &[]), now), ScaleDecision::Up);
        // Between the watermarks: hold.
        let mid = [view(0, 4, 0), view(1, 0, 0)];
        assert_eq!(scaler.observe(&fleet(&mid, &[]), now), ScaleDecision::Hold);
        // Below the low watermark: down.
        let idle = [view(0, 0, 0), view(1, 0, 0)];
        assert_eq!(scaler.observe(&fleet(&idle, &[]), now), ScaleDecision::Down);
        // ... unless a membership change is already in progress.
        let mut busy = fleet(&idle, &[]);
        busy.provisioning = 1;
        assert_eq!(scaler.observe(&busy, now), ScaleDecision::Hold);
        // No serving replicas at all: always up.
        assert_eq!(scaler.observe(&fleet(&[], &[]), now), ScaleDecision::Up);
    }

    #[test]
    fn slo_attainment_scaler_scales_on_the_completion_window() {
        let slo = SloSpec {
            ttft: Seconds::from_secs(10.0),
            per_token: Seconds::from_secs(1.0),
        };
        let mut scaler = SloAttainmentScaler::new(slo, 90.0);
        scaler.min_samples = 2;
        assert_eq!(scaler.name(), "slo-attainment");
        let now = Seconds::from_secs(1.0);
        let replicas = [view(0, 0, 0)];
        // Too few samples: hold.
        let one = [latency(100.0, 0.1)];
        assert_eq!(
            scaler.observe(&fleet(&replicas, &one), now),
            ScaleDecision::Hold
        );
        // Attainment 50% < 90%: up.
        let half = [latency(1.0, 0.1), latency(100.0, 0.1)];
        assert_eq!(
            scaler.observe(&fleet(&replicas, &half), now),
            ScaleDecision::Up
        );
        // Attainment 100% with empty queues: down.
        let good = [latency(1.0, 0.1), latency(2.0, 0.1)];
        assert_eq!(
            scaler.observe(&fleet(&replicas, &good), now),
            ScaleDecision::Down
        );
        // Attainment 100% but queued work: hold.
        let queued = [view(0, 3, 0)];
        assert_eq!(
            scaler.observe(&fleet(&queued, &good), now),
            ScaleDecision::Hold
        );
        // Total capacity loss: up regardless of the window.
        assert_eq!(scaler.observe(&fleet(&[], &good), now), ScaleDecision::Up);
    }

    #[test]
    fn slo_attainment_scaler_reacts_to_certainly_late_queued_requests() {
        let slo = SloSpec {
            ttft: Seconds::from_secs(10.0),
            per_token: Seconds::from_secs(1.0),
        };
        let scaler = SloAttainmentScaler::new(slo, 90.0);
        // The fleet view is observed at t = 100 s; a request queued since
        // t = 85 s has already blown the 10 s TTFT deadline even though the
        // completion window is empty (and would otherwise hold the decision).
        let mut late = view(0, 1, 500);
        late.oldest_queued_arrival = Some(Seconds::from_secs(85.0));
        let replicas = [late];
        let f = fleet(&replicas, &[]);
        assert!(f.has_certainly_late_queued(slo.ttft));
        assert_eq!(
            scaler.observe(&f, f.now),
            ScaleDecision::Up,
            "a certain miss in queue must scale up without waiting for completions"
        );
        // A fresh queue does not trigger it.
        let mut fresh = view(0, 1, 500);
        fresh.oldest_queued_arrival = Some(Seconds::from_secs(95.0));
        let replicas = [fresh];
        let f = fleet(&replicas, &[]);
        assert!(!f.has_certainly_late_queued(slo.ttft));
        assert_eq!(scaler.observe(&f, f.now), ScaleDecision::Hold);
    }

    #[test]
    fn slo_admission_rejects_projected_misses() {
        let slo = SloSpec {
            ttft: Seconds::from_secs(10.0),
            per_token: Seconds::from_secs(1.0),
        };
        let admission = SloAdmission::new(slo);
        assert_eq!(admission.name(), "slo-admission");
        assert_eq!(admission.slo(), slo);
        let request = Request::new(0, 10, 10);
        let target = view(0, 0, 0);
        assert!(admission.admit(&request, Seconds::from_secs(10.0), &target));
        assert!(!admission.admit(&request, Seconds::from_secs(10.1), &target));
        // AdmitAll never rejects.
        assert!(AdmitAll.admit(&request, Seconds::from_secs(1e12), &target));
        assert_eq!(AdmitAll.name(), "admit-all");
    }

    #[test]
    fn availability_report_quietness() {
        let mut report = AvailabilityReport::default();
        assert!(report.is_quiet());
        report
            .failures
            .push((ReplicaId(0), Seconds::from_secs(1.0)));
        assert!(!report.is_quiet());
    }
}
