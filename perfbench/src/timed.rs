//! Transparent timing wrappers around the simulator's strategy traits.
//!
//! The traced pass times each layer from outside: it wraps the scenario's
//! router, scheduler, autoscaler and admission controller, and every wrapper
//! forwards **every** trait method to the wrapped object, so the simulator
//! takes exactly the path it takes unwrapped (the tests below pin that the
//! reports are equal). The scheduler runs on the fleet loop's shard threads,
//! so the counters are atomics; they publish nothing else, hence `Relaxed`.

use moe_lightning::router::RouterIndex;
use moe_lightning::{
    AdmissionController, Autoscaler, FleetView, ReplicaId, ReplicaView, Router, RouterCtx,
    ScaleDecision, Seconds,
};
use moe_workload::{
    BackfillResult, BatchingConfig, BatchingResult, PartitionState, QueueOrder, Request, Scheduler,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls into one layer and the wall-clock nanoseconds they took.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Clock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Relaxed)
    }
}

/// Times [`Router::route`] and [`Router::route_indexed`] and counts which
/// of the two answered each routing decision.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Arc<dyn Router>,
    pub clock: Clock,
    /// Decisions answered by the indexed fast path.
    pub indexed: AtomicU64,
    /// Replica views offered to `route`, summed over its calls.
    pub views: AtomicU64,
}

impl TimedRouter {
    pub fn new(inner: Arc<dyn Router>) -> Self {
        TimedRouter {
            inner,
            clock: Clock::default(),
            indexed: AtomicU64::new(0),
            views: AtomicU64::new(0),
        }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        self.views.fetch_add(replicas.len() as u64, Relaxed);
        self.clock.time(|| self.inner.route(request, replicas, ctx))
    }

    fn route_indexed(
        &self,
        request: &Request,
        index: &RouterIndex,
        ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        // A `None` falls through to `route`, which counts the decision; only
        // an answered fast path is a decision of its own.
        let t0 = Instant::now();
        let chosen = self.inner.route_indexed(request, index, ctx);
        self.clock
            .nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        if chosen.is_some() {
            self.clock.calls.fetch_add(1, Relaxed);
            self.indexed.fetch_add(1, Relaxed);
            self.views.fetch_add(index.len() as u64, Relaxed);
        }
        chosen
    }

    fn on_complete(
        &self,
        request: &Request,
        replica: ReplicaId,
        now: Seconds,
        ctx: &mut RouterCtx,
    ) {
        self.inner.on_complete(request, replica, now, ctx);
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_down(replica, now, ctx);
    }

    fn on_replica_up(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_up(replica, now, ctx);
    }
}

/// Times every batch-formation call and counts the requests offered and
/// placed.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Arc<dyn Scheduler>,
    pub clock: Clock,
    /// Waiting requests offered, summed over calls.
    pub offered: AtomicU64,
    /// Requests admitted into a micro-batch, summed over calls.
    pub placed: AtomicU64,
}

impl TimedScheduler {
    pub fn new(inner: Arc<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            clock: Clock::default(),
            offered: AtomicU64::new(0),
            placed: AtomicU64::new(0),
        }
    }

    fn note(&self, offered: usize, placed: usize) {
        self.offered.fetch_add(offered as u64, Relaxed);
        self.placed.fetch_add(placed as u64, Relaxed);
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn queue_order(&self) -> QueueOrder {
        self.inner.queue_order()
    }

    fn backfill_sorted(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        let out = self
            .clock
            .time(|| self.inner.backfill_sorted(queue, cfg, occupied));
        self.note(queue.len(), out.admitted());
        out
    }

    fn backfill(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        let out = self
            .clock
            .time(|| self.inner.backfill(queue, cfg, occupied));
        self.note(queue.len(), out.admitted());
        out
    }

    fn plan(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        let out = self.clock.time(|| self.inner.plan(queue, cfg));
        self.note(queue.len(), out.scheduled_requests());
        out
    }

    fn plan_sorted(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        let out = self.clock.time(|| self.inner.plan_sorted(queue, cfg));
        self.note(queue.len(), out.scheduled_requests());
        out
    }
}

/// Times every autoscaler observation.
#[derive(Debug)]
pub struct TimedAutoscaler {
    inner: Arc<dyn Autoscaler>,
    pub clock: Clock,
}

impl TimedAutoscaler {
    pub fn new(inner: Arc<dyn Autoscaler>) -> Self {
        TimedAutoscaler {
            inner,
            clock: Clock::default(),
        }
    }
}

impl Autoscaler for TimedAutoscaler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&self, fleet: &FleetView<'_>, now: Seconds) -> ScaleDecision {
        self.clock.time(|| self.inner.observe(fleet, now))
    }
}

/// Times every admission decision and counts refusals.
#[derive(Debug)]
pub struct TimedAdmission {
    inner: Arc<dyn AdmissionController>,
    pub clock: Clock,
    pub rejected: AtomicU64,
}

impl TimedAdmission {
    pub fn new(inner: Arc<dyn AdmissionController>) -> Self {
        TimedAdmission {
            inner,
            clock: Clock::default(),
            rejected: AtomicU64::new(0),
        }
    }
}

impl AdmissionController for TimedAdmission {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&self, request: &Request, projected_ttft: Seconds, replica: &ReplicaView) -> bool {
        let admitted = self
            .clock
            .time(|| self.inner.admit(request, projected_ttft, replica));
        if !admitted {
            self.rejected.fetch_add(1, Relaxed);
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_lightning::{
        ClusterEvaluator, ClusterSpec, EvalSetting, FleetTimeline, LeastOutstandingTokens,
        NodeSpec, Policy, PrefixAware, ReplicaSpec, ScaleBounds, ServeSpec, ServingMode,
        SloAdmission, SloAttainmentScaler, SloSpec, StickySession, SystemEvaluator, SystemKind,
    };
    use moe_workload::{Algorithm2, ArrivalProcess, WorkloadSpec};

    fn secs(s: f64) -> Seconds {
        Seconds::from_secs(s)
    }

    fn slo() -> SloSpec {
        SloSpec {
            ttft: secs(60.0),
            per_token: secs(2.0),
        }
    }

    /// A small churning fleet that exercises every trait method the wrappers
    /// forward: indexed and scanned routing, completions, a failure and a
    /// join, autoscaling and admission.
    fn fleet(
        router: Arc<dyn Router>,
        scheduler: Arc<dyn Scheduler>,
        scaler: Arc<dyn Autoscaler>,
        admission: Arc<dyn AdmissionController>,
        mode: ServingMode,
    ) -> ClusterSpec {
        let replica = ReplicaSpec::new(NodeSpec::t4_single())
            .with_policy(Policy::offload_default(16, 4))
            .with_scheduler(scheduler);
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(300)
            .with_mixed_gen_lens()
            .with_seed(5)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 3.0 })
            .with_router(router)
            .with_admission(admission)
            .with_autoscaler(scaler, ScaleBounds::new(3, 6, secs(10.0)))
            .with_scale_template(replica.clone())
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(secs(30.0), ReplicaId(1))
                    .join_at(secs(40.0), replica.clone())
                    .with_provisioning_delay(secs(5.0)),
            );
        for _ in 0..3 {
            spec = spec.with_replica(replica.clone());
        }
        spec
    }

    fn run(spec: &ClusterSpec) -> moe_lightning::ClusterReport {
        ClusterEvaluator::new(EvalSetting::S1.model())
            .with_shard_threads(2)
            .run(spec)
            .unwrap()
    }

    fn bare(mode: ServingMode, router: Arc<dyn Router>) -> moe_lightning::ClusterReport {
        run(&fleet(
            router,
            Arc::new(Algorithm2),
            Arc::new(SloAttainmentScaler::new(slo(), 95.0)),
            Arc::new(SloAdmission::new(slo())),
            mode,
        ))
    }

    const MODES: [ServingMode; 2] = [ServingMode::Continuous, ServingMode::RoundToCompletion];

    #[test]
    fn timed_router_leaves_the_report_unchanged() {
        // Least-outstanding answers from the index; prefix-aware and sticky
        // fall back to `route`, so both entry points are crossed.
        let routers: [fn() -> Arc<dyn Router>; 3] = [
            || Arc::new(LeastOutstandingTokens),
            || Arc::new(PrefixAware::new()),
            || Arc::new(StickySession::new(Arc::new(LeastOutstandingTokens))),
        ];
        for mode in MODES {
            for make in routers {
                let timed = Arc::new(TimedRouter::new(make()));
                let wrapped = run(&fleet(
                    timed.clone(),
                    Arc::new(Algorithm2),
                    Arc::new(SloAttainmentScaler::new(slo(), 95.0)),
                    Arc::new(SloAdmission::new(slo())),
                    mode,
                ));
                assert_eq!(wrapped, bare(mode, make()), "{}", timed.name());
                assert!(timed.clock.calls() > 0);
            }
        }
    }

    #[test]
    fn timed_scheduler_leaves_the_report_unchanged() {
        for mode in MODES {
            let timed = Arc::new(TimedScheduler::new(Arc::new(Algorithm2)));
            let wrapped = run(&fleet(
                Arc::new(LeastOutstandingTokens),
                timed.clone(),
                Arc::new(SloAttainmentScaler::new(slo(), 95.0)),
                Arc::new(SloAdmission::new(slo())),
                mode,
            ));
            assert_eq!(wrapped, bare(mode, Arc::new(LeastOutstandingTokens)));
            assert!(timed.clock.calls() > 0);
            assert!(timed.placed.load(Relaxed) <= timed.offered.load(Relaxed));
        }
        // The single-node path forms waves through the same trait.
        let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(200)
            .with_seed(3)
            .with_policy(Policy::offload_default(16, 4))
            .with_mode(ServingMode::Continuous);
        let timed = Arc::new(TimedScheduler::new(Arc::new(Algorithm2)));
        let wrapped = evaluator
            .run(&spec.clone().with_scheduler(timed.clone()))
            .unwrap();
        assert_eq!(wrapped, evaluator.run(&spec).unwrap());
        assert!(timed.clock.calls() > 0);
    }

    #[test]
    fn timed_autoscaler_leaves_the_report_unchanged() {
        for mode in MODES {
            let timed = Arc::new(TimedAutoscaler::new(Arc::new(SloAttainmentScaler::new(
                slo(),
                95.0,
            ))));
            let wrapped = run(&fleet(
                Arc::new(LeastOutstandingTokens),
                Arc::new(Algorithm2),
                timed.clone(),
                Arc::new(SloAdmission::new(slo())),
                mode,
            ));
            assert_eq!(wrapped, bare(mode, Arc::new(LeastOutstandingTokens)));
            assert!(timed.clock.calls() > 0);
        }
    }

    #[test]
    fn timed_admission_leaves_the_report_unchanged() {
        for mode in MODES {
            let timed = Arc::new(TimedAdmission::new(Arc::new(SloAdmission::new(slo()))));
            let wrapped = run(&fleet(
                Arc::new(LeastOutstandingTokens),
                Arc::new(Algorithm2),
                Arc::new(SloAttainmentScaler::new(slo(), 95.0)),
                timed.clone(),
                mode,
            ));
            assert_eq!(wrapped, bare(mode, Arc::new(LeastOutstandingTokens)));
            assert_eq!(
                timed.rejected.load(Relaxed),
                wrapped.rejected_requests() as u64
            );
        }
    }
}
