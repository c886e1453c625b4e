//! End-to-end tests of the fleet dynamics control plane (ISSUE 5): churn
//! conservation for every router in both serving modes, drain semantics,
//! per-request round-to-completion callbacks, SLO admission control, and the
//! headline acceptance criterion — an `SloAttainmentScaler` recovering ≥ 90%
//! of the no-failure goodput after a mid-run replica loss on the pinned
//! seed-11 MTBench scenario, where a static fleet does not.

use moe_bench::fleet::FleetScenario;
use moe_lightning::router::RouterIndex;
use moe_lightning::{
    builtin_routers, Autoscaler, ClusterEvaluator, ClusterReport, ClusterSpec, ClusterSpecError,
    EngineError, EvalSetting, FleetTimeline, FleetView, GenLens, LeastOutstandingTokens, NodeSpec,
    Policy, PrefixAware, QueueDepthScaler, Recorder, ReplicaId, ReplicaRole, ReplicaSpec,
    ReplicaView, RoundRobin, Router, RouterCtx, ScaleBounds, ScaleDecision, Seconds, ServingMode,
    SloAdmission, SloAttainmentScaler, SloSpec, SystemEvaluator, SystemKind, TelemetryEvent,
};
use moe_workload::{ArrivalProcess, Request, RequestLatency, WorkloadSpec};
use std::sync::{Arc, Mutex};

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn cluster_evaluator() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

fn secs(s: f64) -> Seconds {
    Seconds::from_secs(s)
}

/// A 4-replica homogeneous T4 fleet under online Poisson load with mixed
/// generation lengths — the same regime as the PR-4 cluster tests, plus churn.
fn churn_scenario(mode: ServingMode, router: Arc<dyn Router>) -> ClusterSpec {
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_count(400)
    .with_mixed_gen_lens()
    .with_seed(17)
    .with_mode(mode)
    .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
    .with_router(router)
    .with_timeline(
        FleetTimeline::new()
            .fail_at(secs(50.0), ReplicaId(1))
            .join_at(secs(60.0), ReplicaSpec::new(NodeSpec::t4_single()))
            .drain_at(secs(90.0), ReplicaId(0))
            .with_provisioning_delay(secs(20.0)),
    )
}

/// Exactly-once accounting under churn: every synthesized request lands in
/// exactly one of served / aborted / rejected, for every built-in router in
/// both serving modes, with token accounting intact.
#[test]
fn churn_conserves_every_request_for_every_router_in_both_modes() {
    let eval = cluster_evaluator();
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let report = eval.run(&churn_scenario(mode, router)).unwrap();
            let mut ids: Vec<u64> = report
                .replicas
                .iter()
                .flat_map(|r| {
                    r.report
                        .latencies
                        .iter()
                        .map(|l| l.request.id)
                        .chain(r.report.aborted.iter().map(|req| req.id))
                })
                .chain(report.fleet_aborted.iter().map(|req| req.id))
                .chain(report.availability.rejected.iter().map(|req| req.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(
                ids,
                (0..400).collect::<Vec<u64>>(),
                "{name} [{mode}]: completed + rejected + aborted must equal arrived, exactly once"
            );
            assert_eq!(report.total_requests(), 400, "{name} [{mode}]");
            // Generated-token accounting: only delivered tokens count.
            let generated: u64 = report
                .replicas
                .iter()
                .flat_map(|r| r.report.latencies.iter())
                .map(|l| l.request.gen_len)
                .sum();
            assert_eq!(
                report.totals.generated_tokens, generated,
                "{name} [{mode}]: unwound failures must not leave phantom tokens"
            );
            // The availability section records the injected events.
            let a = &report.availability;
            assert_eq!(
                a.failures,
                vec![(ReplicaId(1), secs(50.0))],
                "{name} [{mode}]"
            );
            assert_eq!(
                a.drains,
                vec![(ReplicaId(0), secs(90.0))],
                "{name} [{mode}]"
            );
            assert_eq!(
                a.joins,
                vec![(ReplicaId(4), secs(80.0))],
                "{name} [{mode}]: the join comes up after the 20 s provisioning delay"
            );
            assert!(
                !a.rerouted.is_empty(),
                "{name} [{mode}]: a mid-run failure must re-route in-flight work"
            );
            assert!(a.replica_seconds_lost > Seconds::ZERO, "{name} [{mode}]");
            // The joined replica actually served work.
            assert_eq!(report.replicas.len(), 5);
            assert!(
                report.replicas[4].report.served_requests() > 0,
                "{name} [{mode}]: the joined replica must take load"
            );
        }
    }
}

/// A drained replica admits nothing after its drain time: every round /
/// admission wave on it was formed before the drain, and its in-flight work
/// still finishes (drain, unlike failure, loses nothing).
#[test]
fn drained_replica_admits_nothing_after_its_drain_time() {
    let eval = cluster_evaluator();
    let drain_at = secs(40.0);
    for mode in MODES {
        let spec = ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            2,
        )
        .with_count(300)
        .with_gen_len(64)
        .with_seed(23)
        .with_mode(mode)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 1.5 })
        .with_timeline(FleetTimeline::new().drain_at(drain_at, ReplicaId(0)));
        let report = eval.run(&spec).unwrap();
        let drained = &report.replicas[0];
        assert!(
            drained
                .report
                .rounds
                .iter()
                .all(|r| r.admitted_at <= drain_at),
            "[{mode}] replica 0 must form no round after its drain time: {:?}",
            drained
                .report
                .rounds
                .iter()
                .map(|r| r.admitted_at.as_secs())
                .collect::<Vec<_>>()
        );
        assert!(
            drained.report.served_requests() > 0,
            "[{mode}] in-flight work admitted before the drain still finishes"
        );
        assert_eq!(report.availability.drains, vec![(ReplicaId(0), drain_at)]);
        assert!(report.availability.failures.is_empty());
        // Conservation still holds.
        assert_eq!(report.total_requests(), 300, "[{mode}]");
        // After the drain, the whole queue lands on replica 1.
        let last_arrival = secs(300.0 / 1.5);
        assert!(
            report.replicas[1]
                .report
                .rounds
                .iter()
                .any(|r| r.admitted_at > drain_at && r.admitted_at <= last_arrival + secs(1e4)),
            "[{mode}] the surviving replica keeps admitting"
        );
    }
}

/// A router that records every callback the dispatch engine fires.
#[derive(Debug, Default)]
struct RecordingRouter {
    completions: Mutex<Vec<(u64, f64)>>,
    ups: Mutex<Vec<(usize, f64)>>,
    downs: Mutex<Vec<(usize, f64)>>,
}

impl Router for RecordingRouter {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn route(
        &self,
        _request: &Request,
        replicas: &[ReplicaView],
        ctx: &mut RouterCtx,
    ) -> ReplicaId {
        replicas[(ctx.decision % replicas.len() as u64) as usize].id
    }

    fn on_complete(
        &self,
        request: &Request,
        _replica: ReplicaId,
        now: Seconds,
        _ctx: &mut RouterCtx,
    ) {
        self.completions
            .lock()
            .unwrap()
            .push((request.id, now.as_secs()));
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, _ctx: &mut RouterCtx) {
        self.downs.lock().unwrap().push((replica.0, now.as_secs()));
    }

    fn on_replica_up(&self, replica: ReplicaId, now: Seconds, _ctx: &mut RouterCtx) {
        self.ups.lock().unwrap().push((replica.0, now.as_secs()));
    }
}

/// Round-to-completion replicas fire `on_complete` per request at its actual
/// completion step (ROADMAP item): within one round, short-generation requests
/// complete earlier than long ones instead of all at round retirement.
#[test]
fn rtc_completion_callbacks_fire_per_request_not_in_bulk() {
    let router = Arc::new(RecordingRouter::default());
    let eval = cluster_evaluator();
    let report = eval
        .run(
            &ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                1,
            )
            .with_count(64)
            .with_mixed_gen_lens()
            .with_seed(5)
            .with_mode(ServingMode::RoundToCompletion)
            .with_router(Arc::clone(&router) as Arc<dyn Router>),
        )
        .unwrap();
    let completions = router.completions.lock().unwrap();
    assert_eq!(
        completions.len(),
        report.served_requests(),
        "every served request fires exactly one completion callback"
    );
    // The first round mixes generation lengths, so its completions spread over
    // multiple distinct instants instead of one bulk retirement.
    let round0_ids: std::collections::HashSet<u64> = report.replicas[0]
        .report
        .latencies
        .iter()
        .filter(|l| l.round == 0)
        .map(|l| l.request.id)
        .collect();
    let mut round0_times: Vec<f64> = completions
        .iter()
        .filter(|(id, _)| round0_ids.contains(id))
        .map(|(_, t)| *t)
        .collect();
    round0_times.sort_by(f64::total_cmp);
    round0_times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    assert!(
        round0_times.len() > 1,
        "a mixed-gen round must complete its requests at distinct steps, got {round0_times:?}"
    );
}

/// Membership callbacks: the router hears every down (failure, finished
/// drain) and up (join past its provisioning delay).
#[test]
fn routers_hear_membership_changes() {
    let router = Arc::new(RecordingRouter::default());
    let eval = cluster_evaluator();
    let report = eval
        .run(
            &ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                3,
            )
            .with_count(300)
            .with_gen_len(32)
            .with_seed(9)
            .with_mode(ServingMode::Continuous)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
            .with_router(Arc::clone(&router) as Arc<dyn Router>)
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(secs(30.0), ReplicaId(2))
                    .join_at(secs(40.0), ReplicaSpec::new(NodeSpec::t4_single()))
                    .with_provisioning_delay(secs(15.0)),
            ),
        )
        .unwrap();
    let ups = router.ups.lock().unwrap();
    let downs = router.downs.lock().unwrap();
    assert!(
        downs
            .iter()
            .any(|&(r, t)| r == 2 && (t - 30.0).abs() < 1e-9),
        "the failure must be announced: {downs:?}"
    );
    assert!(
        ups.iter().any(|&(r, t)| r == 3 && (t - 55.0).abs() < 1e-9),
        "the join must be announced once provisioned: {ups:?}"
    );
    assert_eq!(report.total_requests(), 300);
}

/// `SloAdmission` rejects arrivals whose projected TTFT already misses the
/// deadline, instead of queueing them: the overloaded fleet sheds exactly the
/// hopeless tail, and what it does serve meets the SLO far more often.
#[test]
fn slo_admission_rejects_hopeless_arrivals_under_overload() {
    let spec = WorkloadSpec::mtbench();
    let policy = Policy::offload_default(64, 16);
    let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let offline = evaluator
        .run(
            &moe_lightning::ServeSpec::new(SystemKind::MoeLightning, spec.clone())
                .with_count(300)
                .with_gen_len(64)
                .with_seed(11)
                .with_policy(policy)
                .with_mode(ServingMode::Continuous),
        )
        .unwrap();
    let rate = offline.served_requests() as f64 / offline.total_time().as_secs();
    let slo = SloSpec {
        ttft: offline.ttft().p50.scale(0.5),
        per_token: secs(1e9),
    };
    let eval = cluster_evaluator();
    let scenario = |admission: Option<SloAdmission>| {
        let mut s = ClusterSpec::new(SystemKind::MoeLightning, spec.clone())
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_count(400)
            .with_gen_len(64)
            .with_seed(11)
            .with_mode(ServingMode::Continuous)
            // 1.5x overload: the queue grows without bound.
            .with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: 1.5 * rate,
            })
            .with_slo(slo);
        if let Some(a) = admission {
            s = s.with_admission(Arc::new(a));
        }
        eval.run(&s).unwrap()
    };
    let open = scenario(None);
    let shed = scenario(Some(SloAdmission::new(slo)));
    assert!(open.availability.rejected.is_empty());
    assert!(
        shed.rejected_requests() > 0,
        "an overloaded fleet with SLO admission must reject something"
    );
    assert_eq!(open.total_requests(), 400);
    assert_eq!(shed.total_requests(), 400);
    // Shedding keeps the served tail honest: p99 TTFT of what was actually
    // served improves strictly.
    assert!(
        shed.ttft().p99 < open.ttft().p99,
        "admission control must cut the served TTFT tail: {:.1}s vs {:.1}s",
        shed.ttft().p99.as_secs(),
        open.ttft().p99.as_secs()
    );
}

/// Regression for the begin-drain view fix (ISSUE 9 satellite): a drain must
/// leave the drained replica's router-visible view coherent — admission
/// projections and routing after the drain run on recomputed queue state, so
/// an `SloAdmission`-gated run with a mid-run drain produces the identical
/// report on the indexed and scan loops, with conservation intact.
#[test]
fn slo_admission_with_a_drain_matches_across_loops() {
    let slo = SloSpec {
        ttft: secs(120.0),
        per_token: secs(1e9),
    };
    let spec = || {
        ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            3,
        )
        .with_count(300)
        .with_gen_len(64)
        .with_seed(11)
        .with_mode(ServingMode::Continuous)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
        .with_slo(slo)
        .with_admission(Arc::new(SloAdmission::new(slo)))
        .with_timeline(FleetTimeline::new().drain_at(secs(40.0), ReplicaId(1)))
    };
    let eval = cluster_evaluator();
    let scan = eval.clone().with_scan_loop();
    let want = scan.run(&spec()).unwrap();
    let got = eval.run(&spec()).unwrap();
    assert_eq!(want, got, "indexed and scan loops diverged after drain");
    assert_eq!(got.total_requests(), 300);
    assert_eq!(got.availability.drains, vec![(ReplicaId(1), secs(40.0))]);
}

/// Inverted autoscaler bounds surface as a typed spec error.
#[test]
fn invalid_scale_bounds_surface_as_typed_errors() {
    let eval = cluster_evaluator();
    let spec = ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        2,
    )
    .with_autoscaler(
        Arc::new(QueueDepthScaler::new(8.0, 1.0)),
        ScaleBounds::new(4, 2, secs(10.0)),
    );
    let err = eval.run(&spec).unwrap_err();
    assert!(matches!(
        err,
        EngineError::InvalidClusterSpec {
            reason: ClusterSpecError::InvalidScaleBounds
        }
    ));
}

/// The acceptance criterion (ISSUE 5): on the pinned seed-11 MTBench
/// scenario, a 4-replica fleet losing one replica mid-run recovers ≥ 90% of
/// the no-failure goodput with an `SloAttainmentScaler`, while the same
/// failure on a static fleet does not. Reproduced by
/// `fig09_fleet_dynamics --json`.
#[test]
fn slo_attainment_scaler_recovers_goodput_a_static_fleet_cannot() {
    let scenario = FleetScenario::pinned(600).unwrap();
    let eval = cluster_evaluator();
    let goodput = |report: &ClusterReport| report.goodput(&scenario.slo);

    let baseline = eval.run(&scenario.base_spec()).unwrap();
    let static_failure = eval.run(&scenario.static_failure_spec()).unwrap();
    let autoscaled = eval.run(&scenario.autoscaled_failure_spec()).unwrap();

    let base = goodput(&baseline);
    assert!(base > 0.0);
    assert!(baseline.availability.is_quiet());

    let static_ratio = goodput(&static_failure) / base;
    let scaled_ratio = goodput(&autoscaled) / base;
    assert!(
        static_ratio < 0.9,
        "a static fleet must NOT recover 90% of the no-failure goodput after \
         losing a replica, got {:.1}%",
        100.0 * static_ratio
    );
    assert!(
        scaled_ratio >= 0.9,
        "the SloAttainmentScaler must recover >= 90% of the no-failure goodput, \
         got {:.1}%",
        100.0 * scaled_ratio
    );
    // The recovery came from real scale-ups, not accounting.
    assert_eq!(autoscaled.availability.failures.len(), 1);
    assert!(
        !autoscaled.availability.joins.is_empty(),
        "recovery requires the autoscaler to have provisioned replacements"
    );
    assert!(static_failure.availability.joins.is_empty());
    // Conservation under churn, both runs.
    assert_eq!(static_failure.total_requests(), 600);
    assert_eq!(autoscaled.total_requests(), 600);
}

/// One [`FleetView`] as an autoscaler saw it, copied out of the borrow,
/// with the two queue aggregates as its helpers read them, and the
/// completions the router had heard of by then.
#[derive(Debug, Clone, PartialEq)]
struct Observation {
    now: Seconds,
    replicas: Vec<ReplicaView>,
    total_queued: usize,
    oldest_queued_arrival: Option<Seconds>,
    provisioning: usize,
    draining: usize,
    recent: Vec<RequestLatency>,
    completed: Vec<u64>,
}

/// How many of the latest completions an autoscaler observes.
const RECENT_WINDOW: usize = 128;

/// An autoscaler that records every observation and decides like the
/// wrapped one. Its [`Self::logging`] router notes every completion, so an
/// observation can be checked against the completions before it.
#[derive(Debug)]
struct RecordingScaler {
    inner: Arc<dyn Autoscaler>,
    seen: Mutex<Vec<Observation>>,
    completions: Arc<Mutex<Vec<u64>>>,
}

impl RecordingScaler {
    fn new(inner: Arc<dyn Autoscaler>) -> Arc<Self> {
        Arc::new(RecordingScaler {
            inner,
            seen: Mutex::new(Vec::new()),
            completions: Arc::default(),
        })
    }

    /// `inner`, noting the id of every completed request in this scaler's
    /// log, in completion-callback order.
    fn logging(&self, inner: Arc<dyn Router>) -> Arc<dyn Router> {
        Arc::new(CompletionLog {
            inner,
            log: self.completions.clone(),
        })
    }
}

/// A router that routes like the wrapped one and logs each completion.
#[derive(Debug)]
struct CompletionLog {
    inner: Arc<dyn Router>,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Router for CompletionLog {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        self.inner.route(request, replicas, ctx)
    }

    fn route_indexed(
        &self,
        request: &Request,
        index: &RouterIndex,
        ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        self.inner.route_indexed(request, index, ctx)
    }

    fn on_complete(
        &self,
        request: &Request,
        replica: ReplicaId,
        now: Seconds,
        ctx: &mut RouterCtx,
    ) {
        self.log.lock().unwrap().push(request.id);
        self.inner.on_complete(request, replica, now, ctx);
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_down(replica, now, ctx);
    }

    fn on_replica_up(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_up(replica, now, ctx);
    }
}

impl Autoscaler for RecordingScaler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn observe(&self, fleet: &FleetView<'_>, now: Seconds) -> ScaleDecision {
        self.seen.lock().unwrap().push(Observation {
            now: fleet.now,
            replicas: fleet.replicas.to_vec(),
            total_queued: fleet.total_queued(),
            oldest_queued_arrival: fleet.oldest_queued_arrival,
            provisioning: fleet.provisioning,
            draining: fleet.draining,
            recent: fleet.recent.to_vec(),
            completed: self.completions.lock().unwrap().clone(),
        });
        self.inner.observe(fleet, now)
    }
}

/// Runs `spec` (built around the given recording scaler) on the scan loop
/// and on the indexed loop in both serving modes, and asserts the two loops
/// showed the autoscaler the identical sequence of fleet views, each with
/// its serving replicas strictly ascending by id and its queue aggregates
/// equal to a recomputation from those replicas. Returns every observation
/// for the caller's coverage checks.
fn assert_fleet_views_match(
    spec: impl Fn(ServingMode, Arc<RecordingScaler>) -> ClusterSpec,
    inner: impl Fn() -> Arc<dyn Autoscaler>,
    label: &str,
) -> Vec<Observation> {
    let mut all = Vec::new();
    for mode in MODES {
        let mut runs = Vec::new();
        for evaluator in [cluster_evaluator().with_scan_loop(), cluster_evaluator()] {
            let scaler = RecordingScaler::new(inner());
            let report = evaluator.run(&spec(mode, scaler.clone())).unwrap();
            // Each observation sees exactly the latest completions, in order.
            for (k, o) in scaler.seen.lock().unwrap().iter().enumerate() {
                let n = o.completed.len();
                let window = &o.completed[n.saturating_sub(RECENT_WINDOW)..];
                let recent: Vec<u64> = o.recent.iter().map(|l| l.request.id).collect();
                assert_eq!(
                    recent, window,
                    "{label} [{mode}]: observation {k}'s recent window"
                );
            }
            let seen = std::mem::take(&mut *scaler.seen.lock().unwrap());
            runs.push((report, seen));
        }
        let (indexed_report, indexed) = runs.pop().unwrap();
        let (scan_report, scan) = runs.pop().unwrap();
        assert_eq!(scan_report, indexed_report, "{label} [{mode}]: reports");
        assert_eq!(
            scan.len(),
            indexed.len(),
            "{label} [{mode}]: observation count"
        );
        for (k, (want, got)) in scan.iter().zip(&indexed).enumerate() {
            assert_eq!(want, got, "{label} [{mode}]: observation {k}");
            assert!(
                got.replicas.windows(2).all(|w| w[0].id < w[1].id),
                "{label} [{mode}]: observation {k} is not strictly ascending by id"
            );
            assert_eq!(
                got.total_queued,
                got.replicas
                    .iter()
                    .map(|v| v.queued_requests)
                    .sum::<usize>(),
                "{label} [{mode}]: observation {k}'s queued count"
            );
            assert_eq!(
                got.oldest_queued_arrival,
                got.replicas
                    .iter()
                    .filter_map(|v| v.oldest_queued_arrival)
                    .min_by_key(|a| a.key()),
                "{label} [{mode}]: observation {k}'s oldest queued arrival"
            );
        }
        all.extend(indexed);
    }
    assert!(
        all.iter().any(|o| o.total_queued > 1),
        "{label}: the scaler never saw a queue"
    );
    all
}

/// The recent-completion window a pinned-scenario autoscaler saw past
/// `completions` completions, on both loops.
fn assert_window_filled(seen: &[Observation], completions: usize, label: &str) {
    assert!(
        seen.iter().any(|o| o.completed.len() >= completions),
        "{label}: no observation after {completions} completions"
    );
}

/// The scan-loop session queue re-stamped into `turns`-turn conversations.
fn session_queue(count: usize, rate_per_sec: f64, turns: u64) -> Vec<Request> {
    WorkloadSpec::mtbench()
        .synthesize_queue(
            count,
            GenLens::Uniform(64),
            11,
            false,
            &ArrivalProcess::Poisson { rate_per_sec },
        )
        .into_iter()
        .map(|r| r.with_session(r.id / turns))
        .collect()
}

/// The autoscaler sees the same fleet on both loops. An 8-replica,
/// fleet-day-shaped scenario — prefix-aware routing over prefix caches,
/// SLO admission, an SLO-attainment scaler, one failure, one drain and a
/// provisioning delay — yields the identical observation sequence on the
/// scan loop (fresh views per observation) and the indexed loop (the router
/// index's cached views, lifecycle counters), in both serving modes.
#[test]
fn fleet_views_match_across_loops_on_a_fleet_day_shaped_scenario() {
    const REPLICAS: usize = 8;
    let scenario = FleetScenario::pinned(600).unwrap();
    let rate = 1.2 * REPLICAS as f64 * scenario.per_replica_rate;
    let queue = session_queue(600, rate, 4);
    let span = 600.0 / rate;
    let spec = |mode: ServingMode, scaler: Arc<RecordingScaler>| {
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_gen_len(64)
            .with_seed(11)
            .with_mode(mode)
            .with_queue(queue.clone())
            .with_prefix_cache(8192)
            .with_router(scaler.logging(Arc::new(PrefixAware::new())))
            .with_slo(scenario.slo)
            .with_admission(Arc::new(SloAdmission::new(scenario.slo)))
            .with_autoscaler(
                scaler,
                ScaleBounds::new(REPLICAS, 2 * REPLICAS, secs(0.02 * span)),
            )
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(secs(0.3 * span), ReplicaId(1))
                    .drain_at(secs(0.5 * span), ReplicaId(2))
                    .with_provisioning_delay(secs(0.05 * span)),
            );
        for _ in 0..REPLICAS {
            spec = spec
                .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(scenario.policy));
        }
        spec
    };
    let inner = || Arc::new(SloAttainmentScaler::new(scenario.slo, 95.0)) as Arc<dyn Autoscaler>;
    let seen = assert_fleet_views_match(spec, inner, "fleet-day shaped");
    // The oracle saw membership in motion, not a static fleet.
    assert!(seen.iter().any(|o| o.provisioning > 0), "no join in flight");
    assert!(seen.iter().any(|o| o.draining > 0), "no drain in flight");
    assert!(
        seen.iter().any(|o| o.replicas.len() > REPLICAS),
        "no scale-up"
    );
    assert!(seen
        .iter()
        .any(|o| o.replicas.iter().any(|v| v.cache_stats.hits > 0)));
    assert_window_filled(&seen, 300, "fleet-day shaped");
}

/// The same oracle on a fleet with role pools: 2 prefill + 2 decode
/// replicas whose autoscaler joins unified replicas, which sit in both
/// router indexes and must appear once in each view.
#[test]
fn fleet_views_match_across_loops_on_a_pooled_fleet() {
    let scenario = FleetScenario::pinned(300).unwrap();
    let rate = 4.0 * scenario.per_replica_rate;
    let spec = |mode: ServingMode, scaler: Arc<RecordingScaler>| {
        let node = NodeSpec::t4_single();
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(300)
            .with_gen_len(64)
            .with_seed(11)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: rate })
            .with_slo(scenario.slo)
            .with_scale_template(ReplicaSpec::new(node.clone()).with_policy(scenario.policy))
            .with_router(scaler.logging(Arc::new(RoundRobin)))
            .with_autoscaler(scaler, ScaleBounds::new(4, 8, secs(1.0)));
        for role in [
            ReplicaRole::Prefill,
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ] {
            spec = spec.with_replica(
                ReplicaSpec::new(node.clone())
                    .with_policy(scenario.policy)
                    .with_role(role),
            );
        }
        spec
    };
    let inner = || Arc::new(SloAttainmentScaler::new(scenario.slo, 95.0)) as Arc<dyn Autoscaler>;
    let seen = assert_fleet_views_match(spec, inner, "pooled");
    assert!(
        seen.iter().any(|o| o.replicas.len() > 4),
        "a unified joiner must serve in both pools and appear once"
    );
}

/// A request re-routed twice is listed once, in ascending order: three
/// replicas under a capacity-bound policy take a deep queue at t = 0, then
/// two of them fail in a row, so requests displaced by the first failure sit
/// queued on the second when it fails. On both loops and in both modes the
/// report's `rerouted` ids are strictly ascending and equal the distinct ids
/// of the `Rerouted` events a recorder saw, and some id was re-routed twice.
#[test]
fn a_request_rerouted_twice_is_listed_once_in_ascending_order() {
    let policy = Policy::offload_default(16, 8);
    let spec = |mode: ServingMode, recorder: Arc<Recorder>| {
        ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_count(150)
            .with_gen_len(32)
            .with_seed(5)
            .with_mode(mode)
            .with_router(Arc::new(LeastOutstandingTokens))
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(secs(1.0), ReplicaId(0))
                    .fail_at(secs(2.0), ReplicaId(1)),
            )
            .with_telemetry(recorder)
    };
    for mode in MODES {
        let mut reports = Vec::new();
        for evaluator in [cluster_evaluator().with_scan_loop(), cluster_evaluator()] {
            let recorder = Arc::new(Recorder::new());
            let report = evaluator.run(&spec(mode, recorder.clone())).unwrap();
            let mut events: Vec<u64> = (recorder.events().into_iter())
                .filter_map(|event| match event {
                    TelemetryEvent::Rerouted { id, .. } => Some(id),
                    _ => None,
                })
                .collect();
            events.sort_unstable();
            let moved_twice = events.windows(2).any(|w| w[0] == w[1]);
            assert!(moved_twice, "[{mode}]: no request was re-routed twice");
            events.dedup();
            let rerouted = &report.availability.rerouted;
            assert!(
                rerouted.windows(2).all(|w| w[0] < w[1]),
                "[{mode}]: re-routed ids are not strictly ascending"
            );
            assert_eq!(rerouted, &events, "[{mode}]: re-routed ids != events");
            assert_eq!(report.total_requests(), 150, "[{mode}]");
            reports.push(report);
        }
        assert_eq!(reports[0], reports[1], "[{mode}]: scan and indexed loops");
    }
}
