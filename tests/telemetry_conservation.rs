//! Telemetry conservation suite (ISSUE 10): the recording sink's counters
//! must reconcile *exactly* with the `ClusterReport` across routers ×
//! serving modes × churn, the event stream must carry exactly one terminal
//! verdict per request, and attaching a sink — recording or no-op — must
//! leave the report bit-identical to the unattached run (telemetry is
//! emitted on the driver thread and never perturbs the simulation).

use moe_lightning::{
    builtin_routers, ClusterEvaluator, ClusterSpec, EvalSetting, FleetTimeline,
    LeastOutstandingTokens, NodeSpec, Policy, QueueDepthScaler, Recorder, ReplicaId, ReplicaRole,
    ReplicaSpec, Router, ScaleBounds, Seconds, ServeSpec, ServingMode, SloAdmission, SloSpec,
    StickySession, SystemEvaluator, SystemKind, TelemetryEvent, TelemetrySink,
};
use moe_lightning::{NoopSink, Section};
use moe_trace::{OutcomeKind, TraceRecorder};
use moe_workload::{
    Algorithm2, ArrivalProcess, BackfillResult, BatchingConfig, GenLens, PartitionState,
    QueueOrder, Request, Scheduler, WorkloadSpec,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn evaluator() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

fn secs(s: f64) -> Seconds {
    Seconds::from_secs(s)
}

/// The fleet-dynamics churn regime: a 4-replica homogeneous T4 fleet under
/// online Poisson load with a mid-run failure, a provisioned join and a
/// drain — every availability counter has something to count.
fn churn_spec(mode: ServingMode, router: Arc<dyn Router>) -> ClusterSpec {
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_count(300)
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

/// Counters vs report, one run: every aggregate the sink derives from the
/// event stream must equal what the report says happened.
fn assert_counters_reconcile(
    recorder: &Recorder,
    report: &moe_lightning::ClusterReport,
    label: &str,
) {
    let c = recorder.counters();
    let a = &report.availability;
    assert_eq!(
        c.arrivals,
        report.total_requests() as u64,
        "{label}: arrivals"
    );
    assert_eq!(
        c.completed,
        report.served_requests() as u64,
        "{label}: completed"
    );
    assert_eq!(
        c.rejected,
        report.rejected_requests() as u64,
        "{label}: rejected"
    );
    assert_eq!(
        c.aborted,
        report.aborted_requests() as u64,
        "{label}: aborted"
    );
    assert_eq!(
        c.completed_tokens, report.totals.generated_tokens,
        "{label}: completed tokens"
    );
    assert_eq!(c.rerouted, a.rerouted.len() as u64, "{label}: rerouted");
    assert_eq!(c.failures, a.failures.len() as u64, "{label}: failures");
    assert_eq!(c.drains, a.drains.len() as u64, "{label}: drains");
    assert_eq!(
        c.joins,
        a.joins.len() as u64 + a.cancelled_joins,
        "{label}: every provisioning transition either serves or is cancelled"
    );
}

/// Exactly-once terminal verdicts, across every built-in router in both
/// serving modes under churn: each request id appears in the event stream
/// with exactly one of completed / rejected / aborted, and the counter
/// summary reconciles with the report.
#[test]
fn counters_and_verdicts_reconcile_for_every_router_in_both_modes() {
    let eval = evaluator();
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let label = format!("{name} [{mode}]");
            let recorder = Arc::new(Recorder::new());
            let spec = churn_spec(mode, router)
                .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
            let report = eval.run(&spec).unwrap();
            assert_counters_reconcile(&recorder, &report, &label);
            let mut verdicts: Vec<u64> = recorder
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TelemetryEvent::Completed { id, .. }
                    | TelemetryEvent::Rejected { id, .. }
                    | TelemetryEvent::Aborted { id, .. } => Some(id),
                    _ => None,
                })
                .collect();
            verdicts.sort_unstable();
            assert_eq!(
                verdicts,
                (0..300).collect::<Vec<u64>>(),
                "{label}: every request must get exactly one terminal verdict event"
            );
        }
    }
}

/// Attaching a sink never changes what the simulator computes: the report
/// with a recording sink (fine-grained sampling forces the extra
/// sample-boundary stepping), with the no-op sink, and with no sink at all
/// are bit-identical, in both serving modes.
#[test]
fn reports_are_bit_identical_with_and_without_a_sink() {
    let eval = evaluator();
    for mode in MODES {
        let spec = || churn_spec(mode, Arc::new(LeastOutstandingTokens));
        let bare = eval.run(&spec()).unwrap();
        let noop = eval
            .run(&spec().with_telemetry(Arc::new(NoopSink)))
            .unwrap();
        let recorder = Arc::new(Recorder::new().with_interval(5.0));
        let recorded = eval
            .run(&spec().with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>))
            .unwrap();
        assert_eq!(bare, noop, "[{mode}] no-op sink must not perturb the run");
        assert_eq!(
            bare, recorded,
            "[{mode}] recording sink must not perturb the run"
        );
        assert!(
            !recorder.series().is_empty(),
            "[{mode}] the recording run must actually have sampled"
        );
    }
}

/// Admission verdicts flow through the sink: under a hopeless SLO every
/// rejection the controller issues appears in the counters and the event
/// stream, and conservation still holds.
#[test]
fn admission_rejections_are_counted_exactly() {
    let slo = SloSpec {
        ttft: secs(20.0),
        per_token: secs(1e9),
    };
    let recorder = Arc::new(Recorder::new());
    let spec = churn_spec(ServingMode::Continuous, Arc::new(LeastOutstandingTokens))
        .with_slo(slo)
        .with_admission(Arc::new(SloAdmission::new(slo)))
        .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
    let report = evaluator().run(&spec).unwrap();
    assert!(
        report.rejected_requests() > 0,
        "a 20s TTFT deadline under churn must shed something"
    );
    assert_counters_reconcile(&recorder, &report, "slo-admission");
}

/// Disaggregated prefill/decode fleets: every KV migration the loop starts
/// is eventually completed or lost, the in-flight gauge closes at zero, and
/// the counters reconcile.
#[test]
fn migration_counters_balance_on_a_disagg_fleet() {
    let node = NodeSpec::t4_single();
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_count(200)
        .with_mixed_gen_lens()
        .with_seed(29)
        .with_mode(ServingMode::Continuous)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 });
    for i in 0..4 {
        let role = if i < 2 {
            ReplicaRole::Prefill
        } else {
            ReplicaRole::Decode
        };
        spec = spec.with_replica(
            ReplicaSpec::new(node.clone())
                .with_policy(Policy::offload_default(64, 16))
                .with_role(role),
        );
    }
    let recorder = Arc::new(Recorder::new().with_interval(5.0));
    let report = evaluator()
        .run(&spec.with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>))
        .unwrap();
    let c = recorder.counters();
    assert!(
        c.migrations_started > 0,
        "a 2p+2d split must migrate KV for every prefill handoff"
    );
    assert_eq!(
        c.migrations_started,
        c.migrations_completed + c.migrations_lost,
        "every migration must settle"
    );
    let last = recorder.series().last().unwrap().clone();
    assert_eq!(last.migrations_in_flight, 0, "the closing sample drains");
    assert_counters_reconcile(&recorder, &report, "2p+2d");
}

/// Prefix caches under session-affine routing: the closing gauge sample's
/// fleet-wide cache statistics equal the per-replica stats in the report.
#[test]
fn closing_sample_reconciles_cache_stats() {
    let queue: Vec<Request> = WorkloadSpec::mtbench()
        .synthesize_queue(
            240,
            GenLens::Uniform(64),
            29,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .into_iter()
        .map(|r| {
            let session = r.id / 8;
            r.with_session(session)
        })
        .collect();
    let recorder = Arc::new(Recorder::new().with_interval(5.0));
    let spec = ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_seed(29)
    .with_mode(ServingMode::Continuous)
    .with_queue(queue)
    .with_prefix_cache(64 * 1024)
    .with_router(Arc::new(StickySession::new(Arc::new(
        LeastOutstandingTokens,
    ))))
    .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
    let report = evaluator().run(&spec).unwrap();
    let (hits, misses, hit_tokens) = report
        .replicas
        .iter()
        .map(|r| r.cache.expect("every replica carries a cache"))
        .fold((0, 0, 0), |(h, m, t), s| {
            (h + s.hits, m + s.misses, t + s.hit_tokens)
        });
    assert!(hits > 0, "an 8-turn session queue must produce prefix hits");
    let last = recorder.series().last().unwrap().clone();
    assert_eq!(last.cache_hits, hits, "closing sample: cache hits");
    assert_eq!(last.cache_misses, misses, "closing sample: cache misses");
    assert_eq!(
        last.cache_hit_tokens, hit_tokens,
        "closing sample: hit tokens"
    );
    assert_counters_reconcile(&recorder, &report, "prefix-cache");
}

/// Bounded rings shed oldest-first without corrupting the aggregates: a
/// tiny event/series capacity drops entries (and says so) while the counter
/// summary still reconciles exactly.
#[test]
fn ring_overflow_drops_events_but_never_counts() {
    let recorder = Arc::new(
        Recorder::new()
            .with_interval(1.0)
            .with_event_capacity(64)
            .with_series_capacity(16),
    );
    let spec = churn_spec(ServingMode::Continuous, Arc::new(LeastOutstandingTokens))
        .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
    let report = evaluator().run(&spec).unwrap();
    assert!(
        recorder.events_dropped() > 0,
        "64 slots cannot hold a churn run"
    );
    assert!(recorder.events().len() <= 64);
    assert!(
        recorder.samples_dropped() > 0,
        "16 slots at 1s sampling overflow"
    );
    assert!(recorder.series().len() <= 16);
    assert_counters_reconcile(&recorder, &report, "bounded-rings");
}

/// Self-profiling spans cover every hot section when a sink is attached to
/// a continuous-mode fleet run.
#[test]
fn profiling_spans_cover_the_hot_sections() {
    let recorder = Arc::new(Recorder::new());
    let spec = churn_spec(ServingMode::Continuous, Arc::new(LeastOutstandingTokens))
        .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
    evaluator().run(&spec).unwrap();
    let profile = recorder.profile();
    for section in Section::ALL {
        let (_, span) = profile
            .iter()
            .find(|(s, _)| *s == section)
            .expect("every section reports");
        assert!(
            span.calls > 0,
            "section {:?} must have been entered at least once",
            section.label()
        );
    }
}

/// Single-node serving sessions emit the same telemetry vocabulary: the
/// counters reconcile with the `ServingReport` — an oversized request
/// included, which must reach the sink as an abort — and attaching the sink
/// leaves the report bit-identical.
#[test]
fn single_node_serving_reconciles_and_stays_identical() {
    let workload = WorkloadSpec::mtbench();
    let mut queue = workload.synthesize_queue(
        64,
        GenLens::Uniform(32),
        7,
        false,
        &ArrivalProcess::Immediate,
    );
    queue.push(Request::new(64, 60_000, 32));
    let eval = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let spec = || {
        ServeSpec::new(SystemKind::MoeLightning, workload.clone())
            .with_gen_len(32)
            .with_policy(Policy::offload_default(64, 16))
            .with_mode(ServingMode::Continuous)
            .with_queue(queue.clone())
    };
    let bare = eval.run(&spec()).unwrap();
    let recorder = Arc::new(Recorder::new());
    let recorded = eval
        .run(&spec().with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>))
        .unwrap();
    assert_eq!(
        bare, recorded,
        "telemetry must not perturb single-node serving"
    );
    assert_eq!(recorded.aborted.len(), 1, "the 60k-token request aborts");
    let c = recorder.counters();
    assert_eq!(c.arrivals, 65);
    assert_eq!(
        c.arrivals,
        c.completed + c.aborted,
        "one verdict per arrival"
    );
    assert_eq!(c.aborted, recorded.aborted.len() as u64);
    assert_eq!(c.completed, recorded.served_requests() as u64);
    assert_eq!(c.completed_tokens, recorded.totals.generated_tokens);
}

/// A scheduler that defers every request: each admission pass admits
/// nothing, so a round-to-completion round refuses the whole queue and a
/// continuous replica leaves it waiting until the run ends.
#[derive(Debug)]
struct RefuseAll;

impl Scheduler for RefuseAll {
    fn name(&self) -> &'static str {
        "refuse-all"
    }

    fn backfill(
        &self,
        queue: &[Request],
        _cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        BackfillResult {
            assignments: vec![Vec::new(); occupied.len()],
            deferred: queue.to_vec(),
            filled_order: Vec::new(),
        }
    }
}

/// Both recording sinks on one run: the counters and the trace outcomes
/// see the same event stream.
#[derive(Debug)]
struct Both(Arc<Recorder>, Arc<TraceRecorder>);

impl TelemetrySink for Both {
    fn event(&self, event: &TelemetryEvent) {
        self.0.event(event);
        self.1.event(event);
    }
}

/// Requests a scheduler refuses reach the sink as aborts in both serving
/// modes: a refused round's requests as well as a leftover queue. The
/// counters reconcile with the report and every request gets exactly one
/// outcome.
#[test]
fn refused_rounds_reach_the_sink_as_aborts_in_both_modes() {
    for mode in MODES {
        let recorder = Arc::new(Recorder::new());
        let trace = Arc::new(TraceRecorder::new());
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(10)
            .with_gen_len(32)
            .with_mode(mode)
            .with_telemetry(Arc::new(Both(Arc::clone(&recorder), Arc::clone(&trace))));
        for _ in 0..2 {
            spec = spec.with_replica(
                ReplicaSpec::new(NodeSpec::t4_single()).with_scheduler(Arc::new(RefuseAll)),
            );
        }
        let report = evaluator().run(&spec).unwrap();
        let label = format!("refuse-all [{mode}]");
        assert_eq!(report.aborted_requests(), 10, "{label}: nothing is served");
        assert_counters_reconcile(&recorder, &report, &label);
        let outcomes = trace.outcomes();
        let mut ids: Vec<u64> = outcomes.outcomes().iter().map(|o| o.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..10).collect::<Vec<u64>>(),
            "{label}: one outcome each"
        );
        assert_eq!(outcomes.count(OutcomeKind::Aborted), 10, "{label}");
    }
}

/// [`Algorithm2`], counting the admission passes the engines ask of it.
#[derive(Debug, Default)]
struct CountedAlgorithm2 {
    calls: AtomicU64,
}

impl Scheduler for CountedAlgorithm2 {
    fn name(&self) -> &'static str {
        "counted-algorithm2"
    }

    fn queue_order(&self) -> QueueOrder {
        Algorithm2.queue_order()
    }

    fn backfill(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        Algorithm2.backfill(queue, cfg, occupied)
    }

    fn backfill_sorted_into(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
        out: &mut BackfillResult,
    ) {
        self.calls.fetch_add(1, Relaxed);
        Algorithm2.backfill_sorted_into(queue, cfg, occupied, out);
    }
}

/// The `scheduler-planning` span counts every scheduler call of the run,
/// on replicas the autoscaler joins as well as the starting ones, in both
/// serving modes.
#[test]
fn the_planning_span_counts_every_scheduler_call() {
    for mode in MODES {
        let scheduler = Arc::new(CountedAlgorithm2::default());
        let replica = ReplicaSpec::new(NodeSpec::t4_single())
            .with_scheduler(Arc::clone(&scheduler) as Arc<dyn Scheduler>);
        let recorder = Arc::new(Recorder::new());
        let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_replica(replica.clone())
            .with_replica(replica)
            .with_count(300)
            .with_mixed_gen_lens()
            .with_seed(17)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 4.0 })
            .with_autoscaler(
                Arc::new(QueueDepthScaler::new(4.0, 0.5)),
                ScaleBounds::new(2, 4, secs(10.0)),
            )
            .with_telemetry(Arc::clone(&recorder) as Arc<dyn TelemetrySink>);
        let report = evaluator().run(&spec).unwrap();
        let label = format!("counted [{mode}]");
        assert!(
            !report.availability.joins.is_empty(),
            "{label}: the autoscaler must join a replica"
        );
        let (_, planning) = recorder
            .profile()
            .into_iter()
            .find(|(s, _)| *s == Section::Planning)
            .expect("planning is profiled");
        assert_eq!(planning.calls, scheduler.calls.load(Relaxed), "{label}");
    }
}
