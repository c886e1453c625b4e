//! Record→replay determinism gate for the trace subsystem.
//!
//! Records a run's realized arrival stream through [`TraceRecorder`] (a
//! `TelemetrySink` installed with `with_telemetry`),
//! round-trips it through the `MOETRACE` text format, replays it via
//! `with_queue`, and requires the replay to reproduce the originating
//! [`ClusterReport`] / [`ServingReport`] field-by-field — across both
//! dispatch loops (indexed and scan), multiple routers (including the
//! rng-consuming power-of-two-choices), churn, disaggregated pools, and the
//! single-node path.

use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, FleetTimeline, LeastOutstandingTokens,
    PowerOfTwoChoices, ReplicaId, ReplicaRole, ReplicaSpec, Router, Seconds, ServeSpec,
    ServingMode, SloAdmission, SloSpec, StickySession, SystemEvaluator, SystemKind,
};
use moe_trace::{OutcomeKind, OutcomeLog, Trace, TraceRecorder};
use moe_workload::{ArrivalProcess, WorkloadSpec};
use std::sync::Arc;

const COUNT: usize = 96;
const SEED: u64 = 17;
/// The churn scenario's TTFT admission deadline: tight enough to shed part
/// of the load, loose enough to serve the rest.
const TTFT_SLO_SECS: f64 = 240.0;

fn base_spec(router: Arc<dyn Router>) -> ClusterSpec {
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &EvalSetting::S1.node(),
        3,
    )
    .with_count(COUNT)
    .with_mixed_gen_lens()
    .with_seed(SEED)
    .with_mode(ServingMode::Continuous)
    .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
    .with_router(router)
}

fn routers() -> Vec<Arc<dyn Router>> {
    vec![
        Arc::new(LeastOutstandingTokens),
        Arc::new(PowerOfTwoChoices),
    ]
}

#[test]
fn replay_reproduces_the_cluster_report_across_loops_and_routers() {
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let scan = evaluator.clone().with_scan_loop();
    for router in routers() {
        for (label, runner) in [("indexed", &evaluator), ("scan", &scan)] {
            let recorder = Arc::new(TraceRecorder::new());
            let spec = base_spec(Arc::clone(&router)).with_telemetry(Arc::clone(&recorder) as _);
            let original = runner.run(&spec).unwrap();
            assert_eq!(
                recorder.len(),
                original.total_requests(),
                "{label}/{}: the recorder must see the whole offered load",
                router.name()
            );

            // Round-trip the recorded stream through the text format before
            // replaying: the replay consumes exactly what a file would hold.
            let trace = Trace::parse(&recorder.trace().render()).unwrap();
            let replay_spec = trace.replay_into_cluster(base_spec(Arc::clone(&router)));
            let replayed = runner.run(&replay_spec).unwrap();
            assert_eq!(
                replayed,
                original,
                "{label}/{}: replay must reproduce the originating report",
                router.name()
            );

            // And replay is deterministic with itself.
            let again = runner.run(&replay_spec).unwrap();
            assert_eq!(again, replayed);
        }
    }
}

/// Record→replay stays bit-for-bit with the ISSUE 9 serving features on:
/// sticky-session routing, per-replica prefix caches, multi-turn sessions
/// and a disaggregated prefill/decode split. The session ids ride the trace
/// format, and each run gets a fresh router instance (session maps are
/// stateful), so the replay reconstructs the same placements.
#[test]
fn replay_reproduces_disagg_fleets_with_sticky_sessions_and_prefix_caches() {
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let queue: Vec<_> = WorkloadSpec::mtbench()
        .synthesize_queue(
            COUNT,
            moe_workload::GenLens::Uniform(64),
            SEED,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .into_iter()
        .map(|r| {
            let session = r.id / 6;
            r.with_session(session)
        })
        .collect();
    let spec = |router: Arc<dyn Router>| {
        let node = EvalSetting::S1.node();
        ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_replica(ReplicaSpec::new(node.clone()).with_role(ReplicaRole::Prefill))
            .with_replica(ReplicaSpec::new(node.clone()).with_role(ReplicaRole::Decode))
            .with_replica(ReplicaSpec::new(node).with_role(ReplicaRole::Decode))
            .with_seed(SEED)
            .with_mode(ServingMode::Continuous)
            .with_prefix_cache(64 * 1024)
            .with_router(router)
    };
    let sticky =
        || -> Arc<dyn Router> { Arc::new(StickySession::new(Arc::new(LeastOutstandingTokens))) };

    let recorder = Arc::new(TraceRecorder::new());
    let original = evaluator
        .run(
            &spec(sticky())
                .with_queue(queue.clone())
                .with_telemetry(Arc::clone(&recorder) as _),
        )
        .unwrap();
    assert_eq!(recorder.len(), original.total_requests());

    let trace = Trace::parse(&recorder.trace().render()).unwrap();
    assert_eq!(
        trace.stats().sessions,
        COUNT.div_ceil(6),
        "session ids must survive the text format"
    );
    let replayed = evaluator
        .run(&trace.replay_into_cluster(spec(sticky())))
        .unwrap();
    assert_eq!(
        replayed, original,
        "replay must reproduce the disagg + cache + sticky report bit-for-bit"
    );
    assert!(
        replayed
            .replicas
            .iter()
            .map(|r| r.cache.expect("caches configured").hits)
            .sum::<u64>()
            > 0,
        "the multi-turn queue must actually exercise the caches"
    );
}

/// Outcome sidecar roundtrip: record the arrival stream *and* every
/// request's terminal verdict on a churny, load-shedding fleet run,
/// round-trip both through their text formats, replay the trace, and require
/// the replay to produce the identical outcome log. Each offered request is
/// recorded exactly once in both: churn re-routes are not new arrivals, and
/// rejected requests still arrived. The log must also reconcile exactly with
/// the report's served/rejected/aborted accounting.
#[test]
fn replay_reproduces_the_outcome_sidecar_under_churn() {
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let spec = || {
        base_spec(Arc::new(LeastOutstandingTokens))
            .with_count(200)
            .with_timeline(
                FleetTimeline::new()
                    .fail_at(Seconds::from_secs(30.0), ReplicaId(1))
                    .drain_at(Seconds::from_secs(60.0), ReplicaId(0)),
            )
            .with_admission(Arc::new(SloAdmission::new(SloSpec {
                ttft: Seconds::from_secs(TTFT_SLO_SECS),
                per_token: Seconds::from_secs(1e6),
            })))
    };

    let recorder = Arc::new(TraceRecorder::new());
    let original = evaluator
        .run(&spec().with_telemetry(Arc::clone(&recorder) as _))
        .unwrap();

    // One arrival and one terminal verdict per offered request, reconciling
    // with the report.
    assert_eq!(recorder.trace().len(), original.total_requests());
    assert_eq!(recorder.outcomes().len(), original.total_requests());
    let log = OutcomeLog::parse(&recorder.outcomes().render()).unwrap();
    assert_eq!(log.len(), original.total_requests());
    assert_eq!(
        log.count(OutcomeKind::Completed),
        original.served_requests()
    );
    assert_eq!(
        log.count(OutcomeKind::Rejected),
        original.rejected_requests()
    );
    assert_eq!(log.count(OutcomeKind::Aborted), original.aborted_requests());
    assert!(
        original.availability.failures.len() == 1,
        "the timeline's failure must land for the scenario to mean anything"
    );
    assert!(
        !original.availability.rerouted.is_empty(),
        "the failure and the drain must re-route work"
    );
    assert!(
        original.rejected_requests() > 0 && original.served_requests() > 0,
        "admission must shed some requests and admit others"
    );

    // Replaying the recorded trace reproduces the sidecar verdict-for-verdict.
    let trace = Trace::parse(&recorder.trace().render()).unwrap();
    let replay_recorder = Arc::new(TraceRecorder::new());
    let replayed = evaluator
        .run(
            &trace
                .replay_into_cluster(spec())
                .with_telemetry(Arc::clone(&replay_recorder) as _),
        )
        .unwrap();
    assert_eq!(replayed, original);
    assert_eq!(replay_recorder.outcomes(), log);
}

#[test]
fn replay_reproduces_the_single_node_serving_report() {
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    let recorder = Arc::new(TraceRecorder::new());
    let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_count(COUNT)
        .with_mixed_gen_lens()
        .with_seed(SEED)
        .with_mode(ServingMode::Continuous)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 3.0 })
        .with_telemetry(Arc::clone(&recorder) as _);
    let original = evaluator.run(&spec.clone()).unwrap();
    assert_eq!(recorder.len(), COUNT);

    let trace = Trace::parse(&recorder.trace().render()).unwrap();
    let replay_spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_mixed_gen_lens()
        .with_seed(SEED)
        .with_mode(ServingMode::Continuous)
        .with_queue(trace.queue());
    let replayed = evaluator.run(&replay_spec).unwrap();
    assert_eq!(replayed, original);
}
