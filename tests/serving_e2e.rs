//! End-to-end tests of the request-level serving core: a variable-length MTBench
//! queue served through Algorithm 2 micro-batches (the ISSUE 1 acceptance tests).

use moe_hardware::{ByteSize, NodeSpec, Seconds};
use moe_lightning::{
    ClusterEvaluator, ClusterSpecError, EngineError, EvalSetting, ServeSpec, ServingMode,
    SystemEvaluator, SystemKind,
};
use moe_workload::{ArrivalProcess, Request, WorkloadSpec};

fn evaluator() -> SystemEvaluator {
    SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
}

/// An offline MTBench scenario (all requests at time zero, Algorithm 2).
fn scenario(system: SystemKind, count: usize, gen_len: u64, seed: u64) -> ServeSpec {
    ServeSpec::new(system, WorkloadSpec::mtbench())
        .with_count(count)
        .with_gen_len(gen_len)
        .with_seed(seed)
}

/// An MTBench scenario serving an explicit `queue`, with the policy sized for
/// `gen_len`-token generations.
fn queue_scenario(system: SystemKind, gen_len: u64, mode: ServingMode) -> ServeSpec {
    ServeSpec::new(system, WorkloadSpec::mtbench())
        .with_gen_len(gen_len)
        .with_mode(mode)
}

#[test]
fn every_request_is_served_or_accounted_aborted() {
    let eval = evaluator();
    let count = 1500;
    let report = eval
        .run(&scenario(SystemKind::MoeLightning, count, 128, 42))
        .unwrap();

    // (a) no request vanishes: served + aborted ids partition the input queue.
    let mut ids: Vec<u64> = report
        .latencies
        .iter()
        .map(|l| l.request.id)
        .chain(report.aborted.iter().map(|r| r.id))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..count as u64).collect::<Vec<u64>>());
}

#[test]
fn generated_tokens_equal_sum_over_requests() {
    let eval = evaluator();
    let report = eval
        .run(&scenario(SystemKind::MoeLightning, 800, 64, 23))
        .unwrap();

    // (b) token accounting: totals equal the per-request and per-round sums.
    let per_request: u64 = report.latencies.iter().map(|l| l.request.gen_len).sum();
    let per_round: u64 = report
        .rounds
        .iter()
        .map(|r| r.report.generated_tokens)
        .sum();
    assert_eq!(report.totals.generated_tokens, per_request);
    assert_eq!(report.totals.generated_tokens, per_round);
    assert!(report.totals.generated_tokens > 0);
    let prompt_sum: u64 = report.latencies.iter().map(|l| l.request.input_len).sum();
    assert_eq!(report.totals.prompt_tokens, prompt_sum);
}

#[test]
fn unpadded_moe_lightning_beats_padded_on_the_serving_path() {
    let eval = evaluator();
    let padded = eval
        .run(&scenario(SystemKind::MoeLightningPadded, 1000, 64, 3))
        .unwrap();
    let unpadded = eval
        .run(&scenario(SystemKind::MoeLightning, 1000, 64, 3))
        .unwrap();

    // (c) variable-length batching is the whole point: the unpadded system must
    // win on the request-level path too.
    assert!(
        unpadded.generation_throughput() > padded.generation_throughput(),
        "unpadded {} tok/s must beat padded {} tok/s",
        unpadded.generation_throughput(),
        padded.generation_throughput()
    );
}

#[test]
fn serving_reports_latency_percentiles() {
    let eval = evaluator();
    let report = eval
        .run(&scenario(SystemKind::MoeLightning, 1200, 128, 5))
        .unwrap();
    let ttft = report.ttft();
    let tok = report.per_token();
    assert_eq!(ttft.count, report.served_requests());
    assert!(ttft.p50.as_secs() > 0.0);
    assert!(ttft.p90 >= ttft.p50);
    assert!(ttft.p99 >= ttft.p90);
    assert!(tok.mean.as_secs() > 0.0);
    // Completion is never earlier than the first token.
    for l in &report.latencies {
        assert!(l.completion_time >= l.ttft || l.request.gen_len == 0);
    }
}

#[test]
fn micro_batch_imbalance_shows_up_in_round_reports() {
    let eval = evaluator();
    let spec = WorkloadSpec::mtbench();
    let report = eval
        .run(&scenario(SystemKind::MoeLightning, 2000, 64, 19))
        .unwrap();
    for round in &report.rounds {
        let (min, max) = round.prompt_token_spread;
        assert!(max >= min);
        // Algorithm 2's greedy balancing keeps the spread below one max-length
        // request per the batching invariant.
        assert!(
            max - min <= spec.max_prompt_len,
            "spread {min}..{max} too wide"
        );
        assert_eq!(
            round.occupancy.iter().sum::<u64>(),
            round.report.requests,
            "occupancy must account for every request in the round"
        );
    }
}

#[test]
fn zero_generation_requests_complete_at_prefill_end() {
    // The engine completes gen_len == 0 requests inside the admission pass
    // (nothing to decode), without stalling the wave loop.
    let eval = evaluator();
    let mut queue: Vec<Request> = (0..20).map(|i| Request::new(i, 100, 64)).collect();
    queue.extend((20..25).map(|i| Request::new(i, 100, 0)));
    let spec = queue_scenario(SystemKind::MoeLightning, 64, ServingMode::Continuous);
    let report = eval.run(&spec.with_queue(queue)).unwrap();
    assert_eq!(report.served_requests(), 25);
    for l in report.latencies.iter().filter(|l| l.request.gen_len == 0) {
        assert_eq!(l.per_token.as_secs(), 0.0);
        assert_eq!(
            l.completion_time, l.ttft,
            "zero-gen completes at first token"
        );
    }
}

#[test]
fn admission_events_are_chronological_under_online_arrivals() {
    // One global engine clock in both modes: rounds/waves are reported in
    // execution order with non-decreasing admission instants, and arrivals
    // are never admitted before they exist.
    let eval = evaluator();
    let mut queue = WorkloadSpec::mtbench().sample_requests_mixed_gen(300, 7);
    ArrivalProcess::Poisson { rate_per_sec: 1.5 }.stamp(&mut queue, 13);
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let spec = queue_scenario(SystemKind::MoeLightning, 64, mode).with_queue(queue.clone());
        let report = eval.run(&spec).unwrap();
        assert_eq!(report.served_requests() + report.aborted.len(), 300);
        for pair in report.rounds.windows(2) {
            assert!(
                pair[0].admitted_at <= pair[1].admitted_at,
                "{mode}: admission instants must be chronological"
            );
        }
        for l in &report.latencies {
            assert!(l.ttft.as_secs() >= 0.0, "{mode}: no service before arrival");
        }
    }
}

#[test]
fn oversized_requests_abort_and_the_rest_are_served() {
    let eval = evaluator();
    let spec = queue_scenario(SystemKind::MoeLightning, 64, ServingMode::RoundToCompletion);
    // The node's per-micro-batch KV budget, read off a one-replica fleet.
    let probe = spec
        .clone()
        .with_queue(vec![Request::new(0, 1, 1)])
        .into_cluster([EvalSetting::S1.node()]);
    let budget = ClusterEvaluator::new(EvalSetting::S1.model())
        .run(&probe)
        .unwrap()
        .replicas[0]
        .kv_budget_per_micro_batch;
    let mut queue: Vec<Request> = (0..10).map(|i| Request::new(i, 100, 64)).collect();
    queue.push(Request::new(10, budget, 64));
    let report = eval.run(&spec.with_queue(queue)).unwrap();
    assert_eq!(report.served_requests(), 10);
    assert_eq!(report.aborted.len(), 1);
    assert_eq!(report.aborted[0].id, 10);
}

#[test]
fn step_cost_does_not_depend_on_earlier_rounds() {
    // Queue B's rounds share occupancy [2] and mean decode context [110]
    // with queue A's, but not A's mean prompt, which DeepSpeed-Zero's
    // layer-streaming schedule reads. Serving A first must not change the
    // decode step B is costed at.
    let eval = evaluator();
    let late = |id, input_len, gen_len| Request {
        arrival: Seconds::from_secs(1e6),
        ..Request::new(id, input_len, gen_len)
    };
    let queue_b = vec![late(2, 104, 2), late(3, 100, 30)];
    let mut a_then_b = vec![Request::new(0, 100, 10), Request::new(1, 100, 30)];
    a_then_b.extend(queue_b.iter().copied());
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let spec = queue_scenario(SystemKind::DeepSpeedZero, 64, mode);
        let alone = eval.run(&spec.clone().with_queue(queue_b.clone())).unwrap();
        let after_a = eval.run(&spec.with_queue(a_then_b.clone())).unwrap();
        assert_eq!(alone.served_requests(), 2);
        assert_eq!(after_a.served_requests(), 4);
        for l in &alone.latencies {
            let other = after_a
                .latencies
                .iter()
                .find(|o| o.request.id == l.request.id)
                .expect("B's requests are served after A");
            assert_eq!(
                l.per_token.as_secs().to_bits(),
                other.per_token.as_secs().to_bits(),
                "{mode}: request {} per-token {} alone vs {} after A",
                l.request.id,
                l.per_token.as_secs(),
                other.per_token.as_secs()
            );
        }
    }
}

/// Runs `spec` on `node` through both entry points — `SystemEvaluator::run`
/// and `ClusterEvaluator::run` on its one-node lift — and returns the typed
/// spec error both must fail with.
fn spec_error_on(spec: &ServeSpec, node: NodeSpec) -> ClusterSpecError {
    let model = EvalSetting::S1.model();
    let single = SystemEvaluator::new(node.clone(), model.clone()).run(spec);
    let fleet = ClusterEvaluator::new(model).run(&spec.clone().into_cluster([node]));
    let reason = |outcome: Result<(), EngineError>| match outcome {
        Err(EngineError::InvalidClusterSpec { reason }) => reason,
        other => panic!("expected a typed spec error, got {other:?}"),
    };
    let reasons = [reason(single.map(drop)), reason(fleet.map(drop))];
    assert_eq!(reasons[0], reasons[1], "the entry points disagree");
    reasons[0]
}

fn spec_error(spec: &ServeSpec) -> ClusterSpecError {
    spec_error_on(spec, EvalSetting::S1.node())
}

/// Both a zero count and an empty explicit queue.
#[test]
fn zero_request_scenarios_are_typed_errors() {
    let spec = scenario(SystemKind::MoeLightning, 0, 32, 1);
    assert_eq!(spec_error(&spec), ClusterSpecError::ZeroRequests);
    let spec = spec.with_queue(Vec::new());
    assert_eq!(spec_error(&spec), ClusterSpecError::ZeroRequests);
}

/// A workload whose maximum prompt sits below its average cannot be sampled.
/// An explicit queue never samples the workload, so it still serves.
#[test]
fn a_max_prompt_below_the_average_is_a_typed_error() {
    let workload = WorkloadSpec {
        max_prompt_len: 40,
        ..WorkloadSpec::mtbench()
    };
    let spec = ServeSpec::new(SystemKind::MoeLightning, workload).with_count(8);
    assert_eq!(spec_error(&spec), ClusterSpecError::InvalidWorkload);
    let queue = (0..8).map(|id| Request::new(id, 40, 8)).collect();
    let report = evaluator().run(&spec.with_queue(queue)).unwrap();
    assert_eq!(report.served_requests(), 8);
}

/// Spec errors come before the policy search: on a node where no policy
/// fits, the unsampleable workload is still `InvalidWorkload`, not
/// `NoFeasiblePolicy`.
#[test]
fn a_zero_average_prompt_is_a_typed_error() {
    let workload = WorkloadSpec {
        avg_prompt_len: 0,
        ..WorkloadSpec::mtbench()
    };
    let spec = ServeSpec::new(SystemKind::MoeLightning, workload).with_count(8);
    assert_eq!(spec_error(&spec), ClusterSpecError::InvalidWorkload);
    let tiny_host = NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(4.0));
    let valid = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench()).with_count(8);
    let infeasible = SystemEvaluator::new(tiny_host.clone(), EvalSetting::S1.model()).run(&valid);
    assert!(
        matches!(infeasible, Err(EngineError::NoFeasiblePolicy { .. })),
        "nothing fits a 4 GiB host: {infeasible:?}"
    );
    assert_eq!(
        spec_error_on(&spec, tiny_host),
        ClusterSpecError::InvalidWorkload
    );
}

#[test]
fn mixed_gen_lens_without_defaults_are_a_typed_error() {
    let workload = WorkloadSpec {
        default_gen_lens: Vec::new(),
        ..WorkloadSpec::mtbench()
    };
    let spec = ServeSpec::new(SystemKind::MoeLightning, workload)
        .with_count(8)
        .with_mixed_gen_lens();
    assert_eq!(spec_error(&spec), ClusterSpecError::InvalidWorkload);
}

/// A non-finite arrival stamp — from a burst process with an infinite period
/// or in an explicit queue — is a typed error in both modes. Continuous
/// serving used to spin forever on it.
#[test]
fn non_finite_arrivals_are_typed_errors_in_both_modes() {
    let mut late = Request::new(9, 40, 8);
    late.arrival = Seconds::from_secs(f64::INFINITY);
    let explicit: Vec<Request> = (0..9)
        .map(|id| Request::new(id, 40, 8))
        .chain([late])
        .collect();
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let burst = scenario(SystemKind::MoeLightning, 10, 8, 1)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Burst {
                size: 4,
                period_secs: f64::INFINITY,
            });
        let replay = queue_scenario(SystemKind::MoeLightning, 8, mode).with_queue(explicit.clone());
        for spec in [burst, replay] {
            assert_eq!(
                spec_error(&spec),
                ClusterSpecError::InvalidArrivals,
                "{mode}"
            );
        }
    }
}

/// Arrival stamps so far in the future that a decode step no longer moves
/// the `f64` clock — one explicit request at 1e300 s, or a Poisson process
/// at 1e-300 req/s — are a typed error in both modes, on both entry points.
/// Continuous serving used to stall on them forever, and round-to-completion
/// reported a zero TTFT.
#[test]
fn far_future_arrivals_are_typed_errors_in_both_modes() {
    let mut late = Request::new(9, 40, 8);
    late.arrival = Seconds::from_secs(1e300);
    let explicit: Vec<Request> = (0..9)
        .map(|id| Request::new(id, 40, 8))
        .chain([late])
        .collect();
    let (node, model) = (EvalSetting::S1.node(), EvalSetting::S1.model());
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let poisson = scenario(SystemKind::MoeLightning, 10, 8, 1)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: 1e-300,
            });
        let replay = queue_scenario(SystemKind::MoeLightning, 8, mode).with_queue(explicit.clone());
        for (input, spec) in [("poisson", poisson), ("explicit", replay)] {
            let single = SystemEvaluator::new(node.clone(), model.clone()).run(&spec);
            let fleet =
                ClusterEvaluator::new(model.clone()).run(&spec.into_cluster([node.clone()]));
            for (entry, outcome) in [("single", single.map(drop)), ("fleet", fleet.map(drop))] {
                assert!(
                    matches!(outcome, Err(EngineError::ClockStalled { .. })),
                    "{input} [{mode}] via {entry}: {outcome:?}"
                );
            }
        }
    }
}
