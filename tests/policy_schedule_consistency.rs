//! Integration tests for the analytic performance model vs the discrete-event
//! simulation of the schedules, and for the policy optimizer feeding the schedule
//! builder — the two halves of the system must agree on what they are modeling.

use moe_hardware::{NodeSpec, Seconds};
use moe_lightning::{EvalSetting, SystemEvaluator};
use moe_model::MoeModelConfig;
use moe_policy::{CostModel, Policy, PolicyOptimizer, SearchSpace, WorkloadShape};
use moe_schedule::{DecodeScheduleBuilder, ScheduleKind};
use moe_sim::{simulate, Lane, TaskGraph, TaskKind};
use proptest::prelude::*;

#[test]
fn simulated_cgopipe_step_is_close_to_the_analytic_estimate() {
    // Eq. 12 models the per-layer latency as the max of the four resource times; the
    // simulated pipeline adds prologue/epilogue effects but must stay within a small
    // factor of the analytic estimate (otherwise one of the two is wrong).
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let policy = Policy::offload_default(256, 32);
    let workload = WorkloadShape::new(77, 128);
    let layers = 4u32;

    let analytic = cost
        .layer_decode_latency(&policy, &workload)
        .total
        .as_secs()
        * f64::from(layers);
    let simulated = DecodeScheduleBuilder::new(&cost, policy, workload)
        .with_layers(layers)
        .decode_step_makespan(ScheduleKind::CgoPipe)
        .unwrap()
        .as_secs();
    let ratio = simulated / analytic;
    assert!(
        (0.8..1.8).contains(&ratio),
        "simulated {simulated:.4}s vs analytic {analytic:.4}s (ratio {ratio:.2})"
    );
}

#[test]
fn optimizer_policy_runs_through_every_schedule_without_errors() {
    let node = NodeSpec::t4_single();
    let model = MoeModelConfig::mixtral_8x7b();
    let workload = WorkloadShape::new(242, 50);
    let optimizer =
        PolicyOptimizer::new(node.clone(), model.clone()).with_search_space(SearchSpace::coarse());
    let policy = optimizer.search(&workload).unwrap().policy;
    let cost = CostModel::new(node, model);
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(3);
    for kind in ScheduleKind::all() {
        let graph = builder.build(kind).unwrap();
        let result = simulate(&graph);
        assert_eq!(result.timeline.len(), graph.len());
        assert!(result.makespan.as_secs() > 0.0);
    }
}

#[test]
fn cgopipe_weight_traffic_matches_the_streamed_layer_bytes() {
    // The total weight-transfer time on the H2D lane must equal the time to stream
    // (layers − the prologue-free remainder) × (1 − r_w) of each layer's weights.
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let mut policy = Policy::offload_default(128, 32);
    policy.weights_gpu_ratio = 0.25;
    let workload = WorkloadShape::new(77, 64);
    let layers = 3u32;
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(layers);
    let graph = builder.build(ScheduleKind::CgoPipe).unwrap();
    let result = simulate(&graph);

    let weight_time = result.kind_time(TaskKind::WeightTransfer).as_secs();
    let per_layer = cost
        .weight_transfer(cost.streamed_layer_bytes(&policy))
        .as_secs();
    let expected = per_layer * f64::from(layers);
    let rel = (weight_time - expected).abs() / expected;
    assert!(
        rel < 0.05,
        "weight transfer time {weight_time:.4}s vs expected {expected:.4}s"
    );
}

#[test]
fn gpu_is_busier_under_cgopipe_than_under_flexgen_c() {
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let policy = Policy::offload_default(256, 32);
    let workload = WorkloadShape::new(418, 128);
    let builder = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(4);
    let utilization = |kind| {
        let r = simulate(&builder.build(kind).unwrap());
        r.lane(Lane::GpuCompute).utilization
    };
    let cgo = utilization(ScheduleKind::CgoPipe);
    let s3 = utilization(ScheduleKind::FlexGenCpuAttention);
    assert!(
        cgo >= s3 - 1e-9,
        "CGOPipe GPU utilization {cgo:.3} must not be below FlexGen(c) {s3:.3}"
    );
}

#[test]
fn attention_placement_decision_matches_the_hrm_analysis() {
    // The optimizer's A_g choice must agree with the HRM turning-point analysis: on
    // the memory-constrained T4/L4 nodes the attention intensity (≈4 FLOPs/byte for
    // f16 GQA) is far below P1, so attention belongs on the CPU. P1 comes from the
    // HRM the optimizer prices its candidates with.
    for node in [NodeSpec::t4_single(), NodeSpec::l4_single()] {
        let optimizer = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b());
        let cost = optimizer.cost_model();
        let p1 = cost.hrm().turning_point_p1();
        let attention_intensity = cost
            .ops()
            .attention_core_decode(64, 512)
            .operational_intensity();
        assert!(attention_intensity < p1);

        let best = optimizer
            .search(&WorkloadShape::new(77, 128))
            .unwrap()
            .policy;
        assert!(
            !best.attention_on_gpu,
            "HRM analysis and optimizer must agree"
        );
    }
}

/// Longest dependency chain of `g`, ignoring that tasks share lanes.
fn critical_path(g: &TaskGraph) -> Seconds {
    let mut finish: Vec<Seconds> = Vec::with_capacity(g.len());
    for task in g.tasks() {
        let ready = g
            .deps(task)
            .iter()
            .fold(Seconds::ZERO, |ready, dep| ready.max(finish[dep.0]));
        finish.push(ready + task.duration);
    }
    finish.into_iter().fold(Seconds::ZERO, Seconds::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Model sanity on S1: a decode step never gets cheaper when one
    /// micro-batch gains sequences or context, and it is never faster than its
    /// busiest lane or its longest dependency chain. Monotonicity alone cannot
    /// catch a broken player (any network of `max`, `min` and `+` is monotone);
    /// the floor can.
    #[test]
    fn decode_step_latency_is_monotone_in_load_and_above_its_floor(
        occupancy in collection::vec(1u64..64, 1..9),
        contexts in collection::vec(1u64..2048, 8..9),
        pick in 0usize..8,
        more_tokens in 1u64..48,
        more_context in 1u64..1024,
        weights_on_gpu in any::<bool>(),
    ) {
        let setting = EvalSetting::S1;
        let eval = SystemEvaluator::new(setting.node(), setting.model());
        let workload = WorkloadShape::new(77, 128);
        let contexts = &contexts[..occupancy.len()];
        let k = pick % occupancy.len();
        let mut more_occ = occupancy.clone();
        more_occ[k] += more_tokens;
        let mut more_ctx = contexts.to_vec();
        more_ctx[k] += more_context;
        let scale =
            f64::from(setting.model().num_layers) / f64::from(eval.simulated_layers());
        for kind in [ScheduleKind::CgoPipe, ScheduleKind::FlexGenGpuAttention] {
            let policy = Policy {
                attention_on_gpu: !kind.uses_cpu_attention(),
                weights_gpu_ratio: if weights_on_gpu { 1.0 } else { 0.0 },
                ..Policy::offload_default(256, 32)
            };
            let latency = |occ: &[u64], ctx: &[u64]| {
                eval.decode_step_latency_with_loads(
                    kind,
                    &policy,
                    &workload,
                    Some(occ),
                    Some(ctx),
                )
                .unwrap()
            };
            let base = latency(&occupancy, contexts);
            let grown_occ = latency(&more_occ, contexts);
            let grown_ctx = latency(&occupancy, &more_ctx);
            let name = kind.name();
            prop_assert!(
                grown_occ >= base,
                "{name}: occupancy {occupancy:?} -> {more_occ:?}: {base} -> {grown_occ}"
            );
            prop_assert!(
                grown_ctx >= base,
                "{name}: contexts {contexts:?} -> {more_ctx:?}: {base} -> {grown_ctx}"
            );

            let graph = DecodeScheduleBuilder::new(eval.cost_model(), policy, workload)
                .with_layers(eval.simulated_layers())
                .with_micro_batch_tokens(&occupancy)
                .with_micro_batch_contexts(contexts)
                .build(kind)
                .unwrap();
            let busiest_lane = Lane::all()
                .map(|lane| graph.lane_work(lane))
                .into_iter()
                .fold(Seconds::ZERO, Seconds::max);
            let floor = busiest_lane.max(critical_path(&graph)).scale(scale);
            prop_assert!(
                base.as_secs() >= floor.as_secs() * (1.0 - 1e-12),
                "{name}: {base} below its floor {floor}"
            );
        }
    }
}
