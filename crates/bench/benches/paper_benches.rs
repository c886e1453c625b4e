//! Criterion micro-benchmarks for the core machinery of the reproduction: HRM
//! evaluation, the policy optimizer, schedule construction + discrete-event
//! simulation, request batching and the numeric kernels.
//!
//! Run with `cargo bench -p moe-bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use moe_hardware::{DType, NodeSpec};
use moe_hrm::HierarchicalRoofline;
use moe_model::MoeModelConfig;
use moe_policy::{CostModel, Policy, PolicyOptimizer, SearchSpace, WorkloadShape};
use moe_schedule::{DecodeScheduleBuilder, ScheduleKind};
use moe_sim::simulate;
use moe_tensor::{attention::gqa_attention_decode, ops, Tensor};
use moe_workload::{Algorithm2, BatchingConfig, Scheduler, WorkloadSpec};

fn bench_hrm(c: &mut Criterion) {
    let hrm = HierarchicalRoofline::from_node(&NodeSpec::l4_single(), DType::F16);
    c.bench_function("hrm/attainable_cross", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..200 {
                let intensity = i as f64 * 0.7;
                acc += hrm
                    .attainable_cross(intensity, intensity * 2.0)
                    .as_flops_per_sec();
            }
            acc
        })
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let workload = WorkloadShape::new(77, 128);
    c.bench_function("cost/layer_decode_latency", |b| {
        b.iter(|| cost.layer_decode_latency(&Policy::offload_default(504, 36), &workload))
    });
    c.bench_function("cost/generation_throughput", |b| {
        b.iter(|| cost.generation_throughput(&Policy::offload_default(504, 36), &workload))
    });
}

fn bench_policy_search(c: &mut Criterion) {
    let workload = WorkloadShape::new(77, 128);
    c.bench_function("policy/search_coarse_s1", |b| {
        let optimizer = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
            .with_search_space(SearchSpace::coarse());
        b.iter(|| optimizer.search(&workload).unwrap())
    });
    c.bench_function("policy/search_default_s1", |b| {
        let optimizer = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
        b.iter(|| optimizer.search(&workload).unwrap())
    });
}

fn bench_schedules(c: &mut Criterion) {
    let cost = CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
    let builder = DecodeScheduleBuilder::new(
        &cost,
        Policy::offload_default(256, 32),
        WorkloadShape::new(77, 128),
    )
    .with_layers(4);
    for kind in [ScheduleKind::CgoPipe, ScheduleKind::FlexGenGpuAttention] {
        c.bench_function(&format!("schedule/build+simulate/{kind:?}"), |b| {
            b.iter(|| {
                let graph = builder.build(kind).unwrap();
                simulate(&graph).makespan
            })
        });
        // What decode-step costing runs: the same schedule, played as it is
        // emitted, with no graph built.
        c.bench_function(&format!("schedule/makespan/{kind:?}"), |b| {
            b.iter(|| builder.decode_step_makespan(kind).unwrap())
        });
    }
}

fn bench_batching(c: &mut Criterion) {
    let requests = WorkloadSpec::mtbench().sample_requests(2048, 128, 3);
    let cfg = BatchingConfig {
        num_micro_batches: 14,
        max_requests_per_micro_batch: 36,
        max_scheduled_requests: usize::MAX,
        cache_tokens_per_micro_batch: 1 << 20,
    };
    c.bench_function("workload/batch_2048_requests", |b| {
        b.iter_batched(
            || requests.clone(),
            |reqs| Algorithm2.plan(&reqs, &cfg),
            BatchSize::SmallInput,
        )
    });
}

fn bench_kernels(c: &mut Criterion) {
    let q = Tensor::randn(&[8, 32], 1.0, 1);
    let k = Tensor::randn(&[2, 256, 32], 1.0, 2);
    let v = Tensor::randn(&[2, 256, 32], 1.0, 3);
    c.bench_function("tensor/gqa_attention_decode_ctx256", |b| {
        b.iter(|| gqa_attention_decode(&q, &k, &v).unwrap())
    });
    let a = Tensor::randn(&[64, 64], 1.0, 4);
    let m = Tensor::randn(&[64, 64], 1.0, 5);
    c.bench_function("tensor/matmul_64", |b| {
        b.iter(|| ops::matmul(&a, &m).unwrap())
    });
}

criterion_group!(
    benches,
    bench_hrm,
    bench_cost_model,
    bench_policy_search,
    bench_schedules,
    bench_batching,
    bench_kernels
);
criterion_main!(benches);
