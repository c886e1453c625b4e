//! Criterion micro-benchmarks for the `Scheduler::plan` / `Scheduler::backfill`
//! hot path: the batch-formation work every serving round (and, with the
//! cluster layer, every replica admission wave) pays. Algorithm 2 (sort +
//! token-balanced placement) is compared against the length-blind
//! `TokenBudget` port at 1k and 8k request queues, so scheduler and router
//! changes have a perf baseline. A fleet-scale case benches the whole
//! cluster loop (indexed vs linear scan) at a 256-replica fleet, and a
//! single-node case benches `SystemEvaluator::run` on an explicit queue in
//! both serving modes.
//!
//! Run with `cargo bench -p moe-bench --bench scheduler_hot_path`.

use criterion::{criterion_group, criterion_main, Criterion};
use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, LeastOutstandingTokens, NodeSpec, ServeSpec,
    ServingMode, SystemEvaluator, SystemKind,
};
use moe_workload::{
    Algorithm2, ArrivalProcess, BatchingConfig, PartitionState, Request, Scheduler, TokenBudget,
    WorkloadSpec,
};
use std::sync::Arc;

/// The S1-like batching regime: enough micro-batches and KV budget that the
/// whole queue is in play, so the assignment loop (not early deferral)
/// dominates.
fn config() -> BatchingConfig {
    BatchingConfig {
        num_micro_batches: 20,
        max_requests_per_micro_batch: 256,
        max_scheduled_requests: 5120,
        cache_tokens_per_micro_batch: 1 << 20,
    }
}

fn queue(len: usize) -> Vec<Request> {
    WorkloadSpec::mtbench().sample_requests_mixed_gen(len, 7)
}

/// A half-occupied pipeline: the mid-flight state `backfill` sees at a
/// continuous-batching scheduling event.
fn half_occupied(cfg: &BatchingConfig) -> Vec<PartitionState> {
    (0..cfg.num_micro_batches)
        .map(|i| PartitionState {
            requests: cfg.max_requests_per_micro_batch / 2,
            prompt_tokens: 4000 + 100 * i as u64,
            cache_tokens: 20_000 + 500 * i as u64,
        })
        .collect()
}

fn bench_plan(c: &mut Criterion) {
    let cfg = config();
    for len in [1000usize, 8000] {
        let requests = queue(len);
        c.bench_function(&format!("scheduler/plan/algo2/{len}"), |b| {
            b.iter(|| Algorithm2.plan(&requests, &cfg).scheduled_requests())
        });
        c.bench_function(&format!("scheduler/plan/token-budget/{len}"), |b| {
            b.iter(|| TokenBudget.plan(&requests, &cfg).scheduled_requests())
        });
    }
}

fn bench_backfill(c: &mut Criterion) {
    let cfg = config();
    let occupied = half_occupied(&cfg);
    for len in [1000usize, 8000] {
        let requests = queue(len);
        c.bench_function(&format!("scheduler/backfill/algo2/{len}"), |b| {
            b.iter(|| Algorithm2.backfill(&requests, &cfg, &occupied).admitted())
        });
        c.bench_function(&format!("scheduler/backfill/token-budget/{len}"), |b| {
            b.iter(|| TokenBudget.backfill(&requests, &cfg, &occupied).admitted())
        });
    }
}

/// Fleet-scale serving: 256 T4 replicas draining 4096 Poisson arrivals under
/// least-outstanding-tokens routing. `indexed` is the production loop (event
/// heap + router index); `scan` is the O(fleet)
/// per-event scan it replaced — the pair tracks the cluster-loop speedup.
fn bench_fleet_loop(c: &mut Criterion) {
    let spec = || {
        ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            256,
        )
        .with_count(4096)
        .with_gen_len(16)
        .with_seed(11)
        .with_mode(ServingMode::Continuous)
        .with_router(Arc::new(LeastOutstandingTokens))
        .with_arrivals(ArrivalProcess::Poisson {
            rate_per_sec: 1024.0,
        })
    };
    c.bench_function("fleet/indexed/256x4096", |b| {
        let eval = ClusterEvaluator::new(EvalSetting::S1.model());
        let spec = spec();
        b.iter(|| eval.run(&spec).unwrap().served_requests())
    });
    c.bench_function("fleet/scan/256x4096", |b| {
        let eval = ClusterEvaluator::new(EvalSetting::S1.model()).with_scan_loop();
        let spec = spec();
        b.iter(|| eval.run(&spec).unwrap().served_requests())
    });
}

/// Single-node serving: `SystemEvaluator::run` (one engine on the fleet's
/// driver loop, as a 1-replica fleet), in both serving modes on a 1k
/// mixed-generation Poisson queue.
fn bench_single_node(c: &mut Criterion) {
    let eval = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let mut requests = queue(1000);
    ArrivalProcess::Poisson { rate_per_sec: 2.0 }.stamp(&mut requests, 7);
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_gen_len(64)
            .with_mode(mode)
            .with_queue(requests.clone());
        c.bench_function(&format!("single_node/engine/{}/1000", mode.label()), |b| {
            b.iter(|| eval.run(&spec).unwrap().served_requests())
        });
    }
}

criterion_group!(
    benches,
    bench_plan,
    bench_backfill,
    bench_fleet_loop,
    bench_single_node
);
criterion_main!(benches);
