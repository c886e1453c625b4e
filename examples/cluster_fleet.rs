//! Routed-fleet quickstart: serve one online MTBench stream on a heterogeneous
//! T4 + L4 cluster and compare the built-in routers on tail latency and SLO
//! goodput.
//!
//! The fleet-wide arrival stream is sampled once (Poisson at roughly the
//! fleet's joint service rate), each replica runs a capacity-bound policy so
//! admission control genuinely queues, and every `Router` sees the same
//! scenario. Run with:
//!
//! ```sh
//! cargo run --release --example cluster_fleet
//! ```
//!
//! Set `CLUSTER_QUEUE_LEN` (default 240) to shrink the queue for smoke runs.

use moe_bench::env_or;
use moe_lightning::{
    builtin_routers, ClusterEvaluator, ClusterSpec, EvalSetting, NodeSpec, Policy, ReplicaSpec,
    Seconds, ServingMode, SloSpec, SystemKind,
};
use moe_workload::{ArrivalProcess, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadSpec::mtbench();
    let count: usize = env_or("CLUSTER_QUEUE_LEN", 240);
    // 64 concurrent requests per replica: small enough that routing, not raw
    // capacity, decides who queues.
    let policy = Policy::offload_default(64, 16);
    let slo = SloSpec {
        ttft: Seconds::from_secs(60.0),
        per_token: Seconds::from_secs(5.0),
    };
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());

    println!(
        "Mixed fleet: 1x T4 + 1x L4 serving {} ({count} requests, Poisson arrivals)\n",
        evaluator.model().name
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>10}",
        "router", "tokens/s", "ttft_p50 s", "ttft_p99 s", "slo %", "goodput"
    );
    for router in builtin_routers() {
        let scenario = ClusterSpec::new(SystemKind::MoeLightning, workload.clone())
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_replica(ReplicaSpec::new(NodeSpec::l4_single()).with_policy(policy))
            .with_count(count)
            .with_gen_len(64)
            .with_seed(29)
            .with_mode(ServingMode::Continuous)
            // ~The joint T4+L4 service rate under this policy: the regime
            // where load-blind routing overloads the slower T4.
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 0.29 })
            .with_router(router)
            .with_slo(slo);
        let report = evaluator.run(&scenario)?;
        let ttft = report.ttft();
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>12.1} {:>8.1} {:>10.1}",
            report.router,
            report.fleet_throughput(),
            ttft.p50.as_secs(),
            ttft.p99.as_secs(),
            report.slo_attainment_pct(&slo),
            report.goodput(&slo),
        );
    }
    println!(
        "\nLoad-aware routing (least-tokens, kv-aware) sends more work to the faster\n\
         L4 and keeps the tail flat; round-robin overloads the T4 and its p99 TTFT\n\
         grows with queue depth."
    );
    Ok(())
}
