//! Fleet dynamics demo: ride out a mid-run replica failure with and without
//! an autoscaler.
//!
//! Runs the pinned seed-11 MTBench scenario (4× T4, capacity-bound policy,
//! Poisson at the fleet's service rate) three ways — no churn, one failure on
//! a static fleet, the same failure with an `SloAttainmentScaler` allowed to
//! grow the fleet back — and reports SLO goodput plus the availability
//! section (rejections, re-routes, replica-seconds lost). Run with:
//!
//! ```sh
//! cargo run --release --example fleet_dynamics
//! ```
//!
//! Set `FLEET_QUEUE_LEN` (default 600) to shrink the queue for smoke runs.

use moe_bench::env_or;
use moe_bench::fleet::FleetScenario;
use moe_lightning::{ClusterEvaluator, ClusterReport, ClusterSpec, EvalSetting};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = FleetScenario::pinned(env_or("FLEET_QUEUE_LEN", 600))?;
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    println!(
        "Pinned MTBench fleet: 4x T4, {} requests, Poisson at {:.3} req/s/replica",
        scenario.count, scenario.per_replica_rate
    );
    println!(
        "SLO: ttft <= {:.1}s, per-token <= {:.2}s; failure kills r1 at t={:.0}s; \
         provisioning takes {:.0}s\n",
        scenario.slo.ttft.as_secs(),
        scenario.slo.per_token.as_secs(),
        scenario.fail_time.as_secs(),
        scenario.provisioning_delay.as_secs()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>10} {:>9} {:>9} {:>10}",
        "scenario",
        "tokens/s",
        "goodput",
        "slo %",
        "ttft_p99",
        "rerouted",
        "rejected",
        "repl-s lost"
    );
    let mut baseline_goodput = None;
    for (label, spec) in [
        ("no churn", scenario.base_spec()),
        ("failure, static", scenario.static_failure_spec()),
        ("failure, autoscaled", scenario.autoscaled_failure_spec()),
    ] {
        let report = run_row(&evaluator, label, &spec, &scenario)?;
        let goodput = report.goodput(&scenario.slo);
        match baseline_goodput {
            None => baseline_goodput = Some(goodput),
            Some(base) if base > 0.0 => {
                println!(
                    "  -> {:.1}% of the no-churn goodput",
                    100.0 * goodput / base
                );
            }
            _ => {}
        }
    }
    println!(
        "\nThe static fleet rides out the rest of the run one replica short and its\n\
         backlog (and TTFT tail) grows without bound; the autoscaler spots queued\n\
         requests already past the TTFT deadline (and, later, SLO misses in its\n\
         completion window), provisions replacements, and recovers most of the\n\
         lost goodput."
    );
    Ok(())
}

fn run_row(
    evaluator: &ClusterEvaluator,
    label: &str,
    spec: &ClusterSpec,
    scenario: &FleetScenario,
) -> Result<ClusterReport, Box<dyn std::error::Error>> {
    let report = evaluator.run(spec)?;
    let a = &report.availability;
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>8.1} {:>10.1} {:>9} {:>9} {:>10.0}",
        label,
        report.fleet_throughput(),
        report.goodput(&scenario.slo),
        report.slo_attainment_pct(&scenario.slo),
        report.ttft().p99.as_secs(),
        a.rerouted.len(),
        a.rejected.len(),
        a.replica_seconds_lost.as_secs(),
    );
    Ok(report)
}
