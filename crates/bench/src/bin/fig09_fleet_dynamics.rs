//! Fig. 9 (fleet dynamics): SLO goodput of the pinned seed-11 MTBench fleet
//! under churn, sweeping the number of mid-run replica failures against the
//! fleet-sizing policy (static, queue-depth autoscaler, SLO-attainment
//! autoscaler), plus an admission-control comparison under overload.
//!
//! The scenario is the shared [`moe_bench::fleet::FleetScenario`]: 4× T4
//! replicas (setting S1) with a capacity-bound policy, Poisson arrivals at the
//! fleet's measured aggregate service rate, least-outstanding-tokens routing,
//! and an SLO calibrated from an unloaded replica. Failures kill replicas at
//! 25% (and, for the two-failure sweep, 50%) of the expected span; recovery is
//! judged on goodput relative to the churn-free run — the acceptance bar of
//! `tests/fleet_dynamics.rs` (autoscaled ≥ 90%, static below) is reproduced by
//! the `failures=1` rows.
//!
//! Run with `cargo run --release -p moe-bench --bin fig09_fleet_dynamics`.
//! Set `FIG09_QUEUE_LEN` (default 600) to shrink the queue for smoke runs;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.
//! Pass `--metrics <path>` (or set `BENCH_METRICS`) to export the telemetry
//! time-series (queue depths, outstanding tokens, lifecycle census) of the
//! one-failure queue-depth-autoscaled cell — the figure's headline recovery.
//!
//! Pass `--trace <path>` (or set `FIG09_TRACE`) to replay a recorded trace
//! (recorded via `moe_trace::TraceRecorder` / saved with `Trace::save`, or
//! synthesized with `fig11_trace_day`) through the failure × scaler grid
//! instead of the synthesized Poisson queue: the trace's own arrival stamps
//! and prompt/generation lengths drive every cell, so the churn response is
//! measured against real recorded load. The SLO and service-rate calibration
//! still come from the pinned scenario; the admission-control table keeps its
//! synthesized overload arrivals either way.

use moe_bench::fleet::{FleetScenario, REPLICAS};
use moe_bench::{
    env_or, fmt3, json_output_path, metrics_output_path, obj, print_csv, print_header, print_row,
    JsonValue,
};
use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, QueueDepthScaler, Recorder, ReplicaId, SloAdmission,
};
use moe_trace::Trace;
use moe_workload::ArrivalProcess;
use std::sync::Arc;

/// Trace to replay through the grid: `--trace <path>` wins over `FIG09_TRACE`.
fn trace_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var("FIG09_TRACE").ok())
}

fn main() {
    let mut count: usize = env_or("FIG09_QUEUE_LEN", 600);
    let trace = match trace_path() {
        Some(path) => match Trace::load(&path) {
            Ok(t) => {
                count = t.len();
                println!("(replaying trace {path}: {count} requests)");
                Some(t)
            }
            Err(e) => {
                eprintln!("fig09: cannot load trace {path}: {e}");
                return;
            }
        },
        None => None,
    };
    let scenario = match FleetScenario::pinned(count) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig09: cannot calibrate the pinned scenario: {e}");
            return;
        }
    };
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let mut json_rows: Vec<JsonValue> = Vec::new();
    // The metrics export instruments the one-failure queue-depth cell: a
    // sampling interval of 1/64 of the time-to-failure (itself 25% of the
    // expected span) gives ~256 samples across the whole run.
    let metrics = metrics_output_path().map(|path| {
        let interval = (scenario.fail_time.as_secs() / 64.0).max(1e-3);
        (path, Arc::new(Recorder::new().with_interval(interval)))
    });

    println!(
        "== Fleet dynamics @ S1: {REPLICAS}x T4, {count} requests, {} at \
         {:.3} req/s/replica, seed 11 ==",
        if trace.is_some() {
            "trace arrivals, calibrated"
        } else {
            "Poisson"
        },
        scenario.per_replica_rate
    );
    println!(
        "(SLO: ttft <= {:.1}s, per-token <= {:.2}s; failures at 25%/50% of the \
         expected span; provisioning takes {:.0}s)",
        scenario.slo.ttft.as_secs(),
        scenario.slo.per_token.as_secs(),
        scenario.provisioning_delay.as_secs()
    );

    let widths = [10usize, 16, 10, 10, 9, 8, 9, 9, 7, 12];
    print_header(
        &[
            "failures",
            "scaler",
            "tokens/s",
            "goodput",
            "good %",
            "slo %",
            "rerouted",
            "joins",
            "fleet",
            "repl-s lost",
        ],
        &widths,
    );

    let second_failure = scenario.fail_time.scale(2.0);
    let mut baseline_goodput = None;
    for failures in 0usize..=2 {
        let timeline = match failures {
            0 => moe_lightning::FleetTimeline::new()
                .with_provisioning_delay(scenario.provisioning_delay),
            1 => scenario.failure_timeline(),
            _ => scenario
                .failure_timeline()
                .fail_at(second_failure, ReplicaId(2)),
        };
        let scalers: Vec<(&str, ClusterSpec)> = vec![
            (
                "static",
                scenario.base_spec().with_timeline(timeline.clone()),
            ),
            (
                "queue-depth",
                scenario
                    .base_spec()
                    .with_timeline(timeline.clone())
                    .with_autoscaler(
                        Arc::new(QueueDepthScaler::new(16.0, 1.0)),
                        scenario.scale_bounds(),
                    ),
            ),
            (
                "slo-attainment",
                scenario
                    .base_spec()
                    .with_timeline(timeline.clone())
                    .with_autoscaler(
                        Arc::new(moe_lightning::SloAttainmentScaler::new(scenario.slo, 95.0)),
                        scenario.scale_bounds(),
                    ),
            ),
        ];
        for (label, spec) in scalers {
            let mut spec = match &trace {
                Some(t) => t.replay_into_cluster(spec),
                None => spec,
            };
            if failures == 1 && label == "queue-depth" {
                if let Some((_, recorder)) = &metrics {
                    spec = spec.with_telemetry(Arc::clone(recorder) as _);
                }
            }
            match evaluator.run(&spec) {
                Ok(report) => {
                    let goodput = report.goodput(&scenario.slo);
                    if failures == 0 && baseline_goodput.is_none() {
                        baseline_goodput = Some(goodput);
                    }
                    let good_pct = baseline_goodput
                        .filter(|&b| b > 0.0)
                        .map(|b| 100.0 * goodput / b);
                    let a = &report.availability;
                    let fleet_final =
                        REPLICAS + a.joins.len() - a.failures.len().min(REPLICAS) - a.drains.len();
                    let row = [
                        failures.to_string(),
                        label.to_owned(),
                        fmt3(report.fleet_throughput()),
                        fmt3(goodput),
                        good_pct.map_or("-".into(), |p| format!("{p:.1}")),
                        format!("{:.1}", report.slo_attainment_pct(&scenario.slo)),
                        a.rerouted.len().to_string(),
                        a.joins.len().to_string(),
                        fleet_final.to_string(),
                        fmt3(a.replica_seconds_lost.as_secs()),
                    ];
                    print_csv(&{
                        let mut csv = vec!["fleet-dynamics".to_owned()];
                        csv.extend(row.iter().cloned());
                        csv
                    });
                    print_row(row.as_ref(), &widths);
                    json_rows.push(obj(vec![
                        ("table", "fleet-dynamics".into()),
                        ("failures", failures.into()),
                        ("scaler", label.into()),
                        ("tokens_per_sec", report.fleet_throughput().into()),
                        ("goodput_tokens_per_sec", goodput.into()),
                        (
                            "goodput_pct_of_baseline",
                            good_pct.map_or(JsonValue::Null, JsonValue::Num),
                        ),
                        (
                            "slo_attainment_pct",
                            report.slo_attainment_pct(&scenario.slo).into(),
                        ),
                        (
                            "unchurned_goodput_tokens_per_sec",
                            report.unchurned_goodput(&scenario.slo).into(),
                        ),
                        ("rerouted", a.rerouted.len().into()),
                        ("rejected", a.rejected.len().into()),
                        ("joins", a.joins.len().into()),
                        ("cancelled_joins", a.cancelled_joins.into()),
                        (
                            "replica_seconds_lost",
                            a.replica_seconds_lost.as_secs().into(),
                        ),
                        ("ttft_p99_s", report.ttft().p99.as_secs().into()),
                    ]));
                }
                Err(e) => print_row(
                    &[
                        failures.to_string(),
                        label.to_owned(),
                        format!("n/a ({e})"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ],
                    &widths,
                ),
            }
        }
    }

    admission_table(&scenario, &evaluator, &mut json_rows);

    println!("\n(goodput counts only SLO-attaining requests over the global makespan;");
    println!("good % is relative to the churn-free static run. A failed replica's");
    println!("in-flight work is re-routed with its KV lost and prefill re-charged;");
    println!("joins pay the provisioning delay before serving.)");

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig09", json_rows);
    }
    if let Some((path, recorder)) = metrics {
        moe_bench::write_metrics(&path, &recorder);
    }
}

/// Admission control under overload: the same single-replica scenario at 1.5×
/// its service rate, with open admission vs `SloAdmission` shedding.
fn admission_table(
    scenario: &FleetScenario,
    evaluator: &ClusterEvaluator,
    json_rows: &mut Vec<JsonValue>,
) {
    println!(
        "\n-- admission control @ 1.5x overload, 1 replica, {} requests --",
        scenario.count.min(400)
    );
    let widths = [14usize, 10, 10, 9, 9, 12, 12];
    print_header(
        &[
            "admission",
            "tokens/s",
            "goodput",
            "slo %",
            "rejected",
            "ttft_p50 s",
            "ttft_p99 s",
        ],
        &widths,
    );
    for shed in [false, true] {
        // Single overloaded replica: the scenario fleet shrunk to one node.
        let mut spec = ClusterSpec::new(
            moe_lightning::SystemKind::MoeLightning,
            moe_workload::WorkloadSpec::mtbench(),
        )
        .with_replica(
            moe_lightning::ReplicaSpec::new(EvalSetting::S1.node()).with_policy(scenario.policy),
        )
        .with_count(scenario.count.min(400))
        .with_gen_len(moe_bench::fleet::GEN_LEN)
        .with_seed(moe_bench::fleet::SEED)
        .with_mode(moe_lightning::ServingMode::Continuous)
        .with_arrivals(ArrivalProcess::Poisson {
            rate_per_sec: 1.5 * scenario.per_replica_rate,
        })
        .with_slo(scenario.slo);
        if shed {
            spec = spec.with_admission(Arc::new(SloAdmission::new(scenario.slo)));
        }
        let label = if shed { "slo-admission" } else { "admit-all" };
        match evaluator.run(&spec) {
            Ok(report) => {
                let ttft = report.ttft();
                let row = [
                    label.to_owned(),
                    fmt3(report.fleet_throughput()),
                    fmt3(report.goodput(&scenario.slo)),
                    format!("{:.1}", report.slo_attainment_pct(&scenario.slo)),
                    report.rejected_requests().to_string(),
                    fmt3(ttft.p50.as_secs()),
                    fmt3(ttft.p99.as_secs()),
                ];
                print_csv(&{
                    let mut csv = vec!["admission".to_owned()];
                    csv.extend(row.iter().cloned());
                    csv
                });
                print_row(row.as_ref(), &widths);
                json_rows.push(obj(vec![
                    ("table", "admission".into()),
                    ("admission", label.into()),
                    ("tokens_per_sec", report.fleet_throughput().into()),
                    (
                        "goodput_tokens_per_sec",
                        report.goodput(&scenario.slo).into(),
                    ),
                    (
                        "slo_attainment_pct",
                        report.slo_attainment_pct(&scenario.slo).into(),
                    ),
                    ("rejected", report.rejected_requests().into()),
                    ("ttft_p50_s", ttft.p50.as_secs().into()),
                    ("ttft_p99_s", ttft.p99.as_secs().into()),
                ]));
            }
            Err(e) => print_row(
                &[
                    label.to_owned(),
                    format!("n/a ({e})"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ],
                &widths,
            ),
        }
    }
}
