//! Fig. 11 (trace-driven day): validates the ISSUE 8 phase sampler on a
//! scaled-down synthetic "million-user day" against the full-day simulation.
//!
//! A diurnal day (40% swing, lunch spike, late failover burst, sticky
//! sessions, daylight-driven SLO-class mix) is synthesized over the pinned
//! seed-11 MTBench fleet (4× T4, setting S1, capacity-bound policy, SLO
//! calibrated from an unloaded replica). The full day is simulated once as
//! the ground truth; the phase sampler then windows the trace, k-means the
//! windows into K phases, simulates only each phase's representative window
//! and reconstitutes whole-day estimates from the weighted slice reports.
//!
//! The run **asserts** the acceptance bar: goodput and SLO attainment each
//! within 5% of the full-day run, at ≥10× fewer simulated requests.
//!
//! Run with `cargo run --release -p moe-bench --bin fig11_trace_day`.
//! Knobs: `FIG11_REQUESTS` (expected arrivals, default 24000) and
//! `FIG11_LOAD` (fraction of fleet capacity, default 0.65); the day is cut
//! into `WINDOWS` (96) windows grouped into `PHASES` (8) phases. Pass
//! `--json <path>` (or set `BENCH_JSON`) for machine-readable output.
//! Pass `--metrics <path>` (or set `BENCH_METRICS`) to export the full-day
//! run's telemetry time-series, sampled once per phase window — the diurnal
//! swing, spike and failover burst show up directly in the queue-depth and
//! outstanding-token gauges.
//!
//! The default load keeps the burst-induced overload short: phase sampling
//! is stateless across windows, so queue backlog carried out of an
//! over-capacity phase (the failover burst at sustained high load) is the
//! one day-level effect a representative window cannot reproduce — push
//! `FIG11_LOAD` toward 0.85 to watch the estimate degrade for exactly that
//! reason.

use moe_bench::fleet::{FleetScenario, GEN_LEN, REPLICAS, SEED};
use moe_bench::{
    env_or, fmt3, json_output_path, metrics_output_path, obj, print_csv, print_header, print_row,
};
use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, LeastOutstandingTokens, Recorder, ReplicaSpec,
    Seconds, ServingMode, SystemKind,
};
use moe_trace::{estimate_day, sample_phases, DaySpec, PhaseConfig, Trace};
use moe_workload::WorkloadSpec;
use std::sync::Arc;

/// Phase-sampler windows the day is cut into.
const WINDOWS: usize = 96;
/// Phases the windows are clustered into.
const PHASES: usize = 8;

/// The fleet the day runs on: the pinned scenario's replicas and policy,
/// least-outstanding-tokens routing, fed an explicit trace queue.
fn day_spec(scenario: &FleetScenario, trace: &Trace) -> ClusterSpec {
    let node = EvalSetting::S1.node();
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_gen_len(GEN_LEN)
        .with_seed(SEED)
        .with_mode(ServingMode::Continuous)
        .with_router(Arc::new(LeastOutstandingTokens))
        .with_slo(scenario.slo);
    for _ in 0..REPLICAS {
        spec = spec.with_replica(ReplicaSpec::new(node.clone()).with_policy(scenario.policy));
    }
    trace.replay_into_cluster(spec)
}

fn main() {
    let requests: usize = env_or("FIG11_REQUESTS", 24_000);
    let load: f64 = env_or("FIG11_LOAD", 0.65);

    let scenario = match FleetScenario::pinned(256) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig11: cannot calibrate the pinned scenario: {e}");
            std::process::exit(1);
        }
    };

    // The day: mean offered load at `load` of fleet capacity, sized so the
    // expected arrival count is `requests`; a lunch spike and a failover
    // burst ride on the diurnal swing.
    let base_rate = load * REPLICAS as f64 * scenario.per_replica_rate;
    let day_secs = requests as f64 / base_rate;
    let mut workload = WorkloadSpec::mtbench();
    workload.default_gen_lens = vec![GEN_LEN]; // the axis the policy/SLO are calibrated for
    let day = DaySpec::new(workload, Seconds::from_secs(day_secs), base_rate, SEED)
        .with_segment(
            Seconds::from_secs(0.52 * day_secs),
            Seconds::from_secs(0.06 * day_secs),
            1.7,
        )
        .with_segment(
            Seconds::from_secs(0.78 * day_secs),
            Seconds::from_secs(0.04 * day_secs),
            2.3,
        )
        .synthesize();
    let stats = day.stats();
    println!(
        "== Trace day @ S1: {REPLICAS}x T4, {} arrivals over {:.0}s ({:.2} req/s mean, \
         {:.0}% of capacity), {} sessions, seed {SEED} ==",
        stats.requests,
        stats.duration.as_secs(),
        stats.arrival_rate,
        100.0 * load,
        stats.sessions,
    );
    println!(
        "(diurnal 40% swing; x1.7 spike at 52% and x2.3 failover burst at 78% of the day; \
         SLO: ttft <= {:.1}s, per-token <= {:.2}s)",
        scenario.slo.ttft.as_secs(),
        scenario.slo.per_token.as_secs()
    );

    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());

    // Ground truth: the whole day, end to end. The metrics export samples
    // the gauges once per phase window so the telemetry series lines up
    // with the sampler's windowing.
    let metrics = metrics_output_path().map(|path| {
        let interval = (day.duration().as_secs() / WINDOWS as f64).max(1e-3);
        (path, Arc::new(Recorder::new().with_interval(interval)))
    });
    let mut full_spec = day_spec(&scenario, &day);
    if let Some((_, recorder)) = &metrics {
        full_spec = full_spec.with_telemetry(Arc::clone(recorder) as _);
    }
    let full_start = std::time::Instant::now();
    let full = match evaluator.run(&full_spec) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fig11: full-day run failed: {e}");
            std::process::exit(1);
        }
    };
    let full_wall = full_start.elapsed();
    let full_goodput = full.goodput(&scenario.slo);
    let full_attainment = full.slo_attainment_pct(&scenario.slo);

    // Phase-sampled estimate: K representative windows stand for the day.
    let window = Seconds::from_secs(day.duration().as_secs() / WINDOWS as f64);
    let plan = sample_phases(&day, &PhaseConfig::new(window, PHASES, SEED));
    let sampled_start = std::time::Instant::now();
    let estimate = match estimate_day(&day, &plan, &scenario.slo, |slice| {
        evaluator.run(&day_spec(&scenario, slice))
    }) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fig11: slice run failed: {e}");
            std::process::exit(1);
        }
    };
    let sampled_wall = sampled_start.elapsed();

    println!(
        "\n-- phase plan: {} windows of {:.0}s -> {} phases --",
        plan.windows.len(),
        window.as_secs(),
        plan.slices.len()
    );
    let plan_widths = [6usize, 8, 14, 10, 12];
    print_header(
        &["phase", "windows", "rep window", "requests", "rate req/s"],
        &plan_widths,
    );
    for slice in &plan.slices {
        let rep = &plan.windows[slice.representative];
        print_row(
            &[
                slice.cluster.to_string(),
                slice.members.len().to_string(),
                slice.representative.to_string(),
                rep.requests.to_string(),
                fmt3(rep.features[0]),
            ],
            &plan_widths,
        );
    }

    let reduction = full.total_requests() as f64 / estimate.simulated_requests.max(1) as f64;
    let goodput_err = rel_err(estimate.goodput, full_goodput);
    let attainment_err = rel_err(estimate.slo_attainment_pct, full_attainment);

    println!("\n-- full day vs phase-sampled estimate --");
    let widths = [14usize, 12, 12, 9, 12, 12, 11];
    print_header(
        &[
            "run",
            "requests",
            "tokens/s",
            "goodput",
            "slo %",
            "ttft_p99 s",
            "wall ms",
        ],
        &widths,
    );
    for (label, reqs, thr, good, slo_pct, p99, wall) in [
        (
            "full",
            full.total_requests(),
            full.fleet_throughput(),
            full_goodput,
            full_attainment,
            full.ttft().p99.as_secs(),
            full_wall.as_millis(),
        ),
        (
            "phase-sampled",
            estimate.simulated_requests,
            estimate.throughput,
            estimate.goodput,
            estimate.slo_attainment_pct,
            estimate.ttft_p99.as_secs(),
            sampled_wall.as_millis(),
        ),
    ] {
        let row = [
            label.to_owned(),
            reqs.to_string(),
            fmt3(thr),
            fmt3(good),
            format!("{slo_pct:.1}"),
            fmt3(p99),
            wall.to_string(),
        ];
        print_csv(&{
            let mut csv = vec!["trace-day".to_owned()];
            csv.extend(row.iter().cloned());
            csv
        });
        print_row(row.as_ref(), &widths);
    }
    println!(
        "\nestimate errors: goodput {:.2}%, SLO attainment {:.2}%; {:.1}x fewer simulated \
         requests ({} of {})",
        100.0 * goodput_err,
        100.0 * attainment_err,
        reduction,
        estimate.simulated_requests,
        full.total_requests()
    );

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(
            &path,
            "fig11",
            vec![obj(vec![
                ("arrivals", stats.requests.into()),
                ("day_secs", stats.duration.as_secs().into()),
                ("windows", plan.windows.len().into()),
                ("phases", plan.slices.len().into()),
                ("full_tokens_per_sec", full.fleet_throughput().into()),
                ("full_goodput_tokens_per_sec", full_goodput.into()),
                ("full_slo_attainment_pct", full_attainment.into()),
                ("full_ttft_p99_s", full.ttft().p99.as_secs().into()),
                ("sampled_requests", estimate.simulated_requests.into()),
                ("sampled_tokens_per_sec", estimate.throughput.into()),
                ("sampled_goodput_tokens_per_sec", estimate.goodput.into()),
                (
                    "sampled_slo_attainment_pct",
                    estimate.slo_attainment_pct.into(),
                ),
                ("sampled_ttft_p99_s", estimate.ttft_p99.as_secs().into()),
                ("goodput_rel_err", goodput_err.into()),
                ("attainment_rel_err", attainment_err.into()),
                ("request_reduction", reduction.into()),
            ])],
        );
    }

    if let Some((path, recorder)) = metrics {
        moe_bench::write_metrics(&path, &recorder);
    }

    // The acceptance bar: within 5% on both day-level SLO metrics, at an
    // order of magnitude fewer simulated requests.
    assert!(
        goodput_err <= 0.05,
        "phase-sampled goodput off by {:.2}% (> 5%): {} vs {}",
        100.0 * goodput_err,
        estimate.goodput,
        full_goodput
    );
    assert!(
        attainment_err <= 0.05,
        "phase-sampled SLO attainment off by {:.2}% (> 5%): {} vs {}",
        100.0 * attainment_err,
        estimate.slo_attainment_pct,
        full_attainment
    );
    assert!(
        reduction >= 10.0,
        "only {reduction:.1}x fewer simulated requests (need >= 10x)"
    );
    println!("fig11: PASS (errors <= 5%, reduction >= 10x)");
}

fn rel_err(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}
