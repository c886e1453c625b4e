//! Fleet-scale hot-path sweep: wall-clock cost of simulating large fleets
//! under heavy online load, up to 1000 replicas × 1,000,000 requests, on the
//! indexed fleet loop (one event agenda + incremental router indexes, one
//! replica event settled per iteration) — with a head-to-head against the
//! O(fleet)-per-event linear scan loop at the largest fleet size, a
//! telemetry-overhead leg that re-runs the same scenario with a recording
//! `TelemetrySink` attached, a disaggregated leg that splits the largest
//! fleet into a prefill half and a decode half and runs the head-to-head's
//! queue on both loops, and an autoscaled leg that runs the same queue on
//! the largest fleet under an `SloAttainmentScaler`, on both loops.
//!
//! Six assertions gate the run (exit code 1 on violation):
//!
//! * the whole sweep finishes inside `SCALE_SWEEP_BUDGET_S` seconds
//!   (default 600),
//! * at the largest fleet the indexed loop is at least `MIN_SPEEDUP`×
//!   (5×) faster than the scan loop on the pinned comparison scenario, and
//! * with a `Recorder` sink attached (events + sampled time-series +
//!   profiling spans) the indexed loop stays within
//!   `MAX_TELEMETRY_OVERHEAD_PCT` percent (10) of the no-sink wall clock,
//!   and produces a bit-identical `ClusterReport`, and
//! * on the split fleet the indexed loop, which routes each pool from its
//!   own router index, produces a `ClusterReport` bit-identical to the scan
//!   loop's. Its simulated req/s prints beside the unified fleet's, and
//! * on the autoscaled fleet, whose scaler observes the fleet at every
//!   arrival and completion, the indexed loop produces a `ClusterReport`
//!   bit-identical to the scan loop's, and
//! * the autoscaled fleet's simulated req/s is at least
//!   `MIN_AUTOSCALED_RATIO` (0.5) of the static fleet's, each the median of
//!   `RATE_REPEATS` (3) indexed runs: a leg takes tens of milliseconds, so
//!   one run decides nothing. The scan loop runs once, as the reference
//!   every repeat must equal.
//!
//! Smoke knob: `SCALE_SWEEP_MAX_REQUESTS` caps the largest request count
//! (default 1,000,000). The scan head-to-head and the disaggregated and
//! autoscaled legs run `SCAN_REQUESTS` (20,000) requests — the scan loop is
//! quadratic-ish in fleet size, so it gets a smaller queue.
//!
//! Run with `cargo run --release -p moe-bench --bin scale_sweep`;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.

use moe_bench::{
    env_or, fmt3, json_output_path, obj, print_csv, print_header, print_row, JsonValue,
};
use moe_lightning::{
    ClusterEvaluator, ClusterReport, ClusterSpec, EngineError, EvalSetting, FleetTimeline,
    LeastOutstandingTokens, NodeSpec, Recorder, ReplicaRole, ReplicaSpec, ScaleBounds, Seconds,
    ServingMode, SloAttainmentScaler, SloSpec, SystemKind,
};
use moe_workload::{ArrivalProcess, WorkloadSpec};
use std::sync::Arc;
use std::time::Instant;

/// Uniform generation length: short enough that a million requests stay in
/// the wall-clock budget, long enough that decode (not just admission)
/// dominates each replica's event chain.
const GEN_LEN: u64 = 16;
/// Offered load per replica (requests/s); the fleet rate is this × fleet
/// size, so every fleet runs at the same per-replica utilisation.
const RATE_PER_REPLICA: f64 = 4.0;
const SEED: u64 = 11;
/// The least indexed-over-scan speedup the head-to-head must show.
const MIN_SPEEDUP: f64 = 5.0;
/// The most wall-clock overhead, in percent, a recording sink may add.
const MAX_TELEMETRY_OVERHEAD_PCT: f64 = 10.0;
/// Indexed runs behind each side of the autoscaled leg's rate gate.
const RATE_REPEATS: usize = 3;
/// The least autoscaled-over-static ratio of median simulated req/s.
const MIN_AUTOSCALED_RATIO: f64 = 0.5;
/// Requests in the scan head-to-head and the disaggregated and autoscaled
/// legs.
const SCAN_REQUESTS: usize = 20_000;

fn evaluator() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

/// Runs `spec` on the indexed loop `RATE_REPEATS` times; returns every
/// report and the median wall-clock seconds.
fn indexed_repeats(spec: &ClusterSpec) -> Result<(Vec<ClusterReport>, f64), EngineError> {
    let mut reports = Vec::with_capacity(RATE_REPEATS);
    let mut walls = Vec::with_capacity(RATE_REPEATS);
    for _ in 0..RATE_REPEATS {
        let t0 = Instant::now();
        reports.push(evaluator().run(spec)?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    Ok((reports, walls[RATE_REPEATS / 2]))
}

fn spec(replicas: usize, count: usize) -> ClusterSpec {
    fleet(
        ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            replicas,
        ),
        replicas,
        count,
    )
}

/// The same scenario on a fleet split into a prefill pool (the first half)
/// and a decode pool (the rest): every request is routed twice, once on
/// arrival and once for its KV migration.
fn split_spec(replicas: usize, count: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
    for i in 0..replicas {
        let role = if i < replicas / 2 {
            ReplicaRole::Prefill
        } else {
            ReplicaRole::Decode
        };
        spec = spec.with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_role(role));
    }
    fleet(spec, replicas, count)
}

/// The same scenario under an [`SloAttainmentScaler`] that may grow the
/// fleet by a tenth. The SLO is the static indexed run's TTFT p90 and
/// per-token p99, so the scaler sees misses and acts; joins take half a
/// simulated second to come up.
fn autoscaled_spec(replicas: usize, count: usize, slo: SloSpec) -> ClusterSpec {
    spec(replicas, count)
        .with_slo(slo)
        .with_autoscaler(
            Arc::new(SloAttainmentScaler::new(slo, 95.0)),
            ScaleBounds::new(replicas, replicas + replicas / 10, Seconds::from_secs(0.1)),
        )
        .with_timeline(FleetTimeline::new().with_provisioning_delay(Seconds::from_secs(0.5)))
}

/// The autoscaled leg's SLO, read off the static indexed run.
fn observed_slo(report: &ClusterReport) -> SloSpec {
    SloSpec {
        ttft: report.ttft().p90,
        per_token: report.per_token().p99,
    }
}

fn fleet(spec: ClusterSpec, replicas: usize, count: usize) -> ClusterSpec {
    spec.with_count(count)
        .with_gen_len(GEN_LEN)
        .with_seed(SEED)
        .with_mode(ServingMode::Continuous)
        .with_router(Arc::new(LeastOutstandingTokens))
        .with_arrivals(ArrivalProcess::Poisson {
            rate_per_sec: RATE_PER_REPLICA * replicas as f64,
        })
}

fn main() {
    let budget_s: f64 = env_or("SCALE_SWEEP_BUDGET_S", 600.0);
    let max_requests: usize = env_or("SCALE_SWEEP_MAX_REQUESTS", 1_000_000);

    let started = Instant::now();
    let mut json_rows: Vec<JsonValue> = Vec::new();
    let mut failed = false;

    println!(
        "== Fleet-scale sweep @ S1: T4 replicas, least-outstanding routing, \
         gen {GEN_LEN}, Poisson {RATE_PER_REPLICA} req/s/replica, seed {SEED} =="
    );
    let widths = [9usize, 10, 10, 10, 12, 12];
    print_header(
        &[
            "replicas",
            "requests",
            "served",
            "wall s",
            "sim req/s",
            "tokens/s",
        ],
        &widths,
    );

    // The grid keeps per-replica load constant: request count scales with the
    // fleet, topping out at 1000 replicas × 1M requests.
    let grid: [(usize, usize); 4] = [
        (10, 10_000),
        (100, 100_000),
        (400, 400_000),
        (1000, 1_000_000),
    ];
    for (replicas, count) in grid {
        let count = count.min(max_requests);
        let t0 = Instant::now();
        let report = match evaluator().run(&spec(replicas, count)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scale_sweep: {replicas}x{count} failed: {e}");
                failed = true;
                continue;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let row = [
            replicas.to_string(),
            count.to_string(),
            report.served_requests().to_string(),
            fmt3(wall),
            fmt3(count as f64 / wall.max(1e-9)),
            fmt3(report.fleet_throughput()),
        ];
        print_csv(&{
            let mut csv = vec!["scale-sweep".to_owned()];
            csv.extend(row.iter().cloned());
            csv
        });
        print_row(row.as_ref(), &widths);
        json_rows.push(obj(vec![
            ("table", "scale-sweep".into()),
            ("replicas", replicas.into()),
            ("requests", count.into()),
            ("served", report.served_requests().into()),
            ("wall_s", wall.into()),
            (
                "sim_requests_per_sec",
                (count as f64 / wall.max(1e-9)).into(),
            ),
            ("tokens_per_sec", report.fleet_throughput().into()),
        ]));
    }

    // Head-to-head at the largest fleet: the same pinned scenario on the
    // linear scan loop vs the indexed loop. The scan loop pays O(fleet) per
    // event, so it gets a smaller queue; both sides run it.
    let (replicas, count) = (grid[grid.len() - 1].0, SCAN_REQUESTS.min(max_requests));
    println!("\n-- scan vs indexed @ {replicas} replicas, {count} requests --");
    let t0 = Instant::now();
    let scan = evaluator().with_scan_loop().run(&spec(replicas, count));
    let scan_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let indexed = evaluator().run(&spec(replicas, count));
    let indexed_wall = t0.elapsed().as_secs_f64();
    let slo = indexed.as_ref().ok().map(observed_slo);
    match (scan, indexed) {
        (Ok(want), Ok(got)) => {
            let speedup = scan_wall / indexed_wall.max(1e-9);
            println!(
                "scan: {scan_wall:.2}s   indexed: {indexed_wall:.2}s   \
                 speedup: {speedup:.1}x"
            );
            print_csv(&[
                "speedup".to_owned(),
                replicas.to_string(),
                count.to_string(),
                fmt3(scan_wall),
                fmt3(indexed_wall),
                fmt3(speedup),
            ]);
            json_rows.push(obj(vec![
                ("table", "speedup".into()),
                ("replicas", replicas.into()),
                ("requests", count.into()),
                ("scan_wall_s", scan_wall.into()),
                ("indexed_wall_s", indexed_wall.into()),
                ("speedup", speedup.into()),
                ("reports_identical", JsonValue::Bool(want == got)),
            ]));
            if want != got {
                eprintln!("scale_sweep: FAIL — indexed report diverged from the scan loop");
                failed = true;
            }
            if speedup < MIN_SPEEDUP {
                eprintln!(
                    "scale_sweep: FAIL — speedup {speedup:.1}x under the {MIN_SPEEDUP:.1}x bar"
                );
                failed = true;
            }

            // Telemetry-overhead leg: the same indexed scenario with a full
            // recording sink (events + time-series samples + spans). The
            // +0.15s floor keeps the gate meaningful on smoke-sized runs
            // where the baseline wall clock is tiny.
            let recorder = Arc::new(Recorder::new().with_interval(5.0));
            let t0 = Instant::now();
            let telemetry =
                evaluator().run(&spec(replicas, count).with_telemetry(recorder.clone() as Arc<_>));
            let telemetry_wall = t0.elapsed().as_secs_f64();
            let overhead_pct = 100.0 * (telemetry_wall - indexed_wall) / indexed_wall.max(1e-9);
            let allowed = indexed_wall * (1.0 + MAX_TELEMETRY_OVERHEAD_PCT / 100.0) + 0.15;
            match telemetry {
                Ok(observed) => {
                    let counters = recorder.counters();
                    println!(
                        "telemetry: {telemetry_wall:.2}s   overhead: {overhead_pct:+.1}%   \
                         events: {}   samples: {}",
                        counters.arrivals + counters.completed,
                        recorder.series().len()
                    );
                    json_rows.push(obj(vec![
                        ("table", "telemetry-overhead".into()),
                        ("replicas", replicas.into()),
                        ("requests", count.into()),
                        ("indexed_wall_s", indexed_wall.into()),
                        ("telemetry_wall_s", telemetry_wall.into()),
                        ("overhead_pct", overhead_pct.into()),
                        ("allowed_pct", MAX_TELEMETRY_OVERHEAD_PCT.into()),
                        ("samples", recorder.series().len().into()),
                        ("reports_identical", JsonValue::Bool(observed == got)),
                    ]));
                    if observed != got {
                        eprintln!(
                            "scale_sweep: FAIL — report changed with a telemetry sink attached"
                        );
                        failed = true;
                    }
                    if telemetry_wall > allowed {
                        eprintln!(
                            "scale_sweep: FAIL — telemetry wall {telemetry_wall:.2}s over the \
                             {MAX_TELEMETRY_OVERHEAD_PCT:.0}% overhead bar ({allowed:.2}s)"
                        );
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("scale_sweep: telemetry leg failed: {e}");
                    failed = true;
                }
            }
        }
        (r, i) => {
            eprintln!(
                "scale_sweep: head-to-head failed: scan={:?} indexed={:?}",
                r.err(),
                i.err()
            );
            failed = true;
        }
    }

    // Disaggregated leg: the head-to-head's queue on the split fleet, on both
    // loops. Only report identity gates it; the rate is printed beside the
    // unified fleet's.
    println!("\n-- disaggregated ({0} prefill + {0} decode), scan vs indexed @ {replicas} replicas, {count} requests --", replicas / 2);
    let t0 = Instant::now();
    let split_scan = evaluator()
        .with_scan_loop()
        .run(&split_spec(replicas, count));
    let split_scan_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let split_indexed = evaluator().run(&split_spec(replicas, count));
    let split_wall = t0.elapsed().as_secs_f64();
    match (split_scan, split_indexed) {
        (Ok(want), Ok(got)) => {
            let split_rate = count as f64 / split_wall.max(1e-9);
            let unified_rate = count as f64 / indexed_wall.max(1e-9);
            println!(
                "scan: {split_scan_wall:.2}s   indexed: {split_wall:.2}s   \
                 sim req/s: {split_rate:.0} (unified: {unified_rate:.0})"
            );
            print_csv(&[
                "disagg".to_owned(),
                replicas.to_string(),
                count.to_string(),
                fmt3(split_scan_wall),
                fmt3(split_wall),
                fmt3(split_rate),
                fmt3(unified_rate),
            ]);
            json_rows.push(obj(vec![
                ("table", "disagg".into()),
                ("replicas", replicas.into()),
                ("requests", count.into()),
                ("served", got.served_requests().into()),
                ("scan_wall_s", split_scan_wall.into()),
                ("indexed_wall_s", split_wall.into()),
                ("sim_requests_per_sec", split_rate.into()),
                ("unified_sim_requests_per_sec", unified_rate.into()),
                ("reports_identical", JsonValue::Bool(want == got)),
            ]));
            if want != got {
                eprintln!(
                    "scale_sweep: FAIL — disaggregated indexed report diverged from the scan loop"
                );
                failed = true;
            }
        }
        (r, i) => {
            eprintln!(
                "scale_sweep: disaggregated leg failed: scan={:?} indexed={:?}",
                r.err(),
                i.err()
            );
            failed = true;
        }
    }

    // Autoscaled leg: the head-to-head's queue on the unified fleet with an
    // SLO-attainment scaler. The scan loop runs once as the reference; the
    // rate gate compares medians of repeated indexed runs of both fleets.
    if let Some(slo) = slo {
        println!(
            "\n-- autoscaled (slo-attainment, {replicas}..{} replicas), scan vs indexed, \
             {count} requests, indexed medians of {RATE_REPEATS} --",
            replicas + replicas / 10
        );
        let scaled_spec = autoscaled_spec(replicas, count, slo);
        let t0 = Instant::now();
        let scaled_scan = evaluator().with_scan_loop().run(&scaled_spec);
        let scaled_scan_wall = t0.elapsed().as_secs_f64();
        let scaled_indexed = indexed_repeats(&scaled_spec);
        let static_indexed = indexed_repeats(&spec(replicas, count));
        match (scaled_scan, scaled_indexed, static_indexed) {
            (Ok(want), Ok((runs, scaled_wall)), Ok((_, static_wall))) => {
                let scaled_rate = count as f64 / scaled_wall.max(1e-9);
                let static_rate = count as f64 / static_wall.max(1e-9);
                let ratio = scaled_rate / static_rate.max(1e-9);
                let got = &runs[0];
                let identical = runs.iter().all(|r| *r == want);
                let joins = got.availability.joins.len();
                println!(
                    "scan: {scaled_scan_wall:.2}s   indexed: {scaled_wall:.3}s   \
                     sim req/s: {scaled_rate:.0} (static: {static_rate:.0} in \
                     {static_wall:.3}s, {ratio:.2}x)   joins: {joins}   drains: {}",
                    got.availability.drains.len()
                );
                print_csv(&[
                    "autoscaled".to_owned(),
                    replicas.to_string(),
                    count.to_string(),
                    fmt3(scaled_scan_wall),
                    fmt3(scaled_wall),
                    fmt3(scaled_rate),
                    fmt3(static_rate),
                    fmt3(ratio),
                    joins.to_string(),
                ]);
                json_rows.push(obj(vec![
                    ("table", "autoscaled".into()),
                    ("replicas", replicas.into()),
                    ("requests", count.into()),
                    ("served", got.served_requests().into()),
                    ("joins", joins.into()),
                    ("drains", got.availability.drains.len().into()),
                    ("scan_wall_s", scaled_scan_wall.into()),
                    ("indexed_wall_s", scaled_wall.into()),
                    ("static_indexed_wall_s", static_wall.into()),
                    ("repeats", RATE_REPEATS.into()),
                    ("sim_requests_per_sec", scaled_rate.into()),
                    ("static_sim_requests_per_sec", static_rate.into()),
                    ("ratio", ratio.into()),
                    ("min_ratio", MIN_AUTOSCALED_RATIO.into()),
                    ("reports_identical", JsonValue::Bool(identical)),
                ]));
                if !identical {
                    eprintln!(
                        "scale_sweep: FAIL — autoscaled indexed report diverged from the scan loop"
                    );
                    failed = true;
                }
                if ratio < MIN_AUTOSCALED_RATIO {
                    eprintln!(
                        "scale_sweep: FAIL — autoscaled leg at {ratio:.2}x the static leg's \
                         sim req/s, under the {MIN_AUTOSCALED_RATIO:.1}x bar"
                    );
                    failed = true;
                }
            }
            (scan, scaled, fixed) => {
                eprintln!(
                    "scale_sweep: autoscaled leg failed: scan={:?} indexed={:?} static={:?}",
                    scan.err(),
                    scaled.err(),
                    fixed.err()
                );
                failed = true;
            }
        }
    }

    let total = started.elapsed().as_secs_f64();
    println!("\ntotal sweep wall-clock: {total:.1}s (budget {budget_s:.0}s)");
    json_rows.push(obj(vec![
        ("table", "budget".into()),
        ("total_wall_s", total.into()),
        ("budget_s", budget_s.into()),
        ("within_budget", JsonValue::Bool(total <= budget_s)),
    ]));
    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "scale_sweep", json_rows);
    }
    if total > budget_s {
        eprintln!("scale_sweep: FAIL — wall-clock {total:.1}s over the {budget_s:.0}s budget");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
