//! Fig. 12 (disaggregated serving): SLO goodput of a unified 4-replica fleet
//! vs disaggregated prefill/decode pools across prompt/generation mixes, pool
//! splits and interconnects, plus a prefix-cache routing ablation.
//!
//! Each mix is calibrated exactly like the fig09 fleet scenario: a saturating
//! offline single-replica run measures the service rate, an unloaded
//! (single-admission-wave) run derives the SLO, and the fleet then serves
//! Poisson arrivals at a fixed fraction of the aggregate measured rate. The
//! crossover the figure reports — and this binary asserts at full queue
//! length — is:
//!
//! * **prefill-heavy mix, healthy interconnect**: the best disaggregated
//!   split beats the unified fleet by ≥ 10% goodput, because decode replicas
//!   admit migrated requests with their prefill fully credited and never
//!   stall active decodes behind other requests' prompt waves;
//! * **starved interconnect**: the unified fleet wins, because every
//!   migration's transfer time lands on the critical TTFT path.
//!
//! Run with `cargo run --release -p moe-bench --bin fig12_disagg`.
//! Set `FIG12_QUEUE_LEN` (default 400) to shrink the queue for smoke runs
//! (the crossover assertions arm only at ≥ 300 requests); pass
//! `--json <path>` (or set `BENCH_JSON`) for machine-readable output.
//! Pass `--metrics <path>` (or set `BENCH_METRICS`) to export the telemetry
//! time-series of the prefill-heavy 2p+2d fast-link cell — the
//! migrations-in-flight and per-pool queue gauges show the prefill→decode
//! handoff pipeline directly.

use moe_bench::fleet::{self, Calibration};
use moe_bench::{
    env_or, fmt3, json_output_path, metrics_output_path, obj, print_csv, print_header, print_row,
    JsonValue,
};
use moe_lightning::{
    ClusterEvaluator, ClusterReport, ClusterSpec, EvalSetting, InterconnectSpec,
    LeastOutstandingTokens, Policy, PrefixAware, Recorder, ReplicaRole, ReplicaSpec, Router,
    Seconds, ServingMode, StickySession, SystemKind,
};
use moe_workload::{ArrivalProcess, Request, WorkloadSpec};
use std::sync::Arc;

/// Fleet size shared by every configuration (unified and disaggregated).
const REPLICAS: usize = 4;
/// Queue-synthesis seed.
const SEED: u64 = 11;
/// Offered load as a fraction of the measured aggregate service rate.
fn load() -> f64 {
    env_or("FIG12_LOAD", 0.95)
}
/// The capacity-bound per-replica policy (same shape as the fig09 scenario).
fn policy() -> Policy {
    Policy::offload_default(64, 16)
}

/// A starved interconnect: a congested shared frontend link moving ~1.5 MB/s,
/// so one prefill-heavy KV slice (≈ 200 MB at 128 KiB/token) takes minutes —
/// longer than the mix's TTFT budget.
fn starved() -> InterconnectSpec {
    InterconnectSpec::new(0.0015, Seconds::from_micros(10.0))
}

/// One prompt/generation mix of the sweep.
struct Mix {
    label: &'static str,
    workload: WorkloadSpec,
    gen_len: u64,
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            label: "prefill-heavy",
            workload: WorkloadSpec::summarization(),
            gen_len: 8,
        },
        Mix {
            label: "balanced",
            workload: WorkloadSpec::mtbench(),
            gen_len: 64,
        },
        Mix {
            label: "decode-heavy",
            workload: WorkloadSpec::mtbench(),
            gen_len: 192,
        },
    ]
}

/// Calibrates a mix to a service rate and SLO, fig09-style. Tight enough to
/// price interference: a request's prompt may wait 1.5x the unloaded
/// single-wave median before first token, and its decode steps may stretch
/// 1.25x over the unloaded mean — about the slowdown a colocated prompt wave
/// inflicts on active decodes.
fn calibrate(mix: &Mix, count: usize) -> Result<Calibration, moe_lightning::EngineError> {
    fleet::calibrate(
        &mix.workload,
        mix.gen_len,
        SEED,
        policy(),
        count,
        (1.5, 1.25),
    )
}

/// One fleet shape: `prefill` prefill replicas, the rest decode — or fully
/// unified when `prefill == 0`.
struct Split {
    label: &'static str,
    prefill: usize,
}

fn splits() -> Vec<Split> {
    vec![
        Split {
            label: "unified",
            prefill: 0,
        },
        Split {
            label: "3p+1d",
            prefill: 3,
        },
        Split {
            label: "2p+2d",
            prefill: 2,
        },
        Split {
            label: "1p+3d",
            prefill: 1,
        },
    ]
}

fn fleet_spec(mix: &Mix, cal: &Calibration, count: usize, split: &Split) -> ClusterSpec {
    let node = EvalSetting::S1.node();
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, mix.workload.clone())
        .with_count(count)
        .with_gen_len(mix.gen_len)
        .with_seed(SEED)
        .with_mode(ServingMode::Continuous)
        .with_arrivals(ArrivalProcess::Poisson {
            rate_per_sec: load() * cal.per_replica_rate * REPLICAS as f64,
        })
        .with_router(Arc::new(LeastOutstandingTokens))
        .with_slo(cal.slo);
    for i in 0..REPLICAS {
        let role = if split.prefill == 0 {
            ReplicaRole::Unified
        } else if i < split.prefill {
            ReplicaRole::Prefill
        } else {
            ReplicaRole::Decode
        };
        spec = spec.with_replica(
            ReplicaSpec::new(node.clone())
                .with_policy(policy())
                .with_role(role),
        );
    }
    spec
}

#[allow(clippy::too_many_arguments)]
fn report_row(
    mix: &str,
    split: &str,
    ic: &str,
    cal: &Calibration,
    report: &ClusterReport,
    widths: &[usize],
    json_rows: &mut Vec<JsonValue>,
) -> f64 {
    let goodput = report.goodput(&cal.slo);
    let ttft = report.ttft();
    let per_token = report.per_token();
    let row = [
        mix.to_owned(),
        split.to_owned(),
        ic.to_owned(),
        fmt3(report.fleet_throughput()),
        fmt3(goodput),
        format!("{:.1}", report.slo_attainment_pct(&cal.slo)),
        fmt3(ttft.p99.as_secs()),
        fmt3(per_token.p99.as_secs()),
        report.aborted_requests().to_string(),
    ];
    print_csv(&{
        let mut csv = vec!["disagg".to_owned()];
        csv.extend(row.iter().cloned());
        csv
    });
    print_row(row.as_ref(), widths);
    json_rows.push(obj(vec![
        ("table", "disagg".into()),
        ("mix", mix.into()),
        ("fleet", split.into()),
        ("interconnect", ic.into()),
        ("tokens_per_sec", report.fleet_throughput().into()),
        ("goodput_tokens_per_sec", goodput.into()),
        (
            "slo_attainment_pct",
            report.slo_attainment_pct(&cal.slo).into(),
        ),
        ("ttft_p99_s", ttft.p99.as_secs().into()),
        ("per_token_p99_s", per_token.p99.as_secs().into()),
        ("aborted", report.aborted_requests().into()),
    ]));
    goodput
}

fn main() {
    let count: usize = env_or("FIG12_QUEUE_LEN", 400);
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let mut json_rows: Vec<JsonValue> = Vec::new();
    // The metrics export instruments the prefill-heavy 2p+2d fast-link cell:
    // a 1s sampling interval resolves the prefill→decode migration pipeline.
    let metrics =
        metrics_output_path().map(|path| (path, Arc::new(Recorder::new().with_interval(1.0))));

    println!(
        "== Disaggregated prefill/decode @ S1: {REPLICAS} replicas, {count} requests, \
         Poisson at {}x measured rate, seed {SEED} ==",
        load()
    );
    println!(
        "(interconnect: fast = 25 GB/s RDMA-class, starved = 0.0015 GB/s; \
         SLO calibrated per mix from an unloaded replica)"
    );

    let widths = [14usize, 8, 8, 10, 10, 8, 10, 10, 8];
    print_header(
        &[
            "mix", "fleet", "link", "tokens/s", "goodput", "slo %", "ttft p99", "ptok p99",
            "aborted",
        ],
        &widths,
    );

    // goodputs[(mix, split, ic)] for the crossover assertions.
    let mut unified_goodput: Option<f64> = None;
    let mut best_disagg_fast: f64 = 0.0;
    let mut best_disagg_starved: f64 = 0.0;

    for mix in mixes() {
        let cal = match calibrate(&mix, count) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fig12: cannot calibrate mix {}: {e}", mix.label);
                return;
            }
        };
        for split in splits() {
            let ics: &[(&str, InterconnectSpec)] = if split.prefill == 0 {
                // A unified fleet never migrates; one row covers both links.
                &[("-", InterconnectSpec::default())]
            } else {
                &[
                    ("fast", InterconnectSpec::default()),
                    ("starved", starved()),
                ]
            };
            for (ic_label, ic) in ics {
                let mut spec = fleet_spec(&mix, &cal, count, &split).with_interconnect(*ic);
                if mix.label == "prefill-heavy" && split.label == "2p+2d" && *ic_label == "fast" {
                    if let Some((_, recorder)) = &metrics {
                        spec = spec.with_telemetry(Arc::clone(recorder) as _);
                    }
                }
                match evaluator.run(&spec) {
                    Ok(report) => {
                        let goodput = report_row(
                            mix.label,
                            split.label,
                            ic_label,
                            &cal,
                            &report,
                            &widths,
                            &mut json_rows,
                        );
                        if mix.label == "prefill-heavy" {
                            if split.prefill == 0 {
                                unified_goodput = Some(goodput);
                            } else if *ic_label == "fast" {
                                best_disagg_fast = best_disagg_fast.max(goodput);
                            } else {
                                best_disagg_starved = best_disagg_starved.max(goodput);
                            }
                        }
                    }
                    Err(e) => print_row(
                        &[
                            mix.label.to_owned(),
                            split.label.to_owned(),
                            (*ic_label).to_owned(),
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
    }

    cache_ablation(&evaluator, count, &mut json_rows);

    // The headline crossover, asserted at full queue length (small smoke
    // queues keep the sweep cheap but are too noisy to gate on).
    if count >= 300 {
        let unified = unified_goodput.expect("unified prefill-heavy row ran");
        assert!(
            best_disagg_fast >= 1.10 * unified,
            "crossover: disaggregation should win the prefill-heavy mix by >= 10% \
             (unified {unified:.2} tok/s vs best disagg {best_disagg_fast:.2} tok/s)"
        );
        assert!(
            unified > best_disagg_starved,
            "crossover: the unified fleet should win on a starved interconnect \
             (unified {unified:.2} tok/s vs best disagg {best_disagg_starved:.2} tok/s)"
        );
        println!(
            "\ncrossover holds: prefill-heavy disagg/unified = {:.2}x (>= 1.10), \
             starved disagg/unified = {:.2}x (< 1.0)",
            best_disagg_fast / unified,
            best_disagg_starved / unified
        );
    } else {
        println!("\n(crossover assertions skipped: queue < 300 requests)");
    }

    println!("\n(goodput counts only SLO-attaining requests over the global makespan.");
    println!("Disaggregated rows migrate KV prefill->decode over the listed link;");
    println!("decode replicas admit migrated requests with prefill fully credited.)");

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig12", json_rows);
    }
    if let Some((path, recorder)) = metrics {
        moe_bench::write_metrics(&path, &recorder);
    }
}

/// Prefix-cache routing ablation: a session-heavy MTBench queue (8 turns per
/// conversation) on a unified fleet with per-replica prefix caches, comparing
/// session-blind, sticky and prefix-aware routing.
fn cache_ablation(evaluator: &ClusterEvaluator, count: usize, json_rows: &mut Vec<JsonValue>) {
    const TURNS: u64 = 8;
    const CACHE_TOKENS: u64 = 64 * 1024;
    let mix = Mix {
        label: "balanced",
        workload: WorkloadSpec::mtbench(),
        gen_len: 64,
    };
    let cal = match calibrate(&mix, count) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fig12: cannot calibrate the cache ablation: {e}");
            return;
        }
    };

    println!(
        "\n-- prefix-cache routing @ {count} MTBench requests, {TURNS} turns/session, \
         {CACHE_TOKENS} cache tokens/replica --"
    );
    let widths = [18usize, 10, 10, 8, 8, 10];
    print_header(
        &[
            "router", "tokens/s", "goodput", "slo %", "hit %", "hit toks",
        ],
        &widths,
    );

    // The session-heavy queue: the calibrated Poisson queue with arrivals
    // re-sessioned into `count / TURNS` conversations.
    let base = fleet_spec(
        &mix,
        &cal,
        count,
        &Split {
            label: "unified",
            prefill: 0,
        },
    );
    let queue: Vec<Request> = mix
        .workload
        .synthesize_queue(
            count,
            moe_workload::GenLens::Uniform(mix.gen_len),
            SEED,
            false,
            &ArrivalProcess::Poisson {
                rate_per_sec: load() * cal.per_replica_rate * REPLICAS as f64,
            },
        )
        .into_iter()
        .map(|r| {
            let session = r.id / TURNS;
            r.with_session(session)
        })
        .collect();

    let routers: Vec<(&str, Arc<dyn Router>)> = vec![
        ("least-outstanding", Arc::new(LeastOutstandingTokens)),
        (
            "sticky-session",
            Arc::new(StickySession::new(Arc::new(LeastOutstandingTokens))),
        ),
        ("prefix-aware", Arc::new(PrefixAware::new())),
    ];
    for (label, router) in routers {
        let spec = base
            .clone()
            .with_queue(queue.clone())
            .with_router(router)
            .with_prefix_cache(CACHE_TOKENS);
        match evaluator.run(&spec) {
            Ok(report) => {
                let (hits, lookups, hit_tokens) = report
                    .replicas
                    .iter()
                    .filter_map(|r| r.cache)
                    .fold((0u64, 0u64, 0u64), |acc, c| {
                        (acc.0 + c.hits, acc.1 + c.lookups(), acc.2 + c.hit_tokens)
                    });
                let hit_pct = if lookups == 0 {
                    0.0
                } else {
                    100.0 * hits as f64 / lookups as f64
                };
                let row = [
                    label.to_owned(),
                    fmt3(report.fleet_throughput()),
                    fmt3(report.goodput(&cal.slo)),
                    format!("{:.1}", report.slo_attainment_pct(&cal.slo)),
                    format!("{hit_pct:.1}"),
                    hit_tokens.to_string(),
                ];
                print_csv(&{
                    let mut csv = vec!["prefix-cache".to_owned()];
                    csv.extend(row.iter().cloned());
                    csv
                });
                print_row(row.as_ref(), &widths);
                json_rows.push(obj(vec![
                    ("table", "prefix-cache".into()),
                    ("router", label.into()),
                    ("tokens_per_sec", report.fleet_throughput().into()),
                    ("goodput_tokens_per_sec", report.goodput(&cal.slo).into()),
                    (
                        "slo_attainment_pct",
                        report.slo_attainment_pct(&cal.slo).into(),
                    ),
                    ("cache_hit_pct", hit_pct.into()),
                    ("cache_hit_tokens", hit_tokens.into()),
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
                ],
                &widths,
            ),
        }
    }
}
