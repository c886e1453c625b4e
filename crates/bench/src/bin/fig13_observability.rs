//! Fig. 13 (observability): the telemetry subsystem watching the pinned
//! fleet-dynamics scenario ride through a mid-run failure.
//!
//! The run is the fig09 headline cell — the pinned seed-11 MTBench fleet
//! (4× T4, setting S1, capacity-bound policy) under Poisson load at its
//! measured aggregate service rate, an SLO-attainment autoscaler allowed to
//! grow the fleet back after replica 1 is killed — with a recording
//! [`TelemetrySink`](moe_lightning::TelemetrySink) attached and the queue
//! re-classed round-robin into interactive/standard/batch SLO tiers. The
//! failure is pushed past the first decode tail (a full `GEN_LEN` decode at
//! the calibrated unloaded rate) so the completion stream is in steady state
//! when the replica dies and the dip has a baseline to dip *from*.
//! Everything the figure shows is reconstructed *from telemetry* (events +
//! sampled gauges), not from the final report:
//!
//! * a per-window timeline — completions, goodput, queue depth, serving
//!   census and SLO attainment by class — in which the failure dip and the
//!   scaler's recovery are visible;
//! * the derived counter summary, reconciled against the `ClusterReport`;
//! * the simulator's self-profiling roll-up (wall-clock time in event
//!   selection, routing, replica stepping, scheduler planning).
//!
//! The run **asserts** the dip and the recovery at full queue length: some
//! post-failure window's SLO attainment drops below 75% of the pre-failure
//! baseline (and goodput below 80% of its mean), a later window recovers
//! attainment to ≥ 95% of the baseline, the post-failure queue peak
//! exceeds the pre-failure peak, and the autoscaler demonstrably acted.
//!
//! Run with `cargo run --release -p moe-bench --bin fig13_observability`.
//! Set `FIG13_QUEUE_LEN` (default 600) to shrink the queue for smoke runs
//! (the dip/recovery assertions are calibrated against the pinned scenario
//! and arm only at the full 600-request queue — shorter runs end before the
//! drain-tail attainment trough has runway to recover); pass
//! `--json <path>` (or set `BENCH_JSON`) for machine-readable output and
//! `--metrics <path>` (or set `BENCH_METRICS`) for the raw telemetry export
//! (JSON: counters, profile, time-series with per-replica rows, events).

use moe_bench::fleet::{FleetScenario, GEN_LEN, REPLICAS, SEED};
use moe_bench::{
    env_or, fmt3, json_output_path, metrics_output_path, obj, print_csv, print_header, print_row,
    JsonValue,
};
use moe_lightning::{ClusterEvaluator, EvalSetting, Recorder, Seconds, TelemetryEvent};
use moe_workload::{ArrivalProcess, GenLens, Request, SloClass, WorkloadSpec};
use std::sync::Arc;

/// Windows the timeline splits the measured makespan into.
const WINDOWS: usize = 32;

/// One timeline window, reconstructed from the telemetry stream.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    completions: u64,
    tokens: u64,
    good_tokens: u64,
    /// Completions / SLO-attaining completions per class, `SloClass::ALL`
    /// order.
    class_done: [u64; 3],
    class_good: [u64; 3],
    /// Peak fleet-wide queue depth among the window's gauge samples.
    queued_peak: u64,
    /// Serving-replica census at the window's last gauge sample (carried
    /// forward from the previous window when no sample landed here).
    serving: usize,
    provisioning: usize,
    /// Gauge samples that landed in this window.
    samples: u32,
}

fn main() {
    let count: usize = env_or("FIG13_QUEUE_LEN", 600);
    let mut scenario = match FleetScenario::pinned(count) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fig13: cannot calibrate the pinned scenario: {e}");
            std::process::exit(1);
        }
    };
    // A GEN_LEN decode at the calibrated unloaded per-token rate (the SLO
    // bound is 3x that rate) is the earliest any request can complete; the
    // failure lands past that tail — but still inside the arrival span — so
    // completions are flowing on both sides of it.
    let arrival_span = count as f64 / (REPLICAS as f64 * scenario.per_replica_rate);
    let decode_tail = GEN_LEN as f64 * scenario.slo.per_token.as_secs() / 3.0;
    scenario.fail_time =
        Seconds::from_secs((decode_tail + 0.4 * arrival_span).min(0.8 * arrival_span));
    // Sample the gauges well below the timeline's window width (the window
    // is fixed only after the run, from the measured makespan).
    let expected_end = arrival_span + decode_tail;
    let recorder =
        Arc::new(Recorder::new().with_interval((expected_end / (4 * WINDOWS) as f64).max(1e-3)));

    // The pinned queue, re-classed round-robin so per-class attainment has
    // all three tiers to report on.
    let queue: Vec<Request> = WorkloadSpec::mtbench()
        .synthesize_queue(
            count,
            GenLens::Uniform(GEN_LEN),
            SEED,
            false,
            &ArrivalProcess::Poisson {
                rate_per_sec: REPLICAS as f64 * scenario.per_replica_rate,
            },
        )
        .into_iter()
        .map(|r| {
            let class = SloClass::ALL[(r.id % 3) as usize];
            r.with_slo_class(class)
        })
        .collect();
    let spec = scenario
        .autoscaled_failure_spec()
        .with_queue(queue)
        .with_telemetry(Arc::clone(&recorder) as _);

    println!(
        "== Observability @ S1: {REPLICAS}x T4, {count} requests, failure at \
         {:.0}s, SLO-attainment autoscaler, seed {SEED} ==",
        scenario.fail_time.as_secs()
    );
    println!(
        "(telemetry: {WINDOWS} windows over the measured makespan; SLO ttft <= {:.1}s, \
         per-token <= {:.2}s; classes assigned round-robin)",
        scenario.slo.ttft.as_secs(),
        scenario.slo.per_token.as_secs()
    );

    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    let report = match evaluator.run(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fig13: run failed: {e}");
            std::process::exit(1);
        }
    };

    // The counter summary must reconcile exactly with the report — the
    // conservation suite pins this across the whole grid; here it guards
    // the one run the figure is built from.
    let counters = recorder.counters();
    assert_eq!(counters.completed, report.served_requests() as u64);
    assert_eq!(counters.rejected, report.rejected_requests() as u64);
    assert_eq!(counters.aborted, report.aborted_requests() as u64);
    assert_eq!(counters.failures, report.availability.failures.len() as u64);

    // Reconstruct the per-window timeline from the telemetry stream. The
    // window width comes from the measured makespan, so the gauge samples
    // (on their own finer grid) never straddle a bucket boundary exactly.
    let events = recorder.events();
    let series = recorder.series();
    let end = events
        .iter()
        .map(|e| e.at())
        .chain(series.iter().map(|s| s.at))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let window = end / WINDOWS as f64;
    let buckets = WINDOWS;
    let mut windows = vec![Window::default(); buckets];
    let at_bucket = |at: f64| ((at / window).floor() as usize).min(buckets - 1);
    let mut last_arrival = 0.0f64;
    for event in &events {
        if let TelemetryEvent::Arrival { at, .. } = *event {
            last_arrival = last_arrival.max(at);
        }
        if let TelemetryEvent::Completed {
            gen_len,
            class,
            ttft_s,
            per_token_s,
            completion_s,
            ..
        } = *event
        {
            let w = &mut windows[at_bucket(completion_s)];
            let ok = ttft_s <= scenario.slo.ttft.as_secs()
                && per_token_s <= scenario.slo.per_token.as_secs();
            let ci = SloClass::ALL
                .iter()
                .position(|c| c.label() == class)
                .unwrap_or(1);
            w.completions += 1;
            w.tokens += gen_len;
            w.class_done[ci] += 1;
            if ok {
                w.good_tokens += gen_len;
                w.class_good[ci] += 1;
            }
        }
    }
    for sample in &series {
        let w = &mut windows[at_bucket(sample.at)];
        w.queued_peak = w.queued_peak.max(sample.queued);
        w.serving = sample.serving;
        w.provisioning = sample.provisioning;
        w.samples += 1;
    }
    for i in 1..buckets {
        if windows[i].samples == 0 {
            windows[i].serving = windows[i - 1].serving;
            windows[i].provisioning = windows[i - 1].provisioning;
        }
    }

    let fail_bucket = at_bucket(scenario.fail_time.as_secs());
    let mut json_rows: Vec<JsonValue> = Vec::new();
    let widths = [5usize, 8, 7, 6, 6, 6, 10, 10, 8, 8, 8];
    println!();
    print_header(
        &[
            "win", "t_end", "serving", "prov", "queue", "done", "tokens/s", "goodput", "int %",
            "std %", "bat %",
        ],
        &widths,
    );
    let pct = |good: u64, done: u64| {
        if done == 0 {
            "-".to_owned()
        } else {
            format!("{:.0}", 100.0 * good as f64 / done as f64)
        }
    };
    for (i, w) in windows.iter().enumerate() {
        let t_end = (i + 1) as f64 * window;
        let row = [
            format!("{i}{}", if i == fail_bucket { "*" } else { "" }),
            fmt3(t_end),
            w.serving.to_string(),
            w.provisioning.to_string(),
            w.queued_peak.to_string(),
            w.completions.to_string(),
            fmt3(w.tokens as f64 / window),
            fmt3(w.good_tokens as f64 / window),
            pct(w.class_good[0], w.class_done[0]),
            pct(w.class_good[1], w.class_done[1]),
            pct(w.class_good[2], w.class_done[2]),
        ];
        print_csv(&{
            let mut csv = vec!["timeline".to_owned()];
            csv.extend(row.iter().cloned());
            csv
        });
        print_row(row.as_ref(), &widths);
        json_rows.push(obj(vec![
            ("table", "timeline".into()),
            ("window", i.into()),
            ("t_end_s", t_end.into()),
            ("failure_window", JsonValue::Bool(i == fail_bucket)),
            ("serving", w.serving.into()),
            ("provisioning", w.provisioning.into()),
            ("queued_peak", w.queued_peak.into()),
            ("completions", w.completions.into()),
            ("tokens_per_sec", (w.tokens as f64 / window).into()),
            (
                "goodput_tokens_per_sec",
                (w.good_tokens as f64 / window).into(),
            ),
            (
                "interactive_attainment_pct",
                class_pct(w.class_good[0], w.class_done[0]),
            ),
            (
                "standard_attainment_pct",
                class_pct(w.class_good[1], w.class_done[1]),
            ),
            (
                "batch_attainment_pct",
                class_pct(w.class_good[2], w.class_done[2]),
            ),
        ]));
    }
    println!("(* failure window: replica 1 dies mid-window)");

    // The dip and the recovery, measured from the timeline itself. Goodput
    // rate is quantized by completion clustering, so the dip is asserted on
    // per-window SLO attainment (good tokens over tokens completed): the
    // rerouted and queue-delayed cohort blows its SLOs wherever it lands,
    // while the pre-failure baseline attains ~100%. The goodput dip search
    // stops at the last arrival so the natural end-of-queue drain doesn't
    // pose as the failure dip.
    let goodput = |w: &Window| w.good_tokens as f64 / window;
    let attainment = |w: &Window| 100.0 * w.good_tokens as f64 / w.tokens as f64;
    let pre: Vec<&Window> = windows[..fail_bucket]
        .iter()
        .filter(|w| w.completions > 0)
        .collect();
    let baseline = pre.iter().map(|w| goodput(w)).sum::<f64>() / pre.len().max(1) as f64;
    let baseline_att = {
        let (good, total) = pre
            .iter()
            .fold((0u64, 0u64), |(g, t), w| (g + w.good_tokens, t + w.tokens));
        if total > 0 {
            100.0 * good as f64 / total as f64
        } else {
            0.0
        }
    };
    let dip_end = at_bucket(last_arrival).max(fail_bucket) + 1;
    let (dip_off, dip) = windows[fail_bucket..dip_end]
        .iter()
        .enumerate()
        .map(|(i, w)| (i, goodput(w)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    // Unlike the goodput dip, the attainment dip is searched through the
    // drain tail as well: requests whose TTFT the failure blew complete
    // late, largely after arrivals stop, so the attainment trough
    // legitimately lands past the last arrival.
    let (att_dip_off, att_dip) = windows[fail_bucket..]
        .iter()
        .enumerate()
        .filter(|(_, w)| w.completions > 0)
        .map(|(i, w)| (i, attainment(w)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    let recovered = windows[fail_bucket + att_dip_off..]
        .iter()
        .position(|w| w.completions > 0 && attainment(w) >= 0.95 * baseline_att)
        .map(|i| fail_bucket + att_dip_off + i);
    let post = &windows[fail_bucket..];
    let pre_queue_peak = windows[..fail_bucket]
        .iter()
        .map(|w| w.queued_peak)
        .max()
        .unwrap_or(0);
    let post_queue_peak = post.iter().map(|w| w.queued_peak).max().unwrap_or(0);

    println!(
        "\ngoodput dip: window {} at {:.1} tok/s ({:.0}% of the {:.1} tok/s pre-failure \
         baseline); attainment dip: window {} at {:.0}% (baseline {:.0}%); \
         queue peak {} -> {}; recovery: {}",
        fail_bucket + dip_off,
        dip,
        if baseline > 0.0 {
            100.0 * dip / baseline
        } else {
            0.0
        },
        baseline,
        fail_bucket + att_dip_off,
        att_dip,
        baseline_att,
        pre_queue_peak,
        post_queue_peak,
        recovered.map_or("none".to_owned(), |w| format!("window {w}")),
    );
    println!(
        "scaler: {} up / {} down decisions, {} joins ({} cancelled), {} reroutes",
        counters.scale_ups,
        counters.scale_downs,
        counters.joins,
        report.availability.cancelled_joins,
        counters.rerouted,
    );

    // Self-profiling roll-up: where the simulator itself spent its wall
    // clock, straight from the telemetry spans.
    println!("\n-- simulator self-profile --");
    let prof_widths = [20usize, 12, 12];
    print_header(&["section", "calls", "wall ms"], &prof_widths);
    for (section, span) in recorder.profile() {
        let row = [
            section.label().to_owned(),
            span.calls.to_string(),
            format!("{:.2}", span.nanos as f64 / 1e6),
        ];
        print_csv(&{
            let mut csv = vec!["profile".to_owned()];
            csv.extend(row.iter().cloned());
            csv
        });
        print_row(row.as_ref(), &prof_widths);
        json_rows.push(obj(vec![
            ("table", "profile".into()),
            ("section", section.label().into()),
            ("calls", span.calls.into()),
            ("wall_ms", (span.nanos as f64 / 1e6).into()),
        ]));
    }

    json_rows.push(obj(vec![
        ("table", "summary".into()),
        ("requests", count.into()),
        ("window_s", window.into()),
        ("failure_window", fail_bucket.into()),
        ("baseline_goodput_tokens_per_sec", baseline.into()),
        ("dip_goodput_tokens_per_sec", dip.into()),
        ("dip_window", (fail_bucket + dip_off).into()),
        ("baseline_attainment_pct", baseline_att.into()),
        ("dip_attainment_pct", att_dip.into()),
        ("attainment_dip_window", (fail_bucket + att_dip_off).into()),
        (
            "recovery_window",
            recovered.map_or(JsonValue::Null, |w| w.into()),
        ),
        ("pre_queue_peak", pre_queue_peak.into()),
        ("post_queue_peak", post_queue_peak.into()),
        ("scale_ups", counters.scale_ups.into()),
        ("joins", counters.joins.into()),
        ("rerouted", counters.rerouted.into()),
        ("completed", counters.completed.into()),
        ("events_dropped", recorder.events_dropped().into()),
        ("samples_dropped", recorder.samples_dropped().into()),
    ]));

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig13", json_rows);
    }
    if let Some(path) = metrics_output_path() {
        moe_bench::write_metrics(&path, &recorder);
    }

    // The acceptance bar, armed only at the pinned full queue length — the
    // dip depth and recovery runway are geometry of that scenario (smoke and
    // partial queues end before the drain-tail trough can recover, and are
    // short for a stable baseline).
    if count >= 600 {
        assert!(
            baseline > 0.0,
            "pre-failure windows must complete work (baseline goodput is 0)"
        );
        assert!(
            dip < 0.8 * baseline,
            "the failure must dent goodput: min post-failure goodput {dip:.1} \
             vs baseline {baseline:.1} tok/s"
        );
        assert!(
            att_dip < 0.75 * baseline_att,
            "the failure dip must be visible: min post-failure attainment \
             {att_dip:.0}% vs baseline {baseline_att:.0}%"
        );
        let recovery = recovered.expect("attainment must recover to >= 95% of the baseline");
        assert!(
            post_queue_peak > pre_queue_peak,
            "the failure must back the queue up ({pre_queue_peak} -> {post_queue_peak})"
        );
        assert!(
            counters.scale_ups >= 1 && counters.joins >= 1,
            "the autoscaler must act (ups {}, joins {})",
            counters.scale_ups,
            counters.joins
        );
        println!(
            "\nfig13: PASS (attainment dip to {att_dip:.0}% in window {}, goodput dip to \
             {:.0}% of baseline, recovered in window {recovery})",
            fail_bucket + att_dip_off,
            100.0 * dip / baseline,
        );
    } else {
        println!("\n(dip/recovery assertions skipped: queue < 600 requests)");
    }
}

fn class_pct(good: u64, done: u64) -> JsonValue {
    if done == 0 {
        JsonValue::Null
    } else {
        (100.0 * good as f64 / done as f64).into()
    }
}
