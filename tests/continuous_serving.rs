//! Invariant and comparison tests for step-level continuous batching (ISSUE 2):
//! exactly-once accounting under online arrivals, the KV budget at every
//! scheduling event, queue-aware TTFT, and the head-of-line-blocking win of
//! continuous mode over round-to-completion on mixed-`gen_len` queues.

use moe_lightning::{
    ClusterEvaluator, EvalSetting, ServeSpec, ServingMode, ServingReport, SystemEvaluator,
    SystemKind,
};
use moe_workload::{ArrivalProcess, Request, WorkloadSpec};

fn evaluator() -> SystemEvaluator {
    SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
}

/// A mixed-`gen_len` MTBench queue: the workload continuous batching is designed
/// for, where short requests finish early and free KV capacity mid-flight.
fn mixed_gen_queue(count: usize, seed: u64) -> Vec<Request> {
    WorkloadSpec::mtbench().sample_requests_mixed_gen(count, seed)
}

/// MoE-Lightning on MTBench with the policy sized for `gen_len`-token
/// generations, in `mode`; add the queue with `with_queue`.
fn scenario(gen_len: u64, mode: ServingMode) -> ServeSpec {
    ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_gen_len(gen_len)
        .with_mode(mode)
}

fn serve(mode: ServingMode, queue: Vec<Request>) -> ServingReport {
    evaluator()
        .run(&scenario(128, mode).with_queue(queue))
        .unwrap()
}

/// The per-micro-batch KV budget `spec`'s S1 node enforces, read off a
/// one-replica fleet serving a single one-token request.
fn kv_budget(spec: &ServeSpec) -> u64 {
    let probe = spec
        .clone()
        .with_queue(vec![Request::new(0, 1, 1)])
        .into_cluster([EvalSetting::S1.node()]);
    ClusterEvaluator::new(EvalSetting::S1.model())
        .run(&probe)
        .unwrap()
        .replicas[0]
        .kv_budget_per_micro_batch
}

fn assert_exactly_once(report: &ServingReport, count: usize) {
    let mut ids: Vec<u64> = report
        .latencies
        .iter()
        .map(|l| l.request.id)
        .chain(report.aborted.iter().map(|r| r.id))
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..count as u64).collect::<Vec<u64>>(),
        "every request must be served or aborted exactly once"
    );
}

#[test]
fn every_request_served_or_aborted_exactly_once_under_poisson_arrivals() {
    let mut queue = mixed_gen_queue(800, 42);
    ArrivalProcess::Poisson { rate_per_sec: 0.5 }.stamp(&mut queue, 7);
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let report = serve(mode, queue.clone());
        assert_exactly_once(&report, 800);
        assert!(report.aborted.is_empty(), "mtbench requests all fit S1");
    }
}

#[test]
fn every_request_served_or_aborted_exactly_once_under_burst_arrivals() {
    let mut queue = mixed_gen_queue(600, 5);
    ArrivalProcess::Burst {
        size: 150,
        period_secs: 400.0,
    }
    .stamp(&mut queue, 3);
    let report = serve(ServingMode::Continuous, queue);
    assert_exactly_once(&report, 600);
}

#[test]
fn kv_reservation_never_exceeds_budget_at_any_scheduling_event() {
    let eval = evaluator();
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let spec = scenario(128, mode);
        let budget = kv_budget(&spec);
        let report = eval
            .run(&spec.with_queue(mixed_gen_queue(1000, 23)))
            .unwrap();
        assert!(!report.rounds.is_empty());
        for round in &report.rounds {
            for (i, &reserved) in round.kv_reserved.iter().enumerate() {
                assert!(
                    reserved <= budget,
                    "{mode}: event {} micro-batch {i} reserves {reserved} > budget {budget}",
                    round.round
                );
            }
        }
        // KV reservations only change at admission events (growth) and at
        // completions (release), so per-event snapshots cover every step.
    }
}

#[test]
fn kv_budget_holds_at_every_event_under_online_arrivals() {
    // The offline KV invariant, repeated under Poisson arrivals: mid-flight
    // admissions on the engine must respect the budget at every admission
    // wave too, not just when the whole queue is present at time zero.
    let eval = evaluator();
    let mut queue = mixed_gen_queue(600, 29);
    ArrivalProcess::Poisson { rate_per_sec: 2.5 }.stamp(&mut queue, 17);
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let spec = scenario(128, mode);
        let budget = kv_budget(&spec);
        let report = eval.run(&spec.with_queue(queue.clone())).unwrap();
        assert_exactly_once(&report, 600);
        for round in &report.rounds {
            for (i, &reserved) in round.kv_reserved.iter().enumerate() {
                assert!(
                    reserved <= budget,
                    "{mode}: event {} micro-batch {i} reserves {reserved} > budget {budget}",
                    round.round
                );
            }
        }
    }
}

#[test]
fn oversized_requests_abort_exactly_once_under_online_arrivals() {
    // Permanently oversized requests are classified up front even when they
    // would only have arrived mid-run; the feasible remainder is unaffected.
    let eval = evaluator();
    let mut queue = mixed_gen_queue(200, 41);
    let next_id = queue.len() as u64;
    queue.push(Request::new(next_id, 1_000_000, 64));
    queue.push(Request::new(next_id + 1, 1_000_000, 64));
    ArrivalProcess::Poisson { rate_per_sec: 3.0 }.stamp(&mut queue, 19);
    let report = eval
        .run(&scenario(64, ServingMode::Continuous).with_queue(queue))
        .unwrap();
    assert_exactly_once(&report, 202);
    let aborted_ids: Vec<u64> = report.aborted.iter().map(|r| r.id).collect();
    assert_eq!(aborted_ids, vec![next_id, next_id + 1]);
}

#[test]
fn continuous_batching_beats_round_to_completion_on_mixed_gen_lens() {
    // The acceptance comparison: on a variable-gen_len MTBench queue, releasing
    // slots at completion and backfilling mid-flight must strictly beat holding
    // every request for the round's longest gen_len.
    let queue = mixed_gen_queue(1000, 11);
    let rtc = serve(ServingMode::RoundToCompletion, queue.clone());
    let cont = serve(ServingMode::Continuous, queue);
    assert!(rtc.aborted.is_empty() && cont.aborted.is_empty());
    assert_eq!(rtc.served_requests(), cont.served_requests());

    let rtc_completion = rtc.completion();
    let cont_completion = cont.completion();
    assert!(
        cont_completion.mean < rtc_completion.mean,
        "continuous mean completion ({}) must strictly beat round-to-completion ({})",
        cont_completion.mean,
        rtc_completion.mean
    );
    assert!(
        cont.ttft().p99 <= rtc.ttft().p99,
        "continuous p99 TTFT ({}) must not exceed round-to-completion ({})",
        cont.ttft().p99,
        rtc.ttft().p99
    );
    assert!(
        cont.generation_throughput() > rtc.generation_throughput(),
        "freed slots must translate into throughput: {} vs {} tok/s",
        cont.generation_throughput(),
        rtc.generation_throughput()
    );
}

#[test]
fn queue_aware_ttft_is_measured_from_arrival_not_time_zero() {
    // Arrivals spaced far apart (1000 s ≫ the time to serve one request): the
    // system drains each request before the next arrives, so every TTFT stays
    // near the single-request service time instead of growing with the arrival
    // offset (which reaches 49,000 s for the last request).
    let mut queue = WorkloadSpec::mtbench().sample_requests(50, 32, 9);
    ArrivalProcess::Burst {
        size: 1,
        period_secs: 1000.0,
    }
    .stamp(&mut queue, 0);
    let last_arrival = queue.last().unwrap().arrival;
    for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
        let report = serve(mode, queue.clone());
        assert_eq!(report.served_requests(), 50);
        let ttft = report.ttft();
        assert!(
            ttft.max < last_arrival,
            "{mode}: TTFT must not accumulate arrival offsets: max {} vs last arrival {}",
            ttft.max,
            last_arrival
        );
        assert!(
            ttft.max.as_secs() < 10.0 * ttft.p50.as_secs() + 1e-9,
            "{mode}: an unloaded system keeps TTFT flat across arrivals"
        );
    }
}

#[test]
fn continuous_mode_total_concurrency_and_waves_behave() {
    // Under load (all requests at t=0) continuous mode fills up to the policy
    // batch, then backfills in further waves as requests complete. A small
    // explicit policy (N=60, μ=20) keeps multiple waves guaranteed.
    let eval = evaluator();
    let spec = scenario(256, ServingMode::Continuous)
        .with_policy(moe_lightning::Policy::offload_default(60, 20))
        .with_queue(mixed_gen_queue(300, 31));
    let report = eval.run(&spec).unwrap();
    assert_exactly_once(&report, 300);
    assert!(
        report.rounds.len() > 2,
        "300 requests over a 60-batch must need several admission waves, got {}",
        report.rounds.len()
    );
    for wave in &report.rounds {
        assert!(wave.occupancy.iter().sum::<u64>() <= 60);
        assert!(wave.occupancy.iter().all(|&o| o <= 20));
    }
    // The first wave fills the batch to its binding constraint — for this
    // long-tailed queue the KV budget binds just before the 60 request slots —
    // and at least one later wave is a genuine mid-flight backfill (admitting
    // fewer requests than are in flight after the admission).
    let first: u64 = report.rounds[0].occupancy.iter().sum();
    assert!(
        (50..=60).contains(&first),
        "first wave must fill most of the batch, got {first}"
    );
    assert!(report.rounds.iter().skip(1).any(|w| {
        let in_flight: u64 = w.occupancy.iter().sum();
        in_flight > 0 && w.report.requests < in_flight
    }));
}
