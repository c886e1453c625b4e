//! Self-check suite: the serving engine and the fleet loop pinned against
//! committed reports.
//!
//! This absorbs the retired `tests/engine_parity.rs` and
//! `tests/loop_equivalence.rs`: the legacy pre-refactor serving loops
//! (`moe_lightning::reference`) are gone, so instead of a differential run
//! against preserved duplicates, the suite pins
//!
//! * the single-node engine against the 24 fixture rows captured from the
//!   pre-refactor loops (commit 98a040b) — the engine must keep reproducing
//!   them bit-for-bit forever;
//! * the indexed fleet loop against the linear scan loop
//!   (`ClusterEvaluator::with_scan_loop`) across routers, serving modes,
//!   churn and autoscaling — the two dispatch paths must stay report-
//!   identical;
//! * the pinned churn scenarios (per built-in router, a churned
//!   prefill/decode split, a session-sticky SLO fleet) against committed
//!   digests in `tests/fixtures/self_check_digests.txt`. Regenerate after an
//!   *intentional* semantics change with
//!   `SELF_CHECK_REGEN=1 cargo test --test self_check` and commit the diff.

use moe_lightning::{
    builtin_routers, ClusterEvaluator, ClusterReport, ClusterSpec, EvalSetting, FleetTimeline,
    InterconnectSpec, LeastOutstandingTokens, NodeSpec, Policy, PrefixAware, QueueDepthScaler,
    Recorder, ReplicaId, ReplicaRole, ReplicaSpec, Router, ScaleBounds, Seconds, ServeSpec,
    ServingMode, SloAdmission, SloAttainmentScaler, SloSpec, StickySession, SystemEvaluator,
    SystemKind,
};
use moe_workload::{
    Algorithm2, ArrivalProcess, FcfsPadded, GenLens, Request, Scheduler, ShortestJobFirst,
    TokenBudget, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::Arc;

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn schedulers() -> Vec<Arc<dyn Scheduler>> {
    vec![
        Arc::new(Algorithm2),
        Arc::new(ShortestJobFirst),
        Arc::new(TokenBudget),
        Arc::new(FcfsPadded),
    ]
}

fn arrivals() -> [(&'static str, ArrivalProcess); 3] {
    [
        ("imm", ArrivalProcess::Immediate),
        ("poisson", ArrivalProcess::Poisson { rate_per_sec: 2.0 }),
        (
            "burst",
            ArrivalProcess::Burst {
                size: 40,
                period_secs: 120.0,
            },
        ),
    ]
}

fn evaluator() -> SystemEvaluator {
    SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
}

fn scan() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model()).with_scan_loop()
}

fn indexed() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

fn secs(s: f64) -> Seconds {
    Seconds::from_secs(s)
}

fn close(got: f64, want: f64, what: &str, label: &str) {
    assert!(
        (got - want).abs() <= 1e-6 * want.abs().max(1.0),
        "{label}: {what} {got:.9} != pinned {want:.9}"
    );
}

/// Pinned fixtures captured from the *pre-refactor* single-node serving
/// loops (commit 98a040b) on the seed-11 scenario grid: the engine-backed
/// `SystemEvaluator::run` must keep reproducing them even with
/// `crate::reference` retired.
/// Counts are exact; throughput and TTFT p50 were recorded to 9 decimal
/// digits, so they are compared at 1e-6 relative tolerance.
#[test]
fn single_node_engine_reproduces_pinned_pre_refactor_reports() {
    // (scheduler, mode, arrival, served, aborted, rounds, generated, tput, ttft_p50)
    #[allow(clippy::type_complexity)]
    const FIXTURES: [(&str, &str, &str, usize, usize, usize, u64, f64, f64); 24] = [
        (
            "algo2",
            "rtc",
            "imm",
            400,
            0,
            10,
            46368,
            2.339405782,
            9904.846394827,
        ),
        (
            "algo2",
            "rtc",
            "poisson",
            400,
            0,
            11,
            46368,
            2.286981924,
            10306.386802759,
        ),
        (
            "algo2",
            "rtc",
            "burst",
            400,
            0,
            10,
            46368,
            2.339356317,
            9424.107542113,
        ),
        (
            "algo2",
            "cont",
            "imm",
            400,
            0,
            37,
            46368,
            4.277323375,
            4945.140111894,
        ),
        (
            "algo2",
            "cont",
            "poisson",
            400,
            0,
            127,
            46368,
            4.268927950,
            3307.150610239,
        ),
        (
            "algo2",
            "cont",
            "burst",
            400,
            0,
            71,
            46368,
            4.274560581,
            3494.863907386,
        ),
        (
            "sjf",
            "rtc",
            "imm",
            400,
            0,
            11,
            46368,
            3.480643215,
            1529.037230043,
        ),
        (
            "sjf",
            "rtc",
            "poisson",
            400,
            0,
            12,
            46368,
            3.361648652,
            1847.869721253,
        ),
        (
            "sjf",
            "rtc",
            "burst",
            400,
            0,
            11,
            46368,
            3.082009480,
            2538.444447109,
        ),
        (
            "sjf",
            "cont",
            "imm",
            400,
            0,
            33,
            46368,
            3.775505888,
            1519.646674144,
        ),
        (
            "sjf",
            "cont",
            "poisson",
            400,
            0,
            77,
            46368,
            4.010052475,
            1583.585534068,
        ),
        (
            "sjf",
            "cont",
            "burst",
            400,
            0,
            67,
            46368,
            3.896866530,
            1044.526596419,
        ),
        (
            "token-budget",
            "rtc",
            "imm",
            400,
            0,
            9,
            46368,
            2.594627255,
            7958.640723126,
        ),
        (
            "token-budget",
            "rtc",
            "poisson",
            400,
            0,
            10,
            46368,
            2.527797536,
            8333.453129520,
        ),
        (
            "token-budget",
            "rtc",
            "burst",
            400,
            0,
            9,
            46368,
            2.594752519,
            7476.683139035,
        ),
        (
            "token-budget",
            "cont",
            "imm",
            400,
            0,
            38,
            46368,
            4.185307033,
            3726.883665232,
        ),
        (
            "token-budget",
            "cont",
            "poisson",
            400,
            0,
            113,
            46368,
            4.267310680,
            3148.184017178,
        ),
        (
            "token-budget",
            "cont",
            "burst",
            400,
            0,
            91,
            46368,
            4.183759779,
            2999.992345742,
        ),
        (
            "fcfs-pad",
            "rtc",
            "imm",
            400,
            0,
            24,
            46368,
            1.009920606,
            22474.102826029,
        ),
        (
            "fcfs-pad",
            "rtc",
            "poisson",
            400,
            0,
            25,
            46368,
            1.021448840,
            22857.422985776,
        ),
        (
            "fcfs-pad",
            "rtc",
            "burst",
            400,
            0,
            24,
            46368,
            1.032203700,
            21885.706217558,
        ),
        (
            "fcfs-pad",
            "cont",
            "imm",
            400,
            0,
            137,
            46368,
            3.697451884,
            5196.165087537,
        ),
        (
            "fcfs-pad",
            "cont",
            "poisson",
            400,
            0,
            191,
            46368,
            3.766730716,
            4853.864195301,
        ),
        (
            "fcfs-pad",
            "cont",
            "burst",
            400,
            0,
            143,
            46368,
            3.698560017,
            4470.686759378,
        ),
    ];

    let eval = evaluator();
    for scheduler in schedulers() {
        for mode in MODES {
            for (aname, arrival) in arrivals() {
                let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
                    .with_count(400)
                    .with_mixed_gen_lens()
                    .with_seed(11)
                    .with_mode(mode)
                    .with_arrivals(arrival)
                    .with_scheduler(Arc::clone(&scheduler))
                    .with_policy(Policy::offload_default(48, 12));
                let report = eval.run(&spec).unwrap();
                let label = format!("{} [{}] {aname}", scheduler.name(), mode.label());
                let row = FIXTURES
                    .iter()
                    .find(|r| r.0 == scheduler.name() && r.1 == mode.label() && r.2 == aname)
                    .unwrap_or_else(|| panic!("{label}: no pinned fixture row"));
                assert_eq!(report.served_requests(), row.3, "{label}: served diverged");
                assert_eq!(report.aborted.len(), row.4, "{label}: aborted diverged");
                assert_eq!(report.rounds.len(), row.5, "{label}: rounds diverged");
                assert_eq!(
                    report.totals.generated_tokens, row.6,
                    "{label}: generated tokens diverged"
                );
                close(report.generation_throughput(), row.7, "throughput", &label);
                close(report.ttft().p50.as_secs(), row.8, "TTFT p50", &label);
            }
        }
    }
}

/// Oversized requests (prompt + generation beyond the per-micro-batch KV
/// budget) are classified as aborted up front, in queue order, in both modes
/// — and the run is deterministic across invocations.
#[test]
fn oversized_requests_abort_up_front_deterministically() {
    let eval = evaluator();
    for mode in MODES {
        let mut queue: Vec<Request> = (0..30).map(|i| Request::new(i, 100, 64)).collect();
        for (slot, id) in [(3usize, 30u64), (17, 31), (29, 32)] {
            queue.insert(slot, Request::new(id, 60_000, 64));
        }
        let spec = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_mixed_gen_lens()
            .with_policy(Policy::offload_default(48, 12))
            .with_mode(mode)
            .with_queue(queue);
        let report = eval.run(&spec).unwrap();
        assert_eq!(report.aborted.len(), 3, "[{mode}] oversized must abort");
        assert_eq!(report.served_requests(), 30);
        assert_eq!(
            report.aborted.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![30, 31, 32],
            "[{mode}] aborts keep queue order"
        );
        let again = eval.run(&spec).unwrap();
        assert_eq!(report, again, "[{mode}] run() must be deterministic");
    }
}

/// A mid-run failure of `failed`, a delayed unified join and a drain of
/// `drained` — every control transition the loop handles, in one timeline.
fn churn_timeline(failed: usize, drained: usize) -> FleetTimeline {
    FleetTimeline::new()
        .fail_at(secs(50.0), ReplicaId(failed))
        .join_at(secs(60.0), ReplicaSpec::new(NodeSpec::t4_single()))
        .drain_at(secs(90.0), ReplicaId(drained))
        .with_provisioning_delay(secs(20.0))
}

/// The pinned seed-11 churn scenario: a 4-replica T4 fleet under Poisson
/// load with the [`churn_timeline`].
fn churn_spec(mode: ServingMode, router: Arc<dyn Router>) -> ClusterSpec {
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_count(400)
    .with_mixed_gen_lens()
    .with_seed(11)
    .with_mode(mode)
    .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
    .with_router(router)
    .with_timeline(churn_timeline(1, 0))
}

/// The seed-11 Poisson queue re-sessioned into 8-turn conversations, so
/// session-affine routers and prefix caches have history to reuse.
fn session_queue() -> Vec<Request> {
    WorkloadSpec::mtbench()
        .synthesize_queue(
            400,
            GenLens::MixedDefaults,
            11,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .into_iter()
        .map(|r| {
            let session = r.id / 8;
            r.with_session(session)
        })
        .collect()
}

/// The pinned disaggregated scenario: 2 prefill + 2 decode T4 replicas on a
/// slow link (so KV is always on the wire), churned by the
/// [`churn_timeline`] — decode replica 3 fails mid-migration and prefill
/// replica 0 drains.
fn split_churn_spec(mode: ServingMode, router: Arc<dyn Router>) -> ClusterSpec {
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_queue(session_queue())
        .with_seed(11)
        .with_mode(mode)
        .with_router(router)
        .with_interconnect(InterconnectSpec::new(0.05, secs(15.0)))
        .with_timeline(churn_timeline(3, 0));
    for role in [
        ReplicaRole::Prefill,
        ReplicaRole::Prefill,
        ReplicaRole::Decode,
        ReplicaRole::Decode,
    ] {
        spec = spec.with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_role(role));
    }
    spec
}

/// The pinned session-affine control-plane scenario: the churned unified
/// fleet of [`churn_spec`] on the session queue, routed by
/// `StickySession(LeastOutstandingTokens)` (which answers through the
/// router index's fast path), with SLO admission and an SLO-attainment
/// autoscaler.
fn sticky_slo_spec(mode: ServingMode) -> ClusterSpec {
    let ttft = match mode {
        ServingMode::RoundToCompletion => 2400.0,
        ServingMode::Continuous => 30.0,
    };
    let slo = SloSpec {
        ttft: secs(ttft),
        per_token: secs(5.0),
    };
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_queue(session_queue())
    .with_seed(11)
    .with_mode(mode)
    .with_router(Arc::new(StickySession::new(Arc::new(
        LeastOutstandingTokens,
    ))))
    .with_slo(slo)
    .with_admission(Arc::new(SloAdmission::new(slo)))
    .with_autoscaler(
        Arc::new(SloAttainmentScaler::new(slo, 95.0)),
        ScaleBounds::new(2, 6, secs(15.0)),
    )
    .with_timeline(churn_timeline(1, 0))
}

/// Every digest-pinned scenario, labelled as in the fixture file. Routers
/// keep their per-run state (session homes included) in the run, so one
/// spec can be run any number of times.
fn pinned_scenarios() -> Vec<(String, ClusterSpec)> {
    let mut scenarios = Vec::new();
    for mode in MODES {
        for router in builtin_routers() {
            let label = format!("{} [{}]", router.name(), mode.label());
            scenarios.push((label, churn_spec(mode, router)));
        }
    }
    for mode in MODES {
        let m = mode.label();
        scenarios.push((
            format!("split-2p2d least-tokens [{m}]"),
            split_churn_spec(mode, Arc::new(LeastOutstandingTokens)),
        ));
        scenarios.push((
            format!("split-2p2d prefix-aware+cache [{m}]"),
            split_churn_spec(mode, Arc::new(PrefixAware::new())).with_prefix_cache(64 * 1024),
        ));
        scenarios.push((format!("sticky-slo [{m}]"), sticky_slo_spec(mode)));
    }
    scenarios
}

fn assert_reports_identical(a: &ClusterReport, b: &ClusterReport, label: &str) {
    // One field-by-field pass first so a mismatch names the diverging part
    // instead of dumping two full reports.
    assert_eq!(
        a.availability, b.availability,
        "{label}: availability accounting diverged"
    );
    assert_eq!(a.totals, b.totals, "{label}: fleet totals diverged");
    assert_eq!(
        a.replicas.len(),
        b.replicas.len(),
        "{label}: replica count diverged"
    );
    for (ra, rb) in a.replicas.iter().zip(&b.replicas) {
        assert_eq!(ra, rb, "{label}: replica {:?} diverged", ra.id);
    }
    assert_eq!(a, b, "{label}: reports diverged");
}

/// One digest line per report, pinned in the committed fixture file. Counts
/// are exact; the two floats are compared at 1e-6 relative tolerance.
fn digest(label: &str, report: &ClusterReport) -> String {
    format!(
        "{label}|served={}|aborted={}|rejected={}|rerouted={}|failures={}|drains={}|joins={}|generated={}|throughput={:.9}|ttft_p50={:.9}",
        report.served_requests(),
        report.aborted_requests(),
        report.rejected_requests(),
        report.availability.rerouted.len(),
        report.availability.failures.len(),
        report.availability.drains.len(),
        report.availability.joins.len(),
        report.totals.generated_tokens,
        report.fleet_throughput(),
        report.ttft().p50.as_secs(),
    )
}

fn assert_digest_matches(got: &str, want: &str) {
    let (gl, gf): (Vec<&str>, Vec<&str>) = got.split('|').partition(|f| !f.starts_with("t"));
    let (wl, wf): (Vec<&str>, Vec<&str>) = want.split('|').partition(|f| !f.starts_with("t"));
    assert_eq!(gl, wl, "digest counts diverged from the committed fixture");
    for (g, w) in gf.iter().zip(&wf) {
        let gv: f64 = g.split('=').nth(1).unwrap().parse().unwrap();
        let wv: f64 = w.split('=').nth(1).unwrap().parse().unwrap();
        close(gv, wv, g.split('=').next().unwrap(), got);
    }
}

/// Tentpole self-check: on every pinned scenario — the churn scenario for
/// every built-in router, the churned 2p+2d split and the sticky SLO fleet,
/// each in both serving modes — the indexed loop (with a recording sink
/// attached) equals the scan loop bit-for-bit, and both match the committed
/// digest fixture. Because both loops share one dispatch path, the digests
/// are what catches a slip they share.
///
/// `SELF_CHECK_REGEN=1` rewrites `tests/fixtures/self_check_digests.txt`
/// instead of asserting — commit the diff with the semantics change that
/// caused it.
#[test]
fn churn_scenario_matches_scan_loop_and_pinned_digests() {
    let fixture_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/self_check_digests.txt"
    );
    let regen = std::env::var_os("SELF_CHECK_REGEN").is_some();
    let pinned: Vec<String> = if regen {
        Vec::new()
    } else {
        std::fs::read_to_string(fixture_path)
            .expect("committed digest fixture (regen with SELF_CHECK_REGEN=1)")
            .lines()
            .map(str::to_owned)
            .collect()
    };
    let mut lines = Vec::new();
    for (label, spec) in pinned_scenarios() {
        let want = scan().run(&spec).unwrap();
        let recorder = Arc::new(Recorder::new());
        let got = indexed()
            .run(&spec.with_telemetry(recorder.clone()))
            .unwrap();
        assert_reports_identical(&want, &got, &label);
        let counters = recorder.counters();
        if label.starts_with("split") {
            assert!(
                counters.migrations_lost > 0,
                "{label}: the decode failure must catch KV on the wire"
            );
        }
        if label.starts_with("sticky-slo") {
            assert!(
                counters.rejected > 0 && counters.scale_ups > 0,
                "{label}: SLO admission and the autoscaler must both act"
            );
        }
        let line = digest(&label, &got);
        if !regen {
            let want_line = pinned
                .iter()
                .find(|l| l.starts_with(&format!("{label}|")))
                .unwrap_or_else(|| panic!("{label}: no pinned digest line"));
            assert_digest_matches(&line, want_line);
        }
        lines.push(line);
    }
    if regen {
        std::fs::write(fixture_path, lines.join("\n") + "\n").unwrap();
    }
}

/// Every pinned scenario run twice from one spec reports the same both
/// times: the spec's clones share its router by `Arc`, and the
/// session-affine routers keep each session's home in the run, not in the
/// router.
#[test]
fn every_pinned_scenario_reruns_identically_from_one_spec() {
    for (label, spec) in pinned_scenarios() {
        let first = indexed().run(&spec).unwrap();
        let second = indexed().run(&spec).unwrap();
        assert_reports_identical(&first, &second, &label);
    }
}

/// An eight-replica fleet under every built-in router and both serving
/// modes: many replicas hold co-pending events at once, and the indexed
/// loop must settle them in the scan loop's `(time, replica index)` order.
#[test]
fn indexed_loop_matches_scan_on_an_eight_replica_fleet() {
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let spec = |r: Arc<dyn Router>| {
                ClusterSpec::homogeneous(
                    SystemKind::MoeLightning,
                    WorkloadSpec::mtbench(),
                    &NodeSpec::t4_single(),
                    8,
                )
                .with_count(400)
                .with_mixed_gen_lens()
                .with_seed(11)
                .with_mode(mode)
                .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 6.0 })
                .with_router(r)
            };
            let want = scan().run(&spec(router.clone())).unwrap();
            let got = indexed().run(&spec(router.clone())).unwrap();
            assert_reports_identical(&want, &got, &format!("{name} [{mode}]"));
        }
    }
}

/// With an autoscaler installed, the scaler observes every completion batch
/// as the indexed loop settles it, and the run still matches the scan loop
/// exactly, including the scale decisions.
#[test]
fn indexed_loop_matches_scan_with_an_autoscaler() {
    for mode in MODES {
        let spec = || {
            ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                2,
            )
            .with_count(300)
            .with_gen_len(32)
            .with_seed(11)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 3.0 })
            .with_timeline(FleetTimeline::new().with_provisioning_delay(secs(10.0)))
            .with_autoscaler(
                Arc::new(QueueDepthScaler::new(8.0, 1.0)),
                ScaleBounds::new(1, 6, secs(15.0)),
            )
        };
        let want = scan().run(&spec()).unwrap();
        let got = indexed().run(&spec()).unwrap();
        assert_reports_identical(&want, &got, &format!("autoscaled [{mode}]"));
        assert!(
            !want.availability.joins.is_empty() || !want.availability.drains.is_empty(),
            "[{mode}] the scenario must actually exercise the autoscaler"
        );
    }
}

/// A heterogeneous fleet (different KV budgets per replica) exercises the
/// masked-offer path: a request some replica's budget masks gets the scan
/// loop's offer of fresh views on the indexed loop too, so the chosen
/// replicas must match the scan loop's.
#[test]
fn indexed_loop_matches_scan_on_heterogeneous_budgets() {
    for mode in MODES {
        let spec = || {
            ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
                .with_replica(
                    ReplicaSpec::new(NodeSpec::t4_single())
                        .with_policy(Policy::offload_default(64, 16)),
                )
                .with_replica(
                    ReplicaSpec::new(NodeSpec::t4_single())
                        .with_policy(Policy::offload_default(16, 4)),
                )
                .with_replica(
                    ReplicaSpec::new(NodeSpec::t4_single())
                        .with_policy(Policy::offload_default(32, 8)),
                )
                .with_count(240)
                .with_mixed_gen_lens()
                .with_seed(11)
                .with_mode(mode)
                .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 1.5 })
        };
        let want = scan().run(&spec()).unwrap();
        let got = indexed().run(&spec()).unwrap();
        assert_reports_identical(&want, &got, &format!("heterogeneous [{mode}]"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the tentpole guarantee: over random seeds, fleet
    /// sizes, loads and serving modes, the indexed loop and the linear scan
    /// loop produce identical reports.
    #[test]
    fn indexed_loop_matches_scan_on_random_scenarios(
        seed in 0u64..1000,
        replicas in 1usize..6,
        count in 50usize..250,
        rate_x10 in 5u64..40,
        mode_seed in 0u8..2,
    ) {
        let mode = if mode_seed == 0 {
            ServingMode::RoundToCompletion
        } else {
            ServingMode::Continuous
        };
        let spec = || {
            ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                replicas,
            )
            .with_count(count)
            .with_mixed_gen_lens()
            .with_seed(seed)
            .with_mode(mode)
            .with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: rate_x10 as f64 / 10.0,
            })
        };
        let want = scan().run(&spec()).unwrap();
        let got = indexed().run(&spec()).unwrap();
        prop_assert_eq!(&want, &got);
    }
}
