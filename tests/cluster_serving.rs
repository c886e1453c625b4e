//! End-to-end tests of the cluster serving layer (ISSUE 4): every built-in
//! [`Router`] upholds the fleet-wide serving invariants in both modes, a
//! homogeneous fleet scales throughput nearly linearly, load-aware routers
//! beat round-robin on tail latency over a heterogeneous fleet, and custom
//! out-of-crate routers plug in through the trait.

use moe_lightning::{
    builtin_routers, ClusterEvaluator, ClusterReport, ClusterSpec, ClusterSpecError, EngineError,
    EvalSetting, InterconnectSpec, KvAware, LeastOutstandingTokens, NodeSpec, ReplicaId,
    ReplicaRole, ReplicaSpec, ReplicaView, RoundRobin, Router, RouterCtx, Seconds, ServeSpec,
    ServingMode, SloSpec, SystemEvaluator, SystemKind,
};
use moe_workload::{ArrivalProcess, Request, WorkloadSpec};
use std::sync::Arc;

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn cluster_evaluator() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

/// A 4-replica homogeneous T4 fleet under online Poisson load with mixed
/// generation lengths — the router-differentiating regime.
fn homogeneous_scenario(mode: ServingMode, router: Arc<dyn Router>) -> ClusterSpec {
    ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        4,
    )
    .with_count(600)
    .with_mixed_gen_lens()
    .with_seed(17)
    .with_mode(mode)
    .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
    .with_router(router)
}

#[test]
fn every_router_serves_every_request_exactly_once_in_both_modes() {
    let eval = cluster_evaluator();
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let report = eval.run(&homogeneous_scenario(mode, router)).unwrap();
            assert_eq!(report.router, name);
            assert_eq!(report.mode, mode);
            let mut ids: Vec<u64> = report
                .replicas
                .iter()
                .flat_map(|r| {
                    r.report
                        .latencies
                        .iter()
                        .map(|l| l.request.id)
                        .chain(r.report.aborted.iter().map(|req| req.id))
                })
                .chain(report.fleet_aborted.iter().map(|req| req.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(
                ids,
                (0..600).collect::<Vec<u64>>(),
                "{name} [{mode}]: every request must land on exactly one replica, served or aborted"
            );
            // Token accounting holds fleet-wide.
            let generated: u64 = report
                .replicas
                .iter()
                .flat_map(|r| r.report.latencies.iter())
                .map(|l| l.request.gen_len)
                .sum();
            assert_eq!(report.totals.generated_tokens, generated, "{name} [{mode}]");
        }
    }
}

#[test]
fn every_replica_respects_its_kv_budget_at_every_event_for_every_router() {
    let eval = cluster_evaluator();
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let report = eval.run(&homogeneous_scenario(mode, router)).unwrap();
            for replica in &report.replicas {
                let budget = replica.kv_budget_per_micro_batch;
                let ubs = replica.report.policy.micro_batch_size;
                for round in &replica.report.rounds {
                    for (i, &reserved) in round.kv_reserved.iter().enumerate() {
                        assert!(
                            reserved <= budget,
                            "{name} [{mode}] {}: event {} micro-batch {i} reserves {reserved} > {budget}",
                            replica.id,
                            round.round
                        );
                    }
                    assert!(
                        round.occupancy.iter().all(|&o| o <= ubs),
                        "{name} [{mode}] {}: event {} exceeds the micro-batch request cap",
                        replica.id,
                        round.round
                    );
                }
            }
        }
    }
}

#[test]
fn four_replicas_give_nearly_linear_throughput_under_saturating_load() {
    // Saturating offline load (everything arrives at time zero): a 4-replica
    // homogeneous fleet must reach at least 3.5x the single-replica fleet
    // throughput on the same fleet-wide queue. In the offloading regime a
    // round costs nearly the same whether its batch is full or not (steps are
    // weight-streaming-bound), so the queue is sized to a whole number of full
    // batches per replica — 8 policy batches fleet-wide, i.e. 8 rounds on one
    // replica vs 2 rounds on each of four.
    let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let spec = WorkloadSpec::mtbench();
    let shape = evaluator.workload_shape(SystemKind::MoeLightning, &spec, 64);
    let batch = evaluator
        .policy_for(SystemKind::MoeLightning, &shape)
        .unwrap()
        .batch_size as usize;
    let eval = cluster_evaluator();
    let scenario = |n: usize| {
        ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(8 * batch)
            .with_gen_len(64)
            .with_seed(5)
            .into_cluster(NodeSpec::t4_single().replicated(n))
    };
    let single = eval.run(&scenario(1)).unwrap();
    let quad = eval.run(&scenario(4)).unwrap();
    assert_eq!(single.served_requests(), 8 * batch);
    assert_eq!(quad.served_requests(), 8 * batch);
    let speedup = quad.fleet_throughput() / single.fleet_throughput();
    assert!(
        speedup >= 3.5,
        "4 replicas must give >= 3.5x fleet throughput, got {speedup:.2}x \
         ({:.1} vs {:.1} tok/s)",
        quad.fleet_throughput(),
        single.fleet_throughput()
    );
}

#[test]
fn load_aware_routers_beat_round_robin_on_p99_ttft_over_a_heterogeneous_fleet() {
    // A mixed T4+L4 fleet under Poisson load at the fleet's joint service
    // rate, with a capacity-bound policy (64 concurrent requests per replica)
    // so admission control genuinely queues: round-robin splits arrivals
    // evenly, overloading the slower T4 (whose service rate is well under half
    // the fleet's), while least-outstanding-tokens and KV-aware routing shift
    // work to the replica that is actually draining (the L4).
    let spec = WorkloadSpec::mtbench();
    let gen = 64;
    let policy = moe_lightning::Policy::offload_default(64, 16);
    let service_rate = |setting: EvalSetting| {
        let report = SystemEvaluator::new(setting.node(), setting.model())
            .run(
                &ServeSpec::new(SystemKind::MoeLightning, spec.clone())
                    .with_count(300)
                    .with_gen_len(gen)
                    .with_seed(29)
                    .with_policy(policy)
                    .with_mode(ServingMode::Continuous),
            )
            .unwrap();
        report.served_requests() as f64 / report.total_time().as_secs()
    };
    let fleet_rate = service_rate(EvalSetting::S1) + service_rate(EvalSetting::S2);
    let eval = cluster_evaluator();
    let run = |router: Arc<dyn Router>| {
        let scenario = ClusterSpec::new(SystemKind::MoeLightning, spec.clone())
            .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(policy))
            .with_replica(ReplicaSpec::new(NodeSpec::l4_single()).with_policy(policy))
            .with_count(400)
            .with_gen_len(gen)
            .with_seed(29)
            .with_mode(ServingMode::Continuous)
            .with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: fleet_rate,
            })
            .with_router(router);
        eval.run(&scenario).unwrap()
    };
    let rr = run(Arc::new(RoundRobin));
    let lot = run(Arc::new(LeastOutstandingTokens));
    let kv = run(Arc::new(KvAware));
    assert_eq!(rr.served_requests(), 400);
    let (rr_p99, lot_p99, kv_p99) = (
        rr.ttft().p99.as_secs(),
        lot.ttft().p99.as_secs(),
        kv.ttft().p99.as_secs(),
    );
    assert!(
        lot_p99 < rr_p99,
        "least-outstanding-tokens p99 TTFT ({lot_p99:.1}s) must beat round-robin ({rr_p99:.1}s)"
    );
    assert!(
        kv_p99 < rr_p99,
        "kv-aware p99 TTFT ({kv_p99:.1}s) must beat round-robin ({rr_p99:.1}s)"
    );
}

#[test]
fn custom_routers_plug_in_through_the_trait() {
    /// An out-of-crate strategy: stick to the first replica until its
    /// projected KV headroom cannot take the request, then overflow to the
    /// replica with the most headroom.
    #[derive(Debug)]
    struct StickyOverflow;

    impl Router for StickyOverflow {
        fn name(&self) -> &'static str {
            "sticky-overflow"
        }

        fn route(
            &self,
            request: &Request,
            replicas: &[ReplicaView],
            _ctx: &mut RouterCtx,
        ) -> ReplicaId {
            let first = &replicas[0];
            if first.kv_headroom() >= request.max_context() {
                first.id
            } else {
                replicas
                    .iter()
                    .max_by_key(|v| (v.kv_headroom(), std::cmp::Reverse(v.id)))
                    .expect("non-empty views")
                    .id
            }
        }
    }

    let eval = cluster_evaluator();
    let report = eval
        .run(
            &ClusterSpec::homogeneous(
                SystemKind::MoeLightning,
                WorkloadSpec::mtbench(),
                &NodeSpec::t4_single(),
                3,
            )
            .with_count(300)
            .with_gen_len(32)
            .with_seed(3)
            .with_mode(ServingMode::Continuous)
            .with_router(Arc::new(StickyOverflow)),
        )
        .unwrap();
    assert_eq!(report.router, "sticky-overflow");
    assert_eq!(report.served_requests(), 300);
    // Stickiness shows: replica 0 served strictly more than any other.
    let served: Vec<usize> = report
        .replicas
        .iter()
        .map(|r| r.report.served_requests())
        .collect();
    assert!(
        served[0] > served[1] && served[0] > served[2],
        "sticky routing must concentrate load on replica 0: {served:?}"
    );
}

#[test]
fn slo_goodput_and_attainment_are_consistent() {
    let eval = cluster_evaluator();
    let slo_loose = SloSpec {
        ttft: moe_lightning::Seconds::from_secs(1e9),
        per_token: moe_lightning::Seconds::from_secs(1e9),
    };
    let slo_impossible = SloSpec {
        ttft: moe_lightning::Seconds::ZERO,
        per_token: moe_lightning::Seconds::ZERO,
    };
    let report = eval
        .run(
            &homogeneous_scenario(ServingMode::Continuous, Arc::new(LeastOutstandingTokens))
                .with_slo(slo_loose),
        )
        .unwrap();
    assert_eq!(report.slo, Some(slo_loose));
    // Every served request attains an unbounded SLO; none attain a zero one.
    let total = report.served_requests() + report.aborted_requests();
    let expected_pct = 100.0 * report.served_requests() as f64 / total as f64;
    assert!((report.slo_attainment_pct(&slo_loose) - expected_pct).abs() < 1e-9);
    assert_eq!(report.slo_attainment_pct(&slo_impossible), 0.0);
    assert!((report.goodput(&slo_loose) - report.fleet_throughput()).abs() < 1e-9);
    assert_eq!(report.goodput(&slo_impossible), 0.0);
    // Makespan bounds every replica's busy span.
    assert!(report.makespan().as_secs() > 0.0);
}

#[test]
fn invalid_cluster_specs_surface_as_typed_errors() {
    let eval = cluster_evaluator();
    let empty = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench());
    let err = eval.run(&empty).unwrap_err();
    assert!(matches!(
        err,
        EngineError::InvalidClusterSpec {
            reason: ClusterSpecError::NoReplicas
        }
    ));
    let zero = ClusterSpec::homogeneous(
        SystemKind::MoeLightning,
        WorkloadSpec::mtbench(),
        &NodeSpec::t4_single(),
        2,
    )
    .with_count(0);
    let err = eval.run(&zero).unwrap_err();
    assert!(matches!(
        err,
        EngineError::InvalidClusterSpec {
            reason: ClusterSpecError::ZeroRequests
        }
    ));
    // EngineError is non_exhaustive: downstream matches keep a wildcard arm.
    match err {
        EngineError::InvalidClusterSpec { .. } => {}
        _ => unreachable!("typed cluster error expected"),
    }
}

/// An arrival process that cannot stamp a queue (a Poisson rate that is not
/// positive, a burst of zero requests) is a typed spec error on both entry
/// points, not a panic. An explicit queue is already stamped, so the same bad
/// process is never consulted.
#[test]
fn invalid_arrival_processes_surface_as_typed_errors() {
    let is_invalid_arrivals = |err: EngineError| {
        matches!(
            err,
            EngineError::InvalidClusterSpec {
                reason: ClusterSpecError::InvalidArrivals
            }
        )
    };
    let fleet = || {
        ClusterSpec::homogeneous(
            SystemKind::MoeLightning,
            WorkloadSpec::mtbench(),
            &NodeSpec::t4_single(),
            2,
        )
        .with_count(16)
        .with_gen_len(16)
    };
    let eval = cluster_evaluator();
    for bad in [
        ArrivalProcess::Poisson { rate_per_sec: 0.0 },
        ArrivalProcess::Poisson {
            rate_per_sec: f64::NAN,
        },
        ArrivalProcess::Burst {
            size: 0,
            period_secs: 1.0,
        },
    ] {
        let err = eval.run(&fleet().with_arrivals(bad)).unwrap_err();
        assert!(is_invalid_arrivals(err), "{bad:?}");
    }

    let setting = EvalSetting::S1;
    let single = SystemEvaluator::new(setting.node(), setting.model());
    let serve = || {
        ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(16)
            .with_gen_len(16)
    };
    let negative = ArrivalProcess::Poisson { rate_per_sec: -1.0 };
    let err = single.run(&serve().with_arrivals(negative)).unwrap_err();
    assert!(is_invalid_arrivals(err));

    // An explicit queue is served as stamped; the bad process is ignored.
    let queue: Vec<Request> = (0..16).map(|id| Request::new(id, 64, 16)).collect();
    let replayed = eval
        .run(&fleet().with_arrivals(negative).with_queue(queue.clone()))
        .unwrap();
    assert_eq!(replayed.served_requests(), 16);
    let served = single
        .run(&serve().with_arrivals(negative).with_queue(queue))
        .unwrap();
    assert_eq!(served.served_requests(), 16);
}

/// Every request id of `report` that was served, aborted or rejected, in
/// ascending order: each request appears once when none is lost or
/// counted twice.
fn terminal_ids(report: &ClusterReport) -> Vec<u64> {
    let mut ids: Vec<u64> = report
        .replicas
        .iter()
        .flat_map(|r| {
            (r.report.latencies.iter().map(|l| l.request.id))
                .chain(r.report.aborted.iter().map(|req| req.id))
        })
        .chain(report.fleet_aborted.iter().map(|req| req.id))
        .chain(report.availability.rejected.iter().map(|req| req.id))
        .collect();
    ids.sort_unstable();
    ids
}

/// The limits of the arrival process and the interconnect: a Poisson rate of
/// `+inf` lands every request at `t = 0` on a unified fleet, and an
/// infinite-bandwidth, zero-latency link lands every KV migration the
/// instant it starts on a split fleet. In both serving modes, every request
/// is served, aborted or rejected exactly once, and the indexed loop
/// reports what the scan loop does.
#[test]
fn infinite_arrival_rates_and_free_links_conserve_every_request_on_both_loops() {
    const COUNT: usize = 60;
    let base = |mode| {
        ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_count(COUNT)
            .with_mixed_gen_lens()
            .with_seed(5)
            .with_mode(mode)
    };
    let unified_at_once = |mode| {
        (0..3).fold(
            base(mode).with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: f64::INFINITY,
            }),
            |spec, _| spec.with_replica(ReplicaSpec::new(NodeSpec::t4_single())),
        )
    };
    let split_on_a_free_link = |mode| {
        [
            ReplicaRole::Prefill,
            ReplicaRole::Decode,
            ReplicaRole::Decode,
        ]
        .into_iter()
        .fold(
            base(mode)
                .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 })
                .with_interconnect(InterconnectSpec::new(f64::INFINITY, Seconds::ZERO)),
            |spec, role| spec.with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_role(role)),
        )
    };
    let scenarios: [(&str, &dyn Fn(ServingMode) -> ClusterSpec); 2] = [
        ("unified, rate +inf", &unified_at_once),
        ("split, free link", &split_on_a_free_link),
    ];
    for mode in MODES {
        for (label, spec) in scenarios {
            let spec = spec(mode);
            assert_eq!(spec.validate(), Ok(()), "{label} [{mode}]");
            let want = cluster_evaluator().with_scan_loop().run(&spec).unwrap();
            let got = cluster_evaluator().run(&spec).unwrap();
            assert_eq!(
                terminal_ids(&got),
                (0..COUNT as u64).collect::<Vec<u64>>(),
                "{label} [{mode}]: served + aborted + rejected must equal arrived, exactly once"
            );
            assert_eq!(want, got, "{label} [{mode}]: the two loops diverged");
        }
    }
    // Every request of the unified run arrived at t = 0, and the split
    // run's decode replicas served the migrated requests.
    let unified = cluster_evaluator()
        .run(&unified_at_once(ServingMode::Continuous))
        .unwrap();
    assert!(unified
        .replicas
        .iter()
        .flat_map(|r| r.report.latencies.iter())
        .all(|l| l.request.arrival == Seconds::ZERO));
    let split = cluster_evaluator()
        .run(&split_on_a_free_link(ServingMode::Continuous))
        .unwrap();
    let decoded: usize = (split.replicas[1..].iter())
        .map(|r| r.report.latencies.len())
        .sum();
    assert_eq!(decoded, COUNT, "every request migrates to a decode replica");
}
