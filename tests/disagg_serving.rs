//! End-to-end tests of disaggregated prefill/decode serving (ISSUE 9):
//! exactly-once request conservation under churn on split fleets for every
//! built-in router in both serving modes, indexed==scan loop equivalence
//! in disaggregated dispatch, migration latency landing on the TTFT path,
//! prefix-cache + session-sticky routing accounting, and a property sweep
//! over random pool splits. Every served, aborted and rejected request must
//! come out exactly as it arrived: a prefill-only phase and its handoff never
//! change a request's shape.

use moe_lightning::router::RouterIndex;
use moe_lightning::{
    builtin_routers, ClusterEvaluator, ClusterReport, ClusterSpec, ClusterSpecError, EngineError,
    EvalSetting, FleetTimeline, InterconnectSpec, LeastOutstandingTokens, NodeSpec, Policy,
    PrefixAware, Recorder, ReplicaId, ReplicaRole, ReplicaSpec, ReplicaView, RoundRobin, Router,
    RouterCtx, Seconds, ServingMode, StickySession, SystemKind, TelemetryEvent,
};
use moe_trace::TraceRecorder;
use moe_workload::{ArrivalProcess, GenLens, Request, WorkloadSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn evaluator() -> ClusterEvaluator {
    ClusterEvaluator::new(EvalSetting::S1.model())
}

fn scan() -> ClusterEvaluator {
    evaluator().with_scan_loop()
}

fn secs(s: f64) -> Seconds {
    Seconds::from_secs(s)
}

fn policy() -> Policy {
    Policy::offload_default(64, 16)
}

/// A 4-replica T4 fleet split `prefill` prefill + rest decode (or fully
/// unified at `prefill == 0`), under online Poisson load.
fn split_fleet(prefill: usize, count: usize, seed: u64, mode: ServingMode) -> ClusterSpec {
    let node = NodeSpec::t4_single();
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_count(count)
        .with_mixed_gen_lens()
        .with_seed(seed)
        .with_mode(mode)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 });
    for i in 0..4 {
        let role = if prefill == 0 {
            ReplicaRole::Unified
        } else if i < prefill {
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

/// Runs `spec` with a [`TraceRecorder`] attached; returns the report and the
/// arrivals the recorder rebuilt from its `Arrival` events. The trace numbers
/// them in arrival order, which is id order for every queue here, so
/// `arrivals[id]` is request `id` as it arrived.
fn run_recorded(eval: &ClusterEvaluator, spec: ClusterSpec) -> (ClusterReport, Vec<Request>) {
    let recorder = Arc::new(TraceRecorder::new());
    let report = eval.run(&spec.with_telemetry(recorder.clone())).unwrap();
    (report, recorder.trace().requests().to_vec())
}

/// Every one of the `count` arrivals must land in exactly one of served /
/// aborted / rejected, exactly once, field for field as it arrived, with
/// token accounting intact.
fn assert_conserved(report: &ClusterReport, arrivals: &[Request], count: usize, label: &str) {
    assert_eq!(arrivals.len(), count, "{label}: every arrival is recorded");
    let outcomes: Vec<&Request> = report
        .replicas
        .iter()
        .flat_map(|r| {
            r.report
                .latencies
                .iter()
                .map(|l| &l.request)
                .chain(r.report.aborted.iter())
        })
        .chain(report.fleet_aborted.iter())
        .chain(report.availability.rejected.iter())
        .collect();
    for request in &outcomes {
        assert_eq!(
            Some(*request),
            arrivals.get(request.id as usize),
            "{label}: request {} must keep its arrival shape",
            request.id
        );
    }
    let mut ids: Vec<u64> = outcomes.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..count as u64).collect::<Vec<u64>>(),
        "{label}: completed + rejected + aborted must equal arrived, exactly once"
    );
    let generated: u64 = report
        .replicas
        .iter()
        .flat_map(|r| r.report.latencies.iter())
        .map(|l| l.request.gen_len)
        .sum();
    assert_eq!(
        report.totals.generated_tokens, generated,
        "{label}: prefill-only work must not leave phantom generated tokens"
    );
}

fn assert_reports_identical(a: &ClusterReport, b: &ClusterReport, label: &str) {
    assert_eq!(
        a.availability, b.availability,
        "{label}: availability accounting diverged"
    );
    assert_eq!(a.totals, b.totals, "{label}: fleet totals diverged");
    assert_eq!(a, b, "{label}: reports diverged");
}

/// Exactly-once accounting on a disaggregated 2p+2d fleet under full churn —
/// a decode failure (losing in-flight migrated KV), a delayed unified join
/// and a prefill drain — for every built-in router in both serving modes.
#[test]
fn disagg_churn_conserves_every_request_for_every_router_in_both_modes() {
    let eval = evaluator();
    for mode in MODES {
        for router in builtin_routers() {
            let name = router.name();
            let spec = split_fleet(2, 400, 17, mode)
                .with_router(router)
                .with_timeline(
                    FleetTimeline::new()
                        .fail_at(secs(50.0), ReplicaId(3))
                        .join_at(secs(60.0), ReplicaSpec::new(NodeSpec::t4_single()))
                        .drain_at(secs(90.0), ReplicaId(0))
                        .with_provisioning_delay(secs(20.0)),
                );
            let (report, arrivals) = run_recorded(&eval, spec);
            assert_conserved(&report, &arrivals, 400, &format!("{name} [{mode}]"));
            assert_eq!(
                report.availability.failures,
                vec![(ReplicaId(3), secs(50.0))],
                "{name} [{mode}]"
            );
            assert!(
                !report.availability.rerouted.is_empty(),
                "{name} [{mode}]: losing a decode replica mid-run must re-route work"
            );
        }
    }
}

/// A prefill replica failing under load returns its queued and in-round
/// prefill-only work as the original requests: they re-enter at the front
/// door with their generation intact, in both modes.
#[test]
fn a_failed_prefill_replica_returns_original_requests() {
    for mode in MODES {
        let label = format!("prefill failure [{mode}]");
        let spec = split_fleet(2, 400, 17, mode)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 8.0 })
            .with_timeline(FleetTimeline::new().fail_at(secs(30.0), ReplicaId(0)));
        let (report, arrivals) = run_recorded(&evaluator(), spec);
        assert_conserved(&report, &arrivals, 400, &label);
        assert!(
            !report.availability.rerouted.is_empty(),
            "{label}: the failure must catch prefill-only work"
        );
    }
}

/// Every router the disaggregated scan-vs-indexed oracle covers, built
/// fresh per run because the session maps are stateful: the built-ins, then
/// the session-affine ones. Of these only `LeastOutstandingTokens` and
/// `PrefixAware` answer from the index; the rest, both sticky routers
/// included (one over an inner router with an indexed fast path, one over
/// an inner router without), route over the index's cached views.
fn oracle_routers() -> Vec<Arc<dyn Router>> {
    let mut routers = builtin_routers();
    routers.push(Arc::new(PrefixAware::new()));
    routers.push(Arc::new(StickySession::new(Arc::new(
        LeastOutstandingTokens,
    ))));
    routers.push(Arc::new(StickySession::new(Arc::new(RoundRobin))));
    routers
}

/// Runs `spec` under the `k`-th oracle router on the scan loop and on the
/// indexed loop (each with a fresh router) and asserts the reports are
/// bit-identical. Returns the indexed report.
fn assert_loops_agree(spec: impl Fn() -> ClusterSpec, k: usize, label: &str) -> ClusterReport {
    let want = scan()
        .run(&spec().with_router(oracle_routers().swap_remove(k)))
        .unwrap();
    let got = evaluator()
        .run(&spec().with_router(oracle_routers().swap_remove(k)))
        .unwrap();
    let name = want.router.clone();
    assert_reports_identical(&want, &got, &format!("{label}: {name} (router {k})"));
    got
}

/// The indexed fleet loop, which routes each pool from its own router
/// index, must reproduce the linear scan loop bit-for-bit in disaggregated
/// dispatch (where migrations force per-event stepping), for every built-in
/// and session-affine router in both serving modes, on one-turn requests and
/// on a multi-turn session queue.
#[test]
fn indexed_loop_matches_scan_in_disagg_mode() {
    let sessions = session_queue(200, 8, 11);
    for mode in MODES {
        for k in 0..oracle_routers().len() {
            assert_loops_agree(
                || split_fleet(1, 200, 11, mode),
                k,
                &format!("[{mode}] disagg"),
            );
            assert_loops_agree(
                || split_fleet(1, 200, 11, mode).with_queue(sessions.clone()),
                k,
                &format!("[{mode}] disagg sessions"),
            );
        }
    }
}

/// Counts how each decision reached the router: `route_indexed` calls (the
/// whole pool index was the offer), the fast-path answers among them
/// (`Some`), and `route` calls (a filtered offer, or the fallback after a
/// `None`).
#[derive(Debug)]
struct OfferProbe {
    inner: Arc<dyn Router>,
    indexed: AtomicUsize,
    answered: AtomicUsize,
    routed: AtomicUsize,
}

impl OfferProbe {
    fn new(inner: Arc<dyn Router>) -> Arc<Self> {
        Arc::new(OfferProbe {
            inner,
            indexed: AtomicUsize::new(0),
            answered: AtomicUsize::new(0),
            routed: AtomicUsize::new(0),
        })
    }

    /// `(route_indexed calls, fast-path answers, route calls)`.
    fn counts(&self) -> (usize, usize, usize) {
        (
            self.indexed.load(AtomicOrdering::Relaxed),
            self.answered.load(AtomicOrdering::Relaxed),
            self.routed.load(AtomicOrdering::Relaxed),
        )
    }
}

impl Router for OfferProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        self.routed.fetch_add(1, AtomicOrdering::Relaxed);
        self.inner.route(request, replicas, ctx)
    }

    fn route_indexed(
        &self,
        request: &Request,
        index: &RouterIndex,
        ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        self.indexed.fetch_add(1, AtomicOrdering::Relaxed);
        let chosen = self.inner.route_indexed(request, index, ctx);
        if chosen.is_some() {
            self.answered.fetch_add(1, AtomicOrdering::Relaxed);
        }
        chosen
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_down(replica, now, ctx);
    }
}

/// A split fleet with mixed KV budgets: in each pool one replica holds
/// sixteen contexts of the policy's shape per micro-batch and the others
/// hold one, so long requests are masked for the small replicas. The
/// unified replica sits in both pools.
fn mixed_budget_fleet(mode: ServingMode) -> ClusterSpec {
    let small = Policy::offload_default(2, 2);
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_count(200)
        .with_mixed_gen_lens()
        .with_seed(23)
        .with_mode(mode)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_sec: 2.0 });
    for (role, policy) in [
        (ReplicaRole::Prefill, policy()),
        (ReplicaRole::Prefill, small),
        (ReplicaRole::Decode, policy()),
        (ReplicaRole::Decode, small),
        (ReplicaRole::Unified, small),
    ] {
        spec = spec.with_replica(
            ReplicaSpec::new(NodeSpec::t4_single())
                .with_policy(policy)
                .with_role(role),
        );
    }
    spec
}

/// Requests masked for part of their pool take the filtered-offer fallback
/// while the rest route from the pool index, and the indexed loop still
/// equals the scan loop for every router in both modes.
#[test]
fn indexed_loop_matches_scan_with_budget_masked_requests() {
    for mode in MODES {
        for k in 0..oracle_routers().len() {
            let report = assert_loops_agree(
                || mixed_budget_fleet(mode),
                k,
                &format!("[{mode}] mixed budgets"),
            );
            assert_eq!(report.served_requests() + report.fleet_aborted.len(), 200);
        }
        // Both routers answer every whole-index offer from the index, so
        // only the masked decisions reach `route`.
        let routers: [Arc<dyn Router>; 2] = [
            Arc::new(LeastOutstandingTokens),
            Arc::new(PrefixAware::new()),
        ];
        for router in routers {
            let name = router.name();
            let probe = OfferProbe::new(router);
            evaluator()
                .run(&mixed_budget_fleet(mode).with_router(probe.clone()))
                .unwrap();
            let (indexed, answered, routed) = probe.counts();
            assert!(
                indexed > 0 && routed > 0,
                "{name} [{mode}]: both kinds of decision must occur \
                 (indexed {indexed}, routed {routed})"
            );
            assert_eq!(answered, indexed, "{name} [{mode}]: a fast path fell back");
        }
    }
}

/// `PrefixAware` answers every decision of an unmasked unified fleet from
/// the router index: with prefix caches and a multi-turn session queue,
/// `route` is never called, in both serving modes.
#[test]
fn prefix_aware_routes_every_unmasked_decision_from_the_index() {
    let queue = session_queue(240, 8, 29);
    for mode in MODES {
        let probe = OfferProbe::new(Arc::new(PrefixAware::new()));
        let report = evaluator()
            .run(
                &split_fleet(0, 240, 29, mode)
                    .with_queue(queue.clone())
                    .with_prefix_cache(64 * 1024)
                    .with_router(probe.clone()),
            )
            .unwrap();
        let (indexed, answered, routed) = probe.counts();
        assert!(indexed >= 240, "[{mode}]: every arrival is a decision");
        assert_eq!(answered, indexed, "[{mode}]: a fast path fell back");
        assert_eq!(routed, 0, "[{mode}]: route was called");
        let hits: u64 = report
            .replicas
            .iter()
            .filter_map(|r| r.cache)
            .map(|c| c.hits)
            .sum();
        assert!(hits > 0, "[{mode}]: the sessions went home to warm caches");
    }
}

/// The 2p+2d fleet of 200 requests over a slow link (each migration is in
/// flight for over a second) with decode replica 3 failing midway through
/// its first migration to start at or after 20 s. Returns the spec and the
/// failure instant.
fn decode_failure_mid_migration(mode: ServingMode) -> (ClusterSpec, Seconds) {
    let base =
        split_fleet(2, 200, 13, mode).with_interconnect(InterconnectSpec::new(0.05, secs(1.0)));
    // Events before the failure do not depend on it, so a migration in
    // flight at this instant without the failure is in flight with it.
    let recorder = Arc::new(Recorder::new());
    evaluator()
        .run(&base.clone().with_telemetry(recorder.clone()))
        .unwrap();
    let fail_at = recorder
        .events()
        .iter()
        .find_map(|e| match *e {
            TelemetryEvent::MigrationStart {
                to: 3, eta_s, at, ..
            } if at >= 20.0 => Some(secs((at + eta_s) / 2.0)),
            _ => None,
        })
        .expect("replica 3 receives migrations");
    let spec = base.with_timeline(FleetTimeline::new().fail_at(fail_at, ReplicaId(3)));
    (spec, fail_at)
}

/// A decode replica fails while KV migrations to it are on the wire: the
/// lost migrations re-enter at the front door identically on both loops,
/// for every router in both modes.
#[test]
fn indexed_loop_matches_scan_when_a_decode_replica_fails_mid_migration() {
    for mode in MODES {
        let (spec, fail_at) = decode_failure_mid_migration(mode);
        for k in 0..oracle_routers().len() {
            assert_loops_agree(|| spec.clone(), k, &format!("[{mode}] decode failure"));
        }
        let recorder = Arc::new(Recorder::new());
        evaluator()
            .run(&spec.with_telemetry(recorder.clone()))
            .unwrap();
        assert!(
            recorder.events().iter().any(|e| matches!(
                *e,
                TelemetryEvent::MigrationLost { to: 3, at, .. } if at == fail_at.as_secs()
            )),
            "[{mode}]: the failure must catch migrations in flight"
        );
    }
}

/// The KV on the wire to a decode replica is lost with it, and so is its
/// place in the replica's projection: from the failure on, no sample shows
/// inbound KV on the departed replica, and the closing sample shows none
/// fleet-wide and no migration in flight, on both loops in both modes.
#[test]
fn a_lost_migration_leaves_no_inbound_kv_behind() {
    for mode in MODES {
        let (spec, fail_at) = decode_failure_mid_migration(mode);
        for (name, eval) in [("scan", scan()), ("indexed", evaluator())] {
            let label = format!("[{mode}] {name} loop");
            // The run spans thousands of seconds: a 10 s interval keeps
            // every sample in the recorder's ring.
            let recorder = Arc::new(Recorder::new().with_interval(10.0));
            eval.run(&spec.clone().with_telemetry(recorder.clone()))
                .unwrap();
            assert_eq!(recorder.samples_dropped(), 0, "{label}");
            let series = recorder.series();
            let after: Vec<_> = series.iter().filter(|s| s.at > fail_at.as_secs()).collect();
            assert!(after.len() > 1, "{label}: the run samples past the failure");
            for sample in after {
                let dead = (sample.replicas.iter())
                    .find(|r| r.replica == 3)
                    .expect("every replica is sampled");
                assert_eq!(
                    dead.kv_migrating_in, 0,
                    "{label}: departed replica 3 holds inbound KV at {}",
                    sample.at
                );
            }
            let last = series.last().expect("the run closes with a sample");
            assert_eq!(
                (last.kv_migrating_in, last.migrations_in_flight),
                (0, 0),
                "{label}: the closing sample shows KV on the wire"
            );
        }
    }
}

/// With both decode replicas of a 2p+2d fleet dead (short generations, so
/// they serve before they die), the migration pool is empty: every later
/// arrival still runs its prompt wave on a prefill replica and is then
/// aborted at fleet level at handoff. Conservation holds and the scan and
/// indexed loops agree.
#[test]
fn an_empty_migration_pool_aborts_at_handoff() {
    let last_failure = secs(110.0);
    for mode in MODES {
        let label = format!("empty decode pool [{mode}]");
        let spec = || {
            split_fleet(2, 300, 11, mode).with_gen_len(8).with_timeline(
                FleetTimeline::new()
                    .fail_at(secs(100.0), ReplicaId(2))
                    .fail_at(last_failure, ReplicaId(3)),
            )
        };
        let (want, arrivals) = run_recorded(&scan(), spec());
        let recorder = Arc::new(Recorder::new());
        let got = evaluator()
            .run(&spec().with_telemetry(recorder.clone()))
            .unwrap();
        assert_reports_identical(&want, &got, &label);
        assert_conserved(&got, &arrivals, 300, &label);
        let events = recorder.events();
        let late: Vec<&Request> = got
            .fleet_aborted
            .iter()
            .filter(|r| r.arrival > last_failure)
            .collect();
        assert!(
            got.served_requests() > 0,
            "{label}: the decode pool must serve before it dies"
        );
        assert!(
            got.latencies()
                .iter()
                .all(|l| l.request.arrival <= last_failure),
            "{label}: no request arriving after the last decode failure may be served"
        );
        assert!(
            !late.is_empty(),
            "{label}: later arrivals must reach handoff"
        );
        for request in late {
            let prefilled = events.iter().any(|e| {
                matches!(*e, TelemetryEvent::Admitted { id, replica, .. }
                    if id == request.id && replica < 2)
            });
            let aborted_at = events.iter().find_map(|e| match *e {
                TelemetryEvent::Aborted { id, at } if id == request.id => Some(at),
                _ => None,
            });
            assert!(
                prefilled && aborted_at.is_some_and(|at| at > request.arrival.as_secs()),
                "{label}: request {} must run prefill, then abort at handoff",
                request.id
            );
        }
    }
}

/// Role pools are fixed by the spec: in a run without them, a prefill
/// replica joined by the timeline serves whole requests like a unified one
/// and hands nothing off.
#[test]
fn a_prefill_joiner_in_a_unified_run_serves_unified() {
    let joiner = ReplicaSpec::new(NodeSpec::t4_single())
        .with_policy(policy())
        .with_role(ReplicaRole::Prefill);
    let spec = split_fleet(0, 200, 11, ServingMode::Continuous).with_timeline(
        FleetTimeline::new()
            .join_at(secs(10.0), joiner)
            .with_provisioning_delay(secs(5.0)),
    );
    let (report, arrivals) = run_recorded(&evaluator(), spec);
    assert_conserved(&report, &arrivals, 200, "prefill joiner");
    assert!(
        report.replicas[4].report.served_requests() > 0,
        "the joiner must serve whole requests"
    );
}

/// Prefill replicas do real prompt work but never deliver a generation:
/// every served latency lives on a decode replica. A request with nothing to
/// generate is the boundary of the phase decision: it is served whole on the
/// prefill replica it lands on, in both modes, and never migrates.
#[test]
fn prefill_replicas_deliver_no_generations() {
    let (report, arrivals) = run_recorded(
        &evaluator(),
        split_fleet(2, 200, 11, ServingMode::Continuous),
    );
    assert_conserved(&report, &arrivals, 200, "2p+2d");
    for prefill in &report.replicas[..2] {
        assert!(
            prefill.report.latencies.is_empty(),
            "replica {:?} is a prefill replica: it hands requests off, it \
             does not serve them",
            prefill.id
        );
    }
    let decode_served: usize = report.replicas[2..]
        .iter()
        .map(|r| r.report.served_requests())
        .sum();
    assert_eq!(decode_served, report.served_requests());
    assert!(decode_served > 0, "the decode pool must actually serve");

    // Every fifth request generates nothing.
    let queue: Vec<Request> = WorkloadSpec::mtbench()
        .synthesize_queue(
            200,
            GenLens::MixedDefaults,
            11,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .into_iter()
        .map(|r| Request {
            gen_len: if r.id % 5 == 0 { 0 } else { r.gen_len },
            ..r
        })
        .collect();
    let zero_gen: BTreeSet<u64> = queue
        .iter()
        .filter(|r| r.gen_len == 0)
        .map(|r| r.id)
        .collect();
    assert_eq!(zero_gen.len(), 40);
    for mode in MODES {
        let label = format!("2p+2d, zero-gen every fifth [{mode}]");
        let spec = || split_fleet(2, 200, 11, mode).with_queue(queue.clone());
        let (report, arrivals) = run_recorded(&evaluator(), spec());
        assert_conserved(&report, &arrivals, 200, &label);
        let on_prefill: BTreeSet<u64> = report.replicas[..2]
            .iter()
            .flat_map(|r| r.report.latencies.iter().map(|l| l.request.id))
            .collect();
        assert_eq!(
            on_prefill, zero_gen,
            "{label}: prefill replicas serve exactly the zero-gen requests"
        );
        let recorder = Arc::new(Recorder::new());
        let observed = evaluator()
            .run(&spec().with_telemetry(recorder.clone()))
            .unwrap();
        assert_eq!(observed, report, "{label}: sinks never perturb the run");
        let migrated: Vec<u64> = recorder
            .events()
            .iter()
            .filter_map(|e| match *e {
                TelemetryEvent::MigrationStart { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(
            migrated.len(),
            200 - zero_gen.len(),
            "{label}: every generation-bearing request migrates exactly once"
        );
        assert!(
            migrated.iter().all(|id| !zero_gen.contains(id)),
            "{label}: no zero-gen request may migrate"
        );
    }
}

/// KV migration is priced on the fleet interconnect and lands on the TTFT
/// path: the same split fleet on a starved link has strictly worse first-token
/// latency than on the default RDMA-class fabric, while a unified fleet is
/// indifferent to the link (it never migrates).
#[test]
fn migration_latency_lands_on_the_ttft_path() {
    let eval = evaluator();
    let fast = eval
        .run(&split_fleet(2, 200, 11, ServingMode::Continuous))
        .unwrap();
    let starved_link = InterconnectSpec::new(0.005, secs(2.0));
    let (starved, arrivals) = run_recorded(
        &eval,
        split_fleet(2, 200, 11, ServingMode::Continuous).with_interconnect(starved_link),
    );
    assert!(
        starved.ttft().p50 > fast.ttft().p50 + secs(1.0),
        "a 2 s/transfer link must add at least its latency floor to median \
         TTFT: {:.2}s vs {:.2}s",
        starved.ttft().p50.as_secs(),
        fast.ttft().p50.as_secs()
    );
    assert_conserved(&starved, &arrivals, 200, "starved link");
    let unified_fast = eval
        .run(&split_fleet(0, 200, 11, ServingMode::Continuous))
        .unwrap();
    let unified_starved = eval
        .run(&split_fleet(0, 200, 11, ServingMode::Continuous).with_interconnect(starved_link))
        .unwrap();
    assert_eq!(
        unified_fast, unified_starved,
        "a unified fleet never touches the interconnect"
    );
}

/// An interconnect that cannot land a migration in finite time is a typed
/// spec error, not a run that never returns: zero, NaN and negative
/// bandwidths and an infinite latency each put every KV handoff at `+inf`.
#[test]
fn invalid_interconnects_are_typed_errors() {
    let node = NodeSpec::t4_single();
    let spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_replica(ReplicaSpec::new(node.clone()).with_role(ReplicaRole::Prefill))
        .with_replica(ReplicaSpec::new(node).with_role(ReplicaRole::Decode))
        .with_count(16)
        .with_gen_len(8)
        .with_mode(ServingMode::Continuous);
    for link in [
        InterconnectSpec::new(0.0, secs(1e-5)),
        InterconnectSpec::new(f64::NAN, secs(1e-5)),
        InterconnectSpec::new(-25.0, secs(1e-5)),
        InterconnectSpec::new(25.0, secs(f64::INFINITY)),
    ] {
        let err = evaluator()
            .run(&spec.clone().with_interconnect(link))
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidClusterSpec {
                reason: ClusterSpecError::InvalidInterconnect
            },
            "{link:?}"
        );
        assert!(err.to_string().contains("interconnect"), "{err}");
    }
    // An infinitely fast link is a valid (free) one.
    let free = InterconnectSpec::new(f64::INFINITY, secs(0.0));
    let (report, arrivals) = run_recorded(&evaluator(), spec.with_interconnect(free));
    assert_conserved(&report, &arrivals, 16, "infinite bandwidth");
}

/// The multi-turn session queue: `count` requests re-sessioned into
/// `count / turns` conversations, preserving the calibrated arrival stamps.
fn session_queue(count: usize, turns: u64, seed: u64) -> Vec<Request> {
    WorkloadSpec::mtbench()
        .synthesize_queue(
            count,
            GenLens::Uniform(64),
            seed,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .into_iter()
        .map(|r| {
            let session = r.id / turns;
            r.with_session(session)
        })
        .collect()
}

/// Prefix caches + session-affine routing: sticky and prefix-aware routers
/// actually produce cache hits on a multi-turn queue, accounting stays
/// exactly-once, and cached prefill never changes *what* is generated — only
/// how fast the prompt side goes.
#[test]
fn prefix_caches_hit_under_session_affine_routing() {
    let eval = evaluator();
    let queue = session_queue(240, 8, 29);
    let base = || {
        split_fleet(0, 240, 29, ServingMode::Continuous)
            .with_queue(queue.clone())
            .with_prefix_cache(64 * 1024)
    };
    // Fresh router instances per run: session maps are stateful.
    let routers: Vec<(&str, Arc<dyn Router>)> = vec![
        (
            "sticky-session",
            Arc::new(StickySession::new(Arc::new(LeastOutstandingTokens))),
        ),
        ("prefix-aware", Arc::new(PrefixAware::new())),
    ];
    let uncached = eval
        .run(
            &split_fleet(0, 240, 29, ServingMode::Continuous)
                .with_queue(queue.clone())
                .with_router(Arc::new(StickySession::new(Arc::new(
                    LeastOutstandingTokens,
                )))),
        )
        .unwrap();
    assert!(
        uncached.replicas.iter().all(|r| r.cache.is_none()),
        "no cache configured, none reported"
    );
    for (name, router) in routers {
        let (report, arrivals) = run_recorded(&eval, base().with_router(router));
        assert_conserved(&report, &arrivals, 240, name);
        let stats: Vec<_> = report
            .replicas
            .iter()
            .map(|r| r.cache.expect("every replica carries a cache"))
            .collect();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        let hit_tokens: u64 = stats.iter().map(|s| s.hit_tokens).sum();
        assert!(
            hits > 0 && hit_tokens > 0,
            "{name}: an 8-turn session queue must produce prefix hits"
        );
        assert!(
            stats.iter().all(|s| s.resident_tokens <= s.capacity_tokens),
            "{name}: eviction must keep every cache within capacity"
        );
        assert_eq!(
            report.totals.generated_tokens, uncached.totals.generated_tokens,
            "{name}: cached prefill skips prompt tokens, never generated ones"
        );
    }
}

/// A landed migration is queued with its whole prompt credited and never
/// consults the destination's prefix cache: on a split fleet with caches,
/// each decode replica's cache takes the prompts it admits but records no
/// lookup, while the prefill replicas' caches are looked up.
#[test]
fn a_landed_migration_never_consults_the_prefix_cache() {
    let queue = session_queue(240, 8, 29);
    for mode in MODES {
        let spec = split_fleet(2, 240, 29, mode)
            .with_queue(queue.clone())
            .with_prefix_cache(64 * 1024);
        let report = evaluator().run(&spec).unwrap();
        for replica in &report.replicas {
            let stats = replica.cache.expect("every replica carries a cache");
            let id = replica.id.0;
            if id < 2 {
                assert!(
                    stats.lookups() > 0,
                    "[{mode}] prefill replica {id}: {stats:?}"
                );
            } else {
                assert!(
                    stats.lookups() == 0 && stats.resident_tokens > 0,
                    "[{mode}] decode replica {id}: {stats:?}"
                );
            }
        }
    }
}

/// Disaggregation composes with prefix caches and sticky routing without
/// breaking conservation or loop equivalence.
#[test]
fn disagg_with_caches_and_sticky_routing_stays_conserved_and_equivalent() {
    let queue = session_queue(200, 8, 31);
    let spec = || {
        split_fleet(1, 200, 31, ServingMode::Continuous)
            .with_queue(queue.clone())
            .with_prefix_cache(64 * 1024)
            .with_router(Arc::new(StickySession::new(Arc::new(
                LeastOutstandingTokens,
            ))))
    };
    let (want, arrivals) = run_recorded(&scan(), spec());
    let got = evaluator().run(&spec()).unwrap();
    assert_reports_identical(&want, &got, "disagg + cache + sticky");
    assert_conserved(&got, &arrivals, 200, "disagg + cache + sticky");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form: over random seeds, pool splits, loads and serving
    /// modes, disaggregated fleets conserve every request exactly once and
    /// the indexed loop matches the scan loop.
    #[test]
    fn disagg_conservation_and_equivalence_on_random_splits(
        seed in 0u64..1000,
        prefill in 1usize..4,
        count in 50usize..150,
        rate_x10 in 5u64..30,
        mode_seed in 0u8..2,
    ) {
        let mode = if mode_seed == 0 {
            ServingMode::RoundToCompletion
        } else {
            ServingMode::Continuous
        };
        let spec = || {
            split_fleet(prefill, count, seed, mode).with_arrivals(ArrivalProcess::Poisson {
                rate_per_sec: rate_x10 as f64 / 10.0,
            })
        };
        let (want, arrivals) = run_recorded(&scan(), spec());
        let got = evaluator().run(&spec()).unwrap();
        prop_assert_eq!(&want, &got);
        assert_conserved(&got, &arrivals, count, "random split");
    }
}
