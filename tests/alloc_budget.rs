//! Allocation gates. Step pricing must make no heap allocation once its
//! buffers are warm, and a fleet must stay under a fixed number of heap
//! allocations per offered request: a static fleet, and an autoscaled one
//! with prefix caches, SLO admission and prefix-aware routing.
//!
//! Allocations are counted by a thread-local counting global allocator, so
//! only the thread running the simulation is measured (the fleet loop is
//! single-threaded) and tests running in parallel do not leak into the
//! count. A fresh allocation and a reallocation each count once. The count
//! is deterministic for a fixed scenario, so the gate cannot flake on a slow
//! host.

use moe_bench::fleet::FleetScenario;
use moe_lightning::{
    ClusterEvaluator, ClusterSpec, EvalSetting, FleetTimeline, GenLens, NodeSpec, Policy,
    PrefixAware, ReplicaId, ReplicaSpec, ScaleBounds, ScheduleKind, Seconds, ServingMode,
    SloAdmission, SloAttainmentScaler, SystemEvaluator, SystemKind, WorkloadShape,
};
use moe_workload::{ArrivalProcess, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations and reallocations, then defers to the
/// system allocator.
struct CountingAllocator;

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const REPLICAS: usize = 16;
const REQUESTS: usize = 2_000;

/// The most allocations one offered request may cost on the fleet path
/// (routing, admission, autoscaling, prefix caches, stepping, reporting).
/// The scenario reads 2.87. Admission into fresh result vectors and a fresh
/// released-entry vector per replica step took it to 7.48, step pricing
/// into fresh buffers on top of that to 16.79, and copying the serving
/// views into a fresh vector at every autoscaler observation to 21.82.
const MAX_ALLOCATIONS_PER_REQUEST: f64 = 3.1;

/// A 16-replica fleet-day-shaped run: multi-turn sessions at 1.1x the
/// calibrated fleet rate, prefix-aware routing over 8192-token prefix
/// caches, SLO admission, an SLO-attainment autoscaler and one failure. Only
/// the simulation is counted: calibration and queue synthesis come first.
#[test]
fn the_autoscaled_fleet_path_stays_under_its_allocation_budget() {
    let scenario = FleetScenario::pinned(600).unwrap();
    let rate = 1.1 * REPLICAS as f64 * scenario.per_replica_rate;
    let span = REQUESTS as f64 / rate;
    let queue: Vec<_> = WorkloadSpec::mtbench()
        .synthesize_queue(
            REQUESTS,
            GenLens::Uniform(64),
            11,
            false,
            &ArrivalProcess::Poisson { rate_per_sec: rate },
        )
        .into_iter()
        .map(|r| r.with_session(r.id / 4))
        .collect();
    let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_gen_len(64)
        .with_seed(11)
        .with_mode(ServingMode::Continuous)
        .with_queue(queue)
        .with_prefix_cache(8192)
        .with_router(Arc::new(PrefixAware::new()))
        .with_slo(scenario.slo)
        .with_admission(Arc::new(SloAdmission::new(scenario.slo)))
        .with_autoscaler(
            Arc::new(SloAttainmentScaler::new(scenario.slo, 95.0)),
            ScaleBounds::new(REPLICAS, 2 * REPLICAS, Seconds::from_secs(0.02 * span)),
        )
        .with_timeline(
            FleetTimeline::new()
                .fail_at(Seconds::from_secs(0.3 * span), ReplicaId(1))
                .with_provisioning_delay(Seconds::from_secs(0.02 * span)),
        );
    for _ in 0..REPLICAS {
        spec =
            spec.with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(scenario.policy));
    }
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());

    let before = allocations();
    let report = evaluator.run(&spec).unwrap();
    let per_request = (allocations() - before) as f64 / REQUESTS as f64;

    println!(
        "autoscaled fleet: {per_request:.2} allocations per offered request \
         (budget {MAX_ALLOCATIONS_PER_REQUEST})"
    );
    assert_eq!(report.total_requests(), REQUESTS);
    assert!(
        !report.availability.joins.is_empty(),
        "the scenario must exercise the autoscaler"
    );
    assert!(report
        .replicas
        .iter()
        .any(|r| r.cache.is_some_and(|c| c.hits > 0)));
    assert!(
        per_request <= MAX_ALLOCATIONS_PER_REQUEST,
        "{per_request:.2} allocations per offered request, over the budget of \
         {MAX_ALLOCATIONS_PER_REQUEST}"
    );
}

/// Step pricing — `decode_step_latency_with_loads`, the call a serving
/// engine makes, in the buffers it keeps per thread — makes no heap
/// allocation once it has priced one step: every schedule kind at 1, 4 and
/// 16 micro-batches, with skewed occupancies and contexts that change from
/// step to step, as a serving engine's do.
#[test]
fn step_pricing_allocates_nothing_after_one_warm_up_step() {
    let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let workload = WorkloadShape::new(77, 64);
    for kind in ScheduleKind::all() {
        for n_ub in [1u64, 4, 16] {
            let policy = Policy::offload_default(16 * n_ub, 16);
            let occupancy: Vec<u64> = (0..n_ub).map(|j| 16 - j % 5).collect();
            let mut contexts: Vec<u64> = (0..n_ub).map(|j| 90 + 37 * j).collect();
            for step in 0..4 {
                let before = allocations();
                evaluator
                    .decode_step_latency_with_loads(
                        kind,
                        &policy,
                        &workload,
                        Some(&occupancy),
                        Some(&contexts),
                    )
                    .unwrap();
                let made = allocations() - before;
                assert!(
                    step == 0 || made == 0,
                    "{} at {n_ub} micro-batches, step {step}: {made} allocations",
                    kind.name()
                );
                contexts.iter_mut().for_each(|c| *c += 1);
            }
        }
    }
}

/// Step pricing across structure changes makes no heap allocation either.
/// On every schedule kind, once 1, 4 and 16 micro-batches have each been
/// priced once, cycling 1 → 4 → 16 → 4 → 1 with fresh contexts allocates
/// nothing: each count keeps its own template, the second pricing of a
/// structure compiles it into buffers its first pricing reserved, and later
/// ones run the compiled program. Then 4 micro-batches with only 3 streamed
/// bytes a layer (3 CGOPipe weight pages, not 4: another shape at the same
/// count) three times and the full 4 pages three times allocate nothing
/// either: under CGOPipe each change re-emits the template into what it has
/// allocated, and each shape then replays, compiles and runs its program.
#[test]
fn step_pricing_allocates_nothing_across_structure_changes() {
    let evaluator = SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model());
    let workload = WorkloadShape::new(77, 64);
    let layer_bytes = evaluator
        .cost_model()
        .streamed_layer_bytes(&Policy::offload_default(16, 16))
        .as_bytes();
    for kind in ScheduleKind::all() {
        let price = |(n_ub, few_pages): (u64, bool), step: u64| {
            let mut policy = Policy::offload_default(16 * n_ub, 16);
            if few_pages {
                policy.weights_gpu_ratio = 1.0 - 3.0 / layer_bytes as f64;
                let streamed = evaluator.cost_model().streamed_layer_bytes(&policy);
                assert_eq!(streamed.as_bytes(), 3);
            }
            let occupancy: Vec<u64> = (0..n_ub).map(|j| 16 - j % 5).collect();
            let contexts: Vec<u64> = (0..n_ub).map(|j| 90 + 37 * j + step).collect();
            let before = allocations();
            evaluator
                .decode_step_latency_with_loads(
                    kind,
                    &policy,
                    &workload,
                    Some(&occupancy),
                    Some(&contexts),
                )
                .unwrap();
            // The load vectors above are made before the count starts.
            allocations() - before
        };
        for n_ub in [1, 4, 16] {
            price((n_ub, false), 0);
        }
        let cycle = [1, 4, 16, 4, 1].map(|n_ub| (n_ub, false));
        let same_count = [true, true, true, false, false, false].map(|few_pages| (4, few_pages));
        for (step, shape) in (1..).zip(cycle.into_iter().chain(same_count)) {
            let made = price(shape, step);
            assert_eq!(
                made,
                0,
                "{} at {shape:?} (micro-batches, 3 streamed bytes), cycle step {step}: \
                 {made} allocations",
                kind.name()
            );
        }
    }
}

/// The most allocations one offered request may cost on a static fleet
/// (routing, stepping, reporting), per serving mode. Continuous serving
/// reads 2.40: admission into fresh result vectors and a fresh
/// released-entry vector per replica step took it to 8.74, and step pricing
/// into fresh buffers on top of that to 20.42. Round-to-completion reads
/// 0.51; forming each round through `Scheduler::plan_sorted` and fresh
/// micro-batch vectors took it to 1.00.
const MAX_STATIC_ALLOCATIONS_PER_REQUEST: [(ServingMode, f64); 2] = [
    (ServingMode::Continuous, 2.6),
    (ServingMode::RoundToCompletion, 0.55),
];

/// A static 16-replica fleet on the pinned policy at 1.1x the calibrated
/// fleet rate, in each serving mode: no autoscaler, no admission control,
/// no prefix caches and no failures. Only the simulation is counted.
#[test]
fn a_static_fleet_stays_under_its_allocation_budget() {
    let scenario = FleetScenario::pinned(600).unwrap();
    let rate = 1.1 * REPLICAS as f64 * scenario.per_replica_rate;
    let queue = WorkloadSpec::mtbench().synthesize_queue(
        REQUESTS,
        GenLens::Uniform(64),
        11,
        false,
        &ArrivalProcess::Poisson { rate_per_sec: rate },
    );
    let evaluator = ClusterEvaluator::new(EvalSetting::S1.model());
    for (mode, budget) in MAX_STATIC_ALLOCATIONS_PER_REQUEST {
        let mut spec = ClusterSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
            .with_gen_len(64)
            .with_seed(11)
            .with_mode(mode)
            .with_queue(queue.clone());
        for _ in 0..REPLICAS {
            spec = spec
                .with_replica(ReplicaSpec::new(NodeSpec::t4_single()).with_policy(scenario.policy));
        }

        let before = allocations();
        let report = evaluator.run(&spec).unwrap();
        let per_request = (allocations() - before) as f64 / REQUESTS as f64;

        println!(
            "static fleet [{mode}]: {per_request:.3} allocations per offered request \
             (budget {budget})"
        );
        assert_eq!(report.total_requests(), REQUESTS);
        assert!(
            per_request <= budget,
            "[{mode}] {per_request:.3} allocations per offered request, over the budget of \
             {budget}"
        );
    }
}
