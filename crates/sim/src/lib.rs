//! Discrete-event simulator for a heterogeneous CPU/GPU/PCIe node.
//!
//! This crate stands in for the hardware the paper evaluates on: schedules
//! (CGOPipe and the baselines) emit tasks over four serial lanes — GPU compute,
//! CPU compute, host→device and device→host copies — into a [`TaskSink`], and
//! the tasks are played with CUDA-stream (FIFO per lane, cross-lane dependency)
//! semantics. A [`TaskGraph`] keeps every task so that [`simulate`] can report the
//! makespan, per-lane utilization and the pipeline bubbles that Fig. 6 of the
//! paper visualizes. A [`Player`] plays each task as it is emitted and keeps only
//! the lane clocks, which is all a decode-step costing needs; both apply the same
//! lane rule, so their makespans agree bit for bit.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::Seconds;
//! use moe_sim::{simulate, Lane, Player, TaskGraph, TaskKind, TaskSink};
//!
//! # fn main() -> Result<(), moe_sim::SimError> {
//! // Emit the same two tasks into any sink: layer-1 weights, then the FFN
//! // that needs them.
//! fn emit(sink: &mut impl TaskSink) -> Result<(), moe_sim::SimError> {
//!     let weights = sink.add_task(
//!         Lane::HostToDevice,
//!         Seconds::from_millis(8.0),
//!         TaskKind::WeightTransfer,
//!         "layer-1 weights",
//!         &[],
//!     )?;
//!     sink.add_task(
//!         Lane::GpuCompute,
//!         Seconds::from_millis(3.0),
//!         TaskKind::PostAttention,
//!         "layer-1 FFN",
//!         &[weights],
//!     )?;
//!     Ok(())
//! }
//!
//! let mut graph = TaskGraph::new();
//! emit(&mut graph)?;
//! let result = simulate(&graph);
//! assert_eq!(result.lane(Lane::GpuCompute).bubble.as_millis(), 0.0);
//!
//! let mut player = Player::new();
//! emit(&mut player)?;
//! assert_eq!(player.makespan().as_millis(), 11.0);
//! assert_eq!(player.makespan(), result.makespan);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod task;

pub use engine::{simulate, LaneStats, Player, SimulationResult, TimelineEntry};
pub use task::{Lane, SimError, Task, TaskGraph, TaskId, TaskKind, TaskLabel, TaskSink};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::Seconds;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Builds a random acyclic task graph with backward dependencies.
    fn random_graph(seed: u64, n: usize) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = Lane::all();
        let mut g = TaskGraph::new();
        for i in 0..n {
            let lane = lanes[rng.gen_range(0..lanes.len())];
            let duration = Seconds::from_micros(rng.gen_range(1.0..500.0));
            let mut deps = Vec::new();
            if i > 0 {
                for _ in 0..rng.gen_range(0..3usize) {
                    deps.push(TaskId(rng.gen_range(0..i)));
                }
                deps.sort();
                deps.dedup();
            }
            g.add_task(
                lane,
                duration,
                TaskKind::Other,
                TaskLabel::layer("t", i as u64),
                &deps,
            )
            .unwrap();
        }
        g
    }

    /// Tasks bound to `lane`, in enqueue (FIFO) order.
    fn lane_queue(g: &TaskGraph, lane: Lane) -> Vec<TaskId> {
        g.tasks()
            .iter()
            .filter(|t| t.lane == lane)
            .map(|t| t.id)
            .collect()
    }

    /// Reference player, independent of the streaming `Player`: lanes take turns
    /// running their head task while its dependencies have finished, until
    /// every task has run.
    fn round_robin_makespan(g: &TaskGraph) -> Seconds {
        let queues = Lane::all().map(|lane| lane_queue(g, lane));
        let mut cursor = [0usize; 4];
        let mut lane_free = [Seconds::ZERO; 4];
        let mut finish: Vec<Option<Seconds>> = vec![None; g.len()];
        let mut done = 0;
        while done < g.len() {
            let before = done;
            for (l, queue) in queues.iter().enumerate() {
                while let Some(&id) = queue.get(cursor[l]) {
                    let task = g.task(id).unwrap();
                    let ready = g.deps(task).iter().try_fold(Seconds::ZERO, |ready, dep| {
                        finish[dep.0].map(|f| ready.max(f))
                    });
                    let Some(ready) = ready else { break };
                    let end = lane_free[l].max(ready) + task.duration;
                    lane_free[l] = end;
                    finish[id.0] = Some(end);
                    cursor[l] += 1;
                    done += 1;
                }
            }
            assert!(done > before, "backward-dependency graphs never deadlock");
        }
        finish
            .into_iter()
            .flatten()
            .fold(Seconds::ZERO, Seconds::max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn streamed_makespan_matches_simulate_bit_for_bit(
            seed in 0u64..10_000,
            n in 0usize..120,
            forward in 0usize..4,
        ) {
            let g = random_graph(seed, n);
            let mut player = Player::new();
            for task in g.tasks() {
                let id = player
                    .add_task(task.lane, task.duration, task.kind, task.label, g.deps(task))
                    .unwrap();
                prop_assert_eq!(id, task.id);
            }
            let bits = player.makespan().as_secs().to_bits();
            prop_assert_eq!(bits, simulate(&g).makespan.as_secs().to_bits());
            prop_assert_eq!(bits, round_robin_makespan(&g).as_secs().to_bits());

            // Both sinks reject a dependency on a task not yet emitted, alike.
            let deps = [TaskId(n + forward)];
            let mut graph = g.clone();
            let kept = graph.add_task(Lane::GpuCompute, Seconds::ZERO, TaskKind::Other, "x", &deps);
            let streamed =
                player.add_task(Lane::GpuCompute, Seconds::ZERO, TaskKind::Other, "x", &deps);
            prop_assert_eq!(
                kept.clone(),
                Err(SimError::UnknownDependency { task: n, dependency: n + forward })
            );
            prop_assert_eq!(kept, streamed);
        }

        #[test]
        fn every_backward_dependency_graph_completes(seed in 0u64..10_000, n in 1usize..80) {
            let g = random_graph(seed, n);
            let r = simulate(&g);
            prop_assert_eq!(r.timeline.len(), n);
        }

        #[test]
        fn makespan_bounds_hold(seed in 0u64..10_000, n in 1usize..80) {
            let g = random_graph(seed, n);
            let r = simulate(&g);
            // Lower bound: the busiest lane's total work. Upper bound: sum of all durations.
            let max_lane_work = Lane::all()
                .into_iter()
                .map(|l| g.lane_work(l).as_secs())
                .fold(0.0f64, f64::max);
            let total_work: f64 = g.tasks().iter().map(|t| t.duration.as_secs()).sum();
            prop_assert!(r.makespan.as_secs() >= max_lane_work - 1e-12);
            prop_assert!(r.makespan.as_secs() <= total_work + 1e-12);
        }

        #[test]
        fn makespan_is_monotone_in_every_task_duration(
            seed in 0u64..10_000,
            n in 1usize..80,
            extra_us in 1.0f64..2_000.0,
        ) {
            // With FIFO lanes every start time is a max over earlier finishes, so
            // lengthening one task can delay others but never hasten them.
            let g = random_graph(seed, n);
            let extra = Seconds::from_micros(extra_us);
            let base = simulate(&g).makespan.as_secs();
            for k in 0..n {
                let mut grown = TaskGraph::new();
                let mut player = Player::new();
                for task in g.tasks() {
                    let duration = if task.id.0 == k { task.duration + extra } else { task.duration };
                    let deps = g.deps(task);
                    grown.add_task(task.lane, duration, task.kind, task.label, deps).unwrap();
                    player.add_task(task.lane, duration, task.kind, task.label, deps).unwrap();
                }
                prop_assert!(simulate(&grown).makespan.as_secs() >= base, "task {} grown", k);
                prop_assert!(player.makespan().as_secs() >= base, "task {} grown", k);
            }
        }

        #[test]
        fn dependencies_and_lane_order_respected(seed in 0u64..10_000, n in 2usize..80) {
            let g = random_graph(seed, n);
            let r = simulate(&g);
            let entry = |id: TaskId| r.timeline.iter().find(|e| e.task == id).unwrap();
            let finish = |id: TaskId| entry(id).finish.as_secs();
            let start_of = |id: TaskId| entry(id).start.as_secs();
            for task in g.tasks() {
                for dep in g.deps(task) {
                    prop_assert!(finish(*dep) <= start_of(task.id) + 1e-12,
                        "dependency must finish before dependent starts");
                }
            }
            // FIFO order within each lane.
            for lane in Lane::all() {
                let q = lane_queue(&g, lane);
                for pair in q.windows(2) {
                    prop_assert!(finish(pair[0]) <= start_of(pair[1]) + 1e-12);
                }
            }
        }

        #[test]
        fn lane_utilization_is_a_fraction(seed in 0u64..10_000, n in 1usize..80) {
            let g = random_graph(seed, n);
            let r = simulate(&g);
            for lane in Lane::all() {
                let stats = r.lane(lane);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&stats.utilization));
                prop_assert!(stats.busy.as_secs() <= r.makespan.as_secs() + 1e-12);
            }
        }
    }
}
