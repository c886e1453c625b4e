//! Discrete-event simulator for a heterogeneous CPU/GPU/PCIe node.
//!
//! This crate stands in for the hardware the paper evaluates on: schedules
//! (CGOPipe and the baselines) are tasks over four serial lanes — GPU compute,
//! CPU compute, host→device and device→host copies — played with CUDA-stream
//! (FIFO per lane, cross-lane dependency) semantics. A decode step repeats one
//! layer's tasks once per layer, so a schedule is described once, as a
//! [`LayerTemplate`] whose tasks name their inputs relative to their own layer
//! and their durations by an entry of a table of durations.
//! [`LayerTemplate::unroll`] emits the whole step, with one table's durations,
//! into any [`TaskSink`], such as a [`TaskGraph`] that keeps every task so that
//! [`simulate`] can report the makespan, per-lane utilization and the pipeline
//! bubbles that Fig. 6 of the paper visualizes. [`LayerTemplate::play`] plays
//! the template with a table into finish times alone, in buffers the template
//! keeps: pricing a step that way allocates nothing once the buffers are warm,
//! and its makespan equals [`simulate`]'s on the unrolled graph bit for bit,
//! since both apply one lane rule. A step's structure repeats while its
//! durations change, so a template is built once and played with each step's
//! table: it compiles the structure on its second play in a row and runs the
//! program after.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::Seconds;
//! use moe_sim::{simulate, Dep, Lane, LayerTemplate, TaskGraph, TaskKind, TemplateLabel};
//!
//! # fn main() -> Result<(), moe_sim::SimError> {
//! // One layer: its FFN waits for its weights and the previous layer's FFN,
//! // while the next layer's weights stream in; layer 0's arrive first. Each
//! // task reads its duration from a table: the weights, then the FFN.
//! let mut layer = LayerTemplate::default();
//! layer.set_prologue(0);
//! let ffn = layer.push(
//!     Lane::GpuCompute,
//!     1,
//!     TaskKind::PostAttention,
//!     TemplateLabel::layer("FFN", 0),
//!     &[Dep::Weights, Dep::Task { back: 1, index: 0 }],
//! )?;
//! assert_eq!(ffn, 0);
//! layer.push(
//!     Lane::HostToDevice,
//!     0,
//!     TaskKind::WeightTransfer,
//!     TemplateLabel::layer("W", 1),
//!     &[],
//! )?;
//!
//! let table = [Seconds::from_secs(8.0), Seconds::from_secs(3.0)];
//! let mut graph = TaskGraph::new();
//! layer.unroll(3, &table, &mut graph)?;
//! let labels: Vec<String> = graph.tasks().iter().map(|t| t.label.to_string()).collect();
//! assert_eq!(labels, ["W(0)", "FFN(0)", "W(1)", "FFN(1)", "W(2)", "FFN(2)"]);
//! let result = simulate(&graph);
//! assert_eq!(result.makespan.as_secs(), 27.0);
//! assert_eq!(layer.play(3, &table)?, result.makespan);
//!
//! // The next step: the same structure with new durations.
//! let table = [Seconds::from_secs(2.0), Seconds::from_secs(3.0)];
//! assert_eq!(layer.play(3, &table)?.as_secs(), 11.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod task;
pub mod template;

pub use engine::{simulate, LaneStats, SimulationResult, TimelineEntry};
pub use task::{Lane, SimError, Task, TaskGraph, TaskId, TaskKind, TaskLabel, TaskSink};
pub use template::{Dep, LayerTemplate, TemplateLabel};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::{ComputeRate, FlopCount, Seconds};
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

    /// Builds a random layer template: random lanes, table entries, label
    /// offsets, some weight transfers, with or without a prologue, and up to
    /// three inputs per task: an earlier task of its block, any task up to
    /// four blocks back, or its layer's weight slot.
    fn random_template(seed: u64, width: usize) -> LayerTemplate {
        let mut t = LayerTemplate::default();
        random_template_into(seed, width, width, &mut t);
        t
    }

    /// Pushes the first `len` tasks of the random template of structure
    /// seed `structure` and width `width` into `t`.
    fn random_template_into(structure: u64, len: usize, width: usize, t: &mut LayerTemplate) {
        if structure.is_multiple_of(2) {
            t.set_prologue(width as u32);
        }
        for k in 0..len {
            let (lane, entry, kind, label, deps) = random_task(structure, k, width);
            t.push(lane, entry, kind, label, &deps).unwrap();
        }
    }

    /// A random duration table for templates of width `width`: one entry per
    /// task, then the prologue's.
    fn random_table(durations: u64, width: usize) -> Vec<Seconds> {
        let mut rng = StdRng::seed_from_u64(durations);
        (0..=width)
            .map(|_| Seconds::from_micros(rng.gen_range(0.0..500.0)))
            .collect()
    }

    /// Task `k` of the random template of structure seed `structure`: a
    /// random lane, its own table entry or, shared, a random one, a label
    /// offset, a kind (some weight transfers) and up to three inputs:
    /// an earlier task of its block, any task up to four blocks back, or its
    /// layer's weight slot. Structure seeds below 4 share their first
    /// `3 * structure` tasks with seed 0.
    fn random_task(
        structure: u64,
        k: usize,
        width: usize,
    ) -> (Lane, u32, TaskKind, TemplateLabel, Vec<Dep>) {
        let seed = if structure < 4 && (k as u64) < 3 * structure {
            0
        } else {
            structure
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1 << 20) + k as u64);
        let lanes = Lane::all();
        let lane = lanes[rng.gen_range(0..lanes.len())];
        let entry = match rng.gen_range(0..=width) {
            0 => rng.gen_range(0..=width),
            _ => k,
        } as u32;
        let kind = if rng.gen_range(0..3) == 0 {
            TaskKind::WeightTransfer
        } else {
            TaskKind::Other
        };
        let label = TemplateLabel::micro_batch("t", rng.gen_range(-1i8..=1), k as u64);
        let deps = (0..rng.gen_range(0..=3))
            .map(|_| match rng.gen_range(0..3) {
                0 if k > 0 => Dep::Task {
                    back: 0,
                    index: rng.gen_range(0..k) as u16,
                },
                1 => Dep::Task {
                    back: rng.gen_range(1..=4),
                    index: rng.gen_range(0..width) as u16,
                },
                _ => Dep::Weights,
            })
            .collect();
        (lane, entry, kind, label, deps)
    }

    /// The bits of `simulate`'s makespan on `t` unrolled over `layers` with
    /// durations from `table`, or the unroll's error.
    fn simulated(t: &LayerTemplate, layers: u32, table: &[Seconds]) -> Result<u64, SimError> {
        let mut graph = TaskGraph::new();
        t.unroll(layers, table, &mut graph)?;
        Ok(simulate(&graph).makespan.as_secs().to_bits())
    }

    /// Tasks bound to `lane`, in enqueue (FIFO) order.
    fn lane_queue(g: &TaskGraph, lane: Lane) -> Vec<TaskId> {
        g.tasks()
            .iter()
            .filter(|t| t.lane == lane)
            .map(|t| t.id)
            .collect()
    }

    /// Reference player, independent of `simulate`: lanes take turns
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
        fn simulate_matches_a_round_robin_reference_bit_for_bit(
            seed in 0u64..10_000,
            n in 0usize..120,
            forward in 0usize..4,
        ) {
            let g = random_graph(seed, n);
            prop_assert_eq!(
                simulate(&g).makespan.as_secs().to_bits(),
                round_robin_makespan(&g).as_secs().to_bits()
            );

            // A dependency on a task not yet added is rejected.
            let deps = [TaskId(n + forward)];
            let mut graph = g.clone();
            prop_assert_eq!(
                graph.add_task(Lane::GpuCompute, Seconds::ZERO, TaskKind::Other, "x", &deps),
                Err(SimError::UnknownDependency { task: n, dependency: n + forward })
            );
            // So is a NaN duration, which no start time could follow.
            let nan = FlopCount::from_flops(f64::INFINITY)
                / ComputeRate::from_flops_per_sec(f64::INFINITY);
            prop_assert_eq!(
                graph.add_task(Lane::GpuCompute, nan, TaskKind::Other, "x", &[]),
                Err(SimError::InvalidDuration { task: n })
            );
            prop_assert_eq!(graph, g);
        }

        #[test]
        fn template_player_matches_simulate_on_the_unrolled_graph(
            seed in 0u64..10_000,
            width in 1usize..24,
            layers in 1u32..9,
        ) {
            let mut t = random_template(seed, width);
            let table = random_table(seed, width);
            let mut graph = TaskGraph::new();
            t.unroll(layers, &table, &mut graph).unwrap();
            let bits = simulate(&graph).makespan.as_secs().to_bits();
            prop_assert_eq!(bits, round_robin_makespan(&graph).as_secs().to_bits());
            // Replayed, compiled, then run as a program.
            for _ in 0..3 {
                prop_assert_eq!(t.play(layers, &table).unwrap().as_secs().to_bits(), bits);
            }
        }

        /// A template kept across steps plays each step's table like a
        /// template built fresh for it, played like `simulate` on the
        /// unrolled graph, or fails like the unroll: steps that repeat the
        /// last structure with a new table, and steps that clear the
        /// template and push another structure, one that shares a prefix
        /// with the last, stops short of its end or names a task past the
        /// new end. A clone of a compiled template carries its program, and
        /// a copy pushed further from there is priced as its own structure.
        #[test]
        fn kept_templates_play_new_tables_like_fresh_ones(
            fills in collection::vec((0u64..4, 0u64..10_000, 1usize..24), 1..12),
            width in 1usize..24,
            layers in 1u32..6,
            cut in 0usize..24,
        ) {
            let (mut kept, mut last) = (LayerTemplate::default(), None);
            for (structure, durations, len) in fills {
                let len = len.min(width);
                if last != Some((structure, len)) {
                    kept.clear();
                    random_template_into(structure, len, width, &mut kept);
                    last = Some((structure, len));
                }
                let mut fresh = LayerTemplate::default();
                random_template_into(structure, len, width, &mut fresh);
                let table = random_table(durations, width);
                for _ in 0..3 {
                    let played = kept.play(layers, &table).map(|m| m.as_secs().to_bits());
                    prop_assert_eq!(played, simulated(&fresh, layers, &table));
                }
            }
            let (mut a, cut) = (LayerTemplate::default(), cut.min(width));
            random_template_into(0, cut, width, &mut a);
            let table = random_table(1, width);
            for _ in 0..2 {
                let played = a.play(layers, &table).map(|m| m.as_secs().to_bits());
                prop_assert_eq!(played, simulated(&a, layers, &table));
            }
            let mut b = a.clone();
            for k in cut..width {
                let (lane, entry, kind, label, deps) = random_task(2, k, width);
                b.push(lane, entry, kind, label, &deps).unwrap();
            }
            for durations in 2..5 {
                let table = random_table(durations, width);
                for t in [&mut a, &mut b] {
                    for _ in 0..2 {
                        let played = t.play(layers, &table).map(|m| m.as_secs().to_bits());
                        prop_assert_eq!(played, simulated(t, layers, &table));
                    }
                }
            }
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
                for task in g.tasks() {
                    let duration = if task.id.0 == k { task.duration + extra } else { task.duration };
                    grown.add_task(task.lane, duration, task.kind, task.label, g.deps(task)).unwrap();
                }
                prop_assert!(simulate(&grown).makespan.as_secs() >= base, "task {} grown", k);
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
