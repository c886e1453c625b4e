//! The discrete-event engine: plays emitted tasks on the four serial lanes and
//! reports the resulting timeline, makespan and per-lane utilization / bubble
//! statistics used throughout the evaluation (e.g. the Fig. 6 schedule comparison).

use crate::task::{Lane, TaskGraph, TaskId, TaskKind, TaskLabel};
use moe_hardware::Seconds;
use std::collections::HashMap;

/// One executed task on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// The task that ran.
    pub task: TaskId,
    /// Lane it ran on.
    pub lane: Lane,
    /// Semantic kind.
    pub kind: TaskKind,
    /// Label copied from the task.
    pub label: TaskLabel,
    /// Start time.
    pub start: Seconds,
    /// Finish time.
    pub finish: Seconds,
}

/// Busy/idle statistics for one lane. `Default` is the all-zero record of a lane
/// that executed nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneStats {
    /// Total time the lane spent executing tasks.
    pub busy: Seconds,
    /// Idle time between the lane's first task start and its last task finish
    /// (the "bubbles" highlighted in Fig. 6).
    pub bubble: Seconds,
    /// Busy time divided by the overall makespan (0 when the makespan is 0).
    pub utilization: f64,
    /// Number of tasks executed on the lane.
    pub tasks: usize,
}

/// The result of simulating a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Every executed task, sorted by start time.
    pub timeline: Vec<TimelineEntry>,
    /// Completion time of the last task.
    pub makespan: Seconds,
    /// Per-lane statistics.
    pub lanes: HashMap<Lane, LaneStats>,
    /// Total busy time per task kind (across lanes).
    pub kind_busy: HashMap<TaskKind, Seconds>,
}

impl SimulationResult {
    /// Statistics of one lane (zeroed if the lane executed nothing).
    pub fn lane(&self, lane: Lane) -> LaneStats {
        self.lanes.get(&lane).copied().unwrap_or_default()
    }

    /// Busy time of a task kind.
    pub fn kind_time(&self, kind: TaskKind) -> Seconds {
        self.kind_busy.get(&kind).copied().unwrap_or(Seconds::ZERO)
    }
}

/// Simulates the execution of `graph` and returns the timeline and statistics.
///
/// Each lane executes its tasks in insertion order; a task starts as soon as
/// both the lane is free and all its dependencies have finished (asynchronous
/// launch with stream semantics, matching the CUDA-stream execution model the
/// paper's runtime relies on). Dependencies only point backwards, so by the
/// time a task comes up its lane predecessor and its dependencies have all been
/// played: one pass in insertion order is the whole simulation. Pricing a
/// decode step plays its layer template instead
/// ([`LayerTemplate::play`](crate::LayerTemplate::play)), which applies the
/// same lane rule to finish times alone.
pub fn simulate(graph: &TaskGraph) -> SimulationResult {
    let mut lane_free = [Seconds::ZERO; 4];
    let mut finish: Vec<Seconds> = Vec::with_capacity(graph.len());
    let mut makespan = Seconds::ZERO;
    let mut timeline: Vec<TimelineEntry> = graph
        .tasks()
        .iter()
        .map(|task| {
            let ready = graph
                .deps(task)
                .iter()
                .fold(Seconds::ZERO, |ready, dep| later(ready, finish[dep.0]));
            let (start, end) = occupy(&mut lane_free[task.lane as usize], ready, task.duration);
            finish.push(end);
            makespan = makespan.max(end);
            TimelineEntry {
                task: task.id,
                lane: task.lane,
                kind: task.kind,
                label: task.label,
                start,
                finish: end,
            }
        })
        .collect();
    timeline.sort_by_key(|e| (e.start.key(), e.task.0));

    let mut lanes = HashMap::new();
    for lane in Lane::all() {
        let entries: Vec<&TimelineEntry> = timeline.iter().filter(|e| e.lane == lane).collect();
        if entries.is_empty() {
            continue;
        }
        let busy: Seconds = entries.iter().map(|e| e.finish - e.start).sum();
        let first = entries
            .iter()
            .map(|e| e.start)
            .fold(Seconds::from_secs(f64::INFINITY), Seconds::min);
        let last = entries
            .iter()
            .map(|e| e.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let span = last - first;
        let bubble = span - busy;
        let utilization = if makespan.is_zero() {
            0.0
        } else {
            busy.as_secs() / makespan.as_secs()
        };
        lanes.insert(
            lane,
            LaneStats {
                busy,
                bubble,
                utilization,
                tasks: entries.len(),
            },
        );
    }

    let mut kind_busy: HashMap<TaskKind, Seconds> = HashMap::new();
    for e in &timeline {
        let slot = kind_busy.entry(e.kind).or_insert(Seconds::ZERO);
        *slot += e.finish - e.start;
    }

    SimulationResult {
        timeline,
        makespan,
        lanes,
        kind_busy,
    }
}

/// The lane rule: a task starts once its lane is free and its inputs are
/// `ready`, and holds the lane for its duration. Returns its start and
/// finish.
pub(crate) fn occupy(
    lane_free: &mut Seconds,
    ready: Seconds,
    duration: Seconds,
) -> (Seconds, Seconds) {
    let start = later(*lane_free, ready);
    *lane_free = start + duration;
    (start, *lane_free)
}

/// The later of two times. Every time is a sum of durations, and no task
/// sink accepts a NaN one, so a plain comparison is [`Seconds::max`] without
/// its NaN handling.
pub(crate) fn later(a: Seconds, b: Seconds) -> Seconds {
    if a < b {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSink;

    fn ms(v: f64) -> Seconds {
        Seconds::from_millis(v)
    }

    fn finish_of(r: &SimulationResult, task: TaskId) -> Seconds {
        r.timeline.iter().find(|e| e.task == task).unwrap().finish
    }

    #[test]
    fn empty_graph_has_zero_makespan() {
        let result = simulate(&TaskGraph::new());
        assert!(result.makespan.is_zero());
        assert!(result.timeline.is_empty());
        assert_eq!(result.lane(Lane::GpuCompute).tasks, 0);
    }

    #[test]
    fn independent_tasks_on_different_lanes_overlap() {
        let mut g = TaskGraph::new();
        g.add_task(
            Lane::GpuCompute,
            ms(10.0),
            TaskKind::PostAttention,
            "gpu",
            &[],
        )
        .unwrap();
        g.add_task(Lane::CpuCompute, ms(10.0), TaskKind::Attention, "cpu", &[])
            .unwrap();
        g.add_task(
            Lane::HostToDevice,
            ms(10.0),
            TaskKind::WeightTransfer,
            "w",
            &[],
        )
        .unwrap();
        let r = simulate(&g);
        assert!(
            (r.makespan.as_millis() - 10.0).abs() < 1e-9,
            "perfect overlap expected"
        );
        for lane in [Lane::GpuCompute, Lane::CpuCompute, Lane::HostToDevice] {
            assert!((r.lane(lane).utilization - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn same_lane_tasks_serialize_in_fifo_order() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task(Lane::GpuCompute, ms(5.0), TaskKind::Other, "a", &[])
            .unwrap();
        let b = g
            .add_task(Lane::GpuCompute, ms(5.0), TaskKind::Other, "b", &[])
            .unwrap();
        let r = simulate(&g);
        assert!((r.makespan.as_millis() - 10.0).abs() < 1e-9);
        assert!(finish_of(&r, a) <= finish_of(&r, b));
    }

    #[test]
    fn dependencies_across_lanes_are_respected() {
        let mut g = TaskGraph::new();
        let transfer = g
            .add_task(
                Lane::HostToDevice,
                ms(4.0),
                TaskKind::WeightTransfer,
                "w",
                &[],
            )
            .unwrap();
        let compute = g
            .add_task(
                Lane::GpuCompute,
                ms(3.0),
                TaskKind::PostAttention,
                "c",
                &[transfer],
            )
            .unwrap();
        let r = simulate(&g);
        let t_entry = r.timeline.iter().find(|e| e.task == compute).unwrap();
        assert!((t_entry.start.as_millis() - 4.0).abs() < 1e-9);
        assert!((r.makespan.as_millis() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn head_of_line_blocking_stalls_a_lane() {
        // Lane GPU: [x (depends on slow CPU task), y (independent)].
        // FIFO stream semantics: y cannot jump ahead of x even though it is ready.
        let mut g = TaskGraph::new();
        let slow = g
            .add_task(Lane::CpuCompute, ms(10.0), TaskKind::Attention, "slow", &[])
            .unwrap();
        let x = g
            .add_task(Lane::GpuCompute, ms(1.0), TaskKind::Other, "x", &[slow])
            .unwrap();
        let y = g
            .add_task(Lane::GpuCompute, ms(1.0), TaskKind::Other, "y", &[])
            .unwrap();
        let r = simulate(&g);
        let y_entry = r.timeline.iter().find(|e| e.task == y).unwrap();
        assert!(
            y_entry.start.as_millis() >= 11.0 - 1e-9,
            "y must wait behind x"
        );
        assert!(finish_of(&r, x).as_millis() <= y_entry.start.as_millis() + 1e-9);
    }

    #[test]
    fn bubbles_are_reported_for_gaps_within_a_lane() {
        let mut g = TaskGraph::new();
        let slow = g
            .add_task(Lane::CpuCompute, ms(10.0), TaskKind::Attention, "slow", &[])
            .unwrap();
        g.add_task(Lane::GpuCompute, ms(2.0), TaskKind::PreAttention, "a", &[])
            .unwrap();
        g.add_task(
            Lane::GpuCompute,
            ms(2.0),
            TaskKind::PostAttention,
            "c",
            &[slow],
        )
        .unwrap();
        let r = simulate(&g);
        let gpu = r.lane(Lane::GpuCompute);
        assert!((gpu.busy.as_millis() - 4.0).abs() < 1e-9);
        assert!(
            (gpu.bubble.as_millis() - 8.0).abs() < 1e-9,
            "gap from t=2 to t=10"
        );
        assert_eq!(gpu.tasks, 2);
    }

    #[test]
    fn kind_busy_accumulates_across_lanes() {
        let mut g = TaskGraph::new();
        g.add_task(
            Lane::HostToDevice,
            ms(3.0),
            TaskKind::WeightTransfer,
            "w1",
            &[],
        )
        .unwrap();
        g.add_task(
            Lane::HostToDevice,
            ms(2.0),
            TaskKind::WeightTransfer,
            "w2",
            &[],
        )
        .unwrap();
        g.add_task(Lane::GpuCompute, ms(1.0), TaskKind::PreAttention, "a", &[])
            .unwrap();
        let r = simulate(&g);
        assert!((r.kind_time(TaskKind::WeightTransfer).as_millis() - 5.0).abs() < 1e-9);
        assert!(r.kind_time(TaskKind::KvTransfer).is_zero());
    }

    #[test]
    fn interleaved_cross_lane_dependencies_always_complete() {
        // Because `add_task` only allows dependencies on earlier tasks, every buildable
        // graph is acyclic even with FIFO head-of-line blocking — processing tasks in
        // insertion order is always feasible. Check a densely interleaved ping-pong
        // pattern completes with the expected makespan.
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..16 {
            let lane = if i % 2 == 0 {
                Lane::GpuCompute
            } else {
                Lane::CpuCompute
            };
            let deps: Vec<TaskId> = prev.into_iter().collect();
            let label = TaskLabel::layer("t", i);
            let id = g
                .add_task(lane, ms(1.0), TaskKind::Other, label, &deps)
                .unwrap();
            prev = Some(id);
        }
        let r = simulate(&g);
        assert_eq!(r.timeline.len(), 16);
        assert!(
            (r.makespan.as_millis() - 16.0).abs() < 1e-9,
            "strict chain serializes fully"
        );
    }

    #[test]
    fn timeline_is_sorted_by_start_time() {
        let mut g = TaskGraph::new();
        let w = g
            .add_task(
                Lane::HostToDevice,
                ms(5.0),
                TaskKind::WeightTransfer,
                "w",
                &[],
            )
            .unwrap();
        g.add_task(
            Lane::GpuCompute,
            ms(1.0),
            TaskKind::PostAttention,
            "c",
            &[w],
        )
        .unwrap();
        g.add_task(Lane::CpuCompute, ms(1.0), TaskKind::Attention, "b", &[])
            .unwrap();
        let r = simulate(&g);
        for pair in r.timeline.windows(2) {
            assert!(pair[0].start.as_secs() <= pair[1].start.as_secs());
        }
        assert_eq!(
            r.timeline
                .iter()
                .filter(|e| e.lane == Lane::GpuCompute)
                .count(),
            1
        );
    }
}
