//! Tasks, lanes and task graphs for the heterogeneous-node simulator.
//!
//! The decode-stage pipeline of the paper uses four serial execution *lanes*
//! (Fig. 6): the GPU compute stream, the CPU compute pool, and the two PCIe copy
//! directions (host→device and device→host). A schedule is a set of tasks, each
//! bound to one lane with a fixed duration, connected by dependency edges; each lane
//! executes its tasks strictly in the order they were enqueued (CUDA-stream
//! semantics), which is exactly what makes naive orderings leave bubbles.

use moe_hardware::Seconds;
use std::fmt;
use std::ops::Range;

/// A serial execution lane of the simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// The GPU compute stream.
    GpuCompute,
    /// The CPU compute pool (all cores, treated as one serial attention worker pool).
    CpuCompute,
    /// PCIe copies from host (CPU) memory to device (GPU) memory.
    HostToDevice,
    /// PCIe copies from device memory to host memory.
    DeviceToHost,
}

impl Lane {
    /// All lanes, in display order.
    pub fn all() -> [Lane; 4] {
        [
            Lane::GpuCompute,
            Lane::CpuCompute,
            Lane::HostToDevice,
            Lane::DeviceToHost,
        ]
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Lane::GpuCompute => "GPU",
            Lane::CpuCompute => "CPU",
            Lane::HostToDevice => "HtoD",
            Lane::DeviceToHost => "DtoH",
        };
        f.write_str(s)
    }
}

/// Semantic category of a task, used for per-kind statistics and the Fig. 6 style
/// timeline output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// GPU pre-attention work (layer norm + QKV projection), `A_x` in Fig. 6.
    PreAttention,
    /// Attention core (softmax over the KV cache), `B_x` in Fig. 6.
    Attention,
    /// GPU post-attention work (O projection + router + MoE FFN), `C_x` in Fig. 6.
    PostAttention,
    /// Weight page transfer from host to device.
    WeightTransfer,
    /// KV-cache block transfer from host to device.
    KvTransfer,
    /// Hidden-state upload from host to device (`Hidden HtoD`, transfer D2).
    HiddenTransfer,
    /// QKV offload from device to host (`QKV DtoH`, transfer D1).
    QkvOffload,
    /// Host-side copy from pageable DRAM into pinned staging memory.
    PinnedStaging,
    /// Anything else (prologue, synchronization, prefill chunks).
    Other,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskKind::PreAttention => "pre-attn",
            TaskKind::Attention => "attention",
            TaskKind::PostAttention => "post-attn",
            TaskKind::WeightTransfer => "weights",
            TaskKind::KvTransfer => "kv-transfer",
            TaskKind::HiddenTransfer => "hidden-h2d",
            TaskKind::QkvOffload => "qkv-d2h",
            TaskKind::PinnedStaging => "pinned-copy",
            TaskKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Identifier of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Human-readable task name: a static tag plus up to two indices (layer and
/// micro-batch), rendered on demand — `C(2,3)` for post-attention of layer 2,
/// micro-batch 3. Being `Copy`, it costs nothing to build on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskLabel {
    tag: &'static str,
    indices: LabelIndices,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LabelIndices {
    None,
    One(u64),
    Two([u64; 2]),
}

impl TaskLabel {
    /// A label with one index, rendered `tag(i)` (e.g. `W(1)`).
    pub const fn layer(tag: &'static str, layer: u64) -> Self {
        TaskLabel {
            tag,
            indices: LabelIndices::One(layer),
        }
    }

    /// A label with two indices, rendered `tag(i,j)` (e.g. `C(2,3)`).
    pub const fn micro_batch(tag: &'static str, layer: u64, micro_batch: u64) -> Self {
        TaskLabel {
            tag,
            indices: LabelIndices::Two([layer, micro_batch]),
        }
    }

    /// The label's indices, so a kernel can recover its position: `[layer]`
    /// for `W(l)`, `[layer, page or micro-batch]` for `Wp(l,j)` and
    /// `A/QKV/B/H/C(l,j)`, and none for a bare tag.
    pub fn indices(&self) -> &[u64] {
        match &self.indices {
            LabelIndices::None => &[],
            LabelIndices::One(i) => std::slice::from_ref(i),
            LabelIndices::Two(ij) => ij,
        }
    }
}

/// A bare tag, rendered as is.
impl From<&'static str> for TaskLabel {
    fn from(tag: &'static str) -> Self {
        TaskLabel {
            tag,
            indices: LabelIndices::None,
        }
    }
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.indices {
            LabelIndices::None => f.write_str(self.tag),
            LabelIndices::One(i) => write!(f, "{}({i})", self.tag),
            LabelIndices::Two([i, j]) => write!(f, "{}({i},{j})", self.tag),
        }
    }
}

/// A single unit of work bound to a lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The task's id (its index in the graph).
    pub id: TaskId,
    /// The lane the task executes on.
    pub lane: Lane,
    /// Execution time of the task once started.
    pub duration: Seconds,
    /// Semantic category.
    pub kind: TaskKind,
    /// Human-readable label, e.g. `C(2,3)` for post-attention of layer 2,
    /// micro-batch 3.
    pub label: TaskLabel,
    /// This task's slice of the graph's dependency pool ([`TaskGraph::deps`]).
    deps: Range<usize>,
}

/// Errors produced while building a task graph or a layer template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A dependency refers to a task id that has not been added yet.
    UnknownDependency {
        /// The task declaring the dependency.
        task: usize,
        /// The missing dependency id.
        dependency: usize,
    },
    /// A layer-template task names an input the template cannot reach (see
    /// [`LayerTemplate::push`](crate::LayerTemplate::push)).
    TemplateDependency {
        /// Local index of the task declaring the input.
        task: usize,
    },
    /// A task has a NaN duration.
    InvalidDuration {
        /// The task's id, or its local index in a layer template, where the
        /// `W(0)` prologue counts as the task after the last.
        task: usize,
    },
    /// A layer-template task reads its duration from an entry past the end
    /// of the table it is played or unrolled with (see
    /// [`LayerTemplate::play`](crate::LayerTemplate::play)).
    MissingDuration {
        /// Local index of the task, the prologue counted as the task after
        /// the last.
        task: usize,
    },
    /// A decode step was given no micro-batches.
    NoMicroBatches,
    /// A micro-batch of a decode step holds no sequences.
    ZeroOccupancy {
        /// The empty micro-batch.
        micro_batch: usize,
    },
    /// A micro-batch of a decode step reads no context.
    ZeroContext {
        /// The micro-batch.
        micro_batch: usize,
    },
    /// The per-micro-batch contexts of a decode step do not match its
    /// micro-batches one to one.
    ContextCount {
        /// Micro-batches in the step.
        micro_batches: usize,
        /// Contexts given.
        contexts: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownDependency { task, dependency } => {
                write!(f, "task {task} depends on unknown task {dependency}")
            }
            SimError::TemplateDependency { task } => {
                write!(f, "layer-template task {task} names an unreachable input")
            }
            SimError::InvalidDuration { task } => write!(f, "task {task} has a NaN duration"),
            SimError::MissingDuration { task } => {
                write!(
                    f,
                    "layer-template task {task} reads past its duration table"
                )
            }
            SimError::NoMicroBatches => f.write_str("a decode step needs at least one micro-batch"),
            SimError::ZeroOccupancy { micro_batch } => write!(
                f,
                "per-micro-batch occupancies must be positive, micro-batch {micro_batch} is empty"
            ),
            SimError::ZeroContext { micro_batch } => write!(
                f,
                "per-micro-batch contexts must be positive, micro-batch {micro_batch} reads none"
            ),
            SimError::ContextCount {
                micro_batches,
                contexts,
            } => write!(
                f,
                "per-micro-batch contexts need the same length as the micro-batches: \
                 {contexts} contexts for {micro_batches} micro-batches"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A consumer of an emitted schedule, such as a [`TaskGraph`] that keeps every
/// task; [`LayerTemplate::unroll`](crate::LayerTemplate::unroll) emits a step
/// into any sink.
pub trait TaskSink {
    /// Adds a task; dependencies must reference previously added tasks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] if a dependency id is out of
    /// range, [`SimError::InvalidDuration`] if the duration is NaN.
    fn add_task(
        &mut self,
        lane: Lane,
        duration: Seconds,
        kind: TaskKind,
        label: impl Into<TaskLabel>,
        deps: &[TaskId],
    ) -> Result<TaskId, SimError>;
}

/// A buildable set of tasks with lane bindings and dependencies.
///
/// Dependencies may only point at earlier tasks, so insertion order is always
/// a valid execution order: no graph can deadlock under FIFO lanes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// Every task's dependencies, back to back in insertion order.
    deps: Vec<TaskId>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks in insertion order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0)
    }

    /// Tasks that must finish before `task` may start (in addition to earlier
    /// tasks on the same lane), in the order they were declared.
    pub fn deps(&self, task: &Task) -> &[TaskId] {
        &self.deps[task.deps.clone()]
    }

    /// Sum of all task durations on a lane (lower bound on that lane's busy time).
    pub fn lane_work(&self, lane: Lane) -> Seconds {
        self.tasks
            .iter()
            .filter(|t| t.lane == lane)
            .map(|t| t.duration)
            .sum()
    }
}

impl TaskSink for TaskGraph {
    fn add_task(
        &mut self,
        lane: Lane,
        duration: Seconds,
        kind: TaskKind,
        label: impl Into<TaskLabel>,
        deps: &[TaskId],
    ) -> Result<TaskId, SimError> {
        let id = TaskId(self.tasks.len());
        if let Some(dep) = deps.iter().find(|dep| dep.0 >= id.0) {
            return Err(SimError::UnknownDependency {
                task: id.0,
                dependency: dep.0,
            });
        }
        if duration.as_secs().is_nan() {
            return Err(SimError::InvalidDuration { task: id.0 });
        }
        let start = self.deps.len();
        self.deps.extend_from_slice(deps);
        self.tasks.push(Task {
            id,
            lane,
            duration,
            kind,
            label: label.into(),
            deps: start..self.deps.len(),
        });
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_task_assigns_sequential_ids() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task(
                Lane::GpuCompute,
                Seconds::from_millis(1.0),
                TaskKind::PreAttention,
                "a",
                &[],
            )
            .unwrap();
        let b = g
            .add_task(
                Lane::CpuCompute,
                Seconds::from_millis(2.0),
                TaskKind::Attention,
                "b",
                &[a],
            )
            .unwrap();
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.deps(g.task(b).unwrap()), &[a]);
        assert!(g.deps(g.task(a).unwrap()).is_empty());
        assert!(g.task(TaskId(5)).is_none());
    }

    #[test]
    fn forward_dependencies_are_rejected() {
        let mut g = TaskGraph::new();
        let err = g
            .add_task(
                Lane::GpuCompute,
                Seconds::ZERO,
                TaskKind::Other,
                "x",
                &[TaskId(3)],
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownDependency {
                task: 0,
                dependency: 3
            }
        );
        assert!(g.is_empty(), "a rejected task is not added");
    }

    #[test]
    fn lane_work_sums_durations() {
        let mut g = TaskGraph::new();
        g.add_task(
            Lane::GpuCompute,
            Seconds::from_millis(3.0),
            TaskKind::Other,
            "x",
            &[],
        )
        .unwrap();
        g.add_task(
            Lane::GpuCompute,
            Seconds::from_millis(4.0),
            TaskKind::Other,
            "y",
            &[],
        )
        .unwrap();
        g.add_task(
            Lane::CpuCompute,
            Seconds::from_millis(9.0),
            TaskKind::Other,
            "z",
            &[],
        )
        .unwrap();
        assert!((g.lane_work(Lane::GpuCompute).as_millis() - 7.0).abs() < 1e-9);
        assert!((g.lane_work(Lane::CpuCompute).as_millis() - 9.0).abs() < 1e-9);
        assert!(g.lane_work(Lane::DeviceToHost).is_zero());
    }

    #[test]
    fn display_of_lanes_and_kinds() {
        assert_eq!(Lane::GpuCompute.to_string(), "GPU");
        assert_eq!(Lane::HostToDevice.to_string(), "HtoD");
        assert_eq!(TaskKind::WeightTransfer.to_string(), "weights");
        assert_eq!(TaskLabel::micro_batch("C", 2, 3).to_string(), "C(2,3)");
        assert_eq!(TaskLabel::micro_batch("C", 2, 3).indices(), &[2, 3]);
        assert_eq!(TaskLabel::layer("W", 1).indices(), &[1]);
        assert!(TaskLabel::from("x").indices().is_empty());
        assert_eq!(Lane::all().len(), 4);
    }
}
