//! One decode layer described once.
//!
//! Every layer of a decode step runs the same tasks in the same lane order,
//! so a schedule is one layer's tasks — a [`LayerTemplate`] — replayed once
//! per layer. A template task names its inputs relative to its own layer: a
//! task of the same or an earlier layer's block, or the weight slot of the
//! layer it computes. A [`TemplatePlayer`] replays it into finish times
//! alone, in a buffer it reuses, while [`LayerTemplate::unroll`] emits the
//! same tasks into any [`TaskSink`] for a full timeline. Both replay the
//! template the same way, so their makespans agree bit for bit.

use crate::engine::{later, occupy};
use crate::task::{Lane, SimError, TaskId, TaskKind, TaskLabel, TaskSink};
use moe_hardware::Seconds;

/// Inputs one template task may wait for.
const MAX_DEPS: usize = 3;

/// A replay keeps one row of handles per block: a cell that is never
/// written, so an unused input reads as absent; the weight slot of the row's
/// layer; then the block's tasks, from `FIRST_TASK` on.
const NOWHERE: u16 = 0;
const WEIGHT_SLOT: u16 = 1;
const FIRST_TASK: u16 = 2;

/// Where a template task finds one of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dep {
    /// Template task `index` of the block `back` layers before this one; with
    /// `back == 0`, an earlier task of the same block. A task the replay did
    /// not emit (see [`TemplateLabel`]) or a block before the first is no
    /// input at all.
    Task {
        /// Blocks back.
        back: u8,
        /// Local index of the task in its block.
        index: u16,
    },
    /// The weights of the layer this task computes: the latest
    /// [`TaskKind::WeightTransfer`] task labelled with that layer so far, the
    /// `W(0)` prologue included. No input if there is none, as when the
    /// layer's weights are resident.
    Weights,
}

/// The label of a template task, relative to the block that emits it.
///
/// The block of layer `b` emits a task as the task of layer `b + offset`,
/// and only if that layer exists. So an offset of `+1` is a next-layer task
/// the last layer does not emit, and an offset of `-1` a task carried over
/// from the previous layer: the first block does not emit it, and one extra
/// block after the last emits only those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateLabel {
    tag: &'static str,
    offset: i8,
    micro_batch: Option<u64>,
}

impl TemplateLabel {
    /// A task rendered `tag(layer)` (e.g. `W(1)`), for layer `b + offset`.
    pub const fn layer(tag: &'static str, offset: i8) -> Self {
        TemplateLabel {
            tag,
            offset,
            micro_batch: None,
        }
    }

    /// A task rendered `tag(layer,micro_batch)` (e.g. `C(2,3)`), for layer
    /// `b + offset`.
    pub const fn micro_batch(tag: &'static str, offset: i8, micro_batch: u64) -> Self {
        TemplateLabel {
            tag,
            offset,
            micro_batch: Some(micro_batch),
        }
    }

    fn at(self, layer: u64) -> TaskLabel {
        match self.micro_batch {
            Some(j) => TaskLabel::micro_batch(self.tag, layer, j),
            None => TaskLabel::layer(self.tag, layer),
        }
    }
}

/// One task of a [`LayerTemplate`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct TemplateTask {
    lane: Lane,
    duration: Seconds,
    kind: TaskKind,
    /// The label's layer offset.
    offset: i8,
    /// Each input as (rows back, cell), unused ones `NOWHERE`; a weight slot
    /// of a task for the next layer is a row ahead.
    deps: [(i16, u16); MAX_DEPS],
}

/// The tasks of one layer, in lane (FIFO) order, plus the step's first-layer
/// rule: layer 0's weights, if streamed, arrive in a prologue transfer
/// `W(0)`. Build it with [`Self::push`]; reuse it across steps with
/// [`Self::clear_for`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTemplate {
    tasks: Vec<TemplateTask>,
    /// Each task's label, apart so that a play's tasks stay small.
    labels: Vec<TemplateLabel>,
    prologue: Option<Seconds>,
    /// Whether any task is carried over from the previous layer, so the
    /// replay needs one extra block after the last layer.
    carries: bool,
    /// The largest local index a dependency on an earlier block names, and
    /// the task naming it: checked against the finished template once per
    /// replay, since a row's cells run into the next row's.
    max_back: Option<(u16, u16)>,
}

impl LayerTemplate {
    /// Empties the template, keeping its storage, with room for `tasks`
    /// tasks before it reallocates.
    pub fn clear_for(&mut self, tasks: usize) {
        self.tasks.clear();
        self.tasks.reserve(tasks);
        self.labels.clear();
        self.labels.reserve(tasks);
        self.prologue = None;
        self.carries = false;
        self.max_back = None;
    }

    /// The local index the next pushed task gets, so that a task can name
    /// itself one block back.
    pub fn next_index(&self) -> u16 {
        u16::try_from(self.tasks.len()).unwrap_or(u16::MAX)
    }

    /// Sets the duration of the `W(0)` prologue that brings layer 0's weights
    /// in before the first layer.
    pub fn set_prologue(&mut self, duration: Seconds) {
        self.prologue = Some(duration);
    }

    /// Appends a task to the layer and returns its local index.
    ///
    /// # Errors
    ///
    /// [`SimError::TemplateDependency`] if the task has more than three
    /// inputs, one of them names a task not yet pushed to its own block, or
    /// its label's layer offset is outside `-1..=1`;
    /// [`SimError::InvalidDuration`] if its duration is NaN.
    pub fn push(
        &mut self,
        lane: Lane,
        duration: Seconds,
        kind: TaskKind,
        label: TemplateLabel,
        deps: &[Dep],
    ) -> Result<u16, SimError> {
        let task = self.tasks.len();
        let invalid = SimError::TemplateDependency { task };
        let index = match u16::try_from(task) {
            Ok(index) if index < u16::MAX - FIRST_TASK => index,
            _ => return Err(invalid),
        };
        if deps.len() > MAX_DEPS || !(-1..=1).contains(&label.offset) {
            return Err(invalid);
        }
        if duration.as_secs().is_nan() {
            return Err(SimError::InvalidDuration { task });
        }
        let mut packed = [(0, NOWHERE); MAX_DEPS];
        let mut max_back = self.max_back;
        for (slot, &dep) in packed.iter_mut().zip(deps) {
            *slot = match dep {
                Dep::Task { back: 0, index: i } if i >= index => return Err(invalid),
                Dep::Task { back, index: i } => {
                    if back > 0 {
                        max_back = max_back.max(Some((i, index)));
                    }
                    // Past the end only if `i` is, which a replay rejects.
                    (i16::from(back), i.saturating_add(FIRST_TASK))
                }
                // The weight slot of layer `b + offset` is in the row of
                // block `b + offset`.
                Dep::Weights => (-i16::from(label.offset), WEIGHT_SLOT),
            };
        }
        self.max_back = max_back;
        self.carries |= label.offset < 0;
        self.labels.push(label);
        self.tasks.push(TemplateTask {
            lane,
            duration,
            kind,
            offset: label.offset,
            deps: packed,
        });
        Ok(index)
    }

    /// Emits the step this template describes over `layers` layers into
    /// `sink`, task by task in lane order, with every dependency resolved to
    /// the [`TaskId`] the sink returned for it.
    ///
    /// # Errors
    ///
    /// [`SimError::TemplateDependency`] if a dependency on an earlier block
    /// names a task past the template's end; otherwise whatever the sink
    /// returns.
    pub fn unroll<S: TaskSink>(&self, layers: u32, sink: &mut S) -> Result<(), SimError> {
        self.replay(layers, &mut Unroll(sink), &mut Vec::new())
    }

    /// Replays the template over `layers` layers into `replay`, keeping each
    /// task's handle in `rows`, one row per block.
    fn replay<R: Replay>(
        &self,
        layers: u32,
        replay: &mut R,
        rows: &mut Vec<R::Handle>,
    ) -> Result<(), SimError> {
        let width = self.tasks.len() + usize::from(FIRST_TASK);
        if let Some((_, task)) = self
            .max_back
            .filter(|&(i, _)| usize::from(i) >= self.tasks.len())
        {
            return Err(SimError::TemplateDependency {
                task: usize::from(task),
            });
        }
        let absent = R::absent();
        let blocks = u64::from(layers) + u64::from(self.carries);
        rows.clear();
        rows.resize(blocks as usize * width, absent);
        let weight_slot = |row: u64| row as usize * width + usize::from(WEIGHT_SLOT);
        if let Some(duration) = self.prologue {
            let prologue = TemplateTask {
                lane: Lane::HostToDevice,
                duration,
                kind: TaskKind::WeightTransfer,
                offset: 0,
                deps: [(0, NOWHERE); MAX_DEPS],
            };
            let label = || TemplateLabel::layer("W", 0);
            rows[weight_slot(0)] = replay.task(&prologue, label, 0, [absent; MAX_DEPS])?;
        }
        let layers = i64::from(layers);
        for block in 0..blocks as i64 {
            // The label offsets this block emits: none carried into the
            // first, none ahead of the last, only carried ones after it.
            let lowest = if block == 0 { 0 } else { -1 };
            let highest = (layers - 1 - block).min(1);
            for (k, task) in self.tasks.iter().enumerate() {
                let offset = i64::from(task.offset);
                if !(lowest..=highest).contains(&offset) {
                    continue;
                }
                // An input in a block before the first is absent.
                let deps = task.deps.map(|(back, at)| match block - i64::from(back) {
                    row if row < 0 => absent,
                    row => rows[row as usize * width + usize::from(at)],
                });
                let layer = (block + offset) as u64;
                let handle = replay.task(task, || self.labels[k], layer, deps)?;
                rows[block as usize * width + usize::from(FIRST_TASK) + k] = handle;
                if task.kind == TaskKind::WeightTransfer {
                    rows[weight_slot(layer)] = handle;
                }
            }
        }
        Ok(())
    }
}

/// A consumer of a replayed template: each task emitted yields a handle the
/// tasks after it name it by.
trait Replay {
    /// What a later task receives for an input.
    type Handle: Copy;

    /// The handle of an input that does not exist.
    fn absent() -> Self::Handle;

    /// Emits `task`, labelled `label()`, as a task of `layer` after `deps`,
    /// absent ones included.
    fn task(
        &mut self,
        task: &TemplateTask,
        label: impl FnOnce() -> TemplateLabel,
        layer: u64,
        deps: [Self::Handle; MAX_DEPS],
    ) -> Result<Self::Handle, SimError>;
}

/// Replays into a [`TaskSink`], naming tasks by the ids it returns.
struct Unroll<'a, S>(&'a mut S);

impl<S: TaskSink> Replay for Unroll<'_, S> {
    type Handle = Option<TaskId>;

    fn absent() -> Self::Handle {
        None
    }

    fn task(
        &mut self,
        task: &TemplateTask,
        label: impl FnOnce() -> TemplateLabel,
        layer: u64,
        deps: [Self::Handle; MAX_DEPS],
    ) -> Result<Self::Handle, SimError> {
        let mut ids = [TaskId(0); MAX_DEPS];
        let mut n = 0;
        for id in deps.into_iter().flatten() {
            ids[n] = id;
            n += 1;
        }
        let label = label().at(layer);
        let id = self
            .0
            .add_task(task.lane, task.duration, task.kind, label, &ids[..n])?;
        Ok(Some(id))
    }
}

/// The four lane clocks of a replay that keeps finish times.
struct Clocks([Seconds; 4]);

impl Replay for Clocks {
    type Handle = Seconds;

    /// A missing input is ready at time zero, which no start precedes.
    fn absent() -> Seconds {
        Seconds::ZERO
    }

    fn task(
        &mut self,
        task: &TemplateTask,
        _label: impl FnOnce() -> TemplateLabel,
        _layer: u64,
        [a, b, c]: [Seconds; MAX_DEPS],
    ) -> Result<Seconds, SimError> {
        let ready = later(later(a, b), c);
        let (_, end) = occupy(&mut self.0[task.lane as usize], ready, task.duration);
        Ok(end)
    }
}

/// Plays a [`LayerTemplate`] with the lane rule of [`crate::simulate`] and
/// returns the step's makespan, keeping only finish times, in a buffer it
/// reuses: after the first play of a step as large, a play allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct TemplatePlayer {
    finish: Vec<Seconds>,
}

impl TemplatePlayer {
    /// The makespan of `template` unrolled over `layers` layers. It equals
    /// [`crate::simulate`] on the [`LayerTemplate::unroll`]ed graph bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// [`SimError::TemplateDependency`] if a dependency names a task past the
    /// template's end.
    pub fn play(&mut self, template: &LayerTemplate, layers: u32) -> Result<Seconds, SimError> {
        let mut clocks = Clocks([Seconds::ZERO; 4]);
        template.replay(layers, &mut clocks, &mut self.finish)?;
        // A lane's clock is its last finish, the latest on that lane.
        Ok(clocks.0.into_iter().fold(Seconds::ZERO, Seconds::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraph;
    use moe_hardware::{ComputeRate, FlopCount};

    fn secs(v: f64) -> Seconds {
        Seconds::from_secs(v)
    }

    /// A two-lane layer: weights for the next layer, and compute that waits
    /// for its own layer's weights and the previous layer's compute.
    fn streaming() -> LayerTemplate {
        let mut t = LayerTemplate::default();
        t.set_prologue(secs(4.0));
        let c = t
            .push(
                Lane::GpuCompute,
                secs(3.0),
                TaskKind::PostAttention,
                TemplateLabel::layer("L", 0),
                &[Dep::Weights, Dep::Task { back: 1, index: 0 }],
            )
            .unwrap();
        assert_eq!(c, 0);
        t.push(
            Lane::HostToDevice,
            secs(4.0),
            TaskKind::WeightTransfer,
            TemplateLabel::layer("W", 1),
            &[],
        )
        .unwrap();
        t
    }

    #[test]
    fn unroll_applies_the_first_and_last_layer_rules() {
        let mut graph = TaskGraph::new();
        streaming().unroll(3, &mut graph).unwrap();
        let labels: Vec<String> = graph.tasks().iter().map(|t| t.label.to_string()).collect();
        assert_eq!(labels, ["W(0)", "L(0)", "W(1)", "L(1)", "W(2)", "L(2)"]);
        let deps: Vec<Vec<usize>> = graph
            .tasks()
            .iter()
            .map(|t| graph.deps(t).iter().map(|d| d.0).collect())
            .collect();
        assert_eq!(
            deps,
            [vec![], vec![0], vec![], vec![2, 1], vec![], vec![4, 3]]
        );
    }

    #[test]
    fn carried_tasks_skip_the_first_block_and_close_the_step() {
        let mut t = LayerTemplate::default();
        let a = t
            .push(
                Lane::CpuCompute,
                secs(1.0),
                TaskKind::Attention,
                TemplateLabel::layer("B", 0),
                &[],
            )
            .unwrap();
        t.push(
            Lane::GpuCompute,
            secs(1.0),
            TaskKind::PostAttention,
            TemplateLabel::layer("C", -1),
            &[Dep::Task { back: 1, index: a }],
        )
        .unwrap();
        let mut graph = TaskGraph::new();
        t.unroll(2, &mut graph).unwrap();
        let labels: Vec<String> = graph.tasks().iter().map(|t| t.label.to_string()).collect();
        assert_eq!(labels, ["B(0)", "B(1)", "C(0)", "C(1)"]);
        assert_eq!(graph.deps(&graph.tasks()[3]), &[TaskId(1)]);
    }

    #[test]
    fn unreachable_dependencies_are_rejected_when_pushed_or_played() {
        let mut t = LayerTemplate::default();
        let push = |t: &mut LayerTemplate, label, deps: &[Dep]| {
            t.push(Lane::GpuCompute, secs(1.0), TaskKind::Other, label, deps)
        };
        let x = TemplateLabel::layer("x", 0);
        let own = [Dep::Task { back: 0, index: 0 }];
        assert_eq!(
            push(&mut t, x, &own),
            Err(SimError::TemplateDependency { task: 0 })
        );
        let two_back = TemplateLabel::layer("x", -2);
        assert_eq!(
            push(&mut t, two_back, &[]),
            Err(SimError::TemplateDependency { task: 0 })
        );
        assert_eq!(
            push(&mut t, x, &[Dep::Weights; 4]),
            Err(SimError::TemplateDependency { task: 0 })
        );
        let nan =
            FlopCount::from_flops(f64::INFINITY) / ComputeRate::from_flops_per_sec(f64::INFINITY);
        assert_eq!(
            t.push(Lane::GpuCompute, nan, TaskKind::Other, x, &[]),
            Err(SimError::InvalidDuration { task: 0 })
        );
        // No rejected task was pushed. A previous block's task past the end
        // is caught when played.
        assert_eq!(push(&mut t, x, &[]), Ok(0));
        push(&mut t, x, &[Dep::Task { back: 1, index: 5 }]).unwrap();
        let err = SimError::TemplateDependency { task: 1 };
        assert_eq!(TemplatePlayer::default().play(&t, 2), Err(err.clone()));
        assert_eq!(t.unroll(2, &mut TaskGraph::new()), Err(err));
    }
}
