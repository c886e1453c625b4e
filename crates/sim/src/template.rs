//! One decode layer described once.
//!
//! Every layer of a decode step runs the same tasks in the same lane order,
//! so a schedule is one layer's tasks — a [`LayerTemplate`] — replayed once
//! per layer. A template task names its inputs relative to its own layer: a
//! task of the same or an earlier layer's block, or the weight slot of the
//! layer it computes. It names its duration by where to read it: an entry
//! of the duration table each unroll or play is given.
//! [`LayerTemplate::unroll`] emits the step into any [`TaskSink`] for a full
//! timeline, and [`LayerTemplate::play`] plays it into finish times alone,
//! in buffers the template keeps.
//!
//! A step is a max-plus linear system: which task waits for which, and on
//! which lane, is the template, and only the durations change from step to
//! step. So a template is built once per structure and played with each
//! step's table. A play replays a structure the first time; the second time
//! in a row it also compiles it into a flat program, each emitted task's
//! table entry and the finish-time slots of its lane predecessor and inputs
//! resolved once; after that it runs the program on the table. All three
//! apply the same lane rule with the same arithmetic in the same order, so
//! every makespan agrees with [`crate::simulate`] on the unrolled graph bit
//! for bit.

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
    /// The micro-batch index, if `has_micro_batch`, else 0: kept apart from
    /// its flag so that a label stays small.
    micro_batch: u64,
    has_micro_batch: bool,
    offset: i8,
}

impl TemplateLabel {
    /// A task rendered `tag(layer)` (e.g. `W(1)`), for layer `b + offset`.
    pub const fn layer(tag: &'static str, offset: i8) -> Self {
        TemplateLabel {
            tag,
            micro_batch: 0,
            has_micro_batch: false,
            offset,
        }
    }

    /// A task rendered `tag(layer,micro_batch)` (e.g. `C(2,3)`), for layer
    /// `b + offset`.
    pub const fn micro_batch(tag: &'static str, offset: i8, micro_batch: u64) -> Self {
        TemplateLabel {
            tag,
            micro_batch,
            has_micro_batch: true,
            offset,
        }
    }

    fn at(self, layer: u64) -> TaskLabel {
        if self.has_micro_batch {
            TaskLabel::micro_batch(self.tag, layer, self.micro_batch)
        } else {
            TaskLabel::layer(self.tag, layer)
        }
    }
}

/// One task of a [`LayerTemplate`], as a replay reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TemplateTask {
    lane: Lane,
    /// The duration table entry it reads its duration from.
    entry: u32,
    kind: TaskKind,
    /// The label's layer offset.
    offset: i8,
    /// Each input as (rows back, cell), unused ones `NOWHERE`; a weight slot
    /// of a task for the next layer is a row ahead.
    deps: [(i16, u16); MAX_DEPS],
}

/// What a replay needs to know of a template's tasks before it plays them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Reach {
    /// Whether any task is carried over from the previous layer, so the
    /// replay needs one extra block after the last layer.
    carries: bool,
    /// The largest local index a dependency on an earlier block names, and
    /// the task naming it, as `index << 16 | task` plus one, or zero if there
    /// is none: checked against the finished template once per replay, since
    /// a row's cells run into the next row's.
    max_back: u32,
}

/// `deps` of a task labelled with layer offset `offset`, packed into the
/// cells a replay reads them from, unused ones `NOWHERE`, if there are at
/// most three. A dependency index is below `u16::MAX - FIRST_TASK` once
/// checked, so checked inputs pack to distinct cells, none of them
/// `NOWHERE`.
fn cells(deps: &[Dep], offset: i8) -> Option<[(i16, u16); MAX_DEPS]> {
    let mut packed = [(0, NOWHERE); MAX_DEPS];
    if deps.len() > MAX_DEPS {
        return None;
    }
    for (slot, &dep) in packed.iter_mut().zip(deps) {
        *slot = match dep {
            Dep::Task { back, index } => (i16::from(back), index.saturating_add(FIRST_TASK)),
            // The weight slot of layer `b + offset` is in the row of block
            // `b + offset`.
            Dep::Weights => (-i16::from(offset), WEIGHT_SLOT),
        };
    }
    Some(packed)
}

/// A template's structure: its tasks, their labels (apart, so that a
/// replay's tasks stay small), what a replay needs to know of them, and the
/// `W(0)` prologue as a task of its own, if there is one.
#[derive(Debug, Clone, Default)]
struct Structure {
    tasks: Vec<TemplateTask>,
    labels: Vec<TemplateLabel>,
    reach: Reach,
    prologue: Option<TemplateTask>,
    /// One past the largest table entry a task or the prologue reads.
    entries: usize,
}

impl Structure {
    /// Checks that `table` holds a duration that is not NaN for every task
    /// and the prologue.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingDuration`] if a task reads an entry past the
    /// table's end, [`SimError::InvalidDuration`] if it reads a NaN: the
    /// first such task, the prologue counted as the task after the last.
    fn check(&self, table: &[Seconds]) -> Result<(), SimError> {
        // Branch-free, so that the scan of a table without NaNs vectorizes.
        let nan = table
            .iter()
            .fold(false, |nan, d| nan | d.as_secs().is_nan());
        if table.len() >= self.entries && !nan {
            return Ok(());
        }
        let tasks = self.tasks.iter().chain(&self.prologue);
        for (task, t) in tasks.enumerate() {
            match table.get(t.entry as usize) {
                None => return Err(SimError::MissingDuration { task }),
                Some(d) if d.as_secs().is_nan() => return Err(SimError::InvalidDuration { task }),
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// The tasks of one layer, in lane (FIFO) order, plus the step's first-layer
/// rule: layer 0's weights, if streamed, arrive in a prologue transfer
/// `W(0)`. Build it with [`Self::push`], start over with [`Self::clear`],
/// and price a step with [`Self::play`] on that step's duration table.
///
/// The template keeps what its plays need beside its tasks: after the first
/// play of a step as large, a play allocates nothing. A clone carries its
/// own copy of both.
#[derive(Debug, Clone, Default)]
pub struct LayerTemplate {
    structure: Structure,
    /// The layers of the last play, if no push has changed the structure
    /// since: a push that does clears it.
    played: Option<u32>,
    /// Whether `program` is compiled from the structure and layers `played`
    /// names.
    compiled: bool,
    /// A play's finish times; a replay's rows of them.
    finish: Vec<Seconds>,
    /// A compiling replay's rows of finish-time slots.
    slots: Vec<u16>,
    program: Vec<Step>,
    /// The program's last finish-time slot on each lane.
    lane_ends: [u16; 4],
    work: PlayWork,
}

impl LayerTemplate {
    /// Empties the template, keeping what it has allocated, for the pushes
    /// of another structure.
    pub fn clear(&mut self) {
        let structure = &mut self.structure;
        structure.tasks.clear();
        structure.labels.clear();
        structure.reach = Reach::default();
        structure.prologue = None;
        structure.entries = 0;
        self.played = None;
    }

    /// The local index the next pushed task gets, so that a task can name
    /// itself one block back.
    pub fn next_index(&self) -> u16 {
        u16::try_from(self.structure.tasks.len()).unwrap_or(u16::MAX)
    }

    /// Adds the `W(0)` prologue that brings layer 0's weights in before the
    /// first layer, its duration read from table entry `entry`.
    pub fn set_prologue(&mut self, entry: u32) {
        let structure = &mut self.structure;
        structure.prologue = Some(TemplateTask {
            lane: Lane::HostToDevice,
            entry,
            kind: TaskKind::WeightTransfer,
            offset: 0,
            deps: [(0, NOWHERE); MAX_DEPS],
        });
        structure.entries = structure.entries.max(entry as usize + 1);
        self.played = None;
    }

    /// Appends a task to the layer, its duration read from table entry
    /// `entry`, and returns its local index.
    ///
    /// # Errors
    ///
    /// [`SimError::TemplateDependency`] if the task has more than three
    /// inputs, one of them names a task not yet pushed to its own block or
    /// an index no template reaches (`u16::MAX - 2` or more), or its label's
    /// layer offset is outside `-1..=1`. A rejected task leaves the template
    /// as it was.
    pub fn push(
        &mut self,
        lane: Lane,
        entry: u32,
        kind: TaskKind,
        label: TemplateLabel,
        deps: &[Dep],
    ) -> Result<u16, SimError> {
        let structure = &mut self.structure;
        let task = structure.tasks.len();
        let mut reach = structure.reach;
        let deps = Self::pack(task, label, deps, &mut reach)?;
        structure.entries = structure.entries.max(entry as usize + 1);
        structure.tasks.push(TemplateTask {
            lane,
            entry,
            kind,
            offset: label.offset,
            deps,
        });
        structure.labels.push(label);
        structure.reach = reach;
        self.played = None;
        Ok(task as u16)
    }

    /// Checks task `task`'s label and inputs, and packs the inputs into
    /// cells; adds the task to `reach`, that of the tasks before it.
    fn pack(
        task: usize,
        label: TemplateLabel,
        deps: &[Dep],
        reach: &mut Reach,
    ) -> Result<[(i16, u16); MAX_DEPS], SimError> {
        let invalid = SimError::TemplateDependency { task };
        let index = match u16::try_from(task) {
            Ok(index) if index < u16::MAX - FIRST_TASK => index,
            _ => return Err(invalid),
        };
        if deps.len() > MAX_DEPS || !(-1..=1).contains(&label.offset) {
            return Err(invalid);
        }
        for &dep in deps {
            match dep {
                // No template reaches this far.
                Dep::Task { index: i, .. } if i >= u16::MAX - FIRST_TASK => return Err(invalid),
                Dep::Task { back: 0, index: i } if i >= index => return Err(invalid),
                // Past the end only if `i` is, which a replay rejects.
                Dep::Task { back, index: i } if back > 0 => {
                    let named = (u32::from(i) << 16 | u32::from(index)) + 1;
                    reach.max_back = reach.max_back.max(named);
                }
                _ => {}
            }
        }
        let packed = cells(deps, label.offset).ok_or(invalid)?;
        reach.carries |= label.offset < 0;
        Ok(packed)
    }

    /// Emits the step this template describes over `layers` layers, with
    /// durations read from `table`, into `sink`, task by task in lane order,
    /// with every dependency resolved to the [`TaskId`] the sink returned
    /// for it.
    ///
    /// # Errors
    ///
    /// As [`Self::play`]; otherwise whatever the sink returns.
    pub fn unroll<S: TaskSink>(
        &self,
        layers: u32,
        table: &[Seconds],
        sink: &mut S,
    ) -> Result<(), SimError> {
        self.structure.check(table)?;
        replay(
            &self.structure,
            table,
            layers,
            &mut Unroll(sink),
            &mut Vec::new(),
        )
    }

    /// The makespan of the step this template describes over `layers`
    /// layers, with durations read from `table`, played with the lane rule
    /// of [`crate::simulate`] into finish times alone. It equals
    /// [`crate::simulate`] on the [`Self::unroll`]ed graph bit for bit.
    ///
    /// A play replays a structure it did not just play, compiles it the
    /// second time in a row, and runs the compiled program from then on. A
    /// structure is the template's tasks and prologue, as long as no push
    /// changes them, and `layers`.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingDuration`] if a task reads an entry past the
    /// table's end, [`SimError::InvalidDuration`] if it reads a NaN (the
    /// prologue counts as the task after the last), and
    /// [`SimError::TemplateDependency`] if a dependency names a task past
    /// the template's end.
    pub fn play(&mut self, layers: u32, table: &[Seconds]) -> Result<Seconds, SimError> {
        self.structure.check(table)?;
        if self.played != Some(layers) {
            return self.replay_clocks(layers, table);
        }
        if self.compiled {
            self.work.programs += 1;
            return Ok(self.run(table));
        }
        // A structure with more replay cells than a 16-bit slot can name is
        // replayed every time; `finish` holds the last replay's cells.
        if u16::try_from(self.finish.len()).is_err() {
            return self.replay_clocks(layers, table);
        }
        self.work.compiles += 1;
        self.program.clear();
        self.finish.clear();
        self.finish.push(Seconds::ZERO);
        let mut compile = Compile {
            program: &mut self.program,
            finish: &mut self.finish,
            lane_ends: [0; 4],
        };
        replay(
            &self.structure,
            table,
            layers,
            &mut compile,
            &mut self.slots,
        )?;
        self.lane_ends = compile.lane_ends;
        self.compiled = true;
        Ok(self.makespan())
    }

    /// Plays a structure not just played, and reserves what compiling it
    /// will need: the rows' length bounds both the program and its finish
    /// times.
    ///
    /// This tier is kept, rather than compiling every structure on sight:
    /// paper-sweep meets a new structure on 58% of its plays, and a
    /// prototype that compiled on first sighting (with 32-bit finish slots)
    /// lost paper-sweep `host_items_per_s` in 10 of 10 alternating 10 s
    /// pairs on a 2-vCPU VM, median 145.0k → 128.6k (−11.3%), while traced
    /// `stepcost.us_per_call` rose from 3.11–3.27 µs to 3.62–5.80 µs.
    fn replay_clocks(&mut self, layers: u32, table: &[Seconds]) -> Result<Seconds, SimError> {
        self.work.replays += 1;
        self.played = None;
        self.compiled = false;
        let mut clocks = Clocks([Seconds::ZERO; 4]);
        replay(
            &self.structure,
            table,
            layers,
            &mut clocks,
            &mut self.finish,
        )?;
        let rows = self.finish.len();
        if u16::try_from(rows).is_ok() {
            self.slots.reserve(rows.saturating_sub(self.slots.len()));
            self.program.clear();
            self.program.reserve(rows);
        }
        self.played = Some(layers);
        Ok(clocks.makespan())
    }

    /// Runs the compiled program on the durations in `table`: the replay's
    /// arithmetic, task for task, with every handle resolved.
    fn run(&mut self, table: &[Seconds]) -> Seconds {
        let finish = &mut self.finish;
        finish.clear();
        finish.push(Seconds::ZERO);
        for step in &self.program {
            finish.push(step.end(finish, table[step.entry as usize]));
        }
        self.makespan()
    }

    /// The makespan of the step whose finish times `finish` holds.
    fn makespan(&self) -> Seconds {
        let [a, b, c, d] = self.lane_ends;
        let at = |slot: u16| self.finish[slot as usize];
        Clocks([at(a), at(b), at(c), at(d)]).makespan()
    }

    /// How the template has been played so far.
    #[doc(hidden)]
    pub fn work(&self) -> PlayWork {
        self.work
    }
}

/// Replays `structure` over `layers` layers into `into`, with durations
/// from `table`, keeping each task's handle in `rows`, one row per block.
fn replay<R: Replay>(
    structure: &Structure,
    table: &[Seconds],
    layers: u32,
    into: &mut R,
    rows: &mut Vec<R::Handle>,
) -> Result<(), SimError> {
    let tasks = &structure.tasks;
    let width = tasks.len() + usize::from(FIRST_TASK);
    if let Some(named) = structure.reach.max_back.checked_sub(1) {
        if (named >> 16) as usize >= tasks.len() {
            return Err(SimError::TemplateDependency {
                task: (named & 0xffff) as usize,
            });
        }
    }
    let blocks = u64::from(layers) + u64::from(structure.reach.carries);
    let absent = R::absent();
    rows.clear();
    rows.resize(blocks as usize * width, absent);
    let weight_slot = |row: u64| row as usize * width + usize::from(WEIGHT_SLOT);
    let duration = |task: &TemplateTask| table[task.entry as usize];
    if let Some(prologue) = &structure.prologue {
        let label = || TemplateLabel::layer("W", 0);
        let deps = [absent; MAX_DEPS];
        rows[weight_slot(0)] = into.task(prologue, duration(prologue), label, 0, deps)?;
    }
    let layers = i64::from(layers);
    for block in 0..blocks as i64 {
        // The label offsets this block emits: none carried into the
        // first, none ahead of the last, only carried ones after it.
        let lowest = if block == 0 { 0 } else { -1 };
        let highest = (layers - 1 - block).min(1);
        for (k, task) in tasks.iter().enumerate() {
            let offset = i64::from(task.offset);
            if !(lowest..=highest).contains(&offset) {
                continue;
            }
            // An input in a block before the first is absent.
            let input = |(back, at): (i16, u16)| match block - i64::from(back) {
                row if row < 0 => absent,
                row => rows[row as usize * width + usize::from(at)],
            };
            let [a, b, c] = task.deps;
            let deps = [input(a), input(b), input(c)];
            let layer = (block + offset) as u64;
            let label = || structure.labels[k];
            let handle = into.task(task, duration(task), label, layer, deps)?;
            rows[block as usize * width + usize::from(FIRST_TASK) + k] = handle;
            if task.kind == TaskKind::WeightTransfer {
                rows[weight_slot(layer)] = handle;
            }
        }
    }
    Ok(())
}

/// A consumer of a replayed template: each task emitted yields a handle the
/// tasks after it name it by.
trait Replay {
    /// What a later task receives for an input.
    type Handle: Copy;

    /// The handle of an input that does not exist.
    fn absent() -> Self::Handle;

    /// Emits `task`, of duration `duration` (read from its table entry),
    /// labelled `label()`, as a task of `layer` after `deps`, absent ones
    /// included.
    fn task(
        &mut self,
        task: &TemplateTask,
        duration: Seconds,
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
        duration: Seconds,
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
            .add_task(task.lane, duration, task.kind, label, &ids[..n])?;
        Ok(Some(id))
    }
}

/// The four lane clocks of a replay that keeps finish times.
struct Clocks([Seconds; 4]);

impl Clocks {
    /// The step's makespan: a lane's clock is its last finish, the latest on
    /// that lane.
    fn makespan(&self) -> Seconds {
        self.0.into_iter().fold(Seconds::ZERO, Seconds::max)
    }
}

impl Replay for Clocks {
    type Handle = Seconds;

    /// A missing input is ready at time zero, which no start precedes.
    fn absent() -> Seconds {
        Seconds::ZERO
    }

    fn task(
        &mut self,
        task: &TemplateTask,
        duration: Seconds,
        _label: impl FnOnce() -> TemplateLabel,
        _layer: u64,
        [a, b, c]: [Seconds; MAX_DEPS],
    ) -> Result<Seconds, SimError> {
        let ready = later(later(a, b), c);
        let (_, end) = occupy(&mut self.0[task.lane as usize], ready, duration);
        Ok(end)
    }
}

/// One emitted task of a compiled step: its duration's table entry and the
/// finish-time slots it starts after, resolved once: the task before it on
/// its lane, then its three inputs. Slot 0 of a run's finish times holds
/// zero, which the first task of a lane and an absent input read, as a
/// replay's lane clocks and absent inputs do.
#[derive(Debug, Clone, Copy)]
struct Step {
    entry: u32,
    after: [u16; 1 + MAX_DEPS],
}

impl Step {
    /// When the step finishes, given the finish times so far: the lane rule
    /// of a replay's [`Clocks`], in the same order.
    fn end(&self, finish: &[Seconds], duration: Seconds) -> Seconds {
        let [lane, a, b, c] = self.after;
        let at = |slot: u16| finish[slot as usize];
        later(at(lane), later(later(at(a), at(b)), at(c))) + duration
    }
}

/// Replays a template into finish times while recording it as a program:
/// a handle is the slot a run keeps the task's finish time in.
struct Compile<'a> {
    program: &'a mut Vec<Step>,
    finish: &'a mut Vec<Seconds>,
    /// The slot of the last task on each lane so far.
    lane_ends: [u16; 4],
}

impl Replay for Compile<'_> {
    type Handle = u16;

    fn absent() -> u16 {
        0
    }

    fn task(
        &mut self,
        task: &TemplateTask,
        duration: Seconds,
        _label: impl FnOnce() -> TemplateLabel,
        _layer: u64,
        [a, b, c]: [u16; MAX_DEPS],
    ) -> Result<u16, SimError> {
        let lane_end = &mut self.lane_ends[task.lane as usize];
        let step = Step {
            entry: task.entry,
            after: [*lane_end, a, b, c],
        };
        self.program.push(step);
        *lane_end = self.finish.len() as u16;
        self.finish.push(step.end(self.finish, duration));
        Ok(*lane_end)
    }
}

/// How a [`LayerTemplate`] has been played so far, for tests: plays
/// replayed, programs compiled and programs run.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlayWork {
    /// Plays of a structure other than the one just played, and of one too
    /// large to compile.
    pub replays: u64,
    /// Plays that compiled the structure just seen.
    pub compiles: u64,
    /// Plays that ran a compiled program.
    pub programs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TaskGraph};
    use moe_hardware::{ComputeRate, FlopCount};

    fn secs(v: f64) -> Seconds {
        Seconds::from_secs(v)
    }

    /// The duration table of [`streaming`]: weights, then compute.
    fn streaming_table() -> [Seconds; 2] {
        [secs(4.0), secs(3.0)]
    }

    /// A two-lane layer: weights for the next layer, and compute that waits
    /// for its own layer's weights and the previous layer's compute.
    fn streaming() -> LayerTemplate {
        let mut t = LayerTemplate::default();
        t.set_prologue(0);
        let c = t
            .push(
                Lane::GpuCompute,
                1,
                TaskKind::PostAttention,
                TemplateLabel::layer("L", 0),
                &[Dep::Weights, Dep::Task { back: 1, index: 0 }],
            )
            .unwrap();
        assert_eq!(c, 0);
        t.push(
            Lane::HostToDevice,
            0,
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
        streaming()
            .unroll(3, &streaming_table(), &mut graph)
            .unwrap();
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
        let durations: Vec<f64> = graph.tasks().iter().map(|t| t.duration.as_secs()).collect();
        assert_eq!(durations, [4.0, 3.0, 4.0, 3.0, 4.0, 3.0]);
    }

    #[test]
    fn carried_tasks_skip_the_first_block_and_close_the_step() {
        let mut t = LayerTemplate::default();
        let a = t
            .push(
                Lane::CpuCompute,
                0,
                TaskKind::Attention,
                TemplateLabel::layer("B", 0),
                &[],
            )
            .unwrap();
        t.push(
            Lane::GpuCompute,
            0,
            TaskKind::PostAttention,
            TemplateLabel::layer("C", -1),
            &[Dep::Task { back: 1, index: a }],
        )
        .unwrap();
        let mut graph = TaskGraph::new();
        t.unroll(2, &[secs(1.0)], &mut graph).unwrap();
        let labels: Vec<String> = graph.tasks().iter().map(|t| t.label.to_string()).collect();
        assert_eq!(labels, ["B(0)", "B(1)", "C(0)", "C(1)"]);
        assert_eq!(graph.deps(&graph.tasks()[3]), &[TaskId(1)]);
    }

    #[test]
    fn unreachable_dependencies_are_rejected_when_pushed_or_played() {
        let mut t = LayerTemplate::default();
        let push = |t: &mut LayerTemplate, label, deps: &[Dep]| {
            t.push(Lane::GpuCompute, 0, TaskKind::Other, label, deps)
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
        // No template has this many tasks, so no block's task has this index.
        let past_any_end = Dep::Task {
            back: 1,
            index: u16::MAX - 2,
        };
        assert_eq!(
            push(&mut t, x, &[past_any_end]),
            Err(SimError::TemplateDependency { task: 0 })
        );
        // No rejected task was pushed. A previous block's task past the end
        // is caught when played.
        assert_eq!(push(&mut t, x, &[]), Ok(0));
        push(&mut t, x, &[Dep::Task { back: 1, index: 5 }]).unwrap();
        let err = SimError::TemplateDependency { task: 1 };
        assert_eq!(t.play(2, &[secs(1.0)]), Err(err.clone()));
        assert_eq!(t.unroll(2, &[secs(1.0)], &mut TaskGraph::new()), Err(err));
    }

    #[test]
    fn missing_and_nan_durations_are_rejected_when_played() {
        let nan =
            FlopCount::from_flops(f64::INFINITY) / ComputeRate::from_flops_per_sec(f64::INFINITY);
        let mut t = streaming();
        // The compute task reads entry 1; the prologue counts as the task
        // after the last.
        let cases = [
            (vec![secs(4.0)], SimError::MissingDuration { task: 0 }),
            (vec![secs(4.0), nan], SimError::InvalidDuration { task: 0 }),
            (vec![nan, secs(3.0)], SimError::InvalidDuration { task: 1 }),
        ];
        for (table, err) in cases {
            assert_eq!(t.play(3, &table), Err(err.clone()));
            assert_eq!(t.unroll(3, &table, &mut TaskGraph::new()), Err(err));
        }
        let mut late_prologue = streaming();
        late_prologue.set_prologue(2);
        let err = SimError::MissingDuration { task: 2 };
        assert_eq!(late_prologue.play(3, &streaming_table()), Err(err));
        // Only entries a task reads must hold a duration.
        let mut table = streaming_table().to_vec();
        table.push(nan);
        let mut graph = TaskGraph::new();
        t.unroll(3, &table, &mut graph).unwrap();
        assert_eq!(t.play(3, &table), Ok(simulate(&graph).makespan));
    }

    #[test]
    fn a_structure_too_large_for_16_bit_slots_is_replayed_every_time() {
        // 300 tasks over 250 layers: 302 replay cells a block, 75,500 in
        // all, more than a 16-bit finish-time slot can name.
        let (tasks, layers) = (300u16, 250);
        let table: Vec<Seconds> = (0..13).map(|k| secs(0.5 + f64::from(k) * 0.25)).collect();
        let mut t = LayerTemplate::default();
        t.set_prologue(6);
        for k in 0..tasks {
            let kind = if k % 7 == 0 {
                TaskKind::WeightTransfer
            } else {
                TaskKind::Other
            };
            // The task before it, itself one layer back, its layer's weights.
            let (back, index) = if k == 0 { (1, tasks - 1) } else { (0, k - 1) };
            let deps = [
                Dep::Task { back, index },
                Dep::Task { back: 1, index: k },
                Dep::Weights,
            ];
            let label = TemplateLabel::micro_batch("t", 0, u64::from(k));
            let lane = Lane::all()[usize::from(k % 4)];
            t.push(lane, u32::from(k % 13), kind, label, &deps).unwrap();
        }
        let mut graph = TaskGraph::new();
        t.unroll(layers, &table, &mut graph).unwrap();
        let bits = simulate(&graph).makespan.as_secs().to_bits();
        for _ in 0..3 {
            assert_eq!(t.play(layers, &table).unwrap().as_secs().to_bits(), bits);
        }
        let work = PlayWork {
            replays: 3,
            compiles: 0,
            programs: 0,
        };
        assert_eq!(t.work(), work);
    }
}
