//! One decode layer described once.
//!
//! Every layer of a decode step runs the same tasks in the same lane order,
//! so a schedule is one layer's tasks — a [`LayerTemplate`] — replayed once
//! per layer. A template task names its inputs relative to its own layer: a
//! task of the same or an earlier layer's block, or the weight slot of the
//! layer it computes. [`LayerTemplate::unroll`] emits the step into any
//! [`TaskSink`] for a full timeline, and [`LayerTemplate::play`] plays it
//! into finish times alone, in buffers the template keeps.
//!
//! A step is a max-plus linear system: which task waits for which, and on
//! which lane, follows from the schedule kind and the micro-batch count, and
//! only the durations change from step to step. So a template is refilled
//! rather than rebuilt ([`LayerTemplate::refill`]): a push that repeats the
//! stored task at its index only overwrites the duration, and the first that
//! does not rebuilds the template from there on and drops what the template
//! knew of the old structure. A play replays a structure the first time; the
//! second time in a row it also compiles it into a flat program, each
//! emitted task's duration slot and the finish-time slots of its lane
//! predecessor and inputs resolved once; after that it runs the program. All
//! three apply the same lane rule with the same arithmetic in the same
//! order, so every makespan agrees with [`crate::simulate`] on the unrolled
//! graph bit for bit.

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

/// The duration slot of the `W(0)` prologue; a template task's slot is its
/// local index, which stays below it.
const PROLOGUE: u16 = u16::MAX;

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
    duration: Seconds,
    kind: TaskKind,
    /// The label's layer offset.
    offset: i8,
    /// Each input as (rows back, cell), unused ones `NOWHERE`; a weight slot
    /// of a task for the next layer is a row ahead.
    deps: [(i16, u16); MAX_DEPS],
}

/// A template task's label and what a replay needs to know of it and the
/// tasks before it, apart so that a play's tasks stay small.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    label: TemplateLabel,
    reach: Reach,
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

impl TemplateLabel {
    /// `self == other`, without comparing the tags' bytes when both are the
    /// same literal, as a refill's are.
    fn same(&self, other: TemplateLabel) -> bool {
        (self.micro_batch, self.has_micro_batch, self.offset)
            == (other.micro_batch, other.has_micro_batch, other.offset)
            && (std::ptr::eq(self.tag, other.tag) || self.tag == other.tag)
    }
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

/// The tasks of one layer, in lane (FIFO) order, plus the step's first-layer
/// rule: layer 0's weights, if streamed, arrive in a prologue transfer
/// `W(0)`. Build it with [`Self::push`]; reuse it across steps with
/// [`Self::refill`]; price a step with [`Self::play`].
///
/// The template keeps what its plays need beside its tasks: after the first
/// play of a step as large, a play allocates nothing. A clone carries its
/// own copy of both.
#[derive(Debug, Clone, Default)]
pub struct LayerTemplate {
    /// The stored tasks and their shapes. The template is the first `len`;
    /// the rest are kept from an earlier fill, for a refill to match.
    tasks: Vec<TemplateTask>,
    shapes: Vec<Shape>,
    len: usize,
    prologue: Option<Seconds>,
    /// The live length, prologue presence and layers of the last play, if
    /// no push has changed the stored tasks since: a push that does clears
    /// it.
    played: Option<(usize, bool, u32)>,
    /// Whether `program` is compiled from the structure `played` names.
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

/// Two templates are equal if they describe the same step: the same tasks,
/// durations included, and the same prologue.
impl PartialEq for LayerTemplate {
    fn eq(&self, other: &Self) -> bool {
        self.tasks[..self.len] == other.tasks[..other.len]
            && self.shapes[..self.len] == other.shapes[..other.len]
            && self.prologue == other.prologue
    }
}

impl LayerTemplate {
    /// Starts filling the template again, with room for `tasks` tasks before
    /// it reallocates. The pushes that follow rebuild it, reusing what it
    /// stores: a push that repeats the stored task at its index — lane, kind,
    /// label and inputs — only overwrites its duration, and the first that
    /// does not, or that fails, drops the stored tasks from there on.
    pub fn refill(&mut self, tasks: usize) {
        self.tasks.reserve(tasks.saturating_sub(self.tasks.len()));
        self.shapes.reserve(tasks.saturating_sub(self.shapes.len()));
        self.len = 0;
        self.prologue = None;
    }

    /// The local index the next pushed task gets, so that a task can name
    /// itself one block back.
    pub fn next_index(&self) -> u16 {
        u16::try_from(self.len).unwrap_or(u16::MAX)
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
    /// inputs, one of them names a task not yet pushed to its own block or
    /// an index no template reaches (`u16::MAX - 2` or more), or its label's
    /// layer offset is outside `-1..=1`;
    /// [`SimError::InvalidDuration`] if its duration is NaN.
    pub fn push(
        &mut self,
        lane: Lane,
        duration: Seconds,
        kind: TaskKind,
        label: TemplateLabel,
        deps: &[Dep],
    ) -> Result<u16, SimError> {
        let task = self.len;
        // A stored task passed every check at this index, and checked
        // inputs pack to distinct cells, so a repeat needs only its duration
        // checked.
        if let (Some(stored), Some(shape)) = (self.tasks.get_mut(task), self.shapes.get(task)) {
            if (stored.lane, stored.kind) == (lane, kind)
                && shape.label.same(label)
                && cells(deps, label.offset) == Some(stored.deps)
                && !duration.as_secs().is_nan()
            {
                stored.duration = duration;
                self.len += 1;
                return Ok(task as u16);
            }
        }
        self.append(lane, duration, kind, label, deps)
    }

    /// [`Self::push`] of a task that does not repeat the one stored at its
    /// index: drops the stored tasks from there on, then checks and stores
    /// it.
    fn append(
        &mut self,
        lane: Lane,
        duration: Seconds,
        kind: TaskKind,
        label: TemplateLabel,
        deps: &[Dep],
    ) -> Result<u16, SimError> {
        let task = self.len;
        self.diverge();
        let mut reach = self
            .shapes
            .last()
            .map_or(Reach::default(), |last| last.reach);
        let packed = Self::pack(task, duration, label, deps, &mut reach)?;
        self.tasks.push(TemplateTask {
            lane,
            duration,
            kind,
            offset: label.offset,
            deps: packed,
        });
        self.shapes.push(Shape { label, reach });
        self.len += 1;
        Ok(task as u16)
    }

    /// Checks task `task`'s duration, label and inputs, and packs the inputs
    /// into cells; adds the task to `reach`, that of the tasks before it.
    fn pack(
        task: usize,
        duration: Seconds,
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
        if duration.as_secs().is_nan() {
            return Err(SimError::InvalidDuration { task });
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

    /// Drops the stored tasks from the next index on, and the last play's
    /// structure with them.
    fn diverge(&mut self) {
        if self.len < self.tasks.len() {
            self.tasks.truncate(self.len);
            self.shapes.truncate(self.len);
        }
        self.played = None;
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
        let (tasks, shapes) = (&self.tasks[..self.len], &self.shapes[..self.len]);
        replay(
            tasks,
            shapes,
            self.prologue,
            layers,
            &mut Unroll(sink),
            &mut Vec::new(),
        )
    }

    /// The makespan of the step this template describes over `layers`
    /// layers, played with the lane rule of [`crate::simulate`] into finish
    /// times alone. It equals [`crate::simulate`] on the [`Self::unroll`]ed
    /// graph bit for bit.
    ///
    /// A play replays a structure it did not just play, compiles it the
    /// second time in a row, and runs the compiled program from then on,
    /// with the template's current durations. A structure is the live
    /// length, whether there is a prologue and `layers`, as long as no push
    /// changes the stored tasks.
    ///
    /// # Errors
    ///
    /// [`SimError::TemplateDependency`] if a dependency names a task past the
    /// template's end.
    pub fn play(&mut self, layers: u32) -> Result<Seconds, SimError> {
        let key = (self.len, self.prologue.is_some(), layers);
        if self.played != Some(key) {
            return self.replay_clocks(layers, key);
        }
        if self.compiled {
            self.work.programs += 1;
            return Ok(self.run());
        }
        // A structure with more replay cells than a 16-bit slot can name is
        // replayed every time; `finish` holds the last replay's cells.
        if u16::try_from(self.finish.len()).is_err() {
            return self.replay_clocks(layers, key);
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
        let (tasks, shapes) = (&self.tasks[..self.len], &self.shapes[..self.len]);
        replay(
            tasks,
            shapes,
            self.prologue,
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
    fn replay_clocks(&mut self, layers: u32, key: (usize, bool, u32)) -> Result<Seconds, SimError> {
        self.work.builds += u64::from(self.played.is_none());
        self.work.replays += 1;
        self.played = None;
        self.compiled = false;
        let mut clocks = Clocks([Seconds::ZERO; 4]);
        let (tasks, shapes) = (&self.tasks[..self.len], &self.shapes[..self.len]);
        replay(
            tasks,
            shapes,
            self.prologue,
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
        self.played = Some(key);
        Ok(clocks.makespan())
    }

    /// Runs the compiled program on the template's durations: the replay's
    /// arithmetic, task for task, with every handle resolved.
    fn run(&mut self) -> Seconds {
        let finish = &mut self.finish;
        finish.clear();
        finish.push(Seconds::ZERO);
        if let Some(duration) = self.prologue {
            finish.push(Seconds::ZERO + duration);
        }
        let tasks = &self.tasks[..self.len];
        for step in &self.program {
            finish.push(step.end(finish, tasks[usize::from(step.slot)].duration));
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

/// Replays the template of live tasks `tasks`, their shapes `shapes` and
/// prologue `prologue` over `layers` layers into `into`, keeping each task's
/// handle in `rows`, one row per block.
fn replay<R: Replay>(
    tasks: &[TemplateTask],
    shapes: &[Shape],
    prologue: Option<Seconds>,
    layers: u32,
    into: &mut R,
    rows: &mut Vec<R::Handle>,
) -> Result<(), SimError> {
    let width = tasks.len() + usize::from(FIRST_TASK);
    let reach = shapes.last().map_or(Reach::default(), |last| last.reach);
    if let Some(named) = reach.max_back.checked_sub(1) {
        if (named >> 16) as usize >= tasks.len() {
            return Err(SimError::TemplateDependency {
                task: (named & 0xffff) as usize,
            });
        }
    }
    let blocks = u64::from(layers) + u64::from(reach.carries);
    let absent = R::absent();
    rows.clear();
    rows.resize(blocks as usize * width, absent);
    let weight_slot = |row: u64| row as usize * width + usize::from(WEIGHT_SLOT);
    if let Some(duration) = prologue {
        let prologue = TemplateTask {
            lane: Lane::HostToDevice,
            duration,
            kind: TaskKind::WeightTransfer,
            offset: 0,
            deps: [(0, NOWHERE); MAX_DEPS],
        };
        let label = || TemplateLabel::layer("W", 0);
        rows[weight_slot(0)] = into.task(&prologue, PROLOGUE, label, 0, [absent; MAX_DEPS])?;
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
            let handle = into.task(task, k as u16, || shapes[k].label, layer, deps)?;
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

    /// Emits `task`, whose duration is in `slot` (its local index, or
    /// `PROLOGUE`), labelled `label()`, as a task of `layer` after `deps`,
    /// absent ones included.
    fn task(
        &mut self,
        task: &TemplateTask,
        slot: u16,
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
        _slot: u16,
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
        _slot: u16,
        _label: impl FnOnce() -> TemplateLabel,
        _layer: u64,
        [a, b, c]: [Seconds; MAX_DEPS],
    ) -> Result<Seconds, SimError> {
        let ready = later(later(a, b), c);
        let (_, end) = occupy(&mut self.0[task.lane as usize], ready, task.duration);
        Ok(end)
    }
}

/// One emitted task of a compiled step but the prologue: its duration slot
/// (its template task) and the finish-time slots it starts after, resolved
/// once: the task before it on its lane, then its three inputs. Slot 0 of a
/// run's finish times holds zero, which the first task of a lane and an
/// absent input read, as a replay's lane clocks and absent inputs do.
#[derive(Debug, Clone, Copy)]
struct Step {
    slot: u16,
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
        slot: u16,
        _label: impl FnOnce() -> TemplateLabel,
        _layer: u64,
        [a, b, c]: [u16; MAX_DEPS],
    ) -> Result<u16, SimError> {
        let lane_end = &mut self.lane_ends[task.lane as usize];
        let step = Step {
            slot,
            after: [*lane_end, a, b, c],
        };
        // The prologue, if any, comes first, and a run plays it before the
        // program.
        if slot != PROLOGUE {
            self.program.push(step);
        }
        *lane_end = self.finish.len() as u16;
        self.finish.push(step.end(self.finish, task.duration));
        Ok(*lane_end)
    }
}

/// How a [`LayerTemplate`] has been played so far, for tests: structures
/// built, plays replayed, programs compiled and programs run.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlayWork {
    /// Replays of a structure that pushes built since the play before: the
    /// first play, and the first after a push changed the stored tasks.
    pub builds: u64,
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
        // No template has this many tasks, so no block's task has this index.
        let past_any_end = Dep::Task {
            back: 1,
            index: u16::MAX - 2,
        };
        assert_eq!(
            push(&mut t, x, &[past_any_end]),
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
        assert_eq!(t.play(2), Err(err.clone()));
        assert_eq!(t.unroll(2, &mut TaskGraph::new()), Err(err));
    }

    #[test]
    fn a_structure_too_large_for_16_bit_slots_is_replayed_every_time() {
        // 300 tasks over 250 layers: 302 replay cells a block, 75,500 in
        // all, more than a 16-bit finish-time slot can name.
        let (tasks, layers) = (300u16, 250);
        let mut t = LayerTemplate::default();
        t.set_prologue(secs(2.0));
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
            let duration = secs(0.5 + f64::from(k % 13) * 0.25);
            let lane = Lane::all()[usize::from(k % 4)];
            t.push(lane, duration, kind, label, &deps).unwrap();
        }
        let mut graph = TaskGraph::new();
        t.unroll(layers, &mut graph).unwrap();
        let bits = simulate(&graph).makespan.as_secs().to_bits();
        for _ in 0..3 {
            assert_eq!(t.play(layers).unwrap().as_secs().to_bits(), bits);
        }
        let work = PlayWork {
            builds: 1,
            replays: 3,
            compiles: 0,
            programs: 0,
        };
        assert_eq!(t.work(), work);
    }
}
