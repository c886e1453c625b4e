//! Decode-stage pipeline schedules (Fig. 6 and Algorithm 1 of the paper).
//!
//! Each builder turns a policy + workload into tasks over the four lanes of the
//! discrete-event simulator, with task durations taken from the HRM cost model.
//! Every layer of a step is the same, so each schedule kind describes one layer
//! once, as a [`LayerTemplate`]; the step is that template replayed once per
//! layer, unrolled into a [`TaskGraph`] for the Fig. 6 timeline or played
//! ([`LayerTemplate::play`]) to price a decode step from finish times alone.
//! The schedules differ only in *ordering and granularity* — which is
//! exactly the paper's point: CGOPipe's paged-weight interleaving and two-ahead
//! pre-attention remove the bubbles the baseline orderings leave on the GPU and
//! PCIe lanes.

use moe_hardware::{ByteSize, Seconds};
use moe_policy::{CostModel, Policy, WorkloadShape};
use moe_sim::{Dep, Lane, LayerTemplate, SimError, TaskGraph, TaskKind, TemplateLabel};

#[cfg(test)]
mod reference;

/// The pipeline schedules compared in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// MoE-Lightning's CGOPipe: CPU attention, paged weights interleaved with hidden
    /// uploads, pre-attention launched two micro-batches ahead (Algorithm 1).
    CgoPipe,
    /// FastDecode-style overlap (S2): CPU attention overlapped with GPU compute, but
    /// un-paged whole-layer weight transfers issued at the start of each layer.
    FastDecodeOverlap,
    /// FlexGen(c)-style (S3): CPU attention, un-paged weight transfer issued after a
    /// layer's hidden uploads, blocking the next layer.
    FlexGenCpuAttention,
    /// FlexGen-style (S4): GPU attention with per-micro-batch KV-cache prefetch over
    /// PCIe and un-paged weight transfers.
    FlexGenGpuAttention,
    /// DeepSpeed ZeRO-Inference-style layer streaming: one (micro-)batch, GPU
    /// attention, KV on GPU, whole-layer weight streaming.
    LayerStreaming,
}

impl ScheduleKind {
    /// All schedule kinds in the order shown in Fig. 6 (plus layer streaming).
    pub fn all() -> [ScheduleKind; 5] {
        [
            ScheduleKind::CgoPipe,
            ScheduleKind::FastDecodeOverlap,
            ScheduleKind::FlexGenCpuAttention,
            ScheduleKind::FlexGenGpuAttention,
            ScheduleKind::LayerStreaming,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleKind::CgoPipe => "CGOPipe (MoE-Lightning)",
            ScheduleKind::FastDecodeOverlap => "S2 (FastDecode-style)",
            ScheduleKind::FlexGenCpuAttention => "S3 (FlexGen(c))",
            ScheduleKind::FlexGenGpuAttention => "S4 (FlexGen)",
            ScheduleKind::LayerStreaming => "Layer streaming (DeepSpeed)",
        }
    }

    /// Whether the schedule runs attention on the CPU.
    pub fn uses_cpu_attention(&self) -> bool {
        matches!(
            self,
            ScheduleKind::CgoPipe
                | ScheduleKind::FastDecodeOverlap
                | ScheduleKind::FlexGenCpuAttention
        )
    }
}

/// GPU weight buffer slots a CGOPipe step needs: how many layers' streamed
/// weights it can hold at once. The graph has no release edge, so a layer's
/// first page `Wp(l,0)` is ordered after layer `l − 3`'s last post-attention but,
/// with two or more micro-batches, not after layer `l − 2`'s: a third slot keeps
/// it from overwriting weights still in use. One micro-batch orders it after
/// all of layer `l − 2`, so two suffice.
pub fn cgopipe_weight_buffers(num_micro_batches: usize) -> usize {
    if num_micro_batches >= 2 {
        3
    } else {
        2
    }
}

/// Emits decode-step schedules for a (model, node, policy, workload) combination.
#[derive(Debug, Clone)]
pub struct DecodeScheduleBuilder<'a> {
    cost: &'a CostModel,
    policy: Policy,
    workload: WorkloadShape,
    num_layers: u32,
    /// Decode tokens (= active sequences) per micro-batch. `None` is the uniform
    /// split the policy implies (`μ` per micro-batch, remainder in the last); the
    /// request-level serving loop overrides it with the actual per-micro-batch
    /// occupancy so schedule bubbles reflect real imbalance.
    ub_tokens: Option<&'a [u64]>,
    /// Mean decode context per micro-batch (tokens of KV each active sequence
    /// reads per step). `None` falls back to the workload's uniform
    /// `avg_decode_context()`; the serving loop passes per-micro-batch means so
    /// attention load reflects the batcher's actual token balance.
    ub_ctx: Option<&'a [u64]>,
}

impl<'a> DecodeScheduleBuilder<'a> {
    /// Creates a builder. The policy and workload are copied; micro-batch token
    /// counts default to the policy's uniform split.
    pub fn new(cost: &'a CostModel, policy: Policy, workload: WorkloadShape) -> Self {
        DecodeScheduleBuilder {
            cost,
            policy,
            workload,
            num_layers: cost.model().num_layers,
            ub_tokens: None,
            ub_ctx: None,
        }
    }

    /// Restricts the schedule to the first `layers` layers (useful for the Fig. 6
    /// single-/few-layer visualization).
    pub fn with_layers(mut self, layers: u32) -> Self {
        self.num_layers = layers.min(self.cost.model().num_layers).max(1);
        self
    }

    /// Overrides the per-micro-batch token counts with heterogeneous occupancies
    /// (one entry per micro-batch, each the number of active sequences). An
    /// empty list or a zero entry — an empty micro-batch has no tasks and
    /// would silently skew the pipeline stagger — fails the step's pricing
    /// with a typed [`SimError`].
    pub fn with_micro_batch_tokens(mut self, tokens: &'a [u64]) -> Self {
        self.ub_tokens = Some(tokens);
        self
    }

    /// Overrides the mean decode context per micro-batch: attention and
    /// KV-transfer tasks of micro-batch `j` are costed at `contexts[j]`
    /// instead of the workload's uniform average, so imbalanced token
    /// assignments produce straggler micro-batches in the simulated pipeline.
    /// Anything but one positive entry per micro-batch fails the step's
    /// pricing with a typed [`SimError`].
    pub fn with_micro_batch_contexts(mut self, contexts: &'a [u64]) -> Self {
        self.ub_ctx = Some(contexts);
        self
    }

    /// The policy used by this builder.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    fn ctx(&self) -> u64 {
        self.workload.avg_decode_context()
    }

    /// Mean decode context of micro-batch `j` (per-micro-batch override, or the
    /// workload's uniform average).
    fn ctx_of(&self, j: u64) -> u64 {
        self.ub_ctx.map_or_else(|| self.ctx(), |c| c[j as usize])
    }

    fn num_micro_batches(&self) -> u64 {
        self.ub_tokens
            .map_or_else(|| self.policy.num_micro_batches(), |t| t.len() as u64)
    }

    /// Decode tokens of micro-batch `j`: the override, or the policy's split.
    fn micro_batch_tokens(&self, j: u64) -> u64 {
        match self.ub_tokens {
            Some(tokens) => tokens[j as usize],
            None if j + 1 == self.policy.num_micro_batches() => {
                self.policy.batch_size - self.policy.micro_batch_size * j
            }
            None => self.policy.micro_batch_size,
        }
    }

    /// Decode tokens of the whole step; the policy's split covers its batch.
    fn total_tokens(&self) -> u64 {
        self.ub_tokens
            .map_or(self.policy.batch_size, |t| t.iter().sum())
    }

    /// The typed error for per-micro-batch loads a step cannot run: no
    /// micro-batch, an empty one, or contexts that are not one positive entry
    /// per micro-batch.
    fn check_loads(&self) -> Result<(), SimError> {
        let n_ub = self.num_micro_batches() as usize;
        if n_ub == 0 {
            return Err(SimError::NoMicroBatches);
        }
        if let Some(j) = self.ub_tokens.and_then(|t| t.iter().position(|&t| t == 0)) {
            return Err(SimError::ZeroOccupancy { micro_batch: j });
        }
        if let Some(contexts) = self.ub_ctx {
            if contexts.len() != n_ub {
                return Err(SimError::ContextCount {
                    micro_batches: n_ub,
                    contexts: contexts.len(),
                });
            }
            if let Some(j) = contexts.iter().position(|&c| c == 0) {
                return Err(SimError::ZeroContext { micro_batch: j });
            }
        }
        Ok(())
    }

    /// Prices every operator of a `kind` step into `buffers.table` (see
    /// [`entry`]) and describes the step's shape in `buffers.shape`.
    fn price(&self, kind: ScheduleKind, buffers: &mut StepBuffers) {
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let streams = !streamed.is_zero();
        let n_ub = self.num_micro_batches() as usize;
        let StepBuffers {
            table,
            shape,
            by_token,
            ..
        } = buffers;
        table.clear();
        table.push(if streams {
            self.cost.weight_transfer(streamed)
        } else {
            Seconds::ZERO
        });
        // Every field set here, so that no field of the last step's shape
        // survives; the prefetch vector keeps its allocation.
        *shape = StepShape {
            kind,
            micro_batches: n_ub,
            prologue: streams && kind != ScheduleKind::LayerStreaming,
            whole_layer: streams && kind != ScheduleKind::CgoPipe,
            pages: 0,
            writes_back: false,
            prefetch: std::mem::take(&mut shape.prefetch),
        };
        shape.prefetch.0.clear();
        match kind {
            ScheduleKind::LayerStreaming => {
                // One batch of all the step's tokens at the workload's
                // average context.
                let (tokens, ctx) = (self.total_tokens(), self.ctx());
                let mut ops = [Seconds::ZERO; STRIDE];
                ops[FUSED] = self.cost.pre_attention_gpu(tokens)
                    + self.cost.attention_gpu(tokens, ctx)
                    + self.cost.post_attention_gpu(tokens);
                table.extend_from_slice(&ops);
                shape.micro_batches = 1;
            }
            ScheduleKind::FlexGenGpuAttention => {
                let kv_cpu_fraction = 1.0 - self.policy.kv_gpu_ratio;
                self.price_micro_batches(
                    kind,
                    (table, by_token),
                    |tokens| {
                        let append = self
                            .cost
                            .model()
                            .kv_bytes_per_token_per_layer()
                            .scale(kv_cpu_fraction)
                            * tokens;
                        [
                            self.cost.pre_attention_gpu(tokens),
                            self.cost.kv_offload(append),
                            Seconds::ZERO,
                            self.cost.post_attention_gpu(tokens),
                        ]
                    },
                    |tokens, ctx| {
                        [
                            self.cost.attention_gpu(tokens, ctx),
                            self.cost.kv_transfer(tokens, ctx, kv_cpu_fraction),
                        ]
                    },
                );
                shape.writes_back = kv_cpu_fraction > 0.0;
                // Each micro-batch's durations, past the whole layer's.
                for ops in table[1..].chunks_exact_mut(STRIDE) {
                    ops[FUSED] = ops[PRE] + ops[ATTENTION] + ops[POST];
                    let prefetched = !ops[KV].is_zero() && kv_cpu_fraction > 0.0;
                    shape.prefetch.0.push(prefetched);
                }
            }
            cpu_attention => {
                self.price_micro_batches(
                    cpu_attention,
                    (table, by_token),
                    |tokens| {
                        [
                            self.cost.pre_attention_gpu(tokens),
                            self.cost.qkv_offload(tokens),
                            self.cost.hidden_upload(tokens),
                            if self.policy.ffn_on_gpu {
                                self.cost.post_attention_gpu(tokens)
                            } else {
                                self.cost.post_attention_gpu_without_ffn(tokens)
                            },
                        ]
                    },
                    |tokens, ctx| [self.cost.attention_cpu(tokens, ctx), Seconds::ZERO],
                );
                if cpu_attention == ScheduleKind::CgoPipe {
                    shape.pages = self.price_pages(streamed, table);
                }
            }
        }
    }

    /// Prices CGOPipe's weight pages into `table` and returns how many there
    /// are. The next layer's weights, `streamed`, split into one page per
    /// micro-batch; the first `bytes % n_ub` are a byte larger, and with
    /// fewer bytes than micro-batches the rest are empty and not sent.
    fn price_pages(&self, streamed: ByteSize, table: &mut [Seconds]) -> usize {
        let n_ub = self.num_micro_batches() as usize;
        let (base, larger) = (
            streamed.as_bytes() / n_ub as u64,
            (streamed.as_bytes() % n_ub as u64) as usize,
        );
        let pages = if base > 0 { n_ub } else { larger };
        let [larger_page, page] =
            [base + 1, base].map(|bytes| self.cost.weight_transfer(ByteSize::from_bytes(bytes)));
        for j in 0..pages {
            table[entry(j, PAGE) as usize] = if j < larger { larger_page } else { page };
        }
        pages
    }

    /// Appends every micro-batch's operators of a `kind` step to `table`,
    /// each operator keyed by the inputs it reads: `by_tokens` once per token
    /// count for as long as `by_token` prices this kind on this cost model
    /// and placement, `by_context` once per run of equal (tokens, context)
    /// pairs. The two give a micro-batch's operators in stride order: `PRE`,
    /// `OFFLOAD`, `UPLOAD` and `POST`, then `ATTENTION` and `KV`.
    fn price_micro_batches(
        &self,
        kind: ScheduleKind,
        (table, by_token): (&mut Vec<Seconds>, &mut TokenPrices),
        by_tokens: impl Fn(u64) -> [Seconds; 4],
        by_context: impl Fn(u64, u64) -> [Seconds; 2],
    ) {
        let key = (
            self.cost.pricing_id(),
            kind,
            self.policy.ffn_on_gpu,
            self.policy.kv_gpu_ratio.to_bits(),
        );
        if by_token.key != Some(key) {
            by_token.key = Some(key);
            by_token.generation += 1;
        }
        let generation = by_token.generation;
        let mut last = None;
        for j in 0..self.num_micro_batches() {
            let loads = (self.micro_batch_tokens(j), self.ctx_of(j));
            let tokens = loads.0;
            let slot = &mut by_token.slots[tokens as usize % TOKEN_SLOTS];
            let [pre, offload, upload, post] = match *slot {
                (seen, at, priced) if (seen, at) == (generation, tokens) => priced,
                _ => {
                    *slot = (generation, tokens, by_tokens(tokens));
                    slot.2
                }
            };
            let [attention, kv] = match last {
                Some((seen, priced)) if seen == loads => priced,
                _ => by_context(tokens, loads.1),
            };
            last = Some((loads, [attention, kv]));
            // Set afterwards by the kinds that send pages or fuse a layer.
            let (page, fused) = (Seconds::ZERO, Seconds::ZERO);
            table.extend_from_slice(&[pre, offload, upload, post, attention, kv, page, fused]);
        }
    }

    /// Builds the task graph of one decode step under the given schedule: the
    /// timeline Fig. 6 draws, the layer template unrolled over every layer.
    ///
    /// # Errors
    ///
    /// A typed [`SimError`] for per-micro-batch loads the step cannot run
    /// (see [`Self::with_micro_batch_tokens`]).
    pub fn build(&self, kind: ScheduleKind) -> Result<TaskGraph, SimError> {
        let mut buffers = StepBuffers::default();
        let (template, table) = self.fill_template(kind, &mut buffers)?;
        let mut graph = TaskGraph::new();
        template.unroll(self.num_layers, table, &mut graph)?;
        Ok(graph)
    }

    /// The makespan of one decode step under `kind`, in fresh buffers (see
    /// [`Self::decode_step_makespan_in`]).
    ///
    /// # Errors
    ///
    /// As [`Self::build`].
    pub fn decode_step_makespan(&self, kind: ScheduleKind) -> Result<Seconds, SimError> {
        self.decode_step_makespan_in(kind, &mut StepBuffers::default())
    }

    /// Plays one decode step under `kind` from its layer template and returns
    /// its makespan, without building a graph. It equals
    /// [`moe_sim::simulate`]`(&self.build(kind)?).makespan` bit for bit.
    ///
    /// The step's operators are priced into a flat duration table, and its
    /// shape picks the template: `buffers` keeps one per micro-batch count
    /// (modulo a few slots), and the layer emitter runs only when a step's
    /// shape differs from the last one emitted there. The shape is all the
    /// emitter reads — the kind, the micro-batch count, the prologue, the
    /// whole-layer transfer, CGOPipe's page count and S4's prefetches and
    /// write-backs — so a kept template is the one a fresh emit would give.
    /// The template is played with the table: the first pricing of a shape
    /// replays it, the second compiles it and later ones run the compiled
    /// program (see [`LayerTemplate::play`]). Once `buffers` has priced a
    /// step of that shape, it allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::build`].
    pub fn decode_step_makespan_in(
        &self,
        kind: ScheduleKind,
        buffers: &mut StepBuffers,
    ) -> Result<Seconds, SimError> {
        let (template, table) = self.fill_template(kind, buffers)?;
        template.play(self.num_layers, table)
    }

    /// Prices one step of `kind` into the buffers' table, and returns the
    /// template of its shape, emitted into the slot of its micro-batch count
    /// unless that slot last emitted the same shape, with the table.
    fn fill_template<'b>(
        &self,
        kind: ScheduleKind,
        buffers: &'b mut StepBuffers,
    ) -> Result<(&'b mut LayerTemplate, &'b [Seconds]), SimError> {
        self.check_loads()?;
        self.price(kind, buffers);
        let StepBuffers {
            slots,
            table,
            shape,
            emits,
            ..
        } = buffers;
        let slot = &mut slots[self.num_micro_batches() as usize % TEMPLATE_SLOTS];
        if slot.shape != *shape {
            *emits += 1;
            slot.template.clear();
            if let Err(e) = emit(shape, &mut slot.template) {
                slot.shape = StepShape::default();
                return Err(e);
            }
            slot.shape.clone_from(shape);
        }
        Ok((&mut slot.template, table))
    }
}

/// The layer emitter: one layer of the step `shape` describes, pushed into
/// `t`, each task's duration read from the step's table at [`entry`]. The
/// shape is all it reads, so one template serves every step of a shape.
fn emit(shape: &StepShape, t: &mut LayerTemplate) -> Result<(), SimError> {
    if shape.prologue {
        t.set_prologue(WHOLE_LAYER);
    }
    match shape.kind {
        ScheduleKind::FlexGenGpuAttention => gpu_attention_layer(shape, t),
        ScheduleKind::LayerStreaming => layer_streaming_layer(shape, t),
        _ => cpu_attention_layer(shape, t),
    }
}

/// One layer of a CPU-attention pipeline (CGOPipe, S2, S3). CGOPipe and S2
/// use the pre-attention stagger; the kind also selects how the next layer's
/// weights are placed on the H2D lane.
///
/// Each micro-batch `j` contributes pre-attention `A`, QKV offload, CPU
/// attention `B`, hidden upload `H` and post-attention `C`, in that lane
/// order except under the stagger. CGOPipe launches pre-attention two
/// micro-batches ahead of the corresponding post-attention (Algorithm 1):
/// the GPU lane order becomes `A(0) A(1) C(0) A(2) C(1) A(3) ...`, which
/// keeps the GPU busy while the CPU attends the in-flight micro-batches. So
/// micro-batch `j`'s group opens with the post-attention of micro-batch
/// `j − 2`, and the first two groups carry the previous layer's last two.
fn cpu_attention_layer(shape: &StepShape, t: &mut LayerTemplate) -> Result<(), SimError> {
    let (kind, n_ub, pages) = (shape.kind, shape.micro_batches, shape.pages);
    let two_ahead = kind != ScheduleKind::FlexGenCpuAttention;
    // The next layer's weights: CGOPipe's pages, interleaved with the hidden
    // uploads; S2's whole layer before them and S3's after them.
    let whole_at_start = shape.whole_layer && kind == ScheduleKind::FastDecodeOverlap;
    let whole_at_end = shape.whole_layer && kind == ScheduleKind::FlexGenCpuAttention;
    let stagger = if two_ahead && n_ub >= 2 { 2 } else { 0 };
    // Local indices of micro-batch j's post-attention, pre-attention and
    // hidden upload: five tasks per micro-batch, plus the whole-layer
    // transfer before the first micro-batch's pre-attention and after the
    // last one's upload, and a page after each of the first `pages` uploads.
    let at = |j: usize| {
        let start = 5 * j + usize::from(whole_at_start && j > 0) + j.min(pages);
        let pre = start + usize::from(stagger > 0) + usize::from(whole_at_start && j == 0);
        let post = if stagger > 0 {
            start
        } else {
            pre + 4 + usize::from(j < pages) + usize::from(whole_at_end && j + 1 == n_ub)
        };
        (post as u16, pre as u16, pre as u16 + 3)
    };
    // Pre-attention of micro-batch j follows the previous layer's
    // post-attention of j: one block back, or, carried over, in this one.
    let prev_post = |j: usize| match j + stagger {
        group if group < n_ub => Dep::Task {
            back: 1,
            index: at(group).0,
        },
        group => Dep::Task {
            back: 0,
            index: at(group - n_ub).0,
        },
    };
    let next_weights = |t: &mut LayerTemplate| {
        t.push(
            Lane::HostToDevice,
            WHOLE_LAYER,
            TaskKind::WeightTransfer,
            TemplateLabel::layer("W", 1),
            &[],
        )
    };
    let post = |t: &mut LayerTemplate, k: usize, offset: i8| {
        let hidden = Dep::Task {
            back: u8::from(offset < 0),
            index: at(k).2,
        };
        t.push(
            Lane::GpuCompute,
            entry(k, POST),
            TaskKind::PostAttention,
            TemplateLabel::micro_batch("C", offset, k as u64),
            &[hidden, Dep::Weights],
        )
    };
    for j in 0..n_ub {
        let mb = j as u64;
        if stagger > 0 {
            // With the stagger, post-attention of step g − 2 is enqueued on
            // the GPU lane before pre-attention of step g.
            match j.checked_sub(stagger) {
                Some(k) => post(t, k, 0)?,
                None => post(t, n_ub - stagger + j, -1)?,
            };
        }
        if whole_at_start && j == 0 {
            next_weights(t)?;
        }
        let a = t.push(
            Lane::GpuCompute,
            entry(j, PRE),
            TaskKind::PreAttention,
            TemplateLabel::micro_batch("A", 0, mb),
            &[prev_post(j), Dep::Weights],
        )?;
        debug_assert_eq!(a, at(j).1);
        let qkv = t.push(
            Lane::DeviceToHost,
            entry(j, OFFLOAD),
            TaskKind::QkvOffload,
            TemplateLabel::micro_batch("QKV", 0, mb),
            &[Dep::Task { back: 0, index: a }],
        )?;
        let attention = t.push(
            Lane::CpuCompute,
            entry(j, ATTENTION),
            TaskKind::Attention,
            TemplateLabel::micro_batch("B", 0, mb),
            &[Dep::Task {
                back: 0,
                index: qkv,
            }],
        )?;
        t.push(
            Lane::HostToDevice,
            entry(j, UPLOAD),
            TaskKind::HiddenTransfer,
            TemplateLabel::micro_batch("H", 0, mb),
            &[Dep::Task {
                back: 0,
                index: attention,
            }],
        )?;
        if j < pages {
            t.push(
                Lane::HostToDevice,
                entry(j, PAGE),
                TaskKind::WeightTransfer,
                TemplateLabel::micro_batch("Wp", 1, mb),
                &[],
            )?;
        }
        if whole_at_end && j + 1 == n_ub {
            next_weights(t)?;
        }
        if stagger == 0 {
            post(t, j, 0)?;
        }
    }
    Ok(())
}

/// One layer of S4: GPU attention with per-micro-batch KV prefetch over PCIe
/// — every prefetching micro-batch's prefetch, then the next layer's
/// (un-paged) weights, the S4 H2D ordering of Fig. 6 — then each
/// micro-batch's fused GPU layer and the write-back of its new KV entries
/// to the CPU-resident cache.
fn gpu_attention_layer(shape: &StepShape, t: &mut LayerTemplate) -> Result<(), SimError> {
    let prefetch = &shape.prefetch.0;
    for (j, _) in prefetch.iter().enumerate().filter(|(_, &kv)| kv) {
        t.push(
            Lane::HostToDevice,
            entry(j, KV),
            TaskKind::KvTransfer,
            TemplateLabel::micro_batch("KV", 0, j as u64),
            &[],
        )?;
    }
    if shape.whole_layer {
        t.push(
            Lane::HostToDevice,
            WHOLE_LAYER,
            TaskKind::WeightTransfer,
            TemplateLabel::layer("W", 1),
            &[],
        )?;
    }
    // The prefetches are the block's first tasks, in micro-batch order.
    let mut next_kv = 0;
    for (j, &prefetched) in prefetch.iter().enumerate() {
        // The same micro-batch's layer one block back sits at this index.
        let prev = Dep::Task {
            back: 1,
            index: t.next_index(),
        };
        let kv_ready = Dep::Task {
            back: 0,
            index: next_kv,
        };
        let deps: &[Dep] = if prefetched {
            next_kv += 1;
            &[Dep::Weights, kv_ready, prev]
        } else {
            &[Dep::Weights, prev]
        };
        let compute = t.push(
            Lane::GpuCompute,
            entry(j, FUSED),
            TaskKind::PostAttention,
            TemplateLabel::micro_batch("L", 0, j as u64),
            deps,
        )?;
        if shape.writes_back {
            t.push(
                Lane::DeviceToHost,
                entry(j, OFFLOAD),
                TaskKind::QkvOffload,
                TemplateLabel::micro_batch("KVout", 0, j as u64),
                &[Dep::Task {
                    back: 0,
                    index: compute,
                }],
            )?;
        }
    }
    Ok(())
}

/// One layer of DeepSpeed-style layer streaming: a single batch, GPU
/// attention, KV resident on the GPU, the layer's whole weights streamed in
/// ahead of its compute.
fn layer_streaming_layer(shape: &StepShape, t: &mut LayerTemplate) -> Result<(), SimError> {
    if shape.whole_layer {
        t.push(
            Lane::HostToDevice,
            WHOLE_LAYER,
            TaskKind::WeightTransfer,
            TemplateLabel::layer("W", 0),
            &[],
        )?;
    }
    let prev = Dep::Task {
        back: 1,
        index: t.next_index(),
    };
    t.push(
        Lane::GpuCompute,
        entry(0, FUSED),
        TaskKind::PostAttention,
        TemplateLabel::layer("L", 0),
        &[Dep::Weights, prev],
    )?;
    Ok(())
}

/// A step's duration table holds the whole layer's streamed weights (the
/// prologue and every whole-layer transfer read it) at `WHOLE_LAYER`, then
/// `STRIDE` durations per micro-batch, in the order of the offsets below.
/// Layer streaming prices its one batch as micro-batch 0.
const WHOLE_LAYER: u32 = 0;
const STRIDE: usize = 8;
/// Pre-attention.
const PRE: usize = 0;
/// The offload of QKV (CPU attention) or of new KV entries (S4).
const OFFLOAD: usize = 1;
/// The hidden upload (CPU attention).
const UPLOAD: usize = 2;
/// Post-attention.
const POST: usize = 3;
/// Attention, on the CPU or the GPU.
const ATTENTION: usize = 4;
/// S4's KV prefetch.
const KV: usize = 5;
/// CGOPipe's weight page (zero where no page is sent).
const PAGE: usize = 6;
/// S4's and layer streaming's fused GPU layer: pre-attention, attention and
/// post-attention, added in that order.
const FUSED: usize = 7;

/// The table entry of micro-batch `j`'s duration `op`.
fn entry(j: usize, op: usize) -> u32 {
    (1 + STRIDE * j + op) as u32
}

/// Slots of the token-keyed price memo: a token count shares its slot with
/// counts that differ by a multiple of this.
const TOKEN_SLOTS: usize = 64;

/// The prices of the operators that read only a micro-batch's tokens, kept
/// across steps in slot `tokens % TOKEN_SLOTS`, for the cost model, schedule
/// kind and placement in `key`.
#[derive(Debug, Clone)]
struct TokenPrices {
    /// Cost-model pricing id, kind, FFN placement and KV split bits.
    key: Option<(u64, ScheduleKind, bool, u64)>,
    /// Counts the keys priced so far; a slot holds prices for the current
    /// key only if it was filled in this generation, so a new key empties
    /// the memo in O(1).
    generation: u64,
    /// (generation, tokens, prices); generation 0 is never current.
    slots: [(u64, u64, [Seconds; 4]); TOKEN_SLOTS],
}

impl Default for TokenPrices {
    fn default() -> Self {
        TokenPrices {
            key: None,
            generation: 0,
            slots: [(0, 0, [Seconds::ZERO; 4]); TOKEN_SLOTS],
        }
    }
}

/// Everything the layer emitter reads: the structure of a step, which its
/// durations do not change.
#[derive(Debug, Clone, PartialEq)]
struct StepShape {
    kind: ScheduleKind,
    /// Micro-batches: one under layer streaming, which runs the batch as
    /// one, and none in a slot that has emitted nothing yet.
    micro_batches: usize,
    /// Whether layer 0's weights arrive in a `W(0)` prologue.
    prologue: bool,
    /// Whether a whole layer's weights stream in as one transfer: the next
    /// layer's under S2, S3 and S4, the layer's own under layer streaming.
    whole_layer: bool,
    /// CGOPipe's weight pages: one per micro-batch, or fewer when fewer
    /// bytes stream than there are micro-batches; none under other kinds.
    pages: usize,
    /// S4: whether each micro-batch writes its new KV entries back.
    writes_back: bool,
    /// S4: which micro-batches prefetch their KV cache; a zero-duration
    /// prefetch is not sent.
    prefetch: Mask,
}

/// The default shape has no micro-batches, which no step has.
impl Default for StepShape {
    fn default() -> Self {
        StepShape {
            kind: ScheduleKind::CgoPipe,
            micro_batches: 0,
            prologue: false,
            whole_layer: false,
            pages: 0,
            writes_back: false,
            prefetch: Mask::default(),
        }
    }
}

/// A mask over a step's micro-batches, compared element by element: on the
/// few micro-batches of a serving step that costs less than the `memcmp`
/// call of a slice comparison.
#[derive(Debug, Clone, Default)]
struct Mask(Vec<bool>);

impl PartialEq for Mask {
    fn eq(&self, other: &Self) -> bool {
        self.0.iter().eq(&other.0)
    }
}

/// A template slot: the shape last emitted there and its template.
#[derive(Debug, Clone, Default)]
struct Slot {
    shape: StepShape,
    template: LayerTemplate,
}

/// Template slots a [`StepBuffers`] keeps: a step's micro-batch count picks
/// slot `count % TEMPLATE_SLOTS`. A serving engine's steps move among a few
/// counts, and each keeps its shape in its own slot.
const TEMPLATE_SLOTS: usize = 8;

/// The buffers one step pricing works in: a few layer templates, each with
/// the shape it was emitted for and what its plays keep, the step's duration
/// table, and a memo of the prices that depend only on a micro-batch's
/// tokens. Keep one and pass it to every
/// [`DecodeScheduleBuilder::decode_step_makespan_in`], for any cost model,
/// kind or policy.
///
/// A step's micro-batch count picks its template slot. The layer emitter
/// runs there only when the step's shape — everything the emitter reads —
/// differs from the last shape emitted in the slot. Steps of the same shape
/// only price their operators into the table and play the kept template
/// with it, from the third such pricing on by a program compiled from it.
/// Once a slot has priced a shape, pricing it again allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct StepBuffers {
    slots: [Slot; TEMPLATE_SLOTS],
    table: Vec<Seconds>,
    /// The shape of the step being priced.
    shape: StepShape,
    by_token: TokenPrices,
    /// Layer emitter runs so far.
    emits: u64,
}

#[cfg(test)]
impl StepBuffers {
    /// Work done in every slot so far: layer emitter runs, plays replayed,
    /// programs compiled and programs run.
    fn work(&self) -> [u64; 4] {
        self.slots
            .iter()
            .fold([self.emits, 0, 0, 0], |[e, r, c, p], slot| {
                let w = slot.template.work();
                [e, r + w.replays, c + w.compiles, p + w.programs]
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::NodeSpec;
    use moe_memory::pages::split_into_pages;
    use moe_model::MoeModelConfig;
    use moe_sim::{simulate, TaskId, TaskLabel};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
    }

    fn builder(cost: &CostModel) -> DecodeScheduleBuilder<'_> {
        DecodeScheduleBuilder::new(
            cost,
            Policy::offload_default(256, 32),
            WorkloadShape::new(77, 128),
        )
        .with_layers(4)
    }

    /// Whether `later` starts only after `earlier` finishes: a chain of
    /// dependency and same-lane FIFO edges leads from `earlier` to `later`.
    fn ordered_after(graph: &TaskGraph, later: TaskId, earlier: TaskId) -> bool {
        let mut lane_prev: Vec<Option<TaskId>> = vec![None; graph.len()];
        let mut last_on_lane = [None; 4];
        for task in graph.tasks() {
            lane_prev[task.id.0] = last_on_lane[task.lane as usize].replace(task.id);
        }
        let mut seen = vec![false; graph.len()];
        let mut stack = vec![later];
        while let Some(id) = stack.pop() {
            let task = graph.task(id).unwrap();
            for &pred in graph.deps(task).iter().chain(&lane_prev[id.0]) {
                if pred == earlier {
                    return true;
                }
                if !std::mem::replace(&mut seen[pred.0], true) {
                    stack.push(pred);
                }
            }
        }
        false
    }

    /// The weight buffer fact the paged weight store relies on: in a CGOPipe
    /// step, layer `l`'s first page is ordered after the last post-attention of
    /// layer `l − cgopipe_weight_buffers(n_ub)`, and with two or more
    /// micro-batches not after layer `l − 2`'s. If the builder gains a release
    /// edge that orders it after layer `l − 2`, two slots suffice: lower
    /// `cgopipe_weight_buffers` to 2 and update this test.
    #[test]
    fn cgopipe_first_pages_need_three_weight_buffers_with_two_micro_batches() {
        for model in [MoeModelConfig::tiny(), MoeModelConfig::mixtral_8x7b()] {
            let cost = CostModel::new(NodeSpec::t4_single(), model);
            for n_ub in 1..=4u64 {
                let graph = DecodeScheduleBuilder::new(
                    &cost,
                    Policy::offload_default(2 * n_ub, 2),
                    WorkloadShape::new(8, 8),
                )
                .with_layers(8)
                .build(ScheduleKind::CgoPipe)
                .unwrap();
                let id =
                    |label: TaskLabel| graph.tasks().iter().find(|t| t.label == label).unwrap().id;
                let first_page = |l: u64| id(TaskLabel::micro_batch("Wp", l, 0));
                let last_post = |l: u64| id(TaskLabel::micro_batch("C", l, n_ub - 1));
                let layers = u64::from(cost.model().num_layers.min(8));
                let slots = cgopipe_weight_buffers(n_ub as usize) as u64;
                assert_eq!(slots, if n_ub >= 2 { 3 } else { 2 });
                for l in 1..layers {
                    if l >= 3 {
                        assert!(
                            ordered_after(&graph, first_page(l), last_post(l - 3)),
                            "n_ub {n_ub}: Wp({l},0) must follow C({},{})",
                            l - 3,
                            n_ub - 1
                        );
                    }
                    if l >= 2 {
                        assert_eq!(
                            ordered_after(&graph, first_page(l), last_post(l - 2)),
                            slots == 2,
                            "n_ub {n_ub}: is Wp({l},0) ordered after C({},{})?",
                            l - 2,
                            n_ub - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_schedules_build_and_simulate() {
        let cost = cost();
        let b = builder(&cost);
        for kind in ScheduleKind::all() {
            let graph = b.build(kind).unwrap();
            assert!(!graph.is_empty(), "{} produced no tasks", kind.name());
            let result = simulate(&graph);
            assert!(result.makespan.as_secs() > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn cgopipe_beats_all_baseline_schedules() {
        // The headline claim: same policy, same hardware, CGOPipe's ordering gives the
        // shortest decode step.
        let cost = cost();
        let b = builder(&cost);
        let cgo = b.decode_step_makespan(ScheduleKind::CgoPipe).unwrap();
        for kind in [
            ScheduleKind::FastDecodeOverlap,
            ScheduleKind::FlexGenCpuAttention,
            ScheduleKind::FlexGenGpuAttention,
        ] {
            let other = b.decode_step_makespan(kind).unwrap();
            assert!(
                cgo.as_secs() <= other.as_secs() * 1.001,
                "CGOPipe ({cgo}) should not lose to {} ({other})",
                kind.name()
            );
        }
    }

    #[test]
    fn cgopipe_has_fewer_gpu_bubbles_than_unpaged_variants() {
        let cost = cost();
        let b = builder(&cost);
        let bubbles = |kind: ScheduleKind| {
            let r = simulate(&b.build(kind).unwrap());
            r.lane(Lane::GpuCompute).bubble.as_secs() / r.makespan.as_secs()
        };
        let cgo = bubbles(ScheduleKind::CgoPipe);
        let s3 = bubbles(ScheduleKind::FlexGenCpuAttention);
        assert!(cgo <= s3 + 1e-9, "CGOPipe bubble fraction {cgo} vs S3 {s3}");
    }

    #[test]
    fn s4_moves_more_bytes_over_h2d_than_cgopipe() {
        // FlexGen's KV prefetch consumes PCIe bandwidth that CGOPipe leaves for the
        // weights (§4.1).
        let cost = cost();
        let policy = Policy {
            attention_on_gpu: true,
            ..Policy::offload_default(256, 32)
        };
        let w = WorkloadShape::new(512, 64);
        let b_s4 = DecodeScheduleBuilder::new(&cost, policy, w).with_layers(4);
        let b_cgo =
            DecodeScheduleBuilder::new(&cost, Policy::offload_default(256, 32), w).with_layers(4);
        let h2d_busy = |b: &DecodeScheduleBuilder<'_>, kind| {
            let r = simulate(&b.build(kind).unwrap());
            r.lane(Lane::HostToDevice).busy.as_secs()
        };
        assert!(
            h2d_busy(&b_s4, ScheduleKind::FlexGenGpuAttention)
                > h2d_busy(&b_cgo, ScheduleKind::CgoPipe)
        );
    }

    #[test]
    fn layer_streaming_is_weight_transfer_bound() {
        let cost = cost();
        let policy = Policy {
            batch_size: 64,
            micro_batch_size: 64,
            attention_on_gpu: true,
            ffn_on_gpu: true,
            weights_gpu_ratio: 0.0,
            kv_gpu_ratio: 1.0,
        };
        let b =
            DecodeScheduleBuilder::new(&cost, policy, WorkloadShape::new(77, 32)).with_layers(6);
        let graph = b.build(ScheduleKind::LayerStreaming).unwrap();
        let r = simulate(&graph);
        let h2d = r.lane(Lane::HostToDevice);
        let gpu = r.lane(Lane::GpuCompute);
        assert!(
            h2d.busy.as_secs() > 5.0 * gpu.busy.as_secs(),
            "weights dominate: {h2d:?} vs {gpu:?}"
        );
        assert!(h2d.utilization > 0.9);
    }

    #[test]
    fn task_counts_scale_with_layers_and_micro_batches() {
        let cost = cost();
        let b2 = builder(&cost).with_layers(2);
        let b4 = builder(&cost).with_layers(4);
        let g2 = b2.build(ScheduleKind::CgoPipe).unwrap();
        let g4 = b4.build(ScheduleKind::CgoPipe).unwrap();
        assert!(g4.len() > g2.len());
        // 5 tasks per (layer, micro-batch) plus weight pages and the prologue.
        let n_ub = b4.policy().num_micro_batches() as usize;
        assert!(g4.len() >= 4 * n_ub * 5);
    }

    #[test]
    fn fully_resident_weights_produce_no_weight_tasks() {
        let cost = CostModel::new(
            NodeSpec::a100_case_study(300.0, 4.0),
            MoeModelConfig::mixtral_8x7b(),
        );
        let policy = Policy {
            weights_gpu_ratio: 1.0,
            ..Policy::offload_default(64, 32)
        };
        let b =
            DecodeScheduleBuilder::new(&cost, policy, WorkloadShape::new(128, 32)).with_layers(3);
        let g = b.build(ScheduleKind::CgoPipe).unwrap();
        assert!(g.tasks().iter().all(|t| t.kind != TaskKind::WeightTransfer));
    }

    #[test]
    fn heterogeneous_micro_batch_tokens_change_the_schedule() {
        let cost = cost();
        let uniform = builder(&cost);
        // Same total tokens, skewed across micro-batches: the imbalance must be
        // visible in the simulated pipeline rather than silently averaged away.
        let skewed_tokens: Vec<u64> = vec![120, 60, 40, 20, 10, 3, 2, 1];
        assert_eq!(skewed_tokens.iter().sum::<u64>(), 256);
        let skewed = builder(&cost).with_micro_batch_tokens(&skewed_tokens);
        assert_eq!(skewed.ub_tokens, Some(skewed_tokens.as_slice()));
        for kind in [ScheduleKind::CgoPipe, ScheduleKind::FlexGenGpuAttention] {
            let t_uniform = uniform.decode_step_makespan(kind).unwrap();
            let t_skewed = skewed.decode_step_makespan(kind).unwrap();
            let rel = (t_skewed.as_secs() - t_uniform.as_secs()).abs() / t_uniform.as_secs();
            assert!(
                rel > 1e-3,
                "{}: occupancy skew must change the makespan: {t_skewed} vs {t_uniform}",
                kind.name()
            );
        }
    }

    #[test]
    fn fewer_micro_batches_than_policy_are_honoured() {
        let cost = cost();
        // A tail round of the serving loop may fill only 3 of the policy's 8
        // micro-batches.
        let b = builder(&cost).with_micro_batch_tokens(&[32, 31, 5]);
        let g = b.build(ScheduleKind::CgoPipe).unwrap();
        let r = simulate(&g);
        assert!(r.makespan.as_secs() > 0.0);
        // 5 pipeline tasks per (layer, micro-batch): 4 layers × 3 micro-batches.
        let pipeline_tasks = g
            .tasks()
            .iter()
            .filter(|t| t.kind != TaskKind::WeightTransfer)
            .count();
        assert_eq!(pipeline_tasks, 4 * 3 * 5);
    }

    #[test]
    fn a_zero_occupancy_micro_batch_is_a_typed_error() {
        let cost = cost();
        let b = builder(&cost).with_micro_batch_tokens(&[32, 0, 5]);
        for kind in ScheduleKind::all() {
            let err = SimError::ZeroOccupancy { micro_batch: 1 };
            assert_eq!(b.decode_step_makespan(kind), Err(err.clone()));
            assert_eq!(b.build(kind), Err(err));
        }
        let none = builder(&cost).with_micro_batch_tokens(&[]);
        assert_eq!(
            none.decode_step_makespan(ScheduleKind::CgoPipe),
            Err(SimError::NoMicroBatches)
        );
    }

    #[test]
    fn heterogeneous_micro_batch_contexts_create_stragglers() {
        let cost = cost();
        // Same occupancy everywhere; one micro-batch carries far more KV per
        // sequence. Its CPU attention must lengthen the step relative to the
        // balanced assignment with the same total context.
        let occupancy = [32u64, 32, 32, 32];
        let balanced = builder(&cost)
            .with_micro_batch_tokens(&occupancy)
            .with_micro_batch_contexts(&[141, 141, 141, 141]);
        let skewed = builder(&cost)
            .with_micro_batch_tokens(&occupancy)
            .with_micro_batch_contexts(&[420, 48, 48, 48]);
        for kind in [ScheduleKind::CgoPipe, ScheduleKind::FlexGenCpuAttention] {
            let t_balanced = balanced.decode_step_makespan(kind).unwrap();
            let t_skewed = skewed.decode_step_makespan(kind).unwrap();
            assert!(
                t_skewed > t_balanced,
                "{}: the KV-heavy micro-batch must straggle: {t_skewed} vs {t_balanced}",
                kind.name()
            );
        }
    }

    #[test]
    fn one_reused_buffer_prices_like_fresh_ones_across_policies_and_kinds() {
        // The token-keyed memo must not carry a price over to a cost model,
        // kind, FFN placement or KV split that prices it differently: each
        // step below changes one of them at a time, for every kind in turn.
        let costs = [
            cost(),
            CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b()),
        ];
        let steps = [
            (0, true, 0.0),
            (1, true, 0.0),
            (1, false, 0.0),
            (1, false, 0.5),
            (0, false, 0.5),
            (0, true, 0.0),
        ];
        let workload = WorkloadShape::new(77, 128);
        let loads: [&[u64]; 3] = [&[16, 16, 9], &[16, 9, 3, 16], &[9]];
        let mut buffers = StepBuffers::default();
        for kind in ScheduleKind::all() {
            for (c, ffn_on_gpu, kv_gpu_ratio) in steps {
                let policy = Policy {
                    ffn_on_gpu,
                    kv_gpu_ratio,
                    weights_gpu_ratio: 0.2,
                    ..Policy::offload_default(64, 16)
                };
                for tokens in loads {
                    let b = DecodeScheduleBuilder::new(&costs[c], policy, workload)
                        .with_layers(3)
                        .with_micro_batch_tokens(tokens);
                    let reused = b.decode_step_makespan_in(kind, &mut buffers).unwrap();
                    let fresh = b.decode_step_makespan(kind).unwrap();
                    assert_eq!(
                        reused.as_secs().to_bits(),
                        fresh.as_secs().to_bits(),
                        "{} on cost model {c}, {tokens:?}, FFN on GPU {ffn_on_gpu}, \
                         KV on GPU {kv_gpu_ratio}",
                        kind.name()
                    );
                }
            }
        }
    }

    /// `policy` with the GPU weight ratio that streams only `bytes` of each
    /// layer's weights under `cost`.
    fn streaming_bytes(cost: &CostModel, policy: Policy, bytes: u64) -> Policy {
        let layer = cost.streamed_layer_bytes(&policy).as_bytes();
        let policy = Policy {
            weights_gpu_ratio: 1.0 - bytes as f64 / layer as f64,
            ..policy
        };
        assert_eq!(cost.streamed_layer_bytes(&policy).as_bytes(), bytes);
        policy
    }

    #[test]
    fn repeated_structures_build_replay_and_compile_once() {
        // One shape, loads that change every step: the layer emitter runs
        // once, the template is replayed once and compiled once, and the
        // program runs for every later step.
        let cost = cost();
        let mut buffers = StepBuffers::default();
        let price = |buffers: &mut StepBuffers, tokens: &[u64], layers: u32| {
            builder(&cost)
                .with_layers(layers)
                .with_micro_batch_tokens(tokens)
                .decode_step_makespan_in(ScheduleKind::CgoPipe, buffers)
                .unwrap();
        };
        let layers = builder(&cost).num_layers;
        for step in 0..100u64 {
            let tokens = [16, 16 - step % 5, 9 + step % 3, 12];
            let contexts = [90 + step, 120 + 2 * step, 77, 300 - step];
            builder(&cost)
                .with_micro_batch_tokens(&tokens)
                .with_micro_batch_contexts(&contexts)
                .decode_step_makespan_in(ScheduleKind::CgoPipe, &mut buffers)
                .unwrap();
        }
        assert_eq!(buffers.work(), [1, 1, 1, 98]);
        // Twelve micro-batches share the slot of four: the new shape is
        // emitted and replayed, and so is the old one on its return, which
        // compiles on its next pricing.
        assert_eq!(4 % TEMPLATE_SLOTS, 12 % TEMPLATE_SLOTS);
        price(&mut buffers, &[8; 12], layers);
        assert_eq!(buffers.work(), [2, 2, 1, 98]);
        price(&mut buffers, &[16, 12, 9, 12], layers);
        assert_eq!(buffers.work(), [3, 3, 1, 98]);
        price(&mut buffers, &[16, 14, 10, 12], layers);
        assert_eq!(buffers.work(), [3, 3, 2, 98]);
        price(&mut buffers, &[16, 15, 11, 12], layers);
        assert_eq!(buffers.work(), [3, 3, 2, 99]);
        // The same template over another layer count is replayed, not built.
        price(&mut buffers, &[16, 15, 11, 12], layers - 1);
        assert_eq!(buffers.work(), [3, 4, 2, 99]);
        // Three streamed bytes over four micro-batches make three weight
        // pages, not four: another shape at the same count, so the emitter
        // runs again, and again on the way back.
        let few_pages = streaming_bytes(&cost, *builder(&cost).policy(), 3);
        let tokens = [16, 15, 11, 12];
        DecodeScheduleBuilder::new(&cost, few_pages, WorkloadShape::new(77, 128))
            .with_layers(layers)
            .with_micro_batch_tokens(&tokens)
            .decode_step_makespan_in(ScheduleKind::CgoPipe, &mut buffers)
            .unwrap();
        assert_eq!(buffers.work(), [4, 5, 2, 99]);
        price(&mut buffers, &tokens, layers);
        assert_eq!(buffers.work(), [5, 6, 2, 99]);
        // A shape priced once compiles nothing.
        let mut buffers = StepBuffers::default();
        builder(&cost)
            .decode_step_makespan_in(ScheduleKind::FlexGenGpuAttention, &mut buffers)
            .unwrap();
        assert_eq!(buffers.work(), [1, 1, 0, 0]);
    }

    /// The shape-completeness oracle. A shape that left out something the
    /// emitter reads would price a step on the template of another step
    /// with the same micro-batch count, so every case changes the shape at
    /// one count, through one reused `StepBuffers`, and checks each step
    /// against fresh pricing and `simulate(build())` bit for bit: CGOPipe
    /// with fewer streamed bytes than micro-batches (so only `bytes % n_ub`
    /// pages exist), then the usual one page per micro-batch, then no
    /// streamed weights at all; and S4 over a latency-free link, where a
    /// tiny CPU KV share makes a small micro-batch's prefetch zero bytes,
    /// so its prefetch mask flips as the loads move between micro-batches.
    #[test]
    fn shape_changes_at_one_micro_batch_count_price_like_fresh_ones() {
        let cost = cost();
        let mut free_link = NodeSpec::t4_single();
        free_link.link.latency_us = 0.0;
        let free_link = CostModel::new(free_link, MoeModelConfig::mixtral_8x7b());
        let cpu = Policy::offload_default(64, 16);
        let gpu = Policy {
            attention_on_gpu: true,
            kv_gpu_ratio: 1.0 - 1e-6,
            ..cpu
        };
        let tokens = [16, 9, 16, 3];
        let (small, large) = ([1, 1, 1, 1], [4000, 3000, 3500, 2000]);
        let flipped = [1, 3000, 1, 2000];
        let steps = [
            (
                &cost,
                streaming_bytes(&cost, cpu, 3),
                ScheduleKind::CgoPipe,
                &large,
            ),
            (
                &cost,
                streaming_bytes(&cost, cpu, 1),
                ScheduleKind::CgoPipe,
                &small,
            ),
            (&cost, cpu, ScheduleKind::CgoPipe, &large),
            (
                &cost,
                streaming_bytes(&cost, cpu, 2),
                ScheduleKind::CgoPipe,
                &large,
            ),
            (
                &cost,
                Policy {
                    weights_gpu_ratio: 1.0,
                    ..cpu
                },
                ScheduleKind::CgoPipe,
                &small,
            ),
            (&free_link, gpu, ScheduleKind::FlexGenGpuAttention, &large),
            (&free_link, gpu, ScheduleKind::FlexGenGpuAttention, &flipped),
            (&free_link, gpu, ScheduleKind::FlexGenGpuAttention, &small),
            (&free_link, gpu, ScheduleKind::FlexGenGpuAttention, &large),
        ];
        let mut buffers = StepBuffers::default();
        let mut emits = 0;
        for (cost, policy, kind, contexts) in steps {
            let b = DecodeScheduleBuilder::new(cost, policy, WorkloadShape::new(77, 128))
                .with_layers(4)
                .with_micro_batch_tokens(&tokens)
                .with_micro_batch_contexts(contexts);
            let bits = |m: Seconds| m.as_secs().to_bits();
            let reused = bits(b.decode_step_makespan_in(kind, &mut buffers).unwrap());
            let what = format!(
                "{} at {contexts:?}, r_w {}",
                kind.name(),
                policy.weights_gpu_ratio
            );
            assert_eq!(
                reused,
                bits(b.decode_step_makespan(kind).unwrap()),
                "{what}"
            );
            let built = b.build(kind).unwrap();
            assert_eq!(reused, bits(simulate(&built).makespan), "{what}");
            let mut kept = TaskGraph::new();
            let slot = &buffers.slots[tokens.len() % TEMPLATE_SLOTS];
            slot.template.unroll(4, &buffers.table, &mut kept).unwrap();
            assert_eq!(same_stream(&kept, &built), Ok(()), "{what}");
            // Each step is a shape the slot did not hold before it.
            emits += 1;
            assert_eq!(buffers.work()[0], emits, "{what}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A sequence of pricings through one `StepBuffers` equals fresh
        /// pricings bit for bit, and each kept template unrolls to the
        /// freshly built graph. Steps switch kind, cost model (S1, L4, and S1
        /// over a latency-free link, where a tiny CPU KV share makes some
        /// micro-batches' KV transfers zero bytes), 1–16 micro-batches (so
        /// structures share template slots), weight and KV placement (so the
        /// prologue, weight pages and S4's prefetches and write-backs come
        /// and go) and loads, and some fail with a zero or a missing
        /// context. Each is priced up to four times with fresh loads, so
        /// structures are replayed, compiled and run as programs.
        #[test]
        fn a_reused_buffer_prices_any_sequence_of_steps_like_fresh_ones(
            steps in collection::vec(
                (0usize..5, 0usize..3, 1usize..=16, (0u8..3, 0u8..3, any::<bool>()), 1u32..=4),
                1..24,
            ),
            repeats in collection::vec(1usize..=4, 24),
            seed in any::<u64>(),
        ) {
            let mixtral = MoeModelConfig::mixtral_8x7b();
            let mut free_link = NodeSpec::t4_single();
            free_link.link.latency_us = 0.0;
            let costs = [
                CostModel::new(NodeSpec::t4_single(), mixtral.clone()),
                CostModel::new(NodeSpec::l4_single(), mixtral.clone()),
                CostModel::new(free_link, mixtral),
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut buffers = StepBuffers::default();
            for (&(kind, c, n_ub, (w, kv, ffn_on_gpu), layers), &repeat) in steps.iter().zip(&repeats) {
                let kind = ScheduleKind::all()[kind];
                let policy = Policy {
                    ffn_on_gpu,
                    weights_gpu_ratio: [0.0, 0.5, 1.0][usize::from(w)],
                    kv_gpu_ratio: [0.0, 1.0, 1.0 - 1e-6][usize::from(kv)],
                    ..Policy::offload_default(16 * n_ub as u64, 16)
                };
                for _ in 0..repeat {
                    let tokens: Vec<u64> = (0..n_ub).map(|_| rng.gen_range(1..=16)).collect();
                    let mut contexts: Vec<u64> =
                        (0..n_ub).map(|_| rng.gen_range(1..4000)).collect();
                    match rng.gen_range(0..10) {
                        0 => contexts[rng.gen_range(0..n_ub)] = 0,
                        1 => contexts.push(1),
                        _ => {}
                    }
                    let b = DecodeScheduleBuilder::new(&costs[c], policy, WorkloadShape::new(77, 128))
                        .with_layers(layers)
                        .with_micro_batch_tokens(&tokens)
                        .with_micro_batch_contexts(&contexts);
                    let bits = |m: Result<Seconds, SimError>| m.map(|m| m.as_secs().to_bits());
                    let reused = bits(b.decode_step_makespan_in(kind, &mut buffers));
                    prop_assert_eq!(
                        reused.clone(),
                        bits(b.decode_step_makespan(kind)),
                        "{} on cost model {}, {:?} at {:?}", kind.name(), c, tokens, contexts
                    );
                    if reused.is_ok() {
                        let mut kept = TaskGraph::new();
                        buffers.slots[n_ub % TEMPLATE_SLOTS]
                            .template
                            .unroll(layers, &buffers.table, &mut kept)
                            .unwrap();
                        let same = same_stream(&kept, &b.build(kind).unwrap());
                        prop_assert!(same.is_ok(), "{}: {:?}", kind.name(), same);
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_or_zero_contexts_are_typed_errors() {
        let cost = cost();
        let tokens = [32, 32];
        let priced = |contexts: &[u64]| {
            builder(&cost)
                .with_micro_batch_tokens(&tokens)
                .with_micro_batch_contexts(contexts)
                .decode_step_makespan(ScheduleKind::CgoPipe)
        };
        let count = SimError::ContextCount {
            micro_batches: 2,
            contexts: 1,
        };
        assert_eq!(priced(&[100]), Err(count));
        assert_eq!(
            priced(&[100, 0]),
            Err(SimError::ZeroContext { micro_batch: 1 })
        );
        assert!(priced(&[100, 100]).is_ok());
    }

    /// A ratio drawn at either end of `[0, 1]`, at its middle or strictly
    /// inside it: zero, partial and full pages all occur.
    fn ratio(pick: u8, inside: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            _ => inside,
        }
    }

    /// Whether two graphs hold the same tasks in the same order: lanes,
    /// duration bits, kinds, labels and dependency ids.
    fn same_stream(unrolled: &TaskGraph, reference: &TaskGraph) -> Result<(), String> {
        if unrolled.len() != reference.len() {
            return Err(format!("{} tasks vs {}", unrolled.len(), reference.len()));
        }
        for (u, r) in unrolled.tasks().iter().zip(reference.tasks()) {
            let key = |g: &TaskGraph, t: &moe_sim::Task| {
                let deps: Vec<usize> = g.deps(t).iter().map(|d| d.0).collect();
                (
                    t.lane,
                    t.duration.as_secs().to_bits(),
                    t.kind,
                    t.label,
                    deps,
                )
            };
            if key(unrolled, u) != key(reference, r) {
                return Err(format!(
                    "task {}: {:?} vs {:?}",
                    u.id.0,
                    key(unrolled, u),
                    key(reference, r)
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The layer template is the pre-template emitters' stream, task for
        /// task, and its play is the Fig. 6 graph played in full, bit for
        /// bit: random placements, ratios, ragged last micro-batches, 1–16
        /// micro-batches with occupancy and context skew, every depth of the
        /// model and both model presets, under every schedule kind.
        #[test]
        fn unrolled_template_is_the_reference_stream_and_plays_bit_for_bit(
            tiny in any::<bool>(),
            (mu, n_ub, ragged) in (1u64..64, 1u64..=16, 0u64..64),
            (attention_on_gpu, ffn_on_gpu) in (any::<bool>(), any::<bool>()),
            (w_pick, r_w, c_pick, r_c) in (0u8..4, 0.0f64..1.0, 0u8..4, 0.0f64..1.0),
            loads in collection::vec((1u64..64, 1u64..4096), 1..=16),
            explicit in 0u8..3,
            depth in 0.0f64..1.0,
            (prompt, gen) in (1u64..1024, 1u64..256),
        ) {
            let cost = if tiny {
                CostModel::new(NodeSpec::l4_single(), MoeModelConfig::tiny())
            } else {
                CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
            };
            let policy = Policy {
                batch_size: mu * (n_ub - 1) + 1 + ragged % mu,
                micro_batch_size: mu,
                attention_on_gpu,
                ffn_on_gpu,
                weights_gpu_ratio: ratio(w_pick, r_w),
                kv_gpu_ratio: ratio(c_pick, r_c),
            };
            let max_layers = cost.model().num_layers;
            let layers = 1 + (depth * f64::from(max_layers)) as u32 % max_layers;
            let (occupancy, contexts): (Vec<u64>, Vec<u64>) = loads.into_iter().unzip();
            let mut b = DecodeScheduleBuilder::new(&cost, policy, WorkloadShape::new(prompt, gen))
                .with_layers(layers);
            // The policy's own split, explicit occupancies, or both kinds of load.
            if explicit > 0 {
                b = b.with_micro_batch_tokens(&occupancy);
            }
            if explicit > 1 {
                b = b.with_micro_batch_contexts(&contexts);
            }
            let mut buffers = StepBuffers::default();
            for kind in ScheduleKind::all() {
                let unrolled = b.build(kind).unwrap();
                let mut reference = TaskGraph::new();
                b.emit_reference(kind, &mut reference).unwrap();
                let same = same_stream(&unrolled, &reference);
                prop_assert!(same.is_ok(), "{} / {} layers: {:?}", kind.name(), layers, same);
                let played = b.decode_step_makespan_in(kind, &mut buffers).unwrap();
                let full = simulate(&reference).makespan;
                prop_assert_eq!(
                    played.as_secs().to_bits(),
                    full.as_secs().to_bits(),
                    "{} / {:?} / {} layers: {} vs {}",
                    kind.name(),
                    b.ub_tokens,
                    layers,
                    played,
                    full
                );
            }
        }
    }

    /// A fresh pricing of the task `label` of a `kind` step whose micro-batches
    /// hold `tokens` decode tokens at mean contexts `contexts`, straight from the
    /// per-task [`CostModel`] functions.
    fn fresh_price(
        cost: &CostModel,
        policy: &Policy,
        workload: &WorkloadShape,
        (tokens, contexts): (&[u64], &[u64]),
        kind: ScheduleKind,
        label: TaskLabel,
    ) -> Seconds {
        let rendered = label.to_string();
        let tag = &rendered[..rendered.find('(').unwrap()];
        let streamed = cost.streamed_layer_bytes(policy);
        if let [_layer] = label.indices() {
            return match tag {
                "W" => cost.weight_transfer(streamed),
                "L" => {
                    let (total, ctx) = (tokens.iter().sum(), workload.avg_decode_context());
                    cost.pre_attention_gpu(total)
                        + cost.attention_gpu(total, ctx)
                        + cost.post_attention_gpu(total)
                }
                _ => panic!("unexpected {rendered}"),
            };
        }
        let j = label.indices()[1] as usize;
        let (t, ctx) = (tokens[j], contexts[j]);
        let kv_cpu_fraction = 1.0 - policy.kv_gpu_ratio;
        match (kind, tag) {
            (ScheduleKind::FlexGenGpuAttention, "KV") => cost.kv_transfer(t, ctx, kv_cpu_fraction),
            (ScheduleKind::FlexGenGpuAttention, "L") => {
                cost.pre_attention_gpu(t) + cost.attention_gpu(t, ctx) + cost.post_attention_gpu(t)
            }
            (ScheduleKind::FlexGenGpuAttention, "KVout") => cost.kv_offload(
                cost.model()
                    .kv_bytes_per_token_per_layer()
                    .scale(kv_cpu_fraction)
                    * t,
            ),
            (_, "A") => cost.pre_attention_gpu(t),
            (_, "QKV") => cost.qkv_offload(t),
            (_, "B") => cost.attention_cpu(t, ctx),
            (_, "H") => cost.hidden_upload(t),
            (_, "C") if policy.ffn_on_gpu => cost.post_attention_gpu(t),
            (_, "C") => cost.post_attention_gpu_without_ffn(t),
            (_, "Wp") => cost.weight_transfer(split_into_pages(streamed, tokens.len())[j]),
            _ => panic!("unexpected {rendered} under {}", kind.name()),
        }
    }

    #[test]
    fn every_task_duration_is_a_fresh_pricing_of_its_micro_batch() {
        // Micro-batches whose durations are reused from a neighbour must be
        // priced as if they were not: neighbours that share tokens but not
        // context, share context but not tokens, or share both; skewed
        // occupancies; and the policy's own split with a ragged last
        // micro-batch.
        let workload = WorkloadShape::new(77, 128);
        let loads: [(&[u64], Option<&[u64]>); 5] = [
            (
                &[32, 32, 32, 7, 7, 7, 1],
                Some(&[90, 90, 400, 400, 400, 50, 50]),
            ),
            (&[16, 16, 16, 16], Some(&[300, 20, 300, 20])),
            (&[64, 8, 8, 64, 3], Some(&[141, 141, 141, 141, 141])),
            (&[120, 60, 40, 20, 10, 3, 2, 1], None),
            (&[5], Some(&[2000])),
        ];
        for model in [MoeModelConfig::tiny(), MoeModelConfig::mixtral_8x7b()] {
            let cost = CostModel::new(NodeSpec::t4_single(), model);
            for (attention_on_gpu, ffn_on_gpu) in [(false, true), (false, false), (true, true)] {
                let policy = Policy {
                    batch_size: 7 * 32 + 5,
                    micro_batch_size: 32,
                    attention_on_gpu,
                    ffn_on_gpu,
                    weights_gpu_ratio: 0.1,
                    kv_gpu_ratio: 0.25,
                };
                let uniform: Vec<u64> = (0..8).map(|j| if j == 7 { 5 } else { 32 }).collect();
                let avg = [workload.avg_decode_context(); 8];
                let cases = loads
                    .iter()
                    .map(|&(tokens, contexts)| (Some(tokens), contexts))
                    .chain([(None, None)]);
                for (tokens, contexts) in cases {
                    let mut b = DecodeScheduleBuilder::new(&cost, policy, workload).with_layers(3);
                    if let Some(tokens) = tokens {
                        b = b.with_micro_batch_tokens(tokens);
                    }
                    if let Some(contexts) = contexts {
                        b = b.with_micro_batch_contexts(contexts);
                    }
                    let tokens = tokens.unwrap_or(&uniform);
                    let contexts = contexts.unwrap_or(&avg[..tokens.len()]);
                    for kind in ScheduleKind::all() {
                        for task in b.build(kind).unwrap().tasks() {
                            let fresh = fresh_price(
                                &cost,
                                &policy,
                                &workload,
                                (tokens, contexts),
                                kind,
                                task.label,
                            );
                            assert_eq!(
                                task.duration.as_secs().to_bits(),
                                fresh.as_secs().to_bits(),
                                "{} {} with {tokens:?} at {contexts:?}",
                                kind.name(),
                                task.label
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rendered_labels_match_the_fig6_names() {
        let cost = cost();
        let w = WorkloadShape::new(77, 128);
        let render = |policy: Policy, kind: ScheduleKind| {
            let b = DecodeScheduleBuilder::new(&cost, policy, w)
                .with_layers(2)
                .with_micro_batch_tokens(&[32, 31, 5]);
            let g = b.build(kind).unwrap();
            let labels: Vec<String> = g.tasks().iter().map(|t| t.label.to_string()).collect();
            labels.join(" ")
        };
        let cpu = Policy::offload_default(96, 32);
        let gpu = Policy {
            attention_on_gpu: true,
            ..cpu
        };
        assert_eq!(
            render(cpu, ScheduleKind::CgoPipe),
            "W(0) A(0,0) QKV(0,0) B(0,0) H(0,0) Wp(1,0) A(0,1) QKV(0,1) B(0,1) H(0,1) Wp(1,1) \
             C(0,0) A(0,2) QKV(0,2) B(0,2) H(0,2) Wp(1,2) C(0,1) A(1,0) QKV(1,0) B(1,0) H(1,0) \
             C(0,2) A(1,1) QKV(1,1) B(1,1) H(1,1) C(1,0) A(1,2) QKV(1,2) B(1,2) H(1,2) C(1,1) \
             C(1,2)"
        );
        assert_eq!(
            render(gpu, ScheduleKind::FlexGenGpuAttention),
            "W(0) KV(0,0) KV(0,1) KV(0,2) W(1) L(0,0) KVout(0,0) L(0,1) KVout(0,1) L(0,2) \
             KVout(0,2) KV(1,0) KV(1,1) KV(1,2) L(1,0) KVout(1,0) L(1,1) KVout(1,1) L(1,2) \
             KVout(1,2)"
        );
        assert_eq!(
            render(gpu, ScheduleKind::LayerStreaming),
            "W(0) L(0) W(1) L(1)"
        );
    }

    #[test]
    fn schedule_kind_metadata() {
        assert_eq!(ScheduleKind::all().len(), 5);
        assert!(ScheduleKind::CgoPipe.uses_cpu_attention());
        assert!(!ScheduleKind::FlexGenGpuAttention.uses_cpu_attention());
        assert!(ScheduleKind::LayerStreaming.name().contains("DeepSpeed"));
    }
}
