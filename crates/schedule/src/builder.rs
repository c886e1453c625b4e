//! Decode-stage pipeline schedules (Fig. 6 and Algorithm 1 of the paper).
//!
//! Each builder turns a policy + workload into tasks over the four lanes of the
//! discrete-event simulator, with task durations taken from the HRM cost model,
//! and emits them into a [`TaskSink`]: a [`TaskGraph`] for the Fig. 6 timeline,
//! or a [`Player`] that prices a decode step without keeping any task. The
//! schedules differ only in *ordering and granularity* — which is exactly the
//! paper's point: CGOPipe's paged-weight interleaving and two-ahead
//! pre-attention remove the bubbles the baseline orderings leave on the GPU and
//! PCIe lanes.

use moe_hardware::Seconds;
use moe_memory::pages::split_into_pages;
use moe_policy::{CostModel, Policy, WorkloadShape};
use moe_sim::{Lane, Player, SimError, TaskGraph, TaskId, TaskKind, TaskLabel, TaskSink};

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
    /// (one entry per micro-batch, each the number of active sequences).
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains a zero entry — an empty micro-batch
    /// has no tasks and would silently skew the pipeline stagger.
    pub fn with_micro_batch_tokens(mut self, tokens: &'a [u64]) -> Self {
        assert!(!tokens.is_empty(), "need at least one micro-batch");
        assert!(
            tokens.iter().all(|&t| t > 0),
            "micro-batch token counts must be positive"
        );
        self.ub_tokens = Some(tokens);
        self
    }

    /// Overrides the mean decode context per micro-batch (call after
    /// [`Self::with_micro_batch_tokens`]): attention and KV-transfer tasks of
    /// micro-batch `j` are costed at `contexts[j]` instead of the workload's
    /// uniform average, so imbalanced token assignments produce straggler
    /// micro-batches in the simulated pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` does not hold exactly one positive entry per
    /// micro-batch.
    pub fn with_micro_batch_contexts(mut self, contexts: &'a [u64]) -> Self {
        assert_eq!(
            contexts.len() as u64,
            self.num_micro_batches(),
            "need one context entry per micro-batch"
        );
        assert!(
            contexts.iter().all(|&c| c > 0),
            "micro-batch contexts must be positive"
        );
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

    /// The durations of each micro-batch, from `price` of its `key`. Equal
    /// keys price equal durations, so a micro-batch whose key equals its
    /// predecessor's reuses its durations: a uniform split is priced twice,
    /// once for its full micro-batches and once for the last.
    fn price_micro_batches<K: Copy + PartialEq, T: Copy>(
        &self,
        key: impl Fn(u64) -> K,
        price: impl Fn(K) -> T,
    ) -> Vec<T> {
        let n_ub = self.num_micro_batches();
        let mut priced = Vec::with_capacity(n_ub as usize);
        let mut last: Option<(K, T)> = None;
        for j in 0..n_ub {
            let key = key(j);
            let durations = match last {
                Some((last_key, durations)) if last_key == key => durations,
                _ => price(key),
            };
            priced.push(durations);
            last = Some((key, durations));
        }
        priced
    }

    /// Builds the task graph of one decode step under the given schedule: the
    /// timeline Fig. 6 draws.
    ///
    /// # Errors
    ///
    /// Propagates task-graph construction errors (none are expected for valid
    /// policies; they would indicate a bug in the builder).
    pub fn build(&self, kind: ScheduleKind) -> Result<TaskGraph, SimError> {
        let mut graph = TaskGraph::new();
        self.emit(kind, &mut graph)?;
        Ok(graph)
    }

    /// Plays one decode step under `kind` as its tasks are emitted and returns
    /// its makespan, without building a graph. It equals
    /// [`moe_sim::simulate`]`(&self.build(kind)?).makespan` bit for bit: the
    /// same tasks reach the same lane rule in the same order.
    ///
    /// # Errors
    ///
    /// Propagates task emission errors (see [`Self::build`]).
    pub fn decode_step_makespan(&self, kind: ScheduleKind) -> Result<Seconds, SimError> {
        let mut player = Player::with_capacity(self.max_tasks());
        self.emit(kind, &mut player)?;
        Ok(player.makespan())
    }

    /// An upper bound on the tasks one step emits under any schedule kind: six
    /// per (layer, micro-batch) and one whole-layer transfer per layer, plus the
    /// prologue.
    fn max_tasks(&self) -> usize {
        self.num_layers as usize * (6 * self.num_micro_batches() as usize + 1) + 1
    }

    /// Emits the tasks of one decode step under `kind` into `sink`, in lane
    /// (FIFO) order.
    fn emit<S: TaskSink>(&self, kind: ScheduleKind, sink: &mut S) -> Result<(), SimError> {
        match kind {
            ScheduleKind::CgoPipe => {
                self.build_cpu_attention_pipeline(sink, true, WeightOrder::Interleaved)
            }
            ScheduleKind::FastDecodeOverlap => {
                self.build_cpu_attention_pipeline(sink, true, WeightOrder::WholeAtStart)
            }
            ScheduleKind::FlexGenCpuAttention => {
                self.build_cpu_attention_pipeline(sink, false, WeightOrder::WholeAtEnd)
            }
            ScheduleKind::FlexGenGpuAttention => self.build_gpu_attention_pipeline(sink),
            ScheduleKind::LayerStreaming => self.build_layer_streaming(sink),
        }
    }

    /// CPU-attention pipelines (CGOPipe, S2, S3). `two_ahead` enables CGOPipe's
    /// pre-attention stagger; `weight_order` selects how the next layer's weights are
    /// placed on the H2D lane.
    fn build_cpu_attention_pipeline<S: TaskSink>(
        &self,
        g: &mut S,
        two_ahead: bool,
        weight_order: WeightOrder,
    ) -> Result<(), SimError> {
        let n_ub = self.num_micro_batches();
        let layers = u64::from(self.num_layers);
        let total = layers * n_ub;
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let whole_layer = self.cost.weight_transfer(streamed);
        // Every layer repeats the same micro-batches, so each distinct one is
        // costed once per step: (pre, qkv, attention, hidden, post, next-layer
        // weight page), keyed by its tokens, context and page.
        let pages = split_into_pages(streamed, n_ub as usize);
        let costs: Vec<[Seconds; 6]> = self.price_micro_batches(
            |j| {
                (
                    self.micro_batch_tokens(j),
                    self.ctx_of(j),
                    pages[j as usize],
                )
            },
            |(tokens, ctx, page)| {
                [
                    self.cost.pre_attention_gpu(tokens),
                    self.cost.qkv_offload(tokens),
                    self.cost.attention_cpu(tokens, ctx),
                    self.cost.hidden_upload(tokens),
                    if self.policy.ffn_on_gpu {
                        self.cost.post_attention_gpu(tokens)
                    } else {
                        self.cost.post_attention_gpu_without_ffn(tokens)
                    },
                    self.cost.weight_transfer(page),
                ]
            },
        );

        // Per global pipeline step g = layer * n_ub + j. Steps are visited in
        // order, so their (layer, micro-batch) is carried along, not divided out.
        let next_step = |(i, j): (u64, u64)| {
            if j + 1 == n_ub {
                (i + 1, 0)
            } else {
                (i, j + 1)
            }
        };
        let mut hidden: Vec<Option<TaskId>> = vec![None; total as usize];
        let mut post: Vec<Option<TaskId>> = vec![None; total as usize];
        // Last weight-transfer task of each layer (compute of that layer depends on it).
        let mut weights_done: Vec<Option<TaskId>> = vec![None; layers as usize];

        // Prologue: layer 0 weights arrive before the step starts (steady state keeps
        // the H2D lane one layer ahead); model them as an initial transfer.
        if !streamed.is_zero() {
            let t = g.add_task(
                Lane::HostToDevice,
                whole_layer,
                TaskKind::WeightTransfer,
                TaskLabel::layer("W", 0),
                &[],
            )?;
            weights_done[0] = Some(t);
        }

        // CGOPipe launches pre-attention two micro-batches ahead of the corresponding
        // post-attention (Algorithm 1): the GPU lane order becomes
        // A(0) A(1) C(0) A(2) C(1) A(3) ... which keeps the GPU busy while the CPU
        // attends the in-flight micro-batches. The simpler variants use no stagger.
        let stagger = if two_ahead && n_ub >= 2 { 2u64 } else { 0 };

        // Closure creating the GPU post-attention task of global step `gidx`,
        // which is micro-batch `j` of layer `i`.
        let create_post = |g: &mut S,
                           gidx: u64,
                           (i, j): (u64, u64),
                           hidden: &[Option<TaskId>],
                           weights_done: &[Option<TaskId>]|
         -> Result<TaskId, SimError> {
            let [.., post, _] = costs[j as usize];
            let (deps, n_deps) = existing([hidden[gidx as usize], weights_done[i as usize]]);
            g.add_task(
                Lane::GpuCompute,
                post,
                TaskKind::PostAttention,
                TaskLabel::micro_batch("C", i, j),
                &deps[..n_deps],
            )
        };

        // (layer, micro-batch) of steps `gidx` and `gidx - stagger`.
        let (mut step, mut post_step) = ((0, 0), (0, 0));
        for gidx in 0..(total + stagger) {
            // With the stagger, post-attention of step g - 2 is enqueued on the GPU
            // lane *before* pre-attention of step g.
            if stagger > 0 && gidx >= stagger && gidx - stagger < total {
                let target = gidx - stagger;
                let id = create_post(g, target, post_step, &hidden, &weights_done)?;
                post[target as usize] = Some(id);
                post_step = next_step(post_step);
            }
            if gidx >= total {
                continue;
            }
            let (i, j) = step;
            step = next_step(step);
            let [pre, qkv, attention, upload, _, page] = costs[j as usize];

            // S2-style: whole next-layer weights at the *start* of layer i's H2D traffic.
            if weight_order == WeightOrder::WholeAtStart
                && j == 0
                && i + 1 < layers
                && !streamed.is_zero()
            {
                let t = g.add_task(
                    Lane::HostToDevice,
                    whole_layer,
                    TaskKind::WeightTransfer,
                    TaskLabel::layer("W", i + 1),
                    &[],
                )?;
                weights_done[(i + 1) as usize] = Some(t);
            }

            // GPU pre-attention.
            let prev_post = if i > 0 {
                post[(gidx - n_ub) as usize]
            } else {
                None
            };
            let (pre_deps, n_deps) = existing([prev_post, weights_done[i as usize]]);
            let pre_id = g.add_task(
                Lane::GpuCompute,
                pre,
                TaskKind::PreAttention,
                TaskLabel::micro_batch("A", i, j),
                &pre_deps[..n_deps],
            )?;

            // QKV offload to the CPU.
            let qkv_id = g.add_task(
                Lane::DeviceToHost,
                qkv,
                TaskKind::QkvOffload,
                TaskLabel::micro_batch("QKV", i, j),
                &[pre_id],
            )?;

            // CPU attention, costed at this micro-batch's mean decode context.
            let attn_id = g.add_task(
                Lane::CpuCompute,
                attention,
                TaskKind::Attention,
                TaskLabel::micro_batch("B", i, j),
                &[qkv_id],
            )?;

            // Hidden states back to the GPU.
            let hidden_id = g.add_task(
                Lane::HostToDevice,
                upload,
                TaskKind::HiddenTransfer,
                TaskLabel::micro_batch("H", i, j),
                &[attn_id],
            )?;
            hidden[gidx as usize] = Some(hidden_id);

            // Interleaved weight page for the next layer (CGOPipe).
            if weight_order == WeightOrder::Interleaved
                && i + 1 < layers
                && !pages[j as usize].is_zero()
            {
                let t = g.add_task(
                    Lane::HostToDevice,
                    page,
                    TaskKind::WeightTransfer,
                    TaskLabel::micro_batch("Wp", i + 1, j),
                    &[],
                )?;
                weights_done[(i + 1) as usize] = Some(t);
            }

            // S3-style: whole next-layer weights *after* this layer's hidden uploads.
            if weight_order == WeightOrder::WholeAtEnd
                && j + 1 == n_ub
                && i + 1 < layers
                && !streamed.is_zero()
            {
                let t = g.add_task(
                    Lane::HostToDevice,
                    whole_layer,
                    TaskKind::WeightTransfer,
                    TaskLabel::layer("W", i + 1),
                    &[],
                )?;
                weights_done[(i + 1) as usize] = Some(t);
            }

            // Without the stagger the post-attention task follows immediately.
            if stagger == 0 {
                let id = create_post(g, gidx, (i, j), &hidden, &weights_done)?;
                post[gidx as usize] = Some(id);
            }
        }
        Ok(())
    }

    /// S4: GPU attention with per-micro-batch KV prefetch over PCIe.
    fn build_gpu_attention_pipeline<S: TaskSink>(&self, g: &mut S) -> Result<(), SimError> {
        let n_ub = self.num_micro_batches();
        let layers = u64::from(self.num_layers);
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let whole_layer = self.cost.weight_transfer(streamed);
        let kv_cpu_fraction = 1.0 - self.policy.kv_gpu_ratio;
        // Per distinct micro-batch, keyed by its tokens and context, costed
        // once per step: (KV prefetch, fused GPU layer, write-back of the new
        // KV entries to the CPU-resident cache).
        let costs: Vec<[Seconds; 3]> = self.price_micro_batches(
            |j| (self.micro_batch_tokens(j), self.ctx_of(j)),
            |(tokens, ctx)| {
                let append = self
                    .cost
                    .model()
                    .kv_bytes_per_token_per_layer()
                    .scale(kv_cpu_fraction)
                    * tokens;
                [
                    self.cost.kv_transfer(tokens, ctx, kv_cpu_fraction),
                    self.cost.pre_attention_gpu(tokens)
                        + self.cost.attention_gpu(tokens, ctx)
                        + self.cost.post_attention_gpu(tokens),
                    self.cost.kv_offload(append),
                ]
            },
        );

        let mut weights_done: Vec<Option<TaskId>> = vec![None; layers as usize];
        if !streamed.is_zero() {
            weights_done[0] = Some(g.add_task(
                Lane::HostToDevice,
                whole_layer,
                TaskKind::WeightTransfer,
                TaskLabel::layer("W", 0),
                &[],
            )?);
        }

        let mut prev_post: Vec<Option<TaskId>> = vec![None; n_ub as usize];
        let mut kv_ready: Vec<Option<TaskId>> = vec![None; n_ub as usize];
        for i in 0..layers {
            // KV prefetch for every micro-batch of this layer, then the (un-paged)
            // weights of the next layer — the S4 H2D ordering of Fig. 6.
            for j in 0..n_ub {
                let [prefetch, ..] = costs[j as usize];
                kv_ready[j as usize] = if !prefetch.is_zero() && kv_cpu_fraction > 0.0 {
                    Some(g.add_task(
                        Lane::HostToDevice,
                        prefetch,
                        TaskKind::KvTransfer,
                        TaskLabel::micro_batch("KV", i, j),
                        &[],
                    )?)
                } else {
                    None
                };
            }
            if i + 1 < layers && !streamed.is_zero() {
                weights_done[(i + 1) as usize] = Some(g.add_task(
                    Lane::HostToDevice,
                    whole_layer,
                    TaskKind::WeightTransfer,
                    TaskLabel::layer("W", i + 1),
                    &[],
                )?);
            }

            for j in 0..n_ub {
                let [_, compute_time, append_time] = costs[j as usize];
                let (deps, n_deps) = existing([
                    weights_done[i as usize],
                    kv_ready[j as usize],
                    prev_post[j as usize],
                ]);
                let compute = g.add_task(
                    Lane::GpuCompute,
                    compute_time,
                    TaskKind::PostAttention,
                    TaskLabel::micro_batch("L", i, j),
                    &deps[..n_deps],
                )?;
                // New KV entries written back to the CPU-resident cache.
                if kv_cpu_fraction > 0.0 {
                    g.add_task(
                        Lane::DeviceToHost,
                        append_time,
                        TaskKind::QkvOffload,
                        TaskLabel::micro_batch("KVout", i, j),
                        &[compute],
                    )?;
                }
                prev_post[j as usize] = Some(compute);
            }
        }
        Ok(())
    }

    /// DeepSpeed-style layer streaming: a single batch, GPU attention, KV resident on
    /// the GPU, whole-layer weight streaming overlapped with compute.
    fn build_layer_streaming<S: TaskSink>(&self, g: &mut S) -> Result<(), SimError> {
        let layers = u64::from(self.num_layers);
        let tokens = self.total_tokens();
        let ctx = self.ctx();
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let whole_layer = self.cost.weight_transfer(streamed);
        let compute_time = self.cost.pre_attention_gpu(tokens)
            + self.cost.attention_gpu(tokens, ctx)
            + self.cost.post_attention_gpu(tokens);

        let mut prev_compute: Option<TaskId> = None;
        let mut prev_weights: Option<TaskId> = None;
        for i in 0..layers {
            let weights = if streamed.is_zero() {
                None
            } else {
                Some(g.add_task(
                    Lane::HostToDevice,
                    whole_layer,
                    TaskKind::WeightTransfer,
                    TaskLabel::layer("W", i),
                    &[],
                )?)
            };
            let (deps, n_deps) = existing([weights.or(prev_weights), prev_compute]);
            prev_compute = Some(g.add_task(
                Lane::GpuCompute,
                compute_time,
                TaskKind::PostAttention,
                TaskLabel::layer("L", i),
                &deps[..n_deps],
            )?);
            prev_weights = weights;
        }
        Ok(())
    }
}

/// The ids among `ids` that exist, packed in order at the front of a stack
/// buffer, with their count: optional dependencies without a heap allocation.
fn existing<const N: usize>(ids: [Option<TaskId>; N]) -> ([TaskId; N], usize) {
    let mut packed = [TaskId(0); N];
    let mut n = 0;
    for id in ids.into_iter().flatten() {
        packed[n] = id;
        n += 1;
    }
    (packed, n)
}

/// Placement of the next layer's weight transfer on the H2D lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeightOrder {
    /// Pages interleaved with hidden uploads (CGOPipe).
    Interleaved,
    /// One whole-layer transfer issued before the layer's hidden uploads (S2).
    WholeAtStart,
    /// One whole-layer transfer issued after the layer's hidden uploads (S3).
    WholeAtEnd,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::NodeSpec;
    use moe_model::MoeModelConfig;
    use moe_sim::simulate;
    use proptest::prelude::*;

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
    #[should_panic(expected = "must be positive")]
    fn zero_occupancy_micro_batch_panics() {
        let cost = cost();
        let _ = builder(&cost).with_micro_batch_tokens(&[32, 0, 5]);
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
    #[should_panic(expected = "one context entry per micro-batch")]
    fn mismatched_context_count_panics() {
        let cost = cost();
        let _ = builder(&cost)
            .with_micro_batch_tokens(&[32, 32])
            .with_micro_batch_contexts(&[100]);
    }

    /// A ratio drawn at either end of `[0, 1]` or strictly inside it.
    fn ratio(pick: u8, inside: f64) -> f64 {
        match pick {
            0 => 0.0,
            1 => 1.0,
            _ => inside,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streamed step costing is the Fig. 6 graph played in full, bit for
        /// bit: random placements, ratios, ragged last micro-batches, explicit
        /// loads, depths and both model presets, under every schedule kind.
        #[test]
        fn streamed_makespan_equals_simulate_bit_for_bit(
            tiny in any::<bool>(),
            (mu, n_ub, ragged) in (1u64..64, 1u64..16, 0u64..64),
            (attention_on_gpu, ffn_on_gpu) in (any::<bool>(), any::<bool>()),
            (w_pick, r_w, c_pick, r_c) in (0u8..3, 0.0f64..1.0, 0u8..3, 0.0f64..1.0),
            loads in collection::vec((1u64..64, 1u64..4096), 1..=16),
            explicit in 0u8..3,
            layers in 1u32..=4,
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
            for kind in ScheduleKind::all() {
                let streamed = b.decode_step_makespan(kind).unwrap();
                let full = simulate(&b.build(kind).unwrap()).makespan;
                prop_assert_eq!(
                    streamed.as_secs().to_bits(),
                    full.as_secs().to_bits(),
                    "{} / {:?} / {} layers: {} vs {}",
                    kind.name(),
                    b.ub_tokens,
                    layers,
                    streamed,
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
