//! The schedule emitters as they were before the layer template: each kind
//! streams every layer's tasks into a sink directly, naming dependencies by
//! the ids of earlier tasks. Kept only as the oracle the template is checked
//! against, task for task.

use super::{DecodeScheduleBuilder, ScheduleKind};
use moe_hardware::Seconds;
use moe_memory::pages::split_into_pages;
use moe_sim::{Lane, SimError, TaskId, TaskKind, TaskLabel, TaskSink};

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

impl DecodeScheduleBuilder<'_> {
    /// Emits the tasks of one decode step under `kind` into `sink`, in lane
    /// (FIFO) order, every layer written out.
    pub(crate) fn emit_reference<S: TaskSink>(
        &self,
        kind: ScheduleKind,
        sink: &mut S,
    ) -> Result<(), SimError> {
        match kind {
            ScheduleKind::CgoPipe => {
                self.cpu_attention_reference(sink, true, WeightOrder::Interleaved)
            }
            ScheduleKind::FastDecodeOverlap => {
                self.cpu_attention_reference(sink, true, WeightOrder::WholeAtStart)
            }
            ScheduleKind::FlexGenCpuAttention => {
                self.cpu_attention_reference(sink, false, WeightOrder::WholeAtEnd)
            }
            ScheduleKind::FlexGenGpuAttention => self.gpu_attention_reference(sink),
            ScheduleKind::LayerStreaming => self.layer_streaming_reference(sink),
        }
    }

    /// CPU-attention pipelines (CGOPipe, S2, S3).
    fn cpu_attention_reference<S: TaskSink>(
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
        let pages = split_into_pages(streamed, n_ub as usize);
        let costs = |j: u64| -> [Seconds; 6] {
            let (tokens, ctx) = (self.micro_batch_tokens(j), self.ctx_of(j));
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
                self.cost.weight_transfer(pages[j as usize]),
            ]
        };
        let step_of = |gidx: u64| (gidx / n_ub, gidx % n_ub);
        let mut hidden: Vec<Option<TaskId>> = vec![None; total as usize];
        let mut post: Vec<Option<TaskId>> = vec![None; total as usize];
        // Last weight-transfer task of each layer.
        let mut weights_done: Vec<Option<TaskId>> = vec![None; layers as usize];
        let whole = |g: &mut S, layer: u64, done: &mut Vec<Option<TaskId>>| {
            let t = g.add_task(
                Lane::HostToDevice,
                whole_layer,
                TaskKind::WeightTransfer,
                TaskLabel::layer("W", layer),
                &[],
            )?;
            done[layer as usize] = Some(t);
            Ok::<_, SimError>(())
        };
        if !streamed.is_zero() {
            whole(g, 0, &mut weights_done)?;
        }
        let stagger = if two_ahead && n_ub >= 2 { 2u64 } else { 0 };
        let create_post = |g: &mut S,
                           gidx: u64,
                           hidden: &[Option<TaskId>],
                           weights_done: &[Option<TaskId>]|
         -> Result<TaskId, SimError> {
            let (i, j) = step_of(gidx);
            let (deps, n_deps) = existing([hidden[gidx as usize], weights_done[i as usize]]);
            g.add_task(
                Lane::GpuCompute,
                costs(j)[4],
                TaskKind::PostAttention,
                TaskLabel::micro_batch("C", i, j),
                &deps[..n_deps],
            )
        };
        for gidx in 0..(total + stagger) {
            // With the stagger, post-attention of step g - 2 is enqueued on the
            // GPU lane before pre-attention of step g.
            if stagger > 0 && gidx >= stagger && gidx - stagger < total {
                let target = gidx - stagger;
                post[target as usize] = Some(create_post(g, target, &hidden, &weights_done)?);
            }
            if gidx >= total {
                continue;
            }
            let (i, j) = step_of(gidx);
            let [pre, qkv, attention, upload, _, page] = costs(j);
            let next_layer = i + 1 < layers && !streamed.is_zero();
            if weight_order == WeightOrder::WholeAtStart && j == 0 && next_layer {
                whole(g, i + 1, &mut weights_done)?;
            }
            let prev_post = if i > 0 {
                post[(gidx - n_ub) as usize]
            } else {
                None
            };
            let (pre_deps, n_deps) = existing([prev_post, weights_done[i as usize]]);
            let mut chain = g.add_task(
                Lane::GpuCompute,
                pre,
                TaskKind::PreAttention,
                TaskLabel::micro_batch("A", i, j),
                &pre_deps[..n_deps],
            )?;
            for (lane, duration, kind, tag) in [
                (Lane::DeviceToHost, qkv, TaskKind::QkvOffload, "QKV"),
                (Lane::CpuCompute, attention, TaskKind::Attention, "B"),
                (Lane::HostToDevice, upload, TaskKind::HiddenTransfer, "H"),
            ] {
                let label = TaskLabel::micro_batch(tag, i, j);
                chain = g.add_task(lane, duration, kind, label, &[chain])?;
            }
            hidden[gidx as usize] = Some(chain);
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
            if weight_order == WeightOrder::WholeAtEnd && j + 1 == n_ub && next_layer {
                whole(g, i + 1, &mut weights_done)?;
            }
            if stagger == 0 {
                post[gidx as usize] = Some(create_post(g, gidx, &hidden, &weights_done)?);
            }
        }
        Ok(())
    }

    /// S4: GPU attention with per-micro-batch KV prefetch over PCIe.
    fn gpu_attention_reference<S: TaskSink>(&self, g: &mut S) -> Result<(), SimError> {
        let n_ub = self.num_micro_batches();
        let layers = u64::from(self.num_layers);
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let whole_layer = self.cost.weight_transfer(streamed);
        let kv_cpu_fraction = 1.0 - self.policy.kv_gpu_ratio;
        let costs = |j: u64| -> [Seconds; 3] {
            let (tokens, ctx) = (self.micro_batch_tokens(j), self.ctx_of(j));
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
        };
        let weight = |g: &mut S, layer: u64| {
            g.add_task(
                Lane::HostToDevice,
                whole_layer,
                TaskKind::WeightTransfer,
                TaskLabel::layer("W", layer),
                &[],
            )
        };
        let mut weights_done: Vec<Option<TaskId>> = vec![None; layers as usize];
        if !streamed.is_zero() {
            weights_done[0] = Some(weight(g, 0)?);
        }
        let mut prev_post: Vec<Option<TaskId>> = vec![None; n_ub as usize];
        let mut kv_ready: Vec<Option<TaskId>> = vec![None; n_ub as usize];
        for i in 0..layers {
            for j in 0..n_ub {
                let [prefetch, ..] = costs(j);
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
                weights_done[(i + 1) as usize] = Some(weight(g, i + 1)?);
            }
            for j in 0..n_ub {
                let [_, compute_time, append_time] = costs(j);
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

    /// DeepSpeed-style layer streaming: a single batch, whole-layer weights.
    fn layer_streaming_reference<S: TaskSink>(&self, g: &mut S) -> Result<(), SimError> {
        let tokens = self.total_tokens();
        let ctx = self.ctx();
        let streamed = self.cost.streamed_layer_bytes(&self.policy);
        let compute_time = self.cost.pre_attention_gpu(tokens)
            + self.cost.attention_gpu(tokens, ctx)
            + self.cost.post_attention_gpu(tokens);
        let mut prev_compute: Option<TaskId> = None;
        let mut prev_weights: Option<TaskId> = None;
        for i in 0..u64::from(self.num_layers) {
            let weights = if streamed.is_zero() {
                None
            } else {
                Some(g.add_task(
                    Lane::HostToDevice,
                    self.cost.weight_transfer(streamed),
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
/// buffer, with their count.
fn existing<const N: usize>(ids: [Option<TaskId>; N]) -> ([TaskId; N], usize) {
    let mut packed = [TaskId(0); N];
    let mut n = 0;
    for id in ids.into_iter().flatten() {
        packed[n] = id;
        n += 1;
    }
    (packed, n)
}
