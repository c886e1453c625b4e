//! The HRM-based cost model (Eqs. 12–14 of the paper).
//!
//! For every task of the decode pipeline the model computes the theoretical FLOPs
//! and bytes (via [`moe_model::ops::LayerOps`]) and prices its duration through
//! `moe_hrm`: the node's [`HierarchicalRoofline`], built once per model, gives
//! `T_x = max(comm_x, comp_x)` per computation (Eq. 14, [`moe_hrm::MemoryLevel::time`])
//! and the CPU→GPU link rate; the per-layer latency is
//! `T = max(comm_cpu_to_gpu, T_cpu, T_gpu)` (Eq. 12). The same per-task durations
//! feed the discrete-event schedules in `moe-schedule`, so the analytic estimate and
//! the simulated pipelines share one source of truth.
//!
//! Each operator is priced once per call. A micro-batch's task record builds
//! its O projection, router and MoE FFN costs once and derives every task that
//! contains them, and the prefill FLOPs come from
//! [`LayerOps::prefill_layer_flops`] without any byte count. The shortcuts
//! combine the same terms in the same order as the per-task functions, so the
//! durations are the same bits.

use crate::policy::{Policy, WorkloadShape};
use moe_hardware::{Bandwidth, ByteSize, FlopCount, NodeSpec, Seconds};
use moe_hrm::HierarchicalRoofline;
use moe_model::{LayerOps, MoeModelConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-task durations and aggregate latency estimates for one model on one node.
#[derive(Debug, Clone)]
pub struct CostModel {
    node: NodeSpec,
    model: MoeModelConfig,
    ops: LayerOps,
    hrm: HierarchicalRoofline,
    /// Unique to the [`Self::new`] call that built this model (clones share
    /// it): see [`Self::pricing_id`].
    pricing_id: u64,
}

/// Breakdown of the estimated per-layer decode latency (Eq. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerLatencyBreakdown {
    /// Total host→device traffic time for one layer of one decode step.
    pub comm_h2d: Seconds,
    /// Total device→host traffic time.
    pub comm_d2h: Seconds,
    /// Total CPU compute time.
    pub cpu_compute: Seconds,
    /// Total GPU compute time.
    pub gpu_compute: Seconds,
    /// The binding term (the max of the four, Eq. 12).
    pub total: Seconds,
}

impl LayerLatencyBreakdown {
    /// Which of the four resources binds this layer.
    pub fn bottleneck(&self) -> BottleneckResource {
        let pairs = [
            (BottleneckResource::HostToDevice, self.comm_h2d),
            (BottleneckResource::DeviceToHost, self.comm_d2h),
            (BottleneckResource::CpuCompute, self.cpu_compute),
            (BottleneckResource::GpuCompute, self.gpu_compute),
        ];
        pairs
            .into_iter()
            .max_by_key(|&(_, t)| t.key())
            .map(|(r, _)| r)
            .unwrap_or(BottleneckResource::GpuCompute)
    }
}

/// The resource that binds a layer's decode latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BottleneckResource {
    /// CPU→GPU PCIe traffic.
    HostToDevice,
    /// GPU→CPU PCIe traffic.
    DeviceToHost,
    /// CPU kernels (attention / FFN on CPU).
    CpuCompute,
    /// GPU kernels.
    GpuCompute,
}

/// The decode task durations of one micro-batch at one context length: every term
/// [`CostModel::layer_decode_latency`] sums over micro-batches, for both attention
/// and FFN placements. It is its [`ContextFreeCosts`] plus the decode
/// attention at the context ([`CostModel::with_context`]). The policy search
/// keeps the context-free part of each micro-batch size for the optimizer's
/// life, adds the attention terms once per search, and reuses the record
/// across every placement, ratio and micro-batch count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroBatchCosts {
    pre_attention_gpu: Seconds,
    post_attention_gpu: Seconds,
    post_attention_gpu_without_ffn: Seconds,
    attention_gpu: Seconds,
    attention_cpu: Seconds,
    ffn_cpu: Seconds,
    qkv_offload: Seconds,
    hidden_upload: Seconds,
    /// KV-cache bytes the decode attention reads (the D4 transfer before `r_c`).
    kv_bytes: ByteSize,
}

/// The terms of a [`MicroBatchCosts`] that its decode context does not
/// change: every task but the decode attention, which alone reads the KV
/// cache. They depend only on the node, the model and the micro-batch size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContextFreeCosts {
    pre_attention_gpu: Seconds,
    post_attention_gpu: Seconds,
    post_attention_gpu_without_ffn: Seconds,
    ffn_cpu: Seconds,
    qkv_offload: Seconds,
    hidden_upload: Seconds,
}

/// What every class bound of one micro-batch size shares: the micro-batch's
/// task durations, its prefill compute `P_μ` and its generated tokens `μ·g`
/// (see [`CostModel::class_bound`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroBatchBound {
    costs: MicroBatchCosts,
    prefill: Seconds,
    gen_len: f64,
    generated: f64,
}

/// The weight-streaming terms of a policy, fixed by `F_g` and `r_w` alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeightStreams {
    /// One layer's weight stream (transfer D3).
    per_layer: Seconds,
    /// Prefill's one-shot streaming of every non-resident weight.
    prefill: Seconds,
}

#[cfg(test)]
impl MicroBatchCosts {
    /// The bits of every field, in declaration order.
    pub(crate) fn bits(&self) -> [u64; 9] {
        let b = |t: Seconds| t.as_secs().to_bits();
        [
            b(self.pre_attention_gpu),
            b(self.post_attention_gpu),
            b(self.post_attention_gpu_without_ffn),
            b(self.attention_gpu),
            b(self.attention_cpu),
            b(self.ffn_cpu),
            b(self.qkv_offload),
            b(self.hidden_upload),
            self.kv_bytes.as_bytes(),
        ]
    }
}

#[cfg(test)]
impl WeightStreams {
    /// The bits of both fields, in declaration order.
    pub(crate) fn bits(&self) -> [u64; 2] {
        [self.per_layer, self.prefill].map(|t| t.as_secs().to_bits())
    }
}

/// The placement terms that the per-micro-batch lanes of Eq. 12 read: where
/// attention and the MoE FFN run (`A_g`, `F_g`) and the fraction of the KV cache
/// held on the GPU (`r_c`). The static weight ratio `r_w` is not among them: it
/// changes only the per-layer weight stream and the memory footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaneClass {
    pub(crate) attention_on_gpu: bool,
    pub(crate) ffn_on_gpu: bool,
    pub(crate) kv_gpu_ratio: f64,
}

impl LaneClass {
    /// The lane class of `policy`.
    pub(crate) fn of(policy: &Policy) -> Self {
        LaneClass {
            attention_on_gpu: policy.attention_on_gpu,
            ffn_on_gpu: policy.ffn_on_gpu,
            kv_gpu_ratio: policy.kv_gpu_ratio,
        }
    }
}

/// The per-micro-batch lane terms of one [`LaneClass`] once the micro-batch
/// records are fixed. The policy search builds one per `(μ, A_g, F_g, r_c)` and
/// shares it across every weight ratio and micro-batch count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneCosts {
    /// A full micro-batch, repeated `N/μ − 1` times.
    full: MicroBatchCosts,
    /// The (possibly smaller) last micro-batch.
    last: MicroBatchCosts,
    /// Transfer D4 of the CPU-resident KV fraction, for `full` and for `last`.
    kv_transfer: (Seconds, Seconds),
}

/// The decode and prefill terms of one policy that its batch size does not
/// change once the micro-batch records are fixed: its lanes and its weight
/// streams. The policy search pairs one per `(μ, A_g, F_g, r_w, r_c)` row and
/// reuses it for every micro-batch count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowCosts {
    pub(crate) lanes: LaneCosts,
    pub(crate) weights: WeightStreams,
}

impl CostModel {
    /// Creates a cost model for `model` running on `node`.
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        let ops = LayerOps::new(model.clone());
        let hrm = HierarchicalRoofline::from_node(&node, model.weight_dtype);
        static NEXT_PRICING_ID: AtomicU64 = AtomicU64::new(0);
        CostModel {
            node,
            model,
            ops,
            hrm,
            pricing_id: NEXT_PRICING_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// An id two cost models share only if one is a clone of the other. A
    /// cost model never changes after [`Self::new`], so models with one id
    /// price every operator alike, and a price memoized under the id stays
    /// valid.
    pub fn pricing_id(&self) -> u64 {
        self.pricing_id
    }

    /// The node this model describes.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The model configuration.
    pub fn model(&self) -> &MoeModelConfig {
        &self.model
    }

    /// The per-operator FLOPs/bytes calculator.
    pub fn ops(&self) -> &LayerOps {
        &self.ops
    }

    /// The node's Hierarchical Roofline Model, which prices every compute task and
    /// every host→device transfer.
    pub fn hrm(&self) -> &HierarchicalRoofline {
        &self.hrm
    }

    // --- rates the HRM does not model --------------------------------------------

    fn d2h(&self) -> Bandwidth {
        self.node.total_d2h_bandwidth()
    }

    fn link_latency(&self) -> Seconds {
        Seconds::from_micros(self.node.link.latency_us)
    }

    // --- per-task durations (decode stage) ---------------------------------------

    /// GPU pre-attention task (`A_x`): layer norm + QKV projection for `tokens`.
    pub fn pre_attention_gpu(&self, tokens: u64) -> Seconds {
        let cost = self.ops.pre_attention(tokens);
        self.hrm.gpu.time(cost.flops, cost.total_bytes())
    }

    /// GPU post-attention task (`C_x`): O projection + router + MoE FFN for `tokens`.
    pub fn post_attention_gpu(&self, tokens: u64) -> Seconds {
        let cost = self.ops.post_attention(tokens);
        self.hrm.gpu.time(cost.flops, cost.total_bytes())
    }

    /// GPU post-attention task when the FFN runs on CPU (only the O projection and
    /// router remain on GPU).
    pub fn post_attention_gpu_without_ffn(&self, tokens: u64) -> Seconds {
        let cost = self
            .ops
            .o_projection(tokens)
            .combine(&self.ops.router(tokens));
        self.hrm.gpu.time(cost.flops, cost.total_bytes())
    }

    /// CPU attention task (`B_x`): GQA softmax over the CPU-resident KV cache.
    pub fn attention_cpu(&self, tokens: u64, context_len: u64) -> Seconds {
        let cost = self.ops.attention_core_decode(tokens, context_len);
        self.hrm.cpu.time(cost.flops, cost.total_bytes())
    }

    /// GPU attention task (for `A_g = 1` policies): same computation against HBM.
    pub fn attention_gpu(&self, tokens: u64, context_len: u64) -> Seconds {
        let cost = self.ops.attention_core_decode(tokens, context_len);
        self.hrm.gpu.time(cost.flops, cost.total_bytes())
    }

    /// CPU MoE FFN (for `F_g = 0` policies).
    pub fn ffn_cpu(&self, tokens: u64) -> Seconds {
        let cost = self.ops.moe_ffn(tokens);
        self.hrm.cpu.time(cost.flops, cost.total_bytes())
    }

    /// D2H transfer of the QKV projections for `tokens` tokens (transfer D1).
    pub fn qkv_offload(&self, tokens: u64) -> Seconds {
        self.model.qkv_bytes(tokens) / self.d2h() + self.link_latency()
    }

    /// H2D transfer of the post-attention hidden states for `tokens` tokens
    /// (transfer D2).
    pub fn hidden_upload(&self, tokens: u64) -> Seconds {
        self.model.hidden_state_bytes(tokens) / self.hrm.link + self.link_latency()
    }

    /// H2D transfer of the KV cache slice needed to run attention on GPU for a
    /// micro-batch (transfer D4). Only the CPU-resident fraction must move.
    pub fn kv_transfer(&self, tokens: u64, context_len: u64, cpu_fraction: f64) -> Seconds {
        let kv_bytes = self.ops.attention_core_decode(tokens, context_len).kv_bytes;
        self.kv_bytes_transfer(kv_bytes, cpu_fraction)
    }

    /// D2H offload of `bytes` of KV cache to the CPU-resident cache: the prefill's
    /// new KV and the per-layer write-back of decode's new entries. Unlike
    /// [`Self::qkv_offload`] it adds no per-transfer link latency.
    pub fn kv_offload(&self, bytes: ByteSize) -> Seconds {
        bytes / self.d2h()
    }

    /// H2D transfer time for an arbitrary number of weight bytes (one page or a whole
    /// layer, transfer D3).
    pub fn weight_transfer(&self, bytes: ByteSize) -> Seconds {
        bytes / self.hrm.link + self.link_latency()
    }

    /// Replica↔replica migration of `context_len` tokens of KV cache over the
    /// serving interconnect: the cross-replica hop of a disaggregated
    /// prefill→decode handoff. Where [`Self::kv_transfer`] prices the CPU↔GPU
    /// hop *inside* one replica (transfer D4), this prices the full KV slice
    /// (every layer) moving between replicas at the interconnect's `bandwidth`
    /// plus one per-transfer `latency` charge. Charged on the fleet's global
    /// clock by the disaggregation layer.
    pub fn kv_migrate(&self, context_len: u64, bandwidth: Bandwidth, latency: Seconds) -> Seconds {
        self.model.kv_bytes_per_token() * context_len / bandwidth + latency
    }

    /// Bytes of one layer's weights that must be streamed to the GPU under `policy`.
    ///
    /// When the FFN runs on the GPU the full layer (minus the static fraction `r_w`)
    /// must be streamed; when only attention/projections run on the GPU, just the
    /// attention weights are needed.
    pub fn streamed_layer_bytes(&self, policy: &Policy) -> ByteSize {
        let needed = if policy.ffn_on_gpu {
            self.model.layer_weight_bytes()
        } else {
            self.model.attention_weight_bytes()
        };
        needed.scale(1.0 - policy.weights_gpu_ratio.clamp(0.0, 1.0))
    }

    /// Every per-micro-batch task duration of one decode layer for a micro-batch of
    /// `tokens` tokens at context `context_len`, under any placement.
    pub(crate) fn micro_batch_costs(&self, tokens: u64, context_len: u64) -> MicroBatchCosts {
        self.with_context(self.context_free_costs(tokens), tokens, context_len)
    }

    /// The [`ContextFreeCosts`] of a micro-batch of `tokens` tokens. Each
    /// operator is priced once: the post-attention tasks with and without the
    /// FFN and the CPU FFN share one O projection, router and MoE FFN cost,
    /// combined in the order the per-task functions combine them.
    pub(crate) fn context_free_costs(&self, tokens: u64) -> ContextFreeCosts {
        let without_ffn = self
            .ops
            .o_projection(tokens)
            .combine(&self.ops.router(tokens));
        let ffn = self.ops.moe_ffn(tokens);
        let post_attention = without_ffn.combine(&ffn);
        ContextFreeCosts {
            pre_attention_gpu: self.pre_attention_gpu(tokens),
            post_attention_gpu: self
                .hrm
                .gpu
                .time(post_attention.flops, post_attention.total_bytes()),
            post_attention_gpu_without_ffn: self
                .hrm
                .gpu
                .time(without_ffn.flops, without_ffn.total_bytes()),
            ffn_cpu: self.hrm.cpu.time(ffn.flops, ffn.total_bytes()),
            qkv_offload: self.qkv_offload(tokens),
            hidden_upload: self.hidden_upload(tokens),
        }
    }

    /// The [`MicroBatchCosts`] of a micro-batch of `tokens` tokens whose
    /// context-free terms are `free`, at context `context_len`: its decode
    /// attention on either device and the KV bytes that attention reads.
    pub(crate) fn with_context(
        &self,
        free: ContextFreeCosts,
        tokens: u64,
        context_len: u64,
    ) -> MicroBatchCosts {
        let attention = self.ops.attention_core_decode(tokens, context_len);
        let attention_bytes = attention.total_bytes();
        MicroBatchCosts {
            pre_attention_gpu: free.pre_attention_gpu,
            post_attention_gpu: free.post_attention_gpu,
            post_attention_gpu_without_ffn: free.post_attention_gpu_without_ffn,
            attention_gpu: self.hrm.gpu.time(attention.flops, attention_bytes),
            attention_cpu: self.hrm.cpu.time(attention.flops, attention_bytes),
            ffn_cpu: free.ffn_cpu,
            qkv_offload: free.qkv_offload,
            hidden_upload: free.hidden_upload,
            kv_bytes: attention.kv_bytes,
        }
    }

    /// [`Self::kv_transfer`] of a micro-batch whose decode attention reads
    /// `kv_bytes` of KV cache.
    fn kv_bytes_transfer(&self, kv_bytes: ByteSize, cpu_fraction: f64) -> Seconds {
        kv_bytes.scale(cpu_fraction.clamp(0.0, 1.0)) / self.hrm.link + self.link_latency()
    }

    /// The [`WeightStreams`] of `policy`.
    pub(crate) fn weight_streams(&self, policy: &Policy) -> WeightStreams {
        let stream_bytes = self
            .model
            .total_weight_bytes()
            .scale(1.0 - policy.weights_gpu_ratio.clamp(0.0, 1.0));
        WeightStreams {
            per_layer: self.weight_transfer(self.streamed_layer_bytes(policy)),
            prefill: stream_bytes / self.hrm.link,
        }
    }

    /// The [`LaneCosts`] of `class`, whose full and last micro-batches cost
    /// `full` and `last`.
    pub(crate) fn lane_costs(
        &self,
        class: LaneClass,
        full: MicroBatchCosts,
        last: MicroBatchCosts,
    ) -> LaneCosts {
        let cpu_fraction = 1.0 - class.kv_gpu_ratio;
        LaneCosts {
            full,
            last,
            kv_transfer: (
                self.kv_bytes_transfer(full.kv_bytes, cpu_fraction),
                self.kv_bytes_transfer(last.kv_bytes, cpu_fraction),
            ),
        }
    }

    // --- aggregates ---------------------------------------------------------------

    /// Estimated latency of one layer of one decode step under `policy`, following
    /// Eq. 12: the pipeline is bound by the slowest of the H2D stream, the D2H
    /// stream, the CPU and the GPU.
    pub fn layer_decode_latency(
        &self,
        policy: &Policy,
        workload: &WorkloadShape,
    ) -> LayerLatencyBreakdown {
        self.layer_latency_from(policy, &self.policy_row_costs(policy, workload))
    }

    /// The [`RowCosts`] of `policy` at the workload's average decode context.
    fn policy_row_costs(&self, policy: &Policy, workload: &WorkloadShape) -> RowCosts {
        let mu = policy.micro_batch_size;
        let last = policy.batch_size - mu * (policy.num_micro_batches() - 1);
        let ctx = workload.avg_decode_context();
        let full = self.micro_batch_costs(mu, ctx);
        let last = if last == mu {
            full
        } else {
            self.micro_batch_costs(last, ctx)
        };
        RowCosts {
            lanes: self.lane_costs(LaneClass::of(policy), full, last),
            weights: self.weight_streams(policy),
        }
    }

    /// The per-micro-batch parts of Eq. 12's four lanes, `(H2D, D2H, CPU, GPU)`.
    /// `sum` totals one task over the micro-batches priced, from its duration on
    /// a full and on the last micro-batch.
    fn micro_batch_lanes(
        &self,
        class: LaneClass,
        lanes: &LaneCosts,
        sum: impl Fn(Seconds, Seconds) -> Seconds,
    ) -> (Seconds, Seconds, Seconds, Seconds) {
        let ubs = |f: fn(&MicroBatchCosts) -> Seconds| sum(f(&lanes.full), f(&lanes.last));

        // GPU compute.
        let mut gpu_compute = ubs(|c| c.pre_attention_gpu);
        if class.ffn_on_gpu {
            gpu_compute += ubs(|c| c.post_attention_gpu);
        } else {
            gpu_compute += ubs(|c| c.post_attention_gpu_without_ffn);
        }
        if class.attention_on_gpu {
            gpu_compute += ubs(|c| c.attention_gpu);
        }

        // CPU compute.
        let mut cpu_compute = Seconds::ZERO;
        if !class.attention_on_gpu {
            cpu_compute += ubs(|c| c.attention_cpu);
        }
        if !class.ffn_on_gpu {
            cpu_compute += ubs(|c| c.ffn_cpu);
        }

        // Host→device traffic: KV transfers (GPU attention with CPU KV) or hidden
        // uploads (CPU attention). Device→host traffic: QKV offload (CPU attention).
        let (comm_h2d, comm_d2h) = if class.attention_on_gpu {
            (sum(lanes.kv_transfer.0, lanes.kv_transfer.1), Seconds::ZERO)
        } else {
            (ubs(|c| c.hidden_upload), ubs(|c| c.qkv_offload))
        };
        (comm_h2d, comm_d2h, cpu_compute, gpu_compute)
    }

    /// [`Self::layer_decode_latency`] from the policy's [`RowCosts`].
    pub(crate) fn layer_latency_from(
        &self,
        policy: &Policy,
        row: &RowCosts,
    ) -> LayerLatencyBreakdown {
        let n_ub = policy.num_micro_batches();
        let (h2d, d2h, cpu_compute, gpu_compute) =
            self.micro_batch_lanes(LaneClass::of(policy), &row.lanes, |full, last| {
                full.scale((n_ub - 1) as f64) + last
            });

        // Paid once per layer: the weight stream, and under GPU attention the
        // write-back of the new KV entries for the CPU-resident fraction.
        let comm_h2d = row.weights.per_layer + h2d;
        let mut comm_d2h = d2h;
        if policy.attention_on_gpu {
            let cpu_fraction = 1.0 - policy.kv_gpu_ratio;
            let append = self.model.kv_bytes_per_token_per_layer() * policy.batch_size;
            comm_d2h += self.kv_offload(append.scale(cpu_fraction));
        }

        let total = comm_h2d.max(comm_d2h).max(cpu_compute).max(gpu_compute);
        LayerLatencyBreakdown {
            comm_h2d,
            comm_d2h,
            cpu_compute,
            gpu_compute,
            total,
        }
    }

    /// Estimated latency of one full decode step (all layers) for the whole batch.
    pub fn decode_step_latency(&self, policy: &Policy, workload: &WorkloadShape) -> Seconds {
        self.step_latency(self.layer_decode_latency(policy, workload).total)
    }

    /// One decode step (all layers) at the per-layer latency `layer`.
    fn step_latency(&self, layer: Seconds) -> Seconds {
        layer.scale(f64::from(self.model.num_layers))
    }

    /// Estimated decode throughput in generated tokens per second.
    pub fn decode_throughput(&self, policy: &Policy, workload: &WorkloadShape) -> f64 {
        let step = self.decode_step_latency(policy, workload);
        if step.is_zero() {
            return 0.0;
        }
        policy.batch_size as f64 / step.as_secs()
    }

    /// Estimated prefill time for the whole batch of `policy.batch_size` requests
    /// with `workload.prompt_len`-token prompts.
    ///
    /// Prefill is compute-bound on the GPU and overlaps weight streaming (§4,
    /// footnote 7), so the estimate is the max of compute time and the one-shot
    /// streaming of all non-resident weights.
    pub fn prefill_time(&self, policy: &Policy, workload: &WorkloadShape) -> Seconds {
        let flops = self.prefill_flops_per_layer(policy.batch_size, workload);
        let streaming = self.weight_streams(policy).prefill;
        self.prefill_time_from(policy, workload, flops, streaming)
    }

    /// [`Self::prefill_time`] given the batch's per-layer prefill FLOPs and the
    /// policy's one-shot weight `streaming` ([`WeightStreams`]).
    fn prefill_time_from(
        &self,
        policy: &Policy,
        workload: &WorkloadShape,
        flops_per_layer: FlopCount,
        streaming: Seconds,
    ) -> Seconds {
        let (compute, kv_offload) = self.prefill_components(policy, workload, flops_per_layer);
        compute.max(streaming).max(kv_offload)
    }

    /// Estimated prefill time for requests admitted into an *already running*
    /// decode pipeline (continuous-batching backfill): the non-resident weights are
    /// already cycling host→device for the in-flight micro-batches, so unlike
    /// [`Self::prefill_time`] there is no one-shot weight-streaming term — only
    /// prompt compute and KV offload bind.
    pub fn backfill_prefill_time(&self, policy: &Policy, workload: &WorkloadShape) -> Seconds {
        let flops = self.prefill_flops_per_layer(policy.batch_size, workload);
        let (compute, kv_offload) = self.prefill_components(policy, workload, flops);
        compute.max(kv_offload)
    }

    /// FLOPs of one layer's prefill for a batch of `batch` prompts.
    pub(crate) fn prefill_flops_per_layer(
        &self,
        batch: u64,
        workload: &WorkloadShape,
    ) -> FlopCount {
        self.ops.prefill_layer_flops(batch, workload.prompt_len)
    }

    /// GPU time of a prefill whose layers each take `flops_per_layer`.
    fn prefill_compute(&self, flops_per_layer: FlopCount) -> Seconds {
        flops_per_layer.scale(f64::from(self.model.num_layers)) / self.hrm.gpu.peak_compute
    }

    /// Prompt-compute and KV-offload terms shared by the cold-start and backfill
    /// prefill estimates.
    fn prefill_components(
        &self,
        policy: &Policy,
        workload: &WorkloadShape,
        flops_per_layer: FlopCount,
    ) -> (Seconds, Seconds) {
        let compute = self.prefill_compute(flops_per_layer);
        // KV cache produced during prefill is offloaded to the CPU.
        let kv_offload = self.kv_offload(
            (self.model.kv_bytes_per_token() * policy.batch_size * workload.prompt_len)
                .scale(1.0 - policy.kv_gpu_ratio),
        );
        (compute, kv_offload)
    }

    /// End-to-end generation throughput (tokens/s) for one batch: generated tokens
    /// divided by prefill + decode time — the paper's evaluation metric.
    pub fn generation_throughput(&self, policy: &Policy, workload: &WorkloadShape) -> f64 {
        let row = self.policy_row_costs(policy, workload);
        let prefill_flops = self.prefill_flops_per_layer(policy.batch_size, workload);
        self.generation_throughput_from(policy, workload, &row, prefill_flops)
    }

    /// [`Self::generation_throughput`] from the policy's [`RowCosts`] and the
    /// batch's per-layer prefill FLOPs.
    pub(crate) fn generation_throughput_from(
        &self,
        policy: &Policy,
        workload: &WorkloadShape,
        row: &RowCosts,
        prefill_flops_per_layer: FlopCount,
    ) -> f64 {
        let decode = self
            .step_latency(self.layer_latency_from(policy, row).total)
            .scale(workload.gen_len as f64);
        let total = self.prefill_time_from(
            policy,
            workload,
            prefill_flops_per_layer,
            row.weights.prefill,
        ) + decode;
        if total.is_zero() {
            return 0.0;
        }
        (policy.batch_size as f64 * workload.gen_len as f64) / total.as_secs()
    }

    /// The [`MicroBatchBound`] of a micro-batch of `micro_batch_size` tokens
    /// that costs `costs` at the workload's average decode context and whose
    /// prefill takes `micro_batch_prefill_flops` per layer, for `gen_len`
    /// generated tokens per request.
    pub(crate) fn micro_batch_bound(
        &self,
        micro_batch_size: u64,
        costs: MicroBatchCosts,
        micro_batch_prefill_flops: FlopCount,
        gen_len: u64,
    ) -> MicroBatchBound {
        MicroBatchBound {
            costs,
            prefill: self.prefill_compute(micro_batch_prefill_flops),
            gen_len: gen_len as f64,
            generated: micro_batch_size as f64 * gen_len as f64,
        }
    }

    /// Transfer D4 of the CPU-resident KV fraction `1 − r_c` of the bounded
    /// micro-batch: the one term of [`Self::class_bound`] that `r_c` moves,
    /// shared by every GPU-attention class at that `r_c`.
    pub(crate) fn bound_kv_transfer(&self, bound: &MicroBatchBound, kv_gpu_ratio: f64) -> Seconds {
        self.kv_bytes_transfer(bound.costs.kv_bytes, 1.0 - kv_gpu_ratio)
    }

    /// An upper bound, `μ·g / (P_μ + g·L·s_μ)`, on
    /// [`Self::generation_throughput_from`] over every batch of `n ≥ 1` full
    /// micro-batches of the bounded size under any policy in `class`,
    /// whatever its weight ratio `r_w` (the proof is in the optimizer's module
    /// docs). `kv_transfer` is [`Self::bound_kv_transfer`] at the class's
    /// `r_c`; a CPU-attention class never reads it. Only the per-micro-batch
    /// lane terms enter `s_μ`: the terms paid once per layer, among them the
    /// weight stream and GPU attention's KV write-back, which rounds to the
    /// byte, are left out, so no lane exceeds the costed one. A NaN or
    /// infinite bound (zero rates, `g = 0`) is never strictly below an
    /// incumbent, so it never prunes.
    pub(crate) fn class_bound(
        &self,
        bound: &MicroBatchBound,
        class: LaneClass,
        kv_transfer: Seconds,
    ) -> f64 {
        // The bound and the score each take a few dozen IEEE operations on the
        // same inputs, so each lies within a relative ~1e-14 of its exact value
        // (the prefill FLOPs of `μ·n` prompts and `n` times those of `μ` differ
        // by such a rounding too). The exact score never exceeds the exact
        // bound, so a 1e-9 slack covers the rounding by five orders of
        // magnitude and loosens the bound by a negligible amount.
        const SLACK: f64 = 1.0 + 1e-9;
        let lanes = LaneCosts {
            full: bound.costs,
            last: bound.costs,
            kv_transfer: (kv_transfer, kv_transfer),
        };
        let (h2d, d2h, cpu, gpu) = self.micro_batch_lanes(class, &lanes, |full, _| full);
        let decode = self
            .step_latency(h2d.max(d2h).max(cpu).max(gpu))
            .scale(bound.gen_len);
        let total = bound.prefill + decode;
        bound.generated / total.as_secs() * SLACK
    }

    /// The reference for [`Self::class_bound`]: the bound of `class` priced
    /// from scratch, its KV transfer and prefill compute included.
    #[cfg(test)]
    pub(crate) fn class_throughput_bound(
        &self,
        micro_batch_size: u64,
        class: LaneClass,
        costs: MicroBatchCosts,
        micro_batch_prefill_flops: FlopCount,
        gen_len: u64,
    ) -> f64 {
        const SLACK: f64 = 1.0 + 1e-9;
        let lanes = self.lane_costs(class, costs, costs);
        let (h2d, d2h, cpu, gpu) = self.micro_batch_lanes(class, &lanes, |full, _| full);
        let decode = self
            .step_latency(h2d.max(d2h).max(cpu).max(gpu))
            .scale(gen_len as f64);
        let total = self.prefill_compute(micro_batch_prefill_flops) + decode;
        (micro_batch_size as f64 * gen_len as f64) / total.as_secs() * SLACK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s1_cost() -> CostModel {
        CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
    }

    fn mtbench() -> WorkloadShape {
        WorkloadShape::new(77, 128)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every field of the shared micro-batch record is the matching
        /// per-task function, bit for bit, on every model preset and on a
        /// T4, an L4 and a 4×T4 node.
        #[test]
        fn micro_batch_costs_equal_the_per_task_functions(
            (preset, node) in (0usize..4, 0usize..3),
            (tokens, context_len) in (0u64..1024, 0u64..8192),
            kv_gpu_ratio in 0.0f64..=1.0,
        ) {
            let model = [
                MoeModelConfig::mixtral_8x7b(),
                MoeModelConfig::mixtral_8x22b(),
                MoeModelConfig::dbrx(),
                MoeModelConfig::tiny(),
            ][preset]
                .clone();
            let node = [NodeSpec::t4_single(), NodeSpec::l4_single(), NodeSpec::t4_multi(4)][node]
                .clone();
            let cm = CostModel::new(node, model);
            let c = cm.micro_batch_costs(tokens, context_len);
            let bits = |t: Seconds| t.as_secs().to_bits();
            let pairs = [
                (c.pre_attention_gpu, cm.pre_attention_gpu(tokens)),
                (c.post_attention_gpu, cm.post_attention_gpu(tokens)),
                (
                    c.post_attention_gpu_without_ffn,
                    cm.post_attention_gpu_without_ffn(tokens),
                ),
                (c.attention_gpu, cm.attention_gpu(tokens, context_len)),
                (c.attention_cpu, cm.attention_cpu(tokens, context_len)),
                (c.ffn_cpu, cm.ffn_cpu(tokens)),
                (c.qkv_offload, cm.qkv_offload(tokens)),
                (c.hidden_upload, cm.hidden_upload(tokens)),
            ];
            for (field, (shared, per_task)) in pairs.into_iter().enumerate() {
                prop_assert_eq!(bits(shared), bits(per_task), "field {}", field);
            }
            prop_assert_eq!(
                c.kv_bytes,
                cm.ops().attention_core_decode(tokens, context_len).kv_bytes
            );
            let class = LaneClass {
                attention_on_gpu: true,
                ffn_on_gpu: true,
                kv_gpu_ratio,
            };
            let lanes = cm.lane_costs(class, c, c);
            prop_assert_eq!(
                bits(lanes.kv_transfer.0),
                bits(cm.kv_transfer(tokens, context_len, 1.0 - kv_gpu_ratio))
            );
        }
    }

    #[test]
    fn kv_migrate_scales_with_context_and_pays_the_latency_floor() {
        let cm = s1_cost();
        let bw = Bandwidth::from_gb_per_sec(64.0);
        let latency = Seconds::from_micros(5.0);
        let short = cm.kv_migrate(128, bw, latency);
        let long = cm.kv_migrate(4096, bw, latency);
        assert!(long > short, "more KV tokens must take longer to migrate");
        // Zero tokens still pays the per-transfer latency.
        assert_eq!(cm.kv_migrate(0, bw, latency), latency);
        // A starved interconnect dominates: 1000x less bandwidth is ~1000x
        // slower once the transfer dwarfs the latency floor.
        let starved = cm.kv_migrate(4096, Bandwidth::from_gb_per_sec(0.064), latency);
        assert!(starved.as_secs() > 100.0 * long.as_secs());
    }

    #[test]
    fn cpu_attention_beats_kv_transfer_plus_gpu_attention() {
        // §6.2 / Fig. 9: the CPU GQA kernel is ~3-4x faster than transferring the KV
        // cache over PCIe, because DRAM bandwidth exceeds PCIe bandwidth by about
        // that ratio.
        let cm = s1_cost();
        for ctx in [128, 512, 2048] {
            let cpu = cm.attention_cpu(64, ctx);
            let transfer = cm.kv_transfer(64, ctx, 1.0);
            assert!(
                cpu.as_secs() < transfer.as_secs(),
                "ctx={ctx}: CPU attention {cpu} should beat KV transfer {transfer}"
            );
        }
    }

    #[test]
    fn ffn_latency_is_flat_in_micro_batch_size_when_memory_bound() {
        // Fig. 9: the MoE FFN kernel is memory-bound in decode, so its latency barely
        // changes from μ=32 to μ=256.
        let cm = CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
        let t32 = cm.post_attention_gpu(32).as_secs();
        let t256 = cm.post_attention_gpu(256).as_secs();
        assert!(
            t256 < 1.5 * t32,
            "memory-bound FFN should not scale with μ: {t32} vs {t256}"
        );
    }

    #[test]
    fn weight_transfer_dominates_single_micro_batch_layers() {
        // With a small batch, streaming the layer weights takes far longer than the
        // GPU compute — the core memory-constrained regime of the paper.
        let cm = s1_cost();
        let policy = Policy::offload_default(32, 32);
        let breakdown = cm.layer_decode_latency(&policy, &mtbench());
        assert_eq!(breakdown.bottleneck(), BottleneckResource::HostToDevice);
        assert!(breakdown.comm_h2d.as_secs() > 5.0 * breakdown.gpu_compute.as_secs());
    }

    #[test]
    fn larger_batches_amortize_weight_transfer() {
        let cm = s1_cost();
        let w = mtbench();
        let small = cm.decode_throughput(&Policy::offload_default(32, 32), &w);
        let large = cm.decode_throughput(&Policy::offload_default(512, 32), &w);
        assert!(
            large > 4.0 * small,
            "throughput should grow with N: {small} -> {large}"
        );
    }

    #[test]
    fn throughput_saturates_at_the_balance_point() {
        // Beyond some batch size another resource (CPU attention or PCIe hidden-state
        // traffic) binds and throughput stops improving linearly.
        let cm = s1_cost();
        let w = mtbench();
        let t1k = cm.decode_throughput(&Policy::offload_default(1024, 64), &w);
        let t8k = cm.decode_throughput(&Policy::offload_default(8192, 64), &w);
        assert!(
            t8k < 2.0 * t1k,
            "8x larger batch must not give 2x more throughput: {t1k} -> {t8k}"
        );
    }

    #[test]
    fn static_weights_reduce_streaming_and_latency() {
        let cm = s1_cost();
        let w = mtbench();
        let off = Policy::offload_default(256, 32);
        let mut partial = off;
        partial.weights_gpu_ratio = 0.5;
        assert!(cm.streamed_layer_bytes(&partial) < cm.streamed_layer_bytes(&off));
        assert!(
            cm.layer_decode_latency(&partial, &w).comm_h2d.as_secs()
                < cm.layer_decode_latency(&off, &w).comm_h2d.as_secs()
        );
    }

    #[test]
    fn cpu_only_ffn_policy_streams_only_attention_weights() {
        let cm = s1_cost();
        let mut p = Policy::offload_default(64, 32);
        p.ffn_on_gpu = false;
        assert_eq!(
            cm.streamed_layer_bytes(&p),
            cm.model().attention_weight_bytes()
        );
        let breakdown = cm.layer_decode_latency(&p, &mtbench());
        assert!(
            breakdown.cpu_compute > breakdown.gpu_compute,
            "FFN moved to CPU"
        );
    }

    #[test]
    fn gpu_attention_policy_pays_kv_transfer_instead_of_hidden_upload() {
        let cm = s1_cost();
        let w = WorkloadShape::new(512, 64);
        let mut flexgen_like = Policy::offload_default(256, 32);
        flexgen_like.attention_on_gpu = true;
        let cgopipe_like = Policy::offload_default(256, 32);
        let a = cm.layer_decode_latency(&flexgen_like, &w);
        let b = cm.layer_decode_latency(&cgopipe_like, &w);
        assert!(
            a.comm_h2d.as_secs() > b.comm_h2d.as_secs(),
            "KV transfer traffic must exceed hidden-state traffic"
        );
        assert!(a.total.as_secs() >= b.total.as_secs());
    }

    #[test]
    fn prefill_time_grows_with_prompt_length() {
        let cm = s1_cost();
        let p = Policy::offload_default(128, 16);
        let short = cm.prefill_time(&p, &WorkloadShape::new(64, 32));
        let long = cm.prefill_time(&p, &WorkloadShape::new(1693, 32));
        assert!(long.as_secs() > short.as_secs());
    }

    #[test]
    fn backfill_prefill_never_exceeds_cold_start_prefill() {
        let cm = s1_cost();
        let p = Policy::offload_default(128, 16);
        for prompt in [64, 418, 1693] {
            let shape = WorkloadShape::new(prompt, 32);
            let cold = cm.prefill_time(&p, &shape);
            let backfill = cm.backfill_prefill_time(&p, &shape);
            assert!(
                backfill <= cold,
                "backfill prefill ({backfill}) must not exceed cold start ({cold})"
            );
            assert!(backfill.as_secs() > 0.0);
        }
        // With everything offloaded (r_w = 0) the cold start streams all weights,
        // which dominates a small backfill batch by a wide margin.
        let small = Policy::offload_default(2, 2);
        let shape = WorkloadShape::new(77, 32);
        assert!(
            cm.backfill_prefill_time(&small, &shape).as_secs()
                < 0.5 * cm.prefill_time(&small, &shape).as_secs(),
            "a 2-request backfill must avoid the one-shot weight stream"
        );
    }

    #[test]
    fn generation_throughput_accounts_for_prefill_amortization() {
        // Longer generation lengths amortize prefill: throughput at gen=64 exceeds
        // throughput at gen=8 for the same policy.
        let cm = s1_cost();
        let p = Policy::offload_default(256, 32);
        let short = cm.generation_throughput(&p, &WorkloadShape::new(242, 8));
        let long = cm.generation_throughput(&p, &WorkloadShape::new(242, 64));
        assert!(long > short);
    }

    #[test]
    fn tensor_parallel_node_has_higher_throughput_ceiling() {
        // Fig. 8: more GPUs => more aggregate HBM and link bandwidth => higher
        // decode throughput for the same policy.
        let two = CostModel::new(NodeSpec::t4_multi(2), MoeModelConfig::dbrx());
        let four = CostModel::new(NodeSpec::t4_multi(4), MoeModelConfig::dbrx());
        let p = Policy::offload_default(256, 32);
        let w = mtbench();
        assert!(four.decode_throughput(&p, &w) > 1.5 * two.decode_throughput(&p, &w));
    }

    #[test]
    fn breakdown_bottleneck_identifies_largest_term() {
        let b = LayerLatencyBreakdown {
            comm_h2d: Seconds::from_millis(5.0),
            comm_d2h: Seconds::from_millis(1.0),
            cpu_compute: Seconds::from_millis(9.0),
            gpu_compute: Seconds::from_millis(2.0),
            total: Seconds::from_millis(9.0),
        };
        assert_eq!(b.bottleneck(), BottleneckResource::CpuCompute);
    }
}
