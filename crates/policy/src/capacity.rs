//! Memory-capacity model: the feasibility constraints of the policy search.
//!
//! The optimizer of §4.2 minimizes per-layer latency *without violating the CPU and
//! GPU memory constraints*. This module computes, for a candidate policy and
//! workload, how much GPU HBM and host DRAM the run would need: static weights, the
//! double-buffered streamed weights, KV cache on both sides, activation workspace
//! (decode and prefill peaks) and the pinned staging area.

use crate::policy::{Policy, WorkloadShape};
use moe_hardware::{ByteSize, NodeSpec};
use moe_model::MoeModelConfig;

/// Memory requirement breakdown of a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryRequirement {
    /// Static weights resident on the GPU (`r_w` of all layers plus embeddings).
    pub gpu_static_weights: ByteSize,
    /// The `2 × W_L` double buffer for streamed weights.
    pub gpu_weight_buffer: ByteSize,
    /// KV cache kept in GPU HBM (`r_c`).
    pub gpu_kv_cache: ByteSize,
    /// Peak activation workspace on the GPU (max of decode and prefill).
    pub gpu_activations: ByteSize,
    /// Weights resident in host DRAM.
    pub cpu_weights: ByteSize,
    /// KV cache kept in host DRAM.
    pub cpu_kv_cache: ByteSize,
    /// Pinned staging buffers and host-side intermediate tensors.
    pub cpu_staging: ByteSize,
}

impl MemoryRequirement {
    /// Total GPU HBM required.
    pub fn gpu_total(&self) -> ByteSize {
        self.gpu_static_weights + self.gpu_weight_buffer + self.gpu_kv_cache + self.gpu_activations
    }

    /// Total host DRAM required.
    pub fn cpu_total(&self) -> ByteSize {
        self.cpu_weights + self.cpu_kv_cache + self.cpu_staging
    }

    /// The host DRAM of the terms that never shrink as the batch `N` grows with
    /// `(μ, A_g, F_g, r_w, r_c)` fixed: [`Self::cpu_total`] without the staging
    /// area, whose weight pages get smaller as `N/μ` grows.
    pub fn cpu_batch_floor(&self) -> ByteSize {
        self.cpu_weights + self.cpu_kv_cache
    }
}

/// The weight terms of a [`MemoryRequirement`] that only `(F_g, r_w)` fixes,
/// from [`CapacityModel::row_weights`]: neither the batch, `μ`, `A_g`, `r_c`
/// nor the workload moves them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowWeights {
    pub(crate) gpu_static_weights: ByteSize,
    pub(crate) gpu_weight_buffer: ByteSize,
    pub(crate) cpu_weights: ByteSize,
    /// One layer's streamed weights, split into pinned pages per micro-batch.
    streamed_per_layer: ByteSize,
}

/// The part of a [`MemoryRequirement`] shared by every batch size of one
/// `(μ, A_g, F_g, r_w, r_c)` row, from [`CapacityModel::row`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRequirement<'a> {
    model: &'a MoeModelConfig,
    /// The row's policy; its batch size is ignored.
    policy: Policy,
    kv_bytes_per_token: ByteSize,
    max_context: u64,
    weights: RowWeights,
    gpu_activations: ByteSize,
}

impl RowRequirement<'_> {
    /// The full requirement at batch size `batch`.
    pub(crate) fn at(&self, batch: u64) -> MemoryRequirement {
        let m = self.model;
        let policy = Policy {
            batch_size: batch,
            ..self.policy
        };
        let rc = policy.kv_gpu_ratio.clamp(0.0, 1.0);

        // KV cache for the whole batch at the maximum context length.
        let kv_total = self.kv_bytes_per_token * batch * self.max_context;

        // CPU side: the CPU share of the KV cache, pinned staging (two weight
        // pages) and host copies of per-micro-batch activations.
        let page = self
            .weights
            .streamed_per_layer
            .scale(1.0 / policy.num_micro_batches().max(1) as f64);
        let host_act = m.qkv_bytes(batch) + m.hidden_state_bytes(batch);

        MemoryRequirement {
            gpu_static_weights: self.weights.gpu_static_weights,
            gpu_weight_buffer: self.weights.gpu_weight_buffer,
            gpu_kv_cache: kv_total.scale(rc),
            gpu_activations: self.gpu_activations,
            cpu_weights: self.weights.cpu_weights,
            cpu_kv_cache: kv_total.scale(1.0 - rc),
            cpu_staging: page * 2 + host_act,
        }
    }
}

/// Computes memory requirements and feasibility for policies.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    node: NodeSpec,
    model: MoeModelConfig,
}

impl CapacityModel {
    /// Creates a capacity model for `model` on `node`.
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        CapacityModel { node, model }
    }

    /// The underlying node.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The model whose memory this sizes.
    pub fn model(&self) -> &MoeModelConfig {
        &self.model
    }

    /// Memory requirement of `policy` under `workload`.
    pub fn requirement(&self, policy: &Policy, workload: &WorkloadShape) -> MemoryRequirement {
        self.row(policy, workload).at(policy.batch_size)
    }

    /// The terms of [`Self::requirement`] that `policy.batch_size` does not
    /// change: everything fixed by `(μ, A_g, F_g, r_w, r_c)` and the workload.
    /// [`RowRequirement::at`] adds the batch-dependent ones.
    pub(crate) fn row(&self, policy: &Policy, workload: &WorkloadShape) -> RowRequirement<'_> {
        self.row_from(
            policy,
            self.row_weights(policy.ffn_on_gpu, policy.weights_gpu_ratio),
            self.activations(policy.micro_batch_size, workload),
            workload,
        )
    }

    /// [`Self::row`] of `policy`, given its [`RowWeights`] and its activation
    /// workspace ([`Self::activations`]).
    pub(crate) fn row_from(
        &self,
        policy: &Policy,
        weights: RowWeights,
        gpu_activations: ByteSize,
        workload: &WorkloadShape,
    ) -> RowRequirement<'_> {
        RowRequirement {
            model: &self.model,
            policy: *policy,
            kv_bytes_per_token: self.model.kv_bytes_per_token(),
            max_context: workload.max_context(),
            weights,
            gpu_activations,
        }
    }

    /// The [`RowWeights`] of the rows at `(F_g, r_w)`.
    pub(crate) fn row_weights(&self, ffn_on_gpu: bool, rw: f64) -> RowWeights {
        let (gpu_static_weights, cpu_weights) = self.resident_weights(rw);
        RowWeights {
            gpu_static_weights,
            gpu_weight_buffer: self.weight_buffer(ffn_on_gpu, rw),
            cpu_weights,
            streamed_per_layer: self.streamed_per_layer(ffn_on_gpu, rw),
        }
    }

    /// The weights resident on each side at weight ratio `r_w`: on the GPU,
    /// `r_w` of the decoder weights plus the embedding/LM head, which the
    /// implementation always keeps there; in host DRAM, the rest of the
    /// decoder weights.
    pub(crate) fn resident_weights(&self, rw: f64) -> (ByteSize, ByteSize) {
        let m = &self.model;
        let rw = rw.clamp(0.0, 1.0);
        let layer_weights_all = m.layer_weight_bytes() * u64::from(m.num_layers);
        let embeddings = ByteSize::from_bytes(m.weight_dtype.bytes_for(m.embedding_params()));
        (
            layer_weights_all.scale(rw) + embeddings,
            layer_weights_all.scale(1.0 - rw),
        )
    }

    /// One layer's weights streamed to the GPU at `(F_g, r_w)`: the whole
    /// layer when the FFN runs there, its attention weights otherwise.
    fn streamed_per_layer(&self, ffn_on_gpu: bool, rw: f64) -> ByteSize {
        let m = &self.model;
        let rw = rw.clamp(0.0, 1.0);
        if ffn_on_gpu {
            m.layer_weight_bytes().scale(1.0 - rw)
        } else {
            m.attention_weight_bytes().scale(1.0 - rw)
        }
    }

    /// The `2 × W_L` GPU double buffer for the weights streamed at `(F_g, r_w)`.
    pub(crate) fn weight_buffer(&self, ffn_on_gpu: bool, rw: f64) -> ByteSize {
        self.streamed_per_layer(ffn_on_gpu, rw) * 2
    }

    /// The GPU activation workspace of micro-batch size `mu`. Decode: one
    /// micro-batch of hidden/QKV/FFN intermediates (double-buffered).
    /// Prefill: a micro-batch of full prompts. The peak of the two.
    pub(crate) fn activations(&self, mu: u64, workload: &WorkloadShape) -> ByteSize {
        let m = &self.model;
        let dtype = m.weight_dtype.bytes_per_element();
        let per_token_act = (2 * u64::from(m.d_model)
            + u64::from(m.num_q_heads) * u64::from(m.head_dim)
            + 2 * u64::from(m.num_kv_heads) * u64::from(m.head_dim)
            + u64::from(m.top_k) * u64::from(m.d_ff)) as f64
            * dtype;
        let decode_act = ByteSize::from_bytes((2.0 * mu as f64 * per_token_act) as u64);
        let prefill_act =
            ByteSize::from_bytes((mu as f64 * workload.prompt_len as f64 * per_token_act) as u64);
        decode_act.max(prefill_act)
    }

    /// Whether a row's batch-independent floor fits the node: GPU static
    /// weights + weight buffer + activations, and host weights. Every other
    /// term of [`MemoryRequirement::gpu_total`] and
    /// [`MemoryRequirement::cpu_batch_floor`] is a byte count, never below 0,
    /// so a row whose floor does not fit fails [`Self::exceeds_batch_floor`]
    /// at every batch size, `A_g` and `r_c`.
    pub(crate) fn floor_fits(
        &self,
        gpu_static_weights: ByteSize,
        gpu_weight_buffer: ByteSize,
        gpu_activations: ByteSize,
        cpu_weights: ByteSize,
    ) -> bool {
        gpu_static_weights + gpu_weight_buffer + gpu_activations <= self.node.total_gpu_memory()
            && cpu_weights <= self.node.cpu_memory()
    }

    /// Whether `policy` fits the node's GPU and CPU memory for `workload`.
    pub fn is_feasible(&self, policy: &Policy, workload: &WorkloadShape) -> bool {
        self.fits(&self.requirement(policy, workload))
    }

    /// Whether the requirement `req` fits the node's GPU and CPU memory.
    pub(crate) fn fits(&self, req: &MemoryRequirement) -> bool {
        req.gpu_total() <= self.node.total_gpu_memory() && req.cpu_total() <= self.node.cpu_memory()
    }

    /// Whether a part of `req` that only grows with the batch already exceeds the
    /// node: [`MemoryRequirement::gpu_total`] (every GPU term is flat or grows with
    /// `N`) or [`MemoryRequirement::cpu_batch_floor`]. When it does, every larger
    /// batch with the same `(μ, A_g, F_g, r_w, r_c)` is infeasible too, which is
    /// what lets the policy search end a row of micro-batch counts early.
    pub(crate) fn exceeds_batch_floor(&self, req: &MemoryRequirement) -> bool {
        req.gpu_total() > self.node.total_gpu_memory()
            || req.cpu_batch_floor() > self.node.cpu_memory()
    }

    /// The largest batch size (multiple of `micro_batch`) that still fits, or `None`
    /// if even a single micro-batch does not fit.
    ///
    /// The scan stops at the first infeasible batch. That is not a sound cut:
    /// [`MemoryRequirement::cpu_staging`] shrinks as `N/μ` grows, so with host DRAM
    /// near the model's weight size a larger batch can fit where a smaller one did
    /// not, and this returns the end of the first feasible run. FlexGen's baseline
    /// batch is defined by this scan, so it is kept as is. The HRM policy search
    /// instead cuts where [`MemoryRequirement::gpu_total`] or
    /// [`MemoryRequirement::cpu_batch_floor`] no longer fits.
    pub fn max_feasible_batch(
        &self,
        template: &Policy,
        workload: &WorkloadShape,
        limit: u64,
    ) -> Option<u64> {
        let mu = template.micro_batch_size;
        let row = self.row(template, workload);
        let mut best = None;
        let mut n = mu;
        while n <= limit {
            if self.fits(&row.at(n)) {
                best = Some(n);
            } else {
                break;
            }
            n += mu;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s1() -> CapacityModel {
        CapacityModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
    }

    fn mtbench() -> WorkloadShape {
        WorkloadShape::new(77, 128)
    }

    #[test]
    fn full_gpu_residency_is_infeasible_on_a_t4() {
        // Mixtral 8x7B weighs ~87 GiB in f16; r_w = 1 cannot fit a 16 GB GPU.
        let cap = s1();
        let mut p = Policy::offload_default(32, 32);
        p.weights_gpu_ratio = 1.0;
        assert!(!cap.is_feasible(&p, &mtbench()));
    }

    #[test]
    fn paper_s1_policy_is_feasible() {
        // The paper's MoE-Lightning(p) policy for MTBench@S1 (gen 128) uses μ=36,
        // N=504 with full offloading — this must fit 16 GB GPU / 192 GB CPU.
        let cap = s1();
        let p = Policy::offload_default(504, 36);
        let req = cap.requirement(&p, &mtbench());
        assert!(
            cap.is_feasible(&p, &mtbench()),
            "requirement: GPU {} CPU {}",
            req.gpu_total(),
            req.cpu_total()
        );
        assert!(req.gpu_total() < ByteSize::from_gib(16.0));
        assert!(req.cpu_total() < ByteSize::from_gib(192.0));
    }

    #[test]
    fn gpu_requirement_grows_with_micro_batch_and_prompt() {
        let cap = s1();
        let small = cap.requirement(
            &Policy::offload_default(64, 8),
            &WorkloadShape::new(256, 64),
        );
        let large_mu = cap.requirement(
            &Policy::offload_default(64, 64),
            &WorkloadShape::new(256, 64),
        );
        let long_prompt = cap.requirement(
            &Policy::offload_default(64, 8),
            &WorkloadShape::new(1984, 64),
        );
        assert!(large_mu.gpu_activations > small.gpu_activations);
        assert!(long_prompt.gpu_activations > small.gpu_activations);
    }

    #[test]
    fn cpu_requirement_grows_with_batch_size() {
        let cap = s1();
        let w = mtbench();
        let small = cap.requirement(&Policy::offload_default(64, 32), &w);
        let large = cap.requirement(&Policy::offload_default(2048, 32), &w);
        assert!(large.cpu_kv_cache > small.cpu_kv_cache);
        assert_eq!(
            large.cpu_weights, small.cpu_weights,
            "weights independent of N"
        );
    }

    #[test]
    fn kv_ratio_moves_cache_between_devices() {
        let cap = s1();
        let w = mtbench();
        let mut p = Policy::offload_default(128, 32);
        p.kv_gpu_ratio = 0.5;
        let req = cap.requirement(&p, &w);
        assert!(req.gpu_kv_cache > ByteSize::ZERO);
        assert!(req.cpu_kv_cache > ByteSize::ZERO);
        let total_half = req.gpu_kv_cache + req.cpu_kv_cache;
        p.kv_gpu_ratio = 0.0;
        let req0 = cap.requirement(&p, &w);
        assert_eq!(req0.gpu_kv_cache, ByteSize::ZERO);
        assert_eq!(total_half, req0.cpu_kv_cache + req0.gpu_kv_cache);
    }

    #[test]
    fn max_feasible_batch_respects_cpu_memory() {
        let cap = s1();
        let w = WorkloadShape::new(77, 256);
        let template = Policy::offload_default(32, 32);
        let max = cap
            .max_feasible_batch(&template, &w, 1 << 20)
            .expect("some batch fits");
        assert!(max > 32, "should fit far more than one micro-batch");
        // The next multiple must not fit.
        let over = Policy {
            batch_size: max + 32,
            ..template
        };
        assert!(!cap.is_feasible(&over, &w));
    }

    #[test]
    fn max_feasible_batch_none_when_nothing_fits() {
        // A node with a tiny CPU cannot even hold the model weights.
        let node = NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(8.0));
        let cap = CapacityModel::new(node, MoeModelConfig::mixtral_8x7b());
        let template = Policy::offload_default(32, 32);
        assert_eq!(cap.max_feasible_batch(&template, &mtbench(), 1 << 16), None);
    }

    #[test]
    fn row_floor_terms_are_the_requirement_terms() {
        // The search's memory cut and the requirement are one computation:
        // the floor's terms equal the requirement's, bit for bit, for every
        // preset model, μ, F_g, r_w (clamped or not) and prompt.
        for model in [
            MoeModelConfig::mixtral_8x7b(),
            MoeModelConfig::mixtral_8x22b(),
            MoeModelConfig::dbrx(),
            MoeModelConfig::tiny(),
        ] {
            let cap = CapacityModel::new(NodeSpec::t4_single(), model);
            for workload in [
                mtbench(),
                WorkloadShape::new(1984, 64),
                WorkloadShape::new(1, 0),
            ] {
                for mu in [1, 36, 256] {
                    for ffn_on_gpu in [false, true] {
                        for rw in [-0.5, 0.0, 0.3, 1.0, 1.5] {
                            let policy = Policy {
                                ffn_on_gpu,
                                weights_gpu_ratio: rw,
                                ..Policy::offload_default(4 * mu, mu)
                            };
                            let req = cap.requirement(&policy, &workload);
                            let (gpu_static_weights, cpu_weights) = cap.resident_weights(rw);
                            let gpu_weight_buffer = cap.weight_buffer(ffn_on_gpu, rw);
                            let gpu_activations = cap.activations(mu, &workload);
                            assert_eq!(gpu_static_weights, req.gpu_static_weights, "{policy}");
                            assert_eq!(cpu_weights, req.cpu_weights, "{policy}");
                            assert_eq!(gpu_weight_buffer, req.gpu_weight_buffer, "{policy}");
                            assert_eq!(gpu_activations, req.gpu_activations, "{policy}");
                            assert_eq!(
                                cap.floor_fits(
                                    gpu_static_weights,
                                    gpu_weight_buffer,
                                    gpu_activations,
                                    cpu_weights
                                ),
                                req.gpu_static_weights
                                    + req.gpu_weight_buffer
                                    + req.gpu_activations
                                    <= cap.node().total_gpu_memory()
                                    && req.cpu_weights <= cap.node().cpu_memory(),
                                "{policy}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn requirement_totals_are_sums_of_parts() {
        let cap = s1();
        let req = cap.requirement(&Policy::offload_default(128, 32), &mtbench());
        assert_eq!(
            req.gpu_total(),
            req.gpu_static_weights + req.gpu_weight_buffer + req.gpu_kv_cache + req.gpu_activations
        );
        assert_eq!(
            req.cpu_total(),
            req.cpu_weights + req.cpu_kv_cache + req.cpu_staging
        );
    }
}
