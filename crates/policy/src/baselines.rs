//! Baseline policy generators mimicking the systems MoE-Lightning is compared
//! against: FlexGen / FlexGen(c) and DeepSpeed ZeRO-Inference.
//!
//! These generators reproduce the *policy shape* each baseline ends up with — not
//! their internal solvers — so the end-to-end comparison isolates the contribution
//! of CGOPipe + HRM exactly as the paper's Tab. 5 ablation does (their schedule with
//! their policy, their schedule with our policy, our schedule with our policy).

use crate::capacity::CapacityModel;
use crate::generator::PolicyGenerator;
use crate::policy::{Policy, WorkloadShape};
use moe_hardware::{ByteSize, NodeSpec};
use moe_model::MoeModelConfig;

/// Generates FlexGen-style policies.
///
/// FlexGen performs attention on the GPU (prefetching KV blocks from the CPU), pads
/// every request to the maximum prompt length and favours very large batches `N` to
/// amortize the per-layer weight transfer, with a comparatively small micro-batch
/// `μ` dictated by the GPU peak memory during prefill with padding.
#[derive(Debug, Clone)]
pub struct FlexGenPolicy {
    capacity: CapacityModel,
    cpu_attention: bool,
}

impl FlexGenPolicy {
    /// Creates a generator for FlexGen (GPU attention, the paper's default FlexGen
    /// configuration).
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        FlexGenPolicy {
            capacity: CapacityModel::new(node, model),
            cpu_attention: false,
        }
    }

    /// Creates a generator for FlexGen(c), the variant with CPU attention enabled.
    pub fn with_cpu_attention(node: NodeSpec, model: MoeModelConfig) -> Self {
        FlexGenPolicy {
            capacity: CapacityModel::new(node, model),
            cpu_attention: true,
        }
    }

    fn capacity_kv_bytes(&self, micro: u64, workload: &WorkloadShape) -> ByteSize {
        // KV bytes of one micro-batch for one layer (what S4 prefetches ahead).
        self.capacity.model().kv_bytes_per_token_per_layer() * micro * workload.max_context()
    }

    fn fits_with_extra_gpu(
        &self,
        policy: &Policy,
        workload: &WorkloadShape,
        extra: ByteSize,
    ) -> bool {
        let req = self.capacity.requirement(policy, workload);
        req.gpu_total() + extra * 2 <= self.capacity.node().total_gpu_memory()
            && req.cpu_total() <= self.capacity.node().cpu_memory()
    }
}

impl PolicyGenerator for FlexGenPolicy {
    fn name(&self) -> &'static str {
        if self.cpu_attention {
            "flexgen(c)"
        } else {
            "flexgen"
        }
    }

    /// Generates the policy for a workload. FlexGen pads requests, so the effective
    /// prompt length is the *maximum* prompt length of the batch; pass it via
    /// `workload.prompt_len`.
    ///
    /// Returns `None` if not even a single-request batch fits the node.
    fn generate(&self, workload: &WorkloadShape) -> Option<Policy> {
        // FlexGen keeps weights and KV cache in CPU memory on the memory-constrained
        // nodes studied here (r_w = r_c = 0) and streams per layer.
        let template = Policy {
            batch_size: 1,
            micro_batch_size: 1,
            attention_on_gpu: !self.cpu_attention,
            ffn_on_gpu: true,
            weights_gpu_ratio: 0.0,
            kv_gpu_ratio: 0.0,
        };

        // Micro-batch: the largest power-of-two-ish size whose padded prefill
        // activations fit the GPU, scaled down relative to MoE-Lightning because
        // FlexGen also stages KV blocks for the next micro-batch in GPU memory.
        let mut micro = 1u64;
        for candidate in [
            1u64, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
        ] {
            let p = Policy {
                batch_size: candidate,
                micro_batch_size: candidate,
                ..template
            };
            // Reserve room for the prefetched KV blocks of one micro-batch by
            // inflating the activation check with the KV bytes of that micro-batch.
            let kv_extra = self.capacity_kv_bytes(candidate, workload);
            if self.fits_with_extra_gpu(&p, workload, kv_extra) {
                micro = candidate;
            }
        }

        // Batch: as many micro-batches as CPU memory allows (FlexGen's "process as
        // many requests as possible" strategy).
        let template = Policy {
            micro_batch_size: micro,
            batch_size: micro,
            ..template
        };
        let batch = self
            .capacity
            .max_feasible_batch(&template, workload, micro * 4096)?;
        Some(Policy {
            batch_size: batch,
            ..template
        })
    }
}

/// Generates DeepSpeed ZeRO-Inference-style policies: weights pinned in CPU memory
/// and streamed layer by layer, a single (micro-)batch sized to fill GPU memory, KV
/// cache on the GPU, attention on the GPU.
#[derive(Debug, Clone)]
pub struct DeepSpeedPolicy {
    capacity: CapacityModel,
}

impl DeepSpeedPolicy {
    /// Creates a generator.
    pub fn new(node: NodeSpec, model: MoeModelConfig) -> Self {
        DeepSpeedPolicy {
            capacity: CapacityModel::new(node, model),
        }
    }
}

impl PolicyGenerator for DeepSpeedPolicy {
    fn name(&self) -> &'static str {
        "deepspeed"
    }

    /// Generates the policy for a workload: `N = μ`, both as large as GPU memory
    /// allows (DeepSpeed does not pipeline micro-batches, Tab. 4 shows `N/μ = 1`).
    ///
    /// Returns `None` if not even a single-request batch fits.
    fn generate(&self, workload: &WorkloadShape) -> Option<Policy> {
        let mut best = None;
        for candidate in [
            1u64, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 102, 128, 156, 192, 256, 384, 512,
        ] {
            let policy = Policy {
                batch_size: candidate,
                micro_batch_size: candidate,
                attention_on_gpu: true,
                ffn_on_gpu: true,
                weights_gpu_ratio: 0.0,
                kv_gpu_ratio: 1.0,
            };
            if self.capacity.is_feasible(&policy, workload) {
                best = Some(policy);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s1() -> (NodeSpec, MoeModelConfig) {
        (NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
    }

    #[test]
    fn flexgen_uses_gpu_attention_and_large_batches() {
        let (node, model) = s1();
        let gen = FlexGenPolicy::new(node, model);
        let policy = gen
            .generate(&WorkloadShape::new(418, 128))
            .expect("feasible");
        assert!(policy.attention_on_gpu);
        assert!(policy.ffn_on_gpu);
        assert_eq!(policy.weights_gpu_ratio, 0.0);
        assert!(
            policy.num_micro_batches() >= 4,
            "FlexGen amortizes with many micro-batches: {policy}"
        );
        assert!(
            policy.batch_size >= 1024,
            "FlexGen fills CPU memory with requests: {policy}"
        );
    }

    #[test]
    fn flexgen_c_differs_only_in_attention_placement() {
        let (node, model) = s1();
        let w = WorkloadShape::new(418, 128);
        let gpu_attn = FlexGenPolicy::new(node.clone(), model.clone())
            .generate(&w)
            .unwrap();
        let cpu_attn = FlexGenPolicy::with_cpu_attention(node, model)
            .generate(&w)
            .unwrap();
        assert!(gpu_attn.attention_on_gpu);
        assert!(!cpu_attn.attention_on_gpu);
    }

    #[test]
    fn deepspeed_uses_single_micro_batch() {
        let (node, model) = s1();
        let gen = DeepSpeedPolicy::new(node, model);
        let policy = gen
            .generate(&WorkloadShape::new(242, 50))
            .expect("feasible");
        assert_eq!(policy.num_micro_batches(), 1, "{policy}");
        assert!(policy.attention_on_gpu);
        assert_eq!(policy.kv_gpu_ratio, 1.0);
        assert!(
            policy.batch_size >= 32,
            "DeepSpeed fills GPU memory: {policy}"
        );
    }

    #[test]
    fn deepspeed_batch_shrinks_with_longer_prompts() {
        let (node, model) = s1();
        let gen = DeepSpeedPolicy::new(node, model);
        let short = gen.generate(&WorkloadShape::new(242, 50)).unwrap();
        let long = gen.generate(&WorkloadShape::new(1984, 64)).unwrap();
        assert!(long.batch_size < short.batch_size);
    }

    #[test]
    fn generators_return_none_when_nothing_fits() {
        let node = NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(4.0));
        let model = MoeModelConfig::mixtral_8x7b();
        assert!(FlexGenPolicy::new(node.clone(), model.clone())
            .generate(&WorkloadShape::new(128, 32))
            .is_none());
        assert!(DeepSpeedPolicy::new(node, model)
            .generate(&WorkloadShape::new(128, 32))
            .is_none());
    }

    #[test]
    fn flexgen_batches_grow_with_cpu_memory() {
        // Fig. 1: existing systems need far more CPU memory to reach their peak.
        let model = MoeModelConfig::mixtral_8x7b();
        let w = WorkloadShape::new(77, 128);
        let small = FlexGenPolicy::new(
            NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(120.0)),
            model.clone(),
        )
        .generate(&w)
        .unwrap();
        let large = FlexGenPolicy::new(NodeSpec::t4_single(), model)
            .generate(&w)
            .unwrap();
        assert!(large.batch_size > small.batch_size);
    }
}
