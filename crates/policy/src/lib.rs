//! Offloading policies, the HRM-based performance model and the policy optimizer
//! (§4.2 of the MoE-Lightning paper), plus baseline policy generators.
//!
//! * [`policy`] — the [`Policy`] 6-tuple `(N, μ, A_g, F_g, r_w, r_c)` and the
//!   [`WorkloadShape`] it is optimized for.
//! * [`cost`] — the [`CostModel`]: per-task durations priced through the node's
//!   two-level `moe_hrm` model ([`CostModel::hrm`]) and the per-layer / per-step /
//!   end-to-end latency aggregates of Eqs. 12–14.
//! * [`capacity`] — the [`CapacityModel`]: GPU/CPU memory feasibility constraints.
//! * [`optimizer`] — the [`PolicyOptimizer`]: an exact search, pruned by a sound
//!   memory cut and a best-first throughput bound, maximizing modeled throughput
//!   under the capacity constraints.
//! * [`baselines`] — FlexGen-, FlexGen(c)- and DeepSpeed-style policy generators
//!   used by the end-to-end comparison and the Tab. 5 ablation.
//! * [`generator`] — the [`PolicyGenerator`] trait: one front-end over the
//!   optimizer and every baseline generator, so evaluators iterate over policy
//!   strategies generically.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::NodeSpec;
//! use moe_model::MoeModelConfig;
//! use moe_policy::{PolicyOptimizer, WorkloadShape, SearchSpace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let optimizer = PolicyOptimizer::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
//!     .with_search_space(SearchSpace::coarse());
//! let result = optimizer.search(&WorkloadShape::new(77, 128))?;
//! // On a 16 GB T4 the best policy keeps attention on the CPU and the FFN on the GPU.
//! assert!(!result.policy.attention_on_gpu);
//! assert!(result.policy.ffn_on_gpu);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod capacity;
pub mod cost;
pub mod generator;
pub mod optimizer;
pub mod policy;

pub use baselines::{DeepSpeedPolicy, FlexGenPolicy};
pub use capacity::{CapacityModel, MemoryRequirement};
pub use cost::{BottleneckResource, CostModel, LayerLatencyBreakdown};
pub use generator::PolicyGenerator;
pub use optimizer::{OptimizerError, PolicyOptimizer, SearchResult, SearchSpace};
pub use policy::{Placement, Policy, WorkloadShape};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::NodeSpec;
    use moe_model::MoeModelConfig;
    use proptest::prelude::*;

    fn cost() -> CostModel {
        CostModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn layer_latency_is_at_least_each_component(
            (mu, n_ub, last) in (1u64..128, 1u64..32, 0u64..128),
            (prompt, gen) in (1u64..2048, 1u64..256),
            (attention_on_gpu, ffn_on_gpu) in (any::<bool>(), any::<bool>()),
            (rw, rc) in (0.0f64..=1.0, 0.0f64..=1.0),
        ) {
            let cm = cost();
            // n_ub micro-batches, the last one ragged (1..=μ tokens); a lone
            // micro-batch is full, since μ may not exceed N.
            let p = Policy {
                batch_size: (mu * (n_ub - 1) + 1 + last % mu).max(mu),
                micro_batch_size: mu,
                attention_on_gpu,
                ffn_on_gpu,
                weights_gpu_ratio: rw,
                kv_gpu_ratio: rc,
            };
            prop_assert!(p.validate().is_ok());
            let w = WorkloadShape::new(prompt, gen);
            let b = cm.layer_decode_latency(&p, &w);
            prop_assert!(b.total.as_secs() >= b.comm_h2d.as_secs() - 1e-12);
            prop_assert!(b.total.as_secs() >= b.comm_d2h.as_secs() - 1e-12);
            prop_assert!(b.total.as_secs() >= b.cpu_compute.as_secs() - 1e-12);
            prop_assert!(b.total.as_secs() >= b.gpu_compute.as_secs() - 1e-12);
            // Eq. 12: the layer is exactly its binding term.
            let binding = b.comm_h2d.max(b.comm_d2h).max(b.cpu_compute).max(b.gpu_compute);
            prop_assert_eq!(b.total.as_secs().to_bits(), binding.as_secs().to_bits());
            // The layer's non-resident weights cross PCIe every step.
            let weight_floor = cm.weight_transfer(cm.streamed_layer_bytes(&p));
            prop_assert!(b.comm_h2d >= weight_floor, "{} < {} for {}", b.comm_h2d, weight_floor, p);
        }

        #[test]
        fn decode_throughput_non_negative_and_finite(
            mu in 1u64..256,
            n_ub in 1u64..64,
            prompt in 1u64..2048,
        ) {
            let cm = cost();
            let p = Policy::offload_default(mu * n_ub, mu);
            let w = WorkloadShape::new(prompt, 64);
            let t = cm.decode_throughput(&p, &w);
            prop_assert!(t.is_finite() && t >= 0.0);
        }

        #[test]
        fn more_static_weights_never_increase_h2d_traffic(
            mu in 1u64..64,
            r1 in 0.0f64..1.0,
            r2 in 0.0f64..1.0,
        ) {
            let cm = cost();
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            let mut a = Policy::offload_default(mu * 4, mu);
            a.weights_gpu_ratio = lo;
            let mut b = a;
            b.weights_gpu_ratio = hi;
            prop_assert!(cm.streamed_layer_bytes(&b) <= cm.streamed_layer_bytes(&a));
        }

        #[test]
        fn memory_requirement_monotone_in_batch(
            mu in 1u64..64,
            k1 in 1u64..32,
            k2 in 1u64..32,
            prompt in 1u64..1024,
        ) {
            let cap = CapacityModel::new(NodeSpec::t4_single(), MoeModelConfig::mixtral_8x7b());
            let w = WorkloadShape::new(prompt, 64);
            let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
            let small = cap.requirement(&Policy::offload_default(mu * lo, mu), &w);
            let large = cap.requirement(&Policy::offload_default(mu * hi, mu), &w);
            // KV cache and weights grow (or stay equal) with the batch; the pinned
            // staging area can shrink slightly because pages get smaller with more
            // micro-batches, so compare the batch-dependent components.
            prop_assert!(large.cpu_kv_cache >= small.cpu_kv_cache);
            prop_assert!(large.gpu_kv_cache >= small.gpu_kv_cache);
            prop_assert_eq!(large.cpu_weights, small.cpu_weights);
        }

        #[test]
        fn capacity_feasibility_monotone_in_cpu_memory(
            mu in 1u64..64,
            n_ub in 1u64..32,
            cpu_gib in 16.0f64..512.0,
        ) {
            use moe_hardware::ByteSize;
            let w = WorkloadShape::new(77, 128);
            let p = Policy::offload_default(mu * n_ub, mu);
            let small = CapacityModel::new(
                NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(cpu_gib)),
                MoeModelConfig::mixtral_8x7b(),
            );
            let large = CapacityModel::new(
                NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(cpu_gib * 2.0)),
                MoeModelConfig::mixtral_8x7b(),
            );
            if small.is_feasible(&p, &w) {
                prop_assert!(large.is_feasible(&p, &w));
            }
        }
    }
}
