//! MoE model architectures, per-operator cost characterization and a reference
//! numeric implementation.
//!
//! Three views of a Mixture-of-Experts transformer live here:
//!
//! * [`arch::MoeModelConfig`] — the architectural description (Tab. 1 of the paper)
//!   with presets for Mixtral 8x7B, Mixtral 8x22B and DBRX, and exact weight/KV-cache
//!   byte accounting.
//! * [`ops::LayerOps`] — theoretical FLOPs and byte traffic per operator and stage,
//!   the inputs to the Hierarchical Roofline Model and the policy optimizer (§4.2).
//! * [`reference::ReferenceMoeModel`] — a small, fully functional numeric MoE
//!   decoder used by the offloading runtime and end-to-end tests.
//!
//! # Examples
//!
//! ```
//! use moe_model::arch::MoeModelConfig;
//! use moe_model::ops::LayerOps;
//!
//! let cfg = MoeModelConfig::mixtral_8x7b();
//! // The whole model does not fit a 16 GB T4:
//! assert!(cfg.total_weight_bytes().as_gib() > 80.0);
//!
//! // MoE FFN operational intensity grows with the micro-batch size (Fig. 5):
//! let ops = LayerOps::new(cfg);
//! assert!(ops.moe_ffn(256).operational_intensity() > ops.moe_ffn(16).operational_intensity());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod ops;
pub mod reference;

pub use arch::MoeModelConfig;
pub use ops::{LayerOps, OpCost, Stage};
pub use reference::ReferenceMoeModel;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ffn_intensity_monotonic_in_micro_batch(a in 1u64..512, b in 1u64..512) {
            let ops = LayerOps::new(MoeModelConfig::mixtral_8x7b());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let i_lo = ops.moe_ffn(lo).operational_intensity();
            let i_hi = ops.moe_ffn(hi).operational_intensity();
            prop_assert!(i_hi >= i_lo * 0.999,
                "FFN intensity must be non-decreasing in tokens: {} -> {}", i_lo, i_hi);
        }

        #[test]
        fn decode_cost_monotonic_in_context(tokens in 1u64..64, c1 in 1u64..4096, c2 in 1u64..4096) {
            let ops = LayerOps::new(MoeModelConfig::mixtral_8x7b());
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let a = ops.attention_core_decode(tokens, lo);
            let b = ops.attention_core_decode(tokens, hi);
            prop_assert!(b.flops.as_flops() >= a.flops.as_flops());
            prop_assert!(b.kv_bytes >= a.kv_bytes);
        }

        #[test]
        fn weight_bytes_scale_with_dtype_width(layers in 1u32..8, d in 64u32..512) {
            use moe_hardware::DType;
            let mut cfg = MoeModelConfig::tiny();
            cfg.num_layers = layers;
            cfg.d_model = d;
            let f32_cfg = MoeModelConfig { weight_dtype: DType::F32, ..cfg.clone() };
            let f16_cfg = MoeModelConfig { weight_dtype: DType::F16, ..cfg };
            let ratio = f32_cfg.total_weight_bytes().as_bytes() as f64
                / f16_cfg.total_weight_bytes().as_bytes() as f64;
            prop_assert!((ratio - 2.0).abs() < 0.01);
        }

        #[test]
        fn expected_experts_touched_is_bounded(tokens in 0u64..100_000) {
            let ops = LayerOps::new(MoeModelConfig::dbrx());
            let e = ops.expected_experts_touched(tokens);
            prop_assert!((0.0..=16.0 + 1e-9).contains(&e));
            if tokens >= 1 {
                prop_assert!(e >= 4.0 - 1e-9, "at least top_k experts touched");
            }
        }

        #[test]
        fn routing_always_selects_top_k_distinct_experts(seed in 0u64..200, scale in 0.01f32..2.0) {
            let cfg = MoeModelConfig::tiny();
            let model = reference::ReferenceMoeModel::random(&cfg, seed).unwrap();
            let x: Vec<f32> = (0..cfg.d_model).map(|i| ((i as f32).sin()) * scale).collect();
            let routing = model.route(&model.layers[0], &x).unwrap();
            prop_assert_eq!(routing.experts.len(), cfg.top_k as usize);
            let mut idx: Vec<usize> = routing.experts.iter().map(|(i, _)| *i).collect();
            idx.sort_unstable();
            idx.dedup();
            prop_assert_eq!(idx.len(), cfg.top_k as usize, "experts must be distinct");
            let total: f32 = routing.experts.iter().map(|(_, w)| w).sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }
}
