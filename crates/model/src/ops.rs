//! Per-operator FLOPs / bytes characterization of a MoE transformer layer.
//!
//! The paper's performance model (§4.2) computes, for every computation `x`, its
//! theoretical FLOP count and the bytes it must move, then bounds its execution time
//! with the Hierarchical Roofline Model. This module produces those numbers for the
//! operators of one transformer layer in the decode and prefill stages, split into
//! the task granularity used by CGOPipe:
//!
//! * **pre-attention** — RMSNorm + QKV projection (GPU task `A_x` in Fig. 6),
//! * **attention core** — the GQA softmax part over the KV cache (CPU task `B_x`),
//! * **post-attention** — output projection, router and MoE FFN (GPU task `C_x`).

use crate::arch::MoeModelConfig;
use moe_hardware::{ByteSize, FlopCount};

/// Generation stage a cost refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Prompt processing: all prompt tokens of a request in one pass.
    Prefill,
    /// Auto-regressive generation: one token per sequence per pass.
    Decode,
}

/// FLOPs and byte traffic of one operator invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Floating point operations performed.
    pub flops: FlopCount,
    /// Bytes of model weights read.
    pub weight_bytes: ByteSize,
    /// Bytes of activations read and written (hidden states, projections).
    pub activation_bytes: ByteSize,
    /// Bytes of KV cache read or written.
    pub kv_bytes: ByteSize,
}

impl OpCost {
    /// Total bytes moved by the operator.
    pub fn total_bytes(&self) -> ByteSize {
        self.weight_bytes + self.activation_bytes + self.kv_bytes
    }

    /// Operational intensity with respect to all bytes the operator touches
    /// (FLOPs / byte, the x-axis of a roofline plot).
    pub fn operational_intensity(&self) -> f64 {
        self.flops / self.total_bytes()
    }

    /// Operational intensity with respect to an arbitrary byte count — used for the
    /// HRM's cross-level intensities `I^j_x` (e.g. FLOPs per byte *transferred from
    /// CPU memory*, which differs from FLOPs per byte touched in GPU memory).
    pub fn intensity_wrt(&self, bytes: ByteSize) -> f64 {
        self.flops / bytes
    }

    /// Sums two costs (e.g. to aggregate a task group).
    pub fn combine(&self, other: &OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            activation_bytes: self.activation_bytes + other.activation_bytes,
            kv_bytes: self.kv_bytes + other.kv_bytes,
        }
    }
}

/// Computes operator costs for a single layer of a given model.
#[derive(Debug, Clone)]
pub struct LayerOps {
    cfg: MoeModelConfig,
}

impl LayerOps {
    /// Creates an operator cost calculator for `cfg`.
    pub fn new(cfg: MoeModelConfig) -> Self {
        LayerOps { cfg }
    }

    /// The model configuration this calculator was built from.
    pub fn config(&self) -> &MoeModelConfig {
        &self.cfg
    }

    fn wbytes(&self, params: u64) -> ByteSize {
        ByteSize::from_bytes(self.cfg.weight_dtype.bytes_for(params))
    }

    fn abytes(&self, elems: u64) -> ByteSize {
        ByteSize::from_bytes(self.cfg.weight_dtype.bytes_for(elems))
    }

    /// `(d_model, q_dim, kv_dim)`: the widths of the hidden state and of the
    /// query and key/value projections.
    fn widths(&self) -> (u64, u64, u64) {
        let hd = u64::from(self.cfg.head_dim);
        (
            u64::from(self.cfg.d_model),
            u64::from(self.cfg.num_q_heads) * hd,
            u64::from(self.cfg.num_kv_heads) * hd,
        )
    }

    /// FLOPs of [`Self::pre_attention`].
    fn pre_attention_flops(&self, tokens: u64) -> FlopCount {
        let (d, q_dim, kv_dim) = self.widths();
        let proj_params = d * (q_dim + 2 * kv_dim);
        FlopCount::from_flops(
            2.0 * tokens as f64 * proj_params as f64 + 4.0 * tokens as f64 * d as f64,
        )
    }

    /// Pre-attention task: RMSNorm + QKV projection for `tokens` tokens.
    pub fn pre_attention(&self, tokens: u64) -> OpCost {
        let (d, q_dim, kv_dim) = self.widths();
        let proj_params = d * (q_dim + 2 * kv_dim);
        OpCost {
            flops: self.pre_attention_flops(tokens),
            weight_bytes: self.wbytes(proj_params + d),
            activation_bytes: self.abytes(tokens * (d + q_dim + 2 * kv_dim)),
            kv_bytes: ByteSize::ZERO,
        }
    }

    /// Attention core (decode): the GQA softmax part over a KV cache of `context_len`
    /// tokens, for `tokens` query tokens (one per sequence).
    ///
    /// This is the computation CGOPipe places on the CPU; its KV bytes dominate and
    /// its operational intensity is independent of the batch size (paper §3.3).
    pub fn attention_core_decode(&self, tokens: u64, context_len: u64) -> OpCost {
        let nq = u64::from(self.cfg.num_q_heads);
        let nkv = u64::from(self.cfg.num_kv_heads);
        let hd = u64::from(self.cfg.head_dim);
        // QK^T and A·V per query head over the full context, plus softmax.
        let flops = 4.0 * (tokens * nq * hd * context_len) as f64
            + 5.0 * (tokens * nq * context_len) as f64;
        let kv_elems = 2 * nkv * context_len * hd * tokens;
        let kv_bytes = ByteSize::from_bytes(self.cfg.kv_dtype.bytes_for(kv_elems));
        OpCost {
            flops: FlopCount::from_flops(flops),
            weight_bytes: ByteSize::ZERO,
            activation_bytes: self.abytes(tokens * 2 * nq * hd),
            kv_bytes,
        }
    }

    /// Appending the new token's K/V vectors to the cache (write traffic).
    pub fn kv_append(&self, tokens: u64) -> ByteSize {
        self.cfg.kv_bytes_per_token_per_layer() * tokens
    }

    /// FLOPs of [`Self::o_projection`].
    fn o_projection_flops(&self, tokens: u64) -> FlopCount {
        let (d, q_dim, _) = self.widths();
        FlopCount::from_flops(2.0 * tokens as f64 * (q_dim * d) as f64)
    }

    /// Output projection for `tokens` tokens.
    pub fn o_projection(&self, tokens: u64) -> OpCost {
        let (d, q_dim, _) = self.widths();
        OpCost {
            flops: self.o_projection_flops(tokens),
            weight_bytes: self.wbytes(q_dim * d),
            activation_bytes: self.abytes(tokens * (q_dim + d)),
            kv_bytes: ByteSize::ZERO,
        }
    }

    /// FLOPs of [`Self::router`].
    fn router_flops(&self, tokens: u64) -> FlopCount {
        let d = u64::from(self.cfg.d_model);
        let e = u64::from(self.cfg.num_experts);
        FlopCount::from_flops(2.0 * (tokens * d * e) as f64)
    }

    /// Router (gating network) for `tokens` tokens.
    pub fn router(&self, tokens: u64) -> OpCost {
        let d = u64::from(self.cfg.d_model);
        let e = u64::from(self.cfg.num_experts);
        OpCost {
            flops: self.router_flops(tokens),
            weight_bytes: self.wbytes(d * e),
            activation_bytes: self.abytes(tokens * (d + e)),
            kv_bytes: ByteSize::ZERO,
        }
    }

    /// Expected number of *distinct* experts activated by `tokens` tokens under
    /// uniform routing: `n_e · (1 − (1 − k/n_e)^tokens)`.
    ///
    /// For the large micro-batches of throughput-oriented inference this saturates at
    /// `n_e`, which is why the paper models the whole layer's expert weights as read
    /// once per micro-batch.
    pub fn expected_experts_touched(&self, tokens: u64) -> f64 {
        let ne = f64::from(self.cfg.num_experts);
        let k = f64::from(self.cfg.top_k);
        if tokens == 0 {
            return 0.0;
        }
        ne * (1.0 - (1.0 - k / ne).powf(tokens as f64))
    }

    /// FLOPs of [`Self::moe_ffn`]: `top_k` experts per token.
    fn moe_ffn_flops(&self, tokens: u64) -> FlopCount {
        let top_k = f64::from(self.cfg.top_k);
        FlopCount::from_flops(
            2.0 * (tokens as f64) * top_k * self.cfg.params_per_expert() as f64
                + 3.0 * (tokens as f64) * top_k * f64::from(self.cfg.d_ff),
        )
    }

    /// MoE FFN for `tokens` tokens.
    ///
    /// FLOPs scale with `top_k · tokens`; weight bytes scale with the number of
    /// *distinct* experts touched, which is what makes the FFN's operational intensity
    /// grow with micro-batch size (Fig. 5 of the paper).
    pub fn moe_ffn(&self, tokens: u64) -> OpCost {
        let per_expert = self.cfg.params_per_expert();
        let experts_touched = self.expected_experts_touched(tokens);
        let weight_bytes = ByteSize::from_bytes(
            (self.cfg.weight_dtype.bytes_for(per_expert) as f64 * experts_touched).round() as u64,
        );
        let act_elems = tokens
            * (u64::from(self.cfg.d_model) * 2
                + u64::from(self.cfg.top_k) * u64::from(self.cfg.d_ff));
        OpCost {
            flops: self.moe_ffn_flops(tokens),
            weight_bytes,
            activation_bytes: self.abytes(act_elems),
            kv_bytes: ByteSize::ZERO,
        }
    }

    /// Post-attention task: output projection + router + MoE FFN (the GPU task `C_x`
    /// of CGOPipe).
    pub fn post_attention(&self, tokens: u64) -> OpCost {
        self.o_projection(tokens)
            .combine(&self.router(tokens))
            .combine(&self.moe_ffn(tokens))
    }

    /// Prefill cost of one layer for `batch` sequences of `prompt_len` tokens.
    ///
    /// The attention term is quadratic in the prompt length; projections and FFN are
    /// linear in the total token count.
    pub fn prefill_layer(&self, batch: u64, prompt_len: u64) -> OpCost {
        let tokens = batch * prompt_len;
        let base = self
            .pre_attention(tokens)
            .combine(&self.o_projection(tokens))
            .combine(&self.router(tokens))
            .combine(&self.moe_ffn(tokens));
        let kv_write = self.kv_append(tokens);
        OpCost {
            flops: base.flops + self.prefill_attention_flops(batch, prompt_len),
            weight_bytes: base.weight_bytes,
            activation_bytes: base.activation_bytes,
            kv_bytes: base.kv_bytes + kv_write,
        }
    }

    /// `prefill_layer(batch, prompt_len).flops`, bit for bit, without the
    /// byte counts: the operators' FLOPs summed in the same order.
    pub fn prefill_layer_flops(&self, batch: u64, prompt_len: u64) -> FlopCount {
        let tokens = batch * prompt_len;
        self.pre_attention_flops(tokens)
            + self.o_projection_flops(tokens)
            + self.router_flops(tokens)
            + self.moe_ffn_flops(tokens)
            + self.prefill_attention_flops(batch, prompt_len)
    }

    /// Causal attention FLOPs of a prefill: the sum over positions is about
    /// `prompt_len²/2` per sequence.
    fn prefill_attention_flops(&self, batch: u64, prompt_len: u64) -> FlopCount {
        let nq = u64::from(self.cfg.num_q_heads);
        let hd = u64::from(self.cfg.head_dim);
        FlopCount::from_flops(4.0 * (batch * nq * hd) as f64 * (prompt_len as f64).powi(2) / 2.0)
    }

    /// Bytes of layer weights that must be present on the executing device for the
    /// FFN path (experts + router) — the quantity streamed over PCIe when the FFN runs
    /// on GPU with weights held in CPU memory.
    pub fn ffn_weight_bytes(&self) -> ByteSize {
        self.cfg.expert_weight_bytes_per_layer()
            + ByteSize::from_bytes(
                self.cfg
                    .weight_dtype
                    .bytes_for(self.cfg.router_params_per_layer()),
            )
    }

    /// Bytes of attention weights (QKVO projections) of one layer.
    pub fn attention_weight_bytes(&self) -> ByteSize {
        self.cfg.attention_weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::DType;
    use proptest::prelude::*;

    fn mixtral_ops() -> LayerOps {
        LayerOps::new(MoeModelConfig::mixtral_8x7b())
    }

    /// Parameters activated per token in one layer: attention, router, the
    /// top-k experts and the two norms.
    fn active_params_per_layer(cfg: &MoeModelConfig) -> u64 {
        cfg.attention_params_per_layer()
            + cfg.router_params_per_layer()
            + cfg.params_per_expert() * u64::from(cfg.top_k)
            + 2 * u64::from(cfg.d_model)
    }

    #[test]
    fn mixtral_active_params_close_to_published_12_9b() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let active = (active_params_per_layer(&cfg) * u64::from(cfg.num_layers)
            + cfg.embedding_params()) as f64
            / 1e9;
        assert!(
            (12.0..14.0).contains(&active),
            "got {active} B active params"
        );
    }

    #[test]
    fn attention_intensity_is_independent_of_batch_size() {
        let ops = mixtral_ops();
        let i1 = ops.attention_core_decode(1, 512).operational_intensity();
        let i64 = ops.attention_core_decode(64, 512).operational_intensity();
        let rel = (i1 - i64).abs() / i1;
        assert!(
            rel < 1e-9,
            "attention intensity must not depend on batch: {i1} vs {i64}"
        );
    }

    #[test]
    fn attention_intensity_matches_gqa_analysis() {
        // For GQA with group size g and f16 KV cache the intensity approaches
        // 4·g·ctx·hd / (2·ctx·hd·2) = g per byte-pair ≈ 2·g / bytes_per_elem = 4.
        let ops = mixtral_ops();
        let i = ops.attention_core_decode(1, 4096).operational_intensity();
        assert!(
            (3.0..6.0).contains(&i),
            "f16 GQA intensity should be ≈4, got {i}"
        );
    }

    #[test]
    fn int4_kv_quadruples_attention_intensity() {
        let f16 = mixtral_ops();
        let int4 = LayerOps::new(MoeModelConfig::mixtral_8x7b().with_kv_dtype(DType::Int4));
        let i_f16 = f16.attention_core_decode(8, 512).operational_intensity();
        let i_int4 = int4.attention_core_decode(8, 512).operational_intensity();
        let ratio = i_int4 / i_f16;
        assert!((3.5..4.5).contains(&ratio), "expected ≈4x, got {ratio}");
    }

    #[test]
    fn ffn_intensity_grows_with_micro_batch() {
        let ops = mixtral_ops();
        let small = ops.moe_ffn(8).operational_intensity();
        let large = ops.moe_ffn(512).operational_intensity();
        assert!(
            large > 4.0 * small,
            "FFN intensity must grow with batch: {small} -> {large}"
        );
    }

    #[test]
    fn ffn_flops_scale_linearly_with_tokens() {
        let ops = mixtral_ops();
        let a = ops.moe_ffn(16).flops.as_flops();
        let b = ops.moe_ffn(32).flops.as_flops();
        assert!((b / a - 2.0).abs() < 0.01);
    }

    #[test]
    fn expected_experts_touched_saturates_at_expert_count() {
        let ops = mixtral_ops();
        assert_eq!(ops.expected_experts_touched(0), 0.0);
        let one = ops.expected_experts_touched(1);
        assert!(
            (one - 2.0).abs() < 1e-9,
            "one token touches top_k experts, got {one}"
        );
        let many = ops.expected_experts_touched(10_000);
        assert!((many - 8.0).abs() < 1e-6);
        assert!(ops.expected_experts_touched(4) < ops.expected_experts_touched(16));
    }

    #[test]
    fn decode_flops_match_active_params_estimate() {
        // Per-token decode FLOPs ≈ 2 × active parameters per layer (plus small
        // attention-over-context term). Check the projection/FFN part dominates and is
        // within 30 % of the 2·params rule of thumb for a short context.
        let cfg = MoeModelConfig::mixtral_8x7b();
        let ops = LayerOps::new(cfg.clone());
        let cost = ops
            .pre_attention(1)
            .combine(&ops.attention_core_decode(1, 16))
            .combine(&ops.post_attention(1));
        let rule_of_thumb = 2.0 * active_params_per_layer(&cfg) as f64;
        let ratio = cost.flops.as_flops() / rule_of_thumb;
        assert!((0.9..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn prefill_attention_term_grows_quadratically() {
        let ops = mixtral_ops();
        // Remove every linear term (projections, router, FFN); the remaining causal
        // attention term must grow ~4x when the prompt doubles.
        let linear_part = |p: u64| {
            ops.pre_attention(p)
                .combine(&ops.o_projection(p))
                .combine(&ops.router(p))
                .combine(&ops.moe_ffn(p))
                .flops
                .as_flops()
        };
        let f512 = ops.prefill_layer(1, 512).flops.as_flops() - linear_part(512);
        let f1024 = ops.prefill_layer(1, 1024).flops.as_flops() - linear_part(1024);
        assert!(
            f1024 > 3.5 * f512,
            "attention term should be quadratic: {f512} -> {f1024}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The FLOPs-only prefill count is the full prefill cost's FLOPs, as
        /// bits, for every model preset.
        #[test]
        fn prefill_layer_flops_equals_the_full_cost_bit_for_bit(
            preset in 0usize..4,
            (batch, prompt_len) in (0u64..4096, 0u64..8192),
        ) {
            let presets = [
                MoeModelConfig::mixtral_8x7b(),
                MoeModelConfig::mixtral_8x22b(),
                MoeModelConfig::dbrx(),
                MoeModelConfig::tiny(),
            ];
            let ops = LayerOps::new(presets[preset].clone());
            prop_assert_eq!(
                ops.prefill_layer_flops(batch, prompt_len).as_flops().to_bits(),
                ops.prefill_layer(batch, prompt_len).flops.as_flops().to_bits(),
                "preset {}, batch {}, prompt {}",
                preset,
                batch,
                prompt_len
            );
        }
    }

    #[test]
    fn post_attention_is_sum_of_parts() {
        let ops = mixtral_ops();
        let combined = ops.post_attention(32);
        let manual = ops
            .o_projection(32)
            .combine(&ops.router(32))
            .combine(&ops.moe_ffn(32));
        assert_eq!(combined, manual);
    }

    #[test]
    fn kv_append_matches_config_sizing() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let ops = LayerOps::new(cfg.clone());
        assert_eq!(ops.kv_append(10), cfg.kv_bytes_per_token_per_layer() * 10);
    }

    #[test]
    fn ffn_weight_bytes_cover_all_experts_and_router() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let ops = LayerOps::new(cfg.clone());
        assert!(ops.ffn_weight_bytes() > cfg.expert_weight_bytes_per_layer());
        assert!(ops.attention_weight_bytes() < ops.ffn_weight_bytes());
    }

    #[test]
    fn op_cost_combine_and_intensity_helpers() {
        let a = OpCost {
            flops: FlopCount::from_flops(100.0),
            weight_bytes: ByteSize::from_bytes(10),
            activation_bytes: ByteSize::from_bytes(5),
            kv_bytes: ByteSize::from_bytes(5),
        };
        let b = a.combine(&a);
        assert_eq!(b.flops.as_flops(), 200.0);
        assert_eq!(b.total_bytes().as_bytes(), 40);
        assert!((a.operational_intensity() - 5.0).abs() < 1e-12);
        assert!((a.intensity_wrt(ByteSize::from_bytes(50)) - 2.0).abs() < 1e-12);
    }
}
