//! MoE model architecture configurations and derived memory footprints.
//!
//! Encodes the model configurations of Tab. 1/Tab. 2 of the paper: number of layers
//! `l`, model and intermediate hidden dimensions `h1`/`h2`, query and key/value head
//! counts `n_q`/`n_kv`, number of experts `n_e`, top-k routing `k` and the weight /
//! KV-cache data types. All byte-level sizing used by the memory manager, the policy
//! optimizer and the performance model derives from this single struct.

use moe_hardware::{ByteSize, DType};

/// Architecture description of a Mixture-of-Experts transformer.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Number of transformer layers (`l`).
    pub num_layers: u32,
    /// Model hidden dimension (`h1`).
    pub d_model: u32,
    /// Expert FFN intermediate dimension (`h2`).
    pub d_ff: u32,
    /// Number of query heads (`n_q`).
    pub num_q_heads: u32,
    /// Number of key/value heads (`n_kv`, GQA groups).
    pub num_kv_heads: u32,
    /// Dimension of each attention head.
    pub head_dim: u32,
    /// Number of experts per MoE FFN (`n_e`).
    pub num_experts: u32,
    /// Number of experts activated per token (`k`).
    pub top_k: u32,
    /// Vocabulary size (embedding / LM head rows).
    pub vocab_size: u32,
    /// Data type used to store weights.
    pub weight_dtype: DType,
    /// Data type used to store the KV cache.
    pub kv_dtype: DType,
}

impl MoeModelConfig {
    /// Mixtral 8x7B (46.7 B total parameters, 12.9 B active). Evaluation settings S1/S2.
    pub fn mixtral_8x7b() -> Self {
        MoeModelConfig {
            name: "Mixtral-8x7B".to_owned(),
            num_layers: 32,
            d_model: 4096,
            d_ff: 14336,
            num_q_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            num_experts: 8,
            top_k: 2,
            vocab_size: 32_000,
            weight_dtype: DType::F16,
            kv_dtype: DType::F16,
        }
    }

    /// Mixtral 8x22B (141 B total parameters). Evaluation settings S6/S7.
    pub fn mixtral_8x22b() -> Self {
        MoeModelConfig {
            name: "Mixtral-8x22B".to_owned(),
            num_layers: 56,
            d_model: 6144,
            d_ff: 16384,
            num_q_heads: 48,
            num_kv_heads: 8,
            head_dim: 128,
            num_experts: 8,
            top_k: 2,
            vocab_size: 32_768,
            weight_dtype: DType::F16,
            kv_dtype: DType::F16,
        }
    }

    /// DBRX (132 B total parameters, 16 experts, top-4). Evaluation settings S8/S9.
    pub fn dbrx() -> Self {
        MoeModelConfig {
            name: "DBRX".to_owned(),
            num_layers: 40,
            d_model: 6144,
            d_ff: 10752,
            num_q_heads: 48,
            num_kv_heads: 8,
            head_dim: 128,
            num_experts: 16,
            top_k: 4,
            vocab_size: 100_352,
            weight_dtype: DType::F16,
            kv_dtype: DType::F16,
        }
    }

    /// A deliberately tiny configuration (thousands of parameters) for the functional
    /// offloading runtime and numeric end-to-end tests.
    pub fn tiny() -> Self {
        MoeModelConfig {
            name: "Tiny-MoE".to_owned(),
            num_layers: 4,
            d_model: 32,
            d_ff: 64,
            num_q_heads: 4,
            num_kv_heads: 2,
            head_dim: 8,
            num_experts: 4,
            top_k: 2,
            vocab_size: 256,
            weight_dtype: DType::F32,
            kv_dtype: DType::F32,
        }
    }

    /// Returns a copy with a different KV-cache data type (e.g. int4 quantization,
    /// compared in Fig. 4 of the paper).
    pub fn with_kv_dtype(&self, dtype: DType) -> MoeModelConfig {
        MoeModelConfig {
            kv_dtype: dtype,
            ..self.clone()
        }
    }

    // --- parameter counts -------------------------------------------------------

    /// Attention projection parameters per layer: W_Q, W_K, W_V, W_O.
    pub fn attention_params_per_layer(&self) -> u64 {
        let d = u64::from(self.d_model);
        let q = u64::from(self.num_q_heads) * u64::from(self.head_dim);
        let kv = u64::from(self.num_kv_heads) * u64::from(self.head_dim);
        // Q, K, V projections plus output projection.
        d * q + 2 * d * kv + q * d
    }

    /// Parameters of a single expert FFN (gate, up and down projections — the
    /// SwiGLU layout used by Mixtral and DBRX).
    pub fn params_per_expert(&self) -> u64 {
        3 * u64::from(self.d_model) * u64::from(self.d_ff)
    }

    /// Expert parameters per layer (all experts).
    pub fn expert_params_per_layer(&self) -> u64 {
        self.params_per_expert() * u64::from(self.num_experts)
    }

    /// Router (gating network) parameters per layer.
    pub fn router_params_per_layer(&self) -> u64 {
        u64::from(self.d_model) * u64::from(self.num_experts)
    }

    /// All parameters of one transformer layer (attention + router + experts + norms).
    pub fn params_per_layer(&self) -> u64 {
        self.attention_params_per_layer()
            + self.expert_params_per_layer()
            + self.router_params_per_layer()
            + 2 * u64::from(self.d_model) // two RMSNorm gain vectors
    }

    /// Embedding + LM head parameters.
    pub fn embedding_params(&self) -> u64 {
        2 * u64::from(self.vocab_size) * u64::from(self.d_model)
    }

    /// Total parameter count of the model.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * u64::from(self.num_layers) + self.embedding_params()
    }

    // --- byte footprints --------------------------------------------------------

    /// Bytes of the attention weights of one layer.
    pub fn attention_weight_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(
            self.weight_dtype
                .bytes_for(self.attention_params_per_layer()),
        )
    }

    /// Bytes of all expert weights of one layer.
    pub fn expert_weight_bytes_per_layer(&self) -> ByteSize {
        ByteSize::from_bytes(self.weight_dtype.bytes_for(self.expert_params_per_layer()))
    }

    /// Bytes of all weights of one layer.
    pub fn layer_weight_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.weight_dtype.bytes_for(self.params_per_layer()))
    }

    /// Bytes of the whole model's weights (all layers + embeddings).
    pub fn total_weight_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.weight_dtype.bytes_for(self.total_params()))
    }

    /// KV-cache bytes for one token in one layer (keys and values of all KV heads).
    pub fn kv_bytes_per_token_per_layer(&self) -> ByteSize {
        let elems = 2 * u64::from(self.num_kv_heads) * u64::from(self.head_dim);
        ByteSize::from_bytes(self.kv_dtype.bytes_for(elems))
    }

    /// KV-cache bytes for one token across all layers.
    pub fn kv_bytes_per_token(&self) -> ByteSize {
        self.kv_bytes_per_token_per_layer() * u64::from(self.num_layers)
    }

    /// Bytes of the hidden-state activations for `tokens` tokens (one layer boundary).
    pub fn hidden_state_bytes(&self, tokens: u64) -> ByteSize {
        ByteSize::from_bytes(
            self.weight_dtype
                .bytes_for(tokens * u64::from(self.d_model)),
        )
    }

    /// Bytes of the Q, K and V projections for `tokens` tokens, i.e. the intermediate
    /// result CGOPipe offloads to the CPU after the QKV projection (transfer D1).
    pub fn qkv_bytes(&self, tokens: u64) -> ByteSize {
        let per_token = u64::from(self.num_q_heads) * u64::from(self.head_dim)
            + 2 * u64::from(self.num_kv_heads) * u64::from(self.head_dim);
        ByteSize::from_bytes(self.weight_dtype.bytes_for(tokens * per_token))
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_layers == 0 {
            return Err("model must have at least one layer".to_owned());
        }
        if self.num_kv_heads == 0 || self.num_q_heads == 0 {
            return Err("head counts must be positive".to_owned());
        }
        if !self.num_q_heads.is_multiple_of(self.num_kv_heads) {
            return Err(format!(
                "query heads ({}) must be a multiple of KV heads ({})",
                self.num_q_heads, self.num_kv_heads
            ));
        }
        if self.top_k == 0 || self.top_k > self.num_experts {
            return Err(format!(
                "top_k ({}) must be in 1..={}",
                self.top_k, self.num_experts
            ));
        }
        if self.d_model == 0 || self.d_ff == 0 {
            return Err("hidden dimensions must be positive".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            MoeModelConfig::mixtral_8x7b(),
            MoeModelConfig::mixtral_8x22b(),
            MoeModelConfig::dbrx(),
            MoeModelConfig::tiny(),
        ] {
            cfg.validate()
                .expect("preset must be internally consistent");
        }
    }

    #[test]
    fn mixtral_8x7b_total_params_close_to_published_46_7b() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let total = cfg.total_params() as f64 / 1e9;
        assert!((46.0..48.0).contains(&total), "got {total} B params");
    }

    #[test]
    fn mixtral_8x22b_total_params_close_to_published_141b() {
        let cfg = MoeModelConfig::mixtral_8x22b();
        let total = cfg.total_params() as f64 / 1e9;
        assert!((138.0..145.0).contains(&total), "got {total} B params");
    }

    #[test]
    fn dbrx_total_params_close_to_published_132b() {
        let cfg = MoeModelConfig::dbrx();
        let total = cfg.total_params() as f64 / 1e9;
        assert!((126.0..135.0).contains(&total), "got {total} B params");
    }

    #[test]
    fn mixtral_8x22b_expert_ffn_exceeds_256_gb_in_f32_equivalent() {
        // The paper's intro quotes >256 GB for the 8x22B expert FFN weights; with f16
        // that is ~270 GB of parameters at 2 bytes => check the parameter count.
        let cfg = MoeModelConfig::mixtral_8x22b();
        let expert_bytes = cfg.expert_weight_bytes_per_layer().as_gib() * f64::from(cfg.num_layers);
        assert!(expert_bytes > 250.0, "expert FFN only {expert_bytes} GiB");
    }

    #[test]
    fn kv_bytes_scale_with_dtype() {
        let f16 = MoeModelConfig::mixtral_8x7b();
        let int4 = f16.with_kv_dtype(DType::Int4);
        assert_eq!(
            f16.kv_bytes_per_token_per_layer().as_bytes(),
            4 * int4.kv_bytes_per_token_per_layer().as_bytes()
        );
    }

    #[test]
    fn kv_bytes_per_token_per_layer_matches_manual_computation() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        // 2 (K and V) * 8 kv heads * 128 dim * 2 bytes = 4096 bytes.
        assert_eq!(cfg.kv_bytes_per_token_per_layer().as_bytes(), 4096);
        assert_eq!(cfg.kv_bytes_per_token().as_bytes(), 4096 * 32);
    }

    #[test]
    fn layer_weight_bytes_dominated_by_experts() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let ratio = cfg.expert_weight_bytes_per_layer().as_bytes() as f64
            / cfg.layer_weight_bytes().as_bytes() as f64;
        assert!(
            ratio > 0.9,
            "experts should dominate layer weights, got {ratio}"
        );
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        let mut cfg = MoeModelConfig::tiny();
        cfg.top_k = 9;
        assert!(cfg.validate().is_err());
        let mut cfg = MoeModelConfig::tiny();
        cfg.num_q_heads = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = MoeModelConfig::tiny();
        cfg.num_layers = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MoeModelConfig::tiny();
        cfg.num_kv_heads = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MoeModelConfig::tiny();
        cfg.d_ff = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn hidden_and_qkv_bytes_scale_linearly_with_tokens() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        assert_eq!(
            cfg.hidden_state_bytes(10).as_bytes(),
            10 * cfg.hidden_state_bytes(1).as_bytes()
        );
        assert_eq!(cfg.qkv_bytes(8).as_bytes(), 8 * cfg.qkv_bytes(1).as_bytes());
        // QKV projection output is wider than the hidden state for Mixtral (32+16 heads).
        assert!(cfg.qkv_bytes(1) > cfg.hidden_state_bytes(1));
    }
}
