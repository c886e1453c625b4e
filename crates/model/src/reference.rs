//! Reference numeric implementation of a MoE transformer.
//!
//! This is the "ground truth" forward pass used by the functional offloading runtime
//! (`moe-runtime`) and by end-to-end tests: a small but complete Mixtral-style
//! decoder layer — RMSNorm, GQA attention with a growing KV cache, output
//! projection, router, top-k expert mixing with SwiGLU experts — implemented with
//! the `moe-tensor` kernels. It is intended to be run with [`MoeModelConfig::tiny`]
//! or similarly small configurations.

use crate::arch::MoeModelConfig;
use moe_tensor::attention::gqa_attention_decode;
use moe_tensor::ops::{matvec, rms_norm, silu, softmax_inplace, top_k};
use moe_tensor::{Tensor, TensorError};

/// The `(q, k, v)` projection vectors of one token.
pub type QkvVectors = (Vec<f32>, Vec<f32>, Vec<f32>);

/// Weights of a single SwiGLU expert FFN.
#[derive(Debug, Clone)]
pub struct ExpertWeights {
    /// Gate projection `[d_model, d_ff]`.
    pub w_gate: Tensor,
    /// Up projection `[d_model, d_ff]`.
    pub w_up: Tensor,
    /// Down projection `[d_ff, d_model]`.
    pub w_down: Tensor,
}

impl ExpertWeights {
    /// Randomly initializes one expert.
    pub fn random(cfg: &MoeModelConfig, seed: u64) -> Self {
        let d = cfg.d_model as usize;
        let f = cfg.d_ff as usize;
        let std = 0.4 / (d as f32).sqrt();
        ExpertWeights {
            w_gate: Tensor::randn(&[d, f], std, seed),
            w_up: Tensor::randn(&[d, f], std, seed.wrapping_add(1)),
            w_down: Tensor::randn(&[f, d], std, seed.wrapping_add(2)),
        }
    }

    /// SwiGLU forward for a single token vector `x` of length `d_model`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` has the wrong length.
    pub fn forward(&self, x: &[f32]) -> Result<Vec<f32>, TensorError> {
        let (d, f) = self.w_gate.as_2d()?;
        if x.len() != d {
            return Err(TensorError::ShapeMismatch {
                expected: vec![d],
                got: vec![x.len()],
                context: "ExpertWeights::forward",
            });
        }
        let mut gate = vec![0.0f32; f];
        let mut up = vec![0.0f32; f];
        // x[d] · W[d,f]: accumulate row-wise to stay cache friendly.
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let g_row = self.w_gate.row(i)?;
            let u_row = self.w_up.row(i)?;
            for j in 0..f {
                gate[j] += xi * g_row[j];
                up[j] += xi * u_row[j];
            }
        }
        let hidden: Vec<f32> = gate.iter().zip(&up).map(|(g, u)| silu(*g) * u).collect();
        let mut out = vec![0.0f32; d];
        for (j, &hj) in hidden.iter().enumerate() {
            if hj == 0.0 {
                continue;
            }
            let d_row = self.w_down.row(j)?;
            for i in 0..d {
                out[i] += hj * d_row[i];
            }
        }
        Ok(out)
    }
}

/// Weights of one MoE transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// RMSNorm gain before attention.
    pub attn_norm: Vec<f32>,
    /// Query projection `[d_model, n_q·head_dim]`.
    pub wq: Tensor,
    /// Key projection `[d_model, n_kv·head_dim]`.
    pub wk: Tensor,
    /// Value projection `[d_model, n_kv·head_dim]`.
    pub wv: Tensor,
    /// Output projection `[n_q·head_dim, d_model]`.
    pub wo: Tensor,
    /// RMSNorm gain before the MoE FFN.
    pub ffn_norm: Vec<f32>,
    /// Router weights `[d_model, num_experts]`.
    pub router: Tensor,
    /// Expert FFNs.
    pub experts: Vec<ExpertWeights>,
}

impl LayerWeights {
    /// Pre-attention phase (the GPU task `A` of CGOPipe): RMSNorm followed by the
    /// Q/K/V projections of one token's hidden state.
    ///
    /// Returns `(q, k, v)` with `q` of length `n_q·head_dim` and `k`/`v` of length
    /// `n_kv·head_dim`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn pre_attention(&self, hidden: &[f32]) -> Result<QkvVectors, TensorError> {
        let d = hidden.len();
        let x = Tensor::from_vec(&[1, d], hidden.to_vec())?;
        let x_norm = rms_norm(&x, &self.attn_norm, 1e-6)?;
        let x_row = x_norm.row(0)?;
        Ok((
            matvec(&transpose(&self.wq)?, x_row)?,
            matvec(&transpose(&self.wk)?, x_row)?,
            matvec(&transpose(&self.wv)?, x_row)?,
        ))
    }

    /// Post-attention phase (the GPU task `C` of CGOPipe): output projection,
    /// residual, FFN RMSNorm, top-k routing and the expert mixture, for one token.
    ///
    /// `hidden` is the layer input (pre-residual), `attn_out` the flattened GQA
    /// attention output (`n_q·head_dim`), `top_k` the number of experts to mix.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn post_attention(
        &self,
        hidden: &[f32],
        attn_out: &[f32],
        top_k: usize,
    ) -> Result<Vec<f32>, TensorError> {
        let d = hidden.len();
        let o = matvec(&transpose(&self.wo)?, attn_out)?;
        let after_attn: Vec<f32> = hidden.iter().zip(&o).map(|(h, o)| h + o).collect();

        let y = Tensor::from_vec(&[1, d], after_attn.clone())?;
        let y_norm = rms_norm(&y, &self.ffn_norm, 1e-6)?;
        let y_row = y_norm.row(0)?;
        let mut logits = matvec(&transpose(&self.router)?, y_row)?;
        softmax_inplace(&mut logits);
        let selected = top_k_experts(&logits, top_k)?;
        let mut ffn_out = vec![0.0f32; d];
        for (expert_idx, weight) in selected {
            let expert_out = self.experts[expert_idx].forward(y_row)?;
            for (acc, val) in ffn_out.iter_mut().zip(&expert_out) {
                *acc += weight * val;
            }
        }
        Ok(after_attn
            .iter()
            .zip(&ffn_out)
            .map(|(a, f)| a + f)
            .collect())
    }

    /// Attention phase (the CPU task `B` of CGOPipe): appends the new token's K/V to
    /// `cache` and attends over the whole cache.
    ///
    /// Returns the flattened attention output (`n_q·head_dim`).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn attention_with_cache(
        &self,
        cache: &mut LayerKvCache,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        num_q_heads: usize,
        head_dim: usize,
    ) -> Result<Vec<f32>, TensorError> {
        cache.append(k, v)?;
        let (k_t, v_t) = cache.as_tensors()?;
        let q_t = Tensor::from_vec(&[num_q_heads, head_dim], q.to_vec())?;
        Ok(gqa_attention_decode(&q_t, &k_t, &v_t)?.into_vec())
    }

    /// Randomly initializes one layer.
    pub fn random(cfg: &MoeModelConfig, seed: u64) -> Self {
        let d = cfg.d_model as usize;
        let qd = (cfg.num_q_heads * cfg.head_dim) as usize;
        let kvd = (cfg.num_kv_heads * cfg.head_dim) as usize;
        let std = 0.4 / (d as f32).sqrt();
        LayerWeights {
            attn_norm: vec![1.0; d],
            wq: Tensor::randn(&[d, qd], std, seed.wrapping_mul(31).wrapping_add(1)),
            wk: Tensor::randn(&[d, kvd], std, seed.wrapping_mul(31).wrapping_add(2)),
            wv: Tensor::randn(&[d, kvd], std, seed.wrapping_mul(31).wrapping_add(3)),
            wo: Tensor::randn(&[qd, d], std, seed.wrapping_mul(31).wrapping_add(4)),
            ffn_norm: vec![1.0; d],
            router: Tensor::randn(
                &[d, cfg.num_experts as usize],
                0.5,
                seed.wrapping_mul(31).wrapping_add(5),
            ),
            experts: (0..cfg.num_experts)
                .map(|e| {
                    ExpertWeights::random(
                        cfg,
                        seed.wrapping_mul(131).wrapping_add(u64::from(e) * 7),
                    )
                })
                .collect(),
        }
    }
}

/// Per-layer, per-sequence KV cache storing keys and values head-major.
#[derive(Debug, Clone, Default)]
pub struct LayerKvCache {
    num_kv_heads: usize,
    head_dim: usize,
    /// Keys laid out `[kv_head][token][dim]`, one `Vec` per head.
    k: Vec<Vec<f32>>,
    /// Values, same layout as `k`.
    v: Vec<Vec<f32>>,
    len: usize,
}

impl LayerKvCache {
    /// Creates an empty cache for the given head geometry.
    pub fn new(num_kv_heads: usize, head_dim: usize) -> Self {
        LayerKvCache {
            num_kv_heads,
            head_dim,
            k: vec![Vec::new(); num_kv_heads],
            v: vec![Vec::new(); num_kv_heads],
            len: 0,
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one token's keys and values (`k_new`/`v_new` are `[n_kv·head_dim]`,
    /// head-major).
    ///
    /// # Errors
    ///
    /// Returns an error if the vector lengths do not match the head geometry.
    pub fn append(&mut self, k_new: &[f32], v_new: &[f32]) -> Result<(), TensorError> {
        let expected = self.num_kv_heads * self.head_dim;
        if k_new.len() != expected || v_new.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected: vec![expected],
                got: vec![k_new.len(), v_new.len()],
                context: "LayerKvCache::append",
            });
        }
        for h in 0..self.num_kv_heads {
            let s = h * self.head_dim;
            self.k[h].extend_from_slice(&k_new[s..s + self.head_dim]);
            self.v[h].extend_from_slice(&v_new[s..s + self.head_dim]);
        }
        self.len += 1;
        Ok(())
    }

    /// Materializes the cache as `([n_kv, len, head_dim], [n_kv, len, head_dim])`
    /// tensors suitable for [`gqa_attention_decode`].
    ///
    /// # Errors
    ///
    /// Returns an error if the cache is empty.
    pub fn as_tensors(&self) -> Result<(Tensor, Tensor), TensorError> {
        if self.len == 0 {
            return Err(TensorError::InvalidArgument {
                message: "cannot materialize an empty KV cache".to_owned(),
            });
        }
        let mut k_data = Vec::with_capacity(self.num_kv_heads * self.len * self.head_dim);
        let mut v_data = Vec::with_capacity(k_data.capacity());
        for h in 0..self.num_kv_heads {
            k_data.extend_from_slice(&self.k[h]);
            v_data.extend_from_slice(&self.v[h]);
        }
        let shape = [self.num_kv_heads, self.len, self.head_dim];
        Ok((
            Tensor::from_vec(&shape, k_data)?,
            Tensor::from_vec(&shape, v_data)?,
        ))
    }
}

/// Per-sequence KV caches for all layers.
#[derive(Debug, Clone)]
pub struct SequenceCache {
    layers: Vec<LayerKvCache>,
}

impl SequenceCache {
    /// Creates empty caches for every layer of `cfg`.
    pub fn new(cfg: &MoeModelConfig) -> Self {
        SequenceCache {
            layers: (0..cfg.num_layers)
                .map(|_| LayerKvCache::new(cfg.num_kv_heads as usize, cfg.head_dim as usize))
                .collect(),
        }
    }

    /// Cache of layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer(&self, layer: usize) -> &LayerKvCache {
        &self.layers[layer]
    }

    /// Mutable cache of layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut LayerKvCache {
        &mut self.layers[layer]
    }

    /// Number of tokens cached (taken from layer 0; all layers stay in sync).
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }
}

/// Result of routing one token: the selected experts and their normalized weights.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingDecision {
    /// `(expert index, gate weight)` pairs, weights summing to 1.
    pub experts: Vec<(usize, f32)>,
}

/// A complete tiny MoE model: token embedding, decoder layers and LM head
/// (weight-tied to the embedding).
#[derive(Debug, Clone)]
pub struct ReferenceMoeModel {
    cfg: MoeModelConfig,
    /// Token embedding `[vocab, d_model]`.
    pub embedding: Tensor,
    /// Decoder layers.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
}

impl ReferenceMoeModel {
    /// Randomly initializes a model for `cfg` with a deterministic `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error string if the configuration is internally inconsistent.
    pub fn random(cfg: &MoeModelConfig, seed: u64) -> Result<Self, String> {
        cfg.validate()?;
        let d = cfg.d_model as usize;
        Ok(ReferenceMoeModel {
            cfg: cfg.clone(),
            embedding: Tensor::randn(&[cfg.vocab_size as usize, d], 0.05, seed),
            layers: (0..cfg.num_layers)
                .map(|l| LayerWeights::random(cfg, seed.wrapping_add(1000 + u64::from(l))))
                .collect(),
            final_norm: vec![1.0; d],
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &MoeModelConfig {
        &self.cfg
    }

    /// Routes a (normalized) hidden vector through the router of `layer`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn route(&self, layer: &LayerWeights, x: &[f32]) -> Result<RoutingDecision, TensorError> {
        let mut logits = matvec(&transpose(&layer.router)?, x)?;
        softmax_inplace(&mut logits);
        Ok(RoutingDecision {
            experts: top_k_experts(&logits, self.cfg.top_k as usize)?,
        })
    }

    /// Runs one decoder layer for a single token of a single sequence, appending to
    /// the sequence's KV cache.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_layer_decode(
        &self,
        layer_idx: usize,
        hidden: &[f32],
        cache: &mut SequenceCache,
    ) -> Result<Vec<f32>, TensorError> {
        let layer = &self.layers[layer_idx];
        let nq = self.cfg.num_q_heads as usize;
        let hd = self.cfg.head_dim as usize;

        // The three CGOPipe phases in sequence: pre-attention (GPU), attention over
        // the KV cache (CPU), post-attention (GPU).
        let (q, k, v) = layer.pre_attention(hidden)?;
        let attn = layer.attention_with_cache(cache.layer_mut(layer_idx), &q, &k, &v, nq, hd)?;
        layer.post_attention(hidden, &attn, self.cfg.top_k as usize)
    }

    /// Embeds a token id.
    ///
    /// # Errors
    ///
    /// Returns an error if the token id is out of the vocabulary range.
    pub fn embed(&self, token: u32) -> Result<Vec<f32>, TensorError> {
        if token >= self.cfg.vocab_size {
            return Err(TensorError::IndexOutOfBounds {
                index: token as usize,
                len: self.cfg.vocab_size as usize,
            });
        }
        Ok(self.embedding.row(token as usize)?.to_vec())
    }

    /// Full forward pass for one token of one sequence; returns the logits over the
    /// vocabulary.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn forward_token(
        &self,
        token: u32,
        cache: &mut SequenceCache,
    ) -> Result<Vec<f32>, TensorError> {
        let mut hidden = self.embed(token)?;
        for layer_idx in 0..self.layers.len() {
            hidden = self.forward_layer_decode(layer_idx, &hidden, cache)?;
        }
        self.lm_head(&hidden)
    }

    /// Logits for the last layer's hidden state: the final RMSNorm, then the
    /// weight-tied LM head (`logits = embedding · h`).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn lm_head(&self, hidden: &[f32]) -> Result<Vec<f32>, TensorError> {
        let h = Tensor::from_vec(&[1, hidden.len()], hidden.to_vec())?;
        let h_norm = rms_norm(&h, &self.final_norm, 1e-6)?;
        matvec(&self.embedding, h_norm.row(0)?)
    }

    /// Greedy generation: prefills `prompt` token by token and then generates
    /// `gen_len` tokens, returning the generated ids.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors; returns an error if the prompt is empty.
    pub fn generate_greedy(&self, prompt: &[u32], gen_len: usize) -> Result<Vec<u32>, TensorError> {
        if prompt.is_empty() {
            return Err(TensorError::InvalidArgument {
                message: "prompt must contain at least one token".to_owned(),
            });
        }
        let mut cache = SequenceCache::new(&self.cfg);
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.forward_token(t, &mut cache)?;
        }
        let mut output = Vec::with_capacity(gen_len);
        for _ in 0..gen_len {
            let next = argmax(&logits);
            output.push(next);
            logits = self.forward_token(next, &mut cache)?;
        }
        Ok(output)
    }
}

/// Selects the top-`k` experts from (already softmaxed) router scores and normalizes
/// their weights to sum to one.
///
/// # Errors
///
/// Propagates [`moe_tensor::ops::top_k`] argument errors.
pub fn top_k_experts(scores: &[f32], k: usize) -> Result<Vec<(usize, f32)>, TensorError> {
    let selected = top_k(scores, k)?;
    let total: f32 = selected.iter().map(|(_, w)| *w).sum();
    Ok(selected
        .into_iter()
        .map(|(i, w)| {
            (
                i,
                if total > 0.0 {
                    w / total
                } else {
                    1.0 / k as f32
                },
            )
        })
        .collect())
}

/// Index of the maximum element (ties broken towards the lower index).
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best as u32
}

/// Transposes a 2-D tensor (helper for using `[in, out]`-layout weights with
/// `matvec`, which expects `[out, in]`).
fn transpose(t: &Tensor) -> Result<Tensor, TensorError> {
    let (rows, cols) = t.as_2d()?;
    let mut out = Tensor::zeros(&[cols, rows]);
    let src = t.data();
    let dst = out.data_mut();
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ReferenceMoeModel {
        ReferenceMoeModel::random(&MoeModelConfig::tiny(), 42).expect("tiny config is valid")
    }

    #[test]
    fn model_construction_respects_config() {
        let m = tiny_model();
        assert_eq!(m.layers.len(), 4);
        assert_eq!(m.layers[0].experts.len(), 4);
        assert_eq!(m.embedding.shape(), &[256, 32]);
    }

    #[test]
    fn construction_rejects_invalid_config() {
        let mut cfg = MoeModelConfig::tiny();
        cfg.top_k = 99;
        assert!(ReferenceMoeModel::random(&cfg, 0).is_err());
    }

    #[test]
    fn routing_weights_sum_to_one_and_select_top_k() {
        let m = tiny_model();
        let x = vec![0.3f32; 32];
        let routing = m.route(&m.layers[0], &x).unwrap();
        assert_eq!(routing.experts.len(), 2);
        let total: f32 = routing.experts.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert_ne!(routing.experts[0].0, routing.experts[1].0);
    }

    #[test]
    fn kv_cache_grows_by_one_per_decoded_token() {
        let m = tiny_model();
        let mut cache = SequenceCache::new(m.config());
        m.forward_token(5, &mut cache).unwrap();
        assert_eq!(cache.seq_len(), 1);
        m.forward_token(7, &mut cache).unwrap();
        assert_eq!(cache.seq_len(), 2);
        for l in 0..4 {
            assert_eq!(cache.layer(l).len(), 2, "all layers stay in sync");
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_model();
        let mut c1 = SequenceCache::new(m.config());
        let mut c2 = SequenceCache::new(m.config());
        let l1 = m.forward_token(9, &mut c1).unwrap();
        let l2 = m.forward_token(9, &mut c2).unwrap();
        assert_eq!(l1, l2);
    }

    #[test]
    fn logits_depend_on_context() {
        let m = tiny_model();
        let mut with_ctx = SequenceCache::new(m.config());
        m.forward_token(3, &mut with_ctx).unwrap();
        let logits_ctx = m.forward_token(9, &mut with_ctx).unwrap();

        let mut fresh = SequenceCache::new(m.config());
        let logits_fresh = m.forward_token(9, &mut fresh).unwrap();

        let diff: f32 = logits_ctx
            .iter()
            .zip(&logits_fresh)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff > 1e-6, "attention must make logits context-dependent");
    }

    #[test]
    fn generate_produces_requested_number_of_tokens_in_vocab() {
        let m = tiny_model();
        let out = m.generate_greedy(&[1, 2, 3], 8).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&t| t < m.config().vocab_size));
        // Determinism of greedy decoding.
        let out2 = m.generate_greedy(&[1, 2, 3], 8).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn generate_rejects_empty_prompt() {
        assert!(tiny_model().generate_greedy(&[], 4).is_err());
    }

    #[test]
    fn embed_rejects_out_of_vocab_token() {
        let m = tiny_model();
        assert!(m.embed(9999).is_err());
    }

    #[test]
    fn expert_forward_validates_input_length() {
        let m = tiny_model();
        assert!(m.layers[0].experts[0].forward(&[0.0; 3]).is_err());
        assert_eq!(
            m.layers[0].experts[0].forward(&[0.1; 32]).unwrap().len(),
            32
        );
    }

    #[test]
    fn layer_kv_cache_validates_append_length() {
        let mut cache = LayerKvCache::new(2, 4);
        assert!(cache.append(&[0.0; 8], &[0.0; 8]).is_ok());
        assert!(cache.append(&[0.0; 7], &[0.0; 8]).is_err());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        let (k, v) = cache.as_tensors().unwrap();
        assert_eq!(k.shape(), &[2, 1, 4]);
        assert_eq!(v.shape(), &[2, 1, 4]);
    }

    #[test]
    fn empty_kv_cache_cannot_be_materialized() {
        let cache = LayerKvCache::new(2, 4);
        assert!(cache.as_tensors().is_err());
    }

    #[test]
    fn argmax_breaks_ties_towards_lower_index() {
        assert_eq!(argmax(&[0.5, 1.0, 1.0]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
