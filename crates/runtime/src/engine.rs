//! A functional, pipelined offloading engine for the tiny reference MoE model.
//!
//! This is the executable counterpart of CGOPipe. [`PipelinedMoeEngine::generate`]
//! builds one decode step's task graph with [`DecodeScheduleBuilder`] — the graph the
//! simulator times, with one weight page per micro-batch and pre-attention launched
//! two micro-batches ahead — and plays it on the [`OffloadExecutor`] once per decode
//! pass. Each task runs the kernel for its [`TaskKind`] on its (layer, micro-batch):
//! real (small) tensors flow through GPU pre-attention, QKV offload, CPU attention
//! over the KV cache, hidden-state upload and GPU post-attention, while weight pages
//! stream into a ring of GPU buffer slots. The ring has three slots once there are two
//! micro-batches, because the graph starts a layer's pages before the layer two back
//! has finished. Each micro-batch owns its state, so the CPU and GPU lanes overlap.
//! The output is checked against the sequential [`ReferenceMoeModel`] forward pass,
//! which validates the graph's dependency structure (no stale hidden states, no
//! missing weights, no KV-cache races).

use crate::executor::OffloadExecutor;
use moe_hardware::{ByteSize, NodeSpec};
use moe_memory::{
    MemoryError, MemoryPool, PageLocation, PageTransfer, PagedKvCache, PagedWeightStore,
    SequenceId, WeightLayout,
};
use moe_model::reference::{argmax, QkvVectors, ReferenceMoeModel, SequenceCache};
use moe_policy::{CostModel, Policy, WorkloadShape};
use moe_schedule::{cgopipe_weight_buffers, DecodeScheduleBuilder, ScheduleKind};
use moe_sim::{Task, TaskKind};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Errors produced by the pipelined engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The configuration or inputs were invalid.
    InvalidInput {
        /// Explanation of the violated requirement.
        message: String,
    },
    /// The memory substrate rejected an allocation or protocol step.
    Memory {
        /// The underlying memory error, formatted.
        message: String,
    },
    /// One or more pipeline tasks failed.
    TaskFailed {
        /// Collected task error messages.
        messages: Vec<String>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            RuntimeError::Memory { message } => write!(f, "memory error: {message}"),
            RuntimeError::TaskFailed { messages } => {
                write!(
                    f,
                    "{} pipeline task(s) failed: {}",
                    messages.len(),
                    messages.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<MemoryError> for RuntimeError {
    fn from(e: MemoryError) -> Self {
        RuntimeError::Memory {
            message: e.to_string(),
        }
    }
}

/// Configuration of the pipelined engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of sequences processed per micro-batch.
    pub micro_batch_size: usize,
    /// Fraction of weights held statically in the simulated GPU pool.
    pub weights_gpu_ratio: f64,
    /// Simulated GPU memory capacity.
    pub gpu_memory: ByteSize,
    /// Simulated host memory capacity.
    pub cpu_memory: ByteSize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            micro_batch_size: 2,
            weights_gpu_ratio: 0.0,
            gpu_memory: ByteSize::from_mib(64.0),
            cpu_memory: ByteSize::from_mib(512.0),
        }
    }
}

/// Result of a pipelined generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationOutput {
    /// Generated token ids, one vector per input sequence.
    pub tokens: Vec<Vec<u32>>,
    /// Bytes moved host→device (weight pages + hidden states).
    pub h2d_bytes: ByteSize,
    /// Bytes moved device→host (QKV offloads).
    pub d2h_bytes: ByteSize,
    /// Pipeline jobs executed: the decode-step graph's task count times the
    /// decode passes.
    pub jobs_executed: u64,
    /// Peak simulated GPU pool usage.
    pub gpu_peak: ByteSize,
}

/// The pipelined offloading engine.
#[derive(Debug)]
pub struct PipelinedMoeEngine {
    model: Arc<ReferenceMoeModel>,
    config: EngineConfig,
}

/// What one micro-batch owns: its sequences' KV caches for the whole run and the
/// activations of the decode pass in flight. The graph orders every task of a
/// micro-batch after the previous one, so its lock is never contended.
#[derive(Default)]
struct MicroBatch {
    caches: Vec<SequenceCache>,
    hidden: Vec<Vec<f32>>,
    qkv: Vec<QkvVectors>,
    attn: Vec<Vec<f32>>,
    logits: Vec<Vec<f32>>,
}

/// The weight store plus the planned, not yet completed page hops of the layer
/// being streamed; each of its page tasks completes one page.
struct Weights {
    store: PagedWeightStore,
    pending: Vec<PageTransfer>,
}

impl Weights {
    /// Completes the hops of `layer`'s page `page` (every page when `None`), first
    /// planning the layer's prefetch into its buffer slot if this is its first page.
    /// Returns the bytes that reached the GPU.
    fn stream(&mut self, layer: usize, page: Option<usize>) -> Result<u64, MemoryError> {
        if page.unwrap_or(0) == 0 {
            self.pending = self.store.plan_layer_prefetch(layer)?;
        }
        let page = page.map(|j| self.store.page_table().layer_pages(layer)[j]);
        let mut bytes = 0;
        for hop in self
            .pending
            .extract_if(.., |hop| page.is_none_or(|p| hop.page == p))
        {
            self.store.complete_transfer(&hop)?;
            if hop.to == PageLocation::GpuHbm {
                bytes += hop.bytes.as_bytes();
            }
        }
        Ok(bytes)
    }
}

/// Locks state the kernels share. A kernel that panics under the lock has
/// already failed the pass: [`OffloadExecutor::wait_all`] reports its panic.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().expect("kernel state lock poisoned")
}

/// The state the kernels of one generation run share.
struct Kernels {
    model: Arc<ReferenceMoeModel>,
    weights: Mutex<Weights>,
    /// Whether layers stream any bytes (with none, no layer takes a buffer slot).
    streamed: bool,
    micro_batches: Vec<Mutex<MicroBatch>>,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Kernels {
    /// Runs `task`'s kernel, recording a failure under the task's label.
    fn run(&self, task: &Task) {
        if let Err(e) = self.kernel(task) {
            lock(&self.errors).push(format!("{}: {e}", task.label));
        }
    }

    fn kernel(&self, task: &Task) -> Result<(), Box<dyn Error>> {
        let (layer, index) = match *task.label.indices() {
            [layer] => (layer as usize, None),
            [layer, j] => (layer as usize, Some(j as usize)),
            _ => return Err("the task label carries no layer".into()),
        };
        if task.kind == TaskKind::WeightTransfer {
            // `W(l)` streams a whole layer, `Wp(l,j)` its page `j`.
            let bytes = lock(&self.weights).stream(layer, index)?;
            self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
            return Ok(());
        }
        let j = index.ok_or("the task label carries no micro-batch")?;
        let cfg = self.model.config();
        let weights = &self.model.layers[layer];
        let mb = &mut *lock(&self.micro_batches[j]);
        let seqs = mb.hidden.len() as u64;
        match task.kind {
            TaskKind::PreAttention => {
                self.check_resident(layer)?;
                mb.qkv = mb
                    .hidden
                    .iter()
                    .map(|h| weights.pre_attention(h))
                    .collect::<Result<_, _>>()?;
            }
            TaskKind::QkvOffload => {
                let bytes = cfg.qkv_bytes(seqs).as_bytes();
                self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            TaskKind::Attention => {
                let (heads, head_dim) = (cfg.num_q_heads as usize, cfg.head_dim as usize);
                mb.attn = mb
                    .caches
                    .iter_mut()
                    .zip(&mb.qkv)
                    .map(|(cache, (q, k, v))| {
                        let kv = cache.layer_mut(layer);
                        weights.attention_with_cache(kv, q, k, v, heads, head_dim)
                    })
                    .collect::<Result<_, _>>()?;
            }
            TaskKind::HiddenTransfer => {
                let bytes = cfg.hidden_state_bytes(seqs).as_bytes();
                self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            TaskKind::PostAttention => {
                self.check_resident(layer)?;
                mb.hidden = mb
                    .hidden
                    .iter()
                    .zip(&mb.attn)
                    .map(|(h, attn)| weights.post_attention(h, attn, cfg.top_k as usize))
                    .collect::<Result<_, _>>()?;
                if layer + 1 == self.model.layers.len() {
                    mb.logits = mb
                        .hidden
                        .iter()
                        .map(|h| self.model.lm_head(h))
                        .collect::<Result<_, _>>()?;
                }
                // The layer's last post-attention frees its buffer slot.
                if self.streamed && j + 1 == self.micro_batches.len() {
                    lock(&self.weights).store.release_layer(layer)?;
                }
            }
            kind => return Err(format!("no kernel for {kind} tasks").into()),
        }
        Ok(())
    }

    /// Fails unless every streamed page of `layer` is resident on the GPU.
    fn check_resident(&self, layer: usize) -> Result<(), String> {
        if lock(&self.weights).store.layer_ready(layer) {
            Ok(())
        } else {
            Err(format!(
                "layer {layer}'s weights are not resident on the GPU"
            ))
        }
    }
}

impl PipelinedMoeEngine {
    /// Creates an engine around a reference model.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidInput`] for nonsensical configurations.
    pub fn new(model: ReferenceMoeModel, config: EngineConfig) -> Result<Self, RuntimeError> {
        if config.micro_batch_size == 0 {
            return Err(RuntimeError::InvalidInput {
                message: "micro_batch_size must be at least 1".to_owned(),
            });
        }
        if !(0.0..=1.0).contains(&config.weights_gpu_ratio) {
            return Err(RuntimeError::InvalidInput {
                message: format!(
                    "weights_gpu_ratio must be in [0,1], got {}",
                    config.weights_gpu_ratio
                ),
            });
        }
        Ok(PipelinedMoeEngine {
            model: Arc::new(model),
            config,
        })
    }

    /// Generates `gen_len` tokens greedily for every prompt, running each decode
    /// pass as one play of the CGOPipe decode-step graph.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/invalid prompts, memory protocol violations, or
    /// failed (or panicked) pipeline tasks.
    pub fn generate(
        &self,
        prompts: &[Vec<u32>],
        gen_len: usize,
    ) -> Result<GenerationOutput, RuntimeError> {
        if prompts.is_empty() {
            return Err(RuntimeError::InvalidInput {
                message: "need at least one prompt".to_owned(),
            });
        }
        if prompts.iter().any(Vec::is_empty) {
            return Err(RuntimeError::InvalidInput {
                message: "prompts must be non-empty".to_owned(),
            });
        }
        let cfg = self.model.config().clone();
        if prompts.iter().flatten().any(|&t| t >= cfg.vocab_size) {
            return Err(RuntimeError::InvalidInput {
                message: format!(
                    "prompt token out of vocabulary (vocab size {})",
                    cfg.vocab_size
                ),
            });
        }

        // --- the decode-step graph: CGOPipe over this batch's micro-batches ----------
        // The T4 prices its tasks, but jobs take as long as their kernels.
        let num_seqs = prompts.len();
        let mu = self.config.micro_batch_size;
        let chunk_sizes: Vec<u64> = prompts.chunks(mu).map(|c| c.len() as u64).collect();
        let n_ub = chunk_sizes.len();
        let cost = CostModel::new(NodeSpec::t4_single(), cfg.clone());
        let policy = Policy {
            weights_gpu_ratio: self.config.weights_gpu_ratio,
            ..Policy::offload_default(num_seqs as u64, mu as u64)
        };
        let max_prompt = prompts.iter().map(Vec::len).max().unwrap_or(1) as u64;
        let graph = DecodeScheduleBuilder::new(
            &cost,
            policy,
            WorkloadShape::new(max_prompt, gen_len as u64),
        )
        .with_layers(cfg.num_layers)
        .with_micro_batch_tokens(&chunk_sizes)
        .build(ScheduleKind::CgoPipe)
        .map_err(|e| RuntimeError::TaskFailed {
            messages: vec![e.to_string()],
        })?;

        // --- memory substrate: one weight page per micro-batch, as in the graph ------
        let gpu_pool = MemoryPool::new("sim-gpu", self.config.gpu_memory);
        let cpu_pool = MemoryPool::new("sim-cpu", self.config.cpu_memory);
        let pinned_pool = MemoryPool::new("sim-pinned", self.config.cpu_memory);
        let layout = WeightLayout {
            num_layers: cfg.num_layers as usize,
            layer_bytes: cfg.layer_weight_bytes(),
            gpu_static_fraction: self.config.weights_gpu_ratio,
            pages_per_layer: n_ub,
            buffer_slots: cgopipe_weight_buffers(n_ub),
        };
        let store = PagedWeightStore::new(layout, gpu_pool.clone(), cpu_pool.clone(), pinned_pool)?;
        let streamed = !store.layout().streamed_bytes_per_layer().is_zero();
        let mut kv_accounting = PagedKvCache::new(cpu_pool, 16, cfg.kv_bytes_per_token());

        // --- prefill (sequential, as in the paper prefill is not pipelined further) --
        let mut caches = Vec::with_capacity(num_seqs);
        let mut last_logits: Vec<Vec<f32>> = Vec::with_capacity(num_seqs);
        for (s, prompt) in prompts.iter().enumerate() {
            let mut cache = SequenceCache::new(&cfg);
            let mut logits = Vec::new();
            for &token in prompt {
                logits = self.model.forward_token(token, &mut cache).map_err(|e| {
                    RuntimeError::TaskFailed {
                        messages: vec![e.to_string()],
                    }
                })?;
            }
            kv_accounting.add_sequence(SequenceId(s as u64), prompt.len() as u64)?;
            caches.push(cache);
            last_logits.push(logits);
        }
        let mut caches = caches.into_iter();
        let micro_batches = chunk_sizes
            .iter()
            .map(|&n| {
                Mutex::new(MicroBatch {
                    caches: caches.by_ref().take(n as usize).collect(),
                    ..MicroBatch::default()
                })
            })
            .collect();

        // --- pipelined decode: one play of the graph per pass -----------------------
        let kernels = Arc::new(Kernels {
            model: Arc::clone(&self.model),
            weights: Mutex::new(Weights {
                store,
                pending: Vec::new(),
            }),
            streamed,
            micro_batches,
            h2d_bytes: AtomicU64::new(0),
            d2h_bytes: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
        });
        let run = {
            let kernels = Arc::clone(&kernels);
            Arc::new(move |task: &Task| kernels.run(task))
        };
        let executor = OffloadExecutor::new();
        let mut outputs: Vec<Vec<u32>> = vec![Vec::with_capacity(gen_len); num_seqs];
        for step in 0..gen_len {
            // Greedy next token from the previous logits.
            let next_tokens: Vec<u32> = last_logits.iter().map(|l| argmax(l)).collect();
            for (s, &t) in next_tokens.iter().enumerate() {
                outputs[s].push(t);
                kv_accounting.append_token(SequenceId(s as u64))?;
            }
            if step + 1 == gen_len {
                break; // no need to run another forward pass for logits we discard
            }

            let mut next = next_tokens.iter();
            for mb in &kernels.micro_batches {
                let mb = &mut *lock(mb);
                mb.hidden = next
                    .by_ref()
                    .take(mb.caches.len())
                    .map(|&t| self.model.embed(t).expect("token validated against vocab"))
                    .collect();
            }
            executor.play(&graph, &run);
            let panics = executor.wait_all().err().unwrap_or_default();
            let mut failures = std::mem::take(&mut *lock(&kernels.errors));
            failures.extend(panics);
            if !failures.is_empty() {
                return Err(RuntimeError::TaskFailed { messages: failures });
            }
            last_logits = kernels
                .micro_batches
                .iter()
                .flat_map(|mb| std::mem::take(&mut lock(mb).logits))
                .collect();
        }

        Ok(GenerationOutput {
            tokens: outputs,
            h2d_bytes: ByteSize::from_bytes(kernels.h2d_bytes.load(Ordering::SeqCst)),
            d2h_bytes: ByteSize::from_bytes(kernels.d2h_bytes.load(Ordering::SeqCst)),
            jobs_executed: executor.submitted(),
            gpu_peak: gpu_pool.peak(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::MoeModelConfig;

    fn tiny_engine(config: EngineConfig) -> PipelinedMoeEngine {
        let model =
            ReferenceMoeModel::random(&MoeModelConfig::tiny(), 7).expect("tiny config valid");
        PipelinedMoeEngine::new(model, config).expect("valid config")
    }

    fn reference_tokens(prompt: &[u32], gen_len: usize) -> Vec<u32> {
        let model =
            ReferenceMoeModel::random(&MoeModelConfig::tiny(), 7).expect("tiny config valid");
        model
            .generate_greedy(prompt, gen_len)
            .expect("reference generation")
    }

    #[test]
    fn pipelined_generation_matches_sequential_reference() {
        let engine = tiny_engine(EngineConfig::default());
        let prompts = vec![vec![1u32, 2, 3], vec![9, 8], vec![42, 17, 5, 11]];
        let out = engine.generate(&prompts, 6).unwrap();
        assert_eq!(out.tokens.len(), 3);
        for (prompt, generated) in prompts.iter().zip(&out.tokens) {
            assert_eq!(
                generated,
                &reference_tokens(prompt, 6),
                "pipeline must match the reference"
            );
        }
    }

    #[test]
    fn pipeline_moves_weight_and_activation_bytes() {
        let engine = tiny_engine(EngineConfig::default());
        let out = engine.generate(&[vec![3, 1, 4]], 4).unwrap();
        let cfg = MoeModelConfig::tiny();
        // Three pipelined decode passes (the last token needs no further pass), each
        // streaming all four layers' weights.
        let expected_weight_bytes = cfg.layer_weight_bytes().as_bytes() * 4 * 3;
        assert!(
            out.h2d_bytes.as_bytes() >= expected_weight_bytes,
            "h2d bytes {} must include weight streaming {}",
            out.h2d_bytes,
            expected_weight_bytes
        );
        assert!(out.d2h_bytes > ByteSize::ZERO);
        assert!(out.jobs_executed > 0);
        assert!(out.gpu_peak > ByteSize::ZERO);
    }

    #[test]
    fn every_decode_pass_plays_the_cgopipe_graph_once() {
        // Per pass, the tiny model's 4-layer CGOPipe graph holds 5 tasks per
        // (layer, micro-batch), plus with streamed weights the prologue W(0) and
        // one page per micro-batch for layers 1-3.
        let prompts: Vec<Vec<u32>> = (0..5).map(|s| vec![s + 1, 2]).collect();
        for micro_batch_size in 1..=3 {
            let n_ub = 5u64.div_ceil(micro_batch_size as u64);
            for (weights_gpu_ratio, per_pass) in [(0.0, 1 + 23 * n_ub), (1.0, 20 * n_ub)] {
                let out = tiny_engine(EngineConfig {
                    micro_batch_size,
                    weights_gpu_ratio,
                    ..EngineConfig::default()
                })
                .generate(&prompts, 4)
                .unwrap();
                assert_eq!(
                    out.jobs_executed,
                    3 * per_pass,
                    "n_ub {n_ub}, r_w {weights_gpu_ratio}"
                );
            }
        }
    }

    #[test]
    fn weight_ring_has_three_slots_once_there_are_two_micro_batches() {
        let layer = MoeModelConfig::tiny().layer_weight_bytes();
        for (prompts, slots) in [(2u32, 2u64), (3, 3), (6, 3)] {
            let prompts: Vec<Vec<u32>> = (0..prompts).map(|s| vec![s + 1]).collect();
            let out = tiny_engine(EngineConfig::default())
                .generate(&prompts, 3)
                .unwrap();
            assert_eq!(out.gpu_peak, layer * slots, "{} prompts", prompts.len());
        }
    }

    #[test]
    fn different_micro_batch_sizes_give_identical_results() {
        let prompts = vec![
            vec![5u32, 6],
            vec![7, 8],
            vec![9, 10],
            vec![11, 12],
            vec![13],
        ];
        let out1 = tiny_engine(EngineConfig {
            micro_batch_size: 1,
            ..EngineConfig::default()
        })
        .generate(&prompts, 5)
        .unwrap();
        let out5 = tiny_engine(EngineConfig {
            micro_batch_size: 5,
            ..EngineConfig::default()
        })
        .generate(&prompts, 5)
        .unwrap();
        assert_eq!(
            out1.tokens, out5.tokens,
            "micro-batching must not change results"
        );
    }

    #[test]
    fn static_weight_fraction_reduces_streamed_bytes() {
        let prompts = vec![vec![1u32, 2, 3]];
        let streamed = tiny_engine(EngineConfig::default())
            .generate(&prompts, 4)
            .unwrap();
        let half_static = tiny_engine(EngineConfig {
            weights_gpu_ratio: 0.5,
            ..EngineConfig::default()
        })
        .generate(&prompts, 4)
        .unwrap();
        assert!(half_static.h2d_bytes < streamed.h2d_bytes);
        assert_eq!(half_static.tokens, streamed.tokens);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let engine = tiny_engine(EngineConfig::default());
        assert!(matches!(
            engine.generate(&[], 4),
            Err(RuntimeError::InvalidInput { .. })
        ));
        assert!(matches!(
            engine.generate(&[vec![]], 4),
            Err(RuntimeError::InvalidInput { .. })
        ));
        assert!(matches!(
            engine.generate(&[vec![9999]], 4),
            Err(RuntimeError::InvalidInput { .. })
        ));
        let model = ReferenceMoeModel::random(&MoeModelConfig::tiny(), 7).unwrap();
        assert!(PipelinedMoeEngine::new(
            model.clone(),
            EngineConfig {
                micro_batch_size: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
        assert!(PipelinedMoeEngine::new(
            model,
            EngineConfig {
                weights_gpu_ratio: 1.5,
                ..EngineConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn engine_fails_cleanly_when_gpu_pool_too_small() {
        let model = ReferenceMoeModel::random(&MoeModelConfig::tiny(), 7).unwrap();
        let engine = PipelinedMoeEngine::new(
            model,
            EngineConfig {
                gpu_memory: ByteSize::from_bytes(1),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            engine.generate(&[vec![1, 2]], 2),
            Err(RuntimeError::Memory { .. })
        ));
    }

    #[test]
    fn zero_generation_length_produces_empty_outputs() {
        let engine = tiny_engine(EngineConfig::default());
        let out = engine.generate(&[vec![1, 2, 3]], 0).unwrap();
        assert_eq!(out.tokens, vec![Vec::<u32>::new()]);
    }
}
