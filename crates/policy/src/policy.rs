//! The offloading policy: the 6-tuple `(N, μ, A_g, F_g, r_w, r_c)` of §4.2.

use std::fmt;

/// Where a computation is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Executed on the GPU.
    Gpu,
    /// Executed on the CPU.
    Cpu,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Gpu => f.write_str("GPU"),
            Placement::Cpu => f.write_str("CPU"),
        }
    }
}

/// The workload shape the policy is optimized for (`W` in Tab. 1): average prompt
/// length `s` and generation length `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadShape {
    /// Average prompt length in tokens.
    pub prompt_len: u64,
    /// Number of generated tokens per request.
    pub gen_len: u64,
}

impl WorkloadShape {
    /// Creates a workload shape.
    pub fn new(prompt_len: u64, gen_len: u64) -> Self {
        WorkloadShape {
            prompt_len,
            gen_len,
        }
    }

    /// Maximum context length reached during decoding.
    pub fn max_context(&self) -> u64 {
        self.prompt_len + self.gen_len
    }

    /// Average context length over the decode phase (used for average-cost
    /// estimates).
    pub fn avg_decode_context(&self) -> u64 {
        self.prompt_len + self.gen_len / 2
    }
}

/// An offloading policy (`P` in Tab. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Batch size `N`: total tokens processed by one pass of the whole model
    /// (one sequence contributes one token per decode pass).
    pub batch_size: u64,
    /// Micro-batch size `μ`: tokens processed by a single kernel execution on GPU.
    pub micro_batch_size: u64,
    /// `A_g`: whether attention (the softmax part over the KV cache) runs on GPU.
    pub attention_on_gpu: bool,
    /// `F_g`: whether the MoE FFN runs on GPU.
    pub ffn_on_gpu: bool,
    /// `r_w`: fraction of weights stored statically on GPU.
    pub weights_gpu_ratio: f64,
    /// `r_c`: fraction of the KV cache stored on GPU.
    pub kv_gpu_ratio: f64,
}

impl Policy {
    /// A conservative default: everything streamed/offloaded, attention on CPU,
    /// FFN on GPU — the shape the paper reports as optimal for its main settings.
    pub fn offload_default(batch_size: u64, micro_batch_size: u64) -> Self {
        Policy {
            batch_size,
            micro_batch_size,
            attention_on_gpu: false,
            ffn_on_gpu: true,
            weights_gpu_ratio: 0.0,
            kv_gpu_ratio: 0.0,
        }
    }

    /// Number of micro-batches per batch (`N / μ`, rounded up).
    pub fn num_micro_batches(&self) -> u64 {
        self.batch_size.div_ceil(self.micro_batch_size.max(1))
    }

    /// Placement of the attention computation.
    pub fn attention_placement(&self) -> Placement {
        if self.attention_on_gpu {
            Placement::Gpu
        } else {
            Placement::Cpu
        }
    }

    /// Placement of the MoE FFN computation.
    pub fn ffn_placement(&self) -> Placement {
        if self.ffn_on_gpu {
            Placement::Gpu
        } else {
            Placement::Cpu
        }
    }

    /// Validates structural invariants of the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch size must be positive".to_owned());
        }
        if self.micro_batch_size == 0 {
            return Err("micro-batch size must be positive".to_owned());
        }
        if self.micro_batch_size > self.batch_size {
            return Err(format!(
                "micro-batch size ({}) cannot exceed batch size ({})",
                self.micro_batch_size, self.batch_size
            ));
        }
        if !(0.0..=1.0).contains(&self.weights_gpu_ratio) {
            return Err(format!(
                "weights_gpu_ratio must be in [0,1], got {}",
                self.weights_gpu_ratio
            ));
        }
        if !(0.0..=1.0).contains(&self.kv_gpu_ratio) {
            return Err(format!(
                "kv_gpu_ratio must be in [0,1], got {}",
                self.kv_gpu_ratio
            ));
        }
        Ok(())
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Policy(N={}, μ={}, attn={}, ffn={}, r_w={:.2}, r_c={:.2})",
            self.batch_size,
            self.micro_batch_size,
            self.attention_placement(),
            self.ffn_placement(),
            self.weights_gpu_ratio,
            self.kv_gpu_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_offload_policy_matches_paper_main_setting() {
        let p = Policy::offload_default(504, 36);
        assert!(p.validate().is_ok());
        assert_eq!(p.attention_placement(), Placement::Cpu);
        assert_eq!(p.ffn_placement(), Placement::Gpu);
        assert_eq!(p.num_micro_batches(), 14);
    }

    #[test]
    fn num_micro_batches_rounds_up() {
        let p = Policy::offload_default(100, 32);
        assert_eq!(p.num_micro_batches(), 4);
        let exact = Policy::offload_default(128, 32);
        assert_eq!(exact.num_micro_batches(), 4);
        let one = Policy::offload_default(8, 8);
        assert_eq!(one.num_micro_batches(), 1);
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut p = Policy::offload_default(64, 16);
        p.batch_size = 0;
        assert!(p.validate().is_err());
        let mut p = Policy::offload_default(64, 16);
        p.micro_batch_size = 0;
        assert!(p.validate().is_err());
        let mut p = Policy::offload_default(16, 64);
        p.micro_batch_size = 64;
        p.batch_size = 16;
        assert!(p.validate().is_err());
        let mut p = Policy::offload_default(64, 16);
        p.weights_gpu_ratio = 1.2;
        assert!(p.validate().is_err());
        let mut p = Policy::offload_default(64, 16);
        p.kv_gpu_ratio = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn workload_shape_contexts() {
        let w = WorkloadShape::new(77, 128);
        assert_eq!(w.max_context(), 205);
        assert_eq!(w.avg_decode_context(), 141);
    }

    #[test]
    fn display_is_compact_and_informative() {
        let p = Policy::offload_default(504, 36);
        let s = p.to_string();
        assert!(
            s.contains("N=504") && s.contains("μ=36") && s.contains("CPU") && s.contains("GPU")
        );
    }
}
