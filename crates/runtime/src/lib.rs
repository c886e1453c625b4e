//! Functional multi-threaded offloading runtime.
//!
//! Everything else in this workspace *models* the paper's pipeline; this crate
//! *executes* it. [`OffloadExecutor`] provides four FIFO worker lanes (the
//! simulator's `moe_sim::Lane`s) with cross-lane dependencies — the execution model
//! CGOPipe assumes — and plays a `moe_sim::TaskGraph` on them as is.
//! [`PipelinedMoeEngine`] drives a real (tiny) Mixture-of-Experts model through the
//! graph `moe_schedule::DecodeScheduleBuilder` emits for CGOPipe — the same graph the
//! simulator times — with one kernel per task kind, paged weights streamed into a ring
//! of GPU buffer slots, and per-device memory accounting. The ring has three slots
//! once there are two micro-batches: the graph starts a layer's first page before the
//! layer two back has finished, so a double buffer would overwrite weights in use.
//! Its outputs are bit-identical to the sequential reference forward pass, which is
//! the strongest correctness check available for the schedule and paging logic.
//!
//! # Examples
//!
//! ```
//! use moe_model::{MoeModelConfig, ReferenceMoeModel};
//! use moe_runtime::{EngineConfig, PipelinedMoeEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ReferenceMoeModel::random(&MoeModelConfig::tiny(), 0)?;
//! let engine = PipelinedMoeEngine::new(model, EngineConfig::default())?;
//! let output = engine.generate(&[vec![1, 2, 3]], 4)?;
//! assert_eq!(output.tokens[0].len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod executor;

pub use engine::{EngineConfig, GenerationOutput, PipelinedMoeEngine, RuntimeError};
pub use executor::{JobId, OffloadExecutor};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_model::{MoeModelConfig, ReferenceMoeModel};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn pipelined_engine_matches_reference_for_random_prompts(
            seed in 0u64..50,
            prompt_len in 1usize..6,
            gen_len in 1usize..6,
            micro_batch in 1usize..4,
        ) {
            let cfg = MoeModelConfig::tiny();
            let model = ReferenceMoeModel::random(&cfg, seed).unwrap();
            let reference = model.clone();
            let engine = PipelinedMoeEngine::new(
                model,
                EngineConfig { micro_batch_size: micro_batch, ..EngineConfig::default() },
            )
            .unwrap();
            let prompts: Vec<Vec<u32>> = (0..3)
                .map(|s| (0..prompt_len).map(|i| (seed as u32 + s * 31 + i as u32 * 7) % cfg.vocab_size).collect())
                .collect();
            let out = engine.generate(&prompts, gen_len).unwrap();
            for (prompt, generated) in prompts.iter().zip(&out.tokens) {
                let expected = reference.generate_greedy(prompt, gen_len).unwrap();
                prop_assert_eq!(generated, &expected);
            }
        }
    }
}
