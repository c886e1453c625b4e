//! Functional end-to-end demo: generate tokens from a tiny Mixture-of-Experts model
//! through the multi-threaded offloading runtime, which executes the CGOPipe task
//! graph of the schedule builder (paged weights in a ring of GPU buffer slots; CPU
//! attention; GPU projections/experts), and verify the output against the sequential
//! reference forward pass.
//!
//! Run with `cargo run --release --example tiny_moe_generation`.

use moe_model::{MoeModelConfig, ReferenceMoeModel};
use moe_runtime::{EngineConfig, PipelinedMoeEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MoeModelConfig::tiny();
    let model = ReferenceMoeModel::random(&cfg, 2024)?;
    let reference = model.clone();

    let engine = PipelinedMoeEngine::new(
        model,
        EngineConfig {
            micro_batch_size: 2,
            ..EngineConfig::default()
        },
    )?;

    let prompts = vec![vec![11u32, 42, 7], vec![3, 1, 4, 1, 5], vec![250, 100]];
    let gen_len = 12;
    let output = engine.generate(&prompts, gen_len)?;

    println!(
        "Pipelined offloading runtime ({} layers, {} experts, top-{}):\n",
        cfg.num_layers, cfg.num_experts, cfg.top_k
    );
    for (i, (prompt, generated)) in prompts.iter().zip(&output.tokens).enumerate() {
        let expected = reference.generate_greedy(prompt, gen_len)?;
        let matches = &expected == generated;
        println!("sequence {i}: prompt {prompt:?}");
        println!("  pipelined : {generated:?}");
        println!("  reference : {expected:?}   (match: {matches})");
        assert!(
            matches,
            "pipelined output must equal the sequential reference"
        );
    }
    println!("\npipeline statistics:");
    println!("  jobs executed      : {}", output.jobs_executed);
    println!("  host->device bytes : {}", output.h2d_bytes);
    println!("  device->host bytes : {}", output.d2h_bytes);
    println!("  peak simulated GPU : {}", output.gpu_peak);
    Ok(())
}
