//! Integration tests for the functional offloading runtime: the multi-threaded
//! executor playing the CGOPipe task graph must produce exactly the same tokens as
//! the sequential reference model while exercising the paged-weight and KV-cache
//! substrates.

use moe_hardware::ByteSize;
use moe_model::{MoeModelConfig, ReferenceMoeModel};
use moe_runtime::{EngineConfig, PipelinedMoeEngine};
use moe_workload::WorkloadSpec;

#[test]
fn pipelined_runtime_matches_reference_on_a_sampled_workload() {
    let cfg = MoeModelConfig::tiny();
    let model = ReferenceMoeModel::random(&cfg, 99).unwrap();
    let reference = model.clone();
    let engine = PipelinedMoeEngine::new(
        model,
        EngineConfig {
            micro_batch_size: 3,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    // Sample a small MTBench-like batch of variable-length prompts (token ids folded
    // into the tiny vocabulary).
    let requests = WorkloadSpec::mtbench().sample_requests(6, 5, 123);
    let prompts: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            (0..(r.input_len % 6 + 1))
                .map(|i| ((r.id * 37 + i * 11) % 256) as u32)
                .collect()
        })
        .collect();

    let gen_len = 5;
    let output = engine.generate(&prompts, gen_len).unwrap();
    assert_eq!(output.tokens.len(), prompts.len());
    for (prompt, generated) in prompts.iter().zip(&output.tokens) {
        let expected = reference.generate_greedy(prompt, gen_len).unwrap();
        assert_eq!(generated, &expected);
    }
    assert!(output.h2d_bytes > ByteSize::ZERO);
    assert!(output.d2h_bytes > ByteSize::ZERO);
}

#[test]
fn weight_streaming_traffic_scales_with_decode_steps() {
    let cfg = MoeModelConfig::tiny();
    let make_engine = || {
        PipelinedMoeEngine::new(
            ReferenceMoeModel::random(&cfg, 5).unwrap(),
            EngineConfig::default(),
        )
        .unwrap()
    };
    let short = make_engine().generate(&[vec![1, 2, 3]], 3).unwrap();
    let long = make_engine().generate(&[vec![1, 2, 3]], 9).unwrap();
    // 2 pipelined passes vs 8 pipelined passes → 4x the streamed weight bytes.
    let ratio = long.h2d_bytes.as_bytes() as f64 / short.h2d_bytes.as_bytes() as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "expected ≈4x more H2D traffic, got {ratio:.2}x"
    );
}

#[test]
fn gpu_pool_peak_stays_within_the_double_buffer_budget() {
    // With one micro-batch (two prompts, micro-batch size 2) the CGOPipe graph
    // orders each layer's prefetch after the layer two back has finished, so the
    // paged weight store may hold at most: static fraction + 2 × W_L (double
    // buffer) of GPU memory — the engine's peak must respect that bound (plus the
    // pinned/page rounding slack).
    let cfg = MoeModelConfig::tiny();
    let model = ReferenceMoeModel::random(&cfg, 1).unwrap();
    let engine = PipelinedMoeEngine::new(model, EngineConfig::default()).unwrap();
    let output = engine.generate(&[vec![1, 2, 3], vec![4, 5]], 4).unwrap();
    let bound = cfg.layer_weight_bytes() * 2 + ByteSize::from_kib(64.0);
    assert!(
        output.gpu_peak <= bound,
        "GPU peak {} exceeds the double-buffer budget {}",
        output.gpu_peak,
        bound
    );
}

#[test]
fn facade_crate_re_exports_the_whole_stack() {
    // The workspace facade should give downstream users one import path.
    use moe_lightning_suite::lightning;
    let setting = lightning::EvalSetting::S1;
    assert_eq!(setting.model().name, "Mixtral-8x7B");
    assert!(setting.node().cpu_memory() > setting.node().total_gpu_memory());
}
