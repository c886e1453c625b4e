//! Differential test: every compute term of the [`CostModel`] equals the
//! classical roofline `max(flops / P, bytes / B)` written out from the node's
//! own rates, bit for bit.
//!
//! The oracle below reads `NodeSpec` directly, so a change in how the cost
//! model obtains its rates (for example which GPU peak it takes for f32
//! weights) shows up here even where no serving digest covers the model.

use moe_hardware::{Bandwidth, ComputeRate, DType, NodeSpec, Seconds};
use moe_model::{LayerOps, MoeModelConfig, OpCost};
use moe_policy::{CostModel, Policy, WorkloadShape};

/// The node's rates, read the way the cost model has always priced with them.
struct NodeRates {
    gpu_flops: ComputeRate,
    gpu_bw: Bandwidth,
    cpu_flops: ComputeRate,
    cpu_bw: Bandwidth,
}

impl NodeRates {
    fn new(node: &NodeSpec, model: &MoeModelConfig) -> Self {
        NodeRates {
            gpu_flops: match model.weight_dtype {
                DType::F32 => node.total_gpu_flops_f32(),
                _ => node.total_gpu_flops_f16(),
            },
            gpu_bw: node.total_gpu_memory_bandwidth(),
            cpu_flops: node.cpu_flops(),
            cpu_bw: node.cpu_memory_bandwidth(),
        }
    }

    fn gpu(&self, cost: &OpCost) -> Seconds {
        (cost.flops / self.gpu_flops).max(cost.total_bytes() / self.gpu_bw)
    }

    fn cpu(&self, cost: &OpCost) -> Seconds {
        (cost.flops / self.cpu_flops).max(cost.total_bytes() / self.cpu_bw)
    }
}

/// The parent formula of [`CostModel::prefill_time`]: prompt compute at the GPU
/// peak, one-shot weight streaming over H2D and the KV offload over D2H.
fn prefill_oracle(
    node: &NodeSpec,
    model: &MoeModelConfig,
    rates: &NodeRates,
    policy: &Policy,
    workload: &WorkloadShape,
) -> Seconds {
    let flops = LayerOps::new(model.clone())
        .prefill_layer(policy.batch_size, workload.prompt_len)
        .flops;
    let compute = flops.scale(f64::from(model.num_layers)) / rates.gpu_flops;
    let kv_offload = (model.kv_bytes_per_token() * policy.batch_size * workload.prompt_len)
        .scale(1.0 - policy.kv_gpu_ratio)
        / node.total_d2h_bandwidth();
    let streaming: Seconds = model
        .total_weight_bytes()
        .scale(1.0 - policy.weights_gpu_ratio.clamp(0.0, 1.0))
        / node.total_h2d_bandwidth();
    compute.max(streaming).max(kv_offload)
}

fn assert_bits(what: &str, got: Seconds, want: Seconds) {
    assert_eq!(
        got.as_secs().to_bits(),
        want.as_secs().to_bits(),
        "{what}: cost model {got} vs node roofline {want}"
    );
}

#[test]
fn compute_terms_match_the_node_roofline_bit_for_bit() {
    let nodes = [
        ("T4", NodeSpec::t4_single()),
        ("L4", NodeSpec::l4_single()),
        ("4xT4", NodeSpec::t4_multi(4)),
    ];
    let models = [
        MoeModelConfig::mixtral_8x7b(),
        MoeModelConfig::dbrx(),
        MoeModelConfig::tiny(),
    ];
    assert_eq!(
        models[2].weight_dtype,
        DType::F32,
        "tiny() covers f32 weights"
    );
    let mut checked = 0usize;
    for (label, node) in &nodes {
        for model in &models {
            let cm = CostModel::new(node.clone(), model.clone());
            let ops = LayerOps::new(model.clone());
            let rates = NodeRates::new(node, model);
            for tokens in [1u64, 7, 64, 256] {
                let at = |term: &str| format!("{label}/{}/{term}(tokens={tokens})", model.name);
                assert_bits(
                    &at("pre_attention_gpu"),
                    cm.pre_attention_gpu(tokens),
                    rates.gpu(&ops.pre_attention(tokens)),
                );
                assert_bits(
                    &at("post_attention_gpu"),
                    cm.post_attention_gpu(tokens),
                    rates.gpu(&ops.post_attention(tokens)),
                );
                assert_bits(
                    &at("post_attention_gpu_without_ffn"),
                    cm.post_attention_gpu_without_ffn(tokens),
                    rates.gpu(&ops.o_projection(tokens).combine(&ops.router(tokens))),
                );
                assert_bits(
                    &at("ffn_cpu"),
                    cm.ffn_cpu(tokens),
                    rates.cpu(&ops.moe_ffn(tokens)),
                );
                for ctx in [1u64, 128, 2048] {
                    let at = |term: &str| format!("{}, ctx={ctx}", at(term));
                    let attention = ops.attention_core_decode(tokens, ctx);
                    assert_bits(
                        &at("attention_gpu"),
                        cm.attention_gpu(tokens, ctx),
                        rates.gpu(&attention),
                    );
                    assert_bits(
                        &at("attention_cpu"),
                        cm.attention_cpu(tokens, ctx),
                        rates.cpu(&attention),
                    );

                    let policy = Policy {
                        weights_gpu_ratio: 0.25,
                        kv_gpu_ratio: 0.5,
                        ..Policy::offload_default(tokens, tokens)
                    };
                    let workload = WorkloadShape::new(ctx, 16);
                    assert_bits(
                        &at("prefill_time"),
                        cm.prefill_time(&policy, &workload),
                        prefill_oracle(node, model, &rates, &policy, &workload),
                    );

                    // One micro-batch, so the layer's compute sums are single
                    // terms: this pins the attention fields the search reuses.
                    let decode_ctx = workload.avg_decode_context();
                    let decode = ops.attention_core_decode(tokens, decode_ctx);
                    let gpu_attention = Policy {
                        attention_on_gpu: true,
                        ..policy
                    };
                    let layer = cm.layer_decode_latency(&gpu_attention, &workload);
                    assert_bits(
                        &at("layer gpu_compute, A_g = 1"),
                        layer.gpu_compute,
                        rates.gpu(&ops.pre_attention(tokens))
                            + rates.gpu(&ops.post_attention(tokens))
                            + rates.gpu(&decode),
                    );
                    let cpu_attention = Policy {
                        ffn_on_gpu: false,
                        ..policy
                    };
                    let layer = cm.layer_decode_latency(&cpu_attention, &workload);
                    assert_bits(
                        &at("layer cpu_compute, A_g = 0, F_g = 0"),
                        layer.cpu_compute,
                        Seconds::ZERO + rates.cpu(&decode) + rates.cpu(&ops.moe_ffn(tokens)),
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 3 * 3 * 4 * 3);
}
