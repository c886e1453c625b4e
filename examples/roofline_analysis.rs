//! Hierarchical-Roofline analysis (paper §3.3) for any of the evaluated models and
//! GPUs: prints the turning points P1/P2, the balance point and where the GQA
//! attention and MoE FFN kernels land — the reasoning behind running attention on
//! the CPU and the FFN on the GPU.
//!
//! Run with `cargo run --release --example roofline_analysis`.

use moe_hardware::NodeSpec;
use moe_lightning::MoeModelConfig;
use moe_policy::CostModel;

fn main() {
    for (node, label) in [
        (NodeSpec::t4_single(), "T4 (S1)"),
        (NodeSpec::l4_single(), "L4 (S2)"),
    ] {
        let cost = CostModel::new(node, MoeModelConfig::mixtral_8x7b());
        let (hrm, ops) = (cost.hrm(), cost.ops());

        let attention = ops.attention_core_decode(64, 512);
        let ffn_small = ops.moe_ffn(16);
        let ffn_large = ops.moe_ffn(256);
        let p1 = hrm.turning_point_p1();
        let p2 = hrm.turning_point_p2(ffn_large.operational_intensity());

        println!("== {label} ==");
        println!("  P1 (don't offload below this intensity): {p1:8.1} FLOPs/byte");
        println!("  P2 (link-bound below this intensity):    {p2:8.1} FLOPs/byte");
        println!(
            "  GQA attention (ctx 512, f16 KV):          {:8.1} FLOPs/byte  -> run on CPU",
            attention.operational_intensity()
        );
        println!(
            "  MoE FFN at mu=16:                         {:8.1} FLOPs/byte",
            ffn_small.operational_intensity()
        );
        println!(
            "  MoE FFN at mu=256:                        {:8.1} FLOPs/byte  -> batch it onto the GPU",
            ffn_large.operational_intensity()
        );
        println!();
    }
}
