//! Fig. 5: Hierarchical Roofline Model for Mixtral 8x7B's MoE FFN block in the
//! decode stage on the L4 instance, with batch-size markers (N ∈ {32, 128, 1024,
//! 16384}), the kernel performance at μ=128 and the turning points P1/P2.
//!
//! Run with `cargo run --release -p moe-bench --bin fig05_hrm_ffn`;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.

use moe_bench::{fmt3, json_output_path, obj, print_csv, print_header, print_row, JsonValue};
use moe_hardware::NodeSpec;
use moe_hrm::BindingRoof;
use moe_model::MoeModelConfig;
use moe_policy::CostModel;

fn main() {
    // The HRM the policy search prices with.
    let cost = CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
    let (hrm, ops) = (cost.hrm(), cost.ops());
    let mu = 128u64;

    // Local (GPU-memory) operational intensity of the FFN kernel at micro-batch μ.
    let kernel = ops.moe_ffn(mu);
    let local_intensity = kernel.operational_intensity();
    let p1 = hrm.turning_point_p1();
    let p2 = hrm.turning_point_p2(local_intensity);
    let balance = hrm.balance_point(local_intensity);
    // The figure's sentences, checked: a failure is reported after the table.
    let mut failures = Vec::new();
    if p1 >= p2 {
        failures.push(format!("P1 = {} is not below P2 = {}", fmt3(p1), fmt3(p2)));
    }

    println!("== Fig. 5: HRM for the MoE FFN block (decode) on L4, kernel at mu={mu} ==");
    println!(
        "P1 = {} FLOPs/byte   P2 = {} FLOPs/byte   balance point = {} FLOPs/byte",
        fmt3(p1),
        fmt3(p2),
        fmt3(balance)
    );
    println!(
        "kernel performance at mu=128: {} GFLOPS/s (local intensity {})\n",
        fmt3(
            hrm.gpu
                .roofline()
                .attainable(local_intensity)
                .as_gflops_per_sec()
        ),
        fmt3(local_intensity)
    );

    // Cross-level intensity for different batch sizes N: FLOPs per byte of expert
    // weights streamed from CPU memory (the weights are read once per batch).
    let widths = [10usize, 18, 20, 22];
    print_header(
        &["N", "I_cpu (FLOP/B)", "roof-limited GF/s", "binding roof"],
        &widths,
    );
    let mut json_rows: Vec<JsonValue> = vec![obj(vec![
        ("p1_flops_per_byte", p1.into()),
        ("p2_flops_per_byte", p2.into()),
        ("balance_flops_per_byte", balance.into()),
        ("kernel_local_intensity", local_intensity.into()),
    ])];
    let mut prev_attainable = 0.0;
    for n in [32u64, 128, 512, 1024, 4096, 16384] {
        let batch_cost = ops.moe_ffn(n);
        let cross_intensity = batch_cost.intensity_wrt(ops.ffn_weight_bytes());
        let attainable = hrm
            .attainable_cross(local_intensity, cross_intensity)
            .as_gflops_per_sec();
        let roof = hrm.binding_roof(local_intensity, cross_intensity);
        if (roof == BindingRoof::CrossLevelBandwidth) != (cross_intensity < balance) {
            failures.push(format!(
                "N = {n}: I_cpu = {} against balance point {} binds on {roof:?}",
                fmt3(cross_intensity),
                fmt3(balance)
            ));
        }
        if attainable < prev_attainable {
            failures.push(format!(
                "N = {n}: attainable {} GF/s fell from {} GF/s",
                fmt3(attainable),
                fmt3(prev_attainable)
            ));
        }
        prev_attainable = attainable;
        print_row(
            &[
                n.to_string(),
                fmt3(cross_intensity),
                fmt3(attainable),
                format!("{roof:?}"),
            ],
            &widths,
        );
        print_csv(&[
            n.to_string(),
            fmt3(cross_intensity),
            fmt3(attainable),
            format!("{roof:?}"),
        ]);
        json_rows.push(obj(vec![
            ("batch_size", n.into()),
            ("cross_intensity_flops_per_byte", cross_intensity.into()),
            ("attainable_gflops_per_sec", attainable.into()),
            ("binding_roof", format!("{roof:?}").into()),
        ]));
    }
    println!(
        "\nBelow P1 ({}) offloading to the GPU is not worthwhile; between P1 and P2 the",
        fmt3(p1)
    );
    println!("CPU-GPU link binds; beyond the balance point larger N no longer helps (paper §3.3).");

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig05", json_rows);
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("fig05: {failure}");
        }
        std::process::exit(1);
    }
}
