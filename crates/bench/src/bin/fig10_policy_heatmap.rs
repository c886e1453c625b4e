//! Fig. 10: how the optimal policy changes with the hardware — ratio of weights and
//! KV cache kept in CPU memory (and the attention placement) as functions of the
//! CPU-GPU interconnect bandwidth and the CPU scaling ratio, for Mixtral 8x7B on a
//! 2×A100-80G node (prompt 512, generation 32), with the searched throughput.
//!
//! The bin exits non-zero if the searched throughput falls as the link bandwidth
//! or the CPU scale grows. It cannot legitimately fall: every candidate's times
//! are non-increasing in both, and the feasible set only grows, because
//! `CpuSpec::scaled` scales host memory with the CPU.
//!
//! Run with `cargo run --release -p moe-bench --bin fig10_policy_heatmap`;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.

use moe_bench::{fmt3, json_output_path, obj, print_csv, print_header, print_row, JsonValue};
use moe_hardware::NodeSpec;
use moe_lightning::MoeModelConfig;
use moe_policy::{PolicyOptimizer, SearchSpace, WorkloadShape};

fn main() {
    let workload = WorkloadShape::new(512, 32);
    let bandwidths = [100.0f64, 200.0, 300.0, 400.0, 500.0];
    let cpu_ratios = [1.0f64, 2.0, 4.0, 6.0, 8.0, 10.0];
    let widths = [16usize, 12, 18, 18, 12, 12];

    println!(
        "== Fig. 10: best policy vs hardware (Mixtral 8x7B, 2xA100-80G, prompt=512, gen=32) =="
    );
    print_header(
        &[
            "link GB/s",
            "CPU scale",
            "weights on CPU",
            "KV on CPU",
            "attention",
            "tok/s",
        ],
        &widths,
    );
    let mut json_rows: Vec<JsonValue> = Vec::new();
    let mut failures = Vec::new();
    // Searched throughput of the previous link bandwidth at each CPU scale.
    let mut previous_link: Vec<Option<f64>> = vec![None; cpu_ratios.len()];
    for link in bandwidths {
        let mut previous_scale: Option<f64> = None;
        for (ratio_pos, ratio) in cpu_ratios.into_iter().enumerate() {
            let node = NodeSpec::a100_case_study(link, ratio);
            let optimizer = PolicyOptimizer::new(node, MoeModelConfig::mixtral_8x7b())
                .with_search_space(SearchSpace::default());
            let searched = optimizer.search(&workload);
            let throughput = searched.as_ref().ok().map(|result| result.throughput);
            for (grown, before) in [
                ("CPU scale", previous_scale),
                ("link bandwidth", previous_link[ratio_pos]),
            ] {
                if let Some(before) = before {
                    if throughput.is_none_or(|now| now < before) {
                        failures.push(format!(
                            "link {link:.0} GB/s, CPU scale {ratio:.0}: throughput {} fell from {before} tok/s as the {grown} grew",
                            throughput.map_or("n/a".to_owned(), |now| now.to_string()),
                        ));
                    }
                }
            }
            previous_scale = throughput;
            previous_link[ratio_pos] = throughput;
            match searched {
                Ok(result) => {
                    let p = result.policy;
                    let weights_on_cpu = 1.0 - p.weights_gpu_ratio;
                    let kv_on_cpu = if p.attention_on_gpu {
                        1.0 - p.kv_gpu_ratio
                    } else {
                        1.0
                    };
                    let attn = if p.attention_on_gpu { "GPU" } else { "CPU" };
                    let cells = vec![
                        format!("{link:.0}"),
                        format!("{ratio:.0}"),
                        fmt3(weights_on_cpu),
                        fmt3(kv_on_cpu),
                        attn.to_owned(),
                        fmt3(result.throughput),
                    ];
                    print_csv(&cells);
                    print_row(&cells, &widths);
                    json_rows.push(obj(vec![
                        ("link_gb_per_sec", link.into()),
                        ("cpu_scale", ratio.into()),
                        ("weights_on_cpu_ratio", weights_on_cpu.into()),
                        ("kv_on_cpu_ratio", kv_on_cpu.into()),
                        ("attention", attn.into()),
                        ("throughput_tok_per_s", result.throughput.into()),
                    ]));
                }
                Err(e) => print_row(
                    &[
                        format!("{link:.0}"),
                        format!("{ratio:.0}"),
                        format!("n/a ({e})"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ],
                    &widths,
                ),
            }
        }
        println!();
    }
    println!("Expected shape (paper §6.3): faster CPU-GPU links shift weights onto the CPU;");
    println!("KV-cache offloading (and CPU attention) only pays off once the CPU is scaled up.");

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig10", json_rows);
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("fig10: {failure}");
        }
        std::process::exit(1);
    }
}
