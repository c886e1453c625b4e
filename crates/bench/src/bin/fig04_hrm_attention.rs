//! Fig. 4: Hierarchical Roofline Model for Mixtral 8x7B's grouped-query attention
//! block in the decode stage on the L4 instance (context length 512), with f16 and
//! int4 KV-cache operational-intensity markers and the P1 turning point.
//!
//! Run with `cargo run --release -p moe-bench --bin fig04_hrm_attention`;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.

use moe_bench::{fmt3, json_output_path, obj, print_csv, print_header, print_row, JsonValue};
use moe_hardware::{DType, NodeSpec};
use moe_model::{LayerOps, MoeModelConfig};
use moe_policy::CostModel;

fn main() {
    // The HRM the policy search prices with.
    let cost = CostModel::new(NodeSpec::l4_single(), MoeModelConfig::mixtral_8x7b());
    let hrm = cost.hrm();
    let context_len = 512;

    let f16 = cost.ops();
    let int4 = LayerOps::new(MoeModelConfig::mixtral_8x7b().with_kv_dtype(DType::Int4));
    let i_f16 = f16
        .attention_core_decode(64, context_len)
        .operational_intensity();
    let i_int4 = int4
        .attention_core_decode(64, context_len)
        .operational_intensity();
    let p1 = hrm.turning_point_p1();

    let mut plot = moe_hrm::plot::hrm_plot(hrm, "Fig. 4", 0.1, 10_000.0, 41);
    plot.add_marker("Attention f16", i_f16);
    plot.add_marker("Attention int4", i_int4);
    plot.add_marker("P1", p1);

    println!("== Fig. 4: HRM for GQA attention (decode, ctx={context_len}) on L4 ==");
    println!("markers (operational intensity in FLOPs/byte):");
    for m in &plot.markers {
        println!("  {:<16} {}", m.name, fmt3(m.intensity));
    }
    // The sentence below, checked: P1 is where the CPU-GPU link roof reaches the
    // CPU compute roof (Eq. 9), and both attention markers sit below it.
    let mut failures = Vec::new();
    let cpu_peak = hrm.cpu.peak_compute.as_flops_per_sec();
    let link_roof_at_p1 = hrm.link.as_bytes_per_sec() * p1;
    if (link_roof_at_p1 - cpu_peak).abs() > 1e-9 * cpu_peak {
        failures.push(format!(
            "the CPU-GPU roof at P1 = {} is {} GF/s, not the CPU peak {} GF/s",
            fmt3(p1),
            fmt3(link_roof_at_p1 / 1e9),
            fmt3(cpu_peak / 1e9)
        ));
    }
    for (name, intensity) in [("f16", i_f16), ("int4", i_int4)] {
        if intensity >= p1 {
            failures.push(format!(
                "{name} attention intensity {} is not below P1 = {}",
                fmt3(intensity),
                fmt3(p1)
            ));
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("fig04: {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "\nattention intensity sits below P1 = {} FLOPs/byte for both data types, so the",
        fmt3(p1)
    );
    println!("paper (and this reproduction) run decode attention on the CPU.\n");

    let widths = [14usize, 16, 16, 16, 16, 16];
    print_header(
        &[
            "I (FLOP/B)",
            "CPU mem roof",
            "GPU mem roof",
            "CPU-GPU roof",
            "CPU peak",
            "GPU peak",
        ],
        &widths,
    );
    let series_names = [
        "CPU Mem Bdw",
        "GPU Mem Bdw",
        "CPU-GPU Mem Bdw",
        "CPU Peak FLOPS",
        "GPU Peak FLOPS",
    ];
    let grid: Vec<f64> = plot.series[0].points.iter().map(|p| p.0).collect();
    for (row_idx, intensity) in grid.iter().enumerate() {
        if row_idx % 4 != 0 {
            continue; // keep the printed table compact; the CSV has every point
        }
        let mut cells = vec![fmt3(*intensity)];
        for name in series_names {
            let value = plot
                .series_named(name)
                .map(|s| s.points[row_idx].1)
                .unwrap_or(0.0);
            cells.push(fmt3(value));
        }
        print_row(&cells, &widths);
    }
    for (row_idx, intensity) in grid.iter().enumerate() {
        let mut fields = vec![fmt3(*intensity)];
        for name in series_names {
            fields.push(fmt3(
                plot.series_named(name)
                    .map(|s| s.points[row_idx].1)
                    .unwrap_or(0.0),
            ));
        }
        print_csv(&fields);
    }
    println!("\n(values in GFLOPS/s; roofs as in the paper's Fig. 4)");

    if let Some(path) = json_output_path() {
        let mut json_rows: Vec<JsonValue> = plot
            .markers
            .iter()
            .map(|m| {
                obj(vec![
                    ("marker", m.name.as_str().into()),
                    ("intensity_flops_per_byte", m.intensity.into()),
                ])
            })
            .collect();
        for (row_idx, intensity) in grid.iter().enumerate() {
            let mut pairs: Vec<(&str, JsonValue)> =
                vec![("intensity_flops_per_byte", (*intensity).into())];
            for name in series_names {
                let value = plot
                    .series_named(name)
                    .map(|s| s.points[row_idx].1)
                    .unwrap_or(0.0);
                pairs.push((name, value.into()));
            }
            json_rows.push(obj(pairs));
        }
        moe_bench::write_rows(&path, "fig04", json_rows);
    }
}
