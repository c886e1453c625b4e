//! Fig. 6: comparison of the pipeline schedules (CGOPipe vs the S2/S3/S4 orderings
//! and DeepSpeed-style layer streaming) for one decode step of Mixtral 8x7B @ S1:
//! per-lane busy time, GPU idle bubbles and the resulting makespan.
//!
//! Run with `cargo run --release -p moe-bench --bin fig06_schedule_bubbles`;
//! pass `--json <path>` (or set `BENCH_JSON`) for machine-readable output.

use moe_bench::{fmt3, json_output_path, obj, print_csv, print_header, print_row, JsonValue};
use moe_lightning::{EvalSetting, Policy, WorkloadShape};
use moe_policy::CostModel;
use moe_schedule::{DecodeScheduleBuilder, ScheduleKind};
use moe_sim::{simulate, Lane};

fn main() {
    let setting = EvalSetting::S1;
    let cost = CostModel::new(setting.node(), setting.model());
    let policy = Policy::offload_default(256, 32);
    let gpu_attention_policy = Policy {
        attention_on_gpu: true,
        ..policy
    };
    let workload = WorkloadShape::new(418, 128);
    let layers = 4;

    println!(
        "== Fig. 6: schedule comparison ({} decode layers, {}, N={}, mu={}) ==",
        layers, setting, policy.batch_size, policy.micro_batch_size
    );
    let widths = [28usize, 12, 12, 12, 12, 12, 12];
    print_header(
        &[
            "schedule",
            "makespan ms",
            "GPU busy",
            "GPU bubble",
            "CPU busy",
            "HtoD busy",
            "DtoH busy",
        ],
        &widths,
    );

    // The paper's Fig. 6 compares the four decode-pipeline orderings; DeepSpeed-style
    // layer streaming is evaluated end-to-end in Fig. 7 instead.
    let kinds = [
        ScheduleKind::CgoPipe,
        ScheduleKind::FastDecodeOverlap,
        ScheduleKind::FlexGenCpuAttention,
        ScheduleKind::FlexGenGpuAttention,
    ];
    let mut json_rows: Vec<JsonValue> = Vec::new();
    for kind in kinds {
        // S4 and layer streaming are GPU-attention schedules; give them the matching policy.
        let p = if kind.uses_cpu_attention() {
            policy
        } else {
            gpu_attention_policy
        };
        let builder = DecodeScheduleBuilder::new(&cost, p, workload).with_layers(layers);
        let graph = builder.build(kind).expect("schedule builds");
        let result = simulate(&graph);
        let ms = |s: moe_hardware::Seconds| s.as_millis();
        let cells = vec![
            kind.name().to_owned(),
            fmt3(ms(result.makespan)),
            fmt3(ms(result.lane(Lane::GpuCompute).busy)),
            fmt3(ms(result.lane(Lane::GpuCompute).bubble)),
            fmt3(ms(result.lane(Lane::CpuCompute).busy)),
            fmt3(ms(result.lane(Lane::HostToDevice).busy)),
            fmt3(ms(result.lane(Lane::DeviceToHost).busy)),
        ];
        print_csv(&cells);
        print_row(&cells, &widths);
        json_rows.push(obj(vec![
            ("schedule", kind.name().into()),
            ("makespan_ms", ms(result.makespan).into()),
            ("gpu_busy_ms", ms(result.lane(Lane::GpuCompute).busy).into()),
            (
                "gpu_bubble_ms",
                ms(result.lane(Lane::GpuCompute).bubble).into(),
            ),
            ("cpu_busy_ms", ms(result.lane(Lane::CpuCompute).busy).into()),
            (
                "htod_busy_ms",
                ms(result.lane(Lane::HostToDevice).busy).into(),
            ),
            (
                "dtoh_busy_ms",
                ms(result.lane(Lane::DeviceToHost).busy).into(),
            ),
        ]));
    }
    println!("\n(all times in milliseconds for {layers} simulated layers; smaller makespan and");
    println!("smaller GPU bubbles are better — CGOPipe removes the idle gaps of S2/S3/S4)");

    if let Some(path) = json_output_path() {
        moe_bench::write_rows(&path, "fig06", json_rows);
    }
}
