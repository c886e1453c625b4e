//! Metamorphic checks over the paper pipeline (Chen, Cheung and Yiu,
//! *Metamorphic testing*, 1998): a node that is faster or larger in one roof
//! never lowers the throughput `SystemEvaluator::evaluate` reports.
//!
//! For a fixed policy every task duration is non-increasing in every roof,
//! each lane runs its tasks in a fixed order, and the schedule's makespan is
//! monotone in every task duration. A larger memory roof only grows the set
//! of feasible policies. So throughput can fall only when a system picks a
//! different policy on the better node and that policy runs slower.
//!
//! * The baselines (FlexGen, FlexGen(c), DeepSpeed-Zero) never fall: a hard
//!   assert.
//! * MoE-Lightning and MoE-Lightning(p) do fall in some cells, because the
//!   policy search ranks policies by Eq. 12, not by the simulated schedule
//!   it runs. Their fall count is an expected gap: it is printed on every
//!   run, and it may not grow past its ceiling.

use moe_lightning::{EvalSetting, NodeSpec, SystemEvaluator, SystemKind};
use moe_workload::WorkloadSpec;

/// How much each roof is scaled, one roof at a time.
const FACTORS: [f64; 5] = [1.05, 1.1, 1.25, 1.5, 2.0];

const GEN_LENS: [u64; 2] = [32, 128];

/// The MoE-Lightning and MoE-Lightning(p) cells whose throughput falls on
/// the better node, out of 960. The count may shrink; lower the ceiling
/// with it.
const MOE_LIGHTNING_FALL_CEILING: usize = 46;

/// Scales one roof of a node by a factor.
type ScaleRoof = fn(&mut NodeSpec, f64);

/// The eight roofs of a node, each with how to scale it.
const ROOFS: [(&str, ScaleRoof); 8] = [
    ("GPU f16 FLOPs", |n, f| {
        n.gpu.peak_flops_f16 = n.gpu.peak_flops_f16.scale(f)
    }),
    ("HBM bandwidth", |n, f| {
        n.gpu.memory_bandwidth = n.gpu.memory_bandwidth.scale(f)
    }),
    ("GPU memory", |n, f| n.gpu.memory = n.gpu.memory.scale(f)),
    ("CPU FLOPs", |n, f| {
        n.cpu.peak_flops = n.cpu.peak_flops.scale(f)
    }),
    ("CPU bandwidth", |n, f| {
        n.cpu.memory_bandwidth = n.cpu.memory_bandwidth.scale(f)
    }),
    ("CPU memory", |n, f| n.cpu.memory = n.cpu.memory.scale(f)),
    ("h2d", |n, f| {
        n.link.h2d_bandwidth = n.link.h2d_bandwidth.scale(f)
    }),
    ("d2h", |n, f| {
        n.link.d2h_bandwidth = n.link.d2h_bandwidth.scale(f)
    }),
];

fn is_moe_lightning(system: SystemKind) -> bool {
    matches!(
        system,
        SystemKind::MoeLightning | SystemKind::MoeLightningPadded
    )
}

#[test]
fn a_better_roof_never_lowers_evaluated_throughput() {
    let spec = WorkloadSpec::mtbench();
    let mut cells = 0;
    let mut baseline_falls = Vec::new();
    let mut moe_lightning_falls = Vec::new();
    for setting in EvalSetting::all() {
        let base = SystemEvaluator::new(setting.node(), setting.model());
        let base_throughput: Vec<_> = SystemKind::all()
            .into_iter()
            .flat_map(|system| GEN_LENS.map(|gen| (system, gen)))
            .map(|(system, gen)| {
                let eval = base.evaluate(system, &spec, gen);
                let eval = eval.unwrap_or_else(|e| panic!("{setting} {system} gen {gen}: {e}"));
                (system, gen, eval.throughput)
            })
            .collect();
        for (roof, scale) in ROOFS {
            for factor in FACTORS {
                let mut node = setting.node();
                scale(&mut node, factor);
                let better = SystemEvaluator::new(node, setting.model());
                for &(system, gen, before) in &base_throughput {
                    cells += 1;
                    let after = better
                        .evaluate(system, &spec, gen)
                        .map_or(0.0, |eval| eval.throughput);
                    if after < before {
                        let fall = format!(
                            "{setting} {system} gen {gen}, {roof} x{factor}: \
                             {before:.1} -> {after:.1} tok/s"
                        );
                        if is_moe_lightning(system) {
                            moe_lightning_falls.push((roof, fall));
                        } else {
                            baseline_falls.push(fall);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells, 2400);

    let by_roof: Vec<_> = ROOFS
        .iter()
        .map(|&(roof, _)| {
            let n = moe_lightning_falls
                .iter()
                .filter(|(r, _)| *r == roof)
                .count();
            format!("{roof} {n}")
        })
        .collect();
    println!(
        "expected-gap: MoE-Lightning/(p) throughput falls on a better roof in {} of 960 cells \
         (ceiling {MOE_LIGHTNING_FALL_CEILING}; {})",
        moe_lightning_falls.len(),
        by_roof.join(", ")
    );
    assert!(
        baseline_falls.is_empty(),
        "baseline throughput fell on a better roof in {} cells:\n{}",
        baseline_falls.len(),
        baseline_falls.join("\n")
    );
    assert!(
        moe_lightning_falls.len() <= MOE_LIGHTNING_FALL_CEILING,
        "MoE-Lightning falls grew past {MOE_LIGHTNING_FALL_CEILING}:\n{}",
        moe_lightning_falls
            .iter()
            .map(|(_, fall)| fall.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
