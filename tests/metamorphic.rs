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
//!
//! Two load checks hold every system's searched policy fixed and vary the
//! load a decode step is priced at, as a serving engine does:
//!
//! * the step never gets faster when one micro-batch holds one more request
//!   or reads a longer context;
//! * the simulated 4-layer play never finishes before its busiest lane's
//!   work, nor after all of its tasks run one after another.

use moe_lightning::{EvalSetting, NodeSpec, Policy, SystemEvaluator, SystemKind, WorkloadShape};
use moe_schedule::DecodeScheduleBuilder;
use moe_sim::{simulate, Lane};
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

/// Every setting × system × generation length of the roof sweep, with the
/// system's searched policy and workload shape on the unscaled node.
fn searched_cells() -> Vec<(
    EvalSetting,
    SystemEvaluator,
    SystemKind,
    Policy,
    WorkloadShape,
)> {
    let spec = WorkloadSpec::mtbench();
    let mut cells = Vec::new();
    for setting in EvalSetting::all() {
        let evaluator = SystemEvaluator::new(setting.node(), setting.model());
        for system in SystemKind::all() {
            for gen in GEN_LENS {
                let shape = evaluator.workload_shape(system, &spec, gen);
                let policy = evaluator
                    .policy_for(system, &shape)
                    .unwrap_or_else(|e| panic!("{setting} {system} gen {gen}: {e}"));
                cells.push((setting, evaluator.clone(), system, policy, shape));
            }
        }
    }
    cells
}

/// A skewed load: micro-batch `j` holds between 2/5 and 4/5 of the policy's
/// micro-batch size (at least one request, always room for one more unless
/// the size is one) and reads between 3/5 and 6/5 of the shape's mean
/// decode context.
fn skewed_loads(policy: &Policy, shape: &WorkloadShape) -> (Vec<u64>, Vec<u64>) {
    let n_ub = policy.num_micro_batches();
    let mu = policy.micro_batch_size;
    let context = shape.avg_decode_context();
    let occupancy = (0..n_ub).map(|j| (mu * (2 + j % 3) / 5).max(1)).collect();
    let contexts = (0..n_ub)
        .map(|j| (context * (3 + j % 4) / 5).max(1))
        .collect();
    (occupancy, contexts)
}

#[test]
fn a_heavier_micro_batch_never_prices_a_faster_decode_step() {
    let mut checked = 0;
    let mut falls = Vec::new();
    for (setting, evaluator, system, policy, shape) in searched_cells() {
        let schedule = system.schedule();
        let price = |occupancy: &[u64], contexts: &[u64]| {
            evaluator
                .decode_step_latency_with_loads(
                    schedule,
                    &policy,
                    &shape,
                    Some(occupancy),
                    Some(contexts),
                )
                .unwrap_or_else(|e| panic!("{setting} {system}: {e}"))
        };
        let (occupancy, contexts) = skewed_loads(&policy, &shape);
        let base = price(&occupancy, &contexts);
        let mu = policy.micro_batch_size;
        let context = shape.avg_decode_context();
        for j in 0..occupancy.len() {
            let mut heavier = Vec::new();
            for extra in [1, mu - occupancy[j]] {
                if extra > 0 {
                    let mut more = occupancy.clone();
                    more[j] += extra;
                    heavier.push((format!("occupancy +{extra}"), more, contexts.clone()));
                }
            }
            for extra in [1, context / 2 + 1] {
                let mut longer = contexts.clone();
                longer[j] += extra;
                heavier.push((format!("context +{extra}"), occupancy.clone(), longer));
            }
            for (what, occupancy, contexts) in heavier {
                checked += 1;
                let step = price(&occupancy, &contexts);
                if step < base {
                    falls.push(format!(
                        "{setting} {system} gen {}, micro-batch {j} {what}: {base} -> {step}",
                        shape.gen_len
                    ));
                }
            }
        }
    }
    println!("load check: {checked} heavier micro-batches priced");
    assert!(checked > 1000, "only {checked} heavier loads priced");
    assert!(
        falls.is_empty(),
        "a heavier micro-batch priced a faster step in {} cases:\n{}",
        falls.len(),
        falls.join("\n")
    );
}

#[test]
fn every_four_layer_play_lies_between_its_busiest_lane_and_its_serial_sum() {
    let mut plays = 0;
    for (setting, evaluator, system, policy, shape) in searched_cells() {
        let (occupancy, contexts) = skewed_loads(&policy, &shape);
        let uniform = DecodeScheduleBuilder::new(evaluator.cost_model(), policy, shape)
            .with_layers(evaluator.simulated_layers());
        let skewed = uniform
            .clone()
            .with_micro_batch_tokens(&occupancy)
            .with_micro_batch_contexts(&contexts);
        for (loads, builder) in [("uniform", uniform), ("skewed", skewed)] {
            plays += 1;
            let graph = builder
                .build(system.schedule())
                .unwrap_or_else(|e| panic!("{setting} {system}: {e}"));
            let makespan = simulate(&graph).makespan;
            let busiest = Lane::all()
                .into_iter()
                .map(|lane| graph.lane_work(lane))
                .fold(moe_lightning::Seconds::ZERO, moe_lightning::Seconds::max);
            let serial: moe_lightning::Seconds = graph.tasks().iter().map(|t| t.duration).sum();
            let cell = format!("{setting} {system} gen {}, {loads} loads", shape.gen_len);
            assert!(
                busiest <= makespan,
                "{cell}: the play ({makespan}) beats its busiest lane ({busiest})"
            );
            assert!(
                makespan <= serial,
                "{cell}: the play ({makespan}) is slower than running every task in turn ({serial})"
            );
        }
    }
    assert_eq!(plays, 120);
}
