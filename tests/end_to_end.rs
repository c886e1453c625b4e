//! Cross-crate integration tests: the headline end-to-end claims of the paper,
//! evaluated through the full pipeline (policy search → schedule construction →
//! discrete-event simulation → throughput accounting).

use moe_lightning::{EvalSetting, ServeSpec, ServingMode, SystemEvaluator, SystemKind};
use moe_workload::{Request, WorkloadSpec};

#[test]
fn moe_lightning_wins_on_s1_and_s2_for_every_generation_length() {
    // Fig. 7 (left half): MoE-Lightning(p) outperforms FlexGen, FlexGen(c) and
    // DeepSpeed for every generation length on both single-GPU settings.
    for setting in [EvalSetting::S1, EvalSetting::S2] {
        let evaluator = SystemEvaluator::new(setting.node(), setting.model());
        let spec = WorkloadSpec::mtbench();
        for gen in [32u64, 128] {
            let ml = evaluator
                .evaluate(SystemKind::MoeLightningPadded, &spec, gen)
                .expect("MoE-Lightning(p) feasible");
            for baseline in [
                SystemKind::FlexGen,
                SystemKind::FlexGenCpuAttention,
                SystemKind::DeepSpeedZero,
            ] {
                let other = evaluator
                    .evaluate(baseline, &spec, gen)
                    .expect("baseline feasible");
                assert!(
                    ml.throughput > other.throughput,
                    "{setting} gen={gen}: MoE-Lightning(p) {:.1} must beat {} {:.1}",
                    ml.throughput,
                    baseline,
                    other.throughput
                );
            }
        }
    }
}

#[test]
fn helm_tasks_follow_the_table_4_ordering() {
    // Tab. 4: MoE-Lightning(p) > FlexGen > FlexGen(c) and DeepSpeed uses a single
    // micro-batch, on both HELM workloads under S1.
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    for spec in [
        WorkloadSpec::synthetic_reasoning(),
        WorkloadSpec::summarization(),
    ] {
        let gen = spec.default_gen_lens[0];
        let ml = evaluator
            .evaluate(SystemKind::MoeLightningPadded, &spec, gen)
            .unwrap();
        let flexgen = evaluator.evaluate(SystemKind::FlexGen, &spec, gen).unwrap();
        let deepspeed = evaluator
            .evaluate(SystemKind::DeepSpeedZero, &spec, gen)
            .unwrap();
        assert!(
            ml.throughput > flexgen.throughput,
            "{}: MoE-Lightning(p) {:.2} vs FlexGen {:.2}",
            spec.name,
            ml.throughput,
            flexgen.throughput
        );
        assert!(ml.throughput > deepspeed.throughput);
        assert_eq!(
            deepspeed.policy.num_micro_batches(),
            1,
            "DeepSpeed runs one micro-batch"
        );
    }
}

#[test]
fn summarization_prompts_force_smaller_micro_batches_than_mtbench() {
    // The 2k-token summarization prompts raise GPU peak memory during prefill, which
    // caps the feasible micro-batch size (§5.2 "Prompt Length").
    let setting = EvalSetting::S1;
    let evaluator = SystemEvaluator::new(setting.node(), setting.model());
    let mtbench = evaluator
        .evaluate(SystemKind::MoeLightningPadded, &WorkloadSpec::mtbench(), 64)
        .unwrap();
    let summarization = evaluator
        .evaluate(
            SystemKind::MoeLightningPadded,
            &WorkloadSpec::summarization(),
            64,
        )
        .unwrap();
    assert!(
        summarization.policy.micro_batch_size < mtbench.policy.micro_batch_size,
        "summarization μ = {} should be below MTBench μ = {}",
        summarization.policy.micro_batch_size,
        mtbench.policy.micro_batch_size
    );
    assert!(summarization.throughput < mtbench.throughput);
}

#[test]
fn tensor_parallelism_raises_the_throughput_ceiling() {
    // Fig. 7/8: doubling the GPUs (S6→S7 for Mixtral 8x22B, S8→S9 for DBRX) gives a
    // clearly super-proportional-to-nothing improvement; we check at least 1.5x.
    let spec = WorkloadSpec::mtbench();
    for (small, large) in [
        (EvalSetting::S6, EvalSetting::S7),
        (EvalSetting::S8, EvalSetting::S9),
    ] {
        let a = SystemEvaluator::new(small.node(), small.model())
            .evaluate(SystemKind::MoeLightningPadded, &spec, 64)
            .unwrap();
        let b = SystemEvaluator::new(large.node(), large.model())
            .evaluate(SystemKind::MoeLightningPadded, &spec, 64)
            .unwrap();
        assert!(
            b.throughput > 1.5 * a.throughput,
            "{large} ({:.2}) should be well above {small} ({:.2})",
            b.throughput,
            a.throughput
        );
    }
}

#[test]
fn more_cpu_memory_never_reduces_moe_lightning_throughput() {
    // Fig. 1: the throughput curve is non-decreasing in available host memory.
    use moe_hardware::{ByteSize, NodeSpec};
    use moe_lightning::MoeModelConfig;
    let spec = WorkloadSpec::mtbench();
    let mut last = 0.0f64;
    for cpu_gib in [112.0, 160.0, 224.0] {
        let node = NodeSpec::t4_single().with_cpu_memory(ByteSize::from_gib(cpu_gib));
        let evaluator = SystemEvaluator::new(node, MoeModelConfig::mixtral_8x7b());
        let t = evaluator
            .evaluate(SystemKind::MoeLightningPadded, &spec, 128)
            .map(|r| r.throughput)
            .unwrap_or(0.0);
        assert!(
            t >= last * 0.999,
            "throughput dropped from {last:.2} to {t:.2} at {cpu_gib} GiB"
        );
        last = t;
    }
    assert!(last > 0.0);
}

/// The paper layer and the serving layer are one model: serving a uniform
/// queue of exactly `policy.batch_size` requests at the evaluated workload
/// shape, with the evaluated policy, reproduces `evaluate`'s saturated
/// throughput bit for bit, in both serving modes.
#[test]
fn evaluate_matches_run_on_the_saturated_uniform_queue_bit_for_bit() {
    let workload = WorkloadSpec::mtbench();
    for setting in [EvalSetting::S1, EvalSetting::S2] {
        let evaluator = SystemEvaluator::new(setting.node(), setting.model());
        for system in SystemKind::all() {
            for gen in [32u64, 128] {
                let evaluation = evaluator
                    .evaluate(system, &workload, gen)
                    .expect("every system is feasible on S1 and S2");
                let shape = evaluator.workload_shape(system, &workload, gen);
                let queue: Vec<Request> = (0..evaluation.policy.batch_size)
                    .map(|id| Request::new(id, shape.prompt_len, gen))
                    .collect();
                for mode in [ServingMode::RoundToCompletion, ServingMode::Continuous] {
                    let spec = ServeSpec::new(system, workload.clone())
                        .with_gen_len(gen)
                        .with_mode(mode)
                        .with_policy(evaluation.policy)
                        .with_queue(queue.clone());
                    let served = evaluator.run(&spec).unwrap().generation_throughput();
                    assert_eq!(
                        served.to_bits(),
                        evaluation.throughput.to_bits(),
                        "{setting} {system} gen={gen} {mode}: run {served} vs evaluate {}",
                        evaluation.throughput
                    );
                }
            }
        }
    }
}
