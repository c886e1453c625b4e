//! End-to-end tests of the pluggable scheduler layer (ISSUE 3): every
//! `Scheduler` implementation upholds the serving invariants in both modes, and
//! the Tab. 5 scheduler ablation orders as the paper predicts — Algorithm 2's
//! balanced, length-sorted batching beats FCFS-padded and token-budget
//! admission on generation throughput for the mixed-`gen_len` MTBench queue.

use moe_lightning::{
    ClusterEvaluator, EngineError, EvalSetting, ServeSpec, ServingMode, SystemEvaluator, SystemKind,
};
use moe_workload::{
    builtin_schedulers, Algorithm2, FcfsPadded, Request, Scheduler, TokenBudget, WorkloadSpec,
};
use std::sync::Arc;

const MODES: [ServingMode; 2] = [ServingMode::RoundToCompletion, ServingMode::Continuous];

fn evaluator() -> SystemEvaluator {
    SystemEvaluator::new(EvalSetting::S1.node(), EvalSetting::S1.model())
}

/// The Tab. 5 scheduler-ablation scenario: an unpadded mixed-`gen_len` MTBench
/// queue on MoE-Lightning, with the policy sized for the expected (mean)
/// generation length so the KV budget genuinely binds — the regime where batch
/// formation differentiates schedulers. Queue size and seed are pinned: the
/// comparison is deterministic, not statistical.
fn ablation_scenario(mode: ServingMode, scheduler: Arc<dyn Scheduler>) -> ServeSpec {
    ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
        .with_count(1000)
        .with_mixed_gen_lens()
        .with_seed(11)
        .with_mode(mode)
        .with_scheduler(scheduler)
}

#[test]
fn every_scheduler_serves_every_request_exactly_once_in_both_modes() {
    let eval = evaluator();
    for mode in MODES {
        for scheduler in builtin_schedulers() {
            let name = scheduler.name();
            let report = eval
                .run(&ablation_scenario(mode, Arc::from(scheduler)))
                .unwrap();
            assert_eq!(report.scheduler, name);
            assert_eq!(report.mode, mode);
            let mut ids: Vec<u64> = report
                .latencies
                .iter()
                .map(|l| l.request.id)
                .chain(report.aborted.iter().map(|r| r.id))
                .collect();
            ids.sort_unstable();
            assert_eq!(
                ids,
                (0..1000).collect::<Vec<u64>>(),
                "{name} [{mode}]: every request must be served or aborted exactly once"
            );
            let generated: u64 = report.latencies.iter().map(|l| l.request.gen_len).sum();
            assert_eq!(
                report.totals.generated_tokens, generated,
                "{name} [{mode}]: token accounting must hold"
            );
        }
    }
}

#[test]
fn every_scheduler_respects_the_kv_budget_at_every_scheduling_event() {
    let eval = evaluator();
    let queue = WorkloadSpec::mtbench().sample_requests_mixed_gen(500, 23);
    let base = ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench()).with_gen_len(256);
    // The node's per-micro-batch KV budget (the same for every scheduler and
    // mode), read off a one-replica fleet serving a single one-token request.
    let probe = base
        .clone()
        .with_queue(vec![Request::new(0, 1, 1)])
        .into_cluster([EvalSetting::S1.node()]);
    let budget = ClusterEvaluator::new(EvalSetting::S1.model())
        .run(&probe)
        .unwrap()
        .replicas[0]
        .kv_budget_per_micro_batch;
    for mode in MODES {
        for scheduler in builtin_schedulers() {
            let name = scheduler.name();
            let spec = base
                .clone()
                .with_mode(mode)
                .with_scheduler(Arc::from(scheduler))
                .with_queue(queue.clone());
            let report = eval.run(&spec).unwrap();
            let ubs = report.policy.micro_batch_size;
            assert!(!report.rounds.is_empty(), "{name} [{mode}]: nothing served");
            for round in &report.rounds {
                for (i, &reserved) in round.kv_reserved.iter().enumerate() {
                    assert!(
                        reserved <= budget,
                        "{name} [{mode}]: event {} micro-batch {i} reserves {reserved} > {budget}",
                        round.round
                    );
                }
                assert!(
                    round.occupancy.iter().all(|&o| o <= ubs),
                    "{name} [{mode}]: event {} exceeds the micro-batch request cap",
                    round.round
                );
            }
        }
    }
}

#[test]
fn algorithm2_beats_fcfs_padded_and_token_budget_on_mixed_gen_lens() {
    // The Tab. 5 acceptance ordering, in both serving modes: balanced,
    // length-sorted batching (Algorithm 2) extracts at least as much generation
    // throughput as FCFS-with-padding and greedy token-budget admission.
    let eval = evaluator();
    for mode in MODES {
        let algo2 = eval
            .run(&ablation_scenario(mode, Arc::new(Algorithm2)))
            .unwrap();
        let fcfs = eval
            .run(&ablation_scenario(mode, Arc::new(FcfsPadded)))
            .unwrap();
        let token = eval
            .run(&ablation_scenario(mode, Arc::new(TokenBudget)))
            .unwrap();
        assert!(
            algo2.generation_throughput() >= fcfs.generation_throughput(),
            "{mode}: Algorithm 2 ({:.2} tok/s) must not lose to FCFS-padded ({:.2} tok/s)",
            algo2.generation_throughput(),
            fcfs.generation_throughput()
        );
        assert!(
            algo2.generation_throughput() >= token.generation_throughput(),
            "{mode}: Algorithm 2 ({:.2} tok/s) must not lose to token-budget ({:.2} tok/s)",
            algo2.generation_throughput(),
            token.generation_throughput()
        );
        // Padding wastes KV capacity, so the padded scheduler schedules more
        // rounds/waves than Algorithm 2 needs for the same queue.
        assert!(
            fcfs.rounds.len() >= algo2.rounds.len(),
            "{mode}: padded KV reservations must not need fewer scheduling events"
        );
    }
}

#[test]
fn custom_schedulers_plug_in_through_the_trait() {
    /// A deliberately bad strategy: admit at most one request per micro-batch
    /// per scheduling event, to prove out-of-crate implementations work.
    #[derive(Debug)]
    struct OnePerMicroBatch;

    impl Scheduler for OnePerMicroBatch {
        fn name(&self) -> &'static str {
            "one-per-mb"
        }

        fn backfill(
            &self,
            queue: &[moe_workload::Request],
            cfg: &moe_workload::BatchingConfig,
            occupied: &[moe_workload::PartitionState],
        ) -> moe_workload::BackfillResult {
            let mut throttled = *cfg;
            throttled.max_requests_per_micro_batch = 1;
            let already: usize = occupied.iter().map(|p| p.requests).sum();
            // Keep the config valid even when micro-batches already hold work.
            throttled.max_scheduled_requests = cfg
                .max_scheduled_requests
                .min(already + cfg.num_micro_batches);
            Algorithm2.backfill(queue, &throttled, occupied)
        }
    }

    let eval = evaluator();
    let report = eval
        .run(
            &ServeSpec::new(SystemKind::MoeLightning, WorkloadSpec::mtbench())
                .with_count(40)
                .with_gen_len(32)
                .with_scheduler(Arc::new(OnePerMicroBatch)),
        )
        .unwrap();
    assert_eq!(report.scheduler, "one-per-mb");
    assert_eq!(report.served_requests(), 40);
    let n_ub = report.policy.num_micro_batches();
    for round in &report.rounds {
        assert!(round.report.requests <= n_ub);
        assert!(round.occupancy.iter().all(|&o| o <= 1));
    }
}

#[test]
fn invalid_batching_configs_surface_as_typed_errors() {
    let eval = evaluator();
    // Zero prompt and generation lengths size a zero KV budget.
    let empty_prompts = WorkloadSpec {
        avg_prompt_len: 0,
        max_prompt_len: 0,
        ..WorkloadSpec::mtbench()
    };
    let spec = ServeSpec::new(SystemKind::MoeLightning, empty_prompts)
        .with_gen_len(0)
        .with_policy(moe_lightning::Policy::offload_default(16, 4))
        .with_queue(vec![Request::new(0, 10, 10)]);
    let err = eval.run(&spec).unwrap_err();
    assert!(matches!(err, EngineError::InvalidBatchingConfig { .. }));
}
