//! Workloads, request batching and metrics for the MoE-Lightning reproduction.
//!
//! * [`spec`] — the paper's three workloads (Tab. 3), synthetic request sampling
//!   and online arrival processes (Poisson/burst) for serving under load.
//! * [`batching`] — the batch-formation data model (micro-batches, limits,
//!   partition occupancy).
//! * [`scheduler`] — the pluggable [`Scheduler`] trait with four strategies:
//!   the paper's [`Algorithm2`], FlexGen-style [`FcfsPadded`], Orca/vLLM-style
//!   [`TokenBudget`] and a latency-oriented [`ShortestJobFirst`].
//! * [`metrics`] — generation-throughput accounting (the evaluation metric) and
//!   queue-aware per-request latency (TTFT, per-token, completion).
//!
//! # Examples
//!
//! ```
//! use moe_workload::{Algorithm2, BatchingConfig, Scheduler, WorkloadSpec};
//!
//! let requests = WorkloadSpec::mtbench().sample_requests(128, 64, 42);
//! let result = Algorithm2.plan(
//!     &requests,
//!     &BatchingConfig {
//!         num_micro_batches: 4,
//!         max_requests_per_micro_batch: 32,
//!         max_scheduled_requests: usize::MAX,
//!         cache_tokens_per_micro_batch: 1 << 20,
//!     },
//! );
//! assert_eq!(result.micro_batches.len(), 4);
//! assert!(result.aborted.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod metrics;
pub mod scheduler;
pub mod spec;

pub use batching::{
    BackfillResult, BatchingConfig, BatchingConfigError, BatchingResult, MicroBatch, PartitionState,
};
pub use metrics::{BatchRunReport, LatencySummary, RequestLatency};
pub use scheduler::{
    builtin_schedulers, Algorithm2, FcfsPadded, QueueOrder, Scheduler, ShortestJobFirst,
    TokenBudget,
};
pub use spec::{ArrivalProcess, GenLens, Request, SloClass, WorkloadSpec};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_requests() -> impl Strategy<Value = Vec<Request>> {
        proptest::collection::vec((1u64..2048, 1u64..256), 1..200).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (input_len, gen_len))| Request::new(i as u64, input_len, gen_len))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn batching_never_loses_or_duplicates_requests(
            reqs in arbitrary_requests(),
            n_ub in 1usize..16,
            ubs in 1usize..64,
            cache in 100u64..100_000,
        ) {
            let result = Algorithm2.plan(&reqs, &BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: usize::MAX,
                cache_tokens_per_micro_batch: cache,
            });
            let mut seen: Vec<u64> = result
                .micro_batches
                .iter()
                .flat_map(|mb| mb.requests.iter().map(|r| r.id))
                .chain(result.aborted.iter().map(|r| r.id))
                .collect();
            seen.sort_unstable();
            let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected);
        }

        #[test]
        fn batching_respects_caps(
            reqs in arbitrary_requests(),
            n_ub in 1usize..16,
            ubs in 1usize..64,
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: usize::MAX,
                cache_tokens_per_micro_batch: 1 << 20,
            };
            let result = Algorithm2.plan(&reqs, &cfg);
            prop_assert!(result.micro_batches.len() <= n_ub);
            for mb in &result.micro_batches {
                prop_assert!(mb.len() <= ubs);
            }
        }

        #[test]
        fn scheduled_micro_batches_respect_cache_budget(
            reqs in arbitrary_requests(),
            n_ub in 1usize..8,
            cache in 2_000u64..50_000,
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: 1024,
                max_scheduled_requests: usize::MAX,
                cache_tokens_per_micro_batch: cache,
            };
            let result = Algorithm2.plan(&reqs, &cfg);
            for mb in &result.micro_batches {
                let cache_needed = mb.max_cache_tokens();
                prop_assert!(cache_needed <= cache,
                    "micro-batch needs {} tokens but the budget is {}", cache_needed, cache);
            }
        }

        #[test]
        fn sampled_workloads_stay_within_bounds(count in 1usize..500, gen in 1u64..512, seed in 0u64..1000) {
            for spec in WorkloadSpec::all() {
                let reqs = spec.sample_requests(count, gen, seed);
                prop_assert_eq!(reqs.len(), count);
                for r in &reqs {
                    prop_assert!(r.input_len >= 1 && r.input_len <= spec.max_prompt_len);
                    prop_assert_eq!(r.gen_len, gen);
                }
            }
        }
    }
}
