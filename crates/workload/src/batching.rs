//! Request batching — the shared data model of the batch-formation layer.
//!
//! For variable-length prompts, Algorithm 2 sorts requests by input length
//! (descending) and greedily assigns each to the micro-batch with the fewest
//! tokens so far, subject to a per-micro-batch request cap (`ubs`) and KV-cache
//! size limit. When the token-minimal micro-batch lacks KV headroom, the request
//! spills to the open micro-batch with the next-fewest tokens that can still hold
//! it; only requests no open micro-batch can hold are *aborted* (deferred to the
//! next batch).
//!
//! The assignment itself lives behind the [`crate::scheduler::Scheduler`] trait
//! ([`crate::scheduler::Algorithm2`] is the paper's strategy). The serving loop
//! in the core crate is generic over the trait, so alternative strategies
//! (FCFS-padded, token-budget, shortest-job-first) plug in without touching it.

use crate::spec::Request;
use std::fmt;

/// One micro-batch produced by the batching algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBatch {
    /// The requests assigned to this micro-batch.
    pub requests: Vec<Request>,
}

impl MicroBatch {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the micro-batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Sum of prompt tokens across requests.
    pub fn prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.input_len).sum()
    }

    /// KV-cache tokens needed at the end of generation.
    pub fn max_cache_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.max_context()).sum()
    }
}

/// Result of running Algorithm 2 on a request queue.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingResult {
    /// The formed micro-batches.
    pub micro_batches: Vec<MicroBatch>,
    /// Requests deferred to the next batch (cache-size or capacity overflow).
    pub aborted: Vec<Request>,
}

impl BatchingResult {
    /// Total number of scheduled requests.
    pub fn scheduled_requests(&self) -> usize {
        self.micro_batches.iter().map(MicroBatch::len).sum()
    }

    /// The largest and smallest per-micro-batch prompt token counts (imbalance
    /// indicator).
    pub fn prompt_token_spread(&self) -> (u64, u64) {
        let counts: Vec<u64> = self
            .micro_batches
            .iter()
            .map(MicroBatch::prompt_tokens)
            .collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        (min, max)
    }
}

/// Parameters of the batching algorithm (inputs of Algorithm 2).
///
/// The paper's pseudo-code also takes a uniform `gen_len`; here each [`Request`]
/// carries its own, so the KV-cache projection uses the per-request
/// `max_context()` instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchingConfig {
    /// Number of micro-batches to form (`n_ub`).
    pub num_micro_batches: usize,
    /// Maximum number of requests per micro-batch (`ubs`).
    pub max_requests_per_micro_batch: usize,
    /// Maximum requests across all micro-batches (the policy's batch size `N`;
    /// binds when `N` is not a multiple of `ubs`, so `n_ub × ubs > N`).
    pub max_scheduled_requests: usize,
    /// Maximum KV-cache tokens per micro-batch (`cache_size`).
    pub cache_tokens_per_micro_batch: u64,
}

/// Why a [`BatchingConfig`] is unusable (see [`BatchingConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchingConfigError {
    /// `num_micro_batches` is zero — nothing could ever be scheduled, and the
    /// assignment engine would index an empty partition vector.
    ZeroMicroBatches,
    /// `max_requests_per_micro_batch` is zero — no micro-batch could admit a
    /// request.
    ZeroMicroBatchCapacity,
    /// `max_scheduled_requests` is zero — every request would be deferred
    /// forever.
    ZeroScheduledRequests,
    /// `cache_tokens_per_micro_batch` is zero — no request (every prompt is at
    /// least one token) could ever fit the KV budget.
    ZeroCacheBudget,
    /// The KV budget a policy implies (`batch_size × max_context` tokens)
    /// does not fit a `u64`.
    CacheBudgetOverflow,
}

impl fmt::Display for BatchingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchingConfigError::ZeroMicroBatches => f.write_str("num_micro_batches is zero"),
            BatchingConfigError::ZeroMicroBatchCapacity => {
                f.write_str("max_requests_per_micro_batch is zero")
            }
            BatchingConfigError::ZeroScheduledRequests => {
                f.write_str("max_scheduled_requests is zero")
            }
            BatchingConfigError::ZeroCacheBudget => {
                f.write_str("cache_tokens_per_micro_batch is zero")
            }
            BatchingConfigError::CacheBudgetOverflow => {
                f.write_str("the KV cache budget overflows a u64")
            }
        }
    }
}

impl std::error::Error for BatchingConfigError {}

impl BatchingConfig {
    /// Checks that the configuration can schedule at least one request: all four
    /// limits must be positive. The scheduling engine `assert!`s the same
    /// conditions; callers that assemble configurations from external input
    /// (policies, specs) should validate first and surface the typed error.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), BatchingConfigError> {
        if self.num_micro_batches == 0 {
            return Err(BatchingConfigError::ZeroMicroBatches);
        }
        if self.max_requests_per_micro_batch == 0 {
            return Err(BatchingConfigError::ZeroMicroBatchCapacity);
        }
        if self.max_scheduled_requests == 0 {
            return Err(BatchingConfigError::ZeroScheduledRequests);
        }
        if self.cache_tokens_per_micro_batch == 0 {
            return Err(BatchingConfigError::ZeroCacheBudget);
        }
        Ok(())
    }
}

/// Occupancy of one micro-batch that already holds in-flight requests, as seen by
/// [`crate::scheduler::Scheduler::backfill`]. A serving loop keeps one entry per
/// micro-batch as its KV ledger and hands it over before re-running Algorithm 2
/// over the waiting queue (all entries empty when it forms a round from
/// scratch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionState {
    /// Requests currently decoding in this micro-batch.
    pub requests: usize,
    /// Prompt tokens of those requests (the balancing criterion).
    pub prompt_tokens: u64,
    /// End-of-generation KV tokens the micro-batch has reserved (the admission
    /// criterion).
    pub cache_tokens: u64,
}

impl PartitionState {
    /// Adds one request to the occupancy snapshot.
    pub fn admit(&mut self, req: &Request) {
        self.requests += 1;
        self.prompt_tokens += req.input_len;
        self.cache_tokens += req.max_context();
    }

    /// Removes one completed request, releasing its KV reservation.
    pub fn release(&mut self, req: &Request) {
        self.requests = self.requests.saturating_sub(1);
        self.prompt_tokens = self.prompt_tokens.saturating_sub(req.input_len);
        self.cache_tokens = self.cache_tokens.saturating_sub(req.max_context());
    }
}

/// Result of backfilling open micro-batch slots from a waiting queue. The
/// default is the empty result, a buffer for
/// [`crate::scheduler::Scheduler::backfill_sorted_into`] to fill.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackfillResult {
    /// Newly admitted requests per micro-batch (parallel to the input state slice).
    pub assignments: Vec<Vec<Request>>,
    /// Requests that found no open micro-batch with a free slot and KV headroom.
    pub deferred: Vec<Request>,
    /// Indices of micro-batches that reached the request cap, in fill order.
    pub filled_order: Vec<usize>,
}

impl BackfillResult {
    /// Total number of newly admitted requests.
    pub fn admitted(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Converts a from-scratch assignment (empty pre-occupancy) into a
    /// [`BatchingResult`]: full micro-batches first (in the order they filled
    /// up), then the remaining partially filled ones in index order.
    pub fn into_batching_result(mut self) -> BatchingResult {
        let mut micro_batches: Vec<MicroBatch> = Vec::new();
        for &idx in &self.filled_order {
            micro_batches.push(MicroBatch {
                requests: std::mem::take(&mut self.assignments[idx]),
            });
        }
        for requests in self.assignments.into_iter().filter(|p| !p.is_empty()) {
            micro_batches.push(MicroBatch { requests });
        }
        BatchingResult {
            micro_batches,
            aborted: self.deferred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Algorithm2, Scheduler};
    use crate::spec::WorkloadSpec;

    fn cfg(n_ub: usize, ubs: usize, cache: u64) -> BatchingConfig {
        BatchingConfig {
            num_micro_batches: n_ub,
            max_requests_per_micro_batch: ubs,
            max_scheduled_requests: usize::MAX,
            cache_tokens_per_micro_batch: cache,
        }
    }

    fn req(id: u64, len: u64) -> Request {
        Request::new(id, len, 32)
    }

    #[test]
    fn balances_tokens_across_micro_batches() {
        let reqs = WorkloadSpec::mtbench().sample_requests(256, 32, 11);
        let result = Algorithm2.plan(&reqs, &cfg(8, 32, u64::MAX));
        assert_eq!(result.scheduled_requests(), 256);
        assert!(result.aborted.is_empty());
        assert_eq!(result.micro_batches.len(), 8);
        let (min, max) = result.prompt_token_spread();
        assert!(
            max - min <= WorkloadSpec::mtbench().max_prompt_len,
            "greedy balancing keeps the spread below one max-length request: {min}..{max}"
        );
    }

    #[test]
    fn respects_per_micro_batch_request_cap() {
        let reqs: Vec<Request> = (0..20).map(|i| req(i, 100)).collect();
        let result = Algorithm2.plan(&reqs, &cfg(4, 4, u64::MAX));
        // Only 4×4 = 16 requests fit; the remaining 4 are aborted.
        assert_eq!(result.scheduled_requests(), 16);
        assert_eq!(result.aborted.len(), 4);
        assert!(result.micro_batches.iter().all(|mb| mb.len() <= 4));
    }

    #[test]
    fn respects_cache_size_limit() {
        let reqs: Vec<Request> = (0..8).map(|i| req(i, 1000)).collect();
        // Cache only fits one 1000-token prompt plus generation per micro-batch.
        let result = Algorithm2.plan(&reqs, &cfg(2, 8, 1100));
        assert_eq!(result.scheduled_requests(), 2);
        assert_eq!(result.aborted.len(), 6);
        for mb in &result.micro_batches {
            assert!(mb.max_cache_tokens() <= 1100);
        }
    }

    #[test]
    fn longest_requests_are_spread_over_different_micro_batches() {
        let mut reqs: Vec<Request> = (0..4).map(|i| req(i, 400)).collect();
        reqs.extend((4..12).map(|i| req(i, 10)));
        let result = Algorithm2.plan(&reqs, &cfg(4, 3, u64::MAX));
        // The four long requests must land in four different micro-batches.
        let long_counts: Vec<usize> = result
            .micro_batches
            .iter()
            .map(|mb| mb.requests.iter().filter(|r| r.input_len == 400).count())
            .collect();
        assert!(
            long_counts.iter().all(|&c| c <= 1),
            "long requests clumped: {long_counts:?}"
        );
    }

    #[test]
    fn single_request_exceeding_cache_limit_aborts_without_panicking() {
        // One request whose prompt alone blows the per-micro-batch KV budget must be
        // deferred (the paper's "abort"), not crash the batcher.
        let giant = req(0, 10_000);
        let result = Algorithm2.plan(&[giant], &cfg(4, 8, 1000));
        assert!(result.micro_batches.is_empty());
        assert_eq!(result.aborted, vec![giant]);
        // Mixed with schedulable requests, only the oversized one is aborted.
        let queue = [giant, req(1, 100), req(2, 200)];
        let result = Algorithm2.plan(&queue, &cfg(4, 8, 1000));
        assert_eq!(result.scheduled_requests(), 2);
        assert_eq!(result.aborted, vec![giant]);
    }

    #[test]
    fn spills_to_another_open_micro_batch_when_token_min_lacks_cache_headroom() {
        // Regression: p0's cache is saturated by a giant prompt (900 + 150 gen =
        // 1050 of 1100), while p1 holds more prompt tokens (two 500-token fillers)
        // but almost no generation, so it keeps cache headroom. The final small
        // request's token-minimal micro-batch is p0 — which cannot hold it — and
        // the fixed algorithm must spill it to p1 instead of aborting.
        let giant = Request::new(0, 900, 150);
        let fillers: Vec<Request> = (1..=2).map(|id| Request::new(id, 500, 1)).collect();
        let small = Request::new(3, 60, 1);
        let queue = [giant, fillers[0], fillers[1], small];
        let result = Algorithm2.plan(&queue, &cfg(2, 8, 1100));
        assert!(
            result.aborted.is_empty(),
            "small request must spill to the open micro-batch with headroom: {:?}",
            result.aborted
        );
        assert_eq!(result.scheduled_requests(), 4);
        // The spill lands next to the fillers, not the giant.
        let small_mb = result
            .micro_batches
            .iter()
            .find(|mb| mb.requests.iter().any(|r| r.id == 3))
            .expect("small request scheduled");
        assert!(small_mb.requests.iter().any(|r| r.id == 1));
        for mb in &result.micro_batches {
            assert!(mb.max_cache_tokens() <= 1100);
        }
    }

    #[test]
    fn backfill_extends_partially_occupied_micro_batches() {
        // One micro-batch already decodes 2 requests worth 700 cache tokens; the
        // other is empty. Backfill must respect both the existing reservation and
        // the balance criterion.
        let occupied = [
            PartitionState {
                requests: 2,
                prompt_tokens: 600,
                cache_tokens: 700,
            },
            PartitionState::default(),
        ];
        let queue: Vec<Request> = (0..3).map(|id| Request::new(id, 200, 100)).collect();
        let fill = Algorithm2.backfill(&queue, &cfg(2, 4, 1000), &occupied);
        // All three fit the empty micro-batch (3 × 300 = 900 ≤ 1000); the occupied
        // one can only take one more (700 + 300 = 1000).
        assert_eq!(fill.admitted(), 3);
        assert!(fill.deferred.is_empty());
        assert!(
            fill.assignments[1].len() >= 2,
            "balance favours the empty one"
        );
        let p0_new: u64 = fill.assignments[0].iter().map(Request::max_context).sum();
        assert!(occupied[0].cache_tokens + p0_new <= 1000);
    }

    #[test]
    fn backfill_counts_existing_occupancy_against_the_total_cap() {
        let occupied = [PartitionState {
            requests: 3,
            prompt_tokens: 300,
            cache_tokens: 400,
        }];
        let mut config = cfg(1, 8, u64::MAX);
        config.max_scheduled_requests = 4;
        let queue: Vec<Request> = (0..3).map(|id| Request::new(id, 100, 10)).collect();
        let fill = Algorithm2.backfill(&queue, &config, &occupied);
        assert_eq!(fill.admitted(), 1);
        assert_eq!(fill.deferred.len(), 2);
    }

    #[test]
    fn all_equal_length_requests_produce_balanced_micro_batches() {
        // 32 requests with a per-micro-batch capacity of 8 need only 4 of the 8
        // configured micro-batches: an underfilled batch concentrates into few,
        // full micro-batches (the pipeline depth was sized for a full batch)
        // instead of spreading thin, and balances perfectly within them.
        let reqs: Vec<Request> = (0..32).map(|i| req(i, 64)).collect();
        let result = Algorithm2.plan(&reqs, &cfg(8, 8, u64::MAX));
        assert_eq!(result.scheduled_requests(), 32);
        assert!(result.aborted.is_empty());
        assert_eq!(result.micro_batches.len(), 4);
        assert!(result.micro_batches.iter().all(|mb| mb.len() == 8));
        let (min, max) = result.prompt_token_spread();
        assert_eq!((min, max), (512, 512));
        // A saturated queue (64 requests = 8 × 8) opens every micro-batch — the
        // paper's Algorithm 2 setting.
        let reqs: Vec<Request> = (0..64).map(|i| req(i, 64)).collect();
        let result = Algorithm2.plan(&reqs, &cfg(8, 8, u64::MAX));
        assert_eq!(result.micro_batches.len(), 8);
        assert!(result.micro_batches.iter().all(|mb| mb.len() == 8));
    }

    #[test]
    fn total_request_cap_binds_before_per_micro_batch_caps() {
        // n_ub × ubs = 12, but the total cap (a non-divisible batch size) is 10.
        let reqs: Vec<Request> = (0..20).map(|i| req(i, 50)).collect();
        let mut config = cfg(3, 4, u64::MAX);
        config.max_scheduled_requests = 10;
        let result = Algorithm2.plan(&reqs, &config);
        assert_eq!(result.scheduled_requests(), 10);
        assert_eq!(result.aborted.len(), 10);
        assert!(result.micro_batches.iter().all(|mb| mb.len() <= 4));
    }

    #[test]
    fn empty_queue_produces_no_micro_batches() {
        let result = Algorithm2.plan(&[], &cfg(4, 8, 1000));
        assert!(result.micro_batches.is_empty());
        assert!(result.aborted.is_empty());
        assert_eq!(result.prompt_token_spread(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one micro-batch")]
    fn zero_micro_batches_panics() {
        Algorithm2.plan(&[], &cfg(0, 8, 1000));
    }

    #[test]
    fn validate_rejects_every_zero_limit() {
        let good = cfg(4, 8, 1000);
        assert_eq!(good.validate(), Ok(()));
        assert_eq!(
            cfg(0, 8, 1000).validate(),
            Err(BatchingConfigError::ZeroMicroBatches)
        );
        assert_eq!(
            cfg(4, 0, 1000).validate(),
            Err(BatchingConfigError::ZeroMicroBatchCapacity)
        );
        assert_eq!(
            cfg(4, 8, 0).validate(),
            Err(BatchingConfigError::ZeroCacheBudget)
        );
        let mut zero_total = cfg(4, 8, 1000);
        zero_total.max_scheduled_requests = 0;
        assert_eq!(
            zero_total.validate(),
            Err(BatchingConfigError::ZeroScheduledRequests)
        );
        assert!(BatchingConfigError::ZeroCacheBudget
            .to_string()
            .contains("cache_tokens_per_micro_batch"));
    }

    #[test]
    fn micro_batch_accessors() {
        let mb = MicroBatch {
            requests: vec![req(0, 10), req(1, 20)],
        };
        assert_eq!(mb.len(), 2);
        assert!(!mb.is_empty());
        assert_eq!(mb.prompt_tokens(), 30);
        assert_eq!(mb.max_cache_tokens(), 30 + 64);
    }
}
