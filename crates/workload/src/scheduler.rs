//! Pluggable batch-formation strategies: the [`Scheduler`] trait and its
//! implementations.
//!
//! Batch formation — which waiting requests are admitted, and into which
//! micro-batch — is the paper's central ablation axis (Tab. 5), so it is
//! factored behind a trait. The serving engine (each replica's event machine
//! in the core crate) forms every wave, in both serving modes, with
//! [`Scheduler::backfill_sorted_into`] into one result buffer per run: a
//! continuous-batching wave re-fills partially occupied micro-batches
//! mid-flight, and a round-to-completion round is a backfill into empty
//! ones. [`Scheduler::plan`] forms one batch from scratch for callers that
//! want the micro-batches themselves, such as the `mtbench_throughput`
//! example's packing line.
//!
//! Four strategies are provided:
//!
//! * [`Algorithm2`] — the paper's batcher: longest prompt first, each request to
//!   the open micro-batch with the fewest prompt tokens that has KV headroom.
//! * [`FcfsPadded`] — FlexGen-style fixed padded batches: arrival order, each
//!   micro-batch filled to capacity before the next opens, and every request
//!   charged the KV of the longest prompt in the queue.
//! * [`TokenBudget`] — Orca/vLLM-style greedy admission: arrival order,
//!   length-blind count-balanced placement under the KV token budget.
//! * [`ShortestJobFirst`] — shortest generation first with Algorithm 2's
//!   balanced placement, a latency-oriented variant.
//!
//! All four share one assignment engine parameterized by admission order,
//! placement rule and KV accounting, so every implementation upholds the same
//! invariants: requests are conserved (admitted + deferred = input), no
//! micro-batch exceeds its request cap or KV budget, and admission never
//! exceeds `max_scheduled_requests`.

use crate::batching::{BackfillResult, BatchingConfig, BatchingResult, PartitionState};
use crate::spec::Request;
use std::cell::RefCell;
use std::fmt;

/// A batch-formation strategy: decides which queued requests are admitted and
/// into which micro-batch, under the capacity limits of a [`BatchingConfig`].
///
/// Implementations must conserve requests (every input request ends up admitted
/// or deferred exactly once) and respect the per-micro-batch request cap, the
/// per-micro-batch KV-cache budget and the total `max_scheduled_requests` cap.
///
/// # Examples
///
/// ```
/// use moe_workload::{Algorithm2, BatchingConfig, Scheduler, WorkloadSpec};
///
/// let queue = WorkloadSpec::mtbench().sample_requests(64, 32, 7);
/// let cfg = BatchingConfig {
///     num_micro_batches: 4,
///     max_requests_per_micro_batch: 16,
///     max_scheduled_requests: usize::MAX,
///     cache_tokens_per_micro_batch: 1 << 20,
/// };
/// let result = Algorithm2.plan(&queue, &cfg);
/// assert_eq!(result.scheduled_requests(), 64);
/// assert!(result.aborted.is_empty());
/// ```
pub trait Scheduler: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in serving reports and table rows.
    fn name(&self) -> &'static str;

    /// The admission order this strategy sorts the queue into, if any.
    ///
    /// A serving loop that keeps its waiting queue sorted in this order
    /// (re-sorting only after an out-of-order arrival) may call
    /// [`Scheduler::backfill_sorted`] instead of [`Scheduler::backfill`] and
    /// skip the per-event re-sort — the incremental re-planning path. The
    /// default is [`QueueOrder::Unordered`], which forces the sorting path.
    fn queue_order(&self) -> QueueOrder {
        QueueOrder::Unordered
    }

    /// Like [`Scheduler::backfill`], but `queue` is promised to already be in
    /// this scheduler's [`Scheduler::queue_order`] — the caller maintained it
    /// incrementally across scheduling events, so re-planning does not pay
    /// the O(n log n) sort every continuous-batching backfill.
    ///
    /// The default implementation ignores the promise and delegates to
    /// [`Scheduler::backfill`] (always correct); implementations with a
    /// declared order override it to skip the sort. Results must be
    /// *identical* to [`Scheduler::backfill`] on a correctly sorted queue.
    fn backfill_sorted(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult {
        self.backfill(queue, cfg, occupied)
    }

    /// Like [`Scheduler::backfill_sorted`], but writes the result into `out`
    /// instead of returning a new one. A serving loop keeps one `out` and
    /// passes it to every admission pass, so the result's vectors are
    /// allocated once and then reused: a pass allocates only when it
    /// outgrows every earlier one. The core crate's serving engine calls
    /// this method and no other: for continuous-batching backfills and for
    /// round-to-completion rounds alike (a round passes empty `occupied`
    /// micro-batches).
    ///
    /// `out` may hold any earlier result, for any configuration and queue;
    /// on return it must equal what [`Scheduler::backfill_sorted`] returns,
    /// field for field. The default implementation calls
    /// [`Scheduler::backfill_sorted`] and replaces `out`, which is always
    /// correct; the built-in schedulers clear each of `out`'s vectors,
    /// keeping its capacity, and write into them.
    fn backfill_sorted_into(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
        out: &mut BackfillResult,
    ) {
        *out = self.backfill_sorted(queue, cfg, occupied);
    }

    /// Runs the assignment over micro-batches that may already hold in-flight
    /// requests (`occupied`, one entry per micro-batch): the continuous-batching
    /// path that re-fills slots freed by completed requests.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`BatchingConfig::validate`]) or if
    /// `occupied.len() != cfg.num_micro_batches`. The serving layer validates
    /// configurations up front and returns a typed error instead.
    fn backfill(
        &self,
        queue: &[Request],
        cfg: &BatchingConfig,
        occupied: &[PartitionState],
    ) -> BackfillResult;

    /// Forms a batch from scratch: full micro-batches first (in fill order),
    /// then partially filled ones. For callers that want the micro-batches
    /// themselves (the `mtbench_throughput` example); the serving engine
    /// forms a round as a [`Scheduler::backfill_sorted_into`] into empty
    /// micro-batches, which prices and reports them in this same order.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Scheduler::backfill`].
    fn plan(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        let empty = vec![PartitionState::default(); cfg.num_micro_batches];
        self.backfill(queue, cfg, &empty).into_batching_result()
    }

    /// Like [`Scheduler::plan`], but `queue` is promised to already be in this
    /// scheduler's [`Scheduler::queue_order`] (see
    /// [`Scheduler::backfill_sorted`]). The serving engine's round-shape
    /// oracle checks its rounds against this method.
    fn plan_sorted(&self, queue: &[Request], cfg: &BatchingConfig) -> BatchingResult {
        let empty = vec![PartitionState::default(); cfg.num_micro_batches];
        self.backfill_sorted(queue, cfg, &empty)
            .into_batching_result()
    }
}

/// Admission order over the waiting queue (see [`Scheduler::queue_order`]).
///
/// Every order is *total* (ties ultimately break by request id), so a queue
/// kept in it is byte-identical to a full sort of the same requests, whatever
/// order they arrived in — the property the incremental
/// [`Scheduler::backfill_sorted`] path relies on. Arrival comparisons go
/// through [`moe_hardware::TimeKey`], so a NaN-stamped arrival orders
/// deterministically instead of comparing equal to everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueOrder {
    /// Longest prompt first (Algorithm 2's sort), ties by id.
    LongestPromptFirst,
    /// Arrival time, ties by id (first come, first served).
    Arrival,
    /// Shortest generation first, ties by prompt length then id.
    ShortestJobFirst,
    /// No declared order: the scheduler sorts internally on every call.
    Unordered,
}

impl QueueOrder {
    /// Compares two requests in this order. [`QueueOrder::Unordered`] compares
    /// by id alone (a stable fallback; schedulers declaring it never rely on
    /// caller-side ordering).
    pub fn cmp(self, a: &Request, b: &Request) -> std::cmp::Ordering {
        match self {
            QueueOrder::LongestPromptFirst => b.input_len.cmp(&a.input_len).then(a.id.cmp(&b.id)),
            QueueOrder::Arrival => (a.arrival.key(), a.id).cmp(&(b.arrival.key(), b.id)),
            QueueOrder::ShortestJobFirst => a
                .gen_len
                .cmp(&b.gen_len)
                .then(a.input_len.cmp(&b.input_len))
                .then(a.id.cmp(&b.id)),
            QueueOrder::Unordered => a.id.cmp(&b.id),
        }
    }

    /// Sorts `queue` into this order ([`QueueOrder::Unordered`] leaves it
    /// untouched).
    pub fn sort(self, queue: &mut [Request]) {
        if self != QueueOrder::Unordered {
            queue.sort_by(|a, b| self.cmp(a, b));
        }
    }
}

/// Placement rule for an admitted request.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// The eligible micro-batch with the fewest prompt tokens (Algorithm 2's
    /// balance criterion), ties by index.
    Balanced,
    /// The lowest-indexed eligible micro-batch (sequential fill).
    FirstFit,
    /// The eligible micro-batch with the fewest *requests*, ties by index —
    /// length-blind balance, the natural port of engines that schedule a flat
    /// batch and never weigh prompt lengths against pipeline stages.
    CountBalanced,
}

/// A built-in scheduler's whole strategy: the triple [`run_assignment`]
/// executes.
#[derive(Debug, Clone, Copy)]
struct Rule {
    /// Admission order over the queue.
    order: QueueOrder,
    /// Which eligible micro-batch an admitted request joins.
    placement: Placement,
    /// Charge each request the KV footprint of the longest prompt in the
    /// queue instead of its own (`FcfsPadded`'s padding waste); the charge is
    /// an upper bound on real usage, so budget invariants hold for actual
    /// sizes too.
    padded: bool,
}

/// Implements [`Scheduler`] for a built-in strategy from its one [`Rule`]:
/// `queue_order` reports the rule's order, `backfill` runs it on a copy of
/// the queue sorted in that order, and `backfill_sorted` and
/// `backfill_sorted_into` run it on the queue as given.
macro_rules! rule_scheduler {
    ($ty:ty, $name:literal, $rule:expr) => {
        impl $ty {
            const RULE: Rule = $rule;
        }

        impl Scheduler for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn queue_order(&self) -> QueueOrder {
                Self::RULE.order
            }

            fn backfill(
                &self,
                queue: &[Request],
                cfg: &BatchingConfig,
                occupied: &[PartitionState],
            ) -> BackfillResult {
                let mut sorted = queue.to_vec();
                Self::RULE.order.sort(&mut sorted);
                assign(&sorted, cfg, occupied, Self::RULE)
            }

            fn backfill_sorted(
                &self,
                queue: &[Request],
                cfg: &BatchingConfig,
                occupied: &[PartitionState],
            ) -> BackfillResult {
                assign(queue, cfg, occupied, Self::RULE)
            }

            fn backfill_sorted_into(
                &self,
                queue: &[Request],
                cfg: &BatchingConfig,
                occupied: &[PartitionState],
                out: &mut BackfillResult,
            ) {
                run_assignment(queue, cfg, occupied, Self::RULE, out)
            }
        }
    };
}

/// The working sets [`run_assignment`] keeps between calls on one thread:
/// the occupancy it admits into and the open and closed micro-batch index
/// lists. Reusing them keeps an admission pass from allocating them anew.
#[derive(Debug, Default)]
struct AssignmentScratch {
    state: Vec<PartitionState>,
    open: Vec<usize>,
    closed: Vec<usize>,
}

/// The shared assignment engine behind every built-in [`Scheduler`]:
/// admits `queue`, already sorted in `rule`'s order, under `rule` into
/// `out`. Every vector of `out` is cleared but keeps its capacity, so a
/// caller that reuses one result across passes allocates only when a pass
/// outgrows the previous ones.
fn run_assignment(
    queue: &[Request],
    cfg: &BatchingConfig,
    occupied: &[PartitionState],
    rule: Rule,
    out: &mut BackfillResult,
) {
    thread_local! {
        static SCRATCH: RefCell<AssignmentScratch> = RefCell::default();
    }
    let Rule {
        order,
        placement,
        padded,
    } = rule;
    assert!(cfg.num_micro_batches > 0, "need at least one micro-batch");
    assert!(
        cfg.max_requests_per_micro_batch > 0,
        "need a positive per-micro-batch capacity"
    );
    assert_eq!(
        occupied.len(),
        cfg.num_micro_batches,
        "need one occupancy entry per micro-batch"
    );

    let BackfillResult {
        assignments,
        deferred,
        filled_order,
    } = out;
    assignments.truncate(cfg.num_micro_batches);
    assignments.iter_mut().for_each(Vec::clear);
    assignments.resize_with(cfg.num_micro_batches, Vec::new);
    deferred.clear();
    filled_order.clear();

    let pad = if padded {
        queue.iter().map(|r| r.input_len).max().unwrap_or(0)
    } else {
        0
    };

    debug_assert!(
        queue.windows(2).all(|w| order.cmp(&w[0], &w[1]).is_lt()),
        "caller promised a queue sorted in {order:?} order"
    );

    let kv_cost = |r: &Request| {
        if padded {
            pad.max(r.input_len) + r.gen_len
        } else {
            r.max_context()
        }
    };

    let mut scratch = SCRATCH.take();
    let AssignmentScratch {
        state,
        open,
        closed,
    } = &mut scratch;
    state.clear();
    state.extend_from_slice(occupied);

    // The policy sizes `num_micro_batches` for a *full* batch; an underfilled
    // queue opens only as many micro-batches as its work requires — by request
    // slots and by total KV footprint — so small batches run as few, full
    // micro-batches instead of spreading thin across a pipeline depth chosen
    // for `N` requests. Micro-batches already holding in-flight requests stay
    // open regardless (continuous backfill), and a saturated queue opens all of
    // them, which is exactly the paper's Algorithm 2 setting. The KV term is a
    // bin-packing lower bound (fragmentation can need more bins), so the open
    // set also grows on demand below: a request no open micro-batch can hold
    // opens the next empty one rather than being deferred.
    let in_flight: usize = state.iter().map(|p| p.requests).sum();
    // Only the requests the total cap can still admit count towards the sizing
    // (in admission order); sizing on the full queue would re-open the whole
    // pipeline for work that cannot be scheduled this round.
    let admissible = queue
        .len()
        .min(cfg.max_scheduled_requests.saturating_sub(in_flight));
    let slots_needed = (in_flight + admissible).div_ceil(cfg.max_requests_per_micro_batch);
    let kv_needed: u64 = state.iter().map(|p| p.cache_tokens).sum::<u64>()
        + queue[..admissible].iter().map(kv_cost).sum::<u64>();
    let cache_slots_needed = if cfg.cache_tokens_per_micro_batch == 0 {
        cfg.num_micro_batches
    } else {
        kv_needed.div_ceil(cfg.cache_tokens_per_micro_batch) as usize
    };
    let target_open = slots_needed
        .max(cache_slots_needed)
        .max(1)
        .min(cfg.num_micro_batches);
    open.clear();
    open.extend((0..cfg.num_micro_batches).filter(|&i| state[i].requests > 0));
    let empty_needed = target_open.saturating_sub(open.len());
    closed.clear();
    closed.extend((0..cfg.num_micro_batches).filter(|&i| state[i].requests == 0));
    open.extend(closed.drain(..empty_needed.min(closed.len())));
    open.sort_unstable();

    let slot_capacity = cfg.num_micro_batches * cfg.max_requests_per_micro_batch;
    let mut scheduled = in_flight;
    for (pos, req) in queue.iter().copied().enumerate() {
        // Once the total-admission cap or every request slot is exhausted,
        // nothing further can ever be admitted — defer the rest in bulk
        // instead of probing each request against a saturated pipeline (the
        // common steady state of a loaded continuous-batching replica).
        if scheduled >= cfg.max_scheduled_requests || scheduled >= slot_capacity {
            deferred.extend_from_slice(&queue[pos..]);
            break;
        }
        let cost = kv_cost(&req);
        // Eligibility: a free request slot and KV headroom for this request.
        // Checking headroom *before* the placement choice is the spill behaviour:
        // a cache-saturated micro-batch never forces a defer while its neighbours
        // have room.
        let fits = |i: usize| {
            state[i].requests < cfg.max_requests_per_micro_batch
                && state[i].cache_tokens + cost <= cfg.cache_tokens_per_micro_batch
        };
        let target = match placement {
            Placement::Balanced => open
                .iter()
                .copied()
                .filter(|&i| fits(i))
                .min_by_key(|&i| (state[i].prompt_tokens, i)),
            Placement::FirstFit => open.iter().copied().find(|&i| fits(i)),
            Placement::CountBalanced => open
                .iter()
                .copied()
                .filter(|&i| fits(i))
                .min_by_key(|&i| (state[i].requests, i)),
        };
        let idx = match target {
            Some(idx) => idx,
            // No open micro-batch can hold the request: open the first closed
            // one that can (the up-front sizing is a lower bound). The same
            // `fits` check applies — a closed micro-batch may carry residual
            // KV reservations even with no requests in flight.
            None => match closed.iter().position(|&i| fits(i)) {
                Some(pos) => {
                    let next = closed.remove(pos);
                    open.push(next);
                    open.sort_unstable();
                    next
                }
                None => {
                    deferred.push(req);
                    continue;
                }
            },
        };
        state[idx].requests += 1;
        state[idx].prompt_tokens += req.input_len;
        state[idx].cache_tokens += cost;
        assignments[idx].push(req);
        scheduled += 1;
        if state[idx].requests == cfg.max_requests_per_micro_batch {
            filled_order.push(idx);
        }
    }
    SCRATCH.set(scratch);
}

/// Runs [`run_assignment`] into a fresh result.
fn assign(
    queue: &[Request],
    cfg: &BatchingConfig,
    occupied: &[PartitionState],
    rule: Rule,
) -> BackfillResult {
    let mut out = BackfillResult::default();
    run_assignment(queue, cfg, occupied, rule, &mut out);
    out
}

/// The paper's Algorithm 2 (Appendix A.2): requests sorted by prompt length
/// (descending) and greedily assigned to the micro-batch with the fewest prompt
/// tokens so far among those with KV headroom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Algorithm2;

rule_scheduler!(
    Algorithm2,
    "algo2",
    Rule {
        order: QueueOrder::LongestPromptFirst,
        placement: Placement::Balanced,
        padded: false,
    }
);

/// FlexGen-style fixed padded batches: requests admitted first come, first
/// served, each micro-batch filled to its request cap before the next opens,
/// and every request charged the KV-cache footprint of the *longest* prompt in
/// the queue (padding waste). No length sorting, no balancing.
///
/// The padded charge applies at each admission decision; a serving loop that
/// tracks reservations itself (e.g. continuous mode's [`PartitionState`]
/// accounting) records the *real* footprint for in-flight requests, so this
/// models FlexGen conservatively — a real padded engine would hold the padded
/// reservation for the request's whole lifetime. Round-to-completion mode,
/// where every round is planned from scratch, applies the padding in full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FcfsPadded;

rule_scheduler!(
    FcfsPadded,
    "fcfs-pad",
    Rule {
        order: QueueOrder::Arrival,
        placement: Placement::FirstFit,
        padded: true,
    }
);

/// Orca/vLLM-style greedy token-budget admission: requests admitted first come,
/// first served at their real (unpadded) KV footprint, each placed in the
/// micro-batch with the fewest requests that still has KV headroom. Those
/// engines schedule a flat batch with no micro-batch pipeline, so the port is
/// *length-blind*: it balances request counts but not prompt tokens, leaving
/// the KV-heavy straggler micro-batches Algorithm 2's token balance avoids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenBudget;

rule_scheduler!(
    TokenBudget,
    "token-budget",
    Rule {
        order: QueueOrder::Arrival,
        placement: Placement::CountBalanced,
        padded: false,
    }
);

/// Shortest-job-first: requests with the fewest tokens still to generate are
/// admitted first (ties broken by shorter prompt), with Algorithm 2's balanced
/// placement. Minimizes mean completion time at the cost of starving long
/// generations under sustained load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShortestJobFirst;

rule_scheduler!(
    ShortestJobFirst,
    "sjf",
    Rule {
        order: QueueOrder::ShortestJobFirst,
        placement: Placement::Balanced,
        padded: false,
    }
);

/// All built-in schedulers, in the order used by the Tab. 5 ablation.
pub fn builtin_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Algorithm2),
        Box::new(ShortestJobFirst),
        Box::new(TokenBudget),
        Box::new(FcfsPadded),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_ub: usize, ubs: usize, cache: u64) -> BatchingConfig {
        BatchingConfig {
            num_micro_batches: n_ub,
            max_requests_per_micro_batch: ubs,
            max_scheduled_requests: usize::MAX,
            cache_tokens_per_micro_batch: cache,
        }
    }

    fn req(id: u64, input: u64, gen: u64) -> Request {
        Request::new(id, input, gen)
    }

    #[test]
    fn scheduler_names_are_stable() {
        assert_eq!(Algorithm2.name(), "algo2");
        assert_eq!(FcfsPadded.name(), "fcfs-pad");
        assert_eq!(TokenBudget.name(), "token-budget");
        assert_eq!(ShortestJobFirst.name(), "sjf");
        let names: Vec<&str> = builtin_schedulers().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["algo2", "sjf", "token-budget", "fcfs-pad"]);
    }

    #[test]
    fn fcfs_fills_micro_batches_sequentially_in_arrival_order() {
        // Six equal requests, two micro-batches of three: FCFS puts 0,1,2 in the
        // first and 3,4,5 in the second, unlike Algorithm 2's balanced spread.
        let queue: Vec<Request> = (0..6).map(|i| req(i, 100, 10)).collect();
        let fill = FcfsPadded.backfill(
            &queue,
            &cfg(2, 3, u64::MAX),
            &[PartitionState::default(); 2],
        );
        let ids = |p: usize| fill.assignments[p].iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(0), vec![0, 1, 2]);
        assert_eq!(ids(1), vec![3, 4, 5]);
    }

    #[test]
    fn fcfs_padded_charges_every_request_at_the_longest_prompt() {
        // Budget 1100 fits two padded requests (2 × (500+50) = 1100) per
        // micro-batch even though the short requests only need 100+50 each.
        let queue = vec![req(0, 500, 50), req(1, 100, 50), req(2, 100, 50)];
        let result = FcfsPadded.plan(&queue, &cfg(1, 8, 1100));
        assert_eq!(result.scheduled_requests(), 2);
        assert_eq!(result.aborted.len(), 1);
        // The unpadded token-budget scheduler fits all three (500+50 + 2×150).
        let result = TokenBudget.plan(&queue, &cfg(1, 8, 1100));
        assert_eq!(result.scheduled_requests(), 3);
    }

    #[test]
    fn token_budget_keeps_arrival_order_not_length_order() {
        // A long request arriving last must not jump the queue.
        let queue = vec![req(0, 10, 10), req(1, 20, 10), req(2, 400, 10)];
        let fill = TokenBudget.backfill(
            &queue,
            &cfg(1, 2, u64::MAX),
            &[PartitionState::default(); 1],
        );
        let admitted: Vec<u64> = fill.assignments[0].iter().map(|r| r.id).collect();
        assert_eq!(admitted, vec![0, 1]);
        assert_eq!(fill.deferred[0].id, 2);
        // Algorithm 2 admits the long one first instead.
        let fill = Algorithm2.backfill(
            &queue,
            &cfg(1, 2, u64::MAX),
            &[PartitionState::default(); 1],
        );
        assert!(fill.assignments[0].iter().any(|r| r.id == 2));
    }

    #[test]
    fn shortest_job_first_admits_short_generations_first() {
        let queue = vec![req(0, 100, 200), req(1, 100, 10), req(2, 100, 50)];
        let fill = ShortestJobFirst.backfill(
            &queue,
            &cfg(1, 2, u64::MAX),
            &[PartitionState::default(); 1],
        );
        let admitted: Vec<u64> = fill.assignments[0].iter().map(|r| r.id).collect();
        assert_eq!(admitted, vec![1, 2], "shortest gen_len goes first");
        assert_eq!(fill.deferred[0].id, 0);
    }

    #[test]
    fn shortest_job_first_balances_like_algorithm_2() {
        // 8 requests at 2 per micro-batch fill all 4 micro-batches evenly.
        let queue: Vec<Request> = (0..8).map(|i| req(i, 100, 10)).collect();
        let fill = ShortestJobFirst.backfill(
            &queue,
            &cfg(4, 2, u64::MAX),
            &[PartitionState::default(); 4],
        );
        assert!(fill.assignments.iter().all(|a| a.len() == 2));
    }

    #[test]
    fn plan_emits_full_micro_batches_before_partial_ones() {
        // 7 requests, ubs 3: FCFS fills mb0 and mb1 fully, mb2 gets one.
        let queue: Vec<Request> = (0..7).map(|i| req(i, 50, 5)).collect();
        let result = FcfsPadded.plan(&queue, &cfg(3, 3, u64::MAX));
        assert_eq!(result.micro_batches.len(), 3);
        assert_eq!(result.micro_batches[0].len(), 3);
        assert_eq!(result.micro_batches[1].len(), 3);
        assert_eq!(result.micro_batches[2].len(), 1);
    }

    #[test]
    fn open_set_grows_on_demand_when_kv_fragmentation_needs_more_micro_batches() {
        // ceil(total KV / budget) says 6 micro-batches suffice for 10 requests
        // of 600 KV tokens under a 1000-token budget, but each micro-batch can
        // physically hold only one such request — the scheduler must open the
        // remaining empty micro-batches instead of deferring feasible work.
        let queue: Vec<Request> = (0..10).map(|i| req(i, 500, 100)).collect();
        for scheduler in builtin_schedulers() {
            let result = scheduler.plan(&queue, &cfg(8, 8, 1000));
            assert_eq!(
                result.scheduled_requests(),
                8,
                "{}: every micro-batch must be usable",
                scheduler.name()
            );
            assert_eq!(result.aborted.len(), 2);
            assert_eq!(result.micro_batches.len(), 8);
        }
    }

    #[test]
    fn every_scheduler_defers_beyond_the_total_cap() {
        let queue: Vec<Request> = (0..20).map(|i| req(i, 50, 5)).collect();
        let mut config = cfg(4, 8, u64::MAX);
        config.max_scheduled_requests = 10;
        for scheduler in builtin_schedulers() {
            let result = scheduler.plan(&queue, &config);
            assert_eq!(
                result.scheduled_requests(),
                10,
                "{} must admit exactly the cap",
                scheduler.name()
            );
            assert_eq!(result.aborted.len(), 10);
        }
    }

    #[test]
    fn open_set_sizing_counts_only_the_admissible_prefix() {
        // A total cap of 8 admits one micro-batch's worth of requests; sizing on
        // the full 64-request queue would open all 8 micro-batches and spread
        // the 8 admitted requests one per micro-batch.
        let queue: Vec<Request> = (0..64).map(|i| req(i, 50, 5)).collect();
        let mut config = cfg(8, 8, u64::MAX);
        config.max_scheduled_requests = 8;
        let result = Algorithm2.plan(&queue, &config);
        assert_eq!(result.scheduled_requests(), 8);
        assert_eq!(
            result.micro_batches.len(),
            1,
            "a capped admission must stay concentrated"
        );
        assert_eq!(result.micro_batches[0].len(), 8);
    }

    #[test]
    fn reopening_a_micro_batch_respects_residual_kv_reservations() {
        // A micro-batch with no in-flight requests can still carry KV
        // reservations (e.g. zero-gen requests completing at prefill). Opening
        // it on demand must apply the same headroom check as any placement.
        let occupied = [
            PartitionState {
                requests: 1,
                prompt_tokens: 200,
                cache_tokens: 250,
            },
            PartitionState {
                requests: 1,
                prompt_tokens: 200,
                cache_tokens: 250,
            },
            PartitionState {
                requests: 0,
                prompt_tokens: 0,
                cache_tokens: 300,
            },
        ];
        let big = req(0, 900, 100); // cost 1000
        for scheduler in builtin_schedulers() {
            let fill = scheduler.backfill(&[big], &cfg(3, 8, 1200), &occupied);
            assert_eq!(
                fill.admitted(),
                0,
                "{}: no micro-batch has 1000 tokens of headroom",
                scheduler.name()
            );
            assert_eq!(fill.deferred.len(), 1);
        }
        // With a lighter residual reservation, the same on-demand opening
        // admits the request into the reopened micro-batch.
        let mut light = occupied;
        light[2].cache_tokens = 100; // headroom 1100 >= cost 1000
        let fill = Algorithm2.backfill(&[big], &cfg(3, 8, 1200), &light);
        assert_eq!(fill.admitted(), 1);
        assert_eq!(fill.assignments[2].len(), 1);
    }

    #[test]
    fn queue_orders_are_declared_and_total() {
        assert_eq!(Algorithm2.queue_order(), QueueOrder::LongestPromptFirst);
        assert_eq!(FcfsPadded.queue_order(), QueueOrder::Arrival);
        assert_eq!(TokenBudget.queue_order(), QueueOrder::Arrival);
        assert_eq!(ShortestJobFirst.queue_order(), QueueOrder::ShortestJobFirst);
        // A total order sorts every permutation of a queue identically.
        let queue = vec![req(3, 50, 5), req(0, 500, 2), req(1, 50, 9), req(2, 120, 5)];
        for order in [
            QueueOrder::LongestPromptFirst,
            QueueOrder::Arrival,
            QueueOrder::ShortestJobFirst,
        ] {
            let mut sorted = queue.clone();
            order.sort(&mut sorted);
            let mut reversed: Vec<Request> = queue.iter().rev().copied().collect();
            order.sort(&mut reversed);
            let ids = |v: &[Request]| v.iter().map(|r| r.id).collect::<Vec<_>>();
            assert_eq!(ids(&reversed), ids(&sorted), "{order:?}");
        }
    }

    #[test]
    fn backfill_sorted_matches_backfill_for_every_scheduler() {
        let queue: Vec<Request> = (0..40)
            .map(|i| req(i, 37 + (i * 97) % 400, (i * 13) % 64))
            .collect();
        let occupied = [
            PartitionState {
                requests: 2,
                prompt_tokens: 300,
                cache_tokens: 400,
            },
            PartitionState::default(),
            PartitionState::default(),
        ];
        let config = cfg(3, 4, 2_000);
        for scheduler in builtin_schedulers() {
            let mut sorted = queue.clone();
            scheduler.queue_order().sort(&mut sorted);
            let fast = scheduler.backfill_sorted(&sorted, &config, &occupied);
            let slow = scheduler.backfill(&queue, &config, &occupied);
            assert_eq!(
                fast,
                slow,
                "{}: the presorted path must be byte-identical",
                scheduler.name()
            );
        }
    }

    #[test]
    fn saturated_pipelines_defer_the_tail_in_order() {
        // Every slot is taken: the early-exit bulk deferral must return the
        // whole queue, in admission order, exactly like the per-item path.
        let queue: Vec<Request> = (0..30).map(|i| req(i, 60 + i, 5)).collect();
        let full = [PartitionState {
            requests: 4,
            prompt_tokens: 100,
            cache_tokens: 100,
        }; 2];
        for scheduler in builtin_schedulers() {
            let fill = scheduler.backfill(&queue, &cfg(2, 4, 10_000), &full);
            assert_eq!(fill.admitted(), 0, "{}", scheduler.name());
            assert_eq!(fill.deferred.len(), 30);
            let mut expected = queue.clone();
            scheduler.queue_order().sort(&mut expected);
            assert_eq!(
                fill.deferred.iter().map(|r| r.id).collect::<Vec<_>>(),
                expected.iter().map(|r| r.id).collect::<Vec<_>>(),
                "{}: deferral keeps admission order",
                scheduler.name()
            );
        }
    }

    #[test]
    fn trait_objects_are_usable_through_dyn_dispatch() {
        let scheduler: &dyn Scheduler = &Algorithm2;
        let queue = vec![req(0, 10, 5)];
        let result = scheduler.plan(&queue, &cfg(2, 4, 1000));
        assert_eq!(result.scheduled_requests(), 1);
        assert!(format!("{scheduler:?}").contains("Algorithm2"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_requests() -> impl Strategy<Value = Vec<Request>> {
        proptest::collection::vec((1u64..2048, 1u64..256), 1..120).prop_map(|v| {
            v.into_iter()
                .enumerate()
                .map(|(i, (input_len, gen_len))| Request::new(i as u64, input_len, gen_len))
                .collect()
        })
    }

    /// A random but *consistent* pre-occupancy: per micro-batch, at most the
    /// request cap and at most the cache budget already in use.
    fn arbitrary_occupancy(
        n_ub: usize,
        ubs: usize,
        cache: u64,
    ) -> impl Strategy<Value = Vec<PartitionState>> {
        proptest::collection::vec((0f64..1.0, 0f64..1.0), n_ub).prop_map(move |v| {
            v.into_iter()
                .map(|(rf, cf)| {
                    let requests = (rf * ubs as f64) as usize;
                    let cache_tokens = (cf * cache as f64) as u64;
                    PartitionState {
                        requests,
                        prompt_tokens: cache_tokens / 2,
                        cache_tokens,
                    }
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Invariant 1: request conservation. Every input request comes back
        /// exactly once, admitted or aborted, from every scheduler.
        #[test]
        fn every_scheduler_conserves_requests(
            reqs in arbitrary_requests(),
            n_ub in 1usize..8,
            ubs in 1usize..32,
            cache in 100u64..50_000,
            cap in 1usize..256,
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: cap,
                cache_tokens_per_micro_batch: cache,
            };
            for scheduler in builtin_schedulers() {
                let result = scheduler.plan(&reqs, &cfg);
                let mut seen: Vec<u64> = result
                    .micro_batches
                    .iter()
                    .flat_map(|mb| mb.requests.iter().map(|r| r.id))
                    .chain(result.aborted.iter().map(|r| r.id))
                    .collect();
                seen.sort_unstable();
                let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
                expected.sort_unstable();
                prop_assert_eq!(seen, expected, "{} lost or duplicated requests", scheduler.name());
            }
        }

        /// Invariant 2: capacity. No scheduler exceeds the per-micro-batch
        /// request cap, the per-micro-batch KV budget, or the total cap.
        #[test]
        fn every_scheduler_respects_all_caps(
            reqs in arbitrary_requests(),
            n_ub in 1usize..8,
            ubs in 1usize..32,
            cache in 500u64..50_000,
            cap in 1usize..256,
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: cap,
                cache_tokens_per_micro_batch: cache,
            };
            for scheduler in builtin_schedulers() {
                let result = scheduler.plan(&reqs, &cfg);
                prop_assert!(result.scheduled_requests() <= cap);
                prop_assert!(result.micro_batches.len() <= n_ub);
                for mb in &result.micro_batches {
                    prop_assert!(mb.len() <= ubs, "{}: {} > ubs {}", scheduler.name(), mb.len(), ubs);
                    prop_assert!(
                        mb.max_cache_tokens() <= cache,
                        "{}: micro-batch needs {} KV tokens, budget {}",
                        scheduler.name(), mb.max_cache_tokens(), cache
                    );
                }
            }
        }

        /// Incremental path: `backfill_sorted` on a pre-sorted queue is
        /// byte-identical to `backfill` on the unsorted one, for every
        /// scheduler, arbitrary queues and occupancies.
        #[test]
        fn backfill_sorted_is_equivalent_to_backfill(
            (reqs, n_ub, ubs, cache, cap, occupied) in (
                arbitrary_requests(),
                1usize..6,
                1usize..24,
                1_000u64..40_000,
                1usize..160,
            )
                .prop_flat_map(|(reqs, n_ub, ubs, cache, cap)| {
                    (
                        Just(reqs),
                        Just(n_ub),
                        Just(ubs),
                        Just(cache),
                        Just(cap),
                        arbitrary_occupancy(n_ub, ubs, cache),
                    )
                }),
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: cap,
                cache_tokens_per_micro_batch: cache,
            };
            for scheduler in builtin_schedulers() {
                let mut sorted = reqs.clone();
                scheduler.queue_order().sort(&mut sorted);
                let fast = scheduler.backfill_sorted(&sorted, &cfg, &occupied);
                let slow = scheduler.backfill(&reqs, &cfg, &occupied);
                prop_assert_eq!(fast, slow, "{} diverged on the presorted path", scheduler.name());
            }
        }

        /// Into-buffer path: `backfill_sorted_into` over a dirty buffer — the
        /// result of an earlier call with a different micro-batch count and
        /// queue — equals `backfill_sorted` field for field, for every
        /// scheduler, the order of `deferred` and `filled_order` included.
        #[test]
        fn backfill_sorted_into_a_dirty_buffer_matches_backfill_sorted(
            (reqs, n_ub, ubs, cache, cap, occupied) in (
                arbitrary_requests(),
                1usize..6,
                1usize..24,
                1_000u64..40_000,
                1usize..160,
            )
                .prop_flat_map(|(reqs, n_ub, ubs, cache, cap)| {
                    (
                        Just(reqs),
                        Just(n_ub),
                        Just(ubs),
                        Just(cache),
                        Just(cap),
                        arbitrary_occupancy(n_ub, ubs, cache),
                    )
                }),
            stale_reqs in arbitrary_requests(),
            shift in 1usize..7,
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: cap,
                cache_tokens_per_micro_batch: cache,
            };
            // 1..=8 micro-batches, never `n_ub`: the stale buffer holds more
            // or fewer assignment vectors than the call that reuses it.
            let stale_n_ub = (n_ub + shift) % 8 + 1;
            let stale_cfg = BatchingConfig {
                num_micro_batches: stale_n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: usize::MAX,
                cache_tokens_per_micro_batch: 1 << 20,
            };
            for scheduler in builtin_schedulers() {
                let order = scheduler.queue_order();
                let mut stale = stale_reqs.clone();
                order.sort(&mut stale);
                let mut out = BackfillResult::default();
                scheduler.backfill_sorted_into(
                    &stale,
                    &stale_cfg,
                    &vec![PartitionState::default(); stale_n_ub],
                    &mut out,
                );
                prop_assert!(out.admitted() > 0, "the stale buffer must hold admissions");
                let mut sorted = reqs.clone();
                order.sort(&mut sorted);
                scheduler.backfill_sorted_into(&sorted, &cfg, &occupied, &mut out);
                let expected = scheduler.backfill_sorted(&sorted, &cfg, &occupied);
                prop_assert_eq!(out, expected, "{} diverged into a reused buffer", scheduler.name());
            }
        }

        /// Invariant 3: backfill over a partially occupied pipeline (a scheduling
        /// event mid-flight) keeps every per-micro-batch limit and the total cap,
        /// counting the in-flight requests.
        #[test]
        fn every_scheduler_backfills_within_budget_at_scheduling_events(
            (reqs, n_ub, ubs, cache, cap, occupied) in (
                arbitrary_requests(),
                1usize..6,
                1usize..24,
                1_000u64..40_000,
                1usize..160,
            )
                .prop_flat_map(|(reqs, n_ub, ubs, cache, cap)| {
                    (
                        Just(reqs),
                        Just(n_ub),
                        Just(ubs),
                        Just(cache),
                        Just(cap),
                        arbitrary_occupancy(n_ub, ubs, cache),
                    )
                }),
        ) {
            let cfg = BatchingConfig {
                num_micro_batches: n_ub,
                max_requests_per_micro_batch: ubs,
                max_scheduled_requests: cap,
                cache_tokens_per_micro_batch: cache,
            };
            let in_flight: usize = occupied.iter().map(|p| p.requests).sum();
            for scheduler in builtin_schedulers() {
                let fill = scheduler.backfill(&reqs, &cfg, &occupied);
                // Conservation at the event: admitted + deferred = queue.
                prop_assert_eq!(fill.admitted() + fill.deferred.len(), reqs.len());
                // Total cap counts the in-flight requests.
                prop_assert!(
                    in_flight + fill.admitted() <= cap.max(in_flight),
                    "{}: {} in flight + {} admitted > cap {}",
                    scheduler.name(), in_flight, fill.admitted(), cap
                );
                for (i, admitted) in fill.assignments.iter().enumerate() {
                    prop_assert!(occupied[i].requests + admitted.len() <= ubs);
                    // Real KV usage never exceeds the budget (padded schedulers
                    // charge an upper bound, so this holds a fortiori).
                    let added: u64 = admitted.iter().map(Request::max_context).sum();
                    prop_assert!(
                        occupied[i].cache_tokens + added <= cache,
                        "{}: micro-batch {} holds {} + {} new > budget {}",
                        scheduler.name(), i, occupied[i].cache_tokens, added, cache
                    );
                }
            }
        }
    }
}
