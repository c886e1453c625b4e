//! The one serving engine: `ReplicaEngine`, the crate-private per-replica
//! event machine every serving path in this crate runs on.
//!
//! One driver loop runs it: [`crate::cluster::ClusterEvaluator::run`], the
//! one entry into the fleet layer, interleaves the engines on one *global*
//! clock behind a [`crate::router::Router`]; single-node serving
//! ([`crate::SystemEvaluator::run`]) calls it on a 1-replica fleet. Every
//! engine is built by the loop's one private constructor, for the initial
//! fleet and for joiners alike.
//!
//! The engine exposes serving as a discrete-event interface: `enqueue`, the
//! one way to queue work, accepts a routed request or a landed KV migration
//! in its `Phase` and arms the next admission instant,
//! `next_event` reports the earliest pending internal event (a per-request
//! completion, a round retirement or a due admission), and `step_to`
//! settles everything due at that instant —
//! admitting waves through the pluggable [`Scheduler`], costing prefills and
//! decode steps on the simulated pipeline, and releasing per-request latency
//! records at each request's own completion step. An entry queued as
//! `Phase::PrefillOnly` runs its prompt wave only and is released as a
//! `Finished::Handoff` of the original request, never as a latency record.
//! The engine keeps no copy of the KV on the wire to it: the agenda does.
//!
//! Both [`crate::ServingMode`]s form their waves through one admission pass:
//! one [`Scheduler::backfill_sorted_into`] call against the replica's
//! per-micro-batch partition ledger, one prompt-pass price (cold on an empty
//! pipeline, a backfill otherwise; a round is always cold) and one booking
//! step for the wave's [`RoundReport`]. Round-to-completion keeps only what
//! is its own: one decode step priced per round, the per-request release
//! list, the round's end and the billing truncation on failure. Wave
//! costing, KV release, backfill and latency bookkeeping have no second copy
//! (`tests/self_check.rs` pins the reports against committed fixtures).

use crate::disagg::{PrefixCache, ReplicaRole};
use crate::evaluator::{EngineError, SystemEvaluator};
use crate::router::{ReplicaId, ReplicaView};
use crate::serving::{RoundReport, ServingMode, ServingReport};
use crate::system::SystemKind;
use moe_hardware::Seconds;
use moe_policy::{Policy, WorkloadShape};
use moe_telemetry::{Section, SpanReport};
use moe_workload::{
    BackfillResult, BatchRunReport, BatchingConfig, BatchingConfigError, PartitionState,
    QueueOrder, Request, RequestLatency, Scheduler,
};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The Algorithm 2 batching limits a policy implies for a workload shape.
///
/// The KV budget the schedulers enforce per micro-batch is exactly the
/// reservation the moe-policy capacity model sized the policy with:
/// `batch_size × max_context` cache tokens, split evenly across the policy's
/// micro-batches. The total request cap never exceeds the batch the capacity
/// model admitted, even when `batch_size` is not a multiple of
/// `micro_batch_size` (n_ub × μ > N). Applied once per engine, by the fleet
/// loop's engine constructor, which surfaces an overflowing KV budget or a
/// limit [`BatchingConfig::validate`] rejects as a typed error.
pub(crate) fn batching_for(
    policy: &Policy,
    shape: &WorkloadShape,
) -> Result<BatchingConfig, BatchingConfigError> {
    let n_ub = policy.num_micro_batches();
    let cache_tokens = policy
        .batch_size
        .checked_mul(shape.max_context())
        .ok_or(BatchingConfigError::CacheBudgetOverflow)?;
    let batching = BatchingConfig {
        num_micro_batches: n_ub as usize,
        max_requests_per_micro_batch: policy.micro_batch_size as usize,
        max_scheduled_requests: policy.batch_size as usize,
        cache_tokens_per_micro_batch: cache_tokens.div_ceil(n_ub),
    };
    batching.validate()?;
    Ok(batching)
}

/// Mean decode context of one micro-batch: `(prompt + end-of-generation KV) /
/// 2` per request — the token balance the scheduler produced, fed to the
/// simulator so KV-heavy micro-batches straggle. Lives next to the engine so
/// the costing cannot drift between serving paths.
pub(crate) fn mean_decode_context(prompt_tokens: u64, cache_tokens: u64, requests: u64) -> u64 {
    (prompt_tokens + cache_tokens)
        .div_ceil(2 * requests.max(1))
        .max(1)
}

/// One in-flight request in a replica's continuous-batching pipeline. Its
/// decode progress lives in the [`Progress`] entry at the same index.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    request: Request,
    partition: usize,
    first_token: Option<Seconds>,
    decode_start: Seconds,
    wave: usize,
}

/// How far one in-flight request is from done, against the replica's decode
/// step counter: it has produced its last token once `decoded` reaches
/// `finish`. Kept in a dense array parallel to the in-flight set, so the
/// per-event scans (retirement, the minimum remaining, the longest
/// generation) read two words per request.
#[derive(Debug, Clone, Copy)]
struct Progress {
    finish: u64,
    gen_len: u64,
}

/// A round-to-completion request whose completion instant is already known:
/// its latency record is released (and the router told) when the global clock
/// reaches `at`, not in bulk at round retirement.
#[derive(Debug, Clone, Copy)]
struct PendingCompletion {
    latency: RequestLatency,
    at: Seconds,
}

/// Where a replica is in its life: not yet up, serving, finishing in-flight
/// work without taking new requests, or gone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Lifecycle {
    /// Provisioned (by a timeline join or an autoscaler scale-up) but not yet
    /// serving; becomes [`Lifecycle::Serving`] at `ready_at`.
    Provisioning { ready_at: Seconds },
    /// In the routing views, taking and serving requests.
    Serving,
    /// No longer offered to the router; finishes in-flight work, then departs.
    Draining { since: Seconds },
    /// Left the fleet (failure, completed drain, or cancelled join).
    Departed { at: Seconds },
}

/// Which part of a request's serving an engine entry runs. The fleet picks
/// it; the engine never looks at replica roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Prompt wave and every decode step: the request completes here.
    Full,
    /// Prompt wave only: the scheduler and the costing see the request with
    /// no generation, and its end is a [`Finished::Handoff`].
    PrefillOnly,
    /// A landed migration: the whole prompt is credited, no cache lookup.
    DecodeOnly,
}

/// One entry released by [`ReplicaEngine::step_to`], in release order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Finished {
    /// A full-phase request completed here.
    Served(RequestLatency),
    /// A prefill-only entry finished its prompt wave at `at`: `request` is
    /// the original, generation-bearing request, ready for KV migration.
    Handoff { request: Request, at: Seconds },
}

/// Buffers one fleet run keeps for every replica event, shared by all its
/// replicas: what [`ReplicaEngine::step_to`] released, the run's
/// self-profile, the scheduler's backfill result, the order the admitted
/// wave's partitions are priced and reported in, and the per-micro-batch
/// occupancies and mean contexts a decode step is priced at. Reusing them
/// keeps an admission pass or a step pricing from allocating anew.
#[derive(Debug, Default)]
pub(crate) struct EventScratch {
    /// Released entries, in release order; the fleet loop drains it after
    /// each step.
    pub(crate) finished: Vec<Finished>,
    /// The run's one self-profile ledger, indexed by `section as usize`:
    /// the fleet loop's sections and every engine's scheduler planning
    /// write into it. Present only when a telemetry sink is attached, so
    /// unobserved runs never touch the clock (see [`crate::observe`]).
    pub(crate) profile: Option<[SpanReport; Section::ALL.len()]>,
    fill: BackfillResult,
    order: Vec<usize>,
    occupancy: Vec<u64>,
    contexts: Vec<u64>,
}

impl EventScratch {
    /// Fresh buffers, with a zeroed self-profile ledger when the run is
    /// `profiled`.
    pub(crate) fn new(profiled: bool) -> Self {
        EventScratch {
            profile: profiled.then(Default::default),
            ..EventScratch::default()
        }
    }
}

/// What one admission pass admitted: the wave's accounting (decode terms
/// still zero), its admission instant and its longest generation.
struct Wave {
    report: BatchRunReport,
    admitted_at: Seconds,
    max_gen: u64,
}

/// The per-replica serving state machine: both serving modes expressed as an
/// event interface ([`Self::next_event`] / [`Self::step_to`]) so the fleet
/// loop can interleave any number of replicas, one included, on one global
/// clock.
pub(crate) struct ReplicaEngine {
    pub(crate) id: ReplicaId,
    /// The costing stack of the replica's node, shared by every replica of
    /// that node in the run.
    pub(crate) evaluator: Rc<SystemEvaluator>,
    pub(crate) system: SystemKind,
    pub(crate) scheduler: Arc<dyn Scheduler>,
    pub(crate) policy: Policy,
    pub(crate) batching: BatchingConfig,
    pub(crate) mode: ServingMode,
    pub(crate) lifecycle: Lifecycle,
    /// The disaggregated pool this replica serves in ([`ReplicaRole::Unified`]
    /// outside disaggregated runs). The engine itself is role-oblivious — the
    /// fleet layer routes arrivals and migrations by role; the only
    /// engine-side effects are which requests are ever offered here, and in
    /// which [`Phase`].
    pub(crate) role: ReplicaRole,
    /// Per-replica prefix cache, when the cluster enables one. Consulted at
    /// [`Self::enqueue`] but for [`Phase::DecodeOnly`] (a hit credits the
    /// matched tokens) and fed at admission; `None` keeps the costing
    /// bit-for-bit the classic full-prefill path.
    pub(crate) prefix_cache: Option<PrefixCache>,
    /// Prefill tokens already resident per queued request id — from a prefix
    /// cache hit or a completed KV migration. Consumed (removed) at
    /// admission, where the credited tokens are skipped in prefill costing
    /// only: decode still pays the full context. Dropped for requests a
    /// `fail`/`begin_drain` returns (see `return_unserved`).
    prefill_credit: HashMap<u64, u64>,
    /// The original request per queued or admitted [`Phase::PrefillOnly`]
    /// entry (whose engine-side copy carries no generation), until the entry
    /// is handed off or leaves unserved: no other copy ever leaves.
    prefill_only: HashMap<u64, Request>,
    /// EWMA of the replica's decode rate in tokens/s (zero until the first
    /// decode step) — the router-visible speed signal.
    decode_rate: f64,
    // Dynamic state.
    clock: Seconds,
    segment_start: Seconds,
    step: Seconds,
    /// The KV ledger, one entry per micro-batch: the requests decoding in it
    /// (continuous mode) or the open round's (round-to-completion, reset
    /// when the round ends or the replica fails).
    parts: Vec<PartitionState>,
    active: Vec<InFlight>,
    /// Decode progress per in-flight request, parallel to `active`.
    progress: Vec<Progress>,
    /// Decode steps run so far (continuous mode): every in-flight request
    /// advances with it, so a step touches no per-request state.
    decoded: u64,
    /// `active[fresh_from..]` are the requests admitted since the last
    /// decode step, the ones still waiting for their first token.
    fresh_from: usize,
    /// Waiting queue, kept in `queue_order` so admission passes can use the
    /// scheduler's presorted fast path ([`Scheduler::backfill_sorted`]).
    /// Arrivals are appended and the order restored lazily (`settle_ready`)
    /// before each scheduling pass; `ready_dirty` marks an out-of-order tail.
    ready: Vec<Request>,
    ready_dirty: bool,
    queue_order: QueueOrder,
    // Incrementally-maintained aggregates that make `view()` O(1): the
    // waiting queue's end-of-generation token projection, its total
    // generation length (the admission controller's TTFT numerator), its
    // oldest arrival, and the tokens still to decode across active requests
    // (continuous mode) or the open round's undelivered ones
    // (round-to-completion).
    ready_tokens: u64,
    ready_gen: u64,
    ready_oldest: Option<Seconds>,
    active_remaining: u64,
    /// Minimum `finish` over `progress` (`u64::MAX` when nothing is in
    /// flight). Lowered at admission and recomputed by the retirement scan,
    /// so `next_event` — called once per driver iteration, including every
    /// arrival ingest — stays O(1) instead of re-scanning the in-flight set.
    active_min_finish: u64,
    /// Maximum `gen_len` over `progress`, kept the same way: the generation
    /// length a decode step is priced at.
    active_max_gen: u64,
    /// The decode-step latency has not been re-derived since the last
    /// membership change: costing is deferred while an admission re-pass is
    /// armed at the current instant, so intermediate wave states are never
    /// simulated.
    step_stale: bool,
    pending_admission: Option<Seconds>,
    round_end: Option<Seconds>,
    /// The open round's unreleased completions, latest first.
    in_round: Vec<PendingCompletion>,
    /// The last priced decode step's rate in tokens/s (its concurrency over
    /// its latency; `None` before the first step and after a step with no
    /// request or no positive latency): the admission controller's TTFT
    /// estimator and the newest sample of `decode_rate`.
    recent_rate: Option<f64>,
    // Accounting.
    rounds: Vec<RoundReport>,
    latencies: Vec<RequestLatency>,
    /// Requests refused by a round that admitted nothing into an empty
    /// pipeline, in refusal order.
    aborted: Vec<Request>,
    totals: BatchRunReport,
}

impl ReplicaEngine {
    /// Creates an idle serving engine for one replica: `policy` and `batching`
    /// are the replica's sized capacity plan (see `batching_for`), `scheduler`
    /// its batch-formation strategy, and `evaluator` the costing stack for its
    /// hardware node. The engine starts in the serving lifecycle at clock zero
    /// with an empty queue.
    pub(crate) fn new(
        id: ReplicaId,
        evaluator: Rc<SystemEvaluator>,
        system: SystemKind,
        policy: Policy,
        batching: BatchingConfig,
        mode: ServingMode,
        scheduler: Arc<dyn Scheduler>,
    ) -> Self {
        let parts = vec![PartitionState::default(); batching.num_micro_batches];
        let queue_order = scheduler.queue_order();
        ReplicaEngine {
            id,
            evaluator,
            system,
            scheduler,
            policy,
            batching,
            mode,
            lifecycle: Lifecycle::Serving,
            role: ReplicaRole::Unified,
            prefix_cache: None,
            prefill_credit: HashMap::new(),
            prefill_only: HashMap::new(),
            decode_rate: 0.0,
            clock: Seconds::ZERO,
            segment_start: Seconds::ZERO,
            step: Seconds::ZERO,
            parts,
            active: Vec::new(),
            progress: Vec::new(),
            decoded: 0,
            fresh_from: 0,
            ready: Vec::new(),
            ready_dirty: false,
            queue_order,
            ready_tokens: 0,
            ready_gen: 0,
            ready_oldest: None,
            active_remaining: 0,
            active_min_finish: u64::MAX,
            active_max_gen: 0,
            step_stale: false,
            pending_admission: None,
            round_end: None,
            in_round: Vec::new(),
            recent_rate: None,
            rounds: Vec::new(),
            latencies: Vec::new(),
            aborted: Vec::new(),
            totals: BatchRunReport::default(),
        }
    }

    /// The engine's current clock (the instant of the last settled event).
    pub(crate) fn now(&self) -> Seconds {
        self.clock
    }

    /// The requests [`Self::into_report`] reports aborted if the run ends
    /// here: those refused by an empty-pipeline round, then the waiting
    /// queue in scheduler order (no further event can admit it).
    pub(crate) fn aborted_requests(&mut self) -> impl Iterator<Item = &Request> {
        self.settle_ready();
        self.aborted.iter().chain(&self.ready)
    }

    /// Whether the replica is in the routing views (serving, not draining or
    /// provisioning).
    pub(crate) fn is_serving(&self) -> bool {
        self.lifecycle == Lifecycle::Serving
    }

    /// Whether a draining replica has finished its last in-flight request and
    /// should leave the fleet.
    pub(crate) fn drain_finished(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Draining { .. }) && self.is_idle()
    }

    /// No queued, decoding or in-round work.
    fn is_idle(&self) -> bool {
        self.ready.is_empty()
            && self.active.is_empty()
            && self.in_round.is_empty()
            && self.round_end.is_none()
    }

    /// Projected queue-aware TTFT for a request routed here: the work ahead
    /// of it in *slot* terms. Every completion frees the slot the queue head
    /// takes, so a request behind `k` queued requests waits for roughly their
    /// generation tokens to be produced at the decode rate of the last
    /// priced step (`recent_rate`: concurrency / step latency). Requests
    /// already decoding drain in parallel and are not ahead of it in the slot
    /// queue. Optimistically zero for a cold replica with no step history —
    /// admission control should not reject into an idle fleet.
    pub(crate) fn projected_ttft(&self) -> Seconds {
        let queued_gen: u64 = self.ready_gen;
        if queued_gen == 0 {
            return Seconds::ZERO;
        }
        match self.recent_rate {
            Some(rate) => Seconds::from_secs(queued_gen as f64 / rate),
            None => Seconds::ZERO,
        }
    }

    /// Removes one admitted-but-unfinished request's contribution from the
    /// wave it was admitted in (and the totals): its tokens were never
    /// delivered. The time already billed stays — wasted work is real.
    fn unwind_admission(&mut self, wave: usize, request: &Request) {
        let report = &mut self.rounds[wave].report;
        report.requests = report.requests.saturating_sub(1);
        report.prompt_tokens = report.prompt_tokens.saturating_sub(request.input_len);
        report.generated_tokens = report.generated_tokens.saturating_sub(request.gen_len);
        self.totals.requests = self.totals.requests.saturating_sub(1);
        self.totals.prompt_tokens = self.totals.prompt_tokens.saturating_sub(request.input_len);
        self.totals.generated_tokens = self.totals.generated_tokens.saturating_sub(request.gen_len);
    }

    /// Kills the replica at time `t`: every not-yet-completed request (queued,
    /// decoding, or pending in an unfinished round) is returned for
    /// re-routing and its token accounting unwound — the KV state died with
    /// the replica, so nothing it was still generating was delivered. Billed
    /// time is truncated to what actually elapsed. The fleet loop moves the
    /// lifecycle to departed (it keeps the per-state replica counts).
    pub(crate) fn fail(&mut self, t: Seconds) -> Vec<Request> {
        let mut lost: Vec<Request> = self.take_ready();
        // Continuous mode loses every decoding request, round-to-completion
        // the open round's unreleased ones; the other mode's list is empty.
        for a in std::mem::take(&mut self.active) {
            self.unwind_admission(a.wave, &a.request);
            lost.push(a.request);
        }
        let pending = std::mem::take(&mut self.in_round);
        if self.round_end.take().is_some() {
            let round = self.rounds.len() - 1;
            for p in &pending {
                self.unwind_admission(round, &p.latency.request);
                // The per-token mean was billed for the whole round at
                // admission; unfinished requests never decoded to the end.
                let report = &mut self.rounds[round].report;
                report.per_token_sum = report.per_token_sum - p.latency.per_token;
                self.totals.per_token_sum = self.totals.per_token_sum - p.latency.per_token;
            }
            // Truncate the round's billed prefill + decode time to the span
            // that actually elapsed before the failure.
            let RoundReport {
                admitted_at,
                report,
                ..
            } = &mut self.rounds[round];
            let billed = report.prefill_time + report.decode_time;
            let elapsed = (t - *admitted_at).min(billed);
            let over = billed - elapsed;
            let decode_cut = over.min(report.decode_time);
            let prefill_cut = over - decode_cut;
            report.decode_time = report.decode_time - decode_cut;
            report.prefill_time = report.prefill_time - prefill_cut;
            self.totals.decode_time = self.totals.decode_time - decode_cut;
            self.totals.prefill_time = self.totals.prefill_time - prefill_cut;
        }
        lost.extend(pending.iter().map(|p| p.latency.request));
        self.parts.fill(PartitionState::default());
        self.progress.clear();
        self.fresh_from = 0;
        self.active_remaining = 0;
        self.active_min_finish = u64::MAX;
        self.active_max_gen = 0;
        self.step = Seconds::ZERO;
        self.step_stale = false;
        self.clock = self.clock.max(t);
        self.segment_start = self.clock;
        self.pending_admission = None;
        lost.sort_by_key(|r| r.id);
        self.return_unserved(&mut lost);
        lost
    }

    /// Forgets the engine-side state of requests leaving unserved: their
    /// prefill credits point at KV left behind here, so a re-routed request
    /// pays its full prefill wherever it lands, and each prefill-only entry
    /// becomes its original request again.
    fn return_unserved(&mut self, requests: &mut [Request]) {
        for r in requests {
            self.prefill_credit.remove(&r.id);
            if let Some(original) = self.prefill_only.remove(&r.id) {
                *r = original;
            }
        }
    }

    /// Starts a graceful drain: the replica takes no new work (the
    /// dispatch engine stops offering it) and returns its queued-but-unadmitted
    /// requests (see `return_unserved`) for re-routing; in-flight work
    /// finishes normally. Every queue aggregate the router-visible view reads
    /// (`outstanding_tokens`, projected KV, `oldest_queued_arrival`) is
    /// recomputed here, so an admission controller consulted at the drain
    /// instant never screens against the frozen pre-drain snapshot. The
    /// fleet loop moves the lifecycle to draining.
    pub(crate) fn begin_drain(&mut self) -> Vec<Request> {
        self.pending_admission = None;
        self.settle_ready();
        let mut returned = self.take_ready();
        self.return_unserved(&mut returned);
        debug_assert!(
            self.ready_tokens == 0 && self.ready_gen == 0 && self.ready_oldest.is_none(),
            "begin_drain must leave the view's queue aggregates zeroed"
        );
        returned
    }

    fn kv_capacity(&self) -> u64 {
        self.batching.cache_tokens_per_micro_batch * self.batching.num_micro_batches as u64
    }

    /// Router-visible snapshot of the replica *as of its last processed
    /// event*: queued work exactly, active work as the tokens still to be
    /// delivered, the KV the partition ledger holds and the agenda's
    /// `kv_migrating_in`. The view is a pure function of those — decode
    /// progress between events is not interpolated — which is what lets the
    /// indexed dispatch path cache one view per replica and keep the routers'
    /// incremental indexes exact.
    pub(crate) fn view(&self, kv_migrating_in: u64) -> ReplicaView {
        let kv_active: u64 = self.parts.iter().map(|p| p.cache_tokens).sum();
        ReplicaView {
            id: self.id,
            queued_requests: self.ready.len(),
            // At most one of the two is non-empty: continuous mode decodes
            // `active`, round-to-completion releases `in_round`.
            active_requests: self.active.len() + self.in_round.len(),
            outstanding_tokens: self.ready_tokens + self.active_remaining,
            kv_capacity: self.kv_capacity(),
            kv_projected: kv_active + self.ready_tokens + kv_migrating_in,
            kv_migrating_in,
            decode_rate: self.decode_rate,
            cache_stats: self
                .prefix_cache
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default(),
            oldest_queued_arrival: self.ready_oldest,
        }
    }

    /// Appends a request to the waiting queue and maintains the queue
    /// aggregates. Scheduler order is restored lazily ([`Self::settle_ready`])
    /// just before the next scheduling pass, so a burst of co-timed arrivals
    /// costs one sort instead of per-request sorted inserts.
    fn push_ready(&mut self, request: Request) {
        self.ready_tokens += request.max_context();
        self.ready_gen += request.gen_len;
        self.ready_oldest = Some(match self.ready_oldest {
            Some(oldest) => oldest.min(request.arrival),
            None => request.arrival,
        });
        if self
            .ready
            .last()
            .is_some_and(|last| self.queue_order.cmp(last, &request) == std::cmp::Ordering::Greater)
        {
            self.ready_dirty = true;
        }
        self.ready.push(request);
    }

    /// Restores scheduler order on the waiting queue. A no-op unless an
    /// out-of-order arrival was appended since the last scheduling pass (the
    /// common append-in-order case never pays a sort).
    fn settle_ready(&mut self) {
        if self.ready_dirty {
            self.queue_order.sort(&mut self.ready);
            self.ready_dirty = false;
        }
    }

    /// Replaces the waiting queue (already in scheduler order — deferred
    /// requests come back in admission order) and recomputes the aggregates.
    ///
    /// Schedulers declaring [`QueueOrder::Unordered`] sort internally and may
    /// hand deferrals back in *their* order, so no invariant is asserted for
    /// them — the engine's queue order is then merely insertion order.
    /// The new queue is swapped in from `ready`, which is left holding the
    /// old one, so neither vector's storage is dropped.
    fn set_ready(&mut self, ready: &mut Vec<Request>) {
        std::mem::swap(&mut self.ready, ready);
        self.ready_dirty = false;
        self.ready_tokens = 0;
        self.ready_gen = 0;
        self.ready_oldest = None;
        for r in &self.ready {
            self.ready_tokens += r.max_context();
            self.ready_gen += r.gen_len;
            self.ready_oldest = Some(match self.ready_oldest {
                Some(oldest) => oldest.min(r.arrival),
                None => r.arrival,
            });
        }
        debug_assert!(
            self.queue_order == QueueOrder::Unordered
                || self
                    .ready
                    .windows(2)
                    .all(|w| self.queue_order.cmp(&w[0], &w[1]) != std::cmp::Ordering::Greater)
        );
    }

    /// Takes the waiting queue, leaving it empty with zeroed aggregates.
    fn take_ready(&mut self) -> Vec<Request> {
        self.ready_tokens = 0;
        self.ready_gen = 0;
        self.ready_oldest = None;
        self.ready_dirty = false;
        std::mem::take(&mut self.ready)
    }

    /// Queues a request in `phase` at time `now`, arming the next admission
    /// event: immediately when the pipeline is idle, at the next
    /// decode-step boundary mid-flight (continuous mode), or at the current
    /// round's retirement (round-to-completion). The prompt tokens credited
    /// here are skipped at prefill costing: all of a [`Phase::DecodeOnly`]
    /// entry's, otherwise its longest cached session prefix. A
    /// [`Phase::PrefillOnly`] entry is queued without its generation.
    pub(crate) fn enqueue(&mut self, request: Request, phase: Phase, now: Seconds) {
        let credit = match (phase, self.prefix_cache.as_mut()) {
            (Phase::DecodeOnly, _) => request.input_len,
            (_, Some(cache)) => cache.lookup(request.session_id, request.input_len),
            (_, None) => 0,
        };
        if credit > 0 {
            self.prefill_credit.insert(request.id, credit);
        }
        let entry = match phase {
            Phase::Full | Phase::DecodeOnly => request,
            Phase::PrefillOnly => {
                self.prefill_only.insert(request.id, request);
                Request {
                    gen_len: 0,
                    ..request
                }
            }
        };
        self.push_ready(entry);
        let effective = now.max(self.clock);
        let at = match self.mode {
            ServingMode::RoundToCompletion => {
                if self.round_end.is_some() {
                    // The queue is only reconsidered when the round finishes.
                    return;
                }
                effective
            }
            ServingMode::Continuous => {
                if self.active.is_empty() {
                    effective
                } else {
                    // Mid-flight admissions land on decode-step boundaries:
                    // a running batch's step is never split.
                    self.next_step_boundary(effective)
                }
            }
        };
        self.pending_admission = Some(match self.pending_admission {
            Some(previous) => previous.min(at),
            None => at,
        });
    }

    fn next_step_boundary(&self, t: Seconds) -> Seconds {
        if self.step.as_secs() <= 0.0 {
            return t;
        }
        let elapsed = (t - self.segment_start).as_secs();
        let k = (elapsed / self.step.as_secs()).ceil();
        self.segment_start + self.step.scale(k)
    }

    /// Time of the replica's next internal event (per-request completion,
    /// round end or pending admission), if any work is pending. Drivers
    /// interleave this with arrivals: every arrival at or before the returned
    /// instant must be [`Self::enqueue`]d before [`Self::step_to`] settles it,
    /// so co-timed requests are fully ingested before a round forms.
    pub(crate) fn next_event(&self) -> Option<Seconds> {
        let admission = if self.ready.is_empty() {
            None
        } else {
            self.pending_admission
        };
        let completion = match self.mode {
            ServingMode::RoundToCompletion => {
                // The earliest pending per-request completion (the back of the
                // latest-first list), else the round retirement itself.
                self.in_round.last().map(|p| p.at).or(self.round_end)
            }
            ServingMode::Continuous => {
                if self.active.is_empty() {
                    None
                } else {
                    let steps = self.active_min_finish - self.decoded;
                    Some(self.segment_start + self.step.scale(steps as f64))
                }
            }
        };
        match (admission, completion) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, None) => a,
            (None, c) => c,
        }
    }

    /// Processes the replica's internal events due at time `t` and appends
    /// what finished there to `scratch.finished`, in release order: served
    /// requests' latency records (for the router's completion callback and
    /// the autoscaler's window) and prefill-only handoffs (for KV
    /// migration). An admission pass fills `scratch`'s backfill buffer.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from costing a freshly formed wave.
    pub(crate) fn step_to(
        &mut self,
        t: Seconds,
        scratch: &mut EventScratch,
    ) -> Result<(), EngineError> {
        match self.mode {
            ServingMode::RoundToCompletion => self.step_round(t, scratch),
            ServingMode::Continuous => self.step_continuous(t, scratch),
        }
    }

    fn step_continuous(
        &mut self,
        t: Seconds,
        scratch: &mut EventScratch,
    ) -> Result<(), EngineError> {
        if self.active.is_empty() {
            // Idle until the event; idle time is not billed.
            self.clock = self.clock.max(t);
            self.segment_start = self.clock;
        } else if t > self.segment_start {
            let min_remaining = self.active_min_finish - self.decoded;
            let steps = if self.step.as_secs() <= 0.0 {
                min_remaining
            } else {
                (((t - self.segment_start).as_secs() / self.step.as_secs()).round() as u64)
                    .min(min_remaining)
            };
            if steps > 0 {
                self.advance_decode(steps);
            }
        }

        // Retire completed requests, releasing their KV reservations, and
        // re-derive the survivors' minimum finish and longest generation in
        // the same scan. The cached minimum proves the scan unnecessary on
        // admission-only events: nothing can have completed before it.
        let mut membership_changed = self.active_min_finish <= self.decoded;
        if membership_changed {
            self.retire_finished(&mut scratch.finished);
        }

        // Backfill freed slots (or run a due admission) with the waiting queue.
        let due = matches!(self.pending_admission, Some(p) if p <= t);
        if !self.ready.is_empty() && (due || membership_changed) {
            // Any pass consumes the pending admission: deferred requests
            // re-arm on the next completion or enqueue instead of stalling on
            // a stale timestamp.
            self.pending_admission = None;
            membership_changed |= self.admit_continuous(scratch);
        } else if due {
            self.pending_admission = None;
        }
        if membership_changed || self.step_stale {
            if self.pending_admission == Some(self.clock) {
                // Another admission pass is armed at this very instant (the
                // re-pass cadence of `admit_continuous`): no decode can run
                // before the cascade settles, so only the settled membership
                // is worth costing. Re-anchoring the segment keeps the stale
                // step harmless: the pending admission is never later than
                // any projected completion, so it is the next event settled,
                // and `step_stale` guarantees the refresh still happens there
                // even if that pass admits nothing.
                self.step_stale = true;
                self.segment_start = self.clock;
            } else {
                self.refresh_step(scratch)?;
                self.step_stale = false;
            }
        }
        Ok(())
    }

    /// Releases every in-flight request whose last token is decoded, in the
    /// order of a `swap_remove` scan from the front, and recomputes the
    /// survivors' minimum finish and longest generation. Runs only right
    /// after a decode step, so no survivor is still waiting for its first
    /// token.
    fn retire_finished(&mut self, finished: &mut Vec<Finished>) {
        debug_assert_eq!(self.fresh_from, self.active.len());
        let mut min_finish = u64::MAX;
        let mut max_gen = 0;
        let mut i = 0;
        while i < self.progress.len() {
            let progress = self.progress[i];
            if progress.finish > self.decoded {
                min_finish = min_finish.min(progress.finish);
                max_gen = max_gen.max(progress.gen_len);
                i += 1;
                continue;
            }
            self.progress.swap_remove(i);
            let done = self.active.swap_remove(i);
            self.parts[done.partition].release(&done.request);
            let per_token =
                (self.clock - done.decode_start).scale(1.0 / done.request.gen_len as f64);
            let latency = RequestLatency {
                request: done.request,
                round: done.wave,
                ttft: done.first_token.expect("completed requests decoded") - done.request.arrival,
                per_token,
                completion_time: self.clock - done.request.arrival,
            };
            self.latencies.push(latency);
            self.totals.per_token_sum += per_token;
            self.rounds[done.wave].report.per_token_sum += per_token;
            finished.push(Finished::Served(latency));
        }
        self.active_min_finish = min_finish;
        self.active_max_gen = max_gen;
        self.fresh_from = self.active.len();
    }

    /// Advances decode by `steps` whole steps from the current segment start
    /// and stamps the first token of every request admitted since the last
    /// step. Callers cap `steps` at the minimum remaining generation, so the
    /// fleet-wide remaining-token aggregate decreases exactly in lockstep.
    fn advance_decode(&mut self, steps: u64) {
        debug_assert!(
            self.active[..self.fresh_from]
                .iter()
                .all(|a| a.first_token.is_some())
                && self.active[self.fresh_from..]
                    .iter()
                    .all(|a| a.first_token.is_none()),
            "exactly the requests admitted since the last step lack a first token"
        );
        self.active_remaining = self
            .active_remaining
            .saturating_sub(steps.saturating_mul(self.active.len() as u64));
        self.decoded += steps;
        let advance = self.step.scale(steps as f64);
        let first_token_at = self.segment_start + self.step;
        self.clock = self.segment_start + advance;
        self.segment_start = self.clock;
        self.totals.decode_time += advance;
        if let Some(last) = self.rounds.last_mut() {
            last.report.decode_time += advance;
        }
        for a in &mut self.active[self.fresh_from..] {
            a.first_token = Some(first_token_at);
        }
        self.fresh_from = self.active.len();
    }

    /// Runs one admission wave over the waiting queue and puts what it
    /// admitted in flight; returns whether anything was admitted. After a
    /// wave that made progress but left requests waiting, the pending
    /// admission is re-armed at the post-prefill clock, so the *next* event
    /// is another pass at that instant and every arrival that landed during
    /// the prefill stall is ingested before it (ingest, then backfill). The
    /// re-pass matters beyond arrivals: a zero-generation wave completes
    /// inside the pass and leaves the pipeline empty again, and a padded
    /// scheduler's per-request KV charge shrinks as the queue shrinks, so
    /// the deferred remainder can be admissible immediately.
    fn admit_continuous(&mut self, scratch: &mut EventScratch) -> bool {
        let Some(wave) = self.open_wave(scratch) else {
            return false;
        };
        let index = self.rounds.len();
        let EventScratch {
            finished,
            fill,
            order,
            ..
        } = scratch;
        for (partition, requests) in fill.assignments.iter().enumerate() {
            for &request in requests {
                if request.gen_len == 0 {
                    // Nothing to decode: complete (or hand off) at prefill end.
                    self.parts[partition].release(&request);
                    let latency = RequestLatency {
                        request,
                        round: index,
                        ttft: self.clock - request.arrival,
                        per_token: Seconds::ZERO,
                        completion_time: self.clock - request.arrival,
                    };
                    finished.push(self.release(latency));
                    continue;
                }
                let finish = self.decoded + request.gen_len;
                self.active_remaining += request.gen_len;
                self.active_min_finish = self.active_min_finish.min(finish);
                self.active_max_gen = self.active_max_gen.max(request.gen_len);
                self.progress.push(Progress {
                    finish,
                    gen_len: request.gen_len,
                });
                self.active.push(InFlight {
                    request,
                    partition,
                    first_token: None,
                    decode_start: self.clock,
                    wave: index,
                });
            }
        }
        self.book_wave(wave, order);
        if !self.ready.is_empty() {
            self.pending_admission = Some(match self.pending_admission {
                Some(previous) => previous.min(self.clock),
                None => self.clock,
            });
        }
        true
    }

    /// The one admission pass, for both serving modes: one backfill of the
    /// waiting queue into the partition ledger. Returns `None` when nothing
    /// was admitted; requests the scheduler refuses stay in the waiting
    /// queue — even on an empty pipeline, where a padded scheduler's
    /// inflated KV charge can overflow the budget. Otherwise the pass admits
    /// the requests into their partitions, consumes their prefill credits,
    /// prices their prompt pass and advances the clock past it.
    ///
    /// It leaves in `scratch.order` the partitions the wave is priced and
    /// reported over: every partition in index order for a continuous wave;
    /// for a round, its non-empty micro-batches — the filled ones in fill
    /// order, then the rest in index order. Credits and prefix-cache inserts
    /// follow the same order.
    fn open_wave(&mut self, scratch: &mut EventScratch) -> Option<Wave> {
        // Saturation precheck: when the total-admission cap or every request
        // slot is already exhausted the scheduler cannot admit anything, so
        // skip the pass entirely.
        let in_flight: usize = self.parts.iter().map(|p| p.requests).sum();
        if in_flight >= self.batching.max_scheduled_requests
            || self
                .parts
                .iter()
                .all(|p| p.requests >= self.batching.max_requests_per_micro_batch)
        {
            return None;
        }
        self.settle_ready();
        let planning = scratch.span_start();
        self.scheduler.backfill_sorted_into(
            &self.ready,
            &self.batching,
            &self.parts,
            &mut scratch.fill,
        );
        scratch.span_end(Section::Planning, planning);
        let EventScratch { fill, order, .. } = scratch;
        let count = fill.admitted() as u64;
        if count == 0 {
            // Nothing left the queue: same multiset, possibly re-ordered by
            // the scheduler, so the incremental aggregates are still exact
            // and the full recompute in `set_ready` can be skipped.
            std::mem::swap(&mut self.ready, &mut fill.deferred);
            self.ready_dirty = false;
            return None;
        }
        self.set_ready(&mut fill.deferred);
        order.clear();
        match self.mode {
            ServingMode::Continuous => order.extend(0..self.parts.len()),
            ServingMode::RoundToCompletion => {
                order.extend_from_slice(&fill.filled_order);
                order.extend((0..self.parts.len()).filter(|i| {
                    !fill.assignments[*i].is_empty() && !fill.filled_order.contains(i)
                }));
            }
        }
        let (mut prompt, mut generated, mut max_gen) = (0, 0, 0);
        for &i in order.iter() {
            for request in &fill.assignments[i] {
                self.parts[i].admit(request);
                prompt += request.input_len;
                generated += request.gen_len;
                max_gen = max_gen.max(request.gen_len);
            }
        }
        // Credited tokens (prefix-cache hits, migrated KV) are already
        // resident and skip the prompt pass; with no credit the shape below
        // is bit-for-bit the classic full-prefill costing. Decode is
        // untouched either way — the full context still occupies KV.
        let credited = self.credit_admitted(order.iter().flat_map(|&i| &fill.assignments[i]));
        let to_prefill = prompt.saturating_sub(credited);
        let shape = WorkloadShape::new(to_prefill.div_ceil(count).max(1), max_gen.max(1));
        let policy = self.batch_policy(count);
        let prefill = if credited >= prompt && credited > 0 {
            // Every admitted prompt is fully resident: no prompt pass runs.
            Seconds::ZERO
        } else if self.active.is_empty() {
            self.evaluator.cost_model().prefill_time(&policy, &shape)
        } else {
            self.evaluator
                .cost_model()
                .backfill_prefill_time(&policy, &shape)
        };
        let admitted_at = self.clock;
        self.clock += prefill;
        Some(Wave {
            report: BatchRunReport {
                requests: count,
                prompt_tokens: prompt,
                generated_tokens: generated,
                prefill_time: prefill,
                ..BatchRunReport::default()
            },
            admitted_at,
            max_gen,
        })
    }

    /// Books a formed wave: its [`RoundReport`], over the partitions in
    /// `order` as they stand now, and its share of the run totals.
    fn book_wave(&mut self, wave: Wave, order: &[usize]) {
        self.totals = self.totals.combine(&wave.report);
        let parts = || order.iter().map(|&i| self.parts[i]);
        let prompts = parts().map(|p| p.prompt_tokens);
        let booked = RoundReport {
            round: self.rounds.len(),
            admitted_at: wave.admitted_at,
            occupancy: parts().map(|p| p.requests as u64).collect(),
            kv_reserved: parts().map(|p| p.cache_tokens).collect(),
            prompt_token_spread: (
                prompts.clone().min().unwrap_or(0),
                prompts.max().unwrap_or(0),
            ),
            report: wave.report,
        };
        self.rounds.push(booked);
    }

    /// EWMA weight of the newest observation in the router-visible decode
    /// rate.
    const DECODE_RATE_ALPHA: f64 = 0.3;

    /// Folds the last priced step's rate (`recent_rate`) into the
    /// router-visible EWMA rate.
    fn note_decode_rate(&mut self) {
        let Some(inst) = self.recent_rate else {
            return;
        };
        self.decode_rate = if self.decode_rate > 0.0 {
            Self::DECODE_RATE_ALPHA * inst + (1.0 - Self::DECODE_RATE_ALPHA) * self.decode_rate
        } else {
            inst
        };
    }

    /// Consumes the admitted requests' prefill credits (prefix-cache hits or
    /// migrated KV, capped per request at its prompt length) and records each
    /// admitted prompt in the prefix cache; returns the total credited
    /// tokens.
    fn credit_admitted<'a>(&mut self, admitted: impl Iterator<Item = &'a Request> + Clone) -> u64 {
        let mut credited = 0;
        for r in admitted.clone() {
            if let Some(c) = self.prefill_credit.remove(&r.id) {
                credited += c.min(r.input_len);
            }
        }
        if let Some(cache) = self.prefix_cache.as_mut() {
            for r in admitted {
                cache.insert(r.session_id, r.input_len);
            }
        }
        credited
    }

    /// Re-derives the decode-step latency for the current occupancy and KV
    /// load, resetting the segment origin.
    fn refresh_step(&mut self, scratch: &mut EventScratch) -> Result<(), EngineError> {
        self.segment_start = self.clock;
        self.step = if self.active.is_empty() {
            Seconds::ZERO
        } else {
            let (order, max_gen) = (0..self.parts.len(), self.active_max_gen);
            let (occupancy, contexts) = (&mut scratch.occupancy, &mut scratch.contexts);
            self.price_step(order, max_gen, occupancy, contexts)?
        };
        Ok(())
    }

    /// Costs one decode step starting at the current clock over the
    /// partitions `order` names (empty ones skipped, the rest in that
    /// order), the longest request generating `max_gen`, and records it as
    /// the replica's most recent step. The step's request count and mean
    /// prompt are the ledger's: summed over the same partitions, whose
    /// occupancies and mean contexts fill `occupancy` and `contexts`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors, and [`EngineError::ClockStalled`] if a
    /// positive step does not advance the clock: every later event would
    /// land on this instant and the run would never finish.
    fn price_step(
        &mut self,
        order: impl Iterator<Item = usize>,
        max_gen: u64,
        occupancy: &mut Vec<u64>,
        contexts: &mut Vec<u64>,
    ) -> Result<Seconds, EngineError> {
        occupancy.clear();
        contexts.clear();
        let (mut requests, mut prompt) = (0, 0);
        for p in order.map(|i| self.parts[i]).filter(|p| p.requests > 0) {
            requests += p.requests as u64;
            prompt += p.prompt_tokens;
            occupancy.push(p.requests as u64);
            contexts.push(mean_decode_context(
                p.prompt_tokens,
                p.cache_tokens,
                p.requests as u64,
            ));
        }
        let shape = WorkloadShape::new(prompt.div_ceil(requests).max(1), max_gen.max(1));
        let step = self.evaluator.decode_step_latency_with_loads(
            self.system.schedule(),
            &self.batch_policy(requests),
            &shape,
            Some(occupancy.as_slice()),
            Some(contexts.as_slice()),
        )?;
        if step.as_secs() > 0.0 && self.clock + step == self.clock {
            return Err(EngineError::ClockStalled {
                at: self.clock,
                step,
            });
        }
        self.recent_rate =
            (requests > 0 && step.as_secs() > 0.0).then(|| requests as f64 / step.as_secs());
        self.note_decode_rate();
        Ok(step)
    }

    /// Releases an entry finished at `latency`'s completion instant. A
    /// prefill-only entry hands its original request off at exactly
    /// `arrival + completion_time`; any other request is served and its
    /// latency recorded.
    fn release(&mut self, latency: RequestLatency) -> Finished {
        if latency.request.gen_len == 0 {
            if let Some(request) = self.prefill_only.remove(&latency.request.id) {
                let at = latency.request.arrival + latency.completion_time;
                return Finished::Handoff { request, at };
            }
        }
        self.latencies.push(latency);
        Finished::Served(latency)
    }

    /// The replica's policy resized to a batch of `n` requests: micro-batches
    /// never exceed the batch.
    fn batch_policy(&self, n: u64) -> Policy {
        Policy {
            batch_size: n,
            micro_batch_size: self.policy.micro_batch_size.min(n),
            ..self.policy
        }
    }

    fn step_round(&mut self, t: Seconds, scratch: &mut EventScratch) -> Result<(), EngineError> {
        let released_before = scratch.finished.len();
        // Release every pending completion due by `t` — each request finishes
        // at its own step, not in bulk at round retirement (its micro-batch
        // slot and KV stay held until the round ends; that is the
        // round-to-completion semantic). The list is sorted latest-first, so
        // due releases pop off the back in chronological order.
        while self.in_round.last().is_some_and(|p| p.at <= t) {
            let done = self.in_round.pop().expect("checked non-empty");
            self.active_remaining = self
                .active_remaining
                .saturating_sub(done.latency.request.gen_len);
            scratch.finished.push(self.release(done.latency));
        }
        if let Some(end) = self.round_end {
            if end <= t {
                self.clock = end;
                self.round_end = None;
                self.parts.fill(PartitionState::default());
            }
        }
        if self.round_end.is_none() {
            self.clock = self.clock.max(t);
            let due = matches!(self.pending_admission, Some(p) if p <= t);
            self.pending_admission = None;
            if !self.ready.is_empty() && (due || scratch.finished.len() > released_before) {
                self.open_round(scratch)?;
            }
        }
        Ok(())
    }

    /// Forms one round-to-completion round from the waiting queue: one
    /// admission pass, then one decode step costed on the round's full
    /// membership, which fixes every request's first-token and completion
    /// instants. A pass that admits nothing into this empty pipeline (a
    /// padded KV charge overflows the budget) aborts the queue rather than
    /// loop.
    fn open_round(&mut self, scratch: &mut EventScratch) -> Result<(), EngineError> {
        let Some(mut wave) = self.open_wave(scratch) else {
            let mut refused = self.take_ready();
            self.aborted.append(&mut refused);
            return Ok(());
        };
        let round = self.rounds.len();
        let requests = wave.report.requests;
        let EventScratch {
            fill,
            order,
            occupancy,
            contexts,
            ..
        } = scratch;
        let step = self.price_step(order.iter().copied(), wave.max_gen, occupancy, contexts)?;
        // Every request's completion instant is known at admission; each is
        // released (latency recorded, router told) at its own step instead of
        // in bulk when the round retires. Kept sorted latest-first so
        // [`Self::next_event`] peeks and [`Self::step_round`] pops due
        // releases from the back in O(1) instead of re-scanning the round
        // per event.
        let start = self.clock;
        let admitted = order.iter().flat_map(|&i| &fill.assignments[i]);
        self.in_round.extend(admitted.map(|&request| {
            let at = start + step.scale(request.gen_len as f64);
            PendingCompletion {
                latency: RequestLatency {
                    request,
                    round,
                    ttft: start + step - request.arrival,
                    per_token: step,
                    completion_time: at - request.arrival,
                },
                at,
            }
        }));
        self.in_round.sort_unstable_by(|a, b| {
            (b.at.key(), b.latency.request.id).cmp(&(a.at.key(), a.latency.request.id))
        });
        self.active_remaining = wave.report.generated_tokens;
        wave.report.decode_time = step.scale(wave.max_gen as f64);
        wave.report.per_token_sum = step.scale(requests as f64);
        self.round_end = Some(start + wave.report.decode_time);
        self.book_wave(wave, order);
        Ok(())
    }

    /// Consumes the engine into its [`ServingReport`]. Requests still waiting
    /// when the run ends were refused by an empty pipeline (a padded
    /// scheduler's inflated KV charge can overflow the budget) and no further
    /// event can admit them: the report's aborted list is
    /// [`Self::aborted_requests`]. Every aborted prefill-only entry is
    /// reported as its original request.
    pub(crate) fn into_report(mut self) -> ServingReport {
        let mut aborted: Vec<Request> = self.aborted_requests().copied().collect();
        self.return_unserved(&mut aborted);
        ServingReport {
            system: self.system,
            mode: self.mode,
            scheduler: self.scheduler.name().to_owned(),
            policy: self.policy,
            schedule: self.system.schedule(),
            rounds: self.rounds,
            latencies: self.latencies,
            aborted,
            totals: self.totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::EvalSetting;
    use moe_workload::Algorithm2;
    use proptest::prelude::*;

    const MAX_PROMPT: u64 = 300;
    const MAX_GEN: u64 = 26;

    /// One harness step: `(kind, gap, (prompt, generation class) per request)`
    /// (see [`Harness::run`]).
    type Op = (u8, u64, Vec<(u64, u64)>);

    /// The test-side view of one in-flight request: decode steps still to
    /// run, counted down by the harness at every event.
    #[derive(Debug)]
    struct Countdown {
        remaining: u64,
        input_len: u64,
        gen_len: u64,
        has_first_token: bool,
    }

    /// One continuous-mode replica, driven the way the fleet loop drives it,
    /// with a per-request countdown kept beside it.
    struct Harness {
        engine: ReplicaEngine,
        scratch: EventScratch,
        model: HashMap<u64, Countdown>,
        next_id: u64,
        now: Seconds,
        served: Vec<u64>,
        returned: Vec<u64>,
        /// Events settled at the instant of the event before them.
        same_instant_events: usize,
        /// Requests lost to `fail` while decoding.
        failed_in_flight: usize,
        /// Served requests that never joined the in-flight set.
        served_without_decode: usize,
    }

    impl Harness {
        fn new() -> Self {
            let setting = EvalSetting::S1;
            let policy = Policy::offload_default(16, 4);
            let batching = batching_for(&policy, &WorkloadShape::new(MAX_PROMPT, MAX_GEN)).unwrap();
            let engine = ReplicaEngine::new(
                ReplicaId(0),
                Rc::new(SystemEvaluator::new(setting.node(), setting.model())),
                SystemKind::MoeLightning,
                policy,
                batching,
                ServingMode::Continuous,
                Arc::new(Algorithm2),
            );
            Harness {
                engine,
                scratch: EventScratch::default(),
                model: HashMap::new(),
                next_id: 0,
                now: Seconds::ZERO,
                served: Vec::new(),
                returned: Vec::new(),
                same_instant_events: 0,
                failed_in_flight: 0,
                served_without_decode: 0,
            }
        }

        /// Settles every event due by `until`, then lands one request per
        /// `(prompt, generation)` there.
        fn arrive(&mut self, until: Seconds, shapes: &[(u64, u64)]) {
            while self.engine.next_event().is_some_and(|t| t <= until) {
                self.step();
            }
            self.now = self.now.max(until);
            for &(input_len, gen_len) in shapes {
                let request = Request {
                    arrival: self.now,
                    ..Request::new(self.next_id, input_len, gen_len)
                };
                self.next_id += 1;
                self.engine.enqueue(request, Phase::Full, self.now);
            }
            self.check();
        }

        /// Settles the engine's next event, if it has one.
        fn step(&mut self) -> bool {
            let Some(t) = self.engine.next_event() else {
                return false;
            };
            // The steps a per-request countdown runs: whole steps from the
            // segment start, never past the first completion.
            let engine = &self.engine;
            let steps = match self.model.values().map(|c| c.remaining).min() {
                Some(min) if t > engine.segment_start => {
                    if engine.step.as_secs() <= 0.0 {
                        min
                    } else {
                        let whole = (t - engine.segment_start).as_secs() / engine.step.as_secs();
                        (whole.round() as u64).min(min)
                    }
                }
                _ => 0,
            };
            let decoded = engine.decoded;
            if t == self.now {
                self.same_instant_events += 1;
            }
            self.engine.step_to(t, &mut self.scratch).unwrap();
            self.now = t;
            assert_eq!(self.engine.decoded - decoded, steps, "decode steps at {t}");
            for countdown in self.model.values_mut() {
                countdown.remaining -= steps;
                countdown.has_first_token |= steps > 0;
            }
            for entry in self.scratch.finished.drain(..) {
                let Finished::Served(latency) = entry else {
                    panic!("a full-phase request was handed off");
                };
                let id = latency.request.id;
                match self.model.remove(&id) {
                    Some(countdown) => {
                        assert_eq!(countdown.remaining, 0, "request {id} released early")
                    }
                    None => {
                        assert_eq!(latency.request.gen_len, 0, "request {id} never decoded");
                        self.served_without_decode += 1;
                    }
                }
                self.served.push(id);
            }
            for a in &self.engine.active {
                self.model.entry(a.request.id).or_insert(Countdown {
                    remaining: a.request.gen_len,
                    input_len: a.request.input_len,
                    gen_len: a.request.gen_len,
                    has_first_token: false,
                });
            }
            self.check();
            true
        }

        fn fail(&mut self) {
            self.failed_in_flight += self.model.len();
            let lost = self.engine.fail(self.now);
            for id in self.model.keys() {
                assert!(
                    lost.iter().any(|r| r.id == *id),
                    "in-flight {id} not returned"
                );
            }
            self.model.clear();
            self.returned.extend(lost.iter().map(|r| r.id));
            self.check();
        }

        /// The engine's decode bookkeeping equals the countdown's.
        fn check(&self) {
            let engine = &self.engine;
            assert_eq!(engine.active.len(), self.model.len());
            assert_eq!(engine.progress.len(), engine.active.len());
            for (a, progress) in engine.active.iter().zip(&engine.progress) {
                let countdown = &self.model[&a.request.id];
                assert!(countdown.remaining > 0);
                assert_eq!(progress.finish - engine.decoded, countdown.remaining);
                assert_eq!(progress.gen_len, countdown.gen_len);
                assert_eq!(a.first_token.is_some(), countdown.has_first_token);
            }
            assert!(engine.fresh_from <= engine.active.len());
            assert!(engine.active[..engine.fresh_from]
                .iter()
                .all(|a| a.first_token.is_some()));
            assert!(engine.active[engine.fresh_from..]
                .iter()
                .all(|a| a.first_token.is_none()));
            match self.model.values().map(|c| c.remaining).min() {
                Some(min) => assert_eq!(engine.active_min_finish - engine.decoded, min),
                None => assert_eq!(engine.active_min_finish, u64::MAX),
            }
            let countdowns = self.model.values();
            assert_eq!(
                engine.parts.iter().map(|p| p.prompt_tokens).sum::<u64>(),
                countdowns.clone().map(|c| c.input_len).sum::<u64>()
            );
            assert_eq!(
                engine.active_max_gen,
                countdowns.clone().map(|c| c.gen_len).max().unwrap_or(0)
            );
            assert_eq!(
                engine.active_remaining,
                countdowns.map(|c| c.remaining).sum::<u64>()
            );
        }

        /// Runs `ops` — `(kind, gap, shapes)`: kinds 0–4 land the shapes
        /// after `gap` thirds of a decode step (0: at the current instant),
        /// 5–8 settle one event, 9 fails the replica — then settles
        /// everything left and checks that every request was served or
        /// returned exactly once.
        fn run(ops: &[Op]) -> Self {
            let mut harness = Harness::new();
            for (kind, gap, shapes) in ops {
                match kind {
                    0..=4 => {
                        let third = match harness.engine.step.as_secs() {
                            s if s > 0.0 => s / 3.0,
                            _ => 0.5,
                        };
                        let until = harness.now + Seconds::from_secs(third * *gap as f64);
                        let shapes: Vec<(u64, u64)> = shapes
                            .iter()
                            .map(|&(input, g)| (input, generation(g)))
                            .collect();
                        harness.arrive(until, &shapes);
                    }
                    5..=8 => {
                        harness.step();
                    }
                    _ => harness.fail(),
                }
            }
            let mut events = 0;
            while harness.step() {
                events += 1;
                assert!(events < 100_000, "the replica never went idle");
            }
            assert!(harness.engine.ready.is_empty());
            let mut seen: Vec<u64> = harness
                .served
                .iter()
                .chain(&harness.returned)
                .copied()
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..harness.next_id).collect::<Vec<_>>());
            harness
        }
    }

    /// A generation class: a third of draws generate nothing, a tenth one
    /// token, the rest 2–25.
    fn generation(g: u64) -> u64 {
        match g {
            0..=9 => 0,
            10..=12 => 1,
            _ => (g - 13) % 24 + 2,
        }
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                0u8..10,
                0u64..7,
                proptest::collection::vec((16u64..MAX_PROMPT, 0u64..30), 1..8),
            ),
            1..40,
        )
    }

    #[test]
    fn a_pinned_sequence_exercises_cascades_zero_generations_and_a_mid_decode_failure() {
        let burst = |n: u64, g: u64| (0..n).map(|i| (40 + 13 * i, g + i)).collect::<Vec<_>>();
        let ops = vec![
            (0, 0, burst(7, 13)),
            (0, 0, burst(7, 0)),
            (0, 0, burst(7, 20)),
            (5, 0, Vec::new()),
            (0, 2, burst(3, 10)),
            (5, 0, Vec::new()),
            (5, 0, Vec::new()),
            (9, 0, Vec::new()),
            (0, 1, burst(6, 11)),
        ];
        let harness = Harness::run(&ops);
        assert!(harness.same_instant_events > 0, "no same-instant re-pass");
        assert!(
            harness.failed_in_flight > 0,
            "the failure hit an idle replica"
        );
        assert!(
            harness.served_without_decode > 0,
            "no zero-generation request"
        );
        assert!(harness.served.len() > harness.served_without_decode);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// After every event of a random enqueue/step/fail sequence, each
        /// in-flight request's remaining steps, the minimum of them, the
        /// partition ledger's prompt total, the longest generation, the tokens still to
        /// decode and the set still waiting for a first token all equal a
        /// per-request countdown's.
        #[test]
        fn the_decode_counter_matches_a_per_request_countdown(ops in ops()) {
            Harness::run(&ops);
        }
    }

    /// A random queue — zero generations and prompts over a small KV budget
    /// included — with arrivals in the first second.
    fn round_queue() -> impl Strategy<Value = Vec<Request>> {
        proptest::collection::vec((1u64..1_200, 0u64..40, 0u64..1_000), 0..40).prop_map(|shapes| {
            shapes
                .into_iter()
                .enumerate()
                .map(|(id, (input_len, gen_len, millis))| Request {
                    arrival: Seconds::from_secs(millis as f64 / 1e3),
                    ..Request::new(id as u64, input_len, gen_len)
                })
                .collect()
        })
    }

    fn round_batching() -> impl Strategy<Value = BatchingConfig> {
        (1usize..6, 1usize..8, 1usize..40, 64u64..4_000).prop_map(
            |(num_micro_batches, max_requests_per_micro_batch, max_scheduled_requests, cache)| {
                BatchingConfig {
                    num_micro_batches,
                    max_requests_per_micro_batch,
                    max_scheduled_requests,
                    cache_tokens_per_micro_batch: cache,
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The round a round-to-completion engine forms from a queue has the
        /// shape `Scheduler::plan_sorted` forms from it, for every built-in
        /// scheduler: the same micro-batches in the same order — the order
        /// the round's decode step is priced in — with the same KV
        /// reservations, prompt spread and request and token counts, and the
        /// same requests left waiting (or aborted, when nothing fits).
        #[test]
        fn a_round_has_the_shape_plan_sorted_forms(
            queue in round_queue(),
            batching in round_batching(),
        ) {
            let setting = EvalSetting::S1;
            let ubs = batching.max_requests_per_micro_batch as u64;
            let policy = Policy::offload_default(ubs * batching.num_micro_batches as u64, ubs);
            for scheduler in moe_workload::builtin_schedulers() {
                let scheduler: Arc<dyn Scheduler> = Arc::from(scheduler);
                let mut sorted = queue.clone();
                scheduler.queue_order().sort(&mut sorted);
                let formed = scheduler.plan_sorted(&sorted, &batching);

                let mut engine = ReplicaEngine::new(
                    ReplicaId(0),
                    Rc::new(SystemEvaluator::new(setting.node(), setting.model())),
                    SystemKind::MoeLightning,
                    policy,
                    batching,
                    ServingMode::RoundToCompletion,
                    scheduler.clone(),
                );
                let now = Seconds::from_secs(1.0);
                for &request in &queue {
                    engine.enqueue(request, Phase::Full, now);
                }
                let mut scratch = EventScratch::default();
                if let Some(t) = engine.next_event() {
                    engine.step_to(t, &mut scratch).unwrap();
                }

                let name = scheduler.name();
                if formed.scheduled_requests() == 0 {
                    prop_assert!(engine.rounds.is_empty(), "{}", name);
                    prop_assert_eq!(&engine.aborted, &formed.aborted, "{}", name);
                    continue;
                }
                prop_assert_eq!(engine.rounds.len(), 1, "{}", name);
                let round = &engine.rounds[0];
                let batches = &formed.micro_batches;
                let occupancy: Vec<u64> = batches.iter().map(|mb| mb.len() as u64).collect();
                prop_assert_eq!(&round.occupancy, &occupancy, "{}", name);
                prop_assert_eq!(&scratch.occupancy, &occupancy, "{}: pricing order", name);
                let kv: Vec<u64> = batches.iter().map(|mb| mb.max_cache_tokens()).collect();
                prop_assert_eq!(&round.kv_reserved, &kv, "{}", name);
                prop_assert_eq!(round.prompt_token_spread, formed.prompt_token_spread(), "{}", name);
                let admitted = batches.iter().flat_map(|mb| &mb.requests);
                prop_assert_eq!(round.report.requests, formed.scheduled_requests() as u64);
                prop_assert_eq!(
                    round.report.prompt_tokens,
                    admitted.clone().map(|r| r.input_len).sum::<u64>()
                );
                prop_assert_eq!(
                    round.report.generated_tokens,
                    admitted.map(|r| r.gen_len).sum::<u64>()
                );
                prop_assert_eq!(&engine.ready, &formed.aborted, "{}", name);
            }
        }
    }
}
