//! Request routing over a fleet of replicas: the [`Router`] strategy trait,
//! the four built-in strategies ([`RoundRobin`], [`LeastOutstandingTokens`],
//! [`PowerOfTwoChoices`], [`KvAware`]), and the state they consume — the
//! per-decision [`ReplicaView`] snapshot and the incrementally-maintained
//! [`RouterIndex`] behind the cluster layer's sub-linear dispatch path.
//!
//! Routers are pure strategy: they never see the simulator's internals, only
//! the request metadata a production front-end could observe (queue depths,
//! outstanding work, projected KV usage). The dispatch engine that feeds them
//! lives in [`crate::cluster`]; the per-replica state the views are snapshots
//! of lives in [`crate::engine`].

use crate::disagg::{drain_key, CacheStats};
use crate::min_tree::MinTree;
use moe_hardware::Seconds;
use moe_workload::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies one replica within a cluster: its index into the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub usize);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Router-visible snapshot of one replica at a routing decision: the request
/// metadata a production front-end could actually observe (queue depths,
/// outstanding work, projected KV usage) — never the simulator's internals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplicaView {
    /// The replica this view describes.
    pub id: ReplicaId,
    /// Requests routed to the replica but not yet admitted to a micro-batch.
    pub queued_requests: usize,
    /// Requests currently decoding (or held by an in-flight round).
    pub active_requests: usize,
    /// Outstanding work in tokens: prompt + generation for queued requests plus
    /// the tokens still to generate for active ones (as of the decision
    /// instant).
    pub outstanding_tokens: u64,
    /// Total KV-cache token capacity across the replica's micro-batches, from
    /// its policy's capacity plan.
    pub kv_capacity: u64,
    /// KV tokens already reserved by active requests plus the end-of-generation
    /// projection of everything queued — including headroom held for KV
    /// slices currently migrating in ([`Self::kv_migrating_in`]).
    pub kv_projected: u64,
    /// KV tokens reserved for in-flight migrations headed here (disaggregated
    /// serving): the destination holds headroom from the moment the transfer
    /// starts, so routers never over-commit a replica that is about to
    /// receive migrated context. Zero outside disaggregated runs.
    pub kv_migrating_in: u64,
    /// Measured decode rate in tokens per second — an EWMA over the replica's
    /// recent decode steps, zero until the first step completes. The
    /// speed-aware routing signal: backlog alone cannot distinguish a loaded
    /// fast replica from an idle slow one.
    pub decode_rate: f64,
    /// Snapshot of the replica's prefix-cache statistics (zeroed when the
    /// replica has no cache) — the signal [`crate::disagg::PrefixAware`]
    /// scores placements with.
    pub cache_stats: CacheStats,
    /// Arrival time of the oldest request routed here but not yet admitted —
    /// the head-of-queue age a production front-end tracks. `None` when
    /// nothing is queued. Lets autoscalers spot requests that are *already*
    /// certain to miss a TTFT deadline long before their completion records
    /// say so.
    pub oldest_queued_arrival: Option<Seconds>,
}

impl ReplicaView {
    /// Projected KV-cache headroom: capacity minus reserved-plus-queued
    /// projections (saturating at zero when the queue over-commits).
    pub fn kv_headroom(&self) -> u64 {
        self.kv_capacity.saturating_sub(self.kv_projected)
    }
}

/// Deterministic per-run routing state handed to every [`Router`] call by the
/// dispatch engine, so stateless strategies can still round-robin or randomize
/// reproducibly (the RNG is seeded from the cluster spec's seed), and
/// session-affine ones keep their placements per run: a spec run twice
/// routes the same way both times, however many clones share its router.
#[derive(Debug)]
pub struct RouterCtx {
    /// Zero-based index of the routing decision (how many requests the engine
    /// has dispatched so far).
    pub decision: u64,
    /// Seeded RNG for randomized strategies ([`PowerOfTwoChoices`]).
    pub rng: StdRng,
    /// Each session's home replica, for session-affine strategies
    /// ([`crate::StickySession`], [`crate::PrefixAware`]).
    pub homes: HashMap<u64, ReplicaId>,
}

impl RouterCtx {
    /// A fresh context whose RNG is seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        RouterCtx {
            decision: 0,
            rng: StdRng::seed_from_u64(seed),
            homes: HashMap::new(),
        }
    }
}

/// Marker for "replica id not present" in [`RouterIndex`] position tables.
const ABSENT: usize = usize::MAX;

/// One lazily built [`MinTree`] over a [`RouterIndex`]'s views, keyed by
/// replica id and ranked `key << 64 | id`, so ties on the key break towards
/// the lower id. A view whose key is `None` has no entry.
#[derive(Debug)]
struct LazyTree {
    key: fn(&ReplicaView) -> Option<u64>,
    tree: OnceCell<MinTree>,
}

impl LazyTree {
    fn new(key: fn(&ReplicaView) -> Option<u64>) -> Self {
        LazyTree {
            key,
            tree: OnceCell::new(),
        }
    }

    /// The replica with the least rank, building the tree from `views` on
    /// the first query; `None` when no view has a key.
    fn min(&self, views: &[ReplicaView]) -> Option<ReplicaId> {
        let tree =
            (self.tree).get_or_init(|| views.iter().map(|v| (v.id.0, rank(self.key, v))).collect());
        tree.min().map(|rank| ReplicaId(rank as u64 as usize))
    }

    /// Gives `view`'s replica its rank in a tree that has been built.
    fn refresh(&mut self, view: &ReplicaView) {
        if let Some(tree) = self.tree.get_mut() {
            tree.set(view.id.0, rank(self.key, view));
        }
    }

    /// Drops replica `id`'s entry from a tree that has been built.
    fn clear(&mut self, id: usize) {
        if let Some(tree) = self.tree.get_mut() {
            tree.set(id, MinTree::NONE);
        }
    }
}

/// `view`'s rank under `key`, [`MinTree::NONE`] when it has no key.
fn rank(key: fn(&ReplicaView) -> Option<u64>, view: &ReplicaView) -> u128 {
    key(view).map_or(MinTree::NONE, |key| {
        u128::from(key) << 64 | view.id.0 as u128
    })
}

/// The index keeps an entry per serving replica in every tree it has
/// built, so an arg-min query on a non-empty index always answers.
const NONEMPTY: &str = "the index keeps an entry per serving replica";

/// Incrementally-maintained routing index over one pool of the serving
/// fleet, fed by the indexed dispatch path of
/// [`crate::cluster::ClusterEvaluator::run`]. A fleet with role pools keeps
/// one index for arrivals (prefill and unified replicas) and one for KV
/// migrations (decode and unified replicas); a fleet without keeps one over
/// every serving replica. Each index holds one cached [`ReplicaView`] per
/// replica of its pool (refreshed only when that replica's state changed),
/// a running sum of their queued requests, and three lazily built min-trees
/// keyed by replica id that answer in `O(1)` what the reference path scans
/// `O(n)` views for. Each serves a benchmark workload:
///
/// * the fewest outstanding tokens ([`LeastOutstandingTokens`]);
/// * the shortest drain time ([`crate::PrefixAware`]);
/// * the oldest queued arrival (the autoscalers' [`crate::FleetView`]),
///   over only the replicas that have a queue.
///
/// Routers consume it through [`Router::route_indexed`]; only those two
/// routers answer from it.
///
/// A tree is built from the cached views the first time its query runs and
/// maintained only from then on, so a query nobody makes costs nothing.
/// Each tree holds one leaf per replica, so a refresh that changes a view
/// overwrites that replica's leaves in place in `O(log n)` and a removal
/// clears them: there are no stamps and no superseded entries. A refresh
/// that changes nothing touches no tree.
#[derive(Debug)]
pub struct RouterIndex {
    /// Cached views of the pool's serving replicas, ascending by replica id.
    views: Vec<ReplicaView>,
    /// Per-micro-batch KV budget, parallel to `views`.
    budgets: Vec<u64>,
    /// Replica id → position in `views` ([`ABSENT`] when not serving).
    pos: Vec<usize>,
    /// The tightest per-micro-batch KV budget across the pool: a request
    /// whose full context fits it is masked nowhere in the pool, so the full
    /// cached slice is the offer.
    pub(crate) min_budget: u64,
    /// Sum of `queued_requests` over the cached views.
    queued: usize,
    /// Keyed on `outstanding_tokens` ([`Self::least_outstanding`]).
    out_tree: LazyTree,
    /// Keyed on [`crate::PrefixAware`]'s drain time
    /// ([`Self::fastest_draining`]).
    drain_tree: LazyTree,
    /// Keyed on `oldest_queued_arrival`, with no entry for a replica without
    /// a queue ([`Self::oldest_queued_arrival`]).
    oldest_tree: LazyTree,
}

impl RouterIndex {
    pub(crate) fn new() -> Self {
        RouterIndex {
            views: Vec::new(),
            budgets: Vec::new(),
            pos: Vec::new(),
            min_budget: u64::MAX,
            queued: 0,
            out_tree: LazyTree::new(|v| Some(v.outstanding_tokens)),
            drain_tree: LazyTree::new(|v| Some(drain_key(v))),
            oldest_tree: LazyTree::new(|v| v.oldest_queued_arrival.map(|a| a.key().bits())),
        }
    }

    /// The cached views of the pool's serving replicas, ordered by replica
    /// id — exactly the slice [`Router::route`] is offered when no replica
    /// in the pool is masked for the request.
    pub fn views(&self) -> &[ReplicaView] {
        &self.views
    }

    /// Number of serving replicas in the index.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no replica is currently serving.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Whether `replica` is currently serving in this index's pool (and thus
    /// routable).
    pub fn contains(&self, replica: ReplicaId) -> bool {
        self.pos.get(replica.0).is_some_and(|&p| p != ABSENT)
    }

    /// The cached view of one serving replica.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is not in the index (see [`Self::contains`]).
    pub fn view_of(&self, replica: ReplicaId) -> &ReplicaView {
        &self.views[self.pos[replica.0]]
    }

    /// The serving replica with the fewest outstanding tokens, ties by lower
    /// id — [`LeastOutstandingTokens`]'s arg-min in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn least_outstanding(&self) -> ReplicaId {
        self.out_tree.min(&self.views).expect(NONEMPTY)
    }

    /// The serving replica with the shortest estimated drain time
    /// (outstanding tokens over its per-slot decode speed), ties by lower id
    /// — [`crate::PrefixAware`]'s fastest replica in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn fastest_draining(&self) -> ReplicaId {
        self.drain_tree.min(&self.views).expect(NONEMPTY)
    }

    /// Requests routed to the pool's serving replicas but not yet admitted,
    /// summed over the pool, in `O(1)`.
    pub fn total_queued(&self) -> usize {
        self.queued
    }

    /// The earliest arrival among the requests queued on the pool's serving
    /// replicas (`None` when nothing is queued), in `O(1)`.
    pub fn oldest_queued_arrival(&self) -> Option<Seconds> {
        self.oldest_tree
            .min(&self.views)
            .and_then(|id| self.view_of(id).oldest_queued_arrival)
    }

    /// Inserts or refreshes one serving replica's view. Refreshing a replica
    /// with the view it already has is a no-op. A replica's budget is fixed
    /// before its first upsert (`build_engine`), so a refresh compares the
    /// view only.
    pub(crate) fn upsert(&mut self, view: ReplicaView, budget: u64) {
        let id = view.id.0;
        if self.pos.len() <= id {
            self.pos.resize(id + 1, ABSENT);
        }
        let at = self.pos[id];
        if at == ABSENT {
            // Ids are assigned in join order so inserts usually append;
            // provisioning can finish out of id order, hence the search.
            let at = self.views.partition_point(|v| v.id.0 < id);
            self.views.insert(at, view);
            self.budgets.insert(at, budget);
            for (p, v) in self.views.iter().enumerate().skip(at) {
                self.pos[v.id.0] = p;
            }
            self.min_budget = self.budgets.iter().copied().min().unwrap_or(u64::MAX);
        } else {
            debug_assert_eq!(
                self.budgets[at], budget,
                "a replica's budget is fixed before its first upsert"
            );
            if self.views[at] == view {
                return;
            }
            self.queued -= self.views[at].queued_requests;
            self.views[at] = view;
        }
        self.queued += view.queued_requests;
        for tree in [
            &mut self.out_tree,
            &mut self.drain_tree,
            &mut self.oldest_tree,
        ] {
            tree.refresh(&view);
        }
    }

    /// Drops a replica that stopped serving (drain, failure, departure).
    pub(crate) fn remove(&mut self, id: usize) {
        let Some(&at) = self.pos.get(id) else {
            return;
        };
        if at == ABSENT {
            return;
        }
        self.queued -= self.views.remove(at).queued_requests;
        self.budgets.remove(at);
        self.pos[id] = ABSENT;
        for tree in [
            &mut self.out_tree,
            &mut self.drain_tree,
            &mut self.oldest_tree,
        ] {
            tree.clear(id);
        }
        for (p, v) in self.views.iter().enumerate().skip(at) {
            self.pos[v.id.0] = p;
        }
        self.min_budget = self.budgets.iter().copied().min().unwrap_or(u64::MAX);
    }
}

/// A request-routing strategy over a fleet of replicas.
///
/// The dispatch engine calls [`Router::route`] once per arriving request with
/// a view of every replica that could *ever* serve it (replicas whose
/// per-micro-batch KV budget the request alone would overflow are masked out),
/// and [`Router::on_complete`] when a routed request finishes, so stateful
/// strategies can track in-flight work. `route` must return the id of one of
/// the offered views; the engine falls back to the first offered view
/// otherwise.
///
/// Fleets may churn mid-run ([`crate::dynamics`]): the engine announces
/// membership changes through [`Router::on_replica_down`] (failures and
/// completed drains) and [`Router::on_replica_up`] (joins that finished
/// provisioning). Both default to no-ops so existing routers compile
/// unchanged; a draining replica simply stops appearing in the offered views.
pub trait Router: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in cluster reports and table rows.
    fn name(&self) -> &'static str;

    /// Picks the replica that will serve `request`. `replicas` is non-empty and
    /// ordered by replica id.
    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId;

    /// Sub-linear fast path consulted *instead of* [`Router::route`] when the
    /// dispatch engine maintains a [`RouterIndex`] per pool and no replica in
    /// the request's pool is masked for it (every serving replica of the
    /// pool could take it; on a fleet with role pools, `index` holds only
    /// that pool's replicas). Return `Some(id)` to decide from the index's
    /// incremental aggregates (an `O(1)` arg-min query, each kept by an
    /// `O(log n)` update per changed view, with no stamps), or `None` (the
    /// default) to fall back to `route` over the index's cached views —
    /// which is still allocation-free, just a linear scan for strategies
    /// that need one. Returning a non-serving id falls
    /// back to the first offered view, exactly like `route`.
    ///
    /// Only [`LeastOutstandingTokens`] and [`crate::PrefixAware`] answer
    /// here, the two routers a benchmark workload runs at fleet scale; a
    /// fast path for another router comes with the workload that measures
    /// its gain.
    fn route_indexed(
        &self,
        _request: &Request,
        _index: &RouterIndex,
        _ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        None
    }

    /// Completion callback: `request` finished on `replica` at global time
    /// `now` — in round-to-completion mode this fires at the request's actual
    /// completion step, not in bulk at round retirement.
    fn on_complete(
        &self,
        _request: &Request,
        _replica: ReplicaId,
        _now: Seconds,
        _ctx: &mut RouterCtx,
    ) {
    }

    /// Membership callback: `replica` left the fleet at `now` (failure, or a
    /// drain whose last in-flight request finished).
    fn on_replica_down(&self, _replica: ReplicaId, _now: Seconds, _ctx: &mut RouterCtx) {}

    /// Membership callback: `replica` finished provisioning at `now` and now
    /// appears in routing views.
    fn on_replica_up(&self, _replica: ReplicaId, _now: Seconds, _ctx: &mut RouterCtx) {}
}

/// Cycles through the offered replicas in id order, one request each — the
/// classic load-blind baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(
        &self,
        _request: &Request,
        replicas: &[ReplicaView],
        ctx: &mut RouterCtx,
    ) -> ReplicaId {
        replicas[(ctx.decision % replicas.len() as u64) as usize].id
    }
}

/// Routes to the replica with the fewest outstanding tokens (queued prompt +
/// generation work plus tokens still decoding), ties by id. Adapts to
/// heterogeneous replica speeds without knowing them: a slower replica's
/// backlog persists, steering new work away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastOutstandingTokens;

impl Router for LeastOutstandingTokens {
    fn name(&self) -> &'static str {
        "least-tokens"
    }

    fn route(
        &self,
        _request: &Request,
        replicas: &[ReplicaView],
        _ctx: &mut RouterCtx,
    ) -> ReplicaId {
        replicas
            .iter()
            .min_by_key(|v| (v.outstanding_tokens, v.id))
            .expect("route is called with a non-empty view slice")
            .id
    }

    fn route_indexed(
        &self,
        _request: &Request,
        index: &RouterIndex,
        _ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        Some(index.least_outstanding())
    }
}

/// Samples two distinct replicas with the seeded RNG and keeps the one with
/// fewer outstanding tokens — the classic O(1) approximation of
/// [`LeastOutstandingTokens`] that avoids herding in distributed routers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerOfTwoChoices;

impl Router for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(
        &self,
        _request: &Request,
        replicas: &[ReplicaView],
        ctx: &mut RouterCtx,
    ) -> ReplicaId {
        if replicas.len() == 1 {
            return replicas[0].id;
        }
        let first = ctx.rng.gen_range(0..replicas.len());
        let mut second = ctx.rng.gen_range(0..replicas.len() - 1);
        if second >= first {
            second += 1;
        }
        let (a, b) = (&replicas[first], &replicas[second]);
        if (a.outstanding_tokens, a.id) <= (b.outstanding_tokens, b.id) {
            a.id
        } else {
            b.id
        }
    }
}

/// Routes by projected KV headroom from each replica's policy: the request goes
/// to the replica whose capacity plan has the most uncommitted KV-cache tokens
/// (ties by fewer outstanding tokens, then id). Naturally favours replicas with
/// larger KV budgets in heterogeneous fleets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvAware;

impl Router for KvAware {
    fn name(&self) -> &'static str {
        "kv-aware"
    }

    fn route(
        &self,
        _request: &Request,
        replicas: &[ReplicaView],
        _ctx: &mut RouterCtx,
    ) -> ReplicaId {
        replicas
            .iter()
            .min_by_key(|v| (Reverse(v.kv_headroom()), v.outstanding_tokens, v.id))
            .expect("route is called with a non-empty view slice")
            .id
    }
}

/// All built-in routers, in the order used by the fig. 7 router ablation.
pub fn builtin_routers() -> Vec<Arc<dyn Router>> {
    vec![
        Arc::new(RoundRobin),
        Arc::new(LeastOutstandingTokens),
        Arc::new(PowerOfTwoChoices),
        Arc::new(KvAware),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disagg::{drain_seconds, PrefixAware, StickySession};
    use proptest::prelude::*;

    fn view(id: usize, outstanding: u64, headroom: u64) -> ReplicaView {
        ReplicaView {
            id: ReplicaId(id),
            outstanding_tokens: outstanding,
            kv_capacity: 10_000,
            kv_projected: 10_000 - headroom,
            ..ReplicaView::default()
        }
    }

    #[test]
    fn round_robin_cycles_through_the_offered_views() {
        let views = [view(0, 0, 0), view(1, 0, 0), view(2, 0, 0)];
        let mut ctx = RouterCtx::new(0);
        let request = Request::new(0, 10, 10);
        let mut picks = Vec::new();
        for _ in 0..6 {
            picks.push(RoundRobin.route(&request, &views, &mut ctx).0);
            ctx.decision += 1;
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_tokens_picks_the_emptiest_replica() {
        let views = [view(0, 500, 100), view(1, 20, 0), view(2, 500, 900)];
        let mut ctx = RouterCtx::new(0);
        let request = Request::new(0, 10, 10);
        assert_eq!(
            LeastOutstandingTokens.route(&request, &views, &mut ctx),
            ReplicaId(1)
        );
        // Ties break towards the lower id.
        let tied = [view(0, 20, 0), view(1, 20, 0)];
        assert_eq!(
            LeastOutstandingTokens.route(&request, &tied, &mut ctx),
            ReplicaId(0)
        );
    }

    #[test]
    fn kv_aware_picks_the_most_headroom() {
        let views = [view(0, 10, 100), view(1, 900, 5000), view(2, 10, 4999)];
        let mut ctx = RouterCtx::new(0);
        let request = Request::new(0, 10, 10);
        assert_eq!(KvAware.route(&request, &views, &mut ctx), ReplicaId(1));
    }

    #[test]
    fn power_of_two_choices_is_seeded_and_in_range() {
        let views = [
            view(0, 5, 0),
            view(1, 500, 0),
            view(2, 50, 0),
            view(3, 1, 0),
        ];
        let request = Request::new(0, 10, 10);
        let picks = |seed: u64| -> Vec<usize> {
            let mut ctx = RouterCtx::new(seed);
            (0..32)
                .map(|_| PowerOfTwoChoices.route(&request, &views, &mut ctx).0)
                .collect()
        };
        assert_eq!(picks(7), picks(7), "same seed, same decisions");
        assert!(picks(7).iter().all(|&i| i < 4));
        // With one view there is no choice to make.
        let mut ctx = RouterCtx::new(1);
        assert_eq!(
            PowerOfTwoChoices.route(&request, &views[..1], &mut ctx),
            ReplicaId(0)
        );
    }

    /// The built trees of `index`: outstanding tokens, drain time, oldest
    /// queued arrival (`None` while unbuilt).
    fn built(index: &RouterIndex) -> [Option<MinTree>; 3] {
        [&index.out_tree, &index.drain_tree, &index.oldest_tree].map(|t| t.tree.get().cloned())
    }

    fn indexed(views: &[ReplicaView]) -> RouterIndex {
        let mut index = RouterIndex::new();
        for v in views {
            index.upsert(*v, 4_096);
        }
        index
    }

    #[test]
    fn an_identical_upsert_leaves_every_built_tree_unchanged() {
        let views = [view(0, 50, 10), view(1, 20, 900), view(2, 20, 30)];
        let mut index = indexed(&views);
        assert_eq!(index.least_outstanding(), ReplicaId(1));
        assert_eq!(index.fastest_draining(), ReplicaId(1));
        assert_eq!(index.oldest_queued_arrival(), None);
        let trees = built(&index);
        assert!(trees.iter().all(Option::is_some));
        index.upsert(views[1], 4_096);
        assert_eq!(built(&index), trees);
        // A changed view is a refresh: its keyed trees change in place.
        index.upsert(view(1, 21, 900), 4_096);
        let [out, drain, oldest] = built(&index);
        assert_ne!(out, trees[0]);
        assert_ne!(drain, trees[1]);
        assert_eq!(oldest, trees[2], "no queue, no entry");
        assert_eq!(index.least_outstanding(), ReplicaId(2));
    }

    #[test]
    fn router_trees_are_built_on_their_first_query() {
        let views = [
            view(3, 70, 500),
            view(0, 40, 100),
            view(5, 40, 500),
            view(1, 90, 800),
        ];
        let mut index = indexed(&views);
        for (i, v) in views.iter().enumerate() {
            index.upsert(view(v.id.0, v.outstanding_tokens + i as u64, 300), 4_096);
        }
        assert_eq!(built(&index), [None, None, None], "no query, no tree");
        let least = |index: &RouterIndex| {
            index
                .views()
                .iter()
                .min_by_key(|v| (v.outstanding_tokens, v.id))
                .map(|v| v.id)
        };
        assert_eq!(Some(index.least_outstanding()), least(&index));
        let is_built = built(&index).map(|t| t.is_some());
        assert_eq!(is_built, [true, false, false], "only the queried tree");
        let fastest = |index: &RouterIndex| {
            index
                .views()
                .iter()
                .min_by_key(|v| (drain_key(v), v.id))
                .map(|v| v.id)
        };
        assert_eq!(Some(index.fastest_draining()), fastest(&index));
        // Both trees answer the scans through later refreshes and removals.
        index.upsert(view(1, 10, 50), 4_096);
        index.remove(5);
        assert_eq!(Some(index.least_outstanding()), least(&index));
        assert_eq!(Some(index.fastest_draining()), fastest(&index));
    }

    /// A view drawn from small ranges, so drain times tie often (equal
    /// backlogs at equal per-slot speeds, and zero backlogs everywhere) and
    /// queued replicas share arrivals.
    fn drawn_view(
        id: usize,
        (outstanding, rate, active): (u64, usize, usize),
        (queued, arrival): (usize, u8),
    ) -> ReplicaView {
        ReplicaView {
            queued_requests: queued,
            active_requests: active,
            decode_rate: [0.0, 8.0, 16.0][rate],
            oldest_queued_arrival: (queued > 0).then(|| Seconds::from_secs(f64::from(arrival))),
            ..view(id, 100 * outstanding, 40 * outstanding)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every random upsert and removal, the index answers what a
        /// scan of its cached views computes: the drain-time arg-min (ties
        /// by id), the queued sum, the oldest queued arrival, and the
        /// outstanding-token arg-min. The drain key orders views as
        /// `f64::total_cmp` on the drain time does.
        #[test]
        fn index_aggregates_match_a_scan_of_its_views(
            ops in collection::vec(
                ((0u8..4, 0usize..6), (0u64..4, 0usize..3, 0usize..3), (0usize..3, 0u8..4)),
                1..80,
            ),
        ) {
            let mut index = RouterIndex::new();
            for ((kind, id), load, queue) in ops {
                if kind == 0 {
                    index.remove(id);
                } else {
                    index.upsert(drawn_view(id, load, queue), 4_096);
                }
                let views = index.views();
                prop_assert_eq!(
                    index.total_queued(),
                    views.iter().map(|v| v.queued_requests).sum::<usize>()
                );
                prop_assert_eq!(
                    index.oldest_queued_arrival(),
                    views
                        .iter()
                        .filter_map(|v| v.oldest_queued_arrival)
                        .min_by_key(|a| a.key())
                );
                for (a, b) in views.iter().zip(views.iter().rev()) {
                    prop_assert_eq!(
                        drain_key(a).cmp(&drain_key(b)),
                        drain_seconds(a).total_cmp(&drain_seconds(b))
                    );
                }
                if let Some(fastest) = views.iter().min_by_key(|v| (drain_key(v), v.id)) {
                    prop_assert_eq!(index.fastest_draining(), fastest.id);
                    let least = views.iter().min_by_key(|v| (v.outstanding_tokens, v.id));
                    prop_assert_eq!(Some(index.least_outstanding()), least.map(|v| v.id));
                }
            }
        }
    }

    /// The routers with an indexed fast path are exactly the two a
    /// benchmark workload runs at fleet scale: offered one unmasked index,
    /// `LeastOutstandingTokens` and `PrefixAware` answer and every other
    /// router defers to `route` over the offer.
    #[test]
    fn only_measured_routers_answer_from_the_index() {
        let index = indexed(&[view(0, 50, 10), view(1, 20, 900), view(2, 30, 30)]);
        let request = Request::new(0, 10, 10);
        let mut routers = builtin_routers();
        routers.push(Arc::new(PrefixAware::new()));
        routers.push(Arc::new(StickySession::new(Arc::new(
            LeastOutstandingTokens,
        ))));
        for router in routers {
            let name = router.name();
            let answered = router
                .route_indexed(&request, &index, &mut RouterCtx::new(0))
                .is_some();
            let fast = matches!(name, "least-tokens" | "prefix-aware");
            assert_eq!(answered, fast, "{name}");
        }
    }

    #[test]
    fn builtin_router_names_are_stable() {
        let names: Vec<&str> = builtin_routers().iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec!["round-robin", "least-tokens", "power-of-two", "kv-aware"]
        );
    }

    #[test]
    fn replica_view_accessors() {
        let v = ReplicaView {
            id: ReplicaId(3),
            queued_requests: 2,
            active_requests: 5,
            outstanding_tokens: 700,
            kv_capacity: 1000,
            kv_projected: 1200,
            oldest_queued_arrival: Some(Seconds::from_secs(3.0)),
            ..ReplicaView::default()
        };
        assert_eq!(v.kv_headroom(), 0, "over-commit saturates at zero");
        assert_eq!(ReplicaId(3).to_string(), "r3");
    }
}
