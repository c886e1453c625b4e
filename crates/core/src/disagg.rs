//! Disaggregated prefill/decode serving: pool roles, KV migration over an
//! interconnect, per-replica prefix caches, and cache/session/speed-aware
//! routing.
//!
//! Production MoE serving splits prefill and decode onto separate replica
//! pools (the DistServe/Splitwise design point), and prefill is a *phase* of
//! one request, not a request of its own. A [`ReplicaRole::Prefill`] replica
//! queues each generation-bearing request it is routed as prefill-only
//! work (`ReplicaRole::phase_for`); when the prompt wave finishes, the
//! engine releases a handoff of the original request instead of a latency
//! record. The fleet loop turns that handoff into a KV migration to a
//! [`ReplicaRole::Decode`] (or [`ReplicaRole::Unified`]) replica over the
//! fleet's [`InterconnectSpec`]: a priced, latency-modeled event
//! (`CostModel::kv_migrate`) on the global clock. Its KV holds headroom on
//! the destination ([`crate::ReplicaView::kv_migrating_in`]) for the whole
//! flight; on landing it is queued as decode-only work, its whole prompt
//! credited. A destination that fails mid-transfer loses the KV: the
//! request re-enters at the front door and pays its prefill again. The
//! request keeps its identity throughout — churn on a prefill replica
//! returns it, not a copy.
//!
//! Orthogonally, every replica may carry a [`PrefixCache`] — per-session runs
//! of cached blocks with a token capacity and LRU eviction, modeling
//! multi-turn shared history within a session; a hit skips the cached
//! prefix's prefill tokens. Two routers exploit it: [`StickySession`] pins
//! sessions to their previous replica, and [`PrefixAware`] trades the
//! estimated cache benefit against queue imbalance using the router-visible
//! measured decode rate ([`crate::ReplicaView::decode_rate`], an EWMA in
//! tokens/s — speed, not just backlog).
//!
//! Pools are not a dispatch path of their own: arrivals and migration
//! destinations are placed by the fleet loop's one placement function, whose
//! offer keeps only the replicas of the request's pool — that pool's whole
//! router index on the indexed loop when no replica of the pool is masked
//! for the request, fresh views of the eligible replicas otherwise. A
//! migration in flight is an entry of the fleet loop's agenda
//! ([`crate::agenda`]), the one owner of its request, destination and KV
//! until it lands: in landing order, after co-timed timeline actions and
//! provisioning completions and before co-timed arrivals. The engines keep
//! no copy of it. The `FleetLoop` methods below
//! that start, land and lose migrations are `pub(crate)` plumbing behind
//! [`crate::cluster::ClusterEvaluator`].

use crate::cluster::{ClusterSpec, FleetLoop, Pool, ReplicaSpec};
use crate::engine::Phase;
use crate::router::{ReplicaId, ReplicaView, Router, RouterCtx, RouterIndex};
use moe_hardware::{Bandwidth, Seconds};
use moe_workload::Request;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Which phase of serving a replica's pool runs (see [`ReplicaSpec::with_role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicaRole {
    /// Runs both phases on one replica — the classic colocated default.
    #[default]
    Unified,
    /// Runs prompt waves only: generation-bearing requests are admitted as
    /// prefill-only work and their KV migrates to a decode-capable replica
    /// when the prompt wave completes.
    Prefill,
    /// Runs decode only: receives migrated KV; never offered new arrivals.
    Decode,
}

impl ReplicaRole {
    /// Short stable identifier used in table rows.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaRole::Unified => "unified",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        }
    }

    /// Whether new arrivals may be routed to a replica of this role.
    pub fn takes_arrivals(&self) -> bool {
        matches!(self, ReplicaRole::Unified | ReplicaRole::Prefill)
    }

    /// Whether migrated KV may be handed to a replica of this role.
    pub fn takes_migrations(&self) -> bool {
        matches!(self, ReplicaRole::Unified | ReplicaRole::Decode)
    }

    /// The phase a replica of this role runs `request` in: a prefill replica
    /// runs a generation-bearing request's prompt wave only and hands it
    /// off; everything else is served in full.
    pub(crate) fn phase_for(&self, request: &Request) -> Phase {
        if *self == ReplicaRole::Prefill && request.gen_len > 0 {
            Phase::PrefillOnly
        } else {
            Phase::Full
        }
    }
}

impl fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The replica↔replica interconnect KV migrations move over: a bandwidth plus
/// a per-transfer latency floor (`CostModel::kv_migrate` prices one handoff
/// as `kv_bytes(context) / bandwidth + latency`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    gb_per_sec: f64,
    latency: Seconds,
}

impl Default for InterconnectSpec {
    /// A 200 GbE RDMA-class fabric: 25 GB/s per link, 10 µs per transfer.
    fn default() -> Self {
        InterconnectSpec {
            gb_per_sec: 25.0,
            latency: Seconds::from_micros(10.0),
        }
    }
}

impl InterconnectSpec {
    /// An interconnect of `gb_per_sec` GB/s with a per-transfer `latency`.
    pub fn new(gb_per_sec: f64, latency: Seconds) -> Self {
        InterconnectSpec {
            gb_per_sec,
            latency,
        }
    }

    /// The link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::from_gb_per_sec(self.gb_per_sec)
    }

    /// The per-transfer latency floor.
    pub fn latency(&self) -> Seconds {
        self.latency
    }
}

/// Router-visible statistics of one replica's [`PrefixCache`] (zeroed when
/// the replica has no cache). Snapshotted into
/// [`crate::ReplicaView::cache_stats`] and the per-replica cluster report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// The cache's capacity in tokens.
    pub capacity_tokens: u64,
    /// Tokens currently resident.
    pub resident_tokens: u64,
    /// Lookups that matched at least one block.
    pub hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Total prefill tokens skipped by cache hits.
    pub hit_tokens: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit (0.0 with no observations).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// Estimated prefill tokens a request of `input_len` would skip here:
    /// the observed hit rate scaled over the prompt, optimistically the whole
    /// prompt while the cache is warm but unobserved. Zero for an empty
    /// cache — this is the scoring signal [`PrefixAware`] routes on.
    pub fn estimated_hit_tokens(&self, input_len: u64) -> u64 {
        if self.resident_tokens == 0 {
            return 0;
        }
        let rate = if self.lookups() == 0 {
            1.0
        } else {
            self.hit_rate()
        };
        (input_len as f64 * rate) as u64
    }
}

/// Tokens per prefix-cache block: hits are counted in whole blocks, like a
/// paged KV cache reusing full pages only.
pub const PREFIX_BLOCK_TOKENS: u64 = 32;

/// A per-replica prefix cache: each session's cached history as a run of
/// whole blocks, with a token capacity and LRU eviction of a run's last
/// block. A hit skips the matched prefix's prefill tokens (the engine
/// credits them at admission).
///
/// The simulator has no token *content*, so a block is identified by
/// `(session, block index)`: the cache models multi-turn shared history
/// within a session — exactly the reuse [`StickySession`] and
/// [`PrefixAware`] routing make reachable — not cross-session sharing. Every
/// lookup or insert stamps a prefix of one session's blocks with a fresh
/// tick, so ticks never rise along a session's history and block-level LRU
/// always evicts a session's last resident block: what a session has
/// resident is a prefix `0..n` of its blocks, its run.
///
/// Cost: a lookup or insert of a `b`-block prompt takes one map probe,
/// `O(b)` tick stamps, and `O(log n)` per re-keyed run and per evicted
/// block, `n` the resident sessions. Runs sit in a set ordered by
/// `(tick of the last block, session)`, so the victim is always the least
/// recently used block without a scan. No two runs' last blocks share a
/// tick, so the session never breaks a tie.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    capacity_tokens: u64,
    /// Each session's resident blocks' last-use ticks, in prefix order.
    runs: HashMap<u64, Vec<u64>>,
    /// Every resident run, keyed `(tick of its last block, session)`: the
    /// first entry holds the least recently used block.
    lru: BTreeSet<(u64, u64)>,
    resident_tokens: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
}

impl PrefixCache {
    /// An empty cache holding at most `capacity_tokens` tokens.
    pub fn new(capacity_tokens: u64) -> Self {
        PrefixCache {
            capacity_tokens,
            runs: HashMap::new(),
            lru: BTreeSet::new(),
            resident_tokens: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            hit_tokens: 0,
        }
    }

    /// Longest cached prefix of a `input_len`-token prompt from `session`, in
    /// tokens (whole blocks). Touches the matched blocks for LRU and records
    /// the hit/miss.
    pub fn lookup(&mut self, session: u64, input_len: u64) -> u64 {
        let blocks = input_len / PREFIX_BLOCK_TOKENS;
        if blocks == 0 {
            return 0;
        }
        self.tick += 1;
        let matched = match self.runs.get_mut(&session) {
            Some(run) => {
                let matched = run.len().min(blocks as usize);
                if matched == run.len() {
                    self.lru.remove(&(run[matched - 1], session));
                    self.lru.insert((self.tick, session));
                }
                run[..matched].fill(self.tick);
                matched as u64
            }
            None => 0,
        };
        let hit_tokens = matched * PREFIX_BLOCK_TOKENS;
        if matched > 0 {
            self.hits += 1;
            self.hit_tokens += hit_tokens;
        } else {
            self.misses += 1;
        }
        hit_tokens
    }

    /// Inserts the whole-block prefix of a `input_len`-token prompt from
    /// `session`, evicting least-recently-used blocks while over capacity.
    pub fn insert(&mut self, session: u64, input_len: u64) {
        let blocks = input_len / PREFIX_BLOCK_TOKENS;
        if blocks == 0 || self.capacity_tokens == 0 {
            return;
        }
        self.tick += 1;
        let blocks = blocks as usize;
        let run = self
            .runs
            .entry(session)
            .or_insert_with(|| Vec::with_capacity(blocks));
        if blocks < run.len() {
            run[..blocks].fill(self.tick);
        } else {
            if let Some(&last) = run.last() {
                self.lru.remove(&(last, session));
            }
            self.resident_tokens += (blocks - run.len()) as u64 * PREFIX_BLOCK_TOKENS;
            run.fill(self.tick);
            run.resize(blocks, self.tick);
            self.lru.insert((self.tick, session));
        }
        self.evict_over_capacity();
    }

    /// Evicts least-recently-used blocks — always the last block of the run
    /// whose last block is oldest — until resident tokens fit the capacity.
    fn evict_over_capacity(&mut self) {
        while self.resident_tokens > self.capacity_tokens {
            let Some((_, session)) = self.lru.pop_first() else {
                break;
            };
            let run = self
                .runs
                .get_mut(&session)
                .expect("every `lru` entry names a resident run");
            run.pop();
            if let Some(&last) = run.last() {
                self.lru.insert((last, session));
            } else {
                self.runs.remove(&session);
            }
            self.resident_tokens -= PREFIX_BLOCK_TOKENS;
        }
    }

    /// Router-visible statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            capacity_tokens: self.capacity_tokens,
            resident_tokens: self.resident_tokens,
            hits: self.hits,
            misses: self.misses,
            hit_tokens: self.hit_tokens,
        }
    }
}

/// Session-affinity wrapper: requests of a session the fleet has seen before
/// go back to the replica that served it (keeping its KV/prefix state hot);
/// unseen sessions are routed by the wrapped strategy. A session whose home
/// replica left the fleet is re-homed by the inner router on its next
/// request. The homes live in the run's [`RouterCtx::homes`], so every run
/// starts with none.
///
/// It has no indexed fast path: on the indexed loop it routes through
/// [`Router::route`] over the index's cached views, as [`crate::RoundRobin`]
/// does, whatever its inner router.
#[derive(Debug)]
pub struct StickySession {
    inner: Arc<dyn Router>,
}

impl StickySession {
    /// Pins sessions over `inner`'s placement decisions.
    pub fn new(inner: Arc<dyn Router>) -> Self {
        StickySession { inner }
    }
}

impl Router for StickySession {
    fn name(&self) -> &'static str {
        "sticky-session"
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        if let Some(&home) = ctx.homes.get(&request.session_id) {
            if replicas.iter().any(|v| v.id == home) {
                return home;
            }
        }
        let chosen = self.inner.route(request, replicas, ctx);
        let chosen = if replicas.iter().any(|v| v.id == chosen) {
            chosen
        } else {
            replicas[0].id
        };
        ctx.homes.insert(request.session_id, chosen);
        chosen
    }

    fn on_complete(
        &self,
        request: &Request,
        replica: ReplicaId,
        now: Seconds,
        ctx: &mut RouterCtx,
    ) {
        self.inner.on_complete(request, replica, now, ctx);
    }

    fn on_replica_down(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        ctx.homes.retain(|_, home| *home != replica);
        self.inner.on_replica_down(replica, now, ctx);
    }

    fn on_replica_up(&self, replica: ReplicaId, now: Seconds, ctx: &mut RouterCtx) {
        self.inner.on_replica_up(replica, now, ctx);
    }
}

/// How many backlog tokens one estimated cache-hit token is worth to
/// [`PrefixAware`]: cached prefill tokens are skipped outright, while backlog
/// tokens still cost decode steps, so affinity survives moderate imbalance.
const PREFIX_STICKINESS: u64 = 64;

/// Estimated seconds to drain a replica's outstanding tokens at its measured
/// decode speed — the speed-aware load signal ([`crate::ReplicaView`]'s EWMA
/// `decode_rate`). The EWMA is an aggregate rate (concurrent requests per
/// step), so it is normalized by the live concurrency to a per-slot hardware
/// speed; otherwise a deeply-batched replica would look fast purely because
/// it is busy. Replicas with no measurement yet are scored by raw backlog (a
/// cold replica has none, so it still looks cheapest).
pub(crate) fn drain_seconds(view: &ReplicaView) -> f64 {
    let slots = view.active_requests.max(1) as f64;
    let rate = if view.decode_rate > 0.0 {
        view.decode_rate / slots
    } else {
        1.0
    };
    view.outstanding_tokens as f64 / rate
}

/// [`drain_seconds`] (never negative or NaN) as its `TimeKey` bits, so
/// [`PrefixAware::route`]'s scan and the [`RouterIndex`] tree behind its
/// fast path rank replicas by one key in `f64::total_cmp` order.
pub(crate) fn drain_key(view: &ReplicaView) -> u64 {
    Seconds::from_secs(drain_seconds(view)).key().bits()
}

/// The session's placement given its home (if the home still serves) and
/// the fastest-draining replica: stay home while the estimated prefill
/// tokens its cache would skip, weighted by [`PREFIX_STICKINESS`], cover the
/// home's backlog excess over the fastest replica.
fn stay_or_move(request: &Request, home: Option<&ReplicaView>, fastest: &ReplicaView) -> ReplicaId {
    match home {
        Some(home) => {
            let benefit = home.cache_stats.estimated_hit_tokens(request.input_len);
            let penalty = home
                .outstanding_tokens
                .saturating_sub(fastest.outstanding_tokens);
            if penalty <= benefit.saturating_mul(PREFIX_STICKINESS) {
                home.id
            } else {
                fastest.id
            }
        }
        None => fastest.id,
    }
}

/// Prefix-cache- and speed-aware routing: a session goes back to its home
/// replica while the estimated prefill tokens its cache would skip
/// ([`CacheStats::estimated_hit_tokens`]) outweigh the home's backlog excess
/// over the fleet's fastest-draining replica; otherwise it is re-homed on
/// that replica (minimum drain time: outstanding tokens over the measured
/// EWMA decode rate, not just backlog). The homes live in the run's
/// [`RouterCtx::homes`], so every run starts with none.
///
/// Its fast path answers every unmasked decision from the [`RouterIndex`]:
/// the fastest-draining replica is the root of the index's drain-time tree
/// and the home's view is a lookup, so a decision costs `O(1)`, not a scan
/// of the offer.
#[derive(Debug, Default)]
pub struct PrefixAware;

impl PrefixAware {
    /// The prefix-aware router.
    pub fn new() -> Self {
        PrefixAware
    }
}

impl Router for PrefixAware {
    fn name(&self) -> &'static str {
        "prefix-aware"
    }

    fn route(&self, request: &Request, replicas: &[ReplicaView], ctx: &mut RouterCtx) -> ReplicaId {
        let fastest = replicas
            .iter()
            .min_by_key(|v| (drain_key(v), v.id))
            .expect("route is called with a non-empty view slice");
        let home = ctx.homes.entry(request.session_id).or_insert(fastest.id);
        *home = stay_or_move(request, replicas.iter().find(|v| v.id == *home), fastest);
        *home
    }

    fn route_indexed(
        &self,
        request: &Request,
        index: &RouterIndex,
        ctx: &mut RouterCtx,
    ) -> Option<ReplicaId> {
        let fastest = index.view_of(index.fastest_draining());
        let home = ctx.homes.entry(request.session_id).or_insert(fastest.id);
        let home_view = index.contains(*home).then(|| index.view_of(*home));
        *home = stay_or_move(request, home_view, fastest);
        Some(*home)
    }

    fn on_replica_down(&self, replica: ReplicaId, _now: Seconds, ctx: &mut RouterCtx) {
        ctx.homes.retain(|_, home| *home != replica);
    }
}

impl ReplicaSpec {
    /// Assigns the replica to a disaggregated pool (default
    /// [`ReplicaRole::Unified`]). Any non-unified role gives the run role
    /// pools: arrivals go to prefill/unified replicas and prefill-pool KV
    /// migrates to decode/unified replicas.
    pub fn with_role(mut self, role: ReplicaRole) -> Self {
        self.role = role;
        self
    }
}

impl ClusterSpec {
    /// Sets the replica↔replica interconnect KV migrations are priced on
    /// (default: [`InterconnectSpec::default`]).
    pub fn with_interconnect(mut self, interconnect: InterconnectSpec) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// Gives every replica a [`PrefixCache`] of `capacity_tokens` tokens.
    /// Off by default — without a cache the engine's costing is bit-for-bit
    /// the classic full-prefill path.
    pub fn with_prefix_cache(mut self, capacity_tokens: u64) -> Self {
        self.prefix_cache = Some(capacity_tokens);
        self
    }

    /// Whether any replica (or the autoscaler's scale template) is assigned
    /// to a non-unified pool — the switch into role pools and KV handoff.
    pub fn has_role_pools(&self) -> bool {
        self.replicas.iter().any(|r| r.role != ReplicaRole::Unified)
            || self
                .scale_template
                .as_ref()
                .is_some_and(|t| t.role != ReplicaRole::Unified)
    }
}

impl FleetLoop<'_> {
    /// Starts the KV migration of a request handed off by prefill replica
    /// `from` at `t`: places the KV slice on a decode-capable replica of the
    /// migration pool and puts it on the wire. The transfer is priced by the
    /// source replica's cost model over the fleet interconnect; the agenda
    /// holds its `max_context` KV against the destination for the flight.
    pub(crate) fn start_migration(&mut self, origin: Request, from: usize, t: Seconds) {
        let Some((dest, _)) = self.place(&origin, Pool::Migrations) else {
            // No decode-capable replica is alive: the prefill was wasted work
            // and the request is aborted at fleet level.
            self.abort(origin, t);
            return;
        };
        let dest = dest.id;
        let interconnect = self.spec.interconnect;
        let delay = self.engines[from].evaluator.cost_model().kv_migrate(
            origin.input_len,
            interconnect.bandwidth(),
            interconnect.latency(),
        );
        self.agenda.push_landing(t + delay, origin, dest.0);
        self.mark_dirty(dest.0);
        self.note_migration_start(&origin, from, dest.0, t + delay, t);
    }

    /// Lands the migration in agenda slot `slot` at time `t`: the agenda
    /// takes it off the wire and its destination queues the request as
    /// [`Phase::DecodeOnly`] work — unless it left the fleet mid-transfer, in
    /// which case the KV is lost and the request re-enters at the front door.
    pub(crate) fn land_migration(&mut self, slot: usize, t: Seconds) {
        let (request, dest) = self.agenda.land(slot);
        self.mark_dirty(dest);
        if self.engines[dest].is_serving() {
            self.note_migration_end(&request, dest, true, t);
            self.engines[dest].enqueue(request, Phase::DecodeOnly, t);
        } else {
            self.note_migration_end(&request, dest, false, t);
            self.redispatch(request, t);
        }
    }

    /// A decode-capable replica failed: every migration still on the wire to
    /// it loses its KV (ROADMAP's "failed decode replica loses in-flight
    /// migrated KV") and re-enters at the front door, paying prefill again.
    pub(crate) fn lose_migrations_to(&mut self, dest: usize, t: Seconds) {
        for request in self.agenda.take_landings_to(dest) {
            self.note_migration_end(&request, dest, false, t);
            self.redispatch(request, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn view(id: usize, outstanding: u64) -> ReplicaView {
        ReplicaView {
            id: ReplicaId(id),
            outstanding_tokens: outstanding,
            kv_capacity: 10_000,
            ..ReplicaView::default()
        }
    }

    #[test]
    fn roles_partition_arrivals_and_migrations() {
        assert!(ReplicaRole::Unified.takes_arrivals() && ReplicaRole::Unified.takes_migrations());
        assert!(ReplicaRole::Prefill.takes_arrivals() && !ReplicaRole::Prefill.takes_migrations());
        assert!(!ReplicaRole::Decode.takes_arrivals() && ReplicaRole::Decode.takes_migrations());
        assert_eq!(ReplicaRole::default(), ReplicaRole::Unified);
        assert_eq!(ReplicaRole::Prefill.to_string(), "prefill");
    }

    #[test]
    fn prefix_cache_hits_grow_with_shared_session_history() {
        let mut cache = PrefixCache::new(10_000);
        // First turn: nothing cached.
        assert_eq!(cache.lookup(7, 256), 0);
        cache.insert(7, 256);
        // Second turn extends the same session's history: the shared 256
        // tokens (8 blocks) hit.
        assert_eq!(cache.lookup(7, 512), 256);
        cache.insert(7, 512);
        // A different session shares nothing.
        assert_eq!(cache.lookup(8, 512), 0);
        // Sub-block prompts neither hit nor insert, and are not counted as
        // lookups at all.
        assert_eq!(cache.lookup(9, PREFIX_BLOCK_TOKENS - 1), 0);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hit_tokens, 256);
        assert_eq!(stats.resident_tokens, 512);
    }

    #[test]
    fn prefix_cache_evicts_least_recently_used_leaves() {
        // Capacity of exactly two blocks.
        let mut cache = PrefixCache::new(2 * PREFIX_BLOCK_TOKENS);
        cache.insert(1, PREFIX_BLOCK_TOKENS);
        cache.insert(2, PREFIX_BLOCK_TOKENS);
        assert_eq!(cache.stats().resident_tokens, 2 * PREFIX_BLOCK_TOKENS);
        // Touch session 1 so session 2 is the LRU victim.
        assert_eq!(cache.lookup(1, PREFIX_BLOCK_TOKENS), PREFIX_BLOCK_TOKENS);
        cache.insert(3, PREFIX_BLOCK_TOKENS);
        assert_eq!(cache.stats().resident_tokens, 2 * PREFIX_BLOCK_TOKENS);
        assert_eq!(cache.lookup(1, PREFIX_BLOCK_TOKENS), PREFIX_BLOCK_TOKENS);
        assert_eq!(cache.lookup(2, PREFIX_BLOCK_TOKENS), 0, "evicted");
        assert_eq!(cache.lookup(3, PREFIX_BLOCK_TOKENS), PREFIX_BLOCK_TOKENS);
    }

    #[test]
    fn prefix_cache_with_zero_capacity_stays_empty() {
        let mut cache = PrefixCache::new(0);
        cache.insert(1, 4096);
        assert_eq!(cache.stats().resident_tokens, 0);
        assert_eq!(cache.lookup(1, 4096), 0);
    }

    #[test]
    fn sticky_session_pins_and_rehomes_after_replica_down() {
        let sticky = StickySession::new(Arc::new(crate::router::LeastOutstandingTokens));
        let mut ctx = RouterCtx::new(0);
        let views = [view(0, 500), view(1, 20)];
        let first = Request::new(1, 64, 16).with_session(42);
        assert_eq!(sticky.route(&first, &views, &mut ctx), ReplicaId(1));
        // The session stays home even when the load flips.
        let flipped = [view(0, 0), view(1, 9_000)];
        let second = Request::new(2, 64, 16).with_session(42);
        assert_eq!(sticky.route(&second, &flipped, &mut ctx), ReplicaId(1));
        // Losing the home replica re-homes the session by load.
        sticky.on_replica_down(ReplicaId(1), Seconds::ZERO, &mut ctx);
        let third = Request::new(3, 64, 16).with_session(42);
        assert_eq!(sticky.route(&third, &flipped, &mut ctx), ReplicaId(0));
    }

    #[test]
    fn prefix_aware_trades_cache_benefit_against_backlog_and_speed() {
        let router = PrefixAware::new();
        let mut ctx = RouterCtx::new(0);
        // A measured-fast replica beats a backlog-light but slow one.
        let mut fast = view(0, 4_000);
        fast.decode_rate = 1_000.0;
        let mut slow = view(1, 1_000);
        slow.decode_rate = 10.0;
        let first = Request::new(1, 256, 16).with_session(5);
        assert_eq!(router.route(&first, &[fast, slow], &mut ctx), ReplicaId(0));
        // With a warm cache at home, moderate imbalance doesn't move the
        // session...
        let mut home = fast;
        home.cache_stats = CacheStats {
            capacity_tokens: 10_000,
            resident_tokens: 512,
            hits: 9,
            misses: 1,
            hit_tokens: 2_000,
        };
        home.outstanding_tokens = 4_800;
        let mut other = slow;
        other.decode_rate = 1_000.0;
        other.outstanding_tokens = 4_000;
        let second = Request::new(2, 256, 16).with_session(5);
        assert_eq!(
            router.route(&second, &[home, other], &mut ctx),
            ReplicaId(0)
        );
        // ...but a massive imbalance outweighs the cache benefit.
        home.outstanding_tokens = 40_000;
        let third = Request::new(3, 256, 16).with_session(5);
        assert_eq!(router.route(&third, &[home, other], &mut ctx), ReplicaId(1));
    }

    #[test]
    fn estimated_hit_tokens_is_optimistic_only_when_warm() {
        let cold = CacheStats::default();
        assert_eq!(cold.estimated_hit_tokens(1_000), 0);
        let warm_unobserved = CacheStats {
            capacity_tokens: 10_000,
            resident_tokens: 256,
            ..CacheStats::default()
        };
        assert_eq!(warm_unobserved.estimated_hit_tokens(1_000), 1_000);
        let measured = CacheStats {
            capacity_tokens: 10_000,
            resident_tokens: 256,
            hits: 1,
            misses: 3,
            hit_tokens: 64,
        };
        assert_eq!(measured.estimated_hit_tokens(1_000), 250);
        assert_eq!(measured.hit_rate(), 0.25);
    }

    /// Index of the reference trie's root (a sentinel holding no tokens).
    const CACHE_ROOT: usize = 0;

    /// Mixes a session id and block index into one trie edge key (splitmix64).
    fn block_key(session: u64, index: u64) -> u64 {
        let mut z = session ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The prefix cache as a block-granular token-prefix trie: one `HashMap`
    /// of children per trie node and an arena scan for the LRU leaf on every
    /// eviction, ties to the lowest arena slot — the reference the
    /// [`PrefixCache`] must agree with, return value for return value.
    struct ScanCache {
        capacity_tokens: u64,
        nodes: Vec<ScanNode>,
        free: Vec<usize>,
        resident_tokens: u64,
        tick: u64,
        hits: u64,
        misses: u64,
        hit_tokens: u64,
    }

    struct ScanNode {
        children: HashMap<u64, usize>,
        parent: usize,
        key: u64,
        last_used: u64,
        in_use: bool,
    }

    impl ScanCache {
        fn new(capacity_tokens: u64) -> Self {
            ScanCache {
                capacity_tokens,
                nodes: vec![ScanNode {
                    children: HashMap::new(),
                    parent: CACHE_ROOT,
                    key: 0,
                    last_used: 0,
                    in_use: true,
                }],
                free: Vec::new(),
                resident_tokens: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                hit_tokens: 0,
            }
        }

        fn lookup(&mut self, session: u64, input_len: u64) -> u64 {
            let blocks = input_len / PREFIX_BLOCK_TOKENS;
            if blocks == 0 {
                return 0;
            }
            self.tick += 1;
            let mut node = CACHE_ROOT;
            let mut matched = 0u64;
            for i in 0..blocks {
                match self.nodes[node].children.get(&block_key(session, i)) {
                    Some(&child) => {
                        node = child;
                        self.nodes[node].last_used = self.tick;
                        matched += 1;
                    }
                    None => break,
                }
            }
            if matched > 0 {
                self.hits += 1;
                self.hit_tokens += matched * PREFIX_BLOCK_TOKENS;
            } else {
                self.misses += 1;
            }
            matched * PREFIX_BLOCK_TOKENS
        }

        fn insert(&mut self, session: u64, input_len: u64) {
            let blocks = input_len / PREFIX_BLOCK_TOKENS;
            if blocks == 0 || self.capacity_tokens == 0 {
                return;
            }
            self.tick += 1;
            let mut node = CACHE_ROOT;
            for i in 0..blocks {
                let key = block_key(session, i);
                if let Some(&child) = self.nodes[node].children.get(&key) {
                    node = child;
                    self.nodes[node].last_used = self.tick;
                } else {
                    let fresh = ScanNode {
                        children: HashMap::new(),
                        parent: node,
                        key,
                        last_used: self.tick,
                        in_use: true,
                    };
                    let child = match self.free.pop() {
                        Some(slot) => {
                            self.nodes[slot] = fresh;
                            slot
                        }
                        None => {
                            self.nodes.push(fresh);
                            self.nodes.len() - 1
                        }
                    };
                    self.nodes[node].children.insert(key, child);
                    node = child;
                    self.resident_tokens += PREFIX_BLOCK_TOKENS;
                }
            }
            while self.resident_tokens > self.capacity_tokens {
                let victim = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, n)| *i != CACHE_ROOT && n.in_use && n.children.is_empty())
                    .min_by_key(|(i, n)| (n.last_used, *i))
                    .map(|(i, _)| i);
                let Some(victim) = victim else { break };
                let (parent, key) = (self.nodes[victim].parent, self.nodes[victim].key);
                self.nodes[parent].children.remove(&key);
                self.nodes[victim].in_use = false;
                self.free.push(victim);
                self.resident_tokens -= PREFIX_BLOCK_TOKENS;
            }
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                capacity_tokens: self.capacity_tokens,
                resident_tokens: self.resident_tokens,
                hits: self.hits,
                misses: self.misses,
                hit_tokens: self.hit_tokens,
            }
        }
    }

    /// Capacities drawn by the cache oracle: none, under one block, exactly
    /// one block, three blocks, and one that rarely fills.
    const ORACLE_CAPACITIES: [u64; 5] = [0, 16, 32, 96, 8192];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lookups and inserts over six sessions — three small ids and
        /// three arbitrary `u64`s — prompt lengths 0–600 and every oracle
        /// capacity: after each operation the cache returns, counts and holds
        /// exactly what the trie-scan reference does, so eviction picks the
        /// same victims in the same order.
        #[test]
        fn prefix_cache_matches_the_scan_eviction_reference(
            capacity in 0usize..5,
            wide in collection::vec(any::<u64>(), 3),
            ops in collection::vec((0u8..2, 0usize..6, 0u64..=600), 1..200),
        ) {
            let capacity = ORACLE_CAPACITIES[capacity];
            let mut cache = PrefixCache::new(capacity);
            let mut model = ScanCache::new(capacity);
            for (op, session, input_len) in ops {
                let session = if session < 3 { session as u64 } else { wide[session - 3] };
                if op == 0 {
                    prop_assert_eq!(
                        cache.lookup(session, input_len),
                        model.lookup(session, input_len)
                    );
                } else {
                    cache.insert(session, input_len);
                    model.insert(session, input_len);
                }
                prop_assert_eq!(cache.stats(), model.stats());
                prop_assert_eq!(cache.stats().resident_tokens, model.resident_tokens);
                // The trie's leaves carry distinct ticks, so `(tick, slot)`
                // and `(tick, session)` order them alike...
                let mut candidates: Vec<u64> = model
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, n)| *i != CACHE_ROOT && n.in_use && n.children.is_empty())
                    .map(|(_, n)| n.last_used)
                    .collect();
                candidates.sort_unstable();
                prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "tied leaf ticks");
                // ...and the cache's runs end in exactly those leaves.
                let leaves: Vec<u64> = cache.lru.iter().map(|&(tick, _)| tick).collect();
                prop_assert_eq!(leaves, candidates);
            }
        }
    }

    #[test]
    fn interconnect_defaults_are_sane() {
        let ic = InterconnectSpec::default();
        assert!(ic.bandwidth().as_bytes_per_sec() > 0.0);
        assert!(ic.latency().as_secs() > 0.0);
        let starved = InterconnectSpec::new(0.01, Seconds::from_secs(0.05));
        assert!(starved.bandwidth().as_bytes_per_sec() < ic.bandwidth().as_bytes_per_sec());
    }
}
