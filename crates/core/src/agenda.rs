//! The fleet loop's agenda: orders every event
//! [`crate::cluster::ClusterEvaluator::run`] settles, keyed
//! `(TimeKey, kind, tiebreak)`.
//!
//! The order of the kinds is the tie rule at one instant: timeline action <
//! provisioning completion < KV landing < arrival < replica-internal event.
//! So a failure at `t` hits the pre-join fleet, kills a landing's
//! destination first and is never routed to by the arrival at `t`, and
//! co-timed arrivals are all routed before any replica forms a wave. Within
//! a kind the tiebreak is the sorted timeline position, the replica id or
//! the migration sequence number.
//!
//! Each replica owns at most one entry, by lifecycle: its provisioning
//! completion, or its next internal event while it serves or drains. That
//! entry is the replica's leaf in one min-tree over replicas
//! (`MinTree`), ranked `TimeKey bits << 64 | internal << 63 | replica`, so
//! a refresh overwrites it in place in `O(log n)` and the root is the
//! earliest; an unchanged refresh touches nothing. Timeline actions and KV
//! landings sit in a binary min-heap; a landing's request and destination
//! wait in a slot the entry names, so every heap entry stays four words.
//! Arrivals stay in their sorted queue: `Agenda::pop` takes the least of
//! the heap's top, the tree's root and the arrival cursor.

use crate::dynamics::FleetAction;
use crate::engine::{Lifecycle, ReplicaEngine};
use crate::min_tree::MinTree;
use moe_hardware::{Seconds, TimeKey};
use moe_workload::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One event the fleet loop settles. The derived order is the tie rule: the
/// variant first (they are declared in tie order), then the payload — the
/// timeline position, the replica id, the landing's `L`, the queue position.
/// In the heap a landing is its migration sequence number (`L = u64`);
/// [`Agenda::pop`] hands out its request and destination instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event<L = (Request, usize)> {
    /// The action at this position of the sorted timeline.
    Timeline(usize),
    /// The replica finishes provisioning and starts serving.
    Ready(usize),
    /// A KV migration lands.
    Landing(L),
    /// The request at this position of the arrival queue.
    Arrival(usize),
    /// The replica's next internal event: a completion, a round end or a
    /// pending admission.
    Internal(usize),
}

/// A heap entry: `(time, event, slot)`, a landing's slot in
/// [`Agenda::landings`] (0 for a timeline action).
type Entry = Reverse<(TimeKey, Event<u64>, u64)>;

/// Every pending event of one run but the arrivals, earliest first (see the
/// module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Agenda {
    /// Timeline actions and KV landings.
    heap: BinaryHeap<Entry>,
    /// Each replica's one entry, by replica id ([`rank`]).
    replicas: MinTree,
    /// The KV migrations on the wire, by slot: request and destination.
    landings: Vec<Option<(Request, usize)>>,
    /// Empty slots of `landings`.
    free: Vec<usize>,
    /// The next landing's sequence number.
    seq: u64,
}

impl Agenda {
    /// An agenda holding one entry per action of the sorted `timeline`.
    pub(crate) fn new(timeline: &[(Seconds, FleetAction)]) -> Self {
        let mut agenda = Agenda::default();
        (agenda.heap).extend(
            (timeline.iter().enumerate())
                .map(|(position, (at, _))| Reverse((at.key(), Event::Timeline(position), 0))),
        );
        agenda
    }

    /// Makes `next` replica `replica`'s one entry, in place of the one it
    /// had. An unchanged entry changes nothing.
    pub(crate) fn refresh(&mut self, replica: usize, next: Option<(Seconds, Event<u64>)>) {
        let rank = next.map_or(MinTree::NONE, |(at, event)| rank(at.key(), event));
        self.replicas.set(replica, rank);
    }

    /// Puts the KV migration of `request` to replica `dest` on the wire,
    /// landing at `at`.
    pub(crate) fn push_landing(&mut self, at: Seconds, request: Request, dest: usize) {
        let slot = self.free.pop().unwrap_or(self.landings.len());
        if slot == self.landings.len() {
            self.landings.push(None);
        }
        self.landings[slot] = Some((request, dest));
        (self.heap).push(Reverse((at.key(), Event::Landing(self.seq), slot as u64)));
        self.seq += 1;
    }

    /// How many KV migrations are on the wire.
    pub(crate) fn landings(&self) -> usize {
        self.landings.len() - self.free.len()
    }

    /// Drops every landing headed to `dest` (its KV dies with the replica)
    /// and returns their requests in id order.
    pub(crate) fn take_landings_to(&mut self, dest: usize) -> Vec<Request> {
        let mut lost = Vec::new();
        let (landings, free) = (&mut self.landings, &mut self.free);
        self.heap.retain(|&Reverse((_, event, slot))| {
            let slot = slot as usize;
            match (event, landings.get(slot)) {
                (Event::Landing(_), Some(&Some((request, to)))) if to == dest => {
                    lost.push(request);
                    landings[slot] = None;
                    free.push(slot);
                    false
                }
                _ => true,
            }
        });
        lost.sort_by_key(|r| r.id);
        lost
    }

    /// Removes and returns the next event with its instant: the least of
    /// the heap's top, the tree's root and the arrival at queue position
    /// `arrival.1`, due at `arrival.0`. A replica's entry leaves with it,
    /// so the replica's next refresh sets its successor even if unchanged.
    pub(crate) fn pop(&mut self, arrival: Option<(Seconds, usize)>) -> Option<(Seconds, Event)> {
        let mut next = (self.heap.peek()).map(|&Reverse((at, event, _))| (at, event));
        let mut consider = |candidate| {
            if next.is_none_or(|n| candidate < n) {
                next = Some(candidate);
            }
        };
        if let Some(rank) = self.replicas.min() {
            consider(unrank(rank));
        }
        if let Some((at, position)) = arrival {
            consider((at.key(), Event::Arrival(position)));
        }
        let (at, event) = next?;
        let event = match event {
            Event::Timeline(position) => {
                self.heap.pop();
                Event::Timeline(position)
            }
            Event::Ready(replica) => {
                self.replicas.set(replica, MinTree::NONE);
                Event::Ready(replica)
            }
            Event::Landing(_) => {
                let Reverse((.., slot)) = self.heap.pop().expect("the landing is the heap's top");
                let slot = slot as usize;
                self.free.push(slot);
                Event::Landing(self.landings[slot].take().expect("a landing owns its slot"))
            }
            Event::Arrival(position) => Event::Arrival(position),
            Event::Internal(replica) => {
                self.replicas.set(replica, MinTree::NONE);
                Event::Internal(replica)
            }
        };
        Some((at.secs(), event))
    }
}

/// The tree rank of a replica's entry: its time in the high word, then the
/// kind (provisioning completion before internal event, as [`Event`]
/// orders them), then the replica id.
fn rank(at: TimeKey, event: Event<u64>) -> u128 {
    let (internal, replica) = match event {
        Event::Ready(replica) => (0, replica),
        Event::Internal(replica) => (1, replica),
        _ => unreachable!("a replica's entry is its provisioning completion or next event"),
    };
    debug_assert!(replica < 1 << 63, "a replica id fits below the kind bit");
    u128::from(at.bits()) << 64 | internal << 63 | replica as u128
}

/// The `(time, event)` a [`rank`] packs.
fn unrank(rank: u128) -> (TimeKey, Event<u64>) {
    let replica = (rank as u64 & (u64::MAX >> 1)) as usize;
    let event = if rank >> 63 & 1 == 1 {
        Event::Internal(replica)
    } else {
        Event::Ready(replica)
    };
    (TimeKey::from_bits((rank >> 64) as u64), event)
}

impl ReplicaEngine {
    /// The replica's one agenda entry, by lifecycle: its provisioning
    /// completion, or its next internal event while it serves or drains.
    pub(crate) fn agenda_entry(&self) -> Option<(Seconds, Event<u64>)> {
        let replica = self.id.0;
        match self.lifecycle {
            Lifecycle::Provisioning { ready_at } => Some((ready_at, Event::Ready(replica))),
            Lifecycle::Serving | Lifecycle::Draining { .. } => {
                (self.next_event()).map(|at| (at, Event::Internal(replica)))
            }
            Lifecycle::Departed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Which control-class event the reference merge fires next.
    #[derive(Debug, Clone, Copy)]
    enum Ctl {
        Timeline,
        Ready(usize),
        Migration,
    }

    /// A replica's state as the reference merge reads it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum ReplicaState {
        Provisioning(Seconds),
        Internal(Seconds),
        Silent,
    }

    impl ReplicaState {
        fn entry(self, replica: usize) -> Option<(Seconds, Event<u64>)> {
            match self {
                ReplicaState::Provisioning(at) => Some((at, Event::Ready(replica))),
                ReplicaState::Internal(at) => Some((at, Event::Internal(replica))),
                ReplicaState::Silent => None,
            }
        }
    }

    /// One KV migration on the wire, as the reference merge holds it.
    #[derive(Debug, Clone, Copy)]
    struct Migration {
        at: Seconds,
        seq: u64,
        request: Request,
        dest: usize,
    }

    /// Everything the reference merge selects from: a sorted timeline with
    /// its cursor, per-replica states scanned for the earliest provisioning
    /// completion and internal event, an unordered list of migrations, and
    /// a sorted arrival queue with its cursor.
    #[derive(Debug, Clone)]
    struct Model {
        timeline: Vec<Seconds>,
        cursor: usize,
        replicas: Vec<ReplicaState>,
        migrations: Vec<Migration>,
        arrivals: Vec<Seconds>,
        next: usize,
    }

    impl Model {
        fn arrival(&self) -> Option<(Seconds, usize)> {
            self.arrivals.get(self.next).map(|&at| (at, self.next))
        }

        /// The fleet loop's five-way merge before the agenda: the `Ctl`
        /// selection with its `le` filters and the `min_by_key` scans.
        fn reference_next(&self) -> Option<(Seconds, Event)> {
            let scan = |pick: fn(ReplicaState) -> Option<Seconds>| {
                (self.replicas.iter().enumerate())
                    .filter_map(|(i, &s)| pick(s).map(|t| (t, i)))
                    .min_by_key(|&(t, i)| (t.key(), i))
            };
            let timeline_next = self.timeline.get(self.cursor).copied();
            let ready_next = scan(|s| match s {
                ReplicaState::Provisioning(at) => Some(at),
                _ => None,
            });
            let mut control: Option<(Seconds, Ctl)> = match (timeline_next, ready_next) {
                (Some(t), Some((r, _))) if t <= r => Some((t, Ctl::Timeline)),
                (_, Some((r, i))) => Some((r, Ctl::Ready(i))),
                (Some(t), None) => Some((t, Ctl::Timeline)),
                (None, None) => None,
            };
            let migration = (self.migrations.iter()).min_by_key(|m| (m.at.key(), m.seq));
            if let Some(m) = migration {
                if control.is_none_or(|(c, _)| m.at < c) {
                    control = Some((m.at, Ctl::Migration));
                }
            }
            let arrival = self.arrivals.get(self.next).copied();
            let internal = scan(|s| match s {
                ReplicaState::Internal(at) => Some(at),
                _ => None,
            });
            let le = |a: Seconds, b: Option<Seconds>| b.is_none_or(|b| a <= b);
            if let Some((t, ctl)) =
                control.filter(|&(t, _)| le(t, arrival) && le(t, internal.map(|(time, _)| time)))
            {
                let event = match ctl {
                    Ctl::Timeline => Event::Timeline(self.cursor),
                    Ctl::Ready(i) => Event::Ready(i),
                    Ctl::Migration => {
                        let m = migration.expect("a migration was selected");
                        Event::Landing((m.request, m.dest))
                    }
                };
                Some((t, event))
            } else if let Some(at) = arrival.filter(|&a| le(a, internal.map(|(time, _)| time))) {
                Some((at, Event::Arrival(self.next)))
            } else {
                internal.map(|(t, i)| (t, Event::Internal(i)))
            }
        }

        /// Consumes a settled event the way the fleet loop does: the cursors
        /// advance, a landing leaves the wire, and a replica's state is used
        /// up until its next refresh.
        fn settle(&mut self, event: Event) {
            match event {
                Event::Timeline(_) => self.cursor += 1,
                Event::Arrival(_) => self.next += 1,
                Event::Landing((request, _)) => self.migrations.retain(|m| m.request != request),
                Event::Ready(i) | Event::Internal(i) => self.replicas[i] = ReplicaState::Silent,
            }
        }
    }

    /// Settles everything left in `agenda` and `model` with no further
    /// refresh and asserts that they agree event for event.
    fn drain_agrees(mut agenda: Agenda, mut model: Model) {
        loop {
            let want = model.reference_next();
            assert_eq!(agenda.pop(model.arrival()), want);
            let Some((_, event)) = want else {
                return;
            };
            model.settle(event);
        }
    }

    const REPLICAS: usize = 4;

    /// One of the four instants every event lands on, so most of them tie.
    fn instant(i: u8) -> Seconds {
        Seconds::from_secs(f64::from(i) * 0.5)
    }

    /// A replica refreshed to a new instant thousands of times keeps one
    /// entry, its last, and the heap holds none of them.
    #[test]
    fn a_refreshed_replica_keeps_one_entry() {
        let mut agenda = Agenda::new(&[]);
        for n in 0..5_000u32 {
            agenda.refresh(0, Some((instant((n % 4) as u8), Event::Internal(0))));
            assert!(agenda.heap.is_empty());
        }
        assert_eq!(agenda.pop(None), Some((instant(3), Event::Internal(0))));
        assert_eq!(agenda.pop(None), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random timeline actions, provisioning completions (some
        /// cancelled), KV migrations (some lost to a destination failure),
        /// arrivals and replica events on four instants: after every
        /// operation, draining a copy of the agenda settles exactly what
        /// the old five-way merge would, in its order, and settling one
        /// event at a time agrees too. A refresh to an unchanged entry
        /// leaves the tree and the heap unchanged; the heap holds exactly
        /// the unsettled timeline actions and the landings on the wire; a
        /// destination failure returns exactly the lost requests, in id
        /// order.
        #[test]
        fn the_agenda_settles_events_in_the_old_merge_order(
            timeline in collection::vec(0u8..4, 0..6),
            arrivals in collection::vec(0u8..4, 0..12),
            ops in collection::vec((0u8..6, 0u8..4, 0usize..REPLICAS), 1..120),
        ) {
            let mut timeline: Vec<Seconds> = timeline.into_iter().map(instant).collect();
            timeline.sort_by_key(|t| t.key());
            let mut arrivals: Vec<Seconds> = arrivals.into_iter().map(instant).collect();
            arrivals.sort_by_key(|t| t.key());
            let actions: Vec<(Seconds, FleetAction)> = (timeline.iter())
                .map(|&at| (at, FleetAction::Fail(crate::router::ReplicaId(0))))
                .collect();
            let mut agenda = Agenda::new(&actions);
            let mut model = Model {
                timeline,
                cursor: 0,
                replicas: vec![ReplicaState::Silent; REPLICAS],
                migrations: Vec::new(),
                arrivals,
                next: 0,
            };
            for (n, (op, at, replica)) in ops.into_iter().enumerate() {
                let at = instant(at);
                match op {
                    0 => {
                        // Ids fall as seq rises, so the id sort on a loss is
                        // not the landing order.
                        let request = Request::new(1_000 - n as u64, 16, 8);
                        model.migrations.push(Migration { at, seq: agenda.seq, request, dest: replica });
                        agenda.push_landing(at, request, replica);
                    }
                    1..=3 => {
                        let state = match op {
                            1 => ReplicaState::Internal(at),
                            // A join is cancelled by going silent later.
                            2 => ReplicaState::Provisioning(at),
                            _ => ReplicaState::Silent,
                        };
                        let unchanged = model.replicas[replica] == state;
                        let before = (agenda.replicas.clone(), agenda.heap.as_slice().to_vec());
                        model.replicas[replica] = state;
                        agenda.refresh(replica, state.entry(replica));
                        if unchanged {
                            prop_assert_eq!(&agenda.replicas, &before.0);
                            prop_assert_eq!(agenda.heap.as_slice(), &before.1[..]);
                        }
                    }
                    4 => {
                        let mut want: Vec<Request> = (model.migrations.iter())
                            .filter(|m| m.dest == replica)
                            .map(|m| m.request)
                            .collect();
                        want.sort_by_key(|r| r.id);
                        model.migrations.retain(|m| m.dest != replica);
                        prop_assert_eq!(agenda.take_landings_to(replica), want);
                    }
                    _ => {
                        let want = model.reference_next();
                        prop_assert_eq!(agenda.pop(model.arrival()), want);
                        if let Some((_, event)) = want {
                            model.settle(event);
                        }
                    }
                }
                prop_assert_eq!(agenda.landings(), model.migrations.len());
                // The heap holds exactly the unsettled timeline actions and
                // the landings on the wire: no replica entry, nothing stale.
                let mut held: Vec<Event<u64>> = agenda.heap.iter().map(|e| e.0 .1).collect();
                held.sort();
                let mut want: Vec<Event<u64>> = (model.cursor..model.timeline.len())
                    .map(Event::Timeline)
                    .chain(model.migrations.iter().map(|m| Event::Landing(m.seq)))
                    .collect();
                want.sort();
                prop_assert_eq!(held, want);
                drain_agrees(agenda.clone(), model.clone());
            }
        }
    }
}
