//! An exact min-tree over slots: a tournament (winner) tree, Knuth's
//! *TAOCP* vol. 3 §5.4.1, with one leaf per slot (here a replica id).
//!
//! Each leaf holds a packed `u128` rank: the key in the high 64 bits and the
//! tie-break in the low bits, so one unsigned compare orders two entries and
//! a tie on the key goes to the lower tie-break. [`MinTree::NONE`]
//! (`u128::MAX`) marks a slot with no entry. Every inner node holds the
//! least rank below it, so the root is the arg-min. [`MinTree::set`] replays
//! the matches above one leaf and stops at the first node whose winner does
//! not change.

/// A winner tree of packed ranks over slots `0..`, grown on demand (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MinTree {
    /// Node `i`'s children are `2i` and `2i + 1`; the root is node 1 and the
    /// leaves are the last `nodes.len() / 2` nodes, one per slot. Node 0 is
    /// unused.
    nodes: Vec<u128>,
}

impl Default for MinTree {
    fn default() -> Self {
        MinTree {
            nodes: vec![MinTree::NONE; 2],
        }
    }
}

impl MinTree {
    /// The rank of a slot with no entry.
    pub(crate) const NONE: u128 = u128::MAX;

    /// The least rank held, `None` when no slot has an entry.
    pub(crate) fn min(&self) -> Option<u128> {
        Some(self.nodes[1]).filter(|&rank| rank != MinTree::NONE)
    }

    /// Gives `slot` the rank `rank` ([`MinTree::NONE`] clears it) in
    /// `O(log slots)`, growing the tree when `slot` is past its leaves.
    pub(crate) fn set(&mut self, slot: usize, rank: u128) {
        if slot >= self.nodes.len() / 2 {
            if rank == MinTree::NONE {
                return;
            }
            self.grow(slot);
        }
        let mut node = self.nodes.len() / 2 + slot;
        if self.nodes[node] == rank {
            return;
        }
        self.nodes[node] = rank;
        while node > 1 {
            let winner = self.nodes[node].min(self.nodes[node ^ 1]);
            node /= 2;
            if self.nodes[node] == winner {
                return;
            }
            self.nodes[node] = winner;
        }
    }

    /// Widens the leaves to the power of two past `slot`, keeping every
    /// leaf's rank, and replays every match.
    fn grow(&mut self, slot: usize) {
        let leaves = self.nodes.len() / 2;
        let wide = (slot + 1).next_power_of_two();
        let mut nodes = vec![MinTree::NONE; 2 * wide];
        nodes[wide..wide + leaves].copy_from_slice(&self.nodes[leaves..]);
        for node in (1..wide).rev() {
            nodes[node] = nodes[2 * node].min(nodes[2 * node + 1]);
        }
        self.nodes = nodes;
    }
}

/// A tree over `(slot, rank)` pairs; every other slot has no entry.
impl FromIterator<(usize, u128)> for MinTree {
    fn from_iter<I: IntoIterator<Item = (usize, u128)>>(ranks: I) -> Self {
        let mut tree = MinTree::default();
        for (slot, rank) in ranks {
            tree.set(slot, rank);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A rank with key `key` and tie-break `slot`, as the agenda and the
    /// router index pack theirs.
    fn rank(key: u64, slot: usize) -> u128 {
        u128::from(key) << 64 | slot as u128
    }

    #[test]
    fn an_empty_tree_has_no_min() {
        assert_eq!(MinTree::default().min(), None);
        assert_eq!(MinTree::from_iter([]).min(), None);
        let mut tree = MinTree::default();
        tree.set(40, MinTree::NONE);
        assert_eq!(
            tree,
            MinTree::default(),
            "clearing a slot past the leaves grows nothing"
        );
        tree.set(3, rank(7, 3));
        tree.set(3, MinTree::NONE);
        assert_eq!(tree.min(), None);
    }

    #[test]
    fn equal_keys_go_to_the_lower_slot() {
        let mut tree = MinTree::default();
        for slot in [5, 2, 9] {
            tree.set(slot, rank(3, slot));
        }
        assert_eq!(tree.min(), Some(rank(3, 2)));
        tree.set(2, rank(4, 2));
        assert_eq!(tree.min(), Some(rank(3, 5)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every random `set` (slots past the leaves grow the tree,
        /// `NONE` clears, keys drawn from four values tie often across
        /// slots), the root is the least rank a scan of the slots finds,
        /// so equal keys go to the lower slot; every inner node holds the
        /// lesser of its children; and a tree collected from the same
        /// slots has the same root.
        #[test]
        fn the_root_is_the_least_rank_a_scan_finds(
            ops in collection::vec((0usize..70, 0u64..5), 1..200),
        ) {
            let mut tree = MinTree::default();
            let mut slots: Vec<u128> = Vec::new();
            for (slot, key) in ops {
                let rank = if key == 4 { MinTree::NONE } else { rank(key, slot) };
                if slots.len() <= slot {
                    slots.resize(slot + 1, MinTree::NONE);
                }
                slots[slot] = rank;
                tree.set(slot, rank);
                let least = slots.iter().copied().filter(|&r| r != MinTree::NONE).min();
                prop_assert_eq!(tree.min(), least);
                let nodes = &tree.nodes;
                for node in 1..nodes.len() / 2 {
                    prop_assert_eq!(nodes[node], nodes[2 * node].min(nodes[2 * node + 1]));
                }
                let built: MinTree = slots.iter().copied().enumerate().collect();
                prop_assert_eq!(built.min(), least);
            }
        }
    }
}
