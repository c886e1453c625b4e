//! Weight paging primitives.
//!
//! CGOPipe transfers the CPU-resident portion of the next layer's weights in *pages*
//! interleaved with the other host-to-device traffic (hidden states, optional KV
//! blocks): "we can chunk the weights to be transferred into `n` pages where `n`
//! equals the number of micro-batches in the pipeline" (§4.1). This module provides
//! the page metadata, the page table and the chunking helper; the transfer protocol
//! lives in [`crate::weights`].

use moe_hardware::ByteSize;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a weight page, unique within a [`PageTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Where a weight page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageLocation {
    /// Pageable host DRAM (the page's home location).
    CpuDram,
    /// Pinned host memory, staged for an asynchronous PCIe copy.
    PinnedHost,
    /// GPU HBM (resident in one of the prefetch buffer slots or statically placed).
    GpuHbm,
}

/// Metadata of one weight page.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightPage {
    /// Unique id.
    pub id: PageId,
    /// The transformer layer this page belongs to.
    pub layer: usize,
    /// Index of the page within its layer (0-based).
    pub index: usize,
    /// Size of the page.
    pub size: ByteSize,
    /// Current residency.
    pub location: PageLocation,
}

/// Splits `total` bytes into `pages` chunks whose sizes differ by at most one byte.
///
/// # Panics
///
/// Panics if `pages` is zero.
pub fn split_into_pages(total: ByteSize, pages: usize) -> Vec<ByteSize> {
    assert!(pages > 0, "cannot split into zero pages");
    let total = total.as_bytes();
    let base = total / pages as u64;
    let remainder = total % pages as u64;
    (0..pages as u64)
        .map(|i| ByteSize::from_bytes(base + u64::from(i < remainder)))
        .collect()
}

/// Page table for the CPU-resident portion of every layer's weights.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    pages: HashMap<PageId, WeightPage>,
    by_layer: Vec<Vec<PageId>>,
    next_id: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Registers the pages of one layer by splitting `layer_bytes` into
    /// `pages_per_layer` chunks, all initially resident in CPU DRAM. Layers must be
    /// added in order starting from 0.
    ///
    /// Returns the new pages' ids.
    ///
    /// # Panics
    ///
    /// Panics if `pages_per_layer` is zero.
    pub fn add_layer(&mut self, layer_bytes: ByteSize, pages_per_layer: usize) -> Vec<PageId> {
        let sizes = split_into_pages(layer_bytes, pages_per_layer);
        let layer = self.by_layer.len();
        let mut ids = Vec::with_capacity(pages_per_layer);
        for (index, size) in sizes.into_iter().enumerate() {
            let id = PageId(self.next_id);
            self.next_id += 1;
            self.pages.insert(
                id,
                WeightPage {
                    id,
                    layer,
                    index,
                    size,
                    location: PageLocation::CpuDram,
                },
            );
            ids.push(id);
        }
        self.by_layer.push(ids.clone());
        ids
    }

    /// Number of layers registered.
    pub fn num_layers(&self) -> usize {
        self.by_layer.len()
    }

    /// Looks up a page.
    pub fn page(&self, id: PageId) -> Option<&WeightPage> {
        self.pages.get(&id)
    }

    /// The pages of `layer` in index order, or an empty slice for an unknown layer.
    pub fn layer_pages(&self, layer: usize) -> &[PageId] {
        self.by_layer.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Updates a page's location. Returns the previous location.
    pub fn set_location(&mut self, id: PageId, location: PageLocation) -> Option<PageLocation> {
        self.pages
            .get_mut(&id)
            .map(|p| std::mem::replace(&mut p.location, location))
    }

    /// Total bytes of a layer's pages currently at `location`.
    pub fn layer_bytes_at(&self, layer: usize, location: PageLocation) -> ByteSize {
        self.layer_pages(layer)
            .iter()
            .filter_map(|id| self.pages.get(id))
            .filter(|p| p.location == location)
            .map(|p| p.size)
            .sum()
    }

    /// Total bytes of a layer's pages (any location).
    pub fn layer_bytes(&self, layer: usize) -> ByteSize {
        self.layer_pages(layer)
            .iter()
            .filter_map(|id| self.pages.get(id))
            .map(|p| p.size)
            .sum()
    }

    /// Iterates over all pages (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &WeightPage> {
        self.pages.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_distributes_remainder_evenly() {
        let parts = split_into_pages(ByteSize::from_bytes(10), 3);
        let sizes: Vec<u64> = parts.iter().map(|b| b.as_bytes()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(sizes.iter().sum::<u64>(), 10);
    }

    #[test]
    fn split_single_page_is_whole() {
        assert_eq!(
            split_into_pages(ByteSize::from_gib(1.0), 1),
            vec![ByteSize::from_gib(1.0)]
        );
    }

    #[test]
    #[should_panic(expected = "zero pages")]
    fn split_into_zero_pages_panics() {
        split_into_pages(ByteSize::from_bytes(1), 0);
    }

    #[test]
    fn split_preserves_total_for_uneven_sizes() {
        for total in [1u64, 7, 100, 1023, 4096, 1_000_003] {
            for pages in [1usize, 2, 3, 7, 16] {
                let parts = split_into_pages(ByteSize::from_bytes(total), pages);
                assert_eq!(parts.len(), pages);
                assert_eq!(parts.iter().map(|b| b.as_bytes()).sum::<u64>(), total);
                let max = parts.iter().map(|b| b.as_bytes()).max().unwrap();
                let min = parts.iter().map(|b| b.as_bytes()).min().unwrap();
                assert!(max - min <= 1, "pages must be balanced");
            }
        }
    }

    #[test]
    fn page_table_tracks_layers_and_locations() {
        let mut table = PageTable::new();
        let l0 = table.add_layer(ByteSize::from_mib(100.0), 4);
        let l1 = table.add_layer(ByteSize::from_mib(100.0), 4);
        assert_eq!(table.num_layers(), 2);
        assert_eq!(table.layer_pages(0), l0.as_slice());
        assert_eq!(table.layer_pages(1), l1.as_slice());
        assert!(table.layer_pages(7).is_empty());

        // Everything starts in CPU DRAM.
        assert_eq!(
            table.layer_bytes_at(0, PageLocation::CpuDram),
            ByteSize::from_mib(100.0)
        );
        assert_eq!(
            table.layer_bytes_at(0, PageLocation::GpuHbm),
            ByteSize::ZERO
        );

        // Move one page to the GPU.
        let prev = table.set_location(l0[0], PageLocation::GpuHbm).unwrap();
        assert_eq!(prev, PageLocation::CpuDram);
        assert_eq!(table.page(l0[0]).unwrap().location, PageLocation::GpuHbm);
        assert!(table.layer_bytes_at(0, PageLocation::GpuHbm) > ByteSize::ZERO);
        assert_eq!(table.layer_bytes(0), ByteSize::from_mib(100.0));
    }

    #[test]
    fn set_location_on_unknown_page_returns_none() {
        let mut table = PageTable::new();
        assert!(table
            .set_location(PageId(99), PageLocation::GpuHbm)
            .is_none());
        assert!(table.page(PageId(99)).is_none());
    }

    #[test]
    fn page_ids_are_unique_across_layers() {
        let mut table = PageTable::new();
        let a = table.add_layer(ByteSize::from_mib(10.0), 3);
        let b = table.add_layer(ByteSize::from_mib(10.0), 3);
        let mut all: Vec<PageId> = a.into_iter().chain(b).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6);
        assert_eq!(table.iter().count(), 6);
    }
}
