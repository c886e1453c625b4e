//! The paged weight store: static GPU placement, a ring of prefetch buffer slots and
//! the pinned-memory staging protocol of Appendix A.1 of the paper.
//!
//! For every layer, a fraction `r_w` of the weights is placed statically in GPU HBM;
//! the remaining `W_L` bytes live in CPU DRAM and are streamed to the GPU layer by
//! layer. To let later layers' weights arrive while layer `l` is still computing, the
//! store allocates a ring of `buffer_slots × W_L` bytes in GPU memory (layer `l` uses
//! slot `l % buffer_slots`) and a pinned staging area on the host; pages move
//! `CPU DRAM → pinned → GPU` with the two hops overlapped.
//!
//! The schedule decides how many slots are safe. CGOPipe with two or more
//! micro-batches issues layer `l`'s first page before layer `l − 2`'s last
//! post-attention has finished, so the paper's `2 × W_L` double buffer would overwrite
//! weights still in use; three slots suffice (see
//! `moe_schedule::cgopipe_weight_buffers`).

use crate::error::MemoryError;
use crate::pages::{PageId, PageLocation, PageTable};
use crate::pool::{AllocationId, MemoryPool};
use moe_hardware::ByteSize;

/// A planned page transfer (one PCIe hop).
#[derive(Debug, Clone, PartialEq)]
pub struct PageTransfer {
    /// The page being moved.
    pub page: PageId,
    /// Bytes moved.
    pub bytes: ByteSize,
    /// Source location.
    pub from: PageLocation,
    /// Destination location.
    pub to: PageLocation,
}

/// Static description of how a model's weights are laid out by the store.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightLayout {
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Bytes of one layer's weights.
    pub layer_bytes: ByteSize,
    /// Fraction of each layer's weights placed statically on the GPU (`r_w`).
    pub gpu_static_fraction: f64,
    /// Number of pages the streamed portion of a layer is split into.
    pub pages_per_layer: usize,
    /// GPU buffer slots the streamed layers rotate through (layer `l` uses slot
    /// `l % buffer_slots`).
    pub buffer_slots: usize,
}

impl WeightLayout {
    /// Bytes of one layer placed statically on the GPU.
    pub fn static_bytes_per_layer(&self) -> ByteSize {
        self.layer_bytes
            .scale(self.gpu_static_fraction.clamp(0.0, 1.0))
    }

    /// Bytes of one layer streamed from the CPU (`W_L` in Appendix A.1).
    pub fn streamed_bytes_per_layer(&self) -> ByteSize {
        self.layer_bytes - self.static_bytes_per_layer()
    }

    /// Validates the layout parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_layers == 0 {
            return Err("layout needs at least one layer".to_owned());
        }
        if self.pages_per_layer == 0 {
            return Err("layout needs at least one page per layer".to_owned());
        }
        if self.buffer_slots == 0 {
            return Err("layout needs at least one buffer slot".to_owned());
        }
        if !(0.0..=1.0).contains(&self.gpu_static_fraction) {
            return Err(format!(
                "gpu_static_fraction must be within [0, 1], got {}",
                self.gpu_static_fraction
            ));
        }
        Ok(())
    }
}

/// The paged weight store.
#[derive(Debug)]
pub struct PagedWeightStore {
    layout: WeightLayout,
    table: PageTable,
    gpu_pool: MemoryPool,
    cpu_pool: MemoryPool,
    pinned_pool: MemoryPool,
    /// GPU allocations: static weights + one per prefetch buffer slot.
    gpu_static_alloc: AllocationId,
    buffer_allocs: Vec<AllocationId>,
    /// CPU allocation holding the streamed portions of all layers.
    cpu_alloc: AllocationId,
    /// Pinned staging allocation (two pages for copy/copy overlap, Appendix A.1).
    pinned_alloc: AllocationId,
    /// Which layer currently occupies each buffer slot (if any).
    slot_contents: Vec<Option<usize>>,
}

impl PagedWeightStore {
    /// Creates the store, performing all static allocations in the supplied pools.
    ///
    /// # Errors
    ///
    /// Returns an error if the layout is invalid or any pool lacks capacity.
    pub fn new(
        layout: WeightLayout,
        gpu_pool: MemoryPool,
        cpu_pool: MemoryPool,
        pinned_pool: MemoryPool,
    ) -> Result<Self, MemoryError> {
        layout
            .validate()
            .map_err(|message| MemoryError::InvalidState { message })?;

        let mut table = PageTable::new();
        for _ in 0..layout.num_layers {
            table.add_layer(layout.streamed_bytes_per_layer(), layout.pages_per_layer);
        }

        let static_total = layout.static_bytes_per_layer() * layout.num_layers as u64;
        let streamed_per_layer = layout.streamed_bytes_per_layer();
        let gpu_static_alloc = gpu_pool.allocate(static_total)?;
        let buffer_allocs = (0..layout.buffer_slots)
            .map(|_| gpu_pool.allocate(streamed_per_layer))
            .collect::<Result<Vec<_>, _>>()?;
        let cpu_alloc = cpu_pool.allocate(streamed_per_layer * layout.num_layers as u64)?;
        let page_bytes = ByteSize::from_bytes(
            streamed_per_layer.as_bytes() / layout.pages_per_layer.max(1) as u64 + 1,
        );
        let pinned_alloc = pinned_pool.allocate(page_bytes * 2)?;

        Ok(PagedWeightStore {
            table,
            gpu_pool,
            cpu_pool,
            pinned_pool,
            gpu_static_alloc,
            buffer_allocs,
            cpu_alloc,
            pinned_alloc,
            slot_contents: vec![None; layout.buffer_slots],
            layout,
        })
    }

    /// The layout the store was created with.
    pub fn layout(&self) -> &WeightLayout {
        &self.layout
    }

    /// The page table (read-only view).
    pub fn page_table(&self) -> &PageTable {
        &self.table
    }

    /// Plans the prefetch of `layer`'s streamed pages into its buffer slot
    /// (`layer % buffer_slots`), marking the slot occupied. Returns one CPU→pinned
    /// and one pinned→GPU transfer per page, in page order.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer is unknown or its slot still holds another
    /// layer whose compute has not been released.
    pub fn plan_layer_prefetch(&mut self, layer: usize) -> Result<Vec<PageTransfer>, MemoryError> {
        if layer >= self.layout.num_layers {
            return Err(MemoryError::UnknownLayer { layer });
        }
        let slot = layer % self.layout.buffer_slots;
        if let Some(occupant) = self.slot_contents[slot] {
            if occupant != layer {
                return Err(MemoryError::InvalidState {
                    message: format!(
                        "buffer slot {slot} still holds layer {occupant}, release it before prefetching layer {layer}"
                    ),
                });
            }
        }
        self.slot_contents[slot] = Some(layer);

        let mut transfers = Vec::with_capacity(self.layout.pages_per_layer * 2);
        for &page_id in self.table.layer_pages(layer) {
            let page = self
                .table
                .page(page_id)
                .ok_or(MemoryError::UnknownPage { page: page_id.0 })?;
            if page.location == PageLocation::GpuHbm || page.size.is_zero() {
                continue; // already resident (or nothing to move for a fully static layout)
            }
            transfers.push(PageTransfer {
                page: page_id,
                bytes: page.size,
                from: PageLocation::CpuDram,
                to: PageLocation::PinnedHost,
            });
            transfers.push(PageTransfer {
                page: page_id,
                bytes: page.size,
                from: PageLocation::PinnedHost,
                to: PageLocation::GpuHbm,
            });
        }
        Ok(transfers)
    }

    /// Records the completion of one page transfer hop, updating the page table.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is unknown or the hop does not match the page's
    /// current location (protocol violation).
    pub fn complete_transfer(&mut self, transfer: &PageTransfer) -> Result<(), MemoryError> {
        let location =
            self.table
                .page(transfer.page)
                .map(|p| p.location)
                .ok_or(MemoryError::UnknownPage {
                    page: transfer.page.0,
                })?;
        if location != transfer.from {
            return Err(MemoryError::InvalidState {
                message: format!(
                    "{} is at {:?}, cannot complete a {:?} -> {:?} hop",
                    transfer.page, location, transfer.from, transfer.to
                ),
            });
        }
        self.table.set_location(transfer.page, transfer.to);
        Ok(())
    }

    /// True when every streamed page of `layer` is resident in GPU HBM.
    pub fn layer_ready(&self, layer: usize) -> bool {
        self.table.layer_bytes_at(layer, PageLocation::GpuHbm) == self.table.layer_bytes(layer)
    }

    /// Releases `layer`'s buffer slot after its compute finished: pages return (logically)
    /// to CPU DRAM and the slot becomes reusable for a later layer.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer is unknown or does not occupy its slot.
    pub fn release_layer(&mut self, layer: usize) -> Result<(), MemoryError> {
        if layer >= self.layout.num_layers {
            return Err(MemoryError::UnknownLayer { layer });
        }
        let slot = layer % self.layout.buffer_slots;
        if self.slot_contents[slot] != Some(layer) {
            return Err(MemoryError::InvalidState {
                message: format!("layer {layer} does not occupy a buffer slot"),
            });
        }
        self.slot_contents[slot] = None;
        let pages: Vec<PageId> = self.table.layer_pages(layer).to_vec();
        for page_id in pages {
            self.table.set_location(page_id, PageLocation::CpuDram);
        }
        Ok(())
    }

    /// Tears the store down, freeing every allocation it made.
    ///
    /// # Errors
    ///
    /// Returns an error if an allocation was already freed externally.
    pub fn close(self) -> Result<(), MemoryError> {
        self.gpu_pool.free(self.gpu_static_alloc)?;
        for alloc in self.buffer_allocs {
            self.gpu_pool.free(alloc)?;
        }
        self.cpu_pool.free(self.cpu_alloc)?;
        self.pinned_pool.free(self.pinned_alloc)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> (MemoryPool, MemoryPool, MemoryPool) {
        (
            MemoryPool::new("gpu", ByteSize::from_gib(16.0)),
            MemoryPool::new("cpu", ByteSize::from_gib(64.0)),
            MemoryPool::new("pinned", ByteSize::from_gib(4.0)),
        )
    }

    fn layout() -> WeightLayout {
        WeightLayout {
            num_layers: 4,
            layer_bytes: ByteSize::from_mib(1024.0),
            gpu_static_fraction: 0.25,
            pages_per_layer: 8,
            buffer_slots: 3,
        }
    }

    #[test]
    fn layout_splits_static_and_streamed_bytes() {
        let l = layout();
        assert_eq!(l.static_bytes_per_layer(), ByteSize::from_mib(256.0));
        assert_eq!(l.streamed_bytes_per_layer(), ByteSize::from_mib(768.0));
        assert!(l.validate().is_ok());
        let bad = WeightLayout {
            gpu_static_fraction: 1.5,
            ..l
        };
        assert!(bad.validate().is_err());
        let bad = WeightLayout {
            pages_per_layer: 0,
            ..layout()
        };
        assert!(bad.validate().is_err());
        let bad = WeightLayout {
            num_layers: 0,
            ..layout()
        };
        assert!(bad.validate().is_err());
        let bad = WeightLayout {
            buffer_slots: 0,
            ..layout()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn construction_accounts_gpu_and_cpu_memory() {
        let (gpu, cpu, pinned) = pools();
        let store =
            PagedWeightStore::new(layout(), gpu.clone(), cpu.clone(), pinned.clone()).unwrap();
        // GPU: 4 layers × 256 MiB static + 3 × 768 MiB buffer slots = 3328 MiB.
        assert_eq!(gpu.used(), ByteSize::from_mib(3328.0));
        // CPU: 4 × 768 MiB streamed.
        assert_eq!(cpu.used(), ByteSize::from_mib(3072.0));
        assert!(pinned.used() > ByteSize::ZERO);
        store.close().unwrap();
        assert!(gpu.used().is_zero() && cpu.used().is_zero() && pinned.used().is_zero());
    }

    #[test]
    fn construction_fails_when_gpu_pool_too_small() {
        let gpu = MemoryPool::new("gpu", ByteSize::from_mib(512.0));
        let (_, cpu, pinned) = pools();
        let err = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfMemory { .. }));
    }

    #[test]
    fn prefetch_produces_two_hops_per_page_and_layer_becomes_ready() {
        let (gpu, cpu, pinned) = pools();
        let mut store = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap();
        let transfers = store.plan_layer_prefetch(0).unwrap();
        assert_eq!(transfers.len(), 16, "8 pages × 2 hops");
        assert!(!store.layer_ready(0));
        for t in &transfers {
            store.complete_transfer(t).unwrap();
        }
        assert!(store.layer_ready(0));
        // Total transferred bytes equal the streamed portion (counting each hop once).
        let h2d_bytes: ByteSize = transfers
            .iter()
            .filter(|t| t.to == PageLocation::GpuHbm)
            .map(|t| t.bytes)
            .sum();
        assert_eq!(h2d_bytes, store.layout().streamed_bytes_per_layer());
    }

    #[test]
    fn ring_holds_three_layers_then_requires_release() {
        let (gpu, cpu, pinned) = pools();
        let mut store = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap();
        for layer in 0..3 {
            store.plan_layer_prefetch(layer).unwrap();
        }
        // Layer 3 maps to layer 0's slot: prefetching it errors until layer 0 is
        // released, and releasing a layer that holds no slot is a protocol error.
        let err = store.plan_layer_prefetch(3).unwrap_err();
        assert!(matches!(err, MemoryError::InvalidState { .. }));
        assert!(store.release_layer(3).is_err());
        store.release_layer(0).unwrap();
        store.plan_layer_prefetch(3).unwrap();
        assert!(store.release_layer(0).is_err());
    }

    #[test]
    fn release_resets_page_locations() {
        let (gpu, cpu, pinned) = pools();
        let mut store = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap();
        let transfers = store.plan_layer_prefetch(0).unwrap();
        for t in &transfers {
            store.complete_transfer(t).unwrap();
        }
        store.release_layer(0).unwrap();
        assert!(!store.layer_ready(0));
        assert!(
            store.release_layer(0).is_err(),
            "double release is a protocol violation"
        );
        assert!(store.release_layer(9).is_err());
    }

    #[test]
    fn complete_transfer_validates_protocol_order() {
        let (gpu, cpu, pinned) = pools();
        let mut store = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap();
        let transfers = store.plan_layer_prefetch(0).unwrap();
        // Completing the pinned→GPU hop before the CPU→pinned hop is invalid.
        let second_hop = transfers[1].clone();
        assert!(store.complete_transfer(&second_hop).is_err());
        store.complete_transfer(&transfers[0]).unwrap();
        store.complete_transfer(&second_hop).unwrap();
    }

    #[test]
    fn prefetch_unknown_layer_is_rejected() {
        let (gpu, cpu, pinned) = pools();
        let mut store = PagedWeightStore::new(layout(), gpu, cpu, pinned).unwrap();
        assert!(matches!(
            store.plan_layer_prefetch(10),
            Err(MemoryError::UnknownLayer { layer: 10 })
        ));
    }

    #[test]
    fn full_gpu_static_fraction_means_no_transfers() {
        let (gpu, cpu, pinned) = pools();
        let l = WeightLayout {
            gpu_static_fraction: 1.0,
            ..layout()
        };
        let mut store = PagedWeightStore::new(l, gpu, cpu, pinned).unwrap();
        let transfers = store.plan_layer_prefetch(0).unwrap();
        assert!(transfers.is_empty());
        assert!(store.layer_ready(0));
    }
}
