//! Memory-management substrate for the MoE-Lightning reproduction (Appendix A.1 of
//! the paper).
//!
//! * [`pool`] — capacity-tracked [`MemoryPool`]s for GPU HBM, pinned host memory and
//!   pageable host DRAM.
//! * [`pages`] — weight page metadata, the page table and the page chunking used by
//!   CGOPipe's interleaved weight transfers.
//! * [`weights`] — [`PagedWeightStore`]: static GPU placement (`r_w`), a ring of
//!   `W_L`-sized GPU buffer slots and the CPU → pinned → GPU staging protocol. CGOPipe
//!   with several micro-batches needs three slots, not the paper's `2 × W_L` double
//!   buffer: it issues layer `l`'s first page before layer `l − 2` has finished.
//! * [`kv`] — [`PagedKvCache`]: block-granular KV-cache allocation per device.
//!
//! # Examples
//!
//! ```
//! use moe_hardware::ByteSize;
//! use moe_memory::{MemoryPool, PagedWeightStore, WeightLayout};
//!
//! # fn main() -> Result<(), moe_memory::MemoryError> {
//! let gpu = MemoryPool::new("gpu", ByteSize::from_gib(16.0));
//! let cpu = MemoryPool::new("cpu", ByteSize::from_gib(192.0));
//! let pinned = MemoryPool::new("pinned", ByteSize::from_gib(4.0));
//! let layout = WeightLayout {
//!     num_layers: 32,
//!     layer_bytes: ByteSize::from_gib(1.4),
//!     gpu_static_fraction: 0.1,
//!     pages_per_layer: 8,
//!     buffer_slots: 3,
//! };
//! let mut store = PagedWeightStore::new(layout, gpu, cpu, pinned)?;
//! let transfers = store.plan_layer_prefetch(0)?;
//! assert_eq!(transfers.len(), 16); // 8 pages × (CPU→pinned, pinned→GPU)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kv;
pub mod pages;
pub mod pool;
pub mod weights;

pub use error::MemoryError;
pub use kv::{KvCacheStats, PagedKvCache, SequenceId};
pub use pages::{PageId, PageLocation, PageTable, WeightPage};
pub use pool::{AllocationId, MemoryPool};
pub use weights::{PageTransfer, PagedWeightStore, WeightLayout};

#[cfg(test)]
mod proptests {
    use super::*;
    use moe_hardware::ByteSize;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn split_pages_preserve_total_and_balance(total in 0u64..1 << 32, pages in 1usize..64) {
            let parts = pages::split_into_pages(ByteSize::from_bytes(total), pages);
            prop_assert_eq!(parts.len(), pages);
            prop_assert_eq!(parts.iter().map(|p| p.as_bytes()).sum::<u64>(), total);
            let max = parts.iter().map(|p| p.as_bytes()).max().unwrap();
            let min = parts.iter().map(|p| p.as_bytes()).min().unwrap();
            prop_assert!(max - min <= 1);
        }

        #[test]
        fn pool_usage_matches_live_allocations(ops in proptest::collection::vec((1u64..1000, any::<bool>()), 1..100)) {
            let pool = MemoryPool::new("p", ByteSize::from_bytes(1 << 20));
            let mut live: Vec<(AllocationId, u64)> = Vec::new();
            let mut expected = 0u64;
            for (size, free_one) in ops {
                if free_one && !live.is_empty() {
                    let (id, sz) = live.pop().unwrap();
                    pool.free(id).unwrap();
                    expected -= sz;
                } else if let Ok(id) = pool.allocate(ByteSize::from_bytes(size)) {
                    live.push((id, size));
                    expected += size;
                }
                prop_assert_eq!(pool.used().as_bytes(), expected);
                prop_assert!(pool.used() <= pool.capacity());
            }
        }

        #[test]
        fn kv_cache_blocks_match_token_counts(
            prompts in proptest::collection::vec(1u64..300, 1..20),
            appends in 0u64..64,
            block in 1u64..64,
        ) {
            let pool = MemoryPool::new("kv", ByteSize::from_gib(1.0));
            let mut kv = PagedKvCache::new(pool, block, ByteSize::from_bytes(128));
            for (i, &p) in prompts.iter().enumerate() {
                kv.add_sequence(SequenceId(i as u64), p).unwrap();
            }
            for _ in 0..appends {
                kv.append_token(SequenceId(0)).unwrap();
            }
            let stats = kv.stats();
            let expected_tokens: u64 = prompts.iter().sum::<u64>() + appends;
            prop_assert_eq!(stats.tokens, expected_tokens);
            // Block count is exactly the sum of per-sequence ceilings.
            let expected_blocks: u64 = prompts
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let t = if i == 0 { p + appends } else { p };
                    t.div_ceil(block).max(1)
                })
                .sum();
            prop_assert_eq!(stats.blocks as u64, expected_blocks);
            prop_assert!(stats.wasted_slots < prompts.len() as u64 * block);
        }

        #[test]
        fn weight_store_transfer_bytes_equal_streamed_portion(
            layer_mib in 1.0f64..64.0,
            fraction in 0.0f64..1.0,
            pages in 1usize..16,
        ) {
            let gpu = MemoryPool::new("gpu", ByteSize::from_gib(64.0));
            let cpu = MemoryPool::new("cpu", ByteSize::from_gib(64.0));
            let pinned = MemoryPool::new("pinned", ByteSize::from_gib(8.0));
            let layout = WeightLayout {
                num_layers: 2,
                layer_bytes: ByteSize::from_mib(layer_mib),
                gpu_static_fraction: fraction,
                pages_per_layer: pages,
                buffer_slots: 3,
            };
            let mut store = PagedWeightStore::new(layout, gpu, cpu, pinned).unwrap();
            let transfers = store.plan_layer_prefetch(0).unwrap();
            let h2d: u64 = transfers
                .iter()
                .filter(|t| t.to == PageLocation::GpuHbm)
                .map(|t| t.bytes.as_bytes())
                .sum();
            prop_assert_eq!(h2d, store.layout().streamed_bytes_per_layer().as_bytes());
            for t in &transfers {
                store.complete_transfer(t).unwrap();
            }
            prop_assert!(store.layer_ready(0));
        }
    }
}
