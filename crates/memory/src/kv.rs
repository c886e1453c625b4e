//! Paged KV-cache manager.
//!
//! KV tensors are allocated in fixed-size *blocks* of tokens (the PagedAttention
//! idea adopted by the paper's implementation on top of vLLM), which bounds
//! fragmentation to one partially-filled block per sequence. MoE-Lightning keeps the
//! KV cache in CPU DRAM when attention runs on the CPU (`A_g = 0`) and optionally a
//! fraction `r_c` on the GPU; the engine therefore instantiates one
//! [`PagedKvCache`] per device, each backed by its own [`MemoryPool`].

use crate::error::MemoryError;
use crate::pool::{AllocationId, MemoryPool};
use moe_hardware::ByteSize;
use std::collections::HashMap;

/// Identifier of a sequence (request) registered with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SequenceId(pub u64);

#[derive(Debug)]
struct SequenceState {
    tokens: u64,
    blocks: Vec<AllocationId>,
}

/// Usage statistics of a [`PagedKvCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvCacheStats {
    /// Number of live sequences.
    pub sequences: usize,
    /// Number of allocated blocks.
    pub blocks: usize,
    /// Tokens stored.
    pub tokens: u64,
    /// Token slots allocated but not yet used (internal fragmentation).
    pub wasted_slots: u64,
    /// Bytes allocated in the backing pool.
    pub allocated_bytes: ByteSize,
}

/// A block-granular KV-cache allocator on top of a [`MemoryPool`].
#[derive(Debug)]
pub struct PagedKvCache {
    pool: MemoryPool,
    /// Tokens per block.
    block_tokens: u64,
    /// KV bytes per token, summed over all layers handled by this cache.
    bytes_per_token: ByteSize,
    sequences: HashMap<SequenceId, SequenceState>,
}

impl PagedKvCache {
    /// Creates a cache manager.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(pool: MemoryPool, block_tokens: u64, bytes_per_token: ByteSize) -> Self {
        assert!(block_tokens > 0, "block size must be at least one token");
        PagedKvCache {
            pool,
            block_tokens,
            bytes_per_token,
            sequences: HashMap::new(),
        }
    }

    /// Bytes of one block.
    pub fn block_bytes(&self) -> ByteSize {
        self.bytes_per_token * self.block_tokens
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// Registers a new sequence that already holds `initial_tokens` tokens (its
    /// prompt after prefill), allocating the required blocks.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequence already exists or the pool lacks capacity
    /// (in which case no blocks are leaked).
    pub fn add_sequence(&mut self, id: SequenceId, initial_tokens: u64) -> Result<(), MemoryError> {
        if self.sequences.contains_key(&id) {
            return Err(MemoryError::InvalidState {
                message: format!("sequence {} already registered", id.0),
            });
        }
        let blocks_needed = initial_tokens.div_ceil(self.block_tokens).max(1);
        let mut blocks = Vec::with_capacity(blocks_needed as usize);
        for _ in 0..blocks_needed {
            match self.pool.allocate(self.block_bytes()) {
                Ok(alloc) => blocks.push(alloc),
                Err(e) => {
                    for b in blocks {
                        let _ = self.pool.free(b);
                    }
                    return Err(e);
                }
            }
        }
        self.sequences.insert(
            id,
            SequenceState {
                tokens: initial_tokens,
                blocks,
            },
        );
        Ok(())
    }

    /// Appends one generated token to a sequence, allocating a new block when the
    /// current one is full.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequence is unknown or a new block cannot be
    /// allocated.
    pub fn append_token(&mut self, id: SequenceId) -> Result<(), MemoryError> {
        let block_bytes = self.block_bytes();
        let seq = self
            .sequences
            .get_mut(&id)
            .ok_or(MemoryError::UnknownSequence { sequence: id.0 })?;
        let capacity = seq.blocks.len() as u64 * self.block_tokens;
        if seq.tokens + 1 > capacity {
            let alloc = self.pool.allocate(block_bytes)?;
            seq.blocks.push(alloc);
        }
        seq.tokens += 1;
        Ok(())
    }

    /// Current usage statistics.
    pub fn stats(&self) -> KvCacheStats {
        let blocks: usize = self.sequences.values().map(|s| s.blocks.len()).sum();
        let tokens: u64 = self.sequences.values().map(|s| s.tokens).sum();
        let capacity: u64 = blocks as u64 * self.block_tokens;
        KvCacheStats {
            sequences: self.sequences.len(),
            blocks,
            tokens,
            wasted_slots: capacity.saturating_sub(tokens),
            allocated_bytes: self.block_bytes() * blocks as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pool_mib: f64, block_tokens: u64, bytes_per_token: u64) -> PagedKvCache {
        PagedKvCache::new(
            MemoryPool::new("kv", ByteSize::from_mib(pool_mib)),
            block_tokens,
            ByteSize::from_bytes(bytes_per_token),
        )
    }

    #[test]
    fn add_sequence_allocates_ceil_blocks() {
        let mut kv = cache(1.0, 16, 64);
        kv.add_sequence(SequenceId(1), 17).unwrap();
        let stats = kv.stats();
        assert_eq!(stats.sequences, 1);
        assert_eq!(stats.blocks, 2, "17 tokens need two 16-token blocks");
        assert_eq!(stats.tokens, 17);
        assert_eq!(stats.wasted_slots, 15);
        assert_eq!(stats.allocated_bytes, ByteSize::from_bytes(2 * 16 * 64));
    }

    #[test]
    fn zero_token_sequence_still_gets_one_block() {
        let mut kv = cache(1.0, 16, 64);
        kv.add_sequence(SequenceId(1), 0).unwrap();
        assert_eq!(kv.stats().blocks, 1);
    }

    #[test]
    fn duplicate_sequence_is_rejected() {
        let mut kv = cache(1.0, 16, 64);
        kv.add_sequence(SequenceId(1), 4).unwrap();
        assert!(kv.add_sequence(SequenceId(1), 4).is_err());
    }

    #[test]
    fn append_token_allocates_new_block_at_boundary() {
        let mut kv = cache(1.0, 4, 64);
        kv.add_sequence(SequenceId(7), 4).unwrap();
        assert_eq!(kv.stats().blocks, 1);
        kv.append_token(SequenceId(7)).unwrap();
        assert_eq!(
            kv.stats().blocks,
            2,
            "fifth token spills into a second block"
        );
        assert_eq!(kv.stats().tokens, 5);
        for _ in 0..3 {
            kv.append_token(SequenceId(7)).unwrap();
        }
        assert_eq!(
            kv.stats().blocks,
            2,
            "block is filled before allocating another"
        );
    }

    #[test]
    fn oom_on_add_sequence_does_not_leak_partial_blocks() {
        // Pool fits exactly 3 blocks of 1024 bytes.
        let pool = MemoryPool::new("kv", ByteSize::from_bytes(3 * 1024));
        let mut kv = PagedKvCache::new(pool.clone(), 16, ByteSize::from_bytes(64));
        // 5 blocks needed -> fails, and the partially allocated blocks are returned.
        assert!(kv.add_sequence(SequenceId(1), 80).is_err());
        assert!(pool.used().is_zero(), "failed registration must roll back");
        // 3 blocks fit.
        kv.add_sequence(SequenceId(2), 48).unwrap();
        assert!(
            kv.append_token(SequenceId(2)).is_err(),
            "no room for a fourth block"
        );
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        cache(1.0, 0, 64);
    }

    #[test]
    fn unknown_sequence_append_is_an_error() {
        let mut kv = cache(1.0, 16, 64);
        assert!(matches!(
            kv.append_token(SequenceId(3)),
            Err(MemoryError::UnknownSequence { sequence: 3 })
        ));
    }
}
