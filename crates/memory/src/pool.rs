//! Capacity-tracked memory pools.
//!
//! The offloading runtime needs to know, at every instant, how much GPU HBM, pinned
//! host memory and pageable host DRAM is in use — exceeding a pool is exactly the
//! failure mode the policy optimizer's capacity constraints are meant to prevent, so
//! the pools are strict: an allocation that does not fit is an error, not a warning.

use crate::error::MemoryError;
use moe_hardware::ByteSize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Handle to a live allocation in a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(u64);

#[derive(Debug, Default)]
struct PoolState {
    used: u64,
    peak: u64,
    allocations: HashMap<u64, u64>,
}

/// A named, capacity-limited memory pool with explicit allocate/free accounting.
///
/// The pool is cheaply cloneable (internally reference counted) so the runtime's
/// worker threads can share it.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    name: Arc<str>,
    capacity: ByteSize,
    state: Arc<Mutex<PoolState>>,
    next_id: Arc<AtomicU64>,
}

impl MemoryPool {
    /// Creates a pool with the given name and capacity.
    pub fn new(name: impl Into<String>, capacity: ByteSize) -> Self {
        MemoryPool {
            name: Arc::from(name.into()),
            capacity,
            state: Arc::new(Mutex::new(PoolState::default())),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("memory pool state lock poisoned")
    }

    /// The pool's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> ByteSize {
        ByteSize::from_bytes(self.state().used)
    }

    /// Bytes still available.
    pub fn available(&self) -> ByteSize {
        self.capacity.saturating_sub(self.used())
    }

    /// High-water mark of usage since creation.
    pub fn peak(&self) -> ByteSize {
        ByteSize::from_bytes(self.state().peak)
    }

    /// Fraction of the capacity currently in use (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        if self.capacity.is_zero() {
            return 0.0;
        }
        self.used().as_bytes() as f64 / self.capacity.as_bytes() as f64
    }

    /// Allocates `size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfMemory`] if the allocation does not fit.
    pub fn allocate(&self, size: ByteSize) -> Result<AllocationId, MemoryError> {
        let mut s = self.state();
        let new_used = s.used + size.as_bytes();
        if new_used > self.capacity.as_bytes() {
            return Err(MemoryError::OutOfMemory {
                pool: self.name.to_string(),
                requested: size,
                available: self.capacity.saturating_sub(ByteSize::from_bytes(s.used)),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        s.allocations.insert(id, size.as_bytes());
        s.used = new_used;
        s.peak = s.peak.max(new_used);
        Ok(AllocationId(id))
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::UnknownAllocation`] for an unknown (or already freed)
    /// handle.
    pub fn free(&self, id: AllocationId) -> Result<ByteSize, MemoryError> {
        let mut s = self.state();
        match s.allocations.remove(&id.0) {
            Some(size) => {
                s.used -= size;
                Ok(ByteSize::from_bytes(size))
            }
            None => Err(MemoryError::UnknownAllocation { id: id.0 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(gib: f64) -> MemoryPool {
        MemoryPool::new("test", ByteSize::from_gib(gib))
    }

    #[test]
    fn allocate_and_free_round_trip() {
        let p = pool(1.0);
        let a = p.allocate(ByteSize::from_mib(256.0)).unwrap();
        let b = p.allocate(ByteSize::from_mib(512.0)).unwrap();
        assert_eq!(p.used(), ByteSize::from_mib(768.0));
        assert_eq!(p.free(a).unwrap(), ByteSize::from_mib(256.0));
        assert_eq!(p.used(), ByteSize::from_mib(512.0));
        p.free(b).unwrap();
        assert!(p.used().is_zero());
    }

    #[test]
    fn over_allocation_is_rejected_with_details() {
        let p = pool(1.0);
        p.allocate(ByteSize::from_mib(900.0)).unwrap();
        let err = p.allocate(ByteSize::from_mib(200.0)).unwrap_err();
        match err {
            MemoryError::OutOfMemory {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, ByteSize::from_mib(200.0));
                assert_eq!(available, ByteSize::from_mib(124.0));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failed allocation must not change accounting.
        assert_eq!(p.used(), ByteSize::from_mib(900.0));
    }

    #[test]
    fn double_free_is_an_error() {
        let p = pool(1.0);
        let a = p.allocate(ByteSize::from_mib(1.0)).unwrap();
        p.free(a).unwrap();
        assert!(matches!(
            p.free(a),
            Err(MemoryError::UnknownAllocation { .. })
        ));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let p = pool(1.0);
        let a = p.allocate(ByteSize::from_mib(600.0)).unwrap();
        p.free(a).unwrap();
        let _b = p.allocate(ByteSize::from_mib(100.0)).unwrap();
        assert_eq!(p.peak(), ByteSize::from_mib(600.0));
    }

    #[test]
    fn utilization_is_used_over_capacity() {
        let p = pool(1.0);
        assert_eq!(p.utilization(), 0.0);
        p.allocate(ByteSize::from_mib(512.0)).unwrap();
        assert!((p.utilization() - 0.5).abs() < 1e-9);
        let zero = MemoryPool::new("zero", ByteSize::ZERO);
        assert_eq!(zero.utilization(), 0.0);
    }

    #[test]
    fn clones_share_accounting() {
        let p = pool(1.0);
        let q = p.clone();
        p.allocate(ByteSize::from_mib(100.0)).unwrap();
        assert_eq!(q.used(), ByteSize::from_mib(100.0));
    }

    #[test]
    fn concurrent_allocations_never_exceed_capacity() {
        let p = MemoryPool::new("gpu", ByteSize::from_bytes(10_000));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for _ in 0..100 {
                        if let Ok(id) = p.allocate(ByteSize::from_bytes(100)) {
                            ok += 1;
                            // keep every other allocation alive
                            if ok % 2 == 0 {
                                let _ = p.free(id);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(p.used() <= p.capacity());
        assert!(p.peak() <= p.capacity());
    }
}
