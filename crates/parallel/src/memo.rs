//! A bounded, thread-safe memo for values that are pure functions of
//! their keys.
//!
//! Fan-out jobs that would compute the same value — the same connected
//! deployment for every protocol mode of a sweep, the same simulation
//! chunk for every figure of a sweep family — share one [`LruMemo`]
//! entry instead. Because a value is a pure function of its key, which
//! job computes it first, whether it was evicted and recomputed, and how
//! many threads race on it can cost time but never change a value: the
//! thread-count invariance of the fan-out is preserved.

use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A snapshot of an [`LruMemo`]'s counters and occupancy, from
/// [`LruMemo::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed a fresh value.
    pub misses: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
    /// The capacity bound (entries).
    pub capacity: usize,
}

/// One resident entry: the shared value plus its recency stamp.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    /// Tick of the last lookup that touched this entry — the LRU order.
    last_used: u64,
}

#[derive(Debug)]
struct Map<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Monotonic lookup counter stamping `last_used`.
    tick: u64,
}

/// A key-value memo bounded to a number of entries, evicting the
/// least-recently-used entries past the bound.
///
/// Values are computed outside the lock, so distinct keys compute in
/// parallel, and shared by [`Arc`]: an entry evicted while a caller
/// still holds it stays alive until that caller drops it.
///
/// # Examples
///
/// ```
/// use pbbf_parallel::LruMemo;
///
/// let memo = LruMemo::with_capacity(2);
/// assert_eq!(*memo.get_or_insert_with(3, || 3 * 3), 9);
/// assert_eq!(*memo.get_or_insert_with(3, || unreachable!()), 9);
/// let stats = memo.stats();
/// assert_eq!((stats.misses, stats.hits, stats.len), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct LruMemo<K, V> {
    map: Mutex<Map<K, V>>,
    capacity: NonZeroUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Copy + Eq + Hash, V> LruMemo<K, V> {
    /// Creates an empty memo bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: Mutex::new(Map {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: NonZeroUsize::new(capacity).expect("capacity must be at least 1"),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the entry map, recovering from poison.
    ///
    /// A panic while the lock is held would poison the mutex, and
    /// propagating that poison would brick a process-wide memo for every
    /// later job. Recovery is sound because every entry is a pure
    /// function of its key: the map is cleared rather than audited, which
    /// costs recomputation, never a changed value.
    fn lock(&self) -> MutexGuard<'_, Map<K, V>> {
        self.map.lock().unwrap_or_else(|poisoned| {
            self.map.clear_poison();
            let mut map = poisoned.into_inner();
            map.entries.clear();
            map
        })
    }

    /// Returns the value of `key`, computing it with `compute` and
    /// inserting it on first use — evicting least-recently-used entries
    /// if the insert would exceed the capacity bound. Two callers racing
    /// on one key both compute it; the first insert wins and both get
    /// its value.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        {
            let mut map = self.lock();
            map.tick += 1;
            let tick = map.tick;
            if let Some(entry) = map.entries.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.value);
            }
        }
        let computed = Arc::new(compute());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock();
        map.tick += 1;
        let tick = map.tick;
        let value = Arc::clone(
            &map.entries
                .entry(key)
                .and_modify(|e| e.last_used = tick)
                .or_insert(Entry {
                    value: computed,
                    last_used: tick,
                })
                .value,
        );
        // Evict the stalest entries down to capacity. O(len) per
        // eviction scan, which only runs on inserts past the bound.
        while map.entries.len() > self.capacity.get() {
            let stalest = *map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
                .expect("an over-capacity map is non-empty");
            map.entries.remove(&stalest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Drops every entry (values still held by callers stay alive). The
    /// counters are kept: they count lookups and evictions, not
    /// occupancy, and a `clear` is not an eviction.
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    /// A point-in-time snapshot of counters and occupancy. Each field is
    /// read on its own, so a snapshot racing a lookup may be off by that
    /// lookup; quiesce the memo first when exact books matter.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.lock().entries.len(),
            capacity: self.capacity.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_bounds_occupancy_and_prefers_stale_entries() {
        let memo = LruMemo::with_capacity(2);
        let a = memo.get_or_insert_with(1, || 10);
        let b = memo.get_or_insert_with(2, || 20);
        // Touch key 1 so key 2 is the LRU victim of the next insert.
        assert!(Arc::ptr_eq(&a, &memo.get_or_insert_with(1, || 11)));
        memo.get_or_insert_with(3, || 30);
        let stats = memo.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.len),
            (1, 3, 1, 2)
        );
        assert_eq!(*memo.get_or_insert_with(1, || 12), 10, "key 1 survived");
        assert_eq!(*memo.get_or_insert_with(2, || 21), 21, "key 2 was evicted");
        // An Arc held across the eviction of its entry stays usable.
        assert_eq!(*b, 20);

        memo.clear();
        let stats = memo.stats();
        assert_eq!(
            (stats.len, stats.misses),
            (0, 4),
            "clear keeps the counters"
        );
    }

    #[test]
    fn poisoned_lock_recovers_by_clearing() {
        let memo = LruMemo::with_capacity(4);
        memo.get_or_insert_with(7, || 49);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = memo
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("injected poison");
        }));
        assert!(result.is_err(), "the injected panic must fire");
        assert_eq!(memo.stats().len, 0, "recovery clears the map");
        assert_eq!(*memo.get_or_insert_with(7, || 49), 49);
        assert_eq!(memo.stats().misses, 2, "the value was recomputed");
    }
}
