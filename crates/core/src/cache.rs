//! Sharded concurrent memo cache.
//!
//! The evaluators memoize compile results behind a map keyed by inlining
//! decisions. A single `Mutex<HashMap>` serializes every lookup, which
//! matters once the tree search and the autotuner issue queries from many
//! threads at once: most queries are cache *hits* that hold the lock for a
//! few hundred nanoseconds each, and they all collide. [`ShardedCache`]
//! splits the key space over a fixed power-of-two number of independently
//! locked shards, so concurrent queries only contend when they hash to the
//! same shard (1/16 of the time).
//!
//! Accounting is exact, not approximate: each shard's hit/miss/eviction
//! counters live *inside* the shard mutex and are updated in the same
//! critical section as the map probe, so a [`CacheStats`] snapshot always
//! satisfies `hits + misses == lookups issued` and every counted hit really
//! did observe a resident entry. (An earlier design bumped free-standing
//! atomics after releasing the map lock, which let a concurrently snapshot
//! stats view under- or over-count outcomes relative to map state.)
//!
//! Misses are deduplicated: [`ShardedCache::get_or_compute`] lets exactly
//! one thread (the *leader*) compute a missing key while every other
//! thread asking for it waits for the leader's value, so concurrent search
//! lanes never compile the same configuration twice and compile counts are
//! exact. A waiter that receives the leader's value counts as a hit. While
//! a key is being computed its value is a [`OnceLock`] cell: if the leader
//! unwinds (a panic, or a cooperative cancellation) the cell stays empty
//! and one of its waiters computes instead, so nobody waits forever.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Number of shards (a power of two, so shard selection is a mask).
const SHARDS: usize = 16;

/// A shard's lock is poisoned only when a key's `Hash`, `Eq` or `Clone`
/// panicked under it; computations run outside the lock.
const POISONED: &str = "a key's Hash, Eq or Clone panicked under a shard lock";

/// A concurrent map split over [`SHARDS`] independently locked shards,
/// optionally bounded with FIFO (insertion-order) eviction.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-shard entry bound; `None` means unbounded.
    shard_capacity: Option<usize>,
}

/// One shard: the map plus its outcome counters, all behind one lock so a
/// probe and its accounting are a single atomic step.
struct Shard<K, V> {
    /// Resident values, and cells of keys being computed.
    map: HashMap<K, Entry<V>>,
    /// Insertion order of resident keys, used only when bounded.
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A resident key: its value, or the cell its leader is computing into.
enum Entry<V> {
    Ready(V),
    Pending(Arc<OnceLock<V>>),
}

/// Aggregate hit/miss/eviction counts and the per-shard entry distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the capacity bound (0 for unbounded caches).
    pub evictions: u64,
    /// Entries currently resident in each shard.
    pub shard_loads: Vec<usize>,
}

impl CacheStats {
    /// Total entries across shards.
    pub fn entries(&self) -> usize {
        self.shard_loads.iter().sum()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_shard_capacity(None)
    }

    /// Creates an empty cache holding at most `capacity` entries in total.
    ///
    /// The bound is split evenly across shards (rounded up, so a skewed key
    /// distribution can exceed `capacity` by at most `SHARDS - 1` entries).
    /// When a shard is full, the oldest inserted entry in that shard is
    /// evicted and counted in [`CacheStats::evictions`].
    pub fn bounded(capacity: usize) -> Self {
        Self::with_shard_capacity(Some(capacity.div_ceil(SHARDS).max(1)))
    }

    fn with_shard_capacity(shard_capacity: Option<usize>) -> Self {
        let shard = || Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        ShardedCache { shards: (0..SHARDS).map(|_| Mutex::new(shard())).collect(), shard_capacity }
    }

    fn lock(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards[(h.finish() as usize) & (SHARDS - 1)].lock().expect(POISONED)
    }

    /// Returns the value for `key`, computing it with `compute` on a miss.
    ///
    /// Exactly one caller computes a missing key; concurrent callers for
    /// the same key wait for that leader's value instead of computing it
    /// again. If the leader unwinds, the key stays uncomputed and one
    /// waiter computes it instead; a waiter whose own evaluation is
    /// cancelled unwinds at its next checkpoint.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce(&K) -> V) -> V {
        let cell = {
            let mut shard = self.lock(&key);
            match shard.map.get(&key) {
                Some(Entry::Ready(v)) => {
                    let v = v.clone();
                    shard.hits += 1;
                    return v;
                }
                Some(Entry::Pending(cell)) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(OnceLock::new());
                    shard.map.insert(key.clone(), Entry::Pending(Arc::clone(&cell)));
                    if let Some(cap) = self.shard_capacity {
                        shard.order.push_back(key.clone());
                        while shard.map.len() > cap {
                            let oldest = shard.order.pop_front().expect("order tracks residents");
                            shard.map.remove(&oldest);
                            shard.evictions += 1;
                        }
                    }
                    cell
                }
            }
        };
        let mut led = false;
        let v = cell
            .get_or_init(|| {
                led = true;
                compute(&key)
            })
            .clone();
        let mut shard = self.lock(&key);
        if led {
            shard.misses += 1;
            // Later lookups read the value directly (unless the entry was
            // evicted meanwhile).
            if let Some(entry) = shard.map.get_mut(&key) {
                *entry = Entry::Ready(v.clone());
            }
        } else {
            shard.hits += 1;
        }
        v
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect(POISONED).map.len()).sum()
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters and per-shard loads.
    ///
    /// Each shard is read atomically (counters and load come from one lock
    /// acquisition), so per-shard figures are internally consistent; the
    /// totals are exact once concurrent probes have quiesced.
    pub fn stats(&self) -> CacheStats {
        let mut stats =
            CacheStats { shard_loads: Vec::with_capacity(SHARDS), ..Default::default() };
        for s in &self.shards {
            let s = s.lock().expect(POISONED);
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.evictions += s.evictions;
            stats.shard_loads.push(s.map.len());
        }
        stats
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn a_miss_computes_then_hits() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(c.get_or_compute(1, |k| k * 10), 10);
        assert_eq!(c.get_or_compute(1, |_| unreachable!("resident")), 10);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.entries(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn keys_spread_over_shards() {
        let c: ShardedCache<u64, ()> = ShardedCache::new();
        for k in 0..256 {
            c.get_or_compute(k, |_| ());
        }
        let s = c.stats();
        assert_eq!(s.entries(), 256);
        // With 256 keys over 16 shards a fully collapsed distribution would
        // mean the hash ignores the key; require at least a few nonempty.
        assert!(s.shard_loads.iter().filter(|&&n| n > 0).count() >= 4);
    }

    #[test]
    fn concurrent_accounting_totals_are_exact() {
        // Every thread issues a known mix of misses and hits over disjoint
        // key ranges; because outcomes are counted under the shard lock, the
        // aggregate totals must match exactly — not approximately.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let k = t * PER_THREAD + i;
                        assert_eq!(c.get_or_compute(k, |k| k * 2), k * 2); // miss
                        assert_eq!(c.get_or_compute(k, |_| unreachable!()), k * 2);
                        // hit
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits, THREADS * PER_THREAD);
        assert_eq!(s.misses, THREADS * PER_THREAD);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.entries(), (THREADS * PER_THREAD) as usize);
    }

    /// Races a leader computing key 7 against a waiter asking for it: the
    /// leader blocks inside `compute` until the waiter holds the leader's
    /// pending cell, then finishes with `outcome`. Returns the waiter's
    /// value and the number of computes the two ran.
    fn race_a_waiter(c: &ShardedCache<u64, u64>, outcome: fn() -> u64) -> (u64, u64) {
        let computes = AtomicU64::new(0);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let cell_holders = || match c.lock(&7).map.get(&7) {
            Some(Entry::Pending(cell)) => Arc::strong_count(cell),
            _ => 0,
        };
        std::thread::scope(|scope| {
            let computes = &computes;
            let leader = scope.spawn(move || {
                c.get_or_compute(7, |_| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    outcome()
                })
            });
            entered_rx.recv().unwrap();
            let waiter = scope.spawn(|| {
                c.get_or_compute(7, |_| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    71
                })
            });
            // The map, the leader and now the waiter hold the cell: the
            // waiter missed while the leader was mid-compute.
            while cell_holders() < 3 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
            let _ = leader.join();
            (waiter.join().unwrap(), computes.load(Ordering::SeqCst))
        })
    }

    #[test]
    fn concurrent_misses_compute_once() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        assert_eq!(race_a_waiter(&c, || 70), (70, 1), "one key, one compute");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1), "the waiter counts as a hit");
    }

    #[test]
    fn an_unwinding_leader_releases_its_key() {
        // Both ways a leader can unwind: a genuine panic, and the
        // cooperative cancellation payload the serve executor uses. The
        // waiter takes the key over and computes it itself.
        let unwinds: [fn() -> u64; 2] = [
            || panic!("compile failed"),
            || std::panic::panic_any(optinline_ir::cancel::Cancelled),
        ];
        for unwind in unwinds {
            let c: ShardedCache<u64, u64> = ShardedCache::new();
            assert_eq!(race_a_waiter(&c, unwind), (71, 2));
            assert_eq!(c.get_or_compute(7, |_| unreachable!("resident")), 71);
        }
    }

    #[test]
    fn bounded_cache_evicts_oldest_and_counts_it() {
        // One entry per shard at most: every fresh key that lands in an
        // occupied shard must evict that shard's older entry.
        let c: ShardedCache<u64, u64> = ShardedCache::bounded(SHARDS);
        for k in 0..64 {
            c.get_or_compute(k, |k| *k);
        }
        let s = c.stats();
        assert!(s.entries() <= SHARDS);
        assert_eq!(s.evictions as usize, 64 - s.entries());
        // A hit on a resident key neither grows the shard nor evicts.
        let resident = (0..64).find(|k| c.lock(k).map.contains_key(k)).expect("some key survived");
        assert_eq!(c.get_or_compute(resident, |_| unreachable!("resident")), resident);
        assert_eq!(c.stats().evictions, s.evictions);
        assert_eq!(c.stats().entries(), s.entries());
    }

    #[test]
    fn bounded_capacity_rounds_up_per_shard() {
        // capacity 1 still admits one entry per shard rather than zero.
        let c: ShardedCache<u64, u64> = ShardedCache::bounded(1);
        assert_eq!(c.get_or_compute(7, |_| 70), 70);
        assert_eq!(c.get_or_compute(7, |_| unreachable!("resident")), 70);
        assert_eq!(c.stats().evictions, 0);
    }
}
