//! The range-sharded router: an epoch-published routing table over
//! per-shard indexes, with validated lock-free reads and gate-drained
//! writes.
//!
//! # Read/write protocol
//!
//! The routing table is an immutable sorted `Vec<Arc<Shard>>` covering
//! the whole `u64` key space, published through a
//! [`crossbeam_epoch::Atomic`] exactly like ALT-index's model directory
//! (`dir_epoch`, DESIGN.md §7):
//!
//! * **Readers** (`get`/`get_batch`/`range`/`scan`) pin, load the table,
//!   clone the routed shard's `Arc`, and execute against its index with
//!   no locks. After the read they validate the shard's `retired` flag:
//!   a structural change sets `retired` (Release) at publish time,
//!   *before* any cleanup deletes touch the old index, so a reader that
//!   could have observed cleanup effects must observe `retired == true` —
//!   it discards the result and re-routes on the fresh table. Retries are
//!   bounded by the `resilience` budget; escalation takes the structural
//!   lock and performs one conclusive, race-free pass.
//! * **Writers** (`insert`/`update`/`upsert`/`remove`) additionally hold
//!   the shard's `gate` read-lock across the operation. A split/merge
//!   takes the gate *write*-lock to freeze the shard, so by the time the
//!   frozen phase-2 rescan runs, every in-flight write has either fully
//!   landed (it is in the rescan) or not started (its thread will see
//!   `retired` and re-route). Each write therefore executes exactly once
//!   on a live shard.

use crate::RegionConfig;
use crossbeam_epoch::{self as epoch, Atomic};
use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};
use resilience::{Retry, Step};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};

/// Poison-tolerant mutex lock (the repo-wide idiom: a panicking holder
/// must not wedge every later operation).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One key-range shard: a contiguous inclusive range `[lo, hi]` and the
/// index that owns it.
pub(crate) struct Shard<I> {
    /// Inclusive lower bound of the routed range.
    pub(crate) lo: Key,
    /// Inclusive upper bound of the routed range (`u64::MAX` for the
    /// last shard).
    pub(crate) hi: Key,
    /// The per-shard engine. Split keeps this object for the lower half
    /// (residual upper-half keys are cleaned up post-publish and are
    /// unreachable through routing, which always clamps to `[lo, hi]`).
    pub(crate) index: Arc<I>,
    /// Writer gate: writers hold `read` across each operation; split and
    /// merge hold `write` to freeze the shard for the phase-2 rescan.
    pub(crate) gate: RwLock<()>,
    /// Set (Release) when a structural change replaces this shard in the
    /// routing table. Readers validate it after each read.
    pub(crate) retired: AtomicBool,
    /// Operations observed since the last maintenance tick (relaxed;
    /// feeds the hotspot heuristic only).
    pub(crate) ops: AtomicU64,
}

impl<I> Shard<I> {
    pub(crate) fn new(lo: Key, hi: Key, index: Arc<I>) -> Arc<Self> {
        Arc::new(Shard {
            lo,
            hi,
            index,
            gate: RwLock::new(()),
            retired: AtomicBool::new(false),
            ops: AtomicU64::new(0),
        })
    }
}

/// The published routing table. Invariants: shards sorted by `lo`,
/// contiguous (`shards[i+1].lo == shards[i].hi + 1`), first `lo == 0`,
/// last `hi == u64::MAX` — so every key routes to exactly one shard.
pub(crate) struct RouteTable<I> {
    pub(crate) shards: Vec<Arc<Shard<I>>>,
}

impl<I> RouteTable<I> {
    /// Index of the shard whose range contains `key` (total coverage
    /// makes this infallible).
    pub(crate) fn idx_of(&self, key: Key) -> usize {
        let i = self.shards.partition_point(|s| s.hi < key);
        debug_assert!(i < self.shards.len(), "routing table must cover all keys");
        i.min(self.shards.len() - 1)
    }
}

/// Always-on structural counters (relaxed), independent of the optional
/// `metrics` feature so tests can guard against vacuity cheaply.
#[derive(Default)]
pub(crate) struct StatsInner {
    pub(crate) splits: AtomicU64,
    pub(crate) merges: AtomicU64,
    pub(crate) migrated_keys: AtomicU64,
    pub(crate) route_retries: AtomicU64,
}

/// Snapshot of a router's structural counters (see
/// [`RegionIndex::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Shard splits published.
    pub splits: u64,
    /// Shard merges published.
    pub merges: u64,
    /// Keys copied between shard indexes by splits and merges.
    pub migrated_keys: u64,
    /// Reads/writes that re-routed after observing a retired shard.
    pub route_retries: u64,
}

/// RAII guard from [`RegionIndex::freeze_maintenance`]: structural
/// changes (split/merge and their cleanup) are blocked until it drops.
#[must_use = "maintenance is only frozen while the guard is alive"]
pub struct MaintenanceFreeze<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

/// What one maintenance tick did (see [`RegionIndex::tick`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// A hotspot shard was split.
    pub split: bool,
    /// A cold adjacent pair was merged.
    pub merge: bool,
}

pub(crate) struct Inner<I> {
    pub(crate) table: Atomic<RouteTable<I>>,
    /// Serializes all structural changes (split/merge/quiesce); never
    /// held by the read or write fast paths.
    pub(crate) struct_lock: Mutex<()>,
    pub(crate) cfg: RegionConfig,
    pub(crate) stats: StatsInner,
    /// Background-worker shutdown flag + wakeup, `sched.rs`-style.
    pub(crate) shutdown: Mutex<bool>,
    pub(crate) wake: Condvar,
}

impl<I> Inner<I> {
    /// Clone the current shard list under an epoch pin (the `Arc`s keep
    /// the shards alive after the guard drops, even if the table is
    /// swapped and reclaimed).
    pub(crate) fn snapshot(&self) -> Vec<Arc<Shard<I>>> {
        let guard = epoch::pin();
        let t = self.table.load(Ordering::Acquire, &guard);
        // SAFETY: the table pointer is never null after construction and
        // is loaded under the pin; defer_destroy delays reclamation past
        // this guard.
        unsafe { t.deref() }.shards.clone()
    }

    /// Route `key` to its current shard.
    pub(crate) fn route(&self, key: Key) -> Arc<Shard<I>> {
        let guard = epoch::pin();
        let t = self.table.load(Ordering::Acquire, &guard);
        // SAFETY: as in `snapshot`.
        let table = unsafe { t.deref() };
        Arc::clone(&table.shards[table.idx_of(key)])
    }

    pub(crate) fn note_retry(&self) {
        self.stats.route_retries.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RegionRouteRetry);
    }
}

impl<I> Drop for Inner<I> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no concurrent accessors remain, so
        // immediate reclamation of the last published table is sound.
        unsafe {
            let guard = epoch::unprotected();
            let t = self.table.load(Ordering::Relaxed, guard);
            if !t.is_null() {
                drop(t.into_owned());
            }
        }
    }
}

/// A range-sharded router implementing [`ConcurrentIndex`] over N
/// per-shard instances of `I`. See the crate docs and DESIGN.md §17.
pub struct RegionIndex<I: ConcurrentIndex + BulkLoad + 'static> {
    pub(crate) inner: Arc<Inner<I>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<I: ConcurrentIndex + BulkLoad + 'static> RegionIndex<I> {
    /// Build a router over `pairs` (sorted, unique, no key 0) with
    /// explicit configuration. Initial shard boundaries are key
    /// quantiles of `pairs`.
    pub fn bulk_load_with(pairs: &[(Key, Value)], cfg: RegionConfig) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let n = if pairs.is_empty() {
            1
        } else {
            cfg.initial_shards.clamp(1, cfg.max_shards.max(1))
        };
        // Quantile boundaries, deduplicated: shard i starts at the key of
        // rank i*len/n (shard 0 always starts at 0).
        let mut bounds: Vec<Key> = Vec::with_capacity(n);
        bounds.push(0);
        for i in 1..n {
            let b = pairs[i * pairs.len() / n].0;
            if b > *bounds.last().expect("bounds nonempty") {
                bounds.push(b);
            }
        }
        let mut shards = Vec::with_capacity(bounds.len());
        for (i, &lo) in bounds.iter().enumerate() {
            let hi = bounds.get(i + 1).map_or(Key::MAX, |&next| next - 1);
            let start = pairs.partition_point(|&(k, _)| k < lo);
            let end = pairs.partition_point(|&(k, _)| k <= hi);
            let idx = I::bulk_load_threaded(&pairs[start..end], cfg.construction_threads.max(1));
            shards.push(Shard::new(lo, hi, Arc::new(idx)));
        }
        let inner = Arc::new(Inner {
            table: Atomic::new(RouteTable { shards }),
            struct_lock: Mutex::new(()),
            cfg,
            stats: StatsInner::default(),
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
        });
        let worker = if inner.cfg.auto {
            Some(crate::worker::spawn(Arc::clone(&inner)))
        } else {
            None
        };
        RegionIndex { inner, worker }
    }

    /// Run one maintenance pass synchronously: split the hottest
    /// eligible shard and/or merge the coldest eligible adjacent pair.
    /// This is the deterministic entry point the background worker also
    /// uses; tests drive it directly.
    pub fn tick(&self) -> MaintenanceReport {
        self.inner.maintenance()
    }

    /// Wait for any in-flight structural change to finish (acquires and
    /// releases the structural lock). When `quiesce` returns no split
    /// cleanup is pending — but with `auto` maintenance the worker may
    /// start a *new* change immediately after; use
    /// [`freeze_maintenance`](Self::freeze_maintenance) for a view that
    /// stays stable across multiple observations.
    pub fn quiesce(&self) {
        drop(lock(&self.inner.struct_lock));
    }

    /// Blocks structural maintenance while the returned guard is held:
    /// any in-flight split/merge (including the split's post-publish
    /// cleanup of migrated keys) completes first, and no new one can
    /// start until the guard drops. While frozen, `len()`, `range()`,
    /// and `shard_bounds()` observe exact, mutually consistent shard
    /// contents — without it, a split mid-cleanup transiently overcounts
    /// `len()` (the origin index still holds migrated keys that routing
    /// already clamps out). Read-only observation guard: regular
    /// gets/writes proceed normally while it is held.
    pub fn freeze_maintenance(&self) -> MaintenanceFreeze<'_> {
        MaintenanceFreeze(lock(&self.inner.struct_lock))
    }

    /// Current shard count (may be stale by the next structural change).
    pub fn shard_count(&self) -> usize {
        self.inner.snapshot().len()
    }

    /// The current shard ranges, ascending and contiguous — exposed for
    /// invariant checks in tests.
    pub fn shard_bounds(&self) -> Vec<(Key, Key)> {
        self.inner.snapshot().iter().map(|s| (s.lo, s.hi)).collect()
    }

    /// Per-shard diagnostics: `(lo, hi, index_len, clamped_len, full_len)`
    /// where `clamped_len` counts keys the router can reach (range limited
    /// to the shard bounds) and `full_len` counts everything resident in
    /// the backing index. `index_len != full_len` means the engine's
    /// counter drifted; `full_len != clamped_len` means out-of-bounds
    /// residue. Diagnostic aid for the structural invariants tests.
    #[doc(hidden)]
    pub fn shard_debug(&self) -> Vec<(Key, Key, usize, usize, usize)> {
        self.inner
            .snapshot()
            .iter()
            .map(|s| {
                let mut clamped = Vec::new();
                s.index.range(s.lo.max(1), s.hi, &mut clamped);
                let mut full = Vec::new();
                s.index.range(1, Key::MAX, &mut full);
                (s.lo, s.hi, s.index.len(), clamped.len(), full.len())
            })
            .collect()
    }

    /// Snapshot of the always-on structural counters.
    pub fn stats(&self) -> RegionStats {
        let s = &self.inner.stats;
        RegionStats {
            splits: s.splits.load(Ordering::Relaxed),
            merges: s.merges.load(Ordering::Relaxed),
            migrated_keys: s.migrated_keys.load(Ordering::Relaxed),
            route_retries: s.route_retries.load(Ordering::Relaxed),
        }
    }

    /// Write-path template: route, enter the shard's gate, re-validate
    /// liveness, execute. Escalation takes the structural lock, under
    /// which the routed shard is necessarily live.
    fn write_op<R>(&self, key: Key, op: impl Fn(&I) -> R) -> R {
        let mut retry = Retry::new();
        loop {
            let shard = self.inner.route(key);
            let gate = shard.gate.read().unwrap_or_else(PoisonError::into_inner);
            if !shard.retired.load(Ordering::Acquire) {
                let r = op(&shard.index);
                drop(gate);
                shard.ops.fetch_add(1, Ordering::Relaxed);
                return r;
            }
            drop(gate);
            self.inner.note_retry();
            match retry.step_global() {
                Step::Wait(_) => {}
                Step::Escalate => {
                    let _structural = lock(&self.inner.struct_lock);
                    let shard = self.inner.route(key);
                    let _gate = shard.gate.read().unwrap_or_else(PoisonError::into_inner);
                    return op(&shard.index);
                }
            }
        }
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> Drop for RegionIndex<I> {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            *lock(&self.inner.shutdown) = true;
            self.inner.wake.notify_all();
            let _ = h.join();
        }
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> BulkLoad for RegionIndex<I> {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        Self::bulk_load_with(pairs, RegionConfig::default())
    }

    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        let cfg = RegionConfig {
            construction_threads: threads.max(1),
            ..RegionConfig::default()
        };
        Self::bulk_load_with(pairs, cfg)
    }
}

impl<I: ConcurrentIndex + BulkLoad + 'static> ConcurrentIndex for RegionIndex<I> {
    fn get(&self, key: Key) -> Option<Value> {
        let mut retry = Retry::new();
        loop {
            let shard = self.inner.route(key);
            let v = shard.index.get(key);
            if !shard.retired.load(Ordering::Acquire) {
                shard.ops.fetch_add(1, Ordering::Relaxed);
                return v;
            }
            self.inner.note_retry();
            match retry.step_global() {
                Step::Wait(_) => {}
                Step::Escalate => {
                    // Conclusive pass: no structural change can retire
                    // the routed shard while we hold the lock.
                    let _structural = lock(&self.inner.struct_lock);
                    return self.inner.route(key).index.get(key);
                }
            }
        }
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.insert(key, value))
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.update(key, value))
    }

    fn upsert(&self, key: Key, value: Value) -> Result<()> {
        self.write_op(key, |i| i.upsert(key, value))
    }

    fn remove(&self, key: Key) -> Option<Value> {
        self.write_op(key, |i| i.remove(key))
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        if keys.is_empty() {
            return;
        }
        // Group positions by shard under one table load, then run one
        // sub-batch per shard so each AMAC engine sees a coherent ring.
        let shards = self.inner.snapshot();
        let table = RouteTable { shards };
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); table.shards.len()];
        for (pos, &k) in keys.iter().enumerate() {
            groups[table.idx_of(k)].push(pos);
        }
        let mut gkeys: Vec<Key> = Vec::new();
        let mut gout: Vec<Option<Value>> = Vec::new();
        for (si, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &table.shards[si];
            gkeys.clear();
            gkeys.extend(group.iter().map(|&p| keys[p]));
            gout.clear();
            gout.resize(gkeys.len(), None);
            shard.index.get_batch(&gkeys, &mut gout);
            if shard.retired.load(Ordering::Acquire) {
                // The shard was replaced mid-batch: redo this group
                // through the validated single-key path (per-key
                // linearizability is all `get_batch` promises).
                self.inner.note_retry();
                for &p in group {
                    out[p] = self.get(keys[p]);
                }
            } else {
                shard.ops.fetch_add(group.len() as u64, Ordering::Relaxed);
                for (&p, v) in group.iter().zip(gout.iter()) {
                    out[p] = *v;
                }
            }
        }
    }

    fn batch_domains(&self) -> usize {
        self.inner.snapshot().len()
    }

    fn batch_domain_of(&self, key: Key) -> usize {
        let guard = epoch::pin();
        let t = self.inner.table.load(Ordering::Acquire, &guard);
        // SAFETY: as in `Inner::snapshot`.
        unsafe { t.deref() }.idx_of(key)
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        let start = out.len();
        let mut retry = Retry::new();
        'attempt: loop {
            out.truncate(start);
            let shards = self.inner.snapshot();
            for s in shards.iter() {
                if s.hi < lo || s.lo > hi {
                    continue;
                }
                s.index.range(lo.max(s.lo), hi.min(s.hi), out);
                if s.retired.load(Ordering::Acquire) {
                    self.inner.note_retry();
                    match retry.step_global() {
                        Step::Wait(_) => continue 'attempt,
                        Step::Escalate => {
                            let _structural = lock(&self.inner.struct_lock);
                            out.truncate(start);
                            for s in self.inner.snapshot().iter() {
                                if s.hi < lo || s.lo > hi {
                                    continue;
                                }
                                s.index.range(lo.max(s.lo), hi.min(s.hi), out);
                            }
                            return out.len() - start;
                        }
                    }
                }
            }
            return out.len() - start;
        }
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if n == 0 {
            return 0;
        }
        let mut retry = Retry::new();
        let mut tmp: Vec<(Key, Value)> = Vec::new();
        'attempt: loop {
            out.clear();
            let shards = self.inner.snapshot();
            let table = RouteTable { shards };
            for s in table.shards[table.idx_of(lo)..].iter() {
                tmp.clear();
                s.index.scan(lo.max(s.lo), n - out.len(), &mut tmp);
                // A shard's engine may overrun the shard's range (scan is
                // count-bounded, not key-bounded); clamp to `[.., s.hi]`
                // so residual post-split keys are never surfaced.
                let within = tmp.partition_point(|&(k, _)| k <= s.hi);
                tmp.truncate(within);
                if s.retired.load(Ordering::Acquire) {
                    self.inner.note_retry();
                    match retry.step_global() {
                        Step::Wait(_) => continue 'attempt,
                        Step::Escalate => {
                            let _structural = lock(&self.inner.struct_lock);
                            out.clear();
                            let shards = self.inner.snapshot();
                            let table = RouteTable { shards };
                            for s in table.shards[table.idx_of(lo)..].iter() {
                                tmp.clear();
                                s.index.scan(lo.max(s.lo), n - out.len(), &mut tmp);
                                let within = tmp.partition_point(|&(k, _)| k <= s.hi);
                                tmp.truncate(within);
                                out.extend_from_slice(&tmp);
                                if out.len() >= n {
                                    break;
                                }
                            }
                            out.truncate(n);
                            return out.len();
                        }
                    }
                }
                out.extend_from_slice(&tmp);
                if out.len() >= n {
                    break;
                }
            }
            out.truncate(n);
            return out.len();
        }
    }

    fn memory_usage(&self) -> usize {
        let shards = self.inner.snapshot();
        shards.len() * std::mem::size_of::<Shard<I>>()
            + shards.iter().map(|s| s.index.memory_usage()).sum::<usize>()
    }

    fn len(&self) -> usize {
        self.inner.snapshot().iter().map(|s| s.index.len()).sum()
    }

    fn name(&self) -> &'static str {
        "region"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapIndex;

    fn pairs(n: u64) -> Vec<(Key, Value)> {
        (1..=n).map(|k| (k * 10, k * 10 + 1)).collect()
    }

    fn build(n: u64, shards: usize) -> RegionIndex<MapIndex> {
        let cfg = RegionConfig {
            initial_shards: shards,
            ..RegionConfig::default()
        };
        RegionIndex::bulk_load_with(&pairs(n), cfg)
    }

    #[test]
    fn bounds_are_contiguous_and_total() {
        let idx = build(1000, 4);
        let b = idx.shard_bounds();
        assert_eq!(b.len(), 4);
        assert_eq!(b[0].0, 0);
        assert_eq!(b.last().unwrap().1, Key::MAX);
        for w in b.windows(2) {
            assert_eq!(w[1].0, w[0].1 + 1);
        }
    }

    #[test]
    fn get_insert_update_remove_across_shards() {
        let idx = build(1000, 4);
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.get(10), Some(11));
        assert_eq!(idx.get(10_000), Some(10_001));
        assert_eq!(idx.get(15), None);
        idx.insert(15, 7).unwrap();
        assert_eq!(idx.get(15), Some(7));
        assert!(idx.insert(15, 8).is_err());
        idx.update(15, 9).unwrap();
        idx.upsert(16, 1).unwrap();
        idx.upsert(16, 2).unwrap();
        assert_eq!(idx.get(16), Some(2));
        assert_eq!(idx.remove(15), Some(9));
        assert_eq!(idx.remove(15), None);
        assert_eq!(idx.len(), 1001);
    }

    #[test]
    fn range_and_scan_cross_shard_boundaries() {
        let idx = build(1000, 8);
        let mut out = Vec::new();
        let n = idx.range(1, 10_000, &mut out);
        assert_eq!(n, 1000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        let mut out = Vec::new();
        assert_eq!(idx.scan(4995, 100, &mut out), 100);
        assert_eq!(out[0].0, 5000);
        assert_eq!(out[99].0, 5990);
    }

    #[test]
    fn get_batch_matches_sequential_gets() {
        let idx = build(500, 4);
        let keys: Vec<Key> = (0..200u64).map(|i| i * 37 % 6000).collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn batch_domains_track_shards() {
        let idx = build(1000, 4);
        assert_eq!(idx.batch_domains(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for k in (10..=10_000).step_by(10) {
            seen.insert(idx.batch_domain_of(k));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let idx = build(100, 1);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.get(10), Some(11));
        let idx: RegionIndex<MapIndex> = RegionIndex::bulk_load(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.get(42), None);
        idx.insert(42, 1).unwrap();
        assert_eq!(idx.len(), 1);
    }
}
