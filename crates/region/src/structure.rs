//! Structural changes: hotspot shard split, cold-neighbour merge, and
//! the maintenance pass that decides between them.
//!
//! All structural work runs under `Inner::struct_lock`, so at most one
//! split or merge is in flight per router and the fast paths never
//! contend on anything beyond their own shard's gate.
//!
//! # Split: bounded two-phase copy (DESIGN.md §17)
//!
//! 1. **Phase 1 (unfrozen):** range-scan the hot shard, pick the median
//!    key `m`, and bulk-load a fresh index `B` from the upper half.
//!    Writers keep landing in the old shard the whole time.
//! 2. **Phase 2 (frozen):** take the shard's gate write-lock (drains
//!    in-flight writers, blocks new ones), rescan `[m, hi]`, and
//!    reconcile the frozen truth against the phase-1 copy (insert new
//!    keys, update changed values, remove vanished keys) — the copy work
//!    under freeze is bounded by the write rate, not the shard size.
//!    Publish a new routing table where `[lo, m-1]` keeps the old index
//!    object and `[m, hi]` is `B`, retire the old shard, release the
//!    gate, then delete the migrated upper-half keys from the old index
//!    (they are unreachable through routing, which clamps to the shard
//!    range, and readers that raced the cleanup discard their result on
//!    the `retired` check).
//!
//! # Merge
//!
//! Freeze both adjacent shards, copy the right shard's keys into the
//! left shard's index, publish a single shard covering the union range
//! (reusing the left index object), retire both.

use crate::router::{lock, Inner, RouteTable, Shard};
use crate::MaintenanceReport;
use crossbeam_epoch::{self as epoch, Owned};
use index_api::{BulkLoad, ConcurrentIndex, Key, Value};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// Apply the frozen truth `now` (the phase-2 rescan of `[m, hi]`) to the
/// phase-1 copy `b`, which was bulk-loaded from `was`. Both slices are
/// sorted and unique. Returns the number of entries touched.
fn reconcile<I: ConcurrentIndex>(b: &I, was: &[(Key, Value)], now: &[(Key, Value)]) -> usize {
    let (mut i, mut j, mut touched) = (0usize, 0usize, 0usize);
    while i < was.len() || j < now.len() {
        match (was.get(i), now.get(j)) {
            (Some(&(wk, _)), Some(&(nk, nv))) if wk == nk => {
                if was[i].1 != nv {
                    b.update(nk, nv).expect("reconcile update of copied key");
                    touched += 1;
                }
                i += 1;
                j += 1;
            }
            // Key vanished between the phases.
            (Some(&(wk, _)), Some(&(nk, _))) if wk < nk => {
                b.remove(wk);
                touched += 1;
                i += 1;
            }
            (Some(_), None) => {
                b.remove(was[i].0);
                touched += 1;
                i += 1;
            }
            // Key appeared between the phases.
            (_, Some(&(nk, nv))) => {
                b.insert(nk, nv).expect("reconcile insert of new key");
                touched += 1;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    touched
}

impl<I: ConcurrentIndex + BulkLoad + 'static> Inner<I> {
    /// Publish `shards` as the new routing table and retire `old` (order
    /// matters: retire *after* the swap so a reader that still routed
    /// through the old table and missed the new one sees `retired` on
    /// its post-read validation — the flag is the reader's only signal).
    fn publish(&self, shards: Vec<Arc<Shard<I>>>, old: &[&Arc<Shard<I>>]) {
        debug_assert!(!shards.is_empty());
        debug_assert_eq!(shards[0].lo, 0);
        debug_assert_eq!(shards.last().expect("nonempty").hi, Key::MAX);
        testkit::chaos_point!("region.swap");
        let guard = epoch::pin();
        let prev = self
            .table
            .swap(Owned::new(RouteTable { shards }), Ordering::AcqRel, &guard);
        for s in old {
            s.retired.store(true, Ordering::Release);
        }
        // SAFETY: `prev` was the published table; readers that still
        // hold it are pinned, and defer_destroy waits them out.
        unsafe { guard.defer_destroy(prev) };
    }

    /// Split the shard at position `pos` of the current table at its key
    /// median. Returns `false` when the shard is no longer eligible
    /// (shrunk below `min_split_keys`, or all its mass sits on one key).
    pub(crate) fn split_at(&self, pos: usize) -> bool {
        let _structural = lock(&self.struct_lock);
        let shards = self.snapshot();
        let Some(target) = shards.get(pos) else {
            return false;
        };

        // Phase 1: unfrozen copy of the upper half.
        let mut pairs: Vec<(Key, Value)> = Vec::new();
        target.index.range(target.lo, target.hi, &mut pairs);
        if pairs.len() < self.cfg.min_split_keys.max(2) {
            return false;
        }
        let mid = pairs.len() / 2;
        let m = pairs[mid].0;
        if m == target.lo {
            // Degenerate distribution: the median equals the lower
            // bound, so no proper sub-range exists.
            return false;
        }
        testkit::chaos_point!("region.split");
        let upper: Vec<(Key, Value)> = pairs[mid..].to_vec();
        let b_index = I::bulk_load(&upper);

        // Phase 2: freeze writers, reconcile, publish.
        let gate = target.gate.write().unwrap_or_else(PoisonError::into_inner);
        let mut now: Vec<(Key, Value)> = Vec::new();
        target.index.range(m, target.hi, &mut now);
        reconcile(&b_index, &upper, &now);

        let a = Shard::new(target.lo, m - 1, Arc::clone(&target.index));
        let b = Shard::new(m, target.hi, Arc::new(b_index));
        let mut new_shards = shards.clone();
        new_shards.splice(pos..=pos, [Arc::clone(&a), Arc::clone(&b)]);
        self.publish(new_shards, &[target]);
        drop(gate);

        self.stats.splits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .migrated_keys
            .fetch_add(now.len() as u64, Ordering::Relaxed);
        obs::incr!(Counter::RegionSplit);
        obs::add!(Counter::RegionMigratedKeys, now.len());

        // Cleanup: drop the migrated upper half from the old index. The
        // keys are unreachable through routing (shard `a` clamps to
        // `[lo, m-1]`), new writers of `[m, hi]` go to `b`, and readers
        // that raced us discard their result on the retired check — so
        // the set to delete is exactly the frozen rescan.
        for &(k, _) in &now {
            target.index.remove(k);
        }
        true
    }

    /// Merge the adjacent shards at positions `pos` and `pos + 1` into
    /// one shard backed by the left index. Returns `false` when the pair
    /// no longer exists or outgrew `merge_max_keys`.
    pub(crate) fn merge_at(&self, pos: usize) -> bool {
        let _structural = lock(&self.struct_lock);
        let shards = self.snapshot();
        let (Some(a), Some(b)) = (shards.get(pos), shards.get(pos + 1)) else {
            return false;
        };
        if a.index.len() + b.index.len() > self.cfg.merge_max_keys {
            return false;
        }

        // Freeze both shards' writers (left-to-right; only the
        // structural thread ever takes two gates, so order is moot for
        // deadlock but kept deterministic anyway).
        let gate_a = a.gate.write().unwrap_or_else(PoisonError::into_inner);
        let gate_b = b.gate.write().unwrap_or_else(PoisonError::into_inner);

        let mut moving: Vec<(Key, Value)> = Vec::new();
        b.index.range(b.lo, b.hi, &mut moving);
        for &(k, v) in &moving {
            // The copied keys are above `a.hi`, so readers of `a` (which
            // clamp to the shard range) cannot observe them early.
            a.index
                .upsert(k, v)
                .expect("merge upsert into absorbing shard");
        }

        let merged = Shard::new(a.lo, b.hi, Arc::clone(&a.index));
        let mut new_shards = shards.clone();
        new_shards.splice(pos..=pos + 1, [merged]);
        self.publish(new_shards, &[a, b]);
        drop(gate_b);
        drop(gate_a);

        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        self.stats
            .migrated_keys
            .fetch_add(moving.len() as u64, Ordering::Relaxed);
        obs::incr!(Counter::RegionMerge);
        obs::add!(Counter::RegionMigratedKeys, moving.len());
        true
    }

    /// One maintenance pass: read-and-reset the per-shard op counters,
    /// split the hottest eligible shard, then (on a fresh snapshot)
    /// merge the coldest eligible adjacent pair.
    pub(crate) fn maintenance(&self) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        let shards = self.snapshot();
        let loads: Vec<u64> = shards
            .iter()
            .map(|s| s.ops.swap(0, Ordering::Relaxed))
            .collect();

        if shards.len() < self.cfg.max_shards {
            let hottest = (0..shards.len())
                .filter(|&i| {
                    loads[i] >= self.cfg.split_ops_threshold
                        && shards[i].index.len() >= self.cfg.min_split_keys.max(2)
                })
                .max_by_key(|&i| loads[i]);
            if let Some(i) = hottest {
                report.split = self.split_at(i);
            }
        }

        // Re-snapshot: a split above shifted positions. A pair is
        // merge-candidate when BOTH sides were cold this tick; freshly
        // split halves have zeroed counters but their parent was hot, so
        // requiring the pair to be strictly below the threshold while
        // `merge_ops_threshold << split_ops_threshold` keeps ping-pong
        // out (documented contract on RegionConfig).
        let shards = self.snapshot();
        if shards.len() > 1 {
            let coldest = (0..shards.len() - 1)
                .filter(|&i| {
                    !report.split // never split and merge in one tick
                        && shards[i].ops.load(Ordering::Relaxed)
                            + shards[i + 1].ops.load(Ordering::Relaxed)
                            <= self.cfg.merge_ops_threshold
                        && shards[i].index.len() + shards[i + 1].index.len()
                            <= self.cfg.merge_max_keys
                })
                .min_by_key(|&i| shards[i].index.len() + shards[i + 1].index.len());
            if let Some(i) = coldest {
                report.merge = self.merge_at(i);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapIndex;
    use crate::{RegionConfig, RegionIndex};
    use index_api::ConcurrentIndex;

    fn pairs(n: u64) -> Vec<(Key, Value)> {
        (1..=n).map(|k| (k * 10, k * 10 + 1)).collect()
    }

    fn small_cfg() -> RegionConfig {
        RegionConfig {
            initial_shards: 2,
            max_shards: 16,
            min_split_keys: 4,
            merge_max_keys: 10_000,
            split_ops_threshold: 1,
            merge_ops_threshold: 0,
            ..RegionConfig::default()
        }
    }

    /// Full-contents invariant: sorted, unique, and exactly the model.
    fn assert_matches_model(idx: &RegionIndex<MapIndex>, model: &[(Key, Value)]) {
        let mut out = Vec::new();
        idx.range(1, Key::MAX, &mut out);
        assert_eq!(out.len(), model.len(), "scan length");
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique");
        assert_eq!(out, model, "contents");
        assert_eq!(idx.len(), model.len(), "len");
    }

    #[test]
    fn split_preserves_contents_and_bounds() {
        let p = pairs(100);
        let idx = RegionIndex::bulk_load_with(&p, small_cfg());
        assert_eq!(idx.shard_count(), 2);
        assert!(idx.inner.split_at(0));
        assert!(idx.inner.split_at(2));
        assert_eq!(idx.shard_count(), 4);
        let b = idx.shard_bounds();
        assert_eq!(b[0].0, 0);
        assert_eq!(b.last().unwrap().1, Key::MAX);
        for w in b.windows(2) {
            assert_eq!(w[1].0, w[0].1 + 1);
        }
        assert_matches_model(&idx, &p);
        assert_eq!(idx.stats().splits, 2);
        assert!(idx.stats().migrated_keys > 0);
    }

    #[test]
    fn merge_preserves_contents_and_bounds() {
        let p = pairs(100);
        let idx = RegionIndex::bulk_load_with(&p, small_cfg());
        assert!(idx.inner.merge_at(0));
        assert_eq!(idx.shard_count(), 1);
        let b = idx.shard_bounds();
        assert_eq!(b, vec![(0, Key::MAX)]);
        assert_matches_model(&idx, &p);
        assert_eq!(idx.stats().merges, 1);
    }

    #[test]
    fn split_rejects_underfull_shard() {
        let idx = RegionIndex::<MapIndex>::bulk_load_with(
            &pairs(4),
            RegionConfig {
                initial_shards: 2,
                min_split_keys: 100,
                ..RegionConfig::default()
            },
        );
        assert!(!idx.inner.split_at(0));
        assert_eq!(idx.stats().splits, 0);
    }

    #[test]
    fn maintenance_splits_hot_and_merges_cold() {
        let p = pairs(100);
        let idx = RegionIndex::bulk_load_with(&p, small_cfg());
        // Heat up shard 0 only.
        for _ in 0..10 {
            idx.get(10);
        }
        let r = idx.tick();
        assert!(r.split);
        assert!(!r.merge); // same-tick merge suppressed
        assert_eq!(idx.shard_count(), 3);
        // With everything cold the next tick merges the smallest pair.
        let r = idx.tick();
        assert!(!r.split);
        assert!(r.merge);
        assert_eq!(idx.shard_count(), 2);
        assert_matches_model(&idx, &p);
    }

    #[test]
    fn writes_after_split_route_to_both_halves() {
        let mut p = pairs(100);
        let idx = RegionIndex::bulk_load_with(&p, small_cfg());
        assert!(idx.inner.split_at(1));
        // One write landing in each of the three shards.
        idx.insert(5, 50).unwrap();
        idx.insert(755, 51).unwrap();
        idx.insert(995, 52).unwrap();
        p.push((5, 50));
        p.push((755, 51));
        p.push((995, 52));
        p.sort_unstable();
        assert_matches_model(&idx, &p);
    }
}
