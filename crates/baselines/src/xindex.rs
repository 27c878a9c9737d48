//! **XIndex**-like baseline: a two-stage RMI over groups, each holding a
//! sorted array plus a delta buffer, compacted by a background thread.
//!
//! Mechanisms reproduced from XIndex (Tang et al., PPoPP 2020):
//!
//! * reads predict into a group's sorted array with an error-bounded
//!   secondary search (the prediction-error cost ALT-index eliminates);
//! * misses also probe the group's **delta buffer** (a mutex-protected
//!   ordered map standing in for XIndex's masstree buffer);
//! * a **background thread** merges buffers into fresh sorted arrays
//!   (two-phase compaction; the worker keeps running during merges).
//!
//! Simplification: the top RMI is retrained only at bulk load (XIndex's
//! dynamic root adjustment is omitted); group-level compaction is the
//! behaviour that matters for the evaluated workloads.

use crate::rcu::RcuCell;
use crossbeam_epoch as epoch;
use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value};
use learned::search::bounded_search;
use learned::LinearModel;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Keys per group at bulk load.
const GROUP_TARGET: usize = 2048;
/// Buffer size that requests compaction.
const COMPACT_THRESHOLD: usize = 256;

/// Value tag for removed array entries (tombstone). Values themselves are
/// unconstrained, so deadness is a separate bitmap.
struct GroupData {
    keys: Vec<u64>,
    vals: Vec<AtomicU64>,
    dead: Vec<AtomicU64>, // bitmap
    model: LinearModel,
    err: usize,
}

impl GroupData {
    fn build(pairs: &[(u64, u64)]) -> Self {
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let vals: Vec<AtomicU64> = pairs.iter().map(|p| AtomicU64::new(p.1)).collect();
        let model = LinearModel::fit_endpoints(&keys).unwrap_or(LinearModel::point(1));
        let err = model.max_error(&keys).ceil() as usize;
        let dead = (0..keys.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            keys,
            vals,
            dead,
            model,
            err,
        }
    }

    #[inline]
    fn is_dead(&self, i: usize) -> bool {
        self.dead[i / 64].load(Ordering::Acquire) >> (i % 64) & 1 == 1
    }

    #[inline]
    fn kill(&self, i: usize) {
        self.dead[i / 64].fetch_or(1 << (i % 64), Ordering::AcqRel);
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let pred = self.model.predict_clamped(key, self.keys.len());
        bounded_search(&self.keys, key, pred, self.err)
    }
}

struct Group {
    data: RcuCell<GroupData>,
    buffer: Mutex<BTreeMap<u64, u64>>,
    buffer_len: AtomicUsize,
    compact_requested: AtomicBool,
}

impl Group {
    fn new(pairs: &[(u64, u64)]) -> Self {
        Self {
            data: RcuCell::new(GroupData::build(pairs)),
            buffer: Mutex::new(BTreeMap::new()),
            buffer_len: AtomicUsize::new(0),
            compact_requested: AtomicBool::new(false),
        }
    }

    /// Merge the buffer into a fresh sorted array (background thread).
    ///
    /// Holds the buffer lock for the whole merge: group writers and the
    /// reader miss-path serialize against it, so no entry is ever
    /// invisible or resurrected mid-merge. (The resulting writer stalls
    /// during merges are exactly the delta-buffer bottleneck the
    /// ALT-index paper attributes to XIndex.)
    fn compact(&self) {
        let guard = epoch::pin();
        let mut buf = self.buffer.lock();
        let drained: Vec<(u64, u64)> = buf.iter().map(|(&k, &x)| (k, x)).collect();
        if drained.is_empty() {
            self.compact_requested.store(false, Ordering::Release);
            return;
        }
        buf.clear();
        self.buffer_len.store(0, Ordering::Release);
        let data = self.data.load(&guard);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(data.keys.len() + drained.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < data.keys.len() && j < drained.len() {
            if data.is_dead(i) {
                i += 1;
                continue;
            }
            match data.keys[i].cmp(&drained[j].0) {
                std::cmp::Ordering::Less => {
                    merged.push((data.keys[i], data.vals[i].load(Ordering::Acquire)));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(drained[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    // Buffer wins (it is newer).
                    merged.push(drained[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < data.keys.len() {
            if !data.is_dead(i) {
                merged.push((data.keys[i], data.vals[i].load(Ordering::Acquire)));
            }
            i += 1;
        }
        merged.extend_from_slice(&drained[j..]);
        self.data.replace(GroupData::build(&merged), &guard);
        self.compact_requested.store(false, Ordering::Release);
        drop(buf);
    }

    fn memory(&self) -> usize {
        let guard = epoch::pin();
        let data = self.data.load(&guard);
        std::mem::size_of::<Self>()
            + data.keys.len() * 16
            + data.dead.len() * 8
            + self.buffer_len.load(Ordering::Relaxed) * 48 // BTreeMap node overhead estimate
    }
}

struct XDir {
    pivots: Vec<u64>,
    groups: Vec<Arc<Group>>,
}

impl XDir {
    fn locate(&self, key: u64) -> usize {
        match self.pivots.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

/// Shared state for the background compactor.
struct Compactor {
    queue: Mutex<Vec<Arc<Group>>>,
    cv: Condvar,
    stop: AtomicBool,
}

/// The XIndex-like baseline.
pub struct XIndexLike {
    dir: RcuCell<XDir>,
    compactor: Arc<Compactor>,
    worker: Option<std::thread::JoinHandle<()>>,
    len: AtomicUsize,
    /// Completed background compactions (diagnostics).
    pub compactions: AtomicUsize,
}

impl XIndexLike {
    /// Build over sorted unique pairs; spawns the background compactor.
    pub fn build(pairs: &[(u64, u64)]) -> Self {
        Self::build_with_group(pairs, GROUP_TARGET)
    }

    /// Build with an explicit group size (larger groups -> larger model
    /// error bounds; the Fig 3(b) sweep).
    pub fn build_with_group(pairs: &[(u64, u64)], group_target: usize) -> Self {
        let group_target = group_target.max(16);
        let mut groups = Vec::new();
        if pairs.is_empty() {
            groups.push(Arc::new(Group::new(&[])));
        } else {
            for chunk in pairs.chunks(group_target) {
                groups.push(Arc::new(Group::new(chunk)));
            }
        }
        let pivots: Vec<u64> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let guard = epoch::pin();
                let d = g.data.load(&guard);
                d.keys
                    .first()
                    .copied()
                    .unwrap_or(if i == 0 { 1 } else { u64::MAX })
            })
            .collect();
        let compactor = Arc::new(Compactor {
            queue: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let worker_state = Arc::clone(&compactor);
        let worker = std::thread::Builder::new()
            .name("xindex-compactor".into())
            .spawn(move || loop {
                let job = {
                    let mut q = worker_state.queue.lock();
                    while q.is_empty() && !worker_state.stop.load(Ordering::Acquire) {
                        worker_state.cv.wait(&mut q);
                    }
                    if worker_state.stop.load(Ordering::Acquire) && q.is_empty() {
                        return;
                    }
                    q.pop()
                };
                if let Some(g) = job {
                    g.compact();
                }
            })
            .expect("spawn compactor");
        Self {
            dir: RcuCell::new(XDir { pivots, groups }),
            compactor,
            worker: Some(worker),
            len: AtomicUsize::new(pairs.len()),
            compactions: AtomicUsize::new(0),
        }
    }

    /// Number of groups (the Fig 3(a) "model number" metric).
    pub fn num_groups(&self) -> usize {
        let guard = epoch::pin();
        self.dir.load(&guard).groups.len()
    }

    /// Maximum group model error (positions).
    pub fn max_err(&self) -> usize {
        let guard = epoch::pin();
        self.dir
            .load(&guard)
            .groups
            .iter()
            .map(|g| g.data.load(&guard).err)
            .max()
            .unwrap_or(0)
    }

    fn request_compaction(&self, g: &Arc<Group>) {
        if g.compact_requested.swap(true, Ordering::AcqRel) {
            return; // already queued
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        let mut q = self.compactor.queue.lock();
        q.push(Arc::clone(g));
        self.compactor.cv.notify_one();
    }
}

impl Drop for XIndexLike {
    fn drop(&mut self) {
        self.compactor.stop.store(true, Ordering::Release);
        self.compactor.cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl ConcurrentIndex for XIndexLike {
    fn get(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let group = &dir.groups[dir.locate(key)];
        let data = group.data.load(&guard);
        if let Some(i) = data.find(key) {
            if !data.is_dead(i) {
                return Some(data.vals[i].load(Ordering::Acquire));
            }
            // Dead array entry: the key may have been reinserted into the
            // buffer; fall through.
        }
        // The delta-buffer probe every XIndex miss pays. A concurrent
        // compaction may have moved the key array-ward between our array
        // probe and taking the lock, so re-check the (now stable) array
        // under the lock on a buffer miss.
        let buf = group.buffer.lock();
        if let Some(&v) = buf.get(&key) {
            return Some(v);
        }
        let data = group.data.load(&guard);
        let res = data
            .find(key)
            .and_then(|i| (!data.is_dead(i)).then(|| data.vals[i].load(Ordering::Acquire)));
        drop(buf);
        res
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        crate::batch::get_batch_grouped(self, keys, out, |group| {
            // Warm each key's group header (the RCU data pointer and the
            // buffer lock live there) a group ahead of the probes.
            let guard = epoch::pin();
            let dir = self.dir.load(&guard);
            for &k in group {
                if k == 0 {
                    continue;
                }
                prefetch::prefetch_read_ref(&dir.groups[dir.locate(k)]);
                obs::incr!(Counter::BaselineBatchPrefetch);
            }
        });
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let group = &dir.groups[dir.locate(key)];
        // All group mutations serialize on the buffer lock so they cannot
        // interleave a background merge.
        let mut buf = group.buffer.lock();
        let data = group.data.load(&guard);
        if let Some(i) = data.find(key) {
            if !data.is_dead(i) {
                return Err(IndexError::DuplicateKey);
            }
        }
        if buf.contains_key(&key) {
            return Err(IndexError::DuplicateKey);
        }
        buf.insert(key, value);
        let blen = group.buffer_len.fetch_add(1, Ordering::AcqRel) + 1;
        drop(buf);
        self.len.fetch_add(1, Ordering::Relaxed);
        if blen >= COMPACT_THRESHOLD {
            self.request_compaction(group);
        }
        Ok(())
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let group = &dir.groups[dir.locate(key)];
        let mut buf = group.buffer.lock();
        let data = group.data.load(&guard);
        if let Some(i) = data.find(key) {
            if !data.is_dead(i) {
                data.vals[i].store(value, Ordering::Release);
                return Ok(());
            }
        }
        let res = match buf.get_mut(&key) {
            Some(v) => {
                *v = value;
                Ok(())
            }
            None => Err(IndexError::KeyNotFound),
        };
        drop(buf);
        res
    }

    fn remove(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let group = &dir.groups[dir.locate(key)];
        let mut buf = group.buffer.lock();
        let data = group.data.load(&guard);
        if let Some(i) = data.find(key) {
            if !data.is_dead(i) {
                data.kill(i);
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(data.vals[i].load(Ordering::Acquire));
            }
        }
        let removed = buf.remove(&key);
        if removed.is_some() {
            // Counter updates stay under the buffer lock: the compactor
            // resets the counter while holding it, so an unlocked
            // decrement could race the reset and wrap below zero.
            group.buffer_len.fetch_sub(1, Ordering::AcqRel);
        }
        drop(buf);
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        self.collect(lo, hi, usize::MAX, out)
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.collect(lo, u64::MAX, n, out)
    }

    fn memory_usage(&self) -> usize {
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        dir.groups.iter().map(|g| g.memory()).sum::<usize>()
            + dir.pivots.len() * 8
            + std::mem::size_of::<Self>()
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "XIndex"
    }
}

impl XIndexLike {
    /// Ordered, bounded collection over `[lo, hi]`, at most `limit`
    /// entries (array and buffer are both sorted, so the merge can stop
    /// early exactly).
    fn collect(&self, lo: Key, hi: Key, limit: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let before = out.len();
        if limit == 0 {
            return 0;
        }
        let lo = lo.max(1);
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let start = dir.locate(lo);
        for gi in start..dir.groups.len() {
            if out.len() - before >= limit {
                break;
            }
            if dir.pivots[gi] > hi && gi != start {
                break;
            }
            let group = &dir.groups[gi];
            // Take the buffer lock first so the data snapshot cannot be
            // replaced by a concurrent merge mid-walk.
            let buf = group.buffer.lock();
            let data = group.data.load(&guard);
            // Merge the array slice with the buffer's slice.
            let from = data.keys.partition_point(|&k| k < lo);
            let mut array_iter = (from..data.keys.len())
                .filter(|&i| !data.is_dead(i) && data.keys[i] <= hi)
                .map(|i| (data.keys[i], data.vals[i].load(Ordering::Acquire)))
                .peekable();
            let mut buf_iter = buf.range(lo..=hi).map(|(&k, &v)| (k, v)).peekable();
            while out.len() - before < limit {
                match (array_iter.peek(), buf_iter.peek()) {
                    (Some(&(ka, _)), Some(&(kb, _))) => {
                        if ka < kb {
                            out.push(array_iter.next().unwrap());
                        } else if kb < ka {
                            out.push(buf_iter.next().unwrap());
                        } else {
                            out.push(buf_iter.next().unwrap());
                            array_iter.next();
                        }
                    }
                    (Some(_), None) => out.push(array_iter.next().unwrap()),
                    (None, Some(_)) => out.push(buf_iter.next().unwrap()),
                    (None, None) => break,
                }
            }
        }
        out.len() - before
    }
}

impl BulkLoad for XIndexLike {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        Self::build(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_and_get() {
        let pairs: Vec<(u64, u64)> = (1..=30_000u64).map(|i| (i * 5, i)).collect();
        let x = XIndexLike::build(&pairs);
        for &(k, v) in &pairs {
            assert_eq!(x.get(k), Some(v), "key {k}");
        }
        assert_eq!(x.get(4), None);
    }

    #[test]
    fn inserts_go_to_buffer_then_compact() {
        let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * 10, i)).collect();
        let x = XIndexLike::build(&pairs);
        for i in 1..=5_000u64 {
            x.insert(i * 10 + 3, i).unwrap();
        }
        // All readable regardless of compaction progress.
        for i in 1..=5_000u64 {
            assert_eq!(x.get(i * 10 + 3), Some(i), "key {}", i * 10 + 3);
        }
        // Give the background worker a moment, then verify again.
        std::thread::sleep(std::time::Duration::from_millis(100));
        for i in 1..=5_000u64 {
            assert_eq!(x.get(i * 10 + 3), Some(i));
        }
        assert!(x.compactions.load(Ordering::Relaxed) > 0, "compactor ran");
        assert_eq!(x.len(), 15_000);
    }

    #[test]
    fn duplicates_detected_in_array_and_buffer() {
        let x = XIndexLike::build(&[(10, 1), (20, 2)]);
        assert_eq!(x.insert(10, 9), Err(IndexError::DuplicateKey));
        x.insert(15, 3).unwrap();
        assert_eq!(x.insert(15, 4), Err(IndexError::DuplicateKey));
    }

    #[test]
    fn update_and_remove_both_layers() {
        let x = XIndexLike::build(&[(10, 1), (20, 2)]);
        x.insert(15, 3).unwrap();
        x.update(10, 11).unwrap();
        x.update(15, 31).unwrap();
        assert_eq!(x.get(10), Some(11));
        assert_eq!(x.get(15), Some(31));
        assert_eq!(x.remove(10), Some(11));
        assert_eq!(x.get(10), None);
        assert_eq!(x.remove(15), Some(31));
        assert_eq!(x.get(15), None);
        assert_eq!(x.update(99, 1), Err(IndexError::KeyNotFound));
        // Removed array key can be reinserted via the buffer.
        x.insert(10, 12).unwrap();
        assert_eq!(x.get(10), Some(12));
    }

    #[test]
    fn range_merges_array_and_buffer() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        for i in 1..=2_000u64 {
            m.insert(i * 4, i);
        }
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let x = XIndexLike::build(&pairs);
        for i in 1..=500u64 {
            x.insert(i * 4 + 1, i).unwrap();
            m.insert(i * 4 + 1, i);
        }
        let mut got = Vec::new();
        x.range(10, 1500, &mut got);
        let want: Vec<(u64, u64)> = m.range(10..=1500).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_insert_read_with_compaction() {
        let pairs: Vec<(u64, u64)> = (1..=40_000u64).map(|i| (i * 8, i)).collect();
        let x = Arc::new(XIndexLike::build(&pairs));
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let x = Arc::clone(&x);
            hs.push(std::thread::spawn(move || {
                for i in 0..3_000u64 {
                    let k = (t * 3_000 + i) * 8 + 3;
                    x.insert(k, k).unwrap();
                    assert_eq!(x.get(k), Some(k), "own write {k}");
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        for t in 0..8u64 {
            for i in 0..3_000u64 {
                let k = (t * 3_000 + i) * 8 + 3;
                assert_eq!(x.get(k), Some(k));
            }
        }
    }
}
