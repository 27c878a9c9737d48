//! **ALEX+**-like baseline: model-placed gapped arrays with data
//! shifting, node splits, and optimistic (seqlock) reads.
//!
//! Mechanisms reproduced from ALEX (Ding et al., SIGMOD 2020) and its
//! concurrent ALEX+ variant (Wongkham et al., VLDB 2022):
//!
//! * keys live near their model-predicted slot in a *gapped* sorted
//!   array; lookups walk outward from the prediction;
//! * inserts into an occupied neighborhood **shift data** toward the
//!   nearest gap (the paper measures this at 25.2% of insertion cost and
//!   blames it for ALEX+'s tail latency on hard datasets);
//! * nodes split once ~80% full, republishing the node directory
//!   RCU-style.
//!
//! Simplifications: a flat node directory instead of ALEX's internal
//! tree, fixed-size bulk chunks instead of the cost model. Both affect
//! constants, not the comparative behaviour.

use crate::rcu::RcuCell;
use crate::seqlock::SeqLock;
use crossbeam_epoch as epoch;
use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value};
use learned::LinearModel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Keys per node at bulk load.
const NODE_TARGET: usize = 4096;
/// Slot density at (re)build: capacity = count / DENSITY.
const DENSITY: f64 = 0.7;
/// Split when count exceeds capacity * MAX_FILL.
const MAX_FILL: f64 = 0.8;
/// A single insert shifting more than this many slots marks the node's
/// model as stale and triggers a split (ALEX's cost model reacts to
/// expensive inserts the same way).
const SHIFT_SPLIT_LIMIT: usize = 256;

struct DataNode {
    lock: SeqLock,
    model: LinearModel,
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    count: AtomicUsize,
    retired: AtomicBool,
}

impl DataNode {
    /// Build from sorted pairs, spreading keys with gaps.
    fn build(pairs: &[(u64, u64)]) -> Self {
        let n = pairs.len();
        let cap = ((n as f64 / DENSITY) as usize).max(n + 2).max(8);
        let keys: Box<[AtomicU64]> = (0..cap).map(|_| AtomicU64::new(0)).collect();
        let vals: Box<[AtomicU64]> = (0..cap).map(|_| AtomicU64::new(0)).collect();
        // Least-squares fit packs noticeably less than an endpoint fit
        // when interior density varies (ALEX also trains per-node models
        // on the full key set).
        let base = LinearModel::fit(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())
            .unwrap_or(LinearModel::point(1));
        // Scale the model over the full capacity.
        let scale = if n > 1 {
            (cap - 1) as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let model = LinearModel::new(base.first_key, base.slope * scale);
        let mut prev: Option<usize> = None;
        for (i, &(k, v)) in pairs.iter().enumerate() {
            let pred = model.predict_clamped(k, cap);
            let lo = prev.map(|p| p + 1).unwrap_or(0);
            let hi = cap - (n - i); // leave room for the remaining keys
            let pos = pred.clamp(lo, hi);
            keys[pos].store(k, Ordering::Relaxed);
            vals[pos].store(v, Ordering::Relaxed);
            prev = Some(pos);
        }
        Self {
            lock: SeqLock::new(),
            model,
            keys,
            vals,
            count: AtomicUsize::new(n),
            retired: AtomicBool::new(false),
        }
    }

    #[inline]
    fn cap(&self) -> usize {
        self.keys.len()
    }

    /// Find the slot holding `key`, walking outward from the prediction
    /// (the gapped-array analogue of ALEX's exponential search).
    fn find_slot(&self, key: u64) -> Option<usize> {
        let cap = self.cap();
        let p = self.model.predict_clamped(key, cap);
        // Walk left over empties and larger keys.
        let mut right_from = 0usize;
        let mut l = p;
        loop {
            let k = self.keys[l].load(Ordering::Acquire);
            if k != 0 {
                if k == key {
                    return Some(l);
                }
                if k < key {
                    right_from = l + 1;
                    break;
                }
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }
        // Scan right for the key; the first occupied slot > key ends it.
        let mut r = right_from.max(if right_from == 0 { p } else { right_from });
        // If we broke because l hit 0 with nothing smaller, scan from 0.
        if right_from == 0 {
            r = 0;
        }
        while r < cap {
            let k = self.keys[r].load(Ordering::Acquire);
            if k != 0 {
                if k == key {
                    return Some(r);
                }
                if k > key {
                    return None;
                }
            }
            r += 1;
        }
        None
    }

    /// Locked insert. Returns Ok(shift distance) or the duplicate's slot.
    fn insert_locked(&self, key: u64, value: u64) -> std::result::Result<usize, ()> {
        let cap = self.cap();
        // Find the insertion neighborhood: last occupied < key (pl) and
        // first occupied > key (s), detecting duplicates on the way.
        let p = self.model.predict_clamped(key, cap);
        // Move left to find the predecessor-or-duplicate.
        let mut pl: Option<usize> = None;
        let mut l = p;
        loop {
            let k = self.keys[l].load(Ordering::Relaxed);
            if k != 0 {
                if k == key {
                    return Err(());
                }
                if k < key {
                    pl = Some(l);
                    break;
                }
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }
        // Scan right from the predecessor (or 0) for the successor,
        // noting the first gap inside the neighborhood.
        let start = pl.map(|x| x + 1).unwrap_or(0);
        let mut gap_between: Option<usize> = None;
        let mut s: Option<usize> = None;
        let mut r = start;
        while r < cap {
            let k = self.keys[r].load(Ordering::Relaxed);
            if k == 0 {
                if gap_between.is_none() {
                    gap_between = Some(r);
                }
            } else {
                if k == key {
                    return Err(());
                }
                if k > key {
                    s = Some(r);
                    break;
                }
                // k < key: predecessor was actually further right (the
                // prediction undershot); restart the neighborhood here.
                pl = Some(r);
                gap_between = None;
            }
            r += 1;
        }

        match (gap_between, s) {
            (Some(g), Some(succ)) if g < succ => {
                // Free slot between predecessor and successor: no shift.
                self.place(g, key, value);
                Ok(0)
            }
            (Some(g), None) => {
                // Tail gap after all smaller keys.
                self.place(g, key, value);
                Ok(0)
            }
            (_, Some(succ)) => {
                // Must shift: find the *nearest* gap outside [pl+1, succ),
                // expanding left and right alternately so the search cost
                // is proportional to the shift distance, not the packed
                // run length.
                let mut lpos: Option<usize> = pl.and_then(|x| x.checked_sub(1));
                let mut rpos = succ + 1;
                let mut left_gap: Option<usize> = None;
                let mut right_gap: Option<usize> = None;
                loop {
                    match lpos {
                        Some(lp) if left_gap.is_none() => {
                            if self.keys[lp].load(Ordering::Relaxed) == 0 {
                                left_gap = Some(lp);
                            } else {
                                lpos = lp.checked_sub(1);
                            }
                        }
                        _ => {}
                    }
                    if left_gap.is_some() {
                        break;
                    }
                    if rpos < cap && right_gap.is_none() {
                        if self.keys[rpos].load(Ordering::Relaxed) == 0 {
                            right_gap = Some(rpos);
                        } else {
                            rpos += 1;
                        }
                    }
                    if right_gap.is_some() {
                        break;
                    }
                    if lpos.is_none() && rpos >= cap {
                        break;
                    }
                }
                let shift_right = |g: usize| {
                    // Shift [succ, g) right by one; insert at succ.
                    let mut i = g;
                    while i > succ {
                        self.move_slot(i - 1, i);
                        i -= 1;
                    }
                    self.place(succ, key, value);
                    g - succ
                };
                let shift_left = |g: usize, plv: usize| {
                    // Shift (g, pl] left by one; insert at pl.
                    let mut i = g;
                    while i < plv {
                        self.move_slot(i + 1, i);
                        i += 1;
                    }
                    self.place(plv, key, value);
                    plv - g
                };
                match (left_gap, right_gap) {
                    (None, None) => unreachable!("split threshold keeps a gap available"),
                    (None, Some(g)) => Ok(shift_right(g)),
                    (Some(g), None) => {
                        Ok(shift_left(g, pl.expect("left gap implies a predecessor")))
                    }
                    (Some(gl), Some(gr)) => {
                        let plv = pl.expect("left gap implies a predecessor");
                        if gr - succ <= plv - gl {
                            Ok(shift_right(gr))
                        } else {
                            Ok(shift_left(gl, plv))
                        }
                    }
                }
            }
            (None, None) => {
                // No successor and no gap after pl: the array tail is
                // full; shift left from the nearest gap before pl.
                let plv = match pl {
                    Some(x) => x,
                    None => unreachable!("empty node always has gaps"),
                };
                let g = (0..plv)
                    .rev()
                    .find(|&i| self.keys[i].load(Ordering::Relaxed) == 0)
                    .expect("split threshold keeps a gap available");
                let mut i = g;
                while i < plv {
                    self.move_slot(i + 1, i);
                    i += 1;
                }
                self.place(plv, key, value);
                Ok(plv - g)
            }
        }
    }

    #[inline]
    fn place(&self, i: usize, key: u64, value: u64) {
        self.vals[i].store(value, Ordering::Relaxed);
        self.keys[i].store(key, Ordering::Release);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn move_slot(&self, from: usize, to: usize) {
        let k = self.keys[from].load(Ordering::Relaxed);
        let v = self.vals[from].load(Ordering::Relaxed);
        self.vals[to].store(v, Ordering::Relaxed);
        self.keys[to].store(k, Ordering::Release);
        self.keys[from].store(0, Ordering::Release);
    }

    /// Snapshot live pairs in key order (caller holds the write lock or
    /// validates the seqlock).
    fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.count.load(Ordering::Relaxed));
        for i in 0..self.cap() {
            let k = self.keys[i].load(Ordering::Acquire);
            if k != 0 {
                out.push((k, self.vals[i].load(Ordering::Acquire)));
            }
        }
        out
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>() + self.cap() * 16
    }
}

struct Dir {
    pivots: Vec<u64>,
    nodes: Vec<Arc<DataNode>>,
}

impl Dir {
    fn locate(&self, key: u64) -> usize {
        match self.pivots.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

/// The ALEX+-like baseline index.
pub struct AlexLike {
    dir: RcuCell<Dir>,
    struct_lock: Mutex<()>,
    len: AtomicUsize,
    /// Total slots moved by data shifting (diagnostics).
    pub shifts: AtomicUsize,
    /// Node splits/expansions performed (diagnostics).
    pub splits: AtomicUsize,
}

impl AlexLike {
    /// Build over sorted unique pairs.
    pub fn build(pairs: &[(u64, u64)]) -> Self {
        let mut nodes = Vec::new();
        if pairs.is_empty() {
            nodes.push(Arc::new(DataNode::build(&[(1, 0)])));
            // Remove the placeholder key so the node is logically empty.
            let n = &nodes[0];
            if let Some(slot) = n.find_slot(1) {
                n.keys[slot].store(0, Ordering::Relaxed);
                n.count.store(0, Ordering::Relaxed);
            }
        } else {
            for chunk in pairs.chunks(NODE_TARGET) {
                nodes.push(Arc::new(DataNode::build(chunk)));
            }
        }
        let pivots = nodes.iter().map(|n| n.model.first_key).collect::<Vec<_>>();
        Self {
            dir: RcuCell::new(Dir { pivots, nodes }),
            struct_lock: Mutex::new(()),
            len: AtomicUsize::new(pairs.len()),
            shifts: AtomicUsize::new(0),
            splits: AtomicUsize::new(0),
        }
    }

    /// Guaranteed-progress lookup: read under the node's write lock.
    /// Waiting on the lock is bounded by the holder's progress, and each
    /// retired re-check retry implies a committed split — so this loop
    /// terminates under any finite split rate (and splits on a node are
    /// themselves bounded by its key count).
    fn get_locked(&self, key: Key) -> Option<Value> {
        let guard = epoch::pin();
        loop {
            let dir = self.dir.load(&guard);
            let node = &dir.nodes[dir.locate(key)];
            node.lock.write_lock();
            if node.retired.load(Ordering::Acquire) {
                node.lock.write_unlock();
                continue;
            }
            let res = node
                .find_slot(key)
                .map(|i| node.vals[i].load(Ordering::Acquire));
            node.lock.write_unlock();
            return res;
        }
    }

    /// Split `mi` into two nodes (called without locks held). With
    /// `require_full`, skips unless the node is at the fill threshold
    /// (the fullness-triggered path); without it, splits regardless (the
    /// cost-model path reacting to expensive shifts).
    fn split(&self, key_hint: u64, require_full: bool) {
        let _sl = self.struct_lock.lock();
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let mi = dir.locate(key_hint);
        let node = &dir.nodes[mi];
        if node.retired.load(Ordering::Acquire) {
            return;
        }
        if require_full
            && (node.count.load(Ordering::Relaxed) as f64) < node.cap() as f64 * MAX_FILL
        {
            return; // someone already split
        }
        node.lock.write_lock();
        let pairs = node.collect();
        node.retired.store(true, Ordering::Release);
        node.lock.write_unlock();
        // Splice nodes and pivots together: every pre-existing routing
        // pivot is preserved verbatim. (Pivots can be lower than a node's
        // current smallest key after earlier removals or splits;
        // recomputing them from node contents would re-route the keys in
        // that gap to the left neighbour, stranding any entries already
        // stored and letting them be inserted twice.)
        let mut nodes = Vec::with_capacity(dir.nodes.len() + 1);
        let mut pivots = Vec::with_capacity(dir.nodes.len() + 1);
        nodes.extend_from_slice(&dir.nodes[..mi]);
        pivots.extend_from_slice(&dir.pivots[..mi]);
        if pairs.len() < 32 {
            // Too small to split: expand in place instead (ALEX's node
            // expansion), which resets the fill factor and refits the
            // model — refusing here would let a full tiny node wedge the
            // fullness-triggered insert path.
            nodes.push(Arc::new(DataNode::build(&pairs)));
            pivots.push(dir.pivots[mi]);
        } else {
            let mid = pairs.len() / 2;
            let (left, right) = pairs.split_at(mid);
            nodes.push(Arc::new(DataNode::build(left)));
            pivots.push(dir.pivots[mi]);
            nodes.push(Arc::new(DataNode::build(right)));
            pivots.push(right[0].0);
        }
        nodes.extend_from_slice(&dir.nodes[mi + 1..]);
        pivots.extend_from_slice(&dir.pivots[mi + 1..]);
        debug_assert!(pivots.windows(2).all(|w| w[0] < w[1]));
        self.splits.fetch_add(1, Ordering::Relaxed);
        self.dir.replace(Dir { pivots, nodes }, &guard);
    }
}

impl ConcurrentIndex for AlexLike {
    fn get(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        loop {
            let dir = self.dir.load(&guard);
            let node = &dir.nodes[dir.locate(key)];
            let v = node.lock.read_begin();
            let res = node
                .find_slot(key)
                .map(|i| node.vals[i].load(Ordering::Acquire));
            if node.lock.read_validate(v) {
                if node.retired.load(Ordering::Acquire) {
                    // Retired ⇒ a split committed; the reload is bounded
                    // by split progress, but charge the budget anyway.
                    if retry.wait_or_escalate_global(crate::count_contention) {
                        return self.get_locked(key);
                    }
                    continue;
                }
                return res;
            }
            if retry.wait_or_escalate_global(crate::count_contention) {
                return self.get_locked(key);
            }
        }
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        crate::batch::get_batch_grouped(self, keys, out, |group| {
            // Warm each key's leaf node header a group ahead of the
            // probes; the node struct's first line holds the seqlock and
            // model the probe touches first.
            let guard = epoch::pin();
            let dir = self.dir.load(&guard);
            for &k in group {
                if k == 0 {
                    continue;
                }
                prefetch::prefetch_read_ref(&dir.nodes[dir.locate(k)]);
                obs::incr!(Counter::BaselineBatchPrefetch);
            }
        });
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        loop {
            let guard = epoch::pin();
            let dir = self.dir.load(&guard);
            let node = &dir.nodes[dir.locate(key)];
            if node.count.load(Ordering::Relaxed) as f64 >= node.cap() as f64 * MAX_FILL {
                drop(guard);
                self.split(key, true);
                continue;
            }
            node.lock.write_lock();
            if node.retired.load(Ordering::Acquire) {
                node.lock.write_unlock();
                continue;
            }
            let res = node.insert_locked(key, value);
            node.lock.write_unlock();
            return match res {
                Ok(shift) => {
                    self.shifts.fetch_add(shift, Ordering::Relaxed);
                    self.len.fetch_add(1, Ordering::Relaxed);
                    if shift > SHIFT_SPLIT_LIMIT {
                        // The model badly mispredicts this region (e.g. an
                        // outlier-skewed slope packed it solid): remodel by
                        // splitting, as ALEX's cost model would.
                        drop(guard);
                        self.split(key, false);
                    }
                    Ok(())
                }
                Err(()) => Err(IndexError::DuplicateKey),
            };
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let guard = epoch::pin();
        loop {
            let dir = self.dir.load(&guard);
            let node = &dir.nodes[dir.locate(key)];
            node.lock.write_lock();
            if node.retired.load(Ordering::Acquire) {
                node.lock.write_unlock();
                continue;
            }
            let res = match node.find_slot(key) {
                Some(i) => {
                    node.vals[i].store(value, Ordering::Release);
                    Ok(())
                }
                None => Err(IndexError::KeyNotFound),
            };
            node.lock.write_unlock();
            return res;
        }
    }

    fn remove(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        loop {
            let dir = self.dir.load(&guard);
            let node = &dir.nodes[dir.locate(key)];
            node.lock.write_lock();
            if node.retired.load(Ordering::Acquire) {
                node.lock.write_unlock();
                continue;
            }
            let res = node.find_slot(key).map(|i| {
                let v = node.vals[i].load(Ordering::Relaxed);
                node.keys[i].store(0, Ordering::Release);
                node.count.fetch_sub(1, Ordering::Relaxed);
                v
            });
            node.lock.write_unlock();
            if res.is_some() {
                self.len.fetch_sub(1, Ordering::Relaxed);
            }
            return res;
        }
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
        dir.nodes.iter().map(|n| n.memory()).sum::<usize>()
            + dir.pivots.len() * 8
            + std::mem::size_of::<Self>()
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "ALEX+"
    }
}

impl AlexLike {
    /// Ordered, bounded collection over `[lo, hi]`, at most `limit`
    /// entries. Node slot order is key order, so early termination is
    /// exact.
    fn collect(&self, lo: Key, hi: Key, limit: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let before = out.len();
        if limit == 0 {
            return 0;
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let start = dir.locate(lo.max(1));
        for mi in start..dir.nodes.len() {
            if out.len() - before >= limit {
                break;
            }
            let node = &dir.nodes[mi];
            if dir.pivots[mi] > hi && mi != start {
                break;
            }
            // Per-node consistent snapshot with bounded optimistic
            // retries, then a locked fallback.
            let node_budget = limit - (out.len() - before);
            let mut tries = 0;
            loop {
                let mark = out.len();
                let v = node.lock.read_begin();
                for i in 0..node.cap() {
                    if out.len() - mark >= node_budget {
                        break;
                    }
                    let k = node.keys[i].load(Ordering::Acquire);
                    if k != 0 && k >= lo && k <= hi {
                        out.push((k, node.vals[i].load(Ordering::Acquire)));
                    }
                }
                if node.lock.read_validate(v) {
                    break;
                }
                out.truncate(mark);
                tries += 1;
                if tries > 8 {
                    node.lock.write_lock();
                    for i in 0..node.cap() {
                        if out.len() - mark >= node_budget {
                            break;
                        }
                        let k = node.keys[i].load(Ordering::Relaxed);
                        if k != 0 && k >= lo && k <= hi {
                            out.push((k, node.vals[i].load(Ordering::Relaxed)));
                        }
                    }
                    node.lock.write_unlock();
                    break;
                }
            }
        }
        out.len() - before
    }
}

impl BulkLoad for AlexLike {
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
        let pairs: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 7, i)).collect();
        let a = AlexLike::build(&pairs);
        for &(k, v) in &pairs {
            assert_eq!(a.get(k), Some(v), "key {k}");
        }
        assert_eq!(a.get(6), None);
        assert_eq!(a.get(140_001), None);
    }

    #[test]
    fn inserts_with_shifting_and_splits() {
        let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * 10, i)).collect();
        let a = AlexLike::build(&pairs);
        for i in 1..=9_999u64 {
            a.insert(i * 10 + 1, i).unwrap();
            a.insert(i * 10 + 2, i).unwrap();
        }
        for i in 1..=9_999u64 {
            assert_eq!(a.get(i * 10 + 1), Some(i));
            assert_eq!(a.get(i * 10 + 2), Some(i));
        }
        assert_eq!(a.len(), 10_000 + 2 * 9_999);
        assert!(
            a.shifts.load(Ordering::Relaxed) > 0,
            "expected data shifting"
        );
    }

    #[test]
    fn duplicate_and_reserved() {
        let a = AlexLike::build(&[(5, 50), (9, 90)]);
        assert_eq!(a.insert(5, 1), Err(IndexError::DuplicateKey));
        assert_eq!(a.insert(0, 1), Err(IndexError::ReservedKey));
        assert_eq!(a.get(5), Some(50));
    }

    #[test]
    fn update_and_remove() {
        let pairs: Vec<(u64, u64)> = (1..=100u64).map(|i| (i * 3, i)).collect();
        let a = AlexLike::build(&pairs);
        a.update(30, 999).unwrap();
        assert_eq!(a.get(30), Some(999));
        assert_eq!(a.update(31, 1), Err(IndexError::KeyNotFound));
        assert_eq!(a.remove(30), Some(999));
        assert_eq!(a.get(30), None);
        assert_eq!(a.remove(30), None);
        // The emptied slot is reusable.
        a.insert(30, 5).unwrap();
        assert_eq!(a.get(30), Some(5));
    }

    #[test]
    fn range_matches_reference() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        for i in 1..3000u64 {
            m.insert(i * 11 % 50_000 + 1, i);
        }
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let a = AlexLike::build(&pairs);
        let mut got = Vec::new();
        a.range(100, 20_000, &mut got);
        let want: Vec<(u64, u64)> = m.range(100..=20_000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_build_accepts_inserts() {
        let a = AlexLike::build(&[]);
        assert_eq!(a.len(), 0);
        for k in 1..=2000u64 {
            a.insert(k * 2, k).unwrap();
        }
        for k in 1..=2000u64 {
            assert_eq!(a.get(k * 2), Some(k));
        }
    }

    #[test]
    fn concurrent_insert_read() {
        let pairs: Vec<(u64, u64)> = (1..=50_000u64).map(|i| (i * 8, i)).collect();
        let a = Arc::new(AlexLike::build(&pairs));
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let a = Arc::clone(&a);
            hs.push(std::thread::spawn(move || {
                for i in 0..4_000u64 {
                    let k = (t * 4_000 + i) * 8 + 3;
                    a.insert(k, k).unwrap();
                    assert_eq!(a.get(k), Some(k));
                    let bulk = ((i % 50_000) + 1) * 8;
                    assert_eq!(a.get(bulk), Some(bulk / 8));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(a.len(), 50_000 + 32_000);
    }

    #[test]
    fn churn_invariant_random_insert_remove() {
        use std::collections::HashSet;
        let stable: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * 8, i)).collect();
        let a = AlexLike::build(&stable);
        let mut rng = 0x12345u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 16
        };
        let mut present = HashSet::new();
        for step in 0..100_000u64 {
            let k = (next() % 20_000 + 1) * 8 + 1 + (next() % 3) * 2;
            if next() % 2 == 0 {
                if a.insert(k, k).is_ok() {
                    assert!(present.insert(k), "dup insert accepted {k} at {step}");
                } else {
                    assert!(present.contains(&k), "false dup {k} at {step}");
                }
            } else {
                let r = a.remove(k);
                assert_eq!(
                    r.is_some(),
                    present.remove(&k),
                    "remove mismatch {k} at {step}"
                );
            }
            if step % 25_000 == 0 {
                let mut out = Vec::new();
                a.range(1, u64::MAX, &mut out);
                for w in out.windows(2) {
                    assert!(w[0].0 < w[1].0, "unsorted/dup {w:?} at {step}");
                }
                assert_eq!(out.len(), stable.len() + present.len(), "count at {step}");
            }
        }
    }
}
