//! **FINEdex**-like baseline: LPA-trained models with fine-grained
//! per-position "level bins" absorbing insertions.
//!
//! Mechanisms reproduced from FINEdex (Li et al., VLDB 2021):
//!
//! * models come from the **Learning Probe Algorithm** ([`learned::lpa`])
//!   — many more models than GPL for the same bound (Fig 3(a));
//! * reads do an error-bounded secondary search in the model's sorted
//!   array (the prediction-error cost of Table I);
//! * each array position owns a tiny **level bin** (a small sorted
//!   buffer behind its own lock) receiving the inserts that fall between
//!   the position and its successor — fine-grained enough that writers
//!   rarely collide (FINEdex's concurrency story).
//!
//! Simplification: bins grow as sorted vectors rather than cascading
//! fixed-size levels; same asymptotics for the evaluated sizes.

use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value};
use learned::search::{bounded_search, bounded_search_pos};
use learned::{lpa_segment, LinearModel};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// LPA error bound (the paper suggests small bounds, e.g. 32-64).
const DEFAULT_EPS: f64 = 32.0;
/// LPA probe window.
const PROBE: usize = 32;

type Bin = Mutex<Vec<(u64, u64)>>;

struct FModel {
    first_key: u64,
    keys: Vec<u64>,
    vals: Vec<AtomicU64>,
    dead: Vec<AtomicU64>,
    model: LinearModel,
    err: usize,
    /// One bin per position plus one leading bin for keys below
    /// `keys[0]`.
    bins: Vec<OnceLock<Box<Bin>>>,
}

impl FModel {
    fn build(pairs: &[(u64, u64)], model: LinearModel) -> Self {
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let vals: Vec<AtomicU64> = pairs.iter().map(|p| AtomicU64::new(p.1)).collect();
        let err = model.max_error(&keys).ceil() as usize;
        let dead = (0..keys.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        let bins = (0..keys.len() + 1).map(|_| OnceLock::new()).collect();
        Self {
            first_key: keys.first().copied().unwrap_or(1),
            keys,
            vals,
            dead,
            model,
            err,
            bins,
        }
    }

    #[inline]
    fn is_dead(&self, i: usize) -> bool {
        self.dead[i / 64].load(Ordering::Acquire) >> (i % 64) & 1 == 1
    }

    /// Mark position `i` dead. True only for the call that flipped the
    /// bit, so of two racing removes exactly one wins.
    #[inline]
    fn kill(&self, i: usize) -> bool {
        let bit = 1 << (i % 64);
        self.dead[i / 64].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let pred = self.model.predict_clamped(key, self.keys.len());
        bounded_search(&self.keys, key, pred, self.err)
    }

    /// Bin index for a key absent from the array: 0 = before keys[0],
    /// i+1 = between keys[i] and keys[i+1].
    fn bin_for(&self, key: u64) -> usize {
        if self.keys.is_empty() {
            return 0;
        }
        let pred = self.model.predict_clamped(key, self.keys.len());
        match bounded_search_pos(&self.keys, key, pred, self.err) {
            Ok(i) => i + 1,
            Err(ins) => {
                // The bounded window can miss for far-out-of-range keys;
                // validate and fall back to a full binary search.
                let valid = (ins == 0 || self.keys[ins - 1] < key)
                    && (ins == self.keys.len() || self.keys[ins] > key);
                if valid {
                    ins
                } else {
                    self.keys.partition_point(|&k| k < key)
                }
            }
        }
    }

    fn bin(&self, i: usize) -> &Bin {
        self.bins[i].get_or_init(|| Box::new(Mutex::new(Vec::new())))
    }

    fn memory(&self) -> usize {
        let mut total = std::mem::size_of::<Self>()
            + self.keys.len() * 16
            + self.dead.len() * 8
            + self.bins.len() * std::mem::size_of::<OnceLock<Box<Bin>>>();
        for b in &self.bins {
            if let Some(bin) = b.get() {
                total += std::mem::size_of::<Bin>() + bin.lock().capacity() * 16;
            }
        }
        total
    }
}

/// The FINEdex-like baseline.
pub struct FinedexLike {
    pivots: Vec<u64>,
    models: Vec<FModel>,
    len: AtomicUsize,
}

impl FinedexLike {
    /// Build over sorted unique pairs with the default LPA settings.
    pub fn build(pairs: &[(u64, u64)]) -> Self {
        Self::build_with_eps(pairs, DEFAULT_EPS)
    }

    /// Build with an explicit LPA error bound (the Fig 3(b) sweep).
    pub fn build_with_eps(pairs: &[(u64, u64)], eps: f64) -> Self {
        if pairs.is_empty() {
            let m = FModel::build(&[], LinearModel::point(1));
            return Self {
                pivots: vec![1],
                models: vec![m],
                len: AtomicUsize::new(0),
            };
        }
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let segments = lpa_segment(&keys, eps, PROBE);
        let mut models = Vec::with_capacity(segments.len());
        for seg in &segments {
            models.push(FModel::build(
                &pairs[seg.start..seg.start + seg.len],
                seg.model,
            ));
        }
        let pivots = models.iter().map(|m| m.first_key).collect();
        Self {
            pivots,
            models,
            len: AtomicUsize::new(pairs.len()),
        }
    }

    fn locate(&self, key: u64) -> &FModel {
        let i = match self.pivots.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        &self.models[i]
    }

    /// Number of LPA models (Fig 3(a) metric).
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Maximum model error bound (Fig 3(b) x-axis verification).
    pub fn max_err(&self) -> usize {
        self.models.iter().map(|m| m.err).max().unwrap_or(0)
    }
}

impl ConcurrentIndex for FinedexLike {
    fn get(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let m = self.locate(key);
        if let Some(i) = m.find(key) {
            if !m.is_dead(i) {
                return Some(m.vals[i].load(Ordering::Acquire));
            }
            // Dead array position: a re-inserted key lives in the level
            // bin (insert falls through the tombstone), so the probe
            // below must still run.
        }
        // Level-bin probe.
        let b = m.bin_for(key);
        if let Some(bin) = m.bins[b].get() {
            let g = bin.lock();
            if let Ok(p) = g.binary_search_by_key(&key, |e| e.0) {
                return Some(g[p].1);
            }
        }
        None
    }

    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        crate::batch::get_batch_grouped(self, keys, out, |group| {
            // Warm each key's model header (first_key, bound, the key
            // array pointer the bounded search dereferences first).
            for &k in group {
                if k == 0 {
                    continue;
                }
                prefetch::prefetch_read_ref(self.locate(k));
                obs::incr!(Counter::BaselineBatchPrefetch);
            }
        });
    }

    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let m = self.locate(key);
        if let Some(i) = m.find(key) {
            if !m.is_dead(i) {
                return Err(IndexError::DuplicateKey);
            }
        }
        let b = m.bin_for(key);
        let mut g = m.bin(b).lock();
        match g.binary_search_by_key(&key, |e| e.0) {
            Ok(_) => Err(IndexError::DuplicateKey),
            Err(p) => {
                g.insert(p, (key, value));
                self.len.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    fn update(&self, key: Key, value: Value) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let m = self.locate(key);
        if let Some(i) = m.find(key) {
            if !m.is_dead(i) {
                m.vals[i].store(value, Ordering::Release);
                return Ok(());
            }
        }
        let b = m.bin_for(key);
        if let Some(bin) = m.bins[b].get() {
            let mut g = bin.lock();
            if let Ok(p) = g.binary_search_by_key(&key, |e| e.0) {
                g[p].1 = value;
                return Ok(());
            }
        }
        Err(IndexError::KeyNotFound)
    }

    fn remove(&self, key: Key) -> Option<Value> {
        if key == 0 {
            return None;
        }
        let m = self.locate(key);
        if let Some(i) = m.find(key) {
            if m.kill(i) {
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(m.vals[i].load(Ordering::Acquire));
            }
        }
        let b = m.bin_for(key);
        if let Some(bin) = m.bins[b].get() {
            let mut g = bin.lock();
            if let Ok(p) = g.binary_search_by_key(&key, |e| e.0) {
                let (_, v) = g.remove(p);
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(v);
            }
        }
        None
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        self.collect(lo, hi, usize::MAX, out)
    }

    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.collect(lo, u64::MAX, n, out)
    }

    fn memory_usage(&self) -> usize {
        self.models.iter().map(|m| m.memory()).sum::<usize>()
            + self.pivots.len() * 8
            + std::mem::size_of::<Self>()
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "FINEdex"
    }
}

impl FinedexLike {
    /// Ordered, bounded collection over `[lo, hi]`, at most `limit`
    /// entries. Positions and their bins interleave in key order, so the
    /// walk can stop early (collecting a small surplus to absorb
    /// concurrent bin inserts, then sort-truncating).
    fn collect(&self, lo: Key, hi: Key, limit: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let before = out.len();
        if limit == 0 {
            return 0;
        }
        let budget = limit.saturating_mul(2).max(limit.saturating_add(8));
        let lo = lo.max(1);
        let start = match self.pivots.binary_search(&lo) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        'models: for mi in start..self.models.len() {
            if out.len() - before >= budget {
                break;
            }
            if self.pivots[mi] > hi && mi != start {
                break;
            }
            let m = &self.models[mi];
            // Walk positions in order, interleaving each position's bin
            // *before* its key (bin i holds keys < keys[i]).
            let emit_bin = |i: usize, out: &mut Vec<(Key, Value)>| {
                if let Some(bin) = m.bins[i].get() {
                    let g = bin.lock();
                    for &(k, v) in g.iter() {
                        if k >= lo && k <= hi {
                            out.push((k, v));
                        }
                    }
                }
            };
            emit_bin(0, out);
            // Start the position walk at the first in-window key instead
            // of the model head. Bin `first` holds keys strictly between
            // keys[first-1] and keys[first], which can already be >= lo,
            // and the walk below only emits bins first+1.. — emit it here
            // (first == 0 is the leading bin, emitted above).
            let first = m.keys.partition_point(|&k| k < lo);
            if first > 0 {
                emit_bin(first, out);
            }
            for i in first..m.keys.len() {
                let k = m.keys[i];
                if k > hi {
                    break;
                }
                if k >= lo && !m.is_dead(i) {
                    out.push((k, m.vals[i].load(Ordering::Acquire)));
                }
                emit_bin(i + 1, out);
                if out.len() - before >= budget {
                    break 'models;
                }
            }
        }
        // Bins at range edges may contribute out-of-window entries that
        // we filtered; ordering is preserved by construction, but guard
        // against concurrent bin inserts with a sort. Dedup too: a key
        // removed from the array and re-inserted mid-scan lands in the
        // bin *after* its position, so one walk can see both copies.
        out[before..].sort_unstable_by_key(|p| p.0);
        let mut keep = before;
        for i in before..out.len() {
            if keep == before || out[keep - 1].0 != out[i].0 {
                out[keep] = out[i];
                keep += 1;
            }
        }
        out.truncate(keep.min(before + limit));
        out.len() - before
    }
}

impl BulkLoad for FinedexLike {
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
        let pairs: Vec<(u64, u64)> = (1..=30_000u64).map(|i| (i * 6, i)).collect();
        let f = FinedexLike::build(&pairs);
        for &(k, v) in &pairs {
            assert_eq!(f.get(k), Some(v), "key {k}");
        }
        assert_eq!(f.get(5), None);
    }

    #[test]
    fn inserts_land_in_bins() {
        let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * 10, i)).collect();
        let f = FinedexLike::build(&pairs);
        for i in 1..=9_000u64 {
            f.insert(i * 10 + 7, i).unwrap();
        }
        for i in 1..=9_000u64 {
            assert_eq!(f.get(i * 10 + 7), Some(i), "key {}", i * 10 + 7);
        }
        assert_eq!(f.len(), 19_000);
    }

    #[test]
    fn boundary_inserts_below_first_and_above_last() {
        let pairs: Vec<(u64, u64)> = (100..=200u64).map(|k| (k * 100, k)).collect();
        let f = FinedexLike::build(&pairs);
        f.insert(5, 55).unwrap();
        f.insert(1_000_000, 66).unwrap();
        assert_eq!(f.get(5), Some(55));
        assert_eq!(f.get(1_000_000), Some(66));
    }

    #[test]
    fn duplicates_everywhere() {
        let f = FinedexLike::build(&[(10, 1), (20, 2)]);
        assert_eq!(f.insert(10, 3), Err(IndexError::DuplicateKey));
        f.insert(15, 4).unwrap();
        assert_eq!(f.insert(15, 5), Err(IndexError::DuplicateKey));
    }

    #[test]
    fn update_remove_both_layers() {
        let f = FinedexLike::build(&[(10, 1), (20, 2)]);
        f.insert(15, 3).unwrap();
        f.update(10, 11).unwrap();
        f.update(15, 31).unwrap();
        assert_eq!(f.get(10), Some(11));
        assert_eq!(f.get(15), Some(31));
        assert_eq!(f.remove(10), Some(11));
        assert_eq!(f.remove(15), Some(31));
        assert_eq!(f.get(10), None);
        assert_eq!(f.get(15), None);
        assert_eq!(f.update(10, 1), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn remove_then_reinsert_is_readable_again() {
        // Regression: a removed array key leaves a tombstone; the
        // re-insert lands in the level bin, and get must fall through
        // the tombstone to find it there.
        let f = FinedexLike::build(&[(10, 1), (20, 2), (30, 3)]);
        assert_eq!(f.remove(20), Some(2));
        assert_eq!(f.get(20), None);
        f.insert(20, 22).unwrap();
        assert_eq!(f.get(20), Some(22));
        f.update(20, 23).unwrap();
        assert_eq!(f.get(20), Some(23));
        assert_eq!(f.remove(20), Some(23));
        assert_eq!(f.get(20), None);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn range_interleaves_bins_correctly() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        for i in 1..=2_000u64 {
            m.insert(i * 8, i);
        }
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let f = FinedexLike::build(&pairs);
        for i in 1..=700u64 {
            f.insert(i * 8 + 3, i).unwrap();
            m.insert(i * 8 + 3, i);
        }
        let mut got = Vec::new();
        f.range(20, 3_000, &mut got);
        let want: Vec<(u64, u64)> = m.range(20..=3_000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lpa_produces_many_models_on_hard_data() {
        let pairs: Vec<(u64, u64)> = (1..=50_000u64).map(|i| (i * i / 7 + i, i)).collect();
        let mut dedup = pairs;
        dedup.dedup_by_key(|p| p.0);
        let f = FinedexLike::build(&dedup);
        assert!(f.num_models() > 10, "models {}", f.num_models());
    }

    #[test]
    fn concurrent_bin_inserts() {
        use std::sync::Arc;
        let pairs: Vec<(u64, u64)> = (1..=40_000u64).map(|i| (i * 16, i)).collect();
        let f = Arc::new(FinedexLike::build(&pairs));
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let f = Arc::clone(&f);
            hs.push(std::thread::spawn(move || {
                for i in 0..3_000u64 {
                    let k = (t * 3_000 + i) * 16 + 5;
                    f.insert(k, k).unwrap();
                    assert_eq!(f.get(k), Some(k));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(f.len(), 40_000 + 24_000);
    }

    #[test]
    fn racing_removes_of_one_key_succeed_once() {
        // Two threads remove the same array-resident keys in lockstep:
        // each key must be handed out exactly once.
        use std::sync::{Arc, Barrier};
        let n = 200_000u64;
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (i * 4, i)).collect();
        for _ in 0..8 {
            let f = Arc::new(FinedexLike::build(&pairs));
            let start = Arc::new(Barrier::new(2));
            let removed: usize = (0..2)
                .map(|_| {
                    let (f, start) = (Arc::clone(&f), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        (1..=n).filter(|i| f.remove(i * 4).is_some()).count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum();
            assert_eq!(removed, n as usize, "a key was removed twice");
            assert_eq!(f.len(), 0);
        }
    }

    #[test]
    fn empty_build_bootstraps() {
        let f = FinedexLike::build(&[]);
        for k in 1..=3_000u64 {
            f.insert(k * 2, k).unwrap();
        }
        for k in 1..=3_000u64 {
            assert_eq!(f.get(k * 2), Some(k));
        }
    }
}
