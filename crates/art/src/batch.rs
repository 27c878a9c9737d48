//! AMAC-style batched lookups: interleaved optimistic descents.
//!
//! A scalar [`Art::get`] serializes its cache misses — each child pointer
//! chase stalls until the node's line arrives. The batch engine instead
//! keeps a small ring of in-flight lookups, each represented by a
//! [`BatchCursor`] that advances **one node per step**: the step issues a
//! software prefetch for the next child and returns, and the driver moves
//! on to another key, so the misses of all in-flight keys overlap
//! (memory-level parallelism à la AMAC, Kocberber et al., and the
//! interleaved probing of the "Benchmarking Learned Indexes" study).
//!
//! Each step replays exactly one hop of `jump::descend_get` under the
//! same optimistic-lock-coupling protocol: snapshot the node's version,
//! re-validate the parent snapshot taken last step, locate the child,
//! re-validate, couple. A failed validation restarts *that key only*
//! from the root, charged against a per-key [`crate::contention`] budget
//! whose exhaustion escalates to the scalar path (which owns the
//! guaranteed-progress pessimistic descent). Results are therefore
//! per-key linearizable: every outcome is one a scalar `get` interleaved
//! at the same instants could have produced.

use crate::node::{self, NodePtr};
use crate::olc::Version;
use crate::tree::Art;
use crossbeam_epoch as epoch;
use std::sync::atomic::Ordering;

/// Width of the in-flight ring in [`Art::get_batch_amac`]. Eight keys
/// cover typical L2 miss latency (~10-20 ns of work per step vs ~40+ ns
/// stalls) without spilling cursor state out of registers/L1.
pub const RING_WIDTH: usize = 8;

/// One in-flight batched lookup: the state of a paused optimistic
/// descent between two [`Art::batch_step`] calls.
#[derive(Debug)]
pub struct BatchCursor {
    key: u64,
    /// Current node (possibly a tagged leaf); `0` = empty tree.
    p: NodePtr,
    /// Key depth in bytes at `p`.
    depth: usize,
    /// Lock-coupling snapshot of the parent: re-validated after the
    /// current node's version is in hand, exactly like the scalar
    /// descent.
    parent: Option<(NodePtr, Version)>,
    retry: resilience::Retry,
}

/// Outcome of one [`Art::batch_step`].
#[derive(Debug, PartialEq, Eq)]
pub enum BatchStep {
    /// The cursor advanced one hop (a prefetch for the next node is in
    /// flight); step it again after servicing other keys.
    Pending,
    /// The lookup finished with this result.
    Done(Option<u64>),
    /// The per-key retry budget ran out; the caller must finish this key
    /// through the scalar path (`Art::get`), which escalates to the
    /// pessimistic descent and guarantees progress.
    Escalate,
}

impl Art {
    /// Start a batched lookup for `key` from the root.
    ///
    /// Loads the root pointer and issues a prefetch for it, so the first
    /// [`Art::batch_step`] (which dereferences the node) should be
    /// separated from this call by work on other keys.
    #[inline]
    pub fn batch_cursor(&self, key: u64) -> BatchCursor {
        let root = self.root.load(Ordering::Acquire);
        prefetch_node(root);
        BatchCursor {
            key,
            p: root,
            depth: 0,
            parent: None,
            retry: resilience::Retry::seeded(key),
        }
    }

    /// Start a batched lookup for `key` from `start`, a fast-pointer
    /// node. Falls back to a root cursor if the node is unusable
    /// (null/leaf/obsolete) — the same de-optimization as
    /// [`Art::get_from`], minus its entry metrics (the caller records
    /// the handoff split itself).
    ///
    /// # Safety
    /// Same contract as [`Art::get_from`]: `start` must come from
    /// [`Art::lca_node`] on this tree, be kept current through the
    /// [`crate::ReplaceHook`] protocol, and cover the searched key; the
    /// caller must hold one epoch pin from before reading the slot until
    /// the cursor is finished.
    #[inline]
    pub unsafe fn batch_cursor_from(&self, start: NodePtr, key: u64) -> BatchCursor {
        if start == 0 || node::is_leaf(start) {
            return self.batch_cursor(key);
        }
        let hdr = node::header(start);
        if hdr.version.is_obsolete() {
            return self.batch_cursor(key);
        }
        prefetch_node(start);
        BatchCursor {
            key,
            p: start,
            depth: hdr.match_level(),
            parent: None,
            retry: resilience::Retry::seeded(key),
        }
    }

    /// Advance `cur` by one hop of the optimistic descent.
    ///
    /// # Safety
    /// The caller must hold one epoch pin continuously from the cursor's
    /// creation until it reports [`BatchStep::Done`] or
    /// [`BatchStep::Escalate`] — every `NodePtr` the cursor holds
    /// (current and coupled parent) is kept dereferenceable only by that
    /// pin.
    #[inline]
    pub unsafe fn batch_step(&self, cur: &mut BatchCursor) -> BatchStep {
        testkit::chaos_point!("batch.stage");
        let p = cur.p;
        if p == 0 {
            return BatchStep::Done(None);
        }
        if node::is_leaf(p) {
            let leaf = node::leaf_ref(p);
            let value = (leaf.key == cur.key).then(|| leaf.value.load(Ordering::Acquire));
            if let Some((pp, pv)) = cur.parent {
                if !node::header(pp).version.validate(pv) {
                    return self.batch_restart(cur);
                }
            }
            return BatchStep::Done(value);
        }
        let hdr = node::header(p);
        let v = match hdr.version.read_lock_spin() {
            Some(v) => v,
            None => return self.batch_restart(cur),
        };
        // Lock coupling: the parent snapshot is only trusted once the
        // child's version is in hand (see `jump::descend_get`).
        if let Some((pp, pv)) = cur.parent {
            if !node::header(pp).version.validate(pv) {
                return self.batch_restart(cur);
            }
        }
        let (prefix, plen, _) = hdr.prefix();
        for i in 0..plen {
            if cur.depth + i >= 8 || prefix[i] != node::key_byte(cur.key, cur.depth + i) {
                return if hdr.version.validate(v) {
                    BatchStep::Done(None)
                } else {
                    self.batch_restart(cur)
                };
            }
        }
        let depth = cur.depth + plen;
        if depth >= 8 {
            return if hdr.version.validate(v) {
                BatchStep::Done(None)
            } else {
                self.batch_restart(cur)
            };
        }
        // Optimistic read section — the racing SIMD search result is
        // discarded unless the validate just below succeeds (§15).
        let child = node::find_child_racing(p, node::key_byte(cur.key, depth));
        if !hdr.version.validate(v) {
            return self.batch_restart(cur);
        }
        if child == 0 {
            return BatchStep::Done(None);
        }
        prefetch_node(child);
        obs::incr!(Counter::ArtBatchPrefetch);
        cur.parent = Some((p, v));
        cur.p = child;
        cur.depth = depth + 1;
        BatchStep::Pending
    }

    /// A version conflict on `cur`: charge the per-key budget and either
    /// escalate or restart the descent from the root.
    #[cold]
    fn batch_restart(&self, cur: &mut BatchCursor) -> BatchStep {
        obs::incr!(Counter::ArtBatchRestart);
        if cur.retry.wait_or_escalate_global(crate::count_contention) {
            return BatchStep::Escalate;
        }
        let root = self.root.load(Ordering::Acquire);
        prefetch_node(root);
        cur.p = root;
        cur.depth = 0;
        cur.parent = None;
        BatchStep::Pending
    }

    /// Batched point lookup over the AMAC ring: `out[i] = get(keys[i])`,
    /// with up to [`RING_WIDTH`] descents in flight at once. This is the
    /// [`index_api::ConcurrentIndex::get_batch`] implementation for the
    /// standalone ART baseline.
    pub fn get_batch_amac(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        obs::add!(Counter::ArtBatchKeys, keys.len());
        // One pin for the whole batch: every cursor's node pointers stay
        // dereferenceable until the ring drains.
        let _guard = epoch::pin();
        let mut next = 0usize;
        let mut ring: Vec<(usize, BatchCursor)> = Vec::with_capacity(RING_WIDTH.min(keys.len()));
        while next < keys.len() && ring.len() < RING_WIDTH {
            ring.push((next, self.batch_cursor(keys[next])));
            next += 1;
        }
        let mut i = 0usize;
        while !ring.is_empty() {
            if i >= ring.len() {
                i = 0;
            }
            let (ki, cur) = &mut ring[i];
            // SAFETY: `_guard` pins the epoch for every cursor's lifetime.
            let step = unsafe { self.batch_step(cur) };
            match step {
                BatchStep::Pending => i += 1,
                done_or_escalate => {
                    let ki = *ki;
                    out[ki] = match done_or_escalate {
                        BatchStep::Done(v) => v,
                        _ => Art::get(self, keys[ki]),
                    };
                    // Refill the slot so a fresh key's first dereference
                    // happens a full ring revolution after its prefetch.
                    if next < keys.len() {
                        ring[i] = (next, self.batch_cursor(keys[next]));
                        next += 1;
                        i += 1;
                    } else {
                        ring.swap_remove(i);
                    }
                }
            }
        }
    }
}

/// Prefetch the allocation behind a (possibly leaf-tagged) node pointer.
#[inline(always)]
fn prefetch_node(p: NodePtr) {
    if p != 0 {
        prefetch::prefetch_read((p & !1) as *const u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Art {
        let t = Art::new();
        // Clustered + scattered keys so descents of many depths appear.
        let base = 0x0102_0304_0000_0000u64;
        for i in 1..=512u64 {
            t.insert(base + i * 3, i);
        }
        for i in 1..=64u64 {
            t.insert(i << 48 | 0xAB, i + 1000);
        }
        t
    }

    #[test]
    fn batch_matches_scalar_gets() {
        let t = sample_tree();
        let base = 0x0102_0304_0000_0000u64;
        let keys: Vec<u64> = (0..200u64)
            .map(|i| match i % 4 {
                0 => base + (i / 4) * 3 + 3,    // present (cluster)
                1 => (i % 64 + 1) << 48 | 0xAB, // present (scattered)
                2 => base + (i / 4) * 3 + 4,    // absent (near miss)
                _ => 0xFFFF_FFFF_0000_0000 | i, // absent (far)
            })
            .collect();
        let mut out = vec![None; keys.len()];
        t.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], t.get(k), "key {k:#x}");
        }
    }

    #[test]
    fn batch_width_edge_cases() {
        let t = sample_tree();
        let base = 0x0102_0304_0000_0000u64;
        for width in [0, 1, RING_WIDTH - 1, RING_WIDTH, RING_WIDTH + 3] {
            let keys: Vec<u64> = (1..=width as u64).map(|i| base + i * 3).collect();
            let mut out = vec![None; width];
            t.get_batch_amac(&keys, &mut out);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i], t.get(k), "width {width}, key {k:#x}");
            }
        }
    }

    #[test]
    fn batch_on_empty_tree() {
        let t = Art::new();
        let mut out = vec![Some(7); 3];
        t.get_batch_amac(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    fn cursor_from_fast_pointer_finds_subtree_keys() {
        let t = sample_tree();
        let base = 0x0102_0304_0000_0000u64;
        let (node, _) = t.lca_node(base + 3, base + 512 * 3).expect("lca");
        let _guard = crossbeam_epoch::pin();
        // SAFETY: pointer fresh from lca_node under the pin; no mutation.
        unsafe {
            let mut cur = t.batch_cursor_from(node, base + 33 * 3);
            loop {
                match t.batch_step(&mut cur) {
                    BatchStep::Pending => {}
                    BatchStep::Done(v) => {
                        assert_eq!(v, Some(33));
                        break;
                    }
                    BatchStep::Escalate => panic!("uncontended descent escalated"),
                }
            }
        }
    }
}
