//! Fast-pointer entry points: operations that start from an intermediate
//! node instead of the root, plus LCA resolution and buffer-slot
//! registration (the ART side of the paper's fast pointer buffer,
//! §III-C).
//!
//! # Pointer validity contract
//!
//! `NodePtr`s handed out by [`Art::lca_node`] stay dereferenceable for as
//! long as they are registered in a buffer slot via
//! [`Art::try_set_buffer_slot`]: whenever the tree replaces or unlinks a
//! node carrying a buffer slot, it updates the slot through the
//! [`crate::ReplaceHook`] *before* retiring the allocation, and retirement
//! itself is epoch-deferred. A jump that still races a replacement lands
//! on a node marked obsolete and reports [`FromResult::Fallback`], never a
//! dangling dereference — provided the caller (1) pins an epoch before
//! reading the slot and (2) keeps the slot updated from the hook.

use crate::node::{self, NodePtr, NO_SLOT};
use crate::tree::{split_depth, Art, FromResult, SetSlotResult};
use crossbeam_epoch as epoch;
use std::sync::atomic::Ordering;

impl Art {
    /// Point lookup from the root, also reporting the number of nodes
    /// traversed (the Fig 10(a) "average lookup length" metric).
    pub fn get_with_depth(&self, key: u64) -> (Option<u64>, u32) {
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        loop {
            let root = self.root.load(Ordering::Acquire);
            if let Ok(r) = descend_get(root, key, 0) {
                return r;
            }
            if retry.wait_or_escalate_global(crate::count_contention) {
                // Guaranteed-progress fallback: pessimistic descent.
                let (leafp, hops) = self.pessimistic_leaf(key, &guard);
                // SAFETY: pinned epoch (see `Art::get_pessimistic`).
                let v = leafp.map(|lp| unsafe { node::leaf_ref(lp) }.value.load(Ordering::Acquire));
                return (v, hops);
            }
        }
    }

    /// Point lookup resuming from `start` (a pointer maintained by the
    /// fast-pointer buffer).
    ///
    /// # Safety
    /// `start` must be a pointer obtained from [`Art::lca_node`] on this
    /// tree and kept current through the [`crate::ReplaceHook`] protocol
    /// (see the module docs), and the searched key must lie within the key
    /// interval the pointer was registered for. The caller must treat
    /// [`FromResult::Fallback`] by retrying from the root.
    pub unsafe fn get_from(&self, start: NodePtr, key: u64) -> FromResult<Option<u64>> {
        let _guard = epoch::pin();
        if start == 0 || node::is_leaf(start) {
            obs::incr!(Counter::ArtJumpFallback);
            return FromResult::Fallback;
        }
        let hdr = node::header(start);
        if hdr.version.is_obsolete() {
            obs::incr!(Counter::ArtJumpFallback);
            return FromResult::Fallback;
        }
        // Widen the gap between the obsolete check and the descent — a
        // replacement landing here must still end in Fallback or a valid
        // read, never a torn traversal.
        testkit::chaos_point!("jump.get_from.entry");
        let depth = hdr.match_level();
        // Retry locally on version conflicts; fall back if the node dies
        // or the retry budget runs out (the root path has its own
        // guaranteed-progress escalation).
        let mut retry = resilience::Retry::seeded(key);
        loop {
            if hdr.version.is_obsolete() {
                obs::incr!(Counter::ArtJumpFallback);
                return FromResult::Fallback;
            }
            match descend_get(start, key, depth) {
                Ok((v, d)) => {
                    obs::incr!(Counter::ArtJumpResume);
                    return FromResult::Done(v, d);
                }
                Err(()) => {
                    if retry.wait_or_escalate_global(crate::count_contention) {
                        obs::incr!(Counter::ArtJumpFallback);
                        return FromResult::Fallback;
                    }
                }
            }
        }
    }

    /// Insert resuming from `start`. Returns `Done(true)` if inserted,
    /// `Done(false)` if the key existed, or `Fallback` when the operation
    /// would need `start`'s parent (prefix extraction or expansion at the
    /// jump node itself) — the caller then inserts from the root.
    ///
    /// # Safety
    /// Same contract as [`Art::get_from`].
    pub unsafe fn insert_from(&self, start: NodePtr, key: u64, value: u64) -> FromResult<bool> {
        let guard = epoch::pin();
        if start == 0 || node::is_leaf(start) {
            obs::incr!(Counter::ArtJumpFallback);
            return FromResult::Fallback;
        }
        let hdr = node::header(start);
        // Budget the local retries; on exhaustion de-optimize to a root
        // insert (which carries its own escalation discipline).
        let mut retry = resilience::Retry::seeded(key);
        macro_rules! retry_or_fallback {
            () => {{
                if retry.wait_or_escalate_global(crate::count_contention) {
                    obs::incr!(Counter::ArtJumpFallback);
                    return FromResult::Fallback;
                }
                continue;
            }};
        }
        loop {
            if hdr.version.is_obsolete() {
                obs::incr!(Counter::ArtJumpFallback);
                return FromResult::Fallback;
            }
            // The descend-insert needs the parent when a structural change
            // hits `start` itself. Detect those cases up front: prefix
            // mismatch at start, or start full without a child for the
            // next byte.
            let v = match hdr.version.read_lock_spin() {
                Some(v) => v,
                None => {
                    obs::incr!(Counter::ArtJumpFallback);
                    return FromResult::Fallback;
                }
            };
            let depth = hdr.match_level();
            let (prefix, plen, _) = hdr.prefix();
            let mut mismatch = false;
            for i in 0..plen {
                if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                    mismatch = true;
                    break;
                }
            }
            if mismatch {
                if hdr.version.validate(v) {
                    obs::incr!(Counter::ArtJumpFallback);
                    return FromResult::Fallback;
                }
                retry_or_fallback!();
            }
            let disc = depth + plen;
            if disc >= 8 {
                obs::incr!(Counter::ArtJumpFallback);
                return FromResult::Fallback;
            }
            let b = node::key_byte(key, disc);
            // Optimistic read section — the racing SIMD search result is
            // discarded unless the validate just below succeeds (§15).
            let child = node::find_child_racing(start, b);
            let full = node::is_full(start);
            if !hdr.version.validate(v) {
                retry_or_fallback!();
            }
            if child == 0 && full {
                // Expansion at the jump node needs its parent.
                obs::incr!(Counter::ArtJumpFallback);
                return FromResult::Fallback;
            }
            match self.descend_insert(start, key, value, false, &guard) {
                Ok(inserted) => {
                    obs::incr!(Counter::ArtJumpResume);
                    return FromResult::Done(inserted, 0);
                }
                Err(()) => retry_or_fallback!(),
            }
        }
    }

    /// Remove resuming from `start`. `Done(Some(v))` if removed.
    ///
    /// The jump node itself is never merged away by this call (a removal
    /// that would restructure `start` falls back), keeping the buffer
    /// contract simple.
    ///
    /// # Safety
    /// Same contract as [`Art::get_from`].
    pub unsafe fn remove_from(&self, start: NodePtr, key: u64) -> FromResult<Option<u64>> {
        // Structural removals are rare in the evaluated workloads; route
        // through the root which handles all cases.
        let _ = start;
        let _ = key;
        FromResult::Fallback
    }

    /// Find the deepest node whose subtree contains both `k1` and `k2`
    /// (their lowest common ancestor), as the paper's fast-pointer
    /// construction does with the first keys of adjacent GPL models.
    /// Returns the node pointer and its depth (`match_level`), or `None`
    /// if the tree is empty / rooted at a leaf.
    ///
    /// The returned pointer is only safe to *store* (and later jump
    /// through) if the caller immediately registers it with
    /// [`Art::try_set_buffer_slot`]; see the module docs.
    pub fn lca_node(&self, k1: u64, k2: u64) -> Option<(NodePtr, usize)> {
        let _guard = epoch::pin();
        // Restart budget: exhausting it returns `None`, a pure
        // de-optimization (the caller simply registers no fast pointer
        // for this model boundary and jumps start from the root).
        let mut retry = resilience::Retry::seeded(k1 ^ k2.rotate_left(32));
        let mut first = true;
        'restart: loop {
            if !first && retry.wait_or_escalate_global(crate::count_contention) {
                return None;
            }
            first = false;
            let mut p = self.root.load(Ordering::Acquire);
            if p == 0 || node::is_leaf(p) {
                return None;
            }
            let mut depth = 0usize;
            let mut best: Option<(NodePtr, usize)> = None;
            let mut coupled: Option<(&crate::olc::VersionLock, u64)> = None;
            loop {
                if p == 0 || node::is_leaf(p) {
                    return best;
                }
                // SAFETY: epoch pinned.
                let hdr = unsafe { node::header(p) };
                let v = match hdr.version.read_lock_spin() {
                    Some(v) => v,
                    None => continue 'restart,
                };
                // Lock coupling (see `Art::get`).
                if let Some((plock, pv)) = coupled {
                    if !plock.validate(pv) {
                        continue 'restart;
                    }
                }
                let (prefix, plen, _) = hdr.prefix();
                // Both keys must match the node's full prefix for the node
                // to stay on both paths.
                for i in 0..plen {
                    let pos = depth + i;
                    if pos >= 8
                        || prefix[i] != node::key_byte(k1, pos)
                        || prefix[i] != node::key_byte(k2, pos)
                    {
                        return if hdr.version.validate(v) {
                            best
                        } else {
                            continue 'restart;
                        };
                    }
                }
                let disc = depth + plen;
                if disc >= 8 {
                    return if hdr.version.validate(v) {
                        best
                    } else {
                        continue 'restart;
                    };
                }
                let b1 = node::key_byte(k1, disc);
                let b2 = node::key_byte(k2, disc);
                if !hdr.version.validate(v) {
                    continue 'restart;
                }
                // This node is on both paths.
                best = Some((p, depth));
                if b1 != b2 {
                    return best;
                }
                // SAFETY: epoch pinned; optimistic read section — result
                // discarded unless the validate below succeeds (§15).
                let child = unsafe { node::find_child_racing(p, b1) };
                if !hdr.version.validate(v) {
                    continue 'restart;
                }
                coupled = Some((&hdr.version, v));
                p = child;
                depth = disc + 1;
            }
        }
    }

    /// Register fast-pointer buffer slot `slot` on `node` (which must have
    /// come from [`Art::lca_node`]). Serialized against node replacement
    /// by the node's write lock, so a successful install guarantees every
    /// later replacement fires the hook for this slot.
    ///
    /// # Safety
    /// `node` must be a pointer returned by [`Art::lca_node`] on this tree
    /// while the caller holds an epoch pin that has not been released
    /// since.
    pub unsafe fn try_set_buffer_slot(&self, node: NodePtr, slot: u32) -> SetSlotResult {
        debug_assert!(node != 0 && !node::is_leaf(node));
        let hdr = node::header(node);
        if !hdr.version.lock() {
            return SetSlotResult::Obsolete;
        }
        let res = match hdr.buffer_slot.compare_exchange(
            NO_SLOT,
            slot,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => SetSlotResult::Installed,
            Err(existing) => SetSlotResult::Merged(existing),
        };
        hdr.version.unlock();
        res
    }

    /// First differing byte position of two distinct keys — exposed for
    /// the fast-pointer construction logic and tests.
    pub fn diverge_depth(k1: u64, k2: u64) -> usize {
        split_depth(k1, k2, 0)
    }
}

/// Optimistic descend-get from `p` at `depth`; counts traversed nodes.
fn descend_get(mut p: NodePtr, key: u64, mut depth: usize) -> Result<(Option<u64>, u32), ()> {
    let mut hops = 0u32;
    // Lock coupling: re-validate the previous node once the next node's
    // version is in hand (see `Art::get`).
    let mut coupled: Option<(&crate::olc::VersionLock, u64)> = None;
    loop {
        if p == 0 {
            return Ok((None, hops));
        }
        hops += 1;
        if node::is_leaf(p) {
            // SAFETY: epoch pinned by the caller.
            let leaf = unsafe { node::leaf_ref(p) };
            if let Some((plock, pv)) = coupled {
                if !plock.validate(pv) {
                    return Err(());
                }
            }
            return Ok((
                if leaf.key == key {
                    Some(leaf.value.load(Ordering::Acquire))
                } else {
                    None
                },
                hops,
            ));
        }
        // SAFETY: epoch pinned by the caller.
        let hdr = unsafe { node::header(p) };
        let v = hdr.version.read_lock_spin().ok_or(())?;
        if let Some((plock, pv)) = coupled {
            if !plock.validate(pv) {
                return Err(());
            }
        }
        let (prefix, plen, _) = hdr.prefix();
        for i in 0..plen {
            if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                return if hdr.version.validate(v) {
                    Ok((None, hops))
                } else {
                    Err(())
                };
            }
        }
        depth += plen;
        if depth >= 8 {
            return if hdr.version.validate(v) {
                Ok((None, hops))
            } else {
                Err(())
            };
        }
        // SAFETY: epoch pinned by the caller; optimistic read section —
        // result discarded unless the validate below succeeds (§15).
        let child = unsafe { node::find_child_racing(p, node::key_byte(key, depth)) };
        if !hdr.version.validate(v) {
            return Err(());
        }
        coupled = Some((&hdr.version, v));
        p = child;
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::node::{self};
    use crate::tree::{Art, FromResult, SetSlotResult};

    #[test]
    fn lca_of_sibling_keys_is_their_parent_region() {
        let t = Art::new();
        // Keys sharing 6 bytes: 0xAABBCCDDEEFF_0001 and ..._0002.
        let base = 0xAABB_CCDD_EEFF_0000u64;
        t.insert(base + 1, 1);
        t.insert(base + 2, 2);
        t.insert(0x1122_3344_5566_7788, 3);
        let (node, depth) = t.lca_node(base + 1, base + 2).expect("lca exists");
        assert!(node != 0);
        // The LCA discriminates at the last byte, i.e. below the root.
        assert!(depth <= 7);
        // Jumps through the LCA find both keys.
        // SAFETY: pointer fresh from lca_node; tree unmodified since.
        unsafe {
            match t.get_from(node, base + 1) {
                FromResult::Done(Some(v), hops) => {
                    assert_eq!(v, 1);
                    assert!(hops >= 1);
                }
                other => panic!("unexpected {other:?}"),
            }
            match t.get_from(node, base + 2) {
                FromResult::Done(Some(v), _) => assert_eq!(v, 2),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn lca_on_empty_or_leaf_root() {
        let t = Art::new();
        assert!(t.lca_node(1, 2).is_none());
        t.insert(5, 5);
        assert!(t.lca_node(1, 2).is_none(), "root is a single leaf");
    }

    #[test]
    fn jump_lookup_is_shorter_than_root_lookup() {
        let t = Art::new();
        // A deep cluster plus scattered keys to give the root fanout.
        let base = 0x0102_0304_0000_0000u64;
        for i in 1..=64u64 {
            t.insert(base + i, i);
        }
        for i in 1..=64u64 {
            t.insert(i << 56 | 0xFF, i);
        }
        let (node, _) = t.lca_node(base + 1, base + 64).unwrap();
        let (_, root_hops) = t.get_with_depth(base + 33);
        // SAFETY: fresh pointer, no concurrent mutation.
        let jump_hops = unsafe {
            match t.get_from(node, base + 33) {
                FromResult::Done(Some(v), h) => {
                    assert_eq!(v, 33);
                    h
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        assert!(
            jump_hops < root_hops,
            "jump {jump_hops} should beat root {root_hops}"
        );
    }

    #[test]
    fn insert_from_adds_keys_under_the_subtree() {
        let t = Art::new();
        let base = 0x7777_0000_0000_0000u64;
        t.insert(base + 0x10, 1);
        t.insert(base + 0xFF00, 2);
        t.insert(1, 3); // unrelated subtree
        let (node, _) = t.lca_node(base + 0x10, base + 0xFF00).unwrap();
        // SAFETY: fresh pointer, single-threaded here.
        unsafe {
            match t.insert_from(node, base + 0x20, 20) {
                FromResult::Done(true, _) => {}
                other => panic!("unexpected {other:?}"),
            }
            match t.insert_from(node, base + 0x20, 21) {
                FromResult::Done(false, _) => {}
                other => panic!("duplicate should report false: {other:?}"),
            }
        }
        assert_eq!(t.get(base + 0x20), Some(20));
    }

    #[test]
    fn insert_from_falls_back_on_prefix_mismatch() {
        let t = Art::new();
        let base = 0x7777_0000_0000_0000u64;
        t.insert(base + 1, 1);
        t.insert(base + 2, 2);
        let (node, _) = t.lca_node(base + 1, base + 2).unwrap();
        // A key that diverges inside/above the jump node's prefix.
        // SAFETY: fresh pointer, single-threaded.
        let res = unsafe { t.insert_from(node, 0x1111_0000_0000_0000, 9) };
        assert_eq!(res, FromResult::Fallback);
    }

    #[test]
    fn buffer_slot_registration_and_merge() {
        let t = Art::new();
        t.insert(100, 1);
        t.insert(200, 2);
        let (node, _) = t.lca_node(100, 200).unwrap();
        // SAFETY: fresh pointers from lca_node, no concurrent mutation.
        unsafe {
            assert_eq!(t.try_set_buffer_slot(node, 7), SetSlotResult::Installed);
            // Second registration merges onto the first slot.
            assert_eq!(t.try_set_buffer_slot(node, 9), SetSlotResult::Merged(7));
        }
    }

    #[test]
    fn hook_fires_on_expansion_of_slotted_node() {
        use crate::tree::ReplaceHook;
        use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Rec {
            slot: AtomicU32,
            node: AtomicUsize,
            fires: AtomicUsize,
        }
        impl ReplaceHook for Rec {
            fn node_replaced(&self, slot: u32, new_node: usize) {
                self.slot.store(slot, Ordering::SeqCst);
                self.node.store(new_node, Ordering::SeqCst);
                self.fires.fetch_add(1, Ordering::SeqCst);
            }
        }
        let rec = Arc::new(Rec {
            slot: AtomicU32::new(0),
            node: AtomicUsize::new(0),
            fires: AtomicUsize::new(0),
        });
        let t = Art::with_hook(rec.clone());
        // Build a Node4 that will expand: 4 keys differing at the last
        // byte.
        let base = 0xAB00_0000_0000_0000u64;
        for i in 1..=4u64 {
            t.insert(base + i, i);
        }
        let (node, _) = t.lca_node(base + 1, base + 4).unwrap();
        // SAFETY: fresh pointer, single-threaded.
        unsafe {
            assert_eq!(t.try_set_buffer_slot(node, 5), SetSlotResult::Installed);
        }
        // Fifth child forces Node4 -> Node16 expansion.
        t.insert(base + 5, 5);
        assert_eq!(rec.fires.load(Ordering::SeqCst), 1, "hook fired once");
        assert_eq!(rec.slot.load(Ordering::SeqCst), 5);
        let newp = rec.node.load(Ordering::SeqCst);
        assert!(newp != 0);
        // The replacement node works as a jump target.
        // SAFETY: hook-provided pointer per the buffer contract.
        unsafe {
            match t.get_from(newp, base + 5) {
                FromResult::Done(Some(v), _) => assert_eq!(v, 5),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Old pointer is obsolete and reports fallback (memory still alive
        // under our pin).
        let hdr = unsafe { node::header(node) };
        assert!(hdr.version.is_obsolete());
    }

    #[test]
    fn hook_fires_on_prefix_extraction_of_slotted_node() {
        use crate::tree::ReplaceHook;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        #[derive(Default)]
        struct Rec {
            node: AtomicUsize,
            fires: AtomicUsize,
        }
        impl ReplaceHook for Rec {
            fn node_replaced(&self, _slot: u32, new_node: usize) {
                self.node.store(new_node, Ordering::SeqCst);
                self.fires.fetch_add(1, Ordering::SeqCst);
            }
        }
        let rec = Arc::new(Rec::default());
        let t = Art::with_hook(rec.clone());
        // Two keys sharing a long prefix create a node with a compressed
        // prefix.
        let base = 0x0102_0304_0506_0000u64;
        t.insert(base + 1, 1);
        t.insert(base + 2, 2);
        // Add an unrelated key so the root is an internal node and the
        // cluster node carries the long prefix.
        t.insert(0xFF00_0000_0000_0000, 9);
        let (node, _) = t.lca_node(base + 1, base + 2).unwrap();
        // SAFETY: fresh pointer, single-threaded.
        unsafe {
            t.try_set_buffer_slot(node, 3);
        }
        // This key shares only part of the cluster prefix: prefix
        // extraction splits the slotted node.
        t.insert(0x0102_0304_AA00_0000, 7);
        assert!(
            rec.fires.load(Ordering::SeqCst) >= 1,
            "prefix extraction must fire the hook"
        );
        let newp = rec.node.load(Ordering::SeqCst);
        assert!(newp != 0);
        // All keys remain reachable, including via the updated pointer.
        assert_eq!(t.get(base + 1), Some(1));
        assert_eq!(t.get(0x0102_0304_AA00_0000), Some(7));
        // SAFETY: hook-provided pointer.
        unsafe {
            match t.get_from(newp, base + 2) {
                FromResult::Done(Some(v), _) => assert_eq!(v, 2),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
