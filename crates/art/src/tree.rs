//! The concurrent ART structure: construction, point lookups, inserts,
//! updates, and removals with optimistic lock coupling.

use crate::node::{self, NodePtr, NodeType, NO_SLOT};
use crossbeam_epoch::{self as epoch, Guard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Callback fired when a node referenced by the fast-pointer buffer is
/// replaced or removed. `new_node == 0` means "no valid replacement;
/// de-optimize this entry to a root search".
///
/// The hook runs while the replaced node's write lock is held, so for a
/// given buffer slot, invocations are serialized with
/// [`Art::try_set_buffer_slot`].
pub trait ReplaceHook: Send + Sync {
    /// Buffer entry `slot` must now point at `new_node` (or 0 to fall back
    /// to root searches).
    fn node_replaced(&self, slot: u32, new_node: NodePtr);
}

/// Result of [`Art::try_set_buffer_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetSlotResult {
    /// The slot was installed on the node.
    Installed,
    /// The node already carries a buffer slot (the paper's merge scheme:
    /// reuse this one instead).
    Merged(u32),
    /// The node was replaced concurrently; re-resolve and retry.
    Obsolete,
}

/// Result of a jump-started operation ([`Art::get_from`] /
/// [`Art::insert_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FromResult<T> {
    /// The operation completed from the jump node; payload plus the number
    /// of nodes traversed (the Fig 10(a) "lookup length" metric).
    Done(T, u32),
    /// The jump node was obsolete or the operation needs the jump node's
    /// parent; retry from the root.
    Fallback,
}

/// A concurrent adaptive radix tree mapping `u64` keys to `u64` values.
pub struct Art {
    pub(crate) root: AtomicUsize,
    count: AtomicUsize,
    mem: AtomicUsize,
    pub(crate) hook: Option<Arc<dyn ReplaceHook>>,
}

// SAFETY: all shared state is managed through atomics, version locks, and
// epoch-based reclamation.
unsafe impl Send for Art {}
unsafe impl Sync for Art {}

impl Default for Art {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Art {
    fn drop(&mut self) {
        // SAFETY: &mut self guarantees exclusive access.
        unsafe { node::dealloc_subtree(self.root.load(Ordering::Relaxed)) };
    }
}

impl Art {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            mem: AtomicUsize::new(0),
            hook: None,
        }
    }

    /// An empty tree that fires `hook` on fast-pointer invalidations.
    pub fn with_hook(hook: Arc<dyn ReplaceHook>) -> Self {
        Self {
            root: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
            mem: AtomicUsize::new(0),
            hook: Some(hook),
        }
    }

    /// Number of keys in the tree (racy under concurrency, exact at rest).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes allocated for nodes and leaves.
    pub fn memory_usage(&self) -> usize {
        self.mem.load(Ordering::Relaxed) + std::mem::size_of::<Self>()
    }

    pub(crate) fn track_alloc(&self, p: NodePtr) {
        self.mem.fetch_add(node::alloc_size(p), Ordering::Relaxed);
    }

    /// Retire a replaced/unlinked allocation: memory is reclaimed after
    /// the current epoch's readers drain.
    pub(crate) fn retire(&self, guard: &Guard, p: NodePtr) {
        if p == 0 {
            return;
        }
        self.mem.fetch_sub(node::alloc_size(p), Ordering::Relaxed);
        // SAFETY: `p` has been unlinked from the tree by the caller (under
        // the appropriate locks), so no new readers can find it; existing
        // readers are protected by their epoch pins, which `defer` waits
        // out before running the destructor.
        unsafe {
            guard.defer_unchecked(move || node::dealloc(p));
        }
    }

    pub(crate) fn bump_count(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn drop_count(&self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fire the replace hook if `slot` is a live buffer slot.
    pub(crate) fn fire_hook(&self, slot: u32, new_node: NodePtr) {
        if slot != NO_SLOT {
            if let Some(h) = &self.hook {
                h.node_replaced(slot, new_node);
            }
        }
    }

    // -----------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        loop {
            match self.get_attempt(key, &guard) {
                Ok(v) => return v,
                Err(()) => {
                    if retry.wait_or_escalate_global(crate::count_contention) {
                        return self.get_pessimistic(key, &guard);
                    }
                }
            }
        }
    }

    /// Guaranteed-progress lookup: pessimistic lock-coupled descent.
    fn get_pessimistic(&self, key: u64, guard: &Guard) -> Option<u64> {
        let leafp = self.pessimistic_leaf(key, guard).0?;
        // SAFETY: the leaf was reachable under its locked parent; the
        // epoch pin keeps it alive past a racing removal, like the
        // optimistic path after validation.
        Some(
            unsafe { node::leaf_ref(leafp) }
                .value
                .load(Ordering::Acquire),
        )
    }

    /// Pessimistic lock-coupled descent to `key`'s leaf: every internal
    /// node's *write* lock is taken top-down, with the parent's lock held
    /// until the child's is acquired. No version validation (and hence no
    /// restart) happens on the path — a child read under its locked
    /// parent cannot be replaced, because every `replace_child` in this
    /// crate runs under the parent's write lock.
    ///
    /// Deadlock freedom: every *blocking* `lock()` in the tree (the
    /// couplings here and the sibling lock in `remove_leaf`) targets a
    /// node strictly below everything its caller already holds, and
    /// writers take ancestors only through the non-blocking `upgrade`
    /// CAS (whose failure restarts them, releasing nothing they don't
    /// own) — so wait-for edges always point down the tree and cannot
    /// form a cycle.
    ///
    /// The restart on an obsolete root is bounded by structural
    /// progress: it fires only when a committed root replacement landed
    /// between the root load and the lock acquisition.
    ///
    /// Returns the leaf (if found) plus the number of nodes traversed
    /// (same counting as the optimistic `descend_get` in `jump.rs`).
    pub(crate) fn pessimistic_leaf(&self, key: u64, _guard: &Guard) -> (Option<NodePtr>, u32) {
        'restart: loop {
            let root = self.root.load(Ordering::Acquire);
            if root == 0 {
                return (None, 0);
            }
            if node::is_leaf(root) {
                // SAFETY: pinned epoch; leaf keys are immutable.
                let leaf = unsafe { node::leaf_ref(root) };
                return (if leaf.key == key { Some(root) } else { None }, 1);
            }
            // SAFETY: pinned epoch.
            let mut hdr = unsafe { node::header(root) };
            if !hdr.version.lock() {
                // Root replaced between the load and the lock.
                continue 'restart;
            }
            // A successful lock proves `root` is still linked in place:
            // replacements hold the victim's lock across publication and
            // mark it obsolete before unlocking.
            let mut cur = root;
            let mut depth = hdr.match_level();
            let mut hops = 1u32;
            loop {
                let (prefix, plen, _) = hdr.prefix();
                for i in 0..plen {
                    if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                        hdr.version.unlock();
                        return (None, hops);
                    }
                }
                depth += plen;
                if depth >= 8 {
                    hdr.version.unlock();
                    return (None, hops);
                }
                // SAFETY: `cur` is write-locked and live.
                let child = unsafe { node::find_child(cur, node::key_byte(key, depth)) };
                if child == 0 {
                    hdr.version.unlock();
                    return (None, hops);
                }
                if node::is_leaf(child) {
                    // SAFETY: read under the parent's write lock.
                    let leaf = unsafe { node::leaf_ref(child) };
                    let found = leaf.key == key;
                    hdr.version.unlock();
                    return (found.then_some(child), hops + 1);
                }
                // Couple: lock the child before releasing the parent.
                // SAFETY: pinned epoch; child is live under its locked
                // parent.
                let chdr = unsafe { node::header(child) };
                let got = chdr.version.lock();
                debug_assert!(got, "child under a locked parent cannot be obsolete");
                hdr.version.unlock();
                if !got {
                    continue 'restart;
                }
                cur = child;
                hdr = chdr;
                depth += 1;
                hops += 1;
            }
        }
    }

    fn get_attempt(&self, key: u64, _guard: &Guard) -> Result<Option<u64>, ()> {
        let mut p = self.root.load(Ordering::Acquire);
        let mut depth = 0usize;
        // Lock coupling: the previous node's version is re-validated
        // after the next node's version is acquired, so a child that was
        // demoted/replaced between the parent validation and the child
        // read (e.g. a racing prefix extraction) forces a restart instead
        // of a descent with stale path bytes.
        let mut coupled: Option<(&crate::olc::VersionLock, u64)> = None;
        loop {
            if p == 0 {
                return Ok(None);
            }
            if node::is_leaf(p) {
                // SAFETY: pointer read under the pinned epoch.
                let leaf = unsafe { node::leaf_ref(p) };
                if let Some((plock, pv)) = coupled {
                    if !plock.validate(pv) {
                        return Err(());
                    }
                }
                return Ok(if leaf.key == key {
                    Some(leaf.value.load(Ordering::Acquire))
                } else {
                    None
                });
            }
            // SAFETY: internal pointer read under the pinned epoch.
            let hdr = unsafe { node::header(p) };
            let v = hdr.version.read_lock_spin().ok_or(())?;
            if let Some((plock, pv)) = coupled {
                if !plock.validate(pv) {
                    return Err(());
                }
            }
            let (prefix, plen, _lvl) = hdr.prefix();
            for i in 0..plen {
                if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                    return if hdr.version.validate(v) {
                        Ok(None)
                    } else {
                        Err(())
                    };
                }
            }
            depth += plen;
            if depth >= 8 {
                return if hdr.version.validate(v) {
                    Ok(None)
                } else {
                    Err(())
                };
            }
            // SAFETY: as above; optimistic read section — the racing
            // SIMD search result is discarded unless the validate just
            // below succeeds (DESIGN.md §15).
            let child = unsafe { node::find_child_racing(p, node::key_byte(key, depth)) };
            if !hdr.version.validate(v) {
                return Err(());
            }
            coupled = Some((&hdr.version, v));
            p = child;
            depth += 1;
        }
    }

    // -----------------------------------------------------------------
    // Insert / update
    // -----------------------------------------------------------------

    /// Insert a new key. Returns `false` if the key already exists
    /// (the value is left untouched).
    pub fn insert(&self, key: u64, value: u64) -> bool {
        self.insert_inner(key, value, false)
    }

    /// Insert or overwrite.
    pub fn upsert(&self, key: u64, value: u64) -> bool {
        self.insert_inner(key, value, true)
    }

    /// Update an existing key in place. Returns `false` if absent.
    pub fn update(&self, key: u64, value: u64) -> bool {
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        loop {
            match self.get_leaf_attempt(key, &guard) {
                Ok(Some(leafp)) => {
                    // SAFETY: leaf read under the pinned epoch.
                    unsafe { node::leaf_ref(leafp) }
                        .value
                        .store(value, Ordering::Release);
                    return true;
                }
                Ok(None) => return false,
                Err(()) => {
                    if retry.wait_or_escalate_global(crate::count_contention) {
                        // Pessimistic path; the store after the locks are
                        // released linearizes exactly like the optimistic
                        // store after validation.
                        return match self.pessimistic_leaf(key, &guard).0 {
                            Some(leafp) => {
                                // SAFETY: pinned epoch (see above).
                                unsafe { node::leaf_ref(leafp) }
                                    .value
                                    .store(value, Ordering::Release);
                                true
                            }
                            None => false,
                        };
                    }
                }
            }
        }
    }

    fn get_leaf_attempt(&self, key: u64, _guard: &Guard) -> Result<Option<NodePtr>, ()> {
        let mut p = self.root.load(Ordering::Acquire);
        let mut depth = 0usize;
        let mut coupled: Option<(&crate::olc::VersionLock, u64)> = None;
        loop {
            if p == 0 {
                return Ok(None);
            }
            if node::is_leaf(p) {
                // SAFETY: pinned epoch.
                let leaf = unsafe { node::leaf_ref(p) };
                if let Some((plock, pv)) = coupled {
                    if !plock.validate(pv) {
                        return Err(());
                    }
                }
                return Ok(if leaf.key == key { Some(p) } else { None });
            }
            // SAFETY: pinned epoch.
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
                        Ok(None)
                    } else {
                        Err(())
                    };
                }
            }
            depth += plen;
            if depth >= 8 {
                return if hdr.version.validate(v) {
                    Ok(None)
                } else {
                    Err(())
                };
            }
            // SAFETY: pinned epoch; optimistic read section — result
            // discarded unless the validate below succeeds (§15).
            let child = unsafe { node::find_child_racing(p, node::key_byte(key, depth)) };
            if !hdr.version.validate(v) {
                return Err(());
            }
            coupled = Some((&hdr.version, v));
            p = child;
            depth += 1;
        }
    }

    fn insert_inner(&self, key: u64, value: u64, overwrite: bool) -> bool {
        let guard = epoch::pin();
        // Structural writers have no pessimistic fallback: every restart
        // implies a *committed* conflicting write, so the retry loop
        // terminates with probability 1 under any finite write rate. Past
        // the budget the escalation is recorded once and further waits
        // park instead of burning CPU.
        let mut retry = resilience::Retry::seeded(key);
        loop {
            match self.insert_attempt(key, value, overwrite, &guard) {
                Ok(inserted) => return inserted,
                Err(()) => {
                    let _ = retry.wait_or_escalate_global(crate::count_contention);
                }
            }
        }
    }

    /// One optimistic insert attempt. `Err(())` = restart.
    fn insert_attempt(
        &self,
        key: u64,
        value: u64,
        overwrite: bool,
        guard: &Guard,
    ) -> Result<bool, ()> {
        let rootp = self.root.load(Ordering::Acquire);
        // Case: empty tree.
        if rootp == 0 {
            let leaf = node::make_leaf(key, value);
            match self
                .root
                .compare_exchange(0, leaf, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.track_alloc(leaf);
                    self.bump_count();
                    return Ok(true);
                }
                Err(_) => {
                    // SAFETY: `leaf` was never published.
                    unsafe { node::dealloc(leaf) };
                    return Err(());
                }
            }
        }
        // Case: root is a leaf.
        if node::is_leaf(rootp) {
            // SAFETY: pinned epoch.
            let leaf = unsafe { node::leaf_ref(rootp) };
            if leaf.key == key {
                if overwrite {
                    leaf.value.store(value, Ordering::Release);
                }
                return Ok(false);
            }
            let new4 = self.make_split_node(leaf.key, rootp, key, value, 0);
            match self
                .root
                .compare_exchange(rootp, new4, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.bump_count();
                    return Ok(true);
                }
                Err(_) => {
                    // SAFETY: new4 and its fresh leaf were never published;
                    // the old leaf must survive.
                    unsafe {
                        let b = node::key_byte(key, split_depth(leaf.key, key, 0));
                        let fresh = node::find_child(new4, b);
                        self.untrack_fresh(fresh);
                        node::dealloc(fresh);
                        self.untrack_fresh(new4);
                        node::dealloc(new4);
                    }
                    return Err(());
                }
            }
        }

        // General case: descend with (parent, parent_version) tracking.
        self.descend_insert(rootp, key, value, overwrite, guard)
    }

    fn untrack_fresh(&self, p: NodePtr) {
        self.mem.fetch_sub(node::alloc_size(p), Ordering::Relaxed);
    }

    /// Descend from internal node `start` (at its own match level) and
    /// perform the insert. `parent == 0` means `start`'s slot is the tree
    /// root. Returns Err(()) to restart from the caller's entry point.
    pub(crate) fn descend_insert(
        &self,
        start: NodePtr,
        key: u64,
        value: u64,
        overwrite: bool,
        guard: &Guard,
    ) -> Result<bool, ()> {
        let mut parent: NodePtr = 0;
        let mut parent_v: u64 = 0;
        let mut parent_byte: u8 = 0;
        let mut p = start;
        // SAFETY: pinned epoch; start is internal by contract.
        let mut depth = unsafe { node::header(p) }.match_level();
        loop {
            // SAFETY: pinned epoch.
            let hdr = unsafe { node::header(p) };
            let v = hdr.version.read_lock_spin().ok_or(())?;
            // Lock coupling: with the current node's version in hand,
            // re-validate the parent snapshot so a racing child
            // replacement/demotion cannot leave us on a stale path.
            if parent != 0 {
                // SAFETY: pinned epoch.
                let phdr = unsafe { node::header(parent) };
                if !phdr.version.validate(parent_v) {
                    return Err(());
                }
            }
            debug_assert_eq!(hdr.match_level(), depth);
            let (prefix, plen, _) = hdr.prefix();

            // 1) Prefix comparison.
            let mut mismatch = plen;
            for i in 0..plen {
                if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                    mismatch = i;
                    break;
                }
            }
            if mismatch < plen {
                // Prefix extraction (§III-C scenario ①): insert a new
                // parent discriminating at depth + mismatch.
                self.split_prefix(
                    p,
                    v,
                    parent,
                    parent_v,
                    parent_byte,
                    &prefix[..plen],
                    mismatch,
                    depth,
                    key,
                    value,
                    guard,
                )?;
                self.bump_count();
                return Ok(true);
            }
            let ndepth = depth + plen;
            if ndepth >= 8 {
                // Cannot happen with unique 8-byte keys: an internal node
                // always discriminates at a byte < 8. Treat as restart.
                return Err(());
            }
            let b = node::key_byte(key, ndepth);
            // SAFETY: pinned epoch; optimistic read section — result
            // discarded unless the validate below succeeds (§15).
            let child = unsafe { node::find_child_racing(p, b) };
            if !hdr.version.validate(v) {
                return Err(());
            }

            if child == 0 {
                // 2) Empty slot here: add a leaf (growing if full).
                // SAFETY: pinned epoch; validated snapshot.
                if unsafe { node::is_full(p) } {
                    self.grow_and_insert(
                        p,
                        v,
                        parent,
                        parent_v,
                        parent_byte,
                        b,
                        key,
                        value,
                        guard,
                    )?;
                } else {
                    if !hdr.version.upgrade(v) {
                        return Err(());
                    }
                    // Re-check under the lock: a racing insert may have
                    // filled the slot or the node between validate and
                    // upgrade... upgrade succeeding means version unchanged
                    // since the validated read, so the snapshot still
                    // holds.
                    let leaf = node::make_leaf(key, value);
                    self.track_alloc(leaf);
                    // SAFETY: write lock held, node not full, byte absent.
                    unsafe { node::insert_child(p, b, leaf) };
                    hdr.version.unlock();
                }
                self.bump_count();
                return Ok(true);
            }

            if node::is_leaf(child) {
                // SAFETY: pinned epoch.
                let leaf = unsafe { node::leaf_ref(child) };
                if leaf.key == key {
                    if overwrite {
                        leaf.value.store(value, Ordering::Release);
                    }
                    // Re-validate: the leaf we touched must still be the
                    // one reachable under this version.
                    if !hdr.version.validate(v) {
                        return Err(());
                    }
                    return Ok(false);
                }
                // 3) Leaf split: replace the leaf with a Node4 holding
                // both leaves.
                if !hdr.version.upgrade(v) {
                    return Err(());
                }
                let new4 = self.make_split_node(leaf.key, child, key, value, ndepth + 1);
                // SAFETY: write lock held; byte `b` maps to `child`.
                unsafe { node::replace_child(p, b, new4) };
                hdr.version.unlock();
                self.bump_count();
                return Ok(true);
            }

            parent = p;
            parent_v = v;
            parent_byte = b;
            p = child;
            depth = ndepth + 1;
        }
    }

    /// Build a Node4 containing `old_leaf` (key `old_key`) and a fresh
    /// leaf for `key`, with the keys' common prefix starting at `depth`.
    fn make_split_node(
        &self,
        old_key: u64,
        old_leaf: NodePtr,
        key: u64,
        value: u64,
        depth: usize,
    ) -> NodePtr {
        let sd = split_depth(old_key, key, depth);
        let new4 = node::alloc(NodeType::N4);
        self.track_alloc(new4);
        let kb = node::key_bytes(key);
        // SAFETY: new4 is fresh and unshared.
        unsafe {
            let hdr = node::header(new4);
            hdr.set_prefix(&kb[depth..sd], depth);
            let leaf = node::make_leaf(key, value);
            self.track_alloc(leaf);
            hdr.version.lock();
            node::insert_child(new4, node::key_byte(old_key, sd), old_leaf);
            node::insert_child(new4, node::key_byte(key, sd), leaf);
            hdr.version.unlock();
        }
        new4
    }

    /// Prefix extraction: the key diverges inside `p`'s compressed prefix
    /// at `mismatch`. Create a new parent Node4 covering the shared part,
    /// with a *demoted copy* of `p` (shorter prefix, deeper match level)
    /// and a new leaf as children; `p` itself is marked obsolete and
    /// retired. Transfers `p`'s fast-pointer slot to the new parent
    /// (§III-C scenario ①).
    ///
    /// `p` is replaced rather than demoted in place: a node's
    /// (prefix, match_level) never changes while it is live, so a stale
    /// fast-pointer jump can never descend with outdated path bytes — it
    /// finds the node obsolete and falls back to the root.
    #[allow(clippy::too_many_arguments)]
    fn split_prefix(
        &self,
        p: NodePtr,
        v: u64,
        parent: NodePtr,
        parent_v: u64,
        parent_byte: u8,
        prefix: &[u8],
        mismatch: usize,
        depth: usize,
        key: u64,
        value: u64,
        guard: &Guard,
    ) -> Result<(), ()> {
        // Lock order: parent first, then node.
        let phdr = if parent != 0 {
            // SAFETY: pinned epoch.
            let phdr = unsafe { node::header(parent) };
            if !phdr.version.upgrade(parent_v) {
                return Err(());
            }
            Some(phdr)
        } else {
            None
        };
        // SAFETY: pinned epoch.
        let hdr = unsafe { node::header(p) };
        if !hdr.version.upgrade(v) {
            if let Some(ph) = phdr {
                ph.version.unlock();
            }
            return Err(());
        }
        // Build: demoted copy of p + fresh leaf under a new Node4 parent.
        // SAFETY: p write-locked.
        let demoted = unsafe { node::clone_node(p) };
        self.track_alloc(demoted);
        let leaf = node::make_leaf(key, value);
        self.track_alloc(leaf);
        let newp = node::alloc(NodeType::N4);
        self.track_alloc(newp);
        // SAFETY: demoted and newp are fresh and unshared.
        unsafe {
            let dhdr = node::header(demoted);
            dhdr.set_prefix(&prefix[mismatch + 1..], depth + mismatch + 1);
            // The buffer slot stays with the path position, i.e. moves to
            // the new parent, not the demoted copy.
            dhdr.buffer_slot.store(NO_SLOT, Ordering::Release);
            let nhdr = node::header(newp);
            nhdr.set_prefix(&prefix[..mismatch], depth);
            nhdr.version.lock();
            node::insert_child(newp, prefix[mismatch], demoted);
            node::insert_child(newp, node::key_byte(key, depth + mismatch), leaf);
            nhdr.version.unlock();
        }
        // Publish.
        if let Some(ph) = phdr {
            // SAFETY: parent write-locked; parent_byte maps to p.
            unsafe { node::replace_child(parent, parent_byte, newp) };
            ph.version.unlock();
        } else {
            let ok = self
                .root
                .compare_exchange(p, newp, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if !ok {
                // p is not the tree root (e.g. a jump-started insert whose
                // start node needs restructuring): roll back the fresh,
                // unpublished allocations and let the caller retry/fall
                // back.
                self.untrack_fresh(newp);
                self.untrack_fresh(demoted);
                self.untrack_fresh(leaf);
                // SAFETY: never published.
                unsafe {
                    node::dealloc(newp);
                    node::dealloc(demoted);
                    node::dealloc(leaf);
                }
                hdr.version.unlock();
                return Err(());
            }
        }
        // Move the buffer slot to the new parent (§III-C ①: "this GPL
        // model's fast pointer needs to be updated to this newly created
        // node").
        let slot = hdr.buffer_slot.swap(NO_SLOT, Ordering::AcqRel);
        if slot != NO_SLOT {
            // SAFETY: newp live (just published).
            unsafe { node::header(newp) }
                .buffer_slot
                .store(slot, Ordering::Release);
            self.fire_hook(slot, newp);
        }
        hdr.version.unlock_obsolete();
        self.retire(guard, p);
        Ok(())
    }

    /// Node expansion (§III-C scenario ②): `p` is full; replace it with
    /// the next larger node type, then insert.
    #[allow(clippy::too_many_arguments)]
    fn grow_and_insert(
        &self,
        p: NodePtr,
        v: u64,
        parent: NodePtr,
        parent_v: u64,
        parent_byte: u8,
        byte: u8,
        key: u64,
        value: u64,
        guard: &Guard,
    ) -> Result<(), ()> {
        // Lock order: parent first, then node.
        let phdr = if parent != 0 {
            // SAFETY: pinned epoch.
            let phdr = unsafe { node::header(parent) };
            if !phdr.version.upgrade(parent_v) {
                return Err(());
            }
            Some(phdr)
        } else {
            None
        };
        // SAFETY: pinned epoch.
        let hdr = unsafe { node::header(p) };
        if !hdr.version.upgrade(v) {
            if let Some(ph) = phdr {
                ph.version.unlock();
            }
            return Err(());
        }
        // SAFETY: p write-locked.
        let big = unsafe { node::grow(p) };
        self.track_alloc(big);
        let leaf = node::make_leaf(key, value);
        self.track_alloc(leaf);
        // SAFETY: big fresh and unshared.
        unsafe { node::insert_child(big, byte, leaf) };
        if let Some(ph) = phdr {
            // SAFETY: parent write-locked; parent_byte maps to p.
            unsafe { node::replace_child(parent, parent_byte, big) };
            ph.version.unlock();
        } else {
            let ok = self
                .root
                .compare_exchange(p, big, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if !ok {
                // p is not the tree root (jump-started insert whose start
                // node filled up concurrently): roll back the fresh
                // allocations; the caller retries and its pre-checks see
                // the full node, falling back to a root insert.
                self.untrack_fresh(big);
                self.untrack_fresh(leaf);
                // SAFETY: never published.
                unsafe {
                    node::dealloc(big);
                    node::dealloc(leaf);
                }
                hdr.version.unlock();
                return Err(());
            }
        }
        // Fast-pointer transfer: grow() copied the slot onto `big`.
        // SAFETY: header read while p is still locked.
        let slot = unsafe { node::header(big) }
            .buffer_slot
            .load(Ordering::Acquire);
        self.fire_hook(slot, big);
        hdr.version.unlock_obsolete();
        self.retire(guard, p);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Remove
    // -----------------------------------------------------------------

    /// Remove a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = epoch::pin();
        // Structural writer: same no-fallback discipline as
        // `insert_inner` — escalation is recorded once, then parked
        // retries (each restart implies a committed conflicting write).
        let mut retry = resilience::Retry::seeded(key);
        loop {
            match self.remove_attempt(key, &guard) {
                Ok(r) => return r,
                Err(()) => {
                    let _ = retry.wait_or_escalate_global(crate::count_contention);
                }
            }
        }
    }

    fn remove_attempt(&self, key: u64, guard: &Guard) -> Result<Option<u64>, ()> {
        let rootp = self.root.load(Ordering::Acquire);
        if rootp == 0 {
            return Ok(None);
        }
        if node::is_leaf(rootp) {
            // SAFETY: pinned epoch.
            let leaf = unsafe { node::leaf_ref(rootp) };
            if leaf.key != key {
                return Ok(None);
            }
            let val = leaf.value.load(Ordering::Acquire);
            match self
                .root
                .compare_exchange(rootp, 0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.retire(guard, rootp);
                    self.drop_count();
                    return Ok(Some(val));
                }
                Err(_) => return Err(()),
            }
        }

        let mut parent: NodePtr = 0;
        let mut parent_v: u64 = 0;
        let mut parent_byte: u8 = 0;
        let mut p = rootp;
        let mut depth = 0usize;
        loop {
            // SAFETY: pinned epoch.
            let hdr = unsafe { node::header(p) };
            let v = hdr.version.read_lock_spin().ok_or(())?;
            // Lock coupling (see get_attempt).
            if parent != 0 {
                // SAFETY: pinned epoch.
                let phdr = unsafe { node::header(parent) };
                if !phdr.version.validate(parent_v) {
                    return Err(());
                }
            }
            let (prefix, plen, _) = hdr.prefix();
            for i in 0..plen {
                if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
                    return if hdr.version.validate(v) {
                        Ok(None)
                    } else {
                        Err(())
                    };
                }
            }
            depth += plen;
            if depth >= 8 {
                return if hdr.version.validate(v) {
                    Ok(None)
                } else {
                    Err(())
                };
            }
            let b = node::key_byte(key, depth);
            // SAFETY: pinned epoch; optimistic read section — result
            // discarded unless the validate below succeeds (§15).
            let child = unsafe { node::find_child_racing(p, b) };
            if !hdr.version.validate(v) {
                return Err(());
            }
            if child == 0 {
                return Ok(None);
            }
            if node::is_leaf(child) {
                // SAFETY: pinned epoch.
                let leaf = unsafe { node::leaf_ref(child) };
                if leaf.key != key {
                    return Ok(None);
                }
                let val = leaf.value.load(Ordering::Acquire);
                self.remove_leaf(p, v, parent, parent_v, parent_byte, b, child, guard)?;
                self.drop_count();
                return Ok(Some(val));
            }
            parent = p;
            parent_v = v;
            parent_byte = b;
            p = child;
            depth += 1;
        }
    }

    /// Remove leaf `child` (under byte `b`) from `p`, merging/shrinking as
    /// needed.
    #[allow(clippy::too_many_arguments)]
    fn remove_leaf(
        &self,
        p: NodePtr,
        v: u64,
        parent: NodePtr,
        parent_v: u64,
        parent_byte: u8,
        b: u8,
        child: NodePtr,
        guard: &Guard,
    ) -> Result<(), ()> {
        // SAFETY: pinned epoch.
        let hdr = unsafe { node::header(p) };
        let cnt = hdr.count();

        // Case A: node keeps >= 2 children and needs no shrink: in-place.
        // SAFETY: pinned epoch (type/count reads validated by upgrade).
        let needs_shrink = unsafe { node::shrink_candidate(p) };
        if cnt > 2 && !needs_shrink {
            if !hdr.version.upgrade(v) {
                return Err(());
            }
            // SAFETY: write lock held; byte b present.
            unsafe { node::remove_child(p, b) };
            hdr.version.unlock();
            self.retire(guard, child);
            return Ok(());
        }

        // Structural cases need the parent locked first.
        let phdr = if parent != 0 {
            // SAFETY: pinned epoch.
            let phdr = unsafe { node::header(parent) };
            if !phdr.version.upgrade(parent_v) {
                return Err(());
            }
            Some(phdr)
        } else {
            None
        };
        if !hdr.version.upgrade(v) {
            if let Some(ph) = phdr {
                ph.version.unlock();
            }
            return Err(());
        }

        if cnt == 2 {
            // Case B: merge — pull the surviving sibling up into p's slot.
            let mut sibling: NodePtr = 0;
            let mut sib_byte: u8 = 0;
            // SAFETY: write lock held.
            unsafe {
                node::for_each_child(p, |kb, c| {
                    if kb != b {
                        sibling = c;
                        sib_byte = kb;
                    }
                });
            }
            debug_assert!(sibling != 0);
            // An internal sibling absorbs p's prefix plus the
            // discriminating byte. Like prefix extraction, this is done on
            // a *copy* — a live node's (prefix, match_level) never changes
            // — and the original sibling is retired as obsolete so stale
            // fast-pointer jumps fall back instead of descending with
            // outdated path bytes.
            let mut retired_sibling = false;
            let replacement = if node::is_leaf(sibling) {
                sibling
            } else {
                // SAFETY: pinned epoch; sibling is only reachable through
                // the locked p, so locking it cannot deadlock.
                let shdr = unsafe { node::header(sibling) };
                if !shdr.version.lock() {
                    hdr.version.unlock();
                    if let Some(ph) = phdr {
                        ph.version.unlock();
                    }
                    return Err(());
                }
                let (pprefix, pplen, plvl) = hdr.prefix();
                let (sprefix, splen, _) = shdr.prefix();
                let mut combined = [0u8; crate::node::MAX_PREFIX];
                let mut n = 0;
                for &x in &pprefix[..pplen] {
                    combined[n] = x;
                    n += 1;
                }
                combined[n] = sib_byte;
                n += 1;
                for &x in &sprefix[..splen] {
                    combined[n] = x;
                    n += 1;
                }
                // SAFETY: sibling write-locked.
                let copy = unsafe { node::clone_node(sibling) };
                self.track_alloc(copy);
                // SAFETY: copy fresh and unshared.
                unsafe { node::header(copy) }.set_prefix(&combined[..n], plvl);
                // The copy inherited the sibling's own buffer slot (if
                // any); the hook fires after publication below.
                retired_sibling = true;
                // Keep the sibling locked until after publication; it is
                // marked obsolete below.
                copy
            };
            if let Some(ph) = phdr {
                // SAFETY: parent write-locked.
                unsafe { node::replace_child(parent, parent_byte, replacement) };
                ph.version.unlock();
            } else {
                let ok = self
                    .root
                    .compare_exchange(p, replacement, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                if !ok {
                    // Root-slot CAS can only fail if p was not the root;
                    // removals always descend from the root, so this is a
                    // genuine invariant violation.
                    unreachable!("root changed while its node was write-locked");
                }
            }
            if retired_sibling {
                // SAFETY: sibling still write-locked from above.
                let shdr = unsafe { node::header(sibling) };
                let s2 = shdr.buffer_slot.load(Ordering::Acquire);
                self.fire_hook(s2, replacement);
                shdr.version.unlock_obsolete();
                self.retire(guard, sibling);
            }
            // p disappears. Its buffer slot (if any) cannot follow a leaf;
            // repoint internal replacements, de-optimize otherwise
            // (§III-C: the buffer "will find that invalid pointer and
            // update its value to prevent illegal visits").
            let slot = hdr.buffer_slot.swap(NO_SLOT, Ordering::AcqRel);
            if slot != NO_SLOT {
                if !node::is_leaf(replacement) {
                    // SAFETY: replacement is live (just linked).
                    let rhdr = unsafe { node::header(replacement) };
                    // Only take the slot if the replacement has none
                    // (slots are 1:1 with nodes); otherwise fall back to
                    // root jumps.
                    if rhdr
                        .buffer_slot
                        .compare_exchange(NO_SLOT, slot, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.fire_hook(slot, replacement);
                    } else {
                        self.fire_hook(slot, 0);
                    }
                } else {
                    self.fire_hook(slot, 0);
                }
            }
            hdr.version.unlock_obsolete();
            self.retire(guard, p);
            self.retire(guard, child);
            return Ok(());
        }

        // Case C: shrink to the next smaller type after removing.
        // SAFETY: write lock held.
        unsafe { node::remove_child(p, b) };
        // SAFETY: write lock held.
        let small = unsafe { node::shrink(p) };
        self.track_alloc(small);
        if let Some(ph) = phdr {
            // SAFETY: parent write-locked.
            unsafe { node::replace_child(parent, parent_byte, small) };
            ph.version.unlock();
        } else {
            let ok = self
                .root
                .compare_exchange(p, small, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            if !ok {
                unreachable!("root changed while its node was write-locked");
            }
        }
        // SAFETY: header read while p still locked.
        let slot = unsafe { node::header(small) }
            .buffer_slot
            .load(Ordering::Acquire);
        self.fire_hook(slot, small);
        hdr.version.unlock_obsolete();
        self.retire(guard, p);
        self.retire(guard, child);
        Ok(())
    }
}

/// First byte position >= `depth` where the two keys differ.
pub(crate) fn split_depth(a: u64, b: u64, depth: usize) -> usize {
    debug_assert_ne!(a, b);
    let xor = a ^ b;
    let byte = (xor.leading_zeros() / 8) as usize;
    debug_assert!(byte >= depth, "keys diverge above the split depth");
    byte
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_small() {
        let t = Art::new();
        assert!(t.insert(1, 10));
        assert!(t.insert(2, 20));
        assert!(!t.insert(1, 99), "duplicate rejected");
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn upsert_overwrites() {
        let t = Art::new();
        t.insert(7, 70);
        assert!(!t.upsert(7, 71));
        assert_eq!(t.get(7), Some(71));
        assert!(t.upsert(8, 80));
        assert_eq!(t.get(8), Some(80));
    }

    #[test]
    fn update_in_place() {
        let t = Art::new();
        assert!(!t.update(5, 1), "absent key");
        t.insert(5, 1);
        assert!(t.update(5, 2));
        assert_eq!(t.get(5), Some(2));
    }

    #[test]
    fn dense_and_sparse_keys() {
        let t = Art::new();
        let mut model = BTreeMap::new();
        // Dense low keys exercise deep shared prefixes; sparse high keys
        // exercise prefix extraction.
        for i in 1..=2000u64 {
            t.insert(i, i * 2);
            model.insert(i, i * 2);
        }
        for i in 0..500u64 {
            let k = i * 0x0123_4567_89ABu64 + 3;
            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                e.insert(k ^ 1);
                t.insert(k, k ^ 1);
            }
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v), "key {k:#x}");
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn remove_roundtrip() {
        let t = Art::new();
        for i in 1..=300u64 {
            t.insert(i * 7, i);
        }
        for i in 1..=300u64 {
            assert_eq!(t.remove(i * 7), Some(i), "remove {}", i * 7);
            assert_eq!(t.get(i * 7), None);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.remove(7), None);
    }

    #[test]
    fn remove_single_root_leaf() {
        let t = Art::new();
        t.insert(42, 1);
        assert_eq!(t.remove(42), Some(1));
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        // Tree is reusable afterwards.
        t.insert(43, 2);
        assert_eq!(t.get(43), Some(2));
    }

    #[test]
    fn interleaved_insert_remove_matches_model() {
        let t = Art::new();
        let mut model = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 16) % 5000 + 1;
            match state % 3 {
                0 => {
                    let inserted = t.insert(k, k);
                    assert_eq!(inserted, !model.contains_key(&k));
                    model.entry(k).or_insert(k);
                }
                1 => {
                    assert_eq!(t.remove(k), model.remove(&k));
                }
                _ => {
                    assert_eq!(t.get(k), model.get(&k).copied());
                }
            }
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn memory_usage_grows_and_shrinks() {
        let t = Art::new();
        let empty = t.memory_usage();
        for i in 1..=1000u64 {
            t.insert(i * 1000, i);
        }
        let full = t.memory_usage();
        assert!(full > empty);
        // Removal retires memory accounting immediately even though the
        // allocations are reclaimed later.
        for i in 1..=1000u64 {
            t.remove(i * 1000);
        }
        assert!(t.memory_usage() < full);
    }

    #[test]
    fn split_depth_finds_first_differing_byte() {
        assert_eq!(split_depth(0x0100, 0x0200, 0), 6);
        assert_eq!(split_depth(1, 2, 0), 7);
        assert_eq!(
            split_depth(0xFF00_0000_0000_0000, 0x0100_0000_0000_0000, 0),
            0
        );
    }

    #[test]
    fn concurrent_inserts_all_visible() {
        let t = std::sync::Arc::new(Art::new());
        let threads = 8;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for id in 0..threads {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = (id as u64) * per + i + 1;
                    assert!(t.insert(k, k * 10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads as usize * per as usize);
        for k in 1..=threads as u64 * per {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
    }

    #[test]
    fn concurrent_mixed_ops_quiesce_consistent() {
        use std::sync::Arc;
        let t = Arc::new(Art::new());
        // Pre-populate evens; threads insert odds in their shard, remove
        // evens in their shard, and read everywhere.
        let n = 16_000u64;
        for k in (2..=n).step_by(2) {
            t.insert(k, k);
        }
        let threads = 8u64;
        let mut handles = Vec::new();
        for id in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let lo = id * (n / threads) + 1;
                let hi = (id + 1) * (n / threads);
                for k in lo..=hi {
                    if k % 2 == 1 {
                        assert!(t.insert(k, k * 3));
                    } else {
                        t.remove(k);
                    }
                    let probe = (k * 37) % n + 1;
                    let _ = t.get(probe);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 1..=n {
            if k % 2 == 1 {
                assert_eq!(t.get(k), Some(k * 3), "odd {k}");
            } else {
                assert_eq!(t.get(k), None, "even {k}");
            }
        }
    }
}
