//! ART node layouts: Node4 / Node16 / Node48 / Node256, leaves, and the
//! tagged-pointer representation.
//!
//! All mutable fields are atomics so that optimistic readers (who read
//! concurrently with locked writers and validate versions afterwards)
//! never perform a data race in the Rust memory model; a torn logical
//! state is discarded by version validation.
//!
//! Layout notes:
//! * Keys are fixed 8-byte big-endian `u64`s, so an internal node's
//!   compressed prefix is at most 7 bytes. The prefix bytes, prefix
//!   length, and the node's `match_level` (its depth in key bytes — the
//!   ALT-index paper's addition for fast-pointer jumps, §III-C) are packed
//!   into one `AtomicU64` so they update atomically during prefix
//!   extraction.
//! * Child pointers are `usize` with bit 0 tagging leaves. Null is 0.
//! * Each header carries a `buffer_slot`: the index of the fast-pointer
//!   buffer entry referencing this node (`NO_SLOT` if none), so node
//!   replacement can repair the buffer in O(1).

use crate::olc::VersionLock;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Sentinel for "no fast-pointer buffer entry references this node".
pub const NO_SLOT: u32 = u32::MAX;

/// Maximum stored prefix bytes (8-byte keys → at most 7 shared bytes
/// before a discriminating byte).
pub const MAX_PREFIX: usize = 7;

/// Tagged node pointer: 0 = null, bit 0 set = leaf.
pub type NodePtr = usize;

/// Node kinds, in growth order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeType {
    /// Up to 4 children, sorted key array.
    N4 = 0,
    /// Up to 16 children, sorted key array.
    N16 = 1,
    /// Up to 48 children, 256-byte indirection index.
    N48 = 2,
    /// Direct 256-pointer array.
    N256 = 3,
}

/// Shared header at the start of every internal node (`repr(C)` first
/// field, so a `NodePtr` to any node type can be read as `NodeHeader`).
#[repr(C)]
pub struct NodeHeader {
    /// Optimistic version lock.
    pub version: VersionLock,
    /// Packed prefix: bytes 0..=6 = prefix bytes, byte 7 low nibble =
    /// prefix length, byte 7 high nibble = match_level (node depth).
    prefix_word: AtomicU64,
    /// Which concrete layout follows this header.
    pub node_type: NodeType,
    /// Number of live children.
    num_children: AtomicU16,
    /// Fast-pointer buffer entry referencing this node, or [`NO_SLOT`].
    pub buffer_slot: AtomicU32,
}

impl NodeHeader {
    fn new(node_type: NodeType) -> Self {
        Self {
            version: VersionLock::new(),
            prefix_word: AtomicU64::new(0),
            node_type,
            num_children: AtomicU16::new(0),
            buffer_slot: AtomicU32::new(NO_SLOT),
        }
    }

    /// Decode (prefix bytes, prefix length, match level).
    #[inline]
    pub fn prefix(&self) -> ([u8; MAX_PREFIX], usize, usize) {
        let w = self.prefix_word.load(Ordering::Acquire);
        let mut bytes = [0u8; MAX_PREFIX];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (w >> (8 * i)) as u8;
        }
        let meta = (w >> 56) as u8;
        ((bytes), (meta & 0x0F) as usize, (meta >> 4) as usize)
    }

    /// The node's depth in key bytes (bytes consumed on the path above
    /// it, excluding its own prefix).
    #[inline]
    pub fn match_level(&self) -> usize {
        ((self.prefix_word.load(Ordering::Acquire) >> 60) & 0x0F) as usize
    }

    /// Atomically set prefix bytes, length, and match level.
    #[inline]
    pub fn set_prefix(&self, bytes: &[u8], match_level: usize) {
        debug_assert!(bytes.len() <= MAX_PREFIX);
        debug_assert!(match_level <= 8);
        let mut w: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            w |= (b as u64) << (8 * i);
        }
        w |= (bytes.len() as u64) << 56;
        w |= (match_level as u64) << 60;
        self.prefix_word.store(w, Ordering::Release);
    }

    /// Current child count.
    #[inline]
    pub fn count(&self) -> usize {
        self.num_children.load(Ordering::Acquire) as usize
    }

    #[inline]
    fn set_count(&self, n: usize) {
        self.num_children.store(n as u16, Ordering::Release);
    }
}

/// A leaf holding one key-value pair. The value is atomic so updates are
/// in-place and lock-free.
#[repr(C)]
pub struct Leaf {
    /// The full 8-byte key.
    pub key: u64,
    /// The value, updatable in place.
    pub value: AtomicU64,
}

/// Node4: sorted key bytes + children.
#[repr(C)]
pub struct Node4 {
    /// Common header.
    pub hdr: NodeHeader,
    keys: [AtomicU8; 4],
    children: [AtomicUsize; 4],
}

/// Node16: sorted key bytes + children.
#[repr(C)]
pub struct Node16 {
    /// Common header.
    pub hdr: NodeHeader,
    keys: [AtomicU8; 16],
    children: [AtomicUsize; 16],
}

/// Node48: 256-entry byte index into a 48-pointer array.
#[repr(C)]
pub struct Node48 {
    /// Common header.
    pub hdr: NodeHeader,
    index: [AtomicU8; 256],
    children: [AtomicUsize; 48],
}

/// Node256: one pointer per byte value.
#[repr(C)]
pub struct Node256 {
    /// Common header.
    pub hdr: NodeHeader,
    children: [AtomicUsize; 256],
}

const EMPTY48: u8 = 0xFF;

// ---------------------------------------------------------------------
// Tagged pointer helpers
// ---------------------------------------------------------------------

/// Is this pointer a leaf?
#[inline]
pub fn is_leaf(p: NodePtr) -> bool {
    p & 1 == 1
}

/// Allocate a leaf and return its tagged pointer.
///
/// Leaves (and internal nodes, see [`alloc`]) come from the size-class
/// slab arena (`crate::arena`), not the global allocator: nodes created
/// together sit densely on the same pages, which is what makes the
/// fast-pointer jumps and AMAC ring prefetches pay off. Arena slots are
/// ≥16-aligned, so bit 0 is always free for the leaf tag.
pub fn make_leaf(key: u64, value: u64) -> NodePtr {
    let p = crate::arena::arena_alloc(std::mem::size_of::<Leaf>()) as *mut Leaf;
    // SAFETY: fresh, exclusively owned slot of sufficient size and
    // alignment (16-byte slots, Leaf is 16 bytes / 8-aligned).
    unsafe {
        p.write(Leaf {
            key,
            value: AtomicU64::new(value),
        });
    }
    p as usize | 1
}

/// Dereference a tagged leaf pointer.
///
/// # Safety
/// `p` must be a live leaf pointer (tag bit set) protected by an epoch
/// guard for the duration of `'g`.
#[inline]
pub unsafe fn leaf_ref<'g>(p: NodePtr) -> &'g Leaf {
    debug_assert!(is_leaf(p));
    &*((p & !1) as *const Leaf)
}

/// Dereference an internal node pointer as its shared header.
///
/// # Safety
/// `p` must be a live internal node pointer (tag bit clear, non-null)
/// protected by an epoch guard for the duration of `'g`.
#[inline]
pub unsafe fn header<'g>(p: NodePtr) -> &'g NodeHeader {
    debug_assert!(p != 0 && !is_leaf(p));
    &*(p as *const NodeHeader)
}

macro_rules! as_node {
    ($p:expr, $t:ty) => {
        &*($p as *const $t)
    };
}

// ---------------------------------------------------------------------
// Allocation / deallocation
// ---------------------------------------------------------------------

fn atomic_u8_array<const N: usize>(fill: u8) -> [AtomicU8; N] {
    std::array::from_fn(|_| AtomicU8::new(fill))
}

fn atomic_usize_array<const N: usize>() -> [AtomicUsize; N] {
    std::array::from_fn(|_| AtomicUsize::new(0))
}

/// Write `val` into a fresh arena slot sized/aligned for `T` and return
/// the untagged pointer value.
fn arena_new<T>(val: T) -> usize {
    let p = crate::arena::arena_alloc(std::mem::size_of::<T>()) as *mut T;
    // SAFETY: fresh, exclusively owned slot; internal-node slots are
    // 64-aligned (≥ align_of::<T>() for every node type).
    unsafe { p.write(val) };
    p as usize
}

/// Allocate an empty internal node of the given type from the slab arena
/// (see [`make_leaf`] for why nodes don't come from `Box`).
pub fn alloc(node_type: NodeType) -> NodePtr {
    match node_type {
        NodeType::N4 => arena_new(Node4 {
            hdr: NodeHeader::new(NodeType::N4),
            keys: atomic_u8_array(0),
            children: atomic_usize_array(),
        }),
        NodeType::N16 => arena_new(Node16 {
            hdr: NodeHeader::new(NodeType::N16),
            keys: atomic_u8_array(0),
            children: atomic_usize_array(),
        }),
        NodeType::N48 => arena_new(Node48 {
            hdr: NodeHeader::new(NodeType::N48),
            index: atomic_u8_array(EMPTY48),
            children: atomic_usize_array(),
        }),
        NodeType::N256 => arena_new(Node256 {
            hdr: NodeHeader::new(NodeType::N256),
            children: atomic_usize_array(),
        }),
    }
}

/// Size in bytes of the allocation behind a tagged pointer.
pub fn alloc_size(p: NodePtr) -> usize {
    if is_leaf(p) {
        return std::mem::size_of::<Leaf>();
    }
    // SAFETY: caller guarantees `p` is live; we only read the type tag.
    match unsafe { header(p) }.node_type {
        NodeType::N4 => std::mem::size_of::<Node4>(),
        NodeType::N16 => std::mem::size_of::<Node16>(),
        NodeType::N48 => std::mem::size_of::<Node48>(),
        NodeType::N256 => std::mem::size_of::<Node256>(),
    }
}

/// Drop `T` in place and return its slot to the arena free list.
unsafe fn arena_drop<T>(p: *mut T) {
    std::ptr::drop_in_place(p);
    crate::arena::arena_dealloc(p as *mut u8, std::mem::size_of::<T>());
}

/// Immediately return the slot behind a tagged pointer to the arena.
///
/// In tree code this runs through epoch reclamation
/// (`Guard::defer_unchecked`), which is what makes arena slot reuse safe
/// against doomed optimistic readers: the slot re-enters the free list
/// only after every reader that could have seen the old node has
/// unpinned (see `crate::arena` docs / DESIGN.md §15).
///
/// # Safety
/// `p` must be a live pointer produced by [`alloc`] or [`make_leaf`], not
/// reachable by any other thread.
pub unsafe fn dealloc(p: NodePtr) {
    if p == 0 {
        return;
    }
    if is_leaf(p) {
        arena_drop((p & !1) as *mut Leaf);
        return;
    }
    match header(p).node_type {
        NodeType::N4 => arena_drop(p as *mut Node4),
        NodeType::N16 => arena_drop(p as *mut Node16),
        NodeType::N48 => arena_drop(p as *mut Node48),
        NodeType::N256 => arena_drop(p as *mut Node256),
    }
}

/// Recursively free a whole subtree (used by `Drop`, single-threaded).
///
/// # Safety
/// No other thread may access the subtree.
pub unsafe fn dealloc_subtree(p: NodePtr) {
    if p == 0 {
        return;
    }
    if !is_leaf(p) {
        for_each_child(p, |_, child| {
            dealloc_subtree(child);
        });
    }
    dealloc(p);
}

// ---------------------------------------------------------------------
// Child access (all functions take live pointers; the caller is
// responsible for epoch protection and, for mutations, the write lock).
// ---------------------------------------------------------------------

/// Find the child pointer for `byte`, or 0 if absent.
///
/// # Safety
/// `p` must be a live internal node pointer.
pub unsafe fn find_child(p: NodePtr, byte: u8) -> NodePtr {
    let hdr = header(p);
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            let cnt = hdr.count().min(4);
            for i in 0..cnt {
                if n.keys[i].load(Ordering::Acquire) == byte {
                    return n.children[i].load(Ordering::Acquire);
                }
            }
            0
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            let cnt = hdr.count().min(16);
            for i in 0..cnt {
                if n.keys[i].load(Ordering::Acquire) == byte {
                    return n.children[i].load(Ordering::Acquire);
                }
            }
            0
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            node48_slot(n, byte)
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].load(Ordering::Acquire)
        }
    }
}

/// The two dependent Node48 loads (`index[byte]` → `children[idx]`) with
/// the out-of-range bound check shared by [`find_child`] and
/// [`find_child_racing`].
///
/// The only values ever stored into `index[byte]` are [`EMPTY48`] (the
/// initial fill and `remove_child`) and `slot as u8` for a slot found by
/// scanning the 48-entry children array (`insert_child` /
/// `insert_child_unchecked_count`), so at rest every entry is in
/// `0..=47` or `EMPTY48`. A racing optimistic reader still cannot see
/// anything else — `AtomicU8` (and the per-byte atomicity the SIMD path
/// relies on, DESIGN.md §15) rules out torn bytes. The bound check is
/// therefore defense in depth: if a corrupt value ever did appear,
/// clamping it (as this code once did with `.min(47)`) would silently
/// return `children[47]` — a live pointer to the *wrong* child, which
/// version validation cannot catch because the node itself was never
/// locked. Treating `idx >= 48` as "absent" instead keeps the failure
/// mode a miss, never a wrong descent.
#[inline(always)]
unsafe fn node48_slot(n: &Node48, byte: u8) -> NodePtr {
    let idx = n.index[byte as usize].load(Ordering::Acquire) as usize;
    if idx >= 48 {
        // EMPTY48 (0xFF) and any out-of-range value mean "absent".
        0
    } else {
        n.children[idx].load(Ordering::Acquire)
    }
}

/// [`find_child`] with vectorized key search for the sorted node types —
/// one 16-lane compare instead of a per-byte load loop (SSE2/NEON via
/// `crates/simd`; identical scalar semantics when SIMD is disabled).
///
/// Node48/Node256 lookups are already O(1) pointer chases and share the
/// scalar helpers (including the Node48 bound check).
///
/// # Safety
/// `p` must be a live internal node pointer, **and** the caller must be
/// inside an optimistic read section: the result is untrusted until the
/// node's version validates, and nothing derived from it may be
/// dereferenced before that validation succeeds (DESIGN.md §15). The
/// write-locked paths keep using [`find_child`], whose per-byte atomic
/// loads need no such protocol.
pub unsafe fn find_child_racing(p: NodePtr, byte: u8) -> NodePtr {
    let hdr = header(p);
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            let cnt = hdr.count().min(4);
            // SAFETY: the 16-byte vector load starts at `keys` and stays
            // inside the Node4 allocation — the 4 key bytes are followed
            // by (padding +) 32 bytes of children, so ≥16 bytes of the
            // node remain readable. Lanes ≥ cnt are masked off by
            // `find_byte16`. The racing-read result is revalidated by
            // the caller per this function's contract.
            match simd::find_byte16(n.keys.as_ptr() as *const u8, byte, cnt) {
                Some(i) => n.children[i].load(Ordering::Acquire),
                None => 0,
            }
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            let cnt = hdr.count().min(16);
            // SAFETY: `keys` is exactly 16 in-bounds bytes; caller
            // revalidates per this function's contract.
            match simd::find_byte16(n.keys.as_ptr() as *const u8, byte, cnt) {
                Some(i) => n.children[i].load(Ordering::Acquire),
                None => 0,
            }
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            node48_slot(n, byte)
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].load(Ordering::Acquire)
        }
    }
}

/// Whether the node has no room for another child.
///
/// # Safety
/// `p` must be a live internal node pointer.
pub unsafe fn is_full(p: NodePtr) -> bool {
    let hdr = header(p);
    let cap = match hdr.node_type {
        NodeType::N4 => 4,
        NodeType::N16 => 16,
        NodeType::N48 => 48,
        NodeType::N256 => 256,
    };
    hdr.count() >= cap
}

/// Insert a child under `byte`. The node must be write-locked and not
/// full, and `byte` must not already be present.
///
/// # Safety
/// `p` live internal node, write lock held by the caller.
pub unsafe fn insert_child(p: NodePtr, byte: u8, child: NodePtr) {
    let hdr = header(p);
    let cnt = hdr.count();
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            insert_sorted(&n.keys, &n.children, cnt, byte, child);
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            insert_sorted(&n.keys, &n.children, cnt, byte, child);
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            // Find a free slot in the children array.
            let mut slot = usize::MAX;
            for (i, c) in n.children.iter().enumerate() {
                if c.load(Ordering::Relaxed) == 0 {
                    slot = i;
                    break;
                }
            }
            debug_assert!(slot != usize::MAX, "insert into full Node48");
            n.children[slot].store(child, Ordering::Release);
            n.index[byte as usize].store(slot as u8, Ordering::Release);
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].store(child, Ordering::Release);
        }
    }
    hdr.set_count(cnt + 1);
}

// Audit note (optimistic readers vs the shift loops below, incl. the
// SIMD vector search in `find_child_racing` — DESIGN.md §15): the writer
// holds the node's version lock for the whole shift, so every concurrent
// reader of this node is an *optimistic* one that snapshotted the version
// beforehand and will fail `validate` afterwards — any conclusion drawn
// from a mid-shift view is discarded before it is acted on. What must
// hold even for a doomed reader is memory safety of the read itself:
//
// * Every load/store is a single aligned `AtomicU8`/`AtomicUsize` (or a
//   per-byte-atomic vector load), so no torn *bytes* — a mid-shift view
//   is some interleaving of old and new array states.
// * Every child slot a reader can index (bounded by `count().min(N)` or
//   a masked 16-lane match) holds, at every intermediate step, either 0
//   or a pointer that was live at some point during the shift: the
//   shifts only copy existing entries (transiently duplicating a
//   neighbor, never inventing a pointer), `insert_sorted` moves
//   right-to-left before storing the new child, and `remove_sorted`
//   moves left-to-right before clearing the vacated tail slot. Epoch
//   reclamation keeps "live at some point while the reader was pinned"
//   dereferenceable, so a doomed reader may descend into the *wrong*
//   (duplicated/stale) child but never into freed memory — and the
//   caller's validate rejects the result before it escapes.
// * `count` is updated after the arrays (insert) or before them (remove,
//   via the caller storing count last); either way readers clamp with
//   `.min(N)` so a stale count cannot index out of bounds.
//
// The `node.shift` chaos point widens the mid-shift windows under the
// `chaos` feature so the seeded schedule sweeps actually exercise these
// interleavings (see tests/chaos_schedules.rs).
unsafe fn insert_sorted(
    keys: &[AtomicU8],
    children: &[AtomicUsize],
    cnt: usize,
    byte: u8,
    child: NodePtr,
) {
    let mut pos = cnt;
    for i in 0..cnt {
        if keys[i].load(Ordering::Relaxed) > byte {
            pos = i;
            break;
        }
    }
    // Shift right from the end so concurrent optimistic readers (who will
    // fail validation anyway) never observe an out-of-bounds index.
    let mut i = cnt;
    while i > pos {
        testkit::chaos_point!("node.shift");
        keys[i].store(keys[i - 1].load(Ordering::Relaxed), Ordering::Release);
        children[i].store(children[i - 1].load(Ordering::Relaxed), Ordering::Release);
        i -= 1;
    }
    testkit::chaos_point!("node.shift");
    keys[pos].store(byte, Ordering::Release);
    children[pos].store(child, Ordering::Release);
}

/// Replace the child pointer stored under `byte` (which must exist).
/// Node must be write-locked.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn replace_child(p: NodePtr, byte: u8, child: NodePtr) {
    let hdr = header(p);
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            for i in 0..hdr.count() {
                if n.keys[i].load(Ordering::Relaxed) == byte {
                    n.children[i].store(child, Ordering::Release);
                    return;
                }
            }
            unreachable!("replace_child: byte not found in Node4");
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            for i in 0..hdr.count() {
                if n.keys[i].load(Ordering::Relaxed) == byte {
                    n.children[i].store(child, Ordering::Release);
                    return;
                }
            }
            unreachable!("replace_child: byte not found in Node16");
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            let idx = n.index[byte as usize].load(Ordering::Relaxed);
            debug_assert!(idx != EMPTY48);
            n.children[idx as usize].store(child, Ordering::Release);
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].store(child, Ordering::Release);
        }
    }
}

/// Remove the child under `byte` (which must exist). Node must be
/// write-locked.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn remove_child(p: NodePtr, byte: u8) {
    let hdr = header(p);
    let cnt = hdr.count();
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            remove_sorted(&n.keys, &n.children, cnt, byte);
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            remove_sorted(&n.keys, &n.children, cnt, byte);
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            let idx = n.index[byte as usize].load(Ordering::Relaxed);
            debug_assert!(idx != EMPTY48);
            // Order matters for doomed optimistic readers: retract the
            // index entry *before* clearing the child slot. A reader that
            // loads `index[byte]` in this window either sees EMPTY48
            // (miss — correct once validation is factored in) or the old
            // slot index, whose child entry still holds the live-until-
            // epoch-drain pointer or 0 — never a slot already recycled
            // for a different byte, because reuse requires a later
            // `insert_child` under this same write lock, and that bumps
            // the version the reader is about to validate against. The
            // reverse order (children first) would leave a window where
            // `index[byte]` points at a slot that a subsequent unlocked
            // state could repopulate for another byte while the reader's
            // snapshot was still "valid-looking"; keeping index-first
            // means a stale positive always resolves through the stale
            // slot, and validation kills it.
            n.index[byte as usize].store(EMPTY48, Ordering::Release);
            testkit::chaos_point!("node.shift");
            n.children[idx as usize].store(0, Ordering::Release);
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].store(0, Ordering::Release);
        }
    }
    hdr.set_count(cnt - 1);
}

unsafe fn remove_sorted(keys: &[AtomicU8], children: &[AtomicUsize], cnt: usize, byte: u8) {
    let mut pos = usize::MAX;
    for i in 0..cnt {
        if keys[i].load(Ordering::Relaxed) == byte {
            pos = i;
            break;
        }
    }
    debug_assert!(pos != usize::MAX, "remove_child: byte not found");
    // Left-to-right copy, then clear the vacated tail slot last — see the
    // audit note above `insert_sorted` for why every mid-shift view a
    // doomed optimistic reader can take is memory-safe.
    for i in pos..cnt - 1 {
        testkit::chaos_point!("node.shift");
        keys[i].store(keys[i + 1].load(Ordering::Relaxed), Ordering::Release);
        children[i].store(children[i + 1].load(Ordering::Relaxed), Ordering::Release);
    }
    testkit::chaos_point!("node.shift");
    children[cnt - 1].store(0, Ordering::Release);
}

/// Visit every (byte, child) pair in ascending byte order.
///
/// # Safety
/// `p` must be a live internal node pointer. Under concurrency the caller
/// must validate the node's version afterwards.
pub unsafe fn for_each_child(p: NodePtr, mut f: impl FnMut(u8, NodePtr)) {
    let hdr = header(p);
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            for i in 0..hdr.count().min(4) {
                let c = n.children[i].load(Ordering::Acquire);
                if c != 0 {
                    f(n.keys[i].load(Ordering::Acquire), c);
                }
            }
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            for i in 0..hdr.count().min(16) {
                let c = n.children[i].load(Ordering::Acquire);
                if c != 0 {
                    f(n.keys[i].load(Ordering::Acquire), c);
                }
            }
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            for byte in 0..=255u8 {
                let idx = n.index[byte as usize].load(Ordering::Acquire) as usize;
                // Same bound check as `node48_slot`: EMPTY48 and any
                // (impossible-at-rest) out-of-range value mean "absent",
                // never a clamped wrong slot.
                if idx < 48 {
                    let c = n.children[idx].load(Ordering::Acquire);
                    if c != 0 {
                        f(byte, c);
                    }
                }
            }
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            for byte in 0..=255u16 {
                let c = n.children[byte as usize].load(Ordering::Acquire);
                if c != 0 {
                    f(byte as u8, c);
                }
            }
        }
    }
}

/// Grow a full node into the next larger type, copying children, prefix,
/// match level, and the fast-pointer buffer slot. The original node must
/// be write-locked; the returned node is fresh and unshared.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn grow(p: NodePtr) -> NodePtr {
    let hdr = header(p);
    let next = match hdr.node_type {
        NodeType::N4 => NodeType::N16,
        NodeType::N16 => NodeType::N48,
        NodeType::N48 => NodeType::N256,
        NodeType::N256 => unreachable!("Node256 cannot grow"),
    };
    let newp = alloc(next);
    copy_into(p, newp);
    newp
}

/// Shrink an underfull node into the next smaller type (see
/// [`shrink_candidate`]). Same contract as [`grow`].
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn shrink(p: NodePtr) -> NodePtr {
    let hdr = header(p);
    let smaller = match hdr.node_type {
        NodeType::N16 => NodeType::N4,
        NodeType::N48 => NodeType::N16,
        NodeType::N256 => NodeType::N48,
        NodeType::N4 => unreachable!("Node4 shrinks by merging, not by type change"),
    };
    let newp = alloc(smaller);
    copy_into(p, newp);
    newp
}

/// Whether removing one child would leave the node small enough to shrink
/// to the next type down.
///
/// # Safety
/// `p` live internal node.
pub unsafe fn shrink_candidate(p: NodePtr) -> bool {
    let hdr = header(p);
    match hdr.node_type {
        NodeType::N4 => false,
        NodeType::N16 => hdr.count() <= 4,
        NodeType::N48 => hdr.count() <= 13,
        NodeType::N256 => hdr.count() <= 38,
    }
}

unsafe fn copy_into(src: NodePtr, dst: NodePtr) {
    let shdr = header(src);
    let dhdr = header(dst);
    let (bytes, len, lvl) = shdr.prefix();
    dhdr.set_prefix(&bytes[..len], lvl);
    dhdr.buffer_slot
        .store(shdr.buffer_slot.load(Ordering::Acquire), Ordering::Release);
    let mut cnt = 0usize;
    for_each_child(src, |b, c| {
        insert_child_unchecked_count(dst, b, c);
        cnt += 1;
    });
    dhdr.set_count(cnt);
}

/// insert_child without count bookkeeping (used by copy_into which sets
/// the count once at the end).
unsafe fn insert_child_unchecked_count(p: NodePtr, byte: u8, child: NodePtr) {
    let hdr = header(p);
    let cnt = hdr.count();
    hdr.set_count(cnt); // no-op, keeps symmetry
    match hdr.node_type {
        NodeType::N4 => {
            let n = as_node!(p, Node4);
            // copy_into visits in ascending order: append.
            let pos = current_len(&n.keys, &n.children);
            n.keys[pos].store(byte, Ordering::Relaxed);
            n.children[pos].store(child, Ordering::Relaxed);
        }
        NodeType::N16 => {
            let n = as_node!(p, Node16);
            let pos = current_len(&n.keys, &n.children);
            n.keys[pos].store(byte, Ordering::Relaxed);
            n.children[pos].store(child, Ordering::Relaxed);
        }
        NodeType::N48 => {
            let n = as_node!(p, Node48);
            let mut slot = usize::MAX;
            for (i, c) in n.children.iter().enumerate() {
                if c.load(Ordering::Relaxed) == 0 {
                    slot = i;
                    break;
                }
            }
            n.children[slot].store(child, Ordering::Relaxed);
            n.index[byte as usize].store(slot as u8, Ordering::Relaxed);
        }
        NodeType::N256 => {
            let n = as_node!(p, Node256);
            n.children[byte as usize].store(child, Ordering::Relaxed);
        }
    }
}

unsafe fn current_len(_keys: &[AtomicU8], children: &[AtomicUsize]) -> usize {
    let mut len = 0;
    for c in children {
        if c.load(Ordering::Relaxed) == 0 {
            break;
        }
        len += 1;
    }
    len
}

/// Clone a node (same type, same children/prefix/metadata) — used when a
/// node's prefix must change: the original is replaced and marked
/// obsolete instead of mutated in place, so stale fast-pointer jumps can
/// never descend with outdated path bytes.
///
/// # Safety
/// `p` live internal node, write lock held by the caller.
pub unsafe fn clone_node(p: NodePtr) -> NodePtr {
    let newp = alloc(header(p).node_type);
    copy_into(p, newp);
    newp
}

/// Extract the byte of `key` at byte position `depth` (0 = most
/// significant, big-endian).
#[inline]
pub fn key_byte(key: u64, depth: usize) -> u8 {
    debug_assert!(depth < 8);
    (key >> (56 - 8 * depth)) as u8
}

/// The big-endian byte array of a key.
#[inline]
pub fn key_bytes(key: u64) -> [u8; 8] {
    key.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_word_roundtrips() {
        let hdr = NodeHeader::new(NodeType::N4);
        hdr.set_prefix(&[0xAA, 0xBB, 0xCC], 5);
        let (bytes, len, lvl) = hdr.prefix();
        assert_eq!(len, 3);
        assert_eq!(lvl, 5);
        assert_eq!(&bytes[..3], &[0xAA, 0xBB, 0xCC]);
        assert_eq!(hdr.match_level(), 5);
        hdr.set_prefix(&[], 0);
        let (_, len, lvl) = hdr.prefix();
        assert_eq!((len, lvl), (0, 0));
    }

    #[test]
    fn key_byte_is_big_endian() {
        let k = 0x0102030405060708u64;
        for (i, expected) in (1..=8).enumerate() {
            assert_eq!(key_byte(k, i), expected as u8);
        }
    }

    #[test]
    fn node4_insert_find_remove() {
        unsafe {
            let p = alloc(NodeType::N4);
            header(p).version.lock();
            insert_child(p, 30, make_leaf(30, 1));
            insert_child(p, 10, make_leaf(10, 2));
            insert_child(p, 20, make_leaf(20, 3));
            assert_eq!(header(p).count(), 3);
            // Sorted order check via iteration.
            let mut seen = Vec::new();
            for_each_child(p, |b, _| seen.push(b));
            assert_eq!(seen, vec![10, 20, 30]);
            let c = find_child(p, 20);
            assert!(is_leaf(c));
            assert_eq!(leaf_ref(c).key, 20);
            assert_eq!(find_child(p, 99), 0);
            let c10 = find_child(p, 10);
            remove_child(p, 10);
            dealloc(c10);
            assert_eq!(find_child(p, 10), 0);
            assert_eq!(header(p).count(), 2);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn grow_preserves_children_and_metadata() {
        unsafe {
            let p = alloc(NodeType::N4);
            header(p).set_prefix(&[7, 8], 3);
            header(p).buffer_slot.store(42, Ordering::Relaxed);
            header(p).version.lock();
            for b in [5u8, 1, 9, 200] {
                insert_child(p, b, make_leaf(b as u64, b as u64));
            }
            assert!(is_full(p));
            let big = grow(p);
            assert_eq!(header(big).node_type, NodeType::N16);
            assert_eq!(header(big).count(), 4);
            let (bytes, len, lvl) = header(big).prefix();
            assert_eq!((&bytes[..len], lvl), (&[7u8, 8][..], 3));
            assert_eq!(header(big).buffer_slot.load(Ordering::Relaxed), 42);
            let mut seen = Vec::new();
            for_each_child(big, |b, c| {
                assert_eq!(leaf_ref(c).key, b as u64);
                seen.push(b);
            });
            assert_eq!(seen, vec![1, 5, 9, 200]);
            header(p).version.unlock();
            dealloc(p); // children now owned by `big`
            dealloc_subtree(big);
        }
    }

    #[test]
    fn full_growth_chain_4_to_256() {
        unsafe {
            let mut p = alloc(NodeType::N4);
            header(p).version.lock();
            let mut inserted = Vec::new();
            for b in 0..=255u8 {
                if is_full(p) {
                    let bigger = grow(p);
                    header(bigger).version.lock();
                    header(p).version.unlock_obsolete();
                    dealloc(p);
                    p = bigger;
                }
                insert_child(p, b, make_leaf(b as u64, 0));
                inserted.push(b);
            }
            assert_eq!(header(p).node_type, NodeType::N256);
            assert_eq!(header(p).count(), 256);
            for b in inserted {
                let c = find_child(p, b);
                assert!(c != 0, "byte {b} lost during growth");
                assert_eq!(leaf_ref(c).key, b as u64);
            }
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn shrink_preserves_children() {
        unsafe {
            let p = alloc(NodeType::N16);
            header(p).version.lock();
            for b in [9u8, 3, 7] {
                insert_child(p, b, make_leaf(b as u64, 0));
            }
            assert!(shrink_candidate(p));
            let small = shrink(p);
            assert_eq!(header(small).node_type, NodeType::N4);
            assert_eq!(header(small).count(), 3);
            let mut seen = Vec::new();
            for_each_child(small, |b, _| seen.push(b));
            assert_eq!(seen, vec![3, 7, 9]);
            header(p).version.unlock();
            dealloc(p);
            dealloc_subtree(small);
        }
    }

    #[test]
    fn node48_index_paths() {
        unsafe {
            let p = alloc(NodeType::N48);
            header(p).version.lock();
            for b in (0..96u16).step_by(2) {
                insert_child(p, b as u8, make_leaf(b as u64, 0));
            }
            assert_eq!(header(p).count(), 48);
            assert!(is_full(p));
            assert_eq!(find_child(p, 95), 0);
            assert!(find_child(p, 94) != 0);
            let gone = find_child(p, 40);
            remove_child(p, 40);
            dealloc(gone);
            assert_eq!(find_child(p, 40), 0);
            // Slot is reusable.
            insert_child(p, 41, make_leaf(41, 0));
            assert!(find_child(p, 41) != 0);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn node48_out_of_range_index_treated_as_absent() {
        // Regression: the old code clamped a Node48 slot index with
        // `.min(47)`, so a corrupt out-of-range index entry silently
        // resolved to `children[47]` — a live pointer to the WRONG
        // child — instead of "absent". Poke such a value directly (only
        // possible from this in-crate test; real stores are provably
        // 0..=47 or EMPTY48, see `node48_slot`) and check every lookup
        // path reports a miss.
        unsafe {
            let p = alloc(NodeType::N48);
            header(p).version.lock();
            // Fill all 48 slots so children[47] is non-null (the old
            // clamp would have returned it).
            for b in (0..96u16).step_by(2) {
                insert_child(p, b as u8, make_leaf(b as u64, 0));
            }
            assert!(is_full(p));
            let n = as_node!(p, Node48);
            assert!(n.children[47].load(Ordering::Relaxed) != 0);
            // Byte 255 was never inserted; plant a corrupt index entry.
            n.index[255].store(200, Ordering::Release);
            assert_eq!(find_child(p, 255), 0, "find_child must report a miss");
            assert_eq!(
                find_child_racing(p, 255),
                0,
                "find_child_racing must report a miss"
            );
            let mut seen_255 = false;
            for_each_child(p, |b, _| seen_255 |= b == 255);
            assert!(!seen_255, "for_each_child must skip the corrupt entry");
            // Restore sanity so dealloc_subtree doesn't double-visit.
            n.index[255].store(EMPTY48, Ordering::Release);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn racing_find_matches_scalar_on_quiescent_nodes() {
        unsafe {
            for ty in [NodeType::N4, NodeType::N16, NodeType::N48, NodeType::N256] {
                let p = alloc(ty);
                header(p).version.lock();
                let cap = match ty {
                    NodeType::N4 => 4u16,
                    NodeType::N16 => 16,
                    NodeType::N48 => 48,
                    NodeType::N256 => 256,
                };
                for b in 0..cap {
                    insert_child(p, (b * 5 % 256) as u8, make_leaf(b as u64, 0));
                }
                for byte in 0..=255u16 {
                    assert_eq!(
                        find_child(p, byte as u8),
                        find_child_racing(p, byte as u8),
                        "{ty:?} byte {byte}"
                    );
                }
                header(p).version.unlock();
                dealloc_subtree(p);
            }
        }
    }

    #[test]
    fn replace_child_swaps_pointer() {
        unsafe {
            let p = alloc(NodeType::N4);
            header(p).version.lock();
            let old = make_leaf(5, 1);
            insert_child(p, 5, old);
            let newc = make_leaf(5, 2);
            replace_child(p, 5, newc);
            let got = find_child(p, 5);
            assert_eq!(leaf_ref(got).value.load(Ordering::Relaxed), 2);
            header(p).version.unlock();
            dealloc(old);
            dealloc_subtree(p);
        }
    }
}
