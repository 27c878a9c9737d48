//! A concurrent Adaptive Radix Tree (Leis et al., ICDE 2013) with
//! optimistic lock coupling (Leis et al., DaMoN 2016) over `u64 -> u64`.
//!
//! This crate is both a substrate and a baseline for the ALT-index
//! reproduction:
//!
//! * As a **substrate**, it is the ART-OPT layer of ALT-index: every node
//!   carries a `match_level` (its depth in key bytes) and a fast-pointer
//!   `buffer_slot`, and the tree fires a [`ReplaceHook`] whenever a node
//!   referenced by the fast-pointer buffer is replaced (node expansion,
//!   prefix extraction, shrink, or merge) — the two invalidation scenarios
//!   of §III-C of the paper. The [`Art::lca_node`] / [`Art::get_from`] /
//!   [`Art::insert_from`] entry points let ALT-index resume searches from
//!   an intermediate node instead of the root.
//! * As a **baseline**, it is the "ART" competitor of Table I and
//!   Figs 7-9 (plain root-based operations).
//!
//! Concurrency: readers are lock-free (version validation + epoch-based
//! reclamation via `crossbeam-epoch`); writers lock at most a parent/child
//! pair. Values are updated in place through an atomic in the leaf.

#![warn(missing_docs)]
// Prefix-comparison loops index with `depth + i` arithmetic; iterator
// adaptors would obscure the byte-position math.
#![allow(clippy::needless_range_loop)]

mod api;
pub(crate) mod arena;
mod batch;
mod jump;
// Exposed (unstably) for the scalar-vs-SIMD equivalence suite
// (tests/simd_equivalence.rs) and the batch_lookup bench; the stable
// surface is the re-export list below.
#[doc(hidden)]
pub mod node;
mod olc;
mod scan;
mod stats;
mod tree;

pub use arena::{arena_alloc_fail_count, arena_allocated_bytes};
pub use batch::{BatchCursor, BatchStep, RING_WIDTH};
pub use node::{key_byte, key_bytes, NodePtr, NodeType, MAX_PREFIX, NO_SLOT};
pub use olc::VersionLock;
pub use stats::ArtStats;
pub use tree::{Art, FromResult, ReplaceHook, SetSlotResult};

/// Counts this crate's retry-loop contention events: the `note` every
/// counted [`resilience::Retry`] step here reports to.
fn count_contention(e: resilience::Event) {
    match e {
        resilience::Event::Escalate => obs::incr!(Counter::ArtEscalation),
        resilience::Event::Yield => obs::incr!(Counter::ArtBackoffYield),
        resilience::Event::Park => obs::incr!(Counter::ArtBackoffPark),
    }
}
