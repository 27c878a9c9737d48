//! **ALT-index**: a hybrid learned index for concurrent memory database
//! systems — reproduction of Yang et al., ICDE 2025.
//!
//! ALT-index is a two-tier, concurrent, updatable ordered index over
//! `u64 -> u64`:
//!
//! * The **learned index layer** is a flat array of linear *GPL models*
//!   (built by the Greedy Pessimistic Linear segmentation algorithm,
//!   [`learned::gpl`]). Every key stored here sits at exactly its
//!   predicted slot, so this layer has **no prediction error** and never
//!   performs a secondary search.
//! * The **ART-OPT layer** ([`art`]) holds conflict data — keys whose
//!   predicted slot is taken — behind a **fast pointer buffer** that lets
//!   each model resume ART searches at an intermediate node instead of
//!   the root.
//!
//! Concurrency: slot-granularity optimistic versioning in the learned
//! layer, spin-locked appends to the pointer buffer, and optimistic lock
//! coupling in ART (§III-E of the paper). Overcrowded models are rebuilt
//! on the fly (§III-F).
//!
//! # Quick start
//!
//! ```
//! use alt_index::AltIndex;
//!
//! let pairs: Vec<(u64, u64)> = (1..=100_000u64).map(|k| (k * 13, k)).collect();
//! let idx = AltIndex::bulk_load_default(&pairs);
//!
//! assert_eq!(idx.get(13), Some(1));
//! idx.insert(7, 700).unwrap();
//! idx.update(7, 701).unwrap();
//! let mut out = Vec::new();
//! idx.range(1, 100, &mut out);
//! assert!(out.contains(&(7, 701)));
//! assert_eq!(idx.remove(7), Some(701));
//! ```

#![warn(missing_docs)]
// Prefix-comparison loops index with `depth + i` arithmetic; iterator
// adaptors would obscure the byte-position math.
#![allow(clippy::needless_range_loop)]

mod adapt;
mod api;
mod batch;
pub mod config;
pub mod dir;
pub mod fast_ptr;
pub mod index;
pub mod model;
pub mod retrain;
pub mod scan;
pub(crate) mod sched;
pub mod slots;
pub mod spin;
pub mod stats;

pub use config::{default_build_threads, AltConfig, BgRetrainPolicy, RetrainMode};
pub use index::{AltCore, AltIndex, FaultStats};
pub use stats::{AltStats, ArtProbe};

/// Counts this crate's retry-loop contention events: the `note` every
/// counted [`resilience::Retry`] step here reports to.
fn count_contention(e: resilience::Event) {
    match e {
        resilience::Event::Escalate => obs::incr!(Counter::AltEscalation),
        resilience::Event::Yield => obs::incr!(Counter::AltBackoffYield),
        resilience::Event::Park => obs::incr!(Counter::AltBackoffPark),
    }
}
