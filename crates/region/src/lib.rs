//! Range-sharded **region router**: wraps any [`index_api::ConcurrentIndex`]
//! in N key-range shards behind a lock-free-read routing table, adapts the
//! shard boundaries to observed hotspots (split/merge), and serves point
//! lookups through an async batching front-end that turns in-flight
//! requests into AMAC `get_batch` rings.
//!
//! # Architecture (DESIGN.md §17)
//!
//! * [`RegionIndex`] — the router. The routing table is an immutable
//!   `Vec<Arc<Shard>>` published through a `crossbeam_epoch::Atomic`, the
//!   same RCU shape as ALT-index's model directory: readers pin, load,
//!   route, and never block. Structural changes (split/merge) build a new
//!   table, swap it in, **retire** the replaced shards, and defer-destroy
//!   the old table.
//! * Split is a bounded two-phase copy: phase 1 copies the upper half of
//!   the hot shard into a fresh index with no freeze; phase 2 freezes
//!   writers (per-shard `gate` RwLock), reconciles what changed during
//!   phase 1, and publishes. Readers are never frozen — they validate a
//!   shard's `retired` flag after each read and re-route if the shard was
//!   replaced mid-flight.
//! * [`BatchServer`] — the serving front-end. Per-shard submission queues
//!   accumulate in-flight gets; a full ring (or the background flusher)
//!   executes one `get_batch` per queue, so the AMAC engines see real
//!   batches on the serving path. Admission control sheds load through
//!   the `resilience` retry budget when queues stay full.
//!
//! The router is index-agnostic: any `ConcurrentIndex + BulkLoad` works
//! as the per-shard engine (`RegionIndex<AltIndex>`, `RegionIndex<Art>`,
//! ...).

#![warn(missing_docs)]

mod router;
mod serve;
mod structure;
mod worker;

pub use router::{MaintenanceFreeze, MaintenanceReport, RegionIndex, RegionStats};
pub use serve::{BatchServer, ServeConfig, ServeError, ServeStats};

use std::time::Duration;

/// Tuning knobs for a [`RegionIndex`].
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Shard count at construction (boundaries are key-quantiles of the
    /// bulk-load array). Clamped to at least 1.
    pub initial_shards: usize,
    /// Hard ceiling on the shard count; splits stop here.
    pub max_shards: usize,
    /// A shard must hold at least this many keys to be split (and the
    /// two-phase copy moves about half of them).
    pub min_split_keys: usize,
    /// An adjacent shard pair is merge-eligible only when its combined
    /// key count is at most this.
    pub merge_max_keys: usize,
    /// A shard is split-eligible when it absorbed at least this many
    /// operations since the previous maintenance tick.
    pub split_ops_threshold: u64,
    /// An adjacent shard pair is merge-eligible when its combined
    /// operations since the previous tick are at most this. Keep well
    /// below [`RegionConfig::split_ops_threshold`] to avoid
    /// split/merge ping-pong.
    pub merge_ops_threshold: u64,
    /// How often the background worker (when [`RegionConfig::auto`] is
    /// set) runs a maintenance tick.
    pub check_interval: Duration,
    /// Spawn a background maintenance worker that splits hotspots and
    /// merges cold neighbours automatically. When `false`, maintenance
    /// only runs through explicit [`RegionIndex::tick`] calls.
    pub auto: bool,
    /// Worker threads used to bulk-load the per-shard indexes at
    /// construction (split-built shards always build serially — they are
    /// bounded by `min_split_keys`).
    pub construction_threads: usize,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            initial_shards: 4,
            max_shards: 64,
            min_split_keys: 4096,
            merge_max_keys: 1024,
            split_ops_threshold: 100_000,
            merge_ops_threshold: 100,
            check_interval: Duration::from_millis(50),
            auto: false,
            construction_threads: 1,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A minimal reference index (mutex + `BTreeMap`) so the router's
    //! unit tests don't depend on any real engine crate.
    use index_api::{BulkLoad, ConcurrentIndex, IndexError, Key, Result, Value, RESERVED_KEY};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    pub(crate) struct MapIndex(Mutex<BTreeMap<Key, Value>>);

    impl ConcurrentIndex for MapIndex {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, value: Value) -> Result<()> {
            if key == RESERVED_KEY {
                return Err(IndexError::ReservedKey);
            }
            let mut m = self.0.lock().unwrap();
            if m.contains_key(&key) {
                return Err(IndexError::DuplicateKey);
            }
            m.insert(key, value);
            Ok(())
        }
        fn update(&self, key: Key, value: Value) -> Result<()> {
            match self.0.lock().unwrap().get_mut(&key) {
                Some(v) => {
                    *v = value;
                    Ok(())
                }
                None => Err(IndexError::KeyNotFound),
            }
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().remove(&key)
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
            let m = self.0.lock().unwrap();
            let before = out.len();
            out.extend(m.range(lo..=hi).map(|(&k, &v)| (k, v)));
            out.len() - before
        }
        fn memory_usage(&self) -> usize {
            self.0.lock().unwrap().len() * 16
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "map"
        }
    }

    impl BulkLoad for MapIndex {
        fn bulk_load(pairs: &[(Key, Value)]) -> Self {
            index_api::debug_validate_bulk_input(pairs);
            MapIndex(Mutex::new(pairs.iter().copied().collect()))
        }
    }
}
