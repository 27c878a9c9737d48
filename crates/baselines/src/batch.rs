//! Group-prefetch batched lookups for the baseline indexes.
//!
//! The baselines deliberately stay close to their published designs, so
//! they get the cheap batching variant rather than a full AMAC state
//! machine: keys are processed in groups of [`PREFETCH_GROUP`]; a first
//! pass over the group issues a software prefetch for each key's first
//! dependent cache line (the ALEX node, the XIndex group, the FINEdex
//! model, the LIPP root slot), then a second pass runs the ordinary
//! scalar probes. By the time probe `i` runs, its line has had the other
//! group members' prefetches worth of time in flight — most of the
//! benefit of interleaving at a fraction of the complexity, and a fair
//! "what does batching buy without restructuring" comparison point for
//! the ALT/ART engines (`DESIGN.md` §13).

use index_api::ConcurrentIndex;

/// Keys per prefetch group. Large enough that the last prefetch of a
/// pass has real work between it and its probe, small enough that the
/// first prefetched line is still resident when its probe runs.
pub(crate) const PREFETCH_GROUP: usize = 16;

/// Shared driver: validate the output buffer, then alternate
/// prefetch-pass / probe-pass over [`PREFETCH_GROUP`]-sized groups.
/// `prefetch_group` receives each group of keys and is expected to issue
/// one prefetch per key (skipping the reserved key 0) and record it via
/// `obs::incr!(Counter::BaselineBatchPrefetch)`.
pub(crate) fn get_batch_grouped<I, F>(
    idx: &I,
    keys: &[u64],
    out: &mut [Option<u64>],
    prefetch_group: F,
) where
    I: ConcurrentIndex + ?Sized,
    F: Fn(&[u64]),
{
    assert!(
        out.len() >= keys.len(),
        "get_batch: out buffer ({}) shorter than keys ({})",
        out.len(),
        keys.len()
    );
    let mut start = 0;
    while start < keys.len() {
        let end = (start + PREFETCH_GROUP).min(keys.len());
        prefetch_group(&keys[start..end]);
        for i in start..end {
            out[i] = idx.get(keys[i]);
        }
        start = end;
    }
}
