//! AMAC-style batched lookups across both tiers (see `DESIGN.md` §13).
//!
//! The scalar [`AltIndex::get`] is one model prediction plus one slot
//! probe — which makes its cost almost entirely cache misses: the
//! directory line, the predicted slot's line, and (for conflict keys)
//! the ART descent. This module overlaps those misses across a small
//! ring of in-flight keys. Each key is a state machine:
//!
//! 1. **Predict** — locate the GPL model in the directory, compute the
//!    predicted slot, issue a prefetch for the slot's cache line;
//! 2. **Probe** — the optimistic slot read (same version protocol as the
//!    scalar path). Learned-layer hits and conclusive misses finish
//!    here; a tombstone or colliding occupant resolves the model's fast
//!    pointer, prefetches the target node, and hands off to
//! 3. **ART descent** — the interleaved engine of `art::batch`, one
//!    prefetch-then-advance hop per step.
//!
//! The driver round-robins the ring so every prefetch gets a full
//! revolution of other keys' work before its line is touched.
//!
//! Per-key linearizability: every transition replays the scalar
//! protocol exactly — the same slot version snapshot, the same
//! `is_retired` / `version_unchanged` re-validations before a miss is
//! declared conclusive, the same per-key retry budget escalating to
//! [`AltIndex::get_pessimistic`]. Interleaving other keys between a
//! key's stages only widens the window between its snapshot and its
//! validation; it never skips a validation, so each result is one some
//! scalar `get` interleaved at the same instants could have returned.

use crate::index::AltCore;
use crate::model::{GplModel, NO_FAST};
use crate::slots::SlotState;
use art::{BatchCursor, BatchStep, RING_WIDTH};
use crossbeam_epoch::{self as epoch, Guard};

/// The paused state of one in-flight key.
enum Stage<'g> {
    /// Slot prefetch issued; the optimistic probe runs next step.
    Probe { m: &'g GplModel, pred: usize },
    /// Handed off to the interleaved ART descent. `ver` is the slot
    /// snapshot from the probe — an ART miss is only conclusive if the
    /// slot (and model) are unchanged since, exactly like the scalar
    /// path.
    Art {
        m: &'g GplModel,
        pred: usize,
        ver: u32,
        tombstone: bool,
        cur: BatchCursor,
    },
}

/// One in-flight key: its position in the output, its state-machine
/// stage, and its personal retry budget.
struct Flight<'g> {
    ki: usize,
    key: u64,
    retry: resilience::Retry,
    stage: Stage<'g>,
}

impl AltCore {
    /// Batched point lookup over the AMAC ring: `out[i] = get(keys[i])`
    /// with up to [`RING_WIDTH`] lookups in flight, their directory,
    /// slot, and ART-node misses overlapped by software prefetching.
    /// This is the [`index_api::ConcurrentIndex::get_batch`]
    /// implementation for ALT-index.
    pub fn get_batch_amac(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert!(
            out.len() >= keys.len(),
            "get_batch: out buffer ({}) shorter than keys ({})",
            out.len(),
            keys.len()
        );
        obs::incr!(Counter::AltBatchLookups);
        obs::add!(Counter::AltBatchKeys, keys.len());
        // One pin for the whole batch: it keeps every flight's model
        // reference (possibly from a superseded directory) and every ART
        // cursor's node pointers alive until the ring drains.
        let guard = epoch::pin();
        let mut next = 0usize;
        let mut ring: Vec<Flight<'_>> = Vec::with_capacity(RING_WIDTH.min(keys.len()));
        fill(self, keys, out, &mut next, &mut ring, &guard);
        let mut i = 0usize;
        while !ring.is_empty() {
            if i >= ring.len() {
                i = 0;
            }
            match step(self, &mut ring[i], &guard) {
                None => i += 1,
                Some(res) => {
                    out[ring[i].ki] = res;
                    ring.swap_remove(i);
                    // Refill so a fresh key's probe lands a full ring
                    // revolution after its prefetch.
                    fill(self, keys, out, &mut next, &mut ring, &guard);
                }
            }
        }
    }
}

/// Top up the ring with fresh flights from the key stream. Reserved key
/// 0 is answered inline (`None`, same as scalar `get`) without taking a
/// ring slot.
///
/// Admission is *grouped*: the batch gathers every fresh key's model
/// first, then computes all their predictions in one vectorized pass
/// ([`learned::predict_f_group`] — packed f64 multiplies, bit-identical
/// to the scalar `GplModel::predict`), and only then issues the slot
/// prefetches. Besides using the vector unit, this orders all the
/// directory walks before all the slot-line prefetches, so no admitted
/// key's prefetch is wasted warming a line that a later admission's
/// directory walk then evicts.
#[inline]
fn fill<'g>(
    idx: &AltCore,
    keys: &[u64],
    out: &mut [Option<u64>],
    next: &mut usize,
    ring: &mut Vec<Flight<'g>>,
    guard: &'g Guard,
) {
    let mut kis = [0usize; RING_WIDTH];
    let mut ks = [0u64; RING_WIDTH];
    let mut models: [Option<&'g GplModel>; RING_WIDTH] = [None; RING_WIDTH];
    let mut lms = [learned::LinearModel::point(0); RING_WIDTH];
    let mut n = 0usize;
    while *next < keys.len() && ring.len() + n < RING_WIDTH {
        let ki = *next;
        *next += 1;
        if keys[ki] == 0 {
            out[ki] = None;
            continue;
        }
        let m: &'g GplModel = idx.dir_ref(guard).model_for(keys[ki]);
        kis[n] = ki;
        ks[n] = keys[ki];
        models[n] = Some(m);
        lms[n] = m.model;
        n += 1;
    }
    if n == 0 {
        return;
    }
    let mut pf = [0.0f64; RING_WIDTH];
    learned::predict_f_group(&lms[..n], &ks[..n], &mut pf[..n]);
    for i in 0..n {
        let m = models[i].expect("gathered above");
        // Same rounding as `GplModel::predict` (see `clamp_pos`), so the
        // grouped path probes exactly the scalar path's slot.
        let pred = learned::LinearModel::clamp_pos(pf[i], m.slots.capacity());
        m.slots.prefetch(pred);
        obs::incr!(Counter::AltBatchPrefetch);
        ring.push(Flight {
            ki: kis[i],
            key: ks[i],
            retry: resilience::Retry::seeded(ks[i]),
            stage: Stage::Probe { m, pred },
        });
    }
}

/// Recompute the key's (model, predicted slot) from the current
/// directory and issue the slot prefetch.
#[inline]
fn restage<'g>(idx: &AltCore, fl: &mut Flight<'g>, guard: &'g Guard) {
    let dir = idx.dir_ref(guard);
    let m: &'g GplModel = dir.model_for(fl.key);
    let pred = m.predict(fl.key);
    m.slots.prefetch(pred);
    obs::incr!(Counter::AltBatchPrefetch);
    fl.stage = Stage::Probe { m, pred };
}

/// A failed validation: charge the key's budget, then either escalate to
/// the conclusive pessimistic lookup or send the key back to the predict
/// stage (the directory may have been republished).
fn restart<'g>(idx: &AltCore, fl: &mut Flight<'g>, guard: &'g Guard) -> Option<Option<u64>> {
    obs::incr!(Counter::AltBatchRestart);
    if fl
        .retry
        .wait_or_escalate(&idx.cfg.contention, crate::count_contention)
    {
        return Some(idx.get_pessimistic(fl.key));
    }
    restage(idx, fl, guard);
    None
}

/// Advance one flight by one stage. `Some(result)` retires the key.
#[inline]
fn step<'g>(idx: &AltCore, fl: &mut Flight<'g>, guard: &'g Guard) -> Option<Option<u64>> {
    testkit::chaos_point!("batch.stage");
    match &mut fl.stage {
        Stage::Probe { m, pred } => {
            let (m, pred) = (*m, *pred);
            let (state, ver) = m.slots.read(pred);
            match state {
                SlotState::Occupied { key: k, value } if k == fl.key => {
                    obs::incr!(Counter::AltBatchLearnedHit);
                    Some(Some(value))
                }
                SlotState::Empty => {
                    // An empty predicted slot is conclusive unless the
                    // model was replaced mid-probe (Algorithm 2 line 5-6).
                    if m.is_retired() {
                        restart(idx, fl, guard)
                    } else {
                        obs::incr!(Counter::AltBatchLearnedHit);
                        Some(None)
                    }
                }
                SlotState::Tombstone | SlotState::Occupied { .. } => {
                    // Conflict data: hand off to the interleaved ART
                    // descent, entering through the model's fast pointer
                    // when one is registered.
                    obs::incr!(Counter::AltBatchArtHandoff);
                    let cur = fast_cursor(idx, m, fl.key);
                    obs::incr!(Counter::AltBatchPrefetch);
                    fl.stage = Stage::Art {
                        m,
                        pred,
                        ver,
                        tombstone: state == SlotState::Tombstone,
                        cur,
                    };
                    None
                }
            }
        }
        Stage::Art {
            m,
            pred,
            ver,
            tombstone,
            cur,
        } => {
            let (m, pred, ver, tombstone) = (*m, *pred, *ver, *tombstone);
            // SAFETY: the ring's epoch pin (`get_batch_amac`) has been
            // held since the cursor was created and outlives it.
            let step = unsafe { idx.art.batch_step(cur) };
            match step {
                BatchStep::Pending => None,
                BatchStep::Done(Some(v)) => {
                    if idx.cfg.write_back && tombstone {
                        idx.try_write_back(m, pred, fl.key, v);
                    }
                    Some(Some(v))
                }
                BatchStep::Done(None) => {
                    // The miss is only conclusive if nothing moved under
                    // us — same re-validation as the scalar path.
                    if m.is_retired() || !m.slots.version_unchanged(pred, ver) {
                        restart(idx, fl, guard)
                    } else {
                        Some(None)
                    }
                }
                // The cursor's budget ran out: the scalar path owns the
                // guaranteed-progress escalation chain.
                BatchStep::Escalate => Some(AltCore::get(idx, fl.key)),
            }
        }
    }
}

/// Build the ART cursor for a handed-off key, entering through the
/// model's fast pointer when it has a live one (the batch analogue of
/// `AltIndex::art_get`'s jump path, minus its hit/de-opt accounting —
/// the handoff split is recorded by the caller).
#[inline]
fn fast_cursor(idx: &AltCore, m: &GplModel, key: u64) -> BatchCursor {
    if idx.cfg.fast_pointers && key >= m.first_key {
        let fs = m.fast();
        if fs != NO_FAST {
            let node = idx.buffer.get(fs);
            if node != 0 {
                // SAFETY: `node` is maintained by the replace-hook
                // protocol, the caller's epoch pin spans the cursor's
                // whole life, and the key lies in the model's interval
                // (checked above), so the jump covers it.
                return unsafe { idx.art.batch_cursor_from(node, key) };
            }
        }
    }
    idx.art.batch_cursor(key)
}

#[cfg(test)]
mod tests {
    use crate::config::AltConfig;
    use crate::index::AltIndex;

    fn sample_index(cfg: AltConfig) -> (AltIndex, Vec<(u64, u64)>) {
        // A mildly irregular key distribution so some keys conflict into
        // ART and others sit in their predicted slots.
        let pairs: Vec<(u64, u64)> = (1..=30_000u64).map(|i| (i * 7 + (i % 13) * 3, i)).collect();
        let mut pairs = pairs;
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let idx = AltIndex::bulk_load_with(&pairs, cfg);
        (idx, pairs)
    }

    #[test]
    fn batch_matches_scalar_gets() {
        let (idx, pairs) = sample_index(AltConfig::default());
        // Mix of present keys, near misses, far misses, and key 0.
        let keys: Vec<u64> = (0..400usize)
            .map(|i| match i % 4 {
                0 => pairs[(i * 37) % pairs.len()].0,
                1 => pairs[(i * 53) % pairs.len()].0 + 1,
                2 => 0,
                _ => u64::MAX - i as u64,
            })
            .collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn batch_matches_scalar_without_fast_pointers() {
        let (idx, pairs) = sample_index(AltConfig {
            fast_pointers: false,
            ..Default::default()
        });
        let keys: Vec<u64> = pairs.iter().step_by(97).map(|p| p.0).collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], Some(pairs.iter().find(|p| p.0 == k).unwrap().1));
        }
    }

    #[test]
    fn batch_sees_removals_and_art_residents() {
        let (idx, pairs) = sample_index(AltConfig::default());
        // Remove every 11th key, then re-insert neighbours so tombstones
        // and ART conflicts both appear on the lookup path.
        let mut removed = Vec::new();
        for p in pairs.iter().step_by(11) {
            idx.remove(p.0);
            removed.push(p.0);
        }
        for p in pairs.iter().step_by(23) {
            let k = p.0 + 2;
            let _ = idx.insert(k, 0xBEEF);
        }
        let keys: Vec<u64> = pairs
            .iter()
            .step_by(5)
            .map(|p| p.0)
            .chain(removed.iter().copied())
            .collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn batch_width_edge_cases() {
        let (idx, pairs) = sample_index(AltConfig::default());
        for width in [0usize, 1, 7, 8, 9, 61] {
            let keys: Vec<u64> = pairs.iter().take(width).map(|p| p.0).collect();
            let mut out = vec![None; width];
            idx.get_batch_amac(&keys, &mut out);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i], idx.get(k), "width {width}, key {k}");
            }
        }
    }
}
