//! Dynamic retraining (§III-F): partial refactoring of one overcrowded
//! GPL model.
//!
//! When a model's overflow inserts exceed its build size, the span is
//! rebuilt: live slot entries are merged with the span's ART residents,
//! re-segmented with GPL at a gap budget and ε planned from the observed
//! data (`adapt.rs`), and the fresh model(s) are swapped into the
//! directory RCU-style. ART keys absorbed by the new slots are then
//! deleted from ART; keys that still conflict stay there. If the
//! retrained model was the last one, re-segmentation naturally grows new
//! tail models for out-of-range insertions.
//!
//! There is one, two-phase rebuild (`AltCore::rebuild`). Inline mode runs
//! it on the inserting thread and background mode on a worker; the modes
//! differ only in how they take `dir_lock`.

use crate::adapt::plan_retrain;
use crate::index::{segment_and_build, AltCore};
use crate::model::{GplModel, NO_FAST};
use crate::sched::SchedShared;
use crate::slots::SlotState;
use crossbeam_epoch as epoch;
use parking_lot::MutexGuard;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One span's data captured under the model's write lock: the span's
/// ART residents, and their merge with the live slot entries (slot copy
/// wins on the rare double-presence — write-back deletes the ART copy
/// on sight anyway). Both are key-sorted.
struct SpanSnapshot {
    art_pairs: Vec<(u64, u64)>,
    merged: Vec<(u64, u64)>,
}

/// Publish-completion guard for the swap→retire window. Armed
/// immediately *after* the RCU swap (never before: marking the model
/// retired while the old directory is still published would send every
/// reader into an infinite retry loop), it stores `retired = true` on
/// drop — including during an unwind — so a panic between the swap and
/// the retire store can never leave readers consulting a replaced
/// model's slots while writers target the new one (the lost-update
/// hazard DESIGN.md §16 walks through).
struct RetireOnDrop<'a>(&'a GplModel);

impl Drop for RetireOnDrop<'_> {
    fn drop(&mut self) {
        self.0.retired.store(true, Ordering::Release);
    }
}

impl AltCore {
    /// Number of completed retrains (Fig 8(b) hot-write diagnostics).
    pub fn retrain_count(&self) -> usize {
        self.retrains.load(Ordering::Relaxed)
    }

    /// Number of retrain attempts that got past the trigger checks,
    /// whether or not they published a new directory. An attempt count
    /// racing far ahead of [`AltCore::retrain_count`] means the trigger
    /// accounting is broken (e.g. an overflow counter that never resets).
    pub fn retrain_attempt_count(&self) -> usize {
        self.retrain_attempts.load(Ordering::Relaxed)
    }

    /// Wait until every queued and in-flight background retrain has
    /// finished. A no-op in inline mode — inline retrains complete
    /// before the triggering insert returns.
    pub fn retrain_quiesce(&self) {
        if let Some(s) = &self.sched {
            s.quiesce();
        }
    }

    /// Post-insert retrain dispatch: retrain inline (the paper's
    /// behaviour) or enqueue a prioritized request for the background
    /// worker pool, depending on
    /// [`retrain_mode`](crate::config::AltConfig::retrain_mode).
    pub(crate) fn trigger_retrain(&self, key: u64) {
        let Some(sched) = &self.sched else {
            // Inline mode: contain the structural path so a panic
            // (injected or real) mid-retrain can't take the inserting
            // thread — and with it the caller's whole workload — down.
            self.contained_inline_retrain(key, None);
            return;
        };
        if sched.is_degraded() {
            // Degraded mode: background scheduling is suspended after
            // repeated worker panics; serve the overflow with a
            // contained inline retrain (the throughput floor) and feed
            // the recovery streak.
            self.contained_inline_retrain(key, Some(sched));
            return;
        }
        let guard = epoch::pin();
        let m = self.dir_ref(&guard).model_for(key);
        if m.is_retired() || !m.wants_retrain() {
            return;
        }
        // Priority = the span's overflow pressure, scaled so a span at
        // exactly its trigger threshold scores 256. Equal pressures drain
        // in enqueue order.
        let overflow = m.art_inserts.load(Ordering::Relaxed) as u64;
        let priority = overflow.saturating_mul(256) / m.build_size.max(16) as u64;
        // Containment: an injected panic at `sched.enqueue` unwinds to
        // here, not into the inserting thread's caller. The request is
        // simply lost — the next overflow insert re-triggers.
        if catch_unwind(AssertUnwindSafe(|| {
            sched.enqueue(m.first_key, key, priority)
        }))
        .is_err()
        {
            obs::incr!(Counter::RetrainBgDropped);
        }
    }

    /// Run [`Self::maybe_retrain`] inside `catch_unwind`. A contained
    /// panic counts as a rollback (the drop-guards inside the retrain
    /// have already released every lock and completed or never started
    /// the publish); in degraded mode the outcome feeds the scheduler's
    /// recovery streak.
    fn contained_inline_retrain(&self, key_hint: u64, sched: Option<&SchedShared>) {
        match catch_unwind(AssertUnwindSafe(|| self.maybe_retrain(key_hint))) {
            Ok(()) => {
                if let Some(s) = sched {
                    s.note_inline_result(true);
                }
            }
            Err(_) => {
                self.count_rollback();
                if let Some(s) = sched {
                    s.note_inline_result(false);
                }
            }
        }
    }

    /// Count one rolled-back (or contained-after-publish) retrain.
    pub(crate) fn count_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RetrainRollback);
    }

    /// Collect the span of `dir.models[mi]`: live slots + the ART range.
    /// The caller must hold the model's `op_lock` write side (writers
    /// quiesced) and `dir_lock` (directory frozen).
    fn collect_span(&self, dir: &crate::dir::ModelDir, mi: usize, m: &GplModel) -> SpanSnapshot {
        let mut slot_pairs: Vec<(u64, u64)> = Vec::with_capacity(m.build_size);
        m.slots.for_each_live(|_, k, v| slot_pairs.push((k, v)));
        let lo = if mi == 0 { 1 } else { m.first_key };
        let hi = dir.upper_bound(mi).map(|u| u - 1).unwrap_or(u64::MAX);
        let mut art_pairs: Vec<(u64, u64)> = Vec::new();
        self.art.range(lo, hi, &mut art_pairs);
        let merged = merge_pairs(&slot_pairs, &art_pairs);
        SpanSnapshot { art_pairs, merged }
    }

    /// Inline retrain of the model covering `key_hint`, run on the
    /// inserting thread (inline mode and the degraded-mode fallback).
    /// Quietly returns if another structural change is in flight: the
    /// `try_lock` means an escalated op holding `dir_lock` can never
    /// deadlock a retrain trigger, and the next overflow insert retries.
    pub(crate) fn maybe_retrain(&self, key_hint: u64) {
        if !self.cfg.retrain {
            return;
        }
        let Some(dl) = self.dir_lock.try_lock() else {
            obs::incr!(Counter::RetrainSkippedBusy);
            return;
        };
        self.rebuild(&dl, key_hint);
    }

    /// Background retrain of the model covering `key_hint`, run by a
    /// worker. Blocking on `dir_lock` (not `try_lock`) is fine off the
    /// hot path and means a drained request is never silently lost to a
    /// racing escalation.
    pub(crate) fn retrain_background(&self, key_hint: u64) {
        if !self.cfg.retrain {
            return;
        }
        let dl = self.dir_lock.lock();
        self.rebuild(&dl, key_hint);
    }

    /// The two-phase rebuild (§III-F) of the model covering `key_hint`.
    /// Taking the `dir_lock` guard proves the caller holds it; it
    /// freezes the directory and serializes structural changes for the
    /// whole run. The model's `op_lock` write side is taken twice,
    /// briefly:
    ///
    /// 1. **Collect** — snapshot the span (slots + ART range), then
    ///    release the write lock. Writers resume against the *old*
    ///    layout while the new models are built from the snapshot.
    /// 2. **Reconcile + publish** — re-take the write lock, re-collect,
    ///    and diff the two snapshots: every key inserted, updated, or
    ///    removed during the build is applied to the still-private new
    ///    models (or to the conflict set). Then conflicts go into ART,
    ///    fast pointers are registered, the directory epoch is bumped,
    ///    the directory is RCU-swapped, the old model retired, and the
    ///    absorbed ART keys removed.
    ///
    /// Readers never block: they follow `retired` to the new directory
    /// once published. Why the off-lock build is race-free: DESIGN.md §14.
    fn rebuild(&self, _dl: &MutexGuard<'_, ()>, key_hint: u64) {
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let mi = dir.locate(key_hint);
        let m = &dir.models[mi];
        if m.is_retired() || !m.wants_retrain() {
            return;
        }
        self.retrain_attempts.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RetrainAttempt);

        // Phase 1: snapshot under a short writer stall, then let writers
        // back in for the build.
        let t_collect = obs::phase_start!();
        let before = {
            let _wl = m.op_lock.write();
            // Injected panic: unwinds through `_wl` and the caller's
            // `dir_lock` guard (both RAII-released) into the caller's
            // `catch_unwind`; nothing has changed yet.
            failpoint::point!("retrain.collect");
            self.collect_span(dir, mi, m)
        };
        obs::phase_end!(Phase::RetrainCollect, t_collect);
        if before.merged.is_empty() {
            // Everything in the span was removed; nothing to refactor.
            // The overflow inserts that tripped the trigger are gone with
            // the rest of the span, so reset the accounting — leaving it
            // high would keep `wants_retrain()` true and send every later
            // overflow insert straight back here for another futile
            // collect-and-bail pass.
            m.art_inserts.store(0, Ordering::Relaxed);
            obs::incr!(Counter::RetrainEmptySpan);
            return;
        }

        // Build off the write lock: concurrent inserts/updates/removes
        // proceed against the old layout and are reconciled below.
        let t_build = obs::phase_start!();
        // Fallible build: an injected Error/AllocFail (or, one day, a
        // real fallible-allocation failure) aborts the retrain cleanly
        // before anything shared is touched. `art_inserts` is left high
        // on purpose — the next overflow insert retries (self-healing).
        if failpoint::should_fail!("retrain.build") {
            self.count_rollback();
            return;
        }
        let plan = plan_retrain(
            &before.merged,
            before.art_pairs.len(),
            self.epsilon,
            m.expansions,
        );
        let (models, conflicts) = segment_and_build(
            &before.merged,
            plan.epsilon,
            self.cfg.gap_factor,
            plan.expansions,
            Some(m.first_key),
        );
        // Mutable conflict set: the delta below may add (new collisions)
        // or drop (conflicted keys removed mid-build) entries.
        let mut conflict_map: BTreeMap<u64, u64> = conflicts.into_iter().collect();
        obs::phase_end!(Phase::RetrainBuild, t_build);

        // Phase 2: writers stalled again for reconcile + publish.
        let _wl = m.op_lock.write();
        let t_reconcile = obs::phase_start!();
        // Fallible reconcile: aborting here discards the private build
        // entirely — the old directory is still published, no shared
        // state was touched, and the write lock releases on return.
        if failpoint::should_fail!("retrain.reconcile") {
            self.count_rollback();
            return;
        }
        let after = self.collect_span(dir, mi, m);
        apply_delta(&models, &before.merged, &after.merged, &mut conflict_map);
        obs::phase_end!(Phase::RetrainReconcile, t_reconcile);

        // Every still-conflicting key must be reachable through ART
        // before the swap so no reader window misses it. (Keys that
        // conflicted at build time and were already ART residents are
        // re-upserted with their current value — a no-op.)
        for (&k, &v) in &conflict_map {
            self.art.upsert(k, v);
        }

        // Register fast pointers for the new models (reusing entries via
        // the merge scheme).
        if self.cfg.fast_pointers {
            let next_after = dir.upper_bound(mi);
            for (i, nm) in models.iter().enumerate() {
                let upper = models.get(i + 1).map(|n| n.first_key).or(next_after);
                let slot = match upper {
                    Some(u) => self.buffer.register(&self.art, nm.first_key, u),
                    None => NO_FAST,
                };
                nm.fast_slot.store(slot, Ordering::Release);
            }
        }

        // Publish the new directory and retire the old snapshot. The
        // epoch bump must precede the swap: scans that saw the old epoch
        // and miss this swap will re-read it, notice the change, and
        // retry instead of mixing an old slot walk with a post-absorb
        // ART view.
        let t_swap = obs::phase_start!();
        let new_dir = dir.replace(mi, models);
        self.dir_epoch.fetch_add(1, Ordering::Release);
        testkit::chaos_point!("retrain.pre_swap");
        let old = self
            .dir
            .swap(epoch::Owned::new(new_dir), Ordering::AcqRel, &guard);
        // The new directory is now published: from here the old model
        // MUST end up retired even if we unwind, or readers that cached
        // it would keep serving replaced slots while writers target the
        // new ones. The guard stores `retired` on drop (armed only
        // after the swap — see its doc comment).
        let retire_guard = RetireOnDrop(m);
        // SAFETY: `old` was just unlinked under `dir_lock`; readers still
        // holding it are protected by their epoch pins.
        unsafe { guard.defer_destroy(old) };
        // Widen the window between directory publication and the retired
        // flag — readers caught here must still find every key.
        testkit::chaos_point!("retrain.post_swap");
        failpoint::point!("retrain.swap");
        drop(retire_guard);
        obs::phase_end!(Phase::RetrainSwap, t_swap);
        let t_cleanup = obs::phase_start!();

        // Absorb pass over the *phase-2* ART snapshot: every span key
        // still in ART that the new slots absorbed gets deleted; the
        // still-conflicting ones stay. Readers racing these deletes see
        // `retired` and retry against the new directory. A panic
        // mid-pass leaves the remaining keys present in *both* layers —
        // benign double presence the op paths already handle (the slot
        // copy wins and the values are equal; the next retrain of the
        // span merges them away).
        for &(k, _) in &after.art_pairs {
            if !conflict_map.contains_key(&k) {
                testkit::chaos_point!("retrain.absorb_remove");
                failpoint::point!("retrain.absorb");
                self.art.remove(k);
            }
        }
        obs::phase_end!(Phase::RetrainCleanup, t_cleanup);
        self.retrains.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RetrainCompleted);
    }
}

/// Route `key` to the model that will own it in `models` (sorted by
/// `first_key`; keys below the first model's span route to it, matching
/// the directory's `model_for`).
fn locate_new_model(models: &[Arc<GplModel>], key: u64) -> &GplModel {
    let i = models.partition_point(|m| m.first_key <= key);
    &models[i.saturating_sub(1)]
}

/// Apply the differences between two span snapshots (`before` feeding
/// the build, `after` collected at publish time — both key-sorted) to
/// the still-private new `models`.
///
/// * A key added or revalued during the build is placed at its
///   predicted slot (installing over Empty/Tombstone, revaluing a same-
///   key resident) or, if the slot holds another key, recorded in
///   `conflict_map` for the pre-swap ART upsert and counted in its new
///   model's `art_inserts`.
/// * A key removed during the build is dropped from `conflict_map` or
///   tombstoned out of its predicted slot.
///
/// The models are unpublished, so slot locks are uncontended and every
/// mutation is ordinary `with_write` traffic.
fn apply_delta(
    models: &[Arc<GplModel>],
    before: &[(u64, u64)],
    after: &[(u64, u64)],
    conflict_map: &mut BTreeMap<u64, u64>,
) {
    let upsert_new = |k: u64, v: u64, conflict_map: &mut BTreeMap<u64, u64>| {
        if let Some(slot) = conflict_map.get_mut(&k) {
            *slot = v;
            return;
        }
        let m = locate_new_model(models, k);
        let pred = m.predict(k);
        m.slots.with_write(pred, |g| match g.state() {
            SlotState::Occupied { key, .. } if key == k => g.set_value(v),
            SlotState::Empty | SlotState::Tombstone => g.install(k, v),
            SlotState::Occupied { .. } => {
                conflict_map.insert(k, v);
                // Had it arrived after the swap, this insert would have
                // overflowed into ART through `place` and counted
                // toward the retrain trigger; count it the same way.
                m.art_inserts.fetch_add(1, Ordering::Relaxed);
            }
        });
    };
    let remove_new = |k: u64, conflict_map: &mut BTreeMap<u64, u64>| {
        if conflict_map.remove(&k).is_some() {
            return;
        }
        let m = locate_new_model(models, k);
        m.slots.remove_if_key(m.predict(k), k);
    };

    let (mut i, mut j) = (0, 0);
    while i < before.len() && j < after.len() {
        let (bk, bv) = before[i];
        let (ak, av) = after[j];
        match bk.cmp(&ak) {
            std::cmp::Ordering::Less => {
                remove_new(bk, conflict_map);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                upsert_new(ak, av, conflict_map);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if bv != av {
                    upsert_new(ak, av, conflict_map);
                }
                i += 1;
                j += 1;
            }
        }
    }
    for &(bk, _) in &before[i..] {
        remove_new(bk, conflict_map);
    }
    for &(ak, av) in &after[j..] {
        upsert_new(ak, av, conflict_map);
    }
}

/// Merge two sorted pair slices; `a` wins on duplicate keys.
fn merge_pairs(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AltConfig;
    use crate::index::AltIndex;
    use std::sync::Arc;

    #[test]
    fn merge_pairs_dedupes_preferring_left() {
        let a = [(1u64, 10u64), (3, 30), (5, 50)];
        let b = [(2u64, 20u64), (3, 31), (6, 60)];
        assert_eq!(
            merge_pairs(&a, &b),
            vec![(1, 10), (2, 20), (3, 30), (5, 50), (6, 60)]
        );
        assert_eq!(merge_pairs(&[], &b), b.to_vec());
        assert_eq!(merge_pairs(&a, &[]), a.to_vec());
    }

    #[test]
    fn delta_conflicts_count_toward_the_new_models_trigger() {
        // Keys appended past the span during the build predict the last
        // slot, which the build already filled: each becomes a conflict
        // and counts as an overflow insert, as it would after the swap.
        let before: Vec<(u64, u64)> = (1..=200u64).map(|i| (i * 10, i)).collect();
        let (models, conflicts) = segment_and_build(&before, 16.0, 1.25, 0, Some(10));
        let mut conflict_map: BTreeMap<u64, u64> = conflicts.into_iter().collect();
        let overflow = || -> usize {
            models
                .iter()
                .map(|m| m.art_inserts.load(Ordering::Relaxed))
                .sum()
        };
        let (built, pre) = (conflict_map.len(), overflow());
        let appended: Vec<(u64, u64)> = (1..=50u64).map(|i| (1_000_000 + i, i)).collect();
        apply_delta(
            &models,
            &before,
            &merge_pairs(&before, &appended),
            &mut conflict_map,
        );
        let added = conflict_map.len() - built;
        assert!(added > 0, "appends past the span must conflict");
        assert_eq!(
            overflow() - pre,
            added,
            "every delta conflict is counted once"
        );
    }

    #[test]
    fn hot_insert_burst_triggers_retrain_and_keeps_all_keys() {
        // Small bulk load, then a dense burst into one region — the
        // paper's hot-write scenario — retrained by the inserting thread
        // (inline) or by the worker pool (background; the inserting
        // thread only enqueues).
        for cfg in [AltConfig::default(), AltConfig::background()] {
            let mode = cfg.retrain_mode;
            let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
            let idx = AltIndex::bulk_load_with(
                &pairs,
                AltConfig {
                    epsilon: Some(64.0),
                    ..cfg
                },
            );
            // Burst: ~20k consecutive keys inside one model's span
            // (skipping the multiples of 1000 that exist from the bulk
            // load).
            let burst: Vec<u64> = (500_001..=520_000u64).filter(|k| k % 1000 != 0).collect();
            for &k in &burst {
                idx.insert(k, k).unwrap();
            }
            idx.retrain_quiesce();
            assert!(idx.retrain_count() > 0, "{mode:?}: burst must retrain");
            for &k in &burst {
                assert_eq!(idx.get(k), Some(k), "{mode:?}: hot key {k}");
            }
            for &(k, v) in &pairs {
                assert_eq!(idx.get(k), Some(v), "{mode:?}: bulk key {k}");
            }
            assert_eq!(idx.len(), 2_000 + burst.len(), "{mode:?}");
        }
    }

    #[test]
    fn retrain_moves_data_back_into_learned_layer() {
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        for k in (100_001..=110_000u64).filter(|k| k % 1000 != 0) {
            idx.insert(k, k).unwrap();
        }
        let s = idx.stats();
        assert!(idx.retrain_count() > 0);
        // After retraining, the learned layer holds the majority of the
        // hot region (dense consecutive keys are perfectly linear).
        assert!(
            s.keys_in_learned > s.keys_in_art,
            "learned {} vs art {}",
            s.keys_in_learned,
            s.keys_in_art
        );
    }

    #[test]
    fn empty_span_retrain_resets_overflow_accounting() {
        // Regression: `maybe_retrain` on a fully-emptied span used to
        // bail out leaving `art_inserts` above the trigger threshold, so
        // `wants_retrain()` stayed true and every later overflow insert
        // paid another futile collect-and-bail pass.
        let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        // Empty every span: all live slots and ART residents go away.
        for &(k, _) in &pairs {
            assert!(idx.remove(k).is_some());
        }
        assert_eq!(idx.len(), 0);

        // Push one model over the retrain trigger by hand and invoke the
        // retrain path directly — it must take the empty-span early exit.
        let target = 500_000u64;
        let guard = epoch::pin();
        let m = idx.dir_ref(&guard).model_for(target);
        m.art_inserts
            .store(m.build_size.max(16) + 100, Ordering::Relaxed);
        assert!(m.wants_retrain());
        idx.maybe_retrain(target);
        assert_eq!(idx.retrain_attempt_count(), 1, "one collect-and-bail pass");
        assert_eq!(idx.retrain_count(), 0, "nothing to publish");
        assert!(
            !m.wants_retrain(),
            "empty-span exit must reset the overflow accounting"
        );

        // A handful of dense keys below the trigger threshold: the later
        // ones collide into occupied slots and overflow to ART, which
        // re-checks `wants_retrain` on every such insert. With the stale
        // counter they would all come straight back here (attempt count
        // climbs); with the reset they must not.
        for k in 500_001..=500_010u64 {
            idx.insert(k, k).unwrap();
        }
        assert_eq!(
            idx.retrain_attempt_count(),
            1,
            "sub-threshold overflow inserts must not re-enter retrain"
        );
        for k in 500_001..=500_010u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn tail_growth_appends_models() {
        // Inserting past the last model's span must eventually grow new
        // tail models rather than drowning ART.
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        let models_before = idx.stats().num_models;
        for k in 10_000..30_000u64 {
            idx.insert(k, k).unwrap();
        }
        let models_after = idx.stats().num_models;
        assert!(
            models_after > models_before,
            "{models_after} !> {models_before}"
        );
        for k in 10_000..30_000u64 {
            assert_eq!(idx.get(k), Some(k));
        }
    }

    #[test]
    fn concurrent_ops_during_retrain_storm() {
        // Hammer one span from many threads so retrains overlap reads and
        // writes; verify full consistency at quiesce.
        let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 10_000, i)).collect();
        let idx = Arc::new(AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(32.0),
                ..Default::default()
            },
        ));
        let threads = 8u64;
        let per = 4_000u64;
        let mut hs = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            hs.push(std::thread::spawn(move || {
                // Odd keys (stride 2) never collide with the bulk's
                // multiples of 10_000; per-thread blocks are disjoint.
                let base = 1_000_001 + t * per * 2;
                for i in 0..per {
                    let k = base + i * 2;
                    idx.insert(k, k).unwrap();
                    assert_eq!(idx.get(k), Some(k), "own write {k}");
                    // Keep reading bulk keys under the storm.
                    let bulk = ((i % 500) + 1) * 10_000;
                    assert_eq!(idx.get(bulk), Some(bulk / 10_000));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        for t in 0..threads {
            for i in 0..per {
                let k = 1_000_001 + t * per * 2 + i * 2;
                assert_eq!(idx.get(k), Some(k));
            }
        }
        assert_eq!(idx.len(), 500 + (threads * per) as usize);
    }

    #[test]
    fn concurrent_mutations_during_rebuild_are_kept() {
        // Writers keep inserting/removing while the same span is rebuilt
        // off-lock — by another inserting thread (inline) or by a worker
        // (background). The phase-2 reconcile must fold every concurrent
        // change into the swapped-in models.
        for cfg in [AltConfig::default(), AltConfig::background()] {
            let mode = cfg.retrain_mode;
            let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 10_000, i)).collect();
            let idx = Arc::new(AltIndex::bulk_load_with(
                &pairs,
                AltConfig {
                    epsilon: Some(32.0),
                    ..cfg
                },
            ));
            let threads = 4u64;
            let per = 6_000u64;
            let mut hs = Vec::new();
            for t in 0..threads {
                let idx = Arc::clone(&idx);
                hs.push(std::thread::spawn(move || {
                    let base = 1_000_001 + t * per * 2;
                    for i in 0..per {
                        let k = base + i * 2;
                        idx.insert(k, k).unwrap();
                        // Churn: remove every fourth key again right
                        // away, racing any in-progress rebuild.
                        if i % 4 == 3 {
                            assert_eq!(idx.remove(k), Some(k), "{mode:?}: own remove {k}");
                        } else {
                            assert_eq!(idx.get(k), Some(k), "{mode:?}: own write {k}");
                        }
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            idx.retrain_quiesce();
            assert!(idx.retrain_count() > 0, "{mode:?}: no rebuild ran");
            let mut live = 0usize;
            for t in 0..threads {
                for i in 0..per {
                    let k = 1_000_001 + t * per * 2 + i * 2;
                    if i % 4 == 3 {
                        assert_eq!(idx.get(k), None, "{mode:?}: removed key {k} resurfaced");
                    } else {
                        assert_eq!(idx.get(k), Some(k), "{mode:?}: lost concurrent insert {k}");
                        live += 1;
                    }
                }
            }
            assert_eq!(idx.len(), 500 + live, "{mode:?}");
        }
    }

    #[test]
    fn background_final_state_matches_inline() {
        // A/B: the same deterministic op sequence lands in the same final
        // state whether retrains run inline or on the worker pool.
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 1_000, i)).collect();
        let run = |cfg: AltConfig| {
            let idx = AltIndex::bulk_load_with(&pairs, cfg);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..30_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = 200_001 + (x % 400_000);
                if i % 5 == 4 {
                    idx.remove(k);
                } else {
                    let _ = idx
                        .insert(k, k ^ 0x5555)
                        .or_else(|_| idx.update(k, k ^ 0x5555));
                }
            }
            idx.retrain_quiesce();
            let mut out = Vec::new();
            idx.range(1, u64::MAX, &mut out);
            (idx.len(), out)
        };
        let cfg = AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        };
        let (len_inline, dump_inline) = run(cfg.clone());
        let (len_bg, dump_bg) = run(AltConfig {
            retrain_mode: crate::config::RetrainMode::Background,
            ..cfg
        });
        assert_eq!(len_inline, len_bg);
        assert_eq!(dump_inline, dump_bg);
    }
}
