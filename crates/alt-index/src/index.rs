//! The ALT-index proper: the two-tier hybrid of a flattened GPL learned
//! layer over an optimized ART (§III).
//!
//! Operation flow follows Algorithm 2 of the paper: every operation first
//! locates a GPL model with a binary search over the (flat, sorted) model
//! directory, computes the key's predicted slot with one calculation, and
//! then either finishes in the slot or follows the model's fast pointer
//! into the ART-OPT layer.

use crate::config::AltConfig;
use crate::dir::ModelDir;
use crate::fast_ptr::{BufferHook, FastPointerBuffer};
use crate::model::{build_model, GplModel, NO_FAST};
use crate::slots::{ClaimResult, SlotState};
use art::{Art, FromResult};
use crossbeam_epoch::{self as epoch, Atomic, Guard};
use index_api::{IndexError, Result};
use learned::gpl::{gpl_segment, gpl_segment_parallel, Segment};
use learned::LinearModel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The ALT-index handle: a concurrent hybrid learned index over
/// `u64 -> u64`.
///
/// All index operations live on [`AltCore`], reached through `Deref`;
/// this wrapper additionally owns the background retrain worker pool
/// when [`RetrainMode::Background`](crate::config::RetrainMode) is
/// configured, so dropping the index shuts the workers down before the
/// core is torn down.
///
/// ```
/// use alt_index::AltIndex;
/// let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|k| (k * 7, k)).collect();
/// let idx = AltIndex::bulk_load_default(&pairs);
/// assert_eq!(idx.get(7), Some(1));
/// idx.insert(5, 99).unwrap();
/// assert_eq!(idx.get(5), Some(99));
/// ```
pub struct AltIndex {
    // Field order is load-bearing: the scheduler handle drops first,
    // signalling shutdown and joining every worker (each holds only a
    // `Weak<AltCore>`), so the core's teardown below never races a
    // live worker.
    // Held only for its Drop (shutdown + join the worker pool).
    #[allow(dead_code)]
    sched: Option<crate::sched::SchedHandle>,
    pub(crate) core: Arc<AltCore>,
}

impl std::ops::Deref for AltIndex {
    type Target = AltCore;
    fn deref(&self) -> &AltCore {
        &self.core
    }
}

impl AltIndex {
    /// Build over sorted, unique pairs (no key 0) with explicit
    /// configuration.
    pub fn bulk_load_with(pairs: &[(u64, u64)], cfg: AltConfig) -> Self {
        let bg = cfg.retrain && cfg.retrain_mode == crate::config::RetrainMode::Background;
        let shared = bg.then(|| Arc::new(crate::sched::SchedShared::new(cfg.bg_retrain.clone())));
        let core = Arc::new(AltCore::build(pairs, cfg, shared.clone()));
        let sched = shared.map(|sh| crate::sched::spawn_workers(sh, Arc::downgrade(&core)));
        Self { sched, core }
    }

    /// Build with the default configuration.
    pub fn bulk_load_default(pairs: &[(u64, u64)]) -> Self {
        Self::bulk_load_with(pairs, AltConfig::default())
    }

    /// An empty index (everything bootstraps through inserts + retrain).
    pub fn new(cfg: AltConfig) -> Self {
        Self::bulk_load_with(&[], cfg)
    }
}

/// Snapshot of the fault-containment and self-healing counters kept by
/// the index and its background retrain pool (see
/// [`AltCore::fault_stats`] and DESIGN.md §16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Background retrain requests shed at admission or dropped
    /// mid-drain (`alt.retrain_bg_dropped`).
    pub bg_dropped: u64,
    /// Background retrain executions that panicked and were contained
    /// by the worker pool (`alt.retrain_bg_panics`).
    pub bg_panics: u64,
    /// Worker-loop restarts after a contained panic
    /// (`alt.worker_respawns`).
    pub worker_respawns: u64,
    /// Transitions into degraded mode (`alt.degraded_mode_entries`).
    pub degraded_mode_entries: u64,
    /// Retrains aborted cleanly or rolled back after a contained inline
    /// panic (`alt.retrain_rollbacks`).
    pub retrain_rollbacks: u64,
    /// Whether the pool is *currently* in degraded mode (background
    /// scheduling suspended, overflows retraining inline, contained).
    pub degraded: bool,
}

/// The index state and every operation on it: the model directory over
/// gapped slot arrays, the ART-OPT conflict layer, and the fast-pointer
/// buffer. [`AltIndex`] wraps this in an `Arc` so background retrain
/// workers can hold weak references; user code reaches it through the
/// wrapper's `Deref`.
pub struct AltCore {
    pub(crate) dir: Atomic<ModelDir>,
    pub(crate) art: Arc<Art>,
    pub(crate) buffer: Arc<FastPointerBuffer>,
    pub(crate) cfg: AltConfig,
    /// GPL error bound fixed at construction (the paper's
    /// `bulkload_number / 1000` rule).
    pub(crate) epsilon: f64,
    /// Serializes structural directory changes (retrains).
    pub(crate) dir_lock: Mutex<()>,
    pub(crate) len: AtomicUsize,
    pub(crate) retrains: AtomicUsize,
    /// Retrain attempts that got past the trigger checks (completed or
    /// not) — the denominator for the paper's retrain-effectiveness
    /// accounting; `retrains` is the numerator.
    pub(crate) retrain_attempts: AtomicUsize,
    /// Retrains that aborted cleanly (injected or real build/reconcile
    /// failure) or whose contained inline panic was rolled back by the
    /// drop-guards. Always-on so fault tests and benches can read it in
    /// any build; mirrored into `obs` under the `metrics` feature.
    pub(crate) rollbacks: AtomicUsize,
    /// Bumped immediately before every directory swap. Scans snapshot it
    /// before reading ART and re-check it after walking the slots: an
    /// unchanged epoch proves no retrain published (and therefore no
    /// ART absorption started a new generation) mid-scan.
    pub(crate) dir_epoch: AtomicUsize,
    /// Background retrain queue (present only in background mode; the
    /// worker pool itself is owned by [`AltIndex`]).
    pub(crate) sched: Option<Arc<crate::sched::SchedShared>>,
}

impl AltCore {
    /// Construct the core (shared by every [`AltIndex`] constructor).
    pub(crate) fn build(
        pairs: &[(u64, u64)],
        cfg: AltConfig,
        sched: Option<Arc<crate::sched::SchedShared>>,
    ) -> Self {
        index_api::debug_validate_bulk_input(pairs);
        let epsilon = cfg.effective_epsilon(pairs.len());
        let buffer = Arc::new(FastPointerBuffer::new());
        let art = Arc::new(Art::with_hook(Arc::new(BufferHook(Arc::clone(&buffer)))));

        let threads = cfg.build_threads.max(1);
        let (models, conflicts) =
            segment_and_build_parallel(pairs, epsilon, cfg.gap_factor, threads);
        // Conflict eviction into ART. The tree's structure for a fixed key
        // set is insertion-order independent (radix paths + node sizes
        // come from the key bytes alone), so sharded concurrent inserts
        // produce the same tree the serial loop would.
        if threads > 1 && conflicts.len() >= PARALLEL_BUILD_MIN {
            let shard = conflicts.len().div_ceil(threads);
            std::thread::scope(|s| {
                for chunk in conflicts.chunks(shard) {
                    let art = &art;
                    s.spawn(move || {
                        testkit::chaos_point!("bulk.par.art");
                        for &(k, v) in chunk {
                            art.insert(k, v);
                        }
                    });
                }
            });
        } else {
            for &(k, v) in &conflicts {
                art.insert(k, v);
            }
        }
        let dir = ModelDir::new(models);
        let idx = Self {
            dir: Atomic::new(dir),
            art,
            buffer,
            cfg,
            epsilon,
            dir_lock: Mutex::new(()),
            len: AtomicUsize::new(pairs.len()),
            retrains: AtomicUsize::new(0),
            retrain_attempts: AtomicUsize::new(0),
            rollbacks: AtomicUsize::new(0),
            dir_epoch: AtomicUsize::new(0),
            sched,
        };
        idx.register_all_fast_pointers(threads);
        idx
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &AltConfig {
        &self.cfg
    }

    /// Snapshot of the always-on fault/self-healing counters (DESIGN.md
    /// §16). Available in every build — the `metrics` feature
    /// additionally mirrors each event into the `obs` sink; the `fault`
    /// feature is what makes the *injection* sites live.
    pub fn fault_stats(&self) -> FaultStats {
        let (bg_dropped, bg_panics, worker_respawns, degraded_mode_entries) = self
            .sched
            .as_ref()
            .map(|s| s.fault_counts())
            .unwrap_or((0, 0, 0, 0));
        FaultStats {
            bg_dropped,
            bg_panics,
            worker_respawns,
            degraded_mode_entries,
            retrain_rollbacks: self.rollbacks.load(Ordering::Relaxed) as u64,
            degraded: self.sched.as_ref().is_some_and(|s| s.is_degraded()),
        }
    }

    /// The GPL error bound in effect.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn dir_ref<'g>(&self, guard: &'g Guard) -> &'g ModelDir {
        // SAFETY: the directory is always initialized (constructor) and
        // only replaced under `dir_lock` with epoch-deferred destruction;
        // the guard keeps the snapshot alive.
        unsafe { self.dir.load(Ordering::Acquire, guard).deref() }
    }

    /// (Re-)register fast pointers for every model in the current
    /// directory (bulk-load construction step §III-C ①-③), sharding the
    /// model range across up to `threads` workers.
    ///
    /// Safe to parallelize: each model's `fast_slot` is owned by exactly
    /// one worker (contiguous index ranges), `FastPointerBuffer::register`
    /// is already thread-safe (append spin lock + merge scheme), and the
    /// registered *targets* (each model interval's LCA node) depend only
    /// on the tree, not on registration order — so a parallel build's
    /// jump behaviour is identical to a serial one's even though buffer
    /// slot indices may come out permuted.
    fn register_all_fast_pointers(&self, threads: usize) {
        if !self.cfg.fast_pointers {
            return;
        }
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let n = dir.models.len();
        let shard = n.div_ceil(threads.max(1));
        if threads <= 1 || n < PARALLEL_BUILD_MIN {
            self.register_fast_pointer_range(dir, 0, n);
            return;
        }
        std::thread::scope(|s| {
            let mut start = 0;
            while start < n {
                let end = (start + shard).min(n);
                s.spawn(move || {
                    testkit::chaos_point!("bulk.par.fastptr");
                    // Re-pin per worker (epoch guards are thread-local);
                    // the directory cannot be swapped during construction.
                    let guard = epoch::pin();
                    let dir = self.dir_ref(&guard);
                    self.register_fast_pointer_range(dir, start, end);
                });
                start = end;
            }
        });
    }

    fn register_fast_pointer_range(&self, dir: &ModelDir, start: usize, end: usize) {
        for (i, m) in dir.models[start..end].iter().enumerate() {
            let slot = match dir.upper_bound(start + i) {
                Some(next_first) => self.buffer.register(&self.art, m.first_key, next_first),
                None => NO_FAST,
            };
            m.fast_slot.store(slot, Ordering::Release);
        }
    }

    // -----------------------------------------------------------------
    // ART access through the fast pointer buffer
    // -----------------------------------------------------------------

    /// ART lookup for a key routed through model `m` (the secondary query
    /// that replaces the classic error-bounded search).
    ///
    /// The caller must hold an epoch pin taken *before* reading `m` from
    /// the directory (the buffer pointer contract).
    pub(crate) fn art_get(&self, m: &GplModel, key: u64) -> Option<u64> {
        if self.cfg.fast_pointers && key >= m.first_key {
            let fs = m.fast();
            if fs != NO_FAST {
                let node = self.buffer.get(fs);
                if node != 0 {
                    // SAFETY: `node` is maintained by the replace-hook
                    // protocol; we are pinned (caller contract), so it is
                    // not reclaimed while we use it; the key lies in the
                    // model's interval so the jump covers it.
                    match unsafe { self.art.get_from(node, key) } {
                        FromResult::Done(v, _) => {
                            obs::incr!(Counter::FastPtrJumpHit);
                            return v;
                        }
                        FromResult::Fallback => {}
                    }
                }
            }
            // No shortcut, a de-optimized (zeroed) entry, or an obsolete
            // jump node: the Fig 10(b) de-optimization path.
            obs::incr!(Counter::FastPtrDeopt);
        }
        self.art.get(key)
    }

    /// ART insert routed through model `m`. Returns true if inserted,
    /// false if the key already existed.
    pub(crate) fn art_insert(&self, m: &GplModel, key: u64, value: u64) -> bool {
        if self.cfg.fast_pointers && key >= m.first_key {
            let fs = m.fast();
            if fs != NO_FAST {
                let node = self.buffer.get(fs);
                if node != 0 {
                    // SAFETY: as in `art_get`.
                    match unsafe { self.art.insert_from(node, key, value) } {
                        FromResult::Done(ins, _) => {
                            obs::incr!(Counter::FastPtrJumpHit);
                            return ins;
                        }
                        FromResult::Fallback => {}
                    }
                }
            }
            obs::incr!(Counter::FastPtrDeopt);
        }
        self.art.insert(key, value)
    }

    // -----------------------------------------------------------------
    // Point operations (Algorithm 2)
    // -----------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        loop {
            let dir = self.dir_ref(&guard);
            let m = dir.model_for(key);
            let pred = m.predict(key);
            let (state, ver) = m.slots.read(pred);
            match state {
                SlotState::Occupied { key: k, value } if k == key => return Some(value),
                SlotState::Empty => {
                    // Algorithm 2 line 5-6: an unoccupied predicted slot
                    // means the key cannot exist — unless the model was
                    // concurrently replaced (different predictions).
                    if m.is_retired() {
                        if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                            return self.get_pessimistic(key);
                        }
                        continue;
                    }
                    return None;
                }
                SlotState::Tombstone | SlotState::Occupied { .. } => {
                    // Conflict data: the direct ART query replaces the
                    // classic secondary search.
                    match self.art_get(m, key) {
                        Some(v) => {
                            if self.cfg.write_back && state == SlotState::Tombstone {
                                self.try_write_back(m, pred, key, v);
                            }
                            return Some(v);
                        }
                        None => {
                            // The miss is only conclusive if nothing moved
                            // under us.
                            if m.is_retired() || !m.slots.version_unchanged(pred, ver) {
                                if retry
                                    .wait_or_escalate(&self.cfg.contention, crate::count_contention)
                                {
                                    return self.get_pessimistic(key);
                                }
                                continue;
                            }
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// Guaranteed-progress lookup fallback, used once the optimistic
    /// loop's retry budget is exhausted.
    ///
    /// `dir_lock` freezes the directory (no retrain can publish, so the
    /// current generation's models cannot retire and predictions are
    /// stable); the predicted slot's *write lock* is the per-key
    /// serialization point — every inserter of `key` must take it before
    /// publishing (see `insert`), so a slot-or-ART miss observed under
    /// it is conclusive without any version re-validation.
    ///
    /// Lock order is `dir_lock` → `op_lock` → slot lock → ART node
    /// locks, the same global order every path uses (rebuild: `dir_lock`
    /// → `op_lock.write` → slot reads; escalated writers: `dir_lock` →
    /// `op_lock.read` → slot lock → ART; optimistic writers:
    /// `op_lock.read` → slot lock → ART). No thread blocks on `dir_lock`
    /// while holding an `op_lock` read guard: the optimistic writers
    /// release theirs before escalating. That matters because a rebuild
    /// holds `dir_lock` across its off-lock build and then waits for the
    /// `op_lock` write side — a writer parked on `dir_lock` with the read
    /// side held would stall it forever. `maybe_retrain` only
    /// `try_lock`s `dir_lock`, so an escalated op can never deadlock a
    /// retrain trigger either — it just shows up as
    /// `RetrainSkippedBusy`.
    pub(crate) fn get_pessimistic(&self, key: u64) -> Option<u64> {
        let _dl = self.dir_lock.lock();
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let m = dir.model_for(key);
        let pred = m.predict(key);
        m.slots.with_write(pred, |g| match g.state() {
            SlotState::Occupied { key: k, value } if k == key => Some(value),
            SlotState::Empty => None,
            SlotState::Tombstone | SlotState::Occupied { .. } => self.art_get(m, key),
        })
    }

    /// Opportunistic write-back (Algorithm 2 lines 10-13): move an ART
    /// entry into the tombstoned slot it predicts to.
    pub(crate) fn try_write_back(&self, m: &GplModel, pred: usize, key: u64, value: u64) {
        obs::incr!(Counter::WriteBackAttempt);
        // Never fight a retrain for this optimization.
        let Some(_rl) = m.op_lock.try_read() else {
            return;
        };
        if m.is_retired() {
            return;
        }
        if m.slots.claim(pred, key, value) == ClaimResult::Written {
            obs::incr!(Counter::WriteBackMoved);
            match self.art.remove(key) {
                Some(fresh) => {
                    if fresh != value {
                        // The ART copy was updated after we read it; keep
                        // the freshest value.
                        m.slots.update_if_key(pred, key, fresh);
                    }
                }
                None => {
                    // A concurrent remover beat us to the ART entry: the
                    // key is supposed to be gone. Undo our resurrection.
                    m.slots.remove_if_key(pred, key);
                }
            }
        }
    }

    /// Insert a new key.
    pub fn insert(&self, key: u64, value: u64) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let mut want_retrain = false;
        let mut retry = resilience::Retry::seeded(key);
        let res = loop {
            let guard = epoch::pin();
            let dir = self.dir_ref(&guard);
            let m = dir.model_for(key);
            let rl = m.op_lock.read();
            if !m.is_retired() {
                break self.place(dir, m, key, value, &mut want_retrain);
            }
            // The only retry source here is retrain churn: escalating
            // under `dir_lock` stops it. Release the op lock first —
            // see `get_pessimistic` for the lock order.
            drop(rl);
            if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                break self.insert_pessimistic(key, value, &mut want_retrain);
            }
        };
        if res.is_ok() {
            self.len.fetch_add(1, Ordering::Relaxed);
            if want_retrain {
                self.trigger_retrain(key);
            }
        }
        res
    }

    /// The slot-vs-ART placement decision shared by the optimistic and
    /// escalated insert paths. The caller holds `m.op_lock.read()` and
    /// has checked `m` is not retired; an epoch pin covering the `dir`
    /// read must be live.
    ///
    /// The whole decision runs under the predicted slot's write lock.
    /// That slot is the per-key serialization point: every inserter of
    /// `key` under this model generation predicts the same slot, so
    /// holding its lock across the ART presence check / ART publication
    /// means a racing claim and a racing ART insert of the same key can
    /// never interleave. The earlier publish-then-recheck protocol let a
    /// losing insert transiently expose its value through ART before
    /// undoing it — a failed insert whose value concurrent readers could
    /// observe (caught by the chaos testkit's oracle).
    fn place(
        &self,
        dir: &ModelDir,
        m: &GplModel,
        key: u64,
        value: u64,
        want_retrain: &mut bool,
    ) -> Result<()> {
        enum Placed {
            Slot,
            Art,
            Dup,
        }
        let pred = m.predict(key);
        let placed = m.slots.with_write(pred, |g| match g.state() {
            SlotState::Occupied { key: k, .. } if k == key => Placed::Dup,
            SlotState::Empty => {
                g.install(key, value);
                Placed::Slot
            }
            SlotState::Tombstone => {
                // The key may still live in ART from before the
                // resident was removed; checked under the lock so the
                // answer cannot go stale before we claim.
                if self.art_get(m, key).is_some() {
                    Placed::Dup
                } else {
                    g.install(key, value);
                    Placed::Slot
                }
            }
            SlotState::Occupied { .. } => {
                if self.art_insert(m, key, value) {
                    Placed::Art
                } else {
                    Placed::Dup
                }
            }
        });
        match placed {
            Placed::Dup => Err(IndexError::DuplicateKey),
            Placed::Slot => Ok(()),
            Placed::Art => {
                let overflow = m.art_inserts.fetch_add(1, Ordering::Relaxed) + 1;
                // A model built when ART was shallow has no shortcut
                // (or a near-root one). (Re-)resolve the LCA lazily as
                // the subtree grows: promptly while the model has no
                // pointer, then occasionally to chase tree growth.
                let fs = m.fast();
                if self.cfg.fast_pointers
                    && ((fs == NO_FAST && overflow % 32 == 1) || overflow.is_multiple_of(256))
                {
                    let mi = dir.locate(key);
                    if let Some(upper) = dir.upper_bound(mi) {
                        let slot = self.buffer.register(&self.art, m.first_key, upper);
                        if slot != NO_FAST {
                            m.fast_slot.store(slot, Ordering::Release);
                        }
                    }
                }
                *want_retrain = m.wants_retrain();
                Ok(())
            }
        }
    }

    /// Escalated insert: under `dir_lock` no retrain can publish, so the
    /// freshly-loaded model cannot retire and the placement runs exactly
    /// once. See `get_pessimistic` for the lock-order argument.
    fn insert_pessimistic(&self, key: u64, value: u64, want_retrain: &mut bool) -> Result<()> {
        let _dl = self.dir_lock.lock();
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let m = dir.model_for(key);
        // Keeps "every slot writer holds the op-lock read side"
        // unconditionally true (uncontended here: retrain, the only
        // write-side taker, needs `dir_lock` first).
        let _rl = m.op_lock.read();
        self.place(dir, m, key, value, want_retrain)
    }

    /// Update an existing key in place.
    pub fn update(&self, key: u64, value: u64) -> Result<()> {
        if key == 0 {
            return Err(IndexError::ReservedKey);
        }
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        // Escalation leaves the loop (dropping the iteration's op-lock
        // read guard) before blocking on `dir_lock`: see
        // `get_pessimistic` for the lock order.
        macro_rules! retry_or_escalate {
            () => {
                if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                    break;
                }
                continue;
            };
        }
        loop {
            let dir = self.dir_ref(&guard);
            let m = dir.model_for(key);
            // The op lock + retired re-check are load-bearing for every
            // slot writer: retraining collects slot contents under the
            // write side, so a slot update outside the read side can land
            // after collection and be silently dropped by the directory
            // swap (lost update — found by the chaos testkit oracle).
            let _rl = m.op_lock.read();
            if m.is_retired() {
                retry_or_escalate!();
            }
            let pred = m.predict(key);
            let (state, ver) = m.slots.read(pred);
            match state {
                SlotState::Occupied { key: k, .. } if k == key => {
                    if m.slots.update_if_key(pred, key, value) {
                        return Ok(());
                    }
                    retry_or_escalate!(); // slot changed under us
                }
                SlotState::Empty => {
                    if m.is_retired() {
                        retry_or_escalate!();
                    }
                    return Err(IndexError::KeyNotFound);
                }
                SlotState::Tombstone | SlotState::Occupied { .. } => {
                    if self.art.update(key, value) {
                        return Ok(());
                    }
                    if m.is_retired() || !m.slots.version_unchanged(pred, ver) {
                        retry_or_escalate!();
                    }
                    return Err(IndexError::KeyNotFound);
                }
            }
        }
        self.update_pessimistic(key, value)
    }

    /// Escalated update: `dir_lock` freezes the directory, the predicted
    /// slot's write lock serializes against every inserter/remover of
    /// `key`, so the slot-or-ART decision is conclusive in one pass. See
    /// `get_pessimistic` for the lock-order argument.
    fn update_pessimistic(&self, key: u64, value: u64) -> Result<()> {
        let _dl = self.dir_lock.lock();
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let m = dir.model_for(key);
        let _rl = m.op_lock.read();
        let pred = m.predict(key);
        m.slots.with_write(pred, |g| match g.state() {
            SlotState::Occupied { key: k, .. } if k == key => {
                g.set_value(value);
                Ok(())
            }
            SlotState::Empty => Err(IndexError::KeyNotFound),
            SlotState::Tombstone | SlotState::Occupied { .. } => {
                if self.art.update(key, value) {
                    Ok(())
                } else {
                    Err(IndexError::KeyNotFound)
                }
            }
        })
    }

    /// Insert-or-update.
    pub fn upsert(&self, key: u64, value: u64) -> Result<()> {
        match self.insert(key, value) {
            Err(IndexError::DuplicateKey) => self.update(key, value),
            other => other,
        }
    }

    /// Remove a key, returning its value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let mut retry = resilience::Retry::seeded(key);
        // Escalation leaves the loop (dropping the iteration's op-lock
        // read guard) before blocking on `dir_lock`: see
        // `get_pessimistic` for the lock order.
        macro_rules! retry_or_escalate {
            () => {
                if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                    break;
                }
                continue;
            };
        }
        loop {
            let dir = self.dir_ref(&guard);
            let m = dir.model_for(key);
            let _rl = m.op_lock.read();
            if m.is_retired() {
                retry_or_escalate!();
            }
            let pred = m.predict(key);
            let (state, ver) = m.slots.read(pred);
            match state {
                SlotState::Occupied { key: k, .. } if k == key => {
                    // Tombstone the slot AND clear the transient ART copy
                    // (retrain double-presence / write-back undo window)
                    // in one critical section on the predicted slot — the
                    // per-key serialization point (see `insert`). With the
                    // ART clear outside the lock, a racing insert of `key`
                    // could land in ART after another key reclaimed the
                    // tombstone, and the late clear would silently delete
                    // that *successful* insert (lost key, caught by the
                    // chaos oracle). Under the lock no new ART copy of
                    // `key` can appear: every inserter of `key` must take
                    // this same slot lock first.
                    let removed = m.slots.with_write(pred, |g| match g.state() {
                        SlotState::Occupied { key: k, value } if k == key => {
                            testkit::chaos_point!("slots.remove.pre_tombstone");
                            g.clear();
                            self.art.remove(key);
                            Some(value)
                        }
                        _ => None,
                    });
                    match removed {
                        Some(v) => {
                            self.len.fetch_sub(1, Ordering::Relaxed);
                            return Some(v);
                        }
                        None => {
                            retry_or_escalate!();
                        }
                    }
                }
                SlotState::Empty => {
                    if m.is_retired() {
                        retry_or_escalate!();
                    }
                    return None;
                }
                SlotState::Tombstone | SlotState::Occupied { .. } => match self.art.remove(key) {
                    Some(v) => {
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        return Some(v);
                    }
                    None => {
                        if m.is_retired() || !m.slots.version_unchanged(pred, ver) {
                            retry_or_escalate!();
                        }
                        return None;
                    }
                },
            }
        }
        self.remove_pessimistic(key)
    }

    /// Escalated remove: one conclusive pass under `dir_lock` + the
    /// predicted slot's write lock (the per-key serialization point —
    /// the tombstone + ART clear stay inside one critical section for
    /// the same reason as the optimistic path). See `get_pessimistic`
    /// for the lock-order argument.
    fn remove_pessimistic(&self, key: u64) -> Option<u64> {
        let removed = {
            let _dl = self.dir_lock.lock();
            let guard = epoch::pin();
            let dir = self.dir_ref(&guard);
            let m = dir.model_for(key);
            let _rl = m.op_lock.read();
            let pred = m.predict(key);
            m.slots.with_write(pred, |g| match g.state() {
                SlotState::Occupied { key: k, value } if k == key => {
                    testkit::chaos_point!("slots.remove.pre_tombstone");
                    g.clear();
                    self.art.remove(key);
                    Some(value)
                }
                SlotState::Empty => None,
                SlotState::Tombstone | SlotState::Occupied { .. } => self.art.remove(key),
            })
        };
        if removed.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Approximate resident bytes: learned layer + ART + fast pointer
    /// buffer.
    pub fn memory_usage(&self) -> usize {
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let learned: usize = dir.models.iter().map(|m| m.memory_usage()).sum();
        learned + dir.memory_usage() + self.art.memory_usage() + self.buffer.memory_usage()
    }
}

impl Drop for AltCore {
    fn drop(&mut self) {
        // SAFETY: mirrors the `dir_ref` invariant ("the directory is
        // always initialized and only replaced under `dir_lock` with
        // epoch-deferred destruction") at teardown:
        // * `epoch::unprotected()` is sound because `&mut self` proves
        //   no thread can be pinned on this index — every `dir_ref`
        //   borrow is tied to a `Guard` that cannot outlive a shared
        //   borrow of `self`, so no snapshot of the directory is still
        //   in use and nothing can retire it concurrently.
        // * The `Relaxed` load is sufficient for the same reason:
        //   obtaining `&mut self` required external synchronization
        //   (join/Arc teardown) that happens-after every prior
        //   publication of `self.dir`, so this thread already observes
        //   the final pointer; there is no concurrent writer left to
        //   order against.
        // * `into_owned` cannot double-free: retrains swap the old
        //   directory into `defer_destroy`, never leaving two owners of
        //   the current pointer.
        unsafe {
            let d = self.dir.load(Ordering::Relaxed, epoch::unprotected());
            if !d.is_null() {
                drop(d.into_owned());
            }
        }
    }
}

/// Minimum work-item count (keys, conflicts, or models) below which the
/// bulk-load pipeline stays serial: thread spawn/join costs more than the
/// work it would split.
pub(crate) const PARALLEL_BUILD_MIN: usize = 1024;

/// One build worker's output: its group's models plus their conflicts.
type BuiltGroup = (Vec<GplModel>, Vec<(u64, u64)>);

/// Parallel variant of [`segment_and_build`] used only by bulk load
/// (retrain keeps the serial path — its spans are small and it runs under
/// `dir_lock`). Produces models and conflicts *identical* to the serial
/// builder for any `threads`:
///
/// * segmentation goes through [`gpl_segment_parallel`], which is
///   bit-equal to [`gpl_segment`] by construction (seam stitch);
/// * the segment list is then split into contiguous groups balanced by
///   key count, and each group's models are built by one worker. A model
///   is private to its worker until the join (`place_unsync` is exactly
///   the thread-private placement the serial path uses), and group
///   results are concatenated in order, so model order — and therefore
///   conflict order, which feeds sorted ART bulk insertion — is
///   unchanged.
pub(crate) fn segment_and_build_parallel(
    pairs: &[(u64, u64)],
    epsilon: f64,
    gap_factor: f64,
    threads: usize,
) -> (Vec<Arc<GplModel>>, Vec<(u64, u64)>) {
    if threads <= 1 || pairs.len() < PARALLEL_BUILD_MIN {
        return segment_and_build(pairs, epsilon, gap_factor, 0, None);
    }
    let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let segments = gpl_segment_parallel(&keys, epsilon, threads);
    let groups = partition_segments(&segments, threads, pairs.len());
    let built: Vec<BuiltGroup> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                let segments = &segments;
                s.spawn(move || {
                    testkit::chaos_point!("bulk.par.models");
                    let mut models = Vec::with_capacity(group.len());
                    let mut conflicts = Vec::new();
                    for seg in &segments[group] {
                        let slice = &pairs[seg.start..seg.start + seg.len];
                        let (m, mut c) = build_model(slice, seg.model, gap_factor, 0);
                        models.push(m);
                        conflicts.append(&mut c);
                    }
                    (models, conflicts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut models = Vec::with_capacity(segments.len());
    let mut conflicts = Vec::new();
    for (ms, mut cs) in built {
        models.extend(ms.into_iter().map(Arc::new));
        conflicts.append(&mut cs);
    }
    (models, conflicts)
}

/// Split `segments` into at most `groups` contiguous index ranges of
/// roughly `total_keys / groups` keys each (models vary wildly in span,
/// so balancing by segment *count* would skew the build).
fn partition_segments(
    segments: &[Segment],
    groups: usize,
    total_keys: usize,
) -> Vec<std::ops::Range<usize>> {
    let target = total_keys.div_ceil(groups).max(1);
    let mut out = Vec::with_capacity(groups);
    let mut start = 0;
    let mut acc = 0;
    for (i, s) in segments.iter().enumerate() {
        acc += s.len;
        if acc >= target {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < segments.len() {
        out.push(start..segments.len());
    }
    out
}

/// GPL-segment `pairs` and build one gapped model per segment. Returns
/// the models (sorted) and all conflict data destined for ART.
///
/// `route_floor`: when replacing a directory span whose smallest key has
/// been removed, the first replacement model must still *route* from the
/// old span start — otherwise keys between the old and new lower bound
/// would fall to the previous model, outside the key interval its fast
/// pointer was registered for (the jump-validity contract of §III-C).
pub(crate) fn segment_and_build(
    pairs: &[(u64, u64)],
    epsilon: f64,
    gap_factor: f64,
    expansions: u32,
    route_floor: Option<u64>,
) -> (Vec<Arc<GplModel>>, Vec<(u64, u64)>) {
    if pairs.is_empty() {
        // Bootstrap model so the directory is never empty: anchored at
        // key 1 with a modest slope so early inserts spread out.
        let anchor = route_floor.unwrap_or(1).max(1);
        let m = GplModel::new(
            anchor,
            LinearModel::new(anchor, 1.0 / 64.0),
            1024,
            0,
            expansions,
        );
        return (vec![Arc::new(m)], Vec::new());
    }
    let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let segments = gpl_segment(&keys, epsilon);
    let mut raw = Vec::with_capacity(segments.len());
    let mut conflicts = Vec::new();
    for seg in segments {
        let slice = &pairs[seg.start..seg.start + seg.len];
        let (m, mut c) = build_model(slice, seg.model, gap_factor, expansions);
        raw.push(m);
        conflicts.append(&mut c);
    }
    if let Some(floor) = route_floor {
        if let Some(first) = raw.first_mut() {
            if first.first_key > floor {
                first.first_key = floor;
            }
        }
    }
    (raw.into_iter().map(Arc::new).collect(), conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u64, stride: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|i| (i * stride, i)).collect()
    }

    #[test]
    fn bulk_load_and_get_linear() {
        let p = pairs(50_000, 3);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.len(), p.len());
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
        assert_eq!(idx.get(1), None);
        assert_eq!(idx.get(2), None);
        assert_eq!(idx.get(u64::MAX), None);
        assert_eq!(idx.get(0), None, "reserved key");
    }

    #[test]
    fn bulk_load_hard_distribution_spills_to_art() {
        // Quadratic gaps are hard for a linear model: expect conflicts in
        // ART, but all keys must resolve.
        let p: Vec<(u64, u64)> = (1..=20_000u64).map(|i| (i * i, i)).collect();
        let idx = AltIndex::bulk_load_with(
            &p,
            AltConfig {
                epsilon: Some(512.0),
                ..Default::default()
            },
        );
        let stats = idx.stats();
        assert!(stats.keys_in_art > 0, "expected spilled conflict data");
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn insert_into_gaps_and_art() {
        let p = pairs(10_000, 10);
        let idx = AltIndex::bulk_load_default(&p);
        // Keys between existing ones: some land in empty slots, some
        // conflict into ART.
        for i in 1..=9_999u64 {
            let k = i * 10 + 5;
            idx.insert(k, k).unwrap();
        }
        for i in 1..=9_999u64 {
            let k = i * 10 + 5;
            assert_eq!(idx.get(k), Some(k), "inserted key {k}");
        }
        // Originals intact.
        for &(k, v) in &p {
            assert_eq!(idx.get(k), Some(v));
        }
        assert_eq!(idx.len(), p.len() + 9_999);
    }

    #[test]
    fn duplicate_insert_rejected_everywhere() {
        let p = pairs(1000, 100);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(
            idx.insert(100, 5),
            Err(IndexError::DuplicateKey),
            "slot key"
        );
        idx.insert(150, 1).unwrap();
        assert_eq!(idx.insert(150, 2), Err(IndexError::DuplicateKey));
        assert_eq!(idx.insert(0, 1), Err(IndexError::ReservedKey));
        assert_eq!(idx.get(150), Some(1));
    }

    #[test]
    fn update_slot_and_art_residents() {
        let p = pairs(1000, 2);
        let idx = AltIndex::bulk_load_default(&p);
        idx.update(2, 999).unwrap();
        assert_eq!(idx.get(2), Some(999));
        // Force an ART resident: odd keys conflict heavily on stride-2.
        idx.insert(3, 30).unwrap();
        idx.update(3, 31).unwrap();
        assert_eq!(idx.get(3), Some(31));
        assert_eq!(idx.update(99_999, 1), Err(IndexError::KeyNotFound));
    }

    #[test]
    fn remove_and_tombstone_reuse() {
        let p = pairs(1000, 10);
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.remove(10), Some(1));
        assert_eq!(idx.get(10), None);
        assert_eq!(idx.remove(10), None, "double remove");
        assert_eq!(idx.len(), 999);
        // The tombstoned slot accepts a new key that predicts there.
        idx.insert(10, 11).unwrap();
        assert_eq!(idx.get(10), Some(11));
        assert_eq!(idx.len(), 1000);
    }

    #[test]
    fn write_back_promotes_art_entry_into_tombstone() {
        let p = pairs(100, 4);
        let idx = AltIndex::bulk_load_default(&p);
        // 41 and 42 predict near each other; force 42's neighborhood:
        // insert a key that conflicts into ART, then remove the slot
        // resident and read.
        idx.insert(41, 410).unwrap(); // may be slot or ART
        idx.insert(42, 420).unwrap();
        idx.insert(43, 430).unwrap();
        let before = idx.stats().keys_in_art;
        if before == 0 {
            return; // layout absorbed everything; nothing to exercise
        }
        // Remove slot residents around the conflicts, then read the ART
        // keys: write-back should move at least one into the learned
        // layer.
        idx.remove(40);
        idx.remove(44);
        for k in [41u64, 42, 43] {
            assert_eq!(idx.get(k), Some(k * 10));
            assert_eq!(idx.get(k), Some(k * 10), "stable after write-back");
        }
        let after = idx.stats().keys_in_art;
        assert!(after <= before, "write-back never grows ART");
    }

    #[test]
    fn upsert_both_paths() {
        let idx = AltIndex::bulk_load_default(&pairs(100, 10));
        idx.upsert(10, 111).unwrap(); // existing
        assert_eq!(idx.get(10), Some(111));
        idx.upsert(15, 222).unwrap(); // new
        assert_eq!(idx.get(15), Some(222));
    }

    #[test]
    fn empty_index_bootstraps_through_inserts() {
        let idx = AltIndex::new(AltConfig::default());
        assert!(idx.is_empty());
        for k in 1..=5000u64 {
            idx.insert(k * 3, k).unwrap();
        }
        assert_eq!(idx.len(), 5000);
        for k in 1..=5000u64 {
            assert_eq!(idx.get(k * 3), Some(k), "key {}", k * 3);
        }
    }

    #[test]
    fn keys_below_global_minimum() {
        let p: Vec<(u64, u64)> = (100..200u64).map(|k| (k * 1000, k)).collect();
        let idx = AltIndex::bulk_load_default(&p);
        assert_eq!(idx.get(5), None);
        idx.insert(5, 55).unwrap();
        assert_eq!(idx.get(5), Some(55));
        idx.insert(3, 33).unwrap();
        assert_eq!(idx.get(3), Some(33));
        assert_eq!(idx.remove(5), Some(55));
        assert_eq!(idx.get(5), None);
        assert_eq!(idx.get(3), Some(33));
    }

    #[test]
    fn concurrent_insert_get_mixed() {
        let p = pairs(50_000, 8);
        let idx = Arc::new(AltIndex::bulk_load_default(&p));
        let threads = 8u64;
        let mut hs = Vec::new();
        for t in 0..threads {
            let idx = Arc::clone(&idx);
            hs.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = (t * 5_000 + i) * 8 + 3; // disjoint new keys
                    idx.insert(k, k).unwrap();
                    // Read back own write plus a bulk key.
                    assert_eq!(idx.get(k), Some(k));
                    let bulk = ((i % 50_000) + 1) * 8;
                    assert_eq!(idx.get(bulk), Some(bulk / 8));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 50_000 + 40_000);
        for t in 0..threads {
            for i in 0..5_000u64 {
                let k = (t * 5_000 + i) * 8 + 3;
                assert_eq!(idx.get(k), Some(k));
            }
        }
    }

    #[test]
    fn concurrent_same_key_insert_once() {
        let idx = Arc::new(AltIndex::bulk_load_default(&pairs(1000, 10)));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            let barrier = Arc::clone(&barrier);
            hs.push(std::thread::spawn(move || {
                let mut wins = 0usize;
                for k in 1..200u64 {
                    let key = k * 10 + 7;
                    barrier.wait();
                    if idx.insert(key, t).is_ok() {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = hs.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 199, "exactly one winner per key");
    }
}
