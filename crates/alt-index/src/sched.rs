//! The background retrain scheduler: a budgeted worker pool draining a
//! bounded priority queue of retrain requests.
//!
//! In [`RetrainMode::Background`](crate::config::RetrainMode) the
//! inserting thread no longer pays the §III-F collect/build/swap on the
//! hot path — it enqueues a request prioritized by the span's observed
//! overflow pressure and returns.
//! Workers pop the highest-pressure span first, FIFO among ties, and
//! run [`AltCore::retrain_background`](crate::index::AltCore) —
//! the same two-phase rebuild inline mode runs, with its build outside
//! the model's write lock (see `retrain.rs`), but acquiring `dir_lock`
//! with a blocking `lock` instead of `try_lock`.
//!
//! Budgeting follows the resilience crate's tiered-policy style: the
//! queue is bounded (excess requests are shed — the next overflow
//! insert re-enqueues), duplicate requests for a span already queued
//! are coalesced, and an optional minimum interval throttles each
//! worker's drain rate.

use crate::config::BgRetrainPolicy;
use crate::index::AltCore;
use std::collections::{BinaryHeap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued retrain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    /// Overflow pressure at enqueue time; higher drains first.
    priority: u64,
    /// Enqueue sequence number; lower (older) drains first among equal
    /// priorities.
    seq: u64,
    /// A key inside the span — the worker re-locates the model from it.
    key_hint: u64,
    /// The span's `first_key`, the dedup identity.
    span_key: u64,
}

impl Ord for Request {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by priority, then min-heap by seq (FIFO tie-break).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Request {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Queue state guarded by one mutex.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Request>,
    /// Spans currently queued (not yet popped) — duplicate enqueues for
    /// a span are coalesced instead of retraining it twice.
    pending_spans: HashSet<u64>,
    /// Requests popped but not yet finished (for `quiesce`).
    in_flight: usize,
    seq: u64,
    shutdown: bool,
}

impl Queue {
    fn drained(&self) -> bool {
        self.heap.is_empty() && self.in_flight == 0
    }
}

/// State shared between enqueuers (inserting threads), the worker pool,
/// and `quiesce` waiters.
pub(crate) struct SchedShared {
    q: Mutex<Queue>,
    /// Workers wait here for work (or shutdown).
    work: Condvar,
    /// `quiesce` callers wait here for the queue to drain.
    idle: Condvar,
    policy: BgRetrainPolicy,
    /// Requests shed at admission or dropped mid-drain. Always-on (the
    /// `metrics` feature additionally mirrors it into `obs`) so fault
    /// tests and benches can observe it in any build.
    dropped: AtomicU64,
    /// Background retrain executions contained by `catch_unwind`.
    bg_panics: AtomicU64,
    /// Worker-loop restarts after a contained panic. Workers are
    /// contained in place, not re-spawned as OS threads (DESIGN.md §16),
    /// but each restart is a "respawn" event in the fault model.
    respawns: AtomicU64,
    /// Transitions into degraded mode.
    degraded_entries: AtomicU64,
    /// Degraded mode flag: background scheduling suspended, overflows
    /// fall back to contained inline retrains.
    degraded: AtomicBool,
    /// Consecutive contained worker panics (reset by a clean drain).
    fail_streak: AtomicU32,
    /// Consecutive clean inline retrains while degraded (recovery).
    clean_streak: AtomicU32,
}

/// Runs [`SchedShared::done`] when dropped, so an in-flight request is
/// marked finished **even if the retrain it guards panics** — otherwise
/// a contained (or uncontained) panic would leave `in_flight` forever
/// nonzero and every `quiesce()` caller parked on the `idle` condvar.
struct InFlightGuard<'a>(&'a SchedShared);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.done();
    }
}

impl SchedShared {
    pub(crate) fn new(policy: BgRetrainPolicy) -> Self {
        Self {
            q: Mutex::new(Queue::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            policy,
            dropped: AtomicU64::new(0),
            bg_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            degraded_entries: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            fail_streak: AtomicU32::new(0),
            clean_streak: AtomicU32::new(0),
        }
    }

    /// Lock the queue, recovering from poison: the shim `parking_lot`
    /// build never poisons, and under std mutexes a worker that panicked
    /// while holding the queue lock has left it in a consistent state
    /// (every critical section below is a few field updates with no
    /// intermediate invariant-breaking point — see DESIGN.md §16).
    fn lock_q(&self) -> MutexGuard<'_, Queue> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue a retrain request for the span starting at `span_key`.
    /// Returns false if the request was shed (queue full, span already
    /// queued, or shutdown in progress).
    pub(crate) fn enqueue(&self, span_key: u64, key_hint: u64, priority: u64) -> bool {
        // Failpoint before the lock (an injected Delay must not sleep
        // holding it; an injected Panic unwinds into the caller's
        // containment in `trigger_retrain`). Error/AllocFail shed the
        // request — the next overflow insert simply re-enqueues.
        if failpoint::should_fail!("sched.enqueue") {
            self.count_dropped();
            return false;
        }
        self.enqueue_unchecked(span_key, key_hint, priority)
    }

    /// [`Self::enqueue`] minus the fault-injection point — used by the
    /// worker pool to re-enqueue a span whose retrain panicked, so a
    /// persistent injection at `sched.enqueue` can't turn one contained
    /// panic into an infinite inject→re-enqueue loop.
    pub(crate) fn enqueue_unchecked(&self, span_key: u64, key_hint: u64, priority: u64) -> bool {
        testkit::chaos_point!("retrain.bg.enqueue");
        let mut q = self.lock_q();
        if q.shutdown || q.heap.len() >= self.policy.max_queue.max(1) {
            drop(q);
            self.count_dropped();
            return false;
        }
        if !q.pending_spans.insert(span_key) {
            // Already queued: the pending request will observe the
            // accumulated overflow when it runs; no second pass needed.
            return false;
        }
        q.seq += 1;
        let seq = q.seq;
        q.heap.push(Request {
            priority,
            seq,
            key_hint,
            span_key,
        });
        obs::incr!(Counter::RetrainBgEnqueued);
        drop(q);
        self.work.notify_one();
        true
    }

    /// Block until a request is available (returns it) or shutdown
    /// (returns `None`).
    fn pop(&self) -> Option<Request> {
        let mut q = self.lock_q();
        loop {
            if q.shutdown {
                return None;
            }
            if let Some(r) = q.heap.pop() {
                q.pending_spans.remove(&r.span_key);
                q.in_flight += 1;
                return Some(r);
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark one popped request finished.
    fn done(&self) {
        let mut q = self.lock_q();
        q.in_flight -= 1;
        if q.drained() {
            self.idle.notify_all();
        }
    }

    /// Block until every queued and in-flight request has finished (or
    /// shutdown began, after which no further draining is guaranteed).
    pub(crate) fn quiesce(&self) {
        let mut q = self.lock_q();
        while !q.drained() && !q.shutdown {
            q = self.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Queued (not yet popped) request count.
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.lock_q().heap.len()
    }

    fn shutdown(&self) {
        self.lock_q().shutdown = true;
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// Rate-limit between drained retrains. Returns false on shutdown.
    fn throttle(&self) -> bool {
        let dur = self.policy.min_interval;
        let mut q = self.lock_q();
        if dur.is_zero() {
            return !q.shutdown;
        }
        let deadline = Instant::now() + dur;
        loop {
            if q.shutdown {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            // Spurious wakeups (including notify for new work) just
            // re-check the deadline; the worker stays throttled.
            let (g, _) = self
                .work
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            q = g;
        }
    }

    fn count_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RetrainBgDropped);
    }

    /// Whether the pool is in degraded mode (background scheduling
    /// suspended; overflows retrain inline, contained).
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Record one contained background-retrain panic. Returns true when
    /// this panic tripped the fail-streak limit and *entered* degraded
    /// mode (at most once per degraded episode).
    fn note_panic(&self) -> bool {
        self.bg_panics.fetch_add(1, Ordering::Relaxed);
        obs::incr!(Counter::RetrainBgPanic);
        let streak = self.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.policy.fail_streak_limit.max(1)
            && !self.degraded.swap(true, Ordering::Relaxed)
        {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
            obs::incr!(Counter::RetrainDegradedEntry);
            return true;
        }
        false
    }

    /// Record one clean background drain: resets the fail streak.
    fn note_bg_clean(&self) {
        self.fail_streak.store(0, Ordering::Relaxed);
    }

    /// Record the outcome of a contained inline retrain run *because*
    /// the pool is degraded. `recover_after` consecutive clean runs end
    /// the degraded episode and resume background scheduling.
    pub(crate) fn note_inline_result(&self, ok: bool) {
        if !self.degraded.load(Ordering::Relaxed) {
            return;
        }
        if !ok {
            self.clean_streak.store(0, Ordering::Relaxed);
            return;
        }
        let streak = self.clean_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.policy.recover_after.max(1) {
            self.clean_streak.store(0, Ordering::Relaxed);
            self.fail_streak.store(0, Ordering::Relaxed);
            self.degraded.store(false, Ordering::Relaxed);
        }
    }

    /// Always-on fault counters, in declaration order: requests
    /// shed/dropped, contained background panics, worker respawns,
    /// degraded-mode entries.
    pub(crate) fn fault_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.bg_panics.load(Ordering::Relaxed),
            self.respawns.load(Ordering::Relaxed),
            self.degraded_entries.load(Ordering::Relaxed),
        )
    }
}

/// Owner of the worker pool: dropping it signals shutdown and joins
/// every worker, so no thread can outlive the [`crate::AltIndex`] that
/// spawned it.
pub(crate) struct SchedHandle {
    shared: Arc<SchedShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for SchedHandle {
    fn drop(&mut self) {
        self.shared.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn the worker pool over a weak reference to the core. Workers
/// upgrade per request; a failed upgrade (the index is being dropped)
/// ends the worker.
///
/// Every drained retrain runs inside `catch_unwind`: a panic (injected
/// or real) is contained, counted, and the worker "respawns" — the loop
/// continues in place, so the OS thread survives and the queue keeps
/// draining. Repeated consecutive panics trip degraded mode (see
/// [`SchedShared::note_panic`] and DESIGN.md §16).
pub(crate) fn spawn_workers(shared: Arc<SchedShared>, core: Weak<AltCore>) -> SchedHandle {
    let n = shared.policy.workers.max(1);
    let workers = (0..n)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("alt-retrain-{i}"))
                .spawn(move || {
                    while let Some(req) = shared.pop() {
                        // The guard marks the request finished even if
                        // the retrain panics — without it, quiesce()
                        // waiters would hang forever on `in_flight`
                        // (satellite: shutdown ordering under panic).
                        let outcome = {
                            let _in_flight = InFlightGuard(&shared);
                            catch_unwind(AssertUnwindSafe(|| {
                                testkit::chaos_point!("retrain.bg.drain");
                                if failpoint::should_fail!("sched.drain") {
                                    // Injected Error: drop this request
                                    // on the floor; the next overflow
                                    // insert for the span re-enqueues.
                                    shared.count_dropped();
                                    return true;
                                }
                                obs::incr!(Counter::RetrainBgDrained);
                                match core.upgrade() {
                                    Some(core) => {
                                        core.retrain_background(req.key_hint);
                                        true
                                    }
                                    None => false,
                                }
                            }))
                        };
                        match outcome {
                            Ok(alive) => {
                                shared.note_bg_clean();
                                if !alive || !shared.throttle() {
                                    break;
                                }
                            }
                            Err(_) => {
                                // Contained panic. `retrain_background`'s
                                // drop-guards have already rolled partial
                                // state back (locks released, publish
                                // completed or never started).
                                shared.note_panic();
                                shared.respawns.fetch_add(1, Ordering::Relaxed);
                                obs::incr!(Counter::RetrainWorkerRespawn);
                                if !shared.is_degraded() {
                                    // Give the span another chance — but
                                    // never from inside a degraded
                                    // episode, and via the unchecked path
                                    // so a persistent enqueue injection
                                    // can't loop.
                                    shared.enqueue_unchecked(
                                        req.span_key,
                                        req.key_hint,
                                        req.priority,
                                    );
                                }
                                if !shared.throttle() {
                                    break;
                                }
                            }
                        }
                    }
                })
                .expect("spawn background retrain worker")
        })
        .collect();
    SchedHandle { shared, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn policy(max_queue: usize) -> BgRetrainPolicy {
        BgRetrainPolicy {
            workers: 1,
            max_queue,
            min_interval: Duration::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn pops_highest_priority_first_fifo_among_ties() {
        let s = SchedShared::new(policy(16));
        assert!(s.enqueue(10, 11, 1));
        assert!(s.enqueue(20, 21, 5));
        assert!(s.enqueue(30, 31, 5));
        assert!(s.enqueue(40, 41, 3));
        let order: Vec<u64> = (0..4).map(|_| s.pop().unwrap().span_key).collect();
        assert_eq!(order, vec![20, 30, 40, 10]);
    }

    #[test]
    fn duplicate_spans_coalesce_and_full_queue_sheds() {
        let s = SchedShared::new(policy(2));
        assert!(s.enqueue(10, 11, 1));
        assert!(!s.enqueue(10, 12, 9), "same span coalesces");
        assert!(s.enqueue(20, 21, 1));
        assert!(!s.enqueue(30, 31, 1), "queue full sheds");
        assert_eq!(s.depth(), 2);
        // Popping a span frees its dedup slot for re-enqueueing.
        let r = s.pop().unwrap();
        assert!(s.enqueue(r.span_key, r.key_hint, 1));
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn escalations_between_enqueues_keep_fifo_among_equal_pressure() {
        // The process-wide `alt.escalation` total must stay out of the
        // priority: it only grows, so a later request would outrank an
        // earlier one with the same overflow pressure.
        use crate::config::AltConfig;
        use crate::index::AltCore;
        let mut pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
        pairs.extend((1..=2_000u64).map(|i| (10_000_000 + i * 7, i)));
        // A queue with no workers: the test drains it itself.
        let shared = Arc::new(SchedShared::new(policy(16)));
        let cfg = AltConfig {
            epsilon: Some(64.0),
            ..AltConfig::background()
        };
        let core = AltCore::build(&pairs, cfg, Some(Arc::clone(&shared)));
        let guard = crossbeam_epoch::pin();
        let models = &core.dir_ref(&guard).models;
        assert!(models.len() >= 2, "the test needs two spans");
        let (a, b) = (&models[0], &models[models.len() - 1]);
        for m in [a, b] {
            // Twice the trigger threshold: both spans score 512.
            m.art_inserts
                .store(2 * m.build_size.max(16), Ordering::Relaxed);
        }
        core.trigger_retrain(a.first_key);
        for _ in 0..1_000 {
            crate::count_contention(resilience::Event::Escalate);
        }
        core.trigger_retrain(b.first_key);
        let order: Vec<u64> = (0..2).map(|_| shared.pop().unwrap().span_key).collect();
        assert_eq!(order, vec![a.first_key, b.first_key], "FIFO among equals");
    }

    #[test]
    fn quiesce_waits_for_in_flight_work() {
        let s = Arc::new(SchedShared::new(policy(16)));
        assert!(s.enqueue(10, 11, 1));
        let r = s.pop().unwrap();
        assert_eq!(r.span_key, 10);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.quiesce());
        // The request is in flight, so quiesce must not return yet.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "quiesce returned with work in flight"
        );
        s.done();
        waiter.join().unwrap();
    }

    #[test]
    fn shutdown_unblocks_pop_and_quiesce() {
        let s = Arc::new(SchedShared::new(policy(16)));
        let s2 = Arc::clone(&s);
        let popper = std::thread::spawn(move || s2.pop());
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        assert_eq!(popper.join().unwrap(), None);
        s.quiesce(); // must not hang after shutdown
        assert!(!s.enqueue(1, 1, 1), "post-shutdown enqueues are shed");
    }

    #[test]
    fn quiesce_survives_a_panicking_drain() {
        // Regression: a worker panicking mid-retrain used to skip
        // `done()`, leaving `in_flight` nonzero and every quiesce()
        // caller parked forever. The InFlightGuard must run `done()`
        // during unwind.
        let s = Arc::new(SchedShared::new(policy(16)));
        assert!(s.enqueue(10, 11, 1));
        let r = s.pop().unwrap();
        assert_eq!(r.span_key, 10);
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _g = InFlightGuard(&s);
            panic!("injected worker death");
        }));
        assert!(res.is_err());
        s.quiesce(); // must return: the guard marked the request done
        assert!(s.lock_q().drained());
    }

    #[test]
    fn degraded_mode_trips_after_streak_and_recovers() {
        // Defaults: fail_streak_limit = 3, recover_after = 2.
        let s = SchedShared::new(policy(16));
        assert!(!s.is_degraded());
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        assert!(s.note_panic(), "third consecutive panic trips degraded");
        assert!(s.is_degraded());
        assert!(!s.note_panic(), "re-entry is not counted twice");
        assert_eq!(s.fault_counts().3, 1, "one degraded-mode entry");
        assert_eq!(s.fault_counts().1, 4, "every contained panic counted");

        // Recovery needs `recover_after` *consecutive* clean inlines.
        s.note_inline_result(true);
        assert!(s.is_degraded(), "one clean inline is not enough");
        s.note_inline_result(false);
        s.note_inline_result(true);
        assert!(s.is_degraded(), "failed inline reset the recovery streak");
        s.note_inline_result(true);
        assert!(!s.is_degraded(), "two consecutive clean inlines recover");

        // The fail streak was reset on recovery: it takes a full new
        // streak to re-enter.
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        assert!(s.note_panic());
        assert_eq!(s.fault_counts().3, 2);
    }

    #[test]
    fn clean_drain_resets_the_fail_streak() {
        let s = SchedShared::new(policy(16));
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        s.note_bg_clean();
        assert!(!s.note_panic(), "streak restarted after a clean drain");
        assert!(!s.note_panic());
        assert!(s.note_panic());
    }

    #[test]
    fn throttle_observes_shutdown() {
        let s = Arc::new(SchedShared::new(BgRetrainPolicy {
            workers: 1,
            max_queue: 16,
            min_interval: Duration::from_secs(60),
            ..Default::default()
        }));
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.throttle());
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        assert!(!t.join().unwrap(), "shutdown must end the throttle wait");
    }
}
