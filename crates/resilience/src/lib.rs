//! Contention resilience for optimistic concurrency: tiered backoff,
//! retry budgets, and the escalation decision shared by every unbounded
//! optimistic loop in the workspace (slot version retries, OLC restarts,
//! scan epoch revalidation, seqlock reads, spin locks).
//!
//! The model: an optimistic attempt either succeeds on the first try —
//! in which case nothing here runs at all — or retries. Each retry steps
//! a stack-local [`Backoff`] through three tiers:
//!
//! ```text
//!   attempt:   1 .. spin_retries          spin_loop() hints   (Spin)
//!            | .. + yield_retries         thread::yield_now() (Yield)
//!            | .. + park_retries          exponential sleep   (Park)
//!            '-- budget exhausted ------> ESCALATE (exactly once)
//! ```
//!
//! and charges a [`RetryBudget`]. When the budget is exhausted and the
//! policy allows it, [`RetryBudget::should_escalate`] reports `true`
//! exactly once: the caller switches to its guaranteed-progress
//! pessimistic fallback (take the write lock to read, take `dir_lock`
//! for one consistent scan pass, de-optimize a shortcut to the root
//! path). Paths with no fallback — lock-acquisition waits, whose holder
//! is guaranteed to make progress — keep waiting in the Park tier, which
//! costs no CPU.
//!
//! Park sleeps are jittered deterministically (SplitMix64 from the seed
//! given at construction), so a fixed seed yields a reproducible wait
//! sequence — the property the proptests in this crate pin down.
//!
//! Everything is per-attempt stack-local; the only shared state is the
//! process-global default [`ContentionPolicy`], read lazily on the first
//! *retry* (never on first-try success) and overridable per-index via
//! `AltConfig` or process-wide via `ALT_RESILIENCE_*` environment
//! variables / [`set_global`].

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

/// The three waiting strategies, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Busy-wait with `spin_loop` hints (cheapest; holder is about to
    /// finish).
    Spin,
    /// `thread::yield_now()` — give the scheduler a chance to run the
    /// conflicting writer on this core.
    Yield,
    /// Deterministically-jittered exponential `thread::sleep` — stop
    /// burning CPU entirely.
    Park,
}

/// Tunable knobs for backoff tiers and the retry budget.
///
/// The retry budget is implicit: `spin_retries + yield_retries +
/// park_retries` total retries before escalation. `escalate = false`
/// disables escalation entirely (the loop then parks forever) — the
/// control arm the starvation gate uses to demonstrate livelock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionPolicy {
    /// Retries served by the Spin tier.
    pub spin_retries: u32,
    /// Retries served by the Yield tier.
    pub yield_retries: u32,
    /// Retries served by the Park tier before the budget is exhausted.
    pub park_retries: u32,
    /// First Park-tier sleep, in nanoseconds (doubles per park).
    pub park_ns_base: u64,
    /// Park sleep cap, in nanoseconds.
    pub park_ns_max: u64,
    /// Whether exhausting the budget escalates to the pessimistic
    /// fallback. `false` reproduces the unbounded-retry behavior (with
    /// parked waits), for experiments and the starvation gate.
    pub escalate: bool,
}

impl ContentionPolicy {
    /// Total retries before the budget is exhausted.
    #[inline]
    pub const fn total_retries(&self) -> u32 {
        self.spin_retries + self.yield_retries + self.park_retries
    }

    /// The tier serving retry number `attempt` (1-based). Attempts past
    /// the budget stay in [`Tier::Park`]. Monotone in `attempt`.
    #[inline]
    pub const fn tier_for(&self, attempt: u32) -> Tier {
        if attempt <= self.spin_retries {
            Tier::Spin
        } else if attempt <= self.spin_retries + self.yield_retries {
            Tier::Yield
        } else {
            Tier::Park
        }
    }
}

impl Default for ContentionPolicy {
    /// Matches the workspace's historical fixed backoff for the first
    /// retries (≈64 spins before yielding), then parks and escalates.
    fn default() -> Self {
        Self {
            spin_retries: 48,
            yield_retries: 16,
            park_retries: 16,
            park_ns_base: 2_000,
            park_ns_max: 256_000,
            escalate: true,
        }
    }
}

/// One performed wait, as reported by [`Backoff::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitStep {
    /// The tier this wait used.
    pub tier: Tier,
    /// `true` when this wait is the first in its tier — the moment to
    /// record a backoff-tier-transition metric.
    pub transition: bool,
    /// Nanoseconds requested from `thread::sleep` (Park tier only, 0
    /// otherwise). Deterministic for a fixed construction seed.
    pub park_ns: u64,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stack-local tiered backoff. Construction is free (two integers); the
/// first `wait` call is the first cost a contended path pays.
#[derive(Debug, Clone)]
pub struct Backoff {
    attempts: u32,
    rng: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    /// A fresh backoff with the default jitter seed.
    #[inline]
    pub const fn new() -> Self {
        Self::seeded(0x0005_EED0_FBAC_C0FF)
    }

    /// A fresh backoff whose Park-tier jitter derives deterministically
    /// from `seed` (pass the key or slot index for decorrelated waits).
    #[inline]
    pub const fn seeded(seed: u64) -> Self {
        Backoff {
            attempts: 0,
            rng: seed,
        }
    }

    /// Retries waited so far.
    #[inline]
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Perform one wait under `pol` and report what was done. Tiers are
    /// visited in order and never revisited (monotone).
    pub fn wait(&mut self, pol: &ContentionPolicy) -> WaitStep {
        self.attempts += 1;
        let tier = pol.tier_for(self.attempts);
        let transition = self.attempts == 1 || tier != pol.tier_for(self.attempts - 1);
        let mut park_ns = 0;
        match tier {
            Tier::Spin => {
                // A short, slowly growing spin — the conflicting writer
                // is usually a few instructions from releasing.
                let reps = 1u32 << (self.attempts.min(6));
                for _ in 0..reps {
                    std::hint::spin_loop();
                }
            }
            Tier::Yield => std::thread::yield_now(),
            Tier::Park => {
                let k = self
                    .attempts
                    .saturating_sub(pol.spin_retries + pol.yield_retries)
                    .saturating_sub(1)
                    .min(16);
                let base = pol.park_ns_base.saturating_shl(k).min(pol.park_ns_max);
                // 50–100% of the doubled base, deterministically jittered
                // so parked threads don't wake in lockstep.
                park_ns = base / 2 + splitmix64(&mut self.rng) % (base / 2 + 1);
                std::thread::sleep(Duration::from_nanos(park_ns));
            }
        }
        WaitStep {
            tier,
            transition,
            park_ns,
        }
    }
}

trait SaturatingShl {
    fn saturating_shl(self, k: u32) -> Self;
}
impl SaturatingShl for u64 {
    #[inline]
    fn saturating_shl(self, k: u32) -> u64 {
        if self == 0 || k >= 64 {
            return if self == 0 { 0 } else { u64::MAX };
        }
        if self.leading_zeros() >= k {
            self << k
        } else {
            u64::MAX
        }
    }
}

/// Tracks retries against a [`ContentionPolicy`] budget and reports the
/// escalation decision — `true` exactly once per budget lifetime.
#[derive(Debug, Clone, Default)]
pub struct RetryBudget {
    used: u32,
    escalated: bool,
}

impl RetryBudget {
    /// A fresh, unspent budget.
    #[inline]
    pub const fn new() -> Self {
        RetryBudget {
            used: 0,
            escalated: false,
        }
    }

    /// Charge one retry.
    #[inline]
    pub fn charge(&mut self) {
        self.used += 1;
    }

    /// Retries charged so far.
    #[inline]
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Whether the charged retries exceed the policy's budget.
    #[inline]
    pub fn exhausted(&self, pol: &ContentionPolicy) -> bool {
        self.used > pol.total_retries()
    }

    /// `true` exactly once: on the first call where the budget is
    /// exhausted and `pol.escalate` allows escalating. Every later call
    /// (and every call under `escalate = false`) returns `false`.
    #[inline]
    pub fn should_escalate(&mut self, pol: &ContentionPolicy) -> bool {
        if pol.escalate && !self.escalated && self.exhausted(pol) {
            self.escalated = true;
            true
        } else {
            false
        }
    }
}

/// What a retry loop should do next, per [`Retry::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A wait was performed; retry the optimistic attempt. Inspect the
    /// [`WaitStep`] to record tier transitions.
    Wait(WaitStep),
    /// The budget is exhausted: switch to the pessimistic fallback.
    /// Returned exactly once; if the caller has no fallback and keeps
    /// stepping, later steps park.
    Escalate,
}

/// A retry-loop event worth counting, reported by the counted steps
/// ([`Retry::wait_or_escalate`], [`Retry::wait_or_escalate_global`],
/// [`Retry::wait_for_holder`]). Each instrumented crate maps the three
/// onto its own escalation and backoff-tier counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The first wait in the [`Tier::Yield`] tier.
    Yield,
    /// The first wait in the [`Tier::Park`] tier.
    Park,
    /// The budget ran out; the caller switches to its fallback.
    Escalate,
}

impl WaitStep {
    /// The tier this wait entered, if it is the first wait in the Yield
    /// or Park tier (entering Spin is the first retry, not an event).
    #[inline]
    fn entered(&self) -> Option<Event> {
        match (self.transition, self.tier) {
            (true, Tier::Yield) => Some(Event::Yield),
            (true, Tier::Park) => Some(Event::Park),
            _ => None,
        }
    }
}

/// The [`Backoff`] + [`RetryBudget`] pair every call site actually wants,
/// with lazy policy resolution: the global policy is loaded on the first
/// `step_global`/`wait_global` call — i.e. on the first *retry* — and
/// cached for the rest of the operation. First-try successes never touch
/// it.
#[derive(Debug, Clone)]
pub struct Retry {
    backoff: Backoff,
    budget: RetryBudget,
    cached: Option<ContentionPolicy>,
}

impl Default for Retry {
    fn default() -> Self {
        Self::new()
    }
}

impl Retry {
    /// A fresh retry state with the default jitter seed.
    #[inline]
    pub const fn new() -> Self {
        Retry {
            backoff: Backoff::new(),
            budget: RetryBudget::new(),
            cached: None,
        }
    }

    /// A fresh retry state with deterministic Park jitter from `seed`.
    #[inline]
    pub const fn seeded(seed: u64) -> Self {
        Retry {
            backoff: Backoff::seeded(seed),
            budget: RetryBudget::new(),
            cached: None,
        }
    }

    /// Retries performed so far.
    #[inline]
    pub fn attempts(&self) -> u32 {
        self.backoff.attempts()
    }

    /// Charge one retry against `pol`: escalate if the budget just ran
    /// out (exactly once), otherwise wait one backoff step.
    #[inline]
    pub fn step(&mut self, pol: &ContentionPolicy) -> Step {
        self.budget.charge();
        if self.budget.should_escalate(pol) {
            return Step::Escalate;
        }
        Step::Wait(self.backoff.wait(pol))
    }

    /// [`Retry::step`] against the process-global policy (loaded lazily
    /// on the first call, then cached in this `Retry`).
    #[inline]
    pub fn step_global(&mut self) -> Step {
        let pol = *self.cached.get_or_insert_with(global);
        self.step(&pol)
    }

    /// Wait one backoff step without charging the budget — for waits
    /// that already have guaranteed progress (lock acquisition: the
    /// holder finishes regardless of us) and therefore never escalate.
    #[inline]
    pub fn wait(&mut self, pol: &ContentionPolicy) -> WaitStep {
        self.backoff.wait(pol)
    }

    /// [`Retry::wait`] against the cached process-global policy.
    #[inline]
    pub fn wait_global(&mut self) -> WaitStep {
        let pol = *self.cached.get_or_insert_with(global);
        self.backoff.wait(&pol)
    }

    /// Charge one retry against `pol` and report it: returns `true`
    /// exactly once, when the budget runs out (after
    /// `note(Event::Escalate)`) — the caller then switches to its
    /// guaranteed-progress fallback. Otherwise waits one backoff step,
    /// passing `note` any Yield/Park tier entry, and returns `false`.
    ///
    /// Cold and never inlined: first-try successes never get here, and
    /// the optimistic fast paths that call it stay small.
    #[cold]
    #[inline(never)]
    pub fn wait_or_escalate(&mut self, pol: &ContentionPolicy, note: impl FnOnce(Event)) -> bool {
        noted(self.step(pol), note)
    }

    /// [`Retry::wait_or_escalate`] against the process-global policy.
    #[cold]
    #[inline(never)]
    pub fn wait_or_escalate_global(&mut self, note: impl FnOnce(Event)) -> bool {
        noted(self.step_global(), note)
    }

    /// Backoff-only wait for loops whose progress is already guaranteed
    /// by the current holder (lock acquisition): tiers advance and their
    /// entries go to `note`, but the wait never escalates — there is
    /// nothing more pessimistic than the lock the caller is queueing
    /// for. Uses the process-global policy.
    #[cold]
    #[inline(never)]
    pub fn wait_for_holder(&mut self, note: impl FnOnce(Event)) {
        if let Some(e) = self.wait_global().entered() {
            note(e);
        }
    }
}

/// Report `step` to `note`; true on escalation.
#[inline]
fn noted(step: Step, note: impl FnOnce(Event)) -> bool {
    match step {
        Step::Escalate => {
            note(Event::Escalate);
            true
        }
        Step::Wait(s) => {
            if let Some(e) = s.entered() {
                note(e);
            }
            false
        }
    }
}

// --- process-global default policy -----------------------------------

static SPIN: AtomicU32 = AtomicU32::new(48);
static YIELD: AtomicU32 = AtomicU32::new(16);
static PARK: AtomicU32 = AtomicU32::new(16);
static PARK_NS_BASE: AtomicU64 = AtomicU64::new(2_000);
static PARK_NS_MAX: AtomicU64 = AtomicU64::new(256_000);
static ESCALATE: AtomicBool = AtomicBool::new(true);
static ENV_INIT: Once = Once::new();

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        fn num<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        if let Some(v) = num::<u32>("ALT_RESILIENCE_SPIN") {
            SPIN.store(v, Ordering::Relaxed);
        }
        if let Some(v) = num::<u32>("ALT_RESILIENCE_YIELD") {
            YIELD.store(v, Ordering::Relaxed);
        }
        if let Some(v) = num::<u32>("ALT_RESILIENCE_PARK") {
            PARK.store(v, Ordering::Relaxed);
        }
        if let Some(v) = num::<u64>("ALT_RESILIENCE_PARK_NS") {
            PARK_NS_BASE.store(v, Ordering::Relaxed);
        }
        if let Some(v) = num::<u64>("ALT_RESILIENCE_PARK_NS_MAX") {
            PARK_NS_MAX.store(v, Ordering::Relaxed);
        }
        if let Some(v) = num::<u32>("ALT_RESILIENCE_ESCALATE") {
            ESCALATE.store(v != 0, Ordering::Relaxed);
        }
    });
}

/// The process-global default policy: compiled-in defaults, overridden
/// once from `ALT_RESILIENCE_{SPIN,YIELD,PARK,PARK_NS,PARK_NS_MAX,
/// ESCALATE}` on first use, and at any time by [`set_global`]. Only
/// loaded on retry paths, never on first-try success.
pub fn global() -> ContentionPolicy {
    ensure_env_init();
    ContentionPolicy {
        spin_retries: SPIN.load(Ordering::Relaxed),
        yield_retries: YIELD.load(Ordering::Relaxed),
        park_retries: PARK.load(Ordering::Relaxed),
        park_ns_base: PARK_NS_BASE.load(Ordering::Relaxed),
        park_ns_max: PARK_NS_MAX.load(Ordering::Relaxed),
        escalate: ESCALATE.load(Ordering::Relaxed),
    }
}

/// Replace the process-global default policy (tests, experiments). Wins
/// over the environment: the env snapshot is taken first, then
/// overwritten. Note that in-flight `Retry` states keep the policy they
/// already cached.
pub fn set_global(pol: ContentionPolicy) {
    ensure_env_init();
    SPIN.store(pol.spin_retries, Ordering::Relaxed);
    YIELD.store(pol.yield_retries, Ordering::Relaxed);
    PARK.store(pol.park_retries, Ordering::Relaxed);
    PARK_NS_BASE.store(pol.park_ns_base, Ordering::Relaxed);
    PARK_NS_MAX.store(pol.park_ns_max, Ordering::Relaxed);
    ESCALATE.store(pol.escalate, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy whose Park tier sleeps 0ns, so tests stepping through it
    /// stay fast.
    fn quick(spin: u32, yld: u32, park: u32, escalate: bool) -> ContentionPolicy {
        ContentionPolicy {
            spin_retries: spin,
            yield_retries: yld,
            park_retries: park,
            park_ns_base: 0,
            park_ns_max: 0,
            escalate,
        }
    }

    #[test]
    fn tiers_progress_in_order() {
        let pol = quick(2, 2, 2, true);
        let mut b = Backoff::seeded(7);
        let tiers: Vec<Tier> = (0..8).map(|_| b.wait(&pol).tier).collect();
        assert_eq!(
            tiers,
            [
                Tier::Spin,
                Tier::Spin,
                Tier::Yield,
                Tier::Yield,
                Tier::Park,
                Tier::Park,
                Tier::Park, // past budget: stays parked
                Tier::Park,
            ]
        );
    }

    #[test]
    fn transitions_fire_on_first_step_of_each_tier() {
        let pol = quick(1, 1, 1, true);
        let mut b = Backoff::new();
        let t: Vec<bool> = (0..5).map(|_| b.wait(&pol).transition).collect();
        assert_eq!(t, [true, true, true, false, false]);
    }

    #[test]
    fn zero_width_tiers_are_skipped() {
        let pol = quick(0, 0, 2, true);
        let mut b = Backoff::new();
        let s = b.wait(&pol);
        assert_eq!(s.tier, Tier::Park);
        assert!(s.transition);
    }

    #[test]
    fn budget_escalates_exactly_once() {
        let pol = quick(1, 1, 1, true);
        let mut budget = RetryBudget::new();
        let mut escalations = 0;
        for _ in 0..20 {
            budget.charge();
            if budget.should_escalate(&pol) {
                escalations += 1;
            }
        }
        assert_eq!(escalations, 1);
    }

    #[test]
    fn escalation_disabled_never_escalates() {
        let pol = quick(0, 0, 1, false);
        let mut budget = RetryBudget::new();
        for _ in 0..100 {
            budget.charge();
            assert!(!budget.should_escalate(&pol));
        }
    }

    #[test]
    fn retry_step_escalates_after_total_budget() {
        let pol = quick(2, 1, 1, true);
        let mut r = Retry::seeded(3);
        let mut waits = 0;
        while let Step::Wait(_) = r.step(&pol) {
            waits += 1;
        }
        assert_eq!(waits, pol.total_retries());
        // Stepping past escalation parks, never escalates again.
        for _ in 0..5 {
            match r.step(&pol) {
                Step::Wait(s) => assert_eq!(s.tier, Tier::Park),
                Step::Escalate => panic!("escalated twice"),
            }
        }
    }

    #[test]
    fn counted_steps_report_each_tier_entry_and_one_escalation() {
        let pol = quick(2, 2, 2, true);
        let mut r = Retry::seeded(5);
        let mut events = Vec::new();
        let escalated: Vec<bool> = (0..9)
            .map(|_| r.wait_or_escalate(&pol, |e| events.push(e)))
            .collect();
        assert_eq!(events, [Event::Yield, Event::Park, Event::Escalate]);
        assert_eq!(escalated.iter().filter(|&&e| e).count(), 1);
        assert!(escalated[6], "the seventh charge exhausts a 6-retry budget");

        // A holder wait reports tier entries and never escalates.
        let mut r = Retry::new();
        let mut events = Vec::new();
        for _ in 0..200 {
            r.wait_for_holder(|e| events.push(e));
        }
        assert_eq!(events, [Event::Yield, Event::Park]);
    }

    #[test]
    fn park_durations_respect_cap_and_determinism() {
        let pol = ContentionPolicy {
            spin_retries: 0,
            yield_retries: 0,
            park_retries: 4,
            park_ns_base: 1,
            park_ns_max: 8,
            escalate: true,
        };
        let run = |seed| -> Vec<u64> {
            let mut b = Backoff::seeded(seed);
            (0..6).map(|_| b.wait(&pol).park_ns).collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "fixed seed reproduces the wait sequence");
        assert!(a.iter().all(|&ns| ns <= pol.park_ns_max));
    }

    #[test]
    fn global_roundtrip() {
        // Serialize against other tests that might touch the global.
        let custom = ContentionPolicy {
            spin_retries: 3,
            yield_retries: 4,
            park_retries: 5,
            park_ns_base: 6,
            park_ns_max: 7,
            escalate: false,
        };
        let prior = global();
        set_global(custom);
        assert_eq!(global(), custom);
        set_global(prior);
    }
}
