//! Deterministic fault injection behind named sites.
//!
//! The shape mirrors `testkit::chaos`: instrumented crates call the
//! [`point!`], [`should_fail!`] and [`fires!`] macros, whose expansion
//! carries `#[cfg(feature = "fault")]`. Rustc evaluates that cfg against
//! the calling crate, so a crate built without its own `fault` feature
//! compiles every site to nothing and pays nothing. With the feature on,
//! every call lands here: an installed **failpoint** decides
//! — deterministically, per its trigger policy — whether the site fires,
//! and if so which [`FailAction`] it takes.
//!
//! Actions:
//!
//! * **Panic** — `panic_any` with an [`InjectedPanic`] payload, so
//!   containment layers (`catch_unwind` in the retrain paths) can tell an
//!   injected death from a real bug in diagnostics.
//! * **Error** / **AllocFail** — surfaced to the call site as
//!   [`Injected`], for sites with a graceful failure channel (abort one
//!   retrain, shed one request, fail one chunk refill).
//! * **Delay** — a bounded sleep, for widening windows without failing.
//!
//! Triggers:
//!
//! * **Always** — every hit fires.
//! * **Nth(n)** — fires exactly once, on the n-th hit (1-based). The
//!   one-shot semantics matter: recovery paths re-run the failed work, and
//!   a sticky trigger would re-kill the retry forever.
//! * **Probability(p)** — fires with probability p/1024, decided by a
//!   seeded SplitMix64 stream over `(seed, site, hit-count)`, so a run is
//!   reproducible given the same hit sequence.
//!
//! Configuration is programmatic ([`install`], returning a [`FailGuard`]
//! that uninstalls on drop) or environmental: `ALT_FAIL_POINTS`
//! (`site=action[@trigger];...`, see [`install_from_env`]) and
//! `ALT_FAIL_SEED` are read once, on the first evaluated site, so any
//! fault-enabled binary honours them without code changes.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Duration;

/// What an installed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// `panic_any(InjectedPanic { site })` — simulates a thread dying
    /// mid-protocol. Containment layers recognise the payload.
    Panic,
    /// Report a recoverable failure to the call site ([`Injected::Error`]).
    Error,
    /// Report an allocation failure to the call site
    /// ([`Injected::AllocFail`]).
    AllocFail,
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
}

/// When an installed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit fires.
    Always,
    /// Exactly one firing, on the n-th hit (1-based; `Nth(1)` = first).
    Nth(u64),
    /// Each hit fires with probability `p/1024`, from the seeded stream.
    Probability(u32),
}

/// The recoverable-failure half of [`FailAction`], returned by [`eval`]
/// to sites that have an error channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// An injected operational error.
    Error,
    /// An injected allocation failure.
    AllocFail,
}

/// Panic payload used by [`FailAction::Panic`] so containment code can
/// recognise injected deaths (`payload.downcast_ref::<InjectedPanic>()`).
#[derive(Debug)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: &'static str,
}

struct Entry {
    id: u64,
    site: String,
    action: FailAction,
    trigger: Trigger,
    hits: u64,
    fires: u64,
}

struct Registry {
    entries: Vec<Entry>,
    next_id: u64,
    seed: u64,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    entries: Vec::new(),
    next_id: 1,
    seed: 0x5EED_F417_0000_0001,
});

/// Fast-path gate: number of installed entries, or -1 before the one-time
/// env scan. A plain relaxed load when nothing is installed.
static ACTIVE: AtomicI32 = AtomicI32::new(-1);
static ENV_INIT: Once = Once::new();

/// Total hits across all sites (installed or not evaluated — only
/// evaluated sites count). Vacuity checks compare before/after deltas.
static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // A panicking *injected* thread may hold this lock only between
    // trigger evaluation and return — never across the panic itself —
    // but recover from poison anyway: the registry state is always
    // consistent (single mutations under the lock).
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Uninstalls its failpoint when dropped.
#[must_use = "the failpoint is uninstalled when the guard drops"]
pub struct FailGuard {
    id: u64,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        let mut r = registry();
        r.entries.retain(|e| e.id != self.id);
        ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    }
}

/// Install a failpoint at `site`. Multiple failpoints on one site
/// evaluate in installation order; the first firing wins.
pub fn install(site: &str, action: FailAction, trigger: Trigger) -> FailGuard {
    init_env();
    let mut r = registry();
    let id = r.next_id;
    r.next_id += 1;
    r.entries.push(Entry {
        id,
        site: site.to_string(),
        action,
        trigger,
        hits: 0,
        fires: 0,
    });
    ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    FailGuard { id }
}

/// Set the seed for [`Trigger::Probability`] streams (also settable via
/// `ALT_FAIL_SEED`).
pub fn set_seed(seed: u64) {
    registry().seed = seed;
}

/// Hits recorded for `site` across all currently-installed failpoints on
/// it (0 when none installed). Use to assert a site is actually reached.
pub fn hits(site: &str) -> u64 {
    registry()
        .entries
        .iter()
        .filter(|e| e.site == site)
        .map(|e| e.hits)
        .sum()
}

/// Firings recorded for `site` across all currently-installed failpoints.
pub fn fires(site: &str) -> u64 {
    registry()
        .entries
        .iter()
        .filter(|e| e.site == site)
        .map(|e| e.fires)
        .sum()
}

/// Total evaluated hits across every site, process-wide, monotonic.
pub fn total_hits() -> u64 {
    TOTAL_HITS.load(Ordering::Relaxed)
}

/// Low-level evaluation: record a hit at `site` and return the fired
/// action, if any. [`FailAction::Delay`] is executed here (the sleep) and
/// reported as `None`; the caller decides what Panic/Error/AllocFail mean.
pub fn fire(site: &'static str) -> Option<FailAction> {
    let n = ACTIVE.load(Ordering::Acquire);
    if n == 0 {
        return None;
    }
    if n < 0 {
        init_env();
        if ACTIVE.load(Ordering::Acquire) == 0 {
            return None;
        }
    }
    let action = {
        let mut r = registry();
        let seed = r.seed;
        let mut fired = None;
        for e in r.entries.iter_mut().filter(|e| e.site == site) {
            e.hits += 1;
            TOTAL_HITS.fetch_add(1, Ordering::Relaxed);
            let fires = match e.trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => e.hits == n,
                Trigger::Probability(p) => {
                    let mut rng =
                        SplitMix64::new(seed ^ site_hash(site) ^ e.hits.wrapping_mul(0x9E37_79B9));
                    rng.next_below(1024) < u64::from(p.min(1024))
                }
            };
            if fires {
                e.fires += 1;
                fired = Some(e.action);
                break;
            }
        }
        fired
    };
    match action {
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms.min(1_000)));
            None
        }
        other => other,
    }
}

/// Evaluate `site`: execute Panic (unwinds from here) and Delay
/// in place, surface Error/AllocFail to the caller.
pub fn eval(site: &'static str) -> Result<(), Injected> {
    match fire(site) {
        None | Some(FailAction::Delay(_)) => Ok(()),
        Some(FailAction::Panic) => std::panic::panic_any(InjectedPanic { site }),
        Some(FailAction::Error) => Err(Injected::Error),
        Some(FailAction::AllocFail) => Err(Injected::AllocFail),
    }
}

/// Evaluate `site` at a point with no error channel: Panic and Delay
/// execute; Error/AllocFail injections are ignored (documented per site).
pub fn point(site: &'static str) {
    let _ = eval(site);
}

fn init_env() {
    ENV_INIT.call_once(|| {
        let mut r = registry();
        if let Ok(s) = std::env::var("ALT_FAIL_SEED") {
            if let Ok(seed) = s.trim().parse::<u64>() {
                r.seed = seed;
            }
        }
        if let Ok(spec) = std::env::var("ALT_FAIL_POINTS") {
            let mut next_id = r.next_id;
            for (site, action, trigger) in parse_spec(&spec) {
                r.entries.push(Entry {
                    id: next_id,
                    site,
                    action,
                    trigger,
                    hits: 0,
                    fires: 0,
                });
                next_id += 1;
            }
            r.next_id = next_id;
        }
        ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    });
}

/// Install every failpoint named in `ALT_FAIL_POINTS` (idempotent; also
/// happens automatically on the first evaluated site). Format, split on
/// `;`: `site=action[@trigger]` where action is `panic`, `error`,
/// `alloc_fail`, or `delay:<ms>`, and trigger is a decimal `N` (n-th hit)
/// or `pP` (probability P/1024); no trigger = every hit. Example:
/// `ALT_FAIL_POINTS="retrain.build=error@3;sched.drain=panic@p64"`.
/// Env-installed failpoints have no guard: they live for the process.
pub fn install_from_env() {
    init_env();
}

fn parse_spec(spec: &str) -> Vec<(String, FailAction, Trigger)> {
    let mut out = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((site, rhs)) = part.split_once('=') else {
            continue;
        };
        let (action_s, trigger_s) = match rhs.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rhs.trim(), None),
        };
        let action = if let Some(ms) = action_s.strip_prefix("delay:") {
            match ms.parse::<u64>() {
                Ok(ms) => FailAction::Delay(ms),
                Err(_) => continue,
            }
        } else {
            match action_s {
                "panic" => FailAction::Panic,
                "error" => FailAction::Error,
                "alloc_fail" => FailAction::AllocFail,
                _ => continue,
            }
        };
        let trigger = match trigger_s {
            None => Trigger::Always,
            Some(t) => {
                if let Some(p) = t.strip_prefix('p') {
                    match p.parse::<u32>() {
                        Ok(p) => Trigger::Probability(p),
                        Err(_) => continue,
                    }
                } else {
                    match t.parse::<u64>() {
                        Ok(n) => Trigger::Nth(n),
                        Err(_) => continue,
                    }
                }
            }
        };
        out.push((site.trim().to_string(), action, trigger));
    }
    out
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: compile-time-stable across runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// `failpoint::point!(site)`: a fault-injection site with no error
/// channel — [`point()`] in a crate built with its `fault` feature,
/// nothing otherwise. An injected Panic unwinds from here, Delay sleeps,
/// and Error/AllocFail injections are ignored.
#[macro_export]
macro_rules! point {
    ($site:expr) => {{
        #[cfg(feature = "fault")]
        $crate::point($site);
    }};
}

/// `failpoint::should_fail!(site)`: a site with a graceful failure
/// channel. In a crate built with its `fault` feature it is
/// `eval(site).is_err()`: true when an Error or AllocFail was injected
/// (the caller aborts cleanly), while an injected Panic unwinds from
/// here. Otherwise it is `false` and `site` is not evaluated.
#[macro_export]
macro_rules! should_fail {
    ($site:expr) => {{
        #[cfg(feature = "fault")]
        let failed = $crate::eval($site).is_err();
        #[cfg(not(feature = "fault"))]
        let failed = false;
        failed
    }};
}

/// `failpoint::fires!(site)`: a site that maps **every** injected action,
/// Panic included, onto its own failure channel. In a crate built with
/// its `fault` feature it is `fire(site).is_some()` (a Delay sleeps and
/// reads as `false`); otherwise it is `false` and `site` is not
/// evaluated.
#[macro_export]
macro_rules! fires {
    ($site:expr) => {{
        #[cfg(feature = "fault")]
        let fired = $crate::fire($site).is_some();
        #[cfg(not(feature = "fault"))]
        let fired = false;
        fired
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests that install failpoints
    // serialize on this lock (cargo runs #[test] fns in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn uninstalled_sites_are_silent() {
        let _l = lock();
        assert_eq!(eval("test.nothing"), Ok(()));
        assert_eq!(fire("test.nothing"), None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _l = lock();
        let g = install("test.nth", FailAction::Error, Trigger::Nth(3));
        assert_eq!(eval("test.nth"), Ok(()));
        assert_eq!(eval("test.nth"), Ok(()));
        assert_eq!(eval("test.nth"), Err(Injected::Error));
        assert_eq!(eval("test.nth"), Ok(()), "one-shot: hit 4 passes");
        assert_eq!(hits("test.nth"), 4);
        assert_eq!(fires("test.nth"), 1);
        drop(g);
        assert_eq!(eval("test.nth"), Ok(()), "guard drop uninstalls");
    }

    #[test]
    fn panic_action_carries_injected_payload() {
        let _l = lock();
        let _g = install("test.panic", FailAction::Panic, Trigger::Always);
        let err =
            std::panic::catch_unwind(|| point("test.panic")).expect_err("panic action must unwind");
        let p = err
            .downcast_ref::<InjectedPanic>()
            .expect("payload is InjectedPanic");
        assert_eq!(p.site, "test.panic");
    }

    #[test]
    fn alloc_fail_surfaces_and_delay_passes() {
        let _l = lock();
        let g = install("test.af", FailAction::AllocFail, Trigger::Always);
        assert_eq!(eval("test.af"), Err(Injected::AllocFail));
        drop(g);
        let _g = install("test.delay", FailAction::Delay(1), Trigger::Always);
        assert_eq!(eval("test.delay"), Ok(()), "delay is not a failure");
        assert_eq!(fires("test.delay"), 1);
    }

    #[test]
    fn probability_is_seeded_and_deterministic() {
        let _l = lock();
        set_seed(42);
        let g = install("test.prob", FailAction::Error, Trigger::Probability(512));
        let run: Vec<bool> = (0..64).map(|_| eval("test.prob").is_err()).collect();
        drop(g);
        // Same seed + fresh hit counter → identical decision sequence.
        set_seed(42);
        let g = install("test.prob", FailAction::Error, Trigger::Probability(512));
        let rerun: Vec<bool> = (0..64).map(|_| eval("test.prob").is_err()).collect();
        drop(g);
        assert_eq!(run, rerun);
        let fired = run.iter().filter(|&&b| b).count();
        assert!(
            fired > 8 && fired < 56,
            "p=1/2 over 64 hits fired {fired} times"
        );
    }

    #[test]
    fn env_spec_parses_all_forms() {
        let spec = "retrain.build=error@3; sched.drain=panic@p64;\
                    dir.replace=delay:5;art.arena.grow=alloc_fail;bogus;x=weird";
        let parsed = parse_spec(spec);
        assert_eq!(
            parsed,
            vec![
                (
                    "retrain.build".to_string(),
                    FailAction::Error,
                    Trigger::Nth(3)
                ),
                (
                    "sched.drain".to_string(),
                    FailAction::Panic,
                    Trigger::Probability(64)
                ),
                (
                    "dir.replace".to_string(),
                    FailAction::Delay(5),
                    Trigger::Always
                ),
                (
                    "art.arena.grow".to_string(),
                    FailAction::AllocFail,
                    Trigger::Always
                ),
            ]
        );
    }

    #[test]
    fn first_firing_wins_across_stacked_entries() {
        let _l = lock();
        let g1 = install("test.stack", FailAction::Error, Trigger::Nth(2));
        let g2 = install("test.stack", FailAction::AllocFail, Trigger::Always);
        // Hit 1: first entry passes (nth=2), second fires AllocFail.
        assert_eq!(eval("test.stack"), Err(Injected::AllocFail));
        // Hit 2: first entry fires Error and wins.
        assert_eq!(eval("test.stack"), Err(Injected::Error));
        drop(g1);
        drop(g2);
    }
}
