//! Seeded schedule-perturbing chaos points.
//!
//! Instrumented crates call [`point`] (through [`crate::chaos_point!`])
//! at protocol-critical sites (slot
//! claim, version validate, lock acquire, directory swap, …). When a
//! chaos schedule is installed, each call consults a **per-thread**
//! deterministic SplitMix64 stream and, with configured probability,
//! perturbs the schedule: a bounded spin, a `thread::yield_now`, or a
//! short sleep. With no schedule installed the call is two relaxed
//! atomic loads and returns.
//!
//! Determinism model: the perturbation *decisions* are a pure function
//! of `(seed, thread-registration-index, call-count)`. The OS still
//! chooses the actual interleaving, but replaying a seed re-applies the
//! same delay pattern, which reliably re-widens the same race windows.
//! Crucially the decision path shares no mutable state between threads —
//! cross-thread synchronization here would order the very accesses we
//! are trying to race.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::SplitMix64;

/// Global schedule generation. Even = disabled, odd = enabled. Bumped
/// twice per install so threads can detect schedule changes and re-seed
/// their local stream.
static GENERATION: AtomicU32 = AtomicU32::new(0);
/// Seed of the currently-installed schedule.
static SEED: AtomicU64 = AtomicU64::new(0);
/// Perturbation probability in parts per 1024.
static INTENSITY: AtomicU32 = AtomicU32::new(0);
/// Registration counter handing out stable per-thread stream indexes.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
/// Monotonic count of chaos-point hits under any schedule (coarse,
/// relaxed — used only to assert instrumentation is actually reached;
/// compare before/after deltas).
static HITS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<LocalChaos> = const {
        Cell::new(LocalChaos { generation: 0, rng_state: 0 })
    };
}

#[derive(Clone, Copy)]
struct LocalChaos {
    generation: u32,
    rng_state: u64,
}

/// A chaos schedule installed for the duration of this guard. Dropping
/// it disables chaos points again.
///
/// Schedules are process-global; tests that install one should hold it
/// across the whole concurrent section. Installing a second schedule
/// while one is live simply supersedes it (last writer wins), which is
/// why chaos suites run each seed sequentially.
#[must_use = "chaos is disabled again when the schedule guard drops"]
pub struct ScheduleGuard {
    _priv: (),
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        INTENSITY.store(0, Ordering::Relaxed);
        // Back to even: disabled.
        GENERATION.fetch_add(1, Ordering::Release);
    }
}

/// Install a deterministic perturbation schedule.
///
/// * `seed` — master seed; each thread derives stream `mix(seed, index)`.
/// * `intensity_per_1024` — probability (out of 1024) that any given
///   chaos point perturbs the schedule. Typical values 64–512.
pub fn install_schedule(seed: u64, intensity_per_1024: u32) -> ScheduleGuard {
    SEED.store(seed, Ordering::Relaxed);
    INTENSITY.store(intensity_per_1024.min(1024), Ordering::Relaxed);
    // To odd: enabled. Two installs in a row still change the generation,
    // so threads re-derive their streams per schedule.
    let g = GENERATION.fetch_add(1, Ordering::Release);
    if !g.is_multiple_of(2) {
        // Previous guard still alive (superseded): bump once more so the
        // new generation is odd.
        GENERATION.fetch_add(1, Ordering::Release);
    }
    ScheduleGuard { _priv: () }
}

/// Monotonic count of chaos-point hits across all schedules ever
/// installed in this process. Measure a before/after delta to assert
/// instrumented paths are actually reached.
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// The chaos hook. Instrumented crates call this (through
/// [`crate::chaos_point!`]) at protocol-critical sites. `site` names the call site for
/// diagnostics; it also salts the per-call decision so distinct sites
/// perturb independently.
#[inline]
pub fn point(site: &'static str) {
    let generation = GENERATION.load(Ordering::Acquire);
    if generation.is_multiple_of(2) {
        return; // No schedule installed.
    }
    perturb(site, generation);
}

#[cold]
fn perturb(site: &'static str, generation: u32) {
    let mut local = LOCAL.with(Cell::get);
    if local.generation != generation {
        // First hit under this schedule: derive this thread's stream from
        // (seed, registration index). Registration order is itself
        // schedule-dependent, so harnesses register threads in spawn
        // order by hitting a chaos point before the workload barrier.
        let idx = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u64;
        let seed = SEED.load(Ordering::Relaxed);
        let mut mixer = SplitMix64::new(seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
        local = LocalChaos {
            generation,
            rng_state: mixer.next_u64(),
        };
    }
    let mut rng = SplitMix64::new(local.rng_state ^ site_hash(site));
    let roll = rng.next_below(1024) as u32;
    // Advance the thread-local stream regardless of the outcome so the
    // decision sequence stays a function of the call count alone.
    let mut stream = SplitMix64::new(local.rng_state);
    local.rng_state = stream.next_u64();
    LOCAL.with(|c| c.set(local));
    HITS.fetch_add(1, Ordering::Relaxed);

    if roll >= INTENSITY.load(Ordering::Relaxed) {
        return;
    }
    match rng.next_below(8) {
        // Most perturbations are bounded spins: they shift timing inside
        // the current quantum, which is what exposes optimistic-protocol
        // windows (read/validate, claim/publish).
        0..=4 => {
            let spins = 1 + rng.next_below(256);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        // Yields hand the core to a contending thread.
        5 | 6 => std::thread::yield_now(),
        // Rare short sleeps force a reschedule even on idle machines.
        _ => std::thread::sleep(Duration::from_micros(rng.next_below(40) + 10)),
    }
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a, compile-time-stable across runs (no RandomState).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serializes this crate's lib tests that install a schedule or count
/// hits: both are process-global, and the test harness runs tests in
/// parallel threads.
#[cfg(test)]
pub(crate) fn serialize_schedule_tests() -> std::sync::MutexGuard<'static, ()> {
    static SCHEDULE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SCHEDULE_TESTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_cheap_and_silent() {
        let _serial = serialize_schedule_tests();
        let before = hits();
        for _ in 0..1000 {
            point("test.disabled");
        }
        // No schedule is installed: the counter must not move.
        assert_eq!(hits(), before);
    }

    #[test]
    fn installed_schedule_counts_hits() {
        let _serial = serialize_schedule_tests();
        let before = hits();
        let guard = install_schedule(42, 512);
        for _ in 0..100 {
            point("test.enabled");
        }
        assert!(hits() - before >= 100, "chaos points should register hits");
        drop(guard);
    }

    #[test]
    fn site_hash_distinguishes_sites() {
        assert_ne!(site_hash("slots.read"), site_hash("slots.claim"));
    }
}
