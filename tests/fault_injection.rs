//! Fault-injection suite (requires `--features fault`): every registered
//! failpoint is exercised across ≥8 seeds with rotating actions
//! (panic / error / alloc-fail) and triggers (always / nth / seeded
//! probability), injected mid-workload. After each injected phase the
//! index must still serve (get/insert/scan), the testkit oracle must be
//! clean, `retrain_quiesce` must terminate, and a follow-up uninjected
//! retrain must succeed — the self-healing contract of DESIGN.md §16.
//!
//! The sustained worker-kill test drives the degraded-mode state
//! machine end to end: repeated contained background panics trip
//! degraded mode (observable via [`alt_index::FaultStats`]) while
//! throughput stays nonzero, and removing the fault recovers.

#![cfg(feature = "fault")]

use alt_index::{AltConfig, AltIndex};
use failpoint::{FailAction, Trigger};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, Once, PoisonError};
use std::thread;
use std::time::Duration;
use testkit::harness::Scenario;

/// The failpoint registry is process-global: serialize every test here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Suppress the default panic-hook splat for *injected* panics (they
/// are expected by the dozen here); anything else still reports.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<failpoint::InjectedPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Which retrain mode(s) can reach a site.
#[derive(Clone, Copy, PartialEq)]
enum Reach {
    /// Both paths: alternate inline / background across seeds.
    Both,
    /// Background mode on every seed.
    BackgroundOnly,
    /// Inline mode on every seed.
    InlineOnly,
}

/// Action rotation. `error_channel` sites accept Error/AllocFail
/// gracefully; pure `point` sites ignore them, so those rotate panic
/// with a short window-widening delay instead.
fn action_for(error_channel: bool, s: u64) -> FailAction {
    if error_channel {
        match s % 3 {
            0 => FailAction::Panic,
            1 => FailAction::Error,
            _ => FailAction::AllocFail,
        }
    } else if s % 3 == 2 {
        FailAction::Delay(1)
    } else {
        FailAction::Panic
    }
}

fn trigger_for(s: u64) -> Trigger {
    match s % 4 {
        0 => Trigger::Always,
        1 => Trigger::Nth(1),
        2 => Trigger::Nth(3),
        _ => Trigger::Probability(512),
    }
}

/// A dense burst into the tail region (far above the scenario universe)
/// that overflows the tail model and keeps the retrain machinery busy.
fn burst_keys(base: u64, n: u64) -> impl Iterator<Item = u64> {
    (base..base + n).filter(|k| k % 1000 != 0)
}

/// One site's sweep: 8 seeds × rotating action/trigger/partition/mode.
fn sweep_site(site: &'static str, error_channel: bool, reach: Reach) {
    let _l = serial();
    quiet_injected_panics();
    let mut any_hit = false;
    for s in 0..8u64 {
        failpoint::set_seed(0xF417_0000 + s);
        let seed = 7_000 + s;
        let mut scenario = if s % 2 == 0 {
            Scenario::disjoint(seed)
        } else {
            Scenario::shared(seed)
        };
        scenario.keys_per_thread = 512;
        let background = match reach {
            Reach::Both => s % 2 == 0,
            Reach::BackgroundOnly => true,
            Reach::InlineOnly => false,
        };
        let cfg = AltConfig {
            epsilon: Some(16.0),
            ..if background {
                AltConfig::background()
            } else {
                AltConfig::default()
            }
        };
        let idx = AltIndex::bulk_load_with(&scenario.initial_pairs(), cfg);

        let g = failpoint::install(site, action_for(error_channel, s), trigger_for(s));

        // Injected phase 1: the oracle-checked concurrent workload.
        if let Err(report) = scenario.run(&idx) {
            panic!("{site} seed {seed}: oracle violation under injection: {report}");
        }
        // Injected phase 2: a retrain-heavy tail burst mid-injection.
        let burst: Vec<u64> = burst_keys(500_001 + s * 100_000, 4_000).collect();
        for &k in &burst {
            idx.insert(k, k).unwrap();
        }
        // Quiesce must terminate even with workers dying mid-drain.
        idx.retrain_quiesce();
        any_hit |= failpoint::hits(site) > 0;

        // Still serving under active injection: point reads + a scan.
        for &k in burst.iter().step_by(97) {
            assert_eq!(idx.get(k), Some(k), "{site} seed {seed}: lost key {k}");
        }
        let mut out = Vec::new();
        idx.range(
            500_001 + s * 100_000,
            500_001 + s * 100_000 + 3_999,
            &mut out,
        );
        assert_eq!(
            out.len(),
            burst.len(),
            "{site} seed {seed}: scan came up short"
        );
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "{site}: scan order"
        );

        drop(g);

        // Uninjected follow-up: inserts, a completing retrain, reads.
        // The follow burst is 2.5× the injected one: when injected drops
        // delay the first retrain, the rebuilt tail model's build size
        // approaches the full injected burst (~4k), and a same-sized
        // follow-up would never cross `wants_retrain` again.
        let before = idx.retrain_count();
        let follow: Vec<u64> = burst_keys(900_001 + s * 100_000, 10_000).collect();
        for &k in &follow {
            idx.insert(k, k).unwrap();
        }
        idx.retrain_quiesce();
        assert!(
            idx.retrain_count() > before,
            "{site} seed {seed}: uninjected retrain must complete after the fault clears"
        );
        for &k in follow.iter().step_by(97) {
            assert_eq!(
                idx.get(k),
                Some(k),
                "{site} seed {seed}: post-fault key {k}"
            );
        }
    }
    assert!(
        any_hit,
        "{site}: no seed ever reached the failpoint — the sweep is vacuous"
    );
}

#[test]
fn site_retrain_collect() {
    sweep_site("retrain.collect", false, Reach::Both);
}

#[test]
fn site_retrain_build() {
    sweep_site("retrain.build", true, Reach::Both);
}

#[test]
fn site_retrain_reconcile() {
    // Both modes run phase 2, and each gets the full seed rotation
    // (every action, trigger and scenario partition).
    sweep_site("retrain.reconcile", true, Reach::BackgroundOnly);
    sweep_site("retrain.reconcile", true, Reach::InlineOnly);
}

#[test]
fn site_retrain_swap() {
    sweep_site("retrain.swap", false, Reach::Both);
}

#[test]
fn site_retrain_absorb() {
    sweep_site("retrain.absorb", false, Reach::Both);
}

#[test]
fn site_sched_enqueue() {
    sweep_site("sched.enqueue", true, Reach::BackgroundOnly);
}

#[test]
fn site_sched_drain() {
    sweep_site("sched.drain", true, Reach::BackgroundOnly);
}

#[test]
fn site_dir_replace() {
    sweep_site("dir.replace", false, Reach::Both);
}

#[test]
fn site_fastptr_install() {
    sweep_site("fastptr.install", true, Reach::Both);
}

#[test]
fn site_arena_alloc() {
    // Arena sites map every action onto the allocation-failure channel
    // (see DESIGN.md §16), served by the single-slot fallback.
    sweep_site("art.arena.alloc", true, Reach::Both);
}

#[test]
fn site_arena_grow() {
    sweep_site("art.arena.grow", true, Reach::Both);
}

#[test]
fn arena_fallback_is_counted_and_lossless() {
    let _l = serial();
    quiet_injected_panics();
    let before = art::arena_alloc_fail_count();
    let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(16.0),
            ..Default::default()
        },
    );
    let g = failpoint::install("art.arena.grow", FailAction::AllocFail, Trigger::Always);
    // Dense conflicts overflow into ART; every chunk refill "fails" and
    // the single-slot fallback must serve each node allocation.
    for k in burst_keys(50_001, 3_000) {
        idx.insert(k, k).unwrap();
    }
    drop(g);
    assert!(
        art::arena_alloc_fail_count() > before,
        "chunk-growth failures must route through the fallback counter"
    );
    for k in burst_keys(50_001, 3_000) {
        assert_eq!(idx.get(k), Some(k));
    }
}

#[test]
fn sustained_worker_kill_trips_degraded_mode_and_recovers() {
    let _l = serial();
    quiet_injected_panics();
    let pairs: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 1_000, i)).collect();
    let idx = AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(16.0),
            ..AltConfig::background()
        },
    );
    // Every retrain — background or inline — dies at collect time.
    let g = failpoint::install("retrain.collect", FailAction::Panic, Trigger::Always);

    // Sustained kills: the worker panics per drained request; after the
    // fail-streak limit (default 3, guaranteed reachable because a
    // panicked span is re-enqueued until degraded mode stops it) the
    // pool degrades. Inserts must keep landing the whole time — that is
    // the throughput floor.
    let burst: Vec<u64> = burst_keys(3_000_001, 30_000).collect();
    for &k in &burst {
        idx.insert(k, k).unwrap();
    }
    idx.retrain_quiesce();
    let fs = idx.fault_stats();
    assert!(
        fs.bg_panics >= 3,
        "sustained kill must contain repeated worker panics, got {fs:?}"
    );
    assert!(
        fs.degraded_mode_entries >= 1 && fs.degraded,
        "the fail streak must trip (and hold) degraded mode: {fs:?}"
    );
    assert_eq!(
        fs.worker_respawns, fs.bg_panics,
        "every contained panic restarts the worker loop in place"
    );
    assert!(
        fs.retrain_rollbacks >= 1,
        "degraded-mode inline retrains also die (contained) and count as rollbacks: {fs:?}"
    );
    assert_eq!(
        idx.retrain_count(),
        0,
        "no retrain can complete under the fault"
    );
    for &k in burst.iter().step_by(199) {
        assert_eq!(idx.get(k), Some(k), "throughput floor lost key {k}");
    }

    // Fault clears: degraded-mode inline retrains run clean, the
    // recovery streak (default 2) ends the episode, and background
    // retraining resumes and completes.
    drop(g);
    let follow: Vec<u64> = burst_keys(7_000_001, 30_000).collect();
    for &k in &follow {
        idx.insert(k, k).unwrap();
    }
    idx.retrain_quiesce();
    let fs2 = idx.fault_stats();
    assert!(
        !fs2.degraded,
        "clean inline retrains must end the degraded episode: {fs2:?}"
    );
    assert!(idx.retrain_count() > 0, "retrains complete after recovery");
    for &k in burst.iter().chain(follow.iter()).step_by(199) {
        assert_eq!(idx.get(k), Some(k));
    }
    assert_eq!(idx.len(), 2_000 + burst.len() + follow.len());
}

/// Regression: a writer that escalates while an inline rebuild of its
/// span sits between phase 1 and phase 2 must not block on `dir_lock`
/// while holding the model's op-lock read side, or phase 2's write lock
/// waits on it forever. A zero retry budget turns every optimistic
/// retry into an escalation, a `retrain.build` delay holds each rebuild
/// in its off-lock window, and the churning writers race removes and
/// updates against inserts on the tail model being rebuilt.
#[test]
fn escalation_during_inline_build_does_not_deadlock() {
    let _l = serial();
    let cfg = AltConfig {
        epsilon: Some(16.0),
        contention: resilience::ContentionPolicy {
            spin_retries: 0,
            yield_retries: 0,
            park_retries: 0,
            ..Default::default()
        },
        ..AltConfig::default()
    };
    let pairs: Vec<(u64, u64)> = (1..=500u64).map(|i| (i * 1_000, i)).collect();
    let idx = Arc::new(AltIndex::bulk_load_with(&pairs, cfg));
    let g = failpoint::install("retrain.build", FailAction::Delay(20), Trigger::Always);

    const APPENDS: u64 = 8_000;
    let appended = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    {
        let (idx, appended) = (Arc::clone(&idx), Arc::clone(&appended));
        workers.push(thread::spawn(move || {
            for k in 1_000_001..=1_000_000 + APPENDS {
                idx.insert(k, k).unwrap();
            }
            appended.store(true, Ordering::Release);
        }));
    }
    for t in 0..3u64 {
        let (idx, appended) = (Arc::clone(&idx), Arc::clone(&appended));
        workers.push(thread::spawn(move || {
            let keys = [2_000_001, 2_000_002, 2_000_003, 2_000_004];
            let mut i = t as usize;
            while !appended.load(Ordering::Acquire) {
                let k = keys[i % keys.len()];
                let _ = idx.insert(k, t);
                let _ = idx.update(k, t + 10);
                idx.remove(k);
                idx.remove(k);
                let _ = idx.update(k, t + 20);
                i += 1;
            }
        }));
    }
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let panicked = workers.into_iter().any(|w| w.join().is_err());
        let _ = tx.send(panicked);
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(panicked) => assert!(!panicked, "a workload thread panicked"),
        Err(_) => panic!("writers and inline rebuild deadlocked (no progress in 60 s)"),
    }
    assert!(
        failpoint::hits("retrain.build") > 0 && idx.retrain_count() > 0,
        "no rebuild ran its off-lock window — the test is vacuous"
    );
    drop(g);
    for k in (1_000_001..=1_000_000 + APPENDS).step_by(97) {
        assert_eq!(idx.get(k), Some(k), "lost appended key {k}");
    }
}

#[test]
fn uninstalled_failpoints_change_nothing() {
    // With the feature on but nothing installed, the fast-path gate
    // short-circuits: a full oracle-checked run behaves identically.
    let _l = serial();
    let scenario = Scenario::disjoint(91);
    let idx = AltIndex::bulk_load_with(
        &scenario.initial_pairs(),
        AltConfig {
            epsilon: Some(16.0),
            ..AltConfig::background()
        },
    );
    scenario
        .run(&idx)
        .expect("clean run with no failpoints installed");
    idx.retrain_quiesce();
}
