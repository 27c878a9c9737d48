//! Optimistic lock coupling version word, after Leis et al., "The ART of
//! Practical Synchronization" (DaMoN 2016) — the concurrency scheme the
//! ALT-index paper adopts for its ART-OPT layer.
//!
//! Each node carries one 64-bit word: bit 0 = obsolete, bit 1 = locked,
//! bits 2.. = version counter. Readers snapshot the word, do their reads,
//! and re-validate; writers CAS the lock bit and bump the version on
//! unlock (adding 2 while the lock bit is set carries into the counter and
//! clears the lock in a single add).

use std::sync::atomic::{AtomicU64, Ordering};

const OBSOLETE_BIT: u64 = 0b01;
const LOCK_BIT: u64 = 0b10;

/// Result of an optimistic read attempt: either a version snapshot to
/// validate later, or a signal to restart.
pub type Version = u64;

/// An optimistic version lock.
#[derive(Debug)]
pub struct VersionLock {
    word: AtomicU64,
}

impl Default for VersionLock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionLock {
    /// A fresh, unlocked, non-obsolete lock.
    pub fn new() -> Self {
        Self {
            word: AtomicU64::new(0),
        }
    }

    /// Snapshot the version for an optimistic read. Returns `None` (caller
    /// must restart) while the node is write-locked; returns the obsolete
    /// marker via [`is_obsolete`](Self::is_obsolete) checks on the caller
    /// side.
    #[inline]
    pub fn read_lock(&self) -> Option<Version> {
        let v = self.word.load(Ordering::Acquire);
        if v & LOCK_BIT != 0 {
            return None;
        }
        // Widen the snapshot-to-use window: whatever the reader does with
        // this version must survive a writer slipping in right here.
        testkit::chaos_point!("olc.read_lock");
        Some(v)
    }

    /// Wait (tiered backoff) until the node is not write-locked, then
    /// return the snapshot. Returns `None` if the node became obsolete
    /// (caller restarts from a stable ancestor). The wait never
    /// escalates: the current lock holder's progress is the guarantee,
    /// and past the budget the wait parks instead of burning CPU.
    #[inline]
    pub fn read_lock_spin(&self) -> Option<Version> {
        let mut retry = resilience::Retry::new();
        loop {
            let v = self.word.load(Ordering::Acquire);
            if v & OBSOLETE_BIT != 0 {
                return None;
            }
            if v & LOCK_BIT == 0 {
                testkit::chaos_point!("olc.read_lock_spin");
                return Some(v);
            }
            retry.wait_for_holder(crate::count_contention);
        }
    }

    /// Validate that the version is unchanged since `snapshot` (and the
    /// node was not locked or marked obsolete in between).
    #[inline]
    pub fn validate(&self, snapshot: Version) -> bool {
        // Delay *before* the validating load: reads done since the
        // snapshot stay exposed to concurrent writers a little longer, so
        // a buggy caller that skips re-reads gets caught.
        testkit::chaos_point!("olc.validate");
        let ok = self.word.load(Ordering::Acquire) == snapshot;
        if !ok {
            obs::incr!(Counter::OlcRestart);
        }
        ok
    }

    /// Try to upgrade a read snapshot to a write lock. Fails (returns
    /// `false`) if the version moved.
    #[inline]
    pub fn upgrade(&self, snapshot: Version) -> bool {
        testkit::chaos_point!("olc.upgrade");
        self.word
            .compare_exchange(
                snapshot,
                snapshot + LOCK_BIT,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Acquire the write lock, waiting with tiered backoff. Returns
    /// `false` if the node is obsolete.
    #[inline]
    pub fn lock(&self) -> bool {
        let mut retry = resilience::Retry::new();
        loop {
            let v = self.word.load(Ordering::Acquire);
            if v & OBSOLETE_BIT != 0 {
                return false;
            }
            if v & LOCK_BIT == 0 && self.upgrade(v) {
                return true;
            }
            retry.wait_for_holder(crate::count_contention);
        }
    }

    /// Release the write lock, bumping the version (add 2 carries past the
    /// set lock bit into the counter).
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(self.is_locked());
        self.word.fetch_add(LOCK_BIT, Ordering::Release);
    }

    /// Release the write lock and mark the node obsolete in one step
    /// (used when the node has been replaced and unlinked).
    #[inline]
    pub fn unlock_obsolete(&self) {
        debug_assert!(self.is_locked());
        self.word
            .fetch_add(LOCK_BIT | OBSOLETE_BIT, Ordering::Release);
    }

    /// Whether the node is currently write-locked.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.word.load(Ordering::Acquire) & LOCK_BIT != 0
    }

    /// Whether the node has been unlinked and awaits reclamation.
    #[inline]
    pub fn is_obsolete(&self) -> bool {
        self.word.load(Ordering::Acquire) & OBSOLETE_BIT != 0
    }
}

/// Whether a version snapshot carries the obsolete bit.
#[allow(dead_code)]
#[inline]
pub fn snapshot_obsolete(v: Version) -> bool {
    v & OBSOLETE_BIT != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_snapshot_validates_when_unchanged() {
        let l = VersionLock::new();
        let v = l.read_lock().unwrap();
        assert!(l.validate(v));
    }

    #[test]
    fn write_cycle_invalidates_readers() {
        let l = VersionLock::new();
        let v = l.read_lock().unwrap();
        assert!(l.upgrade(v));
        assert!(l.is_locked());
        assert!(l.read_lock().is_none(), "locked node rejects readers");
        l.unlock();
        assert!(!l.is_locked());
        assert!(!l.validate(v), "version moved after a write");
        let v2 = l.read_lock().unwrap();
        assert_ne!(v, v2);
    }

    #[test]
    fn upgrade_fails_on_stale_snapshot() {
        let l = VersionLock::new();
        let v = l.read_lock().unwrap();
        assert!(l.lock());
        l.unlock();
        assert!(!l.upgrade(v));
    }

    #[test]
    fn obsolete_blocks_future_locks() {
        let l = VersionLock::new();
        assert!(l.lock());
        l.unlock_obsolete();
        assert!(l.is_obsolete());
        assert!(!l.is_locked());
        assert!(!l.lock(), "cannot lock an obsolete node");
        assert!(l.read_lock_spin().is_none());
    }

    #[test]
    fn concurrent_lock_unlock_is_mutually_exclusive() {
        let l = Arc::new(VersionLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    assert!(l.lock());
                    // Non-atomic-style increment through two atomic ops:
                    // only correct under mutual exclusion.
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                    l.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
    }
}
