#![allow(unsafe_code)]

//! A minimal RCU cell over `crossbeam-epoch`: lock-free snapshot reads,
//! externally-serialized replacement. Shared by every baseline that keeps
//! an immutable directory of nodes/groups.

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned};
use std::sync::atomic::Ordering;

/// A cell holding an epoch-protected immutable snapshot.
pub struct RcuCell<T> {
    inner: Atomic<T>,
}

impl<T> RcuCell<T> {
    /// Initialize with a first snapshot.
    pub fn new(value: T) -> Self {
        Self {
            inner: Atomic::new(value),
        }
    }

    /// Borrow the current snapshot for the lifetime of `guard`.
    pub fn load<'g>(&self, guard: &'g Guard) -> &'g T {
        // SAFETY: the cell is initialized at construction and never null;
        // replacement defers destruction past all active guards.
        unsafe { self.inner.load(Ordering::Acquire, guard).deref() }
    }

    /// Publish a new snapshot, retiring the old one. Callers must
    /// serialize replacements externally (e.g. under a structural mutex).
    pub fn replace(&self, value: T, guard: &Guard) {
        obs::incr!(Counter::RcuReplace);
        let old = self.inner.swap(Owned::new(value), Ordering::AcqRel, guard);
        // Widen the window between unlink and retire: readers still
        // holding the old snapshot must be protected by their pins.
        testkit::chaos_point!("rcu.replace.unlinked");
        // SAFETY: `old` was just unlinked and replacements are serialized,
        // so no other thread can retire it twice; readers hold guards.
        unsafe { guard.defer_destroy(old) };
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // SAFETY: &mut self means no concurrent readers remain.
        unsafe {
            let p = self.inner.load(Ordering::Relaxed, epoch::unprotected());
            if !p.is_null() {
                drop(p.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_replace() {
        let cell = RcuCell::new(vec![1, 2, 3]);
        let guard = epoch::pin();
        assert_eq!(cell.load(&guard), &vec![1, 2, 3]);
        cell.replace(vec![4], &guard);
        assert_eq!(cell.load(&guard), &vec![4]);
    }

    #[test]
    fn concurrent_readers_see_some_snapshot() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let cell = Arc::new(RcuCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = epoch::pin();
                    let v = *cell.load(&guard);
                    assert!(v >= last, "snapshots move forward");
                    last = v;
                }
            }));
        }
        for i in 1..=1000u64 {
            let guard = epoch::pin();
            cell.replace(i, &guard);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
