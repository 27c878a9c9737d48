//! Slot arrays for GPL models: the learned layer's storage, with the
//! paper's slot-granularity optimistic concurrency (§III-E).
//!
//! Every slot carries an atomic version counter: even = stable, odd = a
//! writer is in progress. Writers CAS even→odd, mutate, then store
//! even+2; readers snapshot the version (retrying while odd), read, and
//! re-validate. An occupancy bitmap distinguishes "never used" from
//! "used"; a used slot whose key is 0 is a tombstone (the paper's remove
//! "sets the key to zero").

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One consistent snapshot of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never claimed by any key.
    Empty,
    /// Claimed and holding a live entry.
    Occupied {
        /// The resident key.
        key: u64,
        /// Its value.
        value: u64,
    },
    /// Claimed once, but the key was removed (key == 0).
    Tombstone,
}

/// Outcome of a claim attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimResult {
    /// The entry was written into the slot.
    Written,
    /// The slot is (now) occupied by this same key.
    SameKey {
        /// The value currently stored for the key.
        value: u64,
    },
    /// The slot is (now) occupied by a different key — go to ART.
    OtherKey,
}

/// One slot record. Version, key, and value are interleaved so a lookup
/// touches one or two cache lines instead of three separate arrays (the
/// layout matters more than anything else on the slot-hit fast path).
struct Slot {
    version: AtomicU32,
    key: AtomicU64,
    value: AtomicU64,
}

/// A fixed-capacity array of versioned slots.
pub struct SlotArray {
    slots: Box<[Slot]>,
    /// One bit per slot; set once at first claim, never cleared.
    occupancy: Box<[AtomicU64]>,
}

impl SlotArray {
    /// An array of `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "slot array needs at least one slot");
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU32::new(0),
                    key: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
            occupancy: (0..capacity.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate heap bytes.
    pub fn memory_usage(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>() + self.occupancy.len() * 8
    }

    #[inline]
    fn occupied_bit(&self, i: usize) -> bool {
        self.occupancy[i / 64].load(Ordering::Acquire) >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set_occupied(&self, i: usize) {
        self.occupancy[i / 64].fetch_or(1 << (i % 64), Ordering::AcqRel);
    }

    /// Hint the CPU to fetch slot `i`'s cache line ahead of a
    /// [`SlotArray::read`] — the batched lookup path issues this one ring
    /// revolution before the probe so the (version, key, value) triple is
    /// resident by the time it is read. The occupancy word for `i` rides
    /// along: at 24 bytes per slot most probes hit one line for the slot
    /// and occupancy stays hot on its own compact array.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        prefetch::prefetch_read(&self.slots[i] as *const Slot);
        prefetch::prefetch_read(&self.occupancy[i / 64] as *const AtomicU64);
    }

    /// Current version of a slot (for later re-validation via
    /// [`SlotArray::version_unchanged`]).
    #[inline]
    pub fn version(&self, i: usize) -> u32 {
        self.slots[i].version.load(Ordering::Acquire)
    }

    /// Whether a slot's version still equals `snapshot`.
    #[inline]
    pub fn version_unchanged(&self, i: usize, snapshot: u32) -> bool {
        self.slots[i].version.load(Ordering::Acquire) == snapshot
    }

    /// Read a consistent snapshot of slot `i`, together with the version
    /// it was taken at (always even). Backs off (spin → yield → park)
    /// while a writer is mid-flight; once the retry budget is exhausted
    /// it escalates to a locked read, so the snapshot completes even
    /// against a pathological writer schedule.
    pub fn read(&self, i: usize) -> (SlotState, u32) {
        let mut retry = resilience::Retry::seeded(i as u64);
        loop {
            let v1 = self.slots[i].version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                obs::incr!(Counter::SlotReadRetry);
                if retry.wait_or_escalate_global(crate::count_contention) {
                    return self.read_locked(i);
                }
                continue;
            }
            if !self.occupied_bit(i) {
                // Occupancy is set before the first version bump; an even,
                // unchanged version with a clear bit is a stable Empty.
                if self.slots[i].version.load(Ordering::Acquire) == v1 {
                    return (SlotState::Empty, v1);
                }
                obs::incr!(Counter::SlotReadRetry);
                if retry.wait_or_escalate_global(crate::count_contention) {
                    return self.read_locked(i);
                }
                continue;
            }
            let key = self.slots[i].key.load(Ordering::Acquire);
            testkit::chaos_point!("slots.read.between_loads");
            let value = self.slots[i].value.load(Ordering::Acquire);
            testkit::chaos_point!("slots.read.pre_validate");
            // The mutation self-test deliberately skips this re-validation
            // (chaos-mutate builds only) to prove the harness catches the
            // resulting torn reads.
            if !testkit::mutation_enabled!() && self.slots[i].version.load(Ordering::Acquire) != v1
            {
                obs::incr!(Counter::SlotReadRetry);
                if retry.wait_or_escalate_global(crate::count_contention) {
                    return self.read_locked(i);
                }
                continue;
            }
            let state = if key == 0 {
                SlotState::Tombstone
            } else {
                SlotState::Occupied { key, value }
            };
            return (state, v1);
        }
    }

    /// Pessimistic read fallback: take the slot write lock, snapshot the
    /// state, release. Guaranteed to terminate (lock waits have a holder
    /// that finishes) at the cost of one version bump, which may bounce
    /// concurrent optimistic readers — acceptable, since this only runs
    /// after a full retry budget of failed optimistic attempts. The
    /// returned version is the post-unlock (even) version, valid for
    /// [`SlotArray::version_unchanged`] checks like any optimistic
    /// snapshot.
    fn read_locked(&self, i: usize) -> (SlotState, u32) {
        let pre = self.lock(i);
        let state = SlotGuard { arr: self, i }.state();
        self.unlock(i, pre);
        (state, pre.wrapping_add(2))
    }

    /// Lock slot `i` (even→odd CAS, backing off) and return the pre-lock
    /// version. The caller must follow with [`SlotArray::unlock`]. The
    /// wait never escalates — the current holder's progress is this
    /// path's progress guarantee — but it does park past the budget so a
    /// long queue stops burning CPU.
    fn lock(&self, i: usize) -> u32 {
        let mut retry = resilience::Retry::seeded(i as u64);
        loop {
            let v = self.slots[i].version.load(Ordering::Acquire);
            if v & 1 == 0
                && self.slots[i]
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                // Stretch the odd-version (writer-in-progress) window so
                // racing readers actually observe it.
                testkit::chaos_point!("slots.lock.held");
                return v;
            }
            // Let the testkit perturb lock-acquisition interleavings
            // (who wins a contended CAS), not just the held window.
            testkit::chaos_point!("slots.lock.spin");
            obs::incr!(Counter::SlotLockRetry);
            retry.wait_for_holder(crate::count_contention);
        }
    }

    #[inline]
    fn unlock(&self, i: usize, pre: u32) {
        self.slots[i]
            .version
            .store(pre.wrapping_add(2), Ordering::Release);
    }

    /// Run `f` with slot `i` write-locked (version odd). The guard gives
    /// exclusive read/write access to the slot; concurrent optimistic
    /// readers spin (or retry their validation) until `f` returns. The
    /// lock is released even if `f` panics.
    ///
    /// This is the per-slot serialization point: callers that must make a
    /// multi-step decision atomically against other slot writers (e.g.
    /// "claim unless the key already lives elsewhere") do the whole
    /// decision inside `f`.
    pub fn with_write<R>(&self, i: usize, f: impl FnOnce(&SlotGuard<'_>) -> R) -> R {
        struct Unlock<'a>(&'a SlotArray, usize, u32);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                self.0.unlock(self.1, self.2);
            }
        }
        let pre = self.lock(i);
        let _unlock = Unlock(self, i, pre);
        f(&SlotGuard { arr: self, i })
    }

    /// Try to install `(key, value)` into slot `i`. Claims the slot if it
    /// is empty or a tombstone; reports who owns it otherwise. This is the
    /// write-write conflict protocol of §III-E.
    pub fn claim(&self, i: usize, key: u64, value: u64) -> ClaimResult {
        self.with_write(i, |g| match g.state() {
            SlotState::Empty | SlotState::Tombstone => {
                g.install(key, value);
                ClaimResult::Written
            }
            SlotState::Occupied { key: cur, value: v } if cur == key => {
                ClaimResult::SameKey { value: v }
            }
            SlotState::Occupied { .. } => ClaimResult::OtherKey,
        })
    }

    /// Update the value of slot `i` if it currently holds `key`.
    pub fn update_if_key(&self, i: usize, key: u64, value: u64) -> bool {
        self.with_write(i, |g| {
            let ok = matches!(g.state(), SlotState::Occupied { key: k, .. } if k == key);
            testkit::chaos_point!("slots.update.locked");
            if ok {
                g.set_value(value);
            }
            ok
        })
    }

    /// Tombstone slot `i` if it currently holds `key`; returns the removed
    /// value.
    pub fn remove_if_key(&self, i: usize, key: u64) -> Option<u64> {
        self.with_write(i, |g| match g.state() {
            SlotState::Occupied { key: k, value } if k == key => {
                testkit::chaos_point!("slots.remove.pre_tombstone");
                g.clear();
                Some(value)
            }
            _ => None,
        })
    }

    /// Bulk placement during (re)construction: the array is still private
    /// to one thread, so skip the version protocol.
    pub fn place_unsync(&self, i: usize, key: u64, value: u64) -> bool {
        if self.occupied_bit(i) {
            return false;
        }
        self.slots[i].key.store(key, Ordering::Relaxed);
        self.slots[i].value.store(value, Ordering::Relaxed);
        self.set_occupied(i);
        true
    }

    /// Iterate live entries in slot order, yielding `(slot, key, value)`.
    /// Snapshot-consistent per slot, not across slots.
    pub fn for_each_live(&self, mut f: impl FnMut(usize, u64, u64)) {
        for i in 0..self.capacity() {
            if let (SlotState::Occupied { key, value }, _) = self.read(i) {
                f(i, key, value);
            }
        }
    }

    /// Count live entries (per-slot consistent).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.for_each_live(|_, _, _| n += 1);
        n
    }
}

/// Exclusive access to one write-locked slot, handed to
/// [`SlotArray::with_write`] closures. No version dance is needed inside:
/// the version is odd for the guard's whole lifetime, so optimistic
/// readers cannot validate against anything the closure does.
pub struct SlotGuard<'a> {
    arr: &'a SlotArray,
    i: usize,
}

impl SlotGuard<'_> {
    /// The slot's current state, read under the lock.
    pub fn state(&self) -> SlotState {
        if !self.arr.occupied_bit(self.i) {
            return SlotState::Empty;
        }
        let key = self.arr.slots[self.i].key.load(Ordering::Acquire);
        if key == 0 {
            SlotState::Tombstone
        } else {
            SlotState::Occupied {
                key,
                value: self.arr.slots[self.i].value.load(Ordering::Acquire),
            }
        }
    }

    /// Install `(key, value)`, claiming the slot. Callers branch on
    /// [`SlotGuard::state`] first; installing over a live *different* key
    /// would lose its entry.
    pub fn install(&self, key: u64, value: u64) {
        debug_assert_ne!(key, 0);
        let slot = &self.arr.slots[self.i];
        if self.arr.occupied_bit(self.i) {
            slot.key.store(key, Ordering::Release);
            // Tombstone reclaim by a *different* key: the window between
            // the two stores is where skipped read-side re-validation
            // leaks the old resident's value.
            testkit::chaos_point!("slots.claim.tombstone_write");
            slot.value.store(value, Ordering::Release);
        } else {
            slot.key.store(key, Ordering::Release);
            testkit::chaos_point!("slots.claim.mid_write");
            slot.value.store(value, Ordering::Release);
            self.arr.set_occupied(self.i);
        }
    }

    /// Overwrite the value, leaving the key in place.
    pub fn set_value(&self, value: u64) {
        self.arr.slots[self.i].value.store(value, Ordering::Release);
    }

    /// Tombstone the slot (key := 0).
    pub fn clear(&self) {
        self.arr.slots[self.i].key.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_then_claim_then_read() {
        let s = SlotArray::new(8);
        assert_eq!(s.read(3).0, SlotState::Empty);
        assert_eq!(s.claim(3, 42, 420), ClaimResult::Written);
        assert_eq!(
            s.read(3).0,
            SlotState::Occupied {
                key: 42,
                value: 420
            }
        );
    }

    #[test]
    fn claim_conflicts() {
        let s = SlotArray::new(4);
        s.claim(0, 7, 70);
        assert_eq!(s.claim(0, 7, 71), ClaimResult::SameKey { value: 70 });
        assert_eq!(s.claim(0, 8, 80), ClaimResult::OtherKey);
        // Value unchanged by failed claims.
        assert_eq!(s.read(0).0, SlotState::Occupied { key: 7, value: 70 });
    }

    #[test]
    fn tombstone_lifecycle() {
        let s = SlotArray::new(4);
        s.claim(1, 9, 90);
        assert_eq!(s.remove_if_key(1, 8), None, "wrong key");
        assert_eq!(s.remove_if_key(1, 9), Some(90));
        assert_eq!(s.read(1).0, SlotState::Tombstone);
        // A tombstone can be re-claimed by any key.
        assert_eq!(s.claim(1, 11, 110), ClaimResult::Written);
        assert_eq!(
            s.read(1).0,
            SlotState::Occupied {
                key: 11,
                value: 110
            }
        );
    }

    #[test]
    fn update_if_key_paths() {
        let s = SlotArray::new(2);
        assert!(!s.update_if_key(0, 5, 1), "empty slot");
        s.claim(0, 5, 1);
        assert!(s.update_if_key(0, 5, 2));
        assert_eq!(s.read(0).0, SlotState::Occupied { key: 5, value: 2 });
        assert!(!s.update_if_key(0, 6, 3), "different key");
    }

    #[test]
    fn versions_move_on_writes_only() {
        let s = SlotArray::new(2);
        let (_, v0) = s.read(0);
        let (_, v0b) = s.read(0);
        assert_eq!(v0, v0b, "reads do not bump versions");
        s.claim(0, 1, 1);
        assert!(!s.version_unchanged(0, v0));
        let (_, v1) = s.read(0);
        assert!(v1 > v0);
        assert_eq!(v1 % 2, 0, "published versions are even");
    }

    #[test]
    fn place_unsync_respects_occupancy() {
        let s = SlotArray::new(4);
        assert!(s.place_unsync(2, 5, 50));
        assert!(!s.place_unsync(2, 6, 60), "occupied slot rejects placement");
        assert_eq!(s.read(2).0, SlotState::Occupied { key: 5, value: 50 });
    }

    #[test]
    fn for_each_live_skips_empty_and_tombstones() {
        let s = SlotArray::new(8);
        s.claim(1, 10, 100);
        s.claim(4, 40, 400);
        s.claim(6, 60, 600);
        s.remove_if_key(4, 40);
        let mut seen = Vec::new();
        s.for_each_live(|i, k, v| seen.push((i, k, v)));
        assert_eq!(seen, vec![(1, 10, 100), (6, 60, 600)]);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn concurrent_claims_one_winner_per_slot() {
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(16));
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for i in 0..16 {
                    if s.claim(i, t * 100 + i as u64, t) == ClaimResult::Written {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 16, "each slot claimed exactly once");
        assert_eq!(s.live_count(), 16);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_slots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(1));
        s.claim(0, 1, 1);
        let stop = Arc::new(AtomicBool::new(false));
        // Writer cycles key/value pairs where key == value.
        let w = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    s.remove_if_key(0, k - 1);
                    s.claim(0, k, k);
                    k += 1;
                }
            })
        };
        for _ in 0..200_000 {
            if let (SlotState::Occupied { key, value }, _) = s.read(0) {
                assert_eq!(key, value, "torn read: {key} != {value}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }
}
