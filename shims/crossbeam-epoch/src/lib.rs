//! Hermetic shim for `crossbeam-epoch`: a small, self-contained
//! epoch-based reclamation scheme exposing exactly the API surface this
//! workspace uses (`pin`, `unprotected`, `Atomic`, `Owned`, `Shared`,
//! `Guard::{defer_destroy, defer_unchecked}`).
//!
//! The scheme is the classic three-epoch design:
//!
//! * A global epoch counter advances only when every currently-pinned
//!   participant has observed the current epoch.
//! * Garbage is tagged with the epoch at retirement and freed once the
//!   global epoch is at least two ahead — at that point every guard that
//!   could have loaded the retired pointer has been dropped.
//!
//! Pinning is wait-free (two SeqCst stores plus a re-check loop);
//! retirement and collection go through a mutex, which is fine because
//! retirement only happens on structural changes (directory swaps, node
//! replacements), never on point-op fast paths.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel epoch meaning "not pinned".
const IDLE: usize = usize::MAX;
/// Collect at most every this many unpins per thread.
const COLLECT_EVERY: usize = 64;

static GLOBAL_EPOCH: AtomicUsize = AtomicUsize::new(0);

struct Participant {
    epoch: AtomicUsize,
}

/// A retired object awaiting reclamation. The closure captures raw
/// pointers; `Send` is asserted by the `defer_unchecked` safety contract.
struct Deferred {
    epoch: usize,
    call: Box<dyn FnOnce()>,
}

unsafe impl Send for Deferred {}

fn registry() -> &'static Mutex<Vec<Arc<Participant>>> {
    static R: OnceLock<Mutex<Vec<Arc<Participant>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn garbage() -> &'static Mutex<VecDeque<Deferred>> {
    static G: OnceLock<Mutex<VecDeque<Deferred>>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(VecDeque::new()))
}

struct LocalHandle {
    participant: Arc<Participant>,
    pin_depth: Cell<usize>,
    unpins: Cell<usize>,
}

impl LocalHandle {
    fn new() -> Self {
        let participant = Arc::new(Participant {
            epoch: AtomicUsize::new(IDLE),
        });
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&participant));
        Self {
            participant,
            pin_depth: Cell::new(0),
            unpins: Cell::new(0),
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.retain(|p| !Arc::ptr_eq(p, &self.participant));
    }
}

thread_local! {
    static LOCAL: LocalHandle = LocalHandle::new();
}

/// Try to advance the global epoch and run every deferred destructor that
/// is at least two epochs old. `try_lock` keeps collection off the pin
/// fast path under contention.
fn try_collect() {
    let Ok(mut bin) = garbage().try_lock() else {
        return;
    };
    {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let current = GLOBAL_EPOCH.load(Ordering::SeqCst);
        let all_current = reg.iter().all(|p| {
            let e = p.epoch.load(Ordering::SeqCst);
            e == IDLE || e == current
        });
        if all_current {
            GLOBAL_EPOCH.store(current + 1, Ordering::SeqCst);
        }
    }
    let current = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let mut ready = Vec::new();
    while let Some(front) = bin.front() {
        if front.epoch + 2 <= current {
            ready.push(bin.pop_front().unwrap());
        } else {
            break;
        }
    }
    drop(bin);
    for d in ready {
        (d.call)();
    }
}

fn retire(call: Box<dyn FnOnce()>) {
    let epoch = GLOBAL_EPOCH.load(Ordering::SeqCst);
    garbage()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push_back(Deferred { epoch, call });
}

/// A handle that keeps the current epoch pinned; loaded [`Shared`]
/// pointers stay valid until it drops.
pub struct Guard {
    pinned: bool,
    _not_send: PhantomData<*mut ()>,
}

// `&Guard` escapes through `unprotected()`'s `'static` reference; sharing
// a reference across threads is harmless because every `&self` method
// only touches global synchronized state. The type stays `!Send` so the
// thread-local pin bookkeeping in `Drop` runs on the pinning thread.
unsafe impl Sync for Guard {}

/// Pin the current epoch. Pins nest; the thread unpins when the last
/// guard drops.
pub fn pin() -> Guard {
    LOCAL.with(|l| {
        if l.pin_depth.get() == 0 {
            loop {
                let g = GLOBAL_EPOCH.load(Ordering::SeqCst);
                l.participant.epoch.store(g, Ordering::SeqCst);
                // Re-check: if the collector advanced concurrently it may
                // not have seen our store; retry with the fresh epoch so
                // the published value is never stale.
                if GLOBAL_EPOCH.load(Ordering::SeqCst) == g {
                    break;
                }
            }
        }
        l.pin_depth.set(l.pin_depth.get() + 1);
    });
    Guard {
        pinned: true,
        _not_send: PhantomData,
    }
}

/// A guard that performs no pinning: deferred functions run immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// data structures touched through this guard (e.g. inside `Drop` with
/// `&mut self`).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard {
        pinned: false,
        _not_send: PhantomData,
    };
    &UNPROTECTED
}

impl Guard {
    /// Defer dropping the boxed object behind `ptr` until no pinned guard
    /// can still reference it.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Owned::new`/`Atomic::new`, be unlinked from
    /// every shared location, and never be retired twice.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        // Erase `T` behind `*mut u8` + a monomorphized drop-glue pointer,
        // so the deferred closure captures only `'static` data even when
        // `T` itself is not `'static` (matches upstream's contract).
        unsafe fn drop_glue<T>(raw: *mut u8) {
            drop(Box::from_raw(raw.cast::<T>()));
        }
        let raw = ptr.raw.cast::<u8>();
        let glue: unsafe fn(*mut u8) = drop_glue::<T>;
        self.defer_unchecked(move || {
            if !raw.is_null() {
                glue(raw);
            }
        });
    }

    /// Defer an arbitrary closure until two epochs from now.
    ///
    /// # Safety
    ///
    /// The closure must remain sound to call from any thread after every
    /// current guard drops (same contract as crossbeam's).
    pub unsafe fn defer_unchecked<F: FnOnce() + 'static>(&self, f: F) {
        if self.pinned {
            retire(Box::new(f));
        } else {
            f();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.pinned {
            return;
        }
        // `try_with`: a guard dropped during thread teardown (after TLS
        // destruction) simply skips unpin bookkeeping — its participant
        // entry is already gone from the registry.
        let _ = LOCAL.try_with(|l| {
            let depth = l.pin_depth.get();
            debug_assert!(depth > 0);
            l.pin_depth.set(depth - 1);
            if depth == 1 {
                l.participant.epoch.store(IDLE, Ordering::SeqCst);
                let unpins = l.unpins.get() + 1;
                l.unpins.set(unpins);
                if unpins % COLLECT_EVERY == 0 {
                    try_collect();
                }
            }
        });
    }
}

/// An owned heap allocation that can be published into an [`Atomic`].
pub struct Owned<T> {
    inner: Box<T>,
}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Self {
        Self {
            inner: Box::new(value),
        }
    }

    /// Convert back into a plain `Box`.
    pub fn into_box(self) -> Box<T> {
        self.inner
    }

    /// Publish as a [`Shared`] under `_guard`'s pin.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: Box::into_raw(self.inner),
            _marker: PhantomData,
        }
    }
}

/// A pointer loaded from an [`Atomic`], valid while its guard is pinned.
pub struct Shared<'g, T> {
    raw: *mut T,
    _marker: PhantomData<&'g T>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared {
            raw: std::ptr::null_mut(),
            _marker: PhantomData,
        }
    }

    /// Whether the pointer is null.
    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// The raw pointer value.
    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// Dereference under the guard's protection.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and loaded under the same pin that
    /// `'g` borrows.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.raw
    }

    /// Take back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the only remaining owner (e.g. inside `Drop`).
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            inner: Box::from_raw(self.raw),
        }
    }
}

/// Types that can be stored into an [`Atomic`].
pub trait Pointer<T> {
    /// Consume self, yielding the raw pointer to publish.
    fn into_raw(self) -> *mut T;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_raw(self) -> *mut T {
        Box::into_raw(self.inner)
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_raw(self) -> *mut T {
        self.raw
    }
}

/// An atomic pointer to an epoch-managed heap allocation.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocate `value` and point at it.
    pub fn new(value: T) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// A null pointer.
    pub fn null() -> Self {
        Self {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Load the current pointer under `_guard`'s pin.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Store a new pointer (the previous value is NOT reclaimed).
    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.ptr.store(new.into_raw(), ord);
    }

    /// Swap in a new pointer, returning the previous one for retirement.
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.swap(new.into_raw(), ord),
            _marker: PhantomData,
        }
    }
}

impl<T> Drop for Atomic<T> {
    fn drop(&mut self) {
        // Matches crossbeam: dropping an Atomic does NOT free the pointee;
        // owners reclaim through `unprotected()` + `into_owned` in their
        // own Drop impls.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{MutexGuard, PoisonError};

    /// Serializes the tests that pin. The epoch is process-global and
    /// the test harness runs tests on parallel threads: a guard pinned in
    /// one test correctly holds the global epoch back, which would keep
    /// `deferred_drop_eventually_runs` from ever reaching the epoch that
    /// frees its garbage.
    fn serial() -> MutexGuard<'static, ()> {
        static PINNING_TESTS: Mutex<()> = Mutex::new(());
        PINNING_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn pin_unpin_tracks_depth() {
        let _serial = serial();
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
        LOCAL.with(|l| assert_eq!(l.pin_depth.get(), 0));
    }

    #[test]
    fn atomic_load_swap_roundtrip() {
        let _serial = serial();
        let a = Atomic::new(7u64);
        let guard = pin();
        assert_eq!(unsafe { *a.load(Ordering::Acquire, &guard).deref() }, 7);
        let old = a.swap(Owned::new(8), Ordering::AcqRel, &guard);
        assert_eq!(unsafe { *old.deref() }, 7);
        unsafe { guard.defer_destroy(old) };
        assert_eq!(unsafe { *a.load(Ordering::Acquire, &guard).deref() }, 8);
        drop(guard);
        // Clean up the final snapshot.
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
        }
    }

    #[test]
    fn unprotected_defers_run_immediately() {
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        unsafe {
            unprotected().defer_unchecked(move || r.store(true, Ordering::SeqCst));
        }
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn deferred_drop_eventually_runs() {
        let _serial = serial();
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let a = Atomic::new(Flag(Arc::clone(&dropped)));
        {
            let guard = pin();
            let old = a.swap(
                Owned::new(Flag(Arc::new(AtomicBool::new(false)))),
                Ordering::AcqRel,
                &guard,
            );
            unsafe { guard.defer_destroy(old) };
        }
        // Drive epoch advancement: repeated pin/unpin cycles collect.
        for _ in 0..10 * COLLECT_EVERY {
            drop(pin());
        }
        assert!(dropped.load(Ordering::SeqCst), "deferred destructor ran");
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
        }
    }

    #[test]
    fn concurrent_swap_and_read_is_safe() {
        let _serial = serial();
        let a = Arc::new(Atomic::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = pin();
                        let v = unsafe { *a.load(Ordering::Acquire, &guard).deref() };
                        assert!(v >= last);
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=2_000u64 {
            let guard = pin();
            let old = a.swap(Owned::new(i), Ordering::AcqRel, &guard);
            unsafe { guard.defer_destroy(old) };
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
        }
    }
}
