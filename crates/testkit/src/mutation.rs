//! Runtime switch for deliberately-broken protocol variants.
//!
//! Mutation self-testing proves the chaos harness has teeth: a known bug
//! is compiled in behind the `chaos-mutate` cargo feature (in
//! `alt-index`: `SlotArray::read` skips its version re-validation), this
//! flag turns it on at runtime, and `tests/mutation_selftest.rs` asserts
//! the oracle flags a violation within the CI seed matrix.
//!
//! The flag is process-global, which is why the mutation self-test lives
//! in its **own** integration-test binary: cargo runs each test binary
//! as a separate process, so enabling the mutation there cannot poison
//! tests running elsewhere in parallel.

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the compiled-in mutation on (no-op unless the crate under test
/// was built with its `chaos-mutate` feature).
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turn the mutation back off.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether mutated code paths should misbehave right now. Instrumented
/// crates read it through [`crate::mutation_enabled!`], which folds to
/// `false` unless they are built with `chaos-mutate`.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        assert!(!is_enabled());
        enable();
        assert!(is_enabled());
        disable();
        assert!(!is_enabled());
    }
}
