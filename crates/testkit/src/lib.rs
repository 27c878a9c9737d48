//! Deterministic concurrency testkit for the ALT-index workspace.
//!
//! Three pieces (see `TESTING.md` at the repository root):
//!
//! * [`chaos`] — seeded schedule-perturbing yield/delay points compiled
//!   into the optimistic hot paths of `alt-index`, `art`, `baselines`,
//!   `learned` and `region` through [`chaos_point!`], behind each
//!   crate's own `chaos` cargo feature. With the feature off the sites
//!   expand to nothing and vanish from codegen.
//! * [`oracle`] — per-thread operation-history recording plus quiesce
//!   validation against a reference model, generic over
//!   [`index_api::ConcurrentIndex`].
//! * [`harness`] — a seeded multi-threaded workload driver that wires
//!   the two together: deterministic op scripts per thread, chaos
//!   perturbation while running, oracle checking at join.
//! * [`mutation`] — the runtime switch for deliberately-broken protocol
//!   variants (`chaos-mutate` feature in `alt-index`, read through
//!   [`mutation_enabled!`]) used to prove the harness actually detects
//!   races.

#![warn(missing_docs)]

pub mod chaos;
pub mod harness;
pub mod mutation;
pub mod oracle;

/// `testkit::chaos_point!(site)`: a schedule-perturbation point —
/// [`chaos::point`] in a crate built with its `chaos` feature, nothing
/// otherwise. The expansion carries `#[cfg(feature = "chaos")]`, which
/// rustc evaluates against the calling crate, so that crate's own
/// feature is the only gate and a default build keeps no trace of the
/// site.
#[macro_export]
macro_rules! chaos_point {
    ($site:expr) => {{
        #[cfg(feature = "chaos")]
        $crate::chaos::point($site);
    }};
}

/// `testkit::mutation_enabled!()`: whether the deliberately-broken
/// protocol variant should misbehave right now — [`mutation::is_enabled`]
/// in a crate built with its `chaos-mutate` feature, `false` (folded
/// away) otherwise.
#[macro_export]
macro_rules! mutation_enabled {
    () => {{
        #[cfg(feature = "chaos-mutate")]
        let on = $crate::mutation::is_enabled();
        #[cfg(not(feature = "chaos-mutate"))]
        let on = false;
        on
    }};
}

/// SplitMix64: the deterministic stream every testkit component draws
/// from. Duplicated from `datasets::rng` so the testkit stays dependency-
/// free (it must be linkable from every crate in the workspace).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound` (`bound` must be non-zero).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}
