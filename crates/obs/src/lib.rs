//! Hot-path observability for the ALT-index workspace.
//!
//! The concurrent hot paths of this workspace are optimistic protocols:
//! slot-version reads that retry, OLC descents that restart, scans that
//! re-collect when the directory epoch moves, fast-pointer jumps that
//! de-optimize to root searches. None of that work is visible in the
//! O(slots) [`alt-index` stats snapshot], and the "Benchmarking Learned
//! Indexes" methodology (and the paper's §III-C/§III-F analysis) says to
//! measure exactly it. This crate is the shared sink:
//!
//! * [`Counter`] — every countable hot-path event, recorded through
//!   [`incr()`]/[`add()`] into **cache-line-padded sharded atomics** so
//!   concurrent recording never false-shares;
//! * [`Phase`] — timed phases (retrain collect/build/swap/cleanup),
//!   recorded through [`record_phase_ns`] into atomic histograms that
//!   share [`workloads::LatencyHistogram`]'s bucket layout;
//! * [`snapshot`] / [`MetricsSnapshot::delta`] — consistent-enough
//!   (per-counter monotone) point-in-time readings for reports and
//!   before/after assertions.
//!
//! # Zero cost when off
//!
//! This crate always compiles its real implementation and has no cargo
//! feature of its own. The *instrumented* crates (`alt-index`, `art`,
//! `baselines`, `region`) record through the [`incr!`], [`add!`],
//! [`phase_start!`] and [`phase_end!`] macros, whose expansion carries
//! `#[cfg(feature = "metrics")]`. Rustc evaluates that cfg against the
//! crate the macro is expanded in, so each instrumented crate's own
//! `metrics` feature is the only gate: without it the call sites expand
//! to nothing, and this crate is linked, but no symbol of it survives
//! in a release binary. With the feature on, a counter bump is one
//! thread-local read plus one relaxed `fetch_add` on a thread-private
//! cache line.
//!
//! [`alt-index` stats snapshot]: ../alt_index/stats/index.html

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
mod counters;
mod phases;
mod snapshot;

pub use counters::{add, incr, total, Counter};
pub use phases::{record_phase_ns, Phase};
pub use snapshot::{snapshot, MetricsSnapshot};

/// `obs::incr!(Counter::X)`: count one `X` event in a crate built with
/// its `metrics` feature; expands to nothing otherwise (see the crate
/// docs).
#[macro_export]
macro_rules! incr {
    (Counter::$c:ident) => {{
        #[cfg(feature = "metrics")]
        $crate::incr($crate::Counter::$c);
    }};
}

/// `obs::add!(Counter::X, n)`: add `n` to `X` in a crate built with its
/// `metrics` feature; expands to nothing otherwise, and `n` is then not
/// evaluated.
#[macro_export]
macro_rules! add {
    (Counter::$c:ident, $n:expr) => {{
        #[cfg(feature = "metrics")]
        $crate::add($crate::Counter::$c, $n as u64);
    }};
}

/// `obs::phase_start!()`: start timing a `Phase` — the current
/// [`clock::now_ns`] in a crate built with its `metrics` feature, `0`
/// otherwise. Pair with [`phase_end!`].
#[macro_export]
macro_rules! phase_start {
    () => {{
        #[cfg(feature = "metrics")]
        let t0: u64 = $crate::clock::now_ns();
        #[cfg(not(feature = "metrics"))]
        let t0: u64 = 0;
        t0
    }};
}

/// `obs::phase_end!(Phase::P, t0)`: record the time since `t0` (from
/// [`phase_start!`]) as one sample of `P` in a crate built with its
/// `metrics` feature; expands to nothing otherwise.
#[macro_export]
macro_rules! phase_end {
    (Phase::$p:ident, $t0:expr) => {{
        #[cfg(feature = "metrics")]
        $crate::record_phase_ns(
            $crate::Phase::$p,
            $crate::clock::now_ns().saturating_sub($t0),
        );
        #[cfg(not(feature = "metrics"))]
        let _ = $t0;
    }};
}
