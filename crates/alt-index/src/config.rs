//! Tuning knobs for ALT-index construction and behaviour.

use std::time::Duration;

/// Where retraining runs relative to the thread whose insert tripped the
/// overflow trigger (§III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainMode {
    /// Retrain on the inserting thread, inside the insert call — the
    /// paper's original behaviour, and the A/B baseline for the
    /// background scheduler. The rebuild is the same two-phase
    /// collect → off-lock build → reconcile → swap the workers run, so
    /// other writers to the span stall only for the two short collect
    /// windows; the inserting thread pays for the build.
    Inline,
    /// Inserting threads only *enqueue* a prioritized retrain request;
    /// a budgeted worker pool (see [`BgRetrainPolicy`]) performs the
    /// collect → build → reconcile → swap off the hot path.
    Background,
}

/// Budget knobs for the background retrain worker pool (only read when
/// [`AltConfig::retrain_mode`] is [`RetrainMode::Background`]).
///
/// The pool is deliberately rate-limitable in the style of the
/// resilience crate's tiered policies: a bounded queue sheds excess
/// requests (the next overflow insert simply re-enqueues), and an
/// optional minimum interval between drained retrains keeps a worker
/// from monopolizing memory bandwidth on small hosts.
#[derive(Debug, Clone)]
pub struct BgRetrainPolicy {
    /// Worker threads servicing the retrain queue.
    pub workers: usize,
    /// Maximum queued requests; beyond this, enqueues are dropped (and
    /// counted as `alt.retrain_bg_dropped` under the `metrics` feature).
    pub max_queue: usize,
    /// Minimum pause between retrains drained by one worker
    /// (`Duration::ZERO` = no throttle).
    pub min_interval: Duration,
    /// Consecutive contained background-retrain panics before the pool
    /// trips **degraded mode**: background retrains stop being enqueued
    /// and overflowing inserts fall back to contained inline retrains,
    /// keeping a throughput floor while whatever is killing the workers
    /// persists (DESIGN.md §16). Counted as `alt.degraded_mode_entries`.
    pub fail_streak_limit: u32,
    /// Consecutive *clean* inline retrains (while degraded) before the
    /// pool leaves degraded mode and resumes background scheduling.
    pub recover_after: u32,
}

impl Default for BgRetrainPolicy {
    fn default() -> Self {
        Self {
            workers: 1,
            max_queue: 64,
            min_interval: Duration::ZERO,
            fail_streak_limit: 3,
            recover_after: 2,
        }
    }
}

/// Configuration for [`crate::AltIndex`].
///
/// Defaults follow the paper's recommendations (§III-D: ε =
/// `bulkload_number / 1000`; fast pointers and dynamic retraining on).
#[derive(Debug, Clone)]
pub struct AltConfig {
    /// GPL error bound ε. `None` = the paper's suggested
    /// `bulkload_size / 1000` (clamped to [`AltConfig::MIN_EPSILON`]).
    pub epsilon: Option<f64>,
    /// Extra slot budget per model: capacity ≈ gap_factor × span. The
    /// paper's "array gaps scheme to handle some coming insertions".
    pub gap_factor: f64,
    /// Enable the fast pointer buffer (§III-C). Off = every ART access
    /// starts at the root (the Fig 10(a) ablation).
    pub fast_pointers: bool,
    /// Enable dynamic retraining (§III-F). Off = overflowed models keep
    /// spilling into ART (part of the hot-write comparison).
    pub retrain: bool,
    /// Whether retrains run inline on the inserting thread or in the
    /// background worker pool. Defaults to [`RetrainMode::Inline`] (the
    /// paper's behaviour); [`RetrainMode::Background`] moves the
    /// collect/build/swap off the hot path.
    pub retrain_mode: RetrainMode,
    /// Worker-pool budget for [`RetrainMode::Background`].
    pub bg_retrain: BgRetrainPolicy,
    /// Enable opportunistic write-back of ART entries into tombstoned GPL
    /// slots during reads (Algorithm 2 lines 10-13).
    pub write_back: bool,
    /// Worker threads for bulk-load construction: chunked GPL
    /// segmentation with a deterministic seam stitch, per-thread model
    /// population (per-model ownership, no locking), and parallel conflict
    /// insertion into ART plus fast-pointer registration. `1` runs the
    /// serial build path bit-for-bit; any other value produces an
    /// observably identical index (the build-equivalence suite's
    /// contract). Defaults to the host's available parallelism. Only
    /// affects construction — never steady-state operations or retrains.
    pub build_threads: usize,
    /// Backoff tiers and retry budget for this index's operation-level
    /// optimistic loops (get/insert/update/remove/scan — the loops with
    /// a pessimistic escalation). Defaults to the process-global policy
    /// ([`resilience::global`], overridable via `ALT_RESILIENCE_*` env
    /// vars), snapshotted when the config is created. Inner primitives
    /// shared across indexes (slot arrays, spin locks, ART's OLC) always
    /// follow the process-global policy.
    pub contention: resilience::ContentionPolicy,
}

impl AltConfig {
    /// Smallest ε the auto rule will pick.
    pub const MIN_EPSILON: f64 = 16.0;

    /// The ε used for a bulk load of `n` keys.
    pub fn effective_epsilon(&self, n: usize) -> f64 {
        match self.epsilon {
            Some(e) => e.max(0.0),
            None => (n as f64 / 1000.0).max(Self::MIN_EPSILON),
        }
    }

    /// Default configuration with background retraining enabled.
    pub fn background() -> Self {
        Self {
            retrain_mode: RetrainMode::Background,
            ..Default::default()
        }
    }
}

impl Default for AltConfig {
    fn default() -> Self {
        Self {
            epsilon: None,
            gap_factor: 1.25,
            fast_pointers: true,
            retrain: true,
            retrain_mode: RetrainMode::Inline,
            bg_retrain: BgRetrainPolicy::default(),
            write_back: true,
            build_threads: default_build_threads(),
            contention: resilience::global(),
        }
    }
}

/// Default worker-thread count for bulk-load construction: everything
/// the host offers (the bench harness's `--build-threads` flag narrows
/// this per run).
pub fn default_build_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_epsilon_follows_paper_rule() {
        let c = AltConfig::default();
        assert_eq!(c.effective_epsilon(2_000_000), 2_000.0);
        assert_eq!(c.effective_epsilon(100), AltConfig::MIN_EPSILON, "clamped");
    }

    #[test]
    fn build_threads_defaults_to_available_parallelism() {
        let c = AltConfig::default();
        assert_eq!(c.build_threads, default_build_threads());
        assert!(c.build_threads >= 1);
    }

    #[test]
    fn default_mode_is_inline_and_background_flips_it() {
        assert_eq!(AltConfig::default().retrain_mode, RetrainMode::Inline);
        let bg = AltConfig::background();
        assert_eq!(bg.retrain_mode, RetrainMode::Background);
        assert!(bg.retrain, "background mode implies retraining on");
        assert!(bg.bg_retrain.workers >= 1);
        assert!(bg.bg_retrain.max_queue >= 1);
    }

    #[test]
    fn explicit_epsilon_wins() {
        let c = AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        };
        assert_eq!(c.effective_epsilon(2_000_000), 64.0);
    }
}
