//! The program's own `obs` counters around the traced phase. They exist
//! only in a `--features metrics` build; the default build reports none.

/// Counter readings over one phase, as `(name, value)`.
pub type Readings = Vec<(&'static str, f64)>;

#[cfg(feature = "metrics")]
mod imp {
    use super::Readings;
    use obs::{Counter, MetricsSnapshot, Phase};

    /// A snapshot taken before the phase.
    pub struct Mark(MetricsSnapshot);

    /// Snapshot the counters.
    pub fn mark() -> Mark {
        Mark(obs::snapshot())
    }

    /// What moved since `before`, over `ops` completed operations.
    pub fn since(before: &Mark, ops: u64) -> Readings {
        let d = obs::snapshot().delta(&before.0);
        let c = |k: Counter| d.get(k) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_mop = |k: Counter| ratio(c(k) * 1e6, ops as f64);
        let collect = d.phase_histogram(Phase::RetrainCollect);
        let build = d.phase_histogram(Phase::RetrainBuild);
        vec![
            (
                "obs.fastptr_hit_rate",
                ratio(
                    c(Counter::FastPtrJumpHit),
                    c(Counter::FastPtrJumpHit) + c(Counter::FastPtrDeopt),
                ),
            ),
            (
                "obs.batch_learned_hit_rate",
                ratio(c(Counter::AltBatchLearnedHit), c(Counter::AltBatchKeys)),
            ),
            (
                "obs.slot_read_retry_per_mop",
                per_mop(Counter::SlotReadRetry),
            ),
            ("obs.olc_restart_per_mop", per_mop(Counter::OlcRestart)),
            (
                "obs.alt_escalation_per_mop",
                per_mop(Counter::AltEscalation),
            ),
            ("obs.retrain_collect_ns_p50", collect.quantile(0.5) as f64),
            ("obs.retrain_collect_ns_max", collect.max() as f64),
            ("obs.retrain_build_ns_p50", build.quantile(0.5) as f64),
            ("obs.retrain_build_ns_max", build.max() as f64),
            (
                "obs.write_back_moved_rate",
                ratio(c(Counter::WriteBackMoved), c(Counter::WriteBackAttempt)),
            ),
        ]
    }
}

#[cfg(not(feature = "metrics"))]
mod imp {
    use super::Readings;

    /// Nothing to mark without the `metrics` feature.
    pub struct Mark;

    /// Nothing to mark without the `metrics` feature.
    pub fn mark() -> Mark {
        Mark
    }

    /// No readings without the `metrics` feature.
    pub fn since(_: &Mark, _: u64) -> Readings {
        Vec::new()
    }
}

pub use imp::{mark, since};
