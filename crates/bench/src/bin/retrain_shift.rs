//! **retrain_shift**: throughput-over-time under distribution shift,
//! inline vs background retraining — the measurement behind the
//! background-scheduler tentpole. Each of the three shift workloads
//! (monotonic append, rolling window, sudden mid-run shift) runs twice
//! over an ALT-index built from the same preload: once with the paper's
//! inline §III-F retrain on the hot path (`alt-inline`), once with the
//! budgeted worker pool (`alt-bg`). The driver records operations
//! completed per fixed-width time bucket (`--bucket-ms`, default 50),
//! so the inline retrain stalls show up as dips in the curve and the
//! background runs show how much of the dip the scheduler removes.
//!
//! Emitted `#json` rows (collected into `results/BENCH_retrain_shift.json`
//! by `scripts/run_all_experiments.sh`):
//!
//! * one summary row per (workload, mode): overall `mops`, with
//!   `value`/`metric` rows for total retrains, the min/median bucket
//!   throughput ratio (1.0 = perfectly flat, lower = deeper stall), the
//!   post-run end state (`art_share` = share of keys left in ART,
//!   `get_ns` = mean single-threaded point-read latency over the stored
//!   keys, `bytes_per_key`), and the always-on fault/self-healing
//!   counters (`retrain_bg_dropped`,
//!   `retrain_bg_panics`, `worker_respawns`, `degraded_mode_entries`,
//!   `retrain_rollbacks` — nonzero only when the queue sheds or the
//!   `fault` feature injects failures);
//! * one timeline row per bucket: `x` = bucket start in ms, `mops` =
//!   that bucket's throughput.
//!
//! Both modes replay byte-identical streams; the bin asserts the final
//! index lengths agree before reporting anything.

use bench::report::{banner, Row};
use bench::Args;
use index_api::ConcurrentIndex;
use std::sync::Arc;
use workloads::{run_streams_timed, ShiftKind, ShiftPlan, TimedResult};

/// Median of a sorted copy (0 for empty input).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Min/median bucket-throughput ratio over the interior buckets (the
/// final bucket is partially filled by construction and would read as a
/// fake stall).
fn stall_ratio(r: &TimedResult) -> f64 {
    let mut m = r.bucket_mops();
    m.pop();
    if m.is_empty() {
        return 1.0;
    }
    let med = median(&m);
    if med <= 0.0 {
        // More than half the buckets produced nothing: the run is
        // dominated by stalls, the worst possible ratio.
        return 0.0;
    }
    m.iter().copied().fold(f64::INFINITY, f64::min) / med
}

/// The index's state after a run: where the keys ended up and what a
/// point read costs there.
struct EndState {
    /// Share of live keys resident in ART rather than GPL slots.
    art_share: f64,
    /// Mean single-threaded `get` latency over the stored keys.
    get_ns: f64,
    /// Resident bytes per stored key.
    bytes_per_key: f64,
}

fn end_state(idx: &alt_index::AltIndex) -> EndState {
    let st = idx.stats();
    let mut pairs = Vec::new();
    idx.range(1, u64::MAX, &mut pairs);
    // A strided sample of at most ~100k keys keeps the probe short.
    let step = (pairs.len() / 100_000).max(1);
    let keys: Vec<u64> = pairs.iter().step_by(step).map(|p| p.0).collect();
    let t = std::time::Instant::now();
    for &k in &keys {
        assert!(idx.get(k).is_some(), "stored key {k} must be readable");
    }
    let get_ns = t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64;
    EndState {
        art_share: 1.0 - st.learned_share(),
        get_ns,
        bytes_per_key: idx.memory_usage() as f64 / pairs.len().max(1) as f64,
    }
}

fn run_mode(
    label: &str,
    background: bool,
    plan: &ShiftPlan,
    args: &Args,
) -> (TimedResult, usize, usize, alt_index::FaultStats, EndState) {
    let cfg = if background {
        alt_index::AltConfig::background()
    } else {
        alt_index::AltConfig::default()
    };
    let idx = Arc::new(alt_index::AltIndex::bulk_load_with(
        &plan.initial_pairs(),
        cfg,
    ));
    let streams: Vec<_> = (0..args.threads)
        .map(|t| plan.stream(t, args.threads, args.ops))
        .collect();
    let r = run_streams_timed(&*idx, streams, args.bucket_ms);
    idx.retrain_quiesce();
    assert_eq!(r.failed_inserts, 0, "{label}: shift streams are disjoint");
    let faults = idx.fault_stats();
    let end = end_state(&idx);
    (
        r,
        idx.retrain_count(),
        ConcurrentIndex::len(&*idx),
        faults,
        end,
    )
}

fn main() {
    let args = Args::parse();
    // The preload must sit well below the per-run insert volume or the
    // tail model never overflows its own build size and nothing
    // retrains (see crates/workloads/src/shift.rs).
    // /8 keeps it below even the rolling window's insert share (half its
    // mutate half), so all three workloads retrain.
    let preload = ((args.ops * args.threads / 8) as u64).max(1_000);
    banner(
        "retrain_shift",
        &format!(
            "threads={}, ops/thread={}, preload={preload}, bucket={}ms, seed={}",
            args.threads, args.ops, args.bucket_ms, args.seed
        ),
    );
    for kind in ShiftKind::ALL {
        let mut plan = ShiftPlan::new(kind, args.seed);
        plan.preload = preload;
        let mut lens = Vec::new();
        for (label, background) in [("alt-inline", false), ("alt-bg", true)] {
            if !args.wants_index(label) {
                continue;
            }
            let (r, retrains, len, faults, end) = run_mode(label, background, &plan, &args);
            lens.push((label, len));
            Row::new("retrain_shift")
                .index(label)
                .dataset(kind.label())
                .workload("summary")
                .mops(r.mops)
                .value("stall_ratio", stall_ratio(&r))
                .emit();
            Row::new("retrain_shift")
                .index(label)
                .dataset(kind.label())
                .workload("summary")
                .value("retrains", retrains as f64)
                .emit();
            // End state, then the fault/self-healing counters
            // (always-on; nonzero only when the queue sheds or the
            // `fault` feature injects failures).
            for (metric, v) in [
                ("art_share", end.art_share),
                ("get_ns", end.get_ns),
                ("bytes_per_key", end.bytes_per_key),
                ("retrain_bg_dropped", faults.bg_dropped as f64),
                ("retrain_bg_panics", faults.bg_panics as f64),
                ("worker_respawns", faults.worker_respawns as f64),
                ("degraded_mode_entries", faults.degraded_mode_entries as f64),
                ("retrain_rollbacks", faults.retrain_rollbacks as f64),
            ] {
                Row::new("retrain_shift")
                    .index(label)
                    .dataset(kind.label())
                    .workload("summary")
                    .value(metric, v)
                    .emit();
            }
            for (i, m) in r.bucket_mops().iter().enumerate() {
                Row::new("retrain_shift")
                    .index(label)
                    .dataset(kind.label())
                    .workload("timeline")
                    .x((i as u64 * r.bucket_ms) as f64)
                    .mops(*m)
                    .emit();
            }
        }
        if let [(_, a), (_, b)] = lens[..] {
            assert_eq!(
                a,
                b,
                "{}: inline and background runs of identical streams \
                 must store the same number of keys",
                kind.label()
            );
        }
    }
}
