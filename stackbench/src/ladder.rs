//! The layer ladder: the workload's recorded keys replayed against one
//! rung of the stack at a time, each rung timed from outside through its
//! public functions. A layer's self time is its rung minus the rung below.

use crate::check::Checker;
use crate::inputs::{BATCH, CLIENTS, SCAN_LEN};
use alt_index::{AltConfig, AltIndex};
use index_api::{BulkLoad, ConcurrentIndex};
use std::sync::Barrier;
use std::time::Instant;

/// Bulk-load worker threads.
pub const BUILD_THREADS: usize = 2;

/// Run `work(client)` on [`CLIENTS`] threads at once; each returns how
/// many units it did. The result is the mean over clients of ns per unit.
pub fn timed<F>(work: F) -> Result<f64, String>
where
    F: Fn(usize) -> Result<u64, String> + Sync,
{
    let start = Barrier::new(CLIENTS);
    let per_client: Vec<Result<f64, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (work, start) = (&work, &start);
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let units = work(c)?;
                    Ok(t0.elapsed().as_nanos() as f64 / units.max(1) as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let ns = per_client
        .into_iter()
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(ns.iter().sum::<f64>() / ns.len() as f64)
}

/// Mean ns of one `get` per key, every answer checked.
pub fn get_ns<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    keys: &[Vec<u64>],
    chk: &Checker,
) -> Result<f64, String> {
    timed(|c| {
        for &k in &keys[c] {
            chk.get(k, idx.get(k))?;
        }
        Ok(keys[c].len() as u64)
    })
}

/// Mean ns per key of `get_batch` over consecutive [`BATCH`]-key chunks.
pub fn batch_ns<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    keys: &[Vec<u64>],
    chk: &Checker,
) -> Result<f64, String> {
    timed(|c| {
        let mut out = [None; BATCH];
        let chunks = keys[c].chunks_exact(BATCH);
        let n = chunks.len() * BATCH;
        for batch in chunks {
            idx.get_batch(batch, &mut out);
            chk.batch(batch, &out)?;
        }
        Ok(n as u64)
    })
}

/// Mean ns of one `scan(SCAN_LEN)` per start key.
pub fn scan_ns(
    scan: impl Fn(u64, &mut Vec<(u64, u64)>) + Sync,
    starts: &[Vec<u64>],
    chk: &Checker,
) -> Result<f64, String> {
    timed(|c| {
        let mut out = Vec::with_capacity(SCAN_LEN);
        for &k in &starts[c] {
            out.clear();
            scan(k, &mut out);
            chk.scan(k, &out)?;
        }
        Ok(starts[c].len() as u64)
    })
}

/// The region router's shards without the router: one `AltIndex` per
/// key-quantile range, built exactly as `RegionIndex::bulk_load_with`
/// builds them. Keys are routed by the benchmark before timing starts, so
/// this rung prices `AltIndex` alone.
pub struct ShardSet {
    /// First key of each shard (the first is 0).
    pub lows: Vec<u64>,
    /// The shard indexes.
    pub alts: Vec<AltIndex>,
}

impl ShardSet {
    /// Build over sorted `pairs` with the router's quantile rule; returns
    /// the set and its build seconds.
    pub fn build(pairs: &[(u64, u64)]) -> (Self, f64) {
        let lows = shard_lows(pairs);
        let t0 = Instant::now();
        let alts = shard_slices(pairs, &lows)
            .into_iter()
            .map(|slice| AltIndex::bulk_load_threaded(slice, BUILD_THREADS))
            .collect();
        (ShardSet { lows, alts }, t0.elapsed().as_secs_f64())
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        self.lows.partition_point(|&lo| lo <= key) - 1
    }

    /// `(lo, hi)` of every shard, comparable with `RegionIndex::shard_bounds`.
    pub fn bounds(&self) -> Vec<(u64, u64)> {
        bounds_of(&self.lows)
    }

    /// Mean ns of one `get`, keys routed beforehand.
    pub fn get_ns(&self, keys: &[Vec<u64>], chk: &Checker) -> Result<f64, String> {
        let routed: Vec<Vec<(usize, u64)>> = keys
            .iter()
            .map(|ks| ks.iter().map(|&k| (self.shard_of(k), k)).collect())
            .collect();
        timed(|c| {
            for &(s, k) in &routed[c] {
                chk.get(k, self.alts[s].get(k))?;
            }
            Ok(routed[c].len() as u64)
        })
    }

    /// Mean ns per key of `get_batch`: each [`BATCH`]-key chunk is split
    /// by shard beforehand and every part is one `get_batch` call.
    pub fn batch_ns(&self, keys: &[Vec<u64>], chk: &Checker) -> Result<f64, String> {
        let split: Vec<ShardParts> = keys.iter().map(|ks| self.split(ks)).collect();
        timed(|c| {
            let ShardParts { keys, parts } = &split[c];
            let mut out = [None; BATCH];
            for &(s, a, b) in parts {
                self.alts[s].get_batch(&keys[a..b], &mut out);
                chk.batch(&keys[a..b], &out[..b - a])?;
            }
            Ok(keys.len() as u64)
        })
    }

    /// `keys` cut into [`BATCH`]-key chunks, each regrouped shard by shard.
    fn split(&self, keys: &[u64]) -> ShardParts {
        let mut split = ShardParts {
            keys: Vec::with_capacity(keys.len()),
            parts: Vec::new(),
        };
        for batch in keys.chunks_exact(BATCH) {
            for s in 0..self.alts.len() {
                let start = split.keys.len();
                split
                    .keys
                    .extend(batch.iter().filter(|&&k| self.shard_of(k) == s));
                if split.keys.len() > start {
                    split.parts.push((s, start, split.keys.len()));
                }
            }
        }
        split
    }

    /// `scan(SCAN_LEN)` from `start`, continuing into the next shards the
    /// way the router does when a shard runs out.
    pub fn scan(&self, start: u64, out: &mut Vec<(u64, u64)>) {
        let mut s = self.shard_of(start);
        self.alts[s].scan(start, SCAN_LEN, out);
        while out.len() < SCAN_LEN && s + 1 < self.alts.len() {
            s += 1;
            let mut rest = Vec::with_capacity(SCAN_LEN);
            self.alts[s].scan(self.lows[s], SCAN_LEN - out.len(), &mut rest);
            out.extend(rest);
        }
    }
}

/// Batches regrouped by shard: `parts` are `(shard, start, end)` ranges
/// of `keys`, one `get_batch` call each.
struct ShardParts {
    keys: Vec<u64>,
    parts: Vec<(usize, usize, usize)>,
}

/// The router's shard start keys for `pairs`: key quantiles, deduplicated,
/// the first shard starting at 0.
pub fn shard_lows(pairs: &[(u64, u64)]) -> Vec<u64> {
    let n = crate::region_config().initial_shards.max(1);
    let mut lows = vec![0u64];
    for i in 1..n {
        let b = pairs[i * pairs.len() / n].0;
        if b > *lows.last().expect("lows start with 0") {
            lows.push(b);
        }
    }
    lows
}

/// `pairs` cut at the shard start keys.
pub fn shard_slices<'a>(pairs: &'a [(u64, u64)], lows: &[u64]) -> Vec<&'a [(u64, u64)]> {
    bounds_of(lows)
        .into_iter()
        .map(|(lo, hi)| {
            let a = pairs.partition_point(|p| p.0 < lo);
            let b = pairs.partition_point(|p| p.0 <= hi);
            &pairs[a..b]
        })
        .collect()
}

fn bounds_of(lows: &[u64]) -> Vec<(u64, u64)> {
    lows.iter()
        .enumerate()
        .map(|(i, &lo)| (lo, lows.get(i + 1).map_or(u64::MAX, |n| n - 1)))
        .collect()
}

/// GPL error bound a shard of `n` keys is built with.
pub fn shard_epsilon(n: usize) -> f64 {
    AltConfig::default().effective_epsilon(n)
}
