//! Range queries: the paper's two-step scan (§III-G) — a slot walk over
//! the learned layer merged with an ART range query.
//!
//! Keys in a GPL model sit at their predicted slots, and the placement
//! function is monotone, so walking slots in order yields keys in order;
//! models themselves are sorted, so the learned-layer side of the merge
//! is a simple forward walk.

use crate::index::AltCore;
use crate::slots::SlotState;
use crossbeam_epoch as epoch;
use std::sync::atomic::Ordering;

impl AltCore {
    /// Append every `(key, value)` with `lo <= key <= hi`, ascending.
    /// Returns the number appended.
    ///
    /// Ordering against concurrent structure changes: ART is read
    /// *before* the slot walk (write-back claims the slot before deleting
    /// the ART copy, so a key missing from the later ART read is already
    /// visible in the slots), and the whole collection retries if the
    /// directory epoch moved (a retrain absorbed ART keys into slots we
    /// may have walked too early — §III-F redirection for scans).
    pub fn range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        let before = out.len();
        if lo > hi {
            return 0;
        }
        let lo = lo.max(1); // key 0 is reserved
        let guard = epoch::pin();

        let mut learned: Vec<(u64, u64)> = Vec::new();
        let mut art_side: Vec<(u64, u64)> = Vec::new();
        // Retrain churn can move the directory epoch every pass; once the
        // retry budget runs out, one pass under `dir_lock` (the only
        // place the epoch is bumped) is guaranteed to validate.
        let mut retry = resilience::Retry::seeded(lo);
        let mut dl = None;
        loop {
            learned.clear();
            art_side.clear();
            let epoch_pre = self.dir_epoch.load(Ordering::Acquire);

            // Step 1: ART range.
            self.art.range(lo, hi, &mut art_side);

            // Step 2: learned layer walk (after the ART read — see
            // above). Placement is monotone, so the window
            // [predict(lo), predict(hi)] bounds the qualifying slots
            // within each model — no need to touch the rest.
            let dir = self.dir_ref(&guard);
            let start = dir.locate(lo);
            for mi in start..dir.len() {
                let m = &dir.models[mi];
                if m.first_key > hi {
                    // Every key in this and later models exceeds hi.
                    break;
                }
                let s0 = if mi == start { m.predict(lo) } else { 0 };
                let s1 = m.predict(hi); // clamped to capacity-1 internally
                for slot in s0..=s1 {
                    if let (SlotState::Occupied { key, value }, _) = m.slots.read(slot) {
                        if key >= lo && key <= hi {
                            learned.push((key, value));
                        }
                    }
                }
            }
            if self.dir_epoch.load(Ordering::Acquire) == epoch_pre {
                break;
            }
            obs::incr!(Counter::ScanEpochRetry);
            if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                dl = Some(self.dir_lock.lock());
            }
        }
        drop(dl);

        // Merge (both ascending); on the transient double-presence the
        // learned copy wins.
        let (mut i, mut j) = (0usize, 0usize);
        while i < learned.len() && j < art_side.len() {
            match learned[i].0.cmp(&art_side[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(learned[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(art_side[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(learned[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&learned[i..]);
        out.extend_from_slice(&art_side[j..]);
        out.len() - before
    }

    /// Scan at most `n` entries starting at `lo` (the paper's scan
    /// workload: 100-key scans), ascending. Returns the count.
    pub fn scan_n(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        let before = out.len();
        if n == 0 {
            return 0;
        }
        let lo = lo.max(1);
        let guard = epoch::pin();

        // Same ordering discipline as `range`: ART first, slots second,
        // retry when the directory epoch moves mid-collection, escalate
        // to one pass under `dir_lock` when the budget runs out.
        let mut learned: Vec<(u64, u64)> = Vec::with_capacity(n);
        let mut art_side: Vec<(u64, u64)> = Vec::with_capacity(n);
        let mut retry = resilience::Retry::seeded(lo);
        let mut dl = None;
        loop {
            learned.clear();
            art_side.clear();
            let epoch_pre = self.dir_epoch.load(Ordering::Acquire);

            // Collect up to n from ART.
            self.art.scan_n(lo, n, &mut art_side);

            // Collect up to n from the learned layer, starting at lo's
            // predicted slot (placement is monotone).
            let dir = self.dir_ref(&guard);
            let start = dir.locate(lo);
            'outer: for mi in start..dir.len() {
                let m = &dir.models[mi];
                let s0 = if mi == start { m.predict(lo) } else { 0 };
                for slot in s0..m.slots.capacity() {
                    if let (SlotState::Occupied { key, value }, _) = m.slots.read(slot) {
                        if key >= lo {
                            learned.push((key, value));
                            if learned.len() >= n {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            if self.dir_epoch.load(Ordering::Acquire) == epoch_pre {
                break;
            }
            obs::incr!(Counter::ScanEpochRetry);
            if retry.wait_or_escalate(&self.cfg.contention, crate::count_contention) {
                dl = Some(self.dir_lock.lock());
            }
        }
        drop(dl);

        // Merge-truncate.
        let (mut i, mut j) = (0usize, 0usize);
        while out.len() - before < n && (i < learned.len() || j < art_side.len()) {
            let take_learned = match (learned.get(i), art_side.get(j)) {
                (Some(a), Some(b)) => {
                    if a.0 == b.0 {
                        j += 1;
                        true
                    } else {
                        a.0 < b.0
                    }
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_learned {
                out.push(learned[i]);
                i += 1;
            } else {
                out.push(art_side[j]);
                j += 1;
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AltConfig;
    use crate::index::AltIndex;
    use std::collections::BTreeMap;

    fn build(keys: impl IntoIterator<Item = u64>) -> (AltIndex, BTreeMap<u64, u64>) {
        let mut m = BTreeMap::new();
        for k in keys {
            m.insert(k, k.wrapping_mul(3));
        }
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        (idx, m)
    }

    #[test]
    fn range_matches_btreemap_on_mixed_data() {
        let (idx, m) = build((1..5000u64).map(|i| i * 13 % 100_000 + 1));
        for (lo, hi) in [(0u64, u64::MAX), (500, 50_000), (99_000, 101_000), (7, 7)] {
            let mut got = Vec::new();
            idx.range(lo, hi, &mut got);
            let lo1 = lo.max(1);
            let want: Vec<(u64, u64)> = m.range(lo1..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn range_sees_runtime_inserts_in_both_layers() {
        let (idx, mut m) = build((1..1000u64).map(|i| i * 10));
        for i in 1..500u64 {
            let k = i * 10 + 3; // mixture of gap hits and ART spills
            idx.insert(k, k).unwrap();
            m.insert(k, k);
        }
        let mut got = Vec::new();
        idx.range(100, 3000, &mut got);
        let want: Vec<(u64, u64)> = m.range(100..=3000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_skips_removed_keys() {
        let (idx, mut m) = build((1..200u64).map(|i| i * 5));
        for k in [50u64, 100, 150, 500] {
            idx.remove(k);
            m.remove(&k);
        }
        let mut got = Vec::new();
        idx.range(1, 1000, &mut got);
        let want: Vec<(u64, u64)> = m.range(1..=1000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_n_returns_exactly_n_sorted() {
        let (idx, m) = build((1..10_000u64).map(|i| i * 7 % 200_000 + 1));
        for lo in [1u64, 5_000, 150_000] {
            let mut got = Vec::new();
            let n = idx.scan_n(lo, 100, &mut got);
            let want: Vec<(u64, u64)> = m.range(lo..).take(100).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "scan from {lo}");
            assert_eq!(n, want.len());
        }
    }

    #[test]
    fn scan_past_the_end() {
        let (idx, _) = build([10u64, 20, 30]);
        let mut got = Vec::new();
        assert_eq!(idx.scan_n(25, 100, &mut got), 1);
        assert_eq!(got, vec![(30, 90)]);
        got.clear();
        assert_eq!(idx.scan_n(31, 100, &mut got), 0);
    }
}
