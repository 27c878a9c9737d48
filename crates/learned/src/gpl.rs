//! The Greedy Pessimistic Linear (GPL) segmentation algorithm
//! (Algorithm 1 of the paper).
//!
//! GPL scans a sorted key array once and cuts it into segments. Each
//! segment's model is a line through the segment's *first point*; while
//! scanning, the algorithm maintains the maximum (`upper_slope`) and
//! minimum (`lower_slope`) slopes of lines from the first point to every
//! point seen so far — a *cone* that only widens. With the final model
//! slope chosen as the middle of the cone, the prediction error of point
//! `j` at key-distance `dx_j` from the anchor is at most
//! `(upper - lower) / 2 * dx_j`, which is the half-diagonal of the paper's
//! parallelogram (Fig 4(c)). The segment is cut as soon as that bound would
//! exceed ε.
//!
//! The scheme is "pessimistic" because once any prediction error appears,
//! it can only grow with key distance, so the algorithm assumes a split is
//! imminent and checks every point — yielding exact O(n) behaviour with a
//! guaranteed per-point error bound.

use crate::linear::LinearModel;

/// A contiguous run of keys covered by one linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Index of the segment's first key in the input array.
    pub start: usize,
    /// Number of keys in the segment.
    pub len: usize,
    /// The trained model (anchored at the first key, middle-of-cone slope).
    pub model: LinearModel,
}

impl Segment {
    /// Maximum absolute prediction error of the segment's model over its
    /// own keys (positions relative to the segment start). Test/validation
    /// helper.
    pub fn max_error(&self, keys: &[u64]) -> f64 {
        let slice = &keys[self.start..self.start + self.len];
        self.model.max_error(slice)
    }
}

/// Streaming GPL segmenter: feed sorted keys one at a time with
/// [`GplSegmenter::push`]; completed segments are returned as soon as a cut
/// is decided, and [`GplSegmenter::finish`] flushes the trailing segment.
///
/// ```
/// use learned::gpl::GplSegmenter;
/// let keys: Vec<u64> = (1..=1000u64).map(|i| i * 3).collect();
/// let mut seg = GplSegmenter::new(8.0);
/// let mut out = Vec::new();
/// for (i, &k) in keys.iter().enumerate() {
///     if let Some(s) = seg.push(i, k) {
///         out.push(s);
///     }
/// }
/// out.extend(seg.finish());
/// // Perfectly linear data fits in a single segment.
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug)]
pub struct GplSegmenter {
    epsilon: f64,
    /// Index (in the caller's array) where the current segment starts.
    seg_start: usize,
    first_key: u64,
    count: usize,
    upper_slope: f64,
    lower_slope: f64,
}

impl GplSegmenter {
    /// Create a segmenter with prediction error bound `epsilon` (must be
    /// non-negative; the paper suggests `n / 1000`).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "error bound must be non-negative");
        Self {
            epsilon,
            seg_start: 0,
            first_key: 0,
            count: 0,
            upper_slope: 0.0,
            lower_slope: f64::INFINITY,
        }
    }

    /// Feed the key at absolute position `index` (must be fed in order,
    /// strictly increasing keys). Returns a completed segment when the new
    /// key does not fit the current cone.
    pub fn push(&mut self, index: usize, key: u64) -> Option<Segment> {
        if self.count == 0 {
            self.start_segment(index, key);
            return None;
        }
        debug_assert!(key > self.first_key, "keys must be strictly increasing");
        let dx = (key - self.first_key) as f64;
        let new_slope = self.count as f64 / dx;
        let upper = self.upper_slope.max(new_slope);
        let lower = self.lower_slope.min(new_slope);
        // Worst-case error of any point in the segment under the
        // middle-of-cone slope: half the cone spread times the largest
        // key distance (which is the current point's distance).
        let err = (upper - lower) * 0.5 * dx;
        if err > self.epsilon {
            let seg = self.seal();
            self.start_segment(index, key);
            return Some(seg);
        }
        self.upper_slope = upper;
        self.lower_slope = lower;
        self.count += 1;
        None
    }

    /// Flush the trailing segment, if any.
    pub fn finish(&mut self) -> Option<Segment> {
        if self.count == 0 {
            return None;
        }
        let seg = self.seal();
        self.count = 0;
        Some(seg)
    }

    fn start_segment(&mut self, index: usize, key: u64) {
        self.seg_start = index;
        self.first_key = key;
        self.count = 1;
        self.upper_slope = 0.0;
        self.lower_slope = f64::INFINITY;
    }

    fn seal(&self) -> Segment {
        let slope = if self.count == 1 {
            // Single-point segment (only possible as a trailing remnant or
            // right after a cut): degenerate zero slope.
            0.0
        } else {
            (self.upper_slope + self.lower_slope) * 0.5
        };
        Segment {
            start: self.seg_start,
            len: self.count,
            model: LinearModel::new(self.first_key, slope),
        }
    }
}

/// Segment a full sorted key array with error bound `epsilon`.
///
/// Guarantees: segments tile `[0, keys.len())` contiguously, and for every
/// segment, `segment.max_error(keys) <= epsilon` (property-tested).
pub fn gpl_segment(keys: &[u64], epsilon: f64) -> Vec<Segment> {
    let mut segmenter = GplSegmenter::new(epsilon);
    let mut out = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        if let Some(s) = segmenter.push(i, k) {
            out.push(s);
        }
    }
    out.extend(segmenter.finish());
    out
}

/// Minimum keys per chunk before the parallel splitter engages. Below
/// this, thread spawn/join overhead dominates and the serial scan wins,
/// so [`gpl_segment_parallel`] silently degrades to [`gpl_segment`].
pub const MIN_PARALLEL_CHUNK: usize = 256;

/// Segment a full sorted key array with error bound `epsilon`, using up
/// to `threads` worker threads. **Produces exactly the same segment list
/// as [`gpl_segment`] for every thread count** — this is the contract the
/// build-equivalence suite (and ALT-index's parallel bulk load) relies on.
///
/// How: the input is split into `threads` contiguous chunks and each
/// chunk is segmented independently (absolute indices, so chunk results
/// are directly comparable with the serial run). GPL is self-synchronizing:
/// the segmenter's state after a cut at position `i` depends only on `i`
/// (the cone restarts from the key at `i`), so as soon as the serial scan
/// cuts at a position where a chunk's independent run also cut, the two
/// runs produce identical segments for the rest of that chunk. A
/// sequential *seam-stitch* pass exploits this: it splices precomputed
/// chunk segments wherever the runs are synchronized and re-runs the
/// segmenter key-by-key only across the (rare) unsynchronized seam
/// stretches. The stitch is O(segments + seam keys); the chunk scans are
/// the parallel O(n) bulk of the work.
///
/// Worst case: data so linear that chunks produce a single segment each
/// never re-synchronizes, and the stitch degenerates to a serial re-scan.
/// That is inherent (the serial output genuinely has segments spanning
/// every seam) and still correct.
pub fn gpl_segment_parallel(keys: &[u64], epsilon: f64, threads: usize) -> Vec<Segment> {
    let n = keys.len();
    let t = threads.min(n / MIN_PARALLEL_CHUNK).max(1);
    if t == 1 {
        return gpl_segment(keys, epsilon);
    }
    let bounds: Vec<usize> = (0..=t).map(|i| i * n / t).collect();
    let chunk_segs: Vec<Vec<Segment>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..t)
            .map(|c| {
                let bounds = &bounds;
                s.spawn(move || {
                    testkit::chaos_point!("gpl.par.chunk");
                    let mut seg = GplSegmenter::new(epsilon);
                    let mut out = Vec::new();
                    let lo = bounds[c];
                    for (off, &k) in keys[lo..bounds[c + 1]].iter().enumerate() {
                        if let Some(done) = seg.push(lo + off, k) {
                            out.push(done);
                        }
                    }
                    out.extend(seg.finish());
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    stitch_chunks(keys, epsilon, &bounds, &chunk_segs)
}

/// Merge per-chunk segment lists into the serial segmentation.
///
/// Loop invariant at the top of each iteration: `out` equals the serial
/// segmentation of `keys[..i]`, and the serial segmenter is *fresh* at
/// `i` (its last cut was exactly at `i`). Induction step:
///
/// * If chunk `c` (the chunk containing `i`) also has a segment starting
///   at `i`, both runs saw identical keys from an identical fresh state,
///   so the chunk's remaining segments are exactly what serial produces —
///   splice them. Only the chunk's *last* segment is withheld (its
///   `finish()` was forced by the chunk boundary, not by a cone
///   violation, so serial might extend it across the seam); its start is
///   a genuine serial cut, so the invariant is re-established there. The
///   final chunk has no seam after it, so everything splices.
/// * Otherwise, replay serial segmentation key-by-key from `i` until its
///   next cut `k` (each emitted segment is serial-exact by construction),
///   which restores the invariant at `k` and lets splicing retry —
///   typically inside the next chunk.
///
/// Termination: every iteration either returns or strictly advances `i`
/// (a replayed cut lands at `k > i`, and a splice that doesn't advance is
/// immediately followed by a replay that does).
fn stitch_chunks(
    keys: &[u64],
    epsilon: f64,
    bounds: &[usize],
    chunk_segs: &[Vec<Segment>],
) -> Vec<Segment> {
    let n = keys.len();
    let last_chunk = chunk_segs.len() - 1;
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut c = 0usize;
    while i < n {
        while bounds[c + 1] <= i {
            c += 1;
        }
        if let Ok(j) = chunk_segs[c].binary_search_by_key(&i, |s| s.start) {
            testkit::chaos_point!("gpl.stitch.splice");
            if c == last_chunk {
                out.extend_from_slice(&chunk_segs[c][j..]);
                return out;
            }
            let withheld = chunk_segs[c].len() - 1;
            out.extend_from_slice(&chunk_segs[c][j..withheld]);
            i = chunk_segs[c][withheld].start;
        }
        testkit::chaos_point!("gpl.stitch.seam");
        let mut seg = GplSegmenter::new(epsilon);
        let mut k = i;
        loop {
            if k >= n {
                out.extend(seg.finish());
                return out;
            }
            if let Some(done) = seg.push(k, keys[k]) {
                out.push(done);
                i = k;
                break;
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tiling(segs: &[Segment], n: usize) {
        let mut next = 0;
        for s in segs {
            assert_eq!(s.start, next, "segments must tile contiguously");
            assert!(s.len > 0);
            next = s.start + s.len;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn empty_input_yields_no_segments() {
        assert!(gpl_segment(&[], 4.0).is_empty());
    }

    #[test]
    fn single_key_yields_single_point_segment() {
        let segs = gpl_segment(&[77], 4.0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 1);
        assert_eq!(segs[0].model.first_key, 77);
    }

    #[test]
    fn linear_data_yields_one_segment() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| 5 + i * 17).collect();
        let segs = gpl_segment(&keys, 2.0);
        assert_eq!(segs.len(), 1);
        check_tiling(&segs, keys.len());
        assert!(segs[0].max_error(&keys) <= 2.0);
    }

    #[test]
    fn error_bound_is_respected_on_quadratic_data() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * i + 1).collect();
        for eps in [1.0, 4.0, 16.0, 64.0] {
            let segs = gpl_segment(&keys, eps);
            check_tiling(&segs, keys.len());
            for s in &segs {
                assert!(
                    s.max_error(&keys) <= eps + 1e-9,
                    "eps={eps} err={}",
                    s.max_error(&keys)
                );
            }
        }
    }

    #[test]
    fn larger_epsilon_yields_fewer_segments() {
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * i / 7 + i + 1).collect();
        let tight = gpl_segment(&keys, 2.0).len();
        let loose = gpl_segment(&keys, 128.0).len();
        assert!(
            loose < tight,
            "expected fewer segments with looser bound: {loose} !< {tight}"
        );
    }

    #[test]
    fn step_data_forces_splits() {
        // Two dense runs separated by a huge gap: a single line would have
        // a large error at the gap.
        let mut keys: Vec<u64> = (1..1000u64).collect();
        keys.extend((0..999u64).map(|i| 1_000_000_000 + i * 1_000_000));
        let segs = gpl_segment(&keys, 1.0);
        check_tiling(&segs, keys.len());
        assert!(segs.len() >= 2);
        for s in &segs {
            assert!(s.max_error(&keys) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn zero_epsilon_still_accepts_collinear_points() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 10).collect();
        let segs = gpl_segment(&keys, 0.0);
        assert_eq!(segs.len(), 1, "collinear points have zero error");
    }

    /// The data shapes the parallel tests sweep: linear (worst case for
    /// stitching — every seam re-runs), quadratic (frequent cuts, splices
    /// engage), steppy (cuts forced at irregular positions), and a noisy
    /// mix (cut positions not aligned with chunk bounds).
    fn shapes() -> Vec<(&'static str, Vec<u64>)> {
        vec![
            ("linear", (0..6000u64).map(|i| 5 + i * 17).collect()),
            ("quadratic", (0..6000u64).map(|i| i * i + 1).collect()),
            (
                "steppy",
                (0..6000u64)
                    .map(|i| i * 3 + (i / 500) * 1_000_000 + 1)
                    .collect(),
            ),
            (
                "noisy",
                (0..6000u64)
                    .map(|i| i * 97 + (i.wrapping_mul(2654435761) % 89) + 1)
                    .collect(),
            ),
        ]
    }

    #[test]
    fn parallel_matches_serial_across_thread_counts() {
        for (label, keys) in shapes() {
            for eps in [1.0, 8.0, 64.0] {
                let serial = gpl_segment(&keys, eps);
                for t in [1, 2, 3, 5, 8, 16] {
                    let par = gpl_segment_parallel(&keys, eps, t);
                    assert_eq!(par, serial, "shape={label} eps={eps} threads={t}");
                }
            }
        }
    }

    #[test]
    fn parallel_handles_tiny_and_empty_inputs() {
        assert!(gpl_segment_parallel(&[], 4.0, 8).is_empty());
        for n in [1usize, 2, 7, 255, 256, 257, 511, 513] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
            assert_eq!(
                gpl_segment_parallel(&keys, 2.0, 8),
                gpl_segment(&keys, 2.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn parallel_threads_beyond_input_degrade_to_serial() {
        let keys: Vec<u64> = (0..300u64).map(|i| i * 7 + 1).collect();
        // 300 keys / 256 floor = t clamps to 1: identical object-for-object.
        assert_eq!(
            gpl_segment_parallel(&keys, 4.0, 64),
            gpl_segment(&keys, 4.0)
        );
    }

    #[test]
    fn streaming_matches_batch() {
        let keys: Vec<u64> = (0..3000u64).map(|i| i * 13 + (i % 7) + 1).collect();
        let batch = gpl_segment(&keys, 8.0);
        let mut seg = GplSegmenter::new(8.0);
        let mut streaming = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if let Some(s) = seg.push(i, k) {
                streaming.push(s);
            }
        }
        streaming.extend(seg.finish());
        assert_eq!(batch, streaming);
    }
}
