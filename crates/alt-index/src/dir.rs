//! The model directory: the "upper model" of the learned layer.
//!
//! The paper keeps GPL models in a flat, sorted array and locates a model
//! with a binary search over first keys (§III-B: "the upper model of the
//! learned index functions as a sorted array"). Retraining replaces one
//! model with one or more successors by publishing a fresh directory
//! RCU-style; readers resolve it through `crossbeam-epoch`.

use crate::model::GplModel;
use learned::LinearModel;
use std::sync::Arc;

/// An immutable snapshot of the model list, sorted by first key.
///
/// Model location is itself learned: a router model predicts the model
/// index from the key with a bounded error computed at build time, so
/// `locate` degenerates from a full binary search to a search inside a
/// small (usually one-or-two-cacheline) window — the paper's "optimized
/// binary search" for the upper model.
pub struct ModelDir {
    /// First key of each model (parallel to `models`).
    pub first_keys: Vec<u64>,
    /// The models.
    pub models: Vec<Arc<GplModel>>,
    /// Router over `first_keys`.
    router: LinearModel,
    /// Max |predicted - actual| model index, measured at build.
    router_err: usize,
}

impl ModelDir {
    /// Build a directory from models already sorted by `first_key`.
    pub fn new(models: Vec<Arc<GplModel>>) -> Self {
        debug_assert!(models.windows(2).all(|w| w[0].first_key < w[1].first_key));
        let first_keys: Vec<u64> = models.iter().map(|m| m.first_key).collect();
        let router =
            LinearModel::fit_endpoints(&first_keys).unwrap_or_else(|| LinearModel::point(1));
        let router_err = first_keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let p = router.predict_clamped(k, first_keys.len().max(1));
                p.abs_diff(i)
            })
            .max()
            .unwrap_or(0);
        Self {
            first_keys,
            models,
            router,
            router_err,
        }
    }

    /// Number of models.
    #[inline]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the directory is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Index of the model responsible for `key`: the rightmost model whose
    /// first key is <= `key`, or model 0 for keys below every model.
    #[inline]
    pub fn locate(&self, key: u64) -> usize {
        let n = self.first_keys.len();
        debug_assert!(n > 0);
        // Router prediction bounds the search to a small window. For a
        // key between first_keys[a] and first_keys[a+1] the answer `a`
        // satisfies pred-err-1 <= a <= pred+err (monotonicity of the
        // router plus its trained error bound), hence the widened lower
        // edge.
        let pred = self.router.predict_clamped(key, n);
        let lo = pred.saturating_sub(self.router_err + 1);
        let hi = (pred + self.router_err + 1).min(n);
        let i = match self.first_keys[lo..hi].binary_search(&key) {
            Ok(i) => lo + i,
            Err(i) => (lo + i).saturating_sub(1),
        };
        // The rightmost-<= answer sits inside the window by the error
        // bound; the window edges still need the <=/> checks because the
        // insertion point can land on a boundary.
        debug_assert!(
            self.first_keys[i] <= key || i == 0,
            "router window missed: key {key}, i {i}"
        );
        i
    }

    /// The model responsible for `key`.
    #[inline]
    pub fn model_for(&self, key: u64) -> &Arc<GplModel> {
        &self.models[self.locate(key)]
    }

    /// First key of the model after index `i`, i.e. the exclusive upper
    /// bound of model `i`'s span (`None` for the last model).
    #[inline]
    pub fn upper_bound(&self, i: usize) -> Option<u64> {
        self.first_keys.get(i + 1).copied()
    }

    /// A new directory with models `[i]` replaced by `replacements`
    /// (already sorted; their span must tile `[old span)`).
    pub fn replace(&self, i: usize, replacements: Vec<Arc<GplModel>>) -> Self {
        // The rebuild is private (the new directory isn't published
        // until the caller's RCU swap): an injected panic here unwinds
        // with the old directory still serving.
        failpoint::point!("dir.replace");
        let mut models = Vec::with_capacity(self.models.len() - 1 + replacements.len());
        models.extend_from_slice(&self.models[..i]);
        models.extend(replacements);
        models.extend_from_slice(&self.models[i + 1..]);
        Self::new(models)
    }

    /// Approximate heap bytes of the directory structure itself (models
    /// accounted separately).
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.first_keys.len() * 8
            + self.models.len() * std::mem::size_of::<Arc<GplModel>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use learned::LinearModel;

    fn mk(first: u64) -> Arc<GplModel> {
        Arc::new(GplModel::new(first, LinearModel::point(first), 4, 0, 0))
    }

    fn dir(firsts: &[u64]) -> ModelDir {
        ModelDir::new(firsts.iter().map(|&f| mk(f)).collect())
    }

    #[test]
    fn locate_picks_rightmost_leq() {
        let d = dir(&[10, 100, 1000]);
        assert_eq!(d.locate(5), 0, "below all: clamp to first");
        assert_eq!(d.locate(10), 0);
        assert_eq!(d.locate(99), 0);
        assert_eq!(d.locate(100), 1);
        assert_eq!(d.locate(999), 1);
        assert_eq!(d.locate(1000), 2);
        assert_eq!(d.locate(u64::MAX), 2);
    }

    #[test]
    fn upper_bounds() {
        let d = dir(&[10, 100, 1000]);
        assert_eq!(d.upper_bound(0), Some(100));
        assert_eq!(d.upper_bound(1), Some(1000));
        assert_eq!(d.upper_bound(2), None);
    }

    #[test]
    fn replace_one_with_many() {
        let d = dir(&[10, 100, 1000]);
        let d2 = d.replace(1, vec![mk(100), mk(500)]);
        assert_eq!(d2.first_keys, vec![10, 100, 500, 1000]);
        assert_eq!(d2.locate(600), 2);
        // Original directory untouched.
        assert_eq!(d.first_keys, vec![10, 100, 1000]);
    }

    #[test]
    fn router_locate_agrees_with_full_binary_search_on_irregular_keys() {
        // Irregular spacing stresses the router error bound.
        let mut firsts = Vec::new();
        let mut k = 1u64;
        for i in 0..500u64 {
            k += 1 + (i % 13) * (i % 7) + if i % 50 == 0 { 100_000 } else { 0 };
            firsts.push(k);
        }
        let d = dir(&firsts);
        let full = |key: u64| match firsts.binary_search(&key) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        // Probe every boundary and points between.
        for (i, &f) in firsts.iter().enumerate() {
            assert_eq!(d.locate(f), i, "exact first key {f}");
            assert_eq!(d.locate(f + 1), full(f + 1), "just above {f}");
            if f > 1 {
                assert_eq!(d.locate(f - 1), full(f - 1), "just below {f}");
            }
        }
        assert_eq!(d.locate(0), 0);
        assert_eq!(d.locate(u64::MAX), firsts.len() - 1);
    }

    #[test]
    fn replace_tail_model() {
        let d = dir(&[10, 100]);
        let d2 = d.replace(1, vec![mk(100), mk(5000)]);
        assert_eq!(d2.first_keys, vec![10, 100, 5000]);
        assert_eq!(d2.upper_bound(2), None);
    }
}
