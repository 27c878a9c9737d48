//! Learned-index building blocks for the ALT-index reproduction.
//!
//! This crate contains the *model* side of the system, free of any
//! concurrency concerns:
//!
//! * [`linear`] — the linear CDF model `pos = slope * (key - first_key) + b`
//!   that every segmentation algorithm below produces.
//! * [`gpl`] — the paper's **Greedy Pessimistic Linear** segmentation
//!   (Algorithm 1): single-pass, O(n), maintains an upper/lower slope cone
//!   anchored at the first point of each segment.
//! * [`shrinking_cone`] — the **ShrinkingCone** algorithm of FITing-tree,
//!   implemented for the Fig 4 algorithm comparison.
//! * [`lpa`] — the **Learning Probe Algorithm** of FINEdex, also for the
//!   Fig 4 comparison and for the FINEdex baseline.
//! * [`rmi`] — a two-stage Recursive Model Index used by the XIndex
//!   baseline and the Fig 3 model-count experiment.
//! * [`search`] — error-bounded binary and exponential search used wherever
//!   a model prediction must be corrected (the baselines; never the
//!   ALT-index learned layer, which is exact by construction).
//! * [`optimal`] — a reference ε-optimal segmenter (minimum segment
//!   count) used to measure how close the O(n) algorithms come to the
//!   optimum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gpl;
pub mod group;
pub mod linear;
pub mod lpa;
pub mod optimal;
pub mod rmi;
pub mod search;
pub mod shrinking_cone;

pub use gpl::{gpl_segment, gpl_segment_parallel, GplSegmenter, Segment};
pub use group::predict_f_group;
pub use linear::LinearModel;
pub use lpa::lpa_segment;
pub use optimal::{optimal_segment, optimal_segment_count};
pub use rmi::Rmi;
pub use shrinking_cone::shrinking_cone_segment;
