//! Exact similarity joins — the ground truth every estimator is judged
//! against.
//!
//! The paper evaluates estimators by their relative error against the true
//! join size `J` (§6.1). This crate computes `J` exactly two ways:
//!
//! * [`naive`] — the O(n²) pairwise scan, threaded, with a multi-threshold
//!   variant that prices all τ values of an experiment in a single pass.
//! * [`allpairs`] — a prefix-filtering inverted-index join in the style of
//!   Bayardo, Ma & Srikant's All-Pairs (WWW 2007; reference \[3\] of the
//!   paper), exact for cosine thresholds and far faster at high τ. It also
//!   plays the role of the "similarity join processing algorithm" whose
//!   query plans the size estimator is supposed to inform.
//! * [`ground_truth`] — cached multi-threshold join sizes with file
//!   round-tripping for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allpairs;
pub mod ground_truth;
pub mod inverted;
pub mod naive;

pub use allpairs::AllPairs;
pub use ground_truth::GroundTruth;
pub use inverted::InvertedIndex;
pub use naive::ExactJoin;
