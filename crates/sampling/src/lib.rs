//! Deterministic sampling substrate for the `vsj` workspace.
//!
//! Every estimator in the paper is a sampling procedure; this crate owns
//! the shared machinery:
//!
//! * [`rng`] — seedable, fully deterministic PRNGs ([`SplitMix64`],
//!   [`Xoshiro256`]) and the counter-based hashing used to derive SimHash
//!   hyperplanes and MinHash permutations without materializing them.
//! * [`gauss`] — standard-normal sampling: streaming (Box–Muller) and
//!   counter-based (the inverse normal CDF of one uniform word).
//! * [`alias`] — Walker/Vose alias tables for O(1) weighted sampling; used
//!   by `SampleH` of Algorithm 1 to draw buckets with weight `C(b_j, 2)`.
//! * [`pairs`] — uniform sampling of unordered vector pairs and the
//!   pair ⟷ linear-index bijection.
//! * [`stats`] — streaming summaries (Welford), relative-error metrics
//!   matching the paper's evaluation protocol (§6.1).
//! * [`bounds`] — the Chernoff/Chebyshev constants from the paper's
//!   Theorems 1–3 (sample-size calculators used by defaults and tests).
//!
//! The library deliberately does **not** use the `rand` crate at runtime:
//! experiments must be reproducible bit-for-bit across platforms and crate
//! upgrades, so the generators are implemented here against their published
//! reference algorithms (and cross-checked in tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod bounds;
pub mod gauss;
pub mod pairs;
pub mod rng;
pub mod stats;

pub use alias::AliasTable;
pub use pairs::{decode_pair, encode_pair, pair_count, sample_distinct_pair};
pub use rng::{Rng, RngStreams, SplitMix64, Xoshiro256};
pub use stats::{signed_relative_error, ErrorProfile, Summary};
