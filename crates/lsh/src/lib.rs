//! Locality-sensitive hashing for the `vsj` workspace.
//!
//! Implements the LSH machinery of §4.1 of the paper plus the bucket-count
//! extension of §4.1.1:
//!
//! * [`family`] — the [`LshFamily`]/[`LshFunction`] abstraction: a family
//!   is a distribution over hash functions whose collision probability is
//!   a known monotone function of the similarity (Definition 3, idealized;
//!   real families expose their true curve via
//!   [`LshFamily::collision_probability`]).
//! * [`simhash`] — Charikar's random-hyperplane family for cosine
//!   similarity (`P(h(u)=h(v)) = 1 − θ/π`). Hyperplanes are derived lazily
//!   from a counter-based Gaussian, so the family is O(1) memory at any
//!   dimensionality; one row is swept once for all `k` functions
//!   ([`LshFamily::hash_row`]) and a batch of rows realizes each distinct
//!   dimension's coordinates once ([`LshFamily::hash_batch`]).
//! * [`minhash`] — Broder's MinHash family for Jaccard similarity, for
//!   which Definition 3 holds *exactly* (`P(h(A)=h(B)) = sim_J(A,B)`);
//!   used by the Lattice Counting baseline and by tests validating the
//!   idealized theory.
//! * [`signature`] — composite functions `g = (h₁, …, h_k)`, signature
//!   matrices (for LC) and folded 64-bit bucket keys (for tables).
//! * [`table`] — a single, frozen hash table `D_g` whose buckets — member
//!   lists *and counts* `b_j` — are one key-ordered slab, with the pair
//!   count `N_H = Σ C(b_j,2)` and the alias table over its pair buckets.
//! * [`view`] — [`IndexView`], the read surface estimators sample
//!   through: a backend supplies storage primitives and inherits the two
//!   stratum draws LSH-SS needs (alias-weighted same-bucket pairs,
//!   rejection-sampled cross-bucket pairs), written once.
//! * [`index`] — the ℓ-table index `I_G = {D_g1, …, D_gℓ}` with the
//!   virtual-bucket view of Appendix B.2.1.
//! * [`stats`] — bucket statistics and the memory accounting behind the
//!   paper's §6.3 table-size table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod index;
pub mod minhash;
pub mod signature;
pub mod simhash;
pub mod stats;
pub mod table;
pub mod view;

pub use family::{BucketHasher, LshFamily, LshFunction};
pub use index::{LshIndex, LshParams};
pub use minhash::MinHashFamily;
pub use signature::{bucket_key, Composite, SignatureMatrix};
pub use simhash::SimHashFamily;
pub use stats::{IndexStats, TableStats};
pub use table::{BucketSlab, LshTable};
pub use view::IndexView;
