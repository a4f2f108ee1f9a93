//! # vsj — Vector Similarity Join Size Estimation using LSH
//!
//! A production-quality Rust reproduction of *"Similarity Join Size
//! Estimation using Locality Sensitive Hashing"* (Hongrae Lee, Raymond T.
//! Ng, Kyuseok Shim; PVLDB 4(6), 2011).
//!
//! Given a collection of real-valued vectors `V` and a similarity threshold
//! `τ`, the **VSJ problem** asks for the number of pairs
//! `J = |{(u,v) : u,v ∈ V, cos(u,v) ≥ τ, u ≠ v}|` — the cardinality a query
//! optimizer needs before executing a similarity join. The join size swings
//! from `≈ n²` at low thresholds to a handful of pairs at `τ = 0.9`
//! (selectivity ~1e-7 on DBLP), which defeats plain random sampling. The
//! paper's **LSH-SS** estimator stratifies the pair population by an LSH
//! index — pairs that share a bucket vs. pairs that do not — and applies a
//! different sampling procedure to each stratum, achieving reliable
//! estimates across the whole threshold range with `Θ(n)` sampled pairs.
//!
//! ## Crate map
//!
//! This facade re-exports the workspace crates:
//!
//! * [`vector`] — sparse vectors, cosine/Jaccard similarity.
//! * [`sampling`] — seeded RNGs, alias tables, pair sampling, estimate
//!   statistics.
//! * [`lsh`] — SimHash/MinHash families, signature computation, LSH tables
//!   with bucket counts, multi-table index.
//! * [`exact`] — exact join sizes (threaded naive + prefix-filter All-Pairs)
//!   for ground truth.
//! * [`datasets`] — synthetic DBLP/NYT/PUBMED-like generators and I/O.
//! * [`lc`] — the Lattice Counting baseline (Lee et al., VLDB 2009) adapted
//!   to vectors.
//! * [`core`] — the estimators: RS(pop), RS(cross), JU, LSH-S, **LSH-SS**,
//!   LSH-SS(D), multi-table and general-join variants, probability tooling;
//!   plus the [`core::IndexView`] read abstraction estimators sample
//!   through (an owned table or a service snapshot on either tier).
//! * [`service`] — the **online layer**: a concurrent
//!   [`service::EstimationEngine`] with a sharded mutable index
//!   (insert/remove/upsert on live data), copy-on-write epoch snapshots
//!   serving any number of reader threads, each snapshot remembering
//!   the answers computed on it. See `examples/service.rs`.
//! * [`server`] — the **network layer**: an HTTP/1.1 JSON front-end
//!   ([`server::Server`]) over the engine that answers each estimate
//!   on the worker that read it, publish-lag backpressure, and a
//!   blocking [`server::Client`]. See `examples/server.rs` and
//!   `docs/PROTOCOL.md`.
//!
//! ## Quickstart
//!
//! ```
//! use vsj::prelude::*;
//!
//! // 1. A small synthetic DBLP-like corpus (binary bag-of-words vectors).
//! let data = DblpLike::with_size(2000).generate(42);
//! let n = data.len();
//!
//! // 2. Build an LSH index (k = 20 SimHash bits, 1 table), as a similarity
//! //    search application would already have.
//! let index = LshIndex::build(&data, LshParams::new(20, 1).with_seed(7));
//!
//! // 3. Estimate the join size at τ = 0.8 with LSH-SS defaults
//! //    (m_H = m_L = n, δ = log₂ n).
//! let estimator = LshSs::with_defaults(n);
//! let mut rng = Xoshiro256::seeded(1);
//! let estimate = estimator.estimate(&data, index.table(0), &Cosine, 0.8, &mut rng);
//! println!("Ĵ(0.8) = {}", estimate.value);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vsj_core as core;
pub use vsj_datasets as datasets;
pub use vsj_exact as exact;
pub use vsj_lc as lc;
pub use vsj_lsh as lsh;
pub use vsj_obs as obs;
pub use vsj_pool as pool;
pub use vsj_sampling as sampling;
pub use vsj_server as server;
pub use vsj_service as service;
pub use vsj_vector as vector;

/// One-stop imports for applications.
pub mod prelude {
    pub use vsj_core::{
        general_join::{exact_general_join, GeneralJoinIndex, GeneralLshSs, GeneralRsPop},
        optimal_k::OptimalKSearch,
        probabilities::StratumProbabilities,
        CollisionModel, Dampening, Estimate, EstimateKind, EstimationContext, Estimator, IndexView,
        LshS, LshSVariant, LshSs, LshSsConfig, MedianEstimator, RsCross, RsPop, UniformLsh,
        VirtualBucketEstimator,
    };
    pub use vsj_datasets::{Dataset, DblpLike, NytLike, PubmedLike};
    pub use vsj_exact::{AllPairs, ExactJoin, GroundTruth};
    pub use vsj_lc::LatticeCounting;
    pub use vsj_lsh::{LshIndex, LshParams, LshTable, MinHashFamily, SimHashFamily};
    pub use vsj_pool::WorkPool;
    pub use vsj_sampling::{Rng, RngStreams, SplitMix64, Xoshiro256};
    pub use vsj_server::{Client, ClientError, Estimated, Server, ServerConfig, ServerStats};
    pub use vsj_service::{
        AuditOptions, AuditRecord, Auditor, Checkpointer, Compactor, DurabilityOptions,
        EngineStats, EstimationEngine, FsyncPolicy, GlobalId, IndexFamily, ObsOptions,
        ParallelOptions, PersistError, QualityReport, ServiceConfig, ServiceEstimate, Snapshot,
        StorageTier,
    };
    pub use vsj_vector::{
        Cosine, Jaccard, Similarity, SparseVector, SparseVectorBuilder, VectorCollection,
    };
}
