//! Incremental index maintenance: a live deployment ingests documents
//! continuously and re-estimates the join size as the table grows —
//! no rebuild. A table is frozen once built, so each batch *extends*
//! the previous table with `LshTable::from_parts_delta`: only the
//! batch's keys are hashed and only the buckets they touch are copied,
//! with bucket counts (§4.1.1) and `N_H` carried forward. This is the
//! path the `vsj-service` engine publishes its epochs through, and the
//! result is identical to a batch build over everything ingested so far.
//!
//! Also demonstrates the one-pass selectivity curve
//! (`LshSs::estimate_curve`): all thresholds from a single sampling pass.
//!
//! ```text
//! cargo run --release --example streaming_index
//! ```

use std::sync::Arc;
use vsj::lsh::{BucketHasher, Composite};
use vsj::prelude::*;

fn main() {
    // The full corpus arrives in four batches.
    let all = DblpLike::with_size(4_000).generate(99);
    let batch_size = all.len() / 4;

    // Start from an empty table; the hasher is fixed up front (the
    // index's identity is its seed + k).
    let hasher = Arc::new(Composite::derive(SimHashFamily::new(), 7, 0, 12));
    let mut table = LshTable::from_parts(Arc::clone(&hasher) as _, Vec::new());
    let mut ingested = VectorCollection::new();

    let mut rng = Xoshiro256::seeded(1);
    println!("batch    n      N_H     Ĵ(0.7)   exact J(0.7)");
    println!("------------------------------------------------");
    for batch in 0..4 {
        let mut keys = Vec::with_capacity(batch_size);
        for (_, v) in all.iter().skip(batch * batch_size).take(batch_size) {
            keys.push(hasher.key(v));
            ingested.push(v.clone());
        }
        table = LshTable::from_parts_delta(&table, &keys);
        assert_eq!(table.len(), ingested.len(), "table and collection agree");
        let est = LshSs::with_defaults(ingested.len());
        let j = est
            .estimate(&ingested, &table, &Cosine, 0.7, &mut rng)
            .value;
        let exact = ExactJoin::new(&ingested, Cosine).count(0.7);
        println!(
            "{:>5} {:>6} {:>8} {:>10.0} {:>14}",
            batch + 1,
            ingested.len(),
            table.nh(),
            j,
            exact
        );
    }

    // One sampling pass, whole selectivity curve.
    println!("\nselectivity curve from a single LSH-SS sampling pass:");
    let est = LshSs::with_defaults(ingested.len());
    let taus: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let curve = est.estimate_curve(&ingested, &table, &Cosine, &taus, &mut rng);
    for (tau, e) in taus.iter().zip(&curve) {
        println!("  τ = {tau:.1}  Ĵ = {:>12.0}   ({:?})", e.value, e.kind);
    }
}
