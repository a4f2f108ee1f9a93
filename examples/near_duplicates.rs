//! Near-duplicate detection workflow (the paper's "near duplicate
//! document detection and elimination" application, §1).
//!
//! A data engineer wants to deduplicate a corpus but must pick the
//! similarity threshold first. Running the exact join at every candidate
//! τ to see result sizes is O(n²) per τ; instead:
//!
//! 1. sweep τ with LSH-SS (milliseconds per estimate, one shared index),
//! 2. pick the τ where the estimated duplicate count matches the
//!    expected duplication budget,
//! 3. run the exact All-Pairs join once, at that τ only.
//!
//! ```text
//! cargo run --release --example near_duplicates
//! ```

use vsj::prelude::*;

fn main() {
    let n = 4_000;
    println!("generating {n} NYT-like TF-IDF vectors …");
    let data = NytLike::with_size(n).generate(23);
    println!("building LSH index (k = 20) …");
    let index = LshIndex::build(&data, LshParams::new(20, 1).with_seed(9));

    // Step 1: estimate the duplicate-pair count across thresholds — the
    // whole curve from ONE sampling pass (LshSs::estimate_curve).
    let estimator = LshSs::with_defaults(n);
    let mut rng = Xoshiro256::seeded(2);
    println!("\n  tau   estimated pairs");
    println!("  ---------------------");
    let mut picked = None;
    let budget = 2_000.0; // "we expect roughly ≤ 2k duplicate pairs"
    let taus: Vec<f64> = (50..=95).step_by(5).map(|i| i as f64 / 100.0).collect();
    let curve = estimator.estimate_curve(&data, index.table(0), &Cosine, &taus, &mut rng);
    for (&tau, est) in taus.iter().zip(&curve) {
        println!("  {tau:.2}  {:>14.0}", est.value);
        if picked.is_none() && est.value <= budget {
            picked = Some(tau);
        }
    }
    let tau = picked.unwrap_or(0.9);
    println!("\npicked τ = {tau:.2} (first threshold under the {budget:.0}-pair budget)");

    // Step 3: one exact join at the chosen threshold.
    println!("running exact All-Pairs join at τ = {tau:.2} …");
    let pairs = AllPairs::new(tau).pairs(&data);
    println!("  {} duplicate pairs found", pairs.len());
    let preview: Vec<_> = pairs.iter().take(5).collect();
    for (a, b, s) in preview {
        println!("  doc {a} ↔ doc {b}  (cosine {s:.4})");
    }
}
