//! Property-based invariants of the estimator layer.
//!
//! Complements the per-module unit tests: here proptest generates
//! arbitrary small corpora, index parameters, thresholds and seeds, and
//! checks the contracts every estimator must keep *unconditionally* —
//! range, determinism, stratum algebra, and the monotonicities the math
//! implies.

use std::sync::Arc;

use proptest::prelude::*;

use crate::general_join::{GeneralJoinIndex, GeneralLshSs};
use crate::lshss::{Dampening, LshSs, LshSsConfig};
use crate::multi_table::VirtualBucketEstimator;
use crate::rs::{RsCross, RsPop};
use crate::uniform::ju_closed_form;
use vsj_lsh::{Composite, IndexView, LshIndex, LshParams, LshTable, MinHashFamily};
use vsj_sampling::Xoshiro256;
use vsj_vector::{Jaccard, SparseVector, VectorCollection};

/// Arbitrary small binary corpus: windows over a compact universe give a
/// realistic mix of disjoint, overlapping and duplicate vectors.
fn arb_collection() -> impl Strategy<Value = VectorCollection> {
    proptest::collection::vec((0u32..60, 2u32..10), 3..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(start, len)| SparseVector::binary_from_members((start..start + len).collect()))
            .collect()
    })
}

fn table_for(coll: &VectorCollection, k: usize, seed: u64) -> LshTable {
    let hasher = Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, k));
    LshTable::build(coll, hasher, Some(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_lshss_estimate_in_range_and_deterministic(
        coll in arb_collection(),
        k in 1usize..10,
        tau in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let table = table_for(&coll, k, seed);
        let est = LshSs::with_defaults(coll.len());
        let m = coll.total_pairs() as f64;
        let run = || {
            let mut rng = Xoshiro256::seeded(seed ^ 0xD00D);
            est.estimate(&coll, &table, &Jaccard, tau, &mut rng)
        };
        let (a, b) = (run(), run());
        prop_assert!(a.value.is_finite());
        prop_assert!((0.0..=m).contains(&a.value), "estimate {} outside [0, {m}]", a.value);
        prop_assert_eq!(a, b, "same seed must reproduce the estimate exactly");
    }

    #[test]
    fn prop_lshss_breakdown_consistent(
        coll in arb_collection(),
        k in 1usize..8,
        tau in 0.1f64..0.95,
        seed in 0u64..500,
    ) {
        let table = table_for(&coll, k, seed);
        let est = LshSs::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(seed);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, tau, &mut rng);
        // Components are individually bounded by their stratum sizes.
        prop_assert!(d.jh >= 0.0 && d.jh <= table.nh() as f64 + 1e-9);
        prop_assert!(d.jl >= 0.0 && d.jl <= table.nl() as f64 + 1e-9);
        // The combined estimate is the clamped sum.
        prop_assert!((d.estimate.value - (d.jh + d.jl).min(table.total_pairs() as f64)).abs() < 1e-9);
        // Safe lower bound: when unreliable, jl never exceeds δ (it is a
        // raw count below the answer-size threshold).
        if !d.l_reliable {
            prop_assert!(d.l_positives < est.config.delta);
            prop_assert!(d.jl <= est.config.delta as f64);
        }
    }

    #[test]
    fn prop_dampening_ordering_holds_pointwise(
        coll in arb_collection(),
        k in 1usize..8,
        tau in 0.3f64..0.95,
        seed in 0u64..500,
        cs in 0.05f64..1.0,
    ) {
        // On identical sample paths: safe ≤ dampened(cs) for any cs, and
        // dampened is monotone in cs — for LSH-SS, the general join and
        // the virtual buckets alike.
        let table = table_for(&coll, k, seed);
        let base = LshSsConfig {
            m_h: 16,
            m_l: 64,
            delta: 1_000, // force exhaustion
            dampening: Dampening::SafeLowerBound,
        };
        let run = |dampening| {
            let est = LshSs {
                config: LshSsConfig { dampening, ..base },
            };
            let mut rng = Xoshiro256::seeded(seed ^ 0xCAFE);
            est.estimate_detailed(&coll, &table, &Jaccard, tau, &mut rng).jl
        };
        let safe = run(Dampening::SafeLowerBound);
        let damp_lo = run(Dampening::Constant(cs * 0.5));
        let damp_hi = run(Dampening::Constant(cs));
        prop_assert!(safe <= damp_lo + 1e-9, "safe {safe} > dampened {damp_lo}");
        prop_assert!(damp_lo <= damp_hi + 1e-9, "dampening not monotone in cs");

        // Same draws per dampening ⇒ equal Ĵ_H, so the (clamped) totals
        // order as Ĵ_L does. U ⋈ U is a general join of its own.
        let join = GeneralJoinIndex::build(
            &coll,
            &coll,
            Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, k)),
            Some(1),
        );
        let general = |dampening| {
            let est = GeneralLshSs {
                config: LshSsConfig { dampening, ..base },
            };
            let mut rng = Xoshiro256::seeded(seed ^ 0xCAFE);
            est.estimate(&coll, &coll, &join, &Jaccard, tau, &mut rng).value
        };
        let index = LshIndex::build_with_family(
            &coll,
            MinHashFamily::new(),
            LshParams::new(k, 2).with_seed(seed).with_threads(1),
        );
        let virtual_buckets = |dampening| {
            let est = VirtualBucketEstimator {
                config: LshSsConfig { dampening, ..base },
                union_samples: 64,
            };
            let mut rng = Xoshiro256::seeded(seed ^ 0xCAFE);
            est.estimate(&coll, &index, &Jaccard, tau, &mut rng).value
        };
        let others: [(&str, &dyn Fn(Dampening) -> f64); 2] =
            [("general join", &general), ("virtual buckets", &virtual_buckets)];
        for (name, run) in others {
            let safe = run(Dampening::SafeLowerBound);
            let damp_lo = run(Dampening::Constant(cs * 0.5));
            let damp_hi = run(Dampening::Constant(cs));
            prop_assert!(safe <= damp_lo + 1e-9, "{name}: safe {safe} > dampened {damp_lo}");
            prop_assert!(damp_lo <= damp_hi + 1e-9, "{name}: dampening not monotone in cs");
        }
    }

    #[test]
    fn prop_rs_estimates_in_range(
        coll in arb_collection(),
        tau in 0.0f64..1.0,
        seed in 0u64..1000,
        samples in 1u64..400,
    ) {
        let m = coll.total_pairs() as f64;
        let mut rng = Xoshiro256::seeded(seed);
        let pop = RsPop::new(samples).estimate(&coll, &Jaccard, tau, &mut rng);
        prop_assert!((0.0..=m).contains(&pop.value));
        let cross = RsCross::new(2 + (samples % 16) as usize)
            .estimate(&coll, &Jaccard, tau, &mut rng);
        prop_assert!((0.0..=m).contains(&cross.value));
    }

    #[test]
    fn prop_ju_closed_form_monotone_in_nh(
        m in 1_000f64..1e9,
        k in 1usize..40,
        tau in 0.05f64..0.99,
        nh_frac_a in 0.0f64..1.0,
        nh_frac_b in 0.0f64..1.0,
    ) {
        // More same-bucket pairs ⇒ more estimated true pairs (Eq. 4's
        // numerator is increasing in N_H, denominator constant).
        let (lo, hi) = if nh_frac_a <= nh_frac_b {
            (nh_frac_a, nh_frac_b)
        } else {
            (nh_frac_b, nh_frac_a)
        };
        let j_lo = ju_closed_form(lo * m, m, k, tau);
        let j_hi = ju_closed_form(hi * m, m, k, tau);
        prop_assert!(j_lo <= j_hi + 1e-6 * j_hi.abs().max(1.0));
    }

    #[test]
    fn prop_exhaustive_sample_h_is_exact(
        coll in arb_collection(),
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        // With τ = 0 every sampled pair in S_H is true, so SampleH's
        // scaled estimate equals N_H exactly regardless of the sample.
        let table = table_for(&coll, k, seed);
        let est = LshSs {
            config: LshSsConfig {
                m_h: 32,
                m_l: 0,
                delta: 1,
                dampening: Dampening::SafeLowerBound,
            },
        };
        let mut rng = Xoshiro256::seeded(seed);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.0, &mut rng);
        if table.nh() > 0 {
            prop_assert!((d.jh - table.nh() as f64).abs() < 1e-9);
        } else {
            prop_assert_eq!(d.jh, 0.0);
        }
    }
}
