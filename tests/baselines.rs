//! Baseline estimators against exact ground truth on generated corpora —
//! the §3/§4 algorithms composed across crates.

use vsj::prelude::*;

fn fixture() -> (VectorCollection, LshIndex, u64) {
    let data = DblpLike::with_size(500).generate(77);
    let index = LshIndex::build(&data, LshParams::new(8, 1).with_seed(1).with_threads(2));
    let seed = 9;
    (data, index, seed)
}

#[test]
fn rs_pop_unbiased_where_selectivity_allows() {
    let (data, _, seed) = fixture();
    let tau = 0.2;
    let truth = ExactJoin::new(&data, Cosine).with_threads(2).count(tau) as f64;
    assert!(truth > 100.0);
    let est = RsPop::new(40_000);
    let mut rng = Xoshiro256::seeded(seed);
    let mut sum = 0.0;
    for _ in 0..10 {
        sum += est.estimate(&data, &Cosine, tau, &mut rng).value;
    }
    let mean = sum / 10.0;
    assert!(
        (mean - truth).abs() / truth < 0.15,
        "mean {mean} vs {truth}"
    );
}

#[test]
fn rs_cross_comparable_to_rs_pop() {
    let (data, _, seed) = fixture();
    let tau = 0.2;
    let truth = ExactJoin::new(&data, Cosine).with_threads(2).count(tau) as f64;
    let est = RsCross::with_pair_budget(40_000);
    let mut rng = Xoshiro256::seeded(seed + 1);
    let mut sum = 0.0;
    for _ in 0..20 {
        sum += est.estimate(&data, &Cosine, tau, &mut rng).value;
    }
    let mean = sum / 20.0;
    assert!((mean - truth).abs() / truth < 0.3, "mean {mean} vs {truth}");
}

#[test]
fn ju_overestimates_low_tau_on_skewed_data() {
    // §4.2: JU assumes uniform similarity; real corpora are skewed toward
    // zero, so at low τ the uniform model predicts far too few pairs
    // below τ and JU misses accordingly. Just pin the documented
    // direction of failure at high τ: with a heavy near-zero mass,
    // NH is dominated by duplicate pairs and JU at high τ grossly
    // overestimates (it spreads NH over the uniform measure).
    let (data, index, _) = fixture();
    let tau = 0.9;
    let truth = ExactJoin::new(&data, Cosine).with_threads(2).count(tau) as f64;
    let ju = UniformLsh::idealized().estimate(index.table(0), tau);
    // Not asserting a tight bound — asserting it is *not* accurate, which
    // is the paper's reason to replace it with LSH-S/LSH-SS.
    let rel = (ju.value - truth).abs() / truth.max(1.0);
    assert!(
        rel > 0.5,
        "JU unexpectedly accurate on skewed data: {} vs {truth}",
        ju.value
    );
}

#[test]
fn lshs_weighted_beats_ju_at_low_tau() {
    let (data, index, seed) = fixture();
    let tau = 0.15;
    let truth = ExactJoin::new(&data, Cosine).with_threads(2).count(tau) as f64;
    assert!(truth > 100.0);
    let mut rng = Xoshiro256::seeded(seed + 2);
    let lshs = LshS {
        samples: 30_000,
        variant: LshSVariant::Weighted,
        model: CollisionModel::Angular, // match the SimHash index
    };
    let mut sum = 0.0;
    for _ in 0..10 {
        sum += lshs
            .estimate(&data, &Cosine, index.table(0), tau, &mut rng)
            .value;
    }
    let mean = sum / 10.0;
    let ju = UniformLsh::angular().estimate(index.table(0), tau).value;
    let err_lshs = (mean - truth).abs() / truth;
    let err_ju = (ju - truth).abs() / truth;
    assert!(
        err_lshs < err_ju,
        "sample weighting should beat the uniformity assumption: LSH-S {err_lshs:.2} vs JU {err_ju:.2}"
    );
}

#[test]
fn allpairs_matches_naive_on_generated_data() {
    let (data, _, _) = fixture();
    let naive = ExactJoin::new(&data, Cosine).with_threads(2);
    for tau in [0.5, 0.8, 0.95] {
        assert_eq!(AllPairs::new(tau).count(&data), naive.count(tau), "τ={tau}");
    }
}
