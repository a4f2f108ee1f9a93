//! End-to-end pipeline: dataset generator → LSH index → LSH-SS estimate
//! vs exact ground truth, across datasets and thresholds.

use vsj::prelude::*;

/// Average LSH-SS estimate over several trials against the exact count.
fn mean_estimate(
    data: &VectorCollection,
    index: &LshIndex,
    estimator: &LshSs,
    tau: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = Xoshiro256::seeded(seed);
    let mut sum = 0.0;
    for _ in 0..trials {
        sum += estimator
            .estimate(data, index.table(0), &Cosine, tau, &mut rng)
            .value;
    }
    sum / trials as f64
}

#[test]
fn dblp_like_high_threshold_accuracy() {
    let data = DblpLike::with_size(900).generate(7);
    let n = data.len();
    // Smaller k at laptop n (§6.3 guidance).
    let index = LshIndex::build(&data, LshParams::new(10, 1).with_seed(3).with_threads(2));
    let exact = ExactJoin::new(&data, Cosine).with_threads(2);
    let estimator = LshSs::with_defaults(n);
    for tau in [0.8, 0.9] {
        let truth = exact.count(tau) as f64;
        assert!(truth >= 5.0, "fixture needs a τ={tau} tail: {truth}");
        let mean = mean_estimate(&data, &index, &estimator, tau, 15, 11);
        assert!(
            mean > truth * 0.4 && mean < truth * 2.5,
            "τ={tau}: mean {mean} vs truth {truth}"
        );
    }
}

#[test]
fn estimates_beat_rs_variance_at_high_tau() {
    let data = DblpLike::with_size(800).generate(9);
    let n = data.len();
    let index = LshIndex::build(&data, LshParams::new(10, 1).with_seed(5).with_threads(2));
    let tau = 0.9;
    let lshss = LshSs::with_defaults(n);
    let rs = RsPop::paper_default(n);
    let mut rng = Xoshiro256::seeded(13);
    let mut lsh_vals = Vec::new();
    let mut rs_vals = Vec::new();
    for _ in 0..25 {
        lsh_vals.push(
            lshss
                .estimate(&data, index.table(0), &Cosine, tau, &mut rng)
                .value,
        );
        rs_vals.push(rs.estimate(&data, &Cosine, tau, &mut rng).value);
    }
    let std = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let (s_lsh, s_rs) = (std(&lsh_vals), std(&rs_vals));
    assert!(
        s_lsh < s_rs / 2.0,
        "LSH-SS std {s_lsh} must be well below RS std {s_rs} (Figure 2c shape)"
    );
}

#[test]
fn dampened_variant_underestimates_less() {
    let data = DblpLike::with_size(700).generate(21);
    let n = data.len();
    let index = LshIndex::build(&data, LshParams::new(10, 1).with_seed(7).with_threads(2));
    let exact = ExactJoin::new(&data, Cosine).with_threads(2);
    // Pick a grey-zone τ: joins exist but SampleL can't reach δ.
    let tau = 0.5;
    let truth = exact.count(tau) as f64;
    let plain = LshSs::with_defaults(n);
    let damp = LshSs::dampened_with_defaults(n);
    let mean_plain = mean_estimate(&data, &index, &plain, tau, 30, 17);
    let mean_damp = mean_estimate(&data, &index, &damp, tau, 30, 17);
    assert!(
        mean_damp >= mean_plain * 0.95,
        "dampening should not increase underestimation: plain {mean_plain}, damp {mean_damp} (truth {truth})"
    );
}

#[test]
fn estimator_trait_pipeline_runs_all_algorithms() {
    let data = NytLike::with_size(250).generate(3);
    let n = data.len();
    let index = LshIndex::build(&data, LshParams::new(8, 2).with_seed(1).with_threads(2));
    let ctx = EstimationContext::with_index(&data, &index);
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(RsPop::paper_default(n)),
        Box::new(RsCross::with_pair_budget(n as u64)),
        Box::new(UniformLsh::idealized()),
        Box::new(UniformLsh::angular()),
        Box::new(LshS::paper_default(n)),
        Box::new(LshSs::with_defaults(n)),
        Box::new(LshSs::dampened_with_defaults(n)),
        Box::new(MedianEstimator::with_defaults(n)),
        Box::new(VirtualBucketEstimator::with_defaults(n)),
    ];
    let m = data.total_pairs() as f64;
    let mut rng = Xoshiro256::seeded(5);
    for tau in [0.2, 0.6, 0.95] {
        for est in &estimators {
            let e = est.estimate(&ctx, tau, &mut rng);
            assert!(
                e.value.is_finite() && e.value >= 0.0 && e.value <= m,
                "{} at τ={tau}: {e:?}",
                est.name()
            );
        }
    }
}

#[test]
fn lc_baseline_runs_against_ground_truth() {
    let data = DblpLike::with_size(400).generate(15);
    let lc = LatticeCounting {
        k: 16,
        levels: 8,
        chains: 6,
        ..Default::default()
    };
    let mut rng = Xoshiro256::seeded(19);
    let est = lc.analyze(&data, SimHashFamily::new(), 9, &mut rng);
    let exact = ExactJoin::new(&data, Cosine).with_threads(2);
    // LC is the weak baseline; require sane, monotone, non-degenerate
    // output rather than tight accuracy.
    let mut prev = f64::INFINITY;
    for tau in [0.3, 0.5, 0.7, 0.9] {
        let j = est.join_size(tau);
        assert!(j.is_finite() && j >= 0.0);
        assert!(j <= prev + 1e-9, "LC non-monotone at τ={tau}");
        prev = j;
    }
    // Order-of-magnitude sanity at τ = 0.1 where mass is broad.
    let truth = exact.count(0.1) as f64;
    let j = est.join_size(0.1).max(est.raw_join_size(0.1));
    assert!(j > truth / 100.0, "LC degenerate at τ=0.1: {j} vs {truth}");
}

#[test]
fn median_over_three_tables_tracks_the_exact_join() {
    let data = DblpLike::with_size(500).generate(33);
    let n = data.len();
    let index = LshIndex::build(&data, LshParams::new(8, 3).with_seed(2).with_threads(2));

    let est = MedianEstimator::with_defaults(n);
    let mut rng = Xoshiro256::seeded(3);
    let truth = ExactJoin::new(&data, Cosine).with_threads(2).count(0.9) as f64;
    let mut sum = 0.0;
    for _ in 0..10 {
        sum += est.estimate(&data, &index, &Cosine, 0.9, &mut rng).value;
    }
    let mean = sum / 10.0;
    assert!(
        truth == 0.0 || (mean > truth * 0.3 && mean < truth * 3.0),
        "median estimate {mean} vs truth {truth}"
    );
}
