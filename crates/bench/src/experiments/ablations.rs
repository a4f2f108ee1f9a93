//! Design-choice ablations (beyond the paper's figures; see the §6 row of
//! `docs/PAPER_MAP.md`).
//!
//! Three questions the paper leaves implicit, answered on the DBLP
//! analogue:
//!
//! 1. **Collision model** — the paper's closed forms assume the idealized
//!    `P(h collide) = s` (Definition 3); SimHash actually follows
//!    `1 − arccos(s)/π`. How much accuracy do JU and LSH-S lose by using
//!    the wrong curve against a SimHash index?
//! 2. **LSH-S variant** — §4.3 sketches two ways to estimate the
//!    conditionals (direct counting vs similarity weighting) and reports
//!    only the second. Compare both.
//! 3. **Multi-table scheme** — Appendix B.2.1's median vs virtual-bucket
//!    estimators against single-table LSH-SS at equal ℓ = 3.
//!
//! Also includes the LC(ξ) baseline the paper "omits from the figures"
//! (§6.2: it underestimates throughout) so the claim is checkable.

use vsj_core::{
    CollisionModel, Estimator, LshS, LshSVariant, LshSs, MedianEstimator, UniformLsh,
    VirtualBucketEstimator,
};
use vsj_datasets::Dataset;
use vsj_lc::LatticeCounting;
use vsj_lsh::SimHashFamily;
use vsj_sampling::{signed_relative_error, ErrorProfile, Summary, Xoshiro256};

use crate::report::{pct, CsvSink, Table};
use crate::workload::{RunConfig, Workload};

/// Runs all three ablations plus the LC baseline table.
pub fn run(config: &RunConfig) {
    let dataset = Dataset::Dblp;
    let workload = Workload::build(dataset, dataset.paper_k(), config);
    let n = workload.n();
    println!("[ablations] dataset=dblp n={n}");
    let sink = CsvSink::new(&config.out_dir);
    let taus = [0.3, 0.5, 0.7, 0.9];

    // -- 1 + 2: analytic-model and LSH-S-variant comparisons ------------
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(UniformLsh::idealized()),
        Box::new(UniformLsh::angular()),
        Box::new(LshS {
            samples: n as u64,
            variant: LshSVariant::Weighted,
            model: CollisionModel::Idealized,
        }),
        Box::new(LshS {
            samples: n as u64,
            variant: LshSVariant::Weighted,
            model: CollisionModel::Angular,
        }),
        Box::new(LshS {
            samples: n as u64,
            variant: LshSVariant::Direct,
            model: CollisionModel::Idealized,
        }),
    ];
    let labels = [
        "JU idealized",
        "JU angular",
        "LSH-S weighted/ideal",
        "LSH-S weighted/angular",
        "LSH-S direct",
    ];
    let profiles =
        super::run_error_profiles(&workload, &estimators, &taus, config.trials, config.seed);
    let mut t1 = Table::new(
        "ablation: collision model & LSH-S variant (mean signed rel. error %)",
        &["algorithm", "τ=0.3", "τ=0.5", "τ=0.7", "τ=0.9"],
    );
    for (label, row) in labels.iter().zip(&profiles) {
        let mut cells = vec![label.to_string()];
        for p in row {
            // Signed mean: overs positive, unders negative, combined.
            let total =
                p.over.mean() * p.over.count() as f64 + p.under.mean() * p.under.count() as f64;
            cells.push(pct(total / p.trials() as f64));
        }
        t1.row(cells);
    }
    t1.emit(&sink, "ablation_models");

    // -- 3: multi-table schemes at ℓ = 3 --------------------------------
    let workload3 = Workload::build_with_tables(dataset, dataset.paper_k(), 3, config);
    let multi: Vec<Box<dyn Estimator>> = vec![
        Box::new(LshSs::with_defaults(n)), // table 0 only
        Box::new(MedianEstimator::with_defaults(n)),
        Box::new(VirtualBucketEstimator::with_defaults(n)),
    ];
    let profiles3 =
        super::run_error_profiles(&workload3, &multi, &taus, config.trials, config.seed ^ 1);
    let mut t2 = Table::new(
        "ablation: multi-table schemes, ℓ = 3 (|rel err| mean / std of estimates at τ=0.9)",
        &["scheme", "avg |rel err|", "std @ τ=0.9"],
    );
    for (est, row) in multi.iter().zip(&profiles3) {
        let avg: f64 =
            row.iter().map(ErrorProfile::trials_abs_mean).sum::<f64>() / row.len() as f64;
        t2.row(vec![
            est.name(),
            format!("{avg:.3}"),
            format!(
                "{:.3e}",
                row.last().expect("τ grid non-empty").estimates.std()
            ),
        ]);
    }
    t2.emit(&sink, "ablation_multitable");

    // -- LC baseline ------------------------------------------------------
    let mut t3 = Table::new(
        "LC(ξ=1) baseline on DBLP (one signature analysis, SimHash k=20)",
        &["tau", "J", "LC Ĵ (power-law)", "LC Ĵ (raw)", "raw err %"],
    );
    let lc = LatticeCounting::default();
    let mut lc_rng = Xoshiro256::seeded(config.seed ^ 2);
    let analysis = lc.analyze(
        &workload.collection,
        SimHashFamily::new(),
        config.seed,
        &mut lc_rng,
    );
    let mut under = 0;
    for &tau in &taus {
        let truth = workload.truth.join_size(tau).unwrap_or(0) as f64;
        let j = analysis.join_size(tau);
        let raw = analysis.raw_join_size(tau);
        let err = signed_relative_error(raw, truth);
        under += i32::from(err < 0.0);
        t3.row(vec![
            format!("{tau:.1}"),
            crate::fmt_count(truth),
            crate::fmt_count(j),
            crate::fmt_count(raw),
            pct(err),
        ]);
    }
    t3.emit(&sink, "ablation_lc");
    println!(
        "(raw LC recovery underestimated at {under}/{} thresholds — §6.2 reports LC \
         underestimates throughout; the power-law extrapolation can swing either way)",
        taus.len()
    );
}

/// Mean absolute relative error helper on [`ErrorProfile`].
trait AbsMean {
    fn trials_abs_mean(&self) -> f64;
}

impl AbsMean for ErrorProfile {
    fn trials_abs_mean(&self) -> f64 {
        self.mean_abs_error(0.0)
    }
}

/// Convenience for reading a column of summaries (kept for future panels).
#[allow(dead_code)]
fn fold(rows: &[Summary]) -> Summary {
    let mut out = Summary::new();
    for r in rows {
        out.merge(r);
    }
    out
}
