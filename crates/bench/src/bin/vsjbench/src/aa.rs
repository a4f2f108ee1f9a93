//! `vsjbench aa` — the benchmark measured against itself.
//!
//! Every workload is run as two interleaved sets (A B A B …) of the same
//! code; run *i* of either set uses seed `base + i`, as the driver's own
//! acceptance runs do. For each end-to-end metric the table shows both
//! medians, how far B's is on the worse side of A's, the spread
//! (interquartile range over the median) within each set, and the
//! metric's bound. A difference beyond the bound fails the command: a
//! benchmark that cannot tell a build from itself cannot gate one.

use std::collections::BTreeMap;
use std::process::ExitCode;

use vsj_server::json::Json;

use crate::spec::{self, Better};
use crate::stats::median;

/// One child run; returns metric name → value. (A run that is not
/// correct exits non-zero, which `run_child` turns into an error.)
fn child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ];
    let stdout = crate::run::run_child(&args.map(String::from))?;
    let result = Json::parse(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload} seed {seed}: result has no metrics"));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Interquartile range over the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// — the spread the driver computes.
fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let quartile = |i: usize| {
        let m = sorted.len() + 1;
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid
}

pub fn run(flags: &BTreeMap<String, String>) -> Result<ExitCode, String> {
    let runs: usize = crate::number(flags, "runs", Some(5))?;
    let base_seed: u64 = crate::number(flags, "seed", Some(1))?;
    let seconds: f64 = crate::number(flags, "seconds", Some(spec::RUN_SECONDS as f64))?;
    let mut failed = false;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in &spec::WORKLOADS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..runs {
            for set in &mut sets {
                let metrics = child(workload.name, base_seed + i as u64, seconds)?;
                for (name, value) in metrics {
                    set.entry(name).or_default().push(value);
                }
            }
        }
        for metric in &spec::END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let (a, b) = (&sets[0][metric.name], &sets[1][metric.name]);
            let (median_a, median_b) = (median(a), median(b));
            let worse_by = match metric.better {
                Better::Lower => median_b / median_a - 1.0,
                Better::Higher => 1.0 - median_b / median_a,
            };
            let widest = spread(a).max(spread(b));
            let ok = worse_by.abs() <= bound && widest <= bound;
            failed |= !ok;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                workload.name,
                metric.name,
                median_a,
                median_b,
                100.0 * worse_by,
                100.0 * spread(a),
                100.0 * spread(b),
                100.0 * bound,
                if !ok {
                    "FAIL"
                } else if worse_by.abs() > bound / 2.0 || widest > bound / 3.0 {
                    "ok (wide)"
                } else {
                    "ok"
                }
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_iqr_over_median() {
        let values = [10.0, 11.0, 9.0, 10.5, 9.5];
        // Python: quantiles([9, 9.5, 10, 10.5, 11], n=4) == [9.25, 10.0, 10.75]
        assert!((spread(&values) - 0.15).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0]) - 2.5 / 2.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
