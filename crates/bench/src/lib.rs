//! Experiment harness for the VLDB 2011 reproduction.
//!
//! One runnable target per table/figure of the paper (see the §6 row of
//! `docs/PAPER_MAP.md` for the index). The harness owns:
//!
//! * [`workload`] — dataset + index + cached ground truth assembly;
//! * [`report`] — aligned text tables on stdout and CSV files under
//!   `results/`;
//! * [`experiments`] — the per-artifact drivers (`fig2`, `table1`, …).
//!
//! Scales are laptop-sized by default (the paper ran 800K vectors on a
//! 64 GB Xeon; the *shapes* under test are scale-invariant — see the §6
//! row of `docs/PAPER_MAP.md`). Every run is deterministic given `--seed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use report::{CsvSink, Table};
pub use workload::{RunConfig, Workload};

/// The paper's threshold grid τ ∈ {0.1, …, 1.0}.
pub fn tau_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Formats a count with thousands separators (report readability).
pub fn fmt_count(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let rounded = x.round() as i128;
    let negative = rounded < 0;
    let digits = rounded.abs().to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if negative {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_grid_matches_paper() {
        let g = tau_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0.0), "0");
        assert_eq!(fmt_count(999.0), "999");
        assert_eq!(fmt_count(1000.0), "1,000");
        assert_eq!(fmt_count(1234567.4), "1,234,567");
        assert_eq!(fmt_count(-1234.0), "-1,234");
    }
}
