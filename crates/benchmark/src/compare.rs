//! `benchmark compare a.json b.json`: one row per (workload, end-to-end
//! metric) with both values (see `MetricDef::value`), the ratio and its
//! base, the bound, and a verdict. `a` is the parent (the base of every
//! ratio), `b` the change.

use crate::metrics::{Better, END_TO_END};
use crate::report::Block;

/// What a pair of medians says about one metric on one workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own interquartile spread exceeds the bound: the metric
    /// cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` for a metric with this direction and
/// bound; `parent_spread` is the parent's (q3 - q1) / median. A bound of 0
/// is absolute (`ops_failed_frac`, whose expected value is 0): any worsening
/// regresses. A change that is not a number regresses whatever the parent.
pub fn verdict(
    better: Better,
    bound: f64,
    parent: f64,
    change: f64,
    parent_spread: f64,
) -> Verdict {
    if !change.is_finite() {
        return Verdict::Regressed;
    }
    if parent_spread > bound {
        return Verdict::Unresolved;
    }
    let scale = if bound == 0.0 { 1.0 } else { parent };
    let worse_by = match better {
        Better::Lower => (change - parent) / scale,
        Better::Higher => (parent - change) / scale,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Parent value.
    pub parent: f64,
    /// Change value; NaN when the change did not report the metric.
    pub change: f64,
    /// Regression bound.
    pub bound: f64,
    /// Which way the metric improves.
    pub better: Better,
    /// The verdict.
    pub verdict: Verdict,
}

/// One row per (workload, end-to-end metric) pair the parent reports. A
/// pair the change dropped, or reports as something that is not a number,
/// regressed: a change cannot pass by measuring less.
pub fn compare(parent: &[Block], change: &[Block]) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in parent {
        let b = change.iter().find(|b| b.workload == a.workload);
        for d in END_TO_END {
            let Some((_, pa)) = a.metrics.get(d.name) else {
                continue;
            };
            let ch = b
                .and_then(|b| b.metrics.get(d.name))
                .map_or(f64::NAN, |(_, s)| d.value(s));
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: a.workload.clone(),
                metric: d.name,
                parent: d.value(pa),
                change: ch,
                bound,
                better: d.better,
                verdict: verdict(d.better, bound, d.value(pa), ch, pa.spread()),
            });
        }
    }
    rows
}

/// Render the rows; every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<16} {:<20} {:>7} {:>14} {:>14} {:>22} {:>7}  verdict\n",
        "workload", "metric", "better", "parent (a)", "change (b)", "ratio", "bound"
    );
    for r in rows {
        let ratio = if r.parent == 0.0 || r.change.is_nan() {
            "-".to_string()
        } else {
            format!("{:.4} (b / a)", r.change / r.parent)
        };
        let _ = writeln!(
            out,
            "{:<16} {:<20} {:>7} {:>14.6} {:>14.6} {:>22} {:>7.2}  {}",
            r.workload,
            r.metric,
            r.better.as_str(),
            r.parent,
            r.change,
            ratio,
            r.bound,
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OPS_FAILED_FRAC;
    use crate::report::tests::block;
    use crate::stats::Summary;

    #[test]
    fn verdicts_follow_direction_bound_and_parent_spread() {
        use Better::{Higher, Lower};
        use Verdict::*;
        assert_eq!(verdict(Lower, 0.08, 1.0, 1.07, 0.01), Unchanged);
        assert_eq!(verdict(Lower, 0.08, 1.0, 1.09, 0.01), Regressed);
        assert_eq!(verdict(Lower, 0.08, 1.0, 0.90, 0.01), Improved);
        assert_eq!(verdict(Higher, 0.10, 100.0, 89.0, 0.01), Regressed);
        assert_eq!(verdict(Higher, 0.10, 100.0, 111.0, 0.01), Improved);
        assert_eq!(verdict(Higher, 0.10, 100.0, 95.0, 0.01), Unchanged);
        // A parent noisier than the bound cannot resolve anything.
        assert_eq!(verdict(Lower, 0.08, 1.0, 2.0, 0.09), Unresolved);
        // A bound of 0 is absolute, and works from a parent of 0.
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.001, 0.0), Regressed);
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.0, 0.0), Unchanged);
        assert_eq!(verdict(Lower, 0.08, 1.0, f64::NAN, 0.09), Regressed);
    }

    fn regressed(rows: &[Row]) -> Vec<(&str, &str)> {
        rows.iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| (r.workload.as_str(), r.metric))
            .collect()
    }

    #[test]
    fn rows_cover_the_measured_pairs_and_failures_regress_absolutely() {
        let parent = vec![
            block("square_1024", 1.0, 0.01),
            block("store_mixed", 1.0, 0.01),
        ];
        let mut change = parent.clone();
        let set = |b: &mut Block, name: &str, value: f64| {
            b.metrics.get_mut(name).expect("measured").1 = Summary::single(value);
        };
        set(&mut change[1], OPS_FAILED_FRAC, 0.01);
        let rows = compare(&parent, &change);
        // setup_s, peak_rss_mb, ops_failed_frac + factor_s_p50 | the 3 store metrics
        assert_eq!(rows.len(), 4 + 6);
        assert_eq!(regressed(&rows), [("store_mixed", OPS_FAILED_FRAC)]);
        let text = render(&rows);
        assert!(text.contains("(b / a)") && text.contains("unchanged"));
        // 8 % on a factorization regresses; memory has 10 %.
        set(&mut change[0], "factor_s_p50", 1.09);
        set(&mut change[0], "peak_rss_mb", 1.09);
        let rows = compare(&parent, &change);
        assert_eq!(regressed(&rows)[0], ("square_1024", "factor_s_p50"));
        assert_eq!(regressed(&rows).len(), 2);
    }

    #[test]
    fn a_dropped_workload_or_metric_and_a_nan_regress() {
        let parent = vec![
            block("square_1024", 1.0, 0.01),
            block("tall_fine", 1.0, 0.01),
            block("serve_small", 1.0, 0.01),
        ];
        let mut change = parent.clone();
        change.remove(0);
        change[0].metrics.remove("factor_s_p50");
        change[1].metrics.get_mut("job_ms_p90").expect("set").1 = Summary::single(f64::NAN);
        let rows = compare(&parent, &change);
        assert_eq!(
            regressed(&rows),
            [
                ("square_1024", "setup_s"),
                ("square_1024", "factor_s_p50"),
                ("square_1024", "peak_rss_mb"),
                ("square_1024", OPS_FAILED_FRAC),
                ("tall_fine", "factor_s_p50"),
                ("serve_small", "job_ms_p90"),
            ]
        );
        assert!(render(&rows).contains("NaN"));
    }
}
