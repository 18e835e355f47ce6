//! `compare A B`: one row per (end-to-end metric, workload), never a
//! combined score. A is the baseline, B the candidate; each file is a set
//! of runs, one record per line as `--out` and `history.jsonl` hold them.

use crate::report::{Better, Bound, Record, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The spread between runs is wider than the bound, so a change of the
    /// size the bound guards against could hide in it either way.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    /// Median and quartiles of the metric over each side's runs.
    pub a: Summary,
    pub b: Summary,
    /// How much worse B's median is than A's (negative = better), in the
    /// bound's own terms: a share of A's median, or an absolute amount.
    pub worse_by: f64,
    pub bound: Bound,
    pub verdict: Verdict,
}

/// `worse_by` beyond the bound regresses, beyond it the other way
/// improves, within it is unchanged — unless either side's inter-quartile
/// range is itself wider than the bound. Then only a clean separation of
/// the two ranges counts, and anything else is unresolved.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: Bound) -> (f64, Verdict) {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // A relative bound on a zero baseline has nothing to scale by; the
    // difference is then judged as an absolute amount.
    let (limit, scale) = match bound {
        Bound::Rel(r) if a.median != 0.0 => (r, a.median.abs()),
        Bound::Rel(r) => (r, 1.0),
        Bound::Abs(x) => (x, 1.0),
    };
    let worse_by = sign * (b.median - a.median) / scale;
    let spread = a.iqr().max(b.iqr()) / scale;
    // B's inter-quartile range lies wholly on one side of A's.
    let (b_wholly_worse, b_wholly_better) = match better {
        Better::Lower => (b.q1 > a.q3, b.q3 < a.q1),
        Better::Higher => (b.q3 < a.q1, b.q1 > a.q3),
    };

    let verdict = if spread > limit {
        if worse_by > limit && b_wholly_worse {
            Verdict::Regressed
        } else if worse_by < -limit && b_wholly_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > limit {
        Verdict::Regressed
    } else if worse_by < -limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

/// The metric's value in every run of `workload`, summarised.
fn over_runs(set: &[Record], workload: &str, metric: &str) -> Option<Summary> {
    let values: Vec<f64> = set
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metric(metric))
        .map(|m| m.value)
        .collect();
    (!values.is_empty()).then(|| Summary::of(&values))
}

pub fn rows(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = Vec::new();
    for workload in workloads {
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                over_runs(a, workload, def.name),
                over_runs(b, workload, def.name),
            ) else {
                continue;
            };
            let (worse_by, verdict) = judge(&sa, &sb, def.better, def.bound);
            out.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                unit: def.unit,
                a: sa,
                b: sb,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
    }
    out
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<Record> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| serde_json::from_str(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    if records.iter().any(|r| !r.comparable) {
        return Err(format!(
            "{path}: holds a --smoke run, which is not comparable"
        ));
    }
    Ok(records)
}

/// `(commit, kernels, nproc, seed)` combinations present in a set.
fn provenance(set: &[Record]) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for r in set {
        let p = format!(
            "{} {} {}-core seed {:#x}",
            r.commit, r.kernels, r.nproc, r.seed
        );
        if !seen.contains(&p) {
            seen.push(p);
        }
    }
    seen
}

/// Prints the table; returns how many rows regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "A = {path_a}: {} record(s); {}",
        a.len(),
        provenance(&a).join(" | ")
    );
    println!(
        "B = {path_b}: {} record(s); {}",
        b.len(),
        provenance(&b).join(" | ")
    );
    println!(
        "{:<13} {:<15} {:>12} {:>10} {:>2} {:>12} {:>10} {:>2} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A iqr",
        "n",
        "B median",
        "B iqr",
        "n",
        "worse by",
        "bound"
    );
    let rows = rows(&a, &b);
    for r in &rows {
        let (worse, bound) = match r.bound {
            Bound::Rel(x) => (
                format!("{:+.2}%", r.worse_by * 100.0),
                format!("{:.0}%", x * 100.0),
            ),
            Bound::Abs(x) => (format!("{:+.4}", r.worse_by), format!("{x}")),
        };
        println!(
            "{:<13} {:<15} {:>12.4} {:>10.4} {:>2} {:>12.4} {:>10.4} {:>2} {:>9} {:>6}  {} [{}]",
            r.workload,
            r.metric,
            r.a.median,
            r.a.iqr(),
            r.a.n,
            r.b.median,
            r.b.iqr(),
            r.b.n,
            worse,
            bound,
            r.verdict.as_str(),
            r.unit
        );
    }
    // Verdicts of two sets can be told apart by eye only when the inputs
    // were the same: same workload, same seed.
    for ra in &a {
        for rb in b
            .iter()
            .filter(|rb| (&rb.workload, rb.seed) == (&ra.workload, ra.seed))
        {
            if ra.digest != rb.digest {
                println!(
                    "{:<13} seed {:#x}: verdict digest {} (A) vs {} (B): DIFFERENT",
                    ra.workload, ra.seed, ra.digest, rb.digest
                );
            }
        }
    }
    Ok(rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn within_bound_is_unchanged_beyond_it_regresses_or_improves() {
        let a = s(&[99.0, 100.0, 101.0]);
        let rel = Bound::Rel(0.07);
        // Lower is better: +3% unchanged, +10% regressed, -10% improved.
        assert_eq!(
            judge(&a, &s(&[102.0, 103.0, 104.0]), Better::Lower, rel).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &s(&[109.0, 110.0, 111.0]), Better::Lower, rel).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &s(&[89.0, 90.0, 91.0]), Better::Lower, rel).1,
            Verdict::Improved
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&a, &s(&[109.0, 110.0, 111.0]), Better::Higher, rel).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&a, &s(&[89.0, 90.0, 91.0]), Better::Higher, rel).1,
            Verdict::Regressed
        );
        let (worse_by, _) = judge(&a, &s(&[110.0]), Better::Lower, rel);
        assert!((worse_by - 0.10).abs() < 1e-12);
        let (worse_by, _) = judge(&a, &s(&[110.0]), Better::Higher, rel);
        assert!((worse_by + 0.10).abs() < 1e-12);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_ranges_separate() {
        let rel = Bound::Rel(0.05);
        // Quartiles 80 and 120 around 100: a 40% spread against a 5% bound.
        let noisy = s(&[80.0, 100.0, 120.0]);
        assert_eq!(
            judge(&noisy, &s(&[82.0, 102.0, 122.0]), Better::Lower, rel).1,
            Verdict::Unresolved
        );
        // Overlapping ranges stay unresolved even when the medians differ
        // by more than the bound...
        assert_eq!(
            judge(&noisy, &s(&[90.0, 110.0, 130.0]), Better::Lower, rel).1,
            Verdict::Unresolved
        );
        // ...a clean separation does not.
        assert_eq!(
            judge(&noisy, &s(&[150.0, 160.0, 170.0]), Better::Lower, rel).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&noisy, &s(&[40.0, 50.0, 60.0]), Better::Lower, rel).1,
            Verdict::Improved
        );
        // A noisy candidate against a quiet baseline is unresolved too.
        assert_eq!(
            judge(&s(&[100.0]), &noisy, Better::Lower, rel).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn absolute_bounds_and_exact_values() {
        let auc = Bound::Abs(0.01);
        assert_eq!(
            judge(&s(&[0.93]), &s(&[0.925]), Better::Higher, auc).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&s(&[0.93]), &s(&[0.90]), Better::Higher, auc).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&s(&[0.93]), &s(&[0.96]), Better::Higher, auc).1,
            Verdict::Improved
        );
        // failed_share: bound 0, expected 0 on both sides.
        let zero = Bound::Abs(0.0);
        assert_eq!(
            judge(&s(&[0.0]), &s(&[0.0]), Better::Lower, zero).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&s(&[0.0]), &s(&[0.001]), Better::Lower, zero).1,
            Verdict::Regressed
        );
        // bytes_per_flow repeats exactly: identical is unchanged, +2% is not.
        let one_pct = Bound::Rel(0.01);
        assert_eq!(
            judge(&s(&[660.0]), &s(&[660.0]), Better::Lower, one_pct).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&s(&[660.0]), &s(&[674.0]), Better::Lower, one_pct).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn rows_group_runs_by_workload_one_row_per_metric() {
        let rec = |workload: &str, fps: f64| Record {
            commit: "c".into(),
            kernels: "k".into(),
            nproc: 2,
            seed: 1,
            comparable: true,
            workload: workload.into(),
            frames_per_pass: 1,
            throughput_passes: 1,
            latency_passes: 1,
            digest: "d".into(),
            attempted: 1,
            failed: 0,
            end_to_end: vec![
                Metric::new("frames_per_s", "frames/s", fps, Summary::single(fps)),
                Metric::new("failed_share", "ratio", 0.0, Summary::single(0.0)),
            ],
            per_layer: vec![],
        };
        // Three runs a side; syn_scan's median moves 100 -> 101,
        // tcp4_attacks' 50 -> 30.
        let a = [
            rec("syn_scan", 99.0),
            rec("tcp4_attacks", 50.0),
            rec("syn_scan", 100.0),
            rec("tcp4_attacks", 49.5),
            rec("syn_scan", 101.0),
            rec("tcp4_attacks", 50.5),
        ];
        let b = [
            rec("tcp4_attacks", 30.0),
            rec("tcp4_attacks", 30.5),
            rec("tcp4_attacks", 29.5),
            rec("syn_scan", 101.0),
            rec("syn_scan", 100.0),
            rec("syn_scan", 102.0),
        ];
        let rows = rows(&a, &b);
        let got: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    r.workload.as_str(),
                    r.metric,
                    r.a.n,
                    r.a.median,
                    r.b.median,
                    r.verdict,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (
                    "syn_scan",
                    "frames_per_s",
                    3,
                    100.0,
                    101.0,
                    Verdict::Unchanged
                ),
                ("syn_scan", "failed_share", 3, 0.0, 0.0, Verdict::Unchanged),
                (
                    "tcp4_attacks",
                    "frames_per_s",
                    3,
                    50.0,
                    30.0,
                    Verdict::Regressed
                ),
                (
                    "tcp4_attacks",
                    "failed_share",
                    3,
                    0.0,
                    0.0,
                    Verdict::Unchanged
                ),
            ]
        );
    }
}
