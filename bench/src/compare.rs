//! `bench compare A.json B.json`: holds B against A with the benchmark's
//! own bounds, one row per (end-to-end metric, workload).

use serde_json::Value;

use crate::report::validate;
use crate::schema::{Better, END_TO_END, EXACT_COUNTS};
use crate::workloads::WORKLOADS;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// The run-to-run spread recorded in the files is wider than the
    /// bound, so the files cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's value B is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one metric: `spread` is the wider of the two files'
/// recorded A/A spreads.
pub fn verdict(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// A comparison's rows and whether any of them is a regression.
#[derive(Debug)]
pub struct Comparison {
    /// The printed report.
    pub text: String,
    /// Rows that regressed (exact-count mismatches included).
    pub regressions: usize,
    /// Rows the recorded spread could not resolve.
    pub unresolved: usize,
}

/// Compares two parsed results files. `Err` when either file is invalid,
/// a quick run, or stamped not comparable — such numbers decide nothing.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    for (label, doc) in [("A", a), ("B", b)] {
        validate(doc).map_err(|e| format!("{label} is not a valid results file: {e}"))?;
        if doc["quick"] == true {
            return Err(format!(
                "{label} is a --quick run: smoke numbers are not comparable"
            ));
        }
        if doc["comparable"] != true {
            return Err(format!(
                "{label} is stamped not comparable: {}",
                doc["not_comparable_reason"]
                    .as_str()
                    .unwrap_or("no reason recorded")
            ));
        }
    }
    // (median, recorded spread) of one end-to-end metric.
    let read = |doc: &Value, workload: &str, metric: &str| {
        let m = &doc["workloads"][workload]["end_to_end"][metric];
        (
            m["value"].as_f64().unwrap_or(f64::NAN),
            m["spread"].as_f64().unwrap_or(0.0),
        )
    };
    let mut text = format!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let ((va, sa), (vb, sb)) = (read(a, w.name, e.name), read(b, w.name, e.name));
            let spread = sa.max(sb);
            let v = verdict(va, vb, spread, e.better, e.bound);
            regressions += usize::from(v == Verdict::Regression);
            unresolved += usize::from(v == Verdict::Unresolved);
            text += &format!(
                "{:<14} {:<13} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}\n",
                w.name,
                e.name,
                va,
                vb,
                100.0 * worse_by(va, vb, e.better),
                100.0 * spread,
                100.0 * e.bound,
                v.as_str()
            );
        }
    }
    // Counts made by the program repeat exactly for one seed.
    if a["seed"] == b["seed"] {
        for w in &WORKLOADS {
            for name in EXACT_COUNTS {
                let value =
                    |doc: &Value| doc["workloads"][w.name]["per_layer"][name]["value"].as_f64();
                let (va, vb) = (value(a), value(b));
                if va != vb {
                    regressions += 1;
                    text += &format!(
                        "{:<14} {name}: exact count differs, {va:?} vs {vb:?}  regression\n",
                        w.name
                    );
                }
            }
        }
        text += "exact counts: compared (same seed)\n";
    } else {
        text += "exact counts: not compared (different seeds)\n";
    }
    text += &format!("{regressions} regression(s), {unresolved} unresolved\n");
    Ok(Comparison {
        text,
        regressions,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{edit, results};

    #[test]
    fn verdicts_on_synthetic_pairs() {
        use Better::{Higher, Lower};
        // Within the bound either way.
        assert_eq!(verdict(100.0, 107.0, 0.01, Lower, 0.08), Verdict::Ok);
        assert_eq!(verdict(100.0, 93.0, 0.01, Higher, 0.08), Verdict::Ok);
        // Worse by more than the bound.
        assert_eq!(
            verdict(100.0, 109.0, 0.01, Lower, 0.08),
            Verdict::Regression
        );
        assert_eq!(
            verdict(100.0, 91.0, 0.01, Higher, 0.08),
            Verdict::Regression
        );
        // Better is never a regression.
        assert_eq!(verdict(100.0, 50.0, 0.01, Lower, 0.08), Verdict::Ok);
        assert_eq!(verdict(100.0, 200.0, 0.01, Higher, 0.08), Verdict::Ok);
        // A spread wider than the bound decides nothing, even for a
        // difference that would otherwise regress.
        assert_eq!(
            verdict(100.0, 150.0, 0.09, Lower, 0.08),
            Verdict::Unresolved
        );
    }

    fn set_metric(
        doc: &Value,
        workload: &str,
        table: &str,
        name: &str,
        key: &str,
        to: f64,
    ) -> Value {
        edit(doc, &["workloads", workload, table, name], &mut |m| {
            m.iter_mut().find(|(k, _)| k == key).expect("key").1 = Value::Num(to);
        })
    }

    #[test]
    fn compare_reports_one_row_per_metric_and_workload() {
        let a = results(100.0, false);
        let same = compare(&a, &a).unwrap();
        assert_eq!((same.regressions, same.unresolved), (0, 0));
        assert_eq!(
            same.text.lines().filter(|l| l.ends_with(" ok")).count(),
            WORKLOADS.len() * END_TO_END.len()
        );

        // tokens_per_s down 30% on one workload: one regression.
        let slow = set_metric(
            &a,
            "wide-optim",
            "end_to_end",
            "tokens_per_s",
            "value",
            70.0,
        );
        let c = compare(&a, &slow).unwrap();
        assert_eq!((c.regressions, c.unresolved), (1, 0));
        assert!(c.text.contains("wide-optim     tokens_per_s"));

        // The same drop under a 40% recorded spread is unresolved.
        let noisy = set_metric(
            &slow,
            "wide-optim",
            "end_to_end",
            "tokens_per_s",
            "spread",
            0.4,
        );
        let c = compare(&a, &noisy).unwrap();
        assert_eq!((c.regressions, c.unresolved), (0, 1));

        // An exact count that moved is a regression whatever its size.
        let moved = set_metric(
            &a,
            "dense-compute",
            "per_layer",
            "wire.d2h_bytes_per_step",
            "value",
            2.0,
        );
        assert_eq!(compare(&a, &moved).unwrap().regressions, 1);
    }

    #[test]
    fn quick_and_invalid_files_are_rejected() {
        let good = results(100.0, false);
        assert!(compare(&good, &results(100.0, true))
            .unwrap_err()
            .contains("--quick"));
        assert!(compare(&Value::Null, &good)
            .unwrap_err()
            .contains("A is not a valid"));
    }
}
