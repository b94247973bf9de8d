//! What a run prints and what `all` writes: the one-line result of the
//! driver interface, the human-readable table, and `results.json` with
//! its validator.

use serde_json::Value;

use crate::run::RunResult;
use crate::schema::{obj, unit_of, Source, END_TO_END, PER_LAYER};
use crate::stats::{iqr, median};
use crate::workloads::WORKLOADS;

/// Version of the `results.json` layout.
pub const RESULTS_SCHEMA: u64 = 1;

/// The metric names a run with `--trace 0` / `--trace 1` must report.
pub fn expected_metrics(traced: bool) -> Vec<&'static str> {
    if traced {
        PER_LAYER.iter().map(|p| p.name).collect()
    } else {
        END_TO_END.iter().map(|e| e.name).collect()
    }
}

/// The driver interface's last line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every expected name in
/// table order. A metric the run could not produce (a failed run) reads
/// 0 and the result is not correct.
pub fn result_line(r: &RunResult, traced: bool) -> String {
    let names = expected_metrics(traced);
    let complete = names
        .iter()
        .all(|n| r.metrics.get(*n).is_some_and(|v| v.is_finite()));
    let metrics = names
        .iter()
        .map(|name| {
            let value = r.metrics.get(*name).copied().filter(|v| v.is_finite());
            (
                name.to_string(),
                obj(vec![
                    ("value", Value::Num(value.unwrap_or(0.0))),
                    ("unit", Value::Str(unit_of(name).unwrap_or("").to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(r.correct() && complete)),
        ("attempted", Value::Num(r.attempted.max(1) as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ])
    .to_json()
}

/// Every metric by name with its unit, then the run's notes and any
/// failed correctness check.
pub fn table(workload: &str, r: &RunResult, traced: bool) -> String {
    let mut out = format!(
        "== {workload} ({}) ==\n",
        if traced {
            "per-layer, traced run"
        } else {
            "end-to-end, tracing off"
        }
    );
    for name in expected_metrics(traced) {
        let value = r.metrics.get(name).copied().unwrap_or(f64::NAN);
        out += &format!("{name:<32} {value:>16.4} {}\n", unit_of(name).unwrap_or(""));
    }
    out += &format!(
        "steps attempted {}, failed {} (step_fail_ratio {:.4})\n",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for note in &r.notes {
        out += &format!("{note}\n");
    }
    for problem in &r.problems {
        out += &format!("INCORRECT: {problem}\n");
    }
    out
}

/// Copies every probe metric of the result line `from` into `into`.
pub fn share_probes(from: &Value, into: &mut Value) {
    let Value::Object(top) = into else { return };
    let Some((_, Value::Object(metrics))) = top.iter_mut().find(|(k, _)| k == "metrics") else {
        return;
    };
    for (name, value) in metrics.iter_mut() {
        let is_probe = PER_LAYER
            .iter()
            .any(|p| p.name == name && p.source == Source::Probe);
        if let (true, Some(probed)) = (is_probe, from["metrics"].get(name)) {
            *value = probed.clone();
        }
    }
}

/// One workload's entry of `results.json`, from its end-to-end runs (same
/// seed, back to back) and its per-layer run.
pub fn workload_entry(e2e: &[Value], per_layer: &Value) -> Result<Value, String> {
    let metric = |run: &Value, name: &str| -> Result<f64, String> {
        run.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("a run did not report {name}"))
    };
    let flag = |run: &Value| run.get("correct").and_then(Value::as_bool) == Some(true);
    let count = |run: &Value, key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);

    let mut end_to_end = Vec::new();
    for e in &END_TO_END {
        let runs = e2e
            .iter()
            .map(|run| metric(run, e.name))
            .collect::<Result<Vec<f64>, String>>()?;
        let mid = median(&runs);
        end_to_end.push((
            e.name.to_string(),
            obj(vec![
                ("value", Value::Num(mid)),
                ("unit", Value::Str(e.unit.to_string())),
                // The A/A spread `compare` holds against the bound.
                (
                    "spread",
                    Value::Num(if mid != 0.0 {
                        iqr(&runs) / mid.abs()
                    } else {
                        0.0
                    }),
                ),
                (
                    "runs",
                    Value::Array(runs.into_iter().map(Value::Num).collect()),
                ),
            ]),
        ));
    }
    let mut layers = Vec::new();
    for p in &PER_LAYER {
        layers.push((
            p.name.to_string(),
            obj(vec![
                ("value", Value::Num(metric(per_layer, p.name)?)),
                ("unit", Value::Str(p.unit.to_string())),
            ]),
        ));
    }
    Ok(obj(vec![
        (
            "correct",
            Value::Bool(e2e.iter().all(flag) && flag(per_layer)),
        ),
        // Sample counts: steps behind each end-to-end run.
        (
            "attempted",
            Value::Array(
                e2e.iter()
                    .map(|r| Value::Num(count(r, "attempted")))
                    .collect(),
            ),
        ),
        (
            "failed",
            Value::Num(e2e.iter().map(|r| count(r, "failed")).sum()),
        ),
        ("end_to_end", Value::Object(end_to_end)),
        ("per_layer", Value::Object(layers)),
    ]))
}

/// Checks a parsed `results.json`: known layout version, every workload
/// and no other, every metric of both tables present as a finite number
/// (the JSON writer turns NaN into `null`, which is not a number).
pub fn validate(doc: &Value) -> Result<(), String> {
    if doc.get("schema").and_then(Value::as_u64) != Some(RESULTS_SCHEMA) {
        return Err(format!("schema is not {RESULTS_SCHEMA}"));
    }
    for key in ["quick", "comparable"] {
        if doc.get(key).and_then(Value::as_bool).is_none() {
            return Err(format!("{key} is missing or not a boolean"));
        }
    }
    if doc.get("seed").and_then(Value::as_u64).is_none() {
        return Err("seed is missing".into());
    }
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("workloads is missing")?;
    for (name, _) in workloads {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    for w in &WORKLOADS {
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .ok_or_else(|| format!("workload {} is missing", w.name))?;
        let tables: [(&str, Vec<&str>); 2] = [
            ("end_to_end", expected_metrics(false)),
            ("per_layer", expected_metrics(true)),
        ];
        for (table, names) in tables {
            for name in names {
                let value = entry
                    .get(table)
                    .and_then(|t| t.get(name))
                    .ok_or_else(|| format!("{}: metric {name} is missing", w.name))?
                    .get("value")
                    .and_then(Value::as_f64);
                if !value.is_some_and(f64::is_finite) {
                    return Err(format!("{}: metric {name} is not a finite number", w.name));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A complete single-run line with every metric set to `value`.
    pub fn line(traced: bool, value: f64) -> Value {
        let mut r = RunResult {
            attempted: 50,
            ..RunResult::default()
        };
        for name in expected_metrics(traced) {
            r.metrics.insert(name.to_string(), value);
        }
        Value::parse(&result_line(&r, traced)).unwrap()
    }

    /// A valid results document whose end-to-end metrics all read `value`.
    pub fn results(value: f64, quick: bool) -> Value {
        let entry = workload_entry(&[line(false, value)], &line(true, 1.0)).unwrap();
        obj(vec![
            ("schema", Value::Num(RESULTS_SCHEMA as f64)),
            ("quick", Value::Bool(quick)),
            ("comparable", Value::Bool(true)),
            ("seed", Value::Num(1.0)),
            (
                "workloads",
                Value::Object(
                    WORKLOADS
                        .iter()
                        .map(|w| (w.name.to_string(), entry.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    pub type Entries = Vec<(String, Value)>;

    /// A copy of `doc` with `f` applied to the object at `path`.
    pub fn edit(doc: &Value, path: &[&str], f: &mut dyn FnMut(&mut Entries)) -> Value {
        let mut doc = doc.clone();
        fn walk(v: &mut Value, path: &[&str], f: &mut dyn FnMut(&mut Entries)) {
            let Value::Object(entries) = v else {
                panic!("not an object")
            };
            match path.split_first() {
                None => f(entries),
                Some((key, rest)) => {
                    let next = entries.iter_mut().find(|(k, _)| k == key).expect("key");
                    walk(&mut next.1, rest, f);
                }
            }
        }
        walk(&mut doc, path, f);
        doc
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = line(false, 1.5);
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        assert_eq!(v["correct"], true);
        assert_eq!(
            line(true, 2.0)["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_missing_or_nan_metric_makes_the_line_incorrect() {
        let mut r = RunResult {
            attempted: 1,
            ..RunResult::default()
        };
        for name in expected_metrics(false) {
            r.metrics.insert(name.to_string(), 1.0);
        }
        r.metrics.insert("loss_final".into(), f64::NAN);
        let v = Value::parse(&result_line(&r, false)).unwrap();
        assert_eq!(v["correct"], false);
        assert_eq!(v["metrics"]["loss_final"]["value"], 0.0);
        r.metrics.remove("loss_final");
        assert_eq!(
            Value::parse(&result_line(&r, false)).unwrap()["correct"],
            false
        );
    }

    #[test]
    fn share_probes_copies_probe_metrics_only() {
        let (from, mut into) = (line(true, 7.0), line(true, 0.0));
        share_probes(&from, &mut into);
        assert_eq!(into["metrics"]["tensor.gemm_nn_gflops"]["value"], 7.0);
        assert_eq!(into["metrics"]["ckpt.encode_mbps"]["value"], 7.0);
        assert_eq!(into["metrics"]["phase.fwd_bwd_ms"]["value"], 0.0);
        assert_eq!(into["metrics"]["nn.fwd_bwd_ms"]["value"], 0.0);
    }

    #[test]
    fn validator_accepts_a_complete_file() {
        validate(&results(3.0, false)).unwrap();
    }

    #[test]
    fn validator_red_paths() {
        let good = results(3.0, false);
        // Missing metric.
        let missing = edit(&good, &["workloads", "wide-nvme", "end_to_end"], &mut |m| {
            m.retain(|(k, _)| k != "peak_rss_mb");
        });
        assert!(validate(&missing)
            .unwrap_err()
            .contains("peak_rss_mb is missing"));
        // NaN: the writer emits null.
        let nan = edit(
            &good,
            &["workloads", "serve-mixed", "per_layer", "serve.jain_index"],
            &mut |m| m[0].1 = Value::Num(f64::NAN),
        );
        let reparsed = Value::parse(&nan.to_json()).unwrap();
        assert!(validate(&reparsed)
            .unwrap_err()
            .contains("not a finite number"));
        // Unknown workload.
        let unknown = edit(&good, &["workloads"], &mut |m| {
            m.push(("dense-computer".into(), Value::Null));
        });
        assert!(validate(&unknown).unwrap_err().contains("unknown workload"));
        // A workload left out.
        let short = edit(&good, &["workloads"], &mut |m| {
            m.retain(|(k, _)| k != "wide-optim");
        });
        assert!(validate(&short)
            .unwrap_err()
            .contains("wide-optim is missing"));
        // Wrong layout version.
        let old = edit(&good, &[], &mut |m| m[0].1 = Value::Num(0.0));
        assert!(validate(&old).is_err());
    }

    #[test]
    fn spread_is_the_iqr_share_of_the_median() {
        let runs = [line(false, 90.0), line(false, 100.0), line(false, 110.0)];
        let entry = workload_entry(&runs, &line(true, 1.0)).unwrap();
        let m = &entry["end_to_end"]["tokens_per_s"];
        assert_eq!(m["value"], 100.0);
        assert_eq!(m["spread"], 0.2);
    }
}
