//! `compare A.jsonl B.jsonl`: two sets of `--out` records, A the base.
//!
//! Per workload and end-to-end metric it prints both medians, the change
//! relative to A, the metric's bound and a verdict: `regressed` when B is
//! worse than A by more than the bound, `unresolved` when the spread
//! between either side's own runs (quartile distance over median) is
//! wider than the bound, so the two cannot be told apart, and `ok`
//! otherwise. Quick runs and traced runs carry no comparable numbers and
//! are skipped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{self, Better};

/// workload → metric → values, one per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub struct Report {
    pub text: String,
    pub regressed: bool,
}

fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let flag = |k: &str| v.get(k).and_then(Json::as_bool).unwrap_or(false);
        if flag("quick") || flag("trace") {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = v.get("metrics").map(Json::fields).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Quartile distance over median; `None` with fewer than two runs.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = metrics::quartiles(values)?;
    let med = metrics::median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

pub fn compare(a: &str, b: &str) -> Result<Report, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut text = format!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    let mut regressed = false;
    for w in metrics::WORKLOADS {
        for m in metrics::END_TO_END {
            let values = |runs: &Runs| {
                runs.get(w.name)
                    .and_then(|ms| ms.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
            // Positive `worse` means B is worse than A, as a share of A.
            let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
            let worse = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let widest = [spread(&va), spread(&vb)]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let verdict = if widest.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                text,
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>8}  {} (n={}/{}, of A={:.4} {})",
                w.name,
                m.name,
                ma,
                mb,
                change * 100.0,
                m.bound * 100.0,
                widest.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                verdict,
                va.len(),
                vb.len(),
                ma,
                m.unit
            );
        }
    }
    Ok(Report { text, regressed })
}

pub fn compare_files(a: &Path, b: &Path) -> Result<Report, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    compare(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, metric: &str, value: f64, extra: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": false, \"quick\": false{extra}, \
             \"metrics\": {{\"{metric}\": {{\"value\": {value}, \"unit\": \"s\"}}}}}}\n"
        )
    }

    fn runs(workload: &str, metric: &str, values: &[f64]) -> String {
        values
            .iter()
            .map(|&v| record(workload, metric, v, ""))
            .collect()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let bound = |name| {
            metrics::END_TO_END
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .bound
        };
        let scaled = |base: &[f64], f: f64| base.iter().map(|v| v * f).collect::<Vec<_>>();
        // pass_s: lower is better.
        let tight = [1.00, 1.01, 0.99, 1.00];
        let b = bound("pass_s");
        let a = runs("job_served", "pass_s", &tight);
        let verdict = |values: &[f64]| compare(&a, &runs("job_served", "pass_s", values)).unwrap();
        let same = verdict(&scaled(&tight, 1.0 + b / 2.0));
        assert!(
            same.text.contains(" ok ") && !same.regressed,
            "{}",
            same.text
        );
        let slow = verdict(&scaled(&tight, 1.0 + b * 1.5));
        assert!(
            slow.text.contains("regressed") && slow.regressed,
            "{}",
            slow.text
        );
        let fast = verdict(&scaled(&tight, 0.5));
        assert!(fast.text.contains(" ok ") && !fast.regressed);
        // A spread wider than the bound cannot be told from a regression.
        let noisy = verdict(&[1.0 - b, 1.0 + 3.0 * b, 1.0, 1.0 + 2.0 * b]);
        assert!(
            noisy.text.contains("unresolved") && !noisy.regressed,
            "{}",
            noisy.text
        );
        // queries_per_s: higher is better, so a drop regresses.
        let b = bound("queries_per_s");
        let qa = runs("job_served", "queries_per_s", &[100.0, 101.0]);
        let qps = |f: f64| {
            compare(
                &qa,
                &runs("job_served", "queries_per_s", &[100.0 * f, 101.0 * f]),
            )
        };
        assert!(qps(1.0 - b * 1.5).unwrap().regressed);
        assert!(!qps(1.0 + b * 1.5).unwrap().regressed);
    }

    #[test]
    fn quick_and_traced_records_are_not_compared() {
        let a = runs("job_served", "pass_s", &[1.0, 1.0]);
        let b = record("job_served", "pass_s", 9.0, "")
            .replace("\"quick\": false", "\"quick\": true")
            + &record("job_served", "pass_s", 9.0, "")
                .replace("\"trace\": false", "\"trace\": true");
        let r = compare(&a, &b).unwrap();
        assert_eq!(r.text.lines().count(), 1, "only the header: {}", r.text);
        assert!(compare(&a, "not json\n").is_err());
    }
}
