//! The A/A check behind `aa.sh`: two complete sets of reports from one
//! build must agree within the benchmark's own bounds, and on every digit
//! of every count of simulated or compiled work.

use crate::json::Json;
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::path::Path;

/// One metric of one report file.
struct Reading {
    value: f64,
    iqr_share: Option<f64>,
    exact: bool,
}

fn read_report(path: &Path) -> Result<Vec<(String, Reading)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: the run was not correct", path.display()));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{}: no metrics", path.display()));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or(format!("{name}: no value"))?;
            let reading = Reading {
                value,
                iqr_share: m.get("iqr_share").and_then(Json::as_f64),
                exact: m.get("exact") == Some(&Json::Bool(true)),
            };
            Ok((name.clone(), reading))
        })
        .collect()
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compares the reports in `a` with those in `b`; returns the table and
/// whether every pairing agrees.
pub fn compare(benchmark_json: &str, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let mut out = String::new();
    let mut agree = true;
    let _ = writeln!(
        out,
        "{:<13} {:<20} {:>16} {:>7} {:>16} {:>7} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "IQR", "second", "IQR", "second/first", "bound"
    );
    for workload in NAMES {
        let file = format!("{workload}.end_to_end.json");
        let (first, second) = (read_report(&a.join(&file))?, read_report(&b.join(&file))?);
        for ((name, x), (_, y)) in first.iter().zip(&second) {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or(format!("{name} is not declared in BENCHMARK.json"))?;
            let ratio = y.value / x.value;
            let ok = if x.exact { x.value == y.value } else { (ratio - 1.0).abs() <= bound };
            agree &= ok;
            let iqr =
                |r: &Reading| r.iqr_share.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{workload:<13} {name:<20} {:>16.6} {:>7} {:>16.6} {:>7} {ratio:>12.4} {:>7}  {}",
                x.value,
                iqr(x),
                y.value,
                iqr(y),
                if x.exact { "exact".to_string() } else { format!("{:.1}%", bound * 100.0) },
                if ok { "ok" } else { "DIFFERS" }
            );
        }
        let file = format!("{workload}.layers.json");
        let (first, second) = (read_report(&a.join(&file))?, read_report(&b.join(&file))?);
        let mut counts = 0;
        for ((name, x), (_, y)) in first.iter().zip(&second).filter(|((_, x), _)| x.exact) {
            counts += 1;
            if x.value != y.value {
                agree = false;
                let _ =
                    writeln!(out, "{workload:<13} {name}: {} then {}  DIFFERS", x.value, y.value);
            }
        }
        let _ = writeln!(out, "{workload:<13} {counts} per-layer counts compared digit for digit");
    }
    Ok((out, agree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Host, Metric, Report};

    const DECLARED: &str = r#"{"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "sr_speedup_geomean", "unit": "ratio", "better": "higher", "bound": 0.001}]}"#;

    fn write_reports(dir: &Path, ops_per_s: f64, speedup: f64, forks: f64) {
        std::fs::create_dir_all(dir).unwrap();
        let host = Host::read(Path::new("."));
        for workload in NAMES {
            let mut report = Report {
                workload: workload.to_string(),
                traced: false,
                seed: 1,
                passes: vec![(0.1, 0.1); 3],
                attempted: 3,
                failed: 0,
                metrics: vec![
                    Metric { spread: Some(0.01), ..Metric::new("ops_per_s", "1/s", ops_per_s) },
                    Metric { exact: true, ..Metric::new("sr_speedup_geomean", "ratio", speedup) },
                ],
                notes: Vec::new(),
            };
            std::fs::write(dir.join(format!("{workload}.end_to_end.json")), report.file(&host))
                .unwrap();
            report.metrics = vec![
                Metric { exact: true, ..Metric::new("sim.sweep.forks", "count", forks) },
                Metric::new("ir.parse.us_per_kernel", "us", ops_per_s),
            ];
            std::fs::write(dir.join(format!("{workload}.layers.json")), report.file(&host))
                .unwrap();
        }
    }

    #[test]
    fn agrees_within_bounds_and_rejects_drift_and_changed_counts() {
        // Inside the benchmark's own, ignored, output directory.
        let tmp = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-aa-{}", std::process::id()));
        let dir = |n: &str| tmp.join(n);
        write_reports(&dir("base"), 100.0, 1.335, 72.0);
        write_reports(&dir("near"), 108.0, 1.335, 72.0);
        write_reports(&dir("slow"), 88.0, 1.335, 72.0);
        write_reports(&dir("model"), 100.0, 1.3351, 72.0);
        write_reports(&dir("forks"), 100.0, 1.335, 73.0);
        let verdict = |other: &str| compare(DECLARED, &dir("base"), &dir(other)).unwrap();
        let (table, ok) = verdict("near");
        assert!(ok, "{table}");
        assert!(table.contains("1.0800"));
        assert!(!verdict("slow").1, "12 % is outside a 10 % bound");
        assert!(!verdict("model").1, "an exact metric may not move at all");
        let (table, ok) = verdict("forks");
        assert!(!ok && table.contains("sim.sweep.forks: 72 then 73"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
