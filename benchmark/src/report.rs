//! The metrics the benchmark declares, and the report of one run: a table
//! for people, one JSON line for the driver, one JSON file for later
//! comparison (`aa.sh`).

use crate::json::Json;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics, in `BENCHMARK.json` order: name and unit. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("insts_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sr_speedup_geomean", "ratio"),
];

/// One measured metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Inter-quartile range over the run's passes as a share of the
    /// median, where the metric is a median over passes.
    pub spread: Option<f64>,
    /// A count of simulated or compiled work: two runs of one seed must
    /// agree on every digit of it.
    pub exact: bool,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit, value, spread: None, exact: false }
    }
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    /// Measured and calibrated seconds of each pass of the script, in the
    /// order they ran.
    pub passes: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failures and remarks, printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics.iter().map(|m| (m.name.clone(), Json::Obj(fields(m)))).collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name, with its unit.
    pub fn table(&self, host: &Host) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}) seed={} passes={} attempted={} failed={}",
            self.workload,
            if self.traced { "traced, per-layer" } else { "untraced, end-to-end" },
            self.seed,
            self.passes.len(),
            self.attempted,
            self.failed
        );
        let _ = writeln!(out, "   host: {}", host.line());
        let _ = writeln!(
            out,
            "   model unvalidated against hardware: simulated figures carry no error estimate"
        );
        for m in &self.metrics {
            let spread =
                m.spread.map_or(String::new(), |s| format!("  (IQR {:.1}% of median)", s * 100.0));
            let _ = writeln!(out, "   {:<44} {:>16.6} {}{}", m.name, m.value, m.unit, spread);
        }
        for note in &self.notes {
            let _ = writeln!(out, "   note: {note}");
        }
        out
    }

    /// The report file: the result with spreads and the host fingerprint.
    pub fn file(&self, host: &Host) -> String {
        let mut members = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            (
                "pass_wall_s".to_string(),
                Json::Arr(self.passes.iter().map(|p| Json::Num(p.0)).collect()),
            ),
            (
                "pass_calibrated_s".to_string(),
                Json::Arr(self.passes.iter().map(|p| Json::Num(p.1)).collect()),
            ),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("host".to_string(), host.json()),
        ];
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = fields(m);
                if let Some(s) = m.spread {
                    fields.push(("iqr_share".into(), Json::Num(s)));
                }
                if m.exact {
                    fields.push(("exact".into(), Json::Bool(true)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        members.push(("metrics".to_string(), Json::Obj(metrics)));
        let mut text = Json::Obj(members).render();
        text.push('\n');
        text
    }
}

/// The `value` and `unit` members every reader of a metric expects.
fn fields(m: &Metric) -> Vec<(String, Json)> {
    vec![
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::Str(m.unit.to_string())),
    ]
}

/// What the numbers were measured on.
pub struct Host {
    nproc: usize,
    cpu: String,
    kernel: String,
    rustc: String,
    commit: String,
}

impl Host {
    /// Reads the fingerprint; `root` is the checkout.
    pub fn read(root: &Path) -> Host {
        let run = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .current_dir(root)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    Some(l.strip_prefix("model name")?.split_once(':')?.1.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel: run("uname", &["-sr"]),
            rustc: run("rustc", &["--version"]),
            // The driver's checkout is not a repository.
            commit: run("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    fn line(&self) -> String {
        format!(
            "nproc={} cpu={:?} kernel={:?} rustc={:?} commit={}",
            self.nproc, self.cpu, self.kernel, self.rustc, self.commit
        )
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("cpu".into(), Json::Str(self.cpu.clone())),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).unwrap()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for w in crate::workloads::NAMES {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }
        assert!(PER_LAYER.len() <= 128);
        for exact in crate::layers::EXACT {
            assert!(PER_LAYER.iter().any(|(name, _)| *name == exact), "{exact} is not declared");
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let report = Report {
            workload: "lane-hot".into(),
            traced: false,
            seed: 3,
            passes: vec![(0.1, 0.1); 9],
            attempted: 180,
            failed: 0,
            metrics: vec![
                Metric { spread: Some(0.02), ..Metric::new("ops_per_s", "1/s", 287.123_456_789) },
                Metric::new("setup_s", "s", 0.512_345_678_9),
            ],
            notes: Vec::new(),
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(members) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let ops = doc.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(287.123_456_789));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
        let host = Host::read(Path::new("."));
        let file = Json::parse(&report.file(&host)).unwrap();
        let spread = file.get("metrics").unwrap().get("ops_per_s").unwrap().get("iqr_share");
        assert_eq!(spread.and_then(Json::as_f64), Some(0.02));
        assert!(file.get("host").unwrap().get("nproc").is_some());
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let report = Report {
            workload: "x".into(),
            traced: false,
            seed: 0,
            passes: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
        assert!(!report.correct());
    }
}
