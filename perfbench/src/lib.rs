//! Pure parts of the study benchmark: order statistics, the parameter
//! fingerprint, metric-name validation, the host fingerprint, and the
//! result line the benchmark prints last.
//!
//! Everything here is free of timing and I/O so it can be unit-tested; the
//! measuring lives in the binary (`src/main.rs`, `src/study.rs`,
//! `src/layers.rs`).

use serde::Number;
use serde_json::Value;

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// there are none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Percentiles the tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// FNV-1a over the bit patterns of `params`: equal strings mean bit-equal
/// parameter vectors.
pub fn params_fingerprint(params: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The CPU model from `/proc/cpuinfo` text (`"unknown"` when absent).
pub fn cpu_model(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .find_map(|l| {
            let (key, value) = l.split_once(':')?;
            matches!(key.trim(), "model name" | "Model" | "cpu model").then(|| value.trim())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or("unknown")
        .to_string()
}

/// What a result depends on besides the code: results are comparable only
/// between equal fingerprints.
#[derive(Clone, Debug, PartialEq)]
pub struct HostFingerprint {
    /// Cores available to this process.
    pub cores: usize,
    /// The dispatched GEMM microkernel tier (`scalar`, `avx2`, `neon`).
    pub kernel: String,
    /// CPU model name.
    pub cpu: String,
}

impl HostFingerprint {
    /// One-line rendering, e.g. `cores=2 kernel=avx2 cpu="Xeon"`.
    pub fn render(&self) -> String {
        format!(
            "cores={} kernel={} cpu={:?}",
            self.cores, self.kernel, self.cpu
        )
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, …).
    pub unit: String,
}

impl Metric {
    /// A metric; the name is checked when the result is rendered.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The benchmark's final stdout line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Client rounds dispatched.
    pub attempted: u64,
    /// Client rounds that crashed, were rejected, or belonged to a study
    /// that panicked.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Renders the one-line JSON object
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    /// Errors on an invalid or repeated name or a non-finite value.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics: Vec<(String, Value)> = Vec::new();
        for m in &self.metrics {
            if !valid_metric_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if metrics.iter().any(|(k, _)| *k == m.name) {
                return Err(format!("metric {:?} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {:?} is not finite: {}", m.name, m.value));
            }
            metrics.push((
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Number(Number::Float(m.value))),
                    ("unit".into(), Value::String(m.unit.clone())),
                ]),
            ));
        }
        let doc = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            (
                "attempted".into(),
                Value::Number(Number::PosInt(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::PosInt(self.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a line rendered by [`RunResult::to_json`], checking its schema.
    fn from_json(line: &str) -> Result<RunResult, String> {
        let doc = serde_json::parse(line).map_err(|e| e.to_string())?;
        let Value::Object(keys) = &doc else {
            return Err("result is not an object".into());
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        if names != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {names:?}"));
        }
        let count = |key: &str| match doc.get(key) {
            Some(Value::Number(n)) => n.as_u64().ok_or(format!("{key} is not a whole number")),
            _ => Err(format!("{key} missing")),
        };
        let correct = match doc.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("correct is not a bool".into()),
        };
        let Some(Value::Object(entries)) = doc.get("metrics") else {
            return Err("metrics is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            let value = match m.get("value") {
                Some(Value::Number(n)) => n.as_f64(),
                _ => return Err(format!("{name}: value missing")),
            };
            let unit = match m.get("unit") {
                Some(Value::String(u)) => u.clone(),
                _ => return Err(format!("{name}: unit missing")),
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit,
            });
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }

    #[test]
    fn fingerprint_sees_every_bit() {
        let a = [1.0f32, -2.5, 0.0];
        assert_eq!(params_fingerprint(&a), params_fingerprint(a.as_slice()));
        assert_eq!(params_fingerprint(&a).len(), 16);
        // Negative zero and a one-ulp change both differ.
        assert_ne!(
            params_fingerprint(&a),
            params_fingerprint(&[1.0, -2.5, -0.0])
        );
        let nudged = [1.0f32, f32::from_bits((-2.5f32).to_bits() + 1), 0.0];
        assert_ne!(params_fingerprint(&a), params_fingerprint(&nudged));
        // Order matters.
        assert_ne!(
            params_fingerprint(&a),
            params_fingerprint(&[-2.5, 1.0, 0.0])
        );
        assert_eq!(params_fingerprint(&[]), "cbf29ce484222325");
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in ["setup_s", "round_ms.p50", "tensor.gemm_gflops", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "ms%",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn result_schema_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("study_s", 2.718_281_828_459_1, "s"),
                Metric::new("round_ms.p50", 0.1, "ms"),
                Metric::new("peak_rss_mib", 12.0, "MiB"),
            ],
        };
        let line = r.to_json().unwrap();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1234,\"failed\":0,"));
        assert_eq!(from_json(&line).unwrap(), r);
    }

    #[test]
    fn result_rejects_bad_metrics() {
        let with = |metrics| RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(with(vec![Metric::new("bad name", 1.0, "s")])
            .to_json()
            .is_err());
        assert!(with(vec![Metric::new("x", f64::NAN, "s")])
            .to_json()
            .is_err());
        let twice = vec![Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
        assert!(with(twice).to_json().is_err());
        assert!(from_json("{\"correct\":true}").is_err());
        assert!(from_json("[1]").is_err());
    }

    #[test]
    fn cpu_model_is_read_from_cpuinfo() {
        let x86 = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R)\n";
        assert_eq!(cpu_model(x86), "Intel(R) Xeon(R)");
        assert_eq!(cpu_model("processor : 0\n"), "unknown");
        let host = HostFingerprint {
            cores: 2,
            kernel: "avx2".into(),
            cpu: "Intel(R) Xeon(R)".into(),
        };
        assert_eq!(
            host.render(),
            "cores=2 kernel=avx2 cpu=\"Intel(R) Xeon(R)\""
        );
    }
}
