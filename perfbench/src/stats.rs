//! Sample statistics and the result record the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, its value is decided by a handful of outliers.
pub const MIN_TAIL: usize = 10;

/// A sorted sample set with nearest-rank percentiles.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean (`0` for an empty set).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Nearest-rank percentile `p` (`0 < p < 1`), or `None` when fewer
    /// than [`MIN_TAIL`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_TAIL).then(|| self.sorted[rank - 1])
    }

    /// One diagnostic line: the percentile with its sample count, or
    /// why it is not reported.
    pub fn describe(&self, label: &str, p: f64, unit: &str) -> String {
        let n = self.count();
        match self.percentile(p) {
            Some(v) => format!("{label} = {v:.4} {unit} (n = {n})"),
            None => format!("{label} not reported: n = {n}, needs {MIN_TAIL} samples beyond it"),
        }
    }
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, kept in sorted order so the printed record
/// is byte-stable for equal values.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// On an invalid name or a non-finite value: both are bugs in the
    /// benchmark, not conditions of the run.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.insert(name.to_owned(), (value, unit));
    }

    /// Names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` in sorted order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            );
        }
        out.push('}');
        out
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (`0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.count(), 100);
        assert_eq!(s.percentile(0.5), Some(50.0));
        // 10 samples (91..=100) lie beyond the 90th.
        assert_eq!(s.percentile(0.9), Some(90.0));
        // Only 1 sample lies beyond the 99th.
        assert_eq!(s.percentile(0.99), None);
        let big = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(big.percentile(0.99), Some(990.0));
        assert!(s.describe("p99", 0.99, "ms").contains("n = 100"));
        assert!(big.describe("p99", 0.99, "ms").contains("n = 1000"));
        assert_eq!(Samples::new(Vec::new()).percentile(0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = Samples::new((0..50).map(|i| f64::from((i * 37) % 50)).collect());
        assert_eq!(a.percentile(0.5), Some(24.0));
        assert_eq!(a.mean(), 24.5);
    }

    #[test]
    fn names_are_checked() {
        for ok in ["latency_p50_ms", "codec.entropy_us", "hot-repeat", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn metrics_print_sorted_regardless_of_insertion_order() {
        let mut a = Metrics::default();
        a.set("zeta", 1.5, "ms");
        a.set("alpha", 2.0, "s");
        a.set("mid.dle", 3.25, "count");
        let mut b = Metrics::default();
        b.set("mid.dle", 3.25, "count");
        b.set("alpha", 2.0, "s");
        b.set("zeta", 1.5, "ms");
        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<&str> = a.names().collect();
        assert_eq!(names, ["alpha", "mid.dle", "zeta"]);
        assert_eq!(
            result_line(true, 3, 0, &a),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"alpha\": {\"value\": 2, \"unit\": \"s\"}, \"mid.dle\": {\"value\": 3.25, \
             \"unit\": \"count\"}, \"zeta\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().set("bad name", 1.0, "ms");
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
