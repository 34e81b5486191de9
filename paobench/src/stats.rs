//! Order statistics and the result line.

use std::fmt::Write as _;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    frac(v.iter().sum(), v.len() as f64)
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest sample with at least ten samples above it, with the
/// percentile it sits at. Below eleven samples no such percentile
/// exists, so the maximum is reported (percentile 100).
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    match s.len() {
        0 => (0.0, 100.0),
        n if n <= 10 => (s[n - 1], 100.0),
        n => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// Aligned `name value unit` lines for people reading the log.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Operation tally: every analysis, query, ECO and output check counts
/// once; failures include refused requests and failed checks.
#[derive(Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The final line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, ops: Ops, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&v), 10.5);
        assert_eq!(quantile(&v, 0.99), 20.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(tail(&v), (10.0, 50.0));
        assert_eq!(tail(&v[..5]), (5.0, 100.0));
        assert_eq!(frac(1.0, 0.0), 0.0);
    }
}
