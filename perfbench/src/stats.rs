//! Sample sets, percentiles and the metric list a run prints.

use std::fmt::Write as _;

/// Minimum number of samples that must lie beyond a percentile before it
/// is reported: a p90 from fewer than ten tail samples is mostly noise.
pub const TAIL_SAMPLES: usize = 10;

/// Samples of one measured quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Median (mean of the middle pair for even counts); `None` when empty.
    pub fn median(&self) -> Option<f64> {
        let mut v = self.0.clone();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Some(if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        })
    }

    /// The `q` quantile (nearest rank), reported only when at least
    /// [`TAIL_SAMPLES`] samples lie strictly beyond its rank.
    pub fn tail_quantile(&self, q: f64) -> Option<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        if rank == 0 || v.len() - rank < TAIL_SAMPLES {
            return None;
        }
        Some(v[rank - 1])
    }
}

/// Median of integer counts (deterministic, so reported as measured).
pub fn median_count(values: &[u64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v as f64);
    }
    s.median().unwrap_or(0.0)
}

/// One named metric of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a run.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label (`ms`, `count`, ...).
    pub unit: &'static str,
    /// Samples the value summarizes, when it is a statistic.
    pub samples: Option<usize>,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    /// Adds a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    /// Adds a median of `samples` (skipped when there are none).
    pub fn median(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        if let Some(value) = samples.median() {
            self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
                samples: Some(samples.len()),
            });
        }
    }

    /// Adds a p90 of `samples` when enough samples lie beyond it.
    pub fn p90(&mut self, name: &str, samples: &Samples) {
        if let Some(value) = samples.tail_quantile(0.9) {
            self.0.push(Metric {
                name: name.to_string(),
                value,
                unit: "ms",
                samples: Some(samples.len()),
            });
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Human-readable lines, one metric each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(
                out,
                "  {:<28} {:>14} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        out
    }

    /// The `metrics` object of the result line, restricted to `names` in
    /// that order. Every name must be present.
    pub fn to_json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_value(m.value),
                m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Formats a value with all its digits (shortest round-trip form).
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Milliseconds in a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 0..n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples(99).tail_quantile(0.9), None);
        assert_eq!(samples(100).tail_quantile(0.9), Some(89.0));
        let mut set = MetricSet::default();
        set.p90("x_p90", &samples(50));
        assert!(set.get("x_p90").is_none());
        set.p90("x_p90", &samples(120));
        assert!(set.get("x_p90").is_some());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(samples(5).median(), Some(2.0));
        assert_eq!(samples(4).median(), Some(1.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn json_lists_exactly_the_requested_names() {
        let mut set = MetricSet::default();
        set.add("a", 1.5, "ms");
        set.add("b", 2.0, "count");
        assert_eq!(
            set.to_json(&["b"]).unwrap(),
            "{\"b\": {\"value\": 2, \"unit\": \"count\"}}"
        );
        assert!(set.to_json(&["c"]).is_err());
    }
}
