//! Metric collection and the run's output: one `metric` line per metric,
//! then the JSON result line.

use crate::stats::{median, Summary};

/// Collected metrics in print order: (name, value, unit, samples).
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, usize)>,
    /// Remarks printed as `note` lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric measured over `n` samples.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push((name.into(), value, unit, n));
    }

    /// Records the median of `samples` as `key`, or a note when empty.
    pub fn median(&mut self, key: &str, unit: &'static str, samples: &[f64]) {
        match median(samples) {
            Some(m) => self.put(key, m, unit, samples.len()),
            None => self.notes.push(format!("{key}: no samples")),
        }
    }

    /// Records the p50 and p99 of `samples` as `p50_key` and `p99_key`,
    /// noting a p99 with fewer than ten samples beyond it.
    pub fn percentiles(
        &mut self,
        p50_key: &str,
        p99_key: &str,
        unit: &'static str,
        samples: Vec<f64>,
    ) {
        match Summary::of(samples) {
            Some(s) => {
                self.put(p50_key, s.p50, unit, s.n);
                self.put(p99_key, s.p99, unit, s.n);
                if !s.p99_resolved() {
                    self.notes.push(format!(
                        "{p99_key}: {} samples, fewer than ten beyond the p99",
                        s.n
                    ));
                }
            }
            None => self.notes.push(format!("{p50_key}: no samples")),
        }
    }

    /// The measured value of `key`, if any.
    pub fn get(&self, key: &str) -> Option<&(String, f64, &'static str, usize)> {
        self.metrics.iter().find(|m| m.0 == key && m.1.is_finite())
    }

    /// Prints every metric as a line, then the JSON result holding the
    /// metrics named in `keys`.
    pub fn print(&self, keys: &[&str], correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit, n) in &self.metrics {
            println!("metric {name} {value:.6} {unit} n={n}");
        }
        for note in &self.notes {
            println!("note {note}");
        }
        let metrics: Vec<String> = keys
            .iter()
            .filter_map(|key| self.get(key))
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
    }
}
