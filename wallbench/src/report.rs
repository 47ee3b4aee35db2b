//! What a run reports: named metrics with units, correctness counts, and
//! the self-describing shape of the load, plus the small statistics
//! helpers every workload shares.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations, rounds or scenario runs attempted.
    pub attempted: u64,
    /// Attempts that failed or returned a wrong result.
    pub failed: u64,
    /// Human-readable reasons for the first few failures.
    pub failures: Vec<String>,
    /// The measured metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Load shape and input sizes, so a change in size is never mistaken
    /// for a change in speed.
    pub shape: Vec<(&'static str, String)>,
}

impl Report {
    /// Sets a metric listed in [`crate::END_TO_END`] or [`crate::PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name in neither list (a bug in the benchmark).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one attempt and whether its output was correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records a batch of attempts, `failed` of which went wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, reasons: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(reasons.into_iter().take(room));
    }

    /// Adds one entry to the load shape.
    pub fn shape(&mut self, key: &'static str, value: impl ToString) {
        self.shape.push((key, value.to_string()));
    }

    /// True when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The shape line printed before the result: load shape, input sizes,
    /// error rate and failure reasons.
    pub fn shape_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}");
        for (k, v) in &self.shape {
            let _ = write!(out, ", \"{k}\": \"{}\"", escape(v));
        }
        let rate =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = write!(out, ", \"error_rate\": {}", json_number(rate));
        out.push_str(", \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(f));
        }
        out.push_str("]}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A metric that could not be measured is printed as a negative
        // sentinel rather than invalid JSON; `normalize` has already failed
        // the run for it.
        "-1".to_string()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Nearest-rank quantile of an ascending-sorted sample (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a sample and returns it (for chained quantile calls).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Mean of a sample (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Mean over `items` of a per-item statistic.
pub fn mean_of<T>(items: &[T], stat: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(stat).collect::<Vec<_>>())
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 0.999), 100.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("setup_s", 0.25);
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check(false, || "bad \"reply\"".into());
        assert!(!r.correct());
        assert!(r.shape_json("w", 1, false).contains("bad \\\"reply\\\""));
    }
}
