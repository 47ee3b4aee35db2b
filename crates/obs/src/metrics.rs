//! The metrics registry: lock-cheap counters, gauges, and fixed-bucket
//! log-scale histograms.
//!
//! Handles returned by the [`Registry`] are `Arc`-backed atomics — a
//! counter increment is one relaxed `fetch_add`, a histogram observation is
//! three. Every mutation commutes (adds, `fetch_max`/`fetch_min`), so a
//! snapshot taken after a parallel workload is a pure function of the
//! *multiset* of recorded values, never of thread scheduling — the property
//! the cross-thread determinism CI gate checks.
//!
//! Snapshots render to a Prometheus-style text exposition
//! ([`Snapshot::to_prometheus`]) and to pretty JSON ([`Snapshot::to_json`],
//! the `*_metrics.json` files the figure harnesses emit). Series are sorted
//! by name in both, so output is byte-stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero, one per power-of-two octave
/// up to `2^63`, and a final overflow bucket rendered as `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 66;

/// Upper bound (inclusive) of histogram bucket `i`.
///
/// `bound(0) == 0`, `bound(i) == 2^(i-1)` for `1 <= i <= 64`, and the last
/// bucket is unbounded (`u64::MAX`, rendered `+Inf`).
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=64 => 1u64 << (i - 1),
        _ => u64::MAX,
    }
}

/// Upper bound of the bucket holding the `rank`-th smallest sample
/// (1-based) of a bucketed histogram — the one walk behind every quantile
/// estimate. Each caller picks its own rank formula; a rank past the total
/// count lands in the last bucket.
#[must_use]
pub(crate) fn rank_bound(buckets: &[u64; HISTOGRAM_BUCKETS], rank: u64) -> u64 {
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_bound(i);
        }
    }
    bucket_bound(HISTOGRAM_BUCKETS - 1)
}

/// The bucket index holding `value`: the smallest `i` with
/// `value <= bucket_bound(i)`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (65 - (value - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (last write wins).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log₂-scale histogram of `u64` samples (latencies in µs,
/// sizes in bytes, …).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
        self.core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.core.buckets[i].load(Ordering::Relaxed)),
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the `⌈q·count⌉`-th smallest sample. `None` when empty.
    ///
    /// Log-scale buckets bound the estimate to within 2× of the true value;
    /// callers needing exact percentiles keep the raw samples (as the
    /// testbed's `Metrics` does).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        Some(rank_bound(&self.buckets, rank))
    }

    /// Mean sample value (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metric registry. Cloning shares the underlying store.
///
/// Registration (name → handle) takes a mutex; the returned handles are
/// lock-free. Callers on hot paths register once and reuse the handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    helps: Arc<Mutex<BTreeMap<String, String>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Renders `name{k1="v1",…}` — the series-key convention for labelled
    /// metrics. Label order is preserved as given. Label values are escaped
    /// per the Prometheus text exposition format (`\` → `\\`, `"` → `\"`,
    /// newline → `\n`), so the key is safe to emit verbatim.
    #[must_use]
    pub fn series(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut out = String::with_capacity(name.len() + 16 * labels.len());
        out.push_str(name);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
        out
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match metric {
            Metric::Counter(cell) => Counter { cell: Arc::clone(cell) },
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// A labelled counter: `counter(series(name, labels))`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&Self::series(name, labels))
    }

    /// The gauge registered under `name` (created on first use, at 0.0).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match metric {
            Metric::Gauge(cell) => Gauge { cell: Arc::clone(cell) },
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// A labelled gauge: `gauge(series(name, labels))`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&Self::series(name, labels))
    }

    /// The histogram registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCore::new())));
        match metric {
            Metric::Histogram(core) => Histogram { core: Arc::clone(core) },
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A labelled histogram: `histogram(series(name, labels))`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&Self::series(name, labels))
    }

    /// Registers the `# HELP` text of a metric family (the bare name,
    /// without labels). Families without a description get a readable
    /// default derived from the name.
    pub fn describe(&self, family: &str, help: &str) {
        self.helps.lock().expect("registry poisoned").insert(family.to_string(), help.to_string());
    }

    /// A frozen, name-sorted copy of every registered series.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(cell) => {
                    counters.push((name.clone(), cell.load(Ordering::Relaxed)));
                }
                Metric::Gauge(cell) => {
                    gauges.push((name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))));
                }
                Metric::Histogram(core) => {
                    let h = Histogram { core: Arc::clone(core) };
                    histograms.push((name.clone(), h.snapshot()));
                }
            }
        }
        let helps = self
            .helps
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Snapshot { counters, gauges, histograms, helps }
    }
}

/// A frozen view of a [`Registry`], ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(series, value)` counters, sorted by series name.
    pub counters: Vec<(String, u64)>,
    /// `(series, value)` gauges, sorted by series name.
    pub gauges: Vec<(String, f64)>,
    /// `(series, state)` histograms, sorted by series name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(family, help)` descriptions registered via [`Registry::describe`],
    /// sorted by family name.
    pub helps: Vec<(String, String)>,
}

/// Splits `name{labels}` into `(name, Some(labels))`.
fn split_series(series: &str) -> (&str, Option<&str>) {
    match series.find('{') {
        Some(i) => (&series[..i], Some(series[i + 1..].trim_end_matches('}'))),
        None => (series, None),
    }
}

/// Rejoins a family name with existing labels plus one extra label.
fn with_extra_label(family: &str, labels: Option<&str>, extra: &str) -> String {
    match labels {
        Some(l) if !l.is_empty() => format!("{family}{{{l},{extra}}}"),
        _ => format!("{family}{{{extra}}}"),
    }
}

impl Snapshot {
    /// The `# HELP` text of `family`: the registered description, or a
    /// readable default derived from the name (underscores → spaces).
    #[must_use]
    pub fn help_for(&self, family: &str) -> String {
        self.helps
            .iter()
            .find(|(f, _)| f == family)
            .map_or_else(|| family.replace('_', " "), |(_, h)| h.clone())
    }

    /// Renders the Prometheus text exposition format (metric families get
    /// one `# HELP` and one `# TYPE` line; histogram buckets are cumulative
    /// with an `le` label, `+Inf` last).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let helps = &self.helps;
        let mut type_line = |out: &mut String, series: &str, kind: &str| {
            let (family, _) = split_series(series);
            if family != last_family {
                let help = helps
                    .iter()
                    .find(|(f, _)| f == family)
                    .map_or_else(|| family.replace('_', " "), |(_, h)| h.clone());
                let _ = writeln!(out, "# HELP {family} {help}");
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family.to_string();
            }
        };
        for (series, value) in &self.counters {
            type_line(&mut out, series, "counter");
            let _ = writeln!(out, "{series} {value}");
        }
        for (series, value) in &self.gauges {
            type_line(&mut out, series, "gauge");
            let _ = writeln!(out, "{series} {value}");
        }
        for (series, h) in &self.histograms {
            type_line(&mut out, series, "histogram");
            let (family, labels) = split_series(series);
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                // Only materialize the buckets that carry data (plus +Inf),
                // as fixed 66-bucket series would drown the exposition.
                if n == 0 && i != HISTOGRAM_BUCKETS - 1 {
                    continue;
                }
                let le = if i == HISTOGRAM_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_bound(i).to_string()
                };
                let key =
                    with_extra_label(&format!("{family}_bucket"), labels, &format!("le=\"{le}\""));
                let _ = writeln!(out, "{key} {cumulative}");
            }
            let sum_key = match labels {
                Some(l) if !l.is_empty() => format!("{family}_sum{{{l}}}"),
                _ => format!("{family}_sum"),
            };
            let count_key = match labels {
                Some(l) if !l.is_empty() => format!("{family}_count{{{l}}}"),
                _ => format!("{family}_count"),
            };
            let _ = writeln!(out, "{sum_key} {}", h.sum);
            let _ = writeln!(out, "{count_key} {}", h.count);
        }
        out
    }

    /// Renders the snapshot as pretty-printed JSON — the format of the
    /// `*_metrics.json` files the figure harnesses write.
    ///
    /// Histograms are summarized (`count`, `sum`, `mean`, `p50`, `p95`,
    /// `p99`, `max`) with only their non-empty buckets listed as
    /// `[upper_bound, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(out, "  \"counters\": {{");
        for (i, (series, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {value}", json_string(series));
        }
        let _ = write!(out, "\n  }},\n  \"gauges\": {{");
        for (i, (series, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", json_string(series), json_f64(*value));
        }
        let _ = write!(out, "\n  }},\n  \"histograms\": {{");
        for (i, (series, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {{", json_string(series));
            let _ = write!(out, "\n      \"count\": {},", h.count);
            let _ = write!(out, "\n      \"sum\": {},", h.sum);
            let _ =
                write!(out, "\n      \"mean\": {},", h.mean().map_or("null".to_string(), json_f64));
            for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let _ = write!(
                    out,
                    "\n      \"{label}\": {},",
                    h.quantile(q).map_or("null".to_string(), |v| v.to_string())
                );
            }
            let _ = write!(out, "\n      \"max\": {},", h.max);
            let _ = write!(out, "\n      \"buckets\": [");
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let sep = if first { "" } else { ", " };
                first = false;
                let le = if b == HISTOGRAM_BUCKETS - 1 {
                    "\"+Inf\"".to_string()
                } else {
                    bucket_bound(b).to_string()
                };
                let _ = write!(out, "{sep}[{le}, {n}]");
            }
            let _ = write!(out, "]\n    }}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// JSON string literal with RFC 8259 escaping.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number rendering: Rust's shortest-round-trip `Display`, with the
/// non-finite values JSON lacks mapped to `null`.
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        value.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let registry = Registry::new();
        let c = registry.counter("ops_total");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        // same name → same cell
        assert_eq!(registry.counter("ops_total").get(), 10);
    }

    #[test]
    fn gauges_hold_last_value() {
        let registry = Registry::new();
        let g = registry.gauge_with("risk", &[("epoch", "3")]);
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(registry.gauge("risk{epoch=\"3\"}").get(), -2.25);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn rank_bound_walks_to_the_bucket_holding_the_rank() {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[bucket_index(3)] = 2; // two samples in (2, 4]
        buckets[bucket_index(100)] = 1; // one in (64, 128]
        assert_eq!(rank_bound(&buckets, 1), 4);
        assert_eq!(rank_bound(&buckets, 2), 4);
        assert_eq!(rank_bound(&buckets, 3), 128);
        // A rank past the total lands in the unbounded last bucket.
        assert_eq!(rank_bound(&buckets, 4), u64::MAX);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // Exact bucket edges land in the bucket they bound.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_bound(bucket_index(1024)), 1024);
        // One past an edge spills into the next bucket.
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(1025), 12);
        // Extremes.
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn every_power_of_two_is_its_own_bound() {
        for k in 0..=63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_bound(bucket_index(v)), v, "2^{k}");
            if v > 2 {
                assert_eq!(bucket_index(v - 1), bucket_index(v), "2^{k}-1 shares the bucket");
            }
        }
    }

    #[test]
    fn histogram_quantiles_use_nearest_rank() {
        let registry = Registry::new();
        let h = registry.histogram("lat_us");
        for v in [1u64, 2, 2, 4, 8] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 17);
        assert_eq!(snap.max, 8);
        // ranks: ⌈0.5·5⌉ = 3 → third smallest (2); ⌈0.99·5⌉ = 5 → 8.
        assert_eq!(snap.quantile(0.50), Some(2));
        assert_eq!(snap.quantile(0.99), Some(8));
        assert_eq!(snap.quantile(0.0), Some(1));
        assert!(HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
            .quantile(0.5)
            .is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let registry = Registry::new();
        registry.counter("z_total").inc();
        registry.counter("a_total").add(2);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_total", "z_total"]);
        assert_eq!(registry.snapshot(), snap, "idempotent");
    }

    #[test]
    fn prometheus_exposition_golden() {
        let registry = Registry::new();
        registry.counter_with("lazarus_messages_total", &[("kind", "PROPOSE")]).add(3);
        registry.counter_with("lazarus_messages_total", &[("kind", "WRITE")]).add(9);
        registry.gauge_with("lazarus_config_risk", &[("epoch", "0")]).set(12.5);
        let h = registry.histogram("lazarus_commit_latency_us");
        h.observe(900);
        h.observe(1024);
        h.observe(1025);
        // Kind-grouped (counters, gauges, histograms), name-sorted within
        // each group — the fixed order `to_prometheus` promises. Families
        // without a registered description get the derived default help.
        let expected = "\
# HELP lazarus_messages_total lazarus messages total
# TYPE lazarus_messages_total counter
lazarus_messages_total{kind=\"PROPOSE\"} 3
lazarus_messages_total{kind=\"WRITE\"} 9
# HELP lazarus_config_risk lazarus config risk
# TYPE lazarus_config_risk gauge
lazarus_config_risk{epoch=\"0\"} 12.5
# HELP lazarus_commit_latency_us lazarus commit latency us
# TYPE lazarus_commit_latency_us histogram
lazarus_commit_latency_us_bucket{le=\"1024\"} 2
lazarus_commit_latency_us_bucket{le=\"2048\"} 3
lazarus_commit_latency_us_bucket{le=\"+Inf\"} 3
lazarus_commit_latency_us_sum 2949
lazarus_commit_latency_us_count 3
";
        assert_eq!(registry.snapshot().to_prometheus(), expected);
    }

    #[test]
    fn prometheus_exposition_escapes_label_values() {
        let registry = Registry::new();
        registry.counter_with("odd_total", &[("path", "a\\b")]).add(1);
        registry.counter_with("odd_total", &[("path", "say \"hi\"")]).add(2);
        registry.counter_with("odd_total", &[("path", "two\nlines")]).add(3);
        let expected = "\
# HELP odd_total odd total
# TYPE odd_total counter
odd_total{path=\"a\\\\b\"} 1
odd_total{path=\"say \\\"hi\\\"\"} 2
odd_total{path=\"two\\nlines\"} 3
";
        assert_eq!(registry.snapshot().to_prometheus(), expected);
        // The escaped forms stay distinct series keys.
        assert_eq!(registry.counter_with("odd_total", &[("path", "a\\b")]).get(), 1);
    }

    #[test]
    fn prometheus_help_lines_use_registered_descriptions() {
        let registry = Registry::new();
        registry.counter_with("bft_wire_messages_total", &[("kind", "WRITE")]).add(4);
        registry.gauge("bft_open_slot").set(7.0);
        registry.describe("bft_wire_messages_total", "Messages sent on the wire, by kind.");
        let expected = "\
# HELP bft_wire_messages_total Messages sent on the wire, by kind.
# TYPE bft_wire_messages_total counter
bft_wire_messages_total{kind=\"WRITE\"} 4
# HELP bft_open_slot bft open slot
# TYPE bft_open_slot gauge
bft_open_slot 7
";
        let snap = registry.snapshot();
        assert_eq!(snap.to_prometheus(), expected);
        assert_eq!(snap.help_for("bft_wire_messages_total"), "Messages sent on the wire, by kind.");
        assert_eq!(snap.help_for("bft_open_slot"), "bft open slot");
    }

    #[test]
    fn json_rendering_is_valid_and_stable() {
        let registry = Registry::new();
        registry.counter("runs_total").add(7);
        registry.gauge("pct").set(37.5);
        registry.histogram("lat").observe(5);
        let a = registry.snapshot().to_json();
        let b = registry.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"runs_total\": 7"));
        assert!(a.contains("\"pct\": 37.5"));
        assert!(a.contains("[8, 1]"), "sample 5 lands in the le=8 bucket: {a}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.0), "2");
    }
}
