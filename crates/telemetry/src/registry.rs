//! A metrics registry: named counters, gauges and fixed-bucket histograms.
//!
//! The structured replacement for ad-hoc stat fields: experiments snapshot
//! model counters into a registry at the end of a run and read them by
//! name. Keys are plain strings so callers can prefix them with node names
//! (`"server.frames_processed"`).

use std::collections::BTreeMap;

/// Default histogram bucket upper bounds (log-ish sweep covering ns-scale
/// latencies through multi-second totals).
pub const DEFAULT_BOUNDS: [f64; 10] = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11];

/// A histogram over a fixed set of bucket upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    /// Inclusive upper bound per bucket, strictly increasing; one overflow
    /// bucket is appended implicitly.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl FixedHistogram {
    /// Creates a histogram with the given bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        FixedHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// `(upper_bound, count)` pairs; the final pair uses `f64::INFINITY`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket counts: the
    /// upper bound of the bucket containing the q-th observation. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bound, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return bound;
            }
        }
        f64::INFINITY
    }

    /// Merges another histogram with identical bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Named counters, gauges and histograms.
///
/// ```rust
/// use ioat_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.add("frames", 3);
/// reg.add("frames", 2);
/// reg.set_gauge("cpu", 0.42);
/// reg.observe("latency_ns", 1500.0);
/// assert_eq!(reg.counter("frames"), 5);
/// assert_eq!(reg.histogram("latency_ns").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, FixedHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Declares a histogram with explicit bucket bounds; a no-op if it
    /// already exists.
    pub fn declare_histogram(&mut self, name: &str, bounds: &[f64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| FixedHistogram::new(bounds));
    }

    /// Records an observation, auto-declaring the histogram with
    /// [`DEFAULT_BOUNDS`] when needed.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| FixedHistogram::new(&DEFAULT_BOUNDS))
            .record(v);
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&FixedHistogram> {
        self.histograms.get(name)
    }

    /// Folds another registry into this one (counters add, gauges take the
    /// other's value, histograms merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.inc("a");
        r.add("a", 4);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("u", 0.5);
        r.set_gauge("u", 0.7);
        assert_eq!(r.gauge("u"), Some(0.7));
        assert_eq!(r.gauge("v"), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = FixedHistogram::new(&[10.0, 100.0, 1000.0]);
        for v in [1.0, 5.0, 50.0, 500.0, 5000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5556.0);
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
        // 2 of 5 observations ≤ 10 → p40 lands in the first bucket.
        assert_eq!(h.quantile(0.4), 10.0);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert_eq!(FixedHistogram::new(&[1.0]).quantile(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        FixedHistogram::new(&[10.0, 5.0]);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = FixedHistogram::new(&[10.0]);
        let mut b = FixedHistogram::new(&[10.0]);
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let counts: Vec<u64> = a.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn registry_merge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("c", 1);
        b.add("c", 2);
        b.set_gauge("g", 3.0);
        b.observe("h", 42.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(3.0));
        assert_eq!(a.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn observe_auto_declares() {
        let mut r = MetricsRegistry::new();
        r.observe("x", 3.0);
        r.observe("x", 2e12); // overflow bucket
        let h = r.histogram("x").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
    }
}
