//! Counters, gauges and log2-bucket latency histograms.
//!
//! Metric names are static strings, stored in `BTreeMap`s so snapshots and
//! reports enumerate deterministically.

use std::collections::BTreeMap;

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) == i` (value 0 goes to bucket 0), so the range covers
/// the full `u64` domain.
pub const BUCKETS: usize = 64;

/// A power-of-two-bucket histogram with exact count/sum/max.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index for a value: `floor(log2(v))`, with 0 mapping to bucket 0.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of bucket `i`: `2^(i+1) - 1`.
pub fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q · count)`
    /// (clamped to the observed max, so `quantile(1.0) == max`). Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The (p50, p95, p99) triple.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Raw bucket counts (for tests and exporters).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }
}

/// Registry of named metrics. Locking is the caller's concern (the
/// recorder wraps one registry in a mutex).
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// Add `delta` to counter `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Set gauge `name`.
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(2), 7);
        assert_eq!(bucket_upper(63), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 4095, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i));
            if i > 0 {
                assert!(v > bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::default();
        // 90 fast ops (~16 µs), 10 slow ops (~4096 µs).
        for _ in 0..90 {
            h.record(16);
        }
        for _ in 0..10 {
            h.record(4096);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 4096);
        let (p50, p95, p99) = h.quantiles();
        // p50 falls in the 16s bucket [16, 31]; p95/p99 in the 4096s.
        assert!((16..=31).contains(&p50), "p50={p50}");
        assert!(p95 >= 4096, "p95={p95}");
        assert!(p99 >= 4096, "p99={p99}");
        // Quantiles never exceed the observed max.
        assert!(p99 <= h.max());
        assert_eq!(h.quantile(1.0), 4096);
    }

    #[test]
    fn quantile_of_single_value() {
        let mut h = Histogram::default();
        h.record(100);
        assert_eq!(h.quantile(0.5), 100); // clamped to max
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.mean(), 100.0);
    }

    #[test]
    fn registry_accumulates() {
        let mut r = Registry::default();
        r.count("a", 2);
        r.count("a", 3);
        r.gauge("g", -7);
        r.observe("h", 5);
        r.observe("h", 9);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge_value("g"), Some(-7));
        assert_eq!(r.histogram("h").unwrap().count(), 2);
        let names: Vec<_> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a"]);
    }
}
