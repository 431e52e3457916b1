//! Contention-free statistics counters and the shared latency histogram.
//!
//! The experiments (E10, E11, E2/E3) report rates such as the fraction of
//! lock requests granted CPU-synchronously. Counters sit on the hot path of
//! every CF command, so they are cache-padded relaxed atomics.
//!
//! [`Histogram`] is the single log₂-bucketed latency histogram shared by the
//! subchannel command path, the workload drivers, and the Monitor's CF
//! Activity Report. It replaces a former 36-bucket core histogram and a
//! 64-bucket workload histogram, which had drifted apart. Interval reporting goes through [`Histogram::snapshot`] /
//! [`HistogramSnapshot::delta`] so per-interval percentiles and `max` are
//! not contaminated by earlier intervals (reset-less reuse used to carry
//! `max_ns` across phases forever).

use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A single monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(CachePadded<AtomicU64>);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(CachePadded::new(AtomicU64::new(0)))
    }

    /// Record one event.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the value to at least `n` (for high-water marks).
    #[inline]
    pub fn maximize(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (between benchmark phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Ratio helper: `num / den` as a fraction, 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Number of power-of-two buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds; bucket 0 additionally absorbs 0–1 ns.
/// 64 buckets cover the full `u64` nanosecond range, so nothing saturates
/// into a lower bucket.
pub const HIST_BUCKETS: usize = 64;

// `[Counter::new(); N]` needs Copy; build arrays with an explicit repeat
// initializer. The const is deliberate, not a shared item.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNTER: Counter = Counter::new();

/// A lock-free power-of-two latency histogram.
///
/// Same contention profile as [`Counter`]: relaxed cache-padded atomics,
/// safe to hammer from every system's CF command path. Resolution is one
/// binary order of magnitude, which is plenty to separate the paper's
/// cost tiers (ns local bit tests, µs sync CF commands, tens of µs async
/// completions, ms DASD I/O).
#[derive(Debug)]
pub struct Histogram {
    buckets: [Counter; HIST_BUCKETS],
    total_ns: Counter,
    samples: Counter,
    max: Counter,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [ZERO_COUNTER; HIST_BUCKETS],
            total_ns: Counter::new(),
            samples: Counter::new(),
            max: Counter::new(),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        63 - ns.max(1).leading_zeros() as usize
    }

    fn bucket_bound_ns(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Record one observed latency.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one observed latency in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].incr();
        self.total_ns.add(ns);
        self.samples.incr();
        self.max.maximize(ns);
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples.get()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns.get(), self.samples.get())
    }

    /// Mean sample as a duration.
    pub fn mean(&self) -> Duration {
        let n = self.samples.get();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.total_ns.get() / n)
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max.get()
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max.get())
    }

    /// Upper bound (ns) of the bucket containing the `p`-quantile,
    /// `0.0 < p <= 1.0`. Returns 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        self.snapshot().quantile_ns(p)
    }

    /// Approximate percentile, `0.0 < p <= 100.0` (upper bound of the
    /// bucket containing it, clamped to the observed max).
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(self.quantile_ns(p / 100.0))
    }

    /// Point-in-time copy of the histogram for interval math and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = b.get();
        }
        HistogramSnapshot {
            buckets,
            samples: self.samples.get(),
            total_ns: self.total_ns.get(),
            max_ns: self.max.get(),
        }
    }

    /// Reset all buckets (between benchmark phases).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.reset();
        }
        self.total_ns.reset();
        self.samples.reset();
        self.max.reset();
    }

    /// Summary row over a measured wall-clock interval.
    pub fn summary(&self, wall: Duration) -> Summary {
        self.snapshot().summary(wall)
    }
}

/// An owned, immutable copy of a [`Histogram`] at one instant.
///
/// Snapshots subtract ([`delta`](Self::delta)) and add
/// ([`merge`](Self::merge)), which is what the Monitor uses to report
/// per-interval percentiles instead of cumulative ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub samples: u64,
    /// Sum of all samples in nanoseconds.
    pub total_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub const fn empty() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], samples: 0, total_ns: 0, max_ns: 0 }
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Accumulate another snapshot into this one (cross-system roll-ups).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += n;
        }
        self.samples += other.samples;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded between `earlier` and `self` (interval delta).
    ///
    /// `max_ns` is exact when the interval raised the high-water mark;
    /// otherwise it is bounded by the top non-empty delta bucket, so an old
    /// outlier from a previous interval is never re-reported.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut top = None;
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(earlier.buckets[i]);
            if *slot > 0 {
                top = Some(i);
            }
        }
        let max_ns = if self.max_ns > earlier.max_ns {
            self.max_ns
        } else {
            top.map(Histogram::bucket_bound_ns).unwrap_or(0)
        };
        HistogramSnapshot {
            buckets,
            samples: self.samples.saturating_sub(earlier.samples),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            max_ns,
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns, self.samples)
    }

    /// Upper bound (ns) of the bucket containing the `p`-quantile,
    /// `0.0 < p <= 1.0`, clamped to the observed max. Returns 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((self.samples as f64 * p).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_bound_ns(i).min(self.max_ns.max(1));
            }
        }
        self.max_ns
    }

    /// Approximate percentile, `0.0 < p <= 100.0`.
    pub fn percentile(&self, p: f64) -> Duration {
        Duration::from_nanos(self.quantile_ns(p / 100.0))
    }

    /// Summary row over a measured wall-clock interval.
    pub fn summary(&self, wall: Duration) -> Summary {
        Summary {
            count: self.samples,
            mean: Duration::from_nanos(self.mean_ns() as u64),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: Duration::from_nanos(self.max_ns),
            throughput_per_s: if wall.is_zero() { 0.0 } else { self.samples as f64 / wall.as_secs_f64() },
        }
    }
}

/// Experiment-report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Median (bucketed).
    pub p50: Duration,
    /// 95th percentile (bucketed).
    pub p95: Duration,
    /// 99th percentile (bucketed).
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
    /// Completions per second over the measured wall time.
    pub throughput_per_s: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} tps={:.0} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}",
            self.count, self.throughput_per_s, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.maximize(7); // below current value: no effect
        assert_eq!(c.get(), 42);
        c.maximize(99);
        assert_eq!(c.get(), 99);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_records_and_summarises() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.samples(), 5);
        assert_eq!(h.mean(), Duration::from_micros(220));
        assert_eq!(h.max(), Duration::from_micros(1000));
        let s = h.summary(Duration::from_secs(1));
        assert_eq!(s.count, 5);
        assert!((s.throughput_per_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_bracket_samples() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i));
        }
        let p50 = h.percentile(50.0);
        // Exact p50 is 500µs; bucketed answer lands within its power of 2.
        assert!(p50 >= Duration::from_micros(256) && p50 <= Duration::from_micros(1024), "{p50:?}");
        assert!(h.percentile(99.0) >= h.percentile(50.0));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(99.0), Duration::ZERO);
        assert_eq!(h.summary(Duration::from_secs(1)).throughput_per_s, 0.0);
    }

    #[test]
    fn reset_clears_including_max() {
        let h = Histogram::new();
        h.record(Duration::from_millis(5));
        h.reset();
        assert_eq!(h.samples(), 0);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn snapshot_delta_isolates_intervals() {
        let h = Histogram::new();
        // Interval 1: one huge outlier.
        h.record(Duration::from_secs(2));
        let s1 = h.snapshot();
        assert_eq!(s1.max_ns, 2_000_000_000);
        // Interval 2: only fast samples.
        for _ in 0..100 {
            h.record(Duration::from_micros(3));
        }
        let s2 = h.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.samples, 100);
        // The 2 s outlier from interval 1 must not leak into interval 2's
        // percentiles or max (the pre-unification reset-less bug).
        assert!(d.percentile(99.0) < Duration::from_millis(1), "{:?}", d.percentile(99.0));
        assert!(d.max_ns < 1_000_000, "{}", d.max_ns);
        // A new high-water mark in the interval is reported exactly.
        h.record(Duration::from_secs(4));
        let d2 = h.snapshot().delta(&s2);
        assert_eq!(d2.max_ns, 4_000_000_000);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.samples, 2);
        assert_eq!(m.max_ns, 1_000_000);
        assert_eq!(m.total_ns, 1_010_000);
    }

    #[test]
    fn concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        h.record(Duration::from_micros(100));
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        assert_eq!(h.samples(), 40_000);
    }
}
