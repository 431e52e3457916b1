//! Latency histograms and experiment summaries.
//!
//! The histogram itself lives in `sysplex_core::stats` — the same log₂
//! bucketing records CF command service times, subsystem latencies and
//! experiment results, so reports can merge and delta them uniformly.
//! This module re-exports it under the workload crate's historical path.

pub use sysplex_core::stats::{Histogram, HistogramSnapshot, Summary};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_summarises() {
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
    fn reset_clears() {
        let h = Histogram::new();
        h.record(Duration::from_millis(5));
        h.reset();
        assert_eq!(h.samples(), 0);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn interval_deltas_isolate_new_samples() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        let base = h.snapshot();
        h.record(Duration::from_micros(400));
        h.record(Duration::from_micros(400));
        let delta = h.snapshot().delta(&base);
        assert_eq!(delta.samples, 2);
        assert_eq!(h.snapshot().samples, 3);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
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
