//! Coupling links and CF command execution modes (§3.3).
//!
//! "Coupling Facilities are physically attached to S/390 processors via
//! high-speed coupling links ... fiber-optic channels providing either 50
//! MegaBytes/second or 100 MB/second data transfer rates. Commands to the
//! CF can be executed synchronously or asynchronously, with cpu-synchronous
//! command completion times measured in micro-seconds, thereby avoiding the
//! asynchronous execution overheads associated with task switching and
//! processor cache disruptions."
//!
//! [`CfLink`] models that cost structure. Every command spins the issuing
//! CPU for the simulated round trip (microseconds) and runs the structure
//! operation inline. A command converted to asynchronous execution runs
//! the same way and is then charged the task-switch and cache-disruption
//! overhead ([`LinkConfig::async_overhead_ns`]) the paper says synchronous
//! execution avoids: asynchrony here is a cost the issuer pays, not a
//! second place for the operation to run.
//! [`LinkConfig::instant`] turns the latency model off for purely
//! functional use.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency/bandwidth model for one coupling link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Payload transfer rate in MB/s (paper: 50 or 100).
    pub transfer_mb_per_s: u32,
    /// Fixed per-command round-trip latency in nanoseconds.
    pub base_latency_ns: u64,
    /// Additional latency charged to an asynchronous completion (task
    /// switch + cache disruption on redispatch).
    pub async_overhead_ns: u64,
    /// When false, no delays are simulated (functional mode).
    pub simulate: bool,
}

impl LinkConfig {
    /// A 50 MB/s first-generation coupling link with ~15 µs command latency.
    pub fn mb50() -> Self {
        LinkConfig {
            transfer_mb_per_s: 50,
            base_latency_ns: 15_000,
            async_overhead_ns: 40_000,
            simulate: true,
        }
    }

    /// A 100 MB/s coupling link with ~10 µs command latency.
    pub fn mb100() -> Self {
        LinkConfig {
            transfer_mb_per_s: 100,
            base_latency_ns: 10_000,
            async_overhead_ns: 40_000,
            simulate: true,
        }
    }

    /// No simulated latency: commands cost only their real compute time.
    pub fn instant() -> Self {
        LinkConfig { transfer_mb_per_s: 100, base_latency_ns: 0, async_overhead_ns: 0, simulate: false }
    }

    /// Simulated service time for a command moving `payload` bytes.
    pub fn service_time(&self, payload: usize) -> Duration {
        if !self.simulate {
            return Duration::ZERO;
        }
        let transfer_ns = payload as u64 * 1_000 / self.transfer_mb_per_s as u64;
        Duration::from_nanos(self.base_latency_ns + transfer_ns)
    }
}

/// Spin-wait with microsecond precision. `thread::sleep` has scheduler
/// granularity far coarser than a CF command; the paper's synchronous
/// commands *spin the CPU*, which is exactly what we reproduce.
pub(crate) fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A coupling link from one system to one facility.
#[derive(Debug, Clone)]
pub struct CfLink {
    config: LinkConfig,
    /// The facility's power state, shared by every link attached to it.
    shut_down: Arc<AtomicBool>,
}

impl CfLink {
    pub(crate) fn new(config: LinkConfig, shut_down: Arc<AtomicBool>) -> Self {
        CfLink { config, shut_down }
    }

    /// The link's latency/bandwidth model.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Whether the facility end of this link has been shut down. One
    /// Acquire load — cheap enough for the per-command path.
    #[inline]
    pub fn is_shut_down(&self) -> bool {
        self.shut_down.load(Ordering::Acquire)
    }

    /// Execute a CF command on the issuing CPU: the processor spins for the
    /// simulated round trip with the payload in flight, runs the structure
    /// operation, and observes the result. A command converted to
    /// asynchronous execution (`converted`) then also pays the task-switch
    /// overhead the paper says CPU-synchronous execution avoids.
    pub fn execute<R>(&self, payload_bytes: usize, converted: bool, op: impl FnOnce() -> R) -> R {
        let d = self.config.service_time(payload_bytes);
        // Half the round trip carries the command, half the response.
        spin_for(d / 2);
        let r = op();
        spin_for(d / 2);
        if converted && self.config.simulate {
            spin_for(Duration::from_nanos(self.config.async_overhead_ns));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(config: LinkConfig) -> CfLink {
        CfLink::new(config, Arc::new(AtomicBool::new(false)))
    }

    #[test]
    fn instant_link_adds_no_measurable_delay() {
        let l = link(LinkConfig::instant());
        let t0 = Instant::now();
        for _ in 0..1000 {
            l.execute(4096, false, || ());
        }
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn sync_latency_is_microsecond_scale() {
        let l = link(LinkConfig::mb100());
        let t0 = Instant::now();
        let n = 50;
        for _ in 0..n {
            l.execute(0, false, || ());
        }
        let per_cmd = t0.elapsed() / n;
        assert!(per_cmd >= Duration::from_micros(9), "per-command {per_cmd:?} below base latency");
        assert!(per_cmd < Duration::from_millis(2), "per-command {per_cmd:?} absurdly slow");
    }

    #[test]
    fn transfer_time_scales_with_payload_and_rate() {
        let c50 = LinkConfig::mb50();
        let c100 = LinkConfig::mb100();
        let small50 = c50.service_time(0);
        let big50 = c50.service_time(1 << 20);
        let big100 = c100.service_time(1 << 20);
        assert!(big50 > small50);
        // 1 MiB at 50 MB/s ≈ 21 ms of transfer; at 100 MB/s half that.
        let t50 = (big50 - Duration::from_nanos(c50.base_latency_ns)).as_nanos();
        let t100 = (big100 - Duration::from_nanos(c100.base_latency_ns)).as_nanos();
        let ratio = t50 as f64 / t100 as f64;
        assert!((ratio - 2.0).abs() < 0.01, "50 MB/s takes 2x the time of 100 MB/s, got {ratio}");
    }
}
