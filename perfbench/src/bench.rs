//! The closed-loop round runner shared by every workload.
//!
//! A round builds a fresh system (timed as set-up), starts one client
//! thread per client, lets them warm up, measures a window, stops them,
//! checks the outputs and tears the system down. A run is a sequence of
//! rounds until the requested measuring time is used.

use crate::metrics::{self, Counters};
use crate::trace::{self, SpanTable};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Clients run but are not measured: caches fill, lazy set-up finishes.
const WARMUP: u8 = 0;
/// Operations started now are measured.
const MEASURE: u8 = 1;
/// Clients finish their current operation and exit.
const STOP: u8 = 2;

/// How long clients run before a round's window opens.
const WARMUP_TIME: Duration = Duration::from_millis(50);
/// A round's window never outlasts this, whatever its operation quota.
const WINDOW_CAP: Duration = Duration::from_secs(10);

/// One benchmark workload: a system to build and an operation to repeat.
pub trait Workload: Sync {
    /// Measured operations per round, across clients. A fixed amount of
    /// work per round keeps the footprint and log use of a round the same
    /// whatever the speed of the program.
    const ROUND_OPS: u64;
    /// The system under test, built fresh every round.
    type Rig: Sync;
    /// One client's generator and records.
    type Client: Send;

    /// Build the system and its clients from `seed`.
    fn setup(&self, seed: u64) -> Result<(Self::Rig, Vec<Self::Client>), String>;
    /// Run one operation. `Err` is an operation the program failed after
    /// its own retries; wrong answers are recorded in the client and
    /// reported by [`Workload::check`].
    fn op(&self, rig: &Self::Rig, client: &mut Self::Client) -> Result<(), String>;
    /// Snapshot of every layer counter the system publishes.
    fn counters(&self, rig: &Self::Rig) -> Counters;
    /// Whether the round must end before its quota (a capacity guard).
    fn exhausted(&self, _rig: &Self::Rig) -> bool {
        false
    }
    /// Check the outputs once every client has stopped.
    fn check(&self, rig: &Self::Rig, clients: &[Self::Client]) -> Result<(), String>;
    /// Stop every thread the rig started.
    fn teardown(&self, rig: Self::Rig);
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Time to build the system and its clients.
    pub setup: Duration,
    /// Length of the measured window.
    pub window: Duration,
    /// Peak resident set of the process when the window closed, MB.
    pub peak_rss_mb: f64,
    /// Measured operations that succeeded.
    pub ok: u64,
    /// Operations that failed, in any phase.
    pub failed: u64,
    /// First failure seen.
    pub first_error: Option<String>,
    /// Latency of every measured successful operation, ns.
    pub latencies: Vec<u64>,
    /// Layer activity during the window.
    pub layers: Counters,
    /// Span totals of the measured operations (traced rounds only).
    pub spans: SpanTable,
    /// Outcome of the output checks.
    pub check: Result<(), String>,
}

impl Round {
    /// Operations attempted in the window (failures in any phase count).
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// Successful operations per second of window.
    pub fn ops_per_s(&self) -> f64 {
        metrics::ratio(self.ok as f64, self.window.as_secs_f64())
    }

    /// Percentile `p` of this round's latencies, in µs.
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        metrics::percentile(&sorted, p) as f64 / 1e3
    }
}

struct ClientOut {
    ok: u64,
    failed: u64,
    first_error: Option<String>,
    latencies: Vec<u64>,
    spans: SpanTable,
}

fn client_loop<W: Workload>(
    w: &W,
    rig: &W::Rig,
    client: &mut W::Client,
    phase: &AtomicU8,
    done: &AtomicU64,
    traced: bool,
) -> ClientOut {
    let mut out =
        ClientOut { ok: 0, failed: 0, first_error: None, latencies: Vec::new(), spans: SpanTable::new() };
    loop {
        let measured = match phase.load(Ordering::Acquire) {
            STOP => break,
            p => p == MEASURE,
        };
        if measured && traced {
            trace::begin_op();
        }
        let t0 = Instant::now();
        let result = w.op(rig, client);
        let ns = t0.elapsed().as_nanos() as u64;
        if measured && traced {
            trace::end_op();
        }
        match result {
            Ok(()) if measured => {
                out.ok += 1;
                out.latencies.push(ns);
                done.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) => {}
            Err(e) => {
                // A failed operation ends the round: the program's own
                // retries are spent, and a peer may be stuck behind it.
                out.failed += 1;
                out.first_error.get_or_insert(e);
                phase.store(STOP, Ordering::Release);
            }
        }
    }
    out.spans = trace::take_totals();
    out
}

/// Run one round of `w` from `seed`: [`Workload::ROUND_OPS`] measured
/// operations.
pub fn run_round<W: Workload>(w: &W, seed: u64, traced: bool) -> Result<Round, String> {
    let t = Instant::now();
    let (rig, mut clients) = w.setup(seed)?;
    let setup = t.elapsed();
    let phase = AtomicU8::new(WARMUP);
    let done = AtomicU64::new(0);
    let (outs, window, layers) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (rig, phase, done) = (&rig, &phase, &done);
                s.spawn(move || client_loop(w, rig, c, phase, done, traced))
            })
            .collect();
        std::thread::sleep(WARMUP_TIME);
        let before = w.counters(&rig);
        let t0 = Instant::now();
        let _ = phase.compare_exchange(WARMUP, MEASURE, Ordering::AcqRel, Ordering::Acquire);
        while phase.load(Ordering::Acquire) != STOP
            && done.load(Ordering::Relaxed) < W::ROUND_OPS
            && t0.elapsed() < WINDOW_CAP
            && !w.exhausted(&rig)
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        phase.store(STOP, Ordering::Release);
        let window = t0.elapsed();
        let outs: Vec<ClientOut> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (outs, window, metrics::delta(&w.counters(&rig), &before))
    });
    let mut round = Round {
        traced,
        setup,
        window,
        peak_rss_mb: peak_rss_mb(),
        ok: 0,
        failed: 0,
        first_error: None,
        latencies: Vec::new(),
        layers,
        spans: SpanTable::new(),
        check: Ok(()),
    };
    for o in outs {
        round.ok += o.ok;
        round.failed += o.failed;
        if round.first_error.is_none() {
            round.first_error = o.first_error;
        }
        round.latencies.extend(o.latencies);
        trace::merge(&mut round.spans, &o.spans);
    }
    round.check = w.check(&rig, &clients);
    drop(clients);
    w.teardown(rig);
    Ok(round)
}

/// Rounds until `seconds` of window are measured. With `trace`, rounds
/// alternate untraced and traced, so the tracing overhead is measured on
/// the same host state.
pub fn run<W: Workload>(w: &W, seed: u64, seconds: u64, trace: bool) -> Result<Vec<Round>, String> {
    let total = Duration::from_secs(seconds);
    let mut measured = Duration::ZERO;
    let mut rounds: Vec<Round> = Vec::new();
    while measured < total || (trace && rounds.len() < 2) {
        let traced = trace && rounds.len() % 2 == 1;
        let round_seed = mix(mix(seed) ^ rounds.len() as u64);
        let round = run_round(w, round_seed, traced)?;
        measured += round.window;
        let stop = round.failed > 0 || round.check.is_err();
        rounds.push(round);
        if stop {
            break;
        }
    }
    Ok(rounds)
}

/// SplitMix64's finalizer. The generators step their state by a fixed
/// constant, so seeds that differ by a multiple of it would give shifted
/// copies of one stream; hashing the run seed and round index first
/// gives every round an unrelated stream.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process so far, from `VmHWM` in
/// /proc/self/status, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Check the per-class command books of `stats`: every command issued was
/// executed either synchronously or converted to asynchronous execution.
pub fn reconcile(who: &str, stats: &sysplex_core::connection::ConnectionStats) -> Result<(), String> {
    use sysplex_core::connection::CommandClass;
    for class in CommandClass::ALL {
        let c = stats.class(class);
        let (issued, sync, converted) = (c.issued.get(), c.sync.get(), c.async_converted.get());
        if issued != sync + converted {
            return Err(format!(
                "{who}: {} issued {issued} != sync {sync} + async {converted}",
                class.name()
            ));
        }
    }
    Ok(())
}

/// Add every per-class command counter of `stats` as `cf.<class>.*`.
pub fn class_counters(out: &mut Counters, stats: &sysplex_core::connection::ConnectionStats) {
    use sysplex_core::connection::CommandClass;
    for class in CommandClass::ALL {
        let c = stats.class(class);
        let name = class.name().replace('-', "_");
        let lat = c.latency.snapshot();
        out.insert(format!("cf.{name}.issued"), c.issued.get());
        out.insert(format!("cf.{name}.sync"), c.sync.get());
        out.insert(format!("cf.{name}.async"), c.async_converted.get());
        out.insert(format!("cf.{name}.samples"), lat.samples);
        out.insert(format!("cf.{name}.total_ns"), lat.total_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysplex_core::connection::{CommandClass, ConnectionStats};

    #[test]
    fn round_seeds_of_neighbouring_runs_are_unrelated() {
        let seeds: std::collections::HashSet<u64> =
            (0..50u64).flat_map(|s| (0..50u64).map(move |r| mix(mix(s) ^ r))).collect();
        assert_eq!(seeds.len(), 2500);
        // Neighbouring seeds must not be one generator step apart.
        let step = 0x9E37_79B9_7F4A_7C15u64;
        assert_ne!(mix(mix(810)).wrapping_sub(mix(mix(809))), step);
        assert_eq!(mix(7), mix(7));
    }

    #[test]
    fn reconcile_flags_a_command_missing_from_the_books() {
        let stats = ConnectionStats::new();
        let c = stats.class(CommandClass::CacheWrite);
        c.issued.add(3);
        c.sync.add(2);
        c.async_converted.add(1);
        assert!(reconcile("cf", &stats).is_ok());
        stats.class(CommandClass::LockRequest).issued.incr();
        let err = reconcile("cf", &stats).unwrap_err();
        assert!(err.contains("lock-request issued 1 != sync 0 + async 0"), "{err}");
    }
}
