//! The sysplex benchmark: closed-loop workloads over the data-sharing
//! stack and the CF wire, with end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`. See NOTES.md for why each workload exists.

mod bench;
mod browse;
mod dbrig;
mod dc;
mod metrics;
mod trace;
mod wire;

use bench::Round;
use metrics::{ratio, Counters, CF_CLASSES, END_TO_END, WIRE_CALLS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::SpanTable;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rounds = match args.workload.as_str() {
        // Not a workload of BENCHMARK.json: it loses a committed update
        // about once per million transactions (NOTES.md, D3).
        "dc_routed" => bench::run(&dc::DcRouted, args.seed, args.seconds, args.trace),
        "browse" => bench::run(&browse::Browse, args.seed, args.seconds, args.trace),
        "cf_wire" => bench::run(&wire::CfWire, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?} (dc_routed, browse, cf_wire)")),
    };
    let rounds = match rounds {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&args, &rounds)
}

fn report(args: &Args, rounds: &[Round]) -> ExitCode {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let transport = if args.workload == "cf_wire" { "tcp-loopback" } else { "in-process" };
    println!(
        "perfbench {} seed={} seconds={} trace={} hw_threads={hw} transport={transport} link=instant dasd=instant",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "{:>5} {:>6} {:>9} {:>9} {:>10} {:>8} {:>7} {:>8} {:>7}",
        "round", "traced", "setup_s", "window_s", "ops_per_s", "ok", "failed", "log_pct", "aborts"
    );
    for (i, r) in rounds.iter().enumerate() {
        let log_pct = r.layers.get("gauge.log_used_milli_pct").map_or(0.0, |&v| v as f64 / 1000.0);
        println!(
            "{i:>5} {:>6} {:>9.4} {:>9.3} {:>10.0} {:>8} {:>7} {:>8.2} {:>7}",
            r.traced,
            r.setup.as_secs_f64(),
            r.window.as_secs_f64(),
            r.ops_per_s(),
            r.ok,
            r.failed,
            log_pct,
            r.layers.get("db.aborts").unwrap_or(&0)
        );
    }

    let attempted: u64 = rounds.iter().map(Round::attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut correct = failed == 0;
    for (i, r) in rounds.iter().enumerate() {
        if let Err(e) = &r.check {
            eprintln!("perfbench: round {i} CORRECTNESS CHECK FAILED: {e}");
            correct = false;
        }
        if let Some(e) = &r.first_error {
            eprintln!("perfbench: round {i} operation failed: {e}");
        }
    }
    println!(
        "failed_pct {:.4} % ({failed} of {attempted} attempted)",
        100.0 * ratio(failed as f64, attempted as f64)
    );

    let (plain, traced): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| !r.traced);
    let e2e = end_to_end(&plain, rounds);
    let mut layers = per_layer(&traced);
    if !traced.is_empty() {
        let untraced_rate = e2e["ops_per_s"];
        let traced_rate = metrics::median(&traced.iter().map(|r| r.ops_per_s()).collect::<Vec<_>>());
        layers.insert("trace.overhead_pct".into(), 100.0 * ratio(untraced_rate - traced_rate, untraced_rate));
    }

    println!("\nend-to-end (untraced rounds)");
    for (name, unit) in END_TO_END {
        println!("  {name:<34} {:>14.4} {unit}", e2e[*name]);
    }
    let layer_list: Vec<(String, &str, f64)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n.clone(), u, layers.get(&n).copied().unwrap_or(0.0)))
        .collect();
    if args.trace {
        println!("\nper-layer ({} traced rounds)", traced.len());
        for (name, unit, value) in &layer_list {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    }

    let out: Vec<(String, &str, f64)> = if args.trace {
        layer_list
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u, e2e[*n])).collect()
    };
    println!("{}", metrics::result_line(correct, attempted.max(1), failed, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each timing is the median of the untraced rounds' own figures, so a
/// burst of host load that slows a few rounds moves none of them much.
/// Latency percentiles come from each round's own samples.
fn end_to_end(plain: &[&Round], all: &[Round]) -> BTreeMap<&'static str, f64> {
    let samples = plain.iter().map(|r| r.latencies.len()).min().unwrap_or(0);
    let tail = metrics::tail_percentile(samples, 99.0).unwrap_or(100.0);
    let widest = metrics::tail_percentile(samples, 100.0).unwrap_or(100.0);
    let median = |f: &dyn Fn(&Round) -> f64| metrics::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    println!(
        "latency: {} rounds of at least {samples} samples; op_p99_us is p{tail}; the highest percentile with >=10 beyond is p{widest} = {:.1} us",
        plain.len(),
        median(&|r| r.latency_us(widest))
    );
    let mut m = BTreeMap::new();
    m.insert("ops_per_s", median(&Round::ops_per_s));
    m.insert("op_p50_us", median(&|r| r.latency_us(50.0)));
    m.insert("op_p99_us", median(&|r| r.latency_us(tail)));
    m.insert("setup_s", metrics::median(&all.iter().map(|r| r.setup.as_secs_f64()).collect::<Vec<_>>()));
    // Later rounds inherit the allocator's free lists from earlier ones;
    // the first round shows the footprint of one fresh system.
    m.insert("peak_rss_mb", all.first().map_or(0.0, |r| r.peak_rss_mb));
    m
}

/// The CF command class each `cf_wire` call is accounted under.
fn wire_class(call: &str) -> &'static str {
    match call {
        "lock_request" => "lock_request",
        "register_read" => "cache_read",
        "cache_write" => "cache_write",
        "enqueue" => "list_write",
        "take" => "list_move",
        _ => "lock_release",
    }
}

/// Per-layer metrics from the traced rounds' summed layer counters and
/// span totals.
fn per_layer(traced: &[&Round]) -> BTreeMap<String, f64> {
    let mut c = Counters::new();
    let mut spans = SpanTable::new();
    let (mut ops, mut secs) = (0.0, 0.0);
    for r in traced {
        metrics::accumulate(&mut c, &r.layers);
        trace::merge(&mut spans, &r.spans);
        ops += r.ok as f64;
        secs += r.window.as_secs_f64();
    }
    let g = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let per_op = |v: f64| ratio(v, ops);
    let span_us = |name: &str, own: bool| {
        spans.get(name).map_or(0.0, |t| per_op((if own { t.self_ns } else { t.total_ns }) as f64 / 1e3))
    };
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    set("tm.commit_and_retry_us", span_us("tm.execute", true));
    set("db.attempt_self_us", span_us("db.attempt", true));
    set("db.read_us", span_us("db.read", false));
    set("db.write_us", span_us("db.write", false));
    set("db.attempts_per_op", per_op(g("db.commits") + g("db.aborts")));
    set("db.aborts_per_op", per_op(g("db.aborts")));

    let requests = g("irlm.requests");
    set("irlm.requests_per_op", per_op(requests));
    set("irlm.regrant_local_ratio", ratio(g("irlm.regrants_local"), requests));
    set("irlm.cf_sync_grant_ratio", ratio(g("irlm.grants_cf_sync"), requests));
    set("irlm.false_contention_pct", 100.0 * ratio(g("irlm.false_contentions"), requests));
    set("irlm.real_conflict_pct", 100.0 * ratio(g("irlm.real_conflicts"), requests));
    set("irlm.negotiations_per_op", per_op(g("irlm.queries_served")));
    set("irlm.recalls_per_op", per_op(g("irlm.recalls")));

    let page_gets = g("buf.local_hits") + g("buf.cf_refreshes") + g("buf.dasd_reads");
    set("buf.local_hit_ratio", ratio(g("buf.local_hits"), page_gets));
    set("buf.cf_refreshes_per_op", per_op(g("buf.cf_refreshes")));
    set("buf.dasd_reads_per_op", per_op(g("buf.dasd_reads")));
    set("buf.coherency_misses_per_op", per_op(g("buf.coherency_misses")));
    set("buf.writes_per_op", per_op(g("buf.writes")));

    set("log.block_writes_per_op", per_op(g("log.block_writes")));
    set("log.capacity_used_pct", g("gauge.log_used_milli_pct") / 1e3);
    set("castout.pages_per_s", ratio(g("castout.pages"), secs));
    set("castout.checkpoints", g("castout.checkpoints"));
    set("cache.changed_pages_end", g("gauge.cache_changed"));
    set("dasd.page_reads_per_op", per_op(g("dasd.page_reads")));
    set("dasd.page_writes_per_op", per_op(g("dasd.page_writes")));

    let sum = |field: &str| {
        c.iter()
            .filter(|(k, _)| k.starts_with("cf.") && k.ends_with(field))
            .map(|(_, &v)| v as f64)
            .sum::<f64>()
    };
    let class_mean_us =
        |class: &str| ratio(g(&format!("cf.{class}.total_ns")), g(&format!("cf.{class}.samples"))) / 1e3;
    set("cf.cmds_per_op", per_op(sum(".issued")));
    set("cf.time_per_op_us", per_op(sum(".total_ns")) / 1e3);
    set("cf.sync_ratio", ratio(sum(".sync"), sum(".issued")));
    set("cf.async_converted", sum(".async"));
    for class in CF_CLASSES {
        set(&format!("cf.{class}.per_op"), per_op(g(&format!("cf.{class}.issued"))));
        set(&format!("cf.{class}.mean_us"), class_mean_us(class));
    }
    for call in WIRE_CALLS {
        if let Some(t) = spans.get(format!("wire.{call}").as_str()) {
            let client_us = ratio(t.total_ns as f64, t.count as f64) / 1e3;
            set(&format!("wire.{call}.client_us"), client_us);
            set(&format!("wire.{call}.overhead_us"), client_us - class_mean_us(wire_class(call)));
        }
    }
    m
}
