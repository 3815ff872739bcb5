//! The DP heavy-hitter service benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|epoch_release|query_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Prints a human-readable report, then as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`. Exits 1 when a correctness
//! check fails. See `perfbench/README.md` for what each number means.

mod client;
mod inputs;
mod ladder;
mod stats;
mod workloads;

use stats::{median, peak_rss_mb, process_cpu_s, Latency, Tracer};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{query_probe, Check, Drive, EpochRelease, Ingest, QueryMix};

/// Set-ups per run: the first carries the discarded warm-up, the last the
/// measurement; `setup_s` is their median.
const SETUPS: usize = 5;
const WARMUP: Duration = Duration::from_secs(1);
/// Closed-loop reads the traced run sends to a workload whose own loop has
/// none, to time the query path end to end.
const PROBE_QUERIES: usize = 4_000;

/// Scratch space inside the checkout: WAL directories and span files.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "ingest" | "epoch_release" | "query_mix") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

enum Workload {
    Ingest(Ingest),
    EpochRelease(EpochRelease),
    QueryMix(QueryMix),
}

/// The outcome of a verified run.
struct Verified {
    checks: Vec<Check>,
    recovery_ms: Vec<f64>,
    dir_bytes: u64,
}

impl Workload {
    /// A fresh server set up for `name`, and the CPU time that took (s,
    /// every thread of the process).
    fn setup(name: &str, seed: u64) -> (Self, f64) {
        let cpu0 = process_cpu_s();
        let w = match name {
            "ingest" => Self::Ingest(Ingest::setup(seed)),
            "epoch_release" => Self::EpochRelease(EpochRelease::setup(seed)),
            _ => Self::QueryMix(QueryMix::setup(seed)),
        };
        (w, process_cpu_s() - cpu0)
    }

    fn drive(&mut self, duration: Duration, tracer: Option<&mut Tracer>) -> Drive {
        match self {
            Self::Ingest(w) => w.drive(duration, tracer),
            Self::EpochRelease(w) => w.drive(duration, tracer),
            Self::QueryMix(w) => w.drive(duration, tracer),
        }
    }

    fn items(&self) -> &[u64] {
        match self {
            Self::Ingest(w) => w.items(),
            Self::EpochRelease(w) => w.items(),
            Self::QueryMix(w) => w.items(),
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Self::Ingest(w) => w.addr(),
            Self::EpochRelease(w) => w.addr(),
            Self::QueryMix(w) => w.addr(),
        }
    }

    fn verify(self) -> Verified {
        match self {
            Self::Ingest(w) => Verified {
                checks: w.verify(),
                recovery_ms: Vec::new(),
                dir_bytes: 0,
            },
            Self::EpochRelease(w) => {
                let (checks, recovery_ms, dir_bytes) = w.verify();
                Verified {
                    checks,
                    recovery_ms,
                    dir_bytes,
                }
            }
            Self::QueryMix(w) => Verified {
                checks: w.verify(),
                recovery_ms: Vec::new(),
                dir_bytes: 0,
            },
        }
    }

    /// Stops the server and removes any on-disk state, unchecked.
    fn discard(self) {
        if let Self::EpochRelease(w) = self {
            w.discard();
        }
    }
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// A metric line of the final JSON object.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn report_named(d: &Drive) {
    for (name, value, unit, n) in &d.named {
        match n {
            Some(n) => println!("  {name:<28} {value:>14.3} {unit:<8} (n={n})"),
            None => println!("  {name:<28} {value:>14.3} {unit}"),
        }
    }
}

fn report_checks(checks: &[Check]) -> bool {
    for (what, ok) in checks {
        println!("  [{}] {what}", if *ok { "ok  " } else { "FAIL" });
    }
    checks.iter().all(|(_, ok)| *ok)
}

/// Warm-up and spare set-ups; returns their set-up times.
fn warm_up(args: &Args) -> Vec<f64> {
    let mut times = Vec::new();
    for i in 0..SETUPS - 1 {
        let (mut w, t) = Workload::setup(&args.workload, args.seed);
        times.push(t);
        if i == 0 {
            w.drive(WARMUP, None);
        }
        w.discard();
    }
    times
}

fn run_end_to_end(args: &Args) -> ExitCode {
    let mut setup_times = warm_up(args);
    let (mut w, t) = Workload::setup(&args.workload, args.seed);
    setup_times.push(t);
    let steal0 = stats::host_steal();
    let d = w.drive(Duration::from_secs(args.seconds), None);
    let steal = stats::steal_since(steal0);
    let rss = peak_rss_mb();
    let v = w.verify();

    let lat = Latency::of(&d.latency_ms);
    let setup_s = median(&setup_times);
    let failed_share = d.failed as f64 / d.attempted.max(1) as f64;
    println!("end-to-end ({}):", args.workload);
    report_named(&d);
    println!(
        "  {:<28} {:>14.6} share    ({}/{})",
        "failed_share", failed_share, d.failed, d.attempted
    );
    let cpu_us_per_op = d.server_cpu_s / d.ops * 1e6;
    println!(
        "  {:<28} {:>14.3} us/op    (server CPU over the rate phase)",
        "server_cpu_us_per_op", cpu_us_per_op
    );
    println!(
        "  {:<28} {:>14.3} 1/s      (median over rounds)",
        "throughput_per_s", d.rate
    );
    println!(
        "  {:<28} {:>14.4} ms       (median over rounds)",
        "latency_p50_ms", d.p50_ms
    );
    println!(
        "  {:<28} {:>14.4} ms       (median over rounds)",
        "latency_p90_ms", d.p90_ms
    );
    println!(
        "  {:<28} {:>14.4} share    (hypervisor steal, whole host)",
        "host_steal_share", steal
    );
    println!("  {:<28} {:>14.3} MB", "peak_rss_mb", rss);
    println!(
        "  {:<28} {:>14.4} s        (CPU time, median of {SETUPS} set-ups)",
        "setup_s", setup_s
    );
    if !v.recovery_ms.is_empty() {
        let n = v.recovery_ms.len();
        println!(
            "  {:<28} {:>14.3} ms       (median of {n})",
            "recovery_ms",
            median(&v.recovery_ms)
        );
        println!("  {:<28} {:>14} bytes", "wal_dir_bytes", v.dir_bytes);
    }
    if !lat.p99_valid() {
        println!(
            "  note: p99 rests on {} samples, fewer than 10 beyond it",
            lat.n
        );
    }
    println!("correctness:");
    let correct = report_checks(&v.checks) && d.failed == 0;

    let metrics = [
        metric("server_cpu_us_per_op", cpu_us_per_op, "us"),
        metric("peak_rss_mb", rss, "MB"),
        metric("setup_s", setup_s, "s"),
    ];
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    print_result(correct, d.attempted, d.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_traced(args: &Args) -> ExitCode {
    warm_up(args);
    let mut tracer = Tracer::new(Instant::now());
    let (mut w, _) = Workload::setup(&args.workload, args.seed);
    let mut d = w.drive(Duration::from_secs(args.seconds), Some(&mut tracer));
    if d.query_us.is_empty() {
        let probe = query_probe(w.addr(), args.seed, w.items(), PROBE_QUERIES, &mut tracer);
        d.attempted += probe.attempted;
        d.failed += probe.failed;
        d.query_us = probe.query_us;
    }
    let checks = w.verify().checks;

    let input = ladder::LadderInput::for_workload(&args.workload, args.seed);
    let layers = ladder::run(&input, args.seed, &d, &mut tracer);

    let mut metrics: Vec<Metric> = layers
        .metrics
        .iter()
        .map(|(n, v, u)| metric(n, *v, u))
        .collect();
    // Positive: the traced rounds did worse than the untraced ones
    // interleaved with them, by this share.
    metrics.push(metric(
        "trace.overhead_rate_share",
        1.0 - d.traced_rate / d.rate,
        "share",
    ));
    metrics.push(metric(
        "trace.overhead_p50_share",
        d.traced_p50_ms / d.p50_ms - 1.0,
        "share",
    ));

    println!("traced run ({}): untraced vs traced rounds", args.workload);
    println!(
        "  rate {:.3} -> {:.3} /s, p50 {:.4} -> {:.4} ms",
        d.rate, d.traced_rate, d.p50_ms, d.traced_p50_ms
    );
    println!("span self times (ms):");
    for (name, (count, total, own)) in tracer.self_times() {
        println!(
            "  {name:<32} n={count:<8} total={:>10.3} self={:>10.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let spans = out_dir().join(format!("trace-{}.jsonl", args.workload));
    match tracer.write_jsonl(&spans) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
    println!("per-layer:");
    for m in &metrics {
        println!("  {:<40} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("correctness:");
    let correct =
        report_checks(&checks) && d.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    print_result(correct, d.attempted, d.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host available_parallelism={} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit()
    );
    if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    }
}
