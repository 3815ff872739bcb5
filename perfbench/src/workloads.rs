//! The three end-to-end workloads, driven over loopback HTTP against an
//! in-process `dpmg_server::Server`, and their correctness checks.
//!
//! Each workload has a timed `setup` (server start, seeding,
//! pre-encoding), a `drive` that runs for a given duration, and a
//! `verify` step that compares what the server served with
//! `SequentialServiceReference` fed the same items under the same seed.
//!
//! A drive is split into [`ROUNDS`] rounds, each on fresh client threads
//! and fresh connections. On a 2-core host the client and server threads
//! land on the cores differently each time, and that placement moves a
//! round's rate by up to 2×; the gated statistics are medians over
//! rounds, so they average placement out.

use crate::client::{get, ingest_body, post, Conn};
use crate::inputs::*;
use crate::stats::{median, process_cpu_s, quantile, thread_cpu_s, Latency, Tracer};
use dpmg_server::api_types::{decode_topk, parse_json, JsonValue};
use dpmg_server::{Server, ServiceBackend};
use dpmg_service::{
    DurabilityConfig, DurableService, OpenEpochStatus, RecoveryReport, ReleasedSnapshot,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per drive.
pub const ROUNDS: u32 = 80;

/// What one measured `drive` produced.
#[derive(Default)]
pub struct Drive {
    /// Median over rounds of the round's headline rate (items/s, epochs/s
    /// or queries/s).
    pub rate: f64,
    /// Median over rounds of the round's p50 and p90 headline latency, ms.
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// With a tracer, every other round is traced and the statistics above
    /// cover the untraced ones; these cover the traced ones.
    pub traced_rate: f64,
    pub traced_p50_ms: f64,
    /// Every headline latency sample, ms.
    pub latency_ms: Vec<f64>,
    /// Operations of the rate phase, and the server's CPU time over it:
    /// the process's CPU time minus that of the client threads, s.
    pub ops: f64,
    pub server_cpu_s: f64,
    /// Requests attempted and failed (non-2xx or I/O error).
    pub attempted: u64,
    pub failed: u64,
    /// Report lines: `(name, value, unit, sample count)`.
    pub named: Vec<(String, f64, &'static str, Option<usize>)>,
    /// How late the client sent each request, µs: behind its due time
    /// (open loop) or behind the previous response (closed loop).
    pub send_lag_us: Vec<f64>,
    /// Round trip of each `POST /ingest`, ns per item.
    pub ingest_ns_per_item: Vec<f64>,
    /// Round trip of each closed-loop read, µs.
    pub query_us: Vec<f64>,
}

impl Drive {
    fn named(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.named.push((name.to_string(), value, unit, n));
    }

    fn latency_named(&mut self, prefix: &str, samples: &[f64], unit: &'static str) {
        let lat = Latency::of(samples);
        self.named(&format!("{prefix}_p50_{unit}"), lat.p50, unit, Some(lat.n));
        self.named(&format!("{prefix}_p99_{unit}"), lat.p99, unit, Some(lat.n));
    }
}

/// One round's statistics.
struct RoundStat {
    traced: bool,
    rate: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// Per-round statistics, reduced to medians over rounds.
#[derive(Default)]
struct Rounds(Vec<RoundStat>);

impl Rounds {
    fn push(&mut self, traced: bool, ops: f64, secs: f64, latency_ms: &[f64]) {
        self.0.push(RoundStat {
            traced,
            rate: ops / secs,
            p50_ms: quantile(latency_ms, 0.5),
            p90_ms: quantile(latency_ms, 0.9),
        });
    }

    fn stat(&self, traced: bool, f: impl Fn(&RoundStat) -> f64) -> f64 {
        let values: Vec<f64> = self
            .0
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .filter(|v| v.is_finite())
            .collect();
        median(&values)
    }

    fn finish(&self, d: &mut Drive) {
        d.rate = self.stat(false, |r| r.rate);
        d.p50_ms = self.stat(false, |r| r.p50_ms);
        d.p90_ms = self.stat(false, |r| r.p90_ms);
        d.traced_rate = self.stat(true, |r| r.rate);
        d.traced_p50_ms = self.stat(true, |r| r.p50_ms);
    }
}

/// One correctness verdict.
pub type Check = (String, bool);

fn check(checks: &mut Vec<Check>, what: impl Into<String>, ok: bool) {
    checks.push((what.into(), ok));
}

/// Request counters of one client thread.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Sends one request, traced when a tracer is given, and classifies
    /// the answer: `true` for 2xx. A traced request is a `client.request`
    /// span with `client.write` and `client.read` children sharing the
    /// request id.
    fn exchange(
        &mut self,
        conn: &mut Conn,
        raw: &[u8],
        tracer: Option<&mut Tracer>,
        request: u64,
    ) -> bool {
        self.attempted += 1;
        let ok = match tracer {
            None => matches!(conn.request(raw), Ok(s) if (200..300).contains(&s)),
            Some(t) => {
                let root = t.begin("client.request", None, request);
                let sent = t.span("client.write", Some(root), request, || conn.send(raw));
                let status = t.span("client.read", Some(root), request, || conn.recv());
                t.end(root);
                sent.is_ok() && matches!(status, Ok(s) if (200..300).contains(&s))
            }
        };
        self.failed += u64::from(!ok);
        ok
    }

    fn add_to(self, d: &mut Drive) {
        d.attempted += self.attempted;
        d.failed += self.failed;
    }
}

fn connect(addr: SocketAddr) -> Conn {
    Conn::connect(addr).expect("connect to the local server")
}

fn json_u64(body: &[u8], field: &str) -> Option<u64> {
    parse_json(body).ok()?.get(field)?.as_u64()
}

fn json_f64(body: &[u8], field: &str) -> Option<f64> {
    match parse_json(body).ok()?.get(field)? {
        JsonValue::Number(x) => Some(*x),
        _ => None,
    }
}

fn as_map(entries: Vec<(u64, f64)>) -> BTreeMap<u64, f64> {
    entries.into_iter().collect()
}

fn pool_requests(items: &[u64], batch: usize) -> Vec<Vec<u8>> {
    items
        .chunks(batch)
        .map(|b| post("/ingest", &ingest_body(b)))
        .collect()
}

/// What one closed-loop round produced.
struct RoundOut {
    latency_ms: Vec<f64>,
    send_lag_us: Vec<f64>,
    ops: f64,
    secs: f64,
    client_cpu_s: f64,
}

/// A closed-loop round: `step` runs back to back on a fresh connection in
/// a fresh client thread until `round` has passed or `max_ops`
/// operations are done; then the thread idles out the round. `step`
/// returns the headline latency (ms) and the operations it completed, or
/// `None` on a failed request, which ends the round.
fn closed_round<F>(addr: SocketAddr, round: Duration, max_ops: f64, mut step: F) -> RoundOut
where
    F: FnMut(&mut Conn) -> Option<(f64, f64)> + Send,
{
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let client0 = thread_cpu_s();
                let mut conn = connect(addr);
                let start = Instant::now();
                let deadline = start + round;
                let (mut latency_ms, mut send_lag_us, mut ops) = (Vec::new(), Vec::new(), 0.0);
                let mut last_done = start;
                loop {
                    let now = Instant::now();
                    if now >= deadline || ops >= max_ops {
                        break;
                    }
                    send_lag_us.push((now - last_done).as_secs_f64() * 1e6);
                    let Some((ms, n)) = step(&mut conn) else {
                        break;
                    };
                    last_done = Instant::now();
                    latency_ms.push(ms);
                    ops += n;
                }
                let secs = (last_done - start).as_secs_f64();
                drop(conn);
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                RoundOut {
                    latency_ms,
                    send_lag_us,
                    ops,
                    secs,
                    client_cpu_s: thread_cpu_s() - client0,
                }
            })
            .join()
            .expect("client thread panicked")
    })
}

/// Runs [`ROUNDS`] closed-loop rounds of `step`, at most `max_ops`
/// operations each, and fills in the drive's rate, latencies and CPU
/// accounting. With a tracer, odd rounds hand it to `step`.
fn closed_loop<F>(
    addr: SocketAddr,
    duration: Duration,
    max_ops: f64,
    d: &mut Drive,
    mut tracer: Option<&mut Tracer>,
    mut step: F,
) where
    F: FnMut(&mut Conn, &mut Tally, Option<&mut Tracer>) -> Option<(f64, f64)> + Send,
{
    let mut rounds = Rounds::default();
    let cpu0 = process_cpu_s();
    let mut client_cpu = 0.0;
    for r in 0..ROUNDS {
        let mut tally = Tally::default();
        let traced = tracer.is_some() && r % 2 == 1;
        let mut round_tracer = if traced { tracer.as_deref_mut() } else { None };
        let out = closed_round(addr, duration / ROUNDS, max_ops, |conn| {
            step(conn, &mut tally, round_tracer.as_deref_mut())
        });
        rounds.push(traced, out.ops, out.secs, &out.latency_ms);
        d.latency_ms.extend(out.latency_ms);
        d.send_lag_us.extend(out.send_lag_us);
        d.ops += out.ops;
        client_cpu += out.client_cpu_s;
        tally.add_to(d);
    }
    d.server_cpu_s = process_cpu_s() - cpu0 - client_cpu;
    rounds.finish(d);
}

/// Read-only closed-loop query probe on a live server, used by the traced
/// run to time the query path on workloads whose own loop has no reads.
pub fn query_probe(
    addr: SocketAddr,
    seed: u64,
    items: &[u64],
    n: usize,
    tracer: &mut Tracer,
) -> Drive {
    let topk = get("/topk?n=10");
    let points: Vec<Vec<u8>> = point_keys(seed, items)
        .iter()
        .map(|k| get(&format!("/point/{k}")))
        .collect();
    let mut conn = connect(addr);
    let mut d = Drive::default();
    let mut tally = Tally::default();
    let mut slot = 1u64 << 50;
    while d.query_us.len() < n {
        slot += 1;
        let raw = match op_at(seed, slot) {
            Op::Write => continue,
            Op::Topk => &topk,
            Op::Point(i) => &points[i],
        };
        let t0 = Instant::now();
        if !tally.exchange(&mut conn, raw, Some(&mut *tracer), slot) {
            break;
        }
        d.query_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tally.add_to(&mut d);
    d
}

// ------------------------------------------------------------------ ingest

/// `ingest`: one connection, closed loop of 10 000-item `POST /ingest`
/// over an in-memory service with automatic epochs every 10⁶ items.
pub struct Ingest {
    seed: u64,
    server: Server,
    items: Vec<u64>,
    requests: Vec<Vec<u8>>,
    sent: usize,
}

impl Ingest {
    pub fn setup(seed: u64) -> Self {
        let items = zipf_items(seed, POOL * BATCH);
        let requests = pool_requests(&items, BATCH);
        let server = start_server(ServiceBackend::InMemory(in_memory(
            Some(INGEST_EPOCH_LEN),
            seed,
        )));
        Self {
            seed,
            server,
            items,
            requests,
            sent: 0,
        }
    }

    pub fn items(&self) -> &[u64] {
        &self.items
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn drive(&mut self, duration: Duration, tracer: Option<&mut Tracer>) -> Drive {
        let mut d = Drive::default();
        let mut ingest_ns = Vec::new();
        let (requests, sent) = (&self.requests, &mut self.sent);
        closed_loop(
            self.server.addr(),
            duration,
            f64::INFINITY,
            &mut d,
            tracer,
            |conn, tally, tracer| {
                let t0 = Instant::now();
                let ok = tally.exchange(conn, &requests[*sent % POOL], tracer, *sent as u64);
                let rt = t0.elapsed().as_secs_f64();
                ok.then(|| {
                    *sent += 1;
                    ingest_ns.push(rt * 1e9 / BATCH as f64);
                    (rt * 1e3, BATCH as f64)
                })
            },
        );
        d.ingest_ns_per_item = ingest_ns;
        d.named(
            "ingest_items_per_s",
            d.rate,
            "items/s",
            Some(d.latency_ms.len()),
        );
        let samples = d.latency_ms.clone();
        d.latency_named("ingest_req", &samples, "ms");
        d
    }

    /// The final `/topk?n=10000` and `/epoch` must equal the reference fed
    /// the same items under the same seed (DESIGN.md §2 bit-identity).
    pub fn verify(self) -> Vec<Check> {
        let mut checks = Vec::new();
        let mut conn = connect(self.addr());
        let mut tally = Tally::default();
        let topk_ok = tally.exchange(&mut conn, &get("/topk?n=10000"), None, 0);
        let served = decode_topk(conn.body()).ok();
        let epoch_ok = tally.exchange(&mut conn, &get("/epoch"), None, 0);
        let epoch_body = conn.body().to_vec();
        drop(conn);
        self.server.shutdown();

        let mut reference = reference(Some(INGEST_EPOCH_LEN), self.seed);
        for j in 0..self.sent {
            let batch = &self.items[(j % POOL) * BATCH..][..BATCH];
            reference
                .ingest_from(batch.iter().copied())
                .expect("reference ingest");
        }
        let latest = reference.latest();
        check(
            &mut checks,
            "ingest: final reads answered 200",
            topk_ok && epoch_ok,
        );
        check(
            &mut checks,
            format!(
                "ingest: /topk?n=10000 equals the reference ({} keys)",
                latest.len()
            ),
            served == Some(as_map(reference.top_k(10_000))),
        );
        check(
            &mut checks,
            format!(
                "ingest: /epoch equals the reference (epoch {})",
                latest.epoch
            ),
            json_u64(&epoch_body, "epoch") == Some(latest.epoch)
                && json_u64(&epoch_body, "released_keys") == Some(latest.len() as u64),
        );
        checks
    }
}

// ----------------------------------------------------------- epoch_release

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory under `perfbench/out`, inside the checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SERIAL.fetch_add(1, Ordering::Relaxed);
    let dir = crate::out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

pub fn open_durable(dir: &Path, seed: u64) -> (DurableService, RecoveryReport) {
    DurableService::open(
        service_config(None),
        mechanism(),
        budget(),
        DurabilityConfig::new(dir),
        seed,
    )
    .expect("open the durable service")
}

/// `epoch_release`: one connection, closed loop of (10 000-item
/// `POST /ingest`, `POST /epoch/end`) over a WAL-backed service with the
/// `DurabilityConfig` defaults; then a 10⁶-item tail, shutdown and timed
/// recovery.
pub struct EpochRelease {
    seed: u64,
    server: Server,
    dir: PathBuf,
    items: Vec<u64>,
    requests: Vec<Vec<u8>>,
    end: Vec<u8>,
    epochs: usize,
}

/// Recovery copies opened (and timed) per run; the median is reported.
const RECOVERIES: usize = 3;
/// Epochs per round at most. The transcript keeps every epoch, so a cap
/// every host reaches in a 0.25 s round keeps the run's peak RSS from
/// following the host's speed.
const EPOCHS_PER_ROUND: f64 = 15.0;

impl EpochRelease {
    pub fn setup(seed: u64) -> Self {
        let items = zipf_items(seed, POOL * BATCH);
        let requests = pool_requests(&items, BATCH);
        let dir = scratch_dir("wal");
        let (service, _) = open_durable(&dir, seed);
        let server = start_server(ServiceBackend::Durable(service));
        Self {
            seed,
            server,
            dir,
            items,
            requests,
            end: post("/epoch/end", b""),
            epochs: 0,
        }
    }

    pub fn items(&self) -> &[u64] {
        &self.items
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn drive(&mut self, duration: Duration, tracer: Option<&mut Tracer>) -> Drive {
        let mut d = Drive::default();
        let (mut ingest_ns, mut ingest_ms) = (Vec::new(), Vec::new());
        let (requests, end, epochs) = (&self.requests, &self.end, &mut self.epochs);
        closed_loop(
            self.server.addr(),
            duration,
            EPOCHS_PER_ROUND,
            &mut d,
            tracer,
            |conn, tally, mut tracer| {
                let id = *epochs as u64 * 2;
                let t0 = Instant::now();
                if !tally.exchange(conn, &requests[*epochs % POOL], tracer.as_deref_mut(), id) {
                    return None;
                }
                let t1 = Instant::now();
                if !tally.exchange(conn, end, tracer.as_deref_mut(), id + 1) {
                    return None;
                }
                let ingest = (t1 - t0).as_secs_f64();
                *epochs += 1;
                ingest_ns.push(ingest * 1e9 / BATCH as f64);
                ingest_ms.push(ingest * 1e3);
                Some((t1.elapsed().as_secs_f64() * 1e3, 1.0))
            },
        );
        d.ingest_ns_per_item = ingest_ns;
        d.named("epochs_per_s", d.rate, "epochs/s", Some(self.epochs));
        let samples = d.latency_ms.clone();
        d.latency_named("epoch_end", &samples, "ms");
        d.latency_named("ingest_req", &ingest_ms, "ms");
        d
    }

    /// Stops the server and removes the WAL directory, unchecked.
    pub fn discard(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Ingests the tail, shuts the server down, reopens copies of the
    /// directory and checks the recovered service against its
    /// pre-shutdown state and the reference. Also returns the recovery
    /// times (ms) and the directory's size (bytes).
    pub fn verify(self) -> (Vec<Check>, Vec<f64>, u64) {
        let mut checks = Vec::new();
        let tail_len = (POOL * BATCH) as u64;
        let mut conn = connect(self.addr());
        let mut tally = Tally::default();
        let tail_ok = self
            .requests
            .iter()
            .all(|raw| tally.exchange(&mut conn, raw, None, 0));
        check(
            &mut checks,
            "epoch_release: tail ingest answered 200",
            tail_ok,
        );
        drop(conn);

        let state = |s: &DurableService, open_items: u64| {
            let acct = s.accountant();
            (
                s.completed_epochs(),
                s.latest(),
                acct.spent_epsilon(),
                acct.spent_delta(),
                acct.charges(),
                open_items,
            )
        };
        let before = match &*self.server.state().backend().expect("backend not poisoned") {
            ServiceBackend::Durable(s) => {
                state(s, s.open_epoch_items() + s.buffered_items() as u64)
            }
            ServiceBackend::InMemory(_) => unreachable!("epoch_release runs the durable backend"),
        };
        self.server.shutdown();
        let size = dir_bytes(&self.dir);

        let mut recovery_ms = Vec::new();
        let mut reopened = None;
        for i in 0..RECOVERIES {
            let copy = self.dir.with_extension(format!("copy{i}"));
            copy_dir(&self.dir, &copy).expect("copy the WAL directory");
            let t0 = Instant::now();
            let (service, report) = open_durable(&copy, self.seed);
            recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            reopened.get_or_insert((state(&service, service.open_epoch_items()), report));
            drop(service);
            let _ = std::fs::remove_dir_all(&copy);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        let (after, report) = reopened.expect("at least one recovery");

        let mut reference = reference(None, self.seed);
        for j in 0..self.epochs {
            let batch = &self.items[(j % POOL) * BATCH..][..BATCH];
            reference
                .ingest_from(batch.iter().copied())
                .expect("reference ingest");
            reference.end_epoch().expect("reference release");
        }
        reference
            .ingest_from(self.items.iter().copied())
            .expect("reference tail");
        let acct = reference.accountant();
        let expected = (
            reference.completed_epochs(),
            reference.latest(),
            acct.spent_epsilon(),
            acct.spent_delta(),
            acct.charges(),
            tail_len,
        );
        check(
            &mut checks,
            format!(
                "epoch_release: pre-shutdown state equals the reference ({} epochs)",
                expected.0
            ),
            before == expected,
        );
        check(
            &mut checks,
            "epoch_release: reopened state equals the pre-shutdown state",
            after == before,
        );
        check(
            &mut checks,
            "epoch_release: recovery replayed the tail into the open epoch",
            report.recovered && report.open_epoch == OpenEpochStatus::Replayed { items: tail_len },
        );
        (checks, recovery_ms, size)
    }
}

// --------------------------------------------------------------- query_mix

/// One sampled read answer, checked against the reference afterwards.
struct Sample {
    op: Op,
    body: Vec<u8>,
}

/// What one client thread did in one phase of one round.
#[derive(Default)]
struct PhaseOut {
    /// Read latencies, µs: from the due time (open loop) or the send
    /// (closed loop).
    reads_us: Vec<f64>,
    send_lag_us: Vec<f64>,
    tally: Tally,
    samples: Vec<Sample>,
    ingest_ns_per_item: Vec<f64>,
    /// Writes completed so far (only connection 0 ever writes).
    writes_done: usize,
    /// Thread CPU time over the phase, s.
    client_cpu_s: f64,
    /// When the thread's last request completed.
    last_done: Option<Instant>,
}

/// Sample every 97th read slot for the correctness check.
const SAMPLE_EVERY: u64 = 97;
/// Phase B slots are numbered from here so they never repeat Phase A's.
const PHASE_B_BASE: u64 = 1_000_000_000_000;
/// Slot numbers each round reserves: a multiple of `WRITE_EVERY`, so
/// writes stay on connection 0.
const ROUND_SLOTS: u64 = 1_000_000_000;
/// The open-loop generator sleeps until this long before a slot is due,
/// then yields until it is: plain sleeps overshoot by the timer slack.
const SPIN_WINDOW: Duration = Duration::from_micros(60);

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// `query_mix`: a server seeded with 200 key-churn epochs, then Phase A
/// (open loop at 10 000 req/s over 2 connections) and Phase B (the same
/// mix closed-loop), with every 1000th slot a write.
pub struct QueryMix {
    seed: u64,
    server: Server,
    churn: Vec<u64>,
    topk: Vec<u8>,
    points: Vec<(u64, Vec<u8>)>,
    writes: Vec<Vec<u8>>,
    end: Vec<u8>,
    writes_done: usize,
    samples: Vec<Sample>,
}

impl QueryMix {
    pub fn setup(seed: u64) -> Self {
        let seeded = CHURN_EPOCHS * CHURN_EPOCH_ITEMS;
        let churn = churn_items(seed, seeded + WRITE_POOL * BATCH);
        let server = start_server(ServiceBackend::InMemory(in_memory(None, seed)));
        let mut conn = connect(server.addr());
        let end = post("/epoch/end", b"");
        let mut tally = Tally::default();
        for epoch in churn[..seeded].chunks(CHURN_EPOCH_ITEMS) {
            tally.exchange(&mut conn, &post("/ingest", &ingest_body(epoch)), None, 0);
            tally.exchange(&mut conn, &end, None, 0);
        }
        assert_eq!(tally.failed, 0, "query_mix seeding must not fail");
        let writes = pool_requests(&churn[seeded..], BATCH);
        let points = point_keys(seed, &churn[..seeded])
            .into_iter()
            .map(|k| (k, get(&format!("/point/{k}"))))
            .collect();
        Self {
            seed,
            server,
            churn,
            topk: get("/topk?n=10"),
            points,
            writes,
            end,
            writes_done: 0,
            samples: Vec::new(),
        }
    }

    pub fn items(&self) -> &[u64] {
        &self.churn[..CHURN_EPOCHS * CHURN_EPOCH_ITEMS]
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Runs slot `slot` on `conn`; returns whether it was a read.
    fn run_slot(
        &self,
        slot: u64,
        conn: &mut Conn,
        out: &mut PhaseOut,
        tracer: Option<&mut Tracer>,
    ) -> bool {
        let op = op_at(self.seed, slot);
        let raw = match op {
            Op::Write => {
                let t0 = Instant::now();
                let ok = out.tally.exchange(
                    conn,
                    &self.writes[out.writes_done % WRITE_POOL],
                    None,
                    slot,
                );
                out.ingest_ns_per_item
                    .push(t0.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
                if ok && out.tally.exchange(conn, &self.end, None, slot) {
                    out.writes_done += 1;
                }
                return false;
            }
            Op::Topk => &self.topk,
            Op::Point(i) => &self.points[i].1,
        };
        out.tally.exchange(conn, raw, tracer, slot);
        if slot.is_multiple_of(SAMPLE_EVERY) {
            out.samples.push(Sample {
                op,
                body: conn.body().to_vec(),
            });
        }
        true
    }

    /// Runs one phase on 2 fresh connections, one fresh client thread
    /// each, and returns the per-connection outcomes, the phase's start
    /// and the server's CPU time over it (s). `open` schedules slot `i` at
    /// `start + i / OFFERED_RPS` on connection `i mod 2`; otherwise each
    /// connection runs closed loop.
    fn phase(
        &mut self,
        open: bool,
        base: u64,
        duration: Duration,
        tracers: &mut [Option<Tracer>; 2],
        traced: bool,
    ) -> (Vec<PhaseOut>, Instant, f64) {
        let cpu0 = process_cpu_s();
        let addr = self.addr();
        let start = Instant::now() + Duration::from_millis(5);
        let deadline = start + duration;
        let period_ns = 1e9 / OFFERED_RPS;
        let this = &*self;
        let outs = std::thread::scope(|scope| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, tracer)| {
                    scope.spawn(move || {
                        let client0 = thread_cpu_s();
                        let mut conn = connect(addr);
                        let mut out = PhaseOut {
                            writes_done: this.writes_done,
                            ..PhaseOut::default()
                        };
                        let mut i = c as u64;
                        let mut last_done = start;
                        loop {
                            let sent = if open {
                                let due =
                                    start + Duration::from_nanos((i as f64 * period_ns) as u64);
                                if due >= deadline {
                                    break;
                                }
                                wait_until(due);
                                out.send_lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                                due
                            } else {
                                let now = Instant::now();
                                if now >= deadline {
                                    break;
                                }
                                now
                            };
                            let failed = out.tally.failed;
                            let tracer = if traced { tracer.as_mut() } else { None };
                            let read = this.run_slot(base + i, &mut conn, &mut out, tracer);
                            last_done = Instant::now();
                            if out.tally.failed > failed {
                                break;
                            }
                            if read {
                                out.reads_us.push((last_done - sent).as_secs_f64() * 1e6);
                            }
                            i += 2;
                        }
                        drop(conn);
                        out.last_done = Some(last_done);
                        out.client_cpu_s = thread_cpu_s() - client0;
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        self.writes_done = outs[0].writes_done;
        let clients: f64 = outs.iter().map(|o| o.client_cpu_s).sum();
        (outs, start, process_cpu_s() - cpu0 - clients)
    }

    /// Alternates Phase A and Phase B, one of each per round. With a
    /// tracer, odd rounds are traced.
    pub fn drive(&mut self, duration: Duration, tracer: Option<&mut Tracer>) -> Drive {
        let mut tracers = [None, None];
        if let Some(t) = &tracer {
            tracers = [Some(Tracer::new(t.origin())), Some(Tracer::new(t.origin()))];
        }
        let phase_len = duration / (2 * ROUNDS);
        let secs = |outs: &[PhaseOut], start: Instant| {
            let end = outs
                .iter()
                .filter_map(|o| o.last_done)
                .max()
                .unwrap_or(start);
            end.saturating_duration_since(start).as_secs_f64()
        };
        let mut d = Drive::default();
        let (mut a_rounds, mut b_rounds) = (Rounds::default(), Rounds::default());
        let (mut a_requests, mut a_secs) = (0u64, 0.0);
        for r in 0..u64::from(ROUNDS) {
            let traced = tracer.is_some() && r % 2 == 1;
            let (a, a_start, _) =
                self.phase(true, r * ROUND_SLOTS, phase_len, &mut tracers, traced);
            let (b, b_start, b_cpu) = self.phase(
                false,
                PHASE_B_BASE + r * ROUND_SLOTS,
                phase_len,
                &mut tracers,
                traced,
            );
            let a_ms: Vec<f64> = a
                .iter()
                .flat_map(|o| o.reads_us.iter().map(|us| us / 1e3))
                .collect();
            a_rounds.push(traced, 0.0, secs(&a, a_start), &a_ms);
            let b_reads = b.iter().map(|o| o.reads_us.len()).sum::<usize>() as f64;
            b_rounds.push(traced, b_reads, secs(&b, b_start), &[]);
            a_requests += a.iter().map(|o| o.tally.attempted).sum::<u64>();
            a_secs += secs(&a, a_start);
            d.latency_ms.extend(a_ms);
            d.ops += b_reads;
            d.server_cpu_s += b_cpu;
            // Only Phase A has a schedule to fall behind.
            d.send_lag_us
                .extend(a.iter().flat_map(|o| o.send_lag_us.iter().copied()));
            d.query_us
                .extend(b.iter().flat_map(|o| o.reads_us.iter().copied()));
            for o in a.into_iter().chain(b) {
                o.tally.add_to(&mut d);
                d.ingest_ns_per_item.extend(&o.ingest_ns_per_item);
                self.samples.extend(o.samples);
            }
        }
        if let Some(t) = tracer {
            for extra in tracers.into_iter().flatten() {
                t.absorb(extra);
            }
        }
        a_rounds.finish(&mut d);
        d.rate = b_rounds.stat(false, |r| r.rate);
        d.traced_rate = b_rounds.stat(true, |r| r.rate);
        let lat_us: Vec<f64> = d.latency_ms.iter().map(|ms| ms * 1e3).collect();
        d.latency_named("query", &lat_us, "us");
        d.named("query_rps", d.rate, "req/s", Some(d.ops as usize));
        d.named("phase_a_offered_rps", OFFERED_RPS, "req/s", None);
        d.named(
            "phase_a_achieved_rps",
            a_requests as f64 / a_secs,
            "req/s",
            Some(a_requests as usize),
        );
        let lag = Latency::of(&d.send_lag_us);
        d.named("send_lag_p99_us", lag.p99, "us", Some(lag.n));
        d.named("writes", self.writes_done as f64, "count", None);
        d
    }

    /// Every sampled read must equal the reference snapshot at the epoch
    /// its body reports, and the final epoch must count every write.
    pub fn verify(self) -> Vec<Check> {
        let mut checks = Vec::new();
        let mut conn = connect(self.addr());
        let epoch_ok = Tally::default().exchange(&mut conn, &get("/epoch"), None, 0);
        let served_epoch = json_u64(conn.body(), "epoch");
        drop(conn);
        self.server.shutdown();

        let seeded = CHURN_EPOCHS * CHURN_EPOCH_ITEMS;
        let mut reference = reference(None, self.seed);
        for epoch in self.churn[..seeded].chunks(CHURN_EPOCH_ITEMS) {
            reference
                .ingest_from(epoch.iter().copied())
                .expect("reference ingest");
            reference.end_epoch().expect("reference release");
        }
        let mut snapshots: BTreeMap<u64, Arc<ReleasedSnapshot<u64>>> = BTreeMap::new();
        snapshots.insert(reference.completed_epochs(), reference.latest());
        for w in 0..self.writes_done {
            let batch = &self.churn[seeded + (w % WRITE_POOL) * BATCH..][..BATCH];
            reference
                .ingest_from(batch.iter().copied())
                .expect("reference ingest");
            let snapshot = reference.end_epoch().expect("reference release");
            snapshots.insert(snapshot.epoch, snapshot);
        }
        check(
            &mut checks,
            format!(
                "query_mix: /epoch counts the seeding and all {} writes",
                self.writes_done
            ),
            epoch_ok && served_epoch == Some(reference.completed_epochs()),
        );

        let matched = self
            .samples
            .iter()
            .filter(|sample| {
                let body = &sample.body;
                let Some(snapshot) = json_u64(body, "epoch").and_then(|e| snapshots.get(&e)) else {
                    return false;
                };
                match sample.op {
                    Op::Topk => decode_topk(body).ok() == Some(as_map(snapshot.top_k(10))),
                    Op::Point(i) => {
                        let key = self.points[i].0;
                        json_u64(body, "key") == Some(key)
                            && json_f64(body, "estimate") == Some(snapshot.point_query(&key))
                    }
                    Op::Write => false,
                }
            })
            .count();
        check(
            &mut checks,
            format!(
                "query_mix: {matched}/{} sampled reads equal the reference at their epoch",
                self.samples.len()
            ),
            !self.samples.is_empty() && matched == self.samples.len(),
        );
        checks
    }
}
