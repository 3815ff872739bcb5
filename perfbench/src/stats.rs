//! Order statistics and the in-memory span recorder.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (nearest rank) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A latency summary: median, 99th percentile, and the sample count. The p99 is only trusted with at least 10 samples beyond it, so
/// [`Latency::p99_valid`] needs n ≥ 1000.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            n: samples.len(),
        }
    }

    pub fn p99_valid(&self) -> bool {
        self.n >= 1000
    }
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage_self() -> Rusage {
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as this target's
    // `struct rusage`, and RUSAGE_SELF is a valid `who`; getrusage only
    // writes into the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// CPU time of the whole process, every thread included, live or exited
/// (user + system, s). Time the hypervisor stole is not in it.
pub fn process_cpu_s() -> f64 {
    let r = rusage_self();
    let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(r.utime) + secs(r.stime)
}

/// Peak resident set of the process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kb as f64 / 1024.0
}

/// CPU time of the calling thread, s.
pub fn thread_cpu_s() -> f64 {
    read_proc("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Host CPU counters: `(steal, total)` jiffies over all CPUs.
pub fn host_steal() -> (u64, u64) {
    let stat = read_proc("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host steal since `since` (a [`host_steal`] reading), as a share.
pub fn steal_since(since: (u64, u64)) -> f64 {
    let now = host_steal();
    (now.0 - since.0) as f64 / (now.1 - since.1).max(1) as f64
}

/// One recorded span: a timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request (or one input batch) share this id.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out once the run ends. Ids are local
/// to one tracer; [`Tracer::absorb`] renumbers when merging per-thread
/// tracers.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records `f` as one span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.timed(name, parent, request, f).0
    }

    /// As [`Tracer::span`], also returning the span's duration in ns.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        (out, self.spans[id as usize].ns() as f64)
    }

    /// Records an already-measured interval.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Moves `other`'s spans into this tracer, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, where a span's self
    /// time is its duration minus that of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let at = |ns| origin + std::time::Duration::from_nanos(ns);
        let root = t.record("root", None, 0, at(0), at(100));
        let child = t.record("child", Some(root), 0, at(10), at(40));
        t.record("grandchild", Some(child), 0, at(20), at(30));
        let st = t.self_times();
        assert_eq!(st["root"], (1, 100, 70));
        assert_eq!(st["child"], (1, 30, 20));
        assert_eq!(st["grandchild"], (1, 10, 10));
    }
}
