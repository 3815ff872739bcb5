//! The traced per-layer run: a workload's generated inputs pushed through
//! each layer's public entry points in turn (sketch → pipeline → release
//! → service → WAL → HTTP framing / JSON / handler), one span per call.
//! Layers are measured on the same inputs in the same process, so their
//! numbers stack: a layer's self time is its number minus the layers it
//! calls, and the socket residual is the end-to-end round trip minus the
//! in-process handler.

use crate::client::{get, ingest_body, post};
use crate::inputs::*;
use crate::stats::{median, quantile, Tracer};
use crate::workloads::{copy_dir, dir_bytes, open_durable, scratch_dir, Drive};
use dpmg_pipeline::ShardedPipeline;
use dpmg_server::api_types::{topk_body, IngestRequest};
use dpmg_server::http::read_request;
use dpmg_server::{handlers, ServiceBackend};
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One step of a workload's write stream.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Ingest batch `i` of [`LadderInput::batches`].
    Batch(usize),
    /// Close the epoch.
    End,
}

/// A workload's inputs for the ladder. Sizes are fixed per workload, so
/// every count the ladder reports repeats exactly for one seed.
pub struct LadderInput {
    pub batches: Vec<Vec<u64>>,
    pub steps: Vec<Step>,
    /// Keys the point queries draw from.
    pub key_source: Vec<u64>,
    /// Generator cost of producing the items, ns per item.
    pub gen_ns_per_item: f64,
}

/// Query slots the ladder replays against the final snapshot.
const LADDER_QUERIES: u64 = 4_000;
/// Point queries are timed in groups of this many calls.
const POINT_GROUP: usize = 64;
/// Recoveries and checkpoints timed per ladder; the median is reported.
const REPEATS: usize = 3;

impl LadderInput {
    pub fn for_workload(workload: &str, seed: u64) -> Self {
        let t0 = Instant::now();
        let (items, batch_len) = match workload {
            "query_mix" => (
                churn_items(seed, CHURN_EPOCHS * CHURN_EPOCH_ITEMS + WRITE_POOL * BATCH),
                CHURN_EPOCH_ITEMS,
            ),
            _ => (zipf_items(seed, POOL * BATCH), BATCH),
        };
        let gen_ns_per_item = t0.elapsed().as_nanos() as f64 / items.len() as f64;
        let mut steps = Vec::new();
        let batches: Vec<Vec<u64>>;
        let key_source: Vec<u64>;
        match workload {
            "ingest" => {
                // Four 10⁶-item epochs, then half an epoch left open.
                batches = items.chunks(batch_len).map(<[u64]>::to_vec).collect();
                for _ in 0..4 {
                    steps.extend((0..POOL).map(Step::Batch));
                    steps.push(Step::End);
                }
                steps.extend((0..POOL / 2).map(Step::Batch));
                key_source = items;
            }
            "epoch_release" => {
                // 300 epochs of one batch each, then the 10⁶-item tail.
                batches = items.chunks(batch_len).map(<[u64]>::to_vec).collect();
                for j in 0..300 {
                    steps.push(Step::Batch(j % POOL));
                    steps.push(Step::End);
                }
                steps.extend((0..POOL).map(Step::Batch));
                key_source = items;
            }
            _ => {
                // 200 seeding epochs of 20 000 items, 20 write epochs of
                // 10 000, then ten writes left open.
                let seeded = CHURN_EPOCHS * CHURN_EPOCH_ITEMS;
                let mut all: Vec<Vec<u64>> = items[..seeded]
                    .chunks(batch_len)
                    .map(<[u64]>::to_vec)
                    .collect();
                all.extend(items[seeded..].chunks(BATCH).map(<[u64]>::to_vec));
                batches = all;
                for e in 0..CHURN_EPOCHS {
                    steps.push(Step::Batch(e));
                    steps.push(Step::End);
                }
                for w in 0..20 {
                    steps.push(Step::Batch(CHURN_EPOCHS + w % WRITE_POOL));
                    steps.push(Step::End);
                }
                steps.extend((0..10).map(|w| Step::Batch(CHURN_EPOCHS + w)));
                key_source = items[..seeded].to_vec();
            }
        }
        Self {
            batches,
            steps,
            key_source,
            gen_ns_per_item,
        }
    }

    fn items_in_epochs(&self) -> Vec<u64> {
        let mut out = vec![0];
        for step in &self.steps {
            match step {
                Step::Batch(i) => {
                    *out.last_mut().expect("non-empty") += self.batches[*i].len() as u64
                }
                Step::End => out.push(0),
            }
        }
        out
    }
}

/// The ladder's output: `(name, value, unit)` in report order.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }
}

/// Runs every layer over `input`. `e2e` is the traced end-to-end drive
/// (plus its query probe) of the same workload, for the socket residual.
pub fn run(input: &LadderInput, seed: u64, e2e: &Drive, tracer: &mut Tracer) -> Layers {
    let mut out = Layers::default();
    out.put("workload.gen_ns_per_item", input.gen_ns_per_item, "ns");

    // client: body encoding (outside the timed path of the HTTP run).
    let root = tracer.begin("ladder.client", None, 0);
    let mut encode = Vec::new();
    let mut bodies = Vec::new();
    for (i, batch) in input.batches.iter().enumerate() {
        let (body, ns) = tracer.timed("client.encode", Some(root), i as u64, || ingest_body(batch));
        encode.push(ns / batch.len() as f64);
        bodies.push(body);
    }
    tracer.end(root);
    out.put("client.encode_ns_per_item", median(&encode), "ns");
    out.put(
        "client.send_lag_p99_us",
        quantile(&e2e.send_lag_us, 0.99),
        "us",
    );

    sketch(input, tracer, &mut out);
    let merged = pipeline(input, tracer, &mut out);
    release(&merged, seed, tracer, &mut out);
    service(input, seed, tracer, &mut out);
    wal(input, seed, tracer, &mut out);
    let topk_share = server(input, &bodies, seed, tracer, &mut out);

    // Self times by subtraction.
    let sketch_ns = out.get("sketch.extend_batch_ns_per_item");
    let service_ns = out.get("service.ingest_ns_per_item");
    out.put(
        "pipeline.self_ns_per_item",
        out.get("pipeline.ingest_ns_per_item") - sketch_ns,
        "ns",
    );
    out.put(
        "service.end_epoch_self_us",
        out.get("service.end_epoch_us")
            - out.get("pipeline.rotate_epoch_us")
            - out.get("core.release_us"),
        "us",
    );
    out.put(
        "wal.self_ns_per_item",
        out.get("wal.ingest_ns_per_item") - service_ns,
        "ns",
    );
    out.put(
        "server.handler_ingest_self_ns_per_item",
        out.get("server.handler_ingest_ns_per_item")
            - out.get("server.json_decode_ns_per_item")
            - service_ns,
        "ns",
    );

    // Socket residual: end-to-end round trip minus the in-process handler.
    out.put(
        "socket.ingest_ns_per_item",
        median(&e2e.ingest_ns_per_item) - out.get("server.handler_ingest_ns_per_item"),
        "ns",
    );
    let handler_query_us = topk_share * out.get("server.handler_topk_us")
        + (1.0 - topk_share) * out.get("server.handler_point_us");
    out.put(
        "socket.query_us",
        median(&e2e.query_us) - handler_query_us,
        "us",
    );
    out
}

/// `MisraGries::extend_batch` on one single-threaded sketch per epoch.
fn sketch(input: &LadderInput, tracer: &mut Tracer, out: &mut Layers) {
    let root = tracer.begin("ladder.sketch", None, 0);
    let fresh = || MisraGries::<u64>::new(K).expect("k ≥ 1");
    let mut sketch = fresh();
    let (mut decrements, mut stream) = (0u64, 0u64);
    let mut per_item = Vec::new();
    for (r, step) in input.steps.iter().enumerate() {
        match *step {
            Step::Batch(i) => {
                let batch = &input.batches[i];
                let ((), ns) = tracer.timed("sketch.extend_batch", Some(root), r as u64, || {
                    sketch.extend_batch(black_box(batch))
                });
                per_item.push(ns / batch.len() as f64);
            }
            Step::End => {
                decrements += sketch.decrement_count();
                stream += sketch.stream_len();
                sketch = fresh();
            }
        }
    }
    decrements += sketch.decrement_count();
    stream += sketch.stream_len();
    tracer.end(root);
    out.put("sketch.extend_batch_ns_per_item", median(&per_item), "ns");
    out.put(
        "sketch.decrement_share",
        decrements as f64 / stream as f64,
        "share",
    );
}

/// `ShardedPipeline::ingest_from` + `finish` per epoch, then
/// `rotate_epoch`. Returns each closed epoch's merged summary.
fn pipeline(input: &LadderInput, tracer: &mut Tracer, out: &mut Layers) -> Vec<Summary<u64>> {
    let root = tracer.begin("ladder.pipeline", None, 0);
    let mut pipeline = ShardedPipeline::<u64>::new(service_config(None).pipeline_config())
        .expect("valid pipeline");
    let epoch_items = input.items_in_epochs();
    let mut epoch = 0;
    let mut epoch_ns = 0.0;
    let mut per_item = Vec::new();
    let mut rotate_us = Vec::new();
    let mut batches = 0u64;
    let mut merged = Vec::new();
    for (r, step) in input.steps.iter().enumerate() {
        let r = r as u64;
        match *step {
            Step::Batch(i) => {
                let batch = &input.batches[i];
                let (res, ns) = tracer.timed("pipeline.ingest_from", Some(root), r, || {
                    pipeline.ingest_from(batch.iter().copied())
                });
                res.expect("pipeline ingest");
                epoch_ns += ns;
            }
            Step::End => {
                let (res, ns) =
                    tracer.timed("pipeline.finish", Some(root), r, || pipeline.finish());
                res.expect("pipeline finish");
                per_item.push((epoch_ns + ns) / epoch_items[epoch] as f64);
                let (res, ns) = tracer.timed("pipeline.rotate_epoch", Some(root), r, || {
                    pipeline.rotate_epoch()
                });
                let (summary, stats) = res.expect("pipeline rotate");
                rotate_us.push(ns / 1e3);
                batches += stats.batches;
                merged.push(summary);
                epoch += 1;
                epoch_ns = 0.0;
            }
        }
    }
    let open_items = epoch_items[epoch];
    if open_items > 0 {
        let (res, ns) = tracer.timed("pipeline.finish", Some(root), u64::MAX, || {
            pipeline.finish()
        });
        res.expect("pipeline finish");
        per_item.push((epoch_ns + ns) / open_items as f64);
    }
    batches += pipeline.stats().batches;
    tracer.end(root);
    out.put("pipeline.ingest_ns_per_item", median(&per_item), "ns");
    out.put("pipeline.batches", batches as f64, "count");
    out.put("pipeline.rotate_epoch_us", median(&rotate_us), "us");
    merged
}

/// `ReleaseMechanism::release` (GSHM) of each epoch's merged summary.
fn release(merged: &[Summary<u64>], seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    let root = tracer.begin("ladder.core", None, 0);
    let mechanism = mechanism();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    let mut us = Vec::new();
    let mut keys = 0usize;
    for (e, summary) in merged.iter().enumerate() {
        let (res, ns) = tracer.timed("core.release", Some(root), e as u64, || {
            mechanism.release(summary, &mut rng)
        });
        keys += res.expect("GSHM release").len();
        us.push(ns / 1e3);
    }
    tracer.end(root);
    out.put("core.release_us", median(&us), "us");
    out.put(
        "core.released_keys_per_epoch",
        keys as f64 / merged.len().max(1) as f64,
        "count",
    );
}

/// `DpmgService::ingest_from` / `end_epoch`, then the query path on the
/// final snapshot.
fn service(input: &LadderInput, seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    let root = tracer.begin("ladder.service", None, 0);
    let mut service = in_memory(None, seed);
    let mut per_item = Vec::new();
    let mut end_us = Vec::new();
    for (r, step) in input.steps.iter().enumerate() {
        let r = r as u64;
        match *step {
            Step::Batch(i) => {
                let batch = &input.batches[i];
                let (res, ns) = tracer.timed("service.ingest_from", Some(root), r, || {
                    service.ingest_from(batch.iter().copied())
                });
                res.expect("service ingest");
                per_item.push(ns / batch.len() as f64);
            }
            Step::End => {
                let (res, ns) =
                    tracer.timed("service.end_epoch", Some(root), r, || service.end_epoch());
                res.expect("service release");
                end_us.push(ns / 1e3);
            }
        }
    }
    let snapshot = service.latest();
    let mut handle = service.query_handle();
    let keys = point_keys(seed, &input.key_source);
    let mut top_k_us = Vec::new();
    let mut point_ns = Vec::new();
    let mut group = Vec::with_capacity(POINT_GROUP);
    for slot in 0..LADDER_QUERIES {
        match op_at(seed, slot) {
            Op::Topk => {
                let (top, ns) =
                    tracer.timed("service.top_k", Some(root), slot, || snapshot.top_k(10));
                black_box(top);
                top_k_us.push(ns / 1e3);
            }
            Op::Point(i) => {
                group.push(keys[i]);
                if group.len() == POINT_GROUP {
                    let (sum, ns) = tracer.timed("service.point_query", Some(root), slot, || {
                        group
                            .iter()
                            .map(|k| handle.point_query(black_box(k)))
                            .sum::<f64>()
                    });
                    black_box(sum);
                    point_ns.push(ns / POINT_GROUP as f64);
                    group.clear();
                }
            }
            Op::Write => {}
        }
    }
    tracer.end(root);
    out.put("service.ingest_ns_per_item", median(&per_item), "ns");
    out.put("service.end_epoch_us", median(&end_us), "us");
    out.put(
        "service.transcript_len",
        service.transcript().len() as f64,
        "count",
    );
    out.put("service.snapshot_top_k_us", median(&top_k_us), "us");
    out.put("service.point_query_ns", median(&point_ns), "ns");
    out.put("service.snapshot_keys", snapshot.len() as f64, "count");
}

/// `DurableService::ingest_from` + `flush`, `end_epoch`, then recovery of
/// the directory and explicit checkpoints of the recovered service.
fn wal(input: &LadderInput, seed: u64, tracer: &mut Tracer, out: &mut Layers) {
    let root = tracer.begin("ladder.wal", None, 0);
    let dir = scratch_dir("ladder-wal");
    let (mut service, _) = open_durable(&dir, seed);
    let mut per_item = Vec::new();
    let mut end_us = Vec::new();
    for (r, step) in input.steps.iter().enumerate() {
        let r = r as u64;
        match *step {
            Step::Batch(i) => {
                let batch = &input.batches[i];
                let (res, ns) = tracer.timed("wal.ingest_from_flush", Some(root), r, || {
                    service.ingest_from(batch.iter().copied())?;
                    service.flush()
                });
                res.expect("durable ingest");
                per_item.push(ns / batch.len() as f64);
            }
            Step::End => {
                let (res, ns) =
                    tracer.timed("wal.end_epoch", Some(root), r, || service.end_epoch());
                res.expect("durable release");
                end_us.push(ns / 1e3);
            }
        }
    }
    drop(service);
    let bytes = dir_bytes(&dir);
    let mut recovery_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut replayed = 0;
    for rep in 0..REPEATS {
        let copy = dir.with_extension(format!("copy{rep}"));
        copy_dir(&dir, &copy).expect("copy the WAL directory");
        let ((mut recovered, report), ns) =
            tracer.timed("wal.recovery", Some(root), rep as u64, || {
                open_durable(&copy, seed)
            });
        recovery_ms.push(ns / 1e6);
        replayed = report.items_replayed;
        let (res, ns) = tracer.timed("wal.checkpoint", Some(root), rep as u64, || {
            recovered.checkpoint()
        });
        res.expect("checkpoint");
        checkpoint_ms.push(ns / 1e6);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&dir);
    tracer.end(root);
    out.put("wal.ingest_ns_per_item", median(&per_item), "ns");
    out.put("wal.end_epoch_us", median(&end_us), "us");
    out.put("wal.checkpoint_ms", median(&checkpoint_ms), "ms");
    out.put("wal.recovery_ms", median(&recovery_ms), "ms");
    out.put("wal.items_replayed", replayed as f64, "count");
    out.put("wal.dir_bytes", bytes as f64, "bytes");
}

/// HTTP framing (`read_request` over the recorded request bytes), JSON
/// decode, and `handlers::handle` in-process over an in-memory service.
/// Returns the share of top-k among the replayed reads.
fn server(
    input: &LadderInput,
    bodies: &[Vec<u8>],
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Layers,
) -> f64 {
    let root = tracer.begin("ladder.server", None, 0);
    let state = app_state(ServiceBackend::InMemory(in_memory(None, seed)));
    let mut handle = state.query_handle().expect("fresh state is not poisoned");
    let raw: Vec<Vec<u8>> = bodies.iter().map(|b| post("/ingest", b)).collect();
    let parse = |bytes: &[u8]| {
        let mut reader = bytes;
        read_request(&mut reader, usize::MAX)
            .expect("recorded request parses")
            .expect("one request")
    };
    let end_req = parse(&post("/epoch/end", b""));
    let (mut parse_ns, mut decode_ns, mut handle_ns, mut end_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    for (r, step) in input.steps.iter().enumerate() {
        let r = r as u64;
        match *step {
            Step::Batch(i) => {
                let n = input.batches[i].len() as f64;
                let (req, ns) =
                    tracer.timed("server.read_request", Some(root), r, || parse(&raw[i]));
                parse_ns.push(ns / n);
                let (decoded, ns) = tracer.timed("server.decode", Some(root), r, || {
                    IngestRequest::decode(&req.body)
                });
                ok &= decoded.is_ok();
                decode_ns.push(ns / n);
                let (resp, ns) = tracer.timed("server.handle_ingest", Some(root), r, || {
                    handlers::handle(&state, &mut handle, &req)
                });
                ok &= resp.status == 200;
                handle_ns.push(ns / n);
            }
            Step::End => {
                let (resp, ns) = tracer.timed("server.handle_epoch_end", Some(root), r, || {
                    handlers::handle(&state, &mut handle, &end_req)
                });
                ok &= resp.status == 200;
                end_us.push(ns / 1e3);
            }
        }
    }
    let keys = point_keys(seed, &input.key_source);
    let topk_req = parse(&get("/topk?n=10"));
    let point_reqs: Vec<_> = keys
        .iter()
        .map(|k| parse(&get(&format!("/point/{k}"))))
        .collect();
    let snapshot = handle.snapshot();
    let (mut topk_us, mut point_us, mut body_us) = (Vec::new(), Vec::new(), Vec::new());
    for slot in 0..LADDER_QUERIES {
        let (req, name, sink) = match op_at(seed, slot) {
            Op::Topk => (&topk_req, "server.handle_topk", &mut topk_us),
            Op::Point(i) => (&point_reqs[i], "server.handle_point", &mut point_us),
            Op::Write => continue,
        };
        let (resp, ns) = tracer.timed(name, Some(root), slot, || {
            handlers::handle(&state, &mut handle, req)
        });
        ok &= resp.status == 200;
        sink.push(ns / 1e3);
        if name == "server.handle_topk" {
            let top = snapshot.top_k(10);
            let (body, ns) = tracer.timed("server.topk_body", Some(root), slot, || {
                topk_body(snapshot.epoch, &top)
            });
            black_box(body);
            body_us.push(ns / 1e3);
        }
    }
    tracer.end(root);
    assert!(ok, "every in-process request must succeed");
    let topk_share = topk_us.len() as f64 / (topk_us.len() + point_us.len()) as f64;
    out.put("server.http_parse_ns_per_item", median(&parse_ns), "ns");
    out.put("server.json_decode_ns_per_item", median(&decode_ns), "ns");
    out.put(
        "server.handler_ingest_ns_per_item",
        median(&handle_ns),
        "ns",
    );
    out.put("server.handler_epoch_end_us", median(&end_us), "us");
    out.put("server.handler_topk_us", median(&topk_us), "us");
    out.put("server.handler_point_us", median(&point_us), "us");
    out.put("server.topk_body_us", median(&body_us), "us");
    topk_share
}
