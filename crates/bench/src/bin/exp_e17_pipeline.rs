//! **E17 — Section 7 at production scale:** the sharded ingestion pipeline
//! (`dpmg-pipeline`) against the sequential baseline on a 1M-item Zipf
//! stream: ingestion throughput scales with the shard count (given
//! hardware parallelism), while the released histogram's error stays
//! within the *sequential* baseline's analytic bound — sharding is free
//! accuracy-wise (Lemma 29 + Corollary 18: the merged sensitivity and the
//! merged sketch error are both independent of the number of shards).

use dpmg_bench::{banner, f2, out_dir, quick_mode, verdict};
use dpmg_core::gshm::GshmParams;
use dpmg_core::mechanism::{GshmMechanism, ReleaseMechanism};
use dpmg_eval::experiment::Table;
use dpmg_noise::accounting::PrivacyParams;
use dpmg_pipeline::{PipelineConfig, ShardedPipeline};
use dpmg_sketch::merge::merge_tree;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::Summary;
use dpmg_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn stream_of(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(0xE17);
    Zipf::new(1_000_000, 1.1).stream(n, &mut rng)
}

/// The two ingestion strategies under comparison: one sketch fed in
/// stream order, or the `S`-shard pipeline. Both end in a merge-tree
/// summary (1-summary for the sequential sketch), so both go through the
/// same trusted-aggregator release.
enum Ingestion {
    Sequential(MisraGries<u64>),
    Pipeline(ShardedPipeline<u64>),
}

impl Ingestion {
    fn ingest(&mut self, stream: &[u64]) {
        for chunk in stream.chunks(4096) {
            match self {
                Ingestion::Sequential(sketch) => sketch.extend_batch(chunk),
                Ingestion::Pipeline(pipe) => {
                    pipe.ingest_from(chunk.iter().copied()).expect("ingest")
                }
            }
        }
    }

    /// The pre-noise merged summary (finishing ingestion first).
    fn merged(&mut self) -> Summary<u64> {
        match self {
            Ingestion::Sequential(sketch) => {
                merge_tree(&[sketch.summary()]).unwrap_or_else(|| Summary::empty(sketch.k()))
            }
            Ingestion::Pipeline(pipe) => pipe.merged().expect("finish"),
        }
    }
}

/// Wall-clock of a full ingest (route → batch → shard workers → join).
fn time_ingestion(mech: &mut Ingestion, stream: &[u64]) -> f64 {
    let start = Instant::now();
    mech.ingest(stream);
    mech.merged();
    start.elapsed().as_secs_f64()
}

fn main() {
    banner(
        "E17",
        "sharded pipeline: ingest throughput scales with shards; released error within the sequential analytic bound",
    );
    let n = quick_mode(100_000, 1_000_000);
    let k = 256usize;
    let stream = stream_of(n);

    // Part 1: ingestion throughput vs shard count (hardware-dependent; not
    // part of the golden snapshot).
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut t1 = Table::new(
        "E17a ingestion throughput (timing; machine-dependent)",
        &["mechanism", "ms", "Mitems/s", "speedup vs 1 shard"],
    );
    let mut base = Ingestion::Sequential(MisraGries::new(k).unwrap());
    let seq_secs = time_ingestion(&mut base, &stream);
    t1.row(&[
        "sequential".into(),
        f2(seq_secs * 1e3),
        f2(n as f64 / seq_secs / 1e6),
        "-".into(),
    ]);
    let mut one_shard_secs = f64::NAN;
    let mut speedup8 = f64::NAN;
    for shards in SHARD_COUNTS {
        let config = PipelineConfig::new(shards, k).with_batch_size(4096);
        let mut pipe = Ingestion::Pipeline(ShardedPipeline::new(config).unwrap());
        let secs = time_ingestion(&mut pipe, &stream);
        if shards == 1 {
            one_shard_secs = secs;
        }
        let speedup = one_shard_secs / secs;
        if shards == 8 {
            speedup8 = speedup;
        }
        t1.row(&[
            format!("pipeline-{shards}"),
            f2(secs * 1e3),
            f2(n as f64 / secs / 1e6),
            f2(speedup),
        ]);
    }
    t1.emit(&out_dir()).unwrap();
    println!("(detected hardware parallelism: {threads} threads)\n");
    verdict(
        &format!(
            "throughput: 8-shard speedup {} ≥ 2 (needs ≥2 cores; this host has {threads})",
            f2(speedup8)
        ),
        speedup8 >= 2.0 || threads < 2,
    );

    // Part 2: released-histogram accuracy vs shard count (deterministic:
    // fixed data seed, fixed release seed per row).
    let k_acc = 64usize;
    let mechanism = GshmMechanism::new(PrivacyParams::new(0.9, 1e-8).unwrap()).unwrap();
    let gshm = GshmParams::calibrate(0.9, 1e-8, k_acc).unwrap();
    // The sequential baseline's analytic error bound: Fact 7 sketch
    // underestimate + GSHM threshold/noise envelope. Corollary 18 promises
    // the same bound for the merged release, whatever the shard count.
    let bound = (n as f64) / (k_acc as f64 + 1.0) + gshm.tau + 1.0;
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &x in &stream {
        *truth.entry(x).or_insert(0) += 1;
    }
    let mut top: Vec<(u64, u64)> = truth.into_iter().collect();
    top.sort_by_key(|&(key, f)| (std::cmp::Reverse(f), key));
    top.truncate(20);

    let mut t2 = Table::new(
        "E17b released max error over top-20 keys (eps=0.9, delta=1e-8)",
        &["mechanism", "max err", "seq analytic bound", "within"],
    );
    let mut accuracy_ok = true;
    let max_err_of = |mut mech: Ingestion, seed: u64| -> f64 {
        mech.ingest(&stream);
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = mechanism
            .release(&mech.merged(), &mut rng)
            .expect("release");
        top.iter()
            .map(|&(key, f)| (hist.estimate(&key) - f as f64).abs())
            .fold(0.0, f64::max)
    };
    let err = max_err_of(
        Ingestion::Sequential(MisraGries::new(k_acc).unwrap()),
        0xACC0,
    );
    accuracy_ok &= err <= bound;
    t2.row(&[
        "sequential".into(),
        f2(err),
        f2(bound),
        (err <= bound).to_string(),
    ]);
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let pipe = ShardedPipeline::new(PipelineConfig::new(shards, k_acc)).unwrap();
        let err = max_err_of(Ingestion::Pipeline(pipe), 0xACC1 + i as u64);
        accuracy_ok &= err <= bound;
        t2.row(&[
            format!("pipeline-{shards}"),
            f2(err),
            f2(bound),
            (err <= bound).to_string(),
        ]);
    }
    t2.emit(&out_dir()).unwrap();
    verdict(
        "released error within the sequential analytic bound at every shard count",
        accuracy_ok,
    );
}
