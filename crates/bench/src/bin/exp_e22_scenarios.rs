//! **E22 — non-stationary scenarios:** the mechanism registry, the
//! windowed serving mode, and the decayed sketch under the workload
//! generators of `dpmg-workload::scenarios` (key churn, flash crowds,
//! adversarial eviction floods).
//!
//! Four claims:
//!
//! 1. **Registry robustness** — every swept mechanism stays feasible and
//!    retrieves the true heavy hitters (recall 1 above the analytic
//!    envelope) on *every* scenario, adversarial eviction floods included
//!    (per-(mechanism × scenario) verdict table; golden-snapshotted).
//! 2. **Windowed serving tracks churn** — a `ServiceMode::Windowed`
//!    service over a key-churn stream answers with the *current* window's
//!    heads, while the cumulative Independent view keeps serving stale
//!    ones; and the windowed releases are bit-identical to the
//!    sequential reference.
//! 3. **Per-window privacy** — an `eval::audit` over neighbouring streams
//!    estimates `ε̂` of one window release at or below the advertised
//!    per-window `ε_w` (the base case of the `(W·ε_w, W·δ_w)` composition
//!    in DESIGN.md, "Per-window budget accounting").
//! 4. **Decay forgets** — `DecayedMisraGries` ranks a post-churn head
//!    above the faded old head; the plain sketch keeps the stale ranking.

use dp_misra_gries::core::mechanism::{
    by_name, MechanismSpec, MergedLaplaceMechanism, ReleaseMechanism,
};
use dp_misra_gries::prelude::*;
use dp_misra_gries::sketch::exact::ExactHistogram;
use dp_misra_gries::sketch::windowed::DecayedMisraGries;
use dpmg_bench::{banner, f2, f3, out_dir, quick, quick_mode, verdict};
use dpmg_eval::audit::{audit_mechanism, AuditConfig};
use dpmg_eval::experiment::Table;
use dpmg_eval::metrics::hh_quality;
use dpmg_eval::sweep::{run_sweep, SweepConfig};
use dpmg_workload::scenarios::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.9;
const DELTA: f64 = 1e-8;
const K: usize = 64;
const MECHS: [&str; 3] = ["pmg", "merged-laplace", "gshm"];

fn params() -> PrivacyParams {
    PrivacyParams::new(EPS, DELTA).unwrap()
}

/// The scenario roster, all sized to `n` stream items.
fn scenarios(n: usize) -> Vec<Scenario> {
    vec![
        Scenario::StationaryZipf {
            n,
            d: 10_000,
            s: 1.2,
        },
        Scenario::KeyChurn {
            n,
            d: 10_000,
            s: 1.2,
            period: n / 4,
            head: 20,
        },
        Scenario::FlashCrowd {
            n,
            d: 10_000,
            s: 1.2,
            spike_at: n / 2,
            spike_len: n / 8,
            spike_key: 777_777,
            spike_share: 0.5,
        },
        Scenario::EvictionFlood {
            heavy: 20,
            heavy_count: (n / 40) as u64,
            flood: n / 2,
        },
    ]
}

struct QualityRow {
    scenario: String,
    mechanism: &'static str,
    /// True heavy hitters above this mechanism's envelope (0 = the recall
    /// claim is vacuous for this cell — e.g. merged-laplace's threshold
    /// sits above every planted flood heavy at quick sizes).
    truth_heavies: usize,
    precision: f64,
    recall: f64,
}

/// Part 1b: release each scenario's sketch through each mechanism and
/// score retrieval against the exact truth at the analytic envelope.
fn quality_rows(scens: &[Scenario]) -> Vec<QualityRow> {
    let spec = MechanismSpec::new(params());
    let mut rows = Vec::new();
    for (s_idx, scenario) in scens.iter().enumerate() {
        let stream = scenario.generate(0xE22 + s_idx as u64);
        let n = stream.len();
        let truth = ExactHistogram::from_stream(stream.iter().copied());
        let mut sketch = MisraGries::new(K).unwrap();
        sketch.extend(stream.iter().copied());
        let summary = sketch.summary();
        for (m_idx, name) in MECHS.iter().enumerate() {
            let mechanism = by_name(&spec, name).unwrap().expect("registry name");
            let threshold = mechanism.threshold(K).unwrap_or(0.0);
            let radius = mechanism.error_radius(K).unwrap_or(0.0);
            // A key this far above the sketch slack + suppression
            // threshold + 3 noise radii must be reported.
            let envelope = n as f64 / (K as f64 + 1.0) + threshold + 3.0 * radius;
            let mut rng = StdRng::seed_from_u64(0x9_0000 + (s_idx as u64) * 16 + m_idx as u64);
            let hist = mechanism.release(&summary, &mut rng).unwrap();
            let reported: Vec<u64> = hist.iter().map(|(&k, _)| k).collect();
            let t = envelope.ceil() as u64 + 1;
            let q = hh_quality(&reported, &truth, t);
            rows.push(QualityRow {
                scenario: scenario.name(),
                mechanism: name,
                truth_heavies: truth.heavy_hitters(t).len(),
                precision: q.precision,
                recall: q.recall,
            });
        }
    }
    rows
}

struct ChurnOutcome {
    windowed_reported: usize,
    windowed_stale: usize,
    windowed_recall: f64,
    cumulative_reported: usize,
    cumulative_stale: usize,
    bit_identical: bool,
}

/// Part 2: windowed vs cumulative serving over key churn, plus the
/// service/reference bit-identity check. "Stale" keys are the
/// pre-churn head block — a trending-topics service must not keep
/// serving them after the window slides past the rotation.
fn windowed_churn(per_epoch: usize) -> ChurnOutcome {
    let epochs = 4usize;
    let scenario = Scenario::KeyChurn {
        n: per_epoch * epochs,
        d: 10_000,
        s: 1.2,
        period: per_epoch * 2, // heads rotate halfway through
        head: 20,
    };
    let stream = scenario.generate(0xC4E2);
    let budget = PrivacyParams::new(100.0, 1e-4).unwrap();
    let mech = || -> Box<dyn ReleaseMechanism<u64>> {
        Box::new(MergedLaplaceMechanism::new(params()).unwrap())
    };
    let windowed_cfg = ServiceConfig::new(4, 32)
        .with_batch_size(509)
        .with_mode(ServiceMode::Windowed { window_epochs: 2 });

    let mut windowed = DpmgService::new(windowed_cfg, mech(), budget, 7).unwrap();
    let mut oracle = SequentialServiceReference::new(windowed_cfg, mech(), budget, 7).unwrap();
    let mut cumulative = DpmgService::new(
        ServiceConfig::new(4, 32).with_batch_size(509),
        mech(),
        budget,
        7,
    )
    .unwrap();

    let mut identical = true;
    for (i, epoch) in stream.chunks(per_epoch).enumerate() {
        for svc in [&mut windowed, &mut cumulative] {
            svc.ingest_from(epoch.iter().copied()).unwrap();
            svc.end_epoch().unwrap();
        }
        oracle.ingest_from(epoch.iter().copied()).unwrap();
        oracle.end_epoch().unwrap();
        let bits = |svc_hist: &PrivateHistogram<u64>| -> Vec<(u64, u64)> {
            svc_hist.iter().map(|(&k, v)| (k, v.to_bits())).collect()
        };
        let (w, o) = (&windowed.transcript()[i], &oracle.transcript()[i]);
        identical &= w.pre_noise == o.pre_noise;
        identical &= bits(&w.histogram) == bits(&o.histogram);
    }

    // Score both serving modes against the *current window's* truth
    // (epochs 3–4, the post-churn heads) at the windowed envelope, and
    // count stale pre-churn head keys (the rotation-0 head block 1..=20)
    // each view still reports.
    let window_stream = &stream[per_epoch * 2..];
    let truth = ExactHistogram::from_stream(window_stream.iter().copied());
    let threshold = ReleaseMechanism::<u64>::threshold(&*mech(), 32).unwrap_or(0.0);
    let radius = ReleaseMechanism::<u64>::error_radius(&*mech(), 32).unwrap_or(0.0);
    let envelope = window_stream.len() as f64 / 33.0 + threshold + 3.0 * radius;
    let t = envelope.ceil() as u64 + 1;
    let reported_of = |estimates: Vec<(u64, f64)>| -> Vec<u64> {
        estimates
            .into_iter()
            .filter(|&(_, v)| v > 0.0)
            .map(|(k, _)| k)
            .collect()
    };
    let stale_in = |keys: &[u64]| keys.iter().filter(|&&k| (1..=20).contains(&k)).count();
    let windowed_keys = reported_of(windowed.top_k(usize::MAX));
    let cumulative_keys = reported_of(cumulative.top_k(usize::MAX));
    ChurnOutcome {
        windowed_reported: windowed_keys.len(),
        windowed_stale: stale_in(&windowed_keys),
        windowed_recall: hh_quality(&windowed_keys, &truth, t).recall,
        cumulative_reported: cumulative_keys.len(),
        cumulative_stale: stale_in(&cumulative_keys),
        bit_identical: identical,
    }
}

/// Part 3: empirical `ε̂` of one window release over neighbouring streams.
fn window_audit(trials: usize) -> f64 {
    fn window_summary(stream: &[u64]) -> dp_misra_gries::sketch::traits::Summary<u64> {
        let config = ServiceConfig::new(2, 8)
            .with_batch_size(61)
            .with_mode(ServiceMode::Windowed { window_epochs: 2 });
        let budget = PrivacyParams::new(100.0, 1e-4).unwrap();
        let mechanism = Box::new(MergedLaplaceMechanism::new(params()).unwrap());
        let mut svc = DpmgService::new(config, mechanism, budget, 1).unwrap();
        let half = stream.len() / 2;
        svc.ingest_from(stream[..half].iter().copied()).unwrap();
        svc.end_epoch().unwrap();
        svc.ingest_from(stream[half..].iter().copied()).unwrap();
        svc.end_epoch().unwrap();
        svc.transcript()[1].pre_noise.clone()
    }

    let mut rng = StdRng::seed_from_u64(0xA0D17);
    let stream: Vec<u64> = (0..900)
        .map(|_| {
            if rng.random_range(0..2u32) == 0 {
                1
            } else {
                rng.random_range(2..=30u64)
            }
        })
        .collect();
    let drop_at = rng.random_range(0..stream.len());
    let neighbour: Vec<u64> = stream
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != drop_at)
        .map(|(_, &x)| x)
        .collect();

    let mechanism = MergedLaplaceMechanism::new(params()).unwrap();
    let summary_a = window_summary(&stream);
    let summary_b = window_summary(&neighbour);
    let stat = |summary: dp_misra_gries::sketch::traits::Summary<u64>| {
        let mechanism = mechanism.clone();
        move |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let hist = ReleaseMechanism::<u64>::release(
                &mechanism,
                &summary,
                &mut rng as &mut dyn rand::RngCore,
            )
            .unwrap();
            hist.iter().map(|(_, v)| v).sum::<f64>()
        }
    };
    let config = AuditConfig {
        delta: DELTA,
        ..AuditConfig::default()
    };
    audit_mechanism(trials, 0xE22A, &config, stat(summary_a), stat(summary_b))
}

fn write_bench_json(
    quality: &[QualityRow],
    churn: &ChurnOutcome,
    eps_hat: f64,
    decayed_tracks: bool,
) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"e22_scenarios\",\n");
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str(&format!(
        "  \"epsilon\": {EPS},\n  \"delta\": {DELTA},\n  \"k\": {K},\n"
    ));
    json.push_str("  \"retrieval\": [\n");
    for (i, row) in quality.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"mechanism\": \"{}\", \"truth_heavies\": {}, \
             \"precision\": {:.4}, \"recall\": {:.4}}}{}\n",
            row.scenario,
            row.mechanism,
            row.truth_heavies,
            row.precision,
            row.recall,
            if i + 1 < quality.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"windowed_churn\": {{\"windowed_reported\": {}, \"windowed_stale\": {}, \
         \"windowed_recall\": {:.4}, \"cumulative_reported\": {}, \"cumulative_stale\": {}, \
         \"handoffs_bit_identical\": {}}},\n",
        churn.windowed_reported,
        churn.windowed_stale,
        churn.windowed_recall,
        churn.cumulative_reported,
        churn.cumulative_stale,
        churn.bit_identical,
    ));
    json.push_str(&format!("  \"window_audit_eps_hat\": {eps_hat:.4},\n"));
    json.push_str(&format!(
        "  \"decayed_sketch_tracks_churn\": {decayed_tracks}\n"
    ));
    json.push_str("}\n");
    let path = dir.join("BENCH_scenarios.json");
    std::fs::write(&path, json).expect("write BENCH_scenarios.json");
    println!("(wrote {})\n", path.display());
}

fn main() {
    banner(
        "E22",
        "scenario suite: mechanisms stay feasible and retrieve heavy hitters under churn/flash/flood; windowed mode tracks churn with bit-identical handoffs and audited per-window privacy; decayed sketches forget",
    );
    let n = quick_mode(20_000usize, 200_000);
    let scens = scenarios(n);

    // Part 1a: noise-error sweep of every (mechanism × scenario) cell.
    let config = SweepConfig::new(vec![params()])
        .with_ks(vec![K])
        .with_trials(quick_mode(10, 50))
        .with_base_seed(0xE22)
        .with_mechanisms(MECHS.to_vec());
    let result = run_sweep(&config, &scens);
    result
        .table(format!(
            "E22a noise error per (mechanism x scenario) (eps={EPS}, delta={DELTA}, k={K})"
        ))
        .emit(&out_dir())
        .unwrap();
    let all_feasible = result.rows.iter().all(|r| r.mean_err.is_some());
    verdict(
        "sweep: every (mechanism, scenario) cell is feasible",
        all_feasible,
    );

    // Part 1b: heavy-hitter retrieval per (mechanism × scenario).
    let quality = quality_rows(&scens);
    let mut t = Table::new(
        "E22b heavy-hitter retrieval above the analytic envelope",
        &[
            "scenario",
            "mechanism",
            "truth heavies",
            "precision",
            "recall",
        ],
    );
    for row in &quality {
        t.row(&[
            row.scenario.clone(),
            row.mechanism.to_string(),
            row.truth_heavies.to_string(),
            f2(row.precision),
            f2(row.recall),
        ]);
    }
    t.emit(&out_dir()).unwrap();
    let full_recall = quality.iter().all(|r| r.recall == 1.0);
    let flood_tested = quality
        .iter()
        .any(|r| r.scenario.starts_with("eviction-flood") && r.truth_heavies > 0);
    verdict(
        "retrieval: recall = 1 above the envelope on every scenario (eviction flood non-vacuous)",
        full_recall && flood_tested,
    );

    // Part 2: windowed serving under key churn.
    let churn = windowed_churn(quick_mode(10_000, 60_000));
    let mut t2 = Table::new(
        "E22c windowed vs cumulative serving after a head rotation",
        &[
            "serving mode",
            "reported keys",
            "stale heads",
            "window recall",
        ],
    );
    t2.row(&[
        "windowed (W=2)".into(),
        churn.windowed_reported.to_string(),
        churn.windowed_stale.to_string(),
        f2(churn.windowed_recall),
    ]);
    t2.row(&[
        "cumulative".into(),
        churn.cumulative_reported.to_string(),
        churn.cumulative_stale.to_string(),
        "-".into(),
    ]);
    t2.emit(&out_dir()).unwrap();
    verdict(
        "windowed releases bit-identical to the sequential reference",
        churn.bit_identical,
    );
    verdict(
        "windowed serving drops the stale heads the cumulative view keeps reporting",
        churn.windowed_recall == 1.0 && churn.windowed_stale == 0 && churn.cumulative_stale > 0,
    );

    // Part 3: per-window (ε, δ) audit.
    let eps_hat = window_audit(quick_mode(150, 400));
    println!(
        "window release audit: eps_hat = {} (claimed eps_w = {EPS})\n",
        f3(eps_hat)
    );
    verdict(
        "audited per-window privacy loss within the advertised eps_w",
        eps_hat <= EPS * 1.75,
    );

    // Part 4: decayed sketch under churn.
    let old_head = 1u64;
    let new_head = 2u64;
    let seg = quick_mode(10_000usize, 100_000);
    let first: Vec<u64> = (0..2 * seg as u64)
        .map(|i| if i % 2 == 0 { old_head } else { 100 + i % 500 })
        .collect();
    let second: Vec<u64> = (0..seg as u64)
        .map(|i| if i % 2 == 0 { new_head } else { 700 + i % 500 })
        .collect();
    let mut plain = MisraGries::new(K).unwrap();
    plain.extend(first.iter().copied());
    plain.extend(second.iter().copied());
    let mut decayed = DecayedMisraGries::new(K, 0.25).unwrap();
    decayed.extend(first.iter().copied());
    decayed.decay();
    decayed.extend(second.iter().copied());
    let mut t4 = Table::new(
        "E22d decayed vs plain sketch after a head switch (gamma=0.25)",
        &["sketch", "est(old head)", "est(new head)"],
    );
    t4.row(&[
        "plain".into(),
        f2(plain.estimate(&old_head)),
        f2(plain.estimate(&new_head)),
    ]);
    t4.row(&[
        "decayed".into(),
        f2(decayed.estimate(&old_head)),
        f2(decayed.estimate(&new_head)),
    ]);
    t4.emit(&out_dir()).unwrap();
    let decayed_tracks = decayed.estimate(&new_head) > decayed.estimate(&old_head)
        && plain.estimate(&old_head) > plain.estimate(&new_head);
    verdict(
        "decayed sketch ranks the new head first; the plain sketch stays stale",
        decayed_tracks,
    );

    write_bench_json(&quality, &churn, eps_hat, decayed_tracks);
}
