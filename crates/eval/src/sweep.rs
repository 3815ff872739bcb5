//! Registry-driven mechanism sweeps: every release path × workload ×
//! `(ε, δ)` grid, with shared metrics, tables and CSV output.
//!
//! Before this runner, every experiment binary hand-rolled the same loop —
//! build a sketch, release it `trials` times per mechanism, aggregate the
//! max noise error — with one copy-pasted block per mechanism. The runner
//! pulls mechanisms from [`dpmg_core::mechanism::registry`] instead, so a
//! sweep over *all* release paths (or any named subset) is one call.
//!
//! Workloads are [`WorkloadSpec`] values: **seedable stream recipes**,
//! generated on demand inside the sweep from a per-workload seed rather
//! than handed over as eager `Vec<u64>`s. That makes the whole
//! non-stationary catalogue ([`dpmg_workload::scenarios::Scenario`])
//! sweepable by name, keeps big streams out of caller memory until they
//! are needed, and — because the trait is generic over the key type — lets
//! `String` word streams ([`dpmg_workload::text::word_stream`]) run
//! through the identical grid:
//!
//! ```
//! use dpmg_eval::sweep::{run_sweep, FixedWorkload, SweepConfig};
//! use dpmg_noise::accounting::PrivacyParams;
//!
//! let config = SweepConfig::new(vec![PrivacyParams::new(0.9, 1e-8).unwrap()])
//!     .with_ks(vec![16])
//!     .with_trials(8)
//!     .with_mechanisms(vec!["pmg", "bk-corrected"]);
//! let workloads = [FixedWorkload::new(
//!     "two-heavy",
//!     (0..20_000u64).map(|i| i % 2).collect(),
//! )];
//! let result = run_sweep(&config, &workloads);
//! assert_eq!(result.rows.len(), 2);
//! assert!(result.find("pmg", "two-heavy", 16, 0).unwrap().mean_err.unwrap() > 0.0);
//! ```

use crate::experiment::{parallel_trials, stats, Table};
use dpmg_core::mechanism::{registry, registry_generic, MechanismSpec, ReleaseMechanism};
use dpmg_noise::accounting::PrivacyParams;
use dpmg_noise::NoiseError;
use dpmg_sketch::misra_gries::MisraGries;
use dpmg_sketch::traits::{Item, Summary};
use dpmg_workload::scenarios::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Max absolute deviation of one release from its **pre-noise** summary,
/// over the summary's stored keys and every released key (spurious keys
/// count against a true value of 0). `None` when the mechanism rejects the
/// parameters (e.g. the exact GSHM calibration at `ε ≥ 1`).
///
/// This is the "noise + threshold + recovery" error of the release step
/// itself — the quantity the paper's Theorem 14 makes `k`-free for PMG and
/// that grows with `k` for the baselines — deliberately excluding the
/// sketch's own `n/(k+1)` estimation error, which is identical for every
/// mechanism releasing the same summary.
pub fn release_noise_error<K: Item>(
    mechanism: &dyn ReleaseMechanism<K>,
    summary: &Summary<K>,
    seed: u64,
) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hist = mechanism.release(summary, &mut rng).ok()?;
    let mut worst = 0.0_f64;
    for (key, &count) in &summary.entries {
        worst = worst.max((hist.estimate(key) - count as f64).abs());
    }
    for (key, est) in hist.iter() {
        worst = worst.max((est - summary.count(key) as f64).abs());
    }
    Some(worst)
}

/// Mean and p95 of [`release_noise_error`] over `trials` seeded releases,
/// computed on all CPU cores. `None` when the mechanism rejects the
/// parameters (checked once — rejection is parameter-, not RNG-dependent).
pub fn noise_error_stats<K: Item + Send + Sync>(
    mechanism: &dyn ReleaseMechanism<K>,
    summary: &Summary<K>,
    trials: usize,
    base_seed: u64,
) -> Option<(f64, f64)> {
    release_noise_error(mechanism, summary, base_seed)?;
    let mut errs = parallel_trials(trials, base_seed, |seed| {
        release_noise_error(mechanism, summary, seed).expect("feasibility checked above")
    });
    let mean = stats(&errs).mean;
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p95 = errs[((errs.len() - 1) as f64 * 0.95).round() as usize];
    Some((mean, p95))
}

/// A seedable stream recipe the sweep can realise on demand.
///
/// `generate` must be deterministic in `(self, seed)` — the sweep derives
/// the seed from [`SweepConfig::base_seed`] and the workload's position, so
/// two identical sweeps see identical streams. Implementations that wrap a
/// pre-built stream (e.g. [`FixedWorkload`]) simply ignore the seed.
pub trait WorkloadSpec<K: Item> {
    /// Label for result tables and verdicts.
    fn name(&self) -> String;
    /// Realises the stream for `seed`.
    fn generate(&self, seed: u64) -> Vec<K>;
}

/// A pre-built stream under a label — the eager corner of the
/// [`WorkloadSpec`] API, for hand-crafted adversarial streams and callers
/// that already hold the data. Generic over the key type.
#[derive(Debug, Clone)]
pub struct FixedWorkload<K> {
    /// Label for result tables.
    pub name: String,
    /// The stream itself.
    pub stream: Vec<K>,
}

impl<K> FixedWorkload<K> {
    /// Creates a named fixed workload.
    pub fn new(name: impl Into<String>, stream: Vec<K>) -> Self {
        Self {
            name: name.into(),
            stream,
        }
    }
}

impl<K: Item> WorkloadSpec<K> for FixedWorkload<K> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn generate(&self, _seed: u64) -> Vec<K> {
        self.stream.clone()
    }
}

/// Every [`Scenario`] is sweepable directly: the scenario's own seeded
/// generator realises the stream.
impl WorkloadSpec<u64> for Scenario {
    fn name(&self) -> String {
        Scenario::name(self)
    }

    fn generate(&self, seed: u64) -> Vec<u64> {
        Scenario::generate(self, seed)
    }
}

/// Key types the sweep can run over: each provides its registry slice.
///
/// `u64` uses the full [`registry`] (including the universe-sampling
/// mechanisms, which need an integer universe); other key types get the
/// key-generic subset via [`registry_generic`].
pub trait SweepKey: Item + Send + Sync + 'static {
    /// The registry the sweep iterates for this key type.
    ///
    /// # Errors
    ///
    /// As [`registry`] — rejected `(ε, δ)` parameters.
    fn sweep_registry(
        spec: &MechanismSpec,
    ) -> Result<Vec<Box<dyn ReleaseMechanism<Self>>>, NoiseError>;
}

impl SweepKey for u64 {
    fn sweep_registry(
        spec: &MechanismSpec,
    ) -> Result<Vec<Box<dyn ReleaseMechanism<u64>>>, NoiseError> {
        registry(spec)
    }
}

impl SweepKey for String {
    fn sweep_registry(
        spec: &MechanismSpec,
    ) -> Result<Vec<Box<dyn ReleaseMechanism<String>>>, NoiseError> {
        registry_generic::<String>(spec)
    }
}

/// Configuration of a registry sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The `(ε, δ)` grid (one registry per point).
    pub grid: Vec<PrivacyParams>,
    /// Sketch sizes to sweep.
    pub ks: Vec<usize>,
    /// Trials per (mechanism, workload, k, grid point).
    pub trials: usize,
    /// Base seed; every cell derives its own deterministic seed.
    pub base_seed: u64,
    /// Universe size for the universe-sampling mechanisms.
    pub universe_size: u64,
    /// Count-Min width for the oracle route.
    pub oracle_width: usize,
    /// Include the audit-only comparators (`bk-published`,
    /// `oracle-count-min`) the registry gates by default.
    pub include_broken: bool,
    /// Restrict to these mechanism names (`None` = the whole registry).
    pub mechanisms: Option<Vec<&'static str>>,
}

impl SweepConfig {
    /// A config over the given grid with defaults: `k ∈ {32}`, 100 trials,
    /// universe `2^20`, full registry.
    pub fn new(grid: Vec<PrivacyParams>) -> Self {
        Self {
            grid,
            ks: vec![32],
            trials: 100,
            base_seed: 0x5EED,
            universe_size: 1 << 20,
            oracle_width: 4096,
            include_broken: false,
            mechanisms: None,
        }
    }

    /// Sets the sketch sizes.
    pub fn with_ks(mut self, ks: Vec<usize>) -> Self {
        self.ks = ks;
        self
    }

    /// Sets the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the universe size.
    pub fn with_universe_size(mut self, d: u64) -> Self {
        self.universe_size = d;
        self
    }

    /// Includes the gated audit-only comparators (`bk-published`,
    /// `oracle-count-min`).
    pub fn with_broken(mut self, include: bool) -> Self {
        self.include_broken = include;
        self
    }

    /// Restricts the sweep to the named mechanisms (registry order is
    /// preserved; unknown names are simply absent from the result).
    pub fn with_mechanisms(mut self, names: Vec<&'static str>) -> Self {
        self.mechanisms = Some(names);
        self
    }

    fn spec(&self, params: PrivacyParams) -> MechanismSpec {
        MechanismSpec::new(params)
            .with_universe_size(self.universe_size)
            .with_oracle_width(self.oracle_width)
            .with_broken_baselines(self.include_broken)
    }
}

/// One sweep cell: a mechanism's release-error statistics at one
/// (workload, k, grid point).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload label.
    pub workload: String,
    /// Sketch size.
    pub k: usize,
    /// Index into [`SweepConfig::grid`].
    pub grid_index: usize,
    /// The grid point.
    pub params: PrivacyParams,
    /// Mechanism registry name.
    pub mechanism: &'static str,
    /// The mechanism's sensitivity model (rendered).
    pub model: String,
    /// Analytic threshold at this `k`, where defined.
    pub threshold: Option<f64>,
    /// Mean max noise error; `None` when the parameters are infeasible for
    /// this mechanism (e.g. GSHM at `ε ≥ 1`).
    pub mean_err: Option<f64>,
    /// 95th-percentile max noise error.
    pub p95_err: Option<f64>,
}

/// All rows of a sweep, in deterministic (workload, k, grid, registry)
/// order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The cells.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Looks up one cell.
    pub fn find(
        &self,
        mechanism: &str,
        workload: &str,
        k: usize,
        grid_index: usize,
    ) -> Option<&SweepRow> {
        self.rows.iter().find(|r| {
            r.mechanism == mechanism
                && r.workload == workload
                && r.k == k
                && r.grid_index == grid_index
        })
    }

    /// The mean errors of one mechanism in row order — positionally aligned
    /// with the sweep's (workload, k, grid) axes, which is what verdict
    /// code indexes by.
    ///
    /// # Panics
    ///
    /// Panics on an infeasible cell (`mean_err = None`): silently skipping
    /// it would shift every later entry and make positional comparisons lie.
    /// Callers expecting infeasible cells should read [`SweepResult::rows`]
    /// or [`SweepResult::find`] directly.
    pub fn mechanism_means(&self, mechanism: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| r.mechanism == mechanism)
            .map(|r| {
                r.mean_err.unwrap_or_else(|| {
                    panic!(
                        "mechanism_means({mechanism}): infeasible cell at workload {}, \
                         k = {}, grid index {} — use .rows / .find for sweeps with \
                         infeasible parameters",
                        r.workload, r.k, r.grid_index
                    )
                })
            })
            .collect()
    }

    /// Renders the sweep as a result [`Table`] (CSV-exportable via
    /// [`Table::emit`]); infeasible cells show `n/a`.
    pub fn table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(
            title,
            &[
                "workload",
                "k",
                "eps",
                "delta",
                "mechanism",
                "mean err",
                "p95 err",
                "threshold",
            ],
        );
        let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |x| format!("{x:.2}"));
        for row in &self.rows {
            table.row(&[
                row.workload.clone(),
                row.k.to_string(),
                row.params.epsilon().to_string(),
                if row.params.is_pure() {
                    "0".to_string()
                } else {
                    format!("{:e}", row.params.delta())
                },
                row.mechanism.to_string(),
                fmt(row.mean_err),
                fmt(row.p95_err),
                fmt(row.threshold),
            ]);
        }
        table
    }
}

/// Derives a deterministic per-cell seed, independent of sweep shape.
fn cell_seed(base: u64, w: usize, k: usize, g: usize, m: usize) -> u64 {
    let mut s = base;
    for part in [w as u64, k as u64, g as u64, m as u64] {
        s = (s ^ part).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        s ^= s >> 29;
    }
    s
}

/// The seed a workload's stream is generated from: decorrelated from the
/// per-cell release seeds by a distinct domain constant.
fn workload_seed(base: u64, w: usize) -> u64 {
    cell_seed(base ^ 0x0057_AEA1_1ED0_57EA, w, 0, 0, 0)
}

/// Runs the sweep: for every workload and `k`, realise the stream from the
/// workload's derived seed and sketch it once with Misra-Gries, then
/// release its summary `trials` times under every registry mechanism at
/// every grid point.
///
/// Generic over the key type through [`SweepKey`] — `u64` sweeps iterate
/// the full registry, `String` (and other) sweeps the key-generic subset.
///
/// # Panics
///
/// Panics when a grid point is rejected by the registry itself (pure-DP
/// grid parameters) or `k = 0` — configuration errors, not data errors.
pub fn run_sweep<K: SweepKey, W: WorkloadSpec<K>>(
    config: &SweepConfig,
    workloads: &[W],
) -> SweepResult {
    let mut rows = Vec::new();
    for (w_idx, workload) in workloads.iter().enumerate() {
        let stream = workload.generate(workload_seed(config.base_seed, w_idx));
        for (k_idx, &k) in config.ks.iter().enumerate() {
            let mut sketch = MisraGries::new(k).expect("sweep k must be ≥ 1");
            sketch.extend(stream.iter().cloned());
            let summary = sketch.summary();
            for (g_idx, &params) in config.grid.iter().enumerate() {
                let mechanisms = K::sweep_registry(&config.spec(params))
                    .expect("sweep grid must be approximate-DP");
                for (m_idx, mechanism) in mechanisms.iter().enumerate() {
                    if let Some(names) = &config.mechanisms {
                        if !names.contains(&mechanism.name()) {
                            continue;
                        }
                    }
                    let seed = cell_seed(config.base_seed, w_idx, k_idx, g_idx, m_idx);
                    let outcome =
                        noise_error_stats(mechanism.as_ref(), &summary, config.trials, seed);
                    rows.push(SweepRow {
                        workload: workload.name(),
                        k,
                        grid_index: g_idx,
                        params,
                        mechanism: mechanism.name(),
                        model: mechanism.sensitivity_model().to_string(),
                        threshold: mechanism.threshold(k),
                        mean_err: outcome.map(|(mean, _)| mean),
                        p95_err: outcome.map(|(_, p95)| p95),
                    });
                }
            }
        }
    }
    SweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpmg_core::mechanism::by_name;
    use dpmg_workload::text::word_stream;

    fn heavy_stream() -> Vec<u64> {
        (0..50_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    1 + (i / 2) % 4
                } else {
                    10 + i % 100
                }
            })
            .collect()
    }

    fn params() -> PrivacyParams {
        PrivacyParams::new(0.9, 1e-8).unwrap()
    }

    #[test]
    fn noise_error_is_positive_and_deterministic() {
        let mech = by_name(&MechanismSpec::new(params()), "pmg")
            .unwrap()
            .unwrap();
        let mut sketch = MisraGries::new(16).unwrap();
        sketch.extend(heavy_stream());
        let summary = sketch.summary();
        let a = release_noise_error(mech.as_ref(), &summary, 7).unwrap();
        let b = release_noise_error(mech.as_ref(), &summary, 7).unwrap();
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn infeasible_parameters_yield_none_not_panic() {
        // GSHM requires ε < 1 at release time.
        let mech = by_name(
            &MechanismSpec::new(PrivacyParams::new(2.0, 1e-8).unwrap()),
            "gshm",
        )
        .unwrap()
        .unwrap();
        let mut sketch = MisraGries::new(8).unwrap();
        sketch.extend(heavy_stream());
        assert!(release_noise_error(mech.as_ref(), &sketch.summary(), 1).is_none());
        assert!(noise_error_stats(mech.as_ref(), &sketch.summary(), 4, 1).is_none());
    }

    #[test]
    fn sweep_covers_the_grid_and_is_deterministic() {
        let config = SweepConfig::new(vec![params(), PrivacyParams::new(0.5, 1e-6).unwrap()])
            .with_ks(vec![8, 32])
            .with_trials(8)
            .with_mechanisms(vec!["pmg", "bk-corrected", "gshm"]);
        let workloads = [FixedWorkload::new("heavy", heavy_stream())];
        let a = run_sweep(&config, &workloads);
        let b = run_sweep(&config, &workloads);
        // 1 workload × 2 ks × 2 grid points × 3 mechanisms.
        assert_eq!(a.rows.len(), 12);
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.mechanism, rb.mechanism);
            assert_eq!(ra.mean_err, rb.mean_err);
        }
        // Every selected cell is feasible at these parameters.
        assert!(a.rows.iter().all(|r| r.mean_err.is_some()));
    }

    #[test]
    fn sweep_reproduces_the_papers_k_scaling_story() {
        // PMG's noise is flat in k; BK-corrected's grows ~linearly. The
        // registry sweep must reproduce E3's headline with 20 lines.
        let config = SweepConfig::new(vec![params()])
            .with_ks(vec![8, 128])
            .with_trials(30)
            .with_mechanisms(vec!["pmg", "bk-corrected"]);
        let workloads = [FixedWorkload::new("heavy", heavy_stream())];
        let result = run_sweep(&config, &workloads);
        let pmg = result.mechanism_means("pmg");
        let bk = result.mechanism_means("bk-corrected");
        assert!(pmg[1] < pmg[0] * 4.0, "PMG error must stay ~flat in k");
        assert!(bk[1] > bk[0] * 4.0, "BK error must grow with k");
        assert!(pmg[1] < bk[1], "PMG must beat BK at k = 128");
    }

    #[test]
    fn sweep_table_renders_all_rows_and_na() {
        // ε = 2 makes gshm infeasible → its cells render n/a.
        let config = SweepConfig::new(vec![PrivacyParams::new(2.0, 1e-8).unwrap()])
            .with_ks(vec![8])
            .with_trials(4)
            .with_mechanisms(vec!["pmg", "gshm"]);
        let workloads = [FixedWorkload::new("w", heavy_stream())];
        let result = run_sweep(&config, &workloads);
        let table = result.table("sweep");
        let text = table.render();
        assert!(text.contains("n/a"));
        assert!(text.contains("pmg"));
        assert_eq!(table.len(), 2);
        assert!(result.find("gshm", "w", 8, 0).unwrap().mean_err.is_none());
        assert!(result.find("pmg", "w", 8, 0).unwrap().mean_err.is_some());
        assert!(result.find("pmg", "w", 9, 0).is_none());
    }

    #[test]
    fn scenarios_sweep_lazily_and_deterministically() {
        // Scenario workloads carry no stream — the sweep realises them from
        // the derived seed, identically across runs.
        let config = SweepConfig::new(vec![params()])
            .with_ks(vec![16])
            .with_trials(4)
            .with_mechanisms(vec!["pmg", "merged-laplace"]);
        let workloads = [
            Scenario::KeyChurn {
                n: 20_000,
                d: 10_000,
                s: 1.2,
                period: 5_000,
                head: 10,
            },
            Scenario::EvictionFlood {
                heavy: 8,
                heavy_count: 500,
                flood: 5_000,
            },
        ];
        let a = run_sweep(&config, &workloads);
        let b = run_sweep(&config, &workloads);
        assert_eq!(a.rows.len(), 4);
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.mean_err, rb.mean_err);
        }
        assert!(a.find("pmg", "key-churn-p5000", 16, 0).is_some());
        assert!(a.find("pmg", "eviction-flood-5000", 16, 0).is_some());
    }

    #[test]
    fn string_workloads_sweep_through_the_generic_registry() {
        // The whole grid runs over String keys: word streams sweep exactly
        // like u64 streams, through the key-generic registry subset.
        struct Words {
            n: usize,
            vocabulary: u64,
            s: f64,
        }
        impl WorkloadSpec<String> for Words {
            fn name(&self) -> String {
                format!("words-{}", self.vocabulary)
            }
            fn generate(&self, seed: u64) -> Vec<String> {
                word_stream(
                    self.n,
                    self.vocabulary,
                    self.s,
                    &mut StdRng::seed_from_u64(seed),
                )
            }
        }
        let config = SweepConfig::new(vec![params()])
            .with_ks(vec![16])
            .with_trials(4)
            .with_mechanisms(vec!["pmg", "merged-laplace", "gshm"]);
        let result = run_sweep(
            &config,
            &[Words {
                n: 20_000,
                vocabulary: 5_000,
                s: 1.3,
            }],
        );
        assert_eq!(result.rows.len(), 3);
        assert!(result.rows.iter().all(|r| r.mean_err.is_some()));
        let row = result.find("pmg", "words-5000", 16, 0).unwrap();
        assert!(row.mean_err.unwrap() > 0.0);
    }
}
