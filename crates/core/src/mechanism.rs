//! A uniform, object-safe surface over **every** DP release path in this
//! crate, plus a registry that enumerates them from one config.
//!
//! The paper is fundamentally a *comparison* of heavy-hitter mechanisms —
//! PMG vs. Chan et al. vs. Böhler–Kerschbaum vs. stability histograms vs.
//! the GSHM and oracle routes — yet each lives in its own module with its
//! own `release(...)` signature. This module gives them one polymorphic
//! shape so sweeps, pipelines, and experiment binaries compose with *any*
//! mechanism:
//!
//! * [`ReleaseMechanism`] — the object-safe trait: a mechanism consumes an
//!   extracted [`Summary`] (the common currency of sketching, merging and
//!   the wire format) and produces one [`Release`] under its advertised
//!   [`PrivacyParams`].
//! * [`SensitivityModel`] — *which* neighbour structure the mechanism's
//!   noise is calibrated against; the axis the whole paper turns on.
//! * [`MechanismSpec`] / [`registry`] / [`registry_generic`] — enumerate
//!   every mechanism from one config, in a fixed canonical order.
//! * [`release_metered`] — compose releases against an
//!   [`Accountant`](dpmg_noise::accounting::Accountant) budget.
//!
//! ```
//! use dpmg_core::mechanism::{registry, MechanismSpec};
//! use dpmg_noise::accounting::PrivacyParams;
//! use dpmg_sketch::traits::Summary;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = MechanismSpec::new(PrivacyParams::new(0.9, 1e-8).unwrap());
//! let summary = Summary::from_entries(32, (1..=4u64).map(|x| (x, 50_000)));
//! for mech in registry(&spec).unwrap() {
//!     let mut rng = StdRng::seed_from_u64(7);
//!     let hist = mech.release(&summary, &mut rng).unwrap();
//!     assert!(hist.estimate(&1) > 10_000.0, "{}", mech.name());
//! }
//! ```

use crate::baselines::{
    BkAsPublished, BkCorrected, ChanMechanism, ChanThresholded, StabilityHistogram,
};
use crate::gshm::{GaussianSparseHistogram, GshmParams};
use crate::oracle_hh::PrivateCountMin;
use crate::pmg::{NoiseKind, PrivateHistogram, PrivateMisraGries};
use crate::pure::{PureDpRelease, ReducedThresholdRelease};
use dpmg_noise::accounting::{Accountant, BudgetExceeded, PrivacyParams};
use dpmg_noise::NoiseError;
use dpmg_sketch::count_min::CountMin;
use dpmg_sketch::traits::{Item, Summary};
use rand::RngCore;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What a [`ReleaseMechanism`] produces: a noisy, thresholded histogram.
/// (Alias of [`PrivateHistogram`]; the registry vocabulary calls it a
/// *release* because that is the privacy boundary.)
pub type Release<K> = PrivateHistogram<K>;

/// The confidence level `β` at which [`ReleaseMechanism::error_radius`]
/// quotes its high-probability noise radius.
pub const ERROR_RADIUS_BETA: f64 = 0.05;

/// Errors from constructing or running a release mechanism.
#[derive(Debug)]
pub enum ReleaseError {
    /// The underlying noise/calibration layer rejected its parameters
    /// (e.g. the exact GSHM calibration requires `ε < 1`).
    Noise(NoiseError),
    /// A metered release would overdraw the privacy budget.
    Budget(BudgetExceeded),
    /// The mechanism cannot release this input.
    Unsupported {
        /// Mechanism name.
        mechanism: &'static str,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseError::Noise(e) => write!(f, "noise error: {e}"),
            ReleaseError::Budget(e) => write!(f, "{e}"),
            ReleaseError::Unsupported { mechanism, reason } => {
                write!(
                    f,
                    "mechanism `{mechanism}` cannot release this input: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ReleaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReleaseError::Noise(e) => Some(e),
            ReleaseError::Budget(e) => Some(e),
            ReleaseError::Unsupported { .. } => None,
        }
    }
}

impl From<NoiseError> for ReleaseError {
    fn from(e: NoiseError) -> Self {
        ReleaseError::Noise(e)
    }
}

impl From<BudgetExceeded> for ReleaseError {
    fn from(e: BudgetExceeded) -> Self {
        ReleaseError::Budget(e)
    }
}

/// The neighbour structure a mechanism's noise is calibrated against — the
/// axis on which the paper's comparison turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensitivityModel {
    /// Lemma 8: neighbouring paper-variant Misra-Gries sketches differ by 1
    /// on a single counter *or* by 1 on all counters simultaneously, with
    /// nested key sets — hidden by PMG's shared + per-counter noise.
    MisraGriesLemma8,
    /// Worst-case ℓ1-sensitivity `k` of the sketch counter vector (Chan et
    /// al., corrected Böhler–Kerschbaum): noise must scale with `k`.
    KScaledL1,
    /// Sensitivity 1 of an **exact** histogram under add/remove neighbours
    /// (stability histograms — and what \[7\] as published *wrongly assumed*
    /// for the sketch).
    UnitL1,
    /// ℓ1-sensitivity `< 2` after the Algorithm 3 sensitivity reduction
    /// (Lemma 16), independent of `k`.
    ReducedL1,
    /// Corollary 18: merged sketches differ one-sidedly by at most 1 on at
    /// most `k` counters — ℓ1-sensitivity `k`, ℓ2-sensitivity `√k`, exactly
    /// the Theorem 23 precondition.
    MergedOneSided,
    /// Every stream element touches `depth` cells of a hashed oracle table,
    /// so the table's ℓ1-sensitivity is `depth` (the frequency-oracle route
    /// of Sections 1 & 4).
    OracleCells,
}

impl std::fmt::Display for SensitivityModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            SensitivityModel::MisraGriesLemma8 => "misra-gries (Lemma 8)",
            SensitivityModel::KScaledL1 => "l1 = k",
            SensitivityModel::UnitL1 => "l1 = 1 (exact histogram)",
            SensitivityModel::ReducedL1 => "l1 < 2 (Algorithm 3)",
            SensitivityModel::MergedOneSided => "merged one-sided (Corollary 18)",
            SensitivityModel::OracleCells => "l1 = depth (oracle cells)",
        };
        f.write_str(label)
    }
}

/// An object-safe differentially private release mechanism over summaries.
///
/// Implementations consume the *pre-noise* [`Summary`] extracted from a
/// sketch (or assembled by merging / deserialization) and perform exactly
/// one DP release. The RNG is taken as `&mut dyn RngCore` so registries of
/// `Box<dyn ReleaseMechanism<K>>` stay object-safe; every release is a pure
/// function of `(summary, rng seed)`, which the determinism test-suite
/// pins down per mechanism.
///
/// `Send + Sync` is required so sweep runners can share mechanisms across
/// trial threads; implementations hold only parameters (or interior-mutable
/// caches), never per-release state.
pub trait ReleaseMechanism<K: Item>: Send + Sync {
    /// Stable, unique registry name (e.g. `"pmg"`, `"gshm"`).
    fn name(&self) -> &'static str;

    /// The `(ε, δ)` guarantee this mechanism advertises — what an
    /// [`Accountant`] charges per release.
    fn privacy(&self) -> PrivacyParams;

    /// Which neighbour structure the noise is calibrated against.
    fn sensitivity_model(&self) -> SensitivityModel;

    /// Performs the DP release of a pre-noise summary.
    ///
    /// # Errors
    ///
    /// Mechanism-specific: noise-calibration failures (e.g. GSHM at
    /// `ε ≥ 1`) or unsupported inputs.
    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError>;

    /// The analytic suppression threshold applied to noisy counts of a
    /// size-`k` summary, where the mechanism defines one.
    fn threshold(&self, k: usize) -> Option<f64> {
        let _ = k;
        None
    }

    /// Analytic high-probability noise radius for a size-`k` summary: with
    /// probability `≥ 1 − β` (`β =` [`ERROR_RADIUS_BETA`]; the GSHM quotes
    /// its own `1 − 2δ` radius `τ`) every *released* count is within this
    /// distance of its pre-noise counter. Suppression can additionally
    /// remove counts up to [`Self::threshold`]. `None` where the mechanism
    /// has no closed-form radius.
    fn error_radius(&self, k: usize) -> Option<f64> {
        let _ = k;
        None
    }
}

impl<K: Item, M: ReleaseMechanism<K> + ?Sized> ReleaseMechanism<K> for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn privacy(&self) -> PrivacyParams {
        (**self).privacy()
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        (**self).sensitivity_model()
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        (**self).release(summary, rng)
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        (**self).threshold(k)
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        (**self).error_radius(k)
    }
}

/// Laplace tail: radius containing a `Laplace(scale)` draw w.p. `1 − β`.
fn laplace_radius(scale: f64, beta: f64) -> f64 {
    scale * (1.0 / beta).ln()
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// [`PrivateMisraGries`] (Algorithm 2) as a registry mechanism, releasing
/// summaries with the Section 5.1 classic threshold.
#[derive(Debug, Clone)]
pub struct PmgMechanism {
    inner: PrivateMisraGries,
}

impl PmgMechanism {
    /// Laplace-noise PMG.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters (Algorithm 2 is inherently approximate).
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: PrivateMisraGries::new(params)?,
        })
    }

    /// Section 5.2 geometric-noise PMG.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn geometric(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: PrivateMisraGries::new(params)?.with_geometric_noise(),
        })
    }

    /// The wrapped mechanism.
    pub fn inner(&self) -> &PrivateMisraGries {
        &self.inner
    }
}

impl<K: Item> ReleaseMechanism<K> for PmgMechanism {
    fn name(&self) -> &'static str {
        match self.inner.noise_kind() {
            NoiseKind::Laplace => "pmg",
            NoiseKind::Geometric => "pmg-geometric",
        }
    }

    fn privacy(&self) -> PrivacyParams {
        self.inner.params()
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::MisraGriesLemma8
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        Some(self.inner.threshold_classic(k))
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        Some(self.inner.noise_error_bound(k, ERROR_RADIUS_BETA))
    }
}

/// Chan et al. \[11\] pure-`ε` release (`Laplace(k/ε)` over the whole
/// integer universe) as a registry mechanism. `u64` keys only.
#[derive(Debug, Clone)]
pub struct ChanPureMechanism {
    inner: ChanMechanism,
    epsilon: f64,
    universe_size: u64,
}

impl ChanPureMechanism {
    /// Creates the mechanism over the universe `[1, d]`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `ε` or an empty universe.
    pub fn new(epsilon: f64, universe_size: u64) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: ChanMechanism::new(epsilon, universe_size)?,
            epsilon,
            universe_size,
        })
    }
}

impl ReleaseMechanism<u64> for ChanPureMechanism {
    fn name(&self) -> &'static str {
        "chan"
    }

    fn privacy(&self) -> PrivacyParams {
        PrivacyParams::pure(self.epsilon).expect("validated at construction")
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::KScaledL1
    }

    fn release(
        &self,
        summary: &Summary<u64>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<u64>, ReleaseError> {
        if summary.len() as u64 > self.universe_size {
            return Err(ReleaseError::Unsupported {
                mechanism: "chan",
                reason: "summary stores more keys than the configured universe",
            });
        }
        Ok(self.inner.release_summary(summary, rng))
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        Some(laplace_radius(self.inner.noise_scale(k), ERROR_RADIUS_BETA))
    }
}

/// Chan et al. improved to `(ε, δ)` with thresholding, as a registry
/// mechanism.
#[derive(Debug, Clone)]
pub struct ChanThresholdedMechanism {
    inner: ChanThresholded,
    params: PrivacyParams,
}

impl ChanThresholdedMechanism {
    /// Creates the mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: ChanThresholded::new(params)?,
            params,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for ChanThresholdedMechanism {
    fn name(&self) -> &'static str {
        "chan-thresholded"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::KScaledL1
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        Some(self.inner.threshold(k))
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        Some(laplace_radius(
            k as f64 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// Böhler–Kerschbaum **as published** (broken — noise ignores the sketch's
/// sensitivity `k`) as a registry mechanism, gated behind
/// [`MechanismSpec::with_broken_baselines`] so audits can exhibit the
/// violation. **Do not use for actual privacy.**
#[derive(Debug, Clone)]
pub struct BkPublishedMechanism {
    inner: BkAsPublished,
    params: PrivacyParams,
}

impl BkPublishedMechanism {
    /// Creates the (broken) mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: BkAsPublished::new(params)?,
            params,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for BkPublishedMechanism {
    fn name(&self) -> &'static str {
        "bk-published"
    }

    fn privacy(&self) -> PrivacyParams {
        // The *claimed* guarantee — the whole point is that the claim is
        // false, which the empirical auditor demonstrates.
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::UnitL1
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, _k: usize) -> Option<f64> {
        Some(self.inner.threshold())
    }

    fn error_radius(&self, _k: usize) -> Option<f64> {
        Some(laplace_radius(
            1.0 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// Böhler–Kerschbaum with the sensitivity corrected to `k`, as a registry
/// mechanism.
#[derive(Debug, Clone)]
pub struct BkCorrectedMechanism {
    inner: BkCorrected,
    params: PrivacyParams,
}

impl BkCorrectedMechanism {
    /// Creates the corrected mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: BkCorrected::new(params)?,
            params,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for BkCorrectedMechanism {
    fn name(&self) -> &'static str {
        "bk-corrected"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::KScaledL1
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        Some(self.inner.threshold(k))
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        Some(laplace_radius(
            k as f64 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// Korolova-style stability histogram as a registry mechanism. Its
/// sensitivity-1 guarantee presumes the summary's counters are **exact**
/// (the producing sketch never decremented); it is the non-streaming
/// reference point of the comparison.
#[derive(Debug, Clone)]
pub struct StabilityMechanism {
    inner: StabilityHistogram,
    params: PrivacyParams,
}

impl StabilityMechanism {
    /// Creates the mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: StabilityHistogram::new(params)?,
            params,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for StabilityMechanism {
    fn name(&self) -> &'static str {
        "stability-histogram"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::UnitL1
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, _k: usize) -> Option<f64> {
        Some(self.inner.threshold())
    }

    fn error_radius(&self, _k: usize) -> Option<f64> {
        Some(laplace_radius(
            1.0 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// The Section 6 pure-`ε` release (Algorithm 3 + `Laplace(2/ε)` over the
/// universe) as a registry mechanism. `u64` keys only.
#[derive(Debug, Clone)]
pub struct PureLaplaceMechanism {
    inner: PureDpRelease,
    epsilon: f64,
}

impl PureLaplaceMechanism {
    /// Creates the mechanism over the universe `[1, d]`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `ε` or an empty universe.
    pub fn new(epsilon: f64, universe_size: u64) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: PureDpRelease::new(epsilon, universe_size)?,
            epsilon,
        })
    }
}

impl ReleaseMechanism<u64> for PureLaplaceMechanism {
    fn name(&self) -> &'static str {
        "pure-laplace"
    }

    fn privacy(&self) -> PrivacyParams {
        PrivacyParams::pure(self.epsilon).expect("validated at construction")
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::ReducedL1
    }

    fn release(
        &self,
        summary: &Summary<u64>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<u64>, ReleaseError> {
        if summary.len() as u64 > self.inner.universe_size() {
            return Err(ReleaseError::Unsupported {
                mechanism: "pure-laplace",
                reason: "summary stores more keys than the configured universe",
            });
        }
        Ok(self.inner.release_summary(summary, rng))
    }

    fn error_radius(&self, _k: usize) -> Option<f64> {
        // Noise-only radius; the Algorithm 3 reduction additionally costs up
        // to n/(k+1) *before* noise, which is a sketch (not noise) error.
        Some(self.inner.noise_error_bound(ERROR_RADIUS_BETA))
    }
}

/// The `(ε, δ)` release of the Algorithm 3-reduced summary (end of
/// Section 6) as a registry mechanism.
#[derive(Debug, Clone)]
pub struct ReducedThresholdMechanism {
    inner: ReducedThresholdRelease,
    params: PrivacyParams,
}

impl ReducedThresholdMechanism {
    /// Creates the mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        Ok(Self {
            inner: ReducedThresholdRelease::new(params)?,
            params,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for ReducedThresholdMechanism {
    fn name(&self) -> &'static str {
        "reduced-threshold"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::ReducedL1
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(self.inner.release_summary(summary, rng))
    }

    fn threshold(&self, _k: usize) -> Option<f64> {
        Some(self.inner.threshold())
    }

    fn error_radius(&self, _k: usize) -> Option<f64> {
        Some(laplace_radius(
            2.0 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// The trusted-aggregator Laplace route of Section 7 (`Laplace(k/ε)` on an
/// already-merged summary plus a `δ/k`-budgeted threshold) as a registry
/// mechanism.
#[derive(Debug, Clone)]
pub struct MergedLaplaceMechanism {
    params: PrivacyParams,
}

impl MergedLaplaceMechanism {
    /// Creates the mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters.
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        if params.is_pure() {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "delta",
                value: 0.0,
            });
        }
        Ok(Self { params })
    }
}

impl<K: Item> ReleaseMechanism<K> for MergedLaplaceMechanism {
    fn name(&self) -> &'static str {
        "merged-laplace"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::MergedOneSided
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        Ok(crate::merged::release_merged_laplace(
            summary,
            self.params,
            rng,
        )?)
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        let k = k.max(1) as f64;
        let eps = self.params.epsilon();
        Some(1.0 + (k / eps) * (k / (2.0 * self.params.delta())).ln())
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        Some(laplace_radius(
            k.max(1) as f64 / self.params.epsilon(),
            ERROR_RADIUS_BETA,
        ))
    }
}

/// The Gaussian Sparse Histogram Mechanism as a registry mechanism — the
/// paper's Section 7 recommendation for merged summaries. Calibrates the
/// exact Theorem 23 parameters at `l = k` per summary size (cached), so it
/// is equally the "merged-GSHM" route: the release input *is* the merged
/// summary.
#[derive(Debug)]
pub struct GshmMechanism {
    params: PrivacyParams,
    /// Exact calibration is deterministic but not free; cache it per `l`.
    calibrations: Mutex<BTreeMap<usize, GshmParams>>,
}

impl GshmMechanism {
    /// Creates the mechanism.
    ///
    /// # Errors
    ///
    /// Rejects pure-DP parameters. (The `ε < 1` domain of Theorem 23's
    /// calibration is checked per release, not here, so registries built at
    /// large `ε` still enumerate the mechanism and report the error row.)
    pub fn new(params: PrivacyParams) -> Result<Self, NoiseError> {
        if params.is_pure() {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "delta",
                value: 0.0,
            });
        }
        Ok(Self {
            params,
            calibrations: Mutex::new(BTreeMap::new()),
        })
    }

    fn calibrated(&self, l: usize) -> Result<GshmParams, NoiseError> {
        let l = l.max(1);
        if let Some(p) = self
            .calibrations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&l)
        {
            return Ok(*p);
        }
        let p = GshmParams::calibrate(self.params.epsilon(), self.params.delta(), l)?;
        self.calibrations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(l, p);
        Ok(p)
    }
}

impl<K: Item> ReleaseMechanism<K> for GshmMechanism {
    fn name(&self) -> &'static str {
        "gshm"
    }

    fn privacy(&self) -> PrivacyParams {
        self.params
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::MergedOneSided
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        let gshm = GaussianSparseHistogram::new(self.calibrated(summary.k)?);
        Ok(gshm.release(
            summary.entries.iter().map(|(key, &c)| (key.clone(), c)),
            rng,
        ))
    }

    fn threshold(&self, k: usize) -> Option<f64> {
        self.calibrated(k).ok().map(|p| 1.0 + p.tau)
    }

    fn error_radius(&self, k: usize) -> Option<f64> {
        self.calibrated(k).ok().map(|p| p.error_radius())
    }
}

/// The frequency-oracle route (Sections 1 & 4) as a registry mechanism:
/// load the summary's counters into a Count-Min table, release the table
/// under `ε`-DP with `Laplace(depth/ε)` per cell, and read back the
/// summary's own keys as the candidate set.
///
/// **Audit-only comparator** — gated behind
/// [`MechanismSpec::with_broken_baselines`] like `bk-published`: the noisy
/// *table* is `ε`-DP, but the released key set is read back from the input
/// summary with no noise or threshold, so key membership leaks and the
/// advertised [`ReleaseMechanism::privacy`] does **not** hold for the
/// release as a whole. It exists so E15/E18 can quantify the oracle
/// route's *error* while granting it a Misra-Gries-comparable sketch. In a
/// real oracle deployment the candidate set must be data-independent; use
/// [`PrivateCountMin::top_k_by_universe_scan`] for that flow.
#[derive(Debug, Clone)]
pub struct OracleCountMinMechanism {
    epsilon: f64,
    width: usize,
    depth: usize,
    seed: u64,
}

impl OracleCountMinMechanism {
    /// Creates the mechanism with an explicit table geometry.
    ///
    /// # Errors
    ///
    /// Rejects non-positive `ε` or zero dimensions.
    pub fn new(epsilon: f64, width: usize, depth: usize, seed: u64) -> Result<Self, NoiseError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        if width == 0 || depth == 0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "oracle dimension",
                value: 0.0,
            });
        }
        Ok(Self {
            epsilon,
            width,
            depth,
            seed,
        })
    }
}

impl<K: Item> ReleaseMechanism<K> for OracleCountMinMechanism {
    fn name(&self) -> &'static str {
        "oracle-count-min"
    }

    fn privacy(&self) -> PrivacyParams {
        PrivacyParams::pure(self.epsilon).expect("validated at construction")
    }

    fn sensitivity_model(&self) -> SensitivityModel {
        SensitivityModel::OracleCells
    }

    fn release(
        &self,
        summary: &Summary<K>,
        rng: &mut dyn RngCore,
    ) -> Result<Release<K>, ReleaseError> {
        let mut cm = CountMin::<K>::new(self.width, self.depth, self.seed).map_err(|_| {
            ReleaseError::Unsupported {
                mechanism: "oracle-count-min",
                reason: "invalid table dimensions",
            }
        })?;
        for (key, &count) in &summary.entries {
            cm.update_by(key, count);
        }
        let released = PrivateCountMin::release(&cm, self.epsilon, self.seed, rng)?;
        Ok(released.top_k_from_candidates(summary.entries.keys().cloned(), summary.k))
    }

    fn error_radius(&self, _k: usize) -> Option<f64> {
        Some(laplace_radius(
            self.depth as f64 / self.epsilon,
            ERROR_RADIUS_BETA,
        ))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One config from which [`registry`] enumerates every mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismSpec {
    /// The `(ε, δ)` budget per release. Pure-`ε` mechanisms (Chan, the
    /// Section 6 release, the oracle) use only `ε`.
    pub params: PrivacyParams,
    /// Integer universe size `d` for the universe-sampling mechanisms
    /// (`chan`, `pure-laplace`).
    pub universe_size: u64,
    /// Count-Min width for the oracle route.
    pub oracle_width: usize,
    /// Hash seed for the oracle route (the hashing structure is public).
    pub oracle_seed: u64,
    /// Whether to include the **audit-only comparators** whose advertised
    /// guarantee does not actually hold for the summaries they release:
    /// `bk-published` (noise ignores the sketch's sensitivity `k`; the E5
    /// audit exhibits the violation) and `oracle-count-min` (the released
    /// key set is read back from the input summary with no noise, so key
    /// membership leaks; it exists to quantify the oracle route's *error*,
    /// E15/E18). Excluded by default so the plain registry enumerates only
    /// mechanisms that stand behind their `privacy()`.
    pub include_broken: bool,
}

impl MechanismSpec {
    /// A spec with the given privacy parameters and the defaults:
    /// universe `2^20`, oracle width 4096, broken baselines excluded.
    pub fn new(params: PrivacyParams) -> Self {
        Self {
            params,
            universe_size: 1 << 20,
            oracle_width: 4096,
            oracle_seed: 0xD16E57,
            include_broken: false,
        }
    }

    /// Sets the integer universe size.
    pub fn with_universe_size(mut self, d: u64) -> Self {
        self.universe_size = d;
        self
    }

    /// Sets the oracle table width.
    pub fn with_oracle_width(mut self, width: usize) -> Self {
        self.oracle_width = width;
        self
    }

    /// Sets the oracle hash seed.
    pub fn with_oracle_seed(mut self, seed: u64) -> Self {
        self.oracle_seed = seed;
        self
    }

    /// Includes the audit-only comparators (`bk-published`,
    /// `oracle-count-min`); see [`MechanismSpec::include_broken`].
    pub fn with_broken_baselines(mut self, include: bool) -> Self {
        self.include_broken = include;
        self
    }

    /// The oracle depth `⌈log₂ d⌉` implied by the universe size — the depth
    /// needed to union-bound a universe-scan recovery (E15).
    pub fn oracle_depth(&self) -> usize {
        (64 - (self.universe_size.max(2) - 1).leading_zeros()) as usize
    }
}

/// Enumerates every release mechanism over the integer universe, in a fixed
/// canonical order:
///
/// `pmg`, `pmg-geometric`, `chan`, `chan-thresholded`, \[`bk-published`\],
/// `bk-corrected`, `stability-histogram`, `pure-laplace`,
/// `reduced-threshold`, `merged-laplace`, `gshm`,
/// \[`oracle-count-min`\] — the bracketed audit-only comparators appear
/// only under [`MechanismSpec::with_broken_baselines`].
///
/// # Errors
///
/// Propagates constructor failures (e.g. pure-DP `params`, which the
/// approximate-DP mechanisms reject — give the spec a `δ > 0`).
pub fn registry(spec: &MechanismSpec) -> Result<Vec<Box<dyn ReleaseMechanism<u64>>>, NoiseError> {
    let eps = spec.params.epsilon();
    let mut mechanisms: Vec<Box<dyn ReleaseMechanism<u64>>> = vec![
        Box::new(PmgMechanism::new(spec.params)?),
        Box::new(PmgMechanism::geometric(spec.params)?),
        Box::new(ChanPureMechanism::new(eps, spec.universe_size)?),
        Box::new(ChanThresholdedMechanism::new(spec.params)?),
    ];
    if spec.include_broken {
        mechanisms.push(Box::new(BkPublishedMechanism::new(spec.params)?));
    }
    mechanisms.push(Box::new(BkCorrectedMechanism::new(spec.params)?));
    mechanisms.push(Box::new(StabilityMechanism::new(spec.params)?));
    mechanisms.push(Box::new(PureLaplaceMechanism::new(
        eps,
        spec.universe_size,
    )?));
    mechanisms.push(Box::new(ReducedThresholdMechanism::new(spec.params)?));
    mechanisms.push(Box::new(MergedLaplaceMechanism::new(spec.params)?));
    mechanisms.push(Box::new(GshmMechanism::new(spec.params)?));
    if spec.include_broken {
        mechanisms.push(Box::new(OracleCountMinMechanism::new(
            eps,
            spec.oracle_width,
            spec.oracle_depth(),
            spec.oracle_seed,
        )?));
    }
    Ok(mechanisms)
}

/// The key-generic subset of [`registry`]: every mechanism that works for
/// arbitrary [`Item`] keys (i.e. all but the universe-sampling `chan` and
/// `pure-laplace`), in the same canonical order.
///
/// # Errors
///
/// Propagates constructor failures.
pub fn registry_generic<K: Item + 'static>(
    spec: &MechanismSpec,
) -> Result<Vec<Box<dyn ReleaseMechanism<K>>>, NoiseError> {
    let mut mechanisms: Vec<Box<dyn ReleaseMechanism<K>>> = vec![
        Box::new(PmgMechanism::new(spec.params)?),
        Box::new(PmgMechanism::geometric(spec.params)?),
        Box::new(ChanThresholdedMechanism::new(spec.params)?),
    ];
    if spec.include_broken {
        mechanisms.push(Box::new(BkPublishedMechanism::new(spec.params)?));
    }
    mechanisms.push(Box::new(BkCorrectedMechanism::new(spec.params)?));
    mechanisms.push(Box::new(StabilityMechanism::new(spec.params)?));
    mechanisms.push(Box::new(ReducedThresholdMechanism::new(spec.params)?));
    mechanisms.push(Box::new(MergedLaplaceMechanism::new(spec.params)?));
    mechanisms.push(Box::new(GshmMechanism::new(spec.params)?));
    if spec.include_broken {
        mechanisms.push(Box::new(OracleCountMinMechanism::new(
            spec.params.epsilon(),
            spec.oracle_width,
            spec.oracle_depth(),
            spec.oracle_seed,
        )?));
    }
    Ok(mechanisms)
}

/// Looks a mechanism up by [`ReleaseMechanism::name`] in the full `u64`
/// registry (broken baselines included so audits can fetch them).
///
/// # Errors
///
/// Propagates constructor failures; `Ok(None)` for unknown names.
pub fn by_name(
    spec: &MechanismSpec,
    name: &str,
) -> Result<Option<Box<dyn ReleaseMechanism<u64>>>, NoiseError> {
    let spec = spec.with_broken_baselines(true);
    Ok(registry(&spec)?.into_iter().find(|m| m.name() == name))
}

/// Performs one release metered against an [`Accountant`]: the release runs
/// only if the mechanism's advertised [`ReleaseMechanism::privacy`] still
/// fits the remaining budget, and is charged on success.
///
/// # Errors
///
/// [`ReleaseError::Budget`] when the budget cannot afford the release;
/// otherwise whatever the mechanism's release returns (a failed release is
/// **not** charged).
pub fn release_metered<K: Item>(
    mechanism: &dyn ReleaseMechanism<K>,
    summary: &Summary<K>,
    accountant: &mut Accountant,
    rng: &mut dyn RngCore,
) -> Result<Release<K>, ReleaseError> {
    let price = mechanism.privacy();
    if !accountant.can_afford(price) {
        return Err(ReleaseError::Budget(BudgetExceeded {
            requested: price,
            remaining_epsilon: accountant.remaining_epsilon(),
            remaining_delta: accountant.remaining_delta(),
        }));
    }
    let release = mechanism.release(summary, rng)?;
    accountant
        .charge(price)
        .expect("can_afford checked above; accountant unchanged in between");
    Ok(release)
}

/// The trusted-aggregator release path for **merged** summaries — the one
/// release a sharded pipeline or a multi-process aggregation fleet
/// performs after tree-merging its shard summaries (Lemma 17 / Corollary
/// 18). Merged summaries have the Corollary 18 neighbour structure (differ
/// one-sidedly by ≤ 1 on ≤ `k` arbitrary counters), so a mechanism whose
/// noise is calibrated to any other [`SensitivityModel`] would silently
/// under-noise them; such mechanisms are refused **before** noise is drawn
/// or budget charged. The sound subset of the registry is `gshm` and
/// `merged-laplace`.
///
/// # Errors
///
/// [`ReleaseError::Unsupported`] for a mechanism whose sensitivity model
/// is not [`SensitivityModel::MergedOneSided`]; otherwise as
/// [`release_metered`] (budget refusals and mechanism failures, neither of
/// which charges the accountant).
pub fn release_merged_metered<K: Item>(
    mechanism: &dyn ReleaseMechanism<K>,
    merged: &Summary<K>,
    accountant: &mut Accountant,
    rng: &mut dyn RngCore,
) -> Result<Release<K>, ReleaseError> {
    if mechanism.sensitivity_model() != SensitivityModel::MergedOneSided {
        return Err(ReleaseError::Unsupported {
            mechanism: mechanism.name(),
            reason: "merged summaries (multi-shard or multi-process) have the Corollary 18 \
                     neighbour structure; only mechanisms calibrated for it (sensitivity \
                     model MergedOneSided, e.g. gshm or merged-laplace) may release them",
        });
    }
    release_metered(mechanism, merged, accountant, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> MechanismSpec {
        MechanismSpec::new(PrivacyParams::new(0.9, 1e-8).unwrap())
    }

    fn heavy_summary() -> Summary<u64> {
        Summary::from_entries(32, (1..=4u64).map(|x| (x, 100_000)))
    }

    #[test]
    fn registry_enumerates_all_paths_in_canonical_order() {
        let names: Vec<&str> = registry(&spec().with_broken_baselines(true))
            .unwrap()
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "pmg",
                "pmg-geometric",
                "chan",
                "chan-thresholded",
                "bk-published",
                "bk-corrected",
                "stability-histogram",
                "pure-laplace",
                "reduced-threshold",
                "merged-laplace",
                "gshm",
                "oracle-count-min",
            ]
        );
        // Audit-only comparators excluded by default.
        let default_names: Vec<&str> = registry(&spec())
            .unwrap()
            .iter()
            .map(|m| m.name())
            .collect();
        assert!(!default_names.contains(&"bk-published"));
        assert!(!default_names.contains(&"oracle-count-min"));
        assert_eq!(default_names.len(), 10);
    }

    #[test]
    fn generic_registry_is_the_key_generic_subset() {
        let generic: Vec<&str> = registry_generic::<String>(&spec())
            .unwrap()
            .iter()
            .map(|m| m.name())
            .collect();
        assert!(!generic.contains(&"chan"));
        assert!(!generic.contains(&"pure-laplace"));
        let full: Vec<&str> = registry(&spec())
            .unwrap()
            .iter()
            .map(|m| m.name())
            .collect();
        for name in &generic {
            assert!(full.contains(name), "{name} missing from the full registry");
        }
        assert_eq!(generic.len(), full.len() - 2);
    }

    #[test]
    fn every_mechanism_releases_heavy_keys() {
        let summary = heavy_summary();
        for mech in registry(&spec().with_broken_baselines(true)).unwrap() {
            let mut rng = StdRng::seed_from_u64(11);
            let hist = mech.release(&summary, &mut rng).unwrap();
            for key in 1..=4u64 {
                assert!(
                    hist.estimate(&key) > 50_000.0,
                    "{}: key {key} -> {}",
                    mech.name(),
                    hist.estimate(&key)
                );
            }
        }
    }

    #[test]
    fn every_mechanism_is_deterministic_under_seed() {
        let summary = heavy_summary();
        for mech in registry(&spec().with_broken_baselines(true)).unwrap() {
            let a = mech
                .release(&summary, &mut StdRng::seed_from_u64(3))
                .unwrap();
            let b = mech
                .release(&summary, &mut StdRng::seed_from_u64(3))
                .unwrap();
            assert_eq!(a, b, "{} not deterministic", mech.name());
        }
    }

    #[test]
    fn string_keys_through_the_generic_registry() {
        let summary = Summary::from_entries(
            16,
            [("alpha", 80_000u64), ("beta", 70_000)].map(|(s, c)| (s.to_string(), c)),
        );
        for mech in registry_generic::<String>(&spec()).unwrap() {
            let mut rng = StdRng::seed_from_u64(5);
            let hist = mech.release(&summary, &mut rng).unwrap();
            assert!(
                hist.estimate(&"alpha".to_string()) > 40_000.0,
                "{}",
                mech.name()
            );
        }
    }

    #[test]
    fn thresholds_and_radii_where_defined() {
        let k = 64;
        for mech in registry(&spec().with_broken_baselines(true)).unwrap() {
            if let Some(t) = mech.threshold(k) {
                assert!(t > 0.0, "{}: threshold {t}", mech.name());
            }
            let radius = mech.error_radius(k);
            assert!(radius.is_some(), "{} has no radius", mech.name());
            assert!(radius.unwrap() > 0.0);
        }
        // Thresholding mechanisms: pmg variants, chan-thresholded, bk x2,
        // stability, reduced-threshold, merged-laplace, gshm.
        let with_threshold = registry(&spec().with_broken_baselines(true))
            .unwrap()
            .iter()
            .filter(|m| m.threshold(k).is_some())
            .count();
        assert_eq!(with_threshold, 9);
    }

    #[test]
    fn sensitivity_models_partition_the_registry() {
        use SensitivityModel::*;
        let expect = |name: &str| match name {
            "pmg" | "pmg-geometric" => MisraGriesLemma8,
            "chan" | "chan-thresholded" | "bk-corrected" => KScaledL1,
            "bk-published" | "stability-histogram" => UnitL1,
            "pure-laplace" | "reduced-threshold" => ReducedL1,
            "merged-laplace" | "gshm" => MergedOneSided,
            "oracle-count-min" => OracleCells,
            other => panic!("unknown mechanism {other}"),
        };
        for mech in registry(&spec().with_broken_baselines(true)).unwrap() {
            assert_eq!(
                mech.sensitivity_model(),
                expect(mech.name()),
                "{}",
                mech.name()
            );
            // Display renders something human-readable.
            assert!(!mech.sensitivity_model().to_string().is_empty());
        }
    }

    #[test]
    fn gshm_requires_eps_below_one_at_release_time() {
        let spec = MechanismSpec::new(PrivacyParams::new(2.0, 1e-8).unwrap());
        let gshm = by_name(&spec, "gshm").unwrap().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            gshm.release(&heavy_summary(), &mut rng),
            Err(ReleaseError::Noise(_))
        ));
        assert!(gshm.threshold(16).is_none());
    }

    #[test]
    fn by_name_finds_and_misses() {
        let spec = spec();
        assert!(by_name(&spec, "pmg").unwrap().is_some());
        assert!(by_name(&spec, "bk-published").unwrap().is_some());
        assert!(by_name(&spec, "no-such-mechanism").unwrap().is_none());
    }

    #[test]
    fn pure_mechanisms_advertise_pure_privacy() {
        for mech in registry(&spec().with_broken_baselines(true)).unwrap() {
            let p = mech.privacy();
            match mech.name() {
                "chan" | "pure-laplace" | "oracle-count-min" => {
                    assert!(p.is_pure(), "{}", mech.name());
                }
                _ => assert!(!p.is_pure(), "{}", mech.name()),
            }
            assert!((p.epsilon() - 0.9).abs() < 1e-12, "{}", mech.name());
        }
    }

    #[test]
    fn metered_release_charges_and_refuses() {
        let spec = spec();
        let pmg = by_name(&spec, "pmg").unwrap().unwrap();
        let summary = heavy_summary();
        let mut acct = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
        let mut rng = StdRng::seed_from_u64(9);
        release_metered(pmg.as_ref(), &summary, &mut acct, &mut rng).unwrap();
        assert_eq!(acct.charges(), 1);
        assert!((acct.spent().unwrap().epsilon() - 0.9).abs() < 1e-12);
        // Second release of ε = 0.9 exceeds the ε = 1.0 budget.
        let err = release_metered(pmg.as_ref(), &summary, &mut acct, &mut rng).unwrap_err();
        assert!(matches!(err, ReleaseError::Budget(_)));
        assert_eq!(acct.charges(), 1, "failed release must not be charged");
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn merged_metered_release_guards_the_sensitivity_model() {
        // The merged release path: every registry mechanism NOT calibrated
        // for the Corollary 18 structure is refused before budget is
        // spent; the MergedOneSided pair releases and is charged.
        let spec = spec();
        let summary = heavy_summary();
        for mechanism in registry(&spec).unwrap() {
            let merged_sound = mechanism.sensitivity_model() == SensitivityModel::MergedOneSided;
            let mut acct = Accountant::new(PrivacyParams::new(10.0, 1e-4).unwrap());
            let mut rng = StdRng::seed_from_u64(11);
            match release_merged_metered(mechanism.as_ref(), &summary, &mut acct, &mut rng) {
                Ok(hist) => {
                    assert!(merged_sound, "{} must have been refused", mechanism.name());
                    assert!(hist.estimate(&1) > 50_000.0, "{}", mechanism.name());
                    assert_eq!(acct.charges(), 1, "{}", mechanism.name());
                }
                Err(err) => {
                    assert!(!merged_sound, "{}: {err}", mechanism.name());
                    assert!(matches!(err, ReleaseError::Unsupported { .. }), "{err}");
                    assert_eq!(
                        acct.charges(),
                        0,
                        "{} was charged for a refused release",
                        mechanism.name()
                    );
                }
            }
        }
    }

    #[test]
    fn merged_metered_release_enforces_budget_across_releases() {
        // Repeated releases of one merged summary compose sequentially:
        // a budget worth exactly two releases admits two and refuses the
        // third uncharged.
        let params = PrivacyParams::new(0.5, 1e-8).unwrap();
        let mechanism = MergedLaplaceMechanism::new(params).unwrap();
        let mut acct = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
        let shards = [
            Summary::from_entries(16, (0..3u64).map(|x| (x, 900))),
            Summary::from_entries(16, (0..3u64).map(|x| (x, 800))),
        ];
        let merged = dpmg_sketch::merge::merge_tree(&shards).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        release_merged_metered(&mechanism, &merged, &mut acct, &mut rng).unwrap();
        release_merged_metered(&mechanism, &merged, &mut acct, &mut rng).unwrap();
        let err = release_merged_metered(&mechanism, &merged, &mut acct, &mut rng).unwrap_err();
        assert!(matches!(err, ReleaseError::Budget(_)), "{err}");
        assert_eq!(acct.charges(), 2);
        assert!(acct.remaining_epsilon() < 1e-9);
    }

    #[test]
    fn registry_rejects_pure_spec_params() {
        let spec = MechanismSpec::new(PrivacyParams::pure(1.0).unwrap());
        assert!(registry(&spec).is_err());
    }

    #[test]
    fn error_radius_shrinks_with_epsilon() {
        let delta = 1e-8;
        let lo = registry(&MechanismSpec::new(PrivacyParams::new(0.3, delta).unwrap())).unwrap();
        let hi = registry(&MechanismSpec::new(PrivacyParams::new(0.6, delta).unwrap())).unwrap();
        for (a, b) in lo.iter().zip(hi.iter()) {
            assert_eq!(a.name(), b.name());
            let (ra, rb) = (a.error_radius(64).unwrap(), b.error_radius(64).unwrap());
            assert!(rb <= ra, "{}: radius grew with ε ({ra} -> {rb})", a.name());
        }
    }

    #[test]
    fn oracle_release_reads_back_summary_keys_only() {
        let spec = spec();
        let oracle = by_name(&spec, "oracle-count-min").unwrap().unwrap();
        let summary = heavy_summary();
        let mut rng = StdRng::seed_from_u64(13);
        let hist = oracle.release(&summary, &mut rng).unwrap();
        for (key, _) in hist.iter() {
            assert!(summary.entries.contains_key(key));
        }
        assert!(hist.len() <= summary.k);
    }

    #[test]
    fn mechanism_spec_builders_apply() {
        let spec = spec()
            .with_universe_size(1 << 10)
            .with_oracle_width(128)
            .with_oracle_seed(7)
            .with_broken_baselines(true);
        assert_eq!(spec.universe_size, 1 << 10);
        assert_eq!(spec.oracle_width, 128);
        assert_eq!(spec.oracle_seed, 7);
        assert!(spec.include_broken);
        assert_eq!(spec.oracle_depth(), 10);
    }
}
