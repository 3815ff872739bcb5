//! Privacy parameter handling and accounting.
//!
//! Implements the `(ε, δ)` bookkeeping the paper relies on:
//!
//! * [`PrivacyParams`] — validated `(ε, δ)` pairs (Definition 4).
//! * [`PrivacyParams::group_privacy`] — Lemma 19: an `(ε, δ)`-DP mechanism
//!   for streams differing in one element satisfies `(mε, m·e^{mε}·δ)`-DP
//!   for streams differing in up to `m` elements.
//! * [`PrivacyParams::for_group_target`] — the inverse direction used by
//!   Lemma 20: to obtain `(ε', δ')` user-level privacy for users holding up
//!   to `m` elements, run the element-level mechanism with `ε = ε'/m` and
//!   `δ = δ'/(m·e^{ε'})`.
//! * [`compose`] — basic sequential composition (`ε`s and `δ`s add), needed
//!   when releasing several sketches of the same stream.

use crate::NoiseError;

/// A validated `(ε, δ)` differential-privacy parameter pair.
///
/// `ε` must be finite and strictly positive. `δ` must lie in `[0, 1)`;
/// `δ = 0` denotes pure DP (Section 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    epsilon: f64,
    delta: f64,
}

impl PrivacyParams {
    /// Creates an approximate-DP parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::InvalidPrivacyParameter`] if `ε ≤ 0`, `ε` is not
    /// finite, or `δ ∉ [0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, NoiseError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        if !delta.is_finite() || !(0.0..1.0).contains(&delta) {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "delta",
                value: delta,
            });
        }
        Ok(Self { epsilon, delta })
    }

    /// Creates a pure-DP (`δ = 0`) parameter.
    ///
    /// # Errors
    ///
    /// Returns an error if `ε` is not finite and positive.
    pub fn pure(epsilon: f64) -> Result<Self, NoiseError> {
        Self::new(epsilon, 0.0)
    }

    /// The privacy-loss bound `ε`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The failure probability `δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Whether this is a pure-DP guarantee (`δ = 0`).
    #[inline]
    pub fn is_pure(&self) -> bool {
        self.delta == 0.0
    }

    /// Group privacy (Lemma 19): the guarantee this mechanism provides for
    /// neighbouring inputs that differ in up to `m` elements.
    ///
    /// Maps `(ε, δ)` to `(mε, m·e^{mε}·δ)`.
    ///
    /// # Panics
    ///
    /// Panics if `m = 0` (no neighbouring relation differs in zero elements).
    pub fn group_privacy(&self, m: u32) -> Self {
        assert!(m >= 1, "group size must be at least 1");
        let m_f = f64::from(m);
        let epsilon = m_f * self.epsilon;
        // Pure DP stays pure under grouping: m·e^{mε}·0 = 0 exactly. The
        // short-circuit matters because once mε overflows `exp()` to ∞,
        // ∞ · 0 is NaN, and `NaN.min(x)` returns `x` — silently degrading a
        // pure guarantee to a vacuous δ ≈ 1.
        let delta = if self.delta == 0.0 {
            0.0
        } else {
            let scaled = m_f * epsilon.exp() * self.delta;
            // Degenerate but well-defined: δ saturates at values ≥ 1, at
            // which point the guarantee is vacuous. We clamp below 1 so the
            // struct invariant holds; callers should check `is_vacuous`.
            scaled.min(1.0 - f64::EPSILON)
        };
        Self { epsilon, delta }
    }

    /// Lemma 20 (inverse of group privacy): the element-level parameters to
    /// run a mechanism with so that the *user-level* guarantee (users hold up
    /// to `m` elements) is `(self.epsilon, self.delta)`.
    ///
    /// Returns `ε = ε'/m` and `δ = δ'/(m·e^{ε'})`. Requires `δ' > 0`.
    ///
    /// # Errors
    ///
    /// Returns an error when `δ' = 0` (pure DP does not benefit from this
    /// route; use noise scaled by `m` directly, Lemma 22).
    ///
    /// # Panics
    ///
    /// Panics if `m = 0`.
    pub fn for_group_target(&self, m: u32) -> Result<Self, NoiseError> {
        assert!(m >= 1, "group size must be at least 1");
        if self.delta == 0.0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "delta",
                value: 0.0,
            });
        }
        let m_f = f64::from(m);
        Self::new(self.epsilon / m_f, self.delta / (m_f * self.epsilon.exp()))
    }

    /// Whether the guarantee conveys no information bound in practice
    /// (δ within one ulp of 1).
    pub fn is_vacuous(&self) -> bool {
        self.delta >= 1.0 - 2.0 * f64::EPSILON
    }
}

impl std::fmt::Display for PrivacyParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_pure() {
            write!(f, "{}-DP", self.epsilon)
        } else {
            write!(f, "({}, {:e})-DP", self.epsilon, self.delta)
        }
    }
}

/// Basic sequential composition: running mechanisms with parameters `parts`
/// on the same input satisfies the summed guarantee.
pub fn compose(parts: &[PrivacyParams]) -> Option<PrivacyParams> {
    if parts.is_empty() {
        return None;
    }
    let epsilon = parts.iter().map(|p| p.epsilon).sum();
    let delta: f64 = parts.iter().map(|p| p.delta).sum();
    PrivacyParams::new(epsilon, delta.min(1.0 - f64::EPSILON)).ok()
}

/// A requested release would overspend the privacy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetExceeded {
    /// The parameters the rejected release asked for.
    pub requested: PrivacyParams,
    /// Budget still available before the rejected request.
    pub remaining_epsilon: f64,
    /// δ budget still available before the rejected request.
    pub remaining_delta: f64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "privacy budget exceeded: requested {}, but only (ε = {}, δ = {:e}) remains",
            self.requested, self.remaining_epsilon, self.remaining_delta
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A sequential-composition privacy budget meter.
///
/// Releasing several statistics of the same stream composes: the `ε`s and
/// `δ`s add (basic composition, as in [`compose`]). The accountant holds a
/// total `(ε, δ)` budget and *charges* each release against it, refusing any
/// release that would overdraw — the bookkeeping every multi-release
/// consumer (sweep runners, the privatized pipeline) needs but the bare
/// mechanisms do not do for themselves.
///
/// ```
/// use dpmg_noise::accounting::{Accountant, PrivacyParams};
///
/// let mut acct = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
/// let per_release = PrivacyParams::new(0.4, 1e-7).unwrap();
/// assert!(acct.charge(per_release).is_ok());
/// assert!(acct.charge(per_release).is_ok());
/// assert!(acct.charge(per_release).is_err()); // 1.2 > 1.0
/// assert_eq!(acct.charges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Accountant {
    budget: PrivacyParams,
    spent_epsilon: f64,
    spent_delta: f64,
    charges: usize,
}

impl Accountant {
    /// Creates an accountant with a total `(ε, δ)` budget.
    pub fn new(budget: PrivacyParams) -> Self {
        Self {
            budget,
            spent_epsilon: 0.0,
            spent_delta: 0.0,
            charges: 0,
        }
    }

    /// Reconstructs an accountant from persisted state — the crash/restart
    /// path of `dpmg-service`: a restored service must resume with exactly
    /// the budget its predecessor had left, or the composition argument
    /// breaks across the restart boundary.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative spends, a spend exceeding the budget
    /// (beyond the same one-ulp slack [`Accountant::can_afford`] allows), or
    /// `charges = 0` with a non-zero spend.
    pub fn restore(
        budget: PrivacyParams,
        spent_epsilon: f64,
        spent_delta: f64,
        charges: usize,
    ) -> Result<Self, NoiseError> {
        if !spent_epsilon.is_finite()
            || spent_epsilon < 0.0
            || spent_epsilon > budget.epsilon * (1.0 + 4.0 * f64::EPSILON)
        {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "spent_epsilon",
                value: spent_epsilon,
            });
        }
        if !spent_delta.is_finite()
            || spent_delta < 0.0
            || spent_delta > budget.delta * (1.0 + 4.0 * f64::EPSILON)
        {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "spent_delta",
                value: spent_delta,
            });
        }
        if charges == 0 && (spent_epsilon > 0.0 || spent_delta > 0.0) {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "charges",
                value: 0.0,
            });
        }
        Ok(Self {
            budget,
            spent_epsilon,
            spent_delta,
            charges,
        })
    }

    /// The total budget.
    pub fn budget(&self) -> PrivacyParams {
        self.budget
    }

    /// Composed parameters spent so far (`None` before the first charge —
    /// composing zero mechanisms guarantees nothing to account for).
    pub fn spent(&self) -> Option<PrivacyParams> {
        (self.charges > 0)
            .then(|| PrivacyParams::new(self.spent_epsilon, self.spent_delta.min(1.0)).ok())
            .flatten()
    }

    /// Number of successful charges.
    pub fn charges(&self) -> usize {
        self.charges
    }

    /// Raw `ε` spent so far (0 before the first charge) — the quantity
    /// [`Accountant::restore`] rebuilds from.
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_epsilon
    }

    /// Raw `δ` spent so far (0 before the first charge).
    pub fn spent_delta(&self) -> f64 {
        self.spent_delta
    }

    /// `ε` budget still available.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.budget.epsilon - self.spent_epsilon).max(0.0)
    }

    /// `δ` budget still available.
    pub fn remaining_delta(&self) -> f64 {
        (self.budget.delta - self.spent_delta).max(0.0)
    }

    /// Whether a release with parameters `params` would still fit.
    ///
    /// Comparisons allow one ulp of slack so that `n` charges of
    /// `budget / n` always fit.
    pub fn can_afford(&self, params: PrivacyParams) -> bool {
        let eps_ok =
            self.spent_epsilon + params.epsilon <= self.budget.epsilon * (1.0 + 4.0 * f64::EPSILON);
        let delta_ok =
            self.spent_delta + params.delta <= self.budget.delta * (1.0 + 4.0 * f64::EPSILON);
        eps_ok && delta_ok
    }

    /// Charges one release against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] (and leaves the accountant unchanged) when
    /// the composed spend would exceed the budget in `ε` or `δ`.
    pub fn charge(&mut self, params: PrivacyParams) -> Result<(), BudgetExceeded> {
        if !self.can_afford(params) {
            return Err(BudgetExceeded {
                requested: params,
                remaining_epsilon: self.remaining_epsilon(),
                remaining_delta: self.remaining_delta(),
            });
        }
        self.spent_epsilon += params.epsilon;
        self.spent_delta += params.delta;
        self.charges += 1;
        Ok(())
    }

    /// Splits the *remaining* budget evenly over `n` future releases.
    ///
    /// # Errors
    ///
    /// Returns an error when `n = 0` or nothing usable remains.
    pub fn split_remaining(&self, n: u32) -> Result<PrivacyParams, NoiseError> {
        if n == 0 {
            return Err(NoiseError::InvalidPrivacyParameter {
                name: "n",
                value: 0.0,
            });
        }
        PrivacyParams::new(
            self.remaining_epsilon() / f64::from(n),
            self.remaining_delta() / f64::from(n),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_ranges() {
        assert!(PrivacyParams::new(1.0, 1e-6).is_ok());
        assert!(PrivacyParams::new(0.0, 1e-6).is_err());
        assert!(PrivacyParams::new(-1.0, 1e-6).is_err());
        assert!(PrivacyParams::new(1.0, -1e-6).is_err());
        assert!(PrivacyParams::new(1.0, 1.0).is_err());
        assert!(PrivacyParams::new(f64::INFINITY, 0.1).is_err());
        assert!(PrivacyParams::pure(0.5).unwrap().is_pure());
    }

    #[test]
    fn group_privacy_matches_lemma_19() {
        let p = PrivacyParams::new(0.1, 1e-9).unwrap();
        let g = p.group_privacy(5);
        assert!((g.epsilon() - 0.5).abs() < 1e-12);
        let want_delta = 5.0 * (0.5f64).exp() * 1e-9;
        assert!((g.delta() - want_delta).abs() < 1e-18);
    }

    #[test]
    fn group_privacy_identity_for_m_1() {
        let p = PrivacyParams::new(0.7, 1e-8).unwrap();
        let g = p.group_privacy(1);
        assert!((g.epsilon() - 0.7).abs() < 1e-12);
        // δ picks up the e^ε factor even at m = 1, exactly as Lemma 19 says.
        assert!((g.delta() - (0.7f64).exp() * 1e-8).abs() < 1e-18);
    }

    #[test]
    fn for_group_target_round_trips_through_lemma_19() {
        // Lemma 20's parameters: ε = ε'/m, δ = δ'/(m e^{ε'}). Applying group
        // privacy with m must give back exactly (ε', δ').
        let target = PrivacyParams::new(1.0, 1e-6).unwrap();
        let m = 8;
        let element = target.for_group_target(m).unwrap();
        let back = element.group_privacy(m);
        assert!((back.epsilon() - target.epsilon()).abs() < 1e-12);
        assert!((back.delta() - target.delta()).abs() / target.delta() < 1e-9);
    }

    #[test]
    fn for_group_target_rejects_pure_dp() {
        let p = PrivacyParams::pure(1.0).unwrap();
        assert!(p.for_group_target(4).is_err());
    }

    #[test]
    fn group_privacy_pure_dp_stays_pure_under_exp_overflow() {
        // mε = 1000 overflows exp() to ∞; before the δ=0 short-circuit,
        // ∞ · 0 = NaN and NaN.min(1-ε) silently returned δ ≈ 1, turning a
        // pure guarantee into a vacuous one.
        let p = PrivacyParams::pure(1000.0).unwrap();
        let g = p.group_privacy(1);
        assert!(
            g.is_pure(),
            "pure DP must survive grouping, got δ = {}",
            g.delta()
        );
        assert_eq!(g.delta(), 0.0);
        assert!(!g.is_vacuous());

        // Huge group size on a modest ε: mε = 4.29e8, exp() overflows.
        let p = PrivacyParams::pure(0.1).unwrap();
        let g = p.group_privacy(u32::MAX);
        assert!(g.is_pure());
        assert_eq!(g.delta(), 0.0);

        // Both huge at once.
        let p = PrivacyParams::pure(1e6).unwrap();
        let g = p.group_privacy(u32::MAX);
        assert!(g.is_pure());
        assert_eq!(g.delta(), 0.0);
    }

    #[test]
    fn group_privacy_approx_dp_saturates_under_exp_overflow() {
        // With δ > 0 the overflow path is ∞ · δ = ∞, which min() clamps to
        // just below 1 — vacuous, flagged, but never NaN.
        let p = PrivacyParams::new(1000.0, 1e-12).unwrap();
        let g = p.group_privacy(5);
        assert!(!g.delta().is_nan());
        assert!(g.is_vacuous());
        assert!(g.delta() < 1.0);
    }

    #[test]
    fn vacuous_guarantee_detected() {
        let p = PrivacyParams::new(2.0, 0.5).unwrap();
        // Huge group blows δ past 1; we clamp and flag.
        let g = p.group_privacy(50);
        assert!(g.is_vacuous());
        assert!(!p.is_vacuous());
    }

    #[test]
    fn composition_adds() {
        let a = PrivacyParams::new(0.5, 1e-7).unwrap();
        let b = PrivacyParams::new(0.25, 1e-8).unwrap();
        let c = compose(&[a, b]).unwrap();
        assert!((c.epsilon() - 0.75).abs() < 1e-12);
        assert!((c.delta() - 1.1e-7).abs() < 1e-18);
        assert!(compose(&[]).is_none());
    }

    #[test]
    fn display_formats() {
        let pure = PrivacyParams::pure(1.0).unwrap();
        assert_eq!(pure.to_string(), "1-DP");
        let approx = PrivacyParams::new(0.5, 1e-8).unwrap();
        assert!(approx.to_string().contains("0.5"));
        assert!(approx.to_string().contains("e-8"));
    }

    #[test]
    fn accountant_meters_and_refuses_overdraw() {
        let mut acct = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
        assert!(acct.spent().is_none());
        assert_eq!(acct.charges(), 0);
        let p = PrivacyParams::new(0.5, 4e-7).unwrap();
        acct.charge(p).unwrap();
        acct.charge(p).unwrap();
        let spent = acct.spent().unwrap();
        assert!((spent.epsilon() - 1.0).abs() < 1e-12);
        assert!((spent.delta() - 8e-7).abs() < 1e-18);
        // Budget now exhausted; another charge must fail without mutating.
        let err = acct.charge(p).unwrap_err();
        assert_eq!(err.requested, p);
        assert!(err.remaining_epsilon < 1e-9);
        assert_eq!(acct.charges(), 2);
        assert!(err.to_string().contains("privacy budget exceeded"));
    }

    #[test]
    fn accountant_exact_split_fits() {
        // n charges of budget/n must always fit despite float rounding.
        for n in [3u32, 7, 10] {
            let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
            let mut acct = Accountant::new(budget);
            let part = acct.split_remaining(n).unwrap();
            for i in 0..n {
                assert!(acct.charge(part).is_ok(), "charge {i} of {n}");
            }
            assert!(!acct.can_afford(part));
        }
    }

    #[test]
    fn accountant_delta_budget_is_enforced_separately() {
        let mut acct = Accountant::new(PrivacyParams::new(10.0, 1e-8).unwrap());
        // Plenty of ε left, but δ overdraws.
        let p = PrivacyParams::new(0.1, 1e-8).unwrap();
        acct.charge(p).unwrap();
        assert!(acct.charge(p).is_err());
        assert!(acct.remaining_epsilon() > 9.0);
    }

    #[test]
    fn accountant_split_rejects_degenerate() {
        let acct = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
        assert!(acct.split_remaining(0).is_err());
        let mut spent = Accountant::new(PrivacyParams::new(1.0, 1e-6).unwrap());
        spent
            .charge(PrivacyParams::new(1.0, 1e-6).unwrap())
            .unwrap();
        // Nothing left: ε = 0 is invalid, so splitting errors.
        assert!(spent.split_remaining(2).is_err());
    }

    #[test]
    fn restore_round_trips_and_validates() {
        let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut acct = Accountant::new(budget);
        let p = PrivacyParams::new(0.4, 3e-7).unwrap();
        acct.charge(p).unwrap();
        acct.charge(p).unwrap();
        let back = Accountant::restore(
            acct.budget(),
            acct.spent_epsilon(),
            acct.spent_delta(),
            acct.charges(),
        )
        .unwrap();
        assert_eq!(back.charges(), 2);
        assert_eq!(
            back.spent_epsilon().to_bits(),
            acct.spent_epsilon().to_bits()
        );
        assert_eq!(
            back.remaining_epsilon().to_bits(),
            acct.remaining_epsilon().to_bits()
        );
        // The restored accountant refuses exactly what the original would.
        let mut back = back;
        assert!(back.charge(p).is_err());

        assert!(Accountant::restore(budget, -0.1, 0.0, 1).is_err());
        assert!(Accountant::restore(budget, 0.0, f64::NAN, 1).is_err());
        assert!(Accountant::restore(budget, 1.5, 0.0, 1).is_err());
        assert!(Accountant::restore(budget, 0.0, 2e-6, 1).is_err());
        assert!(Accountant::restore(budget, 0.5, 1e-7, 0).is_err());
        assert!(Accountant::restore(budget, 0.0, 0.0, 0).is_ok());
        // Exactly-at-budget spends restore (the n × budget/n case).
        assert!(Accountant::restore(budget, 1.0, 1e-6, 4).is_ok());
    }

    proptest::proptest! {
        /// Restore is an exact round trip after ANY affordable charge
        /// sequence: spent, remaining, charge count, and the refusal
        /// boundary are all preserved to the bit — the crash/restart path
        /// must not drift the composition arithmetic by even one ulp.
        #[test]
        fn prop_restore_round_trips_any_charge_history(
            budget_eps in 0.1f64..20.0,
            fracs in proptest::collection::vec(0.01f64..0.3, 0..12),
        ) {
            let budget = PrivacyParams::new(budget_eps, 1e-6).unwrap();
            let mut acct = Accountant::new(budget);
            for frac in fracs {
                let price =
                    PrivacyParams::new(budget_eps * frac, 1e-6 * frac).unwrap();
                if acct.can_afford(price) {
                    acct.charge(price).unwrap();
                }
            }
            let back = Accountant::restore(
                budget,
                acct.spent_epsilon(),
                acct.spent_delta(),
                acct.charges(),
            )
            .unwrap();
            proptest::prop_assert_eq!(back.charges(), acct.charges());
            proptest::prop_assert_eq!(
                back.spent_epsilon().to_bits(),
                acct.spent_epsilon().to_bits()
            );
            proptest::prop_assert_eq!(
                back.spent_delta().to_bits(),
                acct.spent_delta().to_bits()
            );
            proptest::prop_assert_eq!(
                back.remaining_epsilon().to_bits(),
                acct.remaining_epsilon().to_bits()
            );
            proptest::prop_assert_eq!(
                back.remaining_delta().to_bits(),
                acct.remaining_delta().to_bits()
            );
            // The refusal boundary is identical: a probe the original
            // refuses, the restored one refuses, and vice versa.
            for probe_frac in [0.01, 0.5, 1.0] {
                let probe =
                    PrivacyParams::new(budget_eps * probe_frac, 1e-6 * probe_frac).unwrap();
                proptest::prop_assert_eq!(back.can_afford(probe), acct.can_afford(probe));
            }
        }
    }
}
