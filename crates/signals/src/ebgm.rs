//! DuMouchel's Multi-item Gamma Poisson Shrinker (MGPS) — the empirical-
//! Bayes method behind the FDA's own FAERS screening and the thesis's
//! ref. \[12\] (Fram, Almenoff & DuMouchel, KDD'03).
//!
//! Model: the observed count `N` of a (drug set, ADR) pair is Poisson with
//! mean `λ·E`, where `E` is the expected count under independence and the
//! relative-reporting ratio `λ` has a two-component gamma mixture prior.
//! The posterior is again a gamma mixture (conjugacy), giving closed forms
//! for the shrunken geometric mean **EBGM = 2^{E[log₂ λ]}** and the
//! posterior quantiles **EB05 / EB95** used as signal thresholds
//! (EB05 ≥ 2 is the conventional criterion).
//!
//! The prior defaults are DuMouchel's published FAERS fit
//! (α₁=0.2, β₁=0.1, α₂=2, β₂=4, w=1/3); fitting the prior by maximum
//! likelihood is out of scope — the defaults are what production MGPS
//! deployments commonly start from.

use crate::contingency::ContingencyTable;
use crate::gamma::{digamma, gamma_p_given, gamma_quantile, ln_gamma};
use serde::{Deserialize, Serialize};

/// Two-component gamma mixture prior on the reporting ratio λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaMixturePrior {
    /// Shape of component 1.
    pub alpha1: f64,
    /// Rate of component 1.
    pub beta1: f64,
    /// Shape of component 2.
    pub alpha2: f64,
    /// Rate of component 2.
    pub beta2: f64,
    /// Mixing weight of component 1.
    pub w: f64,
}

impl Default for GammaMixturePrior {
    fn default() -> Self {
        // DuMouchel (1999) FAERS prior.
        GammaMixturePrior { alpha1: 0.2, beta1: 0.1, alpha2: 2.0, beta2: 4.0, w: 1.0 / 3.0 }
    }
}

/// The shrunken signal scores for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EbgmScores {
    /// Posterior geometric mean of λ.
    pub ebgm: f64,
    /// 5th posterior percentile (the screening threshold statistic).
    pub eb05: f64,
    /// 95th posterior percentile.
    pub eb95: f64,
    /// Posterior weight of the first (null-ish) component.
    pub posterior_w1: f64,
}

impl EbgmScores {
    /// The conventional MGPS signal criterion: `EB05 ≥ 2`.
    pub fn is_signal(&self) -> bool {
        self.eb05 >= 2.0
    }
}

/// Log marginal likelihood of observing `n` under prior component
/// `(alpha, beta)` with expectation `e` — a negative binomial.
/// `ln_gamma_post` is `ln Γ(α + n)`, which the caller also needs for the
/// posterior component's CDF.
fn ln_marginal(n: f64, e: f64, alpha: f64, beta: f64, ln_gamma_post: f64) -> f64 {
    // P(N=n) = Γ(α+n)/(Γ(α) n!) · (β/(β+E))^α · (E/(β+E))^n
    ln_gamma_post - ln_gamma(alpha) - ln_gamma(n + 1.0)
        + alpha * (beta / (beta + e)).ln()
        + n * (e / (beta + e)).ln()
}

/// Computes the MGPS scores for an observed count `n` with expectation `e`.
///
/// `e` is clamped to a small positive floor (an all-zero margin means no
/// information, not infinite signal).
pub fn ebgm(n: u64, e: f64, prior: &GammaMixturePrior) -> EbgmScores {
    let n = n as f64;
    let e = e.max(1e-9);

    // Posterior component parameters (gamma-Poisson conjugacy).
    let a1 = prior.alpha1 + n;
    let b1 = prior.beta1 + e;
    let a2 = prior.alpha2 + n;
    let b2 = prior.beta2 + e;
    let (lg1, lg2) = (ln_gamma(a1), ln_gamma(a2));

    // Posterior mixture weight via marginal likelihoods.
    let l1 = ln_marginal(n, e, prior.alpha1, prior.beta1, lg1) + prior.w.ln();
    let l2 = ln_marginal(n, e, prior.alpha2, prior.beta2, lg2) + (1.0 - prior.w).ln();
    let m = l1.max(l2);
    let w1 = ((l1 - m).exp()) / ((l1 - m).exp() + (l2 - m).exp());

    // E[ln λ] for a Gamma(a, b) is ψ(a) − ln b.
    let e_ln = w1 * (digamma(a1) - b1.ln()) + (1.0 - w1) * (digamma(a2) - b2.ln());
    let ebgm = e_ln.exp();

    // Quantiles of the posterior mixture via bisection on its CDF, both
    // bracketed by the wider component's 0.999 quantile.
    let cdf = |x: f64| -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        w1 * gamma_p_given(a1, lg1, x * b1) + (1.0 - w1) * gamma_p_given(a2, lg2, x * b2)
    };
    let hi0 = gamma_quantile(0.999, a1, b1).max(gamma_quantile(0.999, a2, b2));
    let quantile = |p: f64| -> f64 {
        let mut lo = 0.0;
        let mut hi = hi0.max(1e-9);
        while cdf(hi) < p {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-10 * hi.max(1.0) {
                break;
            }
        }
        0.5 * (lo + hi)
    };

    EbgmScores { ebgm, eb05: quantile(0.05), eb95: quantile(0.95), posterior_w1: w1 }
}

/// Convenience: MGPS scores straight from a 2×2 table (`n` = observed joint
/// count, `e` = expected under independence).
pub fn ebgm_from_table(t: &ContingencyTable, prior: &GammaMixturePrior) -> EbgmScores {
    ebgm(t.a, t.expected_a(), prior)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_prior() -> GammaMixturePrior {
        GammaMixturePrior::default()
    }

    #[test]
    fn strong_evidence_converges_to_observed_ratio() {
        // N=200, E=20: the data overwhelm the prior; EBGM ≈ 10.
        let s = ebgm(200, 20.0, &default_prior());
        assert!((s.ebgm - 10.0).abs() < 1.0, "ebgm={}", s.ebgm);
        assert!(s.eb05 < s.ebgm && s.ebgm < s.eb95);
        assert!(s.is_signal());
    }

    #[test]
    fn weak_evidence_is_shrunk_hard() {
        // N=1, E=0.1 — crude RR = 10, but one report cannot sustain that.
        let s = ebgm(1, 0.1, &default_prior());
        assert!(s.ebgm < 6.0, "shrinkage too weak: {}", s.ebgm);
        assert!(!s.is_signal() || s.eb05 < 3.0, "one report must not be a strong signal");
        // Compare against the strong-evidence case with the same crude RR.
        let strong = ebgm(100, 10.0, &default_prior());
        assert!(strong.ebgm > s.ebgm);
        assert!(strong.eb05 > s.eb05);
    }

    #[test]
    fn null_pair_scores_near_one() {
        // Observed equals expected: λ ≈ 1.
        let s = ebgm(50, 50.0, &default_prior());
        assert!((s.ebgm - 1.0).abs() < 0.2, "ebgm={}", s.ebgm);
        assert!(!s.is_signal());
    }

    #[test]
    fn zero_count_is_finite_and_small() {
        let s = ebgm(0, 5.0, &default_prior());
        assert!(s.ebgm.is_finite() && s.ebgm < 1.0);
        assert!(s.eb05 >= 0.0);
        assert!(!s.is_signal());
    }

    #[test]
    fn quantiles_bracket_and_order() {
        for (n, e) in [(3u64, 0.5), (10, 2.0), (40, 4.0), (7, 7.0)] {
            let s = ebgm(n, e, &default_prior());
            assert!(s.eb05 <= s.ebgm + 1e-9, "n={n} e={e}: {s:?}");
            assert!(s.ebgm <= s.eb95 + 1e-9, "n={n} e={e}: {s:?}");
            assert!((0.0..=1.0).contains(&s.posterior_w1));
        }
    }

    #[test]
    fn posterior_weight_tracks_evidence() {
        // A clearly elevated pair should favour the diffuse component less
        // than a null pair does... direction depends on parameterization;
        // the robust property: weights differ and stay in (0,1).
        let elevated = ebgm(60, 6.0, &default_prior());
        let null = ebgm(6, 6.0, &default_prior());
        assert!((elevated.posterior_w1 - null.posterior_w1).abs() > 1e-3);
    }

    #[test]
    fn from_table_matches_direct_call() {
        let t = ContingencyTable { a: 25, b: 75, c: 50, d: 850 };
        let a = ebgm_from_table(&t, &default_prior());
        let b = ebgm(25, t.expected_a(), &default_prior());
        assert_eq!(a, b);
        // This textbook table is a real signal under MGPS too.
        assert!(a.is_signal(), "{a:?}");
    }

    #[test]
    fn ebgm_is_monotone_in_observed_count() {
        let prior = default_prior();
        let scores: Vec<f64> =
            [1u64, 3, 10, 30, 100].iter().map(|&n| ebgm(n, 2.0, &prior).ebgm).collect();
        assert!(scores.windows(2).all(|w| w[0] < w[1]), "{scores:?}");
    }
}
