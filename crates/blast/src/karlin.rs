//! Karlin–Altschul statistics: λ, K and H for an ungapped scoring system,
//! plus E-values, bit scores and effective search-space computation.
//!
//! λ is the positive root of `Σ p(s)·e^{λs} = 1` (Newton/bisection).
//! H is the relative entropy `λ·Σ s·p(s)·e^{λs}`.
//! K follows Karlin & Altschul (1990): with σ = Σ_{k≥1} (1/k)·
//! [P(S_k ≥ 0) + E(e^{λS_k}; S_k < 0)] over k-fold convolutions of the
//! score distribution and δ the score lattice span,
//! `K = λδ·e^{-2σ} / (H·(1 − e^{-λδ}))` — the same computation NCBI's
//! `blast_stat.c` performs.
//!
//! Gapped searches use NCBI's published parameter table for the standard
//! parameter combinations (the values cannot be derived analytically); any
//! unlisted combination conservatively falls back to the ungapped values.

use crate::matrix::{GapPenalties, Scorer};

/// Statistical parameters of a scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// Scale parameter λ (nats per score unit).
    pub lambda: f64,
    /// Karlin-Altschul K.
    pub k: f64,
    /// Relative entropy H (nats per aligned pair).
    pub h: f64,
}

/// Compute ungapped Karlin parameters from a score distribution
/// `(lo, probs)` where `probs[i]` is the probability of score `lo + i`.
/// Returns `None` when the expected score is non-negative or no positive
/// score exists (statistics undefined).
pub fn ungapped_params(lo: i32, probs: &[f64]) -> Option<KarlinParams> {
    let score = |i: usize| lo + i as i32;
    let mean: f64 = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| score(i) as f64 * p)
        .sum();
    let has_positive = probs
        .iter()
        .enumerate()
        .any(|(i, &p)| p > 0.0 && score(i) > 0);
    if mean >= 0.0 || !has_positive || lo >= 0 {
        return None;
    }

    // λ: root of f(λ) = Σ p e^{λs} − 1 on (0, ∞); f(0)=0, f'(0)=mean<0,
    // f(∞)=∞ → unique positive root. Bracket by doubling, then bisect.
    let f = |lambda: f64| -> f64 {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| p * (lambda * score(i) as f64).exp())
            .sum::<f64>()
            - 1.0
    };
    let mut hi = 0.5;
    while f(hi) < 0.0 {
        hi *= 2.0;
        if hi > 1e4 {
            return None;
        }
    }
    let mut lo_l = 0.0;
    let mut hi_l = hi;
    for _ in 0..200 {
        let mid = 0.5 * (lo_l + hi_l);
        if f(mid) < 0.0 {
            lo_l = mid;
        } else {
            hi_l = mid;
        }
    }
    let lambda = 0.5 * (lo_l + hi_l);

    // H = λ Σ s p e^{λ s}.
    let av: f64 = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| score(i) as f64 * p * (lambda * score(i) as f64).exp())
        .sum();
    let h = lambda * av;

    // δ: gcd of scores with nonzero probability.
    let mut delta = 0u32;
    for (i, &p) in probs.iter().enumerate() {
        if p > 1e-15 && score(i) != 0 {
            delta = gcd(delta, score(i).unsigned_abs());
        }
    }
    let delta = delta.max(1) as i32;

    // σ via k-fold convolutions.
    let mut sigma = 0.0;
    let mut conv = probs.to_vec(); // distribution of S_1
    let mut conv_lo = lo;
    for k in 1..=60 {
        let mut term = 0.0;
        for (i, &p) in conv.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            let s = conv_lo + i as i32;
            if s >= 0 {
                term += p;
            } else {
                term += p * (lambda * s as f64).exp();
            }
        }
        sigma += term / k as f64;
        if term / (k as f64) < 1e-12 {
            break;
        }
        // Convolve with the base distribution for S_{k+1}.
        let mut next = vec![0.0; conv.len() + probs.len() - 1];
        for (i, &a) in conv.iter().enumerate() {
            if a <= 0.0 {
                continue;
            }
            for (j, &b) in probs.iter().enumerate() {
                next[i + j] += a * b;
            }
        }
        conv = next;
        conv_lo += lo;
        let _ = k;
    }

    let ld = lambda * delta as f64;
    let k_param = ld * (-2.0 * sigma).exp() / (h * (1.0 - (-ld).exp()));
    Some(KarlinParams {
        lambda,
        k: k_param,
        h,
    })
}

fn gcd(a: u32, b: u32) -> u32 {
    if a == 0 {
        b
    } else {
        gcd(b % a, a)
    }
}

/// Ungapped parameters for a [`Scorer`].
pub fn scorer_params(scorer: &Scorer) -> Option<KarlinParams> {
    let (lo, probs) = scorer.score_distribution();
    ungapped_params(lo, &probs)
}

/// NCBI's published gapped parameters for the standard combinations used
/// in this workspace; falls back to the ungapped values otherwise (a
/// conservative approximation, documented in DESIGN.md).
pub fn gapped_params(scorer: &Scorer, gaps: GapPenalties) -> Option<KarlinParams> {
    match (scorer, gaps.open, gaps.extend) {
        (
            Scorer::Nucleotide {
                reward: 1,
                penalty: -3,
            },
            5,
            2,
        ) => Some(KarlinParams {
            lambda: 1.374,
            k: 0.711,
            h: 1.307,
        }),
        (
            Scorer::Nucleotide {
                reward: 1,
                penalty: -2,
            },
            5,
            2,
        ) => Some(KarlinParams {
            lambda: 1.28,
            k: 0.46,
            h: 0.85,
        }),
        _ => scorer_params(scorer),
    }
}

impl KarlinParams {
    /// Bit score of a raw score.
    pub fn bit_score(&self, raw: i32) -> f64 {
        (self.lambda * raw as f64 - self.k.ln()) / std::f64::consts::LN_2
    }

    /// The least raw score whose bit score reaches `bits`.
    pub fn raw_for_bits(&self, bits: f64) -> i32 {
        ((bits * std::f64::consts::LN_2 + self.k.ln()) / self.lambda).ceil() as i32
    }

    /// E-value of a raw score over an effective search space.
    pub fn evalue(&self, raw: i32, search_space: f64) -> f64 {
        search_space * (-self.lambda * raw as f64).exp() * self.k
    }

    /// The BLAST length adjustment ("edge-effect correction"): iteratively
    /// solves `l = ln(K (m−l) (n − N·l)) / H`.
    pub fn length_adjustment(&self, m: u64, n: u64, nseq: u64) -> u64 {
        let (m, n, nseq) = (m as f64, n as f64, (nseq.max(1)) as f64);
        let mut l = 0.0;
        for _ in 0..8 {
            let em = (m - l).max(1.0);
            let en = (n - nseq * l).max(nseq);
            let next = (self.k * em * en).ln().max(0.0) / self.h;
            l = next.min(m - 1.0).max(0.0);
        }
        l as u64
    }

    /// Effective search space for query length `m` against a database of
    /// `n` total residues in `nseq` sequences.
    pub fn search_space(&self, m: u64, n: u64, nseq: u64) -> f64 {
        let l = self.length_adjustment(m, n, nseq);
        let em = m.saturating_sub(l).max(1) as f64;
        let en = n.saturating_sub(nseq * l).max(nseq.max(1)) as f64;
        em * en
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blastn_scorer() -> Scorer {
        Scorer::Nucleotide {
            reward: 1,
            penalty: -3,
        }
    }

    #[test]
    fn blastn_lambda_k_h_match_ncbi() {
        // NCBI reports λ=1.374, K=0.711, H=1.307 for +1/−3 at uniform
        // background.
        let p = scorer_params(&blastn_scorer()).unwrap();
        assert!((p.lambda - 1.374).abs() < 0.005, "lambda = {}", p.lambda);
        assert!((p.h - 1.307).abs() < 0.01, "H = {}", p.h);
        assert!((p.k - 0.711).abs() < 0.05, "K = {}", p.k);
    }

    #[test]
    fn plus_one_minus_two_params() {
        // Ungapped +1/−2 at uniform background: λ = ln(root of
        // 0.25x³ − x² + 0.75) ≈ 1.3327; K ≈ 0.62 (NCBI ungapped tables).
        let s = Scorer::Nucleotide {
            reward: 1,
            penalty: -2,
        };
        let p = scorer_params(&s).unwrap();
        assert!((p.lambda - 1.3327).abs() < 0.005, "lambda = {}", p.lambda);
        assert!((p.k - 0.62).abs() < 0.08, "K = {}", p.k);
    }

    #[test]
    fn positive_mean_has_no_params() {
        // Match-heavy scoring with positive expectation: undefined stats.
        assert!(ungapped_params(-1, &[0.1, 0.0, 0.9]).is_none());
    }

    #[test]
    fn evalue_decreases_with_score() {
        let p = scorer_params(&blastn_scorer()).unwrap();
        let space = 1e9;
        assert!(p.evalue(30, space) > p.evalue(40, space));
        assert!(p.evalue(100, space) < 1e-40);
    }

    #[test]
    fn bit_score_monotone_and_sane() {
        let p = scorer_params(&blastn_scorer()).unwrap();
        // For +1/−3, bit score ≈ raw × 1.98… roughly 2 bits per match.
        let b28 = p.bit_score(28);
        assert!(b28 > 50.0 && b28 < 60.0, "bits = {b28}");
        assert!(p.bit_score(29) > b28);
    }

    #[test]
    fn length_adjustment_reasonable() {
        let p = scorer_params(&blastn_scorer()).unwrap();
        // 568-nt query against a 2.7 GB database: adjustment is a few
        // dozen nt, far below the query length.
        let l = p.length_adjustment(568, 2_700_000_000, 1_760_000);
        assert!(l > 5 && l < 60, "l = {l}");
        let space = p.search_space(568, 2_700_000_000, 1_760_000);
        assert!(space > 1e11 && space < 2e12, "space = {space}");
    }

    #[test]
    fn gapped_table_hits_known_combos() {
        let g = gapped_params(&blastn_scorer(), GapPenalties::blastn()).unwrap();
        assert_eq!(g.lambda, 1.374);
        let s = Scorer::Nucleotide {
            reward: 1,
            penalty: -2,
        };
        assert_eq!(
            gapped_params(&s, GapPenalties::blastn()).unwrap().lambda,
            1.28
        );
        // Unknown combo falls back to ungapped.
        let other = gapped_params(
            &blastn_scorer(),
            GapPenalties {
                open: 100,
                extend: 100,
            },
        )
        .unwrap();
        assert!((other.lambda - 1.374).abs() < 0.005);
    }
}
