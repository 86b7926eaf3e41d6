//! Scoring: blastn's match/mismatch scores plus affine gap penalties.

/// A scoring system.
#[derive(Debug, Clone)]
pub enum Scorer {
    /// blastn-style match/mismatch scoring.
    Nucleotide {
        /// Score of a match (paper-era default +1).
        reward: i32,
        /// Score of a mismatch (default −3).
        penalty: i32,
    },
}

impl Scorer {
    /// Score of aligning codes `a` and `b`.
    #[inline]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        let Scorer::Nucleotide { reward, penalty } = *self;
        if a == b {
            reward
        } else {
            penalty
        }
    }

    /// Probability distribution of pair scores under the uniform base
    /// background, returned as `(min_score, probs[score - min_score])`.
    pub fn score_distribution(&self) -> (i32, Vec<f64>) {
        const BASES: u8 = 4;
        let bg = 1.0 / BASES as f64;
        let pairs = || (0..BASES).flat_map(|a| (0..BASES).map(move |b| self.score(a, b)));
        let lo = pairs().min().expect("four bases");
        let hi = pairs().max().expect("four bases");
        let mut probs = vec![0.0; (hi - lo + 1) as usize];
        for s in pairs() {
            probs[(s - lo) as usize] += bg * bg;
        }
        (lo, probs)
    }
}

/// Affine gap penalties (positive costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// Cost to open a gap (charged once per gap).
    pub open: i32,
    /// Cost per gapped position.
    pub extend: i32,
}

impl GapPenalties {
    /// blastn-era defaults (open 5, extend 2).
    pub fn blastn() -> Self {
        GapPenalties { open: 5, extend: 2 }
    }

    /// Total cost of a gap of `len` positions.
    #[inline]
    pub fn cost(&self, len: i32) -> i32 {
        debug_assert!(len > 0);
        self.open + self.extend * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nucleotide_distribution() {
        let s = Scorer::Nucleotide {
            reward: 1,
            penalty: -3,
        };
        let (lo, probs) = s.score_distribution();
        assert_eq!(lo, -3);
        assert!((probs[0] - 0.75).abs() < 1e-12); // mismatch
        assert!((probs[4] - 0.25).abs() < 1e-12); // match at index 1-(-3)=4
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "total = {total}");
    }

    #[test]
    fn gap_costs() {
        let g = GapPenalties::blastn();
        assert_eq!(g.cost(1), 7);
        assert_eq!(g.cost(3), 11);
    }
}
