//! Workload arrivals for the serving benchmarks.
//!
//! The paper runs exactly one query; a serving experiment needs a stream
//! of them. [`poisson_arrivals`] turns a target rate into a deterministic
//! list of arrival instants using the seeded simulation RNG — the same
//! `(config, seed) → trace` purity contract as the rest of the simulator.

use parblast_simcore::{SimRng, SimTime};

/// `n` open-loop Poisson arrival instants from `t = 0`, non-decreasing:
/// exponential inter-arrival times with mean `1 / rate_qps`, the standard
/// heavy-traffic model for independent users hitting a service. The
/// draws come from `rng`, so the same seed reproduces the same workload.
pub fn poisson_arrivals(rate_qps: f64, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
    assert!(rate_qps > 0.0, "Poisson rate must be positive");
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += rng.exponential(1.0 / rate_qps);
            SimTime::from_secs_f64(t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_interarrival_close_to_rate() {
        let mut rng = SimRng::new(7);
        let times = poisson_arrivals(50.0, 20_000, &mut rng);
        let span = times.last().unwrap().as_secs_f64();
        let rate = times.len() as f64 / span;
        assert!((rate - 50.0).abs() / 50.0 < 0.05, "measured rate {rate}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson_arrivals(10.0, 100, &mut SimRng::new(42));
        let b = poisson_arrivals(10.0, 100, &mut SimRng::new(42));
        let c = poisson_arrivals(10.0, 100, &mut SimRng::new(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn times_are_non_decreasing() {
        let times = poisson_arrivals(5.0, 500, &mut SimRng::new(3));
        for w in times.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
