//! Simulated batch executor: serving on top of the calibrated cluster.
//!
//! Running the full discrete-event simulator once per batch would make a
//! 10 000-query sweep intractable, and is unnecessary: with a fixed
//! fragment layout the cost of a scan-sharing pass depends only on the
//! batch size. The [`ServiceModel`] therefore *probes* the simulator once
//! per distinct batch size (a genuine [`run_simblast`] run with
//! `queries_per_pass = k`) and caches the resulting pass cost; the
//! serving loop then replays those costs with per-batch lognormal
//! variability from its own seeded RNG stream. Determinism is preserved
//! end to end: `(config, seed) → report` is a pure function.

use std::collections::HashMap;

use parblast_blast::fused_passes;
use parblast_mpiblast::{run_simblast, SimBlastConfig};
use parblast_simcore::{SimRng, SimTime};

use crate::batcher::{BatchExecutor, BatchResult};
use crate::queue::Query;

/// Pass-cost model probed from the calibrated simulator.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    base: SimBlastConfig,
    cache: HashMap<u32, BatchResult>,
}

impl ServiceModel {
    /// Model over `base` (scheme, database size, worker count and seed all
    /// come from it; `queries_per_pass` is overridden per probe).
    pub fn new(base: SimBlastConfig) -> Self {
        ServiceModel {
            base,
            cache: HashMap::new(),
        }
    }

    /// Cost of a pass carrying `k` queries (probed on first use): the
    /// job makespan, split into scan (I/O) and search (compute) shares.
    pub fn cost(&mut self, k: u32) -> BatchResult {
        let k = k.max(1);
        if let Some(&c) = self.cache.get(&k) {
            return c;
        }
        let mut cfg = self.base.clone();
        cfg.queries_per_pass = k;
        let out = run_simblast(&cfg);
        assert!(out.completed, "service-model probe failed: {:?}", out.error);
        let io: f64 = out.per_worker.iter().map(|w| w.io_s).sum();
        let compute: f64 = out.per_worker.iter().map(|w| w.compute_s).sum();
        let bytes: u64 = out.per_worker.iter().map(|w| w.bytes_read).sum();
        let io_share = if io + compute > 0.0 {
            io / (io + compute)
        } else {
            0.0
        };
        // Pass accounting mirrors the real runner: the kernel merges up
        // to MAX_FUSED_BATCH queries into one scan pass per fragment.
        let frags = u64::from(cfg.fragments.max(1));
        let per_query_passes = frags * u64::from(k);
        let kernel_passes = frags * fused_passes(u64::from(k));
        let c = BatchResult {
            service_s: out.makespan_s,
            scan_s: out.makespan_s * io_share,
            search_s: out.makespan_s * (1.0 - io_share),
            bytes_read: bytes,
            kernel_passes,
            passes_saved: per_query_passes - kernel_passes,
        };
        self.cache.insert(k, c);
        c
    }
}

/// [`BatchExecutor`] over a [`ServiceModel`], with optional per-batch
/// lognormal service variability (`jitter_cv = 0` replays the probed cost
/// exactly).
pub struct SimExecutor {
    model: ServiceModel,
    rng: SimRng,
    jitter_cv: f64,
}

impl std::fmt::Debug for SimExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimExecutor")
            .field("model", &self.model)
            .field("jitter_cv", &self.jitter_cv)
            .finish_non_exhaustive()
    }
}

impl SimExecutor {
    /// Executor over `model`; `seed` feeds the jitter stream.
    pub fn new(model: ServiceModel, seed: u64, jitter_cv: f64) -> Self {
        SimExecutor {
            model,
            rng: SimRng::new(seed),
            jitter_cv,
        }
    }
}

impl BatchExecutor for SimExecutor {
    fn execute(&mut self, batch: &[Query], _now: SimTime) -> BatchResult {
        let c = self.model.cost(batch.len() as u32);
        let f = if self.jitter_cv > 0.0 {
            self.rng.lognormal_mean_cv(1.0, self.jitter_cv)
        } else {
            1.0
        };
        BatchResult {
            service_s: c.service_s * f,
            scan_s: c.scan_s * f,
            search_s: c.search_s * f,
            ..c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parblast_mpiblast::SimScheme;

    fn base() -> SimBlastConfig {
        SimBlastConfig {
            nodes: 3,
            workers: 2,
            fragments: 2,
            db_bytes: 64 << 20,
            scheme: SimScheme::Original,
            master_node: 2,
            warmup_s: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn batched_pass_cheaper_per_query() {
        let mut m = ServiceModel::new(base());
        let c1 = m.cost(1);
        let c4 = m.cost(4);
        // Same bytes either way (one pass), compute scales with k.
        assert_eq!(c1.bytes_read, c4.bytes_read);
        assert!(c4.service_s > c1.service_s);
        // Per-query cost shrinks: scan sharing amortizes the I/O.
        assert!(c4.service_s / 4.0 < c1.service_s, "c1={c1:?} c4={c4:?}");
        // Probes are cached.
        assert_eq!(m.cost(4), c4);
    }

    #[test]
    fn model_amortizes_compute_and_counts_passes() {
        let mut m = ServiceModel::new(base());
        let c1 = m.cost(1);
        let c8 = m.cost(8);
        // Same scan either way; one scan per query would cost about
        // B = 8 single-query services, the shared scan under half that.
        assert_eq!(c1.bytes_read, c8.bytes_read);
        assert!(
            c8.service_s < 8.0 * c1.service_s * 0.5,
            "c1={c1:?} c8={c8:?}"
        );
        // 2 fragments x 8 queries: each fragment folds to one pass.
        assert_eq!((c1.kernel_passes, c1.passes_saved), (2, 0));
        assert_eq!((c8.kernel_passes, c8.passes_saved), (2, 14));
    }

    #[test]
    fn zero_jitter_replays_probe_exactly() {
        let mut m = ServiceModel::new(base());
        let c = m.cost(2);
        let mut ex = SimExecutor::new(m, 9, 0.0);
        let q = [Query::new(1, SimTime::ZERO), Query::new(2, SimTime::ZERO)];
        let r = ex.execute(&q, SimTime::ZERO);
        assert_eq!(r, c);
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let run = |seed| {
            let mut ex = SimExecutor::new(ServiceModel::new(base()), seed, 0.25);
            let q = [Query::new(1, SimTime::ZERO)];
            (0..5)
                .map(|_| ex.execute(&q, SimTime::ZERO).service_s)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
