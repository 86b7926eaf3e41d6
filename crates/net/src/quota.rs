//! Per-tenant admission quotas: token buckets keyed by tenant id.
//!
//! Every tenant gets the same bucket shape: `qps` tokens per second of
//! refill and a `burst` cap. A `Submit` that finds its tenant's bucket
//! empty is answered with a typed `Shed(QuotaExceeded)` carrying a
//! retry-after hint — the over-quota tenant is the *only* traffic shed by
//! quota, which the net bench asserts under saturating load.
//!
//! The bucket map is shared by every shard (quota is per tenant, not per
//! tenant-per-shard, so a tenant cannot multiply its allowance by
//! spreading connections). The critical section is a few float ops; the
//! hot counters the Stats frame reads live outside it as relaxed atomics.

use std::collections::HashMap;
use std::sync::Mutex;

/// Token-bucket shape applied to every tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Sustained allowance, queries per second.
    pub qps: f64,
    /// Bucket capacity: how far a tenant may burst above the sustained
    /// rate after an idle period.
    pub burst: f64,
}

impl QuotaConfig {
    /// A sustained rate with a burst of one second's worth of tokens
    /// (minimum 1, so a tenant can always eventually submit).
    pub fn per_second(qps: f64) -> Self {
        QuotaConfig {
            qps,
            burst: qps.max(1.0),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_ns: u64,
}

/// Shared per-tenant token buckets.
#[derive(Debug)]
pub struct TenantQuotas {
    cfg: QuotaConfig,
    buckets: Mutex<HashMap<u32, Bucket>>,
}

impl TenantQuotas {
    /// Buckets with the given shape; tenants materialize (full) on first
    /// use.
    pub fn new(cfg: QuotaConfig) -> Self {
        TenantQuotas {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to take one token from `tenant`'s bucket at `now_ns`
    /// (monotonic nanoseconds). `Ok(())` admits; `Err(retry_after_us)`
    /// sheds, with a hint of how long until a token accrues.
    pub fn try_admit(&self, tenant: u32, now_ns: u64) -> Result<(), u64> {
        let mut buckets = self.buckets.lock().unwrap();
        let b = buckets.entry(tenant).or_insert(Bucket {
            tokens: self.cfg.burst,
            last_ns: now_ns,
        });
        let dt_s = now_ns.saturating_sub(b.last_ns) as f64 / 1e9;
        b.tokens = (b.tokens + dt_s * self.cfg.qps).min(self.cfg.burst);
        // Clocks read on different shards can arrive here out of order;
        // moving `last_ns` backwards would re-grant the interval between
        // the two reads on the next refill. Advance-only.
        b.last_ns = b.last_ns.max(now_ns);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else if self.cfg.qps > 0.0 {
            let wait_s = (1.0 - b.tokens) / self.cfg.qps;
            // `wait_s` is finite (qps > 0), but a tiny rate can push the
            // hint past u64 microseconds; `as` saturates, which is the
            // honest answer ("don't bother").
            Err((wait_s * 1e6).ceil() as u64)
        } else {
            Err(u64::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn burst_then_refill() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 2.0,
            burst: 3.0,
        });
        // Full bucket admits the burst...
        for _ in 0..3 {
            assert!(q.try_admit(7, 0).is_ok());
        }
        // ...then sheds with a sensible hint (need 1 token at 2 tokens/s).
        let hint = q.try_admit(7, 0).unwrap_err();
        assert!((400_000..=600_000).contains(&hint), "hint {hint}");
        // Half a second later one token has accrued.
        assert!(q.try_admit(7, S / 2).is_ok());
        assert!(q.try_admit(7, S / 2).is_err());
    }

    #[test]
    fn tenants_do_not_share_buckets() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 1.0,
            burst: 1.0,
        });
        assert!(q.try_admit(1, 0).is_ok());
        assert!(q.try_admit(1, 0).is_err());
        // A different tenant still has its full bucket.
        assert!(q.try_admit(2, 0).is_ok());
    }

    #[test]
    fn refill_caps_at_burst() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 10.0,
            burst: 2.0,
        });
        assert!(q.try_admit(1, 0).is_ok());
        // A long idle period refills to the cap, not beyond.
        for _ in 0..2 {
            assert!(q.try_admit(1, 100 * S).is_ok());
        }
        assert!(q.try_admit(1, 100 * S).is_err());
    }

    #[test]
    fn zero_rate_never_admits_after_burst() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 0.0,
            burst: 1.0,
        });
        assert!(q.try_admit(1, 0).is_ok());
        assert_eq!(q.try_admit(1, u64::MAX / 2), Err(u64::MAX));
    }

    #[test]
    fn out_of_order_clock_reads_do_not_regrant_tokens() {
        // Shard A reads the clock at t=10s, shard B at t=0, but B's
        // admit lands second. The backwards timestamp must not rewind
        // `last_ns` — otherwise the *next* admit at 10 s would re-earn
        // the whole 10 s interval a second time.
        let q = TenantQuotas::new(QuotaConfig {
            qps: 1.0,
            burst: 1.0,
        });
        // Bucket now empty, last = 10 s.
        assert!(q.try_admit(1, 10 * S).is_ok());
        // Stale read: no refill, no rewind.
        assert!(q.try_admit(1, 0).is_err());
        // At 10.5 s only 0.5 tokens have accrued since the last grant.
        assert!(
            q.try_admit(1, 10 * S + S / 2).is_err(),
            "backdated read re-granted the elapsed interval"
        );
        assert!(q.try_admit(1, 11 * S).is_ok());
    }

    #[test]
    fn zero_capacity_bucket_sheds_everything_with_saturated_hint() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 0.0,
            burst: 0.0,
        });
        assert_eq!(q.try_admit(1, 0), Err(u64::MAX));
        assert_eq!(q.try_admit(1, u64::MAX), Err(u64::MAX));
    }

    #[test]
    fn huge_elapsed_time_saturates_instead_of_overflowing() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: 1e12,
            burst: 5.0,
        });
        assert!(q.try_admit(1, 0).is_ok());
        // ~585 years of nanoseconds at 10^12 qps: the f64 product is
        // astronomically large but must clamp at burst, not go inf/NaN.
        for _ in 0..5 {
            assert!(q.try_admit(1, u64::MAX).is_ok());
        }
        assert!(q.try_admit(1, u64::MAX).is_err());
    }

    #[test]
    fn subnormal_rate_hint_saturates_to_u64_max() {
        let q = TenantQuotas::new(QuotaConfig {
            qps: f64::MIN_POSITIVE,
            burst: 1.0,
        });
        assert!(q.try_admit(1, 0).is_ok());
        // wait_s ≈ 1/MIN_POSITIVE overflows u64 µs; `as` saturates.
        assert_eq!(q.try_admit(1, 0), Err(u64::MAX));
    }
}
