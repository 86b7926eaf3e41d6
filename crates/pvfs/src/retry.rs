//! Per-request timeout and bounded-exponential-backoff retry policy of the
//! storage client engine ([`crate::client::Client`]), which PVFS and
//! CEFT-PVFS share.
//!
//! Original PVFS had no request retry at all: a dead iod simply hung every
//! client (which is exactly what the `faults` experiment shows when the
//! policy is disabled). With a policy enabled, a client re-sends an
//! unacknowledged request after a per-attempt timeout, waiting
//! `base · 2^attempt` (capped) between attempts, and surfaces
//! [`crate::msg::IoError`] once the retry budget is spent.
//!
//! The retry budget only covers *transient* failures — lost or
//! unacknowledged requests ([`crate::msg::IoError::DataServerTimeout`],
//! [`crate::msg::IoError::MetaTimeout`]). A stripe-checksum mismatch
//! ([`crate::msg::IoError::Corrupt`]) is deterministic: re-reading the same
//! platter yields the same bad bytes, so clients surface it immediately and
//! never spend timeout, backoff, or retry budget on it.

use parblast_simcore::SimTime;

/// Retry/timeout knobs for one client component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// A request attempt is considered lost after this long without an
    /// acknowledgement. [`SimTime::MAX`] disables timeouts entirely.
    pub timeout: SimTime,
    /// Backoff before the first retry.
    pub base_backoff: SimTime,
    /// Upper bound on the backoff, however many attempts have failed.
    pub max_backoff: SimTime,
    /// Retries after the initial attempt before the operation fails.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// No timeouts, no retries — the faithful model of original PVFS,
    /// which blocks forever on a dead server. This is the clients'
    /// construction-time default so fault-free experiments are unchanged.
    pub fn disabled() -> Self {
        RetryPolicy {
            timeout: SimTime::MAX,
            base_backoff: SimTime::ZERO,
            max_backoff: SimTime::ZERO,
            max_retries: 0,
        }
    }

    /// Is the policy live (finite timeout)?
    pub fn enabled(&self) -> bool {
        self.timeout != SimTime::MAX
    }
}

impl Default for RetryPolicy {
    /// A policy tuned for the simulated cluster: generous enough that a
    /// merely-congested server (Figure 9 levels of convoying) does not
    /// trip it, small enough that a crashed server is given up on within
    /// about a minute.
    fn default() -> Self {
        RetryPolicy {
            timeout: SimTime::from_secs(10),
            base_backoff: SimTime::from_millis(250),
            max_backoff: SimTime::from_secs(4),
            max_retries: 3,
        }
    }
}

/// Backoff before retry number `attempt` (0-based): `base · 2^attempt`,
/// saturating, capped at `cap`. Pure so its monotonicity and boundedness
/// can be property-tested.
pub fn backoff_delay(attempt: u32, base: SimTime, cap: SimTime) -> SimTime {
    let factor = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
    let ns = base.as_nanos().saturating_mul(factor);
    SimTime::from_nanos(ns).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let base = SimTime::from_millis(250);
        let cap = SimTime::from_secs(4);
        assert_eq!(backoff_delay(0, base, cap), SimTime::from_millis(250));
        assert_eq!(backoff_delay(1, base, cap), SimTime::from_millis(500));
        assert_eq!(backoff_delay(2, base, cap), SimTime::from_secs(1));
        assert_eq!(backoff_delay(4, base, cap), cap);
        assert_eq!(backoff_delay(100, base, cap), cap);
    }

    #[test]
    fn huge_attempts_do_not_overflow() {
        let base = SimTime::from_secs(1);
        let cap = SimTime::MAX;
        assert_eq!(backoff_delay(u32::MAX, base, cap), SimTime::MAX);
    }

    #[test]
    fn disabled_policy_is_off() {
        assert!(!RetryPolicy::disabled().enabled());
        assert!(RetryPolicy::default().enabled());
    }

    #[test]
    fn zero_base_backoff_stays_zero() {
        // 0 · 2^n must be 0 for every n, including the saturated shift.
        for attempt in [0u32, 1, 62, 63, 64, u32::MAX] {
            assert_eq!(
                backoff_delay(attempt, SimTime::ZERO, SimTime::from_secs(4)),
                SimTime::ZERO
            );
        }
    }

    #[test]
    fn zero_cap_clamps_everything_to_zero() {
        for attempt in [0u32, 5, u32::MAX] {
            assert_eq!(
                backoff_delay(attempt, SimTime::from_secs(1), SimTime::ZERO),
                SimTime::ZERO
            );
        }
    }

    #[test]
    fn shift_saturation_boundary_is_monotone() {
        // Around the 2^63 boundary the factor saturates; the delay must
        // never *decrease* with the attempt number.
        let base = SimTime::from_nanos(3);
        let cap = SimTime::MAX;
        let mut prev = SimTime::ZERO;
        for attempt in [0u32, 1, 31, 32, 61, 62, 63, 64, 65, 1000, u32::MAX] {
            let d = backoff_delay(attempt, base, cap);
            assert!(d >= prev, "attempt {attempt}: {d:?} < {prev:?}");
            prev = d;
        }
    }

    #[test]
    fn max_base_saturates_at_simtime_max() {
        assert_eq!(
            backoff_delay(1, SimTime::MAX, SimTime::MAX),
            SimTime::MAX,
            "base · 2 past u64::MAX ns must saturate, not wrap"
        );
    }
}
