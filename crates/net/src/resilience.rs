//! Client-side resilience primitives: retry budgets and circuit breaking.
//!
//! Both are deterministic state machines over explicit inputs — no
//! hidden clocks, no randomness — so unit tests drive them with synthetic
//! nanosecond timestamps and chaos runs replay identically.
//!
//! * [`RetryBudget`] — a token bucket *for retries*, not requests. Each
//!   success deposits `per_success` tokens (capped at `capacity`); each
//!   retry withdraws one whole token. Under a fault rate `f`, the budget
//!   sustains retries while `f ≤ per_success / (1 + per_success)`; past
//!   that, retries are refused and the shedding server sees the original
//!   offered load instead of a multiplied retry storm. This is the
//!   Finagle/SRE-book "retry budget" in place of a naive per-request
//!   retry cap.
//! * [`CircuitBreaker`] — per-server, three states. `Closed` counts
//!   *consecutive* transport failures; at `consecutive_failures` it trips
//!   to `Open` and every call is refused locally (fail-fast, no socket
//!   churn) until `cooldown_ns` elapses, after which exactly one probe is
//!   let through (`HalfOpen`); probe success closes the breaker, probe
//!   failure re-opens it with a fresh cooldown.

/// Knobs for [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetConfig {
    /// Most retry tokens the bucket can hold.
    pub capacity: f64,
    /// Tokens deposited by each successful attempt.
    pub per_success: f64,
    /// Tokens the bucket starts with (a small grace allowance so cold
    /// clients can survive a flaky first connection).
    pub initial: f64,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        BudgetConfig {
            capacity: 10.0,
            per_success: 0.1,
            initial: 10.0,
        }
    }
}

impl BudgetConfig {
    /// A budget that never refuses a retry (pre-PR-10 behavior).
    pub fn unlimited() -> Self {
        BudgetConfig {
            capacity: f64::INFINITY,
            per_success: 0.0,
            initial: f64::INFINITY,
        }
    }
}

/// Token bucket limiting the *rate of retries* to a fraction of the rate
/// of successes. See the module docs for the math.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    cfg: BudgetConfig,
    tokens: f64,
}

impl RetryBudget {
    /// Bucket holding `cfg.initial` tokens (clamped to capacity).
    pub fn new(cfg: BudgetConfig) -> Self {
        RetryBudget {
            cfg,
            tokens: cfg.initial.min(cfg.capacity).max(0.0),
        }
    }

    /// Withdraw one token for a retry. `false` = budget exhausted; the
    /// caller must surface the last error instead of retrying.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Deposit the per-success refill (capped).
    pub fn deposit(&mut self) {
        self.tokens = (self.tokens + self.cfg.per_success).min(self.cfg.capacity);
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Knobs for [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip the breaker.
    pub consecutive_failures: u32,
    /// Nanoseconds the breaker stays open before admitting one probe.
    pub cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            consecutive_failures: 8,
            cooldown_ns: 500_000_000, // 500 ms
        }
    }
}

impl BreakerConfig {
    /// A breaker that never opens.
    pub fn disabled() -> Self {
        BreakerConfig {
            consecutive_failures: u32::MAX,
            cooldown_ns: 0,
        }
    }
}

/// Observable breaker state (the internal machine also tracks the failure
/// count and open timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// Tripped: calls are refused locally until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is in flight to test the server.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
enum Machine {
    Closed { failures: u32 },
    Open { since_ns: u64 },
    HalfOpen,
}

/// Per-server circuit breaker with half-open probes. All transitions take
/// an explicit `now_ns` so tests and replays are deterministic.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Machine,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: Machine::Closed { failures: 0 },
            trips: 0,
        }
    }

    /// May an attempt proceed at `now_ns`? `Open` refuses until the
    /// cooldown elapses, then transitions to `HalfOpen` and admits the
    /// probe.
    pub fn allow(&mut self, now_ns: u64) -> bool {
        match self.state {
            Machine::Closed { .. } | Machine::HalfOpen => true,
            Machine::Open { since_ns } => {
                if now_ns.saturating_sub(since_ns) >= self.cfg.cooldown_ns {
                    self.state = Machine::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// An attempt reached the server and got *any* typed answer (including
    /// a Shed — a deliberate refusal proves the server is alive).
    pub fn record_success(&mut self) {
        self.state = Machine::Closed { failures: 0 };
    }

    /// An attempt failed at the transport layer (dial error, reset,
    /// timeout, EOF mid-frame).
    pub fn record_failure(&mut self, now_ns: u64) {
        match self.state {
            Machine::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if failures >= self.cfg.consecutive_failures {
                    self.state = Machine::Open { since_ns: now_ns };
                    self.trips += 1;
                } else {
                    self.state = Machine::Closed { failures };
                }
            }
            // A failed probe re-opens with a fresh cooldown.
            Machine::HalfOpen => {
                self.state = Machine::Open { since_ns: now_ns };
                self.trips += 1;
            }
            Machine::Open { .. } => {}
        }
    }

    /// Observable state.
    pub fn state(&self) -> BreakerState {
        match self.state {
            Machine::Closed { .. } => BreakerState::Closed,
            Machine::Open { .. } => BreakerState::Open,
            Machine::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_spends_down_then_refuses() {
        let mut b = RetryBudget::new(BudgetConfig {
            capacity: 3.0,
            per_success: 0.5,
            initial: 2.0,
        });
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "third retry exceeds the initial allowance");
        // Two successes deposit one whole token.
        b.deposit();
        assert!(!b.try_spend(), "half a token is not a retry");
        b.deposit();
        assert!(b.try_spend());
    }

    #[test]
    fn budget_caps_at_capacity() {
        let mut b = RetryBudget::new(BudgetConfig {
            capacity: 2.0,
            per_success: 1.0,
            initial: 0.0,
        });
        for _ in 0..100 {
            b.deposit();
        }
        assert!((b.tokens() - 2.0).abs() < 1e-12);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
    }

    #[test]
    fn budget_unlimited_never_refuses() {
        let mut b = RetryBudget::new(BudgetConfig::unlimited());
        for _ in 0..10_000 {
            assert!(b.try_spend());
        }
    }

    #[test]
    fn budget_initial_is_clamped_to_capacity() {
        let b = RetryBudget::new(BudgetConfig {
            capacity: 1.0,
            per_success: 0.1,
            initial: 50.0,
        });
        assert!((b.tokens() - 1.0).abs() < 1e-12);
        let b = RetryBudget::new(BudgetConfig {
            capacity: 1.0,
            per_success: 0.1,
            initial: -3.0,
        });
        assert_eq!(b.tokens(), 0.0);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let cfg = BreakerConfig {
            consecutive_failures: 3,
            cooldown_ns: 100,
        };
        let mut br = CircuitBreaker::new(cfg);
        assert!(br.allow(0));
        br.record_failure(10);
        br.record_failure(20);
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(br.allow(20));
        br.record_failure(30);
        assert_eq!(br.state(), BreakerState::Open);
        assert_eq!(br.trips(), 1);
        assert!(!br.allow(30), "open breaker fails fast");
        assert!(!br.allow(129), "cooldown not yet elapsed");
    }

    #[test]
    fn breaker_success_resets_the_count() {
        let cfg = BreakerConfig {
            consecutive_failures: 3,
            cooldown_ns: 100,
        };
        let mut br = CircuitBreaker::new(cfg);
        br.record_failure(1);
        br.record_failure(2);
        br.record_success();
        br.record_failure(3);
        br.record_failure(4);
        // Non-consecutive failures never trip it.
        assert_eq!(br.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_probe_closes_or_reopens() {
        let cfg = BreakerConfig {
            consecutive_failures: 1,
            cooldown_ns: 100,
        };
        let mut br = CircuitBreaker::new(cfg);
        br.record_failure(0);
        assert_eq!(br.state(), BreakerState::Open);
        // Cooldown elapses → exactly one probe admitted.
        assert!(br.allow(100));
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // Probe fails → open again, with a *fresh* cooldown from now.
        br.record_failure(100);
        assert_eq!(br.state(), BreakerState::Open);
        assert!(!br.allow(150));
        assert!(br.allow(200));
        // This probe succeeds → closed.
        br.record_success();
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(br.allow(201));
        assert_eq!(br.trips(), 2);
    }

    #[test]
    fn breaker_disabled_never_opens() {
        let mut br = CircuitBreaker::new(BreakerConfig::disabled());
        for t in 0..100_000u64 {
            br.record_failure(t);
        }
        assert_eq!(br.state(), BreakerState::Closed);
        assert!(br.allow(100_000));
    }

    #[test]
    fn breaker_cooldown_saturates_on_clock_skew() {
        // now_ns earlier than since_ns (monotonic source restarted) must
        // not panic or underflow into an instant re-probe window.
        let cfg = BreakerConfig {
            consecutive_failures: 1,
            cooldown_ns: 100,
        };
        let mut br = CircuitBreaker::new(cfg);
        br.record_failure(1_000);
        assert!(!br.allow(0));
        assert!(br.allow(1_100));
    }
}
