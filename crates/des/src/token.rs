//! Token-bucket rate limiter, used to model per-bucket S3 request throttling
//! and SQS API limits.

use crate::time::{SimDuration, SimTime};

/// A token bucket that refills continuously at `rate` tokens/second up to a
/// `burst` ceiling.
///
/// Callers *reserve* tokens: [`TokenBucket::reserve`] debits the bucket
/// (possibly driving it negative, i.e. borrowing from the future) and
/// returns how long the caller must wait until its reservation is covered.
/// This models a throttled service that queues requests rather than
/// rejecting them.
///
/// # Examples
///
/// ```
/// use splitserve_des::{SimTime, TokenBucket};
///
/// // 10 requests/second, burst of 10.
/// let mut tb = TokenBucket::new(10.0, 10.0);
/// let t0 = SimTime::ZERO;
/// // The burst is absorbed instantly…
/// for _ in 0..10 {
///     assert!(tb.reserve(t0, 1.0).is_zero());
/// }
/// // …then requests are paced at 10/s.
/// assert_eq!(tb.reserve(t0, 1.0).as_secs_f64(), 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket refilling at `rate` tokens/second with capacity
    /// `burst`, initially full.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `burst` is not strictly positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "token rate must be positive: {rate}");
        assert!(burst > 0.0, "burst must be positive: {burst}");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// Refill rate in tokens/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Burst capacity in tokens.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now;
    }

    /// Current token balance at `now` (may be negative when the bucket has
    /// pending reservations).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Debits `n` tokens at `now` and returns the delay until the request
    /// is admitted (zero when tokens are available immediately).
    ///
    /// # Panics
    ///
    /// Panics if `n` is negative.
    pub fn reserve(&mut self, now: SimTime, n: f64) -> SimDuration {
        assert!(n >= 0.0, "cannot reserve negative tokens: {n}");
        self.refill(now);
        self.tokens -= n;
        if self.tokens >= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(-self.tokens / self.rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TokenBucket {
        /// Non-queueing variant: takes `n` tokens only if available now.
        fn try_take(&mut self, now: SimTime, n: f64) -> bool {
            self.refill(now);
            if self.tokens >= n {
                self.tokens -= n;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn burst_absorbed_then_paced() {
        let mut tb = TokenBucket::new(100.0, 5.0);
        let t0 = SimTime::ZERO;
        for _ in 0..5 {
            assert!(tb.reserve(t0, 1.0).is_zero());
        }
        let d = tb.reserve(t0, 1.0);
        assert!((d.as_secs_f64() - 0.01).abs() < 1e-9, "delay {d}");
    }

    #[test]
    fn refill_restores_tokens() {
        let mut tb = TokenBucket::new(10.0, 10.0);
        assert!(tb.try_take(SimTime::ZERO, 10.0));
        assert!(!tb.try_take(SimTime::ZERO, 1.0));
        // After 0.5 s, 5 tokens refilled.
        let t = SimTime::from_millis(500);
        assert!(tb.try_take(t, 5.0));
        assert!(!tb.try_take(t, 0.5));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut tb = TokenBucket::new(10.0, 10.0);
        let later = SimTime::from_secs(1000);
        assert!((tb.available(later) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reservations_queue_fifo_delay_grows() {
        let mut tb = TokenBucket::new(10.0, 1.0);
        let t0 = SimTime::ZERO;
        assert!(tb.reserve(t0, 1.0).is_zero()); // burst
        let d1 = tb.reserve(t0, 1.0).as_secs_f64();
        let d2 = tb.reserve(t0, 1.0).as_secs_f64();
        let d3 = tb.reserve(t0, 1.0).as_secs_f64();
        assert!((d1 - 0.1).abs() < 1e-9);
        assert!((d2 - 0.2).abs() < 1e-9);
        assert!((d3 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn zero_reserve_is_free() {
        let mut tb = TokenBucket::new(1.0, 1.0);
        assert!(tb.reserve(SimTime::ZERO, 0.0).is_zero());
    }
}
