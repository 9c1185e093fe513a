//! Retry/backoff policy as a [`Transport`] decorator.
//!
//! The deployed Safe Browsing services steer client retry behaviour
//! out-of-band: a provider under load answers with a back-off delay, an
//! unreachable endpoint is retried with exponential backoff, and every
//! update response carries the minimum delay before the next update
//! (`next_update_seconds`).  [`RetryingTransport`] packages that whole
//! policy as a decorator around any other [`Transport`], so the client, the
//! experiments and the throughput harness gain resilience without changing
//! shape — exactly how [`SimulatedTransport`](crate::SimulatedTransport)
//! layers faults.
//!
//! Determinism is a design requirement: the paper's experiments replay
//! provider/client interactions and assert on what the provider observed,
//! so the backoff state machine takes its jitter from a seeded
//! pseudo-random stream and its notion of time from an injectable
//! [`Clock`].  A test drives scripted faults through a
//! [`VirtualClock`](sb_protocol::VirtualClock) and asserts the exact sleep
//! sequence without ever blocking.

use std::sync::Mutex;
use std::time::Duration;

use sb_protocol::{
    Clock, DeadlineBudget, FullHashRequest, FullHashResponse, ServiceError, SystemClock,
    UpdateRequest, UpdateResponse,
};
use sb_telemetry::{Telemetry, TraceKind};

use crate::transport::Transport;

/// Retry policy of a [`RetryingTransport`].
///
/// Two delays are in play, mirroring the deployed protocol:
///
/// * [`ServiceError::Backoff`] carries the provider's own delay
///   (`retry_after_seconds`); it is honoured as given — including
///   `retry_after_seconds = 0` (retry immediately) — up to `backoff_cap`.
///   The cap exists because the provider is inside this repo's threat
///   model: without it, a malicious or coerced provider could park a
///   production client's lookup threads forever with one
///   `retry_after_seconds: u64::MAX` response.
/// * [`ServiceError::Unavailable`] carries no delay; the policy falls back
///   to capped exponential backoff with deterministic *equal jitter*: the
///   `k`-th fallback waits between half and all of
///   `base_delay × 2^k` (clamped to `max_delay`), the random half drawn
///   from a stream seeded by `jitter_seed` — two transports with the same
///   seed retry on an identical schedule.
///
/// Non-retryable errors ([`ServiceError::is_retryable`] is false) are never
/// retried.  Once `max_attempts` attempts have failed, the **last
/// underlying error** is surfaced unchanged — callers see exactly what the
/// provider said, not a wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per exchange, including the first (minimum 1).
    pub max_attempts: u32,
    /// First fallback delay for [`ServiceError::Unavailable`].
    pub base_delay: Duration,
    /// Upper bound on the exponential fallback delay (the
    /// [`ServiceError::Unavailable`] path; provider-requested back-off is
    /// bounded separately by `backoff_cap`).
    pub max_delay: Duration,
    /// Upper bound on a provider-requested back-off delay.  The default
    /// (one hour) is double the deployed services' standard 30-minute
    /// update back-off, so a well-behaved provider is always honoured in
    /// full.
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(500),
            max_delay: Duration::from_secs(30),
            backoff_cap: Duration::from_secs(60 * 60),
            jitter_seed: 0x5eed_5afe,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (useful to make wrapping a no-op).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sets the attempt cap (clamped to at least 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets the first [`ServiceError::Unavailable`] fallback delay.
    pub fn with_base_delay(mut self, base_delay: Duration) -> Self {
        self.base_delay = base_delay;
        self
    }

    /// Sets the exponential fallback cap.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the cap on provider-requested back-off delays.
    pub fn with_backoff_cap(mut self, backoff_cap: Duration) -> Self {
        self.backoff_cap = backoff_cap;
        self
    }

    /// Sets the jitter seed.
    pub fn with_jitter_seed(mut self, jitter_seed: u64) -> Self {
        self.jitter_seed = jitter_seed;
        self
    }
}

sb_telemetry::stats! {
    /// Counters accumulated by a [`RetryingTransport`] — the retry-layer
    /// equivalent of [`TransportStats`](crate::TransportStats).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RetryStats {
        /// Update exchanges requested by the caller.
        pub update_calls: usize = counter,
        /// Full-hash exchanges requested by the caller.
        pub full_hash_calls: usize = counter,
        /// Attempts sent to the inner transport (≥ the number of exchanges).
        pub attempts: usize = counter,
        /// Retries performed (attempts beyond the first of each exchange).
        pub retries: usize = counter,
        /// Retries triggered by [`ServiceError::Backoff`] (the provider's own
        /// delay was honoured).
        pub backoff_retries: usize = counter,
        /// Retries triggered by [`ServiceError::Unavailable`] (exponential
        /// fallback delay).
        pub unavailable_retries: usize = counter,
        /// Exchanges abandoned after `max_attempts` failed attempts.
        pub exhausted: usize = counter,
        /// Exchanges abandoned because the caller's [`DeadlineBudget`] was
        /// spent (or the next delay would overshoot it) before the attempt cap.
        pub budget_stops: usize = counter,
        /// Exchanges failed on a non-retryable error (surfaced immediately).
        pub non_retryable_failures: usize = counter,
        /// Total delay requested of the clock across all retries.
        pub total_delay: Duration = counter(total_delay_ns),
        /// `next_update_seconds` of the most recent successful update — the
        /// provider's minimum delay before the next update exchange.
        pub last_next_update_seconds: Option<u64> = gauge(next_update_hint),
    }
    /// Every bump is a relaxed atomic add, so the retry loop never locks or
    /// allocates for accounting.
    struct RetryHandles("retry") {
        round_trip_ns: histogram,
    }
}

/// A retry/backoff decorator around another [`Transport`] — the resilience
/// layer of the client stack.
///
/// Both protocol exchanges are retried under the same [`RetryPolicy`]
/// state machine; see the policy for the exact delay rules.  A failed
/// attempt never leaks partial results: the inner transport's batch
/// contract (one response per request, in request order) holds for
/// whichever attempt finally succeeds.
///
/// # Examples
///
/// Scripted faults, virtual time — the whole scenario runs without
/// sleeping:
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use sb_client::{
///     InProcessTransport, RetryPolicy, RetryingTransport, SimulatedTransport, Transport,
/// };
/// use sb_protocol::{Provider, ServiceError, UpdateRequest, VirtualClock};
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
/// let flaky = SimulatedTransport::new(InProcessTransport::new(server));
/// flaky.push_update_fault(ServiceError::Backoff { retry_after_seconds: 7 });
///
/// let clock = Arc::new(VirtualClock::new());
/// let transport = RetryingTransport::with_clock(flaky, RetryPolicy::default(), clock.clone());
///
/// // The provider's back-off is honoured, then the retry succeeds.
/// assert!(transport.update(&UpdateRequest::default()).is_ok());
/// assert_eq!(clock.total_slept(), Duration::from_secs(7));
/// assert_eq!(transport.stats().retries, 1);
/// ```
#[derive(Debug)]
pub struct RetryingTransport<T> {
    inner: T,
    policy: RetryPolicy,
    clock: Box<dyn Clock>,
    telemetry: Telemetry,
    handles: RetryHandles,
    /// xorshift64* state of the deterministic jitter stream.
    rng: Mutex<u64>,
}

impl<T: Transport> RetryingTransport<T> {
    /// Decorates `inner` with `policy`, sleeping on the real
    /// [`SystemClock`].
    pub fn new(inner: T, policy: RetryPolicy) -> Self {
        Self::with_clock(inner, policy, SystemClock)
    }

    /// Decorates `inner` with `policy` and an injected [`Clock`] — the
    /// deterministic-test constructor.
    pub fn with_clock(inner: T, policy: RetryPolicy, clock: impl Clock + 'static) -> Self {
        // Spread the seed over the whole state space (splitmix64
        // finalizer); xorshift64* must not start at 0.
        let mut z = policy.jitter_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let rng = (z ^ (z >> 31)).max(1);
        let telemetry = Telemetry::new();
        let handles = RetryHandles::register(&telemetry);
        RetryingTransport {
            inner,
            policy,
            clock: Box::new(clock),
            telemetry,
            handles,
            rng: Mutex::new(rng),
        }
    }

    /// Publishes this transport's counters and trace events into
    /// `telemetry` instead of the private default plane, so one registry
    /// snapshot spans every layer sharing it.  Several transports on one
    /// `Telemetry` aggregate into the same `retry.*` slots.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.handles = RetryHandles::register(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane this transport publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The counters accumulated so far — a view over the `retry.*` metrics
    /// in the telemetry registry.
    pub fn stats(&self) -> RetryStats {
        self.handles.view()
    }

    /// The provider's most recent `next_update_seconds` hint (minimum delay
    /// before the next update exchange), if any update has succeeded.
    pub fn next_update_hint(&self) -> Option<u64> {
        self.handles.last_next_update_seconds.load()
    }

    /// The delay before retry number `retry` (1-based) of one exchange,
    /// for the given error.  Updates stats and the jitter stream.
    fn delay_for(&self, error: &ServiceError, retry: u32) -> Duration {
        match error {
            ServiceError::Backoff {
                retry_after_seconds,
            } => {
                self.handles.backoff_retries.inc();
                Duration::from_secs(*retry_after_seconds).min(self.policy.backoff_cap)
            }
            ServiceError::Unavailable { .. } => {
                self.handles.unavailable_retries.inc();
                // Capped exponential: base × 2^(retry-1), saturating.
                let exp = self
                    .policy
                    .base_delay
                    .saturating_mul(1u32.checked_shl(retry - 1).unwrap_or(u32::MAX))
                    .min(self.policy.max_delay);
                // Equal jitter: half fixed, half drawn from the
                // deterministic stream (xorshift64*).
                let mut rng = self.rng.lock().expect("jitter stream lock poisoned");
                *rng ^= *rng >> 12;
                *rng ^= *rng << 25;
                *rng ^= *rng >> 27;
                let draw = rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let half = exp / 2;
                let jitter = half.mul_f64((draw >> 11) as f64 / (1u64 << 53) as f64);
                half + jitter
            }
            // Non-retryable errors never reach this point.
            _ => Duration::ZERO,
        }
    }

    /// The retry loop shared by both exchanges.  With a budget, the loop
    /// stops retrying the moment the budget is spent — or when the next
    /// backoff delay alone would overshoot what remains, since sleeping
    /// past the caller's deadline helps nobody — and surfaces the last
    /// underlying error.  Each delay actually taken is charged against the
    /// budget (inner layers charge their own I/O time themselves).
    fn run<R>(
        &self,
        budget: Option<&DeadlineBudget>,
        mut attempt_exchange: impl FnMut() -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        let mut attempt = 1u32;
        loop {
            self.handles.attempts.inc();
            let started = self.telemetry.now();
            let outcome = attempt_exchange();
            let elapsed = self.telemetry.now().saturating_sub(started);
            self.handles.round_trip_ns.record(elapsed.as_nanos() as u64);
            self.telemetry
                .event(TraceKind::RoundTrip, elapsed.as_nanos() as u64);
            let error = match outcome {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            if !error.is_retryable() {
                self.handles.non_retryable_failures.inc();
                return Err(error);
            }
            if attempt >= self.policy.max_attempts {
                // Exhausted: surface the last underlying error unchanged.
                self.handles.exhausted.inc();
                return Err(error);
            }
            let delay = self.delay_for(&error, attempt);
            if let Some(budget) = budget {
                if budget.is_exhausted() || delay > budget.remaining() {
                    self.handles.budget_stops.inc();
                    return Err(error);
                }
                budget.charge(delay);
            }
            self.handles.retries.inc();
            self.handles.total_delay.add(delay.as_nanos() as u64);
            self.telemetry
                .event(TraceKind::Retry, delay.as_nanos() as u64);
            self.clock.sleep(delay);
            attempt += 1;
        }
    }

    fn run_update(
        &self,
        request: &UpdateRequest,
        budget: Option<&DeadlineBudget>,
    ) -> Result<UpdateResponse, ServiceError> {
        self.handles.update_calls.inc();
        let response = self.run(budget, || match budget {
            Some(budget) => self.inner.update_within(request, budget),
            None => self.inner.update(request),
        })?;
        self.handles
            .last_next_update_seconds
            .store(Some(response.next_update_seconds));
        Ok(response)
    }

    fn run_full_hashes(
        &self,
        requests: &[FullHashRequest],
        budget: Option<&DeadlineBudget>,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.handles.full_hash_calls.inc();
        self.run(budget, || match budget {
            Some(budget) => self.inner.full_hashes_batch_within(requests, budget),
            None => self.inner.full_hashes_batch(requests),
        })
    }
}

impl<T: Transport> Transport for RetryingTransport<T> {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.run_update(request, None)
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.run_full_hashes(requests, None)
    }

    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.run_update(request, Some(budget))
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.run_full_hashes(requests, Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcessTransport, SimulatedTransport};
    use sb_hash::prefix32;
    use sb_protocol::{Provider, ThreatCategory, VirtualClock};
    use sb_server::SafeBrowsingServer;
    use std::sync::Arc;

    fn flaky() -> (Arc<SafeBrowsingServer>, SimulatedTransport) {
        let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        let transport = SimulatedTransport::new(InProcessTransport::new(server.clone()));
        (server, transport)
    }

    fn retrying(
        transport: SimulatedTransport,
        policy: RetryPolicy,
    ) -> (Arc<VirtualClock>, RetryingTransport<SimulatedTransport>) {
        let clock = Arc::new(VirtualClock::new());
        let retrying = RetryingTransport::with_clock(transport, policy, clock.clone());
        (clock, retrying)
    }

    #[test]
    fn success_passes_through_without_delay() {
        let (_server, transport) = flaky();
        let (clock, retrying) = retrying(transport, RetryPolicy::default());
        let response = retrying
            .full_hashes(&FullHashRequest::new(vec![prefix32("a.example/")]))
            .unwrap();
        assert!(response.entries.is_empty());
        assert!(clock.sleeps().is_empty());
        let stats = retrying.stats();
        assert_eq!(stats.full_hash_calls, 1);
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn provider_backoff_is_honoured_exactly() {
        let (_server, transport) = flaky();
        transport.push_full_hash_fault(ServiceError::Backoff {
            retry_after_seconds: 120,
        });
        let (clock, retrying) = retrying(transport, RetryPolicy::default());
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert!(retrying.full_hashes(&request).is_ok());
        assert_eq!(clock.sleeps(), vec![Duration::from_secs(120)]);
        let stats = retrying.stats();
        assert_eq!(stats.backoff_retries, 1);
        assert_eq!(stats.total_delay, Duration::from_secs(120));
    }

    #[test]
    fn hostile_backoff_is_capped() {
        // The provider is in the threat model: an absurd back-off request
        // must not park the client thread forever.
        let (_server, transport) = flaky();
        transport.push_full_hash_fault(ServiceError::Backoff {
            retry_after_seconds: u64::MAX,
        });
        let policy = RetryPolicy::default().with_backoff_cap(Duration::from_secs(90));
        let (clock, retrying) = retrying(transport, policy);
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert!(retrying.full_hashes(&request).is_ok());
        assert_eq!(clock.sleeps(), vec![Duration::from_secs(90)]);
    }

    #[test]
    fn zero_second_backoff_retries_immediately() {
        let (_server, transport) = flaky();
        transport.push_full_hash_fault(ServiceError::Backoff {
            retry_after_seconds: 0,
        });
        let (clock, retrying) = retrying(transport, RetryPolicy::default());
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert!(retrying.full_hashes(&request).is_ok());
        // The zero-length sleep is still a scheduling point (recorded), but
        // no time passes.
        assert_eq!(clock.sleeps(), vec![Duration::ZERO]);
        assert_eq!(retrying.stats().retries, 1);
    }

    #[test]
    fn unavailable_uses_jittered_exponential_fallback() {
        let (_server, transport) = flaky();
        for _ in 0..3 {
            transport.push_full_hash_fault(ServiceError::Unavailable {
                reason: "down".into(),
            });
        }
        let policy = RetryPolicy::default()
            .with_base_delay(Duration::from_millis(100))
            .with_max_delay(Duration::from_secs(60))
            .with_max_attempts(4);
        let (clock, retrying) = retrying(transport, policy);
        let request = FullHashRequest::new(vec![prefix32("a.example/")]);
        assert!(retrying.full_hashes(&request).is_ok());

        // Equal jitter: the k-th fallback is within [exp/2, exp] of
        // exp = base × 2^(k-1).
        let sleeps = clock.sleeps();
        assert_eq!(sleeps.len(), 3);
        for (k, slept) in sleeps.iter().enumerate() {
            let exp = Duration::from_millis(100 * (1 << k));
            assert!(
                *slept >= exp / 2 && *slept <= exp,
                "retry {k}: slept {slept:?}, expected within [{:?}, {exp:?}]",
                exp / 2
            );
        }
        assert_eq!(retrying.stats().unavailable_retries, 3);
    }

    #[test]
    fn jitter_stream_is_deterministic_across_transports() {
        let sleeps_of = |seed: u64| {
            let (_server, transport) = flaky();
            for _ in 0..3 {
                transport.push_full_hash_fault(ServiceError::Unavailable {
                    reason: "down".into(),
                });
            }
            let (clock, retrying) =
                retrying(transport, RetryPolicy::default().with_jitter_seed(seed));
            retrying
                .full_hashes(&FullHashRequest::new(vec![prefix32("a/")]))
                .unwrap();
            clock.sleeps()
        };
        assert_eq!(sleeps_of(42), sleeps_of(42));
        assert_ne!(sleeps_of(42), sleeps_of(43));
    }

    #[test]
    fn exhaustion_surfaces_the_last_underlying_error() {
        let (server, transport) = flaky();
        transport.fail_every(
            1,
            ServiceError::Unavailable {
                reason: "hard down".into(),
            },
        );
        let policy = RetryPolicy::default().with_max_attempts(3);
        let (clock, retrying) = retrying(transport, policy);
        let err = retrying
            .full_hashes(&FullHashRequest::new(vec![prefix32("a.example/")]))
            .unwrap_err();
        // The original ServiceError comes through unchanged.
        assert_eq!(
            err,
            ServiceError::Unavailable {
                reason: "hard down".into()
            }
        );
        let stats = retrying.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.exhausted, 1);
        // Two delays were taken (before attempts 2 and 3), none after the
        // final failure.
        assert_eq!(clock.sleeps().len(), 2);
        // Nothing ever reached the provider.
        assert!(server.query_log().is_empty());
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let (_server, transport) = flaky();
        let (clock, retrying) = retrying(transport, RetryPolicy::default());
        // An empty full-hash request is a protocol violation: the provider
        // rejects it deterministically, so retrying would be useless.
        let err = retrying
            .full_hashes_batch(&[FullHashRequest::new(Vec::new())])
            .unwrap_err();
        assert!(matches!(err, ServiceError::MalformedRequest { .. }));
        let stats = retrying.stats();
        assert_eq!(stats.attempts, 1);
        assert_eq!(stats.non_retryable_failures, 1);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn batch_contract_holds_across_a_mid_batch_backoff() {
        let (server, transport) = flaky();
        let digest = server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        transport.push_full_hash_fault(ServiceError::Backoff {
            retry_after_seconds: 3,
        });
        let (clock, retrying) = retrying(transport, RetryPolicy::default());

        let requests = [
            FullHashRequest::new(vec![prefix32("miss-one.example/")]),
            FullHashRequest::new(vec![digest.prefix32()]),
            FullHashRequest::new(vec![prefix32("miss-two.example/")]),
        ];
        let responses = retrying.full_hashes_batch(&requests).unwrap();
        // The failed attempt produced nothing; the successful retry serves
        // the whole batch in request order.
        assert_eq!(responses.len(), 3);
        assert!(responses[0].entries.is_empty());
        assert!(responses[1].contains_digest(&digest));
        assert!(responses[2].entries.is_empty());
        assert_eq!(clock.sleeps(), vec![Duration::from_secs(3)]);
        // The provider logged only the successful attempt.
        assert_eq!(server.query_log().len(), 3);
    }

    #[test]
    fn update_records_the_next_update_hint() {
        let (_server, transport) = flaky();
        let (_clock, retrying) = retrying(transport, RetryPolicy::default());
        assert_eq!(retrying.next_update_hint(), None);
        retrying.update(&UpdateRequest::default()).unwrap();
        assert_eq!(
            retrying.next_update_hint(),
            Some(sb_server::DEFAULT_NEXT_UPDATE_SECONDS)
        );
    }

    #[test]
    fn a_spent_budget_stops_retrying_before_the_attempt_cap() {
        let (_server, transport) = flaky();
        transport.fail_every(
            1,
            ServiceError::Unavailable {
                reason: "hard down".into(),
            },
        );
        // 10 attempts would be allowed; the budget only affords the first
        // backoff delay (500 ms base → first delay ∈ [250 ms, 500 ms]).
        let policy = RetryPolicy::default().with_max_attempts(10);
        let (clock, retrying) = retrying(transport, policy);
        let budget = DeadlineBudget::new(Duration::from_millis(600));
        let err = retrying
            .full_hashes_batch_within(
                &[FullHashRequest::new(vec![prefix32("a.example/")])],
                &budget,
            )
            .unwrap_err();
        assert!(err.is_retryable(), "the last underlying error surfaces");
        let stats = retrying.stats();
        assert_eq!(stats.budget_stops, 1);
        assert_eq!(stats.exhausted, 0, "the attempt cap was never reached");
        // At most two attempts fit: the second delay (~1 s) overshoots what
        // remains of the 600 ms budget.
        assert!(stats.attempts <= 2, "attempts: {}", stats.attempts);
        // Every delay actually slept was charged.
        assert_eq!(budget.spent(), clock.total_slept());
    }

    #[test]
    fn a_zero_budget_stops_before_the_first_retry() {
        let (_server, transport) = flaky();
        transport.fail_every(
            1,
            ServiceError::Unavailable {
                reason: "hard down".into(),
            },
        );
        let policy = RetryPolicy::default().with_max_attempts(10);
        let (clock, retrying) = retrying(transport, policy);
        // Nothing left before the exchange even starts: the first attempt
        // still runs (the inner layer reports the real error), but no
        // backoff is slept and no retry follows.
        let budget = DeadlineBudget::new(Duration::ZERO);
        let err = retrying
            .full_hashes_batch_within(
                &[FullHashRequest::new(vec![prefix32("a.example/")])],
                &budget,
            )
            .unwrap_err();
        assert!(err.is_retryable(), "the underlying error surfaces");
        let stats = retrying.stats();
        assert_eq!(stats.attempts, 1, "exactly the first attempt ran");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.budget_stops, 1);
        assert_eq!(stats.exhausted, 0);
        assert!(clock.sleeps().is_empty(), "no backoff was slept");
    }

    #[test]
    fn a_generous_budget_changes_nothing() {
        let (_server, transport) = flaky();
        transport.push_full_hash_fault(ServiceError::Unavailable {
            reason: "blip".into(),
        });
        let (_clock, retrying) = retrying(transport, RetryPolicy::default());
        let budget = DeadlineBudget::new(Duration::from_secs(3600));
        let response = retrying
            .full_hashes_batch_within(
                &[FullHashRequest::new(vec![prefix32("a.example/")])],
                &budget,
            )
            .unwrap();
        assert_eq!(response.len(), 1);
        let stats = retrying.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.budget_stops, 0);
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn budgeted_update_still_records_the_hint() {
        let (_server, transport) = flaky();
        let (_clock, retrying) = retrying(transport, RetryPolicy::default());
        let budget = DeadlineBudget::new(Duration::from_secs(5));
        retrying
            .update_within(&UpdateRequest::default(), &budget)
            .unwrap();
        assert_eq!(
            retrying.next_update_hint(),
            Some(sb_server::DEFAULT_NEXT_UPDATE_SECONDS)
        );
    }

    #[test]
    fn max_attempts_is_clamped_to_one() {
        let policy = RetryPolicy::default().with_max_attempts(0);
        assert_eq!(policy.max_attempts, 1);
        let (_server, transport) = flaky();
        transport.push_full_hash_fault(ServiceError::Unavailable { reason: "x".into() });
        let (clock, retrying) = retrying(transport, policy);
        // One attempt, no retries.
        assert!(retrying
            .full_hashes(&FullHashRequest::new(vec![prefix32("a/")]))
            .is_err());
        assert_eq!(retrying.stats().attempts, 1);
        assert!(clock.sleeps().is_empty());
    }
}
