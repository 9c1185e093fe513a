//! A sharded provider fleet behind the batch-first service API.
//!
//! The paper's threat model is a statement about what *one* provider
//! endpoint observes; a deployed service is a fleet.  [`ShardedProvider`]
//! models that fleet: N shard handles (each any [`SafeBrowsingService`] —
//! a [`SafeBrowsingServer`](crate::SafeBrowsingServer) replica, or a
//! fault-injecting transport wrapped by `sb_client::TransportService`),
//! with each full-hash request of a batch routed to the shard owning its
//! lead-byte range and the sub-batches resolved concurrently under
//! [`std::thread::scope`].
//!
//! The batch API was designed shard-friendly (one response per request, in
//! request order, no cross-request state), so the fleet is observationally
//! equivalent to a single provider when healthy.  Under partial outage it
//! *degrades* instead of failing: a shard that reports a retryable error
//! ([`ServiceError::is_retryable`]) costs only its own requests, which
//! fail open with empty responses — the same fail-open stance deployed
//! browsers take when a full-hash fetch fails.  Deterministic rejections
//! (malformed request, unknown list) and whole-fleet outages still surface
//! as the [`ServiceError`] a single provider would return.
//!
//! With a [`HealthPolicy`] installed ([`ShardedProvider::with_health_policy`];
//! off by default) the fleet also *remembers* how shards behave: a shard
//! that fails consecutively (or answers slower than the policy's latency
//! threshold) is **quarantined** — its requests fail open immediately,
//! without paying the failing call — until the quarantine period elapses,
//! at which point the next batch touching it becomes a *probe* that either
//! reinstates the shard or re-arms the quarantine.  All of it is
//! deterministic over an injectable [`Clock`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_protocol::{
    Clock, FullHashRequest, FullHashResponse, SafeBrowsingService, ServiceError, SystemClock,
    UpdateRequest, UpdateResponse,
};
use sb_telemetry::{Telemetry, TraceKind};

/// The bound a [`ShardedProvider`] shard must satisfy: a thread-safe,
/// printable [`SafeBrowsingService`].  Blanket-implemented — any qualifying
/// service is a shard service automatically.
pub trait ShardService: SafeBrowsingService + Send + Sync + std::fmt::Debug {}

impl<T: SafeBrowsingService + Send + Sync + std::fmt::Debug + ?Sized> ShardService for T {}

/// A shard of a [`ShardedProvider`]: any shared service implementation.
pub type ShardHandle = Arc<dyn ShardService>;

sb_telemetry::stats! {
    /// Counters accumulated by a [`ShardedProvider`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct FleetStats {
        /// Full-hash batches served (including degraded ones).
        pub batches: usize = counter,
        /// Full-hash requests routed to each shard, by shard index.
        pub requests_routed: Vec<usize>,
        /// Retryable failures observed per shard, by shard index.
        pub shard_failures: Vec<usize>,
        /// Requests that failed open (empty response) because their shard
        /// failed while the rest of the fleet answered.
        pub degraded_requests: usize = counter,
        /// Update exchanges that succeeded only after failing over past at
        /// least one unavailable shard.
        pub update_failovers: usize = counter,
        /// Healthy→quarantined transitions (requires a [`HealthPolicy`]).
        pub quarantines: usize = counter,
        /// Quarantined→healthy transitions after a successful probe.
        pub reinstatements: usize = counter,
        /// Batches that probed a quarantined shard whose quarantine period had
        /// elapsed.
        pub probes: usize = counter,
        /// Requests that failed open (empty response) without touching their
        /// shard because it was quarantined.
        pub quarantined_skips: usize = counter,
        /// Shard calls that succeeded but breached the policy's latency
        /// threshold (each counts toward that shard's consecutive failures).
        pub slow_responses: usize = counter,
    }
    /// The per-shard vectors of [`FleetStats`] are kept in the fleet's
    /// [`ShardCounts`]; the registry carries their fleet-wide totals.
    struct FleetHandles("fleet") {
        /// Requests routed, summed over the shards.
        requests_routed: counter,
        /// Retryable shard failures, summed over the shards.
        shard_failures: counter,
    }
}

/// One shard's cells behind the per-shard vectors of [`FleetStats`].
#[derive(Debug, Default)]
struct ShardCounts {
    requests_routed: AtomicUsize,
    failures: AtomicUsize,
}

/// When and how a [`ShardedProvider`] quarantines misbehaving shards.
/// Installed via [`ShardedProvider::with_health_policy`]; without one the
/// fleet keeps the stateless degrade-per-batch behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failure events (retryable errors or over-latency
    /// responses) that quarantine a shard.
    pub failure_threshold: usize,
    /// A successful response slower than this counts as a failure event
    /// (`None` disables latency tracking).
    pub latency_threshold: Option<Duration>,
    /// How long a quarantined shard sits out before a batch probes it.
    pub quarantine_period: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            failure_threshold: 3,
            latency_threshold: None,
            quarantine_period: Duration::from_secs(30),
        }
    }
}

impl HealthPolicy {
    /// Sets the consecutive-failure threshold (clamped to at least 1).
    pub fn with_failure_threshold(mut self, threshold: usize) -> Self {
        self.failure_threshold = threshold.max(1);
        self
    }

    /// Treats successful responses slower than `threshold` as failure
    /// events.
    pub fn with_latency_threshold(mut self, threshold: Duration) -> Self {
        self.latency_threshold = Some(threshold);
        self
    }

    /// Sets how long a quarantined shard sits out before being probed.
    pub fn with_quarantine_period(mut self, period: Duration) -> Self {
        self.quarantine_period = period;
        self
    }
}

/// Per-shard health memory (only consulted when a policy is installed).
#[derive(Debug, Clone, Default)]
struct ShardHealth {
    consecutive_failures: usize,
    /// `Some(clock reading)` while quarantined.
    quarantined_since: Option<Duration>,
}

/// An N-shard Safe Browsing provider fleet.
///
/// Each shard owns a contiguous range of prefix lead bytes
/// (`256 / shard_count` lead bytes per shard, remainder spread over the
/// leading shards); a request is routed by the lead byte of its **first**
/// prefix, so every request is answered wholly by one shard and a
/// multi-prefix request stays intact — the per-request privacy surface the
/// paper analyzes is unchanged by the fleet layout.
///
/// Shards are full replicas from the protocol's point of view (any shard
/// *can* answer any request); the routing fixes which shard *does*, which
/// is what spreads load and localizes failures.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sb_protocol::{FullHashRequest, Provider, SafeBrowsingService};
/// use sb_server::{SafeBrowsingServer, ShardedProvider};
///
/// let backend = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
/// let digest = backend
///     .blacklist_url("goog-malware-shavar", "http://evil.example/")
///     .unwrap();
///
/// // A 4-shard fleet over the shared backend.
/// let fleet = ShardedProvider::new((0..4).map(|_| backend.clone() as _).collect());
/// let response = fleet
///     .full_hashes(&FullHashRequest::new(vec![digest.prefix32()]))
///     .unwrap();
/// assert!(response.contains_digest(&digest));
/// assert_eq!(fleet.stats().requests_routed.iter().sum::<usize>(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedProvider {
    shards: Vec<ShardHandle>,
    shard_counts: Box<[ShardCounts]>,
    health_policy: Option<HealthPolicy>,
    health: Mutex<Vec<ShardHealth>>,
    clock: Box<dyn Clock>,
    telemetry: Telemetry,
    handles: FleetHandles,
}

impl ShardedProvider {
    /// Builds a fleet over the given shard handles.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty — a fleet of zero providers cannot
    /// serve anything.
    pub fn new(shards: Vec<ShardHandle>) -> Self {
        assert!(
            !shards.is_empty(),
            "a provider fleet needs at least one shard"
        );
        let shard_counts = shards.iter().map(|_| ShardCounts::default()).collect();
        let health = vec![ShardHealth::default(); shards.len()];
        let telemetry = Telemetry::default();
        let handles = FleetHandles::register(&telemetry);
        ShardedProvider {
            shards,
            shard_counts,
            health_policy: None,
            health: Mutex::new(health),
            clock: Box::new(SystemClock),
            telemetry,
            handles,
        }
    }

    /// Installs a [`HealthPolicy`]: the fleet starts tracking per-shard
    /// consecutive failures (and, if configured, latency), quarantining
    /// shards that breach the policy and probing them back in after the
    /// quarantine period.
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health_policy = Some(policy);
        self
    }

    /// Replaces the clock the health machinery measures time with —
    /// inject a `VirtualClock` for deterministic quarantine tests.
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Box::new(clock);
        self
    }

    /// Publishes the fleet's aggregate counters (and quarantine trace
    /// events) into a shared [`Telemetry`] plane instead of the private
    /// default one.  The aggregates of [`Self::stats`] are read from the
    /// plane, so fleets sharing one aggregate there; the per-shard vectors
    /// stay per fleet.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.handles = FleetHandles::register(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane the fleet publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The installed health policy, if any.
    pub fn health_policy(&self) -> Option<&HealthPolicy> {
        self.health_policy.as_ref()
    }

    /// Indices of the shards currently quarantined (always empty without a
    /// [`HealthPolicy`]).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.lock_health()
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined_since.is_some())
            .map(|(index, _)| index)
            .collect()
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `request` (lead byte of its first prefix,
    /// scaled into the shard range).
    ///
    /// # Panics
    ///
    /// Panics if the request carries no prefixes — such a request is a
    /// protocol violation ([`ServiceError::MalformedRequest`]) with no
    /// owning shard; [`Self::full_hashes_batch`] rejects it before
    /// routing, and external callers partitioning a batch themselves must
    /// validate first, exactly as the fleet does.
    pub fn shard_for(&self, request: &FullHashRequest) -> usize {
        let lead = request
            .prefixes
            .first()
            .expect("a request with no prefixes has no owning shard (validate before routing)")
            .as_bytes()[0] as usize;
        lead * self.shards.len() / 256
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> FleetStats {
        let (requests_routed, shard_failures) = self
            .shard_counts
            .iter()
            .map(|counts| {
                let routed = counts.requests_routed.load(Ordering::Relaxed);
                (routed, counts.failures.load(Ordering::Relaxed))
            })
            .unzip();
        FleetStats {
            requests_routed,
            shard_failures,
            ..self.handles.view()
        }
    }

    /// Counts one retryable failure of `shard`.
    fn note_shard_failure(&self, shard: usize) {
        self.shard_counts[shard]
            .failures
            .fetch_add(1, Ordering::Relaxed);
        self.handles.shard_failures.inc();
    }

    fn lock_health(&self) -> std::sync::MutexGuard<'_, Vec<ShardHealth>> {
        self.health.lock().expect("fleet health lock poisoned")
    }

    /// Records one health event for `shard` and applies the policy's
    /// quarantine/reinstatement transitions.  `healthy` means the call
    /// succeeded within the latency threshold.  No-op without a policy.
    fn note_shard_outcome(&self, shard: usize, healthy: bool) {
        let Some(policy) = &self.health_policy else {
            return;
        };
        let now = self.clock.now();
        // Compute transitions under the health lock, bump counters after
        // releasing it.
        let (quarantined, reinstated) = {
            let mut health = self.lock_health();
            let entry = &mut health[shard];
            if healthy {
                entry.consecutive_failures = 0;
                (false, entry.quarantined_since.take().is_some())
            } else {
                entry.consecutive_failures += 1;
                if entry.quarantined_since.is_some() {
                    // A failed probe re-arms the quarantine; it is not a
                    // new healthy→quarantined transition.
                    entry.quarantined_since = Some(now);
                    (false, false)
                } else if entry.consecutive_failures >= policy.failure_threshold {
                    entry.quarantined_since = Some(now);
                    (true, false)
                } else {
                    (false, false)
                }
            }
        };
        if quarantined {
            self.handles.quarantines.inc();
            self.telemetry
                .event(TraceKind::ShardQuarantine, shard as u64);
        }
        if reinstated {
            self.handles.reinstatements.inc();
            self.telemetry
                .event(TraceKind::ShardReinstate, shard as u64);
        }
    }
}

impl SafeBrowsingService for ShardedProvider {
    /// Updates fail over: shards are tried in index order — with a
    /// [`HealthPolicy`] installed, non-quarantined shards first, so a
    /// known-bad replica is only asked once every healthy one has failed —
    /// and the first healthy one serves the exchange.  A non-retryable
    /// rejection is returned immediately (replicas reject
    /// deterministically alike); if every shard is unavailable, the last
    /// error surfaces.
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        let order: Vec<usize> = if self.health_policy.is_some() {
            let health = self.lock_health();
            let (healthy, quarantined): (Vec<usize>, Vec<usize>) =
                (0..self.shards.len()).partition(|&i| health[i].quarantined_since.is_none());
            healthy.into_iter().chain(quarantined).collect()
        } else {
            (0..self.shards.len()).collect()
        };
        let mut last_error = None;
        for (position, &index) in order.iter().enumerate() {
            match self.shards[index].update(request) {
                Ok(response) => {
                    if position > 0 {
                        self.handles.update_failovers.inc();
                    }
                    return Ok(response);
                }
                Err(error) if error.is_retryable() => {
                    self.note_shard_failure(index);
                    last_error = Some(error);
                }
                Err(error) => return Err(error),
            }
        }
        Err(last_error.expect("fleet has at least one shard"))
    }

    /// Serves a batch by fanning its requests out to their owning shards
    /// under [`std::thread::scope`] and reassembling the responses in
    /// request order.
    ///
    /// Failure semantics, in order of precedence:
    ///
    /// 1. a malformed batch is rejected up-front (nothing reaches any
    ///    shard), exactly like a single provider;
    /// 2. a non-retryable shard error fails the whole batch (it is a
    ///    deterministic protocol rejection, not an outage);
    /// 3. if **every** shard touched by the batch fails retryably, the
    ///    fleet is effectively down for this client: the lowest-index
    ///    shard's error surfaces so a retry layer can react;
    /// 4. otherwise failed shards degrade: their requests fail open with
    ///    empty responses (counted in [`FleetStats::degraded_requests`])
    ///    while the rest of the batch is answered normally.
    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Same up-front validation as a single provider, with batch-global
        // positions in the error.
        if let Some(position) = requests.iter().position(|r| r.prefixes.is_empty()) {
            return Err(ServiceError::MalformedRequest {
                reason: format!("full-hash request {position} carries no prefixes"),
            });
        }

        // Group the batch by owning shard, keeping each request's global
        // slot for reassembly.
        let mut slots_of: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (slot, request) in requests.iter().enumerate() {
            slots_of[self.shard_for(request)].push(slot);
        }
        for (counts, slots) in self.shard_counts.iter().zip(&slots_of) {
            counts
                .requests_routed
                .fetch_add(slots.len(), Ordering::Relaxed);
        }
        self.handles.batches.inc();
        self.handles.requests_routed.add(requests.len() as u64);

        let touched: Vec<usize> = (0..self.shards.len())
            .filter(|&s| !slots_of[s].is_empty())
            .collect();

        // Health gate: quarantined shards whose period has not elapsed are
        // skipped outright (their requests fail open without paying the
        // call); ones whose period has elapsed are probed by this batch.
        let mut attempted: Vec<usize> = Vec::with_capacity(touched.len());
        let mut skipped: Vec<usize> = Vec::new();
        if let Some(policy) = &self.health_policy {
            let now = self.clock.now();
            let mut probes = 0usize;
            {
                let health = self.lock_health();
                for &shard in &touched {
                    match health[shard].quarantined_since {
                        Some(since) if now.saturating_sub(since) < policy.quarantine_period => {
                            skipped.push(shard);
                        }
                        Some(_) => {
                            probes += 1;
                            attempted.push(shard);
                        }
                        None => attempted.push(shard),
                    }
                }
            }
            if probes > 0 {
                self.handles.probes.add(probes as u64);
            }
            if attempted.is_empty() {
                // Every shard this batch needs is sitting out a quarantine:
                // the fleet is down for this client right now, and a retry
                // layer should react rather than trust all-empty verdicts.
                return Err(ServiceError::Unavailable {
                    reason: format!(
                        "all {} shard(s) touched by this batch are quarantined",
                        touched.len()
                    ),
                });
            }
        } else {
            attempted.clone_from(&touched);
        }

        // Fan out: one worker per shard with work, each call timed for the
        // latency-threshold policy.  A single attempted shard (single-shard
        // fleet, or — the per-lookup common case — a batch whose requests
        // all share one owner) resolves on the calling thread straight
        // from `requests`, no sub-batch clones.
        let timed_call = |shard: usize, batch: &[FullHashRequest]| {
            let started = self.clock.now();
            let result = self.shards[shard].full_hashes_batch(batch);
            (result, self.clock.now().saturating_sub(started))
        };
        type TimedResult = (Result<Vec<FullHashResponse>, ServiceError>, Duration);
        let mut results: Vec<Option<TimedResult>> = (0..self.shards.len()).map(|_| None).collect();
        if let ([only], true) = (&attempted[..], touched.len() == 1) {
            results[*only] = Some(timed_call(*only, requests));
        } else {
            let sub_batches: Vec<Vec<FullHashRequest>> = slots_of
                .iter()
                .map(|slots| slots.iter().map(|&slot| requests[slot].clone()).collect())
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<(usize, _)> = attempted
                    .iter()
                    .map(|&shard| {
                        let sub_batch = &sub_batches[shard];
                        (shard, scope.spawn(move || timed_call(shard, sub_batch)))
                    })
                    .collect();
                for (shard, handle) in handles {
                    results[shard] = Some(handle.join().expect("fleet shard worker panicked"));
                }
            });
        }

        // Reassemble in request order, degrading per failed shard.
        let mut responses: Vec<FullHashResponse> = requests
            .iter()
            .map(|_| FullHashResponse::default())
            .collect();
        let mut first_retryable: Option<ServiceError> = None;
        let mut failed_shards = 0usize;
        let mut degraded = 0usize;
        let mut quarantine_skips = 0usize;
        for &shard in &skipped {
            // Fail open, like a degraded shard, but without the failed call.
            quarantine_skips += slots_of[shard].len();
        }
        for &shard in &attempted {
            let (result, elapsed) = results[shard].take().expect("attempted shard has a result");
            match result {
                Ok(sub_responses) => {
                    // Enforce the one-response-per-request contract per
                    // shard (the fleet analogue of
                    // `sb_protocol::expect_single_response`): a miscount is
                    // a deterministic protocol violation, not an outage, so
                    // it must not fail open or be retried.
                    if sub_responses.len() != slots_of[shard].len() {
                        return Err(ServiceError::MalformedRequest {
                            reason: format!(
                                "batch contract violated: shard {shard} returned {} responses \
                                 for {} requests",
                                sub_responses.len(),
                                slots_of[shard].len()
                            ),
                        });
                    }
                    for (&slot, response) in slots_of[shard].iter().zip(sub_responses) {
                        responses[slot] = response;
                    }
                    let slow = self
                        .health_policy
                        .as_ref()
                        .and_then(|policy| policy.latency_threshold)
                        .is_some_and(|threshold| elapsed > threshold);
                    if slow {
                        self.handles.slow_responses.inc();
                    }
                    // A successful-but-slow answer is still used, but it
                    // counts against the shard's health.
                    self.note_shard_outcome(shard, !slow);
                }
                Err(error) if error.is_retryable() => {
                    failed_shards += 1;
                    degraded += slots_of[shard].len();
                    self.note_shard_failure(shard);
                    self.note_shard_outcome(shard, false);
                    if first_retryable.is_none() {
                        first_retryable = Some(error);
                    }
                    // The requests keep their default (empty) responses:
                    // fail open.
                }
                Err(error) => return Err(error),
            }
        }
        if failed_shards == attempted.len() {
            // Every shard actually asked failed retryably: the whole fleet
            // (as seen by this batch) is down.
            return Err(first_retryable.expect("all attempted shards failed"));
        }
        self.handles.degraded_requests.add(degraded as u64);
        self.handles.quarantined_skips.add(quarantine_skips as u64);
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SafeBrowsingServer;
    use sb_hash::{prefix32, Prefix};
    use sb_protocol::{ClientListState, Provider, ThreatCategory};

    fn backend() -> Arc<SafeBrowsingServer> {
        let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        server
    }

    fn fleet_over(backend: &Arc<SafeBrowsingServer>, shards: usize) -> ShardedProvider {
        ShardedProvider::new(
            (0..shards)
                .map(|_| backend.clone() as ShardHandle)
                .collect(),
        )
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_panics() {
        ShardedProvider::new(Vec::new());
    }

    #[test]
    fn routing_partitions_lead_bytes_contiguously() {
        let backend = backend();
        let fleet = fleet_over(&backend, 4);
        let shard_of_lead = |lead: u8| {
            fleet.shard_for(&FullHashRequest::new(vec![Prefix::from_u32(
                u32::from_be_bytes([lead, 0, 0, 0]),
            )]))
        };
        assert_eq!(shard_of_lead(0x00), 0);
        assert_eq!(shard_of_lead(0x3F), 0);
        assert_eq!(shard_of_lead(0x40), 1);
        assert_eq!(shard_of_lead(0x7F), 1);
        assert_eq!(shard_of_lead(0x80), 2);
        assert_eq!(shard_of_lead(0xFF), 3);
    }

    #[test]
    fn fleet_is_observationally_a_single_provider() {
        let backend = backend();
        let digests: Vec<_> = (0..40)
            .map(|i| {
                backend
                    .blacklist_url("goog-malware-shavar", &format!("http://evil{i}.example/"))
                    .unwrap()
            })
            .collect();
        let fleet = fleet_over(&backend, 4);

        // Interleave hits and misses; responses must come back in request
        // order with exactly the single-provider content.
        let mut requests = Vec::new();
        for (i, digest) in digests.iter().enumerate() {
            requests.push(FullHashRequest::new(vec![digest.prefix32()]));
            requests.push(FullHashRequest::new(vec![prefix32(&format!(
                "miss{i}.example/"
            ))]));
        }
        let fleet_responses = fleet.full_hashes_batch(&requests).unwrap();
        let solo_responses = backend.full_hashes_batch(&requests).unwrap();
        assert_eq!(fleet_responses, solo_responses);

        // Every request was routed somewhere.
        let stats = fleet.stats();
        assert_eq!(stats.requests_routed.iter().sum::<usize>(), requests.len());
        assert_eq!(stats.degraded_requests, 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let backend = backend();
        let fleet = fleet_over(&backend, 3);
        assert!(fleet.full_hashes_batch(&[]).unwrap().is_empty());
        assert_eq!(fleet.stats().batches, 0);
    }

    #[test]
    fn malformed_batches_are_rejected_with_global_positions() {
        let backend = backend();
        let fleet = fleet_over(&backend, 2);
        let requests = [
            FullHashRequest::new(vec![prefix32("a.example/")]),
            FullHashRequest::new(Vec::new()),
        ];
        let err = fleet.full_hashes_batch(&requests).unwrap_err();
        assert_eq!(
            err,
            ServiceError::MalformedRequest {
                reason: "full-hash request 1 carries no prefixes".into()
            }
        );
        // Nothing reached any shard.
        assert!(backend.query_log().is_empty());
    }

    #[test]
    fn update_fails_over_past_unavailable_shards() {
        #[derive(Debug)]
        struct Down;
        impl SafeBrowsingService for Down {
            fn update(&self, _: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
                Err(ServiceError::Unavailable {
                    reason: "shard down".into(),
                })
            }
            fn full_hashes_batch(
                &self,
                _: &[FullHashRequest],
            ) -> Result<Vec<FullHashResponse>, ServiceError> {
                Err(ServiceError::Unavailable {
                    reason: "shard down".into(),
                })
            }
        }

        let backend = backend();
        backend
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let fleet = ShardedProvider::new(vec![Arc::new(Down) as ShardHandle, backend.clone()]);
        let response = fleet
            .update(&UpdateRequest {
                lists: vec![("goog-malware-shavar".into(), ClientListState::default())],
            })
            .unwrap();
        assert_eq!(response.chunks.len(), 1);
        let stats = fleet.stats();
        assert_eq!(stats.update_failovers, 1);
        assert_eq!(stats.shard_failures, vec![1, 0]);

        // A fleet that is down end to end surfaces the error.
        let dark = ShardedProvider::new(vec![Arc::new(Down) as ShardHandle, Arc::new(Down) as _]);
        assert!(dark
            .update(&UpdateRequest::default())
            .unwrap_err()
            .is_retryable());
    }

    #[test]
    fn unknown_list_update_is_not_failed_over() {
        let backend = backend();
        let fleet = fleet_over(&backend, 3);
        let err = fleet
            .update(&UpdateRequest {
                lists: vec![("ghost-shavar".into(), ClientListState::default())],
            })
            .unwrap_err();
        assert_eq!(err, ServiceError::ListUnknown("ghost-shavar".into()));
        // Deterministic rejection: no failover was attempted.
        assert_eq!(fleet.stats().shard_failures, vec![0, 0, 0]);
    }

    #[test]
    fn a_shard_miscounting_its_sub_batch_is_a_contract_violation() {
        #[derive(Debug)]
        struct Miscounting;
        impl SafeBrowsingService for Miscounting {
            fn update(&self, _: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
                Ok(UpdateResponse::default())
            }
            fn full_hashes_batch(
                &self,
                _: &[FullHashRequest],
            ) -> Result<Vec<FullHashResponse>, ServiceError> {
                // One response short, whatever the batch size.
                Ok(Vec::new())
            }
        }

        let fleet = ShardedProvider::new(vec![Arc::new(Miscounting) as ShardHandle]);
        let err = fleet
            .full_hashes_batch(&[FullHashRequest::new(vec![prefix32("a.example/")])])
            .unwrap_err();
        // A miscount must surface as a non-retryable protocol violation,
        // never fail open as an empty (safe-looking) response.
        assert!(matches!(err, ServiceError::MalformedRequest { .. }));
        assert!(!err.is_retryable());
    }

    #[test]
    fn single_shard_fleet_resolves_on_the_calling_thread() {
        let backend = backend();
        let digest = backend
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let fleet = fleet_over(&backend, 1);
        let responses = fleet
            .full_hashes_batch(&[FullHashRequest::new(vec![digest.prefix32()])])
            .unwrap();
        assert!(responses[0].contains_digest(&digest));
    }

    use sb_protocol::VirtualClock;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A shard that fails retryably while `down` is set, counting every
    /// call it actually receives.
    #[derive(Debug)]
    struct FlakyShard {
        inner: Arc<SafeBrowsingServer>,
        down: AtomicBool,
        batch_calls: AtomicUsize,
        update_calls: AtomicUsize,
    }

    impl FlakyShard {
        fn over(inner: Arc<SafeBrowsingServer>, down: bool) -> Arc<Self> {
            Arc::new(FlakyShard {
                inner,
                down: AtomicBool::new(down),
                batch_calls: AtomicUsize::new(0),
                update_calls: AtomicUsize::new(0),
            })
        }
    }

    impl SafeBrowsingService for FlakyShard {
        fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
            self.update_calls.fetch_add(1, Ordering::SeqCst);
            if self.down.load(Ordering::SeqCst) {
                return Err(ServiceError::Unavailable {
                    reason: "shard down".into(),
                });
            }
            self.inner.update(request)
        }

        fn full_hashes_batch(
            &self,
            requests: &[FullHashRequest],
        ) -> Result<Vec<FullHashResponse>, ServiceError> {
            self.batch_calls.fetch_add(1, Ordering::SeqCst);
            if self.down.load(Ordering::SeqCst) {
                return Err(ServiceError::Unavailable {
                    reason: "shard down".into(),
                });
            }
            self.inner.full_hashes_batch(requests)
        }
    }

    /// A request owned by shard 0 of a 2-shard fleet (lead byte 0x00).
    fn low_request() -> FullHashRequest {
        FullHashRequest::new(vec![Prefix::from_u32(u32::from_be_bytes([0x00, 1, 2, 3]))])
    }

    /// A request owned by shard 1 of a 2-shard fleet (lead byte 0xFF).
    fn high_request() -> FullHashRequest {
        FullHashRequest::new(vec![Prefix::from_u32(u32::from_be_bytes([0xFF, 1, 2, 3]))])
    }

    #[test]
    fn consecutive_failures_quarantine_a_shard_and_a_probe_reinstates_it() {
        let backend = backend();
        let flaky = FlakyShard::over(backend.clone(), true);
        let clock = Arc::new(VirtualClock::new());
        let fleet = ShardedProvider::new(vec![flaky.clone() as ShardHandle, backend.clone()])
            .with_health_policy(
                HealthPolicy::default()
                    .with_failure_threshold(2)
                    .with_quarantine_period(Duration::from_secs(10)),
            )
            .with_clock(clock.clone());

        // Two failing batches reach the threshold; shard 1 keeps answering,
        // so these batches degrade instead of erroring.
        for _ in 0..2 {
            fleet
                .full_hashes_batch(&[low_request(), high_request()])
                .unwrap();
        }
        assert_eq!(fleet.quarantined_shards(), vec![0]);
        assert_eq!(fleet.stats().quarantines, 1);
        let calls_at_quarantine = flaky.batch_calls.load(Ordering::SeqCst);

        // Inside the quarantine period the shard is skipped entirely: its
        // requests fail open without the call being paid.
        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert_eq!(
            flaky.batch_calls.load(Ordering::SeqCst),
            calls_at_quarantine
        );
        assert_eq!(fleet.stats().quarantined_skips, 1);

        // After the period the next batch probes it; recovered, it is
        // reinstated.
        flaky.down.store(false, Ordering::SeqCst);
        clock.sleep(Duration::from_secs(10));
        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert!(fleet.quarantined_shards().is_empty());
        let stats = fleet.stats();
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.reinstatements, 1);
        assert!(flaky.batch_calls.load(Ordering::SeqCst) > calls_at_quarantine);
    }

    #[test]
    fn a_failed_probe_rearms_the_quarantine() {
        let backend = backend();
        let flaky = FlakyShard::over(backend.clone(), true);
        let clock = Arc::new(VirtualClock::new());
        let fleet = ShardedProvider::new(vec![flaky.clone() as ShardHandle, backend.clone()])
            .with_health_policy(
                HealthPolicy::default()
                    .with_failure_threshold(1)
                    .with_quarantine_period(Duration::from_secs(10)),
            )
            .with_clock(clock.clone());

        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert_eq!(fleet.quarantined_shards(), vec![0]);

        // Probe fails: still quarantined, and not a second quarantine
        // transition (nor a reinstatement).
        clock.sleep(Duration::from_secs(10));
        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert_eq!(fleet.quarantined_shards(), vec![0]);
        let stats = fleet.stats();
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.reinstatements, 0);
    }

    #[test]
    fn a_batch_touching_only_quarantined_shards_is_a_fleet_outage() {
        let backend = backend();
        let flaky = FlakyShard::over(backend.clone(), true);
        let fleet = ShardedProvider::new(vec![flaky.clone() as ShardHandle, backend.clone()])
            .with_health_policy(HealthPolicy::default().with_failure_threshold(1))
            .with_clock(VirtualClock::new());

        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert_eq!(fleet.quarantined_shards(), vec![0]);
        let calls = flaky.batch_calls.load(Ordering::SeqCst);

        // Only the quarantined shard is touched: all-empty verdicts would
        // be a lie, so the batch surfaces a retryable outage instead —
        // without paying the call.
        let err = fleet.full_hashes_batch(&[low_request()]).unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(flaky.batch_calls.load(Ordering::SeqCst), calls);
    }

    #[test]
    fn slow_responses_count_toward_quarantine() {
        /// A shard that answers correctly but sleeps on the shared clock
        /// first.
        #[derive(Debug)]
        struct SlowShard {
            inner: Arc<SafeBrowsingServer>,
            clock: Arc<VirtualClock>,
            delay: Duration,
        }
        impl SafeBrowsingService for SlowShard {
            fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
                self.inner.update(request)
            }
            fn full_hashes_batch(
                &self,
                requests: &[FullHashRequest],
            ) -> Result<Vec<FullHashResponse>, ServiceError> {
                self.clock.sleep(self.delay);
                self.inner.full_hashes_batch(requests)
            }
        }

        let backend = backend();
        let clock = Arc::new(VirtualClock::new());
        let slow = Arc::new(SlowShard {
            inner: backend.clone(),
            clock: clock.clone(),
            delay: Duration::from_millis(500),
        });
        let fleet = ShardedProvider::new(vec![slow as ShardHandle, backend.clone()])
            .with_health_policy(
                HealthPolicy::default()
                    .with_failure_threshold(1)
                    .with_latency_threshold(Duration::from_millis(100)),
            )
            .with_clock(clock.clone());

        // The slow answer is still served (fail-safe for the client), but
        // it costs the shard its health.
        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        let stats = fleet.stats();
        assert_eq!(stats.slow_responses, 1);
        assert_eq!(stats.quarantines, 1);
        assert_eq!(fleet.quarantined_shards(), vec![0]);
    }

    #[test]
    fn update_failover_prefers_non_quarantined_shards() {
        let backend = backend();
        backend
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let flaky = FlakyShard::over(backend.clone(), true);
        let fleet = ShardedProvider::new(vec![flaky.clone() as ShardHandle, backend.clone()])
            .with_health_policy(HealthPolicy::default().with_failure_threshold(1))
            .with_clock(VirtualClock::new());

        // Quarantine shard 0 via the full-hash path.
        fleet
            .full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        assert_eq!(fleet.quarantined_shards(), vec![0]);
        let update_calls = flaky.update_calls.load(Ordering::SeqCst);

        // The update goes straight to the healthy shard: the quarantined
        // one is not even asked.
        fleet
            .update(&UpdateRequest {
                lists: vec![("goog-malware-shavar".into(), ClientListState::default())],
            })
            .unwrap();
        assert_eq!(flaky.update_calls.load(Ordering::SeqCst), update_calls);
    }

    #[test]
    fn without_a_policy_no_health_state_accumulates() {
        let backend = backend();
        let flaky = FlakyShard::over(backend.clone(), true);
        let fleet = ShardedProvider::new(vec![flaky.clone() as ShardHandle, backend.clone()]);
        for _ in 0..5 {
            fleet
                .full_hashes_batch(&[low_request(), high_request()])
                .unwrap();
        }
        assert!(fleet.quarantined_shards().is_empty());
        let stats = fleet.stats();
        assert_eq!(stats.quarantines, 0);
        assert_eq!(stats.quarantined_skips, 0);
        assert_eq!(stats.shard_failures, vec![5, 0]);
    }

    #[test]
    fn shard_vectors_stay_per_fleet_and_totals_follow_the_plane() {
        let backend = backend();
        let telemetry = Telemetry::new();
        let flaky = FlakyShard::over(backend.clone(), true);
        let a = ShardedProvider::new(vec![flaky as ShardHandle, backend.clone()])
            .with_telemetry(telemetry.clone());
        let b = fleet_over(&backend, 2).with_telemetry(telemetry.clone());
        a.full_hashes_batch(&[low_request(), high_request()])
            .unwrap();
        b.full_hashes_batch(&[low_request(), high_request(), high_request()])
            .unwrap();

        let (a, b) = (a.stats(), b.stats());
        assert_eq!(a.requests_routed, vec![1, 1]);
        assert_eq!(a.shard_failures, vec![1, 0]);
        assert_eq!(b.requests_routed, vec![1, 2]);
        assert_eq!(b.shard_failures, vec![0, 0]);
        // The aggregates live in the shared plane, so both fleets read the
        // sum; the registry totals are the per-shard vectors summed.
        assert_eq!((a.batches, a.degraded_requests), (2, 1));
        assert_eq!(a.batches, b.batches);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("fleet.requests_routed"), Some(5));
        assert_eq!(snapshot.counter("fleet.shard_failures"), Some(1));
    }
}
