//! Client-side counters.
//!
//! The metrics quantify exactly what the privacy analysis cares about: how
//! often the provider is contacted and how many prefixes are revealed per
//! lookup.

sb_telemetry::stats! {
    /// Counters accumulated by a [`crate::SafeBrowsingClient`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClientMetrics {
        /// Number of URL lookups performed.
        pub lookups: usize = counter,
        /// Lookups for which at least one decomposition prefix matched the
        /// local database.
        pub local_hits: usize = counter,
        /// Full-hash requests sent to the provider (including dummy requests).
        /// Several requests can share one transport round trip — see
        /// [`Self::full_hash_round_trips`].
        pub requests_sent: usize = counter,
        /// Transport round trips performed for full-hash resolution.  Batch
        /// execution packs the independent requests of a shaper's query plan
        /// into shared round trips, so this stays far below `requests_sent`
        /// under the dummy/padded shapers and far below `lookups` for batched
        /// checking.
        pub full_hash_round_trips: usize = counter,
        /// Total prefixes revealed to the provider (including dummies).
        pub prefixes_sent: usize = counter,
        /// Dummy prefixes revealed (only under the dummy-query mitigation).
        pub dummy_prefixes_sent: usize = counter,
        /// Lookups confirmed malicious by the provider.
        pub urls_flagged: usize = counter,
        /// Database updates performed.
        pub updates: usize = counter,
        /// Batched lookup calls (`check_urls`/`check_canonicals`); the URLs they
        /// carry are also counted individually in `lookups`.
        pub batched_lookups: usize = counter,
        /// Provider exchanges that failed with a `ServiceError`.
        pub service_errors: usize = counter,
        /// Chunks applied across all updates (excludes idempotent
        /// re-deliveries the database skipped).
        pub chunks_applied: usize = counter,
        /// The provider's most recent `next_update_seconds` schedule hint —
        /// what an `UpdateDriver` sleeps on between updates.
        pub next_update_hint: Option<u64> = gauge,
        /// Update deltas absorbed on the store's overlay path (no rebuild).
        pub deltas_absorbed: usize = gauge,
        /// Full store rebuilds triggered by an oversized overlay.
        pub store_rebuilds: usize = gauge,
    }
    /// The lookup hot path only ever touches these with relaxed atomic adds,
    /// keeping the cache-hit path at zero heap allocations.
    pub(crate) struct ClientHandles("client") {
        /// Latency of each lookup.
        lookup_ns: histogram,
    }
}

impl ClientMetrics {
    /// Prefixes revealed that correspond to the user's real browsing
    /// (excludes dummies).
    pub fn real_prefixes_sent(&self) -> usize {
        self.prefixes_sent - self.dummy_prefixes_sent
    }

    /// Average number of real prefixes revealed per lookup that reached the
    /// provider (0.0 when no request was sent).
    pub fn mean_prefixes_per_request(&self) -> f64 {
        let real_requests = self.requests_sent.saturating_sub(self.dummy_prefixes_sent);
        if real_requests == 0 {
            0.0
        } else {
            self.real_prefixes_sent() as f64 / real_requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let m = ClientMetrics {
            lookups: 10,
            local_hits: 4,
            requests_sent: 5,
            prefixes_sent: 9,
            dummy_prefixes_sent: 3,
            urls_flagged: 2,
            updates: 1,
            ..ClientMetrics::default()
        };
        assert_eq!(m.real_prefixes_sent(), 6);
        assert!((m.mean_prefixes_per_request() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_requests_mean_zero() {
        assert_eq!(ClientMetrics::default().mean_prefixes_per_request(), 0.0);
    }
}
