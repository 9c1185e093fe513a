//! End-to-end resilience tests: a [`SafeBrowsingClient`] driving a
//! [`RetryingTransport`] over a 4-shard [`ShardedProvider`] fleet, with
//! scripted faults at both layers and **zero wall-clock sleeps** — all
//! backoff time flows through an injected [`VirtualClock`].
//!
//! Stack under test (see `docs/ARCHITECTURE.md`):
//!
//! ```text
//! SafeBrowsingClient
//!   └─ RetryingTransport (VirtualClock)           retry/backoff policy
//!        └─ SimulatedTransport  "front door"      scripted client-side faults
//!             └─ InProcessTransport
//!                  └─ ShardedProvider             lead-byte routing, fan-out
//!                       ├─ shard 0: SimulatedTransport ─┐
//!                       ├─ shard 1: SimulatedTransport  ├─ one shared
//!                       ├─ shard 2: SimulatedTransport  │  SafeBrowsingServer
//!                       └─ shard 3: SimulatedTransport ─┘
//! ```

use std::sync::Arc;
use std::time::Duration;

use safe_browsing_privacy::client::{
    ClientConfig, InProcessTransport, RetryPolicy, RetryingTransport, SafeBrowsingClient,
    SimulatedTransport, Transport, TransportService,
};
use safe_browsing_privacy::hash::prefix32;
use safe_browsing_privacy::protocol::{
    FullHashRequest, Provider, SafeBrowsingService, ServiceError, ThreatCategory, VirtualClock,
};
use safe_browsing_privacy::server::{SafeBrowsingServer, ShardHandle, ShardedProvider};

const LIST: &str = "goog-malware-shavar";
const SHARDS: usize = 4;

/// The full stack: authoritative server, per-shard fault handles, fleet,
/// front-door fault handle, virtual clock, and a client on top.
struct Fleet {
    server: Arc<SafeBrowsingServer>,
    shards: Vec<Arc<SimulatedTransport>>,
    fleet: Arc<ShardedProvider>,
    front: Arc<SimulatedTransport>,
    clock: Arc<VirtualClock>,
    client: SafeBrowsingClient,
}

fn build_fleet(policy: RetryPolicy) -> Fleet {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);

    // Each shard: an independently fault-scriptable path to the shared
    // authoritative backend.
    let shards: Vec<Arc<SimulatedTransport>> = (0..SHARDS)
        .map(|_| {
            Arc::new(SimulatedTransport::new(InProcessTransport::new(
                server.clone(),
            )))
        })
        .collect();
    let fleet = Arc::new(ShardedProvider::new(
        shards
            .iter()
            .map(|s| Arc::new(TransportService::new(s.clone())) as ShardHandle)
            .collect(),
    ));

    // Front door (client↔fleet path) with its own fault plan, wrapped by
    // the retry layer on a virtual clock.
    let front = Arc::new(SimulatedTransport::new(InProcessTransport::new(
        fleet.clone(),
    )));
    let clock = Arc::new(VirtualClock::new());
    let retrying = RetryingTransport::with_clock(front.clone(), policy, clock.clone());
    let client = SafeBrowsingClient::new(ClientConfig::subscribed_to([LIST]), retrying);

    Fleet {
        server,
        shards,
        fleet,
        front,
        clock,
        client,
    }
}

#[test]
fn healthy_fleet_serves_lookups_end_to_end() {
    let mut f = build_fleet(RetryPolicy::default());
    // Blacklist enough URLs that multiple shards are exercised (lead bytes
    // of SHA-256 prefixes are uniform).
    let urls: Vec<String> = (0..32)
        .map(|i| format!("http://evil{i}.example/payload.html"))
        .collect();
    for url in &urls {
        f.server.blacklist_url(LIST, url).unwrap();
    }
    f.client.update().unwrap();

    for url in &urls {
        assert!(f.client.check_url(url).unwrap().is_malicious());
    }
    assert!(!f
        .client
        .check_url("http://benign.example/")
        .unwrap()
        .is_malicious());

    // The fleet actually spread the load: more than one shard saw
    // requests.
    let routed = f.fleet.stats().requests_routed;
    assert_eq!(routed.len(), SHARDS);
    assert!(
        routed.iter().filter(|&&n| n > 0).count() > 1,
        "expected multiple shards to serve requests, got {routed:?}"
    );
    // No time was spent backing off, nothing degraded.
    assert_eq!(f.clock.total_slept(), Duration::ZERO);
    assert_eq!(f.fleet.stats().degraded_requests, 0);
}

#[test]
fn front_door_backoff_is_absorbed_by_the_retry_layer() {
    let mut f = build_fleet(RetryPolicy::default());
    let digest = f
        .server
        .blacklist_url(LIST, "http://evil.example/")
        .unwrap();
    f.client.update().unwrap();

    // Script two faults on the same exchange: Backoff(0) (edge case —
    // retry immediately), then Backoff(11).  Both are absorbed without
    // surfacing to the lookup API, on virtual time only.
    f.front.push_full_hash_fault(ServiceError::Backoff {
        retry_after_seconds: 0,
    });
    f.front.push_full_hash_fault(ServiceError::Backoff {
        retry_after_seconds: 11,
    });

    let outcome = f.client.check_url("http://evil.example/").unwrap();
    assert!(outcome.is_malicious());
    assert_eq!(
        f.clock.sleeps(),
        vec![Duration::ZERO, Duration::from_secs(11)]
    );
    // The provider saw exactly one (successful) full-hash request.
    assert_eq!(f.server.query_log().len(), 1);
    assert!(f.server.query_log().requests()[0]
        .prefixes
        .contains(&digest.prefix32()));
}

#[test]
fn one_dead_shard_degrades_only_its_requests_and_preserves_order() {
    // Multi-request batches are what a fleet serves (e.g. an aggregating
    // gateway forwarding many clients' lookups); drive the fleet's batch
    // API directly so the routing is per request.
    let f = build_fleet(RetryPolicy::no_retries());
    let digests: Vec<_> = (0..64)
        .map(|i| {
            f.server
                .blacklist_url(LIST, &format!("http://evil{i}.example/"))
                .unwrap()
        })
        .collect();

    // Interleave hits with misses so degraded slots sit between healthy
    // ones.
    let mut requests = Vec::new();
    for (i, digest) in digests.iter().enumerate() {
        requests.push(FullHashRequest::new(vec![digest.prefix32()]));
        requests.push(FullHashRequest::new(vec![prefix32(&format!(
            "miss{i}.example/"
        ))]));
    }

    const DEAD: usize = 2;
    f.shards[DEAD].fail_every(
        1,
        ServiceError::Unavailable {
            reason: "shard 2 rack power loss".into(),
        },
    );

    let responses = f.fleet.full_hashes_batch(&requests).unwrap();
    assert_eq!(responses.len(), requests.len());

    // Order preserved: even slots are the hits, odd slots the misses.  A
    // hit slot owned by the dead shard fails open (empty); every other hit
    // slot carries exactly its own digest — proving no cross-slot mixing
    // happened during fan-out reassembly.
    let mut degraded_hits = 0;
    for (i, digest) in digests.iter().enumerate() {
        let hit_slot = &responses[2 * i];
        if f.fleet.shard_for(&requests[2 * i]) == DEAD {
            assert!(
                hit_slot.entries.is_empty(),
                "slot {} should fail open",
                2 * i
            );
            degraded_hits += 1;
        } else {
            assert_eq!(hit_slot.entries.len(), 1, "slot {} lost its digest", 2 * i);
            assert!(hit_slot.contains_digest(digest));
        }
        assert!(responses[2 * i + 1].entries.is_empty());
    }

    let stats = f.fleet.stats();
    // With uniform prefixes, the dead shard owned some but not all
    // requests.
    assert!(degraded_hits > 0, "dead shard owned no hit requests");
    assert!(degraded_hits < digests.len(), "dead shard owned every hit");
    assert_eq!(stats.degraded_requests, stats.requests_routed[DEAD]);
    assert_eq!(stats.shard_failures[DEAD], 1);
}

#[test]
fn whole_fleet_outage_surfaces_the_error_and_retry_exhaustion_keeps_it() {
    let mut f = build_fleet(RetryPolicy::default().with_max_attempts(3));
    f.server
        .blacklist_url(LIST, "http://evil.example/")
        .unwrap();
    f.client.update().unwrap();

    // Every shard down: the fleet's error reaches the retry layer, which
    // retries max_attempts times and then surfaces the original error
    // unchanged.
    for shard in &f.shards {
        shard.fail_every(
            1,
            ServiceError::Unavailable {
                reason: "datacenter offline".into(),
            },
        );
    }
    let err = f.client.check_url("http://evil.example/").unwrap_err();
    assert_eq!(
        err.to_string(),
        "service failure: provider unavailable: datacenter offline"
    );
    // Two fallback delays were taken (before attempts 2 and 3), all on
    // virtual time.
    assert_eq!(f.clock.sleeps().len(), 2);
    assert!(f.clock.total_slept() > Duration::ZERO);

    // The fleet heals; the same lookup now succeeds.
    for shard in &f.shards {
        shard.fail_every(0, ServiceError::Unavailable { reason: "-".into() });
    }
    assert!(f
        .client
        .check_url("http://evil.example/")
        .unwrap()
        .is_malicious());
}

#[test]
fn update_fails_over_to_a_healthy_shard() {
    let mut f = build_fleet(RetryPolicy::default());
    f.server
        .blacklist_url(LIST, "http://evil.example/")
        .unwrap();

    // Shard 0 (the first failover candidate) is down for updates.
    f.shards[0].push_update_fault(ServiceError::Unavailable {
        reason: "update endpoint down".into(),
    });
    assert_eq!(f.client.update().unwrap(), 1);
    assert_eq!(f.fleet.stats().update_failovers, 1);
    assert!(f
        .client
        .check_url("http://evil.example/")
        .unwrap()
        .is_malicious());
}

#[test]
fn multi_prefix_request_stays_on_one_shard() {
    // A URL whose domain and path are both blacklisted produces one
    // request with two prefixes; the fleet must not split it (the
    // per-request privacy surface the paper analyzes is exactly the set
    // of prefixes revealed together).
    let mut f = build_fleet(RetryPolicy::default());
    f.server
        .blacklist_expressions(LIST, ["tracked.example/", "tracked.example/article/"])
        .unwrap();
    f.client.update().unwrap();

    assert!(f
        .client
        .check_url("http://tracked.example/article/today.html")
        .unwrap()
        .is_malicious());
    let log = f.server.query_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log.requests()[0].prefixes.len(), 2);
    // Exactly one shard carried the (whole) request.
    let routed = f.fleet.stats().requests_routed;
    assert_eq!(routed.iter().sum::<usize>(), 1);
}

#[test]
fn retried_batch_against_a_recovering_fleet_is_served_in_order() {
    // Drive the retry layer directly (no client) to pin down the exact
    // attempt accounting against the fleet.
    let f = build_fleet(RetryPolicy::default());
    let digest = f
        .server
        .blacklist_url(LIST, "http://evil.example/")
        .unwrap();

    let clock = Arc::new(VirtualClock::new());
    let retrying = RetryingTransport::with_clock(
        InProcessTransport::new(f.fleet.clone()),
        RetryPolicy::default().with_max_attempts(2),
        clock.clone(),
    );

    // All shards briefly down (one scripted fault each): the first batch
    // attempt fails whichever shards it touches, the retry finds them
    // healthy again.
    for shard in &f.shards {
        shard.push_full_hash_fault(ServiceError::Unavailable {
            reason: "rolling restart".into(),
        });
    }
    let requests = [
        FullHashRequest::new(vec![digest.prefix32()]),
        FullHashRequest::new(vec![prefix32("miss.example/")]),
    ];
    let responses = retrying.full_hashes_batch(&requests).unwrap();
    assert_eq!(responses.len(), 2);
    assert!(responses[0].contains_digest(&digest));
    assert!(responses[1].entries.is_empty());

    let stats = retrying.stats();
    assert_eq!(stats.attempts, 2);
    assert_eq!(stats.retries, 1);
    assert_eq!(clock.sleeps().len(), 1);
}
