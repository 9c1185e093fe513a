//! # safe-browsing-privacy
//!
//! A reproduction of *“A Privacy Analysis of Google and Yandex Safe
//! Browsing”* (Gerbet, Kumar, Lauradoux — DSN 2016 / INRIA RR-8686) as a
//! Rust workspace: the Safe Browsing v3 client and a simulated provider, the
//! hash-and-truncate pipeline, the client-side prefix stores, a synthetic
//! web corpus, and the paper's full privacy analysis (k-anonymity of a
//! single prefix, multi-prefix re-identification, the tracking algorithm,
//! and the blacklist audits).
//!
//! This umbrella crate re-exports every workspace crate under a short
//! module name so applications can depend on a single crate:
//!
//! | Module | Contents |
//! |---|---|
//! | [`hash`] | SHA-256, digests, truncated prefixes |
//! | [`url`] | canonicalization and decomposition (allocating and zero-alloc visitor forms) |
//! | [`store`] | raw / delta-coded / Bloom / lead-indexed prefix stores, the zero-copy `SBSN` snapshot format (the table owns its buffer, `SnapshotView` borrows one) and the runtime-dispatched SIMD bucket-scan kernels |
//! | [`corpus`] | synthetic web corpus and its statistics |
//! | [`protocol`] | lists, chunks, fallible batched messages, cookies, `ServiceError` |
//! | [`server`] | the simulated GSB/YSB provider (lead-byte-sharded, concurrent full-hash serving), the `ShardedProvider` fleet, per-connection `ObservingService` taps and the `TcpServingTier` network front |
//! | [`client`] | the Safe Browsing client, its `Transport` stack (in-process, simulated-fault, pooled TCP, retrying) and the `QueryShaper` privacy pipeline with its `DisclosureLedger` |
//! | [`wire`] | the length-prefixed, CRC-checked binary frame codec spoken between `TcpTransport` and `TcpServingTier` |
//! | [`telemetry`] | the telemetry plane: name-addressed atomic counters/gauges, log-bucketed latency histograms, the typed `TraceRing`, and `RegistrySnapshot` with stable JSON — shared by every tier, scrapeable over the TCP admin frame |
//! | [`analysis`] | the privacy analysis itself |
//! | [`sim`] | the discrete-event fleet simulation on virtual time |
//!
//! ## Architecture: clients own a transport
//!
//! A [`client::SafeBrowsingClient`] owns a boxed [`client::Transport`]
//! handle to its provider instead of borrowing a server on every call.
//! [`client::InProcessTransport`] wraps a shared
//! [`server::SafeBrowsingServer`] for the in-process experiments,
//! [`client::SimulatedTransport`] layers deterministic faults
//! ([`protocol::ServiceError`]) and latency on top of any other transport,
//! and [`client::RetryingTransport`] adds the deployed services' retry
//! policy (provider back-off honoured, deterministic jittered exponential
//! fallback, injectable [`protocol::Clock`]).  On the provider side,
//! [`server::ShardedProvider`] scales the backend to an N-shard fleet that
//! routes each request by prefix lead byte and degrades — rather than
//! fails — under partial outage, and [`server::ObservingService`] taps any
//! backend per client connection for the re-identification experiments.
//! Every provider exchange returns a `Result`, and
//! [`client::SafeBrowsingClient::check_urls`] checks a whole batch of URLs
//! with at most one full-hash round trip under the default shaper — while
//! a configured [`client::QueryShaper`] reshapes what each *request*
//! reveals (Section 8's mitigations, plus padded-bucket shaping) without
//! giving up the batch path, and records everything revealed in the
//! client's [`client::DisclosureLedger`].  The full stack is diagrammed in
//! `docs/ARCHITECTURE.md`.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//!
//! use safe_browsing_privacy::client::{ClientConfig, SafeBrowsingClient};
//! use safe_browsing_privacy::protocol::{Provider, ThreatCategory};
//! use safe_browsing_privacy::server::SafeBrowsingServer;
//!
//! let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
//! server.create_list("goog-malware-shavar", ThreatCategory::Malware);
//! server.blacklist_url("goog-malware-shavar", "http://evil.example/exploit").unwrap();
//!
//! // The browser owns its connection to the provider.
//! let mut browser = SafeBrowsingClient::in_process(
//!     ClientConfig::subscribed_to(["goog-malware-shavar"]),
//!     server.clone(),
//! );
//! browser.update().unwrap();
//! assert!(browser.check_url("http://evil.example/exploit").unwrap().is_malicious());
//!
//! // Batched lookups coalesce cache misses into one full-hash round trip.
//! let outcomes = browser
//!     .check_urls(&["http://evil.example/exploit", "http://benign.example/"])
//!     .unwrap();
//! assert!(outcomes[0].is_malicious());
//! assert!(!outcomes[1].is_malicious());
//!
//! // For lookup-heavy deployments, switch the local database to the
//! // lead-indexed store — ~17x faster membership than the raw table at 1M
//! // prefixes, for a fixed 256 KB index:
//! use safe_browsing_privacy::client::ClientConfig as Config;
//! use safe_browsing_privacy::store::StoreBackend;
//! let mut fast = SafeBrowsingClient::in_process(
//!     Config::subscribed_to(["goog-malware-shavar"]).with_backend(StoreBackend::Indexed),
//!     server.clone(),
//! );
//! fast.update().unwrap();
//! assert!(fast.check_url("http://evil.example/exploit").unwrap().is_malicious());
//! ```
//!
//! The end-to-end hot path is benchmarked by the throughput harness
//! (`cargo run --release -p sb-bench --bin throughput`), which drives
//! concurrent clients over a mixed hit/miss workload and records
//! lookups/sec, allocations per lookup and p50/p99 latency per backend in
//! `BENCH_throughput.json` — a locally-resolved lookup allocates nothing.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sb_analysis as analysis;
pub use sb_client as client;
pub use sb_corpus as corpus;
pub use sb_hash as hash;
pub use sb_protocol as protocol;
pub use sb_server as server;
pub use sb_sim as sim;
pub use sb_store as store;
pub use sb_telemetry as telemetry;
pub use sb_url as url;
pub use sb_wire as wire;
