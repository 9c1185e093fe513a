//! # sb-sim
//!
//! A discrete-event fleet simulation: 10⁵–10⁶ Safe Browsing clients
//! browsing a synthetic web corpus against a [`ShardedProvider`](sb_server::ShardedProvider) fleet,
//! entirely on **virtual time**.
//!
//! The per-client machinery elsewhere in this workspace answers
//! micro-questions — does a shaper split a batch, does the driver honour a
//! hint, does the journal net a removal.  The paper's Section 6.3 questions are
//! population-scale: across a real-sized client fleet, what fraction of
//! tracked-page visitors does the provider re-identify *per mitigation*?
//! How does the provider's own `next_update_seconds` hint shape its load
//! (the thundering herd)?  What does list churn cost the journal when every
//! client replays it?  Those numbers only exist at fleet scale, which is
//! what this crate provides — without a single real socket, thread per
//! client, or wall-clock sleep.
//!
//! ## Event model
//!
//! One binary heap of `(virtual time, sequence, event)` drives everything:
//!
//! * **Session** events — a client draws its next URL batch from its
//!   deterministic [`BrowsingProfile`](sb_corpus::BrowsingProfile) and runs
//!   [`check_urls`](sb_client::SafeBrowsingClient::check_urls) against its
//!   shared epoch snapshot, full-hash traffic flowing through a
//!   per-connection [`ObservingService`](sb_server::ObservingService) tap.
//! * **Update** events — the client's
//!   [`UpdateDriver`](sb_client::UpdateDriver) runs one exchange; the
//!   provider's (possibly jittered) `next_update_seconds` hint schedules
//!   the client's *next* update event, so the herd dynamics are exactly
//!   the deployed protocol's.
//! * **Churn** events — the provider injects and removes prefixes, the
//!   journal stats are snapshotted, and a fresh epoch snapshot is
//!   published for clients to pick up at their next update.
//!
//! ## Determinism contract
//!
//! Same [`FleetConfig`] (same seed) ⇒ identical event trace ⇒ identical
//! [`FleetReport`], including its FNV-1a `trace_digest` over every event.
//! Everything randomized is a pure function of `(seed, client id, event
//! index)`; the only OS entropy in the whole run is thread scheduling
//! inside per-shard full-hash fan-out, which affects observation-log
//! *order* only — every reported metric is order-insensitive.  The
//! provider fleet publishes into an [`sb_telemetry::Telemetry`] plane
//! stamped by the shared virtual clock, fresh for each run.
//!
//! ## Scale
//!
//! Clients share frozen epoch snapshots
//! ([`LocalDatabase::shared_from_snapshot`](sb_client::LocalDatabase))
//! instead of owning list copies, so marginal per-client memory is a few
//! hundred bytes of chunk state plus caches — 10⁵ clients fit comfortably,
//! 10⁶ are reachable.
//!
//! ```
//! use sb_sim::{run_fleet, FleetConfig};
//!
//! let config = FleetConfig::smoke().with_clients(500);
//! let report = run_fleet(&config);
//! assert_eq!(report.failed_lookups, 0);
//! // Same seed ⇒ identical report, trace digest included.
//! assert_eq!(report, run_fleet(&config));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod report;

pub use config::FleetConfig;
pub use engine::run_fleet;
pub use report::{CohortReport, EpochJournal, FleetReport, HerdReport};
