//! # sb-server
//!
//! A simulated Google/Yandex Safe Browsing backend: blacklist storage,
//! incremental updates, the full-hash endpoint, a per-request query log
//! (the attacker's view of client traffic), and the tampering primitives
//! the paper shows are available to a malicious or coerced provider
//! (arbitrary prefix injection, orphan prefixes, tracking entries).
//! [`ShardedProvider`] scales the backend to an N-shard fleet: requests
//! route by prefix lead byte, sub-batches resolve concurrently, and a
//! failing shard degrades only its own requests.  [`ObservingService`]
//! taps any backend per client connection, feeding a shared
//! [`ObservationLog`] so the re-identification experiments run against
//! the real transport stack end to end.
//!
//! The backend itself is transport-agnostic: the privacy findings of the
//! paper only depend on *what* the protocol reveals, not on how the bytes
//! move.  [`TcpServingTier`] puts real sockets in front of any of these
//! services — a listener, a fixed worker pool, per-connection framing via
//! `sb-wire`, and wire-level counters ([`WireStats`]) — so the same
//! experiments also run over genuine kernel round trips.  For chaos
//! testing, [`ChaosProxy`] interposes between a client transport and the
//! tier, injecting deterministic wire faults (latency, resets mid-frame,
//! corruption, blackholes, slow-drip reads) from a seeded or scripted
//! [`ChaosSchedule`].
//!
//! ## Example
//!
//! ```
//! use sb_protocol::{FullHashRequest, Provider, SafeBrowsingService};
//! use sb_server::SafeBrowsingServer;
//!
//! let server = SafeBrowsingServer::with_standard_lists(Provider::Yandex);
//! let digest = server
//!     .blacklist_url("ydx-phish-shavar", "http://phishing.example/login")
//!     .unwrap();
//! let response = server
//!     .full_hashes(&FullHashRequest::new(vec![digest.prefix32()]))
//!     .unwrap();
//! assert!(response.contains_digest(&digest));
//! assert_eq!(server.query_log().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blacklist;
mod chaos;
mod journal;
mod log;
mod observe;
mod server;
mod sharded;
mod tcp;

pub use blacklist::{Blacklist, PrefixDigestHistogram};
pub use chaos::{ChaosProxy, ChaosSchedule, ChaosStats, Fault};
pub use journal::{ChunkJournal, JournalStats};
pub use log::{LoggedRequest, QueryLog};
pub use observe::{ObservationLog, ObservedRequest, ObservingService};
pub use server::{SafeBrowsingServer, ServerError, DEFAULT_NEXT_UPDATE_SECONDS};
pub use sharded::{FleetStats, HealthPolicy, ShardHandle, ShardService, ShardedProvider};
pub use tcp::{DynService, TcpServingTier, TierConfig, WireStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SafeBrowsingServer>();
        assert_send_sync::<Blacklist>();
        assert_send_sync::<QueryLog>();
    }
}
