//! The discrete-event simulation engine.
//!
//! One binary heap of `(virtual ms, sequence, event)` drives the whole
//! fleet; every random draw is a pure function of `(seed, stream, index)`,
//! so the trace — and therefore the report — is a pure function of the
//! [`FleetConfig`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sb_analysis::tracking::tracking_prefixes;
use sb_analysis::{ClientTrackingOutcome, PopulationTracking, TrackingSystem};
use sb_client::{
    ClientConfig, DeterministicDummiesShaper, DriverPolicy, ExactShaper, InProcessTransport,
    LocalDatabase, OnePrefixAtATimeShaper, PaddedBucketShaper, QueryShaper, SafeBrowsingClient,
    UpdateDriver,
};
use sb_corpus::{BrowsingProfile, CorpusConfig, ProfileSampler, WebCorpus};
use sb_hash::{Prefix, PrefixLen};
use sb_protocol::{ClientCookie, Provider, SafeBrowsingService, UpdateRequest, VirtualClock};
use sb_server::{ObservationLog, ObservingService, SafeBrowsingServer, ShardedProvider};
use sb_store::{GenerationalStore, StoreBackend};
use sb_telemetry::Telemetry;

use crate::config::FleetConfig;
use crate::report::{CohortReport, EpochJournal, FleetReport, HerdReport};

/// The list every simulated client subscribes to.
const LIST: &str = "goog-malware-shavar";

/// Expressions per add chunk when seeding the blacklist (small enough that
/// the journal holds a realistic chunk count, large enough that seeding a
/// big corpus stays cheap).
const SEED_CHUNK: usize = 64;

/// Herd histogram resolution.
const HERD_BUCKET_MS: u64 = 60_000;

/// Runs one fleet simulation to completion and reports.
///
/// Pure up to the determinism contract: same `config` ⇒ identical
/// [`FleetReport`] (see the crate docs and `tests/fleet.rs`).
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    Simulation::build(config).run()
}

/// Event payload; the enum order only matters as a deterministic tie-break
/// (the schedule sequence number breaks ties first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Provider-side list churn + epoch snapshot refresh.
    Churn,
    /// One update exchange of client `i`.
    Update(u32),
    /// One browsing session of client `i`.
    Session(u32),
}

struct SimClient {
    client: SafeBrowsingClient,
    driver: UpdateDriver,
    profile: BrowsingProfile,
    sessions: u64,
    visited_target: bool,
}

struct Simulation<'a> {
    config: &'a FleetConfig,
    corpus: WebCorpus,
    server: Arc<SafeBrowsingServer>,
    fleet: Arc<ShardedProvider>,
    log: Arc<ObservationLog>,
    tracking: TrackingSystem,
    target_urls: HashSet<String>,
    cohort_labels: Vec<String>,
    refdb: LocalDatabase,
    snapshot: Arc<GenerationalStore>,
    clients: Vec<SimClient>,
    churn_rng: StdRng,
    churn_pool: Vec<Prefix>,
    churn_cursor: usize,
    journal: Vec<EpochJournal>,
    herd_buckets: Vec<u64>,
    // Aggregates.
    events: u64,
    sessions: u64,
    lookups: u64,
    failed_lookups: u64,
    blacklisted_urls: usize,
    corpus_urls: usize,
    digest: u64,
}

impl<'a> Simulation<'a> {
    fn build(config: &'a FleetConfig) -> Self {
        let corpus = WebCorpus::generate(
            &CorpusConfig::alexa_like(config.corpus_hosts, mix2(config.seed, 1))
                .with_page_cap(config.corpus_page_cap),
        );

        let server = Arc::new(
            SafeBrowsingServer::with_standard_lists(Provider::Google)
                .with_next_update_seconds(config.hint_base_seconds)
                .with_next_update_jitter(config.hint_jitter_seconds),
        );

        // Blacklist every Nth corpus URL, in realistic add-chunk batches.
        let mut blacklisted_urls = 0usize;
        let mut batch: Vec<&str> = Vec::with_capacity(SEED_CHUNK);
        for (i, url) in corpus.iter_urls().enumerate() {
            if i % config.blacklist_every == 0 {
                batch.push(url);
            }
            if batch.len() == SEED_CHUNK {
                blacklisted_urls += batch.len();
                server
                    .blacklist_expressions(LIST, batch.drain(..))
                    .expect("standard list exists");
            }
        }
        if !batch.is_empty() {
            blacklisted_urls += batch.len();
            server
                .blacklist_expressions(LIST, batch.drain(..))
                .expect("standard list exists");
        }

        // Bulk random prefixes: the churn removal pool (and the orphan mass
        // a real list mostly consists of, from the client's perspective).
        let mut churn_rng = StdRng::seed_from_u64(mix2(config.seed, 2));
        let churn_pool: Vec<Prefix> = (0..config.bulk_prefixes)
            .map(|_| Prefix::from_u32(churn_rng.gen()))
            .collect();
        server
            .inject_prefixes(LIST, churn_pool.iter().copied())
            .expect("standard list exists");

        // Arm tracking sets on the first suitably-sized corpus sites and
        // deploy them — Section 6.3's provider-as-tracker, at fleet scale.
        let mut tracking = TrackingSystem::new();
        let mut target_urls = HashSet::new();
        for site in corpus.sites() {
            if tracking.targets().len() >= config.tracked_sites {
                break;
            }
            if site.urls().len() < 4 {
                continue;
            }
            let target = &site.urls()[1];
            if let Ok(set) = tracking_prefixes(
                target,
                site.urls().iter().map(String::as_str),
                config.tracking_delta,
            ) {
                tracking.add_target(set);
                target_urls.insert(target.clone());
            }
        }
        tracking
            .deploy(&server, LIST)
            .expect("standard list exists");

        // The reference database: the one full client-side list copy in the
        // whole fleet.  Its frozen snapshots are what every simulated client
        // actually reads (`LocalDatabase::shared_from_snapshot`).
        let mut refdb = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        refdb.subscribe(LIST);
        let response = server
            .update(&UpdateRequest {
                lists: refdb.update_request_lists(),
            })
            .expect("reference update");
        refdb
            .apply_chunks(&response.chunks)
            .expect("reference apply");
        let snapshot = refdb.snapshot();

        let journal = vec![EpochJournal::new(0, server.journal_stats())];

        // All drivers share one virtual clock: nothing reads absolute
        // virtual time, the event heap is the clock that matters.
        let clock = Arc::new(VirtualClock::new());

        // The provider fleet: `shards` replicas over the shared backend,
        // observed per client connection.  It publishes into a telemetry
        // plane stamped by the shared virtual clock, so its registry (and
        // any trace it records) is deterministic by seed like everything
        // else in the run.
        let fleet = Arc::new(
            ShardedProvider::new((0..config.shards).map(|_| server.clone() as _).collect())
                .with_telemetry(Telemetry::with_clock(clock.clone())),
        );
        let log = Arc::new(ObservationLog::new());

        let shapers: Vec<Arc<dyn QueryShaper>> = vec![
            Arc::new(ExactShaper),
            Arc::new(DeterministicDummiesShaper { dummies: 2 }),
            Arc::new(OnePrefixAtATimeShaper),
            Arc::new(PaddedBucketShaper { bucket: 4 }),
        ];
        let cohort_labels: Vec<String> = shapers.iter().map(|s| s.name()).collect();

        let sampler = ProfileSampler::new(&corpus, mix2(config.seed, 3));
        let boot_snapshot = Arc::new(GenerationalStore::build(
            StoreBackend::Indexed,
            PrefixLen::L32,
            std::iter::empty(),
        ));

        let mut clients = Vec::with_capacity(config.clients);
        for id in 0..config.clients as u64 {
            let shaper = shapers[(id as usize) % shapers.len()].clone();
            let client_config = ClientConfig::subscribed_to([LIST])
                .with_cookie(ClientCookie::new(id))
                .with_shaper_arc(shaper);
            let tap = Arc::new(ObservingService::attach(fleet.clone(), log.clone()));
            let client = SafeBrowsingClient::with_shared_database(
                client_config,
                boot_snapshot.clone(),
                InProcessTransport::new(tap),
            );
            let driver =
                UpdateDriver::with_policy_and_clock(DriverPolicy::default(), clock.clone());
            clients.push(SimClient {
                client,
                driver,
                profile: sampler.profile_for(id),
                sessions: 0,
                visited_target: false,
            });
        }

        let horizon_ms = config.horizon.as_millis() as u64;
        let herd_buckets = vec![0u64; (horizon_ms / HERD_BUCKET_MS + 1) as usize];

        Simulation {
            config,
            corpus_urls: 0, // set in run() once iter_urls has been sized
            corpus,
            server,
            fleet,
            log,
            tracking,
            target_urls,
            cohort_labels,
            refdb,
            snapshot,
            clients,
            churn_rng,
            churn_pool,
            churn_cursor: 0,
            journal,
            herd_buckets,
            events: 0,
            sessions: 0,
            lookups: 0,
            failed_lookups: 0,
            blacklisted_urls,
            digest: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    fn run(mut self) -> FleetReport {
        self.corpus_urls = self.corpus.total_urls();
        let horizon_ms = self.config.horizon.as_millis() as u64;
        let session_gap_ms = self.config.session_gap.as_millis() as u64;
        let churn_period_ms = self.config.churn_period.as_millis() as u64;

        let mut heap: BinaryHeap<Reverse<(u64, u64, EventKind)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut schedule = |heap: &mut BinaryHeap<_>, at: u64, kind: EventKind| {
            if at <= horizon_ms {
                heap.push(Reverse((at, seq, kind)));
                seq += 1;
            }
        };

        // Cold boot: every client's first update lands inside the first
        // virtual minute — the thundering herd, by construction.  First
        // sessions spread over one session gap.
        let seed = self.config.seed;
        for id in 0..self.clients.len() as u64 {
            schedule(
                &mut heap,
                mix3(seed, 4, id) % 60_000,
                EventKind::Update(id as u32),
            );
            schedule(
                &mut heap,
                mix3(seed, 5, id) % session_gap_ms.max(1),
                EventKind::Session(id as u32),
            );
        }
        if churn_period_ms > 0 {
            schedule(&mut heap, churn_period_ms, EventKind::Churn);
        }

        while let Some(Reverse((at, _, kind))) = heap.pop() {
            self.events += 1;
            match kind {
                EventKind::Update(id) => {
                    let (next_at, fold) = self.handle_update(at, id);
                    self.fold(fold);
                    schedule(&mut heap, next_at, EventKind::Update(id));
                }
                EventKind::Session(id) => {
                    let fold = self.handle_session(id);
                    self.fold([at, 2, u64::from(id), fold[0], fold[1]]);
                    let gap = session_gap_ms / 2
                        + mix3(
                            seed ^ 0x5e55,
                            u64::from(id),
                            self.clients[id as usize].sessions,
                        ) % session_gap_ms.max(1);
                    schedule(&mut heap, at + gap, EventKind::Session(id));
                }
                EventKind::Churn => {
                    let live = self.handle_churn(at);
                    self.fold([at, 3, 0, live, self.snapshot.generation()]);
                    schedule(&mut heap, at + churn_period_ms, EventKind::Churn);
                }
            }
        }

        self.finish()
    }

    /// One update exchange of client `id`; returns the virtual time of the
    /// client's next update and the digest fold for this event.
    fn handle_update(&mut self, at: u64, id: u32) -> (u64, [u64; 5]) {
        let bucket = (at / HERD_BUCKET_MS) as usize;
        if let Some(slot) = self.herd_buckets.get_mut(bucket) {
            *slot += 1;
        }
        let sc = &mut self.clients[id as usize];
        let applied = sc.driver.run_round(&mut sc.client).unwrap_or(0) as u64;
        // The epoch snapshot travels with the update: lookups now see the
        // prefixes this exchange's chunk state corresponds to.
        sc.client.rebind_shared_snapshot(self.snapshot.clone());
        let delay = sc
            .driver
            .stats()
            .last_delay
            .unwrap_or(self.config.session_gap)
            .as_millis() as u64;
        (
            at + delay.max(1_000),
            [at, 1, u64::from(id), applied, delay],
        )
    }

    /// One browsing session of client `id`; returns `[urls, malicious]`
    /// for the digest.
    fn handle_session(&mut self, id: u32) -> [u64; 2] {
        let sc = &mut self.clients[id as usize];
        let urls = sc.profile.session_urls(&self.corpus, sc.sessions);
        sc.sessions += 1;
        self.sessions += 1;
        self.lookups += urls.len() as u64;
        if !sc.visited_target {
            sc.visited_target = urls.iter().any(|u| self.target_urls.contains(*u));
        }
        match sc.client.check_urls(&urls) {
            Ok(outcomes) => {
                let malicious = outcomes.iter().filter(|o| o.is_malicious()).count() as u64;
                [urls.len() as u64, malicious]
            }
            Err(_) => {
                self.failed_lookups += 1;
                [urls.len() as u64, u64::MAX]
            }
        }
    }

    /// One provider churn event: inject fresh prefixes, retire old ones,
    /// snapshot the journal and publish the next epoch snapshot.
    fn handle_churn(&mut self, at: u64) -> u64 {
        let adds: Vec<Prefix> = (0..self.config.churn_adds)
            .map(|_| Prefix::from_u32(self.churn_rng.gen()))
            .collect();
        self.server
            .inject_prefixes(LIST, adds.iter().copied())
            .expect("standard list exists");
        self.churn_pool.extend(adds);

        let take = self
            .config
            .churn_subs
            .min(self.churn_pool.len().saturating_sub(self.churn_cursor));
        if take > 0 {
            let retired = self.churn_pool[self.churn_cursor..self.churn_cursor + take].to_vec();
            self.churn_cursor += take;
            self.server
                .remove_prefixes(LIST, retired)
                .expect("standard list exists");
        }

        let response = self
            .server
            .update(&UpdateRequest {
                lists: self.refdb.update_request_lists(),
            })
            .expect("reference update");
        self.refdb
            .apply_chunks(&response.chunks)
            .expect("reference apply");
        self.snapshot = self.refdb.snapshot();

        let stats = self.server.journal_stats();
        let live = stats.live_prefixes as u64;
        self.journal.push(EpochJournal::new(at / 1000, stats));
        live
    }

    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            for byte in word.to_le_bytes() {
                self.digest ^= u64::from(byte);
                self.digest = self.digest.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    fn finish(self) -> FleetReport {
        let Simulation {
            config,
            corpus,
            server: _,
            fleet,
            log,
            tracking,
            target_urls: _,
            cohort_labels,
            refdb: _,
            snapshot: _,
            clients,
            journal,
            herd_buckets,
            events,
            sessions,
            lookups,
            failed_lookups,
            blacklisted_urls,
            corpus_urls,
            digest,
            ..
        } = self;

        // Population-level tracking outcomes, per shaper cohort.
        let mut population = PopulationTracking::new();
        let mut urls_flagged = 0u64;
        let mut local_hit_lookups = 0u64;
        let mut full_hash_round_trips = 0u64;
        let mut prefixes_revealed = 0u64;
        let mut dummy_prefixes = 0u64;
        let mut update_failures = 0u64;
        for (i, sc) in clients.iter().enumerate() {
            let metrics = sc.client.metrics();
            urls_flagged += metrics.urls_flagged as u64;
            local_hit_lookups += metrics.local_hits as u64;
            full_hash_round_trips += metrics.full_hash_round_trips as u64;
            prefixes_revealed += metrics.prefixes_sent as u64;
            dummy_prefixes += metrics.dummy_prefixes_sent as u64;
            update_failures += sc.driver.stats().update_failures as u64;
            let exposures = tracking.detect_ledger_exposures(sc.client.disclosure_ledger(), 2);
            population.record(ClientTrackingOutcome {
                shaper: cohort_labels[i % cohort_labels.len()].clone(),
                visited_target: sc.visited_target,
                exposures,
            });
        }
        let trackers: BTreeMap<String, CohortReport> = population
            .cohorts()
            .iter()
            .map(|(label, cohort)| (label.clone(), CohortReport::from_cohort(cohort)))
            .collect();

        // The provider's own view over its query log.
        let query_log = log.query_log();
        let provider_detected_visits = tracking.detect_visits(&query_log, 2).len();
        let provider_detected_clients = tracking.visits_per_client(&query_log, 2).len();

        let fleet_stats = fleet.stats();
        let update_exchanges = log.update_exchanges() as u64;
        let full_hash_requests = log.len() as u64;
        let horizon_seconds = config.horizon.as_secs();
        let provider_qps =
            (update_exchanges + full_hash_requests) as f64 / horizon_seconds.max(1) as f64;

        FleetReport {
            clients: config.clients,
            seed: config.seed,
            shards: config.shards,
            horizon_seconds,
            hint_base_seconds: config.hint_base_seconds,
            hint_jitter_seconds: config.hint_jitter_seconds,
            corpus_hosts: corpus.sites().len(),
            corpus_urls,
            blacklisted_urls,
            tracked_targets: tracking.targets().len(),
            events,
            sessions,
            lookups,
            failed_lookups,
            urls_flagged,
            local_hit_lookups,
            update_exchanges,
            update_failures,
            full_hash_requests,
            full_hash_round_trips,
            prefixes_revealed,
            dummy_prefixes,
            provider_qps,
            requests_routed: fleet_stats.requests_routed,
            degraded_requests: fleet_stats.degraded_requests,
            journal,
            herd: HerdReport::from_buckets(HERD_BUCKET_MS / 1000, herd_buckets),
            trackers,
            provider_detected_visits,
            provider_detected_clients,
            trace_digest: digest,
        }
    }
}

/// splitmix64-style two-word mix.
fn mix2(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Three-word mix: a per-`(stream, index)` draw from the root seed.
fn mix3(seed: u64, stream: u64, index: u64) -> u64 {
    mix2(mix2(seed, stream), index)
}
