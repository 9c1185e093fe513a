//! The Safe Browsing client and its lookup flow (Figure 3 of the paper).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use sb_hash::{digest_url, Digest, Prefix, PrefixLen};
use sb_protocol::{
    ClientCookie, DeadlineBudget, FullHashRequest, ListName, SafeBrowsingService, ServiceError,
    UpdateRequest,
};
use sb_store::{PrefixStore, StoreBackend};
use sb_telemetry::{Telemetry, TraceKind};
use sb_url::{visit_decompositions, CanonicalUrl, DecomposeScratch, ParseUrlError};

use crate::cache::FullHashCache;
use crate::database::LocalDatabase;
use crate::ledger::{DisclosureGroup, DisclosureLedger, DisclosureRecord};
use crate::metrics::{ClientHandles, ClientMetrics};
use crate::shaper::{ExactShaper, PlannedRequest, QueryShaper, ShaperHit};
use crate::transport::{InProcessTransport, Transport};

/// Configuration of a [`SafeBrowsingClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Local database backend (Chromium's default is the delta-coded table).
    pub backend: StoreBackend,
    /// Prefix length stored locally (32 bits for the deployed services).
    pub prefix_len: PrefixLen,
    /// The Safe Browsing cookie attached to full-hash requests, if any.
    /// Browsers cannot disable it (Section 2.2.3).
    pub cookie: Option<ClientCookie>,
    /// The query shaper deciding how local hits are revealed to the
    /// provider (Section 8).  The default [`ExactShaper`] reproduces the
    /// deployed services' behaviour (everything coalesced into one
    /// request).
    pub shaper: Arc<dyn QueryShaper>,
    /// Lists the client subscribes to.
    pub lists: Vec<ListName>,
    /// End-to-end deadline for one lookup (or one batched lookup): every
    /// full-hash round trip a `check_*` call performs — including all
    /// retries and backoff sleeps of a budget-aware transport stack —
    /// draws down this one budget.  `None` (the default) leaves each
    /// transport layer on its own fixed timeouts.
    pub lookup_budget: Option<Duration>,
    /// The telemetry plane the client publishes `client.*` metrics and
    /// lookup/update trace events into.  `None` (the default) gives the
    /// client a private plane, preserving per-instance
    /// [`SafeBrowsingClient::metrics`] semantics; pass a shared
    /// [`Telemetry`] to aggregate a whole stack (or fleet) into one
    /// scrapeable registry.
    pub telemetry: Option<Telemetry>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            backend: StoreBackend::DeltaCoded,
            prefix_len: PrefixLen::L32,
            cookie: None,
            shaper: Arc::new(ExactShaper),
            lists: Vec::new(),
            lookup_budget: None,
            telemetry: None,
        }
    }
}

impl ClientConfig {
    /// Convenience: default configuration subscribed to the given lists.
    pub fn subscribed_to<I, S>(lists: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<ListName>,
    {
        ClientConfig {
            lists: lists.into_iter().map(Into::into).collect(),
            ..ClientConfig::default()
        }
    }

    /// Sets the client cookie.
    pub fn with_cookie(mut self, cookie: ClientCookie) -> Self {
        self.cookie = Some(cookie);
        self
    }

    /// Sets the query shaper.
    ///
    /// # Examples
    ///
    /// ```
    /// use sb_client::{ClientConfig, PaddedBucketShaper};
    ///
    /// let config = ClientConfig::subscribed_to(["goog-malware-shavar"])
    ///     .with_shaper(PaddedBucketShaper { bucket: 4 });
    /// assert_eq!(config.shaper.name(), "padded-bucket(4)");
    /// ```
    pub fn with_shaper(mut self, shaper: impl QueryShaper + 'static) -> Self {
        self.shaper = Arc::new(shaper);
        self
    }

    /// Sets an already-shared query shaper (e.g. one `Arc` reused across a
    /// fleet of clients).
    pub fn with_shaper_arc(mut self, shaper: Arc<dyn QueryShaper>) -> Self {
        self.shaper = shaper;
        self
    }

    /// Sets the local database backend.
    pub fn with_backend(mut self, backend: StoreBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Gives every lookup (single or batched) one end-to-end
    /// [`DeadlineBudget`](sb_protocol::DeadlineBudget): budget-aware
    /// transports (`TcpTransport`, `RetryingTransport`) derive their
    /// per-attempt timeouts from what remains and stop retrying when it is
    /// spent.
    pub fn with_lookup_budget(mut self, budget: Duration) -> Self {
        self.lookup_budget = Some(budget);
        self
    }

    /// Publishes the client's `client.*` metrics and lookup/update trace
    /// events into a shared [`Telemetry`] plane; see
    /// [`ClientConfig::telemetry`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Errors surfaced by the URL-level client entry points: either the URL is
/// unusable locally, or the provider exchange failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The URL could not be canonicalized; nothing was sent.
    Url(ParseUrlError),
    /// The transport/provider failed the exchange.
    Service(ServiceError),
}

impl From<ParseUrlError> for ClientError {
    fn from(error: ParseUrlError) -> Self {
        ClientError::Url(error)
    }
}

impl From<ServiceError> for ClientError {
    fn from(error: ServiceError) -> Self {
        ClientError::Service(error)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Url(error) => write!(f, "invalid URL: {error}"),
            ClientError::Service(error) => write!(f, "service failure: {error}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Url(error) => Some(error),
            ClientError::Service(error) => Some(error),
        }
    }
}

/// Outcome of a URL lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// No decomposition prefix matched the local database: the URL is safe
    /// and nothing was sent to the provider.
    Safe,
    /// At least one prefix matched locally, but the provider returned no
    /// matching full digest: a false positive (or an orphan prefix).
    SafeAfterConfirmation {
        /// The decomposition expressions whose prefixes matched locally.
        matched_decompositions: Vec<String>,
    },
    /// The provider confirmed at least one decomposition as blacklisted.
    Malicious {
        /// The confirmed decomposition expressions, with the lists that
        /// blacklist them.
        matches: Vec<ConfirmedMatch>,
    },
}

impl LookupOutcome {
    /// True when the URL should trigger a warning page.
    pub fn is_malicious(&self) -> bool {
        matches!(self, LookupOutcome::Malicious { .. })
    }

    /// True when the lookup completed without contacting the provider.
    pub fn was_resolved_locally(&self) -> bool {
        matches!(self, LookupOutcome::Safe)
    }
}

/// One decomposition confirmed as blacklisted by the provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmedMatch {
    /// The blacklisted decomposition expression (e.g. `evil.example/`).
    pub expression: String,
    /// The lists containing its full digest.
    pub lists: Vec<ListName>,
}

/// A Safe Browsing client implementing the lookup flow of Figure 3.
///
/// The client *owns* its provider connection as a boxed
/// [`Transport`] handle: construct it over an in-process provider with
/// [`SafeBrowsingClient::in_process`], or pass any transport (e.g. a
/// [`SimulatedTransport`](crate::SimulatedTransport) for failure scenarios)
/// to [`SafeBrowsingClient::new`].  All provider exchanges are fallible.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sb_client::{ClientConfig, SafeBrowsingClient};
/// use sb_protocol::{Provider, ThreatCategory};
/// use sb_server::SafeBrowsingServer;
///
/// let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
/// server.create_list("goog-malware-shavar", ThreatCategory::Malware);
/// server.blacklist_url("goog-malware-shavar", "http://evil.example/bad.html").unwrap();
///
/// let mut client = SafeBrowsingClient::in_process(
///     ClientConfig::subscribed_to(["goog-malware-shavar"]),
///     server.clone(),
/// );
/// client.update().unwrap();
///
/// assert!(client.check_url("http://evil.example/bad.html").unwrap().is_malicious());
/// assert!(!client.check_url("http://benign.example/").unwrap().is_malicious());
///
/// // Batched checking coalesces all cache misses into one round trip.
/// let outcomes = client
///     .check_urls(&["http://evil.example/bad.html", "http://also-benign.example/"])
///     .unwrap();
/// assert!(outcomes[0].is_malicious());
/// assert!(!outcomes[1].is_malicious());
/// ```
#[derive(Debug)]
pub struct SafeBrowsingClient {
    config: ClientConfig,
    database: LocalDatabase,
    cache: FullHashCache,
    transport: Box<dyn Transport>,
    /// The telemetry plane (shared when configured, private otherwise) and
    /// the registered `client.*` metric handles backing
    /// [`Self::metrics`].
    telemetry: Telemetry,
    handles: ClientHandles,
    /// Everything this client has revealed to the provider, request group
    /// by request group (see [`DisclosureLedger`]).
    ledger: DisclosureLedger,
    /// Per-client scratch buffers reused across lookups: a locally-resolved
    /// lookup (no database hit) performs zero heap allocations once these
    /// have warmed up.
    scratch: LookupScratch,
}

/// Reusable lookup state (see [`SafeBrowsingClient::check_canonical`]).
#[derive(Debug, Default)]
struct LookupScratch {
    decompose: DecomposeScratch,
    hits: Vec<LocalHit>,
}

/// One decomposition whose prefix matched the local database, with its
/// digest computed exactly once for the whole lookup.
#[derive(Debug, Clone)]
struct LocalHit {
    expression: String,
    digest: Digest,
    domain_root: bool,
}

impl SafeBrowsingClient {
    /// Creates a client from a configuration and an owned transport handle.
    pub fn new(config: ClientConfig, transport: impl Transport + 'static) -> Self {
        let mut database = LocalDatabase::new(config.backend, config.prefix_len);
        for list in &config.lists {
            database.subscribe(list.clone());
        }
        let telemetry = config.telemetry.clone().unwrap_or_default();
        let handles = ClientHandles::register(&telemetry);
        SafeBrowsingClient {
            config,
            database,
            cache: FullHashCache::new(),
            transport: Box::new(transport),
            telemetry,
            handles,
            ledger: DisclosureLedger::new(),
            scratch: LookupScratch::default(),
        }
    }

    /// Convenience: a client talking in-process to a shared
    /// [`SafeBrowsingService`] implementation (typically an
    /// `Arc<SafeBrowsingServer>`).
    pub fn in_process<S>(config: ClientConfig, service: Arc<S>) -> Self
    where
        S: SafeBrowsingService + Send + Sync + std::fmt::Debug + 'static,
    {
        Self::new(config, InProcessTransport::new(service))
    }

    /// Simulation-friendly construction: a client whose local database
    /// *shares* a prebuilt query snapshot instead of owning a master
    /// prefix copy (see [`LocalDatabase::shared_from_snapshot`]).
    ///
    /// The full client pipeline is real — canonicalization, decomposition,
    /// local pass, shaper plan, disclosure ledger, metrics, protocol
    /// updates with genuine per-list chunk state — but the marginal memory
    /// cost per client is a few hundred bytes, which is what lets the
    /// fleet simulation (`sb-sim`) run 10⁵–10⁶ clients in one process.
    /// [`Self::update`] performs the real wire exchange and records held
    /// chunk numbers; the snapshot itself advances only through
    /// [`Self::rebind_shared_snapshot`], driven by whoever owns the
    /// reference database.
    pub fn with_shared_database(
        config: ClientConfig,
        snapshot: Arc<sb_store::GenerationalStore>,
        transport: impl Transport + 'static,
    ) -> Self {
        let mut database =
            LocalDatabase::shared_from_snapshot(config.backend, config.prefix_len, snapshot);
        for list in &config.lists {
            database.subscribe(list.clone());
        }
        let telemetry = config.telemetry.clone().unwrap_or_default();
        let handles = ClientHandles::register(&telemetry);
        SafeBrowsingClient {
            config,
            database,
            cache: FullHashCache::new(),
            transport: Box::new(transport),
            telemetry,
            handles,
            ledger: DisclosureLedger::new(),
            scratch: LookupScratch::default(),
        }
    }

    /// Repoints a shared-database client at a newer donor snapshot and
    /// clears the full-hash cache (the new snapshot may invalidate cached
    /// digests, exactly like an applied update).  See
    /// [`Self::with_shared_database`].
    ///
    /// # Panics
    ///
    /// Panics when the client owns its database (constructed via
    /// [`Self::new`] and friends).
    pub fn rebind_shared_snapshot(&mut self, snapshot: Arc<sb_store::GenerationalStore>) {
        self.database.rebind_snapshot(snapshot);
        self.cache.clear();
    }

    /// Convenience: a client whose transport is wrapped in a
    /// [`RetryingTransport`](crate::RetryingTransport) with the given
    /// policy — provider back-off delays are honoured (bounded by the
    /// policy's back-off cap) and transient unavailability is retried with
    /// deterministic jittered exponential fallback before any error
    /// reaches the caller.  Delays run on the real, sleeping
    /// [`SystemClock`](sb_protocol::SystemClock); use
    /// [`RetryingTransport::with_clock`](crate::RetryingTransport::with_clock)
    /// directly to inject a virtual clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sb_client::{ClientConfig, InProcessTransport, RetryPolicy, SafeBrowsingClient};
    /// use sb_protocol::{Provider, ThreatCategory};
    /// use sb_server::SafeBrowsingServer;
    ///
    /// let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    /// server.create_list("goog-malware-shavar", ThreatCategory::Malware);
    /// server.blacklist_url("goog-malware-shavar", "http://evil.example/").unwrap();
    ///
    /// let mut client = SafeBrowsingClient::with_retries(
    ///     ClientConfig::subscribed_to(["goog-malware-shavar"]),
    ///     InProcessTransport::new(server),
    ///     RetryPolicy::default().with_max_attempts(3),
    /// );
    /// client.update().unwrap();
    /// assert!(client.check_url("http://evil.example/a").unwrap().is_malicious());
    /// ```
    pub fn with_retries(
        config: ClientConfig,
        transport: impl Transport + 'static,
        policy: crate::RetryPolicy,
    ) -> Self {
        Self::new(config, crate::RetryingTransport::new(transport, policy))
    }

    /// Fetches and applies a database update from the provider.  Returns the
    /// number of chunks applied.  The full-hash cache is cleared when any
    /// chunk applies, as an update may invalidate cached digests.
    ///
    /// Chunks apply through the database's generational pipeline (hygiene
    /// validation, subs-before-adds ordering, overlay absorption with an
    /// atomically swapped snapshot); see
    /// [`LocalDatabase::apply_chunks`](crate::LocalDatabase::apply_chunks).
    /// The response's `next_update_seconds` schedule hint is recorded in
    /// [`ClientMetrics::next_update_hint`] for update drivers.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the transport, or
    /// [`ServiceError::MalformedResponse`] when the provider's chunks fail
    /// hygiene validation; the local database is left unchanged in either
    /// case.
    pub fn update(&mut self) -> Result<usize, ServiceError> {
        let request = UpdateRequest {
            lists: self.database.update_request_lists(),
        };
        let response = match self.transport.update(&request) {
            Ok(response) => response,
            Err(error) => {
                self.handles.service_errors.inc();
                return Err(error);
            }
        };
        let applied = match self.database.apply_chunks(&response.chunks) {
            Ok(applied) => applied,
            Err(rejected) => {
                self.handles.service_errors.inc();
                return Err(ServiceError::MalformedResponse {
                    reason: rejected.to_string(),
                });
            }
        };
        if applied > 0 {
            self.cache.clear();
        }
        self.handles.updates.inc();
        self.handles.chunks_applied.add(applied as u64);
        self.handles
            .next_update_hint
            .store(Some(response.next_update_seconds));
        let store = self.database.store_stats();
        self.handles
            .deltas_absorbed
            .set(store.deltas_absorbed as i64);
        self.handles.store_rebuilds.set(store.rebuilds as i64);
        self.telemetry.event(TraceKind::Update, applied as u64);
        Ok(applied)
    }

    /// Checks a URL against the local database and, if needed, the provider
    /// (the complete client flow of Figure 3).
    ///
    /// # Errors
    ///
    /// [`ClientError::Url`] when the URL cannot be canonicalized (nothing is
    /// sent), [`ClientError::Service`] when the full-hash exchange fails.
    pub fn check_url(&mut self, url: &str) -> Result<LookupOutcome, ClientError> {
        let canonical = CanonicalUrl::parse(url)?;
        Ok(self.check_canonical(&canonical)?)
    }

    /// Checks an already-canonicalized URL.
    ///
    /// This is the zero-allocation entry point of the hot path: the
    /// decomposition → SHA-256 → prefix-membership pipeline runs entirely in
    /// per-client scratch buffers, so a lookup that resolves locally (no
    /// database hit — the overwhelmingly common case) performs **zero heap
    /// allocations** once the buffers have warmed up.  Only lookups whose
    /// prefixes hit the local database allocate (to carry expressions and
    /// build the verdict).
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from the full-hash exchange.
    pub fn check_canonical(&mut self, url: &CanonicalUrl) -> Result<LookupOutcome, ServiceError> {
        let started = self.telemetry.now();
        self.handles.lookups.inc();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.hits.clear();
        Self::collect_local_hits(
            &self.database,
            self.config.prefix_len,
            url,
            &mut scratch.decompose,
            &mut scratch.hits,
        );

        if scratch.hits.is_empty() {
            self.scratch = scratch;
            // Still on the zero-allocation path: one histogram record and
            // one pre-allocated ring slot.
            self.note_lookup(started, false);
            return Ok(LookupOutcome::Safe);
        }
        self.handles.local_hits.inc();

        // Resolve the hits through the configured shaper's query plan and
        // the full-hash cache.
        let ranges = [(0usize, scratch.hits.len())];
        let outcome = match self.resolve_shaped(&scratch.hits, &ranges) {
            Ok(()) => {
                let confirmed = self.confirmed_from_cache(&scratch.hits);
                Ok(self.verdict(&scratch.hits, confirmed))
            }
            Err(error) => {
                self.handles.service_errors.inc();
                Err(error)
            }
        };
        self.scratch = scratch;
        self.note_lookup(started, matches!(&outcome, Ok(o) if o.is_malicious()));
        outcome
    }

    /// Closes the books on one lookup: a `client.lookup_ns` histogram
    /// sample (so its count always equals the `client.lookups` counter)
    /// and a [`TraceKind::Lookup`] event whose value is the verdict.
    fn note_lookup(&self, started: Duration, malicious: bool) {
        let elapsed = self.telemetry.now().saturating_sub(started);
        self.handles.lookup_ns.record(elapsed.as_nanos() as u64);
        self.telemetry.event(TraceKind::Lookup, malicious as u64);
    }

    /// Runs the local-database pass for one URL: every decomposition is
    /// hashed exactly once and matching ones are appended to `hits`.
    ///
    /// The database snapshot is loaded **once** per URL (an `Arc` clone —
    /// no allocation) and every decomposition probes that same
    /// generation: one lock acquisition per lookup instead of one per
    /// decomposition, and a mid-lookup update can never split a URL's
    /// probes across two generations.
    fn collect_local_hits(
        database: &LocalDatabase,
        prefix_len: PrefixLen,
        url: &CanonicalUrl,
        decompose_scratch: &mut DecomposeScratch,
        hits: &mut Vec<LocalHit>,
    ) {
        let snapshot = database.snapshot();
        visit_decompositions(url, decompose_scratch, |d| {
            let digest = digest_url(d.expression());
            if snapshot.contains(&digest.prefix(prefix_len)) {
                hits.push(LocalHit {
                    expression: d.expression().to_string(),
                    digest,
                    domain_root: d.is_domain_root(),
                });
            }
        });
    }

    /// Checks a batch of URLs in one pass.  The configured
    /// [`QueryShaper`] plans the wire requests for the whole batch at
    /// once, so shaping and throughput compose instead of conflicting:
    ///
    /// * under the default [`ExactShaper`], every uncached local hit across
    ///   the batch coalesces into **a single full-hash round trip** — the
    ///   high-throughput path for page loads with many subresources and for
    ///   bulk scanning;
    /// * under a privacy shaper, the *per-request* reveal keeps the shape
    ///   the policy demands (e.g. one prefix per request), but independent
    ///   planned requests still share transport round trips — a batch
    ///   under [`OnePrefixAtATimeShaper`](crate::OnePrefixAtATimeShaper)
    ///   costs `max probes per URL` round trips, not `sum`.
    ///
    /// The verdict for each URL is identical to what [`Self::check_url`]
    /// would return (for the adaptive one-prefix-at-a-time shaper, the
    /// malicious/safe classification is identical and the confirmed
    /// matches are a subset).
    ///
    /// # Errors
    ///
    /// [`ClientError::Url`] if any URL fails to canonicalize (nothing is
    /// sent), [`ClientError::Service`] when a full-hash exchange fails (no
    /// further verdicts are produced).
    pub fn check_urls(&mut self, urls: &[&str]) -> Result<Vec<LookupOutcome>, ClientError> {
        let canonicals = urls
            .iter()
            .map(|url| CanonicalUrl::parse(url))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.check_canonicals(&canonicals)?)
    }

    /// Batched variant of [`Self::check_canonical`]; see
    /// [`Self::check_urls`].
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] from a full-hash exchange.
    pub fn check_canonicals(
        &mut self,
        urls: &[CanonicalUrl],
    ) -> Result<Vec<LookupOutcome>, ServiceError> {
        let started = self.telemetry.now();
        self.handles.batched_lookups.inc();

        // Local pass over the whole batch.  Each hit's digest is computed
        // once and carried with its hit record; hits live in one flat
        // scratch vector with per-URL ranges, so safe URLs cost no
        // allocation.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.hits.clear();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(urls.len());
        for url in urls {
            self.handles.lookups.inc();
            let start = scratch.hits.len();
            Self::collect_local_hits(
                &self.database,
                self.config.prefix_len,
                url,
                &mut scratch.decompose,
                &mut scratch.hits,
            );
            let end = scratch.hits.len();
            if end > start {
                self.handles.local_hits.inc();
            }
            ranges.push((start, end));
        }

        // The shaper plans the wire exchange for the whole batch;
        // independent planned requests share round trips.
        if !scratch.hits.is_empty() {
            if let Err(error) = self.resolve_shaped(&scratch.hits, &ranges) {
                self.handles.service_errors.inc();
                self.scratch = scratch;
                // The lookups above were counted, so they get their
                // (amortized) histogram samples and trace events too.
                self.note_batch(started, urls.len(), |_| false);
                return Err(error);
            }
        }

        let mut outcomes = Vec::with_capacity(ranges.len());
        for &(start, end) in &ranges {
            let hits = &scratch.hits[start..end];
            if hits.is_empty() {
                outcomes.push(LookupOutcome::Safe);
                continue;
            }
            let confirmed = self.confirmed_from_cache(hits);
            outcomes.push(self.verdict(hits, confirmed));
        }
        self.scratch = scratch;
        self.note_batch(started, outcomes.len(), |i| outcomes[i].is_malicious());
        Ok(outcomes)
    }

    /// Batched counterpart of [`Self::note_lookup`]: the batch's elapsed
    /// time is amortized over its URLs, one sample and one event per URL.
    fn note_batch(&self, started: Duration, urls: usize, malicious: impl Fn(usize) -> bool) {
        if urls == 0 {
            return;
        }
        let elapsed = self.telemetry.now().saturating_sub(started);
        let per_url = (elapsed / urls as u32).as_nanos() as u64;
        for i in 0..urls {
            self.handles.lookup_ns.record(per_url);
            self.telemetry.event(TraceKind::Lookup, malicious(i) as u64);
        }
    }

    /// Client metrics (requests sent, prefixes revealed, ...) — a
    /// point-in-time view over the `client.*` metrics in the telemetry
    /// registry.
    pub fn metrics(&self) -> ClientMetrics {
        self.handles.view()
    }

    /// The telemetry plane this client publishes into (shared when the
    /// config carried one, private otherwise).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of prefixes in the local database.
    pub fn database_prefix_count(&self) -> usize {
        self.database.prefix_count()
    }

    /// Whether a prefix is present in the local database (used by lookup
    /// previews and by experiments inspecting the client state).
    pub fn database_contains(&self, prefix: &Prefix) -> bool {
        self.database.contains(prefix)
    }

    /// The prefix length stored in the local database.
    pub fn prefix_len(&self) -> PrefixLen {
        self.config.prefix_len
    }

    /// Memory used by the local database's query structure.
    pub fn database_memory_bytes(&self) -> usize {
        self.database.memory_bytes()
    }

    /// A shareable read handle onto the local database's query snapshot:
    /// other threads keep resolving membership against consistent
    /// generations while this client applies updates.
    pub fn database_reader(&self) -> crate::DatabaseReader {
        self.database.reader()
    }

    /// Update-pipeline counters of the local database's store (generation,
    /// overlay absorptions, rebuilds).
    pub fn database_store_stats(&self) -> sb_store::GenerationalStats {
        self.database.store_stats()
    }

    /// The configured cookie, if any.
    pub fn cookie(&self) -> Option<ClientCookie> {
        self.config.cookie
    }

    /// The configured query shaper.
    pub fn shaper(&self) -> &dyn QueryShaper {
        self.config.shaper.as_ref()
    }

    /// The client's disclosure ledger: every prefix revealed to the
    /// provider so far, grouped by wire request — the client-side mirror
    /// of the provider's query log, consumed by
    /// `sb_analysis::PrivacyAdvisor` and
    /// `sb_analysis::TrackingSystem`.
    pub fn disclosure_ledger(&self) -> &DisclosureLedger {
        &self.ledger
    }

    /// Forgets the disclosure history (e.g. after exporting it).
    pub fn clear_disclosure_ledger(&mut self) {
        self.ledger.clear();
    }

    /// The transport handle this client owns.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// Discards the full-hash cache, as a browser does when the cache
    /// lifetime returned by the provider expires.  Subsequent lookups on
    /// previously-resolved prefixes contact the provider again.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    // ---- resolution strategies -------------------------------------------------

    /// Builds the verdict for one URL from its local hits and the confirmed
    /// matches resolved against the cache.
    fn verdict(&mut self, hits: &[LocalHit], confirmed: Vec<ConfirmedMatch>) -> LookupOutcome {
        if confirmed.is_empty() {
            LookupOutcome::SafeAfterConfirmation {
                matched_decompositions: hits.iter().map(|h| h.expression.clone()).collect(),
            }
        } else {
            self.handles.urls_flagged.inc();
            LookupOutcome::Malicious { matches: confirmed }
        }
    }

    /// Resolves a batch of local hits through the configured shaper's
    /// [`QueryPlan`](crate::QueryPlan): builds the shaper's view of the
    /// hits, partitions the planned requests, executes them batch-natively
    /// (unconditional requests in one round trip, cover traffic in one
    /// fire-and-forget round trip, per-URL sequenced requests in waves
    /// with early stop) and records every revealed group in the
    /// [`DisclosureLedger`].  Successful responses land in the full-hash
    /// cache, from which the caller derives verdicts.
    fn resolve_shaped(
        &mut self,
        hits: &[LocalHit],
        ranges: &[(usize, usize)],
    ) -> Result<(), ServiceError> {
        // One deadline budget covers the whole lookup — every wave, every
        // retry, every backoff sleep below draws it down.
        let budget = self.config.lookup_budget.map(DeadlineBudget::new);
        self.resolve_shaped_within(hits, ranges, budget.as_ref())
    }

    fn resolve_shaped_within(
        &mut self,
        hits: &[LocalHit],
        ranges: &[(usize, usize)],
        budget: Option<&DeadlineBudget>,
    ) -> Result<(), ServiceError> {
        // The shaper's view: prefix + provenance, never the full digest.
        let mut shaper_hits: Vec<ShaperHit> = Vec::with_capacity(hits.len());
        for (url, &(start, end)) in ranges.iter().enumerate() {
            for hit in &hits[start..end] {
                let prefix = hit.digest.prefix32();
                shaper_hits.push(ShaperHit {
                    url,
                    prefix,
                    domain_root: hit.domain_root,
                    expression_len: hit.expression.len(),
                    cached: self.cache.is_resolved(&prefix),
                });
            }
        }
        let plan = self.config.shaper.shape(&shaper_hits);
        if plan.requests.is_empty() {
            return Ok(());
        }

        // Which real prefixes are domain roots, for the ledger.
        let domain_roots: HashSet<Prefix> = shaper_hits
            .iter()
            .filter(|h| h.domain_root)
            .map(|h| h.prefix)
            .collect();

        // Partition the plan: unconditional real-bearing requests share
        // one round trip, cover requests one fire-and-forget round trip,
        // per-URL sequenced requests advance in waves.
        let mut unconditional: Vec<PlannedRequest> = Vec::new();
        let mut cover: Vec<PlannedRequest> = Vec::new();
        let mut lanes: Vec<VecDeque<PlannedRequest>> = vec![VecDeque::new(); ranges.len()];
        for request in plan.requests {
            if request.prefixes.is_empty() {
                continue; // the provider rejects empty requests
            }
            match request.serves_url {
                Some(url) if url < lanes.len() => lanes[url].push_back(request),
                Some(_) => continue, // out-of-range lane: drop defensively
                None if request.is_cover() => cover.push(request),
                None => unconditional.push(request),
            }
        }

        let mut record = DisclosureRecord::default();
        let mut outcome = Ok(());
        if !unconditional.is_empty() {
            outcome =
                self.send_round_trip(&unconditional, &domain_roots, &mut record, false, budget);
        }
        if outcome.is_ok() && !cover.is_empty() {
            // Cover traffic cannot fail a lookup whose real exchange
            // succeeded (and its responses are never cached).
            let _ = self.send_round_trip(&cover, &domain_roots, &mut record, true, budget);
        }
        while outcome.is_ok() {
            let mut wave: Vec<PlannedRequest> = Vec::new();
            // Wire prefix sets already queued this wave: a lane whose next
            // probe duplicates one defers to the next wave, when the cache
            // will answer it — the same prefix is never revealed twice.
            let mut queued: HashSet<Vec<Prefix>> = HashSet::new();
            for (url, lane) in lanes.iter_mut().enumerate() {
                let (start, end) = ranges[url];
                while let Some(front) = lane.front() {
                    let decided = hits[start..end]
                        .iter()
                        .any(|h| self.confirm_one(h).is_some());
                    if decided {
                        // Early stop: the URL's verdict is already known,
                        // so the remaining planned probes are never
                        // revealed.
                        lane.clear();
                        break;
                    }
                    // A probe whose real prefixes all resolved meanwhile
                    // (an earlier wave, or another URL's lane) needs no
                    // wire exchange: drop it and reconsider the verdict.
                    if !front.real.is_empty()
                        && front.real.iter().all(|p| self.cache.is_resolved(p))
                    {
                        lane.pop_front();
                        continue;
                    }
                    if queued.contains(&front.prefixes) {
                        break; // defer to the next wave
                    }
                    let request = lane.pop_front().expect("front checked above");
                    queued.insert(request.prefixes.clone());
                    wave.push(request);
                    break;
                }
            }
            if wave.is_empty() {
                break;
            }
            outcome = self.send_round_trip(&wave, &domain_roots, &mut record, false, budget);
        }
        self.ledger.push(record);
        outcome
    }

    /// Sends one transport round trip carrying several planned requests.
    ///
    /// Groups are appended to `record` when the round trip is *attempted*
    /// (the ledger is a conservative bound on disclosure).  For real
    /// requests, responses are cached per request — only the request's
    /// real prefixes, so padding dummies never pollute the cache — and
    /// metrics count on success, matching the legacy accounting.  Cover
    /// round trips (`fire_and_forget`) ignore transport errors and count
    /// unconditionally.
    fn send_round_trip(
        &mut self,
        requests: &[PlannedRequest],
        domain_roots: &HashSet<Prefix>,
        record: &mut DisclosureRecord,
        fire_and_forget: bool,
        budget: Option<&DeadlineBudget>,
    ) -> Result<(), ServiceError> {
        let wire: Vec<FullHashRequest> = requests
            .iter()
            .map(|r| {
                let request = FullHashRequest::new(r.prefixes.clone());
                match self.config.cookie {
                    Some(cookie) => request.with_cookie(cookie),
                    None => request,
                }
            })
            .collect();
        for request in requests {
            record.groups.push(DisclosureGroup {
                prefixes: request.prefixes.clone(),
                real: request.real.clone(),
                domain_root_revealed: request.real.iter().any(|p| domain_roots.contains(p)),
            });
        }
        self.handles.full_hash_round_trips.inc();
        if fire_and_forget {
            for request in requests {
                self.handles.requests_sent.inc();
                self.handles
                    .prefixes_sent
                    .add(request.prefixes.len() as u64);
                self.handles
                    .dummy_prefixes_sent
                    .add(request.dummy_count() as u64);
            }
            let _ = match budget {
                Some(budget) => self.transport.full_hashes_batch_within(&wire, budget),
                None => self.transport.full_hashes_batch(&wire),
            };
            return Ok(());
        }
        let responses = match budget {
            Some(budget) => self.transport.full_hashes_batch_within(&wire, budget)?,
            None => self.transport.full_hashes_batch(&wire)?,
        };
        if responses.len() != wire.len() {
            // A miscounted batch is the provider violating the protocol —
            // the non-retryable response-side error, as for malformed
            // update chunks.
            return Err(ServiceError::MalformedResponse {
                reason: format!(
                    "batch contract violated: {} responses for a {}-request batch",
                    responses.len(),
                    wire.len()
                ),
            });
        }
        for (request, response) in requests.iter().zip(&responses) {
            self.cache.store_response(&request.real, response);
            self.handles.requests_sent.inc();
            self.handles
                .prefixes_sent
                .add(request.prefixes.len() as u64);
            self.handles
                .dummy_prefixes_sent
                .add(request.dummy_count() as u64);
        }
        Ok(())
    }

    fn confirmed_from_cache(&self, hits: &[LocalHit]) -> Vec<ConfirmedMatch> {
        hits.iter().filter_map(|h| self.confirm_one(h)).collect()
    }

    fn confirm_one(&self, hit: &LocalHit) -> Option<ConfirmedMatch> {
        let digests = self.cache.digests(&hit.digest.prefix32())?;
        digests.contains(&hit.digest).then(|| ConfirmedMatch {
            expression: hit.expression.clone(),
            // The cache does not retain list provenance; callers needing it
            // can inspect the provider's response directly.  For the client
            // verdict the expression suffices.
            lists: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimulatedTransport;
    use sb_protocol::{Provider, ThreatCategory};
    use sb_server::SafeBrowsingServer;

    #[test]
    fn a_lookup_budget_stops_a_retrying_transport_early() {
        use crate::retry::{RetryPolicy, RetryingTransport};
        use crate::transport::InProcessTransport;
        use sb_protocol::VirtualClock;

        let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();

        let flaky = SimulatedTransport::new(InProcessTransport::new(server.clone()));
        for _ in 0..16 {
            flaky.push_full_hash_fault(ServiceError::Unavailable {
                reason: "down".into(),
            });
        }
        let clock = Arc::new(VirtualClock::new());
        let retrying = RetryingTransport::with_clock(
            flaky,
            RetryPolicy::default()
                .with_max_attempts(10)
                .with_base_delay(Duration::from_secs(60)),
            clock.clone(),
        );
        let mut client = SafeBrowsingClient::new(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_lookup_budget(Duration::from_secs(30)),
            retrying,
        );
        client.update().unwrap();

        // Every full-hash attempt fails; the first backoff delay (60s)
        // already exceeds the 30s lookup budget, so the retry loop stops
        // after one attempt instead of burning through all ten.
        let err = client.check_url("http://evil.example/a").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Service(ServiceError::Unavailable { .. })
        ));
        assert!(clock.total_slept() <= Duration::from_secs(30));
    }

    fn server() -> Arc<SafeBrowsingServer> {
        let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
        server.create_list("goog-malware-shavar", ThreatCategory::Malware);
        server.create_list("googpub-phish-shavar", ThreatCategory::Phishing);
        server
    }

    fn client(server: &Arc<SafeBrowsingServer>) -> SafeBrowsingClient {
        SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar", "googpub-phish-shavar"]),
            server.clone(),
        )
    }

    #[test]
    fn safe_url_never_contacts_the_server() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        let outcome = client.check_url("http://benign.example/page.html").unwrap();
        assert_eq!(outcome, LookupOutcome::Safe);
        assert!(outcome.was_resolved_locally());
        assert_eq!(server.query_log().len(), 0);
        assert_eq!(client.metrics().requests_sent, 0);
    }

    #[test]
    fn blacklisted_domain_flags_all_urls_on_it() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();

        let outcome = client
            .check_url("http://evil.example/any/deep/page.html")
            .unwrap();
        assert!(outcome.is_malicious());
        if let LookupOutcome::Malicious { matches } = outcome {
            assert_eq!(matches.len(), 1);
            assert_eq!(matches[0].expression, "evil.example/");
        }
    }

    #[test]
    fn exact_url_blacklisting_does_not_flag_siblings() {
        let server = server();
        server
            .blacklist_url(
                "goog-malware-shavar",
                "http://site.example/infected/page.html",
            )
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();

        assert!(client
            .check_url("http://site.example/infected/page.html")
            .unwrap()
            .is_malicious());
        assert!(!client
            .check_url("http://site.example/clean/other.html")
            .unwrap()
            .is_malicious());
    }

    #[test]
    fn update_is_incremental() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://one.example/")
            .unwrap();
        let mut client = client(&server);
        assert_eq!(client.update().unwrap(), 1);
        server
            .blacklist_url("goog-malware-shavar", "http://two.example/")
            .unwrap();
        assert_eq!(client.update().unwrap(), 1);
        assert_eq!(client.database_prefix_count(), 2);
        // Nothing new: zero chunks.
        assert_eq!(client.update().unwrap(), 0);
    }

    #[test]
    fn false_positive_is_safe_after_confirmation() {
        let server = server();
        // Inject a bare prefix (orphan) matching a benign URL: local hit,
        // but the server has no full digest for it.
        let prefix = sb_hash::prefix32("innocent.example/");
        server
            .inject_prefixes("goog-malware-shavar", vec![prefix])
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();

        let outcome = client.check_url("http://innocent.example/").unwrap();
        match outcome {
            LookupOutcome::SafeAfterConfirmation {
                matched_decompositions,
            } => {
                assert_eq!(
                    matched_decompositions,
                    vec!["innocent.example/".to_string()]
                );
            }
            other => panic!("expected SafeAfterConfirmation, got {other:?}"),
        }
        assert_eq!(client.metrics().requests_sent, 1);
    }

    #[test]
    fn cache_prevents_repeated_requests() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        client.check_url("http://evil.example/").unwrap();
        client.check_url("http://evil.example/").unwrap();
        client.check_url("http://evil.example/other").unwrap();
        // Only the first lookup for the prefix generates a request; the two
        // later lookups are served from the full-hash cache.
        assert_eq!(server.query_log().len(), 1);
        assert_eq!(client.metrics().requests_sent, 1);
        assert_eq!(client.metrics().lookups, 3);
        assert_eq!(client.metrics().local_hits, 3);
    }

    #[test]
    fn clearing_the_cache_re_contacts_the_provider() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        client.check_url("http://evil.example/").unwrap();
        client.clear_cache();
        client.check_url("http://evil.example/").unwrap();
        assert_eq!(server.query_log().len(), 2);
    }

    #[test]
    fn cookie_is_attached_to_requests() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let cookie = ClientCookie::new(1234);
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"]).with_cookie(cookie),
            server.clone(),
        );
        client.update().unwrap();
        client.check_url("http://evil.example/").unwrap();
        assert_eq!(server.query_log().requests()[0].cookie, Some(cookie));
        assert_eq!(client.cookie(), Some(cookie));
    }

    #[test]
    fn multiple_prefixes_sent_when_multiple_decompositions_hit() {
        let server = server();
        // Blacklist both the domain and a path on it (the multi-prefix
        // situation of Section 6).
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["tracked.example/", "tracked.example/article/"],
            )
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        client
            .check_url("http://tracked.example/article/today.html")
            .unwrap();
        let log = server.query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.requests()[0].prefixes.len(), 2);
    }

    #[test]
    fn dummy_queries_add_requests() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::DeterministicDummiesShaper { dummies: 3 }),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcome = client.check_url("http://evil.example/").unwrap();
        assert!(outcome.is_malicious());
        // 1 real + 3 dummy requests, sharing 2 round trips (real, cover).
        assert_eq!(server.query_log().len(), 4);
        assert_eq!(client.metrics().dummy_prefixes_sent, 3);
        assert_eq!(client.metrics().full_hash_round_trips, 2);
    }

    #[test]
    fn one_prefix_at_a_time_reveals_less() {
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["tracked.example/", "tracked.example/article/"],
            )
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::OnePrefixAtATimeShaper),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcome = client
            .check_url("http://tracked.example/article/today.html")
            .unwrap();
        // The domain root already confirms the URL as malicious, so only one
        // single-prefix request is sent.
        assert!(outcome.is_malicious());
        let log = server.query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.requests()[0].prefixes.len(), 1);
    }

    #[test]
    fn padded_bucket_isolates_prefixes_in_one_round_trip() {
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["tracked.example/", "tracked.example/article/"],
            )
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::PaddedBucketShaper { bucket: 4 }),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcome = client
            .check_url("http://tracked.example/article/today.html")
            .unwrap();
        // Both prefixes resolve (verdict identical to the unshaped path)...
        assert!(outcome.is_malicious());
        if let LookupOutcome::Malicious { matches } = &outcome {
            assert_eq!(matches.len(), 2);
        }
        let log = server.query_log();
        // ...but never together: two padded single-real requests, one
        // transport round trip.
        assert_eq!(log.len(), 2);
        assert!(log.requests().iter().all(|r| r.prefixes.len() == 4));
        assert_eq!(client.metrics().full_hash_round_trips, 1);
        assert_eq!(client.metrics().dummy_prefixes_sent, 6);
        assert_eq!(client.disclosure_ledger().max_real_co_occurrence(), 1);
    }

    #[test]
    fn waves_never_reveal_an_already_resolved_prefix_twice() {
        // Two URLs on one domain hit the same (orphan, so never
        // confirming) domain-root prefix under one-prefix-at-a-time: the
        // second lane must defer to the cache instead of re-sending the
        // prefix the first lane already revealed.
        let server = server();
        server
            .inject_prefixes(
                "goog-malware-shavar",
                vec![sb_hash::prefix32("shared.example/")],
            )
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::OnePrefixAtATimeShaper),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcomes = client
            .check_urls(&["http://shared.example/a", "http://shared.example/b"])
            .unwrap();
        assert!(outcomes.iter().all(|o| !o.is_malicious()));
        // The shared prefix went over the wire exactly once.
        assert_eq!(server.query_log().len(), 1);
        assert_eq!(client.disclosure_ledger().prefixes_revealed(), 1);
    }

    #[test]
    fn disclosure_ledger_mirrors_the_provider_log() {
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["tracked.example/", "tracked.example/article/"],
            )
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();
        assert!(client.disclosure_ledger().is_empty());

        client
            .check_url("http://tracked.example/article/today.html")
            .unwrap();
        client.check_url("http://benign.example/").unwrap();

        let ledger = client.disclosure_ledger();
        assert_eq!(ledger.len(), 1); // the benign lookup revealed nothing
        assert_eq!(ledger.requests_revealed(), 1);
        assert_eq!(ledger.prefixes_revealed(), 2);
        assert_eq!(ledger.max_real_co_occurrence(), 2);
        assert_eq!(ledger.multi_prefix_requests(), 1);
        assert_eq!(ledger.domain_roots_revealed(), 1);
        // Group for group, the ledger matches what the provider logged.
        let log = server.query_log();
        let logged: Vec<Vec<sb_hash::Prefix>> =
            log.requests().iter().map(|r| r.prefixes.clone()).collect();
        let recorded: Vec<Vec<sb_hash::Prefix>> =
            ledger.groups().map(|g| g.prefixes.clone()).collect();
        assert_eq!(logged, recorded);

        client.clear_disclosure_ledger();
        assert!(client.disclosure_ledger().is_empty());
    }

    #[test]
    fn metrics_accumulate() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        client.check_url("http://evil.example/").unwrap();
        client.check_url("http://benign.example/").unwrap();
        let m = client.metrics();
        assert_eq!(m.lookups, 2);
        assert_eq!(m.local_hits, 1);
        assert_eq!(m.urls_flagged, 1);
        assert_eq!(m.updates, 1);
        assert!(client.database_memory_bytes() > 0);
    }

    #[test]
    fn invalid_url_is_an_error() {
        let server = server();
        let mut client = client(&server);
        let err = client.check_url("http:///no-host-here").unwrap_err();
        assert!(matches!(err, ClientError::Url(_)));
    }

    // ---- batched lookups -------------------------------------------------------

    #[test]
    fn check_urls_coalesces_misses_into_one_round_trip() {
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                [
                    "evil.example/",
                    "phish.example/login.html",
                    "tracked.example/",
                ],
            )
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        let outcomes = client
            .check_urls(&[
                "http://evil.example/a.html",
                "http://benign.example/",
                "http://phish.example/login.html",
                "http://tracked.example/deep/page",
                "http://also-benign.example/x",
            ])
            .unwrap();
        assert_eq!(outcomes.len(), 5);
        assert!(outcomes[0].is_malicious());
        assert!(!outcomes[1].is_malicious());
        assert!(outcomes[2].is_malicious());
        assert!(outcomes[3].is_malicious());
        assert!(!outcomes[4].is_malicious());

        // Exactly one full-hash request for the whole batch, carrying the
        // three distinct unresolved prefixes.
        let log = server.query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log.requests()[0].prefixes.len(), 3);
        assert_eq!(client.metrics().requests_sent, 1);
        assert_eq!(client.metrics().batched_lookups, 1);
        assert_eq!(client.metrics().lookups, 5);
    }

    #[test]
    fn check_urls_verdicts_match_check_url() {
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["evil.example/", "site.example/infected/page.html"],
            )
            .unwrap();
        let urls = [
            "http://evil.example/any.html",
            "http://site.example/infected/page.html",
            "http://site.example/clean.html",
            "http://benign.example/",
        ];

        let mut batched = client(&server);
        batched.update().unwrap();
        let batch_outcomes = batched.check_urls(&urls).unwrap();

        let mut sequential = client(&server);
        sequential.update().unwrap();
        let seq_outcomes: Vec<LookupOutcome> = urls
            .iter()
            .map(|u| sequential.check_url(u).unwrap())
            .collect();

        assert_eq!(batch_outcomes, seq_outcomes);
    }

    #[test]
    fn check_urls_with_all_resolved_prefixes_sends_nothing() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        client.check_url("http://evil.example/").unwrap();
        server.clear_query_log();

        let outcomes = client
            .check_urls(&["http://evil.example/", "http://benign.example/"])
            .unwrap();
        assert!(outcomes[0].is_malicious());
        assert_eq!(server.query_log().len(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let server = server();
        let mut client = client(&server);
        client.update().unwrap();
        let outcomes = client.check_urls(&[]).unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(server.query_log().len(), 0);
    }

    #[test]
    fn batched_lookups_respect_the_shaping_policy() {
        // Coalescing a batch under one-prefix-at-a-time would hand the
        // provider the multi-prefix correlation the policy exists to
        // prevent; the shaped batch must keep every wire request
        // single-prefix while still sharing round trips.
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["tracked.example/", "tracked.example/article/"],
            )
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::OnePrefixAtATimeShaper),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcomes = client
            .check_urls(&[
                "http://tracked.example/article/today.html",
                "http://benign.example/",
            ])
            .unwrap();
        assert!(outcomes[0].is_malicious());
        assert!(!outcomes[1].is_malicious());
        // No request ever carried more than one prefix.
        let log = server.query_log();
        assert!(log.requests().iter().all(|r| r.prefixes.len() == 1));
    }

    #[test]
    fn shaped_batches_share_round_trips_across_urls() {
        // Three URLs hit under one-prefix-at-a-time: the first probe of
        // every undecided URL shares one wave round trip, so the batch
        // costs max-probes-per-URL round trips, not one per URL.
        let server = server();
        server
            .blacklist_expressions(
                "goog-malware-shavar",
                ["evil.example/", "phish.example/", "tracked.example/"],
            )
            .unwrap();
        let mut client = SafeBrowsingClient::in_process(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::OnePrefixAtATimeShaper),
            server.clone(),
        );
        client.update().unwrap();
        server.clear_query_log();

        let outcomes = client
            .check_urls(&[
                "http://evil.example/a",
                "http://phish.example/b",
                "http://tracked.example/c",
                "http://benign.example/",
            ])
            .unwrap();
        assert!(outcomes[..3].iter().all(LookupOutcome::is_malicious));
        assert!(!outcomes[3].is_malicious());
        // Three single-prefix wire requests, one transport round trip.
        assert_eq!(server.query_log().len(), 3);
        assert!(server
            .query_log()
            .requests()
            .iter()
            .all(|r| r.prefixes.len() == 1));
        assert_eq!(client.metrics().full_hash_round_trips, 1);
    }

    #[test]
    fn batch_with_an_invalid_url_sends_nothing() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let mut client = client(&server);
        client.update().unwrap();
        server.clear_query_log();

        let err = client
            .check_urls(&["http://evil.example/", "http:///no-host"])
            .unwrap_err();
        assert!(matches!(err, ClientError::Url(_)));
        assert_eq!(server.query_log().len(), 0);
    }

    // ---- failure modes ---------------------------------------------------------

    fn flaky_client(
        server: &Arc<SafeBrowsingServer>,
    ) -> (Arc<SimulatedTransport>, SafeBrowsingClient) {
        let transport = Arc::new(SimulatedTransport::new(InProcessTransport::new(
            server.clone(),
        )));
        let client = SafeBrowsingClient::new(
            ClientConfig::subscribed_to(["goog-malware-shavar"]),
            transport.clone(),
        );
        (transport, client)
    }

    #[test]
    fn update_failure_leaves_database_untouched() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let (transport, mut client) = flaky_client(&server);
        transport.push_update_fault(ServiceError::Backoff {
            retry_after_seconds: 1800,
        });

        let err = client.update().unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(client.database_prefix_count(), 0);
        assert_eq!(client.metrics().updates, 0);
        assert_eq!(client.metrics().service_errors, 1);

        // The retry succeeds and the database catches up.
        assert_eq!(client.update().unwrap(), 1);
        assert_eq!(client.database_prefix_count(), 1);
    }

    #[test]
    fn full_hash_failure_surfaces_and_recovers() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let (transport, mut client) = flaky_client(&server);
        client.update().unwrap();
        transport.push_full_hash_fault(ServiceError::Unavailable {
            reason: "gethash endpoint down".into(),
        });

        let err = client.check_url("http://evil.example/").unwrap_err();
        assert_eq!(
            err,
            ClientError::Service(ServiceError::Unavailable {
                reason: "gethash endpoint down".into()
            })
        );
        assert_eq!(client.metrics().service_errors, 1);

        // Nothing was cached by the failed exchange: the retry contacts the
        // provider and gets the right verdict.
        assert!(client
            .check_url("http://evil.example/")
            .unwrap()
            .is_malicious());
    }

    #[test]
    fn batched_lookup_failure_produces_no_partial_verdicts() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let (transport, mut client) = flaky_client(&server);
        client.update().unwrap();
        transport.push_full_hash_fault(ServiceError::Unavailable {
            reason: "offline".into(),
        });

        let err = client
            .check_urls(&["http://evil.example/", "http://benign.example/"])
            .unwrap_err();
        assert!(matches!(err, ClientError::Service(_)));
        // The batch failed atomically; a retry succeeds end to end.
        let outcomes = client
            .check_urls(&["http://evil.example/", "http://benign.example/"])
            .unwrap();
        assert!(outcomes[0].is_malicious());
        assert!(!outcomes[1].is_malicious());
    }

    #[test]
    fn dummy_query_failures_do_not_fail_the_lookup() {
        let server = server();
        server
            .blacklist_url("goog-malware-shavar", "http://evil.example/")
            .unwrap();
        let transport = Arc::new(SimulatedTransport::new(InProcessTransport::new(
            server.clone(),
        )));
        let mut client = SafeBrowsingClient::new(
            ClientConfig::subscribed_to(["goog-malware-shavar"])
                .with_shaper(crate::DeterministicDummiesShaper { dummies: 2 }),
            transport.clone(),
        );
        client.update().unwrap();
        // First lookup resolves the real prefix into the cache.
        assert!(client
            .check_url("http://evil.example/")
            .unwrap()
            .is_malicious());
        // Second lookup re-sends only the cover volley (one shared round
        // trip); its failure must not fail the cache-served lookup.
        transport.push_full_hash_fault(ServiceError::Unavailable { reason: "x".into() });
        let outcome = client.check_url("http://evil.example/").unwrap();
        assert!(outcome.is_malicious());
        assert_eq!(transport.stats().faults_injected, 1);
    }
}
