//! End-to-end lookup throughput harness — the recorded perf trajectory of
//! the repo (`BENCH_throughput.json`).
//!
//! Loads a 1M-prefix corpus into a simulated provider, drives N concurrent
//! clients over a mixed hit/miss URL workload through the full `Transport`
//! stack (decomposition → SHA-256 → prefix membership → full-hash round
//! trip), per store backend; then re-runs the workload (indexed backend)
//! through the resilience stack: a retrying transport over a flaky path, a
//! sharded provider fleet, and the full stack with one degraded shard.
//!
//! Run: `cargo run --release -p sb-bench --bin throughput` (full corpus) or
//! `--smoke` for the CI-sized run.  `--scenario <name>` restricts the run
//! to one named resilience scenario (`retrying_flaky`, `sharded_fleet`,
//! `resilient_degraded_shard`, `tcp_serving`, `chaos_resilience` or
//! `update_churn`) for quick iteration: only the indexed backend baseline
//! and the named scenario execute, and the shaper sweep and perf-budget
//! sections are skipped (so a filtered `BENCH_throughput.json` is a
//! subset, not a recordable artifact).  Scale knobs:
//! `SB_THROUGHPUT_PREFIXES`, `SB_THROUGHPUT_CLIENTS`, `SB_THROUGHPUT_URLS`
//! (per client), and `SB_THROUGHPUT_OUT` (output path, default
//! `BENCH_throughput.json`).
//!
//! # `BENCH_throughput.json` schema
//!
//! Top level: `bench` (always `"throughput"`), `smoke` (bool), `prefixes`,
//! `clients`, `urls_per_client` (run shape), then two maps:
//!
//! * `backends` — one entry per store backend (`raw`, `delta-coded`,
//!   `indexed`), each with:
//!   * `lookups_per_sec` — aggregate wall-clock throughput across all
//!     clients;
//!   * `p50_ns` / `p99_ns` — per-lookup latency percentiles;
//!   * `allocs_per_lookup` — heap allocations per lookup over the mixed
//!     workload, via a counting global allocator;
//!   * `allocs_per_cache_hit_lookup` — allocations for a lookup answered
//!     entirely from local state (the common case); the zero-alloc
//!     pipeline must report **0** here;
//!   * `database_bytes` — client database memory;
//!   * `urls_flagged` — malicious verdicts over the workload (workload
//!     sanity check).
//! * `scenarios` — resilience/churn/network runs on the indexed backend,
//!   keys `retrying_flaky`, `sharded_fleet`, `resilient_degraded_shard`,
//!   `tcp_serving`, `chaos_resilience` and
//!   `update_churn`, each with `lookups_per_sec`, `p50_ns`, `p99_ns`,
//!   `urls_flagged`, plus the fault accounting: `shards` (fleet width;
//!   1 = no fleet), `faults_injected` (transport faults fired), `retries`
//!   (retry-layer attempts beyond the first), `degraded_requests`
//!   (requests a failed shard answered with fail-open empties) and
//!   `failed_lookups` (lookups that still surfaced an error after
//!   retries — expected 0 for the recorded scenarios).
//!
//!   `tcp_serving` runs the workload over the real network tier: an
//!   `sb_server::TcpServingTier` (worker-thread pool over a loopback
//!   listener) in front of the provider, every client on a pooled
//!   `sb_client::TcpTransport` under the retry layer, all exchanges as
//!   `sb-wire` frames over kernel sockets.  It carries the wire-level
//!   accounting as extra keys: `connections_opened`/`connections_reused`/
//!   `client_bytes_sent`/`client_bytes_received` (client side, summed over
//!   transports) and `server_connections`/`server_frames_received`/
//!   `server_frames_sent`/`server_bytes_received`/`server_bytes_sent`
//!   (the tier's `WireStats`).
//!
//!   `chaos_resilience` re-runs the network workload with an
//!   `sb_server::ChaosProxy` interposed between every client transport and
//!   the serving tier, injecting a seeded, deterministic wire-fault
//!   schedule (latency, connection resets mid-frame, stalled writes, byte
//!   corruption on both directions, blackholes, slow-drip reads).  Retry
//!   backoff runs on the virtual clock; the only real delays are the ones
//!   the proxy itself injects, so `p99_ns` here is the recorded
//!   p99-under-chaos.  Extra keys: `exchanges` (request frames the proxy
//!   saw), the per-kind fault counters (`delays`, `resets_mid_frame`,
//!   `stalls`, `corrupted_requests`, `corrupted_replies`, `blackholes`,
//!   `slow_drips` — their sum drives `faults_injected`), and
//!   `verdict_parity` (flag count matched the fault-free indexed run —
//!   chaos may slow lookups down but must never change a verdict).
//!   `failed_lookups` must be 0: every palette fault is retryable.
//!
//!   `tcp_serving` and `chaos_resilience` additionally carry a
//!   `telemetry` object: the `sb-telemetry` registry snapshot scraped
//!   **over the wire** (the `TelemetryRequest` admin frame) while the tier
//!   was still serving.  Every layer of those scenarios — the clients
//!   (`client.*`), the retry layer (`retry.*`), the breaker (`breaker.*`,
//!   chaos only), the pooled TCP transports (`tcp_client.*`) and the
//!   serving tier (`wire.*`) — publishes into one shared `Telemetry`
//!   plane, so the block holds `counters`, `gauges` and `histograms`
//!   (log-bucketed, with `count`/`sum`/`p50`/`p90`/`p99`) spanning the
//!   whole stack.  Invariants CI checks on it: the `client.lookup_ns`
//!   histogram count equals the `client.lookups` counter, and the
//!   `retry.round_trip_ns` count (round trips) is at least
//!   `retry.retries`.
//!
//!   `update_churn` measures the generational update pipeline: a writer
//!   thread keeps mutating the provider's list (add + remove batches)
//!   while the clients look up **and** apply periodic updates mid-run.
//!   It carries four extra keys: `updates_applied` (mid-run update
//!   exchanges), `chunks_applied` (journal chunks applied by them),
//!   `deltas_absorbed` (update deltas the stores took on the overlay
//!   path) and `rebuilds` (full store rebuilds an oversized overlay
//!   triggered).
//! * `mitigated_batch` — one entry per query shaper (`exact`,
//!   `dummy-queries(2)`, `one-prefix-at-a-time`, `padded-bucket(4)`):
//!   clients drive the workload through `check_canonicals` in 16-URL
//!   batches with the shaper configured.  Keys: `lookups_per_sec`,
//!   `urls_flagged` (must equal the indexed backend's — shaping never
//!   changes verdicts), `failed_lookups` (expected 0), `round_trips`
//!   (transport round trips), `request_groups` (wire requests, i.e.
//!   distinct revealed groups — a shaped batch still coalesces: at most
//!   one round trip per group, never one per URL),
//!   `round_trips_per_url` and `prefixes_per_url` (total prefixes
//!   revealed, dummies included, per URL checked).
//!
//! * `perf_budget` — the CI perf gate (see the budget constants by
//!   `run_perf_budget`).  `scan_backend` names the dispatched scan kernel
//!   (`avx2` / `sse2` / `scalar`); `measured` holds best-of-N
//!   microbenchmarks of the hot paths: `indexed_lookup_ns` and
//!   `snapshot_lookup_ns` (per-`contains` latency over a mixed probe set
//!   of the indexed table as built by `from_prefixes`, and of a copy of
//!   its bytes loaded by `from_bytes`), `snapshot_load_ms` (`from_bytes`:
//!   full validation of the buffer — O(header + index), so it must not
//!   scale with the row count), `simd_scan_ns` /
//!   `scalar_scan_ns` / `simd_speedup` (the dispatched vs scalar bucket
//!   kernels on one skewed bucket) and `allocs_per_cache_hit_lookup`
//!   (copied from the indexed backend report).  `budgets` holds the
//!   ceilings (and the `simd_speedup_min` floor) the CI gate enforces;
//!   `pass` is the harness's own verdict.
//!
//! All scenario backoff time flows through a `VirtualClock`, so injected
//! faults never inflate the wall-clock numbers with sleeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_client::{
    BreakerPolicy, CircuitBreakerTransport, ClientConfig, DeterministicDummiesShaper, ExactShaper,
    InProcessTransport, OnePrefixAtATimeShaper, PaddedBucketShaper, QueryShaper, RetryPolicy,
    RetryingTransport, SafeBrowsingClient, SimulatedTransport, TcpTransport, TransportService,
};
use sb_hash::{Prefix, PrefixLen};
use sb_protocol::{Provider, ServiceError, ThreatCategory, VirtualClock};
use sb_server::{
    ChaosProxy, ChaosSchedule, Fault, SafeBrowsingServer, ShardHandle, ShardedProvider,
    TcpServingTier, TierConfig,
};
use sb_store::scan::{active_backend, scan_linear, scan_linear_scalar, LINEAR_SCAN_MAX};
use sb_store::{IndexedPrefixTable, PrefixStore, StoreBackend};
use sb_telemetry::{RegistrySnapshot, Telemetry};
use sb_url::CanonicalUrl;

/// A global allocator that counts every allocation (`alloc` + `realloc`),
/// so the harness can attribute heap traffic to lookups.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic increment with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const LIST: &str = "goog-malware-shavar";
/// One URL in `HIT_PERIOD` targets a blacklisted domain.
const HIT_PERIOD: usize = 50;
/// Number of blacklisted (full-digest-backed) expressions hit URLs draw from.
const HIT_EXPRESSIONS: usize = 512;

struct Config {
    smoke: bool,
    prefixes: usize,
    clients: usize,
    urls_per_client: usize,
    out_path: String,
    /// `--scenario <name>`: run only that resilience scenario.
    scenario: Option<String>,
}

impl Config {
    fn from_env_and_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let args: Vec<String> = std::env::args().collect();
        let scenario = args.iter().position(|a| a == "--scenario").map(|at| {
            args.get(at + 1)
                .unwrap_or_else(|| {
                    eprintln!("--scenario requires a scenario name");
                    std::process::exit(2);
                })
                .clone()
        });
        let env_usize = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Config {
            smoke,
            prefixes: env_usize(
                "SB_THROUGHPUT_PREFIXES",
                if smoke { 20_000 } else { 1_000_000 },
            ),
            clients: env_usize("SB_THROUGHPUT_CLIENTS", if smoke { 2 } else { 4 }),
            urls_per_client: env_usize("SB_THROUGHPUT_URLS", if smoke { 2_000 } else { 20_000 }),
            out_path: std::env::var("SB_THROUGHPUT_OUT")
                .unwrap_or_else(|_| "BENCH_throughput.json".to_string()),
            scenario,
        }
    }

    /// Whether scenario `name` should run under the `--scenario` filter.
    fn wants(&self, name: &str) -> bool {
        self.scenario.as_deref().is_none_or(|only| only == name)
    }
}

struct BackendReport {
    backend: StoreBackend,
    lookups_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    allocs_per_lookup: f64,
    allocs_per_cache_hit_lookup: f64,
    database_bytes: usize,
    flagged: usize,
}

/// One resilience-scenario measurement (see the module doc for the JSON
/// schema).
struct ScenarioReport {
    name: &'static str,
    lookups_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
    flagged: usize,
    failed_lookups: usize,
    shards: usize,
    faults_injected: usize,
    retries: usize,
    degraded_requests: usize,
    /// Present only for the `update_churn` scenario.
    churn: Option<ChurnStats>,
    /// Present only for the `tcp_serving` scenario.
    wire: Option<WireReport>,
    /// Present only for the `chaos_resilience` scenario.
    chaos: Option<ChaosReport>,
    /// Present for the network scenarios: the shared registry snapshot
    /// scraped over the TCP admin frame while the tier was serving.
    telemetry: Option<RegistrySnapshot>,
}

/// Fault accounting of the `chaos_resilience` scenario: the proxy's
/// per-kind injection counters plus the verdict-parity check against the
/// fault-free indexed run.
struct ChaosReport {
    exchanges: u64,
    delays: u64,
    resets_mid_frame: u64,
    stalls: u64,
    corrupted_requests: u64,
    corrupted_replies: u64,
    blackholes: u64,
    slow_drips: u64,
    verdict_parity: bool,
}

/// Wire-level accounting of the `tcp_serving` scenario: the client
/// transports' counters summed, plus the serving tier's `WireStats`.
struct WireReport {
    connections_opened: u64,
    connections_reused: u64,
    client_bytes_sent: u64,
    client_bytes_received: u64,
    server_connections: u64,
    server_frames_received: u64,
    server_frames_sent: u64,
    server_bytes_received: u64,
    server_bytes_sent: u64,
}

/// Update-pipeline accounting of the `update_churn` scenario.
struct ChurnStats {
    /// Mid-run update exchanges performed by the clients.
    updates_applied: usize,
    /// Chunks those updates applied.
    chunks_applied: usize,
    /// Update deltas the client stores absorbed on the overlay path.
    deltas_absorbed: usize,
    /// Full store rebuilds triggered by an oversized overlay.
    rebuilds: usize,
}

fn main() {
    let config = Config::from_env_and_args();
    eprintln!(
        "throughput harness: {} prefixes, {} clients x {} URLs{}",
        config.prefixes,
        config.clients,
        config.urls_per_client,
        if config.smoke { " (smoke)" } else { "" }
    );

    let server = build_server(config.prefixes);
    let workload = build_workload(config.clients * config.urls_per_client);

    const SCENARIOS: [&str; 6] = [
        "retrying_flaky",
        "sharded_fleet",
        "resilient_degraded_shard",
        "tcp_serving",
        "chaos_resilience",
        "update_churn",
    ];
    if let Some(only) = &config.scenario {
        if !SCENARIOS.contains(&only.as_str()) {
            eprintln!("unknown scenario {only:?}; valid names: {SCENARIOS:?}");
            std::process::exit(2);
        }
    }

    // Under a `--scenario` filter only the indexed backend runs: it is the
    // baseline every scenario builds on (and the chaos parity reference).
    let backends: Vec<StoreBackend> = if config.scenario.is_some() {
        vec![StoreBackend::Indexed]
    } else {
        vec![
            StoreBackend::Raw,
            StoreBackend::DeltaCoded,
            StoreBackend::Indexed,
        ]
    };
    let reports: Vec<BackendReport> = backends
        .iter()
        .map(|&backend| run_backend(backend, &server, &workload, &config))
        .collect();

    // The fault-free flag count the chaos scenario must reproduce.
    let indexed_flagged = reports
        .iter()
        .find(|r| r.backend == StoreBackend::Indexed)
        .expect("indexed backend measured")
        .flagged;
    let mut scenarios: Vec<ScenarioReport> = Vec::new();
    if config.wants("retrying_flaky") {
        scenarios.push(run_retrying_flaky(&server, &workload, &config));
    }
    if config.wants("sharded_fleet") {
        scenarios.push(run_sharded_fleet(&server, &workload, &config));
    }
    if config.wants("resilient_degraded_shard") {
        scenarios.push(run_resilient_degraded_shard(&server, &workload, &config));
    }
    if config.wants("tcp_serving") {
        scenarios.push(run_tcp_serving(&server, &workload, &config));
    }
    if config.wants("chaos_resilience") {
        scenarios.push(run_chaos_resilience(
            &server,
            &workload,
            &config,
            indexed_flagged,
        ));
    }
    if config.wants("update_churn") {
        scenarios.push(run_update_churn(&server, &workload, &config));
    }

    let shaped = if config.scenario.is_none() {
        run_mitigated_batch(&server, &workload, &config)
    } else {
        Vec::new()
    };

    let perf = if config.scenario.is_none() {
        let indexed_allocs = reports
            .iter()
            .find(|r| r.backend == StoreBackend::Indexed)
            .expect("indexed backend measured")
            .allocs_per_cache_hit_lookup;
        Some(run_perf_budget(&config, indexed_allocs))
    } else {
        None
    };

    let json = render_json(&config, &reports, &scenarios, &shaped, perf.as_ref());
    std::fs::write(&config.out_path, &json).expect("write BENCH_throughput.json");
    eprintln!("wrote {}", config.out_path);
    println!("{json}");
}

/// A provider holding `total` 32-bit prefixes: `HIT_EXPRESSIONS` of them
/// backed by full digests (the workload's hit targets), the rest a random
/// prefix corpus, as a real list mostly is from the client's perspective.
fn build_server(total: usize) -> Arc<SafeBrowsingServer> {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    let expressions: Vec<String> = (0..HIT_EXPRESSIONS.min(total))
        .map(|i| format!("{}/", hit_host(i)))
        .collect();
    server
        .blacklist_expressions(LIST, expressions.iter().map(String::as_str))
        .expect("list exists");

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let bulk: Vec<Prefix> = (0..total.saturating_sub(HIT_EXPRESSIONS))
        .map(|_| Prefix::from_u32(rng.gen()))
        .collect();
    server.inject_prefixes(LIST, bulk).expect("list exists");
    server
}

fn hit_host(i: usize) -> String {
    format!("hit{i}.evil.example")
}

/// Pre-canonicalized mixed workload: every `HIT_PERIOD`-th URL targets a
/// blacklisted domain (with a path, so the lookup exercises several
/// decompositions), the rest are misses over distinct hosts.
fn build_workload(total: usize) -> Vec<CanonicalUrl> {
    (0..total)
        .map(|i| {
            let url = if i % HIT_PERIOD == 0 {
                format!(
                    "http://{}/landing/page{}.html",
                    hit_host((i / HIT_PERIOD) % HIT_EXPRESSIONS),
                    i
                )
            } else {
                format!("http://m{i}.miss.example/content/item{i}.html")
            };
            CanonicalUrl::parse(&url).expect("workload URL parses")
        })
        .collect()
}

fn client_for(backend: StoreBackend, server: &Arc<SafeBrowsingServer>) -> SafeBrowsingClient {
    let mut client = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to([LIST]).with_backend(backend),
        server.clone(),
    );
    client.update().expect("initial update");
    client
}

fn run_backend(
    backend: StoreBackend,
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> BackendReport {
    eprintln!(
        "[{backend}] building {} client database(s)...",
        config.clients
    );
    let mut clients: Vec<SafeBrowsingClient> = (0..config.clients)
        .map(|_| client_for(backend, server))
        .collect();
    let database_bytes = clients[0].database_memory_bytes();

    // ---- timed multi-client phase -----------------------------------------
    let timed = timed_phase(&mut clients, workload, config.urls_per_client);
    assert_eq!(
        timed.failed, 0,
        "lookups must not fail without fault injection"
    );
    let lookups_per_sec = timed.lookups_per_sec;
    let flagged = timed.flagged;
    let percentile = |p: f64| timed.percentile(p);

    // ---- single-threaded allocation accounting ----------------------------
    // Mixed workload: warm one client (resolves full-hash caches and grows
    // the scratch buffers), then count allocations over a second pass.
    let mut probe = client_for(backend, server);
    let sample = &workload[..config.urls_per_client.min(workload.len())];
    for url in sample {
        probe.check_canonical(url).expect("warmup lookup");
    }
    let before = allocations();
    for url in sample {
        probe.check_canonical(url).expect("measured lookup");
    }
    let allocs_per_lookup = (allocations() - before) as f64 / sample.len() as f64;

    // Locally-resolved ("cache-hit") lookup: a URL the database answers
    // without any provider exchange must not allocate at all.
    let safe_url = sample
        .iter()
        .find(|url| {
            probe
                .check_canonical(url)
                .expect("probe lookup")
                .was_resolved_locally()
        })
        .expect("workload contains locally-resolved URLs");
    const CACHE_HIT_ROUNDS: usize = 1000;
    let before = allocations();
    for _ in 0..CACHE_HIT_ROUNDS {
        probe.check_canonical(safe_url).expect("cache-hit lookup");
    }
    let allocs_per_cache_hit_lookup = (allocations() - before) as f64 / CACHE_HIT_ROUNDS as f64;

    let report = BackendReport {
        backend,
        lookups_per_sec,
        p50_ns: percentile(0.50),
        p99_ns: percentile(0.99),
        allocs_per_lookup,
        allocs_per_cache_hit_lookup,
        database_bytes,
        flagged,
    };
    eprintln!(
        "[{backend}] {:.0} lookups/s, p50 {} ns, p99 {} ns, {:.3} allocs/lookup, {:.3} allocs/cache-hit, {} flagged",
        report.lookups_per_sec,
        report.p50_ns,
        report.p99_ns,
        report.allocs_per_lookup,
        report.allocs_per_cache_hit_lookup,
        report.flagged,
    );
    report
}

/// Result of one timed multi-client sweep over the workload.
struct TimedPhase {
    lookups_per_sec: f64,
    /// Merged per-lookup latencies, sorted ascending.
    latencies: Vec<u64>,
    flagged: usize,
    /// Lookups that surfaced a `ServiceError` (only possible under fault
    /// injection).
    failed: usize,
}

impl TimedPhase {
    fn percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let rank = ((self.latencies.len() as f64 - 1.0) * p).round() as usize;
        self.latencies[rank]
    }
}

/// Drives each client over its slice of the workload concurrently,
/// measuring per-lookup latency.  Failed lookups (possible only under
/// fault injection) are counted, not fatal.
fn timed_phase(
    clients: &mut [SafeBrowsingClient],
    workload: &[CanonicalUrl],
    chunk: usize,
) -> TimedPhase {
    let barrier = Barrier::new(clients.len());
    let total_lookups = clients.len() * chunk;
    let started = Instant::now();
    let results: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let slice = &workload[i * chunk..(i + 1) * chunk];
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(slice.len());
                    let mut flagged = 0usize;
                    let mut failed = 0usize;
                    barrier.wait();
                    for url in slice {
                        let start = Instant::now();
                        match client.check_canonical(url) {
                            Ok(outcome) => {
                                if outcome.is_malicious() {
                                    flagged += 1;
                                }
                            }
                            Err(_) => failed += 1,
                        }
                        latencies.push(start.elapsed().as_nanos() as u64);
                    }
                    (latencies, flagged, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies: Vec<u64> = Vec::with_capacity(total_lookups);
    let mut flagged = 0;
    let mut failed = 0;
    for (lat, f, e) in results {
        latencies.extend(lat);
        flagged += f;
        failed += e;
    }
    latencies.sort_unstable();
    TimedPhase {
        lookups_per_sec: total_lookups as f64 / wall.as_secs_f64(),
        latencies,
        flagged,
        failed,
    }
}

/// Fault plan shared by the resilience scenarios: one transport fault
/// every `FAULT_PERIOD` round trips on the flaky path.
const FAULT_PERIOD: usize = 20;

/// Retry-policy clients over a transport handle, each owning its own
/// retry layer (stats handles returned for accounting).
#[allow(clippy::type_complexity)]
fn retrying_clients(
    transport: &Arc<SimulatedTransport>,
    clients: usize,
) -> (
    Vec<Arc<RetryingTransport<Arc<SimulatedTransport>>>>,
    Vec<SafeBrowsingClient>,
) {
    let clock = Arc::new(VirtualClock::new());
    let retrying: Vec<Arc<RetryingTransport<Arc<SimulatedTransport>>>> = (0..clients)
        .map(|_| {
            Arc::new(RetryingTransport::with_clock(
                transport.clone(),
                RetryPolicy::default(),
                clock.clone(),
            ))
        })
        .collect();
    let clients = retrying
        .iter()
        .map(|rt| {
            let mut client = SafeBrowsingClient::new(
                ClientConfig::subscribed_to([LIST]).with_backend(StoreBackend::Indexed),
                rt.clone(),
            );
            client.update().expect("initial update");
            client
        })
        .collect();
    (retrying, clients)
}

fn scenario_report(
    name: &'static str,
    timed: &TimedPhase,
    shards: usize,
    faults_injected: usize,
    retries: usize,
    degraded_requests: usize,
) -> ScenarioReport {
    let report = ScenarioReport {
        name,
        lookups_per_sec: timed.lookups_per_sec,
        p50_ns: timed.percentile(0.50),
        p99_ns: timed.percentile(0.99),
        flagged: timed.flagged,
        failed_lookups: timed.failed,
        shards,
        faults_injected,
        retries,
        degraded_requests,
        churn: None,
        wire: None,
        chaos: None,
        telemetry: None,
    };
    eprintln!(
        "[{name}] {:.0} lookups/s, p50 {} ns, p99 {} ns, {} flagged, {} failed, \
         {} faults, {} retries, {} degraded",
        report.lookups_per_sec,
        report.p50_ns,
        report.p99_ns,
        report.flagged,
        report.failed_lookups,
        report.faults_injected,
        report.retries,
        report.degraded_requests,
    );
    report
}

/// Scenario: the provider path drops every `FAULT_PERIOD`-th round trip;
/// the retry layer absorbs the faults (virtual-clock backoff, so the
/// throughput numbers measure the pipeline, not injected sleeps).
fn run_retrying_flaky(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> ScenarioReport {
    eprintln!("[retrying_flaky] building {} client(s)...", config.clients);
    let flaky = Arc::new(SimulatedTransport::new(InProcessTransport::new(
        server.clone(),
    )));
    let (retrying, mut clients) = retrying_clients(&flaky, config.clients);
    // Start injecting faults only after the setup updates.
    flaky.fail_every(
        FAULT_PERIOD,
        ServiceError::Unavailable {
            reason: "injected".into(),
        },
    );
    let timed = timed_phase(&mut clients, workload, config.urls_per_client);
    let retries = retrying.iter().map(|rt| rt.stats().retries).sum();
    scenario_report(
        "retrying_flaky",
        &timed,
        1,
        flaky.stats().faults_injected,
        retries,
        0,
    )
}

/// Scenario: a healthy `SHARD_COUNT`-shard fleet behind the in-process
/// transport — the load-spread configuration.
fn run_sharded_fleet(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> ScenarioReport {
    const SHARD_COUNT: usize = 4;
    eprintln!("[sharded_fleet] building {} client(s)...", config.clients);
    let fleet = Arc::new(ShardedProvider::new(
        (0..SHARD_COUNT)
            .map(|_| server.clone() as ShardHandle)
            .collect(),
    ));
    let mut clients: Vec<SafeBrowsingClient> = (0..config.clients)
        .map(|_| {
            let mut client = SafeBrowsingClient::in_process(
                ClientConfig::subscribed_to([LIST]).with_backend(StoreBackend::Indexed),
                fleet.clone(),
            );
            client.update().expect("initial update");
            client
        })
        .collect();
    let timed = timed_phase(&mut clients, workload, config.urls_per_client);
    let stats = fleet.stats();
    scenario_report(
        "sharded_fleet",
        &timed,
        SHARD_COUNT,
        0,
        0,
        stats.degraded_requests,
    )
}

/// Scenario: the full resilience stack — retrying clients over a 4-shard
/// fleet with one shard dropping every `FAULT_PERIOD`-th round trip.  A
/// lookup owned by the flaky shard fails its exchange; the retry layer
/// re-sends and the next round trip goes through.
fn run_resilient_degraded_shard(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> ScenarioReport {
    const SHARD_COUNT: usize = 4;
    eprintln!(
        "[resilient_degraded_shard] building {} client(s)...",
        config.clients
    );
    let flaky_shard = Arc::new(SimulatedTransport::new(InProcessTransport::new(
        server.clone(),
    )));
    let mut shards: Vec<ShardHandle> = vec![Arc::new(TransportService::new(flaky_shard.clone()))];
    shards.extend((1..SHARD_COUNT).map(|_| server.clone() as ShardHandle));
    let fleet = Arc::new(ShardedProvider::new(shards));
    let front = Arc::new(SimulatedTransport::new(InProcessTransport::new(
        fleet.clone(),
    )));
    let (retrying, mut clients) = retrying_clients(&front, config.clients);
    flaky_shard.fail_every(
        FAULT_PERIOD,
        ServiceError::Unavailable {
            reason: "injected shard fault".into(),
        },
    );
    let timed = timed_phase(&mut clients, workload, config.urls_per_client);
    let retries = retrying.iter().map(|rt| rt.stats().retries).sum();
    scenario_report(
        "resilient_degraded_shard",
        &timed,
        SHARD_COUNT,
        flaky_shard.stats().faults_injected,
        retries,
        fleet.stats().degraded_requests,
    )
}

/// Scenario: the real network tier.  A `TcpServingTier` (loopback
/// listener and worker-thread pool) fronts the provider; every client runs a pooled
/// `TcpTransport` under the retry layer, so the full stack — decomposition,
/// local check, shaping, retry policy — is exercised over genuine kernel
/// round trips in `sb-wire` frames.  No faults are injected, so
/// `failed_lookups` must be 0 and verdicts must match the in-process runs.
fn run_tcp_serving(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> ScenarioReport {
    eprintln!(
        "[tcp_serving] binding serving tier + {} client(s)...",
        config.clients
    );
    let telemetry = Telemetry::new();
    let tier = TcpServingTier::bind_with_telemetry(
        server.clone(),
        // Pooled client connections stay open for the whole run, and each
        // occupies one worker: size the pool for every client plus slack
        // (the slack worker also serves the mid-run telemetry scrape).
        TierConfig::default().with_workers(config.clients + 1),
        telemetry.clone(),
    )
    .expect("bind TCP serving tier");

    let clock = Arc::new(VirtualClock::new());
    let transports: Vec<Arc<TcpTransport>> = (0..config.clients)
        .map(|_| {
            Arc::new(
                TcpTransport::new(tier.local_addr())
                    .expect("tier address resolves")
                    .with_telemetry(telemetry.clone()),
            )
        })
        .collect();
    let mut clients: Vec<SafeBrowsingClient> = transports
        .iter()
        .map(|transport| {
            let retrying = Arc::new(
                RetryingTransport::with_clock(
                    transport.clone(),
                    RetryPolicy::default(),
                    clock.clone(),
                )
                .with_telemetry(telemetry.clone()),
            );
            let mut client = SafeBrowsingClient::new(
                ClientConfig::subscribed_to([LIST])
                    .with_backend(StoreBackend::Indexed)
                    .with_telemetry(telemetry.clone()),
                retrying,
            );
            client.update().expect("initial update over TCP");
            client
        })
        .collect();

    let timed = timed_phase(&mut clients, workload, config.urls_per_client);

    // Scrape the shared registry over the wire while the tier is still
    // serving: a dedicated admin connection (with its own private
    // telemetry, so the scrape does not perturb the shared counters)
    // sends a `TelemetryRequest` frame and carries the snapshot back.
    let admin = TcpTransport::new(tier.local_addr()).expect("tier address resolves");
    let snapshot = admin.scrape_telemetry().expect("telemetry scrape over TCP");
    let admin_stats = admin.stats();
    drop(admin);
    // Every transport publishes into the one shared registry, so any one
    // transport's `stats()` view already totals all clients' wire traffic —
    // summing the views would multiply-count the shared counters.
    let client_stats = transports[0].stats();

    // Close the pooled client connections, then drain the tier; shutdown
    // joins every worker, so the counters it returns are final.  The
    // admin scrape is not part of the client workload (its transport has
    // private telemetry), so its one connection and exchange are
    // subtracted from the tier's totals to keep the client/server byte
    // parity exact.
    drop(clients);
    drop(transports);
    let mut server_stats = tier.shutdown();
    server_stats.connections_accepted -= 1;
    server_stats.frames_received -= 1;
    server_stats.frames_sent -= 1;
    server_stats.bytes_received -= admin_stats.bytes_sent;
    server_stats.bytes_sent -= admin_stats.bytes_received;

    eprintln!(
        "[tcp_serving] {} conns opened / {} reuses, client {}B out / {}B in; \
         server {} frames in / {} frames out",
        client_stats.connections_opened,
        client_stats.connections_reused,
        client_stats.bytes_sent,
        client_stats.bytes_received,
        server_stats.frames_received,
        server_stats.frames_sent,
    );
    let mut report = scenario_report("tcp_serving", &timed, 1, 0, 0, 0);
    report.wire = Some(WireReport {
        connections_opened: client_stats.connections_opened,
        connections_reused: client_stats.connections_reused,
        client_bytes_sent: client_stats.bytes_sent,
        client_bytes_received: client_stats.bytes_received,
        server_connections: server_stats.connections_accepted,
        server_frames_received: server_stats.frames_received,
        server_frames_sent: server_stats.frames_sent,
        server_bytes_received: server_stats.bytes_received,
        server_bytes_sent: server_stats.bytes_sent,
    });
    report.telemetry = Some(snapshot);
    report
}

/// Seed of the `chaos_resilience` fault schedule.  Chosen offline (by
/// simulating the schedule's splitmix64 draws) so that every palette kind
/// fires within the first ~20 exchanges — even a smoke run records all
/// seven counters non-zero — and the longest run of consecutive faulted
/// exchanges over 100k stays single-digit, far inside the retry budget.
const CHAOS_SEED: u64 = 25;
/// Roughly one exchange in `CHAOS_PERIOD` draws a fault.
const CHAOS_PERIOD: u64 = 3;

/// The `chaos_resilience` fault palette: every kind either completes the
/// exchange (delay, slow-drip) or fails it retryably (reset, stall,
/// corruption on either side, blackhole).  Real delays are kept small —
/// they are the only wall-clock sleeps in the scenario — and the slow-drip
/// chunk is sized so that dripping a full-corpus update reply (megabytes)
/// costs tenths of a second, not minutes.
fn chaos_palette() -> Vec<Fault> {
    vec![
        Fault::Delay(Duration::from_millis(1)),
        Fault::ResetMidFrame,
        Fault::Stall {
            pause: Duration::from_millis(1),
        },
        Fault::CorruptRequest,
        Fault::CorruptReply,
        Fault::Blackhole,
        Fault::SlowDrip {
            chunk: 4096,
            pause: Duration::from_micros(200),
        },
    ]
}

/// Scenario: the network workload under wire chaos.  A `ChaosProxy` sits
/// between every client transport and the serving tier, injecting the
/// seeded fault schedule above; each client runs the full resilience
/// stack — retry layer (virtual-clock backoff) over a circuit breaker
/// over a pooled `TcpTransport`.  The breaker threshold sits far above
/// the schedule's longest fault run: chaos is supposed to degrade the
/// path, not open the breaker.  On record: `failed_lookups: 0` (every
/// fault is retryable) and verdict parity with the fault-free runs.
fn run_chaos_resilience(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
    expected_flagged: usize,
) -> ScenarioReport {
    eprintln!(
        "[chaos_resilience] binding tier + chaos proxy + {} client(s)...",
        config.clients
    );
    let telemetry = Telemetry::new();
    let tier = TcpServingTier::bind_with_telemetry(
        server.clone(),
        TierConfig::default().with_workers(config.clients + 1),
        telemetry.clone(),
    )
    .expect("bind TCP serving tier");
    let proxy = ChaosProxy::start(
        tier.local_addr(),
        ChaosSchedule::seeded(CHAOS_SEED, CHAOS_PERIOD, chaos_palette()),
    )
    .expect("start chaos proxy");

    let clock = Arc::new(VirtualClock::new());
    type ChaosStack = RetryingTransport<CircuitBreakerTransport<TcpTransport>>;
    let retrying: Vec<Arc<ChaosStack>> = (0..config.clients)
        .map(|_| {
            Arc::new(
                RetryingTransport::with_clock(
                    CircuitBreakerTransport::new(
                        TcpTransport::new(proxy.local_addr())
                            .expect("proxy address resolves")
                            .with_telemetry(telemetry.clone()),
                        BreakerPolicy::default().with_failure_threshold(1_000),
                    )
                    .with_telemetry(telemetry.clone()),
                    RetryPolicy::default()
                        .with_max_attempts(16)
                        .with_base_delay(Duration::from_millis(10)),
                    clock.clone(),
                )
                .with_telemetry(telemetry.clone()),
            )
        })
        .collect();
    let mut clients: Vec<SafeBrowsingClient> = retrying
        .iter()
        .map(|rt| {
            let mut client = SafeBrowsingClient::new(
                ClientConfig::subscribed_to([LIST])
                    .with_backend(StoreBackend::Indexed)
                    .with_telemetry(telemetry.clone()),
                rt.clone(),
            );
            client.update().expect("initial update through chaos");
            client
        })
        .collect();

    let timed = timed_phase(&mut clients, workload, config.urls_per_client);

    // Scrape straight off the tier — not through the proxy, so the admin
    // frame cannot draw a fault — while the chaos workload's connections
    // are still pooled.  Every stack shares one plane, so any one stack's
    // `stats()` view already totals all clients (summing the views would
    // multiply-count the shared counters).
    let admin = TcpTransport::new(tier.local_addr()).expect("tier address resolves");
    let snapshot = admin.scrape_telemetry().expect("telemetry scrape over TCP");
    drop(admin);
    let retries = retrying[0].stats().retries;

    // Close the pooled client connections, then drain the proxy and the
    // tier: shutdown joins every connection thread, so the fault counters
    // are final.
    drop(clients);
    drop(retrying);
    let stats = proxy.shutdown();
    tier.shutdown();

    eprintln!(
        "[chaos_resilience] {} exchanges, {} faulted ({} delay / {} reset / {} stall / \
         {} corrupt-req / {} corrupt-reply / {} blackhole / {} slow-drip)",
        stats.exchanges,
        stats.faults_injected,
        stats.delays,
        stats.resets_mid_frame,
        stats.stalls,
        stats.corrupted_requests,
        stats.corrupted_replies,
        stats.blackholes,
        stats.slow_drips,
    );
    let mut report = scenario_report(
        "chaos_resilience",
        &timed,
        1,
        stats.faults_injected as usize,
        retries,
        0,
    );
    report.chaos = Some(ChaosReport {
        exchanges: stats.exchanges,
        delays: stats.delays,
        resets_mid_frame: stats.resets_mid_frame,
        stalls: stats.stalls,
        corrupted_requests: stats.corrupted_requests,
        corrupted_replies: stats.corrupted_replies,
        blackholes: stats.blackholes,
        slow_drips: stats.slow_drips,
        verdict_parity: timed.flagged == expected_flagged,
    });
    report.telemetry = Some(snapshot);
    report
}

/// How many lookups a churn client performs between update exchanges.
const CHURN_UPDATE_PERIOD: usize = 1000;
/// Prefixes per writer add batch (the matching remove batch follows one
/// batch behind, so the provider's list size stays steady).
const CHURN_BATCH: usize = 64;

/// Scenario: the generational update pipeline under churn.  A writer
/// thread keeps mutating the provider's list (inject a random batch,
/// remove the previous one) while every client interleaves lookups with
/// periodic `update()` calls.  Lookups must keep returning correct
/// verdicts mid-update (`urls_flagged` equal to the quiet runs,
/// `failed_lookups: 0`), and the update accounting records how much of
/// the churn the stores absorbed on the overlay path vs consolidated.
fn run_update_churn(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> ScenarioReport {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    eprintln!("[update_churn] building {} client(s)...", config.clients);
    let mut clients: Vec<SafeBrowsingClient> = (0..config.clients)
        .map(|_| client_for(StoreBackend::Indexed, server))
        .collect();
    // Baselines after the setup update: only mid-run work is reported.
    let base_updates: usize = clients.iter().map(|c| c.metrics().updates).sum();
    let base_chunks: usize = clients.iter().map(|c| c.metrics().chunks_applied).sum();
    let base_stats: Vec<_> = clients.iter().map(|c| c.database_store_stats()).collect();

    // The writer must never touch the workload's hit prefixes, or the
    // verdict comparison with the quiet runs would break.
    let hit_prefixes: HashSet<Prefix> = (0..HIT_EXPRESSIONS)
        .map(|i| sb_hash::digest_url(&format!("{}/", hit_host(i))).prefix32())
        .collect();

    // Seed one churn batch *before* the threads start: on a loaded
    // (1-core CI) machine the writer thread can be scheduled so late
    // that every client runs its mid-run update first — this guarantees
    // those updates always have chunks to apply and a non-empty delta
    // for the overlay, so the recorded churn accounting never races the
    // scheduler.
    let mut seed_rng = StdRng::seed_from_u64(0x5eed_c0de);
    let seed_batch: Vec<Prefix> = (0..CHURN_BATCH)
        .map(|_| loop {
            let p = Prefix::from_u32(seed_rng.gen());
            if !hit_prefixes.contains(&p) {
                break p;
            }
        })
        .collect();
    server
        .inject_prefixes(LIST, seed_batch)
        .expect("list exists");

    let stop = AtomicBool::new(false);
    let chunk = config.urls_per_client;
    let barrier = Barrier::new(clients.len());
    let started = Instant::now();
    let (results, batches) = std::thread::scope(|scope| {
        let stop = &stop;
        let hit_prefixes = &hit_prefixes;
        let writer = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xc0ffee);
            let mut previous: Option<Vec<Prefix>> = None;
            let mut batches = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let batch: Vec<Prefix> = (0..CHURN_BATCH)
                    .map(|_| loop {
                        let p = Prefix::from_u32(rng.gen());
                        if !hit_prefixes.contains(&p) {
                            break p;
                        }
                    })
                    .collect();
                server
                    .inject_prefixes(LIST, batch.clone())
                    .expect("list exists");
                if let Some(old) = previous.replace(batch) {
                    server.remove_prefixes(LIST, old).expect("list exists");
                }
                batches += 1;
                // Pace the churn so the journal grows at a realistic rate
                // rather than saturating the server's write lock.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            batches
        });

        let barrier = &barrier;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let slice = &workload[i * chunk..(i + 1) * chunk];
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(slice.len());
                    let mut flagged = 0usize;
                    let mut failed = 0usize;
                    barrier.wait();
                    for (n, url) in slice.iter().enumerate() {
                        if n > 0 && n % CHURN_UPDATE_PERIOD == 0 {
                            client.update().expect("mid-run update");
                        }
                        let start = Instant::now();
                        match client.check_canonical(url) {
                            Ok(outcome) => {
                                if outcome.is_malicious() {
                                    flagged += 1;
                                }
                            }
                            Err(_) => failed += 1,
                        }
                        latencies.push(start.elapsed().as_nanos() as u64);
                    }
                    (latencies, flagged, failed)
                })
            })
            .collect();
        let results: Vec<(Vec<u64>, usize, usize)> = handles
            .into_iter()
            .map(|h| h.join().expect("churn client thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (results, writer.join().expect("churn writer panicked"))
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut flagged = 0;
    let mut failed = 0;
    for (lat, f, e) in results {
        latencies.extend(lat);
        flagged += f;
        failed += e;
    }
    latencies.sort_unstable();
    let timed = TimedPhase {
        lookups_per_sec: (config.clients * chunk) as f64 / wall.as_secs_f64(),
        latencies,
        flagged,
        failed,
    };

    let updates_applied: usize =
        clients.iter().map(|c| c.metrics().updates).sum::<usize>() - base_updates;
    let chunks_applied: usize = clients
        .iter()
        .map(|c| c.metrics().chunks_applied)
        .sum::<usize>()
        - base_chunks;
    let (deltas_absorbed, rebuilds) = clients
        .iter()
        .zip(&base_stats)
        .map(|(c, base)| {
            let now = c.database_store_stats();
            (
                (now.deltas_absorbed - base.deltas_absorbed) as usize,
                (now.rebuilds - base.rebuilds) as usize,
            )
        })
        .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
    let journal = server.journal_stats();
    eprintln!(
        "[update_churn] {} writer batches, journal: {} live chunks / {} live prefixes, \
         {} compactions",
        batches,
        journal.add_chunks + journal.sub_chunks,
        journal.live_prefixes,
        journal.compactions,
    );

    let mut report = scenario_report("update_churn", &timed, 1, 0, 0, 0);
    report.churn = Some(ChurnStats {
        updates_applied,
        chunks_applied,
        deltas_absorbed,
        rebuilds,
    });
    let churn = report.churn.as_ref().expect("just set");
    eprintln!(
        "[update_churn] {} updates applied ({} chunks), {} deltas absorbed, {} rebuilds",
        churn.updates_applied, churn.chunks_applied, churn.deltas_absorbed, churn.rebuilds,
    );
    report
}

/// URLs per `check_canonicals` call in the `mitigated_batch` scenario —
/// roughly a page load's worth of subresources.
const MITIGATED_BATCH_SIZE: usize = 16;

/// One per-shaper measurement of the `mitigated_batch` scenario.
struct ShaperReport {
    name: String,
    lookups_per_sec: f64,
    flagged: usize,
    failed_lookups: usize,
    round_trips: usize,
    request_groups: usize,
    prefixes_sent: usize,
    urls: usize,
}

/// Scenario: batched checking under every built-in query shaper.  The
/// point on record: a shaping policy no longer forces per-URL round trips
/// — the plan's independent requests share transport round trips, so
/// `round_trips` stays bounded by `request_groups` (one per distinct
/// revealed group) and far below the URL count, while verdicts stay
/// identical to the unshaped run.
fn run_mitigated_batch(
    server: &Arc<SafeBrowsingServer>,
    workload: &[CanonicalUrl],
    config: &Config,
) -> Vec<ShaperReport> {
    let shapers: Vec<Arc<dyn QueryShaper>> = vec![
        Arc::new(ExactShaper),
        Arc::new(DeterministicDummiesShaper { dummies: 2 }),
        Arc::new(OnePrefixAtATimeShaper),
        Arc::new(PaddedBucketShaper { bucket: 4 }),
    ];
    shapers
        .into_iter()
        .map(|shaper| {
            let name = shaper.name();
            eprintln!(
                "[mitigated_batch:{name}] building {} client(s)...",
                config.clients
            );
            let mut clients: Vec<SafeBrowsingClient> = (0..config.clients)
                .map(|_| {
                    let mut client = SafeBrowsingClient::in_process(
                        ClientConfig::subscribed_to([LIST])
                            .with_backend(StoreBackend::Indexed)
                            .with_shaper_arc(shaper.clone()),
                        server.clone(),
                    );
                    client.update().expect("initial update");
                    client
                })
                .collect();

            let chunk = config.urls_per_client;
            let barrier = Barrier::new(clients.len());
            let started = Instant::now();
            let results: Vec<(usize, usize)> = std::thread::scope(|scope| {
                let barrier = &barrier;
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let slice = &workload[i * chunk..(i + 1) * chunk];
                        scope.spawn(move || {
                            let mut flagged = 0usize;
                            let mut failed = 0usize;
                            barrier.wait();
                            for batch in slice.chunks(MITIGATED_BATCH_SIZE) {
                                match client.check_canonicals(batch) {
                                    Ok(outcomes) => {
                                        flagged +=
                                            outcomes.iter().filter(|o| o.is_malicious()).count()
                                    }
                                    Err(_) => failed += batch.len(),
                                }
                            }
                            (flagged, failed)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shaped client thread panicked"))
                    .collect()
            });
            let wall = started.elapsed();

            let flagged = results.iter().map(|(f, _)| f).sum();
            let failed_lookups = results.iter().map(|(_, e)| e).sum();
            let round_trips = clients
                .iter()
                .map(|c| c.metrics().full_hash_round_trips)
                .sum();
            let request_groups = clients.iter().map(|c| c.metrics().requests_sent).sum();
            let prefixes_sent = clients.iter().map(|c| c.metrics().prefixes_sent).sum();
            let urls = config.clients * chunk;
            let report = ShaperReport {
                name,
                lookups_per_sec: urls as f64 / wall.as_secs_f64(),
                flagged,
                failed_lookups,
                round_trips,
                request_groups,
                prefixes_sent,
                urls,
            };
            eprintln!(
                "[mitigated_batch:{}] {:.0} lookups/s, {} flagged, {} failed, \
                 {} round trips for {} request groups ({:.4} rt/URL, {:.4} prefixes/URL)",
                report.name,
                report.lookups_per_sec,
                report.flagged,
                report.failed_lookups,
                report.round_trips,
                report.request_groups,
                report.round_trips as f64 / report.urls as f64,
                report.prefixes_sent as f64 / report.urls as f64,
            );
            report
        })
        .collect()
}

/// Per-metric ceilings of the `perf_budget` block.  They sit 5-10x above
/// what a quiet machine records, because CI containers are shared, 1-core
/// and noisy: the gate exists to catch order-of-magnitude regressions (a
/// lookup that re-parses, a load that walks rows), not 10% drift.
const BUDGET_INDEXED_LOOKUP_NS: f64 = 2_500.0;
const BUDGET_SNAPSHOT_LOOKUP_NS: f64 = 2_500.0;
/// Snapshot validation is O(header + index); at any corpus size it is a
/// fraction of a millisecond, so even this generous ceiling would catch a
/// load path that started doing per-row work on a 1M-row buffer.
const BUDGET_SNAPSHOT_LOAD_MS: f64 = 25.0;
/// A floor, not a ceiling: the dispatched kernel must not fall behind the
/// scalar one beyond timer noise.  Recorded full runs show it several
/// times faster; 0.9 is the container-noise headroom.
const BUDGET_SIMD_SPEEDUP_MIN: f64 = 0.9;
/// A lookup resolved from local state must not allocate, ever.
const BUDGET_ALLOCS_PER_CACHE_HIT: f64 = 0.0;

/// Measured values of the `perf_budget` block (see the module doc).
struct PerfBudgetReport {
    scan_backend: &'static str,
    indexed_lookup_ns: f64,
    snapshot_lookup_ns: f64,
    snapshot_load_ms: f64,
    simd_scan_ns: f64,
    scalar_scan_ns: f64,
    simd_speedup: f64,
    allocs_per_cache_hit_lookup: f64,
}

impl PerfBudgetReport {
    /// Every budget breach, as a human-readable `metric: measured vs
    /// budget` line (empty when the run is inside budget).
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let ceilings = [
            (
                "indexed_lookup_ns",
                self.indexed_lookup_ns,
                BUDGET_INDEXED_LOOKUP_NS,
            ),
            (
                "snapshot_lookup_ns",
                self.snapshot_lookup_ns,
                BUDGET_SNAPSHOT_LOOKUP_NS,
            ),
            (
                "snapshot_load_ms",
                self.snapshot_load_ms,
                BUDGET_SNAPSHOT_LOAD_MS,
            ),
            (
                "allocs_per_cache_hit_lookup",
                self.allocs_per_cache_hit_lookup,
                BUDGET_ALLOCS_PER_CACHE_HIT,
            ),
        ];
        for (name, measured, budget) in ceilings {
            if measured > budget {
                out.push(format!(
                    "{name}: measured {measured:.3} > budget {budget:.3}"
                ));
            }
        }
        if self.simd_speedup < BUDGET_SIMD_SPEEDUP_MIN {
            out.push(format!(
                "simd_speedup: measured {:.2} < floor {:.2}",
                self.simd_speedup, BUDGET_SIMD_SPEEDUP_MIN
            ));
        }
        out
    }

    fn pass(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Average nanoseconds per `contains` over the probe set, best of several
/// rounds: the budget bounds the machine, not the scheduler.
fn time_store_lookups<S: PrefixStore>(store: &S, probes: &[Prefix]) -> f64 {
    const ROUNDS: usize = 5;
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut hits = 0usize;
        for p in probes {
            hits += usize::from(store.contains(p));
        }
        std::hint::black_box(hits);
        best = best.min(started.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    best
}

/// Average nanoseconds per bucket scan, best of several rounds.  The
/// kernel pointer is laundered through `black_box` so the comparison is an
/// indirect call for every kernel — otherwise LLVM constant-propagates the
/// pointer and fully inlines the scalar kernel (which the `target_feature`
/// SIMD kernels can never get), skewing the head-to-head.
fn time_scans(kernel: fn(&[u8], usize, &[u8]) -> bool, rows: &[u8], probes: &[[u8; 8]]) -> f64 {
    const ROUNDS: usize = 20;
    let kernel = std::hint::black_box(kernel);
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut hits = 0usize;
        for p in probes {
            hits += usize::from(kernel(rows, 8, p));
        }
        std::hint::black_box(hits);
        best = best.min(started.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    best
}

/// Measures the `perf_budget` block: snapshot load, indexed and snapshot
/// lookup latency, and the dispatched-vs-scalar bucket kernels.
fn run_perf_budget(config: &Config, allocs_per_cache_hit_lookup: f64) -> PerfBudgetReport {
    eprintln!(
        "[perf_budget] building a {}-prefix snapshot corpus ({} scan kernel)...",
        config.prefixes,
        active_backend()
    );
    let mut rng = StdRng::seed_from_u64(0xb079e7);
    let prefixes: Vec<Prefix> = (0..config.prefixes)
        .map(|_| Prefix::from_u32(rng.gen()))
        .collect();
    let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.iter().copied());
    // A separate copy of the bytes, as a client reads them back from disk.
    let bytes: Arc<[u8]> = Arc::from(&table.bytes()[..]);

    // Loading = full validation (header, meta CRC, bucket-index structure)
    // of the shared buffer; O(header + index), never O(rows).
    let snapshot_load_ms = (0..10)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(
                IndexedPrefixTable::from_bytes(Arc::clone(&bytes)).expect("built bytes validate"),
            );
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);

    let loaded = IndexedPrefixTable::from_bytes(bytes).expect("built bytes validate");
    // Half the probes are present, half absent, interleaved.
    let probes: Vec<Prefix> = (0..8192)
        .map(|i| {
            if i % 2 == 0 {
                prefixes[rng.gen::<u32>() as usize % prefixes.len()]
            } else {
                Prefix::from_u32(rng.gen())
            }
        })
        .collect();
    let indexed_lookup_ns = time_store_lookups(&table, &probes);
    let snapshot_lookup_ns = time_store_lookups(&loaded, &probes);

    // Kernel-level head-to-head on one skewed crossover-size bucket
    // (LINEAR_SCAN_MAX rows of 8-byte rows): the largest bucket the linear
    // kernels ever see, where the vector loop dominates the call overhead.
    let mut rows: Vec<[u8; 8]> = (0..LINEAR_SCAN_MAX)
        .map(|_| rng.gen::<u64>().to_be_bytes())
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let flat: Vec<u8> = rows.iter().flatten().copied().collect();
    let scan_probes: Vec<[u8; 8]> = (0..512)
        .map(|i| {
            if i % 2 == 0 {
                rows[i % rows.len()]
            } else {
                rng.gen::<u64>().to_be_bytes()
            }
        })
        .collect();
    let simd_scan_ns = time_scans(scan_linear, &flat, &scan_probes);
    let scalar_scan_ns = time_scans(scan_linear_scalar, &flat, &scan_probes);

    let report = PerfBudgetReport {
        scan_backend: active_backend(),
        indexed_lookup_ns,
        snapshot_lookup_ns,
        snapshot_load_ms,
        simd_scan_ns,
        scalar_scan_ns,
        simd_speedup: scalar_scan_ns / simd_scan_ns,
        allocs_per_cache_hit_lookup,
    };
    eprintln!(
        "[perf_budget] lookup {:.1} ns indexed / {:.1} ns snapshot, load {:.3} ms, \
         scan {:.2} ns {} vs {:.2} ns scalar ({:.2}x), {:.4} allocs/cache-hit",
        report.indexed_lookup_ns,
        report.snapshot_lookup_ns,
        report.snapshot_load_ms,
        report.simd_scan_ns,
        report.scan_backend,
        report.scalar_scan_ns,
        report.simd_speedup,
        report.allocs_per_cache_hit_lookup,
    );
    for failure in report.failures() {
        eprintln!("[perf_budget] OVER BUDGET: {failure}");
    }
    report
}

fn render_json(
    config: &Config,
    reports: &[BackendReport],
    scenarios: &[ScenarioReport],
    shaped: &[ShaperReport],
    perf: Option<&PerfBudgetReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"throughput\",\n");
    out.push_str(&format!("  \"smoke\": {},\n", config.smoke));
    out.push_str(&format!("  \"prefixes\": {},\n", config.prefixes));
    out.push_str(&format!("  \"clients\": {},\n", config.clients));
    out.push_str(&format!(
        "  \"urls_per_client\": {},\n",
        config.urls_per_client
    ));
    out.push_str("  \"backends\": {\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", r.backend));
        out.push_str(&format!(
            "      \"lookups_per_sec\": {:.1},\n",
            r.lookups_per_sec
        ));
        out.push_str(&format!("      \"p50_ns\": {},\n", r.p50_ns));
        out.push_str(&format!("      \"p99_ns\": {},\n", r.p99_ns));
        out.push_str(&format!(
            "      \"allocs_per_lookup\": {:.4},\n",
            r.allocs_per_lookup
        ));
        out.push_str(&format!(
            "      \"allocs_per_cache_hit_lookup\": {:.4},\n",
            r.allocs_per_cache_hit_lookup
        ));
        out.push_str(&format!(
            "      \"database_bytes\": {},\n",
            r.database_bytes
        ));
        out.push_str(&format!("      \"urls_flagged\": {}\n", r.flagged));
        out.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  },\n");
    out.push_str("  \"scenarios\": {\n");
    for (i, s) in scenarios.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", s.name));
        out.push_str(&format!(
            "      \"lookups_per_sec\": {:.1},\n",
            s.lookups_per_sec
        ));
        out.push_str(&format!("      \"p50_ns\": {},\n", s.p50_ns));
        out.push_str(&format!("      \"p99_ns\": {},\n", s.p99_ns));
        out.push_str(&format!("      \"urls_flagged\": {},\n", s.flagged));
        out.push_str(&format!(
            "      \"failed_lookups\": {},\n",
            s.failed_lookups
        ));
        out.push_str(&format!("      \"shards\": {},\n", s.shards));
        out.push_str(&format!(
            "      \"faults_injected\": {},\n",
            s.faults_injected
        ));
        out.push_str(&format!("      \"retries\": {},\n", s.retries));
        out.push_str(&format!(
            "      \"degraded_requests\": {}{}\n",
            s.degraded_requests,
            if s.churn.is_some() || s.wire.is_some() || s.chaos.is_some() || s.telemetry.is_some() {
                ","
            } else {
                ""
            }
        ));
        if let Some(wire) = &s.wire {
            out.push_str(&format!(
                "      \"connections_opened\": {},\n",
                wire.connections_opened
            ));
            out.push_str(&format!(
                "      \"connections_reused\": {},\n",
                wire.connections_reused
            ));
            out.push_str(&format!(
                "      \"client_bytes_sent\": {},\n",
                wire.client_bytes_sent
            ));
            out.push_str(&format!(
                "      \"client_bytes_received\": {},\n",
                wire.client_bytes_received
            ));
            out.push_str(&format!(
                "      \"server_connections\": {},\n",
                wire.server_connections
            ));
            out.push_str(&format!(
                "      \"server_frames_received\": {},\n",
                wire.server_frames_received
            ));
            out.push_str(&format!(
                "      \"server_frames_sent\": {},\n",
                wire.server_frames_sent
            ));
            out.push_str(&format!(
                "      \"server_bytes_received\": {},\n",
                wire.server_bytes_received
            ));
            out.push_str(&format!(
                "      \"server_bytes_sent\": {}{}\n",
                wire.server_bytes_sent,
                if s.telemetry.is_some() { "," } else { "" }
            ));
        }
        if let Some(chaos) = &s.chaos {
            out.push_str(&format!("      \"exchanges\": {},\n", chaos.exchanges));
            out.push_str(&format!("      \"delays\": {},\n", chaos.delays));
            out.push_str(&format!(
                "      \"resets_mid_frame\": {},\n",
                chaos.resets_mid_frame
            ));
            out.push_str(&format!("      \"stalls\": {},\n", chaos.stalls));
            out.push_str(&format!(
                "      \"corrupted_requests\": {},\n",
                chaos.corrupted_requests
            ));
            out.push_str(&format!(
                "      \"corrupted_replies\": {},\n",
                chaos.corrupted_replies
            ));
            out.push_str(&format!("      \"blackholes\": {},\n", chaos.blackholes));
            out.push_str(&format!("      \"slow_drips\": {},\n", chaos.slow_drips));
            out.push_str(&format!(
                "      \"verdict_parity\": {}{}\n",
                chaos.verdict_parity,
                if s.telemetry.is_some() { "," } else { "" }
            ));
        }
        if let Some(churn) = &s.churn {
            out.push_str(&format!(
                "      \"updates_applied\": {},\n",
                churn.updates_applied
            ));
            out.push_str(&format!(
                "      \"chunks_applied\": {},\n",
                churn.chunks_applied
            ));
            out.push_str(&format!(
                "      \"deltas_absorbed\": {},\n",
                churn.deltas_absorbed
            ));
            out.push_str(&format!("      \"rebuilds\": {}\n", churn.rebuilds));
        }
        if let Some(telemetry) = &s.telemetry {
            out.push_str(&format!(
                "      \"telemetry\": {}\n",
                telemetry.to_json_indented(6)
            ));
        }
        out.push_str(if i + 1 == scenarios.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  },\n");
    out.push_str("  \"mitigated_batch\": {\n");
    for (i, s) in shaped.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", s.name));
        out.push_str(&format!(
            "      \"lookups_per_sec\": {:.1},\n",
            s.lookups_per_sec
        ));
        out.push_str(&format!("      \"urls_flagged\": {},\n", s.flagged));
        out.push_str(&format!(
            "      \"failed_lookups\": {},\n",
            s.failed_lookups
        ));
        out.push_str(&format!("      \"round_trips\": {},\n", s.round_trips));
        out.push_str(&format!(
            "      \"request_groups\": {},\n",
            s.request_groups
        ));
        out.push_str(&format!(
            "      \"round_trips_per_url\": {:.6},\n",
            s.round_trips as f64 / s.urls as f64
        ));
        out.push_str(&format!(
            "      \"prefixes_per_url\": {:.6}\n",
            s.prefixes_sent as f64 / s.urls as f64
        ));
        out.push_str(if i + 1 == shaped.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    let Some(perf) = perf else {
        // A `--scenario`-filtered run skips the perf-budget sweep; the
        // mitigated-batch map above was its last section.
        out.push_str("  }\n");
        out.push_str("}\n");
        return out;
    };
    out.push_str("  },\n");
    out.push_str("  \"perf_budget\": {\n");
    out.push_str(&format!(
        "    \"scan_backend\": \"{}\",\n",
        perf.scan_backend
    ));
    out.push_str("    \"measured\": {\n");
    out.push_str(&format!(
        "      \"indexed_lookup_ns\": {:.1},\n",
        perf.indexed_lookup_ns
    ));
    out.push_str(&format!(
        "      \"snapshot_lookup_ns\": {:.1},\n",
        perf.snapshot_lookup_ns
    ));
    out.push_str(&format!(
        "      \"snapshot_load_ms\": {:.3},\n",
        perf.snapshot_load_ms
    ));
    out.push_str(&format!(
        "      \"simd_scan_ns\": {:.2},\n",
        perf.simd_scan_ns
    ));
    out.push_str(&format!(
        "      \"scalar_scan_ns\": {:.2},\n",
        perf.scalar_scan_ns
    ));
    out.push_str(&format!(
        "      \"simd_speedup\": {:.2},\n",
        perf.simd_speedup
    ));
    out.push_str(&format!(
        "      \"allocs_per_cache_hit_lookup\": {:.4}\n",
        perf.allocs_per_cache_hit_lookup
    ));
    out.push_str("    },\n");
    out.push_str("    \"budgets\": {\n");
    out.push_str(&format!(
        "      \"indexed_lookup_ns\": {BUDGET_INDEXED_LOOKUP_NS:.1},\n"
    ));
    out.push_str(&format!(
        "      \"snapshot_lookup_ns\": {BUDGET_SNAPSHOT_LOOKUP_NS:.1},\n"
    ));
    out.push_str(&format!(
        "      \"snapshot_load_ms\": {BUDGET_SNAPSHOT_LOAD_MS:.1},\n"
    ));
    out.push_str(&format!(
        "      \"simd_speedup_min\": {BUDGET_SIMD_SPEEDUP_MIN:.2},\n"
    ));
    out.push_str(&format!(
        "      \"allocs_per_cache_hit_lookup\": {BUDGET_ALLOCS_PER_CACHE_HIT:.1}\n"
    ));
    out.push_str("    },\n");
    out.push_str(&format!("    \"pass\": {}\n", perf.pass()));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
