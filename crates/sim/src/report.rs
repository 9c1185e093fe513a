//! The fleet-simulation report and its deterministic JSON rendering.
//!
//! Hand-rolled rendering (this workspace takes no serde dependency), with
//! one hard requirement: **byte-identical output for equal reports** — the
//! rendering is part of the determinism contract the CI smoke run asserts.

use std::collections::BTreeMap;

use sb_analysis::CohortTracking;
use sb_server::JournalStats;

/// Everything one [`run_fleet`](crate::run_fleet) run measured.
///
/// `PartialEq` is the determinism oracle: two same-seed runs must compare
/// equal, digest included.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Simulated clients.
    pub clients: usize,
    /// Root seed of the run.
    pub seed: u64,
    /// Provider fleet shards.
    pub shards: usize,
    /// Virtual horizon, seconds.
    pub horizon_seconds: u64,
    /// The provider's base update hint, seconds.
    pub hint_base_seconds: u64,
    /// The provider's hint jitter bound, seconds (0 = off).
    pub hint_jitter_seconds: u64,
    /// Hosts in the browsed corpus.
    pub corpus_hosts: usize,
    /// URLs in the browsed corpus.
    pub corpus_urls: usize,
    /// Corpus URLs blacklisted up front.
    pub blacklisted_urls: usize,
    /// Tracking sets deployed (Section 6.3 targets).
    pub tracked_targets: usize,
    /// Events processed.
    pub events: u64,
    /// Browsing sessions run.
    pub sessions: u64,
    /// URLs checked.
    pub lookups: u64,
    /// Sessions whose batched lookup returned an error (must be 0 in a
    /// healthy fleet).
    pub failed_lookups: u64,
    /// Lookups confirmed malicious by the provider.
    pub urls_flagged: u64,
    /// Lookups with at least one local database hit.
    pub local_hit_lookups: u64,
    /// Update exchanges served by the provider.
    pub update_exchanges: u64,
    /// Update rounds that failed client-side (drivers keep going).
    pub update_failures: u64,
    /// Full-hash wire requests observed at the provider (dummies
    /// included).
    pub full_hash_requests: u64,
    /// Client-side full-hash round trips (batching packs many requests
    /// into one trip).
    pub full_hash_round_trips: u64,
    /// Prefixes revealed to the provider, dummies included.
    pub prefixes_revealed: u64,
    /// Dummy prefixes among those revealed.
    pub dummy_prefixes: u64,
    /// Provider queries (updates + full-hash requests) per virtual second.
    pub provider_qps: f64,
    /// Full-hash requests routed to each shard, by shard index.
    pub requests_routed: Vec<usize>,
    /// Requests that failed open because their shard failed.
    pub degraded_requests: usize,
    /// Journal statistics per churn epoch (entry 0 = after initial
    /// seeding).
    pub journal: Vec<EpochJournal>,
    /// The thundering-herd histogram of update arrivals.
    pub herd: HerdReport,
    /// Per-shaper-cohort tracker hit-rates.
    pub trackers: BTreeMap<String, CohortReport>,
    /// Tracking matches the provider found in its own query log.
    pub provider_detected_visits: usize,
    /// Distinct client cookies among those matches.
    pub provider_detected_clients: usize,
    /// FNV-1a digest over the full event trace.
    pub trace_digest: u64,
}

/// The server journal's state at the end of one churn epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochJournal {
    /// Virtual time of the snapshot, seconds.
    pub at_seconds: u64,
    /// Live add chunks.
    pub add_chunks: usize,
    /// Live sub chunks.
    pub sub_chunks: usize,
    /// Prefix entries across live chunks (a fresh client's replay cost).
    pub live_prefixes: usize,
    /// Chunks appended over the journal's lifetime.
    pub appends: usize,
    /// Prefixes netted out of add chunks by later sub appends.
    pub netted_prefixes: usize,
    /// Add chunks dropped because netting emptied them.
    pub dropped_chunks: usize,
    /// Sub appends that netted at least one prefix.
    pub compactions: usize,
}

impl EpochJournal {
    /// Captures one journal snapshot at virtual second `at_seconds`.
    pub fn new(at_seconds: u64, stats: JournalStats) -> Self {
        EpochJournal {
            at_seconds,
            add_chunks: stats.add_chunks,
            sub_chunks: stats.sub_chunks,
            live_prefixes: stats.live_prefixes,
            appends: stats.appends,
            netted_prefixes: stats.netted_prefixes,
            dropped_chunks: stats.dropped_chunks,
            compactions: stats.compactions,
        }
    }
}

/// The update-arrival histogram: how `next_update_seconds` hints spread
/// (or fail to spread) the fleet's update load over virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HerdReport {
    /// Histogram resolution, seconds.
    pub bucket_seconds: u64,
    /// Update arrivals per bucket over the whole horizon.
    pub buckets: Vec<u64>,
    /// Arrivals in the first two buckets (the cold-boot wave).
    pub first_wave: u64,
    /// The busiest bucket anywhere.
    pub peak: u64,
    /// The busiest bucket after the cold-boot wave — the steady-state herd
    /// the hint policy actually controls.
    pub peak_after_boot: u64,
    /// Buckets with at least one arrival.
    pub occupied: usize,
}

impl HerdReport {
    /// Summarizes a raw arrival histogram.
    pub fn from_buckets(bucket_seconds: u64, buckets: Vec<u64>) -> Self {
        let first_wave = buckets.iter().take(2).sum();
        let peak = buckets.iter().copied().max().unwrap_or(0);
        let peak_after_boot = buckets.iter().skip(2).copied().max().unwrap_or(0);
        let occupied = buckets.iter().filter(|&&b| b > 0).count();
        HerdReport {
            bucket_seconds,
            buckets,
            first_wave,
            peak,
            peak_after_boot,
            occupied,
        }
    }

    /// Renders the herd block as a JSON object, `indent` spaces deep.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let buckets = self
            .buckets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n{inner}\"bucket_seconds\": {},\n{inner}\"first_wave\": {},\n\
             {inner}\"peak\": {},\n{inner}\"peak_after_boot\": {},\n\
             {inner}\"occupied_buckets\": {},\n{inner}\"buckets\": [{buckets}]\n{pad}}}",
            self.bucket_seconds, self.first_wave, self.peak, self.peak_after_boot, self.occupied,
        )
    }
}

/// One shaper cohort's population-level tracking outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// Clients in the cohort.
    pub clients: usize,
    /// Ground-truth tracked-page visitors.
    pub visitors: usize,
    /// Visitors the provider re-identified from their disclosures.
    pub detected_visitors: usize,
    /// Non-visitors flagged anyway.
    pub false_positives: usize,
    /// Total exposures across the cohort.
    pub exposures: usize,
    /// `detected_visitors / visitors` (0 when no visitors).
    pub hit_rate: f64,
    /// `false_positives / non-visitors` (0 when everyone visited).
    pub false_positive_rate: f64,
}

impl CohortReport {
    /// Converts an aggregated [`CohortTracking`] into its report form.
    pub fn from_cohort(cohort: &CohortTracking) -> Self {
        CohortReport {
            clients: cohort.clients,
            visitors: cohort.visitors,
            detected_visitors: cohort.detected_visitors,
            false_positives: cohort.false_positives,
            exposures: cohort.exposures,
            hit_rate: cohort.hit_rate(),
            false_positive_rate: cohort.false_positive_rate(),
        }
    }
}

impl FleetReport {
    /// Renders the report as a JSON object, `indent` spaces deep —
    /// byte-deterministic for equal reports.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let mut field = |name: &str, value: String| {
            out.push_str(&format!("{inner}\"{name}\": {value},\n"));
        };
        field("clients", self.clients.to_string());
        field("seed", self.seed.to_string());
        field("shards", self.shards.to_string());
        field("virtual_horizon_seconds", self.horizon_seconds.to_string());
        field("hint_base_seconds", self.hint_base_seconds.to_string());
        field("hint_jitter_seconds", self.hint_jitter_seconds.to_string());
        field("corpus_hosts", self.corpus_hosts.to_string());
        field("corpus_urls", self.corpus_urls.to_string());
        field("blacklisted_urls", self.blacklisted_urls.to_string());
        field("tracked_targets", self.tracked_targets.to_string());
        field("events", self.events.to_string());
        field("sessions", self.sessions.to_string());
        field("lookups", self.lookups.to_string());
        field("failed_lookups", self.failed_lookups.to_string());
        field("urls_flagged", self.urls_flagged.to_string());
        field("local_hit_lookups", self.local_hit_lookups.to_string());
        field("update_exchanges", self.update_exchanges.to_string());
        field("update_failures", self.update_failures.to_string());
        field("full_hash_requests", self.full_hash_requests.to_string());
        field(
            "full_hash_round_trips",
            self.full_hash_round_trips.to_string(),
        );
        field("prefixes_revealed", self.prefixes_revealed.to_string());
        field("dummy_prefixes", self.dummy_prefixes.to_string());
        field("provider_qps", format!("{:.4}", self.provider_qps));
        field(
            "requests_routed",
            format!(
                "[{}]",
                self.requests_routed
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        field("degraded_requests", self.degraded_requests.to_string());
        field(
            "provider_detected_visits",
            self.provider_detected_visits.to_string(),
        );
        field(
            "provider_detected_clients",
            self.provider_detected_clients.to_string(),
        );
        field("trace_digest", format!("\"{:016x}\"", self.trace_digest));

        // Journal epochs.
        let epoch_pad = " ".repeat(indent + 4);
        let epochs = self
            .journal
            .iter()
            .map(|e| {
                format!(
                    "{epoch_pad}{{\"at_seconds\": {}, \"add_chunks\": {}, \"sub_chunks\": {}, \
                     \"live_prefixes\": {}, \"appends\": {}, \"netted_prefixes\": {}, \
                     \"dropped_chunks\": {}, \"compactions\": {}}}",
                    e.at_seconds,
                    e.add_chunks,
                    e.sub_chunks,
                    e.live_prefixes,
                    e.appends,
                    e.netted_prefixes,
                    e.dropped_chunks,
                    e.compactions,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        field("journal", format!("[\n{epochs}\n{inner}]"));

        field("herd", self.herd.to_json(indent + 2));

        // Per-cohort tracker hit-rates.
        let cohort_pad = " ".repeat(indent + 4);
        let trackers = self
            .trackers
            .iter()
            .map(|(label, c)| {
                format!(
                    "{cohort_pad}\"{label}\": {{\"clients\": {}, \"visitors\": {}, \
                     \"detected_visitors\": {}, \"false_positives\": {}, \"exposures\": {}, \
                     \"hit_rate\": {:.4}, \"false_positive_rate\": {:.4}}}",
                    c.clients,
                    c.visitors,
                    c.detected_visitors,
                    c.false_positives,
                    c.exposures,
                    c.hit_rate,
                    c.false_positive_rate,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        out.push_str(&format!(
            "{inner}\"trackers\": {{\n{trackers}\n{inner}}}\n{pad}}}"
        ));
        out
    }
}
