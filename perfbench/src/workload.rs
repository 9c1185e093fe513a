//! Seeded inputs: the URL streams each workload's clients browse, the
//! provider's 1M-prefix list, and the verdicts and reveals a correct client
//! produces on them.
//!
//! Every listed prefix is planted: a URL of the stream reaches the provider
//! only through the entry the generator gave it.  The bulk of the list is
//! random prefixes that no decomposition of the stream hashes to, so the
//! number of prefixes an exact-shaped client reveals per pass is fixed by
//! construction and does not drift from seed to seed.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_corpus::{CorpusConfig, ProfileSampler, WebCorpus};
use sb_hash::{prefix32, Prefix};
use sb_url::{decompose, CanonicalUrl};

/// The one list every client subscribes to.
pub const LIST: &str = "goog-malware-shavar";
/// Prefixes in the provider's list, on every workload.
pub const LIST_SIZE: usize = 1_000_000;
/// URLs per check call on `fullhash_tcp`: one page and its subresources.
pub const PAGE_URLS: usize = 16;
/// Prefixes per `update_churn` writer batch (one add and one remove batch
/// per tick, so the list stays at [`LIST_SIZE`]).
pub const CHURN_BATCH: usize = 16;

/// Hosts in the generated corpus.
const CORPUS_HOSTS: usize = 4_000;
/// Per-host page cap of the corpus.
const PAGE_CAP: u64 = 2_000;
/// Blacklisted corpus sites on `browse_local` and `update_churn`.
const BLACKLISTED_SITES: usize = 16;
/// Browsing sessions drawn from one profile before the next one starts.
const SESSIONS_PER_PROFILE: u64 = 64;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process clients checking single browsing URLs.
    BrowseLocal,
    /// Clients on pooled TCP transports checking 16-URL pages.
    FullhashTcp,
    /// In-process clients checking URLs beside a churning list.
    UpdateChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BrowseLocal,
        Workload::FullhashTcp,
        Workload::UpdateChurn,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseLocal => "browse_local",
            Workload::FullhashTcp => "fullhash_tcp",
            Workload::UpdateChurn => "update_churn",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads on a host with `nproc` cores: one per core, leaving
    /// one core to the writer on `update_churn`.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::UpdateChurn => nproc.saturating_sub(1).max(1),
            _ => nproc.max(1),
        }
    }

    /// URLs per check call.
    pub fn check_size(self) -> usize {
        match self {
            Workload::FullhashTcp => PAGE_URLS,
            _ => 1,
        }
    }

    /// Check calls per pass.  Each pass starts with one `update()` exchange
    /// and an empty full-hash cache.
    pub fn pass_checks(self) -> usize {
        match self {
            Workload::BrowseLocal => 4096,
            Workload::FullhashTcp => 1024,
            Workload::UpdateChurn => 16384,
        }
    }

    /// Distinct passes in each client's stream; a run cycles through them.
    fn passes(self) -> usize {
        match self {
            Workload::BrowseLocal => 4,
            _ => 1,
        }
    }

    /// Visits to each blacklisted site per pass (`browse_local` and
    /// `update_churn`).
    fn visits_per_site(self) -> usize {
        match self {
            Workload::BrowseLocal => 6,
            _ => 24,
        }
    }
}

/// One client's URL stream, cut into passes of check calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The raw URL strings, in browsing order.
    pub urls: Vec<String>,
    /// The verdict a correct client gives each URL.
    pub malicious: Vec<bool>,
    /// URLs per check call.
    pub check_size: usize,
    /// Check calls per pass.
    pub pass_checks: usize,
    /// Prefixes an exact-shaped client reveals in each pass, starting it
    /// with an empty cache: one per distinct listed entry the pass hits.
    pub pass_reveals: Vec<usize>,
}

impl Stream {
    /// Number of distinct passes.
    pub fn passes(&self) -> usize {
        self.pass_reveals.len()
    }

    /// URLs in one pass.
    pub fn pass_urls(&self) -> usize {
        self.check_size * self.pass_checks
    }

    /// URLs and expected verdicts of check call `check` of pass `pass`.
    pub fn check(&self, pass: usize, check: usize) -> (&[String], &[bool]) {
        let start = pass * self.pass_urls() + check * self.check_size;
        let end = start + self.check_size;
        (&self.urls[start..end], &self.malicious[start..end])
    }
}

/// Everything one run needs, generated from the seed before any timing.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Expressions blacklisted with their full digests.
    pub blacklisted: Vec<String>,
    /// Listed prefixes with no full digest: local hits the provider does
    /// not confirm.
    pub prefix_only: Vec<u32>,
    /// Random prefixes filling the list to [`LIST_SIZE`].
    pub bulk: Vec<u32>,
    /// One stream per client.
    pub streams: Vec<Stream>,
    /// Fresh prefixes the `update_churn` writer adds, [`CHURN_BATCH`] per
    /// tick; tick `k` removes `bulk[k * CHURN_BATCH..][..CHURN_BATCH]`.
    pub churn_adds: Vec<u32>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `clients` clients, with
    /// `churn_ticks` writer batches on `update_churn`.  The same arguments
    /// always give the same inputs.
    pub fn generate(workload: Workload, seed: u64, clients: usize, churn_ticks: usize) -> Self {
        let corpus = WebCorpus::generate(
            &CorpusConfig::alexa_like(CORPUS_HOSTS, seed).with_page_cap(PAGE_CAP),
        );
        let mut gen = Generator {
            corpus: &corpus,
            sampler: ProfileSampler::new(&corpus, seed),
            rng: StdRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63),
            listed: HashMap::new(),
            seen: HashSet::new(),
            excluded_sites: Vec::new(),
            blacklisted: Vec::new(),
            prefix_only: Vec::new(),
            pool_hosts: 0,
        };
        let mut sites = Vec::new();
        if workload != Workload::FullhashTcp {
            while sites.len() < BLACKLISTED_SITES {
                let site = gen.rng.gen_range(0..corpus.sites().len());
                let domain = corpus.sites()[site].domain().to_string();
                if gen.excluded_sites.contains(&domain) {
                    continue;
                }
                // Rejected candidates stay excluded from browsing too.
                gen.excluded_sites.push(domain.clone());
                if gen.list(format!("{domain}/"), true) {
                    sites.push(site);
                }
            }
        }
        let streams = (0..clients)
            .map(|client| gen.stream(workload, client as u64, &sites))
            .collect();

        let mut taken: HashSet<u32> = std::mem::take(&mut gen.seen);
        taken.extend(gen.listed.keys().copied());
        let bulk = fresh_prefixes(&mut gen.rng, &mut taken, LIST_SIZE - gen.listed.len());
        let churn_adds = if workload == Workload::UpdateChurn {
            fresh_prefixes(&mut gen.rng, &mut taken, churn_ticks * CHURN_BATCH)
        } else {
            Vec::new()
        };
        Inputs {
            blacklisted: gen.blacklisted,
            prefix_only: gen.prefix_only,
            bulk,
            streams,
            churn_adds,
        }
    }

    /// Every listed prefix without a full digest: the prefix-only entries
    /// and the bulk.
    pub fn orphan_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.prefix_only
            .iter()
            .chain(&self.bulk)
            .map(|&p| Prefix::from_u32(p))
    }

    /// Prefixes the `update_churn` writer adds at tick `tick`, or `None`
    /// once the pre-generated batches run out.
    pub fn churn_tick(&self, tick: usize) -> Option<(&[u32], &[u32])> {
        let range = tick * CHURN_BATCH..(tick + 1) * CHURN_BATCH;
        Some((self.churn_adds.get(range.clone())?, self.bulk.get(range)?))
    }
}

/// `count` distinct random prefixes outside `taken`, which they join.
fn fresh_prefixes(rng: &mut StdRng, taken: &mut HashSet<u32>, count: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p: u32 = rng.gen();
        if taken.insert(p) {
            out.push(p);
        }
    }
    out
}

fn prefix_u32(expression: &str) -> u32 {
    let prefix = prefix32(expression);
    let bytes = prefix.as_bytes();
    u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// The 32-bit prefixes of every decomposition of `url`.
fn decomposition_prefixes(url: &str) -> Vec<u32> {
    let canonical = CanonicalUrl::parse(url).expect("generated URLs parse");
    decompose(&canonical)
        .iter()
        .map(|d| prefix_u32(d.expression()))
        .collect()
}

struct Generator<'c> {
    corpus: &'c WebCorpus,
    sampler: ProfileSampler,
    rng: StdRng,
    /// Listed prefix → whether it has a full digest.
    listed: HashMap<u32, bool>,
    /// Prefixes of every decomposition of every accepted URL.
    seen: HashSet<u32>,
    /// Registered domains normal browsing never visits.
    excluded_sites: Vec<String>,
    blacklisted: Vec<String>,
    prefix_only: Vec<u32>,
    pool_hosts: usize,
}

/// Where a client's browsing sessions have got to.
struct Sessions {
    client: u64,
    next: u64,
    pending: Vec<String>,
}

impl Generator<'_> {
    /// Lists `expression` (with its full digest when `full`) unless its
    /// prefix is taken, either by another entry or by a decomposition of an
    /// accepted URL.
    fn list(&mut self, expression: String, full: bool) -> bool {
        let prefix = prefix_u32(&expression);
        if self.listed.contains_key(&prefix) || self.seen.contains(&prefix) {
            return false;
        }
        self.listed.insert(prefix, full);
        if full {
            self.blacklisted.push(expression);
        } else {
            self.prefix_only.push(prefix);
        }
        true
    }

    /// Accepts `url` when the only listed prefix among its decompositions
    /// is `entry` (or none, for `None`).
    fn accept(&mut self, url: &str, entry: Option<u32>) -> bool {
        let prefixes = decomposition_prefixes(url);
        let hits: Vec<u32> = prefixes
            .iter()
            .copied()
            .filter(|p| self.listed.contains_key(p))
            .collect();
        let clean = match entry {
            None => hits.is_empty(),
            Some(entry) => !hits.is_empty() && hits.iter().all(|&p| p == entry),
        };
        if clean {
            self.seen.extend(prefixes);
        }
        clean
    }

    fn excluded(&self, url: &str) -> bool {
        let host = url.split('/').next().unwrap_or("");
        self.excluded_sites.iter().any(|d| {
            host == d
                || host
                    .strip_suffix(d.as_str())
                    .is_some_and(|s| s.ends_with('.'))
        })
    }

    /// The next normal browsing URL of a client's sessions.
    fn browse(&mut self, sessions: &mut Sessions) -> String {
        loop {
            while sessions.pending.is_empty() {
                let profile = self
                    .sampler
                    .profile_for((sessions.client << 40) | (sessions.next / SESSIONS_PER_PROFILE));
                let urls = profile.session_urls(self.corpus, sessions.next % SESSIONS_PER_PROFILE);
                sessions.next += 1;
                if urls.first().is_some_and(|u| self.excluded(u)) {
                    continue;
                }
                sessions.pending = urls.iter().rev().map(|u| format!("http://{u}")).collect();
            }
            let url = sessions.pending.pop().expect("refilled above");
            if self.accept(&url, None) {
                return url;
            }
        }
    }

    /// A page of blacklisted corpus site `site`.
    fn site_visit(&mut self, site: usize) -> String {
        let urls = self.corpus.sites()[site].urls();
        let entry = prefix_u32(&format!("{}/", self.corpus.sites()[site].domain()));
        loop {
            let url = format!("http://{}", urls[self.rng.gen_range(0..urls.len())]);
            if self.accept(&url, Some(entry)) {
                return url;
            }
        }
    }

    /// A URL on a fresh pool host, listed with its full digest when
    /// `malicious`, as a prefix-only entry otherwise.  The path is borrowed
    /// from a corpus page, so its depth follows the corpus.
    fn pool_visit(&mut self, malicious: bool) -> String {
        const WORDS: &[&str] = &["cheap", "free", "win", "secure", "login", "update", "bonus"];
        const TLDS: &[&str] = &["com", "net", "ru", "info", "biz"];
        loop {
            self.pool_hosts += 1;
            let host = format!(
                "{}{}-pool{}.{}",
                WORDS[self.rng.gen_range(0..WORDS.len())],
                WORDS[self.rng.gen_range(0..WORDS.len())],
                self.pool_hosts,
                TLDS[self.rng.gen_range(0..TLDS.len())]
            );
            let sites = self.corpus.sites();
            let urls = sites[self.rng.gen_range(0..sites.len())].urls();
            let page = &urls[self.rng.gen_range(0..urls.len())];
            let path = &page[page.find('/').unwrap_or(page.len())..];
            let url = format!("http://{host}{}", if path.is_empty() { "/" } else { path });
            let expression = format!("{host}/");
            let entry = prefix_u32(&expression);
            if !self.list(expression, malicious) {
                continue;
            }
            if self.accept(&url, Some(entry)) {
                return url;
            }
            // Unlist the entry again: another listed prefix collides with
            // this URL, so it would reveal more than its own entry.
            self.listed.remove(&entry);
            if malicious {
                self.blacklisted.pop();
            } else {
                self.prefix_only.pop();
            }
        }
    }

    fn stream(&mut self, workload: Workload, client: u64, sites: &[usize]) -> Stream {
        let mut sessions = Sessions {
            client,
            next: 0,
            pending: Vec::new(),
        };
        let check_size = workload.check_size();
        let pass_checks = workload.pass_checks();
        let pass_urls = check_size * pass_checks;
        let passes = workload.passes();
        let mut urls = Vec::with_capacity(passes * pass_urls);
        let mut malicious = Vec::with_capacity(passes * pass_urls);
        let mut pass_reveals = Vec::with_capacity(passes);
        for _ in 0..passes {
            match workload {
                Workload::FullhashTcp => {
                    // Each page: one blacklisted and one prefix-only pool
                    // URL at random slots, the rest normal browsing.
                    for _ in 0..pass_checks {
                        let bad = self.rng.gen_range(0..check_size);
                        let mut decoy = self.rng.gen_range(0..check_size - 1);
                        if decoy >= bad {
                            decoy += 1;
                        }
                        for slot in 0..check_size {
                            let url = if slot == bad {
                                self.pool_visit(true)
                            } else if slot == decoy {
                                self.pool_visit(false)
                            } else {
                                self.browse(&mut sessions)
                            };
                            urls.push(url);
                            malicious.push(slot == bad);
                        }
                    }
                    pass_reveals.push(2 * pass_checks);
                }
                _ => {
                    // Every blacklisted site is visited a fixed number of
                    // times per pass, at random positions.
                    let mut visits: Vec<usize> = sites
                        .iter()
                        .flat_map(|&s| std::iter::repeat_n(s, workload.visits_per_site()))
                        .collect();
                    let mut slots = vec![false; pass_urls];
                    let mut placed = 0;
                    while placed < visits.len() {
                        let slot = self.rng.gen_range(0..pass_urls);
                        if !slots[slot] {
                            slots[slot] = true;
                            placed += 1;
                        }
                    }
                    for hit in slots {
                        if hit {
                            let pick = self.rng.gen_range(0..visits.len());
                            let site = visits.swap_remove(pick);
                            urls.push(self.site_visit(site));
                        } else {
                            urls.push(self.browse(&mut sessions));
                        }
                        malicious.push(hit);
                    }
                    pass_reveals.push(sites.len());
                }
            }
        }
        Stream {
            urls,
            malicious,
            check_size,
            pass_checks,
            pass_reveals,
        }
    }
}
