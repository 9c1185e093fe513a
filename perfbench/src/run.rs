//! Set-up and the untraced closed loop: real clients calling `check_url`
//! or `check_urls` and `update()`, one thread per client.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sb_client::{ClientConfig, RetryPolicy, RetryingTransport, SafeBrowsingClient, TcpTransport};
use sb_hash::Prefix;
use sb_protocol::{Provider, ThreatCategory};
use sb_server::{SafeBrowsingServer, TcpServingTier, TierConfig};
use sb_store::StoreBackend;

use crate::report::{quantile, ratio};
use crate::thread_allocations;
use crate::workload::{Inputs, Stream, Workload, LIST};

/// Pause between two `update_churn` writer ticks.
pub const CHURN_TICK: Duration = Duration::from_millis(4);
/// Serving-tier workers beyond one per client, so that a pooled client
/// connection, which holds its worker, never waits for one.
const SPARE_WORKERS: usize = 2;
/// Correctness failures kept for the report; the count is exact.
const MAX_ERRORS: usize = 8;

/// The configuration every client runs with.
pub fn client_config() -> ClientConfig {
    ClientConfig::subscribed_to([LIST]).with_backend(StoreBackend::Indexed)
}

/// A client and, on `fullhash_tcp`, its retry layer.
pub struct Client {
    /// The client under test.
    pub client: SafeBrowsingClient,
    /// The retry layer over its pooled TCP transport.
    pub retry: Option<Arc<RetryingTransport<Arc<TcpTransport>>>>,
}

/// A provider with its clients, all synced.
pub struct World {
    /// Declared first so they close their connections before the tier
    /// shuts down.
    pub clients: Vec<Client>,
    /// The serving tier on `fullhash_tcp`.
    pub tier: Option<TcpServingTier>,
    /// The provider.
    pub server: Arc<SafeBrowsingServer>,
    /// Provider ingest plus every client's initial sync.
    pub setup: Duration,
    /// Each client's initial sync: one `update()` exchange with the full
    /// list, applied.
    pub syncs: Vec<Duration>,
    /// The one `inject_prefixes` call that loads the list.
    pub ingest: Duration,
}

/// A provider holding the generated list; returns it with the time its
/// `inject_prefixes` call took.
pub fn provider(inputs: &Inputs) -> (Arc<SafeBrowsingServer>, Duration) {
    let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
    server.create_list(LIST, ThreatCategory::Malware);
    server
        .blacklist_expressions(LIST, inputs.blacklisted.iter().map(String::as_str))
        .expect("the list was just created");
    let started = Instant::now();
    server
        .inject_prefixes(LIST, inputs.orphan_prefixes())
        .expect("the list was just created");
    (server, started.elapsed())
}

impl World {
    /// Builds the provider, binds the tier on `fullhash_tcp`, and syncs
    /// `clients` clients one after another.
    pub fn build(workload: Workload, inputs: &Inputs, clients: usize) -> Result<World, String> {
        let started = Instant::now();
        let (server, ingest) = provider(inputs);
        let tier = match workload {
            Workload::FullhashTcp => Some(
                TcpServingTier::bind(
                    server.clone(),
                    TierConfig::default().with_workers(clients + SPARE_WORKERS),
                )
                .map_err(|e| format!("bind serving tier: {e}"))?,
            ),
            _ => None,
        };
        let addr = tier.as_ref().map(TcpServingTier::local_addr);
        let mut synced = Vec::with_capacity(clients);
        let mut syncs = Vec::with_capacity(clients);
        for _ in 0..clients {
            let mut client = match addr {
                Some(addr) => {
                    let tcp = Arc::new(TcpTransport::new(addr).map_err(|e| e.to_string())?);
                    let retry = Arc::new(RetryingTransport::new(tcp, RetryPolicy::default()));
                    Client {
                        client: SafeBrowsingClient::new(client_config(), retry.clone()),
                        retry: Some(retry),
                    }
                }
                None => Client {
                    client: SafeBrowsingClient::in_process(client_config(), server.clone()),
                    retry: None,
                },
            };
            let started = Instant::now();
            client
                .client
                .update()
                .map_err(|e| format!("initial sync: {e}"))?;
            syncs.push(started.elapsed());
            synced.push(client);
        }
        Ok(World {
            clients: synced,
            tier,
            server,
            setup: started.elapsed(),
            syncs,
            ingest,
        })
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Latency of each check call in ns; `u64::MAX` for a failed one.
    pub check_ns: Vec<u64>,
    /// Latency of each `update()` exchange in ns.
    pub update_ns: Vec<u64>,
    /// URLs checked.
    pub urls: u64,
    /// Check calls attempted.
    pub checks: u64,
    /// Check calls that returned an error.
    pub failed_checks: u64,
    /// Update exchanges that returned an error.
    pub failed_updates: u64,
    /// URLs in passes that ran to the end.
    pub pass_urls: u64,
    /// Time those passes took, their leading update included.
    pub pass_time: Duration,
    /// URLs per second, all threads: each thread's whole-pass URLs over
    /// the time of its whole passes, summed.
    pub urls_per_s: f64,
    /// Median check latency of each whole pass, in ns.
    pub pass_p50_ns: Vec<u64>,
    /// 99th-percentile check latency of each whole pass, in ns.
    pub pass_p99_ns: Vec<u64>,
    /// Prefixes revealed in passes that ran to the end.
    pub pass_reveals: u64,
    /// Heap allocations made inside check calls.
    pub allocs: u64,
    /// Number of correctness failures.
    pub error_count: u64,
    /// The first few correctness failures.
    pub errors: Vec<String>,
}

impl ClientRun {
    /// Records a correctness failure.
    pub fn error(&mut self, message: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }

    /// Ends one thread's measurement: sets its whole-pass rate.
    pub fn finish_thread(&mut self) {
        self.urls_per_s = ratio(self.pass_urls as f64, self.pass_time.as_secs_f64());
    }

    /// The check latency in ns that three passes in four stay under, for
    /// the per-pass statistic `per_pass` (median or 99th percentile).  On a
    /// shared host whose speed swings for seconds at a time, this is
    /// steadier from run to run than a percentile over all checks.
    pub fn worse_quartile(per_pass: &[u64]) -> u64 {
        let mut sorted = per_pass.to_vec();
        sorted.sort_unstable();
        quantile(&sorted, 0.75)
    }

    /// Folds another thread's run into this one.
    pub fn merge(&mut self, other: ClientRun) {
        self.check_ns.extend(other.check_ns);
        self.update_ns.extend(other.update_ns);
        self.urls += other.urls;
        self.checks += other.checks;
        self.failed_checks += other.failed_checks;
        self.failed_updates += other.failed_updates;
        self.pass_urls += other.pass_urls;
        self.pass_time += other.pass_time;
        self.urls_per_s += other.urls_per_s;
        self.pass_p50_ns.extend(other.pass_p50_ns);
        self.pass_p99_ns.extend(other.pass_p99_ns);
        self.pass_reveals += other.pass_reveals;
        self.allocs += other.allocs;
        self.error_count += other.error_count;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// Runs passes of `stream` on `client` from pass `pass` until `deadline`
/// or `max_passes` passes; returns the next pass to run.
///
/// A pass starts with an emptied full-hash cache and disclosure ledger,
/// after one `update()` exchange paced with the churn writer when `pace` is
/// given.  Every verdict is
/// checked against the generator's, and every pass's reveals against the
/// client's ledger, its `prefixes_sent` counter and, for a whole pass, the
/// generator's count.
pub fn drive(
    client: &mut SafeBrowsingClient,
    stream: &Stream,
    mut pass: usize,
    deadline: Instant,
    max_passes: usize,
    pace: Option<&Pace>,
    run: &mut ClientRun,
) -> usize {
    let mut refs: Vec<&str> = Vec::with_capacity(stream.check_size);
    for _ in 0..max_passes {
        let p = pass % stream.passes();
        pass += 1;
        let started = Instant::now();
        if started >= deadline {
            break;
        }
        if let Some(pace) = pace {
            pace.settle();
            let update = Instant::now();
            if let Err(e) = client.update() {
                run.failed_updates += 1;
                run.error(format!("update failed: {e}"));
            }
            run.update_ns.push(update.elapsed().as_nanos() as u64);
            pace.release();
        }
        client.clear_cache();
        client.clear_disclosure_ledger();
        let sent_before = client.metrics().prefixes_sent;
        let failed_before = run.failed_checks;
        let first_check = run.check_ns.len();
        let mut now = Instant::now();
        let mut whole = true;
        for c in 0..stream.pass_checks {
            if now >= deadline {
                whole = false;
                break;
            }
            let (urls, expected) = stream.check(p, c);
            refs.clear();
            refs.extend(urls.iter().map(String::as_str));
            let allocs = thread_allocations();
            let start = Instant::now();
            // `Vec::new` does not allocate, so a single-URL check counts
            // only the client's own allocations.
            let outcome = if refs.len() == 1 {
                client.check_url(refs[0]).map(|o| (Some(o), Vec::new()))
            } else {
                client.check_urls(&refs).map(|page| (None, page))
            };
            now = Instant::now();
            run.allocs += thread_allocations() - allocs;
            run.checks += 1;
            run.urls += urls.len() as u64;
            match outcome {
                Ok((one, page)) => {
                    run.check_ns.push((now - start).as_nanos() as u64);
                    let outcomes = one.as_slice().iter().chain(&page);
                    for ((outcome, &malicious), url) in outcomes.zip(expected).zip(urls) {
                        if outcome.is_malicious() != malicious {
                            run.error(format!(
                                "{url}: verdict malicious={} but the generator says {malicious}",
                                outcome.is_malicious()
                            ));
                        }
                    }
                }
                Err(e) => {
                    run.check_ns.push(u64::MAX);
                    run.failed_checks += 1;
                    run.error(format!("check failed: {e}"));
                }
            }
        }
        let sent = (client.metrics().prefixes_sent - sent_before) as u64;
        let ledger = client.disclosure_ledger().prefixes_revealed() as u64;
        if run.failed_checks == failed_before {
            if ledger != sent {
                run.error(format!(
                    "pass {p}: ledger holds {ledger} prefixes, prefixes_sent grew by {sent}"
                ));
            }
            if whole {
                let expected = stream.pass_reveals[p] as u64;
                if sent != expected {
                    run.error(format!(
                        "pass {p}: revealed {sent} prefixes, the generator expects {expected}"
                    ));
                }
                run.pass_urls += stream.pass_urls() as u64;
                run.pass_time += now - started;
                let mut latencies = run.check_ns[first_check..].to_vec();
                latencies.sort_unstable();
                run.pass_p50_ns.push(quantile(&latencies, 0.50));
                run.pass_p99_ns.push(quantile(&latencies, 0.99));
                run.pass_reveals += sent;
            }
        }
        if !whole {
            break;
        }
    }
    pass
}

/// Writer ticks released per `update_churn` pass.
pub const TICKS_PER_PASS: usize = 16;

/// Lock-step between the `update_churn` clients and the writer: each pass
/// releases [`TICKS_PER_PASS`] writer ticks, which land while the pass's
/// checks run, and the next pass's update waits until all have landed.
/// Every update exchange thus sees the same churn, and none overlaps a
/// journal compaction the writer triggered, whatever the scheduling.
#[derive(Debug, Default)]
pub struct Pace {
    released: AtomicUsize,
    done: AtomicUsize,
    stop: AtomicBool,
}

impl Pace {
    /// A pace whose writer starts at tick `tick`.
    pub fn new(tick: usize) -> Self {
        Pace {
            released: AtomicUsize::new(tick),
            done: AtomicUsize::new(tick),
            stop: AtomicBool::new(false),
        }
    }

    /// Waits until the writer has applied every released tick.
    pub fn settle(&self) {
        while self.done.load(Ordering::SeqCst) < self.released.load(Ordering::SeqCst)
            && !self.stop.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Releases the ticks of one more pass.
    pub fn release(&self) {
        self.released.fetch_add(TICKS_PER_PASS, Ordering::SeqCst);
    }

    /// Tells the writer to return.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The `update_churn` writer: applies released ticks, one per
    /// [`CHURN_TICK`], until stopped.  Each tick adds one fresh batch and
    /// removes one batch of the original bulk.  Returns the next tick.
    pub fn write(&self, server: &SafeBrowsingServer, inputs: &Inputs) -> usize {
        while !self.stop.load(Ordering::SeqCst) {
            let tick = self.done.load(Ordering::SeqCst);
            if tick == self.released.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if let Some((adds, removes)) = inputs.churn_tick(tick) {
                server
                    .inject_prefixes(LIST, adds.iter().map(|&p| Prefix::from_u32(p)))
                    .expect("the list exists");
                server
                    .remove_prefixes(LIST, removes.iter().map(|&p| Prefix::from_u32(p)))
                    .expect("the list exists");
            }
            self.done.store(tick + 1, Ordering::SeqCst);
            std::thread::sleep(CHURN_TICK);
        }
        self.done.load(Ordering::SeqCst)
    }
}

/// Runs every client of `world` for one warm-up pass, then for `seconds`
/// from a common start, with the churn writer running on `update_churn`
/// from tick `tick`.  Returns the merged run and the next writer tick.
pub fn measure(
    world: &mut World,
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    tick: usize,
) -> (ClientRun, usize) {
    let churning = workload == Workload::UpdateChurn;
    let barrier = Barrier::new(world.clients.len() + 1 + usize::from(churning));
    let pace = Pace::new(tick);
    let span = Duration::from_secs_f64(seconds);
    let server = &world.server;
    std::thread::scope(|scope| {
        let (barrier, pace) = (&barrier, &pace);
        let writer = churning.then(|| {
            scope.spawn(move || {
                barrier.wait();
                pace.write(server, inputs)
            })
        });
        let pace = churning.then_some(pace);
        let handles: Vec<_> = world
            .clients
            .iter_mut()
            .zip(&inputs.streams)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut run = ClientRun::default();
                    let far = Instant::now() + Duration::from_secs(3600);
                    let next = drive(&mut client.client, stream, 0, far, 1, pace, &mut run);
                    let mut measured = ClientRun {
                        errors: run.errors,
                        error_count: run.error_count,
                        ..ClientRun::default()
                    };
                    barrier.wait();
                    let deadline = Instant::now() + span;
                    drive(
                        &mut client.client,
                        stream,
                        next,
                        deadline,
                        usize::MAX,
                        pace,
                        &mut measured,
                    );
                    measured.finish_thread();
                    measured
                })
            })
            .collect();
        barrier.wait();
        let mut total = ClientRun::default();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked"));
        }
        let tick = writer.map_or(tick, |w| {
            pace.map(Pace::stop);
            w.join().expect("churn writer panicked")
        });
        (total, tick)
    })
}
