//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, prints the end-to-end metrics of one workload; with
//! `--trace 1`, the per-layer metrics of a traced replay of the same
//! inputs.  The last line of standard output is the result object.  The
//! exit code is 0 only when every verdict and every reveal count was right.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use perfbench::replay::{Replay, SyncCost, FRAMES};
use perfbench::report::{
    median, median_f64, nproc, peak_rss_mb, quantile, ratio, result_line, HostFacts, END_TO_END,
    PER_LAYER,
};
use perfbench::run::{measure, ClientRun, Pace, World, CHURN_TICK};
use perfbench::trace::{self_times, write_spans, SpanName};
use perfbench::workload::{Inputs, Workload};
use perfbench::DEFAULT_SEED;
use sb_telemetry::{Telemetry, TraceKind};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Spans after which a replay thread starts no new pass.
const MAX_SPANS: usize = 150_000;
/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let args = parse_args();
    let facts = HostFacts::collect(args.seed);
    let host = facts.to_json(args.workload.name(), args.trace);
    println!("host {host}");
    let clients = args.workload.clients(facts.nproc);
    let ticks = ((args.seconds + 10.0) / CHURN_TICK.as_secs_f64()) as usize;
    let generated = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed, clients, ticks);
    eprintln!(
        "[{}] inputs: {} clients x {} URLs in {:.2} s",
        args.workload.name(),
        clients,
        inputs.streams[0].urls.len(),
        generated.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        traced(&args, &inputs, clients, &host)
    } else {
        untraced(&args, &inputs, clients)
    };
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

fn report_errors(run: &ClientRun) {
    for e in &run.errors {
        eprintln!("INCORRECT: {e}");
    }
    if run.error_count > run.errors.len() as u64 {
        eprintln!(
            "INCORRECT: ... {} more",
            run.error_count - run.errors.len() as u64
        );
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn untraced(args: &Args, inputs: &Inputs, clients: usize) -> Result<(String, bool), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut syncs: Vec<u64> = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let built = World::build(args.workload, inputs, clients)?;
        setups.push(built.setup.as_secs_f64());
        syncs.extend(built.syncs.iter().map(|d| d.as_nanos() as u64));
        world = Some(built);
    }
    let mut world = world.expect("at least one set-up");
    eprintln!("[{}] set-ups: {setups:?} s", args.workload.name());
    let (mut run, _) = measure(&mut world, args.workload, inputs, args.seconds, 0);
    drop(world);
    report_errors(&run);
    if run.pass_urls == 0 {
        return Err("no pass ran to its end: raise --seconds".to_string());
    }
    // The read-only workloads' only update exchanges are the initial syncs.
    if args.workload != Workload::UpdateChurn {
        run.update_ns.extend(syncs);
    }
    run.check_ns.sort_unstable();
    run.update_ns.sort_unstable();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("setup_s", median_f64(&mut setups));
    metrics.insert("urls_per_s", run.urls_per_s);
    metrics.insert(
        "check_p50_us",
        us(ClientRun::worse_quartile(&run.pass_p50_ns)),
    );
    metrics.insert(
        "check_p99_us",
        us(ClientRun::worse_quartile(&run.pass_p99_ns)),
    );
    metrics.insert("update_p50_ms", ms(quantile(&run.update_ns, 0.50)));
    metrics.insert("update_p90_ms", ms(quantile(&run.update_ns, 0.90)));
    metrics.insert(
        "revealed_per_1k_urls",
        run.pass_reveals as f64 * 1000.0 / run.pass_urls as f64,
    );
    metrics.insert("peak_rss_mb", peak_rss_mb().ok_or("VmHWM is not readable")?);
    eprintln!(
        "[{}] {} checks ({} URLs), {} whole passes, {} update samples; over all checks \
         p50 {:.3} us, p99 {:.3} us",
        args.workload.name(),
        run.checks,
        run.urls,
        run.pass_p50_ns.len(),
        run.update_ns.len(),
        us(quantile(&run.check_ns, 0.50)),
        us(quantile(&run.check_ns, 0.99)),
    );
    let attempted = run.checks + run.update_ns.len() as u64;
    let failed = run.failed_checks + run.failed_updates;
    let correct = run.error_count == 0;
    Ok((
        result_line(correct, attempted, failed, END_TO_END, &metrics),
        correct,
    ))
}

/// Mean ns per `Histogram::record` plus `Telemetry::event`, with `threads`
/// threads recording on one plane at once; the median of five rounds.
fn telemetry_record_ns(threads: usize) -> f64 {
    const RECORDS: u64 = 200_000;
    let telemetry = Telemetry::new();
    let histogram = telemetry.metrics().histogram("perfbench.record_ns");
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let barrier = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let started = Instant::now();
                            for i in 0..RECORDS {
                                histogram.record(std::hint::black_box(i));
                                telemetry.event(TraceKind::Lookup, i & 1);
                            }
                            started.elapsed().as_nanos() as f64 / RECORDS as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("telemetry thread panicked"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / per_thread.len() as f64
        })
        .collect();
    median_f64(&mut rounds)
}

fn median_ns(values: &[u64]) -> u64 {
    median(&mut values.to_vec())
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    clients: usize,
    host: &str,
) -> Result<(String, bool), String> {
    let name = args.workload.name();
    let phase = args.seconds * 0.4;
    let mut world = World::build(args.workload, inputs, clients)?;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert("server.ingest_ms", world.ingest.as_secs_f64() * 1e3);

    // Untraced baseline, and the counters the real clients keep.
    let lookups = |w: &World| -> (usize, usize) {
        w.clients.iter().fold((0, 0), |(l, r), c| {
            let m = c.client.metrics();
            (l + m.lookups, r + m.full_hash_round_trips)
        })
    };
    let store = |w: &World| -> (u64, u64) {
        w.clients.iter().fold((0, 0), |(d, r), c| {
            let s = c.client.database_store_stats();
            (d + s.deltas_absorbed, r + s.rebuilds)
        })
    };
    let (lookups_before, trips_before) = lookups(&world);
    let (deltas_before, rebuilds_before) = store(&world);
    let (untraced, tick) = measure(&mut world, args.workload, inputs, phase, 0);
    let (lookups_after, trips_after) = lookups(&world);
    let (deltas_after, rebuilds_after) = store(&world);
    let untraced_rate = untraced.urls_per_s;
    metrics.insert("trace.untraced_urls_per_s", untraced_rate);
    metrics.insert(
        "client.round_trips_per_1k_urls",
        ratio(
            (trips_after - trips_before) as f64 * 1000.0,
            (lookups_after - lookups_before) as f64,
        ),
    );
    metrics.insert(
        "client.allocs_per_url",
        ratio(untraced.allocs as f64, untraced.urls as f64),
    );
    metrics.insert(
        "client.retry.retries",
        world
            .clients
            .iter()
            .filter_map(|c| c.retry.as_ref())
            .map(|r| r.stats().retries)
            .sum::<usize>() as f64,
    );
    metrics.insert(
        "store.deltas_absorbed",
        (deltas_after - deltas_before) as f64,
    );
    metrics.insert("store.rebuilds", (rebuilds_after - rebuilds_before) as f64);
    metrics.insert(
        "store.db_bytes",
        world.clients[0].client.database_memory_bytes() as f64,
    );
    // Close the real clients' connections: each holds a tier worker.
    world.clients.clear();

    // Traced replay of the same streams, from the first pass.
    let epoch = Instant::now();
    let addr = world.tier.as_ref().map(|t| t.local_addr());
    let churning = args.workload == Workload::UpdateChurn;
    let barrier = Barrier::new(clients + 1 + usize::from(churning));
    let pace = Pace::new(tick);
    let server = &world.server;
    let (replays, syncs) = std::thread::scope(|scope| {
        let (barrier, pace) = (&barrier, &pace);
        let writer = churning.then(|| {
            scope.spawn(move || {
                barrier.wait();
                pace.write(server, inputs)
            })
        });
        let paced = churning.then_some(pace);
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .map(|stream| {
                scope.spawn(move || -> Result<(Replay, SyncCost), String> {
                    let synced = Replay::sync(server.clone(), addr, epoch, MAX_SPANS);
                    barrier.wait();
                    let (mut replay, cost) = synced?;
                    let deadline = Instant::now() + Duration::from_secs_f64(phase);
                    replay.drive(stream, 0, deadline, MAX_SPANS, paced);
                    Ok((replay, cost))
                })
            })
            .collect();
        barrier.wait();
        let mut replays = Vec::new();
        let mut syncs = Vec::new();
        let mut failure = None;
        for handle in handles {
            match handle.join().expect("replay thread panicked") {
                Ok((replay, cost)) => {
                    replays.push(replay);
                    syncs.push(cost);
                }
                Err(e) => failure = Some(e),
            }
        }
        pace.stop();
        if let Some(w) = writer {
            w.join().expect("churn writer panicked");
        }
        match failure {
            Some(e) => Err(e),
            None => Ok((replays, syncs)),
        }
    })?;

    let traced_rate: f64 = replays.iter().map(|r| r.run.urls_per_s).sum();
    metrics.insert("trace.urls_per_s", traced_rate);
    metrics.insert("trace.overhead_ratio", ratio(untraced_rate, traced_rate));

    let mut by_name: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
    let mut selfs: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
    let (mut root_ns, mut covered_ns, mut spans) = (0u64, 0u64, 0usize);
    for replay in &replays {
        let recorded = replay.recorder.spans();
        spans += recorded.len();
        for (span, self_ns) in recorded.iter().zip(self_times(recorded)) {
            by_name
                .entry(span.name as u8)
                .or_default()
                .push(span.duration());
            selfs.entry(span.name as u8).or_default().push(self_ns);
            if span.parent.is_none() {
                root_ns += span.duration();
                covered_ns += span.duration() - self_ns;
            }
        }
    }
    let durations = |n: SpanName| by_name.get(&(n as u8)).map_or(0, |v| median_ns(v));
    let self_of = |n: SpanName| selfs.get(&(n as u8)).map_or(0, |v| median_ns(v));
    metrics.insert("trace.spans", spans as f64);
    metrics.insert(
        "trace.coverage_ratio",
        ratio(covered_ns as f64, root_ns as f64),
    );
    metrics.insert("url.canonicalize_ns", durations(SpanName::Parse) as f64);
    metrics.insert("url.decompose_ns", self_of(SpanName::Decompose) as f64);
    metrics.insert("hash.sha256_ns", durations(SpanName::Sha256) as f64);
    metrics.insert("store.probe_ns", durations(SpanName::Probe) as f64);
    metrics.insert("client.check_self_ns", self_of(SpanName::Check) as f64);
    metrics.insert("client.shaper.shape_ns", durations(SpanName::Shape) as f64);
    metrics.insert(
        "client.apply_delta_ms",
        ms(durations(SpanName::ApplyChunks)),
    );

    let tcp = args.workload == Workload::FullhashTcp;
    let sum = |f: &dyn Fn(&Replay) -> u64| -> f64 { replays.iter().map(f).sum::<u64>() as f64 };
    let urls = sum(&|r| r.counts.urls);
    let decompositions = sum(&|r| r.counts.decompositions);
    let hit_urls = sum(&|r| r.counts.hit_urls);
    metrics.insert("url.decompositions_per_url", ratio(decompositions, urls));
    metrics.insert("hash.digests_per_url", ratio(decompositions, urls));
    metrics.insert("store.local_hit_ratio", ratio(hit_urls, urls));
    metrics.insert(
        "store.false_hit_ratio",
        ratio(sum(&|r| r.counts.false_hit_urls), hit_urls),
    );
    metrics.insert(
        "client.cache.hit_ratio",
        ratio(
            sum(&|r| r.counts.cached_prefixes),
            sum(&|r| r.counts.hit_prefixes),
        ),
    );
    metrics.insert(
        "wire.bytes_per_url",
        ratio(sum(&|r| r.aux.full_hash_bytes), urls),
    );
    let pooled = |f: &dyn Fn(&Replay) -> &Vec<u64>| -> u64 {
        let mut all: Vec<u64> = replays.iter().flat_map(|r| f(r).iter().copied()).collect();
        median(&mut all)
    };
    for (i, frame) in FRAMES.iter().enumerate() {
        let encode = pooled(&|r| &r.aux.encode_ns[i]) as f64;
        let decode = pooled(&|r| &r.aux.decode_ns[i]) as f64;
        let key = |kind: &str| -> &'static str {
            let name = format!("wire.{kind}_ns.{frame}");
            PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(n, _)| *n)
                .expect("codec metrics are declared")
        };
        metrics.insert(key("encode"), encode);
        metrics.insert(key("decode"), decode);
    }
    metrics.insert(
        "server.full_hashes_ns",
        pooled(&|r| &r.aux.resolve_ns) as f64,
    );
    metrics.insert("server.update_ms", ms(pooled(&|r| &r.aux.server_update_ns)));
    let (round_trip, wait) = if tcp {
        (durations(SpanName::FullHashes), pooled(&|r| &r.aux.wait_ns))
    } else {
        (0, 0)
    };
    metrics.insert("client.tcp.round_trip_us", us(round_trip));
    metrics.insert("client.tcp.wait_us", us(wait));

    let sync_ms = |f: &dyn Fn(&SyncCost) -> Duration| -> f64 {
        let mut v: Vec<f64> = syncs.iter().map(|s| f(s).as_secs_f64() * 1e3).collect();
        median_f64(&mut v)
    };
    metrics.insert("server.sync_update_ms", sync_ms(&|s| s.server_update));
    metrics.insert("wire.sync_encode_ms", sync_ms(&|s| s.encode));
    metrics.insert("wire.sync_decode_ms", sync_ms(&|s| s.decode));
    metrics.insert("client.apply_chunks_ms", sync_ms(&|s| s.apply));

    let journal = world.server.journal_stats();
    metrics.insert(
        "server.journal_chunks",
        (journal.add_chunks + journal.sub_chunks) as f64,
    );
    metrics.insert("server.journal_compactions", journal.compactions as f64);
    let frames_per_connection = world.tier.as_ref().map_or(0.0, |t| {
        let stats = t.stats();
        ratio(
            stats.frames_received as f64,
            stats.connections_accepted as f64,
        )
    });
    metrics.insert("server.frames_per_connection", frames_per_connection);
    drop(world);

    metrics.insert("telemetry.record_ns", telemetry_record_ns(1));
    metrics.insert(
        "telemetry.record_contended_ns",
        telemetry_record_ns(nproc()),
    );

    // Spans go to disk only now that nothing is being timed.
    std::fs::create_dir_all(SPAN_DIR).map_err(|e| format!("{SPAN_DIR}: {e}"))?;
    let path = format!("{SPAN_DIR}/{name}.spans.tsv");
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let written = (|| -> std::io::Result<()> {
        writeln!(out, "# {host}")?;
        writeln!(
            out,
            "thread\tspan\tname\tparent\trequest\tstart_ns\tend_ns\tself_ns"
        )?;
        for (thread, replay) in replays.iter().enumerate() {
            write_spans(&mut out, thread, replay.recorder.spans())?;
        }
        out.flush()
    })();
    written.map_err(|e| format!("{path}: {e}"))?;
    eprintln!("[{name}] wrote {spans} spans to {path}");

    let mut all = untraced;
    for replay in replays {
        all.merge(replay.run);
    }
    report_errors(&all);
    let attempted = all.checks + all.update_ns.len() as u64;
    let failed = all.failed_checks + all.failed_updates;
    let correct = all.error_count == 0;
    Ok((
        result_line(correct, attempted, failed, PER_LAYER, &metrics),
        correct,
    ))
}
