//! The traced run: each check replayed through the layers' public
//! functions in the client's order — parse, decompose, digest, probe,
//! shape, transport — with a span around every call.
//!
//! The replay owns the same parts a client owns (a `LocalDatabase`, a
//! `FullHashCache`, an `ExactShaper`, a transport of the workload's kind)
//! and produces verdicts, which are checked like the untraced run's.
//! Codec and provider costs are timed again after each exchange, on the
//! same messages, outside the check's spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_client::{
    DatabaseReader, ExactShaper, FullHashCache, InProcessTransport, LocalDatabase, QueryShaper,
    RetryPolicy, RetryingTransport, ShaperHit, TcpTransport, Transport,
};
use sb_hash::{digest_url, Digest, PrefixLen};
use sb_protocol::{FullHashRequest, SafeBrowsingService, UpdateRequest};
use sb_server::SafeBrowsingServer;
use sb_store::StoreBackend;
use sb_url::{visit_decompositions, CanonicalUrl, DecomposeScratch};
use sb_wire::{decode_frame, encode_frame, Message};

use crate::run::{ClientRun, Pace};
use crate::trace::{Recorder, SpanName};
use crate::workload::{Stream, LIST};

/// Frame kinds timed by the codec measurements, in metric order.
pub const FRAMES: [&str; 4] = [
    "full_hash_requests",
    "full_hash_responses",
    "update_request",
    "update_response",
];

/// Timings taken off the critical path, on the messages the replay sent.
#[derive(Debug, Default)]
pub struct Aux {
    /// `encode_frame` ns per message, by [`FRAMES`] index.
    pub encode_ns: [Vec<u64>; 4],
    /// `decode_frame` ns per message, by [`FRAMES`] index.
    pub decode_ns: [Vec<u64>; 4],
    /// Direct `full_hashes_batch` calls on the provider.
    pub resolve_ns: Vec<u64>,
    /// Direct `update` calls on the provider.
    pub server_update_ns: Vec<u64>,
    /// Per TCP round trip: its span minus codec and provider time.
    pub wait_ns: Vec<u64>,
    /// Wall time spent on these off-path timings, kept out of the rate.
    pub spent: Duration,
    /// Encoded bytes of the full-hash frames, both directions.
    pub full_hash_bytes: u64,
}

/// Counts the replay makes at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// URLs replayed.
    pub urls: u64,
    /// Decompositions visited (one digest and one probe each).
    pub decompositions: u64,
    /// URLs with at least one local hit.
    pub hit_urls: u64,
    /// URLs with a local hit that the provider did not confirm.
    pub false_hit_urls: u64,
    /// Local-hit prefixes handed to the shaper.
    pub hit_prefixes: u64,
    /// Of those, the ones the cache had resolved.
    pub cached_prefixes: u64,
}

/// One-off costs of the replay's initial sync.
#[derive(Debug, Clone, Copy)]
pub struct SyncCost {
    /// `SafeBrowsingService::update` on the provider for the empty state.
    pub server_update: Duration,
    /// `encode_frame` of the full update response.
    pub encode: Duration,
    /// `decode_frame` of it.
    pub decode: Duration,
    /// `LocalDatabase::apply_chunks` of it.
    pub apply: Duration,
}

/// A client rebuilt from the layers' public parts.
pub struct Replay {
    database: LocalDatabase,
    reader: DatabaseReader,
    cache: FullHashCache,
    shaper: ExactShaper,
    transport: Box<dyn Transport>,
    tcp: bool,
    server: Arc<SafeBrowsingServer>,
    scratch: DecomposeScratch,
    /// The replay's traced work.
    pub recorder: Recorder,
    /// Off-path timings.
    pub aux: Aux,
    /// Boundary counts.
    pub counts: Counts,
    /// Checks, verdicts and reveals, as in the untraced run.
    pub run: ClientRun,
}

struct Hit {
    url: usize,
    digest: Digest,
    domain_root: bool,
    expression_len: usize,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

impl Replay {
    /// A replay client of `server`, over TCP to `tcp_addr` when given, in
    /// process otherwise, synced with the provider's full list.
    pub fn sync(
        server: Arc<SafeBrowsingServer>,
        tcp_addr: Option<std::net::SocketAddr>,
        epoch: Instant,
        span_capacity: usize,
    ) -> Result<(Replay, SyncCost), String> {
        let transport: Box<dyn Transport> = match tcp_addr {
            Some(addr) => Box::new(RetryingTransport::new(
                Arc::new(TcpTransport::new(addr).map_err(|e| e.to_string())?),
                RetryPolicy::default(),
            )),
            None => Box::new(InProcessTransport::new(server.clone())),
        };
        let mut database = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
        database.subscribe(LIST);
        let request = UpdateRequest {
            lists: database.update_request_lists(),
        };
        let started = Instant::now();
        drop(server.update(&request));
        let server_update = started.elapsed();
        let response = transport
            .update(&request)
            .map_err(|e| format!("replay sync: {e}"))?;
        let message = Message::UpdateResponse(response);
        let started = Instant::now();
        let frame = encode_frame(&message).map_err(|e| e.to_string())?;
        let encode = started.elapsed();
        let started = Instant::now();
        drop(decode_frame(&frame).map_err(|e| e.to_string())?);
        let decode = started.elapsed();
        drop(frame);
        let Message::UpdateResponse(response) = message else {
            unreachable!("built as an update response above")
        };
        let started = Instant::now();
        database
            .apply_chunks(&response.chunks)
            .map_err(|e| format!("replay sync: {e}"))?;
        let apply = started.elapsed();
        let reader = database.reader();
        Ok((
            Replay {
                database,
                reader,
                cache: FullHashCache::new(),
                shaper: ExactShaper,
                transport,
                tcp: tcp_addr.is_some(),
                server,
                scratch: DecomposeScratch::new(),
                recorder: Recorder::new(epoch, span_capacity),
                aux: Aux::default(),
                counts: Counts::default(),
                run: ClientRun::default(),
            },
            SyncCost {
                server_update,
                encode,
                decode,
                apply,
            },
        ))
    }

    /// Times `encode_frame` and `decode_frame` on `message`, of kind
    /// `frame`; returns the encoded length and the time both took.
    fn codec(&mut self, frame: usize, message: &Message) -> (u64, u64) {
        let begun = Instant::now();
        let bytes = encode_frame(message).expect("a message the replay sent encodes");
        let encode = nanos(begun.elapsed());
        let started = Instant::now();
        let decoded = decode_frame(&bytes).expect("an encoded frame decodes");
        let decode = nanos(started.elapsed());
        drop(decoded);
        self.aux.spent += begun.elapsed();
        self.aux.encode_ns[frame].push(encode);
        self.aux.decode_ns[frame].push(decode);
        (bytes.len() as u64, encode + decode)
    }

    /// One traced update exchange; returns false on failure.
    fn update(&mut self) -> bool {
        let rec = &mut self.recorder;
        rec.next_request();
        let root = rec.open(SpanName::Update, None);
        let request = UpdateRequest {
            lists: self.database.update_request_lists(),
        };
        let transport = &self.transport;
        let response = rec.time(SpanName::TransportUpdate, Some(root), || {
            transport.update(&request)
        });
        let outcome = match response {
            Ok(response) => {
                let database = &mut self.database;
                rec.time(SpanName::ApplyChunks, Some(root), || {
                    database.apply_chunks(&response.chunks)
                })
                .map(|_| response)
                .map_err(|e| e.to_string())
            }
            Err(e) => Err(e.to_string()),
        };
        rec.close(root);
        self.run
            .update_ns
            .push(rec.spans()[root as usize].duration());
        let message = Message::UpdateRequest(request);
        self.codec(2, &message);
        let Message::UpdateRequest(request) = message else {
            unreachable!("built as an update request above")
        };
        let started = Instant::now();
        drop(self.server.update(&request));
        self.aux.spent += started.elapsed();
        self.aux.server_update_ns.push(nanos(started.elapsed()));
        match outcome {
            Ok(response) => {
                self.codec(3, &Message::UpdateResponse(response));
                true
            }
            Err(e) => {
                self.run.failed_updates += 1;
                self.run.error(format!("replay update failed: {e}"));
                false
            }
        }
    }

    /// One traced check of `urls`; returns the prefixes it revealed, or
    /// `None` when it failed.
    fn check(&mut self, urls: &[String], expected: &[bool]) -> Option<u64> {
        let rec = &mut self.recorder;
        rec.next_request();
        let root = rec.open(SpanName::Check, None);
        let mut hits: Vec<Hit> = Vec::new();
        for (u, url) in urls.iter().enumerate() {
            let parsed = rec.time(SpanName::Parse, Some(root), || CanonicalUrl::parse(url));
            let canonical = match parsed {
                Ok(canonical) => canonical,
                Err(e) => {
                    rec.close(root);
                    self.run.error(format!("{url}: does not parse: {e}"));
                    return None;
                }
            };
            let decompose = rec.open(SpanName::Decompose, Some(root));
            let reader = &self.reader;
            let counts = &mut self.counts;
            let before = hits.len();
            visit_decompositions(&canonical, &mut self.scratch, |d| {
                counts.decompositions += 1;
                let digest = rec.time(SpanName::Sha256, Some(decompose), || {
                    digest_url(d.expression())
                });
                let hit = rec.time(SpanName::Probe, Some(decompose), || {
                    reader.contains(&digest.prefix32())
                });
                if hit {
                    hits.push(Hit {
                        url: u,
                        digest,
                        domain_root: d.is_domain_root(),
                        expression_len: d.expression().len(),
                    });
                }
            });
            rec.close(decompose);
            counts.urls += 1;
            counts.hit_urls += u64::from(hits.len() > before);
        }

        let mut revealed = 0;
        let mut exchange = None;
        if !hits.is_empty() {
            let cache = &self.cache;
            let shaper_hits: Vec<ShaperHit> = hits
                .iter()
                .map(|h| ShaperHit {
                    url: h.url,
                    prefix: h.digest.prefix32(),
                    domain_root: h.domain_root,
                    expression_len: h.expression_len,
                    cached: cache.is_resolved(&h.digest.prefix32()),
                })
                .collect();
            self.counts.hit_prefixes += shaper_hits.len() as u64;
            self.counts.cached_prefixes += shaper_hits.iter().filter(|h| h.cached).count() as u64;
            let shaper = &self.shaper;
            let plan = rec.time(SpanName::Shape, Some(root), || shaper.shape(&shaper_hits));
            let planned: Vec<_> = plan
                .requests
                .into_iter()
                .filter(|r| !r.prefixes.is_empty())
                .collect();
            let wire: Vec<FullHashRequest> = planned
                .iter()
                .map(|r| FullHashRequest::new(r.prefixes.clone()))
                .collect();
            if !wire.is_empty() {
                let transport = &self.transport;
                let span = rec.open(SpanName::FullHashes, Some(root));
                let responses = transport.full_hashes_batch(&wire);
                rec.close(span);
                let round_trip = rec.spans()[span as usize].duration();
                match responses {
                    Ok(responses) if responses.len() == wire.len() => {
                        for (request, response) in planned.iter().zip(&responses) {
                            self.cache.store_response(&request.real, response);
                        }
                        revealed = wire.iter().map(|r| r.prefixes.len() as u64).sum();
                        exchange = Some((wire, responses, round_trip));
                    }
                    Ok(responses) => {
                        rec.close(root);
                        self.run.failed_checks += 1;
                        self.run.error(format!(
                            "{} responses to {} requests",
                            responses.len(),
                            wire.len()
                        ));
                        return None;
                    }
                    Err(e) => {
                        rec.close(root);
                        self.run.failed_checks += 1;
                        self.run
                            .error(format!("replay full-hash exchange failed: {e}"));
                        return None;
                    }
                }
            }
        }
        for (u, (&malicious, url)) in expected.iter().zip(urls).enumerate() {
            let mut url_hits = hits.iter().filter(|h| h.url == u).peekable();
            let had_hit = url_hits.peek().is_some();
            let confirmed = url_hits.any(|h| {
                self.cache
                    .digests(&h.digest.prefix32())
                    .is_some_and(|d| d.contains(&h.digest))
            });
            self.counts.false_hit_urls += u64::from(had_hit && !confirmed);
            if confirmed != malicious {
                self.run.error(format!(
                    "{url}: replayed verdict malicious={confirmed} but the generator says {malicious}"
                ));
            }
        }
        self.recorder.close(root);
        if let Some((wire, responses, round_trip)) = exchange {
            self.aux_full_hashes(&wire, responses, round_trip);
        }
        Some(revealed)
    }

    /// Off-path timings of one full-hash exchange: codec on both frames,
    /// the provider's resolve, and the TCP wait that remains.
    fn aux_full_hashes(
        &mut self,
        wire: &[FullHashRequest],
        responses: Vec<sb_protocol::FullHashResponse>,
        round_trip: u64,
    ) {
        let started = Instant::now();
        drop(self.server.full_hashes_batch(wire));
        self.aux.spent += started.elapsed();
        let resolve = nanos(started.elapsed());
        self.aux.resolve_ns.push(resolve);
        let (request_bytes, request_codec) =
            self.codec(0, &Message::FullHashRequests(wire.to_vec()));
        let (response_bytes, response_codec) =
            self.codec(1, &Message::FullHashResponses(responses));
        self.aux.full_hash_bytes += request_bytes + response_bytes;
        if self.tcp {
            self.aux
                .wait_ns
                .push(round_trip.saturating_sub(resolve + request_codec + response_codec));
        }
    }

    /// Replays passes of `stream` from pass `pass` until `deadline`, or
    /// until the recorder holds `max_spans` spans at the end of a pass, with
    /// an update exchange paced with the churn writer opening each pass when
    /// `pace` is given; returns the next pass.
    pub fn drive(
        &mut self,
        stream: &Stream,
        mut pass: usize,
        deadline: Instant,
        max_spans: usize,
        pace: Option<&Pace>,
    ) -> usize {
        loop {
            let p = pass % stream.passes();
            pass += 1;
            if Instant::now() >= deadline || self.recorder.len() >= max_spans {
                break;
            }
            let started = Instant::now();
            let aux_before = self.aux.spent;
            if let Some(pace) = pace {
                pace.settle();
                self.update();
                pace.release();
            }
            self.cache.clear();
            let mut sent = 0;
            let mut whole = true;
            for c in 0..stream.pass_checks {
                if Instant::now() >= deadline {
                    whole = false;
                    break;
                }
                let (urls, expected) = stream.check(p, c);
                self.run.checks += 1;
                self.run.urls += urls.len() as u64;
                match self.check(urls, expected) {
                    Some(revealed) => sent += revealed,
                    None => whole = false,
                }
            }
            if !whole {
                break;
            }
            let expected = stream.pass_reveals[p] as u64;
            if sent != expected {
                self.run.error(format!(
                    "replayed pass {p}: revealed {sent} prefixes, the generator expects {expected}"
                ));
            }
            self.run.pass_urls += stream.pass_urls() as u64;
            self.run.pass_time += started.elapsed() - (self.aux.spent - aux_before);
            self.run.pass_reveals += sent;
        }
        self.run.finish_thread();
        pass
    }
}
