//! The TCP serving tier: real sockets in front of any
//! [`SafeBrowsingService`].
//!
//! [`TcpServingTier`] binds a `std::net` listener and serves the wire
//! protocol of `sb-wire` — one length-prefixed frame per request, one frame
//! back (the response on success, a typed error frame carrying the
//! provider's [`ServiceError`] on failure).  An accept loop feeds accepted
//! connections to a **fixed worker-thread pool**; each worker serves one
//! connection at a time, frame by frame, so `workers` bounds both thread
//! count and concurrently-served connections.
//!
//! The tier fronts *any* service: a bare [`SafeBrowsingServer`], a
//! [`ShardedProvider`] fleet, or — via [`TcpServingTier::bind_per_connection`]
//! — a fresh [`ObservingService`] tap per accepted connection, which is what
//! makes the observing-adversary experiments honest over real sockets: the
//! adversary's view is the per-connection byte stream, exactly as deployed.
//!
//! # Shutdown contract
//!
//! [`TcpServingTier::shutdown`] (also run on drop) is deterministic: it
//! stops accepting, wakes the accept loop, lets every in-flight request
//! finish and its response flush, closes the connections, joins all
//! threads, and releases the listener — repeated bind/drop cycles never
//! leak a port or hit address-in-use.
//!
//! [`SafeBrowsingServer`]: crate::SafeBrowsingServer
//! [`ShardedProvider`]: crate::ShardedProvider
//! [`ObservingService`]: crate::ObservingService

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sb_protocol::{SafeBrowsingService, ServiceError};
use sb_telemetry::{Telemetry, TraceKind};
use sb_wire::{
    crc32, decode_payload, encode_frame, read_payload, FrameHeader, Message, HEADER_LEN,
};

/// The service handle a serving tier fronts.
pub type DynService = Arc<dyn SafeBrowsingService + Send + Sync>;

/// Where the tier gets the service that answers a connection's requests.
enum ServiceSource {
    /// Every connection talks to the same shared service.
    Shared(DynService),
    /// Each accepted connection gets its own service — e.g. a fresh
    /// `ObservingService` tap, so observation streams are per-connection.
    PerConnection(Box<dyn Fn() -> DynService + Send + Sync>),
}

/// Tuning knobs of a [`TcpServingTier`].
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Worker threads (= connections served concurrently).
    pub workers: usize,
    /// How often blocked workers re-check the shutdown flag.  Bounds
    /// shutdown latency; it is **not** a request timeout.
    pub poll_interval: Duration,
    /// Read deadline for the remainder of a frame once its first byte
    /// arrived — a stalled or trickling peer is disconnected after this.
    pub frame_io_timeout: Duration,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            workers: 4,
            poll_interval: Duration::from_millis(20),
            frame_io_timeout: Duration::from_secs(30),
        }
    }
}

impl TierConfig {
    /// Sets the worker-pool width.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

sb_telemetry::stats! {
    /// Wire-level counters of a serving tier (monotonic; snapshot via
    /// [`TcpServingTier::stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WireStats {
        /// Connections accepted by the listener.
        pub connections_accepted: u64 = counter,
        /// Connections fully served and closed.
        pub connections_closed: u64 = counter,
        /// Request frames decoded.
        pub frames_received: u64 = counter,
        /// Response (or error) frames handed to the socket.  Counted before
        /// the write, so a peer that has read a reply always sees it here.
        pub frames_sent: u64 = counter,
        /// Bytes read off the sockets (headers + payloads).
        pub bytes_received: u64 = counter,
        /// Bytes of the reply frames handed to the socket.
        pub bytes_sent: u64 = counter,
        /// Frames rejected by the codec (hostile or corrupted input).
        pub protocol_errors: u64 = counter,
        /// Frames whose payload failed its CRC — corruption in transit, not a
        /// hostile peer, so these are answered with a *retryable* error frame
        /// (counted here in addition to `protocol_errors`).
        pub checksum_failures: u64 = counter,
    }
    struct WireHandles("wire");
}

struct TierShared {
    source: ServiceSource,
    telemetry: Telemetry,
    stats: WireHandles,
    stop: AtomicBool,
    config: TierConfig,
}

/// A TCP listener serving the Safe Browsing wire protocol in front of any
/// [`SafeBrowsingService`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sb_protocol::{FullHashRequest, Provider, ThreatCategory};
/// use sb_server::{SafeBrowsingServer, TcpServingTier, TierConfig};
/// use sb_wire::{read_message, write_message, Message};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = Arc::new(SafeBrowsingServer::new(Provider::Google));
/// server.create_list("goog-malware-shavar", ThreatCategory::Malware);
/// let digest = server.blacklist_url("goog-malware-shavar", "http://evil.example/")?;
///
/// let tier = TcpServingTier::bind(server, TierConfig::default())?;
/// let mut conn = std::net::TcpStream::connect(tier.local_addr())?;
/// let request = Message::FullHashRequests(vec![
///     FullHashRequest::new(vec![digest.prefix32()]),
/// ]);
/// write_message(&mut conn, &request)?;
/// let (reply, _) = read_message(&mut conn)?;
/// match reply {
///     Message::FullHashResponses(responses) => {
///         assert!(responses[0].contains_digest(&digest));
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// tier.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct TcpServingTier {
    shared: Arc<TierShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServingTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServingTier")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.worker_handles.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TcpServingTier {
    /// Binds a loopback listener on an ephemeral port (`127.0.0.1:0`) in
    /// front of a shared service.  Using port 0 keeps tests and benches
    /// free of fixed-port collisions; the chosen port is
    /// [`Self::local_addr`].
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener or spawning the tier's
    /// threads (a partial pool is joined and released first).
    pub fn bind<S>(service: Arc<S>, config: TierConfig) -> std::io::Result<Self>
    where
        S: SafeBrowsingService + Send + Sync + 'static,
    {
        Self::bind_addr("127.0.0.1:0", service, config)
    }

    /// [`Self::bind`] with a caller-supplied [`Telemetry`]: the tier's
    /// wire counters register in the shared registry (under `wire.*`), so
    /// one scrape spans the tier and whatever else shares the handle.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener or spawning the tier's
    /// threads (a partial pool is joined and released first).
    pub fn bind_with_telemetry<S>(
        service: Arc<S>,
        config: TierConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<Self>
    where
        S: SafeBrowsingService + Send + Sync + 'static,
    {
        Self::start_with_telemetry(
            "127.0.0.1:0",
            ServiceSource::Shared(service),
            config,
            telemetry,
        )
    }

    /// Binds a listener on an explicit address in front of a shared
    /// service.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener or spawning the tier's
    /// threads (a partial pool is joined and released first).
    pub fn bind_addr<S>(
        addr: impl ToSocketAddrs,
        service: Arc<S>,
        config: TierConfig,
    ) -> std::io::Result<Self>
    where
        S: SafeBrowsingService + Send + Sync + 'static,
    {
        Self::start(addr, ServiceSource::Shared(service), config)
    }

    /// Binds a loopback listener that calls `factory` once per accepted
    /// connection — the hook for per-connection decoration, e.g. a fresh
    /// [`ObservingService`](crate::ObservingService) tap so each TCP
    /// connection records its own observation stream.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener or spawning the tier's
    /// threads (a partial pool is joined and released first).
    pub fn bind_per_connection(
        factory: impl Fn() -> DynService + Send + Sync + 'static,
        config: TierConfig,
    ) -> std::io::Result<Self> {
        Self::start(
            "127.0.0.1:0",
            ServiceSource::PerConnection(Box::new(factory)),
            config,
        )
    }

    fn start(
        addr: impl ToSocketAddrs,
        source: ServiceSource,
        config: TierConfig,
    ) -> std::io::Result<Self> {
        // Without a caller-supplied handle the tier keeps a private plane,
        // preserving the per-tier semantics of `stats()`.
        Self::start_with_telemetry(addr, source, config, Telemetry::default())
    }

    fn start_with_telemetry(
        addr: impl ToSocketAddrs,
        source: ServiceSource,
        config: TierConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let stats = WireHandles::register(&telemetry);
        let shared = Arc::new(TierShared {
            source,
            telemetry,
            stats,
            stop: AtomicBool::new(false),
            config,
        });

        // A rendezvous-ish queue: accepted connections wait here until a
        // worker frees up.  Bounded so a connection flood backs up into the
        // kernel accept queue instead of unbounded process memory.
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 16);
        let rx = Arc::new(Mutex::new(rx));

        // Thread spawning can fail (resource exhaustion); a tier that
        // silently aborts mid-construction would leak the threads it did
        // spawn.  Propagate the error after unwinding the partial pool:
        // signalling stop and dropping `tx`/`rx` unblocks any worker
        // already running, so the joins below cannot hang.
        let mut worker_handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
        for i in 0..workers {
            let spawned = {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("sb-tier-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
            };
            match spawned {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => {
                    shared.stop.store(true, Ordering::SeqCst);
                    drop(tx);
                    drop(rx);
                    for handle in worker_handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }

        let accept_spawned = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sb-tier-accept".to_string())
                .spawn(move || accept_loop(&shared, listener, tx))
        };
        let accept_handle = match accept_spawned {
            Ok(handle) => handle,
            Err(e) => {
                shared.stop.store(true, Ordering::SeqCst);
                drop(rx);
                for handle in worker_handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        };

        Ok(TcpServingTier {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The address the tier is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the tier's wire-level counters.
    pub fn stats(&self) -> WireStats {
        self.shared.stats.view()
    }

    /// The telemetry plane the tier publishes into — the shared handle
    /// when bound via [`Self::bind_with_telemetry`], a private one
    /// otherwise.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, join
    /// every thread, release the listener.  Returns the final wire
    /// counters.  Dropping the tier shuts down the same way.
    pub fn shutdown(mut self) -> WireStats {
        self.shutdown_inner();
        self.shared.stats.view()
    }

    fn shutdown_inner(&mut self) {
        if self.accept_handle.is_none() && self.worker_handles.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The accept loop dropped the queue sender on exit, so idle workers
        // see a disconnected queue and busy workers see the stop flag after
        // their in-flight frame completes.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServingTier {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(shared: &TierShared, listener: TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue, // transient accept failure
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection, or a late client
        }
        shared.stats.connections_accepted.inc();
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                // Every worker busy and the queue full: shed load instead
                // of buffering unboundedly.  Dropping the stream sends RST;
                // the client's transport surfaces it as retryable.
                drop(stream);
                shared.stats.connections_closed.inc();
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // `tx` drops here: idle workers unblock immediately.
}

fn worker_loop(shared: &TierShared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = {
            // A panic in a sibling worker poisons this lock; the receiver
            // itself is still sound (its state is independent of whatever
            // the panicking thread was doing), so recover it rather than
            // cascading the panic across the whole pool.
            let rx = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            rx.recv_timeout(shared.config.poll_interval)
        };
        match next {
            Ok(stream) => serve_connection(shared, stream),
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Why a connection's frame loop ended.
enum ConnectionEnd {
    /// Peer closed, I/O failed, or the tier is shutting down.
    Done,
    /// The peer sent bytes the codec rejected: answer with a typed error
    /// frame, then close (a desynchronized stream cannot be trusted).
    Protocol(ServiceError),
}

fn serve_connection(shared: &TierShared, mut stream: TcpStream) {
    let service: DynService = match &shared.source {
        ServiceSource::Shared(service) => Arc::clone(service),
        ServiceSource::PerConnection(factory) => factory(),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.frame_io_timeout));

    loop {
        match read_request(shared, &mut stream) {
            Ok(Some(message)) => {
                let reply = dispatch(shared, &service, message);
                if !write_reply(shared, &mut stream, &reply) {
                    break;
                }
            }
            Ok(None) => break,
            Err(ConnectionEnd::Done) => break,
            Err(ConnectionEnd::Protocol(error)) => {
                shared.stats.protocol_errors.inc();
                write_reply(shared, &mut stream, &Message::Error(error));
                break;
            }
        }
    }
    shared.stats.connections_closed.inc();
}

/// Reads one request frame.  `Ok(None)` means the connection is over
/// cleanly (peer closed, or shutdown drained it).  The first header byte is
/// awaited under the short poll interval so shutdown stays responsive; the
/// rest of the frame is read under the (much longer) frame I/O deadline.
fn read_request(
    shared: &TierShared,
    stream: &mut TcpStream,
) -> Result<Option<Message>, ConnectionEnd> {
    let mut header = [0u8; HEADER_LEN];
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    loop {
        match stream.read(&mut header[..1]) {
            Ok(0) => return Ok(None), // clean close between frames
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(None); // idle at shutdown: nothing in flight
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ConnectionEnd::Done),
        }
    }

    // A frame has started: it is now in flight and gets served even if
    // shutdown begins meanwhile.
    let _ = stream.set_read_timeout(Some(shared.config.frame_io_timeout));
    if stream.read_exact(&mut header[1..]).is_err() {
        return Err(ConnectionEnd::Done);
    }
    let parsed = match FrameHeader::decode(&header) {
        Ok(parsed) => parsed,
        Err(e) => {
            return Err(ConnectionEnd::Protocol(ServiceError::MalformedRequest {
                reason: e.to_string(),
            }))
        }
    };
    let Ok(payload) = read_payload(stream, parsed.payload_len) else {
        return Err(ConnectionEnd::Done);
    };
    shared.stats.frames_received.inc();
    shared
        .stats
        .bytes_received
        .add((HEADER_LEN + payload.len()) as u64);
    if crc32(&payload) != parsed.checksum {
        // Corruption in transit, not a hostile peer: the same request
        // resent over a fresh connection would likely succeed, so the
        // error frame is *retryable* — the client's retry policy rides it
        // out instead of failing the lookup.
        shared.stats.checksum_failures.inc();
        return Err(ConnectionEnd::Protocol(ServiceError::Unavailable {
            reason: "frame payload failed its checksum (corrupted in transit)".into(),
        }));
    }
    match decode_payload(parsed.frame_type, &payload) {
        Ok(message) => Ok(Some(message)),
        Err(e) => Err(ConnectionEnd::Protocol(ServiceError::MalformedRequest {
            reason: e.to_string(),
        })),
    }
}

/// Routes a decoded request to the service; any [`ServiceError`] becomes a
/// typed error frame.  Telemetry scrapes are answered by the tier itself
/// (the service never sees them): the reply is a snapshot of the tier's
/// registry, which — when the tier was bound with a shared [`Telemetry`] —
/// spans every layer publishing into it.
fn dispatch(shared: &TierShared, service: &DynService, message: Message) -> Message {
    match message {
        Message::UpdateRequest(request) => match service.update(&request) {
            Ok(response) => Message::UpdateResponse(response),
            Err(error) => Message::Error(error),
        },
        Message::FullHashRequests(requests) => match service.full_hashes_batch(&requests) {
            Ok(responses) => Message::FullHashResponses(responses),
            Err(error) => Message::Error(error),
        },
        Message::TelemetryRequest => {
            let snapshot = shared.telemetry.snapshot();
            shared
                .telemetry
                .event(TraceKind::Scrape, snapshot.counters.len() as u64);
            Message::Telemetry(snapshot)
        }
        other => Message::Error(ServiceError::MalformedRequest {
            reason: format!(
                "unexpected {:?} frame on the request side of a connection",
                other.frame_type()
            ),
        }),
    }
}

/// Writes one reply frame; returns false when the connection should close.
fn write_reply(shared: &TierShared, stream: &mut TcpStream, reply: &Message) -> bool {
    let frame = match encode_frame(reply) {
        Ok(frame) => frame,
        Err(e) => {
            // A response too large (or otherwise unencodable) must still
            // answer the request: degrade to a retryable error frame.
            let fallback = Message::Error(ServiceError::Unavailable {
                reason: format!("response could not be encoded: {e}"),
            });
            match encode_frame(&fallback) {
                Ok(frame) => frame,
                Err(_) => return false,
            }
        }
    };
    // Counted before the write: once the peer can read the reply, a scrape
    // it sends next must already see it.
    shared.stats.frames_sent.inc();
    shared.stats.bytes_sent.add(frame.len() as u64);
    stream.write_all(&frame).is_ok() && stream.flush().is_ok()
}
