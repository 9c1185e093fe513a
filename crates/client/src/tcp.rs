//! A connection-pooled TCP [`Transport`] speaking the `sb-wire` protocol.
//!
//! [`TcpTransport`] is the client end of `sb_server::TcpServingTier`: each
//! provider exchange is one request frame and one reply frame over a pooled
//! `std::net::TcpStream`.  Because it implements the ordinary [`Transport`]
//! trait, everything stacked on transports — `RetryingTransport`, the
//! query-shaping pipeline, `UpdateDriver`, the experiments — runs over real
//! kernel round trips with zero call-site changes.
//!
//! # Error mapping
//!
//! * Connect/read/write failures and truncated streams surface as the
//!   retryable [`ServiceError::Unavailable`] — a dead socket says nothing
//!   about the request, so retry policy applies.
//! * A reply that fails its CRC-32 also surfaces as the retryable
//!   [`ServiceError::Unavailable`]: corruption the checksum caught is
//!   transient wire damage, and resending is exactly the right response.
//!   The connection is dropped (the stream can no longer be trusted).
//! * Frames that arrive intact but fail to decode, and replies of the
//!   wrong type, surface as the non-retryable
//!   [`ServiceError::MalformedResponse`] — the peer is speaking, just not
//!   our protocol.
//! * A typed error frame is the provider's own [`ServiceError`], returned
//!   verbatim (a backoff stays a backoff across the wire).
//!
//! A request sent on a *reused* pooled connection that dies before a reply
//! is retried once on a fresh connection before reporting `Unavailable`:
//! the likely cause is the server having closed an idle connection, which
//! is not worth bubbling to retry policy.
//!
//! # Deadline budgets
//!
//! Under [`Transport::full_hashes_batch_within`] /
//! [`Transport::update_within`], the per-frame I/O timeouts are derived
//! from the **remaining** [`DeadlineBudget`] (capped by the configured
//! defaults, floored at [`sb_protocol::MIN_IO_TIMEOUT`]) and the measured
//! wall time of every attempt is charged back, so a stalling server
//! cannot eat more of a batch's deadline than the budget allows.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sb_protocol::{
    DeadlineBudget, FullHashRequest, FullHashResponse, ServiceError, UpdateRequest, UpdateResponse,
};
use sb_telemetry::{RegistrySnapshot, Telemetry};
use sb_wire::{encode_frame, read_message, FrameType, Message, WireError};

use crate::transport::Transport;

sb_telemetry::stats! {
    /// Wire-level counters of a [`TcpTransport`] (monotonic; snapshot via
    /// [`TcpTransport::stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TcpTransportStats {
        /// Fresh TCP connections opened.
        pub connections_opened: u64 = counter,
        /// Round trips that reused a pooled connection.
        pub connections_reused: u64 = counter,
        /// Transparent reconnects after a reused connection turned out dead.
        pub reconnects: u64 = counter,
        /// Completed request/reply exchanges.
        pub round_trips: u64 = counter,
        /// Bytes written to the sockets (headers + payloads).
        pub bytes_sent: u64 = counter,
        /// Bytes read off the sockets.
        pub bytes_received: u64 = counter,
    }
    struct TcpHandles("tcp_client");
}

/// A pooled TCP connection to a `TcpServingTier` (or anything speaking the
/// `sb-wire` protocol), usable as a [`Transport`].
///
/// Connections are reused across round trips (bounded idle pool), opened
/// lazily, and replaced transparently when a pooled one has gone stale.
/// The transport is `Send + Sync`: concurrent callers each check out their
/// own connection, so a shared `Arc<TcpTransport>` serves a whole fleet of
/// client threads.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
    max_idle: usize,
    connect_timeout: Duration,
    io_timeout: Duration,
    telemetry: Telemetry,
    handles: TcpHandles,
}

impl TcpTransport {
    /// Creates a transport for `addr`.  No connection is opened until the
    /// first round trip.
    ///
    /// # Errors
    ///
    /// An I/O error when `addr` does not resolve to any socket address.
    pub fn new(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let telemetry = Telemetry::new();
        let handles = TcpHandles::register(&telemetry);
        Ok(TcpTransport {
            addr,
            pool: Mutex::new(Vec::new()),
            max_idle: 4,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            telemetry,
            handles,
        })
    }

    /// Publishes this transport's `tcp_client.*` counters into `telemetry`
    /// instead of the private default plane.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.handles = TcpHandles::register(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane this transport publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Caps how many idle connections the pool keeps (default 4).
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle;
        self
    }

    /// Sets the connect and per-frame I/O deadlines (defaults 5 s / 30 s).
    ///
    /// # Panics
    ///
    /// Panics when either duration is zero: the OS rejects
    /// `set_read_timeout(Some(Duration::ZERO))` outright and
    /// `connect_timeout` cannot wait for no time, so a zero here is a
    /// configuration bug that must not vanish into a per-call I/O error.
    pub fn with_timeouts(mut self, connect: Duration, io: Duration) -> Self {
        assert!(
            !connect.is_zero(),
            "connect timeout must be non-zero (the OS rejects a zero timeout)"
        );
        assert!(
            !io.is_zero(),
            "I/O timeout must be non-zero (the OS rejects a zero timeout)"
        );
        self.connect_timeout = connect;
        self.io_timeout = io;
        self
    }

    /// The server address this transport talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the transport's wire-level counters — a view over the
    /// `tcp_client.*` metrics in the telemetry registry.
    pub fn stats(&self) -> TcpTransportStats {
        self.handles.view()
    }

    /// Scrapes the *server's* telemetry registry over the wire: one
    /// `TelemetryRequest` frame out, one `Telemetry` frame back, carrying
    /// a point-in-time [`RegistrySnapshot`] of everything the serving tier
    /// publishes.
    ///
    /// # Errors
    ///
    /// The same error mapping as any other round trip; a peer that does
    /// not implement the admin pair answers with a [`ServiceError`] frame,
    /// surfaced verbatim.
    pub fn scrape_telemetry(&self) -> Result<RegistrySnapshot, ServiceError> {
        match self.round_trip(&Message::TelemetryRequest, FrameType::Telemetry, None)? {
            Message::Telemetry(snapshot) => Ok(snapshot),
            _ => unreachable!("round_trip returned a non-matching frame type"),
        }
    }

    /// Idle connections currently pooled.
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().expect("tcp pool lock poisoned").len()
    }

    /// Pops a pooled connection, or opens a fresh one under
    /// `connect_timeout` (already capped by the budget, if any).  The bool
    /// is "this connection was reused" — the caller's licence for one
    /// transparent retry.
    fn checkout(&self, connect_timeout: Duration) -> Result<(TcpStream, bool), ServiceError> {
        if let Some(stream) = self.pool.lock().expect("tcp pool lock poisoned").pop() {
            self.handles.connections_reused.inc();
            return Ok((stream, true));
        }
        let stream = TcpStream::connect_timeout(&self.addr, connect_timeout).map_err(|e| {
            ServiceError::Unavailable {
                reason: format!("connect to {} failed: {e}", self.addr),
            }
        })?;
        let _ = stream.set_nodelay(true); // a failed hint costs latency, not correctness
        self.handles.connections_opened.inc();
        Ok((stream, false))
    }

    /// Arms both per-frame I/O deadlines on a connection.  A socket that
    /// cannot take a timeout is a socket that could block a lookup thread
    /// forever, so the error is surfaced (retryably — the socket is
    /// broken, not the request) instead of being discarded.
    fn arm_io_deadlines(
        &self,
        stream: &TcpStream,
        io_timeout: Duration,
    ) -> Result<(), ServiceError> {
        stream
            .set_read_timeout(Some(io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
            .map_err(|e| ServiceError::Unavailable {
                reason: format!(
                    "could not arm I/O deadline on connection to {}: {e}",
                    self.addr
                ),
            })
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().expect("tcp pool lock poisoned");
        if pool.len() < self.max_idle {
            pool.push(stream);
        }
    }

    /// One frame out, one frame back.  `Err` is "this socket is dead"
    /// (eligible for the reused-connection retry); protocol-level outcomes
    /// come back as `Ok` and are classified by the caller.
    fn exchange(&self, stream: &mut TcpStream, frame: &[u8]) -> Result<(Message, u64), WireError> {
        stream.write_all(frame)?;
        stream.flush()?;
        read_message(stream)
    }

    /// The connect/I/O deadlines for one attempt: the configured defaults,
    /// capped by the remaining budget when one is in force.  A budget that
    /// is already spent refuses the attempt outright (retryably, so the
    /// caller's retry layer — which also watches the budget — decides).
    fn attempt_deadlines(
        &self,
        budget: Option<&DeadlineBudget>,
    ) -> Result<(Duration, Duration), ServiceError> {
        match budget {
            None => Ok((self.connect_timeout, self.io_timeout)),
            Some(budget) => {
                if budget.is_exhausted() {
                    return Err(ServiceError::Unavailable {
                        reason: format!(
                            "deadline budget of {:?} exhausted before contacting {}",
                            budget.total(),
                            self.addr
                        ),
                    });
                }
                Ok((
                    budget.cap_timeout(self.connect_timeout),
                    budget.cap_timeout(self.io_timeout),
                ))
            }
        }
    }

    /// Runs a full round trip, retrying once on a fresh connection when a
    /// reused one turns out dead.  Every attempt's measured wall time is
    /// charged against the budget, if one is in force.
    fn round_trip(
        &self,
        request: &Message,
        expect: FrameType,
        budget: Option<&DeadlineBudget>,
    ) -> Result<Message, ServiceError> {
        let frame = encode_frame(request).map_err(|e| ServiceError::MalformedRequest {
            reason: format!("request could not be encoded: {e}"),
        })?;
        let mut first_failure: Option<WireError> = None;
        loop {
            let (connect_timeout, io_timeout) = self.attempt_deadlines(budget)?;
            let started = Instant::now();
            let (mut stream, reused) = self.checkout(connect_timeout)?;
            self.arm_io_deadlines(&stream, io_timeout)?;
            let attempt = self.exchange(&mut stream, &frame);
            if let Some(budget) = budget {
                budget.charge(started.elapsed());
            }
            match attempt {
                Ok((reply, bytes_in)) => {
                    self.handles.bytes_sent.add(frame.len() as u64);
                    self.handles.bytes_received.add(bytes_in);
                    self.handles.round_trips.inc();
                    return self.classify(stream, reply, expect);
                }
                Err(error) if error.transport_level() && reused && first_failure.is_none() => {
                    // The pooled connection died under us (most likely the
                    // server dropped it while idle): one fresh attempt.
                    self.handles.reconnects.inc();
                    first_failure = Some(error);
                }
                Err(error) if error.transport_level() => {
                    return Err(ServiceError::Unavailable {
                        reason: match first_failure {
                            Some(first) => format!(
                                "round trip to {} failed twice: {first}; then {error}",
                                self.addr
                            ),
                            None => format!("round trip to {} failed: {error}", self.addr),
                        },
                    });
                }
                Err(WireError::ChecksumMismatch) => {
                    // The reply arrived but its payload fails the CRC:
                    // corruption in transit, not a protocol disagreement.
                    // The connection is dropped (the stream may be
                    // desynchronized) and the failure is retryable —
                    // resending is the correct response to wire damage.
                    return Err(ServiceError::Unavailable {
                        reason: format!(
                            "reply from {} failed its checksum (corrupted in transit)",
                            self.addr
                        ),
                    });
                }
                Err(error) => {
                    // Bytes arrived intact but the codec rejected them: the
                    // peer is speaking another protocol, so the connection
                    // is dropped and the failure is not retried.
                    return Err(ServiceError::MalformedResponse {
                        reason: format!("reply from {} rejected: {error}", self.addr),
                    });
                }
            }
        }
    }

    /// Sorts a decoded reply into "expected response" / "provider error" /
    /// "protocol violation", returning healthy connections to the pool.
    fn classify(
        &self,
        stream: TcpStream,
        reply: Message,
        expect: FrameType,
    ) -> Result<Message, ServiceError> {
        match reply {
            Message::Error(error) => {
                // The connection is healthy — the *service* said no.
                self.checkin(stream);
                Err(error)
            }
            reply if reply.frame_type() == expect => {
                self.checkin(stream);
                Ok(reply)
            }
            reply => {
                // Wrong frame type: request/reply pairing is broken, so the
                // connection cannot be trusted again.
                drop(stream);
                Err(ServiceError::MalformedResponse {
                    reason: format!("expected a {expect:?} frame, got {:?}", reply.frame_type()),
                })
            }
        }
    }
}

impl TcpTransport {
    fn update_round_trip(
        &self,
        request: &UpdateRequest,
        budget: Option<&DeadlineBudget>,
    ) -> Result<UpdateResponse, ServiceError> {
        match self.round_trip(
            &Message::UpdateRequest(request.clone()),
            FrameType::UpdateResponse,
            budget,
        )? {
            Message::UpdateResponse(response) => Ok(response),
            _ => unreachable!("round_trip returned a non-matching frame type"),
        }
    }

    fn full_hashes_round_trip(
        &self,
        requests: &[FullHashRequest],
        budget: Option<&DeadlineBudget>,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        if requests.is_empty() {
            return Ok(Vec::new()); // batch contract: empty batch is a no-op
        }
        match self.round_trip(
            &Message::FullHashRequests(requests.to_vec()),
            FrameType::FullHashResponses,
            budget,
        )? {
            Message::FullHashResponses(responses) => Ok(responses),
            _ => unreachable!("round_trip returned a non-matching frame type"),
        }
    }
}

impl Transport for TcpTransport {
    fn update(&self, request: &UpdateRequest) -> Result<UpdateResponse, ServiceError> {
        self.update_round_trip(request, None)
    }

    fn full_hashes_batch(
        &self,
        requests: &[FullHashRequest],
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.full_hashes_round_trip(requests, None)
    }

    fn update_within(
        &self,
        request: &UpdateRequest,
        budget: &DeadlineBudget,
    ) -> Result<UpdateResponse, ServiceError> {
        self.update_round_trip(request, Some(budget))
    }

    fn full_hashes_batch_within(
        &self,
        requests: &[FullHashRequest],
        budget: &DeadlineBudget,
    ) -> Result<Vec<FullHashResponse>, ServiceError> {
        self.full_hashes_round_trip(requests, Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_protocol::MIN_IO_TIMEOUT;

    /// A transport that is never connected: `new` only resolves the
    /// address, so the discard port is fine for deadline arithmetic.
    fn idle_transport() -> TcpTransport {
        TcpTransport::new("127.0.0.1:9").expect("loopback address resolves")
    }

    #[test]
    fn without_a_budget_the_configured_defaults_apply() {
        let transport = idle_transport();
        let (connect, io) = transport.attempt_deadlines(None).unwrap();
        assert_eq!(connect, Duration::from_secs(5));
        assert_eq!(io, Duration::from_secs(30));

        let tuned =
            idle_transport().with_timeouts(Duration::from_millis(250), Duration::from_millis(750));
        let (connect, io) = tuned.attempt_deadlines(None).unwrap();
        assert_eq!(connect, Duration::from_millis(250));
        assert_eq!(io, Duration::from_millis(750));
    }

    #[test]
    fn a_nearly_spent_budget_clamps_both_deadlines_to_the_floor() {
        let transport = idle_transport();
        // 800 ms budget with all but one nanosecond charged: not yet
        // exhausted, so the attempt proceeds — but both deadlines clamp up
        // to the 1 ms floor rather than collapsing to a sub-millisecond
        // value the OS would reject.
        let budget = DeadlineBudget::new(Duration::from_millis(800));
        budget.charge(Duration::from_millis(800) - Duration::from_nanos(1));
        assert!(!budget.is_exhausted());
        let (connect, io) = transport.attempt_deadlines(Some(&budget)).unwrap();
        assert_eq!(connect, MIN_IO_TIMEOUT);
        assert_eq!(io, MIN_IO_TIMEOUT);
    }

    #[test]
    fn an_exhausted_budget_refuses_the_attempt_retryably() {
        let transport = idle_transport();
        let budget = DeadlineBudget::new(Duration::from_millis(100));
        budget.charge(Duration::from_millis(100));
        let err = transport.attempt_deadlines(Some(&budget)).unwrap_err();
        assert!(
            matches!(err, ServiceError::Unavailable { .. }),
            "expected Unavailable, got {err:?}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn a_partially_spent_budget_caps_only_the_larger_default() {
        let transport = idle_transport();
        let budget = DeadlineBudget::new(Duration::from_secs(10));
        budget.charge(Duration::from_secs(4));
        let (connect, io) = transport.attempt_deadlines(Some(&budget)).unwrap();
        // 6 s remain: the 5 s connect default fits, the 30 s I/O default
        // is capped down to what is left.
        assert_eq!(connect, Duration::from_secs(5));
        assert_eq!(io, Duration::from_secs(6));
    }
}
