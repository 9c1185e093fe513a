//! A deterministic fault-injecting TCP proxy for chaos testing the wire
//! stack.
//!
//! [`ChaosProxy`] sits between a `TcpTransport` and a
//! [`TcpServingTier`](crate::TcpServingTier) (or anything else speaking
//! the `sb-wire` protocol) and injects faults *on the wire*, where the
//! in-process fault injectors cannot reach: added latency, connection
//! resets mid-frame, partial writes that stall, byte corruption the CRC
//! layer must catch, blackholed requests, and slow-drip (slowloris-style)
//! replies.
//!
//! Determinism is the point.  Which exchange suffers which fault comes
//! from a [`ChaosSchedule`] — either a scripted per-exchange list or a
//! seeded pseudo-random stream — as a pure function of the global exchange
//! index, so the same seed and schedule replay the same fault sequence,
//! and tests assert on **exactly** what was injected via per-fault
//! counters ([`ChaosStats`]) and the ordered fault log
//! ([`ChaosProxy::fault_log`]).
//!
//! The proxy is frame-aware: it parses the 12-byte `sb-wire` header to
//! learn each frame's length, forwards whole frames, and counts one
//! *exchange* per request frame.  It never validates payloads — a
//! corrupting proxy must pass its own damage through untouched.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sb_telemetry::Telemetry;
use sb_wire::{HEADER_LEN, MAX_PAYLOAD};

/// One fault a [`ChaosProxy`] can inject into an exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Hold the request for this long before forwarding it (added
    /// latency; the exchange still completes).
    Delay(Duration),
    /// Forward the request, then send the client only a truncated prefix
    /// of the reply and close the connection abruptly — a reset
    /// mid-frame.
    ResetMidFrame,
    /// Forward the request, write half the reply, stall for `pause`, then
    /// close without finishing the frame — a partial write that hangs.
    Stall {
        /// How long the half-written frame hangs before the close.
        pause: Duration,
    },
    /// Flip a byte of the request before forwarding it upstream; the
    /// server's CRC check must catch it.
    CorruptRequest,
    /// Flip a byte of the reply before forwarding it to the client; the
    /// client's CRC check must catch it.
    CorruptReply,
    /// Swallow the request entirely: nothing is forwarded, the
    /// connection is closed with no reply.
    Blackhole,
    /// Dribble the reply to the client `chunk` bytes at a time with
    /// `pause` between chunks (slowloris; the exchange completes, slowly).
    SlowDrip {
        /// Bytes per write.
        chunk: usize,
        /// Pause between writes.
        pause: Duration,
    },
}

impl Fault {
    /// A short stable name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::Delay(_) => "delay",
            Fault::ResetMidFrame => "reset_mid_frame",
            Fault::Stall { .. } => "stall",
            Fault::CorruptRequest => "corrupt_request",
            Fault::CorruptReply => "corrupt_reply",
            Fault::Blackhole => "blackhole",
            Fault::SlowDrip { .. } => "slow_drip",
        }
    }
}

/// Decides which exchange (by global index) suffers which [`Fault`].
///
/// Both modes are pure functions of the exchange index, so a schedule
/// replayed over the same request sequence injects the identical fault
/// sequence — the property the chaos-determinism test pins down.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    mode: ScheduleMode,
}

#[derive(Debug, Clone)]
enum ScheduleMode {
    /// `faults[i]` is the fault (or none) for exchange `i`; exchanges
    /// beyond the script run clean.
    Scripted(Vec<Option<Fault>>),
    /// Every exchange whose mixed `(seed, index)` hash lands on a
    /// multiple of `period` draws a fault from the palette.
    Seeded {
        seed: u64,
        period: u64,
        palette: Vec<Fault>,
    },
}

impl ChaosSchedule {
    /// A schedule that injects nothing (a transparent proxy).
    pub fn clean() -> Self {
        ChaosSchedule {
            mode: ScheduleMode::Scripted(Vec::new()),
        }
    }

    /// A scripted schedule: exchange `i` suffers `faults[i]` (if `Some`);
    /// exchanges past the end of the script run clean.
    pub fn scripted(faults: Vec<Option<Fault>>) -> Self {
        ChaosSchedule {
            mode: ScheduleMode::Scripted(faults),
        }
    }

    /// A seeded schedule: roughly one exchange in `period` (chosen by a
    /// deterministic hash of `seed` and the exchange index) draws a fault
    /// from `palette` (also by hash).  `period = 0` or an empty palette
    /// injects nothing.
    pub fn seeded(seed: u64, period: u64, palette: Vec<Fault>) -> Self {
        ChaosSchedule {
            mode: ScheduleMode::Seeded {
                seed,
                period,
                palette,
            },
        }
    }

    /// The fault for global exchange `index`, if any.
    pub fn fault_for(&self, index: u64) -> Option<Fault> {
        match &self.mode {
            ScheduleMode::Scripted(faults) => {
                faults.get(usize::try_from(index).ok()?).cloned().flatten()
            }
            ScheduleMode::Seeded {
                seed,
                period,
                palette,
            } => {
                if *period == 0 || palette.is_empty() {
                    return None;
                }
                let h = splitmix64(seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                if !h.is_multiple_of(*period) {
                    return None;
                }
                Some(palette[(h >> 32) as usize % palette.len()].clone())
            }
        }
    }
}

/// splitmix64 finalizer — the deterministic hash behind seeded schedules.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

sb_telemetry::stats! {
    /// Per-fault counters of a [`ChaosProxy`] (monotonic; snapshot via
    /// [`ChaosProxy::stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChaosStats {
        /// Client connections accepted.
        pub connections: u64 = counter,
        /// Request frames seen (each is one exchange).
        pub exchanges: u64 = counter,
        /// Exchanges that suffered any fault.
        pub faults_injected: u64 = counter,
        /// [`Fault::Delay`] injections.
        pub delays: u64 = counter,
        /// [`Fault::ResetMidFrame`] injections.
        pub resets_mid_frame: u64 = counter,
        /// [`Fault::Stall`] injections.
        pub stalls: u64 = counter,
        /// [`Fault::CorruptRequest`] injections.
        pub corrupted_requests: u64 = counter,
        /// [`Fault::CorruptReply`] injections.
        pub corrupted_replies: u64 = counter,
        /// [`Fault::Blackhole`] injections.
        pub blackholes: u64 = counter,
        /// [`Fault::SlowDrip`] injections.
        pub slow_drips: u64 = counter,
    }
    /// Registered on a private plane per proxy, which is never shared, so
    /// the proxy's counts stay its own.
    struct ChaosHandles("chaos");
}

impl ChaosHandles {
    fn record(&self, fault: &Fault) {
        self.faults_injected.inc();
        let counter = match fault {
            Fault::Delay(_) => &self.delays,
            Fault::ResetMidFrame => &self.resets_mid_frame,
            Fault::Stall { .. } => &self.stalls,
            Fault::CorruptRequest => &self.corrupted_requests,
            Fault::CorruptReply => &self.corrupted_replies,
            Fault::Blackhole => &self.blackholes,
            Fault::SlowDrip { .. } => &self.slow_drips,
        };
        counter.inc();
    }
}

struct ProxyShared {
    upstream: SocketAddr,
    schedule: ChaosSchedule,
    stats: ChaosHandles,
    exchange_counter: AtomicU64,
    fault_log: Mutex<Vec<(u64, Fault)>>,
    stop: AtomicBool,
}

/// How often proxy threads re-check the shutdown flag while waiting for
/// the next request frame.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Deadline for the remainder of a frame once its first byte arrived, and
/// for upstream replies.  Generous — a stuck peer is a test bug, not a
/// scenario the proxy should mask.
const FRAME_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A deterministic fault-injecting TCP proxy; see the module-level
/// docs.
///
/// # Examples
///
/// ```no_run
/// use sb_server::{ChaosProxy, ChaosSchedule, Fault};
///
/// # fn demo(tier_addr: std::net::SocketAddr) -> std::io::Result<()> {
/// // Every exchange scripted: the second one is blackholed.
/// let proxy = ChaosProxy::start(
///     tier_addr,
///     ChaosSchedule::scripted(vec![None, Some(Fault::Blackhole)]),
/// )?;
/// // Point the client's TcpTransport at proxy.local_addr() instead of
/// // the tier; the retry layer rides out the injected fault.
/// let stats = proxy.shutdown();
/// assert_eq!(stats.blackholes, 1);
/// # Ok(())
/// # }
/// ```
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("upstream", &self.shared.upstream)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ChaosProxy {
    /// Binds the proxy on a loopback ephemeral port in front of
    /// `upstream`.  Clients connect to [`Self::local_addr`].
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn start(upstream: SocketAddr, schedule: ChaosSchedule) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            schedule,
            stats: ChaosHandles::register(&Telemetry::new()),
            exchange_counter: AtomicU64::new(0),
            fault_log: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let conn_handles = Arc::clone(&conn_handles);
            std::thread::Builder::new()
                .name("sb-chaos-accept".to_string())
                .spawn(move || accept_loop(&shared, listener, &conn_handles))?
        };
        Ok(ChaosProxy {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The address the proxy forwards to.
    pub fn upstream(&self) -> SocketAddr {
        self.shared.upstream
    }

    /// A snapshot of the per-fault counters — a view over the `chaos.*`
    /// counters on this proxy's own private telemetry plane (no other proxy
    /// or layer publishes into it).
    pub fn stats(&self) -> ChaosStats {
        self.shared.stats.view()
    }

    /// Every fault injected so far as `(exchange index, fault)`, in
    /// injection order — the determinism test's ground truth.
    pub fn fault_log(&self) -> Vec<(u64, Fault)> {
        self.shared
            .fault_log
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Stops accepting, joins every proxy thread, and returns the final
    /// counters.  Dropping the proxy shuts down the same way.
    pub fn shutdown(mut self) -> ChaosStats {
        self.shutdown_inner();
        self.shared.stats.view()
    }

    fn shutdown_inner(&mut self) {
        if self.accept_handle.is_none() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop out of its blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self
                .conn_handles
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    shared: &Arc<ProxyShared>,
    listener: TcpListener,
    conn_handles: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection, or a late client
        }
        shared.stats.connections.inc();
        let worker = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("sb-chaos-conn".to_string())
                .spawn(move || proxy_connection(&shared, stream))
        };
        if let Ok(handle) = worker {
            conn_handles
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(handle);
        }
        // A failed spawn drops the connection: the client sees a retryable
        // transport failure, exactly like load shedding.
    }
}

/// Reads one whole raw frame (header + payload) off `stream`.  `None`
/// means the connection ended cleanly or the proxy is shutting down.  The
/// first header byte is awaited under the short poll interval so shutdown
/// stays responsive.
fn read_raw_frame(
    stream: &mut TcpStream,
    shared: &ProxyShared,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut frame = vec![0u8; HEADER_LEN];
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    loop {
        match stream.read(&mut frame[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(FRAME_IO_TIMEOUT))?;
    stream.read_exact(&mut frame[1..])?;
    // Only the length field matters to the proxy; everything else passes
    // through opaque (including damage we inflicted ourselves).
    let payload_len = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame advertises an oversized payload",
        ));
    }
    let header_len = frame.len();
    frame.resize(header_len + payload_len, 0);
    stream.read_exact(&mut frame[header_len..])?;
    Ok(Some(frame))
}

/// Flips one payload byte (or, for an empty payload, the checksum's last
/// byte) so the CRC check on the receiving side must fire.
fn corrupt(frame: &mut [u8]) {
    if let Some(last) = frame.last_mut() {
        *last ^= 0xA5;
    }
}

/// Serves one client connection: request frame in, fault decision, reply
/// frame out.  Any I/O failure on either leg closes both ends — the
/// client's transport classifies that as retryable.
fn proxy_connection(shared: &ProxyShared, mut client: TcpStream) {
    let _ = client.set_nodelay(true);
    let upstream = match TcpStream::connect_timeout(&shared.upstream, FRAME_IO_TIMEOUT) {
        Ok(upstream) => upstream,
        Err(_) => return, // client sees the close; retry policy applies
    };
    let mut upstream = upstream;
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(FRAME_IO_TIMEOUT));
    let _ = upstream.set_write_timeout(Some(FRAME_IO_TIMEOUT));
    let _ = client.set_write_timeout(Some(FRAME_IO_TIMEOUT));

    loop {
        let mut request = match read_raw_frame(&mut client, shared) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let index = shared.exchange_counter.fetch_add(1, Ordering::SeqCst);
        shared.stats.exchanges.inc();
        let fault = shared.schedule.fault_for(index);
        if let Some(fault) = &fault {
            shared.stats.record(fault);
            shared
                .fault_log
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push((index, fault.clone()));
        }

        // Request-side faults.
        match &fault {
            Some(Fault::Blackhole) => return, // swallow request, close both ends
            Some(Fault::Delay(latency)) => std::thread::sleep(*latency),
            Some(Fault::CorruptRequest) => corrupt(&mut request),
            _ => {}
        }
        if upstream.write_all(&request).is_err() || upstream.flush().is_err() {
            return;
        }
        let reply = match read_upstream_reply(&mut upstream) {
            Some(reply) => reply,
            None => return,
        };

        // Reply-side faults.
        match fault {
            Some(Fault::ResetMidFrame) => {
                // Half a header is unambiguously mid-frame.
                let cut = (HEADER_LEN / 2).min(reply.len());
                let _ = client.write_all(&reply[..cut]);
                let _ = client.flush();
                return;
            }
            Some(Fault::Stall { pause }) => {
                let cut = reply.len() / 2;
                let _ = client.write_all(&reply[..cut]);
                let _ = client.flush();
                std::thread::sleep(pause);
                return;
            }
            Some(Fault::CorruptReply) => {
                let mut damaged = reply;
                corrupt(&mut damaged);
                if client.write_all(&damaged).is_err() || client.flush().is_err() {
                    return;
                }
            }
            Some(Fault::SlowDrip { chunk, pause }) => {
                let chunk = chunk.max(1);
                for piece in reply.chunks(chunk) {
                    if client.write_all(piece).is_err() || client.flush().is_err() {
                        return;
                    }
                    std::thread::sleep(pause);
                }
            }
            _ => {
                if client.write_all(&reply).is_err() || client.flush().is_err() {
                    return;
                }
            }
        }
    }
}

/// Reads the upstream's reply frame (plain blocking read under the frame
/// deadline; the upstream is our own tier, not an adversary).
fn read_upstream_reply(upstream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut frame = vec![0u8; HEADER_LEN];
    upstream.read_exact(&mut frame).ok()?;
    let payload_len = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return None;
    }
    frame.resize(HEADER_LEN + payload_len, 0);
    upstream.read_exact(&mut frame[HEADER_LEN..]).ok()?;
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_schedule_is_positional() {
        let schedule = ChaosSchedule::scripted(vec![
            None,
            Some(Fault::Blackhole),
            Some(Fault::Delay(Duration::from_millis(5))),
        ]);
        assert_eq!(schedule.fault_for(0), None);
        assert_eq!(schedule.fault_for(1), Some(Fault::Blackhole));
        assert_eq!(
            schedule.fault_for(2),
            Some(Fault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(schedule.fault_for(3), None, "past the script: clean");
    }

    #[test]
    fn seeded_schedule_is_a_pure_function_of_seed_and_index() {
        let palette = vec![Fault::Blackhole, Fault::CorruptReply, Fault::ResetMidFrame];
        let a = ChaosSchedule::seeded(42, 3, palette.clone());
        let b = ChaosSchedule::seeded(42, 3, palette.clone());
        let c = ChaosSchedule::seeded(43, 3, palette.clone());
        let faults = |s: &ChaosSchedule| (0..200).map(|i| s.fault_for(i)).collect::<Vec<_>>();
        assert_eq!(faults(&a), faults(&b));
        assert_ne!(faults(&a), faults(&c), "a different seed reschedules");
        let injected = faults(&a).iter().filter(|f| f.is_some()).count();
        assert!(
            injected > 20 && injected < 150,
            "period 3 over 200 exchanges should fault a meaningful fraction, got {injected}"
        );
    }

    #[test]
    fn seeded_schedule_with_zero_period_or_empty_palette_is_clean() {
        assert_eq!(
            ChaosSchedule::seeded(1, 0, vec![Fault::Blackhole]).fault_for(0),
            None
        );
        assert_eq!(ChaosSchedule::seeded(1, 1, Vec::new()).fault_for(0), None);
        assert_eq!(ChaosSchedule::clean().fault_for(7), None);
    }

    #[test]
    fn corrupt_always_changes_the_last_byte() {
        let mut frame = vec![1, 2, 3];
        corrupt(&mut frame);
        assert_eq!(frame, vec![1, 2, 3 ^ 0xA5]);
    }
}
