//! # sb-telemetry
//!
//! The telemetry plane of the Safe Browsing stack: one [`MetricsRegistry`]
//! every layer publishes counters, gauges and latency histograms into, one
//! [`TraceRing`] recording typed cross-layer events, and one stable
//! serialization (binary over `sb-wire`, JSON for `BENCH_throughput.json`)
//! for scraping a point-in-time [`RegistrySnapshot`] out of a running
//! process.
//!
//! Each layer declares its metrics once, in a [`stats!`] field list: the
//! macro generates the layer's public stats struct (`RetryStats`,
//! `WireStats`, ...), the private handles struct its counts live in, the
//! handles' registration and the `view()` that reads them back, so every
//! metric name is written exactly once.
//!
//! ## The hot-path cost contract
//!
//! Telemetry must never make the measured path worse than the measurement
//! is worth:
//!
//! * [`Counter::add`] is one relaxed atomic add on a thread-striped shard —
//!   no locks, **zero heap allocations**;
//! * [`Histogram::record`] is two relaxed atomic adds plus one on a
//!   fixed log-bucket slot — no allocation, no floating point;
//! * [`TraceRing::record`] takes one mutex and writes into a
//!   pre-allocated ring slot (the ring drops its oldest event when full,
//!   it never grows);
//! * registration ([`MetricsRegistry::counter`] and friends) allocates and
//!   locks, so layers register **once at construction** and keep the
//!   handles.
//!
//! The throughput harness's counting allocator enforces the zero-alloc
//! half of this contract on every CI run: a cache-hit lookup through the
//! fully-wired client still performs 0 heap allocations.
//!
//! ## Clock determinism
//!
//! All trace timestamps come from the injectable
//! [`Clock`] held by [`Telemetry`].  Under
//! [`SystemClock`] timestamps are real elapsed
//! time; under a shared [`VirtualClock`](sb_protocol::VirtualClock) (the
//! configuration every deterministic test and `sb-sim` uses) a trace is a
//! pure function of the event sequence, so same-seed runs produce
//! bit-identical traces.
//!
//! ## Example
//!
//! ```
//! use sb_telemetry::{Telemetry, TraceKind};
//!
//! let telemetry = Telemetry::new();
//! let lookups = telemetry.metrics().counter("client.lookups");
//! let latency = telemetry.metrics().histogram("client.lookup_ns");
//!
//! lookups.inc();
//! latency.record(1_200);
//! telemetry.event(TraceKind::Lookup, 0);
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("client.lookups"), Some(1));
//! assert_eq!(snapshot.histogram("client.lookup_ns").unwrap().count, 1);
//! assert_eq!(telemetry.trace().snapshot().events.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod stats;
mod trace;

use std::sync::Arc;
use std::time::Duration;

use sb_protocol::{Clock, SystemClock};

pub use histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{Counter, Gauge, MetricsRegistry, RegistrySnapshot};
pub use stats::{CounterValue, GaugeValue};
pub use trace::{TraceEvent, TraceKind, TraceRing, TraceSnapshot, DEFAULT_TRACE_CAPACITY};

/// The shared telemetry handle: a [`MetricsRegistry`], a [`TraceRing`] and
/// the [`Clock`] that timestamps trace events.
///
/// Created once, cloned `Arc`-cheap into every layer (client, retry,
/// breaker, TCP transport, serving tier, fleet, journal).  All clones
/// publish into the same registry and ring, so one snapshot spans the
/// whole stack.
///
/// When several instances of the same layer share one `Telemetry` (e.g.
/// many clients in the throughput harness), their same-named metrics
/// resolve to the same registry slots and therefore aggregate; a layer
/// constructed without an explicit `Telemetry` gets its own private one
/// and keeps per-instance counts.
#[derive(Clone, Debug)]
pub struct Telemetry {
    metrics: MetricsRegistry,
    trace: TraceRing,
    clock: Arc<dyn Clock>,
}

impl Telemetry {
    /// A telemetry plane on the real [`SystemClock`] with the default
    /// trace capacity.
    pub fn new() -> Self {
        Self::with_clock(SystemClock)
    }

    /// A telemetry plane timestamping trace events with `clock` — inject a
    /// shared [`VirtualClock`](sb_protocol::VirtualClock) for
    /// deterministic traces.
    pub fn with_clock(clock: impl Clock + 'static) -> Self {
        Telemetry {
            metrics: MetricsRegistry::new(),
            trace: TraceRing::new(DEFAULT_TRACE_CAPACITY),
            clock: Arc::new(clock),
        }
    }

    /// Replaces the trace ring with one of the given capacity (events
    /// recorded so far are dropped).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace = TraceRing::new(capacity);
        self
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The event-trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The current clock reading (what trace events are stamped with).
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Records one trace event, timestamped via the injected clock.
    pub fn event(&self, kind: TraceKind, value: u64) {
        self.trace.record(self.clock.now(), kind, value);
    }

    /// A point-in-time snapshot of the metrics registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.metrics.snapshot()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_protocol::VirtualClock;

    #[test]
    fn clones_share_the_registry_and_ring() {
        let telemetry = Telemetry::new();
        let clone = telemetry.clone();
        clone.metrics().counter("shared.count").add(3);
        clone.event(TraceKind::Update, 7);
        assert_eq!(telemetry.snapshot().counter("shared.count"), Some(3));
        assert_eq!(telemetry.trace().snapshot().events.len(), 1);
    }

    #[test]
    fn virtual_clock_timestamps_are_deterministic() {
        let clock = Arc::new(VirtualClock::new());
        let telemetry = Telemetry::with_clock(clock.clone());
        telemetry.event(TraceKind::Lookup, 0);
        clock.sleep(Duration::from_secs(5));
        telemetry.event(TraceKind::Retry, 1);
        let events = telemetry.trace().snapshot().events;
        assert_eq!(events[0].at, Duration::ZERO);
        assert_eq!(events[1].at, Duration::from_secs(5));
    }
}
