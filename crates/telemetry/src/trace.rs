//! The structured event-trace ring buffer.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default [`TraceRing`] capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The kind of a [`TraceEvent`] — one variant per cross-layer event the
/// stack publishes.  The `value` payload of each event is kind-specific
/// and documented per variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceKind {
    /// A URL lookup completed in the client.  `value`: 1 when the verdict
    /// was malicious, 0 otherwise.
    Lookup,
    /// A transport round trip completed.  `value`: elapsed nanoseconds.
    RoundTrip,
    /// The retry layer scheduled a retry.  `value`: the delay about to be
    /// slept, in nanoseconds.
    Retry,
    /// A circuit breaker changed state.  `value`: the new state — 0
    /// closed, 1 open, 2 half-open.
    BreakerTransition,
    /// The fleet quarantined a shard.  `value`: shard index.
    ShardQuarantine,
    /// The fleet reinstated a quarantined shard.  `value`: shard index.
    ShardReinstate,
    /// A client applied update chunks, or the server journal appended one.
    /// `value`: chunks applied (client) or prefixes carried (server).
    ChunkApply,
    /// A sub chunk appended to the server journal netted at least one
    /// prefix out of the list's add chunks.  `value`: the list's live
    /// chunks after the append.
    Compaction,
    /// A database update exchange completed.  `value`: chunks delivered.
    Update,
    /// A telemetry snapshot was scraped.  `value`: registered counters in
    /// the snapshot.
    Scrape,
}

impl TraceKind {
    /// Stable lowercase name (used by serializations and assertions).
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::Lookup => "lookup",
            TraceKind::RoundTrip => "round_trip",
            TraceKind::Retry => "retry",
            TraceKind::BreakerTransition => "breaker_transition",
            TraceKind::ShardQuarantine => "shard_quarantine",
            TraceKind::ShardReinstate => "shard_reinstate",
            TraceKind::ChunkApply => "chunk_apply",
            TraceKind::Compaction => "compaction",
            TraceKind::Update => "update",
            TraceKind::Scrape => "scrape",
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Clock reading when the event was recorded.
    pub at: Duration,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub value: u64,
}

#[derive(Debug)]
struct RingState {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    state: Mutex<RingState>,
}

/// A fixed-capacity ring of [`TraceEvent`]s.
///
/// The ring is pre-allocated at construction and never grows: recording
/// into a full ring drops the oldest event (counted in
/// [`TraceSnapshot::dropped`]), so the record path performs no heap
/// allocation — it takes one mutex and writes one slot.  Cloning shares
/// the ring.
#[derive(Clone, Debug)]
pub struct TraceRing {
    inner: Arc<RingInner>,
}

impl TraceRing {
    /// A ring holding up to `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            inner: Arc::new(RingInner {
                capacity,
                state: Mutex::new(RingState {
                    // One extra slot so push-then-pop at capacity never
                    // reallocates.
                    events: VecDeque::with_capacity(capacity + 1),
                    next_seq: 0,
                    dropped: 0,
                }),
            }),
        }
    }

    /// Records one event stamped `at` (callers normally go through
    /// `Telemetry::event`, which stamps via the injected clock).
    pub fn record(&self, at: Duration, kind: TraceKind, value: u64) {
        let mut state = self.inner.state.lock().expect("trace ring poisoned");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.events.push_back(TraceEvent {
            seq,
            at,
            kind,
            value,
        });
        if state.events.len() > self.inner.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("trace ring poisoned")
            .events
            .len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the retained events, oldest first.
    pub fn snapshot(&self) -> TraceSnapshot {
        let state = self.inner.state.lock().expect("trace ring poisoned");
        TraceSnapshot {
            events: state.events.iter().copied().collect(),
            dropped: state.dropped,
        }
    }

    /// Discards all retained events (sequence numbers keep advancing).
    pub fn clear(&self) {
        let mut state = self.inner.state.lock().expect("trace ring poisoned");
        state.events.clear();
    }
}

/// An owned copy of a [`TraceRing`]'s contents.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted by ring wrap over the ring's lifetime.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The kinds of the retained events, in order — what the end-to-end
    /// trace tests assert on.
    pub fn kinds(&self) -> Vec<TraceKind> {
        self.events.iter().map(|e| e.kind).collect()
    }

    /// The events of one kind, in order.
    pub fn of_kind(&self, kind: TraceKind) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> Duration {
        Duration::from_secs(secs)
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let ring = TraceRing::new(8);
        ring.record(at(1), TraceKind::Lookup, 0);
        ring.record(at(2), TraceKind::Retry, 9);
        let snapshot = ring.snapshot();
        assert_eq!(snapshot.kinds(), vec![TraceKind::Lookup, TraceKind::Retry]);
        assert_eq!(snapshot.events[0].seq, 0);
        assert_eq!(snapshot.events[1].seq, 1);
        assert_eq!(snapshot.events[1].value, 9);
        assert_eq!(snapshot.dropped, 0);
    }

    #[test]
    fn wrap_drops_oldest_and_counts() {
        let ring = TraceRing::new(2);
        for i in 0..5 {
            ring.record(at(i), TraceKind::Lookup, i);
        }
        let snapshot = ring.snapshot();
        assert_eq!(snapshot.events.len(), 2);
        assert_eq!(snapshot.dropped, 3);
        assert_eq!(snapshot.events[0].value, 3);
        assert_eq!(snapshot.events[1].seq, 4);
    }

    #[test]
    fn clear_keeps_sequence_monotonic() {
        let ring = TraceRing::new(4);
        ring.record(at(0), TraceKind::Update, 0);
        ring.clear();
        assert!(ring.is_empty());
        ring.record(at(1), TraceKind::Update, 0);
        assert_eq!(ring.snapshot().events[0].seq, 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceKind::BreakerTransition.as_str(), "breaker_transition");
        assert_eq!(TraceKind::ShardQuarantine.to_string(), "shard_quarantine");
    }
}
