//! The metrics registry: named counters, gauges and histograms with
//! idempotent registration and a serializable point-in-time snapshot.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::stats::GaugeValue;

/// Number of stripes a [`Counter`] spreads its adds over.  A power of two;
/// each thread sticks to one stripe, so concurrent writers on different
/// cores rarely contend on a cache line.
const COUNTER_SHARDS: usize = 8;

/// One cache-line-padded counter stripe.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

thread_local! {
    /// This thread's stripe index (assigned round-robin on first use).
    static COUNTER_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_COUNTER_SHARD: AtomicUsize = AtomicUsize::new(0);

fn counter_shard() -> usize {
    COUNTER_SHARD.with(|slot| {
        let mut shard = slot.get();
        if shard == usize::MAX {
            shard = NEXT_COUNTER_SHARD.fetch_add(1, Ordering::Relaxed);
            slot.set(shard);
        }
        shard & (COUNTER_SHARDS - 1)
    })
}

/// A shared monotonic counter handle.  Cloning shares the underlying
/// stripes; [`Counter::add`] is one relaxed atomic add on this thread's
/// stripe — no locks, no allocation.
#[derive(Clone, Debug)]
pub struct Counter {
    shards: Arc<[PaddedU64; COUNTER_SHARDS]>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: Arc::new(Default::default()),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.shards[counter_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A shared gauge handle: a signed value set (not accumulated) by the
/// layer that owns it.  Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Sets the gauge to `value` in its [`GaugeValue`] encoding.
    pub fn store<T: GaugeValue>(&self, value: T) {
        self.set(value.to_gauge());
    }

    /// The current value decoded as a `T` (the inverse of [`Self::store`]).
    pub fn load<T: GaugeValue>(&self) -> T {
        T::from_gauge(self.get())
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A registry of named metrics.
///
/// Registration is idempotent — asking for the same name twice returns a
/// handle to the same slot, which is what makes shared registries
/// aggregate across instances — and allocates, so layers register once at
/// construction and keep the handles.  Cloning the registry shares the
/// underlying maps.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it at 0 on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("counter map poisoned");
        match counters.get(name) {
            Some(counter) => counter.clone(),
            None => {
                let counter = Counter::new();
                counters.insert(name.to_string(), counter.clone());
                counter
            }
        }
    }

    /// The gauge named `name`, registering it at 0 on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect("gauge map poisoned");
        match gauges.get(name) {
            Some(gauge) => gauge.clone(),
            None => {
                let gauge = Gauge::new();
                gauges.insert(name.to_string(), gauge.clone());
                gauge
            }
        }
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram map poisoned");
        match histograms.get(name) {
            Some(histogram) => histogram.clone(),
            None => {
                let histogram = Histogram::new();
                histograms.insert(name.to_string(), histogram.clone());
                histogram
            }
        }
    }

    /// A point-in-time snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .inner
                .counters
                .lock()
                .expect("counter map poisoned")
                .iter()
                .map(|(name, counter)| (name.clone(), counter.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .iter()
                .map(|(name, gauge)| (name.clone(), gauge.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: what the `Telemetry`
/// wire frame carries and what the `telemetry` blocks in
/// `BENCH_throughput.json` serialize.
///
/// Entries are sorted by name (registration order never leaks), so two
/// snapshots of registries with the same state compare and serialize
/// identically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// `(name, total)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Stable hand-rolled JSON (no serde): counters and gauges as flat
    /// name→value maps, histograms as
    /// `{"count", "sum", "p50", "p90", "p99", "buckets": [[index, n], ...]}`
    /// with only non-empty buckets listed.
    pub fn to_json(&self) -> String {
        self.to_json_indented(0)
    }

    /// [`Self::to_json`] with every line prefixed by `indent` spaces
    /// (the opening brace is not prefixed), for embedding in a larger
    /// hand-rolled document.
    pub fn to_json_indented(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("{pad}  \"counters\": {{"));
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("{pad}    \"{}\": {value}", escape_json(name)));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{pad}  "));
        }
        out.push_str("},\n");
        out.push_str(&format!("{pad}  \"gauges\": {{"));
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("{pad}    \"{}\": {value}", escape_json(name)));
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("\n{pad}  "));
        }
        out.push_str("},\n");
        out.push_str(&format!("{pad}  \"histograms\": {{"));
        for (i, (name, histogram)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let buckets: Vec<String> = histogram
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(index, &n)| format!("[{index}, {n}]"))
                .collect();
            out.push_str(&format!(
                "{pad}    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"buckets\": [{}]}}",
                escape_json(name),
                histogram.count,
                histogram.sum,
                histogram.p50(),
                histogram.p90(),
                histogram.p99(),
                buckets.join(", ")
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!("\n{pad}  "));
        }
        out.push_str(&format!("}}\n{pad}}}"));
        out
    }
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape_json(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(2);
        registry.counter("a").add(3);
        assert_eq!(registry.counter("a").get(), 5);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("g");
        gauge.set(10);
        gauge.add(-3);
        assert_eq!(registry.gauge("g").get(), 7);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let registry = MetricsRegistry::new();
        registry.counter("z.last").inc();
        registry.counter("a.first").add(4);
        registry.gauge("mid").set(-2);
        registry.histogram("lat").record(100);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot
                .counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a.first", "z.last"]
        );
        assert_eq!(snapshot.counter("a.first"), Some(4));
        assert_eq!(snapshot.gauge("mid"), Some(-2));
        assert_eq!(snapshot.histogram("lat").unwrap().count, 1);
        assert_eq!(snapshot.counter("missing"), None);
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter("a\"b").inc();
        registry.histogram("h").record(3);
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("[2, 1]"), "value 3 lands in bucket 2: {json}");
        assert_eq!(registry.snapshot().to_json(), json);
    }

    #[test]
    fn empty_registry_serializes_to_empty_maps() {
        let json = MetricsRegistry::new().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
