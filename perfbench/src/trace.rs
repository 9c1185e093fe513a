//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end on one clock, the span that
//! caused it and the id of the check it belongs to.  Spans stay in memory
//! until the run ends; the per-layer figures are computed from them then.

use std::io::Write;
use std::time::Instant;

/// Span names, one per layer boundary the replay crosses.
pub const SPAN_NAMES: [&str; 10] = [
    "check",
    "url.parse",
    "url.decompose",
    "hash.sha256",
    "store.probe",
    "client.shaper.shape",
    "client.transport.full_hashes",
    "update",
    "client.transport.update",
    "client.apply_chunks",
];

/// Index of a span name in [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One check call: the root of a request.
    Check,
    /// `CanonicalUrl::parse`.
    Parse,
    /// `visit_decompositions`; its children are the digests and probes.
    Decompose,
    /// `sb_hash::digest_url`.
    Sha256,
    /// `DatabaseReader::contains`.
    Probe,
    /// `QueryShaper::shape`.
    Shape,
    /// `Transport::full_hashes_batch`.
    FullHashes,
    /// One `update()` exchange: the root of a pass.
    Update,
    /// `Transport::update`.
    TransportUpdate,
    /// `LocalDatabase::apply_chunks`.
    ApplyChunks,
}

impl SpanName {
    /// The printed name.
    pub fn as_str(self) -> &'static str {
        SPAN_NAMES[self as usize]
    }
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span timed.
    pub name: SpanName,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<u32>,
    /// The request (check or update) the span belongs to.
    pub request: u32,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    request: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
            request: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request; returns its id.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Opens a span of the current request; close it with [`Self::close`].
    pub fn open(&mut self, name: SpanName, parent: Option<u32>) -> u32 {
        let at = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            request: self.request,
            start,
            end: start,
        });
        at
    }

    /// Closes span `at`.
    pub fn close(&mut self, at: u32) {
        let end = self.now();
        self.spans[at as usize].end = end;
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: SpanName, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let at = self.open(name, parent);
        let out = f();
        self.close(at);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Nanoseconds of `[start, end)` that no interval in `children` covers.
/// Children may nest, overlap each other or stick out of the parent; only
/// the union of their parts inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span in `spans` (parents refer to indices in the
/// same slice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| self_time(span.start, span.end, kids))
        .collect()
}

/// Writes spans as tab-separated lines: `thread index name parent request
/// start_ns end_ns self_ns` (parent `-` for a root).
pub fn write_spans(out: &mut impl Write, thread: usize, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{thread}\t{i}\t{}\t{parent}\t{}\t{}\t{}\t{self_ns}",
            span.name.as_str(),
            span.request,
            span.start,
            span.end
        )?;
    }
    Ok(())
}
