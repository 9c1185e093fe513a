//! Metric declarations, summary statistics, host facts and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name and unit, as `BENCHMARK.json`
/// declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("urls_per_s", "1/s"),
    ("check_p50_us", "us"),
    ("check_p99_us", "us"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("revealed_per_1k_urls", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("url.canonicalize_ns", "ns"),
    ("url.decompose_ns", "ns"),
    ("url.decompositions_per_url", "count"),
    ("hash.sha256_ns", "ns"),
    ("hash.digests_per_url", "count"),
    ("store.probe_ns", "ns"),
    ("store.local_hit_ratio", "ratio"),
    ("store.false_hit_ratio", "ratio"),
    ("store.db_bytes", "bytes"),
    ("store.deltas_absorbed", "count"),
    ("store.rebuilds", "count"),
    ("client.check_self_ns", "ns"),
    ("client.allocs_per_url", "count"),
    ("client.shaper.shape_ns", "ns"),
    ("client.cache.hit_ratio", "ratio"),
    ("client.round_trips_per_1k_urls", "count"),
    ("client.retry.retries", "count"),
    ("client.tcp.round_trip_us", "us"),
    ("client.tcp.wait_us", "us"),
    ("client.apply_chunks_ms", "ms"),
    ("client.apply_delta_ms", "ms"),
    ("wire.encode_ns.full_hash_requests", "ns"),
    ("wire.decode_ns.full_hash_requests", "ns"),
    ("wire.encode_ns.full_hash_responses", "ns"),
    ("wire.decode_ns.full_hash_responses", "ns"),
    ("wire.encode_ns.update_request", "ns"),
    ("wire.decode_ns.update_request", "ns"),
    ("wire.encode_ns.update_response", "ns"),
    ("wire.decode_ns.update_response", "ns"),
    ("wire.sync_encode_ms", "ms"),
    ("wire.sync_decode_ms", "ms"),
    ("wire.bytes_per_url", "bytes"),
    ("server.ingest_ms", "ms"),
    ("server.sync_update_ms", "ms"),
    ("server.update_ms", "ms"),
    ("server.full_hashes_ns", "ns"),
    ("server.frames_per_connection", "count"),
    ("server.journal_chunks", "count"),
    ("server.journal_compactions", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.record_contended_ns", "ns"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.urls_per_s", "1/s"),
    ("trace.untraced_urls_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// The value at quantile `q` of ascending `sorted` (nearest rank); 0 for
/// an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// Median of `values` (sorted in place); 0 for an empty sample.
pub fn median(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    quantile(values, 0.5)
}

/// Median of floating-point `values` (sorted in place); 0 when empty.
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Facts about the host and build, printed with every run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Available parallelism.
    pub nproc: usize,
    /// The workload seed.
    pub seed: u64,
    /// `sb_store::scan::active_backend()`.
    pub scan_backend: &'static str,
    /// Whether the CPU has the SHA extensions.
    pub sha_ni: bool,
    /// Whether the CPU has AVX2.
    pub avx2: bool,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checked-out commit, `unknown` outside a git checkout.
    pub commit: String,
}

impl HostFacts {
    /// Collects the facts for a run with `seed`.
    pub fn collect(seed: u64) -> Self {
        #[cfg(target_arch = "x86_64")]
        let (sha_ni, avx2) = (
            std::arch::is_x86_feature_detected!("sha"),
            std::arch::is_x86_feature_detected!("avx2"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (sha_ni, avx2) = (false, false);
        HostFacts {
            nproc: nproc(),
            seed,
            scan_backend: sb_store::scan::active_backend(),
            sha_ni,
            avx2,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(std::path::Path::new(".")),
        }
    }

    /// The facts as one JSON object.
    pub fn to_json(&self, workload: &str, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"nproc\": {}, \"seed\": {}, \
             \"scan_backend\": \"{}\", \"sha_ni\": {}, \"avx2\": {}, \"profile\": \"{}\", \
             \"commit\": \"{}\"}}",
            self.nproc,
            self.seed,
            self.scan_backend,
            self.sha_ni,
            self.avx2,
            self.profile,
            self.commit
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out under `root`, read from `root/.git` without
/// looking above `root`; `unknown` when there is none.
pub fn git_commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `declared`, in declaration order.
///
/// # Panics
///
/// Panics when `values` misses a declared metric or holds an undeclared
/// one: the printed names must be exactly the declared ones.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let names: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    let extra: Vec<&&str> = values.keys().filter(|k| !names.contains(k)).collect();
    assert!(extra.is_empty(), "undeclared metrics {extra:?}");
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is {value}");
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}
