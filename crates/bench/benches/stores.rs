//! Benchmarks of the client-side prefix stores (Table 2 companion): build
//! time and lookup latency of the raw table, the delta-coded table, the
//! Bloom filter and the lead-indexed table at the deployed database size
//! (~630 k prefixes) and at the 1M-prefix scale the throughput harness
//! targets; plus the snapshot pipeline (`snapshot_load` — build, validate,
//! load, deep-verify a 1M-prefix buffer) and the bucket-scan kernels
//! (`simd_vs_scalar` — the dispatched SIMD scan against the scalar scan
//! and the binary search, on bucket shapes either side of the crossover).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_hash::{Prefix, PrefixLen};
use sb_store::scan::{
    active_backend, binary_search_rows, scan_linear, scan_linear_scalar, LINEAR_SCAN_MAX,
};
use sb_store::{build_store, IndexedPrefixTable, PrefixStore, SnapshotView, StoreBackend};

const DB_SIZE: usize = 630_428;
const MILLION: usize = 1_000_000;

fn random_prefixes(n: usize) -> Vec<Prefix> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|_| Prefix::from_u32(rng.gen())).collect()
}

fn bench_build(c: &mut Criterion) {
    let prefixes = random_prefixes(DB_SIZE);
    let mut group = c.benchmark_group("store_build_630k");
    group.sample_size(10);
    for backend in StoreBackend::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(backend),
            &backend,
            |b, &backend| b.iter(|| build_store(backend, PrefixLen::L32, prefixes.iter().copied())),
        );
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let prefixes = random_prefixes(DB_SIZE);
    let probes = random_prefixes(1_000);
    let mut group = c.benchmark_group("store_lookup_630k");
    for backend in StoreBackend::ALL {
        let store = build_store(backend, PrefixLen::L32, prefixes.iter().copied());
        group.bench_with_input(BenchmarkId::from_parameter(backend), &store, |b, store| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                std::hint::black_box(store.contains(&probes[i]))
            })
        });
    }
    group.finish();
}

/// The acceptance scale for the lead-indexed backend: at 1M prefixes a
/// lookup must be a flat index load + tiny-bucket scan, several times faster
/// than the raw table's full binary search.
fn bench_lookup_1m(c: &mut Criterion) {
    let prefixes = random_prefixes(MILLION);
    // Half the probes are present, half absent, interleaved.
    let mut rng = StdRng::seed_from_u64(7);
    let probes: Vec<Prefix> = (0..2_000usize)
        .map(|i| {
            if i % 2 == 0 {
                prefixes[rng.gen::<u32>() as usize % prefixes.len()]
            } else {
                Prefix::from_u32(rng.gen())
            }
        })
        .collect();
    let mut group = c.benchmark_group("store_lookup_1m");
    for backend in [
        StoreBackend::Raw,
        StoreBackend::DeltaCoded,
        StoreBackend::Indexed,
    ] {
        let store = build_store(backend, PrefixLen::L32, prefixes.iter().copied());
        group.bench_with_input(BenchmarkId::from_parameter(backend), &store, |b, store| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                std::hint::black_box(store.contains(&probes[i]))
            })
        });
    }
    // The indexed table loaded back from a copy of its bytes, answering
    // the same workload from the loaded buffer.
    let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.iter().copied());
    let loaded = IndexedPrefixTable::from_bytes(Arc::from(&table.bytes()[..])).expect("valid");
    group.bench_with_input(
        BenchmarkId::from_parameter("snapshot"),
        &loaded,
        |b, store| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % probes.len();
                std::hint::black_box(store.contains(&probes[i]))
            })
        },
    );
    group.finish();
}

/// The snapshot pipeline at the acceptance scale: building a 1M-prefix
/// indexed table straight into its buffer, loading a buffer back
/// (validation is O(header + index), never O(rows) — the load numbers must
/// not move with the row count), and the opt-in deep payload
/// verification, which *is* O(rows).
fn bench_snapshot_load(c: &mut Criterion) {
    let prefixes = random_prefixes(MILLION);
    let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.iter().copied());
    let bytes = Arc::clone(table.bytes());
    let view = table.view();

    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(10);
    group.bench_function("build_1m", |b| {
        b.iter(|| IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.iter().copied()))
    });
    group.bench_function("parse_1m", |b| {
        b.iter(|| SnapshotView::parse(std::hint::black_box(&bytes)).expect("valid"))
    });
    group.bench_function("load_1m", |b| {
        b.iter(|| IndexedPrefixTable::from_bytes(Arc::clone(&bytes)).expect("valid"))
    });
    group.bench_function("deep_verify_1m", |b| {
        b.iter(|| view.verify_payload().expect("intact"))
    });
    group.finish();
}

/// The bucket-scan kernels head to head: the dispatched linear scan (SSE2
/// or AVX2 on x86_64, named in the benchmark id), the scalar linear scan
/// and the binary search, over realistic bucket shapes — a typical 1M-table
/// bucket (~16 rows) and a skewed bucket sitting at the linear/binary
/// crossover — for both deployed row widths.
fn bench_simd_vs_scalar(c: &mut Criterion) {
    type ScanKernel = fn(&[u8], usize, &[u8]) -> bool;
    let mut rng = StdRng::seed_from_u64(99);
    let mut group = c.benchmark_group("simd_vs_scalar");
    for width in [4usize, 8] {
        for rows_n in [16usize, LINEAR_SCAN_MAX] {
            let mut rows: Vec<Vec<u8>> = (0..rows_n)
                .map(|_| (0..width).map(|_| rng.gen()).collect())
                .collect();
            rows.sort();
            rows.dedup();
            let flat: Vec<u8> = rows.concat();
            // Half the probes are present, half absent, interleaved.
            let probes: Vec<Vec<u8>> = (0..256)
                .map(|i| {
                    if i % 2 == 0 {
                        rows[i % rows.len()].clone()
                    } else {
                        (0..width).map(|_| rng.gen()).collect()
                    }
                })
                .collect();
            let kernels: [(&str, ScanKernel); 3] = [
                (active_backend(), scan_linear),
                ("scalar", scan_linear_scalar),
                ("binary_search", binary_search_rows),
            ];
            for (name, kernel) in kernels {
                group.bench_function(
                    BenchmarkId::new(name, format!("w{width}/{rows_n}rows")),
                    |b| {
                        let mut i = 0;
                        b.iter(|| {
                            i = (i + 1) % probes.len();
                            std::hint::black_box(kernel(&flat, width, &probes[i]))
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_lookup,
    bench_lookup_1m,
    bench_snapshot_load,
    bench_simd_vs_scalar
);
criterion_main!(benches);
