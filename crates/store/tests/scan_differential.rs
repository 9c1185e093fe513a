//! Differential property tests of the bucket-scan kernels: the dispatched
//! (possibly SIMD) linear scan, the scalar linear scan and the raw binary
//! search must agree on every input — random buckets, adversarially skewed
//! buckets, bucket boundaries and the `LINEAR_SCAN_MAX` crossover — and
//! the indexed table, whose probe picks between them, must agree with a
//! plain binary search over its rows.
//!
//! CI runs the store crate's tests twice: once letting dispatch pick the
//! best kernel (AVX2 on the runners) and once under
//! `SB_STORE_FORCE_SCALAR=1`, so both sides of the dispatch are exercised
//! on the same machine.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sb_hash::{Prefix, PrefixLen};
use sb_store::scan::{
    active_backend, binary_search_rows, scan_linear, scan_linear_scalar, LINEAR_SCAN_MAX,
};
use sb_store::{IndexedPrefixTable, PrefixStore, RawPrefixTable, SNAPSHOT_INDEX_MIN_ROWS};

/// Sorted, deduplicated rows of `width` bytes from arbitrary values.
fn sorted_rows(width: usize, values: Vec<[u8; 32]>) -> Vec<u8> {
    let mut rows: Vec<Vec<u8>> = values.into_iter().map(|v| v[..width].to_vec()).collect();
    rows.sort();
    rows.dedup();
    rows.into_iter().flatten().collect()
}

/// `values` plus filler rows (one per unused two-byte lead, mid-bucket) up
/// to the index threshold, so a table built from them carries the bucket
/// index and its probe takes the indexed path.
fn pad_to_index(values: &[u32]) -> Vec<u32> {
    let used: std::collections::HashSet<u32> = values.iter().map(|v| v >> 16).collect();
    let filler = (0..=0xFFFFu32)
        .filter(|lead| !used.contains(lead))
        .take(SNAPSHOT_INDEX_MIN_ROWS)
        .map(|lead| (lead << 16) | 0x8000);
    values.iter().copied().chain(filler).collect()
}

/// The linear kernels and the binary search, compared on one
/// (rows, target) pair.
fn assert_kernels_agree(rows: &[u8], width: usize, target: &[u8]) -> Result<(), TestCaseError> {
    let scalar = scan_linear_scalar(rows, width, target);
    prop_assert_eq!(
        scan_linear(rows, width, target),
        scalar,
        "dispatched ({}) vs scalar, width {}",
        active_backend(),
        width
    );
    prop_assert_eq!(
        binary_search_rows(rows, width, target),
        scalar,
        "binary search vs scalar, width {}",
        width
    );
    Ok(())
}

proptest! {
    /// Random buckets of every deployed width, random probes.
    #[test]
    fn kernels_agree_on_random_buckets(
        width_index in 0usize..PrefixLen::ALL.len(),
        values in prop::collection::vec(prop::array::uniform32(any::<u8>()), 0..200),
        probes in prop::collection::vec(prop::array::uniform32(any::<u8>()), 1..50),
    ) {
        let width = PrefixLen::ALL[width_index].bytes();
        let rows = sorted_rows(width, values.clone());
        for probe in &probes {
            assert_kernels_agree(&rows, width, &probe[..width])?;
        }
        // Members must be found by every kernel.
        for v in &values {
            assert_kernels_agree(&rows, width, &v[..width])?;
            prop_assert!(scan_linear(&rows, width, &v[..width]));
        }
    }

    /// Bucket sizes straddling the LINEAR_SCAN_MAX crossover: 0, 1, …,
    /// just under, exactly at, just past, and far past the threshold.
    #[test]
    fn kernels_agree_at_the_crossover(
        size_offset in -2i64..3i64,
        seed in any::<u32>(),
        probe in any::<u32>(),
    ) {
        let size = (LINEAR_SCAN_MAX as i64 + size_offset).max(0) as u32;
        let values: Vec<u32> = (0..size).map(|i| seed.wrapping_add(i.wrapping_mul(2654435761u32))).collect();
        let mut sorted: Vec<u32> = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let rows: Vec<u8> = sorted.iter().flat_map(|v| v.to_be_bytes()).collect();
        assert_kernels_agree(&rows, 4, &probe.to_be_bytes())?;
        for v in &sorted {
            assert_kernels_agree(&rows, 4, &v.to_be_bytes())?;
        }
    }

    /// Adversarially skewed tables: every prefix shares one two-byte lead,
    /// so the whole list is one bucket.  The indexed table (which takes
    /// the binary-search path past the crossover) must agree with the raw
    /// reference table and with every kernel run directly on the bucket,
    /// with the index elided and with it present.
    #[test]
    fn skewed_single_bucket_agrees_with_reference(
        lead in any::<u16>(),
        tails in prop::collection::vec(any::<u16>(), 1..300),
        probe_tails in prop::collection::vec(any::<u16>(), 1..50),
    ) {
        let make = |tail: u16| {
            let v = (u32::from(lead) << 16) | u32::from(tail);
            Prefix::from_u32(v)
        };
        let prefixes: Vec<Prefix> = tails.iter().copied().map(make).collect();
        let values: Vec<u32> = prefixes.iter().map(Prefix::value).collect();
        let padded: Vec<Prefix> = pad_to_index(&values).into_iter().map(Prefix::from_u32).collect();
        let tables = [
            IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.clone()),
            IndexedPrefixTable::from_prefixes(PrefixLen::L32, padded.clone()),
        ];
        let raws = [
            RawPrefixTable::from_prefixes(PrefixLen::L32, prefixes.clone()),
            RawPrefixTable::from_prefixes(PrefixLen::L32, padded),
        ];

        let mut sorted: Vec<u32> = tails.iter().map(|t| (u32::from(lead) << 16) | u32::from(*t)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let rows: Vec<u8> = sorted.iter().flat_map(|v| v.to_be_bytes()).collect();

        for t in probe_tails.iter().chain(tails.iter()) {
            let p = make(*t);
            for (indexed, raw) in tables.iter().zip(&raws) {
                prop_assert_eq!(indexed.contains(&p), raw.contains(&p));
            }
            assert_kernels_agree(&rows, 4, p.as_bytes())?;
        }
    }

    /// Bucket-boundary values: rows at the very edges of buckets, probes
    /// into adjacent empty buckets, through an indexed table.
    #[test]
    fn kernels_agree_on_bucket_boundaries(
        leads in prop::collection::vec(any::<u16>(), 1..20),
        probe in any::<u32>(),
    ) {
        let mut values: Vec<u32> = Vec::new();
        for lead in leads {
            let base = u32::from(lead) << 16;
            values.extend([base, base | 1, base | 0xFFFF, base | 0xFFFE]);
        }
        values.sort_unstable();
        values.dedup();
        let rows: Vec<u8> = values.iter().flat_map(|v| v.to_be_bytes()).collect();
        let mut padded = pad_to_index(&values);
        padded.sort_unstable();
        let padded_rows: Vec<u8> = padded.iter().flat_map(|v| v.to_be_bytes()).collect();
        let indexed = IndexedPrefixTable::from_prefixes(
            PrefixLen::L32,
            padded.iter().copied().map(Prefix::from_u32),
        );
        prop_assert!(indexed.view().has_index());
        for v in values.iter().copied().chain([probe]) {
            let target = v.to_be_bytes();
            assert_kernels_agree(&rows, 4, &target)?;
            prop_assert_eq!(
                indexed.contains(&Prefix::from_u32(v)),
                binary_search_rows(&padded_rows, 4, &target)
            );
        }
    }

    /// Empty buckets: probes whose lead hits no row at all.
    #[test]
    fn empty_buckets_agree(probe in any::<u32>()) {
        // A table whose only rows live in bucket 0x4242.
        let values: Vec<u32> = (0..40u32).map(|i| 0x4242_0000 | i).collect();
        let rows: Vec<u8> = values.iter().flat_map(|v| v.to_be_bytes()).collect();
        assert_kernels_agree(&rows, 4, &probe.to_be_bytes())?;
        assert_kernels_agree(&[], 4, &probe.to_be_bytes())?;
    }
}

/// The kernel the differential run exercised, printed so CI logs show which
/// dispatch side each of the two invocations covered.
#[test]
fn report_active_backend() {
    let forced =
        std::env::var_os("SB_STORE_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
    println!("scan backend under test: {}", active_backend());
    if forced {
        assert_eq!(active_backend(), "scalar");
    }
    #[cfg(target_arch = "x86_64")]
    if !forced {
        assert_ne!(
            active_backend(),
            "scalar",
            "x86_64 always has at least SSE2"
        );
    }
}
