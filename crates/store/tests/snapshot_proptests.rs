//! Property tests of the snapshot format, mirroring the sb-wire
//! hostile-input suite: a table reloaded from its bytes equals the table
//! built by `from_prefixes` on every prefix length, and truncated,
//! corrupted and structurally inconsistent buffers get a typed rejection,
//! never a panic.

use std::sync::Arc;

use proptest::prelude::*;
use sb_hash::{Prefix, PrefixLen};
use sb_store::{
    IndexedPrefixTable, PrefixStore, RawPrefixTable, SnapshotError, SnapshotView,
    SNAPSHOT_INDEX_MIN_ROWS, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

/// Random prefixes of an arbitrary deployed length.
fn any_len_prefix_vec() -> impl Strategy<Value = (PrefixLen, Vec<Prefix>)> {
    (
        0usize..PrefixLen::ALL.len(),
        prop::collection::vec(prop::array::uniform32(any::<u8>()), 0..200),
    )
        .prop_map(|(len_index, rows)| {
            let len = PrefixLen::ALL[len_index];
            let prefixes = rows
                .into_iter()
                .map(|row| Prefix::from_bytes(&row[..len.bytes()], len))
                .collect();
            (len, prefixes)
        })
}

/// A valid serialized snapshot (sometimes big enough to carry the index).
fn snapshot_bytes() -> impl Strategy<Value = Vec<u8>> {
    any_len_prefix_vec().prop_map(|(len, prefixes)| {
        IndexedPrefixTable::from_prefixes(len, prefixes)
            .bytes()
            .to_vec()
    })
}

proptest! {
    /// Round trip: a table loaded from a copy of another table's bytes is
    /// the same table, and both answer like a raw binary-search table on
    /// members, non-members and every length.
    #[test]
    fn round_trip_is_verdict_identical(
        len_and_prefixes in any_len_prefix_vec(),
        probes in prop::collection::vec(prop::array::uniform32(any::<u8>()), 0..100),
    ) {
        let (len, prefixes) = len_and_prefixes;
        let table = IndexedPrefixTable::from_prefixes(len, prefixes.clone());
        let bytes = table.bytes().to_vec();
        let view = SnapshotView::parse(&bytes).expect("builder output validates");
        view.verify_payload().expect("payload CRC intact");
        prop_assert_eq!(view.prefix_len(), len);

        let reloaded = IndexedPrefixTable::from_bytes(Arc::from(bytes.as_slice()))
            .expect("builder output validates");
        prop_assert_eq!(&reloaded, &table);
        let raw = RawPrefixTable::from_prefixes(len, prefixes.clone());
        prop_assert_eq!(reloaded.len(), raw.len());
        for p in &prefixes {
            prop_assert!(reloaded.contains(p));
        }
        for probe in probes {
            let q = Prefix::from_bytes(&probe[..len.bytes()], len);
            prop_assert_eq!(reloaded.contains(&q), raw.contains(&q));
        }
        let round: Vec<Prefix> = view.iter().collect();
        let original: Vec<Prefix> = table.iter().collect();
        prop_assert_eq!(round, original);
    }

    /// Any truncation of a valid snapshot is a typed error, never a panic
    /// and never a silently shorter table.
    #[test]
    fn truncations_are_rejected(bytes in snapshot_bytes(), cut_seed in any::<usize>()) {
        let cut = cut_seed % bytes.len();
        let result = SnapshotView::parse(&bytes[..cut]);
        prop_assert!(result.is_err());
    }

    /// Trailing garbage is rejected: the buffer must be exactly the length
    /// the header implies.
    #[test]
    fn trailing_bytes_are_rejected(bytes in snapshot_bytes(), extra in 1usize..64) {
        let mut padded = bytes;
        padded.extend(std::iter::repeat_n(0xAAu8, extra));
        let wrong_length = matches!(
            SnapshotView::parse(&padded),
            Err(SnapshotError::WrongLength { .. })
        );
        prop_assert!(wrong_length);
    }

    /// Arbitrary byte soup never panics the parser; whatever it returns is
    /// a typed result.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = SnapshotView::parse(&bytes);
    }

    /// Flipping any single byte of a valid snapshot either still parses
    /// (row-region flips are deliberately invisible to `parse`) or yields
    /// a typed error — and a row flip is always caught by the deep check.
    #[test]
    fn single_byte_corruption_is_detected(
        bytes in snapshot_bytes(),
        at_seed in any::<usize>(),
        flip in any::<u8>(),
    ) {
        prop_assume!(flip != 0);
        let mut corrupt = bytes.clone();
        let at = at_seed % corrupt.len();
        corrupt[at] ^= flip;
        match SnapshotView::parse(&corrupt) {
            Err(_) => {}
            Ok(view) => {
                // parse() only tolerates flips in the row region (its
                // contract is zero-per-row work); those must then fail the
                // payload CRC.
                let row_region = view.iter().count() * view.prefix_len().bytes();
                prop_assert!(at >= bytes.len() - row_region);
                let caught = matches!(
                    view.verify_payload(),
                    Err(SnapshotError::DataCrcMismatch { .. })
                );
                prop_assert!(caught);
                // A table over the corrupt rows loads and answers (wrongly,
                // perhaps) without panicking.
                let table = IndexedPrefixTable::from_bytes(Arc::from(corrupt.clone()))
                    .expect("parse accepted it");
                for p in table.iter() {
                    let _ = table.contains(&p);
                }
            }
        }
    }
}

// ---- targeted hostile headers (deterministic) ------------------------------

fn valid_snapshot(n: usize) -> Vec<u8> {
    valid_table(n).bytes().to_vec()
}

fn valid_table(n: usize) -> IndexedPrefixTable {
    let prefixes = (0..n as u32).map(|i| Prefix::from_u32(i.wrapping_mul(2654435761)));
    IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes)
}

/// Recomputes both CRCs after a deliberate structural edit, so the test
/// reaches the *structural* validator instead of stopping at the CRC.
fn refresh_crcs(bytes: &mut [u8]) {
    let has_index = bytes[6] & 1 != 0;
    let index_len = if has_index { 65537 * 4 } else { 0 };
    let rows_start = 24 + index_len;
    let data_crc = sb_hash::crc32(&bytes[rows_start..]).to_le_bytes();
    bytes[16..20].copy_from_slice(&data_crc);
    let mut meta = sb_hash::Crc32::new();
    meta.update(&bytes[..20]);
    meta.update(&bytes[24..rows_start]);
    let meta_crc = meta.finalize().to_le_bytes();
    bytes[20..24].copy_from_slice(&meta_crc);
}

#[test]
fn wrong_magic_is_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[..4].copy_from_slice(b"NOPE");
    assert_eq!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::BadMagic(*b"NOPE"))
    );
    assert_ne!(SNAPSHOT_MAGIC, *b"NOPE");
}

#[test]
fn future_version_is_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[4..6].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert_eq!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
    );
}

#[test]
fn unknown_flags_are_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[6] |= 0x80;
    refresh_crcs(&mut bytes);
    assert_eq!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::UnknownFlags(0x80))
    );
}

#[test]
fn undeployed_prefix_len_is_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[8..10].copy_from_slice(&48u16.to_le_bytes());
    assert_eq!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::BadPrefixLen(48))
    );
}

#[test]
fn nonzero_reserved_is_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[10] = 7;
    assert_eq!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::NonZeroReserved(7))
    );
}

#[test]
fn corrupt_meta_crc_is_typed() {
    let mut bytes = valid_snapshot(10);
    bytes[20] ^= 0xFF;
    assert!(matches!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::MetaCrcMismatch { .. })
    ));
}

#[test]
fn misaligned_row_count_is_typed() {
    let mut bytes = valid_snapshot(10);
    let claimed = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(claimed + 1).to_le_bytes());
    refresh_crcs(&mut bytes);
    assert!(matches!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::WrongLength { .. })
    ));
}

#[test]
fn non_monotonic_index_is_typed() {
    let mut bytes = valid_snapshot(SNAPSHOT_INDEX_MIN_ROWS + 100);
    assert!(bytes[6] & 1 != 0, "large snapshot carries the index");
    // Find a bucket whose offset is non-zero and zero it: offsets become
    // non-monotonic (or break the offsets[0] == 0 anchor).
    let index = &mut bytes[24..24 + 65537 * 4];
    let mut edited_bucket = None;
    for bucket in (0..=65536).rev() {
        let at = bucket * 4;
        let v = u32::from_le_bytes(index[at..at + 4].try_into().unwrap());
        if v != 0 {
            index[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            edited_bucket = Some(bucket);
            break;
        }
    }
    let edited = edited_bucket.expect("a populated snapshot has non-zero offsets");
    refresh_crcs(&mut bytes);
    match SnapshotView::parse(&bytes) {
        Err(SnapshotError::NonMonotonicIndex { bucket }) => assert!(bucket >= edited),
        Err(SnapshotError::IndexRowCountMismatch { .. }) if edited == 65536 => {}
        other => panic!("expected a structural index rejection, got {other:?}"),
    }
}

#[test]
fn index_total_disagreeing_with_row_count_is_typed() {
    let mut bytes = valid_snapshot(SNAPSHOT_INDEX_MIN_ROWS + 100);
    assert!(bytes[6] & 1 != 0);
    // Bump every offset from some bucket on by +1, keeping monotonicity but
    // desynchronizing offsets[65536] from row_count.
    for bucket in 1..=65536usize {
        let at = 24 + bucket * 4;
        let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        bytes[at..at + 4].copy_from_slice(&(v + 1).to_le_bytes());
    }
    refresh_crcs(&mut bytes);
    assert!(matches!(
        SnapshotView::parse(&bytes),
        Err(SnapshotError::IndexRowCountMismatch { .. })
    ));
}

#[test]
fn small_lists_elide_the_index_and_large_lists_carry_it() {
    let small = valid_table(SNAPSHOT_INDEX_MIN_ROWS - 1);
    let large = valid_table(SNAPSHOT_INDEX_MIN_ROWS);
    assert_eq!(small.bytes()[6] & 1, 0, "small list: index elided");
    assert_eq!(large.bytes()[6] & 1, 1, "large list: index present");
    assert!(!small.view().has_index());
    assert!(large.view().has_index());
    // The elided index saves the fixed 256 KB.
    assert!(large.memory_bytes() - small.memory_bytes() > 65536 * 4);
    // Both still answer correctly.
    assert!(small.contains(&Prefix::from_u32(2654435761u32.wrapping_mul(1))));
    assert!(large.contains(&Prefix::from_u32(2654435761u32.wrapping_mul(1))));
}
