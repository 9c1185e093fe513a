//! Zero-copy snapshot format of [`IndexedPrefixTable`].
//!
//! A snapshot is the table's exact in-memory layout, portable as is: a small
//! versioned header, the 65,536-entry bucket index, and the sorted
//! fixed-width row array, all little-endian and offset-addressed (no
//! alignment requirements — every multi-byte field is read with
//! `from_le_bytes` on a byte slice).  Loading is **validation only**:
//! O(header + index) work, zero per-row parsing, zero allocation — so a
//! 1M-prefix client starts in the time it takes to checksum 256 KB, and one
//! physical buffer can back every shard of a provider and every reader
//! snapshot at once.
//!
//! ## Byte layout (version 1)
//!
//! ```text
//! offset  size  field
//! ------  ----  ---------------------------------------------------------
//!      0     4  magic "SBSN"
//!      4     2  version        u16 LE  (== 1)
//!      6     2  flags          u16 LE  (bit 0: bucket index present;
//!                                       any unknown bit set => rejected)
//!      8     2  prefix_len     u16 LE  (in bits: 16/32/64/80/96/128/256)
//!     10     2  reserved       u16 LE  (must be 0)
//!     12     4  row_count      u32 LE
//!     16     4  data_crc       u32 LE  (CRC-32 of the row region)
//!     20     4  meta_crc       u32 LE  (CRC-32 of bytes [0..20] ++ index)
//!     24     I  bucket index: 65,537 × u32 LE offsets  (I = 262,148 when
//!              flag bit 0 is set, otherwise I = 0 — see below)
//! 24 + I     R  rows: row_count × (prefix_len/8) bytes, sorted ascending
//! ```
//!
//! The buffer length must equal `24 + I + R` exactly.
//!
//! Tables under [`SNAPSHOT_INDEX_MIN_ROWS`] rows are built with the index
//! **elided** (flag bit 0 clear): at that size a fixed 256 KB index
//! dominates the table it accelerates and distorts the paper's Table 2
//! memory comparison, while a binary search over so few rows is already a
//! handful of probes.  A table without the index probes its whole row
//! array through the same crossover scan as a single bucket.
//!
//! ## Validation contract
//!
//! [`SnapshotView::parse`] is **memory-safe on any input** and returns a
//! typed [`SnapshotError`] (never panics) for truncated or oversized
//! buffers, bad magic/version/flags/reserved bytes, an undeployed prefix
//! length, a `meta_crc` mismatch, and any structural index defect
//! (`offsets[0] != 0`, non-monotonic offsets, `offsets[65536] !=
//! row_count`).  What it does *not* do is touch the row region — that is
//! the zero-per-row guarantee.  Consequently verdict correctness (rows
//! sorted, rows under their claimed buckets) is guaranteed for buffers
//! written by [`IndexedPrefixTable::from_prefixes`]; for buffers from a
//! distrusted channel, [`SnapshotView::verify_payload`] additionally checks
//! `data_crc` over the rows in O(rows).  A corrupt row region can never cause unsafety or a
//! panic — only wrong verdicts, exactly as a corrupt in-memory table would.

use std::fmt;

use sb_hash::{crc32, Crc32, Prefix, PrefixLen};

use crate::indexed::BUCKETS;
#[cfg(doc)]
use crate::IndexedPrefixTable;

/// The four magic bytes opening every snapshot: `"SBSN"`.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SBSN";

/// The (only) supported snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Tables with fewer rows than this are built without the 256 KB bucket
/// index (header flag bit 0 clear); lookups fall back to the crossover
/// scan over the whole row array.
pub const SNAPSHOT_INDEX_MIN_ROWS: usize = 4096;

/// Flag bit 0: the bucket index region is present.
pub(crate) const FLAG_HAS_INDEX: u16 = 1;
/// All flag bits this version understands; anything else is rejected.
const KNOWN_FLAGS: u16 = FLAG_HAS_INDEX;

/// Fixed header length in bytes.
pub(crate) const HEADER_LEN: usize = 24;
/// Length of the bucket-index region when present.
pub(crate) const INDEX_LEN: usize = (BUCKETS + 1) * 4;

/// Why a byte buffer was rejected as a snapshot.
///
/// Every variant is a *typed* rejection — hostile input can never panic
/// the parser (property-tested in `tests/snapshot_proptests.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    Truncated {
        /// Bytes required for the fixed header.
        needed: usize,
        /// Bytes actually supplied.
        actual: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// A version this build does not understand.
    UnsupportedVersion(u16),
    /// Flag bits outside the known set.
    UnknownFlags(u16),
    /// A prefix bit-length that is not a deployed [`PrefixLen`].
    BadPrefixLen(u16),
    /// Non-zero reserved field.
    NonZeroReserved(u16),
    /// Buffer length disagrees with the header's implied length
    /// (truncated row/index region, or trailing bytes).
    WrongLength {
        /// Length the header implies.
        expected: usize,
        /// Length of the supplied buffer.
        actual: usize,
    },
    /// CRC-32 over header + index does not match `meta_crc`.
    MetaCrcMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the buffer.
        computed: u32,
    },
    /// CRC-32 over the row region does not match `data_crc`
    /// (only from [`SnapshotView::verify_payload`]).
    DataCrcMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the buffer.
        computed: u32,
    },
    /// `offsets[0] != 0`, or a bucket offset decreases.
    NonMonotonicIndex {
        /// First bucket at which the defect was observed.
        bucket: usize,
    },
    /// `offsets[65536]` does not equal the header's `row_count`.
    IndexRowCountMismatch {
        /// Total the index claims (`offsets[65536]`).
        index_total: u32,
        /// Total the header claims.
        row_count: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, actual } => {
                write!(
                    f,
                    "snapshot truncated: {actual} bytes, header needs {needed}"
                )
            }
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::UnknownFlags(bits) => {
                write!(f, "unknown snapshot flag bits {bits:#06x}")
            }
            SnapshotError::BadPrefixLen(bits) => {
                write!(f, "snapshot prefix length {bits} bits is not deployed")
            }
            SnapshotError::NonZeroReserved(v) => {
                write!(f, "snapshot reserved field is {v:#06x}, expected 0")
            }
            SnapshotError::WrongLength { expected, actual } => {
                write!(
                    f,
                    "snapshot length {actual} disagrees with header-implied {expected}"
                )
            }
            SnapshotError::MetaCrcMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot meta CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SnapshotError::DataCrcMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot data CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            SnapshotError::NonMonotonicIndex { bucket } => {
                write!(f, "snapshot bucket index not monotonic at bucket {bucket}")
            }
            SnapshotError::IndexRowCountMismatch {
                index_total,
                row_count,
            } => {
                write!(
                    f,
                    "snapshot index totals {index_total} rows but header claims {row_count}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

pub(crate) fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// A zero-copy, read-only view over a validated snapshot buffer.
///
/// Borrowing means the same physical bytes — a `Vec`, an `Arc<[u8]>`, a
/// memory-mapped file — can back any number of views at once.  The view
/// is the format's parser and inspector; membership queries go through
/// the owning [`IndexedPrefixTable`], which
/// [`from_bytes`](IndexedPrefixTable::from_bytes) loads over the same
/// validation and [`view`](IndexedPrefixTable::view) borrows back.
///
/// # Examples
///
/// ```
/// use sb_hash::{prefix32, PrefixLen};
/// use sb_store::{IndexedPrefixTable, SnapshotView};
///
/// let table = IndexedPrefixTable::from_prefixes(
///     PrefixLen::L32,
///     ["a.b.c/", "b.c/"].iter().map(|e| prefix32(e)),
/// );
/// let bytes: Vec<u8> = table.bytes().to_vec();
/// let view = SnapshotView::parse(&bytes).unwrap();
/// assert_eq!(view.prefix_len(), PrefixLen::L32);
/// assert_eq!(view.iter().count(), 2);
/// assert!(!view.has_index());
/// view.verify_payload().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotView<'a> {
    pub(crate) prefix_len: PrefixLen,
    pub(crate) data_crc: u32,
    /// True when the 65,536-bucket index region is present.
    pub(crate) has_index: bool,
    /// The sorted row region.
    pub(crate) rows: &'a [u8],
}

impl<'a> SnapshotView<'a> {
    /// Validates `bytes` as a snapshot and returns a zero-copy view.
    ///
    /// O(header + index) — the row region is never read (see the module
    /// docs for the exact validation contract).  Never panics; hostile
    /// input yields a typed [`SnapshotError`].
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN,
                actual: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[..4].try_into().expect("4-byte slice");
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = read_u16(bytes, 4);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let flags = read_u16(bytes, 6);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(SnapshotError::UnknownFlags(flags & !KNOWN_FLAGS));
        }
        let bits = read_u16(bytes, 8);
        let prefix_len =
            PrefixLen::from_bits(u32::from(bits)).ok_or(SnapshotError::BadPrefixLen(bits))?;
        let reserved = read_u16(bytes, 10);
        if reserved != 0 {
            return Err(SnapshotError::NonZeroReserved(reserved));
        }
        let row_count = read_u32(bytes, 12);
        let data_crc = read_u32(bytes, 16);
        let meta_crc = read_u32(bytes, 20);

        let has_index = flags & FLAG_HAS_INDEX != 0;
        let index_len = if has_index { INDEX_LEN } else { 0 };
        // u64 arithmetic: a hostile row_count cannot overflow the length
        // computation even on 32-bit targets.
        let expected =
            HEADER_LEN as u64 + index_len as u64 + u64::from(row_count) * prefix_len.bytes() as u64;
        if bytes.len() as u64 != expected {
            return Err(SnapshotError::WrongLength {
                expected: usize::try_from(expected).unwrap_or(usize::MAX),
                actual: bytes.len(),
            });
        }

        let index = has_index.then(|| &bytes[HEADER_LEN..HEADER_LEN + INDEX_LEN]);
        let rows = &bytes[HEADER_LEN + index_len..];

        let mut meta = Crc32::new();
        meta.update(&bytes[..HEADER_LEN - 4]);
        meta.update(index.unwrap_or(&[]));
        let computed = meta.finalize();
        if computed != meta_crc {
            return Err(SnapshotError::MetaCrcMismatch {
                stored: meta_crc,
                computed,
            });
        }

        if let Some(index) = index {
            if read_u32(index, 0) != 0 {
                return Err(SnapshotError::NonMonotonicIndex { bucket: 0 });
            }
            let mut prev = 0u32;
            for bucket in 1..=BUCKETS {
                let offset = read_u32(index, bucket * 4);
                if offset < prev {
                    return Err(SnapshotError::NonMonotonicIndex { bucket });
                }
                prev = offset;
            }
            if prev != row_count {
                return Err(SnapshotError::IndexRowCountMismatch {
                    index_total: prev,
                    row_count,
                });
            }
        }

        Ok(SnapshotView {
            prefix_len,
            data_crc,
            has_index,
            rows,
        })
    }

    /// Deep integrity check: CRC-32 over the row region against the
    /// header's `data_crc`.  O(rows) — for buffers from distrusted
    /// channels; [`parse`](Self::parse) deliberately skips it to stay
    /// zero-per-row.
    pub fn verify_payload(&self) -> Result<(), SnapshotError> {
        let computed = crc32(self.rows);
        if computed != self.data_crc {
            return Err(SnapshotError::DataCrcMismatch {
                stored: self.data_crc,
                computed,
            });
        }
        Ok(())
    }

    /// True when the snapshot carries the 65,536-bucket index region.
    pub fn has_index(&self) -> bool {
        self.has_index
    }

    /// The width of the stored prefixes.
    pub fn prefix_len(&self) -> PrefixLen {
        self.prefix_len
    }

    /// Iterates over the stored prefixes in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + 'a {
        let prefix_len = self.prefix_len;
        self.rows
            .chunks_exact(prefix_len.bytes())
            .map(move |chunk| Prefix::from_bytes(chunk, prefix_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexedPrefixTable, PrefixStore};
    use sb_hash::digest_url;
    use std::sync::Arc;

    fn sample(n: usize, len: PrefixLen) -> Vec<Prefix> {
        (0..n)
            .map(|i| digest_url(&format!("host{i}.example/page")).prefix(len))
            .collect()
    }

    /// A private copy of `table`'s bytes, loaded back as a new table.
    fn reload(table: &IndexedPrefixTable) -> IndexedPrefixTable {
        IndexedPrefixTable::from_bytes(Arc::from(table.bytes().to_vec())).expect("valid snapshot")
    }

    #[test]
    fn round_trips_small_and_large() {
        for &n in &[0usize, 1, 100, SNAPSHOT_INDEX_MIN_ROWS + 50] {
            let prefixes = sample(n, PrefixLen::L32);
            let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.clone());
            let view = SnapshotView::parse(table.bytes()).expect("valid snapshot");
            assert_eq!(view.has_index(), n >= SNAPSHOT_INDEX_MIN_ROWS, "n={n}");
            assert_eq!(view, table.view());
            view.verify_payload().expect("payload intact");
            let reloaded = reload(&table);
            assert_eq!(reloaded, table);
            for p in &prefixes {
                assert!(reloaded.contains(p));
            }
            for i in 0..200 {
                let q = digest_url(&format!("absent{i}.org/")).prefix(PrefixLen::L32);
                assert_eq!(reloaded.contains(&q), table.contains(&q));
            }
            let collected: Vec<Prefix> = view.iter().collect();
            let original: Vec<Prefix> = table.iter().collect();
            assert_eq!(collected, original);
        }
    }

    #[test]
    fn every_prefix_length_round_trips() {
        for len in PrefixLen::ALL {
            let prefixes = sample(500, len);
            let table = reload(&IndexedPrefixTable::from_prefixes(len, prefixes.clone()));
            assert_eq!(table.prefix_len(), len);
            for p in &prefixes {
                assert!(table.contains(p), "len={len}");
            }
        }
    }

    #[test]
    fn clones_and_loads_share_bytes() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(100, PrefixLen::L32));
        let clone = table.clone();
        let loaded = IndexedPrefixTable::from_bytes(Arc::clone(table.bytes())).unwrap();
        assert!(Arc::ptr_eq(table.bytes(), clone.bytes()));
        assert!(Arc::ptr_eq(table.bytes(), loaded.bytes()));
        assert_eq!(loaded.len(), 100);
        for p in table.iter() {
            assert!(loaded.contains(&p));
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(100, PrefixLen::L32));
        let bytes = table.bytes().to_vec();

        assert!(matches!(
            SnapshotView::parse(&bytes[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            SnapshotView::parse(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::WrongLength { .. })
        ));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            IndexedPrefixTable::from_bytes(Arc::from(wrong_magic)),
            Err(SnapshotError::BadMagic(_))
        ));

        let mut future_version = bytes.clone();
        future_version[4] = 9;
        assert!(matches!(
            SnapshotView::parse(&future_version),
            Err(SnapshotError::UnsupportedVersion(9))
        ));

        // Flipping a header byte breaks meta_crc before anything else can
        // misinterpret the buffer.
        let mut bad_count = bytes.clone();
        bad_count[12] ^= 1;
        assert!(SnapshotView::parse(&bad_count).is_err());

        // Flipping a row byte is invisible to parse (zero-per-row) but
        // caught by the deep check.
        let mut bad_row = bytes.clone();
        let last = bad_row.len() - 1;
        bad_row[last] ^= 0xFF;
        let view = SnapshotView::parse(&bad_row).expect("parse ignores rows");
        assert!(matches!(
            view.verify_payload(),
            Err(SnapshotError::DataCrcMismatch { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(10, PrefixLen::L32));
        let err = SnapshotView::parse(&table.bytes()[..4]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
