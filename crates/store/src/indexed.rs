//! Lead-indexed prefix table: the hot-path membership backend.
//!
//! The raw table answers membership with a binary search over the whole
//! sorted array — ~20 cache-missing probes at 1M prefixes.  This backend
//! layers a bucket index keyed by the leading **two bytes** of the prefix
//! over the same sorted fixed-width array: 65,536 `u32` offsets, where
//! bucket `b` spans rows `offsets[b]..offsets[b + 1]`.  A lookup is then one
//! index load followed by a scan of a tiny bucket (~15 contiguous rows at
//! 1M prefixes, typically a single cache line for 32-bit prefixes), with a
//! binary-search fallback for adversarially skewed buckets.
//!
//! The table is stored as one shared `Arc<[u8]>` in the `SBSN` snapshot
//! layout (parsed by [`SnapshotView`]): the bytes the table queries are
//! the bytes a client saves, loads and shares across shards and readers,
//! with no serialization step in between.  Tables under
//! [`SNAPSHOT_INDEX_MIN_ROWS`] rows elide the 256 KB index, which would
//! dominate them, and probe the whole row array instead.  Larger tables pay
//! raw size plus the index, which is why
//! [`StoreBackend::DeltaCoded`](crate::StoreBackend) remains the
//! memory-comparison reference and `Indexed` is the *speed* backend.

use std::sync::Arc;

use sb_hash::{crc32, Crc32, Prefix, PrefixLen};

use crate::rows::sorted_rows;
use crate::scan;
use crate::snapshot::{
    read_u32, SnapshotError, SnapshotView, FLAG_HAS_INDEX, HEADER_LEN, INDEX_LEN,
    SNAPSHOT_INDEX_MIN_ROWS, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use crate::traits::PrefixStore;

/// Number of buckets in the two-byte lead index.
pub(crate) const BUCKETS: usize = 1 << 16;

/// A sorted fixed-width prefix array accelerated by a 2-byte-lead bucket
/// index, owned as one cheaply-cloneable `SBSN` buffer.
///
/// Clones share the physical bytes.  [`bytes`](Self::bytes) hands the
/// buffer out for saving or sharing, and [`from_bytes`](Self::from_bytes)
/// takes one back after O(header + index) validation.
///
/// # Examples
///
/// ```
/// use sb_hash::{prefix32, PrefixLen};
/// use sb_store::{IndexedPrefixTable, PrefixStore};
///
/// let table = IndexedPrefixTable::from_prefixes(
///     PrefixLen::L32,
///     ["a.b.c/", "b.c/"].iter().map(|e| prefix32(e)),
/// );
/// assert!(table.contains(&prefix32("a.b.c/")));
/// assert!(!table.contains(&prefix32("unrelated.org/")));
///
/// // The table *is* its snapshot: reload the shared bytes as-is.
/// let reloaded = IndexedPrefixTable::from_bytes(table.bytes().clone()).unwrap();
/// assert!(reloaded.contains(&prefix32("b.c/")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedPrefixTable {
    /// The validated `SBSN` buffer: header, optional index, sorted rows.
    buf: Arc<[u8]>,
    prefix_len: PrefixLen,
    /// Byte offset of the row region; `HEADER_LEN` when the index is
    /// elided.
    rows_start: usize,
}

impl IndexedPrefixTable {
    /// Builds a table from an iterator of prefixes, writing the header,
    /// the bucket index (for at least [`SNAPSHOT_INDEX_MIN_ROWS`] rows) and
    /// the sorted rows into one buffer.
    ///
    /// # Panics
    ///
    /// Panics if a prefix does not have length `prefix_len`.
    pub fn from_prefixes(
        prefix_len: PrefixLen,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Self {
        let rows = sorted_rows(prefix_len, prefixes);
        let width = prefix_len.bytes();
        let row_count = rows.len() / width;
        let with_index = row_count >= SNAPSHOT_INDEX_MIN_ROWS;
        let rows_start = HEADER_LEN + if with_index { INDEX_LEN } else { 0 };

        let mut buf = Vec::with_capacity(rows_start + rows.len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let flags = if with_index { FLAG_HAS_INDEX } else { 0 };
        buf.extend_from_slice(&flags.to_le_bytes());
        let bits = u16::try_from(prefix_len.bits()).expect("prefix bits fit u16");
        buf.extend_from_slice(&bits.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // reserved
        let count = u32::try_from(row_count).expect("row count fits u32");
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&crc32(&rows).to_le_bytes()); // data_crc
        buf.extend_from_slice(&[0u8; 4]); // meta_crc, patched below

        if with_index {
            let mut offsets = vec![0u32; BUCKETS + 1];
            for row in rows.chunks_exact(width) {
                offsets[lead16(row) + 1] += 1;
            }
            for b in 0..BUCKETS {
                offsets[b + 1] += offsets[b];
            }
            for offset in offsets {
                buf.extend_from_slice(&offset.to_le_bytes());
            }
        }
        let mut meta = Crc32::new();
        meta.update(&buf[..HEADER_LEN - 4]);
        meta.update(&buf[HEADER_LEN..]);
        let meta_crc = meta.finalize().to_le_bytes();
        buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&meta_crc);

        buf.extend_from_slice(&rows);
        IndexedPrefixTable {
            buf: Arc::from(buf),
            prefix_len,
            rows_start,
        }
    }

    /// Validates `buf` as a snapshot (see [`SnapshotView::parse`]) and takes
    /// shared ownership of it: O(header + index), no per-row work, no copy.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when `buf` is not a valid snapshot.
    pub fn from_bytes(buf: Arc<[u8]>) -> Result<Self, SnapshotError> {
        let view = SnapshotView::parse(&buf)?;
        let prefix_len = view.prefix_len();
        let rows_start = buf.len() - view.rows.len();
        Ok(IndexedPrefixTable {
            buf,
            prefix_len,
            rows_start,
        })
    }

    /// The snapshot buffer — clone the `Arc` to share the same physical
    /// bytes with another shard or reader, or to persist them.
    pub fn bytes(&self) -> &Arc<[u8]> {
        &self.buf
    }

    /// A borrowed view over the buffer (for
    /// [`SnapshotView::verify_payload`] and friends).
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            prefix_len: self.prefix_len,
            data_crc: read_u32(&self.buf, HEADER_LEN - 8),
            has_index: self.rows_start > HEADER_LEN,
            rows: self.rows(),
        }
    }

    /// Iterates over the stored prefixes in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.view().iter()
    }

    /// Number of rows in the largest bucket (diagnostics: how skewed the
    /// two-byte-lead distribution is).
    pub fn max_bucket_len(&self) -> usize {
        let mut max = 0;
        let mut run = 0;
        let mut prev = None;
        for lead in self
            .rows()
            .chunks_exact(self.prefix_len.bytes())
            .map(lead16)
        {
            run = if prev == Some(lead) { run + 1 } else { 1 };
            prev = Some(lead);
            max = max.max(run);
        }
        max
    }

    /// The sorted row region.
    fn rows(&self) -> &[u8] {
        &self.buf[self.rows_start..]
    }
}

/// The bucket of a row: its leading two bytes, big-endian.
pub(crate) fn lead16(row: &[u8]) -> usize {
    u16::from_be_bytes([row[0], row[1]]) as usize
}

impl PrefixStore for IndexedPrefixTable {
    fn backend_name(&self) -> &'static str {
        "indexed"
    }

    fn prefix_len(&self) -> PrefixLen {
        self.prefix_len
    }

    fn len(&self) -> usize {
        self.rows().len() / self.prefix_len.bytes()
    }

    fn contains(&self, prefix: &Prefix) -> bool {
        if prefix.len() != self.prefix_len {
            return false;
        }
        let target = prefix.as_bytes();
        let width = self.prefix_len.bytes();
        let (head, rows) = self.buf.split_at(self.rows_start);
        // Both regions come from the cached row offset.  Validation
        // guarantees monotonic offsets bounded by the row count, so the
        // slicing below cannot fail on a buffer that passed `from_bytes`.
        let bucket = if head.len() == HEADER_LEN {
            rows
        } else {
            let at = HEADER_LEN + lead16(target) * 4;
            let pair = &head[at..at + 8];
            let lo = read_u32(pair, 0) as usize;
            let hi = read_u32(pair, 4) as usize;
            &rows[lo * width..hi * width]
        };
        // Tiny buckets take a vectorized (SIMD where available) linear
        // scan; adversarially skewed ones past `scan::LINEAR_SCAN_MAX`
        // fall back to a binary search — see the `scan` module for the
        // kernels and dispatch rules.
        scan::scan_bucket(bucket, width, target)
    }

    fn memory_bytes(&self) -> usize {
        self.buf.len()
    }
}

impl FromIterator<Prefix> for IndexedPrefixTable {
    /// Collects prefixes into a table; the prefix length is taken from the
    /// first element (32 bits for an empty iterator).
    fn from_iter<I: IntoIterator<Item = Prefix>>(iter: I) -> Self {
        let items: Vec<Prefix> = iter.into_iter().collect();
        let len = items.first().map(|p| p.len()).unwrap_or(PrefixLen::L32);
        IndexedPrefixTable::from_prefixes(len, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawPrefixTable;
    use sb_hash::{digest_url, prefix32};

    fn sample(n: usize, len: PrefixLen) -> Vec<Prefix> {
        (0..n)
            .map(|i| digest_url(&format!("host{i}.example/page")).prefix(len))
            .collect()
    }

    /// `values` as two tables: as given (too few rows, so the index is
    /// elided) and padded with filler rows under leads `0x2000..0x3000` up
    /// to the index threshold, so both probe paths run.
    fn both_layouts(values: &[u32]) -> [IndexedPrefixTable; 2] {
        let filler = (0..SNAPSHOT_INDEX_MIN_ROWS as u32).map(|i| 0x2000_0000 + i * 0x1_0001);
        let tables = [
            IndexedPrefixTable::from_prefixes(
                PrefixLen::L32,
                values.iter().map(|&v| Prefix::from_u32(v)),
            ),
            IndexedPrefixTable::from_prefixes(
                PrefixLen::L32,
                values.iter().copied().chain(filler).map(Prefix::from_u32),
            ),
        ];
        assert!(!tables[0].view().has_index() && tables[1].view().has_index());
        tables
    }

    #[test]
    fn contains_all_inserted() {
        let prefixes = sample(5000, PrefixLen::L32);
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, prefixes.clone());
        for p in &prefixes {
            assert!(table.contains(p));
        }
        assert_eq!(table.len(), 5000);
    }

    #[test]
    fn agrees_with_raw_table_on_membership() {
        for len in PrefixLen::ALL {
            for n in [2000, SNAPSHOT_INDEX_MIN_ROWS + 100] {
                let prefixes = sample(n, len);
                let indexed = IndexedPrefixTable::from_prefixes(len, prefixes.clone());
                let raw = RawPrefixTable::from_prefixes(len, prefixes.clone());
                for p in &prefixes {
                    assert_eq!(indexed.contains(p), raw.contains(p), "len={len} n={n}");
                }
                for i in 0..500 {
                    let q = digest_url(&format!("absent{i}.org/")).prefix(len);
                    assert_eq!(indexed.contains(&q), raw.contains(&q), "absent len={len}");
                }
            }
        }
    }

    #[test]
    fn bucket_boundaries() {
        // Values at the very edges of buckets: first/last row of a bucket,
        // probes that fall into the adjacent (empty) buckets.
        let values = [
            0x0000_0000u32,
            0x0000_ffff,
            0x0001_0000,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_0000,
            0xffff_ffff,
        ];
        for table in both_layouts(&values) {
            for v in values {
                assert!(table.contains(&Prefix::from_u32(v)), "{v:#x}");
            }
            for absent in [0x0000_0001u32, 0x0001_0001, 0x7fff_0000, 0xfffe_ffff] {
                assert!(!table.contains(&Prefix::from_u32(absent)), "{absent:#x}");
            }
        }
    }

    #[test]
    fn empty_buckets_answer_false() {
        for table in both_layouts(&[0x4242_0001]) {
            assert!(!table.contains(&Prefix::from_u32(0x4141_0001)));
            assert!(!table.contains(&Prefix::from_u32(0x4343_0001)));
            assert!(!table.contains(&Prefix::from_u32(0x4242_0002)));
            assert!(table.contains(&Prefix::from_u32(0x4242_0001)));
        }
    }

    #[test]
    fn empty_table() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, std::iter::empty());
        assert!(table.is_empty());
        assert!(!table.contains(&prefix32("x/")));
        assert_eq!(table.max_bucket_len(), 0);
    }

    #[test]
    fn sixteen_bit_prefixes_use_the_whole_lead() {
        // For L16 the two lead bytes ARE the prefix: membership degenerates
        // to "is the bucket non-empty", which must still be exact.
        let prefixes: Vec<Prefix> = (0..1000u32)
            .map(|i| Prefix::from_bytes(&((i * 37) as u16).to_be_bytes(), PrefixLen::L16))
            .collect();
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L16, prefixes.clone());
        for p in &prefixes {
            assert!(table.contains(p));
        }
        assert!(!table.contains(&Prefix::from_bytes(&1u16.to_be_bytes(), PrefixLen::L16)));
    }

    #[test]
    fn skewed_bucket_falls_back_to_binary_search() {
        // All prefixes share one two-byte lead: a single bucket holding the
        // entire table must still answer correctly (binary-search path).
        let values: Vec<u32> = (0..(4 * scan::LINEAR_SCAN_MAX as u32))
            .map(|i| 0xabcd_0000 | (i * 3))
            .collect();
        for table in both_layouts(&values) {
            assert_eq!(table.max_bucket_len(), values.len());
            for &v in &values {
                assert!(table.contains(&Prefix::from_u32(v)));
            }
            assert!(!table.contains(&Prefix::from_u32(0xabcd_0001)));
            assert!(!table.contains(&Prefix::from_u32(0xabce_0000)));
        }
    }

    #[test]
    fn wrong_length_query_is_false() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(10, PrefixLen::L32));
        let d = digest_url("host0.example/page");
        assert!(table.contains(&d.prefix32()));
        assert!(!table.contains(&d.prefix(PrefixLen::L64)));
    }

    #[test]
    fn memory_is_the_buffer_and_small_tables_elide_the_index() {
        let small = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(100, PrefixLen::L32));
        assert_eq!(small.memory_bytes(), HEADER_LEN + 100 * 4);
        let large = IndexedPrefixTable::from_prefixes(
            PrefixLen::L32,
            sample(SNAPSHOT_INDEX_MIN_ROWS, PrefixLen::L32),
        );
        assert_eq!(
            large.memory_bytes(),
            HEADER_LEN + INDEX_LEN + large.len() * 4
        );
        assert_eq!(large.memory_bytes(), large.bytes().len());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let table = IndexedPrefixTable::from_prefixes(PrefixLen::L32, sample(200, PrefixLen::L32));
        let collected: Vec<Prefix> = table.iter().collect();
        assert_eq!(collected.len(), 200);
        let mut sorted = collected.clone();
        sorted.sort();
        assert_eq!(collected, sorted);
    }

    #[test]
    fn from_iterator_infers_length() {
        let table: IndexedPrefixTable = sample(5, PrefixLen::L64).into_iter().collect();
        assert_eq!(table.prefix_len(), PrefixLen::L64);
        assert_eq!(table.len(), 5);
    }
}
