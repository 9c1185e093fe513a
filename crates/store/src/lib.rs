//! # sb-store
//!
//! Client-side prefix database backends for Safe Browsing: an uncompressed
//! sorted table ([`RawPrefixTable`]), the delta-coded table used by Chromium
//! since 2012 ([`DeltaCodedTable`]), the Bloom filter it replaced
//! ([`BloomFilter`]), and a lead-indexed table tuned for raw lookup speed at
//! 1M+ prefixes ([`IndexedPrefixTable`]).  All backends implement
//! [`PrefixStore`], so the client and the experiments (Table 2 of the paper)
//! can swap them freely and compare memory footprint, lookup behaviour and
//! intrinsic false-positive rates.
//!
//! The lead-indexed table is stored as one `Arc<[u8]>` in the `SBSN`
//! snapshot layout, so the bytes it queries are the bytes a client saves,
//! loads ([`IndexedPrefixTable::from_bytes`]) and shares across shards and
//! readers; [`SnapshotView`] is the zero-copy parse of borrowed bytes.
//!
//! On top of any backend, [`GenerationalStore`] adds incremental updates:
//! small add/sub deltas are absorbed into an overlay (an add-set and a
//! tombstone-set consulted before the immutable base) and only a delta
//! that would push the overlay past the [`OverlayPolicy`] bound triggers a
//! full rebuild — the update path of `sb-client`'s local database.
//!
//! ## Example
//!
//! ```
//! use sb_hash::{prefix32, PrefixLen};
//! use sb_store::{build_store, PrefixStore, StoreBackend};
//!
//! let prefixes = ["evil.example/", "malware.test/download.exe"]
//!     .iter()
//!     .map(|e| prefix32(e));
//! let store = build_store(StoreBackend::DeltaCoded, PrefixLen::L32, prefixes);
//! assert!(store.contains(&prefix32("evil.example/")));
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the SIMD kernel
// module inside `scan`, which carries its own `#[allow(unsafe_code)]` and
// confines `unsafe` to `core::arch` intrinsic calls on unaligned loads.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bloom;
mod delta;
mod generational;
mod indexed;
mod raw;
mod rows;
pub mod scan;
mod snapshot;
mod traits;

pub use bloom::BloomFilter;
pub use delta::DeltaCodedTable;
pub use generational::{GenerationalStats, GenerationalStore, OverlayPolicy};
pub use indexed::IndexedPrefixTable;
pub use raw::RawPrefixTable;
pub use snapshot::{
    SnapshotError, SnapshotView, SNAPSHOT_INDEX_MIN_ROWS, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use traits::{PrefixStore, StoreBackend};

use sb_hash::{Prefix, PrefixLen};

/// Bloom filter size used when building through [`build_store`]: the 3 MB
/// figure of the paper's Table 2.
pub const DEFAULT_BLOOM_BYTES: usize = 3 * 1024 * 1024;

/// Builds a boxed store of the requested backend from an iterator of
/// prefixes.
///
/// The Bloom backend is sized at [`DEFAULT_BLOOM_BYTES`]; use
/// [`BloomFilter::with_size`] directly for other configurations.
pub fn build_store(
    backend: StoreBackend,
    prefix_len: PrefixLen,
    prefixes: impl IntoIterator<Item = Prefix>,
) -> Box<dyn PrefixStore> {
    match backend {
        StoreBackend::Raw => Box::new(RawPrefixTable::from_prefixes(prefix_len, prefixes)),
        StoreBackend::DeltaCoded => Box::new(DeltaCodedTable::from_prefixes(prefix_len, prefixes)),
        StoreBackend::Bloom => Box::new(BloomFilter::from_prefixes_with_size(
            prefix_len,
            DEFAULT_BLOOM_BYTES,
            prefixes,
        )),
        StoreBackend::Indexed => Box::new(IndexedPrefixTable::from_prefixes(prefix_len, prefixes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;

    #[test]
    fn build_store_dispatches_backends() {
        let prefixes: Vec<Prefix> = (0..100)
            .map(|i| prefix32(&format!("host{i}.example/")))
            .collect();
        for backend in StoreBackend::ALL {
            let store = build_store(backend, PrefixLen::L32, prefixes.iter().copied());
            assert_eq!(store.len(), 100, "{backend}");
            for p in &prefixes {
                assert!(store.contains(p), "{backend}");
            }
            assert_eq!(store.backend_name(), backend.to_string());
        }
    }

    #[test]
    fn exact_backends_have_zero_intrinsic_fp() {
        let prefixes: Vec<Prefix> = (0..10).map(|i| prefix32(&i.to_string())).collect();
        let raw = build_store(StoreBackend::Raw, PrefixLen::L32, prefixes.iter().copied());
        let delta = build_store(
            StoreBackend::DeltaCoded,
            PrefixLen::L32,
            prefixes.iter().copied(),
        );
        let bloom = build_store(
            StoreBackend::Bloom,
            PrefixLen::L32,
            prefixes.iter().copied(),
        );
        assert_eq!(raw.intrinsic_false_positive_rate(), 0.0);
        assert_eq!(delta.intrinsic_false_positive_rate(), 0.0);
        assert!(bloom.intrinsic_false_positive_rate() >= 0.0);
    }

    #[test]
    fn send_sync_object_safe() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn PrefixStore>();
        assert_send_sync::<RawPrefixTable>();
        assert_send_sync::<DeltaCodedTable>();
        assert_send_sync::<BloomFilter>();
        assert_send_sync::<IndexedPrefixTable>();
    }
}
