//! End-to-end snapshot persistence: one physical buffer backing many
//! consumers at once — the owning database that produced it, reloaded
//! shared databases, their readers, and a table loaded straight off the
//! bytes — with verdict parity everywhere and zero row copies.

use std::sync::Arc;

use safe_browsing_privacy::client::LocalDatabase;
use safe_browsing_privacy::hash::{Prefix, PrefixLen};
use safe_browsing_privacy::protocol::Chunk;
use safe_browsing_privacy::store::{
    GenerationalStore, IndexedPrefixTable, OverlayPolicy, PrefixStore, SnapshotView, StoreBackend,
};

fn prefixes(range: std::ops::Range<u32>) -> Vec<Prefix> {
    range.map(Prefix::from_u32).collect()
}

#[test]
fn one_buffer_backs_database_readers_shards_and_views() {
    // An owning client builds a consolidated database...
    let mut owner = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
    owner.subscribe("goog-malware-shavar");
    owner
        .apply_chunks(&[Chunk::add("goog-malware-shavar", 1, prefixes(0..20_000))])
        .unwrap();
    assert_eq!(owner.store_stats().overlay_len, 0, "bulk load consolidated");

    // ...and saves it: with an empty overlay this is an Arc clone of the
    // exact bytes the store queries, not a serialization pass.
    let buf = owner.save_snapshot().expect("owning database saves");
    let base = owner.snapshot();
    assert!(Arc::ptr_eq(&buf, base.base_snapshot().unwrap()));

    // Fan the one buffer out to a fleet of shared databases ("shards").
    let shards: Vec<LocalDatabase> = (0..4)
        .map(|_| LocalDatabase::load_snapshot(Arc::clone(&buf)).expect("valid snapshot"))
        .collect();
    for shard in &shards {
        let shard_buf = shard.snapshot();
        assert!(
            Arc::ptr_eq(shard_buf.base_snapshot().unwrap(), &buf),
            "every shard queries the original physical buffer"
        );
    }

    // Readers over the shards, plus a table loaded straight off the bytes
    // and a borrowed view that deep-checks them.
    let readers: Vec<_> = shards.iter().map(LocalDatabase::reader).collect();
    let table = IndexedPrefixTable::from_bytes(Arc::clone(&buf)).expect("buffer validates");
    assert!(Arc::ptr_eq(table.bytes(), &buf));
    SnapshotView::parse(&buf)
        .expect("buffer validates")
        .verify_payload()
        .expect("payload intact");

    for v in (0..25_000u32).step_by(7) {
        let p = Prefix::from_u32(v);
        let expect = owner.contains(&p);
        assert_eq!(table.contains(&p), expect, "table parity at {v}");
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(shard.contains(&p), expect, "shard {i} parity at {v}");
        }
        for (i, reader) in readers.iter().enumerate() {
            assert_eq!(reader.contains(&p), expect, "reader {i} parity at {v}");
        }
    }
}

#[test]
fn generational_store_round_trips_through_its_snapshot() {
    let store = GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L64, {
        (0..5000u32).map(|i| {
            let mut bytes = [0u8; 8];
            bytes[..4].copy_from_slice(&i.wrapping_mul(2654435761).to_be_bytes());
            bytes[4..].copy_from_slice(&i.to_be_bytes());
            Prefix::from_bytes(&bytes, PrefixLen::L64)
        })
    });
    let buf = store
        .base_snapshot()
        .expect("indexed base is snapshot-backed");
    let reloaded = GenerationalStore::from_shared_snapshot(
        IndexedPrefixTable::from_bytes(Arc::clone(buf)).unwrap(),
        OverlayPolicy::default(),
    );
    assert_eq!(reloaded.len(), store.len());
    assert_eq!(reloaded.prefix_len(), PrefixLen::L64);
}

#[test]
fn snapshot_survives_overlay_churn_then_save() {
    let mut db = LocalDatabase::new(StoreBackend::Indexed, PrefixLen::L32);
    db.subscribe("l");
    db.apply_chunks(&[Chunk::add("l", 1, prefixes(0..10_000))])
        .unwrap();
    // Churn small deltas onto the overlay across several responses.
    db.apply_chunks(&[Chunk::add("l", 2, prefixes(50_000..50_020))])
        .unwrap();
    db.apply_chunks(&[Chunk::sub("l", 1, prefixes(0..10))])
        .unwrap();
    assert!(db.store_stats().overlay_len > 0);

    let loaded = LocalDatabase::load_snapshot(db.save_snapshot().unwrap()).unwrap();
    for v in (0..60_000u32).step_by(13).chain(0..30) {
        let p = Prefix::from_u32(v);
        assert_eq!(loaded.contains(&p), db.contains(&p), "{v}");
    }
    assert_eq!(loaded.prefix_count(), db.prefix_count());
}
