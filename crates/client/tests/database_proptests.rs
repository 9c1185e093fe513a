//! Property test of `LocalDatabase` against a model: random update
//! responses over two or three subscribed lists and a 12-prefix universe,
//! mixing subs and adds in one response (including a sub in one list of a
//! prefix another list adds), must leave the database answering exactly
//! like the union of the model's lists — after every response, on every
//! exact backend, through both the overlay-absorb and the rebuild path,
//! and again after a save/load round trip of the snapshot.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sb_client::LocalDatabase;
use sb_hash::{Prefix, PrefixLen};
use sb_protocol::{Chunk, ChunkKind};
use sb_store::{OverlayPolicy, StoreBackend};

/// Size of the prefix universe: small, so chunks collide constantly.
const UNIVERSE: usize = 12;

/// A tiny overlay bound, so both the absorb path (deltas of at most 4
/// entries) and the rebuild path (larger deltas) run.
const POLICY: OverlayPolicy = OverlayPolicy {
    min_overlay: 4,
    max_overlay_fraction: 0.0,
};

fn universe(i: usize) -> Prefix {
    Prefix::from_u32((i as u32).wrapping_mul(0x9E37_79B9))
}

/// One chunk: (list slot, is-add, universe indices).  A slot past the
/// subscribed lists names a list the client ignores.
type ChunkSpec = (usize, bool, Vec<usize>);

fn response() -> impl Strategy<Value = Vec<ChunkSpec>> {
    prop::collection::vec(
        (
            0usize..4,
            any::<bool>(),
            prop::collection::vec(0usize..UNIVERSE, 0..6),
        ),
        0..6,
    )
}

fn list_name(slot: usize) -> String {
    format!("list-{slot}")
}

/// Drives one backend through the responses, checking the database
/// against the model after each.
fn check(
    backend: StoreBackend,
    lists: usize,
    responses: &[Vec<ChunkSpec>],
) -> Result<(), TestCaseError> {
    let mut db = LocalDatabase::with_overlay_policy(backend, PrefixLen::L32, POLICY);
    let mut model: BTreeMap<String, BTreeSet<Prefix>> = BTreeMap::new();
    for slot in 0..lists {
        db.subscribe(list_name(slot));
        model.insert(list_name(slot), BTreeSet::new());
    }
    // Fresh chunk numbers per (list, kind), so no chunk is a re-delivery.
    let mut next_number: BTreeMap<(usize, bool), u32> = BTreeMap::new();

    for response in responses {
        let mut chunks = Vec::new();
        for (slot, is_add, indices) in response {
            let number = next_number.entry((*slot, *is_add)).or_insert(1);
            let prefixes: Vec<Prefix> = indices.iter().map(|&i| universe(i)).collect();
            chunks.push(if *is_add {
                Chunk::add(list_name(*slot), *number, prefixes)
            } else {
                Chunk::sub(list_name(*slot), *number, prefixes)
            });
            *number += 1;
        }
        db.apply_chunks(&chunks).expect("well-formed response");

        // The model: subs first, then adds; unsubscribed lists ignored.
        for kind in [ChunkKind::Sub, ChunkKind::Add] {
            for chunk in chunks.iter().filter(|c| c.kind == kind) {
                let Some(set) = model.get_mut(chunk.list.as_str()) else {
                    continue;
                };
                for p in &chunk.prefixes {
                    match kind {
                        ChunkKind::Sub => set.remove(p),
                        ChunkKind::Add => set.insert(*p),
                    };
                }
            }
        }
        let union: BTreeSet<Prefix> = model.values().flatten().copied().collect();

        prop_assert!(db.store_stats().overlay_len <= POLICY.min_overlay);
        prop_assert_eq!(db.prefix_count(), union.len(), "{}", backend);
        let loaded = LocalDatabase::load_snapshot(db.save_snapshot().expect("owning db saves"))
            .expect("saved snapshot loads");
        for i in 0..UNIVERSE {
            let p = universe(i);
            let want = union.contains(&p);
            prop_assert_eq!(db.contains(&p), want, "{}: prefix {}", backend, i);
            prop_assert_eq!(
                loaded.contains(&p),
                want,
                "{}: loaded prefix {}",
                backend,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn database_matches_the_model_union(
        lists in 2usize..4,
        responses in prop::collection::vec(response(), 1..8),
    ) {
        for backend in [StoreBackend::Raw, StoreBackend::DeltaCoded, StoreBackend::Indexed] {
            check(backend, lists, &responses)?;
        }
    }
}
