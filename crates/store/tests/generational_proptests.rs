//! Property-based tests of the generational store: incrementally absorbing
//! random interleavings of add/sub deltas must be indistinguishable from a
//! full rebuild over the final membership, on every backend.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sb_hash::{Prefix, PrefixLen};
use sb_store::{build_store, GenerationalStore, OverlayPolicy, PrefixStore, StoreBackend};

/// A random update stream: each batch carries adds and subs drawn from a
/// small value space, so batches collide, re-add, and re-remove the same
/// prefixes across the stream.
fn delta_stream() -> impl Strategy<Value = Vec<(Vec<u32>, Vec<u32>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..500, 0..30),
            prop::collection::vec(0u32..500, 0..30),
        ),
        1..12,
    )
}

/// Applies one batch to the reference membership with the response
/// ordering contract: subs first, then adds.
fn apply_reference(reference: &mut BTreeSet<u32>, adds: &[u32], subs: &[u32]) {
    for s in subs {
        reference.remove(s);
    }
    for a in adds {
        reference.insert(*a);
    }
}

fn prefixes(values: &[u32]) -> Vec<Prefix> {
    values.iter().map(|v| Prefix::from_u32(*v)).collect()
}

/// Drives one backend through the stream, absorbing or rebuilding as the
/// policy decides (exactly as `LocalDatabase` does), and compares against
/// a store freshly built from the final membership.
fn check_backend(
    backend: StoreBackend,
    initial: &[u32],
    stream: &[(Vec<u32>, Vec<u32>)],
    policy: OverlayPolicy,
) -> Result<(), TestCaseError> {
    let mut reference: BTreeSet<u32> = initial.iter().copied().collect();
    let mut store = GenerationalStore::with_policy(
        backend,
        PrefixLen::L32,
        reference.iter().map(|v| Prefix::from_u32(*v)),
        policy,
    );
    for (adds, subs) in stream {
        apply_reference(&mut reference, adds, subs);
        store.absorb_or_rebuild(&prefixes(adds), &prefixes(subs), || {
            reference.iter().map(|v| Prefix::from_u32(*v))
        });
    }

    let rebuilt = build_store(
        backend,
        PrefixLen::L32,
        reference.iter().map(|v| Prefix::from_u32(*v)),
    );

    // Every member of the final set must be contained by both (no false
    // negatives, on any backend — including Bloom).
    for v in &reference {
        let p = Prefix::from_u32(*v);
        prop_assert!(
            store.contains(&p),
            "{backend}: member {v} missing (incremental)"
        );
        prop_assert!(
            rebuilt.contains(&p),
            "{backend}: member {v} missing (rebuilt)"
        );
    }

    // Exact backends: byte-identical membership over the whole probed
    // value space, members and non-members alike.  (The Bloom filter's
    // intrinsic false positives depend on insertion history, so only the
    // no-false-negative guarantee above applies to it.)
    if backend != StoreBackend::Bloom {
        prop_assert_eq!(store.len(), reference.len(), "{}: cardinality", backend);
        for v in 0u32..520 {
            let p = Prefix::from_u32(v);
            prop_assert_eq!(
                store.contains(&p),
                reference.contains(&v),
                "{}: probe {} (incremental vs reference)",
                backend,
                v
            );
            prop_assert_eq!(
                store.contains(&p),
                rebuilt.contains(&p),
                "{}: probe {} (incremental vs rebuilt)",
                backend,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    /// Pure-overlay path: a policy that never consolidates must still end
    /// at exactly the rebuilt membership.
    #[test]
    fn overlay_only_apply_equals_full_rebuild(
        initial in prop::collection::vec(0u32..500, 0..200),
        stream in delta_stream(),
    ) {
        let never_rebuild = OverlayPolicy {
            min_overlay: usize::MAX,
            max_overlay_fraction: 0.0,
        };
        for backend in StoreBackend::ALL {
            check_backend(backend, &initial, &stream, never_rebuild)?;
        }
    }

    /// Aggressive-consolidation path: a tiny overlay bound forces rebuilds
    /// mid-stream; generation changes must never change membership.
    #[test]
    fn consolidating_apply_equals_full_rebuild(
        initial in prop::collection::vec(0u32..500, 0..200),
        stream in delta_stream(),
        min_overlay in 0usize..40,
    ) {
        let policy = OverlayPolicy {
            min_overlay,
            max_overlay_fraction: 0.0,
        };
        for backend in StoreBackend::ALL {
            check_backend(backend, &initial, &stream, policy)?;
        }
    }

    /// A prefix carried by both the sub and the add side of one delta ends
    /// up present (the ordering contract), on every backend and policy.
    #[test]
    fn sub_add_collision_resolves_to_present(
        value in 0u32..500,
        initial in prop::collection::vec(0u32..500, 0..100),
    ) {
        for backend in StoreBackend::ALL {
            let mut store = GenerationalStore::build(
                backend,
                PrefixLen::L32,
                initial.iter().map(|v| Prefix::from_u32(*v)),
            );
            let p = Prefix::from_u32(value);
            store.apply_delta(&[p], &[p]);
            prop_assert!(store.contains(&p), "{backend}");
        }
    }
}
