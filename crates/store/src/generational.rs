//! Generational prefix store: an immutable base plus a small mutable
//! overlay.
//!
//! Every exact backend in this crate is built once and queried forever —
//! the fast lookup structures (sorted rows, lead index, delta coding) don't
//! support in-place mutation.  Before this module, *any* update therefore
//! cost a full O(n) rebuild, exactly like Chromium's early `PrefixSet`
//! rebuilds.  [`GenerationalStore`] absorbs small deltas instead: adds land
//! in an overlay set, removals in a tombstone set, and membership consults
//! the overlay before falling through to the base.  Only when a delta
//! would grow the overlay past the [`OverlayPolicy`] threshold is a
//! rebuild (a new *generation*) worth its O(n) cost.
//!
//! The store is cheap to clone — the base is shared behind an [`Arc`], the
//! overlay sets are bounded by policy — so an updater can clone the current
//! snapshot, absorb a delta, and atomically publish the result while
//! concurrent readers keep querying the old snapshot (see
//! `sb_client::LocalDatabase`).

use std::collections::BTreeSet;
use std::sync::Arc;

use sb_hash::{Prefix, PrefixLen};

use crate::build_store;
use crate::traits::{PrefixStore, StoreBackend};
use crate::IndexedPrefixTable;

/// When a [`GenerationalStore`] stops absorbing deltas and rebuilds its
/// base.
///
/// The overlay (adds + tombstones) is allowed to grow to
/// `max(min_overlay, max_overlay_fraction × base_len)` entries; a delta
/// that would push it past the bound is not absorbed but triggers a
/// rebuild instead.  With the defaults, a 1% delta against a 1M-prefix base
/// (10 000 entries vs a 20 000 bound) is absorbed without touching the
/// base, while repeated churn is eventually consolidated so lookups never
/// scan an unbounded overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayPolicy {
    /// Overlay entries always tolerated, regardless of base size (keeps
    /// tiny databases from rebuilding on every chunk).
    pub min_overlay: usize,
    /// Overlay entries tolerated as a fraction of the base length.
    pub max_overlay_fraction: f64,
}

impl Default for OverlayPolicy {
    fn default() -> Self {
        OverlayPolicy {
            min_overlay: 4096,
            max_overlay_fraction: 0.02,
        }
    }
}

impl OverlayPolicy {
    /// The overlay size bound for a base of `base_len` prefixes.
    pub fn bound(&self, base_len: usize) -> usize {
        let fractional = (base_len as f64 * self.max_overlay_fraction) as usize;
        self.min_overlay.max(fractional)
    }
}

/// Counters describing a [`GenerationalStore`]'s update history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationalStats {
    /// Base generation (bumped on every rebuild; 0 for the initial build).
    pub generation: u64,
    /// Deltas absorbed into the overlay without a rebuild.
    pub deltas_absorbed: u64,
    /// Full base rebuilds performed.
    pub rebuilds: u64,
    /// Current overlay size (adds + tombstones).
    pub overlay_len: usize,
}

/// A prefix store that layers a mutable overlay over an immutable,
/// shareable base store.
///
/// Membership: a tombstoned prefix is absent, an overlay-added prefix is
/// present, anything else defers to the base.  For exact backends the
/// answer is exactly the set produced by applying every absorbed delta to
/// the base contents; for the Bloom base the intrinsic false-positive
/// behaviour of the filter is preserved (tombstones give the overlay exact
/// *removal*, which a Bloom filter alone cannot do).
///
/// # Examples
///
/// ```
/// use sb_hash::{prefix32, PrefixLen};
/// use sb_store::{GenerationalStore, PrefixStore, StoreBackend};
///
/// let mut store = GenerationalStore::build(
///     StoreBackend::Indexed,
///     PrefixLen::L32,
///     ["a.example/", "b.example/"].iter().map(|e| prefix32(e)),
/// );
/// // A small delta is absorbed by the overlay — no rebuild.
/// store.apply_delta(&[prefix32("c.example/")], &[prefix32("a.example/")]);
/// assert!(store.contains(&prefix32("c.example/")));
/// assert!(!store.contains(&prefix32("a.example/")));
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.stats().rebuilds, 0);
/// ```
#[derive(Clone)]
pub struct GenerationalStore {
    backend: StoreBackend,
    prefix_len: PrefixLen,
    /// The immutable, shareable base.
    base: Base,
    /// Exact number of prefixes in the base (cached; `base.len()`).
    base_len: usize,
    /// Prefixes present on top of the base.
    overlay_adds: BTreeSet<Prefix>,
    /// Base members currently removed.
    tombstones: BTreeSet<Prefix>,
    policy: OverlayPolicy,
    generation: u64,
    deltas_absorbed: u64,
    rebuilds: u64,
}

/// The immutable base of a [`GenerationalStore`].
#[derive(Clone)]
enum Base {
    /// The lead-indexed table: its buffer is also the persistable,
    /// shareable snapshot.
    Indexed(IndexedPrefixTable),
    /// Any other backend.
    Other(Arc<dyn PrefixStore>),
}

impl Base {
    fn build(
        backend: StoreBackend,
        prefix_len: PrefixLen,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Self {
        match backend {
            StoreBackend::Indexed => {
                Base::Indexed(IndexedPrefixTable::from_prefixes(prefix_len, prefixes))
            }
            _ => Base::Other(Arc::from(build_store(backend, prefix_len, prefixes))),
        }
    }

    fn store(&self) -> &dyn PrefixStore {
        match self {
            Base::Indexed(table) => table,
            Base::Other(store) => &**store,
        }
    }
}

impl std::fmt::Debug for GenerationalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationalStore")
            .field("backend", &self.backend)
            .field("prefix_len", &self.prefix_len)
            .field("base_len", &self.base_len)
            .field("overlay_adds", &self.overlay_adds.len())
            .field("tombstones", &self.tombstones.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl GenerationalStore {
    /// Builds generation 0 from an iterator of prefixes, with the default
    /// [`OverlayPolicy`].
    pub fn build(
        backend: StoreBackend,
        prefix_len: PrefixLen,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Self {
        Self::with_policy(backend, prefix_len, prefixes, OverlayPolicy::default())
    }

    /// Builds generation 0 with an explicit rebuild policy.
    pub fn with_policy(
        backend: StoreBackend,
        prefix_len: PrefixLen,
        prefixes: impl IntoIterator<Item = Prefix>,
        policy: OverlayPolicy,
    ) -> Self {
        let base = Base::build(backend, prefix_len, prefixes);
        let base_len = base.store().len();
        GenerationalStore {
            backend,
            prefix_len,
            base,
            base_len,
            overlay_adds: BTreeSet::new(),
            tombstones: BTreeSet::new(),
            policy,
            generation: 0,
            deltas_absorbed: 0,
            rebuilds: 0,
        }
    }

    /// Builds generation 0 directly over an indexed table — typically one
    /// loaded with [`IndexedPrefixTable::from_bytes`], so there is no
    /// row-by-row rebuild and no per-row work at all: the snapshot's bytes
    /// *are* the base.  This is the instant-start path for a client that
    /// persisted its database with
    /// [`base_snapshot`](Self::base_snapshot) and reloads it on boot.
    pub fn from_shared_snapshot(table: IndexedPrefixTable, policy: OverlayPolicy) -> Self {
        GenerationalStore {
            backend: StoreBackend::Indexed,
            prefix_len: table.prefix_len(),
            base_len: table.len(),
            base: Base::Indexed(table),
            overlay_adds: BTreeSet::new(),
            tombstones: BTreeSet::new(),
            policy,
            generation: 0,
            deltas_absorbed: 0,
            rebuilds: 0,
        }
    }

    /// The snapshot buffer backing the current base, when the backend is
    /// [`StoreBackend::Indexed`] — the exact bytes the base queries,
    /// shareable (`Arc` clone) with any number of shards or readers and
    /// loadable with [`IndexedPrefixTable::from_bytes`] and
    /// [`Self::from_shared_snapshot`].
    ///
    /// The buffer covers the **base generation only**; overlay adds and
    /// tombstones absorbed since the last rebuild are not reflected.
    pub fn base_snapshot(&self) -> Option<&Arc<[u8]>> {
        match &self.base {
            Base::Indexed(table) => Some(table.bytes()),
            Base::Other(_) => None,
        }
    }

    /// Applies one update delta, deciding absorb-or-rebuild **before**
    /// touching the overlay: when the overlay plus the delta stays within
    /// the [`OverlayPolicy`] bound, the delta is absorbed
    /// ([`Self::apply_delta`]); otherwise a new generation is built from
    /// `full()`, the caller's authoritative membership *after* the delta
    /// (the overlay cannot reconstruct it: base stores don't iterate).
    ///
    /// The bound check counts every delta entry as growth, so a delta
    /// that would partly cancel overlay entries can rebuild slightly early;
    /// membership is the same either way.
    pub fn absorb_or_rebuild<I: IntoIterator<Item = Prefix>>(
        &mut self,
        adds: &[Prefix],
        subs: &[Prefix],
        full: impl FnOnce() -> I,
    ) {
        let grown = self
            .overlay_len()
            .saturating_add(adds.len())
            .saturating_add(subs.len());
        if grown > self.policy.bound(self.base_len) {
            self.rebuild_from(full());
        } else {
            self.apply_delta(adds, subs);
        }
    }

    /// Absorbs one delta into the overlay, whatever its size: `subs` are
    /// applied first, then `adds` (the update-response ordering contract),
    /// so a prefix present in both ends up **present**.
    pub fn apply_delta(&mut self, adds: &[Prefix], subs: &[Prefix]) {
        for p in subs {
            if !self.overlay_adds.remove(p) && self.base.store().contains(p) {
                self.tombstones.insert(*p);
            }
        }
        for p in adds {
            if self.tombstones.remove(p) {
                continue; // back to plain base membership
            }
            if !self.base.store().contains(p) {
                self.overlay_adds.insert(*p);
            }
        }
        if !adds.is_empty() || !subs.is_empty() {
            self.deltas_absorbed += 1;
        }
    }

    /// Rebuilds into a new generation: a fresh base built from `prefixes`
    /// (the caller's authoritative full membership) and an empty overlay.
    pub fn rebuild_from(&mut self, prefixes: impl IntoIterator<Item = Prefix>) {
        self.base = Base::build(self.backend, self.prefix_len, prefixes);
        self.base_len = self.base.store().len();
        self.overlay_adds.clear();
        self.tombstones.clear();
        self.generation += 1;
        self.rebuilds += 1;
    }

    /// Current overlay size (adds + tombstones).
    pub fn overlay_len(&self) -> usize {
        self.overlay_adds.len() + self.tombstones.len()
    }

    /// The base generation (bumped on every rebuild).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configured rebuild policy.
    pub fn policy(&self) -> OverlayPolicy {
        self.policy
    }

    /// The wrapped backend kind.
    pub fn backend(&self) -> StoreBackend {
        self.backend
    }

    /// Update-history counters.
    pub fn stats(&self) -> GenerationalStats {
        GenerationalStats {
            generation: self.generation,
            deltas_absorbed: self.deltas_absorbed,
            rebuilds: self.rebuilds,
            overlay_len: self.overlay_len(),
        }
    }
}

impl PrefixStore for GenerationalStore {
    fn backend_name(&self) -> &'static str {
        "generational"
    }

    fn prefix_len(&self) -> PrefixLen {
        self.prefix_len
    }

    fn len(&self) -> usize {
        // Exact for exact bases (a tombstone is only recorded for a real
        // base member).  A Bloom base can false-positively admit a
        // tombstone for a non-member, so saturate rather than underflow —
        // the count was already approximate for Bloom.
        (self.base_len + self.overlay_adds.len()).saturating_sub(self.tombstones.len())
    }

    fn contains(&self, prefix: &Prefix) -> bool {
        if self.tombstones.contains(prefix) {
            return false;
        }
        self.overlay_adds.contains(prefix) || self.base.store().contains(prefix)
    }

    fn memory_bytes(&self) -> usize {
        // The overlay estimate charges each entry its prefix payload plus
        // B-tree node overhead (~2 words amortized).
        self.base.store().memory_bytes() + self.overlay_len() * (std::mem::size_of::<Prefix>() + 16)
    }

    fn intrinsic_false_positive_rate(&self) -> f64 {
        self.base.store().intrinsic_false_positive_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_hash::prefix32;

    fn prefixes(range: std::ops::Range<u32>) -> Vec<Prefix> {
        range.map(Prefix::from_u32).collect()
    }

    #[test]
    fn overlay_absorbs_small_deltas_without_rebuild() {
        let mut store =
            GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L32, prefixes(0..1000));
        store.apply_delta(&prefixes(1000..1010), &prefixes(0..10));
        assert_eq!(store.len(), 1000);
        assert!(store.contains(&Prefix::from_u32(1005)));
        assert!(!store.contains(&Prefix::from_u32(5)));
        assert!(store.contains(&Prefix::from_u32(500)));
        let stats = store.stats();
        assert_eq!(stats.generation, 0);
        assert_eq!(stats.deltas_absorbed, 1);
        assert_eq!(stats.rebuilds, 0);
        assert_eq!(stats.overlay_len, 20);
    }

    #[test]
    fn sub_then_add_within_one_delta_leaves_prefix_present() {
        let mut store =
            GenerationalStore::build(StoreBackend::Raw, PrefixLen::L32, prefixes(0..10));
        // Ordering contract: subs first, then adds — the prefix survives.
        let p = Prefix::from_u32(3);
        store.apply_delta(&[p], &[p]);
        assert!(store.contains(&p));
        assert_eq!(store.len(), 10);
        // A brand-new prefix in both lists also ends up present.
        let q = Prefix::from_u32(77);
        store.apply_delta(&[q], &[q]);
        assert!(store.contains(&q));
        assert_eq!(store.len(), 11);
    }

    #[test]
    fn add_sub_add_round_trip_restores_base_membership() {
        let mut store =
            GenerationalStore::build(StoreBackend::DeltaCoded, PrefixLen::L32, prefixes(0..100));
        let p = Prefix::from_u32(42);
        store.apply_delta(&[], &[p]); // tombstone
        assert!(!store.contains(&p));
        store.apply_delta(&[p], &[]); // un-tombstone, not overlay-add
        assert!(store.contains(&p));
        assert_eq!(store.overlay_len(), 0);
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn policy_bound_decides_absorb_or_rebuild_up_front() {
        let policy = OverlayPolicy {
            min_overlay: 8,
            max_overlay_fraction: 0.0,
        };
        let mut store = GenerationalStore::with_policy(
            StoreBackend::Indexed,
            PrefixLen::L32,
            prefixes(0..100),
            policy,
        );
        let full = |end| prefixes(0..100).into_iter().chain(prefixes(1000..end));
        store.absorb_or_rebuild(&prefixes(1000..1008), &[], || full(1008));
        let stats = store.stats();
        assert_eq!((stats.deltas_absorbed, stats.rebuilds), (1, 0), "8 fit");
        assert_eq!(stats.overlay_len, 8);

        // A 9th entry would cross the bound: the store rebuilds from the
        // caller's membership instead, and the delta is not counted as
        // absorbed.
        store.absorb_or_rebuild(&prefixes(1008..1009), &[], || full(1009));
        let stats = store.stats();
        assert_eq!((stats.deltas_absorbed, stats.rebuilds), (1, 1));
        assert_eq!(store.generation(), 1);
        assert_eq!(store.overlay_len(), 0);
        assert_eq!(store.len(), 109);
        for p in full(1009) {
            assert!(store.contains(&p));
        }
    }

    #[test]
    fn default_policy_absorbs_one_percent_of_a_large_base() {
        // The acceptance shape: a 1% delta against a large list must stay
        // on the overlay path.  (Scaled-down ratio of the 1M case — the
        // bound formula is linear in base_len.)
        let policy = OverlayPolicy::default();
        assert!(policy.bound(1_000_000) >= 10_000);
        let mut store =
            GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L32, prefixes(0..100_000));
        store.absorb_or_rebuild(&prefixes(200_000..201_000), &[], Vec::new); // 1% delta
        assert_eq!(store.stats().rebuilds, 0);
        assert_eq!(store.stats().deltas_absorbed, 1);
        assert_eq!(store.len(), 101_000);
    }

    #[test]
    fn clone_shares_base_and_isolates_overlay() {
        let store =
            GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L32, prefixes(0..100));
        let mut updated = store.clone();
        updated.apply_delta(&[Prefix::from_u32(500)], &[Prefix::from_u32(1)]);
        // The original snapshot is untouched.
        assert!(store.contains(&Prefix::from_u32(1)));
        assert!(!store.contains(&Prefix::from_u32(500)));
        assert!(!updated.contains(&Prefix::from_u32(1)));
        assert!(updated.contains(&Prefix::from_u32(500)));
    }

    #[test]
    fn memory_accounts_for_overlay() {
        let mut store =
            GenerationalStore::build(StoreBackend::Raw, PrefixLen::L32, prefixes(0..100));
        let before = store.memory_bytes();
        store.apply_delta(&prefixes(1000..1100), &[]);
        assert!(store.memory_bytes() > before);
    }

    #[test]
    fn bloom_base_sub_of_non_members_never_panics_len() {
        // A Bloom base can false-positively "contain" non-members, turning
        // subs of never-inserted values into tombstones; `len` saturates
        // rather than underflowing.  (With the 3 MB default filter the
        // false-positive rate at this size is ~0, so this is a smoke check
        // of the arithmetic path, not a probabilistic one.)
        let mut store =
            GenerationalStore::build(StoreBackend::Bloom, PrefixLen::L32, prefixes(0..4));
        let ghosts: Vec<Prefix> = (10_000..10_200).map(Prefix::from_u32).collect();
        store.apply_delta(&[], &ghosts);
        assert!(store.len() <= 4);
        for g in &ghosts {
            assert!(!store.contains(g));
        }
    }

    #[test]
    fn indexed_base_carries_its_snapshot() {
        let store =
            GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L32, prefixes(0..1000));
        let buf = store.base_snapshot().expect("indexed base has a snapshot");

        // Reloading the buffer is a zero-per-row instant start with
        // identical verdicts, and the clone shares the physical bytes.
        let table = IndexedPrefixTable::from_bytes(Arc::clone(buf)).expect("buffer validates");
        let reloaded = GenerationalStore::from_shared_snapshot(table, OverlayPolicy::default());
        assert!(Arc::ptr_eq(buf, reloaded.base_snapshot().unwrap()));
        assert_eq!(reloaded.len(), store.len());
        assert_eq!(reloaded.backend(), StoreBackend::Indexed);
        for v in 0..1200u32 {
            let p = Prefix::from_u32(v);
            assert_eq!(reloaded.contains(&p), store.contains(&p), "{v}");
        }
    }

    #[test]
    fn rebuild_refreshes_the_snapshot() {
        let mut store =
            GenerationalStore::build(StoreBackend::Indexed, PrefixLen::L32, prefixes(0..100));
        let before = Arc::clone(store.base_snapshot().unwrap());
        store.rebuild_from(prefixes(0..200));
        let after = store.base_snapshot().unwrap();
        assert!(!Arc::ptr_eq(&before, after));
        let reloaded = GenerationalStore::from_shared_snapshot(
            IndexedPrefixTable::from_bytes(Arc::clone(after)).unwrap(),
            OverlayPolicy::default(),
        );
        assert_eq!(reloaded.len(), 200);
    }

    #[test]
    fn non_indexed_backends_carry_no_snapshot() {
        for backend in [
            StoreBackend::Raw,
            StoreBackend::DeltaCoded,
            StoreBackend::Bloom,
        ] {
            let store = GenerationalStore::build(backend, PrefixLen::L32, prefixes(0..50));
            assert!(store.base_snapshot().is_none(), "{backend}");
        }
    }

    #[test]
    fn bloom_base_gains_exact_removal() {
        let mut store = GenerationalStore::build(
            StoreBackend::Bloom,
            PrefixLen::L32,
            [prefix32("a/"), prefix32("b/")],
        );
        store.apply_delta(&[], &[prefix32("a/")]);
        // A Bloom filter alone cannot remove; the tombstone makes the
        // removal exact.
        assert!(!store.contains(&prefix32("a/")));
        assert!(store.contains(&prefix32("b/")));
        assert!(store.intrinsic_false_positive_rate() >= 0.0);
    }
}
