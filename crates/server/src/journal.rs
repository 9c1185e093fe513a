//! The per-list chunk journal: the server-side source of incremental
//! updates.
//!
//! Every blacklist mutation appends a numbered add/sub chunk to its list's
//! journal.  An update request carries the exact chunk ranges the client
//! holds ([`ClientListState`]), so [`ChunkJournal::missing_chunks`] serves
//! precisely the delta — no replay of already-applied history, no scan over
//! other lists' chunks.
//!
//! The journal stores only the **netted** view.  Appending a sub chunk
//! removes its prefixes from every live add chunk (all of them earlier)
//! and drops the add chunks it empties, which bounds a fresh client's
//! replay cost.  Sub chunks are never dropped — a client that already
//! holds the original (un-netted) add chunk still needs the sub to remove
//! the prefix; a fresh client applies the sub as a harmless no-op.  An add
//! appended after the sub is untouched, so a re-added prefix survives.
//! Every live add therefore carries only prefixes no later sub removed,
//! and the subs-before-adds application order of
//! [`UpdateResponse`](sb_protocol::UpdateResponse) converges to the same
//! membership for every client, however stale.  A dropped add leaves a
//! hole in the number space that no client is ever served.

use std::collections::BTreeMap;

use sb_hash::Prefix;
use sb_protocol::{Chunk, ChunkKind, ClientListState, ListName};
use sb_telemetry::{Telemetry, TraceKind};

/// Journal of one list: live chunks per kind plus the number allocators.
#[derive(Debug, Default, Clone)]
struct ListJournal {
    /// Live add chunks in ascending number order (numbers are allocated
    /// in append order).
    adds: Vec<Chunk>,
    /// Every sub chunk, in ascending number order.
    subs: Vec<Chunk>,
    /// Next add-chunk number to allocate (numbers start at 1).
    next_add: u32,
    /// Next sub-chunk number to allocate.
    next_sub: u32,
}

impl ListJournal {
    fn allocate(&mut self, kind: ChunkKind) -> u32 {
        let counter = match kind {
            ChunkKind::Add => &mut self.next_add,
            ChunkKind::Sub => &mut self.next_sub,
        };
        *counter += 1;
        *counter
    }

    /// Removes `removed` from every live add chunk in one pass and drops
    /// the adds left empty.  Returns `(prefixes netted, adds dropped)`.
    fn net(&mut self, removed: &[Prefix]) -> (usize, usize) {
        let mut removed = removed.to_vec();
        removed.sort_unstable();
        // Leading 32-bit words: a cheap test that rejects almost every
        // live prefix before the full comparison.
        let mut leads: Vec<u32> = removed.iter().map(Prefix::value).collect();
        leads.sort_unstable();
        let live = self.adds.len();
        let mut netted = 0;
        self.adds.retain_mut(|add| {
            let before = add.prefixes.len();
            add.prefixes.retain(|p| {
                leads.binary_search(&p.value()).is_err() || removed.binary_search(p).is_err()
            });
            netted += before - add.prefixes.len();
            !add.prefixes.is_empty()
        });
        (netted, live - self.adds.len())
    }
}

sb_telemetry::stats! {
    /// Aggregate statistics over a [`ChunkJournal`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct JournalStats {
        /// Lists with at least one journal entry.
        pub lists: usize,
        /// Add chunks currently live in the journal.
        pub add_chunks: usize,
        /// Sub chunks currently live in the journal.
        pub sub_chunks: usize,
        /// Prefix entries across all live chunks (the replay cost of a fresh
        /// client, in prefixes).
        pub live_prefixes: usize,
        /// Chunks appended over the journal's lifetime.
        pub appends: usize = counter,
        /// Prefixes removed from add chunks by netting.
        pub netted_prefixes: usize = counter,
        /// Add chunks dropped because netting emptied them.
        pub dropped_chunks: usize = counter,
        /// Sub appends that netted at least one prefix.
        pub compactions: usize = counter,
    }
    /// The one place the journal's lifetime counters are kept.
    struct JournalHandles("journal");
}

/// The server's chunk journal: one netted per-list journal with append
/// and delta computation.
#[derive(Debug)]
pub struct ChunkJournal {
    lists: BTreeMap<ListName, ListJournal>,
    telemetry: Telemetry,
    handles: JournalHandles,
}

impl Default for ChunkJournal {
    fn default() -> Self {
        let telemetry = Telemetry::default();
        let handles = JournalHandles::register(&telemetry);
        ChunkJournal {
            lists: BTreeMap::new(),
            telemetry,
            handles,
        }
    }
}

impl ChunkJournal {
    /// Publishes the journal's counters (and chunk-apply / compaction
    /// trace events) into a shared [`Telemetry`] plane instead of the
    /// private default one.  The counters live in the plane, so attach it
    /// before the first append.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.handles = JournalHandles::register(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// The telemetry plane the journal publishes into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Appends a chunk to `list`, allocating its number.  Returns the
    /// allocated chunk number.  A sub chunk is netted as it lands: its
    /// prefixes leave every live add chunk of the list, and adds it
    /// empties are dropped.
    pub fn append(&mut self, list: ListName, kind: ChunkKind, prefixes: Vec<Prefix>) -> u32 {
        let journal = self.lists.entry(list.clone()).or_default();
        let number = journal.allocate(kind);
        self.handles.appends.inc();
        self.telemetry
            .event(TraceKind::ChunkApply, prefixes.len() as u64);
        let chunk = Chunk {
            list,
            number,
            kind,
            prefixes,
        };
        match kind {
            ChunkKind::Add => journal.adds.push(chunk),
            ChunkKind::Sub => {
                let (netted, dropped) = journal.net(&chunk.prefixes);
                journal.subs.push(chunk);
                self.handles.netted_prefixes.add(netted as u64);
                self.handles.dropped_chunks.add(dropped as u64);
                if netted > 0 {
                    self.handles.compactions.inc();
                    let live = journal.adds.len() + journal.subs.len();
                    self.telemetry.event(TraceKind::Compaction, live as u64);
                }
            }
        }
        number
    }

    /// The chunks of `list` the client is missing, **sub chunks first**,
    /// each group in ascending chunk number — the emission side of the
    /// response ordering contract.  The stored view is already netted, so
    /// this is a plain filter on the client's held ranges.
    pub fn missing_chunks(&self, list: &ListName, state: &ClientListState) -> Vec<Chunk> {
        let Some(journal) = self.lists.get(list) else {
            return Vec::new();
        };
        journal
            .subs
            .iter()
            .chain(&journal.adds)
            .filter(|chunk| !state.holds(chunk.kind, chunk.number))
            .cloned()
            .collect()
    }

    /// True when the journal has entries for `list`.
    pub fn has_list(&self, list: &ListName) -> bool {
        self.lists.contains_key(list)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> JournalStats {
        let mut stats = JournalStats {
            lists: self.lists.len(),
            ..self.handles.view()
        };
        for journal in self.lists.values() {
            stats.add_chunks += journal.adds.len();
            stats.sub_chunks += journal.subs.len();
            stats.live_prefixes += journal
                .adds
                .iter()
                .chain(&journal.subs)
                .map(|chunk| chunk.prefixes.len())
                .sum::<usize>();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u32) -> Prefix {
        Prefix::from_u32(v)
    }

    fn list() -> ListName {
        ListName::new("goog-malware-shavar")
    }

    #[test]
    fn append_allocates_independent_number_spaces() {
        let mut journal = ChunkJournal::default();
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(1)]), 1);
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(2)]), 2);
        assert_eq!(journal.append(list(), ChunkKind::Sub, vec![p(1)]), 1);
        assert_eq!(journal.append(list(), ChunkKind::Add, vec![p(3)]), 3);
        let stats = journal.stats();
        assert_eq!(stats.appends, 4);
        assert_eq!(stats.add_chunks, 2, "sub 1 emptied and dropped add 1");
        assert_eq!(stats.sub_chunks, 1);
    }

    #[test]
    fn missing_chunks_serves_exact_delta_subs_first() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 1
        journal.append(list(), ChunkKind::Add, vec![p(2)]); // add 2
        journal.append(list(), ChunkKind::Sub, vec![p(1)]); // sub 1
        journal.append(list(), ChunkKind::Add, vec![p(3)]); // add 3

        // Client holds add 2 only (out-of-order hole at add 1).  Add 1 was
        // emptied by sub 1 and dropped, so it stays a hole.
        let mut state = ClientListState::default();
        state.record(ChunkKind::Add, 2);
        let missing = journal.missing_chunks(&list(), &state);
        let shape: Vec<(ChunkKind, u32)> = missing.iter().map(|c| (c.kind, c.number)).collect();
        assert_eq!(shape, vec![(ChunkKind::Sub, 1), (ChunkKind::Add, 3)]);

        // A fully caught-up client gets nothing.
        let mut caught_up = ClientListState::default();
        for n in 1..=3 {
            caught_up.record(ChunkKind::Add, n);
        }
        caught_up.record(ChunkKind::Sub, 1);
        assert!(journal.missing_chunks(&list(), &caught_up).is_empty());
    }

    #[test]
    fn served_adds_are_netted_against_later_subs_in_the_same_response() {
        // Server chronology: add {1, 2}, then remove {1}.  A fresh client
        // applies subs first, so serving the add un-netted would
        // resurrect p(1).  The served add must carry only p(2).
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let add = missing.iter().find(|c| c.kind == ChunkKind::Add).unwrap();
        assert_eq!(add.prefixes, vec![p(2)]);
        let sub = missing.iter().find(|c| c.kind == ChunkKind::Sub).unwrap();
        assert_eq!(sub.prefixes, vec![p(1)], "the sub itself stays intact");

        // Subs-first application converges to the server's membership.
        let mut membership = std::collections::BTreeSet::new();
        for chunk in &missing {
            match chunk.kind {
                ChunkKind::Sub => {
                    for q in &chunk.prefixes {
                        membership.remove(q);
                    }
                }
                ChunkKind::Add => membership.extend(chunk.prefixes.iter().copied()),
            }
        }
        assert_eq!(membership.into_iter().collect::<Vec<_>>(), vec![p(2)]);

        // Netting is computed over the whole journal, not just the served
        // chunks: a client already holding the sub (a hole state the range
        // protocol can express) must get the add netted too, or applying
        // it would permanently resurrect p(1) on that client.
        let mut holds_sub = ClientListState::default();
        holds_sub.record(ChunkKind::Sub, 1);
        let for_synced = journal.missing_chunks(&list(), &holds_sub);
        assert_eq!(for_synced.len(), 1);
        assert_eq!(for_synced[0].prefixes, vec![p(2)]);
    }

    #[test]
    fn unknown_list_has_no_chunks() {
        let journal = ChunkJournal::default();
        assert!(journal
            .missing_chunks(&list(), &ClientListState::default())
            .is_empty());
        assert!(!journal.has_list(&list()));
    }

    #[test]
    fn sub_append_nets_its_prefixes_out_of_earlier_adds() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);

        let stats = journal.stats();
        assert_eq!(stats.netted_prefixes, 1);
        assert_eq!(stats.dropped_chunks, 0);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.live_prefixes, 2, "add {{2}} plus sub {{1}}");
    }

    #[test]
    fn sub_append_drops_emptied_add_chunks_but_keeps_subs() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]);
        journal.append(list(), ChunkKind::Sub, vec![p(1)]);

        let stats = journal.stats();
        assert_eq!(stats.dropped_chunks, 1);
        assert_eq!(stats.add_chunks, 0);
        assert_eq!(stats.sub_chunks, 1);

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].kind, ChunkKind::Sub);
    }

    #[test]
    fn compaction_keeps_re_added_prefixes() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 1: netted
        journal.append(list(), ChunkKind::Sub, vec![p(1)]); // sub 1
        journal.append(list(), ChunkKind::Add, vec![p(1)]); // add 2: re-added, kept

        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        let adds: Vec<&Chunk> = missing
            .iter()
            .filter(|c| c.kind == ChunkKind::Add)
            .collect();
        assert_eq!(adds.len(), 1);
        assert_eq!(adds[0].number, 2);
        assert_eq!(adds[0].prefixes, vec![p(1)]);

        // Fresh-client application (subs first) converges to {p(1)}.
        let mut membership = std::collections::BTreeSet::new();
        for chunk in &missing {
            match chunk.kind {
                ChunkKind::Sub => {
                    for q in &chunk.prefixes {
                        membership.remove(q);
                    }
                }
                ChunkKind::Add => membership.extend(chunk.prefixes.iter().copied()),
            }
        }
        assert!(membership.contains(&p(1)));
    }

    #[test]
    fn alternating_churn_leaves_only_subs() {
        // Alternate add/sub of the same prefix: history grows, membership
        // stays empty — each sub drops the add it cancels.
        let mut journal = ChunkJournal::default();
        for _ in 0..16 {
            journal.append(list(), ChunkKind::Add, vec![p(7)]);
            journal.append(list(), ChunkKind::Sub, vec![p(7)]);
        }
        let stats = journal.stats();
        assert_eq!(stats.add_chunks, 0, "all adds were netted away");
        assert_eq!(stats.sub_chunks, 16);
        assert_eq!(stats.compactions, 16);
        assert_eq!(stats.dropped_chunks, 16);
        // A fresh client's replay cost is bounded by the surviving subs.
        let missing = journal.missing_chunks(&list(), &ClientListState::default());
        assert!(missing.iter().all(|c| c.kind == ChunkKind::Sub));
    }

    #[test]
    fn compaction_event_reports_live_chunks_after_the_sub() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1)]);
        journal.append(list(), ChunkKind::Add, vec![p(2)]);
        journal.append(list(), ChunkKind::Sub, vec![p(3)]); // nets nothing
        journal.append(list(), ChunkKind::Sub, vec![p(1)]); // drops add 1
        let compactions: Vec<u64> = journal
            .telemetry()
            .trace()
            .snapshot()
            .of_kind(TraceKind::Compaction)
            .iter()
            .map(|event| event.value)
            .collect();
        // Add 2 and both subs are live; the sub that netted nothing is no
        // compaction.
        assert_eq!(compactions, vec![3]);
        assert_eq!(journal.stats().compactions, 1);
    }

    #[test]
    fn stats_count_live_prefixes() {
        let mut journal = ChunkJournal::default();
        journal.append(list(), ChunkKind::Add, vec![p(1), p(2), p(3)]);
        journal.append(ListName::new("other"), ChunkKind::Add, vec![p(9)]);
        let stats = journal.stats();
        assert_eq!(stats.lists, 2);
        assert_eq!(stats.live_prefixes, 4);
    }
}
