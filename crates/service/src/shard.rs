//! One shard of the mutable write side.
//!
//! Vectors are partitioned across shards by a hash of their global id,
//! so concurrent writers touching different shards never contend. A
//! shard stores **rows** — `(global id, bucket key, pending payload)` —
//! and nothing else: no buckets, no counts, no table. The engine
//! evaluates the `k` hash functions *before* it takes the shard lock
//! (the key is a pure function of the vector), so the lock covers only a
//! `Vec` push or `swap_remove` and a map update.
//!
//! A row holds its vector — already encoded as its payload block, in one
//! allocation of exactly its size — only until the publish cut that
//! takes it: the snapshot then copies it into a payload slab, where it
//! lives from then on, and the shard keeps just the row's global id and
//! key. Published payloads are never held twice.
//!
//! Shards never serve reads. Read traffic goes through the immutable
//! epoch snapshots the engine assembles from all shards (see
//! `snapshot.rs`), which bucket the rows once per publish — that is
//! what keeps the write path this simple.

use std::collections::hash_map::{Entry, HashMap};

use vsj_vector::EncodedRow;

use crate::GlobalId;

/// A live row as a publish cut takes it: global id, bucket key, and the
/// payload when no published cut holds it yet (`None` once one does).
pub(crate) type ShardRow = (GlobalId, u64, Option<EncodedRow>);

/// An appended row as the delta path takes it: every appended row is
/// unpublished, so its payload is always there.
pub(crate) type AppendedRow = (GlobalId, u64, EncodedRow);

/// Cap on the buffered per-shard delta. Past this many inserts between
/// publishes the buffer stops paying for itself (the snapshot-side
/// delta work approaches full-merge cost anyway) — the shard flips to
/// [`ShardDelta::Full`] and drops the buffer to bound memory.
const DELTA_BUFFER_CAP: usize = 1 << 15;

/// What happened in a shard since the last publish cut.
enum ShardDelta {
    /// Only inserts, all buffered here as positions in `rows` (stable:
    /// a removal flips the delta to `Full`), in application order. The
    /// engine can publish the next epoch incrementally from these rows
    /// alone.
    Appends(Vec<u32>),
    /// A remove/upsert happened (or the buffer overflowed): the shard's
    /// live rows must be re-collected; the next publish takes the full
    /// merge path.
    Full,
}

/// Mutable state of one shard (always accessed under the shard's lock).
pub(crate) struct ShardState {
    /// The live rows — global id, bucket key (computed once at
    /// ingest), pending payload — in no particular order (a removal
    /// `swap_remove`s; every reader sorts by global id).
    rows: Vec<ShardRow>,
    /// Global id → position in `rows`.
    by_global: HashMap<GlobalId, u32>,
    /// Mutations since the last publish cut (see [`ShardDelta`]).
    delta: ShardDelta,
}

/// Point-in-time statistics of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Live vectors in the shard.
    pub live: usize,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        Self {
            rows: Vec::new(),
            by_global: HashMap::new(),
            delta: ShardDelta::Appends(Vec::new()),
        }
    }

    /// Stores `global`'s row: `payload` pending for the next cut, or
    /// `None` for a row the published cut already holds (recovery from a
    /// checkpoint), which is not logged as a delta. Returns `false` (and
    /// leaves the shard untouched) when the id is already live here.
    fn store(&mut self, global: GlobalId, key: u64, payload: Option<EncodedRow>) -> bool {
        let Entry::Vacant(slot) = self.by_global.entry(global) else {
            return false;
        };
        let at = u32::try_from(self.rows.len()).expect("shard exceeds u32 rows");
        slot.insert(at);
        let pending = payload.is_some();
        self.rows.push((global, key, payload));
        // Log the insert (no-op once the shard is already marked for a
        // full re-collect).
        if let (true, ShardDelta::Appends(buffer)) = (pending, &mut self.delta) {
            if buffer.len() >= DELTA_BUFFER_CAP {
                self.delta = ShardDelta::Full;
            } else {
                buffer.push(at);
            }
        }
        true
    }

    /// Stores an encoded vector under global id `global` with its bucket
    /// `key` (the engine's hasher applied to the vector). Returns `false`
    /// (and leaves the shard untouched) when the id is already live here.
    pub(crate) fn insert(&mut self, global: GlobalId, key: u64, row: EncodedRow) -> bool {
        self.store(global, key, Some(row))
    }

    /// Stores a row the published cut already holds, with the key its
    /// checkpoint stored at original ingest time.
    pub(crate) fn restore(&mut self, global: GlobalId, key: u64) -> bool {
        self.store(global, key, None)
    }

    /// Removes the vector with global id `global`; `false` when absent.
    pub(crate) fn remove(&mut self, global: GlobalId) -> bool {
        let Some(at) = self.by_global.remove(&global) else {
            return false;
        };
        self.rows.swap_remove(at as usize);
        if let Some(moved) = self.rows.get(at as usize) {
            self.by_global.insert(moved.0, at);
        }
        // A removal shifts snapshot-local ids, which an incremental
        // epoch cannot express — the next publish re-collects this
        // shard (and only then does the buffer start refilling).
        self.delta = ShardDelta::Full;
        true
    }

    /// Global ids inserted since the last cut, in application order —
    /// `None` when the next cut must re-collect this shard.
    pub(crate) fn appended(&self) -> Option<impl Iterator<Item = GlobalId> + '_> {
        match &self.delta {
            ShardDelta::Appends(buffer) => Some(buffer.iter().map(|&at| self.rows[at as usize].0)),
            ShardDelta::Full => None,
        }
    }

    /// The delta-path cut: moves the appended rows, with their payloads,
    /// to `out` and resets the delta log — every mutation lands in
    /// exactly one cut. Afterwards no row here holds a payload.
    ///
    /// # Panics
    /// Panics when the shard must be re-collected
    /// ([`appended`](Self::appended) is `None`).
    pub(crate) fn take_appends(&mut self, out: &mut Vec<AppendedRow>) {
        let ShardDelta::Appends(buffer) =
            std::mem::replace(&mut self.delta, ShardDelta::Appends(Vec::new()))
        else {
            panic!("a shard marked for a full re-collect has no append delta");
        };
        for at in buffer {
            let (global, key, payload) = &mut self.rows[at as usize];
            let v = payload.take().expect("an appended row is unpublished");
            out.push((*global, *key, v));
        }
    }

    /// The full-path cut: appends every live row to `out`, moving each
    /// pending payload with it, and resets the delta log. Afterwards no
    /// row here holds a payload.
    pub(crate) fn take_live(&mut self, out: &mut Vec<ShardRow>) {
        self.delta = ShardDelta::Appends(Vec::new());
        out.extend(
            self.rows
                .iter_mut()
                .map(|(global, key, payload)| (*global, *key, payload.take())),
        );
    }

    /// Whether `global` is live in this shard.
    pub(crate) fn contains(&self, global: GlobalId) -> bool {
        self.by_global.contains_key(&global)
    }

    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            live: self.rows.len(),
        }
    }

    /// Rows still holding a payload no published cut holds.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.rows.iter().filter(|r| r.2.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::{BucketHasher, Composite, MinHashFamily};
    use vsj_vector::SparseVector;

    fn key_of(v: &SparseVector) -> u64 {
        Composite::derive(MinHashFamily::new(), 1, 0, 8).key(v)
    }

    fn vec_of(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    /// Inserts the way the engine does: key hashed and row encoded
    /// first, then stored.
    fn insert(s: &mut ShardState, global: GlobalId, v: SparseVector) -> bool {
        s.insert(global, key_of(&v), EncodedRow::new(&v))
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = ShardState::new();
        assert!(insert(&mut s, 10, vec_of(&[1, 2])));
        assert!(insert(&mut s, 20, vec_of(&[1, 2])));
        assert!(!insert(&mut s, 10, vec_of(&[9])), "duplicate id rejected");
        assert_eq!(s.stats().live, 2);
        assert!(s.contains(10));
        assert!(s.remove(10));
        assert!(!s.remove(10));
        assert!(!s.contains(10));
        assert_eq!(s.stats().live, 1);
    }

    #[test]
    fn compaction_bounds_slot_growth_under_churn() {
        // Steady-state upsert churn on a fixed key set. A shard keeps
        // exactly its live rows — there are no dead slots to compact,
        // however long the churn runs.
        let mut s = ShardState::new();
        for round in 0..2_000u64 {
            for id in 0..10u64 {
                s.remove(id);
                insert(
                    &mut s,
                    id,
                    vec_of(&[(id as u32) % 5, 60 + round as u32 % 3]),
                );
            }
        }
        assert_eq!(s.stats().live, 10);
        assert_eq!(s.rows.len(), 10, "a removal must not leave a slot behind");
        assert_eq!(s.by_global.len(), 10);
        // State stays fully consistent after 20 000 churn operations.
        let mut rows = Vec::new();
        s.take_live(&mut rows);
        rows.sort_by_key(|r| r.0);
        assert_eq!(rows.len(), 10);
        for (i, (global, key, row)) in rows.iter().enumerate() {
            assert_eq!(*global, i as u64);
            let last = vec_of(&[(i as u32) % 5, 60 + 1_999 % 3]);
            assert_eq!(*key, key_of(&last), "stale key after churn");
            assert_eq!(row.as_ref(), Some(&EncodedRow::new(&last)), "stale payload");
        }
    }

    #[test]
    fn collect_live_carries_keys_and_globals() {
        let mut s = ShardState::new();
        insert(&mut s, 5, vec_of(&[1, 2]));
        insert(&mut s, 3, vec_of(&[3, 4]));
        insert(&mut s, 8, vec_of(&[5, 6]));
        s.remove(3);
        let mut rows = Vec::new();
        s.take_live(&mut rows);
        rows.sort_by_key(|r| r.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 5);
        assert_eq!(rows[1].0, 8);
        // Keys and payloads must match the vectors inserted.
        for ((_, key, row), members) in rows.iter().zip([[1, 2], [5, 6]]) {
            assert_eq!(*key, key_of(&vec_of(&members)));
            assert_eq!(row.as_ref(), Some(&EncodedRow::new(&vec_of(&members))));
        }
        assert_eq!(s.pending(), 0, "the cut took every payload");
        // A second cut finds the rows published: keys, no payloads.
        let mut again = Vec::new();
        s.take_live(&mut again);
        again.sort_by_key(|r| r.0);
        let keys: Vec<_> = again.iter().map(|r| (r.0, r.1, r.2.is_some())).collect();
        assert_eq!(keys, [(5, rows[0].1, false), (8, rows[1].1, false)]);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(GlobalId, Vec<u32>),
            Remove(GlobalId),
            Upsert(GlobalId, Vec<u32>),
            TakeDelta,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let members = || proptest::collection::vec(0u32..40, 1..5);
            prop_oneof![
                (0u64..12, members()).prop_map(|(g, m)| Op::Insert(g, m)),
                (0u64..12, members()).prop_map(|(g, m)| Op::Insert(g, m)),
                (0u64..12).prop_map(Op::Remove),
                (0u64..12, members()).prop_map(|(g, m)| Op::Upsert(g, m)),
                Just(Op::TakeDelta),
            ]
        }

        /// A model row: key, encoded payload, and whether it is
        /// unpublished.
        type ModelRow = (u64, EncodedRow, bool);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random insert / remove / upsert / cut sequences against a
            /// sorted-map model: membership, the live count, the
            /// gid-sorted live rows, which of them still hold a payload,
            /// and the delta kind agree after every step; a cut moves
            /// every pending payload out; and a shard never holds a dead
            /// slot.
            #[test]
            fn shard_matches_sorted_map_model(
                ops in proptest::collection::vec(op_strategy(), 1..60),
            ) {
                let mut shard = ShardState::new();
                let mut model: BTreeMap<GlobalId, ModelRow> = BTreeMap::new();
                // Gids inserted since the last cut, in application
                // order; `None` once a removal forced a full re-collect.
                let mut appended: Option<Vec<GlobalId>> = Some(Vec::new());
                for op in ops {
                    match op {
                        Op::Insert(g, m) => {
                            let v = vec_of(&m);
                            let fresh = !model.contains_key(&g);
                            prop_assert_eq!(insert(&mut shard, g, v.clone()), fresh);
                            if fresh {
                                model.insert(g, (key_of(&v), EncodedRow::new(&v), true));
                                if let Some(log) = &mut appended {
                                    log.push(g);
                                }
                            }
                        }
                        Op::Remove(g) => {
                            let live = model.remove(&g).is_some();
                            prop_assert_eq!(shard.remove(g), live);
                            if live {
                                appended = None;
                            }
                        }
                        Op::Upsert(g, m) => {
                            // As the engine applies it: vacate, then store.
                            let v = vec_of(&m);
                            let replaced = model.contains_key(&g);
                            prop_assert_eq!(shard.remove(g), replaced);
                            prop_assert!(insert(&mut shard, g, v.clone()));
                            model.insert(g, (key_of(&v), EncodedRow::new(&v), true));
                            if replaced {
                                appended = None;
                            } else if let Some(log) = &mut appended {
                                log.push(g);
                            }
                        }
                        Op::TakeDelta => {
                            let gids: Option<Vec<GlobalId>> =
                                shard.appended().map(Iterator::collect);
                            prop_assert_eq!(&gids, &appended);
                            let mut taken: Vec<AppendedRow> = Vec::new();
                            if gids.is_some() {
                                shard.take_appends(&mut taken);
                            } else {
                                let mut live = Vec::new();
                                shard.take_live(&mut live);
                                taken.extend(live.into_iter().filter_map(|(g, k, v)| Some((g, k, v?))));
                            }
                            // The cut carries exactly the unpublished
                            // rows, each with its payload.
                            taken.sort_by_key(|r| r.0);
                            let pending: Vec<_> = model
                                .iter()
                                .filter(|(_, r)| r.2)
                                .map(|(g, r)| (*g, r.0, r.1.clone()))
                                .collect();
                            prop_assert_eq!(taken, pending);
                            prop_assert_eq!(shard.pending(), 0);
                            for row in model.values_mut() {
                                row.2 = false;
                            }
                            appended = Some(Vec::new());
                        }
                    }
                    for g in 0..12 {
                        prop_assert_eq!(shard.contains(g), model.contains_key(&g));
                    }
                    prop_assert_eq!(shard.stats().live, model.len());
                    prop_assert_eq!(shard.rows.len(), model.len());
                    let mut rows: Vec<_> = shard
                        .rows
                        .iter()
                        .map(|(g, key, v)| (*g, *key, v.clone()))
                        .collect();
                    rows.sort_by_key(|r| r.0);
                    let want: Vec<_> = model
                        .iter()
                        .map(|(g, (key, row, pending))| (*g, *key, pending.then(|| row.clone())))
                        .collect();
                    prop_assert_eq!(rows, want);
                }
            }
        }
    }
}
