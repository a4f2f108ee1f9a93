//! One shard of the mutable write side.
//!
//! Vectors are partitioned across shards by a hash of their global id,
//! so concurrent writers touching different shards never contend. A
//! shard stores **rows** — `(global id, bucket key, Arc<vector>)` — and
//! nothing else: no buckets, no counts, no table. The engine evaluates
//! the `k` hash functions *before* it takes the shard lock (the key is
//! a pure function of the vector), so the lock covers only a `Vec` push
//! or `swap_remove` and a map update.
//!
//! Shards never serve reads. Read traffic goes through the immutable
//! epoch snapshots the engine assembles from all shards (see
//! `snapshot.rs`), which bucket the rows once per publish — that is
//! what keeps the write path this simple.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use vsj_vector::SparseVector;

use crate::GlobalId;

/// Cap on the buffered per-shard delta. Past this many inserts between
/// publishes the buffer stops paying for itself (the snapshot-side
/// delta work approaches full-merge cost anyway) — the shard flips to
/// [`ShardDelta::Full`] and drops the buffer to bound memory.
const DELTA_BUFFER_CAP: usize = 1 << 15;

/// What happened in a shard since the last publish cut.
pub(crate) enum ShardDelta {
    /// Only inserts, all buffered here (`(global id, bucket key,
    /// payload)` in application order). The engine can publish the next
    /// epoch incrementally from these rows alone.
    Appends(Vec<(GlobalId, u64, Arc<SparseVector>)>),
    /// A remove/upsert happened (or the buffer overflowed): the shard's
    /// live rows must be re-collected; the next publish takes the full
    /// merge path.
    Full,
}

/// Mutable state of one shard (always accessed under the shard's lock).
pub(crate) struct ShardState {
    /// The live rows — global id, bucket key (computed once at
    /// ingest), payload — in no particular order (a removal
    /// `swap_remove`s; every reader sorts by global id).
    rows: Vec<(GlobalId, u64, Arc<SparseVector>)>,
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

    /// Stores a vector under global id `global` with its bucket `key`
    /// (the engine's hasher applied to `v`, or the key a checkpoint
    /// stored at original ingest time). Returns `false` (and leaves the
    /// shard untouched) when the id is already live here.
    pub(crate) fn insert(&mut self, global: GlobalId, key: u64, v: Arc<SparseVector>) -> bool {
        let Entry::Vacant(slot) = self.by_global.entry(global) else {
            return false;
        };
        slot.insert(u32::try_from(self.rows.len()).expect("shard exceeds u32 rows"));
        self.rows.push((global, key, v.clone()));
        // Log the insert (no-op once the shard is already marked for a
        // full re-collect).
        if let ShardDelta::Appends(buffer) = &mut self.delta {
            if buffer.len() >= DELTA_BUFFER_CAP {
                self.delta = ShardDelta::Full;
            } else {
                buffer.push((global, key, v));
            }
        }
        true
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

    /// Drains the delta log at a publish cut, resetting it to an empty
    /// append buffer — every mutation lands in exactly one cut.
    pub(crate) fn take_delta(&mut self) -> ShardDelta {
        std::mem::replace(&mut self.delta, ShardDelta::Appends(Vec::new()))
    }

    /// Whether `global` is live in this shard.
    pub(crate) fn contains(&self, global: GlobalId) -> bool {
        self.by_global.contains_key(&global)
    }

    /// Appends this shard's live rows to the snapshot accumulator
    /// (payloads are `Arc` clones; assembling a snapshot re-hashes
    /// nothing).
    pub(crate) fn collect_live(&self, out: &mut Vec<(GlobalId, u64, Arc<SparseVector>)>) {
        out.extend_from_slice(&self.rows);
    }

    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            live: self.rows.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::{BucketHasher, Composite, MinHashFamily};

    fn key_of(v: &SparseVector) -> u64 {
        Composite::derive(MinHashFamily::new(), 1, 0, 8).key(v)
    }

    fn vec_of(members: &[u32]) -> Arc<SparseVector> {
        Arc::new(SparseVector::binary_from_members(members.to_vec()))
    }

    /// Inserts the way the engine does: key hashed first, then stored.
    fn insert(s: &mut ShardState, global: GlobalId, v: Arc<SparseVector>) -> bool {
        s.insert(global, key_of(&v), v)
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
        s.collect_live(&mut rows);
        rows.sort_by_key(|r| r.0);
        assert_eq!(rows.len(), 10);
        for (i, (global, key, v)) in rows.iter().enumerate() {
            assert_eq!(*global, i as u64);
            assert_eq!(*key, key_of(v), "stale key after churn");
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
        s.collect_live(&mut rows);
        rows.sort_by_key(|r| r.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 5);
        assert_eq!(rows[1].0, 8);
        // Keys must match a fresh hash of the vector.
        assert_eq!(rows[0].1, key_of(&rows[0].2));
        assert_eq!(rows[1].1, key_of(&rows[1].2));
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random insert / remove / upsert / `take_delta` sequences
            /// against a sorted-map model: membership, the live count,
            /// the gid-sorted live rows and the delta kind agree after
            /// every step, and a shard never holds a dead slot.
            #[test]
            fn shard_matches_sorted_map_model(
                ops in proptest::collection::vec(op_strategy(), 1..60),
            ) {
                let mut shard = ShardState::new();
                let mut model: BTreeMap<GlobalId, (u64, Vec<u32>)> = BTreeMap::new();
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
                                model.insert(g, (key_of(&v), v.indices().to_vec()));
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
                            model.insert(g, (key_of(&v), v.indices().to_vec()));
                            if replaced {
                                appended = None;
                            } else if let Some(log) = &mut appended {
                                log.push(g);
                            }
                        }
                        Op::TakeDelta => {
                            match shard.take_delta() {
                                ShardDelta::Appends(rows) => {
                                    let gids: Vec<GlobalId> = rows.iter().map(|r| r.0).collect();
                                    prop_assert_eq!(Some(gids), appended);
                                    // The delta shares payloads with
                                    // the stored rows, never copies.
                                    for (g, key, v) in &rows {
                                        let at = shard.by_global[g] as usize;
                                        prop_assert_eq!(*key, shard.rows[at].1);
                                        prop_assert!(Arc::ptr_eq(v, &shard.rows[at].2));
                                    }
                                }
                                ShardDelta::Full => prop_assert!(appended.is_none()),
                            }
                            appended = Some(Vec::new());
                        }
                    }
                    for g in 0..12 {
                        prop_assert_eq!(shard.contains(g), model.contains_key(&g));
                    }
                    prop_assert_eq!(shard.stats().live, model.len());
                    prop_assert_eq!(shard.rows.len(), model.len());
                    let mut rows = Vec::new();
                    shard.collect_live(&mut rows);
                    rows.sort_by_key(|r| r.0);
                    let got: Vec<_> = rows
                        .iter()
                        .map(|(g, key, v)| (*g, (*key, v.indices().to_vec())))
                        .collect();
                    let want: Vec<_> = model.iter().map(|(g, row)| (*g, row.clone())).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
