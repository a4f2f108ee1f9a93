//! A single LSH table `D_g` with bucket counts — §4.1.1 of the paper.
//!
//! The paper's extension over a vanilla LSH table is tiny but essential:
//! each bucket `B_j` carries its member count `b_j`, from which the table
//! exposes
//!
//! * `N_H = Σ_j C(b_j, 2)` — the number of *same-bucket pairs*, an exact
//!   constant of the table (not an estimate);
//! * the storage primitives of [`IndexView`] — the alias table over the
//!   pair buckets with `weight(B_j) = C(b_j, 2)` and their member lists
//!   — from which the view's provided methods draw a uniform pair from
//!   stratum `S_H` (SampleH, Algorithm 1 lines 3–4) or, by rejection,
//!   from stratum `S_L` (SampleL line 3).
//!
//! Construction hashes all vectors as one batch on a work pool (the
//! only data-parallel step; grouping is a sequential hash-map pass).
//!
//! # One frozen table
//!
//! A table is built — [`LshTable::build`], [`LshTable::from_parts`],
//! [`LshTable::from_parts_delta`] — and never mutated: ids are dense
//! (`0..len`), buckets enumerate key-ascending, the sampler is a plain
//! field read without a lock. Growing an index means building the next
//! table from the previous one plus the appended keys; removing rows
//! means rebuilding from the surviving keys (the service's write side
//! keeps rows, not a table, for exactly that reason).
//!
//! # Incremental (epoch) construction
//!
//! Bucket storage is a list of immutable, `Arc`-shared **runs**
//! (`BucketStore`). A batch build produces one run; the epoch path
//! ([`LshTable::from_parts_delta`]) reuses every run of the previous
//! epoch's table by pointer and appends one small run holding only the
//! buckets this delta touched or created — so consecutive epoch tables
//! share all unchanged state, and building the next epoch costs
//! O(delta), not O(n). Runs are coalesced once the list grows past
//! an internal bound, which bounds lookup depth and reclaims the stale
//! copies superseded by later runs.

use std::collections::HashMap;
use std::sync::Arc;

use crate::family::BucketHasher;
use crate::view::IndexView;
use vsj_pool::WorkPool;
use vsj_sampling::AliasTable;
use vsj_vector::{pairs_of, SparseVector, VectorCollection, VectorId};

/// One bucket: its folded key and the ids of its members. The paper's
/// bucket count `b_j` is `members.len()`.
///
/// Member lists sit behind an [`Arc`] so a table assembled by
/// [`LshTable::from_parts_delta`] can *share* every unchanged bucket
/// with its predecessor epoch — cloning a bucket is a pointer bump, and
/// only buckets actually touched by the delta get their members copied
/// (via `Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Folded `g`-value identifying the bucket.
    pub key: u64,
    /// Ids of the vectors hashed here (shared across epoch tables).
    pub members: Arc<Vec<VectorId>>,
}

impl Bucket {
    /// The bucket count `b_j`.
    #[inline]
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Same-bucket pairs contributed by this bucket: `C(b_j, 2)`.
    #[inline]
    pub fn pair_weight(&self) -> u64 {
        pairs_of(self.members.len() as u64)
    }
}

/// Maximum bucket runs before [`LshTable::from_parts_delta`] coalesces
/// them into one (it also coalesces when the touched-bucket overlay
/// outgrows a fraction of the store). Bounds per-lookup run-search and
/// overlay depth; coalescing is an O(#buckets) pointer pass amortized
/// over this many epochs.
const COALESCE_RUNS: usize = 32;

/// Bucket storage: a list of immutable, `Arc`-shared runs addressed by
/// a flat `u32` index (run-major). Batch-built tables hold one run;
/// each incremental epoch appends one run of *new* buckets, parks its
/// copies of *touched* buckets in the overlay, and shares every run
/// with its predecessor.
#[derive(Debug, Clone)]
struct BucketStore {
    runs: Vec<Arc<Vec<Bucket>>>,
    /// Flat index of the first bucket of each run (parallel to `runs`).
    starts: Vec<u32>,
    /// Total physical slots.
    len: u32,
    /// Per-index replacements: buckets an epoch delta *touched* are
    /// copied here under their original index (so nothing that refers
    /// to bucket indices — enumeration order, pair order, the alias
    /// columns — needs patching), while the run they came from stays
    /// shared, byte-for-byte, with the previous epoch's table. Bounded
    /// by coalescing.
    overlay: HashMap<u32, Bucket>,
}

impl BucketStore {
    fn from_vec(buckets: Vec<Bucket>) -> Self {
        let len = u32::try_from(buckets.len()).expect("bucket count exceeds u32");
        Self {
            runs: vec![Arc::new(buckets)],
            starts: vec![0],
            len,
            overlay: HashMap::new(),
        }
    }

    /// Total physical slots.
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Run containing flat index `idx`.
    #[inline]
    fn run_of(&self, idx: u32) -> usize {
        if self.runs.len() == 1 {
            0
        } else {
            self.starts.partition_point(|&s| s <= idx) - 1
        }
    }

    /// The bucket in its backing run, ignoring the overlay.
    #[inline]
    fn get_base(&self, idx: u32) -> &Bucket {
        let run = self.run_of(idx);
        &self.runs[run][(idx - self.starts[run]) as usize]
    }

    #[inline]
    fn get(&self, idx: u32) -> &Bucket {
        if !self.overlay.is_empty() {
            if let Some(b) = self.overlay.get(&idx) {
                return b;
            }
        }
        self.get_base(idx)
    }

    /// Mutable access for the delta under construction. Runs are
    /// shared with the previous epoch's (frozen) table and never
    /// written — the bucket is copied into the overlay instead.
    fn get_mut(&mut self, idx: u32) -> &mut Bucket {
        let run = self.run_of(idx);
        let base = &self.runs[run][(idx - self.starts[run]) as usize];
        self.overlay.entry(idx).or_insert_with(|| base.clone())
    }

    /// Appends a whole run (the epoch delta path).
    fn append_run(&mut self, run: Vec<Bucket>) {
        let added = u32::try_from(run.len()).expect("bucket count exceeds u32");
        assert!(
            self.len.checked_add(added).is_some(),
            "bucket count exceeds u32"
        );
        self.starts.push(self.len);
        self.runs.push(Arc::new(run));
        self.len += added;
    }
}

/// The order in which buckets are *enumerated* (by the pair-bucket
/// alias columns, [`LshTable::buckets`], and key lookups on delta tables),
/// decoupled from their physical run/slot position.
///
/// Sampling is sensitive to enumeration order — the alias table's
/// columns follow it — so two tables over the same data sample
/// identically iff they enumerate identically. Batch construction
/// ([`LshTable::build`] / [`LshTable::from_parts`]) physically sorts
/// buckets by key and uses the trivial `Physical` order; the delta path
/// ([`LshTable::from_parts_delta`]) appends touched/new buckets in a
/// fresh run (so unchanged runs stay shared) and carries an `Explicit`
/// key-sorted permutation instead — both enumerate the same
/// key-ascending sequence, which is what makes delta tables sample
/// bit-identically to batch-built ones.
#[derive(Debug, Clone)]
enum BucketOrder {
    /// Enumerate buckets in physical (flat-index) order.
    Physical,
    /// Enumerate buckets via this permutation of physical indices.
    Explicit(Vec<u32>),
}

impl BucketOrder {
    /// Physical bucket indices in enumeration order. `physical_len` is
    /// the store's slot count, used by the `Physical` variant only.
    fn indices(&self, physical_len: usize) -> impl Iterator<Item = u32> + '_ {
        let explicit = match self {
            Self::Physical => None,
            Self::Explicit(perm) => Some(perm),
        };
        let n = explicit.map_or(physical_len, |p| p.len());
        (0..n as u32).map(move |i| explicit.map_or(i, |p| p[i as usize]))
    }

    /// Number of live (enumerated) buckets.
    fn live(&self, physical_len: usize) -> usize {
        match self {
            Self::Physical => physical_len,
            Self::Explicit(perm) => perm.len(),
        }
    }
}

/// A bucket-counted LSH table over a vector collection.
pub struct LshTable {
    hasher: Arc<dyn BucketHasher>,
    buckets: BucketStore,
    /// Bucket index by key (the "standard hashing" of §4.1: only existing
    /// buckets are stored). **Empty for delta-built tables** — cloning a
    /// large hash map per epoch is exactly the O(n) cost the delta path
    /// exists to avoid; key lookups there binary-search the key-sorted
    /// enumeration order instead.
    by_key: HashMap<u64, u32>,
    /// Bucket key of each vector id — O(1) `B(v)` lookup without
    /// re-hashing the vector.
    vector_keys: Vec<u64>,
    /// Bucket enumeration order (see [`BucketOrder`]).
    order: BucketOrder,
    /// The pair buckets (`C(b_j, 2) > 0`) in enumeration order, with
    /// their weights — lets an epoch build and maintain its sampler in
    /// O(#pair buckets) without touching the buckets themselves. Its
    /// `order` is the column → bucket map of `alias`.
    pairs: PairIndex,
    /// `N_H = Σ_j C(b_j, 2)`.
    nh: u64,
    /// Alias table over `pairs` with `weight(B_j) = C(b_j, 2)`; `None`
    /// when no bucket holds ≥ 2 vectors.
    alias: Option<AliasTable>,
}

/// Key-ordered index of the pair buckets (`C(b_j, 2) > 0`): their
/// store indices and, in lockstep, their pair weights. Carrying the
/// weights here lets an epoch build its sampler from two contiguous
/// arrays — no scattered bucket reads — and lets the next epoch update
/// it by splicing in O(delta).
#[derive(Debug, Clone)]
struct PairIndex {
    order: Vec<u32>,
    weights: Vec<u64>,
}

impl PairIndex {
    /// The weighted-bucket sampler over these pair buckets — weights
    /// are already gathered, so no bucket is read.
    fn alias(&self) -> Option<AliasTable> {
        if self.weights.is_empty() {
            return None;
        }
        let weights: Vec<f64> = self.weights.iter().map(|&w| w as f64).collect();
        Some(AliasTable::new(&weights).expect("positive C(b,2) weights"))
    }
}

impl LshTable {
    /// Builds the table, hashing the vectors as one batch
    /// ([`BucketHasher::keys`]) on a work pool sized by `threads`
    /// (`None` = the process-wide [`vsj_pool::global`] pool, `Some(1)`
    /// = fully serial). Batch keys are exactly the per-vector keys, so
    /// the table is bit-identical at any thread count.
    pub fn build(
        collection: &VectorCollection,
        hasher: Arc<dyn BucketHasher>,
        threads: Option<usize>,
    ) -> Self {
        let local;
        let pool = match threads {
            None => vsj_pool::global(),
            Some(n) => {
                local = WorkPool::new(n);
                &local
            }
        };
        let rows: Vec<&SparseVector> = collection.vectors().iter().collect();
        let vector_keys = hasher.keys(&rows, pool);
        Self::from_parts(hasher, vector_keys)
    }

    /// Builds the table from *precomputed* bucket keys — the snapshot
    /// path of the service layer: hashing happened once, at ingest
    /// time, so assembling a global read view is a pure O(n)
    /// grouping pass with no similarity-hash evaluations.
    ///
    /// The result is indistinguishable from
    /// [`LshTable::build`] over a collection whose vectors hash to
    /// exactly `vector_keys` (same buckets, same order, same `N_H`, same
    /// sampling behavior for the same RNG stream).
    ///
    /// Groups ids by key, sorts buckets by key (members stay in id
    /// order) and indexes everything; [`LshTable::build`] ends here too.
    pub fn from_parts(hasher: Arc<dyn BucketHasher>, vector_keys: Vec<u64>) -> Self {
        // Group ids by key. Reserve assuming mostly-distinct keys (true
        // at the k values the paper uses).
        let mut groups: HashMap<u64, Vec<VectorId>> = HashMap::with_capacity(vector_keys.len());
        for (id, &key) in vector_keys.iter().enumerate() {
            groups.entry(key).or_default().push(id as VectorId);
        }
        let mut buckets: Vec<Bucket> = groups
            .into_iter()
            .map(|(key, members)| Bucket {
                key,
                members: Arc::new(members),
            })
            .collect();
        // Deterministic bucket order regardless of hash-map iteration.
        buckets.sort_unstable_by_key(|b| b.key);

        let mut by_key = HashMap::with_capacity(buckets.len());
        let mut pairs = PairIndex {
            order: Vec::new(),
            weights: Vec::new(),
        };
        let mut nh = 0u64;
        for (idx, b) in buckets.iter().enumerate() {
            by_key.insert(b.key, idx as u32);
            let w = b.pair_weight();
            if w > 0 {
                pairs.order.push(idx as u32);
                pairs.weights.push(w);
            }
            nh += w;
        }
        Self {
            hasher,
            buckets: BucketStore::from_vec(buckets),
            by_key,
            vector_keys,
            order: BucketOrder::Physical,
            alias: pairs.alias(),
            pairs,
            nh,
        }
    }

    /// Builds the table for `prev`'s keys followed by `new_keys` — the
    /// **incremental epoch path**: instead of regrouping all `n + k`
    /// keys, the previous epoch's table is extended by the `k` appended
    /// ones. Every unchanged bucket *run* is reused by `Arc`; one new
    /// run holds copies of the buckets the delta touched plus the
    /// brand-new ones, and the key-sorted enumeration order and
    /// pair-bucket sampler are rebuilt by merging — O(k) bucket work
    /// plus O(#buckets + #pair buckets) cheap index moves, no
    /// re-hashing, no re-grouping, no payload traffic.
    ///
    /// The result is **observationally identical** to
    /// [`LshTable::from_parts`] over the concatenated key sequence:
    /// same `N_H`, same buckets, and — because new buckets are woven
    /// into the key-sorted *enumeration order* (an internal permutation)
    /// even though they live in the appended run — the same sampling
    /// stream for the same RNG. The equivalence is pinned by tests and
    /// is what lets the service publish epochs incrementally while
    /// keeping estimates bit-identical to a full merge.
    ///
    /// # Panics
    /// Panics when the id space would overflow `u32`.
    pub fn from_parts_delta(prev: &Self, new_keys: &[u64]) -> Self {
        let prev_pairs = &prev.pairs;
        let n0 = prev.vector_keys.len();
        u32::try_from(n0 + new_keys.len()).expect("table exceeds u32 ids");
        let mut vector_keys = Vec::with_capacity(n0 + new_keys.len());
        vector_keys.extend_from_slice(&prev.vector_keys);
        vector_keys.extend_from_slice(new_keys);

        // Apply the delta: touched buckets are copied into the store's
        // overlay *under their original index* (runs stay shared with
        // `prev` untouched, and nothing index-keyed needs rewriting);
        // fresh keys build up one appended run.
        let mut store = prev.buckets.clone();
        let base_len = store.len;
        let mut run: Vec<Bucket> = Vec::new();
        // Original member count of each touched bucket (for pair-order
        // admission below) and key → run position for fresh keys.
        let mut touched: HashMap<u32, usize> = HashMap::new();
        let mut local: HashMap<u64, u32> = HashMap::with_capacity(new_keys.len().min(1 << 12));
        let mut nh = prev.nh;
        for (i, &key) in new_keys.iter().enumerate() {
            let id = (n0 + i) as VectorId;
            let members = match prev.find_bucket(key) {
                Some(old_idx) => {
                    let bucket = store.get_mut(old_idx);
                    touched.entry(old_idx).or_insert(bucket.members.len());
                    &mut bucket.members
                }
                None => match local.get(&key) {
                    Some(&pos) => &mut run[pos as usize].members,
                    None => {
                        let pos = u32::try_from(run.len()).expect("bucket count exceeds u32");
                        run.push(Bucket {
                            key,
                            members: Arc::new(Vec::new()),
                        });
                        local.insert(key, pos);
                        &mut run[pos as usize].members
                    }
                },
            };
            let members = Arc::make_mut(members);
            nh += members.len() as u64;
            members.push(id);
        }

        // Newcomers to the enumeration order (fresh keys) and the pair
        // index (fresh pairs + touched buckets that crossed 1 → 2), as
        // key-sorted (key, flat index[, weight]) lists; touched buckets
        // that already were pairs just get their weight refreshed in
        // place (their key — hence their position — is unchanged).
        let mut fresh: Vec<(u64, u32)> = run
            .iter()
            .enumerate()
            .map(|(pos, b)| (b.key, base_len + pos as u32))
            .collect();
        let mut new_pairs: Vec<(u64, u32, u64)> = fresh
            .iter()
            .zip(&run)
            .filter(|(_, b)| b.count() >= 2)
            .map(|(&(key, idx), b)| (key, idx, b.pair_weight()))
            .collect();
        let mut pair_weights = prev_pairs.weights.clone();
        for (&idx, &old_count) in &touched {
            let bucket = store.get(idx);
            if old_count < 2 {
                new_pairs.push((bucket.key, idx, bucket.pair_weight()));
            } else {
                let key = bucket.key;
                let p = prev_pairs
                    .order
                    .partition_point(|&e| store.get(e).key < key);
                debug_assert_eq!(store.get(prev_pairs.order[p]).key, key);
                pair_weights[p] = bucket.pair_weight();
            }
        }
        fresh.sort_unstable_by_key(|&(key, _)| key);
        new_pairs.sort_unstable_by_key(|&(key, _, _)| key);
        store.append_run(run);

        // Weave the newcomers into the key-ascending orders: indices of
        // existing buckets are unchanged (the overlay preserved them),
        // so the merges are pure splices — binary-search each
        // newcomer's slot, bulk-copy the stretches between.
        let order = splice_by_key(&prev.order, prev.buckets.len(), fresh, |idx| {
            store.get(idx).key
        });
        let pairs = splice_pairs(&prev_pairs.order, &pair_weights, new_pairs, |idx| {
            store.get(idx).key
        });

        let overlay_heavy = store.overlay.len() * 8 > store.len().max(64);
        let (store, order, pairs) = if store.runs.len() > COALESCE_RUNS || overlay_heavy {
            coalesce(store, &order)
        } else {
            (store, BucketOrder::Explicit(order), pairs)
        };

        Self {
            hasher: prev.hasher.clone(),
            buckets: store,
            by_key: HashMap::new(),
            vector_keys,
            order,
            alias: pairs.alias(),
            pairs,
            nh,
        }
    }

    /// Physical index of the bucket with `key`, through the hash map
    /// when present (batch-built tables) or by binary search over the
    /// key-sorted enumeration order (delta-built tables, which
    /// deliberately carry no map — see [`LshTable::by_key`]).
    fn find_bucket(&self, key: u64) -> Option<u32> {
        if self.buckets.len() == 0 {
            return None;
        }
        if !self.by_key.is_empty() {
            return self.by_key.get(&key).copied();
        }
        let live = self.order.live(self.buckets.len());
        let mut lo = 0usize;
        let mut hi = live;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let idx = match &self.order {
                BucketOrder::Physical => mid as u32,
                BucketOrder::Explicit(perm) => perm[mid],
            };
            match self.buckets.get(idx).key.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(idx),
            }
        }
        None
    }

    /// Number of indexed vectors `n` (ids are `0..n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.vector_keys.len()
    }

    /// True when no vector is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vector_keys.is_empty()
    }

    /// Number of buckets `n_g` (only non-empty buckets are stored).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.order.live(self.buckets.len())
    }

    /// `N_H = Σ_j C(b_j, 2)` — pairs in the same bucket.
    #[inline]
    pub fn nh(&self) -> u64 {
        self.nh
    }

    /// The composite hasher `g` of this table.
    #[inline]
    pub fn hasher(&self) -> &Arc<dyn BucketHasher> {
        &self.hasher
    }

    /// Serializes the table to its parts: the bucket key of every
    /// vector in id order. The inverse of [`LshTable::from_parts`] —
    /// `from_parts(hasher, t.to_parts())` reproduces a table with
    /// identical buckets, `N_H`, and sampling behavior.
    pub fn to_parts(&self) -> Vec<u64> {
        self.vector_keys.clone()
    }

    /// Bucket key of an indexed vector (`B(v)` of the paper).
    #[inline]
    pub fn key_of(&self, id: VectorId) -> u64 {
        self.vector_keys[id as usize]
    }

    /// Whether two indexed vectors share a bucket — the event `H`.
    #[inline]
    pub fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        self.vector_keys[a as usize] == self.vector_keys[b as usize]
    }

    /// The bucket with the given key, if present.
    pub fn bucket_by_key(&self, key: u64) -> Option<&Bucket> {
        self.find_bucket(key).map(|i| self.buckets.get(i))
    }

    /// All buckets, key-ascending.
    pub fn buckets(&self) -> impl Iterator<Item = &Bucket> {
        self.order
            .indices(self.buckets.len())
            .map(|i| self.buckets.get(i))
    }

    /// Bucket count `b_j` for a key (0 when the bucket does not exist).
    pub fn bucket_count(&self, key: u64) -> usize {
        self.bucket_by_key(key).map_or(0, Bucket::count)
    }
}

/// The table's storage primitives; the stratum draws are the view's
/// provided methods.
impl IndexView for LshTable {
    #[inline]
    fn len(&self) -> usize {
        LshTable::len(self)
    }

    #[inline]
    fn nh(&self) -> u64 {
        self.nh
    }

    #[inline]
    fn k(&self) -> usize {
        self.hasher.k()
    }

    #[inline]
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        LshTable::same_bucket(self, a, b)
    }

    #[inline]
    fn pair_alias(&self) -> Option<&AliasTable> {
        self.alias.as_ref()
    }

    #[inline]
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        let members = &self.buckets.get(self.pairs.order[col]).members;
        let (i, j) = pick(members.len());
        (members[i], members[j])
    }
}

/// Splices key-sorted `(key, index)` newcomers into a key-sorted index
/// slice (disjoint key sets): binary-search each newcomer's slot,
/// bulk-copy the stretches between — O(new · log existing) probes plus
/// one pass of `memcpy`, no per-element key lookups.
fn splice_sorted(
    existing: &[u32],
    incoming: Vec<(u64, u32)>,
    key_at: impl Fn(u32) -> u64,
) -> Vec<u32> {
    if incoming.is_empty() {
        return existing.to_vec();
    }
    let mut merged = Vec::with_capacity(existing.len() + incoming.len());
    let mut start = 0usize;
    for (key, idx) in incoming {
        let p = start + existing[start..].partition_point(|&e| key_at(e) < key);
        merged.extend_from_slice(&existing[start..p]);
        merged.push(idx);
        start = p;
    }
    merged.extend_from_slice(&existing[start..]);
    merged
}

/// [`splice_sorted`] over parallel (index, weight) arrays — the pair
/// index variant.
fn splice_pairs(
    existing_order: &[u32],
    existing_weights: &[u64],
    incoming: Vec<(u64, u32, u64)>,
    key_at: impl Fn(u32) -> u64,
) -> PairIndex {
    debug_assert_eq!(existing_order.len(), existing_weights.len());
    if incoming.is_empty() {
        return PairIndex {
            order: existing_order.to_vec(),
            weights: existing_weights.to_vec(),
        };
    }
    let capacity = existing_order.len() + incoming.len();
    let mut order = Vec::with_capacity(capacity);
    let mut weights = Vec::with_capacity(capacity);
    let mut start = 0usize;
    for (key, idx, weight) in incoming {
        let p = start + existing_order[start..].partition_point(|&e| key_at(e) < key);
        order.extend_from_slice(&existing_order[start..p]);
        weights.extend_from_slice(&existing_weights[start..p]);
        order.push(idx);
        weights.push(weight);
        start = p;
    }
    order.extend_from_slice(&existing_order[start..]);
    weights.extend_from_slice(&existing_weights[start..]);
    PairIndex { order, weights }
}

/// [`splice_sorted`] over a [`BucketOrder`] (the `Physical` variant's
/// identity sequence is spliced without materializing it first).
fn splice_by_key(
    order: &BucketOrder,
    physical_len: usize,
    incoming: Vec<(u64, u32)>,
    key_at: impl Fn(u32) -> u64,
) -> Vec<u32> {
    match order {
        BucketOrder::Explicit(perm) => splice_sorted(perm, incoming, key_at),
        BucketOrder::Physical => {
            let end = physical_len as u32;
            let mut merged = Vec::with_capacity(physical_len + incoming.len());
            let mut start = 0u32;
            for (key, idx) in incoming {
                let mut lo = start;
                let mut hi = end;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if key_at(mid) < key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                merged.extend(start..lo);
                merged.push(idx);
                start = lo;
            }
            merged.extend(start..end);
            merged
        }
    }
}

/// Flattens a run list (overlay included) into one physically
/// key-ordered run. Returns the new store, the (now trivial) order,
/// and the recomputed pair index.
fn coalesce(store: BucketStore, order: &[u32]) -> (BucketStore, BucketOrder, PairIndex) {
    let mut flat = Vec::with_capacity(order.len());
    let mut pairs = PairIndex {
        order: Vec::new(),
        weights: Vec::new(),
    };
    for &idx in order {
        let bucket = store.get(idx).clone();
        let w = bucket.pair_weight();
        if w > 0 {
            pairs.order.push(flat.len() as u32);
            pairs.weights.push(w);
        }
        flat.push(bucket);
    }
    (BucketStore::from_vec(flat), BucketOrder::Physical, pairs)
}

impl std::fmt::Debug for LshTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshTable")
            .field("n", &self.len())
            .field("k", &self.hasher.k())
            .field("family", &self.hasher.family_name())
            .field("buckets", &self.num_buckets())
            .field("runs", &self.buckets.runs.len())
            .field("nh", &self.nh)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHashFamily;
    use crate::signature::Composite;
    use crate::simhash::SimHashFamily;
    use vsj_sampling::{Rng, Xoshiro256};
    use vsj_vector::SparseVector;

    fn set(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    /// Three exact-duplicate groups of sizes 3, 2, 1 — with MinHash these
    /// hash identically, giving a fully predictable table.
    fn clustered_collection() -> VectorCollection {
        VectorCollection::from_vectors(vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 3]),
            set(&[1, 2, 3]),
            set(&[10, 20]),
            set(&[10, 20]),
            set(&[500, 600, 700]),
        ])
    }

    fn minhash_table(coll: &VectorCollection, k: usize) -> LshTable {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 42, 0, k));
        LshTable::build(coll, hasher, Some(1))
    }

    #[test]
    fn duplicates_share_buckets_nh_exact() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        // Duplicate groups must collide; distinct sets at k=16 essentially
        // never collide.
        assert!(t.same_bucket(0, 1));
        assert!(t.same_bucket(1, 2));
        assert!(t.same_bucket(3, 4));
        assert!(!t.same_bucket(0, 3));
        assert!(!t.same_bucket(0, 5));
        // NH = C(3,2) + C(2,2)... = 3 + 1 = 4.
        assert_eq!(t.nh(), 4);
        assert_eq!(t.total_pairs(), 15);
        assert_eq!(t.nl(), 11);
        assert_eq!(t.num_buckets(), 3);
    }

    #[test]
    fn bucket_counts_accessible_by_key() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let key = t.key_of(0);
        assert_eq!(t.bucket_count(key), 3);
        let b = t.bucket_by_key(key).unwrap();
        assert_eq!(b.pair_weight(), 3);
        let mut members = (*b.members).clone();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        assert_eq!(t.bucket_count(key ^ 0xFFFF), 0);
    }

    #[test]
    fn same_bucket_pair_sampling_is_pair_uniform() {
        // Stratum SH has 4 pairs: (0,1),(0,2),(1,2),(3,4). Each must be
        // drawn with probability 1/4 (bucket weighted C(b,2), pair uniform
        // within bucket).
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(1);
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        let trials = 80_000;
        for _ in 0..trials {
            let (a, b) = t.sample_same_bucket_pair(&mut rng).unwrap();
            assert!(t.same_bucket(a, b));
            assert_ne!(a, b);
            let key = (a.min(b), a.max(b));
            *counts.entry(key).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "expected exactly 4 same-bucket pairs");
        for (pair, c) in counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.25).abs() < 0.01, "pair {pair:?} frequency {frac}");
        }
    }

    #[test]
    fn cross_bucket_pairs_never_collide() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(2);
        for _ in 0..5000 {
            let (a, b) = t.sample_cross_bucket_pair(&mut rng).unwrap();
            assert!(!t.same_bucket(a, b));
            assert_ne!(a, b);
        }
    }

    #[test]
    fn cross_bucket_sampling_is_uniform_over_sl() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(3);
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        let trials = 110_000;
        for _ in 0..trials {
            let (a, b) = t.sample_cross_bucket_pair(&mut rng).unwrap();
            *counts.entry((a.min(b), a.max(b))).or_default() += 1;
        }
        assert_eq!(counts.len() as u64, t.nl());
        let expected = trials as f64 / t.nl() as f64;
        for (pair, c) in counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "pair {pair:?} deviates {dev}");
        }
    }

    #[test]
    fn sample_any_pair_classification_matches_table() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(4);
        let mut same = 0u64;
        let trials = 60_000u64;
        for _ in 0..trials {
            let (a, b, in_same) = t.sample_any_pair(&mut rng);
            assert_eq!(in_same, t.same_bucket(a, b));
            same += u64::from(in_same);
        }
        // P(H) = NH/M = 4/15.
        let rate = same as f64 / trials as f64;
        assert!((rate - 4.0 / 15.0).abs() < 0.01, "P(H) = {rate}");
    }

    #[test]
    fn all_identical_vectors_have_no_stratum_l() {
        let coll = VectorCollection::from_vectors(vec![set(&[1]); 4]);
        let t = minhash_table(&coll, 8);
        assert_eq!(t.nh(), 6);
        assert_eq!(t.nl(), 0);
        let mut rng = Xoshiro256::seeded(5);
        assert!(t.sample_cross_bucket_pair(&mut rng).is_none());
        assert!(t.sample_same_bucket_pair(&mut rng).is_some());
    }

    #[test]
    fn all_distinct_vectors_have_no_stratum_h() {
        // At k=32 MinHash, pairwise-disjoint sets never collide.
        let coll =
            VectorCollection::from_vectors((0..8).map(|i| set(&[i * 10, i * 10 + 1])).collect());
        let t = minhash_table(&coll, 32);
        assert_eq!(t.nh(), 0);
        assert_eq!(t.num_buckets(), 8);
        let mut rng = Xoshiro256::seeded(6);
        assert!(t.sample_same_bucket_pair(&mut rng).is_none());
        assert!(t.sample_cross_bucket_pair(&mut rng).is_some());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // 2000 random-ish sets, both thread counts must agree exactly.
        let coll = VectorCollection::from_vectors(
            (0..2000u32)
                .map(|i| set(&[i % 37, (i * 7) % 37, (i * 13) % 37]))
                .collect(),
        );
        let hasher = || Arc::new(Composite::derive(SimHashFamily::new(), 9, 0, 12));
        let seq = LshTable::build(&coll, hasher(), Some(1));
        let par = LshTable::build(&coll, hasher(), Some(4));
        assert_eq!(seq.nh(), par.nh());
        assert_eq!(seq.num_buckets(), par.num_buckets());
        for id in 0..coll.len() as u32 {
            assert_eq!(seq.key_of(id), par.key_of(id));
        }
    }

    #[test]
    fn simhash_table_groups_similar_vectors() {
        // Two tight direction clusters; with k=4 bits the clusters should
        // produce large same-bucket mass across the cluster members.
        let mut vectors = Vec::new();
        for i in 0..20 {
            // Cluster A around dimension 0; tiny per-vector noise dim.
            vectors.push(SparseVector::from_entries(vec![(0, 10.0), (100 + i, 0.1)]).unwrap());
            // Cluster B around dimension 1.
            vectors.push(SparseVector::from_entries(vec![(1, 10.0), (200 + i, 0.1)]).unwrap());
        }
        let coll = VectorCollection::from_vectors(vectors);
        let hasher = Arc::new(Composite::derive(SimHashFamily::new(), 3, 0, 4));
        let t = LshTable::build(&coll, hasher, Some(1));
        // Within-cluster pairs in same bucket should far outnumber
        // cross-cluster ones.
        let (mut within_same, mut cross_same) = (0u64, 0u64);
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if t.same_bucket(a, b) {
                    if a % 2 == b % 2 {
                        within_same += 1;
                    } else {
                        cross_same += 1;
                    }
                }
            }
        }
        assert!(
            within_same > 5 * cross_same.max(1),
            "within {within_same} vs cross {cross_same}"
        );
    }

    #[test]
    fn debug_output_mentions_family() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 8);
        let s = format!("{t:?}");
        assert!(s.contains("minhash"), "{s}");
    }

    #[test]
    fn pair_count_twins_agree() {
        // `vsj_vector::pairs_of` and `vsj_sampling::pair_count` are
        // deliberate dependency-free twins; this crate sees both, so pin
        // their agreement here (divergence would skew M vs. N_L).
        for n in (0..2000u64).chain([1 << 20, 1 << 32, 794_016]) {
            assert_eq!(pairs_of(n), vsj_sampling::pair_count(n), "n = {n}");
        }
    }

    #[test]
    fn from_parts_matches_build() {
        let coll = VectorCollection::from_vectors(
            (0..500u32)
                .map(|i| set(&[i % 23, (i * 5) % 23, (i * 11) % 23]))
                .collect(),
        );
        let hasher = || Arc::new(Composite::derive(SimHashFamily::new(), 17, 0, 10));
        let built = LshTable::build(&coll, hasher(), Some(1));
        let keys: Vec<u64> = (0..coll.len() as u32).map(|id| built.key_of(id)).collect();
        let assembled = LshTable::from_parts(hasher(), keys);
        assert_eq!(assembled.nh(), built.nh());
        assert_eq!(assembled.num_buckets(), built.num_buckets());
        assert_eq!(assembled.len(), built.len());
        for id in 0..coll.len() as u32 {
            assert_eq!(assembled.key_of(id), built.key_of(id));
        }
        // Identical RNG stream ⇒ identical sample sequence: the two
        // construction paths are observationally equivalent.
        let mut r1 = Xoshiro256::seeded(3);
        let mut r2 = Xoshiro256::seeded(3);
        for _ in 0..500 {
            assert_eq!(
                built.sample_same_bucket_pair(&mut r1),
                assembled.sample_same_bucket_pair(&mut r2)
            );
            assert_eq!(
                built.sample_cross_bucket_pair(&mut r1),
                assembled.sample_cross_bucket_pair(&mut r2)
            );
        }
    }

    #[test]
    fn to_parts_round_trips_through_from_parts() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let parts = t.to_parts();
        assert_eq!(parts.len(), t.len());
        for (id, &key) in parts.iter().enumerate() {
            assert_eq!(key, t.key_of(id as VectorId));
        }
    }

    // ---- incremental (delta) construction ---------------------------------

    /// Asserts full observational equivalence: statistics, per-id keys,
    /// key-ordered bucket enumeration, and the sampling streams.
    fn assert_tables_equivalent(a: &LshTable, b: &LshTable, context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: len");
        assert_eq!(a.nh(), b.nh(), "{context}: nh");
        assert_eq!(a.num_buckets(), b.num_buckets(), "{context}: buckets");
        for id in 0..a.len() as u32 {
            assert_eq!(a.key_of(id), b.key_of(id), "{context}: key of {id}");
        }
        let pairs: Vec<_> = a.buckets().map(|x| (x.key, x.members.clone())).collect();
        let pairs_b: Vec<_> = b.buckets().map(|x| (x.key, x.members.clone())).collect();
        assert_eq!(pairs, pairs_b, "{context}: enumeration order");
        let mut r1 = Xoshiro256::seeded(0xD3);
        let mut r2 = Xoshiro256::seeded(0xD3);
        for _ in 0..400 {
            assert_eq!(
                a.sample_same_bucket_pair(&mut r1),
                b.sample_same_bucket_pair(&mut r2),
                "{context}: SH stream"
            );
            assert_eq!(
                a.sample_cross_bucket_pair(&mut r1),
                b.sample_cross_bucket_pair(&mut r2),
                "{context}: SL stream"
            );
            assert_eq!(
                a.sample_any_pair(&mut r1),
                b.sample_any_pair(&mut r2),
                "{context}: any stream"
            );
        }
    }

    /// Skewed key sequence: plenty of bucket collisions plus fresh keys.
    fn key_sequence(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| {
                if rng.below(3) == 0 {
                    rng.below(20) // hot keys: multi-member buckets
                } else {
                    0x1000 + rng.below(2 * n.max(1) as u64) // mostly-unique tail
                }
            })
            .collect()
    }

    #[test]
    fn from_parts_delta_matches_batch_from_parts() {
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 1, 0, 8));
        let keys = key_sequence(600, 41);
        for split in [0, 1, 250, 599, 600] {
            let base = LshTable::from_parts(hasher(), keys[..split].to_vec());
            let delta = LshTable::from_parts_delta(&base, &keys[split..]);
            let batch = LshTable::from_parts(hasher(), keys.clone());
            assert_tables_equivalent(&delta, &batch, &format!("split {split}"));
        }
    }

    #[test]
    fn chained_deltas_match_batch_build() {
        // Epoch after epoch of appends — the service's publish cadence.
        // 500/7 ≈ 72 epochs also crosses the run-coalescing threshold.
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 7, 0, 8));
        let keys = key_sequence(500, 43);
        let mut table = LshTable::from_parts(hasher(), Vec::new());
        for chunk in keys.chunks(7) {
            table = LshTable::from_parts_delta(&table, chunk);
        }
        let batch = LshTable::from_parts(hasher(), keys);
        assert_tables_equivalent(&table, &batch, "chained deltas");
    }

    #[test]
    fn delta_shares_untouched_buckets_with_base() {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 3, 0, 8));
        let base = LshTable::from_parts(hasher, vec![10, 20, 20, 30, 30, 30]);
        // Delta touches key 20 and creates key 40; 10 and 30 untouched.
        let next = LshTable::from_parts_delta(&base, &[20, 40]);
        let find = |t: &LshTable, key: u64| t.bucket_by_key(key).unwrap().members.clone();
        assert!(
            Arc::ptr_eq(&find(&base, 10), &find(&next, 10)),
            "untouched bucket 10 must be shared"
        );
        assert!(
            Arc::ptr_eq(&find(&base, 30), &find(&next, 30)),
            "untouched bucket 30 must be shared"
        );
        assert!(
            !Arc::ptr_eq(&find(&base, 20), &find(&next, 20)),
            "touched bucket must be copied, not mutated in place"
        );
        // The base epoch is frozen: its bucket 20 still has two members.
        assert_eq!(base.bucket_count(20), 2);
        assert_eq!(next.bucket_count(20), 3);
        assert_eq!(next.nh(), base.nh() + 2); // +2 pairs in bucket 20
    }

    #[test]
    fn delta_weaves_new_buckets_into_key_order() {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 5, 0, 8));
        let base = LshTable::from_parts(hasher, vec![10, 30, 50]);
        // New keys land before, between, and after the existing ones.
        let next = LshTable::from_parts_delta(&base, &[40, 5, 60, 20]);
        let enumerated: Vec<u64> = next.buckets().map(|b| b.key).collect();
        assert_eq!(enumerated, vec![5, 10, 20, 30, 40, 50, 60]);
        // Key lookups keep working on the woven order (no hash map on
        // the delta path).
        for key in [5, 10, 20, 30, 40, 50, 60] {
            assert_eq!(next.bucket_count(key), 1, "key {key}");
        }
        assert_eq!(next.bucket_count(25), 0);
    }

    #[test]
    fn empty_delta_is_identity() {
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 9, 0, 8));
        let base = LshTable::from_parts(hasher(), key_sequence(120, 47));
        let same = LshTable::from_parts_delta(&base, &[]);
        assert_tables_equivalent(&same, &base, "empty delta");
    }

    mod delta_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Any split of any key sequence: delta == batch, including
            /// the sampling streams.
            #[test]
            fn delta_equals_batch_everywhere(
                n in 0usize..300,
                split_frac in 0.0f64..1.0,
                seed in 0u64..1000,
            ) {
                let keys = key_sequence(n, seed);
                let split = ((n as f64) * split_frac) as usize;
                let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, 8));
                let base = LshTable::from_parts(hasher(), keys[..split].to_vec());
                let delta = LshTable::from_parts_delta(&base, &keys[split..]);
                let batch = LshTable::from_parts(hasher(), keys.clone());
                prop_assert_eq!(delta.nh(), batch.nh());
                prop_assert_eq!(delta.num_buckets(), batch.num_buckets());
                let mut r1 = Xoshiro256::seeded(seed ^ 0xA5A5);
                let mut r2 = Xoshiro256::seeded(seed ^ 0xA5A5);
                for _ in 0..60 {
                    prop_assert_eq!(
                        delta.sample_same_bucket_pair(&mut r1),
                        batch.sample_same_bucket_pair(&mut r2)
                    );
                    prop_assert_eq!(
                        delta.sample_cross_bucket_pair(&mut r1),
                        batch.sample_cross_bucket_pair(&mut r2)
                    );
                }
            }

            /// Chains of deltas (crossing the coalesce threshold) stay
            /// equivalent to one batch build.
            #[test]
            fn delta_chains_equal_batch(
                n in 0usize..240,
                chunk in 1usize..12,
                seed in 0u64..500,
            ) {
                let keys = key_sequence(n, seed);
                let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, 8));
                let mut table = LshTable::from_parts(hasher(), Vec::new());
                for c in keys.chunks(chunk) {
                    table = LshTable::from_parts_delta(&table, c);
                }
                let batch = LshTable::from_parts(hasher(), keys.clone());
                prop_assert_eq!(table.nh(), batch.nh());
                prop_assert_eq!(table.num_buckets(), batch.num_buckets());
                let mut r1 = Xoshiro256::seeded(seed ^ 0x77);
                let mut r2 = Xoshiro256::seeded(seed ^ 0x77);
                for _ in 0..40 {
                    prop_assert_eq!(
                        table.sample_same_bucket_pair(&mut r1),
                        batch.sample_same_bucket_pair(&mut r2)
                    );
                }
            }
        }
    }
}
