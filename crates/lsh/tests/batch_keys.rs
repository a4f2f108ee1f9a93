//! Batched hashing equals per-row hashing, bit for bit.
//!
//! [`BucketHasher::keys`] must return exactly `rows.map(key)`,
//! [`LshFamily::hash_batch`] exactly the per-row `hash` values and
//! [`SignatureMatrix::build`] exactly the per-row
//! `signature`, for both families, for a family behind a
//! reference (`&F` must forward the batch path), for `k ∈ {1, 16}` and
//! on pools of 1 and 4 threads. The batches include empty rows,
//! duplicate rows, negative weights and a dimension at `u32::MAX − 1`
//! (a batch table sized by dimension id could not be allocated), and
//! span the 64-row size below which a batch is hashed on the calling
//! thread.

use std::sync::OnceLock;

use proptest::prelude::*;
use vsj_lsh::{
    BucketHasher, Composite, LshFamily, LshFunction, MinHashFamily, SignatureMatrix, SimHashFamily,
};
use vsj_pool::WorkPool;
use vsj_vector::{SparseVector, VectorCollection};

const KS: [usize; 2] = [1, 16];
const HIGH_DIM: u32 = u32::MAX - 1;

/// One serial pool and one of 4 threads, shared by every case.
fn pools() -> &'static [WorkPool; 2] {
    static POOLS: OnceLock<[WorkPool; 2]> = OnceLock::new();
    POOLS.get_or_init(|| [WorkPool::new(1), WorkPool::new(4)])
}

fn row(entries: &[(u32, f32)]) -> SparseVector {
    SparseVector::from_entries(entries.to_vec()).expect("finite entries")
}

/// Asserts every batch path of `family` under `seed` with `k`
/// functions over `rows` equals its per-row path, on every pool.
fn assert_batch_equals_rows<F: LshFamily>(family: F, seed: u64, k: usize, rows: &[SparseVector]) {
    let refs: Vec<&SparseVector> = rows.iter().collect();
    let funcs: Vec<F::Func> = (0..k as u64).map(|id| family.function(seed, id)).collect();
    let signatures: Vec<u64> = rows
        .iter()
        .flat_map(|v| funcs.iter().map(|f| f.hash(v)))
        .collect();
    for pool in pools() {
        let mut batch = vec![0u64; rows.len() * k];
        family.hash_batch(&funcs, &refs, pool, &mut batch, |signature, words| {
            words.copy_from_slice(signature)
        });
        assert_eq!(
            batch,
            signatures,
            "signatures: k {k}, {} threads",
            pool.threads()
        );
    }
    let composite = Composite::derive(family, seed, 3, k);
    let keys: Vec<u64> = rows.iter().map(|v| composite.key(v)).collect();
    for pool in pools() {
        assert_eq!(
            composite.keys(&refs, pool),
            keys,
            "keys: k {k}, {} threads",
            pool.threads()
        );
    }
}

/// Both families, owned and by reference, at every `k`.
fn assert_all_families(seed: u64, rows: &[SparseVector]) {
    for k in KS {
        assert_batch_equals_rows(SimHashFamily::new(), seed, k, rows);
        assert_batch_equals_rows::<&SimHashFamily>(&SimHashFamily::new(), seed, k, rows);
        assert_batch_equals_rows(MinHashFamily::new(), seed, k, rows);
        assert_batch_equals_rows::<&MinHashFamily>(&MinHashFamily::new(), seed, k, rows);
    }
}

#[test]
fn empty_and_single_row_batches() {
    assert_all_families(1, &[]);
    assert_all_families(2, &[row(&[(4, 0.5), (9, -1.25)])]);
    assert_all_families(2, &[SparseVector::empty()]);
    assert_all_families(2, &[row(&[(HIGH_DIM, 3.0)])]);
}

#[test]
fn edge_rows_in_one_batch() {
    let edge = vec![
        SparseVector::empty(),
        row(&[(0, 1.0), (7, -2.5), (HIGH_DIM, 0.75)]),
        row(&[(0, 1.0), (7, -2.5), (HIGH_DIM, 0.75)]),
        SparseVector::empty(),
        row(&[(7, -0.001), (11, 1e6)]),
        row(&[(HIGH_DIM, -1.0)]),
        SparseVector::binary_from_members(vec![0, 3, 7, 11, 500]),
        row(&[(0, -1.0), (7, 2.5), (HIGH_DIM, -0.75)]),
    ];
    assert_all_families(3, &edge);
    // The same rows, repeated into a batch large enough to fan out.
    let repeated: Vec<SparseVector> = (0..12).flat_map(|_| edge.iter().cloned()).collect();
    assert_all_families(3, &repeated);
}

#[test]
fn signature_matrix_build_equals_per_row_signatures() {
    let rows: Vec<SparseVector> = (0..300u32)
        .map(|i| {
            row(&[
                (i % 17, 1.0 + (i % 3) as f32),
                (20 + i % 29, -0.5),
                (HIGH_DIM - i % 2, 0.25),
            ])
        })
        .chain([SparseVector::empty()])
        .collect();
    let coll = VectorCollection::from_vectors(rows.clone());
    for k in KS {
        let check = |matrix: SignatureMatrix, composite: &dyn Fn(&SparseVector) -> Vec<u64>| {
            assert_eq!(matrix.len(), rows.len());
            for (i, v) in rows.iter().enumerate() {
                assert_eq!(matrix.row(i), composite(v).as_slice(), "row {i}, k {k}");
            }
        };
        let sim = Composite::derive(SimHashFamily::new(), 5, 0, k);
        let min = Composite::derive(MinHashFamily::new(), 5, 0, k);
        check(
            SignatureMatrix::build(&coll, SimHashFamily::new(), 5, k),
            &|v| sim.signature(v),
        );
        check(
            SignatureMatrix::build::<&SimHashFamily>(&coll, &SimHashFamily::new(), 5, k),
            &|v| sim.signature(v),
        );
        check(
            SignatureMatrix::build(&coll, MinHashFamily::new(), 5, k),
            &|v| min.signature(v),
        );
        check(
            SignatureMatrix::build::<&MinHashFamily>(&coll, &MinHashFamily::new(), 5, k),
            &|v| min.signature(v),
        );
    }
}

/// A weighted row over a small dimension universe (so rows share
/// dimensions), sometimes reaching up to `u32::MAX − 1`.
fn row_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..48, -4.0f32..4.0, 0u32..16), 0..12).prop_map(|entries| {
        row(&entries
            .into_iter()
            .map(|(dim, w, high)| (if high == 0 { HIGH_DIM - dim } else { dim }, w))
            .collect::<Vec<_>>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches — with rows repeated to force duplicates — hash
    /// identically batched and per row.
    #[test]
    fn random_batches_match_per_row_hashing(
        rows in proptest::collection::vec(row_strategy(), 0..160),
        repeats in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let mut rows = rows;
        let copies: Vec<SparseVector> = rows.iter().take(repeats).cloned().collect();
        rows.extend(copies);
        assert_all_families(seed, &rows);
    }
}
