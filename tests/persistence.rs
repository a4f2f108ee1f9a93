//! Persistence round-trips: collection containers, ground-truth caches,
//! and the determinism guarantees the experiment harness relies on.

use vsj::datasets::io;
use vsj::prelude::*;

#[test]
fn collection_container_roundtrip_across_presets() {
    let dir = std::env::temp_dir().join("vsj_it_persistence");
    for (name, coll) in [
        ("dblp", DblpLike::with_size(200).generate(1)),
        ("nyt", NytLike::with_size(80).generate(2)),
        ("pubmed", PubmedLike::with_size(80).generate(3)),
    ] {
        let path = dir.join(format!("{name}.vsjc"));
        io::save(&coll, &path).unwrap();
        let loaded = io::load(&path).unwrap();
        assert_eq!(coll.len(), loaded.len(), "{name}");
        assert_eq!(
            io::content_hash(&coll),
            io::content_hash(&loaded),
            "{name} hash"
        );
        // Loaded vectors are bit-identical.
        for (a, b) in coll.vectors().iter().zip(loaded.vectors()) {
            assert_eq!(a, b);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One layout for every artefact: a saved collection is a container in
/// the same aligned-directory layout as a service checkpoint, so the
/// one parser reads it.
#[test]
fn saved_collection_parses_with_container_index() {
    let dir = std::env::temp_dir().join("vsj_it_collection_layout");
    let coll = DblpLike::with_size(120).generate(4);
    let path = dir.join("coll.vsjc");
    io::save(&coll, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let index = io::ContainerIndex::parse(&bytes).unwrap();
    assert_eq!(index.tags(), vec![io::SECTION_COLLECTION]);
    let payload = index.require(io::SECTION_COLLECTION).unwrap();
    assert_eq!(payload.start % 8, 0, "payloads are mappable: 8-aligned");
    assert_eq!(bytes[payload], io::encode_vectors(&coll));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ground_truth_cache_roundtrip() {
    let dir = std::env::temp_dir().join("vsj_it_truth");
    let coll = DblpLike::with_size(150).generate(5);
    let taus = [0.1, 0.5, 0.9];
    let truth = GroundTruth::compute(&coll, &Cosine, &taus, 2);
    let path = dir.join("truth.tsv");
    truth.save(&path).unwrap();
    let loaded = GroundTruth::load(&path).unwrap();
    for &t in &taus {
        assert_eq!(loaded.join_size(t), truth.join_size(t));
        assert_eq!(loaded.selectivity(t), truth.selectivity(t));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn index_rebuild_reproduces_estimates() {
    // Everything downstream of (data seed, index seed, rng seed) must be
    // bit-reproducible — the property the experiment harness's forked
    // RNG streams and cache keys assume.
    let data = DblpLike::with_size(300).generate(7);
    let build = || LshIndex::build(&data, LshParams::new(10, 2).with_seed(11).with_threads(2));
    let (i1, i2) = (build(), build());
    let est = LshSs::with_defaults(data.len());
    let run = |index: &LshIndex| {
        let mut rng = Xoshiro256::seeded(13);
        (0..5)
            .map(|_| {
                est.estimate(&data, index.table(0), &Cosine, 0.7, &mut rng)
                    .value
            })
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(&i1), run(&i2));
}

#[test]
fn content_hash_detects_any_vector_change() {
    let coll = DblpLike::with_size(100).generate(9);
    let base = io::content_hash(&coll);
    // Rebuild with one vector perturbed.
    let mut vectors = coll.vectors().to_vec();
    let mut entries: Vec<(u32, f32)> = vectors[42].iter().collect();
    entries[0].1 += 1.0;
    vectors[42] = SparseVector::from_entries(entries).unwrap();
    let changed = VectorCollection::from_vectors(vectors);
    assert_ne!(base, io::content_hash(&changed));
}

#[test]
fn corrupted_container_is_rejected_not_misread() {
    let coll = DblpLike::with_size(60).generate(11);
    let bytes = io::encode(&coll);
    // Flip a byte inside the payload region.
    let mut broken = bytes.clone();
    let mid = broken.len() / 2;
    broken[mid] ^= 0xFF;
    match io::decode(&broken) {
        // Either an explicit error…
        Err(_) => {}
        // …or a structurally valid but *different* collection (a flipped
        // weight byte can still parse); it must never hash equal.
        Ok(parsed) => {
            assert_ne!(io::content_hash(&parsed), io::content_hash(&coll));
        }
    }
}

/// The collection writer's bytes, pinned over a TF-IDF corpus (weights
/// that are not all 1.0): any change to the container framing, the
/// `COLL` layout or the row blocks moves this checksum.
#[test]
fn collection_writer_bytes_are_pinned() {
    let coll = NytLike::with_size(80).generate(2);
    assert!(!coll.vectors().iter().all(SparseVector::is_binary));
    let bytes = io::encode(&coll);
    assert_eq!(bytes.len(), 114_248);
    assert_eq!(io::checksum64(&bytes), 0x5208_89cb_2fc5_971f);
}

/// The three stand-in corpora, pinned byte for byte at two sizes and two
/// seeds: the `io::encode` length and `checksum64` of every
/// `(preset, n, seed)` cell. Token counting, duplicate planting and
/// weighting may be rewritten for speed, but never so that one RNG word
/// or one `f32` weight moves.
#[test]
fn corpus_bytes_are_pinned() {
    let cells: [(&str, usize, u64, usize, u64); 12] = [
        ("dblp", 2_000, 1, 231_440, 0x1aa9_fa10_8191_f076),
        ("dblp", 2_000, 7, 232_576, 0xebcc_ceac_4a72_62d6),
        ("dblp", 6_000, 1, 707_120, 0x7c79_967b_e693_ef73),
        ("dblp", 6_000, 7, 709_992, 0x8f1b_0c87_7de4_8980),
        ("nyt", 2_000, 1, 2_954_992, 0xc2f6_07c0_2259_ff17),
        ("nyt", 2_000, 7, 2_913_864, 0x6c86_3aaa_0d8c_055b),
        ("nyt", 6_000, 1, 9_137_920, 0x3b81_e1fa_bd4c_6f2b),
        ("nyt", 6_000, 7, 9_136_504, 0x8592_eabf_d632_5805),
        ("pubmed", 2_000, 1, 1_383_856, 0x0319_d4af_a7b2_d771),
        ("pubmed", 2_000, 7, 1_378_848, 0x29ab_1939_2b44_7b66),
        ("pubmed", 6_000, 1, 4_233_040, 0x7fb5_c3c0_c0b7_866b),
        ("pubmed", 6_000, 7, 4_247_656, 0xffa8_6e83_36da_8b21),
    ];
    for (name, n, seed, len, sum) in cells {
        let coll = match name {
            "dblp" => DblpLike::with_size(n).generate(seed),
            "nyt" => NytLike::with_size(n).generate(seed),
            _ => PubmedLike::with_size(n).generate(seed),
        };
        let bytes = io::encode(&coll);
        let cell = format!("{name} n={n} seed={seed}");
        assert_eq!(bytes.len(), len, "{cell}: length");
        assert_eq!(io::checksum64(&bytes), sum, "{cell}: checksum");
    }
}

/// The Zipf sampler's draw stream, pinned: the first 10 000 ranks of
/// `Zipf::new(35_000, 1.0)` under `Xoshiro256::seeded(3)`. Any change to
/// the alias table's construction, its column layout or its use of the
/// RNG moves this checksum.
#[test]
fn zipf_draws_are_pinned() {
    let zipf = vsj::datasets::Zipf::new(35_000, 1.0);
    let mut rng = Xoshiro256::seeded(3);
    let bytes: Vec<u8> = (0..10_000)
        .flat_map(|_| zipf.sample(&mut rng).to_le_bytes())
        .collect();
    assert_eq!(io::checksum64(&bytes), 0x69de_ced1_1d59_ea9f);
}

/// SimHash keys and answers, pinned: `Composite::derive(SimHashFamily,
/// 2011, 0, 16)` over a DBLP-like corpus (per-row `key` and the batched
/// `LshTable::build` alike), and the value and standard-error bits a
/// heap engine that `insert_batch`es the same rows serves at epoch 1.
/// Any change to the hyperplane coordinates, the projection sums, the
/// sign rule or the key fold moves these.
#[test]
fn simhash_keys_and_answers_are_pinned() {
    use std::sync::Arc;
    use vsj::lsh::{BucketHasher, Composite};

    let coll = DblpLike::with_size(2_000).generate(1);
    let hasher = Composite::derive(SimHashFamily::new(), 2011, 0, 16);
    let keys: Vec<u64> = coll.vectors().iter().map(|v| hasher.key(v)).collect();
    assert_eq!(
        LshTable::build(&coll, Arc::new(hasher), Some(4)).to_parts(),
        keys
    );
    let bytes: Vec<u8> = keys.iter().flat_map(|k| k.to_le_bytes()).collect();
    assert_eq!(io::checksum64(&bytes), 0x5ea5_8a02_737d_e9d0);

    let engine = EstimationEngine::new(
        ServiceConfig::builder()
            .shards(4)
            .k(16)
            .seed(2011)
            .family(IndexFamily::SimHash)
            .pool_threads(2)
            .build(),
    );
    engine.insert_batch(coll.into_vectors());
    assert_eq!(engine.publish(), 1);
    let bits: Vec<(u64, u64)> = engine
        .estimate_batch(&[0.5, 0.8])
        .iter()
        .map(|e| (e.estimate.value.to_bits(), e.std_err.to_bits()))
        .collect();
    // Ĵ = 433.269 (τ = 0.5) and 431.568 (τ = 0.8), standard error ≈ 706.32.
    assert_eq!(
        bits,
        [
            (0x407b_144d_d2f1_a9fc, 0x4086_1298_e6d8_0488),
            (0x407a_f916_872b_020c, 0x4086_1299_5e4e_2a20)
        ]
    );
}
