//! Crash-recovery test harness for the durable estimation engine.
//!
//! The durability contract under test:
//!
//! * **Restart equivalence** — an engine recovered from
//!   checkpoint + WAL merge-replay is bit-identical, at every published
//!   epoch, to an uninterrupted engine fed the same ingest sequence
//!   (same seed): LSH-SS, JU, and LSH-S estimates all agree bit for
//!   bit. Pinned by the property test below.
//! * **Prefix consistency per shard** — truncating the *last segment of
//!   any shard's WAL chain* at any byte boundary (a crash mid-append)
//!   recovers exactly the surviving record sequence in global order;
//!   records on other shards past the tear commute and survive. Damage
//!   to a sealed segment, a missing mid-chain segment, any checkpoint
//!   byte, or a segment header fails loudly. Never a silently wrong
//!   index, never a panic. Pinned by the crash-injection matrix.
//! * **Refuse, never mis-serve** — a directory holding anything this
//!   engine does not write (a single-file `wal.vsjw`, a container in an
//!   older version) fails with a structured error naming the problem,
//!   on both tiers. (The committed format-stability fixture is
//!   `tests/data/golden-v3`, pinned by `tests/mapped_compaction.rs`.)
//! * **Retention horizon** — with `retain_checkpoints > 1`, checkpoint
//!   truncation keeps every WAL segment needed to roll *any* kept
//!   generation forward; restoring an older generation over the
//!   current checkpoint and recovering reproduces the pre-crash engine
//!   exactly.
//!
//! The `VSJ_TEST_FSYNC` env var (`never` / `always`) selects the fsync
//! policy the durable engines under test run with, so the CI matrix
//! exercises the shared-flush commit protocol on the same scenarios.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vsj::datasets::io::{self, IoError};
use vsj::prelude::*;
use vsj::service::persist::{self, CHECKPOINT_FILE};
use vsj::service::wal;

/// Fresh per-test storage directory (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vsj_recovery_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(3)
        .k(8)
        .seed(seed)
        .family(IndexFamily::MinHash)
        .build()
}

/// The fsync policy the CI matrix selects (default: `Never`, the
/// page-cache policy). Any other value fails loudly rather than
/// silently running `Never`.
fn test_fsync() -> FsyncPolicy {
    match std::env::var("VSJ_TEST_FSYNC") {
        Err(std::env::VarError::NotPresent) => FsyncPolicy::Never,
        Ok(value) if value == "never" => FsyncPolicy::Never,
        Ok(value) if value == "always" => FsyncPolicy::Always,
        other => panic!("VSJ_TEST_FSYNC must be unset, `never` or `always`, not {other:?}"),
    }
}

/// Small segments (1 KiB) so every scenario crosses segment boundaries.
fn test_options() -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 1024,
        fsync: test_fsync(),
        ..DurabilityOptions::default()
    }
}

fn durable_for_test(config: ServiceConfig, dir: &Path) -> EstimationEngine {
    EstimationEngine::durable_with(config, dir, test_options()).unwrap()
}

fn members(start: u32, len: u32) -> SparseVector {
    SparseVector::binary_from_members((start..start + len).collect())
}

/// Applies one surviving WAL record to a reference engine through the
/// public API, in global sequence order. Inserts are applied as
/// upserts of the recorded id: when records were legally dropped from
/// *other* shards the reference cannot rely on `insert`'s sequential
/// allocation, and an upsert of a fresh id is behaviorally identical
/// (same shard mutation, same counter bump, same id-watermark
/// reservation as replay itself performs).
fn apply_record(engine: &EstimationEngine, record: &wal::WalRecord) {
    match record {
        wal::WalRecord::Insert { id, vector } => {
            assert!(
                !engine.upsert(*id, vector.clone()),
                "a logged insert must replay onto a fresh id"
            );
        }
        wal::WalRecord::Remove { id } => {
            assert!(engine.remove(*id), "logged remove must be applicable");
        }
        wal::WalRecord::Upsert { id, vector } => {
            engine.upsert(*id, vector.clone());
        }
        wal::WalRecord::Publish => {
            engine.publish();
        }
    }
}

/// Reads every record of every shard chain in `dir`, merged by global
/// sequence number.
fn read_all_entries(dir: &Path, shards: usize) -> Vec<wal::SeqEntry> {
    let mut entries = Vec::new();
    for shard in 0..shards {
        for path in wal::segment_files(dir, shard) {
            entries.extend(wal::read_segment(&path).unwrap().entries);
        }
    }
    entries.sort_by_key(|e| e.seq);
    entries
}

fn clone_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Full-state comparison: snapshot layout, table statistics, and
/// bit-identical LSH-SS / JU / LSH-S estimates at the same epoch.
fn assert_engines_equivalent(a: &EstimationEngine, b: &EstimationEngine, context: &str) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.epoch(), sb.epoch(), "{context}: epoch");
    assert_eq!(sa.global_ids(), sb.global_ids(), "{context}: global ids");
    assert_eq!(sa.table().nh(), sb.table().nh(), "{context}: N_H");
    assert_eq!(
        sa.table().num_buckets(),
        sb.table().num_buckets(),
        "{context}: buckets"
    );
    for tau in [0.4, 0.8] {
        // LSH-SS through the serving path.
        let (ea, eb) = (a.estimate(tau), b.estimate(tau));
        assert_eq!(ea.estimate, eb.estimate, "{context}: LSH-SS at τ={tau}");
        assert_eq!(ea.epoch, eb.epoch, "{context}: epoch at τ={tau}");
        assert_eq!(ea.n, eb.n, "{context}: n at τ={tau}");
        // JU (analytic — depends only on table statistics).
        let ju = UniformLsh::idealized();
        assert_eq!(
            ju.estimate(sa.as_ref(), tau),
            ju.estimate(sb.as_ref(), tau),
            "{context}: JU at τ={tau}"
        );
        // LSH-S (sampling — driven by the engines' deterministic RNG
        // streams, which must agree after recovery).
        let lshs = LshS::paper_default(sa.len());
        let ra = lshs.estimate(
            sa.collection(),
            &Jaccard,
            sa.as_ref(),
            tau,
            &mut a.batch_rng(sa.epoch()),
        );
        let rb = lshs.estimate(
            sb.collection(),
            &Jaccard,
            sb.as_ref(),
            tau,
            &mut b.batch_rng(sb.epoch()),
        );
        assert_eq!(ra, rb, "{context}: LSH-S at τ={tau}");
    }
}

// --- basic lifecycle -------------------------------------------------------

#[test]
fn durable_engine_round_trips_through_checkpoint_and_wal() {
    let dir = fresh_dir("roundtrip");
    let engine = durable_for_test(config(7), &dir);
    for i in 0..40u32 {
        engine.insert(members(i % 12, 4));
    }
    let epoch = engine.checkpoint().unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(engine.wal_pending(), 0, "checkpoint covers the whole log");
    // A WAL tail past the checkpoint.
    for i in 0..15u32 {
        engine.insert(members(i % 9, 5));
    }
    engine.remove(3);
    engine.upsert(100, members(2, 6));
    assert_eq!(engine.wal_pending(), 17);
    assert!(
        engine.max_wal_shard_pending() <= 17 && engine.max_wal_shard_pending() >= 6,
        "per-shard depth is a partition of the backlog"
    );
    let pre_stats = engine.stats();
    assert_eq!(
        pre_stats.wal_shard_pending.iter().sum::<u64>(),
        17,
        "shard depths sum to the backlog"
    );
    drop(engine);

    let recovered = EstimationEngine::recover(&dir).unwrap();
    assert!(recovered.is_durable());
    assert_eq!(recovered.storage_dir(), Some(dir.as_path()));
    assert_eq!(recovered.stats().ingests, pre_stats.ingests);
    assert_eq!(recovered.stats().live, pre_stats.live);
    // Current epoch is the checkpointed one; the replayed tail becomes
    // visible at the next publish, reproducing the pre-crash snapshot.
    assert_eq!(recovered.current_epoch(), 1);
    recovered.publish();
    assert_eq!(recovered.current_epoch(), 2);
    assert_eq!(recovered.snapshot().len(), 55);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_refuses_to_overwrite_and_recover_needs_state() {
    let dir = fresh_dir("guards");
    let engine = durable_for_test(config(1), &dir);
    drop(engine);
    assert!(matches!(
        EstimationEngine::durable(config(1), &dir),
        Err(PersistError::AlreadyInitialized(_))
    ));
    let empty = fresh_dir("guards_empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(EstimationEngine::recover(&empty).is_err());
    assert!(
        EstimationEngine::new(config(1)).checkpoint().is_err(),
        "checkpoint on a non-durable engine is NotDurable"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

// --- crash-injection matrix ------------------------------------------------

/// Builds a durable engine whose 1 KiB segments have rotated on every
/// shard, with explicit publish barriers interleaved between ingests on
/// all shards, then kills it without a checkpoint — the richest replay
/// surface: multi-segment chains, barriers, a remove and an upsert.
fn engine_with_segmented_tail(seed: u64) -> PathBuf {
    let dir = fresh_dir("matrix");
    let engine = durable_for_test(config(seed), &dir);
    for i in 0..26u32 {
        engine.insert(members(i % 9, 12));
    }
    engine.publish();
    engine.upsert(50, members(1, 12));
    for i in 0..14u32 {
        engine.insert(members(i % 7, 12));
    }
    engine.remove(1);
    engine.publish();
    for i in 0..6u32 {
        engine.insert(members(i % 5, 12));
    }
    let stats = engine.stats();
    assert!(
        stats.wal_rotations >= 3,
        "the matrix needs rotated chains, got {} rotations",
        stats.wal_rotations
    );
    drop(engine);
    dir
}

#[test]
fn torn_tail_at_every_byte_of_each_shards_last_segment_recovers_a_prefix() {
    let seed = 42;
    let dir = engine_with_segmented_tail(seed);
    let all = read_all_entries(&dir, 3);
    assert!(all.iter().any(|e| e.record == wal::WalRecord::Publish));

    for shard in 0..3usize {
        let files = wal::segment_files(&dir, shard);
        let last = files.last().expect("every shard has a chain").clone();
        let bytes = std::fs::read(&last).unwrap();
        let last_entries = wal::read_segment(&last).unwrap().entries;
        let work = fresh_dir(&format!("matrix_work_{shard}"));
        for cut in 0..=bytes.len() {
            clone_dir(&dir, &work);
            std::fs::write(work.join(last.file_name().unwrap()), &bytes[..cut]).unwrap();
            let recovered =
                EstimationEngine::recover_with(&work, test_options()).unwrap_or_else(|e| {
                    panic!("shard {shard} cut {cut}: a torn last segment must recover: {e}")
                });
            // Exactly the records of this segment whose frames end past
            // the cut are gone; everything else survives in seq order.
            let dropped: HashSet<u64> = last_entries
                .iter()
                .filter(|e| e.end_offset as usize > cut)
                .map(|e| e.seq)
                .collect();
            let reference = EstimationEngine::new(config(seed));
            for entry in all.iter().filter(|e| !dropped.contains(&e.seq)) {
                apply_record(&reference, &entry.record);
            }
            reference.publish();
            recovered.publish();
            assert_engines_equivalent(&reference, &recovered, &format!("shard {shard} cut {cut}"));
        }
        std::fs::remove_dir_all(&work).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damage_inside_a_sealed_segment_fails_loudly() {
    let dir = engine_with_segmented_tail(42);
    for shard in 0..3usize {
        let files = wal::segment_files(&dir, shard);
        assert!(files.len() >= 2, "shard {shard} must have sealed segments");
        let work = fresh_dir(&format!("matrix_sealed_{shard}"));
        clone_dir(&dir, &work);
        // Flip one byte inside the first sealed segment's record area.
        let sealed = work.join(files[0].file_name().unwrap());
        let mut bytes = std::fs::read(&sealed).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xFF;
        std::fs::write(&sealed, &bytes).unwrap();
        assert!(
            EstimationEngine::recover_with(&work, test_options()).is_err(),
            "shard {shard}: damage in a sealed (fsync'd at rotation) segment must fail loudly"
        );
        std::fs::remove_dir_all(&work).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_middle_segment_fails_loudly() {
    let dir = engine_with_segmented_tail(42);
    let files = wal::segment_files(&dir, 0);
    assert!(files.len() >= 3, "shard 0 must have a 3+ segment chain");
    let work = fresh_dir("matrix_gap");
    clone_dir(&dir, &work);
    std::fs::remove_file(work.join(files[1].file_name().unwrap())).unwrap();
    let err = EstimationEngine::recover_with(&work, test_options()).unwrap_err();
    assert!(
        err.to_string().contains("missing"),
        "a vanished mid-chain segment is corruption, not a torn tail: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn corrupting_any_checkpoint_byte_fails_loudly_never_silently() {
    let dir = engine_with_segmented_tail(42);
    let checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    let work = fresh_dir("matrix_corrupt");
    clone_dir(&dir, &work);
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        for at in 0..checkpoint.len() {
            let mut broken = checkpoint.clone();
            broken[at] ^= 0x20;
            std::fs::write(work.join(CHECKPOINT_FILE), &broken).unwrap();
            assert!(
                EstimationEngine::recover_with(&work, tier_options(tier)).is_err(),
                "{tier:?}: checkpoint byte {at} flipped: recovery must fail, \
                 not resurrect a wrong index"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// Rewrites a checkpoint's sections through `edit` and re-frames them
/// with the container writer, so every checksum is valid: what is left
/// to catch is the structure itself.
fn reframe(checkpoint: &[u8], edit: impl FnOnce(&mut [([u8; 4], Vec<u8>)])) -> Vec<u8> {
    let index = io::ContainerIndex::parse(checkpoint).unwrap();
    let mut sections: Vec<([u8; 4], Vec<u8>)> = index
        .tags()
        .into_iter()
        .map(|tag| (tag, checkpoint[index.range(tag).unwrap()].to_vec()))
        .collect();
    edit(&mut sections);
    let mut writer = io::ContainerWriter::new();
    for (tag, payload) in sections {
        writer.section(tag, payload);
    }
    writer.finish()
}

/// The payload of section `tag`.
fn section<'a>(sections: &'a mut [([u8; 4], Vec<u8>)], tag: &[u8; 4]) -> &'a mut Vec<u8> {
    &mut sections.iter_mut().find(|(t, _)| t == tag).unwrap().1
}

/// Little-endian word `i` of a `u64` array section.
fn word(payload: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().unwrap())
}

fn set_word(payload: &mut [u8], i: usize, value: u64) {
    payload[i * 8..i * 8 + 8].copy_from_slice(&value.to_le_bytes());
}

/// Both tiers and the generation restore accept exactly the same
/// checkpoint files. Every case re-frames a real checkpoint with one
/// structural defect and valid checksums; each must be refused with a
/// structured error by heap recovery, mapped recovery and
/// `recover_generation` alike — never served, never a panic — while the
/// identity re-frame recovers on both tiers with the original answers.
#[test]
fn structurally_damaged_checkpoints_are_refused_by_every_reader() {
    let dir = fresh_dir("structure");
    let engine = durable_for_test(config(71), &dir);
    // Every vector twice, so buckets hold several members.
    for i in 0..24u32 {
        engine.insert(members(i % 12, 3 + i % 12 % 4));
    }
    engine.checkpoint().unwrap();
    let answer = engine.estimate(0.3);
    drop(engine);
    let checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    assert_eq!(
        reframe(&checkpoint, |_| {}),
        checkpoint,
        "re-framing is exact"
    );
    type Edit = fn(&mut [([u8; 4], Vec<u8>)]);
    let cases: [(&str, Edit); 16] = [
        ("GIDS out of order", |s| {
            let gids = section(s, b"GIDS");
            let (a, b) = (word(gids, 0), word(gids, 1));
            set_word(gids, 0, b);
            set_word(gids, 1, a);
        }),
        ("GIDS past the id allocator", |s| {
            let gids = section(s, b"GIDS");
            let last = gids.len() / 8 - 1;
            set_word(gids, last, u64::MAX);
        }),
        ("BKTK keys all zero", |s| section(s, b"BKTK").fill(0)),
        ("BOFF not spanning the rows", |s| {
            let boff = section(s, b"BOFF");
            let last = boff.len() / 8 - 1;
            let n = word(boff, last);
            set_word(boff, last, n + 1);
        }),
        ("BOFF not increasing", |s| {
            let boff = section(s, b"BOFF");
            set_word(boff, 1, 0);
        }),
        ("BMEM member out of range", |s| {
            let n = section(s, b"GIDS").len() / 8;
            section(s, b"BMEM")[..4].copy_from_slice(&(n as u32).to_le_bytes());
        }),
        ("BMEM reversed", |s| {
            let bmem = section(s, b"BMEM");
            let members: Vec<u8> = bmem.chunks_exact(4).rev().flatten().copied().collect();
            *bmem = members;
        }),
        ("BMEM member under another key", |s| {
            let keys = section(s, b"KEYS");
            let key = word(keys, 0);
            set_word(keys, 0, key ^ 1);
        }),
        ("VOFF not spanning the payload", |s| {
            section(s, b"VPAY").extend_from_slice(&[0; 4]);
        }),
        ("VOFF not monotone", |s| {
            let voff = section(s, b"VOFF");
            let second = word(voff, 2);
            set_word(voff, 1, second + 1);
        }),
        ("nnz prefix disagrees with the block", |s| {
            let vpay = section(s, b"VPAY");
            let nnz = u32::from_le_bytes(vpay[..4].try_into().unwrap());
            vpay[..4].copy_from_slice(&(nnz - 1).to_le_bytes());
        }),
        ("row sections disagree on the row count", |s| {
            let gids = section(s, b"GIDS");
            gids.truncate(gids.len() - 8);
        }),
        ("two indices of one row swapped", |s| {
            let vpay = section(s, b"VPAY");
            let (a, b) = (vpay[4..8].to_vec(), vpay[8..12].to_vec());
            vpay[4..8].copy_from_slice(&b);
            vpay[8..12].copy_from_slice(&a);
        }),
        ("a NaN value", |s| {
            let vpay = section(s, b"VPAY");
            let nnz = u32::from_le_bytes(vpay[..4].try_into().unwrap()) as usize;
            let at = 4 + nnz * 4;
            vpay[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        }),
        ("an infinite value", |s| {
            let vpay = section(s, b"VPAY");
            let nnz = u32::from_le_bytes(vpay[..4].try_into().unwrap()) as usize;
            let at = 4 + 4 * nnz + 4;
            vpay[at..at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        }),
        ("a stored zero value", |s| {
            let vpay = section(s, b"VPAY");
            let nnz = u32::from_le_bytes(vpay[..4].try_into().unwrap()) as usize;
            let at = 4 + nnz * 4;
            vpay[at..at + 4].copy_from_slice(&0.0f32.to_le_bytes());
        }),
    ];
    let work = fresh_dir("structure_work");
    let install = |bytes: &[u8]| {
        clone_dir(&dir, &work);
        std::fs::write(work.join(CHECKPOINT_FILE), bytes).unwrap();
        std::fs::write(persist::generation_path(&work, 1), bytes).unwrap();
    };
    for (case, edit) in cases {
        install(&reframe(&checkpoint, edit));
        for tier in [StorageTier::Heap, StorageTier::Mapped] {
            match EstimationEngine::recover_with(&work, tier_options(tier)) {
                Err(_) => {}
                Ok(_) => panic!("{case}: the {tier:?} tier recovered a damaged checkpoint"),
            }
        }
        assert!(
            EstimationEngine::recover_generation(&work, 1).is_err(),
            "{case}: recover_generation restored a damaged checkpoint"
        );
    }
    // The identity re-frame is the file itself: every reader serves it.
    install(&checkpoint);
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        let recovered = EstimationEngine::recover_with(&work, tier_options(tier)).unwrap();
        assert_eq!(
            recovered.estimate(0.3),
            answer,
            "{tier:?}: identity re-frame"
        );
    }
    assert_eq!(
        EstimationEngine::recover_generation(&work, 1)
            .unwrap()
            .estimate(0.3),
        answer
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

/// SimHash state hashed with Box–Muller hyperplane coordinates — META
/// family tag 0, WAL fingerprint term 1 — holds bucket keys of other
/// hyperplanes than this build's. Every reader refuses it: a checkpoint
/// by its tag, with an error naming the coordinate change, and a WAL
/// tail by its fingerprint. The current bytes of the same directory
/// recover.
#[test]
fn simhash_state_hashed_with_box_muller_coordinates_is_refused() {
    let simhash = ServiceConfig::builder()
        .shards(3)
        .k(8)
        .seed(2011)
        .family(IndexFamily::SimHash)
        .build();
    let dir = fresh_dir("box_muller");
    let engine = durable_for_test(simhash, &dir);
    for i in 0..20u32 {
        engine.insert(members(i % 7, 3 + i % 5));
    }
    engine.checkpoint().unwrap();
    for i in 0..6u32 {
        engine.insert(members(i, 4));
    }
    let answer = engine.estimate(0.3);
    drop(engine);
    let checkpoint = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    // META: six counters, seed, k, shards, then the family byte.
    const FAMILY_BYTE: usize = 9 * 8;
    let mut meta = checkpoint[io::ContainerIndex::parse(&checkpoint)
        .unwrap()
        .range(*b"META")
        .unwrap()]
    .to_vec();
    assert_eq!(meta[FAMILY_BYTE], 2, "SimHash's META tag");

    let work = fresh_dir("box_muller_work");
    let install = |bytes: &[u8]| {
        clone_dir(&dir, &work);
        std::fs::write(work.join(CHECKPOINT_FILE), bytes).unwrap();
        std::fs::write(persist::generation_path(&work, 1), bytes).unwrap();
    };
    let retired = |result: Result<EstimationEngine, PersistError>, what: &str| match result {
        Err(PersistError::RetiredHashFunctions(msg)) => {
            assert!(
                msg.contains("Box–Muller") && msg.contains("Φ⁻¹"),
                "{what}: {msg}"
            )
        }
        Err(other) => panic!("{what}: expected RetiredHashFunctions, got {other:?}"),
        Ok(_) => panic!("{what}: recovered Box–Muller SimHash state"),
    };
    meta[FAMILY_BYTE] = 0;
    install(&reframe(&checkpoint, |s| *section(s, b"META") = meta));
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        retired(
            EstimationEngine::recover_with(&work, tier_options(tier)),
            &format!("{tier:?} recovery"),
        );
    }
    retired(
        EstimationEngine::recover_generation(&work, 1),
        "recover_generation",
    );

    // Today's checkpoint over a log stamped with the retired term.
    let box_muller_fingerprint = [simhash.seed, simhash.k as u64, simhash.shards as u64, 1]
        .into_iter()
        .fold(0x5EED_CAFE, |acc, term| {
            vsj::sampling::SplitMix64::mix(acc ^ term)
        });
    assert_ne!(
        box_muller_fingerprint,
        persist::config_fingerprint(&simhash)
    );
    install(&checkpoint);
    let mut segments = 0;
    for entry in std::fs::read_dir(&work).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "vsjw") {
            let mut bytes = std::fs::read(&path).unwrap();
            // Segment header: magic, version, then the fingerprint.
            assert_eq!(
                word(&bytes[8..16], 0),
                persist::config_fingerprint(&simhash)
            );
            set_word(&mut bytes[8..16], 0, box_muller_fingerprint);
            std::fs::write(&path, bytes).unwrap();
            segments += 1;
        }
    }
    assert!(segments >= 3, "one chain per shard");
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        assert!(
            matches!(
                EstimationEngine::recover_with(&work, tier_options(tier)),
                Err(PersistError::ConfigMismatch(_))
            ),
            "{tier:?}: a Box–Muller log replayed under today's checkpoint"
        );
    }

    // The untouched directory recovers with its answer.
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        install(&checkpoint);
        let recovered = EstimationEngine::recover_with(&work, tier_options(tier)).unwrap();
        assert_eq!(recovered.estimate(0.3), answer, "{tier:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn wal_from_a_different_config_is_rejected() {
    let dir = engine_with_segmented_tail(42);
    let other = engine_with_segmented_tail(43);
    // Pair checkpoint(seed 42) with chains(seed 43): fingerprints differ.
    let work = fresh_dir("matrix_fp_work");
    clone_dir(&other, &work);
    std::fs::copy(dir.join(CHECKPOINT_FILE), work.join(CHECKPOINT_FILE)).unwrap();
    assert!(matches!(
        EstimationEngine::recover_with(&work, test_options()),
        Err(PersistError::ConfigMismatch(_))
    ));
    for d in [dir, other, work] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn interleaved_shard_replay_reproduces_parallel_writer_history() {
    // Writers hammer all shards concurrently with explicit publish
    // barriers mixed in; the merged global-sequence history must replay
    // to the exact pre-crash engine even though the interleaving was
    // scheduler-chosen.
    let dir = fresh_dir("interleave");
    let engine = durable_for_test(config(11), &dir);
    std::thread::scope(|scope| {
        let engine = &engine;
        for w in 0..3u64 {
            scope.spawn(move || {
                for i in 0..120u64 {
                    let id = w * 10_000 + i;
                    engine.upsert(id, members((id % 30) as u32, 6));
                    if i % 40 == 39 {
                        engine.publish();
                    }
                }
                for i in (0..120u64).step_by(6) {
                    assert!(engine.remove(w * 10_000 + i));
                }
            });
        }
    });
    engine.publish();
    let before = engine.estimate(0.7);
    let pre_stats = engine.stats();
    drop(engine);

    let recovered = EstimationEngine::recover_with(&dir, test_options()).unwrap();
    assert_eq!(recovered.stats().ingests, pre_stats.ingests);
    assert_eq!(recovered.stats().publishes, pre_stats.publishes);
    assert_eq!(recovered.current_epoch(), pre_stats.epoch);
    assert_eq!(
        recovered.estimate(0.7),
        before,
        "merge-replay must reproduce the scheduler's serialization bit for bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- restart-equivalence property test -------------------------------------

mod restart_equivalence {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Remove(u64),
        Upsert(u64, u32, u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..25, 2u32..7).prop_map(|(s, l)| Op::Insert(s, l)),
            (0u64..50).prop_map(Op::Remove),
            (0u64..50, 0u32..25, 2u32..7).prop_map(|(id, s, l)| Op::Upsert(id, s, l)),
        ]
    }

    /// What one op returned: the insert's id, or the remove's or
    /// upsert's bool.
    fn apply(engine: &EstimationEngine, op: &Op) -> (Option<GlobalId>, bool) {
        match *op {
            Op::Insert(s, l) => (Some(engine.insert(members(s, l))), false),
            Op::Remove(id) => (None, engine.remove(id)),
            Op::Upsert(id, s, l) => (None, engine.upsert(id, members(s, l))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The acceptance property: for a random ingest sequence with a
        /// checkpoint somewhere in the middle, killing the engine after
        /// the remaining ops (leaving them as a WAL tail) and
        /// recovering yields estimates — LSH-SS, JU, LSH-S — that are
        /// bit-identical to an uninterrupted engine at the same epoch
        /// and seed. Every op returns the same on both engines.
        ///
        /// `auto_publish` 0 runs without auto-publish; 1..=8 publishes
        /// every that many ingests — inline on the uninterrupted engine,
        /// as a logged barrier on the durable one, and replayed from
        /// that barrier on recovery.
        #[test]
        fn recovered_engine_is_bit_identical_to_uninterrupted(
            ops in proptest::collection::vec(op_strategy(), 1..40),
            checkpoint_at in 0usize..40,
            seed in 0u64..1000,
            auto_publish in 0u64..9,
        ) {
            let split = checkpoint_at.min(ops.len());
            let dir = fresh_dir("prop");
            let config = ServiceConfig {
                auto_publish_every: (auto_publish > 0).then_some(auto_publish),
                ..config(seed)
            };

            // Uninterrupted reference: publishes where the durable
            // engine checkpoints (a checkpoint *is* a durable publish).
            let uninterrupted = EstimationEngine::new(config);
            // Durable run, killed after the last op.
            let durable = durable_for_test(config, &dir);

            for op in &ops[..split] {
                prop_assert_eq!(apply(&uninterrupted, op), apply(&durable, op));
            }
            let epoch_a = uninterrupted.publish();
            let epoch_b = durable.checkpoint().unwrap();
            prop_assert_eq!(epoch_a, epoch_b);
            for op in &ops[split..] {
                prop_assert_eq!(apply(&uninterrupted, op), apply(&durable, op));
            }
            prop_assert_eq!(durable.current_epoch(), uninterrupted.current_epoch());
            drop(durable); // kill: the tail lives only in the WAL

            let recovered = EstimationEngine::recover_with(&dir, test_options()).unwrap();
            // Same epoch before and after the final publish.
            prop_assert_eq!(recovered.current_epoch(), uninterrupted.current_epoch());
            assert_engines_equivalent(&uninterrupted, &recovered, "pre-publish");
            let final_a = uninterrupted.publish();
            let final_b = recovered.publish();
            prop_assert_eq!(final_a, final_b);
            assert_engines_equivalent(&uninterrupted, &recovered, "post-publish");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// What an engine serves at its current epoch, as bits: the epoch, the
/// live ids, `N_H`, and the value and standard error of a τ curve.
fn served_bits(engine: &EstimationEngine) -> (u64, Vec<GlobalId>, u64, Vec<(u64, u64)>) {
    let snapshot = engine.snapshot();
    let curve = engine
        .estimate_batch(&[0.3, 0.6, 0.9])
        .iter()
        .map(|e| (e.estimate.value.to_bits(), e.std_err.to_bits()))
        .collect();
    (
        snapshot.epoch(),
        snapshot.global_ids().to_vec(),
        snapshot.nh(),
        curve,
    )
}

/// SimHash replay: a WAL tail of a 2 000-row batch insert, weighted
/// upserts and removes — with no checkpoint after them — recovers on
/// both tiers to an engine that serves the live engine's bits at the
/// same epoch. Recovery keys the tail's vectors as one batch, so this
/// holds the batched SimHash keys to the keys the live engine applied.
#[test]
fn simhash_tail_replays_bit_identically_on_both_tiers() {
    let dir = fresh_dir("simhash_tail");
    let config = ServiceConfig::builder()
        .shards(3)
        .k(16)
        .seed(2011)
        .family(IndexFamily::SimHash)
        .build();
    let engine = durable_for_test(config, &dir);
    let ids = engine.insert_batch(DblpLike::with_size(2_000).generate(5).into_vectors());
    engine.publish();
    for (i, &id) in ids.iter().step_by(97).enumerate() {
        let i = i as u32;
        let weighted = SparseVector::from_entries(vec![
            (i % 40, 1.5),
            (40 + i % 7, -0.25 - i as f32),
            (u32::MAX - 1 - i, 0.5),
        ])
        .unwrap();
        assert!(engine.upsert(id, weighted), "id {id} is live");
    }
    for &id in ids.iter().skip(13).step_by(101) {
        engine.remove(id);
    }
    engine.publish();
    let live = served_bits(&engine);
    drop(engine);
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        let recovered = EstimationEngine::recover_with(&dir, tier_options(tier)).unwrap();
        assert_eq!(served_bits(&recovered), live, "{tier:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The members of every pair bucket in alias-column order, read through
/// the draw primitive `pair_bucket_pick`.
fn pair_columns(view: &impl IndexView) -> Vec<Vec<u32>> {
    let columns = view.pair_alias().map_or(0, |alias| alias.len());
    (0..columns)
        .map(|col| {
            let mut count = 0;
            view.pair_bucket_pick(col, |b| {
                count = b;
                (0, 0)
            });
            (0..count)
                .map(|i| view.pair_bucket_pick(col, |_| (i, i)).0)
                .collect()
        })
        .collect()
}

/// Heap recovery copies its bucket slab out of the checkpoint's
/// `BKTK`/`BOFF`/`BMEM` instead of regrouping `KEYS`. A checkpoint
/// written from a mapped snapshot with tombstones and an overlay
/// recovers on the heap to the slab, pair columns, `N_H` and draws of a
/// batch grouping of the same keys — and to the mapped snapshot's own
/// slab.
#[test]
fn heap_recovery_of_a_mapped_checkpoint_serves_its_stored_slab() {
    let dir = fresh_dir("stored_slab");
    let engine = durable_for_test(config(31), &dir);
    for i in 0..60u32 {
        engine.insert(members(i % 25, 2 + i % 5));
    }
    engine.checkpoint().unwrap();
    drop(engine);

    let mapped = EstimationEngine::recover_with(&dir, tier_options(StorageTier::Mapped)).unwrap();
    assert!(mapped.remove(2), "tombstone inside bucket {{2, 27, 52}}");
    assert!(mapped.remove(9), "tombstone inside bucket {{9, 34, 59}}");
    assert!(
        mapped.upsert(5, members(7, 4)),
        "overlay row below base members"
    );
    mapped.insert(members(3, 5));
    mapped.insert(members(100, 3));
    mapped.insert(members(100, 3));
    mapped.publish();
    let written = mapped.snapshot();
    assert!(written.is_mapped());
    assert_eq!(mapped.stats().tombstones, 3);
    mapped.checkpoint().unwrap();
    drop(mapped);

    let heap = EstimationEngine::recover_with(&dir, tier_options(StorageTier::Heap)).unwrap();
    let snapshot = heap.snapshot();
    assert!(!snapshot.is_mapped());
    assert_eq!(snapshot.global_ids(), written.global_ids());
    assert_eq!(
        snapshot.slab(),
        written.slab(),
        "the mapped snapshot's slab"
    );
    let table = snapshot.table();
    let batch = LshTable::from_parts(table.hasher().clone(), table.to_parts());
    assert_eq!(snapshot.slab(), batch.slab(), "slab");
    let columns = pair_columns(&batch);
    assert!(columns.len() > 10, "plenty of pair buckets: {columns:?}");
    assert_eq!(pair_columns(snapshot.as_ref()), columns, "pair columns");
    assert_eq!(IndexView::nh(snapshot.as_ref()), batch.nh(), "N_H");
    let mut r1 = Xoshiro256::seeded(0x51AB);
    let mut r2 = Xoshiro256::seeded(0x51AB);
    for _ in 0..1000 {
        let same = snapshot.sample_same_bucket_pair(&mut r1);
        assert!(same.is_some(), "the corpus has an S_H");
        assert_eq!(same, batch.sample_same_bucket_pair(&mut r2), "S_H");
    }
    for _ in 0..1000 {
        let cross = snapshot.sample_cross_bucket_pair(&mut r1);
        assert!(cross.is_some(), "the corpus has an S_L");
        assert_eq!(cross, batch.sample_cross_bucket_pair(&mut r2), "S_L");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --- refuse, never mis-serve -------------------------------------------------

/// A durable directory with a checkpoint and a WAL tail, engine dropped.
fn checkpointed_dir(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let engine = durable_for_test(config(2011), &dir);
    for i in 0..12u32 {
        engine.insert(members(i % 5, 3 + i % 4));
    }
    engine.checkpoint().unwrap();
    engine.insert(members(2, 5));
    drop(engine);
    dir
}

fn tier_options(tier: StorageTier) -> DurabilityOptions {
    DurabilityOptions {
        storage_tier: tier,
        ..test_options()
    }
}

#[test]
fn single_file_wal_is_refused_by_name_never_replayed_or_unlinked() {
    // The header of a single-file log as an earlier writer laid it out
    // (magic, version 1, base sequence 12, config fingerprint).
    const SINGLE_FILE_HEADER: [u8; 24] =
        *b"VSJW\x01\0\0\0\x0c\0\0\0\0\0\0\0\xec\x83\x90\x8e\x13\x83\x4a\xcc";
    let dir = checkpointed_dir("single_file_wal");
    let stray = dir.join("wal.vsjw");
    std::fs::write(&stray, SINGLE_FILE_HEADER).unwrap();
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        match EstimationEngine::recover_with(&dir, tier_options(tier)) {
            Err(PersistError::Corrupt(msg)) => assert!(
                msg.contains("wal.vsjw"),
                "{tier:?}: the error must name the file: {msg}"
            ),
            other => panic!("{tier:?}: expected a structured refusal, got {other:?}"),
        }
    }
    assert!(stray.exists(), "a refusal leaves the directory untouched");
    // The file is the only obstacle: without it the directory recovers.
    std::fs::remove_file(&stray).unwrap();
    let recovered = EstimationEngine::recover_with(&dir, test_options()).unwrap();
    assert_eq!(recovered.stats().ingests, 13);
    drop(recovered);

    // A fresh initialisation refuses too — it must not create a
    // directory its own recovery would then turn down.
    let fresh = fresh_dir("single_file_wal_init");
    std::fs::create_dir_all(&fresh).unwrap();
    std::fs::write(fresh.join("wal.vsjw"), SINGLE_FILE_HEADER).unwrap();
    assert!(matches!(
        EstimationEngine::durable_with(config(1), &fresh, test_options()),
        Err(PersistError::Corrupt(msg)) if msg.contains("wal.vsjw")
    ));
    assert!(fresh.join("wal.vsjw").exists());
    assert!(!fresh.join(CHECKPOINT_FILE).exists());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn older_container_versions_are_refused_with_bad_version_on_every_reader() {
    // The first 32 bytes of a version-2 checkpoint as an earlier writer
    // laid it out: header (magic, version 2, 4 sections) + the inline
    // frame of its META section (tag, length 0x53, checksum).
    const V2_CHECKPOINT_HEAD: [u8; 32] =
        *b"VSJC\x02\0\0\0\x04\0\0\0META\x53\0\0\0\0\0\0\0\xa8\xba\xc0\x93\x08\xaf\xd1\x97";
    // A complete version-1 collection file: header + `n = 0`.
    const V1_EMPTY_COLLECTION: [u8; 16] = *b"VSJC\x01\0\0\0\0\0\0\0\0\0\0\0";
    let bad_version = |result: Result<(), PersistError>, v: u32, what: &str| match result {
        Err(PersistError::Container(IoError::BadVersion(got))) => assert_eq!(got, v, "{what}"),
        other => panic!("{what}: expected BadVersion({v}), got {other:?}"),
    };

    let dir = checkpointed_dir("old_container");
    let checkpoint = dir.join(CHECKPOINT_FILE);
    std::fs::write(&checkpoint, V2_CHECKPOINT_HEAD).unwrap();
    for tier in [StorageTier::Heap, StorageTier::Mapped] {
        bad_version(
            EstimationEngine::recover_with(&dir, tier_options(tier)).map(drop),
            2,
            &format!("{tier:?} recovery"),
        );
    }
    bad_version(
        persist::peek_checkpoint_meta(&checkpoint).map(drop),
        2,
        "peek_checkpoint_meta",
    );
    std::fs::write(&checkpoint, V1_EMPTY_COLLECTION).unwrap();
    bad_version(
        persist::peek_checkpoint_meta(&checkpoint).map(drop),
        1,
        "peek_checkpoint_meta",
    );

    // Collection files share the layout and the refusal.
    for (bytes, v) in [(&V1_EMPTY_COLLECTION[..], 1), (&V2_CHECKPOINT_HEAD[..], 2)] {
        assert!(matches!(
            io::decode(bytes),
            Err(IoError::BadVersion(got)) if got == v
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --- explicit publish replay (sequence barriers) ---------------------------

#[test]
fn explicit_publishes_are_replayed_at_their_exact_positions() {
    let dir = fresh_dir("explicit_publish");
    let engine = durable_for_test(config(21), &dir);
    let reference = EstimationEngine::new(config(21));

    // A history where epochs are cut manually, at irregular points —
    // including two back-to-back publishes (an empty epoch) and a
    // publish between a remove and an upsert.
    let script = |e: &EstimationEngine| {
        for i in 0..25u32 {
            e.insert(members(i % 10, 4));
        }
        e.publish();
        for i in 0..10u32 {
            e.insert(members(i % 6, 5));
        }
        e.publish();
        e.publish(); // empty epoch
        e.remove(3);
        e.publish();
        e.upsert(100, members(1, 7));
        e.publish();
    };
    script(&engine);
    script(&reference);
    assert_engines_equivalent(&reference, &engine, "pre-crash");
    let pre_epoch = engine.current_epoch();
    assert_eq!(pre_epoch, 5);
    drop(engine); // crash with everything in the WAL (no checkpoint)

    let recovered = EstimationEngine::recover_with(&dir, test_options()).unwrap();
    assert_eq!(
        recovered.current_epoch(),
        pre_epoch,
        "manual epochs must be reproduced by replay, not lost"
    );
    assert_engines_equivalent(&reference, &recovered, "post-recovery");

    // And the *next* epoch continues the same stream on both sides.
    reference.insert(members(2, 3));
    recovered.insert(members(2, 3));
    reference.publish();
    recovered.publish();
    assert_engines_equivalent(&reference, &recovered, "next epoch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explicit_publish_replays_across_a_checkpoint_boundary() {
    let dir = fresh_dir("publish_after_ckpt");
    let engine = durable_for_test(config(22), &dir);
    for i in 0..30u32 {
        engine.insert(members(i % 8, 4));
    }
    engine.checkpoint().unwrap(); // epoch 1, log covered
    for i in 0..12u32 {
        engine.insert(members(i % 5, 6));
    }
    let manual = engine.publish(); // epoch 2, lives only in the WAL
    assert_eq!(manual, 2);
    let before = engine.estimate(0.7);
    drop(engine);

    let recovered = EstimationEngine::recover_with(&dir, test_options()).unwrap();
    assert_eq!(recovered.current_epoch(), 2);
    assert_eq!(
        recovered.estimate(0.7),
        before,
        "estimate at the manual epoch must be bit-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- checkpoint retention + WAL horizon ------------------------------------

#[test]
fn checkpoint_retention_keeps_and_prunes_generations() {
    let dir = fresh_dir("retention");
    let options = DurabilityOptions {
        retain_checkpoints: 3,
        ..test_options()
    };
    let engine = EstimationEngine::durable_with(config(31), &dir, options).unwrap();

    // Four checkpoints with distinguishable corpora; retention 3 keeps
    // the current file plus two prior generations.
    let mut epochs = Vec::new();
    let mut answers = Vec::new();
    for round in 0..4u32 {
        for i in 0..10u32 {
            engine.insert(members(round * 10 + i % 7, 4));
        }
        epochs.push(engine.checkpoint().unwrap());
        answers.push(engine.estimate(0.6));
    }
    assert_eq!(persist::list_generations(&dir), vec![1, 2]);
    assert!(persist::generation_path(&dir, 0).exists());
    assert!(!persist::generation_path(&dir, 3).exists(), "pruned");

    // Generation g is the state at the (last − g)-th checkpoint, and a
    // point-in-time recovery answers exactly what the engine answered
    // then.
    for g in 1..=2u64 {
        let revived = EstimationEngine::recover_generation(&dir, g).unwrap();
        let idx = (3 - g) as usize;
        assert_eq!(revived.current_epoch(), epochs[idx]);
        assert!(!revived.is_durable(), "generation views are read-only");
        assert_eq!(
            revived.estimate(0.6),
            answers[idx],
            "generation {g} must answer as the engine did at its cut"
        );
    }

    // Lowering the knob prunes on the next checkpoint.
    drop(engine);
    let engine = EstimationEngine::recover_with(
        &dir,
        DurabilityOptions {
            retain_checkpoints: 1,
            ..test_options()
        },
    )
    .unwrap();
    engine.insert(members(50, 4));
    engine.checkpoint().unwrap();
    assert_eq!(persist::list_generations(&dir), Vec::<u64>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_horizon_retains_segments_for_every_kept_generation() {
    // The retention interaction under regression: checkpoint truncation
    // drops segments against the *oldest kept generation's* cut, not
    // the newest — so restoring any retained checkpoint generation over
    // the current one and recovering rolls forward through the
    // surviving chains (including every later checkpoint's epoch, which
    // replays from its barrier record) to the exact pre-crash state.
    let dir = fresh_dir("horizon");
    let options = DurabilityOptions {
        retain_checkpoints: 3,
        ..test_options()
    };
    let engine = EstimationEngine::durable_with(config(67), &dir, options).unwrap();
    for round in 0..4u32 {
        for i in 0..14u32 {
            engine.insert(members(round * 9 + i % 8, 12));
        }
        engine.checkpoint().unwrap();
    }
    // A tail past the last checkpoint.
    for i in 0..5u32 {
        engine.insert(members(i % 4, 6));
    }
    engine.publish();
    let before = engine.estimate(0.7);
    let pre_stats = engine.stats();
    assert!(
        pre_stats.wal_rotations >= 1,
        "the scenario must span segment boundaries"
    );
    drop(engine);

    // Sanity: the normal recovery reproduces the pre-crash engine.
    let normal = EstimationEngine::recover_with(&dir, options).unwrap();
    assert_eq!(normal.estimate(0.7), before);
    drop(normal);

    // Operator restore: copy the *oldest kept* generation over the
    // current checkpoint. Its cut is the retention horizon, so every
    // record past it must still be on disk.
    let restore_from = persist::generation_path(&dir, 2);
    assert!(restore_from.exists(), "retention must have kept gen 2");
    std::fs::copy(&restore_from, dir.join(CHECKPOINT_FILE)).unwrap();
    let restored = EstimationEngine::recover_with(&dir, options).unwrap();
    assert_eq!(
        restored.current_epoch(),
        pre_stats.epoch,
        "rolling gen 2 forward must re-fire every later checkpoint epoch"
    );
    assert_eq!(restored.stats().ingests, pre_stats.ingests);
    assert_eq!(
        restored.estimate(0.7),
        before,
        "a restored older generation must replay to the exact pre-crash answers"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// --- persistence bugfix sweep: truncation, stale tmp, rotation names --------

/// Truncating the checkpoint container at *any* byte boundary —
/// including down to a zero-length file — must surface from
/// `peek_checkpoint_meta` as a structured `PersistError`, never a
/// panic, and never a raw `UnexpectedEof`. A prefix that still holds
/// the full directory and META payload may legitimately succeed (META
/// is peeked with one seek, without touching later payloads), but then
/// it must answer the exact same meta as the intact file.
#[test]
fn peek_checkpoint_meta_survives_truncation_at_every_byte() {
    let dir = fresh_dir("peek_trunc");
    let engine = durable_for_test(config(41), &dir);
    for i in 0..8u32 {
        engine.insert(members(i, 3));
    }
    engine.checkpoint().unwrap();
    drop(engine);

    let scratch = fresh_dir("peek_scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let source = dir.join(CHECKPOINT_FILE);
    let full = std::fs::read(&source).unwrap();
    let expected = persist::peek_checkpoint_meta(&source).unwrap();
    let cut_path = scratch.join("truncated.vsjc");
    for cut in 0..full.len() {
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        match persist::peek_checkpoint_meta(&cut_path) {
            Ok(meta) => assert_eq!(
                meta, expected,
                "a readable {cut}-byte prefix must answer the intact meta"
            ),
            Err(PersistError::Io(e)) => panic!(
                "prefix {cut} leaked a raw io error ({e}) instead of a structured \
                 corruption error"
            ),
            Err(_) => {}
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// A leftover `checkpoint.vsjc.tmp` (a crash between writing the tmp
/// and the atomic rename) must be removed on the next startup — by
/// both the recovery path and the fresh-init path — so it can never be
/// confused for a real checkpoint or pin disk forever.
#[test]
fn stale_checkpoint_tmp_is_cleaned_on_startup() {
    // Recovery path.
    let dir = fresh_dir("tmp_recover");
    let engine = durable_for_test(config(43), &dir);
    engine.insert(members(0, 3));
    engine.checkpoint().unwrap();
    drop(engine);
    let tmp = dir.join("checkpoint.vsjc.tmp");
    std::fs::write(&tmp, b"half-written checkpoint garbage").unwrap();
    let engine = EstimationEngine::recover_with(&dir, test_options()).unwrap();
    assert!(!tmp.exists(), "recovery must clean the stale tmp");
    assert!(engine.contains(0), "cleanup must not disturb recovery");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();

    // Fresh-init path: a tmp file alone does not make the directory
    // "already initialized", and it is swept before first use.
    let dir = fresh_dir("tmp_init");
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.join("checkpoint.vsjc.tmp");
    std::fs::write(&tmp, b"half-written checkpoint garbage").unwrap();
    let engine = durable_for_test(config(43), &dir);
    assert!(!tmp.exists(), "fresh init must clean the stale tmp");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed or orphaned `checkpoint.vsjc.g*` names used to be skipped
/// silently by `list_generations`; now every one is counted (and
/// logged) while rotation keeps working off the contiguous prefix, so
/// an operator learns the directory holds files rotation will never
/// reclaim.
#[test]
fn malformed_generation_names_warn_loudly_and_are_skipped() {
    let dir = fresh_dir("gen_names");
    let options = DurabilityOptions {
        retain_checkpoints: 3,
        ..test_options()
    };
    let engine = EstimationEngine::durable_with(config(47), &dir, options).unwrap();
    for round in 0..4u32 {
        for i in 0..6u32 {
            engine.insert(members(round * 6 + i, 3));
        }
        engine.checkpoint().unwrap();
    }
    assert_eq!(persist::list_generations(&dir), vec![1, 2]);

    let before = persist::generation_name_warnings();
    // Three malformed suffixes (non-canonical, signed, unparsable) and
    // one well-formed orphan beyond the contiguous chain 1, 2.
    for name in [
        "checkpoint.vsjc.007",
        "checkpoint.vsjc.+3",
        "checkpoint.vsjc.banana",
        "checkpoint.vsjc.9",
    ] {
        std::fs::write(dir.join(name), b"not a checkpoint").unwrap();
    }
    assert_eq!(
        persist::list_generations(&dir),
        vec![1, 2],
        "rotation keeps working off the contiguous prefix"
    );
    assert_eq!(
        persist::generation_name_warnings() - before,
        4,
        "every malformed or orphaned name must be counted, none skipped silently"
    );
    std::fs::remove_dir_all(&dir).ok();
}
