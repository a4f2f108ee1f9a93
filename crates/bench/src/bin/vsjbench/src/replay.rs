//! In-process replays of wire requests, recorded as child spans.
//!
//! A replay calls the same public functions the server called for the
//! request, one layer at a time, and checks each layer's answer against
//! the wire's. Reads replay on the serving engine itself (same
//! snapshot, same `batch_rng(epoch)`); writes replay on a shadow durable
//! engine with the same configuration, kept in step with the served one.

use std::path::Path;
use std::sync::Arc;

use vsj_core::{IndexView, LshSs};
use vsj_lsh::{BucketHasher, Composite, MinHashFamily, SimHashFamily};
use vsj_pool::WorkPool;
use vsj_server::json::Json;
use vsj_server::Estimated;
use vsj_service::persist::config_fingerprint;
use vsj_service::wal::{WalOp, WalSet};
use vsj_service::{
    DurabilityOptions, EstimationEngine, FsyncPolicy, IndexFamily, ServiceConfig, Snapshot,
};
use vsj_vector::{Cosine, Jaccard, Similarity, SparseVector, VectorId, VectorStore};

use crate::script::Op;
use crate::trace::{SpanId, Tracer};

/// The hasher an engine with `config` derives (table 0 of its seed).
pub fn hasher_of(config: &ServiceConfig) -> Arc<dyn BucketHasher> {
    match config.family {
        IndexFamily::SimHash => Arc::new(Composite::derive(
            SimHashFamily::new(),
            config.seed,
            0,
            config.k,
        )),
        IndexFamily::MinHash => Arc::new(Composite::derive(
            MinHashFamily::new(),
            config.seed,
            0,
            config.k,
        )),
    }
}

/// The `m_H + m_L` pair draws of one pass at the snapshot's epoch,
/// without scoring — exactly the pairs the served pass scored, because
/// the stream is keyed by the epoch alone.
pub fn draw_pairs(engine: &EstimationEngine, snapshot: &Snapshot) -> Vec<(VectorId, VectorId)> {
    let config = engine.estimator_config(snapshot.len());
    let mut rng = engine.batch_rng(snapshot.epoch());
    let mut pairs = Vec::with_capacity((config.m_h + config.m_l) as usize);
    if IndexView::nh(snapshot) > 0 {
        for _ in 0..config.m_h {
            pairs.push(
                snapshot
                    .sample_same_bucket_pair(&mut rng)
                    .expect("nh > 0 guarantees a same-bucket pair"),
            );
        }
    }
    if IndexView::nl(snapshot) > 0 {
        for _ in 0..config.m_l {
            pairs.push(
                snapshot
                    .sample_cross_bucket_pair(&mut rng)
                    .expect("nl > 0 guarantees a cross-bucket pair"),
            );
        }
    }
    pairs
}

/// Scores `pairs` on `pool`, as the pooled pass does.
pub fn score_pairs(
    family: IndexFamily,
    snapshot: &Snapshot,
    pairs: &[(VectorId, VectorId)],
    pool: &WorkPool,
) -> Vec<f64> {
    fn score<S: Similarity + Sync>(
        measure: &S,
        snapshot: &Snapshot,
        pairs: &[(VectorId, VectorId)],
        pool: &WorkPool,
    ) -> Vec<f64> {
        pool.parallel_map_indexed(pairs, |_, &(u, v)| snapshot.sim(measure, u, v))
    }
    match family {
        IndexFamily::SimHash => score(&Cosine, snapshot, pairs, pool),
        IndexFamily::MinHash => score(&Jaccard, snapshot, pairs, pool),
    }
}

/// One LSH-SS pass over `snapshot` at `taus` with the engine's own
/// configuration and RNG stream: what `estimate_batch` computes on a
/// cache miss, minus the cache and the bookkeeping.
pub fn core_pass(
    engine: &EstimationEngine,
    snapshot: &Snapshot,
    taus: &[f64],
    pool: &WorkPool,
) -> Vec<f64> {
    let estimator = LshSs {
        config: engine.estimator_config(snapshot.len()),
    };
    let mut rng = engine.batch_rng(snapshot.epoch());
    let curve = match engine.config().family {
        IndexFamily::SimHash => estimator
            .estimate_curve_detailed_pooled(snapshot, snapshot, &Cosine, taus, &mut rng, pool),
        IndexFamily::MinHash => estimator
            .estimate_curve_detailed_pooled(snapshot, snapshot, &Jaccard, taus, &mut rng, pool),
    };
    curve
        .into_iter()
        .map(|point| point.estimate.value)
        .collect()
}

/// Replays one served estimate layer by layer under `root`. Returns the
/// duration (ms) of the service layer, or the first layer whose answer
/// differs from the wire's.
pub fn estimate(
    tracer: &mut Tracer,
    root: SpanId,
    engine: &EstimationEngine,
    pool: &WorkPool,
    tau: f64,
    served: &Estimated,
) -> Result<f64, String> {
    let (answer, service) = tracer.child("service.estimate", root, || {
        engine.clear_cache();
        engine.estimate_batch(&[tau])[0]
    });
    if answer.estimate.value.to_bits() != served.value.to_bits() || answer.epoch != served.epoch {
        return Err(format!(
            "service.estimate({tau}) = {} @{} but the wire said {} @{}",
            answer.estimate.value, answer.epoch, served.value, served.epoch
        ));
    }
    let snapshot = engine.snapshot();
    let (values, core) = tracer.child("core.pass", service, || {
        core_pass(engine, &snapshot, &[tau], pool)
    });
    if values[0].to_bits() != served.value.to_bits() {
        return Err(format!(
            "core.pass({tau}) = {} but the wire said {}",
            values[0], served.value
        ));
    }
    let (pairs, _) = tracer.child("lsh.draws", core, || draw_pairs(engine, &snapshot));
    let family = engine.config().family;
    let (sims, _) = tracer.child("vector.score", core, || {
        score_pairs(family, &snapshot, &pairs, pool)
    });
    std::hint::black_box(sims);
    Ok(tracer.ms(service))
}

/// The client's wire encoding of a vector (`Client::insert` builds the
/// same document): binary vectors as `members`, weighted ones as
/// `indices` + `weights`.
pub fn vector_json(vector: &SparseVector) -> Json {
    let dims =
        |v: &SparseVector| Json::Arr(v.indices().iter().map(|&m| Json::u64(m as u64)).collect());
    if vector.is_binary() {
        Json::obj([("members", dims(vector))])
    } else {
        Json::obj([
            ("indices", dims(vector)),
            (
                "weights",
                Json::Arr(
                    vector
                        .values()
                        .iter()
                        .map(|&w| Json::Num(w as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The server's decoding of that document.
pub fn parse_vector(body: &Json) -> Option<SparseVector> {
    let dims = |field: &str| -> Option<Vec<u32>> {
        body.get(field)?
            .as_arr()?
            .iter()
            .map(|m| m.as_u64().and_then(|v| u32::try_from(v).ok()))
            .collect()
    };
    if let Some(members) = dims("members") {
        return Some(SparseVector::binary_from_members(members));
    }
    let weights: Vec<f32> = body
        .get("weights")?
        .as_arr()?
        .iter()
        .map(|w| w.as_f64().map(|v| v as f32))
        .collect::<Option<_>>()?;
    let indices = dims("indices")?;
    if indices.len() != weights.len() {
        return None;
    }
    SparseVector::from_entries(indices.into_iter().zip(weights).collect()).ok()
}

/// A durable engine with the served engine's configuration that takes
/// every write the served one takes, plus a bare WAL for the append
/// span.
pub struct Shadow {
    engine: EstimationEngine,
    wal: WalSet,
    hasher: Arc<dyn BucketHasher>,
    shards: usize,
    /// Rows appended to `wal` and the directory it lives in, for the
    /// bytes-per-row reading.
    pub wal_rows: u64,
    wal_dir: std::path::PathBuf,
}

impl Shadow {
    /// A shadow under `dir`, loaded with `base` like the served engine's
    /// set-up (inserted, then checkpointed).
    pub fn create(
        config: ServiceConfig,
        dir: &Path,
        base: Vec<SparseVector>,
    ) -> Result<Self, String> {
        let engine_dir = dir.join("shadow");
        let wal_dir = dir.join("shadow-wal");
        std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
        let options = DurabilityOptions::default();
        let engine = EstimationEngine::durable_with(config, &engine_dir, options)
            .map_err(|e| e.to_string())?;
        engine.insert_batch(base);
        engine.checkpoint().map_err(|e| e.to_string())?;
        let wal = WalSet::create(
            &wal_dir,
            config.shards,
            0,
            config_fingerprint(&config),
            FsyncPolicy::Never,
            options.segment_bytes,
        )
        .map_err(|e| e.to_string())?;
        Ok(Self {
            engine,
            wal,
            hasher: hasher_of(&config),
            shards: config.shards,
            wal_rows: 0,
            wal_dir,
        })
    }

    /// Applies a write without recording spans (a round that is not
    /// traced still has to reach the shadow).
    pub fn apply(&self, op: &Op, vector: Option<SparseVector>) -> Result<(), String> {
        match *op {
            Op::Insert(_) => {
                self.engine.insert(vector.expect("insert carries a vector"));
            }
            Op::Upsert(id, _) => {
                self.engine
                    .upsert(id, vector.expect("upsert carries a vector"));
            }
            Op::Remove(id) => {
                self.engine.remove(id);
            }
            Op::Publish => {
                self.engine.publish();
            }
            Op::Checkpoint => {
                self.engine.checkpoint().map_err(|e| e.to_string())?;
            }
            Op::Compact | Op::Estimate(_) | Op::Start | Op::Stop => {}
        }
        Ok(())
    }

    /// Replays a write under `root`, one span per layer. `expect_id` is
    /// the id the served engine assigned to an insert. Returns the
    /// duration (ms) of `service.insert` for an insert.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        op: &Op,
        vector: Option<SparseVector>,
        expect_id: u64,
    ) -> Result<Option<f64>, String> {
        let mut insert_ms = None;
        match *op {
            Op::Insert(_) => {
                let vector = vector.expect("insert carries a vector");
                let (decoded, _) = tracer.child("server.json", root, || {
                    let text = vector_json(&vector).encode();
                    Json::parse(&text).ok().as_ref().and_then(parse_vector)
                });
                let decoded = decoded.ok_or("the wire encoding of a row did not decode")?;
                if decoded != vector {
                    return Err("a row changed on its way through JSON".into());
                }
                let engine = &self.engine;
                let (id, service) = tracer.child("service.insert", root, || engine.insert(decoded));
                if id != expect_id {
                    return Err(format!(
                        "shadow assigned id {id}, served engine {expect_id}"
                    ));
                }
                let hasher = &self.hasher;
                let (key, _) = tracer.child("lsh.hash", service, || hasher.key(&vector));
                std::hint::black_box(key);
                let (wal, shard) = (&self.wal, id as usize % self.shards);
                let (appended, _) = tracer.child("service.wal_append", service, || {
                    let ticket = wal.append(shard, WalOp::Insert(id, &vector))?;
                    wal.commit(&ticket)
                });
                appended.map_err(|e| e.to_string())?;
                self.wal_rows += 1;
                insert_ms = Some(tracer.ms(service));
            }
            Op::Upsert(id, _) => {
                let vector = vector.expect("upsert carries a vector");
                let engine = &self.engine;
                tracer.child("service.upsert", root, || engine.upsert(id, vector));
            }
            Op::Remove(id) => {
                let engine = &self.engine;
                tracer.child("service.remove", root, || engine.remove(id));
            }
            Op::Publish => {
                let engine = &self.engine;
                let full_before = engine.stats().full_publishes;
                let (_, span) = tracer.child("service.publish_delta", root, || engine.publish());
                // Which path a cut takes is only known once it ran.
                if engine.stats().full_publishes > full_before {
                    tracer.rename(span, "service.publish_full");
                }
            }
            Op::Checkpoint => {
                let engine = &self.engine;
                let (result, _) = tracer.child("service.checkpoint", root, || engine.checkpoint());
                result.map_err(|e| e.to_string())?;
            }
            Op::Compact | Op::Estimate(_) | Op::Start | Op::Stop => {}
        }
        Ok(insert_ms)
    }

    /// Bytes the bare WAL holds per appended row.
    pub fn wal_bytes_per_row(&self) -> f64 {
        if self.wal_rows == 0 {
            return 0.0;
        }
        self.wal.sync_all().ok();
        dir_bytes(&self.wal_dir) as f64 / self.wal_rows as f64
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_survive_the_wire_encoding() {
        let binary = SparseVector::binary_from_members(vec![9, 2, 40]);
        let weighted =
            SparseVector::from_entries(vec![(3, 0.125), (70, 2.5e-3), (71, 1.0)]).unwrap();
        for v in [binary, weighted] {
            let text = vector_json(&v).encode();
            let back = parse_vector(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, v);
        }
        assert!(parse_vector(&Json::obj([("indices", Json::Arr(vec![]))])).is_none());
    }
}
