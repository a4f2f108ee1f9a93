//! Per-layer readings that are not spans: each times one public
//! function of one crate on the workload's own data (its final snapshot,
//! its corpus rows), after the measured phase of a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vsj_core::IndexView;
use vsj_datasets::io as container;
use vsj_lsh::{BucketHasher, Composite, LshTable, MinHashFamily, SimHashFamily};
use vsj_pool::WorkPool;
use vsj_sampling::alias::AliasTable;
use vsj_sampling::{Rng, Xoshiro256};
use vsj_server::json::Json;
use vsj_server::Client;
use vsj_service::{DurabilityOptions, EstimationEngine, FsyncPolicy, ServiceConfig, Snapshot};
use vsj_vector::{Cosine, Jaccard, SparseVector, VectorCollection, VectorId, VectorStore};

use crate::replay::{self, hasher_of, parse_vector, vector_json};
use crate::script::ScriptRng;
use crate::stats::median;

pub type Readings = BTreeMap<&'static str, f64>;

/// Mean nanoseconds per iteration of `work` over `iterations`.
fn ns_per(iterations: usize, mut work: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..iterations {
        work(i);
    }
    started.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

fn ms_of<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = work();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Median microseconds of one call of `work`, over `calls` calls.
fn median_us(calls: usize, mut work: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let started = Instant::now();
            work(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// vector, sampling, lsh, core, datasets: pure functions of the
/// snapshot and the sample rows.
pub fn library(
    engine: &EstimationEngine,
    snapshot: &Snapshot,
    rows: &[SparseVector],
    pool: &WorkPool,
    out: &mut Readings,
) {
    // vector: both kernels on the pairs the workload's own pass draws.
    let mut pairs = replay::draw_pairs(engine, snapshot);
    pairs.truncate(20_000);
    if !pairs.is_empty() {
        let mut acc = 0.0;
        out.insert(
            "vector.cosine_ns",
            ns_per(pairs.len(), |i| {
                acc += snapshot.sim(&Cosine, pairs[i].0, pairs[i].1)
            }),
        );
        out.insert(
            "vector.jaccard_ns",
            ns_per(pairs.len(), |i| {
                acc += snapshot.sim(&Jaccard, pairs[i].0, pairs[i].1)
            }),
        );
        std::hint::black_box(acc);
        let nnz: usize = pairs
            .iter()
            .map(|&(u, v)| snapshot.vector(u).nnz() + snapshot.vector(v).nnz())
            .sum();
        out.insert("vector.nnz_mean", nnz as f64 / (2 * pairs.len()) as f64);
    }

    // sampling.
    let mut rng = Xoshiro256::seeded(1);
    let mut acc = 0u64;
    out.insert(
        "sampling.rng_u64_ns",
        ns_per(2_000_000, |_| acc = acc.wrapping_add(rng.next_u64())),
    );
    let mut weights_rng = ScriptRng::new(2);
    let weights: Vec<f64> = (0..4096)
        .map(|_| 1.0 + weights_rng.below(1_000) as f64)
        .collect();
    let alias = AliasTable::new(&weights).expect("positive finite weights");
    let mut picked = 0usize;
    out.insert(
        "sampling.alias_draw_ns",
        ns_per(1_000_000, |_| {
            picked = picked.wrapping_add(alias.sample(&mut rng))
        }),
    );
    std::hint::black_box((acc, picked));

    // lsh: row hashing under both families at the two configurations the
    // workloads use, table construction, and the two stratum samplers.
    let simhash = Composite::derive(SimHashFamily::new(), crate::run::ENGINE_SEED, 0, 16);
    let minhash = Composite::derive(MinHashFamily::new(), crate::run::ENGINE_SEED, 0, 4);
    let mut key = 0u64;
    if !rows.is_empty() {
        out.insert(
            "lsh.simhash_row_us",
            ns_per(rows.len(), |i| key ^= simhash.key(&rows[i])) / 1e3,
        );
        out.insert(
            "lsh.minhash_row_us",
            ns_per(rows.len(), |i| key ^= minhash.key(&rows[i])) / 1e3,
        );
    }
    std::hint::black_box(key);
    let hasher = hasher_of(engine.config());
    let keyed = snapshot.len().min(5_400);
    let keys: Vec<u64> = (0..keyed as VectorId)
        .map(|id| hasher.key(snapshot.vector(id)))
        .collect();
    if keyed > 400 {
        let (head, tail) = keys.split_at(keyed - 400);
        let (table, build_ms) = ms_of(|| LshTable::from_parts(hasher.clone(), head.to_vec()));
        out.insert("lsh.table_build_ms", build_ms);
        let (extended, extend_ms) = ms_of(|| LshTable::from_parts_delta(&table, tail));
        out.insert("lsh.delta_extend_ms", extend_ms);
        std::hint::black_box(extended.nh());
    }
    let mut rng = Xoshiro256::seeded(3);
    if IndexView::nh(snapshot) > 0 {
        out.insert(
            "lsh.same_bucket_draw_ns",
            ns_per(100_000, |_| {
                std::hint::black_box(snapshot.sample_same_bucket_pair(&mut rng));
            }),
        );
    }
    if IndexView::nl(snapshot) > 0 {
        out.insert(
            "lsh.cross_bucket_draw_ns",
            ns_per(100_000, |_| {
                std::hint::black_box(snapshot.sample_cross_bucket_pair(&mut rng));
            }),
        );
    }
    out.insert("lsh.nh_pairs", IndexView::nh(snapshot) as f64);

    // core: a 10-τ curve from one pass, serial pool against nproc.
    let config = engine.estimator_config(snapshot.len());
    out.insert("core.pairs_scored", (config.m_h + config.m_l) as f64);
    let grid: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let serial = WorkPool::new(1);
    let curve_ms = |pool: &WorkPool| {
        let samples: Vec<f64> = (0..3)
            .map(|_| ms_of(|| replay::core_pass(engine, snapshot, &grid, pool)).1)
            .collect();
        median(&samples)
    };
    let (serial_ms, pooled_ms) = (curve_ms(&serial), curve_ms(pool));
    out.insert("core.curve10_ms", pooled_ms);
    out.insert("core.curve10_speedup", serial_ms / pooled_ms);

    // datasets: the checksum and the row codec under every checkpoint.
    let buffer: Vec<u8> = (0..8usize << 20).map(|i| (i * 31) as u8).collect();
    let (sum, checksum_ms) = ms_of(|| container::checksum64_v3(&buffer));
    std::hint::black_box(sum);
    out.insert("datasets.checksum_mb_s", 8.0 / (checksum_ms / 1e3));
    if !rows.is_empty() {
        let collection = VectorCollection::from_vectors(rows.to_vec());
        let (encoded, encode_ms) = ms_of(|| container::encode_vectors(&collection));
        let mb = encoded.len() as f64 / (1 << 20) as f64;
        out.insert("datasets.encode_vectors_mb_s", mb / (encode_ms / 1e3));
        let (decoded, decode_ms) = ms_of(|| container::decode_vectors(encoded));
        assert_eq!(decoded.map(|c| c.len()).ok(), Some(rows.len()));
        out.insert("datasets.decode_vectors_mb_s", mb / (decode_ms / 1e3));
    }
}

/// service and host: the estimate cache, a write under
/// `FsyncPolicy::Always`, and the device's bare fsync.
pub fn storage(
    engine: &EstimationEngine,
    config: ServiceConfig,
    rows: &[SparseVector],
    dir: &Path,
    out: &mut Readings,
) -> Result<(), String> {
    let tau = 0.512_345;
    engine.estimate_batch(&[tau]);
    let mut hits = 0u64;
    out.insert(
        "service.cache_hit_ns",
        ns_per(2_000, |_| {
            hits += engine.estimate_batch(&[tau])[0].cached as u64
        }),
    );
    if hits != 2_000 {
        return Err(format!(
            "only {hits} of 2000 repeated estimates were cache hits"
        ));
    }

    let always = DurabilityOptions {
        fsync: FsyncPolicy::Always,
        ..DurabilityOptions::default()
    };
    let durable = EstimationEngine::durable_with(config, &dir.join("always"), always)
        .map_err(|e| e.to_string())?;
    let sample: Vec<f64> = rows
        .iter()
        .take(200)
        .map(|row| ms_of(|| durable.insert(row.clone())).1 * 1e3)
        .collect();
    out.insert("service.insert_always_us", median(&sample));
    drop(durable);

    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let block = [0x5Au8; 4096];
    let mut failed = false;
    out.insert(
        "host.fsync_us",
        median_us(50, |_| {
            failed |= file
                .write_all(&block)
                .and_then(|()| file.sync_data())
                .is_err();
        }),
    );
    if failed {
        return Err("fsync probe failed".into());
    }
    Ok(())
}

/// server and obs: round trips that do no estimator work, and the JSON
/// codec on insert bodies.
pub fn wire(client: &mut Client, rows: &[SparseVector], out: &mut Readings) -> Result<(), String> {
    let mut failed = 0u32;
    out.insert(
        "server.healthz_roundtrip_us",
        median_us(200, |_| failed += client.health().is_err() as u32),
    );
    let tau = 0.487_654;
    client.estimate(tau).map_err(|e| e.to_string())?;
    out.insert(
        "server.cached_roundtrip_us",
        median_us(200, |_| {
            failed += !matches!(client.estimate(tau), Ok(answer) if answer.cached) as u32;
        }),
    );
    let scrapes: Vec<f64> = (0..10)
        .map(|_| ms_of(|| failed += client.metrics().is_err() as u32).1)
        .collect();
    out.insert("obs.metrics_scrape_ms", median(&scrapes));
    if failed > 0 {
        return Err(format!("{failed} health/cached/metrics round trips failed"));
    }
    let bodies: Vec<Json> = rows.iter().take(500).map(vector_json).collect();
    let mut texts = Vec::with_capacity(bodies.len());
    out.insert(
        "server.json_encode_insert_us",
        median_us(bodies.len(), |i| texts.push(bodies[i].encode())),
    );
    let mut decoded = 0usize;
    out.insert(
        "server.json_parse_insert_us",
        median_us(texts.len(), |i| {
            decoded += Json::parse(&texts[i])
                .ok()
                .as_ref()
                .and_then(parse_vector)
                .is_some() as usize;
        }),
    );
    if decoded != texts.len() {
        return Err("an insert body did not decode".into());
    }
    Ok(())
}

/// The value of an un-labelled series in a Prometheus exposition.
pub fn exposition_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse().ok())?
        })
}

/// Mean of a histogram series (`_sum / _count`), 0 when empty.
pub fn exposition_mean(text: &str, histogram: &str) -> f64 {
    let sum = exposition_value(text, &format!("{histogram}_sum")).unwrap_or(0.0);
    let count = exposition_value(text, &format!("{histogram}_count")).unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lookup_ignores_comments_and_labels() {
        let text = "# HELP a_total things\n# TYPE a_total counter\na_total 7\n\
                    b_us_bucket{le=\"1\"} 2\nb_us_sum 30\nb_us_count 4\n";
        assert_eq!(exposition_value(text, "a_total"), Some(7.0));
        assert_eq!(exposition_value(text, "missing"), None);
        assert_eq!(exposition_mean(text, "b_us"), 7.5);
        assert_eq!(exposition_mean(text, "missing"), 0.0);
    }
}
