//! The benchmark's contract: workload and metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! this table rendered; `vsjbench check` fails when the two drift apart.

use vsj_server::json::Json;

/// Path of the benchmark's own directory, relative to the repository
/// root (the only entry of `paths`).
pub const BENCH_DIR: &str = "crates/bench/src/bin/vsjbench";

/// How long one run measures at the rounds-per-second rates in
/// [`crate::script`]; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub static WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fresh_heap",
        why: "short DBLP-like rows, SimHash k=16: pair drawing and bucket lookup dominate; every (epoch, tau) is new so the cache never hits",
    },
    WorkloadSpec {
        name: "dense_minhash",
        why: "long NYT-like rows, MinHash k=4 (the paper's SSJ set-up): similarity scoring dominates the same pass, pair drawing is bypassed",
    },
    WorkloadSpec {
        name: "mixed_durable",
        why: "durable engine: every round inserts, upserts, removes, a delta and a full publish, a checkpoint and fresh estimates; then killed and recovered",
    },
    WorkloadSpec {
        name: "restart_mapped",
        why: "a new process per round maps a 50k-row checkpoint plus its WAL tail, answers, folds tombstones and overlay, and writes the next tail",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which never gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The widest bound a metric may carry; `setup_s` alone may go to
/// [`SETUP_BOUND`].
const MAX_BOUND: f64 = 0.10;
/// The driver's contract asks that set-up time get the largest bound, and
/// it needs it: set-up is allocation- and copy-bound, and whole runs of
/// it read 0.25 s or 0.32 s with the host's state (13 repetitions alike
/// within a run), which the canary follows only half of.
const SETUP_BOUND: f64 = 0.25;

/// Reported by every workload with `--trace 0`. Time-valued ones are
/// canary-scaled.
pub static END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Lower, SETUP_BOUND),
    e2e("ops_per_s", "1/s", Higher, 0.10),
    e2e("estimate_p50_ms", "ms", Lower, 0.10),
    e2e("cpu_ms_per_op", "ms", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Reported by every workload with `--trace 1`; 0 means the workload
/// does not exercise that layer (the README lists which do).
pub static PER_LAYER: [MetricSpec; 72] = [
    // What the wire client saw, per route; not gating because only one
    // or two workloads have each.
    layer("wire.ingest_rows_per_s", "1/s", Higher),
    layer("wire.publish_p50_ms", "ms", Lower),
    layer("wire.restart_p50_ms", "ms", Lower),
    layer("wire.failed_ops_pct", "%", Lower),
    layer("vector.cosine_ns", "ns", Lower),
    layer("vector.jaccard_ns", "ns", Lower),
    layer("vector.nnz_mean", "count", Lower),
    layer("sampling.rng_u64_ns", "ns", Lower),
    layer("sampling.alias_draw_ns", "ns", Lower),
    layer("lsh.simhash_row_us", "us", Lower),
    layer("lsh.minhash_row_us", "us", Lower),
    layer("lsh.table_build_ms", "ms", Lower),
    layer("lsh.delta_extend_ms", "ms", Lower),
    layer("lsh.same_bucket_draw_ns", "ns", Lower),
    layer("lsh.cross_bucket_draw_ns", "ns", Lower),
    layer("lsh.nh_pairs", "count", Lower),
    layer("core.pass_ms", "ms", Lower),
    layer("core.pass_self_ms", "ms", Lower),
    layer("core.draws_ms", "ms", Lower),
    layer("core.score_ms", "ms", Lower),
    layer("core.pairs_scored", "count", Lower),
    layer("core.curve10_ms", "ms", Lower),
    layer("core.curve10_speedup", "x", Higher),
    layer("core.rel_err_pct", "%", Lower),
    layer("pool.tasks_per_pass", "count", Lower),
    layer("pool.steals_per_pass", "count", Lower),
    layer("datasets.checksum_mb_s", "MB/s", Higher),
    layer("datasets.encode_vectors_mb_s", "MB/s", Higher),
    layer("datasets.decode_vectors_mb_s", "MB/s", Higher),
    layer("exact.allpairs_s", "s", Lower),
    layer("service.estimate_ms", "ms", Lower),
    layer("service.estimate_self_ms", "ms", Lower),
    layer("service.cache_hit_ns", "ns", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.insert_us", "us", Lower),
    layer("service.insert_always_us", "us", Lower),
    layer("service.wal_append_us", "us", Lower),
    layer("service.wal_bytes_per_row", "B", Lower),
    layer("service.wal_fsyncs", "count", Lower),
    layer("service.publish_delta_ms", "ms", Lower),
    layer("service.publish_full_ms", "ms", Lower),
    layer("service.checkpoint_ms", "ms", Lower),
    layer("service.checkpoint_bytes_per_row", "B", Lower),
    layer("service.compact_ms", "ms", Lower),
    layer("service.disk_bytes_per_row", "B", Lower),
    layer("service.recover_heap_ms", "ms", Lower),
    layer("service.recover_mapped_ms", "ms", Lower),
    layer("service.first_estimate_mapped_ms", "ms", Lower),
    layer("service.materialized_rows", "count", Lower),
    layer("service.major_page_faults", "count", Lower),
    layer("service.tombstones", "count", Lower),
    layer("service.overlay_bytes", "B", Lower),
    layer("server.estimate_self_us", "us", Lower),
    layer("server.insert_self_us", "us", Lower),
    layer("server.json_parse_insert_us", "us", Lower),
    layer("server.json_encode_insert_us", "us", Lower),
    layer("server.healthz_roundtrip_us", "us", Lower),
    layer("server.cached_roundtrip_us", "us", Lower),
    layer("server.estimate_tail_ms", "ms", Lower),
    layer("server.estimate_tail_pct", "%", Higher),
    layer("server.queue_wait_us", "us", Lower),
    layer("server.batch_wait_us", "us", Lower),
    layer("server.merge_ratio", "ratio", Higher),
    layer("server.shed_total", "count", Lower),
    layer("obs.metrics_scrape_ms", "ms", Lower),
    layer("host.canary_ms", "ms", Lower),
    layer("host.canary_cv_pct", "%", Lower),
    layer("host.raw_estimate_p50_ms", "ms", Lower),
    layer("host.fsync_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.child_excess_pct", "%", Lower),
];

/// The command the driver runs from the root of a checkout.
fn command() -> Vec<String> {
    [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &format!("{BENCH_DIR}/Cargo.toml"),
        "--",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn metric_line(m: &MetricSpec) -> String {
    let mut line = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name,
        m.unit,
        m.better.as_str()
    );
    if let Some(bound) = m.bound {
        line.push_str(&format!(", \"bound\": {bound}"));
    }
    line.push('}');
    line
}

/// `BENCHMARK.json`, rendered from the tables above.
fn render() -> String {
    let list = |lines: Vec<String>| lines.join(",\n    ");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"{BENCH_DIR}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command()
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        list(WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        list(END_TO_END.iter().map(metric_line).collect()),
        list(PER_LAYER.iter().map(metric_line).collect()),
    )
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Problems with the tables themselves (names, uniqueness, bounds).
pub fn self_check() -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !name_ok(name) {
            problems.push(format!(
                "name {name:?} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !seen.insert(name) {
            problems.push(format!("name {name:?} is used twice"));
        }
    }
    for m in &END_TO_END {
        let widest = if m.name == "setup_s" {
            SETUP_BOUND
        } else {
            MAX_BOUND
        };
        match m.bound {
            Some(bound) if bound > 0.0 && bound <= widest => {}
            other => problems.push(format!("{}: bound {other:?} outside (0, {widest}]", m.name)),
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        problems.push("end_to_end lacks setup_s (s, lower)".into());
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains(['"', '\\', '\n']) {
            problems.push(format!(
                "{}: why must be one plain line of at most 200 characters",
                w.name
            ));
        }
    }
    problems
}

/// The settings of a manifest's `[profile.release]` table, one per line,
/// without comments or blank lines.
pub fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// Differences between `BENCHMARK.json` (its text) and the tables.
pub fn check_against(file_text: &str) -> Vec<String> {
    let mut problems = self_check();
    let file = match Json::parse(file_text) {
        Ok(json) => json,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let expected = Json::parse(&render()).expect("the rendered spec is valid JSON");
    let (Json::Obj(file_map), Json::Obj(expected_map)) = (&file, &expected) else {
        return vec!["BENCHMARK.json is not an object".into()];
    };
    for key in file_map.keys() {
        if !expected_map.contains_key(key) {
            problems.push(format!("unexpected key {key:?}"));
        }
    }
    for (key, want) in expected_map {
        let Some(have) = file_map.get(key) else {
            problems.push(format!("missing key {key:?}"));
            continue;
        };
        if have == want {
            continue;
        }
        match (have.as_arr(), want.as_arr()) {
            (Some(have), Some(want)) => {
                if have.len() != want.len() {
                    problems.push(format!(
                        "{key}: {} entries, expected {}",
                        have.len(),
                        want.len()
                    ));
                }
                for (have, want) in have.iter().zip(want) {
                    if have != want {
                        problems.push(format!("{key}: {} != {}", have.encode(), want.encode()));
                    }
                }
            }
            _ => problems.push(format!("{key}: {} != {}", have.encode(), want.encode())),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed_and_render_round_trips() {
        assert_eq!(self_check(), Vec::<String>::new());
        assert_eq!(check_against(&render()), Vec::<String>::new());
    }

    #[test]
    fn drift_is_reported_by_name() {
        let drifted = render().replace(
            "\"estimate_p50_ms\", \"unit\": \"ms\"",
            "\"estimate_p50_ms\", \"unit\": \"us\"",
        );
        let problems = check_against(&drifted);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("estimate_p50_ms"), "{problems:?}");
    }

    #[test]
    fn release_profile_reads_one_table() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\n# note\ndebug = true\n\nlto = \"fat\"\n[profile.dev]\nopt-level = 1\n";
        assert_eq!(release_profile(manifest), ["debug = true", "lto = \"fat\""]);
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(name_ok("core.pass_ms"));
        assert!(name_ok("9lives-ok"));
        assert!(!name_ok(".leading"));
        assert!(!name_ok("has space"));
        assert!(!name_ok(""));
    }
}
