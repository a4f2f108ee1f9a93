//! The metric catalog in `docs/OBSERVABILITY.md` against the live
//! registry: every series `/metrics` declares is documented, and every
//! documented series is declared.
//!
//! The scrape comes from a server over a durable engine that has done
//! everything an engine does — ingest, publish, estimate, checkpoint,
//! mapped recovery, compaction and an audit cycle — so a series that is
//! registered on only one of those paths still shows up.

use std::collections::BTreeSet;
use std::sync::Arc;

use vsj::prelude::*;

fn config() -> ServiceConfig {
    ServiceConfig::builder()
        .shards(2)
        .k(8)
        .seed(61)
        .family(IndexFamily::MinHash)
        .estimator(LshSsConfig {
            m_h: 256,
            m_l: 256,
            delta: 4,
            dampening: Dampening::NlOverDelta,
        })
        .build()
}

fn members(tag: u32) -> SparseVector {
    SparseVector::binary_from_members(vec![tag % 23, 100 + tag % 11, 200 + tag % 5])
}

/// Metric names with a `# TYPE` line in an exposition.
fn declared(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .map(str::to_owned)
        .collect()
}

/// Series names in the first column of the "Metric catalog" tables,
/// without their label sets.
fn documented(catalog: &str) -> BTreeSet<String> {
    let section = catalog
        .split("\n## Metric catalog\n")
        .nth(1)
        .expect("the doc has a metric catalog")
        .split("\n## ")
        .next()
        .unwrap();
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| ")?.split(" | ").next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .filter(|name| name.starts_with("vsj_"))
        .map(|name| name.split('{').next().unwrap().to_owned())
        .collect()
}

#[test]
fn observability_catalog_matches_the_live_exposition() {
    let dir = std::env::temp_dir().join(format!("vsj_metric_catalog_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let seed = EstimationEngine::durable(config(), &dir).expect("durable engine");
        for i in 0..40u32 {
            seed.insert(members(i));
        }
        seed.publish();
        seed.estimate(0.5);
        seed.checkpoint().expect("checkpoint");
    }
    let engine = Arc::new(
        EstimationEngine::recover_with(
            &dir,
            DurabilityOptions {
                storage_tier: StorageTier::Mapped,
                ..DurabilityOptions::default()
            },
        )
        .expect("mapped recovery"),
    );
    let server =
        Server::start(engine.clone(), ServerConfig::builder().workers(2).build()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for i in 100..110u32 {
        client.insert(&members(i)).expect("insert");
    }
    assert!(client.remove(3).expect("remove a base row"));
    client.publish().expect("publish");
    client.estimate(0.5).expect("estimate");
    client.compact().expect("compact");
    assert!(engine.audit_once(&AuditOptions::default()).is_some());
    client.stats().expect("stats");
    let exposition = client.metrics().expect("scrape /metrics");
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();

    let doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md"),
    )
    .expect("read docs/OBSERVABILITY.md");
    let live = declared(&exposition);
    let catalog = documented(&doc);
    assert!(live.len() > 40, "a fully exercised scrape: {live:?}");
    let undocumented: Vec<_> = live.difference(&catalog).collect();
    let stale: Vec<_> = catalog.difference(&live).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "served but not in docs/OBSERVABILITY.md: {undocumented:?}; \
         documented but not served: {stale:?}"
    );
}
