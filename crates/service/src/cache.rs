//! The estimate cache with drift-based invalidation.
//!
//! A query optimizer asks for the same handful of thresholds over and
//! over; at production sampling budgets (`m_H = m_L = n`) each miss
//! costs two O(n) sampling passes. The cache short-circuits repeats:
//! an entry records the estimate together with *when* it was computed
//! (epoch + engine-wide ingest counter), and stays servable until the
//! live data has drifted by more than ε ingest operations since then —
//! the staleness contract a size estimate can tolerate, since a join
//! size over `n` vectors cannot change by more than `n · ε` pairs in ε
//! mutations, and the estimator's own sampling error dominates long
//! before that.
//!
//! Entries are keyed by the τ bit pattern plus a fingerprint of the
//! estimator parameters that produced them, so a config change (e.g.
//! paper defaults re-derived at a different `n`) never serves a stale
//! shape of estimate. There is one entry per `(τ, config)`: every
//! answer — single, a τ grid, a wire request, re-asked by the
//! auditor — is computed by the one estimate path and shares it.
//!
//! The cache is pure storage: hit/miss accounting lives on the engine's
//! metric registry (`vsj_engine_cache_{hits,misses}_total`), recorded at
//! the call sites that know whether an answer was actually served.

use std::collections::HashMap;

use vsj_core::Estimate;

/// Cache key: threshold bits + estimator-parameter fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// `τ.to_bits()` — exact bit equality; estimates are τ-specific.
    pub tau_bits: u64,
    /// Fingerprint of the LSH-SS parameters used.
    pub config: u64,
}

/// One cached estimate and its provenance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CacheEntry {
    pub estimate: Estimate,
    /// Standard error of the estimate (same sampling pass as the value),
    /// carried so a cache-served answer replays its interval, not just
    /// its point.
    pub std_err: f64,
    /// Epoch the estimate was computed at.
    pub epoch: u64,
    /// Engine ingest counter at computation time (drift reference).
    pub ingested: u64,
    /// Live size of the snapshot it was computed on.
    pub n: usize,
}

/// Hard cap on resident entries. Each entry is ~70 bytes; a client
/// streaming data-dependent thresholds (distinct τ bit patterns) must
/// not grow a long-lived engine without bound, so past the cap an
/// arbitrary resident entry is evicted per insertion — at this size
/// anything smarter than random-ish eviction is noise next to the cost
/// of one sampling pass.
const MAX_ENTRIES: usize = 4096;

/// Drift-invalidated estimate cache (engine holds it behind a lock).
#[derive(Debug, Default)]
pub(crate) struct EstimateCache {
    entries: HashMap<CacheKey, CacheEntry>,
}

impl EstimateCache {
    /// Returns the entry for `key` if it is still within `epsilon`
    /// ingests of `current_ingested`. Pure read — whether it counts as
    /// a hit or a miss is the caller's call (a multi-key fast path only
    /// knows afterwards whether the cache actually served the request).
    pub fn lookup(&self, key: CacheKey, current_ingested: u64, epsilon: u64) -> Option<CacheEntry> {
        self.entries
            .get(&key)
            .filter(|e| current_ingested.abs_diff(e.ingested) <= epsilon)
            .copied()
    }

    /// Inserts the entry for `key`, keeping whichever of the resident
    /// and incoming entries is newer. The guard closes a reader race: a
    /// slow reader that sampled against snapshot `e` must not clobber an
    /// answer already computed against `e+1`, or cached epochs could
    /// move backwards under concurrent readers.
    pub fn store(&mut self, key: CacheKey, entry: CacheEntry) {
        if self.entries.len() >= MAX_ENTRIES && !self.entries.contains_key(&key) {
            if let Some(&victim) = self.entries.keys().next() {
                self.entries.remove(&victim);
            }
        }
        let slot = self.entries.entry(key).or_insert(entry);
        if (entry.epoch, entry.ingested) >= (slot.epoch, slot.ingested) {
            *slot = entry;
        }
    }

    /// Drops every entry (used when a caller wants recomputation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_core::EstimateKind;

    fn entry(ingested: u64) -> CacheEntry {
        CacheEntry {
            estimate: Estimate {
                value: 42.0,
                kind: EstimateKind::Scaled,
            },
            std_err: 3.5,
            epoch: 1,
            ingested,
            n: 100,
        }
    }

    const KEY: CacheKey = CacheKey {
        tau_bits: 0x3FE6666666666666, // 0.7
        config: 9,
    };

    #[test]
    fn resident_entries_are_capped() {
        let mut c = EstimateCache::default();
        for i in 0..(super::MAX_ENTRIES as u64 + 500) {
            c.store(CacheKey { tau_bits: i, ..KEY }, entry(0));
        }
        let len = c.len();
        assert!(len <= super::MAX_ENTRIES, "cache grew to {len}");
        // Updates to a resident key never evict.
        c.store(KEY, entry(1));
        assert!(c.len() <= super::MAX_ENTRIES);
    }

    #[test]
    fn hit_within_epsilon_miss_beyond() {
        let mut c = EstimateCache::default();
        assert!(c.lookup(KEY, 100, 10).is_none());
        c.store(KEY, entry(100));
        assert!(c.lookup(KEY, 105, 10).is_some(), "drift 5 ≤ ε 10");
        assert!(c.lookup(KEY, 110, 10).is_some(), "drift 10 ≤ ε 10");
        assert!(c.lookup(KEY, 111, 10).is_none(), "drift 11 > ε 10");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn store_never_regresses_to_an_older_epoch() {
        let mut c = EstimateCache::default();
        let newer = CacheEntry {
            epoch: 5,
            ..entry(50)
        };
        let older = CacheEntry {
            epoch: 4,
            ..entry(40)
        };
        c.store(KEY, newer);
        c.store(KEY, older); // late writer loses
        assert_eq!(c.lookup(KEY, 50, u64::MAX).unwrap().epoch, 5);
        let newest = CacheEntry {
            epoch: 6,
            ..entry(60)
        };
        c.store(KEY, newest);
        assert_eq!(c.lookup(KEY, 60, u64::MAX).unwrap().epoch, 6);
    }

    #[test]
    fn cached_entries_replay_their_interval() {
        let mut c = EstimateCache::default();
        c.store(KEY, entry(0));
        let hit = c.lookup(KEY, 0, 0).unwrap();
        assert_eq!(hit.std_err, 3.5, "std_err must survive the round trip");
    }

    #[test]
    fn strict_epsilon_zero_requires_unchanged_count() {
        let mut c = EstimateCache::default();
        c.store(KEY, entry(7));
        assert!(c.lookup(KEY, 7, 0).is_some());
        assert!(c.lookup(KEY, 8, 0).is_none());
    }

    #[test]
    fn distinct_tau_and_config_are_distinct_entries() {
        let mut c = EstimateCache::default();
        c.store(KEY, entry(0));
        let other_tau = CacheKey {
            tau_bits: 0x3FE0000000000000,
            ..KEY
        };
        let other_cfg = CacheKey { config: 10, ..KEY };
        assert!(c.lookup(other_tau, 0, u64::MAX).is_none());
        assert!(c.lookup(other_cfg, 0, u64::MAX).is_none());
        assert!(c.lookup(KEY, 0, 0).is_some());
        c.clear();
        assert!(c.lookup(KEY, 0, u64::MAX).is_none());
    }
}
