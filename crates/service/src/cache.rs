//! The per-snapshot answer memo.
//!
//! The engine samples every pass over a snapshot from an RNG keyed by
//! the snapshot's epoch alone, so an answer is a pure function of
//! (snapshot, τ). A [`Memo`] remembers those answers by τ for the one
//! snapshot that owns it; a repeat is served from there with the bits a
//! fresh pass would give. The estimator config is fixed when the engine
//! is built, so τ alone keys an entry, and a new snapshot starts with a
//! new, empty memo: no entry needs an epoch, a drift bound or eviction.

use std::collections::HashMap;
use std::sync::Mutex;

use vsj_core::Estimate;

use crate::locks;

/// Answers one memo remembers at most. Past the cap answers are still
/// served, just not stored, so a client streaming distinct thresholds
/// cannot grow a snapshot without bound.
pub(crate) const MEMO_CAP: usize = 4096;

/// Answers computed on one snapshot: τ bits → (estimate, std_err).
#[derive(Default)]
pub(crate) struct Memo(Mutex<HashMap<u64, (Estimate, f64)>>);

impl Memo {
    /// The remembered `(estimate, std_err)` of every τ in `taus`, in
    /// order, or `None` unless all of them are remembered.
    pub(crate) fn recall(&self, taus: &[f64]) -> Option<Vec<(Estimate, f64)>> {
        let memo = locks::lock(&self.0);
        taus.iter()
            .map(|tau| memo.get(&tau.to_bits()).copied())
            .collect()
    }

    /// Remembers answers, up to [`MEMO_CAP`].
    pub(crate) fn remember(&self, answers: impl IntoIterator<Item = (f64, (Estimate, f64))>) {
        let mut memo = locks::lock(&self.0);
        for (tau, answer) in answers {
            if memo.len() < MEMO_CAP {
                memo.insert(tau.to_bits(), answer);
            }
        }
    }

    /// Forgets every remembered answer.
    pub(crate) fn clear(&self) {
        locks::lock(&self.0).clear();
    }

    /// Answers remembered.
    pub(crate) fn len(&self) -> usize {
        locks::lock(&self.0).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimationEngine, IndexFamily, ServiceConfig};
    use vsj_core::{EstimateKind, LshSsConfig};
    use vsj_vector::SparseVector;

    const ANSWER: (Estimate, f64) = (
        Estimate {
            value: 42.0,
            kind: EstimateKind::Scaled,
        },
        3.5,
    );

    #[test]
    fn cached_entries_replay_their_interval() {
        let memo = Memo::default();
        assert!(memo.recall(&[0.7]).is_none());
        memo.remember([(0.7, ANSWER)]);
        let (estimate, std_err) = memo.recall(&[0.7]).expect("remembered")[0];
        assert_eq!(estimate.value.to_bits(), ANSWER.0.value.to_bits());
        assert_eq!(estimate.kind, ANSWER.0.kind);
        assert_eq!(
            std_err.to_bits(),
            ANSWER.1.to_bits(),
            "std_err must survive the round trip"
        );
    }

    #[test]
    fn distinct_tau_and_config_are_distinct_entries() {
        // Distinct τ: one entry each, and a batch is recalled only when
        // every τ in it is remembered.
        let memo = Memo::default();
        memo.remember([(0.7, ANSWER)]);
        assert!(memo.recall(&[0.5]).is_none());
        assert!(memo.recall(&[0.7, 0.5]).is_none());
        memo.remember([(0.5, (ANSWER.0, 1.0))]);
        assert_eq!(memo.len(), 2);
        let both = memo.recall(&[0.7, 0.5]).expect("both remembered");
        assert_eq!(both[0].1, 3.5);
        assert_eq!(both[1].1, 1.0);
        memo.clear();
        assert_eq!(memo.len(), 0);
        assert!(memo.recall(&[0.7]).is_none());

        // Distinct config: the config is fixed per engine and every
        // memo belongs to one engine's snapshot, so an engine never
        // serves an answer another config computed.
        let engine = |config: Option<LshSsConfig>| {
            let mut builder = ServiceConfig::builder()
                .shards(2)
                .k(8)
                .seed(42)
                .family(IndexFamily::MinHash);
            if let Some(config) = config {
                builder = builder.estimator(config);
            }
            let engine = EstimationEngine::new(builder.build());
            for i in 0..60u32 {
                engine.insert(SparseVector::binary_from_members(
                    (i % 12..i % 12 + 4).collect(),
                ));
            }
            engine.publish();
            engine
        };
        let defaults = engine(None);
        let mut small = LshSsConfig::paper_defaults(60);
        small.m_h = 3;
        small.m_l = 3;
        let fixed = engine(Some(small));
        let a = defaults.estimate(0.6);
        assert!(!a.cached);
        assert!(defaults.estimate(0.6).cached);
        let b = fixed.estimate(0.6);
        assert!(!b.cached, "another config's answer was served");
        assert_eq!(b.epoch, a.epoch);
        assert!(fixed.estimate(0.6).cached);
        assert_eq!(defaults.stats().cache_entries, 1);
        assert_eq!(fixed.stats().cache_entries, 1);
    }
}
