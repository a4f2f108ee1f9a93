//! The fixed, seed-derived op script of each workload.
//!
//! The script is the whole input of a run: which corpus rows are
//! inserted, which ids are upserted or removed, which τ every estimate
//! asks for, in which order. A seed changes the corpus, the τ stream and
//! the victims but never a count, so every count a run reports repeats
//! exactly across seeds and commits. Its generator is the benchmark's
//! own (it shares no code with `vsj-sampling`) so a change to the
//! program's RNG cannot change the workload.

use std::collections::BTreeMap;

use vsj_service::IndexFamily;

/// One wire request, or a session boundary of the restart workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `recover_with(Mapped)` + `Server::start` + `Client::connect`.
    Start,
    Publish,
    Estimate(f64),
    /// Insert corpus row `.0`; the engine assigns the next id.
    Insert(u32),
    /// Replace id `.0` with corpus row `.1`.
    Upsert(u64, u32),
    Remove(u64),
    Checkpoint,
    Compact,
    /// `Server::shutdown` without a checkpoint (untimed teardown).
    Stop,
}

impl Op {
    /// Name of the op's root span.
    pub fn span(&self) -> &'static str {
        match self {
            Op::Start => "wire.restart",
            Op::Publish => "wire.publish",
            Op::Estimate(_) => "wire.estimate",
            Op::Insert(_) => "wire.insert",
            Op::Upsert(..) => "wire.upsert",
            Op::Remove(_) => "wire.remove",
            Op::Checkpoint => "wire.checkpoint",
            Op::Compact => "wire.compact",
            Op::Stop => "wire.stop",
        }
    }

    /// Short route name (the span name without `wire.`), used for
    /// latency buckets and request counts.
    pub fn route(&self) -> &'static str {
        &self.span()["wire.".len()..]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    DblpLike,
    NytLike,
}

/// The fixed shape of a workload: everything but the seed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub corpus: Corpus,
    pub family: IndexFamily,
    pub k: usize,
    /// Rows loaded (and, when durable, checkpointed) in set-up.
    pub base_rows: u32,
    /// Rows inserted after the checkpoint in set-up (the WAL tail).
    pub tail_rows: u32,
    /// Set-up is repeated this often and its median reported: one
    /// repetition reads ±7 % around the others, and the short set-ups
    /// need more of them for a steady median.
    pub setup_reps: usize,
    pub durable: bool,
    /// Serve from the mapped tier, restarting every round.
    pub mapped: bool,
    /// Rounds per second of `--seconds` on the recording host; frozen so
    /// the op counts are a function of `--seconds` alone.
    pub rounds_per_second: f64,
    /// Fresh estimates of a round (a mapped round asks one more, after
    /// the fold).
    pub estimates_per_round: u32,
    pub inserts_per_round: u32,
    /// Earlier ids removed and replaced in every round: on the heap tier
    /// that forces the full (non-delta) publish path, on the mapped tier
    /// it makes tombstones and overlay rows for the fold.
    pub removes_per_round: u32,
    pub upserts_per_round: u32,
    /// Storage bytes per non-zero of the live rows at the end of a run on
    /// the recording build (0 = not durable). Per row the figure follows
    /// the seed's mean row length; per non-zero it holds to ±0.2 %
    /// across seeds and run lengths, so growth beyond 1 % is a change of
    /// what is written and fails the run.
    pub disk_bytes_per_nnz: f64,
}

pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "fresh_heap",
        corpus: Corpus::DblpLike,
        family: IndexFamily::SimHash,
        k: 16,
        base_rows: 40_000,
        tail_rows: 0,
        setup_reps: 13,
        durable: false,
        mapped: false,
        rounds_per_second: 4.4,
        estimates_per_round: 8,
        inserts_per_round: 0,
        removes_per_round: 0,
        upserts_per_round: 0,
        disk_bytes_per_nnz: 0.0,
    },
    Shape {
        name: "dense_minhash",
        corpus: Corpus::NytLike,
        family: IndexFamily::MinHash,
        k: 4,
        base_rows: 12_000,
        tail_rows: 0,
        setup_reps: 13,
        durable: false,
        mapped: false,
        rounds_per_second: 4.0,
        estimates_per_round: 8,
        inserts_per_round: 0,
        removes_per_round: 0,
        upserts_per_round: 0,
        disk_bytes_per_nnz: 0.0,
    },
    Shape {
        name: "mixed_durable",
        corpus: Corpus::NytLike,
        family: IndexFamily::SimHash,
        k: 16,
        base_rows: 10_000,
        tail_rows: 0,
        setup_reps: 5,
        durable: true,
        mapped: false,
        rounds_per_second: 4.0,
        estimates_per_round: 2,
        inserts_per_round: 250,
        removes_per_round: 10,
        upserts_per_round: 10,
        disk_bytes_per_nnz: 8.235,
    },
    Shape {
        name: "restart_mapped",
        corpus: Corpus::DblpLike,
        family: IndexFamily::SimHash,
        k: 16,
        base_rows: 50_000,
        tail_rows: 2_500,
        setup_reps: 7,
        durable: true,
        mapped: true,
        rounds_per_second: 2.0,
        estimates_per_round: 3,
        inserts_per_round: 0,
        removes_per_round: 40,
        upserts_per_round: 40,
        disk_bytes_per_nnz: 10.83,
    },
];

pub fn shape(name: &str) -> Option<&'static Shape> {
    SHAPES.iter().find(|s| s.name == name)
}

impl Shape {
    /// Rounds of the measured phase for `--seconds`; never fewer than
    /// 30, below which a median over rounds is not worth reporting.
    pub fn rounds(&self, seconds: f64) -> u32 {
        ((self.rounds_per_second * seconds).round() as u32).max(30)
    }
}

/// A durable heap round in this many ends its first half with a
/// `/checkpoint`.
pub const CHECKPOINT_EVERY: u32 = 5;

/// τ range of the estimate stream.
pub const TAU_LO: f64 = 0.10;
pub const TAU_HI: f64 = 0.95;
/// Requests sent and discarded before the clock starts.
pub const WARMUP_REQUESTS: u32 = 20;

/// SplitMix64 — the script's own generator.
pub struct ScriptRng(u64);

impl ScriptRng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_5C21_97B3_11D7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is ≤ n / 2⁶⁴: irrelevant for picking victims.
        self.next_u64() % n
    }
}

/// A low-discrepancy stream over `[TAU_LO, TAU_HI]` (golden-ratio
/// rotation from a seed-derived offset): it covers the range evenly in
/// any window, so every round costs about the same, and it never
/// repeats a value, so no estimate can be served from the cache.
pub struct TauStream {
    position: f64,
}

impl TauStream {
    pub fn new(seed: u64) -> Self {
        let offset = (ScriptRng::new(seed ^ 0x7A0).next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        Self { position: offset }
    }
}

impl Iterator for TauStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.position = (self.position + 0.618_033_988_749_894_9).fract();
        Some(TAU_LO + (TAU_HI - TAU_LO) * self.position)
    }
}

/// A workload's whole input besides the corpus itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// τ of the discarded warm-up requests.
    pub warmup: Vec<f64>,
    pub rounds: Vec<Vec<Op>>,
    /// Ids live after the last op (set-up ids are `0..base+tail`), each
    /// with the corpus row it then holds.
    pub final_live: BTreeMap<u64, u32>,
    /// Every id the engine ever assigned or was asked to upsert.
    pub ids_ever: u64,
    /// Corpus rows the script and the set-up consume.
    pub corpus_rows: u32,
}

/// The state a script is written from: the seed's streams and the ids
/// and corpus rows handed out so far.
struct Writer {
    rng: ScriptRng,
    taus: TauStream,
    next_row: u32,
    next_id: u64,
    /// Live ids and the corpus row each holds, as a vector for O(1)
    /// victim picks (swap-remove).
    live: Vec<(u64, u32)>,
    ops: Vec<Op>,
}

impl Writer {
    fn estimates(&mut self, count: u32) {
        let taus = self.taus.by_ref().take(count as usize);
        self.ops.extend(taus.map(Op::Estimate));
    }

    fn inserts(&mut self, count: u32) {
        for _ in 0..count {
            self.ops.push(Op::Insert(self.next_row));
            self.live.push((self.next_id, self.next_row));
            self.next_row += 1;
            self.next_id += 1;
        }
    }

    fn churn(&mut self, shape: &Shape) {
        for _ in 0..shape.removes_per_round {
            let at = self.rng.below(self.live.len() as u64) as usize;
            self.ops.push(Op::Remove(self.live.swap_remove(at).0));
        }
        for _ in 0..shape.upserts_per_round {
            let at = self.rng.below(self.live.len() as u64) as usize;
            self.live[at].1 = self.next_row;
            self.ops.push(Op::Upsert(self.live[at].0, self.next_row));
            self.next_row += 1;
        }
    }
}

impl Script {
    pub fn build(shape: &Shape, seed: u64, seconds: f64) -> Self {
        let mut taus = TauStream::new(seed);
        let warmup = taus.by_ref().take(WARMUP_REQUESTS as usize).collect();
        let loaded = shape.base_rows + shape.tail_rows;
        let mut w = Writer {
            rng: ScriptRng::new(seed),
            taus,
            next_row: loaded,
            next_id: loaded as u64,
            live: (0..loaded).map(|row| (row as u64, row)).collect(),
            ops: Vec::new(),
        };
        let mut rounds = Vec::new();
        // Every round has the same ops in the same order, so the median
        // over rounds sees each of them: there is no minority round whose
        // cost a median would drop.
        for round in 0..shape.rounds(seconds) {
            if shape.mapped {
                // Map the checkpoint and replay the WAL tail the previous
                // round (or set-up) left; answer over base + overlay +
                // tombstones; fold; answer over the folded base; then
                // write the tail the next round recovers.
                w.ops.push(Op::Start);
                w.estimates(shape.estimates_per_round);
                w.ops.push(Op::Compact);
                w.estimates(1);
                w.churn(shape);
                w.ops.push(Op::Publish);
                w.ops.push(Op::Stop);
            } else if shape.durable {
                // A delta cut and a full cut (removals force the full
                // publish path) in every round. The checkpoint is the
                // exception to "every round the same": it syncs tens of
                // megabytes to the device, and one per round doubled the
                // run-to-run spread of this workload's rates. It sits
                // mid-round, so the kill after the last round finds at
                // least half a round of writes in the WAL alone.
                let half = shape.inserts_per_round / 2;
                w.inserts(half);
                w.ops.push(Op::Publish);
                w.estimates(shape.estimates_per_round.div_ceil(2));
                if (round + 1).is_multiple_of(CHECKPOINT_EVERY) {
                    w.ops.push(Op::Checkpoint);
                }
                w.inserts(shape.inserts_per_round - half);
                w.churn(shape);
                w.ops.push(Op::Publish);
                w.estimates(shape.estimates_per_round / 2);
            } else {
                // With nothing pending this still cuts a new epoch, and
                // wire estimates are keyed by epoch: every round samples
                // independently.
                w.ops.push(Op::Publish);
                w.estimates(shape.estimates_per_round);
            }
            rounds.push(std::mem::take(&mut w.ops));
        }
        Self {
            warmup,
            rounds,
            final_live: w.live.into_iter().collect(),
            ids_ever: w.next_id,
            corpus_rows: w.next_row,
        }
    }

    /// Requests per route over the measured phase.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for op in self.rounds.iter().flatten() {
            *counts.entry(op.route()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_script() {
        for shape in &SHAPES {
            assert_eq!(
                Script::build(shape, 7, 15.0),
                Script::build(shape, 7, 15.0),
                "{}",
                shape.name
            );
        }
    }

    #[test]
    fn a_seed_changes_taus_and_victims_but_no_count() {
        for shape in &SHAPES {
            let a = Script::build(shape, 1, 15.0);
            let b = Script::build(shape, 2, 15.0);
            assert_eq!(a.counts(), b.counts(), "{}", shape.name);
            assert_eq!(a.corpus_rows, b.corpus_rows);
            assert_eq!(a.ids_ever, b.ids_ever);
            assert_eq!(a.final_live.len(), b.final_live.len());
            assert_ne!(a.rounds, b.rounds, "{}: τ stream must move", shape.name);
            assert_ne!(a.warmup, b.warmup);
            if shape.removes_per_round > 0 {
                assert_ne!(
                    a.final_live, b.final_live,
                    "{}: victims must move",
                    shape.name
                );
            }
        }
    }

    #[test]
    fn taus_stay_in_range_and_never_repeat() {
        let taus: Vec<f64> = TauStream::new(3).take(5_000).collect();
        assert!(taus.iter().all(|t| (TAU_LO..=TAU_HI).contains(t)));
        let distinct: BTreeSet<u64> = taus.iter().map(|t| t.to_bits()).collect();
        assert_eq!(distinct.len(), taus.len());
        // Evenly spread: every tenth of the range gets its share.
        for decile in 0..10 {
            let lo = TAU_LO + (TAU_HI - TAU_LO) * decile as f64 / 10.0;
            let hi = lo + (TAU_HI - TAU_LO) / 10.0;
            let share = taus.iter().filter(|t| (lo..hi).contains(*t)).count();
            assert!((450..=550).contains(&share), "decile {decile}: {share}");
        }
    }

    #[test]
    fn victims_are_live_and_removed_ids_never_return() {
        let shape = shape("mixed_durable").unwrap();
        let script = Script::build(shape, 11, 15.0);
        let loaded = shape.base_rows + shape.tail_rows;
        let mut live: BTreeMap<u64, u32> = (0..loaded).map(|row| (row as u64, row)).collect();
        let mut next_id = live.len() as u64;
        for op in script.rounds.iter().flatten() {
            match *op {
                Op::Insert(row) => {
                    live.insert(next_id, row);
                    next_id += 1;
                }
                Op::Remove(id) => assert!(live.remove(&id).is_some(), "remove of dead id {id}"),
                Op::Upsert(id, row) => {
                    assert!(live.insert(id, row).is_some(), "upsert of dead id {id}")
                }
                _ => {}
            }
        }
        assert_eq!(live, script.final_live);
        assert_eq!(next_id, script.ids_ever);
    }

    #[test]
    fn round_count_follows_seconds() {
        let shape = shape("fresh_heap").unwrap();
        assert_eq!(shape.rounds(15.0), 66);
        assert_eq!(shape.rounds(30.0), 132);
        assert_eq!(shape.rounds(1.0), 30);
    }
}
