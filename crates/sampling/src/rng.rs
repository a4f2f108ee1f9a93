//! Seedable deterministic PRNGs.
//!
//! Two generators, both implemented against their published reference
//! algorithms:
//!
//! * [`SplitMix64`] (Steele, Lea & Flood, OOPSLA 2014) — a 64-bit state
//!   mixer. Used to expand seeds and, in its stateless [`SplitMix64::mix`]
//!   form, as the counter-based hash behind SimHash hyperplanes and MinHash
//!   permutations: `mix(seed ⊕ f(stream, counter))` yields an independent
//!   uniform word per (seed, stream, counter) triple without storing
//!   anything.
//! * [`Xoshiro256`] (xoshiro256++, Blackman & Vigna, 2019) — the workhorse
//!   generator for all sampling loops. Fast (4 × u64 state, no
//!   multiplication on the output path beyond the ++ scrambler), passes
//!   BigCrush, and trivially forkable into independent streams.
//!
//! All consumers take `&mut impl Rng`, so tests can substitute scripted
//! generators.

/// Minimal random-source trait: everything else is derived from uniform
/// 64-bit words via provided methods.
pub trait Rng {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits — the low bits of some generators are weaker.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection
    /// method (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire 2019: draw x, take high 64 bits of x*n; reject the small
        // biased region.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.below_usize(slice.len())]
    }
}

/// SplitMix64: 64-bit state, one add + three xor-shift-multiply mixes per
/// output. Reference: Vigna's `splitmix64.c` (public domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn seeded(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Stateless finalizer: maps any word to a well-mixed word. This is the
    /// `murmur3`-style fmix64 used inside the generator; exposed because
    /// the LSH crate uses it as a counter-based hash.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hash of a (seed, stream, counter) triple — the building block for
    /// deterministic lazy hyperplanes/permutations. Each argument is mixed
    /// before combination so that low-entropy inputs (small counters) still
    /// produce independent-looking outputs.
    #[inline]
    pub fn mix3(seed: u64, stream: u64, counter: u64) -> u64 {
        let a = Self::mix(seed);
        let b = Self::mix(stream.wrapping_add(0xA076_1D64_78BD_642F));
        let c = Self::mix(counter.wrapping_add(0xE703_7ED1_A0B4_28DB));
        Self::mix(a ^ b.rotate_left(21) ^ c.rotate_left(42))
    }

    /// Precomputed `(seed, stream)` half of [`SplitMix64::mix3`]. Hash
    /// functions that sweep `counter` over every dimension of a vector
    /// (MinHash permutations, SimHash hyperplanes) pay two of `mix3`'s
    /// four `mix` calls for inputs that never change inside the sweep;
    /// hoisting them shrinks the inner loop to [`SplitMix64::mix3_apply`],
    /// a flat two-mix pass the compiler can vectorize.
    #[inline]
    pub fn mix3_base(seed: u64, stream: u64) -> u64 {
        let a = Self::mix(seed);
        let b = Self::mix(stream.wrapping_add(0xA076_1D64_78BD_642F));
        a ^ b.rotate_left(21)
    }

    /// Completes a [`SplitMix64::mix3_base`] with the per-element counter:
    /// `mix3_apply(mix3_base(s, t), c) == mix3(s, t, c)` bit-for-bit.
    #[inline]
    pub fn mix3_apply(base: u64, counter: u64) -> u64 {
        Self::mix(base ^ Self::mix3_counter(counter))
    }

    /// The counter's term of [`SplitMix64::mix3`], which no base enters:
    /// `mix3_apply(base, c) == mix(base ^ mix3_counter(c))`. A sweep that
    /// evaluates many bases at one counter (SimHash's `k` hyperplanes at
    /// one dimension) computes it once and pays one `mix` per base.
    #[inline]
    pub fn mix3_counter(counter: u64) -> u64 {
        Self::mix(counter.wrapping_add(0xE703_7ED1_A0B4_28DB)).rotate_left(42)
    }
}

/// Domain constant xor-ed into label hashes so a labeled fork can only
/// collide with a numeric stream id by deliberately reproducing the full
/// 64-bit construction.
const LABEL_DOMAIN: u64 = 0x4C42_4C5F_464F_524B; // "LBL_FORK"

/// Maps a textual label to a stream id: FNV-1a 64 over the UTF-8 bytes,
/// domain-separated and finished with [`SplitMix64::mix`]. This is the
/// keying story for *named* sub-streams — callers that want "the RNG for
/// the S_H stratum" say `fork("stratum-h")` instead of inventing ad-hoc
/// integer ids that silently collide across modules. Collisions between
/// two distinct labels are 64-bit-birthday rare (~2⁻³² at 65k labels) and
/// checked by test batteries, not prevented; labels are config-like
/// constants, not attacker-controlled input.
pub fn label_stream(label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for &byte in label.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a prime
    }
    SplitMix64::mix(h ^ LABEL_DOMAIN)
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna). 256-bit state, 64-bit output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the state by expanding `seed` through SplitMix64, the
    /// initialization recommended by the xoshiro authors.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::seeded(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but make the invariant explicit.
        debug_assert!(s.iter().any(|&w| w != 0));
        Self { s }
    }

    /// Derives an independent generator for substream `stream`. Used to
    /// give each experiment trial / thread its own deterministic stream.
    pub fn fork(&self, stream: u64) -> Self {
        // Combine current state with the stream id through the mixer; the
        // parent generator is not advanced.
        let base = SplitMix64::mix3(self.s[0] ^ self.s[2], self.s[1] ^ self.s[3], stream);
        Self::seeded(base)
    }

    /// Labeled variant of [`Xoshiro256::fork`]: derives the sub-stream id
    /// from `label` via [`label_stream`]. The cheap, principled way to
    /// carve named independent streams out of one generator (for example
    /// per-stratum sub-streams in a parallel sampling pass) without
    /// coordinating integer ids across call sites. The parent generator
    /// is not advanced.
    pub fn fork_labeled(&self, label: &str) -> Self {
        self.fork(label_stream(label))
    }

    /// Generator for stream `stream` of the deterministic family rooted
    /// at `seed` — shorthand for [`RngStreams::new(seed).stream(stream)`].
    ///
    /// [`RngStreams::new(seed).stream(stream)`]: RngStreams::stream
    pub fn stream_seeded(seed: u64, stream: u64) -> Self {
        RngStreams::new(seed).stream(stream)
    }
}

/// A deterministic family of independent [`Xoshiro256`] streams.
///
/// Sharded and concurrent consumers (the `vsj-service` engine, parallel
/// experiment trials) need per-shard / per-worker generators that are
/// (a) reproducible from one master seed, (b) statistically independent
/// across stream ids, and (c) *stable*: stream `i` yields the same
/// sequence no matter how many other streams exist or in which order
/// they are drawn. `RngStreams` provides exactly that by keying each
/// stream's 256-bit state off `mix3(seed, stream)` — no shared state, so
/// a `RngStreams` value can be freely copied across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngStreams {
    seed: u64,
}

impl RngStreams {
    /// Family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The master seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator for `stream`. Any `u64` is a valid stream id;
    /// callers typically use a shard index, worker index, or epoch.
    pub fn stream(&self, stream: u64) -> Xoshiro256 {
        Xoshiro256::seeded(SplitMix64::mix3(self.seed, stream, 0x5EED_5EED_5EED_5EED))
    }

    /// A sub-family for hierarchical derivation (e.g. one family per
    /// shard, then one stream per epoch within the shard).
    pub fn subfamily(&self, stream: u64) -> Self {
        Self {
            seed: SplitMix64::mix3(self.seed, stream, 0xFA71_11E5_0F5E_ED51),
        }
    }

    /// Labeled sub-family: `fork("stratum-h")` is shorthand for
    /// [`RngStreams::subfamily`] keyed by [`label_stream`]. Names beat
    /// bare integers when independent modules each need their own
    /// sub-streams from a shared family — the label carries the
    /// namespace, so no global id registry is required.
    pub fn fork(&self, label: &str) -> Self {
        self.subfamily(label_stream(label))
    }
}

impl Rng for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from Vigna's splitmix64.c.
        let mut g = SplitMix64::seeded(1234567);
        let got: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        let mut c = Xoshiro256::seeded(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let base = Xoshiro256::seeded(7);
        let mut f1 = base.fork(0);
        let mut f2 = base.fork(1);
        let mut f1b = base.fork(0);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256::seeded(5);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_half() {
        let mut g = Xoshiro256::seeded(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256::seeded(3);
        let n = 10u64;
        let mut counts = [0u64; 10];
        let trials = 100_000;
        for _ in 0..trials {
            let x = g.below(n);
            assert!(x < n);
            counts[x as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} count {c} deviates {dev}");
        }
    }

    #[test]
    fn below_handles_awkward_moduli() {
        let mut g = Xoshiro256::seeded(9);
        // Non-power-of-two modulus near u64::MAX exercises the rejection path.
        let n = (u64::MAX / 3) * 2;
        for _ in 0..100 {
            assert!(g.below(n) < n);
        }
        // n = 1 must always return 0 without consuming unbounded randomness.
        assert_eq!(g.below(1), 0);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Xoshiro256::seeded(0).below(0);
    }

    #[test]
    fn range_u64_respects_bounds() {
        let mut g = Xoshiro256::seeded(13);
        for _ in 0..1000 {
            let x = g.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut g = Xoshiro256::seeded(17);
        assert!((0..100).all(|_| !g.bernoulli(0.0)));
        assert!((0..100).all(|_| g.bernoulli(1.0)));
    }

    #[test]
    fn bernoulli_rate_converges() {
        let mut g = Xoshiro256::seeded(19);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| g.bernoulli(0.3)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Xoshiro256::seeded(23);
        let mut v: Vec<u32> = (0..100).collect();
        g.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And it actually moved something (probability of identity ~1/100!).
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_uniformity_smoke() {
        // Position of element 0 after shuffling [0,1,2] should be ~uniform.
        let mut g = Xoshiro256::seeded(29);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let mut v = [0u8, 1, 2];
            g.shuffle(&mut v);
            let pos = v.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 400.0, "counts {counts:?}");
        }
    }

    #[test]
    fn choose_picks_all_elements_eventually() {
        let mut g = Xoshiro256::seeded(31);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[*g.choose(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mix3_varies_in_every_argument() {
        let base = SplitMix64::mix3(1, 2, 3);
        assert_ne!(base, SplitMix64::mix3(2, 2, 3));
        assert_ne!(base, SplitMix64::mix3(1, 3, 3));
        assert_ne!(base, SplitMix64::mix3(1, 2, 4));
        // Deterministic.
        assert_eq!(base, SplitMix64::mix3(1, 2, 3));
    }

    #[test]
    fn mix3_low_entropy_counters_look_uniform() {
        // Bit-balance check across sequential counters — the exact use in
        // SimHash (seed fixed, counter = dimension).
        let mut ones = [0u32; 64];
        let samples = 4096u64;
        for c in 0..samples {
            let h = SplitMix64::mix3(99, 7, c);
            for (b, slot) in ones.iter_mut().enumerate() {
                *slot += ((h >> b) & 1) as u32;
            }
        }
        for (b, &count) in ones.iter().enumerate() {
            let frac = f64::from(count) / samples as f64;
            assert!((frac - 0.5).abs() < 0.05, "bit {b} biased: {frac}");
        }
    }

    #[test]
    fn mix3_base_apply_equals_mix3() {
        // The hoisted two-phase form (and its three-part split around
        // the shared counter term) must be bit-identical to the fused
        // triple mix at every input — this is what lets the flat hashing
        // pass claim the bit-identity contract for free.
        for seed in [0u64, 1, 42, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            for stream in [0u64, 1, 7, 1 << 32, u64::MAX] {
                let base = SplitMix64::mix3_base(seed, stream);
                for counter in (0u64..64).chain([u64::MAX, 1 << 48]) {
                    assert_eq!(
                        SplitMix64::mix3_apply(base, counter),
                        SplitMix64::mix3(seed, stream, counter),
                        "seed={seed} stream={stream} counter={counter}"
                    );
                    assert_eq!(
                        SplitMix64::mix(base ^ SplitMix64::mix3_counter(counter)),
                        SplitMix64::mix3(seed, stream, counter),
                        "shared counter term: seed={seed} stream={stream} counter={counter}"
                    );
                }
            }
        }
        // Pin the underlying function so a silent constant change trips.
        assert_eq!(SplitMix64::mix3(1, 2, 3), 0x1FCD_AED7_4C1F_0D83);
    }

    #[test]
    fn label_stream_pinned_and_label_sensitive() {
        // Golden values: these are part of the persistence story — any
        // future caller keying durable state off a label relies on the
        // derivation never changing.
        assert_eq!(label_stream("stratum-h"), 0xA677_1779_AF0D_E1BD);
        assert_eq!(label_stream("stratum-l"), 0x2CA7_EC6B_E08B_FBB1);
        assert_eq!(label_stream(""), 0x136F_57E0_A563_2E8E);
        assert_ne!(label_stream("a"), label_stream("b"));
        assert_ne!(label_stream("ab"), label_stream("ba"));
    }

    #[test]
    fn label_stream_collision_battery() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(
                seen.insert(label_stream(&format!("label-{i}"))),
                "label-{i} collided"
            );
        }
        // Structured near-miss labels (shared prefixes/suffixes) too.
        for i in 0..1000 {
            assert!(
                seen.insert(label_stream(&format!("shard/{i}/wal"))),
                "shard/{i}/wal collided"
            );
        }
    }

    #[test]
    fn fork_labeled_is_deterministic_and_leaves_parent_alone() {
        let parent = Xoshiro256::seeded(7);
        let before = parent.clone();
        let mut a = parent.fork_labeled("worker-3");
        let mut b = parent.fork_labeled("worker-3");
        let mut c = parent.fork_labeled("worker-4");
        assert_eq!(parent, before, "fork_labeled must not advance the parent");
        let first = a.next_u64();
        assert_eq!(first, b.next_u64());
        assert_ne!(first, c.next_u64());
        // Pinned derived stream + equivalence with the documented keying.
        assert_eq!(first, 0x480A_2475_6D0F_9896);
        assert_eq!(first, parent.fork(label_stream("worker-3")).next_u64());
    }

    #[test]
    fn streams_fork_is_a_labeled_subfamily() {
        let fam = RngStreams::new(42);
        let forked = fam.fork("stratum-h");
        // Pinned: labeled forks are stable across releases.
        assert_eq!(forked.stream(0).next_u64(), 0x03AA_6775_46B6_0627);
        // Matches the documented derivation exactly.
        assert_eq!(forked, fam.subfamily(label_stream("stratum-h")));
        // Distinct from the parent's small numeric subfamilies and from
        // other labels.
        for id in 0..64 {
            assert_ne!(forked, fam.subfamily(id));
        }
        assert_ne!(
            forked.stream(0).next_u64(),
            fam.fork("stratum-l").stream(0).next_u64()
        );
    }

    #[test]
    fn rng_trait_object_via_mut_ref() {
        fn takes_rng<R: Rng>(mut r: R) -> u64 {
            r.next_u64()
        }
        let mut g = Xoshiro256::seeded(1);
        let direct = g.clone().next_u64();
        assert_eq!(takes_rng(&mut g), direct);
    }

    #[test]
    fn streams_are_deterministic_and_order_independent() {
        let fam = RngStreams::new(99);
        // Stream 3 is the same whether or not other streams were drawn.
        let a: Vec<u64> = {
            let mut g = fam.stream(3);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let _ = fam.stream(0).next_u64();
        let _ = fam.stream(7).next_u64();
        let b: Vec<u64> = {
            let mut g = fam.stream(3);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_eq!(
            fam.stream(3).next_u64(),
            Xoshiro256::stream_seeded(99, 3).next_u64()
        );
    }

    #[test]
    fn streams_differ_across_ids_and_seeds() {
        let fam = RngStreams::new(1);
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64 {
            assert!(
                seen.insert(fam.stream(stream).next_u64()),
                "stream {stream} collided"
            );
        }
        assert_ne!(
            RngStreams::new(1).stream(0).next_u64(),
            RngStreams::new(2).stream(0).next_u64()
        );
    }

    #[test]
    fn stream_outputs_look_uniform() {
        // Cheap sanity check across the family dimension: the first
        // output of 4096 consecutive streams should have balanced bits.
        let fam = RngStreams::new(0xDEAD_BEEF);
        let mut ones = [0u32; 64];
        let streams = 4096;
        for s in 0..streams {
            let w = fam.stream(s).next_u64();
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((w >> bit) & 1) as u32;
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            let frac = f64::from(count) / f64::from(streams as u32);
            assert!((frac - 0.5).abs() < 0.05, "bit {bit} biased: {frac}");
        }
    }

    #[test]
    fn subfamilies_are_independent() {
        let fam = RngStreams::new(5);
        let sub_a = fam.subfamily(0);
        let sub_b = fam.subfamily(1);
        assert_ne!(sub_a.stream(0).next_u64(), sub_b.stream(0).next_u64());
        // Hierarchical derivation is deterministic.
        assert_eq!(
            RngStreams::new(5).subfamily(0).stream(9).next_u64(),
            sub_a.stream(9).next_u64()
        );
        // A subfamily is distinct from its parent's flat streams.
        assert_ne!(sub_a.stream(0).next_u64(), fam.stream(0).next_u64());
    }
}
