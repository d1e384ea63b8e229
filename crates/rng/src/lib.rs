//! # ts3-rng
//!
//! The one seeded pseudo-random generator of the TS3Net reproduction:
//! every bit of randomness in the workspace (weight initialisation,
//! dropout masks, synthetic datasets, missing-value masks, window
//! shuffles) flows through [`rngs::StdRng`], so the workspace needs no
//! external `rand` crate and builds with no network access.
//!
//! ## Algorithm
//!
//! [`rngs::StdRng`] is Blackman & Vigna's xoshiro256++: 256 bits of
//! state, period `2^256 - 1`, output `rotl(s0 + s3, 23) + s0`. A `u64`
//! seed is expanded into that state by four draws of Steele, Lea &
//! Flood's SplitMix64, the initialisation the xoshiro authors
//! recommend; it decorrelates even adjacent seeds (0, 1, 2, …) and can
//! never yield the all-zero state. Both streams are pinned by
//! known-answer tests against the authors' published reference code.
//!
//! ## Seeding discipline
//!
//! The only constructor is [`SeedableRng::seed_from_u64`]. There is
//! deliberately no OS-entropy path: whole training runs, dataset
//! generations and shuffles reproduce from a single integer.
//!
//! ## Determinism guarantee
//!
//! For a fixed seed, the `u64` stream and every draw derived from it
//! ([`Rng::gen_f32`], [`Rng::next_u32`], [`Rng::gen_range`],
//! [`Rng::shuffle`], [`normal_f32`]) are identical across runs,
//! platforms and thread counts. Each draw consumes a fixed number of
//! stream values, except the integer `gen_range` rejection loop, which
//! depends only on the stream itself.
//!
//! ```
//! use ts3_rng::rngs::StdRng;
//! use ts3_rng::{normal_f32, Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let u = rng.gen_f32();                  // uniform [0, 1)
//! let k = rng.gen_range(0..10usize);      // uniform integer
//! let x = rng.gen_range(-1.0f32..1.0);    // uniform float
//! let g = normal_f32(&mut rng);           // N(0, 1)
//! let mut v = vec![1, 2, 3, 4];
//! rng.shuffle(&mut v);                    // Fisher–Yates
//! assert!((0.0..1.0).contains(&u) && k < 10 && (-1.0..1.0).contains(&x));
//! assert!(g.is_finite());
//! ```

use core::ops::Range;

use rngs::StdRng;

/// The generator type, under its `rngs::StdRng` path.
pub mod rngs {
    /// The workspace's generator: xoshiro256++ seeded through SplitMix64
    /// (see the crate docs). Its stream is a frozen contract.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }

    impl StdRng {
        /// Next value of the raw xoshiro256++ `u64` stream.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
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
}

/// One SplitMix64 step: advance the Weyl state by the golden-ratio
/// increment and return its MurmurHash3-style finalisation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction from an explicit `u64` seed, the only seeding path.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    /// Expand `seed` into the 256-bit state with four SplitMix64 draws.
    fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

/// The draws the workspace makes from a [`rngs::StdRng`].
pub trait Rng {
    /// Uniform `[0, 1)` with 24 bits of precision (`n / 2^24`): every
    /// output is an exact multiple of `2^-24` and `1.0` never occurs.
    fn gen_f32(&mut self) -> f32;

    /// The high 32 bits of the next stream value (the best-distributed
    /// half of xoshiro256++ output).
    fn next_u32(&mut self) -> u32;

    /// Uniform draw from the half-open range `lo..hi` of `f32`, `usize`,
    /// `u32` or `u64`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: sealed::Uniform>(&mut self, range: Range<T>) -> T;

    /// Uniform in-place shuffle (Fisher–Yates, back to front): one
    /// `gen_range` draw per element beyond the first.
    fn shuffle<T>(&mut self, items: &mut [T]);
}

impl Rng for StdRng {
    #[inline]
    fn gen_f32(&mut self) -> f32 {
        ((self.next_u32() >> 8) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn gen_range<T: sealed::Uniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range: empty range");
        T::sample(self, range.start, range.end)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.gen_range(0..i + 1));
        }
    }
}

mod sealed {
    use super::{Rng, StdRng};

    /// The types [`Rng::gen_range`] draws.
    pub trait Uniform: Copy + PartialOrd {
        /// Uniform draw from `[lo, hi)`; the caller guarantees `lo < hi`.
        fn sample(rng: &mut StdRng, lo: Self, hi: Self) -> Self;
    }

    impl Uniform for f32 {
        /// `lo + u·(hi − lo)`, moved to the largest float below `hi`
        /// when rounding lands on `hi`, so the range stays half-open.
        #[inline]
        fn sample(rng: &mut StdRng, lo: f32, hi: f32) -> f32 {
            let v = lo + rng.gen_f32() * (hi - lo);
            if v < hi {
                v
            } else if hi == 0.0 {
                -f32::from_bits(1)
            } else if hi > 0.0 {
                f32::from_bits(hi.to_bits() - 1)
            } else {
                f32::from_bits(hi.to_bits() + 1)
            }
        }
    }

    /// Unbiased uniform draw from `[0, n)` by rejection: accept `x` only
    /// below the largest multiple of `n` that fits in 64 bits, then
    /// reduce. Rejection probability is `< 2^-32` for any `n < 2^32`.
    #[inline]
    fn below(rng: &mut StdRng, n: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let x = rng.next_u64();
            if x <= zone {
                return x % n;
            }
        }
    }

    macro_rules! uniform_unsigned {
        ($($t:ty),*) => {$(
            impl Uniform for $t {
                #[inline]
                fn sample(rng: &mut StdRng, lo: $t, hi: $t) -> $t {
                    lo + below(rng, (hi - lo) as u64) as $t
                }
            }
        )*};
    }

    uniform_unsigned!(usize, u32, u64);
}

/// One standard-normal (`N(0, 1)`) deviate.
///
/// Box–Muller on two unit draws, keeping only the cosine branch: two
/// stream values per call (a first draw at or below `f32::MIN_POSITIVE`
/// is redrawn, probability `2^-24`). Shared by tensor initialisers,
/// synthetic-data generators and noise injection, so they all agree on
/// one normal sampler.
pub fn normal_f32(rng: &mut StdRng) -> f32 {
    loop {
        let u1 = rng.gen_f32();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2 = rng.gen_f32();
        return (-2.0 * u1.ln()).sqrt() * (core::f32::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Reference streams from the published splitmix64.c (Vigna).
        for (seed, want) in [
            (
                0,
                [
                    0xE220_A839_7B1D_CDAF_u64,
                    0x6E78_9E6A_A1B9_65F4,
                    0x06C4_5D18_8009_454F,
                    0xF88B_B8A8_724C_81EC,
                    0x1B39_896A_51A8_749B,
                ],
            ),
            (
                0x0123_4567_89AB_CDEF,
                [
                    0x157A_3807_A48F_AA9D,
                    0xD573_529B_34A1_D093,
                    0x2F90_B72E_996D_CCBE,
                    0xA2D4_1933_4C46_67EC,
                    0x0140_4CE9_1493_8008,
                ],
            ),
        ] {
            let mut state = seed;
            for w in want {
                assert_eq!(splitmix64(&mut state), w);
            }
        }
    }

    #[test]
    fn xoshiro256pp_known_answers() {
        // Pinned against an independent implementation of the published
        // xoshiro256plusplus.c seeded via splitmix64.
        for (seed, want) in [
            (
                0,
                [
                    0x5317_5D61_490B_23DF_u64,
                    0x61DA_6F3D_C380_D507,
                    0x5C0F_DF91_EC9A_7BFC,
                    0x02EE_BF8C_3BBE_5E1A,
                    0x7ECA_04EB_AF4A_5EEA,
                ],
            ),
            (
                42,
                [
                    0xD076_4D4F_4476_689F,
                    0x519E_4174_576F_3791,
                    0xFBE0_7CFB_0C24_ED8C,
                    0xB37D_9F60_0CD8_35B8,
                    0xCB23_1C38_7484_6A73,
                ],
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            for w in want {
                assert_eq!(rng.next_u64(), w);
            }
        }
    }

    #[test]
    fn clone_forks_the_state() {
        let mut a = StdRng::seed_from_u64(1);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_f32_is_half_open() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_f32();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(-2.5f32..7.5);
            assert!((-2.5..7.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn int_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0usize; 7];
        for _ in 0..7_000 {
            seen[rng.gen_range(0usize..7)] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > 700, "value {i} drawn only {c} times");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(3usize..3);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements should not shuffle to identity");
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let run = |seed| {
            let mut v: Vec<usize> = (0..32).collect();
            StdRng::seed_from_u64(seed).shuffle(&mut v);
            v
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut empty: [u8; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn normal_moments_are_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let xs: Vec<f32> = (0..n).map(|_| normal_f32(&mut rng)).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_values_are_finite() {
        let mut rng = StdRng::seed_from_u64(10);
        assert!((0..10_000).all(|_| normal_f32(&mut rng).is_finite()));
    }
}
