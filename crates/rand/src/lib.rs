//! Offline, from-scratch drop-in for the subset of the `rand` 0.9 API this
//! workspace uses.
//!
//! The container this repository builds in has no crates-io access, so the
//! workspace vendors the few external crates it needs as minimal
//! re-implementations. This one covers exactly the surface the simulation
//! crates call:
//!
//! * [`rngs::StdRng`] — a seeded, deterministic generator
//!   (xoshiro256++ seeded through SplitMix64);
//! * [`SeedableRng::seed_from_u64`] — the only constructor;
//! * [`Rng::random`] and [`Rng::random_range`] — uniform draws over the
//!   primitive integer and float ranges the workspace samples;
//! * [`seq::SliceRandom::shuffle`] — Fisher–Yates shuffling.
//!
//! **Deliberately absent:** `thread_rng`, `rand::rng`, `from_entropy`, and
//! every other ambient-entropy source. DESIGN.md §5 requires every figure to
//! be a pure function of explicit seeds; `tests/lint.rs` bans the entropy
//! APIs and this shim simply does not provide them, so such code fails to
//! *compile*, not just to lint.
//!
//! The streams produced here are stable across runs and platforms but are
//! **not** bit-compatible with crates-io `rand`; all golden values in the
//! test suite are derived from this implementation.

/// A generator that can be constructed from a `u64` seed.
///
/// This is the only construction path the workspace permits: an explicit
/// seed, threaded down from a figure's command line or a test.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed`. Equal seeds yield equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling interface implemented by [`rngs::StdRng`].
///
/// Mirrors the `rand 0.9` method names (`random`, `random_range`) for the
/// types the workspace draws.
pub trait Rng {
    /// Returns the next 64 raw bits from the generator.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value of a primitive type.
    fn random<T: SampleUniformFull>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_full(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// Half-open float ranges exclude the upper bound; inclusive float
    /// ranges may return it. Integer ranges use a widening-multiply map,
    /// whose bias is negligible for the range widths used here.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_in(self)
    }
}

/// Types that can be drawn uniformly over their whole domain.
pub trait SampleUniformFull {
    /// Draws one value covering the full domain of the type.
    fn sample_full<R: Rng>(rng: &mut R) -> Self;
}

impl SampleUniformFull for u64 {
    fn sample_full<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleUniformFull for u32 {
    fn sample_full<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleUniformFull for bool {
    fn sample_full<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleUniformFull for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_full<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a value of type `T` can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value inside the range.
    fn sample_in<R: Rng>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        debug_assert!(self.start < self.end, "empty f64 range");
        let u: f64 = f64::sample_full(rng);
        let v = self.start + u * (self.end - self.start);
        // Floating rounding can land exactly on the (excluded) upper bound;
        // nudge back inside.
        if v >= self.end {
            f64::from_bits(self.end.to_bits() - 1)
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        debug_assert!(lo <= hi, "empty inclusive f64 range");
        // 53-bit draw in [0, 1].
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        lo + u * (hi - lo)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                debug_assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + draw) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                debug_assert!(lo <= hi, "empty inclusive integer range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generator types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// with its 256-bit state expanded from a `u64` seed via SplitMix64.
    ///
    /// Not bit-compatible with crates-io `StdRng` (which is ChaCha12); the
    /// workspace only requires that equal seeds give equal streams.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 stream expands the seed; guarantees a non-zero
            // xoshiro state for every seed, including 0.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl StdRng {
        /// Exports the full 256-bit xoshiro state.
        ///
        /// Together with [`StdRng::from_state`] this lets checkpointing code
        /// persist a generator mid-stream and later resume it at exactly the
        /// same position: `from_state(r.state())` continues `r`'s stream
        /// bit-for-bit.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a state exported by [`StdRng::state`].
        ///
        /// An all-zero state is a fixed point of xoshiro256++ (the stream
        /// would be constant zero); `state()` never returns one, but a
        /// corrupted snapshot might, so it is rejected by falling back to
        /// the seeded expansion of 0.
        pub fn from_state(s: [u64; 4]) -> StdRng {
            if s == [0; 4] {
                return StdRng::seed_from_u64(0);
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ step.
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related random operations.
pub mod seq {
    use super::Rng;

    /// In-place random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`; a pure function of the
        /// generator state.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = StdRng::seed_from_u64(0);
        let draws: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&v| v != 0));
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(2.0..3.0);
            assert!((2.0..3.0).contains(&v));
            let w = r.random_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn integer_ranges_cover_and_respect_bounds() {
        let mut r = StdRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: usize = r.random_range(0..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v: i64 = r.random_range(-5..=5);
            assert!((-5..=5).contains(&v));
        }
    }

    #[test]
    fn random_draws_full_domain_types() {
        let mut r = StdRng::seed_from_u64(11);
        let _: u64 = r.random();
        let _: u32 = r.random();
        let _: bool = r.random();
        let f: f64 = r.random();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn state_round_trip_resumes_stream_exactly() {
        let mut reference = StdRng::seed_from_u64(77);
        let mut live = StdRng::seed_from_u64(77);
        for _ in 0..257 {
            let _ = live.next_u64();
            let _ = reference.next_u64();
        }
        let mut resumed = StdRng::from_state(live.state());
        assert_eq!(resumed, live);
        for _ in 0..1000 {
            assert_eq!(resumed.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn from_state_rejects_all_zero_state() {
        let mut r = StdRng::from_state([0; 4]);
        assert_eq!(r, StdRng::seed_from_u64(0));
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&v| v != 0));
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(3));
        b.shuffle(&mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(a, sorted, "50 elements should not shuffle to identity");
    }
}
