//! Magic numbers for dividing by a constant with a multiply-high
//! (Granlund & Montgomery, "Division by Invariant Integers using
//! Multiplication", PLDI 1994; Hacker's Delight, §10).
//!
//! `bits` is the operation width, 32 or 64. Divisors are given as their
//! `bits`-wide bit patterns; the routines are exact in `u128` arithmetic.

/// Unsigned division of an `N`-bit `x` by `d` (`N = bits`):
/// `t = mulhi(x, m)`; then `q = t >> shift`, or, when `add` is set (the
/// ideal multiplier needs `N + 1` bits), `q = (t + ((x - t) >> 1)) >> (shift - 1)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct UnsignedMagic {
    pub(crate) m: u64,
    pub(crate) shift: u32,
    pub(crate) add: bool,
}

/// The shortest unsigned magic for `d`, which must be at least 3 and not a
/// power of two.
pub(crate) fn unsigned_magic(d: u64, bits: u32) -> UnsignedMagic {
    debug_assert!(d >= 3 && !d.is_power_of_two() && (bits == 64 || d >> bits == 0));
    let d = d as u128;
    let l = 128 - (d - 1).leading_zeros(); // ceil(log2 d)
                                           // floor(m*x / 2^p) == floor(x / d) for every x < 2^N when
                                           // 2^p <= m*d <= 2^p + 2^(p-N) (Granlund & Montgomery, Thm. 4.2); an
                                           // m < 2^N needs m*d < 2^128, so p stays below 128
    for shift in (0..=l).take_while(|s| bits + s < 128) {
        let p = bits + shift;
        let m = (1u128 << p).div_ceil(d);
        if m >> bits == 0 && m * d - (1u128 << p) <= 1u128 << shift {
            return UnsignedMagic {
                m: m as u64,
                shift,
                add: false,
            };
        }
    }
    // the N+1-bit multiplier ceil(2^(N+l) / d), less its top bit; d is not
    // a power of two, so ceil(2^128 / d) = floor((2^128 - 1) / d) + 1
    let p = bits + l;
    let m = if p == 128 {
        u128::MAX / d + 1
    } else {
        (1u128 << p).div_ceil(d)
    };
    let m = m - (1u128 << bits);
    UnsignedMagic {
        m: m as u64,
        shift: l,
        add: true,
    }
}

/// Signed division of an `N`-bit `x` by `d`: `t = mulhs(x, m)`, plus `x`
/// when `d > 0` and `m` is negative, minus `x` when `d < 0` and `m` is
/// positive; then `t >>= shift` (arithmetic) and `q = t + (t >>> (N - 1))`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct SignedMagic {
    /// The `N`-bit multiplier, sign-extended.
    pub(crate) m: i64,
    pub(crate) shift: u32,
}

/// The signed magic for `d` (sign-extended from `bits`), whose magnitude
/// must be at least 3 and not a power of two (Hacker's Delight, Fig. 10-1).
pub(crate) fn signed_magic(d: i64, bits: u32) -> SignedMagic {
    let ad = d.unsigned_abs() as u128;
    debug_assert!(ad >= 3 && !ad.is_power_of_two() && ad < 1u128 << (bits - 1));
    let t = (1u128 << (bits - 1)) + (d < 0) as u128;
    let anc = t - 1 - t % ad; // |nc|, the largest |n| with rem(n, d) = d - 1
    let mut p = bits;
    while (1u128 << p) <= anc * (ad - (1u128 << p) % ad) {
        p += 1;
    }
    let m = ((1u128 << p) / ad + 1) as i128;
    let m = if d < 0 { -m } else { m };
    // sign-extend the N-bit pattern
    let m = ((m as u64) << (64 - bits)) as i64 >> (64 - bits);
    SignedMagic { m, shift: p - bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpde_core::rng::Xoshiro256;

    fn mask(bits: u32) -> u128 {
        (1u128 << bits) - 1
    }

    /// The emitted unsigned sequence, evaluated in `N`-bit arithmetic.
    fn udiv(mg: UnsignedMagic, x: u64, bits: u32) -> u64 {
        let x = x as u128;
        let t = (x * mg.m as u128) >> bits;
        let q = if mg.add {
            (t + (((x - t) & mask(bits)) >> 1)) >> (mg.shift - 1)
        } else {
            t >> mg.shift
        };
        (q & mask(bits)) as u64
    }

    /// The emitted signed sequence, evaluated in `N`-bit arithmetic.
    fn sdiv(mg: SignedMagic, d: i64, x: i64, bits: u32) -> i64 {
        let sext = |v: i128| ((v as u64) << (64 - bits)) as i64 as i128 >> (64 - bits);
        let (x, m) = (x as i128, mg.m as i128);
        let mut t = (x * m) >> bits;
        if d > 0 && m < 0 {
            t = sext(t + x);
        }
        if d < 0 && m > 0 {
            t = sext(t - x);
        }
        t >>= mg.shift;
        let sign = ((t as u128 & mask(bits)) >> (bits - 1)) as i128;
        sext(t + sign) as i64
    }

    fn dividends(d: u64, bits: u32, rng: &mut Xoshiro256) -> Vec<u64> {
        let max = mask(bits) as u64;
        let mut xs = vec![
            0,
            1,
            d - 1,
            d,
            d.wrapping_add(1),
            max,
            max - 1,
            max / 2,
            max / 2 + 1,
        ];
        xs.extend([max - max % d, (max - max % d).wrapping_sub(1)]);
        xs.extend((0..16).map(|_| rng.next_u64() & max));
        xs.into_iter().map(|x| x & max).collect()
    }

    fn check_unsigned(d: u64, bits: u32, rng: &mut Xoshiro256) {
        let mg = unsigned_magic(d, bits);
        if !mg.add {
            // the condition that proves it for every dividend
            let p = bits + mg.shift;
            let e = mg.m as u128 * d as u128 - (1u128 << p);
            assert!(e <= 1u128 << mg.shift, "u{bits} / {d}: {mg:?}");
        }
        for x in dividends(d, bits, rng) {
            assert_eq!(udiv(mg, x, bits), x / d, "u{bits}: {x} / {d} with {mg:?}");
        }
    }

    fn check_signed(d: i64, bits: u32, rng: &mut Xoshiro256) {
        let mg = signed_magic(d, bits);
        let (min, max) = (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1);
        let ad = d.unsigned_abs() as i128;
        let mut xs = vec![
            0,
            1,
            -1,
            min,
            min + 1,
            max,
            max - 1,
            ad - 1,
            ad,
            ad + 1,
            -ad,
            -ad - 1,
        ];
        xs.extend((0..16).map(|_| rng.next_u64() as i64 as i128 >> (64 - bits)));
        for x in xs {
            let want = (x / d as i128) as i64;
            assert_eq!(
                sdiv(mg, d, x as i64, bits),
                want,
                "i{bits}: {x} / {d} with {mg:?}"
            );
        }
    }

    #[test]
    fn magic_numbers_agree_with_u128_division() {
        let mut rng = Xoshiro256::new(0x00d1_5151);
        let mut divisors: Vec<u64> = (3..=10_000).collect();
        divisors.extend((0..2_000).map(|_| rng.next_u64() >> rng.below(64)));
        divisors.extend([u32::MAX as u64, u32::MAX as u64 - 1, u64::MAX, u64::MAX - 1]);
        for &d in &divisors {
            for bits in [32, 64] {
                let d = d & mask(bits) as u64;
                if d >= 3 && !d.is_power_of_two() {
                    check_unsigned(d, bits, &mut rng);
                }
                let ds = ((d << (64 - bits)) as i64) >> (64 - bits);
                let ad = ds.unsigned_abs();
                if ad >= 3 && !ad.is_power_of_two() {
                    check_signed(ds, bits, &mut rng);
                    check_signed(-ds, bits, &mut rng);
                }
            }
        }
    }

    #[test]
    fn known_magic_numbers() {
        // gcc's and Hacker's Delight's constants
        let u = |m, shift, add| UnsignedMagic { m, shift, add };
        assert_eq!(unsigned_magic(5, 64), u(0xcccc_cccc_cccc_cccd, 2, false));
        assert_eq!(unsigned_magic(5, 32), u(0xcccc_cccd, 2, false));
        assert_eq!(unsigned_magic(7, 32), u(0x2492_4925, 3, true));
        assert_eq!(unsigned_magic(7, 64), u(0x2492_4924_9249_2493, 3, true));
        let s = |m, shift| SignedMagic { m, shift };
        assert_eq!(signed_magic(7, 32), s(0x9249_2493_u32 as i32 as i64, 2));
        assert_eq!(signed_magic(-7, 32), s(0x6db6_db6d, 2));
        assert_eq!(signed_magic(3, 32), s(0x5555_5556, 0));
        assert_eq!(signed_magic(5, 64), s(0x6666_6666_6666_6667, 1));
    }
}
