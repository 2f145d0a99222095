//! Shortest round-trip decimal digits of an `f64`, after Ryū (Ulf Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018).
//!
//! [`shortest`] turns a positive finite `f64` into the decimal
//! `digits × 10^exponent` with the fewest digits that parses back to the
//! same bits. Among decimals of that length it picks the one closest to the
//! exact value of the `f64`. An exact tie rounds half up, as `Display` for
//! `f64` does, where Ryū's reference rounds half to even: `2^50 + 0.25`
//! writes `1125899906842624.3`. `digits` has no trailing zero.
//!
//! Ryū scales the value and both ends of its rounding interval by a power
//! of ten with one 64 × 128-bit multiplication each. The 128-bit multipliers
//! are the static tables [`POW5`] and [`POW5_INV`], computed at compile time
//! from exact big integers; a test checks each entry against its definition.

/// Bits kept of each power of five and of each inverse.
const POW5_BITS: i32 = 125;

/// `POW5[i]` is 5^i cut to its top 125 bits (shifted left when 5^i is
/// shorter). Used for binary exponents below zero.
static POW5: [u128; 326] = pow5_table();

/// `POW5_INV[q]` is ⌊2^(bitlen(5^q) − 1 + 125) / 5^q⌋ + 1. Used for binary
/// exponents from zero up.
static POW5_INV: [u128; 291] = pow5_inv_table();

/// The shortest `(digits, exponent)` with `digits × 10^exponent`
/// round-tripping to `x`, which must be finite and greater than zero.
pub(super) fn shortest(x: f64) -> (u64, i32) {
    debug_assert!(x.is_finite() && x > 0.0, "{x}");
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as i32;
    // x = mv · 2^e2 with mv = 4 · m2: the factor 4 makes the ends of the
    // rounding interval, mp and mm, integers too.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - 1023 - 52 - 2)
    } else {
        (ieee_mantissa | 1 << 52, ieee_exponent - 1023 - 52 - 2)
    };
    // Round-half-even parsing reads a bound back to x when m2 is even.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mp = mv + 2;
    // Below a power of two the next smaller f64 is half as far away, except
    // at the smallest normal exponent, whose neighbour is a subnormal.
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale mv, mp and mm by 2^e2 / 10^e10, rounding down, and note whether
    // the lower bound mm stays exact (every digit it loses is a zero).
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let mul = POW5_INV[q as usize];
        let shift = -e2 + q + POW5_BITS + pow5bits(q) - 1;
        (vr, vp, vm) =
            (mul_shift(mv, mul, shift), mul_shift(mp, mul, shift), mul_shift(mm, mul, shift));
        // At most one of mm, mv and mp is a multiple of 5. If it is mv,
        // both bounds end in a nonzero digit: neither equals a shorter
        // decimal, so neither needs a check.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else if pow5_factor(mp) >= q {
                // The exact upper bound is excluded.
                vp -= 1;
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let mul = POW5[i as usize];
        let shift = q - (pow5bits(i) - POW5_BITS);
        (vr, vp, vm) =
            (mul_shift(mv, mul, shift), mul_shift(mp, mul, shift), mul_shift(mm, mul, shift));
        if q <= 1 {
            // A bound is exact when its m has q trailing zero bits. Taking
            // q as 1 is enough here: mp = mv + 2 always has one, and mm has
            // one when it is mv − 2.
            if accept_bounds {
                vm_is_trailing_zeros = mm.is_multiple_of(2);
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal, then
    // round vr by the digits it lost.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // Rare: the lower bound is exact and accepted, so it may be the
        // answer itself as long as every digit it lost was a zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// ⌊m · mul / 2^shift⌋ from two 64 × 64-bit products. Every shift Ryū
/// takes is in 64..128, so the masked shift below is exact and compiles to
/// one double-word shift.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    debug_assert!((64..128).contains(&shift), "{shift}");
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> ((shift - 64) & 63)) as u64
}

/// How many times 5 divides `v`, which must be nonzero.
fn pow5_factor(mut v: u64) -> i32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

/// ⌊log10(2^e)⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// ⌊log10(5^e)⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// The bit length of 5^e, ⌈log2(5^e)⌉ (1 for e = 0), for 0 ≤ e ≤ 3528.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Limbs of the little-endian big integers the tables are computed with:
/// 5^325 < 2^755 and 2^831 both fit in 13 × 64 bits.
const LIMBS: usize = 13;

const fn pow5_table<const N: usize>() -> [u128; N] {
    let mut table = [0; N];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = pow5bits(i as i32);
        table[i] = if len <= POW5_BITS {
            low_u128(&pow, 0) << (POW5_BITS - len)
        } else {
            low_u128(&pow, (len - POW5_BITS) as u32)
        };
        // pow = 5^(i + 1)
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let t = pow[k] as u128 * 5 + carry;
            pow[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table<const N: usize>() -> [u128; N] {
    const TOP: i32 = 64 * LIMBS as i32 - 1;
    let mut table = [0; N];
    // quot = ⌊2^TOP / 5^q⌋, one floor division by 5 per step: ⌊⌊a/b⌋/c⌋
    // is ⌊a/(bc)⌋, so shifting it right gives ⌊2^j / 5^q⌋ for any j ≤ TOP.
    let mut quot = [0u64; LIMBS];
    quot[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < table.len() {
        let j = pow5bits(q as i32) - 1 + POW5_BITS;
        table[q] = low_u128(&quot, (TOP - j) as u32) + 1;
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let t = rem << 64 | quot[k] as u128;
            quot[k] = (t / 5) as u64;
            rem = t % 5;
        }
        q += 1;
    }
    table
}

/// The low 128 bits of `x >> shift`.
const fn low_u128(x: &[u64; LIMBS], shift: u32) -> u128 {
    let k = (shift / 64) as usize;
    let r = shift % 64;
    let low = limb(x, k) as u128 | (limb(x, k + 1) as u128) << 64;
    if r == 0 {
        low
    } else {
        low >> r | (limb(x, k + 2) as u128) << (128 - r)
    }
}

const fn limb(x: &[u64; LIMBS], k: usize) -> u64 {
    if k < LIMBS {
        x[k]
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// A little-endian base-2^32 natural number with no leading zero limb:
    /// an exact reference that shares only the definitions with the
    /// `const fn`s that compute the tables.
    struct Nat(Vec<u32>);

    impl Nat {
        fn pow2(n: u32) -> Nat {
            let mut limbs = vec![0; n as usize / 32 + 1];
            limbs[n as usize / 32] = 1 << (n % 32);
            Nat(limbs)
        }

        fn mul(&self, m: u128) -> Nat {
            let factors = [m as u32, (m >> 32) as u32, (m >> 64) as u32, (m >> 96) as u32];
            let mut out = vec![0u32; self.0.len() + factors.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in factors.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + factors.len()] = carry as u32;
            }
            while out.last() == Some(&0) {
                out.pop();
            }
            Nat(out)
        }

        fn bit_len(&self) -> u32 {
            let top = self.0.last().expect("nonzero");
            32 * (self.0.len() as u32 - 1) + (32 - top.leading_zeros())
        }

        /// Bits `shift..shift + 128`.
        fn bits_from(&self, shift: u32) -> u128 {
            (0..128)
                .filter(|b| {
                    let at = (shift + b) as usize;
                    self.0.get(at / 32).is_some_and(|limb| limb >> (at % 32) & 1 == 1)
                })
                .fold(0, |acc, b| acc | 1 << b)
        }

        fn cmp(&self, other: &Nat) -> Ordering {
            let (a, b) = (&self.0, &other.0);
            a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
        }
    }

    #[test]
    fn pow5_table_holds_the_top_125_bits_of_each_power_of_five() {
        let mut pow = Nat(vec![1]);
        for (i, &entry) in POW5.iter().enumerate() {
            let len = pow.bit_len();
            assert_eq!(pow5bits(i as i32) as u32, len, "bit length of 5^{i}");
            let expected =
                if len <= 125 { pow.bits_from(0) << (125 - len) } else { pow.bits_from(len - 125) };
            assert_eq!(entry, expected, "5^{i}");
            pow = pow.mul(5);
        }
    }

    #[test]
    fn pow5_inv_table_rounds_each_inverse_power_of_five_up() {
        let mut pow = Nat(vec![1]);
        for (q, &entry) in POW5_INV.iter().enumerate() {
            let len = pow.bit_len();
            assert_eq!(pow5bits(q as i32) as u32, len, "bit length of 5^{q}");
            // entry − 1 = ⌊2^j / 5^q⌋  ⟺  (entry − 1)·5^q ≤ 2^j < entry·5^q
            let two_j = Nat::pow2(len - 1 + 125);
            assert_ne!(pow.mul(entry - 1).cmp(&two_j), Ordering::Greater, "5^-{q}");
            assert_eq!(two_j.cmp(&pow.mul(entry)), Ordering::Less, "5^-{q}");
            pow = pow.mul(5);
        }
    }

    #[test]
    fn tables_cover_every_binary_exponent() {
        for ieee_exponent in 0..2047 {
            let x = f64::from_bits(ieee_exponent << 52 | 1);
            let (digits, exponent) = shortest(x);
            let back: f64 = format!("{digits}e{exponent}").parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e}");
        }
    }
}
