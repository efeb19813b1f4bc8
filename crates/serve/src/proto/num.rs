//! The number text of the wire: decimal `u64`s and shortest round-trip
//! `f64`s, written straight into the caller's buffer.
//!
//! Floats go through Ryū (Adams, "Ryū: fast float-to-string conversion",
//! PLDI 2018): the shortest decimal digits inside the value's rounding
//! interval, the closest of them to the exact value, an exact midpoint
//! rounded up (as `Display` rounds it, where Ryū would round to even). The
//! digits are then laid out exactly as `Display` lays them out — plain
//! decimal, never an exponent, `-0` for negative zero — so the bytes are
//! those of `format!("{v}")` and `str::parse::<f64>` reads back the same
//! bits.
//!
//! The two 128-bit power-of-five tables Ryū multiplies by are computed at
//! compile time from exact big integers ([`tables`]), never pasted; the
//! unit tests check every entry against its defining inequality.

/// Significand bits of an `f64`, without the implicit leading one.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each `5^i` in [`POW5`].
const POW5_BITS: i32 = 125;
/// Bits kept of each `2^k / 5^q` in [`POW5_INV`].
const POW5_INV_BITS: i32 = 125;
/// `POW5[i]` for `i` up to `-e2 - q` at the smallest subnormal exponent.
const POW5_LEN: usize = 326;
/// `POW5_INV[q]` for `q` up to `log10(2^e2)` at the largest exponent.
const POW5_INV_LEN: usize = 292;

/// `5^i` cut to its top [`POW5_BITS`] bits (truncated), and
/// `floor(2^(len(5^q) - 1 + POW5_INV_BITS) / 5^q) + 1`.
static POW5: [u128; POW5_LEN] = tables().0;
static POW5_INV: [u128; POW5_INV_LEN] = tables().1;

/// `"00" "01" ... "99"`: two decimal digits per table entry.
static DIGITS2: [u8; 200] = digit_pairs();

const fn digit_pairs() -> [u8; 200] {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
}

/// Little-endian 64-bit limbs: wide enough for `2^1000` and for `5^341`.
const LIMBS: usize = 16;
type Big = [u64; LIMBS];

/// Numerator exponent of the running quotient `floor(2^INV_N / 5^q)`:
/// above the largest `len(5^q) - 1 + POW5_INV_BITS` (916) any table entry
/// needs.
const INV_N: u32 = 1000;

const fn limb(b: &Big, k: usize) -> u64 {
    if k < LIMBS {
        b[k]
    } else {
        0
    }
}

const fn bit_len(b: &Big) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if b[k] != 0 {
            return k as u32 * 64 + 64 - b[k].leading_zeros();
        }
    }
    0
}

/// `(b >> shift) mod 2^128`.
const fn bits_at(b: &Big, shift: u32) -> u128 {
    let w = (shift / 64) as usize;
    let off = shift % 64;
    let lo = ((limb(b, w + 1) as u128) << 64) | limb(b, w) as u128;
    if off == 0 {
        lo
    } else {
        (lo >> off) | ((limb(b, w + 2) as u128) << (128 - off))
    }
}

const fn mul_small(mut b: Big, m: u64) -> Big {
    let mut carry = 0u128;
    let mut k = 0;
    while k < LIMBS {
        let t = b[k] as u128 * m as u128 + carry;
        b[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
    b
}

const fn div_small(mut b: Big, d: u64) -> Big {
    let mut rem = 0u128;
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        let t = (rem << 64) | b[k] as u128;
        b[k] = (t / d as u128) as u64;
        rem = t % d as u128;
    }
    b
}

/// Builds both tables from exact big integers: `5^i` by repeated
/// multiplication, and `floor(2^INV_N / 5^q)` by repeated division by 5
/// (a floor of floors is the floor of the whole quotient), shifted down
/// to the entry's width.
const fn tables() -> ([u128; POW5_LEN], [u128; POW5_INV_LEN]) {
    let mut pow5 = [0u128; POW5_LEN];
    let mut inv = [0u128; POW5_INV_LEN];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut x: Big = [0; LIMBS];
    x[(INV_N / 64) as usize] = 1 << (INV_N % 64);
    let mut i = 0;
    while i < POW5_LEN || i < POW5_INV_LEN {
        let len = bit_len(&p) as i32;
        if i < POW5_LEN {
            pow5[i] = if len >= POW5_BITS {
                bits_at(&p, (len - POW5_BITS) as u32)
            } else {
                bits_at(&p, 0) << (POW5_BITS - len)
            };
        }
        if i < POW5_INV_LEN {
            inv[i] = bits_at(&x, INV_N - (len - 1 + POW5_INV_BITS) as u32) + 1;
        }
        p = mul_small(p, 5);
        x = div_small(x, 5);
        i += 1;
    }
    (pow5, inv)
}

/// `ceil(log2(5^e))` for `e >= 1` (1 for `e == 0`): the bit length of
/// `5^e`. Exact for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, exact for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `floor(log10(5^e))`, exact for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) && count < p {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `(m * mul) >> j` for `m < 2^56`, `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, e10)` with `digits * 10^e10` inside the
/// rounding interval of the finite, non-zero `f64` with these IEEE fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // The interval's bounds belong to it when the significand is even
    // (round-half-even parsing lands on this value there).
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap halves at a power of two (except at the smallest
    // exponents, where the spacing does not change).
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mut vr, mut vp, mut vm);
    let e10;
    // Whether the lower bound is exactly representable at the current
    // digit count (and so may itself be the shortest output).
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITS + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q as i32 - k;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm has a trailing zero bit exactly when mm_shift is 1; mp =
            // mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0i32;
    // Digits are cut from `vr = floor(exact)`, so the first digit cut
    // decides the rounding: 5 or more rounds up, an exact midpoint too
    // (`Display` breaks ties upward, not to even).
    let output = if vm_is_trailing_zeros {
        // The rare case: the lower bound is exact and in the interval.
        let mut last_removed = 0u64;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(outside || last_removed >= 5)
    } else {
        // Two digits at a time while both still go, then maybe one.
        let mut round_up = false;
        while vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        if vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Writes the decimal digits of `v` right-aligned in `buf` and returns
/// where they start: eight digits per `u64` division, the rest two at a
/// time in `u32`.
fn write_digits<const N: usize>(buf: &mut [u8; N], mut v: u64) -> usize {
    let pair = |buf: &mut [u8; N], at: usize, d: u32| {
        let d = d as usize * 2;
        buf[at] = DIGITS2[d];
        buf[at + 1] = DIGITS2[d + 1];
    };
    let mut i = N;
    while v >= 100_000_000 {
        let r = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (hi, lo) = (r / 10_000, r % 10_000);
        i -= 8;
        pair(buf, i, hi / 100);
        pair(buf, i + 2, hi % 100);
        pair(buf, i + 4, lo / 100);
        pair(buf, i + 6, lo % 100);
    }
    let mut v = v as u32;
    while v >= 100 {
        i -= 2;
        pair(buf, i, v % 100);
        v /= 100;
    }
    if v >= 10 {
        i -= 2;
        pair(buf, i, v);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Appends the decimal digits of `v` (the bytes of `format!("{v}")`).
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    // Machine ids, task indexes and counts are mostly one or two digits.
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    if v < 100 {
        let d = v as usize * 2;
        out.extend_from_slice(&DIGITS2[d..d + 2]);
        return;
    }
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, v);
    out.extend_from_slice(&buf[start..]);
}

/// Most zeros between the point and the first digit of a text laid out
/// in the stack buffer: every value in `[1e-8, 1)` (`0.`, the zeros and
/// up to 17 digits fit its 32 bytes).
const INLINE_ZEROS: i32 = 7;

/// Appends `v` exactly as `format!("{v}")` renders it: plain decimal,
/// never an exponent, the shortest digits that parse back to the same
/// bits, `-0` for negative zero.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0x7ff {
        out.extend_from_slice(match (ieee_mantissa != 0, v < 0.0) {
            (true, _) => b"NaN".as_slice(),
            (false, false) => b"inf",
            (false, true) => b"-inf",
        });
        return;
    }
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (digits, e10) = shortest(ieee_mantissa, ieee_exponent);
    // The shortest digits never end in a zero: one fewer digit would
    // have been inside the interval too.
    debug_assert!(!digits.is_multiple_of(10), "{digits}e{e10}");
    // The text is laid out around the digits in one stack buffer of
    // zeros (the sign went out first) and appended at once, unless it
    // needs more zeros than the buffer holds.
    let mut buf = [b'0'; 32];
    let start = write_digits(&mut buf, digits);
    // Digits before the decimal point.
    let point = (buf.len() - start) as i32 + e10;
    let text = if e10 >= 0 {
        // An integer: its shortest digits, then zeros.
        out.extend_from_slice(&buf[start..]);
        out.resize(out.len() + e10 as usize, b'0');
        return;
    } else if point > 0 {
        // Move the integer digits one left, over the point's slot.
        let point = start + point as usize;
        for k in start..point {
            buf[k - 1] = buf[k];
        }
        buf[point - 1] = b'.';
        start - 1
    } else if -point <= INLINE_ZEROS {
        // `0.`, then `-point` zeros already in place.
        let text = start - 2 - (-point) as usize;
        buf[text + 1] = b'.';
        text
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(&buf[start..]);
        return;
    };
    out.extend_from_slice(&buf[text..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-side big integer, little-endian `u64` limbs, built by
    /// multiplication only — an independent check of the division the
    /// table generator uses.
    #[derive(Clone, PartialEq, Eq)]
    struct Nat(Vec<u64>);

    impl Nat {
        fn from_u128(v: u128) -> Nat {
            Nat(vec![v as u64, (v >> 64) as u64]).trimmed()
        }

        fn pow2(k: u32) -> Nat {
            let mut limbs = vec![0u64; k as usize / 64 + 1];
            limbs[k as usize / 64] = 1 << (k % 64);
            Nat(limbs)
        }

        fn pow5(i: usize) -> Nat {
            let mut n = Nat(vec![1]);
            for _ in 0..i {
                n = n.mul(&Nat(vec![5]));
            }
            n
        }

        fn trimmed(mut self) -> Nat {
            while self.0.len() > 1 && self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn bits(&self) -> u32 {
            let top = self.0.len() - 1;
            top as u32 * 64 + 64 - self.0[top].leading_zeros()
        }

        fn mul(&self, other: &Nat) -> Nat {
            let mut r = vec![0u64; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u128::from(a) * u128::from(b) + u128::from(r[i + j]) + carry;
                    r[i + j] = t as u64;
                    carry = t >> 64;
                }
                r[i + other.0.len()] = carry as u64;
            }
            Nat(r).trimmed()
        }
    }

    /// `a <= b` for trimmed values: by length, then limbs high to low.
    fn less_eq(a: &Nat, b: &Nat) -> bool {
        let key = |n: &Nat| (n.0.len(), n.0.iter().rev().copied().collect::<Vec<_>>());
        key(a) <= key(b)
    }

    #[test]
    fn pow5_entries_are_the_top_bits_of_each_power() {
        assert_eq!(POW5[0], 1u128 << 124);
        for (i, &e) in POW5.iter().enumerate() {
            let p = Nat::pow5(i);
            let len = p.bits();
            assert_eq!(128 - e.leading_zeros(), POW5_BITS as u32, "POW5[{i}] width");
            if len <= POW5_BITS as u32 {
                let shifted = Nat::from_u128(e);
                let want = p.mul(&Nat::pow2(POW5_BITS as u32 - len));
                assert!(shifted == want, "POW5[{i}] is not 5^{i} shifted up");
            } else {
                // e * 2^s <= 5^i < (e + 1) * 2^s
                let s = Nat::pow2(len - POW5_BITS as u32);
                assert!(less_eq(&Nat::from_u128(e).mul(&s), &p), "POW5[{i}] too big");
                assert!(
                    !less_eq(&Nat::from_u128(e + 1).mul(&s), &p),
                    "POW5[{i}] too small"
                );
            }
        }
    }

    #[test]
    fn pow5_inv_entries_are_one_past_the_floor_quotient() {
        assert_eq!(POW5_INV[0], (1u128 << 125) + 1);
        for (q, &e) in POW5_INV.iter().enumerate() {
            let p = Nat::pow5(q);
            let k = Nat::pow2(p.bits() - 1 + POW5_INV_BITS as u32);
            // (e - 1) * 5^q <= 2^k < e * 5^q
            assert!(
                less_eq(&Nat::from_u128(e - 1).mul(&p), &k),
                "POW5_INV[{q}] too big"
            );
            assert!(
                !less_eq(&Nat::from_u128(e).mul(&p), &k),
                "POW5_INV[{q}] too small"
            );
        }
    }

    #[test]
    fn bit_estimates_match_the_tables_range() {
        for e in 0..POW5_LEN.max(POW5_INV_LEN) {
            assert_eq!(pow5_bits(e as i32) as u32, Nat::pow5(e).bits(), "5^{e}");
        }
    }

    #[test]
    fn digit_pairs_and_integers_match_display() {
        for v in [0u64, 9, 10, 99, 100, 12_345, u64::MAX, 1 << 53] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }
}
