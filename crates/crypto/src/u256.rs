//! A fixed-width 256-bit unsigned integer with modular arithmetic.
//!
//! This is the arithmetic core under the discrete-log constructions in this
//! crate (Schnorr signatures, Diffie–Hellman). Little-endian `u64` limbs;
//! all operations are constant-size loops (no heap).

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer (four little-endian 64-bit limbs).
///
/// ```
/// use vc_crypto::u256::U256;
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(9);
/// assert_eq!(a.wrapping_add(b), U256::from_u64(16));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` is least significant.
    limbs: [u64; 4],
}

/// A 512-bit product of two [`U256`] values (eight little-endian limbs).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// One.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };
    /// The largest representable value.
    pub const MAX: U256 = U256 { limbs: [u64::MAX; 4] };

    /// Creates from a `u64`.
    pub const fn from_u64(x: u64) -> Self {
        U256 { limbs: [x, 0, 0, 0] }
    }

    /// Creates from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Creates from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // i indexes both arrays
        for i in 0..4 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(word);
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        #[allow(clippy::needless_range_loop)] // i indexes both ends
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses a hex string (with or without `0x`, up to 64 digits).
    ///
    /// Returns `None` on invalid characters or overflow.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut out = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16)? as u64;
            out = out.shl_bits(4);
            out.limbs[0] |= d;
        }
        Some(out)
    }

    /// Formats as a 64-digit lowercase hex string (no prefix).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for i in (0..4).rev() {
            s.push_str(&format!("{:016x}", self.limbs[i]));
        }
        s
    }

    /// `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition (mod 2^256); also returns the carry.
    pub fn overflowing_add(&self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping addition (mod 2^256).
    pub fn wrapping_add(&self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction (mod 2^256); also returns the borrow.
    pub fn overflowing_sub(&self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Wrapping subtraction (mod 2^256).
    pub fn wrapping_sub(&self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 512-bit product.
    pub fn mul_wide(&self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512 { limbs: out }
    }

    /// Left shift by `n` bits (`n < 256`), dropping overflow.
    pub fn shl_bits(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Right shift by `n` bits (`n < 256`).
    pub fn shr_bits(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // i indexes shifted pairs
        for i in 0..4 - limb_shift {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Quotient and remainder of division by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        if *self < divisor {
            return (U256::ZERO, *self);
        }
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        for i in (0..self.bits()).rev() {
            remainder = remainder.shl_bits(1);
            if self.bit(i) {
                remainder.limbs[0] |= 1;
            }
            if remainder >= divisor {
                remainder = remainder.wrapping_sub(divisor);
                quotient.limbs[i / 64] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: U256) -> U256 {
        self.div_rem(m).1
    }

    /// `(self + rhs) mod m`, assuming both inputs are already `< m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero (debug: or if inputs are not reduced).
    pub fn add_mod(&self, rhs: U256, m: U256) -> U256 {
        debug_assert!(*self < m && rhs < m, "add_mod inputs must be reduced");
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum >= m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`, assuming both inputs are already `< m`.
    pub fn sub_mod(&self, rhs: U256, m: U256) -> U256 {
        debug_assert!(*self < m && rhs < m, "sub_mod inputs must be reduced");
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// `(self * rhs) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, rhs: U256, m: U256) -> U256 {
        self.mul_wide(rhs).rem(m)
    }

    /// `self^exp mod m` by fixed-window (k-ary, 4-bit) exponentiation.
    ///
    /// Result-identical to the square-and-multiply
    /// [`oracle::pow_mod`](crate::oracle::pow_mod) but processes the exponent
    /// a nibble at a time: one 15-entry power table up front, then four
    /// squarings plus at most one multiply per nibble instead of one multiply
    /// per set bit — ~6 fewer multiplies per 16 exponent bits on random
    /// exponents.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn pow_mod(&self, exp: U256, m: U256) -> U256 {
        assert!(!m.is_zero(), "zero modulus");
        if m == U256::ONE {
            return U256::ZERO;
        }
        let bits = exp.bits();
        if bits == 0 {
            return U256::ONE;
        }
        let base = self.rem(m);
        // table[j] = base^(j+1) mod m.
        let mut table = [base; 15];
        for j in 1..15 {
            table[j] = table[j - 1].mul_mod(base, m);
        }
        let top_window = (bits - 1) / 4;
        let mut result = U256::ONE;
        for w in (0..=top_window).rev() {
            if w != top_window {
                for _ in 0..4 {
                    result = result.mul_mod(result, m);
                }
            }
            let nibble = (exp.limbs[w / 16] >> ((w % 16) * 4)) & 0xF;
            if nibble != 0 {
                result = result.mul_mod(table[nibble as usize - 1], m);
            }
        }
        result
    }

    /// Modular inverse for a **prime** modulus, via Fermat's little theorem.
    ///
    /// Returns `None` when `self ≡ 0 (mod p)`.
    pub fn inv_mod_prime(&self, p: U256) -> Option<U256> {
        if self.rem(p).is_zero() {
            return None;
        }
        let exp = p.wrapping_sub(U256::from_u64(2));
        Some(self.pow_mod(exp, p))
    }
}

impl U512 {
    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 8] {
        self.limbs
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..8).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 512);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Remainder modulo a 256-bit divisor (bitwise long division).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        let mut remainder = U256::ZERO;
        for i in (0..self.bits()).rev() {
            // remainder = remainder * 2 + bit; remainder stays < 2m < 2^257,
            // so track the shifted-out carry explicitly.
            let carry = remainder.bit(255);
            remainder = remainder.shl_bits(1);
            if self.bit(i) {
                remainder.limbs[0] |= 1;
            }
            if carry || remainder >= m {
                remainder = remainder.wrapping_sub(m);
            }
        }
        remainder
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(x: u64) -> Self {
        U256::from_u64(x)
    }
}

impl From<u128> for U256 {
    fn from(x: u128) -> Self {
        U256 { limbs: [x as u64, (x >> 64) as u64, 0, 0] }
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for i in (0..8).rev() {
            write!(f, "{:016x}", self.limbs[i])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn u(x: u128) -> U256 {
        U256::from(x)
    }

    #[test]
    fn hex_roundtrip() {
        let v =
            U256::from_hex("0xdeadbeefcafebabe1234567890abcdef00112233445566778899aabbccddeeff")
                .unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe1234567890abcdef00112233445566778899aabbccddeeff");
        assert_eq!(U256::from_hex("ff").unwrap(), u(255));
        assert_eq!(U256::from_hex(""), None);
        assert_eq!(U256::from_hex("xyz"), None);
        assert_eq!(U256::from_hex(&"f".repeat(65)), None);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
            .unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(bytes[31], 0x20);
        assert_eq!(U256::from_be_bytes(&bytes), v);
    }

    #[test]
    fn add_sub_with_carries() {
        let a = U256::MAX;
        let (sum, carry) = a.overflowing_add(U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        assert_eq!(u(100).wrapping_sub(u(1)), u(99));
    }

    #[test]
    fn mul_wide_against_u128_oracle() {
        let a = 0xdead_beef_u64 as u128;
        let b = 0xcafe_babe_1234_u64 as u128;
        let wide = u(a).mul_wide(u(b));
        let expect = a * b;
        assert_eq!(wide.limbs()[0] as u128 | ((wide.limbs()[1] as u128) << 64), expect);
        assert_eq!(wide.limbs()[2], 0);
    }

    #[test]
    fn mul_wide_max_values() {
        // MAX * MAX = 2^512 - 2^257 + 1
        let wide = U256::MAX.mul_wide(U256::MAX);
        assert_eq!(wide.limbs()[0], 1);
        assert_eq!(wide.limbs()[7], u64::MAX);
        assert_eq!(wide.bits(), 512);
    }

    #[test]
    fn shifts() {
        let v = u(1);
        assert_eq!(v.shl_bits(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(v.shl_bits(255).shr_bits(255), v);
        assert_eq!(v.shl_bits(3), u(8));
        assert_eq!(u(0x80).shr_bits(4), u(8));
        let pattern = U256::from_hex("f0f0f0f0").unwrap();
        assert_eq!(pattern.shl_bits(0), pattern);
        assert_eq!(pattern.shl_bits(100).shr_bits(100), pattern);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(u(0x100).bits(), 9);
        assert_eq!(U256::MAX.bits(), 256);
        assert!(u(5).bit(0));
        assert!(!u(5).bit(1));
        assert!(u(5).bit(2));
    }

    #[test]
    fn div_rem_small_oracle() {
        for (a, b) in [(100u128, 7u128), (1, 1), (0, 5), (12345678901234567890, 97), (u128::MAX, 3)]
        {
            let (q, r) = u(a).div_rem(u(b));
            assert_eq!(q, u(a / b), "quotient {a}/{b}");
            assert_eq!(r, u(a % b), "remainder {a}%{b}");
        }
    }

    #[test]
    fn div_rem_large() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
            .unwrap();
        let b = U256::from_hex("10000000000000001").unwrap();
        let (q, r) = a.div_rem(b);
        // verify a = q*b + r and r < b
        let qb = q.mul_wide(b);
        let back = U256::from_limbs([qb.limbs()[0], qb.limbs()[1], qb.limbs()[2], qb.limbs()[3]])
            .wrapping_add(r);
        assert_eq!(back, a);
        assert!(r < b);
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        u(1).div_rem(U256::ZERO);
    }

    #[test]
    fn mod_arithmetic_oracle() {
        let m = u(1_000_000_007);
        for (a, b) in [(5u128, 7u128), (999_999_999, 999_999_999), (0, 123)] {
            assert_eq!(u(a).add_mod(u(b), m), u((a + b) % 1_000_000_007));
            assert_eq!(u(a).mul_mod(u(b), m), u((a * b) % 1_000_000_007));
        }
        assert_eq!(u(3).sub_mod(u(5), m), u(1_000_000_007 - 2));
    }

    #[test]
    fn u512_rem_oracle() {
        let a = u(u128::MAX);
        let wide = a.mul_wide(a); // (2^128-1)^2
        let m = u(1_000_000_007);
        // (2^128-1)^2 mod p computed via pow: ((2^128-1) mod p)^2 mod p
        let expect = (u128::MAX % 1_000_000_007).pow(2) % 1_000_000_007;
        assert_eq!(wide.rem(m), u(expect));
    }

    #[test]
    fn pow_mod_small_oracle() {
        let m = u(1_000_000_007);
        assert_eq!(u(2).pow_mod(u(10), m), u(1024));
        assert_eq!(u(5).pow_mod(U256::ZERO, m), U256::ONE);
        assert_eq!(u(7).pow_mod(u(1_000_000_006), m), U256::ONE, "Fermat little theorem");
        assert_eq!(u(3).pow_mod(u(4), U256::ONE), U256::ZERO, "mod 1 is zero");
    }

    #[test]
    fn pow_mod_group_known_answer() {
        // Values generated alongside the hardcoded Schnorr group:
        // g=4, p below, 4^5 mod p = 1024 and 4^0x1234567890abcdef is the y below.
        let p = U256::from_hex("a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b")
            .unwrap();
        assert_eq!(u(4).pow_mod(u(5), p), u(1024));
        let y = U256::from_hex("4c7df5ef507f1eaf801ace29ff42eeff97cbeb8b99dabd0ef07e5c3033122959")
            .unwrap();
        assert_eq!(u(4).pow_mod(u(0x1234567890abcdef), p), y);
    }

    #[test]
    fn pow_mod_matches_oracle() {
        let p = U256::from_hex("a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b")
            .unwrap();
        let q = U256::from_hex("51291b190891213a012601a293c3c92bf1331c9b131f97607440c5b1b9bf93b5")
            .unwrap();
        let two = u(2);
        // Includes the exponents of the two internal callers: the subgroup
        // check in `Element::from_bytes` (q) and `inv_mod_prime` (p−2, q−2).
        let exps = [
            U256::ZERO,
            U256::ONE,
            u(5),
            u(0x1234567890abcdef),
            q,
            p.wrapping_sub(two),
            q.wrapping_sub(two),
            U256::MAX,
        ];
        for base in [u(2), u(4), u(0xdeadbeef), p.wrapping_sub(U256::ONE)] {
            for m in [p, q] {
                for exp in exps {
                    assert_eq!(
                        base.pow_mod(exp, m),
                        oracle::pow_mod(base, exp, m),
                        "base={base} exp={exp} m={m}"
                    );
                }
            }
        }
        // Small-modulus corners.
        assert_eq!(u(3).pow_mod(u(4), U256::ONE), U256::ZERO, "mod 1 is zero");
        assert_eq!(u(2).pow_mod(u(10), u(1_000_000_007)), u(1024));
    }

    #[test]
    fn inverse_mod_prime() {
        let p = u(1_000_000_007);
        for a in [2u128, 3, 999, 123456789] {
            let inv = u(a).inv_mod_prime(p).unwrap();
            assert_eq!(u(a).mul_mod(inv, p), U256::ONE, "a={a}");
        }
        assert_eq!(U256::ZERO.inv_mod_prime(p), None);
        assert_eq!(p.inv_mod_prime(p), None, "p ≡ 0 mod p");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(u(5) < u(6));
        assert!(U256::from_limbs([0, 1, 0, 0]) > U256::from_limbs([u64::MAX, 0, 0, 0]));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        assert!(format!("{}", u(255)).ends_with("ff"));
        assert!(format!("{:?}", u(255)).starts_with("U256(0x"));
    }
}
