//! The discrete-log group used by all public-key operations in the
//! workspace: the order-`q` subgroup of quadratic residues of `Z_p^*` for a
//! fixed 256-bit safe prime `p = 2q + 1`, generated by `g = 4`.
//!
//! The parameters were generated once with a seeded Miller–Rabin search (see
//! DESIGN.md) and are hardcoded so every run agrees. This is real
//! discrete-log arithmetic with realistic costs — which is what the
//! comparative protocol experiments need — but a 256-bit safe-prime group is
//! **not** a production security level; a deployment would use an elliptic
//! curve group at equivalent cost.

use crate::sha256::sha256_parts;
use crate::u256::U256;
use std::fmt;
use std::sync::OnceLock;

/// The fixed group parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupParams {
    /// The safe prime modulus `p`.
    pub p: U256,
    /// The subgroup order `q = (p - 1) / 2` (prime).
    pub q: U256,
    /// The generator of the order-`q` subgroup.
    pub g: U256,
}

const P_HEX: &str = "a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b";
const Q_HEX: &str = "51291b190891213a012601a293c3c92bf1331c9b131f97607440c5b1b9bf93b5";

/// Returns the global group parameters.
pub fn group() -> &'static GroupParams {
    static PARAMS: OnceLock<GroupParams> = OnceLock::new();
    PARAMS.get_or_init(|| GroupParams {
        p: U256::from_hex(P_HEX).expect("valid hardcoded prime"),
        q: U256::from_hex(Q_HEX).expect("valid hardcoded order"),
        g: U256::from_u64(4),
    })
}

/// 4-bit fixed-base window width: 64 nibble positions across a 256-bit
/// exponent, 15 nonzero digits per position.
const BASEPOW_WINDOWS: usize = 64;

/// The fixed-base precomputation table for `g`: `table[w][j] = g^((j+1)·16^w)
/// mod p`. Lazily built once (~960 modular multiplies, ~30 KB) and shared by
/// every [`Element::base_pow`] thereafter, which then costs at most one
/// multiply per nonzero exponent nibble (~64) instead of a full
/// square-and-multiply chain (~384 multiplies).
fn basepow_table() -> &'static [[U256; 15]; BASEPOW_WINDOWS] {
    static TABLE: OnceLock<Box<[[U256; 15]; BASEPOW_WINDOWS]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let params = group();
        let mut table = Box::new([[U256::ONE; 15]; BASEPOW_WINDOWS]);
        let mut window_base = params.g;
        for row in table.iter_mut() {
            let mut acc = window_base;
            for entry in row.iter_mut() {
                *entry = acc;
                acc = acc.mul_mod(window_base, params.p);
            }
            // After 15 multiplies acc = window_base^16: the next row's base.
            window_base = acc;
        }
        table
    })
}

/// A scalar: an exponent reduced modulo the group order `q`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(U256);

impl Scalar {
    /// The zero scalar.
    pub fn zero() -> Scalar {
        Scalar(U256::ZERO)
    }

    /// The unit scalar.
    pub fn one() -> Scalar {
        Scalar(U256::ONE)
    }

    /// Reduces an arbitrary 256-bit value modulo `q`.
    pub fn from_u256(v: U256) -> Scalar {
        Scalar(v.rem(group().q))
    }

    /// Creates from a `u64`.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar::from_u256(U256::from_u64(v))
    }

    /// Derives a scalar by hashing the given parts (hash-to-scalar).
    pub fn hash_to_scalar(parts: &[&[u8]]) -> Scalar {
        let digest = sha256_parts(parts);
        Scalar::from_u256(U256::from_be_bytes(&digest))
    }

    /// The underlying reduced integer.
    pub fn as_u256(&self) -> U256 {
        self.0
    }

    /// 32-byte big-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Decodes 32 big-endian bytes (reduced mod `q`).
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        Scalar::from_u256(U256::from_be_bytes(bytes))
    }

    /// `(self + rhs) mod q`.
    pub fn add(&self, rhs: Scalar) -> Scalar {
        Scalar(self.0.add_mod(rhs.0, group().q))
    }

    /// `(self - rhs) mod q`.
    pub fn sub(&self, rhs: Scalar) -> Scalar {
        Scalar(self.0.sub_mod(rhs.0, group().q))
    }

    /// `(self * rhs) mod q`.
    pub fn mul(&self, rhs: Scalar) -> Scalar {
        Scalar(self.0.mul_mod(rhs.0, group().q))
    }

    /// Multiplicative inverse mod `q`, or `None` for zero.
    pub fn invert(&self) -> Option<Scalar> {
        self.0.inv_mod_prime(group().q).map(Scalar)
    }

    /// `true` for the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0)
    }
}

/// A group element: a member of the order-`q` subgroup of `Z_p^*`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Element(pub(crate) U256);

impl Element {
    /// The identity element.
    pub fn identity() -> Element {
        Element(U256::ONE)
    }

    /// The generator `g`.
    pub fn generator() -> Element {
        Element(group().g)
    }

    /// `g^e` — fixed-base exponentiation via the precomputed window table.
    pub fn base_pow(e: Scalar) -> Element {
        let params = group();
        let table = basepow_table();
        let limbs = e.0.limbs();
        let mut acc = U256::ONE;
        for (w, row) in table.iter().enumerate() {
            let nibble = (limbs[w / 16] >> ((w % 16) * 4)) & 0xF;
            if nibble != 0 {
                acc = acc.mul_mod(row[nibble as usize - 1], params.p);
            }
        }
        Element(acc)
    }

    /// `self^e` — windowed exponentiation.
    pub fn pow(&self, e: Scalar) -> Element {
        Element(self.0.pow_mod(e.0, group().p))
    }

    /// Group operation: `self * rhs mod p`.
    pub fn mul(&self, rhs: Element) -> Element {
        Element(self.0.mul_mod(rhs.0, group().p))
    }

    /// Multiplicative inverse mod `p`.
    ///
    /// # Panics
    ///
    /// Never panics for genuine group elements (which are nonzero mod p).
    pub fn invert(&self) -> Element {
        Element(self.0.inv_mod_prime(group().p).expect("group elements are invertible"))
    }

    /// The underlying integer representative.
    pub fn as_u256(&self) -> U256 {
        self.0
    }

    /// 32-byte big-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Decodes 32 big-endian bytes; returns `None` unless the value is a
    /// valid member of the order-`q` subgroup (checked via `v^q == 1`).
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Element> {
        let v = U256::from_be_bytes(bytes);
        let params = group();
        if v.is_zero() || v >= params.p {
            return None;
        }
        if v.pow_mod(params.q, params.p) != U256::ONE {
            return None;
        }
        Some(Element(v))
    }

    /// `true` for the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == U256::ONE
    }
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Element({})", self.0)
    }
}

/// Simultaneous multi-exponentiation (windowed Straus interleaving):
/// computes `Π bases[i] ^ exps[i]` sharing one squaring chain across all
/// bases, processing exponents in 4-bit windows against per-base tables of
/// the 15 odd-and-even small powers.
///
/// For `k` terms this costs ~256 squarings + `k·(14 table + ~60 window)`
/// multiplies instead of the `k·(~320)` of separate [`Element::pow`] calls
/// — the amortization that makes batch signature verification worthwhile
/// (experiments E11/E20). Short exponents (e.g. 128-bit batch weights) pay
/// only their own nonzero windows.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn multi_exp(bases: &[Element], exps: &[Scalar]) -> Element {
    assert_eq!(bases.len(), exps.len(), "bases and exponents must pair up");
    if bases.is_empty() {
        return Element::identity();
    }
    let params = group();
    let max_bits = exps.iter().map(|e| e.0.bits()).max().unwrap_or(0);
    if max_bits == 0 {
        return Element::identity();
    }
    // table[i][j] = bases[i]^(j+1) for the 4-bit window digits 1..=15.
    let tables: Vec<[U256; 15]> = bases
        .iter()
        .map(|base| {
            let mut t = [base.0; 15];
            for j in 1..15 {
                t[j] = t[j - 1].mul_mod(base.0, params.p);
            }
            t
        })
        .collect();
    let top_window = (max_bits - 1) / 4;
    let mut acc = U256::ONE;
    for w in (0..=top_window).rev() {
        if w != top_window {
            for _ in 0..4 {
                acc = acc.mul_mod(acc, params.p);
            }
        }
        for (table, exp) in tables.iter().zip(exps) {
            let nibble = (exp.0.limbs()[w / 16] >> ((w % 16) * 4)) & 0xF;
            if nibble != 0 {
                acc = acc.mul_mod(table[nibble as usize - 1], params.p);
            }
        }
    }
    Element(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn parameters_are_consistent() {
        let params = group();
        // p = 2q + 1
        let two_q_plus_1 = params.q.wrapping_add(params.q).wrapping_add(U256::ONE);
        assert_eq!(two_q_plus_1, params.p);
        // g has order q: g^q == 1 and g != 1.
        assert_eq!(params.g.pow_mod(params.q, params.p), U256::ONE);
        assert_ne!(params.g, U256::ONE);
    }

    #[test]
    fn generator_known_answer() {
        // 4^5 mod p = 1024 (generated alongside the parameters).
        let e = Element::base_pow(Scalar::from_u64(5));
        assert_eq!(e.as_u256(), U256::from_u64(1024));
        assert_eq!(oracle::base_pow(Scalar::from_u64(5)), e);
    }

    #[test]
    fn base_pow_table_matches_reference() {
        // The table path must agree with square-and-multiply on edge
        // exponents and a spread of hash-derived ones.
        let mut exps = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(u64::MAX),
            Scalar::from_u256(group().q.wrapping_sub(U256::ONE)),
        ];
        for i in 0..16u64 {
            exps.push(Scalar::hash_to_scalar(&[b"basepow", &i.to_be_bytes()]));
        }
        for e in exps {
            assert_eq!(Element::base_pow(e), oracle::base_pow(e), "exp {e:?}");
        }
        assert_eq!(Element::base_pow(Scalar::zero()), Element::identity());
    }

    #[test]
    fn exponent_laws() {
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        // g^a * g^b == g^(a+b)
        let lhs = Element::base_pow(a).mul(Element::base_pow(b));
        let rhs = Element::base_pow(a.add(b));
        assert_eq!(lhs, rhs);
        // (g^a)^b == (g^b)^a
        assert_eq!(Element::base_pow(a).pow(b), Element::base_pow(b).pow(a));
    }

    #[test]
    fn identity_and_inverse() {
        let x = Element::base_pow(Scalar::from_u64(42));
        assert_eq!(x.mul(x.invert()), Element::identity());
        assert_eq!(x.mul(Element::identity()), x);
        assert!(Element::identity().is_identity());
    }

    #[test]
    fn scalar_field_laws() {
        let a = Scalar::from_u64(17);
        let b = Scalar::from_u64(5);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.mul(b), b.mul(a));
        let inv = b.invert().unwrap();
        assert_eq!(b.mul(inv), Scalar::one());
        assert_eq!(Scalar::zero().invert(), None);
    }

    #[test]
    fn scalar_reduction_wraps() {
        let q = group().q;
        let over = Scalar::from_u256(q.wrapping_add(U256::from_u64(3)));
        assert_eq!(over, Scalar::from_u64(3));
    }

    #[test]
    fn hash_to_scalar_deterministic_and_spread() {
        let a = Scalar::hash_to_scalar(&[b"hello"]);
        let b = Scalar::hash_to_scalar(&[b"hello"]);
        let c = Scalar::hash_to_scalar(&[b"world"]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(Scalar::hash_to_scalar(&[b"he", b"llo"]), a);
    }

    #[test]
    fn element_bytes_roundtrip_and_validation() {
        let x = Element::base_pow(Scalar::from_u64(7777));
        let bytes = x.to_bytes();
        assert_eq!(Element::from_bytes(&bytes), Some(x));
        // Zero is invalid.
        assert_eq!(Element::from_bytes(&[0u8; 32]), None);
        // p itself (>= p) is invalid.
        assert_eq!(Element::from_bytes(&group().p.to_be_bytes()), None);
        // A quadratic non-residue is invalid: -1 mod p has order 2, not q.
        let minus_one = group().p.wrapping_sub(U256::ONE);
        assert_eq!(Element::from_bytes(&minus_one.to_be_bytes()), None);
        // The identity and the generator pass the `v^q == 1` check.
        assert_eq!(Element::from_bytes(&U256::ONE.to_be_bytes()), Some(Element::identity()));
        assert_eq!(Element::from_bytes(&group().g.to_be_bytes()), Some(Element::generator()));
    }

    #[test]
    fn scalar_bytes_roundtrip() {
        let s = Scalar::from_u64(0xdeadbeef);
        assert_eq!(Scalar::from_bytes(&s.to_bytes()), s);
    }

    #[test]
    fn multi_exp_matches_naive() {
        let bases: Vec<Element> =
            (1..6u64).map(|i| Element::base_pow(Scalar::from_u64(i * 7919))).collect();
        let exps: Vec<Scalar> =
            (1..6u64).map(|i| Scalar::hash_to_scalar(&[b"exp", &i.to_be_bytes()])).collect();
        let naive =
            bases.iter().zip(&exps).fold(Element::identity(), |acc, (b, e)| acc.mul(b.pow(*e)));
        assert_eq!(multi_exp(&bases, &exps), naive);
        assert_eq!(oracle::multi_exp(&bases, &exps), naive);
    }

    #[test]
    fn multi_exp_windowed_matches_binary_on_short_and_edge_exponents() {
        // Mixed lengths (batch weights are 128-bit, products 256-bit) plus
        // zero/one edges, all against the binary reference.
        let bases: Vec<Element> =
            (1..8u64).map(|i| Element::base_pow(Scalar::from_u64(i * 104_729))).collect();
        let exps: Vec<Scalar> = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(u64::MAX),
            Scalar::from_u256(U256::from(u128::MAX)),
            Scalar::hash_to_scalar(&[b"full-width", b"a"]),
            Scalar::hash_to_scalar(&[b"full-width", b"b"]),
            Scalar::from_u64(0x8000_0000_0000_0000),
        ];
        assert_eq!(multi_exp(&bases, &exps), oracle::multi_exp(&bases, &exps));
    }

    #[test]
    fn multi_exp_edge_cases() {
        assert_eq!(multi_exp(&[], &[]), Element::identity());
        let g = Element::generator();
        assert_eq!(multi_exp(&[g], &[Scalar::from_u64(5)]), g.pow(Scalar::from_u64(5)));
        // Zero exponents contribute identity.
        assert_eq!(
            multi_exp(&[g, g], &[Scalar::zero(), Scalar::from_u64(3)]),
            g.pow(Scalar::from_u64(3))
        );
    }

    #[test]
    #[should_panic]
    fn multi_exp_length_mismatch_panics() {
        multi_exp(&[Element::generator()], &[]);
    }
}
