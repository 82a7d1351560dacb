//! Square-and-multiply reference paths: the oracles the fast paths are
//! tested against, and nothing else.
//!
//! No production code calls this module. The property suites and unit
//! tests compare the fixed-base table ([`Element::base_pow`]), the windowed
//! exponentiation ([`U256::pow_mod`], [`Element::pow`]), windowed Straus
//! ([`crate::group::multi_exp`]) and [`VerifyingKey::verify`] against these
//! bit-at-a-time versions. Experiment E20 times [`verify`] as its "before"
//! column: the work a verifier did before the fast paths landed.

use crate::group::{group, Element, Scalar};
use crate::schnorr::{challenge_scalar, Signature, VerifyingKey};
use crate::u256::U256;

/// `base^exp mod m` by square-and-multiply, one bit at a time.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn pow_mod(base: U256, exp: U256, m: U256) -> U256 {
    assert!(!m.is_zero(), "zero modulus");
    if m == U256::ONE {
        return U256::ZERO;
    }
    let mut base = base.rem(m);
    let mut result = U256::ONE;
    for i in 0..exp.bits() {
        if exp.bit(i) {
            result = result.mul_mod(base, m);
        }
        base = base.mul_mod(base, m);
    }
    result
}

/// `g^e` by plain square-and-multiply.
pub fn base_pow(e: Scalar) -> Element {
    let params = group();
    Element(pow_mod(params.g, e.as_u256(), params.p))
}

/// `Π bases[i] ^ exps[i]` by binary (bit-at-a-time) Straus interleaving.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn multi_exp(bases: &[Element], exps: &[Scalar]) -> Element {
    assert_eq!(bases.len(), exps.len(), "bases and exponents must pair up");
    let params = group();
    let max_bits = exps.iter().map(|e| e.as_u256().bits()).max().unwrap_or(0);
    let mut acc = U256::ONE;
    for bit in (0..max_bits).rev() {
        acc = acc.mul_mod(acc, params.p);
        for (base, exp) in bases.iter().zip(exps) {
            if exp.as_u256().bit(bit) {
                acc = acc.mul_mod(base.as_u256(), params.p);
            }
        }
    }
    Element(acc)
}

/// Verifies `signature` over `message` using only the square-and-multiply
/// paths above. Identical accept/reject decisions to
/// [`VerifyingKey::verify`] on every input.
pub fn verify(key: &VerifyingKey, message: &[u8], signature: &Signature) -> bool {
    let params = group();
    let challenge = challenge_scalar(&signature.commitment, key, message);
    let lhs = base_pow(signature.response);
    let y_to_e = pow_mod(key.element().as_u256(), challenge.as_u256(), params.p);
    let rhs = signature.commitment.as_u256().mul_mod(y_to_e, params.p);
    lhs.as_u256() == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SigningKey;

    #[test]
    fn verify_agrees_with_fast_verify() {
        let sk = SigningKey::from_seed(b"scalar-ref");
        let vk = sk.verifying_key();
        let sig = sk.sign(b"beacon");
        assert!(verify(&vk, b"beacon", &sig));
        assert!(!verify(&vk, b"tampered", &sig));
        let bumped =
            Signature { commitment: sig.commitment, response: sig.response.add(Scalar::one()) };
        assert!(!verify(&vk, b"beacon", &bumped));
        assert!(!vk.verify(b"beacon", &bumped));
    }
}
