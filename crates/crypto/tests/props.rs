//! Property-based tests for the cryptographic substrate.

use vc_crypto::chacha20::{decrypt, encrypt, open, seal};
use vc_crypto::group::{Element, Scalar};
use vc_crypto::hex;
use vc_crypto::hmac::{hkdf_expand, hkdf_extract, hmac_sha256};
use vc_crypto::merkle::MerkleTree;
use vc_crypto::oracle;
use vc_crypto::schnorr::{Signature, SigningKey};
use vc_crypto::sha256::sha256;
use vc_crypto::u256::U256;
use vc_testkit::prop::strategy::{any_bytes, any_u16, any_u64, any_u8, any_words, vec};
use vc_testkit::{prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};

prop! {
    #![cases(64)]

    // ---- U256 ring axioms against the u128 oracle ----

    #[test]
    fn u256_add_matches_u128(a in any_u64(), b in any_u64()) {
        let sum = U256::from(a as u128).wrapping_add(U256::from(b as u128));
        prop_assert_eq!(sum, U256::from(a as u128 + b as u128));
    }

    #[test]
    fn u256_mul_matches_u128(a in any_u64(), b in any_u64()) {
        let wide = U256::from(a as u128).mul_wide(U256::from(b as u128));
        let expect = a as u128 * b as u128;
        let lo = wide.limbs()[0] as u128 | ((wide.limbs()[1] as u128) << 64);
        prop_assert_eq!(lo, expect);
        prop_assert_eq!(wide.limbs()[2], 0);
    }

    #[test]
    fn u256_add_commutes(a in any_words::<4>(), b in any_words::<4>()) {
        let x = U256::from_limbs(a);
        let y = U256::from_limbs(b);
        prop_assert_eq!(x.wrapping_add(y), y.wrapping_add(x));
    }

    #[test]
    fn u256_sub_inverts_add(a in any_words::<4>(), b in any_words::<4>()) {
        let x = U256::from_limbs(a);
        let y = U256::from_limbs(b);
        prop_assert_eq!(x.wrapping_add(y).wrapping_sub(y), x);
    }

    #[test]
    fn u256_div_rem_reconstructs(a in any_words::<4>(), b in any_words::<2>()) {
        let x = U256::from_limbs(a);
        let d = U256::from_limbs([b[0], b[1], 0, 0]);
        prop_assume!(!d.is_zero());
        let (q, r) = x.div_rem(d);
        prop_assert!(r < d);
        // x == q*d + r (verify via wide mul low half + add)
        let qd = q.mul_wide(d);
        let back = U256::from_limbs([qd.limbs()[0], qd.limbs()[1], qd.limbs()[2], qd.limbs()[3]])
            .wrapping_add(r);
        prop_assert_eq!(back, x);
    }

    #[test]
    fn u256_bytes_roundtrip(a in any_words::<4>()) {
        let x = U256::from_limbs(a);
        prop_assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
        prop_assert_eq!(U256::from_hex(&x.to_hex()).unwrap(), x);
    }

    #[test]
    fn u256_shifts_invert(a in any_words::<4>(), n in 0usize..255) {
        let x = U256::from_limbs(a);
        prop_assert_eq!(x.shl_bits(n).shr_bits(n).shl_bits(n), x.shl_bits(n));
    }

    // ---- windowed exponentiation vs the square-and-multiply oracle ----

    #[test]
    fn pow_mod_matches_oracle(base in any_words::<4>(), exp in any_words::<4>()) {
        let p = vc_crypto::group::group().p;
        let b = U256::from_limbs(base);
        let e = U256::from_limbs(exp);
        prop_assert_eq!(b.pow_mod(e, p), oracle::pow_mod(b, e, p));
        // Also against a small modulus where the u128 oracle reaches.
        let m = U256::from(1_000_000_007u128);
        prop_assert_eq!(b.pow_mod(e, m), oracle::pow_mod(b, e, m));
    }

    #[test]
    fn base_pow_table_matches_reference(seed in any_bytes::<16>()) {
        let e = Scalar::hash_to_scalar(&[b"prop-basepow", &seed]);
        prop_assert_eq!(Element::base_pow(e), oracle::base_pow(e));
    }

    #[test]
    fn multi_exp_windowed_matches_binary(count in 1usize..6, seed in any_bytes::<8>(),
                                         short in any_u64()) {
        let mut bases = Vec::new();
        let mut exps = Vec::new();
        for i in 0..count {
            bases.push(Element::base_pow(Scalar::hash_to_scalar(&[b"b", &seed, &[i as u8]])));
            exps.push(Scalar::hash_to_scalar(&[b"e", &seed, &[i as u8]]));
        }
        // Mix in a short exponent (batch weights are 128-bit).
        exps[0] = Scalar::from_u64(short);
        prop_assert_eq!(
            vc_crypto::group::multi_exp(&bases, &exps),
            oracle::multi_exp(&bases, &exps)
        );
    }

    // ---- group / scalar laws ----

    #[test]
    fn scalar_add_sub_roundtrip(a in any_u64(), b in any_u64()) {
        let x = Scalar::from_u64(a);
        let y = Scalar::from_u64(b);
        prop_assert_eq!(x.add(y).sub(y), x);
    }

    #[test]
    fn group_exponent_homomorphism(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let lhs = Element::base_pow(Scalar::from_u64(a)).mul(Element::base_pow(Scalar::from_u64(b)));
        let rhs = Element::base_pow(Scalar::from_u64(a).add(Scalar::from_u64(b)));
        prop_assert_eq!(lhs, rhs);
    }

    // ---- hashes and MACs ----

    #[test]
    fn sha256_deterministic_and_sensitive(data in vec(any_u8(), 0..512), flip in any_u8()) {
        let d1 = sha256(&data);
        prop_assert_eq!(d1, sha256(&data));
        if !data.is_empty() {
            let mut tampered = data.clone();
            let idx = flip as usize % tampered.len();
            tampered[idx] ^= 1;
            prop_assert_ne!(d1, sha256(&tampered));
        }
    }

    #[test]
    fn hmac_distinguishes_keys(key1 in vec(any_u8(), 1..64),
                               key2 in vec(any_u8(), 1..64),
                               msg in vec(any_u8(), 0..128)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac_sha256(&key1, &msg), hmac_sha256(&key2, &msg));
    }

    #[test]
    fn hkdf_prefix_stability(ikm in vec(any_u8(), 1..64), short in 1usize..32, long in 33usize..96) {
        let prk = hkdf_extract(b"salt", &ikm);
        let a = hkdf_expand(&prk, b"ctx", short);
        let b = hkdf_expand(&prk, b"ctx", long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn hex_roundtrip(data in vec(any_u8(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    // ---- cipher ----

    #[test]
    fn chacha_roundtrip(key in any_bytes::<32>(), nonce in any_bytes::<12>(),
                        msg in vec(any_u8(), 0..300)) {
        prop_assert_eq!(decrypt(&key, &nonce, &encrypt(&key, &nonce, &msg)), msg);
    }

    #[test]
    fn sealed_tamper_always_detected(key in any_bytes::<32>(), nonce in any_bytes::<12>(),
                                     msg in vec(any_u8(), 0..128),
                                     pos in any_u16(), bit in 0u8..8) {
        let sealed = seal(&key, &nonce, &msg);
        let mut tampered = sealed.clone();
        let idx = pos as usize % tampered.len();
        tampered[idx] ^= 1 << bit;
        prop_assert_eq!(open(&key, &nonce, &tampered), None);
        prop_assert_eq!(open(&key, &nonce, &sealed).unwrap(), msg);
    }

    // ---- signatures ----

    #[test]
    fn schnorr_roundtrip_and_tamper(seed in vec(any_u8(), 1..32),
                                    msg in vec(any_u8(), 0..128),
                                    flip in any_u8()) {
        let sk = SigningKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig));
        // The square-and-multiply reference path decides identically.
        prop_assert!(oracle::verify(&sk.verifying_key(), &msg, &sig));
        let mut bytes = sig.to_bytes();
        // Flip a bit in the response half (commitment flips may fail to parse).
        bytes[32 + (flip as usize % 32)] ^= 1;
        if let Some(bad) = Signature::from_bytes(&bytes) {
            prop_assert!(!sk.verifying_key().verify(&msg, &bad));
            prop_assert!(!oracle::verify(&sk.verifying_key(), &msg, &bad));
        }
    }

    // Batch verification is equivalent to sequential verification: an
    // all-valid batch passes, and with exactly one forged signature the
    // batch fails and attributes precisely that index.
    #[test]
    fn batch_verify_equivalent_to_sequential(count in 1usize..10, culprit in any_u8(),
                                             tamper in any_u8()) {
        let items: Vec<(Vec<u8>, vc_crypto::schnorr::VerifyingKey, vc_crypto::schnorr::Signature)> =
            (0..count)
                .map(|i| {
                    let sk = SigningKey::from_seed(&[i as u8, 0xB, 0xC]);
                    let msg = vec![i as u8; 1 + i];
                    let sig = sk.sign(&msg);
                    (msg, sk.verifying_key(), sig)
                })
                .collect();
        let refs: Vec<(&[u8], _, _)> =
            items.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        prop_assert_eq!(vc_crypto::schnorr::verify_batch(&refs, b"prop"), Ok(()));
        // Forge exactly one signature (bump response or flip a payload byte).
        let mut forged = items.clone();
        let idx = culprit as usize % count;
        if tamper & 1 == 0 {
            forged[idx].2.response = forged[idx].2.response.add(Scalar::one());
        } else {
            forged[idx].0[0] ^= 1;
        }
        let refs: Vec<(&[u8], _, _)> =
            forged.iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        prop_assert_eq!(vc_crypto::schnorr::verify_batch(&refs, b"prop"), Err(vec![idx]));
        // Sequential ground truth agrees item by item.
        for (i, (m, k, s)) in refs.iter().enumerate() {
            prop_assert_eq!(k.verify(m, s), i != idx);
        }
    }

    // ---- merkle ----

    #[test]
    fn merkle_proofs_sound(leaves in vec(vec(any_u8(), 0..32), 1..24),
                           probe in any_u8()) {
        let tree = MerkleTree::from_leaves(&leaves);
        let idx = probe as usize % leaves.len();
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&tree.root(), &leaves[idx]));
        // Wrong data never verifies.
        let mut wrong = leaves[idx].clone();
        wrong.push(0xFF);
        prop_assert!(!proof.verify(&tree.root(), &wrong));
    }
}
