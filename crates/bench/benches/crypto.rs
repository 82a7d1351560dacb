//! Micro-benches for the cryptographic substrate: the raw cost basis
//! behind every protocol number in EXPERIMENTS.md.

use vc_crypto::chacha20::{encrypt, seal};
use vc_crypto::dh::EphemeralSecret;
use vc_crypto::group::{Element, Scalar};
use vc_crypto::hmac::hmac_sha256;
use vc_crypto::merkle::MerkleTree;
use vc_crypto::oracle;
use vc_crypto::schnorr::SigningKey;
use vc_crypto::sha256::sha256;
use vc_crypto::u256::U256;
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("crypto");

    // ---- hashes ----
    for size in [64usize, 1024, 16_384] {
        let data = vec![0xA5u8; size];
        suite.bench_bytes(&format!("sha256/{size}"), size as u64, || sha256(black_box(&data)));
    }
    let data = vec![0u8; 256];
    suite.bench("hmac_sha256/256B", || hmac_sha256(black_box(b"key"), black_box(&data)));

    // ---- cipher ----
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    for size in [256usize, 4096] {
        let data = vec![0u8; size];
        suite.bench_bytes(&format!("chacha20/encrypt/{size}"), size as u64, || {
            encrypt(black_box(&key), black_box(&nonce), black_box(&data))
        });
    }
    let data = vec![0u8; 1024];
    suite.bench("seal/1KiB", || seal(black_box(&key), black_box(&nonce), black_box(&data)));

    // ---- bignum ----
    let p = vc_crypto::group::group().p;
    let a =
        U256::from_hex("1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef").unwrap();
    let b_val =
        U256::from_hex("fedcba0987654321fedcba0987654321fedcba0987654321fedcba0987654321").unwrap();
    suite.bench("u256/mul_mod", || black_box(a).mul_mod(black_box(b_val), black_box(p)));
    // Labels keep their history: `u256/pow_mod` times the square-and-multiply
    // oracle and `u256/pow_mod_windowed` the production `U256::pow_mod`.
    suite.bench("u256/pow_mod", || oracle::pow_mod(black_box(a), black_box(b_val), black_box(p)));
    suite.bench("u256/pow_mod_windowed", || black_box(a).pow_mod(black_box(b_val), black_box(p)));

    // ---- signatures ----
    let sk = SigningKey::from_seed(b"bench");
    let vk = sk.verifying_key();
    let msg = vec![0x42u8; 200];
    let sig = sk.sign(&msg);
    suite.bench("schnorr/sign", || sk.sign(black_box(&msg)));
    suite.bench("schnorr/verify", || vk.verify(black_box(&msg), black_box(&sig)));
    let batch_items: Vec<(
        Vec<u8>,
        vc_crypto::schnorr::VerifyingKey,
        vc_crypto::schnorr::Signature,
    )> = (0..64u8)
        .map(|i| {
            let sk = SigningKey::from_seed(&[i, 0xB, 0xE]);
            let msg = vec![i; 200];
            let sig = sk.sign(&msg);
            (msg, sk.verifying_key(), sig)
        })
        .collect();
    for batch in [8usize, 32, 64] {
        let refs: Vec<(&[u8], _, _)> =
            batch_items[..batch].iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        suite.bench(&format!("schnorr/verify_batch/{batch}"), || {
            vc_crypto::schnorr::verify_batch(black_box(&refs), b"bench").is_ok()
        });
    }
    let e = Scalar::from_u64(0xdeadbeefcafe);
    suite.bench("group/base_pow", || Element::base_pow(black_box(e)));
    suite.bench("group/base_pow_scalar", || oracle::base_pow(black_box(e)));

    // ---- key agreement ----
    let alice = EphemeralSecret::from_seed(b"alice");
    let bob_share = EphemeralSecret::from_seed(b"bob").public_share();
    suite.bench("dh/agree", || alice.agree(black_box(&bob_share), b"ctx"));

    // ---- merkle ----
    let leaves: Vec<Vec<u8>> = (0..256).map(|i: u32| i.to_be_bytes().to_vec()).collect();
    suite.bench("merkle/build_256", || MerkleTree::from_leaves(black_box(&leaves)));
    let tree = MerkleTree::from_leaves(&leaves);
    let proof = tree.prove(127).unwrap();
    suite.bench("merkle/verify_proof_256", || {
        proof.verify(black_box(&tree.root()), black_box(&leaves[127]))
    });

    suite.finish();
}
