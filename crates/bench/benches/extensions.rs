//! Micro-benches for the extension modules: batch verification,
//! the V2V handshake, delegation chains, checkpoint sealing and credit notes.

use vc_access::delegation::{grant, verify_chain, DelegationChain};
use vc_access::policy::Action;
use vc_auth::handshake::{respond, Initiator};
use vc_auth::identity::{RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::PseudonymRegistry;
use vc_cloud::handover::{open_checkpoint, seal_checkpoint, Checkpoint};
use vc_cloud::incentive::{transfer, CreditBank};
use vc_cloud::task::TaskId;
use vc_crypto::dh::EphemeralSecret;
use vc_crypto::schnorr::{batch_verify, Signature, SigningKey, VerifyingKey};
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::bench::{black_box, Suite};

// Count every heap allocation so Suite results carry allocs/iter and
// alloc bytes/iter columns (diffed by benchdiff when both sides have them).
vc_obs::counting_allocator!();

fn main() {
    vc_testkit::bench::set_alloc_probe(vc_obs::mem::thread_counters);
    let mut suite = Suite::new("extensions");

    // ---- batch signature verification ----
    let items: Vec<(Vec<u8>, VerifyingKey, Signature)> = (0..64u8)
        .map(|i| {
            let sk = SigningKey::from_seed(&[i, 9]);
            let msg = vec![i; 32];
            let sig = sk.sign(&msg);
            (msg, sk.verifying_key(), sig)
        })
        .collect();
    for n in [1usize, 8, 32, 64] {
        let refs: Vec<(&[u8], VerifyingKey, Signature)> =
            items[..n].iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();
        suite.bench(&format!("batch_verify/{n}"), || {
            assert!(batch_verify(black_box(&refs), b"bench"));
        });
    }

    // ---- V2V handshake ----
    let mut ta = TrustedAuthority::new(b"hs-bench");
    let mut registry = PseudonymRegistry::new();
    let a_id = RealIdentity::for_vehicle(VehicleId(1));
    let b_id = RealIdentity::for_vehicle(VehicleId(2));
    ta.register(a_id.clone(), VehicleId(1));
    ta.register(b_id.clone(), VehicleId(2));
    let alice = registry
        .issue_wallet(&ta, &a_id, 4, SimTime::ZERO, SimTime::from_secs(10_000), b"a")
        .unwrap();
    let bob = registry
        .issue_wallet(&ta, &b_id, 4, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
        .unwrap();
    let now = SimTime::from_secs(10);
    let window = SimDuration::from_secs(5);
    let mut entropy = 0u64;
    suite.bench("handshake/full_exchange", || {
        entropy += 1;
        let (init, hello) = Initiator::hello(&alice, now, entropy);
        let (k1, accept) =
            respond(&hello, &bob, &ta.public_key(), registry.crl(), now, window, entropy + 1)
                .expect("respond");
        let k2 =
            init.finish(&accept, &ta.public_key(), registry.crl(), now, window).expect("finish");
        assert_eq!(k1.0, k2.0);
    });

    // ---- delegation chains ----
    let owner = SigningKey::from_seed(b"owner");
    let far = SimTime::from_secs(100_000);
    let keys: Vec<SigningKey> = (0..3u8).map(|i| SigningKey::from_seed(&[i, 3])).collect();
    let g1 =
        grant(&owner, 1, keys[0].verifying_key(), vec![Action::Read, Action::Delegate], 3, far);
    let g2 =
        grant(&keys[0], 1, keys[1].verifying_key(), vec![Action::Read, Action::Delegate], 2, far);
    let g3 = grant(&keys[1], 1, keys[2].verifying_key(), vec![Action::Read], 1, far);
    let chain = DelegationChain { grants: vec![g1, g2, g3] };
    suite.bench("delegation/verify_3_links", || {
        verify_chain(black_box(&chain), &owner.verifying_key(), 1, SimTime::from_secs(1))
            .expect("valid")
    });

    // ---- checkpoint handover ----
    let rx = EphemeralSecret::from_seed(b"rx");
    let cp = Checkpoint { task: TaskId(1), done_gflop: 100.0, state: vec![0u8; 16_384] };
    let mut cp_entropy = 0u64;
    suite.bench("checkpoint/seal_16KiB", || {
        cp_entropy += 1;
        seal_checkpoint(black_box(&cp), VehicleId(1), VehicleId(2), &rx.public_share(), cp_entropy)
    });
    let sealed = seal_checkpoint(&cp, VehicleId(1), VehicleId(2), &rx.public_share(), 7);
    suite.bench("checkpoint/open_16KiB", || {
        open_checkpoint(black_box(&sealed), &rx).expect("opens")
    });

    // ---- credit notes ----
    let mut bank = CreditBank::new(b"bank");
    let earn = SigningKey::from_seed(b"earn");
    let spend = SigningKey::from_seed(b"spend");
    suite.bench("credit/issue", || {
        bank.issue(earn.verifying_key(), 10, vc_auth::pseudonym::PseudonymId(1))
    });
    let note = bank.issue(earn.verifying_key(), 10, vc_auth::pseudonym::PseudonymId(1));
    let moved = transfer(&note, &earn, spend.verifying_key()).unwrap();
    suite.bench("credit/validate_1_endorsement", || {
        bank.validate(black_box(&moved)).expect("valid")
    });

    suite.finish();
}
