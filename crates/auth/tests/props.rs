//! Property-based tests for the authentication protocols.

use vc_auth::groupsig::{GroupCoordinator, GroupId};
use vc_auth::handshake::{run_handshake_cached, HandshakeObsParams, SessionCache};
use vc_auth::identity::{AuthError, RealIdentity, TrustedAuthority};
use vc_auth::pseudonym::{LinkageSeed, PseudonymRegistry};
use vc_auth::replay::{ReplayGuard, ReplayVerdict};
use vc_crypto::sha256::sha256;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};
use vc_testkit::prop::strategy::{any_bytes, any_u16, any_u32, any_u64, any_u8, vec};
use vc_testkit::{prop, prop_assert, prop_assert_eq};

prop! {
    #![cases(24)]

    // Any payload signed by a provisioned wallet verifies; any single-byte
    // payload tamper is rejected.
    #[test]
    fn pseudonym_sign_verify_tamper(
        payload in vec(any_u8(), 1..128),
        flip_idx in any_u16(),
        pool in 1usize..6,
    ) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        ta.register(id.clone(), VehicleId(1));
        let wallet = reg
            .issue_wallet(&ta, &id, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"s")
            .unwrap();
        let now = SimTime::from_secs(50);
        let msg = wallet.sign(&payload, now);
        let window = SimDuration::from_secs(5);
        prop_assert_eq!(
            vc_auth::pseudonym::verify(&msg, &ta.public_key(), reg.crl(), now, window),
            Ok(())
        );
        let mut tampered = msg.clone();
        let idx = flip_idx as usize % tampered.payload.len();
        tampered.payload[idx] ^= 1;
        prop_assert_eq!(
            vc_auth::pseudonym::verify(&tampered, &ta.public_key(), reg.crl(), now, window),
            Err(AuthError::BadSignature)
        );
    }

    // Revocation is complete (every pseudonym of the identity dies) and
    // sound (other identities keep verifying) for any pool size and any
    // rotation position.
    #[test]
    fn revocation_complete_and_sound(pool in 1usize..6, rotations in 0usize..12) {
        let mut ta = TrustedAuthority::new(b"prop-ta");
        let mut reg = PseudonymRegistry::new();
        let bad = RealIdentity::for_vehicle(VehicleId(1));
        let good = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(bad.clone(), VehicleId(1));
        ta.register(good.clone(), VehicleId(2));
        let mut bad_wallet = reg
            .issue_wallet(&ta, &bad, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        let good_wallet = reg
            .issue_wallet(&ta, &good, pool, SimTime::ZERO, SimTime::from_secs(10_000), b"g")
            .unwrap();
        reg.revoke_identity(&bad);
        for _ in 0..rotations {
            bad_wallet.rotate(SimTime::ZERO, None);
        }
        let now = SimTime::from_secs(10);
        let window = SimDuration::from_secs(5);
        let bad_msg = bad_wallet.sign(b"hi", now);
        prop_assert_eq!(
            vc_auth::pseudonym::verify(&bad_msg, &ta.public_key(), reg.crl(), now, window),
            Err(AuthError::Revoked),
            "revoked identity must fail under every pseudonym"
        );
        let good_msg = good_wallet.sign(b"hi", now);
        prop_assert_eq!(
            vc_auth::pseudonym::verify(&good_msg, &ta.public_key(), reg.crl(), now, window),
            Ok(())
        );
    }

    // Group signatures: members verify under the current epoch; the
    // coordinator opens every message to the right identity regardless of
    // entropy; non-members never verify.
    #[test]
    fn group_open_is_correct(member_count in 1usize..6, entropy in any_u64(), pick in any_u8()) {
        let mut coord = GroupCoordinator::new(GroupId(1), b"prop-group");
        let creds: Vec<_> = (0..member_count)
            .map(|i| coord.admit(RealIdentity::for_vehicle(VehicleId(i as u32))))
            .collect();
        let now = SimTime::from_secs(5);
        let idx = pick as usize % member_count;
        let msg = creds[idx].sign(b"report", now, entropy);
        prop_assert_eq!(
            vc_auth::groupsig::verify(&msg, &coord.group_public_key(), coord.epoch(), now, SimDuration::from_secs(5)),
            Ok(())
        );
        let opened = coord.open_message(&msg).unwrap();
        prop_assert_eq!(opened, &RealIdentity::for_vehicle(VehicleId(idx as u32)));
    }

    // Replay guard: within a window, a digest is fresh exactly once, for
    // any interleaving of distinct messages.
    #[test]
    fn replay_guard_exactly_once(msgs in vec(vec(any_u8(), 1..16), 1..20)) {
        let mut guard = ReplayGuard::new(SimDuration::from_secs(1_000), 4096);
        let now = SimTime::from_secs(10);
        let mut seen = std::collections::HashSet::new();
        for m in &msgs {
            let digest = sha256(m);
            let verdict = guard.check(digest, now, now);
            if seen.insert(digest) {
                prop_assert_eq!(verdict, ReplayVerdict::Fresh);
            } else {
                prop_assert_eq!(verdict, ReplayVerdict::Duplicate);
            }
        }
    }

    // Session cache: a re-encounter within TTL resumes with the same key;
    // past the TTL it re-runs the handshake; revocation invalidation always
    // forces the full (failing) handshake.
    #[test]
    fn session_cache_hit_expiry_revocation(gap_secs in 1u64..200, revoke in any_u8()) {
        let mut ta = TrustedAuthority::new(b"prop-hs");
        let mut reg = PseudonymRegistry::new();
        let a_id = RealIdentity::for_vehicle(VehicleId(1));
        let b_id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(a_id.clone(), VehicleId(1));
        ta.register(b_id.clone(), VehicleId(2));
        let alice = reg
            .issue_wallet(&ta, &a_id, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"a")
            .unwrap();
        let bob = reg
            .issue_wallet(&ta, &b_id, 3, SimTime::ZERO, SimTime::from_secs(10_000), b"b")
            .unwrap();
        let ttl = SimDuration::from_secs(100);
        let mut ca = SessionCache::new(8, ttl);
        let mut cb = SessionCache::new(8, ttl);
        let params = HandshakeObsParams {
            ta_key: &ta.public_key(),
            crl: reg.crl(),
            window: SimDuration::from_secs(5),
            hop: SimDuration::from_millis(3),
        };
        let t0 = SimTime::from_secs(10);
        let (k1, r1) =
            run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &params, t0, 1, None).unwrap();
        prop_assert!(!r1);
        if revoke & 1 == 0 {
            let t1 = SimTime::from_secs(10 + gap_secs);
            let (k2, r2) =
                run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &params, t1, 2, None)
                    .unwrap();
            // Within TTL (gap <= 100 s) the session resumes with the same
            // key; past it, a fresh handshake runs.
            prop_assert_eq!(r2, gap_secs <= 100);
            if r2 {
                prop_assert_eq!(k1.0, k2.0);
            }
        } else {
            reg.revoke_identity(&a_id);
            ca.invalidate_revoked(reg.crl());
            cb.invalidate_revoked(reg.crl());
            prop_assert_eq!(cb.len(), 0, "revoked peer's cached session dropped");
            let fresh = HandshakeObsParams {
                ta_key: &ta.public_key(),
                crl: reg.crl(),
                window: SimDuration::from_secs(5),
                hop: SimDuration::from_millis(3),
            };
            let t1 = SimTime::from_secs(11);
            let err = run_handshake_cached(&alice, &bob, &mut ca, &mut cb, &fresh, t1, 2, None)
                .unwrap_err();
            prop_assert_eq!(err, AuthError::Revoked);
        }
    }

    // Hybrid batch verification agrees with sequential verification for any
    // mix of valid, tampered, and replayed messages.
    #[test]
    fn hybrid_batch_matches_sequential(count in 1usize..10, culprit in any_u8(), mode in any_u8()) {
        let ta = TrustedAuthority::new(b"prop-hy");
        let opening = vc_auth::hybrid::TaOpening::for_ta(&ta);
        let mut issuer =
            vc_auth::hybrid::RegionalIssuer::new(b"prop-region", &opening, SimDuration::from_secs(60));
        let now = SimTime::from_secs(10);
        let creds: Vec<_> = (0..3)
            .map(|i| issuer.issue(&RealIdentity::for_vehicle(VehicleId(i)), now).unwrap())
            .collect();
        let mut msgs: Vec<_> =
            (0..count).map(|i| creds[i % creds.len()].sign(&[i as u8], now)).collect();
        let idx = culprit as usize % count;
        match mode % 3 {
            0 => msgs[idx].payload = b"evil".to_vec(),
            1 => msgs[idx].cert.valid_until = SimTime::from_secs(999_999),
            _ => msgs[idx].sent_at = SimTime::ZERO,
        }
        let window = SimDuration::from_secs(5);
        let batch = vc_auth::hybrid::verify_batch(&msgs, &issuer.public_key(), now, window);
        for (m, got) in msgs.iter().zip(&batch) {
            prop_assert_eq!(
                got.clone(),
                vc_auth::hybrid::verify(m, &issuer.public_key(), now, window)
            );
        }
        prop_assert!(batch[idx].is_err(), "tampered message must fail");
    }

    // Group-signature batch verification agrees with sequential
    // verification for any mix of valid and tampered messages.
    #[test]
    fn groupsig_batch_matches_sequential(count in 1usize..10, culprit in any_u8(), mode in any_u8()) {
        let mut coord = GroupCoordinator::new(GroupId(7), b"prop-gs");
        let creds: Vec<_> = (0..3)
            .map(|i| coord.admit(RealIdentity::for_vehicle(VehicleId(i))))
            .collect();
        let now = SimTime::from_secs(10);
        let mut msgs: Vec<_> = (0..count)
            .map(|i| creds[i % creds.len()].sign(&[i as u8], now, i as u64))
            .collect();
        let idx = culprit as usize % count;
        match mode % 3 {
            0 => msgs[idx].payload = b"evil".to_vec(),
            1 => msgs[idx].epoch += 1,
            _ => msgs[idx].sent_at = SimTime::ZERO,
        }
        let window = SimDuration::from_secs(5);
        let batch = vc_auth::groupsig::verify_batch(
            &msgs, &coord.group_public_key(), coord.epoch(), now, window,
        );
        for (m, got) in msgs.iter().zip(&batch) {
            prop_assert_eq!(
                got.clone(),
                vc_auth::groupsig::verify(m, &coord.group_public_key(), coord.epoch(), now, window)
            );
        }
        prop_assert!(batch[idx].is_err(), "tampered message must fail");
    }

    // Linkage values are deterministic per (seed, cert) and collide across
    // certs only negligibly (distinct ids in a small sample never collide).
    #[test]
    fn linkage_values_distinct(seed_bytes in any_bytes::<16>(), base in any_u32()) {
        let seed = LinkageSeed(seed_bytes);
        let mut values = std::collections::HashSet::new();
        for i in 0..16u64 {
            let v = seed.linkage_value(vc_auth::pseudonym::PseudonymId(base as u64 + i));
            prop_assert!(values.insert(v), "linkage collision");
        }
    }
}
