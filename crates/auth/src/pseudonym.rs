//! Pseudonym-based authentication (paper §IV-B.1, Fig. 5 left).
//!
//! Each vehicle is provisioned with a **pool of pseudonym certificates** at
//! registration. A message is signed under the *current* pseudonym's key and
//! carries the certificate; the verifier checks the TA's signature on the
//! certificate, the message signature, the validity window, and scans the
//! certificate revocation list (CRL).
//!
//! The two drawbacks Fig. 5 calls out are deliberately reproduced so E4 can
//! measure them: (1) per-message overhead is high (full cert + two
//! signatures + CRL scan whose cost grows linearly with revocations), and
//! (2) privacy is *conditional* — the TA keeps the pseudonym→identity map,
//! and an eavesdropper can link all messages sent under one pseudonym
//! between rotations.

use crate::identity::{AuthError, RealIdentity, TrustedAuthority};
use std::collections::BTreeMap;
use vc_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use vc_crypto::sha256::sha256_parts;
use vc_sim::time::SimTime;

/// Identifier of a pseudonym certificate (random-looking, TA-issued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PseudonymId(pub u64);

/// A per-vehicle linkage seed, published on the CRL when the vehicle is
/// revoked (SCMS-style): one CRL entry revokes the vehicle's *entire*
/// pseudonym pool, but checking a certificate against it costs one keyed
/// hash per entry — the linear, per-message CRL cost Fig. 5 complains
/// about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkageSeed(pub [u8; 16]);

impl LinkageSeed {
    /// Derives the (truncated) linkage value a certificate with this seed
    /// carries.
    pub fn linkage_value(&self, cert: PseudonymId) -> [u8; 8] {
        let digest = sha256_parts(&[b"vc-linkage", &self.0, &cert.0.to_be_bytes()]);
        let mut out = [0u8; 8];
        out.copy_from_slice(&digest[..8]);
        out
    }
}

/// A pseudonym certificate: binds a pseudonym id to a verification key under
/// the TA's signature, with a validity window.
#[derive(Debug, Clone, PartialEq)]
pub struct PseudonymCert {
    /// The pseudonym identifier (what the air interface reveals).
    pub id: PseudonymId,
    /// The pseudonym's verification key.
    pub key: VerifyingKey,
    /// The linkage value tying this cert to its (hidden) vehicle seed.
    pub linkage_value: [u8; 8],
    /// First instant at which the certificate is valid.
    pub valid_from: SimTime,
    /// Expiry instant.
    pub valid_until: SimTime,
    /// TA signature over the above.
    pub ta_signature: Signature,
}

impl PseudonymCert {
    fn signed_bytes(
        id: PseudonymId,
        key: &VerifyingKey,
        linkage_value: &[u8; 8],
        from: SimTime,
        until: SimTime,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + 8 + 16);
        out.extend_from_slice(&id.0.to_be_bytes());
        out.extend_from_slice(&key.to_bytes());
        out.extend_from_slice(linkage_value);
        out.extend_from_slice(&from.as_micros().to_be_bytes());
        out.extend_from_slice(&until.as_micros().to_be_bytes());
        out
    }

    /// Serialized size on the wire, bytes.
    pub const WIRE_LEN: usize = 8 + 32 + 8 + 16 + 64;
}

/// A message authenticated under a pseudonym.
#[derive(Debug, Clone)]
pub struct PseudonymMessage {
    /// The attached certificate.
    pub cert: PseudonymCert,
    /// Signature over `payload || timestamp` under the pseudonym key.
    pub signature: Signature,
    /// Claimed send time (replay defense pairs this with a window).
    pub sent_at: SimTime,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl PseudonymMessage {
    /// Bytes of authentication overhead this message carries.
    pub fn auth_overhead_bytes(&self) -> usize {
        PseudonymCert::WIRE_LEN + 64 + 8
    }
}

/// The vehicle-side pseudonym wallet: the provisioned pool plus rotation
/// state.
#[derive(Debug)]
pub struct PseudonymWallet {
    real_identity: RealIdentity,
    certs: Vec<PseudonymCert>,
    keys: Vec<SigningKey>,
    current: usize,
}

impl PseudonymWallet {
    /// Number of pseudonyms remaining in the pool.
    pub fn pool_size(&self) -> usize {
        self.certs.len()
    }

    /// The pseudonym currently in use.
    pub fn current_pseudonym(&self) -> PseudonymId {
        self.certs[self.current].id
    }

    /// Rotates to the next pseudonym in the pool (wrapping). Rotation is the
    /// unlinkability lever: the more often a vehicle rotates, the shorter
    /// the window an eavesdropper can link.
    ///
    /// With a recorder, emits one `auth`/`pseudonym.switch` event at
    /// sim-time `at` carrying the new pseudonym id and the pool size.
    pub fn rotate(&mut self, at: SimTime, rec: Option<&mut vc_obs::Recorder>) {
        self.current = (self.current + 1) % self.certs.len();
        if let Some(rec) = rec {
            rec.event(
                at,
                "auth",
                "pseudonym.switch",
                vec![
                    ("pseudonym", self.current_pseudonym().0.into()),
                    ("pool", self.pool_size().into()),
                ],
            );
        }
    }

    /// Signs `payload` at `now` under the current pseudonym.
    pub fn sign(&self, payload: &[u8], now: SimTime) -> PseudonymMessage {
        let cert = self.certs[self.current].clone();
        let key = &self.keys[self.current];
        let mut to_sign = payload.to_vec();
        to_sign.extend_from_slice(&now.as_micros().to_be_bytes());
        PseudonymMessage {
            cert,
            signature: key.sign(&to_sign),
            sent_at: now,
            payload: payload.to_vec(),
        }
    }

    /// The real identity this wallet belongs to (vehicle-local knowledge,
    /// never transmitted).
    pub fn real_identity(&self) -> &RealIdentity {
        &self.real_identity
    }

    /// The certificate currently in use (what a peer would see on the air
    /// interface; session caches key on its pseudonym key).
    pub fn current_cert(&self) -> &PseudonymCert {
        &self.certs[self.current]
    }
}

/// The TA-side pseudonym registry: issuance, the pseudonym→identity escrow
/// map, and the CRL.
#[derive(Debug, Default)]
pub struct PseudonymRegistry {
    /// Escrow: pseudonym → real identity (what makes privacy *conditional*).
    escrow: BTreeMap<PseudonymId, RealIdentity>,
    /// Per-identity linkage seeds (published to the CRL on revocation).
    seeds: BTreeMap<RealIdentity, LinkageSeed>,
    /// The certificate revocation list, as distributed to vehicles.
    crl: Vec<LinkageSeed>,
    next_id: u64,
}

impl PseudonymRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PseudonymRegistry::default()
    }

    /// Issues a wallet of `pool_size` pseudonyms to a registered vehicle.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError::Unknown`] if the identity is not registered with
    /// the TA, or [`AuthError::Revoked`] if it is revoked.
    pub fn issue_wallet(
        &mut self,
        ta: &TrustedAuthority,
        identity: &RealIdentity,
        pool_size: usize,
        valid_from: SimTime,
        valid_until: SimTime,
        key_seed: &[u8],
    ) -> Result<PseudonymWallet, AuthError> {
        if !ta.is_registered(identity) {
            return Err(AuthError::Unknown);
        }
        if ta.is_revoked(identity) {
            return Err(AuthError::Revoked);
        }
        // One linkage seed per vehicle, derived at first issuance.
        let seed = *self.seeds.entry(identity.clone()).or_insert_with(|| {
            let digest = sha256_parts(&[b"vc-linkage-seed", identity.0.as_bytes()]);
            let mut s = [0u8; 16];
            s.copy_from_slice(&digest[..16]);
            LinkageSeed(s)
        });
        let mut certs = Vec::with_capacity(pool_size);
        let mut keys = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let id = PseudonymId(self.next_id);
            self.next_id += 1;
            let mut kseed = key_seed.to_vec();
            kseed.extend_from_slice(&i.to_be_bytes());
            kseed.extend_from_slice(&id.0.to_be_bytes());
            let sk = SigningKey::from_seed(&kseed);
            let vk = sk.verifying_key();
            let linkage_value = seed.linkage_value(id);
            let body =
                PseudonymCert::signed_bytes(id, &vk, &linkage_value, valid_from, valid_until);
            let ta_signature = ta.signing_key().sign(&body);
            certs.push(PseudonymCert {
                id,
                key: vk,
                linkage_value,
                valid_from,
                valid_until,
                ta_signature,
            });
            keys.push(sk);
            self.escrow.insert(id, identity.clone());
        }
        Ok(PseudonymWallet { real_identity: identity.clone(), certs, keys, current: 0 })
    }

    /// Revokes an identity by publishing its linkage seed: one CRL entry
    /// kills the vehicle's entire pseudonym pool, but every verifier now
    /// pays one keyed hash *per CRL entry per message* — the cost E4
    /// measures. The list is kept sorted and deduped so membership is a
    /// binary search, not the linear `contains` scan it used to be.
    pub fn revoke_identity(&mut self, identity: &RealIdentity) {
        if let Some(seed) = self.seeds.get(identity) {
            if let Err(pos) = self.crl.binary_search(seed) {
                self.crl.insert(pos, *seed);
            }
        }
    }

    /// The CRL as currently distributed (sorted by seed bytes; the scan
    /// outcome is order-independent, so sorting changes no verdict).
    pub fn crl(&self) -> &[LinkageSeed] {
        &self.crl
    }

    /// Load-testing hook: injects a synthetic revoked seed without issuing
    /// wallets (used by the CRL-scaling benchmarks; not part of the
    /// protocol). Maintains the sorted-dedup invariant.
    pub fn inject_revoked_seed(&mut self, seed: LinkageSeed) {
        if let Err(pos) = self.crl.binary_search(&seed) {
            self.crl.insert(pos, seed);
        }
    }

    /// Audit interface: opens a pseudonym to the real identity (dispute
    /// resolution — the "conditional" in conditional privacy).
    pub fn audit_open(&self, pseudonym: PseudonymId) -> Option<&RealIdentity> {
        self.escrow.get(&pseudonym)
    }

    /// Number of pseudonyms ever issued.
    pub fn issued_count(&self) -> usize {
        self.escrow.len()
    }
}

/// Verifier-side check. This is what every receiving vehicle runs per
/// message; its cost (two signature verifications plus a linear CRL scan) is
/// the protocol's verify-side price.
///
/// # Errors
///
/// Returns the specific [`AuthError`] that failed.
pub fn verify(
    message: &PseudonymMessage,
    ta_key: &VerifyingKey,
    crl: &[LinkageSeed],
    now: SimTime,
    replay_window: vc_sim::time::SimDuration,
) -> Result<(), AuthError> {
    // 1. Validity window.
    if now < message.cert.valid_from || now > message.cert.valid_until {
        return Err(AuthError::Expired);
    }
    // 2. Replay window on the claimed timestamp.
    if message.sent_at > now || now.saturating_since(message.sent_at) > replay_window {
        return Err(AuthError::Replayed);
    }
    // 3. CRL scan — one keyed hash per revoked vehicle, as in deployed
    //    linkage-value CRLs. This is the linear cost the paper calls
    //    "time-consuming" for huge revocation pools.
    for seed in crl {
        if seed.linkage_value(message.cert.id) == message.cert.linkage_value {
            return Err(AuthError::Revoked);
        }
    }
    // 4. TA signature over the certificate.
    let body = PseudonymCert::signed_bytes(
        message.cert.id,
        &message.cert.key,
        &message.cert.linkage_value,
        message.cert.valid_from,
        message.cert.valid_until,
    );
    if !ta_key.verify(&body, &message.cert.ta_signature) {
        return Err(AuthError::BadCredential);
    }
    // 5. Message signature under the pseudonym key.
    let mut to_check = message.payload.clone();
    to_check.extend_from_slice(&message.sent_at.as_micros().to_be_bytes());
    if !message.cert.key.verify(&to_check, &message.signature) {
        return Err(AuthError::BadSignature);
    }
    Ok(())
}

impl vc_obs::MemSize for PseudonymId {
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for LinkageSeed {
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for PseudonymCert {
    // Ids, keys, linkage values, and signatures are all inline.
    fn mem_bytes(&self) -> u64 {
        0
    }
}

impl vc_obs::MemSize for PseudonymWallet {
    fn mem_bytes(&self) -> u64 {
        (self.certs.capacity() * std::mem::size_of::<PseudonymCert>()) as u64
            + (self.keys.capacity() * std::mem::size_of::<SigningKey>()) as u64
            + self.real_identity.mem_bytes()
    }
}

impl vc_obs::MemSize for PseudonymRegistry {
    fn mem_bytes(&self) -> u64 {
        self.escrow.mem_bytes()
            + self.seeds.mem_bytes()
            + (self.crl.capacity() * std::mem::size_of::<LinkageSeed>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_sim::node::VehicleId;
    use vc_sim::time::SimDuration;

    #[test]
    fn rotate_with_recorder_switches_identically_and_emits() {
        let (_ta, _registry, mut plain) = setup();
        let (_ta, _registry, mut traced) = setup();
        let before = plain.current_pseudonym();
        let mut rec = vc_obs::Recorder::new();
        for i in 1..=3 {
            plain.rotate(SimTime::from_secs(i), None);
            traced.rotate(SimTime::from_secs(i), Some(&mut rec));
            assert_eq!(plain.current_pseudonym(), traced.current_pseudonym());
        }
        assert_ne!(plain.current_pseudonym(), before);
        assert_eq!(rec.hub().counter("auth.pseudonym.switch"), 3);
        assert_eq!(rec.events().last().unwrap().at, SimTime::from_secs(3));
    }

    fn setup() -> (TrustedAuthority, PseudonymRegistry, PseudonymWallet) {
        let mut ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(1));
        ta.register(id.clone(), VehicleId(1));
        let wallet = reg
            .issue_wallet(&ta, &id, 5, SimTime::ZERO, SimTime::from_secs(3600), b"v1-seed")
            .unwrap();
        (ta, reg, wallet)
    }

    fn window() -> SimDuration {
        SimDuration::from_secs(5)
    }

    #[test]
    fn wallet_and_registry_footprints_track_pool_and_crl() {
        use vc_obs::MemSize;
        let (_ta, reg, wallet) = setup();
        let wallet_bytes = wallet.mem_bytes();
        let reg_bytes = reg.mem_bytes();
        assert!(wallet_bytes > 0 && reg_bytes > 0);
        // A bigger pool and a revocation both grow the measured footprint.
        let mut ta = TrustedAuthority::new(b"ta2");
        let mut big_reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(id.clone(), VehicleId(2));
        let big = big_reg
            .issue_wallet(&ta, &id, 50, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
            .unwrap();
        assert!(big.mem_bytes() > wallet_bytes);
        let before = big_reg.mem_bytes();
        big_reg.revoke_identity(&id);
        assert!(big_reg.mem_bytes() > before, "CRL entry must register");
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        assert_eq!(verify(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn unregistered_vehicle_cannot_get_wallet() {
        let ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(9));
        let err =
            reg.issue_wallet(&ta, &id, 3, SimTime::ZERO, SimTime::from_secs(10), b"s").unwrap_err();
        assert_eq!(err, AuthError::Unknown);
    }

    #[test]
    fn revoked_vehicle_cannot_get_wallet() {
        let mut ta = TrustedAuthority::new(b"ta");
        let mut reg = PseudonymRegistry::new();
        let id = RealIdentity::for_vehicle(VehicleId(2));
        ta.register(id.clone(), VehicleId(2));
        ta.revoke(&id);
        let err =
            reg.issue_wallet(&ta, &id, 3, SimTime::ZERO, SimTime::from_secs(10), b"s").unwrap_err();
        assert_eq!(err, AuthError::Revoked);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let mut msg = wallet.sign(b"beacon", now);
        msg.payload = b"forged".to_vec();
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::BadSignature)
        );
    }

    #[test]
    fn forged_cert_rejected() {
        let (ta, reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let mut msg = wallet.sign(b"beacon", now);
        // Extend own validity without TA blessing.
        msg.cert.valid_until = SimTime::from_secs(999_999);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::BadCredential)
        );
    }

    #[test]
    fn expired_cert_rejected() {
        let (ta, reg, wallet) = setup();
        let late = SimTime::from_secs(4000);
        let msg = wallet.sign(b"beacon", late);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), late, window()),
            Err(AuthError::Expired)
        );
    }

    #[test]
    fn replayed_message_rejected() {
        let (ta, reg, wallet) = setup();
        let sent = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", sent);
        // Replay 30 s later: outside the 5 s window.
        let later = SimTime::from_secs(40);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), later, window()),
            Err(AuthError::Replayed)
        );
        // Claimed future timestamp also rejected.
        let early = SimTime::from_secs(5);
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), early, window()),
            Err(AuthError::Replayed)
        );
    }

    #[test]
    fn revocation_hits_all_pseudonyms_of_identity() {
        let (ta, mut reg, wallet) = setup();
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"beacon", now);
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().len(), 1, "one linkage seed revokes the whole pool");
        assert_eq!(
            verify(&msg, &ta.public_key(), reg.crl(), now, window()),
            Err(AuthError::Revoked)
        );
    }

    #[test]
    fn rotation_changes_observable_id_but_stays_valid() {
        let (ta, reg, mut wallet) = setup();
        let now = SimTime::from_secs(10);
        let before = wallet.current_pseudonym();
        let m1 = wallet.sign(b"a", now);
        wallet.rotate(SimTime::ZERO, None);
        let after = wallet.current_pseudonym();
        let m2 = wallet.sign(b"b", now);
        assert_ne!(before, after);
        assert_ne!(m1.cert.id, m2.cert.id);
        assert_eq!(verify(&m2, &ta.public_key(), reg.crl(), now, window()), Ok(()));
        // Rotation wraps around the pool.
        for _ in 0..5 {
            wallet.rotate(SimTime::ZERO, None);
        }
        assert_eq!(wallet.current_pseudonym(), after);
    }

    #[test]
    fn other_vehicles_unaffected_by_revocation() {
        let (ta, mut reg, wallet) = setup();
        // A second vehicle.
        let mut ta2 = ta;
        let id2 = RealIdentity::for_vehicle(VehicleId(2));
        ta2.register(id2.clone(), VehicleId(2));
        let wallet2 = reg
            .issue_wallet(&ta2, &id2, 5, SimTime::ZERO, SimTime::from_secs(3600), b"v2-seed")
            .unwrap();
        reg.revoke_identity(wallet.real_identity());
        let now = SimTime::from_secs(10);
        let msg2 = wallet2.sign(b"still fine", now);
        assert_eq!(verify(&msg2, &ta2.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn injected_seeds_grow_crl_without_matching() {
        let (ta, mut reg, wallet) = setup();
        for i in 0..100u64 {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        assert_eq!(reg.crl().len(), 100);
        let now = SimTime::from_secs(10);
        let msg = wallet.sign(b"x", now);
        assert_eq!(verify(&msg, &ta.public_key(), reg.crl(), now, window()), Ok(()));
    }

    #[test]
    fn crl_stays_sorted_and_deduped() {
        let (_ta, mut reg, wallet) = setup();
        reg.revoke_identity(wallet.real_identity());
        reg.revoke_identity(wallet.real_identity());
        assert_eq!(reg.crl().len(), 1, "double revocation must not duplicate");
        for i in [7u64, 3, 9, 3, 1] {
            let mut s = [0u8; 16];
            s[..8].copy_from_slice(&i.to_be_bytes());
            reg.inject_revoked_seed(LinkageSeed(s));
        }
        let crl = reg.crl();
        assert_eq!(crl.len(), 5, "dedup across injections");
        assert!(crl.windows(2).all(|w| w[0] < w[1]), "sorted order maintained");
    }

    #[test]
    fn current_cert_tracks_rotation() {
        let (_ta, _reg, mut wallet) = setup();
        let before = wallet.current_cert().id;
        assert_eq!(before, wallet.current_pseudonym());
        wallet.rotate(SimTime::ZERO, None);
        assert_eq!(wallet.current_cert().id, wallet.current_pseudonym());
        assert_ne!(wallet.current_cert().id, before);
    }

    #[test]
    fn audit_open_maps_to_real_identity() {
        let (_, reg, wallet) = setup();
        let opened = reg.audit_open(wallet.current_pseudonym()).unwrap();
        assert_eq!(opened, wallet.real_identity());
        assert_eq!(reg.audit_open(PseudonymId(999_999)), None);
    }

    #[test]
    fn overhead_accounting() {
        let (_, _, wallet) = setup();
        let msg = wallet.sign(b"x", SimTime::from_secs(1));
        assert_eq!(msg.auth_overhead_bytes(), PseudonymCert::WIRE_LEN + 64 + 8);
        assert_eq!(PseudonymCert::WIRE_LEN, 128);
    }
}
