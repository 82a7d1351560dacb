//! Integration: the extension modules working together — batch-verified
//! beacon floods feeding the beacon store, encrypted checkpoint handover
//! between scheduler hosts, verifiable execution with reputation feedback.

use std::collections::BTreeMap;
use vcloud::cloud::handover::{open_checkpoint, seal_checkpoint, Checkpoint};
use vcloud::cloud::verify::{adjudicate, honest_digest, Adjudication, ResultReceipt};
use vcloud::crypto::dh::EphemeralSecret;
use vcloud::crypto::schnorr::{batch_verify, Signature, SigningKey, VerifyingKey};
use vcloud::net::beacon::{sign_beacon, Beacon, BeaconStore};
use vcloud::prelude::*;

#[test]
fn signed_beacon_flood_batch_verifies() {
    // 30 vehicles beacon once; the receiver batch-verifies the whole flood,
    // then ingests into the store — the E11 fast path end to end.
    let keys: Vec<SigningKey> = (0..30u8).map(|i| SigningKey::from_seed(&[i, 1])).collect();
    let now = SimTime::from_secs(10);
    let beacons: Vec<_> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let b = Beacon {
                sender: VehicleId(i as u32),
                pos: Point::new(i as f64 * 10.0, 0.0),
                vel: Point::new(13.0, 0.0),
                sent_at: now,
            };
            sign_beacon(b, k)
        })
        .collect();

    // The flood's own (payload, key, signature) triples batch-verify as one
    // multi-exponentiation; one forged signature fails the whole batch.
    let payloads: Vec<Vec<u8>> = beacons.iter().map(|sb| sb.beacon.bytes()).collect();
    let mut items: Vec<(&[u8], VerifyingKey, Signature)> = beacons
        .iter()
        .zip(&payloads)
        .zip(&keys)
        .map(|((sb, p), k)| (p.as_slice(), k.verifying_key(), sb.signature))
        .collect();
    assert!(batch_verify(&items, b"flood"));
    items[7].2 = items[8].2;
    assert!(!batch_verify(&items, b"flood"));

    // Store ingestion gives the verified neighbor view.
    let mut store = BeaconStore::new(SimDuration::from_secs(1));
    for (i, sb) in beacons.iter().enumerate() {
        store.ingest(sb, &keys[i].verifying_key(), now).unwrap();
    }
    assert_eq!(store.len(), 30);
}

#[test]
fn checkpoint_survives_host_hop_and_feeds_scheduler_state() {
    // Host A runs half a task, seals a checkpoint to host B, B opens it and
    // the scheduler-level progress number carries over.
    let b_secret = EphemeralSecret::from_seed(b"host-b-longterm");
    let cp = Checkpoint { task: TaskId(5), done_gflop: 250.0, state: vec![9u8; 2048] };
    let sealed = seal_checkpoint(&cp, VehicleId(1), VehicleId(2), &b_secret.public_share(), 77);
    // ... radio transfer (cost = sealed.wire_len() bytes) ...
    assert!(sealed.wire_len() > 2048);
    let received = open_checkpoint(&sealed, &b_secret).expect("B opens");
    assert_eq!(received.done_gflop, 250.0);

    // B resumes: remaining work only.
    let spec = TaskSpec::compute(TaskId(5), 400.0);
    let remaining = spec.work_gflop - received.done_gflop;
    assert_eq!(remaining, 150.0);
}

#[test]
fn verifiable_execution_feeds_reputation() {
    // Adjudication dissenters become reputation evidence; after a few jobs
    // the trust layer discounts the cheater.
    let keys: Vec<SigningKey> = (0..3u8).map(|i| SigningKey::from_seed(&[i, 2])).collect();
    let directory: BTreeMap<VehicleId, VerifyingKey> =
        keys.iter().enumerate().map(|(i, k)| (VehicleId(i as u32), k.verifying_key())).collect();
    let mut reputation = ReputationStore::new();
    for job in 0..6u64 {
        let receipts: Vec<ResultReceipt> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let payload: &[u8] = if i == 2 { b"cheat" } else { b"ok" };
                ResultReceipt::sign(job, VehicleId(i as u32), payload, SimTime::from_secs(job), k)
            })
            .collect();
        match adjudicate(&receipts, &directory) {
            Adjudication::Accepted { result, dissenters } => {
                assert_eq!(result, honest_digest(b"ok"));
                for d in &dissenters {
                    reputation.record(d.0 as u64, false);
                }
                for h in 0..3u64 {
                    if !dissenters.contains(&VehicleId(h as u32)) {
                        reputation.record(h, true);
                    }
                }
            }
            Adjudication::Inconclusive => panic!("majority exists"),
        }
    }
    assert!(reputation.reliability(2) < 0.2, "cheater discounted");
    assert!(reputation.reliability(0) > 0.8, "honest hosts credited");
}
