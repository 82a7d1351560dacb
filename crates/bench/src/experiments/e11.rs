//! E11 — batch signature verification for time-critical networks
//! (extension; paper §IV-D citations \[21\] "batch verification" and \[44\]
//! "real-time digital signatures").
//!
//! Dense traffic means hundreds of signed beacons per second per receiver;
//! per-message verification cannot keep up. Batch verification with shared
//! multi-exponentiation amortizes the cost.

use crate::table::{f1, f3, Table};
use std::time::Instant;
use vc_crypto::schnorr::{batch_verify, Signature, SigningKey, VerifyingKey};

/// Runs E11.
pub fn run(quick: bool, _seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let reps = if quick { 5 } else { 20 };

    let mut table = Table::new(
        "E11",
        "batch signature verification scaling",
        "§IV-D [21],[44] (batch verification under real-time constraints)",
        &[
            "batch size",
            "individual ms total",
            "batch ms total",
            "speedup",
            "per-sig batch ms",
            "beacons/s sustainable",
        ],
    );

    let items: Vec<(Vec<u8>, VerifyingKey, Signature)> = (0..64u8)
        .map(|i| {
            let sk = SigningKey::from_seed(&[i, 0x11, 0x22]);
            let msg = format!("beacon #{i} pos=(12.5,{}) v=13.2", i).into_bytes();
            let sig = sk.sign(&msg);
            (msg, sk.verifying_key(), sig)
        })
        .collect();

    for batch in [1usize, 4, 8, 16, 32, 64] {
        let slice: Vec<(&[u8], VerifyingKey, Signature)> =
            items[..batch].iter().map(|(m, k, s)| (m.as_slice(), *k, *s)).collect();

        let start = Instant::now();
        for _ in 0..reps {
            for (m, k, s) in &slice {
                assert!(k.verify(m, s));
            }
        }
        let individual_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;

        let start = Instant::now();
        for _ in 0..reps {
            assert!(batch_verify(&slice, b"e11"));
        }
        let batch_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;

        let per_sig = batch_ms / batch as f64;
        table.row(vec![
            batch.to_string(),
            f3(individual_ms),
            f3(batch_ms),
            format!("{}x", f1(individual_ms / batch_ms.max(1e-9))),
            f3(per_sig),
            f1(1_000.0 / per_sig.max(1e-9)),
        ]);
    }
    table.note("expected shape: per-signature cost falls with batch size (shared squaring chain); speedup approaches the ratio of multiplies-to-squarings as batches grow — how dense-traffic beacon floods stay verifiable in real time");
    table.note("a failed batch identifies no culprit: receivers bisect or fall back to individual verification (cost rows 'individual')");
    table
}
