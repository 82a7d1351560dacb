//! E20 — the crypto fast path end to end: verified beacons per second at
//! E5 cluster densities, before (square-and-multiply per-message
//! verification, the pre-fast-path stack) vs after (one
//! random-linear-combination batch per reception window), with the
//! intermediate windowed-but-sequential column for attribution
//! (extension; paper §IV-D citations \[21\] "batch verification" and \[44\]
//! "real-time digital signatures").
//!
//! E11 measured raw `batch_verify` on bare signatures; this experiment
//! measures the same win where it lands in the stack — [`vc_net::beacon`]'s
//! `BeaconStore::ingest_batch`, which also pays the store's freshness and
//! supersession checks — at the neighbor densities E5's contact-window
//! clusters produce. The "before" column is the square-and-multiply
//! reference verifier, [`vc_crypto::oracle::verify`], over each beacon's
//! signed bytes.

use crate::table::{f1, f3, Table};
use std::time::Instant;
use vc_crypto::oracle;
use vc_crypto::schnorr::{SigningKey, VerifyingKey};
use vc_net::beacon::{sign_beacon, Beacon, BeaconStore, SignedBeacon};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::time::{SimDuration, SimTime};

/// Runs E20.
pub fn run(quick: bool, seed: u64, _rec: Option<&mut vc_obs::Recorder>) -> Table {
    let reps = if quick { 2 } else { 8 };

    let mut table = Table::new(
        "E20",
        "crypto fast path: verified beacons/sec, before (scalar) vs after (batched)",
        "§IV-D [21],[44] (batch verification) at E5 cluster densities",
        &[
            "neighbors",
            "scalar ms",
            "windowed ms",
            "batch ms",
            "speedup",
            "before beacons/s",
            "after beacons/s",
        ],
    );

    let now = SimTime::from_secs(10);
    // E5's contact-window clusters: 8–64 vehicles in DSRC range, each
    // beaconing under its own (pseudonym) key.
    for density in [8usize, 16, 32, 64] {
        let window: Vec<(SignedBeacon, VerifyingKey)> = (0..density)
            .map(|i| {
                let sk = SigningKey::from_seed(&[i as u8, 0x20, seed as u8]);
                let beacon = Beacon {
                    sender: VehicleId(i as u32),
                    pos: Point::new(i as f64 * 7.5, 0.0),
                    vel: Point::new(13.2, 0.0),
                    sent_at: now,
                };
                (sign_beacon(beacon, &sk), sk.verifying_key())
            })
            .collect();

        // Before: square-and-multiply per message — the cost every verifier
        // paid until this fast path landed (no table, no windows, no batch).
        let start = Instant::now();
        for _ in 0..reps {
            for (sb, key) in &window {
                assert!(oracle::verify(key, &sb.beacon.bytes(), &sb.signature));
            }
        }
        let scalar_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;

        // Intermediate: windowed/table verification, still one beacon at a
        // time through the store's normal ingest.
        let start = Instant::now();
        for _ in 0..reps {
            let mut store = BeaconStore::new(SimDuration::from_secs(1));
            for (sb, key) in &window {
                assert!(store.ingest(sb, key, now).is_ok());
            }
            assert_eq!(store.len(), density);
        }
        let seq_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;

        // After: one random-linear-combination batch per reception window.
        let start = Instant::now();
        for _ in 0..reps {
            let mut store = BeaconStore::new(SimDuration::from_secs(1));
            let verdicts = store.ingest_batch(&window, now);
            assert!(verdicts.iter().all(|v| v.is_ok()));
            assert_eq!(store.len(), density);
        }
        let batch_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;

        table.row(vec![
            density.to_string(),
            f3(scalar_ms),
            f3(seq_ms),
            f3(batch_ms),
            format!("{}x", f1(scalar_ms / batch_ms.max(1e-9))),
            f1(density as f64 / (scalar_ms / 1e3).max(1e-9)),
            f1(density as f64 / (batch_ms / 1e3).max(1e-9)),
        ]);
    }
    table.note("expected shape: windowed verification roughly halves the ~770-multiply scalar baseline (~390 each), and batched ingest amortizes one ~250-squaring chain across the window (~120 multiplies per beacon), so the before-vs-after speedup clears 3x at every density and grows with it");
    table.note("verdicts and final store state are identical across all three paths (see vc-net beacon tests); a failed batch falls back to per-signature attribution inside vc_crypto::schnorr::verify_batch");
    table
}
