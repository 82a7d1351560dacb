//! Application-layer attacks from §III: data "disruption" (false-data
//! injection), Sybil amplification, and collusion against the
//! trustworthiness layer.

use crate::outcome::{AttackOutcome, Defense};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::rng::SimRng;
use vc_sim::time::SimTime;
use vc_trust::prelude::*;

/// Builds an honest report about ground truth (with sensing noise).
fn honest_report(reporter: u64, truth: bool, rng: &mut SimRng) -> Report {
    // Honest sensors occasionally err (5%).
    let claim = if rng.chance(0.05) { !truth } else { truth };
    Report {
        reporter,
        kind: EventKind::Ice,
        location: Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)),
        observed_at: SimTime::from_secs(10),
        claim,
        reporter_pos: Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0)),
        reporter_speed: rng.range_f64(5.0, 25.0),
        path: vec![VehicleId(reporter as u32), VehicleId((reporter % 7) as u32 + 100)],
    }
}

/// Builds a lying report (always the opposite of truth).
fn lying_report(
    reporter: u64,
    truth: bool,
    rng: &mut SimRng,
    shared_path: Option<Vec<VehicleId>>,
) -> Report {
    Report {
        reporter,
        kind: EventKind::Ice,
        location: Point::new(rng.range_f64(-20.0, 20.0), rng.range_f64(-20.0, 20.0)),
        observed_at: SimTime::from_secs(10),
        claim: !truth,
        reporter_pos: Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0)),
        reporter_speed: rng.range_f64(5.0, 25.0),
        path: shared_path.unwrap_or_else(|| vec![VehicleId(reporter as u32)]),
    }
}

/// False-data injection: a fraction of independent attackers lie about an
/// event. Defense Off = naive majority voting with no history; On =
/// weighted voting with warmed-up reputation. Success = the victim reaches
/// the wrong conclusion.
pub fn false_data_attack(
    defense: Defense,
    attacker_fraction: f64,
    honest: usize,
    trials: usize,
    rng: &mut SimRng,
) -> AttackOutcome {
    let attackers = ((honest as f64 * attacker_fraction) / (1.0 - attacker_fraction).max(0.05))
        .round()
        .max(1.0) as usize;
    let mut outcome = AttackOutcome::new();
    // Reputation warmed by prior confirmed events (defended case only).
    let mut reputation = ReputationStore::new();
    if defense == Defense::On {
        for r in 0..honest as u64 {
            for _ in 0..5 {
                reputation.record(r, true);
            }
        }
        for a in 0..attackers as u64 {
            for _ in 0..5 {
                reputation.record(1000 + a, false);
            }
        }
    }
    for t in 0..trials {
        let truth = t % 2 == 0;
        let mut reports = Vec::new();
        for r in 0..honest as u64 {
            reports.push(honest_report(r, truth, rng));
        }
        for a in 0..attackers as u64 {
            reports.push(lying_report(1000 + a, truth, rng, None));
        }
        let cluster = EventCluster { reports };
        let decided = match defense {
            Defense::Off => MajorityVote.decide(&cluster, &ReputationStore::new()),
            Defense::On => WeightedVote.decide(&cluster, &reputation),
        };
        outcome.record(decided != truth, SimTime::ZERO, None);
    }
    outcome
}

/// Sybil attack: one attacker fabricates `sybils` pseudonymous identities,
/// all of whose reports necessarily traverse the attacker's radio (shared
/// path). Defense Off = majority voting counts each sybil fully; On =
/// path-overlap-weighted voting collapses them to ~one vote.
pub fn sybil_attack(
    defense: Defense,
    sybils: usize,
    honest: usize,
    trials: usize,
    rng: &mut SimRng,
) -> AttackOutcome {
    let mut outcome = AttackOutcome::new();
    let reputation = ReputationStore::new();
    for t in 0..trials {
        let truth = t % 2 == 0;
        let mut reports = Vec::new();
        for r in 0..honest as u64 {
            reports.push(honest_report(r, truth, rng));
        }
        // All sybil reports share the attacker's relay path.
        let shared: Vec<VehicleId> = vec![VehicleId(666), VehicleId(667)];
        for s in 0..sybils as u64 {
            reports.push(lying_report(2000 + s, truth, rng, Some(shared.clone())));
        }
        let cluster = EventCluster { reports };
        let decided = match defense {
            Defense::Off => MajorityVote.decide(&cluster, &reputation),
            Defense::On => WeightedVote.decide(&cluster, &reputation),
        };
        outcome.record(decided != truth, SimTime::ZERO, None);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_false_data_fails_even_undefended() {
        let mut rng = SimRng::seed_from(1);
        let off = false_data_attack(Defense::Off, 0.2, 10, 100, &mut rng);
        assert!(off.rate() < 0.3, "20% liars rarely flip a majority: {off}");
    }

    #[test]
    fn majority_false_data_beats_naive_vote_but_not_weighted() {
        let mut rng = SimRng::seed_from(2);
        let off = false_data_attack(Defense::Off, 0.6, 10, 100, &mut rng);
        let on = false_data_attack(Defense::On, 0.6, 10, 100, &mut rng);
        assert!(off.rate() > 0.7, "60% liars swamp a naive majority: {off}");
        assert!(on.rate() < 0.2, "warmed reputation resists: {on}");
    }

    #[test]
    fn sybil_amplification_defeated_by_path_weighting() {
        let mut rng = SimRng::seed_from(3);
        // 12 sybils vs 8 honest: majority falls, weighted holds.
        let off = sybil_attack(Defense::Off, 12, 8, 100, &mut rng);
        let on = sybil_attack(Defense::On, 12, 8, 100, &mut rng);
        assert!(off.rate() > 0.8, "sybils swamp majority: {off}");
        assert!(on.rate() < 0.3, "path weighting collapses sybils: {on}");
    }
}
