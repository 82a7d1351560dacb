//! Message content validators (paper §V-D component 2).
//!
//! Given the reports the classifier grouped for one event, each validator
//! produces a trust score in `[0, 1]` for "the event is real". Four
//! combiners, from naive to robust — exactly the design space §IV-D cites
//! (Raya et al.'s voting and Bayesian inference, plus path-similarity
//! weighting from §V-D and Dempster–Shafer evidence combination):
//!
//! * [`MajorityVote`] — count heads; collapses once attackers are a majority
//! * [`WeightedVote`] — reputation × path-independence × plausibility
//!   weights; resists collusion that funnels through shared relays
//! * [`Bayesian`] — per-reporter reliability as likelihood; sharp when
//!   reputations are warm, neutral when cold
//! * [`DempsterShafer`] — explicit uncertainty mass; degrades gracefully
//!   under conflicting evidence

use crate::report::{path_overlap, EventCluster, Report};
use crate::reputation::ReputationStore;

/// Physical-plausibility prefactor for one report, in `[0, 1]`.
///
/// Vehicles sense locally and move at road speeds; reports violating either
/// are discounted before any combination (§III-D: verify "speed, direction
/// and location is correct").
pub fn plausibility(report: &Report) -> f64 {
    let mut factor = 1.0;
    // Claimed to observe an event farther than any on-board sensor sees.
    if report.observation_distance() > 200.0 {
        factor *= 0.2;
    }
    // Claimed reporter speed beyond physical road speeds.
    if report.reporter_speed > 60.0 || report.reporter_speed < 0.0 {
        factor *= 0.2;
    }
    factor
}

/// A trust-score combiner over one event's reports.
pub trait Validator {
    /// Short name for experiment tables.
    fn name(&self) -> &'static str;

    /// Trust score in `[0, 1]` that the event is real.
    fn score(&self, cluster: &EventCluster, reputation: &ReputationStore) -> f64;

    /// Decision at the conventional 0.5 threshold.
    fn decide(&self, cluster: &EventCluster, reputation: &ReputationStore) -> bool {
        self.score(cluster, reputation) >= 0.5
    }
}

/// Unweighted majority voting.
#[derive(Debug, Default)]
pub struct MajorityVote;

impl Validator for MajorityVote {
    fn name(&self) -> &'static str {
        "majority"
    }

    fn score(&self, cluster: &EventCluster, _reputation: &ReputationStore) -> f64 {
        cluster.positive_fraction()
    }
}

/// Reputation-, path-, and plausibility-weighted voting.
#[derive(Debug, Default)]
pub struct WeightedVote;

impl Validator for WeightedVote {
    fn name(&self) -> &'static str {
        "weighted"
    }

    fn score(&self, cluster: &EventCluster, reputation: &ReputationStore) -> f64 {
        if cluster.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut positive = 0.0;
        for (i, report) in cluster.reports.iter().enumerate() {
            // Path independence: discount a report by its maximum overlap
            // with reports already counted — k colluding copies through the
            // same relay chain weigh barely more than one.
            let max_overlap =
                cluster.reports[..i].iter().map(|c| path_overlap(report, c)).fold(0.0, f64::max);
            let independence = 1.0 - max_overlap;
            let weight =
                reputation.reliability(report.reporter) * independence * plausibility(report);
            total += weight;
            if report.claim {
                positive += weight;
            }
        }
        if total == 0.0 {
            0.5
        } else {
            positive / total
        }
    }
}

/// Bayesian combination with per-reporter reliability likelihoods.
#[derive(Debug, Default)]
pub struct Bayesian;

impl Validator for Bayesian {
    fn name(&self) -> &'static str {
        "bayesian"
    }

    fn score(&self, cluster: &EventCluster, reputation: &ReputationStore) -> f64 {
        if cluster.is_empty() {
            return 0.5;
        }
        // Posterior log-odds starting from an even prior.
        let mut log_odds = 0.0f64;
        for report in &cluster.reports {
            let r = reputation.reliability(report.reporter).clamp(0.02, 0.98);
            // Plausibility shrinks the evidence toward neutrality.
            let p = plausibility(report);
            let effective = 0.5 + (r - 0.5) * p;
            let factor = if report.claim {
                effective / (1.0 - effective)
            } else {
                (1.0 - effective) / effective
            };
            log_odds += factor.ln();
        }
        let odds = log_odds.exp();
        odds / (1.0 + odds)
    }
}

/// Dempster–Shafer evidence combination with an explicit "unknown" mass.
#[derive(Debug, Default)]
pub struct DempsterShafer;

impl Validator for DempsterShafer {
    fn name(&self) -> &'static str {
        "dempster-shafer"
    }

    fn score(&self, cluster: &EventCluster, reputation: &ReputationStore) -> f64 {
        if cluster.is_empty() {
            return 0.5;
        }
        // Running masses: belief in True, False, and Unknown (frame Θ).
        let (mut mt, mut mf, mut mu) = (0.0f64, 0.0f64, 1.0f64);
        for report in &cluster.reports {
            let r = reputation.reliability(report.reporter);
            // Confidence: distance from the uninformative prior, scaled by
            // plausibility; an unknown reporter contributes mostly "unknown".
            let confidence = ((r - 0.5).abs() * 2.0).max(0.2) * plausibility(report);
            let (rt, rf) = if report.claim { (confidence, 0.0) } else { (0.0, confidence) };
            let ru = 1.0 - rt - rf;
            // Dempster's rule of combination.
            let conflict = mt * rf + mf * rt;
            let norm = 1.0 - conflict;
            if norm <= 1e-9 {
                // Total conflict: fall back to ignorance.
                mt = 0.0;
                mf = 0.0;
                mu = 1.0;
                continue;
            }
            let new_t = (mt * rt + mt * ru + mu * rt) / norm;
            let new_f = (mf * rf + mf * ru + mu * rf) / norm;
            mt = new_t;
            mf = new_f;
            mu = (1.0 - mt - mf).max(0.0);
        }
        // Pignistic transform: split the unknown mass evenly.
        mt + mu * 0.5
    }
}

/// All four validators, boxed, for sweep experiments.
pub fn all_validators() -> Vec<Box<dyn Validator>> {
    vec![
        Box::new(MajorityVote),
        Box::new(WeightedVote),
        Box::new(Bayesian),
        Box::new(DempsterShafer),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::EventKind;
    use vc_sim::geom::Point;
    use vc_sim::node::VehicleId;
    use vc_sim::time::SimTime;

    fn report(reporter: u64, claim: bool, path: Vec<u32>) -> Report {
        Report {
            reporter,
            kind: EventKind::Ice,
            location: Point::new(0.0, 0.0),
            observed_at: SimTime::from_secs(1),
            claim,
            reporter_pos: Point::new(30.0, 0.0),
            reporter_speed: 15.0,
            path: path.into_iter().map(VehicleId).collect(),
        }
    }

    fn cluster(reports: Vec<Report>) -> EventCluster {
        EventCluster { reports }
    }

    #[test]
    fn majority_follows_the_count() {
        let c = cluster(vec![
            report(1, true, vec![]),
            report(2, true, vec![]),
            report(3, false, vec![]),
        ]);
        let rep = ReputationStore::new();
        let v = MajorityVote;
        assert!((v.score(&c, &rep) - 2.0 / 3.0).abs() < 1e-12);
        assert!(v.decide(&c, &rep));
    }

    #[test]
    fn weighted_discounts_shared_paths() {
        // Three colluding "true" reports through the same relays vs two
        // independent honest "false" reports.
        let c = cluster(vec![
            report(1, true, vec![10, 11, 12]),
            report(2, true, vec![10, 11, 12]),
            report(3, true, vec![10, 11, 12]),
            report(4, false, vec![20]),
            report(5, false, vec![30]),
        ]);
        let rep = ReputationStore::new();
        let naive = MajorityVote.score(&c, &rep);
        let weighted = WeightedVote.score(&c, &rep);
        assert!(naive > 0.5, "majority is fooled: {naive}");
        assert!(weighted < 0.5, "weighting must defeat path collusion: {weighted}");
    }

    #[test]
    fn bayesian_uses_reputation() {
        let mut rep = ReputationStore::new();
        // Reporter 1 is known-good; reporters 2 and 3 known-bad.
        for _ in 0..10 {
            rep.record(1, true);
            rep.record(2, false);
            rep.record(3, false);
        }
        let c = cluster(vec![
            report(1, true, vec![1]),
            report(2, false, vec![2]),
            report(3, false, vec![3]),
        ]);
        let naive = MajorityVote.score(&c, &rep);
        let bayes = Bayesian.score(&c, &rep);
        assert!(naive < 0.5);
        // Liars claiming "false" are evidence FOR the event.
        assert!(bayes > 0.5, "bayesian must trust the reliable reporter: {bayes}");
    }

    #[test]
    fn bayesian_neutral_when_cold() {
        let rep = ReputationStore::new();
        let c = cluster(vec![report(1, true, vec![1]), report(2, false, vec![2])]);
        let score = Bayesian.score(&c, &rep);
        assert!((score - 0.5).abs() < 1e-9, "cold start is neutral: {score}");
    }

    #[test]
    fn dempster_shafer_accumulates_agreement() {
        let mut rep = ReputationStore::new();
        for r in 1..=4 {
            for _ in 0..8 {
                rep.record(r, true);
            }
        }
        let c = cluster((1..=4).map(|r| report(r, true, vec![r as u32])).collect());
        let score = DempsterShafer.score(&c, &rep);
        assert!(score > 0.9, "four reliable agreeing witnesses: {score}");
        let c_against = cluster((1..=4).map(|r| report(r, false, vec![r as u32])).collect());
        let score2 = DempsterShafer.score(&c_against, &rep);
        assert!(score2 < 0.1, "four reliable denials: {score2}");
    }

    #[test]
    fn dempster_shafer_keeps_uncertainty_with_unknowns() {
        let rep = ReputationStore::new();
        let c = cluster(vec![report(1, true, vec![1])]);
        let score = DempsterShafer.score(&c, &rep);
        assert!(score > 0.5 && score < 0.7, "one unknown witness is weak evidence: {score}");
    }

    #[test]
    fn plausibility_flags_remote_observations() {
        let mut far = report(1, true, vec![]);
        far.reporter_pos = Point::new(5000.0, 0.0);
        assert!(plausibility(&far) < 0.5);
        let mut fast = report(2, true, vec![]);
        fast.reporter_speed = 300.0;
        assert!(plausibility(&fast) < 0.5);
        assert_eq!(plausibility(&report(3, true, vec![])), 1.0);
    }

    #[test]
    fn implausible_reports_count_less_in_weighted() {
        let mut liar = report(1, true, vec![1]);
        liar.reporter_pos = Point::new(5000.0, 0.0); // claims to see 5km away
        let honest1 = report(2, false, vec![2]);
        let honest2 = report(3, false, vec![3]);
        let c = cluster(vec![liar, honest1, honest2]);
        let rep = ReputationStore::new();
        assert!(WeightedVote.score(&c, &rep) < 0.3);
    }

    #[test]
    fn empty_cluster_scores() {
        let rep = ReputationStore::new();
        let c = EventCluster::default();
        assert_eq!(MajorityVote.score(&c, &rep), 0.0);
        assert_eq!(Bayesian.score(&c, &rep), 0.5);
        assert_eq!(DempsterShafer.score(&c, &rep), 0.5);
        assert_eq!(WeightedVote.score(&c, &rep), 0.0);
    }

    #[test]
    fn all_validators_have_unique_names() {
        let names: Vec<&str> = all_validators().iter().map(|v| v.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let mut rep = ReputationStore::new();
        for r in 0..20 {
            for _ in 0..(r % 7) {
                rep.record(r, r % 2 == 0);
            }
        }
        let c = cluster((0..20).map(|r| report(r, r % 3 != 0, vec![(r % 5) as u32])).collect());
        for v in all_validators() {
            let s = v.score(&c, &rep);
            assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", v.name());
        }
    }
}
