//! # vc-trust — real-time information trustworthiness assessment
//!
//! The paper's fourth research thrust (§III-D, §IV-D, §V-D): a vehicle
//! receiving conflicting reports about a physical event must decide, under
//! time pressure, whether the event is real.
//!
//! * [`report`] — event reports with pseudonymous senders and routing paths
//! * [`classifier`] — groups inbox messages into per-event clusters
//!   (component 1 of §V-D's trust model)
//! * [`validators`] — four content validators from naive voting to
//!   Dempster–Shafer, with physical-plausibility prefilters (component 2)
//! * [`reputation`] — the Beta-reputation baseline the paper critiques
//!
//! Experiment E9 sweeps attacker fraction and collusion structure across
//! all validators.
//!
//! ## Example
//!
//! ```
//! use vc_trust::prelude::*;
//! use vc_sim::prelude::{Point, SimTime, VehicleId};
//!
//! let reports: Vec<Report> = (0..5)
//!     .map(|i| Report {
//!         reporter: i,
//!         kind: EventKind::Ice,
//!         location: Point::new(0.0, 0.0),
//!         observed_at: SimTime::from_secs(1),
//!         claim: i < 4, // 4 confirmations, 1 denial
//!         reporter_pos: Point::new(10.0, 0.0),
//!         reporter_speed: 10.0,
//!         path: vec![VehicleId(i as u32)],
//!     })
//!     .collect();
//! let clusters = classify(&reports, &ClassifierConfig::default());
//! assert_eq!(clusters.len(), 1);
//! let rep = ReputationStore::new();
//! assert!(MajorityVote.decide(&clusters[0], &rep));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classifier;
pub mod report;
pub mod reputation;
pub mod validators;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::classifier::{classify, ClassifierConfig};
    pub use crate::report::{path_overlap, EventCluster, EventKind, Report};
    pub use crate::reputation::ReputationStore;
    pub use crate::validators::{
        all_validators, plausibility, Bayesian, DempsterShafer, MajorityVote, Validator,
        WeightedVote,
    };
}
