//! # vc-auth — privacy-preserving authentication for vehicular clouds
//!
//! The three protocol families the paper surveys (§IV-B, Fig. 5), plus
//! service tokens and replay protection:
//!
//! * [`identity`] — real identities and the (offline) trusted authority
//! * [`pseudonym`] — pseudonym certificate pools with CRL-based revocation;
//!   high per-message overhead, linkable between rotations, TA-conditional
//!   privacy
//! * [`groupsig`] — group signatures with coordinator-held opening; constant
//!   verify cost, no CRL, but the coordinator learns membership
//! * [`hybrid`] — short-lived locally issued certificates with a TA-sealed
//!   trapdoor; no CRL scan *and* no issuer knowledge of identity
//! * [`token`] — pseudonymous service access tokens for v-cloud sessions
//! * [`replay`] — timestamp-window + nonce-cache replay defense
//!
//! Experiment E4 measures exactly the trade-offs these modules encode.
//!
//! ## Example
//!
//! ```
//! use vc_auth::prelude::*;
//! use vc_sim::prelude::{SimTime, SimDuration, VehicleId};
//!
//! let mut ta = TrustedAuthority::new(b"root");
//! let mut registry = PseudonymRegistry::new();
//! let identity = RealIdentity::for_vehicle(VehicleId(1));
//! ta.register(identity.clone(), VehicleId(1));
//! let wallet = registry
//!     .issue_wallet(&ta, &identity, 8, SimTime::ZERO, SimTime::from_secs(3600), b"seed")
//!     .unwrap();
//! let now = SimTime::from_secs(5);
//! let message = wallet.sign(b"road clear", now);
//! assert!(vc_auth::pseudonym::verify(
//!     &message, &ta.public_key(), registry.crl(), now, SimDuration::from_secs(5)
//! ).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod groupsig;
pub mod handshake;
pub mod hybrid;
pub mod identity;
pub mod pseudonym;
pub mod replay;
pub mod token;

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::groupsig::{
        GroupCoordinator, GroupId, GroupMessage, MemberCredential, MemberTag,
    };
    pub use crate::handshake::{
        respond as handshake_respond, run_handshake, run_handshake_cached, HandshakeMessage,
        HandshakeObsParams, Initiator, SessionCache,
    };
    pub use crate::hybrid::{HybridCredential, HybridMessage, RegionalIssuer, TaOpening};
    pub use crate::identity::{AuthError, RealIdentity, TrustedAuthority};
    pub use crate::pseudonym::{
        LinkageSeed, PseudonymCert, PseudonymId, PseudonymMessage, PseudonymRegistry,
        PseudonymWallet,
    };
    pub use crate::replay::{ReplayGuard, ReplayVerdict};
    pub use crate::token::{ServiceId, ServiceToken, TokenGateway};
}
