//! Delay-optimal paths and the diameter of opportunistic mobile networks —
//! the primary contribution of Chaintreau, Mtibaa, Massoulié & Diot,
//! *The Diameter of Opportunistic Mobile Networks*, CoNEXT 2007 (§4).
//!
//! Given a contact trace (`omnet-temporal`), this crate computes, for every
//! ordered device pair and every hop budget, the full *delivery function* —
//! the optimal delivery time as a function of the message creation time —
//! represented compactly by its Pareto frontier of (last-departure,
//! earliest-arrival) pairs. On top of the delivery functions it derives the
//! exact success-probability curves of Figures 9–11 and the (1−ε)-diameter
//! of §4.1.
//!
//! # Quick tour
//!
//! ```
//! use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions};
//! use omnet_temporal::{NodeId, Time, TraceBuilder};
//!
//! // 0 meets 1, later 1 meets 2: a two-hop store-and-forward path.
//! let trace = TraceBuilder::new()
//!     .contact_secs(0, 1, 0.0, 60.0)
//!     .contact_secs(1, 2, 300.0, 360.0)
//!     .build();
//! let profiles = AllPairsProfiles::compute(&trace, ProfileOptions::default());
//! let f = profiles.profile(NodeId(0), NodeId(2), HopBound::Unlimited);
//! assert_eq!(f.delivery(Time::secs(0.0)), Time::secs(300.0));
//! ```
//!
//! Modules:
//! * [`delivery`] — the Pareto-frontier representation (§4.3, condition 4);
//! * [`algorithm`] — the all-pairs, hop-bounded induction (§4.4);
//! * [`diameter`] — exact success curves and the (1−ε)-diameter (§4.1);
//! * [`delta`] — the contact-delta value that mutable datasets apply;
//! * [`dijkstra`] — single-query earliest-arrival baseline and path
//!   witnesses (refs [1],[7]);
//! * [`witness`] — concrete path witnesses for optimal frontier pairs;
//! * [`bruteforce`] — exponential enumeration oracle for tests;
//! * [`invariants`] — runtime invariant checks (condition 4) and the
//!   differential oracle cross-checking the three path engines.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod algorithm;
pub mod bruteforce;
pub mod delivery;
pub mod delta;
pub mod diameter;
pub mod dijkstra;
pub mod invariants;
pub mod profile_stats;
pub mod witness;

pub use algorithm::{
    AllPairsProfiles, Arcs, HopBound, LevelRuns, ProfileOptions, ProfileOptionsBuilder,
    ProfilePartsError, SourceProfiles,
};
pub use delivery::DeliveryFunction;
pub use delta::ContactDelta;
pub use diameter::{day_time_windows, CurveOptions, SuccessCurves};
pub use dijkstra::{earliest_arrival, earliest_arrival_bounded, ArrivalTree};
pub use invariants::{cross_check, CrossCheckOptions, Divergence};
pub use profile_stats::{reachability_by_hops, ProfileStats};
pub use witness::{optimal_journeys, route_string, witness_for_pair};

/// One-stop imports for driving the §4 machinery: the profile engine and
/// diameter types of this crate plus the `omnet-temporal` vocabulary
/// (traces, node ids, times) every call site needs anyway.
///
/// ```
/// use omnet_core::prelude::*;
///
/// let trace = TraceBuilder::new().contact_secs(0, 1, 0.0, 60.0).build();
/// let profiles = AllPairsProfiles::compute(&trace, ProfileOptions::default());
/// assert_eq!(
///     profiles
///         .profile(NodeId(0), NodeId(1), HopBound::Unlimited)
///         .delivery(Time::ZERO),
///     Time::ZERO
/// );
/// ```
pub mod prelude {
    pub use crate::algorithm::{
        AllPairsProfiles, Arcs, HopBound, LevelRuns, ProfileOptions, ProfileOptionsBuilder,
        ProfilePartsError, SourceProfiles,
    };
    pub use crate::delivery::DeliveryFunction;
    pub use crate::delta::ContactDelta;
    pub use crate::diameter::{day_time_windows, CurveOptions, SuccessCurves};
    pub use crate::dijkstra::{earliest_arrival, earliest_arrival_bounded, ArrivalTree};
    pub use crate::profile_stats::{reachability_by_hops, ProfileStats};
    pub use crate::witness::{optimal_journeys, route_string, witness_for_pair};
    pub use omnet_temporal::{Contact, Dur, Interval, LdEa, NodeId, Time, Trace, TraceBuilder};
}
