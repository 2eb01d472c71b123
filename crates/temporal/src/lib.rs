//! Temporal-network substrate for the CoNEXT'07 *Diameter of Opportunistic
//! Mobile Networks* reproduction.
//!
//! A temporal network here is a fixed set of devices plus a multiset of
//! undirected *interval contacts* — the representation of §4.2 of the paper,
//! where an edge labelled `[t_beg, t_end]` means two devices could exchange
//! data throughout that interval. The crate provides:
//!
//! * [`Time`]/[`Dur`] — totally ordered instants and durations with `±∞`;
//! * [`Contact`]/[`Trace`] — contacts and immutable start-sorted traces with
//!   an internal/external device split;
//! * [`sequence`] — the contact-sequence algebra: validity (Eq. 2),
//!   last-departure/earliest-arrival summaries and the concatenation rule;
//! * [`invariant`] — typed structural-invariant checkers behind the
//!   workspace-wide `strict-invariants` feature;
//! * [`stats`] — every Table 1 / Figure 6 / Figure 7 metric;
//! * [`transform`] — the §6 contact-removal methodology;
//! * [`io`] — plain-text trace (de)serialization and a lenient
//!   Haggle/CRAWDAD-style importer;
//! * [`connectivity`] — contemporaneous snapshot components (the
//!   "almost-simultaneously connected" analysis of §3.2.3);
//! * [`csr`] — flat compressed-sparse-row tables, the large-N storage
//!   layout behind the engine's arc index;
//! * [`overlay`] — tombstone/append delta overlay over an immutable trace,
//!   the substrate contact deltas are applied to.
//!
//! The delay-optimal path machinery built *on top of* these types lives in
//! `omnet-core`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod connectivity;
pub mod contact;
pub mod csr;
pub mod invariant;
pub mod io;
pub mod node;
pub mod overlay;
pub mod patterns;
pub mod sequence;
pub mod stats;
pub mod time;
pub mod trace;
pub mod transform;

pub use contact::{Contact, ContactId, Interval};
pub use csr::Csr;
pub use invariant::InvariantViolation;
pub use io::{IoError, MAX_NODES};
pub use node::NodeId;
pub use overlay::{ContactKey, TraceOverlay};
pub use sequence::{ContactSeq, LdEa};
pub use time::{Dur, Time};
pub use trace::{Adjacency, BuildError, Trace, TraceBuilder};
