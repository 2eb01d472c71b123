//! Runtime invariant checking and differential oracles (the correctness
//! layer of the §4 machinery).
//!
//! Two kinds of mechanical checks live here:
//!
//! * **Structural invariants** — [`DeliveryFunction::validate`] re-verifies
//!   condition (4) (strict Pareto frontier), complementing the trace and
//!   sequence checkers in [`omnet_temporal::invariant`]. Like those, it is
//!   wired into constructors through [`enforce`], active in debug builds
//!   and always-on under the `strict-invariants` feature.
//! * **Differential oracles** — [`cross_check`] runs the production §4.4
//!   induction ([`crate::algorithm`]) against two independent
//!   implementations: the exponential enumeration oracle
//!   ([`crate::bruteforce`]) per hop class, and the single-query
//!   time-dependent Dijkstra ([`crate::dijkstra`]) at sampled start times.
//!   Any disagreement is reported as a typed [`Divergence`] carrying the
//!   witnesses, so a failing randomized run pinpoints the exact pair, hop
//!   bound and start time that separated the implementations.

use crate::algorithm::{AllPairsProfiles, Arcs, HopBound, ProfileOptions};
use crate::bruteforce;
use crate::delivery::DeliveryFunction;
use crate::dijkstra::earliest_arrival;
use omnet_temporal::invariant::InvariantViolation;
use omnet_temporal::{invariant, LdEa, NodeId, Time, Trace};

pub use omnet_temporal::invariant::{enforce, validate_frontier, STRICT};

impl DeliveryFunction {
    /// Re-checks condition (4): the frontier pairs must be strictly
    /// increasing in both `LD` and `EA`.
    ///
    /// Frontiers built through [`DeliveryFunction::insert`] and
    /// [`DeliveryFunction::from_pairs`] hold this by construction; this is
    /// the mechanical re-verification run by debug and `strict-invariants`
    /// builds.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        invariant::validate_frontier(self.pairs())
    }
}

/// One disagreement between the §4.4 production algorithm and an oracle.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// The §4.4 induction and the brute-force enumeration produced
    /// different frontiers for a pair and hop class.
    FrontierMismatch {
        /// Source node.
        source: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Hop bound under which the two differ.
        max_hops: usize,
        /// Frontier from [`crate::algorithm`].
        algorithm: Vec<LdEa>,
        /// Frontier from [`crate::bruteforce`].
        bruteforce: Vec<LdEa>,
    },
    /// The unbounded profile and time-dependent Dijkstra disagree on one
    /// earliest-arrival query.
    ArrivalMismatch {
        /// Source node.
        source: NodeId,
        /// Destination node.
        dest: NodeId,
        /// Message creation time of the query.
        start: Time,
        /// `profile(source, dest).delivery(start)`.
        algorithm: Time,
        /// `earliest_arrival(source, start).arrival(dest)`.
        dijkstra: Time,
    },
    /// A computed frontier failed [`DeliveryFunction::validate`].
    InvalidFrontier {
        /// Source node.
        source: NodeId,
        /// Destination node.
        dest: NodeId,
        /// The violation found.
        violation: InvariantViolation,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::FrontierMismatch {
                source,
                dest,
                max_hops,
                algorithm,
                bruteforce,
            } => write!(
                f,
                "frontier mismatch {source}->{dest} at <= {max_hops} hops: \
                 algorithm {algorithm:?} vs bruteforce {bruteforce:?}"
            ),
            Divergence::ArrivalMismatch {
                source,
                dest,
                start,
                algorithm,
                dijkstra,
            } => write!(
                f,
                "arrival mismatch {source}->{dest} from t={start}: \
                 algorithm {algorithm} vs dijkstra {dijkstra}"
            ),
            Divergence::InvalidFrontier {
                source,
                dest,
                violation,
            } => write!(f, "invalid frontier {source}->{dest}: {violation}"),
        }
    }
}

/// Options for [`cross_check`], the differential oracle over the §4.4
/// induction, the brute-force enumeration and time-dependent Dijkstra.
#[derive(Debug, Clone)]
pub struct CrossCheckOptions {
    /// Hop classes checked against the brute-force oracle (exponential —
    /// keep small, and keep traces tiny).
    pub hop_classes: Vec<usize>,
    /// Start times at which Dijkstra cross-checks every pair.
    pub starts: Vec<Time>,
    /// Stop after this many divergences (the rest would usually be noise
    /// from the same root cause).
    pub max_divergences: usize,
}

impl Default for CrossCheckOptions {
    fn default() -> CrossCheckOptions {
        CrossCheckOptions {
            hop_classes: vec![1, 2, 3, 4],
            starts: vec![Time::ZERO],
            max_divergences: 8,
        }
    }
}

/// The nodes with at least one contact, ascending: the only ones
/// [`cross_check`] compares. A pair with a contactless endpoint has no
/// valid contact sequence (§3), so it is ∅ in every engine.
pub fn contact_nodes(trace: &Trace) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = trace.contacts().iter().flat_map(|c| [c.a, c.b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Cross-checks the three path engines on one (small) trace, over the
/// ordered pairs of distinct [`contact_nodes`].
///
/// Returns every divergence found, up to `opts.max_divergences`; an empty
/// vector means the §4.4 induction, the exponential enumeration and the
/// time-dependent Dijkstra agreed everywhere they overlap, and every
/// frontier passed [`DeliveryFunction::validate`].
pub fn cross_check(trace: &Trace, opts: &CrossCheckOptions) -> Vec<Divergence> {
    let mut out = Vec::new();
    let nodes = contact_nodes(trace);
    let rows = AllPairsProfiles::for_each_row(
        trace,
        &Arcs::of(trace),
        ProfileOptions::default(),
        &nodes,
        |row| row,
    );

    'outer: for row in &rows {
        for &d in &nodes {
            let s = row.source();
            if s == d {
                continue;
            }
            let unlimited = row.profile(d, HopBound::Unlimited);
            if let Err(violation) = unlimited.validate() {
                out.push(Divergence::InvalidFrontier {
                    source: s,
                    dest: d,
                    violation,
                });
            }
            for &k in &opts.hop_classes {
                let brute = bruteforce::delivery_function(trace, s, d, k);
                let fast = row.profile(d, HopBound::AtMost(k));
                if brute.pairs() != fast.pairs() {
                    out.push(Divergence::FrontierMismatch {
                        source: s,
                        dest: d,
                        max_hops: k,
                        algorithm: fast.pairs().to_vec(),
                        bruteforce: brute.pairs().to_vec(),
                    });
                }
                if out.len() >= opts.max_divergences {
                    break 'outer;
                }
            }
        }
    }

    'starts: for &t0 in &opts.starts {
        for row in &rows {
            let s = row.source();
            let tree = earliest_arrival(trace, s, t0);
            for &d in &nodes {
                let via_profile = row.delivery(d, t0, HopBound::Unlimited);
                let via_dijkstra = tree.arrival(d);
                if via_profile != via_dijkstra {
                    out.push(Divergence::ArrivalMismatch {
                        source: s,
                        dest: d,
                        start: t0,
                        algorithm: via_profile,
                        dijkstra: via_dijkstra,
                    });
                    if out.len() >= opts.max_divergences {
                        break 'starts;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_temporal::TraceBuilder;

    #[test]
    fn frontier_validate_accepts_constructed_functions() {
        let p = |ld: f64, ea: f64| LdEa {
            ld: Time::secs(ld),
            ea: Time::secs(ea),
        };
        let f = DeliveryFunction::from_pairs([p(10.0, 8.0), p(5.0, 9.0), p(20.0, 15.0)]);
        assert_eq!(f.validate(), Ok(()));
        assert_eq!(DeliveryFunction::empty().validate(), Ok(()));
        assert_eq!(DeliveryFunction::identity().validate(), Ok(()));
    }

    #[test]
    fn cross_check_agrees_on_a_chain() {
        let trace = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 60.0)
            .contact_secs(1, 2, 300.0, 360.0)
            .contact_secs(2, 3, 200.0, 500.0)
            .build();
        let opts = CrossCheckOptions {
            starts: vec![Time::ZERO, Time::secs(100.0), Time::secs(400.0)],
            ..CrossCheckOptions::default()
        };
        let divergences = cross_check(&trace, &opts);
        assert!(divergences.is_empty(), "unexpected: {divergences:?}");
    }
}
