//! Contact traces: a temporal network as recorded by an experiment.
//!
//! A [`Trace`] is the immutable, canonical form of a data set: a dense node
//! universe, an observation window, a start-sorted vector of undirected
//! interval contacts, and an optional internal/external split mirroring the
//! Haggle experiments (§5.1) — external devices are opportunistically seen
//! strangers whose mutual contacts were never recorded.

use crate::contact::{Contact, ContactId, Interval};
use crate::invariant::{self, InvariantViolation};
use crate::node::NodeId;
use crate::time::Time;

/// An immutable contact trace: the §2–§3 contact process as data.
#[derive(Debug, Clone)]
pub struct Trace {
    num_nodes: u32,
    /// Sorted by `(start, end, a, b)`.
    contacts: Vec<Contact>,
    /// Observation window (covers every contact).
    span: Interval,
    /// Nodes with id `>= internal` are external devices; `internal ==
    /// num_nodes` when every device is internal.
    internal: u32,
}

impl Trace {
    /// Builds a trace from parts. Most callers use [`TraceBuilder`].
    fn from_parts(
        num_nodes: u32,
        mut contacts: Vec<Contact>,
        span: Interval,
        internal: u32,
    ) -> Trace {
        contacts.sort_by_key(|x| (x.start(), x.end(), x.a, x.b));
        for c in &contacts {
            assert!(c.b.0 < num_nodes, "contact endpoint outside node universe");
            assert!(
                span.start <= c.start() && c.end() <= span.end,
                "contact outside the observation window"
            );
        }
        assert!(internal <= num_nodes);
        let trace = Trace {
            num_nodes,
            contacts,
            span,
            internal,
        };
        invariant::enforce(|| trace.validate());
        trace
    }

    /// Re-checks every structural invariant of the canonical form: sorted,
    /// canonically ordered, in-window, in-universe contacts (§5.1).
    ///
    /// Traces built through [`TraceBuilder`] hold these by construction;
    /// this is the mechanical re-verification run by debug and
    /// `strict-invariants` builds, and by `omnet check` on imported data.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        invariant::validate_trace_parts(self.num_nodes, self.internal, self.span, &self.contacts)
    }

    /// Number of devices (internal + external).
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of internal (experimental) devices.
    pub fn num_internal(&self) -> u32 {
        self.internal
    }

    /// Number of external devices.
    pub fn num_external(&self) -> u32 {
        self.num_nodes - self.internal
    }

    /// True when `n` is an internal device.
    pub fn is_internal(&self, n: NodeId) -> bool {
        n.0 < self.internal
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Internal node ids.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.internal).map(NodeId)
    }

    /// The contacts, sorted by start time.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Number of contacts.
    pub fn num_contacts(&self) -> usize {
        self.contacts.len()
    }

    /// Contact by id.
    pub fn contact(&self, id: ContactId) -> &Contact {
        &self.contacts[id.0 as usize]
    }

    /// The observation window.
    pub fn span(&self) -> Interval {
        self.span
    }

    /// All contacts between the unordered pair `{u, v}`, in start order.
    pub fn pair_contacts(&self, u: NodeId, v: NodeId) -> Vec<Contact> {
        self.contacts
            .iter()
            .filter(|c| c.touches(u) && c.touches(v))
            .copied()
            .collect()
    }

    /// Per-node incident contact ids, each list sorted by contact start.
    pub fn adjacency(&self) -> Adjacency {
        let mut per_node: Vec<Vec<ContactId>> = vec![Vec::new(); self.num_nodes as usize];
        for (i, c) in self.contacts.iter().enumerate() {
            per_node[c.a.index()].push(ContactId(i as u32));
            per_node[c.b.index()].push(ContactId(i as u32));
        }
        // contacts are start-sorted, so each per-node list already is.
        Adjacency { per_node }
    }

    /// The static graph of pairs in contact at instant `t`, as an adjacency
    /// list (used for contemporaneous-connectivity analyses, long-contact
    /// case §3.1.3).
    pub fn snapshot(&self, t: Time) -> Vec<Vec<NodeId>> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_nodes as usize];
        for c in &self.contacts {
            if c.start() > t {
                break;
            }
            if c.interval.contains(t) {
                adj[c.a.index()].push(c.b);
                adj[c.b.index()].push(c.a);
            }
        }
        adj
    }

    /// Rebuilds a trace identical to `self` but holding `contacts` (used by
    /// the transforms; keeps the node universe and window).
    pub fn with_contacts(&self, contacts: Vec<Contact>) -> Trace {
        Trace::from_parts(self.num_nodes, contacts, self.span, self.internal)
    }
}

/// Per-node incidence lists over a trace (the access pattern of the
/// §4.4 induction and the Dijkstra baseline).
#[derive(Debug, Clone)]
pub struct Adjacency {
    per_node: Vec<Vec<ContactId>>,
}

impl Adjacency {
    /// Contact ids incident to `n`, sorted by contact start.
    pub fn incident(&self, n: NodeId) -> &[ContactId] {
        &self.per_node[n.index()]
    }
}

/// Incremental construction of a [`Trace`], canonicalizing contacts into
/// the sorted form the §3 trace model assumes.
///
/// ```
/// use omnet_temporal::TraceBuilder;
///
/// let trace = TraceBuilder::new()
///     .contact_secs(0, 1, 0.0, 120.0)
///     .contact_secs(1, 2, 60.0, 180.0)
///     .build();
/// assert_eq!(trace.num_nodes(), 3);
/// assert_eq!(trace.num_contacts(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    contacts: Vec<Contact>,
    num_nodes: Option<u32>,
    window: Option<Interval>,
    internal: Option<u32>,
    merge_overlaps: bool,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder {
            contacts: Vec::new(),
            num_nodes: None,
            window: None,
            internal: None,
            merge_overlaps: false,
        }
    }

    /// Fixes the node universe size (otherwise inferred as `max id + 1`).
    pub fn num_nodes(mut self, n: u32) -> TraceBuilder {
        self.num_nodes = Some(n);
        self
    }

    /// Fixes the observation window (otherwise inferred from the contacts).
    pub fn window(mut self, w: Interval) -> TraceBuilder {
        self.window = Some(w);
        self
    }

    /// Declares that ids `0..n` are internal and the rest external.
    pub fn internal(mut self, n: u32) -> TraceBuilder {
        self.internal = Some(n);
        self
    }

    /// Merge overlapping/touching same-pair contacts into single intervals
    /// during `build` (scanners occasionally log a long sighting as several
    /// abutting rows).
    pub fn merge_overlaps(mut self, yes: bool) -> TraceBuilder {
        self.merge_overlaps = yes;
        self
    }

    /// Adds one contact.
    pub fn contact(mut self, c: Contact) -> TraceBuilder {
        self.contacts.push(c);
        self
    }

    /// Adds one contact by raw ids and seconds.
    pub fn contact_secs(self, u: u32, v: u32, start: f64, end: f64) -> TraceBuilder {
        self.contact(Contact::secs(u, v, start, end))
    }

    /// Adds many contacts.
    pub fn contacts<I: IntoIterator<Item = Contact>>(mut self, it: I) -> TraceBuilder {
        self.contacts.extend(it);
        self
    }

    /// Mutable push, for loop-style callers.
    pub fn push(&mut self, c: Contact) {
        self.contacts.push(c);
    }

    /// Finalizes the trace.
    ///
    /// Panics if a fixed node-universe size or window is violated, or if the
    /// internal split exceeds the universe; [`TraceBuilder::try_build`]
    /// reports these instead.
    pub fn build(mut self) -> Trace {
        let (num_nodes, span, internal) = self.shape();
        if self.merge_overlaps {
            self.contacts = merge_same_pair_overlaps(self.contacts);
        }
        Trace::from_parts(num_nodes, self.contacts, span, internal)
    }

    /// Finalizes the trace, or names the first §3 trace-model rule the
    /// inputs break: a contact outside the node universe (a fixed count,
    /// or `u32::MAX` when the count is inferred as `max id + 1`), a contact
    /// outside a fixed window, or an internal split above the universe.
    pub fn try_build(self) -> Result<Trace, BuildError> {
        let (num_nodes, span, internal) = self.shape();
        let contacts = &self.contacts;
        if let Some(i) = contacts.iter().position(|c| c.b.0 >= num_nodes) {
            return Err(BuildError::NodeOutsideUniverse(i));
        }
        if let Some(i) = contacts
            .iter()
            .position(|c| c.start() < span.start || c.end() > span.end)
        {
            return Err(BuildError::OutsideWindow(i));
        }
        if internal > num_nodes {
            return Err(BuildError::InternalExceedsNodes);
        }
        Ok(self.build())
    }

    /// The node count, window and internal split the trace will have:
    /// the fixed ones, or those inferred from the contacts.
    fn shape(&self) -> (u32, Interval, u32) {
        let max_id = self.contacts.iter().map(|c| c.b.0).max();
        let num_nodes = match (self.num_nodes, max_id) {
            (Some(n), _) => n,
            // Saturating, so a contact naming `u32::MAX` lies outside.
            (None, Some(m)) => m.saturating_add(1),
            (None, None) => 0,
        };
        let span = match self.window {
            Some(w) => w,
            None => {
                let lo = self
                    .contacts
                    .iter()
                    .map(|c| c.start())
                    .min()
                    .unwrap_or(Time::ZERO);
                let hi = self
                    .contacts
                    .iter()
                    .map(|c| c.end())
                    .max()
                    .unwrap_or(Time::ZERO);
                Interval::new(lo, hi)
            }
        };
        (num_nodes, span, self.internal.unwrap_or(num_nodes))
    }
}

/// The §3 trace-model rule a [`TraceBuilder`]'s inputs break; a contact is
/// named by its index in the order the contacts were added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// This contact names a node outside the node universe.
    NodeOutsideUniverse(usize),
    /// This contact lies outside the fixed observation window.
    OutsideWindow(usize),
    /// The internal split exceeds the node universe.
    InternalExceedsNodes,
}

/// Merges overlapping or touching contacts of the same pair.
fn merge_same_pair_overlaps(mut contacts: Vec<Contact>) -> Vec<Contact> {
    contacts.sort_by_key(|x| (x.a, x.b, x.start(), x.end()));
    let mut out: Vec<Contact> = Vec::with_capacity(contacts.len());
    for c in contacts {
        match out.last_mut() {
            Some(last) if last.a == c.a && last.b == c.b => {
                if let Some(merged) = last.interval.merge(&c.interval) {
                    last.interval = merged;
                } else {
                    out.push(c);
                }
            }
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn toy() -> Trace {
        TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 5.0, 15.0)
            .contact_secs(0, 2, 20.0, 30.0)
            .build()
    }

    #[test]
    fn builder_infers_universe_and_span() {
        let t = toy();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_contacts(), 3);
        assert_eq!(t.span(), Interval::secs(0.0, 30.0));
        assert_eq!(t.num_internal(), 3);
        assert_eq!(t.num_external(), 0);
    }

    #[test]
    fn contacts_sorted_by_start() {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 50.0, 60.0)
            .contact_secs(0, 2, 0.0, 5.0)
            .contact_secs(1, 2, 20.0, 25.0)
            .build();
        let starts: Vec<f64> = t.contacts().iter().map(|c| c.start().as_secs()).collect();
        assert_eq!(starts, vec![0.0, 20.0, 50.0]);
    }

    #[test]
    fn adjacency_lists() {
        let t = toy();
        let adj = t.adjacency();
        assert_eq!(adj.incident(NodeId(0)).len(), 2);
        assert_eq!(adj.incident(NodeId(1)).len(), 2);
        assert_eq!(adj.incident(NodeId(2)).len(), 2);
        // incident lists are start-sorted
        let n1 = adj.incident(NodeId(1));
        assert!(t.contact(n1[0]).start() <= t.contact(n1[1]).start());
    }

    #[test]
    fn snapshot_at_instant() {
        let t = toy();
        let snap = t.snapshot(Time::secs(7.0));
        assert_eq!(snap[0], vec![NodeId(1)]);
        assert_eq!(snap[1], vec![NodeId(0), NodeId(2)]);
        let snap2 = t.snapshot(Time::secs(17.0));
        assert!(snap2.iter().all(|l| l.is_empty()));
    }

    #[test]
    fn pair_contacts_filters() {
        let t = toy();
        let pc = t.pair_contacts(NodeId(2), NodeId(0));
        assert_eq!(pc.len(), 1);
        assert_eq!(pc[0].interval, Interval::secs(20.0, 30.0));
    }

    #[test]
    fn internal_external_split() {
        let t = TraceBuilder::new()
            .num_nodes(5)
            .internal(3)
            .contact_secs(0, 4, 0.0, 1.0)
            .build();
        assert_eq!(t.num_internal(), 3);
        assert_eq!(t.num_external(), 2);
        assert!(t.is_internal(NodeId(2)));
        assert!(!t.is_internal(NodeId(3)));
        assert_eq!(t.internal_nodes().count(), 3);
    }

    #[test]
    fn merge_overlaps_combines_abutting_rows() {
        let t = TraceBuilder::new()
            .merge_overlaps(true)
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(0, 1, 10.0, 20.0)
            .contact_secs(0, 1, 30.0, 40.0)
            .contact_secs(1, 2, 5.0, 6.0)
            .build();
        assert_eq!(t.num_contacts(), 3);
        let pc = t.pair_contacts(NodeId(0), NodeId(1));
        assert_eq!(pc.len(), 2);
        assert_eq!(pc[0].duration(), Dur::secs(20.0));
    }

    #[test]
    fn empty_trace() {
        let t = TraceBuilder::new().build();
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_contacts(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the observation window")]
    fn window_violation_rejected() {
        let _ = TraceBuilder::new()
            .window(Interval::secs(0.0, 5.0))
            .contact_secs(0, 1, 2.0, 9.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "outside node universe")]
    fn universe_violation_rejected() {
        let _ = TraceBuilder::new()
            .num_nodes(2)
            .contact_secs(0, 5, 0.0, 1.0)
            .build();
    }

    #[test]
    fn try_build_names_the_first_broken_rule() {
        let fixed = || {
            TraceBuilder::new()
                .num_nodes(3)
                .window(Interval::secs(0.0, 10.0))
                .contact_secs(0, 1, 0.0, 1.0)
        };
        let err = |b: TraceBuilder| b.try_build().unwrap_err();
        assert_eq!(
            err(fixed()
                .contact_secs(0, 3, 0.0, 1.0)
                .contact_secs(0, 4, 0.0, 1.0)),
            BuildError::NodeOutsideUniverse(1)
        );
        assert_eq!(
            err(TraceBuilder::new().contact_secs(0, u32::MAX, 0.0, 1.0)),
            BuildError::NodeOutsideUniverse(0)
        );
        assert_eq!(
            err(fixed().contact_secs(0, 2, 5.0, 11.0)),
            BuildError::OutsideWindow(1)
        );
        assert_eq!(
            err(fixed().contact_secs(1, 2, -1.0, 1.0)),
            BuildError::OutsideWindow(1)
        );
        assert_eq!(err(fixed().internal(4)), BuildError::InternalExceedsNodes);
        // Merging happens after the check, so indices are in push order.
        assert_eq!(
            err(fixed()
                .merge_overlaps(true)
                .contact_secs(0, 1, 0.5, 2.0)
                .contact_secs(1, 2, 9.0, 12.0)),
            BuildError::OutsideWindow(2)
        );
        let t = fixed().internal(3).try_build().unwrap();
        assert_eq!((t.num_nodes(), t.num_internal()), (3, 3));
        assert_eq!(t.span(), Interval::secs(0.0, 10.0));
    }

    #[test]
    fn with_contacts_keeps_metadata() {
        let t = TraceBuilder::new()
            .num_nodes(4)
            .internal(2)
            .window(Interval::secs(0.0, 100.0))
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(2, 3, 20.0, 30.0)
            .build();
        let t2 = t.with_contacts(vec![Contact::secs(0, 3, 1.0, 2.0)]);
        assert_eq!(t2.num_nodes(), 4);
        assert_eq!(t2.num_internal(), 2);
        assert_eq!(t2.span(), Interval::secs(0.0, 100.0));
        assert_eq!(t2.num_contacts(), 1);
    }
}
