//! Delta overlay over an immutable [`Trace`]: tombstones + append tail.
//!
//! Contact deltas edit the substrate — removals tombstone contacts, live
//! traces append them — but [`Trace`] is deliberately immutable (every
//! consumer relies on its canonical sorted form). A [`TraceOverlay`] keeps
//! one immutable base trace plus a word-packed tombstone bitset and an
//! append tail, merged into a fresh canonical [`Trace`] on demand.
//!
//! Every contact — base or appended — is addressed by a [`ContactKey`] that
//! stays valid across edits (unlike a [`crate::ContactId`], which is an
//! index into one particular trace's sorted contact vector and is
//! renumbered by any edit). The [`TraceOverlay::materialize`] key column
//! translates between the two worlds.

use crate::contact::Contact;
use crate::trace::Trace;

/// A stable handle to one contact of a [`TraceOverlay`] (§6 removal
/// methodology / contact deltas).
///
/// Keys `0..base_len` are the base trace's [`crate::ContactId`]s; appended
/// contacts get the next keys in append order. A key survives tombstoning
/// (removal) and materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContactKey(pub u32);

/// Tombstone bitset + append tail over an immutable base [`Trace`] — the
/// mutable face of the §6 contact-removal methodology and of contact
/// deltas.
///
/// Edits are O(1); [`TraceOverlay::materialize`] merges the live contacts
/// back into a canonical [`Trace`] (plus the parallel [`ContactKey`]
/// column) in one stable sort.
#[derive(Debug, Clone)]
pub struct TraceOverlay {
    base: Trace,
    /// Tombstone bitset over `0..num_keys()` (base contacts then tail).
    dead: Vec<u64>,
    /// Appended contacts, keyed `base_len + i` in append order.
    tail: Vec<Contact>,
}

impl TraceOverlay {
    /// Wraps `base` with no edits: every base contact live, empty tail.
    /// The overlay preserves the base's node universe and observation
    /// window (§6 — transformed traces stay comparable to the original).
    pub fn new(base: Trace) -> TraceOverlay {
        let words = base.num_contacts().div_ceil(64);
        TraceOverlay {
            base,
            dead: vec![0; words],
            tail: Vec::new(),
        }
    }

    /// Total keys ever issued: base contacts plus appends, dead or alive
    /// (§6). Valid keys are `0..num_keys()`.
    fn num_keys(&self) -> usize {
        self.base.num_contacts() + self.tail.len()
    }

    /// Appends a contact, returning its stable key (§6 / append deltas).
    ///
    /// # Panics
    /// If an endpoint is outside the base's node universe, if the interval
    /// leaves the base's observation window, or if the key space (`u32`)
    /// is exhausted.
    pub fn append(&mut self, c: Contact) -> ContactKey {
        assert!(
            c.b.0 < self.base.num_nodes(),
            "appended contact endpoint outside node universe"
        );
        let span = self.base.span();
        assert!(
            span.start <= c.start() && c.end() <= span.end,
            "appended contact outside the observation window"
        );
        let key = self.num_keys();
        assert!(key < u32::MAX as usize, "contact key space exhausted");
        self.tail.push(c);
        if self.dead.len() * 64 < self.num_keys() {
            self.dead.push(0);
        }
        ContactKey(key as u32)
    }

    /// Tombstones `key` (§6.1 contact removal). Returns `true` when the
    /// contact was live — `false` means it was already tombstoned, and the
    /// overlay is unchanged (removal is idempotent).
    ///
    /// # Panics
    /// If `key` was never issued.
    pub fn remove(&mut self, key: ContactKey) -> bool {
        let k = key.0 as usize;
        assert!(k < self.num_keys(), "contact key {k} was never issued");
        let bit = 1u64 << (k & 63);
        if self.dead[k >> 6] & bit != 0 {
            return false;
        }
        self.dead[k >> 6] |= bit;
        true
    }

    /// Iterates the live contacts with their keys: base contacts in base
    /// order, then the tail in append order (§6).
    fn live(&self) -> impl Iterator<Item = (ContactKey, Contact)> + '_ {
        self.base
            .contacts()
            .iter()
            .copied()
            .chain(self.tail.iter().copied())
            .enumerate()
            .filter(move |&(k, _)| self.dead[k >> 6] & (1u64 << (k & 63)) == 0)
            .map(|(k, c)| (ContactKey(k as u32), c))
    }

    /// Merges the live contacts into a canonical [`Trace`] plus the
    /// parallel key column: `keys[i]` is the stable key of contact
    /// `ContactId(i)` of the returned trace (§6).
    ///
    /// The trace is byte-identical to
    /// `base.with_contacts(live contacts in key order)` — in particular,
    /// a removal-only overlay materializes exactly the trace the §6.1
    /// batch transform ([`crate::transform::remove_random`]) builds for
    /// the same kept set.
    pub fn materialize(&self) -> (Trace, Vec<ContactKey>) {
        let mut tagged: Vec<(Contact, ContactKey)> = self.live().map(|(k, c)| (c, k)).collect();
        // Stable sort by the Trace canonical key: `with_contacts` re-sorts
        // with the same stable key, so the pre-sorted vector passes through
        // unchanged and the key column stays aligned with the contacts.
        tagged.sort_by_key(|&(c, _)| (c.start(), c.end(), c.a, c.b));
        let contacts: Vec<Contact> = tagged.iter().map(|&(c, _)| c).collect();
        let keys: Vec<ContactKey> = tagged.iter().map(|&(_, k)| k).collect();
        (self.base.with_contacts(contacts), keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Interval;
    use crate::trace::TraceBuilder;
    use crate::transform::remove_random;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> Trace {
        TraceBuilder::new()
            .num_nodes(4)
            .internal(3)
            .window(Interval::secs(0.0, 1000.0))
            .contact_secs(0, 1, 0.0, 120.0)
            .contact_secs(1, 2, 100.0, 160.0)
            .contact_secs(0, 2, 400.0, 1000.0)
            .contact_secs(0, 3, 500.0, 520.0)
            .build()
    }

    #[test]
    fn fresh_overlay_materializes_the_base() {
        let t = toy();
        let ov = TraceOverlay::new(t.clone());
        let (m, keys) = ov.materialize();
        assert_eq!(m.contacts(), t.contacts());
        assert_eq!(m.span(), t.span());
        assert_eq!(m.num_nodes(), t.num_nodes());
        assert_eq!(keys, (0..4).map(ContactKey).collect::<Vec<_>>());
    }

    #[test]
    fn remove_is_idempotent() {
        let mut ov = TraceOverlay::new(toy());
        assert!(ov.remove(ContactKey(1)));
        assert!(!ov.remove(ContactKey(1)));
        let (m, keys) = ov.materialize();
        assert_eq!(m.num_contacts(), 3);
        assert!(!keys.contains(&ContactKey(1)));
    }

    #[test]
    fn append_issues_stable_keys_and_merges_sorted() {
        let mut ov = TraceOverlay::new(toy());
        let k = ov.append(Contact::secs(2, 3, 50.0, 80.0));
        assert_eq!(k, ContactKey(4));
        let (m, keys) = ov.materialize();
        assert_eq!(m.num_contacts(), 5);
        // The appended contact sorts between start=0 and start=100.
        assert_eq!(m.contacts()[1], Contact::secs(2, 3, 50.0, 80.0));
        // Key column: base keys are base contact ids, the tail follows.
        assert_eq!(keys, [0, 4, 1, 2, 3].map(ContactKey));
    }

    #[test]
    fn removal_only_overlay_matches_batch_transform() {
        let t = toy();
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let batch = remove_random(&t, 0.5, &mut rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = TraceOverlay::new(t.clone());
            for i in 0..t.num_contacts() {
                if rng.gen::<f64>() < 0.5 {
                    ov.remove(ContactKey(i as u32));
                }
            }
            let (m, _) = ov.materialize();
            assert_eq!(m.contacts(), batch.contacts());
        }
    }

    #[test]
    #[should_panic(expected = "outside the observation window")]
    fn append_rejects_out_of_window() {
        let mut ov = TraceOverlay::new(toy());
        ov.append(Contact::secs(0, 1, 900.0, 1100.0));
    }

    #[test]
    #[should_panic(expected = "outside node universe")]
    fn append_rejects_out_of_universe() {
        let mut ov = TraceOverlay::new(toy());
        ov.append(Contact::secs(0, 9, 0.0, 10.0));
    }

    #[test]
    fn tail_tombstones_work() {
        let mut ov = TraceOverlay::new(toy());
        let k = ov.append(Contact::secs(2, 3, 50.0, 80.0));
        assert!(ov.remove(k));
        assert!(!ov.remove(k));
        let (m, _) = ov.materialize();
        assert_eq!(m.contacts(), toy().contacts());
    }
}
