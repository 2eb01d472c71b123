//! Contact deltas: one batch of substrate edits — removals by stable
//! [`ContactKey`] plus appended contacts — as a mutable dataset applies
//! them (§6 removal methodology / streaming contact ingestion).

use omnet_temporal::{Contact, ContactKey};

/// One batch of substrate edits (§6 removal methodology), applied
/// atomically: either every removal and append takes effect or none does.
#[derive(Debug, Clone, Default)]
pub struct ContactDelta {
    /// Contacts to add. Endpoints must lie in the node universe and
    /// intervals inside the observation window.
    pub append: Vec<Contact>,
    /// Stable keys of contacts to tombstone. Keys already tombstoned are
    /// ignored (removal is idempotent).
    pub remove: Vec<ContactKey>,
}

impl ContactDelta {
    /// A removal-only delta (§6.1 — the contact-removal sweeps).
    pub fn remove_only<I: IntoIterator<Item = ContactKey>>(keys: I) -> ContactDelta {
        ContactDelta {
            append: Vec::new(),
            remove: keys.into_iter().collect(),
        }
    }

    /// True when the delta edits nothing (applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.append.is_empty() && self.remove.is_empty()
    }
}
