//! Persisted profile artifacts: a versioned binary format for the §4.4
//! all-pairs delivery profiles, sharded by source range.
//!
//! Once `AllPairsProfiles` is built for a trace, every (source, dest, t)
//! delivery/path/diameter question is a lookup — so the profiles are worth
//! persisting. This crate defines the `.omna` artifact format (see
//! DESIGN.md §13 for the byte-level layout and versioning policy):
//!
//! * an explicit header — magic, format version, an engine-options
//!   fingerprint, the dataset key, the node universe and observation
//!   window, and the shard's source range;
//! * a ROW_INDEX section giving each row's end offset and checksum;
//! * a ROWS section holding each source's row as it is held in memory:
//!   the per-level delivery-function additions and the tail
//!   ([`omnet_core::SourceProfiles::levels`] and
//!   [`omnet_core::SourceProfiles::tail`]);
//! * one load path, [`map_shard`] / [`map_set`], that validates each
//!   shard's header when the set is opened, verifies a shard's row index
//!   on the first access to it, and reads, verifies and decodes each row
//!   on the first access to that row, building
//!   [`omnet_core::SourceProfiles`] *without re-running the induction* —
//!   corrupted, truncated or version-bumped input is rejected with a typed
//!   [`ArtifactError`], never decoded into garbage answers, and a corrupt
//!   row fails alone.
//!
//! Every checksum is [`codec::checksum`]. A profile set is N independent
//! shard files ([`set::write_set`] / [`map_set`]), each covering a
//! contiguous source range, so shards load, verify, and answer queries
//! independently.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod format;
pub mod mapped;
pub mod set;
pub mod shard;

mod error;

pub use error::ArtifactError;
pub use format::{ArtifactMeta, ShardRange, FORMAT_VERSION, MAGIC};
pub use mapped::{map_set, map_shard, MappedSet, MappedShard};
pub use set::{shard_ranges, write_set};
pub use shard::write_shard;

use omnet_obs::Counter;

/// Shard files written.
pub(crate) static WRITES: Counter = Counter::new("artifact.writes");
/// Shard files opened with a valid header.
pub(crate) static LOADS: Counter = Counter::new("artifact.loads");
/// Shard files rejected (bad magic, version, checksum, or content).
pub(crate) static REJECTS: Counter = Counter::new("artifact.rejects");
/// Total artifact bytes written.
pub(crate) static BYTES_WRITTEN: Counter = Counter::new("artifact.bytes_written");
/// Total artifact bytes read.
pub(crate) static BYTES_READ: Counter = Counter::new("artifact.bytes_read");
