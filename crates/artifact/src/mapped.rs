//! Lazily verified shard sets: the one way `.omna` shards are read.
//!
//! [`map_set`] opens each shard file and eagerly validates only its
//! header (magic, version, header checksum, section extents against the
//! file length): one small read per shard. Each shard keeps its open
//! [`File`], and its ROWS section is read, checksummed and decoded *once,
//! on first access*, so a server over a 100-shard set that only ever
//! answers sources from three shards never reads — or verifies — the
//! other ninety-seven.
//!
//! Laziness never weakens the rejection guarantee: a corrupted shard is
//! still impossible to read rows from. The verification is merely moved
//! from load time to first-access time, and its outcome (rows or the
//! typed [`ArtifactError`]) is cached, so every later access agrees. A
//! file truncated after it was validated fails that first read as
//! [`ArtifactError::Truncated`].

use crate::codec::fnv1a64;
use crate::format::{ArtifactMeta, ShardRange, HEADER_LEN_AT, SECTION_ROWS};
use crate::shard::decode_rows;
use crate::ArtifactError;
use omnet_core::SourceProfiles;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Bytes read up front for the header. Real headers are a few hundred
/// bytes, so this is one read; a longer one (a long dataset key or many
/// sections) costs a second read for the rest.
const HEADER_READ: u64 = 4096;

/// One opened shard: header verified eagerly, ROWS section read, verified
/// and decoded on the first [`MappedShard::rows`] call.
#[derive(Debug)]
pub struct MappedShard {
    /// The file the header was validated against, kept open so the rows
    /// come from the same file even if the path is replaced.
    file: File,
    path: PathBuf,
    meta: ArtifactMeta,
    range: ShardRange,
    /// `(offset, len)` of the ROWS body in the file, checked against the
    /// file length at open time.
    rows_span: (u64, usize),
    /// Stored FNV-1a checksum the body must hash to.
    rows_ck: u64,
    /// First-access verification outcome; `Err` is cached too, so a
    /// corrupt shard is rejected identically on every access.
    rows: OnceLock<Result<Vec<SourceProfiles>, ArtifactError>>,
}

impl MappedShard {
    /// Set-level identity from the shard header.
    pub fn meta(&self) -> &ArtifactMeta {
        &self.meta
    }

    /// The contiguous source range this shard covers.
    pub fn range(&self) -> ShardRange {
        self.range
    }

    /// The decoded rows, reading the ROWS section and verifying its
    /// checksum and every frontier on the first call. `rows()[i]` is
    /// source `range.begin + i`.
    pub fn rows(&self) -> Result<&[SourceProfiles], ArtifactError> {
        let outcome = self.rows.get_or_init(|| {
            let rows = self.read_rows();
            if rows.is_err() {
                crate::REJECTS.inc();
            }
            rows
        });
        match outcome {
            Ok(rows) => Ok(rows),
            Err(e) => Err(e.clone()),
        }
    }

    fn read_rows(&self) -> Result<Vec<SourceProfiles>, ArtifactError> {
        let (off, len) = self.rows_span;
        let mut body = vec![0u8; len];
        let mut file = &self.file;
        file.seek(SeekFrom::Start(off))
            .and_then(|_| file.read_exact(&mut body))
            .map_err(|e| read_error(e, "ROWS section", &self.path))?;
        crate::BYTES_READ.add(len as u64);
        if fnv1a64(&body) != self.rows_ck {
            return Err(ArtifactError::ChecksumMismatch {
                what: "ROWS section",
            });
        }
        decode_rows(&body, &self.meta, &self.range)
    }

    /// The rows if this shard has already been verified successfully;
    /// `None` when verification has not run yet (or failed). Never
    /// triggers verification — the cheap path for stats.
    pub fn materialized_rows(&self) -> Option<&[SourceProfiles]> {
        match self.rows.get() {
            Some(Ok(rows)) => Some(rows),
            _ => None,
        }
    }
}

/// A short read means the file ends before what its header promised.
fn read_error(e: io::Error, what: &'static str, path: &Path) -> ArtifactError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ArtifactError::Truncated { context: what }
    } else {
        ArtifactError::Io {
            context: "cannot read artifact shard",
            path: PathBuf::from(path),
            source: e,
        }
    }
}

/// Opens one shard file and validates its header and section extents;
/// ROWS content verification is deferred to [`MappedShard::rows`].
pub fn map_shard(path: &Path) -> Result<MappedShard, ArtifactError> {
    match map_shard_inner(path) {
        Ok(s) => {
            crate::LOADS.inc();
            Ok(s)
        }
        Err(e) => {
            crate::REJECTS.inc();
            Err(e)
        }
    }
}

fn map_shard_inner(path: &Path) -> Result<MappedShard, ArtifactError> {
    let io_error = |source| ArtifactError::Io {
        context: "cannot open artifact shard",
        path: PathBuf::from(path),
        source,
    };
    let mut file = File::open(path).map_err(io_error)?;
    let file_len = file.metadata().map_err(io_error)?.len();
    let head = read_header_bytes(&mut file, file_len, path)?;
    let (meta, range, sections, header_len) = crate::format::parse_header(&head)?;
    let mut offset = header_len as u64;
    let mut rows_span: Option<((u64, usize), u64)> = None;
    for (id, len, ck) in sections {
        // `checked_add`: a corrupt header can claim a length near
        // `u64::MAX`, and a wrapped sum would pass the bounds check.
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= file_len)
            .ok_or(ArtifactError::Truncated {
                context: "section body",
            })?;
        if id == SECTION_ROWS {
            let len = usize::try_from(len).map_err(|_| ArtifactError::Truncated {
                context: "section body",
            })?;
            rows_span = Some(((offset, len), ck));
        }
        // Unknown sections are additive extensions: skip, don't reject.
        offset = end;
    }
    let (span, rows_ck) = rows_span.ok_or(ArtifactError::Corrupt {
        context: "no ROWS section",
    })?;
    Ok(MappedShard {
        file,
        path: PathBuf::from(path),
        meta,
        range,
        rows_span: span,
        rows_ck,
        rows: OnceLock::new(),
    })
}

/// Reads the header: the first [`HEADER_READ`] bytes (or the whole file
/// if shorter), plus the rest of a longer header the file has room for.
/// A header claiming more than the file holds stays short, so
/// [`parse_header`](crate::format::parse_header) reports it truncated.
fn read_header_bytes(
    file: &mut File,
    file_len: u64,
    path: &Path,
) -> Result<Vec<u8>, ArtifactError> {
    let mut head = vec![0u8; file_len.min(HEADER_READ) as usize];
    file.read_exact(&mut head)
        .map_err(|e| read_error(e, "header", path))?;
    let claimed = head
        .get(HEADER_LEN_AT)
        .and_then(|b| b.try_into().ok())
        .map_or(0, |b| u64::from(u32::from_le_bytes(b)));
    if claimed > head.len() as u64 && claimed <= file_len {
        let read = head.len();
        head.resize(claimed as usize, 0);
        file.read_exact(&mut head[read..])
            .map_err(|e| read_error(e, "header", path))?;
    }
    Ok(head)
}

/// An opened set: every shard's header verified and cross-checked at
/// open time, row content verified lazily per shard. Shards are ordered by
/// source range; gaps are allowed (a partial set still answers queries
/// whose sources it covers).
#[derive(Debug)]
pub struct MappedSet {
    /// The metadata every shard header agreed on.
    pub meta: ArtifactMeta,
    shards: Vec<MappedShard>,
}

impl MappedSet {
    /// The profile row for `source`: `Ok(None)` when no shard in the set
    /// covers it, `Err` when the covering shard fails its (first)
    /// verification.
    pub fn row(&self, source: u32) -> Result<Option<&SourceProfiles>, ArtifactError> {
        let si = self.shards.partition_point(|s| s.range.end <= source);
        let Some(s) = self.shards.get(si) else {
            return Ok(None);
        };
        if source < s.range.begin {
            return Ok(None);
        }
        Ok(s.rows()?.get((source - s.range.begin) as usize))
    }

    /// Total rows covered by the set's shards (from the headers — never
    /// triggers row verification).
    pub fn num_rows(&self) -> usize {
        self.shards
            .iter()
            .map(|s| (s.range.end - s.range.begin) as usize)
            .sum()
    }

    /// The shards, ascending by source range.
    pub fn shards(&self) -> &[MappedShard] {
        &self.shards
    }
}

/// Opens every `.omna` file under `dir` (sorted by file name) into a
/// cross-checked [`MappedSet`]. Cold-start cost is one header read per
/// shard; each shard's rows are read on the first query against it.
pub fn map_set(dir: &Path) -> Result<MappedSet, ArtifactError> {
    let entries = std::fs::read_dir(dir).map_err(|source| ArtifactError::Io {
        context: "cannot read artifact directory",
        path: PathBuf::from(dir),
        source,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| ArtifactError::Io {
            context: "cannot read artifact directory entry",
            path: PathBuf::from(dir),
            source,
        })?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "omna") {
            paths.push(path);
        }
    }
    paths.sort();
    if paths.is_empty() {
        return Err(ArtifactError::SetInconsistent {
            context: format!("no .omna shards in {}", dir.display()),
        });
    }
    let mut shards: Vec<MappedShard> = Vec::with_capacity(paths.len());
    for path in &paths {
        shards.push(map_shard(path)?);
    }
    shards.sort_by_key(|s| s.range.begin);
    let meta = shards[0].meta.clone();
    let count = shards[0].range.count;
    for (i, s) in shards.iter().enumerate() {
        if s.meta != meta {
            return Err(ArtifactError::SetInconsistent {
                context: format!(
                    "shard {} metadata disagrees with the set (dataset {:?} vs {:?})",
                    s.range.index, s.meta.dataset_key, meta.dataset_key
                ),
            });
        }
        if s.range.count != count {
            return Err(ArtifactError::SetInconsistent {
                context: format!(
                    "shard {} claims {} total shards, set leader claims {count}",
                    s.range.index, s.range.count
                ),
            });
        }
        if i > 0 && shards[i - 1].range.end > s.range.begin {
            return Err(ArtifactError::SetInconsistent {
                context: format!("shard ranges overlap at source {}", s.range.begin),
            });
        }
    }
    Ok(MappedSet { meta, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_set;
    use omnet_core::{AllPairsProfiles, ProfileOptions};
    use omnet_temporal::TraceBuilder;

    fn toy_set(
        tag: &str,
        shards: u32,
    ) -> (PathBuf, Vec<PathBuf>, ArtifactMeta, Vec<SourceProfiles>) {
        let t = TraceBuilder::new()
            .num_nodes(6)
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .contact_secs(3, 4, 60.0, 70.0)
            .contact_secs(4, 5, 80.0, 90.0)
            .build();
        let opts = ProfileOptions::default();
        let rows = AllPairsProfiles::compute(&t, opts).into_rows();
        let meta = ArtifactMeta {
            dataset_key: "mapped".into(),
            num_nodes: 6,
            num_internal: 6,
            window: t.span(),
            options: opts,
        };
        let dir = std::env::temp_dir().join(format!("omna-mapped-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let paths = write_set(&dir, "mapped", &meta, &rows, shards).unwrap();
        (dir, paths, meta, rows)
    }

    #[test]
    fn rows_equal_computed_rows() {
        let (dir, paths, meta, computed) = toy_set("eq", 3);
        let set = map_set(&dir).unwrap();
        assert_eq!(set.meta, meta);
        assert_eq!(set.num_rows(), 6);
        for path in &paths {
            let shard = map_shard(path).unwrap();
            let range = shard.range();
            let rows = shard.rows().unwrap();
            let expected = &computed[range.begin as usize..range.end as usize];
            assert_eq!(rows.len(), expected.len());
            for (got, want) in rows.iter().zip(expected) {
                assert_eq!(got, want);
            }
        }
        for s in 0..6u32 {
            assert!(set.row(s).unwrap().is_some(), "source {s} covered");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verification_is_lazy_and_cached() {
        let (dir, ..) = toy_set("lazy", 2);
        let set = map_set(&dir).unwrap();
        for s in set.shards() {
            assert!(s.materialized_rows().is_none(), "rows decoded eagerly");
        }
        // Touch one source: only its shard materializes.
        assert!(set.row(0).unwrap().is_some());
        let done: usize = set
            .shards()
            .iter()
            .filter(|s| s.materialized_rows().is_some())
            .count();
        assert_eq!(done, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn body_corruption_rejected_at_first_access_every_time() {
        let (dir, paths, ..) = toy_set("corrupt", 1);
        let good = std::fs::read(&paths[0]).unwrap();
        let mut bad = good.clone();
        let i = bad.len() - 16;
        bad[i] ^= 0x01;
        std::fs::write(&paths[0], &bad).unwrap();
        // Header parses (the flip is in the body), so the map succeeds...
        let shard = map_shard(&paths[0]).unwrap();
        // ...and the rows are rejected on first access and every access
        // after (the outcome is cached).
        for _ in 0..2 {
            assert!(matches!(
                shard.rows(),
                Err(ArtifactError::ChecksumMismatch { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gaps_answer_none() {
        // Shards cover 0..2, 2..4 and 4..6; the middle one goes missing.
        let (dir, paths, ..) = toy_set("gap", 3);
        std::fs::remove_file(&paths[1]).unwrap();
        assert!(matches!(
            map_shard(&paths[1]),
            Err(ArtifactError::Io { .. })
        ));
        let set = map_set(&dir).unwrap();
        assert_eq!(set.num_rows(), 4);
        assert!(set.row(1).unwrap().is_some());
        assert!(set.row(2).unwrap().is_none());
        assert!(set.row(3).unwrap().is_none());
        assert!(set.row(4).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
