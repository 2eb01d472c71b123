//! Lazily verified shard sets: the one way `.omna` shards are read.
//!
//! [`map_set`] opens each shard file and eagerly validates only its
//! header (magic, version, header checksum, section extents against the
//! file length): one small read per shard. Each shard keeps its open
//! [`File`]. On the first access to a shard its ROW_INDEX section is read
//! and verified (16 bytes per row), and from then on rows are read one
//! positional read at a time: the bytes of a row range are read with
//! `read_exact_at` (there is no shared seek cursor), and each row in it is
//! checked against its index checksum before it is decoded into its own
//! slot. A point query reads, verifies and decodes exactly one row; a
//! scan ([`MappedSet::rows`]) reads each shard's pending rows with one
//! read.
//!
//! Laziness never weakens the rejection guarantee: no byte is used before
//! the checksum that covers it is verified. Each row's outcome (the row or
//! its typed [`ArtifactError`]) is cached in its slot, so every later
//! access agrees, and a corrupt row fails alone: the shard's other rows
//! still answer. A file truncated after it was validated fails every read
//! that reaches past its new end as [`ArtifactError::Truncated`], for
//! each row that read covers.

use crate::codec::{checksum, word};
use crate::format::{
    ArtifactMeta, ShardRange, HEADER_LEN_AT, ROWS_PREFIX, ROW_INDEX_ENTRY, SECTION_ROWS,
    SECTION_ROW_INDEX,
};
use crate::shard::decode_row;
use crate::ArtifactError;
use omnet_core::SourceProfiles;
use omnet_temporal::LdEa;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Bytes read up front for the header. Real headers are a few hundred
/// bytes, so this is one read; a longer one (a long dataset key or many
/// sections) costs a second read for the rest.
const HEADER_READ: u64 = 4096;

/// A row's cached outcome. Boxed, so a shard's untouched slots cost two
/// words each (16 B: the pointer and the `OnceLock` state); with the
/// verified index's 16-B entry, an accessed shard holds 32 B a row.
type Slot = OnceLock<Box<Result<SourceProfiles, ArtifactError>>>;

/// One opened shard: header verified eagerly, row index read and verified
/// on the first access, each row read, verified and decoded on its first
/// access.
#[derive(Debug)]
pub struct MappedShard {
    /// The file the header was validated against, kept open so the rows
    /// come from the same file even if the path is replaced.
    file: File,
    path: PathBuf,
    meta: ArtifactMeta,
    range: ShardRange,
    /// File offset of the ROW_INDEX body; the ROWS body follows it.
    index_at: u64,
    /// Stored checksums of the ROW_INDEX body and of the ROWS row count.
    index_ck: u64,
    prefix_ck: u64,
    /// Length of the ROWS body, checked against the file at open time.
    rows_len: u64,
    /// First-access outcome of the index; `Err` is cached too, so a shard
    /// with a corrupt index is rejected identically on every access.
    index: OnceLock<Result<RowIndex, ArtifactError>>,
}

/// A verified ROW_INDEX and the row slots it addresses.
#[derive(Debug)]
struct RowIndex {
    /// The index body: per row, its end in the ROWS body and its checksum.
    entries: Box<[u8]>,
    /// Row `i`'s outcome once it has been read.
    slots: Box<[Slot]>,
}

impl RowIndex {
    /// End offset (in the ROWS body) and checksum of row `i`.
    fn entry(&self, i: usize) -> (u64, u64) {
        let e = &self.entries[i * ROW_INDEX_ENTRY..(i + 1) * ROW_INDEX_ENTRY];
        (word(&e[..8]), word(&e[8..]))
    }

    /// Where row `i` starts in the ROWS body.
    fn start(&self, i: usize) -> u64 {
        match i {
            0 => ROWS_PREFIX as u64,
            _ => self.entry(i - 1).0,
        }
    }
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

    /// The rows already read and verified, in source order. Never reads
    /// anything: the cheap path for stats.
    pub fn decoded_rows(&self) -> impl Iterator<Item = &SourceProfiles> + '_ {
        let slots = match self.index.get() {
            Some(Ok(index)) => &index.slots[..],
            _ => &[],
        };
        slots
            .iter()
            .filter_map(|slot| match slot.get().map(|b| &**b) {
                Some(Ok(row)) => Some(row),
                _ => None,
            })
    }

    /// The verified row index, read on the first call.
    fn index(&self) -> Result<&RowIndex, ArtifactError> {
        let outcome = self.index.get_or_init(|| {
            let index = self.read_index();
            if index.is_err() {
                crate::REJECTS.inc();
            }
            index
        });
        outcome.as_ref().map_err(ArtifactError::clone)
    }

    /// Reads the ROW_INDEX body and the ROWS row count after it with one
    /// read, verifies both checksums, and checks that the row spans
    /// tile the ROWS body.
    fn read_index(&self) -> Result<RowIndex, ArtifactError> {
        let n = (self.range.end - self.range.begin) as usize;
        let index_len = n * ROW_INDEX_ENTRY;
        let mut buf = vec![0u8; index_len + ROWS_PREFIX];
        self.file
            .read_exact_at(&mut buf, self.index_at)
            .map_err(|e| read_error(e, "ROW_INDEX section", &self.path))?;
        crate::BYTES_READ.add(buf.len() as u64);
        let (entries, prefix) = buf.split_at(index_len);
        if checksum(entries) != self.index_ck {
            return Err(ArtifactError::ChecksumMismatch {
                what: "ROW_INDEX section",
            });
        }
        if checksum(prefix) != self.prefix_ck {
            return Err(ArtifactError::ChecksumMismatch {
                what: "ROWS section",
            });
        }
        if word(prefix) != n as u64 {
            return Err(ArtifactError::Corrupt {
                context: "row count does not match shard range",
            });
        }
        buf.truncate(index_len);
        let index = RowIndex {
            entries: buf.into_boxed_slice(),
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        };
        let mut end = ROWS_PREFIX as u64;
        for i in 0..n {
            let next = index.entry(i).0;
            if next <= end {
                return Err(ArtifactError::Corrupt {
                    context: "row index offsets do not increase",
                });
            }
            end = next;
        }
        if end != self.rows_len {
            return Err(ArtifactError::Corrupt {
                context: "row index does not end at the ROWS section end",
            });
        }
        Ok(index)
    }

    /// Row `i` of the shard, read, verified and decoded on its first
    /// access.
    fn row_at(&self, i: usize) -> Result<&SourceProfiles, ArtifactError> {
        let index = self.index()?;
        self.prefetch(i..i + 1);
        match index.slots[i].get().map(|b| &**b) {
            Some(Ok(row)) => Ok(row),
            Some(Err(e)) => Err(e.clone()),
            // `prefetch` fills (or waits for) every empty slot it covers.
            None => Err(ArtifactError::Corrupt {
                context: "row slot left empty",
            }),
        }
    }

    /// Fills the slots of `rows` that are still empty: the bytes from the
    /// first to the last of them are read once, then each row is verified
    /// and decoded. A failed read is every pending row's error. An index
    /// that fails is left for [`MappedShard::row_at`] to report. The one
    /// path that fills slots.
    fn prefetch(&self, rows: Range<usize>) {
        let Ok(index) = self.index() else { return };
        let pending = |i: &usize| index.slots[*i].get().is_none();
        let Some(lo) = rows.clone().find(pending) else {
            return;
        };
        let hi = rows.rev().find(pending).unwrap_or(lo) + 1;
        match self.read_span(index, lo..hi) {
            Ok((base, span)) => {
                let mut pairs = Vec::new();
                for i in lo..hi {
                    index.slots[i]
                        .get_or_init(|| settle(self.decode_at(index, &span, base, i, &mut pairs)));
                }
            }
            Err(e) => {
                for slot in &index.slots[lo..hi] {
                    slot.get_or_init(|| settle(Err(e.clone())));
                }
            }
        }
    }

    /// The ROWS bytes of `rows`, read with one positional read, and the
    /// ROWS-body offset they start at.
    fn read_span(
        &self,
        index: &RowIndex,
        rows: Range<usize>,
    ) -> Result<(u64, Vec<u8>), ArtifactError> {
        let base = index.start(rows.start);
        let end = index.entry(rows.end - 1).0;
        let mut span = vec![0u8; (end - base) as usize];
        let rows_at = self.index_at + index.entries.len() as u64;
        self.file
            .read_exact_at(&mut span, rows_at + base)
            .map_err(|e| read_error(e, "ROWS section", &self.path))?;
        crate::BYTES_READ.add(span.len() as u64);
        Ok((base, span))
    }

    /// Verifies row `i` against its index checksum and decodes it; `span`
    /// holds ROWS bytes from offset `base` and covers the row.
    fn decode_at(
        &self,
        index: &RowIndex,
        span: &[u8],
        base: u64,
        i: usize,
        pairs: &mut Vec<LdEa>,
    ) -> Result<SourceProfiles, ArtifactError> {
        let (end, ck) = index.entry(i);
        let bytes = &span[(index.start(i) - base) as usize..(end - base) as usize];
        if checksum(bytes) != ck {
            return Err(ArtifactError::ChecksumMismatch { what: "row" });
        }
        decode_row(bytes, &self.meta, self.range.begin + i as u32, pairs)
    }
}

/// Boxes a row outcome for its slot, counting a rejection.
fn settle(
    row: Result<SourceProfiles, ArtifactError>,
) -> Box<Result<SourceProfiles, ArtifactError>> {
    if row.is_err() {
        crate::REJECTS.inc();
    }
    Box::new(row)
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
/// the row index is read on the first row access.
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
    let file = File::open(path).map_err(io_error)?;
    let file_len = file.metadata().map_err(io_error)?.len();
    let head = read_header_bytes(&file, file_len, path)?;
    let (meta, range, sections, header_len) = crate::format::parse_header(&head)?;
    let mut offset = header_len as u64;
    let mut index = None;
    let mut rows = None;
    for (id, len, ck) in sections {
        // `checked_add`: a corrupt header can claim a length near
        // `u64::MAX`, and a wrapped sum would pass the bounds check.
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= file_len)
            .ok_or(ArtifactError::Truncated {
                context: "section body",
            })?;
        match id {
            SECTION_ROW_INDEX => index = Some((offset, len, ck)),
            SECTION_ROWS => rows = Some((offset, len, ck)),
            // Unknown sections are additive extensions: skip, don't reject.
            _ => {}
        }
        offset = end;
    }
    let (index_at, index_len, index_ck) = index.ok_or(ArtifactError::Corrupt {
        context: "no ROW_INDEX section",
    })?;
    let (rows_at, rows_len, prefix_ck) = rows.ok_or(ArtifactError::Corrupt {
        context: "no ROWS section",
    })?;
    if rows_at != index_at + index_len {
        return Err(ArtifactError::Corrupt {
            context: "ROW_INDEX does not directly precede ROWS",
        });
    }
    let n = u64::from(range.end - range.begin);
    if index_len != n * ROW_INDEX_ENTRY as u64 {
        return Err(ArtifactError::Corrupt {
            context: "row index length does not match shard range",
        });
    }
    if rows_len < ROWS_PREFIX as u64 {
        return Err(ArtifactError::Truncated {
            context: "ROWS row count",
        });
    }
    Ok(MappedShard {
        file,
        path: PathBuf::from(path),
        meta,
        range,
        index_at,
        index_ck,
        prefix_ck,
        rows_len,
        index: OnceLock::new(),
    })
}

/// Reads the header: the first [`HEADER_READ`] bytes (or the whole file
/// if shorter), plus the rest of a longer header the file has room for.
/// A header claiming more than the file holds stays short, so
/// [`parse_header`](crate::format::parse_header) reports it truncated.
fn read_header_bytes(file: &File, file_len: u64, path: &Path) -> Result<Vec<u8>, ArtifactError> {
    let mut head = vec![0u8; file_len.min(HEADER_READ) as usize];
    file.read_exact_at(&mut head, 0)
        .map_err(|e| read_error(e, "header", path))?;
    let claimed = head
        .get(HEADER_LEN_AT)
        .and_then(|b| b.try_into().ok())
        .map_or(0, |b| u64::from(u32::from_le_bytes(b)));
    if claimed > head.len() as u64 && claimed <= file_len {
        let read = head.len();
        head.resize(claimed as usize, 0);
        file.read_exact_at(&mut head[read..], read as u64)
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
    /// covers it, `Err` when its shard's index or the row itself fails
    /// verification. Reads, verifies and decodes this one row (and, on
    /// the shard's first access, its row index).
    pub fn row(&self, source: u32) -> Result<Option<&SourceProfiles>, ArtifactError> {
        match self.shard_of(source) {
            Some(s) => s.row_at((source - s.range.begin) as usize).map(Some),
            None => Ok(None),
        }
    }

    /// The rows of `sources` in order, each as [`MappedSet::row`] would
    /// answer it; but the rows of each shard that the range covers are
    /// read with one read when the scan enters that shard.
    pub fn rows(
        &self,
        sources: Range<u32>,
    ) -> impl Iterator<Item = Result<Option<&SourceProfiles>, ArtifactError>> + '_ {
        let Range { start, end } = sources;
        (start..end).map(move |source| {
            let Some(s) = self.shard_of(source) else {
                return Ok(None);
            };
            let (begin, i) = (s.range.begin, source - s.range.begin);
            if source == start.max(begin) {
                s.prefetch(i as usize..(end.min(s.range.end) - begin) as usize);
            }
            s.row_at(i as usize).map(Some)
        })
    }

    /// The shard covering `source`, if any.
    fn shard_of(&self, source: u32) -> Option<&MappedShard> {
        let si = self.shards.partition_point(|s| s.range.end <= source);
        self.shards.get(si).filter(|s| s.range.begin <= source)
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
            let range = map_shard(path).unwrap().range();
            let rows: Vec<_> = set.rows(range.begin..range.end).collect();
            let expected = &computed[range.begin as usize..range.end as usize];
            assert_eq!(rows.len(), expected.len());
            for (got, want) in rows.into_iter().zip(expected) {
                assert_eq!(got.unwrap(), Some(want));
            }
        }
        for s in 0..6u32 {
            assert!(set.row(s).unwrap().is_some(), "source {s} covered");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verification_is_lazy_and_cached() {
        let (dir, _, _, computed) = toy_set("lazy", 2);
        let set = map_set(&dir).unwrap();
        let decoded = |set: &MappedSet| -> usize {
            set.shards().iter().map(|s| s.decoded_rows().count()).sum()
        };
        assert_eq!(decoded(&set), 0, "rows decoded eagerly");
        // Touch one source: only its row is decoded.
        assert_eq!(set.row(1).unwrap(), Some(&computed[1]));
        assert_eq!(decoded(&set), 1);
        // A scan reads the rest, in order, and keeps the decoded row.
        let all: Vec<_> = set.rows(0..6).map(|r| r.unwrap().unwrap()).collect();
        assert_eq!(all, computed.iter().collect::<Vec<_>>());
        assert_eq!(decoded(&set), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_corruption_rejects_that_row_every_time() {
        let (dir, paths, _, computed) = toy_set("corrupt", 1);
        let mut bad = std::fs::read(&paths[0]).unwrap();
        // The flip lands in the last row, source 5.
        let i = bad.len() - 16;
        bad[i] ^= 0x01;
        std::fs::write(&paths[0], &bad).unwrap();
        // Header parses (the flip is in the body), so the map succeeds...
        let set = map_set(&dir).unwrap();
        // ...the row is rejected on first access and every access after
        // (the outcome is cached), and so is a scan over it...
        for _ in 0..2 {
            assert!(matches!(
                set.row(5),
                Err(ArtifactError::ChecksumMismatch { what: "row" })
            ));
        }
        let failed: Vec<bool> = set.rows(0..6).map(|r| r.is_err()).collect();
        assert_eq!(failed, [false, false, false, false, false, true]);
        // ...while the other rows still answer.
        for s in 0..5u32 {
            assert_eq!(set.row(s).unwrap(), Some(&computed[s as usize]));
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
