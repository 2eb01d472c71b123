//! Writing one shard file, and the ROWS section codec.

use crate::codec::{fnv1a64, Reader, Writer};
use crate::format::{encode_header, ArtifactMeta, ShardRange, SECTION_ROWS};
use crate::{ArtifactError, BYTES_WRITTEN, WRITES};
use omnet_core::{LevelRuns, SourceProfiles};
use omnet_temporal::{LdEa, NodeId, Time};
use std::path::{Path, PathBuf};

fn encode_run(w: &mut Writer, run: &LevelRuns) {
    w.u32(run.len() as u32);
    for (dest, pairs) in run.iter() {
        w.u32(dest);
        w.u32(pairs.len() as u32);
        for p in pairs.iter() {
            w.f64_bits(p.ld.as_secs());
            w.f64_bits(p.ea.as_secs());
        }
    }
}

/// Decodes one level (or tail) of runs, reading each run's pairs through
/// `pairs`, a buffer reused across runs.
fn decode_run(r: &mut Reader<'_>, pairs: &mut Vec<LdEa>) -> Result<LevelRuns, ArtifactError> {
    let entries = r.u32("run entry count")? as usize;
    if entries.saturating_mul(8) > r.remaining() {
        return Err(ArtifactError::Truncated {
            context: "run entries",
        });
    }
    let mut run = LevelRuns::default();
    for _ in 0..entries {
        let dest = r.u32("run destination")?;
        let npairs = r.u32("run pair count")? as usize;
        if npairs.saturating_mul(16) > r.remaining() {
            return Err(ArtifactError::Truncated {
                context: "run pairs",
            });
        }
        pairs.clear();
        for _ in 0..npairs {
            let ld = Time::secs(r.f64_bits("pair ld")?);
            let ea = Time::secs(r.f64_bits("pair ea")?);
            pairs.push(LdEa { ld, ea });
        }
        run.push(dest, pairs);
    }
    Ok(run)
}

/// Serializes the ROWS section body for `rows`.
fn encode_rows(rows: &[SourceProfiles]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(rows.len() as u32);
    for row in rows {
        w.u32(row.source().0);
        w.u32(row.converged_at().min(u32::MAX as usize) as u32);
        w.u8(row.converged() as u8);
        w.u32(row.levels().len() as u32);
        for level in row.levels() {
            encode_run(&mut w, level);
        }
        encode_run(&mut w, row.tail());
    }
    w.into_vec()
}

/// Decodes and validates the ROWS section body, building each row through
/// [`SourceProfiles::from_parts`] (which re-checks every frontier).
/// Called by [`crate::mapped`] on a shard's first row access.
pub(crate) fn decode_rows(
    body: &[u8],
    meta: &ArtifactMeta,
    range: &ShardRange,
) -> Result<Vec<SourceProfiles>, ArtifactError> {
    let mut r = Reader::new(body);
    let count = r.u32("row count")?;
    if count != range.end - range.begin {
        return Err(ArtifactError::Corrupt {
            context: "row count does not match shard range",
        });
    }
    let mut rows = Vec::with_capacity(count as usize);
    let mut pairs = Vec::new();
    for i in 0..count {
        let source = r.u32("row source")?;
        if source != range.begin + i {
            return Err(ArtifactError::Corrupt {
                context: "row sources out of order",
            });
        }
        let converged_at = r.u32("row converged_at")?;
        let converged = match r.u8("row converged flag")? {
            0 => false,
            1 => true,
            _ => {
                return Err(ArtifactError::Corrupt {
                    context: "converged flag is not 0 or 1",
                })
            }
        };
        let level_count = r.u32("row level count")? as usize;
        if level_count.saturating_mul(4) > r.remaining() {
            return Err(ArtifactError::Truncated { context: "levels" });
        }
        let mut levels = Vec::with_capacity(level_count);
        for _ in 0..level_count {
            levels.push(decode_run(&mut r, &mut pairs)?);
        }
        let tail = decode_run(&mut r, &mut pairs)?;
        rows.push(SourceProfiles::from_parts(
            NodeId(source),
            meta.num_nodes,
            converged_at,
            converged,
            levels,
            tail,
        )?);
    }
    if r.remaining() != 0 {
        return Err(ArtifactError::Corrupt {
            context: "trailing bytes after last row",
        });
    }
    Ok(rows)
}

/// Writes one shard file covering `range` with the given `rows`; returns
/// the number of bytes written. The output is byte-deterministic: the same
/// rows, metadata, and range always produce the identical file.
pub fn write_shard(
    path: &Path,
    meta: &ArtifactMeta,
    range: ShardRange,
    rows: &[SourceProfiles],
) -> Result<u64, ArtifactError> {
    if rows.len() as u32 != range.end - range.begin {
        return Err(ArtifactError::Corrupt {
            context: "row count does not match shard range",
        });
    }
    for (i, row) in rows.iter().enumerate() {
        if row.source().0 != range.begin + i as u32 || row.num_nodes() as u32 != meta.num_nodes {
            return Err(ArtifactError::Corrupt {
                context: "rows must be ascending sources of the shard range",
            });
        }
    }
    let body = encode_rows(rows);
    let sections = [(SECTION_ROWS, body.len() as u64, fnv1a64(&body))];
    let mut file = encode_header(meta, &range, &sections)?;
    file.extend_from_slice(&body);
    let total = file.len() as u64;
    std::fs::write(path, &file).map_err(|source| ArtifactError::Io {
        context: "cannot write artifact shard",
        path: PathBuf::from(path),
        source,
    })?;
    WRITES.inc();
    BYTES_WRITTEN.add(total);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_shard;
    use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions};
    use omnet_temporal::TraceBuilder;

    fn toy() -> (omnet_temporal::Trace, ArtifactMeta) {
        let t = TraceBuilder::new()
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .contact_secs(0, 3, 800.0, 920.0)
            .build();
        let meta = ArtifactMeta {
            dataset_key: "toy".into(),
            num_nodes: t.num_nodes(),
            num_internal: t.num_internal(),
            window: t.span(),
            options: ProfileOptions::default(),
        };
        (t, meta)
    }

    #[test]
    fn shard_roundtrip_semantics() {
        let (t, meta) = toy();
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = std::env::temp_dir().join(format!("omna-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omna");
        let range = ShardRange {
            index: 0,
            count: 1,
            begin: 0,
            end: 4,
        };
        write_shard(&path, &meta, range, &rows).unwrap();
        let loaded = map_shard(&path).unwrap();
        assert_eq!(loaded.meta(), &meta);
        assert_eq!(loaded.range(), range);
        for (orig, back) in rows.iter().zip(loaded.rows().unwrap()) {
            for d in 0..4u32 {
                for k in 0..=5usize {
                    assert_eq!(
                        back.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                        orig.profile(NodeId(d), HopBound::AtMost(k)).pairs()
                    );
                }
                assert_eq!(
                    back.profile(NodeId(d), HopBound::Unlimited).pairs(),
                    orig.profile(NodeId(d), HopBound::Unlimited).pairs()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_are_byte_deterministic() {
        let (t, meta) = toy();
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let rows2 = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = std::env::temp_dir().join(format!("omna-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.omna"), dir.join("b.omna"));
        let range = ShardRange {
            index: 0,
            count: 1,
            begin: 0,
            end: 4,
        };
        write_shard(&p1, &meta, range, &rows).unwrap();
        write_shard(&p2, &meta, range, &rows2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a corrupt section-table length near `u64::MAX` used to
    /// wrap the `offset + len` bounds check in release builds and panic on
    /// the body slice instead of returning a typed rejection. The header
    /// checksum is fixed up after the patch so the corrupt length actually
    /// reaches the section walk.
    #[test]
    fn huge_section_length_rejected_not_panicking() {
        let (t, meta) = toy();
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = std::env::temp_dir().join(format!("omna-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omna");
        let range = ShardRange {
            index: 0,
            count: 1,
            begin: 0,
            end: 4,
        };
        write_shard(&path, &meta, range, &rows).unwrap();
        let mut file = std::fs::read(&path).unwrap();
        let header_len =
            u32::from_le_bytes(file[crate::format::HEADER_LEN_AT].try_into().unwrap()) as usize;
        // Single-section table: trailing ck (8) + one entry (20); the len
        // field sits 4 bytes into the entry.
        let len_at = header_len - 8 - 20 + 4;
        file[len_at..len_at + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        let ck = fnv1a64(&file[..header_len - 8]);
        file[header_len - 8..header_len].copy_from_slice(&ck.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        assert!(matches!(
            map_shard(&path),
            Err(ArtifactError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression companion: a file cut mid-body (truncated tail) is a
    /// typed `Truncated` at open time, before any row access.
    #[test]
    fn truncated_tail_rejected_at_open() {
        let (t, meta) = toy();
        let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
        let dir = std::env::temp_dir().join(format!("omna-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.omna");
        let range = ShardRange {
            index: 0,
            count: 1,
            begin: 0,
            end: 4,
        };
        write_shard(&path, &meta, range, &rows).unwrap();
        let good = std::fs::read(&path).unwrap();
        for cut in [1usize, 10, good.len() / 2, good.len()] {
            std::fs::write(&path, &good[..good.len() - cut]).unwrap();
            let opened = map_shard(&path);
            assert!(
                matches!(opened, Err(ArtifactError::Truncated { .. })),
                "cut {cut} not rejected as truncated: {opened:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
