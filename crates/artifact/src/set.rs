//! Sharded artifact sets: N independent shard files covering disjoint
//! source ranges of one profile computation. Written here, read back with
//! [`map_set`](crate::map_set).

use crate::format::{ArtifactMeta, ShardRange};
use crate::shard::write_shard;
use crate::ArtifactError;
use omnet_core::SourceProfiles;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Splits `num_sources` sources into `shards` contiguous, balanced ranges
/// (the first `num_sources % shards` ranges get one extra source). The
/// shard count is clamped to `1..=num_sources.max(1)`.
pub fn shard_ranges(num_sources: u32, shards: u32) -> Vec<Range<u32>> {
    let shards = shards.clamp(1, num_sources.max(1));
    let base = num_sources / shards;
    let extra = num_sources % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut begin = 0u32;
    for i in 0..shards {
        let len = base + u32::from(i < extra);
        out.push(begin..begin + len);
        begin += len;
    }
    out
}

/// File name of shard `index` of `count` for a set stem:
/// `{stem}.{index:04}-of-{count:04}.omna`. Lexicographic filename order is
/// shard order.
pub fn shard_file_name(stem: &str, index: u32, count: u32) -> String {
    format!("{stem}.{index:04}-of-{count:04}.omna")
}

/// Writes a complete profile set as `shards` files under `dir` (created if
/// missing); `rows` must be all sources `0..meta.num_nodes` ascending.
/// Returns the written paths in shard order.
pub fn write_set(
    dir: &Path,
    stem: &str,
    meta: &ArtifactMeta,
    rows: &[SourceProfiles],
    shards: u32,
) -> Result<Vec<PathBuf>, ArtifactError> {
    if rows.len() as u32 != meta.num_nodes {
        return Err(ArtifactError::Corrupt {
            context: "need one row per node to write a set",
        });
    }
    std::fs::create_dir_all(dir).map_err(|source| ArtifactError::Io {
        context: "cannot create artifact directory",
        path: PathBuf::from(dir),
        source,
    })?;
    let ranges = shard_ranges(meta.num_nodes, shards);
    let count = ranges.len() as u32;
    let mut paths = Vec::with_capacity(ranges.len());
    for (i, r) in ranges.iter().enumerate() {
        let path = dir.join(shard_file_name(stem, i as u32, count));
        let range = ShardRange {
            index: i as u32,
            count,
            begin: r.start,
            end: r.end,
        };
        write_shard(&path, meta, range, &rows[r.start as usize..r.end as usize])?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_set;
    use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions};
    use omnet_temporal::{NodeId, TraceBuilder};

    #[test]
    fn ranges_balanced_and_cover() {
        assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(shard_ranges(4, 1), vec![0..4]);
        assert_eq!(shard_ranges(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(shard_ranges(0, 4), vec![0..0]);
        for (n, s) in [(97u32, 7u32), (5, 5), (1, 1)] {
            let rs = shard_ranges(n, s);
            assert_eq!(rs.first().map(|r| r.start), Some(0));
            assert_eq!(rs.last().map(|r| r.end), Some(n));
            assert!(rs.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn set_roundtrip_with_shard_boundaries() {
        let t = TraceBuilder::new()
            .num_nodes(7)
            .contact_secs(0, 1, 0.0, 10.0)
            .contact_secs(1, 2, 20.0, 30.0)
            .contact_secs(2, 3, 40.0, 50.0)
            .contact_secs(3, 4, 60.0, 70.0)
            .contact_secs(4, 5, 80.0, 90.0)
            .contact_secs(5, 6, 100.0, 110.0)
            .contact_secs(0, 6, 5.0, 95.0)
            .build();
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&t, opts);
        let meta = ArtifactMeta {
            dataset_key: "toy7".into(),
            num_nodes: 7,
            num_internal: 7,
            window: t.span(),
            options: opts,
        };
        let dir = std::env::temp_dir().join(format!("omna-set-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let paths = write_set(&dir, "toy7", &meta, all.rows(), 3).unwrap();
        assert_eq!(paths.len(), 3);
        let set = map_set(&dir).unwrap();
        assert_eq!(set.num_rows(), 7);
        // Shard ranges are 0..3, 3..5, 5..7: probe each boundary source
        // (first and last of every shard) against the in-memory truth.
        for s in [0u32, 2, 3, 4, 5, 6] {
            let row = set.row(s).unwrap().expect("covered");
            for d in 0..7u32 {
                assert_eq!(
                    row.profile(NodeId(d), HopBound::Unlimited).pairs(),
                    all.profile(NodeId(s), NodeId(d), HopBound::Unlimited)
                        .pairs(),
                    "source {s} dest {d}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_sets_rejected() {
        let t = TraceBuilder::new()
            .num_nodes(4)
            .contact_secs(0, 1, 0.0, 10.0)
            .build();
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&t, opts);
        let mut meta = ArtifactMeta {
            dataset_key: "a".into(),
            num_nodes: 4,
            num_internal: 4,
            window: t.span(),
            options: opts,
        };
        let dir = std::env::temp_dir().join(format!("omna-mixed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_set(&dir, "a", &meta, all.rows(), 2).unwrap();
        // A shard from a *different* dataset dropped into the directory.
        meta.dataset_key = "b".into();
        write_set(&dir, "b", &meta, all.rows(), 2).unwrap();
        assert!(matches!(
            map_set(&dir),
            Err(ArtifactError::SetInconsistent { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
