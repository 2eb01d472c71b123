//! Property tests of the artifact format: for random traces, stored hop
//! depths, and shard splits, write→load is
//! semantically lossless — the reconstructed rows answer every
//! `(dest, bound)` profile query identically to the in-memory engine —
//! random corruption is always rejected, never mis-decoded, and hostile
//! bytes get a typed rejection, never a panic.

use omnet_artifact::codec::fnv1a64;
use omnet_artifact::{map_set, map_shard, write_set, ArtifactError, ArtifactMeta};
use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions, SourceProfiles};
use omnet_temporal::{NodeId, Trace, TraceBuilder};
use proptest::prelude::*;
use std::path::PathBuf;

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        3u32..7,
        prop::collection::vec((0u32..200, 1u32..60, 0u32..100), 1..14),
    )
        .prop_map(|(nodes, raw)| {
            let mut b = TraceBuilder::new().num_nodes(nodes);
            for (s, d, pair_seed) in raw {
                let u = pair_seed % nodes;
                let v = (pair_seed / nodes + 1 + u) % nodes;
                if u != v {
                    b = b.contact_secs(u, v, s as f64, (s + d) as f64);
                }
            }
            b.build()
        })
}

fn options_strategy() -> impl Strategy<Value = ProfileOptions> {
    (0usize..6).prop_map(|store| ProfileOptions::builder().store_levels(store).build())
}

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("omna-props-{tag}-{}-{n}", std::process::id()))
}

/// Writes `trace`'s profiles (default options) as a one-shard set under a
/// fresh directory tagged `tag`.
fn single_shard(trace: &Trace, tag: &str) -> (AllPairsProfiles, PathBuf, Vec<PathBuf>) {
    let opts = ProfileOptions::default();
    let all = AllPairsProfiles::compute(trace, opts);
    let meta = ArtifactMeta {
        dataset_key: tag.into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let dir = tmp_dir(tag);
    let paths = write_set(&dir, tag, &meta, all.rows(), 1).expect("write");
    (all, dir, paths)
}

fn assert_rows_equivalent(orig: &AllPairsProfiles, row: &SourceProfiles, s: u32) {
    let n = orig.num_nodes() as u32;
    for d in 0..n {
        for k in 0..=row.stored_levels() + 2 {
            assert_eq!(
                row.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                orig.profile(NodeId(s), NodeId(d), HopBound::AtMost(k))
                    .pairs(),
                "source {s} dest {d} k={k}"
            );
        }
        assert_eq!(
            row.profile(NodeId(d), HopBound::Unlimited).pairs(),
            orig.profile(NodeId(s), NodeId(d), HopBound::Unlimited)
                .pairs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn write_load_is_lossless(
        trace in trace_strategy(),
        opts in options_strategy(),
        shards in 1u32..5,
    ) {
        let all = AllPairsProfiles::compute(&trace, opts);
        let meta = ArtifactMeta {
            dataset_key: "props".into(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: trace.span(),
            options: opts,
        };
        let dir = tmp_dir("rt");
        write_set(&dir, "props", &meta, all.rows(), shards).expect("write");
        let set = map_set(&dir).expect("load");
        prop_assert_eq!(set.num_rows() as u32, trace.num_nodes());
        prop_assert_eq!(&set.meta, &meta);
        for s in 0..trace.num_nodes() {
            let row = set.row(s).expect("verifies").expect("covered");
            assert_rows_equivalent(&all, row, s);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_never_decodes(
        trace in trace_strategy(),
        byte_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let (all, dir, paths) = single_shard(&trace, "cor");
        let good = std::fs::read(&paths[0]).expect("read back");
        let mut bad = good.clone();
        let idx = byte_seed % bad.len();
        bad[idx] ^= 1 << bit;
        std::fs::write(&paths[0], &bad).expect("rewrite");
        match map_shard(&paths[0]).and_then(|s| s.rows().map(<[_]>::to_vec)) {
            // A flipped bit must surface as a typed rejection...
            Err(
                ArtifactError::BadMagic { .. }
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Corrupt { .. }
                | ArtifactError::InvalidProfile(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected rejection shape: {other}"),
            // ...never as silently different answers (checksums make a
            // surviving load impossible except for the flipped bit being
            // repaired by... nothing; loads must equal the original).
            Ok(rows) => {
                for (s, row) in (0..trace.num_nodes()).zip(&rows) {
                    assert_rows_equivalent(&all, row, s);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte strings named `.omna` are refused with a typed
    /// error, at open time or on the first row read, never a panic.
    #[test]
    fn arbitrary_bytes_are_rejected(bytes in prop::collection::vec(any_byte(), 0..600)) {
        let dir = tmp_dir("bytes");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("hostile.omna");
        std::fs::write(&path, &bytes).expect("write");
        let verdict = map_shard(&path).and_then(|s| s.rows().map(<[_]>::len));
        prop_assert!(verdict.is_err(), "random bytes decoded: {verdict:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hostile bytes spliced into a valid shard's ROWS body, with the
    /// section checksum resealed so they get past the integrity check
    /// into the row decoder: the verdict is rows or a typed error, never
    /// a panic.
    #[test]
    fn resealed_hostile_rows_never_panic(
        trace in trace_strategy(),
        edits in prop::collection::vec((0usize..10_000, any_byte()), 1..12),
        cut in prop::option::of(0usize..10_000),
    ) {
        let (_, dir, paths) = single_shard(&trace, "host");
        let file = std::fs::read(&paths[0]).expect("read back");
        let header_len = u32::from_le_bytes(file[12..16].try_into().expect("4 bytes")) as usize;
        let mut body = file[header_len..].to_vec();
        for (at, byte) in edits {
            let at = at % body.len();
            body[at] = byte;
        }
        if let Some(cut) = cut {
            body.truncate(cut % (body.len() + 1));
        }
        // Reseal: the single section-table entry ends 8 bytes before the
        // header checksum, as (id u32, len u64, checksum u64).
        let mut hostile = file[..header_len].to_vec();
        hostile[header_len - 24..header_len - 16].copy_from_slice(&(body.len() as u64).to_le_bytes());
        hostile[header_len - 16..header_len - 8].copy_from_slice(&fnv1a64(&body).to_le_bytes());
        let header_ck = fnv1a64(&hostile[..header_len - 8]);
        hostile[header_len - 8..].copy_from_slice(&header_ck.to_le_bytes());
        hostile.extend_from_slice(&body);
        std::fs::write(&paths[0], &hostile).expect("rewrite");
        let shard = map_shard(&paths[0]).expect("resealed header opens");
        match shard.rows() {
            Ok(rows) => prop_assert_eq!(rows.len() as u32, trace.num_nodes()),
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::Corrupt { .. }
                | ArtifactError::InvalidProfile(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected rejection shape: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hostile bytes in a valid shard's header, resealed with a fresh
    /// header checksum so they reach the field checks: opening gives a
    /// shard or a typed error, never a panic, and so does reading the rows
    /// of a shard that opened. (The header refuses node counts above
    /// `omnet_temporal::MAX_NODES`, the universe a trace may declare.)
    #[test]
    fn resealed_hostile_headers_never_panic(
        trace in trace_strategy(),
        edits in prop::collection::vec((0usize..10_000, any_byte()), 1..6),
    ) {
        let (_, dir, paths) = single_shard(&trace, "hdr");
        let mut file = std::fs::read(&paths[0]).expect("read back");
        let header_len = u32::from_le_bytes(file[12..16].try_into().expect("4 bytes")) as usize;
        for (at, byte) in edits {
            file[at % (header_len - 8)] = byte;
        }
        let header_ck = fnv1a64(&file[..header_len - 8]);
        file[header_len - 8..header_len].copy_from_slice(&header_ck.to_le_bytes());
        std::fs::write(&paths[0], &file).expect("rewrite");
        match map_shard(&paths[0]) {
            Ok(shard) => match shard.rows() {
                Ok(_)
                | Err(
                    ArtifactError::Truncated { .. }
                    | ArtifactError::ChecksumMismatch { .. }
                    | ArtifactError::Corrupt { .. }
                    | ArtifactError::InvalidProfile(_),
                ) => {}
                Err(other) => prop_assert!(false, "unexpected row rejection: {other}"),
            },
            Err(
                ArtifactError::BadMagic { .. }
                | ArtifactError::UnsupportedVersion { .. }
                | ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Corrupt { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected rejection shape: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every byte value, 0 through 255.
fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}
