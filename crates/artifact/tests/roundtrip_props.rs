//! Property tests of the artifact format: for random traces, stored hop
//! depths, and shard splits, write→load is
//! semantically lossless — the reconstructed rows answer every
//! `(dest, bound)` profile query identically to the in-memory engine —
//! and random corruption is always rejected, never mis-decoded.

use omnet_artifact::{load_set, load_shard, map_shard, write_set, ArtifactError, ArtifactMeta};
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
        let set = load_set(&dir).expect("load");
        prop_assert_eq!(set.num_rows() as u32, trace.num_nodes());
        prop_assert_eq!(&set.meta, &meta);
        for s in 0..trace.num_nodes() {
            let row = set.row(s).expect("covered");
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
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&trace, opts);
        let meta = ArtifactMeta {
            dataset_key: "corrupt".into(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: trace.span(),
            options: opts,
        };
        let dir = tmp_dir("cor");
        let paths = write_set(&dir, "corrupt", &meta, all.rows(), 1).expect("write");
        let good = std::fs::read(&paths[0]).expect("read back");
        let mut bad = good.clone();
        let idx = byte_seed % bad.len();
        bad[idx] ^= 1 << bit;
        std::fs::write(&paths[0], &bad).expect("rewrite");
        match load_shard(&paths[0]) {
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
            Ok(loaded) => {
                for s in 0..trace.num_nodes() {
                    let row = &loaded.rows[s as usize];
                    assert_rows_equivalent(&all, row, s);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Differential corruption oracle: the buffered loader and the mapped
    /// (lazy-verify) loader must reach the same verdict on the same bytes
    /// — identical rows on accept, the same rejection class on reject. The
    /// only behavioral difference allowed is *when* the rejection happens
    /// (map time vs first row access), never *whether* or *which*.
    #[test]
    fn corruption_verdicts_match_between_loaders(
        trace in trace_strategy(),
        byte_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let opts = ProfileOptions::default();
        let all = AllPairsProfiles::compute(&trace, opts);
        let meta = ArtifactMeta {
            dataset_key: "diff".into(),
            num_nodes: trace.num_nodes(),
            num_internal: trace.num_internal(),
            window: trace.span(),
            options: opts,
        };
        let dir = tmp_dir("diff");
        let paths = write_set(&dir, "diff", &meta, all.rows(), 1).expect("write");
        let good = std::fs::read(&paths[0]).expect("read back");
        let mut bad = good.clone();
        let idx = byte_seed % bad.len();
        bad[idx] ^= 1 << bit;
        std::fs::write(&paths[0], &bad).expect("rewrite");
        let buffered = load_shard(&paths[0]);
        // Compose the mapped path's two stages (eager header + lazy rows)
        // into one verdict.
        let mapped: Result<Vec<_>, ArtifactError> =
            map_shard(&paths[0]).and_then(|s| s.rows().map(<[_]>::to_vec));
        match (buffered, mapped) {
            (Ok(b), Ok(m)) => {
                prop_assert_eq!(b.rows.len(), m.len());
                for (br, mr) in b.rows.iter().zip(&m) {
                    prop_assert_eq!(br.to_parts(), mr.to_parts());
                }
            }
            (Err(be), Err(me)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&be),
                    std::mem::discriminant(&me),
                    "rejection classes diverged: buffered {be}, mapped {me}"
                );
            }
            (b, m) => {
                prop_assert!(
                    false,
                    "loaders disagree: buffered {:?}, mapped {:?}",
                    b.map(|s| s.rows.len()),
                    m.map(|r| r.len())
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
