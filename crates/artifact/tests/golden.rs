//! Golden-artifact compatibility: the committed fixture under
//! `tests/fixtures/` must load with every build. If this test fails after
//! an intentional format change, bump `FORMAT_VERSION` and regenerate the
//! fixture with `OMNA_REGEN_GOLDEN=1 cargo test -p omnet-artifact --test
//! golden`, keeping the previous version's shards under
//! `tests/fixtures/v{N}/` so their refusal stays tested.

use omnet_artifact::{map_set, write_set, ArtifactError, ArtifactMeta, FORMAT_VERSION};
use omnet_core::{AllPairsProfiles, HopBound, ProfileOptions};
use omnet_temporal::{NodeId, Trace, TraceBuilder};
use std::path::{Path, PathBuf};

/// The fixed trace the golden fixture encodes: 5 nodes (4 internal), mixed
/// chain/store-and-forward structure exercising multi-pair frontiers.
fn golden_trace() -> Trace {
    TraceBuilder::new()
        .num_nodes(5)
        .internal(4)
        .contact_secs(0, 1, 0.0, 120.0)
        .contact_secs(1, 2, 100.0, 260.0)
        .contact_secs(2, 3, 400.0, 520.0)
        .contact_secs(0, 3, 800.0, 920.0)
        .contact_secs(0, 1, 600.0, 720.0)
        .contact_secs(3, 4, 450.0, 470.0)
        .contact_secs(1, 4, 30.0, 40.0)
        .build()
}

fn golden_meta(t: &Trace) -> ArtifactMeta {
    ArtifactMeta {
        dataset_key: "golden".into(),
        num_nodes: t.num_nodes(),
        num_internal: t.num_internal(),
        window: t.span(),
        options: ProfileOptions::default(),
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn golden_fixture_loads_and_answers() {
    let set = map_set(&fixture_dir())
        .expect("committed golden artifact failed to load: format compatibility break");
    let t = golden_trace();
    assert_eq!(set.meta, golden_meta(&t));
    assert_eq!(set.num_rows() as u32, t.num_nodes());
    let all = AllPairsProfiles::compute(&t, set.meta.options);
    for s in 0..t.num_nodes() {
        let row = set
            .row(s)
            .expect("golden shard verifies")
            .expect("source covered");
        for d in 0..t.num_nodes() {
            assert_eq!(
                row.profile(NodeId(d), HopBound::Unlimited).pairs(),
                all.profile(NodeId(s), NodeId(d), HopBound::Unlimited)
                    .pairs(),
                "golden answers diverged for {s}->{d}"
            );
            for k in 1..=4usize {
                assert_eq!(
                    row.profile(NodeId(d), HopBound::AtMost(k)).pairs(),
                    all.profile(NodeId(s), NodeId(d), HopBound::AtMost(k))
                        .pairs(),
                    "golden answers diverged for {s}->{d} at k={k}"
                );
            }
        }
    }
}

#[test]
fn golden_fixture_bytes_are_current() {
    let t = golden_trace();
    let meta = golden_meta(&t);
    let rows = AllPairsProfiles::compute(&t, meta.options).into_rows();
    if std::env::var_os("OMNA_REGEN_GOLDEN").is_some() {
        write_set(&fixture_dir(), "golden", &meta, &rows, 2).expect("regen fixture");
        return;
    }
    let fresh_dir = std::env::temp_dir().join(format!("omna-golden-check-{}", std::process::id()));
    std::fs::remove_dir_all(&fresh_dir).ok();
    let fresh = write_set(&fresh_dir, "golden", &meta, &rows, 2).expect("write fresh");
    for path in &fresh {
        let name = path.file_name().expect("shard file name");
        let committed = fixture_dir().join(name);
        let a = std::fs::read(&committed)
            .unwrap_or_else(|e| panic!("missing committed fixture {}: {e}", committed.display()));
        let b = std::fs::read(path).expect("fresh shard");
        assert_eq!(
            a,
            b,
            "encoder output changed for {}: bump FORMAT_VERSION and regenerate \
             (OMNA_REGEN_GOLDEN=1)",
            name.to_string_lossy()
        );
    }
    std::fs::remove_dir_all(&fresh_dir).ok();
}

/// Version-1 shards (which still carried the arc-pruning and level-storage
/// option bytes) are refused with the typed version error — never decoded,
/// never reported as corrupt.
#[test]
fn v1_fixture_is_refused_with_a_typed_version_error() {
    let dir = fixture_dir().join("v1");
    let expect = |e: ArtifactError| {
        assert!(
            matches!(
                e,
                ArtifactError::UnsupportedVersion {
                    found: 1,
                    supported: 2
                }
            ),
            "v1 shard not refused by version: {e}"
        );
    };
    assert_eq!(FORMAT_VERSION, 2);
    expect(map_set(&dir).expect_err("v1 set mapped"));
}
