//! Property tests of the artifact format: for random traces, stored hop
//! depths, and shard splits, write→load is
//! semantically lossless — the reconstructed rows answer every
//! `(dest, bound)` profile query identically to the in-memory engine —
//! random corruption is always rejected, never mis-decoded, hostile bytes
//! get a typed rejection, never a panic, and a corrupt row fails alone.

use omnet_artifact::codec::checksum;
use omnet_artifact::{map_set, write_set, ArtifactError, ArtifactMeta, MappedSet};
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
        let loaded = map_set(&dir)
            .and_then(|set| scan(&set).map(|rows| rows.into_iter().cloned().collect::<Vec<_>>()));
        match loaded {
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
        let verdict = map_set(&dir).and_then(|set| scan(&set).map(|rows| rows.len()));
        prop_assert!(verdict.is_err(), "random bytes decoded: {verdict:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hostile bytes spliced into a valid shard's ROWS body, with every
    /// row checksum, the index and the header resealed so they get past
    /// the integrity checks into the row decoder: the verdict is rows or
    /// a typed error, never a panic.
    #[test]
    fn resealed_hostile_rows_never_panic(
        trace in trace_strategy(),
        edits in prop::collection::vec((0usize..10_000, any_byte()), 1..12),
        cut in prop::option::of(0usize..10_000),
    ) {
        let (_, dir, paths) = single_shard(&trace, "host");
        let file = std::fs::read(&paths[0]).expect("read back");
        let (header, mut index, mut body) = split_shard(&file);
        for (at, byte) in edits {
            let at = at % body.len();
            body[at] = byte;
        }
        if let Some(cut) = cut {
            body.truncate(cut % (body.len() + 1));
        }
        reseal_rows(&mut index, &body);
        std::fs::write(&paths[0], reseal(&header, &index, &body)).expect("rewrite");
        // The resealed header and section table hold, so the shard opens
        // unless the cut left no ROWS row count.
        if body.len() < 4 {
            prop_assert!(matches!(
                map_set(&dir),
                Err(ArtifactError::Truncated { context: "ROWS row count" })
            ));
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        let set = map_set(&dir).expect("resealed header opens");
        match scan(&set).map(|rows| rows.len()) {
            Ok(n) => prop_assert_eq!(n as u32, trace.num_nodes()),
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::Corrupt { .. }
                | ArtifactError::InvalidProfile(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected rejection shape: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A resealed ROW_INDEX whose offsets run past the ROWS section, go
    /// backwards or repeat (overlapping rows), or whose row count
    /// disagrees with the shard range, is refused with a typed error at
    /// `map_set` or on the row read, never a panic; so is one with random
    /// entry edits whose row checksums still hold.
    #[test]
    fn resealed_hostile_row_index_never_panics(
        trace in trace_strategy(),
        kind in 0u8..6,
        pick in 0usize..1_000,
        edits in prop::collection::vec((0usize..10_000, any_byte()), 1..6),
    ) {
        let (_, dir, paths) = single_shard(&trace, "idx");
        let file = std::fs::read(&paths[0]).expect("read back");
        let (header, mut index, mut body) = split_shard(&file);
        let n = index.len() / 16;
        let i = pick % n;
        let end_of = |index: &[u8], i: usize| {
            u64::from_le_bytes(index[16 * i..16 * i + 8].try_into().expect("8 bytes"))
        };
        let set_end = |index: &mut Vec<u8>, i: usize, end: u64| {
            index[16 * i..16 * i + 8].copy_from_slice(&end.to_le_bytes());
        };
        let must_fail = match kind {
            // An offset past the section.
            0 => {
                set_end(&mut index, i, body.len() as u64 + 1 + pick as u64);
                true
            }
            // Non-monotone: a row ending before its predecessor does.
            1 if n > 1 => {
                let j = 1 + pick % (n - 1);
                let before = end_of(&index, j - 1);
                set_end(&mut index, j, before - 1 - (pick as u64 % 4).min(before - 1));
                true
            }
            // Overlap: a row ending where its predecessor does.
            2 if n > 1 => {
                let j = 1 + pick % (n - 1);
                let before = end_of(&index, j - 1);
                set_end(&mut index, j, before);
                true
            }
            // One entry too many or too few for the shard range.
            3 => {
                if pick % 2 == 0 {
                    index.extend_from_within(index.len() - 16..);
                } else {
                    index.truncate(index.len() - 16);
                }
                true
            }
            // The ROWS row count disagrees with the range and the index.
            4 => {
                let count = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
                body[..4].copy_from_slice(&(count + 1 + pick as u32).to_le_bytes());
                true
            }
            _ => {
                for (at, byte) in edits {
                    let at = at % index.len();
                    index[at] = byte;
                }
                false
            }
        };
        reseal_rows(&mut index, &body);
        std::fs::write(&paths[0], reseal(&header, &index, &body)).expect("rewrite");
        let verdict = map_set(&dir).and_then(|set| {
            (0..trace.num_nodes())
                .map(|s| set.row(s).map(|row| row.is_some()))
                .collect::<Result<Vec<bool>, _>>()
        });
        match verdict {
            Ok(covered) => {
                prop_assert!(!must_fail, "hostile index of kind {kind} accepted");
                prop_assert!(covered.into_iter().all(|c| c));
            }
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Corrupt { .. }
                | ArtifactError::InvalidProfile(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected rejection shape: {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One flipped byte inside row r of a multi-row shard fails row r with
    /// `ChecksumMismatch`; every other row of the shard still equals the
    /// computed row, read one at a time and by a scan.
    #[test]
    fn a_corrupt_row_fails_alone(
        trace in trace_strategy(),
        pick in 0usize..1_000,
        at in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let (all, dir, paths) = single_shard(&trace, "row");
        let mut file = std::fs::read(&paths[0]).expect("read back");
        let (header, index, _) = split_shard(&file);
        let n = index.len() / 16;
        let r = pick % n;
        let end_of = |i: usize| {
            u64::from_le_bytes(index[16 * i..16 * i + 8].try_into().expect("8 bytes")) as usize
        };
        let start = if r == 0 { 4 } else { end_of(r - 1) };
        let rows_at = header.len() + index.len();
        file[rows_at + start + at % (end_of(r) - start)] ^= 1 << bit;
        std::fs::write(&paths[0], &file).expect("rewrite");
        let one = map_set(&dir).expect("the header and index are intact");
        let scan = map_set(&dir).expect("the header and index are intact");
        let scanned: Vec<_> = scan.rows(0..n as u32).collect();
        for s in 0..n as u32 {
            for got in [one.row(s), scanned[s as usize].clone()] {
                if s as usize == r {
                    prop_assert!(
                        matches!(got, Err(ArtifactError::ChecksumMismatch { what: "row" })),
                        "row {r}: {got:?}"
                    );
                } else {
                    prop_assert!(matches!(got, Ok(Some(row)) if *row == all.rows()[s as usize]));
                }
            }
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
        let header_ck = checksum(&file[..header_len - 8]);
        file[header_len - 8..header_len].copy_from_slice(&header_ck.to_le_bytes());
        std::fs::write(&paths[0], &file).expect("rewrite");
        match map_set(&dir) {
            Ok(set) => match scan(&set) {
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

/// Two threads reading interleaved rows of one shard through
/// `MappedSet::row`, in lock step from the shard's first access on (a
/// barrier before every read), see exactly what a serial read sees.
#[test]
fn concurrent_row_reads_equal_a_serial_read() {
    // 40 nodes and 300 contacts from a fixed linear congruential stream.
    let mut x = 7u64;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (x >> 33) % m
    };
    let mut b = TraceBuilder::new().num_nodes(40);
    for _ in 0..300 {
        let (u, v) = (next(40) as u32, next(40) as u32);
        let start = next(10_000) as f64;
        if u != v {
            b = b.contact_secs(u, v, start, start + 1.0 + next(600) as f64);
        }
    }
    let trace = b.build();
    let (_, dir, _) = single_shard(&trace, "threads");
    let n = trace.num_nodes();
    let serial: Vec<SourceProfiles> = {
        let set = map_set(&dir).expect("map");
        (0..n)
            .map(|s| set.row(s).expect("row").expect("covered").clone())
            .collect()
    };
    let set = map_set(&dir).expect("map");
    let barrier = std::sync::Barrier::new(2);
    let read = |sources: Vec<u32>| -> Vec<(u32, SourceProfiles)> {
        sources
            .into_iter()
            .map(|s| {
                barrier.wait();
                (s, set.row(s).expect("row").expect("covered").clone())
            })
            .collect()
    };
    let (even, odd) = std::thread::scope(|scope| {
        let even = scope.spawn(|| read((0..n).step_by(2).collect()));
        let odd = scope.spawn(|| read((1..n).step_by(2).rev().collect()));
        (even.join().expect("even"), odd.join().expect("odd"))
    });
    assert_eq!(even.len() + odd.len(), n as usize);
    for (s, row) in even.into_iter().chain(odd) {
        assert_eq!(row, serial[s as usize], "source {s}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Pinned values of the artifact checksum: a change to it is a format
/// change.
#[test]
fn checksum_test_vectors() {
    let ramp: Vec<u8> = (0..=255u8).collect();
    let vectors: [(&[u8], u64); 6] = [
        (b"", 0x3ff1_0f37_2b96_78bc),
        (b"a", 0x6e8f_41b3_8db5_4258),
        (b"foobar", 0x5c06_48bf_7ed0_a479),
        (b"OMNPROF1OMNPROF1OMNPROF1OMNPROF1", 0x741f_ca5c_99a0_66fb),
        (&ramp[..37], 0x5a08_3d52_ac56_e13a),
        (&ramp, 0x9c4e_f9ef_ba85_84e4),
    ];
    for (bytes, want) in vectors {
        assert_eq!(checksum(bytes), want, "{} bytes", bytes.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every single-bit flip and every single-byte change of a random body
    /// changes its checksum.
    #[test]
    fn every_single_byte_change_changes_the_checksum(
        body in prop::collection::vec(any_byte(), 1..100),
    ) {
        let want = checksum(&body);
        let mut edited = body.clone();
        for i in 0..body.len() {
            for bit in 0..8 {
                edited[i] = body[i] ^ (1 << bit);
                prop_assert!(checksum(&edited) != want, "bit {} of byte {}", bit, i);
            }
            for b in 0..=255u8 {
                edited[i] = b;
                prop_assert_eq!(checksum(&edited) == want, b == body[i], "byte {} = {}", i, b);
            }
            edited[i] = body[i];
        }
    }
}

/// Every row of `set`, read by one [`MappedSet::rows`] scan per shard;
/// the first failing row's error.
fn scan(set: &MappedSet) -> Result<Vec<&SourceProfiles>, ArtifactError> {
    set.shards()
        .iter()
        .flat_map(|s| set.rows(s.range().begin..s.range().end))
        .map(|row| row.map(|row| row.expect("a shard covers its range")))
        .collect()
}

/// A shard file split into its header, ROW_INDEX body and ROWS body.
fn split_shard(file: &[u8]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let header_len = u32::from_le_bytes(file[12..16].try_into().expect("4 bytes")) as usize;
    // The table ends with the ROW_INDEX then the ROWS entry, each
    // (id u32, len u64, checksum u64), before the header checksum.
    let index_len = u64::from_le_bytes(
        file[header_len - 44..header_len - 36]
            .try_into()
            .expect("8 bytes"),
    ) as usize;
    let rows_at = header_len + index_len;
    (
        file[..header_len].to_vec(),
        file[header_len..rows_at].to_vec(),
        file[rows_at..].to_vec(),
    )
}

/// Recomputes the checksum of every index entry whose span lies inside
/// `body`, so edited rows reach the decoder.
fn reseal_rows(index: &mut [u8], body: &[u8]) {
    let mut start = 4u64;
    for entry in index.chunks_exact_mut(16) {
        let end = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
        if start < end && end <= body.len() as u64 {
            let ck = checksum(&body[start as usize..end as usize]);
            entry[8..].copy_from_slice(&ck.to_le_bytes());
        }
        start = end;
    }
}

/// Reassembles a shard from `header`, `index` and `body`, resealing the
/// two section-table entries and the header checksum.
fn reseal(header: &[u8], index: &[u8], body: &[u8]) -> Vec<u8> {
    let h = header.len();
    let mut file = header.to_vec();
    file[h - 44..h - 36].copy_from_slice(&(index.len() as u64).to_le_bytes());
    file[h - 36..h - 28].copy_from_slice(&checksum(index).to_le_bytes());
    file[h - 24..h - 16].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let prefix = &body[..body.len().min(4)];
    file[h - 16..h - 8].copy_from_slice(&checksum(prefix).to_le_bytes());
    let header_ck = checksum(&file[..h - 8]);
    file[h - 8..].copy_from_slice(&header_ck.to_le_bytes());
    file.extend_from_slice(index);
    file.extend_from_slice(body);
    file
}

/// Every byte value, 0 through 255.
fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}
