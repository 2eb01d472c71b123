//! Hostile-bytes property tests of the wire codec: whatever a peer sends,
//! `decode_request` and `decode_response` return a value or a typed
//! [`WireError`] — they never panic.
//!
//! Uniformly random bytes almost never get past the JSON parser, so two
//! more generators start from valid frames: byte-level mutations of a
//! corpus frame, and corpus frames whose scalar values are swapped for
//! edge values, which stay well-formed JSON and so reach the typed field
//! checks behind the parser.

use omnet_serve::wire::{decode_request, decode_response};
use proptest::prelude::*;

/// Valid request frames: every `op`.
const REQUESTS: &[&str] = &[
    r#"{"op":"list"}"#,
    r##"{"op":"query","dataset":"toy","lines":["delivery 0 3 120","# note","diameter 0.01 4"]}"##,
    r#"{"op":"delta","dataset":"toy","key_epoch":2,"remove":[1,4],"append":[[0,1,5,20],[2,3,0.5,1e9]]}"#,
];

/// Valid response frames: every `type`, answer kind and error kind.
const RESPONSES: &[&str] = &[
    r#"{"type":"datasets","datasets":[{"name":"live","dataset_key":"toy","num_nodes":5,"key_epoch":2,"mutable":true}]}"#,
    r#"{"type":"results","results":[{"ok":true,"answer":{"type":"delivery","src":3,"dst":7,"at":0.1,"bound":4,"arrival":null,"delay":null,"reachable":false}}]}"#,
    r#"{"type":"results","results":[{"ok":true,"answer":{"type":"path","src":0,"dst":1,"at":5.5,"reachable":true,"arrival":17.25,"delay":11.75,"hops":1,"route":[{"from":0,"to":1,"start":1,"end":30,"at":5.5}]}}]}"#,
    r#"{"type":"results","results":[{"ok":true,"answer":{"type":"diameter","eps":0.01,"max_hops":6,"pairs":20,"grid":[120,null],"diameter":3,"per_delay":[null,3]}}]}"#,
    r#"{"type":"results","results":[{"ok":true,"answer":{"type":"stats","dataset_key":"toy","num_nodes":5,"num_internal":4,"window_start":0,"window_end":920,"options":{"store_levels":3,"max_levels":64},"shards":2,"rows":5,"max_useful_hops":null}}]}"#,
    r#"{"type":"results","results":[{"ok":false,"error":{"kind":"stale_key_epoch","message":"m","presented":3,"current":9}},{"ok":false,"error":{"kind":"shard_rejected","message":"m","source":2,"detail":"d"}},{"ok":false,"error":{"kind":"parse","message":"query syntax: x"}},{"ok":false,"error":{"kind":"hops_beyond_artifact","message":"m","requested":6,"stored":1}}]}"#,
    r#"{"type":"delta","ok":true,"applied":{"rows_invalidated":4,"key_epoch":17,"num_contacts":99}}"#,
    r#"{"type":"delta","ok":false,"error":{"kind":"bad_parameter","message":"m"}}"#,
    r#"{"type":"error","message":"unknown dataset 'nope'"}"#,
];

/// Scalars swapped into a corpus frame's value slots: the edges of every
/// type the codec reads (null, booleans, signs, overflow, non-integers).
const VALUES: &[&str] = &[
    "null",
    "true",
    "\"x\"",
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "0.5",
    "30",
    "1e400",
    "-1e400",
    "4294967296",
    "18446744073709551616",
    "[]",
    "{}",
];

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// The byte spans of a frame's scalar values (numbers, `null`, `true`,
/// `false`): maximal runs of scalar characters outside strings.
fn scalar_spans(frame: &str) -> Vec<(usize, usize)> {
    let (mut spans, mut in_string, mut escaped, mut start) = (Vec::new(), false, false, None);
    for (i, c) in frame.char_indices() {
        let scalar = !in_string && (c.is_ascii_alphanumeric() || "+-.".contains(c));
        match (start, scalar) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        }
    }
    spans
}

/// A corpus frame with some scalar values replaced by edge values: still
/// well-formed JSON, so it reaches the typed field checks.
fn value_swapped(corpus: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
    (
        0..corpus.len(),
        prop::collection::vec((0usize..1_000, 0..VALUES.len()), 1..3),
    )
        .prop_map(move |(which, swaps)| {
            let frame = corpus[which];
            let spans = scalar_spans(frame);
            if spans.is_empty() {
                return frame.as_bytes().to_vec();
            }
            let mut chosen: Vec<(usize, &str)> = swaps
                .into_iter()
                .map(|(slot, v)| (slot % spans.len(), VALUES[v]))
                .collect();
            chosen.sort_by_key(|&(slot, _)| std::cmp::Reverse(slot));
            chosen.dedup_by_key(|&mut (slot, _)| slot);
            let mut out = frame.to_string();
            for (slot, value) in chosen {
                let (a, b) = spans[slot];
                out.replace_range(a..b, value);
            }
            out.into_bytes()
        })
}

/// A corpus frame with a few bytes overwritten, then optionally cut.
fn mutated(corpus: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
    (
        0..corpus.len(),
        prop::collection::vec((0usize..1_000, any_byte()), 1..6),
        prop::option::of(0usize..1_000),
    )
        .prop_map(move |(which, edits, cut)| {
            let mut frame = corpus[which].as_bytes().to_vec();
            for (at, byte) in edits {
                let at = at % frame.len();
                frame[at] = byte;
            }
            if let Some(cut) = cut {
                frame.truncate(cut % (frame.len() + 1));
            }
            frame
        })
}

#[test]
fn corpus_frames_decode() {
    for frame in REQUESTS {
        assert!(decode_request(frame.as_bytes()).is_ok(), "{frame}");
    }
    for frame in RESPONSES {
        assert!(decode_response(frame.as_bytes()).is_ok(), "{frame}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any_byte(), 0..200)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    #[test]
    fn value_swapped_requests_never_panic(bytes in value_swapped(REQUESTS)) {
        let _ = decode_request(&bytes);
    }

    #[test]
    fn value_swapped_responses_never_panic(bytes in value_swapped(RESPONSES)) {
        let _ = decode_response(&bytes);
    }

    #[test]
    fn mutated_requests_never_panic(bytes in mutated(REQUESTS)) {
        let _ = decode_request(&bytes);
    }

    #[test]
    fn mutated_responses_never_panic(bytes in mutated(RESPONSES)) {
        let _ = decode_response(&bytes);
    }
}
