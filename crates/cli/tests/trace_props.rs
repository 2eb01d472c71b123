//! Hostile trace files: whatever bytes a trace file holds, every `omnet`
//! subcommand that reads one returns its output or a typed [`CliError`] —
//! it never panics.
//!
//! Uniformly random bytes almost never get past the row parser, so a
//! second generator writes line soup from the trace grammar: headers and
//! rows whose fields are drawn from edge values (out-of-range ids, NaN and
//! infinite times, inverted intervals, headers that contradict the rows).

use omnet_cli::{CliError, SUBCOMMANDS};
use proptest::prelude::*;
use std::path::PathBuf;

/// One invocation per subcommand that reads a trace; `{t}` is the trace
/// file and `{o}` an output path. Flags keep every run small.
const INVOCATIONS: &[&str] = &[
    "stats {t}",
    "convert {t} {o}",
    "diameter {t} --max-hops 4",
    "cdf {t} --points 4",
    "path {t} 0 1 0",
    "prune {t} {o} --keep 0.5",
    "prune {t} {o} --min-duration 1",
    "flood {t} 0 0",
    "journeys {t} 0 1",
    "simulate {t} --messages 5",
    "components {t} 1",
    "check {t} --oracle --starts 2",
    "delivery {t} 0 1 0 --hops 2",
    "precompute {t} {o}",
];

/// The subcommands whose first positional is not a trace file.
const NO_TRACE: &[&str] = &["generate", "query", "serve"];

const IDS: &[&str] = &["0", "1", "2", "3", "4", "5"];
const BAD_IDS: &[&str] = &["-1", "0.5", "1048576", "4000000000", "4294967295", "x", ""];
/// Ascending, so a row drawing `s <= e` indices is a valid interval.
const TIMES: &[&str] = &["0", "0.5", "1", "60", "120", "500", "1000", "1e9"];
const BAD_TIMES: &[&str] = &["-5", "-0", "nan", "inf", "-inf", "1e400", "x"];
/// Small universes, and universes past `omnet_temporal::MAX_NODES` up to
/// `u32::MAX`, which the reader must refuse before allocating for them.
const COUNTS: &[&str] = &[
    "0",
    "1",
    "2",
    "4",
    "6",
    "-1",
    "x",
    "",
    "1048577",
    "4000000000",
    "4294967295",
];

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// `good[i]`, or an edge value when `roll` is 0 (one field in 16).
fn field(good: &[&'static str], bad: &[&'static str], i: usize, roll: u8) -> &'static str {
    if roll == 0 {
        bad[i % bad.len()]
    } else {
        good[i % good.len()]
    }
}

/// One line of a trace file: mostly well-formed rows, sometimes a header,
/// any field sometimes swapped for an edge value.
fn line() -> impl Strategy<Value = String> {
    let rolls = (0u8..16, 0u8..16, 0u8..16, 0u8..16);
    (
        0u8..10,
        0usize..6,
        0usize..6,
        0..TIMES.len(),
        0..TIMES.len(),
        rolls,
    )
        .prop_map(|(kind, a, b, s, e, (ra, rb, rs, re))| {
            let (s, e) = (s.min(e), s.max(e));
            let (s, e) = (
                field(TIMES, BAD_TIMES, s, rs),
                field(TIMES, BAD_TIMES, e, re),
            );
            match kind {
                0 => format!("# nodes {}", COUNTS[(a + b) % COUNTS.len()]),
                1 => format!("# internal {}", COUNTS[(a + b) % COUNTS.len()]),
                2 => format!("# window {s} {e}"),
                // Self-contacts only from the edge roll, not one row in six.
                _ => {
                    let b = if a == b && rb != 1 { a + 1 } else { b };
                    format!(
                        "{} {} {s} {e}",
                        field(IDS, BAD_IDS, a, ra),
                        field(IDS, BAD_IDS, b, rb)
                    )
                }
            }
        })
}

fn trace_soup() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(line(), 0..12).prop_map(|lines| (lines.join("\n") + "\n").into_bytes())
}

/// A fresh directory per case: cases must not see each other's outputs.
fn case_dir() -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("omnet-trace-props-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `bytes` as a trace and runs every invocation on it.
fn run_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = case_dir();
    let trace = dir.join("hostile.trace");
    std::fs::write(&trace, bytes).unwrap();
    for (i, invocation) in INVOCATIONS.iter().enumerate() {
        let argv: Vec<String> = invocation
            .replace("{t}", &trace.display().to_string())
            .replace("{o}", &dir.join(format!("out{i}")).display().to_string())
            .split_whitespace()
            .map(String::from)
            .collect();
        let result: std::thread::Result<Result<_, CliError>> =
            std::panic::catch_unwind(|| omnet_cli::run(&argv));
        prop_assert!(
            result.is_ok(),
            "`omnet {invocation}` panicked on trace {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn invocations_cover_every_trace_reading_subcommand() {
    for s in SUBCOMMANDS {
        let covered = INVOCATIONS
            .iter()
            .any(|i| i.split_whitespace().next() == Some(s.name));
        assert_eq!(covered, !NO_TRACE.contains(&s.name), "{}", s.name);
    }
}

/// A universe past `MAX_NODES`, declared by a header or implied by a row,
/// is a trace syntax error (exit 5) for every subcommand that reads a trace
/// file — never an allocation sized by it. (`convert` reads a lenient
/// listing instead, whose ids it renumbers densely.)
#[test]
fn oversized_universes_are_syntax_errors() {
    let limit = omnet_temporal::MAX_NODES;
    for text in [
        "# nodes 4000000000\n0 1 0 10\n".to_string(),
        format!("# nodes {}\n0 1 0 10\n", limit + 1),
        "0 4000000000 0 10\n".to_string(),
        format!("0 1 0 10\n{limit} 2 0 10\n"),
    ] {
        let dir = case_dir();
        let trace = dir.join("huge.trace");
        std::fs::write(&trace, &text).unwrap();
        for (i, invocation) in INVOCATIONS.iter().enumerate() {
            if invocation.starts_with("convert ") {
                continue;
            }
            let argv: Vec<String> = invocation
                .replace("{t}", &trace.display().to_string())
                .replace("{o}", &dir.join(format!("out{i}")).display().to_string())
                .split_whitespace()
                .map(String::from)
                .collect();
            match omnet_cli::run(&argv) {
                Err(e @ CliError::Io { .. }) => {
                    assert_eq!(e.exit_code(), 5);
                    assert!(e.to_string().contains("limit"), "{invocation}: {e}");
                }
                Err(e) => panic!("`omnet {invocation}` on {text:?}: {e}"),
                Ok(_) => panic!("`omnet {invocation}` accepted {text:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Runs the `omnet` binary with two worker threads and returns its output,
/// failing the test if it is still running after `limit`.
fn run_within(args: &[&std::ffi::OsStr], limit: std::time::Duration) -> std::process::Output {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_omnet"))
        .args(args)
        .env("OMNET_THREADS", "2")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + limit;
    loop {
        if child.try_wait().unwrap().is_some() {
            return child.wait_with_output().unwrap();
        }
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`omnet {args:?}` ran past {limit:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// A trace over a universe of `MAX_NODES` whose `contacts` lines touch
/// only a few of them.
fn capped_universe_trace(contacts: &str) -> (PathBuf, PathBuf) {
    let dir = case_dir();
    let trace = dir.join("sparse.trace");
    let text = format!("# nodes {}\n{contacts}", omnet_temporal::MAX_NODES);
    std::fs::write(&trace, text).unwrap();
    (dir, trace)
}

/// A universe at `MAX_NODES` with one contact is accepted, and `omnet
/// diameter` answers it without an all-pairs induction over the isolated
/// nodes: the binary must exit 0 well inside a generous deadline.
#[test]
fn diameter_of_a_capped_universe_with_one_contact_finishes() {
    let (dir, trace) = capped_universe_trace("0 1 0 10\n");
    let limit = std::time::Duration::from_secs(120);
    let out = run_within(&["diameter".as_ref(), trace.as_ref()], limit);
    assert!(
        out.status.success(),
        "`omnet diameter` exited with {}",
        out.status
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// 400 contacts among 200 nodes of a `MAX_NODES` universe: the curves visit
/// only the destinations each active source reaches, so `omnet diameter`
/// costs the contacts, not active sources × universe.
#[test]
fn diameter_of_a_capped_universe_with_many_contacts_finishes() {
    let contacts: String = (0..400u32)
        .map(|j| {
            let (a, b) = ((j * 7) % 200, (j * 13 + 1) % 200);
            let b = if a == b { (b + 1) % 200 } else { b };
            let start = (j * 37) % 3600;
            format!("{a} {b} {start} {}\n", start + 120)
        })
        .collect();
    let (dir, trace) = capped_universe_trace(&contacts);
    let limit = std::time::Duration::from_secs(8);
    let out = run_within(&["diameter".as_ref(), trace.as_ref()], limit);
    assert!(
        out.status.success(),
        "`omnet diameter` exited with {}",
        out.status
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("(1-0.01)-diameter: "));
    std::fs::remove_dir_all(&dir).ok();
}

/// `omnet check` on a `MAX_NODES` universe with one contact compares only
/// the pairs of its two contact nodes, and says how many it skipped.
#[test]
fn check_of_a_capped_universe_with_one_contact_finishes() {
    let (dir, trace) = capped_universe_trace("0 1 0 10\n");
    let limit = std::time::Duration::from_secs(20);
    let out = run_within(&["check".as_ref(), trace.as_ref()], limit);
    assert!(
        out.status.success(),
        "`omnet check` exited with {}",
        out.status
    );
    let n = u64::from(omnet_temporal::MAX_NODES);
    let skipped = format!(
        "skipped {} pairs with a contactless endpoint\n",
        n * (n - 1) - 2
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains(&skipped));
    std::fs::remove_dir_all(&dir).ok();
}

/// `omnet precompute` on a `MAX_NODES` universe with one contact writes its
/// 2²⁰ mostly empty rows without a slot per node per row, and the shards
/// answer `delivery` byte for byte like the trace does.
#[test]
fn precompute_of_a_capped_universe_with_one_contact_finishes() {
    let (dir, trace) = capped_universe_trace("0 1 0 10\n");
    let shards = dir.join("shards");
    let limit = std::time::Duration::from_secs(20);
    let out = run_within(
        &["precompute".as_ref(), trace.as_ref(), shards.as_ref()],
        limit,
    );
    assert!(
        out.status.success(),
        "`omnet precompute` exited with {}",
        out.status
    );
    let query = ["delivery", "0", "1", "0"].map(std::ffi::OsStr::new);
    let via_shards = run_within(
        &[&["query".as_ref(), shards.as_ref()], &query[..]].concat(),
        limit,
    );
    let via_trace = run_within(
        &[&["delivery".as_ref(), trace.as_ref()], &query[1..]].concat(),
        limit,
    );
    assert!(via_trace.status.success() && via_shards.status.success());
    assert_eq!(
        String::from_utf8_lossy(&via_shards.stdout),
        String::from_utf8_lossy(&via_trace.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any_byte(), 0..200)) {
        run_all(&bytes)?;
    }

    #[test]
    fn trace_soup_never_panics(bytes in trace_soup()) {
        run_all(&bytes)?;
    }
}
