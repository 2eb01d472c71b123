//! Byte-for-byte transcript of the `omnet` binary: `tests/fixtures/
//! transcript.txt` lists invocations with the exit code, stdout and stderr
//! each must produce. This pins what only the process shows: `main`'s
//! mapping of errors to exit codes, when the usage text is reprinted, and
//! `--help`/empty-argv handling.
//!
//! Each case is `$ omnet ARGS [< STDIN-FILE]`, then `> exit N`, `> stdout`
//! and the verbatim stdout, then `> stderr` and the verbatim stderr. The
//! cases run in order in one scratch directory holding copies of the
//! fixture traces, so later cases can read what earlier ones wrote (the
//! `precompute` shards).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const INPUTS: &[&str] = &["toy.trace", "queries.txt", "bad.trace", "outside.trace"];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Runs one case line (without its `$ omnet` prefix) in `dir`.
fn render(dir: &Path, line: &str) -> String {
    let (args, stdin) = match line.split_once(" < ") {
        Some((args, file)) => (
            args,
            Stdio::from(std::fs::File::open(dir.join(file)).unwrap()),
        ),
        None => (line, Stdio::null()),
    };
    let out = Command::new(env!("CARGO_BIN_EXE_omnet"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .env_remove("OMNET_TRACE")
        .stdin(stdin)
        .output()
        .unwrap();
    let code = out
        .status
        .code()
        .map_or_else(|| format!("{}", out.status), |c| c.to_string());
    format!(
        "$ omnet {line}\n> exit {code}\n> stdout\n{}> stderr\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn binary_matches_the_transcript() {
    let expected = std::fs::read_to_string(fixtures().join("transcript.txt")).unwrap();
    let dir = std::env::temp_dir().join(format!("omnet-transcript-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for input in INPUTS {
        std::fs::copy(fixtures().join(input), dir.join(input)).unwrap();
    }
    let mut cases = 0;
    let mut actual = String::new();
    for line in expected.lines() {
        if let Some(case) = line.strip_prefix("$ omnet ") {
            let got = render(&dir, case);
            // Report the first divergent case on its own, not the whole file.
            assert!(
                expected[actual.len()..].starts_with(&got),
                "transcript diverges at `omnet {case}`; got:\n{got}"
            );
            actual.push_str(&got);
            cases += 1;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(actual, expected);
    assert!(cases >= 60, "only {cases} cases");
}
