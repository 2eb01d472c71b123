//! The lint rules.
//!
//! Each rule walks the library crates' sources and reports violations as
//! `(rule, file, line, message)`. The CLI is in scope, since every input it
//! reads comes from a user. Test modules (`#[cfg(test)]`), `tests/`,
//! `benches/`, the bench harness, xtask itself and the vendored dependency
//! stubs are out of scope — the rules guard code where a panic aborts a
//! caller and a raw float comparison silently breaks the `Time` ordering
//! contract.

use crate::lexer;
use std::fmt;
use std::path::{Path, PathBuf};

/// The library crates whose sources are linted.
pub const LIB_CRATES: &[&str] = &[
    "temporal", "core", "random", "mobility", "flooding", "analysis", "obs", "artifact", "serve",
    "cli",
];

/// Crates whose public items must cite a paper section (`§`) in docs.
pub const CITATION_CRATES: &[&str] = &["temporal", "core"];

/// Files registered as concurrency modules: the only library code allowed
/// to spell atomic `Ordering::` literals. Everything else must go through
/// the abstractions these modules export (`cargo xtask lint` rule
/// `atomic-ordering`).
pub const CONCURRENCY_MODULES: &[&str] = &[
    "crates/analysis/src/executor.rs",
    "crates/analysis/src/sync.rs",
    "crates/obs/src/counter.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/sync.rs",
    "crates/serve/src/server.rs",
];

/// Concurrency modules that are pure tallies: `Ordering::Relaxed` needs no
/// per-site justification there (a torn or stale count is harmless by
/// construction). Everywhere else a `Relaxed` literal must carry an
/// `// ORDERING:` comment.
pub const COUNTER_MODULES: &[&str] = &["crates/obs/src/counter.rs"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (stable; used as the allowlist key).
    pub rule: &'static str,
    /// Path relative to the workspace root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A loaded source file, pre-masked.
struct SourceFile {
    rel: String,
    raw: String,
    analysis: lexer::MaskedSource,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn load_sources(root: &Path, crates: &[&str]) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for krate in crates {
        let src_dir = root.join("crates").join(krate).join("src");
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths);
        for p in paths {
            let Ok(raw) = std::fs::read_to_string(&p) else {
                continue;
            };
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let analysis = lexer::analyze(&raw);
            files.push(SourceFile { rel, raw, analysis });
        }
    }
    files
}

/// Run every rule over the workspace rooted at `root`.
pub fn run_all(root: &Path) -> Vec<Violation> {
    let mut v = Vec::new();
    let lib_sources = load_sources(root, LIB_CRATES);
    no_panics(&lib_sources, &mut v);
    no_raw_time_compare(&lib_sources, &mut v);
    unsafe_audit(&lib_sources, &mut v);
    atomic_ordering(&lib_sources, &mut v);
    deny_missing_docs(root, &mut v);
    let cite_sources = load_sources(root, CITATION_CRATES);
    paper_citations(&cite_sources, &mut v);
    v.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    v
}

/// Rule `no-panic`: no `.unwrap()`, `.expect(` or `panic!` in lib code.
fn no_panics(files: &[SourceFile], out: &mut Vec<Violation>) {
    const NEEDLES: &[(&str, &str)] = &[
        (
            ".unwrap()",
            "`.unwrap()` in library code — return a typed error",
        ),
        (
            ".expect(",
            "`.expect(…)` in library code — return a typed error",
        ),
        ("panic!", "`panic!` in library code — return a typed error"),
    ];
    for f in files {
        for (lineno, line) in f.analysis.masked.lines().enumerate() {
            if *f.analysis.in_test.get(lineno).unwrap_or(&false) {
                continue;
            }
            for (needle, msg) in NEEDLES {
                if line.contains(needle) {
                    out.push(Violation {
                        rule: "no-panic",
                        file: f.rel.clone(),
                        line: lineno + 1,
                        message: (*msg).to_string(),
                    });
                }
            }
        }
    }
}

/// Rule `time-cmp`: no raw f64 comparisons on `Time` values outside
/// `crates/temporal/src/time.rs`.
///
/// Heuristic: a (rustfmt-formatted) line that calls `.as_secs()` and also
/// contains a space-delimited comparison operator is comparing unwrapped
/// seconds; `Time` is `Ord`, so the comparison belongs on `Time` itself
/// where the total-order contract lives.
fn no_raw_time_compare(files: &[SourceFile], out: &mut Vec<Violation>) {
    const OPS: &[&str] = &[" < ", " > ", " <= ", " >= ", " == ", " != "];
    for f in files {
        if f.rel == "crates/temporal/src/time.rs" {
            continue;
        }
        for (lineno, line) in f.analysis.masked.lines().enumerate() {
            if *f.analysis.in_test.get(lineno).unwrap_or(&false) {
                continue;
            }
            if line.contains(".as_secs()") && OPS.iter().any(|op| line.contains(op)) {
                out.push(Violation {
                    rule: "time-cmp",
                    file: f.rel.clone(),
                    line: lineno + 1,
                    message: "raw f64 comparison on `Time` seconds — compare `Time` values \
                              directly (it is `Ord`)"
                        .to_string(),
                });
            }
        }
    }
}

/// `true` when `line` uses `unsafe` as a keyword (word-boundary match, so
/// `unsafe_code` inside lint attributes does not count).
fn keyword_unsafe(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("unsafe") {
        let i = start + pos;
        let end = i + "unsafe".len();
        let boundary = |b: u8| -> bool { !(b.is_ascii_alphanumeric() || b == b'_') };
        let before_ok = i == 0 || boundary(bytes[i - 1]);
        let after_ok = end >= bytes.len() || boundary(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

/// `true` when the contiguous block of comment/attribute lines directly
/// above `lineno` contains one of `needles` (in the raw, unmasked text —
/// justifications live in comments, which masking blanks).
fn justified_above(raw_lines: &[&str], lineno: usize, needles: &[&str]) -> bool {
    let mut j = lineno;
    while j > 0 {
        j -= 1;
        let above = raw_lines[j].trim_start();
        if above.starts_with("//") {
            if needles.iter().any(|n| above.contains(n)) {
                return true;
            }
        } else if above.starts_with("#[") || above.starts_with("#!") || above.ends_with(']') {
            // attribute (possibly the tail of a multi-line one)
            continue;
        } else {
            return false;
        }
    }
    false
}

/// Rule `unsafe-audit`: every `unsafe` keyword in library code (block,
/// fn, impl, or fn-pointer type) must be immediately preceded by a
/// `// SAFETY:` comment (or a `# Safety` doc section) stating the proof
/// obligation, on the same line or in the contiguous comment/attribute
/// block directly above.
fn unsafe_audit(files: &[SourceFile], out: &mut Vec<Violation>) {
    const JUSTIFICATIONS: &[&str] = &["SAFETY:", "# Safety"];
    for f in files {
        let raw_lines: Vec<&str> = f.raw.lines().collect();
        for (lineno, line) in f.analysis.masked.lines().enumerate() {
            if *f.analysis.in_test.get(lineno).unwrap_or(&false) {
                continue;
            }
            if !keyword_unsafe(line) {
                continue;
            }
            let same_line = raw_lines
                .get(lineno)
                .is_some_and(|r| JUSTIFICATIONS.iter().any(|n| r.contains(n)));
            if same_line || justified_above(&raw_lines, lineno, JUSTIFICATIONS) {
                continue;
            }
            out.push(Violation {
                rule: "unsafe-audit",
                file: f.rel.clone(),
                line: lineno + 1,
                message: "`unsafe` without an immediately preceding `// SAFETY:` \
                          justification"
                    .to_string(),
            });
        }
    }
}

/// Rule `atomic-ordering`: atomic `Ordering::` literals may only appear in
/// the registered [`CONCURRENCY_MODULES`]; `Ordering::Relaxed` outside the
/// pure-tally [`COUNTER_MODULES`] additionally needs an `// ORDERING:`
/// comment justifying why no synchronization is required.
///
/// Matches only the five atomic variants, so `std::cmp::Ordering`
/// (`Less`/`Equal`/`Greater`) is unaffected.
fn atomic_ordering(files: &[SourceFile], out: &mut Vec<Violation>) {
    const VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    for f in files {
        let registered = CONCURRENCY_MODULES.contains(&f.rel.as_str());
        let counter_module = COUNTER_MODULES.contains(&f.rel.as_str());
        let raw_lines: Vec<&str> = f.raw.lines().collect();
        for (lineno, line) in f.analysis.masked.lines().enumerate() {
            if *f.analysis.in_test.get(lineno).unwrap_or(&false) {
                continue;
            }
            let mut hit = None;
            let mut relaxed = false;
            for v in VARIANTS {
                if line.contains(&format!("Ordering::{v}")) {
                    hit = Some(*v);
                    relaxed |= *v == "Relaxed";
                }
            }
            let Some(variant) = hit else {
                continue;
            };
            if !registered {
                out.push(Violation {
                    rule: "atomic-ordering",
                    file: f.rel.clone(),
                    line: lineno + 1,
                    message: format!(
                        "atomic `Ordering::{variant}` outside a registered concurrency \
                         module — use the abstractions those modules export, or register \
                         the file in `CONCURRENCY_MODULES`"
                    ),
                });
                continue;
            }
            if relaxed && !counter_module {
                let same_line = raw_lines
                    .get(lineno)
                    .is_some_and(|r| r.contains("ORDERING:"));
                if !(same_line || justified_above(&raw_lines, lineno, &["ORDERING:"])) {
                    out.push(Violation {
                        rule: "atomic-ordering",
                        file: f.rel.clone(),
                        line: lineno + 1,
                        message: "`Ordering::Relaxed` outside counter code without an \
                                  `// ORDERING:` justification"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Rule `deny-docs`: every library crate root must carry
/// `#![deny(missing_docs)]`.
fn deny_missing_docs(root: &Path, out: &mut Vec<Violation>) {
    for krate in LIB_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        let path = root.join(&rel);
        let ok = std::fs::read_to_string(&path)
            .map(|s| s.contains("#![deny(missing_docs)]"))
            .unwrap_or(false);
        if !ok {
            out.push(Violation {
                rule: "deny-docs",
                file: rel,
                line: 1,
                message: "library root must declare `#![deny(missing_docs)]`".to_string(),
            });
        }
    }
}

/// Rule `paper-cite`: top-level public items in `omnet-core` and
/// `omnet-temporal` must cite the paper section (`§`) they implement in
/// their doc comment.
///
/// Only column-0 items are checked (methods inherit context from their
/// type's citation). `pub use` re-exports and `pub mod` declarations are
/// exempt — the cited docs live on the item or in the module.
fn paper_citations(files: &[SourceFile], out: &mut Vec<Violation>) {
    const ITEM_STARTS: &[&str] = &[
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub const ",
        "pub static ",
    ];
    for f in files {
        let raw_lines: Vec<&str> = f.raw.lines().collect();
        for (lineno, line) in raw_lines.iter().enumerate() {
            if *f.analysis.in_test.get(lineno).unwrap_or(&false) {
                continue;
            }
            if !ITEM_STARTS.iter().any(|s| line.starts_with(s)) {
                continue;
            }
            // Walk the contiguous block of doc comments / attributes / derive
            // lines directly above the item and look for a `§` citation.
            let mut cited = false;
            let mut j = lineno;
            while j > 0 {
                j -= 1;
                let above = raw_lines[j].trim_start();
                if above.starts_with("///") {
                    if above.contains('§') {
                        cited = true;
                        break;
                    }
                } else if above.starts_with("#[") || above.starts_with("#!") || above.ends_with(']')
                {
                    continue; // attribute (possibly the tail of a multi-line one)
                } else {
                    break;
                }
            }
            if !cited {
                out.push(Violation {
                    rule: "paper-cite",
                    file: f.rel.clone(),
                    line: lineno + 1,
                    message: format!(
                        "public item `{}` lacks a paper-section citation (`§…`) in its docs",
                        line.split('(')
                            .next()
                            .unwrap_or(line)
                            .split('{')
                            .next()
                            .unwrap_or(line)
                            .trim()
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// A scratch workspace layout under the target dir.
    fn scratch(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/xtask-fixtures")
            .join(name);
        let _ = fs::remove_dir_all(&root);
        for (rel, contents) in files {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().expect("fixture path has a parent"))
                .expect("create fixture dir");
            fs::write(&p, contents).expect("write fixture");
        }
        root
    }

    #[test]
    fn planted_unwrap_in_core_is_caught() {
        let root = scratch(
            "planted-unwrap",
            &[(
                "crates/core/src/lib.rs",
                "#![deny(missing_docs)]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            )],
        );
        let v = run_all(&root);
        assert!(
            v.iter()
                .any(|v| v.rule == "no-panic" && v.file == "crates/core/src/lib.rs" && v.line == 2),
            "planted unwrap not caught: {v:?}"
        );
    }

    #[test]
    fn new_hot_path_modules_are_in_scope() {
        // The PR-8 hot-path modules (the CSR table in temporal, the
        // hierarchical generator in mobility) must be linted automatically:
        // LIB_CRATES scans whole src/ trees, so a planted panic in either
        // file has to surface without any rules.rs change.
        let root = scratch(
            "hot-path-scope",
            &[
                (
                    "crates/temporal/src/csr.rs",
                    "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
                ),
                (
                    "crates/mobility/src/hierarchy.rs",
                    "fn g() { panic!(\"boom\") }\n",
                ),
            ],
        );
        let v = run_all(&root);
        for file in [
            "crates/temporal/src/csr.rs",
            "crates/mobility/src/hierarchy.rs",
        ] {
            assert!(
                v.iter().any(|v| v.rule == "no-panic" && v.file == file),
                "planted panic in {file} not caught: {v:?}"
            );
        }
    }

    #[test]
    fn unwrap_in_tests_is_exempt() {
        let root = scratch(
            "test-exempt",
            &[(
                "crates/core/src/lib.rs",
                "#![deny(missing_docs)]\n#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
            )],
        );
        let v = run_all(&root);
        assert!(
            !v.iter().any(|v| v.rule == "no-panic"),
            "test-module unwrap must be exempt: {v:?}"
        );
    }

    #[test]
    fn unwrap_inside_string_is_not_a_violation() {
        let root = scratch(
            "string-exempt",
            &[(
                "crates/core/src/lib.rs",
                "#![deny(missing_docs)]\nfn f() -> &'static str { \".unwrap() panic!\" }\n",
            )],
        );
        let v = run_all(&root);
        assert!(!v.iter().any(|v| v.rule == "no-panic"), "{v:?}");
    }

    #[test]
    fn raw_time_comparison_is_caught_outside_time_rs() {
        let src = "#![deny(missing_docs)]\nfn f(a: Time, b: Time) -> bool { a.as_secs() < b.as_secs() }\n";
        let root = scratch(
            "time-cmp",
            &[
                ("crates/core/src/lib.rs", src),
                ("crates/temporal/src/lib.rs", "#![deny(missing_docs)]\n"),
                ("crates/temporal/src/time.rs", src),
            ],
        );
        let v = run_all(&root);
        assert!(
            v.iter()
                .any(|v| v.rule == "time-cmp" && v.file == "crates/core/src/lib.rs"),
            "{v:?}"
        );
        assert!(
            !v.iter().any(|v| v.file == "crates/temporal/src/time.rs"),
            "time.rs itself is the one place raw comparison is allowed: {v:?}"
        );
    }

    #[test]
    fn planted_unjustified_unsafe_is_caught() {
        let root = scratch(
            "unsafe-audit-planted",
            &[(
                "crates/analysis/src/lib.rs",
                "#![deny(missing_docs)]\n#![allow(unsafe_code)]\nfn f(p: *const u32) -> u32 { unsafe { *p } }\n",
            )],
        );
        let v = run_all(&root);
        assert!(
            v.iter().any(|v| v.rule == "unsafe-audit"
                && v.file == "crates/analysis/src/lib.rs"
                && v.line == 3),
            "planted unjustified unsafe not caught: {v:?}"
        );
        assert!(
            !v.iter().any(|v| v.rule == "unsafe-audit" && v.line == 2),
            "`#![allow(unsafe_code)]` is not a keyword use: {v:?}"
        );
    }

    #[test]
    fn justified_unsafe_passes() {
        let root = scratch(
            "unsafe-audit-justified",
            &[(
                "crates/analysis/src/lib.rs",
                concat!(
                    "#![deny(missing_docs)]\n",
                    "// SAFETY: callers guarantee `p` is valid for reads.\n",
                    "#[inline]\n",
                    "fn f(p: *const u32) -> u32 { unsafe { *p } }\n",
                    "/// Reads a raw pointer.\n",
                    "///\n",
                    "/// # Safety\n",
                    "/// `p` must be valid for reads.\n",
                    "unsafe fn g(p: *const u32) -> u32 { *p }\n",
                    "fn h(p: *const u32) -> u32 { unsafe { *p } } // SAFETY: p checked above\n",
                ),
            )],
        );
        let v = run_all(&root);
        assert!(
            !v.iter().any(|v| v.rule == "unsafe-audit"),
            "justified unsafe (comment above, doc section, same line) must pass: {v:?}"
        );
    }

    #[test]
    fn unsafe_in_tests_or_strings_is_exempt() {
        let root = scratch(
            "unsafe-audit-exempt",
            &[(
                "crates/analysis/src/lib.rs",
                concat!(
                    "#![deny(missing_docs)]\n",
                    "fn f() -> &'static str { \"unsafe { }\" }\n",
                    "#[cfg(test)]\n",
                    "mod tests {\n",
                    "    fn g(p: *const u32) -> u32 { unsafe { *p } }\n",
                    "}\n",
                ),
            )],
        );
        let v = run_all(&root);
        assert!(
            !v.iter().any(|v| v.rule == "unsafe-audit"),
            "string-masked and test-module unsafe must be exempt: {v:?}"
        );
    }

    #[test]
    fn ordering_outside_concurrency_modules_is_caught() {
        let src =
            "#![deny(missing_docs)]\nfn f(a: &AtomicU32) -> u32 { a.load(Ordering::SeqCst) }\n";
        let root = scratch(
            "atomic-ordering-planted",
            &[
                ("crates/core/src/lib.rs", src),
                ("crates/obs/src/lib.rs", "#![deny(missing_docs)]\n"),
                ("crates/obs/src/counter.rs", src),
            ],
        );
        let v = run_all(&root);
        assert!(
            v.iter().any(|v| v.rule == "atomic-ordering"
                && v.file == "crates/core/src/lib.rs"
                && v.line == 2),
            "planted ordering literal not caught: {v:?}"
        );
        assert!(
            !v.iter()
                .any(|v| v.rule == "atomic-ordering" && v.file == "crates/obs/src/counter.rs"),
            "registered concurrency modules may use orderings: {v:?}"
        );
    }

    #[test]
    fn relaxed_outside_counter_code_needs_an_ordering_comment() {
        let root = scratch(
            "atomic-ordering-relaxed",
            &[
                (
                    "crates/analysis/src/executor.rs",
                    concat!(
                        "fn bare(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n",
                        "// ORDERING: pure tally, readers join first.\n",
                        "fn justified(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n",
                        "fn strong(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n",
                    ),
                ),
                (
                    "crates/obs/src/counter.rs",
                    "fn tally(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n",
                ),
                ("crates/analysis/src/lib.rs", "#![deny(missing_docs)]\n"),
                ("crates/obs/src/lib.rs", "#![deny(missing_docs)]\n"),
            ],
        );
        let v = run_all(&root);
        assert!(
            v.iter().any(|v| v.rule == "atomic-ordering"
                && v.file == "crates/analysis/src/executor.rs"
                && v.line == 1),
            "bare Relaxed outside counter code not caught: {v:?}"
        );
        assert_eq!(
            v.iter().filter(|v| v.rule == "atomic-ordering").count(),
            1,
            "justified Relaxed, non-Relaxed orderings and counter-module \
             Relaxed must all pass: {v:?}"
        );
    }

    #[test]
    fn ordering_in_strings_and_cmp_ordering_are_exempt() {
        let root = scratch(
            "atomic-ordering-exempt",
            &[(
                "crates/core/src/lib.rs",
                concat!(
                    "#![deny(missing_docs)]\n",
                    "fn f() -> &'static str { \"Ordering::SeqCst\" }\n",
                    "fn g(a: u32, b: u32) -> Ordering { a.cmp(&b) }\n",
                    "fn h() -> Ordering { Ordering::Less }\n",
                ),
            )],
        );
        let v = run_all(&root);
        assert!(
            !v.iter().any(|v| v.rule == "atomic-ordering"),
            "string-masked and `cmp::Ordering` uses must be exempt: {v:?}"
        );
    }

    #[test]
    fn missing_deny_docs_is_caught() {
        let root = scratch(
            "deny-docs",
            &[("crates/temporal/src/lib.rs", "#![warn(missing_docs)]\n")],
        );
        let v = run_all(&root);
        assert!(
            v.iter()
                .any(|v| v.rule == "deny-docs" && v.file == "crates/temporal/src/lib.rs"),
            "{v:?}"
        );
    }

    #[test]
    fn uncited_public_item_is_caught_and_cited_is_not() {
        let root = scratch(
            "paper-cite",
            &[(
                "crates/core/src/lib.rs",
                "#![deny(missing_docs)]\n/// Computes the delivery frontier (§4.3).\npub fn cited() {}\n\n/// No citation here.\npub fn uncited() {}\n",
            )],
        );
        let v = run_all(&root);
        assert!(
            v.iter().any(|v| v.rule == "paper-cite" && v.line == 6),
            "{v:?}"
        );
        assert!(
            !v.iter().any(|v| v.rule == "paper-cite" && v.line == 3),
            "cited item must pass: {v:?}"
        );
    }
}
