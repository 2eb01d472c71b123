//! Plain-text trace serialization.
//!
//! The on-disk format is the one commonly used for Haggle-style contact
//! traces: a few `# key value` header lines followed by one contact per
//! line, `<node_a> <node_b> <start_secs> <end_secs>`, whitespace separated.
//!
//! ```text
//! # nodes 41
//! # internal 41
//! # window 0 259200
//! 0 1 120 360
//! 3 17 240 240
//! ```
//!
//! Headers are optional: without them the universe and window are inferred
//! from the contacts, exactly as [`crate::trace::TraceBuilder`] would.
//! Either way the universe may not exceed [`MAX_NODES`].

use crate::contact::{Contact, Interval};
use crate::trace::{BuildError, Trace, TraceBuilder};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// The largest node universe a trace file (§2 contact-trace format) may
/// declare (`# nodes`) or imply (its largest node id plus one) — ten times
/// the largest preset. Every consumer allocates per node, so the reader
/// refuses a larger universe with a syntax error before anything is sized
/// by it.
pub const MAX_NODES: u32 = 1 << 20;

/// Unified error type for every trace I/O entry point (§2 dataset import).
///
/// Reading, writing and parsing all report through this one enum so callers
/// handle a single error surface; the file-level operations ([`load`],
/// [`save`]) attach the offending path.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure on a reader or writer.
    Io(std::io::Error),
    /// I/O failure on a named file.
    File {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// A malformed line, with its 1-based line number and explanation.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

/// Legacy alias for [`IoError`] (§2); the parsing entry points predate the
/// unified error type.
pub type ParseError = IoError;

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::File { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            IoError::Syntax { line, message } => {
                write!(f, "trace syntax error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::File { source, .. } => Some(source),
            IoError::Syntax { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Serializes a trace in the plain-text format (§2 dataset interchange).
pub fn to_string(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# nodes {}", trace.num_nodes());
    let _ = writeln!(out, "# internal {}", trace.num_internal());
    let _ = writeln!(
        out,
        "# window {} {}",
        trace.span().start.as_secs(),
        trace.span().end.as_secs()
    );
    for c in trace.contacts() {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            c.a,
            c.b,
            c.start().as_secs(),
            c.end().as_secs()
        );
    }
    out
}

/// Parses a trace from a reader (§2 contact-trace format).
pub fn from_reader<R: Read>(reader: R) -> Result<Trace, IoError> {
    let reader = BufReader::new(reader);
    let mut builder = TraceBuilder::new();
    let mut window: Option<Interval> = None;
    let mut nodes: Option<u32> = None;
    let mut internal: Option<(u32, usize)> = None;
    // The line of each contact, in push order: headers may follow the rows,
    // so the rows are checked against them once everything is read.
    let mut lines = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            match it.next() {
                Some("nodes") => {
                    let n = parse_field(it.next(), lineno, "node count")?;
                    if n > MAX_NODES {
                        return Err(syntax(
                            lineno,
                            &format!("node count above the {MAX_NODES}-node limit"),
                        ));
                    }
                    nodes = Some(n);
                }
                Some("internal") => {
                    internal = Some((parse_field(it.next(), lineno, "internal count")?, lineno));
                }
                Some("window") => {
                    let lo: f64 = parse_field(it.next(), lineno, "window start")?;
                    let hi: f64 = parse_field(it.next(), lineno, "window end")?;
                    if !lo.is_finite() || !hi.is_finite() {
                        return Err(syntax(lineno, "window bounds must be finite"));
                    }
                    if lo > hi {
                        return Err(syntax(lineno, "window start exceeds end"));
                    }
                    window = Some(Interval::secs(lo, hi));
                }
                _ => {} // unknown headers and comments are ignored
            }
            continue;
        }
        let fields: Vec<&str> = text.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(syntax(
                lineno,
                &format!("expected 4 fields, found {}", fields.len()),
            ));
        }
        let a: u32 = parse_field(Some(fields[0]), lineno, "node a")?;
        let b: u32 = parse_field(Some(fields[1]), lineno, "node b")?;
        let s: f64 = parse_field(Some(fields[2]), lineno, "start time")?;
        let e: f64 = parse_field(Some(fields[3]), lineno, "end time")?;
        if a == b {
            return Err(syntax(lineno, "self-contact"));
        }
        if a.max(b) >= MAX_NODES {
            return Err(syntax(
                lineno,
                &format!("node id too large for the {MAX_NODES}-node limit"),
            ));
        }
        if !s.is_finite() || !e.is_finite() || s > e {
            return Err(syntax(lineno, "invalid contact interval"));
        }
        builder.push(Contact::secs(a, b, s, e));
        lines.push(lineno);
    }
    if let Some(n) = nodes {
        builder = builder.num_nodes(n);
    }
    if let Some((i, _)) = internal {
        builder = builder.internal(i);
    }
    if let Some(w) = window {
        builder = builder.window(w);
    }
    builder.try_build().map_err(|broken| match broken {
        BuildError::NodeOutsideUniverse(i) if nodes.is_some() => {
            syntax(lines[i], "node id not below the `# nodes` count")
        }
        BuildError::NodeOutsideUniverse(i) => syntax(lines[i], "node id too large"),
        BuildError::OutsideWindow(i) => syntax(lines[i], "contact outside the `# window`"),
        BuildError::InternalExceedsNodes => syntax(
            internal.map_or(0, |(_, line)| line),
            "internal count exceeds the node count",
        ),
    })
}

/// Parses a trace from a string (§2 contact-trace format).
pub fn from_str(s: &str) -> Result<Trace, IoError> {
    from_reader(s.as_bytes())
}

/// Writes a trace to a file (§2 dataset interchange).
pub fn save(trace: &Trace, path: &Path) -> Result<(), IoError> {
    std::fs::write(path, to_string(trace)).map_err(|source| IoError::File {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads a trace from a file (§2 dataset import).
pub fn load(path: &Path) -> Result<Trace, IoError> {
    let file = std::fs::File::open(path).map_err(|source| IoError::File {
        path: path.to_path_buf(),
        source,
    })?;
    from_reader(file)
}

/// Lenient import of Haggle/CRAWDAD-style contact listings (§2 datasets).
///
/// Real published traces come as whitespace- or semicolon-separated rows
/// with *arbitrary* (often 1-based or hardware-derived) device identifiers
/// and sometimes trailing columns (`up`, `down`, sighting counters). This
/// parser accepts any row whose first four fields are
/// `<id_a> <id_b> <start> <end>`, remaps identifiers densely in order of
/// first appearance, skips malformed rows (counting them) instead of
/// failing, and merges duplicate/overlapping same-pair rows.
pub fn import_lenient<R: Read>(reader: R) -> Result<LenientImport, IoError> {
    let reader = BufReader::new(reader);
    let mut ids: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut builder = TraceBuilder::new().merge_overlaps(true);
    let mut skipped = 0usize;
    let mut accepted = 0usize;
    for line in reader.lines() {
        let line = line.map_err(IoError::Io)?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') || text.starts_with("//") {
            continue;
        }
        let fields: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || c == ';' || c == ',')
            .filter(|f| !f.is_empty())
            .collect();
        if fields.len() < 4 {
            skipped += 1;
            continue;
        }
        let (sa, sb) = (fields[0], fields[1]);
        let (Ok(start), Ok(end)) = (fields[2].parse::<f64>(), fields[3].parse::<f64>()) else {
            skipped += 1;
            continue;
        };
        if !start.is_finite() || !end.is_finite() || start > end || sa == sb {
            skipped += 1;
            continue;
        }
        let next = ids.len() as u32;
        let a = *ids.entry(sa.to_string()).or_insert(next);
        let next = ids.len() as u32;
        let b = *ids.entry(sb.to_string()).or_insert(next);
        builder.push(Contact::secs(a, b, start, end));
        accepted += 1;
    }
    Ok(LenientImport {
        trace: builder.build(),
        accepted,
        skipped,
        id_count: ids.len(),
    })
}

/// Result of [`import_lenient`] (§2 dataset import).
#[derive(Debug, Clone)]
pub struct LenientImport {
    /// The imported trace (identifiers densely remapped).
    pub trace: Trace,
    /// Rows that became contacts (before overlap merging).
    pub accepted: usize,
    /// Rows that were skipped as malformed.
    pub skipped: usize,
    /// Number of distinct device identifiers seen.
    pub id_count: usize,
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, IoError> {
    field
        .ok_or_else(|| syntax(line, &format!("missing {what}")))?
        .parse()
        .map_err(|_| syntax(line, &format!("invalid {what}")))
}

fn syntax(line: usize, message: &str) -> IoError {
    IoError::Syntax {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::time::Time;

    #[test]
    fn roundtrip() {
        let t = TraceBuilder::new()
            .num_nodes(5)
            .internal(3)
            .window(Interval::secs(0.0, 500.0))
            .contact_secs(0, 1, 10.0, 20.0)
            .contact_secs(2, 4, 30.0, 400.0)
            .build();
        let text = to_string(&t);
        let back = from_str(&text).unwrap();
        assert_eq!(back.num_nodes(), 5);
        assert_eq!(back.num_internal(), 3);
        assert_eq!(back.span(), Interval::secs(0.0, 500.0));
        assert_eq!(back.contacts(), t.contacts());
    }

    #[test]
    fn headers_optional() {
        let t = from_str("0 1 5 10\n2 1 20 30\n").unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.span(), Interval::secs(5.0, 30.0));
        assert_eq!(t.num_internal(), 3);
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let t = from_str("# a comment header\n\n0 1 0 1\n\n# trailing\n").unwrap();
        assert_eq!(t.num_contacts(), 1);
    }

    #[test]
    fn canonicalizes_endpoint_order() {
        let t = from_str("9 2 0 1\n").unwrap();
        assert_eq!(t.contacts()[0].a, NodeId(2));
        assert_eq!(t.contacts()[0].b, NodeId(9));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = from_str("0 1 0 1\nbogus line\n").unwrap_err();
        match err {
            IoError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
        let err = from_str("0 0 0 1\n").unwrap_err();
        assert!(err.to_string().contains("self-contact"));
        let err = from_str("0 1 5 1\n").unwrap_err();
        assert!(err.to_string().contains("invalid contact interval"));
        let err = from_str("0 1 abc 1\n").unwrap_err();
        assert!(err.to_string().contains("start time"));
        // Rows and headers that contradict each other, in either order.
        for (text, line, message) in [
            ("# nodes 2\n0 5 0 1\n", 2, "`# nodes` count"),
            ("0 1 0 1\n1 2 0 1\n# nodes 2\n", 2, "`# nodes` count"),
            ("0 4294967295 0 1\n", 1, "node id too large"),
            ("0 1 0 1\n1048576 2 0 1\n", 2, "node id too large"),
            ("# nodes 4000000000\n0 1 0 10\n", 1, "node count above"),
            ("0 1 0 1\n# nodes 1048577\n", 2, "node count above"),
            ("# nodes 2\n# internal 9\n", 2, "internal count exceeds"),
            ("# internal 3\n0 1 0 1\n", 1, "internal count exceeds"),
            (
                "# window 0 10\n0 1 5 10\n0 1 20 30\n",
                3,
                "outside the `# window`",
            ),
            ("0 1 -5 1\n# window 0 10\n", 1, "outside the `# window`"),
        ] {
            match from_str(text).unwrap_err() {
                IoError::Syntax {
                    line: l,
                    message: m,
                } => {
                    assert_eq!(l, line, "{text}");
                    assert!(m.contains(message), "{text}: {m}");
                }
                other => panic!("{text}: unexpected error: {other}"),
            }
        }
        let at_limit = format!("# nodes {MAX_NODES}\n0 {} 0 1\n", MAX_NODES - 1);
        assert_eq!(from_str(&at_limit).unwrap().num_nodes(), MAX_NODES);
        assert_eq!(
            from_str("# nodes 3\n# internal 3\n0 2 0 1\n")
                .unwrap()
                .num_nodes(),
            3
        );
        for header in ["# window 0 inf\n", "# window nan 1\n"] {
            let err = from_str(header).unwrap_err();
            assert!(
                err.to_string().contains("must be finite"),
                "{header}: {err}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = TraceBuilder::new().contact_secs(0, 1, 0.0, 9.0).build();
        let dir = std::env::temp_dir().join(format!("omnet-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.trace");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.contacts(), t.contacts());
        assert_eq!(back.contacts()[0].end(), Time::secs(9.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lenient_import_remaps_and_skips() {
        let raw = "\
# CRAWDAD-style listing\n\
37 101 100 220 1 0\n\
101 42 150 150\n\
bogus row\n\
37 37 0 10\n\
42;37;300;400;extra\n\
101 42 390 380\n";
        let imp = super::super::io::import_lenient(raw.as_bytes()).unwrap();
        assert_eq!(imp.accepted, 3);
        assert_eq!(imp.skipped, 3); // bogus, self-contact, inverted interval
        assert_eq!(imp.id_count, 3);
        let t = &imp.trace;
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_contacts(), 3);
        // ids remapped in first-appearance order: 37 -> 0, 101 -> 1, 42 -> 2
        assert_eq!(t.contacts()[0].a, NodeId(0));
        assert_eq!(t.contacts()[0].b, NodeId(1));
    }

    #[test]
    fn lenient_import_merges_duplicate_rows() {
        let raw = "a b 0 100\nb a 50 150\na b 200 210\n";
        let imp = super::super::io::import_lenient(raw.as_bytes()).unwrap();
        assert_eq!(imp.accepted, 3);
        assert_eq!(imp.trace.num_contacts(), 2);
        assert_eq!(imp.trace.contacts()[0].interval, Interval::secs(0.0, 150.0));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/omnet.trace")).unwrap_err();
        assert!(matches!(err, IoError::File { .. }));
    }
}
