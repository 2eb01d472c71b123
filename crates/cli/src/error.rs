//! Typed errors for the `omnet` tool.
//!
//! Every fallible layer of the CLI reports through [`CliError`], whose
//! variants map onto four distinct process exit codes (see
//! [`CliError::exit_code`]), so scripts driving `omnet` can distinguish "you
//! called me wrong" from "your file is unreadable" from "the computation
//! rejected the request" without scraping stderr.

use omnet_temporal::io::IoError;
use std::fmt;
use std::path::{Path, PathBuf};

/// An error surfaced by argument parsing or a subcommand.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The argv shape is wrong: unknown subcommand, wrong positional count,
    /// a flag missing its value, or mutually exclusive flags combined.
    /// Printed together with the usage text; exit code 2.
    Usage(String),
    /// A well-shaped argv whose arguments the command refuses together:
    /// both or neither of `--stdin` and an inline query, `--trace` with
    /// `--remote`, a dataset bound twice. Exit code 2, like
    /// [`CliError::Usage`], but without the usage text.
    Conflict(String),
    /// An individual argument value failed to parse (non-numeric id, bad
    /// `--hops` list, malformed routing spec). Exit code 3.
    Parse(String),
    /// The command's inputs parsed but the domain logic rejected them:
    /// out-of-range ε, node ids beyond the trace, divergent invariants,
    /// refusal to run an exponential oracle. Exit code 4.
    Domain(String),
    /// Reading or writing a trace failed. Exit code 5.
    Io {
        /// What the CLI was doing (e.g. "cannot read trace").
        context: String,
        /// The file involved.
        path: PathBuf,
        /// The underlying trace-I/O failure.
        source: IoError,
    },
}

impl CliError {
    /// Shorthand for [`CliError::Usage`].
    pub fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    /// Shorthand for [`CliError::Conflict`].
    pub fn conflict(msg: impl Into<String>) -> CliError {
        CliError::Conflict(msg.into())
    }

    /// Shorthand for [`CliError::Parse`].
    pub fn parse(msg: impl Into<String>) -> CliError {
        CliError::Parse(msg.into())
    }

    /// Shorthand for [`CliError::Domain`].
    pub fn domain(msg: impl Into<String>) -> CliError {
        CliError::Domain(msg.into())
    }

    /// Shorthand for [`CliError::Io`].
    pub fn io(context: impl Into<String>, path: &Path, source: IoError) -> CliError {
        CliError::Io {
            context: context.into(),
            path: path.to_path_buf(),
            source,
        }
    }

    /// The process exit code this error maps to: usage and conflict 2,
    /// parse 3, domain 4, i/o 5 (0 is success, 1 is reserved for
    /// panics/aborts).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Conflict(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Domain(_) => 4,
            CliError::Io { .. } => 5,
        }
    }

    /// True for errors that should be followed by the usage text.
    pub fn print_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Conflict(m)
            | CliError::Parse(m)
            | CliError::Domain(m) => f.write_str(m),
            CliError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct() {
        let errors = [
            CliError::usage("u"),
            CliError::parse("p"),
            CliError::domain("d"),
            CliError::io(
                "cannot read trace",
                Path::new("/nope"),
                IoError::Syntax {
                    line: 1,
                    message: "bad".into(),
                },
            ),
        ];
        let mut codes: Vec<i32> = errors.iter().map(CliError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len());
        assert!(!codes.contains(&0) && !codes.contains(&1));
    }

    #[test]
    fn display_includes_context_and_path() {
        let e = CliError::io(
            "cannot read trace",
            Path::new("/tmp/x.trace"),
            IoError::Syntax {
                line: 3,
                message: "bad row".into(),
            },
        );
        let text = e.to_string();
        assert!(text.contains("cannot read trace"));
        assert!(text.contains("/tmp/x.trace"));
        assert!(text.contains("line 3"));
    }

    #[test]
    fn io_errors_chain_their_source() {
        use std::error::Error as _;
        let e = CliError::io(
            "cannot write trace",
            Path::new("out"),
            IoError::Io(std::io::Error::other("disk full")),
        );
        assert!(e.source().is_some());
        assert!(CliError::usage("u").source().is_none());
    }

    #[test]
    fn only_usage_errors_reprint_usage() {
        assert!(CliError::usage("u").print_usage());
        assert!(!CliError::conflict("c").print_usage());
        assert_eq!(CliError::conflict("c").exit_code(), 2);
        assert!(!CliError::parse("p").print_usage());
        assert!(!CliError::domain("d").print_usage());
    }
}
