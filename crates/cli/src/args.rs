//! Hand-rolled argument parsing (the tool has no dependency budget for a
//! full CLI framework, and the grammar is tiny).
//!
//! Each subcommand's grammar is one [`SUBCOMMANDS`] entry: its name, the
//! usage line its shape errors quote, its positional arity, its flags and
//! the function that runs it. [`run`] looks the entry up, splits the flags
//! and checks the arity; the command then reads its own values through the
//! typed [`Args`] accessors, all of them before its first file-system call.
//!
//! Shape errors (wrong positional count, missing flag values, unknown
//! subcommands or flags) surface as [`CliError::Usage`]; malformed values
//! surface as [`CliError::Parse`] — so the two get distinct exit codes in
//! `main`.

use crate::commands as cmd;
use crate::error::CliError;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;

/// One subcommand: its grammar and the function that runs it.
pub struct Subcommand {
    /// The word after `omnet`.
    pub name: &'static str,
    /// The shape quoted by its `expected: omnet …` usage error.
    pub usage: &'static str,
    /// How many positional arguments it takes.
    pub arity: RangeInclusive<usize>,
    /// Flags that take a value.
    pub valued: &'static [&'static str],
    /// Flags that stand alone.
    pub switches: &'static [&'static str],
    /// Reads its arguments and renders its output.
    pub run: fn(&Args<'_>) -> Result<String, CliError>,
}

/// Every subcommand of `omnet`, in `USAGE` order.
pub static SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "stats",
        usage: "stats <trace>",
        arity: 1..=1,
        valued: &[],
        switches: &[],
        run: cmd::stats,
    },
    Subcommand {
        name: "convert",
        usage: "convert <input> <output>",
        arity: 2..=2,
        valued: &[],
        switches: &[],
        run: cmd::convert,
    },
    Subcommand {
        name: "generate",
        usage: "generate <dataset> <output>",
        arity: 2..=2,
        valued: &["--days", "--seed"],
        switches: &[],
        run: cmd::generate,
    },
    Subcommand {
        name: "diameter",
        usage: "diameter <trace>",
        arity: 1..=1,
        valued: &["--eps", "--max-hops"],
        switches: &["--internal-only"],
        run: cmd::diameter,
    },
    Subcommand {
        name: "cdf",
        usage: "cdf <trace>",
        arity: 1..=1,
        valued: &["--hops", "--points"],
        switches: &["--internal-only"],
        run: cmd::cdf,
    },
    Subcommand {
        name: "path",
        usage: "path <trace> <src> <dst> <start-secs>",
        arity: 4..=4,
        valued: &[],
        switches: &[],
        run: cmd::path,
    },
    Subcommand {
        name: "prune",
        usage: "prune <trace> <output>",
        arity: 2..=2,
        valued: &["--keep", "--min-duration", "--seed"],
        switches: &[],
        run: cmd::prune,
    },
    Subcommand {
        name: "flood",
        usage: "flood <trace> <src> <start-secs>",
        arity: 3..=3,
        valued: &["--ttl"],
        switches: &[],
        run: cmd::flood_cmd,
    },
    Subcommand {
        name: "journeys",
        usage: "journeys <trace> <src> <dst>",
        arity: 3..=3,
        valued: &[],
        switches: &[],
        run: cmd::journeys,
    },
    Subcommand {
        name: "simulate",
        usage: "simulate <trace>",
        arity: 1..=1,
        valued: &[
            "--messages",
            "--routing",
            "--buffer",
            "--ttl-hops",
            "--seed",
        ],
        switches: &[],
        run: cmd::simulate_cmd,
    },
    Subcommand {
        name: "components",
        usage: "components <trace> <t-secs>",
        arity: 2..=2,
        valued: &[],
        switches: &[],
        run: cmd::components,
    },
    Subcommand {
        name: "check",
        usage: "check <trace> [--oracle] [--starts N]",
        arity: 1..=1,
        valued: &["--starts"],
        switches: &["--oracle"],
        run: cmd::check,
    },
    Subcommand {
        name: "delivery",
        usage: "delivery <trace> <src> <dst> <at-secs> [--hops K]",
        arity: 4..=4,
        valued: &["--hops"],
        switches: &[],
        run: cmd::delivery,
    },
    Subcommand {
        name: "precompute",
        usage: "precompute <trace> <outdir> [--shards N] [--store-levels K] \
                [--max-levels K] [--dataset-key S]",
        arity: 2..=2,
        valued: &[
            "--shards",
            "--store-levels",
            "--max-levels",
            "--dataset-key",
        ],
        switches: &[],
        run: cmd::precompute,
    },
    Subcommand {
        name: "query",
        usage: "query <artifacts> (<query...> | --stdin) [--trace FILE]",
        arity: 1..=usize::MAX,
        valued: &["--trace", "--remote"],
        switches: &["--stdin"],
        run: cmd::query,
    },
    Subcommand {
        name: "serve",
        usage: "serve <addr> <name>=<artifacts>... [--trace NAME=FILE]...",
        arity: 1..=usize::MAX,
        valued: &["--trace"],
        switches: &[],
        run: cmd::serve,
    },
];

/// Runs an argv slice (without the program name): `Ok(None)` asks for the
/// usage text (empty argv, `--help`, `-h` or `help`), `Ok(Some(text))` is
/// the command's output.
pub fn run(argv: &[String]) -> Result<Option<String>, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Ok(None);
    };
    if matches!(sub.as_str(), "--help" | "-h" | "help") {
        return Ok(None);
    }
    let entry = SUBCOMMANDS
        .iter()
        .find(|s| s.name == sub)
        .ok_or_else(|| CliError::usage(format!("unknown subcommand '{sub}'")))?;
    let args = split_flags(rest, entry.valued, entry.switches)?;
    if !entry.arity.contains(&args.pos.len()) {
        return Err(CliError::usage(format!("expected: omnet {}", entry.usage)));
    }
    (entry.run)(&args).map(Some)
}

/// One subcommand's arguments: positionals and `(--flag, value)` pairs in
/// argv order. Positional indices below the entry's minimum arity are
/// always present.
pub struct Args<'a> {
    pos: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// A seconds (or days) value: any `f64` but NaN, which `Time::secs` and
/// `Dur::secs` refuse with a panic. The one parser of times and durations.
pub struct Secs(pub f64);

impl FromStr for Secs {
    type Err = ();

    fn from_str(s: &str) -> Result<Secs, ()> {
        match s.parse::<f64>() {
            Ok(v) if !v.is_nan() => Ok(Secs(v)),
            _ => Err(()),
        }
    }
}

impl<'a> Args<'a> {
    /// Positional `i`, verbatim.
    pub fn arg(&self, i: usize) -> &'a str {
        self.pos[i]
    }

    /// Positional `i` as a path.
    pub fn path(&self, i: usize) -> PathBuf {
        self.pos[i].into()
    }

    /// The positionals from `i` on.
    pub fn rest(&self, i: usize) -> &[&'a str] {
        &self.pos[i..]
    }

    /// Positional `i` parsed as `T`; `msg` is the parse error.
    pub fn pos<T: FromStr>(&self, i: usize, msg: &str) -> Result<T, CliError> {
        self.pos[i].parse().map_err(|_| CliError::parse(msg))
    }

    /// Positional `i` as seconds (never NaN); `msg` is the parse error.
    pub fn secs(&self, i: usize, msg: &str) -> Result<f64, CliError> {
        self.pos::<Secs>(i, msg).map(|s| s.0)
    }

    /// The first value of flag `name`, parsed as `T`.
    pub fn flag<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.all(name).next() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::parse(format!("invalid value for {name}: '{v}'"))),
        }
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| *k == name)
    }

    /// Every value of a repeatable flag, in argv order.
    pub fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(k, _)| *k == name)
            .filter_map(|(_, v)| *v)
    }
}

/// Splits `rest` into positional arguments and `--flag [value]` pairs,
/// rejecting any flag that is neither in `valued` (takes a value) nor in
/// `switches` (stands alone).
fn split_flags<'a>(
    rest: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Args<'a>, CliError> {
    let mut args = Args {
        pos: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = rest.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            args.pos.push(a);
        } else if valued.contains(&a) {
            let v = it
                .next()
                .ok_or_else(|| CliError::usage(format!("flag {a} needs a value")))?;
            args.flags.push((a, Some(v)));
        } else if switches.contains(&a) {
            args.flags.push((a, None));
        } else {
            return Err(CliError::usage(format!("unknown flag {a}")));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_empty() {
        for a in ["", "--help", "-h", "help"] {
            assert!(matches!(run(&argv(a)), Ok(None)), "{a:?}");
        }
    }

    #[test]
    fn table_names_are_unique_and_in_usage() {
        for (i, s) in SUBCOMMANDS.iter().enumerate() {
            assert!(
                SUBCOMMANDS[..i].iter().all(|t| t.name != s.name),
                "{}",
                s.name
            );
            assert!(
                crate::USAGE.contains(&format!("omnet {} ", s.name)),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn flags_split_from_positionals() {
        let rest = argv("t.trace 3 --hops 2 17 --x --hops 4");
        let a = split_flags(&rest, &["--hops"], &["--x"]).unwrap();
        assert_eq!(a.rest(0), ["t.trace", "3", "17"]);
        assert_eq!(a.flag::<usize>("--hops").unwrap(), Some(2));
        assert_eq!(a.all("--hops").collect::<Vec<_>>(), ["2", "4"]);
        assert!(a.switch("--x") && !a.switch("--y"));
        assert_eq!(a.flag::<usize>("--y").unwrap(), None);
    }

    #[test]
    fn secs_refuses_only_nan() {
        for ok in ["0", "-1", "1e3", "inf", "-inf"] {
            assert!(ok.parse::<Secs>().is_ok(), "{ok}");
        }
        for bad in ["nan", "NaN", "x", ""] {
            assert!(bad.parse::<Secs>().is_err(), "{bad}");
        }
    }

    #[test]
    fn nan_times_are_parse_errors() {
        for a in [
            "path t.trace 0 1 nan",
            "delivery t.trace 0 1 nan",
            "flood t.trace 0 nan",
            "components t.trace nan",
            "prune t.trace o --min-duration nan",
            "generate infocom05 o --days nan",
        ] {
            let err = run(&argv(a)).unwrap_err();
            assert!(matches!(err, CliError::Parse(_)), "{a}: {err}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        let msg = |a: &str| run(&argv(a)).unwrap_err().to_string();
        assert!(msg("bogus").contains("unknown subcommand"));
        assert!(msg("stats").contains("stats <trace>"));
        assert!(msg("cdf t --hops a,b").contains("--hops"));
        assert!(msg("diameter t --eps").contains("needs a value"));
        assert!(msg("generate infocom05 o --days 4").contains("(0, 3]"));
    }

    #[test]
    fn errors_are_classified() {
        let code = |a: &str| run(&argv(a)).unwrap_err().exit_code();
        // Shape problems are usage errors (2), checked before any value and
        // before the missing trace file is opened …
        for a in [
            "bogus",
            "stats",
            "query",
            "serve",
            "serve 127.0.0.1:0",
            "serve 127.0.0.1:0 reality",
            "serve 127.0.0.1:0 =shards",
            "serve 127.0.0.1:0 reality=",
            "serve 127.0.0.1:0 r=shards --trace t.trace",
            "serve 127.0.0.1:0 r=shards --trace t=",
            "diameter t --eps",
            "prune a b",
            "prune a b --keep 0.1 --min-duration 60",
            // a misspelt flag is refused, not silently ignored …
            "diameter t.trace --max-hop 3",
            // … as is a flag the subcommand does not take
            "stats t.trace --oracle",
        ] {
            assert_eq!(code(a), 2, "{a}");
        }
        assert!(run(&argv("diameter t.trace --max-hop 3"))
            .unwrap_err()
            .to_string()
            .contains("--max-hop"));
        // … malformed values are parse errors (3), also on a missing file …
        for a in [
            "cdf t --hops a,b",
            "path t x 1 0",
            "diameter t --eps nope",
            "flood t 0 nan",
            "components t nan",
            "prune t o --min-duration nan",
            "generate infocom05 o --days nan",
        ] {
            assert_eq!(code(a), 3, "{a}");
        }
        // … and `--days` outside the data set's span is a domain error (4).
        for days in ["0", "-1", "inf", "100", "3.0001"] {
            let a = format!("generate infocom05 o --days {days}");
            assert_eq!(code(&a), 4, "{a}");
        }
        // Counts that would size an allocation are capped (4) before the
        // (here missing) trace file is opened.
        for a in [
            "cdf t --points 1000000000000",
            "check t --starts 100000000000",
        ] {
            assert_eq!(code(a), 4, "{a}");
        }
    }
}
