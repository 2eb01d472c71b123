//! Implementation of the `omnet` command-line tool.
//!
//! Every subcommand is a pure function from its arguments to a rendered
//! string (plus optional trace output), so the whole tool is unit-testable
//! without spawning processes; `main.rs` is a thin argv shim. The grammar
//! is [`USAGE`] for people and [`SUBCOMMANDS`] for the parser.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;
pub mod render;

pub use args::{run, Args, Subcommand, SUBCOMMANDS};
pub use error::CliError;

/// The usage text.
pub const USAGE: &str = "\
omnet — opportunistic mobile network trace toolkit
  (reproduction of 'The Diameter of Opportunistic Mobile Networks', CoNEXT'07)

USAGE:
  omnet stats    <trace>
  omnet convert  <input> <output>
  omnet generate <infocom05|infocom06|hongkong|realitymining> <output>
                 [--days D] [--seed N]
  omnet diameter <trace> [--eps E] [--max-hops K] [--internal-only]
  omnet cdf      <trace> [--hops K1,K2,...] [--points N] [--internal-only]
  omnet path     <trace> <src> <dst> <start-secs>
  omnet prune    <trace> <output> (--keep FRACTION [--seed N] | --min-duration SECS)
  omnet flood    <trace> <src> <start-secs> [--ttl K]
  omnet journeys <trace> <src> <dst>
  omnet simulate <trace> [--messages N] [--routing epidemic|direct|spray:L]
                 [--buffer B] [--ttl-hops K] [--seed N]
  omnet components <trace> <t-secs>
  omnet check    <trace> [--oracle] [--starts N]
  omnet delivery <trace> <src> <dst> <at-secs> [--hops K]
  omnet precompute <trace> <outdir> [--shards N] [--store-levels K]
                 [--max-levels K] [--dataset-key S]
  omnet query    <artifacts> (<query...> | --stdin) [--trace FILE]
                 [--remote HOST:PORT]   (first positional = dataset name)
                 queries: delivery <s> <d> <t> [K] | path <s> <d> <t>
                          | diameter [eps [K]] [internal] | stats
  omnet serve    <addr> <name>=<artifacts>... [--trace NAME=FILE]...
                 serves datasets over TCP; --trace attaches a source trace
                 (or, for an unbound NAME, serves the trace directly and
                 accepts wire deltas); SIGINT/SIGTERM drain and exit

Traces are plain text: optional `# nodes/internal/window` headers, then one
`a b start end` row per contact; `convert` also accepts Haggle/CRAWDAD-style
listings with arbitrary ids and extra columns.
";
