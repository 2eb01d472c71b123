//! Hand-rolled argument parsing (the tool has no dependency budget for a
//! full CLI framework, and the grammar is tiny).
//!
//! Shape errors (wrong positional count, missing flag values, unknown
//! subcommands or flags) surface as [`CliError::Usage`]; malformed values
//! surface as [`CliError::Parse`] — so the two get distinct exit codes in
//! `main`.

use crate::error::CliError;
use std::path::PathBuf;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `omnet stats <trace>`
    Stats(StatsArgs),
    /// `omnet convert <in> <out>`
    Convert(ConvertArgs),
    /// `omnet generate <dataset> <out> [--days D] [--seed N]`
    Generate(GenerateArgs),
    /// `omnet diameter <trace> [--eps E] [--max-hops K] [--internal-only]`
    Diameter(DiameterArgs),
    /// `omnet cdf <trace> [--hops list] [--points N] [--internal-only]`
    Cdf(CdfArgs),
    /// `omnet path <trace> <src> <dst> <t>`
    Path(PathArgs),
    /// `omnet prune <trace> <out> (--keep F | --min-duration S)`
    Prune(PruneArgs),
    /// `omnet flood <trace> <src> <start> [--ttl K]`
    Flood(FloodArgs),
    /// `omnet journeys <trace> <src> <dst>`
    Journeys(JourneysArgs),
    /// `omnet simulate <trace> [...]`
    Simulate(SimulateArgs),
    /// `omnet components <trace> <t>`
    Components(ComponentsArgs),
    /// `omnet check <trace> [--oracle] [--starts N]`
    Check(CheckArgs),
    /// `omnet delivery <trace> <src> <dst> <t> [--hops K]`
    Delivery(DeliveryArgs),
    /// `omnet precompute <trace> <outdir> [--shards N] [...]`
    Precompute(PrecomputeArgs),
    /// `omnet query <artifacts> (<query...> | --stdin) [--trace FILE]`
    Query(QueryArgs),
    /// `omnet serve <addr> <name>=<artifacts>... [--trace NAME=FILE]...`
    Serve(ServeArgs),
}

/// Arguments of `omnet delivery`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Message creation time, seconds.
    pub at: f64,
    /// Optional hop budget (`None` = unlimited flooding).
    pub hops: Option<usize>,
}

/// Arguments of `omnet precompute`.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputeArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Directory to write `*.omna` shards into.
    pub outdir: PathBuf,
    /// Number of source-range shards.
    pub shards: u32,
    /// Override of `ProfileOptions::store_levels`.
    pub store_levels: Option<usize>,
    /// Override of `ProfileOptions::max_levels`.
    pub max_levels: Option<usize>,
    /// Dataset key recorded in the artifact headers (defaults to the trace
    /// file name).
    pub dataset_key: Option<String>,
}

/// Arguments of `omnet query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Directory holding the `*.omna` artifact shards — or, with
    /// `--remote`, the server-side dataset name.
    pub artifacts: PathBuf,
    /// One inline query, tokenized (empty with `--stdin`).
    pub tokens: Vec<String>,
    /// Read one query per line from stdin instead.
    pub stdin: bool,
    /// Optional source trace, enabling concrete `path` routes.
    pub trace: Option<PathBuf>,
    /// Send the queries to an `omnet serve` instance at this `host:port`
    /// instead of loading artifacts locally.
    pub remote: Option<String>,
}

/// Arguments of `omnet serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address, `host:port` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Datasets to route, as `(name, artifact directory)` pairs.
    pub datasets: Vec<(String, PathBuf)>,
    /// Source traces to attach, as `(dataset name, trace file)` pairs —
    /// attaching one enables `path` routes and wire deltas.
    pub traces: Vec<(String, PathBuf)>,
}

/// Arguments of `omnet flood`.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Source node id.
    pub src: u32,
    /// Message creation time, seconds.
    pub start: f64,
    /// Optional hop TTL.
    pub ttl: Option<u32>,
}

/// Arguments of `omnet journeys`.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneysArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
}

/// Arguments of `omnet simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Workload size.
    pub messages: usize,
    /// Routing scheme: `epidemic`, `direct`, or `spray:<copies>`.
    pub routing: String,
    /// Buffer capacity (`0` = unlimited).
    pub buffer: usize,
    /// Optional hop TTL.
    pub ttl_hops: Option<u32>,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of `omnet components`.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentsArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Snapshot instant, seconds.
    pub at: f64,
}

/// Arguments of `omnet stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// Trace file.
    pub trace: PathBuf,
}

/// Arguments of `omnet convert`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertArgs {
    /// Input listing (lenient format).
    pub input: PathBuf,
    /// Output canonical trace.
    pub output: PathBuf,
}

/// Arguments of `omnet generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Data-set name (case-insensitive).
    pub dataset: String,
    /// Output trace path.
    pub output: PathBuf,
    /// Optional shortened observation length in days.
    pub days: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of `omnet diameter`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiameterArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// ε of the (1−ε)-diameter.
    pub eps: f64,
    /// Largest hop class evaluated.
    pub max_hops: usize,
    /// Restrict sources/destinations to internal devices.
    pub internal_only: bool,
}

/// Arguments of `omnet cdf`.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Hop classes to print.
    pub hops: Vec<usize>,
    /// Number of grid points.
    pub points: usize,
    /// Restrict pairs to internal devices.
    pub internal_only: bool,
}

/// Arguments of `omnet path`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Message creation time, seconds.
    pub start: f64,
}

/// Arguments of `omnet prune`.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneArgs {
    /// Input trace.
    pub trace: PathBuf,
    /// Output trace.
    pub output: PathBuf,
    /// Keep each contact independently with this probability.
    pub keep: Option<f64>,
    /// Keep only contacts at least this long (seconds).
    pub min_duration: Option<f64>,
    /// RNG seed for `--keep`.
    pub seed: u64,
}

/// Arguments of `omnet check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Trace file.
    pub trace: PathBuf,
    /// Also cross-check hop-bounded frontiers against the exponential
    /// brute-force oracle (small traces only).
    pub oracle: bool,
    /// Number of evenly spaced start times for the Dijkstra cross-check.
    pub starts: usize,
}

/// Outcome of parsing argv.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedArgs {
    /// A runnable command.
    Run(Command),
    /// `--help` or no arguments: print usage, exit 0/2.
    Help,
}

/// Parses an argv slice (without the program name).
pub fn parse(argv: &[String]) -> Result<ParsedArgs, CliError> {
    let mut it = argv.iter().map(String::as_str);
    let Some(sub) = it.next() else {
        return Ok(ParsedArgs::Help);
    };
    if sub == "--help" || sub == "-h" || sub == "help" {
        return Ok(ParsedArgs::Help);
    }
    let rest: Vec<&str> = it.collect();
    let cmd = match sub {
        "stats" => {
            let (pos, _) = split_flags(&rest, &[], &[])?;
            let [trace] = positional::<1>(&pos, "stats <trace>")?;
            Command::Stats(StatsArgs {
                trace: trace.into(),
            })
        }
        "convert" => {
            let (pos, _) = split_flags(&rest, &[], &[])?;
            let [input, output] = positional::<2>(&pos, "convert <input> <output>")?;
            Command::Convert(ConvertArgs {
                input: input.into(),
                output: output.into(),
            })
        }
        "generate" => {
            let (pos, flags) = split_flags(&rest, &["--days", "--seed"], &[])?;
            let [dataset, output] = positional::<2>(&pos, "generate <dataset> <output>")?;
            Command::Generate(GenerateArgs {
                dataset: dataset.to_string(),
                output: output.into(),
                days: flag_value(&flags, "--days")?,
                seed: flag_value(&flags, "--seed")?.unwrap_or(7),
            })
        }
        "diameter" => {
            let (pos, flags) = split_flags(&rest, &["--eps", "--max-hops"], &["--internal-only"])?;
            let [trace] = positional::<1>(&pos, "diameter <trace>")?;
            Command::Diameter(DiameterArgs {
                trace: trace.into(),
                eps: flag_value(&flags, "--eps")?.unwrap_or(0.01),
                max_hops: flag_value(&flags, "--max-hops")?.unwrap_or(10),
                internal_only: flags.iter().any(|(k, _)| *k == "--internal-only"),
            })
        }
        "cdf" => {
            let (pos, flags) = split_flags(&rest, &["--hops", "--points"], &["--internal-only"])?;
            let [trace] = positional::<1>(&pos, "cdf <trace>")?;
            let hops = match flag_str(&flags, "--hops") {
                Some(list) => list
                    .split(',')
                    .map(|h| h.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| CliError::parse("invalid --hops list"))?,
                None => vec![1, 2, 4],
            };
            Command::Cdf(CdfArgs {
                trace: trace.into(),
                hops,
                points: flag_value(&flags, "--points")?.unwrap_or(16),
                internal_only: flags.iter().any(|(k, _)| *k == "--internal-only"),
            })
        }
        "path" => {
            let (pos, _) = split_flags(&rest, &[], &[])?;
            let [trace, src, dst, start] =
                positional::<4>(&pos, "path <trace> <src> <dst> <start-secs>")?;
            Command::Path(PathArgs {
                trace: trace.into(),
                src: src.parse().map_err(|_| CliError::parse("invalid src id"))?,
                dst: dst.parse().map_err(|_| CliError::parse("invalid dst id"))?,
                start: parse_secs(&start, "invalid start time")?,
            })
        }
        "delivery" => {
            let (pos, flags) = split_flags(&rest, &["--hops"], &[])?;
            let [trace, src, dst, at] =
                positional::<4>(&pos, "delivery <trace> <src> <dst> <at-secs> [--hops K]")?;
            Command::Delivery(DeliveryArgs {
                trace: trace.into(),
                src: src.parse().map_err(|_| CliError::parse("invalid src id"))?,
                dst: dst.parse().map_err(|_| CliError::parse("invalid dst id"))?,
                at: parse_secs(&at, "invalid creation time")?,
                hops: flag_value(&flags, "--hops")?,
            })
        }
        "precompute" => {
            let (pos, flags) = split_flags(
                &rest,
                &[
                    "--shards",
                    "--store-levels",
                    "--max-levels",
                    "--dataset-key",
                ],
                &[],
            )?;
            let [trace, outdir] = positional::<2>(
                &pos,
                "precompute <trace> <outdir> [--shards N] [--store-levels K] \
                 [--max-levels K] [--dataset-key S]",
            )?;
            Command::Precompute(PrecomputeArgs {
                trace: trace.into(),
                outdir: outdir.into(),
                shards: flag_value(&flags, "--shards")?.unwrap_or(1),
                store_levels: flag_value(&flags, "--store-levels")?,
                max_levels: flag_value(&flags, "--max-levels")?,
                dataset_key: flag_str(&flags, "--dataset-key").map(String::from),
            })
        }
        "query" => {
            let (pos, flags) = split_flags(&rest, &["--trace", "--remote"], &["--stdin"])?;
            let Some((artifacts, tokens)) = pos.split_first() else {
                return Err(CliError::usage(
                    "expected: omnet query <artifacts> (<query...> | --stdin) [--trace FILE]",
                ));
            };
            Command::Query(QueryArgs {
                artifacts: (*artifacts).into(),
                tokens: tokens.iter().map(|s| s.to_string()).collect(),
                stdin: flags.iter().any(|(k, _)| *k == "--stdin"),
                trace: flag_str(&flags, "--trace").map(PathBuf::from),
                remote: flag_str(&flags, "--remote").map(String::from),
            })
        }
        "serve" => {
            let (pos, flags) = split_flags(&rest, &["--trace"], &[])?;
            let Some((addr, specs)) = pos.split_first() else {
                return Err(CliError::usage(
                    "expected: omnet serve <addr> <name>=<artifacts>... [--trace NAME=FILE]...",
                ));
            };
            let datasets = specs
                .iter()
                .map(|spec| {
                    let (name, dir) = split_binding(spec, "dataset")?;
                    Ok((name.to_string(), PathBuf::from(dir)))
                })
                .collect::<Result<Vec<_>, CliError>>()?;
            let traces = flag_all(&flags, "--trace")
                .map(|spec| {
                    let (name, file) = split_binding(spec, "--trace")?;
                    Ok((name.to_string(), PathBuf::from(file)))
                })
                .collect::<Result<Vec<_>, CliError>>()?;
            if datasets.is_empty() && traces.is_empty() {
                return Err(CliError::usage(
                    "serve needs at least one dataset (<name>=<artifacts> or --trace NAME=FILE)",
                ));
            }
            Command::Serve(ServeArgs {
                addr: addr.to_string(),
                datasets,
                traces,
            })
        }
        "prune" => {
            let (pos, flags) = split_flags(&rest, &["--keep", "--min-duration", "--seed"], &[])?;
            let [trace, output] = positional::<2>(&pos, "prune <trace> <output>")?;
            let keep: Option<f64> = flag_value(&flags, "--keep")?;
            let min_duration: Option<f64> = flag_value(&flags, "--min-duration")?;
            if keep.is_some() == min_duration.is_some() {
                return Err(CliError::usage(
                    "prune needs exactly one of --keep or --min-duration",
                ));
            }
            Command::Prune(PruneArgs {
                trace: trace.into(),
                output: output.into(),
                keep,
                min_duration,
                seed: flag_value(&flags, "--seed")?.unwrap_or(7),
            })
        }
        "flood" => {
            let (pos, flags) = split_flags(&rest, &["--ttl"], &[])?;
            let [trace, src, start] = positional::<3>(&pos, "flood <trace> <src> <start-secs>")?;
            Command::Flood(FloodArgs {
                trace: trace.into(),
                src: src.parse().map_err(|_| CliError::parse("invalid src id"))?,
                start: start
                    .parse()
                    .map_err(|_| CliError::parse("invalid start time"))?,
                ttl: flag_value(&flags, "--ttl")?,
            })
        }
        "journeys" => {
            let (pos, _) = split_flags(&rest, &[], &[])?;
            let [trace, src, dst] = positional::<3>(&pos, "journeys <trace> <src> <dst>")?;
            Command::Journeys(JourneysArgs {
                trace: trace.into(),
                src: src.parse().map_err(|_| CliError::parse("invalid src id"))?,
                dst: dst.parse().map_err(|_| CliError::parse("invalid dst id"))?,
            })
        }
        "simulate" => {
            let (pos, flags) = split_flags(
                &rest,
                &[
                    "--messages",
                    "--routing",
                    "--buffer",
                    "--ttl-hops",
                    "--seed",
                ],
                &[],
            )?;
            let [trace] = positional::<1>(&pos, "simulate <trace>")?;
            Command::Simulate(SimulateArgs {
                trace: trace.into(),
                messages: flag_value(&flags, "--messages")?.unwrap_or(200),
                routing: flag_str(&flags, "--routing")
                    .unwrap_or("epidemic")
                    .to_string(),
                buffer: flag_value(&flags, "--buffer")?.unwrap_or(0),
                ttl_hops: flag_value(&flags, "--ttl-hops")?,
                seed: flag_value(&flags, "--seed")?.unwrap_or(7),
            })
        }
        "check" => {
            let (pos, flags) = split_flags(&rest, &["--starts"], &["--oracle"])?;
            let [trace] = positional::<1>(&pos, "check <trace> [--oracle] [--starts N]")?;
            Command::Check(CheckArgs {
                trace: trace.into(),
                oracle: flags.iter().any(|(k, _)| *k == "--oracle"),
                starts: flag_value(&flags, "--starts")?.unwrap_or(4),
            })
        }
        "components" => {
            let (pos, _) = split_flags(&rest, &[], &[])?;
            let [trace, at] = positional::<2>(&pos, "components <trace> <t-secs>")?;
            Command::Components(ComponentsArgs {
                trace: trace.into(),
                at: at
                    .parse()
                    .map_err(|_| CliError::parse("invalid snapshot time"))?,
            })
        }
        other => return Err(CliError::usage(format!("unknown subcommand '{other}'"))),
    };
    Ok(ParsedArgs::Run(cmd))
}

/// Flags parsed from argv: `(--name, optional value)` pairs.
type ParsedFlags<'a> = Vec<(&'a str, Option<&'a str>)>;

/// Splits `rest` into positional arguments and `--flag [value]` pairs,
/// rejecting any flag that is neither in `valued` (takes a value) nor in
/// `switches` (stands alone).
fn split_flags<'a>(
    rest: &[&'a str],
    valued: &[&str],
    switches: &[&str],
) -> Result<(Vec<&'a str>, ParsedFlags<'a>), CliError> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if a.starts_with("--") {
            let takes_value = valued.contains(&a);
            if !takes_value && !switches.contains(&a) {
                return Err(CliError::usage(format!("unknown flag {a}")));
            }
            if takes_value {
                let v = rest
                    .get(i + 1)
                    .copied()
                    .ok_or_else(|| CliError::usage(format!("flag {a} needs a value")))?;
                flags.push((a, Some(v)));
                i += 2;
            } else {
                flags.push((a, None));
                i += 1;
            }
        } else {
            pos.push(a);
            i += 1;
        }
    }
    Ok((pos, flags))
}

/// Parses a seconds value, rejecting NaN (`Time::secs` would panic on it
/// deep inside a command otherwise).
fn parse_secs(tok: &str, message: &str) -> Result<f64, CliError> {
    match tok.parse::<f64>() {
        Ok(v) if !v.is_nan() => Ok(v),
        _ => Err(CliError::parse(message)),
    }
}

fn positional<const N: usize>(args: &[&str], usage: &str) -> Result<[String; N], CliError> {
    if args.len() != N {
        return Err(CliError::usage(format!("expected: omnet {usage}")));
    }
    Ok(std::array::from_fn(|i| args[i].to_string()))
}

fn flag_str<'a>(flags: &[(&str, Option<&'a str>)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| *k == name).and_then(|(_, v)| *v)
}

/// Every value of a repeatable flag, in argv order.
fn flag_all<'a, 'f>(
    flags: &'f [(&str, Option<&'a str>)],
    name: &'f str,
) -> impl Iterator<Item = &'a str> + 'f {
    flags
        .iter()
        .filter(move |(k, _)| *k == name)
        .filter_map(|(_, v)| *v)
}

/// Splits a `name=value` binding (dataset specs, `--trace` values).
fn split_binding<'a>(spec: &'a str, what: &str) -> Result<(&'a str, &'a str), CliError> {
    match spec.split_once('=') {
        Some((name, value)) if !name.is_empty() && !value.is_empty() => Ok((name, value)),
        _ => Err(CliError::usage(format!(
            "{what} binding '{spec}' must have the form NAME=PATH"
        ))),
    }
}

fn flag_value<T: std::str::FromStr>(
    flags: &[(&str, Option<&str>)],
    name: &str,
) -> Result<Option<T>, CliError> {
    match flag_str(flags, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::parse(format!("invalid value for {name}: '{v}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), ParsedArgs::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), ParsedArgs::Help);
        assert_eq!(parse(&argv("help")).unwrap(), ParsedArgs::Help);
    }

    #[test]
    fn stats_parses() {
        let ParsedArgs::Run(Command::Stats(a)) = parse(&argv("stats foo.trace")).unwrap() else {
            panic!()
        };
        assert_eq!(a.trace, PathBuf::from("foo.trace"));
    }

    #[test]
    fn generate_flags() {
        let ParsedArgs::Run(Command::Generate(a)) =
            parse(&argv("generate infocom05 out.trace --days 1.5 --seed 42")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.dataset, "infocom05");
        assert_eq!(a.days, Some(1.5));
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn diameter_defaults_and_flags() {
        let ParsedArgs::Run(Command::Diameter(a)) =
            parse(&argv("diameter t.trace --internal-only --eps 0.05")).unwrap()
        else {
            panic!()
        };
        assert!(a.internal_only);
        assert_eq!(a.eps, 0.05);
        assert_eq!(a.max_hops, 10);
    }

    #[test]
    fn cdf_hops_list() {
        let ParsedArgs::Run(Command::Cdf(a)) =
            parse(&argv("cdf t.trace --hops 1,3,5 --points 8")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.hops, vec![1, 3, 5]);
        assert_eq!(a.points, 8);
    }

    #[test]
    fn path_positionals() {
        let ParsedArgs::Run(Command::Path(a)) = parse(&argv("path t.trace 3 17 120")).unwrap()
        else {
            panic!()
        };
        assert_eq!((a.src, a.dst, a.start), (3, 17, 120.0));
    }

    #[test]
    fn prune_requires_exactly_one_mode() {
        assert!(parse(&argv("prune a b")).is_err());
        assert!(parse(&argv("prune a b --keep 0.1 --min-duration 60")).is_err());
        assert!(parse(&argv("prune a b --keep 0.1")).is_ok());
        assert!(parse(&argv("prune a b --min-duration 600")).is_ok());
    }

    #[test]
    fn flood_and_journeys_parse() {
        let ParsedArgs::Run(Command::Flood(a)) =
            parse(&argv("flood t.trace 4 120 --ttl 3")).unwrap()
        else {
            panic!()
        };
        assert_eq!((a.src, a.start, a.ttl), (4, 120.0, Some(3)));
        let ParsedArgs::Run(Command::Journeys(j)) = parse(&argv("journeys t.trace 1 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!((j.src, j.dst), (1, 2));
    }

    #[test]
    fn simulate_defaults() {
        let ParsedArgs::Run(Command::Simulate(a)) =
            parse(&argv("simulate t.trace --routing spray:4 --buffer 16")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.messages, 200);
        assert_eq!(a.routing, "spray:4");
        assert_eq!(a.buffer, 16);
        assert_eq!(a.ttl_hops, None);
    }

    #[test]
    fn components_parse() {
        let ParsedArgs::Run(Command::Components(a)) =
            parse(&argv("components t.trace 3600")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.at, 3600.0);
    }

    #[test]
    fn delivery_parses_with_optional_hops() {
        let ParsedArgs::Run(Command::Delivery(a)) =
            parse(&argv("delivery t.trace 0 3 120 --hops 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!((a.src, a.dst, a.at, a.hops), (0, 3, 120.0, Some(2)));
        let ParsedArgs::Run(Command::Delivery(a)) =
            parse(&argv("delivery t.trace 0 3 120")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.hops, None);
    }

    #[test]
    fn precompute_parses_knobs() {
        let ParsedArgs::Run(Command::Precompute(a)) = parse(&argv(
            "precompute t.trace out --shards 4 --store-levels 6 --dataset-key infocom05",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.shards, 4);
        assert_eq!(a.store_levels, Some(6));
        assert_eq!(a.max_levels, None);
        assert_eq!(a.dataset_key.as_deref(), Some("infocom05"));
        let ParsedArgs::Run(Command::Precompute(d)) =
            parse(&argv("precompute t.trace out")).unwrap()
        else {
            panic!()
        };
        assert_eq!(d.shards, 1);
    }

    #[test]
    fn query_forms_parse() {
        let ParsedArgs::Run(Command::Query(a)) =
            parse(&argv("query shards delivery 0 3 120")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.artifacts, PathBuf::from("shards"));
        assert_eq!(a.tokens, vec!["delivery", "0", "3", "120"]);
        assert!(!a.stdin && a.trace.is_none());
        let ParsedArgs::Run(Command::Query(b)) =
            parse(&argv("query shards --stdin --trace t.trace")).unwrap()
        else {
            panic!()
        };
        assert!(b.stdin && b.tokens.is_empty());
        assert_eq!(b.trace, Some(PathBuf::from("t.trace")));
        assert!(b.remote.is_none());
        assert!(parse(&argv("query")).is_err());
    }

    #[test]
    fn query_remote_parses() {
        let ParsedArgs::Run(Command::Query(a)) = parse(&argv(
            "query reality delivery 0 3 120 --remote 127.0.0.1:7070",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.remote.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(a.artifacts, PathBuf::from("reality"));
        assert_eq!(a.tokens, vec!["delivery", "0", "3", "120"]);
    }

    #[test]
    fn serve_parses_bindings() {
        let ParsedArgs::Run(Command::Serve(a)) = parse(&argv(
            "serve 127.0.0.1:0 reality=shards/reality toy=shards/toy --trace toy=toy.trace",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(
            a.datasets,
            vec![
                ("reality".to_string(), PathBuf::from("shards/reality")),
                ("toy".to_string(), PathBuf::from("shards/toy")),
            ]
        );
        assert_eq!(
            a.traces,
            vec![("toy".to_string(), PathBuf::from("toy.trace"))]
        );
    }

    #[test]
    fn serve_rejects_bad_shapes() {
        // No datasets, malformed bindings, missing --trace value name.
        assert!(parse(&argv("serve 127.0.0.1:0")).is_err());
        assert!(parse(&argv("serve 127.0.0.1:0 reality")).is_err());
        assert!(parse(&argv("serve 127.0.0.1:0 =shards")).is_err());
        assert!(parse(&argv("serve 127.0.0.1:0 reality= ")).is_err());
        assert!(parse(&argv("serve 127.0.0.1:0 r=shards --trace t.trace")).is_err());
    }

    #[test]
    fn nan_times_are_parse_errors() {
        assert!(matches!(
            parse(&argv("path t.trace 0 1 nan")).unwrap_err(),
            CliError::Parse(_)
        ));
        assert!(matches!(
            parse(&argv("delivery t.trace 0 1 nan")).unwrap_err(),
            CliError::Parse(_)
        ));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&argv("bogus"))
            .unwrap_err()
            .to_string()
            .contains("unknown subcommand"));
        assert!(parse(&argv("stats"))
            .unwrap_err()
            .to_string()
            .contains("stats <trace>"));
        assert!(parse(&argv("cdf t --hops a,b"))
            .unwrap_err()
            .to_string()
            .contains("--hops"));
        assert!(parse(&argv("diameter t --eps"))
            .unwrap_err()
            .to_string()
            .contains("needs a value"));
    }

    #[test]
    fn errors_are_classified() {
        // shape problems are usage errors …
        assert!(matches!(
            parse(&argv("bogus")).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse(&argv("stats")).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse(&argv("diameter t --eps")).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            parse(&argv("prune a b")).unwrap_err(),
            CliError::Usage(_)
        ));
        // A misspelt flag is refused and named, not silently ignored …
        let typo = parse(&argv("diameter t.trace --max-hop 3")).unwrap_err();
        assert!(
            matches!(&typo, CliError::Usage(m) if m.contains("--max-hop")),
            "{typo}"
        );
        // … as is a flag the subcommand does not take.
        assert!(matches!(
            parse(&argv("stats t.trace --oracle")).unwrap_err(),
            CliError::Usage(_)
        ));
        // … while malformed values are parse errors.
        assert!(matches!(
            parse(&argv("cdf t --hops a,b")).unwrap_err(),
            CliError::Parse(_)
        ));
        assert!(matches!(
            parse(&argv("path t x 1 0")).unwrap_err(),
            CliError::Parse(_)
        ));
        assert!(matches!(
            parse(&argv("diameter t --eps nope")).unwrap_err(),
            CliError::Parse(_)
        ));
    }
}
