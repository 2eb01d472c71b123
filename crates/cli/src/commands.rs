//! Subcommand implementations: pure functions from arguments to rendered
//! output (writing trace files where the command's contract says so).
//!
//! Failures are typed: trace file problems surface as [`CliError::Io`],
//! rejected inputs and failed invariant checks as [`CliError::Domain`],
//! malformed embedded values (routing specs, raw listings) as
//! [`CliError::Parse`].

use crate::args::{Args, Secs};
use crate::error::CliError;
use crate::render;
use omnet_artifact::{write_set, ArtifactError, ArtifactMeta};
use omnet_core::{
    optimal_journeys, route_string, AllPairsProfiles, Arcs, CurveOptions, HopBound, ProfileOptions,
    SourceProfiles, SuccessCurves,
};
use omnet_flooding::{flood, simulate, uniform_workload, Routing, SimConfig};
use omnet_mobility::Dataset;
use omnet_serve::{wire, Engine, Query, QueryError, Server};
use omnet_temporal::stats::TraceStats;
use omnet_temporal::{io, transform, Dur, NodeId, Time, Trace};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

fn load(path: &Path) -> Result<Trace, CliError> {
    io::load(path).map_err(|e| CliError::io("cannot read trace", path, e))
}

fn save(trace: &Trace, path: &Path) -> Result<(), CliError> {
    io::save(trace, path).map_err(|e| CliError::io("cannot write trace", path, e))
}

/// Dataset label used when wrapping a trace in an engine: its file name.
fn trace_key(path: &Path) -> String {
    path.file_name()
        .map_or_else(|| "trace".into(), |s| s.to_string_lossy().into_owned())
}

/// Maps artifact failures onto the CLI's exit-code taxonomy: underlying
/// file-system errors stay I/O errors, every integrity rejection (bad
/// magic, checksum, version) is a domain error.
fn artifact_err(e: ArtifactError) -> CliError {
    match e {
        ArtifactError::Io {
            context,
            path,
            source,
        } => CliError::io(context, &path, io::IoError::Io(source)),
        other => CliError::domain(format!("artifact: {other}")),
    }
}

/// Maps typed query failures: syntax to parse errors, everything else to
/// domain errors.
fn query_err(e: QueryError) -> CliError {
    match e {
        QueryError::Parse { message } => CliError::parse(message),
        other => CliError::domain(other.to_string()),
    }
}

/// Maps wire-layer failures (transport, framing, server-side protocol
/// errors) onto domain errors.
fn wire_err(e: wire::WireError) -> CliError {
    CliError::domain(format!("remote: {e}"))
}

/// `omnet stats`.
pub fn stats(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let trace = load(&path)?;
    let s = TraceStats::of(&trace);
    let durations = omnet_temporal::stats::contact_durations(&trace);
    let gaps = omnet_temporal::stats::inter_contact_times(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "trace:               {}", path.display());
    let _ = writeln!(out, "observation window:  {}", s.duration);
    let _ = writeln!(
        out,
        "granularity:         {}",
        s.granularity.map_or("n/a".into(), |g| g.to_string())
    );
    let _ = writeln!(
        out,
        "devices:             {} internal + {} external",
        s.internal_devices, s.external_devices
    );
    let _ = writeln!(
        out,
        "contacts:            {} internal + {} external",
        s.internal_contacts, s.external_contacts
    );
    let _ = writeln!(
        out,
        "contact rate:        {:.2} per internal device-hour ({:.2} incl. external)",
        s.internal_rate_per_node_hour, s.total_rate_per_node_hour
    );
    let dsum =
        omnet_analysis::Summary::of(&durations.iter().map(|d| d.as_secs()).collect::<Vec<_>>());
    if dsum.count > 0 {
        let _ = writeln!(
            out,
            "contact duration:    median {}  mean {}  max {}",
            Dur::secs(dsum.median),
            Dur::secs(dsum.mean),
            Dur::secs(dsum.max)
        );
    }
    let gsum = omnet_analysis::Summary::of(&gaps.iter().map(|d| d.as_secs()).collect::<Vec<_>>());
    if gsum.count > 0 {
        let _ = writeln!(
            out,
            "inter-contact time:  median {}  mean {}  max {}",
            Dur::secs(gsum.median),
            Dur::secs(gsum.mean),
            Dur::secs(gsum.max)
        );
    }
    Ok(out)
}

/// `omnet convert`.
pub fn convert(a: &Args) -> Result<String, CliError> {
    let (input, output) = (a.path(0), a.path(1));
    let file = std::fs::File::open(&input)
        .map_err(|e| CliError::io("cannot read listing", &input, io::IoError::Io(e)))?;
    let imp =
        io::import_lenient(file).map_err(|e| CliError::parse(format!("import failed: {e}")))?;
    save(&imp.trace, &output)?;
    Ok(format!(
        "imported {} rows ({} skipped) from {} distinct device ids\n\
         wrote {} contacts among {} nodes to {}\n",
        imp.accepted,
        imp.skipped,
        imp.id_count,
        imp.trace.num_contacts(),
        imp.trace.num_nodes(),
        output.display()
    ))
}

/// `omnet generate`.
pub fn generate(a: &Args) -> Result<String, CliError> {
    let output = a.path(1);
    let days = a.flag::<Secs>("--days")?.map(|d| d.0);
    let seed = a.flag("--seed")?.unwrap_or(7);
    let dataset = match a.arg(0).to_ascii_lowercase().as_str() {
        "infocom05" => Dataset::Infocom05,
        "infocom06" => Dataset::Infocom06,
        "hongkong" | "hong-kong" => Dataset::HongKong,
        "realitymining" | "reality-mining" => Dataset::RealityMining,
        other => {
            return Err(CliError::domain(format!(
                "unknown data set '{other}' (infocom05|infocom06|hongkong|realitymining)"
            )))
        }
    };
    let trace = match days {
        Some(days) if !dataset.accepts_days(days) => {
            return Err(CliError::domain(format!(
                "--days must lie in (0, {}] for {}",
                dataset.spec().duration.as_days(),
                dataset.label()
            )))
        }
        Some(days) => dataset.generate_days(days, seed),
        None => dataset.generate(seed),
    };
    save(&trace, &output)?;
    Ok(format!(
        "generated synthetic {}: {} devices, {} contacts over {}\nwrote {}\n",
        dataset.label(),
        trace.num_nodes(),
        trace.num_contacts(),
        trace.span().duration(),
        output.display()
    ))
}

/// `omnet diameter`: routed through the typed query engine (trace-backed).
pub fn diameter(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let internal_only = a.switch("--internal-only");
    let query = Query::Diameter {
        eps: a.flag("--eps")?.unwrap_or(0.01),
        max_hops: a.flag("--max-hops")?.unwrap_or(10),
        internal_only,
    };
    let trace = load(&path)?;
    let trace = if internal_only {
        transform::internal_only(&trace)
    } else {
        trace
    };
    answer(trace, &path, &query)
}

/// Most grid points `omnet cdf --points` takes.
const MAX_CDF_POINTS: usize = 100_000;
/// Most creation times `omnet check --starts` cross-checks.
const MAX_CHECK_STARTS: usize = 10_000;

/// `omnet cdf`.
pub fn cdf(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let hops: Vec<usize> = match a.flag::<String>("--hops")? {
        Some(list) => list
            .split(',')
            .map(|h| h.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| CliError::parse("invalid --hops list"))?,
        None => vec![1, 2, 4],
    };
    let points = a.flag("--points")?.unwrap_or(16);
    let internal_only = a.switch("--internal-only");
    if points < 2 {
        return Err(CliError::domain("--points must be at least 2"));
    }
    if points > MAX_CDF_POINTS {
        return Err(CliError::domain(format!(
            "--points must be at most {MAX_CDF_POINTS}"
        )));
    }
    let trace = load(&path)?;
    let trace = if internal_only {
        transform::internal_only(&trace)
    } else {
        trace
    };
    if trace.span().duration() <= Dur::ZERO {
        return Err(CliError::domain(
            "the observation window is empty: no message creation time to draw",
        ));
    }
    let horizon = trace.span().duration().as_secs().max(240.0);
    let grid: Vec<Dur> = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, points)
        .into_iter()
        .map(Dur::secs)
        .collect();
    let max_hop = hops.iter().copied().max().unwrap_or(1);
    let mut opts = CurveOptions::standard(max_hop, grid.clone());
    opts.internal_pairs_only = internal_only;
    let curves = SuccessCurves::compute(&trace, &opts);
    let mut series = omnet_analysis::Series::new(
        "delay_s",
        grid.iter().map(|d| d.as_secs()).collect::<Vec<_>>(),
    );
    let columns = hops
        .iter()
        .map(|&k| (format!("{k}hop"), HopBound::AtMost(k)));
    for (name, bound) in columns.chain([("flood".to_string(), HopBound::Unlimited)]) {
        if let Some(c) = curves.curve(bound) {
            series.curve(name, c.to_vec());
        }
    }
    Ok(series.render())
}

/// `omnet path`: routed through the typed query engine (trace-backed, so
/// the concrete contact chain is reconstructed).
pub fn path(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let query = Query::Path {
        src: a.pos(1, "invalid src id")?,
        dst: a.pos(2, "invalid dst id")?,
        at: Time::secs(a.secs(3, "invalid start time")?),
    };
    answer(load(&path)?, &path, &query)
}

/// `omnet delivery`: one delivery-function lookup through the engine.
pub fn delivery(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let query = Query::Delivery {
        src: a.pos(1, "invalid src id")?,
        dst: a.pos(2, "invalid dst id")?,
        at: Time::secs(a.secs(3, "invalid creation time")?),
        bound: a
            .flag("--hops")?
            .map_or(HopBound::Unlimited, HopBound::AtMost),
    };
    answer(load(&path)?, &path, &query)
}

/// Answers one query through a trace-backed engine keyed by the file name.
fn answer(trace: Trace, path: &Path, query: &Query) -> Result<String, CliError> {
    let engine = Engine::from_trace(Arc::new(trace), ProfileOptions::default(), &trace_key(path));
    let resp = engine.answer(query).map_err(query_err)?;
    Ok(render::response(&resp))
}

/// `omnet precompute`: trace → sharded profile artifacts on disk.
pub fn precompute(a: &Args) -> Result<String, CliError> {
    let (path, outdir) = (a.path(0), a.path(1));
    let shards: u32 = a.flag("--shards")?.unwrap_or(1);
    let mut b = ProfileOptions::builder();
    if let Some(k) = a.flag("--store-levels")? {
        b = b.store_levels(k);
    }
    if let Some(k) = a.flag("--max-levels")? {
        b = b.max_levels(k);
    }
    let dataset_key = a.flag("--dataset-key")?;
    if shards == 0 {
        return Err(CliError::domain("--shards must be positive"));
    }
    let trace = load(&path)?;
    let opts = b.build();
    let meta = ArtifactMeta {
        dataset_key: dataset_key.unwrap_or_else(|| trace_key(&path)),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
    let paths = write_set(&outdir, "profiles", &meta, &rows, shards).map_err(artifact_err)?;
    Ok(format!(
        "precomputed {} source rows ({} stored hop classes) into {} shard(s) under {}\n",
        rows.len(),
        opts.store_levels,
        paths.len(),
        outdir.display()
    ))
}

/// `omnet query`: loads an artifact set and answers one inline query or a
/// stdin batch, never re-running the profile induction. With `--remote`
/// the first positional is a server-side dataset *name* and the queries
/// travel over the wire instead — same queries, same rendered bytes.
pub fn query(a: &Args) -> Result<String, CliError> {
    let trace: Option<std::path::PathBuf> = a.flag("--trace")?;
    if let Some(addr) = a.flag::<String>("--remote")? {
        if trace.is_some() {
            return Err(CliError::conflict(
                "--trace is a local-load option; attach traces server-side at `omnet serve` time",
            ));
        }
        return query_remote(a, &addr);
    }
    let mut engine = Engine::load_dir(&a.path(0)).map_err(artifact_err)?;
    if let Some(tp) = &trace {
        engine = engine
            .with_trace(Arc::new(load(tp)?))
            .map_err(artifact_err)?;
    }
    match query_input(a)? {
        QueryInput::Stdin(text) => Ok(query_batch(&engine, &text)),
        QueryInput::Inline(tokens) => {
            let q = Query::parse_tokens(tokens).map_err(query_err)?;
            let resp = engine.answer(&q).map_err(query_err)?;
            Ok(render::response(&resp))
        }
    }
}

/// Where `omnet query` takes its queries from.
enum QueryInput<'a> {
    /// One query, tokenized.
    Inline(&'a [&'a str]),
    /// One query per line.
    Stdin(String),
}

/// Reads the queries of `omnet query`: `--stdin` or the positionals after
/// the first, never both and never neither.
fn query_input<'a>(a: &'a Args) -> Result<QueryInput<'a>, CliError> {
    match (a.switch("--stdin"), a.rest(1)) {
        (true, []) => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text).map_err(|e| {
                CliError::io(
                    "cannot read queries",
                    Path::new("<stdin>"),
                    io::IoError::Io(e),
                )
            })?;
            Ok(QueryInput::Stdin(text))
        }
        (true, _) => Err(CliError::conflict(
            "--stdin and an inline query are mutually exclusive",
        )),
        (false, []) => Err(CliError::conflict(
            "expected a query (delivery|path|diameter|stats) or --stdin",
        )),
        (false, tokens) => Ok(QueryInput::Inline(tokens)),
    }
}

/// Answers one query per line through the engine's executor-batched path,
/// preserving line order. Failed lines render as `error: …` without
/// aborting the batch.
pub fn query_batch(engine: &Engine, text: &str) -> String {
    let mut queries = Vec::new();
    // One slot per query line: a parse error, or `None` for the next answer.
    let slots: Vec<Option<QueryError>> = text
        .lines()
        .filter_map(|line| match Query::parse_line(line) {
            Ok(None) => None,
            Ok(Some(q)) => {
                queries.push(q);
                Some(None)
            }
            Err(e) => Some(Some(e)),
        })
        .collect();
    let mut answers = engine.answer_batch(&queries).into_iter();
    render::results(
        slots
            .into_iter()
            .filter_map(|bad| bad.map_or_else(|| answers.next(), |e| Some(Err(e)))),
    )
}

/// The `--remote` arm of `omnet query`: ships the query lines to an
/// `omnet serve` instance and renders the decoded answers with the same
/// renderers as the local path, so output is byte-identical.
fn query_remote(a: &Args, addr: &str) -> Result<String, CliError> {
    let (lines, batch) = match query_input(a)? {
        QueryInput::Stdin(text) => (text.lines().map(String::from).collect(), true),
        // Tokens re-split identically server-side: the query grammar is
        // whitespace-separated, so joining is lossless.
        QueryInput::Inline(tokens) => (vec![tokens.join(" ")], false),
    };
    let mut client = wire::Client::connect(addr).map_err(wire_err)?;
    let resp = client
        .call(&wire::Request::Query {
            dataset: a.arg(0).to_string(),
            lines,
        })
        .map_err(wire_err)?;
    let wire::Response::Results(results) = resp else {
        return Err(CliError::domain("remote: unexpected response type"));
    };
    if batch {
        Ok(render::results(results))
    } else {
        match results.into_iter().next() {
            Some(Ok(resp)) => Ok(render::response(&resp)),
            Some(Err(e)) => Err(query_err(e)),
            None => Err(CliError::domain("remote: server returned no result")),
        }
    }
}

/// `omnet serve`: loads the named datasets and serves the wire protocol
/// until SIGINT/SIGTERM, then drains and reports. `name=dir` bindings are
/// artifact-backed (immutable); a `--trace NAME=FILE` either attaches the
/// source trace to artifact dataset NAME (enabling `path` routes) or, when
/// NAME has no artifact binding, serves FILE as a trace-backed dataset
/// that also accepts wire deltas.
pub fn serve(a: &Args) -> Result<String, CliError> {
    let addr = a.arg(0);
    let datasets = a
        .rest(1)
        .iter()
        .map(|spec| split_binding(spec, "dataset"))
        .collect::<Result<Vec<_>, _>>()?;
    let traces = a
        .all("--trace")
        .map(|spec| split_binding(spec, "--trace"))
        .collect::<Result<Vec<_>, _>>()?;
    if datasets.is_empty() && traces.is_empty() {
        return Err(CliError::usage(
            "serve needs at least one dataset (<name>=<artifacts> or --trace NAME=FILE)",
        ));
    }
    let mut engines: Vec<(String, Engine)> = Vec::new();
    for &(name, dir) in &datasets {
        if engines.iter().any(|(n, _)| n == name) {
            return Err(CliError::conflict(format!(
                "dataset '{name}' is bound twice"
            )));
        }
        let mut engine = Engine::load_dir(Path::new(dir)).map_err(artifact_err)?;
        if let Some(&(_, tp)) = traces.iter().find(|(n, _)| *n == name) {
            let trace = load(Path::new(tp))?;
            engine = engine.with_trace(Arc::new(trace)).map_err(artifact_err)?;
        }
        engines.push((name.to_string(), engine));
    }
    for &(name, tp) in &traces {
        if datasets.iter().any(|(n, _)| *n == name) {
            continue; // attached above
        }
        if engines.iter().any(|(n, _)| n == name) {
            return Err(CliError::conflict(format!(
                "dataset '{name}' is bound twice"
            )));
        }
        let tp = Path::new(tp);
        let engine = Engine::from_trace(
            Arc::new(load(tp)?),
            ProfileOptions::default(),
            &trace_key(tp),
        );
        engines.push((name.to_string(), engine));
    }
    let names: Vec<&str> = engines.iter().map(|(n, _)| n.as_str()).collect();
    let summary = names.join(", ");
    let server = Server::bind(addr, engines)
        .map_err(|e| CliError::io("cannot bind", Path::new(addr), io::IoError::Io(e)))?;
    let bound = server.local_addr().map_err(|e| {
        CliError::io(
            "cannot resolve bound address",
            Path::new(addr),
            io::IoError::Io(e),
        )
    })?;
    Server::install_signal_handlers();
    // Announce the bound address up front (port 0 resolves here) so
    // scripts and the CI smoke can connect; the command's return value
    // only appears after shutdown.
    {
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "listening on {bound} (datasets: {summary})");
        let _ = out.flush();
    }
    let report = server
        .run()
        .map_err(|e| CliError::io("serve failed", Path::new(addr), io::IoError::Io(e)))?;
    Ok(format!(
        "served {} connections, {} requests ({} rejected during shutdown)\n",
        report.connections, report.requests, report.rejected
    ))
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

/// `omnet prune`.
pub fn prune(a: &Args) -> Result<String, CliError> {
    enum Mode {
        Keep(f64),
        MinDuration(f64),
    }
    let (path, output) = (a.path(0), a.path(1));
    let mode = match (a.flag("--keep")?, a.flag::<Secs>("--min-duration")?) {
        (Some(keep), None) => Mode::Keep(keep),
        (None, Some(Secs(secs))) => Mode::MinDuration(secs),
        _ => {
            return Err(CliError::usage(
                "prune needs exactly one of --keep or --min-duration",
            ))
        }
    };
    let seed = a.flag("--seed")?.unwrap_or(7);
    let trace = load(&path)?;
    let before = trace.num_contacts();
    let pruned = match mode {
        Mode::Keep(keep) => {
            if !(0.0..=1.0).contains(&keep) {
                return Err(CliError::domain("--keep must lie in [0, 1]"));
            }
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            transform::remove_random(&trace, 1.0 - keep, &mut rng)
        }
        Mode::MinDuration(secs) => {
            if secs < 0.0 {
                return Err(CliError::domain("--min-duration must be non-negative"));
            }
            transform::min_duration(&trace, Dur::secs(secs))
        }
    };
    save(&pruned, &output)?;
    Ok(format!(
        "kept {} of {} contacts ({:.1}%)\nwrote {}\n",
        pruned.num_contacts(),
        before,
        100.0 * pruned.num_contacts() as f64 / before.max(1) as f64,
        output.display()
    ))
}

/// `omnet flood`.
pub fn flood_cmd(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let src: u32 = a.pos(1, "invalid src id")?;
    let t0 = Time::secs(a.secs(2, "invalid start time")?);
    let ttl = a.flag("--ttl")?;
    let trace = load(&path)?;
    if src >= trace.num_nodes() {
        return Err(CliError::domain(format!(
            "node ids must be below {}",
            trace.num_nodes()
        )));
    }
    let out = flood(&trace, NodeId(src), t0, ttl);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "flooding from {} at {}{}: reached {} of {} nodes, {} transmissions",
        src,
        t0,
        ttl.map_or(String::new(), |t| format!(" (TTL {t})")),
        out.reached(),
        trace.num_nodes(),
        out.transmissions
    );
    let mut arrivals: Vec<(NodeId, Time, u32)> = trace
        .nodes()
        .filter(|n| n.0 != src && out.delivery(*n) < Time::INF)
        .map(|n| (n, out.delivery(n), out.hops[n.index()]))
        .collect();
    arrivals.sort_by_key(|(_, at, _)| *at);
    for (n, at, hops) in arrivals.iter().take(25) {
        let _ = writeln!(
            text,
            "  node {:>4}  infected {:>10}  delay {:>10}  {hops} hops",
            n,
            at,
            at.since(t0)
        );
    }
    if arrivals.len() > 25 {
        let _ = writeln!(text, "  … {} more", arrivals.len() - 25);
    }
    Ok(text)
}

/// `omnet journeys`.
pub fn journeys(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let src: u32 = a.pos(1, "invalid src id")?;
    let dst: u32 = a.pos(2, "invalid dst id")?;
    let trace = load(&path)?;
    let n = trace.num_nodes();
    if src >= n || dst >= n {
        return Err(CliError::domain(format!("node ids must be below {n}")));
    }
    if src == dst {
        return Err(CliError::domain("source equals destination"));
    }
    let arcs = Arcs::of(&trace);
    let row = SourceProfiles::compute(&trace, &arcs, NodeId(src), ProfileOptions::default());
    let f = row.profile(NodeId(dst), HopBound::Unlimited);
    if f.is_empty() {
        return Ok(format!("no path ever exists from {src} to {dst}\n"));
    }
    let mut text = format!("{} optimal journeys from {src} to {dst}:\n", f.len());
    let journeys = optimal_journeys(&trace, NodeId(src), NodeId(dst), &f)
        .map_err(|e| CliError::domain(e.to_string()))?;
    for (pair, path) in journeys {
        let _ = writeln!(
            text,
            "  leave by {:>10}  arrive {:>10}  {} hops: {}",
            pair.ld,
            pair.ea,
            path.hops(),
            route_string(&path)
        );
    }
    Ok(text)
}

/// `omnet simulate`.
pub fn simulate_cmd(a: &Args) -> Result<String, CliError> {
    let path = a.path(0);
    let messages = a.flag("--messages")?.unwrap_or(200);
    let routing_name = a
        .flag("--routing")?
        .unwrap_or_else(|| "epidemic".to_string());
    let buffer = a.flag("--buffer")?.unwrap_or(0);
    let ttl_hops = a.flag("--ttl-hops")?;
    let seed = a.flag("--seed")?.unwrap_or(7);
    let trace = load(&path)?;
    if trace.num_internal() < 2 {
        return Err(CliError::domain(
            "simulation needs at least two internal devices",
        ));
    }
    let routing =
        match routing_name.as_str() {
            "epidemic" => Routing::Epidemic,
            "direct" => Routing::Direct,
            other => match other.strip_prefix("spray:") {
                Some(copies) => Routing::SprayAndWait(copies.parse().map_err(|_| {
                    CliError::parse(format!("invalid spray copy count '{copies}'"))
                })?),
                None => {
                    return Err(CliError::parse(format!(
                        "unknown routing '{other}' (epidemic|direct|spray:<copies>)"
                    )))
                }
            },
        };
    let config = SimConfig {
        routing,
        buffer_capacity: if buffer == 0 { usize::MAX } else { buffer },
        ttl_hops,
        ..SimConfig::default()
    };
    let workload = uniform_workload(&trace, messages, 0.6, seed);
    let r = simulate(&trace, &workload, config);
    let mut text = String::new();
    let _ = writeln!(text, "routing:             {routing_name}");
    let _ = writeln!(text, "messages:            {}", r.generated);
    let _ = writeln!(
        text,
        "delivered:           {} ({:.1}%)",
        r.delivered,
        r.delivery_ratio() * 100.0
    );
    if !r.mean_delay_secs.is_nan() {
        let _ = writeln!(
            text,
            "mean delay:          {}",
            Dur::secs(r.mean_delay_secs)
        );
    }
    let _ = writeln!(
        text,
        "relay transmissions: {} ({:.1} per message)",
        r.relay_transmissions,
        r.overhead()
    );
    let _ = writeln!(text, "buffer drops:        {}", r.buffer_drops);
    let _ = writeln!(text, "peak buffer:         {}", r.peak_buffer);
    Ok(text)
}

/// `omnet components`.
pub fn components(a: &Args) -> Result<String, CliError> {
    use omnet_temporal::connectivity;
    let path = a.path(0);
    let t = Time::secs(a.secs(1, "invalid snapshot time")?);
    let trace = load(&path)?;
    let comps = connectivity::snapshot_components(&trace, t);
    let mut text = format!(
        "snapshot at {}: {} components, giant fraction {:.1}%, snapshot diameter {}\n",
        t,
        comps.len(),
        connectivity::giant_component_fraction(&trace, t) * 100.0,
        connectivity::snapshot_diameter(&trace, t)
    );
    for (i, comp) in comps.iter().take(10).enumerate() {
        if comp.len() == 1 {
            continue; // singletons are noise
        }
        let ids: Vec<String> = comp.iter().take(16).map(|n| n.to_string()).collect();
        let _ = writeln!(
            text,
            "  component {:>2} ({} nodes): {}{}",
            i + 1,
            comp.len(),
            ids.join(" "),
            if comp.len() > 16 { " …" } else { "" }
        );
    }
    Ok(text)
}

/// `omnet check`.
pub fn check(a: &Args) -> Result<String, CliError> {
    use omnet_core::invariants::contact_nodes;
    use omnet_core::{cross_check, CrossCheckOptions};
    let path = a.path(0);
    let oracle = a.switch("--oracle");
    let starts = a.flag::<usize>("--starts")?.unwrap_or(4).max(1);
    if starts > MAX_CHECK_STARTS {
        return Err(CliError::domain(format!(
            "--starts must be at most {MAX_CHECK_STARTS}"
        )));
    }
    let trace = load(&path)?;
    let mut text = String::new();
    trace
        .validate()
        .map_err(|v| CliError::domain(format!("trace structure: FAILED — {v}")))?;
    let _ = writeln!(
        text,
        "trace structure: OK ({} nodes, {} contacts, span {})",
        trace.num_nodes(),
        trace.num_contacts(),
        trace.span().duration()
    );
    let ordered_pairs = |m: u64| m * m.saturating_sub(1);
    let skipped =
        ordered_pairs(trace.num_nodes().into()) - ordered_pairs(contact_nodes(&trace).len() as u64);
    if skipped > 0 {
        let _ = writeln!(text, "skipped {skipped} pairs with a contactless endpoint");
    }

    let hop_classes = if oracle {
        if trace.num_contacts() > 64 {
            return Err(CliError::domain(format!(
                "--oracle enumerates every contact sequence (exponential) and this \
                 trace has {} contacts; prune it below 64 first",
                trace.num_contacts()
            )));
        }
        vec![1, 2, 3, 4]
    } else {
        Vec::new()
    };
    let span = trace.span();
    let start_times: Vec<Time> = (0..starts)
        .map(|i| {
            let frac = i as f64 / starts as f64;
            Time::secs(span.start.as_secs() + frac * span.duration().as_secs())
        })
        .collect();
    let opts = CrossCheckOptions {
        hop_classes,
        starts: start_times,
        max_divergences: 8,
    };
    let divergences = cross_check(&trace, &opts);
    if divergences.is_empty() {
        let _ = writeln!(
            text,
            "delivery frontiers: OK (all pairs satisfy condition 4)"
        );
        let _ = writeln!(
            text,
            "differential cross-check: OK (profiles vs Dijkstra at {} starts{})",
            starts,
            if oracle {
                ", hop classes 1-4 vs brute force"
            } else {
                ""
            }
        );
        Ok(text)
    } else {
        for d in &divergences {
            let _ = writeln!(text, "DIVERGENCE: {d}");
        }
        Err(CliError::domain(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory per call: tests run in parallel and must never
    /// read each other's trace or artifact files.
    fn tempdir() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("omnet-cli-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy_trace_file(dir: &Path) -> String {
        let p = dir.join("toy.trace");
        std::fs::write(
            &p,
            "# nodes 4\n# internal 4\n# window 0 1000\n\
             0 1 0 120\n1 2 100 260\n2 3 400 520\n0 3 800 920\n0 1 600 720\n",
        )
        .unwrap();
        p.display().to_string()
    }

    /// Runs one whitespace-separated `omnet` invocation in-process.
    fn omnet(args: &str) -> Result<String, CliError> {
        let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
        crate::run(&argv).map(Option::unwrap_or_default)
    }

    #[test]
    fn check_passes_on_well_formed_trace() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("check {p} --oracle --starts 3")).unwrap();
        assert!(out.contains("trace structure: OK"));
        assert!(out.contains("condition 4"));
        assert!(
            out.contains("at 3 starts, hop classes 1-4 vs brute force"),
            "{out}"
        );
        let out = omnet(&format!("check {p}")).unwrap();
        assert!(out.contains("at 4 starts)"), "{out}");
    }

    #[test]
    fn check_oracle_refuses_large_traces() {
        let p = tempdir().join("large.trace");
        let mut text = String::from("# nodes 40\n");
        for i in 0..70u32 {
            let t = f64::from(i) * 10.0;
            let _ = writeln!(text, "{} {} {} {}", i % 39, i % 39 + 1, t, t + 5.0);
        }
        std::fs::write(&p, text).unwrap();
        let err = omnet(&format!("check {} --oracle", p.display())).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert!(err.to_string().contains("prune"), "{err}");
    }

    #[test]
    fn stats_renders_key_lines() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("stats {p}")).unwrap();
        assert!(out.contains("4 internal + 0 external"));
        assert!(out.contains("5 internal + 0 external"));
        assert!(out.contains("contact duration"));
        assert!(out.contains("inter-contact time"));
    }

    #[test]
    fn convert_roundtrips_lenient_listing() {
        let dir = tempdir();
        let input = dir.join("raw.txt");
        std::fs::write(&input, "A B 0 100 extra cols\nB C 50 150\nnot a row\n").unwrap();
        let output = dir.join("converted.trace");
        let msg = omnet(&format!("convert {} {}", input.display(), output.display())).unwrap();
        assert!(msg.contains("imported 2 rows (1 skipped)"));
        let back = io::load(&output).unwrap();
        assert_eq!(back.num_contacts(), 2);
        assert_eq!(back.num_nodes(), 3);
    }

    #[test]
    fn generate_writes_a_trace_seeded_7_by_default() {
        let dir = tempdir();
        let gen = |name: &str, seed: &str| {
            let output = dir.join(name);
            let msg = omnet(&format!(
                "generate HongKong {} --days 0.5{seed}",
                output.display()
            ));
            assert!(msg.unwrap().contains("Hong-Kong"));
            std::fs::read(output).unwrap()
        };
        let default = gen("hk.trace", "");
        assert_eq!(default, gen("hk7.trace", " --seed 7"));
        assert_ne!(default, gen("hk8.trace", " --seed 8"));
        let t = io::load(&dir.join("hk.trace")).unwrap();
        assert_eq!(t.num_internal(), 37);
        assert_eq!(t.span().duration(), Dur::hours(12.0));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = omnet("generate nope x").unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert!(err.to_string().contains("unknown data set"));
    }

    #[test]
    fn missing_trace_is_an_io_error() {
        let err = omnet("stats /definitely/not/a/real/file.trace").unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("file.trace"));
    }

    #[test]
    fn diameter_reports_value() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("diameter {p} --max-hops 6")).unwrap();
        assert!(out.contains("-diameter"), "{out}");
        assert!(out.contains("diameter per delay"));
        assert_eq!(
            omnet(&format!("diameter {p} --internal-only --eps 0.01")).unwrap(),
            out
        );
    }

    /// The defaults `--eps 0.01` and `--max-hops 10`: a 12-node relay line
    /// needs 11 hops, so the exact diameter exceeds the default cap.
    #[test]
    fn diameter_defaults_to_ten_hops() {
        let p = tempdir().join("line.trace");
        let rows: String = (0..11)
            .map(|i| format!("{i} {} {} {}\n", i + 1, 10 * i, 10 * i + 5))
            .collect();
        std::fs::write(&p, rows).unwrap();
        let p = p.display();
        let out = omnet(&format!("diameter {p} --eps 0")).unwrap();
        assert!(out.starts_with("(1-0)-diameter exceeds 10 hops"), "{out}");
        assert_eq!(
            omnet(&format!("diameter {p}")).unwrap(),
            omnet(&format!("diameter {p} --eps 0.01 --max-hops 10")).unwrap()
        );
    }

    /// A degenerate trace — no message creation time to draw — is a typed
    /// domain error (exit 4) from `diameter` and `cdf`, never a panic.
    fn assert_empty_window_refused(text: &str) {
        let p = tempdir().join("degenerate.trace");
        std::fs::write(&p, text).unwrap();
        let err = omnet(&format!("diameter {}", p.display())).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("window is empty"), "{err}");
        let err = omnet(&format!("cdf {}", p.display())).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
    }

    #[test]
    fn diameter_of_an_empty_trace_file_is_a_domain_error() {
        assert_empty_window_refused("");
    }

    #[test]
    fn diameter_of_a_zero_length_window_is_a_domain_error() {
        assert_empty_window_refused("# window 0 0\n");
    }

    #[test]
    fn cdf_renders_series() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("cdf {p} --hops 1,3 --points 5")).unwrap();
        assert!(out.contains("1hop") && out.contains("3hop") && out.contains("flood"));
        assert!(!out.contains("2hop"), "{out}");
        // Defaults: hop classes 1, 2, 4 over 16 grid points.
        let out = omnet(&format!("cdf {p}")).unwrap();
        assert!(out.contains("1hop") && out.contains("2hop") && out.contains("4hop"));
        assert_eq!(
            out,
            omnet(&format!("cdf {p} --hops 1,2,4 --points 16")).unwrap()
        );
    }

    #[test]
    fn path_prints_route() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("path {p} 0 3 0")).unwrap();
        assert!(out.contains("earliest arrival"));
        assert!(out.contains("hop  1: 0 -> 1"));
        // unreachable direction
        let out = omnet(&format!("path {p} 3 1 900")).unwrap();
        assert!(out.contains("no path"));
    }

    #[test]
    fn path_validates_ids() {
        let p = toy_trace_file(&tempdir());
        assert!(omnet(&format!("path {p} 9 1 0")).is_err());
        assert!(omnet(&format!("path {p} 1 1 0")).is_err());
    }

    #[test]
    fn prune_both_modes() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out1 = dir.join("kept.trace");
        let msg = omnet(&format!("prune {p} {} --keep 1.0", out1.display())).unwrap();
        assert!(msg.contains("kept 5 of 5"));
        let out2 = dir.join("long.trace");
        omnet(&format!("prune {p} {} --min-duration 121", out2.display())).unwrap();
        let t = io::load(&out2).unwrap();
        assert_eq!(t.num_contacts(), 1); // only the 160 s contact exceeds 121 s
    }

    #[test]
    fn flood_lists_reached_nodes() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("flood {p} 0 0")).unwrap();
        assert!(out.contains("reached 4 of 4 nodes"), "{out}");
        assert!(out.contains("node"), "{out}");
        assert!(out.contains("hops"), "{out}");
        let out = omnet(&format!("flood {p} 0 0 --ttl 1")).unwrap();
        assert!(out.contains("(TTL 1): reached 3 of 4 nodes"), "{out}");
    }

    #[test]
    fn journeys_lists_pareto_routes() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("journeys {p} 0 3")).unwrap();
        assert!(out.contains("optimal journeys"), "{out}");
        assert!(out.contains("hops: 0 ->"));
    }

    #[test]
    fn simulate_reports_metrics() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!(
            "simulate {p} --messages 10 --routing spray:4 --ttl-hops 4 --seed 1"
        ))
        .unwrap();
        assert!(out.contains("routing:             spray:4"), "{out}");
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("relay transmissions"));
        // Defaults: 200 epidemic messages, unlimited buffers, seed 7.
        let out = omnet(&format!("simulate {p}")).unwrap();
        assert!(out.contains("routing:             epidemic"), "{out}");
        assert!(out.contains("messages:            200"), "{out}");
        assert_eq!(
            out,
            omnet(&format!("simulate {p} --messages 200 --buffer 0 --seed 7")).unwrap()
        );
        // invalid routing rejected
        assert!(omnet(&format!("simulate {p} --routing bogus")).is_err());
    }

    #[test]
    fn components_describes_snapshot() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("components {p} 110")).unwrap();
        assert!(out.contains("snapshot at"), "{out}");
        assert!(out.contains("component"));
    }

    #[test]
    fn delivery_reports_arrival_and_unreachable() {
        let p = toy_trace_file(&tempdir());
        let out = omnet(&format!("delivery {p} 0 3 0")).unwrap();
        assert!(out.contains("delivery 0 -> 3"), "{out}");
        assert!(out.contains("(unlimited hops): arrives"), "{out}");
        let out = omnet(&format!("delivery {p} 3 1 900 --hops 1")).unwrap();
        assert!(out.contains("(1 hops): unreachable"), "{out}");
    }

    fn precomputed_dir(trace: &str, shards: u32) -> String {
        let out = tempdir().join("art");
        let msg = omnet(&format!(
            "precompute {trace} {} --shards {shards} --dataset-key toy",
            out.display()
        ))
        .unwrap();
        assert!(msg.contains("precomputed 4 source rows"), "{msg}");
        assert!(msg.contains(&format!("into {shards} shard(s)")), "{msg}");
        out.display().to_string()
    }

    #[test]
    fn precompute_defaults_to_one_shard_keyed_by_file_name() {
        let p = toy_trace_file(&tempdir());
        let out = tempdir().join("art");
        let msg = omnet(&format!("precompute {p} {}", out.display())).unwrap();
        assert!(msg.contains("into 1 shard(s)"), "{msg}");
        let stats = omnet(&format!("query {} stats", out.display())).unwrap();
        assert!(stats.contains("dataset:            toy.trace"), "{stats}");
        let out = tempdir().join("art");
        omnet(&format!(
            "precompute {p} {} --store-levels 1",
            out.display()
        ))
        .unwrap();
        let stats = omnet(&format!("query {} stats", out.display())).unwrap();
        assert!(stats.contains("stored hop classes: 1"), "{stats}");
    }

    #[test]
    fn precompute_then_query_matches_direct_commands() {
        let p = toy_trace_file(&tempdir());
        let art = precomputed_dir(&p, 2);
        let q = |tail: &str| omnet(&format!("query {art} {tail}")).unwrap();
        let direct = |cmd: &str| omnet(cmd).unwrap();
        // Diameter answered from artifacts must equal the direct command.
        assert_eq!(
            q("diameter 0.01 6"),
            direct(&format!("diameter {p} --eps 0.01 --max-hops 6"))
        );
        // Delivery likewise.
        assert_eq!(
            q("delivery 0 3 0 2"),
            direct(&format!("delivery {p} 0 3 0 --hops 2"))
        );
        // Path with the trace attached reproduces the route byte-for-byte.
        assert_eq!(
            q(&format!("path 0 3 0 --trace {p}")),
            direct(&format!("path {p} 0 3 0"))
        );
        // Without the trace the same arrival is reported, route omitted.
        let routeless = q("path 0 3 0");
        assert!(routeless.contains("earliest arrival"), "{routeless}");
        assert!(!routeless.contains("via contact"), "{routeless}");
        // Stats describes the loaded set.
        let stats = q("stats");
        assert!(stats.contains("dataset:            toy"), "{stats}");
        assert!(stats.contains("shards loaded:      2"), "{stats}");
    }

    /// `--remote` answers through a live server, rendered like the local
    /// load: the first positional is the served dataset's name.
    #[test]
    fn remote_query_matches_local() {
        let p = toy_trace_file(&tempdir());
        let art = precomputed_dir(&p, 2);
        let engine = Engine::load_dir(Path::new(&art)).unwrap();
        let server = Server::bind("127.0.0.1:0", vec![("toy".into(), engine)]).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let running = std::thread::spawn(move || server.run().unwrap());
        // `stats` first: it reports what the served engine has materialized.
        for q in ["stats", "delivery 0 3 0 2", "diameter 0.01 6", "path 0 3 0"] {
            let remote = omnet(&format!("query toy {q} --remote {addr}")).unwrap();
            assert_eq!(remote, omnet(&format!("query {art} {q}")).unwrap(), "{q}");
        }
        let err = omnet(&format!("query toy delivery 0 99 0 --remote {addr}")).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        handle.shutdown();
        running.join().unwrap();
    }

    #[test]
    fn query_batch_preserves_order_and_survives_bad_lines() {
        let p = toy_trace_file(&tempdir());
        let art = precomputed_dir(&p, 3);
        let engine = Engine::load_dir(Path::new(&art)).unwrap();
        let out = query_batch(
            &engine,
            "# header comment\n\
             delivery 0 3 0\n\
             \n\
             bogus query\n\
             delivery 0 99 0\n\
             path 1 3 0\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("delivery 0 -> 3"), "{out}");
        assert!(lines[1].starts_with("error: query syntax"), "{out}");
        assert!(lines[2].starts_with("error: node 99 out of range"), "{out}");
        assert!(lines[3].starts_with("earliest arrival"), "{out}");
    }

    #[test]
    fn query_rejects_conflicting_modes_and_bad_input() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let art = precomputed_dir(&p, 1);
        for (args, conflict) in [
            (format!("query {art}"), "expected a query"),
            (format!("query {art} stats --stdin"), "mutually exclusive"),
            (
                format!("query toy stats --remote 127.0.0.1:1 --trace {p}"),
                "local-load option",
            ),
            (
                "query toy --remote 127.0.0.1:1".to_string(),
                "expected a query",
            ),
        ] {
            let err = omnet(&args).unwrap_err();
            assert!(
                matches!(&err, CliError::Conflict(m) if m.contains(conflict)),
                "{args}: {err}"
            );
        }
        let err = omnet(&format!("query {art} frobnicate")).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err}");
        // A missing artifact directory is an I/O error (exit 5), not a panic.
        let missing = dir.join("no-such-artifacts");
        let err = omnet(&format!("query {} stats", missing.display())).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }

    #[test]
    fn corrupted_artifact_is_a_typed_cli_error() {
        let p = toy_trace_file(&tempdir());
        let art = precomputed_dir(&p, 1);
        let shard = std::fs::read_dir(&art)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&shard, &bytes).unwrap();
        // Shard verification is deferred to first row access, so query a
        // row: the corruption is rejected either at load (header damage)
        // or on that first access (ROWS damage) — never answered from.
        let err = omnet(&format!("query {art} delivery 0 3 0")).unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("artifact:") || msg.contains("failed verification"),
            "{msg}"
        );
    }

    #[test]
    fn serve_rejects_bad_bindings_before_loading() {
        for (args, msg) in [
            ("serve 127.0.0.1:0", "at least one dataset"),
            ("serve 127.0.0.1:0 reality", "dataset binding 'reality'"),
            ("serve 127.0.0.1:0 =shards", "dataset binding '=shards'"),
            ("serve 127.0.0.1:0 reality=", "dataset binding 'reality='"),
            (
                "serve 127.0.0.1:0 r=shards --trace t",
                "--trace binding 't'",
            ),
            (
                "serve 127.0.0.1:0 r=shards --trace t=",
                "--trace binding 't='",
            ),
            (
                "serve 127.0.0.1:0 r=shards --trace =t.trace",
                "--trace binding '=t.trace'",
            ),
        ] {
            let err = omnet(args).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains(msg)),
                "{args}: {err}"
            );
        }
        // Well-formed bindings reach the loader: the missing directory is
        // the first error.
        let err = omnet("serve 127.0.0.1:0 r=/no/such/shards --trace t=/no/t").unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }
}
