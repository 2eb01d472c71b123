//! Subcommand implementations: pure functions from arguments to rendered
//! output (writing trace files where the command's contract says so).
//!
//! Failures are typed: trace file problems surface as [`CliError::Io`],
//! rejected inputs and failed invariant checks as [`CliError::Domain`],
//! malformed embedded values (routing specs, raw listings) as
//! [`CliError::Parse`].

use crate::args::*;
use crate::error::CliError;
use crate::render;
use omnet_artifact::{write_set, ArtifactError, ArtifactMeta};
use omnet_core::{
    optimal_journeys, route_string, AllPairsProfiles, CurveOptions, HopBound, ProfileOptions,
    SuccessCurves,
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
pub fn stats(a: &StatsArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let s = TraceStats::of(&trace);
    let durations = omnet_temporal::stats::contact_durations(&trace);
    let gaps = omnet_temporal::stats::inter_contact_times(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "trace:               {}", a.trace.display());
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
pub fn convert(a: &ConvertArgs) -> Result<String, CliError> {
    let file = std::fs::File::open(&a.input)
        .map_err(|e| CliError::io("cannot read listing", &a.input, io::IoError::Io(e)))?;
    let imp =
        io::import_lenient(file).map_err(|e| CliError::parse(format!("import failed: {e}")))?;
    save(&imp.trace, &a.output)?;
    Ok(format!(
        "imported {} rows ({} skipped) from {} distinct device ids\n\
         wrote {} contacts among {} nodes to {}\n",
        imp.accepted,
        imp.skipped,
        imp.id_count,
        imp.trace.num_contacts(),
        imp.trace.num_nodes(),
        a.output.display()
    ))
}

/// `omnet generate`.
pub fn generate(a: &GenerateArgs) -> Result<String, CliError> {
    let dataset = match a.dataset.to_ascii_lowercase().as_str() {
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
    let trace = match a.days {
        Some(days) => dataset.generate_days(days, a.seed),
        None => dataset.generate(a.seed),
    };
    save(&trace, &a.output)?;
    Ok(format!(
        "generated synthetic {}: {} devices, {} contacts over {}\nwrote {}\n",
        dataset.label(),
        trace.num_nodes(),
        trace.num_contacts(),
        trace.span().duration(),
        a.output.display()
    ))
}

/// `omnet diameter`: routed through the typed query engine (trace-backed).
pub fn diameter(a: &DiameterArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let trace = if a.internal_only {
        transform::internal_only(&trace)
    } else {
        trace
    };
    let engine = Engine::from_trace(
        Arc::new(trace),
        ProfileOptions::default(),
        &trace_key(&a.trace),
    );
    let resp = engine
        .answer(&Query::Diameter {
            eps: a.eps,
            max_hops: a.max_hops,
            internal_only: a.internal_only,
        })
        .map_err(query_err)?;
    Ok(render::response(&resp))
}

/// `omnet cdf`.
pub fn cdf(a: &CdfArgs) -> Result<String, CliError> {
    if a.points < 2 {
        return Err(CliError::domain("--points must be at least 2"));
    }
    let trace = load(&a.trace)?;
    let trace = if a.internal_only {
        transform::internal_only(&trace)
    } else {
        trace
    };
    if trace.span().duration().as_secs() <= 0.0 {
        return Err(CliError::domain(
            "the observation window is empty: no message creation time to draw",
        ));
    }
    let horizon = trace.span().duration().as_secs().max(240.0);
    let grid: Vec<Dur> = omnet_analysis::log_grid(120.0_f64.min(horizon / 2.0), horizon, a.points)
        .into_iter()
        .map(Dur::secs)
        .collect();
    let max_hop = a.hops.iter().copied().max().unwrap_or(1);
    let mut opts = CurveOptions::standard(max_hop, grid.clone());
    opts.internal_pairs_only = a.internal_only;
    let curves = SuccessCurves::compute(&trace, &opts);
    let mut series = omnet_analysis::Series::new(
        "delay_s",
        grid.iter().map(|d| d.as_secs()).collect::<Vec<_>>(),
    );
    for &k in &a.hops {
        if let Some(c) = curves.curve(HopBound::AtMost(k)) {
            series.curve(format!("{k}hop"), c.to_vec());
        }
    }
    series.curve(
        "flood",
        curves
            .curve(HopBound::Unlimited)
            .expect("standard options include flooding")
            .to_vec(),
    );
    Ok(series.render())
}

/// `omnet path`: routed through the typed query engine (trace-backed, so
/// the concrete contact chain is reconstructed).
pub fn path(a: &PathArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let engine = Engine::from_trace(
        Arc::new(trace),
        ProfileOptions::default(),
        &trace_key(&a.trace),
    );
    let resp = engine
        .answer(&Query::Path {
            src: a.src,
            dst: a.dst,
            at: Time::secs(a.start),
        })
        .map_err(query_err)?;
    Ok(render::response(&resp))
}

/// `omnet delivery`: one delivery-function lookup through the engine.
pub fn delivery(a: &DeliveryArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let engine = Engine::from_trace(
        Arc::new(trace),
        ProfileOptions::default(),
        &trace_key(&a.trace),
    );
    let resp = engine
        .answer(&Query::Delivery {
            src: a.src,
            dst: a.dst,
            at: Time::secs(a.at),
            bound: a.hops.map_or(HopBound::Unlimited, HopBound::AtMost),
        })
        .map_err(query_err)?;
    Ok(render::response(&resp))
}

/// `omnet precompute`: trace → sharded profile artifacts on disk.
pub fn precompute(a: &PrecomputeArgs) -> Result<String, CliError> {
    if a.shards == 0 {
        return Err(CliError::domain("--shards must be positive"));
    }
    let trace = load(&a.trace)?;
    let mut b = ProfileOptions::builder();
    if let Some(k) = a.store_levels {
        b = b.store_levels(k);
    }
    if let Some(k) = a.max_levels {
        b = b.max_levels(k);
    }
    let opts = b.build();
    let meta = ArtifactMeta {
        dataset_key: a.dataset_key.clone().unwrap_or_else(|| trace_key(&a.trace)),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    let rows = AllPairsProfiles::compute(&trace, opts).into_rows();
    let paths = write_set(&a.outdir, "profiles", &meta, &rows, a.shards).map_err(artifact_err)?;
    Ok(format!(
        "precomputed {} source rows ({} stored hop classes) into {} shard(s) under {}\n",
        rows.len(),
        opts.store_levels,
        paths.len(),
        a.outdir.display()
    ))
}

/// `omnet query`: loads an artifact set and answers one inline query or a
/// stdin batch, never re-running the profile induction. With `--remote`
/// the first positional is a server-side dataset *name* and the queries
/// travel over the wire instead — same queries, same rendered bytes.
pub fn query(a: &QueryArgs) -> Result<String, CliError> {
    if let Some(addr) = &a.remote {
        return query_remote(a, addr);
    }
    let mut engine = Engine::load_dir(&a.artifacts).map_err(artifact_err)?;
    if let Some(tp) = &a.trace {
        let trace = load(tp)?;
        engine = engine.with_trace(Arc::new(trace)).map_err(artifact_err)?;
    }
    if a.stdin {
        if !a.tokens.is_empty() {
            return Err(CliError::usage(
                "--stdin and an inline query are mutually exclusive",
            ));
        }
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text).map_err(|e| {
            CliError::io(
                "cannot read queries",
                Path::new("<stdin>"),
                io::IoError::Io(e),
            )
        })?;
        return Ok(query_batch(&engine, &text));
    }
    if a.tokens.is_empty() {
        return Err(CliError::usage(
            "expected a query (delivery|path|diameter|stats) or --stdin",
        ));
    }
    let tokens: Vec<&str> = a.tokens.iter().map(String::as_str).collect();
    let q = Query::parse_tokens(&tokens).map_err(query_err)?;
    let resp = engine.answer(&q).map_err(query_err)?;
    Ok(render::response(&resp))
}

/// Answers one query per line through the engine's executor-batched path,
/// preserving line order. Failed lines render as `error: …` without
/// aborting the batch.
pub fn query_batch(engine: &Engine, text: &str) -> String {
    enum Slot {
        Answer(usize),
        Bad(QueryError),
    }
    let mut queries = Vec::new();
    let mut slots = Vec::new();
    for line in text.lines() {
        match Query::parse_line(line) {
            Ok(None) => {}
            Ok(Some(q)) => {
                slots.push(Slot::Answer(queries.len()));
                queries.push(q);
            }
            Err(e) => slots.push(Slot::Bad(e)),
        }
    }
    let answers = engine.answer_batch(&queries);
    let mut out = String::new();
    for slot in slots {
        match slot {
            Slot::Answer(i) => match &answers[i] {
                Ok(r) => out.push_str(&render::response(r)),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            },
            Slot::Bad(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        }
    }
    out
}

/// The `--remote` arm of `omnet query`: ships the query lines to an
/// `omnet serve` instance and renders the decoded answers with the same
/// renderers as the local path, so output is byte-identical.
fn query_remote(a: &QueryArgs, addr: &str) -> Result<String, CliError> {
    if a.trace.is_some() {
        return Err(CliError::usage(
            "--trace is a local-load option; attach traces server-side at `omnet serve` time",
        ));
    }
    let dataset = a.artifacts.to_string_lossy().into_owned();
    let (lines, batch) = if a.stdin {
        if !a.tokens.is_empty() {
            return Err(CliError::usage(
                "--stdin and an inline query are mutually exclusive",
            ));
        }
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text).map_err(|e| {
            CliError::io(
                "cannot read queries",
                Path::new("<stdin>"),
                io::IoError::Io(e),
            )
        })?;
        (text.lines().map(String::from).collect::<Vec<_>>(), true)
    } else {
        if a.tokens.is_empty() {
            return Err(CliError::usage(
                "expected a query (delivery|path|diameter|stats) or --stdin",
            ));
        }
        // Tokens re-split identically server-side: the query grammar is
        // whitespace-separated, so joining is lossless.
        (vec![a.tokens.join(" ")], false)
    };
    let mut client = wire::Client::connect(addr).map_err(wire_err)?;
    let resp = client
        .call(&wire::Request::Query { dataset, lines })
        .map_err(wire_err)?;
    let wire::Response::Results(results) = resp else {
        return Err(CliError::domain("remote: unexpected response type"));
    };
    if batch {
        // Mirror `query_batch`: render answers, keep `error:` lines inline.
        let mut out = String::new();
        for r in results {
            match r {
                Ok(resp) => out.push_str(&render::response(&resp)),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        Ok(out)
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
pub fn serve(a: &ServeArgs) -> Result<String, CliError> {
    let mut engines: Vec<(String, Engine)> = Vec::new();
    for (name, dir) in &a.datasets {
        if engines.iter().any(|(n, _)| n == name) {
            return Err(CliError::usage(format!("dataset '{name}' is bound twice")));
        }
        let mut engine = Engine::load_dir(dir).map_err(artifact_err)?;
        if let Some((_, tp)) = a.traces.iter().find(|(n, _)| n == name) {
            let trace = load(tp)?;
            engine = engine.with_trace(Arc::new(trace)).map_err(artifact_err)?;
        }
        engines.push((name.clone(), engine));
    }
    for (name, tp) in &a.traces {
        if a.datasets.iter().any(|(n, _)| n == name) {
            continue; // attached above
        }
        if engines.iter().any(|(n, _)| n == name) {
            return Err(CliError::usage(format!("dataset '{name}' is bound twice")));
        }
        let trace = load(tp)?;
        let engine = Engine::from_trace(Arc::new(trace), ProfileOptions::default(), &trace_key(tp));
        engines.push((name.clone(), engine));
    }
    let names: Vec<&str> = engines.iter().map(|(n, _)| n.as_str()).collect();
    let summary = names.join(", ");
    let server = Server::bind(&a.addr, engines)
        .map_err(|e| CliError::io("cannot bind", Path::new(&a.addr), io::IoError::Io(e)))?;
    let addr = server.local_addr().map_err(|e| {
        CliError::io(
            "cannot resolve bound address",
            Path::new(&a.addr),
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
        let _ = writeln!(out, "listening on {addr} (datasets: {summary})");
        let _ = out.flush();
    }
    let report = server
        .run()
        .map_err(|e| CliError::io("serve failed", Path::new(&a.addr), io::IoError::Io(e)))?;
    Ok(format!(
        "served {} connections, {} requests ({} rejected during shutdown)\n",
        report.connections, report.requests, report.rejected
    ))
}

/// `omnet prune`.
pub fn prune(a: &PruneArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let before = trace.num_contacts();
    let pruned = match (a.keep, a.min_duration) {
        (Some(keep), None) => {
            if !(0.0..=1.0).contains(&keep) {
                return Err(CliError::domain("--keep must lie in [0, 1]"));
            }
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(a.seed);
            transform::remove_random(&trace, 1.0 - keep, &mut rng)
        }
        (None, Some(secs)) => {
            if secs < 0.0 {
                return Err(CliError::domain("--min-duration must be non-negative"));
            }
            transform::min_duration(&trace, Dur::secs(secs))
        }
        _ => unreachable!("argument parser enforces exactly one mode"),
    };
    save(&pruned, &a.output)?;
    Ok(format!(
        "kept {} of {} contacts ({:.1}%)\nwrote {}\n",
        pruned.num_contacts(),
        before,
        100.0 * pruned.num_contacts() as f64 / before.max(1) as f64,
        a.output.display()
    ))
}

/// `omnet flood`.
pub fn flood_cmd(a: &FloodArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    if a.src >= trace.num_nodes() {
        return Err(CliError::domain(format!(
            "node ids must be below {}",
            trace.num_nodes()
        )));
    }
    let t0 = Time::secs(a.start);
    let out = flood(&trace, NodeId(a.src), t0, a.ttl);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "flooding from {} at {}{}: reached {} of {} nodes, {} transmissions",
        a.src,
        t0,
        a.ttl.map_or(String::new(), |t| format!(" (TTL {t})")),
        out.reached(),
        trace.num_nodes(),
        out.transmissions
    );
    let mut arrivals: Vec<(NodeId, Time, u32)> = trace
        .nodes()
        .filter(|n| n.0 != a.src && out.delivery(*n) < Time::INF)
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
pub fn journeys(a: &JourneysArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    let n = trace.num_nodes();
    if a.src >= n || a.dst >= n {
        return Err(CliError::domain(format!("node ids must be below {n}")));
    }
    if a.src == a.dst {
        return Err(CliError::domain("source equals destination"));
    }
    let profiles = AllPairsProfiles::compute(&trace, ProfileOptions::default());
    let f = profiles.profile(NodeId(a.src), NodeId(a.dst), HopBound::Unlimited);
    if f.is_empty() {
        return Ok(format!(
            "no path ever exists from {} to {}
",
            a.src, a.dst
        ));
    }
    let mut text = format!(
        "{} optimal journeys from {} to {}:
",
        f.len(),
        a.src,
        a.dst
    );
    let journeys = optimal_journeys(&trace, NodeId(a.src), NodeId(a.dst), &f)
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
pub fn simulate_cmd(a: &SimulateArgs) -> Result<String, CliError> {
    let trace = load(&a.trace)?;
    if trace.num_internal() < 2 {
        return Err(CliError::domain(
            "simulation needs at least two internal devices",
        ));
    }
    let routing =
        match a.routing.as_str() {
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
        buffer_capacity: if a.buffer == 0 { usize::MAX } else { a.buffer },
        ttl_hops: a.ttl_hops,
        ..SimConfig::default()
    };
    let workload = uniform_workload(&trace, a.messages, 0.6, a.seed);
    let r = simulate(&trace, &workload, config);
    let mut text = String::new();
    let _ = writeln!(text, "routing:             {}", a.routing);
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
pub fn components(a: &ComponentsArgs) -> Result<String, CliError> {
    use omnet_temporal::connectivity;
    let trace = load(&a.trace)?;
    let t = Time::secs(a.at);
    let comps = connectivity::snapshot_components(&trace, t);
    let mut text = format!(
        "snapshot at {}: {} components, giant fraction {:.1}%, snapshot diameter {}
",
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
pub fn check(a: &CheckArgs) -> Result<String, CliError> {
    use omnet_core::{cross_check, CrossCheckOptions};
    let trace = load(&a.trace)?;
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

    let hop_classes = if a.oracle {
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
    let starts: Vec<Time> = (0..a.starts.max(1))
        .map(|i| {
            let frac = i as f64 / a.starts.max(1) as f64;
            Time::secs(span.start.as_secs() + frac * span.duration().as_secs())
        })
        .collect();
    let opts = CrossCheckOptions {
        hop_classes,
        starts,
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
            a.starts.max(1),
            if a.oracle {
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

    fn toy_trace_file(dir: &Path) -> std::path::PathBuf {
        let p = dir.join("toy.trace");
        std::fs::write(
            &p,
            "# nodes 4\n# internal 4\n# window 0 1000\n\
             0 1 0 120\n1 2 100 260\n2 3 400 520\n0 3 800 920\n0 1 600 720\n",
        )
        .unwrap();
        p
    }

    #[test]
    fn check_passes_on_well_formed_trace() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = check(&CheckArgs {
            trace: p,
            oracle: true,
            starts: 3,
        })
        .unwrap();
        assert!(out.contains("trace structure: OK"));
        assert!(out.contains("condition 4"));
        assert!(out.contains("brute force"));
    }

    #[test]
    fn check_oracle_refuses_large_traces() {
        let dir = tempdir();
        let p = dir.join("large.trace");
        let mut text = String::from(
            "# nodes 40
",
        );
        for i in 0..70u32 {
            let t = f64::from(i) * 10.0;
            let _ = writeln!(text, "{} {} {} {}", i % 39, i % 39 + 1, t, t + 5.0);
        }
        std::fs::write(&p, text).unwrap();
        let err = check(&CheckArgs {
            trace: p,
            oracle: true,
            starts: 1,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert!(err.to_string().contains("prune"), "{err}");
    }

    #[test]
    fn stats_renders_key_lines() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = stats(&StatsArgs { trace: p }).unwrap();
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
        let msg = convert(&ConvertArgs {
            input,
            output: output.clone(),
        })
        .unwrap();
        assert!(msg.contains("imported 2 rows (1 skipped)"));
        let back = io::load(&output).unwrap();
        assert_eq!(back.num_contacts(), 2);
        assert_eq!(back.num_nodes(), 3);
    }

    #[test]
    fn generate_writes_a_trace() {
        let dir = tempdir();
        let output = dir.join("hk.trace");
        let msg = generate(&GenerateArgs {
            dataset: "HongKong".into(),
            output: output.clone(),
            days: Some(0.5),
            seed: 3,
        })
        .unwrap();
        assert!(msg.contains("Hong-Kong"));
        let t = io::load(&output).unwrap();
        assert_eq!(t.num_internal(), 37);
        assert_eq!(t.span().duration(), Dur::hours(12.0));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = generate(&GenerateArgs {
            dataset: "nope".into(),
            output: "x".into(),
            days: None,
            seed: 0,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert!(err.to_string().contains("unknown data set"));
    }

    #[test]
    fn missing_trace_is_an_io_error() {
        let err = stats(&StatsArgs {
            trace: "/definitely/not/a/real/file.trace".into(),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("file.trace"));
    }

    #[test]
    fn diameter_reports_value() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = diameter(&DiameterArgs {
            trace: p,
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        })
        .unwrap();
        assert!(out.contains("-diameter"), "{out}");
        assert!(out.contains("diameter per delay"));
    }

    /// A degenerate trace — no message creation time to draw — is a typed
    /// domain error (exit 4) from `diameter` and `cdf`, never a panic.
    fn assert_empty_window_refused(text: &str) {
        let p = tempdir().join("degenerate.trace");
        std::fs::write(&p, text).unwrap();
        let err = diameter(&DiameterArgs {
            trace: p.clone(),
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("window is empty"), "{err}");
        let err = cdf(&CdfArgs {
            trace: p,
            hops: vec![1],
            points: 5,
            internal_only: false,
        })
        .unwrap_err();
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
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = cdf(&CdfArgs {
            trace: p,
            hops: vec![1, 2],
            points: 5,
            internal_only: false,
        })
        .unwrap();
        assert!(out.contains("1hop"));
        assert!(out.contains("flood"));
    }

    #[test]
    fn path_prints_route() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = path(&PathArgs {
            trace: p.clone(),
            src: 0,
            dst: 3,
            start: 0.0,
        })
        .unwrap();
        assert!(out.contains("earliest arrival"));
        assert!(out.contains("hop  1: 0 -> 1"));
        // unreachable direction
        let out = path(&PathArgs {
            trace: p,
            src: 3,
            dst: 1,
            start: 900.0,
        })
        .unwrap();
        assert!(out.contains("no path"));
    }

    #[test]
    fn path_validates_ids() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        assert!(path(&PathArgs {
            trace: p.clone(),
            src: 9,
            dst: 1,
            start: 0.0
        })
        .is_err());
        assert!(path(&PathArgs {
            trace: p,
            src: 1,
            dst: 1,
            start: 0.0
        })
        .is_err());
    }

    #[test]
    fn prune_both_modes() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out1 = dir.join("kept.trace");
        let msg = prune(&PruneArgs {
            trace: p.clone(),
            output: out1.clone(),
            keep: Some(1.0),
            min_duration: None,
            seed: 1,
        })
        .unwrap();
        assert!(msg.contains("kept 5 of 5"));
        let out2 = dir.join("long.trace");
        prune(&PruneArgs {
            trace: p,
            output: out2.clone(),
            keep: None,
            min_duration: Some(121.0),
            seed: 1,
        })
        .unwrap();
        let t = io::load(&out2).unwrap();
        assert_eq!(t.num_contacts(), 1); // only the 160 s contact exceeds 121 s
    }

    #[test]
    fn flood_lists_reached_nodes() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = flood_cmd(&FloodArgs {
            trace: p,
            src: 0,
            start: 0.0,
            ttl: None,
        })
        .unwrap();
        assert!(out.contains("reached 4 of 4 nodes"), "{out}");
        assert!(out.contains("node"), "{out}");
        assert!(out.contains("hops"), "{out}");
    }

    #[test]
    fn journeys_lists_pareto_routes() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = journeys(&JourneysArgs {
            trace: p,
            src: 0,
            dst: 3,
        })
        .unwrap();
        assert!(out.contains("optimal journeys"), "{out}");
        assert!(out.contains("hops: 0 ->"));
    }

    #[test]
    fn simulate_reports_metrics() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = simulate_cmd(&SimulateArgs {
            trace: p.clone(),
            messages: 10,
            routing: "spray:4".into(),
            buffer: 0,
            ttl_hops: Some(4),
            seed: 1,
        })
        .unwrap();
        assert!(out.contains("delivered"), "{out}");
        assert!(out.contains("relay transmissions"));
        // invalid routing rejected
        assert!(simulate_cmd(&SimulateArgs {
            trace: p,
            messages: 1,
            routing: "bogus".into(),
            buffer: 0,
            ttl_hops: None,
            seed: 1,
        })
        .is_err());
    }

    #[test]
    fn components_describes_snapshot() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = components(&ComponentsArgs {
            trace: p,
            at: 110.0,
        })
        .unwrap();
        assert!(out.contains("snapshot at"), "{out}");
        assert!(out.contains("component"));
    }

    #[test]
    fn delivery_reports_arrival_and_unreachable() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = delivery(&DeliveryArgs {
            trace: p.clone(),
            src: 0,
            dst: 3,
            at: 0.0,
            hops: None,
        })
        .unwrap();
        assert!(out.contains("delivery 0 -> 3"), "{out}");
        assert!(out.contains("arrives"), "{out}");
        let out = delivery(&DeliveryArgs {
            trace: p,
            src: 3,
            dst: 1,
            at: 900.0,
            hops: Some(1),
        })
        .unwrap();
        assert!(out.contains("unreachable"), "{out}");
    }

    fn precomputed_dir(trace: &Path, shards: u32) -> std::path::PathBuf {
        let out = tempdir().join(format!(
            "art-{shards}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let msg = precompute(&PrecomputeArgs {
            trace: trace.to_path_buf(),
            outdir: out.clone(),
            shards,
            store_levels: None,
            max_levels: None,
            dataset_key: Some("toy".into()),
        })
        .unwrap();
        assert!(msg.contains("precomputed 4 source rows"), "{msg}");
        out
    }

    #[test]
    fn precompute_then_query_matches_direct_commands() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let art = precomputed_dir(&p, 2);
        let q = |tokens: &[&str], trace: Option<&Path>| {
            query(&QueryArgs {
                artifacts: art.clone(),
                tokens: tokens.iter().map(|s| s.to_string()).collect(),
                stdin: false,
                trace: trace.map(Path::to_path_buf),
                remote: None,
            })
            .unwrap()
        };
        // Diameter answered from artifacts must equal the direct command.
        let direct = diameter(&DiameterArgs {
            trace: p.clone(),
            eps: 0.01,
            max_hops: 6,
            internal_only: false,
        })
        .unwrap();
        assert_eq!(q(&["diameter", "0.01", "6"], None), direct);
        // Delivery likewise.
        let direct = delivery(&DeliveryArgs {
            trace: p.clone(),
            src: 0,
            dst: 3,
            at: 0.0,
            hops: Some(2),
        })
        .unwrap();
        assert_eq!(q(&["delivery", "0", "3", "0", "2"], None), direct);
        // Path with the trace attached reproduces the route byte-for-byte.
        let direct = path(&PathArgs {
            trace: p.clone(),
            src: 0,
            dst: 3,
            start: 0.0,
        })
        .unwrap();
        assert_eq!(q(&["path", "0", "3", "0"], Some(&p)), direct);
        // Without the trace the same arrival is reported, route omitted.
        let routeless = q(&["path", "0", "3", "0"], None);
        assert!(routeless.contains("earliest arrival"), "{routeless}");
        assert!(!routeless.contains("via contact"), "{routeless}");
        // Stats describes the loaded set.
        let stats = q(&["stats"], None);
        assert!(stats.contains("dataset:            toy"), "{stats}");
        assert!(stats.contains("shards loaded:      2"), "{stats}");
    }

    #[test]
    fn query_batch_preserves_order_and_survives_bad_lines() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let art = precomputed_dir(&p, 3);
        let engine = Engine::load_dir(&art).unwrap();
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
        let err = query(&QueryArgs {
            artifacts: art.clone(),
            tokens: vec![],
            stdin: false,
            trace: None,
            remote: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = query(&QueryArgs {
            artifacts: art,
            tokens: vec!["frobnicate".into()],
            stdin: false,
            trace: None,
            remote: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Parse(_)), "{err}");
        // A missing artifact directory is an I/O error (exit 5), not a panic.
        let err = query(&QueryArgs {
            artifacts: dir.join("no-such-artifacts"),
            tokens: vec!["stats".into()],
            stdin: false,
            trace: None,
            remote: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io { .. }), "{err}");
    }

    #[test]
    fn corrupted_artifact_is_a_typed_cli_error() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
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
        let err = query(&QueryArgs {
            artifacts: art,
            tokens: vec!["delivery".into(), "0".into(), "3".into(), "0".into()],
            stdin: false,
            trace: None,
            remote: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Domain(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("artifact:") || msg.contains("failed verification"),
            "{msg}"
        );
    }

    #[test]
    fn run_dispatches() {
        let dir = tempdir();
        let p = toy_trace_file(&dir);
        let out = crate::run(Command::Stats(StatsArgs { trace: p })).unwrap();
        assert!(out.contains("devices"));
    }
}
