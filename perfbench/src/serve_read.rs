//! `serve_read`: an artifact-backed dataset under two read connections.
//!
//! Infocom06 over one day, precomputed into 16 shards before the clock
//! starts and served with the trace attached. Connection A sends
//! interactive 1-query requests, connection B bulk 256-query requests;
//! 90% `delivery` (hop bound from {1, 2, 4, ∞}) and 10% `path`, sources
//! Zipf(1.0), destinations and times uniform.

use crate::gen::{request_lines, Rng, Universe, Zipf, PRESET_SEED};
use crate::report::{peak_rss_mb, reset_peak_rss, HostSpeed, Outcome};
use crate::served::{self, closed_loop, query, Call, Served, Split, SplitNames, PRIMARY};
use crate::stats::{describe, median, tail};
use crate::{Config, SETUP_REPS};
use omnet_artifact::set::shard_file_name;
use omnet_artifact::{shard_ranges, write_shard, ArtifactMeta, ShardRange};
use omnet_core::{AllPairsProfiles, ProfileOptions};
use omnet_mobility::Dataset;
use omnet_serve::wire::{Client, Request};
use omnet_serve::Engine;
use omnet_temporal::Trace;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const DATASET: &str = "infocom06";
const DAYS: f64 = 1.0;
const SHARDS: u32 = 16;
const BULK: usize = 256;
const PATH_SHARE: f64 = 0.1;
/// Distinct requests per connection; the loop cycles through them.
const POOL: usize = 512;
/// Every `KEEP`-th response is kept for the output check and the split.
const KEEP: usize = 4;

const BULK_NAMES: SplitNames = SplitNames {
    roundtrip: "bulk.roundtrip_ms",
    unattributed: "bulk.unattributed_ms",
    parse: "bulk.parse_us",
    engine: "bulk.engine_ms",
    encode: "bulk.encode_us",
    decode: "bulk.decode_us",
    req_bytes: "bulk.req_bytes",
    resp_bytes: "bulk.resp_bytes",
};

fn load(dir: &Path, trace: &Arc<Trace>) -> Result<Engine, String> {
    Engine::load_dir(dir)
        .and_then(|e| e.with_trace(Arc::clone(trace)))
        .map_err(|e| format!("load shards: {e}"))
}

/// Map the shards, start the server, connect both clients, and warm up:
/// one request touching every shard on A, the first bulk request on B.
fn setup(
    dir: &Path,
    trace: &Arc<Trace>,
    warm: &Request,
    bulk: &Request,
) -> Result<(Served, Client, Client), String> {
    let served = Served::start(DATASET, load(dir, trace)?)?;
    let mut a = served.connect()?;
    let mut b = served.connect()?;
    for (client, req) in [(&mut a, warm), (&mut b, bulk)] {
        let resp = client.call(req).map_err(|e| format!("warm-up: {e}"))?;
        served::results(&resp).ok_or("warm-up request failed")?;
    }
    Ok((served, a, b))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // Inputs: the preset trace, its shards on disk, and both request pools.
    let trace = Arc::new(Dataset::Infocom06.generate_days(DAYS, PRESET_SEED));
    let dir = cfg.work.join("shards");
    let opts = ProfileOptions::default();
    let meta = ArtifactMeta {
        dataset_key: DATASET.into(),
        num_nodes: trace.num_nodes(),
        num_internal: trace.num_internal(),
        window: trace.span(),
        options: opts,
    };
    // Shard by shard, so the input phase never holds every row at once
    // and the heap it leaves behind does not inflate `peak_rss_mb`.
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (index, r) in shard_ranges(meta.num_nodes, SHARDS).into_iter().enumerate() {
        let rows = AllPairsProfiles::compute_range(&trace, opts, r.clone());
        let range = ShardRange {
            index: index as u32,
            count: SHARDS,
            begin: r.start,
            end: r.end,
        };
        let path = dir.join(shard_file_name("profiles", range.index, SHARDS));
        write_shard(&path, &meta, range, &rows).map_err(|e| format!("precompute: {e}"))?;
    }
    let u = Universe {
        num_nodes: trace.num_nodes(),
        window: trace.span(),
    };
    let mut rng = Rng::new(cfg.seed, 20);
    let sources = Zipf::new(rng.permutation(u.num_nodes), 1.0);
    let interactive: Vec<Request> = (0..POOL)
        .map(|_| {
            query(
                DATASET,
                request_lines(&mut rng, &u, &sources, 1, PATH_SHARE),
            )
        })
        .collect();
    let bulk: Vec<Request> = (0..POOL / 8)
        .map(|_| {
            query(
                DATASET,
                request_lines(&mut rng, &u, &sources, BULK, PATH_SHARE),
            )
        })
        .collect();
    let warm = query(
        DATASET,
        shard_ranges(u.num_nodes, SHARDS)
            .into_iter()
            .map(|r| {
                format!(
                    "delivery {} {} {}",
                    r.start,
                    (r.start + 1) % u.num_nodes,
                    u.window.start.as_secs()
                )
            })
            .collect(),
    );
    eprintln!(
        "serve_read: {} nodes, {} contacts, seed {}",
        u.num_nodes,
        trace.num_contacts(),
        cfg.seed
    );
    let mut host = HostSpeed::new();
    reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(Served, Client, Client)> = None;
    for _ in 0..SETUP_REPS {
        // Only one server holds decoded shards at a time.
        if let Some((served, a, b)) = live.take() {
            drop((a, b));
            served.stop()?;
        }
        host.sample();
        let t = Instant::now();
        live = Some(setup(&dir, &trace, &warm, &bulk[0])?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (served, mut a, mut b) = live.ok_or("no set-up")?;

    let start = Instant::now();
    let ((calls_a, failed_a), (calls_b, failed_b)) = std::thread::scope(|s| {
        let ta = s.spawn(|| closed_loop(&mut a, &interactive, start, cfg.window, KEEP));
        let tb = s.spawn(|| closed_loop(&mut b, &bulk, start, cfg.window, KEEP));
        (
            ta.join().expect("connection A panicked"),
            tb.join().expect("connection B panicked"),
        )
    });
    let rss = peak_rss_mb();
    drop((a, b));
    let report = served.stop()?;
    eprintln!(
        "serve_read: {} requests served; interactive {}",
        report.requests,
        describe(&calls_a.iter().map(|c| c.ms).collect::<Vec<_>>())
    );

    let mut out = Outcome {
        attempted: (calls_a.len() + calls_b.len()) as u64 + failed_a + failed_b,
        failed: failed_a + failed_b,
        ..Outcome::default()
    };
    // Output check, after the window: kept wire responses against the
    // in-process engine, slot for slot.
    let engine = load(&dir, &trace)?;
    let kept =
        |calls: &[Call], pool: &[Request]| -> Vec<(Request, f64, omnet_serve::wire::Response)> {
            calls
                .iter()
                .filter_map(|c| c.response.clone().map(|r| (pool[c.index].clone(), c.ms, r)))
                .collect()
        };
    let kept_a = kept(&calls_a, &interactive);
    let kept_b = kept(&calls_b, &bulk);
    for (req, _, resp) in kept_a.iter().chain(&kept_b) {
        if !served::agrees(&engine, req, resp) {
            out.failed += 1;
        }
    }
    out.correct = out.failed == 0 && !calls_a.is_empty() && !calls_b.is_empty();

    if cfg.traced {
        let splits = |kept: &[(Request, f64, omnet_serve::wire::Response)]| -> Vec<Split> {
            kept.iter()
                .map(|(req, ms, resp)| served::split(&engine, req, resp, *ms))
                .collect()
        };
        let sa = splits(&kept_a);
        served::set_split(&mut out, &PRIMARY, &sa);
        served::set_split(&mut out, &BULK_NAMES, &splits(&kept_b));
        let share: Vec<f64> = sa
            .iter()
            .map(|s| s.unattributed_ms() / s.roundtrip_ms)
            .collect();
        out.set("server.unattributed_share", median(&share).unwrap_or(0.0));
        out.set("host.loop_ms", host.loop_ms());
        return Ok(out);
    }

    let ms = |calls: &[Call]| calls.iter().map(|c| c.ms).collect::<Vec<_>>();
    let (op, op2) = (ms(&calls_a), ms(&calls_b));
    let paths: Vec<f64> = calls_a
        .iter()
        .filter(|c| matches!(&interactive[c.index], Request::Query { lines, .. } if lines[0].starts_with("path")))
        .map(|c| c.ms)
        .collect();
    out.set("setup_s", median(&setup_s).unwrap_or(0.0) * host.scale());
    out.set("peak_rss_mb", rss.unwrap_or(0.0));
    out.set("ok_ratio", out.ok_ratio());
    out.set(
        "throughput_per_s",
        served::throughput(&[&calls_a, &calls_b]),
    );
    out.set("op_p50_ms", median(&op).unwrap_or(0.0));
    out.set("op_tail_ms", tail(&op, 90.0));
    out.set("op2_p50_ms", median(&op2).unwrap_or(0.0));
    out.set("op3_p50_ms", median(&paths).unwrap_or(0.0));
    Ok(out)
}
